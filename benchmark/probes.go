package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	"robustset"
	"robustset/internal/core"
	"robustset/internal/grid"
	"robustset/internal/hashutil"
	"robustset/internal/iblt"
	"robustset/internal/points"
	"robustset/internal/protocol"
	"robustset/internal/ranges"
	"robustset/internal/sketch"
	"robustset/internal/store"
	"robustset/internal/transport"
)

// probeInputs are what the layer probes run on: the two parties' sets of
// the workload (of its first instance, or across one churn cycle), its
// parameters and its strategy.
type probeInputs struct {
	params     robustset.Params
	alice, bob []robustset.Point
	strategy   robustset.Strategy
	// An op is sessions sessions spread over workers callers: 1 and 1,
	// or a cluster round's 16 and 2.
	sessions, workers int
}

// probes times single layers from outside, each call repeated and
// reported as a median. Every probe runs on every workload's inputs;
// README.md says which numbers bear on which workload.
type probes struct {
	ctx context.Context
	c   config
	in  probeInputs
	// A call is repeated reps times at least, and until the repetitions
	// add up to fill: a sub-millisecond call needs hundreds to give a
	// median that repeats.
	reps int
	fill time.Duration
	yard *yardstick
	out  map[string]metric
}

func (p *probes) set(name string, v float64, unit string) { p.out[name] = metric{v, unit} }

// timeIt returns the median wall time of fn over its repetitions, at
// nominal speed: the yardstick runs after each.
func (p *probes) timeIt(fn func() error) (time.Duration, error) {
	return p.timeReps(fn, p.fill)
}

// timeReps is timeIt for a given fill; with none, fn is called exactly
// p.reps times.
func (p *probes) timeReps(fn func() error, fill time.Duration) (time.Duration, error) {
	var d, calls []time.Duration
	for sum := time.Duration(0); len(d) < p.reps || sum < fill && len(d) < maxProbeReps; {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		took := time.Since(t0)
		d, sum = append(d, took), sum+took
		calls = p.yard.after(took, calls)
	}
	return time.Duration(float64(medianDuration(d)) / slowdownOf(calls)), nil
}

// maxProbeReps bounds the repetitions of a call too short to fill its time.
const maxProbeReps = 1000

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runProbes returns the per-layer metrics the probes measure.
func runProbes(ctx context.Context, c config, in probeInputs, peer *stagePeer, yard *yardstick) (map[string]metric, error) {
	p := &probes{ctx: ctx, c: c, in: in, reps: 5, fill: 50 * time.Millisecond, yard: yard, out: make(map[string]metric)}
	if c.smoke {
		p.reps, p.fill = 2, 0
	}
	for _, step := range []struct {
		name string
		fn   func() error
	}{
		// The protocol pair first: it is held against the real loop and
		// the replay, which ran just before.
		{"protocol", p.protocol},
		{"core", p.core}, {"grid+iblt", p.tables}, {"exact", p.exact}, {"ranges", p.ranges},
		{"store", p.store}, {"transport", func() error { return p.transport(peer) }},
		{"server", p.server}, {"cluster", p.cluster},
	} {
		if err := step.fn(); err != nil {
			return nil, fmt.Errorf("%s probes: %w", step.name, err)
		}
	}
	return p.out, nil
}

func (p *probes) core() error {
	par, alice, bob := p.in.params, p.in.alice, p.in.bob
	var sk *core.Sketch
	d, err := p.timeIt(func() (err error) { sk, err = core.BuildSketchParallel(par, alice, 2); return err })
	if err != nil {
		return err
	}
	p.set("core.build_sketch_ms", ms(d), "ms")
	blob, err := sk.MarshalBinary()
	if err != nil {
		return err
	}
	var parsed core.Sketch
	if d, err = p.timeIt(func() error { return parsed.UnmarshalBinary(blob) }); err != nil {
		return err
	}
	p.set("core.sketch_unmarshal_ms", ms(d), "ms")

	var res *core.Result
	if d, err = p.timeIt(func() (err error) { res, err = core.Reconcile(&parsed, bob); return err }); err != nil {
		return err
	}
	alloc0 := totalAlloc()
	if _, err := core.Reconcile(&parsed, bob); err != nil {
		return err
	}
	p.set("core.reconcile_alloc_kb", float64(totalAlloc()-alloc0)/1024, "KiB")
	p.set("core.reconcile_ms", ms(d), "ms")
	p.set("core.chosen_level", float64(res.Level), "count")

	// iblt.sub_decode: the scan Reconcile makes, from the finest level
	// down to the one that decodes, on tables built beforehand.
	capacity := 2 * par.DiffBudget
	top := res.Params.MaxLevel
	theirs, mine := make([]*iblt.Table, top+1), make([]*iblt.Table, top+1)
	for l := res.Level; l <= top; l++ {
		if theirs[l], err = core.BuildLevelTable(par, alice, l, capacity); err != nil {
			return err
		}
		if mine[l], err = core.BuildLevelTable(par, bob, l, capacity); err != nil {
			return err
		}
	}
	var failed, tried int
	d, err = p.timeIt(func() error {
		failed, tried = 0, 0
		for l := top; l >= res.Level; l-- {
			t := theirs[l].Clone()
			if err := t.Sub(mine[l]); err != nil {
				return err
			}
			tried++
			if _, err := t.DecodeMut(); err != nil {
				failed++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("iblt.sub_decode_ms", ms(d), "ms")
	p.set("iblt.decode_fail_share", float64(failed)/float64(tried), "ratio")

	estK := adaptiveEstimatorK
	if d, err = p.timeIt(func() error { _, err := core.LevelEstimators(par, alice, estK); return err }); err != nil {
		return err
	}
	p.set("core.level_estimators_ms", ms(d), "ms")
	var tbl *iblt.Table
	if d, err = p.timeIt(func() (err error) { tbl, err = core.BuildLevelTable(par, alice, res.Level, capacity); return err }); err != nil {
		return err
	}
	p.set("core.build_level_table_ms", ms(d), "ms")
	if d, err = p.timeIt(func() error { _, err := core.ReconcileLevel(par, tbl, bob, res.Level); return err }); err != nil {
		return err
	}
	p.set("core.reconcile_level_ms", ms(d), "ms")

	m, err := core.NewMaintainerParallel(par, alice, 2)
	if err != nil {
		return err
	}
	batch := bob[:min(256, len(bob))]
	d, err = p.timeIt(func() error {
		for _, pt := range batch {
			if err := m.Add(pt); err != nil {
				return err
			}
		}
		for _, pt := range batch {
			if err := m.Remove(pt); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("core.maintainer_update_us_per_point", us(d)/float64(2*len(batch)), "us")
	return nil
}

// tables times grid rounding and IBLT insertion at the level the
// reconciliation decoded at.
func (p *probes) tables() error {
	par, alice := p.in.params, p.in.alice
	level := int(p.out["core.chosen_level"].Value)
	g, err := grid.New(par.Universe, par.Seed)
	if err != nil {
		return err
	}
	var cell []byte
	d, err := p.timeIt(func() error {
		for _, pt := range alice {
			cell = g.AppendCell(cell[:0], level, pt)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("grid.round_ns_per_point", float64(d)/float64(len(alice)), "ns")

	keys := occurrenceKeys(alice)
	d, err = p.timeIt(func() error {
		t, err := iblt.New(iblt.Config{
			Cells: iblt.RecommendedCells(2*par.DiffBudget, core.DefaultHashCount), HashCount: core.DefaultHashCount,
			KeyLen: exactKeyLen(), Seed: par.Seed,
		})
		if err != nil {
			return err
		}
		for _, k := range keys {
			t.Insert(k)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("iblt.insert_ns_per_key", float64(d)/float64(len(keys)), "ns")
	return nil
}

// exact times what an exact session builds from scratch on both sides:
// the strata estimator and the rateless cell stream and decoder.
func (p *probes) exact() error {
	par := p.in.params
	theirKeys, myKeys := occurrenceKeys(p.in.alice), occurrenceKeys(p.in.bob)
	onlyA, onlyB := points.MultisetDiff(p.in.alice, p.in.bob)
	trueDiff := float64(max(1, len(onlyA)+len(onlyB)))

	var theirs *sketch.Strata
	d, err := p.timeIt(func() (err error) { theirs, err = strataOf(par, theirKeys); return err })
	if err != nil {
		return err
	}
	p.set("sketch.strata_build_ms", ms(d), "ms")
	mine, err := strataOf(par, myKeys)
	if err != nil {
		return err
	}
	estimate, err := sketch.EstimateStrataDiff(theirs, mine)
	if err != nil {
		return err
	}
	p.set("sketch.strata_est_ratio", max(estimate, 1)/trueDiff, "ratio")

	var stream *iblt.CellStream
	d, err = p.timeIt(func() (err error) {
		if stream, err = iblt.NewCellStream(cellConfig(par), theirKeys); err == nil {
			stream.Emit(firstChunk(estimate))
		}
		return err
	})
	if err != nil {
		return err
	}
	p.set("iblt.cellstream_emit_ms", ms(d), "ms")

	// The decoder is fed from pre-emitted blocks, so only its own work is
	// timed: subtracting the local cells and peeling.
	if stream, err = iblt.NewCellStream(cellConfig(par), theirKeys); err != nil {
		return err
	}
	var blocks []*iblt.CellBlock
	var cells int
	d, err = p.timeIt(func() error {
		dec, err := iblt.NewCellDecoder(cellConfig(par), myKeys)
		if err != nil {
			return err
		}
		cells = 0
		for i, chunk := 0, firstChunk(estimate); ; i, chunk = i+1, nextChunk(dec.Frontier()) {
			if i == len(blocks) {
				blocks = append(blocks, stream.Emit(chunk))
			}
			if err := dec.AddBlock(blocks[i]); err != nil {
				return err
			}
			cells += blocks[i].Len()
			if _, ok := dec.Decoded(); ok {
				return nil
			}
		}
	})
	if err != nil {
		return err
	}
	p.set("iblt.celldecoder_ms", ms(d), "ms")
	p.set("iblt.cells_per_diff", float64(cells)/trueDiff, "ratio")
	return nil
}

func (p *probes) ranges() error {
	u, alice := p.in.params.Universe, p.in.alice
	var keys [][]byte
	d, err := p.timeIt(func() error { keys = ranges.Keys(u, alice); return nil })
	if err != nil {
		return err
	}
	p.set("ranges.keys_ms", ms(d), "ms")
	var tree *ranges.Tree
	d, err = p.timeIt(func() (err error) {
		tree, err = ranges.NewFromSorted(ranges.KeyLen(u.Dim), p.in.params.Seed, keys)
		return err
	})
	if err != nil {
		return err
	}
	p.set("ranges.tree_build_ms", ms(d), "ms")

	// Keys of an occurrence no point reaches, so none is in the tree.
	fresh := make([][]byte, min(256, len(alice)))
	for i := range fresh {
		fresh[i] = ranges.EncodeKey(nil, alice[i], 1<<20)
	}
	d, err = p.timeIt(func() error {
		for _, k := range fresh {
			if err := tree.Insert(k); err != nil {
				return err
			}
		}
		for _, k := range fresh {
			if err := tree.Delete(k); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("ranges.tree_update_us_per_key", us(d)/float64(2*len(fresh)), "us")
	return nil
}

func (p *probes) store() error {
	par, alice := p.in.params, p.in.alice
	pointSize := points.EncodedSize(par.Universe.Dim)
	encoded := make([][]byte, len(alice))
	for i, pt := range alice {
		encoded[i] = points.EncodeNew(pt)
	}
	dir, err := freshDir(p.c, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	eng, _, err := store.Open(dir, pointSize, store.Options{Fsync: store.SyncNone, SnapshotEvery: -1})
	if err != nil {
		return err
	}
	// Exactly reps·256 appends, so the log's size and its recovery below
	// do not depend on how fast they went.
	const batches = 256
	d, err := p.timeReps(func() error {
		for b := 0; b < batches; b++ {
			i := b * churnBatch % (len(encoded) - churnBatch)
			if err := eng.Append(store.OpAdd, encoded[i:i+churnBatch]); err != nil {
				return err
			}
		}
		return nil
	}, 0)
	if err != nil {
		return errors.Join(err, eng.Close())
	}
	p.set("store.wal_append_us_per_batch", us(d)/batches, "us")
	st, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		return errors.Join(err, eng.Close())
	}
	p.set("store.write_amp", float64(st.Size())/float64(p.reps*batches*churnBatch*pointSize), "ratio")

	// Recovery of what is on disk now: no snapshot, reps·256 records.
	if err := eng.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	eng, rec, err := store.Open(dir, pointSize, store.Options{Fsync: store.SyncAlways, SnapshotEvery: -1})
	if err != nil {
		return err
	}
	defer eng.Close()
	p.set("store.recover_ms", ms(time.Since(t0)), "ms")
	if len(rec.Tail) != p.reps*batches {
		return fmt.Errorf("recovered %d records, %d appended", len(rec.Tail), p.reps*batches)
	}

	blob, err := sketchBlob(par, alice)
	if err != nil {
		return err
	}
	if d, err = p.timeIt(func() error { return eng.WriteSnapshot(encoded, blob) }); err != nil {
		return err
	}
	p.set("store.snapshot_write_ms", ms(d), "ms")
	if d, err = p.timeIt(func() error { return eng.Append(store.OpAdd, encoded[:churnBatch]) }); err != nil {
		return err
	}
	p.set("store.wal_fsync_ms", ms(d), "ms")
	return nil
}

func (p *probes) transport(peer *stagePeer) error {
	ctx := p.ctx
	small := make([]byte, 64)
	small[0] = reqEcho
	const echoes = 200
	echo := func() error {
		for i := 0; i < echoes; i++ {
			st, err := peer.mux.Open(ctx)
			if err != nil {
				return err
			}
			if err := st.Send(ctx, small); err != nil {
				return err
			}
			if _, err := st.Recv(ctx); err != nil {
				return err
			}
			if err := st.Close(); err != nil {
				return err
			}
		}
		return nil
	}
	d, err := p.timeIt(echo)
	if err != nil {
		return err
	}
	p.set("transport.mux_rtt_small_us", us(d)/echoes, "us")
	alloc0 := totalAlloc()
	if err := echo(); err != nil {
		return err
	}
	// Two messages per echo, both ends of each in this process.
	p.set("transport.alloc_b_per_msg", float64(totalAlloc()-alloc0)/(echoes*2), "B")

	st, err := peer.mux.Open(ctx)
	if err != nil {
		return err
	}
	defer st.Close()
	big := make([]byte, 64<<10)
	big[0] = reqSink
	d, err = p.timeIt(func() error {
		for sent := 0; sent < 1<<20; sent += len(big) {
			if err := st.Send(ctx, big); err != nil {
				return err
			}
		}
		// The peer handles a stream's messages in order, so the answer to
		// this one says the megabyte has arrived.
		return fetch(ctx, st, 1)
	})
	if err != nil {
		return err
	}
	p.set("transport.mux_xfer_ms_per_mb", ms(d), "ms")
	return nil
}

func (p *probes) protocol() error {
	ctx, par := p.ctx, p.in.params
	const hellos = 200
	d, err := p.timeIt(func() error {
		for i := 0; i < hellos; i++ {
			a, b := transport.Pair()
			errc := make(chan error, 1)
			go func() {
				_, err := protocol.RecvHello(ctx, a)
				if err == nil {
					err = protocol.SendAccept(ctx, a, par)
				}
				errc <- err
			}()
			_, err := protocol.RunHelloClient(ctx, b, protocol.Hello{Strategy: protocol.StrategyRobust, Dataset: "probe"})
			if err = errors.Join(err, <-errc); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("protocol.hello_rtt_us", us(d)/hellos, "us")

	// The workload's own protocol pair over an in-memory pipe: no TCP, no
	// mux, no Server — the protocol and algorithm share of an op.
	// One session's share of the op's points: a sixteenth on the cluster.
	alice, bob := p.in.alice[:len(p.in.alice)/p.in.sessions], p.in.bob[:len(p.in.bob)/p.in.sessions]
	var serve, fetch func(t transport.Transport) error
	switch s := p.in.strategy.(type) {
	case robustset.Robust:
		blob, err := sketchBlob(par, alice)
		if err != nil {
			return err
		}
		serve = func(t transport.Transport) error { return protocol.RunPushBlobAlice(ctx, t, blob) }
		fetch = func(t transport.Transport) error { _, err := protocol.RunPushBob(ctx, t, bob); return err }
	case robustset.Adaptive:
		serve = func(t transport.Transport) error { return protocol.RunEstimateAlice(ctx, t, par, alice) }
		fetch = func(t transport.Transport) error {
			_, err := protocol.RunEstimateBob(ctx, t, par, bob, s.Options)
			return err
		}
	case robustset.Rateless:
		cfg := protocol.RatelessConfig{Universe: par.Universe, Seed: par.Seed}
		serve = func(t transport.Transport) error { return protocol.RunRatelessAlice(ctx, t, cfg, alice) }
		fetch = func(t transport.Transport) error { _, err := protocol.RunRatelessBob(ctx, t, cfg, bob); return err }
	default:
		return fmt.Errorf("no protocol pair for %T", s)
	}
	d, err = p.timeIt(func() error {
		a, b := transport.Pair()
		errc := make(chan error, 1)
		go func() { errc <- serve(a) }()
		return errors.Join(fetch(b), <-errc)
	})
	if err != nil {
		return err
	}
	p.set("protocol.pair_op_ms", ms(d), "ms")
	return nil
}

func (p *probes) server() error {
	ctx, par, alice := p.ctx, p.in.params, p.in.alice
	dir, err := freshDir(p.c, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv := robustset.NewServer(robustset.WithServerDataDir(dir),
		robustset.WithServerFsync(robustset.SyncNone), robustset.WithServerSnapshotEvery(256))
	defer srv.Close()
	d, err := srv.PublishDurable("probe/durable", par, alice)
	if err != nil {
		return err
	}
	dur, err := p.timeIt(func() error { d.Snapshot(); return nil })
	if err != nil {
		return err
	}
	p.set("server.snapshot_ms", ms(dur), "ms")

	// Points at the far corner are in no generated set more than once in
	// 2^40, so adding and removing them leaves the dataset as it was.
	rng := rand.New(rand.NewPCG(p.c.seed, hashutil.DeriveSeed(p.c.seed, "probe/mutate")))
	batch := make([]robustset.Point, churnBatch)
	for i := range batch {
		batch[i] = robustset.Point{rng.Int64N(par.Universe.Delta), rng.Int64N(par.Universe.Delta)}
	}
	const cycles = 16
	dur, err = p.timeIt(func() error {
		for i := 0; i < cycles; i++ {
			if err := errors.Join(d.AddBatch(batch), d.RemoveBatch(batch)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("server.mutate_ms_per_batch", ms(dur)/cycles, "ms")

	// A converged one-point dataset: handshake, stream and lookup only.
	one := []robustset.Point{{1, 1}}
	if _, err := srv.Publish("probe/one", robustset.Params{Universe: par.Universe, Seed: par.Seed, DiffBudget: 1}, one); err != nil {
		return err
	}
	addr, err := serve(srv)
	if err != nil {
		return err
	}
	cl, err := robustset.DialClient(ctx, addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	sess, err := cl.Session("probe/one", robustset.Robust{})
	if err != nil {
		return err
	}
	const fetches = 100
	dur, err = p.timeIt(func() error {
		for i := 0; i < fetches; i++ {
			if _, _, err := sess.Fetch(ctx, one); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("server.null_op_us", us(dur)/fetches, "us")
	return nil
}

// cluster compares a replicator round with the same 16 fetches issued
// through one Client by two workers: the difference is what the
// Replicator itself adds. The two alternate, so whatever drifts while the
// probe runs hits both.
func (p *probes) cluster() error {
	ctx := p.ctx
	// The cluster workload's parameters whatever the workload: a level
	// clamp would make the replicator refuse the coarse result.
	par := robustset.Params{Universe: p.in.params.Universe, Seed: p.in.params.Seed, DiffBudget: clusterBudget}
	e, err := setupCluster(ctx, par, p.in.alice, observers{})
	if err != nil {
		return err
	}
	defer e.close()
	cl, err := robustset.DialClient(ctx, e.addrs[1])
	if err != nil {
		return err
	}
	defer cl.Close()
	shards := e.sets[0].Shards()
	sessions := make([]*robustset.ClientSession, len(shards))
	for s, d := range shards {
		if sessions[s], err = cl.Session(d.Name(), robustset.Robust{}); err != nil {
			return err
		}
	}
	direct := func() error {
		next := make(chan int)
		errs := make([]error, clusterWorkers)
		var wg sync.WaitGroup
		for w := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := range next {
					_, _, err := sessions[s].Fetch(ctx, shards[s].Snapshot())
					errs[w] = errors.Join(errs[w], err)
				}
			}()
		}
		for s := range sessions {
			next <- s
		}
		close(next)
		wg.Wait()
		return errors.Join(errs...)
	}
	var extra []time.Duration
	var calls []time.Duration
	for i := 0; i < 4*p.reps; i++ {
		t0 := time.Now()
		if err := e.op(ctx, 0); err != nil {
			return err
		}
		t1 := time.Now()
		if err := direct(); err != nil {
			return err
		}
		extra = append(extra, t1.Sub(t0)-time.Since(t1))
		calls = p.yard.after(time.Since(t0), calls)
	}
	p.set("cluster.round_overhead_ms", ms(medianDuration(extra))/slowdownOf(calls), "ms")
	p.set("cluster.sessions_per_round", float64(e.last.Sessions), "count")
	return nil
}
