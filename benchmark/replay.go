package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"

	"robustset"
	"robustset/internal/core"
	"robustset/internal/hashutil"
	"robustset/internal/iblt"
	"robustset/internal/points"
	"robustset/internal/protocol"
	"robustset/internal/sketch"
	"robustset/internal/transport"
)

// This file replays each workload's op as explicit stages: a straight
// line of calls into the modules' public functions on the workload's real
// inputs, each under a span, with every message the op's blocking path
// waits for carried over a real loopback MUX1 stream to the benchmark's
// own peer. No Server, Client or Replicator is involved, so what they add
// shows as the gap between a replayed op and a real one.

// Requests a stream of the stage peer understands, besides a hello.
const (
	reqReply byte = 0xe0 // body: u32 n — answer with one n-byte message
	reqEcho  byte = 0xe1 // answer with the same message
	reqSink  byte = 0xe2 // no answer
)

// stagePeer is a loopback TCP listener speaking MUX1 like a Server, whose
// streams accept a hello like a Server and otherwise move bytes on
// request. mux is the dialling end.
type stagePeer struct {
	ln     net.Listener
	mux    *transport.Mux
	params robustset.Params // what a hello is accepted with
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startStagePeer(ctx context.Context, p robustset.Params) (*stagePeer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	sp := &stagePeer{ln: ln, params: p, cancel: cancel}
	sp.wg.Add(1)
	go func() {
		defer sp.wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		t := transport.NewMuxConnLimit(conn, 0)
		op, err := protocol.RecvOpening(ctx, t)
		if err != nil || !op.Mux || protocol.SendMuxAccept(ctx, t, transport.DefaultMuxWindow) != nil {
			return
		}
		m := transport.NewMux(t, false, transport.MuxConfig{SendWindow: int(op.MuxHello.Window)})
		defer m.Close()
		for {
			st, err := m.Accept(ctx)
			if err != nil {
				return
			}
			sp.wg.Add(1)
			go func() {
				defer sp.wg.Done()
				defer st.Close()
				sp.serveStream(ctx, st)
			}()
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		sp.close()
		return nil, err
	}
	t := transport.NewMuxConnLimit(conn, 0)
	window, err := protocol.RunMuxHelloClient(ctx, t, transport.DefaultMuxWindow)
	if err != nil {
		conn.Close()
		sp.close()
		return nil, err
	}
	sp.mux = transport.NewMux(t, true, transport.MuxConfig{SendWindow: int(window)})
	return sp, nil
}

func (sp *stagePeer) close() {
	sp.cancel()
	if sp.mux != nil {
		sp.mux.Close()
	}
	sp.ln.Close()
	sp.wg.Wait()
}

// pushback hands RecvHello the message serveStream already read.
type pushback struct {
	transport.Transport
	first []byte
}

func (p *pushback) Recv(ctx context.Context) ([]byte, error) {
	if msg := p.first; msg != nil {
		p.first = nil
		return msg, nil
	}
	return p.Transport.Recv(ctx)
}

func (sp *stagePeer) serveStream(ctx context.Context, st *transport.Stream) {
	var zeros []byte
	for {
		msg, err := st.Recv(ctx)
		if err != nil || len(msg) == 0 {
			return
		}
		switch msg[0] {
		case protocol.MsgHello:
			if _, err = protocol.RecvHello(ctx, &pushback{Transport: st, first: msg}); err == nil {
				err = protocol.SendAccept(ctx, st, sp.params)
			}
		case reqReply:
			if len(msg) != 5 {
				return
			}
			n := int(binary.LittleEndian.Uint32(msg[1:]))
			if n > len(zeros) {
				zeros = make([]byte, n)
			}
			err = st.Send(ctx, zeros[:n])
		case reqEcho:
			err = st.Send(ctx, msg)
		case reqSink:
		default:
			return
		}
		if err != nil {
			return
		}
	}
}

// fetch asks the peer for an n-byte message and waits for it: one
// request/response of the size the real protocol moves at this point.
func fetch(ctx context.Context, st *transport.Stream, n int) error {
	req := binary.LittleEndian.AppendUint32([]byte{reqReply}, uint32(n))
	if err := st.Send(ctx, req); err != nil {
		return err
	}
	msg, err := st.Recv(ctx)
	if err == nil && len(msg) != n {
		err = fmt.Errorf("stage peer sent %d bytes, %d requested", len(msg), n)
	}
	return err
}

// replayer replays one workload's ops.
type replayer struct {
	rec  *recorder
	peer *stagePeer
	// one replays op number i under a root span; ops run in order from 1
	// (set-up ran op 0 for real).
	one func(ctx context.Context, i int) error
	// advances says that a replay moves the workload's state on like the
	// real op does, so an op number is either run or replayed, not both.
	advances bool
}

// stage records fn as a child span of parent.
func (r *replayer) stage(name string, parent, op int, fn func() error) error {
	if err := r.rec.timed(name, parent, op, fn); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// session opens a stream and shakes hands the way Client.Fetch does.
func (r *replayer) session(ctx context.Context, parent, op int, strategy byte, dataset string) (*transport.Stream, error) {
	var st *transport.Stream
	err := r.stage("transport.stream_open", parent, op, func() (err error) {
		st, err = r.peer.mux.Open(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = r.stage("protocol.hello", parent, op, func() error {
		_, err := protocol.RunHelloClient(ctx, st, protocol.Hello{Strategy: strategy, Dataset: dataset})
		return err
	})
	if err != nil {
		st.Reset(err)
		return nil, err
	}
	return st, nil
}

func newReplayer(ctx context.Context, lv live, pi probeInputs, rec *recorder) (*replayer, error) {
	peer, err := startStagePeer(ctx, pi.params)
	if err != nil {
		return nil, err
	}
	r := &replayer{rec: rec, peer: peer}
	switch e := lv.(type) {
	case *noisyLive:
		if a, ok := pi.strategy.(robustset.Adaptive); ok {
			r.one = r.adaptiveOp(e, a.Options.EstimatorK)
		} else {
			r.one, err = r.robustOp(e)
		}
	case *churnLive:
		r.one, r.advances = r.churnOp(e, pi.params), true
	case *clusterLive:
		r.one, err = r.clusterRound(e, pi.params)
	default:
		err = fmt.Errorf("no staged replay for %T", lv)
	}
	if err != nil {
		peer.close()
		return nil, err
	}
	return r, nil
}

// sketchBlob is what a Dataset caches and serves to one-shot sessions.
func sketchBlob(p robustset.Params, pts []robustset.Point) ([]byte, error) {
	sk, err := core.BuildSketchParallel(p, pts, 2)
	if err != nil {
		return nil, err
	}
	return sk.MarshalBinary()
}

// oneShot is the part of a Robust fetch after the handshake: receive the
// blob, parse it, reconcile.
func (r *replayer) oneShot(ctx context.Context, parent, op int, st *transport.Stream, blob []byte, bob []robustset.Point) (*robustset.Result, error) {
	if err := r.stage("transport.xfer", parent, op, func() error { return fetch(ctx, st, len(blob)) }); err != nil {
		return nil, err
	}
	var sk core.Sketch
	if err := r.stage("core.sketch_unmarshal", parent, op, func() error { return sk.UnmarshalBinary(blob) }); err != nil {
		return nil, err
	}
	var res *robustset.Result
	err := r.stage("core.reconcile", parent, op, func() (err error) {
		res, err = core.Reconcile(&sk, bob)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, r.stage("transport.stream_close", parent, op, st.Close)
}

func (r *replayer) robustOp(e *noisyLive) (func(context.Context, int) error, error) {
	blobs := make([][]byte, len(e.insts))
	for j, inst := range e.insts {
		var err error
		if blobs[j], err = sketchBlob(e.params[j], inst.Alice); err != nil {
			return nil, err
		}
	}
	return func(ctx context.Context, i int) error {
		j := i % len(e.insts)
		root := r.rec.begin("op", 0, i)
		defer r.rec.end(root)
		st, err := r.session(ctx, root, i, protocol.StrategyRobust, noisyName(j))
		if err != nil {
			return err
		}
		res, err := r.oneShot(ctx, root, i, st, blobs[j], e.insts[j].Bob)
		if err == nil && !samePoints(res.SPrime, e.ref[j].SPrime) {
			err = errors.New("replayed result differs from the fetched one")
		}
		return err
	}, nil
}

func (r *replayer) adaptiveOp(e *noisyLive, estK int) func(context.Context, int) error {
	return func(ctx context.Context, i int) error {
		j := i % len(e.insts)
		p, bob := e.params[j], e.insts[j].Bob
		root := r.rec.begin("op", 0, i)
		defer r.rec.end(root)
		st, err := r.session(ctx, root, i, protocol.StrategyAdaptive, noisyName(j))
		if err != nil {
			return err
		}
		stage := func(name string, fn func() error) {
			if err == nil {
				err = r.stage(name, root, i, fn)
			}
		}
		var snap []robustset.Point
		stage("server.snapshot", func() error { snap = e.srv.Dataset(noisyName(j)).Snapshot(); return nil })
		var wire int
		var theirs, mine []*sketch.BottomK
		stage("core.level_estimators", func() (err error) {
			if theirs, err = core.LevelEstimators(p, snap, estK); err != nil {
				return err
			}
			for _, est := range theirs {
				blob, err := est.MarshalBinary()
				if err != nil {
					return err
				}
				wire += len(blob)
			}
			return nil
		})
		stage("transport.xfer", func() error { return fetch(ctx, st, wire) })
		stage("core.level_estimators", func() (err error) {
			mine, err = core.LevelEstimators(p, bob, estK)
			return err
		})
		var level int
		var est float64
		stage("core.choose_level", func() (err error) {
			level, est, err = core.ChooseLevel(p, theirs, mine, 4*p.DiffBudget)
			return err
		})
		var blob []byte
		stage("core.build_level_table", func() error {
			tbl, err := core.BuildLevelTable(p, snap, level, int(est*1.5)+16)
			if err != nil {
				return err
			}
			blob, err = tbl.MarshalBinary()
			return err
		})
		stage("transport.xfer", func() error { return fetch(ctx, st, len(blob)) })
		stage("core.reconcile_level", func() error {
			tbl := new(iblt.Table)
			if err := tbl.UnmarshalBinary(blob); err != nil {
				return err
			}
			res, err := core.ReconcileLevel(p, tbl, bob, level)
			if err == nil && !samePoints(res.SPrime, e.ref[j].SPrime) {
				err = errors.New("replayed result differs from the fetched one")
			}
			return err
		})
		stage("transport.stream_close", st.Close)
		if err != nil {
			st.Reset(err)
		}
		return err
	}
}

// occurrenceKeys mirrors the exact protocols' unexported key build:
// point encoding plus a 4-byte occurrence index, keys[i] for pts[i].
func occurrenceKeys(pts []robustset.Point) [][]byte {
	occ := make(map[string]uint32, len(pts))
	keys := make([][]byte, len(pts))
	for i, pt := range pts {
		enc := points.EncodeNew(pt)
		o := occ[string(enc)]
		occ[string(enc)] = o + 1
		keys[i] = binary.LittleEndian.AppendUint32(enc, o)
	}
	return keys
}

func exactKeyLen() int { return points.EncodedSize(universe.Dim) + 4 }

func strataOf(p robustset.Params, keys [][]byte) (*sketch.Strata, error) {
	s, err := sketch.NewStrata(sketch.StrataConfig{KeyLen: exactKeyLen(), Seed: hashutil.DeriveSeed(p.Seed, "exact/strata")})
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		s.Add(k)
	}
	return s, nil
}

func cellConfig(p robustset.Params) iblt.ExtendConfig {
	return iblt.ExtendConfig{KeyLen: exactKeyLen(), Seed: hashutil.DeriveSeed(p.Seed, "rateless/cells")}
}

// firstChunk and nextChunk are RunRatelessBob's request schedule.
func firstChunk(estimate float64) int { return int(estimate*1.4) + 8 }
func nextChunk(frontier int) int      { return max(frontier/3, 8) }

// applyDiff turns Bob's points into Alice's: drop the points whose keys
// only Bob has, add the points of the keys only Alice has.
func applyDiff(bob []robustset.Point, bobKeys [][]byte, diff *iblt.Diff) ([]robustset.Point, error) {
	drop := make(map[string]bool, len(diff.Neg))
	for _, k := range diff.Neg {
		drop[string(k)] = true
	}
	out := make([]robustset.Point, 0, len(bob)+len(diff.Pos)-len(diff.Neg))
	for i, pt := range bob {
		if !drop[string(bobKeys[i])] {
			out = append(out, pt)
		}
	}
	for _, k := range diff.Pos {
		pt, err := points.Decode(k[:len(k)-4], universe.Dim)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

func (r *replayer) churnOp(e *churnLive, p robustset.Params) func(context.Context, int) error {
	return func(ctx context.Context, i int) error {
		root := r.rec.begin("op", 0, i)
		defer r.rec.end(root)
		var err error
		stage := func(name string, fn func() error) {
			if err == nil {
				err = r.stage(name, root, i, fn)
			}
		}
		stage("server.mutate", func() error {
			return errors.Join(e.d.AddBatch(e.batch(i)), e.d.RemoveBatch(e.batch(i+churnPeriod/2)))
		})
		if err != nil {
			return err
		}
		st, err := r.session(ctx, root, i, protocol.StrategyExactIBLT, "churn")
		if err != nil {
			return err
		}
		var snap []robustset.Point
		stage("server.snapshot", func() error { snap = e.d.Snapshot(); return nil })
		var theirKeys, myKeys [][]byte
		stage("points.keys", func() error { theirKeys = occurrenceKeys(snap); return nil })
		var theirs, mine *sketch.Strata
		var wire int
		stage("sketch.strata_build", func() (err error) {
			if theirs, err = strataOf(p, theirKeys); err != nil {
				return err
			}
			blob, err := theirs.MarshalBinary()
			wire = len(blob)
			return err
		})
		stage("transport.xfer", func() error { return fetch(ctx, st, wire) })
		stage("points.keys", func() error { myKeys = occurrenceKeys(e.local); return nil })
		stage("sketch.strata_build", func() (err error) {
			mine, err = strataOf(p, myKeys)
			return err
		})
		var estimate float64
		stage("sketch.strata_estimate", func() (err error) {
			estimate, err = sketch.EstimateStrataDiff(theirs, mine)
			return err
		})
		var dec *iblt.CellDecoder
		stage("iblt.celldecoder_new", func() (err error) {
			dec, err = iblt.NewCellDecoder(cellConfig(p), myKeys)
			return err
		})
		var stream *iblt.CellStream
		var diff *iblt.Diff
		var sent, got iblt.CellBlock
		var buf []byte
		for chunk := firstChunk(estimate); err == nil && diff == nil; chunk = nextChunk(dec.Frontier()) {
			stage("iblt.cellstream_emit", func() (err error) {
				if stream == nil {
					if stream, err = iblt.NewCellStream(cellConfig(p), theirKeys); err != nil {
						return err
					}
				}
				stream.EmitInto(&sent, chunk)
				buf, err = sent.AppendBinary(buf[:0])
				return err
			})
			stage("transport.xfer", func() error { return fetch(ctx, st, len(buf)) })
			stage("iblt.celldecoder_add", func() error {
				if err := got.UnmarshalBinary(buf); err != nil {
					return err
				}
				if err := dec.AddBlock(&got); err != nil {
					return err
				}
				if d, ok := dec.Decoded(); ok {
					diff = d
				}
				return nil
			})
		}
		stage("protocol.apply_diff", func() (err error) {
			e.local, err = applyDiff(e.local, myKeys, diff)
			return err
		})
		stage("transport.stream_close", st.Close)
		if err != nil {
			st.Reset(err)
		} else if len(e.local) != e.n {
			err = fmt.Errorf("cycle %d: replayed result of %d points, want %d", i, len(e.local), e.n)
		}
		return err
	}
}

func (r *replayer) clusterRound(e *clusterLive, p robustset.Params) (func(context.Context, int) error, error) {
	local, remote := e.sets[0].Shards(), e.sets[1].Shards()
	blobs := make([][]byte, len(remote))
	for s, d := range remote {
		var err error
		if blobs[s], err = sketchBlob(p, d.Snapshot()); err != nil {
			return nil, err
		}
	}
	return func(ctx context.Context, i int) error {
		root := r.rec.begin("op", 0, i)
		defer r.rec.end(root)
		// Two workers take the shards from a channel, as RunRound does.
		shards := make(chan int)
		errs := make([]error, clusterWorkers)
		var wg sync.WaitGroup
		for w := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := range shards {
					if errs[w] != nil {
						continue
					}
					sess := r.rec.begin("cluster.session", root, i)
					errs[w] = r.shardSession(ctx, sess, i, local[s], blobs[s])
					r.rec.end(sess)
				}
			}()
		}
		for s := range local {
			shards <- s
		}
		close(shards)
		wg.Wait()
		return errors.Join(errs...)
	}, nil
}

// shardSession is what syncDataset does for one converged shard.
func (r *replayer) shardSession(ctx context.Context, parent, op int, d *robustset.Dataset, blob []byte) error {
	var mine []robustset.Point
	if err := r.stage("server.snapshot", parent, op, func() error { mine = d.Snapshot(); return nil }); err != nil {
		return err
	}
	st, err := r.session(ctx, parent, op, protocol.StrategyRobust, d.Name())
	if err != nil {
		return err
	}
	res, err := r.oneShot(ctx, parent, op, st, blob, mine)
	if err == nil && len(res.Added)+len(res.Removed) != 0 {
		err = fmt.Errorf("shard %s: replay found a difference of %d", d.Name(), len(res.Added)+len(res.Removed))
	}
	return err
}
