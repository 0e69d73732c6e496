package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// perLayer is every per-layer metric a traced run reports, in
// BENCHMARK.json's order.
var perLayer = []string{
	"core.build_sketch_ms", "core.sketch_unmarshal_ms", "core.reconcile_ms", "core.reconcile_alloc_kb",
	"core.chosen_level", "core.level_estimators_ms", "core.build_level_table_ms", "core.reconcile_level_ms",
	"core.maintainer_update_us_per_point", "grid.round_ns_per_point", "iblt.insert_ns_per_key",
	"iblt.sub_decode_ms", "iblt.decode_fail_share", "iblt.cellstream_emit_ms", "iblt.celldecoder_ms",
	"iblt.cells_per_diff", "sketch.strata_build_ms", "sketch.strata_est_ratio", "ranges.keys_ms",
	"ranges.tree_update_us_per_key", "ranges.tree_build_ms", "store.wal_append_us_per_batch",
	"store.write_amp", "store.snapshot_write_ms", "store.wal_fsync_ms", "store.recover_ms",
	"transport.mux_rtt_small_us", "transport.alloc_b_per_msg", "transport.mux_xfer_ms_per_mb",
	"protocol.hello_rtt_us", "protocol.pair_op_ms", "server.stack_share", "server.snapshot_ms",
	"server.mutate_ms_per_batch", "server.null_op_us", "server.op_p95_ms", "cluster.round_overhead_ms",
	"cluster.sessions_per_round", "trace.overhead_ratio", "stage.coverage",
}

// replayOps is how many ops a traced run replays as stages.
const replayOps = 100

// realLoops runs the real closed loop on two stacks side by side, the
// program's observers off on one and on on the other. They take turns —
// off, on, on, off, half of share each — so that what drifts over these
// seconds hits both alike. It returns the op times with the observers
// off and the ratio of the rates, on ÷ off, both at nominal speed.
func realLoops(ctx context.Context, c config, setup setupFunc, yard *yardstick, share time.Duration, tally *tally) (plain []time.Duration, overhead float64, err error) {
	var loops [2]*loop
	for k, obs := range []observers{{}, observed()} {
		dir, err := freshDir(c, "data-")
		if err != nil {
			return nil, 0, err
		}
		defer os.RemoveAll(dir)
		lv, err := setup(ctx, dir, obs)
		if err != nil {
			return nil, 0, err
		}
		defer lv.close()
		// No count is taken here, so no turn need end on a period.
		loops[k] = &loop{lv: lv, period: 1, next: 1, yard: yard}
		loops[k].run(ctx, share/4, true)
	}
	var done [2]float64
	var busy [2]time.Duration // at nominal speed
	for _, k := range []int{0, 1, 1, 0} {
		lats := loops[k].run(ctx, share/2, false).nominal()
		for _, d := range lats {
			done[k]++
			busy[k] += d
		}
		if k == 0 {
			plain = append(plain, lats...)
		}
	}
	tally.add(loops[0].tally)
	tally.add(loops[1].tally)
	return plain, (done[1] / busy[1].Seconds()) / (done[0] / busy[0].Seconds()), nil
}

// runTraced is the traced run of one workload. A fifth of the window each
// goes to the real closed loop with the program's own tracing and metrics
// off and on (the ratio of their rates is trace.overhead_ratio); then the
// op is replayed as stages under the benchmark's spans, a real op before
// each replay; then the layer probes run. None of it feeds an end-to-end
// metric.
func runTraced(ctx context.Context, w *workloadDef, c config) (*result, error) {
	setup, in, err := w.generate(c)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	share := time.Duration(c.seconds / 5 * float64(time.Second))
	yard := newYardstick()
	var tally tally

	plain, overhead, err := realLoops(ctx, c, setup, yard, share, &tally)
	if err != nil {
		return nil, fmt.Errorf("real loop: %w", err)
	}
	p50 := medianDuration(plain)

	dir, err := freshDir(c, "data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	lv, err := setup(ctx, dir, observers{})
	if err != nil {
		return nil, err
	}
	defer lv.close()
	// One real period first: the replays check their results against it.
	l := &loop{lv: lv, period: w.period, next: 1, yard: yard}
	l.run(ctx, 0, true)
	tally.add(l.tally)

	rec := newRecorder()
	rp, err := newReplayer(ctx, lv, in, rec)
	if err != nil {
		return nil, err
	}
	defer rp.peer.close()
	// A real op and a replay take turns, logged like ops, so that whatever
	// the machine does in these seconds it does to both sides of
	// stage.coverage. slow[op] is the slowdown read around the replay of
	// op, which its spans are scaled by.
	rg := &runLog{after: []int{0}}
	var replayed []int
	next := l.next
	for start := time.Now(); len(replayed) < replayOps && (len(replayed) < w.period || time.Since(start) < 2*share); next++ {
		t0 := time.Since(start)
		err := lv.op(ctx, next)
		t1 := time.Since(start)
		tally.record(err)
		rg.record(t0, t1, yard.after(t1-t0, nil))
		if rp.advances {
			next++
		}
		t0 = time.Since(start)
		err = rp.one(ctx, next)
		t1 = time.Since(start)
		if err == nil && len(replayed) == 0 {
			err = lv.verify()
		}
		tally.record(err)
		rg.record(t0, t1, yard.after(t1-t0, nil))
		replayed = append(replayed, next)
	}
	var beside []time.Duration // the real ops run beside the replays
	slow := make(map[int]float64)
	for k, d := range rg.nominal() {
		if k%2 == 0 {
			beside = append(beside, d)
		} else {
			slow[replayed[k/2]] = rg.around(k)
		}
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(c.outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}

	runtime.GC()
	out, err := runProbes(ctx, c, in, rp.peer, yard)
	if err != nil {
		return nil, err
	}
	out["trace.overhead_ratio"] = metric{overhead, "ratio"}
	out["server.op_p95_ms"] = metric{ms(percentile(plain, 0.95)), "ms"}
	pairs := out["protocol.pair_op_ms"].Value * float64(in.sessions) / float64(in.workers)
	out["server.stack_share"] = metric{1 - pairs/ms(p50), "ratio"}
	out["stage.coverage"] = metric{float64(medianDuration(rec.explained(slow))) / float64(medianDuration(beside)), "ratio"}
	for _, name := range perLayer {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("no probe reported %s", name)
		}
	}
	res := &result{
		Workload: w.name, Correct: tally.failed == 0, Attempted: tally.attempted, Failed: tally.failed,
		Samples: len(replayed), Errors: tally.errs, Metrics: out,
	}
	res.RealOpP50Ms = ms(medianDuration(beside))
	res.StageSelfMs = make(map[string]float64)
	for name, d := range rec.stageMedians(slow) {
		res.StageSelfMs[name] = ms(d)
	}
	return res, nil
}
