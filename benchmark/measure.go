package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

const (
	// setupRuns fresh set-ups are timed per run (two in a smoke run);
	// setup_s is their median and the last one is the stack the window
	// runs on.
	setupRuns = 7
	// windowSlices: ops_per_s is the median over this many equal slices
	// of the window, so one noisy-neighbour burst cannot move it, and each
	// slice is scaled by the machine speed the yardstick saw in it.
	windowSlices = 6
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload's run reports.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples is the number of ops timed in the window (or replayed, in a
	// traced run) — the count behind every median.
	Samples int `json:"samples"`
	// Errors holds the first few failures, for the reader.
	Errors []string `json:"errors,omitempty"`
	// Raw holds the time metrics as the clock read them, before scaling
	// to the nominal machine, and machine_slowdown: the yardstick's mean
	// time over the window as a multiple of its nominal time. It also
	// carries the window's op_p95_ms both ways: its spread across runs
	// stayed near 10 %, too unsteady to be held to a bound, so it is
	// reported, not gated.
	Raw map[string]float64 `json:"raw,omitempty"`
	// A traced run adds the real op's median beside the median self time
	// of each replayed stage, the breakdown behind stage.coverage.
	RealOpP50Ms float64            `json:"real_op_p50_ms,omitempty"`
	StageSelfMs map[string]float64 `json:"stage_self_ms,omitempty"`
}

// tally counts ops against failures.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
}

// interval is a stretch of a loop's time, measured from the loop's start.
type interval struct{ from, to time.Duration }

func (iv interval) len() time.Duration { return iv.to - iv.from }

// runLog is what one stretch of the closed loop saw: when each op ran and
// how long each yardstick call after it took.
type runLog struct {
	ops   []interval
	yards []time.Duration
	// yards[after[k]:after[k+1]] ran right after ops[k].
	after []int
}

// nominal returns each op's time at nominal speed: the clock reading over
// the slowdown read around the op.
func (g *runLog) nominal() []time.Duration {
	out := make([]time.Duration, len(g.ops))
	for k, op := range g.ops {
		out[k] = time.Duration(float64(op.len()) / g.around(k))
	}
	return out
}

// slowdown is how much slower than nominal the machine ran over ops[i:j],
// by the yardstick calls that followed them. A stretch that holds no op
// takes the whole log's.
func (g *runLog) slowdown(i, j int) float64 {
	if i >= j {
		return slowdownOf(g.yards)
	}
	return slowdownOf(g.yards[g.after[i]:g.after[j]])
}

// around is how much slower than nominal the machine ran around op k, by
// the yardstick calls just before it (the ones that followed op k-1) and
// just after it.
func (g *runLog) around(k int) float64 { return g.slowdown(max(k-1, 0), k+1) }

// endedBy is the number of ops that ended before t.
func (g *runLog) endedBy(t time.Duration) int {
	return sort.Search(len(g.ops), func(k int) bool { return g.ops[k].to >= t })
}

// yardTime is the time the log's yardstick calls took. The yardstick is
// single-threaded and never blocks, so this is its CPU time too.
func (g *runLog) yardTime() (sum time.Duration) {
	for _, d := range g.yards {
		sum += d
	}
	return sum
}

// loop is the closed loop: one caller, the next op issued when the
// previous one and the yardstick's share after it are done, so the
// generator never lags.
type loop struct {
	lv     live
	period int
	next   int // index of the next op; a period starts where next%period == 0
	yard   *yardstick
	tally  tally
}

// record adds an op that ran over [from, to) and the yardstick calls made
// right after it.
func (g *runLog) record(from, to time.Duration, calls []time.Duration) {
	g.ops = append(g.ops, interval{from, to})
	g.yards = append(g.yards, calls...)
	g.after = append(g.after, len(g.yards))
}

// run issues ops for at least d and then to the end of the current
// period. With verifyAll every op's result is verified in full, which
// warm-up does and the window cannot afford.
func (l *loop) run(ctx context.Context, d time.Duration, verifyAll bool) *runLog {
	g := &runLog{after: []int{0}}
	start := time.Now()
	var calls []time.Duration
	for {
		t0 := time.Since(start)
		err := l.lv.op(ctx, l.next)
		t1 := time.Since(start)
		l.next++
		if err == nil && verifyAll {
			err = l.lv.verify()
		}
		l.tally.record(err)
		calls = l.yard.after(t1-t0, calls[:0])
		g.record(t0, t1, calls)
		if time.Since(start) >= d && l.next%l.period == 0 || ctx.Err() != nil {
			return g
		}
	}
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDuration(v []time.Duration) time.Duration {
	f := make([]float64, len(v))
	for i, d := range v {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}

// percentile returns the smallest sample with at least share q of the
// samples at or below it.
func percentile[T float64 | time.Duration](v []T, q float64) T {
	s := slices.Clone(v)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func (c config) setupRuns() int {
	if c.smoke {
		return 2
	}
	return setupRuns
}

// runEndToEnd is the untraced run of one workload: setupRuns timed
// set-ups, a warm-up of a tenth of the window that verifies every op, the
// measured window, and the checks that need the clock stopped.
func runEndToEnd(ctx context.Context, w *workloadDef, c config) (*result, error) {
	setup, _, err := w.generate(c)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	yard := newYardstick()
	var lv live
	// The set-ups, logged like ops: each is followed by its tenth of
	// yardstick and scaled by the slowdown read around it.
	sg := &runLog{after: []int{0}}
	start := time.Now()
	for i := 0; i < c.setupRuns(); i++ {
		if lv != nil {
			lv.close()
		}
		dir, err := freshDir(c, "data-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		t0 := time.Since(start)
		if lv, err = setup(ctx, dir, observers{}); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		t1 := time.Since(start)
		sg.record(t0, t1, yard.after(t1-t0, nil))
	}
	defer lv.close()
	var setups, rawSetups []float64
	for k, d := range sg.nominal() {
		rawSetups = append(rawSetups, sg.ops[k].len().Seconds())
		setups = append(setups, d.Seconds())
	}

	window := time.Duration(c.seconds * float64(time.Second))
	l := &loop{lv: lv, period: w.period, next: 1, yard: yard} // set-up ran op 0
	l.run(ctx, window/10, true)
	if l.next%w.period != 0 {
		return nil, errors.New("warm-up did not end on a period boundary")
	}

	runtime.GC()
	bytes0, alloc0, cpu0 := lv.wireBytes(), totalAlloc(), cpuTime()
	g := l.run(ctx, window, false)
	cpu, alloc, bytes := cpuTime()-cpu0, totalAlloc()-alloc0, lv.wireBytes()-bytes0
	ops := float64(len(g.ops))

	l.tally.record(lv.verify()) // the last op, in full
	ratio, err := lv.emdRatio()
	if err != nil || math.IsNaN(ratio) || math.IsInf(ratio, 0) {
		l.tally.record(fmt.Errorf("emd_ratio %v: %v", ratio, err))
	}
	runtime.GC()
	runtime.GC() // the second cycle frees what sync.Pool held through the first
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	// Per slice: the machine's slowdown, by the calls that followed the ops
	// that ended in it, and the rate of the ops in it.
	// An op counts towards a slice by the share of its duration spent
	// there, and only time spent in ops counts as time, so the rate is
	// the stack's and not the yardstick's. What runs past the nominal
	// window only completes the last period: it counts for latency and
	// the per-op totals, not for rate. An op's time is scaled by the
	// slowdown read just around it.
	slice := window / windowSlices
	slow := make([]float64, windowSlices)
	done, busy := make([]float64, windowSlices), make([]time.Duration, windowSlices)
	for i := range slow {
		slow[i] = g.slowdown(g.endedBy(time.Duration(i)*slice), g.endedBy(time.Duration(i+1)*slice))
	}
	lats, rawLats := make([]float64, len(g.ops)), make([]float64, len(g.ops))
	for k, d := range g.nominal() {
		lats[k] = ms(d)
	}
	for k, op := range g.ops {
		for i := int(op.from / slice); i < windowSlices && time.Duration(i)*slice < op.to; i++ {
			in := min(op.to, time.Duration(i+1)*slice) - max(op.from, time.Duration(i)*slice)
			done[i] += float64(in) / float64(op.len())
			busy[i] += in
		}
		rawLats[k] = ms(op.len())
	}
	var rates, rawRates []float64
	for i := range slow {
		if busy[i] > 0 { // a window shorter than an op leaves slices empty
			rawRates = append(rawRates, done[i]/busy[i].Seconds())
			rates = append(rates, done[i]/busy[i].Seconds()*slow[i])
		}
	}
	// What the yardstick used is not the program's.
	overall := g.slowdown(0, len(g.ops))
	rawCPU := ms(cpu-g.yardTime()) / ops

	return &result{
		Workload:  w.name,
		Correct:   l.tally.failed == 0,
		Attempted: l.tally.attempted,
		Failed:    l.tally.failed,
		Samples:   len(g.ops),
		Errors:    l.tally.errs,
		Metrics: map[string]metric{
			"setup_s":           {median(setups), "s"},
			"ops_per_s":         {median(rates), "1/s"},
			"op_p50_ms":         {median(lats), "ms"},
			"wire_bytes_per_op": {float64(bytes) / ops, "B"},
			"emd_ratio":         {ratio, "ratio"},
			"cpu_ms_per_op":     {rawCPU / overall, "ms"},
			"alloc_kb_per_op":   {float64(alloc) / 1024 / ops, "KiB"},
			"heap_live_mb":      {float64(mem.HeapAlloc) / (1 << 20), "MiB"},
		},
		Raw: map[string]float64{
			"setup_s":           median(rawSetups),
			"ops_per_s":         median(rawRates),
			"op_p50_ms":         median(rawLats),
			"op_p95_ms":         percentile(rawLats, 0.95),
			"op_p95_ms_nominal": percentile(lats, 0.95),
			"cpu_ms_per_op":     rawCPU,
			"machine_slowdown":  overall,
		},
	}, nil
}
