package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// declared is BENCHMARK.json as the tests read it.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(blob, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func smokeConfig(t *testing.T, seed uint64) config {
	return config{seed: seed, seconds: 0.1, smoke: true, outDir: t.TempDir()}
}

// checkMetrics asserts that res reports exactly the declared metrics,
// each finite and in its declared unit.
func checkMetrics(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v, %d of %d ops failed: %v", res.Workload, res.Correct, res.Failed, res.Attempted, res.Errors)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, %d declared", res.Workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", res.Workload, m.Name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s is %v", res.Workload, m.Name, got.Value)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s in %q, declared in %q", res.Workload, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestDeclarationWithinContract holds BENCHMARK.json to the limits the
// driver refuses a file outside of, before a single run.
func TestDeclarationWithinContract(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Command    []string            `json:"command"`
		Paths      []string            `json:"paths"`
		RunSeconds int                 `json:"run_seconds"`
		Workloads  []map[string]string `json:"workloads"`
		EndToEnd   []map[string]any    `json:"end_to_end"`
		PerLayer   []map[string]any    `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(blob) > 64<<10 || d.RunSeconds < 1 || d.RunSeconds > 60 || len(d.Paths) != 1 || d.Paths[0] != "benchmark" {
		t.Errorf("%d bytes, run_seconds %d, paths %v", len(blob), d.RunSeconds, d.Paths)
	}
	if len(d.Workloads) < 2 || len(d.Workloads) > 8 || len(d.EndToEnd) < 1 || len(d.EndToEnd) > 16 || len(d.PerLayer) < 1 || len(d.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics", len(d.Workloads), len(d.EndToEnd), len(d.PerLayer))
	}
	for _, w := range d.Workloads {
		checkName(w["name"])
		if why := w["why"]; len(w) != 2 || why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %v: want exactly a name and a one-line why of at most 200 characters", w)
		}
	}
	setup := false
	for _, m := range d.EndToEnd {
		n, _ := m["name"].(string)
		u, _ := m["unit"].(string)
		b, _ := m["bound"].(float64)
		checkName(n)
		if len(m) != 4 || !unit.MatchString(u) || (m["better"] != "lower" && m["better"] != "higher") || b <= 0 || b > 0.25 {
			t.Errorf("end-to-end metric %v", m)
		}
		setup = setup || (n == "setup_s" && u == "s" && m["better"] == "lower")
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, m := range d.PerLayer {
		n, _ := m["name"].(string)
		u, _ := m["unit"].(string)
		checkName(n)
		if len(m) != 3 || !unit.MatchString(u) || (m["better"] != "lower" && m["better"] != "higher") {
			t.Errorf("per-layer metric %v", m)
		}
	}
	// 4 + 22 runs per workload, each a window plus set-ups, warm-up and
	// checks (about 6 s), and two builds, inside 3420 s.
	if runs := 4 + 22*len(d.Workloads); runs*(d.RunSeconds+6)+120 > 3420 {
		t.Errorf("%d runs of %d s do not fit 3420 s", runs, d.RunSeconds)
	}
}

func TestDeclarationMatchesProgram(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), implemented %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var names []string
	for _, m := range d.PerLayer {
		names = append(names, m.Name)
	}
	if !slices.Equal(names, perLayer) {
		t.Errorf("per-layer metrics declared %v, implemented %v", names, perLayer)
	}
}

// TestSmokeEndToEnd runs every workload three times over a tenth of the
// points: the count metrics must repeat exactly for one seed, and change
// with another wherever they depend on the generated points at all.
func TestSmokeEndToEnd(t *testing.T) {
	pinProcs()
	d := readDeclared(t)
	ctx := context.Background()
	// cluster_quiescent has no count that depends on the seed: its bytes
	// are a function of the parameters and its sets are equal by design.
	seedDependent := map[string]string{
		"robust_noisy": "emd_ratio", "adaptive_noisy": "emd_ratio", "exact_churn_durable": "wire_bytes_per_op",
	}
	for i := range workloads {
		w := &workloads[i]
		var runs [3]*result
		for k, seed := range []uint64{1, 1, 2} {
			res, err := runEndToEnd(ctx, w, smokeConfig(t, seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			checkMetrics(t, res, d.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: %s = %v, want positive", w.name, name, m.Value)
				}
			}
			runs[k] = res
		}
		for _, name := range []string{"wire_bytes_per_op", "emd_ratio"} {
			if a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value; a != b {
				t.Errorf("%s: %s = %v then %v for the same seed", w.name, name, a, b)
			}
		}
		if name, ok := seedDependent[w.name]; ok && runs[0].Metrics[name].Value == runs[2].Metrics[name].Value {
			t.Errorf("%s: %s = %v for seeds 1 and 2 alike", w.name, name, runs[0].Metrics[name].Value)
		}
	}
}

// countLayerMetrics are the per-layer metrics that count rather than
// time: functions of the seed, so they must repeat.
var countLayerMetrics = []string{
	"core.chosen_level", "iblt.decode_fail_share", "iblt.cells_per_diff",
	"sketch.strata_est_ratio", "store.write_amp", "cluster.sessions_per_round",
}

func TestSmokeTraced(t *testing.T) {
	pinProcs()
	d := readDeclared(t)
	ctx := context.Background()
	for i := range workloads {
		w := &workloads[i]
		c := smokeConfig(t, 1)
		res, err := runTraced(ctx, w, c)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, res, d.PerLayer)
		if cov := res.Metrics["stage.coverage"].Value; cov <= 0 {
			t.Errorf("%s: stage.coverage = %v", w.name, cov)
		}

		blob, err := os.ReadFile(filepath.Join(c.outDir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var file struct{ Spans []span }
		if err := json.Unmarshal(blob, &file); err != nil {
			t.Fatalf("%s: trace file: %v", w.name, err)
		}
		ids := map[int]span{}
		for _, s := range file.Spans {
			ids[s.ID] = s
		}
		if len(file.Spans) == 0 || len(ids) != len(file.Spans) {
			t.Errorf("%s: %d spans with %d distinct ids", w.name, len(file.Spans), len(ids))
		}
		for _, s := range file.Spans {
			parent, ok := ids[s.Parent]
			switch {
			case s.EndNs < s.StartNs:
				t.Errorf("%s: span %d (%s) ends before it starts", w.name, s.ID, s.Name)
			case s.Parent != 0 && !ok:
				t.Errorf("%s: span %d (%s) has no parent %d in the file", w.name, s.ID, s.Name, s.Parent)
			case s.Parent != 0 && parent.Op != s.Op:
				t.Errorf("%s: span %d belongs to op %d, its parent to op %d", w.name, s.ID, s.Op, parent.Op)
			}
		}

		// The counts of one workload, again: a second traced run of each
		// would double the test's time for no new code path.
		if w.name != "robust_noisy" {
			continue
		}
		again, err := runTraced(ctx, w, smokeConfig(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range countLayerMetrics {
			if a, b := res.Metrics[name].Value, again.Metrics[name].Value; a != b {
				t.Errorf("%s: %s = %v then %v for the same seed", w.name, name, a, b)
			}
		}
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 1, Op: 7, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Op: 7, Parent: 1, Name: "a", StartNs: 10, EndNs: 60},
		{ID: 3, Op: 7, Parent: 1, Name: "b", StartNs: 40, EndNs: 90}, // runs beside a from 40 to 60
	}}
	if got := r.selfTimes()[1]; got != 20 {
		t.Errorf("root self time %d, want 20: children cover 10..90", got)
	}
	// Replayed on a machine running at half speed.
	if got := r.explained(map[int]float64{7: 2}); len(got) != 1 || got[0] != 40 {
		t.Errorf("explained %v, want [40]: 80 at half speed", got)
	}
}

// TestQuartilesMatchPython pins the rule to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"stray"}} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
