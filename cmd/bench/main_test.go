package main

import (
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"

	"robustset"
	"robustset/internal/localcluster"
)

// tinyMatrix is a minimal all-strategies matrix for in-process testing.
func tinyMatrix() []cell {
	var cells []cell
	for _, s := range robustset.Strategies() {
		cells = append(cells, coreCell(s, 300, 0.01, 2, 1<<12))
	}
	return cells
}

var (
	paperOnce sync.Once
	paperRows []Result
)

// quickPaperRows runs the quick paper sweeps once per test binary; the
// tests that need paper rows share them and do not modify them.
func quickPaperRows() []Result {
	paperOnce.Do(func() { paperRows = runMatrix(paperMatrix(true), func(string, ...any) {}) })
	return paperRows
}

// fullReport runs every scenario at test scale — the quick paper sweeps
// among them — into one report.
func fullReport(logf func(string, ...any)) Report {
	rep := newReport(false, nil)
	rep.Results = runMatrix(tinyMatrix(), logf)
	rep.Results = append(rep.Results, runClusterCell(tinyClusterCell()))
	replayCell, rejoinCell := tinyRecoveryCells()
	rep.Results = append(rep.Results, runRecoveryReplayCell(replayCell))
	rep.Results = append(rep.Results, runRecoveryRejoinCell(rejoinCell))
	rep.Results = append(rep.Results, quickPaperRows()...)
	return rep
}

// tinyClusterCell is a minimal convergence scenario for in-process
// testing.
func tinyClusterCell() localcluster.Config {
	return localcluster.Config{Nodes: 2, Base: 100, Extra: 3, Shards: 2}
}

// tinyRecoveryCells is a minimal crash-recovery pair for in-process
// testing: one replay cell (churn deliberately not a multiple of the
// snapshot interval so a non-empty tail is replayed) and one rejoin
// cell sized so the gated wire ratio measures delta-proportionality
// rather than the fixed per-session overhead.
func tinyRecoveryCells() (recoveryReplayCell, recoveryRejoinCell) {
	return recoveryReplayCell{n: 2_000, churn: 300, every: 64},
		recoveryRejoinCell{n: 8_000, extra: 12, missed: 48}
}

// TestRunMatrixAndCheck runs the harness end to end on a tiny matrix and
// validates the produced report with the same checker CI uses.
func TestRunMatrixAndCheck(t *testing.T) {
	rep := fullReport(t.Logf)
	if got, want := slices.IndexFunc(rep.Results, func(r Result) bool { return r.Mode != "" }), len(robustset.Strategies()); got != want {
		t.Fatalf("got %d core results, want %d", got, want)
	}
	for _, r := range rep.Results {
		if r.Err != "" {
			t.Errorf("%s: %s", r.Strategy, r.Err)
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(data); err != nil {
		t.Fatalf("self-produced report fails the schema check: %v", err)
	}
}

// TestRunClusterCell pins the cluster scenario's measurements: a 2-node
// cluster with disjoint extras converges, reporting rounds, bytes and
// the exact union size.
func TestRunClusterCell(t *testing.T) {
	r := runClusterCell(tinyClusterCell())
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	if r.Mode != "cluster" || r.Nodes != 2 || r.Shards != 2 {
		t.Errorf("row coordinates %+v", r)
	}
	if r.Rounds < 1 || r.SyncNS <= 0 || r.WireBytes <= 0 {
		t.Errorf("row carries no convergence measurements: %+v", r)
	}
	if want := 100 + 2*3; r.ResultSize != want {
		t.Errorf("converged size %d, want %d", r.ResultSize, want)
	}
}

// TestClusterRowsRepeat runs the cluster row and the rejoin row twice:
// the recorded rows compare across commits only if each repeats its wire
// bytes, rounds and result size exactly.
func TestClusterRowsRepeat(t *testing.T) {
	_, rejoin := tinyRecoveryCells()
	for _, run := range []struct {
		name string
		row  func() Result
	}{
		{"cluster", func() Result { return runClusterCell(tinyClusterCell()) }},
		{"rejoin", func() Result { return runRecoveryRejoinCell(rejoin) }},
	} {
		first, second := run.row(), run.row()
		if first.Err != "" || second.Err != "" {
			t.Fatalf("%s: %q, %q", run.name, first.Err, second.Err)
		}
		if first.WireBytes != second.WireBytes || first.Rounds != second.Rounds || first.ResultSize != second.ResultSize {
			t.Errorf("%s: %d B, %d rounds, %d points, then %d B, %d rounds, %d points", run.name,
				first.WireBytes, first.Rounds, first.ResultSize, second.WireBytes, second.Rounds, second.ResultSize)
		}
	}
}

// TestQuickMatrixCoversAllStrategies pins the CI matrix shape: every
// strategy appears, and the quick matrix stays small enough for a smoke
// job.
func TestQuickMatrixCoversAllStrategies(t *testing.T) {
	cells := matrix(true)
	seen := map[string]bool{}
	for _, c := range cells {
		seen[c.strategy.Name()] = true
		if c.n > 10_000 {
			t.Errorf("quick matrix contains n=%d", c.n)
		}
	}
	for _, s := range robustset.Strategies() {
		if !seen[s.Name()] {
			t.Errorf("quick matrix misses strategy %s", s.Name())
		}
	}
	if full := matrix(false); len(full) <= len(cells) {
		t.Error("full matrix not larger than quick matrix")
	}
}

// TestCheckReportRejectsDrift asserts the drift gate fires on schema
// violations.
func TestCheckReportRejectsDrift(t *testing.T) {
	good, _ := json.Marshal(fullReport(func(string, ...any) {}))
	// fullReport's rows: one core row per strategy, then the cluster, the
	// recovery replay and the recovery rejoin row.
	core := len(robustset.Strategies())
	cluster, replay, rejoin := core, core+1, core+2

	cases := []struct {
		name   string
		mutate func(r *Report)
		want   string
	}{
		{"version", func(r *Report) { r.SchemaVersion = 99 }, "schema version"},
		{"empty", func(r *Report) { r.Results = nil }, "empty results"},
		{"strategy", func(r *Report) { r.Results[0].Strategy = "bogus" }, "unknown strategy"},
		{"missing", func(r *Report) { r.Results = r.Results[:1] }, "no successful result"},
		{"nomeasure", func(r *Report) { r.Results[2].SyncNS = 0 }, "no measurements"},
		{"robustabovenaive", func(r *Report) {
			// Core rows at a gated size, the sketch no cheaper than the set.
			for i := range r.Results[:core] {
				r.Results[i].N = 10_000
				if r.Results[i].Strategy == (robustset.Robust{}).Name() {
					r.Results[i].WireBytes = 10_000 * 16
				}
				if r.Results[i].Strategy == (robustset.Naive{}).Name() {
					r.Results[i].WireBytes = 10_000 * 16
				}
			}
		}, "not below naive"},
		{"nocluster", func(r *Report) { r.Results = append(r.Results[:cluster:cluster], r.Results[cluster+1:]...) }, "no successful cluster-convergence"},
		{"norounds", func(r *Report) { r.Results[cluster].Rounds = 0 }, "no convergence measurements"},
		{"norecovery", func(r *Report) { r.Results = r.Results[:replay] }, "recovery scenario incomplete"},
		{"noreplay", func(r *Report) { r.Results[replay].ReplayRecords = 0 }, "replayed no log records"},
		{"writeamp", func(r *Report) { r.Results[replay].WALBytes = 100 * r.Results[replay].LogicalBytes }, "write amplification"},
		{"nobaseline", func(r *Report) { r.Results[rejoin].BaselineBytes = 0 }, "no rejoin measurements"},
		{"rejoinratio", func(r *Report) { r.Results[rejoin].WireBytes = r.Results[rejoin].BaselineBytes }, "rejoin wire ratio"},
		{"nopapersweep", func(r *Report) {
			r.Results = slices.DeleteFunc(r.Results, func(x Result) bool { return x.Sweep == "E6" })
		}, "paper scenario incomplete"},
		{"e2notflat", func(r *Report) {
			// The one-shot sketch at E2's largest n grown 30 % past its
			// smallest: communication no longer independent of n.
			lo := 0
			for _, x := range r.Results {
				if x.Sweep == "E2" && x.Strategy == (robustset.Robust{}).Name() && (lo == 0 || x.N < lo) {
					lo = x.N
				}
			}
			for i, x := range r.Results {
				if x.Sweep == "E2" && x.Strategy == (robustset.Robust{}).Name() && x.N > lo {
					r.Results[i].WireBytes = x.WireBytes * 13 / 10
				}
			}
		}, "not independent of n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rep Report
			if err := json.Unmarshal(good, &rep); err != nil {
				t.Fatal(err)
			}
			tc.mutate(&rep)
			data, _ := json.Marshal(rep)
			err := checkReport(data)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
	if err := checkReport([]byte("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestSuiteQuick holds the paper sweeps to running: every sweep of the
// quick paper matrix yields rows, none of them a failed cell, and the
// paper-mode report passes the -check gates.
func TestSuiteQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick paper sweeps skipped in -short mode")
	}
	rows := quickPaperRows()
	for _, sweep := range paperSweeps() {
		t.Run(sweep, func(t *testing.T) {
			n := 0
			for _, r := range rows {
				if r.Sweep != sweep {
					continue
				}
				n++
				if r.Mode != "paper" || r.Err != "" {
					t.Errorf("%s n=%d: %+v", r.Strategy, r.N, r)
				}
			}
			if n == 0 {
				t.Error("sweep produced no rows")
			}
		})
	}
	rep := newReport(true, []string{"paper"})
	rep.Results = rows
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(data); err != nil {
		t.Fatalf("quick paper report fails the gates: %v", err)
	}
}
