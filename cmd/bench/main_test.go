package main

import (
	"encoding/json"
	"strings"
	"testing"

	"robustset"
)

// tinyMatrix is a minimal all-strategies matrix for in-process testing.
func tinyMatrix() []cell {
	var cells []cell
	for _, s := range robustset.Strategies() {
		regime := "noisy"
		switch s.(type) {
		case robustset.ExactIBLT, robustset.Rateless, robustset.Ranged, robustset.CPI:
			regime = "exact"
		}
		cells = append(cells, cell{
			strategy: s, n: 300, rate: 0.01,
			dim: 2, delta: 1 << 12, regime: regime,
		})
	}
	return cells
}

// tinyClusterCell is a minimal convergence scenario for in-process
// testing.
func tinyClusterCell() clusterCell {
	return clusterCell{strategy: robustset.ExactIBLT{}, n: 100, extra: 3, nodes: 2, shards: 2}
}

// tinyRatelessCells is a minimal rateless-vs-doubling pair for in-process
// testing: the difference is large enough for the undershoot contract to
// hold over the fixed estimator bytes.
func tinyRatelessCells() []ratelessCell {
	return []ratelessCell{
		{n: 2_000, diff: 800, skewed: false},
		{n: 2_000, diff: 800, skewed: true},
	}
}

// tinyRecoveryCells is a minimal crash-recovery pair for in-process
// testing: one replay cell (churn deliberately not a multiple of the
// snapshot interval so a non-empty tail is replayed) and one rejoin
// cell sized so the gated wire ratio measures delta-proportionality
// rather than the fixed per-session strata overhead.
func tinyRecoveryCells() (recoveryReplayCell, recoveryRejoinCell) {
	return recoveryReplayCell{n: 2_000, churn: 300, every: 64},
		recoveryRejoinCell{n: 8_000, extra: 12, missed: 48}
}

// tinyRangesCell is a minimal divide-and-conquer comparison for
// in-process testing: the difference is tiny relative to n, the regime
// of the wire contract.
func tinyRangesCell() rangesCell {
	return rangesCell{n: 2_000, replaced: 4, streams: 2}
}

// TestRunMatrixAndCheck runs the harness end to end on a tiny matrix and
// validates the produced report with the same checker CI uses.
func TestRunMatrixAndCheck(t *testing.T) {
	rep := runMatrix(tinyMatrix(), false, t.Logf)
	if len(rep.Results) != 7 {
		t.Fatalf("got %d results, want 7", len(rep.Results))
	}
	rep.Results = append(rep.Results, runClusterCell(tinyClusterCell()))
	for _, c := range tinyRatelessCells() {
		rep.Results = append(rep.Results, runRatelessCell(c))
	}
	rep.Results = append(rep.Results, runRangesCell(tinyRangesCell()))
	replayCell, rejoinCell := tinyRecoveryCells()
	rep.Results = append(rep.Results, runRecoveryReplayCell(replayCell))
	rep.Results = append(rep.Results, runRecoveryRejoinCell(rejoinCell))
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
	rep := runMatrix(tinyMatrix(), false, func(string, ...any) {})
	rep.Results = append(rep.Results, runClusterCell(tinyClusterCell()))
	for _, c := range tinyRatelessCells() {
		rep.Results = append(rep.Results, runRatelessCell(c))
	}
	rep.Results = append(rep.Results, runRangesCell(tinyRangesCell()))
	replayCell, rejoinCell := tinyRecoveryCells()
	rep.Results = append(rep.Results, runRecoveryReplayCell(replayCell))
	rep.Results = append(rep.Results, runRecoveryRejoinCell(rejoinCell))
	good, _ := json.Marshal(rep)

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
			for i := range r.Results[:7] {
				r.Results[i].N = 10_000
				if r.Results[i].Strategy == (robustset.Robust{}).Name() {
					r.Results[i].WireBytes = 10_000 * 16
				}
				if r.Results[i].Strategy == (robustset.Naive{}).Name() {
					r.Results[i].WireBytes = 10_000 * 16
				}
			}
		}, "not below naive"},
		{"nocluster", func(r *Report) { r.Results = append(r.Results[:7:7], r.Results[8:]...) }, "no successful cluster-convergence"},
		{"norounds", func(r *Report) { r.Results[7].Rounds = 0 }, "no convergence measurements"},
		{"norateless", func(r *Report) { r.Results = r.Results[:8] }, "rateless scenario incomplete"},
		{"badestimate", func(r *Report) { r.Results[8].Estimate = "wild" }, "estimate regime"},
		{"nobaseline", func(r *Report) { r.Results[8].BaselineBytes = 0 }, "no doubling baseline"},
		{"contract", func(r *Report) {
			for i := range r.Results {
				if r.Results[i].Estimate == "undershoot" {
					r.Results[i].WireBytes = r.Results[i].BaselineBytes
				}
			}
		}, "undershoot wire ratio"},
		{"noranges", func(r *Report) { r.Results = r.Results[:10] }, "no successful range-reconciliation"},
		{"norangesdepth", func(r *Report) { r.Results[10].BaselineRounds = 0 }, "no pipelined round-depth comparison"},
		{"rangeswire", func(r *Report) { r.Results[10].WireBytes = 8<<10 + 1 }, "exceeds 1 KB a key"},
		{"rangesrounds", func(r *Report) {
			r.Quick = true
			r.Results[10].Rounds = r.Results[10].BaselineRounds
		}, "round ratio"},
		{"norecovery", func(r *Report) { r.Results = r.Results[:11] }, "recovery scenario incomplete"},
		{"noreplay", func(r *Report) { r.Results[11].ReplayRecords = 0 }, "replayed no log records"},
		{"writeamp", func(r *Report) { r.Results[11].WALBytes = 100 * r.Results[11].LogicalBytes }, "write amplification"},
		{"rejoinratio", func(r *Report) { r.Results[12].WireBytes = r.Results[12].BaselineBytes }, "rejoin wire ratio"},
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

// TestRunRatelessCell pins the comparison scenario's contract at test
// scale: the skewed workload collapses the estimate and the rateless
// stream must then decisively beat the doubling path; the honest workload
// must stay within the 1.1× band.
func TestRunRatelessCell(t *testing.T) {
	for _, c := range tinyRatelessCells() {
		r := runRatelessCell(c)
		if r.Err != "" {
			t.Fatalf("skewed=%v: %s", c.skewed, r.Err)
		}
		ratio := float64(r.WireBytes) / float64(r.BaselineBytes)
		t.Logf("skewed=%v: rateless %d B vs doubling %d B (×%.2f)", c.skewed, r.WireBytes, r.BaselineBytes, ratio)
		if c.skewed && ratio > 0.6 {
			t.Errorf("undershoot ratio %.2f exceeds the 0.6 contract", ratio)
		}
		if !c.skewed && ratio > 1.1 {
			t.Errorf("accurate ratio %.2f exceeds the 1.1 contract", ratio)
		}
		if want := c.n + c.diff; r.ResultSize != want {
			t.Errorf("converged size %d, want %d", r.ResultSize, want)
		}
	}
}

// TestRunRangesCell pins the divide-and-conquer scenario's contract at
// test scale: a tiny difference must move under 1 KB a differing key
// and fewer bytes than the exact-IBLT path with its fixed strata cost
// (under half of them until the cell codec halved that cost), and
// pipelining sibling subranges must cut the round depth below the
// serial run's.
func TestRunRangesCell(t *testing.T) {
	c := tinyRangesCell()
	r := runRangesCell(c)
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	if r.Mode != "ranges" || r.MuxStreams < 2 {
		t.Errorf("row coordinates %+v", r)
	}
	ratio := float64(r.WireBytes) / float64(r.BaselineBytes)
	t.Logf("ranged %d B vs exact-IBLT %d B (×%.2f), rounds %d vs serial %d",
		r.WireBytes, r.BaselineBytes, ratio, r.Rounds, r.BaselineRounds)
	if ratio >= 1 || r.WireBytes > int64(2*c.replaced)<<10 {
		t.Errorf("%d wire bytes for %d replaced points, ×%.2f the exact-IBLT path's", r.WireBytes, c.replaced, ratio)
	}
	if r.Rounds < 1 || r.BaselineRounds <= r.Rounds {
		t.Errorf("pipelined rounds %d not below serial %d", r.Rounds, r.BaselineRounds)
	}
	if r.ResultSize != c.n {
		t.Errorf("converged size %d, want %d", r.ResultSize, c.n)
	}
}
