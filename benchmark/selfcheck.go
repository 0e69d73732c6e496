package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json selfcheck reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles is Python's statistics.quantiles(v, n=4), the rule the
// acceptance check is written in.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runSelfcheck repeats the acceptance procedure on the current tree: per
// workload two sets of n end-to-end runs, each run its own process and
// its own seed (the second set continues where the first one's seeds
// end). Per metric it prints both medians, how much worse the second is
// than the first, and each set's quartile spread as a share of its
// median, beside the bound in BENCHMARK.json. It fails if a spread
// (setup_s excepted) or a drift exceeds its bound. The last column is the
// first set's spread of the clock readings behind a time metric: what the
// same runs would have shown without the yardstick.
func runSelfcheck(ws []*workloadDef, c config, n int, stdout, stderr io.Writer) int {
	if n < 2 {
		fmt.Fprintln(stderr, "benchmark: -selfcheck needs at least 2 runs per set")
		return 2
	}
	blob, err := os.ReadFile("BENCHMARK.json")
	var bf benchmarkFile
	if err == nil {
		err = json.Unmarshal(blob, &bf)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: selfcheck reads the bounds from BENCHMARK.json in the working directory: %v\n", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	code := 0
	fmt.Fprintf(stdout, "%-20s %-18s %12s %12s %8s %8s %8s %6s %8s\n", "workload", "metric", "median A", "median B", "worse", "spread A", "spread B", "bound", "as read")
	for _, w := range ws {
		var sets [2]map[string][]float64
		for k := range sets {
			sets[k] = make(map[string][]float64)
			for i := 0; i < n; i++ {
				seed := c.seed + uint64(k*n+i)
				args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
					"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-out", c.outDir}
				if c.smoke {
					args = append(args, "-smoke")
				}
				cmd := exec.Command(self, args...)
				cmd.Stderr = stderr
				out, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: selfcheck: %s seed %d: %v\n", w.name, seed, err)
					return 1
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					fmt.Fprintf(stderr, "benchmark: selfcheck: %s seed %d: last line: %v\n", w.name, seed, err)
					return 1
				}
				for name, m := range res.Metrics {
					sets[k][name] = append(sets[k][name], m.Value)
				}
				// The clock readings are in the summary file the run left.
				var sum summary
				if blob, err := os.ReadFile(filepath.Join(c.outDir, "summary-"+w.name+"-end-to-end.json")); err == nil && json.Unmarshal(blob, &sum) == nil && sum.Result != nil {
					for name, v := range sum.Result.Raw {
						sets[k]["raw:"+name] = append(sets[k]["raw:"+name], v)
					}
				}
			}
		}
		// Every run's numbers, for whoever calibrates the bounds.
		if raw, err := json.MarshalIndent(sets, "", "  "); err == nil {
			_ = os.WriteFile(filepath.Join(c.outDir, "selfcheck-"+w.name+".json"), append(raw, '\n'), 0o644)
		}
		for _, m := range bf.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][m.Name])
			b1, b2, b3 := quartiles(sets[1][m.Name])
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			spread := max(spreadA, spreadB)
			if m.Name == "setup_s" {
				spread = 0 // its spread is not held against the bound
			}
			var verdict []string
			switch {
			case spread > m.Bound:
				verdict = append(verdict, "SPREAD")
			case spread > m.Bound/3:
				verdict = append(verdict, "spread above a third of the bound")
			}
			if worse > m.Bound {
				verdict = append(verdict, "DRIFT")
			}
			if spread > m.Bound || worse > m.Bound {
				code = 1
			}
			asRead := "       -"
			if raw := sets[0]["raw:"+m.Name]; len(raw) == n {
				r1, r2, r3 := quartiles(raw)
				asRead = fmt.Sprintf("%7.2f%%", 100*(r3-r1)/r2)
			}
			fmt.Fprintf(stdout, "%-20s %-18s %12.5g %12.5g %+7.2f%% %7.2f%% %7.2f%% %5.1f%% %s %s\n",
				w.name, m.Name, a2, b2, 100*worse, 100*spreadA, 100*spreadB, 100*m.Bound, asRead, strings.Join(verdict, ", "))
		}
	}
	return code
}
