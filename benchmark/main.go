// Command benchmark is the repository's ruler: it drives the real serving
// stack — Server, Client, Replicator and durable Dataset over loopback TCP
// and MUX1, both ends in this one process — through four closed-loop
// workloads, checks every result, and prints each metric by name with its
// unit. It claims no gain. See README.md for what each number means.
//
//	bash benchmark/run.sh --workload robust_noisy --seed 1 --seconds 20 --trace 0
//
// builds and runs it from the root of a checkout. The last line of
// standard output is one JSON object per workload run.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// config is what a run is made from. Everything the program under test
// receives is generated from seed.
type config struct {
	seed    uint64
	seconds float64 // length of the measured window
	smoke   bool    // a tenth of the points, for tests
	outDir  string  // trace files, summaries and durable data land here
}

// summary is the JSON file a run leaves beside its trace.
type summary struct {
	Environment environment `json:"environment"`
	Seed        uint64      `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Traced      bool        `json:"traced"`
	Result      *result     `json:"result"`
	// Claim is always null: this program measures, it does not compare.
	Claim *string `json:"claim"`
}

type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Network    string `json:"network"`
	Loop       string `json:"loop"`
	// GeneratorLagMs is 0 by construction: a closed loop issues the next
	// op when the previous one returns and has no schedule to fall behind.
	GeneratorLagMs float64 `json:"generator_lag_ms"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	names := fs.String("workload", "", "comma-separated workloads to run (default: all four)")
	fs.Uint64Var(&c.seed, "seed", 1, "seed of every generated input, the mutation schedule and all hash parameters")
	fs.Float64Var(&c.seconds, "seconds", 20, "length of the measured window")
	traced := fs.Int("trace", 0, "1: the traced run, which reports the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&c.smoke, "smoke", false, "1 s windows over a tenth of the points, for tests")
	selfcheck := fs.Int("selfcheck", 0, "run each workload on this many seeds, twice, and hold spread and drift against BENCHMARK.json")
	fs.StringVar(&c.outDir, "out", filepath.Join("benchmark", "out"), "directory for trace files, summaries and durable data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || c.seconds <= 0 || *traced < 0 || *traced > 1 || *selfcheck < 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	if c.smoke {
		c.seconds = 1
	}
	var selected []*workloadDef
	for _, name := range strings.Split(*names, ",") {
		if w := findWorkload(name); w != nil {
			selected = append(selected, w)
		} else if name != "" {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
			return 2
		}
	}
	if len(selected) == 0 {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	}
	if *selfcheck > 0 {
		return runSelfcheck(selected, c, *selfcheck, stdout, stderr)
	}

	env := pinProcs()
	fmt.Fprintf(stdout, "# nproc %d, GOMAXPROCS %d, %s, %s, %s, generator lag %g ms\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.Network, env.Loop, env.GeneratorLagMs)
	ctx := context.Background()
	code := 0
	for _, w := range selected {
		var res *result
		var err error
		if *traced == 1 {
			res, err = runTraced(ctx, w, c)
		} else {
			res, err = runEndToEnd(ctx, w, c)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if err := report(stdout, res, summary{Environment: env, Seed: c.seed, Seconds: c.seconds, Traced: *traced == 1, Result: res}, c); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d ops failed: %s\n", w.name, res.Failed, res.Attempted, strings.Join(res.Errors, "; "))
			code = 1
		}
	}
	return code
}

// pinProcs fixes GOMAXPROCS at min(nproc, 2): caller and servers share
// the process, and two threads is what the smallest builder has.
func pinProcs() environment {
	n := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(n)
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: n, GoVersion: runtime.Version(),
		Network: "loopback TCP", Loop: "closed loop, one caller",
	}
}

// report prints one line per metric, writes the summary file, and ends
// with the one-line JSON object the driver reads.
func report(stdout io.Writer, res *result, sum summary, c config) error {
	fmt.Fprintf(stdout, "# %s: %d samples, %d ops attempted, %d failed\n", res.Workload, res.Samples, res.Attempted, res.Failed)
	for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
		m := res.Metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
		fmt.Fprintf(stdout, "%s/%s %v %s\n", res.Workload, name, m.Value, m.Unit)
	}
	if res.Raw != nil {
		fmt.Fprintf(stdout, "# %s: times above are at nominal machine speed; as the clock read them:", res.Workload)
		for _, name := range slices.Sorted(maps.Keys(res.Raw)) {
			fmt.Fprintf(stdout, " %s %.5g", name, res.Raw[name])
		}
		fmt.Fprintln(stdout)
	}
	if res.StageSelfMs != nil {
		fmt.Fprintf(stdout, "# %s: real op p50 %.3f ms; median self time per replayed stage, all at nominal machine speed:\n", res.Workload, res.RealOpP50Ms)
		stages := slices.Collect(maps.Keys(res.StageSelfMs))
		slices.SortFunc(stages, func(a, b string) int { return cmp.Compare(res.StageSelfMs[b], res.StageSelfMs[a]) })
		for _, name := range stages {
			fmt.Fprintf(stdout, "#   %-28s %9.3f ms\n", name, res.StageSelfMs[name])
		}
		if cov := res.Metrics["stage.coverage"].Value; cov < 0.7 || cov > 1.1 {
			fmt.Fprintf(stdout, "# %s: unexplained time: the replayed stages cover %.2f of the real op\n", res.Workload, cov)
		}
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	kind := "end-to-end"
	if sum.Traced {
		kind = "traced"
	}
	blob, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(c.outDir, fmt.Sprintf("summary-%s-%s.json", res.Workload, kind)), append(blob, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}
