// Command bench is the repository's benchmark: the end-to-end and
// per-layer numbers every performance claim is measured with. See
// README.md in this directory and BENCHMARK.json at the repository
// root.
//
//	go run ./bench                              all workloads, tracing off
//	go run ./bench -workload cached_hot         one workload
//	go run ./bench -workload cached_hot -trace 1  the traced run (per-layer metrics)
//	go run ./bench -selfcheck 2                 run everything twice, hold the spread to the bounds
//
// Run from the repository root. The last line of standard output is
// one JSON object {correct, attempted, failed, metrics}; everything
// before it is for people.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "workload to run (default: all of them): "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of every random choice: pools, popularity, arrivals")
	seconds := flag.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics instead of the end-to-end ones")
	selfcheck := flag.Int("selfcheck", 0, "run N full sets and fail if a gated metric's (max-min)/median exceeds its bound")
	short := flag.Bool("short", false, "smoke run: 0.5s phases (numbers are not comparable)")
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v (run from the repository root)\n", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	sz := fullSizes(*seconds)
	if *short {
		sz = smokeSizes
	}
	var todo []*workload
	if *workloadName == "" {
		todo = workloads
	} else if w := workloadByName(*workloadName); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *workloadName, strings.Join(workloadNames(), ", "))
		return 2
	}
	// The load shape is sized for nproc cores; say what was used.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	ctx := context.Background()

	if *selfcheck > 0 {
		return runSelfcheck(ctx, spec, todo, *seed, sz, *selfcheck)
	}

	code := 0
	var last *result
	for _, w := range todo {
		res, err := runOne(ctx, w, *seed, sz, *trace != 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printResult(spec, res)
		if !res.Correct {
			code = 1
		}
		last = res
	}
	if len(todo) == 1 && code == 0 {
		// The machine-readable line the benchmark contract asks for; a
		// failed run exits non-zero without one.
		if err := printContractLine(spec, last); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func runOne(ctx context.Context, w *workload, seed int64, sz sizes, traced bool) (*result, error) {
	var res *result
	var err error
	if traced {
		res, err = runTraced(ctx, w, seed, sz)
	} else {
		res, err = runUntraced(ctx, w, seed, sz)
	}
	if err != nil {
		return nil, err
	}
	name := "result-" + w.name + ".json"
	if traced {
		name = "result-" + w.name + "-traced.json"
	}
	if buf, err := json.MarshalIndent(res, "", "  "); err == nil {
		// A result file that cannot be written loses a convenience, not
		// the run: the report on stdout is complete.
		_ = os.WriteFile(filepath.Join(outDir, name), append(buf, '\n'), 0o644)
	}
	return res, nil
}

func printResult(spec *benchSpec, res *result) {
	mode := "tracing off"
	if res.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s (%s, seed %d, %.4gs) ==\n", res.Workload, mode, res.Seed, res.Seconds)
	fmt.Printf("env: %s\n", res.Env)
	for _, line := range res.text {
		fmt.Println(line)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		gate := ""
		if def, ok := spec.endToEnd(name); ok {
			gate = fmt.Sprintf("  [gated, may worsen by %.3g%%]", 100*def.Bound)
		}
		note := ""
		if s := res.Samples[name]; s != "" {
			note = "  (" + s + ")"
		}
		if why, bad := res.NoReading[name]; bad {
			fmt.Printf("  %-34s %14s %-6s  (NO READING: %s; the step measured %.0f)\n", name, "n/a", m.Unit, why, m.Value)
			continue
		}
		fmt.Printf("  %-34s %14.4f %-6s%s%s\n", name, m.Value, m.Unit, note, gate)
	}
	fmt.Printf("correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

// contractMetrics picks out of res exactly the metrics defs lists.
func contractMetrics(defs []metricDef, res *result) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, def := range defs {
		if m, ok := res.Metrics[def.Name]; ok {
			out[def.Name] = m
		}
	}
	return out
}

// printContractLine prints the one JSON object the driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one, exactly as BENCHMARK.json lists them.
func printContractLine(spec *benchSpec, res *result) error {
	defs := spec.EndToEnd
	if res.Traced {
		defs = spec.PerLayer
	}
	metrics := contractMetrics(defs, res)
	if len(metrics) != len(defs) {
		return fmt.Errorf("%d of the %d metrics BENCHMARK.json lists were not measured", len(defs)-len(metrics), len(defs))
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
