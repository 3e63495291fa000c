package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json: the metric names, units, directions and
// regression bounds this program must report and -selfcheck holds
// itself to.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

func (s *benchSpec) endToEnd(name string) (metricDef, bool) {
	for _, d := range s.EndToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// runSelfcheck runs sets full sets (every workload in todo, tracing
// off, the same seed) on the working tree, prints each metric's values
// with (max-min)/median, and fails if any gated metric disagrees with
// itself by more than its bound, or if a latency metric had no reading
// (its open-loop step failed or its generator ran late) in any set. It
// is the calibration tool: a metric that cannot pass this has no
// business being gated.
func runSelfcheck(ctx context.Context, spec *benchSpec, todo []*workload, seed int64, sz sizes, sets int) int {
	values := map[string]map[string][]float64{} // workload -> metric -> one value per set
	noReading := map[string]map[string]int{}    // workload -> metric -> sets without a reading
	for set := 0; set < sets; set++ {
		for _, w := range todo {
			fmt.Printf("-- set %d of %d: %s --\n", set+1, sets, w.name)
			res, err := runUntraced(ctx, w, seed, sz)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if !res.Correct {
				printResult(spec, res)
				return 1
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
				noReading[w.name] = map[string]int{}
			}
			for name, m := range res.Metrics {
				if why, bad := res.NoReading[name]; bad {
					fmt.Printf("  %s: no reading: %s\n", name, why)
					noReading[w.name][name]++
					if _, seen := values[w.name][name]; !seen {
						values[w.name][name] = nil // listed even with no reading at all
					}
					continue
				}
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
		}
	}
	code := 0
	for _, w := range todo {
		fmt.Printf("== %s: %d sets ==\n", w.name, sets)
		names := make([]string, 0, len(values[w.name]))
		for name := range values[w.name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := values[w.name][name]
			sp := spread(v)
			verdict := "not gated"
			if def, ok := spec.endToEnd(name); ok {
				verdict = fmt.Sprintf("within bound %.3g", def.Bound)
				if sp > def.Bound {
					verdict = fmt.Sprintf("EXCEEDS bound %.3g", def.Bound)
					code = 1
				}
			}
			if n := noReading[w.name][name]; n > 0 {
				verdict += fmt.Sprintf("  NO READING in %d of %d sets", n, sets)
				code = 1
			}
			fmt.Printf("  %-22s spread %.3f  %s  values %.4g\n", name, sp, verdict, v)
		}
	}
	return code
}
