// Command gridmon-bench regenerates the paper's evaluation: each
// experiment set's four figure panels (throughput, response time, load1,
// CPU load), printed as text tables and optionally written as CSV.
//
// Usage:
//
//	gridmon-bench [-quick] [-parallel n] [-csv dir]
//	              [-cpuprofile f] [-memprofile f] [exp1|exp2|exp3|exp4 ...]
//
// With no experiment arguments every set runs. -quick shortens the
// measurement window for smoke runs (the paper's full 10-minute windows
// otherwise apply). -parallel measures up to n sweep points concurrently
// (default: one per CPU); every point runs on its own simulation
// environment, so the printed curves are bit-identical to -parallel 1 —
// only the wall-clock changes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	gridmon "repro"
)

// main delegates to run so deferred cleanup — in particular flushing
// the pprof profiles — happens on error exits too (os.Exit would skip
// it and leave a truncated, unparseable profile).
func main() {
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "shortened measurement windows")
	parallel := flag.Int("parallel", runtime.NumCPU(), "max sweep points measured concurrently (1 = serial)")
	csvDir := flag.String("csv", "", "also write per-experiment CSV files to this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Print(err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
		}
	}()

	names := flag.Args()
	if len(names) == 0 {
		names = gridmon.ExperimentNames()
	}
	for _, name := range names {
		series, err := gridmon.RunExperimentWorkers(name, os.Stdout, *quick, *parallel)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			path := filepath.Join(*csvDir, name+".csv")
			if err := os.WriteFile(path, []byte(gridmon.ExperimentCSV(series)), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Printf("\nwrote %s\n", path)
		}
		fmt.Println()
	}
	return 0
}
