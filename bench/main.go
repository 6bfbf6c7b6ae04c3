// Command bench is the repository's end-to-end and per-layer benchmark for
// the whole packet path: seven workloads, five end-to-end metrics each, and
// a traced run that splits the cost by layer. BENCHMARK.json at the root of
// the repository declares it; README.md in this directory explains it.
//
//	bash bench/run.sh                              every workload, end to end
//	bash bench/run.sh -trace 1                     every workload, per layer
//	bash bench/run.sh -repeat 2                    two sets, compared with the bounds
//	bash bench/run.sh -workload W -seed N -seconds S -trace 0|1
//	                                               one run, as the driver makes it
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs all of them, each in its own process")
		seed    = flag.Int64("seed", 1, "seed for the generated traffic and rule table")
		seconds = flag.Float64("seconds", 10, "how long one run times passes")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, tracing on")
		repeat  = flag.Int("repeat", 1, "without -workload: run this many sets and compare them with BENCHMARK.json's bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if raceEnabled {
		fmt.Fprintln(os.Stderr, "bench: built with -race; timings would be meaningless, refusing to measure")
		os.Exit(2)
	}
	// The operator's box: one feeding goroutine and at most one more core.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *trace, *repeat))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	// Results and span files go under the benchmark's own directory,
	// relative to the root of the checkout; .gitignore names the place.
	opt := options{seed: *seed, seconds: *seconds, scale: fullScale, outDir: "bench/out"}
	measure := runEndToEnd
	if *trace == 1 {
		measure = runTraced
	}
	res, err := measure(w, opt)
	if err == nil {
		err = res.save(opt.outDir)
	}
	if err == nil {
		err = res.print(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
