// Command perfbench is the repository's benchmark: one workload per run,
// its inputs derived from --seed, measured for --seconds, every output
// checked. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it makes the separate traced run that attributes time to
// layers. The last line of standard output is the JSON result. See
// README.md in this directory for the workloads and the metric map.
//
//	perfbench --workload regular-dense --seed 7 --seconds 20 --trace 0
//	perfbench compare DIR_A DIR_B
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runOpts are the per-run settings every workload receives.
type runOpts struct {
	seed      uint64
	dur       time.Duration
	serverBin string
	results   string
}

// outcome is what a workload run reports.
type outcome struct {
	metrics   *metricSet // the metrics of the result line
	extra     *metricSet // printed and stored in the result file, not gated
	notes     []string
	digest    string
	digestN   int // trials the digest covers
	knobs     any
	attempted int
	failed    int
}

var workloads = map[string]func(runOpts, bool) (*outcome, error){
	"regular-dense": runRegularDense,
	"erdos-tail":    runErdosTail,
	"wire-loopback": runWireLoopback,
	"churn-epoch":   runChurnEpoch,
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload name: regular-dense, erdos-tail, wire-loopback or churn-epoch")
		seed      = flag.Uint64("seed", 1, "seed from which every input of the run is derived")
		seconds   = flag.Float64("seconds", 20, "length of the timed region in seconds")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end run")
		serverBin = flag.String("server-bin", "", "path of the saer-server binary (wire-loopback)")
		results   = flag.String("results", "", "directory for the per-run result and trace files (empty = none)")
		benchJSON = flag.String("bench-json", "BENCHMARK.json", "benchmark definition holding the bounds (compare mode)")
	)
	flag.Parse()
	if flag.NArg() > 0 && flag.Arg(0) == "compare" {
		if flag.NArg() != 3 {
			fmt.Fprintln(os.Stderr, "usage: perfbench compare DIR_A DIR_B")
			os.Exit(2)
		}
		ok, err := compare(*benchJSON, flag.Arg(1), flag.Arg(2))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	run, known := workloads[*workload]
	if !known || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of regular-dense, erdos-tail, wire-loopback, churn-epoch), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	opts := runOpts{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), serverBin: *serverBin, results: *results}
	if opts.results != "" {
		if err := os.MkdirAll(opts.results, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}

	env := environment()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("env: nproc=%d gomaxprocs=%d cpu=%q cache=%s go=%s commit=%s\n",
		env.NProc, env.GoMaxProcs, env.CPU, env.Cache, env.GoVersion, env.Commit)
	out, err := run(opts, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	kb, _ := json.Marshal(out.knobs)
	fmt.Printf("knobs: %s\n", kb)
	fmt.Printf("digest: %s (per-trial rounds, requests and max load of trials 0..%d)\n", out.digest, out.digestN-1)
	for _, n := range out.notes {
		fmt.Println("note:", n)
	}
	fmt.Println("metrics:")
	out.metrics.print("  ")
	fmt.Printf("  %-26s %16s fraction (failed %d of %d operations)\n", "error_rate",
		fmt.Sprint(float64(out.failed)/float64(max(out.attempted, 1))), out.failed, out.attempted)
	if out.extra != nil && len(out.extra.names) > 0 {
		fmt.Println("reported, not gated:")
		out.extra.print("  ")
	}

	correct := out.failed == 0
	line := map[string]any{
		"correct":   correct,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   out.metrics.m,
	}
	if opts.results != "" {
		rec := map[string]any{
			"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
			"env": env, "knobs": out.knobs, "digest": out.digest, "digest_trials": out.digestN, "notes": out.notes,
			"correct": correct, "attempted": out.attempted, "failed": out.failed,
			"metrics": out.metrics.m,
		}
		if out.extra != nil {
			rec["extra"] = out.extra.m
		}
		b, _ := json.MarshalIndent(rec, "", " ")
		path := filepath.Join(opts.results, fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *trace))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing result file:", err)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !correct {
		os.Exit(1)
	}
}
