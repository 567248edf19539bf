// Command perfbench is the repository's benchmark: it runs one named
// workload against the Scorpion system from a seed, checks every answer,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as one JSON object on the last line of standard output.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this module first:
//
//	bash perfbench/run.sh --workload cold-search --seed 1 --seconds 15 --trace 0
//
// Human-readable detail (per-class medians with sample counts, the tail
// percentile, failures, the environment) goes to the lines before the
// result and to standard error. A traced run also writes its span trees
// and per-layer self times under .bench_build/trace/.
//
// The benchmark drives the system only through its public surfaces:
// scorpion.ExplainContext, the internal/server HTTP API, and the exported
// functions of the internal packages. It needs nothing outside the
// repository checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its constructor. Every workload is a
// closed loop whose operation sequence is a fixed function of the seed.
var workloads = map[string]func(*bench) (workload, error){
	"cold-search":    newColdSearch,
	"interactive":    newInteractive,
	"append-refresh": newAppendRefresh,
	"sharded-large":  newShardedLarge,
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move the metric.
const setupReps = 3

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 15, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := fs.String("out", ".bench_build/trace", "directory for traced-run output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	b := &bench{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1}
	res, err := b.execute(mk)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	env := environment(*seed)
	detail, err := json.Marshal(map[string]any{"workload": *name, "environment": env, "detail": res.Detail})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(detail))
	if b.traced {
		path, err := writeTrace(*outDir, *name, *seed, env, res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: span trees and self times written to %s\n", path)
	}
	line, err := json.Marshal(res.summary(b.traced))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// environment records what a result depends on besides the code.
func environment(seed int64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"seed":       seed,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
