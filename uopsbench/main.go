// Command uopsbench is the repository's end-to-end benchmark. One process
// drives a workload through the public entry points — engine.New and
// CharacterizeArch, store.OpenOptions, xmlout, and service.New behind a
// loopback listener — checks every output, and prints every metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) repeats a fixed amount of the same seed's work with timing
// wrappers at the layer seams and reports the per-layer metrics. See
// README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash uopsbench/run.sh -workload isa-cold -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps a workload name to its run function, which returns the
// metrics of the run's kind (end-to-end or per-layer).
var workloads = map[string]func(e *env) map[string]float64{
	"isa-cold":  func(e *env) map[string]float64 { return runISA(e, false) },
	"isa-fill":  func(e *env) map[string]float64 { return runISA(e, true) },
	"serve-mix": runServe,
}

// env is one run's configuration and failure tally.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	workers int
	// dir is the scratch directory the run's stores are created in.
	dir   string
	log   io.Writer
	tally *tally
}

func (e *env) duration() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

func (e *env) logf(format string, args ...interface{}) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uopsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: isa-cold, isa-fill or serve-mix")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long the untraced run measures")
	trace := fs.Int("trace", 0, "1 runs the traced fixed work and reports per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "stores"), "directory for the run's scratch stores")
	probe := fs.Bool("setup-probe", false, "only do the workload's set-up, in -dir (the child side of a timed set-up)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "uopsbench: need -workload (one of %v), -seconds > 0 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	if *probe {
		return setupProbe(*workload, *seed, *dir, stdout, stderr)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "uopsbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "uopsbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	e := &env{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: parallelism(),
		dir: scratch, log: stdout, tally: &tally{}}
	meta, _ := json.Marshal(host(scratch, *workload, *seed, e.trace))
	e.logf("host %s", meta)
	steal0, total0 := cpuTimes()
	values := runWorkload(e)
	steal1, total1 := cpuTimes()
	e.logf("cpu time stolen by the hypervisor during the run: %.1f%%",
		100*ratio(float64(steal1-steal0), float64(total1-total0)))

	specs := endToEnd
	if e.trace {
		specs = perLayer
	}
	attempted, failed := e.tally.counts()
	out := report{Correct: failed == 0 && values != nil, Attempted: max(attempted, 1), Failed: failed,
		Metrics: make(map[string]metricValue, len(specs))}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out.Correct = false
			v = 0
		}
		out.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		e.logf("%-34s %14.6g %s", s.name, v, s.unit)
	}
	for _, msg := range e.tally.errs {
		e.logf("FAILED: %s", msg)
	}
	e.logf("checks: %d operations, %d failed", attempted, failed)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "uopsbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
