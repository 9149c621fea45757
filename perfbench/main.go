// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload against the system's public constructors, checks that
// the outputs are correct, and prints one JSON result line:
//
//	perfbench -workload steady-fabric|fault-drill|wire-ingest -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics listed in
// BENCHMARK.json; with -trace 1 it carries the per-layer metrics, measured
// in a traced phase (spans, CPU and allocation profiles) that follows an
// untraced phase of the same length. Spans, profiles and the stamped
// result are also written under -out. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// contract is the part of BENCHMARK.json the program checks its output
// against: every listed metric must be produced, with the listed unit.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runner identifies the machine and code a result was measured on. The
// first four fields match cmd/benchdiff's runner stamp.
type runner struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string
	runID   string
}

// outcome is what every workload returns: end-to-end metrics from the
// untraced measurement, per-layer metrics from the traced one (only when
// traced), operation counts and the correctness checks that failed.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

// check records a failed correctness check; a failed check is also a
// failed operation.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"steady-fabric": runSteadyFabric,
	"fault-drill":   runFaultDrill,
	"wire-ingest":   runWireIngest,
}

func main() {
	// Allocation sampling is switched on only for the traced phase, so
	// the untraced measurement pays nothing for it.
	runtime.MemProfileRate = 0

	workload := flag.String("workload", "", "workload to run: steady-fabric, fault-drill or wire-ingest")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced phase; 0: end-to-end metrics")
	commit := flag.String("commit", "unknown", "commit id stamped on the result")
	spec := flag.String("contract", "BENCHMARK.json", "benchmark contract listing the metrics to report")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans, profiles and stamped results")
	flag.Parse()

	correct, err := run(*workload, *seed, *seconds, *trace, *commit, *spec, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// run runs one workload and prints its result; it reports whether every
// correctness check passed.
func run(workload string, seed int64, seconds, trace int, commit, specPath, outDir string) (bool, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, fmt.Errorf("read contract: %w", err)
	}
	var spec contract
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("parse %s: %w", specPath, err)
	}
	fn, ok := workloads[workload]
	if !ok {
		return false, fmt.Errorf("unknown workload %q", workload)
	}
	listed := false
	for _, w := range spec.Workloads {
		listed = listed || w.Name == workload
	}
	if !listed {
		return false, fmt.Errorf("workload %q is not listed in %s", workload, specPath)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return false, fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}

	stamp := runner{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		Commit: commit, Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
	}
	cfg := config{
		seed: seed, seconds: float64(seconds), traced: trace == 1, outDir: outDir,
		runID: fmt.Sprintf("%s-s%d-t%d-%d", workload, seed, trace, time.Now().UnixNano()),
	}
	oc, err := fn(cfg)
	if err != nil {
		return false, err
	}

	wanted, got := spec.EndToEnd, oc.e2e
	if cfg.traced {
		wanted, got = spec.PerLayer, oc.layer
	}
	res := result{
		Correct:   len(oc.problems) == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   make(map[string]metricValue, len(wanted)),
	}
	var missing []string
	for _, m := range wanted {
		v, ok := got[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return false, fmt.Errorf("workload %s did not produce %s", workload, strings.Join(missing, ", "))
	}
	for _, p := range oc.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}

	stamped, err := json.Marshal(map[string]any{"runner": stamp, "result": res})
	if err != nil {
		return false, err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", workload, seed, trace)
	if err := os.WriteFile(filepath.Join(outDir, name), append(stamped, '\n'), 0o644); err != nil {
		return false, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	stampLine, _ := json.Marshal(map[string]runner{"runner": stamp})
	fmt.Println(string(stampLine))
	fmt.Println(string(line))
	return res.Correct, nil
}
