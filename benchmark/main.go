// Command benchmark is the one performance ledger of PreemptDB-in-Go: four
// named workloads, ten end-to-end metrics with fixed regression bounds, a
// per-layer ladder and a traced pass. See README.md in this directory.
//
//	go run ./benchmark                        every workload, both passes
//	go run ./benchmark -workload oltp_rmw -duration 10s -traced-duration 3s
//	go run ./benchmark -repeat 5              the noise-floor table
//	go run ./benchmark --workload wire_kv --seed 3 --seconds 10 --trace 0
//
// The last form is the one a driver uses: one workload, one pass, and one JSON
// object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

type options struct {
	seed           uint64
	duration       time.Duration
	tracedDuration time.Duration
	workloads      []string
	repeat         int
	outDir         string
	seconds        int
	trace          int
	printContract  bool
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	o := &options{}
	var names string
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the database receives only inputs generated from it")
	fs.DurationVar(&o.duration, "duration", 20*time.Second, "end-to-end window per workload")
	fs.DurationVar(&o.tracedDuration, "traced-duration", 8*time.Second, "traced window per workload (0 skips the traced pass)")
	fs.StringVar(&names, "workload", "", "comma-separated subset of "+strings.Join(workloadNames, ","))
	fs.IntVar(&o.repeat, "repeat", 1, "run the end-to-end pass this many times and print the spread of every metric")
	fs.StringVar(&o.outDir, "out", "benchmark/out", "directory for trace files, the report and on-disk databases")
	fs.IntVar(&o.seconds, "seconds", 0, "driver mode: window in seconds (with -trace)")
	fs.IntVar(&o.trace, "trace", -1, "driver mode: 0 = end-to-end pass, 1 = traced pass; prints one JSON object last")
	fs.BoolVar(&o.printContract, "print-contract", false, "print BENCHMARK.json as the metric tables define it, and exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o.workloads = workloadNames
	if names != "" {
		o.workloads = strings.Split(names, ",")
		for _, n := range o.workloads {
			if newWorkload(n) == nil {
				return nil, fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(workloadNames, ", "))
			}
		}
	}
	if o.repeat < 1 {
		return nil, fmt.Errorf("-repeat must be at least 1")
	}
	if o.trace >= 0 {
		if o.trace > 1 || o.seconds < 1 || len(o.workloads) != 1 || names == "" {
			return nil, fmt.Errorf("driver mode needs -workload <one name> -seconds <n> -trace <0|1>")
		}
	}
	return o, nil
}

// hostInfo is recorded with every report so numbers from different machines
// are never compared by accident.
type hostInfo struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	Workers    int     `json:"workers"`
	Sleep10us  float64 `json:"sleep10us_us"` // what time.Sleep(10µs) really costs here
}

func readHost() hostInfo {
	h := hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitSHA: "unknown",
		Workers: max(1, runtime.NumCPU()-1),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitSHA = s.Value
			}
		}
	}
	if h.GitSHA == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.GitSHA = strings.TrimSpace(string(out))
		}
	}
	var sleeps []float64
	for i := 0; i < 101; i++ {
		t0 := now()
		time.Sleep(10 * time.Microsecond)
		sleeps = append(sleeps, float64(now()-t0)/1e3)
	}
	h.Sleep10us = median(sleeps)
	return h
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if o.printContract {
		doc, err := contractJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(doc))
		return
	}
	var code int
	if o.trace >= 0 {
		code, err = driverRun(o)
	} else {
		code, err = fullRun(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// driverRounds is how many fresh instances share a gated run's window.
const driverRounds = 3

// driverRun is one workload, one pass, and the driver's JSON object on the
// last line of standard output. The gated (end-to-end) pass splits its window
// over driverRounds instances and reports medians; the traced pass, whose
// rows carry no bound, runs one.
func driverRun(o *options) (int, error) {
	name := o.workloads[0]
	window := time.Duration(o.seconds) * time.Second
	traced := o.trace == 1
	var res *passResult
	var err error
	if traced {
		res, err = runPass(name, newEnv(o.seed, o.outDir, true), window)
	} else {
		res, err = runRounds(name, newEnv(o.seed, o.outDir, false), window, driverRounds)
	}
	if err != nil {
		return 0, err
	}
	var ladder map[string]value
	if traced {
		if ladder, err = runLadder(o.seed, o.outDir); err != nil {
			return 0, err
		}
	}
	printPass(os.Stdout, res)
	line, err := contractLine(res, ladder)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(line))
	if !res.correct() {
		return 2, nil
	}
	return 0, nil
}

// contractJSON renders BENCHMARK.json from the metric tables, so the file and
// the program cannot drift apart (a test compares them).
func contractJSON() ([]byte, error) {
	type workloadOut struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eOut struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerOut struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadOut `json:"workloads"`
		EndToEnd   []e2eOut      `json:"end_to_end"`
		PerLayer   []layerOut    `json:"per_layer"`
	}{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: contractRunSeconds}
	for _, w := range workloadNames {
		doc.Workloads = append(doc.Workloads, workloadOut{w, workloadWhy[w]})
	}
	for _, m := range e2eMetrics {
		doc.EndToEnd = append(doc.EndToEnd, e2eOut{m.gateName(), m.unit, m.gateBetter(), m.bound})
	}
	for _, m := range layerMetrics {
		doc.PerLayer = append(doc.PerLayer, layerOut{m.name, m.unit, m.better})
	}
	return json.MarshalIndent(doc, "", "  ")
}

// contractLine is the JSON object a driver reads: whether the outputs
// verified, operations attempted and failed, and every gated end-to-end
// metric (end-to-end pass) or every per-layer metric (traced pass; rows a
// workload does not have read 0).
func contractLine(res *passResult, ladder map[string]value) ([]byte, error) {
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted uint64               `json:"attempted"`
		Failed    uint64               `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, map[string]metricOut{}}
	if res.Traced {
		for _, m := range layerMetrics {
			v := res.Layer[m.name]
			if m.src == "L" {
				v = ladder[m.name]
			}
			out.Metrics[m.name] = metricOut{v.V, m.unit}
		}
	} else {
		for _, m := range e2eMetrics {
			out.Metrics[m.gateName()] = metricOut{m.gateValue(res), m.unit}
		}
	}
	return json.Marshal(out)
}

// fullRun is the command a person runs: every selected workload, the
// end-to-end pass (repeated -repeat times, alternating the order) and then
// the traced pass with the ladder, as text and as one JSON document.
func fullRun(o *options) (int, error) {
	rep := &report{
		Host: readHost(), Seed: o.seed,
		DurationS: o.duration.Seconds(), TracedDurationS: o.tracedDuration.Seconds(),
	}
	fmt.Printf("host: %d CPUs, GOMAXPROCS %d, %s, git %s, W=%d workers, time.Sleep(10µs) = %.0f µs\n\n",
		rep.Host.NumCPU, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.GitSHA, rep.Host.Workers, rep.Host.Sleep10us)
	incorrect := false
	for r := 0; r < o.repeat; r++ {
		order := append([]string(nil), o.workloads...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			res, err := runPass(name, newEnv(o.seed, o.outDir, false), o.duration)
			if err != nil {
				return 0, err
			}
			rep.EndToEnd = append(rep.EndToEnd, res)
			printPass(os.Stdout, res)
			incorrect = incorrect || !res.correct()
		}
	}
	if o.tracedDuration > 0 {
		for _, name := range o.workloads {
			res, err := runPass(name, newEnv(o.seed, o.outDir, true), o.tracedDuration)
			if err != nil {
				return 0, err
			}
			rep.Traced = append(rep.Traced, res)
			printPass(os.Stdout, res)
			incorrect = incorrect || !res.correct()
		}
		ladder, err := runLadder(o.seed, o.outDir)
		if err != nil {
			return 0, err
		}
		rep.Ladder = ladder
		printLadder(os.Stdout, ladder)
	}
	if o.repeat > 1 {
		rep.Noise = noiseTable(rep.EndToEnd)
		printNoise(os.Stdout, rep.Noise, o.repeat)
	}
	if err := rep.write(o.outDir); err != nil {
		return 0, err
	}
	if incorrect {
		fmt.Println("\nFAILED: at least one correctness check was violated")
		return 2, nil
	}
	return 0, nil
}
