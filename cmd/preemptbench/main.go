// Command preemptbench regenerates the figures from the paper's evaluation
// (§6) on the simulated-UINTR substrate. Each experiment prints the same
// data series the corresponding figure plots.
//
// Usage:
//
//	preemptbench -experiment fig10 -duration 3s -workers 2
//	preemptbench -experiment all
//
// Run -experiment help (or any unknown name) for the experiment list; it is
// generated from the same registry that drives dispatch, so the help text,
// the dispatch switch, and the "all" sequence cannot drift apart.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"preemptdb/internal/bench"
)

// flags shared by the experiment runners (parsed once in main).
type flags struct {
	traceout string
}

// experiment is one registry entry: the -experiment id, a one-line help
// string, whether "all" includes it, and the runner itself. The registry is
// the single source of truth for the help text, the dispatch, and the "all"
// sequence.
type experiment struct {
	id    string
	help  string
	inAll bool
	run   func(opt bench.Options, fl flags) error
}

// experiments lists every runnable experiment in "all" order (entries with
// inAll=false keep their position for help purposes only).
var experiments = []experiment{
	{"uintr", "user-interrupt delivery latency microbenchmark (§6.1)", true,
		func(opt bench.Options, fl flags) error { _, err := bench.UintrLatency(opt, 0); return err }},
	{"switch", "context switch round-trip microbenchmark (§6.1)", true,
		func(opt bench.Options, fl flags) error { _, err := bench.ContextSwitch(opt, 0); return err }},
	{"fig1", "scheduling latency of high-priority NewOrder by policy", true,
		func(opt bench.Options, fl flags) error { _, err := bench.Fig1(opt); return err }},
	{"trace", "scheduling-event timeline (figure 2); -trace writes Chrome trace JSON", false,
		func(opt bench.Options, fl flags) error {
			_, cores, err := bench.Trace(opt)
			if err == nil && fl.traceout != "" {
				if err = bench.WriteChromeTrace(fl.traceout, cores); err == nil {
					fmt.Printf("wrote Chrome trace to %s (open in ui.perfetto.dev)\n", fl.traceout)
				}
			}
			return err
		}},
	{"fig8", "uintr machinery overhead on standard TPC-C", true,
		func(opt bench.Options, fl flags) error { _, err := bench.Fig8(opt); return err }},
	{"fig9", "end-to-end latency decomposition by policy", true,
		func(opt bench.Options, fl flags) error { _, err := bench.Fig9(opt); return err }},
	{"fig10", "high-priority latency vs arrival rate", true,
		func(opt bench.Options, fl flags) error { _, err := bench.Fig10(opt); return err }},
	{"fig11", "low-priority (Q2) throughput cost by policy", true,
		func(opt bench.Options, fl flags) error { _, err := bench.Fig11(opt); return err }},
	{"fig12", "starvation threshold sweep", true,
		func(opt bench.Options, fl flags) error { _, err := bench.Fig12(opt); return err }},
	{"fig13", "yield interval sweep (cooperative)", true,
		func(opt bench.Options, fl flags) error { _, err := bench.Fig13(opt); return err }},
	{"shed", "deadline-based load shedding under overload", true,
		func(opt bench.Options, fl flags) error { _, err := bench.Shed(opt); return err }},
}

// experimentIDs renders the -experiment value list (registry order + all).
func experimentIDs() string {
	ids := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	return strings.Join(append(ids, "all"), "|")
}

func usage(w *os.File) {
	fmt.Fprintln(w, "experiments:")
	for _, e := range experiments {
		all := ""
		if !e.inAll {
			all = " (not in 'all')"
		}
		fmt.Fprintf(w, "  %-13s %s%s\n", e.id, e.help, all)
	}
	fmt.Fprintf(w, "  %-13s every experiment marked above, in order\n", "all")
}

func main() {
	var (
		experimentFlag = flag.String("experiment", "all", "which experiment to run ("+experimentIDs()+")")
		duration       = flag.Duration("duration", 3*time.Second, "measurement window per data point")
		workers        = flag.Int("workers", 0, "simulated worker cores (0 = one per spare physical CPU)")
		arrival        = flag.Duration("arrival", time.Millisecond, "high-priority batch arrival interval")
		traceout       = flag.String("trace", "", "write the trace experiment's scheduling events as Chrome trace-event JSON (perfetto-loadable) to this path")
	)
	flag.Parse()

	opt := bench.Options{
		Workers:         *workers,
		Duration:        *duration,
		ArrivalInterval: *arrival,
		Out:             os.Stdout,
	}
	fl := flags{traceout: *traceout}

	byID := make(map[string]experiment, len(experiments))
	for _, e := range experiments {
		byID[e.id] = e
	}

	run := func(e experiment) error {
		fmt.Printf("\n=== %s ===\n", e.id)
		start := time.Now()
		if err := e.run(opt, fl); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Printf("(%s took %v)\n", e.id, time.Since(start).Round(time.Millisecond))
		return nil
	}

	var todo []experiment
	switch *experimentFlag {
	case "all":
		for _, e := range experiments {
			if e.inAll {
				todo = append(todo, e)
			}
		}
	case "help", "list":
		usage(os.Stdout)
		return
	default:
		e, ok := byID[*experimentFlag]
		if !ok {
			fmt.Fprintf(os.Stderr, "preemptbench: unknown experiment %q\n", *experimentFlag)
			usage(os.Stderr)
			os.Exit(1)
		}
		todo = []experiment{e}
	}
	for _, e := range todo {
		if err := run(e); err != nil {
			fmt.Fprintln(os.Stderr, "preemptbench:", err)
			os.Exit(1)
		}
	}
}
