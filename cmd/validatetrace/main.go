// Command validatetrace checks that a file is a well-formed Chrome
// trace-event JSON document as produced by DB.TraceSnapshot or DB.TraceTxn
// (served at /trace and /trace/txn): parseable, non-empty, known event
// phases, non-negative durations, monotonic timestamps, and coherent
// cross-shard flow events (every flow started is finished, steps never
// precede their start). It runs the same check as the tests that validate
// emitted traces (TestDBTraceSnapshot, TestTraceTxnCrossShard); use it as a
// quick sanity check before loading a trace into ui.perfetto.dev.
//
// Usage: validatetrace trace.json
package main

import (
	"fmt"
	"os"

	"preemptdb/internal/pcontext"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: validatetrace <trace.json>")
		os.Exit(2)
	}
	data, err := os.ReadFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "validatetrace:", err)
		os.Exit(1)
	}
	if err := pcontext.ValidateChromeTrace(data); err != nil {
		fmt.Fprintf(os.Stderr, "validatetrace: %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
	fmt.Printf("%s: valid Chrome trace (%d bytes)\n", os.Args[1], len(data))
}
