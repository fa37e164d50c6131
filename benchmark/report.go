package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// report is the one JSON document a full run writes (out/report.json) and
// prints after the text.
type report struct {
	Host            hostInfo         `json:"host"`
	Seed            uint64           `json:"seed"`
	DurationS       float64          `json:"duration_s"`
	TracedDurationS float64          `json:"traced_duration_s"`
	EndToEnd        []*passResult    `json:"end_to_end_pass"`
	Traced          []*passResult    `json:"traced_pass,omitempty"`
	Ladder          map[string]value `json:"ladder,omitempty"`
	Noise           []noiseRow       `json:"noise,omitempty"`
}

func (r *report) write(outDir string) error {
	doc, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "report.json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		return err
	}
	fmt.Printf("\n%s\n(also written to %s)\n", doc, path)
	return nil
}

func boundText(m e2eMetric) string {
	if m.name == "fail_ratio" {
		return fmt.Sprintf("+%g abs", m.bound)
	}
	return fmt.Sprintf("%g %%", m.bound*100)
}

// printPass prints one pass of one workload: every metric by name with its
// value, unit, sample count and, for end-to-end metrics, regression bound.
func printPass(w io.Writer, res *passResult) {
	pass := "end-to-end pass (spans off)"
	if res.Traced {
		pass = "traced pass (spans on)"
	}
	fmt.Fprintf(w, "== %s — %s\n", res.Workload, pass)
	if res.Invalid != "" {
		fmt.Fprintf(w, "   INVALID, not a result: %s\n", res.Invalid)
	}
	for _, note := range res.Notes {
		fmt.Fprintf(w, "   note: %s\n", note)
	}
	fmt.Fprintf(w, "   %-32s %14s %-8s %10s  %s\n", "metric", "value", "unit", "n", "bound")
	for _, m := range e2eMetrics {
		v, ok := res.E2E[m.name]
		if !ok || !m.appliesTo(res.Workload) {
			continue
		}
		name := m.name
		if m.name == "lat_p99_us" && res.TailPct != 99 {
			name = fmt.Sprintf("lat_p99_us (p%g)", res.TailPct)
		}
		fmt.Fprintf(w, "   %-32s %14.4f %-8s %10d  %s\n", name, v.V, m.unit, v.N, boundText(m))
	}
	if res.Traced {
		for _, m := range layerMetrics {
			if v, ok := res.Layer[m.name]; ok {
				fmt.Fprintf(w, "   %-32s %14.4f %-8s %10d  [%s]\n", m.name, v.V, m.unit, v.N, m.src)
			}
		}
	}
	fmt.Fprintf(w, "   attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.correct())
	for _, p := range res.Problems {
		fmt.Fprintf(w, "   VIOLATION: %s\n", p)
	}
	fmt.Fprintln(w)
}

func printLadder(w io.Writer, ladder map[string]value) {
	fmt.Fprintf(w, "== ladder — each layer's public functions in isolation, median of %d rounds\n", ladderRounds)
	for _, m := range layerMetrics {
		if v, ok := ladder[m.name]; ok {
			fmt.Fprintf(w, "   %-32s %14.4f %-8s %10d  [L] moves %s\n", m.name, v.V, m.unit, v.N, m.moves)
		}
	}
	fmt.Fprintln(w)
}

// noiseRow is one (workload, metric) line of the -repeat table.
type noiseRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Q1       float64   `json:"q1"`
	Median   float64   `json:"median"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"` // (q3-q1)/median; absolute q3-q1 for fail_ratio
	Bound    float64   `json:"bound"`
	Verdict  string    `json:"verdict"` // PASS: the bound is wider than the noise; UNRESOLVED: it is not
}

// noiseTable summarises repeated end-to-end passes: per workload and metric
// the quartiles and the interquartile spread, against the metric's bound. A
// metric whose run-to-run spread exceeds its bound cannot resolve a
// regression of that size.
func noiseTable(passes []*passResult) []noiseRow {
	byKey := map[string][]float64{}
	for _, p := range passes {
		for name, v := range p.E2E {
			byKey[p.Workload+"\x00"+name] = append(byKey[p.Workload+"\x00"+name], v.V)
		}
	}
	var rows []noiseRow
	for _, wl := range workloadNames {
		for _, m := range e2eMetrics {
			vals := byKey[wl+"\x00"+m.name]
			if len(vals) == 0 || !m.appliesTo(wl) {
				continue
			}
			q1, q2, q3 := quartiles(vals)
			row := noiseRow{Workload: wl, Metric: m.name, Unit: m.unit, Values: vals, Q1: q1, Median: q2, Q3: q3, Bound: m.bound}
			if m.name == "fail_ratio" {
				row.Spread = q3 - q1
			} else {
				row.Spread = spread(vals)
			}
			row.Verdict = "PASS"
			if row.Spread > m.bound {
				row.Verdict = "UNRESOLVED"
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func printNoise(w io.Writer, rows []noiseRow, repeat int) {
	fmt.Fprintf(w, "== noise floor — %d end-to-end passes per workload, alternating order\n", repeat)
	fmt.Fprintf(w, "   %-16s %-12s %12s %12s %12s %-6s %8s %8s  %s\n", "workload", "metric", "q1", "median", "q3", "unit", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "   %-16s %-12s %12.4f %12.4f %12.4f %-6s %7.2f%% %7.2f%%  %s\n",
			r.Workload, r.Metric, r.Q1, r.Median, r.Q3, r.Unit, r.Spread*100, r.Bound*100, r.Verdict)
	}
	fmt.Fprintln(w)
}
