// Package analyze renders the human-readable post-mortem reports behind
// cmd/vlctrace: per-stage latency tables (with log2-histogram p50/p95/p99),
// critical paths, retransmit-chain summaries, worst-frame rankings and
// flight-bundle summaries. Extracting the rendering from the command makes
// the output testable against golden files; the command stays a thin
// loader around this package.
//
// All output is deterministic given the snapshot: stages sort by name,
// frames by the tree order, and times come from the simulated clock.
package analyze

import (
	"fmt"
	"io"
	"strings"

	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/flight"
	"smartvlc/internal/telemetry/span"
)

// Options parameterizes a report.
type Options struct {
	// Root is the frame-root span name. Empty means "frame", the root
	// sessions record.
	Root string
	// Top bounds the slowest/worst-frame and retransmit-chain tables.
	// Zero or negative means 5.
	Top int
}

func (o Options) withDefaults() Options {
	if o.Root == "" {
		o.Root = "frame"
	}
	if o.Top <= 0 {
		o.Top = 5
	}
	return o
}

// StageQuantiles estimates p50/p95/p99 span duration per stage name by
// pushing the durations through the telemetry log2 histogram — the same
// estimator the link-health engine uses for ACK latency, so a trace
// post-mortem and a health dashboard quote comparable numbers. Keys match
// StageBreakdown names.
func StageQuantiles(spans []span.Span) map[string]Quantiles {
	hists := map[string]*telemetry.Histogram{}
	reg := telemetry.New()
	for _, s := range spans {
		h, ok := hists[s.Name]
		if !ok {
			h = reg.Histogram("analyze_stage", "stage", s.Name)
			hists[s.Name] = h
		}
		h.Observe(s.Duration())
	}
	out := make(map[string]Quantiles, len(hists))
	for name, h := range hists {
		out[name] = Quantiles{
			P50: h.Quantile(0.50),
			P95: h.Quantile(0.95),
			P99: h.Quantile(0.99),
		}
	}
	return out
}

// Quantiles holds the three report percentiles, in seconds.
type Quantiles struct {
	P50, P95, P99 float64
}

// Report writes the standard analysis of one span snapshot.
func Report(w io.Writer, snap *span.Snapshot, opt Options) {
	opt = opt.withDefaults()
	fmt.Fprintf(w, "spans: %d buffered, %d total, %d dropped\n\n", len(snap.Spans), snap.Total, snap.Dropped)

	quant := StageQuantiles(snap.Spans)
	fmt.Fprintln(w, "per-stage latency:")
	fmt.Fprintf(w, "  %-16s %8s %12s %12s %10s %10s %10s %12s %7s\n",
		"stage", "count", "total", "mean", "p50", "p95", "p99", "max", "errors")
	for _, st := range span.StageBreakdown(snap.Spans) {
		q := quant[st.Name]
		fmt.Fprintf(w, "  %-16s %8d %12s %12s %10s %10s %10s %12s %7d\n",
			st.Name, st.Count, Dur(st.Total), Dur(st.Mean),
			Dur(q.P50), Dur(q.P95), Dur(q.P99), Dur(st.Max), st.Errors)
	}

	tree := span.NewTree(snap.Spans)
	frames := tree.FrameRoots(opt.Root)
	fmt.Fprintf(w, "\n%s roots: %d\n", opt.Root, len(frames))
	if len(frames) == 0 {
		return
	}

	fmt.Fprintf(w, "\ncritical path of first %s (id %d, seq %d):\n", opt.Root, frames[0].ID, frames[0].Seq)
	for _, s := range tree.CriticalPath(frames[0].ID) {
		fmt.Fprintf(w, "  %-16s %12s  [%s → %s]\n", s.Name, Dur(s.Duration()), Dur(s.Start), Dur(s.End))
	}

	chains := tree.RetxChains(opt.Root)
	fmt.Fprintf(w, "\nretransmit chains: %d\n", len(chains))
	for i, c := range chains {
		if i >= opt.Top {
			fmt.Fprintf(w, "  … %d more\n", len(chains)-opt.Top)
			break
		}
		parts := make([]string, len(c.Roots))
		for j, r := range c.Roots {
			parts[j] = fmt.Sprintf("id %d @ %s", r.ID, Dur(r.Start))
		}
		fmt.Fprintf(w, "  seq %d: %d transmissions (%s)\n", c.Seq, len(c.Roots), strings.Join(parts, " → "))
	}

	fmt.Fprintf(w, "\ntop %d slowest %ss:\n", opt.Top, opt.Root)
	for _, s := range span.TopSlowest(frames, opt.Top) {
		fmt.Fprintf(w, "  id %-6d seq %-6d %12s  %s\n", s.ID, s.Seq, Dur(s.Duration()), attrSummary(s))
	}

	worst := tree.WorstFrames(opt.Root, opt.Top)
	if len(worst) > 0 {
		fmt.Fprintf(w, "\nworst %ss (decode failures in subtree):\n", opt.Root)
		for _, s := range worst {
			fmt.Fprintf(w, "  id %-6d seq %-6d %12s  %s\n", s.ID, s.Seq, Dur(s.Duration()), attrSummary(s))
		}
	}
}

// ReportBundle writes a flight bundle's trigger metadata and capture ring.
// It does not replay the captures — callers that want the replay verdict
// run Bundle.Replay themselves and pass the outcome to ReportReplay, which
// keeps this function free of PHY work (and testable without samples).
func ReportBundle(w io.Writer, dir string, b *flight.Bundle) {
	m := b.Meta
	fmt.Fprintf(w, "bundle: %s\n", dir)
	fmt.Fprintf(w, "trigger: %s (class %q) at seq %d, t=%s\n", m.Reason, m.Class, m.Seq, Dur(m.At))
	fmt.Fprintf(w, "link: scheme %s, level %g, threshold %d, seed %d, payload %dB, tslot %s\n",
		m.Scheme, m.Level, m.Threshold, m.Seed, m.PayloadBytes, Dur(m.TSlotSeconds))
	fmt.Fprintf(w, "captures: %d frames ringed\n", len(b.Captures))
	for _, c := range b.Captures {
		fmt.Fprintf(w, "  seq %-6d rx %d  t=%-12s level %-8g thr %-5d %6d slots %7d samples\n",
			c.Seq, c.Rx, Dur(c.Start), c.Level, c.Threshold, len(c.Slots), len(c.Samples))
	}
}

// ReportReplay writes the replay verdict line: the decode class the
// captured samples reproduced against the class recorded at trigger time.
// A bundle that recorded no class (the end-of-session SLO bundle names no
// frame) has nothing to compare, which is not a mismatch.
func ReportReplay(w io.Writer, class, recorded string) {
	verdict := "MISMATCH"
	switch {
	case recorded == "":
		verdict = "no class recorded"
	case class == recorded:
		verdict = "match"
	}
	fmt.Fprintf(w, "\nreplay of triggering frame: class %q (recorded %q) — %s\n", class, recorded, verdict)
}

// Dur renders seconds with a sensible unit for link-scale times.
func Dur(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-3 && s > -1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1 && s > -1:
		return fmt.Sprintf("%.3fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}

// attrSummary renders a span's attributes compactly.
func attrSummary(s span.Span) string {
	if len(s.Attrs) == 0 {
		return ""
	}
	parts := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		parts[i] = a.Key + "=" + a.Value
	}
	return strings.Join(parts, " ")
}
