// Command vlctrace analyzes SmartVLC span traces and flight-recorder
// bundles: per-stage latency breakdowns (with p50/p95/p99), critical
// paths, retransmit-chain summaries and worst-frame rankings — the
// post-mortem companion to the Chrome traces smartvlc-sim exports.
//
// The rendering lives in internal/telemetry/span/analyze (tested against
// golden outputs); this command only loads inputs and picks the mode.
//
// Usage:
//
//	vlctrace trace file.trace.json     analyze a Chrome trace_event file
//	vlctrace spans file.spans.json     analyze a canonical span snapshot
//	vlctrace bundle DIR                summarize and replay a flight bundle
//	vlctrace exemplars metrics.json    histogram-exemplar drill-down: the
//	                                   frames (seq, root span ID) behind
//	                                   each latency bucket's tail
//
// Flags:
//
//	-top N    rows in the slowest/worst-frame tables (default 5)
//	-root S   frame-root span name (default "frame")
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/flight"
	"smartvlc/internal/telemetry/span"
	"smartvlc/internal/telemetry/span/analyze"
)

func main() {
	top := flag.Int("top", 5, "rows in the slowest/worst-frame tables")
	root := flag.String("root", "frame", "frame-root span name")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: vlctrace [flags] trace|spans|bundle|exemplars PATH\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	opt := analyze.Options{Root: *root, Top: *top}
	var err error
	switch flag.Arg(0) {
	case "trace":
		err = analyzeTrace(flag.Arg(1), opt)
	case "spans":
		err = analyzeSpans(flag.Arg(1), opt)
	case "bundle":
		err = analyzeBundle(flag.Arg(1), opt)
	case "exemplars":
		err = analyzeExemplars(flag.Arg(1))
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vlctrace: %v\n", err)
		os.Exit(1)
	}
}

func analyzeTrace(path string, opt analyze.Options) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	snap, err := span.ReadChromeTrace(f)
	if err != nil {
		return err
	}
	analyze.Report(os.Stdout, snap, opt)
	return nil
}

func analyzeSpans(path string, opt analyze.Options) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap span.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	analyze.Report(os.Stdout, &snap, opt)
	return nil
}

// analyzeExemplars renders the histogram-exemplar drill-down of a
// telemetry snapshot: each exemplar's span ID feeds straight back into
// the span tables the other modes print.
func analyzeExemplars(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	snap, err := telemetry.ParseSnapshot(b)
	if err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	return snap.WriteExemplars(os.Stdout)
}

func analyzeBundle(dir string, opt analyze.Options) error {
	b, err := flight.ReadBundle(dir)
	if err != nil {
		return err
	}
	analyze.ReportBundle(os.Stdout, dir, b)
	class, err := b.Replay()
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	analyze.ReportReplay(os.Stdout, class, b.Meta.Class)
	if b.Spans != nil && len(b.Spans.Spans) > 0 {
		fmt.Println()
		analyze.Report(os.Stdout, b.Spans, analyze.Options{Root: "frame", Top: opt.Top})
	}
	return nil
}
