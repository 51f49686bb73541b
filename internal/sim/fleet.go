package sim

import (
	"fmt"
	"os"
	"path/filepath"

	"smartvlc/internal/parallel"
	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/agg"
	"smartvlc/internal/telemetry/flight"
	"smartvlc/internal/telemetry/health"
	"smartvlc/internal/telemetry/prof"
	"smartvlc/internal/telemetry/span"
	"smartvlc/internal/telemetry/vlog"
)

// FleetResult aggregates a fleet of independent sessions.
type FleetResult struct {
	// Results holds each session's outcome, in config order.
	Results []Result
	// Workers is the resolved worker count the fleet ran on.
	Workers int
	// Telemetry merges the per-session snapshots (counters and histogram
	// occupancies summed, gauges averaged) for the sessions that carried a
	// registry; nil when none did. Per-session span trees are NOT merged —
	// see telemetry.Merge — but they are not lost either: each session's
	// Result retains its own Spans snapshot, and WriteSessionTraces
	// exports the span trees per session.
	Telemetry *telemetry.Snapshot
	// Health merges the per-session link-health series (counts summed,
	// rates recomputed, SLOs re-evaluated over the merged series) for the
	// sessions that carried a health config; nil when none did. Each
	// session's Result keeps its own Health snapshot. The merge folds in
	// config order, so the fleet health snapshot is byte-identical for
	// every worker count.
	Health *health.Snapshot
	// Prof merges the per-session stage-cost snapshots (counts summed per
	// series key) for the sessions that carried a profiler; nil when none
	// did. Each session's Result keeps its own Prof snapshot. The merge
	// folds in config order, so the fleet profile is byte-identical for
	// every worker count. Stage totals also ride the Telemetry merge as
	// prof_*_total counters — this field keeps the structured view.
	Prof *prof.Snapshot
	// Logs concatenates the per-session log snapshots in config order,
	// reassigning record IDs fleet-wide, for the sessions that carried a
	// logger; nil when none did. The elision contract (see vlog.Merge):
	// the merge does NOT re-apply any ring capacity — per-session drops
	// already happened — and the session boundary is elided from the
	// records themselves; recover it from the "sim/session" start/end
	// records or from each Result's own Logs snapshot, which is retained.
	// The fold runs in config order, so the fleet log is byte-identical
	// for every worker count.
	Logs *vlog.Snapshot
	// Agg is the final streaming-aggregator snapshot (fleet window rollup
	// pyramid plus worst-sessions tables) when the configs carried Watch
	// feeds; nil when none did. The feeds fold deltas in config order at
	// sim-clock window boundaries, so this too is byte-identical for every
	// worker count — and unlike the merges above, the same state was
	// observable live via Aggregator.Snapshot while the fleet ran.
	Agg *agg.Snapshot
}

// WriteSessionTraces exports each session's span snapshot into dir
// (created if absent) as session-NNN.spans.json (canonical snapshot) and
// session-NNN.trace.json (Chrome trace_event, Perfetto-loadable), indexed
// by config order. Sessions without a span collector are skipped. This is
// the fleet-mode counterpart to the merge elision: aggregates merge,
// traces export per session.
func (f FleetResult) WriteSessionTraces(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	for i, r := range f.Results {
		if r.Spans == nil {
			continue
		}
		b, err := r.Spans.JSON()
		if err != nil {
			return fmt.Errorf("sim: session %d spans: %w", i, err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("session-%03d.spans.json", i)), b, 0o644); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		tf, err := os.Create(filepath.Join(dir, fmt.Sprintf("session-%03d.trace.json", i)))
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		if err := r.Spans.WriteChromeTrace(tf); err != nil {
			tf.Close()
			return fmt.Errorf("sim: session %d trace: %w", i, err)
		}
		if err := tf.Close(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// RunFleet runs one session per config concurrently across at most
// workers goroutines (workers < 1 selects GOMAXPROCS) and returns the
// results in config order. Sessions are fully independent — each draws
// from RNG streams derived from its own Seed and records into its own
// registry — so the fleet result is byte-identical for every worker
// count: Results[i] and its snapshot match a serial Run of cfgs[i], and
// the merged snapshot is a sequential fold in config order.
//
// Configs that share an observer — a telemetry registry, span collector,
// stage profiler, logger, watch feed or flight recorder — are rejected:
// concurrent sessions writing one would interleave their records
// nondeterministically. Give each session its own (or none) and read the
// merged snapshots.
func RunFleet(cfgs []Config, duration float64, workers int) (FleetResult, error) {
	return RunFleetArenas(NewFleetArenas(), cfgs, duration, workers)
}

// RunFleetArenas is RunFleet renting one session arena per worker from
// the given pool: each worker claims an arena once, runs its share of the
// sessions out of it, and returns it when the fleet drains. Passing a
// persistent pool keeps the arenas warm across calls, which is what makes
// repeated fleets approach zero per-session allocation; results are
// byte-identical to RunFleet either way (rented state only amortizes
// cost, it never influences results).
func RunFleetArenas(arenas *FleetArenas, cfgs []Config, duration float64, workers int) (FleetResult, error) {
	if arenas == nil {
		arenas = NewFleetArenas()
	}
	if len(cfgs) == 0 {
		return FleetResult{}, fmt.Errorf("sim: fleet needs at least one config")
	}
	// See RunFleet: every observer a session writes must be its own.
	for _, err := range []error{
		shared(cfgs, "telemetry registry", func(c *Config) *telemetry.Registry { return c.Telemetry }),
		shared(cfgs, "span collector", func(c *Config) *span.Collector { return c.Spans }),
		shared(cfgs, "stage profiler", func(c *Config) *prof.Profiler { return c.Prof }),
		shared(cfgs, "structured logger", func(c *Config) *vlog.Logger { return c.Logs }),
		shared(cfgs, "watch feed", func(c *Config) *agg.Feed { return c.Watch }),
		shared(cfgs, "flight recorder", func(c *Config) *flight.Recorder { return c.Flight }),
	} {
		if err != nil {
			return FleetResult{}, err
		}
	}
	// Feeds across different aggregators would leave no single fleet
	// rollup to report.
	var fleetAgg *agg.Aggregator
	for i, cfg := range cfgs {
		if cfg.Watch == nil {
			continue
		}
		if a := cfg.Watch.Aggregator(); fleetAgg == nil {
			fleetAgg = a
		} else if a != fleetAgg {
			return FleetResult{}, fmt.Errorf("sim: fleet config %d's watch feed belongs to a different aggregator", i)
		}
	}

	w := parallel.Workers(workers)
	if w > len(cfgs) {
		w = len(cfgs)
	}
	results, err := parallel.MapWorker(w, len(cfgs), arenas.rent, arenas.release,
		func(i int, a *Arena) (Result, error) {
			return a.Run(cfgs[i], duration)
		})
	if err != nil {
		return FleetResult{}, err
	}

	out := FleetResult{
		Results:   results,
		Workers:   w,
		Telemetry: mergeSome(results, func(r *Result) *telemetry.Snapshot { return r.Telemetry }, telemetry.Merge),
		Health:    mergeSome(results, func(r *Result) *health.Snapshot { return r.Health }, health.Merge),
		Prof:      mergeSome(results, func(r *Result) *prof.Snapshot { return r.Prof }, prof.Merge),
		Logs:      mergeSome(results, func(r *Result) *vlog.Snapshot { return r.Logs }, vlog.Merge),
	}
	if fleetAgg != nil {
		out.Agg = fleetAgg.Snapshot()
	}
	return out, nil
}

// shared returns an error naming the first two configs whose observer
// of one kind (read by get; nil means none) is the same.
func shared[P comparable](cfgs []Config, kind string, get func(*Config) P) error {
	var none P
	seen := make(map[P]int, len(cfgs))
	for i := range cfgs {
		p := get(&cfgs[i])
		if p == none {
			continue
		}
		if j, dup := seen[p]; dup {
			return fmt.Errorf("sim: fleet configs %d and %d share a %s", j, i, kind)
		}
		seen[p] = i
	}
	return nil
}

// mergeSome folds the sessions' snapshots of one kind (read by get) in
// config order, skipping sessions without one; nil when none has one.
func mergeSome[S any](results []Result, get func(*Result) *S, merge func(...*S) *S) *S {
	var some []*S
	for i := range results {
		if sn := get(&results[i]); sn != nil {
			some = append(some, sn)
		}
	}
	if len(some) == 0 {
		return nil
	}
	return merge(some...)
}
