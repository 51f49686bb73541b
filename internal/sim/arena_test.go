package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"smartvlc/internal/alloctest"
	"smartvlc/internal/light"
	"smartvlc/internal/optics"
	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/prof"
	"smartvlc/internal/telemetry/span"
	"smartvlc/internal/telemetry/vlog"
)

// arenaSessionConfig builds a fully instrumented adaptive session —
// telemetry, spans, stage profiler, link health, trace-driven dimming —
// with fresh registries (registries are stateful: one set per run).
func arenaSessionConfig(t testing.TB, seed uint64) Config {
	cfg := DefaultConfig(amppmScheme(t))
	cfg.Seed = seed
	cfg.Trace = light.BlindPull{StartLux: 100, EndLux: 400, Duration: 0.4}
	cfg.Telemetry = telemetry.New()
	cfg.Spans = span.NewCollector()
	cfg.Prof = prof.New()
	cfg.Health = stepHealthConfig()
	return cfg
}

// sessionBytes serializes everything a session can observe — the Result
// struct plus all four snapshots as canonical JSON — and strips the
// snapshot pointers so the caller can DeepEqual the rest.
func sessionBytes(t testing.TB, res *Result) [][]byte {
	t.Helper()
	var out [][]byte
	for i, j := range []interface{ JSON() ([]byte, error) }{
		res.Telemetry, res.Spans, res.Health, res.Prof,
	} {
		if reflect.ValueOf(j).IsNil() {
			t.Fatalf("instrumented run returned no snapshot %d", i)
		}
		b, err := j.JSON()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	res.Telemetry, res.Spans, res.Health, res.Prof = nil, nil, nil, nil
	return out
}

// TestArenaRunByteIdentical is the tentpole contract: sessions rented
// from a warm arena produce byte-identical results, telemetry, spans,
// health and prof snapshots vs fresh-allocated runs — including after
// the arena has been dirtied by sessions with different seeds, payload
// sizes and durations.
func TestArenaRunByteIdentical(t *testing.T) {
	ref, err := Run(arenaSessionConfig(t, 7), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	refSnaps := sessionBytes(t, &ref)

	a := NewArena()
	check := func(round string) {
		got, err := a.Run(arenaSessionConfig(t, 7), 0.4)
		if err != nil {
			t.Fatal(err)
		}
		gotSnaps := sessionBytes(t, &got)
		for i := range refSnaps {
			if !bytes.Equal(refSnaps[i], gotSnaps[i]) {
				t.Fatalf("%s: snapshot %d diverges from fresh run", round, i)
			}
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("%s: result diverges from fresh run:\nfresh: %+v\narena: %+v", round, ref, got)
		}
	}
	check("cold arena")
	check("warm arena")

	// Dirty the arena with sessions of different shapes, then re-check:
	// nothing a prior session leaves behind may leak into the next.
	dirty := arenaSessionConfig(t, 99)
	dirty.PayloadBytes = 64
	dirty.Window = 4
	dirty.FixedLevel = 0.3
	dirty.Trace = nil
	if _, err := a.Run(dirty, 0.2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RunBroadcast(BroadcastConfig{
		Config: DefaultConfig(amppmScheme(t)),
		Receivers: []ReceiverPose{
			{Geometry: optics.Aligned(1.5, 0)},
			{Geometry: optics.Aligned(3.0, 3)},
		},
	}, 0.2); err != nil {
		t.Fatal(err)
	}
	check("dirtied arena")
}

// TestArenaBroadcastByteIdentical extends the contract to broadcast
// sessions: an arena first dirtied by a single-link session of another
// shape, and then one arena serving every (GOMAXPROCS, Workers)
// combination, always matches the fresh run — result, snapshots and log.
func TestArenaBroadcastByteIdentical(t *testing.T) {
	mkCfg := func() BroadcastConfig {
		cfg := broadcastConfig(t,
			ReceiverPose{Geometry: optics.Aligned(1.5, 0)},
			ReceiverPose{Geometry: optics.Aligned(3.0, 3)},
			ReceiverPose{Geometry: optics.Aligned(3.3, 5)},
		)
		cfg.Trace = light.BlindPull{StartLux: 100, EndLux: 400, Duration: 0.3}
		cfg.Telemetry = telemetry.New()
		cfg.Spans = span.NewCollector()
		cfg.Prof = prof.New()
		cfg.Health = stepHealthConfig()
		cfg.Logs = vlog.New(vlog.Debug)
		return cfg
	}
	serialize := func(res *BroadcastResult) [][]byte {
		t.Helper()
		var out [][]byte
		for i, j := range []interface{ JSON() ([]byte, error) }{res.Telemetry, res.Spans, res.Health, res.Prof, res.Logs} {
			if reflect.ValueOf(j).IsNil() {
				t.Fatalf("instrumented broadcast returned no snapshot %d", i)
			}
			b, err := j.JSON()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		for i := range res.PerReceiver {
			b, err := res.PerReceiver[i].Health.JSON()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
			res.PerReceiver[i].Health = nil
		}
		res.Telemetry, res.Spans, res.Health, res.Prof, res.Logs = nil, nil, nil, nil, nil
		return out
	}

	ref, err := RunBroadcast(mkCfg(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	refSnaps := serialize(&ref)

	a := NewArena()
	check := func(round string, workers int) {
		t.Helper()
		cfg := mkCfg()
		cfg.Workers = workers
		got, err := a.RunBroadcast(cfg, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		gotSnaps := serialize(&got)
		for i := range refSnaps {
			if !bytes.Equal(refSnaps[i], gotSnaps[i]) {
				t.Fatalf("%s: snapshot %d diverges from fresh run", round, i)
			}
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("%s: result diverges from fresh run", round)
		}
	}

	// A single-link session of another seed and level leaves its state in
	// the arena first, so the broadcast reuses genuinely dirty scratch.
	dirty := arenaSessionConfig(t, 99)
	dirty.FixedLevel = 0.3
	dirty.Trace = nil
	dirty.Logs = vlog.New(vlog.Debug)
	if _, err := a.Run(dirty, 0.2); err != nil {
		t.Fatal(err)
	}
	check("dirtied arena", 0)

	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 3, -1} {
			check(fmt.Sprintf("GOMAXPROCS=%d workers=%d", procs, workers), workers)
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestArenaFleetByteIdentical: a persistent arena pool serving repeated
// fleets matches fresh-allocated fleets byte for byte, per session and
// in the merged snapshot, across the (GOMAXPROCS, workers) matrix.
func TestArenaFleetByteIdentical(t *testing.T) {
	ref, err := RunFleet(fleetConfigs(t, 6), 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	refMerged, err := ref.Telemetry.JSON()
	if err != nil {
		t.Fatal(err)
	}
	refSessions := make([][]byte, len(ref.Results))
	for i := range ref.Results {
		if refSessions[i], err = ref.Results[i].Telemetry.JSON(); err != nil {
			t.Fatal(err)
		}
		ref.Results[i].Telemetry = nil
	}

	arenas := NewFleetArenas()
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 3, -1} {
			got, err := RunFleetArenas(arenas, fleetConfigs(t, 6), 0.3, workers)
			if err != nil {
				t.Fatal(err)
			}
			gotMerged, err := got.Telemetry.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refMerged, gotMerged) {
				t.Fatalf("GOMAXPROCS=%d workers=%d: merged snapshot diverges", procs, workers)
			}
			for i := range got.Results {
				gotSession, err := got.Results[i].Telemetry.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(refSessions[i], gotSession) {
					t.Fatalf("GOMAXPROCS=%d workers=%d: session %d snapshot diverges", procs, workers, i)
				}
				got.Results[i].Telemetry = nil
			}
			got.Workers = ref.Workers // resolved counts differ by design
			if !reflect.DeepEqual(ref.Results, got.Results) {
				t.Fatalf("GOMAXPROCS=%d workers=%d: results diverge", procs, workers)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestWarmSessionAllocs pins the warm-path allocation budget: once an
// arena has served a session of a given shape, repeat sessions allocate
// only the result's own series buffers (which escape to the caller by
// design) — none of the session working state. The same holds for a
// fleet on a warm FleetArenas pool, whose repeat runs allocate only the
// per-session results, the merged summary and the fan-out bookkeeping.
func TestWarmSessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	s := amppmScheme(t)
	cfg := DefaultConfig(s)
	cfg.FixedLevel = 0.5
	a := NewArena()
	allocs, size := warmCost(3, func() {
		if _, err := a.Run(cfg, 0.2); err != nil {
			t.Fatal(err)
		}
	})
	// The observed warm steady state is 7 allocations (~108 B): the
	// result's own stats.Series buffers and throughput bins, which
	// escape to the caller by design. A reintroduced per-frame
	// allocation shows up as thousands.
	t.Logf("warm session: %.1f allocs, %.0f B", allocs, size)
	if allocs > 11 {
		t.Errorf("warm session allocated %v times, want ≤ 11", allocs)
	}
	if size > 731 {
		t.Errorf("warm session allocated %.0f B, want ≤ 731", size)
	}

	arenas := NewFleetArenas()
	fleet := func() {
		cfgs := make([]Config, 8)
		for i := range cfgs {
			cfgs[i] = DefaultConfig(s)
			cfgs[i].FixedLevel = 0.5
			cfgs[i].Seed = uint64(i + 1)
		}
		if _, err := RunFleetArenas(arenas, cfgs, 0.1, 1); err != nil {
			t.Fatal(err)
		}
	}
	allocs, size = warmCost(3, fleet)
	t.Logf("warm 8-session fleet: %.1f allocs, %.0f B", allocs, size)
	if allocs > 99 {
		t.Errorf("warm 8-session fleet allocated %v times, want ≤ 99", allocs)
	}
}

// warmCost returns the mean allocations and bytes allocated per call of
// f, measured by alloctest.Count over runs warm calls.
func warmCost(runs int, f func()) (allocs, size float64) {
	mallocs, bytes := alloctest.Count(runs, f)
	n := float64(runs)
	return float64(mallocs) / n, float64(bytes) / n
}
