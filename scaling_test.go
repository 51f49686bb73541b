package smartvlc

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"smartvlc/internal/experiments"
)

// TestParallelSpeedupAtFourWorkers is the scaling gate of the parallel
// engine: each of its four fan-out workloads — a fleet, a fleet on warm
// arenas, the Fig. 4 Monte-Carlo and a broadcast — must run at least as
// fast on four workers as on one. Both sides run in this process with a
// fixed iteration count, alternating which goes first, and the gate
// compares the medians of their timings. It needs four CPUs, so it skips
// on smaller hosts, under the race detector, and under coverage, whose
// atomic counters are shared by every worker and would be timed too.
func TestParallelSpeedupAtFourWorkers(t *testing.T) {
	const workers = 4
	switch {
	case runtime.NumCPU() < workers || runtime.GOMAXPROCS(0) < workers:
		t.Skipf("needs %d CPUs: NumCPU is %d, GOMAXPROCS is %d", workers, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	case raceEnabled:
		t.Skip("the race detector's instrumentation would be timed too")
	case testing.CoverMode() != "":
		t.Skip("coverage counters are shared across workers and would be timed too")
	}
	sys := newSystem(t)
	fleetCfgs := func() []SessionConfig {
		cfgs := make([]SessionConfig, 8)
		for j := range cfgs {
			cfgs[j] = DefaultSessionConfig(sys.Scheme())
			cfgs[j].FixedLevel = 0.5
			cfgs[j].Seed = uint64(j + 1)
		}
		return cfgs
	}
	// Each body returns one call of its workload at a worker count; the
	// arena body keeps one warm pool per worker count.
	bodies := []struct {
		name  string
		iters int
		at    func(workers int) func() error
	}{
		{"fleet_sessions", 4, func(w int) func() error {
			return func() error { _, err := RunFleet(fleetCfgs(), 0.1, w); return err }
		}},
		{"fleet_sessions_arena", 4, func(w int) func() error {
			arenas := NewFleetArenas()
			return func() error { _, err := RunFleetArenas(arenas, fleetCfgs(), 0.1, w); return err }
		}},
		{"fig4_montecarlo", 1, func(w int) func() error {
			return func() error { _, _, err := experiments.Fig4MonteCarloWorkers(40000, 11, w); return err }
		}},
		{"broadcast_fanout", 4, func(w int) func() error {
			return func() error {
				cfg := BroadcastConfig{Workers: w}
				cfg.Config = DefaultSessionConfig(sys.Scheme())
				cfg.FixedLevel = 0.5
				base := cfg.Geometry
				cfg.Receivers = []ReceiverPose{
					{Geometry: base},
					{Geometry: base, AmbientScale: 1.4},
					{Geometry: base, AmbientScale: 0.7},
					{Geometry: base, AmbientScale: 1.1},
				}
				_, err := RunBroadcast(cfg, 0.1)
				return err
			}
		}},
	}
	const rounds = 5
	for _, b := range bodies {
		serial, parallel := b.at(1), b.at(workers)
		timeIt := func(f func() error) time.Duration {
			start := time.Now()
			for i := 0; i < b.iters; i++ {
				if err := f(); err != nil {
					t.Fatalf("%s: %v", b.name, err)
				}
			}
			return time.Since(start)
		}
		timeIt(serial) // warm the process-wide caches and the arenas
		timeIt(parallel)
		var ts, tp []time.Duration
		for r := 0; r < rounds; r++ {
			if r%2 == 0 {
				ts = append(ts, timeIt(serial))
				tp = append(tp, timeIt(parallel))
			} else {
				tp = append(tp, timeIt(parallel))
				ts = append(ts, timeIt(serial))
			}
		}
		slices.Sort(ts)
		slices.Sort(tp)
		speedup := float64(ts[rounds/2]) / float64(tp[rounds/2])
		t.Logf("%s: %.2fx at %d workers (median %v on 1 worker, %v on %d)", b.name, speedup, workers, ts[rounds/2], tp[rounds/2], workers)
		if speedup < 1 {
			t.Errorf("%s: %.2fx at %d workers, want at least 1.0x", b.name, speedup, workers)
		}
	}
}
