// Command phybench runs the PHY fast-path micro-benchmarks in-process and
// writes results/BENCH_phy.json, the machine-readable record of the
// sample-domain optimization (see DESIGN.md and EXPERIMENTS.md). Each
// entry carries the pre-optimization baseline measured on the same
// benchmark body before the fast paths landed, so the speedup trajectory
// survives in the repo.
//
// Usage:
//
//	go run ./cmd/phybench [-benchtime 2s] [-out results/BENCH_phy.json] [-quick]
//	    [-history results/BENCH_history.jsonl] [-sha COMMIT] [-stamp RFC3339]
//
// -quick is the smoke mode for CI and pre-commit runs: a short benchtime,
// no baseline comparison (short runs are too noisy to call speedups), and
// a default output path that does not clobber the recorded
// results/BENCH_phy.json.
//
// Besides the point-in-time report, every run appends one JSON line to the
// bench history log (-history; empty disables): the commit identity (-sha,
// -stamp — flags, not clock reads, so replays stay reproducible) plus
// every benchmark's ns/op. The history feeds the trend gates: benchguard
// -trend and vlcprof trend compare the newest run against a rolling median
// of prior runs and name the regressing stage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"smartvlc"
	"smartvlc/internal/amppm"
	"smartvlc/internal/bench"
	"smartvlc/internal/experiments"
	"smartvlc/internal/frame"
	"smartvlc/internal/optics"
	"smartvlc/internal/photon"
	"smartvlc/internal/phy"
	"smartvlc/internal/scheme"
)

// baselinesNs holds the pre-fast-path numbers measured on the same
// benchmark bodies (Intel Xeon @ 2.10GHz, go1.24): the denominators of
// the recorded speedups. Zero means the benchmark has no meaningful
// "before" (table construction itself was not changed, only memoized).
var baselinesNs = map[string]float64{
	"phy_transmit":       1859565,
	"receiver_process":   374470,
	"receiver_hunt":      270909,
	"end_to_end_frame":   598991,
	"table_construction": 0,
}

// serialPeer maps each parallel benchmark to its single-worker twin; the
// recorded ParallelSpeedup is serial ns/op over parallel ns/op on this
// machine (so it only exceeds 1 on multi-core hosts — see NumCPU in the
// report header).
var serialPeer = map[string]string{
	"fleet_sessions_parallel":       "fleet_sessions",
	"fleet_sessions_arena_parallel": "fleet_sessions_arena",
	"fig4_montecarlo_parallel":      "fig4_montecarlo",
	"broadcast_fanout_parallel":     "broadcast_fanout",
}

// nilPeer maps each instrumented benchmark to its observability-off twin;
// the recorded OverheadVsNil is the fractional cost of turning the layer
// on, backing the "a few % at most" claim the benchguard gate enforces.
var nilPeer = map[string]string{
	"end_to_end_frame_spans":   "end_to_end_frame",
	"end_to_end_frame_health":  "session_frames",
	"end_to_end_frame_prof":    "session_frames",
	"end_to_end_frame_vlog":    "session_frames",
	"fleet_sessions_telemetry": "fleet_sessions",
	"fleet_sessions_agg":       "fleet_sessions_telemetry",
}

// arenaPeer maps each warm-arena benchmark to its fresh-allocation twin;
// the recorded ArenaSpeedup is fresh ns/op over warm ns/op. The twins run
// the exact same session workload — the arena contract guarantees
// byte-identical results — so the ratio isolates what session setup
// allocation actually costs (and shows honestly how compute-bound the
// sessions are: most of a session is physics, not allocation).
var arenaPeer = map[string]string{
	"session_frames_arena":          "session_frames",
	"fleet_sessions_arena":          "fleet_sessions",
	"fleet_sessions_arena_parallel": "fleet_sessions_parallel",
}

type entry struct {
	Name          string  `json:"name"`
	NsPerOp       float64 `json:"ns_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BaselineNsOp  float64 `json:"baseline_ns_per_op,omitempty"`
	SpeedupVsSeed float64 `json:"speedup_vs_baseline,omitempty"`
	// Workers is the worker count the benchmark body ran with (0 when the
	// body has no parallel dimension).
	Workers int `json:"workers,omitempty"`
	// ParallelSpeedup is serial-twin ns/op ÷ this entry's ns/op, recorded
	// on the *_parallel entries.
	ParallelSpeedup float64 `json:"parallel_speedup,omitempty"`
	// OverheadVsNil is this entry's ns/op over its observability-off
	// twin's, minus one — the fractional price of the instrumented layer.
	OverheadVsNil float64 `json:"overhead_vs_nil,omitempty"`
	// FramesPerSecPerCore normalizes frame throughput by the cores the
	// body used (frames per op × 1e9 / ns/op / workers) — the number that
	// stays comparable between serial and parallel twins and that
	// benchguard gates on.
	FramesPerSecPerCore float64 `json:"frames_per_sec_per_core,omitempty"`
	// SessionsPerSec is whole simulated ARQ sessions per wall-clock second
	// (sessions per op × 1e9 / ns/op), recorded on the session-loop twins.
	SessionsPerSec float64 `json:"sessions_per_sec,omitempty"`
	// SessionsPerSecPerCore normalizes SessionsPerSec by the cores the body
	// used — the per-core session throughput benchguard trends across
	// commits, comparable between serial and parallel twins.
	SessionsPerSecPerCore float64 `json:"sessions_per_sec_per_core,omitempty"`
	// ArenaSpeedup is the fresh-allocation twin's ns/op over this entry's,
	// recorded on the *_arena entries (see arenaPeer).
	ArenaSpeedup float64 `json:"arena_speedup,omitempty"`
	Iterations   int     `json:"iterations"`
}

// curvePoint is one (workers, ns/op) measurement of a parallel twin.
type curvePoint struct {
	Workers int     `json:"workers"`
	NsPerOp float64 `json:"ns_per_op"`
	// Speedup is the workers=1 twin's ns/op over this point's.
	Speedup float64 `json:"speedup_vs_serial"`
}

// speedupCurve is the scaling record of one parallel workload: ns/op and
// speedup at each worker count. On a single-core host the curve still
// gets recorded (speedups hover at or below 1) — num_cpu in the report
// header tells the reader, and benchguard, how to interpret it.
type speedupCurve struct {
	Name   string       `json:"name"`
	Points []curvePoint `json:"points"`
}

type report struct {
	GeneratedBy string `json:"generated_by"`
	Date        string `json:"date"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	Benchtime   string `json:"benchtime"`
	// Quick marks a smoke run: short benchtime, no baseline comparison.
	// Quick reports are for liveness, not for updating recorded numbers.
	Quick         bool           `json:"quick,omitempty"`
	Benchmarks    []entry        `json:"benchmarks"`
	SpeedupCurves []speedupCurve `json:"speedup_curves,omitempty"`
}

// curveWorkers are the worker counts of the recorded speedup curves.
var curveWorkers = []int{1, 2, 4, 8}

func buildSlots(level float64, nFrames, idleGap int) ([]bool, *scheme.AMPPM, error) {
	sch, err := scheme.NewAMPPM(amppm.DefaultConstraints())
	if err != nil {
		return nil, nil, err
	}
	codec, err := sch.CodecFor(level)
	if err != nil {
		return nil, nil, err
	}
	payload := make([]byte, 128)
	for i := range payload {
		payload[i] = byte(i * 37)
	}
	slots := frame.AppendIdle(nil, codec.Level(), idleGap)
	for f := 0; f < nFrames; f++ {
		fs, err := frame.Build(codec, payload)
		if err != nil {
			return nil, nil, err
		}
		slots = append(slots, fs...)
		slots = frame.AppendIdle(slots, codec.Level(), idleGap)
	}
	return slots, sch, nil
}

func main() {
	benchtime := flag.Duration("benchtime", 2*time.Second, "minimum time per benchmark")
	out := flag.String("out", filepath.Join("results", "BENCH_phy.json"), "output path")
	quick := flag.Bool("quick", false, "smoke mode: short benchtime, no baseline comparison, separate default output")
	history := flag.String("history", filepath.Join("results", "BENCH_history.jsonl"), "bench history log to append this run to (empty disables)")
	sha := flag.String("sha", "", "git commit recorded in the history line")
	stamp := flag.String("stamp", "", "run timestamp recorded in the history line (RFC 3339 by convention)")
	flag.Parse()
	if *quick {
		// Explicit -benchtime/-out still win over the quick defaults.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if !explicit["benchtime"] {
			*benchtime = 200 * time.Millisecond
		}
		if !explicit["out"] {
			*out = filepath.Join("results", "BENCH_phy_quick.json")
		}
	}

	ch, err := photon.DefaultLinkBudget().ChannelAt(optics.Aligned(3.0, 0), 8000)
	if err != nil {
		fatal(err)
	}
	link := phy.DefaultLink(ch)

	txSlots, sch, err := buildSlots(0.5, 4, 24)
	if err != nil {
		fatal(err)
	}
	rxSlots, _, err := buildSlots(0.5, 4, 600)
	if err != nil {
		fatal(err)
	}

	sys, err := smartvlc.New(smartvlc.DefaultConstraints())
	if err != nil {
		fatal(err)
	}
	e2eSlots, err := sys.BuildFrame(0.5, make([]byte, 128))
	if err != nil {
		fatal(err)
	}

	// Spans-enabled twin of end_to_end_frame on its own System, so the
	// nil-collector default path above stays untouched. The collector is a
	// bounded ring, so steady-state iterations recycle its slots.
	sysSpans, err := smartvlc.New(smartvlc.DefaultConstraints())
	if err != nil {
		fatal(err)
	}
	sysSpans.SetSpans(smartvlc.NewSpanCollector())

	// Parallel-engine benchmark bodies, each in a serial and a
	// many-worker variant over the same workload. fleetCfgs builds fresh
	// configs per run because registries are stateful.
	fleetCfgs := func() []smartvlc.SessionConfig {
		cfgs := make([]smartvlc.SessionConfig, 8)
		for j := range cfgs {
			cfg := smartvlc.DefaultSessionConfig(sys.Scheme())
			cfg.FixedLevel = 0.5
			cfg.Seed = uint64(j + 1)
			cfgs[j] = cfg
		}
		return cfgs
	}
	fleetBody := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fl, err := smartvlc.RunFleet(fleetCfgs(), 0.1, workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(fl.Results) != 8 {
					b.Fatalf("fleet returned %d sessions", len(fl.Results))
				}
			}
		}
	}
	// Warm-arena twin: one persistent pool serves every iteration, so each
	// op after the first rents warm per-worker arenas and session setup
	// stops allocating. Byte-identical results to fleetBody by the arena
	// contract — only where state lives differs.
	fleetArenaBody := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			arenas := smartvlc.NewFleetArenas()
			for i := 0; i < b.N; i++ {
				fl, err := smartvlc.RunFleetArenas(arenas, fleetCfgs(), 0.1, workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(fl.Results) != 8 {
					b.Fatalf("fleet returned %d sessions", len(fl.Results))
				}
			}
		}
	}
	// Telemetry-armed twin of fleet_sessions: every session carries a
	// registry but no watch feed, splitting the instrumented cost in two —
	// this entry prices the metrics layer against the bare fleet, and
	// fleet_sessions_agg below prices the streaming aggregation (delta
	// extraction + window folds) against this one.
	fleetTelemetryCfgs := func() []smartvlc.SessionConfig {
		cfgs := fleetCfgs()
		for j := range cfgs {
			cfgs[j].Telemetry = smartvlc.NewTelemetry()
		}
		return cfgs
	}
	fleetTelemetryBody := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fl, err := smartvlc.RunFleet(fleetTelemetryCfgs(), 0.1, 1)
			if err != nil {
				b.Fatal(err)
			}
			if len(fl.Results) != 8 {
				b.Fatalf("fleet returned %d sessions", len(fl.Results))
			}
		}
	}
	fleetAggBody := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfgs := fleetTelemetryCfgs()
			fa, err := smartvlc.NewFleetAggregator(smartvlc.FleetAggConfig{WindowSeconds: 0.02}, len(cfgs))
			if err != nil {
				b.Fatal(err)
			}
			for j := range cfgs {
				feed, err := fa.Feed(smartvlc.FleetSessionMeta{
					Index: j, Seed: cfgs[j].Seed,
					Scheme: sys.Scheme().Name(), PayloadBytes: cfgs[j].PayloadBytes,
				})
				if err != nil {
					b.Fatal(err)
				}
				cfgs[j].Watch = feed
			}
			fl, err := smartvlc.RunFleet(cfgs, 0.1, 1)
			if err != nil {
				b.Fatal(err)
			}
			if len(fl.Results) != 8 {
				b.Fatalf("fleet returned %d sessions", len(fl.Results))
			}
			if fl.Agg == nil || fl.Agg.SealedWindows == 0 {
				b.Fatal("fleet aggregation sealed no windows")
			}
		}
	}
	mcBody := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, _, err := experiments.Fig4MonteCarloWorkers(40000, 11, workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) == 0 {
					b.Fatal("empty Monte-Carlo result")
				}
			}
		}
	}
	bcastBody := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := smartvlc.BroadcastConfig{Workers: workers}
				cfg.Config = smartvlc.DefaultSessionConfig(sys.Scheme())
				cfg.FixedLevel = 0.5
				base := cfg.Geometry
				cfg.Receivers = []smartvlc.ReceiverPose{
					{Geometry: base},
					{Geometry: base, AmbientScale: 1.4},
					{Geometry: base, AmbientScale: 0.7},
					{Geometry: base, AmbientScale: 1.1},
				}
				res, err := smartvlc.RunBroadcast(cfg, 0.1)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.PerReceiver) != 4 {
					b.Fatalf("broadcast returned %d receivers", len(res.PerReceiver))
				}
			}
		}
	}
	// Session-loop twins: one simulated 0.1 s ARQ session per op, with the
	// link-health monitor, the stage profiler and the structured logger off
	// and then each armed in turn, so the recorded pairs price the
	// observability hot paths (OverheadVsNil on the health, prof and vlog
	// entries).
	sessionBody := func(withHealth, withProf, withLog bool) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := smartvlc.DefaultSessionConfig(sys.Scheme())
				cfg.FixedLevel = 0.5
				cfg.Seed = uint64(i + 1)
				if withHealth {
					cfg.Health = &smartvlc.HealthConfig{Objectives: smartvlc.DefaultHealthObjectives()}
				}
				if withProf {
					cfg.Prof = smartvlc.NewProfiler()
				}
				if withLog {
					cfg.Logs = smartvlc.NewLogger(smartvlc.LogDebug)
				}
				res, err := smartvlc.RunSession(cfg, 0.1)
				if err != nil {
					b.Fatal(err)
				}
				if res.FramesOK == 0 {
					b.Fatal("no frames delivered")
				}
				if withHealth && res.Health == nil {
					b.Fatal("missing health snapshot")
				}
				if withProf && res.Prof == nil {
					b.Fatal("missing profile snapshot")
				}
				if withLog && res.Logs == nil {
					b.Fatal("missing log snapshot")
				}
			}
		}
	}
	// Warm-arena twin of session_frames: one arena serves every iteration,
	// so ops after the first reuse the rented link/receiver/codec/MAC state.
	arenaSessionBody := func(b *testing.B) {
		a := smartvlc.NewArena()
		for i := 0; i < b.N; i++ {
			cfg := smartvlc.DefaultSessionConfig(sys.Scheme())
			cfg.FixedLevel = 0.5
			cfg.Seed = uint64(i + 1)
			res, err := a.Run(cfg, 0.1)
			if err != nil {
				b.Fatal(err)
			}
			if res.FramesOK == 0 {
				b.Fatal("no frames delivered")
			}
		}
	}
	ncpu := runtime.NumCPU()

	benches := []struct {
		name    string
		workers int
		// frames/sessions are the per-op counts behind the throughput
		// fields (zero when the body has no such unit of work).
		frames   float64
		sessions float64
		body     func(b *testing.B)
	}{
		{name: "phy_transmit", body: func(b *testing.B) {
			pcg := rand.NewPCG(1, 2)
			rng := rand.New(pcg)
			l := link
			for i := 0; i < b.N; i++ {
				l.StartPhase = rng.Float64()
				samples := l.TransmitPCG(pcg, txSlots)
				phy.RecycleSamples(samples)
			}
		}},
		{name: "receiver_process", frames: 4, body: func(b *testing.B) {
			pcg := rand.NewPCG(3, 4)
			l := link
			l.StartPhase = rand.New(pcg).Float64()
			samples := l.TransmitPCG(pcg, rxSlots)
			rx := phy.NewReceiver(ch, sch.Factory())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, stats := rx.Process(samples)
				if len(results) != 4 || stats.FramesOK != 4 {
					b.Fatalf("decoded %d frames (stats %v)", len(results), stats)
				}
			}
		}},
		{name: "receiver_hunt", body: func(b *testing.B) {
			samples := link.TransmitPCG(rand.NewPCG(5, 6), make([]bool, 20000))
			rx := phy.NewReceiver(ch, sch.Factory())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if results, _ := rx.Process(samples); len(results) != 0 {
					b.Fatal("found frames in noise")
				}
			}
		}},
		{name: "table_construction", body: func(b *testing.B) {
			cons := amppm.DefaultConstraints()
			for i := 0; i < b.N; i++ {
				// Perturb a constraint below any physical significance so
				// every iteration misses the NewTable memo and pays the
				// full planning stage.
				c := cons
				c.P1 = cons.P1 * (1 + float64(i+1)*1e-12)
				t, err := amppm.NewTable(c)
				if err != nil {
					b.Fatal(err)
				}
				if len(t.Vertices()) < 3 {
					b.Fatal("degenerate envelope")
				}
			}
		}},
		{name: "end_to_end_frame", frames: 1, body: func(b *testing.B) {
			misses := 0
			var rep smartvlc.DeliverReport
			for i := 0; i < b.N; i++ {
				if err := sys.DeliverInto(&rep, smartvlc.Aligned(3, 0), 8000, uint64(i), e2eSlots); err != nil {
					b.Fatal(err)
				}
				if len(rep.Payloads) != 1 {
					misses++ // rare phase corners lose a frame; ARQ covers them
				}
			}
			if misses > b.N/20+1 {
				b.Fatalf("%d/%d frames lost", misses, b.N)
			}
		}},
		{name: "end_to_end_frame_spans", frames: 1, body: func(b *testing.B) {
			misses := 0
			var rep smartvlc.DeliverReport
			for i := 0; i < b.N; i++ {
				if err := sysSpans.DeliverInto(&rep, smartvlc.Aligned(3, 0), 8000, uint64(i), e2eSlots); err != nil {
					b.Fatal(err)
				}
				if len(rep.Payloads) != 1 {
					misses++ // rare phase corners lose a frame; ARQ covers them
				}
			}
			if misses > b.N/20+1 {
				b.Fatalf("%d/%d frames lost", misses, b.N)
			}
		}},
		{name: "session_frames", sessions: 1, body: sessionBody(false, false, false)},
		{name: "session_frames_arena", sessions: 1, body: arenaSessionBody},
		{name: "end_to_end_frame_health", sessions: 1, body: sessionBody(true, false, false)},
		{name: "end_to_end_frame_prof", sessions: 1, body: sessionBody(false, true, false)},
		{name: "end_to_end_frame_vlog", sessions: 1, body: sessionBody(false, false, true)},
		{name: "fleet_sessions", workers: 1, sessions: 8, body: fleetBody(1)},
		{name: "fleet_sessions_telemetry", workers: 1, sessions: 8, body: fleetTelemetryBody},
		{name: "fleet_sessions_agg", workers: 1, sessions: 8, body: fleetAggBody},
		{name: "fleet_sessions_parallel", workers: ncpu, sessions: 8, body: fleetBody(ncpu)},
		{name: "fleet_sessions_arena", workers: 1, sessions: 8, body: fleetArenaBody(1)},
		{name: "fleet_sessions_arena_parallel", workers: ncpu, sessions: 8, body: fleetArenaBody(ncpu)},
		{name: "fig4_montecarlo", workers: 1, body: mcBody(1)},
		{name: "fig4_montecarlo_parallel", workers: ncpu, body: mcBody(ncpu)},
		{name: "broadcast_fanout", workers: 1, sessions: 1, body: bcastBody(1)},
		{name: "broadcast_fanout_parallel", workers: ncpu, sessions: 1, body: bcastBody(ncpu)},
	}

	rep := report{
		GeneratedBy: "cmd/phybench",
		Date:        time.Now().UTC().Format("2006-01-02"),
		GoVersion:   runtime.Version(),
		NumCPU:      ncpu,
		Benchtime:   benchtime.String(),
		Quick:       *quick,
	}
	nsByName := map[string]float64{}
	sessByName := map[string]float64{}
	for _, bm := range benches {
		r := measure(*benchtime, bm.body)
		nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
		nsByName[bm.name] = nsPerOp
		e := entry{
			Name:        bm.name,
			NsPerOp:     nsPerOp,
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Workers:     bm.workers,
			Iterations:  r.N,
		}
		if base := baselinesNs[bm.name]; base > 0 && !*quick {
			e.BaselineNsOp = base
			e.SpeedupVsSeed = base / nsPerOp
		}
		if peer, ok := serialPeer[bm.name]; ok {
			if serial := nsByName[peer]; serial > 0 {
				e.ParallelSpeedup = serial / nsPerOp
			}
		}
		if peer, ok := nilPeer[bm.name]; ok {
			if nil0 := nsByName[peer]; nil0 > 0 {
				e.OverheadVsNil = nsPerOp/nil0 - 1
			}
		}
		cores := bm.workers
		if cores < 1 {
			cores = 1
		}
		if bm.frames > 0 {
			e.FramesPerSecPerCore = bm.frames * 1e9 / nsPerOp / float64(cores)
		}
		if bm.sessions > 0 {
			e.SessionsPerSec = bm.sessions * 1e9 / nsPerOp
			e.SessionsPerSecPerCore = e.SessionsPerSec / float64(cores)
			sessByName[bm.name] = e.SessionsPerSec
		}
		if peer, ok := arenaPeer[bm.name]; ok {
			if fresh := nsByName[peer]; fresh > 0 {
				e.ArenaSpeedup = fresh / nsPerOp
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
		fmt.Printf("%-29s %12.0f ns/op  %8d B/op  %5d allocs/op", bm.name, nsPerOp, e.BytesPerOp, e.AllocsPerOp)
		if e.SpeedupVsSeed > 0 {
			fmt.Printf("  %.2fx vs baseline", e.SpeedupVsSeed)
		}
		if e.ParallelSpeedup > 0 {
			fmt.Printf("  %.2fx vs serial (%d workers)", e.ParallelSpeedup, e.Workers)
		}
		if _, ok := nilPeer[bm.name]; ok {
			fmt.Printf("  %+.1f%% vs nil twin", e.OverheadVsNil*100)
		}
		if e.ArenaSpeedup > 0 {
			fmt.Printf("  %.2fx vs fresh twin", e.ArenaSpeedup)
		}
		fmt.Println()
	}

	// Speedup curves: each parallel twin swept over the worker counts. The
	// workers=1 point reuses the serial twin's measurement, and a point
	// matching the parallel twin's worker count reuses that one, so a
	// curve costs at most two extra measurements per family.
	curveFamilies := []struct {
		name string
		body func(workers int) func(b *testing.B)
	}{
		{"fleet_sessions", fleetBody},
		{"fleet_sessions_arena", fleetArenaBody},
		{"fig4_montecarlo", mcBody},
		{"broadcast_fanout", bcastBody},
	}
	for _, fam := range curveFamilies {
		serial := nsByName[fam.name]
		c := speedupCurve{Name: fam.name}
		for _, w := range curveWorkers {
			var ns float64
			switch w {
			case 1:
				ns = serial
			case ncpu:
				ns = nsByName[fam.name+"_parallel"]
			}
			if ns == 0 {
				r := measure(*benchtime, fam.body(w))
				ns = float64(r.T.Nanoseconds()) / float64(r.N)
			}
			c.Points = append(c.Points, curvePoint{Workers: w, NsPerOp: ns, Speedup: serial / ns})
		}
		rep.SpeedupCurves = append(rep.SpeedupCurves, c)
		fmt.Printf("%-29s curve:", fam.name)
		for _, p := range c.Points {
			fmt.Printf("  %dw %.2fx", p.Workers, p.Speedup)
		}
		fmt.Println()
	}

	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fatal(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)

	if *history != "" {
		rec := bench.Record{
			SHA:            *sha,
			Stamp:          *stamp,
			GoVersion:      runtime.Version(),
			NumCPU:         ncpu,
			Quick:          *quick,
			NsPerOp:        nsByName,
			SessionsPerSec: sessByName,
		}
		if err := bench.Append(*history, rec); err != nil {
			fatal(err)
		}
		fmt.Printf("appended %s\n", *history)
	}
}

// measure runs the benchmark body under testing.Benchmark (which targets
// ~1 s per run) repeatedly until the requested benchtime is accumulated,
// then merges the runs into one result.
func measure(benchtime time.Duration, body func(b *testing.B)) testing.BenchmarkResult {
	var total testing.BenchmarkResult
	for total.T < benchtime {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			body(b)
		})
		total.N += r.N
		total.T += r.T
		total.MemAllocs += r.MemAllocs
		total.MemBytes += r.MemBytes
	}
	return total
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "phybench:", err)
	os.Exit(1)
}
