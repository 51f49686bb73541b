// Command smartvlc-sim runs one end-to-end SmartVLC link session — or a
// fleet of them — over the simulated optical channel and prints a
// throughput/reliability report.
//
// Usage examples:
//
//	smartvlc-sim -scheme amppm -level 0.3 -distance 3 -seconds 2
//	smartvlc-sim -scheme ookct -level 0.1 -ambient 9000
//	smartvlc-sim -scheme amppm -dynamic -seconds 30
//	smartvlc-sim -sessions 8 -workers 4 -seconds 0.5
//
// With -sessions N > 1 the command runs N independent sessions (seeds
// seed, seed+1, …) across -workers goroutines and reports aggregate
// throughput plus the sessions/sec wall-clock rate; the metrics flags
// then export the merged fleet snapshot. Results are byte-identical for
// every -workers value.
//
// With -dynamic the session replays the paper's blind-pull scenario: the
// ambient light ramps up while the LED adapts to keep the room constant.
//
// Telemetry: -metrics-out FILE writes the session's deterministic metrics
// snapshot as JSON ("-" for stdout, or a .prom suffix for Prometheus text
// exposition); -metrics-addr HOST:PORT additionally serves the snapshot
// over HTTP at /metrics (Prometheus) and /metrics.json after the run.
//
// Tracing: -trace-out FILE writes the session's causal frame spans as a
// Chrome trace_event file (open it in Perfetto or chrome://tracing); with
// -metrics-addr the same trace is served at /trace. -flight-dir DIR arms
// the anomaly flight recorder — decode failures, hunt misses and ACK
// timeouts dump diagnostic bundles there (inspect with vlctrace bundle).
// In fleet mode, -trace-dir DIR writes one span snapshot and one Chrome
// trace per session.
//
// Link health: -health-out FILE writes the run's link-health snapshot
// (sim-clock time-series plus SLO attainment; "-" for stdout) — feed it
// to vlctop. With -metrics-addr the same snapshot is served at /health
// (JSON) and /health/stream (NDJSON). In fleet mode the per-session
// series merge deterministically.
//
// Cost attribution: -prof-out FILE writes the run's deterministic stage
// profile — per-stage sim-domain cost counters (samples, slots, symbols,
// bytes, scratch growth) keyed by stage × scheme × dimming level × shard
// — as canonical JSON ("-" for stdout); analyze or diff it with vlcprof.
// -prof-folded FILE writes the same profile as folded stacks for flame
// graphs (-prof-metric picks the cost dimension, default samples). In
// fleet mode the per-session profiles merge deterministically. With
// -metrics-addr the profile is served at /prof and /prof/folded, and
// /metrics.om serves the OpenMetrics exposition where histogram
// exemplars ride along.
//
// Structured logs: -log-out FILE writes the run's deterministic log
// snapshot as NDJSON, one span-correlated record per line ("-" for
// stdout); tail, filter and join it with vlclog. -log-level sets the
// minimum severity recorded (default info). With -metrics-addr the same
// snapshot is served at /logs (JSON) and /logs/stream (NDJSON). In fleet
// mode the per-session logs concatenate in config order. A flight bundle
// (see -flight-dir) additionally keeps the log tail leading up to its
// trigger as logs.ndjson.
//
// Fleet watch: with -sessions N > 1, -fleet-watch streams fleet
// aggregation while the sessions run — per-session telemetry deltas fold
// into windowed rollups (-fleet-window sets the sim-clock window width)
// and deterministic worst-sessions tables (worst SER, worst ARQ burn
// rate, slowest ACK p95). With -metrics-addr, /fleet (JSON) and
// /fleet/stream (NDJSON) serve the live view mid-run and keep serving
// the final state after the run; vlctop -fleet renders either. -agg-out
// FILE writes the final snapshot ("-" for stdout). Live or final, the
// aggregate is byte-identical for every -workers value.
//
// Profiling: -pprof-addr HOST:PORT serves /debug/pprof on its own
// address (never on the metrics port); the simulation runs under pprof
// labels (session/stage/scheme/level), so CPU profiles slice by the same
// dimensions as the stage profile. -runtime-metrics appends Go runtime
// gauges (GC pause p99, scheduler latency p99, heap goal) to the
// /metrics exposition at scrape time (they stay out of the canonical
// -metrics-out files).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"smartvlc"
	"smartvlc/internal/stats"
)

func main() {
	schemeName := flag.String("scheme", "amppm", "modulation scheme: amppm, ookct, mppm, vppm")
	level := flag.Float64("level", 0.5, "dimming level (static runs)")
	distance := flag.Float64("distance", 3.0, "link distance in meters")
	angle := flag.Float64("angle", 0, "incidence angle in degrees")
	ambient := flag.Float64("ambient", 8000, "ambient illuminance in lux (static runs)")
	payload := flag.Int("payload", 128, "application payload bytes per frame")
	seconds := flag.Float64("seconds", 2.0, "simulated air time")
	dynamic := flag.Bool("dynamic", false, "run the dynamic blind-pull scenario instead of a static level")
	seed := flag.Uint64("seed", 1, "simulation seed (fleet sessions use seed, seed+1, ...)")
	sessions := flag.Int("sessions", 1, "number of independent sessions to run as a fleet")
	workers := flag.Int("workers", 0, "goroutines for the fleet (0 = GOMAXPROCS)")
	fleetRepeat := flag.Int("fleet-repeat", 1, "run the fleet N times on a persistent session-arena pool and report cold vs warm sessions/sec (outputs come from the final repeat)")
	fleetWatch := flag.Bool("fleet-watch", false, "stream fleet aggregation while the fleet runs: with -metrics-addr, /fleet and /fleet/stream serve live rollups and worst-sessions tables mid-run")
	fleetWindow := flag.Float64("fleet-window", 0.1, "fleet aggregation window width in simulated seconds")
	aggOut := flag.String("agg-out", "", "write the final fleet aggregation snapshot to FILE as canonical JSON (\"-\" for stdout; render with vlctop -fleet)")
	metricsOut := flag.String("metrics-out", "", "write the telemetry snapshot to FILE (\"-\" for stdout; .prom suffix selects Prometheus text format)")
	metricsAddr := flag.String("metrics-addr", "", "serve the snapshot over HTTP at this address after the run (/metrics, /metrics.json, /trace)")
	traceOut := flag.String("trace-out", "", "write the session's frame spans to FILE as a Chrome trace_event JSON (Perfetto-loadable)")
	traceDir := flag.String("trace-dir", "", "fleet mode: write per-session span snapshots and Chrome traces into DIR")
	flightDir := flag.String("flight-dir", "", "arm the anomaly flight recorder, writing diagnostic bundles into DIR")
	healthOut := flag.String("health-out", "", "write the link-health snapshot to FILE (\"-\" for stdout; analyze with vlctop)")
	profOut := flag.String("prof-out", "", "write the stage profile to FILE as canonical JSON (\"-\" for stdout; analyze with vlcprof)")
	profFolded := flag.String("prof-folded", "", "write the stage profile to FILE as folded stacks (flame-graph input)")
	profMetric := flag.String("prof-metric", "samples", "cost dimension for -prof-folded: ops, samples, slots, symbols, bytes, allocs")
	logOut := flag.String("log-out", "", "write the structured log snapshot to FILE as NDJSON (\"-\" for stdout; analyze with vlclog)")
	logLevel := flag.String("log-level", "info", "minimum severity recorded: debug, info, warn, error")
	pprofAddr := flag.String("pprof-addr", "", "serve /debug/pprof on this address (separate from -metrics-addr)")
	runtimeMetrics := flag.Bool("runtime-metrics", false, "append Go runtime gauges to the /metrics exposition (scrape-time only)")
	flag.Parse()

	if *pprofAddr != "" {
		defer shutdown(servePprof(*pprofAddr))
	}

	var sch smartvlc.Scheme
	var err error
	switch strings.ToLower(*schemeName) {
	case "amppm":
		sch, err = smartvlc.NewAMPPMScheme(smartvlc.DefaultConstraints())
	case "ookct", "ook-ct":
		sch = smartvlc.NewOOKCT()
	case "mppm":
		sch, err = smartvlc.NewMPPM(20)
	case "vppm":
		sch = smartvlc.NewVPPM()
	default:
		err = fmt.Errorf("unknown scheme %q", *schemeName)
	}
	if err != nil {
		fatal(err)
	}

	cfg := smartvlc.DefaultSessionConfig(sch)
	cfg.Geometry = smartvlc.Aligned(*distance, *angle)
	cfg.FixedLevel = *level
	cfg.AmbientLux = *ambient
	cfg.PayloadBytes = *payload
	cfg.Seed = *seed
	if *dynamic {
		cfg.Trace = smartvlc.BlindPull(50, 450, *seconds)
		cfg.FullLEDLux = 500
		cfg.Stepper = smartvlc.PerceivedStepper
	}
	wantMetrics := *metricsOut != "" || *metricsAddr != ""
	wantSpans := *traceOut != "" || *metricsAddr != ""
	wantHealth := *healthOut != "" || *metricsAddr != ""
	wantProf := *profOut != "" || *profFolded != "" || *metricsAddr != ""
	wantLogs := *logOut != "" || *metricsAddr != "" || *flightDir != ""
	foldMetric, err := parseProfMetric(*profMetric)
	if err != nil {
		fatal(err)
	}
	minLevel, levelOK := smartvlc.ParseLogLevel(*logLevel)
	if !levelOK {
		fatal(fmt.Errorf("unknown log level %q (want debug, info, warn or error)", *logLevel))
	}
	if wantHealth {
		cfg.Health = &smartvlc.HealthConfig{Objectives: smartvlc.DefaultHealthObjectives()}
	}
	if (*fleetWatch || *aggOut != "") && *sessions <= 1 {
		fatal(fmt.Errorf("-fleet-watch and -agg-out aggregate a fleet; run with -sessions N > 1"))
	}

	if *sessions > 1 {
		runFleet(cfg, sch, *sessions, *workers, *fleetRepeat, *seconds, fleetOut{
			wantMetrics:    wantMetrics,
			wantProf:       wantProf,
			wantLogs:       wantLogs,
			logLevel:       minLevel,
			logOut:         *logOut,
			metricsOut:     *metricsOut,
			metricsAddr:    *metricsAddr,
			traceDir:       *traceDir,
			healthOut:      *healthOut,
			profOut:        *profOut,
			profFolded:     *profFolded,
			profMetric:     foldMetric,
			watch:          *fleetWatch,
			window:         *fleetWindow,
			aggOut:         *aggOut,
			runtimeMetrics: *runtimeMetrics,
		})
		return
	}
	if wantMetrics {
		cfg.Telemetry = smartvlc.NewTelemetry()
	}
	if wantProf {
		cfg.Prof = smartvlc.NewProfiler()
	}
	if wantSpans {
		cfg.Spans = smartvlc.NewSpanCollector()
	}
	if wantLogs {
		cfg.Logs = smartvlc.NewLogger(minLevel)
	}
	var flightRec *smartvlc.FlightRecorder
	if *flightDir != "" {
		flightRec, err = smartvlc.NewFlightRecorder(smartvlc.FlightConfig{Dir: *flightDir})
		if err != nil {
			fatal(err)
		}
		cfg.Flight = flightRec
	}

	res, err := smartvlc.RunSession(cfg, *seconds)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("scheme      : %s\n", sch.Name())
	fmt.Printf("geometry    : %.2f m @ %.1f°\n", *distance, *angle)
	if *dynamic {
		fmt.Printf("scenario    : dynamic blind pull over %.0f s\n", *seconds)
	} else {
		fmt.Printf("scenario    : static level %.3f, ambient %.0f lux\n", *level, *ambient)
	}
	fmt.Printf("goodput     : %.1f kbps\n", res.GoodputBps/1000)
	fmt.Printf("frames      : sent=%d ok=%d bad=%d retransmits=%d\n",
		res.FramesSent, res.FramesOK, res.FramesBad, res.Retransmits)
	if res.Health != nil {
		fmt.Printf("health      : %s (%d transitions)\n", res.Health.State, len(res.Health.Transitions))
	}
	if *dynamic {
		fmt.Printf("adaptations : %d brightness steps\n", res.Adjustments)
		fmt.Printf("throughput  : %s\n", stats.Sparkline(res.Throughput.Values()))
		fmt.Printf("ambient     : %s\n", stats.Sparkline(res.Ambient.Values()))
		fmt.Printf("led         : %s\n", stats.Sparkline(res.LED.Values()))
		fmt.Printf("sum         : %s\n", stats.Sparkline(res.Sum.Values()))
		sum := stats.Summarize(res.Sum.Values())
		fmt.Printf("sum stats   : mean=%.3f std=%.3f (constant-illumination check)\n", sum.Mean, sum.Std)
	}

	if *traceOut != "" {
		if err := writeTrace(*traceOut, res.Spans); err != nil {
			fatal(err)
		}
	}
	if flightRec != nil {
		bundles := flightRec.Bundles()
		fmt.Printf("flight      : %d triggers, %d bundles\n", flightRec.Triggers(), len(bundles))
		for _, b := range bundles {
			fmt.Printf("              %s\n", b)
		}
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, cfg.Telemetry, res.Telemetry); err != nil {
			fatal(err)
		}
	}
	if *healthOut != "" {
		if err := writeHealth(*healthOut, res.Health); err != nil {
			fatal(err)
		}
	}
	if err := writeProf(*profOut, *profFolded, foldMetric, res.Prof); err != nil {
		fatal(err)
	}
	if *logOut != "" {
		if err := writeLogs(*logOut, res.Logs); err != nil {
			fatal(err)
		}
	}
	if *metricsAddr != "" {
		serve(*metricsAddr, serveOpts{
			reg: cfg.Telemetry, snap: res.Telemetry, spans: res.Spans,
			health: res.Health, prof: res.Prof, logs: res.Logs,
			runtimeMetrics: *runtimeMetrics,
		})
	}
}

// parseProfMetric validates a profile cost-dimension name from a flag or
// query parameter.
func parseProfMetric(name string) (smartvlc.ProfMetric, error) {
	for _, m := range []smartvlc.ProfMetric{
		smartvlc.ProfOps, smartvlc.ProfSamples, smartvlc.ProfSlots,
		smartvlc.ProfSymbols, smartvlc.ProfBytes, smartvlc.ProfAllocs,
	} {
		if string(m) == name {
			return m, nil
		}
	}
	return "", fmt.Errorf("unknown profile metric %q (want ops, samples, slots, symbols, bytes or allocs)", name)
}

// writeProf exports a stage profile as canonical JSON (jsonPath) and/or
// folded stacks (foldedPath), "-" meaning stdout for either. An empty
// path skips that format; a nil snapshot (profiler never armed) writes
// an empty profile so downstream tooling sees valid input either way.
func writeProf(jsonPath, foldedPath string, m smartvlc.ProfMetric, snap *smartvlc.ProfSnapshot) error {
	if jsonPath == "" && foldedPath == "" {
		return nil
	}
	if snap == nil {
		snap = &smartvlc.ProfSnapshot{}
	}
	if jsonPath != "" {
		out, err := snap.JSON()
		if err != nil {
			return err
		}
		if jsonPath == "-" {
			if _, err := os.Stdout.Write(out); err != nil {
				return err
			}
		} else if err := os.WriteFile(jsonPath, out, 0o644); err != nil {
			return err
		}
	}
	if foldedPath == "" {
		return nil
	}
	if foldedPath == "-" {
		return snap.WriteFolded(os.Stdout, m)
	}
	f, err := os.Create(foldedPath)
	if err != nil {
		return err
	}
	if err := snap.WriteFolded(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace exports a span snapshot as a Chrome trace_event file.
func writeTrace(path string, snap *smartvlc.SpanSnapshot) error {
	if snap == nil {
		snap = &smartvlc.SpanSnapshot{}
	}
	if path == "-" {
		return snap.WriteChromeTrace(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fleetOut bundles the fleet mode's output destinations.
type fleetOut struct {
	wantMetrics    bool
	wantProf       bool
	wantLogs       bool
	logLevel       smartvlc.LogLevel
	logOut         string
	metricsOut     string
	metricsAddr    string
	traceDir       string
	healthOut      string
	profOut        string
	profFolded     string
	profMetric     smartvlc.ProfMetric
	watch          bool
	window         float64
	aggOut         string
	runtimeMetrics bool
}

// runFleet runs the multi-session mode: n sessions with seeds seed,
// seed+1, ..., each on its own registry when metrics were requested, and
// reports the aggregate plus the wall-clock sessions/sec rate. With
// repeat > 1 the fleet runs that many times against one persistent
// session-arena pool — later repeats rent warm per-worker arenas, so the
// cold/warm rate split isolates the allocation cost of session setup.
// Registries are stateful, so each repeat builds fresh configs; results
// are byte-identical across repeats by the arena contract, and the
// printed aggregates come from the final (warmest) repeat.
func runFleet(base smartvlc.SessionConfig, sch smartvlc.Scheme, n, workers, repeat int, seconds float64, out fleetOut) {
	if repeat < 1 {
		repeat = 1
	}
	wantAgg := out.watch || out.aggOut != ""
	// Registries and aggregators are stateful, so each repeat builds both
	// fresh; the aggregator comes back so the repeat loop can publish it
	// to the live endpoints.
	mkCfgs := func() ([]smartvlc.SessionConfig, *smartvlc.FleetAggregator) {
		var fa *smartvlc.FleetAggregator
		if wantAgg {
			var err error
			fa, err = smartvlc.NewFleetAggregator(smartvlc.FleetAggConfig{WindowSeconds: out.window}, n)
			if err != nil {
				fatal(err)
			}
		}
		cfgs := make([]smartvlc.SessionConfig, n)
		for i := range cfgs {
			cfg := base
			cfg.Seed = base.Seed + uint64(i)
			if out.wantMetrics || wantAgg { // the watch feed streams registry deltas
				cfg.Telemetry = smartvlc.NewTelemetry()
			}
			if out.traceDir != "" {
				cfg.Spans = smartvlc.NewSpanCollector()
			}
			if out.wantProf {
				cfg.Prof = smartvlc.NewProfiler()
			}
			if out.wantLogs {
				cfg.Logs = smartvlc.NewLogger(out.logLevel)
			}
			if fa != nil {
				feed, err := fa.Feed(smartvlc.FleetSessionMeta{
					Index: i, Seed: cfg.Seed, Scheme: sch.Name(), PayloadBytes: cfg.PayloadBytes,
				})
				if err != nil {
					fatal(err)
				}
				cfg.Watch = feed
			}
			cfgs[i] = cfg
		}
		return cfgs, fa
	}

	// Live watch server: /fleet and /fleet/stream go up before the first
	// session starts, answering from whichever repeat's aggregator is
	// current; the remaining report routes join the same mux after the run.
	var liveAgg atomic.Pointer[smartvlc.FleetAggregator]
	var liveMux *http.ServeMux
	var live *http.Server
	if out.watch && out.metricsAddr != "" {
		liveMux = http.NewServeMux()
		addFleetRoutes(liveMux, func() *smartvlc.FleetAggSnapshot {
			if a := liveAgg.Load(); a != nil {
				return a.Snapshot()
			}
			return nil
		})
		ln, err := net.Listen("tcp", out.metricsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("fleet watch : serving live on http://%s/fleet and /fleet/stream\n", ln.Addr())
		live = newServer(out.metricsAddr, liveMux)
		go func() {
			if err := live.Serve(ln); err != http.ErrServerClosed {
				fatal(err)
			}
		}()
	}

	arenas := smartvlc.NewFleetArenas()
	var fl smartvlc.FleetResult
	var err error
	var coldWall, wall time.Duration
	for r := 0; r < repeat; r++ {
		cfgs, fa := mkCfgs()
		if fa != nil {
			liveAgg.Store(fa)
		}
		start := time.Now()
		fl, err = smartvlc.RunFleetArenas(arenas, cfgs, seconds, workers)
		if err != nil {
			fatal(err)
		}
		wall = time.Since(start)
		if r == 0 {
			coldWall = wall
		}
	}

	var goodput float64
	var sent, ok, bad int
	for _, r := range fl.Results {
		goodput += r.GoodputBps
		sent += r.FramesSent
		ok += r.FramesOK
		bad += r.FramesBad
	}
	fmt.Printf("scheme      : %s\n", sch.Name())
	fmt.Printf("fleet       : %d sessions x %.2f s simulated, %d workers\n", n, seconds, fl.Workers)
	rate := float64(n) / wall.Seconds()
	fmt.Printf("wall clock  : %.3f s (%.2f sessions/sec, %.2f sessions/sec/core)\n",
		wall.Seconds(), rate, rate/float64(fl.Workers))
	if repeat > 1 {
		fmt.Printf("arena warmup: cold %.2f sessions/sec -> warm %.2f sessions/sec over %d repeats\n",
			float64(n)/coldWall.Seconds(), rate, repeat)
	}
	fmt.Printf("goodput     : %.1f kbps mean per session (%.1f kbps aggregate)\n",
		goodput/float64(n)/1000, goodput/1000)
	fmt.Printf("frames      : sent=%d ok=%d bad=%d\n", sent, ok, bad)
	if fl.Health != nil {
		fmt.Printf("health      : %s across %d sessions (%d transitions)\n",
			fl.Health.State, fl.Health.Sessions, len(fl.Health.Transitions))
	}
	if fl.Agg != nil {
		fmt.Printf("fleet agg   : %d windows of %.3f s sealed\n", fl.Agg.SealedWindows, fl.Agg.WindowSeconds)
		if len(fl.Agg.TopSER) > 0 {
			w := fl.Agg.TopSER[0]
			fmt.Printf("worst ser   : session %d (seed %d) %.3g\n", w.Session, w.Seed, w.SER)
		}
		if len(fl.Agg.TopBurn) > 0 {
			w := fl.Agg.TopBurn[0]
			fmt.Printf("worst burn  : session %d (seed %d) %.3f timeouts/frame\n", w.Session, w.Seed, w.BurnRate)
		}
		if len(fl.Agg.TopAck) > 0 {
			w := fl.Agg.TopAck[0]
			fmt.Printf("slowest ack : session %d (seed %d) p95 %.1f ms\n", w.Session, w.Seed, w.AckP95*1000)
		}
	}

	if out.traceDir != "" {
		if err := fl.WriteSessionTraces(out.traceDir); err != nil {
			fatal(err)
		}
		fmt.Printf("traces      : %d sessions exported to %s\n", n, out.traceDir)
	}
	if out.metricsOut != "" {
		if err := writeMetrics(out.metricsOut, nil, fl.Telemetry); err != nil {
			fatal(err)
		}
	}
	if out.healthOut != "" {
		if err := writeHealth(out.healthOut, fl.Health); err != nil {
			fatal(err)
		}
	}
	if err := writeProf(out.profOut, out.profFolded, out.profMetric, fl.Prof); err != nil {
		fatal(err)
	}
	if out.logOut != "" {
		if err := writeLogs(out.logOut, fl.Logs); err != nil {
			fatal(err)
		}
	}
	if out.aggOut != "" {
		if err := writeAgg(out.aggOut, fl.Agg); err != nil {
			fatal(err)
		}
	}
	if out.metricsAddr == "" {
		return
	}
	final := serveOpts{
		snap: fl.Telemetry, health: fl.Health, prof: fl.Prof, logs: fl.Logs,
		runtimeMetrics: out.runtimeMetrics,
	}
	if liveMux != nil {
		// The live mux already owns /fleet and /fleet/stream (still backed
		// by the final repeat's aggregator); add the post-run report routes
		// to it and keep serving.
		addRoutes(liveMux, final)
		fmt.Printf("metrics     : serving on http://%s/metrics (ctrl-c to stop)\n", out.metricsAddr)
		ctx, stop := untilSignal()
		defer stop()
		<-ctx.Done()
		shutdown(live)
		return
	}
	if fl.Agg != nil {
		snap := fl.Agg
		final.agg = func() *smartvlc.FleetAggSnapshot { return snap }
	}
	serve(out.metricsAddr, final)
}

// writeAgg exports the fleet aggregation snapshot as canonical JSON
// ("-" for stdout) — vlctop -fleet's input. A nil snapshot writes an
// empty object so downstream tooling sees valid JSON either way.
func writeAgg(path string, snap *smartvlc.FleetAggSnapshot) error {
	out := []byte("{}\n")
	if snap != nil {
		var err error
		out, err = snap.JSON()
		if err != nil {
			return err
		}
	}
	if path == "-" {
		_, err := os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// writeMetrics exports a snapshot: Prometheus exposition when the path
// ends in .prom, canonical JSON otherwise. The registry supplies HELP
// text when available; a nil registry (the merged-fleet case) falls back
// to the snapshot's own exposition.
func writeMetrics(path string, reg *smartvlc.Telemetry, snap *smartvlc.TelemetrySnapshot) error {
	var out []byte
	if strings.HasSuffix(path, ".prom") {
		var sb strings.Builder
		if reg != nil {
			if err := reg.WritePrometheus(&sb); err != nil {
				return err
			}
		} else if err := snap.WritePrometheus(&sb, nil); err != nil {
			return err
		}
		out = []byte(sb.String())
	} else {
		var err error
		out, err = snap.JSON()
		if err != nil {
			return err
		}
	}
	if path == "-" {
		_, err := os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// writeLogs exports a log snapshot as NDJSON ("-" for stdout), the
// format vlclog tail consumes. A nil snapshot (logger never armed)
// writes an empty snapshot's lines — i.e. nothing — so piping stays
// safe either way.
func writeLogs(path string, snap *smartvlc.LogSnapshot) error {
	if snap == nil {
		snap = &smartvlc.LogSnapshot{}
	}
	out, err := snap.NDJSON()
	if err != nil {
		return err
	}
	if path == "-" {
		_, err := os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// writeHealth exports a health snapshot as canonical JSON ("-" for
// stdout). A nil snapshot writes an empty object so downstream tooling
// sees valid JSON either way.
func writeHealth(path string, snap *smartvlc.HealthSnapshot) error {
	out := []byte("{}\n")
	if snap != nil {
		var err error
		out, err = snap.JSON()
		if err != nil {
			return err
		}
	}
	if path == "-" {
		_, err := os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// serve blocks until SIGINT or SIGTERM, exposing the finished run's
// artifacts for scrapes — useful for pointing a Prometheus/Grafana dev
// stack (or vlctop) at a simulation — and then shuts the server down.
func serve(addr string, o serveOpts) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("metrics     : serving on http://%s/metrics (ctrl-c to stop)\n", addr)
	if o.health != nil {
		fmt.Printf("health      : http://%s/health and /health/stream\n", addr)
	}
	if o.logs != nil {
		fmt.Printf("logs        : http://%s/logs and /logs/stream\n", addr)
	}
	if o.agg != nil {
		fmt.Printf("fleet       : http://%s/fleet and /fleet/stream\n", addr)
	}
	ctx, stop := untilSignal()
	defer stop()
	if err := serveUntil(ctx, newServer(addr, buildMux(o)), ln); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smartvlc-sim:", err)
	os.Exit(1)
}
