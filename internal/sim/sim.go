// Package sim runs complete SmartVLC sessions: it wires the ambient-light
// trace, the smart-lighting controller, the modulation scheme, the framer,
// the sample-level PHY and the ARQ MAC with its Wi-Fi side channel into a
// single deterministic time-driven simulation, and reports the metrics the
// paper's evaluation plots (per-second throughput, light intensity traces,
// cumulative adaptation counts).
package sim

import (
	"math"

	"smartvlc/internal/hw"
	"smartvlc/internal/light"
	"smartvlc/internal/mac"
	"smartvlc/internal/optics"
	"smartvlc/internal/photon"
	"smartvlc/internal/scheme"
	"smartvlc/internal/stats"
	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/agg"
	"smartvlc/internal/telemetry/flight"
	"smartvlc/internal/telemetry/health"
	"smartvlc/internal/telemetry/prof"
	"smartvlc/internal/telemetry/span"
	"smartvlc/internal/telemetry/vlog"
)

// Config describes one session.
type Config struct {
	// Scheme is the modulation under test.
	Scheme scheme.Scheme
	// Geometry is the TX→RX pose.
	Geometry optics.Geometry
	// Budget converts geometry and ambient into a detection channel.
	Budget photon.LinkBudget

	// FixedLevel runs the link at a constant dimming level (static
	// experiments). Used when Trace is nil.
	FixedLevel float64
	// AmbientLux is the constant ambient level for fixed-level runs.
	AmbientLux float64

	// Trace, when non-nil, drives smart-lighting adaptation: the LED level
	// follows TargetSum − ambient.
	Trace light.Trace
	// TargetSum is the desired total illumination in LED units.
	TargetSum float64
	// FullLEDLux converts the trace's lux to LED units.
	FullLEDLux float64
	// Stepper plans flicker-free level changes (default: perception-domain
	// τ_p = 0.003).
	Stepper light.Stepper

	// PayloadBytes is the application payload per frame (paper: 128).
	PayloadBytes int
	// Window is the ARQ window (frames in flight).
	Window int
	// AckTimeoutSeconds triggers retransmission.
	AckTimeoutSeconds float64
	// Side-channel (Wi-Fi uplink) parameters.
	SideLatencySeconds, SideJitterSeconds float64
	SideLossProb                          float64
	// UplinkVLCBitRate, when positive, replaces the Wi-Fi side channel
	// with a serialized VLC return link at this bit rate — the paper's
	// future-work configuration (§5 footnote 2) once mobile nodes carry
	// capable LEDs. Single link only: RunBroadcast rejects it.
	UplinkVLCBitRate float64
	// UplinkVLCRangeM is the VLC uplink's reach (0 selects 2.5 m); the
	// weak mobile-node LED is the reason the prototype used Wi-Fi.
	UplinkVLCRangeM float64
	// IdleGapSlots separates consecutive frames on air.
	IdleGapSlots int
	// Seed makes the session reproducible.
	Seed uint64

	// Telemetry, when non-nil, receives the session's metrics; Run leaves
	// a Snapshot in Result.Telemetry. Every value and exemplar timestamp
	// derives from the simulation, never from wall time, so two runs with
	// identical config and seed produce byte-identical snapshots. Nil (the default)
	// disables instrumentation at zero allocation cost on the hot paths.
	Telemetry *telemetry.Registry

	// Spans, when non-nil, collects the session's causal frame spans
	// (frame/build → tx → channel → hunt → decode → mac/ack, with
	// retransmissions chained parent→child); Run leaves a snapshot in
	// Result.Spans. Like Telemetry, all span times are simulation time
	// and nil is the zero-cost default.
	Spans *span.Collector
	// Flight, when non-nil, arms the anomaly flight recorder: recent
	// frames (slot waveform + receive window) are ringed and dumped as a
	// diagnostic bundle on a decode failure, a hunt miss, a symbol-error
	// burst or an ACK timeout. Arming Flight without Spans uses an
	// internal span collector so bundles still carry the frame trees.
	// Single link only: RunBroadcast rejects it, and RunFleet rejects a
	// recorder shared by two configs.
	Flight *flight.Recorder

	// Prof, when non-nil, arms the deterministic stage profiler: sim-domain
	// cost counters (frames, samples, slots, symbols, bytes, scratch
	// growth) accumulate per stage×scheme×level, Run leaves a snapshot in
	// Result.Prof, and the totals are mirrored into Config.Telemetry as
	// prof_*_total counters just before the registry snapshot, so fleet
	// aggregation inherits stage costs through telemetry.Merge. When armed,
	// the session loop also runs under pprof goroutine labels
	// (session/scheme/level) so wall-clock CPU profiles attribute to the
	// same dimensions. All costs are commuting integer adds, so snapshots
	// are byte-identical per (seed, config) for any worker count. Nil (the
	// default) costs one nil check per instrumentation point and zero
	// allocations.
	Prof *prof.Profiler

	// Logs, when non-nil, collects the session's structured log records —
	// the narrative of what the link decided: phy hunt/decode outcomes,
	// mac ACK/retransmit/window events, dimming adjustments, SLO
	// transitions with burn-rate context, flight-recorder triggers and
	// arena scratch growth. Run leaves a snapshot in Result.Logs. Like
	// every other pillar, all record times are simulation time, receiver-
	// side records are rendered from the receivers' events in shard order,
	// and nil is the zero-cost default (one branch per call site, zero
	// allocations).
	Logs *vlog.Logger

	// Health, when non-nil, attaches a link-health monitor: windowed
	// time-series buckets on the simulation clock plus SLO burn-rate
	// alerting; Run leaves the final snapshot in Result.Health. The config
	// is copied per session (safe to share across a fleet); its
	// TSlotSeconds and Registry default to the session's slot clock and
	// Config.Telemetry. When Flight is also armed, every SLO transition to
	// critical triggers a flight-recorder bundle with reason
	// "slo_<objective>". Nil (the default) costs nothing.
	Health *health.Config

	// Watch, when non-nil, streams the session's telemetry deltas into a
	// fleet aggregator while the session runs: the run loop flushes
	// Registry.Delta at every sim-clock window boundary and delivers the
	// final partial window at session end. Requires Telemetry (Run errors
	// otherwise). Flush times are pure functions of the sim clock, so the
	// aggregator's sealed windows are byte-identical per (seed, config)
	// for any worker count. Nil (the default) costs one nil check per
	// frame boundary. RunBroadcast rejects it.
	Watch *agg.Feed
}

// DefaultConfig returns the paper's evaluation settings for a scheme:
// 3 m on-axis link, 128-byte payloads, static office ambient.
func DefaultConfig(s scheme.Scheme) Config {
	return Config{
		Scheme:             s,
		Geometry:           optics.Aligned(3.0, 0),
		Budget:             photon.DefaultLinkBudget(),
		FixedLevel:         0.5,
		AmbientLux:         8000,
		TargetSum:          1.0,
		FullLEDLux:         500,
		Stepper:            light.PerceivedStepper{TauP: light.DefaultTauP},
		PayloadBytes:       128,
		Window:             8,
		AckTimeoutSeconds:  0.25,
		SideLatencySeconds: 0.003,
		SideJitterSeconds:  0.002,
		SideLossProb:       0.01,
		IdleGapSlots:       24,
		Seed:               1,
	}
}

// Result aggregates a session's outcome.
type Result struct {
	// Duration is the simulated air time in seconds.
	Duration float64
	// GoodputBps is acknowledged unique payload bits per second — the
	// throughput the paper reports.
	GoodputBps float64
	// FramesSent, FramesOK, FramesBad count transmissions and receiver
	// outcomes; Retransmits counts ARQ repeats.
	FramesSent, FramesOK, FramesBad, Retransmits int
	// SymbolErrors sums abnormal constituent symbols in accepted frames.
	SymbolErrors int
	// Adjustments is the cumulative count of LED brightness steps.
	Adjustments int

	// Throughput is the per-second goodput series (paper Fig. 19a).
	Throughput stats.Series
	// Ambient, LED and Sum are normalized intensity series (Fig. 19b).
	Ambient, LED, Sum stats.Series
	// AdjustCum is the cumulative adjustment count over time (Fig. 19c).
	AdjustCum stats.Series

	// Telemetry is the session's metric snapshot when Config.Telemetry was
	// set, nil otherwise.
	Telemetry *telemetry.Snapshot
	// Spans is the session's span snapshot when Config.Spans was set, nil
	// otherwise.
	Spans *span.Snapshot
	// Health is the session's health snapshot (windowed series, SLO
	// attainment, alert transitions) when Config.Health was set, nil
	// otherwise.
	Health *health.Snapshot
	// Prof is the session's stage-cost snapshot when Config.Prof was set,
	// nil otherwise.
	Prof *prof.Snapshot
	// Logs is the session's structured log snapshot when Config.Logs was
	// set, nil otherwise.
	Logs *vlog.Snapshot
}

// Run simulates a session for the given air-time duration. When the
// stage profiler is armed the session body executes under pprof
// goroutine labels (session = seed, scheme) so wall-clock CPU profiles
// line up with the deterministic stage profile; the profiling-off path
// adds nothing.
//
// Run allocates the session's working state fresh; Arena.Run rents it
// from a warm arena instead, with byte-identical results. Both paths
// share one implementation — a fresh run is simply a run out of an empty
// arena.
func Run(cfg Config, duration float64) (Result, error) {
	return NewArena().Run(cfg, duration)
}

// run is Run's policy on the shared session engine: one receiver shard
// at cfg.Geometry. The dimming controller follows the transmitter's own
// OPT101 reading, overridden by the receiver's ambient reports while
// they are fresh; a frame counts once its receiver acknowledges it; and
// decode failures, hunt misses, symbol-error bursts, ACK timeouts and
// critical SLO transitions trigger flight-recorder bundles.
func run(cfg Config, duration float64, a *Arena) (Result, error) {
	s, err := a.open(cfg, duration, singleMode, []ReceiverPose{{Geometry: cfg.Geometry}}, 1)
	if err != nil {
		return Result{}, err
	}
	defer s.close()
	sh := s.shards[0]
	sensor := a.rentSensor(hw.OPT101())

	var res Result
	deliveredAt := a.deliveredAt[:0] // ack times for the per-second series
	lastRecord := -1.0
	const recordEvery = 0.25
	ack := func(m mac.Message) {
		lat, known := s.sender.OnAckAt(m.Seq, m.At)
		s.emit(&record{kind: recAck, at: m.At, seq: m.Seq, latency: lat, ok: known, shard: 0})
	}

	// Latest ambient report received from the receiver over the Wi-Fi
	// side channel (paper Fig. 2). The transmitter prefers it over its
	// own (OPT101) reading because the receiver sits in the area of
	// interest; it falls back to local sensing when reports go stale.
	// Reports carry photon noise, so the firmware averages them over
	// ~0.3 s before they drive the dimming controller — the controller's
	// step is only ~0.005, far below the raw report jitter.
	remoteLux, remoteAt := 0.0, -1.0

	for s.now < duration {
		lux, err := s.tick()
		if err != nil {
			return Result{}, err
		}
		ambientNorm := light.Normalize(lux, cfg.FullLEDLux)
		src := sensor.Step(ambientNorm, 0.01)
		if remoteAt >= 0 && s.now-remoteAt < 0.5 {
			src = light.Normalize(remoteLux, cfg.FullLEDLux)
		}
		s.adapt(src, 0.3)

		if s.now-lastRecord >= recordEvery {
			lastRecord = s.now
			res.Ambient.Add(s.now, ambientNorm)
			res.LED.Add(s.now, s.level)
			res.Sum.Add(s.now, ambientNorm+s.level)
			adj := 0
			if s.controller != nil {
				adj = s.controller.Adjustments()
			}
			res.AdjustCum.Add(s.now, float64(adj))
		}

		for _, m := range s.side.Receive(s.now) {
			switch m.Kind {
			case mac.KindAck:
				ack(m)
			case mac.KindAmbientReport:
				remoteLux, remoteAt = m.Lux, m.At
			}
		}

		seq, body, ok := s.next()
		if !ok {
			// Window full: the LED idles at the dimming level.
			s.now += cfg.AckTimeoutSeconds / 8
			continue
		}
		end, err := s.transmit(seq, body)
		if err != nil {
			return Result{}, err
		}
		out := &sh.out
		res.FramesOK += out.stats.FramesOK
		res.FramesBad += out.stats.FramesBad
		res.SymbolErrors += out.stats.SymbolErrors
		for range out.newSeqs {
			deliveredAt = append(deliveredAt, end)
		}
		if err := s.merge(0, end, nil); err != nil {
			return Result{}, err
		}
		s.now = end
	}

	// Drain trailing acks so goodput reflects everything delivered.
	for _, m := range s.side.Receive(s.now + 1) {
		if m.Kind == mac.KindAck {
			ack(m)
		}
	}
	a.deliveredAt = deliveredAt

	now := s.now
	res.Duration = now
	res.FramesSent = s.sender.FramesSent()
	res.Retransmits = s.sender.Retransmits()
	res.GoodputBps = float64(s.sender.AckedPayload()) * 8 / now
	if s.controller != nil {
		res.Adjustments = s.controller.Adjustments()
	}
	res.Throughput = throughputSeries(deliveredAt, cfg.PayloadBytes, now)
	res.Telemetry, res.Spans, res.Prof, res.Logs, err = s.finish(&record{kind: recEnd, at: now, goodput: res.GoodputBps, tally: []tally{
		{"frames_ok", res.FramesOK}, {"frames_bad", res.FramesBad}, {"retransmits", res.Retransmits},
	}})
	if err != nil {
		return Result{}, err
	}
	res.Health = sh.health
	return res, nil
}

// throughputSeries buckets delivery events into one-second bins, the way
// the paper's prototype "reports the average throughput every second".
func throughputSeries(deliveredAt []float64, payloadBytes int, duration float64) stats.Series {
	s := stats.Series{Name: "throughput_bps"}
	nBins := int(math.Ceil(duration))
	if nBins == 0 {
		return s
	}
	bins := make([]float64, nBins)
	for _, t := range deliveredAt {
		b := int(t)
		if b >= nBins {
			b = nBins - 1
		}
		bins[b] += float64(payloadBytes) * 8
	}
	for i, v := range bins {
		s.Add(float64(i), v)
	}
	return s
}
