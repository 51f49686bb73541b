// Package smartvlc is a full reimplementation of "SmartVLC: When Smart
// Lighting Meets VLC" (Wu, Wang, Xiong, Zuniga — CoNEXT 2017): a visible
// light communication system that maximizes throughput at every dimming
// level while the luminaire keeps the room's total illumination constant
// and flicker-free.
//
// The paper's hardware prototype (BeagleBone Black PRUs, MOSFET-driven
// Philips LED, photodiode receiver) is replaced by a calibrated slot-level
// simulation; see DESIGN.md for the substitution map. Everything above the
// photons is real: the AMPPM planner and codec, the baselines (OOK-CT,
// MPPM, VPPM), the frame format, the sample-domain receiver, the ARQ MAC
// with its Wi-Fi side channel, and the smart-lighting controller.
//
// # Quick start
//
//	sys, err := smartvlc.New(smartvlc.DefaultConstraints())
//	if err != nil { ... }
//	slots, err := sys.BuildFrame(0.37, []byte("hello"))   // dimming level 0.37
//	payload, err := sys.ParseFrame(slots)
//
// For end-to-end links over the simulated channel (noise, distance,
// ambient light, adaptation), use RunSession. For the paper's evaluation
// figures, see cmd/smartvlc-figures and internal/experiments.
package smartvlc

import (
	"math/rand/v2"
	"strconv"
	"sync"

	"smartvlc/internal/amppm"
	"smartvlc/internal/frame"
	"smartvlc/internal/light"
	"smartvlc/internal/mppm"
	"smartvlc/internal/optics"
	"smartvlc/internal/photon"
	"smartvlc/internal/phy"
	"smartvlc/internal/scheme"
	"smartvlc/internal/sim"
	"smartvlc/internal/stats"
	"smartvlc/internal/telemetry/span"
)

// Core planning types, re-exported from the implementation packages.
type (
	// Constraints are the link parameters that bound AMPPM's pattern
	// search: slot time, flicker threshold, slot error probabilities and
	// the SER bound.
	Constraints = amppm.Constraints
	// SuperSymbol is a multiplexed composition of two MPPM symbol
	// patterns (paper Fig. 7).
	SuperSymbol = amppm.SuperSymbol
	// Pattern is an MPPM symbol pattern S(N, l).
	Pattern = mppm.Pattern
	// Vertex is one point of the throughput envelope.
	Vertex = amppm.Vertex
	// Geometry is the transmitter→receiver pose.
	Geometry = optics.Geometry
	// Scheme is a dimmable modulation scheme (AMPPM or a baseline).
	Scheme = scheme.Scheme
	// SessionConfig configures an end-to-end simulated link session.
	SessionConfig = sim.Config
	// SessionResult carries a session's throughput and light series.
	SessionResult = sim.Result
	// BroadcastConfig configures a one-luminaire, many-receiver session.
	BroadcastConfig = sim.BroadcastConfig
	// ReceiverPose places one receiver of a broadcast session.
	ReceiverPose = sim.ReceiverPose
	// BroadcastResult carries a broadcast session's outcome.
	BroadcastResult = sim.BroadcastResult
	// FleetResult carries a multi-session fleet's per-session results and
	// merged telemetry.
	FleetResult = sim.FleetResult
	// Series is a named time series in session results.
	Series = stats.Series
	// Stepper plans flicker-free dimming transitions.
	Stepper = light.Stepper
	// Trace is a deterministic ambient-light time series.
	Trace = light.Trace
)

// DefaultConstraints returns the paper's prototype parameters: tslot =
// 8 µs (f_tx = 125 kHz), f_th = 250 Hz (Nmax = 500 slots), P1 = 9e-5,
// P2 = 8e-5.
func DefaultConstraints() Constraints { return amppm.DefaultConstraints() }

// S builds the pattern S(N, l) with K = round(l·N) ON slots.
func S(n int, level float64) Pattern { return mppm.S(n, level) }

// Aligned returns an on-axis geometry at distance d with both link angles
// equal to angleDeg.
func Aligned(distanceM, angleDeg float64) Geometry { return optics.Aligned(distanceM, angleDeg) }

// Scheme constructors for the paper's evaluation set.
var (
	// NewOOKCT returns the compensation-based baseline.
	NewOOKCT = func() Scheme { return scheme.NewOOKCT() }
	// NewVPPM returns the IEEE 802.15.7 VPPM baseline.
	NewVPPM = func() Scheme { return scheme.NewVPPM() }
)

// NewMPPM returns the compensation-free fixed-N baseline (the paper
// evaluates N = 20).
func NewMPPM(n int) (Scheme, error) { return scheme.NewMPPM(n) }

// NewOPPM returns the overlapping-PPM baseline from the paper's related
// work (reference [8]).
func NewOPPM(n int) (Scheme, error) { return scheme.NewOPPM(n) }

// NewAMPPMScheme returns AMPPM as a Scheme for use in SessionConfig.
func NewAMPPMScheme(cons Constraints) (Scheme, error) { return scheme.NewAMPPM(cons) }

// System is the high-level AMPPM transceiver facade: it owns the planning
// table derived from the link constraints and builds/parses frames at any
// supported dimming level. A System is safe for concurrent use.
type System struct {
	sch *scheme.AMPPM
	// factory is sch.Factory() captured once: building the closure per
	// Deliver call would put one allocation on the steady-state path.
	factory frame.CodecFactory

	// scratch pools the per-Deliver working set (rng + receiver) so the
	// steady state of DeliverInto allocates nothing.
	scratch sync.Pool

	// Telemetry instruments for the one-shot Deliver path; nil (the
	// default) is a no-op. Set via SetTelemetry (telemetry.go).
	reg *Telemetry
	txm *phy.TxMetrics
	rxm *phy.RxMetrics
	// spans collects causal spans for the one-shot Deliver path; nil (the
	// default) is a no-op. Set via SetSpans (telemetry.go).
	spans *SpanCollector
}

// deliverScratch is one pooled Deliver working set: a reseedable PCG rng
// and a pooled PHY receiver with its batch columns.
type deliverScratch struct {
	pcg *rand.PCG
	rng *rand.Rand
	rx  *phy.Receiver
}

// New derives the AMPPM planning table from the constraints (paper §4.2
// steps 1–3) and returns the system facade.
func New(cons Constraints) (*System, error) {
	sch, err := scheme.NewAMPPM(cons)
	if err != nil {
		return nil, err
	}
	return &System{sch: sch, factory: sch.Factory()}, nil
}

// Scheme returns the system as a Scheme for session configs.
func (s *System) Scheme() Scheme { return s.sch }

// PlanFor returns the throughput-optimal super-symbol for a target
// dimming level (paper §4.2 step 4).
func (s *System) PlanFor(level float64) (SuperSymbol, error) {
	return s.sch.Table().Select(level)
}

// LevelRange returns the supported dimming levels.
func (s *System) LevelRange() (lo, hi float64) { return s.sch.Table().LevelRange() }

// EnvelopeRateAt returns the normalized data rate (bits/slot) AMPPM
// achieves at a dimming level.
func (s *System) EnvelopeRateAt(level float64) float64 {
	return s.sch.Table().EnvelopeRateAt(level)
}

// Vertices returns the envelope vertices (do not modify).
func (s *System) Vertices() []Vertex { return s.sch.Table().Vertices() }

// DimmingResolution reports the worst-case dimming error over a sweep of
// n levels across the supported range.
func (s *System) DimmingResolution(n int) float64 { return s.sch.Table().Resolution(n) }

// Throughput returns the ideal PHY data rate (bit/s) at a dimming level:
// envelope rate × slot rate, before framing overhead and channel loss.
func (s *System) Throughput(level float64) float64 {
	return s.EnvelopeRateAt(level) * s.sch.Table().Constraints().TxHz()
}

// BuildFrame assembles one frame (paper Table 1: preamble, Manchester
// header, compensation, sync, AMPPM payload, CRC-16) as a slot waveform
// at the given dimming level.
func (s *System) BuildFrame(level float64, payload []byte) ([]bool, error) {
	codec, err := s.sch.CodecFor(level)
	if err != nil {
		return nil, err
	}
	return frame.Build(codec, payload)
}

// FrameSlots returns the total slot count of a frame carrying nbytes at
// the given level — the quantity throughput accounting needs.
func (s *System) FrameSlots(level float64, nbytes int) (int, error) {
	codec, err := s.sch.CodecFor(level)
	if err != nil {
		return 0, err
	}
	return frame.Slots(codec, nbytes), nil
}

// ParseFrame decodes a frame that starts at slots[0] and returns its
// payload. The dimming level and super-symbol pattern are recovered from
// the frame header, as in the paper's receiver.
func (s *System) ParseFrame(slots []bool) ([]byte, error) {
	res, err := frame.Parse(slots, s.factory)
	if err != nil {
		return nil, err
	}
	return res.Payload, nil
}

// DefaultSessionConfig returns the paper's evaluation settings (3 m
// on-axis link, 128-byte payloads, office ambient) for a scheme.
func DefaultSessionConfig(s Scheme) SessionConfig { return sim.DefaultConfig(s) }

// RunSession simulates an end-to-end link session — transmitter, optical
// channel, receiver, ARQ over the Wi-Fi side channel, and (when a Trace
// is configured) smart-lighting adaptation — for the given air time.
func RunSession(cfg SessionConfig, durationSeconds float64) (SessionResult, error) {
	return sim.Run(cfg, durationSeconds)
}

// RunBroadcast simulates a one-luminaire, many-receiver session with
// reliable multicast ARQ; the dimming controller follows the darkest desk
// so every receiver reaches the target illumination. Set cfg.Workers to
// spread the per-receiver PHY work of each frame window across
// goroutines; the result is byte-identical for every worker count.
func RunBroadcast(cfg BroadcastConfig, durationSeconds float64) (BroadcastResult, error) {
	return sim.RunBroadcast(cfg, durationSeconds)
}

// RunFleet runs one independent session per config across at most
// workers goroutines (workers < 1 selects GOMAXPROCS) and returns the
// results in config order together with a merged telemetry snapshot.
// Every per-session result — and the merged snapshot — is byte-identical
// for every worker count; see sim.RunFleet for the determinism contract.
func RunFleet(cfgs []SessionConfig, durationSeconds float64, workers int) (FleetResult, error) {
	return sim.RunFleet(cfgs, durationSeconds, workers)
}

// Arena is a reusable session arena: it owns everything a session
// allocates (PHY link/receiver state, MAC bookkeeping, codec caches,
// scratch buffers), so repeated sessions rent warm state instead of
// reallocating it. Arena.Run and Arena.RunBroadcast are byte-identical
// to RunSession and RunBroadcast — results, telemetry, spans, health and
// prof snapshots alike; only the allocation cost changes. An arena
// serves one session at a time and is not safe for concurrent use.
type Arena = sim.Arena

// NewArena returns an empty session arena; it warms up as it serves
// sessions.
func NewArena() *Arena { return sim.NewArena() }

// FleetArenas is a concurrency-safe pool of session arenas for
// RunFleetArenas: keep one pool alive across repeated fleets and the
// steady-state per-session allocation approaches zero.
type FleetArenas = sim.FleetArenas

// NewFleetArenas returns an empty arena pool.
func NewFleetArenas() *FleetArenas { return sim.NewFleetArenas() }

// RunFleetArenas is RunFleet renting one warm session arena per worker
// from the pool. Results are byte-identical to RunFleet; a persistent
// pool amortizes session setup across calls.
func RunFleetArenas(arenas *FleetArenas, cfgs []SessionConfig, durationSeconds float64, workers int) (FleetResult, error) {
	return sim.RunFleetArenas(arenas, cfgs, durationSeconds, workers)
}

// Steppers for SessionConfig (paper Fig. 19c comparison).
var (
	// PerceivedStepper is SmartVLC's adaptation: fixed steps in the
	// perceived domain.
	PerceivedStepper Stepper = light.PerceivedStepper{TauP: light.DefaultTauP}
	// MeasuredStepper is the baseline: the largest fixed measured-domain
	// step that is safe across the paper's operating range.
	MeasuredStepper Stepper = light.SafeMeasuredStepper(light.DefaultTauP, 0.1)
)

// BlindPull returns the paper's dynamic ambient trace: the motorized
// window blind opening at constant speed over the given duration.
func BlindPull(startLux, endLux, durationSeconds float64) Trace {
	return light.BlindPull{StartLux: startLux, EndLux: endLux, Duration: durationSeconds, WobbleFraction: 0.05}
}

// StaticAmbient returns a constant ambient trace.
func StaticAmbient(lux float64) Trace { return light.Static{Lux: lux} }

// CloudyAmbient returns a sunny baseline with deterministic passing
// clouds (the paper's motivating fast-changing Dutch sky).
func CloudyAmbient(baseLux, dipFraction, periodSeconds float64) Trace {
	return light.Clouds{BaseLux: baseLux, DipFraction: dipFraction, PeriodSeconds: periodSeconds}
}

// DayCycleAmbient returns a dawn-to-dusk trace with optional clouds; pass
// a zero cloud period for a clear day.
func DayCycleAmbient(peakLux, dayLengthSeconds, cloudDip, cloudPeriod float64) Trace {
	d := light.DayCycle{PeakLux: peakLux, DayLengthSeconds: dayLengthSeconds}
	if cloudPeriod > 0 {
		d.Clouds = &light.Clouds{BaseLux: peakLux, DipFraction: cloudDip, PeriodSeconds: cloudPeriod}
	}
	return d
}

// Deliver transmits a slot waveform over the simulated optical channel at
// the given geometry and ambient level, runs the sample-domain receiver
// over it, and returns the payloads of every frame that decoded cleanly.
// It is the one-shot physical path for applications that frame their own
// data with BuildFrame; RunSession adds MAC, ARQ and adaptation on top.
func (s *System) Deliver(g Geometry, ambientLux float64, seed uint64, slots []bool) ([][]byte, error) {
	rep, err := s.DeliverStats(g, ambientLux, seed, slots)
	if err != nil {
		return nil, err
	}
	return rep.Payloads, nil
}

// DeliverStats is Deliver with the receiver statistics kept: frame
// outcomes, symbol errors, the per-error tally and the detection
// threshold. When a registry is attached (SetTelemetry) the transmit and
// receive paths record into it as well.
func (s *System) DeliverStats(g Geometry, ambientLux float64, seed uint64, slots []bool) (DeliverReport, error) {
	var rep DeliverReport
	if err := s.DeliverInto(&rep, g, ambientLux, seed, slots); err != nil {
		return DeliverReport{}, err
	}
	return rep, nil
}

// DeliverInto is DeliverStats writing into a caller-provided report,
// reusing rep's payload spine and backing buffers across calls — the
// zero-alloc steady state of the one-shot physical path. Payloads are
// copied out of the receiver, so they stay valid for as long as the
// caller keeps the report (until the next DeliverInto on the same rep,
// which recycles them).
func (s *System) DeliverInto(rep *DeliverReport, g Geometry, ambientLux float64, seed uint64, slots []bool) error {
	ch, err := photon.DefaultLinkBudget().ChannelAt(g, ambientLux)
	if err != nil {
		return err
	}
	link := phy.DefaultLink(ch)
	link.Metrics = s.txm
	sc, _ := s.scratch.Get().(*deliverScratch)
	if sc == nil {
		pcg := rand.NewPCG(seed, deliverStreamKey)
		sc = &deliverScratch{pcg: pcg, rng: rand.New(pcg), rx: &phy.Receiver{}}
	} else {
		sc.pcg.Seed(seed, deliverStreamKey)
	}
	link.StartPhase = sc.rng.Float64()
	samples := link.TransmitPCG(sc.pcg, slots)
	rx := sc.rx
	rx.Reset(ch, s.factory)
	s.rxm.OnChannel(rx.Threshold())
	results, st := rx.Process(samples)
	s.rxm.Observe(rx.Events())
	if s.spans != nil {
		// One-shot span tree: the Deliver call has no session clock, so the
		// root starts at 0 and receiver spans are timed by sample index.
		tsamp := tslotSeconds / float64(phy.Oversample)
		root := s.spans.Record(span.Span{
			Name: "deliver", Seq: -1, Start: 0, End: float64(len(samples)) * tsamp,
			Attrs: []span.Attr{{Key: "threshold", Value: strconv.Itoa(rx.Threshold())}},
		})
		phy.RecordSpans(s.spans, rx.Events(), root, -1, 0, tsamp)
	}
	phy.RecycleSamples(samples)
	rep.FramesOK = st.FramesOK
	rep.FramesBad = st.FramesBad
	rep.SymbolErrors = st.SymbolErrors
	rep.Errors = st.Errors
	rep.Threshold = rx.Threshold()
	// Copy the payloads out of the receiver's batch into the report's own
	// buffers, reviving both the spine and the per-frame backing arrays
	// of the previous call.
	spine := rep.Payloads[:0]
	for _, r := range results {
		var dst []byte
		if n := len(spine); n < cap(spine) {
			dst = spine[:n+1][n][:0]
		}
		spine = append(spine, append(dst, r.Payload...))
	}
	rep.Payloads = spine
	s.scratch.Put(sc)
	return nil
}

// deliverStreamKey is the fixed second PCG seed word of the Deliver rng
// stream; it only has to differ from other streams' keys.
const deliverStreamKey = 0xDE11FE6

// LinkQuality reports the slot error probabilities P1/P2 at a geometry
// and ambient level under the calibrated link budget, through the
// receiver's detection window — the quantities the paper measures to
// parameterize Eq. 3.
func LinkQuality(g Geometry, ambientLux float64) (p1, p2 float64, err error) {
	ch, err := photon.DefaultLinkBudget().ChannelAt(g, ambientLux)
	if err != nil {
		return 0, 0, err
	}
	w := ch.Scaled(0.75)
	p1, p2 = w.ErrorProbs(w.OptimalThreshold())
	return p1, p2, nil
}

// Version identifies the library release.
const Version = "1.0.0"
