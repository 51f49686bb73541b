package sim

import (
	"context"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"

	"smartvlc/internal/frame"
	"smartvlc/internal/light"
	"smartvlc/internal/mac"
	"smartvlc/internal/optics"
	"smartvlc/internal/parallel"
	"smartvlc/internal/phy"
	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/flight"
	"smartvlc/internal/telemetry/health"
	"smartvlc/internal/telemetry/prof"
	"smartvlc/internal/telemetry/span"
	"smartvlc/internal/telemetry/vlog"
)

// This file is the session engine Run and RunBroadcast share: one
// luminaire running the paper's Fig. 2 loop (adapt → build → transmit →
// receive → ack) for a set of receiver shards. Run drives it with one
// shard, RunBroadcast with one per desk; each keeps only its policy —
// what the dimming controller follows, when a frame counts as
// acknowledged, the flight-recorder triggers and the result.

// tslot is the prototype's slot duration and tsamp the receiver's
// sample duration.
const (
	tslot = 8e-6
	tsamp = tslot / phy.Oversample
)

// mode is what tells Run and RunBroadcast apart inside the engine.
type mode struct {
	// rxSalt seeds shard i's channel stream at (seed, rxSalt+i); sideSalt
	// and macSalt seed the uplink's and the ARQ sender's streams.
	rxSalt, sideSalt, macSalt uint64
	// labelled names shard i "rx<i>" in profiles, logs and health links
	// and tags its spans rx=i; the single link's one shard is unlabelled.
	labelled bool
	// macFirst creates a level's MAC profiler handle before the shards'
	// PHY handles instead of after them. Creation order decides what a
	// capped profiler folds into its overflow series.
	macFirst bool
}

var (
	// singleMode's shard 0 draws rand.NewPCG(seed, 0xC0FFEE).
	singleMode    = mode{rxSalt: 0xC0FFEE, sideSalt: 0x51DE, macSalt: 0xACED}
	broadcastMode = mode{rxSalt: 0xBEEF00, sideSalt: 0x51DE2, macSalt: 0xACED2, labelled: true, macFirst: true}
)

// shard is one receiver's part of a session: its channel stream, PHY
// link and receiver, ARQ receiver, health monitor and the outbox its
// frame step fills. The arena keeps shards across sessions and resets
// them per run.
type shard struct {
	rng     *rand.Rand
	pcg     *rand.PCG // rng's generator, for the PHY fast path
	geom    optics.Geometry
	scale   float64 // ambient scale at this receiver
	lastLux float64
	link    phy.Link
	rx      *phy.Receiver
	macRx   *mac.Receiver
	mon     *health.Monitor
	prof    rxProf // the current level's PHY stage handles
	// name and attrs label the shard in broadcast sessions ("rx<i>" and
	// rx=i); fixed at creation.
	name  string
	attrs []span.Attr
	out   rxOutbox
	// Broadcast policy: the desk's last ambient report and its
	// illumination-sum accumulator.
	remote   float64
	reported bool
	sumAcc   float64
	sumN     int
}

// rxOutbox is what one shard's frame step leaves for the sequential
// merge, beside the receiver's events. The steps of a frame run
// concurrently, but side.Send consumes the shared uplink stream and the
// observers number what they record, so both are replayed from here in
// shard order — exactly the sequence a serial loop produces.
type rxOutbox struct {
	stats   phy.Stats
	samples int // length of the received sample stream
	ackSeqs []uint16
	// newSeqs are the sequences first delivered this frame (ackSeqs minus
	// re-acked duplicates).
	newSeqs    []uint16
	ambient    float64
	hasAmbient bool
}

func (o *rxOutbox) reset() {
	*o = rxOutbox{ackSeqs: o.ackSeqs[:0], newSeqs: o.newSeqs[:0]}
}

// rxProf is one shard's stage-profiler handles at one dimming level.
type rxProf struct{ tx, hunt, decode *prof.Stage }

// levelProf is one dimming level's profiler state: the frame and MAC
// handles, each shard's PHY handles, the payload symbols per frame and
// the pprof label context, so the frame loop switches attribution with
// field reads instead of map lookups and label allocations.
type levelProf struct {
	frame, mac *prof.Stage
	rx         []rxProf
	symbols    int64
	labels     context.Context
}

// session is the state of one running session. It lives in its arena;
// open resets it.
type session struct {
	cfg    Config
	m      mode
	a      *Arena
	shards []*shard
	pool   *parallel.Pool

	reg      *telemetry.Registry
	txm      *phy.TxMetrics
	rxm      *phy.RxMetrics
	macm     *mac.Metrics
	framesTx *telemetry.Counter
	airtimeH *telemetry.Histogram
	levelG   *telemetry.Gauge
	// col is Config.Spans, or an internal collector when only the flight
	// recorder is armed (bundles embed the frame trees either way).
	col        *span.Collector
	lg         *vlog.Logger
	pendingSLO []health.Transition // critical transitions awaiting a flight bundle

	sender     *mac.Sender
	side       mac.Uplink
	controller *light.Controller
	schemeName string
	levels     map[float64]*levelProf // keyed by the raw level, like the codecs
	curProf    *levelProf

	// Loop state: the sim clock, the dimming level and its smoothed
	// controller input.
	now, level          float64
	smoothed, lastAdapt float64
	smoothedSet         bool
	prevRetx            int
	roots               *rootRing
	// The frame in flight, read by the shard steps; slots is the arena's
	// slot scratch, reused across frames.
	seq     uint16
	retx    bool
	root    span.ID
	slots   []bool
	airtime float64
}

// validate rejects what no session can run.
func (c *Config) validate(duration float64) error {
	switch {
	case c.Scheme == nil:
		return fmt.Errorf("sim: nil scheme")
	case !(duration > 0) || math.IsInf(duration, 1):
		return fmt.Errorf("sim: duration %v must be positive and finite", duration)
	case c.PayloadBytes <= 0:
		return fmt.Errorf("sim: payload %d bytes", c.PayloadBytes)
	case c.Watch != nil && c.Telemetry == nil:
		return fmt.Errorf("sim: Watch requires Telemetry (the feed streams registry deltas)")
	}
	return nil
}

// open validates cfg and sets up a session in mode m with one shard per
// pose, rented from a; at most workers goroutines run the shard steps
// (negative selects GOMAXPROCS). The caller drives the frame loop and
// closes the session.
func (a *Arena) open(cfg Config, duration float64, m mode, poses []ReceiverPose, workers int) (*session, error) {
	if err := cfg.validate(duration); err != nil {
		return nil, err
	}
	for _, p := range poses {
		if err := p.Geometry.Validate(); err != nil {
			return nil, err
		}
	}
	a.reseed(cfg.Seed, m)
	s := &a.sess
	*s = session{
		cfg: cfg, m: m, a: a, reg: cfg.Telemetry, col: cfg.Spans, lg: cfg.Logs,
		schemeName: cfg.Scheme.Name(), level: cfg.FixedLevel,
	}
	if cfg.Flight != nil && s.col == nil {
		s.col = span.NewCollector()
	}

	// Instrument handles: every constructor returns nil on a nil registry
	// and every nil handle is a no-op, so the loop carries them
	// unconditionally at zero cost when telemetry is off.
	reg := s.reg
	s.txm, s.rxm, s.macm = phy.NewTxMetrics(reg), phy.NewRxMetrics(reg), mac.NewMetrics(reg)
	reg.Help("sim_frame_airtime_slots", "On-air length of each transmitted frame, in slots (including the idle gap).")
	s.framesTx = reg.Counter("sim_frames_tx_total")
	s.airtimeH = reg.Histogram("sim_frame_airtime_slots")
	s.levelG = reg.Gauge("sim_dimming_level")

	var err error
	if s.sender, err = a.rentSender(cfg.Window, cfg.PayloadBytes, cfg.AckTimeoutSeconds); err != nil {
		return nil, err
	}
	s.sender.Metrics, s.sender.Log = s.macm, s.lg
	sideCh := a.rentSideChannel(cfg.SideLatencySeconds, cfg.SideJitterSeconds, cfg.SideLossProb)
	sideCh.Metrics, sideCh.Spans = s.macm, s.col
	s.side = sideCh
	if cfg.UplinkVLCBitRate > 0 {
		rangeM := cfg.UplinkVLCRangeM
		if rangeM <= 0 {
			rangeM = 2.5
		}
		vlc := a.rentVLCUplink(cfg.UplinkVLCBitRate, 96, rangeM, poses[0].Geometry.DistanceM)
		vlc.Metrics = s.macm
		s.side = vlc
	}
	if cfg.Trace != nil {
		stepper := cfg.Stepper
		if stepper == nil {
			stepper = light.PerceivedStepper{TauP: light.DefaultTauP}
		}
		if s.controller, err = light.NewController(cfg.TargetSum, stepper); err != nil {
			return nil, err
		}
		s.controller.Metrics = light.NewMetrics(reg)
	}
	a.codecs.reset(cfg.Scheme)

	s.shards = a.rentShards(len(poses), cfg.Seed, m.rxSalt, cfg.PayloadBytes)
	for i, sh := range s.shards {
		sh.geom, sh.scale = poses[i].Geometry, poses[i].scale()
	}
	if s.lg.Enabled(vlog.Info) {
		attrs := []vlog.Attr{
			{Key: "seed", Value: strconv.FormatUint(cfg.Seed, 10)},
			{Key: "window", Value: strconv.Itoa(cfg.Window)},
			{Key: "payload_bytes", Value: strconv.Itoa(cfg.PayloadBytes)},
		}
		if m.labelled {
			attrs = append(attrs, vlog.Attr{Key: "receivers", Value: strconv.Itoa(len(poses))})
		}
		s.lg.Record(vlog.Record{
			At: 0, Level: vlog.Info, Stage: "sim/session", Msg: "session start", Seq: -1,
			Scheme: s.schemeName, Dim: fmtAttr(s.level), Attrs: attrs,
		})
	}
	if cfg.Prof != nil {
		s.levels = a.rentLevels()
	}

	// One persistent pool per session when parallel shards are asked for:
	// workers 0 and 1 stay on the caller's goroutine, and the count never
	// exceeds the shard fan-out. The session owns the pool; close stops it.
	if workers < 0 {
		workers = parallel.Workers(0)
	}
	if workers = min(workers, len(poses)); workers > 1 {
		if cfg.Prof != nil {
			// Label the pooled workers once at spawn so wall-clock CPU
			// profiles attribute the PHY shards to this session.
			s.pool = parallel.NewPoolLabeled(workers, "session", strconv.FormatUint(cfg.Seed, 10),
				"scheme", s.schemeName, "stage", "phy.rx")
		} else {
			s.pool = parallel.NewPool(workers)
		}
		if a.step == nil {
			a.step = s.step
		}
	}

	s.roots = a.rentRoots(s.col != nil)
	s.slots = a.slotBuf
	a.vSlotLen = 0

	// One link-health monitor per shard. The config is copied so a fleet
	// can share one *health.Config; clock and registry default to the
	// session's. Every observation happens in the sequential phases of the
	// loop, never inside a shard step, which keeps the series worker-count
	// invariant.
	if cfg.Health != nil {
		for _, sh := range s.shards {
			hc := *cfg.Health
			if hc.TSlotSeconds <= 0 {
				hc.TSlotSeconds = tslot
			}
			if hc.Registry == nil {
				hc.Registry = reg
			}
			if m.labelled {
				hc.Link = sh.name
			}
			if cfg.Flight != nil || s.lg != nil {
				hc.OnAlert = s.onAlert(hc.OnAlert)
			}
			sh.mon = health.NewMonitor(hc)
		}
	}
	return s, nil
}

// onAlert wraps a health config's alert callback: every SLO state change
// logs at the severity of the state it enters, with the burn-rate
// context that justified it, and a critical one is parked for the
// flight recorder so every breach ships a replayable bundle.
func (s *session) onAlert(user func(health.Transition)) func(health.Transition) {
	return func(t health.Transition) {
		if user != nil {
			user(t)
		}
		if lv := sloLogLevel(t.To); s.lg.Enabled(lv) {
			s.lg.Record(vlog.Record{
				At: t.At, Level: lv, Stage: "sim/slo",
				Msg: "slo " + t.Objective + ": " + t.From.String() + " -> " + t.To.String(),
				Seq: -1, Shard: t.Link, Scheme: s.schemeName, Dim: fmtAttr(s.level),
				Attrs: []vlog.Attr{
					{Key: "burn_fast", Value: fmtAttr(t.BurnFast)},
					{Key: "burn_slow", Value: fmtAttr(t.BurnSlow)},
					{Key: "value", Value: fmtAttr(t.Value)},
					{Key: "target", Value: fmtAttr(t.Target)},
				},
			})
		}
		if s.cfg.Flight != nil && t.To == health.StateCritical {
			s.pendingSLO = append(s.pendingSLO, t)
		}
	}
}

// close stops the session's pool and hands the grown slot scratch back
// to the arena for the next session.
func (s *session) close() {
	if s.pool != nil {
		s.pool.Close()
	}
	s.a.slotBuf = s.slots
}

// tick moves the health monitors and the watch feed to the frame
// boundary and retunes every shard to the ambient there, returning the
// trace's lux before the per-desk scale.
func (s *session) tick() (float64, error) {
	for _, sh := range s.shards {
		sh.mon.Tick(s.now)
	}
	s.cfg.Watch.Tick(s.now, s.reg)
	lux := s.cfg.AmbientLux
	if s.cfg.Trace != nil {
		lux = s.cfg.Trace.LuxAt(s.now)
	}
	for _, sh := range s.shards {
		if err := s.tune(sh, lux*sh.scale); err != nil {
			return 0, err
		}
	}
	return lux, nil
}

// tune rebuilds a shard's channel when its ambient has moved by more than
// 2 %. The shard's receiver shell is reconfigured via Reset — exactly
// NewReceiver's state, with the scratch columns retained.
func (s *session) tune(sh *shard, lux float64) error {
	if sh.lastLux > 0 && math.Abs(lux-sh.lastLux) <= 0.02*sh.lastLux {
		return nil
	}
	ch, err := s.cfg.Budget.ChannelAt(sh.geom, lux)
	if err != nil {
		return err
	}
	sh.link = phy.DefaultLink(ch)
	sh.link.Metrics = s.txm
	sh.rx.Reset(ch, s.cfg.Scheme.Factory())
	s.rxm.OnChannel(sh.rx.Threshold())
	sh.lastLux = lux
	return nil
}

// adapt smooths the controller's input src with time constant tau and
// steps the dimming level toward it.
func (s *session) adapt(src, tau float64) {
	if !s.smoothedSet {
		s.smoothed, s.smoothedSet = src, true
	} else {
		alpha := 1 - math.Exp(-(s.now-s.lastAdapt)/tau)
		s.smoothed += alpha * (src - s.smoothed)
	}
	s.lastAdapt = s.now
	if s.controller != nil {
		prev := s.level
		s.level, _ = s.controller.StepToward(s.smoothed)
		if s.level != prev && s.lg.Enabled(vlog.Debug) {
			s.lg.Record(vlog.Record{
				At: s.now, Level: vlog.Debug, Stage: "sim/dim",
				Msg: "dimming level adjusted", Seq: -1,
				Scheme: s.schemeName, Dim: fmtAttr(s.level),
				Attrs: []vlog.Attr{{Key: "from", Value: fmtAttr(prev)}},
			})
		}
	}
	s.levelG.Set(s.level)
	for _, sh := range s.shards {
		sh.mon.ObserveLevel(s.now, s.level)
	}
}

// recordAck records the acknowledgment of m.Seq once the caller's policy
// counts the frame as acknowledged: the ACK-latency exemplar linking the
// histogram's tail to the frame's root span, and the mac/ack span.
func (s *session) recordAck(m mac.Message, lat float64, known bool) {
	if known && s.macm != nil {
		s.macm.AckLatency.AttachExemplar(lat, telemetry.Exemplar{
			At: m.At, Seq: int64(m.Seq), Span: int64(s.roots.get(m.Seq)),
		})
	}
	if s.col != nil {
		s.col.Record(span.Span{
			Name: "mac/ack", Parent: s.roots.get(m.Seq), Seq: int64(m.Seq),
			Start: m.At, End: m.At,
		})
	}
}

// transmit builds seq's frame at the current dimming level, accounts it
// (stage costs, counters, health, span tree) and runs every shard's
// transmit → receive step on it; the caller then merges the outboxes.
func (s *session) transmit(seq uint16, body []byte) error {
	s.seq = seq
	s.retx = s.sender.Retransmits() > s.prevRetx
	s.prevRetx = s.sender.Retransmits()
	codec, err := s.a.codecs.codecFor(s.level)
	if err != nil {
		return fmt.Errorf("sim: level %v: %w", s.level, err)
	}
	lp := s.levelProf(codec)
	slots, err := frame.BuildAppend(s.slots[:0], codec, body)
	if err != nil {
		return err
	}
	slots = frame.AppendIdle(slots, codec.Level(), s.cfg.IdleGapSlots)
	s.slots = slots
	grew := s.a.frameAlloc(len(slots))
	if lp != nil {
		lp.frame.Ops(1)
		lp.frame.Slots(int64(len(slots)))
		lp.frame.Bytes(int64(len(body)))
		lp.frame.Symbols(lp.symbols)
		if grew {
			lp.frame.Allocs(1)
		}
	}
	if grew && s.lg.Enabled(vlog.Debug) {
		// Scratch growth keys on the virtual high-water mark, so warm
		// arena runs log the same growth events a fresh run would.
		s.lg.Record(vlog.Record{
			At: s.now, Level: vlog.Debug, Stage: "sim/arena",
			Msg: "frame slot scratch grew", Seq: int64(seq),
			Attrs: []vlog.Attr{{Key: "slots", Value: strconv.Itoa(len(slots))}},
		})
	}
	s.airtime = float64(len(slots)) * tslot
	s.framesTx.Inc()
	s.airtimeH.Observe(float64(len(slots)))
	for _, sh := range s.shards {
		sh.mon.ObserveTx(s.now, len(slots), s.retx)
	}

	// Root span for this transmission; a retransmission chains onto the
	// previous transmission's root.
	s.root = 0
	if s.col != nil {
		parent := span.ID(0)
		if s.retx {
			parent = s.roots.get(seq)
		}
		desc := codec.Descriptor()
		s.root = s.col.Record(span.Span{
			Name: "frame", Parent: parent, Seq: int64(seq),
			Start: s.now, End: s.now + s.airtime,
			Attrs: []span.Attr{
				{Key: "level", Value: fmtAttr(s.level)},
				{Key: "scheme", Value: s.schemeName},
				{Key: "pattern", Value: hex.EncodeToString(desc[:])},
				{Key: "slots", Value: strconv.Itoa(len(slots))},
			},
		})
		s.roots.set(seq, s.root)
		s.col.Record(span.Span{Name: "frame/build", Parent: s.root, Seq: int64(seq), Start: s.now, End: s.now})
		if s.retx {
			s.col.Record(span.Span{Name: "mac/retx", Parent: s.root, Seq: int64(seq), Start: s.now, End: s.now})
		}
		s.col.Record(span.Span{Name: "frame/tx", Parent: s.root, Seq: int64(seq), Start: s.now, End: s.now + s.airtime})
	}
	// Exemplar: an airtime outlier bucket jumps to the frame's root span.
	s.airtimeH.AttachExemplar(float64(len(slots)), telemetry.Exemplar{
		At: s.now, Seq: int64(seq), Span: int64(s.root),
	})

	if s.pool != nil {
		s.pool.Run(len(s.shards), s.a.step)
	} else {
		for i := range s.shards {
			s.step(i)
		}
	}
	return nil
}

// levelProf switches the profiler handles to the current dimming level,
// creating them on the level's first frame, and returns them; nil when
// the profiler is off. The handles feed commuting atomic adds, so totals
// stay worker-count invariant.
func (s *session) levelProf(codec frame.PayloadCodec) *levelProf {
	p := s.cfg.Prof
	if p == nil {
		return nil
	}
	lp := s.levels[s.level]
	if lp == nil {
		ll := prof.LevelLabel(s.level)
		lp = &levelProf{
			frame: p.Stage("sim.frame", s.schemeName, ll, ""),
			rx:    make([]rxProf, len(s.shards)),
			labels: parallel.LabelContext("session", strconv.FormatUint(s.cfg.Seed, 10),
				"scheme", s.schemeName, "level", ll, "stage", "sim.frame"),
		}
		if s.m.macFirst {
			lp.mac = p.Stage("mac.frame", s.schemeName, ll, "")
		}
		for i, sh := range s.shards {
			label := s.label(sh)
			lp.rx[i] = rxProf{
				tx:     p.Stage("phy.tx", s.schemeName, ll, label),
				hunt:   p.Stage("phy.hunt", s.schemeName, ll, label),
				decode: p.Stage("phy.decode", s.schemeName, ll, label),
			}
		}
		if !s.m.macFirst {
			lp.mac = p.Stage("mac.frame", s.schemeName, ll, "")
		}
		// Symbol counts come from codec metadata: codecs are cached
		// across sessions, so no per-session state may live on them.
		if ps, ok := codec.(interface{ PayloadSymbols(int) int }); ok {
			lp.symbols = int64(ps.PayloadSymbols(mac.SeqBytes + s.cfg.PayloadBytes))
		}
		s.levels[s.level] = lp
	}
	if lp != s.curProf {
		s.curProf = lp
		parallel.SetLabels(lp.labels)
		s.sender.Prof = lp.mac
		for i, sh := range s.shards {
			sh.prof = lp.rx[i]
		}
	}
	return lp
}

// label is the shard's name in profiles, logs and health links.
func (s *session) label(sh *shard) string {
	if s.m.labelled {
		return sh.name
	}
	return ""
}

// step runs shard i's part of the frame in flight: transmit through its
// channel, receive, hand the decoded frames to its ARQ receiver and
// estimate the ambient. Steps of one frame run concurrently; each writes
// only its own shard, and the only shared state it touches (transmit
// metrics and profiler counters) takes commuting atomic adds.
func (s *session) step(i int) {
	sh := s.shards[i]
	out := &sh.out
	out.reset()
	// Channel rebuilds replace the link, so the handles are (re)attached
	// per frame. Nil handles no-op.
	sh.link.Prof = sh.prof.tx
	sh.rx.SetProf(sh.prof.hunt, sh.prof.decode)
	sh.link.StartPhase = sh.rng.Float64()
	samples := sh.link.TransmitPCG(sh.pcg, s.slots)
	results, stats := sh.rx.Process(samples)
	out.stats, out.samples = stats, len(samples)
	if n := int64(len(results)); n > 0 && s.curProf != nil {
		sh.prof.decode.Symbols(s.curProf.symbols * n)
	}
	if s.cfg.Flight != nil {
		// Only the single link arms the flight recorder, so its one shard
		// captures on the loop's goroutine.
		s.cfg.Flight.Observe(flight.Capture{
			Seq: int64(s.seq), Rx: i, Start: s.now, Level: s.level,
			Threshold: sh.rx.Threshold(), Slots: s.slots, Samples: samples,
		})
	}
	phy.RecycleSamples(samples)
	for _, r := range results {
		before := sh.macRx.DeliveredPayload()
		if seq, ackIt := sh.macRx.OnFrame(r.Payload); ackIt {
			out.ackSeqs = append(out.ackSeqs, seq)
			if sh.macRx.DeliveredPayload() > before {
				out.newSeqs = append(out.newSeqs, seq)
			}
		}
	}
	// The receiver reports its sensed ambient level (estimated from OFF
	// detection windows) back over the uplink.
	if counts, ok := sh.rx.AmbientWindowCounts(); ok {
		amb := counts/phy.AmbientWindowFraction - s.cfg.Budget.DarkCounts
		if amb < 0 {
			amb = 0
		}
		out.ambient, out.hasAmbient = amb/s.cfg.Budget.AmbientCountsPerLux, true
	}
}

// splice folds shard i's receiver events into the observers under the
// frame in flight — the counters, then the frame/channel span and the
// receiver's hunt/decode spans, then their log records — and returns the
// frame's decode class when the flight recorder needs it. The merge calls
// it in shard order before anything snapshots the registry, so every
// pillar numbers its records as a serial loop would.
func (s *session) splice(i int) (class string) {
	sh := s.shards[i]
	events := sh.rx.Events()
	s.rxm.Observe(events)
	if s.col != nil {
		var extra []span.Attr
		if s.m.labelled {
			extra = sh.attrs
		}
		seq := int64(s.seq)
		s.col.Record(span.Span{
			Name: "frame/channel", Parent: s.root, Seq: seq,
			Start: s.now, End: s.now + float64(sh.out.samples)*tsamp, Attrs: extra,
		})
		phy.RecordSpans(s.col, events, s.root, seq, s.now, tsamp, extra...)
	}
	phy.RecordLogs(s.lg, events, int64(s.root), int64(s.seq), s.label(sh), s.now, tsamp)
	if s.cfg.Flight != nil {
		class = phy.DecodeClass(events)
	}
	return class
}

// observeRx feeds shard i's receiver outcome to its health monitor, with
// the decoded payload bytes as the symbol-count proxy the paper's Eq. 3
// SER bound is stated against.
func (s *session) observeRx(i int, end float64) {
	st := s.shards[i].out.stats
	s.shards[i].mon.ObserveRx(end, st.FramesOK, st.FramesBad, st.SymbolErrors, st.FramesOK*s.cfg.PayloadBytes)
}

// uplink sends shard i's ACKs and ambient report over the uplink at the
// frame's end.
func (s *session) uplink(i int, end float64) {
	out := &s.shards[i].out
	for _, seq := range out.ackSeqs {
		s.side.Send(end, mac.Message{Kind: mac.KindAck, From: i, Seq: seq})
	}
	if out.hasAmbient {
		s.side.Send(end, mac.Message{Kind: mac.KindAmbientReport, From: i, Lux: out.ambient})
	}
}

// finish takes the session's snapshots at sim time end, once the caller
// has finished its health monitors: the profile is mirrored into the
// registry (so fleet aggregation carries stage costs through
// telemetry.Merge), and the caller's goodput gauge, the duration and the
// watch feed's final partial window land before the registry snapshot.
func (s *session) finish(end float64, goodputGauge string, goodput float64) (tel *telemetry.Snapshot, spans *span.Snapshot, pr *prof.Snapshot) {
	if s.cfg.Prof != nil {
		s.cfg.Prof.Publish(s.reg)
		pr = s.cfg.Prof.Snapshot()
	}
	if s.reg != nil {
		s.reg.Gauge(goodputGauge).Set(goodput)
		s.reg.Gauge("sim_duration_seconds").Set(end)
		s.cfg.Watch.Finish(end, s.reg)
		tel = s.reg.Snapshot()
	}
	if s.cfg.Spans != nil {
		spans = s.cfg.Spans.Snapshot()
	}
	return tel, spans, pr
}

// logEnd records the session's end with the caller's summary attributes
// and snapshots the logger (nil when logging is off).
func (s *session) logEnd(attrs func() []vlog.Attr) *vlog.Snapshot {
	if s.lg.Enabled(vlog.Info) {
		s.lg.Record(vlog.Record{
			At: s.now, Level: vlog.Info, Stage: "sim/session", Msg: "session end", Seq: -1,
			Scheme: s.schemeName, Dim: fmtAttr(s.level), Attrs: attrs(),
		})
	}
	return logSnap(s.lg)
}

// fmtAttr formats a float attribute value deterministically (shortest
// form that round-trips, like the trace exports).
func fmtAttr(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// sloLogLevel maps the SLO state a transition enters to the severity its
// log record carries.
func sloLogLevel(st health.State) vlog.Level {
	switch st {
	case health.StateCritical:
		return vlog.Error
	case health.StateWarning:
		return vlog.Warn
	}
	return vlog.Info
}

// logSnap snapshots a logger, keeping the nil-omits-the-file contract of
// flight bundles (a nil logger yields a nil snapshot, not an empty one).
func logSnap(lg *vlog.Logger) *vlog.Snapshot {
	if lg == nil {
		return nil
	}
	return lg.Snapshot()
}
