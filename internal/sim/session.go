package sim

import (
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
	"smartvlc/internal/telemetry/health"
	"smartvlc/internal/telemetry/span"
)

// This file is the session engine Run and RunBroadcast share: one
// luminaire running the paper's Fig. 2 loop (adapt → build → transmit →
// receive → ack) for a set of receiver shards. Run drives it with one
// shard, RunBroadcast with one per desk; each keeps only its policy —
// what the dimming controller follows, when a frame counts as
// acknowledged, and the result. The loop emits one record per session
// event, and fold.go folds each record into the armed observers.

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
	// goodput names the gauge the session end sets, goodputHelp its HELP
	// text; countDelivered also counts the newly delivered payload bytes.
	goodput, goodputHelp string
	countDelivered       bool
}

var (
	// singleMode's shard 0 draws rand.NewPCG(seed, 0xC0FFEE).
	singleMode = mode{
		rxSalt: 0xC0FFEE, sideSalt: 0x51DE, macSalt: 0xACED,
		goodput:        "sim_goodput_bps",
		goodputHelp:    "Acknowledged unique payload bits per second over the whole session.",
		countDelivered: true,
	}
	broadcastMode = mode{
		rxSalt: 0xBEEF00, sideSalt: 0x51DE2, macSalt: 0xACED2, labelled: true, macFirst: true,
		goodput:     "sim_reliable_goodput_bps",
		goodputHelp: "Payload rate acknowledged by every receiver.",
	}
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
	health  *health.Snapshot // mon's final snapshot, left by the session end
	prof    rxProf           // the current level's PHY stage handles
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

// recordKind names a session event.
type recordKind uint8

const (
	recStart    recordKind = iota // the session opened
	recLevel                      // a frame boundary: the controller set the level
	recChannel                    // a shard's channel was rebuilt
	recStall                      // the window was full, so the LED idles
	recFrame                      // a frame went on air
	recRx                         // one shard's receiver outcome of the frame
	recDatagram                   // a datagram went up the uplink
	recAck                        // the policy counted a frame as acknowledged
	recSLO                        // a health objective changed state
	recEnd                        // the session ended
)

// record is one session event. The loop emits it once, at the step that
// produces it, and fold.go folds it into every armed observer. A field
// is set only by the kinds its comment names.
type record struct {
	kind recordKind
	// at is the event's sim time: the boundary (level, channel), the
	// frame's start (stall, frame) or end (rx), the send time (datagram),
	// the arrival (ack), the transition (SLO) or the session's end.
	at float64
	// seq is the frame's sequence number (frame, ack).
	seq uint16
	// shard is the receiver (channel, rx); for an ack, the shard whose
	// health monitor observes its latency, or -1 for none.
	shard int

	// level is the level set (level) or sent at (frame); from is the
	// level before it (level).
	level, from float64
	// frame: on-air slots (idle gap included), body bytes (sequence
	// header included), whether the slots outgrew the session's scratch,
	// and the codec that built them.
	slots, bytes int
	grew         bool
	codec        frame.PayloadCodec
	// sent is the sender's decision (stall, frame).
	sent mac.Decision

	threshold int // channel: the rebuilt receiver's detection threshold

	// rx: the receiver's events and stats, the received sample count, the
	// newly delivered sequences, and the ACK latencies the policy
	// observes per desk at delivery.
	events  []phy.Event
	stats   phy.Stats
	samples int
	seqs    []uint16
	lat     []float64

	// msg is the datagram, whose At is its arrival; ok is whether it
	// arrived, or whether an ACK's latency is known.
	msg     mac.Message
	ok      bool
	latency float64 // ack

	tr health.Transition // SLO

	// end: the session's goodput and the counts its log reports.
	goodput float64
	tally   []tally
}

// tally is one named count of a session end.
type tally struct {
	key string
	n   int
}

// session is the state of one running session. It lives in its arena;
// open resets it.
type session struct {
	cfg    Config
	m      mode
	a      *Arena
	shards []*shard
	pool   *parallel.Pool
	observers

	sender     *mac.Sender
	side       mac.Uplink
	controller *light.Controller
	schemeName string

	// Loop state: the sim clock, the dimming level and its smoothed
	// controller input.
	now, level          float64
	smoothed, lastAdapt float64
	smoothedSet         bool
	// The frame in flight, read by the shard steps; slots is the arena's
	// slot scratch, reused across frames.
	seq   uint16
	slots []bool
}

// maxIdleGapSlots bounds Config.IdleGapSlots at one second of slots.
const maxIdleGapSlots = 125_000

// validate rejects what no session can run.
func (c *Config) validate(duration float64) error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch {
	case c.Scheme == nil:
		return fmt.Errorf("sim: nil scheme")
	case !(duration > 0) || math.IsInf(duration, 1):
		return fmt.Errorf("sim: duration %v must be positive and finite", duration)
	case c.PayloadBytes <= 0:
		return fmt.Errorf("sim: payload %d bytes", c.PayloadBytes)
	case c.IdleGapSlots < 0 || c.IdleGapSlots > maxIdleGapSlots:
		return fmt.Errorf("sim: idle gap of %d slots, want 0 to %d", c.IdleGapSlots, maxIdleGapSlots)
	case !(c.SideLatencySeconds >= 0 && c.SideJitterSeconds >= 0) || !finite(c.SideLatencySeconds+c.SideJitterSeconds):
		return fmt.Errorf("sim: side-channel latency %v s and jitter %v s must be finite and non-negative",
			c.SideLatencySeconds, c.SideJitterSeconds)
	case !(c.SideLossProb >= 0 && c.SideLossProb <= 1):
		return fmt.Errorf("sim: side-channel loss probability %v outside [0, 1]", c.SideLossProb)
	case !finite(c.UplinkVLCBitRate) || !finite(c.UplinkVLCRangeM):
		return fmt.Errorf("sim: VLC uplink rate %v b/s and range %v m must be finite", c.UplinkVLCBitRate, c.UplinkVLCRangeM)
	case c.Trace != nil && !(c.FullLEDLux > 0 && finite(c.FullLEDLux)):
		return fmt.Errorf("sim: FullLEDLux %v must be positive and finite when a Trace drives the level", c.FullLEDLux)
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
		cfg: cfg, m: m, a: a, observers: observersOf(&cfg),
		schemeName: cfg.Scheme.Name(), level: cfg.FixedLevel,
	}

	var err error
	if s.sender, err = a.rentSender(cfg.Window, cfg.PayloadBytes, cfg.AckTimeoutSeconds); err != nil {
		return nil, err
	}
	s.side = a.rentSideChannel(cfg.SideLatencySeconds, cfg.SideJitterSeconds, cfg.SideLossProb)
	if cfg.UplinkVLCBitRate > 0 {
		rangeM := cfg.UplinkVLCRangeM
		if rangeM <= 0 {
			rangeM = 2.5
		}
		s.side = a.rentVLCUplink(cfg.UplinkVLCBitRate, 96, rangeM, poses[0].Geometry.DistanceM)
	}
	if cfg.Trace != nil {
		stepper := cfg.Stepper
		if stepper == nil {
			stepper = light.PerceivedStepper{TauP: light.DefaultTauP}
		}
		if s.controller, err = light.NewController(cfg.TargetSum, stepper); err != nil {
			return nil, err
		}
	}
	a.codecs.reset(cfg.Scheme)

	s.shards = a.rentShards(len(poses), cfg.Seed, m.rxSalt, cfg.PayloadBytes)
	for i, sh := range s.shards {
		sh.geom, sh.scale = poses[i].Geometry, poses[i].scale()
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

	s.slots = a.slotBuf
	a.vSlotLen = 0
	s.emit(&record{kind: recStart})
	return s, nil
}

// close stops the session's pool and hands the grown slot scratch back
// to the arena for the next session.
func (s *session) close() {
	if s.pool != nil {
		s.pool.Close()
	}
	s.a.slotBuf = s.slots
}

// tick retunes every shard to the ambient at the frame boundary and
// returns the trace's lux before the per-desk scale.
func (s *session) tick() (float64, error) {
	lux := s.cfg.AmbientLux
	if s.cfg.Trace != nil {
		lux = s.cfg.Trace.LuxAt(s.now)
	}
	for i := range s.shards {
		if err := s.tune(i, lux*s.shards[i].scale); err != nil {
			return 0, err
		}
	}
	return lux, nil
}

// tune rebuilds shard i's channel when its ambient has moved by more than
// 2 %. The shard's receiver shell is reconfigured via Reset — exactly
// NewReceiver's state, with the scratch columns retained.
func (s *session) tune(i int, lux float64) error {
	sh := s.shards[i]
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
	sh.lastLux = lux
	s.emit(&record{kind: recChannel, at: s.now, shard: i, threshold: sh.rx.Threshold()})
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
	prev := s.level
	if s.controller != nil {
		s.level, _ = s.controller.StepToward(s.smoothed)
	}
	s.emit(&record{kind: recLevel, at: s.now, level: s.level, from: prev})
}

// next asks the sender what to send now; ok is false while the window is
// full.
func (s *session) next() (seq uint16, body []byte, ok bool) {
	seq, body, ok = s.sender.NextFrame(s.now)
	if !ok {
		s.emit(&record{kind: recStall, at: s.now, sent: s.sender.LastDecision()})
	}
	return seq, body, ok
}

// transmit builds seq's frame at the current dimming level and runs every
// shard's transmit → receive step on it, returning the frame's end on
// air; the caller then merges the outboxes.
func (s *session) transmit(seq uint16, body []byte) (end float64, err error) {
	s.seq = seq
	codec, err := s.a.codecs.codecFor(s.level)
	if err != nil {
		return 0, fmt.Errorf("sim: level %v: %w", s.level, err)
	}
	slots, err := frame.BuildAppend(s.slots[:0], codec, body)
	if err != nil {
		return 0, err
	}
	slots = frame.AppendIdle(slots, codec.Level(), s.cfg.IdleGapSlots)
	s.slots = slots
	s.emit(&record{
		kind: recFrame, at: s.now, seq: seq, level: s.level, slots: len(slots), bytes: len(body),
		grew: s.a.frameAlloc(len(slots)), codec: codec, sent: s.sender.LastDecision(),
	})

	if s.pool != nil {
		s.pool.Run(len(s.shards), s.a.step)
	} else {
		for i := range s.shards {
			s.step(i)
		}
	}
	return s.now + float64(len(slots))*tslot, nil
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
	if s.cfg.Flight != nil {
		// Only the single link arms the flight recorder, so its one shard
		// captures on the loop's goroutine, while the samples exist.
		s.capture(i, samples)
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

// merge hands shard i's receiver outcome at the frame's end to the
// observers, then sends its ACKs and ambient report up the uplink; lat
// holds the ACK latencies the policy observes at delivery. Shards merge
// in order, so the uplink stream and every observer see the sequence a
// serial loop produces.
func (s *session) merge(i int, end float64, lat []float64) error {
	sh := s.shards[i]
	out := &sh.out
	s.emit(&record{
		kind: recRx, at: end, shard: i, events: sh.rx.Events(), stats: out.stats,
		samples: out.samples, seqs: out.newSeqs, lat: lat,
	})
	if s.err != nil {
		return s.err
	}
	for _, seq := range out.ackSeqs {
		s.send(end, mac.Message{Kind: mac.KindAck, From: i, Seq: seq})
	}
	if out.hasAmbient {
		s.send(end, mac.Message{Kind: mac.KindAmbientReport, From: i, Lux: out.ambient})
	}
	return nil
}

// send puts m on the uplink at now.
func (s *session) send(now float64, m mac.Message) {
	var ok bool
	m.At, ok = s.side.Send(now, m)
	s.emit(&record{kind: recDatagram, at: now, msg: m, ok: ok})
}
