package main

// The ledger replays an op's frames through each layer's public
// functions in the paper's Fig. 2 order — adapt → build → transmit →
// receive → ack — and, when tracing, records a span around every call.
// A replay reproduces the program's RNG streams (the salts below mirror
// the session loops'), so its simulated outcome must equal the program
// op's exactly; traced.go checks that on every replayed op. The replay's
// own bookkeeping between calls is the root span's self time: the
// ledger residual.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"smartvlc"
	"smartvlc/internal/frame"
	"smartvlc/internal/hw"
	"smartvlc/internal/light"
	"smartvlc/internal/mac"
	"smartvlc/internal/parallel"
	"smartvlc/internal/photon"
	"smartvlc/internal/phy"
)

// call names one traced call site.
type call uint8

const (
	callOp          call = iota // root: one op's replay
	callLightStep               // light.(*Controller).StepToward
	callCodecFor                // scheme.(*AMPPM).CodecFor (session-cache miss)
	callChannelAt               // photon.LinkBudget.ChannelAt + phy.DefaultLink
	callRxReset                 // phy.(*Receiver).Reset
	callBuild                   // frame.BuildAppend + frame.AppendIdle; System.BuildFrame on streams
	callTx                      // phy.Link.TransmitPCG
	callRx                      // phy.(*Receiver).Process + phy.RecycleSamples
	callMacSender               // mac.(*Sender).NextFrame, OnAckAt
	callMacReceiver             // mac.(*Receiver).OnFrame
	callMacSide                 // mac.(*SideChannel).Send, Receive
	callDeliver                 // the System.Deliver path (children: channel, tx, reset, rx)
	nCalls
)

var callNames = [nCalls]string{
	"op", "light.step", "scheme.codec_for", "photon.channel_at", "phy.rx_reset",
	"frame.build", "phy.tx", "phy.rx", "mac.sender", "mac.receiver", "mac.side", "smartvlc.deliver",
}

// spanRec is one recorded call: name, start, end, parent and op id.
type spanRec struct {
	call       call
	parent     int32 // index into the tracer's spans, −1 for a root
	op         int32
	start, end int64 // ns since the tracer's epoch
}

// tracer records spans in memory while on; off, begin and end return at
// once, so the same replay code yields the untraced ledger time.
type tracer struct {
	on    bool
	epoch time.Time
	op    int32
	spans []spanRec
	open  []int32
}

func (t *tracer) begin(c call) {
	if !t.on {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, spanRec{call: c, parent: parent, op: t.op, start: int64(time.Since(t.epoch))})
	t.open = append(t.open, int32(len(t.spans)-1))
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].end = int64(time.Since(t.epoch))
	t.open = t.open[:n]
}

// layerTimes folds spans into per-call self and inclusive times.
type layerTimes struct {
	self, incl [nCalls]int64 // ns
	count      [nCalls]int
}

// fold adds spans[from:] to lt. A span's self time is its duration minus
// its children's, so the self times of one op add up to its root span.
func (lt *layerTimes) fold(spans []spanRec, from int) {
	for k := from; k < len(spans); k++ {
		s := spans[k]
		d := s.end - s.start
		lt.self[s.call] += d
		lt.incl[s.call] += d
		lt.count[s.call]++
		if s.parent >= 0 {
			lt.self[spans[s.parent].call] -= d
		}
	}
}

// counts are the sim-domain work counts the replay observes at the same
// boundaries it times.
type counts struct {
	air                         float64
	frames                      int // frames put on air
	slots, samples              int64
	rxOffered, rxOK, rxHuntMiss int // receiver-frames
	channelAt                   int
	codecFor                    int
	steps, adjustments          int
	stalls                      int
	useful                      int // frames that delivered new payload (all desks, for broadcast)
	retx                        int
	deliverCalls                int
	ackLat                      []float64 // sim seconds
	coldTxNs                    []int64   // traced durations of the first transmit after a channel change
}

// ledger owns the replay state, kept warm across ops like the program's
// arenas: every component is reset to its constructed state per session.
type ledger struct {
	tr tracer
	n  counts

	chanPCG, sidePCG, macPCG *rand.PCG
	chanRng, sideRng, macRng *rand.Rand
	sender                   *mac.Sender
	rxSide                   *mac.Receiver
	side                     *mac.SideChannel
	sensor                   *hw.Filter
	rx                       phy.Receiver
	codecs                   map[float64]frame.PayloadCodec
	slots                    []bool

	desks    []*deskState
	acked    map[uint16]uint64 // broadcast: per-seq bitmask of desks that acked
	complete [1 << 16 / 64]uint64

	dlvPCG *rand.PCG
	dlvRng *rand.Rand
}

func newLedger() *ledger {
	return &ledger{codecs: map[float64]frame.PayloadCodec{}, acked: map[uint16]uint64{}}
}

// tslot is the paper's slot time.
const tslot = 8e-6

// reset prepares the shared per-session state: the three RNG streams on
// the session loop's salts, the ARQ sender, receiver and side channel.
func (l *ledger) reset(cfg *smartvlc.SessionConfig, sideSalt, macSalt uint64) error {
	if l.chanPCG == nil {
		l.chanPCG, l.sidePCG, l.macPCG = rand.NewPCG(0, 0), rand.NewPCG(0, 0), rand.NewPCG(0, 0)
		l.chanRng, l.sideRng, l.macRng = rand.New(l.chanPCG), rand.New(l.sidePCG), rand.New(l.macPCG)
	}
	l.chanPCG.Seed(cfg.Seed, 0xC0FFEE)
	l.sidePCG.Seed(cfg.Seed, sideSalt)
	l.macPCG.Seed(cfg.Seed, macSalt)
	var err error
	if l.sender == nil {
		l.sender, err = mac.NewSender(cfg.Window, cfg.PayloadBytes, cfg.AckTimeoutSeconds, l.macRng)
		l.rxSide = mac.NewReceiverSide(cfg.PayloadBytes)
		l.side = mac.NewSideChannel(cfg.SideLatencySeconds, cfg.SideJitterSeconds, cfg.SideLossProb, l.sideRng)
	} else {
		err = l.sender.Reset(cfg.Window, cfg.PayloadBytes, cfg.AckTimeoutSeconds, l.macRng)
		l.rxSide.Reset(cfg.PayloadBytes)
		l.side.Reset(cfg.SideLatencySeconds, cfg.SideJitterSeconds, cfg.SideLossProb, l.sideRng)
	}
	clear(l.codecs)
	return err
}

// controller builds the session's dimming controller, nil for a fixed
// level.
func controller(cfg *smartvlc.SessionConfig) (*light.Controller, error) {
	if cfg.Trace == nil {
		return nil, nil
	}
	stepper := cfg.Stepper
	if stepper == nil {
		stepper = light.PerceivedStepper{TauP: light.DefaultTauP}
	}
	return light.NewController(cfg.TargetSum, stepper)
}

// step runs the controller one step toward the smoothed ambient.
func (l *ledger) step(c *light.Controller, level, ambient float64) float64 {
	if c == nil {
		return level
	}
	l.tr.begin(callLightStep)
	next, stepped := c.StepToward(ambient)
	l.tr.end()
	l.n.steps++
	if stepped {
		l.n.adjustments++
	}
	return next
}

// codecFor is the session's level-keyed codec cache in front of
// scheme.CodecFor, as in the session loops.
func (l *ledger) codecFor(cfg *smartvlc.SessionConfig, level float64) (frame.PayloadCodec, error) {
	if c, ok := l.codecs[level]; ok {
		return c, nil
	}
	l.tr.begin(callCodecFor)
	c, err := cfg.Scheme.CodecFor(level)
	l.tr.end()
	if err != nil {
		return nil, fmt.Errorf("level %v: %w", level, err)
	}
	l.n.codecFor++
	l.codecs[level] = c
	return c, nil
}

// channel rebuilds a link and receiver for a new ambient level.
func (l *ledger) channel(budget photon.LinkBudget, g smartvlc.Geometry, lux float64, rx *phy.Receiver, factory frame.CodecFactory) (phy.Link, error) {
	l.tr.begin(callChannelAt)
	ch, err := budget.ChannelAt(g, lux)
	link := phy.DefaultLink(ch)
	l.tr.end()
	if err != nil {
		return link, err
	}
	l.tr.begin(callRxReset)
	rx.Reset(ch, factory)
	l.tr.end()
	l.n.channelAt++
	return link, nil
}

// build assembles one frame's slot waveform plus the idle gap.
func (l *ledger) build(codec frame.PayloadCodec, body []byte, gap int) ([]bool, error) {
	l.tr.begin(callBuild)
	slots, err := frame.BuildAppend(l.slots[:0], codec, body)
	if err == nil {
		slots = frame.AppendIdle(slots, codec.Level(), gap)
		l.slots = slots
	}
	l.tr.end()
	if err != nil {
		return nil, err
	}
	l.n.frames++
	l.n.slots += int64(len(slots))
	return slots, nil
}

// transmit and receive one frame on one link; cold marks the first
// transmit after a channel change.
func (l *ledger) transmitReceive(link *phy.Link, pcg *rand.PCG, rx *phy.Receiver, slots []bool, cold bool) ([]frame.Result, phy.Stats) {
	l.tr.begin(callTx)
	samples := link.TransmitPCG(pcg, slots)
	l.tr.end()
	if cold && l.tr.on {
		s := l.tr.spans[len(l.tr.spans)-1]
		l.n.coldTxNs = append(l.n.coldTxNs, s.end-s.start)
	}
	l.n.samples += int64(len(samples))
	l.tr.begin(callRx)
	results, st := rx.Process(samples)
	phy.RecycleSamples(samples)
	l.tr.end()
	l.countRx(len(results), st)
	return results, st
}

func (l *ledger) countRx(results int, st phy.Stats) {
	l.n.rxOffered++
	if st.FramesOK > 0 {
		l.n.rxOK++
	}
	if results == 0 && st.FramesBad == 0 {
		l.n.rxHuntMiss++
	}
}

func (l *ledger) sideReceive(now float64) []mac.Message {
	l.tr.begin(callMacSide)
	msgs := l.side.Receive(now)
	l.tr.end()
	return msgs
}

func (l *ledger) sideSend(now float64, m mac.Message) {
	l.tr.begin(callMacSide)
	l.side.Send(now, m)
	l.tr.end()
}

func (l *ledger) onAck(m mac.Message) {
	l.tr.begin(callMacSender)
	lat, known := l.sender.OnAckAt(m.Seq, m.At)
	l.tr.end()
	if known {
		l.n.ackLat = append(l.n.ackLat, lat)
	}
}

func (l *ledger) nextFrame(now float64) (uint16, []byte, bool) {
	l.tr.begin(callMacSender)
	seq, body, ok := l.sender.NextFrame(now)
	l.tr.end()
	if !ok {
		l.n.stalls++
	}
	return seq, body, ok
}

// ambientReport converts the receiver's OFF-window counts to the lux
// report it sends back over the uplink.
func ambientReport(rx *phy.Receiver, b photon.LinkBudget) (float64, bool) {
	c, ok := rx.AmbientWindowCounts()
	if !ok {
		return 0, false
	}
	amb := c/phy.AmbientWindowFraction - b.DarkCounts
	if amb < 0 {
		amb = 0
	}
	return amb / b.AmbientCountsPerLux, true
}

// session replays one observer-free sim.Run session.
func (l *ledger) session(cfg smartvlc.SessionConfig, duration float64) (opStats, error) {
	if cfg.UplinkVLCBitRate > 0 || cfg.Telemetry != nil || cfg.Spans != nil || cfg.Flight != nil ||
		cfg.Prof != nil || cfg.Logs != nil || cfg.Health != nil || cfg.Watch != nil {
		return opStats{}, fmt.Errorf("ledger: only observer-free Wi-Fi sessions replay")
	}
	if err := l.reset(&cfg, 0x51DE, 0xACED); err != nil {
		return opStats{}, err
	}
	ctl, err := controller(&cfg)
	if err != nil {
		return opStats{}, err
	}
	if l.sensor == nil {
		l.sensor = hw.NewFilter(hw.OPT101())
	} else {
		l.sensor.Reset(hw.OPT101())
	}
	factory := cfg.Scheme.Factory()
	level := cfg.FixedLevel
	var link phy.Link
	lastLux := math.Inf(-1)
	cold := false
	now := 0.0
	remoteLux, remoteAt := 0.0, -1.0
	smoothed, smoothedSet, lastStep := 0.0, false, 0.0
	var st opStats
	for now < duration {
		// Adapt: ambient, channel, sensing and one dimming step.
		lux := cfg.AmbientLux
		if cfg.Trace != nil {
			lux = cfg.Trace.LuxAt(now)
		}
		if !(lastLux > 0 && math.Abs(lux-lastLux) <= 0.02*lastLux) {
			if link, err = l.channel(cfg.Budget, cfg.Geometry, lux, &l.rx, factory); err != nil {
				return st, err
			}
			lastLux, cold = lux, true
		}
		src := l.sensor.Step(light.Normalize(lux, cfg.FullLEDLux), 0.01)
		if remoteAt >= 0 && now-remoteAt < 0.5 {
			src = light.Normalize(remoteLux, cfg.FullLEDLux)
		}
		if !smoothedSet {
			smoothed, smoothedSet = src, true
		} else {
			smoothed += (1 - math.Exp(-(now-lastStep)/0.3)) * (src - smoothed)
		}
		lastStep = now
		level = l.step(ctl, level, smoothed)

		// Ack: side-channel deliveries due by now.
		for _, m := range l.sideReceive(now) {
			switch m.Kind {
			case mac.KindAck:
				l.onAck(m)
			case mac.KindAmbientReport:
				remoteLux, remoteAt = m.Lux, m.At
			}
		}
		_, body, ok := l.nextFrame(now)
		if !ok {
			now += cfg.AckTimeoutSeconds / 8
			continue
		}

		// Build, transmit, receive.
		codec, err := l.codecFor(&cfg, level)
		if err != nil {
			return st, err
		}
		slots, err := l.build(codec, body, cfg.IdleGapSlots)
		if err != nil {
			return st, err
		}
		airtime := float64(len(slots)) * tslot
		link.StartPhase = l.chanRng.Float64()
		results, rxStats := l.transmitReceive(&link, l.chanPCG, &l.rx, slots, cold)
		cold = false
		st.OK += rxStats.FramesOK
		st.Bad += rxStats.FramesBad
		for _, r := range results {
			l.tr.begin(callMacReceiver)
			before := l.rxSide.DeliveredPayload()
			seq, ackIt := l.rxSide.OnFrame(r.Payload)
			fresh := l.rxSide.DeliveredPayload() > before
			l.tr.end()
			if !ackIt {
				continue
			}
			if fresh {
				l.n.useful++
			}
			l.sideSend(now+airtime, mac.Message{Kind: mac.KindAck, Seq: seq})
		}
		if lux, ok := ambientReport(&l.rx, cfg.Budget); ok {
			l.sideSend(now+airtime, mac.Message{Kind: mac.KindAmbientReport, Lux: lux})
		}
		now += airtime
	}
	for _, m := range l.sideReceive(now + 1) {
		if m.Kind == mac.KindAck {
			l.onAck(m)
		}
	}
	st.Air = now
	st.Sent = l.sender.FramesSent()
	st.Retx = l.sender.Retransmits()
	st.Goodput = float64(l.sender.AckedPayload()) * 8 / now
	if ctl != nil {
		st.Adjust = ctl.Adjustments()
	}
	l.n.air += now
	l.n.retx += st.Retx
	return st, nil
}

// deskState is one broadcast receiver's replay state.
type deskState struct {
	pcg      *rand.PCG
	rng      *rand.Rand
	link     phy.Link
	rx       phy.Receiver
	macRx    *mac.Receiver
	lastLux  float64
	remote   float64
	reported bool
	cold     bool
}

func (l *ledger) isComplete(seq uint16) bool { return l.complete[seq>>6]&(1<<(seq&63)) != 0 }
func (l *ledger) setComplete(seq uint16, on bool) {
	if on {
		l.complete[seq>>6] |= 1 << (seq & 63)
	} else {
		l.complete[seq>>6] &^= 1 << (seq & 63)
	}
}

// ackFrom records desk i's ack of seq and reports whether every desk has
// now acked it.
func (l *ledger) ackFrom(seq uint16, i, nRx int) bool {
	m := l.acked[seq] | 1<<i
	l.acked[seq] = m
	for ; nRx > 0; nRx-- {
		if m&(1<<(nRx-1)) == 0 {
			return false
		}
	}
	return true
}

// broadcast replays one observer-free sim.RunBroadcast session, the
// per-desk fan-out run serially in desk order.
func (l *ledger) broadcast(cfg smartvlc.BroadcastConfig, duration float64) (opStats, error) {
	nRx := len(cfg.Receivers)
	if nRx == 0 || nRx > 64 {
		return opStats{}, fmt.Errorf("ledger: broadcast replays 1–64 desks, not %d", nRx)
	}
	if err := l.reset(&cfg.Config, 0x51DE2, 0xACED2); err != nil {
		return opStats{}, err
	}
	ctl, err := controller(&cfg.Config)
	if err != nil {
		return opStats{}, err
	}
	for len(l.desks) < nRx {
		l.desks = append(l.desks, &deskState{})
	}
	desks := l.desks[:nRx]
	for i, d := range desks {
		if d.pcg == nil {
			d.pcg = parallel.PCG(cfg.Seed, 0xBEEF00, i)
			d.rng = rand.New(d.pcg)
			d.macRx = mac.NewReceiverSide(cfg.PayloadBytes)
		} else {
			parallel.ReseedPCG(d.pcg, cfg.Seed, 0xBEEF00, i)
			d.macRx.Reset(cfg.PayloadBytes)
		}
		d.lastLux, d.remote, d.reported, d.cold = math.Inf(-1), 0, false, false
	}
	clear(l.acked)
	l.complete = [1 << 16 / 64]uint64{}
	factory := cfg.Scheme.Factory()
	reliable := int64(0)
	level := cfg.FixedLevel
	smoothed, smoothedSet, lastT := 0.0, false, 0.0
	prevRetx := 0
	now := 0.0
	var st opStats
	for now < duration {
		// Adapt: every desk's channel; the controller follows the darkest.
		base := cfg.AmbientLux
		if cfg.Trace != nil {
			base = cfg.Trace.LuxAt(now)
		}
		minAmb := math.Inf(1)
		for i, p := range cfg.Receivers {
			scale := p.AmbientScale
			if scale <= 0 {
				scale = 1
			}
			lux := base * scale
			d := desks[i]
			if !(d.lastLux > 0 && math.Abs(lux-d.lastLux) <= 0.02*d.lastLux) {
				if d.link, err = l.channel(cfg.Budget, p.Geometry, lux, &d.rx, factory); err != nil {
					return st, err
				}
				d.lastLux, d.cold = lux, true
			}
			amb := light.Normalize(lux, cfg.FullLEDLux)
			if d.reported {
				amb = light.Normalize(d.remote, cfg.FullLEDLux)
			}
			minAmb = math.Min(minAmb, amb)
		}
		if !smoothedSet {
			smoothed, smoothedSet = minAmb, true
		} else {
			smoothed += (1 - math.Exp(-(now-lastT)/0.2)) * (minAmb - smoothed)
		}
		lastT = now
		level = l.step(ctl, level, smoothed)

		// Ack: a frame completes when every desk has acked it.
		for _, m := range l.sideReceive(now) {
			switch m.Kind {
			case mac.KindAck:
				if l.isComplete(m.Seq) || !l.ackFrom(m.Seq, m.From, nRx) {
					continue
				}
				l.setComplete(m.Seq, true)
				delete(l.acked, m.Seq)
				reliable += int64(cfg.PayloadBytes)
				l.n.useful++
				l.onAck(m)
			case mac.KindAmbientReport:
				desks[m.From].remote, desks[m.From].reported = m.Lux, true
			}
		}
		seq, body, ok := l.nextFrame(now)
		if !ok {
			now += cfg.AckTimeoutSeconds / 8
			continue
		}
		codec, err := l.codecFor(&cfg.Config, level)
		if err != nil {
			return st, err
		}
		slots, err := l.build(codec, body, cfg.IdleGapSlots)
		if err != nil {
			return st, err
		}
		airtime := float64(len(slots)) * tslot
		if l.sender.Retransmits() == prevRetx {
			// A fresh sequence number supersedes any earlier incarnation.
			l.setComplete(seq, false)
			delete(l.acked, seq)
		}
		prevRetx = l.sender.Retransmits()

		// Transmit and receive at every desk, then its acks and ambient
		// report in desk order (the program's merge order).
		for i, d := range desks {
			d.link.StartPhase = d.rng.Float64()
			results, _ := l.transmitReceive(&d.link, d.pcg, &d.rx, slots, d.cold)
			d.cold = false
			for _, r := range results {
				l.tr.begin(callMacReceiver)
				got, ackIt := d.macRx.OnFrame(r.Payload)
				l.tr.end()
				if ackIt {
					l.sideSend(now+airtime, mac.Message{Kind: mac.KindAck, From: i, Seq: got})
				}
			}
			if lux, ok := ambientReport(&d.rx, cfg.Budget); ok {
				l.sideSend(now+airtime, mac.Message{Kind: mac.KindAmbientReport, From: i, Lux: lux})
			}
		}
		now += airtime
	}
	for _, m := range l.sideReceive(now + 1) {
		if m.Kind != mac.KindAck || l.isComplete(m.Seq) {
			continue
		}
		if l.ackFrom(m.Seq, m.From, nRx) {
			l.setComplete(m.Seq, true)
			reliable += int64(cfg.PayloadBytes)
			l.n.useful++
		}
	}
	st.Air = now
	st.Sent = l.sender.FramesSent()
	st.Retx = l.sender.Retransmits()
	st.Goodput = float64(reliable) * 8 / now
	for _, d := range desks {
		st.OK += int(d.macRx.DeliveredPayload()) / cfg.PayloadBytes
	}
	if ctl != nil {
		st.Adjust = ctl.Adjustments()
	}
	l.n.air += now
	l.n.retx += st.Retx
	return st, nil
}

// Stream constants mirrored from the facade: chunk payload, attempts per
// chunk and the Deliver path's second PCG seed word.
const (
	streamChunkBytes  = 126
	streamMaxAttempts = 20
	deliverStreamKey  = 0xDE11FE6
)

// stream replays one stream op — a Stream.Write of each file segment at
// its level, then the Read: each chunk attempt builds a frame with
// System.BuildFrame and runs the Deliver path's channel, transmit and
// receive calls.
func (l *ledger) stream(sys *smartvlc.System, in streamInput) (opStats, []byte, error) {
	if l.dlvPCG == nil {
		l.dlvPCG = rand.NewPCG(0, 0)
		l.dlvRng = rand.New(l.dlvPCG)
	}
	g := smartvlc.Aligned(streamDistanceM, 0)
	budget := photon.DefaultLinkBudget()
	factory := sys.Scheme().Factory()
	seed := in.seed
	chunk := uint32(0)
	var st opStats
	airSlots := 0
	got := make([]byte, 0, len(in.file))
	body := make([]byte, 0, 4+streamChunkBytes)
	for k, level := range streamLevels {
		seg := segment(in.file, k)
		for off := 0; off < len(seg); off, chunk = off+streamChunkBytes, chunk+1 {
			body = binary.BigEndian.AppendUint32(body[:0], chunk)
			body = append(body, seg[off:min(off+streamChunkBytes, len(seg))]...)
			delivered := false
			for attempt := 0; attempt < streamMaxAttempts && !delivered; attempt++ {
				l.tr.begin(callBuild)
				slots, err := sys.BuildFrame(level, body)
				l.tr.end()
				if err != nil {
					return st, nil, err
				}
				st.Sent++
				l.n.frames++
				l.n.slots += int64(len(slots))
				airSlots += len(slots)
				seed++

				l.tr.begin(callDeliver)
				link, err := l.channel(budget, g, in.ambient, &l.rx, factory)
				if err != nil {
					l.tr.end()
					return st, nil, err
				}
				l.dlvPCG.Seed(seed, deliverStreamKey)
				link.StartPhase = l.dlvRng.Float64()
				results, _ := l.transmitReceive(&link, l.dlvPCG, &l.rx, slots, true)
				l.tr.end()
				l.n.deliverCalls++

				for _, r := range results {
					if len(r.Payload) >= 4 && bytes.Equal(r.Payload[:4], body[:4]) {
						got = append(got, r.Payload[4:]...)
						delivered = true
						break
					}
				}
				if !delivered {
					st.Retx++
				}
			}
			if !delivered {
				return st, got, fmt.Errorf("ledger: chunk %d undeliverable after %d attempts", chunk, streamMaxAttempts)
			}
			st.OK++
			l.n.useful++
		}
	}
	st.Air = float64(airSlots) * tslot
	st.Goodput = float64(len(got)) * 8 / st.Air
	l.n.air += st.Air
	l.n.retx += st.Retx
	return st, got, nil
}

// ---- per-workload replays -------------------------------------------

func ledgerFig15(inst instance, l *ledger, i int) (opStats, error) {
	w := inst.(*fig15)
	return l.session(w.config(i), fig15Air)
}

func ledgerOffice(inst instance, l *ledger, i int) (opStats, error) {
	w := inst.(*office)
	cfgs, _, err := w.configs(i, 0)
	if err != nil {
		return opStats{}, err
	}
	var st opStats
	for _, cfg := range cfgs {
		s, err := l.session(cfg, officeAir)
		if err != nil {
			return st, err
		}
		s.Goodput /= float64(len(cfgs))
		st.add(s)
	}
	return st, nil
}

func ledgerClassroom(inst instance, l *ledger, i int) (opStats, error) {
	w := inst.(*classroom)
	st, err := l.broadcast(w.config(i, 1), classAir)
	// BroadcastResult reports no retransmission count to compare against;
	// the replay's count still feeds mac.retx_ratio through l.n.
	st.Retx = 0
	return st, err
}

func ledgerStream(inst instance, l *ledger, i int) (opStats, error) {
	w := inst.(*stream)
	in := w.input(i, nil)
	st, got, err := l.stream(w.sys, in)
	if err == nil && !bytes.Equal(got, in.file) {
		err = fmt.Errorf("ledger: stream replay delivered bytes that differ from the file")
	}
	return st, err
}

// sameOutcome compares the simulated outcome fields a replay reproduces.
func sameOutcome(a, b opStats) bool {
	return a.Air == b.Air && a.Goodput == b.Goodput && a.Sent == b.Sent &&
		a.OK == b.OK && a.Bad == b.Bad && a.Retx == b.Retx && a.Adjust == b.Adjust
}
