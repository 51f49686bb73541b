package sim

import (
	"fmt"
	"math"
	"strings"

	"smartvlc/internal/light"
	"smartvlc/internal/mac"
	"smartvlc/internal/optics"
	"smartvlc/internal/stats"
	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/health"
	"smartvlc/internal/telemetry/prof"
	"smartvlc/internal/telemetry/span"
	"smartvlc/internal/telemetry/vlog"
)

// ReceiverPose places one receiver of a broadcast session.
type ReceiverPose struct {
	// Geometry is this receiver's pose relative to the luminaire.
	Geometry optics.Geometry
	// AmbientScale scales the session's ambient trace at this desk (a
	// receiver near the window sees more sunlight than one in a corner).
	// Zero means 1.
	AmbientScale float64
}

func (p ReceiverPose) scale() float64 {
	if p.AmbientScale <= 0 {
		return 1
	}
	return p.AmbientScale
}

// BroadcastConfig extends Config to several receivers under one
// luminaire — the paper's architecture (Fig. 2) has receivers plural:
// each senses ambient light and acknowledges frames over the Wi-Fi
// uplink. The embedded Config's Geometry is ignored, and RunBroadcast
// rejects the single-link facilities Flight, Watch and UplinkVLCBitRate.
type BroadcastConfig struct {
	Config
	// Receivers lists the receiver poses; at least one is required.
	Receivers []ReceiverPose
	// Workers bounds the goroutines used for the per-receiver PHY work of
	// each frame window. Zero or one keeps the session single-threaded; a
	// negative value selects GOMAXPROCS. Results and every snapshot are
	// byte-identical for every value.
	Workers int
}

// ReceiverOutcome summarizes one receiver's session.
type ReceiverOutcome struct {
	// FramesOK counts the distinct frames this receiver delivered: its
	// unique payload divided by PayloadBytes. Retransmitted duplicates it
	// decoded again do not count (phy_rx_frames_total{outcome=ok} does).
	FramesOK int
	// DeliveredBps is this receiver's unique-payload rate.
	DeliveredBps float64
	// MeanSum is the mean of ambient+LED at this desk, in LED units.
	MeanSum float64
	// Health is this receiver's link-health snapshot (link label "rx<i>")
	// when Config.Health was set; nil otherwise.
	Health *health.Snapshot
}

// BroadcastResult aggregates a broadcast session.
type BroadcastResult struct {
	// Duration is the simulated air time.
	Duration float64
	// ReliableGoodputBps counts only frames acknowledged by EVERY
	// receiver (reliable multicast semantics).
	ReliableGoodputBps float64
	// PerReceiver holds each receiver's outcome.
	PerReceiver []ReceiverOutcome
	// Adjustments is the cumulative LED step count.
	Adjustments int
	// FramesSent includes retransmissions.
	FramesSent int
	// LED is the luminaire level over time.
	LED stats.Series
	// Telemetry is the session's metrics snapshot when Config.Telemetry
	// was set; nil otherwise.
	Telemetry *telemetry.Snapshot
	// Spans is the session's span snapshot when Config.Spans was set; nil
	// otherwise. Per-receiver channel, hunt and decode spans carry an "rx"
	// attribute and are byte-identical for every Workers value: each
	// receiver's are recorded from its events in receiver order, exactly
	// like the side-channel outbox replay.
	Spans *span.Snapshot
	// Health merges the per-receiver health series (counts summed, rates
	// recomputed, SLOs re-evaluated over the merged series) when
	// Config.Health was set; nil otherwise. Per-receiver snapshots stay on
	// PerReceiver[i].Health. All health observations happen in the
	// sequential merge phase, so the series are byte-identical for every
	// Workers value.
	Health *health.Snapshot
	// Prof is the session's stage-cost snapshot when Config.Prof was set;
	// nil otherwise. Receiver-side stages carry shard "rx<i>", so the
	// profile attributes PHY cost per receiver; the commuting atomic adds
	// keep it byte-identical for every Workers value.
	Prof *prof.Snapshot
	// Logs is the session's structured log snapshot when Config.Logs was
	// set; nil otherwise. Receiver-side records carry shard "rx<i>" and
	// are byte-identical for every Workers value: like the spans, each
	// receiver's records are rendered from its events in receiver order.
	Logs *vlog.Snapshot
}

// RunBroadcast simulates a multi-receiver session. The dimming controller
// follows the *minimum* ambient reported across receivers, so every desk
// reaches at least the target illumination; frames are retransmitted
// until all receivers acknowledge them. When the stage profiler is armed
// the session body executes under pprof goroutine labels, like Run.
// RunBroadcast allocates the session's working state fresh; Arena.
// RunBroadcast rents it from a warm arena instead, byte-identically.
func RunBroadcast(cfg BroadcastConfig, duration float64) (BroadcastResult, error) {
	return NewArena().RunBroadcast(cfg, duration)
}

// runBroadcast is RunBroadcast's policy on the shared session engine:
// one receiver shard per desk. The dimming controller follows the
// darkest desk's last ambient report, and a frame counts once every
// receiver has acknowledged it.
func runBroadcast(cfg BroadcastConfig, duration float64, a *Arena) (BroadcastResult, error) {
	if len(cfg.Receivers) == 0 {
		return BroadcastResult{}, fmt.Errorf("sim: broadcast needs at least one receiver")
	}
	var unsupported []string
	if cfg.Flight != nil {
		unsupported = append(unsupported, "Config.Flight")
	}
	if cfg.Watch != nil {
		unsupported = append(unsupported, "Config.Watch")
	}
	if cfg.UplinkVLCBitRate > 0 {
		unsupported = append(unsupported, "Config.UplinkVLCBitRate")
	}
	if len(unsupported) > 0 {
		return BroadcastResult{}, fmt.Errorf("sim: broadcast sessions do not support %s", strings.Join(unsupported, ", "))
	}
	s, err := a.open(cfg.Config, duration, broadcastMode, cfg.Receivers, cfg.Workers)
	if err != nil {
		return BroadcastResult{}, err
	}
	defer s.close()
	nRx := len(s.shards)

	// Reliable multicast bookkeeping: which receivers acked each frame,
	// which frames every receiver has acked, and each sequence number's
	// first transmission time (the origin of a receiver's ACK latency,
	// spanning retransmissions) — ring/bitmap-backed over the 16-bit
	// sequence space, so steady-state sessions stop growing the heap with
	// traffic.
	acked, complete, firstTx := a.rentBcBookkeeping(nRx)
	reliableBytes := int64(0)
	// ack counts a frame once its last receiver's ACK lands: reliable
	// bytes, the sender's ACK (window, counter, latency) and its record.
	// Every receiver has delivered (and been observed) by then, so the
	// latency origin can go.
	ack := func(m mac.Message) {
		if complete.has(m.Seq) || acked.add(m.Seq, m.From) < nRx {
			return
		}
		complete.set(m.Seq)
		acked.drop(m.Seq)
		reliableBytes += int64(cfg.PayloadBytes)
		lat, known := s.sender.OnAckAt(m.Seq, m.At)
		firstTx.drop(m.Seq)
		s.emit(&record{kind: recAck, at: m.At, seq: m.Seq, latency: lat, ok: known, shard: -1})
	}

	var res BroadcastResult
	lastRecord := -1.0
	for s.now < duration {
		baseLux, err := s.tick()
		if err != nil {
			return BroadcastResult{}, err
		}
		// The controller follows the minimum ambient across desks, using
		// remote reports where available.
		minAmb := math.Inf(1)
		for _, sh := range s.shards {
			amb := light.Normalize(baseLux*sh.scale, cfg.FullLEDLux)
			if sh.reported {
				amb = light.Normalize(sh.remote, cfg.FullLEDLux)
			}
			minAmb = math.Min(minAmb, amb)
		}
		s.adapt(minAmb, 0.2)

		if s.now-lastRecord >= 0.25 {
			lastRecord = s.now
			res.LED.Add(s.now, s.level)
			for _, sh := range s.shards {
				sh.sumAcc += light.Normalize(baseLux*sh.scale, cfg.FullLEDLux) + s.level
				sh.sumN++
			}
		}

		for _, m := range s.side.Receive(s.now) {
			switch m.Kind {
			case mac.KindAck:
				ack(m)
			case mac.KindAmbientReport:
				s.shards[m.From].remote, s.shards[m.From].reported = m.Lux, true
			}
		}

		seq, body, ok := s.next()
		if !ok {
			s.now += cfg.AckTimeoutSeconds / 8
			continue
		}
		end, err := s.transmit(seq, body)
		if err != nil {
			return BroadcastResult{}, err
		}
		if s.sender.LastDecision().Kind == mac.Fresh {
			// A fresh sequence number supersedes any prior incarnation
			// (post-wrap reuse): forget its completed/acked state so late
			// bookkeeping from the old incarnation can't leak into the new
			// one. Before the seq space wraps these are no-ops.
			complete.clear(seq)
			acked.drop(seq)
			firstTx.set(seq, s.now)
		}
		// Deterministic merge in receiver order. Each desk's ACK latency
		// runs from the sequence number's first transmission to the
		// frame's end.
		for i, sh := range s.shards {
			lat := a.ackLat[:0]
			for _, newSeq := range sh.out.newSeqs {
				if ft, known := firstTx.get(newSeq); known {
					lat = append(lat, end-ft)
				}
			}
			a.ackLat = lat
			if err := s.merge(i, end, lat); err != nil {
				return BroadcastResult{}, err
			}
		}
		s.now = end
	}
	// Drain trailing acks, like the single link, so goodput and the ACK
	// record reflect everything delivered.
	for _, m := range s.side.Receive(s.now + 1) {
		if m.Kind == mac.KindAck {
			ack(m)
		}
	}

	now := s.now
	res.Duration = now
	res.FramesSent = s.sender.FramesSent()
	res.ReliableGoodputBps = float64(reliableBytes) * 8 / now
	if s.controller != nil {
		res.Adjustments = s.controller.Adjustments()
	}
	res.Telemetry, res.Spans, res.Prof, res.Logs, err = s.finish(&record{kind: recEnd, at: now, goodput: res.ReliableGoodputBps, tally: []tally{
		{"frames_sent", res.FramesSent}, {"receivers", nRx},
	}})
	if err != nil {
		return BroadcastResult{}, err
	}
	for _, sh := range s.shards {
		o := ReceiverOutcome{
			FramesOK:     int(sh.macRx.DeliveredPayload()) / cfg.PayloadBytes,
			DeliveredBps: float64(sh.macRx.DeliveredPayload()) * 8 / now,
			Health:       sh.health,
		}
		if sh.sumN > 0 {
			o.MeanSum = sh.sumAcc / float64(sh.sumN)
		}
		res.PerReceiver = append(res.PerReceiver, o)
	}
	if cfg.Health != nil {
		perRx := make([]*health.Snapshot, 0, nRx)
		for _, o := range res.PerReceiver {
			perRx = append(perRx, o.Health)
		}
		res.Health = health.Merge(perRx...)
	}
	return res, nil
}
