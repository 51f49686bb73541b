package sim

import (
	"context"
	"encoding/hex"
	"strconv"
	"strings"

	"smartvlc/internal/frame"
	"smartvlc/internal/light"
	"smartvlc/internal/mac"
	"smartvlc/internal/parallel"
	"smartvlc/internal/phy"
	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/flight"
	"smartvlc/internal/telemetry/health"
	"smartvlc/internal/telemetry/prof"
	"smartvlc/internal/telemetry/span"
	"smartvlc/internal/telemetry/vlog"
)

// This file is the one seam between the session engine and its
// observers: emit folds each record the loop emits into every armed
// pillar — metrics, spans, logs, health, the stage profiler, the flight
// recorder and the watch feed. No other code of a running session calls
// them, except the shard step attaching the PHY profiler handles and
// taking the flight capture. Within a record the folds run in an order
// that is part of the output (DESIGN.md §20):
//
//   - the flight trigger snapshots the registry after the frame's
//     receiver counters, spans and logs, and before health's ObserveRx,
//     the delivered counter and the uplink datagrams;
//   - a critical SLO transition found in frame k ships its bundle at
//     frame k+1;
//   - health observes after a record's logs, so an SLO log lands right
//     after the log of the observation that fired it;
//   - span IDs follow record order, and logs and exemplars carry the
//     frame's root span.

// observers is what the folds write: the pillars a Config arms and the
// handles and state folding them needs.
type observers struct {
	armed bool // some pillar is set; an unarmed session folds nothing
	reg   *telemetry.Registry
	// col is Config.Spans, or an internal collector when only the flight
	// recorder is armed (bundles embed the frame trees either way).
	col *span.Collector
	lg  *vlog.Logger

	txm *phy.TxMetrics
	rxm *phy.RxMetrics
	// The MAC's and the session's handles.
	timeouts, stalls, acks, sideSent, sideDropped, framesTx, delivered *telemetry.Counter
	occupancy, ackLatency, airtimeH                                    *telemetry.Histogram
	levelG                                                             *telemetry.Gauge

	// dim is the dimming level the observers last saw; cur is the frame
	// in flight and root its span.
	dim   float64
	cur   record
	root  span.ID
	roots *seqRing[span.ID]

	levels  map[float64]*levelProf // keyed by the raw level, like the codecs
	curProf *levelProf

	pendingSLO []health.Transition // critical transitions awaiting a flight bundle
	err        error               // the first flight bundle that failed
}

// observersOf arms the pillars cfg sets.
func observersOf(cfg *Config) observers {
	o := observers{
		armed: cfg.Telemetry != nil || cfg.Spans != nil || cfg.Flight != nil || cfg.Prof != nil ||
			cfg.Logs != nil || cfg.Health != nil,
		reg: cfg.Telemetry, col: cfg.Spans, lg: cfg.Logs, dim: cfg.FixedLevel,
	}
	if cfg.Flight != nil && o.col == nil {
		o.col = span.NewCollector()
	}
	return o
}

// emit folds r into every armed pillar.
func (s *session) emit(r *record) {
	if !s.armed {
		return
	}
	switch r.kind {
	case recStart:
		s.foldStart()
	case recLevel:
		s.foldLevel(r)
	case recChannel:
		s.rxm.OnChannel(r.threshold)
	case recStall:
		s.occupancy.Observe(float64(r.sent.InFlight))
		s.stalls.Inc()
		if s.lg.Enabled(vlog.Debug) {
			s.lg.Record(vlog.Record{
				At: r.at, Level: vlog.Debug, Stage: "mac/window",
				Msg: "window full, sender idle", Seq: -1,
				Attrs: []vlog.Attr{{Key: "in_flight", Value: strconv.Itoa(r.sent.InFlight)}},
			})
		}
	case recFrame:
		s.foldFrame(r)
	case recRx:
		s.foldRx(r)
	case recDatagram:
		s.foldDatagram(r)
	case recAck:
		s.foldAck(r)
	case recSLO:
		s.foldSLO(r)
	}
}

// foldStart registers the session's series and arms the per-shard health
// monitors and the profiler's level cache.
func (s *session) foldStart() {
	reg, cfg := s.reg, &s.cfg
	// Every constructor returns nil on a nil registry and every nil handle
	// is a no-op, so the folds carry them unconditionally.
	s.txm, s.rxm = phy.NewTxMetrics(reg), phy.NewRxMetrics(reg)
	if s.controller != nil {
		s.controller.Metrics = light.NewMetrics(reg)
	}
	reg.Help("mac_timeouts_total", "ARQ retransmissions triggered by ACK timeout.")
	reg.Help("mac_window_occupancy", "In-flight frames observed at each NextFrame decision.")
	reg.Help("mac_side_messages_total", "Side-channel datagrams by outcome (sent vs dropped).")
	reg.Help("mac_ack_latency_seconds", "First transmission to ACK delay per unique sequence number.")
	reg.Help("sim_frame_airtime_slots", "On-air length of each transmitted frame, in slots (including the idle gap).")
	reg.Help(s.m.goodput, s.m.goodputHelp)
	s.timeouts = reg.Counter("mac_timeouts_total")
	s.occupancy = reg.Histogram("mac_window_occupancy")
	s.stalls = reg.Counter("mac_window_stalls_total")
	s.acks = reg.Counter("mac_acks_received_total")
	s.sideSent = reg.Counter("mac_side_messages_total", "outcome", "sent")
	s.sideDropped = reg.Counter("mac_side_messages_total", "outcome", "dropped")
	s.ackLatency = reg.Histogram("mac_ack_latency_seconds")
	s.framesTx = reg.Counter("sim_frames_tx_total")
	s.airtimeH = reg.Histogram("sim_frame_airtime_slots")
	s.levelG = reg.Gauge("sim_dimming_level")
	if s.m.countDelivered {
		s.delivered = reg.Counter("sim_delivered_bytes_total")
	}

	if s.lg.Enabled(vlog.Info) {
		attrs := []vlog.Attr{
			{Key: "seed", Value: strconv.FormatUint(cfg.Seed, 10)},
			{Key: "window", Value: strconv.Itoa(cfg.Window)},
			{Key: "payload_bytes", Value: strconv.Itoa(cfg.PayloadBytes)},
		}
		if s.m.labelled {
			attrs = append(attrs, vlog.Attr{Key: "receivers", Value: strconv.Itoa(len(s.shards))})
		}
		s.lg.Record(vlog.Record{
			At: 0, Level: vlog.Info, Stage: "sim/session", Msg: "session start", Seq: -1,
			Scheme: s.schemeName, Dim: fmtAttr(s.dim), Attrs: attrs,
		})
	}
	if cfg.Prof != nil {
		s.levels = s.a.rentLevels()
	}
	s.roots = s.a.rentRoots(s.col != nil)

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
			if s.m.labelled {
				hc.Link = sh.name
			}
			if cfg.Flight != nil || s.lg != nil {
				hc.OnAlert = s.onAlert(hc.OnAlert)
			}
			sh.mon = health.NewMonitor(hc)
		}
	}
}

// onAlert wraps a health config's alert callback so every SLO state
// change is emitted as a record.
func (s *session) onAlert(user func(health.Transition)) func(health.Transition) {
	return func(t health.Transition) {
		if user != nil {
			user(t)
		}
		s.emit(&record{kind: recSLO, at: t.At, tr: t})
	}
}

// foldLevel moves the observers to a frame boundary. The watch feed
// flushes its window before the gauge takes the new level, and health
// seals the elapsed buckets before the logs take it, so an SLO
// transition found at the boundary logs the level its bucket ran at.
func (s *session) foldLevel(r *record) {
	s.cfg.Watch.Tick(r.at, s.reg)
	for _, sh := range s.shards {
		sh.mon.ObserveLevel(r.at, r.level)
	}
	s.dim = r.level
	if r.level != r.from && s.lg.Enabled(vlog.Debug) {
		s.lg.Record(vlog.Record{
			At: r.at, Level: vlog.Debug, Stage: "sim/dim",
			Msg: "dimming level adjusted", Seq: -1,
			Scheme: s.schemeName, Dim: fmtAttr(r.level),
			Attrs: []vlog.Attr{{Key: "from", Value: fmtAttr(r.from)}},
		})
	}
	s.levelG.Set(r.level)
}

// foldFrame records a frame going on air: its span tree first, whose root
// the metrics' exemplar and every later record of the frame carry, then
// the sender's decision and the frame in the metrics, the profiler and
// the logs, then health.
func (s *session) foldFrame(r *record) {
	s.cur = *r
	retx := r.sent.Kind == mac.Retransmit
	end := r.at + float64(r.slots)*tslot
	seq := int64(r.seq)

	// Root span for this transmission; a retransmission chains onto the
	// previous transmission's root.
	s.root = 0
	if s.col != nil {
		var parent span.ID
		if retx {
			parent, _ = s.roots.get(r.seq)
		}
		desc := r.codec.Descriptor()
		s.root = s.col.Record(span.Span{
			Name: "frame", Parent: parent, Seq: seq, Start: r.at, End: end,
			Attrs: []span.Attr{
				{Key: "level", Value: fmtAttr(r.level)},
				{Key: "scheme", Value: s.schemeName},
				{Key: "pattern", Value: hex.EncodeToString(desc[:])},
				{Key: "slots", Value: strconv.Itoa(r.slots)},
			},
		})
		s.roots.set(r.seq, s.root)
		s.col.Record(span.Span{Name: "frame/build", Parent: s.root, Seq: seq, Start: r.at, End: r.at})
		if retx {
			s.col.Record(span.Span{Name: "mac/retx", Parent: s.root, Seq: seq, Start: r.at, End: r.at})
		}
		s.col.Record(span.Span{Name: "frame/tx", Parent: s.root, Seq: seq, Start: r.at, End: end})
	}

	s.occupancy.Observe(float64(r.sent.InFlight))
	if retx {
		s.timeouts.Inc()
	}
	s.framesTx.Inc()
	// Exemplar: an airtime outlier bucket jumps to the frame's root span.
	s.airtimeH.ObserveExemplar(float64(r.slots), telemetry.Exemplar{At: r.at, Seq: seq, Span: int64(s.root)})

	if s.cfg.Prof != nil {
		// The MAC stage counts each frame under the level handles the
		// frame before it switched to (none for the first frame).
		if lp := s.curProf; lp != nil {
			lp.mac.Ops(1)
			lp.mac.Bytes(int64(r.bytes))
		}
		lp := s.levelProf(r.codec, r.level)
		lp.frame.Ops(1)
		lp.frame.Slots(int64(r.slots))
		lp.frame.Bytes(int64(r.bytes))
		lp.frame.Symbols(lp.symbols)
		if r.grew {
			lp.frame.Allocs(1)
		}
	}

	if retx && s.lg.Enabled(vlog.Warn) {
		s.lg.Record(vlog.Record{
			At: r.at, Level: vlog.Warn, Stage: "mac/retx",
			Msg: "ack timeout, retransmitting", Seq: seq,
			Attrs: []vlog.Attr{
				{Key: "age_s", Value: fmtAttr(r.sent.Age)},
				{Key: "in_flight", Value: strconv.Itoa(r.sent.InFlight)},
			},
		})
	}
	// Scratch growth keys on the virtual high-water mark, so warm arena
	// runs log the same growth events a fresh run would.
	if r.grew && s.lg.Enabled(vlog.Debug) {
		s.lg.Record(vlog.Record{
			At: r.at, Level: vlog.Debug, Stage: "sim/arena",
			Msg: "frame slot scratch grew", Seq: seq,
			Attrs: []vlog.Attr{{Key: "slots", Value: strconv.Itoa(r.slots)}},
		})
	}

	for _, sh := range s.shards {
		sh.mon.ObserveTx(r.at, r.slots, retx)
	}
}

// foldRx records one shard's receiver outcome of the frame in flight: its
// events as counters, spans and logs, then the flight trigger, then
// health and the delivered payload.
func (s *session) foldRx(r *record) {
	sh := s.shards[r.shard]
	f := &s.cur
	seq := int64(f.seq)
	st := &r.stats
	if st.FramesOK > 0 && s.curProf != nil {
		sh.prof.decode.Symbols(s.curProf.symbols * int64(st.FramesOK))
	}
	s.rxm.Observe(r.events)
	if s.col != nil {
		var extra []span.Attr
		if s.m.labelled {
			extra = sh.attrs
		}
		s.col.Record(span.Span{
			Name: "frame/channel", Parent: s.root, Seq: seq,
			Start: f.at, End: f.at + float64(r.samples)*tsamp, Attrs: extra,
		})
		phy.RecordSpans(s.col, r.events, s.root, seq, f.at, tsamp, extra...)
	}
	phy.RecordLogs(s.lg, r.events, int64(s.root), seq, s.label(sh), f.at, tsamp)

	if fl := s.cfg.Flight; fl != nil {
		reason := ""
		switch {
		case len(s.pendingSLO) > 0:
			// An SLO breach outranks the per-frame reasons: it is the
			// rarer event and names the objective that burned.
			reason = "slo_" + s.pendingSLO[0].Objective
			s.pendingSLO = s.pendingSLO[:0]
		case st.FramesBad > 0:
			reason = "decode"
		case st.FramesOK == 0: // every decoded frame counts as ok
			reason = "hunt"
		case fl.Config().SERThreshold > 0 && st.SymbolErrors >= fl.Config().SERThreshold:
			reason = "ser"
		case f.sent.Kind == mac.Retransmit:
			reason = "ack_timeout"
		}
		if reason != "" {
			if err := s.trigger(reason, phy.DecodeClass(r.events), seq, s.root, r.at); err != nil {
				s.err = err
				return
			}
		}
	}

	// Health takes the decoded payload bytes as the symbol-count proxy
	// the paper's Eq. 3 SER bound is stated against.
	sh.mon.ObserveRx(r.at, st.FramesOK, st.FramesBad, st.SymbolErrors, st.FramesOK*s.cfg.PayloadBytes)
	s.delivered.Add(int64(len(r.seqs) * s.cfg.PayloadBytes))
	for range r.seqs {
		sh.mon.ObserveDelivered(r.at, int64(s.cfg.PayloadBytes)*8)
	}
	for _, lat := range r.lat {
		sh.mon.ObserveAck(r.at, lat)
	}
}

// foldDatagram records an uplink datagram from send to arrival, or to its
// drop.
func (s *session) foldDatagram(r *record) {
	m := &r.msg
	outcome, end := "delivered", m.At
	if r.ok {
		s.sideSent.Inc()
	} else {
		s.sideDropped.Inc()
		outcome, end = "dropped", r.at
	}
	if s.col != nil {
		seq, kind := int64(-1), "other" // only ACKs belong to a frame
		switch m.Kind {
		case mac.KindAck:
			seq, kind = int64(m.Seq), "ack"
		case mac.KindAmbientReport:
			kind = "ambient"
		}
		s.col.Record(span.Span{
			Name: "mac/side", Seq: seq, Start: r.at, End: end,
			Attrs: []span.Attr{{Key: "kind", Value: kind}, {Key: "outcome", Value: outcome}},
		})
	}
}

// foldAck records an acknowledgment the policy counted: the sender's
// counters and latency, with an exemplar linking the histogram's tail to
// the frame's root span, its log, its health observation and the mac/ack
// span.
func (s *session) foldAck(r *record) {
	seq := int64(r.seq)
	root, _ := s.roots.get(r.seq)
	s.acks.Inc()
	if r.ok {
		s.ackLatency.ObserveExemplar(r.latency, telemetry.Exemplar{At: r.at, Seq: seq, Span: int64(root)})
		if s.lg.Enabled(vlog.Debug) {
			s.lg.Record(vlog.Record{
				At: r.at, Level: vlog.Debug, Stage: "mac/ack",
				Msg: "ack accepted", Seq: seq,
				Attrs: []vlog.Attr{{Key: "latency_s", Value: fmtAttr(r.latency)}},
			})
		}
		if r.shard >= 0 {
			s.shards[r.shard].mon.ObserveAck(r.at, r.latency)
		}
	}
	s.col.Record(span.Span{Name: "mac/ack", Parent: root, Seq: seq, Start: r.at, End: r.at})
}

// foldSLO logs an SLO state change at the severity of the state it
// enters, with the burn-rate context that justified it, and parks a
// critical one for the flight recorder so every breach ships a
// replayable bundle.
func (s *session) foldSLO(r *record) {
	t := &r.tr
	if lv := sloLogLevel(t.To); s.lg.Enabled(lv) {
		s.lg.Record(vlog.Record{
			At: t.At, Level: lv, Stage: "sim/slo",
			Msg: "slo " + t.Objective + ": " + t.From.String() + " -> " + t.To.String(),
			Seq: -1, Shard: t.Link, Scheme: s.schemeName, Dim: fmtAttr(s.dim),
			Attrs: []vlog.Attr{
				{Key: "burn_fast", Value: fmtAttr(t.BurnFast)},
				{Key: "burn_slow", Value: fmtAttr(t.BurnSlow)},
				{Key: "value", Value: fmtAttr(t.Value)},
				{Key: "target", Value: fmtAttr(t.Target)},
			},
		})
	}
	if s.cfg.Flight != nil && t.To == health.StateCritical {
		s.pendingSLO = append(s.pendingSLO, *t)
	}
}

// finish folds the session's end record into the snapshots its result
// carries: health finishes every shard (leaving its snapshot on the
// shard) and may ship the last SLO bundle; the profile is mirrored into
// the registry, so fleet aggregation carries stage costs through
// telemetry.Merge; the goodput and duration gauges and the watch feed's
// final partial window land before the registry snapshot; the session's
// end is logged last.
func (s *session) finish(r *record) (tel *telemetry.Snapshot, spans *span.Snapshot, pr *prof.Snapshot, logs *vlog.Snapshot, err error) {
	if !s.armed {
		return
	}
	for _, sh := range s.shards {
		sh.health = sh.mon.Finish(r.at)
	}
	if len(s.pendingSLO) > 0 {
		// A critical transition in the run's last instants may not have met
		// a later frame to consume it; it still ships a bundle.
		if err = s.trigger("slo_"+s.pendingSLO[0].Objective, "", -1, 0, r.at); err != nil {
			return
		}
	}
	if p := s.cfg.Prof; p != nil {
		p.Publish(s.reg)
		pr = p.Snapshot()
	}
	if s.reg != nil {
		s.reg.Gauge(s.m.goodput).Set(r.goodput)
		s.reg.Gauge("sim_duration_seconds").Set(r.at)
		s.cfg.Watch.Finish(r.at, s.reg)
		tel = s.reg.Snapshot()
	}
	if s.cfg.Spans != nil {
		spans = s.cfg.Spans.Snapshot()
	}
	if s.lg.Enabled(vlog.Info) {
		attrs := []vlog.Attr{{Key: strings.TrimPrefix(s.m.goodput, "sim_"), Value: fmtAttr(r.goodput)}}
		for _, t := range r.tally {
			attrs = append(attrs, vlog.Attr{Key: t.key, Value: strconv.Itoa(t.n)})
		}
		s.lg.Record(vlog.Record{
			At: r.at, Level: vlog.Info, Stage: "sim/session", Msg: "session end", Seq: -1,
			Scheme: s.schemeName, Dim: fmtAttr(s.dim), Attrs: attrs,
		})
	}
	return tel, spans, pr, logSnap(s.lg), nil
}

// capture hands shard i's frame window to the flight recorder's ring.
func (s *session) capture(i int, samples []int) {
	s.cfg.Flight.Observe(flight.Capture{
		Seq: int64(s.seq), Rx: i, Start: s.now, Level: s.level,
		Threshold: s.shards[i].rx.Threshold(), Slots: s.slots, Samples: samples,
	})
}

// trigger writes a flight bundle for reason at sim time at, logging the
// trigger first so the bundle's own logs.ndjson tail ends with the record
// explaining it. Frame triggers carry the frame's seq, root span and
// decode class; the end-of-session SLO trigger passes seq -1 and no
// class.
func (s *session) trigger(reason, class string, seq int64, root span.ID, at float64) error {
	if s.lg.Enabled(vlog.Warn) {
		r := vlog.Record{
			At: at, Level: vlog.Warn, Stage: "sim/flight", Msg: "flight bundle triggered: " + reason,
			Seq: seq, Span: int64(root), Scheme: s.schemeName, Dim: fmtAttr(s.dim),
		}
		if class != "" {
			r.Attrs = []vlog.Attr{{Key: "class", Value: class}}
		}
		s.lg.Record(r)
	}
	var msnap *telemetry.Snapshot
	if s.reg != nil {
		msnap = s.reg.Snapshot()
	}
	meta := flight.Meta{
		Reason: reason, Class: class, Seq: seq, At: at, Seed: s.cfg.Seed, Scheme: s.schemeName,
		Level: s.dim, Threshold: s.shards[0].rx.Threshold(),
		TSlotSeconds: tslot, PayloadBytes: s.cfg.PayloadBytes,
	}
	_, err := s.cfg.Flight.Trigger(meta, s.col.Snapshot(), msnap, logSnap(s.lg))
	return err
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

// levelProf switches the profiler handles to level, creating them on the
// level's first frame, and returns them. The handles feed commuting
// atomic adds, so totals stay worker-count invariant.
func (s *session) levelProf(codec frame.PayloadCodec, level float64) *levelProf {
	p := s.cfg.Prof
	lp := s.levels[level]
	if lp == nil {
		ll := prof.LevelLabel(level)
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
		s.levels[level] = lp
	}
	if lp != s.curProf {
		s.curProf = lp
		parallel.SetLabels(lp.labels)
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
