package phy

import (
	"strconv"

	"smartvlc/internal/frame"
	"smartvlc/internal/telemetry/span"
	"smartvlc/internal/telemetry/vlog"
)

// Event is one preamble lock of a Process call and what parsing the frame
// behind it gave: the receiver's one record of an outcome (DESIGN.md §19).
// Process keeps its events in the receiver's batch (Receiver.Events); the
// pillars fold them where outcomes are consumed — RxMetrics.Observe,
// RecordSpans, RecordLogs and DecodeClass — so the hot loop writes each
// outcome once and knows no observer.
type Event struct {
	// From is the sample offset where the hunt that found this lock began;
	// Lock is the locked preamble offset.
	From, Lock int
	// Slots is the slots the decoded frame consumed (0 when Err is set).
	Slots int
	// SymbolErrors counts the decoded frame's constituent symbol anomalies.
	SymbolErrors int
	// Err is the parse error, nil for a clean decode.
	Err error
}

// Class is the event's decode class: "ok" for a clean decode, otherwise
// one of the bounded decode error classes (see decodeErrorClasses).
func (e Event) Class() string {
	if e.Err == nil {
		return "ok"
	}
	return classifyDecodeError(e.Err)
}

// decodeEnd is the sample offset where the event's phy/decode span ends:
// the decoded frame's last slot, or the preamble of a failed parse.
func (e Event) decodeEnd() int {
	if e.Err != nil {
		return e.Lock + frame.PreambleSlots*Oversample
	}
	return e.Lock + e.Slots*Oversample
}

// DecodeClass is the outcome of a frame window: the class of its last
// event, or "hunt" when the receiver never locked. The session loop and
// the flight-bundle replay both classify this way, so live and replayed
// classes compare directly.
func DecodeClass(events []Event) string {
	if len(events) == 0 {
		return "hunt"
	}
	return events[len(events)-1].Class()
}

// RecordSpans records a phy/hunt span (the scan interval that found the
// lock) and a phy/decode span (carrying the decode class) per event under
// parent, in event order. Sample i maps to simulation time at + i·dt;
// extra attributes (a broadcast shard's receiver index) close every
// span's list. No-op on a nil collector.
func RecordSpans(c *span.Collector, events []Event, parent span.ID, seq int64, at, dt float64, extra ...span.Attr) {
	if c == nil {
		return
	}
	clock := func(sample int) float64 { return at + float64(sample)*dt }
	for _, e := range events {
		c.Record(span.Span{
			Name: "phy/hunt", Parent: parent, Seq: seq,
			Start: clock(e.From), End: clock(e.Lock),
			Attrs: append([]span.Attr{{Key: "offset", Value: strconv.Itoa(e.Lock)}}, extra...),
		})
		attrs := []span.Attr{{Key: "class", Value: e.Class()}}
		if e.Err == nil {
			attrs = append(attrs,
				span.Attr{Key: "slots", Value: strconv.Itoa(e.Slots)},
				span.Attr{Key: "sym_errs", Value: strconv.Itoa(e.SymbolErrors)})
		}
		c.Record(span.Span{
			Name: "phy/decode", Parent: parent, Seq: seq,
			Start: clock(e.Lock), End: clock(e.decodeEnd()),
			Attrs: append(attrs, extra...),
		})
	}
}

// RecordLogs records the narrative twin of RecordSpans: a Debug line per
// lock, then a Debug line per clean decode or a Warn line carrying the
// parse error and its class, stamped with the frame's root span, seq and
// shard label. Sample i maps to simulation time at + i·dt. No-op on a nil
// logger.
func RecordLogs(l *vlog.Logger, events []Event, root, seq int64, shard string, at, dt float64) {
	for _, e := range events {
		t := at + float64(e.Lock)*dt
		if l.Enabled(vlog.Debug) {
			l.Record(vlog.Record{
				At: t, Level: vlog.Debug, Stage: "phy/hunt", Msg: "preamble locked",
				Seq: seq, Span: root, Shard: shard,
				Attrs: []vlog.Attr{{Key: "offset", Value: strconv.Itoa(e.Lock)}},
			})
		}
		switch {
		case e.Err != nil && l.Enabled(vlog.Warn):
			l.Record(vlog.Record{
				At: t, Level: vlog.Warn, Stage: "phy/decode", Msg: e.Err.Error(),
				Seq: seq, Span: root, Shard: shard,
				Attrs: []vlog.Attr{{Key: "class", Value: e.Class()}},
			})
		case e.Err == nil && l.Enabled(vlog.Debug):
			l.Record(vlog.Record{
				At: t, Level: vlog.Debug, Stage: "phy/decode", Msg: "frame decoded",
				Seq: seq, Span: root, Shard: shard,
				Attrs: []vlog.Attr{
					{Key: "slots", Value: strconv.Itoa(e.Slots)},
					{Key: "sym_errs", Value: strconv.Itoa(e.SymbolErrors)},
				},
			})
		}
	}
}
