package vlog

import (
	"bytes"
	"strings"
	"testing"

	"smartvlc/internal/alloctest"
)

func TestRecordOrderAndIDs(t *testing.T) {
	l := New(Debug)
	for i := 0; i < 5; i++ {
		l.Record(Record{At: float64(i), Level: Info, Stage: "test", Seq: int64(i)})
	}
	s := l.Snapshot()
	if s.Total != 5 || s.Dropped != 0 || len(s.Records) != 5 {
		t.Fatalf("total=%d dropped=%d len=%d", s.Total, s.Dropped, len(s.Records))
	}
	for i, r := range s.Records {
		if r.ID != int64(i+1) || r.Seq != int64(i) {
			t.Fatalf("record %d: id=%d seq=%d", i, r.ID, r.Seq)
		}
	}
}

func TestRingDropsOldest(t *testing.T) {
	l := New(Debug)
	l.SetCapacity(4)
	for i := 0; i < 10; i++ {
		l.Record(Record{Level: Info, Seq: int64(i)})
	}
	s := l.Snapshot()
	if s.Total != 10 || s.Dropped != 6 {
		t.Fatalf("total=%d dropped=%d", s.Total, s.Dropped)
	}
	if len(s.Records) != 4 {
		t.Fatalf("len=%d", len(s.Records))
	}
	for i, r := range s.Records {
		if r.Seq != int64(6+i) {
			t.Fatalf("record %d: seq=%d, want %d (oldest-first tail)", i, r.Seq, 6+i)
		}
		if r.ID != int64(7+i) {
			t.Fatalf("record %d: id=%d, want %d", i, r.ID, 7+i)
		}
	}
}

func TestLevelFilter(t *testing.T) {
	l := New(Warn)
	if l.Enabled(Info) {
		t.Fatal("Info enabled on a Warn logger")
	}
	if !l.Enabled(Error) {
		t.Fatal("Error disabled on a Warn logger")
	}
	l.Record(Record{Level: Debug})
	l.Record(Record{Level: Warn})
	l.Record(Record{Level: Error})
	if s := l.Snapshot(); s.Total != 2 {
		t.Fatalf("total=%d, want 2", s.Total)
	}
}

func TestNilSafety(t *testing.T) {
	var l *Logger
	if l.Enabled(Error) {
		t.Fatal("nil logger enabled")
	}
	if id := l.Record(Record{Level: Error}); id != 0 {
		t.Fatalf("nil record id=%d", id)
	}
	l.SetCapacity(8)
	s := l.Snapshot()
	if len(s.Records) != 0 || s.Total != 0 {
		t.Fatal("nil snapshot not empty")
	}
	if _, err := s.JSON(); err != nil {
		t.Fatal(err)
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	l := New(Debug)
	l.Record(Record{At: 0.25, Level: Warn, Stage: "phy/decode", Msg: "preamble miss", Seq: 3, Span: 7,
		Scheme: "AMPPM", Dim: "0.5", Attrs: []Attr{{Key: "class", Value: "ser"}}})
	l.Record(Record{At: 0.5, Level: Error, Stage: "sim/slo", Msg: "critical", Seq: -1})
	snap := l.Snapshot()
	nd, err := snap.NDJSON()
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(nd, []byte{'\n'}); n != 2 {
		t.Fatalf("%d lines, want 2:\n%s", n, nd)
	}
	back, err := ParseNDJSON(bytes.NewReader(nd))
	if err != nil {
		t.Fatal(err)
	}
	nd2, err := back.NDJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nd, nd2) {
		t.Fatalf("round trip differs:\n%s\nvs\n%s", nd, nd2)
	}
	if back.Total != 2 {
		t.Fatalf("parsed total=%d", back.Total)
	}
}

func TestParseNDJSONRejectsGarbage(t *testing.T) {
	if _, err := ParseNDJSON(strings.NewReader("{\"id\":1}\nnot json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestTail(t *testing.T) {
	l := New(Debug)
	for i := 0; i < 6; i++ {
		l.Record(Record{Level: Info, Seq: int64(i)})
	}
	s := l.Snapshot()
	tl := s.Tail(2)
	if len(tl.Records) != 2 || tl.Records[0].Seq != 4 || tl.Records[1].Seq != 5 {
		t.Fatalf("tail wrong: %+v", tl.Records)
	}
	if tl.Total != 6 {
		t.Fatalf("tail total=%d, want 6 (accounting carries over)", tl.Total)
	}
	if all := s.Tail(0); len(all.Records) != 6 {
		t.Fatalf("tail(0) len=%d", len(all.Records))
	}
	if all := s.Tail(100); len(all.Records) != 6 {
		t.Fatalf("tail(100) len=%d", len(all.Records))
	}
}

func TestMergeConfigOrder(t *testing.T) {
	a := New(Debug)
	a.Record(Record{At: 5, Level: Info, Stage: "a"})
	b := New(Debug)
	b.Record(Record{At: 1, Level: Info, Stage: "b"})
	b.Record(Record{At: 2, Level: Info, Stage: "b"})
	m := Merge(a.Snapshot(), nil, b.Snapshot())
	if len(m.Records) != 3 || m.Total != 3 {
		t.Fatalf("len=%d total=%d", len(m.Records), m.Total)
	}
	// Config order, not time order: session a's record leads.
	if m.Records[0].Stage != "a" || m.Records[1].Stage != "b" {
		t.Fatalf("merge order wrong: %+v", m.Records)
	}
	for i, r := range m.Records {
		if r.ID != int64(i+1) {
			t.Fatalf("merged id %d at %d", r.ID, i)
		}
	}
	if e := Merge(); len(e.Records) != 0 || e.Total != 0 {
		t.Fatal("empty merge not empty")
	}
}

// TestDisabledZeroAllocs pins the zero-cost-off contract: a nil logger
// and a level-filtered logger behind Enabled must cost zero allocations
// per call at the call-site pattern the hot paths use.
func TestDisabledZeroAllocs(t *testing.T) {
	var nilLogger *Logger
	if n, _ := alloctest.Count(100, func() {
		if nilLogger.Enabled(Warn) {
			nilLogger.Record(Record{Level: Warn, Stage: "phy/decode", Msg: "x", Seq: 1})
		}
	}); n != 0 {
		t.Fatalf("nil logger: %d allocs over 100 calls", n)
	}
	quiet := New(Error)
	if n, _ := alloctest.Count(100, func() {
		if quiet.Enabled(Debug) {
			quiet.Record(Record{Level: Debug, Stage: "phy/decode", Msg: "x", Seq: 1})
		}
	}); n != 0 {
		t.Fatalf("level-filtered logger: %d allocs over 100 calls", n)
	}
}

func TestLevelStrings(t *testing.T) {
	for _, lv := range []Level{Debug, Info, Warn, Error} {
		got, ok := ParseLevel(lv.String())
		if !ok || got != lv {
			t.Fatalf("ParseLevel(%q) = %v, %v", lv.String(), got, ok)
		}
	}
	if _, ok := ParseLevel("loud"); ok {
		t.Fatal("ParseLevel accepted garbage")
	}
	if Level(42).String() != "unknown" {
		t.Fatal("out-of-range level string")
	}
}

func TestConsoleFormat(t *testing.T) {
	var buf bytes.Buffer
	c := NewConsole(&buf, Info)
	c.Emit(Record{At: 0.001234, Level: Warn, Stage: "phy/decode", Msg: "preamble miss", Seq: 12,
		Scheme: "AMPPM", Dim: "0.5", Attrs: []Attr{{Key: "class", Value: "ser"}}})
	c.Emit(Record{At: 0, Level: Debug, Stage: "quiet", Seq: -1, Msg: "filtered"})
	c.Emit(Record{At: 2, Level: Error, Stage: "sim/slo", Shard: "rx1", Seq: -1, Msg: "critical"})
	want := "[   0.001234s] WARN  phy/decode seq=12: preamble miss (scheme=AMPPM dim=0.5 class=ser)\n" +
		"[   2.000000s] ERROR sim/slo rx1: critical\n"
	if buf.String() != want {
		t.Fatalf("console output:\n%q\nwant:\n%q", buf.String(), want)
	}
}
