package span

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestNilNoOp pins the package's nil contract: every method on a nil
// collector is a safe no-op, so hot paths can carry span handles
// unconditionally.
func TestNilNoOp(t *testing.T) {
	var c *Collector
	if id := c.Record(Span{Name: "x"}); id != 0 {
		t.Fatalf("nil collector Record returned %d, want 0", id)
	}
	c.SetCapacity(8)
	snap := c.Snapshot()
	if len(snap.Spans) != 0 || snap.Total != 0 || snap.Dropped != 0 {
		t.Fatalf("nil collector snapshot not empty: %+v", snap)
	}
}

// TestRingAccounting pins the bounded-ring semantics: oldest spans drop
// once the capacity is reached, and Total/Dropped keep the full count.
func TestRingAccounting(t *testing.T) {
	c := NewCollector()
	c.SetCapacity(4)
	for i := 0; i < 6; i++ {
		c.Record(Span{Name: "s", Seq: int64(i)})
	}
	snap := c.Snapshot()
	if snap.Total != 6 || snap.Dropped != 2 {
		t.Fatalf("total %d dropped %d, want 6 and 2", snap.Total, snap.Dropped)
	}
	if len(snap.Spans) != 4 {
		t.Fatalf("snapshot holds %d spans, want 4", len(snap.Spans))
	}
	for i, s := range snap.Spans {
		if want := ID(i + 3); s.ID != want {
			t.Fatalf("span %d has ID %d, want %d (oldest-first unwind)", i, s.ID, want)
		}
	}
}

// sampleSnapshot builds a deterministic snapshot with a retransmit chain
// and a decode failure, shared by the export and analysis tests. Attrs
// are emitted in sorted key order so the Chrome round-trip (which
// canonicalizes by key) is an exact identity.
func sampleSnapshot() *Snapshot {
	c := NewCollector()
	f1 := c.Record(Span{Name: "frame", Seq: 1, Start: 0, End: 0.010,
		Attrs: []Attr{{Key: "level", Value: "0.5"}, {Key: "scheme", Value: "AMPPM"}}})
	c.Record(Span{Name: "frame/tx", Seq: 1, Parent: f1, Start: 0, End: 0.010})
	c.Record(Span{Name: "phy/decode", Seq: 1, Parent: f1, Start: 0.002, End: 0.009,
		Attrs: []Attr{{Key: "class", Value: "crc"}}})
	f2 := c.Record(Span{Name: "frame", Seq: 1, Parent: f1, Start: 0.012, End: 0.020,
		Attrs: []Attr{{Key: "level", Value: "0.5"}, {Key: "scheme", Value: "AMPPM"}}})
	c.Record(Span{Name: "frame/tx", Seq: 1, Parent: f2, Start: 0.012, End: 0.020})
	c.Record(Span{Name: "phy/decode", Seq: 1, Parent: f2, Start: 0.014, End: 0.019,
		Attrs: []Attr{{Key: "class", Value: "ok"}}})
	f3 := c.Record(Span{Name: "frame", Seq: 2, Start: 0.022, End: 0.030})
	c.Record(Span{Name: "phy/decode", Seq: 2, Parent: f3, Start: 0.024, End: 0.029,
		Attrs: []Attr{{Key: "class", Value: "ok"}}})
	return c.Snapshot()
}

// TestChromeTraceRoundTrip pins that WriteChromeTrace output parses back
// into the identical span list (IDs, parents, sequences, attributes).
func TestChromeTraceRoundTrip(t *testing.T) {
	snap := sampleSnapshot()
	var buf bytes.Buffer
	if err := snap.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != len(snap.Spans) {
		t.Fatalf("round-trip kept %d spans, want %d", len(got.Spans), len(snap.Spans))
	}
	for i := range snap.Spans {
		w, g := snap.Spans[i], got.Spans[i]
		if w.ID != g.ID || w.Parent != g.Parent || w.Seq != g.Seq || w.Name != g.Name {
			t.Fatalf("span %d identity changed:\nwrote %+v\nread  %+v", i, w, g)
		}
		if !reflect.DeepEqual(w.Attrs, g.Attrs) {
			t.Fatalf("span %d attrs changed:\nwrote %+v\nread  %+v", i, w.Attrs, g.Attrs)
		}
	}
}

// TestExportDeterminism pins that two identical recordings export
// byte-identical canonical JSON and Chrome traces.
func TestExportDeterminism(t *testing.T) {
	a, b := sampleSnapshot(), sampleSnapshot()
	ja, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatal("identical recordings produced different JSON")
	}
	var ca, cb bytes.Buffer
	if err := a.WriteChromeTrace(&ca); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteChromeTrace(&cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Fatal("identical recordings produced different Chrome traces")
	}
	if !strings.Contains(ca.String(), `"ph":"X"`) {
		t.Fatal("trace has no complete events")
	}
}

func TestStageBreakdown(t *testing.T) {
	stats := StageBreakdown(sampleSnapshot().Spans)
	byName := map[string]StageStat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	fr := byName["frame"]
	if fr.Count != 3 {
		t.Fatalf("frame count %d, want 3", fr.Count)
	}
	dec := byName["phy/decode"]
	if dec.Count != 3 || dec.Errors != 1 {
		t.Fatalf("phy/decode count %d errors %d, want 3 and 1", dec.Count, dec.Errors)
	}
	if dec.Max < dec.Mean || dec.Mean <= 0 {
		t.Fatalf("decode stats inconsistent: %+v", dec)
	}
	for i := 1; i < len(stats); i++ {
		if stats[i-1].Name >= stats[i].Name {
			t.Fatal("breakdown not sorted by stage name")
		}
	}
}

func TestTreeAndCriticalPath(t *testing.T) {
	snap := sampleSnapshot()
	tree := NewTree(snap.Spans)
	frames := tree.FrameRoots("frame")
	if len(frames) != 3 {
		t.Fatalf("found %d frame roots, want 3 (retransmission included)", len(frames))
	}
	path := tree.CriticalPath(frames[0].ID)
	if len(path) != 2 || path[0].Name != "frame" || path[1].Name != "frame/tx" {
		t.Fatalf("critical path wrong: %+v", path)
	}
}

func TestRetxChains(t *testing.T) {
	tree := NewTree(sampleSnapshot().Spans)
	chains := tree.RetxChains("frame")
	if len(chains) != 1 {
		t.Fatalf("found %d chains, want 1", len(chains))
	}
	c := chains[0]
	if c.Seq != 1 || len(c.Roots) != 2 {
		t.Fatalf("chain seq %d with %d roots, want seq 1 with 2", c.Seq, len(c.Roots))
	}
	if c.Roots[0].Start >= c.Roots[1].Start {
		t.Fatal("chain roots not oldest-first")
	}
}

func TestTopSlowestAndWorstFrames(t *testing.T) {
	snap := sampleSnapshot()
	tree := NewTree(snap.Spans)
	frames := tree.FrameRoots("frame")
	top := TopSlowest(frames, 2)
	if len(top) != 2 || top[0].Duration() < top[1].Duration() {
		t.Fatalf("TopSlowest order wrong: %+v", top)
	}
	worst := tree.WorstFrames("frame", 5)
	if len(worst) != 1 || worst[0].Seq != 1 || worst[0].ID != 1 {
		t.Fatalf("WorstFrames wrong (want only the crc-failing first transmission): %+v", worst)
	}
}

// repeatedIDCases are file-borne span lists that repeat an ID. Before
// NewTree kept the first span of each ID, the second span of "self"
// became its own child (Children(1) = [1]) and the retransmit walk of
// "retx" and the failure walk of "worst" never ended.
var repeatedIDCases = map[string][]Span{
	"self": {
		{ID: 1, Seq: 4, Name: "frame", Start: 0, End: 0.01},
		{ID: 1, Parent: 1, Seq: 4, Name: "frame", Start: 0.001, End: 0.002},
	},
	"retx": {
		{ID: 1, Seq: 4, Name: "frame", Start: 0, End: 0.01},
		{ID: 2, Parent: 1, Seq: 4, Name: "frame", Start: 0.02, End: 0.03},
		{ID: 2, Parent: 2, Seq: 4, Name: "frame", Start: 0.04, End: 0.05},
	},
	"worst": {
		{ID: 1, Seq: 4, Name: "frame", Start: 0, End: 0.01},
		{ID: 2, Parent: 1, Seq: 4, Name: "phy/decode", Start: 0.001, End: 0.002,
			Attrs: []Attr{{Key: "class", Value: "crc"}}},
		{ID: 2, Parent: 2, Seq: 4, Name: "frame/tx", Start: 0, End: 0.01},
	},
}

// TestTreeRepeatedIDs: the first span of each ID wins, so a repeated ID
// neither becomes its own child nor loops any traversal.
func TestTreeRepeatedIDs(t *testing.T) {
	for name, spans := range repeatedIDCases {
		t.Run(name, func(t *testing.T) {
			tree := NewTree(spans)
			if got := tree.Roots(); !reflect.DeepEqual(got, []ID{1}) {
				t.Fatalf("roots %v, want [1]", got)
			}
			walkTree(t, tree)
			if s, _ := tree.Span(spans[len(spans)-1].ID); !reflect.DeepEqual(s, spans[len(spans)-2]) {
				t.Fatalf("span %d is %+v, want the first one", s.ID, s)
			}
		})
	}
	self := NewTree(repeatedIDCases["self"])
	if got := self.Children(1); len(got) != 0 {
		t.Fatalf("children of 1: %v, want none", got)
	}
	if chains := NewTree(repeatedIDCases["retx"]).RetxChains("frame"); len(chains) != 1 || len(chains[0].Roots) != 2 {
		t.Fatalf("retransmit chains %+v, want one of two transmissions", chains)
	}
	if worst := NewTree(repeatedIDCases["worst"]).WorstFrames("frame", 5); len(worst) != 1 {
		t.Fatalf("worst frames %+v, want the one failing frame", worst)
	}
}
