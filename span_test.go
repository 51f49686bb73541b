package smartvlc

import (
	"bytes"
	"testing"
)

// streamSpanJSON writes data through an instrumented stream and returns
// the canonical JSON of its span snapshot.
func streamSpanJSON(t *testing.T) ([]byte, *SpanSnapshot) {
	t.Helper()
	sys := newSystem(t)
	st, err := sys.OpenStream(Aligned(3, 0), 8000, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	col := NewSpanCollector()
	st.SetSpans(col)
	if _, err := st.Write(make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	j, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return j, snap
}

// TestStreamSpans pins the stream instrumentation: one "chunk" root per
// chunk with per-attempt "chunk/tx" children on the stream's simulated
// clock, deterministic across identically seeded streams.
func TestStreamSpans(t *testing.T) {
	j1, snap := streamSpanJSON(t)
	j2, _ := streamSpanJSON(t)
	if !bytes.Equal(j1, j2) {
		t.Fatal("identically seeded streams exported different span JSON")
	}

	roots, txs := 0, 0
	for _, s := range snap.Spans {
		switch s.Name {
		case "chunk":
			roots++
			if out, _ := s.Attr("outcome"); out != "ok" {
				t.Fatalf("chunk outcome %q: %+v", out, s)
			}
			if lvl, _ := s.Attr("level"); lvl != "0.5" {
				t.Fatalf("chunk level %q", lvl)
			}
		case "chunk/tx":
			txs++
			if s.Parent == 0 {
				t.Fatalf("chunk/tx not parented: %+v", s)
			}
		default:
			t.Fatalf("unexpected span %q in stream trace", s.Name)
		}
	}
	// 512 bytes at 126 bytes per chunk = 5 chunks; at least one attempt
	// per chunk.
	if roots != 5 {
		t.Fatalf("%d chunk roots, want 5", roots)
	}
	if txs < roots {
		t.Fatalf("%d chunk/tx spans for %d chunks", txs, roots)
	}
	for _, s := range snap.Spans {
		if s.End < s.Start {
			t.Fatalf("span runs backwards: %+v", s)
		}
	}
}

// TestDeliverStatsSpans pins the one-shot facade instrumentation: each
// DeliverStats call records a "deliver" root with the receiver's decode
// subtree underneath.
func TestDeliverStatsSpans(t *testing.T) {
	sys := newSystem(t)
	col := NewSpanCollector()
	sys.SetSpans(col)
	slots, err := sys.BuildFrame(0.5, []byte("span facade test payload"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.DeliverStats(Aligned(3, 0), 8000, 7, slots)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FramesOK != 1 {
		t.Fatalf("frame lost: %+v", rep)
	}
	snap := col.Snapshot()
	var root *Span
	sawDecode := false
	for i, s := range snap.Spans {
		switch s.Name {
		case "deliver":
			root = &snap.Spans[i]
		case "phy/decode":
			sawDecode = true
		}
	}
	if root == nil {
		t.Fatal("no deliver root span")
	}
	if !sawDecode {
		t.Fatal("no decode span under deliver root")
	}
	if thr, ok := root.Attr("threshold"); !ok || thr == "" {
		t.Error("deliver root missing threshold attribute")
	}
}
