package smartvlc

import "testing"

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
