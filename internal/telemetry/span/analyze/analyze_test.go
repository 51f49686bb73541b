package analyze

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartvlc/internal/telemetry/flight"
	"smartvlc/internal/telemetry/span"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureSnapshot builds a small deterministic span forest: three frame
// transmissions (the last two a retransmit chain of seq 7), each with
// tx/hunt/decode children, one decode failure.
func fixtureSnapshot() *span.Snapshot {
	ms := 1e-3
	spans := []span.Span{
		{ID: 1, Name: "frame", Seq: 3, Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "phy/tx", Seq: 3, Start: 0, End: 9 * ms},
		{ID: 3, Parent: 1, Name: "rx/hunt", Seq: 3, Start: 9 * ms, End: 9.2 * ms},
		{ID: 4, Parent: 1, Name: "rx/decode", Seq: 3, Start: 9.2 * ms, End: 10 * ms,
			Attrs: []span.Attr{{Key: "class", Value: "ok"}}},

		{ID: 5, Name: "frame", Seq: 7, Start: 10 * ms, End: 21 * ms},
		{ID: 6, Parent: 5, Name: "phy/tx", Seq: 7, Start: 10 * ms, End: 19 * ms},
		{ID: 7, Parent: 5, Name: "rx/hunt", Seq: 7, Start: 19 * ms, End: 19.4 * ms},
		{ID: 8, Parent: 5, Name: "rx/decode", Seq: 7, Start: 19.4 * ms, End: 21 * ms,
			Attrs: []span.Attr{{Key: "class", Value: "crc"}}},

		{ID: 9, Parent: 5, Name: "frame", Seq: 7, Start: 30 * ms, End: 40 * ms,
			Attrs: []span.Attr{{Key: "retx", Value: "1"}}},
		{ID: 10, Parent: 9, Name: "phy/tx", Seq: 7, Start: 30 * ms, End: 39 * ms},
		{ID: 11, Parent: 9, Name: "rx/hunt", Seq: 7, Start: 39 * ms, End: 39.1 * ms},
		{ID: 12, Parent: 9, Name: "rx/decode", Seq: 7, Start: 39.1 * ms, End: 40 * ms,
			Attrs: []span.Attr{{Key: "class", Value: "ok"}}},
	}
	return &span.Snapshot{Spans: spans, Total: int64(len(spans))}
}

func fixtureBundle() *flight.Bundle {
	return &flight.Bundle{
		Meta: flight.Meta{
			Reason: "slo_loss", Class: "crc", Seq: 7, At: 0.021,
			Seed: 42, Scheme: "amppm", Level: 0.5, Threshold: 61,
			TSlotSeconds: 8e-6, PayloadBytes: 128,
		},
		Captures: []flight.Capture{
			{Seq: 3, Rx: 0, Start: 0, Level: 0.5, Threshold: 61,
				Slots: make([]bool, 1200), Samples: make([]int, 9600)},
			{Seq: 7, Rx: 0, Start: 0.010, Level: 0.5, Threshold: 61,
				Slots: make([]bool, 1200), Samples: make([]int, 9600)},
		},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestReportGolden(t *testing.T) {
	var buf bytes.Buffer
	Report(&buf, fixtureSnapshot(), Options{})
	checkGolden(t, "report.golden", buf.Bytes())
}

func TestReportEmptyRootsGolden(t *testing.T) {
	var buf bytes.Buffer
	Report(&buf, fixtureSnapshot(), Options{Root: "chunk"})
	checkGolden(t, "report_chunk.golden", buf.Bytes())
}

func TestReportBundleGolden(t *testing.T) {
	var buf bytes.Buffer
	b := fixtureBundle()
	ReportBundle(&buf, "bundles/bundle-000", b)
	ReportReplay(&buf, "crc", b.Meta.Class)
	checkGolden(t, "bundle.golden", buf.Bytes())
}

func TestReportReplayMismatch(t *testing.T) {
	var buf bytes.Buffer
	ReportReplay(&buf, "ok", "crc")
	if !strings.Contains(buf.String(), "MISMATCH") {
		t.Fatalf("mismatch not flagged: %q", buf.String())
	}
	// The end-of-session SLO bundle records no class: nothing to compare.
	buf.Reset()
	ReportReplay(&buf, "ok", "")
	if strings.Contains(buf.String(), "MISMATCH") || !strings.Contains(buf.String(), "no class recorded") {
		t.Fatalf("classless bundle verdict: %q", buf.String())
	}
}

func TestStageQuantilesOrdering(t *testing.T) {
	q := StageQuantiles(fixtureSnapshot().Spans)
	for _, name := range []string{"frame", "phy/tx", "rx/hunt", "rx/decode"} {
		v, ok := q[name]
		if !ok {
			t.Fatalf("no quantiles for %s", name)
		}
		if !(v.P50 <= v.P95 && v.P95 <= v.P99) {
			t.Fatalf("%s quantiles not monotone: %+v", name, v)
		}
		if v.P50 <= 0 || math.IsInf(v.P99, 0) {
			t.Fatalf("%s quantiles out of range: %+v", name, v)
		}
	}
	// All three frames last ~10-11 ms: the log2 estimate must land in the
	// right bucket neighborhood, not off by an order of magnitude.
	if f := q["frame"]; f.P50 < 5e-3 || f.P50 > 20e-3 {
		t.Fatalf("frame p50 %v outside [5ms, 20ms]", f.P50)
	}
}

func TestDur(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		8e-6:    "8.0µs",
		9.91e-3: "9.910ms",
		2.5:     "2.500s",
	}
	for in, want := range cases {
		if got := Dur(in); got != want {
			t.Errorf("Dur(%v) = %q, want %q", in, got, want)
		}
	}
}

// TestReportRepeatedIDs: a snapshot read from a file may repeat span IDs
// (one here chains a retransmission onto itself, another hides a frame
// under a failed decode of the same ID); the report still ends, with the
// first span of each ID.
func TestReportRepeatedIDs(t *testing.T) {
	snap := &span.Snapshot{Spans: []span.Span{
		{ID: 1, Seq: 4, Name: "frame", Start: 0, End: 0.01},
		{ID: 2, Parent: 1, Seq: 4, Name: "frame", Start: 0.02, End: 0.03},
		{ID: 2, Parent: 2, Seq: 4, Name: "frame", Start: 0.04, End: 0.05},
		{ID: 3, Parent: 1, Seq: 4, Name: "phy/decode", Start: 0.001, End: 0.002,
			Attrs: []span.Attr{{Key: "class", Value: "crc"}}},
		{ID: 3, Parent: 3, Seq: 4, Name: "frame/tx", Start: 0, End: 0.01},
	}}
	var buf bytes.Buffer
	Report(&buf, snap, Options{})
	for _, want := range []string{"frame roots: 2", "retransmit chains: 1", "seq 4: 2 transmissions", "worst frames"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, buf.String())
		}
	}
}
