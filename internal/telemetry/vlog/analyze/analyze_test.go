package analyze

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/span"
	"smartvlc/internal/telemetry/vlog"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureLogs builds a small deterministic log snapshot: a session start,
// two frames (seq 3 clean, seq 7 a crc failure retransmitted), an SLO
// warning and the flight trigger record.
func fixtureLogs() *vlog.Snapshot {
	ms := 1e-3
	recs := []vlog.Record{
		{ID: 1, At: 0, Level: vlog.Info, Stage: "sim/session", Msg: "session start", Seq: -1,
			Scheme: "AMPPM", Dim: "0.5",
			Attrs: []vlog.Attr{{Key: "seed", Value: "42"}, {Key: "window", Value: "8"}}},
		{ID: 2, At: 9.2 * ms, Level: vlog.Debug, Stage: "phy/decode", Msg: "frame decoded",
			Seq: 3, Span: 1, Attrs: []vlog.Attr{{Key: "slots", Value: "1200"}, {Key: "sym_errs", Value: "0"}}},
		{ID: 3, At: 19.4 * ms, Level: vlog.Warn, Stage: "phy/decode", Msg: "frame: crc mismatch",
			Seq: 7, Span: 5, Attrs: []vlog.Attr{{Key: "class", Value: "crc"}}},
		{ID: 4, At: 20 * ms, Level: vlog.Warn, Stage: "sim/slo",
			Msg: "slo frame_loss: ok -> warning", Seq: -1, Scheme: "AMPPM", Dim: "0.5",
			Attrs: []vlog.Attr{{Key: "burn_fast", Value: "14.2"}, {Key: "value", Value: "0.33"}}},
		{ID: 5, At: 21 * ms, Level: vlog.Warn, Stage: "sim/flight",
			Msg: "flight bundle triggered: decode", Seq: 7, Span: 5, Scheme: "AMPPM", Dim: "0.5",
			Attrs: []vlog.Attr{{Key: "class", Value: "crc"}}},
		{ID: 6, At: 30 * ms, Level: vlog.Warn, Stage: "mac/retx",
			Msg: "ack timeout, retransmitting", Seq: 7,
			Attrs: []vlog.Attr{{Key: "age_s", Value: "0.02"}, {Key: "in_flight", Value: "1"}}},
		{ID: 7, At: 39.1 * ms, Level: vlog.Debug, Stage: "phy/decode", Msg: "frame decoded",
			Seq: 7, Span: 9, Shard: "rx0",
			Attrs: []vlog.Attr{{Key: "slots", Value: "1200"}, {Key: "sym_errs", Value: "2"}}},
	}
	return &vlog.Snapshot{Records: recs, Total: 9, Dropped: 2}
}

// fixtureSpans mirrors the span/analyze fixture shape: two transmissions
// of seq 7 (the second chained as a retransmit) plus the clean seq 3.
func fixtureSpans() *span.Snapshot {
	ms := 1e-3
	spans := []span.Span{
		{ID: 1, Name: "frame", Seq: 3, Start: 0, End: 10 * ms},
		{ID: 4, Parent: 1, Name: "phy/decode", Seq: 3, Start: 9.2 * ms, End: 10 * ms,
			Attrs: []span.Attr{{Key: "class", Value: "ok"}}},
		{ID: 5, Name: "frame", Seq: 7, Start: 10 * ms, End: 21 * ms},
		{ID: 8, Parent: 5, Name: "phy/decode", Seq: 7, Start: 19.4 * ms, End: 21 * ms,
			Attrs: []span.Attr{{Key: "class", Value: "crc"}}},
		{ID: 9, Parent: 5, Name: "frame", Seq: 7, Start: 30 * ms, End: 40 * ms,
			Attrs: []span.Attr{{Key: "retx", Value: "1"}}},
		{ID: 12, Parent: 9, Name: "phy/decode", Seq: 7, Start: 39.1 * ms, End: 40 * ms,
			Attrs: []span.Attr{{Key: "class", Value: "ok"}}},
	}
	return &span.Snapshot{Spans: spans, Total: int64(len(spans))}
}

func fixtureMetrics() *telemetry.Snapshot {
	return &telemetry.Snapshot{
		Histograms: []telemetry.HistogramSnapshot{{
			Name:   "mac_ack_latency_seconds",
			Labels: []telemetry.Label{{Key: "scheme", Value: "AMPPM"}},
			Count:  2, Sum: 0.05,
			Exemplars: []telemetry.BucketExemplars{{
				Bucket: 12,
				Exemplars: []telemetry.Exemplar{
					{Value: 0.04, At: 0.04, Seq: 7, Span: 9},
					{Value: 0.01, At: 0.01, Seq: 3, Span: 1},
				},
			}},
		}},
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
	Report(&buf, fixtureLogs(), Options{})
	checkGolden(t, "report.golden", buf.Bytes())
}

func TestReportFilteredGolden(t *testing.T) {
	var buf bytes.Buffer
	Report(&buf, fixtureLogs(), Options{MinLevel: vlog.Warn, Stage: "phy", Tail: 1})
	checkGolden(t, "report_filtered.golden", buf.Bytes())
}

func TestJoinGolden(t *testing.T) {
	var buf bytes.Buffer
	Join(&buf, JoinInput{Logs: fixtureLogs(), Spans: fixtureSpans(), Metrics: fixtureMetrics()}, Options{})
	checkGolden(t, "join.golden", buf.Bytes())
}

func TestFilterSeq(t *testing.T) {
	recs := Filter(fixtureLogs().Records, Options{Seq: 7, FilterSeq: true})
	if len(recs) != 4 {
		t.Fatalf("seq filter kept %d records, want 4", len(recs))
	}
	for _, r := range recs {
		if r.Seq != 7 {
			t.Fatalf("seq filter leaked %+v", r)
		}
	}
}

func TestFilterStagePrefix(t *testing.T) {
	recs := Filter(fixtureLogs().Records, Options{Stage: "sim"})
	if len(recs) != 3 {
		t.Fatalf("stage prefix kept %d records, want 3", len(recs))
	}
	if got := Filter(fixtureLogs().Records, Options{Stage: "sim/slo"}); len(got) != 1 {
		t.Fatalf("exact stage kept %d records, want 1", len(got))
	}
	// "si" is not a path prefix of "sim/..." — no partial-segment matches.
	if got := Filter(fixtureLogs().Records, Options{Stage: "si"}); len(got) != 0 {
		t.Fatalf("partial segment matched %d records, want 0", len(got))
	}
}

func TestJoinDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	in := JoinInput{Logs: fixtureLogs(), Spans: fixtureSpans(), Metrics: fixtureMetrics()}
	Join(&a, in, Options{})
	Join(&b, in, Options{})
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("join output not deterministic")
	}
}

// TestJoinRepeatedIDs: a span file whose second span repeats the first
// one's ID and names it as parent renders the first span once instead of
// nesting it in itself forever.
func TestJoinRepeatedIDs(t *testing.T) {
	spans := &span.Snapshot{Spans: []span.Span{
		{ID: 1, Seq: 4, Name: "frame", Start: 0, End: 0.01},
		{ID: 1, Parent: 1, Seq: 4, Name: "frame", Start: 0.001, End: 0.002},
	}}
	var buf bytes.Buffer
	Join(&buf, JoinInput{Spans: spans}, Options{})
	if got := strings.Count(buf.String(), "frame"); got != 1 {
		t.Fatalf("span rendered %d times, want once:\n%s", got, buf.String())
	}
}
