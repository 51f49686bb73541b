package telemetry

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestPromLabelEscaping pins the exposition-spec escapes: backslash
// becomes \\, double quote becomes \", newline becomes \n — exactly
// once. The old code fed escapeLabel output through %q, double-escaping
// every sequence.
func TestPromLabelEscaping(t *testing.T) {
	r := New()
	r.Counter("weird_total", "path", `a\b"c`+"\n"+`d`).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `weird_total{path="a\\b\"c\nd"} 1` + "\n"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("exposition missing spec-escaped label:\n--- got ---\n%s--- want line ---\n%s", buf.String(), want)
	}
	for _, bad := range []string{`\\\\`, `\\"`} {
		if strings.Contains(buf.String(), bad) {
			t.Fatalf("exposition still double-escapes (%q present):\n%s", bad, buf.String())
		}
	}
}

// TestExemplarReservoirOrderInvariant attaches the same exemplar multiset
// in shuffled orders and asserts identical reservoirs: the reservoir is
// the top-K under a total order, so insertion order must not matter.
func TestExemplarReservoirOrderInvariant(t *testing.T) {
	exs := []Exemplar{
		{At: 1.0, Seq: 1},
		{At: 2.0, Seq: 2},
		{At: 3.0, Seq: 3},
		{At: 4.0, Seq: 4},
	}
	vals := []float64{1.1, 1.9, 1.5, 1.2} // all land in bucket 32 (le 2)
	build := func(order []int) []BucketExemplars {
		r := New()
		h := r.Histogram("lat")
		for _, i := range order {
			h.ObserveExemplar(vals[i], exs[i])
		}
		return r.Snapshot().Histograms[0].Exemplars
	}
	ref := build([]int{0, 1, 2, 3})
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(len(exs))
		if got := build(order); !reflect.DeepEqual(got, ref) {
			t.Fatalf("order %v: reservoir %+v, want %+v", order, got, ref)
		}
	}
	// The reservoir keeps the top ExemplarsPerBucket values.
	if len(ref) != 1 || len(ref[0].Exemplars) != ExemplarsPerBucket {
		t.Fatalf("reservoir shape %+v, want 1 bucket with %d exemplars", ref, ExemplarsPerBucket)
	}
	if ref[0].Exemplars[0].Value != 1.9 || ref[0].Exemplars[1].Value != 1.5 {
		t.Fatalf("reservoir kept %+v, want values 1.9 then 1.5", ref[0].Exemplars)
	}
}

// TestObserveExemplarCountsOnce verifies that ObserveExemplar records its
// value exactly once and files the exemplar, value forced to the
// observation, in that value's bucket.
func TestObserveExemplarCountsOnce(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	h.ObserveExemplar(0.5, Exemplar{Value: 7, At: 1.25, Seq: 9, Span: 42})
	hs := r.Snapshot().Histograms[0]
	if hs.Count != 1 || hs.Sum != 0.5 {
		t.Fatalf("count=%d sum=%v, want 1 and 0.5", hs.Count, hs.Sum)
	}
	if len(hs.Exemplars) != 1 || len(hs.Exemplars[0].Exemplars) != 1 {
		t.Fatalf("exemplars %+v, want one bucket with one exemplar", hs.Exemplars)
	}
	ex := hs.Exemplars[0].Exemplars[0]
	if ex.Value != 0.5 || ex.Seq != 9 || ex.Span != 42 || ex.At != 1.25 {
		t.Fatalf("exemplar %+v, want value 0.5 seq 9 span 42 at 1.25", ex)
	}
	if hs.Exemplars[0].Bucket != bucketIndex(0.5) {
		t.Fatalf("exemplar bucket %d, want %d", hs.Exemplars[0].Bucket, bucketIndex(0.5))
	}
}

// TestNilHistogramExemplarNoOp pins the nil-is-no-op contract for the new
// methods.
func TestNilHistogramExemplarNoOp(t *testing.T) {
	var h *Histogram
	h.ObserveExemplar(1, Exemplar{})
	if h.exemplars() != nil {
		t.Fatal("nil histogram returned exemplars")
	}
}

// TestMergeExemplarsLowestShardWins merges snapshots whose reservoirs
// carry an identical (value, at, seq) exemplar and asserts the survivor
// comes from the lowest-indexed snapshot, with Shard recording the
// source index.
func TestMergeExemplarsLowestShardWins(t *testing.T) {
	mk := func(seq int64) *Snapshot {
		r := New()
		r.Histogram("lat", "rx", "0").ObserveExemplar(1.5, Exemplar{At: 2.0, Seq: seq, Span: seq * 10})
		return r.Snapshot()
	}
	// Same value/at/seq in both: the tie must resolve to snapshot 0.
	a, b := mk(7), mk(7)
	b.Histograms[0].Exemplars[0].Exemplars[0].Span = 999 // distinguish the copies
	m := Merge(a, b)
	if len(m.Histograms) != 1 {
		t.Fatalf("merged %d histograms, want 1", len(m.Histograms))
	}
	exs := m.Histograms[0].Exemplars
	if len(exs) != 1 || len(exs[0].Exemplars) != 2 {
		t.Fatalf("merged exemplars %+v, want one bucket with 2 entries", exs)
	}
	first := exs[0].Exemplars[0]
	if first.Shard != 0 || first.Span != 70 {
		t.Fatalf("tie broke to %+v, want shard 0 (span 70)", first)
	}
	if exs[0].Exemplars[1].Shard != 1 {
		t.Fatalf("second exemplar %+v, want shard 1", exs[0].Exemplars[1])
	}

	// Merge is order-deterministic: same inputs, same bytes.
	j1, err := Merge(mk(7), mk(8)).JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := Merge(mk(7), mk(8)).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("repeated merge produced different JSON")
	}
}

// TestOpenMetricsGolden pins the OpenMetrics exposition: counter family
// named without _total, bucket exemplar suffix, and the # EOF terminator.
func TestOpenMetricsGolden(t *testing.T) {
	r := New()
	r.Help("frames", "Frames by outcome.")
	r.Counter("frames_total", "outcome", "ok").Add(3)
	r.Gauge("goodput_bps").Set(100)
	h := r.Histogram("lat")
	h.ObserveExemplar(1.5, Exemplar{At: 2.25, Seq: 11, Span: 5})
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP frames Frames by outcome.
# TYPE frames counter
frames_total{outcome="ok"} 3
# TYPE goodput_bps gauge
goodput_bps 100
# TYPE lat histogram
lat_bucket{le="2"} 1 # {seq="11",span="5"} 1.5 2.25
lat_bucket{le="+Inf"} 1
lat_sum 1.5
lat_count 1
# EOF
`
	if got := buf.String(); got != want {
		t.Fatalf("openmetrics mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHostileLabelExemplarExposition runs a label value containing every
// character the exposition format escapes — backslash, double quote,
// newline — through the histogram paths of BOTH expositions: the classic
// 0.0.4 bucket/sum/count lines and the OpenMetrics bucket line that also
// carries the `# {...}` exemplar suffix. The golden pins each escape
// exactly once and the suffix landing after the escaped label block, so a
// hostile label can never break a bucket line into two scrape lines or
// swallow the exemplar.
func TestHostileLabelExemplarExposition(t *testing.T) {
	hostile := `a\b"c` + "\n" + `d`
	r := New()
	h := r.Histogram("lat", "path", hostile)
	h.ObserveExemplar(1.5, Exemplar{At: 2.25, Seq: 11, Span: 5})

	var om bytes.Buffer
	if err := r.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	wantOM := `# TYPE lat histogram
lat_bucket{path="a\\b\"c\nd",le="2"} 1 # {seq="11",span="5"} 1.5 2.25
lat_bucket{path="a\\b\"c\nd",le="+Inf"} 1
lat_sum{path="a\\b\"c\nd"} 1.5
lat_count{path="a\\b\"c\nd"} 1
# EOF
`
	if got := om.String(); got != wantOM {
		t.Fatalf("openmetrics hostile-label mismatch:\n--- got ---\n%s--- want ---\n%s", got, wantOM)
	}

	var classic bytes.Buffer
	if err := r.WritePrometheus(&classic); err != nil {
		t.Fatal(err)
	}
	wantClassic := `# TYPE lat histogram
lat_bucket{path="a\\b\"c\nd",le="2"} 1
lat_bucket{path="a\\b\"c\nd",le="+Inf"} 1
lat_sum{path="a\\b\"c\nd"} 1.5
lat_count{path="a\\b\"c\nd"} 1
`
	if got := classic.String(); got != wantClassic {
		t.Fatalf("classic hostile-label mismatch:\n--- got ---\n%s--- want ---\n%s", got, wantClassic)
	}
	// Every non-comment exposition line must be a single line: a raw
	// newline leaking through a label value would split one.
	for _, body := range []string{om.String(), classic.String()} {
		for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
			if line == "" {
				t.Fatalf("hostile label split an exposition line:\n%s", body)
			}
		}
	}
}

// TestClassicExpositionHasNoExemplars keeps the 0.0.4 exposition pure:
// exemplar syntax is OpenMetrics-only.
func TestClassicExpositionHasNoExemplars(t *testing.T) {
	r := New()
	r.Histogram("lat").ObserveExemplar(1.5, Exemplar{Seq: 1})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "#  {") || strings.Contains(buf.String(), "} 1.5 ") {
		t.Fatalf("classic exposition leaked exemplar syntax:\n%s", buf.String())
	}
}

// TestParseSnapshotRoundTrip pins the JSON round trip behind the viewer
// commands: parse(JSON(snapshot)) re-marshals byte-identically,
// exemplars included, and files carrying the former event keys parse.
func TestParseSnapshotRoundTrip(t *testing.T) {
	r := New()
	r.Counter("frames_total").Add(2)
	r.Histogram("lat").ObserveExemplar(1.5, Exemplar{At: 2.25, Seq: 11, Span: 5})
	snap := r.Snapshot()
	j, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSnapshot(j)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j, j2) {
		t.Fatalf("round trip not identity:\n--- first ---\n%s--- second ---\n%s", j, j2)
	}
	if _, err := ParseSnapshot([]byte("{broken")); err == nil {
		t.Fatal("malformed snapshot accepted")
	}
	// Files written while snapshots still carried the registry's event
	// ring keep parsing; the event keys are ignored.
	old := []byte(`{"counters":[{"name":"frames_total","value":2}],"gauges":[],"histograms":[],` +
		`"events":[{"at":0.5,"kind":"frame/tx","seq":1}],"events_total":1,"events_dropped":0}`)
	back, err = ParseSnapshot(old)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Counters) != 1 || back.Counters[0].Name != "frames_total" || back.Counters[0].Value != 2 {
		t.Fatalf("snapshot with event keys parsed to %+v", back)
	}
}

// TestWriteExemplarsGolden pins the drill-down report: one block per
// exemplar-bearing histogram (label signature included), one row per
// reservoir entry with bucket bound, value, sim time and the frame
// breadcrumbs; zero span/shard fields stay silent; exemplar-free
// snapshots say so instead of printing nothing.
func TestWriteExemplarsGolden(t *testing.T) {
	r := New()
	r.Histogram("plain") // occupied buckets but no exemplars -> skipped
	r.Histogram("plain").Observe(1)
	h := r.Histogram("lat", "scheme", "amppm")
	h.ObserveExemplar(1.5, Exemplar{At: 2.25, Seq: 11, Span: 5})
	h.ObserveExemplar(900, Exemplar{At: 3.5, Seq: 12})
	var buf bytes.Buffer
	if err := r.Snapshot().WriteExemplars(&buf); err != nil {
		t.Fatal(err)
	}
	want := `lat{scheme=amppm}
  le 2          value=1.5 at=2.25 seq=11 span=5
  le 1024       value=900 at=3.5 seq=12
`
	if got := buf.String(); got != want {
		t.Fatalf("exemplar report mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	buf.Reset()
	if err := New().Snapshot().WriteExemplars(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no exemplars") {
		t.Fatalf("empty report missing notice: %q", buf.String())
	}
}
