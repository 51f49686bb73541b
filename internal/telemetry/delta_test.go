package telemetry

import (
	"bytes"
	"testing"
)

// TestDeltaNilPrevIsFull pins the base case: the delta against nil is the
// full snapshot, minus the elided exemplars.
func TestDeltaNilPrevIsFull(t *testing.T) {
	r := New()
	r.Counter("a_total").Add(3)
	r.Gauge("g").Set(1.5)
	r.Histogram("h").Observe(2)

	d := r.Delta(nil)
	if len(d.Counters) != 1 || d.Counters[0].Value != 3 {
		t.Fatalf("counters = %+v", d.Counters)
	}
	if len(d.Gauges) != 1 || d.Gauges[0].Value != 1.5 {
		t.Fatalf("gauges = %+v", d.Gauges)
	}
	if len(d.Histograms) != 1 || d.Histograms[0].Count != 1 {
		t.Fatalf("histograms = %+v", d.Histograms)
	}
}

// TestDeltaIncrements drives a registry through two windows and checks
// the second delta carries exactly the increments: moved series with
// their differences, unmoved series dropped, gauges at current levels.
func TestDeltaIncrements(t *testing.T) {
	r := New()
	moved := r.Counter("moved_total")
	idle := r.Counter("idle_total")
	h := r.Histogram("lat")
	g := r.Gauge("level")

	moved.Add(2)
	idle.Add(5)
	h.Observe(1)
	g.Set(0.25)
	prev := r.Snapshot()

	moved.Add(7)
	h.Observe(1)
	h.Observe(1024)
	g.Set(0.75)
	d := r.Delta(prev)

	if len(d.Counters) != 1 || d.Counters[0].Name != "moved_total" || d.Counters[0].Value != 7 {
		t.Fatalf("counters = %+v (idle series must be dropped)", d.Counters)
	}
	if len(d.Gauges) != 1 || d.Gauges[0].Value != 0.75 {
		t.Fatalf("gauges = %+v", d.Gauges)
	}
	if len(d.Histograms) != 1 {
		t.Fatalf("histograms = %+v", d.Histograms)
	}
	hd := d.Histograms[0]
	if hd.Count != 2 || hd.Sum != 1025 {
		t.Fatalf("hist delta count=%d sum=%g", hd.Count, hd.Sum)
	}
	var total int64
	for _, b := range hd.Buckets {
		total += b.Count
	}
	if total != 2 {
		t.Fatalf("bucket increments sum to %d, want 2", total)
	}
	if len(hd.Exemplars) != 0 {
		t.Fatalf("delta carries exemplars: %+v", hd.Exemplars)
	}
}

// TestDeltaRecomposes pins the algebra the streaming fold depends on:
// summing a run's delta sequence reproduces the final counter and
// histogram totals exactly.
func TestDeltaRecomposes(t *testing.T) {
	r := New()
	c := r.Counter("c_total")
	h := r.Histogram("h")

	var prev *Snapshot
	sumC, sumN := int64(0), int64(0)
	for w := 1; w <= 5; w++ {
		for i := 0; i < w; i++ {
			c.Add(int64(w))
			h.Observe(float64(w))
		}
		cur := r.Snapshot()
		d := SnapshotDelta(cur, prev)
		prev = cur
		for _, cs := range d.Counters {
			sumC += cs.Value
		}
		for _, hs := range d.Histograms {
			sumN += hs.Count
		}
	}
	final := r.Snapshot()
	if sumC != final.Counters[0].Value {
		t.Fatalf("summed counter deltas %d != final %d", sumC, final.Counters[0].Value)
	}
	if sumN != final.Histograms[0].Count {
		t.Fatalf("summed histogram deltas %d != final %d", sumN, final.Histograms[0].Count)
	}
}

// TestDeltaByteIdentical: identical op sequences on two registries
// produce byte-identical delta JSON — the canonical-form contract.
func TestDeltaByteIdentical(t *testing.T) {
	mk := func() []byte {
		r := New()
		r.Counter("a_total", "k", "v").Add(1)
		r.Histogram("h").Observe(3)
		prev := r.Snapshot()
		r.Counter("a_total", "k", "v").Add(41)
		r.Counter("b_total").Inc()
		r.Histogram("h").Observe(9)
		r.Gauge("g").Set(0.5)
		b, err := r.Delta(prev).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := mk(), mk(); !bytes.Equal(a, b) {
		t.Fatalf("delta JSON diverges:\n%s\nvs\n%s", a, b)
	}
}

// TestDeltaCounterReset pins the restart semantics: a counter that moved
// backwards (prev from another life of the registry) contributes its
// current absolute value, like Prometheus rate() on a counter reset.
func TestDeltaCounterReset(t *testing.T) {
	old := New()
	old.Counter("c_total").Add(100)
	old.Histogram("h").Observe(1)
	old.Histogram("h").Observe(1)
	prev := old.Snapshot()

	r := New()
	r.Counter("c_total").Add(4)
	r.Histogram("h").Observe(2)
	d := r.Delta(prev)
	if len(d.Counters) != 1 || d.Counters[0].Value != 4 {
		t.Fatalf("reset counter delta = %+v, want current value 4", d.Counters)
	}
	if len(d.Histograms) != 1 || d.Histograms[0].Count != 1 {
		t.Fatalf("reset histogram delta = %+v, want current count 1", d.Histograms)
	}
}
