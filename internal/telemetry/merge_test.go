package telemetry

import (
	"bytes"
	"testing"
)

func sessionSnapshot(seed int64) *Snapshot {
	r := New()
	r.Counter("frames_total").Add(10 + seed)
	r.Counter("frames_total", "outcome", "bad").Add(seed)
	r.Gauge("goodput_bps").Set(float64(1000 * (seed + 1)))
	h := r.Histogram("airtime_slots")
	h.Observe(float64(4 * (seed + 1)))
	h.Observe(3)
	return r.Snapshot()
}

func TestMergeAggregates(t *testing.T) {
	m := Merge(sessionSnapshot(1), nil, sessionSnapshot(2))

	wantCounter := func(name, lk, lv string, want int64) {
		t.Helper()
		for _, c := range m.Counters {
			if c.Name != name {
				continue
			}
			if lk == "" && len(c.Labels) == 0 || len(c.Labels) == 1 && c.Labels[0].Key == lk && c.Labels[0].Value == lv {
				if c.Value != want {
					t.Errorf("%s{%s=%s} = %d, want %d", name, lk, lv, c.Value, want)
				}
				return
			}
		}
		t.Errorf("counter %s{%s=%s} missing", name, lk, lv)
	}
	wantCounter("frames_total", "", "", 11+12)
	wantCounter("frames_total", "outcome", "bad", 3)

	if len(m.Gauges) != 1 || m.Gauges[0].Value != (2000+3000)/2 {
		t.Fatalf("gauge mean: %+v", m.Gauges)
	}
	if len(m.Histograms) != 1 {
		t.Fatalf("histograms: %+v", m.Histograms)
	}
	h := m.Histograms[0]
	if h.Count != 4 || h.Sum != 8+3+12+3 {
		t.Fatalf("histogram count=%d sum=%v", h.Count, h.Sum)
	}
	var bucketTotal int64
	for _, b := range h.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != 4 {
		t.Fatalf("bucket occupancy %d", bucketTotal)
	}
}

// TestMergeSingleIdentity: merging one snapshot is the identity — same
// series, same values, same canonical JSON.
func TestMergeSingleIdentity(t *testing.T) {
	r := New()
	r.Counter("frames_total").Add(7)
	r.Counter("frames_total", "outcome", "bad").Add(2)
	r.Gauge("goodput_bps").Set(1234.5)
	r.Histogram("airtime_slots").Observe(40)
	s := r.Snapshot()

	want, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Merge(s).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("single-snapshot merge is not the identity:\nwant %s\ngot  %s", want, got)
	}
}

// TestMergeEmptyList: Merge of an all-nil argument list behaves like
// Merge of nothing — the canonical empty snapshot.
func TestMergeEmptyList(t *testing.T) {
	m := Merge(nil, nil)
	if len(m.Counters) != 0 || len(m.Gauges) != 0 || len(m.Histograms) != 0 {
		t.Fatalf("all-nil merge not empty: %+v", m)
	}
}

// TestMergeDisjointBuckets: histograms whose occupied buckets do not
// overlap merge into the sorted union with occupancies intact.
func TestMergeDisjointBuckets(t *testing.T) {
	a := New()
	a.Histogram("airtime_slots").Observe(1) // low bucket
	b := New()
	b.Histogram("airtime_slots").Observe(1e6) // high bucket
	b.Histogram("airtime_slots").Observe(1e6)

	m := Merge(a.Snapshot(), b.Snapshot())
	if len(m.Histograms) != 1 {
		t.Fatalf("histograms: %+v", m.Histograms)
	}
	h := m.Histograms[0]
	if h.Count != 3 || len(h.Buckets) != 2 {
		t.Fatalf("count %d, %d buckets, want 3 and 2: %+v", h.Count, len(h.Buckets), h.Buckets)
	}
	if h.Buckets[0].Index >= h.Buckets[1].Index {
		t.Fatalf("buckets not index-sorted: %+v", h.Buckets)
	}
	if h.Buckets[0].Count != 1 || h.Buckets[1].Count != 2 {
		t.Fatalf("bucket occupancies lost: %+v", h.Buckets)
	}
}

// TestMergeCanonical: the merged snapshot must export byte-identically
// regardless of input construction history, and merging zero snapshots
// must yield the canonical empty snapshot.
func TestMergeCanonical(t *testing.T) {
	a, err := Merge(sessionSnapshot(3), sessionSnapshot(4)).JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Merge(sessionSnapshot(3), sessionSnapshot(4)).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("merge is not reproducible")
	}
	empty, err := Merge().JSON()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := (&Snapshot{Counters: []CounterSnapshot{}, Gauges: []GaugeSnapshot{}, Histograms: []HistogramSnapshot{}}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(empty, ref) {
		t.Fatalf("empty merge:\n%s", empty)
	}
}
