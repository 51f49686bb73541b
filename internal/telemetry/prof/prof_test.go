package prof

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"smartvlc/internal/alloctest"
	"smartvlc/internal/telemetry"
)

// TestNilIsNoOp pins the nil-safety contract for profiler and stage.
func TestNilIsNoOp(t *testing.T) {
	var p *Profiler
	st := p.Stage("phy.tx", "pam4", "0.50", "")
	if st != nil {
		t.Fatal("nil profiler returned non-nil stage")
	}
	st.Ops(1)
	st.Samples(2)
	st.Slots(3)
	st.Symbols(4)
	st.Bytes(5)
	st.Allocs(6)
	p.Publish(nil)
	if got := p.Snapshot(); len(got.Series) != 0 {
		t.Fatalf("nil profiler snapshot has %d series", len(got.Series))
	}
}

// TestNilStageZeroAllocs pins the hot-path cost of disabled profiling.
func TestNilStageZeroAllocs(t *testing.T) {
	var st *Stage
	if n, _ := alloctest.Count(100, func() {
		st.Ops(1)
		st.Samples(480)
		st.Slots(32)
	}); n != 0 {
		t.Fatalf("nil stage adders allocate %d times over 100 runs, want 0", n)
	}
}

// TestSnapshotCanonicalAndElided: creation order must not matter, and
// zero-cost series must not appear.
func TestSnapshotCanonicalAndElided(t *testing.T) {
	build := func(reverse bool) []byte {
		p := New()
		keys := [][4]string{
			{"phy.tx", "pam4", "0.50", ""},
			{"phy.decode", "pam4", "0.50", ""},
			{"mac.frame", "opwm", "0.75", "rx1"},
		}
		if reverse {
			keys[0], keys[2] = keys[2], keys[0]
		}
		for _, k := range keys {
			st := p.Stage(k[0], k[1], k[2], k[3])
			st.Ops(1)
			st.Samples(10)
		}
		p.Stage("idle", "pam4", "0.50", "") // created, never added to
		b, err := p.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := build(false), build(true)
	if !bytes.Equal(a, b) {
		t.Fatalf("creation order changed snapshot JSON:\n%s\nvs\n%s", a, b)
	}
	if strings.Contains(string(a), `"idle"`) {
		t.Fatalf("zero-cost series not elided:\n%s", a)
	}
}

// TestConcurrentAddsMatchSerial: atomic adds commute, so hammering one
// stage from many goroutines must equal the serial total.
func TestConcurrentAddsMatchSerial(t *testing.T) {
	p := New()
	st := p.Stage("phy.hunt", "pam4", "0.50", "")
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				st.Ops(1)
				st.Samples(480)
			}
		}()
	}
	wg.Wait()
	s := p.Snapshot()
	if len(s.Series) != 1 {
		t.Fatalf("got %d series, want 1", len(s.Series))
	}
	if s.Series[0].Ops != workers*iters || s.Series[0].Samples != workers*iters*480 {
		t.Fatalf("counts %+v, want ops=%d samples=%d", s.Series[0].Counts, workers*iters, workers*iters*480)
	}
}

// TestOverflowBucket: past the limit, new keys collapse into the shared
// overflow series instead of growing the map.
func TestOverflowBucket(t *testing.T) {
	p := NewLimited(2)
	p.Stage("a", "", "", "").Ops(1)
	p.Stage("b", "", "", "").Ops(1)
	o1 := p.Stage("c", "", "", "")
	o2 := p.Stage("d", "", "", "")
	if o1 != o2 {
		t.Fatal("overflow keys got distinct stages")
	}
	o1.Ops(5)
	s := p.Snapshot()
	if len(s.Series) != 3 {
		t.Fatalf("got %d series, want 2 admitted + overflow", len(s.Series))
	}
	var overflow *Series
	for i := range s.Series {
		if s.Series[i].Stage == OverflowStage {
			overflow = &s.Series[i]
		}
	}
	if overflow == nil || overflow.Ops != 5 {
		t.Fatalf("overflow series missing or wrong: %+v", s.Series)
	}
	// An admitted key keeps resolving to its own stage after overflow.
	if p.Stage("a", "", "", "") == o1 {
		t.Fatal("admitted key resolved to overflow stage")
	}
}

// TestLevelLabel pins the two-decimal quantization.
func TestLevelLabel(t *testing.T) {
	cases := map[float64]string{0: "0.00", 0.5: "0.50", 0.499: "0.50", 0.494: "0.49", 1: "1.00", 0.125: "0.13"}
	for in, want := range cases {
		if got := LevelLabel(in); got != want {
			t.Errorf("LevelLabel(%v) = %q, want %q", in, got, want)
		}
	}
}

// TestMergeSums: merging snapshots sums cost vectors per key and keeps
// canonical order; merge of identical inputs is byte-deterministic.
func TestMergeSums(t *testing.T) {
	mk := func(ops int64) *Snapshot {
		p := New()
		st := p.Stage("phy.tx", "pam4", "0.50", "")
		st.Ops(ops)
		st.Slots(ops * 10)
		p.Stage("phy.decode", "pam4", "0.50", "").Bytes(7)
		return p.Snapshot()
	}
	m := Merge(mk(2), nil, mk(3))
	if len(m.Series) != 2 {
		t.Fatalf("merged %d series, want 2", len(m.Series))
	}
	var tx *Series
	for i := range m.Series {
		if m.Series[i].Stage == "phy.tx" {
			tx = &m.Series[i]
		}
	}
	if tx == nil || tx.Ops != 5 || tx.Slots != 50 {
		t.Fatalf("merged tx %+v, want ops=5 slots=50", m.Series)
	}
	j1, _ := Merge(mk(2), mk(3)).JSON()
	j2, _ := Merge(mk(2), mk(3)).JSON()
	if !bytes.Equal(j1, j2) {
		t.Fatal("repeated merge produced different JSON")
	}
}

// TestDiffAndTopRegression: diff covers both sides' keys; TopRegression
// names the series with the largest relative growth.
func TestDiffAndTopRegression(t *testing.T) {
	mk := func(huntSamples, decodeOps int64) *Snapshot {
		p := New()
		p.Stage("phy.hunt", "pam4", "0.50", "").Samples(huntSamples)
		if decodeOps > 0 {
			p.Stage("phy.decode", "pam4", "0.50", "").Ops(decodeOps)
		}
		return p.Snapshot()
	}
	a, b := mk(1000, 0), mk(1100, 50)
	deltas := Diff(a, b)
	if len(deltas) != 2 {
		t.Fatalf("diff has %d rows, want 2", len(deltas))
	}
	// phy.decode is new in b → fully grown → the top samples regression
	// is still phy.hunt (decode has no samples).
	top, ok := TopRegression(deltas, MetricSamples)
	if !ok || top.Stage != "phy.hunt" {
		t.Fatalf("top samples regression %+v ok=%v, want phy.hunt", top, ok)
	}
	top, ok = TopRegression(deltas, MetricOps)
	if !ok || top.Stage != "phy.decode" {
		t.Fatalf("top ops regression %+v ok=%v, want phy.decode", top, ok)
	}
	if _, ok := TopRegression(Diff(a, a), MetricSamples); ok {
		t.Fatal("identical snapshots reported a regression")
	}
	// Zero-delta diff: every row unchanged.
	for _, d := range Diff(b, b) {
		if d.Changed() {
			t.Fatalf("self-diff row changed: %+v", d)
		}
	}
}

// TestWriteFolded pins the collapsed-stack line format and metric
// selection.
func TestWriteFolded(t *testing.T) {
	p := New()
	st := p.Stage("phy.hunt", "pam4", "0.50", "")
	st.Samples(480)
	st.Ops(1)
	p.Stage("phy;odd stage", "", "", "rx1").Samples(7)
	var buf bytes.Buffer
	if err := p.Snapshot().WriteFolded(&buf, MetricSamples); err != nil {
		t.Fatal(err)
	}
	want := "pam4;0.50;phy.hunt 480\n(scheme);(level);phy_odd_stage;rx1 7\n"
	if buf.String() != want {
		t.Fatalf("folded mismatch:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
	buf.Reset()
	if err := p.Snapshot().WriteFolded(&buf, MetricBytes); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("bytes-metric folded output not empty:\n%s", buf.String())
	}
}

// TestParseSnapshotRoundTrip: JSON → ParseSnapshot is the identity.
func TestParseSnapshotRoundTrip(t *testing.T) {
	p := New()
	p.Stage("phy.tx", "pam4", "0.50", "").Ops(3)
	s := p.Snapshot()
	b, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("round trip changed bytes:\n%s\nvs\n%s", b, b2)
	}
}

// TestPublishMirrorsToRegistry: totals land as labeled prof_*_total
// counters so telemetry.Merge carries stage costs across the fleet.
func TestPublishMirrorsToRegistry(t *testing.T) {
	p := New()
	st := p.Stage("phy.tx", "pam4", "0.50", "rx2")
	st.Ops(3)
	st.Samples(900)
	reg := telemetry.New()
	p.Publish(reg)
	snap := reg.Snapshot()
	found := map[string]int64{}
	for _, c := range snap.Counters {
		found[c.Name] = c.Value
		want := map[string]string{"stage": "phy.tx", "scheme": "pam4", "level": "0.50", "shard": "rx2"}
		for _, l := range c.Labels {
			if want[l.Key] != l.Value {
				t.Fatalf("counter %s label %s=%q, want %q", c.Name, l.Key, l.Value, want[l.Key])
			}
		}
	}
	if found["prof_ops_total"] != 3 || found["prof_samples_total"] != 900 {
		t.Fatalf("published counters %+v, want ops 3 samples 900", found)
	}
	if _, ok := found["prof_bytes_total"]; ok {
		t.Fatal("zero dimension published a counter")
	}
}
