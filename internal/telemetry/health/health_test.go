package health

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"smartvlc/internal/alloctest"
	"smartvlc/internal/telemetry"
)

// testConfig: 1000-slot buckets (8 ms), two extra resolutions at ×4, one
// frame-loss SLO with short windows so tests drive transitions quickly.
func testConfig() Config {
	return Config{
		BucketSlots: 1000,
		Levels:      3,
		Factor:      4,
		Objectives: []Objective{{
			Name: "loss", Metric: MetricFrameLoss, Kind: UpperBound,
			Target: 0.1, FastWindow: 3, SlowWindow: 6,
		}},
	}
}

const testBucketDur = 1000 * defaultTSlot // 8 ms

// feedBucket pours one bucket's worth of synthetic traffic in at the
// bucket's midpoint: frames received, a fraction bad, payload delivered
// for the good ones.
func feedBucket(m *Monitor, idx int, frames, bad int) {
	now := (float64(idx) + 0.5) * testBucketDur
	m.Tick(now)
	m.ObserveLevel(now, 0.5)
	for i := 0; i < frames; i++ {
		m.ObserveTx(now, 100, false)
	}
	ok := frames - bad
	m.ObserveRx(now, ok, bad, 0, ok*128)
	m.ObserveDelivered(now, int64(ok)*1024)
	m.ObserveAck(now, 0.01)
}

func sealThrough(m *Monitor, idx int) { m.Tick(float64(idx+1) * testBucketDur) }

func TestMonitorSealsAndDerives(t *testing.T) {
	m := NewMonitor(testConfig())
	feedBucket(m, 0, 10, 1)
	sealThrough(m, 0)
	s := m.Snapshot()
	if len(s.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(s.Series))
	}
	pts := s.Series[0].Points
	if len(pts) != 1 {
		t.Fatalf("finest points = %d, want 1", len(pts))
	}
	p := pts[0]
	if p.FramesTx != 10 || p.FramesOK != 9 || p.FramesBad != 1 {
		t.Errorf("counts: tx=%d ok=%d bad=%d", p.FramesTx, p.FramesOK, p.FramesBad)
	}
	if p.FrameLoss != 0.1 {
		t.Errorf("FrameLoss = %v, want 0.1", p.FrameLoss)
	}
	if p.WidthSlots != 1000 {
		t.Errorf("WidthSlots = %v, want 1000", p.WidthSlots)
	}
	wantGoodput := float64(9*1024) / 1000
	if p.Goodput != wantGoodput {
		t.Errorf("Goodput = %v, want %v", p.Goodput, wantGoodput)
	}
	if p.MeanLevel != 0.5 || p.MaxLevel != 0.5 {
		t.Errorf("level mean=%v max=%v", p.MeanLevel, p.MaxLevel)
	}
	if p.AckP95 <= 0 || p.AckP95 > 0.02 {
		t.Errorf("AckP95 = %v, want within the 10ms bucket", p.AckP95)
	}
}

// Downsampling: Factor⁴ finest buckets fold into one coarse point whose
// raw counts are the exact sums.
func TestMonitorDownsamples(t *testing.T) {
	m := NewMonitor(testConfig())
	for i := 0; i < 8; i++ {
		feedBucket(m, i, 10, i%2) // alternating 0/1 bad
	}
	sealThrough(m, 7)
	s := m.Snapshot()
	coarse := s.Series[1]
	if coarse.BucketSlots != 4000 {
		t.Fatalf("coarse BucketSlots = %d, want 4000", coarse.BucketSlots)
	}
	if len(coarse.Points) != 2 {
		t.Fatalf("coarse points = %d, want 2", len(coarse.Points))
	}
	p := coarse.Points[0]
	if p.FramesTx != 40 || p.FramesBad != 2 {
		t.Errorf("coarse counts: tx=%d bad=%d, want 40/2", p.FramesTx, p.FramesBad)
	}
	if p.FrameLoss != 2.0/40.0 {
		t.Errorf("coarse FrameLoss = %v, want %v", p.FrameLoss, 2.0/40.0)
	}
	if got, want := p.Goodput, float64(38*1024)/4000; got != want {
		t.Errorf("coarse Goodput = %v, want %v", got, want)
	}
	if len(s.Series[2].Points) != 0 {
		t.Errorf("coarsest ring should still be accumulating, has %d points", len(s.Series[2].Points))
	}
}

// A degrading link walks ok → warning → critical, and a recovering one
// returns to ok. Alert transitions carry the firing bucket's end time.
func TestSLOTransitionSequence(t *testing.T) {
	reg := telemetry.New()
	cfg := testConfig()
	cfg.Registry = reg
	var alerts []Transition
	cfg.OnAlert = func(tr Transition) { alerts = append(alerts, tr) }
	m := NewMonitor(cfg)

	idx := 0
	feed := func(n, frames, bad int) {
		for i := 0; i < n; i++ {
			feedBucket(m, idx, frames, bad)
			idx++
		}
		sealThrough(m, idx-1)
	}
	feed(6, 20, 0) // healthy warmup: loss 0
	feed(6, 20, 3) // loss 0.15: warn burn 1.5 once slow window catches up
	if m.State() != StateWarning {
		t.Fatalf("after sustained 15%% loss: state = %v, want warning", m.State())
	}
	feed(6, 20, 12) // loss 0.6: crit burn 6
	if m.State() != StateCritical {
		t.Fatalf("after sustained 60%% loss: state = %v, want critical", m.State())
	}
	feed(8, 20, 0) // recovery
	if m.State() != StateOK {
		t.Fatalf("after recovery: state = %v, want ok", m.State())
	}

	var seq []State
	for _, tr := range alerts {
		seq = append(seq, tr.To)
	}
	want := []State{StateWarning, StateCritical, StateOK}
	if len(seq) != len(want) {
		t.Fatalf("transitions = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", seq, want)
		}
	}
	for i := 1; i < len(alerts); i++ {
		if alerts[i].At <= alerts[i-1].At {
			t.Errorf("transition times not increasing: %v then %v", alerts[i-1].At, alerts[i].At)
		}
	}

	// Transitions also land in the snapshot and the transitions counter.
	s := m.Finish(float64(idx) * testBucketDur)
	if len(s.Transitions) != 3 {
		t.Errorf("snapshot transitions = %d, want 3", len(s.Transitions))
	}
	ts := reg.Snapshot()
	var transCount int64
	for _, c := range ts.Counters {
		if c.Name == "health_transitions_total" {
			transCount += c.Value
		}
	}
	if transCount != 3 {
		t.Errorf("health_transitions_total = %d, want 3", transCount)
	}
}

// Before FastWindow buckets have sealed, no judgment: a link is never
// alerted on its first instants, even if they are terrible.
func TestSLOWarmup(t *testing.T) {
	m := NewMonitor(testConfig())
	feedBucket(m, 0, 20, 20)
	feedBucket(m, 1, 20, 20)
	sealThrough(m, 1)
	if m.State() != StateOK {
		t.Fatalf("state during warmup = %v, want ok", m.State())
	}
}

// Buckets where a metric is undefined (no frames at all) never change the
// alert state.
func TestSLOUndefinedWindowsHold(t *testing.T) {
	m := NewMonitor(testConfig())
	for i := 0; i < 8; i++ {
		feedBucket(m, i, 20, 10) // loss 0.5 → critical
	}
	sealThrough(m, 7)
	if m.State() != StateCritical {
		t.Fatalf("state = %v, want critical", m.State())
	}
	m.Tick(30 * testBucketDur) // long silence: empty buckets seal
	if m.State() != StateCritical {
		t.Errorf("state after silence = %v; undefined windows must hold the last state", m.State())
	}
}

// Identical observation streams produce byte-identical snapshots.
func TestSnapshotDeterminism(t *testing.T) {
	run := func() []byte {
		m := NewMonitor(testConfig())
		for i := 0; i < 20; i++ {
			feedBucket(m, i, 15+i%3, i%4)
		}
		s := m.Finish(20.3 * testBucketDur)
		j, err := s.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("two identical runs produced different health JSON")
	}
}

func TestFinishFlushesPartialAndFreezes(t *testing.T) {
	m := NewMonitor(testConfig())
	feedBucket(m, 0, 10, 0)
	sealThrough(m, 0)
	feedBucket(m, 1, 7, 0)
	now := 1.5 * testBucketDur
	s := m.Finish(now)
	pts := s.Series[0].Points
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2 (one sealed, one partial)", len(pts))
	}
	last := pts[1]
	if !last.Partial || last.End != now || last.FramesTx != 7 {
		t.Errorf("partial point = %+v", last)
	}
	if math.Abs(last.WidthSlots-500) > 1e-6 {
		t.Errorf("partial WidthSlots = %v, want ≈500", last.WidthSlots)
	}
	// Frozen: later observations and Finish calls change nothing.
	m.ObserveTx(99, 100, false)
	s2 := m.Finish(99)
	if len(s2.Series[0].Points) != 2 || s2.Series[0].Points[1].FramesTx != 7 {
		t.Error("monitor accepted observations after Finish")
	}
}

func TestRingEviction(t *testing.T) {
	cfg := testConfig()
	cfg.Capacity = 4
	m := NewMonitor(cfg)
	for i := 0; i < 6; i++ {
		feedBucket(m, i, 5, 0)
	}
	sealThrough(m, 5)
	sr := m.Snapshot().Series[0]
	if len(sr.Points) != 4 || sr.Dropped != 2 {
		t.Fatalf("points=%d dropped=%d, want 4/2", len(sr.Points), sr.Dropped)
	}
	if sr.Points[0].Index != 2 || sr.Points[3].Index != 5 {
		t.Errorf("retained indexes %d..%d, want 2..5", sr.Points[0].Index, sr.Points[3].Index)
	}
}

// Observations whose timestamp predates the open bucket (late
// side-channel ACKs) clamp into the open bucket instead of corrupting a
// sealed one.
func TestLateObservationClamps(t *testing.T) {
	m := NewMonitor(testConfig())
	m.Tick(2 * testBucketDur) // buckets 0 and 1 sealed empty
	m.ObserveAck(0.5*testBucketDur, 0.01)
	s := m.Finish(2.5 * testBucketDur)
	pts := s.Series[0].Points
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	if pts[0].AckCount != 0 || pts[1].AckCount != 0 {
		t.Error("late ack mutated a sealed bucket")
	}
	if pts[2].AckCount != 1 {
		t.Errorf("open bucket AckCount = %d, want 1", pts[2].AckCount)
	}
}

func TestNDJSONStream(t *testing.T) {
	m := NewMonitor(testConfig())
	for i := 0; i < 10; i++ {
		feedBucket(m, i, 20, 15)
	}
	s := m.Finish(10 * testBucketDur)
	var buf bytes.Buffer
	if err := s.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	types := map[string]int{}
	for _, ln := range lines {
		var v struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(ln), &v); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", ln, err)
		}
		types[v.Type]++
	}
	if types["health"] != 1 {
		t.Errorf("header lines = %d, want 1", types["health"])
	}
	if types["point"] == 0 || types["objective"] != 1 || types["transition"] == 0 {
		t.Errorf("line mix = %v", types)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	m := NewMonitor(testConfig())
	for i := 0; i < 10; i++ {
		feedBucket(m, i, 20, 15)
	}
	s := m.Finish(10 * testBucketDur)
	j, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(j))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j, j2) {
		t.Fatal("snapshot JSON does not round-trip")
	}
	if got.State != StateCritical {
		t.Errorf("round-tripped state = %v", got.State)
	}
}

// The nil monitor is free: no allocations, no work, on every method.
func TestNilMonitorZeroCost(t *testing.T) {
	var m *Monitor
	allocs, _ := alloctest.Count(100, func() {
		m.Tick(1)
		m.ObserveLevel(1, 0.5)
		m.ObserveTx(1, 100, false)
		m.ObserveRx(1, 1, 0, 0, 128)
		m.ObserveDelivered(1, 1024)
		m.ObserveAck(1, 0.01)
		if m.State() != StateOK {
			t.Fatal("nil state")
		}
		if m.Snapshot() != nil || m.Finish(1) != nil {
			t.Fatal("nil snapshot")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil monitor allocated %d times over 100 runs", allocs)
	}
}

// At Finish, a coarser partial point holds exactly the finer points folded
// into it, partial finest bucket included, and its End and width cover
// exactly those points: level 1 ends at now with all 70 frames, while
// level 2 holds only the one sealed level-1 point, [0, 4) buckets.
func TestFinishCoarsePartialCountsItsConstituents(t *testing.T) {
	m := NewMonitor(testConfig())
	for i := 0; i < 7; i++ {
		feedBucket(m, i, 10, 0)
	}
	now := 6.6 * testBucketDur
	s := m.Finish(now)
	for k, want := range []int64{70, 70, 40} {
		var frames int64
		for _, p := range s.Series[k].Points {
			frames += p.FramesTx
		}
		if frames != want {
			t.Errorf("level %d sums %d frames, want %d", k, frames, want)
		}
	}
	for _, p := range s.Series[0].Points[:6] {
		if p.Goodput != 10.24 {
			t.Errorf("full bucket %d reads %v b/slot, want 10.24", p.Index, p.Goodput)
		}
	}
	type want struct {
		start, end float64
		frames     int64
		width      float64
	}
	for k, w := range map[int]want{
		1: {4 * testBucketDur, now, 30, 2600},
		2: {0, 4 * testBucketDur, 40, 4000},
	} {
		pts := s.Series[k].Points
		p := pts[len(pts)-1]
		if !p.Partial || p.Start != w.start || p.End != w.end || p.FramesTx != w.frames {
			t.Errorf("level %d partial = [%v, %v) with %d frames, partial %v; want [%v, %v) with %d",
				k, p.Start, p.End, p.FramesTx, p.Partial, w.start, w.end, w.frames)
		}
		if math.Abs(p.WidthSlots-w.width) > 1e-6 {
			t.Errorf("level %d partial width %v slots, want %v", k, p.WidthSlots, w.width)
		}
		if got := float64(p.DeliveredBits) / p.WidthSlots; math.Abs(p.Goodput-got) > 1e-12 {
			t.Errorf("level %d partial goodput %v, want %v", k, p.Goodput, got)
		}
	}
	if g := s.Series[2].Points[0].Goodput; g != 10.24 {
		t.Errorf("level 2 partial over full buckets reads %v b/slot, want 10.24", g)
	}
}
