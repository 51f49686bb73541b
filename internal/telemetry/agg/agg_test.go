package agg

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"smartvlc/internal/telemetry"
)

// feedSession drives one session's feed through a scripted run: each
// step adds activity to the registry and ticks the feed at the given sim
// time. It mirrors what the sim run loop does when Config.Watch is set.
type step struct {
	now      float64
	framesTx int64
	framesOK int64
	symErrs  int64
	timeouts int64
	bytes    int64
	ackLat   float64
}

func drive(t *testing.T, f *Feed, reg *telemetry.Registry, steps []step, finish float64) {
	t.Helper()
	for _, st := range steps {
		if st.framesTx > 0 {
			reg.Counter("sim_frames_tx_total").Add(st.framesTx)
		}
		if st.framesOK > 0 {
			reg.Counter("phy_rx_frames_total", "outcome", "ok").Add(st.framesOK)
		}
		if st.symErrs > 0 {
			reg.Counter("phy_rx_symbol_errors_total").Add(st.symErrs)
		}
		if st.timeouts > 0 {
			reg.Counter("mac_timeouts_total").Add(st.timeouts)
		}
		if st.bytes > 0 {
			reg.Counter("sim_delivered_bytes_total").Add(st.bytes)
		}
		if st.ackLat > 0 {
			reg.Counter("mac_acks_received_total").Inc()
			reg.Histogram("mac_ack_latency_seconds").Observe(st.ackLat)
		}
		f.Tick(st.now, reg)
	}
	f.Finish(finish, reg)
}

// TestSealWaitsForSlowestSession pins the barrier semantics: a fleet
// window seals only once every session has delivered it, and the sealed
// point is the exact config-order sum of the contributions.
func TestSealWaitsForSlowestSession(t *testing.T) {
	a, err := New(Config{WindowSeconds: 0.1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	f0, err := a.Feed(SessionMeta{Index: 0, PayloadBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	f1, err := a.Feed(SessionMeta{Index: 1, PayloadBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := telemetry.New(), telemetry.New()

	r0.Counter("sim_frames_tx_total").Add(5)
	f0.Tick(0.15, r0) // session 0 delivers window 0
	if s := a.Snapshot(); s.SealedWindows != 0 {
		t.Fatalf("sealed %d windows before session 1 reported", s.SealedWindows)
	}

	r1.Counter("sim_frames_tx_total").Add(3)
	f1.Tick(0.15, r1) // now both have window 0
	s := a.Snapshot()
	if s.SealedWindows != 1 {
		t.Fatalf("sealed = %d, want 1", s.SealedWindows)
	}
	p := s.Series[0].Points[0]
	if p.FramesTx != 8 || p.Sessions != 2 || p.Index != 0 {
		t.Fatalf("window 0 = %+v", p)
	}

	// A finished session stops holding windows open.
	f0.Finish(0.32, r0)
	r1.Counter("sim_frames_tx_total").Add(1)
	f1.Tick(0.35, r1)
	f1.Finish(0.38, r1)
	s = a.Snapshot()
	if s.Done != 2 {
		t.Fatalf("done = %d, want 2", s.Done)
	}
	var total int64
	for _, p := range s.Series[0].Points {
		total += p.FramesTx
	}
	if total != 9 {
		t.Fatalf("frames across sealed windows = %d, want 9", total)
	}
}

// TestPyramidExactRollup seals enough fine windows to cascade two levels
// and checks coarser points are exact sums with exact time bounds, and
// that incomplete groups surface as Partial points without sealing.
func TestPyramidExactRollup(t *testing.T) {
	a, err := New(Config{WindowSeconds: 0.1, Levels: 3, Factor: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := a.Feed(SessionMeta{Index: 0, PayloadBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()

	// Deliver 5 windows: one frame-tx per window boundary crossing.
	for w := 0; w < 5; w++ {
		reg.Counter("sim_frames_tx_total").Inc()
		f.Tick(float64(w)*0.1+0.15, reg)
	}
	s := a.Snapshot()
	if s.SealedWindows != 5 {
		t.Fatalf("sealed = %d, want 5", s.SealedWindows)
	}
	lv1 := s.Series[1]
	// Two full groups of 2 sealed, window 4 still open at level 1.
	if len(lv1.Points) != 3 {
		t.Fatalf("level 1 points = %d, want 2 sealed + 1 open", len(lv1.Points))
	}
	if lv1.Points[0].FramesTx != 2 || lv1.Points[0].Start != 0 || lv1.Points[0].End != 0.2 {
		t.Fatalf("level 1 point 0 = %+v", lv1.Points[0])
	}
	if !lv1.Points[2].Partial || lv1.Points[2].FramesTx != 1 {
		t.Fatalf("open level-1 group = %+v, want partial with 1 frame", lv1.Points[2])
	}
	lv2 := s.Series[2]
	// Window 4 is still open at level 1, so it has not cascaded up yet:
	// level 2 holds exactly the one sealed group of 4 windows.
	if len(lv2.Points) != 1 {
		t.Fatalf("level 2 points = %d, want 1 sealed", len(lv2.Points))
	}
	if lv2.Points[0].FramesTx != 4 || lv2.Points[0].End != 0.4 {
		t.Fatalf("level 2 point 0 = %+v", lv2.Points[0])
	}
}

// TestCapacityEviction fills a level past Capacity and checks the ring
// stays bounded with evictions counted.
func TestCapacityEviction(t *testing.T) {
	a, err := New(Config{WindowSeconds: 0.1, Levels: 1, Capacity: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := a.Feed(SessionMeta{Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	for w := 0; w < 10; w++ {
		f.Tick(float64(w)*0.1+0.15, reg)
	}
	s := a.Snapshot()
	lv := s.Series[0]
	if len(lv.Points) != 4 || lv.Dropped != 6 {
		t.Fatalf("ring len %d dropped %d, want 4 and 6", len(lv.Points), lv.Dropped)
	}
	if lv.Points[0].Index != 6 || lv.Points[3].Index != 9 {
		t.Fatalf("ring holds windows %d..%d, want 6..9", lv.Points[0].Index, lv.Points[3].Index)
	}
}

// TestTopKOrdering pins the worst-first ranking, the session-index
// tie-break, the K bound, and the eligibility filters.
func TestTopKOrdering(t *testing.T) {
	stats := []SessionStat{
		{Session: 0, SER: 0.5, Symbols: 10, FramesTx: 1},
		{Session: 1, SER: 0.9, Symbols: 10, FramesTx: 1},
		{Session: 2, SER: 0.9, Symbols: 10, FramesTx: 1},
		{Session: 3, SER: 0.1, Symbols: 10, FramesTx: 1},
		{Session: 4, SER: 0.0, Symbols: 0, FramesTx: 1}, // ineligible: no symbols
	}
	got := selectTop(stats, 3, func(st *SessionStat) (float64, bool) { return st.SER, st.Symbols > 0 })
	want := []int{1, 2, 0} // 0.9 (tie → index asc), then 0.5
	if len(got) != 3 {
		t.Fatalf("top-K len = %d, want 3", len(got))
	}
	for i, w := range want {
		if got[i].Session != w {
			t.Fatalf("rank %d = session %d, want %d (full: %+v)", i, got[i].Session, w, got)
		}
	}
	// K larger than the eligible population returns everyone eligible.
	all := selectTop(stats, 10, func(st *SessionStat) (float64, bool) { return st.SER, st.Symbols > 0 })
	if len(all) != 4 {
		t.Fatalf("eligible rows = %d, want 4", len(all))
	}
}

// TestDeterministicAcrossArrivalOrder drives the same two sessions in
// opposite interleavings and checks the snapshots are byte-identical —
// the scheduling-independence contract.
func TestDeterministicAcrossArrivalOrder(t *testing.T) {
	script0 := []step{{now: 0.15, framesTx: 4, framesOK: 3, symErrs: 2, bytes: 96, ackLat: 0.01}, {now: 0.25, framesTx: 2, timeouts: 1}}
	script1 := []step{{now: 0.15, framesTx: 6, framesOK: 6, bytes: 192, ackLat: 0.02}, {now: 0.25, framesTx: 1, symErrs: 5, framesOK: 1, bytes: 32}}

	run := func(firstSession int) []byte {
		a, err := New(Config{WindowSeconds: 0.1, Factor: 2, K: 4}, 2)
		if err != nil {
			t.Fatal(err)
		}
		f0, err := a.Feed(SessionMeta{Index: 0, Seed: 11, Scheme: "am-ppm", PayloadBytes: 32})
		if err != nil {
			t.Fatal(err)
		}
		f1, err := a.Feed(SessionMeta{Index: 1, Seed: 12, Scheme: "am-ppm", PayloadBytes: 32})
		if err != nil {
			t.Fatal(err)
		}
		r0, r1 := telemetry.New(), telemetry.New()
		if firstSession == 0 {
			drive(t, f0, r0, script0, 0.3)
			drive(t, f1, r1, script1, 0.3)
		} else {
			drive(t, f1, r1, script1, 0.3)
			drive(t, f0, r0, script0, 0.3)
		}
		b, err := a.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(0), run(1)
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot depends on arrival order:\n%s\nvs\n%s", a, b)
	}
}

// TestSnapshotRoundTrip pins the JSON and NDJSON exports: ReadSnapshot
// inverts JSON(), and the NDJSON stream carries a typed header, every
// point, and the ranked worst rows.
func TestSnapshotRoundTrip(t *testing.T) {
	a, err := New(Config{WindowSeconds: 0.1, Factor: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	f0, _ := a.Feed(SessionMeta{Index: 0, Seed: 1, PayloadBytes: 32})
	f1, _ := a.Feed(SessionMeta{Index: 1, Seed: 2, PayloadBytes: 32})
	r0, r1 := telemetry.New(), telemetry.New()
	drive(t, f0, r0, []step{{now: 0.15, framesTx: 3, framesOK: 2, symErrs: 1, bytes: 64, ackLat: 0.01}}, 0.2)
	drive(t, f1, r1, []step{{now: 0.15, framesTx: 2, framesOK: 2, bytes: 64, timeouts: 1}}, 0.2)

	s := a.Snapshot()
	b, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", s, back)
	}

	var nd bytes.Buffer
	if err := s.WriteNDJSON(&nd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(nd.String()), "\n")
	var header struct {
		Type     string `json:"type"`
		Sessions int    `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatal(err)
	}
	if header.Type != "fleet" || header.Sessions != 2 {
		t.Fatalf("header = %+v", header)
	}
	kinds := map[string]int{}
	for _, ln := range lines {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(ln), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", ln, err)
		}
		kinds[probe.Type]++
	}
	var points int
	for _, sr := range s.Series {
		points += len(sr.Points)
	}
	if kinds["point"] != points {
		t.Fatalf("NDJSON has %d point lines, snapshot has %d points", kinds["point"], points)
	}
	if kinds["worst"] != len(s.TopSER)+len(s.TopBurn)+len(s.TopAck) {
		t.Fatalf("NDJSON worst lines = %d", kinds["worst"])
	}
}

// TestFeedValidation pins the registration errors and nil-feed no-ops.
func TestFeedValidation(t *testing.T) {
	if _, err := New(Config{}, 0); err == nil {
		t.Fatal("New accepted an empty fleet")
	}
	a, err := New(Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Feed(SessionMeta{Index: 1}); err == nil {
		t.Fatal("Feed accepted an out-of-range index")
	}
	if _, err := a.Feed(SessionMeta{Index: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Feed(SessionMeta{Index: 0}); err == nil {
		t.Fatal("Feed accepted a duplicate registration")
	}
	var nilFeed *Feed
	nilFeed.Tick(1, nil)   // must not panic
	nilFeed.Finish(1, nil) // must not panic
	if nilFeed.WindowSeconds() != 0 {
		t.Fatal("nil feed window != 0")
	}
}

// TestNewRejectsHostileWindows: a non-finite window, or one below one
// 8 µs slot, is an error; zero or negative selects the 0.1 s default.
func TestNewRejectsHostileWindows(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e-9} {
		if _, err := New(Config{WindowSeconds: w}, 2); err == nil {
			t.Errorf("New accepted a %g s window", w)
		}
	}
	for w, want := range map[float64]float64{0: 0.1, -1: 0.1, 8e-6: 8e-6} {
		a, err := New(Config{WindowSeconds: w}, 2)
		if err != nil {
			t.Fatalf("New rejected a %g s window: %v", w, err)
		}
		if got := a.WindowSeconds(); got != want {
			t.Errorf("window %g s resolved to %g, want %g", w, got, want)
		}
	}
}

// TestIdleGapEmitsEmptyWindows checks a session that jumps several
// window widths in one tick back-fills empty windows so the fleet grid
// keeps advancing.
func TestIdleGapEmitsEmptyWindows(t *testing.T) {
	a, err := New(Config{WindowSeconds: 0.1, Levels: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := a.Feed(SessionMeta{Index: 0})
	reg := telemetry.New()
	reg.Counter("sim_frames_tx_total").Add(2)
	f.Tick(0.55, reg) // crosses boundaries 0.1..0.5 in one jump
	s := a.Snapshot()
	if s.SealedWindows != 5 {
		t.Fatalf("sealed = %d, want 5", s.SealedWindows)
	}
	if s.Series[0].Points[0].FramesTx != 2 {
		t.Fatalf("activity not attributed to first unflushed window: %+v", s.Series[0].Points[0])
	}
	for _, p := range s.Series[0].Points[1:] {
		if p.FramesTx != 0 {
			t.Fatalf("back-filled window %d not empty: %+v", p.Index, p)
		}
	}
}

// TestFlushMatchesGenericDelta pins the Feed's direct-read fast path to
// the contract it is defined against: each flush must contribute exactly
// what extracting a generic telemetry.SnapshotDelta between the same two
// registry states would. Two aggregators consume the same scripted run —
// one through the feed, one through snapshot deltas fed straight to
// observe — and must publish byte-identical snapshots.
func TestFlushMatchesGenericDelta(t *testing.T) {
	steps := []step{
		{now: 0.04, framesTx: 3, framesOK: 2, symErrs: 5, bytes: 96, ackLat: 0.004},
		{now: 0.12, framesTx: 2, framesOK: 2, timeouts: 1, bytes: 64, ackLat: 0.02},
		{now: 0.31, framesTx: 4, framesOK: 3, symErrs: 1, bytes: 128, ackLat: 0.001},
	}
	meta := SessionMeta{Index: 0, Seed: 9, Scheme: "AMPPM", PayloadBytes: 32}

	fast, err := New(Config{WindowSeconds: 0.1, Levels: 2, Factor: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	feed, err := fast.Feed(meta)
	if err != nil {
		t.Fatal(err)
	}
	regA := telemetry.New()
	regA.Gauge("sim_dimming_level").Set(0.5)
	drive(t, feed, regA, steps, 0.35)

	// Reference path: full snapshots, generic deltas, extract.
	slow, err := New(Config{WindowSeconds: 0.1, Levels: 2, Factor: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slow.Feed(meta); err != nil {
		t.Fatal(err)
	}
	regB := telemetry.New()
	regB.Gauge("sim_dimming_level").Set(0.5)
	var prev *telemetry.Snapshot
	window := int64(0)
	flush := func(partial, done bool) {
		cur := regB.Snapshot()
		slow.observe(meta.Index, extract(telemetry.SnapshotDelta(cur, prev), meta), partial, done)
		prev = cur
		window++
	}
	for _, st := range steps {
		if st.framesTx > 0 {
			regB.Counter("sim_frames_tx_total").Add(st.framesTx)
		}
		if st.framesOK > 0 {
			regB.Counter("phy_rx_frames_total", "outcome", "ok").Add(st.framesOK)
		}
		if st.symErrs > 0 {
			regB.Counter("phy_rx_symbol_errors_total").Add(st.symErrs)
		}
		if st.timeouts > 0 {
			regB.Counter("mac_timeouts_total").Add(st.timeouts)
		}
		if st.bytes > 0 {
			regB.Counter("sim_delivered_bytes_total").Add(st.bytes)
		}
		if st.ackLat > 0 {
			regB.Counter("mac_acks_received_total").Inc()
			regB.Histogram("mac_ack_latency_seconds").Observe(st.ackLat)
		}
		if st.now >= float64(window+1)*0.1 {
			flush(false, false)
			for st.now >= float64(window+1)*0.1 {
				slow.observe(meta.Index, telemetry.Counts{}, false, false)
				window++
			}
		}
	}
	flush(true, true)

	got, err := fast.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := slow.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fast-path aggregation diverged from generic-delta reference:\nfast %s\nref  %s", got, want)
	}
}

// extract reduces a delta snapshot to raw counts, the generic path a
// Feed's flush must match. Unknown series are ignored — the aggregator
// rolls up the link KPIs only.
func extract(d *telemetry.Snapshot, meta SessionMeta) telemetry.Counts {
	var c telemetry.Counts
	for _, s := range d.Counters {
		switch s.Name {
		case "sim_frames_tx_total":
			c.FramesTx += s.Value
		case "phy_rx_frames_total":
			for _, l := range s.Labels {
				if l.Key == "outcome" {
					switch l.Value {
					case "ok":
						c.FramesOK += s.Value
					case "bad":
						c.FramesBad += s.Value
					}
				}
			}
		case "phy_rx_symbol_errors_total":
			c.SymbolErrors += s.Value
		case "mac_timeouts_total":
			c.Timeouts += s.Value
		case "mac_acks_received_total":
			c.Acks += s.Value
		case "sim_delivered_bytes_total":
			c.Delivered += s.Value
		}
	}
	for _, h := range d.Histograms {
		if h.Name != "mac_ack_latency_seconds" {
			continue
		}
		c.AckCount += h.Count
		c.AckSum += h.Sum
		for _, b := range h.Buckets {
			if b.Index >= 0 && b.Index < len(c.AckBuckets) {
				c.AckBuckets[b.Index] += b.Count
			}
		}
	}
	for _, g := range d.Gauges {
		if g.Name == "sim_dimming_level" {
			c.LevelSum += g.Value
			c.LevelN++
		}
	}
	// Symbol-count proxy: decoded payload bytes of accepted frames — the
	// same denominator the health monitor uses for the Eq. 3 SER bound.
	c.Symbols = c.FramesOK * int64(meta.PayloadBytes)
	return c
}
