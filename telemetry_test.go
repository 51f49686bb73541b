package smartvlc

import (
	"bytes"
	"strings"
	"testing"

	"smartvlc/internal/photon"
	"smartvlc/internal/phy"
	"smartvlc/internal/scheme"
)

func TestDeliverStatsSurfacesReceiverOutcome(t *testing.T) {
	sys := newSystem(t)
	slots, err := sys.BuildFrame(0.5, []byte("telemetry probe"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.DeliverStats(Aligned(3, 0), 500, 7, slots)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FramesOK != 1 || len(rep.Payloads) != 1 {
		t.Fatalf("clean link: FramesOK=%d payloads=%d", rep.FramesOK, len(rep.Payloads))
	}
	if string(rep.Payloads[0]) != "telemetry probe" {
		t.Fatalf("payload %q", rep.Payloads[0])
	}
	if rep.Threshold <= 0 {
		t.Fatalf("threshold %d not surfaced", rep.Threshold)
	}

	// Deliver must agree with DeliverStats (it is now a thin wrapper).
	got, err := sys.Deliver(Aligned(3, 0), 500, 7, slots)
	if err != nil || len(got) != 1 || !bytes.Equal(got[0], rep.Payloads[0]) {
		t.Fatalf("Deliver diverged from DeliverStats: %v, %v", got, err)
	}
}

func TestDeliverRecordsIntoRegistry(t *testing.T) {
	sys := newSystem(t)
	reg := NewTelemetry()
	sys.SetTelemetry(reg)
	if sys.Telemetry() != reg {
		t.Fatal("Telemetry() does not return the attached registry")
	}
	slots, err := sys.BuildFrame(0.5, []byte("counted"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sys.DeliverStats(Aligned(3, 0), 500, uint64(i), slots); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if n := counterValue(snap, "phy_tx_frames_total", "", ""); n != 3 {
		t.Errorf("phy_tx_frames_total=%d, want 3", n)
	}
	if n := counterValue(snap, "phy_rx_frames_total", "outcome", "ok"); n != 3 {
		t.Errorf("phy_rx_frames_total{outcome=ok}=%d, want 3", n)
	}

	// The same snapshot must render as Prometheus exposition too.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `phy_rx_frames_total{outcome="ok"} 3`) {
		t.Fatalf("exposition missing rx counter:\n%s", sb.String())
	}
}

// counterValue returns the counter named name with no label (k == "") or
// with the one label k=v, or 0 when the snapshot has none.
func counterValue(snap *TelemetrySnapshot, name, k, v string) int64 {
	for _, c := range snap.Counters {
		if c.Name != name {
			continue
		}
		if k == "" && len(c.Labels) == 0 {
			return c.Value
		}
		if len(c.Labels) == 1 && c.Labels[0].Key == k && c.Labels[0].Value == v {
			return c.Value
		}
	}
	return 0
}

// TestRepeatedLevelSessionHitsCaches is the ISSUE's cache-effectiveness
// criterion: a session that stays at one dimming level and one operating
// point must hit the PR 1 memoization caches (codec, super-symbol select,
// photon sampler, receiver threshold) on >90% of lookups.
func TestRepeatedLevelSessionHitsCaches(t *testing.T) {
	sys := newSystem(t)
	sch := sys.Scheme().(*scheme.AMPPM)

	ch0, cm0 := sch.CodecCacheStats()
	sh0, sm0 := photon.SamplerCacheStats()
	th0, tm0 := phy.ThresholdCacheStats()

	st, err := sys.OpenStream(Aligned(3, 0), 500, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write(bytes.Repeat([]byte{0xA5}, 8192)); err != nil {
		t.Fatal(err)
	}

	rate := func(what string, h0, m0, h1, m1 int64) float64 {
		t.Helper()
		hits, misses := h1-h0, m1-m0
		if hits+misses == 0 {
			t.Fatalf("%s cache never consulted", what)
		}
		r := float64(hits) / float64(hits+misses)
		t.Logf("%s: %d hits / %d misses (%.1f%%)", what, hits, misses, 100*r)
		return r
	}
	ch1, cm1 := sch.CodecCacheStats()
	sh1, sm1 := photon.SamplerCacheStats()
	th1, tm1 := phy.ThresholdCacheStats()
	if r := rate("codec", ch0, cm0, ch1, cm1); r <= 0.9 {
		t.Errorf("codec cache hit rate %.2f ≤ 0.9", r)
	}
	if r := rate("sampler", sh0, sm0, sh1, sm1); r <= 0.9 {
		t.Errorf("sampler cache hit rate %.2f ≤ 0.9", r)
	}
	if r := rate("threshold", th0, tm0, th1, tm1); r <= 0.9 {
		t.Errorf("threshold cache hit rate %.2f ≤ 0.9", r)
	}
}

// TestStreamTelemetry observes a Stream through its System at a clean
// (3.3 m) and a lossy (4.6 m) operating point. Each chunk attempt is one
// Deliver, so the System's registry and span collector count what Stats()
// reports, and identically seeded streams record byte-identical
// snapshots. Failed attempts are not compared with phy_rx_frames_total's
// bad outcomes: one attempt may lock and reject a preamble more than once.
func TestStreamTelemetry(t *testing.T) {
	run := func(d float64) (StreamStats, *TelemetrySnapshot, *SpanSnapshot) {
		t.Helper()
		sys := newSystem(t)
		reg, col := NewTelemetry(), NewSpanCollector()
		sys.SetTelemetry(reg)
		sys.SetSpans(col)
		st, err := sys.OpenStream(Aligned(d, 0), 8000, 0.5, 3)
		if err != nil {
			t.Fatal(err)
		}
		st.MaxAttempts = 4
		if _, err := st.Write(bytes.Repeat([]byte("pin "), 256)); (err != nil) != (d > 4) {
			t.Fatalf("%g m: Write error %v", d, err)
		}
		return st.Stats(), reg.Snapshot(), col.Snapshot()
	}
	jsonOf := func(s interface{ JSON() ([]byte, error) }) []byte {
		t.Helper()
		b, err := s.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, d := range []float64{3.3, 4.6} {
		stats, tel, spans := run(d)
		var roots, chunks int64
		for _, s := range spans.Spans {
			if s.Name == "deliver" && s.Parent == 0 {
				roots++
			}
		}
		for _, n := range stats.ChunkAttempts {
			chunks += n
		}
		tx := counterValue(tel, "phy_tx_frames_total", "", "")
		ok := counterValue(tel, "phy_rx_frames_total", "outcome", "ok")
		t.Logf("%g m: %d tx frames, %d deliver roots, %d frames sent; %d ok, %d chunks delivered", d, tx, roots, stats.FramesSent, ok, chunks)
		if tx != roots || roots != int64(stats.FramesSent) {
			t.Errorf("%g m: phy_tx_frames_total=%d, deliver roots=%d, Stats().FramesSent=%d", d, tx, roots, stats.FramesSent)
		}
		if ok != chunks {
			t.Errorf("%g m: phy_rx_frames_total{outcome=ok}=%d, chunks delivered=%d", d, ok, chunks)
		}

		_, tel2, spans2 := run(d)
		if !bytes.Equal(jsonOf(tel), jsonOf(tel2)) || !bytes.Equal(jsonOf(spans), jsonOf(spans2)) {
			t.Errorf("%g m: identically seeded streams recorded different snapshots", d)
		}
	}
}
