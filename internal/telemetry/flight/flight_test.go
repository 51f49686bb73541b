package flight

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"smartvlc/internal/amppm"
	"smartvlc/internal/frame"
	"smartvlc/internal/optics"
	"smartvlc/internal/photon"
	"smartvlc/internal/phy"
	"smartvlc/internal/scheme"
	"smartvlc/internal/telemetry/span"
	"smartvlc/internal/telemetry/vlog"
)

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	r.Observe(Capture{Seq: 1})
	dir, err := r.Trigger(Meta{Reason: "decode"}, nil, nil, nil)
	if err != nil || dir != "" {
		t.Fatalf("nil Trigger = (%q, %v), want no-op", dir, err)
	}
	if r.Bundles() != nil || r.Triggers() != 0 {
		t.Fatal("nil recorder has state")
	}
	if r.Config() != (Config{}) {
		t.Fatal("nil recorder config not zero")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted empty Dir")
	}
	r, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := r.Config()
	if cfg.Depth != DefaultDepth || cfg.MaxBundles != DefaultMaxBundles {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

// TestRingAndBundleRoundTrip pins the capture ring (bounded, oldest
// evicted, deep-copied) and the bundle write/read round trip.
func TestRingAndBundleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := New(Config{Dir: dir, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	slots := []bool{true, false, true}
	samples := []int{4, 0, 7, 1}
	for i := 0; i < 5; i++ {
		r.Observe(Capture{Seq: int64(i), Start: float64(i), Level: 0.5, Threshold: 2,
			Slots: slots, Samples: samples})
	}
	// The recorder must own its data: mutating the caller's buffers after
	// Observe (as the session loop's recycling does) must not leak in.
	slots[0] = false
	samples[0] = -99

	meta := Meta{Reason: "decode", Class: "crc", Seq: 4, At: 4, Seed: 9,
		Scheme: "AMPPM", Level: 0.5, Threshold: 2, TSlotSeconds: 8e-6, PayloadBytes: 64}
	spans := &span.Snapshot{Spans: []span.Span{{ID: 1, Seq: 4, Name: "frame"}}, Total: 1}
	lg := vlog.New(vlog.Debug)
	for i := 0; i < 4; i++ {
		lg.Record(vlog.Record{At: float64(i), Level: vlog.Warn, Stage: "phy/decode",
			Msg: "crc mismatch", Seq: int64(i + 1)})
	}
	bdir, err := r.Trigger(meta, spans, nil, lg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(bdir) != "bundle-000-decode" {
		t.Fatalf("bundle dir %q", bdir)
	}

	b, err := ReadBundle(bdir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Meta != meta {
		t.Fatalf("meta round trip:\nwrote %+v\nread  %+v", meta, b.Meta)
	}
	if b.Spans == nil || len(b.Spans.Spans) != 1 || b.Spans.Spans[0].Name != "frame" {
		t.Fatalf("spans round trip: %+v", b.Spans)
	}
	if b.Metrics != nil {
		t.Fatal("metrics.json was omitted but read back non-nil")
	}
	if b.Logs == nil || len(b.Logs.Records) != 4 {
		t.Fatalf("logs round trip: %+v", b.Logs)
	}
	if got := b.Logs.Records[3]; got.Msg != "crc mismatch" || got.Seq != 4 || got.Level != vlog.Warn {
		t.Fatalf("last log record %+v", got)
	}
	if len(b.Captures) != 3 {
		t.Fatalf("ring kept %d captures, want depth 3", len(b.Captures))
	}
	for i, c := range b.Captures {
		if want := int64(i + 2); c.Seq != want {
			t.Fatalf("capture %d seq %d, want %d (oldest-first)", i, c.Seq, want)
		}
		if len(c.Slots) != 3 || !c.Slots[0] || len(c.Samples) != 4 || c.Samples[0] != 4 {
			t.Fatalf("capture %d data corrupted (deep copy broken?): %+v", i, c)
		}
	}
	if d := b.SlotSeconds - 8e-6; d > 1e-12 || d < -1e-12 {
		t.Fatalf("slot seconds %g", b.SlotSeconds)
	}
}

// TestLogTailTruncation pins the bundle log tail: only the last
// Config.LogTail records land in logs.ndjson, and the trailing record —
// the one explaining the trigger — survives.
func TestLogTailTruncation(t *testing.T) {
	r, err := New(Config{Dir: t.TempDir(), LogTail: 3})
	if err != nil {
		t.Fatal(err)
	}
	r.Observe(Capture{Seq: 0})
	lg := vlog.New(vlog.Debug)
	for i := 0; i < 10; i++ {
		lg.Record(vlog.Record{At: float64(i), Level: vlog.Info, Stage: "sim/session",
			Msg: "tick", Seq: int64(i)})
	}
	lg.Record(vlog.Record{At: 10, Level: vlog.Warn, Stage: "sim/flight",
		Msg: "flight bundle triggered: decode", Seq: 10})
	bdir, err := r.Trigger(Meta{Reason: "decode"}, nil, nil, lg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundle(bdir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Logs == nil || len(b.Logs.Records) != 3 {
		t.Fatalf("tail kept %d records, want 3", len(b.Logs.Records))
	}
	last := b.Logs.Records[2]
	if last.Stage != "sim/flight" || last.Seq != 10 {
		t.Fatalf("tail does not end with the trigger record: %+v", last)
	}
}

// TestMaxBundlesCap pins that triggers past the cap are counted but write
// nothing.
func TestMaxBundlesCap(t *testing.T) {
	dir := t.TempDir()
	r, err := New(Config{Dir: dir, MaxBundles: 2})
	if err != nil {
		t.Fatal(err)
	}
	r.Observe(Capture{Seq: 0})
	for i := 0; i < 5; i++ {
		if _, err := r.Trigger(Meta{Reason: "hunt"}, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Triggers(); got != 5 {
		t.Fatalf("triggers %d, want 5", got)
	}
	if got := r.Bundles(); len(got) != 2 {
		t.Fatalf("%d bundles written, want 2", len(got))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d directories on disk, want 2", len(entries))
	}
}

// TestReplayClasses pins the offline replay: a real transmitted frame
// replays to "ok", a noise-only window replays to "hunt" — both through
// the real receiver pipeline and phy.DecodeClass.
func TestReplayClasses(t *testing.T) {
	sch, err := scheme.NewAMPPM(amppm.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	codec, err := sch.CodecFor(0.5)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := frame.Build(codec, []byte("flight recorder replay test"))
	if err != nil {
		t.Fatal(err)
	}
	slots := frame.AppendIdle(nil, codec.Level(), 32)
	slots = append(slots, fs...)
	slots = frame.AppendIdle(slots, codec.Level(), 32)

	ch, err := photon.DefaultLinkBudget().ChannelAt(optics.Aligned(3, 0), 8000)
	if err != nil {
		t.Fatal(err)
	}
	link := phy.DefaultLink(ch)
	samples := link.TransmitPCG(rand.NewPCG(1, 2), slots)
	rx := phy.NewReceiver(ch, sch.Factory())

	r, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	r.Observe(Capture{Seq: 0, Level: 0.5, Threshold: rx.Threshold(), Slots: slots, Samples: samples})
	bdir, err := r.Trigger(Meta{Reason: "ser", Class: "ok", Scheme: "AMPPM",
		Level: 0.5, Threshold: rx.Threshold(), TSlotSeconds: 8e-6}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundle(bdir)
	if err != nil {
		t.Fatal(err)
	}
	class, err := b.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if class != "ok" {
		t.Fatalf("clean frame replayed to class %q, want ok", class)
	}

	// A window with no light at all never locks: class "hunt".
	class, err = b.ReplayCapture(Capture{Threshold: rx.Threshold(), Samples: make([]int, 4000)})
	if err != nil {
		t.Fatal(err)
	}
	if class != "hunt" {
		t.Fatalf("noise window replayed to class %q, want hunt", class)
	}

	// The class is the last event's: "hunt" for none, else its outcome.
	if got := phy.DecodeClass(nil); got != "hunt" {
		t.Fatalf("no events classify as %q, want hunt", got)
	}
	if got := phy.DecodeClass([]phy.Event{{Lock: 10, Slots: 90}, {Lock: 400, Err: frame.ErrCRC}}); got != "crc" {
		t.Fatalf("a trailing CRC failure classifies as %q, want crc", got)
	}
}

func TestReplayUnknownScheme(t *testing.T) {
	b := &Bundle{Meta: Meta{Scheme: "nope"}, Captures: []Capture{{}}}
	if _, err := b.Replay(); err == nil {
		t.Fatal("unknown scheme did not error")
	}
}
