package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"smartvlc/internal/light"
	"smartvlc/internal/optics"
	"smartvlc/internal/scheme"
	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/agg"
	"smartvlc/internal/telemetry/flight"
	"smartvlc/internal/telemetry/health"
	"smartvlc/internal/telemetry/prof"
	"smartvlc/internal/telemetry/span"
	"smartvlc/internal/telemetry/vlog"
)

// The digests below pin everything a few fixed sessions let a caller
// observe — the Result and every snapshot (telemetry, spans, health per
// session and per receiver, prof, logs, the fleet aggregate and the
// flight bundle files) — across commits, where the determinism tests
// only compare runs within one build. A change that moves them on
// purpose updates them and says why.
//
// They come from an FMA-capable x86-64 host: math.Exp uses FMA on amd64,
// so another host may round differently. pinRefDigest is the Result of a
// plain observer-free session; a host that does not reproduce it skips
// the pins instead of failing them.
const (
	pinRefDigest         = "4ff221710dabf6f7"
	pinSingleAllDigest   = "0d2ed8e372e17cb3"
	pinSingleCapDigest   = "dbedb32919504eaa"
	pinBroadcastDigest   = "f57346b05783040f"
	pinFleetDigest       = "d6c4d8dcf9aea5a0"
	pinFlightOnlyDigest  = "2d5c999a7dd7e680"
	pinVLCUplinkDigest   = "40a65e028de79967"
	pinOPPMDigest        = "cc6cee08370e62b4"
	pinFlightOrderDigest = "8f7907449129bd05"
)

// pinHasher folds named byte blobs into one SHA-256 digest.
type pinHasher struct {
	t testing.TB
	h hash.Hash
}

func newPinHasher(t testing.TB) *pinHasher { return &pinHasher{t: t, h: sha256.New()} }

func (p *pinHasher) add(name string, b []byte) {
	p.h.Write([]byte(name))
	p.h.Write([]byte{0})
	p.h.Write(b)
	p.h.Write([]byte{0})
}

// snap adds a snapshot's canonical JSON, or a marker when it is nil.
func (p *pinHasher) snap(name string, s interface{ JSON() ([]byte, error) }) {
	p.t.Helper()
	if s == nil || reflect.ValueOf(s).IsNil() {
		p.add(name, []byte("nil"))
		return
	}
	b, err := s.JSON()
	if err != nil {
		p.t.Fatal(err)
	}
	p.add(name, b)
}

// value adds a plain value's JSON encoding.
func (p *pinHasher) value(name string, v any) {
	p.t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		p.t.Fatal(err)
	}
	p.add(name, b)
}

// bundles adds every file of every flight bundle, in bundle then file
// name order, keyed by the bundle's base name.
func (p *pinHasher) bundles(rec *flight.Recorder) {
	p.t.Helper()
	dirs := rec.Bundles()
	if len(dirs) == 0 {
		p.t.Fatal("pinned session wrote no flight bundle")
	}
	for _, dir := range dirs {
		ents, err := os.ReadDir(dir)
		if err != nil {
			p.t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				p.t.Fatal(err)
			}
			p.add(filepath.Base(dir)+"/"+e.Name(), b)
		}
	}
}

func (p *pinHasher) sum() string { return hex.EncodeToString(p.h.Sum(nil)[:8]) }

// result folds a Result and its snapshots into p.
func (p *pinHasher) result(name string, res Result) {
	p.t.Helper()
	p.snap(name+".telemetry", res.Telemetry)
	p.snap(name+".spans", res.Spans)
	p.snap(name+".health", res.Health)
	p.snap(name+".prof", res.Prof)
	p.snap(name+".logs", res.Logs)
	res.Telemetry, res.Spans, res.Health, res.Prof, res.Logs = nil, nil, nil, nil, nil
	p.value(name+".result", res)
}

// hasOverflow reports whether a capped profile folded series into the
// overflow stage — the case where handle creation order decides bytes.
func hasOverflow(s *prof.Snapshot) bool {
	for _, se := range s.Series {
		if se.Key.Stage == prof.OverflowStage {
			return true
		}
	}
	return false
}

func checkPin(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s digest %s, pinned %s", what, got, want)
	}
}

// TestSessionSnapshotPins pins the observable bytes of a single link with
// every observer and flight triggers, a single link under a capped
// profiler, a three-desk broadcast at Workers 1 and 3 under a capped
// profiler, a watched four-session fleet, a flight recorder armed without
// a span collector, a flight recorder whose bundles show the order of the
// frame's observers, a VLC uplink and an OPPM link.
func TestSessionSnapshotPins(t *testing.T) {
	s := amppmScheme(t)
	ref, err := Run(DefaultConfig(s), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	p := newPinHasher(t)
	p.result("ref", ref)
	if got := p.sum(); got != pinRefDigest {
		t.Skipf("reference session digest %s, pinned %s: this host rounds differently from the pinning host", got, pinRefDigest)
	}

	t.Run("single_all_observers", func(t *testing.T) {
		rec, err := flight.New(flight.Config{Dir: t.TempDir(), MaxBundles: 6, Depth: 2, SERThreshold: 2})
		if err != nil {
			t.Fatal(err)
		}
		ag, err := agg.New(agg.Config{WindowSeconds: 0.1, Factor: 2, K: 2}, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(s)
		cfg.Geometry = optics.Aligned(4.0, 0)
		cfg.Trace = light.Steps{Levels: []float64{400, 6000, 12000}, StepSeconds: 0.3}
		cfg.Telemetry = telemetry.New()
		cfg.Spans = span.NewCollector()
		cfg.Flight = rec
		cfg.Prof = prof.New()
		cfg.Logs = vlog.New(vlog.Debug)
		cfg.Health = stepHealthConfig()
		if cfg.Watch, err = ag.Feed(agg.SessionMeta{Index: 0, Seed: cfg.Seed, Scheme: s.Name(), PayloadBytes: cfg.PayloadBytes}); err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if res.Health == nil || len(res.Health.Transitions) == 0 {
			t.Fatal("pinned session made no SLO transition")
		}
		p := newPinHasher(t)
		p.result("single", res)
		p.snap("agg", ag.Snapshot())
		p.bundles(rec)
		checkPin(t, "single link, every observer", p.sum(), pinSingleAllDigest)
	})

	t.Run("single_capped_prof", func(t *testing.T) {
		cfg := DefaultConfig(s)
		cfg.Trace = light.BlindPull{StartLux: 100, EndLux: 400, Duration: 0.4}
		cfg.Telemetry = telemetry.New()
		cfg.Prof = prof.NewLimited(4)
		res, err := Run(cfg, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if !hasOverflow(res.Prof) {
			t.Fatal("capped profile never overflowed")
		}
		p := newPinHasher(t)
		p.result("single", res)
		checkPin(t, "single link, capped profiler", p.sum(), pinSingleCapDigest)
	})

	t.Run("broadcast", func(t *testing.T) {
		for _, workers := range []int{1, 3} {
			cfg := BroadcastConfig{Config: DefaultConfig(s), Workers: workers}
			cfg.Receivers = []ReceiverPose{
				{Geometry: optics.Aligned(1.5, 0)},
				{Geometry: optics.Aligned(3.0, 3), AmbientScale: 1.4},
				{Geometry: optics.Aligned(3.9, 5), AmbientScale: 0.7},
			}
			cfg.Trace = light.BlindPull{StartLux: 100, EndLux: 400, Duration: 0.4}
			cfg.SideLossProb = 0.05
			cfg.Telemetry = telemetry.New()
			cfg.Spans = span.NewCollector()
			cfg.Prof = prof.NewLimited(9)
			cfg.Logs = vlog.New(vlog.Debug)
			cfg.Health = stepHealthConfig()
			res, err := RunBroadcast(cfg, 0.4)
			if err != nil {
				t.Fatal(err)
			}
			if !hasOverflow(res.Prof) {
				t.Fatal("capped profile never overflowed")
			}
			p := newPinHasher(t)
			p.snap("telemetry", res.Telemetry)
			p.snap("spans", res.Spans)
			p.snap("health", res.Health)
			p.snap("prof", res.Prof)
			p.snap("logs", res.Logs)
			res.Telemetry, res.Spans, res.Health, res.Prof, res.Logs = nil, nil, nil, nil, nil
			for i := range res.PerReceiver {
				p.snap("health.rx", res.PerReceiver[i].Health)
				res.PerReceiver[i].Health = nil
			}
			p.value("result", res)
			checkPin(t, "broadcast at workers "+strconv.Itoa(workers), p.sum(), pinBroadcastDigest)
		}
	})

	t.Run("flight_without_spans", func(t *testing.T) {
		// The recorder's bundles carry frame trees from the session's own
		// collector, which never reaches the Result.
		rec, err := flight.New(flight.Config{Dir: t.TempDir(), MaxBundles: 16, Depth: 2, SERThreshold: 2})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(s)
		cfg.Geometry = optics.Aligned(4.0, 0)
		cfg.Trace = light.Steps{Levels: []float64{400, 6000, 12000}, StepSeconds: 0.3}
		cfg.Telemetry = telemetry.New()
		cfg.Flight = rec
		cfg.Health = stepHealthConfig()
		res, err := Run(cfg, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if res.Spans != nil {
			t.Fatal("Result.Spans set without Config.Spans")
		}
		if !slices.ContainsFunc(rec.Bundles(), func(d string) bool { return strings.Contains(d, "slo_") }) {
			t.Fatal("no SLO bundle")
		}
		p := newPinHasher(t)
		p.result("single", res)
		p.bundles(rec)
		checkPin(t, "flight recorder without spans", p.sum(), pinFlightOnlyDigest)
	})

	t.Run("flight_order", func(t *testing.T) {
		// Fine health buckets fire transitions at a frame's receiver
		// observation, and bundles cut on frames that also deliver, so a
		// bundle's bytes show whether the trigger ran before health's
		// ObserveRx and the delivered counter.
		rec, err := flight.New(flight.Config{Dir: t.TempDir(), MaxBundles: 32, Depth: 1, SERThreshold: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(s)
		cfg.Geometry = optics.Aligned(4.0, 0)
		cfg.Trace = light.Steps{Levels: []float64{400, 6000, 12000}, StepSeconds: 0.3}
		cfg.Telemetry = telemetry.New()
		cfg.Flight = rec
		cfg.Logs = vlog.New(vlog.Warn)
		cfg.Health = &health.Config{
			BucketSlots: 1000, Levels: 2, Factor: 4,
			Objectives: []health.Objective{{
				Name: "loss", Metric: health.MetricFrameLoss, Kind: health.UpperBound,
				Target: 0.1, FastWindow: 2, SlowWindow: 4, WarnBurn: 1, CritBurn: 4,
			}},
		}
		res, err := Run(cfg, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		p := newPinHasher(t)
		p.result("single", res)
		p.bundles(rec)
		checkPin(t, "flight trigger order", p.sum(), pinFlightOrderDigest)
	})

	t.Run("vlc_uplink", func(t *testing.T) {
		cfg := DefaultConfig(s)
		cfg.Geometry = optics.Aligned(2.0, 0)
		cfg.UplinkVLCBitRate = 10e3 // inside the default 2.5 m range
		cfg.Telemetry = telemetry.New()
		cfg.Spans = span.NewCollector()
		cfg.Logs = vlog.New(vlog.Debug)
		res, err := Run(cfg, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if res.GoodputBps == 0 {
			t.Fatal("VLC uplink acknowledged nothing")
		}
		// Every datagram, on either uplink, has its mac/side span.
		sent := cfg.Telemetry.LookupCounter("mac_side_messages_total", "outcome", "sent").Value() +
			cfg.Telemetry.LookupCounter("mac_side_messages_total", "outcome", "dropped").Value()
		side := 0
		for _, sp := range res.Spans.Spans {
			if sp.Name == "mac/side" {
				side++
			}
		}
		if side == 0 || int64(side) != sent {
			t.Fatalf("%d mac/side spans for %d datagrams", side, sent)
		}
		p := newPinHasher(t)
		p.result("single", res)
		checkPin(t, "VLC uplink", p.sum(), pinVLCUplinkDigest)
	})

	t.Run("oppm_all_but_flight", func(t *testing.T) {
		o, err := scheme.NewOPPM(20)
		if err != nil {
			t.Fatal(err)
		}
		ag, err := agg.New(agg.Config{WindowSeconds: 0.1, Factor: 2, K: 2}, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(o)
		cfg.Trace = light.BlindPull{StartLux: 100, EndLux: 400, Duration: 1}
		cfg.Telemetry = telemetry.New()
		cfg.Spans = span.NewCollector()
		cfg.Prof = prof.New()
		cfg.Logs = vlog.New(vlog.Debug)
		cfg.Health = stepHealthConfig()
		if cfg.Watch, err = ag.Feed(agg.SessionMeta{Index: 0, Seed: cfg.Seed, Scheme: o.Name(), PayloadBytes: cfg.PayloadBytes}); err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := newPinHasher(t)
		p.result("single", res)
		p.snap("agg", ag.Snapshot())
		checkPin(t, "OPPM link, every observer but flight", p.sum(), pinOPPMDigest)
	})

	t.Run("watched_fleet", func(t *testing.T) {
		cfgs, _ := watchFleet(t, 4, 0.05)
		for i := range cfgs {
			cfgs[i].Spans = span.NewCollector()
			cfgs[i].Prof = prof.New()
			cfgs[i].Logs = vlog.New(vlog.Info)
			cfgs[i].Health = &health.Config{Objectives: health.DefaultObjectives()}
		}
		fl, err := RunFleet(cfgs, 0.3, 2)
		if err != nil {
			t.Fatal(err)
		}
		p := newPinHasher(t)
		for _, r := range fl.Results {
			p.result("session", r)
		}
		p.snap("telemetry", fl.Telemetry)
		p.snap("health", fl.Health)
		p.snap("prof", fl.Prof)
		p.snap("logs", fl.Logs)
		p.snap("agg", fl.Agg)
		checkPin(t, "watched fleet", p.sum(), pinFleetDigest)
	})
}

// poolGoroutines counts live worker goroutines of parallel pools.
func poolGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if strings.Contains(string(g), "parallel.NewPoolLabeled") {
			n++
		}
	}
	return n
}

// TestBroadcastFailureStopsPool: a broadcast whose channel rebuild fails
// mid-session (an ambient step to 1e300 lux) returns the error and leaves
// none of its pool's worker goroutines running.
func TestBroadcastFailureStopsPool(t *testing.T) {
	cfg := broadcastConfig(t,
		ReceiverPose{Geometry: optics.Aligned(1.5, 0)},
		ReceiverPose{Geometry: optics.Aligned(2.5, 3)},
		ReceiverPose{Geometry: optics.Aligned(3.0, 5)},
	)
	cfg.Workers = 3
	cfg.Trace = light.Steps{Levels: []float64{300, 1e300}, StepSeconds: 0.05}
	res, err := RunBroadcast(cfg, 0.3)
	if err == nil {
		t.Fatalf("channel failure at 1e300 lux returned no error: %+v", res)
	}
	deadline := time.Now().Add(5 * time.Second)
	for poolGoroutines() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d pool workers still running after the failed session returned", poolGoroutines())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
