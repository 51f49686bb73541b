package smartvlc

import (
	"bytes"
	"math"
	"runtime/debug"
	"testing"

	"smartvlc/internal/alloctest"
)

func newSystem(t testing.TB) *System {
	t.Helper()
	sys, err := New(DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewRejectsBadConstraints(t *testing.T) {
	c := DefaultConstraints()
	c.SlotSeconds = -1
	if _, err := New(c); err == nil {
		t.Fatal("bad constraints accepted")
	}
}

func TestBuildParseFrameRoundTrip(t *testing.T) {
	sys := newSystem(t)
	for _, level := range []float64{0.1, 0.33, 0.5, 0.9} {
		payload := []byte("smartvlc public api payload")
		slots, err := sys.BuildFrame(level, payload)
		if err != nil {
			t.Fatalf("level %v: %v", level, err)
		}
		got, err := sys.ParseFrame(slots)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("level %v: %v, %v", level, got, err)
		}
		n, err := sys.FrameSlots(level, len(payload))
		if err != nil || n != len(slots) {
			t.Fatalf("FrameSlots = %d want %d (%v)", n, len(slots), err)
		}
	}
}

func TestPlanAndEnvelope(t *testing.T) {
	sys := newSystem(t)
	lo, hi := sys.LevelRange()
	if lo != 0 || hi != 1 {
		t.Fatalf("level range [%v, %v]", lo, hi)
	}
	s, err := sys.PlanFor(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Level()-0.3) > 0.005 {
		t.Fatalf("plan level %v", s.Level())
	}
	if sys.EnvelopeRateAt(0.5) < 0.9 {
		t.Fatalf("envelope at 0.5 = %v", sys.EnvelopeRateAt(0.5))
	}
	if len(sys.Vertices()) < 10 {
		t.Fatal("too few vertices")
	}
	if r := sys.DimmingResolution(100); r > 0.005 {
		t.Fatalf("resolution %v", r)
	}
	// Ideal PHY rate at l=0.5 ≈ 0.93 × 125 kHz ≈ 116 kbps.
	if tp := sys.Throughput(0.5); tp < 100e3 || tp > 125e3 {
		t.Fatalf("Throughput(0.5) = %v", tp)
	}
}

func TestLinkQuality(t *testing.T) {
	// The paper's measured worst case.
	p1, p2, err := LinkQuality(Aligned(3.6, 0), 9700)
	if err != nil {
		t.Fatal(err)
	}
	if p1 < 1e-5 || p1 > 1e-3 || p2 < 1e-5 || p2 > 1e-3 {
		t.Fatalf("P1=%v P2=%v", p1, p2)
	}
	if _, _, err := LinkQuality(Geometry{}, 100); err == nil {
		t.Fatal("bad geometry accepted")
	}
}

func TestSchemeConstructors(t *testing.T) {
	if NewOOKCT().Name() != "OOK-CT" {
		t.Fatal("OOKCT")
	}
	if NewVPPM().Name() != "VPPM" {
		t.Fatal("VPPM")
	}
	m, err := NewMPPM(20)
	if err != nil || m.Name() != "MPPM" {
		t.Fatal("MPPM")
	}
	a, err := NewAMPPMScheme(DefaultConstraints())
	if err != nil || a.Name() != "AMPPM" {
		t.Fatal("AMPPM")
	}
}

func TestRunSessionSmoke(t *testing.T) {
	sys := newSystem(t)
	cfg := DefaultSessionConfig(sys.Scheme())
	cfg.FixedLevel = 0.5
	res, err := RunSession(cfg, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if res.GoodputBps < 50e3 {
		t.Fatalf("goodput %v", res.GoodputBps)
	}
}

func TestDynamicSessionWithPublicHelpers(t *testing.T) {
	sys := newSystem(t)
	cfg := DefaultSessionConfig(sys.Scheme())
	cfg.Trace = BlindPull(50, 450, 5)
	cfg.FullLEDLux = 500
	cfg.Stepper = PerceivedStepper
	res, err := RunSession(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adjustments == 0 {
		t.Fatal("no adaptation happened")
	}
	if StaticAmbient(123).LuxAt(0) != 123 {
		t.Fatal("StaticAmbient")
	}
	if MeasuredStepper.Name() == PerceivedStepper.Name() {
		t.Fatal("steppers should differ")
	}
}

func TestSBuildsPatterns(t *testing.T) {
	p := S(20, 0.5)
	if p.N != 20 || p.K != 10 {
		t.Fatalf("%+v", p)
	}
}

func TestTraceHelpers(t *testing.T) {
	if CloudyAmbient(1000, 0.5, 10).LuxAt(0) <= 0 {
		t.Fatal("cloudy trace")
	}
	d := DayCycleAmbient(800, 100, 0.4, 7)
	if d.LuxAt(0) != 0 || d.LuxAt(50) <= 0 {
		t.Fatal("day cycle trace")
	}
	clear := DayCycleAmbient(800, 100, 0, 0)
	if clear.LuxAt(50) != 800 {
		t.Fatalf("clear midday = %v", clear.LuxAt(50))
	}
}

func TestNewOPPMFacade(t *testing.T) {
	o, err := NewOPPM(20)
	if err != nil || o.Name() != "OPPM" {
		t.Fatalf("NewOPPM: %v", err)
	}
}

func TestFrameSlotsErrorPath(t *testing.T) {
	sys := newSystem(t)
	if _, err := sys.FrameSlots(-1, 10); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := sys.BuildFrame(-1, nil); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := sys.ParseFrame(make([]bool, 10)); err == nil {
		t.Fatal("garbage slots accepted")
	}
}

// TestNonFiniteLevelRejected: a NaN or infinite dimming level fails the
// range check of every public entry point that takes one. Functions with
// an error return it, the rate functions return 0, and nothing indexes
// the envelope out of range.
func TestNonFiniteLevelRejected(t *testing.T) {
	sys := newSystem(t)
	schemes := []Scheme{sys.Scheme(), NewVPPM(), NewOOKCT()}
	for _, n := range []func(int) (Scheme, error){NewMPPM, NewOPPM} {
		sch, err := n(20)
		if err != nil {
			t.Fatal(err)
		}
		schemes = append(schemes, sch)
	}
	st, err := sys.OpenStream(Aligned(1, 0), 100, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, c := range []struct {
			name string
			err  error
		}{
			{"PlanFor", second(sys.PlanFor(level))},
			{"BuildFrame", second(sys.BuildFrame(level, []byte("hi")))},
			{"FrameSlots", second(sys.FrameSlots(level, 2))},
			{"OpenStream", second(sys.OpenStream(Aligned(1, 0), 100, level, 1))},
			{"Stream.SetLevel", st.SetLevel(level)},
		} {
			if c.err == nil {
				t.Errorf("%s(%v) returned no error", c.name, level)
			}
		}
		for _, sch := range schemes {
			if _, err := sch.CodecFor(level); err == nil {
				t.Errorf("%s.CodecFor(%v) returned no error", sch.Name(), level)
			}
		}
		if r := sys.Throughput(level); r != 0 {
			t.Errorf("Throughput(%v) = %v, want 0", level, r)
		}
		if r := sys.EnvelopeRateAt(level); r != 0 {
			t.Errorf("EnvelopeRateAt(%v) = %v, want 0", level, r)
		}
	}
	if _, err := st.Write([]byte("still at level 0.5")); err != nil {
		t.Fatalf("stream after rejected levels: %v", err)
	}
}

// second returns a two-value call's error.
func second[T any](_ T, err error) error { return err }

func TestDeliverValidation(t *testing.T) {
	sys := newSystem(t)
	if _, err := sys.Deliver(Geometry{}, 100, 1, make([]bool, 100)); err == nil {
		t.Fatal("bad geometry accepted")
	}
}

func TestRunBroadcastFacade(t *testing.T) {
	sys := newSystem(t)
	cfg := BroadcastConfig{
		Config:    DefaultSessionConfig(sys.Scheme()),
		Receivers: []ReceiverPose{{Geometry: Aligned(2, 0)}},
	}
	res, err := RunBroadcast(cfg, 0.3)
	if err != nil || res.ReliableGoodputBps <= 0 {
		t.Fatalf("broadcast: %v %v", res.ReliableGoodputBps, err)
	}
}

func TestVersionNonEmpty(t *testing.T) {
	if Version == "" {
		t.Fatal("version")
	}
}

// TestDeliverIntoZeroAllocSteadyState pins the whole TX→channel→RX
// pipeline at zero allocations per frame once the session's scratch is
// warm — the contract the batched columnar pipeline exists to provide.
// GC is disabled around the measurement so a background cycle cannot
// strip the pools mid-run. The warm-up covers every seed the measurement
// uses: each seed's start phase reaches its own cells of photon's
// process-wide Poisson grid, which builds a table on a cell's first use,
// so warming fewer seeds makes the result depend on which tests ran first.
func TestDeliverIntoZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	sys := newSystem(t)
	payload := make([]byte, 128)
	slots, err := sys.BuildFrame(0.5, payload)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 20
	var rep DeliverReport
	// alloctest.Count calls the function once more before it measures, so
	// the measured calls use seeds 2 … runs+2.
	for seed := uint64(1); seed <= runs+2; seed++ {
		if err := sys.DeliverInto(&rep, Aligned(3, 0), 8000, seed, slots); err != nil {
			t.Fatal(err)
		}
	}
	seed := uint64(2)
	if n, _ := alloctest.Count(runs, func() {
		if err := sys.DeliverInto(&rep, Aligned(3, 0), 8000, seed, slots); err != nil {
			t.Fatal(err)
		}
		seed++
	}); n != 0 {
		t.Errorf("DeliverInto steady state: %d allocs over %d calls", n, runs)
	}
}
