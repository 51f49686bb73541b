package sim

import (
	"math"
	"testing"

	"smartvlc/internal/amppm"
	"smartvlc/internal/light"
	"smartvlc/internal/optics"
	"smartvlc/internal/scheme"
	"smartvlc/internal/stats"
)

func amppmScheme(t testing.TB) scheme.Scheme {
	t.Helper()
	s, err := scheme.NewAMPPM(amppm.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunValidation(t *testing.T) {
	s := amppmScheme(t)
	if _, err := Run(Config{}, 1); err == nil {
		t.Fatal("nil scheme accepted")
	}
	cfg := DefaultConfig(s)
	for _, d := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Run(cfg, d); err == nil {
			t.Fatalf("duration %v accepted", d)
		}
	}
	cfg.PayloadBytes = 0
	if _, err := Run(cfg, 1); err == nil {
		t.Fatal("zero payload accepted")
	}
	cfg = DefaultConfig(s)
	cfg.Geometry = optics.Geometry{}
	if _, err := Run(cfg, 1); err == nil {
		t.Fatal("bad geometry accepted")
	}
	for _, h := range hostileConfigs {
		cfg := DefaultConfig(s)
		h.edit(&cfg)
		if _, err := Run(cfg, 0.05); err == nil {
			t.Errorf("%s accepted", h.name)
		}
	}
}

// hostileConfigs are config edits every session entry point rejects with
// an error. Without the checks, a NaN level, target or full-LED lux
// panicked the codec lookup, a huge gap exhausted memory, a NaN or
// infinite uplink delay meant no ACK ever arrived, and a NaN loss
// probability turned loss off.
var hostileConfigs = []struct {
	name string
	edit func(*Config)
}{
	{"NaN FixedLevel", func(c *Config) { c.FixedLevel = math.NaN() }},
	{"NaN TargetSum", func(c *Config) { c.Trace, c.TargetSum = light.Static{Lux: 300}, math.NaN() }},
	{"NaN FullLEDLux", func(c *Config) { c.Trace, c.FullLEDLux = light.Static{Lux: 300}, math.NaN() }},
	{"negative IdleGapSlots", func(c *Config) { c.IdleGapSlots = -1 }},
	{"IdleGapSlots above the cap", func(c *Config) { c.IdleGapSlots = maxIdleGapSlots + 1 }},
	{"NaN SideLatencySeconds", func(c *Config) { c.SideLatencySeconds = math.NaN() }},
	{"+Inf SideLatencySeconds", func(c *Config) { c.SideLatencySeconds = math.Inf(1) }},
	{"negative SideLatencySeconds", func(c *Config) { c.SideLatencySeconds = -0.001 }},
	{"NaN SideJitterSeconds", func(c *Config) { c.SideJitterSeconds = math.NaN() }},
	{"+Inf SideJitterSeconds", func(c *Config) { c.SideJitterSeconds = math.Inf(1) }},
	{"negative SideJitterSeconds", func(c *Config) { c.SideJitterSeconds = -0.001 }},
	{"NaN SideLossProb", func(c *Config) { c.SideLossProb = math.NaN() }},
	{"SideLossProb above 1", func(c *Config) { c.SideLossProb = 1.5 }},
	{"negative SideLossProb", func(c *Config) { c.SideLossProb = -0.1 }},
	{"NaN UplinkVLCBitRate", func(c *Config) { c.UplinkVLCBitRate = math.NaN() }},
	{"+Inf UplinkVLCBitRate", func(c *Config) { c.UplinkVLCBitRate = math.Inf(1) }},
	{"NaN UplinkVLCRangeM", func(c *Config) { c.UplinkVLCRangeM = math.NaN() }},
	{"+Inf UplinkVLCRangeM", func(c *Config) { c.UplinkVLCRangeM = math.Inf(1) }},
}

func TestStaticThroughputNearTheory(t *testing.T) {
	// At 3 m / l=0.5 the link is clean; goodput must land near the
	// analytic expectation (envelope rate × slot rate × frame efficiency):
	// roughly 100-115 kbps for AMPPM.
	s := amppmScheme(t)
	cfg := DefaultConfig(s)
	cfg.FixedLevel = 0.5
	res, err := Run(cfg, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if res.GoodputBps < 90e3 || res.GoodputBps > 120e3 {
		t.Fatalf("goodput %v bps, expected ≈107 kbps", res.GoodputBps)
	}
	if res.FramesOK == 0 || res.FramesBad > res.FramesOK/4 {
		t.Fatalf("frames ok=%d bad=%d", res.FramesOK, res.FramesBad)
	}
}

func TestStaticThroughputLowDimming(t *testing.T) {
	// At l=0.1 AMPPM should deliver ≈40 kbps (see DESIGN.md §6 — the
	// paper's 55.6 kbps neglects some frame overhead; shape is what
	// matters: far above OOK-CT's ≈22 kbps).
	s := amppmScheme(t)
	cfg := DefaultConfig(s)
	cfg.FixedLevel = 0.1
	res, err := Run(cfg, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.GoodputBps < 30e3 || res.GoodputBps > 60e3 {
		t.Fatalf("goodput %v", res.GoodputBps)
	}

	o := scheme.NewOOKCT()
	cfgO := DefaultConfig(o)
	cfgO.FixedLevel = 0.1
	resO, err := Run(cfgO, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if resO.GoodputBps > res.GoodputBps*0.75 {
		t.Fatalf("OOK-CT %v vs AMPPM %v: AMPPM should win big at l=0.1", resO.GoodputBps, res.GoodputBps)
	}
}

func TestThroughputCollapsesBeyondRange(t *testing.T) {
	s := amppmScheme(t)
	cfg := DefaultConfig(s)
	cfg.Geometry = optics.Aligned(4.8, 0)
	cfg.AmbientLux = 9000
	res, err := Run(cfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.GoodputBps > 5e3 {
		t.Fatalf("goodput %v at 4.8 m, expected collapse", res.GoodputBps)
	}
}

func TestDynamicAdaptationHoldsSum(t *testing.T) {
	s := amppmScheme(t)
	cfg := DefaultConfig(s)
	cfg.Trace = light.BlindPull{StartLux: 50, EndLux: 450, Duration: 10}
	cfg.FullLEDLux = 500
	cfg.TargetSum = 1.0
	res, err := Run(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	// After the initial settle, ambient+LED stays near the target. This
	// test ramps the full brightness range in 10 s — 6.7× faster than the
	// paper's blind pull — so the closed loop (receiver ambient estimate →
	// Wi-Fi report → smoothing → stepper) shows its ~0.5 s tracking lag;
	// at the paper's pace the error stays within ±0.02 (experiments test).
	vals := res.Sum.Values()
	if len(vals) < 10 {
		t.Fatalf("sum series too short: %d", len(vals))
	}
	for i, v := range vals {
		if i < 2 {
			continue
		}
		if math.Abs(v-1.0) > 0.07 {
			t.Fatalf("sum at sample %d = %v", i, v)
		}
	}
	// The LED must have moved from ~0.9 to ~0.1 through many small steps.
	if res.Adjustments < 100 {
		t.Fatalf("adjustments %d, expected hundreds", res.Adjustments)
	}
	led := res.LED.Values()
	if led[0] < 0.8 || led[len(led)-1] > 0.2 {
		t.Fatalf("LED did not track ambient: start %v end %v", led[0], led[len(led)-1])
	}
	// Throughput stayed nonzero throughout.
	if res.GoodputBps < 20e3 {
		t.Fatalf("dynamic goodput %v", res.GoodputBps)
	}
}

func TestPerceivedStepperHalvesAdjustments(t *testing.T) {
	// The Fig. 19(c) comparison at system level: same trace, two steppers.
	s := amppmScheme(t)
	base := DefaultConfig(s)
	base.Trace = light.BlindPull{StartLux: 50, EndLux: 450, Duration: 8}
	base.FullLEDLux = 500

	perceived := base
	perceived.Stepper = light.PerceivedStepper{TauP: light.DefaultTauP}
	measured := base
	measured.Stepper = light.SafeMeasuredStepper(light.DefaultTauP, 0.1)

	rp, err := Run(perceived, 8)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Run(measured, 8)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(rp.Adjustments) / float64(rm.Adjustments)
	if ratio < 0.35 || ratio > 0.65 {
		t.Fatalf("adjustment ratio %v (perceived %d, measured %d), paper ≈ 0.5",
			ratio, rp.Adjustments, rm.Adjustments)
	}
}

func TestThroughputSeriesBinning(t *testing.T) {
	s := throughputSeries([]float64{0.1, 0.2, 1.5, 2.9, 2.95}, 100, 3)
	if len(s.Points) != 3 {
		t.Fatalf("bins %d", len(s.Points))
	}
	if s.Points[0].V != 1600 || s.Points[1].V != 800 || s.Points[2].V != 1600 {
		t.Fatalf("bins %+v", s.Points)
	}
	empty := throughputSeries(nil, 100, 0)
	if len(empty.Points) != 0 {
		t.Fatal("empty duration should have no bins")
	}
	_ = stats.Series{}
}
