package light

import (
	"math"
)

// Trace is a deterministic ambient-light time series in lux.
type Trace interface {
	// LuxAt returns the ambient illuminance at time t (seconds).
	LuxAt(t float64) float64
}

// The paper's three measured ambient conditions (§6.3).
const (
	// L1Lux: sunny day, ceiling lights on (paper: 8900–9760 lux).
	L1Lux = 9300.0
	// L2Lux: sunny day, ceiling lights off (7960–8200 lux).
	L2Lux = 8080.0
	// L3Lux: blind down, lights off (12–21 lux).
	L3Lux = 16.0
)

// Static is a constant ambient level (paper Fig. 13(a): blind fixed).
type Static struct{ Lux float64 }

// LuxAt implements Trace.
func (s Static) LuxAt(float64) float64 { return s.Lux }

// BlindPull models the motorized window blind moving at constant speed
// (paper Fig. 13(b)): illuminance ramps from StartLux to EndLux over
// Duration seconds. Real rooms do not brighten perfectly linearly with
// blind position (the paper notes this in Fig. 19(a)), so the ramp blends
// a linear term with a smooth nonlinearity and a small deterministic
// wobble from moving clouds.
type BlindPull struct {
	StartLux, EndLux float64
	Duration         float64
	// WobbleFraction adds a bounded deterministic fluctuation (0 disables;
	// 0.05 reproduces the paper's non-smooth throughput trace).
	WobbleFraction float64
}

// LuxAt implements Trace.
func (b BlindPull) LuxAt(t float64) float64 {
	if b.Duration <= 0 {
		return b.EndLux
	}
	x := t / b.Duration
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	// Blend linear with smoothstep: sunlight grows slowly when the blind
	// barely opens and faster midway.
	s := x * x * (3 - 2*x)
	f := 0.65*x + 0.35*s
	lux := b.StartLux + (b.EndLux-b.StartLux)*f
	if b.WobbleFraction > 0 {
		span := math.Abs(b.EndLux - b.StartLux)
		w := math.Sin(2*math.Pi*t/7.3) * math.Sin(2*math.Pi*t/2.9)
		lux += b.WobbleFraction * span * 0.5 * w * s
	}
	if lux < 0 {
		return 0
	}
	return lux
}

// Clouds is a sunny baseline with deterministic passing clouds — the
// paper's motivating Dutch sky ("heavy and moving clouds"). The dips are
// products of incommensurate sinusoids, so the trace never repeats within
// an experiment.
type Clouds struct {
	BaseLux float64
	// DipFraction is the deepest cloud attenuation (0..1).
	DipFraction float64
	// PeriodSeconds is the dominant cloud passage period.
	PeriodSeconds float64
}

// LuxAt implements Trace.
func (c Clouds) LuxAt(t float64) float64 {
	if c.PeriodSeconds <= 0 {
		return c.BaseLux
	}
	p := c.PeriodSeconds
	// Raised products of sinusoids give occasional deep dips.
	a := 0.5 * (1 + math.Sin(2*math.Pi*t/p))
	b := 0.5 * (1 + math.Sin(2*math.Pi*t/(p*0.37)+1.1))
	dip := c.DipFraction * a * b
	return c.BaseLux * (1 - dip)
}

// DayCycle is a dawn-to-dusk bell over DayLengthSeconds with optional
// clouds, used by the office-day example.
type DayCycle struct {
	PeakLux          float64
	DayLengthSeconds float64
	Clouds           *Clouds
}

// LuxAt implements Trace.
func (d DayCycle) LuxAt(t float64) float64 {
	if d.DayLengthSeconds <= 0 {
		return 0
	}
	x := t / d.DayLengthSeconds
	if x < 0 || x > 1 {
		return 0
	}
	bell := math.Sin(math.Pi * x)
	lux := d.PeakLux * bell * bell
	if d.Clouds != nil && d.Clouds.PeriodSeconds > 0 {
		frac := d.Clouds.LuxAt(t) / d.Clouds.BaseLux
		lux *= frac
	}
	return lux
}

// Steps is a piecewise-constant trace: Levels[i] applies from
// i·StepSeconds to (i+1)·StepSeconds; the last level holds afterwards.
type Steps struct {
	Levels      []float64
	StepSeconds float64
}

// LuxAt implements Trace.
func (s Steps) LuxAt(t float64) float64 {
	if len(s.Levels) == 0 {
		return 0
	}
	if s.StepSeconds <= 0 || t < 0 {
		return s.Levels[0]
	}
	i := int(t / s.StepSeconds)
	if i >= len(s.Levels) {
		i = len(s.Levels) - 1
	}
	return s.Levels[i]
}

// Normalize converts lux to the controller's normalized units given the
// lux value that equals one full LED (the illuminance the LED itself
// contributes to the work area at full power).
func Normalize(lux, fullLEDLux float64) float64 {
	if !(fullLEDLux > 0) { // NaN fails too
		return 0
	}
	return lux / fullLEDLux
}
