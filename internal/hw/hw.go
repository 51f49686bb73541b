// Package hw models the prototype hardware of the SmartVLC paper: the
// Philips LED's finite switching speed, the two photodiode front-ends
// (TI OPT101 at the transmitter for ambient sensing, OSRAM SFH206K at the
// receiver for data), the ADS7883 ADC, and the BeagleBone Black PRU clock
// domains whose independent oscillators drift relative to each other.
//
// These models are what make the simulation exercise the same failure
// modes as the paper's testbed: the LED slew bounds tslot at 8 µs, the
// PRU drift is why the receiver oversamples 4× and re-syncs on every
// frame, and the OPT101's slow response low-passes the ambient readings
// that drive dimming adaptation.
package hw

import (
	"fmt"
	"math"
)

// LED models the luminaire's electro-optical switching behaviour: the
// emitted intensity slews linearly between 0 and 1 with finite rise and
// fall times. The paper removed the lamp's AC-DC converter precisely
// because it slowed these transitions; the residual LED+driver slew is
// what limits tslot to 8 µs.
type LED struct {
	// RiseSeconds and FallSeconds are the 0→1 and 1→0 transition times.
	RiseSeconds float64
	FallSeconds float64
}

// DefaultLED returns the disassembled Philips 4.7 W lamp driven by the
// 20N06L MOSFET: ~2 µs transitions, i.e. a quarter of the 8 µs slot.
func DefaultLED() LED {
	return LED{RiseSeconds: 2e-6, FallSeconds: 2e-6}
}

// Step advances the emitted intensity from cur toward target (0 or 1) over
// dt seconds and returns the new intensity.
func (l LED) Step(cur, target, dt float64) float64 {
	if dt <= 0 {
		return cur
	}
	if target > cur {
		if l.RiseSeconds <= 0 {
			return target
		}
		if next := cur + dt/l.RiseSeconds; next < target {
			return next
		}
		return target
	}
	if l.FallSeconds <= 0 {
		return target
	}
	if next := cur - dt/l.FallSeconds; next > target {
		return next
	}
	return target
}

// MinSlotSeconds returns the shortest slot that still reaches at least
// 90 % of the target intensity swing within the slot, the criterion the
// paper used when settling on tslot = 8 µs ("the minimal time slot the LED
// supports, under which the transmitted signals are not distorted too
// much").
func (l LED) MinSlotSeconds() float64 {
	worst := math.Max(l.RiseSeconds, l.FallSeconds)
	return worst / 0.9 * 2
}

// Photodiode is a first-order front-end: a responsivity-normalized sensor
// whose output follows the input with time constant TauSeconds.
type Photodiode struct {
	// Name identifies the part.
	Name string
	// TauSeconds is the first-order response time constant.
	TauSeconds float64
}

// OPT101 is the transmitter-side ambient sensor: high sensitivity but slow
// (the paper uses it only for ambient light, not data).
func OPT101() Photodiode { return Photodiode{Name: "OPT101", TauSeconds: 7e-6 * 20} }

// SFH206K is the receiver-side data photodiode: fast enough that its
// response is negligible at the 2 µs sample period.
func SFH206K() Photodiode { return Photodiode{Name: "SFH206K", TauSeconds: 20e-9} }

// Filter is a running first-order low-pass for the photodiode.
type Filter struct {
	pd  Photodiode
	out float64
	set bool
}

// NewFilter returns a filter for the photodiode.
func NewFilter(pd Photodiode) *Filter { return &Filter{pd: pd} }

// Reset returns the filter to its just-constructed state for the given
// photodiode, so a reusable arena can rent the same Filter across
// sessions without retaining state from the previous one.
func (f *Filter) Reset(pd Photodiode) {
	f.pd = pd
	f.out, f.set = 0, false
}

// Step feeds an input sample observed for dt seconds and returns the
// filtered output.
func (f *Filter) Step(in, dt float64) float64 {
	if !f.set {
		f.out, f.set = in, true
		return f.out
	}
	if f.pd.TauSeconds <= 0 {
		f.out = in
		return f.out
	}
	alpha := 1 - math.Exp(-dt/f.pd.TauSeconds)
	f.out += alpha * (in - f.out)
	return f.out
}

// Output returns the current filter output.
func (f *Filter) Output() float64 { return f.out }

// ADC models the ADS7883: a saturating quantizer sampling photon counts.
type ADC struct {
	// SampleRateHz is the conversion rate; the ADS7883 supports up to
	// 3 MHz, the paper samples at 500 kHz (4× the slot rate).
	SampleRateHz float64
	// MaxCode is the saturation count (12-bit converter → 4095).
	MaxCode int
}

// DefaultADC returns the paper's receiver configuration.
func DefaultADC() ADC { return ADC{SampleRateHz: 500e3, MaxCode: 4095} }

// Quantize clamps a photon count to the converter range.
func (a ADC) Quantize(count int) int {
	if count < 0 {
		return 0
	}
	if a.MaxCode > 0 && count > a.MaxCode {
		return a.MaxCode
	}
	return count
}

// QuantizeAll clamps a whole column of photon counts in place — the
// batched transmit pipeline quantizes its sample column in one pass
// instead of a call per sample.
func (a ADC) QuantizeAll(counts []int) {
	max := a.MaxCode
	for i, c := range counts {
		if c < 0 {
			counts[i] = 0
		} else if max > 0 && c > max {
			counts[i] = max
		}
	}
}

// Clock is a PRU timebase: a nominal rate plus a fixed fractional error.
// The transmitter's and receiver's PRUs run from independent oscillators
// ("they could be hardly perfectly synchronized due to the hardware
// artifact"), so slot timing drifts across long frames unless the
// receiver re-synchronizes.
type Clock struct {
	// NominalHz is the intended tick rate.
	NominalHz float64
	// OffsetPPM is the oscillator error in parts per million; BBB PRU
	// crystals are specified around ±25 ppm.
	OffsetPPM float64
}

// EffectiveHz returns the true tick rate.
func (c Clock) EffectiveHz() float64 {
	return c.NominalHz * (1 + c.OffsetPPM*1e-6)
}

// TickSeconds returns the true tick period.
func (c Clock) TickSeconds() float64 {
	hz := c.EffectiveHz()
	if hz <= 0 {
		return math.Inf(1)
	}
	return 1 / hz
}

// Validate rejects non-physical clocks.
func (c Clock) Validate() error {
	if c.EffectiveHz() <= 0 {
		return fmt.Errorf("hw: clock rate %v Hz not positive", c.EffectiveHz())
	}
	return nil
}
