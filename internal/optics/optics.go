// Package optics models free-space propagation between the LED luminaire
// and the photodiode with the generalized Lambertian model standard in VLC
// (Komine & Nakagawa 2004, the paper's reference [18]):
//
//	Pr = Pt · (m+1)/(2π·d²) · cos^m(φ) · A · cos(ψ),   ψ ≤ ψ_FoV
//
// where m is the Lambertian order of the LED, φ the irradiance angle at the
// LED, ψ the incidence angle at the receiver, d the distance and A the
// photodiode's effective collection area. This package substitutes for the
// paper's physical 3.6 m office link; the constants in DefaultLink are
// calibrated so the decode cliff sits at the paper's 3.6 m.
package optics

import (
	"fmt"
	"math"
)

// Emitter describes the LED as an optical source.
type Emitter struct {
	// PowerWatts is the radiated optical power while the LED is ON.
	// The paper drives a Philips 4.7 W luminaire; roughly a third of the
	// electrical power leaves as light.
	PowerWatts float64
	// LambertianOrder is m = −ln 2 / ln cos(Φ½) where Φ½ is the half-power
	// semi-angle. The paper's luminaire with its optics is fairly
	// directional; m = 30 (Φ½ ≈ 12°) reproduces the angle cut-offs of
	// paper Fig. 17.
	LambertianOrder float64
}

// Receiver describes the photodiode front-end geometry.
type Receiver struct {
	// AreaM2 is the effective collection area in m² (photodiode area times
	// any concentrator gain).
	AreaM2 float64
	// FoVDeg is the half-angle field of view; light beyond it contributes
	// nothing.
	FoVDeg float64
}

// Geometry is the pose of the receiver relative to the emitter.
type Geometry struct {
	// DistanceM is the line-of-sight distance in meters.
	DistanceM float64
	// IrradianceDeg is φ, the angle between the LED beam axis and the
	// receiver direction.
	IrradianceDeg float64
	// IncidenceDeg is ψ, the angle between the photodiode normal and the
	// incoming ray.
	IncidenceDeg float64
}

// Aligned returns the on-axis geometry at distance d, with both tilt
// angles equal to angleDeg — the paper's Fig. 17 setup, where the receiver
// is swept on an arc of constant distance so the irradiance and incidence
// angles move together.
func Aligned(d, angleDeg float64) Geometry {
	return Geometry{DistanceM: d, IrradianceDeg: angleDeg, IncidenceDeg: angleDeg}
}

// Validate reports obviously broken parameters: a distance that is not
// positive and finite, or a non-finite angle.
func (g Geometry) Validate() error {
	if !(g.DistanceM > 0) || math.IsInf(g.DistanceM, 1) {
		return fmt.Errorf("optics: distance %v must be positive and finite", g.DistanceM)
	}
	if math.IsNaN(g.IrradianceDeg) || math.IsInf(g.IrradianceDeg, 0) ||
		math.IsNaN(g.IncidenceDeg) || math.IsInf(g.IncidenceDeg, 0) {
		return fmt.Errorf("optics: angles %v° and %v° must be finite", g.IrradianceDeg, g.IncidenceDeg)
	}
	return nil
}

// ReceivedPower returns the optical power (W) collected by the photodiode.
// It is zero outside the receiver's field of view or beyond 90° irradiance.
func ReceivedPower(e Emitter, r Receiver, g Geometry) float64 {
	if g.DistanceM <= 0 {
		return 0
	}
	phi := g.IrradianceDeg * math.Pi / 180
	psi := g.IncidenceDeg * math.Pi / 180
	if math.Abs(g.IncidenceDeg) > r.FoVDeg {
		return 0
	}
	cphi, cpsi := math.Cos(phi), math.Cos(psi)
	if cphi <= 0 || cpsi <= 0 {
		return 0
	}
	m := e.LambertianOrder
	gain := (m + 1) / (2 * math.Pi * g.DistanceM * g.DistanceM)
	return e.PowerWatts * gain * math.Pow(cphi, m) * r.AreaM2 * cpsi
}

// HalfPowerSemiAngleDeg returns Φ½ for a Lambertian order m.
func HalfPowerSemiAngleDeg(m float64) float64 {
	return math.Acos(math.Pow(2, -1/m)) * 180 / math.Pi
}

// LambertianOrderFor returns m for a half-power semi-angle in degrees.
func LambertianOrderFor(halfPowerDeg float64) float64 {
	return -math.Ln2 / math.Log(math.Cos(halfPowerDeg*math.Pi/180))
}

// DefaultEmitter and DefaultReceiver reproduce the paper's prototype:
// a directional Philips luminaire and an OSRAM SFH206K photodiode
// (7.02 mm² active area) behind a simple aperture.
func DefaultEmitter() Emitter {
	return Emitter{PowerWatts: 1.6, LambertianOrder: 30}
}

// DefaultReceiver returns the SFH206K-like receiver front-end.
func DefaultReceiver() Receiver {
	return Receiver{AreaM2: 7.02e-6, FoVDeg: 60}
}
