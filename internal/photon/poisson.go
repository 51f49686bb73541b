// Package photon models the receiver's slot detection as a Poisson
// photon-counting process, the model the SmartVLC paper itself adopts for
// Eq. 3 (following Sugiyama & Nosu's MPPM analysis, paper reference [34]).
//
// Each slot the photodiode integrates a Poisson-distributed photon count
// whose mean is the sum of an LED signal term (present in ON slots) and an
// ambient term; a threshold detector decides ON/OFF. The package provides
// exact tail probabilities (used to tune the detection threshold and to
// derive the paper's P1/P2 slot error probabilities) and an exact sampler
// (Knuth for small means, Hörmann's PTRS transformed rejection for large),
// so simulated error rates at the 1e-4..1e-5 level are faithful.
package photon

import (
	"math"
	"math/rand/v2"
)

// LogPMF returns ln P(X = k) for X ~ Poisson(lambda).
func LogPMF(lambda float64, k int) float64 {
	if k < 0 || lambda < 0 {
		return math.Inf(-1)
	}
	if lambda == 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return float64(k)*math.Log(lambda) - lambda - lg
}

// PMF returns P(X = k).
func PMF(lambda float64, k int) float64 { return math.Exp(LogPMF(lambda, k)) }

// TailGE returns P(X ≥ k) for X ~ Poisson(lambda), by direct stable
// summation from the mode outward. Accurate to ~1e-15 relative for the
// means used in this simulator (λ ≲ 1e5).
func TailGE(lambda float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if lambda <= 0 {
		return 0
	}
	// Sum the smaller side for accuracy.
	if float64(k) > lambda {
		// Right tail: sum P(X=k) + P(X=k+1) + ...
		p := PMF(lambda, k)
		sum := p
		for i := k + 1; ; i++ {
			p *= lambda / float64(i)
			sum += p
			if p < sum*1e-17 || p < 1e-320 {
				break
			}
		}
		return sum
	}
	// Left side smaller: 1 − P(X < k).
	return 1 - CDFLT(lambda, k)
}

// CDFLT returns P(X < k) = P(X ≤ k−1).
func CDFLT(lambda float64, k int) float64 {
	if k <= 0 {
		return 0
	}
	if lambda <= 0 {
		return 1
	}
	if float64(k) <= lambda {
		// Left tail: sum downward from k−1.
		p := PMF(lambda, k-1)
		sum := p
		for i := k - 1; i > 0; i-- {
			p *= float64(i) / lambda
			sum += p
			if p < sum*1e-17 || p < 1e-320 {
				break
			}
		}
		return sum
	}
	return 1 - TailGE(lambda, k)
}

// Sample draws one Poisson(lambda) variate. It is exact for all lambda:
// Knuth's product method below 10, Hörmann's PTRS transformed rejection
// above.
func Sample(rng *rand.Rand, lambda float64) int {
	switch {
	case lambda <= 0:
		return 0
	case lambda < 10:
		return sampleKnuth(rng, lambda)
	default:
		return samplePTRS(rng, lambda)
	}
}

func sampleKnuth(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// samplePTRS implements Hörmann (1993), "The transformed rejection method
// for generating Poisson random variables", valid for lambda ≥ 10.
func samplePTRS(rng *rand.Rand, lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	// The squeeze accept below resolves most draws without ever needing
	// log(lambda), so it is computed lazily on the first rejection test.
	// The acceptance inequality is evaluated in its exponentiated form,
	//   v·α/(a/us² + b) ≤ exp(k·lnλ − λ − ln k!),
	// whose right side depends only on k — which is what lets Sampler
	// pretabulate it and skip the log and Lgamma entirely. Sample, its
	// PCG twin and Sampler's PTRS fallback must keep using the identical
	// expression so their draws stay bit-for-bit in lockstep.
	logLambda := 0.0
	haveLog := false
	for {
		u := rng.Float64() - 0.5
		v := rng.Float64()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(kf)
		}
		if kf < 0 || (us < 0.013 && v > us) {
			continue
		}
		k := int(kf)
		lg := lnFact(kf)
		if !haveLog {
			logLambda, haveLog = math.Log(lambda), true
		}
		if v*invAlpha/(a/(us*us)+b) <= math.Exp(kf*logLambda-lambda-lg) {
			return k
		}
	}
}
