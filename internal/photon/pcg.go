package photon

import (
	"math"
	"math/rand/v2"
)

// This file is the concrete-source twin of the samplers: the same draw
// algorithms taking a *rand.PCG directly instead of the *rand.Rand
// wrapper. (*rand.Rand).Float64 reaches its generator through the
// rand.Source interface, which costs a non-inlinable dynamic call per
// uniform — two per PTRS attempt, one per RX sample on the transmit hot
// path. Calling the concrete PCG lets the whole uniform inline into the
// rejection loop. The streams are bit-identical: PCGFloat64 reproduces
// (*rand.Rand).Float64's exact construction (top 53 bits of one Uint64
// draw), so a Rand and a PCG view of the same generator stay in lockstep
// and the two sampler families can be mixed freely on one stream.

// PCGFloat64 returns the next uniform in [0, 1) from the PCG stream,
// bit-identical to (*rand.Rand).Float64 over the same generator. The
// sampler loops below repeat this expression literally rather than call
// it: with PCG.Uint64 inlined the combined body exceeds the inliner's
// budget, and a call per uniform is exactly the overhead this file
// exists to remove.
func PCGFloat64(p *rand.PCG) float64 {
	return float64(p.Uint64()<<11>>11) / (1 << 53)
}

// SamplePCG is Sample drawing from a concrete PCG stream.
func SamplePCG(p *rand.PCG, lambda float64) int {
	switch {
	case lambda <= 0:
		return 0
	case lambda < 10:
		return sampleKnuthPCG(p, lambda)
	default:
		return samplePTRSPCG(p, lambda)
	}
}

func sampleKnuthPCG(p *rand.PCG, lambda float64) int {
	l := math.Exp(-lambda)
	k := 0
	pr := 1.0
	for {
		pr *= float64(p.Uint64()<<11>>11) / (1 << 53)
		if pr <= l {
			return k
		}
		k++
	}
}

// samplePTRSPCG mirrors samplePTRS draw for draw; see the algorithm notes
// there.
func samplePTRSPCG(p *rand.PCG, lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLambda := 0.0
	haveLog := false
	for {
		u := float64(p.Uint64()<<11>>11)/(1<<53) - 0.5
		v := float64(p.Uint64()<<11>>11) / (1 << 53)
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

// SampleNPCG fills dst with Poisson(lambda) variates drawn from a
// concrete PCG stream. This is the settled-run block fill of the
// transmitter: one call covers a whole run of windows that share the
// sampler's mean, so the per-call dispatch, constant loads, and (for
// tabled means) the entire rejection machinery are amortized over the
// run. Means within maxTableLambda draw by inverted CDF — one uniform
// each, the quantile tableDraw of its 53-bit integer — and so consume
// the stream differently from SamplePCG; larger means fall back to the
// PTRS loop, which matches SamplePCG draw for draw.
func (s *Sampler) SampleNPCG(p *rand.PCG, dst []int) {
	switch {
	case s.lambda <= 0:
		for i := range dst {
			dst[i] = 0
		}
	case s.tab.icdf != nil:
		tab := &s.tab
		for i := range dst {
			x := p.Uint64() << 11 >> 11
			k := tab.index(x)
			if k == len(tab.icdf) {
				k = s.tailDraw(float64(x) / (1 << 53))
			}
			dst[i] = k
		}
	default:
		a, b, vr, lambda := s.a, s.b, s.vr, s.lambda
		for i := range dst {
			for {
				u := float64(p.Uint64()<<11>>11)/(1<<53) - 0.5
				v := float64(p.Uint64()<<11>>11) / (1 << 53)
				us := 0.5 - math.Abs(u)
				kf := math.Floor((2*a/us+b)*u + lambda + 0.43)
				if us >= 0.07 && v <= vr {
					dst[i] = int(kf)
					break
				}
				if kf < 0 || (us < 0.013 && v > us) {
					continue
				}
				k := int(kf)
				var bound float64
				if j := k - s.acceptLo; uint(j) < uint(len(s.accept)) {
					bound = s.accept[j]
				} else {
					bound = s.acceptAt(kf)
				}
				if v*s.invAlpha/(a/(us*us)+b) <= bound {
					dst[i] = k
					break
				}
			}
		}
	}
}
