package photon

import (
	"math"
	"math/rand/v2"
	"sync"
)

// Sampler draws Poisson variates for one fixed mean with all
// lambda-dependent work precomputed. It offers two draw disciplines:
//
//   - Sample mirrors the one-shot Sample(rng, lambda): it consumes the
//     rng identically and returns bit-identical variates, which is what
//     lets a cached sampler substitute for the scalar call inside a
//     seeded session without perturbing it.
//   - SampleNPCG is the block fill of the transmitter's settled runs.
//     For means up to maxTableLambda it draws by inverted CDF through a
//     guide table — one uniform and ~two comparisons per variate, the
//     cheapest exact discrete sampling known — and so consumes the rng
//     differently from Sample (the distribution is identical; the
//     stream is not). Beyond maxTableLambda it falls back to the PTRS
//     loop and there it DOES match Sample draw for draw.
//
// A Sampler is immutable after construction and safe for concurrent use
// (each call still needs its own rng, as with Sample).
type Sampler struct {
	lambda float64

	// Knuth path (lambda < 10).
	expNegLambda float64

	// PTRS path (lambda >= 10): Hörmann's envelope constants and the
	// pretabulated acceptance bound exp(k·lnλ − λ − ln k!) covering the
	// plausible candidate range (beyond it the bound is recomputed, via
	// the identical expression, so draws stay bit-identical to Sample).
	logLambda, b, a, invAlpha, vr float64
	accept                        []float64 // accept[k] = exp(k·lnλ − λ − ln k!)

	// Inverse-CDF block path (0 < lambda <= maxTableLambda): cdf[k] is
	// P(X ≤ k) over the same support bound as the accept table, guide[j]
	// the smallest k with cdf[k] > j/len(guide) (Chen–Asau indexed
	// search), lastPMF the mass at the table edge so the (astronomically
	// unlikely) far tail can be continued term by term.
	cdf     []float64
	guide   []int32
	lastPMF float64
}

// maxTableLambda bounds the means that get an inverse-CDF table: the
// table holds O(lambda) float64s, and the PTRS fallback is already
// near-optimal for means this large.
const maxTableLambda = 4096

// NewSampler builds a sampler for the mean. Non-positive means always
// sample zero, mirroring Sample.
func NewSampler(lambda float64) *Sampler {
	s := &Sampler{lambda: lambda}
	switch {
	case lambda <= 0:
	case lambda < 10:
		s.expNegLambda = math.Exp(-lambda)
	default:
		s.logLambda = math.Log(lambda)
		s.b = 0.931 + 2.53*math.Sqrt(lambda)
		s.a = -0.059 + 0.02483*s.b
		s.invAlpha = 1.1239 + 1.1328/(s.b-3.4)
		s.vr = 0.9277 - 3.6224/(s.b-2)
		// Rejection candidates concentrate within a few σ of the mean;
		// cover a generous range and fall back to recomputing beyond it.
		n := int(lambda+12*math.Sqrt(lambda)) + 32
		s.accept = make([]float64, n)
		for k := 0; k < n; k++ {
			s.accept[k] = s.acceptAt(float64(k))
		}
	}
	if lambda > 0 && lambda <= maxTableLambda {
		s.buildTable()
	}
	return s
}

// buildTable precomputes the inverse-CDF guide table for the block
// fills. The PMF is grown outward from the mode by the stable two-term
// recurrence, so no intermediate underflows even though P(X=0) does for
// large means; the support bound matches the accept table (tail mass
// beyond it is below 1e-30 and handled by tailDraw).
func (s *Sampler) buildTable() {
	lambda := s.lambda
	n := int(lambda+12*math.Sqrt(lambda)) + 32
	pmf := make([]float64, n)
	mode := int(lambda)
	lg, _ := math.Lgamma(float64(mode) + 1)
	pmf[mode] = math.Exp(float64(mode)*math.Log(lambda) - lambda - lg)
	for k := mode; k+1 < n; k++ {
		pmf[k+1] = pmf[k] * lambda / float64(k+1)
	}
	for k := mode; k > 0; k-- {
		pmf[k-1] = pmf[k] * float64(k) / lambda
	}
	s.cdf = make([]float64, n)
	c := 0.0
	for k, p := range pmf {
		c += p
		s.cdf[k] = c
	}
	s.lastPMF = pmf[n-1]
	// guide[j] = min{k : cdf[k] > j/m}: a draw u in cell j starts its
	// scan at guide[j], which can never overshoot the answer because
	// u ≥ j/m. Two cells per support point keeps the expected scan under
	// two comparisons.
	m := 2 * n
	s.guide = make([]int32, m)
	j := 0
	for k := 0; k < n; k++ {
		for j < m && float64(j)/float64(m) < s.cdf[k] {
			s.guide[j] = int32(k)
			j++
		}
	}
	for ; j < m; j++ {
		s.guide[j] = int32(n - 1)
	}
}

// tableDraw maps one uniform onto the Poisson variate by indexed
// inverse-CDF search: the answer is the smallest k with u < cdf[k].
func (s *Sampler) tableDraw(u float64) int {
	k := int(s.guide[int(u*float64(len(s.guide)))])
	for u >= s.cdf[k] {
		k++
		if k == len(s.cdf) {
			return s.tailDraw(u)
		}
	}
	return k
}

// tailDraw continues the CDF beyond the table term by term. The table
// covers the mean plus twelve standard deviations, so landing here needs
// a uniform within ~1e-30 of 1 — it exists for correctness, not speed.
func (s *Sampler) tailDraw(u float64) int {
	k := len(s.cdf) - 1
	c, p := s.cdf[k], s.lastPMF
	for u >= c {
		k++
		p *= s.lambda / float64(k)
		c += p
		if p < 1e-320 {
			break
		}
	}
	return k
}

// acceptAt computes the PTRS acceptance bound exp(k·lnλ − λ − ln k!) with
// the exact expression Sample uses, keeping the two bit-identical.
func (s *Sampler) acceptAt(kf float64) float64 {
	return math.Exp(kf*s.logLambda - s.lambda - lnFact(kf))
}

// Lambda returns the mean the sampler was built for.
func (s *Sampler) Lambda() float64 { return s.lambda }

// Sample draws one Poisson(lambda) variate, consuming the rng exactly as
// Sample(rng, lambda) would.
func (s *Sampler) Sample(rng *rand.Rand) int {
	switch {
	case s.lambda <= 0:
		return 0
	case s.lambda < 10:
		k := 0
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= s.expNegLambda {
				return k
			}
			k++
		}
	}
	for {
		u := rng.Float64() - 0.5
		v := rng.Float64()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*s.a/us+s.b)*u + s.lambda + 0.43)
		if us >= 0.07 && v <= s.vr {
			return int(kf)
		}
		if kf < 0 || (us < 0.013 && v > us) {
			continue
		}
		k := int(kf)
		var bound float64
		if k < len(s.accept) {
			bound = s.accept[k]
		} else {
			bound = s.acceptAt(kf)
		}
		if v*s.invAlpha/(s.a/(us*us)+s.b) <= bound {
			return k
		}
	}
}

// samplerCache memoizes Samplers by mean. A static link reuses the same
// two rail means (one per settled LED state) per operating point, so the
// sweeps hit the cache constantly; a moving ambient mints fresh means all
// the time, so the cache is bounded at samplerCacheMax entries and
// cleared when full, after which it refills with the means in use. A
// plain map under RWMutex (rather than sync.Map) keeps the float64 key
// from being boxed into an interface on every lookup — SamplerFor sits on
// the per-transmit path and must stay allocation-free once warm.
var (
	samplerCacheMu sync.RWMutex
	samplerCache   = map[float64]*Sampler{}
)

// samplerCacheMax bounds the sampler cache: two rail means for each of
// more than a hundred operating points in use at once.
const samplerCacheMax = 256

// SamplerFor returns a shared Sampler for the mean, building it on first
// use. Samplers are immutable, so one handed out before the cache is
// cleared keeps drawing correctly. Safe for concurrent use.
func SamplerFor(lambda float64) *Sampler {
	samplerCacheMu.RLock()
	s := samplerCache[lambda]
	samplerCacheMu.RUnlock()
	if s != nil {
		samplerCacheHits.Inc()
		return s
	}
	samplerCacheMisses.Inc()
	samplerCacheMu.Lock()
	if s = samplerCache[lambda]; s == nil {
		s = NewSampler(lambda)
		if len(samplerCache) >= samplerCacheMax {
			clear(samplerCache)
		}
		samplerCache[lambda] = s
	}
	samplerCacheMu.Unlock()
	return s
}
