package photon

import (
	"math"
	"sync"
)

// Sampler draws Poisson variates for one fixed mean with all
// lambda-dependent work precomputed: SampleNPCG is the block fill of the
// transmitter's settled runs. For means up to maxTableLambda it draws by
// inverted CDF through an integer-domain guide table (invCDF) — one
// uniform and, for most draws, one table read per variate, the cheapest
// exact discrete sampling known. Beyond maxTableLambda it falls back to
// the PTRS loop and there matches SamplePCG draw for draw.
//
// A Sampler is immutable after construction and safe for concurrent use
// (each call still needs its own rng).
type Sampler struct {
	lambda float64

	// PTRS path (lambda > maxTableLambda): Hörmann's envelope constants
	// and the pretabulated acceptance bound exp(k·lnλ − λ − ln k!) over
	// the window of candidates within twelve standard deviations of the
	// mean, at most maxAcceptLen of them (outside it the bound is
	// recomputed, via the identical expression, so draws stay
	// bit-identical to SamplePCG).
	logLambda, b, a, invAlpha, vr float64
	acceptLo                      int       // the candidate accept[0] belongs to
	accept                        []float64 // accept[j] = exp(k·lnλ − λ − ln k!) for k = acceptLo+j

	// Inverse-CDF block path (0 < lambda <= maxTableLambda): the table
	// over P(X ≤ k) for k = 0..n−1, and lastPMF the mass at the table
	// edge so the (astronomically unlikely) far tail can be continued
	// term by term.
	tab     invCDF
	lastPMF float64

	// maxCount is the largest count a draw can return: the draw of the
	// largest 53-bit integer (where the tail walk stops for it, when it
	// reaches the walk), 0 for a non-positive mean and math.MaxInt (no
	// bound) on the PTRS path.
	maxCount int
}

// maxTableLambda bounds the means that get an inverse-CDF table: the
// table holds O(lambda) entries, and the PTRS fallback is already
// near-optimal for means this large.
const maxTableLambda = 4096

// maxAcceptLen caps the PTRS acceptance window at 512 KB per sampler.
// Twelve standard deviations either side of a mean of 1e7 are 76k
// candidates, and of the ON rail 1 mm from the LED (a mean near 2.9e8)
// 405k.
const maxAcceptLen = 1 << 16

// NewSampler builds a sampler for the mean. Non-positive means always
// sample zero, mirroring SamplePCG.
func NewSampler(lambda float64) *Sampler {
	s := &Sampler{lambda: lambda}
	switch {
	case lambda <= 0:
	case lambda <= maxTableLambda:
		pmf, lastPMF := samplerPMF(lambda)
		// Four guide cells per support point or more leave all but a
		// few percent of the draws in determined cells (see invCDF).
		s.tab, s.lastPMF = newInvCDF(pmf, 0, 4*len(pmf)), lastPMF
		// A draw never falls as its integer rises, so the largest
		// integer draws the largest count.
		s.maxCount = s.tableDraw(1<<53 - 1)
	default:
		s.maxCount = math.MaxInt
		s.logLambda = math.Log(lambda)
		s.b = 0.931 + 2.53*math.Sqrt(lambda)
		s.a = -0.059 + 0.02483*s.b
		s.invAlpha = 1.1239 + 1.1328/(s.b-3.4)
		s.vr = 0.9277 - 3.6224/(s.b-2)
		// Rejection candidates concentrate within a few σ of the mean;
		// cover a generous window around it and recompute outside.
		half := min(12*math.Sqrt(lambda), maxAcceptLen/2)
		s.acceptLo = int(lambda - half)
		s.accept = make([]float64, int(lambda+half)-s.acceptLo)
		for j := range s.accept {
			s.accept[j] = s.acceptAt(float64(s.acceptLo + j))
		}
	}
	return s
}

// samplerSupport is the number of points k = 0..n−1 a sampler tabulates:
// the mean plus twelve standard deviations and a margin, beyond which
// the Poisson mass is below 1e-30.
func samplerSupport(lambda float64) int {
	return int(lambda+12*math.Sqrt(lambda)) + 32
}

// samplerPMF returns the point masses P(X = k), k = 0..n−1, a Sampler's
// table is built from, as float64 bits (see newInvCDF), and the mass at
// its last entry. The PMF is grown outward from the mode by the stable
// two-term recurrence, so no intermediate underflows even though
// P(X=0) does for large means.
func samplerPMF(lambda float64) (pmf []uint64, lastPMF float64) {
	n := samplerSupport(lambda)
	pmf = make([]uint64, n)
	mode := int(lambda)
	lg, _ := math.Lgamma(float64(mode) + 1)
	p := math.Exp(float64(mode)*math.Log(lambda) - lambda - lg)
	pmf[mode] = math.Float64bits(p)
	for k, q := mode, p; k+1 < n; k++ {
		q = q * lambda / float64(k+1)
		pmf[k+1] = math.Float64bits(q)
	}
	for k, q := mode, p; k > 0; k-- {
		q = q * float64(k) / lambda
		pmf[k-1] = math.Float64bits(q)
	}
	return pmf, math.Float64frombits(pmf[n-1])
}

// tableDraw maps the 53-bit integer x of one uniform onto the Poisson
// variate: the smallest k with x/2^53 < P(X ≤ k).
func (s *Sampler) tableDraw(x uint64) int {
	if k := s.tab.index(x); k < len(s.tab.icdf) {
		return k
	}
	return s.tailDraw(float64(x) / (1 << 53))
}

// tailDraw continues the CDF beyond the table term by term. The table
// covers the mean plus twelve standard deviations, so landing here needs
// a uniform within ~1e-30 of 1, or past a last CDF entry rounded below
// 1 − 2^−53 — it exists for correctness, not speed.
func (s *Sampler) tailDraw(u float64) int {
	k := len(s.tab.icdf) - 1
	c, p := s.tab.cHi, s.lastPMF
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
// the exact expression SamplePCG uses, keeping the two bit-identical.
func (s *Sampler) acceptAt(kf float64) float64 {
	return math.Exp(kf*s.logLambda - s.lambda - lnFact(kf))
}

// Lambda returns the mean the sampler was built for.
func (s *Sampler) Lambda() float64 { return s.lambda }

// MaxCount returns the largest count the sampler can draw, math.MaxInt
// when its draws are unbounded (means above maxTableLambda). Draws are
// never negative.
func (s *Sampler) MaxCount() int { return s.maxCount }

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
