package photon

import (
	"math"
	"math/rand/v2"
	"sync/atomic"
)

// This file is the sampler for the transmitter's transition windows:
// windows whose Poisson mean comes out of the LED slew integration and so
// takes a fresh value nearly every draw, which rules out a per-mean
// cached Sampler. Sums of independent Poissons are Poisson, so for
// λ = g·h + r with cell g = ⌊λ/h⌋ and residual 0 ≤ r < h,
//
//	Pois(λ) = Pois(g·h) + Pois(r).
//
// The first term comes from a process-wide grid of inverse-CDF tables,
// one per cell, built on first use and then shared; the second is drawn
// by inversion from zero, behind a binned squeeze on e^−r that decides
// almost every draw without calling exp. Both are exact, so the sum has
// the Poisson law of λ — the stream differs from SamplePCG's, the
// distribution does not. Means at or above gridCap fall back to
// SamplePCG, which bounds the grid: gridCap/gridStep cells whose tables
// hold O(√λ) entries each — about 46 KB for the cells between the two
// rails at Fig. 15's operating point, about 0.7 MB with every cell built
// (TestGridMemoryBound).

// gridStep is the cell width h. A power of two keeps λ/h and g·h exact,
// so the residual λ − g·h is computed without rounding.
const gridStep = 1.0

// gridCap is the first mean served by SamplePCG instead of the grid.
const gridCap = 256

// gridTrim is the smallest point mass a table stores: the support is
// trimmed where the PMF falls below it on either side, leaving under 1e-9
// of the mass to the exact tail walks and keeping each table near 13σ
// entries wide.
const gridTrim = 1e-10

// grid holds the cell tables, filled lazily; cell 0 (mean 0) has none.
var grid [gridCap / gridStep]atomic.Pointer[gridTable]

// gridTable is the inverse-CDF table of Pois(mu) over the trimmed
// support lo..lo+n−1. It is immutable once built.
type gridTable struct {
	mu  float64
	lo  int
	pHi float64 // P(X = lo+n−1), continues the right tail
	tab invCDF
}

// buildGridCell builds the table of cell g ≥ 1 on its first use and
// publishes it. Concurrent first uses may each build one; construction
// is deterministic, so whichever is published draws identically.
func buildGridCell(g int) *gridTable {
	grid[g].CompareAndSwap(nil, newGridTable(float64(g)*gridStep, gridTrim))
	return grid[g].Load()
}

// newGridTable builds the table for a positive mean, with four guide
// cells per support point or more.
func newGridTable(mu, trim float64) *gridTable {
	lo, below, pHi, pmf := gridPMF(mu, trim)
	return &gridTable{mu: mu, lo: lo, pHi: pHi, tab: newInvCDF(pmf, below, 4*len(pmf))}
}

// gridPMF returns the point masses a grid table is built from, as
// float64 bits (see newInvCDF): pmf[i] = P(X = lo+i) over the support
// where the PMF is at least trim, below = P(X < lo) and pHi the point
// mass at the last entry. The PMF is grown outward from the mode by the
// two-term recurrence (as in samplerPMF), stopping on each side where it
// falls below trim.
func gridPMF(mu, trim float64) (lo int, below, pHi float64, pmf []uint64) {
	mode := int(mu)
	pm := math.Exp(float64(mode)*math.Log(mu) - mu - lnFact(float64(mode)))
	hi := mode
	for p := pm; ; hi++ {
		if p *= mu / float64(hi+1); p < trim {
			break
		}
	}
	lo = mode
	for p := pm; lo > 0; lo-- {
		if p *= float64(lo) / mu; p < trim {
			break
		}
	}
	pmf = make([]uint64, hi-lo+1)
	pmf[mode-lo] = math.Float64bits(pm)
	p := pm
	for k := mode; k < hi; k++ {
		p = p * mu / float64(k+1)
		pmf[k+1-lo] = math.Float64bits(p)
	}
	pHi = p
	p = pm
	for k := mode; k > lo; k-- {
		p = p * float64(k) / mu
		pmf[k-1-lo] = math.Float64bits(p)
	}
	for k := lo; k > 0 && p > 0; k-- { // p holds P(X = lo) here
		p *= float64(k) / mu
		below += p
	}
	return lo, below, pHi, pmf
}

// draw maps the 53-bit integer x of one uniform onto Pois(mu): the
// smallest k with x/2^53 < P(X ≤ k), walking either tail exactly when x
// falls off the table.
func (t *gridTable) draw(x uint64) int {
	switch i := t.tab.index(x); i {
	case -1:
		return t.leftTail(float64(x) / (1 << 53))
	case len(t.tab.icdf):
		return t.rightTail(float64(x) / (1 << 53))
	default:
		return t.lo + i
	}
}

// leftTail inverts below the table edge, where u < P(X < lo): it sums
// the CDF upward from zero, the accurate direction for these tiny
// masses (the grid's means keep e^−mu far from underflow).
func (t *gridTable) leftTail(u float64) int {
	p := math.Exp(-t.mu)
	c, k := p, 0
	for u >= c && k < t.lo-1 {
		k++
		p *= t.mu / float64(k)
		c += p
	}
	return k
}

// rightTail continues the inversion above the table edge term by term,
// stopping where the remaining mass no longer moves the CDF.
func (t *gridTable) rightTail(u float64) int {
	k := t.lo + len(t.tab.icdf) - 1
	c, p := t.tab.cHi, t.pHi
	for u >= c {
		k++
		p *= t.mu / float64(k)
		if c+p == c {
			break
		}
		c += p
	}
	return k
}

// residualMargin widens the squeeze brackets past the rounding of exp at
// the bin edges, so every bracket holds the computed e^−r strictly. Float
// rounding is monotone, so the products with the partial sums keep that
// order and a squeeze decision is never one exact inversion would
// reverse.
const residualMargin = 1e-14

// residualBinCount is the number of equal bins residualBins splits the
// residual range [0, gridStep) into. A power of two keeps r·count and the
// bin edges exact.
const residualBinCount = 256

// residualBins[b] = {lo, hi} brackets e^−r for every r of bin b, that is
// r ∈ [b·w, (b+1)·w) with w = gridStep/residualBinCount: e^−r decreases,
// so lo is the value at the bin's right edge and hi the one at its left,
// each widened by residualMargin.
var residualBins = func() (bins [residualBinCount][2]float64) {
	const w = gridStep / residualBinCount
	for b := range bins {
		bins[b] = [2]float64{
			math.Exp(-float64(b+1)*w) - residualMargin,
			math.Exp(-float64(b)*w) + residualMargin,
		}
	}
	return bins
}()

// residualDraw draws Pois(r) for 0 ≤ r < gridStep from the uniform u by
// inversion from zero: P(X ≤ k) = e^−r·s_k with s_k = Σ_{i≤k} r^i/i!.
// r's bin brackets e^−r between lo and hi, so a uniform below lo·s_k
// answers k and one at or above hi·s_k moves on to k+1 without exp; only
// a uniform inside a bracket, of width about e^−r·s_k/256, pays for exp
// and the exact comparison. The answers 0 and 1, nearly every draw,
// take no branch on which of the two it is.
func residualDraw(u, r float64) int {
	bin := &residualBins[int(r*(residualBinCount/gridStep))]
	lo, hi := bin[0], bin[1]
	if u < lo*(1+r) && (u-lo)*(u-hi) > 0 {
		// Below the second bracket and outside the first: X is 0 or 1.
		k := 0
		if u > hi {
			k = 1
		}
		return k
	}
	s, p := 1.0, 1.0
	for k := 0; ; k++ {
		if u < lo*s {
			return k
		}
		if u < hi*s {
			return residualExact(u, r, k, s, p)
		}
		p *= r / float64(k+1)
		s += p
		if p < 0x1p-60 {
			return residualExact(u, r, k+1, s, p)
		}
	}
}

// residualExact finishes a residual inversion whose answer is known to
// be at least k, with s = s_k and p = r^k/k!, comparing against the exact
// CDF e^−r·s_k.
func residualExact(u, r float64, k int, s, p float64) int {
	e := math.Exp(-r)
	for u >= e*s {
		k++
		p *= r / float64(k)
		if s+p == s {
			break
		}
		s += p
	}
	return k
}

// SampleGridPCG draws one Poisson(lambda) variate from the PCG stream:
// for 0 < lambda < gridCap the grid cell's table draw plus the residual
// draw (one uniform each; none for a zero residual or the empty cell 0),
// otherwise SamplePCG. The law is exactly Poisson(lambda); the stream is
// not SamplePCG's. Safe for concurrent use; allocation-free once the
// cell's table is built.
func SampleGridPCG(p *rand.PCG, lambda float64) int {
	if !(lambda < gridCap) {
		return SamplePCG(p, lambda)
	}
	if lambda <= 0 {
		return 0
	}
	g := int(lambda * (1 / gridStep))
	r := lambda - float64(g)*gridStep
	k := 0
	if g > 0 {
		t := grid[g].Load()
		if t == nil {
			t = buildGridCell(g)
		}
		// A determined guide cell answers here; draw, too large to be
		// inlined, handles every other.
		x := p.Uint64() << 11 >> 11
		if c := t.tab.cells[x>>t.tab.shift]; c&1 == 0 {
			k = t.lo + int(c>>1)
		} else {
			k = t.draw(x)
		}
	}
	if r > 0 {
		k += residualDraw(float64(p.Uint64()<<11>>11)/(1<<53), r)
	}
	return k
}
