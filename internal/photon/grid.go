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
// by inversion from zero, behind a Taylor-polynomial squeeze that decides
// almost every draw without calling exp. Both are exact, so the sum has
// the Poisson law of λ — the stream differs from SamplePCG's, the
// distribution does not. Means at or above gridCap fall back to
// SamplePCG, which bounds the grid: gridCap/gridStep cells whose tables
// hold O(√λ) entries each — about 24 KB for the cells between the two
// rails at Fig. 15's operating point, under 0.4 MB with every cell built
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
// support lo..lo+len(cdf)-1, with a Chen–Asau guide over the CDF. It is
// immutable once built.
type gridTable struct {
	mu    float64
	lo    int
	below float64   // P(X < lo)
	pHi   float64   // P(X = lo+len(cdf)-1), continues the right tail
	cdf   []float64 // cdf[i] = P(X ≤ lo+i)
	guide []uint16  // guide[j] = min{i : cdf[i] > j/len(guide)}
}

// gridCell returns the table of cell g ≥ 1, building it on first use.
// Concurrent first uses may each build one; construction is
// deterministic, so whichever is published draws identically.
func gridCell(g int) *gridTable {
	if t := grid[g].Load(); t != nil {
		return t
	}
	grid[g].CompareAndSwap(nil, newGridTable(float64(g)*gridStep, gridTrim))
	return grid[g].Load()
}

// newGridTable builds the table for a positive mean. The PMF is grown
// outward from the mode by the two-term recurrence (as in
// Sampler.buildTable), stopping on each side where it falls below trim.
func newGridTable(mu, trim float64) *gridTable {
	mode := int(mu)
	pm := math.Exp(float64(mode)*math.Log(mu) - mu - lnFact(float64(mode)))
	hi := mode
	for p := pm; ; hi++ {
		if p *= mu / float64(hi+1); p < trim {
			break
		}
	}
	lo := mode
	for p := pm; lo > 0; lo-- {
		if p *= float64(lo) / mu; p < trim {
			break
		}
	}
	t := &gridTable{mu: mu, lo: lo, cdf: make([]float64, hi-lo+1), guide: make([]uint16, hi-lo+1)}
	pmf := t.cdf // filled with point masses, then summed in place
	pmf[mode-lo] = pm
	for k := mode; k < hi; k++ {
		pmf[k+1-lo] = pmf[k-lo] * mu / float64(k+1)
	}
	for k := mode; k > lo; k-- {
		pmf[k-1-lo] = pmf[k-lo] * float64(k) / mu
	}
	t.pHi = pmf[len(pmf)-1]
	for k, p := lo, pmf[0]; k > 0 && p > 0; k-- {
		p *= float64(k) / mu
		t.below += p
	}
	c := t.below
	for i, p := range pmf {
		c += p
		t.cdf[i] = c
	}
	m := len(t.guide)
	j := 0
	for i, c := range t.cdf {
		for j < m && float64(j)/float64(m) < c {
			t.guide[j] = uint16(i)
			j++
		}
	}
	for ; j < m; j++ {
		t.guide[j] = uint16(len(t.cdf) - 1)
	}
	return t
}

// draw maps one uniform onto Pois(mu): the smallest k with u < P(X ≤ k).
func (t *gridTable) draw(u float64) int {
	if u < t.below {
		return t.leftTail(u)
	}
	cdf := t.cdf
	i := int(t.guide[int(u*float64(len(t.guide)))])
	for u >= cdf[i] {
		i++
		if i == len(cdf) {
			return t.rightTail(u)
		}
	}
	return t.lo + i
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
	k := t.lo + len(t.cdf) - 1
	c, p := t.cdf[len(t.cdf)-1], t.pHi
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

// residualMargin widens the squeeze bracket past the float rounding of
// the Taylor polynomials and the partial sums, so a squeeze decision is
// never one exact inversion would reverse.
const residualMargin = 1e-14

// residualDraw draws Pois(r) for 0 ≤ r < gridStep from the uniform u by
// inversion from zero: P(X ≤ k) = e^−r·s_k with s_k = Σ_{i≤k} r^i/i!.
// The Taylor polynomials T5(r) ≤ e^−r ≤ T6(r) (alternating remainders)
// bracket every CDF value, so a uniform below T5·s_k answers k and one
// above T6·s_k moves on to k+1 without exp; only a uniform inside a
// bracket, of width r⁶/720·s_k, pays for exp and the exact comparison.
// The answers 0 and 1, nearly every draw, take no branch on which of the
// two it is.
func residualDraw(u, r float64) int {
	t5 := 1 - r*(1-r*(1.0/2-r*(1.0/6-r*(1.0/24-r*(1.0/120)))))
	lo := t5 - residualMargin
	hi := t5 + r*r*r*r*r*r*(1.0/720) + residualMargin
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
		k = gridCell(g).draw(float64(p.Uint64()<<11>>11) / (1 << 53))
	}
	if r > 0 {
		k += residualDraw(float64(p.Uint64()<<11>>11)/(1<<53), r)
	}
	return k
}
