package photon

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// floatInverse is the oracle for the integer tables: the float inversion
// they replaced, over the CDF the constructors compute. A uniform u
// inverts to the first point k with u < cdf[k], found by the scan
// u ≥ cdf[k]; below the table (u < below) and past it the tail walks
// below take over, as the tables did before.
type floatInverse struct {
	cdf   []float64
	lo    int     // the point cdf[0] belongs to
	below float64 // P(X < lo)
	left  func(u float64) int
	right func(u float64) int
}

// floatCDF accumulates point masses held as float64 bits into the float
// CDF newInvCDF inverts: cdf[i] = below + pmf[0] + … + pmf[i], summed in
// that order.
func floatCDF(pmf []uint64, below float64) []float64 {
	cdf := make([]float64, len(pmf))
	c := below
	for i, p := range pmf {
		c += math.Float64frombits(p)
		cdf[i] = c
	}
	return cdf
}

// samplerOracle is the float inversion of a rail sampler at lambda.
func samplerOracle(lambda float64) floatInverse {
	pmf, lastPMF := samplerPMF(lambda)
	cdf := floatCDF(pmf, 0)
	return floatInverse{cdf: cdf, right: func(u float64) int {
		k := len(cdf) - 1
		c, p := cdf[k], lastPMF
		for u >= c {
			k++
			p *= lambda / float64(k)
			c += p
			if p < 1e-320 {
				break
			}
		}
		return k
	}}
}

// gridOracle is the float inversion of a grid table at mu.
func gridOracle(mu, trim float64) floatInverse {
	lo, below, pHi, pmf := gridPMF(mu, trim)
	cdf := floatCDF(pmf, below)
	return floatInverse{cdf: cdf, lo: lo, below: below,
		left: func(u float64) int {
			p := math.Exp(-mu)
			c, k := p, 0
			for u >= c && k < lo-1 {
				k++
				p *= mu / float64(k)
				c += p
			}
			return k
		},
		right: func(u float64) int {
			k := lo + len(cdf) - 1
			c, p := cdf[len(cdf)-1], pHi
			for u >= c {
				k++
				p *= mu / float64(k)
				if c+p == c {
					break
				}
				c += p
			}
			return k
		},
	}
}

// sweep inverts a non-decreasing sequence of integers x through the
// oracle, continuing each scan where the last one stopped.
type sweep struct {
	f *floatInverse
	k int
}

func (s *sweep) at(x uint64) int {
	u := float64(x) / (1 << 53)
	if u < s.f.below {
		return s.f.left(u)
	}
	for s.k < len(s.f.cdf) && u >= s.f.cdf[s.k] {
		s.k++
	}
	if s.k == len(s.f.cdf) {
		return s.f.right(u)
	}
	return s.f.lo + s.k
}

// invCase is one table under TestInvCDFMatchesFloatScan.
type invCase struct {
	name   string
	tab    *invCDF
	lo     int // the point a stored index 0 stands for
	draw   func(x uint64) int
	oracle floatInverse
}

// TestInvCDFMatchesFloatScan checks that the integer tables invert every
// 53-bit x exactly as the float scan does, for the grid cells 1..255 and
// rail samplers from dark air to the table ceiling:
//   - each guide cell's lowest and highest x, and a determined cell's
//     stored answer against both;
//   - both sides of every step of the inverse, x = icdf[i]−1 and icdf[i],
//     so an integer CDF entry one off its float shows;
//   - 10^6 random x per table, one in each of 10^6 equal strata, from
//     x = 0 to x = 2^53−1.
func TestInvCDFMatchesFloatScan(t *testing.T) {
	var cases []invCase
	for g := 1; g < len(grid); g++ {
		mu := float64(g) * gridStep
		tb := newGridTable(mu, gridTrim)
		cases = append(cases, invCase{fmt.Sprintf("grid cell %d", g), &tb.tab, tb.lo, tb.draw, gridOracle(mu, gridTrim)})
	}
	for _, lambda := range []float64{0.05, 0.37, 3.2, 12.3, 44.1, 120, 4096} {
		s := NewSampler(lambda)
		cases = append(cases, invCase{fmt.Sprintf("sampler %v", lambda), &s.tab, 0, s.tableDraw, samplerOracle(lambda)})
	}
	const strata = 1_000_000
	p := rand.NewPCG(13, 31)
	for _, c := range cases {
		check := func(sw *sweep, x uint64, what string) int {
			want := sw.at(x)
			if got := c.draw(x); got != want {
				t.Fatalf("%s, %s x=%d: draw %d, float scan %d", c.name, what, x, got, want)
			}
			return want
		}

		sw := sweep{f: &c.oracle}
		for j, cell := range c.tab.cells {
			lo := uint64(j) << c.tab.shift
			wlo := check(&sw, lo, "cell low")
			whi := check(&sw, lo|(1<<c.tab.shift-1), "cell high")
			if cell&1 == 0 && (c.lo+int(cell>>1) != wlo || wlo != whi) {
				t.Fatalf("%s: cell %d stores %d, inverts %d..%d", c.name, j, c.lo+int(cell>>1), wlo, whi)
			}
		}

		var steps []uint64
		for _, v := range append([]uint64{c.tab.below}, c.tab.icdf...) {
			for _, x := range []uint64{v - 1, v} {
				if x < 1<<53 { // v − 1 wraps for v = 0
					steps = append(steps, x)
				}
			}
		}
		slices.Sort(steps)
		sw = sweep{f: &c.oracle}
		for _, x := range slices.Compact(steps) {
			check(&sw, x, "step")
		}

		sw = sweep{f: &c.oracle}
		const stride = (1 << 53) / strata
		check(&sw, 0, "random")
		for i := uint64(0); i < strata; i++ {
			check(&sw, i*stride+p.Uint64()%stride, "random")
		}
		check(&sw, 1<<53-1, "random")
	}
}

// twoScanInvCDF is the reference for newInvCDF's guide: the builder it
// replaced, which found each cell's lowest and highest x's answers by
// scanning the icdf column from the previous cell's answer.
func twoScanInvCDF(cdf []float64, below float64, minCells int) invCDF {
	n := len(cdf)
	t := invCDF{
		icdf:  make([]uint64, n),
		below: uint64(math.Ceil(below * (1 << 53))),
		cHi:   cdf[n-1],
	}
	for i, c := range cdf {
		t.icdf[i] = uint64(math.Ceil(c * (1 << 53)))
	}
	bits := 0
	for 1<<bits < minCells {
		bits++
	}
	t.shift = uint(53 - bits)
	t.cells = make([]uint16, 1<<bits)
	i := 0 // answer of the cell's lowest x: the smallest i with x < icdf[i]
	for j := range t.cells {
		lo := uint64(j) << t.shift
		hi := lo | (1<<t.shift - 1)
		for i < n && lo >= t.icdf[i] {
			i++
		}
		h := i // answer of the cell's highest x
		for h < n && hi >= t.icdf[h] {
			h++
		}
		if h == i && i < n && lo >= t.below {
			t.cells[j] = uint16(i << 1)
		} else {
			t.cells[j] = uint16(i<<1 | 1)
		}
	}
	return t
}

// sameInvCDF reports how two tables differ, or nil.
func sameInvCDF(got, want *invCDF) error {
	switch {
	case got.shift != want.shift || got.below != want.below || got.cHi != want.cHi:
		return fmt.Errorf("shift/below/cHi %d/%d/%v, reference %d/%d/%v",
			got.shift, got.below, got.cHi, want.shift, want.below, want.cHi)
	case !slices.Equal(got.icdf, want.icdf):
		return fmt.Errorf("icdf columns differ")
	case !slices.Equal(got.cells, want.cells):
		return fmt.Errorf("guide cells differ")
	}
	return nil
}

// TestInvCDFMatchesTwoScanBuilder checks that the one-pass guide fill
// builds exactly the table the two-scan builder built from the same
// float CDF: every grid cell 1..255, and rail samplers at 4000 means
// from 1e-4 to maxTableLambda (log-spaced, with every integer mean up to
// 64 and the means on either side of each), dyadic tables with steps and
// left edges next to cell boundaries, and guide sizes from one cell to
// 64 per point.
func TestInvCDFMatchesTwoScanBuilder(t *testing.T) {
	check := func(name string, got invCDF, cdf []float64, below float64, minCells int) {
		t.Helper()
		want := twoScanInvCDF(cdf, below, minCells)
		if err := sameInvCDF(&got, &want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for g := 1; g < len(grid); g++ {
		mu := float64(g) * gridStep
		tb := newGridTable(mu, gridTrim)
		_, below, _, pmf := gridPMF(mu, gridTrim)
		check(fmt.Sprintf("grid cell %d", g), tb.tab, floatCDF(pmf, below), below, 4*len(pmf))
	}
	var means []float64
	for i := 0; i < 4000; i++ {
		means = append(means, 1e-4*math.Pow(maxTableLambda/1e-4, float64(i)/3999))
	}
	for k := 1.0; k <= 64; k++ {
		means = append(means, k, math.Nextafter(k, 0), math.Nextafter(k, 100))
	}
	for _, lambda := range means {
		s := NewSampler(lambda)
		pmf, _ := samplerPMF(lambda)
		check(fmt.Sprintf("sampler %v", lambda), s.tab, floatCDF(pmf, 0), 0, 4*len(pmf))
	}
	// Dyadic tables whose steps and left edge sit one below, on and one
	// above a boundary of four cells (2^51 apart), with a zero-mass point.
	const cell = 1 << 51
	bits := func(masses ...float64) []uint64 {
		out := make([]uint64, len(masses))
		for i, m := range masses {
			out[i] = math.Float64bits(m)
		}
		return out
	}
	for _, edge := range []float64{cell - 1, cell, cell + 1, 2*cell - 1, 3*cell + 1} {
		c := edge / (1 << 53)
		for _, below := range []float64{0, c / 2, c} {
			for _, pmf := range [][]uint64{bits(c-below, 1-c), bits(c-below, 0, 0.25, 0.75-c), bits(0.5-below, 0.5)} {
				check(fmt.Sprintf("dyadic edge %v, below %v", edge, below),
					newInvCDF(slices.Clone(pmf), below, 4), floatCDF(pmf, below), below, 4)
			}
		}
	}
	for _, lambda := range []float64{0.37, 12.3, 44.1, 1000} {
		for _, perPoint := range []int{0, 1, 2, 3, 16, 64} {
			pmf, _ := samplerPMF(lambda)
			cdf := floatCDF(pmf, 0)
			check(fmt.Sprintf("sampler %v, %d cells per point", lambda, perPoint),
				newInvCDF(pmf, 0, perPoint*len(pmf)), cdf, 0, perPoint*len(cdf))
		}
	}
}

// TestResidualDrawMatchesExact checks the binned squeeze against the
// full inversion residualExact(u, r, 0, 1, 1) on 10^7 random (u, r), and
// with u one ulp either side of, and on, the bracket edges lo·s_k and
// hi·s_k for k ≤ 3 at both ends and the middle of every bin. Every
// bracket must hold e^−r strictly, with room for rounding.
func TestResidualDrawMatchesExact(t *testing.T) {
	p := rand.NewPCG(17, 71)
	for i := 0; i < 10_000_000; i++ {
		u, r := PCGFloat64(p), PCGFloat64(p)*gridStep
		if got, want := residualDraw(u, r), residualExact(u, r, 0, 1, 1); got != want {
			t.Fatalf("u %v r %v: residual %d, exact %d", u, r, got, want)
		}
	}
	const w = gridStep / residualBinCount
	for b, bin := range residualBins {
		left, right := float64(b)*w, float64(b+1)*w
		for _, r := range []float64{left, left + w/2, math.Nextafter(right, 0)} {
			if e := math.Exp(-r); !(bin[0] < e && e < bin[1]) {
				t.Fatalf("bin %d r %v: bracket [%v, %v] misses e^-r = %v", b, r, bin[0], bin[1], e)
			}
			s, q := 1.0, 1.0
			for k := 0; k < 4; k++ {
				for _, edge := range []float64{bin[0] * s, bin[1] * s} {
					for _, u := range []float64{math.Nextafter(edge, 0), edge, math.Nextafter(edge, 2)} {
						if u < 0 || u >= 1 {
							continue
						}
						if got, want := residualDraw(u, r), residualExact(u, r, 0, 1, 1); got != want {
							t.Fatalf("bin %d r %v u %v: residual %d, exact %d", b, r, u, got, want)
						}
					}
				}
				q *= r / float64(k+1)
				s += q
			}
		}
	}
}
