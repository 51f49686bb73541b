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

// samplerOracle is the float inversion of a rail sampler at lambda.
func samplerOracle(lambda float64) floatInverse {
	cdf, lastPMF := samplerCDF(lambda)
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
	lo, below, pHi, cdf := gridCDF(mu, trim)
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
