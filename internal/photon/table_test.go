package photon

import (
	"math"
	"math/rand/v2"
	"testing"
)

// tableLambdas spans the tabled range: sub-unity means (dark air),
// Knuth-range means, the PTRS threshold, realistic RX signal means, and
// the table ceiling.
var tableLambdas = []float64{0.05, 0.5, 3, 9.9, 10, 47.3, 800, 4096}

// TestTableCDFNormalized pins the construction invariants of the
// inverse-CDF table: the CDF reaches 1 within float rounding (the
// mode-outward PMF recurrence must not lose mass), the guide's scan
// starts are monotone and never past the answer of their cell's lowest
// x, and a determined cell inverts its whole range to its answer. Only
// means above the table get PTRS constants.
func TestTableCDFNormalized(t *testing.T) {
	for _, lambda := range tableLambdas {
		s := NewSampler(lambda)
		tab := &s.tab
		if tab.icdf == nil || s.accept != nil {
			t.Fatalf("lambda %v: table %v, accept table %v", lambda, tab.icdf != nil, s.accept != nil)
		}
		if last := float64(tab.icdf[len(tab.icdf)-1]) / (1 << 53); math.Abs(last-1) > 1e-9 {
			t.Errorf("lambda %v: cdf tail %v", lambda, last)
		}
		prev := 0
		for j, c := range tab.cells {
			i := int(c >> 1)
			if i < prev {
				t.Fatalf("lambda %v: guide not monotone at %d", lambda, j)
			}
			prev = i
			lo := uint64(j) << tab.shift
			if i > 0 && tab.icdf[i-1] > lo {
				t.Fatalf("lambda %v: cell %d starts at %d, past its answer", lambda, j, i)
			}
			if hi := lo | (1<<tab.shift - 1); c&1 == 0 && hi >= tab.icdf[i] {
				t.Fatalf("lambda %v: determined cell %d does not invert to %d throughout", lambda, j, i)
			}
		}
	}
	if s := NewSampler(maxTableLambda + 1); s.tab.icdf != nil || s.accept == nil {
		t.Error("table built, or PTRS constants missing, above maxTableLambda")
	}
	if s := NewSampler(0); s.tab.icdf != nil || s.accept != nil {
		t.Error("table built for non-positive mean")
	}
}

// TestTableDrawInverts checks tableDraw against the definition of the
// quantile function on a grid of uniforms' integers, including cell
// boundaries.
func TestTableDrawInverts(t *testing.T) {
	for _, lambda := range tableLambdas {
		s := NewSampler(lambda)
		icdf := s.tab.icdf
		m := len(s.tab.cells)
		xs := []uint64{0, 1, 1 << 51, 1 << 52, 3 << 51, 1<<53 - 1<<20, 1<<53 - 2}
		for j := 0; j < m; j += m/17 + 1 {
			xs = append(xs, uint64(j)<<s.tab.shift)
		}
		for _, x := range xs {
			got := s.tableDraw(x)
			if x >= icdf[len(icdf)-1] {
				// Beyond the table the draw continues into the tail;
				// TestTailDraw covers that path — here it only must not
				// come back inside the table.
				if got < len(icdf)-1 {
					t.Fatalf("lambda %v x=%d: tail draw %d inside table", lambda, x, got)
				}
				continue
			}
			want := 0
			for x >= icdf[want] {
				want++
			}
			if got != want {
				t.Fatalf("lambda %v x=%d: got %d want %d", lambda, x, got, want)
			}
		}
	}
}

// TestTailDraw drives the continuation beyond the table edge directly:
// for u above the last CDF entry (unreachable from real uniforms at
// these means, but the code must still be right) the result extends
// past the table and increases with u.
func TestTailDraw(t *testing.T) {
	s := NewSampler(6)
	n := len(s.tab.icdf)
	prev := 0
	for _, eps := range []float64{1e-12, 1e-14, 1e-16} {
		u := 1 - eps
		if u < s.tab.cHi {
			continue
		}
		k := s.tailDraw(u)
		if k < n-1 {
			t.Fatalf("tail draw %d before table edge %d", k, n-1)
		}
		if k < prev {
			t.Fatalf("tail draw not monotone: %d after %d", k, prev)
		}
		prev = k
	}
}

// TestBlockFillTwinsLockstep pins the block fill SampleNPCG to its
// scalar twins over identically seeded generators: on tabled means each
// variate is the quantile tableDraw of the next PCG integer; on the zero
// path and beyond the table (PTRS fallback) the fill matches SamplePCG
// draw for draw.
func TestBlockFillTwinsLockstep(t *testing.T) {
	lambdas := append([]float64{}, tableLambdas...)
	lambdas = append(lambdas, 0, -2, 9000) // zero path and PTRS fallback
	for _, lambda := range lambdas {
		s := NewSampler(lambda)
		pcg := rand.NewPCG(11, 22)
		twin := rand.NewPCG(11, 22)
		got := make([]int, 4096)
		s.SampleNPCG(pcg, got)
		for i, k := range got {
			var want int
			if s.tab.icdf != nil {
				want = s.tableDraw(twin.Uint64() << 11 >> 11)
			} else {
				want = SamplePCG(twin, lambda)
			}
			if k != want {
				t.Fatalf("lambda %v: twins diverge at %d: %d vs %d", lambda, i, k, want)
			}
		}
		if a, b := pcg.Uint64(), twin.Uint64(); a != b {
			t.Fatalf("lambda %v: streams diverged (%d vs %d)", lambda, a, b)
		}
	}
}

// distCase is one sampler under TestTableDistribution: the mean it must
// reproduce and a fill drawing from a PCG stream.
type distCase struct {
	name   string
	lambda float64
	fill   func(p *rand.PCG, dst []int)
}

// blockFill is the settled-run block fill at a mean.
func blockFill(lambda float64) distCase {
	return distCase{"block", lambda, NewSampler(lambda).SampleNPCG}
}

// gridFill is the transition-window grid draw at a mean.
func gridFill(lambda float64) distCase {
	return distCase{"grid", lambda, func(p *rand.PCG, dst []int) {
		for i := range dst {
			dst[i] = SampleGridPCG(p, lambda)
		}
	}}
}

// trimmedFill draws from a grid table trimmed to the points of mass at
// least trim, so that a sizable share of draws continues into the exact
// tail walks on both sides.
func trimmedFill(mu, trim float64) distCase {
	t := newGridTable(mu, trim)
	return distCase{"trimmed-table", mu, func(p *rand.PCG, dst []int) {
		for i := range dst {
			dst[i] = t.draw(p.Uint64() << 11 >> 11)
		}
	}}
}

// TestTableDistribution checks the table-driven samplers actually sample
// the Poisson law: empirical mean and variance within sampling error, and
// a chi-squared statistic against the exact PMF below a generous critical
// value. This is the safety net for the stream-changing draws — the
// decode-level equivalence tests upstream assume the distribution is
// exact. The grid cases cover means on and just off a cell boundary,
// residual-only means below one cell step (including λ < 1), the largest
// cell, means at and above the cap (the SamplePCG fallback) and a table
// whose tails are walked on a sizable share of draws.
func TestTableDistribution(t *testing.T) {
	const n = 200000
	dst := make([]int, n)
	cases := []distCase{
		blockFill(0.5), blockFill(3), blockFill(20), blockFill(150), blockFill(1200),
		gridFill(17), gridFill(math.Nextafter(17, 18)), gridFill(math.Nextafter(17, 0)),
		gridFill(0.05), gridFill(0.37), gridFill(math.Nextafter(gridStep, 0)),
		gridFill(23.6), gridFill(44.02), gridFill(gridCap - 0.5), gridFill(gridCap), gridFill(300),
		trimmedFill(20, 0.01), trimmedFill(3, 0.05),
	}
	for _, c := range cases {
		lambda := c.lambda
		c.fill(rand.NewPCG(7, uint64(lambda*1000)), dst)
		var sum, sq float64
		counts := map[int]int{}
		for _, k := range dst {
			sum += float64(k)
			sq += float64(k) * float64(k)
			counts[k]++
		}
		mean := sum / n
		varc := sq/n - mean*mean
		se := math.Sqrt(lambda / n)
		if math.Abs(mean-lambda) > 5*se {
			t.Errorf("%s lambda %v: mean %v off by more than 5 SE (%v)", c.name, lambda, mean, se)
		}
		if math.Abs(varc-lambda)/lambda > 0.05 {
			t.Errorf("%s lambda %v: variance %v vs %v", c.name, lambda, varc, lambda)
		}
		// Chi-squared over bins with expected count >= 10, pooling the
		// tails; dof ≈ bins-1, critical value taken loosely at dof+5√(2·dof).
		var chi2 float64
		bins := 0
		pooledObs, pooledExp := 0.0, 0.0
		lo := int(lambda - 6*math.Sqrt(lambda))
		hi := int(lambda + 6*math.Sqrt(lambda) + 8)
		if lo < 0 {
			lo = 0
		}
		for k := lo; k <= hi; k++ {
			exp := PMF(lambda, k) * n
			obs := float64(counts[k])
			if exp < 10 {
				pooledObs += obs
				pooledExp += exp
				continue
			}
			chi2 += (obs - exp) * (obs - exp) / exp
			bins++
		}
		if pooledExp > 10 {
			chi2 += (pooledObs - pooledExp) * (pooledObs - pooledExp) / pooledExp
			bins++
		}
		dof := float64(bins - 1)
		crit := dof + 5*math.Sqrt(2*dof)
		if chi2 > crit {
			t.Errorf("%s lambda %v: chi2 %v > %v (dof %v)", c.name, lambda, chi2, crit, dof)
		}
	}
}
