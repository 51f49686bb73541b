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
// mode-outward PMF recurrence must not lose mass), and the guide is
// monotone with every entry a valid scan start (guide[j] ≤ answer for
// any u in cell j).
func TestTableCDFNormalized(t *testing.T) {
	for _, lambda := range tableLambdas {
		s := NewSampler(lambda)
		if s.cdf == nil {
			t.Fatalf("lambda %v: no table", lambda)
		}
		if last := s.cdf[len(s.cdf)-1]; math.Abs(last-1) > 1e-9 {
			t.Errorf("lambda %v: cdf tail %v", lambda, last)
		}
		m := len(s.guide)
		for j, g := range s.guide {
			if j > 0 && g < s.guide[j-1] {
				t.Fatalf("lambda %v: guide not monotone at %d", lambda, j)
			}
			// guide[j] must not overshoot: cdf[guide[j]-1] <= j/m, so a
			// draw u >= j/m can never have its answer below guide[j].
			if g > 0 && s.cdf[g-1] > float64(j)/float64(m)+1e-15 {
				t.Fatalf("lambda %v: guide[%d]=%d overshoots", lambda, j, g)
			}
		}
	}
	if s := NewSampler(maxTableLambda + 1); s.cdf != nil {
		t.Error("table built above maxTableLambda")
	}
	if s := NewSampler(0); s.cdf != nil {
		t.Error("table built for non-positive mean")
	}
}

// TestTableDrawInverts checks tableDraw against the definition of the
// quantile function on a grid of uniforms, including cell boundaries.
func TestTableDrawInverts(t *testing.T) {
	for _, lambda := range tableLambdas {
		s := NewSampler(lambda)
		m := len(s.guide)
		us := []float64{0, 1e-18, 0.25, 0.5, 0.75, 1 - 1e-9, 1 - 1e-16}
		for j := 0; j < m; j += m/17 + 1 {
			us = append(us, float64(j)/float64(m))
		}
		for _, u := range us {
			got := s.tableDraw(u)
			if u >= s.cdf[len(s.cdf)-1] {
				// Beyond the table the draw continues into the tail;
				// TestTailDraw covers that path — here it only must not
				// come back inside the table.
				if got < len(s.cdf)-1 {
					t.Fatalf("lambda %v u=%v: tail draw %d inside table", lambda, u, got)
				}
				continue
			}
			want := 0
			for u >= s.cdf[want] {
				want++
			}
			if got != want {
				t.Fatalf("lambda %v u=%v: got %d want %d", lambda, u, got, want)
			}
		}
	}
}

// TestTailDraw drives the continuation beyond the table edge directly:
// for u above cdf[n-1] (unreachable from real uniforms at these means,
// but the code must still be right) the result extends past the table
// and increases with u.
func TestTailDraw(t *testing.T) {
	s := NewSampler(6)
	n := len(s.cdf)
	prev := 0
	for _, eps := range []float64{1e-12, 1e-14, 1e-16} {
		u := math.Nextafter(s.cdf[n-1], 2) + eps*0 // just past the edge
		u = 1 - eps
		if u < s.cdf[n-1] {
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
// variate is the quantile tableDraw of the next PCG uniform; on the zero
// path and beyond the table (PTRS fallback) the fill matches Sampler.Sample
// over a Rand view draw for draw.
func TestBlockFillTwinsLockstep(t *testing.T) {
	lambdas := append([]float64{}, tableLambdas...)
	lambdas = append(lambdas, 0, -2, 9000) // zero path and PTRS fallback
	for _, lambda := range lambdas {
		s := NewSampler(lambda)
		pcg := rand.NewPCG(11, 22)
		twin := rand.NewPCG(11, 22)
		rng := rand.New(twin)
		got := make([]int, 4096)
		s.SampleNPCG(pcg, got)
		for i, k := range got {
			var want int
			if s.cdf != nil {
				want = s.tableDraw(PCGFloat64(twin))
			} else {
				want = s.Sample(rng)
			}
			if k != want {
				t.Fatalf("lambda %v: twins diverge at %d: %d vs %d", lambda, i, k, want)
			}
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
			dst[i] = t.draw(PCGFloat64(p))
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
