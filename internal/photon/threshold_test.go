package photon

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"smartvlc/internal/optics"
)

// optimalThresholdScan is the reference for OptimalThreshold: the scan
// of every k in [⌊A⌋, ⌊A+S⌋+2] it replaced, keeping the first strict
// minimum of P1 + P2 (the range's top when no sum is finite).
func optimalThresholdScan(c Channel) int {
	lo := int(c.AmbientPerSlot)
	hi := int(c.AmbientPerSlot+c.SignalPerSlot) + 2
	bestK, bestErr := hi, math.Inf(1)
	for k := lo; k <= hi; k++ {
		p1, p2 := c.ErrorProbs(k)
		if e := p1 + p2; e < bestErr {
			bestK, bestErr = k, e
		}
	}
	return bestK
}

// logUniform draws from [lo, hi] uniformly in log scale.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, rng.Float64())
}

// TestOptimalThresholdMatchesScan checks the bracketed search against
// the scan on 100k random channels in five families: log-uniform means,
// signals far below one count, zero signal, integer means (where the
// range ends and the PMF crossing fall on integers) and the receiver's
// detection window over distances of 1 to 8 m and 0 to 100k lux.
func TestOptimalThresholdMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 33))
	budget := DefaultLinkBudget()
	families := []struct {
		name string
		n    int
		draw func() Channel
	}{
		{"log-uniform", 40_000, func() Channel {
			return Channel{SignalPerSlot: logUniform(rng, 1e-3, 1e3), AmbientPerSlot: logUniform(rng, 1e-3, 2e3)}
		}},
		{"tiny signal", 20_000, func() Channel {
			return Channel{SignalPerSlot: logUniform(rng, 1e-300, 1e-3), AmbientPerSlot: logUniform(rng, 1e-3, 2e3)}
		}},
		{"zero signal", 10_000, func() Channel {
			a := logUniform(rng, 1e-3, 2e3)
			if rng.IntN(10) == 0 {
				a = 0
			}
			return Channel{AmbientPerSlot: a}
		}},
		{"integer means", 25_000, func() Channel {
			c := Channel{SignalPerSlot: float64(rng.IntN(250)), AmbientPerSlot: float64(rng.IntN(250))}
			if rng.IntN(10) == 0 {
				c.AmbientPerSlot = 0
			}
			return c
		}},
		{"detection window", 5_000, func() Channel {
			ch, err := budget.ChannelAt(optics.Aligned(1+7*rng.Float64(), 0), 1e5*rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			return ch.Scaled(0.75)
		}},
	}
	for _, f := range families {
		for i := 0; i < f.n; i++ {
			c := f.draw()
			if got, want := c.OptimalThreshold(), optimalThresholdScan(c); got != want {
				t.Fatalf("%s channel %d (%+v): search %d, scan %d", f.name, i, c, got, want)
			}
		}
	}
}

// TestOptimalThresholdHostileSignals runs the search at signals from
// 1e3 counts per slot up to MaxMeanPerSlot, where the scan would visit
// up to 1e12 thresholds. Each answer must be a strict local minimum on
// its left and no worse than its right neighbour, and all of them
// together must take well under a second.
func TestOptimalThresholdHostileSignals(t *testing.T) {
	start := time.Now()
	for s := 1e3; s <= MaxMeanPerSlot; s *= 3 {
		for _, a := range []float64{0.05, 45, 600} {
			c := Channel{SignalPerSlot: s, AmbientPerSlot: a}
			k := c.OptimalThreshold()
			e := func(k int) float64 { p1, p2 := c.ErrorProbs(k); return p1 + p2 }
			if k < int(a) || k > int(a+s)+2 || (k > int(a) && !(e(k-1) > e(k))) || e(k+1) < e(k) {
				t.Fatalf("%+v: threshold %d, e(k−1..k+1) = %v %v %v", c, k, e(k-1), e(k), e(k+1))
			}
		}
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("searches at hostile signals took %v", d)
	}
}

// FuzzOptimalThreshold checks the search against the scan on bounded
// finite channels: both means folded into [0, 3000).
func FuzzOptimalThreshold(f *testing.F) {
	for _, seed := range [][2]float64{{95, 36.9}, {0, 0}, {5, 0}, {0, 5}, {1e-300, 1e-300}, {1, 2999}, {2999, 1}, {66, 45}} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, s, a float64) {
		s, a = math.Mod(math.Abs(s), 3000), math.Mod(math.Abs(a), 3000)
		if math.IsNaN(s) || math.IsNaN(a) {
			t.Skip()
		}
		c := Channel{SignalPerSlot: s, AmbientPerSlot: a}
		if got, want := c.OptimalThreshold(), optimalThresholdScan(c); got != want {
			t.Fatalf("%+v: search %d, scan %d", c, got, want)
		}
	})
}

// BenchmarkOptimalThreshold times the search at the receiver's
// detection window for Fig. 15's operating point (3 m, 8000 lux), at
// the edge of range (5 m, 9700 lux), and 5 mm from the LED.
func BenchmarkOptimalThreshold(b *testing.B) {
	for _, op := range []struct{ d, lux float64 }{{3, 8000}, {5, 9700}, {0.005, 8000}} {
		ch, err := DefaultLinkBudget().ChannelAt(optics.Aligned(op.d, 0), op.lux)
		if err != nil {
			b.Fatal(err)
		}
		w := ch.Scaled(0.75)
		b.Run(fmt.Sprintf("%gm", op.d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.OptimalThreshold()
			}
		})
	}
}

// BenchmarkNewSampler times building a rail sampler: the OFF and ON
// rails of Fig. 15's operating point (inverse-CDF tables), the first
// PTRS mean and the ON rail 5 mm from the LED (a capped acceptance
// window).
func BenchmarkNewSampler(b *testing.B) {
	for _, lambda := range []float64{12.3, 44.1, maxTableLambda + 0.5, 2.7e6} {
		b.Run(fmt.Sprint(lambda), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewSampler(lambda)
			}
		})
	}
}
