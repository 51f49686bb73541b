package photon

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"unsafe"

	"smartvlc/internal/optics"
)

// gridTableBytes is a table's heap footprint: the struct plus the
// integer CDF and the guide cells.
func gridTableBytes(t *gridTable) int {
	return int(unsafe.Sizeof(*t)) + 8*cap(t.tab.icdf) + 2*cap(t.tab.cells)
}

// quantile is the exact inverse CDF of Pois(mu) at u by summation from
// zero in log space: the smallest k with u < P(X ≤ k).
func quantile(mu, u float64) int {
	c := 0.0
	for k := 0; ; k++ {
		c += PMF(mu, k)
		if u < c || k > int(mu)+1000 {
			return k
		}
	}
}

// TestGridTableInverts checks the table draw, including both trimmed
// tails, against the exact quantile function. The hard trim puts the
// table edges within a few standard deviations of the mean so the
// uniforms below sweep the tail walks on both sides. Each uniform is
// rounded down to the 53-bit grid the draws take.
func TestGridTableInverts(t *testing.T) {
	us := []float64{0, 1e-300, 1e-17, 1e-12, 1e-6, 0.01, 0.2, 0.5, 0.77, 0.99, 1 - 1e-6, 1 - 1e-12}
	for _, mu := range []float64{1, 2, 7, 30, 255} {
		for _, trim := range []float64{gridTrim, 0.02} {
			tab := newGridTable(mu, trim)
			for _, u := range us {
				x := uint64(u * (1 << 53))
				if got, want := tab.draw(x), quantile(mu, float64(x)/(1<<53)); got != want {
					t.Errorf("mu %v trim %v u %v: draw %d, quantile %d", mu, trim, u, got, want)
				}
			}
		}
	}
}

// TestResidualDrawInverts checks the squeezed residual inversion against
// the exact quantile function on a grid of residual means. The uniforms
// sit just either side of the first CDF values (a relative 1e-9 away, far
// beyond float rounding) and, where the Taylor bracket around a CDF value
// is wider than rounding, in the middle of it — where the squeeze must
// hand over to exp.
func TestResidualDrawInverts(t *testing.T) {
	for _, r := range []float64{1e-300, 1e-9, 0.013, 0.25, 0.5, 0.73, math.Nextafter(gridStep, 0)} {
		us := []float64{0, 0.3, 0.9, 0.999, 1 - 1e-12}
		s, p := 1.0, 1.0
		for k := 0; k < 4; k++ {
			c := math.Exp(-r) * s // P(X ≤ k)
			us = append(us, c*(1-1e-9), c*(1+1e-9))
			if half := r * r * r * r * r * r / 1440 * s; half > 1e-12 {
				us = append(us, c-half, c+half/2)
			}
			p *= r / float64(k+1)
			s += p
		}
		for _, u := range us {
			if u < 0 || u >= 1 {
				continue
			}
			if got, want := residualDraw(u, r), quantile(r, u); got != want {
				t.Errorf("r %v u %v: residual %d, quantile %d", r, u, got, want)
			}
		}
	}
}

// TestGridConcurrentFirstUse has several goroutines take first use of
// the same empty grid cells at once: each draws the same seeded sequence
// across the cells, and all must agree with each other and with a
// sequential rerun over the built cells. Run under -race it also checks
// the lazy fill publishes tables safely.
func TestGridConcurrentFirstUse(t *testing.T) {
	const workers, draws = 6, 4000
	lambdas := make([]float64, draws)
	r := rand.New(rand.NewPCG(5, 5))
	for i := range lambdas {
		lambdas[i] = 10 + 40*r.Float64()
	}
	for g := 10; g <= 50; g++ {
		grid[g].Store(nil)
	}
	run := func() []int {
		p := rand.NewPCG(9, 9)
		out := make([]int, draws)
		for i, l := range lambdas {
			out[i] = SampleGridPCG(p, l)
		}
		return out
	}
	results := make([][]int, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[w] = run()
		}()
	}
	close(start)
	wg.Wait()
	want := run()
	for w, got := range results {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("worker %d draw %d: %d, sequential rerun %d", w, i, got[i], want[i])
			}
		}
	}
}

// TestGridMemoryBound pins the grid's footprint: the cells between the
// two rail means of a quarter-slot window at Fig. 15's operating point
// (3 m, 8000 lux) stay under 64 KB, and the whole grid under 1 MB with
// every cell built.
func TestGridMemoryBound(t *testing.T) {
	ch, err := DefaultLinkBudget().ChannelAt(optics.Aligned(3, 0), 8000)
	if err != nil {
		t.Fatal(err)
	}
	fig15 := 0
	for g := int(ch.MeanFor(0, 0.25) / gridStep); g <= int(ch.MeanFor(1, 0.25)/gridStep); g++ {
		fig15 += gridTableBytes(newGridTable(float64(g)*gridStep, gridTrim))
	}
	if fig15 >= 64<<10 {
		t.Errorf("Fig. 15 cells take %d B, want < 64 KB", fig15)
	}
	all := 0
	for g := 1; g < len(grid); g++ {
		all += gridTableBytes(newGridTable(float64(g)*gridStep, gridTrim))
	}
	if all >= 1<<20 {
		t.Errorf("full grid takes %d B, want < 1 MB", all)
	}
	t.Logf("Fig. 15 cells %d B, full grid %d B", fig15, all)
}
