package photon

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
)

// TestSamplerForShares checks the memo returns one shared instance per mean.
func TestSamplerForShares(t *testing.T) {
	a := SamplerFor(37.25)
	b := SamplerFor(37.25)
	if a != b {
		t.Fatal("SamplerFor returned distinct instances for the same mean")
	}
	if c := SamplerFor(37.5); c == a {
		t.Fatal("SamplerFor conflated distinct means")
	}
}

// TestSamplerLogFactFallback covers the PTRS fallback outside its
// acceptance window, where the bound is recomputed by acceptAt: below
// the window, and above it with ln k! beyond the log-factorial table. At
// a mean just above maxTableLambda, and at one whose window is capped at
// maxAcceptLen, it finds the first seeds whose opening candidate lands
// on either side of the window and survives the squeeze rejection, and
// checks the block fill against SamplePCG over a twin generator for that
// draw and the ones after.
func TestSamplerLogFactFallback(t *testing.T) {
	for _, lambda := range []float64{maxTableLambda + 0.5, 3e7} {
		s := NewSampler(lambda)
		end := s.acceptLo + len(s.accept)
		switch {
		case len(s.accept) == 0 || len(s.accept) > maxAcceptLen:
			t.Fatalf("lambda %v: accept window of %d entries", lambda, len(s.accept))
		case s.acceptLo <= 0 || float64(s.acceptLo) > lambda || float64(end) < lambda:
			t.Fatalf("lambda %v: accept window [%d, %d) misses the mean or starts at zero", lambda, s.acceptLo, end)
		case end <= lnFactTableN:
			t.Fatalf("lambda %v: accept window ends at %d, inside the ln k! table", lambda, end)
		}
		for _, side := range []string{"below", "above"} {
			seed := uint64(0)
			for ; ; seed++ {
				p := rand.NewPCG(seed, 1)
				u := PCGFloat64(p) - 0.5
				v := PCGFloat64(p)
				us := 0.5 - math.Abs(u)
				kf := math.Floor((2*s.a/us+s.b)*u + lambda + 0.43)
				if (us >= 0.07 && v <= s.vr) || kf < 0 || (us < 0.013 && v > us) {
					continue
				}
				if (side == "below" && kf < float64(s.acceptLo)) || (side == "above" && kf >= float64(end)) {
					break
				}
			}
			pcg, twin := rand.NewPCG(seed, 1), rand.NewPCG(seed, 1)
			got := make([]int, 64)
			s.SampleNPCG(pcg, got)
			for i, k := range got {
				if want := SamplePCG(twin, lambda); k != want {
					t.Fatalf("lambda %v, candidate %s the window, seed %d draw %d: SampleNPCG %d, SamplePCG %d", lambda, side, seed, i, k, want)
				}
			}
			if a, b := pcg.Uint64(), twin.Uint64(); a != b {
				t.Fatalf("lambda %v, candidate %s the window, seed %d: streams diverged (%d vs %d)", lambda, side, seed, a, b)
			}
		}
	}
}

// samplerCacheLen reads the cache size under its lock.
func samplerCacheLen() int {
	samplerCacheMu.RLock()
	defer samplerCacheMu.RUnlock()
	return len(samplerCache)
}

// TestSamplerForBounded drives more distinct means through the cache
// than it holds: the map never exceeds its cap, and a sampler handed out
// before the clears still draws exactly what a fresh sampler for its
// mean draws.
func TestSamplerForBounded(t *testing.T) {
	early := SamplerFor(12.3125)
	for i := 0; i < 3*samplerCacheMax; i++ {
		SamplerFor(20 + float64(i)/8)
		if n := samplerCacheLen(); n > samplerCacheMax {
			t.Fatalf("after %d inserts the cache holds %d samplers, cap %d", i+1, n, samplerCacheMax)
		}
	}
	got := make([]int, 512)
	want := make([]int, 512)
	early.SampleNPCG(rand.NewPCG(4, 4), got)
	NewSampler(12.3125).SampleNPCG(rand.NewPCG(4, 4), want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sampler from before the clears: draw %d is %d, fresh sampler %d", i, got[i], want[i])
		}
	}
}

// TestSamplerForConcurrentClears has goroutines look up overlapping
// streams of means, enough to clear the cache many times over; every
// lookup must return a sampler for the mean asked. Run under -race it
// checks the clear against concurrent readers.
func TestSamplerForConcurrentClears(t *testing.T) {
	const workers, lookups = 4, 2000
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < lookups; i++ {
				lambda := 20 + float64((i*7+w*13)%(2*samplerCacheMax))/8
				if s := SamplerFor(lambda); s.Lambda() != lambda {
					errs <- fmt.Sprintf("asked %v, got a sampler for %v", lambda, s.Lambda())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := samplerCacheLen(); n > samplerCacheMax {
		t.Errorf("cache holds %d samplers, cap %d", n, samplerCacheMax)
	}
}

// TestSamplerMaxCount pins the bound behind the transmitter's
// conditional rail clamp: over rail means from 0.05 to 4096 (log-spaced,
// plus integers), no draw exceeds MaxCount — not the draw of the largest
// integer, which attains it, nor those on both sides of the last table
// entry, nor a block of random draws. Non-positive means report 0 and
// means drawn by PTRS report no bound. The pinned stops are Fig. 15's
// nominal ON rail (44.1, whose float CDF reaches 1 inside the table, so
// no uniform reaches the tail walk) and three means whose tail walks end
// where the point mass falls below 1e-320.
func TestSamplerMaxCount(t *testing.T) {
	var lambdas []float64
	for i := 0; i < 100; i++ {
		lambdas = append(lambdas, 0.05*math.Pow(4096/0.05, float64(i)/99))
	}
	for k := 1; k <= maxTableLambda; k += 1 + k/4 {
		lambdas = append(lambdas, float64(k))
	}
	lambdas = append(lambdas, maxTableLambda)
	block := make([]int, 4096)
	for _, lambda := range lambdas {
		s := NewSampler(lambda)
		bound := s.MaxCount()
		if got := s.tableDraw(1<<53 - 1); got != bound {
			t.Fatalf("lambda %v: the largest integer draws %d, bound %d", lambda, got, bound)
		}
		n := len(s.tab.icdf)
		for _, x := range []uint64{s.tab.icdf[n-1] - 1, s.tab.icdf[n-1]} {
			if x < 1<<53 {
				if k := s.tableDraw(x); k > bound {
					t.Fatalf("lambda %v: x = %d draws %d past the bound %d", lambda, x, k, bound)
				}
			}
		}
		s.SampleNPCG(rand.NewPCG(uint64(lambda*64), 9), block)
		for _, k := range block {
			if k < 0 || k > bound {
				t.Fatalf("lambda %v: drew %d outside [0, %d]", lambda, k, bound)
			}
		}
	}
	for lambda, want := range map[float64]int{44.1: 106, 1000: 2435, 2000: 3941, 4096: 6778} {
		if got := NewSampler(lambda).MaxCount(); got != want {
			t.Errorf("lambda %v: bound %d, want %d", lambda, got, want)
		}
	}
	for _, lambda := range []float64{0, -3} {
		if got := NewSampler(lambda).MaxCount(); got != 0 {
			t.Errorf("lambda %v: bound %d, want 0", lambda, got)
		}
	}
	for _, lambda := range []float64{maxTableLambda + 0.5, 3e7} {
		if got := NewSampler(lambda).MaxCount(); got != math.MaxInt {
			t.Errorf("lambda %v (PTRS): bound %d, want none", lambda, got)
		}
	}
}
