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
