package photon

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
)

// TestSamplerMatchesSample locks the Sampler fast path to the reference
// Sample: for any mean, both must consume the rng identically and return
// bit-identical variate sequences. This is what lets the transmitter's
// settled-slot fast path swap one in without perturbing a seeded session.
func TestSamplerMatchesSample(t *testing.T) {
	lambdas := []float64{0, -3, 0.05, 0.7, 3.2, 9.999, 10, 25.5, 120, 4096.25, 85000}
	const draws = 2000
	for _, lambda := range lambdas {
		s := NewSampler(lambda)
		if s.Lambda() != lambda {
			t.Fatalf("Lambda() = %v, want %v", s.Lambda(), lambda)
		}
		rngA := rand.New(rand.NewPCG(42, 7))
		rngB := rand.New(rand.NewPCG(42, 7))
		for i := 0; i < draws; i++ {
			want := Sample(rngA, lambda)
			got := s.Sample(rngB)
			if got != want {
				t.Fatalf("lambda=%v draw %d: Sampler=%d Sample=%d", lambda, i, got, want)
			}
		}
		// The rng streams must stay in lockstep too.
		if a, b := rngA.Uint64(), rngB.Uint64(); a != b {
			t.Fatalf("lambda=%v: rng streams diverged (%d vs %d)", lambda, a, b)
		}
	}
}

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

// TestSamplerLogFactFallback exercises candidates beyond the precomputed
// log-factorial table (tiny table via a mean just over the PTRS cutoff,
// forced far tail through many draws).
func TestSamplerLogFactFallback(t *testing.T) {
	const lambda = 10.0
	s := NewSampler(lambda)
	rngA := rand.New(rand.NewPCG(9, 9))
	rngB := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 50000; i++ {
		if got, want := s.Sample(rngB), Sample(rngA, lambda); got != want {
			t.Fatalf("draw %d: Sampler=%d Sample=%d", i, got, want)
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
