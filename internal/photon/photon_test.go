package photon

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"smartvlc/internal/optics"
)

func TestPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 17, 50, 200} {
		sum := 0.0
		for k := 0; float64(k) < lambda+40*math.Sqrt(lambda)+20; k++ {
			sum += PMF(lambda, k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("lambda %v: PMF sums to %v", lambda, sum)
		}
	}
}

func TestTailIdentities(t *testing.T) {
	f := func(lRaw, kRaw uint16) bool {
		lambda := float64(lRaw)/65535*300 + 0.01
		k := int(kRaw) % 400
		ge := TailGE(lambda, k)
		lt := CDFLT(lambda, k)
		if math.Abs(ge+lt-1) > 1e-9 {
			return false
		}
		return ge >= 0 && ge <= 1 && lt >= 0 && lt <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTailKnownValues(t *testing.T) {
	// P(Pois(1) >= 1) = 1 - e^-1.
	if got := TailGE(1, 1); math.Abs(got-(1-math.Exp(-1))) > 1e-12 {
		t.Fatalf("TailGE(1,1) = %v", got)
	}
	// P(Pois(50) >= 77) ~ 2.6e-4 region, computed independently: compare
	// against direct summation of PMF.
	direct := 0.0
	for k := 77; k < 300; k++ {
		direct += PMF(50, k)
	}
	if got := TailGE(50, 77); math.Abs(got-direct) > 1e-12 {
		t.Fatalf("TailGE(50,77) = %v want %v", got, direct)
	}
	if TailGE(5, 0) != 1 || CDFLT(5, 0) != 0 {
		t.Fatal("boundary k=0 wrong")
	}
	if TailGE(0, 3) != 0 || CDFLT(0, 3) != 1 {
		t.Fatal("lambda=0 wrong")
	}
}

func TestSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	for _, lambda := range []float64{0.3, 4, 9.9, 10.1, 35, 120, 900} {
		n := 200000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := float64(Sample(rng, lambda))
			sum += x
			sumSq += x * x
		}
		mean := sum / float64(n)
		variance := sumSq/float64(n) - mean*mean
		se := math.Sqrt(lambda / float64(n))
		if math.Abs(mean-lambda) > 5*se {
			t.Errorf("lambda %v: mean %v", lambda, mean)
		}
		if math.Abs(variance-lambda) > 0.05*lambda+5*se {
			t.Errorf("lambda %v: variance %v", lambda, variance)
		}
	}
}

func TestSampleTailFrequencyMatchesExact(t *testing.T) {
	// The tail fidelity is what drives simulated P1/P2, so check the
	// sampler reproduces a ~1e-3 tail within sampling error.
	rng := rand.New(rand.NewPCG(7, 7))
	const lambda = 50.0
	k := 73 // P(X >= 73) ≈ 1.25e-3
	want := TailGE(lambda, k)
	n := 2_000_000
	hits := 0
	for i := 0; i < n; i++ {
		if Sample(rng, lambda) >= k {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	sigma := math.Sqrt(want * (1 - want) / float64(n))
	if math.Abs(got-want) > 5*sigma {
		t.Fatalf("tail freq %v want %v (±%v)", got, want, sigma)
	}
}

func TestSampleZeroLambda(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	if Sample(rng, 0) != 0 || Sample(rng, -3) != 0 {
		t.Fatal("non-positive lambda should sample 0")
	}
}

func TestOptimalThresholdSeparates(t *testing.T) {
	c := Channel{SignalPerSlot: 62, AmbientPerSlot: 50}
	k := c.OptimalThreshold()
	if k <= 50 || k >= 112 {
		t.Fatalf("threshold %d outside (50, 112)", k)
	}
	p1, p2 := c.ErrorProbs(k)
	if p1 > 5e-4 || p2 > 5e-4 {
		t.Fatalf("error probs %v %v too high", p1, p2)
	}
}

// TestCalibrationMatchesPaper verifies the headline calibration: at the
// paper's worst case (3.6 m, bright ambient ≈ 9700 lux) the slot error
// probabilities are within a factor ~3 of the measured P1 = 9e-5,
// P2 = 8e-5. The Poisson model cannot hit both exactly with one threshold,
// but the order of magnitude is the behaviour that matters.
func TestCalibrationMatchesPaper(t *testing.T) {
	b := DefaultLinkBudget()
	full, err := b.ChannelAt(optics.Aligned(3.6, 0), 9700)
	if err != nil {
		t.Fatal(err)
	}
	// The receiver integrates 3 of 4 samples, so the calibration target
	// lives at the 0.75-scaled window: ≈66 signal and ≈45 ambient counts.
	ch := full.Scaled(0.75)
	if math.Abs(ch.SignalPerSlot-66) > 5 {
		t.Fatalf("window signal at 3.6 m = %v, calibration target 66", ch.SignalPerSlot)
	}
	if math.Abs(ch.AmbientPerSlot-45) > 5 {
		t.Fatalf("window ambient = %v, calibration target 45", ch.AmbientPerSlot)
	}
	k := ch.OptimalThreshold()
	p1, p2 := ch.ErrorProbs(k)
	if p1 < 3e-5 || p1 > 3e-4 {
		t.Fatalf("P1 = %v, want order 9e-5", p1)
	}
	if p2 < 2e-5 || p2 > 3e-4 {
		t.Fatalf("P2 = %v, want order 8e-5", p2)
	}
}

func TestChannelDegradesWithDistance(t *testing.T) {
	b := DefaultLinkBudget()
	prevSig := math.Inf(1)
	for _, d := range []float64{1, 2, 3, 3.6, 4.2, 5} {
		ch, err := b.ChannelAt(optics.Aligned(d, 0), 5000)
		if err != nil {
			t.Fatal(err)
		}
		if ch.SignalPerSlot >= prevSig {
			t.Fatalf("signal not decreasing at %v m", d)
		}
		prevSig = ch.SignalPerSlot
	}
	// Beyond the cliff the slot error rate must be catastrophic at frame
	// scale: a 1000-slot frame with p1+p2 > 0.02 has essentially zero
	// chance of surviving the CRC.
	farFull, _ := b.ChannelAt(optics.Aligned(5, 0), 9700)
	far := farFull.Scaled(0.75)
	p1, p2 := far.ErrorProbs(far.OptimalThreshold())
	if p1+p2 < 0.02 {
		t.Fatalf("5 m link should be broken, p1+p2 = %v", p1+p2)
	}
}

func TestChannelAtValidation(t *testing.T) {
	b := DefaultLinkBudget()
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		what string
		g    optics.Geometry
		lux  float64
	}{
		{"zero distance", optics.Geometry{}, 100},
		{"negative lux", optics.Aligned(1, 0), -5},
		{"NaN distance", optics.Aligned(nan, 0), 100},
		{"Inf distance", optics.Aligned(inf, 0), 100},
		{"NaN angle", optics.Aligned(1, nan), 100},
		{"Inf angle", optics.Aligned(1, -inf), 100},
		{"NaN lux", optics.Aligned(1, 0), nan},
		{"Inf lux", optics.Aligned(1, 0), inf},
		{"1e300 lux", optics.Aligned(1, 0), 1e300},
		{"signal past the ceiling", optics.Aligned(1e-6, 0), 100},
	} {
		if ch, err := b.ChannelAt(c.g, c.lux); err == nil {
			t.Errorf("%s accepted: %+v", c.what, ch)
		}
	}
	// The 1 mm link is hostile but physical: about 1e9 signal counts.
	ch, err := b.ChannelAt(optics.Aligned(1e-3, 0), 100)
	if err != nil || ch.SignalPerSlot < 1e8 || ch.SignalPerSlot > MaxMeanPerSlot {
		t.Fatalf("1 mm link: %+v, %v", ch, err)
	}
}

func TestMeanForTransitions(t *testing.T) {
	c := Channel{SignalPerSlot: 100, AmbientPerSlot: 10}
	if got := c.MeanFor(1, 1); got != 110 {
		t.Fatalf("full ON slot mean %v", got)
	}
	if got := c.MeanFor(0, 1); got != 10 {
		t.Fatalf("OFF slot mean %v", got)
	}
	if got := c.MeanFor(0.5, 0.25); math.Abs(got-15) > 1e-12 {
		t.Fatalf("quarter window half intensity mean %v", got)
	}
}

func BenchmarkSampleSmallLambda(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < b.N; i++ {
		Sample(rng, 3.5)
	}
}

func BenchmarkSampleLargeLambda(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < b.N; i++ {
		Sample(rng, 120)
	}
}
