package phy

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"smartvlc/internal/amppm"
	"smartvlc/internal/frame"
	"smartvlc/internal/optics"
	"smartvlc/internal/photon"
	"smartvlc/internal/scheme"
)

func channelAt(t testing.TB, d float64, lux float64) photon.Channel {
	t.Helper()
	ch, err := photon.DefaultLinkBudget().ChannelAt(optics.Aligned(d, 0), lux)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func amppmScheme(t testing.TB) *scheme.AMPPM {
	t.Helper()
	s, err := scheme.NewAMPPM(amppm.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTransmitSampleCount(t *testing.T) {
	l := DefaultLink(channelAt(t, 3, 5000))
	slots := make([]bool, 100)
	samples := l.TransmitPCG(rand.NewPCG(1, 2), slots)
	// 4 samples per slot plus the short hold tail.
	if len(samples) < 400 || len(samples) > 412 {
		t.Fatalf("samples = %d", len(samples))
	}
}

func TestTransmitSignalLevels(t *testing.T) {
	ch := channelAt(t, 3, 5000)
	l := DefaultLink(ch)
	pcg := rand.NewPCG(3, 4)
	// Long ON run then long OFF run.
	slots := make([]bool, 2000)
	for i := 0; i < 1000; i++ {
		slots[i] = true
	}
	samples := l.TransmitPCG(pcg, slots)
	onMean := meanOf(samples[100:3900])
	offMean := meanOf(samples[4100 : len(samples)-10])
	wantOn := (ch.SignalPerSlot + ch.AmbientPerSlot) / 4
	wantOff := ch.AmbientPerSlot / 4
	if math.Abs(onMean-wantOn) > wantOn*0.1 {
		t.Fatalf("ON sample mean %v want %v", onMean, wantOn)
	}
	if math.Abs(offMean-wantOff) > wantOff*0.2+0.5 {
		t.Fatalf("OFF sample mean %v want %v", offMean, wantOff)
	}
}

func meanOf(xs []int) float64 {
	s := 0.0
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

func TestLEDSlewSoftensTransitions(t *testing.T) {
	// With a huge slew the waveform never reaches full intensity on
	// alternating slots; the mean of a 1010 pattern stays near half of an
	// ON run's mean either way, but the peak is reduced.
	ch := photon.Channel{SignalPerSlot: 10000, AmbientPerSlot: 0}
	slow := Link{
		TxClock: DefaultLink(ch).TxClock,
		RxClock: DefaultLink(ch).RxClock,
		LED:     DefaultLink(ch).LED,
		Channel: ch,
	}
	slow.LED.RiseSeconds = 8e-6 // a full slot to rise
	slow.LED.FallSeconds = 8e-6
	slots := make([]bool, 400)
	for i := range slots {
		slots[i] = i%2 == 0
	}
	samples := slow.TransmitPCG(rand.NewPCG(5, 6), slots)

	instant := slow
	instant.LED.RiseSeconds, instant.LED.FallSeconds = 0, 0
	samplesInstant := instant.TransmitPCG(rand.NewPCG(5, 6), slots)

	// With alternating slots a slot-long slew turns the square wave into a
	// triangle: the mean stays at 0.5 but the per-slot modulation depth
	// collapses — exactly the signal distortion that made the paper settle
	// on tslot = 8 µs.
	if d := depthOf(samples); d > 0.5 {
		t.Fatalf("slewed modulation depth %v, expected crushed", d)
	}
	if d := depthOf(samplesInstant); d < 0.8 {
		t.Fatalf("instant modulation depth %v, expected near 1", d)
	}
}

// depthOf computes (max−min)/(max+min) over per-slot detection windows,
// skipping the settled first slots and the hold tail.
func depthOf(samples []int) float64 {
	minW, maxW := math.MaxInt32, 0
	for s := 2; s*4+3 < len(samples)-12; s++ {
		w := samples[s*4+1] + samples[s*4+2] + samples[s*4+3]
		if w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
	}
	if maxW+minW == 0 {
		return 0
	}
	return float64(maxW-minW) / float64(maxW+minW)
}

func endToEnd(t *testing.T, s scheme.Scheme, level float64, d float64, lux float64, payloads [][]byte) ([]frame.Result, Stats) {
	t.Helper()
	ch := channelAt(t, d, lux)
	link := DefaultLink(ch)
	link.StartPhase = 0.41
	pcg := rand.NewPCG(77, uint64(level*1e6))

	codec, err := s.CodecFor(level)
	if err != nil {
		t.Fatal(err)
	}
	var slots []bool
	slots = frame.AppendIdle(slots, codec.Level(), 300)
	for _, p := range payloads {
		fs, err := frame.Build(codec, p)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, fs...)
		slots = frame.AppendIdle(slots, codec.Level(), 137)
	}
	samples := link.TransmitPCG(pcg, slots)
	rx := NewReceiver(ch, s.Factory())
	return rx.Process(samples)
}

func TestEndToEndAMPPM(t *testing.T) {
	s := amppmScheme(t)
	rng := rand.New(rand.NewPCG(8, 8))
	var payloads [][]byte
	for i := 0; i < 5; i++ {
		p := make([]byte, 128)
		for j := range p {
			p[j] = byte(rng.Uint64())
		}
		payloads = append(payloads, p)
	}
	for _, level := range []float64{0.1, 0.5, 0.9} {
		results, stats := endToEnd(t, s, level, 3.0, 5000, payloads)
		if len(results) != len(payloads) {
			t.Fatalf("level %v: got %d frames want %d (stats %v)", level, len(results), len(payloads), stats)
		}
		for i, r := range results {
			if !bytes.Equal(r.Payload, payloads[i]) {
				t.Fatalf("level %v frame %d: payload mismatch", level, i)
			}
		}
	}
}

func TestEndToEndAllSchemes(t *testing.T) {
	schemes := []scheme.Scheme{amppmScheme(t), mustMPPM(t), scheme.NewOOKCT(), scheme.NewVPPM()}
	payloads := [][]byte{[]byte("the quick brown fox jumps over the lazy dog 0123456789")}
	for _, s := range schemes {
		results, stats := endToEnd(t, s, 0.3, 2.0, 3000, payloads)
		if len(results) != 1 || !bytes.Equal(results[0].Payload, payloads[0]) {
			t.Fatalf("%s: results %d stats %v", s.Name(), len(results), stats)
		}
	}
}

func mustMPPM(t *testing.T) scheme.Scheme {
	t.Helper()
	m, err := scheme.NewMPPM(20)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEndToEndBeyondRangeFails(t *testing.T) {
	// At 5 m (past the 3.6 m cliff) essentially no frame survives.
	s := amppmScheme(t)
	payloads := [][]byte{make([]byte, 128), make([]byte, 128)}
	results, _ := endToEnd(t, s, 0.5, 5.0, 9700, payloads)
	if len(results) != 0 {
		t.Fatalf("frames decoded at 5 m: %d", len(results))
	}
}

// TestHostileGeometryBounded runs one frame through TransmitPCG and a
// receiver 1 mm from the LED, about 1e9 signal counts per slot. Tuning
// the receiver's threshold there once scanned every candidate up to the
// signal, and the ON rail's PTRS sampler tabulated an acceptance bound
// for every count up to its mean of ~3e8; both are bounded now, so the
// frame must finish well under a second. (The 12-bit ADC saturates at
// this range, so no frame decodes.) The ON rail is drawn by PTRS, whose
// draws have no bound, so its runs keep the ADC clamp: no sample passes
// the code, and every settled ON sample sits on it.
func TestHostileGeometryBounded(t *testing.T) {
	ch := channelAt(t, 1e-3, 8000)
	if ch.SignalPerSlot < 5e8 {
		t.Fatalf("1 mm link carries only %v signal counts per slot", ch.SignalPerSlot)
	}
	start := time.Now()
	results, stats := endToEnd(t, amppmScheme(t), 0.5, 1e-3, 8000, [][]byte{make([]byte, 128)})
	if d := time.Since(start); d > time.Second {
		t.Fatalf("one frame at 1 mm took %v", d)
	}
	t.Logf("one frame at 1 mm: %v, %d decoded, %v", time.Since(start), len(results), stats)

	link := DefaultLink(ch)
	link.StartPhase = 0.41
	codec, err := amppmScheme(t).CodecFor(0.5)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := frame.Build(codec, make([]byte, 128))
	if err != nil {
		t.Fatal(err)
	}
	const onRun = 200 // slots; the stream starts settled on the ON rail
	slots := make([]bool, onRun, onRun+len(fs))
	for i := range slots {
		slots[i] = true
	}
	slots = append(slots, fs...)
	samples := link.TransmitPCG(rand.NewPCG(5, 1), slots)
	maxCode := link.ADC.MaxCode
	for i, v := range samples {
		if v < 0 || v > maxCode {
			t.Fatalf("sample %d is %d, outside the ADC's 0..%d", i, v, maxCode)
		}
	}
	// Windows well inside the leading ON run, clear of the run's end.
	for i := 0; i < (onRun-2)*Oversample; i++ {
		if samples[i] != maxCode {
			t.Fatalf("settled ON sample %d is %d, want the ADC's code %d", i, samples[i], maxCode)
		}
	}
	RecycleSamples(samples)
}

func TestEndToEndWorstCase36m(t *testing.T) {
	// The paper's worst case: 3.6 m, bright ambient. Most frames must
	// still pass (P_SER ≈ 5e-3 per symbol ⇒ ~90% frame success for
	// 128-byte payloads).
	s := amppmScheme(t)
	var payloads [][]byte
	for i := 0; i < 10; i++ {
		payloads = append(payloads, bytes.Repeat([]byte{byte(i)}, 128))
	}
	results, stats := endToEnd(t, s, 0.5, 3.6, 9700, payloads)
	if len(results) < 6 {
		t.Fatalf("only %d/10 frames at 3.6 m (stats %v)", len(results), stats)
	}
}

func TestReceiverIgnoresPureNoise(t *testing.T) {
	ch := channelAt(t, 3, 8000)
	link := DefaultLink(ch)
	// All-idle stream: no frames to find.
	slots := frame.AppendIdle(nil, 0.5, 20000)
	samples := link.TransmitPCG(rand.NewPCG(123, 5), slots)
	rx := NewReceiver(ch, amppmScheme(t).Factory())
	results, stats := rx.Process(samples)
	if len(results) != 0 {
		t.Fatalf("decoded %d frames from idle filler", len(results))
	}
	if stats.FramesOK != 0 {
		t.Fatalf("stats %v", stats)
	}
}

func TestReceiverThresholdSeparation(t *testing.T) {
	ch := channelAt(t, 3, 5000)
	rx := NewReceiver(ch, amppmScheme(t).Factory())
	thr := rx.Threshold()
	halfSig := (ch.SignalPerSlot + ch.AmbientPerSlot) / 2
	halfAmb := ch.AmbientPerSlot / 2
	if float64(thr) <= halfAmb || float64(thr) >= halfSig {
		t.Fatalf("threshold %d outside (%v, %v)", thr, halfAmb, halfSig)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{FramesOK: 3, FramesBad: 1}
	if s.String() != "ok=3 bad=1 symErrs=0" {
		t.Fatalf("String = %q", s.String())
	}
}

// TestAmbientEstimation verifies the receiver's OFF-window ambient
// estimator (the source of the Wi-Fi ambient reports in the paper's
// architecture) across dimming levels and illuminance ranges.
func TestAmbientEstimation(t *testing.T) {
	s := amppmScheme(t)
	budget := photon.DefaultLinkBudget()
	for _, lux := range []float64{50, 1000, 8000} {
		for _, level := range []float64{0.1, 0.5, 0.9} {
			codec, err := s.CodecFor(level)
			if err != nil {
				t.Fatal(err)
			}
			var burst []bool
			for i := 0; i < 10; i++ {
				fs, err := frame.Build(codec, make([]byte, 128))
				if err != nil {
					t.Fatal(err)
				}
				burst = append(burst, fs...)
				burst = frame.AppendIdle(burst, level, 24)
			}
			ch, err := budget.ChannelAt(optics.Aligned(3, 0), lux)
			if err != nil {
				t.Fatal(err)
			}
			link := DefaultLink(ch)
			pcg := rand.NewPCG(uint64(lux), uint64(level*100))
			link.StartPhase = rand.New(pcg).Float64()
			samples := link.TransmitPCG(pcg, burst)
			rx := NewReceiver(ch, s.Factory())
			rx.Process(samples)
			counts, ok := rx.AmbientWindowCounts()
			if !ok {
				t.Fatalf("lux %v level %v: no estimate", lux, level)
			}
			amb := counts/AmbientWindowFraction - budget.DarkCounts
			est := amb / budget.AmbientCountsPerLux
			// At very dark ambient the estimator is photon-starved (a
			// fraction of a count per window), so accept a small absolute
			// error floor alongside the relative bound.
			absErr := math.Abs(est - lux)
			if absErr/lux > 0.20 && absErr > 20 {
				t.Errorf("lux %v level %v: estimate %v (err %.0f%%)", lux, level, est, absErr/lux*100)
			}
		}
	}
}
