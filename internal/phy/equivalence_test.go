package phy

import (
	"bytes"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"smartvlc/internal/frame"
	"smartvlc/internal/optics"
	"smartvlc/internal/photon"
	"smartvlc/internal/scheme"
)

// eqOperatingPoint is a robust short link (high SNR) so decode outcomes
// are deterministic per seed and insensitive to platform float quirks.
func eqOperatingPoint(t *testing.T) (Link, photon.Channel, frame.CodecFactory, *scheme.AMPPM) {
	t.Helper()
	ch, err := photon.DefaultLinkBudget().ChannelAt(optics.Aligned(1.5, 0), 800)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := scheme.NewAMPPM(benchConstraints())
	if err != nil {
		t.Fatal(err)
	}
	return DefaultLink(ch), ch, sch.Factory(), sch
}

func eqFrameStream(t *testing.T, sch *scheme.AMPPM, level float64, nFrames, idleGap int, seed uint64) []bool {
	t.Helper()
	codec, err := sch.CodecFor(level)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 0xF00D))
	slots := frame.AppendIdle(nil, codec.Level(), idleGap)
	for f := 0; f < nFrames; f++ {
		payload := make([]byte, 96)
		for i := range payload {
			payload[i] = byte(rng.Uint64())
		}
		fs, err := frame.Build(codec, payload)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, fs...)
		slots = frame.AppendIdle(slots, codec.Level(), idleGap)
	}
	return slots
}

// TestProcessMatchesReference pins the window-sum receiver to the original
// per-sample implementation: the fast path is pure integer arithmetic over
// the same sums, so Results and Stats must match bit for bit — on clean
// streams, noisy streams and arbitrary sample garbage alike.
func TestProcessMatchesReference(t *testing.T) {
	link, ch, factory, sch := eqOperatingPoint(t)

	type stream struct {
		name    string
		samples []int
	}
	var streams []stream

	for _, level := range []float64{0.3, 0.5, 0.72} {
		slots := eqFrameStream(t, sch, level, 3, 80, uint64(level*1000))
		rng := rand.New(rand.NewPCG(uint64(level*64), 11))
		link.StartPhase = rng.Float64()
		streams = append(streams, stream{"clean-frames", link.referenceTransmit(rng, slots)})
	}
	// Signal-free air: the hunt path only.
	rng := rand.New(rand.NewPCG(77, 78))
	streams = append(streams, stream{"dark-air", link.referenceTransmit(rng, make([]bool, 6000))})
	// Arbitrary garbage, including values that straddle the threshold and
	// tease partial preambles.
	garbage := make([]int, 40000)
	for i := range garbage {
		garbage[i] = int(rng.Uint64() % 64)
	}
	streams = append(streams, stream{"garbage", garbage})
	// Degenerate lengths around the preamble-window bound.
	streams = append(streams, stream{"empty", nil}, stream{"tiny", []int{5, 9, 2}})

	for _, s := range streams {
		fastRx := NewReceiver(ch, factory)
		refRx := NewReceiver(ch, factory)
		gotRes, gotStats := fastRx.Process(s.samples)
		wantRes, wantStats := refRx.referenceProcess(s.samples)
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("%s: results diverge:\nfast %+v\nref  %+v", s.name, gotRes, wantRes)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("%s: stats diverge: fast %+v ref %+v", s.name, gotStats, wantStats)
		}
		checkEvents(t, fastRx.Events(), gotStats)
		if fa, fok := fastRx.AmbientWindowCounts(); true {
			ra, rok := refRx.AmbientWindowCounts()
			if fa != ra || fok != rok {
				t.Fatalf("%s: ambient estimate diverges: fast (%v,%v) ref (%v,%v)", s.name, fa, fok, ra, rok)
			}
		}
	}
}

// checkEvents pins a Process call's events to its Stats: ok events count
// FramesOK, failed ones FramesBad (and tally Errors by text), and the ok
// events' symbol errors sum to SymbolErrors. It also pins their order: a
// lock lies at most one sample before its hunt began (lockOffset may step
// back one sample from where the preamble first passed), locks never
// decrease, and a clean decode moves the next lock past it.
func checkEvents(t *testing.T, events []Event, st Stats) {
	t.Helper()
	ok, bad, symErrs := 0, 0, 0
	errs := map[string]int{}
	for i, e := range events {
		if e.From > e.Lock+1 {
			t.Fatalf("event %d locks at %d, before its hunt began at %d", i, e.Lock, e.From)
		}
		if i > 0 {
			if prev := events[i-1]; e.Lock < prev.Lock || (prev.Err == nil && e.Lock == prev.Lock) {
				t.Fatalf("event %d locks at %d after %+v", i, e.Lock, prev)
			}
		}
		if e.Err != nil {
			bad++
			errs[e.Err.Error()]++
			continue
		}
		ok++
		symErrs += e.SymbolErrors
	}
	if ok != st.FramesOK || bad != st.FramesBad || symErrs != st.SymbolErrors {
		t.Fatalf("events give %d ok, %d bad, %d symbol errors; stats %+v", ok, bad, symErrs, st)
	}
	if len(errs) != len(st.Errors) || (len(errs) > 0 && !reflect.DeepEqual(errs, st.Errors)) {
		t.Fatalf("event errors %v, stats %v", errs, st.Errors)
	}
}

// TestResetClearsEvents: a receiver reset for a new channel, or rented
// from the pool, reports no events of its previous life.
func TestResetClearsEvents(t *testing.T) {
	link, ch, factory, sch := eqOperatingPoint(t)
	samples := link.TransmitPCG(rand.NewPCG(3, 4), eqFrameStream(t, sch, 0.5, 2, 80, 5))
	defer RecycleSamples(samples)
	rx := NewReceiver(ch, factory)
	if _, st := rx.Process(samples); st.FramesOK == 0 || len(rx.Events()) == 0 {
		t.Fatalf("clean stream left %d events, stats %+v", len(rx.Events()), st)
	}
	rx.Reset(ch, factory)
	if n := len(rx.Events()); n != 0 {
		t.Fatalf("reset receiver reports %d stale events", n)
	}
	if _, st := rx.Process(make([]int, 4000)); st.FramesOK+st.FramesBad != 0 || len(rx.Events()) != 0 {
		t.Fatalf("dark air left %d events, stats %+v", len(rx.Events()), st)
	}
}

// TestTransmitDecodeMatchesReference is the end-to-end equivalence guard:
// a fixed-seed session pushed through the settled-slot transmitter must
// decode byte-identical payloads to the same session pushed through the
// original per-segment transmitter. The fast path's cached lambda can
// differ from the reference's accumulated one by float ulps, so the
// contract is decode-level, at an operating point with SNR headroom.
// TestAmbientUpdateMatchesReference checks the branch-free ambient
// update against the original one on 200k random frames: random slot
// values, consumed counts past the slot column, offsets, and sample
// columns cut short anywhere, so the bound on the last usable slot is
// exercised from both sides. Both receivers must hold the same estimate,
// bit for bit, after every frame.
func TestAmbientUpdateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 12))
	var fast, ref Receiver
	for i := 0; i < 200_000; i++ {
		slots := make([]bool, rng.IntN(40))
		for s := range slots {
			slots[s] = rng.IntN(3) == 0
		}
		offset := rng.IntN(9)
		samples := make([]int, rng.IntN(offset+len(slots)*Oversample+8))
		for j := range samples {
			samples[j] = rng.IntN(4096)
		}
		consumed := rng.IntN(len(slots) + 6)
		fast.updateAmbientFromFrame(samples, offset, slots, consumed)
		ref.refUpdateAmbient(samples, offset, slots, consumed)
		if fast.ambientEMA != ref.ambientEMA || fast.ambientSet != ref.ambientSet {
			t.Fatalf("frame %d: ambient (%v, %v), reference (%v, %v)", i, fast.ambientEMA, fast.ambientSet, ref.ambientEMA, ref.ambientSet)
		}
		if rng.IntN(50) == 0 {
			fast, ref = Receiver{}, Receiver{}
		}
	}
}

func TestTransmitDecodeMatchesReference(t *testing.T) {
	link, ch, factory, sch := eqOperatingPoint(t)

	for _, level := range []float64{0.25, 0.5, 0.8} {
		for seed := uint64(1); seed <= 3; seed++ {
			slots := eqFrameStream(t, sch, level, 4, 120, seed*13)

			fastPCG := rand.NewPCG(seed, 0xAB)
			refRng := rand.New(rand.NewPCG(seed, 0xAB))
			link.StartPhase = rand.New(fastPCG).Float64()
			fastSamples := link.TransmitPCG(fastPCG, slots)
			link.StartPhase = refRng.Float64()
			refSamples := link.referenceTransmit(refRng, slots)

			if len(fastSamples) != len(refSamples) {
				t.Fatalf("level %v seed %d: sample count %d vs %d", level, seed, len(fastSamples), len(refSamples))
			}

			fastRx := NewReceiver(ch, factory)
			refRx := NewReceiver(ch, factory)
			fastRes, fastStats := fastRx.Process(fastSamples)
			refRes, refStats := refRx.referenceProcess(refSamples)
			RecycleSamples(fastSamples)

			if fastStats.FramesOK != 4 || refStats.FramesOK != 4 {
				t.Fatalf("level %v seed %d: decode loss (fast %v, ref %v)", level, seed, fastStats, refStats)
			}
			if len(fastRes) != len(refRes) {
				t.Fatalf("level %v seed %d: %d vs %d frames", level, seed, len(fastRes), len(refRes))
			}
			for i := range fastRes {
				if !bytes.Equal(fastRes[i].Payload, refRes[i].Payload) {
					t.Fatalf("level %v seed %d frame %d: payloads differ", level, seed, i)
				}
			}
		}
	}
}

// TestTransmitWindowMomentsMatchReference is the statistical equivalence
// of the transmitter against the scalar reference: on a fixed waveform
// and phase, over many seeds, every window's sample mean from
// TransmitPCG must agree with referenceTransmit's within 5 standard
// errors. Two operating points cover both grid regimes of the transition
// windows — Fig. 15's (3 m, 8000 lux: table cells plus residual) and a
// dim far link (6 m, 100 lux: means mostly below one cell step) — and the
// settled runs in between.
func TestTransmitWindowMomentsMatchReference(t *testing.T) {
	const seeds = 1000
	sch, err := scheme.NewAMPPM(benchConstraints())
	if err != nil {
		t.Fatal(err)
	}
	slots := eqFrameStream(t, sch, 0.5, 1, 12, 3)[:160]
	for _, op := range []struct {
		dist, lux float64
	}{{3, 8000}, {6, 100}} {
		ch, err := photon.DefaultLinkBudget().ChannelAt(optics.Aligned(op.dist, 0), op.lux)
		if err != nil {
			t.Fatal(err)
		}
		link := DefaultLink(ch)
		link.StartPhase = 0.37
		var fast, ref [2][]float64 // per-window sums of x and x²
		for seed := uint64(1); seed <= seeds; seed++ {
			a := link.TransmitPCG(rand.NewPCG(seed, 0x5EED), slots)
			b := link.referenceTransmit(rand.New(rand.NewPCG(seed, 0xF00D)), slots)
			if len(a) != len(b) {
				t.Fatalf("sample count %d vs %d", len(a), len(b))
			}
			if fast[0] == nil {
				fast = [2][]float64{make([]float64, len(a)), make([]float64, len(a))}
				ref = [2][]float64{make([]float64, len(a)), make([]float64, len(a))}
			}
			for i := range a {
				x, y := float64(a[i]), float64(b[i])
				fast[0][i] += x
				fast[1][i] += x * x
				ref[0][i] += y
				ref[1][i] += y * y
			}
			RecycleSamples(a)
		}
		for i := range fast[0] {
			ma, mb := fast[0][i]/seeds, ref[0][i]/seeds
			va, vb := fast[1][i]/seeds-ma*ma, ref[1][i]/seeds-mb*mb
			se := math.Sqrt((va + vb) / seeds)
			if math.Abs(ma-mb) > 5*se || (se == 0 && ma != mb) {
				t.Errorf("%v m %v lux window %d: mean %.3f vs reference %.3f (5 SE = %.3f)", op.dist, op.lux, i, ma, mb, 5*se)
			}
		}
	}
}

// TestSettledWindow pins the fast-path gate itself, the run scan
// railRun: a window counts as settled exactly when the LED sits on a rail
// and every slot the window touches holds that rail's value, including
// the hold-state past the end of the waveform.
func TestSettledWindow(t *testing.T) {
	const tslot = 8e-6
	const tsamp = 3 * tslot // one window spanning slots 0..2 from t=0

	cases := []struct {
		name       string
		slots      []bool
		slotIdx    int
		slotEnd    float64
		intensity  float64
		wantOn     bool
		wantSettle bool
	}{
		{"all-on", []bool{true, true, true, true}, 0, tslot, 1, true, true},
		{"all-off", []bool{false, false, false, false}, 0, tslot, 0, false, true},
		{"mid-slew", []bool{true, true, true, true}, 0, tslot, 0.4, false, false},
		{"transition", []bool{true, true, false, true}, 0, tslot, 1, true, false},
		{"wrong-rail", []bool{false, false, false}, 0, tslot, 1, true, false},
		{"hold-past-end", []bool{true, true}, 0, tslot, 1, true, true},
		{"empty-stream", nil, 0, tslot, 0, false, true},
	}
	for _, c := range cases {
		n, on, next := railRun(c.slots, c.slotIdx, c.slotEnd, 0, tsamp, tslot, c.intensity, 1)
		settled := n == 1
		if settled != c.wantSettle || (settled && on != c.wantOn) {
			t.Errorf("%s: railRun = (%d, %v), want settled %v on %v", c.name, n, on, c.wantSettle, c.wantOn)
		}
		if want := float64(n) * tsamp; next != want {
			t.Errorf("%s: cursor after the run %v, want %v", c.name, next, want)
		}
	}
}
