package phy

import (
	"math"
	"math/rand/v2"
	"testing"

	"smartvlc/internal/frame"
	"smartvlc/internal/hw"
	"smartvlc/internal/optics"
	"smartvlc/internal/photon"
	"smartvlc/internal/scheme"
)

// walkWindow is one window of windowWalkTransmit: the slot cursor and LED
// level at its start (after the slot cursor has advanced to it), the LED
// level at its end, and the Poisson mean the per-segment walk accumulated
// for it (NaN for a window of a settled run).
type walkWindow struct {
	slotIdx          int
	slotEnd, cursor  float64
	start, end, mean float64
}

// windowWalkTransmit is the one-pass transmitter as it was before the
// slot-transition pair path: every window that is not part of a settled
// run takes the per-segment slew walk, and every run is clamped by
// ADC.QuantizeAll. It is the oracle the pair path and the conditional
// rail clamp are held to, bit for bit. When trace is non-nil it receives
// one entry per window.
func (l Link) windowWalkTransmit(pcg *rand.PCG, slots []bool, trace *[]walkWindow) []int {
	tslot := l.TxClock.TickSeconds()
	tsamp := l.RxClock.TickSeconds()
	t0 := l.StartPhase * tsamp
	total := float64(len(slots))*tslot + t0
	nSamples := int(math.Ceil(total/tsamp)) + 8
	out := make([]int, nSamples)
	onSampler := photon.SamplerFor(l.Channel.MeanFor(1, tsamp/tslot))
	offSampler := photon.SamplerFor(l.Channel.MeanFor(0, tsamp/tslot))

	intensity := 0.0
	if len(slots) > 0 && slots[0] {
		intensity = 1
	}
	slotIdx := 0
	slotEnd := t0 + tslot
	cursor := 0.0
	for j := 0; j < nSamples; {
		for slotEnd <= cursor+1e-15 && slotIdx < len(slots) {
			slotIdx++
			slotEnd += tslot
		}
		if n, on, next := railRun(slots, slotIdx, slotEnd, cursor, tsamp, tslot, intensity, nSamples-j); n > 0 {
			chunk := out[j : j+n]
			if on {
				onSampler.SampleNPCG(pcg, chunk)
			} else {
				offSampler.SampleNPCG(pcg, chunk)
			}
			l.ADC.QuantizeAll(chunk)
			if trace != nil {
				for range n {
					*trace = append(*trace, walkWindow{-1, math.NaN(), math.NaN(), intensity, intensity, math.NaN()})
				}
			}
			j += n
			cursor = next
			continue
		}
		w := walkWindow{slotIdx: slotIdx, slotEnd: slotEnd, cursor: cursor, start: intensity}
		winEnd := cursor + tsamp
		lambda := 0.0
		t := cursor
		for t < winEnd-1e-15 {
			for slotEnd <= t+1e-15 && slotIdx < len(slots) {
				slotIdx++
				slotEnd += tslot
			}
			segEnd := slotEnd
			if slotIdx >= len(slots) {
				segEnd = winEnd
			}
			if segEnd > winEnd {
				segEnd = winEnd
			}
			dt := segEnd - t
			target := 0.0
			idx := slotIdx
			if idx >= len(slots) {
				idx = len(slots) - 1
			}
			if idx >= 0 && slots[idx] {
				target = 1
			}
			next := l.LED.Step(intensity, target, dt)
			avg := (intensity + next) / 2
			lambda += l.Channel.MeanFor(avg, dt/tslot)
			intensity = next
			t = segEnd
		}
		out[j] = l.ADC.Quantize(photon.SampleGridPCG(pcg, lambda))
		if trace != nil {
			w.end, w.mean = intensity, lambda
			*trace = append(*trace, w)
		}
		cursor = winEnd
		j++
	}
	return out
}

// walkCase is one link and waveform of the walk oracle tests.
type walkCase struct {
	link  Link
	slots []bool
}

// walkChannels are the oracle's operating points: a dark room, Fig. 15's
// point, 0.8 m (transition means pass the grid's cap of 256 and take
// SamplePCG), 0.3 m (an ON rail of ~3180 whose tail walk passes the
// 12-bit code), 0.25 m (an ON rail of ~4580, drawn by PTRS) and 1 mm
// (the ADC saturates). With a MaxCode of 100 the ON rail keeps its clamp
// at 3 m too (its draws reach 104 at 8000 lux, 434 in the dark), while
// the OFF rail's (at most 50) does not.
var walkChannels = []struct {
	dist, lux float64
}{{3, 0}, {3, 8000}, {0.8, 8000}, {0.3, 8000}, {0.25, 8000}, {1e-3, 8000}}

// walkLEDs are the default LED, a slow one whose ramps span several
// windows, an instant one and an asymmetric one.
var walkLEDs = []hw.LED{
	hw.DefaultLED(),
	{RiseSeconds: 6e-6, FallSeconds: 3e-6},
	{},
	{RiseSeconds: 1e-6, FallSeconds: 3.5e-6},
}

// walkTxClocks are the prototype's slot clock at ±25 ppm, two faster
// ones whose slots are shorter than two sample windows and one whose
// slots are shorter than one, so a window can hold two boundaries.
var walkTxClocks = []hw.Clock{
	{NominalHz: 125e3, OffsetPPM: 25},
	{NominalHz: 125e3, OffsetPPM: -25},
	{NominalHz: 300e3},
	{NominalHz: 500e3, OffsetPPM: 8},
	{NominalHz: 750e3},
}

var walkMaxCodes = []int{0, 100, 4095}

// randomWalkCase draws one link and waveform from the oracle's matrix.
// Channels are built once per distance by the caller.
func randomWalkCase(rng *rand.Rand, chans []photon.Channel, frames [][]bool) walkCase {
	l := DefaultLink(chans[rng.IntN(len(chans))])
	l.LED = walkLEDs[rng.IntN(len(walkLEDs))]
	l.TxClock = walkTxClocks[rng.IntN(len(walkTxClocks))]
	l.ADC.MaxCode = walkMaxCodes[rng.IntN(len(walkMaxCodes))]

	var slots []bool
	switch rng.IntN(6) {
	case 0: // random levels
		p := rng.Float64()
		slots = make([]bool, 1+rng.IntN(160))
		for i := range slots {
			slots[i] = rng.Float64() < p
		}
	case 1: // long runs
		v := rng.IntN(2) == 0
		for n := 1 + rng.IntN(5); n > 0; n-- {
			for k := 1 + rng.IntN(600); k > 0; k-- {
				slots = append(slots, v)
			}
			v = !v
		}
	case 2: // 1-slot runs
		slots = make([]bool, 1+rng.IntN(120))
		v := rng.IntN(2) == 0
		for i := range slots {
			slots[i] = v
			v = !v
		}
	case 3: // empty and 1-slot waveforms
		slots = make([]bool, rng.IntN(2))
		if len(slots) == 1 {
			slots[0] = rng.IntN(2) == 0
		}
	default: // a real frame at one of the workloads' levels
		slots = frames[rng.IntN(len(frames))]
	}

	tslot, tsamp := l.TxClock.TickSeconds(), l.RxClock.TickSeconds()
	switch rng.IntN(3) {
	case 0:
		l.StartPhase = 0
	case 1:
		l.StartPhase = rng.Float64()
	default:
		// Put the end of slot k within 3e-15 of a window edge m·tsamp,
		// on either side of the walk's 1e-15 epsilon.
		k := 1 + rng.IntN(12)
		m := math.Ceil(float64(k) * tslot / tsamp)
		ph := (m*tsamp-float64(k)*tslot)/tsamp + (rng.Float64()*2-1)*3e-15/tsamp
		l.StartPhase = min(max(ph, 0), math.Nextafter(1, 0))
	}
	return walkCase{l, slots}
}

// walkFixtures builds the oracle's channels and a few real AMPPM frames
// at the levels filetransfer_stream writes at.
func walkFixtures(t testing.TB) ([]photon.Channel, [][]bool) {
	t.Helper()
	chans := make([]photon.Channel, len(walkChannels))
	for i, c := range walkChannels {
		ch, err := photon.DefaultLinkBudget().ChannelAt(optics.Aligned(c.dist, 0), c.lux)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	sch, err := scheme.NewAMPPM(benchConstraints())
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]bool
	for _, level := range []float64{0.1, 0.5, 0.9} {
		codec, err := sch.CodecFor(level)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := frame.Build(codec, []byte("walk oracle"))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame.AppendIdle(fs, codec.Level(), 24))
	}
	return chans, frames
}

// TestTransitionMeansMatchWalk holds edgeWindows to the per-segment walk
// at the level of the window means: at every window of the reference
// walk where the pair path's conditions hold, the boundary window's mean
// and end level, and the ramp window's when edgeWindows reports one, must
// equal the walk's bit for bit. Samples alone cannot show this: a mean
// off by one ulp almost never changes a draw.
func TestTransitionMeansMatchWalk(t *testing.T) {
	chans, frames := walkFixtures(t)
	rng := rand.New(rand.NewPCG(18, 1))
	var trace []walkWindow
	pairs, ramps := 0, 0
	for c := 0; c < 10_000; c++ {
		wc := randomWalkCase(rng, chans, frames)
		l, slots := wc.link, wc.slots
		tslot, tsamp := l.TxClock.TickSeconds(), l.RxClock.TickSeconds()
		trace = trace[:0]
		l.windowWalkTransmit(rand.NewPCG(uint64(c), 7), slots, &trace)
		for j, w := range trace {
			if w.slotIdx < 0 || w.slotIdx+1 >= len(slots) || slots[w.slotIdx+1] == slots[w.slotIdx] {
				continue
			}
			r0 := float64(b2i(slots[w.slotIdx]))
			winEnd := w.cursor + tsamp
			if w.start != r0 || !(w.slotEnd < winEnd-1e-15 && w.slotEnd+tslot > winEnd) {
				continue
			}
			pairs++
			m0, n1, m1, n2, ramp := l.edgeWindows(r0, w.cursor, winEnd, w.slotEnd, tsamp, tslot)
			if math.Float64bits(m0) != math.Float64bits(w.mean) || n1 != w.end {
				t.Fatalf("case %d window %d: boundary mean %v level %v, walk %v level %v", c, j, m0, n1, w.mean, w.end)
			}
			if !ramp || j+1 >= len(trace) {
				continue
			}
			ramps++
			if x := trace[j+1]; math.Float64bits(m1) != math.Float64bits(x.mean) || n2 != x.end || x.start != n1 {
				t.Fatalf("case %d window %d: ramp mean %v level %v, walk %v level %v", c, j+1, m1, n2, x.mean, x.end)
			}
		}
	}
	if pairs < 100_000 || ramps < pairs/4 {
		t.Fatalf("only %d boundary windows, %d ramps: the matrix no longer exercises the pair path", pairs, ramps)
	}
	t.Logf("%d boundary windows, %d ramp windows", pairs, ramps)
}

// checkTransmitMatchesWalk requires TransmitPCG to give the reference
// walk's samples and to leave the PCG stream where the walk leaves it.
func checkTransmitMatchesWalk(t *testing.T, name string, wc walkCase, seed uint64) {
	t.Helper()
	a, b := rand.NewPCG(seed, 0x7A), rand.NewPCG(seed, 0x7A)
	got := wc.link.TransmitPCG(a, wc.slots)
	want := wc.link.windowWalkTransmit(b, wc.slots, nil)
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, walk %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: sample %d is %d, walk %d", name, i, got[i], want[i])
		}
	}
	if x, y := a.Uint64(), b.Uint64(); x != y {
		t.Fatalf("%s: PCG streams diverge after the call", name)
	}
	RecycleSamples(got)
}

// TestTransmitMatchesWindowWalk holds TransmitPCG to the reference walk
// sample for sample, and its PCG state after the call, over the oracle's
// matrix of waveforms, phases, LEDs, clocks, channels and ADC codes.
func TestTransmitMatchesWindowWalk(t *testing.T) {
	chans, frames := walkFixtures(t)
	rng := rand.New(rand.NewPCG(18, 2))
	for c := 0; c < 10_000; c++ {
		checkTransmitMatchesWalk(t, "case", randomWalkCase(rng, chans, frames), uint64(c))
	}
}

// FuzzTransmitMatchesWindowWalk is TestTransmitMatchesWindowWalk over
// fuzzed waveforms and phases, with the fuzz input picking the LED,
// clocks, channel and ADC code from the oracle's matrix.
func FuzzTransmitMatchesWindowWalk(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(0), []byte{0xF0, 0x0F, 0xAA})
	f.Add(uint64(2), uint16(40000), uint8(0x5A), []byte{0xFF, 0xFF, 0x00, 0x00, 0x01})
	f.Add(uint64(3), uint16(65535), uint8(0xE7), []byte{})
	chans, _ := walkFixtures(f)
	f.Fuzz(func(t *testing.T, seed uint64, phase uint16, pick uint8, raw []byte) {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		slots := make([]bool, len(raw)*8)
		for i := range slots {
			slots[i] = raw[i/8]&(1<<(i%8)) != 0
		}
		l := DefaultLink(chans[int(pick)%len(chans)])
		l.LED = walkLEDs[int(pick>>3)%len(walkLEDs)]
		l.TxClock = walkTxClocks[int(pick>>5)%len(walkTxClocks)]
		l.ADC.MaxCode = walkMaxCodes[int(seed>>61)%len(walkMaxCodes)]
		l.StartPhase = float64(phase) / 65536
		checkTransmitMatchesWalk(t, "fuzz", walkCase{l, slots}, seed)
	})
}
