package phy

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"runtime/debug"
	"testing"

	"smartvlc/internal/alloctest"
	"smartvlc/internal/frame"
	"smartvlc/internal/optics"
	"smartvlc/internal/photon"
	"smartvlc/internal/scheme"
)

// fuzzOperatingPoint is eqOperatingPoint for any testing.TB, so the fuzz
// harness can share the equivalence tests' robust short link.
func fuzzOperatingPoint(tb testing.TB) (Link, photon.Channel, frame.CodecFactory) {
	tb.Helper()
	ch, err := photon.DefaultLinkBudget().ChannelAt(optics.Aligned(1.5, 0), 800)
	if err != nil {
		tb.Fatal(err)
	}
	sch, err := scheme.NewAMPPM(benchConstraints())
	if err != nil {
		tb.Fatal(err)
	}
	return DefaultLink(ch), ch, sch.Factory()
}

// FuzzBatchedReceiverEquivalence throws arbitrary waveforms at the
// batched receiver and demands bit-identical Results, Stats (including
// the per-error-class counters) and ambient state versus the scalar
// reference implementation. Two stream shapes per input: the fuzz bytes
// driven through the batched transmitter as a slot waveform (so the
// samples look like real — if usually corrupt — air), and the raw bytes
// reinterpreted directly as sample values (pure adversarial garbage).
// Both receivers always see the same sample stream; the receiver
// contract is exact, unlike the transmitter's decode-level one.
func FuzzBatchedReceiverEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(0), []byte{})
	f.Add(uint64(7), uint16(31000), []byte{0xAA, 0xAA, 0xAA, 0xAA, 0xFF, 0x00})
	f.Add(uint64(42), uint16(65535), []byte{1, 2, 3, 250, 249, 248, 0, 0, 0, 0, 9, 9, 9, 9})
	// A genuine frame so the decode path fuzzes from a valid corpus seed.
	{
		sch, err := scheme.NewAMPPM(benchConstraints())
		if err != nil {
			f.Fatal(err)
		}
		codec, err := sch.CodecFor(0.5)
		if err != nil {
			f.Fatal(err)
		}
		fs, err := frame.Build(codec, []byte("fuzz corpus payload: smartvlc"))
		if err != nil {
			f.Fatal(err)
		}
		packed := make([]byte, (len(fs)+7)/8)
		for i, s := range fs {
			if s {
				packed[i/8] |= 1 << (i % 8)
			}
		}
		f.Add(uint64(99), uint16(4096), packed)
	}
	// An endless preamble as samples: every parse fails, and the hunt
	// after each failure relocks the offset it just gave up on.
	f.Add(uint64(5), uint16(0), bytes.Repeat([]byte{80, 80, 80, 80, 0, 0, 0, 0}, 64))

	f.Fuzz(func(t *testing.T, seed uint64, phase uint16, raw []byte) {
		if len(raw) > 4096 {
			raw = raw[:4096]
		}
		link, ch, factory := fuzzOperatingPoint(t)

		// Stream A: fuzz bits as a slot waveform through the batched
		// transmitter (phase swept over the full sample period).
		slots := make([]bool, len(raw)*8)
		for i := range slots {
			slots[i] = raw[i/8]&(1<<(i%8)) != 0
		}
		link.StartPhase = float64(phase) / 65536
		air := link.TransmitPCG(rand.NewPCG(seed, 0xFE), slots)

		// Stream B: raw bytes as sample values.
		direct := make([]int, len(raw))
		for i, b := range raw {
			direct[i] = int(b)
		}

		for _, samples := range [][]int{air, direct} {
			fastRx := NewReceiver(ch, factory)
			refRx := NewReceiver(ch, factory)
			gotRes, gotStats := fastRx.Process(samples)
			wantRes, wantStats := refRx.referenceProcess(samples)
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Fatalf("stats diverge: fast %+v ref %+v", gotStats, wantStats)
			}
			checkEvents(t, fastRx.Events(), gotStats)
			if len(gotRes) != len(wantRes) {
				t.Fatalf("%d vs %d results", len(gotRes), len(wantRes))
			}
			for i := range gotRes {
				if !reflect.DeepEqual(gotRes[i], wantRes[i]) {
					t.Fatalf("result %d diverges:\nfast %+v\nref  %+v", i, gotRes[i], wantRes[i])
				}
			}
			fa, fok := fastRx.AmbientWindowCounts()
			ra, rok := refRx.AmbientWindowCounts()
			if fa != ra || fok != rok {
				t.Fatalf("ambient diverges: fast (%v,%v) ref (%v,%v)", fa, fok, ra, rok)
			}
		}
		RecycleSamples(air)
	})
}

// TestTransmitSteadyStateZeroAllocs pins the one-pass transmitter's
// steady state at zero allocations per frame. GC is disabled around the
// measurement so a background cycle cannot strip the buffer pools
// mid-run.
func TestTransmitSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	link, _, _ := fuzzOperatingPoint(t)
	slots := benchSlotsT(t, 0.5, 2, 24)
	pcg := rand.NewPCG(3, 4)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Warm the sampler cache and sample buffers.
	link.StartPhase = 0.25
	RecycleSamples(link.TransmitPCG(pcg, slots))

	if n, _ := alloctest.Count(20, func() {
		RecycleSamples(link.TransmitPCG(pcg, slots))
	}); n != 0 {
		t.Errorf("TransmitPCG steady state: %d allocs over 20 calls", n)
	}
}

// TestProcessSteadyStateZeroAllocs pins the batched receiver's steady
// state at zero allocations per Process call once its Batch scratch has
// grown to the stream's size.
func TestProcessSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	link, ch, factory := fuzzOperatingPoint(t)
	slots := benchSlotsT(t, 0.5, 2, 200)
	pcg := rand.NewPCG(5, 6)
	link.StartPhase = rand.New(pcg).Float64()
	samples := link.TransmitPCG(pcg, slots)
	rx := NewReceiver(ch, factory)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if res, stats := rx.Process(samples); len(res) != 2 || stats.FramesOK != 2 {
		t.Fatalf("warmup decode: %d frames (stats %+v)", len(res), stats)
	}
	if n, _ := alloctest.Count(20, func() {
		rx.Process(samples)
	}); n != 0 {
		t.Errorf("Process steady state: %d allocs over 20 calls", n)
	}
}

// benchSlotsT is benchSlots for plain tests.
func benchSlotsT(t *testing.T, level float64, nFrames, idleGap int) []bool {
	t.Helper()
	sch, err := scheme.NewAMPPM(benchConstraints())
	if err != nil {
		t.Fatal(err)
	}
	codec, err := sch.CodecFor(level)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 128)
	for i := range payload {
		payload[i] = byte(i * 37)
	}
	slots := frame.AppendIdle(nil, codec.Level(), idleGap)
	for f := 0; f < nFrames; f++ {
		fs, err := frame.Build(codec, payload)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, fs...)
		slots = frame.AppendIdle(slots, codec.Level(), idleGap)
	}
	return slots
}
