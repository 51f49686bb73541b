package phy

import (
	"math/rand/v2"
	"testing"

	"smartvlc/internal/amppm"
	"smartvlc/internal/frame"
	"smartvlc/internal/hw"
	"smartvlc/internal/optics"
	"smartvlc/internal/photon"
	"smartvlc/internal/scheme"
)

func benchConstraints() amppm.Constraints { return amppm.DefaultConstraints() }

// benchLink returns the paper's 3 m / 8000 lux operating point.
func benchLink(b *testing.B) (Link, photon.Channel, frame.CodecFactory) {
	b.Helper()
	ch, err := photon.DefaultLinkBudget().ChannelAt(optics.Aligned(3.0, 0), 8000)
	if err != nil {
		b.Fatal(err)
	}
	sch, err := scheme.NewAMPPM(benchConstraints())
	if err != nil {
		b.Fatal(err)
	}
	return DefaultLink(ch), ch, sch.Factory()
}

// benchSlots builds a realistic air waveform: nFrames 128-byte frames at
// the given dimming level, separated by idle filler, with a leading and
// trailing idle stretch so the receiver benchmark also pays the preamble
// hunt over signal-free air.
func benchSlots(b *testing.B, level float64, nFrames, idleGap int) []bool {
	b.Helper()
	sch, err := scheme.NewAMPPM(benchConstraints())
	if err != nil {
		b.Fatal(err)
	}
	codec, err := sch.CodecFor(level)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 128)
	for i := range payload {
		payload[i] = byte(i * 37)
	}
	slots := frame.AppendIdle(nil, codec.Level(), idleGap)
	for f := 0; f < nFrames; f++ {
		fs, err := frame.Build(codec, payload)
		if err != nil {
			b.Fatal(err)
		}
		slots = append(slots, fs...)
		slots = frame.AppendIdle(slots, codec.Level(), idleGap)
	}
	return slots
}

// BenchmarkPHYTransmit measures the transmit side alone: LED slew, clock
// offset and Poisson detection for a multi-frame waveform, reported per
// RX sample. The levels are the ones filetransfer_stream writes at (0.5
// is Fig. 15's waveform); the slow-LED case (6 µs rise, 3 µs fall) keeps
// the LED ramping across several windows after every value change, so
// its transitions take the per-segment slew walk.
func BenchmarkPHYTransmit(b *testing.B) {
	link, _, _ := benchLink(b)
	slow := link
	slow.LED = hw.LED{RiseSeconds: 6e-6, FallSeconds: 3e-6}
	for _, c := range []struct {
		name  string
		link  Link
		level float64
	}{
		{"level=0.1", link, 0.1},
		{"level=0.5", link, 0.5},
		{"level=0.9", link, 0.9},
		{"slow-led", slow, 0.5},
	} {
		b.Run(c.name, func(b *testing.B) {
			link := c.link
			slots := benchSlots(b, c.level, 4, 24)
			pcg := rand.NewPCG(1, 2)
			rng := rand.New(pcg)
			samples := 0
			b.SetBytes(int64(len(slots)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				link.StartPhase = rng.Float64()
				out := link.TransmitPCG(pcg, slots)
				samples += len(out)
				RecycleSamples(out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
		})
	}
}

// BenchmarkReceiverProcess measures the receive side alone: preamble hunt,
// per-frame clock recovery, slot folding and frame parsing over a stream
// of frames separated by idle air.
func BenchmarkReceiverProcess(b *testing.B) {
	link, ch, factory := benchLink(b)
	slots := benchSlots(b, 0.5, 4, 600)
	pcg := rand.NewPCG(3, 4)
	link.StartPhase = rand.New(pcg).Float64()
	samples := link.TransmitPCG(pcg, slots)
	rx := NewReceiver(ch, factory)
	b.SetBytes(int64(len(samples)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, stats := rx.Process(samples)
		if len(results) != 4 || stats.FramesOK != 4 {
			b.Fatalf("decoded %d frames (stats %v)", len(results), stats)
		}
	}
}

// BenchmarkReceiverHunt measures the preamble hunt over signal-free air:
// the receiver listening to ambient light only, the cost every idle
// listening window pays at each of its ~500k sample offsets per second.
func BenchmarkReceiverHunt(b *testing.B) {
	link, ch, factory := benchLink(b)
	slots := make([]bool, 20000) // dark air: ambient photons only
	samples := link.TransmitPCG(rand.NewPCG(5, 6), slots)
	rx := NewReceiver(ch, factory)
	b.SetBytes(int64(len(samples)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, _ := rx.Process(samples)
		if len(results) != 0 {
			b.Fatal("found frames in noise")
		}
	}
}
