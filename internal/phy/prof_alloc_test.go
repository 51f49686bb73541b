package phy

import (
	"math/rand/v2"
	"runtime/debug"
	"testing"

	"smartvlc/internal/alloctest"
	"smartvlc/internal/telemetry/prof"
)

// TestProfSteadyStateZeroAllocs pins the stage-profiler hooks on the PHY
// hot path at zero allocations per frame — with the profiler ARMED, not
// just nil: the handles are pre-created per level, so the per-frame cost
// is atomic adds only. The nil path is covered by the existing
// TestTransmitSteadyStateZeroAllocs / TestProcessSteadyStateZeroAllocs
// (Prof defaults to nil there) plus the nil-adder pins in
// internal/telemetry/prof.
func TestProfSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	link, ch, factory := fuzzOperatingPoint(t)
	slots := benchSlotsT(t, 0.5, 2, 200)
	pcg := rand.NewPCG(5, 6)

	p := prof.New()
	link.Prof = p.Stage("phy.tx", "amppm", "0.50", "")
	rx := NewReceiver(ch, factory)
	rx.SetProf(p.Stage("phy.hunt", "amppm", "0.50", ""), p.Stage("phy.decode", "amppm", "0.50", ""))

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	link.StartPhase = rand.New(pcg).Float64()
	samples := link.TransmitPCG(pcg, slots)
	if res, stats := rx.Process(samples); len(res) != 2 || stats.FramesOK != 2 {
		t.Fatalf("warmup decode: %d frames (stats %+v)", len(res), stats)
	}
	if n, _ := alloctest.Count(20, func() {
		RecycleSamples(link.TransmitPCG(pcg, slots))
	}); n != 0 {
		t.Errorf("armed TransmitPCG steady state: %d allocs over 20 calls", n)
	}
	if n, _ := alloctest.Count(20, func() {
		rx.Process(samples)
	}); n != 0 {
		t.Errorf("armed Process steady state: %d allocs over 20 calls", n)
	}
	if snap := p.Snapshot(); len(snap.Series) == 0 {
		t.Fatal("armed run recorded no series")
	}
}
