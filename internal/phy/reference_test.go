package phy

import (
	"math"
	"math/rand/v2"

	"smartvlc/internal/frame"
	"smartvlc/internal/photon"
)

// This file preserves the original per-sample implementations of the PHY
// hot path, exactly as they were before the sample-domain fast path was
// introduced. They are test oracles only: the equivalence tests and the
// fuzzers run fixed-seed sessions through both pipelines and assert that the fast
// path decodes byte-identical payloads (and, for the receiver, produces
// bit-identical Results and Stats on any stream). Keep them in sync with
// nothing — they are the golden semantics.

// referenceTransmit is the original transmitter: per-segment slew
// integration for every sample window, no settled-slot shortcut, no
// cached samplers, no buffer pooling.
func (l Link) referenceTransmit(rng *rand.Rand, slots []bool) []int {
	tslot := l.TxClock.TickSeconds()
	tsamp := l.RxClock.TickSeconds()
	t0 := l.StartPhase * tsamp // slot grid shift relative to sample grid
	total := float64(len(slots))*tslot + t0
	nSamples := int(math.Ceil(total/tsamp)) + 8
	out := make([]int, 0, nSamples)

	intensity := 0.0
	if len(slots) > 0 && slots[0] {
		intensity = 1
	}
	slotIdx := 0
	slotEnd := t0 + tslot
	cursor := 0.0
	for j := 0; j < nSamples; j++ {
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
		count := photon.Sample(rng, lambda)
		out = append(out, l.ADC.Quantize(count))
		cursor = winEnd
	}
	return out
}

// refSlotAt is the original slotAt: it re-sums the three detection
// samples on every probe.
func refSlotAt(samples []int, offset, s, thr int) (bool, bool) {
	base := offset + s*Oversample
	if base+3 >= len(samples) {
		return false, false
	}
	return samples[base+1]+samples[base+2]+samples[base+3] >= thr, true
}

func (r *Receiver) refPreambleAt(samples []int, offset int) bool {
	for s := 0; s < frame.PreambleSlots; s++ {
		v, ok := refSlotAt(samples, offset, s, r.thr)
		if !ok || v != (s%2 == 0) {
			return false
		}
	}
	return true
}

func refPreambleScore(samples []int, offset int) int {
	score := 0
	for s := 0; s < frame.PreambleSlots; s++ {
		base := offset + s*Oversample
		if base < 0 || base+3 >= len(samples) {
			return math.MinInt
		}
		w := samples[base+1] + samples[base+2] + samples[base+3]
		if s%2 == 0 {
			score += w
		} else {
			score -= w
		}
	}
	return score
}

func refLockOffset(samples []int, i int) int {
	best, bestScore := i, math.MinInt
	for cand := i - 1; cand <= i+2; cand++ {
		if s := refPreambleScore(samples, cand); s > bestScore {
			best, bestScore = cand, s
		}
	}
	return best
}

func (r *Receiver) refPhaseScore(samples []int, offset, fromSlot, nSlots int) int {
	score := 0
	for s := fromSlot; s < fromSlot+nSlots; s++ {
		base := offset + s*Oversample
		if base < 0 || base+3 >= len(samples) {
			break
		}
		w := samples[base+1] + samples[base+2] + samples[base+3]
		d := w - r.thr
		if d < 0 {
			d = -d
		}
		score += d
	}
	return score
}

func (r *Receiver) refFoldSlots(samples []int, offset, maxSlots int) []bool {
	out := make([]bool, 0, maxSlots)
	cur := offset
	for s := 0; s < maxSlots; s++ {
		if s > 0 && s%retrackEvery == 0 {
			const span = 32
			best, bestScore := 0, r.refPhaseScore(samples, cur, s, span)
			for _, shift := range []int{-1, 1} {
				if sc := r.refPhaseScore(samples, cur+shift, s, span); sc > bestScore+bestScore/16 {
					best, bestScore = shift, sc
				}
			}
			cur += best
		}
		v, ok := refSlotAt(samples, cur, s, r.thr)
		if !ok {
			break
		}
		out = append(out, v)
	}
	return out
}

// referenceProcess is the original Receiver.Process: every probe re-sums
// its detection window from the raw samples.
func (r *Receiver) referenceProcess(samples []int) ([]frame.Result, Stats) {
	var results []frame.Result
	var stats Stats
	i := 0
	for i+frame.PreambleSlots*Oversample < len(samples) {
		if !r.refPreambleAt(samples, i) {
			i++
			continue
		}
		locked := refLockOffset(samples, i)
		maxSlots := (len(samples) - locked) / Oversample
		slots := r.refFoldSlots(samples, locked, maxSlots)
		res, err := frame.Parse(slots, r.factory)
		if err != nil {
			stats.FramesBad++
			stats.count(err)
			i++
			continue
		}
		stats.FramesOK++
		stats.SymbolErrors += res.SymbolErrors
		results = append(results, res)
		r.refUpdateAmbient(samples, locked, slots, res.SlotsConsumed)
		next := locked + res.SlotsConsumed*Oversample - Oversample
		if next <= i {
			next = i + 1
		}
		i = next
	}
	return results, stats
}

// refUpdateAmbient is the original ambient update: a float sum over the
// OFF–OFF slots, branching on each slot pair and stopping at the first
// one whose window runs past the samples.
func (r *Receiver) refUpdateAmbient(samples []int, offset int, slots []bool, consumed int) {
	sum, n := 0.0, 0
	for s := 1; s < consumed && s < len(slots); s++ {
		if slots[s] || slots[s-1] {
			continue
		}
		base := offset + s*Oversample
		if base+2 >= len(samples) {
			break
		}
		sum += float64(samples[base+1] + samples[base+2])
		n++
	}
	if n < 4 {
		return
	}
	est := sum / float64(n)
	if !r.ambientSet {
		r.ambientEMA, r.ambientSet = est, true
		return
	}
	r.ambientEMA += 0.05 * (est - r.ambientEMA)
}
