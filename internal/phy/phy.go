// Package phy is the physical layer of the simulated SmartVLC link: it
// turns slot waveforms into photon-count sample streams (transmit side:
// LED slew, propagation, Poisson detection, ADC) and sample streams back
// into parsed frames (receive side: threshold slicing, preamble hunting,
// 4× oversampled slot folding).
//
// The receive design mirrors the prototype: the receiver samples at four
// times the slot rate and integrates three of the four samples of each
// slot, which tolerates the sub-sample phase offset and slow drift caused
// by the independent TX/RX PRU oscillators; absolute alignment is
// recovered from the preamble of every frame.
//
// Both directions run on a sample-domain fast path (see DESIGN.md):
// TransmitPCG skips the per-segment slew integration for windows where
// the LED sits settled on a rail and for the two windows around each
// slot-value change, and Process precomputes all three-sample
// window sums once so every preamble probe, lock refinement and slot fold
// is an O(1) lookup. reference.go keeps the original per-sample
// implementations; equivalence tests pin the fast paths to them.
package phy

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"smartvlc/internal/frame"
	"smartvlc/internal/hw"
	"smartvlc/internal/photon"
	"smartvlc/internal/telemetry/prof"
)

// Oversample is the RX samples per TX slot (500 kHz / 125 kHz).
const Oversample = 4

// Link is the analog path from LED slots to ADC counts at one operating
// point (fixed geometry and ambient).
type Link struct {
	// TxClock ticks once per slot (nominal 125 kHz).
	TxClock hw.Clock
	// RxClock ticks once per sample (nominal 500 kHz).
	RxClock hw.Clock
	// LED is the luminaire slew model.
	LED hw.LED
	// Channel is the Poisson detection channel.
	Channel photon.Channel
	// ADC quantizes the counts.
	ADC hw.ADC
	// StartPhase offsets the transmitter's slot grid relative to the
	// receiver's sample grid, as a fraction of one sample period [0, 1).
	// The two ends are never phase-aligned in reality; the middle-two-
	// sample integration absorbs it.
	StartPhase float64
	// Metrics, when non-nil, counts fast-path vs exact windows per sample
	// and frames/samples per TransmitPCG. Nil (the default) is a no-op.
	Metrics *TxMetrics
	// Prof, when non-nil, attributes transmit cost (frames, samples,
	// slots) to the owning stage profiler series. Nil is a no-op.
	Prof *prof.Stage
}

// DefaultLink assembles the paper's prototype parameters around a channel.
// TX and RX run from independent oscillators with a small relative error.
func DefaultLink(ch photon.Channel) Link {
	return Link{
		TxClock: hw.Clock{NominalHz: 125e3, OffsetPPM: 8},
		RxClock: hw.Clock{NominalHz: 500e3, OffsetPPM: -8},
		LED:     hw.DefaultLED(),
		Channel: ch,
		ADC:     hw.DefaultADC(),
	}
}

// TransmitPCG converts a slot waveform into the RX's photon-count
// samples, drawing from a concrete PCG stream (the photon package's PCG
// samplers, whose uniforms inline). It models the LED's finite rise/fall,
// the clock offset between the two ends, and per-sample Poisson detection
// noise. The returned slice has one entry per RX sample covering the
// waveform's duration; pass it to RecycleSamples when done to avoid
// reallocating it for the next frame.
//
// It runs as one pass over the waveform's slot runs (DESIGN.md §12).
// While the LED rests on the rail of the current run, the windows that
// end inside the run are settled: their Poisson mean is a constant of the
// link, so railRun counts them and the rail's cached sampler block-fills
// them with its inverse-CDF table. The window holding the run's last
// slot boundary and the LED ramp window after it get their means in
// closed form (edgeWindows); any other window that touches a value
// transition or a ramp takes the exact per-segment slew integration.
// Those windows draw from photon's grid of Poisson tables
// (SampleGridPCG). Both draws consume the stream differently
// from the scalar reference path while the per-window distributions —
// and therefore every decode — do not (reference.go remains the
// equivalence oracle).
func (l Link) TransmitPCG(pcg *rand.PCG, slots []bool) []int {
	tslot := l.TxClock.TickSeconds()
	tsamp := l.RxClock.TickSeconds()
	t0 := l.StartPhase * tsamp // slot grid shift relative to sample grid
	total := float64(len(slots))*tslot + t0
	// Cover the full waveform plus a short tail during which the LED
	// holds its final state — otherwise the last slot of the last frame
	// loses its integration window to sample-count truncation.
	nSamples := int(math.Ceil(total/tsamp)) + 8
	out := newSampleBuf(nSamples)[:nSamples]
	onSampler := photon.SamplerFor(l.Channel.MeanFor(1, tsamp/tslot))
	offSampler := photon.SamplerFor(l.Channel.MeanFor(0, tsamp/tslot))
	// A rail whose draws cannot pass the ADC's code needs no clamp.
	maxCode := l.ADC.MaxCode
	clampOn := maxCode > 0 && onSampler.MaxCount() > maxCode
	clampOff := maxCode > 0 && offSampler.MaxCount() > maxCode

	intensity := 0.0 // LED optical output at the time cursor
	if len(slots) > 0 && slots[0] {
		intensity = 1 // assume the stream starts from a settled state
	}
	// Slot cursor: slotIdx is the slot active at the time cursor; its end
	// is slotEnd = t0 + (slotIdx+1)·tslot, advanced monotonically so
	// float rounding can never re-assign a window remainder to a stale
	// slot.
	slotIdx := 0
	slotEnd := t0 + tslot
	cursor := 0.0
	exact := 0
	for j := 0; j < nSamples; {
		// Advance the slot cursor to the slot active at the window start
		// (the per-segment path below re-checks this and is then a no-op).
		for slotEnd <= cursor+1e-15 && slotIdx < len(slots) {
			slotIdx++
			slotEnd += tslot
		}
		winEnd := cursor + tsamp
		// The LED rests on the active slot's value and the next slot
		// switches to the other inside this window, the boundary after
		// that lying past the window: the walk below would integrate the
		// rail up to the boundary and the ramp after it, in this window
		// and (while the ramp lasts and the next boundary does not cut
		// it) the next. edgeWindows makes the walk's float operations in
		// its order. (railRun would count no window here.)
		if slotIdx+1 < len(slots) && slots[slotIdx+1] != slots[slotIdx] &&
			intensity == float64(b2i(slots[slotIdx])) &&
			slotEnd < winEnd-1e-15 && slotEnd+tslot > winEnd {
			m0, n1, m1, n2, ramp := l.edgeWindows(intensity, cursor, winEnd, slotEnd, tsamp, tslot)
			slotIdx++
			slotEnd += tslot
			if ramp && j+1 < nSamples {
				out[j] = l.ADC.Quantize(photon.SampleGridPCG(pcg, m0))
				out[j+1] = l.ADC.Quantize(photon.SampleGridPCG(pcg, m1))
				intensity, cursor = n2, winEnd+tsamp
				exact += 2
				j += 2
				continue
			}
			out[j] = l.ADC.Quantize(photon.SampleGridPCG(pcg, m0))
			intensity, cursor = n1, winEnd
			exact++
			j++
			continue
		}
		if n, on, next := railRun(slots, slotIdx, slotEnd, cursor, tsamp, tslot, intensity, nSamples-j); n > 0 {
			chunk := out[j : j+n]
			if on {
				onSampler.SampleNPCG(pcg, chunk)
				if clampOn {
					l.ADC.QuantizeAll(chunk)
				}
			} else {
				offSampler.SampleNPCG(pcg, chunk)
				if clampOff {
					l.ADC.QuantizeAll(chunk)
				}
			}
			j += n
			cursor = next
			continue
		}
		lambda := 0.0
		t := cursor
		for t < winEnd-1e-15 {
			for slotEnd <= t+1e-15 && slotIdx < len(slots) {
				slotIdx++
				slotEnd += tslot
			}
			segEnd := slotEnd
			if slotIdx >= len(slots) {
				segEnd = winEnd // past the waveform: LED holds its state
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
		exact++
		cursor = winEnd
		j++
	}
	l.Metrics.onWindows(nSamples-exact, exact)
	l.Metrics.onTransmit(nSamples)
	l.Prof.Ops(1)
	l.Prof.Samples(int64(nSamples))
	l.Prof.Slots(int64(len(slots)))
	return out
}

// edgeWindows returns the Poisson means of the two windows around a slot
// boundary b in (cursor, winEnd) where the LED, resting on the rail r0
// up to b, starts toward the other one, r1: m0 is the boundary window's [cursor, winEnd) and n1
// the LED level at its end; m1 is the next window's [winEnd,
// winEnd+tsamp), with n2 the level at its end, and ramp reports whether
// that window is still a plain ramp toward r1 (the LED has not arrived
// and the slot after b lasts to the window's end). Each mean is the one
// the per-segment walk accumulates, by the same float operations in the
// same order: the walk's first segment holds r0 (LED.Step from a rail to
// itself stays put), so it adds MeanFor(r0, ·) to zero.
func (l *Link) edgeWindows(r0, cursor, winEnd, b, tsamp, tslot float64) (m0, n1, m1, n2 float64, ramp bool) {
	r1 := 1 - r0
	dt := winEnd - b
	n1 = l.LED.Step(r0, r1, dt)
	m0 = l.Channel.MeanFor(r0, (b-cursor)/tslot) + l.Channel.MeanFor((r0+n1)/2, dt/tslot)
	next := winEnd + tsamp
	// The walk's own guards for the next window: the slot after b is
	// still active at winEnd and the window is not degenerate (both
	// always hold at microsecond clocks).
	if n1 == r1 || b+tslot < next || b+tslot <= winEnd+1e-15 || winEnd >= next-1e-15 {
		return m0, n1, 0, n1, false
	}
	dt = next - winEnd
	n2 = l.LED.Step(n1, r1, dt)
	return m0, n1, l.Channel.MeanFor((n1+n2)/2, dt/tslot), n2, true
}

// railRun counts the settled windows that start at the cursor, at most
// max of them, and returns the count, the rail they sit on and the
// cursor after them. A window is settled when the LED rests exactly on a
// rail (intensity 0 or 1) and every slot the window touches holds that
// rail's value, under the same epsilon bookkeeping as the per-segment
// integration: the window must end no later than the last slot of the
// run holding slotIdx, or anywhere once that run reaches the end of the
// waveform, past which the LED holds the last slot's state. slotIdx and
// slotEnd identify the slot active at the cursor. The cursor advances by
// the same float additions the per-window walk makes, so the windows
// after the run stay bit-identical.
func railRun(slots []bool, slotIdx int, slotEnd, cursor, tsamp, tslot, intensity float64, max int) (n int, on bool, next float64) {
	if intensity != 0 && intensity != 1 {
		return 0, false, cursor
	}
	on = intensity == 1
	if i := min(slotIdx, len(slots)-1); (i >= 0 && slots[i]) != on {
		return 0, on, cursor
	}
	// Walk to the run's last slot, advancing its end exactly as the slot
	// cursor would.
	for slotIdx < len(slots)-1 && slots[slotIdx+1] == on {
		slotIdx++
		slotEnd += tslot
	}
	toEnd := slotIdx >= len(slots)-1
	for n < max && (toEnd || slotEnd >= cursor+tsamp-1e-15) {
		cursor += tsamp
		n++
	}
	return n, on, cursor
}

// DetectionFraction is the share of each slot the receiver integrates:
// samples 1..3 of the 4 per slot. Skipping sample 0 makes the window
// immune to any sub-sample phase offset in [0, 1) between the PRU clocks
// while keeping 75 % of the photons.
const DetectionFraction = 0.75

// Receiver folds sample streams into slots and parses frames. It also
// estimates the ambient light level from the OFF windows it sees — the
// paper's receiver senses ambient light and reports it to the transmitter
// over the Wi-Fi uplink (Fig. 2), and the LED's own emission must be
// excluded from that estimate, which the OFF windows do for free.
//
// A Receiver carries decode state (the ambient EMA and scratch buffers)
// and must not be shared between goroutines; build one per session.
type Receiver struct {
	factory frame.CodecFactory
	// thr is the detection threshold for the three-sample window.
	thr int

	// profHunt/profDecode, when non-nil, attribute receive cost to the
	// owning stage profiler series: hunt counts Process invocations,
	// samples scanned and scratch growth; decode counts parse attempts,
	// slots consumed, payload bytes and decode-scratch growth. Nil (the
	// default) is a no-op. Set via SetProf.
	profHunt   *prof.Stage
	profDecode *prof.Stage

	// ambient estimate state: an EMA over the per-block medians of
	// OFF-classified window sums.
	ambientEMA float64
	ambientSet bool

	// slotScratch is reused across frames by foldSlots; frame.Parse does
	// not retain the slot slice, so one buffer per receiver suffices.
	slotScratch []bool

	// batch holds the columnar Process scratch: prefix-sum and window
	// columns, the reusable results slice and the payload buffers the
	// decoded frames land in. See batch.go for the recycling contract.
	batch Batch

	// vWin3/vSlot/vPayloads are the VIRTUAL scratch high-water marks that
	// drive the prof alloc counters. A fresh receiver allocates exactly
	// when a column outgrows its scratch (grownInts and foldSlots size
	// capacity exactly, the payload spine grows one slot at a time), so
	// "needed size exceeded the high-water" reproduces the fresh alloc
	// pattern bit-for-bit even when the receiver is rented warm from an
	// arena and the real buffers already fit. Reset zeroes them so a
	// rented receiver's prof snapshot stays byte-identical to a
	// NewReceiver-per-rebuild run.
	vWin3     int
	vSlot     int
	vPayloads int
}

// thrCache memoizes the tuned detection threshold per channel operating
// point: NewReceiver is called per frame by System.Deliver and per
// channel rebuild by the session loop, and the Poisson tail scan behind
// OptimalThreshold is far more expensive than a map hit. A plain map
// under RWMutex (not sync.Map) spares the hot path from boxing the
// Channel key into an interface on every lookup.
var (
	thrCacheMu sync.RWMutex
	thrCache   = map[photon.Channel]int{}
)

const thrCacheMax = 1 << 12

// thresholdFor returns the tuned detection threshold for a channel
// operating point, memoized per channel. The Poisson-optimal threshold
// is floored at 30 % of the ON-window mean: in dark rooms the optimal
// value drops so low that LED slew leakage at slot boundaries (up to
// ~17 % of one ON sample) would flip OFF windows.
func thresholdFor(ch photon.Channel) int {
	thrCacheMu.RLock()
	thr, ok := thrCache[ch]
	thrCacheMu.RUnlock()
	if ok {
		thrCacheHits.Inc()
		return thr
	}
	thrCacheMisses.Inc()
	w := ch.Scaled(DetectionFraction)
	thr = w.OptimalThreshold()
	if floor := int(0.3*(w.SignalPerSlot+w.AmbientPerSlot) + 0.5); thr < floor {
		thr = floor
	}
	thrCacheMu.Lock()
	if len(thrCache) < thrCacheMax {
		thrCache[ch] = thr
	}
	thrCacheMu.Unlock()
	return thr
}

// NewReceiver builds a receiver for a channel operating point. The
// detection threshold is tuned to the channel (the prototype calibrates
// it from the measured signal and ambient levels); see thresholdFor.
func NewReceiver(ch photon.Channel, factory frame.CodecFactory) *Receiver {
	return &Receiver{factory: factory, thr: thresholdFor(ch)}
}

// Reset reconfigures the receiver for a channel operating point exactly
// as NewReceiver would, clearing all decode state (ambient estimate,
// events, profiler handles) while keeping the scratch columns, so a
// session arena or a System can reuse one receiver without allocating.
func (r *Receiver) Reset(ch photon.Channel, factory frame.CodecFactory) {
	r.factory = factory
	r.thr = thresholdFor(ch)
	r.batch.events = r.batch.events[:0]
	r.profHunt, r.profDecode = nil, nil
	r.ambientEMA, r.ambientSet = 0, false
	r.vWin3, r.vSlot, r.vPayloads = 0, 0, 0
}

// SetProf attaches stage profiler series for subsequent Process calls:
// hunt receives the scan cost, decode the parse cost. Pass nils to
// detach.
func (r *Receiver) SetProf(hunt, decode *prof.Stage) {
	r.profHunt = hunt
	r.profDecode = decode
}

// Threshold returns the three-sample detection threshold in counts.
func (r *Receiver) Threshold() int { return r.thr }

// slotAt looks up the integrated detection window of slot s (frame phase
// given by offset, in samples) and compares with the threshold. win3 is
// the precomputed window-sum array: win3[i] = samples[i+1..i+3].
func slotAt(win3 []int, offset, s, thr int) (bool, bool) {
	base := offset + s*Oversample
	if base < 0 || base >= len(win3) {
		return false, false
	}
	return win3[base] >= thr, true
}

// preambleAt reports whether a frame preamble starts at sample offset.
func (r *Receiver) preambleAt(win3 []int, offset int) bool {
	for s := 0; s < frame.PreambleSlots; s++ {
		v, ok := slotAt(win3, offset, s, r.thr)
		if !ok || v != (s%2 == 0) {
			return false
		}
	}
	return true
}

// preambleScore is the alternating-preamble correlation at a sample
// offset: ON-slot window energy minus OFF-slot window energy. It peaks
// when the integration windows sit fully inside their slots.
func preambleScore(win3 []int, offset int) int {
	score := 0
	for s := 0; s < frame.PreambleSlots; s++ {
		base := offset + s*Oversample
		if base < 0 || base >= len(win3) {
			return math.MinInt
		}
		if s%2 == 0 {
			score += win3[base]
		} else {
			score -= win3[base]
		}
	}
	return score
}

// lockOffset refines a passing preamble position by maximizing the
// correlation over nearby sample offsets. This is the per-frame clock
// recovery: the TX and RX PRU oscillators drift slowly, so each frame's
// preamble re-centers the slot phase before the payload is folded.
func lockOffset(win3 []int, i int) int {
	best, bestScore := i, math.MinInt
	for cand := i - 1; cand <= i+2; cand++ {
		if s := preambleScore(win3, cand); s > bestScore {
			best, bestScore = cand, s
		}
	}
	return best
}

// retrackEvery is the slot interval of the decision-directed phase
// tracker in foldSlots. At the worst PRU drift (±25 ppm each) the phase
// slips one sample every ~5000 slots, so re-tracking every 256 slots sees
// at most ~0.05 samples of movement per evaluation.
const retrackEvery = 256

// phaseScore rates slot alignment at a sample offset over a span of
// slots: well-aligned windows sit confidently far from the threshold,
// misaligned ones collapse toward it. This is a decision-directed
// early-late gate that needs no knowledge of the slot contents.
func (r *Receiver) phaseScore(win3 []int, offset, fromSlot, nSlots int) int {
	score := 0
	for s := fromSlot; s < fromSlot+nSlots; s++ {
		base := offset + s*Oversample
		if base < 0 || base >= len(win3) {
			break
		}
		d := win3[base] - r.thr
		if d < 0 {
			d = -d
		}
		score += d
	}
	return score
}

// foldSlots converts window sums starting at offset into at most maxSlots
// slot decisions, re-tracking the slot phase periodically so the TX/RX
// oscillator drift cannot walk the integration window out of its slot
// within long frames. The returned slice aliases the receiver's scratch
// buffer and is valid until the next foldSlots call.
func (r *Receiver) foldSlots(win3 []int, offset, maxSlots int) []bool {
	if maxSlots > r.vSlot {
		r.profDecode.Allocs(1)
		r.vSlot = maxSlots
	}
	if cap(r.slotScratch) < maxSlots {
		r.slotScratch = make([]bool, 0, maxSlots)
	}
	out := r.slotScratch[:0]
	cur := offset
	for s := 0; s < maxSlots; s++ {
		if s > 0 && s%retrackEvery == 0 {
			// Shift by ±1 sample only on a clear improvement; ties keep
			// the current phase (hysteresis against noise).
			const span = 32
			best, bestScore := 0, r.phaseScore(win3, cur, s, span)
			for _, shift := range []int{-1, 1} {
				if sc := r.phaseScore(win3, cur+shift, s, span); sc > bestScore+bestScore/16 {
					best, bestScore = shift, sc
				}
			}
			cur += best
		}
		v, ok := slotAt(win3, cur, s, r.thr)
		if !ok {
			break
		}
		out = append(out, v)
	}
	r.slotScratch = out
	return out
}

// Stats aggregates receiver-side outcomes.
type Stats struct {
	// FramesOK counts frames that passed all checks.
	FramesOK int
	// FramesBad counts preamble hits that failed header, sync, length or
	// CRC validation (noise hits and genuinely corrupt frames).
	FramesBad int
	// SymbolErrors sums constituent symbol anomalies across good frames.
	SymbolErrors int
	// Errors tallies parse failures by error text.
	Errors map[string]int
}

func (s *Stats) count(err error) {
	if s.Errors == nil {
		s.Errors = map[string]int{}
	}
	s.Errors[err.Error()]++
}

// Events returns one Event per preamble lock of the last Process call,
// in sample order. The slice aliases the receiver's batch and stays valid
// until the next Process or Reset.
func (r *Receiver) Events() []Event { return r.batch.events }

// AmbientWindowFraction is the slot share of the ambient-measurement
// window (samples 1 and 2 only). Narrower than the detection window, it
// stays inside its slot for phase errors up to a full sample in either
// direction, so slow intra-frame clock drift cannot leak neighbouring
// slots' light into the ambient estimate.
const AmbientWindowFraction = 0.5

// AmbientWindowCounts returns the receiver's running estimate of the
// ambient contribution to one measurement window (AmbientWindowFraction
// of a slot), in counts. ok is false until enough OFF windows were seen.
func (r *Receiver) AmbientWindowCounts() (counts float64, ok bool) {
	return r.ambientEMA, r.ambientSet
}

// updateAmbientFromFrame refines the ambient estimate using a frame that
// passed its CRC: the decoded slot values identify the OFF slots whose
// predecessor was also OFF, i.e. measurement windows guaranteed free of
// LED slew leakage. Averaging those is an unbiased ambient measurement no
// matter the dimming level.
//
// The loop takes no branch on the slot values: every slot's window sum
// is masked in or out. The sums stay integers, and every partial sum is
// an integer below 2^53 (a 12-bit ADC sample per window half), so the
// estimate is the one summing in float64 gives, bit for bit.
func (r *Receiver) updateAmbientFromFrame(samples []int, offset int, slots []bool, consumed int) {
	// Slot s reads samples up to offset + s·Oversample + 2.
	end := min(consumed, len(slots), (len(samples)-offset-3)/Oversample+1)
	sum, n := 0, 0
	prev := 0 // 1 when slot s−1 is ON
	if end > 1 {
		prev = b2i(slots[0])
	}
	for s := 1; s < end; s++ {
		cur := b2i(slots[s])
		off := 1 ^ (cur | prev) // 1 when both slots are OFF
		prev = cur
		base := offset + s*Oversample
		sum += (samples[base+1] + samples[base+2]) & -off
		n += off
	}
	if n < 4 {
		return
	}
	est := float64(sum) / float64(n)
	if !r.ambientSet {
		r.ambientEMA, r.ambientSet = est, true
		return
	}
	// Slow EMA: the estimate feeds the dimming controller, whose step
	// size is small, so photon noise must be averaged well below it.
	r.ambientEMA += 0.05 * (est - r.ambientEMA)
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a move of
// the bool's byte.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Process scans a sample stream, parses every frame it can find, and
// returns the payloads in order.
//
// It runs column-wise over the receiver's Batch scratch (DESIGN.md §12):
// a prefix-sum column over the samples, then the three-sample window
// column win3[i] = samples[i+1..i+3] = pre[i+4]−pre[i+1], so the preamble
// hunt, the lock refinement, the slot folding and the ambient estimate
// all reduce to O(1) column lookups instead of re-summing samples at
// every one of the ~500k offsets a simulated second contains. Decoded
// frame bodies land in per-receiver reusable payload buffers.
//
// Each preamble lock also leaves one Event (Events) — the record every
// observer folds; Process itself writes only the stage profiler's costs.
//
// The returned results — including every Payload — alias the receiver's
// Batch and stay valid only until the next Process call on this
// receiver. Callers that keep payloads across calls must copy them.
func (r *Receiver) Process(samples []int) ([]frame.Result, Stats) {
	results := r.batch.results[:0]
	events := r.batch.events[:0]
	var stats Stats
	r.profHunt.Ops(1)
	r.profHunt.Samples(int64(len(samples)))
	var win3 []int
	if n := len(samples) - 3; n > 0 {
		// win3[i] is the prefix-sum difference pre[i+4]−pre[i+1], computed
		// as one fused rolling pass so the column costs a single sweep
		// over the samples instead of materializing pre separately.
		if n > r.vWin3 {
			r.profHunt.Allocs(1)
			r.vWin3 = n
		}
		r.batch.win3 = grownInts(r.batch.win3, n)
		win3 = r.batch.win3
		w := samples[1] + samples[2] + samples[3]
		win3[0] = w
		for i := 1; i < n; i++ {
			w += samples[i+3] - samples[i]
			win3[i] = w
		}
	}
	i := 0
	limit := len(samples) - frame.PreambleSlots*Oversample
	thr := r.thr
	huntFrom := 0 // sample offset where the current hunt began
	for i < limit {
		// Skip-scan: the preamble starts with an ON slot, so any offset
		// whose slot-0 window sits below threshold cannot match. This tight
		// loop covers the dominant idle stretches at one compare per offset
		// instead of a preambleAt call. (limit <= len(win3) always:
		// PreambleSlots*Oversample > 3.)
		for i < limit && win3[i] < thr {
			i++
		}
		if i >= limit {
			break
		}
		if !r.preambleAt(win3, i) {
			i++
			continue
		}
		locked := lockOffset(win3, i)
		maxSlots := (len(samples) - locked) / Oversample
		slots := r.foldSlots(win3, locked, maxSlots)
		// Decode the frame body into the payload buffer reserved for this
		// result slot, growing the batch when a stream carries more frames
		// than any before it.
		k := len(results)
		if k == r.vPayloads {
			r.profDecode.Allocs(1)
			r.vPayloads++
		}
		if k == len(r.batch.payloads) {
			r.batch.payloads = append(r.batch.payloads, nil)
		}
		r.profDecode.Ops(1)
		res, pbuf, err := frame.ParseInto(slots, r.factory, r.batch.payloads[k])
		r.batch.payloads[k] = pbuf
		if err != nil {
			stats.FramesBad++
			stats.count(err)
			events = append(events, Event{From: huntFrom, Lock: locked, Err: err})
			i++ // resume hunting just past this false/failed lock
			huntFrom = i
			continue
		}
		stats.FramesOK++
		stats.SymbolErrors += res.SymbolErrors
		r.profDecode.Slots(int64(res.SlotsConsumed))
		r.profDecode.Bytes(int64(len(res.Payload)))
		events = append(events, Event{From: huntFrom, Lock: locked, Slots: res.SlotsConsumed, SymbolErrors: res.SymbolErrors})
		results = append(results, res)
		r.updateAmbientFromFrame(samples, locked, slots, res.SlotsConsumed)
		// Jump to just before the expected next preamble: one slot of
		// slack lets the next lock absorb accumulated clock drift in
		// either direction.
		next := locked + res.SlotsConsumed*Oversample - Oversample
		if next <= i {
			next = i + 1
		}
		i = next
		huntFrom = i
	}
	r.batch.results = results
	r.batch.events = events
	return results, stats
}

// String implements fmt.Stringer for quick experiment logs.
func (s Stats) String() string {
	return fmt.Sprintf("ok=%d bad=%d symErrs=%d", s.FramesOK, s.FramesBad, s.SymbolErrors)
}

// NewReceiverWithThreshold builds a receiver with an explicitly chosen
// detection threshold instead of deriving one from a channel model —
// used by offline tools decoding recorded sample streams whose channel
// parameters are unknown. Thresholds below 1 are clamped to 1 (a zero or
// negative threshold would classify every window, even an all-zero one,
// as ON).
func NewReceiverWithThreshold(threshold int, factory frame.CodecFactory) *Receiver {
	if threshold < 1 {
		threshold = 1
	}
	return &Receiver{factory: factory, thr: threshold}
}
