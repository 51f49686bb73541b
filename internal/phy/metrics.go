package phy

import (
	"errors"

	"smartvlc/internal/frame"
	"smartvlc/internal/telemetry"
)

// TxMetrics instruments Link.TransmitPCG. A nil *TxMetrics (the default) is a
// no-op, so the per-sample fast-path accounting costs one nil check when
// telemetry is off. Handles are created once per session; the hot path
// performs only atomic adds.
type TxMetrics struct {
	// SettledWindows counts sample windows served by the settled-slot fast
	// path (cached per-state sampler, no slew integration).
	SettledWindows *telemetry.Counter
	// ExactWindows counts sample windows that took the per-segment slew
	// integration (the "ODE path").
	ExactWindows *telemetry.Counter
	// Frames counts TransmitPCG calls; Samples counts emitted RX samples.
	Frames  *telemetry.Counter
	Samples *telemetry.Counter
}

// NewTxMetrics builds the transmit-side instrument handles on a registry.
// Returns nil on a nil registry — the no-op default.
func NewTxMetrics(r *telemetry.Registry) *TxMetrics {
	if r == nil {
		return nil
	}
	r.Help("phy_tx_windows_total", "Sample windows by transmit path (settled fast path vs exact slew integration).")
	return &TxMetrics{
		SettledWindows: r.Counter("phy_tx_windows_total", "path", "settled"),
		ExactWindows:   r.Counter("phy_tx_windows_total", "path", "exact"),
		Frames:         r.Counter("phy_tx_frames_total"),
		Samples:        r.Counter("phy_tx_samples_total"),
	}
}

// onWindows records one TransmitPCG's settled/exact window totals in a
// single pair of atomic adds — the transmitter counts per call, not per
// window.
func (m *TxMetrics) onWindows(settled, exact int) {
	if m != nil {
		m.SettledWindows.Add(int64(settled))
		m.ExactWindows.Add(int64(exact))
	}
}

func (m *TxMetrics) onTransmit(samples int) {
	if m != nil {
		m.Frames.Inc()
		m.Samples.Add(int64(samples))
	}
}

// decodeErrorClasses is the fixed label set for decode failures. Every
// frame.Parse error collapses onto one of these, keeping the metric
// cardinality bounded no matter what the channel synthesizes.
var decodeErrorClasses = []struct {
	err   error
	class string
}{
	{frame.ErrNoPreamble, "preamble"},
	{frame.ErrBadManchester, "manchester"},
	{frame.ErrTruncated, "truncated"},
	{frame.ErrBadSync, "sync"},
	{frame.ErrCRC, "crc"},
	{frame.ErrPayloadTooLong, "payload_len"},
}

// classifyDecodeError maps a frame.Parse error onto the bounded decode
// error class set shared by metrics, spans, logs and the flight recorder:
// "preamble", "manchester", "truncated", "sync", "crc", "payload_len" or
// "other".
func classifyDecodeError(err error) string {
	for _, c := range decodeErrorClasses {
		if errors.Is(err, c.err) {
			return c.class
		}
	}
	return "other"
}

// RxMetrics counts receiver outcomes, folded from Receiver.Events by
// Observe. A nil *RxMetrics is a no-op.
type RxMetrics struct {
	// PreambleLocks counts accepted preamble positions (locked offsets),
	// including false locks that later fail validation.
	PreambleLocks *telemetry.Counter
	// FramesOK and FramesBad mirror Stats.FramesOK/FramesBad.
	FramesOK, FramesBad *telemetry.Counter
	// SymbolErrors accumulates constituent-symbol anomalies in good frames.
	SymbolErrors *telemetry.Counter
	// Threshold tracks the current detection threshold (per channel
	// rebuild) in counts.
	Threshold *telemetry.Gauge

	decodeErrors map[string]*telemetry.Counter
}

// NewRxMetrics builds the receive-side instrument handles on a registry.
// Returns nil on a nil registry — the no-op default. All decode-error
// class counters are pre-created so the failure path allocates nothing.
func NewRxMetrics(r *telemetry.Registry) *RxMetrics {
	if r == nil {
		return nil
	}
	r.Help("phy_rx_frames_total", "Receiver frame outcomes.")
	r.Help("phy_rx_decode_errors_total", "Frame decode failures by error class.")
	r.Help("phy_rx_threshold_counts", "Detection threshold of the current channel, in photon counts per 3-sample window.")
	m := &RxMetrics{
		PreambleLocks: r.Counter("phy_rx_preamble_locks_total"),
		FramesOK:      r.Counter("phy_rx_frames_total", "outcome", "ok"),
		FramesBad:     r.Counter("phy_rx_frames_total", "outcome", "bad"),
		SymbolErrors:  r.Counter("phy_rx_symbol_errors_total"),
		Threshold:     r.Gauge("phy_rx_threshold_counts"),
		decodeErrors:  map[string]*telemetry.Counter{},
	}
	for _, c := range decodeErrorClasses {
		m.decodeErrors[c.class] = r.Counter("phy_rx_decode_errors_total", "class", c.class)
	}
	m.decodeErrors["other"] = r.Counter("phy_rx_decode_errors_total", "class", "other")
	return m
}

// Observe folds one Process call's events into the counters: a lock per
// event, then a clean frame with its symbol errors or a failed parse by
// decode class.
func (m *RxMetrics) Observe(events []Event) {
	if m == nil || len(events) == 0 {
		return
	}
	m.PreambleLocks.Add(int64(len(events)))
	for _, e := range events {
		if e.Err != nil {
			m.FramesBad.Inc()
			m.decodeErrors[classifyDecodeError(e.Err)].Inc()
			continue
		}
		m.FramesOK.Inc()
		m.SymbolErrors.Add(int64(e.SymbolErrors))
	}
}

// OnChannel records the receiver's per-channel calibration outcome; the
// session loop calls it after every channel rebuild.
func (m *RxMetrics) OnChannel(threshold int) {
	if m != nil {
		m.Threshold.Set(float64(threshold))
	}
}

// Threshold-cache efficiency counters live on the process-global registry:
// the cache is shared across sessions, so its hit rate is a property of
// the process, not of any one (deterministic) session.
var (
	thrCacheHits   = telemetry.Global().Counter("phy_threshold_cache_total", "result", "hit")
	thrCacheMisses = telemetry.Global().Counter("phy_threshold_cache_total", "result", "miss")
)

// ThresholdCacheStats reports cumulative hit/miss counts of the
// per-channel detection-threshold cache.
func ThresholdCacheStats() (hits, misses int64) {
	return thrCacheHits.Value(), thrCacheMisses.Value()
}
