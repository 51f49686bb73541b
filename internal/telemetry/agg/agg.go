// Package agg is SmartVLC's streaming fleet aggregator: it folds
// per-session telemetry deltas into fleet-wide time-series rollups and a
// worst-sessions table while the fleet is still running.
//
// The determinism contract extends the rest of the observability stack
// to the live view. Each session flushes a delta snapshot
// (telemetry.Registry.Delta) at its own sim-clock window boundaries, so
// the flush schedule is a pure function of (config, seed) — never of
// goroutine scheduling. The aggregator seals fleet window w only once
// every session has delivered window w (or finished), and folds the
// deltas in config order. Sealed windows, the rollup pyramid built from
// them and the worst-session tables are therefore byte-identical for any
// worker count and GOMAXPROCS. What varies with scheduling is only *when*
// a live observer sees a window seal — never its contents.
//
// Aggregated state is bounded: deltas are reduced to fixed-size raw
// counts on arrival, each pyramid level retains at most Capacity points
// (evictions are counted in Series.Dropped), and per-session totals are
// one small struct per session.
package agg

import (
	"fmt"
	"math"
	"sync"

	"smartvlc/internal/telemetry"
)

// Config parameterizes an Aggregator. The zero value selects the
// defaults noted per field.
type Config struct {
	// WindowSeconds is the aggregation window width on the simulation
	// clock (default 0.1 when zero or negative). Sessions flush deltas at
	// multiples of it; attribution granularity is one window, so keep it
	// comfortably above a frame's airtime. New rejects a non-finite width
	// and one below minWindowSeconds.
	WindowSeconds float64
	// Levels is the downsampling pyramid depth (default 3, max 6): level
	// k aggregates Factor^k windows per point.
	Levels int
	// Factor is the per-level downsampling factor (default 10).
	Factor int
	// Capacity bounds each level's retained points (default 512); older
	// points are dropped (and counted) once a level overflows.
	Capacity int
	// K bounds the worst-sessions tables (default 8).
	K int
}

// minWindowSeconds is the narrowest window New accepts: one 8 µs slot,
// the paper's slot time. It bounds the windows a session flushes by the
// slots it runs.
const minWindowSeconds = 8e-6

func (c Config) withDefaults() Config {
	if c.WindowSeconds <= 0 {
		c.WindowSeconds = 0.1
	}
	if c.Levels <= 0 {
		c.Levels = 3
	}
	if c.Factor < 2 {
		c.Factor = 10
	}
	if c.Capacity <= 0 {
		c.Capacity = 512
	}
	if c.K <= 0 {
		c.K = 8
	}
	return c
}

// SessionMeta identifies one fleet session to the aggregator. Index is
// the config-order position (the fold order and the top-K tie-break);
// PayloadBytes recovers the symbol-count denominator of the paper's
// Eq. 3 SER bound from the per-frame metrics.
type SessionMeta struct {
	Index        int
	Seed         uint64
	Scheme       string
	PayloadBytes int
}

// pending is one delivered-but-unsealed window contribution.
type pending struct {
	counts  telemetry.Counts
	partial bool
}

// sessionState is the aggregator's per-session bookkeeping: the windows
// delivered but not yet sealed fleet-wide, and the cumulative totals
// behind the worst-sessions tables.
type sessionState struct {
	meta    SessionMeta
	fed     bool
	next    int64 // next window index this session will deliver
	done    bool
	pending []pending
	cum     telemetry.Counts
	windows int64 // windows folded into cum
}

// Aggregator folds per-session deltas into fleet windows. Create one
// with New, register every session with Feed, and read live or final
// state with Snapshot. All methods are safe for concurrent use — the
// sessions call their feeds from worker goroutines while an observer
// snapshots.
type Aggregator struct {
	mu       sync.Mutex
	cfg      Config
	sessions []*sessionState
	done     int
	sealed   int64 // fleet windows sealed so far (== next window to seal)
	pyr      *telemetry.Pyramid[Point]
	window   telemetry.Group // the fleet window being sealed
}

// New returns an aggregator for a fleet of n sessions with the given
// config. Every one of the n sessions must be registered via Feed and
// must deliver windows (the sim run loop does this when Config.Watch is
// set) — a fleet window only seals once all sessions have reported it.
func New(cfg Config, n int) (*Aggregator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("agg: fleet of %d sessions", n)
	}
	if w := cfg.WindowSeconds; math.IsNaN(w) || math.IsInf(w, 0) || (w > 0 && w < minWindowSeconds) {
		return nil, fmt.Errorf("agg: window of %g s, want a finite width of at least %g s", w, minWindowSeconds)
	}
	cfg = cfg.withDefaults()
	a := &Aggregator{
		cfg:      cfg,
		sessions: make([]*sessionState, n),
		pyr:      telemetry.NewPyramid(cfg.Levels, cfg.Factor, cfg.Capacity, newPoint),
	}
	for i := range a.sessions {
		a.sessions[i] = &sessionState{}
	}
	return a, nil
}

// WindowSeconds returns the resolved aggregation window width.
func (a *Aggregator) WindowSeconds() float64 { return a.cfg.WindowSeconds }

// Feed registers session meta.Index and returns its delta feed. Each
// session index must be registered exactly once.
func (a *Aggregator) Feed(meta SessionMeta) (*Feed, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if meta.Index < 0 || meta.Index >= len(a.sessions) {
		return nil, fmt.Errorf("agg: session index %d out of range [0,%d)", meta.Index, len(a.sessions))
	}
	s := a.sessions[meta.Index]
	if s.fed {
		return nil, fmt.Errorf("agg: session %d registered twice", meta.Index)
	}
	s.fed = true
	s.meta = meta
	return &Feed{agg: a, meta: meta}, nil
}

// observe ingests one window contribution from a session. Sessions
// deliver windows consecutively, so the contribution is appended at the
// session's cursor; sealing advances as far as the slowest session
// allows.
func (a *Aggregator) observe(idx int, c telemetry.Counts, partial, done bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.sessions[idx]
	if s.done {
		return
	}
	s.pending = append(s.pending, pending{counts: c, partial: partial})
	s.next++
	if done {
		s.done = true
		a.done++
	}
	a.advance()
}

// advance seals every fleet window all sessions have reported. Folding
// runs in config (session index) order, which is what makes the sealed
// contents independent of worker scheduling.
func (a *Aggregator) advance() {
	for {
		w := a.sealed
		live := false
		for _, s := range a.sessions {
			if !s.done && s.next <= w {
				return
			}
			if len(s.pending) > 0 {
				live = true
			}
		}
		if !live {
			return // every remaining session finished; nothing left to seal
		}
		g := &a.window
		*g = telemetry.Group{
			Index: w,
			Start: float64(w) * a.cfg.WindowSeconds,
			End:   float64(w+1) * a.cfg.WindowSeconds,
		}
		for _, s := range a.sessions {
			if len(s.pending) == 0 {
				continue // finished before this window
			}
			c := &s.pending[0]
			s.pending = s.pending[1:]
			g.Add(&c.counts)
			s.cum.Add(&c.counts)
			s.windows++
			g.Members++
			if c.partial {
				g.Partial = true
			}
		}
		a.pyr.Seal(g)
		a.sealed++
	}
}

// stats derives a session's current worst-session row from its
// cumulative totals. elapsed is the sim time covered by its folded
// windows.
func (s *sessionState) stats(windowSeconds float64) SessionStat {
	c := &s.cum
	r := c.Rates()
	st := SessionStat{
		Session: s.meta.Index, Seed: s.meta.Seed, Scheme: s.meta.Scheme,
		Windows: s.windows, Done: s.done,
		FramesTx: c.FramesTx, FramesOK: c.FramesOK, FramesBad: c.FramesBad,
		SymbolErrors: c.SymbolErrors, Symbols: c.Symbols,
		Timeouts: c.Timeouts, DeliveredBytes: c.Delivered,
		SER: r.SER, AckP95: r.AckP95,
	}
	if c.FramesTx > 0 {
		st.BurnRate = float64(c.Timeouts) / float64(c.FramesTx)
	}
	if elapsed := float64(s.windows) * windowSeconds; elapsed > 0 {
		st.GoodputBps = float64(c.Delivered) * 8 / elapsed
	}
	return st
}

// Feed is one session's delta channel into the aggregator. The sim run
// loop drives it: Tick at every frame boundary, Finish once at session
// end. A nil feed is the usual zero-cost no-op. Feeds are not safe for
// concurrent use — each belongs to exactly one session goroutine — but
// different feeds of one aggregator may run concurrently.
//
// Each flush contributes exactly what extracting a telemetry.Registry
// Delta would (TestFlushMatchesGenericDelta holds it to that) — counter
// and histogram increments since the previous flush, the gauge's current
// value — but reads the KPI series directly through cached handles
// instead of materializing a full snapshot, so the per-window cost is a
// handful of atomic loads rather than a copy-and-sort of the whole
// registry.
type Feed struct {
	agg    *Aggregator
	meta   SessionMeta
	window int64
	prev   telemetry.Counts // cumulative series values at the previous flush
	done   bool

	// KPI series handles, looked up lazily without creating (a series
	// appears in the registry only on the session's first use of it, and
	// creating it here would perturb the canonical telemetry snapshot).
	framesTx, framesOK, framesBad *telemetry.Counter
	symbolErrors, timeouts, acks  *telemetry.Counter
	delivered                     *telemetry.Counter
	dim                           *telemetry.Gauge
	ackLatency                    *telemetry.Histogram
}

// Aggregator returns the aggregator this feed delivers to (nil on a nil
// feed) — how fleet runners reach the shared rollup behind the feeds
// they were handed.
func (f *Feed) Aggregator() *Aggregator {
	if f == nil {
		return nil
	}
	return f.agg
}

// WindowSeconds returns the feed's flush interval (0 on nil, letting
// callers branch cheaply).
func (f *Feed) WindowSeconds() float64 {
	if f == nil {
		return 0
	}
	return f.agg.cfg.WindowSeconds
}

// Tick flushes the session's delta once the sim clock crosses the next
// window boundary. Activity since the previous flush is attributed to
// the first unflushed window; boundaries skipped in one jump (idle
// stretches longer than a window) emit empty windows so the fleet grid
// never stalls. No-op on nil.
func (f *Feed) Tick(now float64, reg *telemetry.Registry) {
	if f == nil || f.done {
		return
	}
	w := f.agg.cfg.WindowSeconds
	if now < float64(f.window+1)*w {
		return
	}
	f.flush(reg, false, false)
	for now >= float64(f.window+1)*w {
		f.agg.observe(f.meta.Index, telemetry.Counts{}, false, false)
		f.window++
	}
}

// Finish flushes the final (partial) window and marks the session done,
// releasing the fleet windows it was holding open. No-op on nil; calling
// it twice is safe.
func (f *Feed) Finish(now float64, reg *telemetry.Registry) {
	if f == nil || f.done {
		return
	}
	f.flush(reg, true, true)
	f.done = true
}

func (f *Feed) flush(reg *telemetry.Registry, partial, done bool) {
	cur := f.read(reg)
	d := cur
	d.Sub(&f.prev)
	f.prev = cur
	// Gauges carry the current level verbatim, never a difference —
	// matching the Registry.Delta contract the fold is defined against.
	d.LevelSum, d.LevelN = cur.LevelSum, cur.LevelN
	d.Symbols = d.FramesOK * int64(f.meta.PayloadBytes)
	f.agg.observe(f.meta.Index, d, partial, done)
	f.window++
}

// read loads the KPI series' current cumulative values. Handles still
// missing are re-looked-up, since a series only exists after the session
// first touches it; nil handles read as zero.
func (f *Feed) read(reg *telemetry.Registry) telemetry.Counts {
	if f.framesTx == nil {
		f.framesTx = reg.LookupCounter("sim_frames_tx_total")
	}
	if f.framesOK == nil {
		f.framesOK = reg.LookupCounter("phy_rx_frames_total", "outcome", "ok")
	}
	if f.framesBad == nil {
		f.framesBad = reg.LookupCounter("phy_rx_frames_total", "outcome", "bad")
	}
	if f.symbolErrors == nil {
		f.symbolErrors = reg.LookupCounter("phy_rx_symbol_errors_total")
	}
	if f.timeouts == nil {
		f.timeouts = reg.LookupCounter("mac_timeouts_total")
	}
	if f.acks == nil {
		f.acks = reg.LookupCounter("mac_acks_received_total")
	}
	if f.delivered == nil {
		f.delivered = reg.LookupCounter("sim_delivered_bytes_total")
	}
	if f.dim == nil {
		f.dim = reg.LookupGauge("sim_dimming_level")
	}
	if f.ackLatency == nil {
		f.ackLatency = reg.LookupHistogram("mac_ack_latency_seconds")
	}
	c := telemetry.Counts{
		FramesTx:     f.framesTx.Value(),
		FramesOK:     f.framesOK.Value(),
		FramesBad:    f.framesBad.Value(),
		SymbolErrors: f.symbolErrors.Value(),
		Timeouts:     f.timeouts.Value(),
		Acks:         f.acks.Value(),
		Delivered:    f.delivered.Value(),
		AckCount:     f.ackLatency.Count(),
		AckSum:       f.ackLatency.Sum(),
	}
	f.ackLatency.BucketCounts(&c.AckBuckets)
	if f.dim != nil {
		c.LevelSum = f.dim.Value()
		c.LevelN = 1
	}
	return c
}
