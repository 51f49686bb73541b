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
	"sync"

	"smartvlc/internal/telemetry"
)

// Config parameterizes an Aggregator. The zero value selects the
// defaults noted per field.
type Config struct {
	// WindowSeconds is the aggregation window width on the simulation
	// clock (default 0.1). Sessions flush deltas at multiples of it;
	// attribution granularity is one window, so keep it comfortably above
	// a frame's airtime.
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

func (c Config) withDefaults() Config {
	if c.WindowSeconds <= 0 {
		c.WindowSeconds = 0.1
	}
	if c.Levels <= 0 {
		c.Levels = 3
	}
	if c.Levels > 6 {
		c.Levels = 6
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

// raw is one window's (or one session's cumulative) reduced counts —
// everything a delta snapshot contributes to the fold, in fixed size.
type raw struct {
	framesTx, framesOK, framesBad int64
	symbolErrors, symbols         int64
	timeouts, acks                int64
	deliveredBytes                int64
	ackCount                      int64
	ackSum                        float64
	ackBuckets                    [64]int64
	levelSum                      float64
	levelN                        int64
}

func (r *raw) add(o *raw) {
	r.framesTx += o.framesTx
	r.framesOK += o.framesOK
	r.framesBad += o.framesBad
	r.symbolErrors += o.symbolErrors
	r.symbols += o.symbols
	r.timeouts += o.timeouts
	r.acks += o.acks
	r.deliveredBytes += o.deliveredBytes
	r.ackCount += o.ackCount
	r.ackSum += o.ackSum
	for i, n := range o.ackBuckets {
		r.ackBuckets[i] += n
	}
	r.levelSum += o.levelSum
	r.levelN += o.levelN
}

// sub subtracts o fieldwise — turning two cumulative reads into the
// increment between them. Gauge fields are subtracted too; the caller
// re-imposes current-value semantics on them (see Feed.flush).
func (r *raw) sub(o *raw) {
	r.framesTx -= o.framesTx
	r.framesOK -= o.framesOK
	r.framesBad -= o.framesBad
	r.symbolErrors -= o.symbolErrors
	r.symbols -= o.symbols
	r.timeouts -= o.timeouts
	r.acks -= o.acks
	r.deliveredBytes -= o.deliveredBytes
	r.ackCount -= o.ackCount
	r.ackSum -= o.ackSum
	for i, n := range o.ackBuckets {
		r.ackBuckets[i] -= n
	}
	r.levelSum -= o.levelSum
	r.levelN -= o.levelN
}

// pending is one delivered-but-unsealed window contribution.
type pending struct {
	raw     raw
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
	cum     raw
	windows int64 // windows folded into cum
}

// level is one pyramid resolution: a bounded ring of sealed points plus
// the open accumulation of the next coarser group.
type level struct {
	width   float64 // seconds per point at this resolution
	ring    []Point
	dropped int64
	open    Point
	openRaw raw
	openN   int
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
	levels   []level
}

// New returns an aggregator for a fleet of n sessions with the given
// config. Every one of the n sessions must be registered via Feed and
// must deliver windows (the sim run loop does this when Config.Watch is
// set) — a fleet window only seals once all sessions have reported it.
func New(cfg Config, n int) (*Aggregator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("agg: fleet of %d sessions", n)
	}
	cfg = cfg.withDefaults()
	a := &Aggregator{cfg: cfg, sessions: make([]*sessionState, n)}
	for i := range a.sessions {
		a.sessions[i] = &sessionState{}
	}
	w := cfg.WindowSeconds
	for k := 0; k < cfg.Levels; k++ {
		a.levels = append(a.levels, level{width: w})
		w *= float64(cfg.Factor)
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
func (a *Aggregator) observe(idx int, r raw, partial, done bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.sessions[idx]
	if s.done {
		return
	}
	s.pending = append(s.pending, pending{raw: r, partial: partial})
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
		var sum raw
		p := Point{
			Index: w,
			Start: float64(w) * a.cfg.WindowSeconds,
			End:   float64(w+1) * a.cfg.WindowSeconds,
		}
		for _, s := range a.sessions {
			if len(s.pending) == 0 {
				continue // finished before this window
			}
			c := s.pending[0]
			s.pending = s.pending[1:]
			sum.add(&c.raw)
			s.cum.add(&c.raw)
			s.windows++
			p.Sessions++
			if c.partial {
				p.Partial = true
			}
		}
		p.fill(&sum)
		a.seal(0, p)
		a.sealed++
	}
}

// seal pushes a finished point into level k's ring and cascades it into
// the open accumulation of level k+1, sealing that level too whenever a
// full group of Factor points completes.
func (a *Aggregator) seal(k int, p Point) {
	lv := &a.levels[k]
	if len(lv.ring) == a.cfg.Capacity {
		copy(lv.ring, lv.ring[1:])
		lv.ring = lv.ring[:len(lv.ring)-1]
		lv.dropped++
	}
	lv.ring = append(lv.ring, p)
	if k+1 >= len(a.levels) {
		return
	}
	up := &a.levels[k+1]
	up.absorb(p, a.cfg.Factor)
	if up.openN == a.cfg.Factor {
		q := up.open
		q.fill(&up.openRaw)
		up.open, up.openRaw, up.openN = Point{}, raw{}, 0
		a.seal(k+1, q)
	}
	// Incomplete coarser groups stay open; Snapshot renders them as
	// Partial points without sealing, so the grid never commits a group
	// it might still extend.
}

// absorb folds one finer point into the level's open accumulation. Raw
// counts come back from the point's own raw fields, so the coarser point
// is an exact sum, never an average of averages.
func (lv *level) absorb(p Point, factor int) {
	if lv.openN == 0 {
		lv.open = Point{Index: p.Index / int64(factor), Start: p.Start, End: p.End}
	}
	if p.Start < lv.open.Start {
		lv.open.Start = p.Start
	}
	if p.End > lv.open.End {
		lv.open.End = p.End
	}
	lv.open.Sessions = max(lv.open.Sessions, p.Sessions)
	if p.Partial {
		lv.open.Partial = true
	}
	lv.openRaw.add(&raw{
		framesTx: p.FramesTx, framesOK: p.FramesOK, framesBad: p.FramesBad,
		symbolErrors: p.SymbolErrors, symbols: p.Symbols,
		timeouts: p.Timeouts, acks: p.Acks,
		deliveredBytes: p.DeliveredBytes,
		ackCount:       p.AckCount, ackSum: p.AckSum,
		levelSum: p.LevelSum, levelN: p.LevelN,
	})
	for _, b := range p.AckBuckets {
		if b.Index >= 0 && b.Index < len(lv.openRaw.ackBuckets) {
			lv.openRaw.ackBuckets[b.Index] += b.Count
		}
	}
	lv.openN++
}

// stats derives a session's current worst-session row from its
// cumulative totals. elapsed is the sim time covered by its folded
// windows.
func (s *sessionState) stats(windowSeconds float64) SessionStat {
	st := SessionStat{
		Session: s.meta.Index, Seed: s.meta.Seed, Scheme: s.meta.Scheme,
		Windows: s.windows, Done: s.done,
		FramesTx: s.cum.framesTx, FramesOK: s.cum.framesOK, FramesBad: s.cum.framesBad,
		SymbolErrors: s.cum.symbolErrors, Symbols: s.cum.symbols,
		Timeouts: s.cum.timeouts, DeliveredBytes: s.cum.deliveredBytes,
	}
	if s.cum.symbols > 0 {
		st.SER = float64(s.cum.symbolErrors) / float64(s.cum.symbols)
	}
	if s.cum.framesTx > 0 {
		st.BurnRate = float64(s.cum.timeouts) / float64(s.cum.framesTx)
	}
	if s.cum.ackCount > 0 {
		st.AckP95 = telemetry.QuantileOf(sparseBuckets(&s.cum.ackBuckets), s.cum.ackCount, 0.95)
	}
	if elapsed := float64(s.windows) * windowSeconds; elapsed > 0 {
		st.GoodputBps = float64(s.cum.deliveredBytes) * 8 / elapsed
	}
	return st
}

// sparseBuckets converts a dense bucket array to the sparse sorted form
// telemetry.QuantileOf consumes.
func sparseBuckets(b *[64]int64) []telemetry.Bucket {
	var out []telemetry.Bucket // nil when empty, so omitempty JSON round-trips
	for i, n := range b {
		if n > 0 {
			out = append(out, telemetry.Bucket{Index: i, Count: n})
		}
	}
	return out
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
	prev   raw // cumulative series values at the previous flush
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
		f.agg.observe(f.meta.Index, raw{}, false, false)
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
	d.sub(&f.prev)
	f.prev = cur
	// Gauges carry the current level verbatim, never a difference —
	// matching the Registry.Delta contract the fold is defined against.
	d.levelSum, d.levelN = cur.levelSum, cur.levelN
	d.symbols = d.framesOK * int64(f.meta.PayloadBytes)
	f.agg.observe(f.meta.Index, d, partial, done)
	f.window++
}

// read loads the KPI series' current cumulative values. Handles still
// missing are re-looked-up, since a series only exists after the session
// first touches it; nil handles read as zero.
func (f *Feed) read(reg *telemetry.Registry) raw {
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
	var r raw
	r.framesTx = f.framesTx.Value()
	r.framesOK = f.framesOK.Value()
	r.framesBad = f.framesBad.Value()
	r.symbolErrors = f.symbolErrors.Value()
	r.timeouts = f.timeouts.Value()
	r.acks = f.acks.Value()
	r.deliveredBytes = f.delivered.Value()
	r.ackCount = f.ackLatency.Count()
	r.ackSum = f.ackLatency.Sum()
	f.ackLatency.BucketCounts(&r.ackBuckets)
	if f.dim != nil {
		r.levelSum = f.dim.Value()
		r.levelN = 1
	}
	return r
}
