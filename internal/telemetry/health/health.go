// Package health is SmartVLC's deterministic link-health engine: windowed
// time-series rings sampled on the simulation clock, a declarative SLO
// engine with fast/slow burn-rate alerting, and a per-link state machine
// (ok → warning → critical) — the "is the link usable right now, and is
// it getting worse" view that post-hoc counters and span traces cannot
// give.
//
// The engine inherits the telemetry layer's two rules:
//
//   - Determinism. Every bucket boundary and alert transition is a pure
//     function of the observation stream and the simulation clock — never
//     wall time. All observations are fed from the sequential merge phase
//     of the session loop (the same shard-order merge that keeps span
//     traces worker-count invariant), so health series and SLO transitions
//     are byte-identical across seeds, worker counts and machines.
//
//   - Nil is the no-op default. Every method on a nil *Monitor returns
//     immediately, so sim hot paths carry the handle unconditionally and
//     pay only a nil check when health is off.
//
// Time is bucketed at a finest resolution of Config.BucketSlots slots
// (default 10 000 slots = 80 ms at the paper's 8 µs slot), then
// downsampled by Config.Factor into progressively coarser rings — a
// multi-resolution pyramid (10k/100k/1M slots by default) so a long run
// keeps both fine recent detail and coarse full-run history in fixed
// memory. SLOs are evaluated on the finest ring only; coarser rings exist
// for rendering and drill-down.
package health

import (
	"smartvlc/internal/telemetry"
)

// Config configures a Monitor. The zero value of every field selects a
// documented default, so `&health.Config{}` is a fully working setup.
type Config struct {
	// TSlotSeconds is the simulation slot duration used to convert slot
	// counts to seconds. Default 8e-6 (the paper's 8 µs slot).
	TSlotSeconds float64

	// BucketSlots is the finest bucket width in slots. Default 10 000
	// (80 ms — roughly eight default 128-byte frames), chosen so a single
	// bucket holds enough frames for its rates to be meaningful.
	BucketSlots int64

	// Levels is the number of ring resolutions (finest plus downsampled).
	// Default 3: BucketSlots, BucketSlots×Factor, BucketSlots×Factor².
	Levels int

	// Factor is the downsample ratio between adjacent resolutions.
	// Default 10.
	Factor int

	// Capacity is the maximum sealed points retained per ring; the oldest
	// are evicted (and counted in Series.Dropped). Default 1024.
	Capacity int

	// Objectives are the SLOs to evaluate; nil selects
	// DefaultObjectives().
	Objectives []Objective

	// Registry, when non-nil, receives a health_transitions_total counter
	// increment per alert transition, labelled by objective, the state
	// entered and (when set) the link.
	Registry *telemetry.Registry

	// OnAlert, when non-nil, is called synchronously for every state
	// transition — the hook sim.Run uses to arm the flight recorder on
	// critical. Fleet runs sharing one Config share the callback, which is
	// then invoked concurrently from session workers.
	OnAlert func(Transition)

	// Link labels this monitor's transitions and counter series (e.g.
	// "rx2" for a broadcast receiver). Empty for a single link.
	Link string
}

// monitor defaults.
const (
	defaultTSlot       = 8e-6
	defaultBucketSlots = 10_000
	defaultLevels      = 3
	defaultFactor      = 10
	defaultCapacity    = 1024
	maxLevels          = 6
)

func (c Config) withDefaults() Config {
	if c.TSlotSeconds <= 0 {
		c.TSlotSeconds = defaultTSlot
	}
	if c.BucketSlots <= 0 {
		c.BucketSlots = defaultBucketSlots
	}
	if c.Levels <= 0 {
		c.Levels = defaultLevels
	}
	if c.Levels > maxLevels {
		c.Levels = maxLevels
	}
	if c.Factor < 2 {
		c.Factor = defaultFactor
	}
	if c.Capacity <= 0 {
		c.Capacity = defaultCapacity
	}
	if c.Objectives == nil {
		c.Objectives = DefaultObjectives()
	}
	// Normalize into a fresh slice: fleet sessions share the caller's
	// Config value (and thus its Objectives backing array), so in-place
	// normalization would race across session workers.
	objs := make([]Objective, len(c.Objectives))
	for i, o := range c.Objectives {
		objs[i] = o.withDefaults()
	}
	c.Objectives = objs
	return c
}

// acc accumulates raw observations for one open bucket. Raw counts only;
// every derived rate is computed at seal time (and recomputed on merge),
// so folding accs into coarser buckets is exact.
type acc struct {
	framesTx      int64
	framesRetx    int64
	framesOK      int64
	framesBad     int64
	symbols       int64
	symbolErrors  int64
	deliveredBits int64
	txSlots       int64

	levelSum float64
	levelN   int64
	maxLevel float64

	ackCount   int64
	ackSum     float64
	ackBuckets [64]int64
}

func (a *acc) reset() { *a = acc{} }

func (a *acc) empty() bool {
	return a.framesTx == 0 && a.framesOK == 0 && a.framesBad == 0 &&
		a.levelN == 0 && a.ackCount == 0 && a.deliveredBits == 0
}

// fold adds src into a — the downsampling step from a sealed fine bucket
// into its open coarse parent.
func (a *acc) fold(src *acc) {
	a.framesTx += src.framesTx
	a.framesRetx += src.framesRetx
	a.framesOK += src.framesOK
	a.framesBad += src.framesBad
	a.symbols += src.symbols
	a.symbolErrors += src.symbolErrors
	a.deliveredBits += src.deliveredBits
	a.txSlots += src.txSlots
	a.levelSum += src.levelSum
	a.levelN += src.levelN
	if src.maxLevel > a.maxLevel {
		a.maxLevel = src.maxLevel
	}
	a.ackCount += src.ackCount
	a.ackSum += src.ackSum
	for i, n := range src.ackBuckets {
		a.ackBuckets[i] += n
	}
}

// point seals the acc into a Point covering [start, end). widthSlots is
// passed exactly (not re-derived from the float seconds) so full buckets
// carry integral widths.
func (a *acc) point(index int64, start, end, widthSlots float64, targetFn func(float64) float64) Point {
	p := Point{
		Index:         index,
		Start:         start,
		End:           end,
		Links:         1,
		FramesTx:      a.framesTx,
		FramesRetx:    a.framesRetx,
		FramesOK:      a.framesOK,
		FramesBad:     a.framesBad,
		Symbols:       a.symbols,
		SymbolErrors:  a.symbolErrors,
		DeliveredBits: a.deliveredBits,
		TxSlots:       a.txSlots,
		LevelSum:      a.levelSum,
		LevelN:        a.levelN,
		MaxLevel:      a.maxLevel,
		AckCount:      a.ackCount,
		AckSum:        a.ackSum,
	}
	for i, n := range a.ackBuckets {
		if n > 0 {
			p.AckBuckets = append(p.AckBuckets, telemetry.Bucket{Index: i, Count: n})
		}
	}
	if targetFn != nil {
		p.GoodputTarget = targetFn(p.meanLevel())
	}
	p.WidthSlots = widthSlots
	p.derive()
	return p
}

// ring holds the most recent Capacity sealed points at one resolution.
type ring struct {
	pts     []Point
	dropped int64
	cap     int
}

func (r *ring) push(p Point) {
	if len(r.pts) >= r.cap {
		copy(r.pts, r.pts[1:])
		r.pts = r.pts[:len(r.pts)-1]
		r.dropped++
	}
	r.pts = append(r.pts, p)
}

// Monitor is a single-link health engine. It is single-goroutine by
// design (observations arrive from the sequential phase of the sim
// loops); a nil Monitor is a no-op on every method.
type Monitor struct {
	cfg      Config
	tslot    float64
	open     []acc   // open bucket per resolution
	openIdx  []int64 // index of the open bucket at each resolution
	rings    []ring
	evals    []*sloEval
	trans    []Transition
	targetFn func(level float64) float64
	finished bool
}

// NewMonitor builds a Monitor from cfg (zero fields take defaults).
func NewMonitor(cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{
		cfg:     cfg,
		tslot:   cfg.TSlotSeconds,
		open:    make([]acc, cfg.Levels),
		openIdx: make([]int64, cfg.Levels),
		rings:   make([]ring, cfg.Levels),
	}
	for k := range m.rings {
		m.rings[k].cap = cfg.Capacity
	}
	for _, o := range cfg.Objectives {
		m.evals = append(m.evals, newSLOEval(o))
		if o.Metric == MetricGoodput && o.TargetForLevel != nil && m.targetFn == nil {
			m.targetFn = o.TargetForLevel
		}
	}
	if m.targetFn == nil {
		// No per-level target: resolve the static goodput target (if any)
		// so points still carry one for rendering and merge.
		for _, o := range cfg.Objectives {
			if o.Metric == MetricGoodput {
				t := o.Target
				m.targetFn = func(float64) float64 { return t }
				break
			}
		}
	}
	return m
}

// widthSlots returns the bucket width in slots at resolution k.
func (m *Monitor) widthSlots(k int) int64 {
	w := m.cfg.BucketSlots
	for i := 0; i < k; i++ {
		w *= int64(m.cfg.Factor)
	}
	return w
}

// advance seals every finest bucket that has fully elapsed by now,
// cascading downsampled seals into the coarser rings. Observations with a
// timestamp before the open bucket's start (side-channel ACKs whose
// at-time predates the frame that sealed the bucket) are clamped into the
// open bucket — a deterministic rule, documented as part of the format.
func (m *Monitor) advance(now float64) {
	if m.finished {
		return
	}
	for now >= float64(m.openIdx[0]+1)*float64(m.cfg.BucketSlots)*m.tslot {
		m.sealLevel(0)
	}
}

func (m *Monitor) sealLevel(k int) {
	w := m.widthSlots(k)
	idx := m.openIdx[k]
	start := float64(idx*w) * m.tslot
	end := float64((idx+1)*w) * m.tslot
	p := m.open[k].point(idx, start, end, float64(w), m.targetFn)
	m.rings[k].push(p)
	if k == 0 {
		m.evaluate(p)
	}
	if k+1 < m.cfg.Levels {
		m.open[k+1].fold(&m.open[k])
	}
	m.open[k].reset()
	m.openIdx[k]++
	if k+1 < m.cfg.Levels && m.openIdx[k]%int64(m.cfg.Factor) == 0 {
		m.sealLevel(k + 1)
	}
}

// evaluate feeds one sealed finest point to every SLO evaluator and fires
// any resulting transitions.
func (m *Monitor) evaluate(p Point) {
	for _, e := range m.evals {
		if t, ok := e.push(p); ok {
			t.Link = m.cfg.Link
			m.trans = append(m.trans, t)
			if r := m.cfg.Registry; r != nil {
				labels := []string{"objective", t.Objective, "state", t.To.String()}
				if m.cfg.Link != "" {
					labels = append(labels, "link", m.cfg.Link)
				}
				r.Counter("health_transitions_total", labels...).Inc()
			}
			if m.cfg.OnAlert != nil {
				m.cfg.OnAlert(t)
			}
		}
	}
}

// Tick advances the bucket clock to now without recording anything — call
// it during idle stretches so empty buckets still seal and SLO windows
// see the silence.
func (m *Monitor) Tick(now float64) {
	if m == nil {
		return
	}
	m.advance(now)
}

// ObserveLevel records the dimming level in effect at now.
func (m *Monitor) ObserveLevel(now, level float64) {
	if m == nil || m.finished {
		return
	}
	m.advance(now)
	a := &m.open[0]
	a.levelSum += level
	a.levelN++
	if level > a.maxLevel {
		a.maxLevel = level
	}
}

// ObserveTx records one transmitted frame of the given airtime (slots);
// retx marks a retransmission.
func (m *Monitor) ObserveTx(now float64, slots int, retx bool) {
	if m == nil || m.finished {
		return
	}
	m.advance(now)
	a := &m.open[0]
	a.framesTx++
	a.txSlots += int64(slots)
	if retx {
		a.framesRetx++
	}
}

// ObserveRx records one receiver pass: accepted/rejected frame counts,
// symbol errors, and the caller's symbol-count denominator (the sim
// passes decoded payload bytes of accepted frames — the denominator the
// paper's Eq. 3 SER bound is checked against).
func (m *Monitor) ObserveRx(now float64, framesOK, framesBad, symbolErrors, symbols int) {
	if m == nil || m.finished {
		return
	}
	m.advance(now)
	a := &m.open[0]
	a.framesOK += int64(framesOK)
	a.framesBad += int64(framesBad)
	a.symbolErrors += int64(symbolErrors)
	a.symbols += int64(symbols)
}

// ObserveDelivered records bits of newly delivered (deduplicated) payload.
func (m *Monitor) ObserveDelivered(now float64, bits int64) {
	if m == nil || m.finished {
		return
	}
	m.advance(now)
	m.open[0].deliveredBits += bits
}

// ObserveAck records one end-to-end ACK latency (first transmission of a
// sequence number to its acknowledgment), in seconds.
func (m *Monitor) ObserveAck(now, latencySeconds float64) {
	if m == nil || m.finished {
		return
	}
	m.advance(now)
	a := &m.open[0]
	a.ackCount++
	a.ackSum += latencySeconds
	a.ackBuckets[telemetry.HistogramBucketIndex(latencySeconds)]++
}

// State returns the worst current SLO state across objectives.
func (m *Monitor) State() State {
	if m == nil {
		return StateOK
	}
	worst := StateOK
	for _, e := range m.evals {
		if e.state > worst {
			worst = e.state
		}
	}
	return worst
}

// Snapshot returns the sealed series so far (open partial buckets
// excluded), safe to call mid-run. Returns nil on a nil Monitor.
func (m *Monitor) Snapshot() *Snapshot {
	if m == nil {
		return nil
	}
	return m.buildSnapshot()
}

// Finish seals all fully elapsed buckets, flushes the open partial bucket
// at every resolution (marked Partial), and returns the final snapshot.
// The monitor then stops accepting observations; further Finish calls
// return the same series.
func (m *Monitor) Finish(now float64) *Snapshot {
	if m == nil {
		return nil
	}
	if !m.finished {
		m.advance(now)
		for k := 0; k < m.cfg.Levels; k++ {
			w := m.widthSlots(k)
			start := float64(m.openIdx[k]*w) * m.tslot
			if m.open[k].empty() || now <= start {
				continue
			}
			p := m.open[k].point(m.openIdx[k], start, now, (now-start)/m.tslot, m.targetFn)
			p.Partial = true
			m.rings[k].push(p)
		}
		m.finished = true
	}
	return m.buildSnapshot()
}

func (m *Monitor) buildSnapshot() *Snapshot {
	s := &Snapshot{
		TSlotSeconds: m.tslot,
		BucketSlots:  m.cfg.BucketSlots,
		Factor:       m.cfg.Factor,
		Sessions:     1,
		Link:         m.cfg.Link,
		State:        m.State(),
		Series:       make([]Series, m.cfg.Levels),
		Objectives:   make([]ObjectiveReport, 0, len(m.evals)),
		Transitions:  append([]Transition{}, m.trans...),
	}
	for k := range m.rings {
		s.Series[k] = Series{
			Resolution:  k,
			BucketSlots: m.widthSlots(k),
			Dropped:     m.rings[k].dropped,
			Points:      append([]Point{}, m.rings[k].pts...),
		}
	}
	for _, e := range m.evals {
		s.Objectives = append(s.Objectives, e.report())
	}
	return s
}
