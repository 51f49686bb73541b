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
	// At most 6.
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

// Monitor is a single-link health engine. It is single-goroutine by
// design (observations arrive from the sequential phase of the sim
// loops); a nil Monitor is a no-op on every method.
type Monitor struct {
	cfg      Config
	tslot    float64
	open     telemetry.Group // the open finest bucket; Index is its index
	pyr      *telemetry.Pyramid[Point]
	evals    []*sloEval
	trans    []Transition
	targetFn func(level float64) float64
	finished bool
}

// NewMonitor builds a Monitor from cfg (zero fields take defaults).
func NewMonitor(cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{cfg: cfg, tslot: cfg.TSlotSeconds}
	m.pyr = telemetry.NewPyramid(cfg.Levels, cfg.Factor, cfg.Capacity, m.newPoint)
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

// newPoint builds the Point of one pyramid group. Its width in slots is the
// exact sum of its buckets' widths, so full buckets carry integral ones.
func (m *Monitor) newPoint(g *telemetry.Group) Point {
	p := Point{Index: g.Index, Start: g.Start, End: g.End, Partial: g.Partial, Links: 1, WidthSlots: g.Width}
	if m.targetFn != nil {
		p.GoodputTarget = m.targetFn(g.MeanLevel())
	}
	p.fill(&g.Counts)
	return p
}

// advance seals every finest bucket that has fully elapsed by now and
// feeds it to the SLO evaluators. Observations with a timestamp before
// the open bucket's start (side-channel ACKs whose at-time predates the
// frame that sealed the bucket) are clamped into the open bucket — a
// deterministic rule, documented as part of the format.
func (m *Monitor) advance(now float64) {
	if m.finished {
		return
	}
	w := m.cfg.BucketSlots
	for now >= float64(m.open.Index+1)*float64(w)*m.tslot {
		m.evaluate(m.seal(float64((m.open.Index+1)*w)*m.tslot, float64(w), false))
	}
}

// seal closes the open finest bucket at end, width slots wide, and hands
// it to the pyramid, which cascades it into the coarser resolutions.
func (m *Monitor) seal(end, width float64, partial bool) Point {
	g := &m.open
	g.Start = float64(g.Index*m.cfg.BucketSlots) * m.tslot
	g.End, g.Width, g.Partial = end, width, partial
	p := m.pyr.Seal(g)
	m.open = telemetry.Group{Index: g.Index + 1}
	return p
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
	a := &m.open
	a.LevelSum += level
	a.LevelN++
	if level > a.LevelMax {
		a.LevelMax = level
	}
}

// ObserveTx records one transmitted frame of the given airtime (slots);
// retx marks a retransmission.
func (m *Monitor) ObserveTx(now float64, slots int, retx bool) {
	if m == nil || m.finished {
		return
	}
	m.advance(now)
	a := &m.open
	a.FramesTx++
	a.TxSlots += int64(slots)
	if retx {
		a.FramesRetx++
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
	a := &m.open
	a.FramesOK += int64(framesOK)
	a.FramesBad += int64(framesBad)
	a.SymbolErrors += int64(symbolErrors)
	a.Symbols += int64(symbols)
}

// ObserveDelivered records bits of newly delivered (deduplicated) payload.
func (m *Monitor) ObserveDelivered(now float64, bits int64) {
	if m == nil || m.finished {
		return
	}
	m.advance(now)
	m.open.Delivered += bits
}

// ObserveAck records one end-to-end ACK latency (first transmission of a
// sequence number to its acknowledgment), in seconds.
func (m *Monitor) ObserveAck(now, latencySeconds float64) {
	if m == nil || m.finished {
		return
	}
	m.advance(now)
	a := &m.open
	a.AckCount++
	a.AckSum += latencySeconds
	a.AckBuckets[telemetry.HistogramBucketIndex(latencySeconds)]++
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

// Finish seals all fully elapsed buckets, then seals the open finest
// bucket, if it holds any observation, as a Partial point ending at now
// and cascades it like any other.
// The snapshot it returns renders each coarser open group as a Partial
// point (see telemetry.Pyramid.AppendPoints). The monitor then stops
// accepting observations; further Finish calls return the same series.
func (m *Monitor) Finish(now float64) *Snapshot {
	if m == nil {
		return nil
	}
	if !m.finished {
		m.advance(now)
		start := float64(m.open.Index*m.cfg.BucketSlots) * m.tslot
		if !empty(&m.open.Counts) && now > start {
			m.seal(now, (now-start)/m.tslot, true)
		}
		m.finished = true
	}
	return m.buildSnapshot()
}

// empty reports whether no frame, level, ACK or delivery was observed
// into c: Finish leaves such a partial bucket out.
func empty(c *telemetry.Counts) bool {
	return c.FramesTx == 0 && c.FramesOK == 0 && c.FramesBad == 0 &&
		c.LevelN == 0 && c.AckCount == 0 && c.Delivered == 0
}

func (m *Monitor) buildSnapshot() *Snapshot {
	s := &Snapshot{
		TSlotSeconds: m.tslot,
		BucketSlots:  m.cfg.BucketSlots,
		Factor:       m.cfg.Factor,
		Sessions:     1,
		Link:         m.cfg.Link,
		State:        m.State(),
		Series:       make([]Series, m.pyr.Levels()),
		Objectives:   make([]ObjectiveReport, 0, len(m.evals)),
		Transitions:  append([]Transition{}, m.trans...),
	}
	w := m.cfg.BucketSlots
	for k := range s.Series {
		s.Series[k] = Series{
			Resolution:  k,
			BucketSlots: w,
			Dropped:     m.pyr.Dropped(k),
			Points:      m.pyr.AppendPoints([]Point{}, k, m.finished),
		}
		w *= int64(m.cfg.Factor)
	}
	for _, e := range m.evals {
		s.Objectives = append(s.Objectives, e.report())
	}
	return s
}
