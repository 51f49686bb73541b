package health

import (
	"encoding/json"
	"fmt"

	"smartvlc/internal/telemetry"
)

// Metric names a health signal an Objective can bound. Values are the
// JSON spellings used in snapshots.
type Metric string

const (
	// MetricSER is symbol errors / symbols over the window — the signal
	// the paper's Eq. 3 design bound (SER ≤ 5e-3 by default) constrains.
	MetricSER Metric = "ser"
	// MetricFrameLoss is CRC-rejected frames / received frames.
	MetricFrameLoss Metric = "frame_loss"
	// MetricGoodput is delivered payload bits per slot of elapsed link
	// time (not per transmitted slot), per link.
	MetricGoodput Metric = "goodput"
	// MetricAckP95 is the 95th-percentile end-to-end ACK latency in
	// seconds, from the window's merged log2 latency buckets.
	MetricAckP95 Metric = "ack_p95"
	// MetricRetxRate is retransmitted frames / transmitted frames.
	MetricRetxRate Metric = "retx_rate"
)

// Kind says which side of the target is healthy.
type Kind string

const (
	// UpperBound objectives are healthy while value ≤ target (SER, loss,
	// latency, retransmit rate). Burn = value/target.
	UpperBound Kind = "upper"
	// LowerBound objectives are healthy while value ≥ target (goodput).
	// Burn = target/value, +Inf (clamped to burnCap) when value is zero.
	LowerBound Kind = "lower"
)

// State is the alert state of an objective or link. Ordered: higher is
// worse. Marshals as its string name.
type State int

const (
	StateOK State = iota
	StateWarning
	StateCritical
)

func (s State) String() string {
	switch s {
	case StateWarning:
		return "warning"
	case StateCritical:
		return "critical"
	default:
		return "ok"
	}
}

// MarshalJSON encodes the state as its string name.
func (s State) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes a state from its string name.
func (s *State) UnmarshalJSON(b []byte) error {
	var v string
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch v {
	case "ok":
		*s = StateOK
	case "warning":
		*s = StateWarning
	case "critical":
		*s = StateCritical
	default:
		return fmt.Errorf("health: unknown state %q", v)
	}
	return nil
}

// Objective is one declarative SLO, evaluated with the SRE multi-window
// burn-rate rule: the state escalates only when BOTH the fast window
// (recent, catches onset quickly) and the slow window (sustained,
// suppresses blips) burn at or above the threshold, and de-escalates as
// soon as either drops below.
type Objective struct {
	Name   string  `json:"name"`
	Metric Metric  `json:"metric"`
	Kind   Kind    `json:"kind"`
	Target float64 `json:"target"`

	// TargetForLevel, when non-nil on a goodput objective, resolves the
	// target from the bucket's mean dimming level — the paper's envelope
	// rate is tent-shaped in the level, so a fixed bits/slot target would
	// be wrong at the dim and bright extremes. Resolved per bucket at seal
	// time and stored in Point.GoodputTarget (functions don't survive
	// serialization; merge re-uses the stored values).
	TargetForLevel func(level float64) float64 `json:"-"`

	// FastWindow and SlowWindow are window lengths in finest buckets.
	// Defaults 5 and 30 (0.4 s and 2.4 s at the default grid).
	FastWindow int `json:"fast_window"`
	SlowWindow int `json:"slow_window"`

	// WarnBurn and CritBurn are the burn-rate thresholds. Defaults 1
	// (consuming the budget exactly) and 2 (twice over).
	WarnBurn float64 `json:"warn_burn"`
	CritBurn float64 `json:"crit_burn"`
}

func (o Objective) withDefaults() Objective {
	if o.FastWindow <= 0 {
		o.FastWindow = 5
	}
	if o.SlowWindow < o.FastWindow {
		o.SlowWindow = 6 * o.FastWindow
	}
	if o.WarnBurn <= 0 {
		o.WarnBurn = 1
	}
	if o.CritBurn <= o.WarnBurn {
		o.CritBurn = 2 * o.WarnBurn
	}
	return o
}

// DefaultObjectives returns the stock SLO set, calibrated against the
// repo's healthy default operating point (level 0.5, 3 m, 400 lx:
// ≈0.76 bit/slot goodput, ≈1% frame loss, ACK p95 under two airtimes).
func DefaultObjectives() []Objective {
	return []Objective{
		{
			// The paper's Eq. 3 design bound: the AMPPM tables are built so
			// per-level SER stays ≤ 5e-3 (amppm.DefaultConstraints().SERBound);
			// this objective checks the live link against the same number.
			Name: "ser", Metric: MetricSER, Kind: UpperBound, Target: 5e-3,
		},
		{
			Name: "frame_loss", Metric: MetricFrameLoss, Kind: UpperBound, Target: 0.05,
		},
		{
			// Tent-shaped per-level target tracking the AMPPM envelope-rate
			// curve, which peaks at level 0.5 and falls toward both extremes.
			// 0.5·tent leaves ~1.5× margin at the healthy operating point.
			Name: "goodput", Metric: MetricGoodput, Kind: LowerBound, Target: 0.5,
			TargetForLevel: func(level float64) float64 {
				tent := level
				if 1-level < tent {
					tent = 1 - level
				}
				if tent < 0 {
					tent = 0
				}
				return 0.5 * 2 * tent
			},
		},
		{
			Name: "ack_p95", Metric: MetricAckP95, Kind: UpperBound, Target: 0.05,
		},
		{
			Name: "retx_rate", Metric: MetricRetxRate, Kind: UpperBound, Target: 0.3,
		},
	}
}

// burnCap bounds reported burn rates: a dead link's goodput burn is
// mathematically +Inf, which JSON cannot encode and no dashboard needs.
const burnCap = 1e6

// Transition records one alert state change of one objective.
type Transition struct {
	At        float64 `json:"at"` // sim-time seconds (sealing bucket's end)
	Link      string  `json:"link,omitempty"`
	Objective string  `json:"objective"`
	From      State   `json:"from"`
	To        State   `json:"to"`
	BurnFast  float64 `json:"burn_fast"`
	BurnSlow  float64 `json:"burn_slow"`
	Value     float64 `json:"value"`  // fast-window metric value
	Target    float64 `json:"target"` // fast-window resolved target
}

// ObjectiveReport is an objective's spec plus its evaluation outcome.
type ObjectiveReport struct {
	Objective
	Final State `json:"final"`
	// GoodBuckets / EvalBuckets is per-bucket SLI attainment: of the
	// finest buckets where the metric was defined, how many met the
	// target on their own.
	GoodBuckets int64   `json:"good_buckets"`
	EvalBuckets int64   `json:"eval_buckets"`
	WorstBurn   float64 `json:"worst_burn"`
	WorstAt     float64 `json:"worst_at"`
}

// sloEval incrementally evaluates one objective over a stream of sealed
// finest points. The same evaluator is replayed over merged points by
// Merge, so live and merged verdicts follow identical rules.
type sloEval struct {
	obj   Objective
	pts   []Point // last SlowWindow points
	state State

	good, total int64
	worstBurn   float64
	worstAt     float64
}

func newSLOEval(o Objective) *sloEval { return &sloEval{obj: o} }

// windowValue aggregates the metric over the last n points. ok is false
// when the metric is undefined there (no frames, no ACKs, no symbols) —
// undefined windows never change the alert state.
func (e *sloEval) windowValue(n int) (value, target float64, ok bool) {
	if n > len(e.pts) {
		n = len(e.pts)
	}
	w := e.pts[len(e.pts)-n:]
	target = e.obj.Target
	switch e.obj.Metric {
	case MetricSER:
		var errs, syms int64
		for _, p := range w {
			errs += p.SymbolErrors
			syms += p.Symbols
		}
		if syms == 0 {
			return 0, target, false
		}
		return float64(errs) / float64(syms), target, true
	case MetricFrameLoss:
		var bad, all int64
		for _, p := range w {
			bad += p.FramesBad
			all += p.FramesOK + p.FramesBad
		}
		if all == 0 {
			return 0, target, false
		}
		return float64(bad) / float64(all), target, true
	case MetricGoodput:
		var bits int64
		var slots, tsum float64
		for _, p := range w {
			bits += p.DeliveredBits
			slots += p.WidthSlots * float64(p.Links)
			tsum += p.GoodputTarget
		}
		if slots == 0 {
			return 0, target, false
		}
		if len(w) > 0 {
			target = tsum / float64(len(w))
		}
		return float64(bits) / slots, target, true
	case MetricAckP95:
		var count int64
		merged := map[int]int64{}
		for _, p := range w {
			count += p.AckCount
			for _, b := range p.AckBuckets {
				merged[b.Index] += b.Count
			}
		}
		if count == 0 {
			return 0, target, false
		}
		bs := make([]telemetry.Bucket, 0, len(merged))
		for i := 0; i < 64; i++ {
			if n := merged[i]; n > 0 {
				bs = append(bs, telemetry.Bucket{Index: i, Count: n})
			}
		}
		return telemetry.QuantileOf(bs, count, 0.95), target, true
	case MetricRetxRate:
		var retx, tx int64
		for _, p := range w {
			retx += p.FramesRetx
			tx += p.FramesTx
		}
		if tx == 0 {
			return 0, target, false
		}
		return float64(retx) / float64(tx), target, true
	}
	return 0, target, false
}

// burn converts a (value, target) pair into a burn rate per the
// objective's Kind, clamped to burnCap.
func (o Objective) burn(value, target float64) float64 {
	var b float64
	switch o.Kind {
	case LowerBound:
		if target <= 0 {
			return 0
		}
		if value <= 0 {
			return burnCap
		}
		b = target / value
	default: // UpperBound
		if target <= 0 {
			return burnCap
		}
		b = value / target
	}
	if b > burnCap {
		b = burnCap
	}
	return b
}

// push feeds one sealed finest point, returning a transition if the alert
// state changed. Evaluation waits until FastWindow points have sealed
// (warmup) so a link is never judged on its first instants.
func (e *sloEval) push(p Point) (Transition, bool) {
	e.pts = append(e.pts, p)
	if len(e.pts) > e.obj.SlowWindow {
		e.pts = e.pts[1:]
	}

	// Per-bucket attainment on the point itself.
	if v, t, ok := e.lastValue(); ok {
		e.total++
		if e.obj.burn(v, t) <= 1 {
			e.good++
		}
	}

	if len(e.pts) < e.obj.FastWindow {
		return Transition{}, false
	}
	fv, ft, fok := e.windowValue(e.obj.FastWindow)
	sv, st, sok := e.windowValue(e.obj.SlowWindow)
	if !fok || !sok {
		return Transition{}, false
	}
	bf := e.obj.burn(fv, ft)
	bs := e.obj.burn(sv, st)
	if bf > e.worstBurn {
		e.worstBurn = bf
		e.worstAt = p.End
	}
	next := StateOK
	switch {
	case bf >= e.obj.CritBurn && bs >= e.obj.CritBurn:
		next = StateCritical
	case bf >= e.obj.WarnBurn && bs >= e.obj.WarnBurn:
		next = StateWarning
	}
	if next == e.state {
		return Transition{}, false
	}
	t := Transition{
		At:        p.End,
		Objective: e.obj.Name,
		From:      e.state,
		To:        next,
		BurnFast:  bf,
		BurnSlow:  bs,
		Value:     fv,
		Target:    ft,
	}
	e.state = next
	return t, true
}

// lastValue is windowValue over just the newest point.
func (e *sloEval) lastValue() (float64, float64, bool) { return e.windowValue(1) }

func (e *sloEval) report() ObjectiveReport {
	return ObjectiveReport{
		Objective:   e.obj,
		Final:       e.state,
		GoodBuckets: e.good,
		EvalBuckets: e.total,
		WorstBurn:   e.worstBurn,
		WorstAt:     e.worstAt,
	}
}
