package health

import (
	"encoding/json"
	"io"
	"sort"

	"smartvlc/internal/telemetry"
)

// Point is one sealed health bucket. Raw counts come first — they are
// what merging sums — and every rate below them is derived, recomputed
// from the merged counts by Merge so a fleet view never averages
// averages.
type Point struct {
	Index   int64   `json:"index"`
	Start   float64 `json:"start"` // seconds, sim clock
	End     float64 `json:"end"`
	Partial bool    `json:"partial,omitempty"`

	// Links is the number of links folded into this point (1 as sealed;
	// summed by Merge). Goodput is normalized per link.
	Links int64 `json:"links"`

	// WidthSlots is the bucket width in slots ((End-Start)/tslot), kept
	// explicit so consumers need no clock context to compute rates.
	WidthSlots float64 `json:"width_slots"`

	FramesTx      int64 `json:"frames_tx"`
	FramesRetx    int64 `json:"frames_retx"`
	FramesOK      int64 `json:"frames_ok"`
	FramesBad     int64 `json:"frames_bad"`
	Symbols       int64 `json:"symbols"`
	SymbolErrors  int64 `json:"symbol_errors"`
	DeliveredBits int64 `json:"delivered_bits"`
	TxSlots       int64 `json:"tx_slots"`

	LevelSum float64 `json:"level_sum"`
	LevelN   int64   `json:"level_n"`
	MaxLevel float64 `json:"level_max"`

	AckCount   int64              `json:"ack_count"`
	AckSum     float64            `json:"ack_sum"`
	AckBuckets []telemetry.Bucket `json:"ack_buckets,omitempty"`

	// GoodputTarget is the goodput objective's target resolved at this
	// bucket's mean dimming level, stored because target functions do not
	// survive serialization and Merge must re-evaluate without them.
	GoodputTarget float64 `json:"goodput_target"`

	// Derived rates (recomputed on merge).
	MeanLevel float64 `json:"level_mean"`
	SER       float64 `json:"ser"`
	FrameLoss float64 `json:"frame_loss"`
	Goodput   float64 `json:"goodput_bits_per_slot"`
	RetxRate  float64 `json:"retx_rate"`
	AckP50    float64 `json:"ack_p50"`
	AckP95    float64 `json:"ack_p95"`
	AckP99    float64 `json:"ack_p99"`
}

// fill copies c's counts into p and derives every rate from them; Links
// and WidthSlots must already be set.
func (p *Point) fill(c *telemetry.Counts) {
	r := c.Rates()
	p.FramesTx, p.FramesRetx, p.FramesOK, p.FramesBad = c.FramesTx, c.FramesRetx, c.FramesOK, c.FramesBad
	p.Symbols, p.SymbolErrors = c.Symbols, c.SymbolErrors
	p.DeliveredBits, p.TxSlots = c.Delivered, c.TxSlots
	p.LevelSum, p.LevelN, p.MaxLevel = c.LevelSum, c.LevelN, c.LevelMax
	p.AckCount, p.AckSum, p.AckBuckets = c.AckCount, c.AckSum, r.AckBuckets
	p.MeanLevel, p.SER, p.FrameLoss = r.MeanLevel, r.SER, r.FrameLoss
	p.AckP50, p.AckP95, p.AckP99 = r.AckP50, r.AckP95, r.AckP99
	if p.WidthSlots > 0 && p.Links > 0 {
		p.Goodput = float64(c.Delivered) / (p.WidthSlots * float64(p.Links))
	}
	if c.FramesTx > 0 {
		p.RetxRate = float64(c.FramesRetx) / float64(c.FramesTx)
	}
}

// counts returns p's raw counts as a record, the inverse of fill.
func (p *Point) counts() telemetry.Counts {
	c := telemetry.Counts{
		FramesTx: p.FramesTx, FramesRetx: p.FramesRetx, FramesOK: p.FramesOK, FramesBad: p.FramesBad,
		Symbols: p.Symbols, SymbolErrors: p.SymbolErrors,
		Delivered: p.DeliveredBits, TxSlots: p.TxSlots,
		LevelSum: p.LevelSum, LevelN: p.LevelN, LevelMax: p.MaxLevel,
		AckCount: p.AckCount, AckSum: p.AckSum,
	}
	for _, b := range p.AckBuckets {
		if b.Index >= 0 && b.Index < len(c.AckBuckets) {
			c.AckBuckets[b.Index] += b.Count
		}
	}
	return c
}

// Series is one resolution's retained points.
type Series struct {
	Resolution  int     `json:"resolution"`
	BucketSlots int64   `json:"bucket_slots"`
	Dropped     int64   `json:"dropped"`
	Points      []Point `json:"points"`
}

// Snapshot is a point-in-time export of a Monitor (or a merged fleet
// view). All ordering is canonical — series by resolution, points by
// index, transitions in firing order — so two snapshots of identically
// seeded runs marshal to byte-identical JSON regardless of worker count.
type Snapshot struct {
	TSlotSeconds float64           `json:"tslot_seconds"`
	BucketSlots  int64             `json:"bucket_slots"`
	Factor       int               `json:"factor"`
	Sessions     int               `json:"sessions"`
	Skipped      int               `json:"skipped,omitempty"` // merge inputs dropped as incompatible
	Link         string            `json:"link,omitempty"`
	State        State             `json:"state"`
	Series       []Series          `json:"series"`
	Objectives   []ObjectiveReport `json:"objectives"`
	Transitions  []Transition      `json:"transitions"`
}

// JSON marshals the snapshot as canonical indented JSON — the
// byte-identical export the determinism tests pin.
func (s *Snapshot) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteNDJSON streams the snapshot as newline-delimited JSON: a header
// line, then the finest series' points interleaved causally with the
// transitions they fired, then the coarser series, then the objective
// reports. This is the /health/stream wire format.
func (s *Snapshot) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	type headerLine struct {
		Type         string  `json:"type"`
		TSlotSeconds float64 `json:"tslot_seconds"`
		BucketSlots  int64   `json:"bucket_slots"`
		Factor       int     `json:"factor"`
		Sessions     int     `json:"sessions"`
		Link         string  `json:"link,omitempty"`
		State        State   `json:"state"`
	}
	if err := enc.Encode(headerLine{"health", s.TSlotSeconds, s.BucketSlots, s.Factor, s.Sessions, s.Link, s.State}); err != nil {
		return err
	}
	type pointLine struct {
		Type       string `json:"type"`
		Resolution int    `json:"resolution"`
		Point
	}
	type transitionLine struct {
		Type string `json:"type"`
		Transition
	}
	ti := 0
	if len(s.Series) > 0 {
		for _, p := range s.Series[0].Points {
			if err := enc.Encode(pointLine{"point", 0, p}); err != nil {
				return err
			}
			for ti < len(s.Transitions) && s.Transitions[ti].At <= p.End {
				if err := enc.Encode(transitionLine{"transition", s.Transitions[ti]}); err != nil {
					return err
				}
				ti++
			}
		}
	}
	for ; ti < len(s.Transitions); ti++ {
		if err := enc.Encode(transitionLine{"transition", s.Transitions[ti]}); err != nil {
			return err
		}
	}
	for _, sr := range s.Series[min(1, len(s.Series)):] {
		for _, p := range sr.Points {
			if err := enc.Encode(pointLine{"point", sr.Resolution, p}); err != nil {
				return err
			}
		}
	}
	type objectiveLine struct {
		Type string `json:"type"`
		ObjectiveReport
	}
	for _, o := range s.Objectives {
		if err := enc.Encode(objectiveLine{"objective", o}); err != nil {
			return err
		}
	}
	return nil
}

// ReadSnapshot parses a canonical JSON snapshot (the Snapshot.JSON /
// smartvlc-sim -health-out format).
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Merge folds per-link or per-session snapshots into one fleet view.
// Points are aligned by bucket index (all sim clocks start at zero), raw
// counts summed, Links accumulated so goodput stays per-link, dimming
// levels mean-weighted by sample count, ACK latency buckets summed so
// percentiles are recomputed over the merged distribution — never
// averaged. SLO objectives are then re-evaluated by replaying the merged
// finest series through the same incremental evaluator the live monitor
// uses, so merged alert transitions follow identical rules.
//
// Inputs whose grid (tslot, bucket width, factor, resolutions) or
// objective list disagrees with the first snapshot are skipped and
// counted in Skipped. Nil inputs are ignored; merging nothing returns
// nil.
func Merge(snaps ...*Snapshot) *Snapshot {
	var in []*Snapshot
	for _, s := range snaps {
		if s != nil {
			in = append(in, s)
		}
	}
	if len(in) == 0 {
		return nil
	}
	base := in[0]
	out := &Snapshot{
		TSlotSeconds: base.TSlotSeconds,
		BucketSlots:  base.BucketSlots,
		Factor:       base.Factor,
	}
	var compatible []*Snapshot
	for _, s := range in {
		if compatibleWith(s, base) {
			compatible = append(compatible, s)
			out.Sessions += s.Sessions
		} else {
			out.Skipped++
		}
	}
	for k := range base.Series {
		out.Series = append(out.Series, mergeSeries(k, compatible))
	}

	// Re-evaluate the SLOs over the merged finest series.
	evals := make([]*sloEval, 0, len(base.Objectives))
	for _, o := range base.Objectives {
		evals = append(evals, newSLOEval(o.Objective))
	}
	if len(out.Series) > 0 {
		for _, p := range out.Series[0].Points {
			if p.Partial {
				continue
			}
			for _, e := range evals {
				if t, ok := e.push(p); ok {
					out.Transitions = append(out.Transitions, t)
				}
			}
		}
	}
	if out.Transitions == nil {
		out.Transitions = []Transition{}
	}
	for _, e := range evals {
		r := e.report()
		out.Objectives = append(out.Objectives, r)
		if r.Final > out.State {
			out.State = r.Final
		}
	}
	return out
}

func compatibleWith(s, base *Snapshot) bool {
	if s.TSlotSeconds != base.TSlotSeconds || s.BucketSlots != base.BucketSlots ||
		s.Factor != base.Factor || len(s.Series) != len(base.Series) ||
		len(s.Objectives) != len(base.Objectives) {
		return false
	}
	for i := range s.Objectives {
		if s.Objectives[i].Name != base.Objectives[i].Name ||
			s.Objectives[i].Metric != base.Objectives[i].Metric {
			return false
		}
	}
	return true
}

func mergeSeries(k int, snaps []*Snapshot) Series {
	out := Series{
		Resolution:  k,
		BucketSlots: snaps[0].Series[k].BucketSlots,
	}
	byIdx := map[int64][]Point{}
	for _, s := range snaps {
		sr := s.Series[k]
		out.Dropped += sr.Dropped
		for _, p := range sr.Points {
			byIdx[p.Index] = append(byIdx[p.Index], p)
		}
	}
	idxs := make([]int64, 0, len(byIdx))
	for i := range byIdx {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	out.Points = make([]Point, 0, len(idxs))
	for _, i := range idxs {
		out.Points = append(out.Points, mergePoints(byIdx[i]))
	}
	return out
}

// mergePoints sums one bucket index across links through their counts.
func mergePoints(pts []Point) Point {
	out := Point{Index: pts[0].Index, Start: pts[0].Start, End: pts[0].End}
	var sum telemetry.Counts
	var tgtWeighted, tgtPlain float64
	for _, p := range pts {
		if p.Start < out.Start {
			out.Start = p.Start
		}
		if p.End > out.End {
			out.End = p.End
		}
		if p.Partial {
			out.Partial = true
		}
		if p.WidthSlots > out.WidthSlots {
			out.WidthSlots = p.WidthSlots
		}
		out.Links += p.Links
		c := p.counts()
		sum.Add(&c)
		tgtWeighted += p.GoodputTarget * float64(p.LevelN)
		tgtPlain += p.GoodputTarget
	}
	// Level-weighted mean of the per-link resolved targets; exact when
	// links dim together, a documented approximation otherwise.
	if sum.LevelN > 0 {
		out.GoodputTarget = tgtWeighted / float64(sum.LevelN)
	} else if len(pts) > 0 {
		out.GoodputTarget = tgtPlain / float64(len(pts))
	}
	out.fill(&sum)
	return out
}
