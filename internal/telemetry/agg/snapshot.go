package agg

import (
	"encoding/json"
	"io"

	"smartvlc/internal/telemetry"
)

// Point is one sealed fleet window (or a coarser rollup of Factor of
// them). Raw counts come first — they are exact sums over sessions and
// windows — and every rate below them is derived from the counts, never
// an average of averages.
type Point struct {
	Index   int64   `json:"index"`
	Start   float64 `json:"start"` // seconds, sim clock
	End     float64 `json:"end"`
	Partial bool    `json:"partial,omitempty"`
	// Sessions is the number of sessions contributing deltas (max over
	// constituents on rollup points).
	Sessions int `json:"sessions"`

	FramesTx       int64 `json:"frames_tx"`
	FramesOK       int64 `json:"frames_ok"`
	FramesBad      int64 `json:"frames_bad"`
	SymbolErrors   int64 `json:"symbol_errors"`
	Symbols        int64 `json:"symbols"`
	Timeouts       int64 `json:"timeouts"`
	Acks           int64 `json:"acks"`
	DeliveredBytes int64 `json:"delivered_bytes"`

	LevelSum float64 `json:"level_sum"`
	LevelN   int64   `json:"level_n"`

	AckCount   int64              `json:"ack_count"`
	AckSum     float64            `json:"ack_sum"`
	AckBuckets []telemetry.Bucket `json:"ack_buckets,omitempty"`

	// Derived rates (recomputed from the raw counts above).
	MeanLevel  float64 `json:"level_mean"`
	SER        float64 `json:"ser"`
	FrameLoss  float64 `json:"frame_loss"`
	BurnRate   float64 `json:"burn_rate"`
	GoodputBps float64 `json:"goodput_bps"`
	AckP50     float64 `json:"ack_p50"`
	AckP95     float64 `json:"ack_p95"`
	AckP99     float64 `json:"ack_p99"`
}

// newPoint builds the Point of one pyramid group.
func newPoint(g *telemetry.Group) Point {
	p := Point{Index: g.Index, Start: g.Start, End: g.End, Partial: g.Partial, Sessions: g.Members}
	p.fill(&g.Counts)
	return p
}

// fill copies c's counts into the point and derives its rates. Goodput
// normalizes by the point's covered sim time, so rollup points report
// the same fleet bit rate their constituents did.
func (p *Point) fill(c *telemetry.Counts) {
	r := c.Rates()
	p.FramesTx, p.FramesOK, p.FramesBad = c.FramesTx, c.FramesOK, c.FramesBad
	p.SymbolErrors, p.Symbols = c.SymbolErrors, c.Symbols
	p.Timeouts, p.Acks, p.DeliveredBytes = c.Timeouts, c.Acks, c.Delivered
	p.LevelSum, p.LevelN = c.LevelSum, c.LevelN
	p.AckCount, p.AckSum, p.AckBuckets = c.AckCount, c.AckSum, r.AckBuckets
	p.MeanLevel, p.SER, p.FrameLoss = r.MeanLevel, r.SER, r.FrameLoss
	p.AckP50, p.AckP95, p.AckP99 = r.AckP50, r.AckP95, r.AckP99
	if p.FramesTx > 0 {
		p.BurnRate = float64(p.Timeouts) / float64(p.FramesTx)
	}
	if width := p.End - p.Start; width > 0 {
		p.GoodputBps = float64(p.DeliveredBytes) * 8 / width
	}
}

// Series is one pyramid resolution's retained points.
type Series struct {
	Resolution    int     `json:"resolution"`
	WindowSeconds float64 `json:"window_seconds"`
	Dropped       int64   `json:"dropped"`
	Points        []Point `json:"points"`
}

// SessionStat is one row of a worst-sessions table: a session's
// cumulative raw counts over its sealed windows plus the rates derived
// from them.
type SessionStat struct {
	Session int    `json:"session"`
	Seed    uint64 `json:"seed"`
	Scheme  string `json:"scheme,omitempty"`
	Windows int64  `json:"windows"`
	Done    bool   `json:"done,omitempty"`

	FramesTx       int64 `json:"frames_tx"`
	FramesOK       int64 `json:"frames_ok"`
	FramesBad      int64 `json:"frames_bad"`
	SymbolErrors   int64 `json:"symbol_errors"`
	Symbols        int64 `json:"symbols"`
	Timeouts       int64 `json:"timeouts"`
	DeliveredBytes int64 `json:"delivered_bytes"`

	SER        float64 `json:"ser"`
	BurnRate   float64 `json:"burn_rate"`
	AckP95     float64 `json:"ack_p95"`
	GoodputBps float64 `json:"goodput_bps"`
}

// Snapshot is a point-in-time export of an Aggregator — the live /fleet
// view and the final FleetResult.Agg artifact. All ordering is canonical
// (series by resolution, points by index, tables by rank), so two
// identically seeded fleets export byte-identical JSON for any worker
// count; see the package comment for what "point in time" means live.
type Snapshot struct {
	WindowSeconds float64  `json:"window_seconds"`
	Factor        int      `json:"factor"`
	Sessions      int      `json:"sessions"`
	Done          int      `json:"done"`
	SealedWindows int64    `json:"sealed_windows"`
	Series        []Series `json:"series"`

	// Worst-sessions tables, each ranked worst-first with the session
	// index as the total-order tie-break: symbol error rate, ARQ timeout
	// burn rate, and ACK latency p95. Sessions without the relevant
	// denominator are excluded from the respective table.
	TopSER  []SessionStat `json:"top_ser"`
	TopBurn []SessionStat `json:"top_burn"`
	TopAck  []SessionStat `json:"top_ack_p95"`
}

// Snapshot exports the aggregator's current state: every sealed point,
// the open (partial) rollup groups, and the worst-sessions tables over
// the sealed windows.
func (a *Aggregator) Snapshot() *Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := &Snapshot{
		WindowSeconds: a.cfg.WindowSeconds,
		Factor:        a.cfg.Factor,
		Sessions:      len(a.sessions),
		Done:          a.done,
		SealedWindows: a.sealed,
	}
	width := a.cfg.WindowSeconds
	for k := 0; k < a.pyr.Levels(); k++ {
		s.Series = append(s.Series, Series{
			Resolution:    k,
			WindowSeconds: width,
			Dropped:       a.pyr.Dropped(k),
			Points:        a.pyr.AppendPoints(nil, k, true),
		})
		width *= float64(a.cfg.Factor)
	}

	stats := make([]SessionStat, len(a.sessions))
	for i, ss := range a.sessions {
		stats[i] = ss.stats(a.cfg.WindowSeconds)
	}
	s.TopSER = selectTop(stats, a.cfg.K,
		func(st *SessionStat) (float64, bool) { return st.SER, st.Symbols > 0 })
	s.TopBurn = selectTop(stats, a.cfg.K,
		func(st *SessionStat) (float64, bool) { return st.BurnRate, st.FramesTx > 0 })
	s.TopAck = selectTop(stats, a.cfg.K,
		func(st *SessionStat) (float64, bool) { return st.AckP95, st.AckP95 > 0 })
	return s
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
// line, the finest series' points, the coarser series, then the
// worst-sessions tables one row per line. This is the /fleet/stream
// wire format.
func (s *Snapshot) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	type headerLine struct {
		Type          string  `json:"type"`
		WindowSeconds float64 `json:"window_seconds"`
		Factor        int     `json:"factor"`
		Sessions      int     `json:"sessions"`
		Done          int     `json:"done"`
		SealedWindows int64   `json:"sealed_windows"`
	}
	if err := enc.Encode(headerLine{"fleet", s.WindowSeconds, s.Factor, s.Sessions, s.Done, s.SealedWindows}); err != nil {
		return err
	}
	type pointLine struct {
		Type       string `json:"type"`
		Resolution int    `json:"resolution"`
		Point
	}
	for _, sr := range s.Series {
		for _, p := range sr.Points {
			if err := enc.Encode(pointLine{"point", sr.Resolution, p}); err != nil {
				return err
			}
		}
	}
	type worstLine struct {
		Type   string `json:"type"`
		Metric string `json:"metric"`
		Rank   int    `json:"rank"`
		SessionStat
	}
	tables := []struct {
		metric string
		rows   []SessionStat
	}{
		{"ser", s.TopSER},
		{"burn", s.TopBurn},
		{"ack_p95", s.TopAck},
	}
	for _, t := range tables {
		for i, row := range t.rows {
			if err := enc.Encode(worstLine{"worst", t.metric, i + 1, row}); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadSnapshot parses a canonical JSON snapshot (the Snapshot.JSON /
// smartvlc-sim -agg-out / GET /fleet format).
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}
