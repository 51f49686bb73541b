package telemetry

// Delta captures the registry's current state and returns the increment
// since prev — the building block of streaming aggregation (see
// smartvlc/internal/telemetry/agg). prev must be an earlier Snapshot of
// the same registry (or nil, which makes the delta the full snapshot).
//
// Delta semantics per series kind:
//
//   - Counters carry Value(now) − Value(prev). Counters are monotone, so
//     the increments are non-negative; series that did not move are
//     dropped, keeping deltas sparse.
//   - Histograms carry per-bucket occupancy increments plus the count and
//     sum increments. Series with no new observations are dropped.
//     Exemplar reservoirs are elided: a reservoir is a top-K over the
//     whole run, not a flow, so it has no meaningful increment.
//   - Gauges carry their current value unchanged — a gauge is a level,
//     not a flow, and "the level during this window" is the current
//     reading. Every gauge present now is included.
//
// The result is canonically sorted, so two identically seeded sessions
// produce byte-identical delta sequences for the same flush schedule —
// the invariant the fleet aggregator's determinism rests on.
//
// If a counter or histogram moved backwards relative to prev (prev from a
// different registry, or a registry reset), the delta falls back to the
// current absolute value for that series — restart semantics, matching
// how Prometheus rate() treats counter resets.
func (r *Registry) Delta(prev *Snapshot) *Snapshot {
	return SnapshotDelta(r.Snapshot(), prev)
}

// SnapshotDelta computes the increment from prev to cur (see
// Registry.Delta for the per-kind semantics). Both snapshots are left
// untouched; a nil prev yields cur's own series (minus exemplars).
// Useful when the caller already holds the current snapshot and
// wants to keep it as the next delta's base without snapshotting twice.
func SnapshotDelta(cur, prev *Snapshot) *Snapshot {
	out := &Snapshot{
		Counters:   []CounterSnapshot{},
		Gauges:     []GaugeSnapshot{},
		Histograms: []HistogramSnapshot{},
	}
	if cur == nil {
		return out
	}

	prevCounters := map[string]int64{}
	type prevHist struct {
		count   int64
		sum     float64
		buckets map[int]int64
	}
	prevHists := map[string]*prevHist{}
	if prev != nil {
		for _, c := range prev.Counters {
			prevCounters[c.Name+"\xff"+labelSig(c.Labels)] = c.Value
		}
		for _, h := range prev.Histograms {
			ph := &prevHist{count: h.Count, sum: h.Sum, buckets: map[int]int64{}}
			for _, b := range h.Buckets {
				ph.buckets[b.Index] = b.Count
			}
			prevHists[h.Name+"\xff"+labelSig(h.Labels)] = ph
		}
	}

	for _, c := range cur.Counters {
		d := c.Value - prevCounters[c.Name+"\xff"+labelSig(c.Labels)]
		if d < 0 {
			d = c.Value // counter reset: restart semantics
		}
		if d == 0 {
			continue
		}
		out.Counters = append(out.Counters, CounterSnapshot{Name: c.Name, Labels: c.Labels, Value: d})
	}

	// Gauges are levels: the delta carries the current readings verbatim.
	out.Gauges = append(out.Gauges, cur.Gauges...)

	for _, h := range cur.Histograms {
		ph := prevHists[h.Name+"\xff"+labelSig(h.Labels)]
		if ph == nil {
			ph = &prevHist{buckets: map[int]int64{}}
		}
		dCount := h.Count - ph.count
		dSum := h.Sum - ph.sum
		if dCount < 0 {
			dCount, dSum = h.Count, h.Sum
			ph.buckets = map[int]int64{}
		}
		if dCount == 0 {
			continue
		}
		hs := HistogramSnapshot{Name: h.Name, Labels: h.Labels, Count: dCount, Sum: dSum}
		for _, b := range h.Buckets {
			if d := b.Count - ph.buckets[b.Index]; d > 0 {
				hs.Buckets = append(hs.Buckets, Bucket{Index: b.Index, Count: d})
			}
		}
		out.Histograms = append(out.Histograms, hs)
	}

	out.sortCanonical()
	return out
}
