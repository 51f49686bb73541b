package telemetry

import "sort"

// Merge combines per-session snapshots into one fleet aggregate. The
// merge is a pure, sequential fold over the argument order, so as long as
// the caller passes the snapshots in a deterministic order (e.g. session
// index), the result is byte-identical no matter how many workers
// produced the inputs. Nil snapshots are skipped.
//
// Series semantics:
//
//   - Counters sum per (name, labels) series — a fleet-wide event count.
//   - Histograms sum bucket occupancies, counts and sums — the fleet
//     distribution is the union of the session distributions. Exemplar
//     reservoirs re-merge under the same deterministic total order the
//     sessions used; ties resolve to the exemplar from the
//     lowest-indexed snapshot (each merged exemplar's Shard records that
//     index).
//   - Gauges take the arithmetic mean over the sessions that carry the
//     series: a gauge is a level, not a flow, and the mean is the one
//     aggregate that is meaningful for both rates (mean session goodput)
//     and settings (mean dimming level). Merged gauges record how many
//     sessions they average over in Weight, and re-merging weights each
//     input by it — so Merge is associative: merging partial merges gives
//     the same per-session mean (and the same canonical bytes, when the
//     reconstructed sums regroup exactly) as one flat merge.
//
// Per-session sequences — the span trees of
// smartvlc/internal/telemetry/span — run on each session's own simulated
// clock, so merging would juxtapose unrelated time axes; they stay on
// each session's Result. Callers who need them in fleet mode export them
// per session: sim.FleetResult.WriteSessionTraces writes one span
// snapshot and one Chrome trace per session, named by session index.
func Merge(snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{
		Counters:   []CounterSnapshot{},
		Gauges:     []GaugeSnapshot{},
		Histograms: []HistogramSnapshot{},
	}
	counters := map[string]*CounterSnapshot{}
	type gaugeAcc struct {
		snap GaugeSnapshot
		sum  float64 // session-weighted value sum
		n    int64   // sessions represented
	}
	gauges := map[string]*gaugeAcc{}
	type histAcc struct {
		snap    HistogramSnapshot
		buckets map[int]int64
		ex      map[int][]Exemplar
	}
	hists := map[string]*histAcc{}

	for si, s := range snaps {
		if s == nil {
			continue
		}
		for _, c := range s.Counters {
			k := c.Name + "\xff" + labelSig(c.Labels)
			if acc, ok := counters[k]; ok {
				acc.Value += c.Value
			} else {
				cc := c
				counters[k] = &cc
			}
		}
		for _, g := range s.Gauges {
			k := g.Name + "\xff" + labelSig(g.Labels)
			// An input that is itself a merge carries the session count it
			// averaged over; reconstruct its contribution by weighting.
			w := g.Weight
			if w <= 0 {
				w = 1
			}
			if acc, ok := gauges[k]; ok {
				acc.sum += g.Value * float64(w)
				acc.n += w
			} else {
				gauges[k] = &gaugeAcc{snap: g, sum: g.Value * float64(w), n: w}
			}
		}
		for _, h := range s.Histograms {
			k := h.Name + "\xff" + labelSig(h.Labels)
			acc, ok := hists[k]
			if !ok {
				acc = &histAcc{
					snap:    HistogramSnapshot{Name: h.Name, Labels: h.Labels},
					buckets: map[int]int64{},
				}
				hists[k] = acc
			}
			acc.snap.Count += h.Count
			acc.snap.Sum += h.Sum
			for _, b := range h.Buckets {
				acc.buckets[b.Index] += b.Count
			}
			// Exemplar reservoirs re-merge under the same total order the
			// sessions used, with each exemplar stamped with its source
			// snapshot's position so ties resolve lowest-shard-wins.
			for _, be := range h.Exemplars {
				if acc.ex == nil {
					acc.ex = map[int][]Exemplar{}
				}
				for _, e := range be.Exemplars {
					e.Shard = si
					acc.ex[be.Bucket] = insertExemplar(acc.ex[be.Bucket], e)
				}
			}
		}
	}

	for _, c := range counters {
		out.Counters = append(out.Counters, *c)
	}
	for _, g := range gauges {
		gs := g.snap
		gs.Value = g.sum / float64(g.n)
		gs.Weight = 0 // single-session mean serializes weightless
		if g.n > 1 {
			gs.Weight = g.n
		}
		out.Gauges = append(out.Gauges, gs)
	}
	for _, h := range hists {
		hs := h.snap
		idxs := make([]int, 0, len(h.buckets))
		for i := range h.buckets {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			hs.Buckets = append(hs.Buckets, Bucket{Index: i, Count: h.buckets[i]})
		}
		hs.Exemplars = exemplarSnapshot(h.ex)
		out.Histograms = append(out.Histograms, hs)
	}
	out.sortCanonical()
	return out
}
