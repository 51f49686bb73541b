package telemetry

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// joinLabelSig is the reference rendering of a label signature:
// key=value pairs joined by commas.
func joinLabelSig(labels []Label) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "=" + l.Value
	}
	return strings.Join(parts, ",")
}

// sortRendered is the reference canonical sort: sort.Slice with a
// comparator that renders both label signatures at every comparison.
func sortRendered(s *Snapshot) {
	sort.Slice(s.Counters, func(i, j int) bool {
		if s.Counters[i].Name != s.Counters[j].Name {
			return s.Counters[i].Name < s.Counters[j].Name
		}
		return joinLabelSig(s.Counters[i].Labels) < joinLabelSig(s.Counters[j].Labels)
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		if s.Gauges[i].Name != s.Gauges[j].Name {
			return s.Gauges[i].Name < s.Gauges[j].Name
		}
		return joinLabelSig(s.Gauges[i].Labels) < joinLabelSig(s.Gauges[j].Labels)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		if s.Histograms[i].Name != s.Histograms[j].Name {
			return s.Histograms[i].Name < s.Histograms[j].Name
		}
		return joinLabelSig(s.Histograms[i].Labels) < joinLabelSig(s.Histograms[j].Labels)
	})
}

// randomLabels draws up to three labels whose keys and values mix
// letters with ',' and '=', so distinct label sets can render the same
// signature (a=b,c=d from one label or from two).
func randomLabels(rng *rand.Rand) []Label {
	pieces := []string{"", "a", "b", "c", ",", "=", "b,c", "c=d", "a=b"}
	labels := make([]Label, rng.IntN(4))
	for i := range labels {
		labels[i] = Label{Key: pieces[rng.IntN(len(pieces))], Value: pieces[rng.IntN(len(pieces))]}
	}
	if len(labels) == 0 && rng.IntN(2) == 0 {
		return nil
	}
	return labels
}

// TestSortCanonicalMatchesRenderedOrder checks the keyed canonical sort
// against sorting with a comparator that renders signatures per
// comparison, on 1000 random snapshots of up to 80 series per kind with
// labels containing ',' and '=' and colliding signatures. Every series
// carries its original position, so the two sorts must leave the same
// permutation, ties included, not just the same key order. The order
// must also be ascending in (name, rendered signature), and labelSig
// must render what joining the pairs renders.
func TestSortCanonicalMatchesRenderedOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 55))
	names := []string{"a", "b", "a,b", "a=b", "ab"}
	for round := 0; round < 1000; round++ {
		var s Snapshot
		n := rng.IntN(81)
		for i := 0; i < n; i++ {
			name, labels := names[rng.IntN(len(names))], randomLabels(rng)
			if got, want := labelSig(labels), joinLabelSig(labels); got != want {
				t.Fatalf("labelSig(%v) = %q, joined %q", labels, got, want)
			}
			s.Counters = append(s.Counters, CounterSnapshot{Name: name, Labels: labels, Value: int64(i)})
			s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Labels: labels, Value: float64(i)})
			s.Histograms = append(s.Histograms, HistogramSnapshot{Name: name, Labels: labels, Count: int64(i)})
		}
		rng.Shuffle(n, func(i, j int) { s.Gauges[i], s.Gauges[j] = s.Gauges[j], s.Gauges[i] })
		want := Snapshot{
			Counters:   append([]CounterSnapshot(nil), s.Counters...),
			Gauges:     append([]GaugeSnapshot(nil), s.Gauges...),
			Histograms: append([]HistogramSnapshot(nil), s.Histograms...),
		}
		s.sortCanonical()
		sortRendered(&want)
		if !reflect.DeepEqual(s.Counters, want.Counters) || !reflect.DeepEqual(s.Gauges, want.Gauges) ||
			!reflect.DeepEqual(s.Histograms, want.Histograms) {
			t.Fatalf("round %d: keyed sort and rendered sort disagree", round)
		}
		for i := 1; i < n; i++ {
			a, b := s.Gauges[i-1], s.Gauges[i]
			if a.Name > b.Name || (a.Name == b.Name && joinLabelSig(a.Labels) > joinLabelSig(b.Labels)) {
				t.Fatalf("round %d: series %d (%s{%s}) sorts after series %d (%s{%s})", round,
					i-1, a.Name, joinLabelSig(a.Labels), i, b.Name, joinLabelSig(b.Labels))
			}
		}
	}
}
