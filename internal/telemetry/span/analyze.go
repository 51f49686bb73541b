package span

import "sort"

// StageStat aggregates all spans of one stage name.
type StageStat struct {
	// Name is the stage (span name).
	Name string
	// Count is how many spans carried the name.
	Count int
	// Total, Mean and Max summarize the span durations in seconds.
	Total, Mean, Max float64
	// Errors counts spans whose "class" attribute is set and not "ok"
	// (decode failures).
	Errors int
}

// StageBreakdown aggregates spans per stage name, sorted by name — the
// per-stage latency table a trace post-mortem starts from.
func StageBreakdown(spans []Span) []StageStat {
	byName := map[string]*StageStat{}
	for _, s := range spans {
		st, ok := byName[s.Name]
		if !ok {
			st = &StageStat{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.Duration()
		st.Count++
		st.Total += d
		if d > st.Max {
			st.Max = d
		}
		if class, ok := s.Attr("class"); ok && class != "ok" {
			st.Errors++
		}
	}
	out := make([]StageStat, 0, len(byName))
	for _, st := range byName {
		st.Mean = st.Total / float64(st.Count)
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Tree indexes a span list for structural queries.
type Tree struct {
	byID     map[ID]Span
	children map[ID][]ID // record order
	roots    []ID        // spans whose parent is absent or another root's chain head
}

// NewTree indexes spans. A span whose Parent is 0 — or points at a span
// missing from the list (dropped from the ring) — is a root. A list read
// from a file may repeat an ID: the first span of each ID is kept and
// later ones are ignored, so every span has one parent and everything
// reachable from a root is a tree.
func NewTree(spans []Span) *Tree {
	t := &Tree{byID: make(map[ID]Span, len(spans)), children: map[ID][]ID{}}
	kept := make([]Span, 0, len(spans))
	for _, s := range spans {
		if _, dup := t.byID[s.ID]; !dup {
			t.byID[s.ID] = s
			kept = append(kept, s)
		}
	}
	for _, s := range kept {
		if _, ok := t.byID[s.Parent]; s.Parent != 0 && ok {
			t.children[s.Parent] = append(t.children[s.Parent], s.ID)
		} else {
			t.roots = append(t.roots, s.ID)
		}
	}
	return t
}

// Span returns the indexed span by ID.
func (t *Tree) Span(id ID) (Span, bool) {
	s, ok := t.byID[id]
	return s, ok
}

// Children returns the direct children of a span in record order.
func (t *Tree) Children(id ID) []ID { return t.children[id] }

// Roots returns the root span IDs in record order.
func (t *Tree) Roots() []ID { return t.roots }

// FrameRoots returns the roots with the given name ("frame" in link
// sessions) in record order — one per transmission.
func (t *Tree) FrameRoots(name string) []Span {
	var out []Span
	for _, id := range t.roots {
		if s := t.byID[id]; s.Name == name {
			out = append(out, s)
		}
	}
	// Retransmission roots parent onto the prior transmission's root, so
	// they are not in t.roots; collect them too.
	for _, s := range t.byID {
		if s.Name != name || s.Parent == 0 {
			continue
		}
		if p, ok := t.byID[s.Parent]; ok && p.Name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CriticalPath returns the chain of spans from root to leaf that
// maximizes summed duration — the stages that bound the frame's
// end-to-end latency. Same-named chained roots (retransmissions) are not
// descended into, so the path stays within one transmission.
func (t *Tree) CriticalPath(root ID) []Span {
	s, ok := t.byID[root]
	if !ok {
		return nil
	}
	best := []Span{s}
	bestDur := -1.0
	for _, cid := range t.children[root] {
		c := t.byID[cid]
		if c.Name == s.Name {
			continue // retransmit chain link, not a stage
		}
		sub := t.CriticalPath(cid)
		d := 0.0
		for _, ss := range sub {
			d += ss.Duration()
		}
		if d > bestDur {
			bestDur = d
			best = append([]Span{s}, sub...)
		}
	}
	return best
}

// Chain is one retransmit chain: the transmissions of one sequence
// number, oldest first, linked parent→child through their root spans.
type Chain struct {
	Seq   int64
	Roots []Span
}

// RetxChains groups same-named roots into retransmit chains and returns
// only chains with more than one transmission, longest first (ties by
// sequence). rootName is the frame-root span name ("frame" in sessions).
func (t *Tree) RetxChains(rootName string) []Chain {
	frames := t.FrameRoots(rootName) // sorted by ID
	isRetx := map[ID]bool{}          // frame roots that continue a chain
	for _, s := range frames {
		if p, ok := t.byID[s.Parent]; ok && p.Name == rootName {
			isRetx[s.ID] = true
		}
	}
	var chains []Chain
	for _, s := range frames {
		if isRetx[s.ID] {
			continue // not a chain head
		}
		chain := Chain{Seq: s.Seq, Roots: []Span{s}}
		cur := s.ID
		for {
			next := ID(0)
			for _, cid := range t.children[cur] {
				if c := t.byID[cid]; c.Name == rootName {
					next = cid
					break
				}
			}
			if next == 0 {
				break
			}
			chain.Roots = append(chain.Roots, t.byID[next])
			cur = next
		}
		if len(chain.Roots) > 1 {
			chains = append(chains, chain)
		}
	}
	sort.Slice(chains, func(i, j int) bool {
		if len(chains[i].Roots) != len(chains[j].Roots) {
			return len(chains[i].Roots) > len(chains[j].Roots)
		}
		return chains[i].Seq < chains[j].Seq
	})
	return chains
}

// TopSlowest returns the k longest-duration roots, slowest first (ties
// by ID, keeping the order deterministic).
func TopSlowest(roots []Span, k int) []Span {
	out := append([]Span(nil), roots...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Duration() != out[j].Duration() {
			return out[i].Duration() > out[j].Duration()
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// WorstFrames returns the k roots whose subtrees contain the most decode
// failures (spans with a non-"ok" "class" attribute), worst first; roots
// with no failures are excluded.
func (t *Tree) WorstFrames(rootName string, k int) []Span {
	type scored struct {
		s    Span
		errs int
	}
	var all []scored
	for _, root := range t.FrameRoots(rootName) {
		errs := 0
		var walk func(id ID)
		walk = func(id ID) {
			s := t.byID[id]
			if class, ok := s.Attr("class"); ok && class != "ok" {
				errs++
			}
			for _, cid := range t.children[id] {
				if c := t.byID[cid]; c.Name != rootName {
					walk(cid)
				}
			}
		}
		walk(root.ID)
		if errs > 0 {
			all = append(all, scored{root, errs})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].errs != all[j].errs {
			return all[i].errs > all[j].errs
		}
		return all[i].s.ID < all[j].s.ID
	})
	out := make([]Span, 0, k)
	for i := 0; i < len(all) && i < k; i++ {
		out = append(out, all[i].s)
	}
	return out
}
