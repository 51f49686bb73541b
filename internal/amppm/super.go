package amppm

import (
	"fmt"

	"smartvlc/internal/mppm"
)

// MaxMultiplicity caps m1 and m2 so a super-symbol descriptor fits the
// 4-byte Pattern field of the frame header (paper Table 1).
const MaxMultiplicity = 255

// SuperSymbol is paper §4.2's composition <S1(N1,l1), m1, S2(N2,l2), m2>:
// m1 symbols of pattern S1 followed by m2 symbols of pattern S2 (Fig. 7).
// A single-pattern super-symbol has M2 = 0.
type SuperSymbol struct {
	S1 mppm.Pattern
	M1 int
	S2 mppm.Pattern
	M2 int
}

// Valid reports whether the super-symbol is well-formed.
func (s SuperSymbol) Valid() bool {
	if !s.S1.Valid() || s.M1 < 1 || s.M1 > MaxMultiplicity || s.M2 < 0 || s.M2 > MaxMultiplicity {
		return false
	}
	if s.M2 > 0 && !s.S2.Valid() {
		return false
	}
	return true
}

// Slots returns Nsuper = m1·N1 + m2·N2.
func (s SuperSymbol) Slots() int {
	n := s.M1 * s.S1.N
	if s.M2 > 0 {
		n += s.M2 * s.S2.N
	}
	return n
}

// Level returns the super-symbol dimming level
// (l1·m1·N1 + l2·m2·N2) / Nsuper.
func (s SuperSymbol) Level() float64 {
	on := s.M1 * s.S1.K
	if s.M2 > 0 {
		on += s.M2 * s.S2.K
	}
	return float64(on) / float64(s.Slots())
}

// Bits returns the data bits carried per super-symbol.
func (s SuperSymbol) Bits() int {
	b := s.M1 * s.S1.Bits()
	if s.M2 > 0 {
		b += s.M2 * s.S2.Bits()
	}
	return b
}

// NormalizedRate returns bits per slot.
func (s SuperSymbol) NormalizedRate() float64 {
	return float64(s.Bits()) / float64(s.Slots())
}

// Rate returns bit/s for the given slot duration, before error losses.
func (s SuperSymbol) Rate(tslotSeconds float64) float64 {
	if tslotSeconds <= 0 {
		return 0
	}
	return float64(s.Bits()) / (float64(s.Slots()) * tslotSeconds)
}

// RepetitionHz returns how often the super-symbol repeats; this must stay
// at or above the Type-I flicker threshold f_th.
func (s SuperSymbol) RepetitionHz(tslotSeconds float64) float64 {
	return 1 / (float64(s.Slots()) * tslotSeconds)
}

// SER returns the probability that at least one constituent symbol of the
// super-symbol decodes incorrectly. Constituents are decoded independently,
// which is why multiplexing does not raise the per-symbol error rate
// (paper §4.1.2).
func (s SuperSymbol) SER(p1, p2 float64) float64 {
	ok := 1.0
	ok *= pow1m(s.S1.SER(p1, p2), s.M1)
	if s.M2 > 0 {
		ok *= pow1m(s.S2.SER(p1, p2), s.M2)
	}
	return 1 - ok
}

func pow1m(p float64, m int) float64 {
	v := 1.0
	for i := 0; i < m; i++ {
		v *= 1 - p
	}
	return v
}

// String implements fmt.Stringer.
func (s SuperSymbol) String() string {
	if s.M2 == 0 {
		return fmt.Sprintf("<%v × %d>", s.S1, s.M1)
	}
	return fmt.Sprintf("<%v × %d, %v × %d>", s.S1, s.M1, s.S2, s.M2)
}

// Select performs step 4 of paper §4.2: it returns the super-symbol that
// reaches the target dimming level as closely as possible while maximizing
// throughput, under the flicker cap Nmax and the descriptor limits. The
// chosen constituents are always envelope vertices bracketing the target.
// Results are memoized per level; safe for concurrent use.
func (t *Table) Select(level float64) (SuperSymbol, error) {
	if v, ok := t.selCache.Load(level); ok {
		selectCacheHits.Inc()
		return v.(SuperSymbol), nil
	}
	selectCacheMisses.Inc()
	s, err := t.selectUncached(level)
	if err != nil {
		return s, err
	}
	if t.selSize.Load() < selCacheMax {
		if _, loaded := t.selCache.LoadOrStore(level, s); !loaded {
			t.selSize.Add(1)
		}
	}
	return s, nil
}

func (t *Table) selectUncached(level float64) (SuperSymbol, error) {
	lo, hi := t.LevelRange()
	if !(level >= lo && level <= hi) { // NaN fails too
		return SuperSymbol{}, fmt.Errorf("amppm: level %.4f outside supported range [%.4f, %.4f]", level, lo, hi)
	}
	vs := t.vertices
	// Locate the bracketing segment [a, b].
	j := 0
	for j < len(vs) && vs[j].Level < level {
		j++
	}
	if j < len(vs) && vs[j].Level == level {
		return SuperSymbol{S1: vs[j].Pattern, M1: 1}, nil
	}
	a, b := vs[j-1], vs[j]

	nmax := t.cons.NMax()
	best := SuperSymbol{}
	bestErr := 2.0
	consider := func(c SuperSymbol) {
		if !c.Valid() || c.Slots() > nmax {
			return
		}
		e := abs(c.Level() - level)
		switch {
		case e < bestErr-1e-12:
		case e <= bestErr+1e-12 && c.NormalizedRate() > best.NormalizedRate()+1e-12:
		case e <= bestErr+1e-12 && c.NormalizedRate() >= best.NormalizedRate()-1e-12 && c.Slots() < best.Slots():
		default:
			return
		}
		best, bestErr = c, e
	}
	// A target just off a vertex may be served best by the vertex alone.
	consider(SuperSymbol{S1: a.Pattern, M1: 1})
	consider(SuperSymbol{S1: b.Pattern, M1: 1})
	// For each m1, the ideal m2 solves
	//   m1·N1·(level − l1) = m2·N2·(l2 − level),
	// so only its floor/ceil neighbours can be optimal.
	n1, l1 := a.Pattern.N, a.Level
	n2, l2 := b.Pattern.N, b.Level
	for m1 := 1; m1 <= MaxMultiplicity && m1*n1 < nmax; m1++ {
		ideal := float64(m1) * float64(n1) * (level - l1) / (float64(n2) * (l2 - level))
		if ideal > float64(nmax) {
			ideal = float64(nmax) // cap: anything larger cannot fit anyway
		}
		m2cap := (nmax - m1*n1) / n2 // largest m2 that fits the flicker cap
		for _, m2 := range []int{int(ideal), int(ideal) + 1, m2cap} {
			if m2 < 1 {
				m2 = 1
			}
			consider(SuperSymbol{S1: a.Pattern, M1: m1, S2: b.Pattern, M2: m2})
		}
	}
	if !best.Valid() {
		// Degenerate constraints (e.g. Nmax too small to fit one of each
		// pattern): fall back to the nearer vertex.
		if level-a.Level <= b.Level-level {
			return SuperSymbol{S1: a.Pattern, M1: 1}, nil
		}
		return SuperSymbol{S1: b.Pattern, M1: 1}, nil
	}
	return best, nil
}

// Resolution returns the worst-case dimming error |achieved − target| over
// a sweep of nSteps levels across the supported range. The paper's
// multiplexing argument (§4.1.2) predicts this shrinks roughly like
// 1/Nmax.
func (t *Table) Resolution(nSteps int) float64 {
	lo, hi := t.LevelRange()
	worst := 0.0
	for i := 0; i <= nSteps; i++ {
		level := lo + (hi-lo)*float64(i)/float64(nSteps)
		s, err := t.Select(level)
		if err != nil {
			continue
		}
		if e := abs(s.Level() - level); e > worst {
			worst = e
		}
	}
	return worst
}
