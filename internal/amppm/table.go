package amppm

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smartvlc/internal/mppm"
)

// Vertex is one point of the throughput envelope: a symbol pattern together
// with its exact dimming level and normalized data rate (bits per slot).
type Vertex struct {
	Pattern mppm.Pattern
	Level   float64
	Rate    float64
}

// Table holds the outcome of AMPPM's offline planning stage for one set of
// link constraints: the SER-pruned pattern set and the throughput envelope.
// Both transmitter and receiver derive the same Table from the shared link
// constants, which lets the frame header refer to envelope vertices by
// index. A Table is immutable after construction and safe for concurrent
// use.
type Table struct {
	cons     Constraints
	patterns []mppm.Pattern // all valid data-bearing patterns after pruning
	vertices []Vertex       // envelope, strictly increasing in Level

	// selCache memoizes Select results by target level: the session loop
	// asks for the same quantized dimming levels over and over, and the
	// multiplicity search is far more expensive than a map hit. Bounded
	// by selCacheMax so adversarial level streams cannot grow it without
	// limit.
	selCache sync.Map // float64 → SuperSymbol
	selSize  atomic.Int64
}

const selCacheMax = 1 << 14

// tableCache memoizes NewTable by its Constraints: every scheme instance
// and every experiment point derives the identical planning table from
// the shared link constants, and the SER enumeration plus slope walk is
// by far the most expensive part of constructing one. Tables are
// immutable, so sharing one instance across callers is safe.
var tableCache sync.Map // Constraints → *Table

// NewTable runs steps 1–3 of paper §4.2: computes Nmax, prunes patterns by
// the SER bound, and builds the envelope with the slope walk. Results are
// memoized per Constraints value; callers receive a shared immutable
// Table. Safe for concurrent use.
func NewTable(cons Constraints) (*Table, error) {
	if v, ok := tableCache.Load(cons); ok {
		tableCacheHits.Inc()
		return v.(*Table), nil
	}
	tableCacheMisses.Inc()
	start := time.Now()
	t, err := buildTable(cons)
	if err != nil {
		return nil, err
	}
	tableBuildMicros.Observe(float64(time.Since(start).Microseconds()))
	v, _ := tableCache.LoadOrStore(cons, t)
	return v.(*Table), nil
}

// buildTable is the uncached planning stage.
func buildTable(cons Constraints) (*Table, error) {
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	t := &Table{cons: cons}
	t.patterns = enumerate(cons)
	if len(t.patterns) == 0 {
		return nil, fmt.Errorf("amppm: no pattern satisfies SER bound %v", cons.SERBound)
	}
	points := bestPerLevel(t.patterns)
	// Zero-rate anchors let super-symbols interpolate all the way to the
	// dimming extremes: an all-OFF or all-ON filler slot carries no data
	// but is a legitimate multiplexing partner.
	points = addAnchor(points, Vertex{Pattern: mppm.Pattern{N: 1, K: 0}, Level: 0, Rate: 0})
	points = addAnchor(points, Vertex{Pattern: mppm.Pattern{N: 1, K: 1}, Level: 1, Rate: 0})
	sort.Slice(points, func(i, j int) bool { return points[i].Level < points[j].Level })
	t.vertices = slopeWalk(points)
	return t, nil
}

// enumerate lists every data-bearing pattern S(N,K) allowed by the
// constraints: MinN ≤ N ≤ min(MaxN, Nmax, mppm.MaxStreamN), 1 ≤ K ≤ N−1,
// SER ≤ bound. The mppm.MaxStreamN clamp keeps every pattern encodable by
// the streaming (uint64) codec.
func enumerate(cons Constraints) []mppm.Pattern {
	maxN := cons.MaxN
	if nm := cons.NMax(); nm < maxN {
		maxN = nm
	}
	if maxN > mppm.MaxStreamN {
		maxN = mppm.MaxStreamN
	}
	// Counted capacity: the candidate grid has exactly sum_{n}(n-1) cells,
	// so one allocation holds every surviving pattern.
	cells := 0
	for n := cons.MinN; n <= maxN; n++ {
		cells += n - 1
	}
	if cells < 0 {
		cells = 0
	}
	out := make([]mppm.Pattern, 0, cells)
	for n := cons.MinN; n <= maxN; n++ {
		for k := 1; k < n; k++ {
			if mppm.SER(n, k, cons.P1, cons.P2) > cons.SERBound {
				continue
			}
			p := mppm.Pattern{N: n, K: k}
			if p.Bits() == 0 {
				continue
			}
			out = append(out, p)
		}
	}
	return out
}

// bestPerLevel reduces the pattern set to one point per distinct dimming
// level: the highest normalized rate, with ties going to the shortest
// symbol (lower latency, finer super-symbol granularity).
func bestPerLevel(patterns []mppm.Pattern) []Vertex {
	type key struct{ num, den int }
	best := make(map[key]Vertex, len(patterns))
	for _, p := range patterns {
		g := gcd(p.K, p.N)
		k := key{p.K / g, p.N / g}
		v := Vertex{Pattern: p, Level: p.DimmingLevel(), Rate: p.NormalizedRate()}
		cur, ok := best[k]
		if !ok || v.Rate > cur.Rate || (v.Rate == cur.Rate && p.N < cur.Pattern.N) {
			best[k] = v
		}
	}
	out := make([]Vertex, 0, len(best))
	for _, v := range best {
		out = append(out, v)
	}
	return out
}

func addAnchor(points []Vertex, a Vertex) []Vertex {
	for _, p := range points {
		if p.Level == a.Level {
			return points // a data-bearing pattern at the extreme wins
		}
	}
	return append(points, a)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// slopeWalk implements paper §4.2 step 3: starting from the highest-rate
// point (the one nearest l = 0.5 on ties), repeatedly hop to the candidate
// with the gentlest descent — maximum slope going right, minimum slope
// going left — until the dimming extremes are reached. The result is the
// upper concave envelope of the point set. points must be sorted by Level
// with distinct levels.
func slopeWalk(points []Vertex) []Vertex {
	peak := 0
	for i, p := range points {
		cur := points[peak]
		switch {
		case p.Rate > cur.Rate:
			peak = i
		case p.Rate == cur.Rate && abs(p.Level-0.5) < abs(cur.Level-0.5):
			peak = i
		case p.Rate == cur.Rate && abs(p.Level-0.5) == abs(cur.Level-0.5) && p.Level > cur.Level:
			// Exact symmetric tie (e.g. S(21,10) vs S(21,11)): the paper's
			// Fig. 9 starts from the brighter twin, S(21, 0.524).
			peak = i
		}
	}

	// At each hop choose the gentlest descent; on slope ties keep the
	// nearest point, so every point lying on the hull becomes a vertex —
	// collinear vertices are desirable interpolation partners because they
	// allow shorter super-symbols.
	right := make([]Vertex, 0, len(points)-1-peak)
	for i := peak; i < len(points)-1; {
		cur := points[i]
		next := -1
		bestSlope := 0.0
		for j := i + 1; j < len(points); j++ {
			s := (points[j].Rate - cur.Rate) / (points[j].Level - cur.Level)
			if next == -1 || s > bestSlope+1e-12 {
				next, bestSlope = j, s
			}
		}
		right = append(right, points[next])
		i = next
	}

	left := make([]Vertex, 0, peak)
	for i := peak; i > 0; {
		cur := points[i]
		next := -1
		bestSlope := 0.0
		for j := i - 1; j >= 0; j-- {
			s := (points[j].Rate - cur.Rate) / (points[j].Level - cur.Level)
			if next == -1 || s < bestSlope-1e-12 {
				next, bestSlope = j, s
			}
		}
		left = append(left, points[next])
		i = next
	}

	env := make([]Vertex, 0, len(left)+1+len(right))
	for i := len(left) - 1; i >= 0; i-- {
		env = append(env, left[i])
	}
	env = append(env, points[peak])
	env = append(env, right...)
	return env
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Constraints returns the constraints the table was built from.
func (t *Table) Constraints() Constraints { return t.cons }

// Patterns returns all SER-valid data-bearing patterns (paper Fig. 8's
// "below the upper bound" set). The slice is shared; do not modify.
func (t *Table) Patterns() []mppm.Pattern { return t.patterns }

// Vertices returns the envelope vertices in increasing dimming-level order.
// The slice is shared; do not modify.
func (t *Table) Vertices() []Vertex { return t.vertices }

// LevelRange returns the dimming levels spanned by the envelope.
func (t *Table) LevelRange() (lo, hi float64) {
	return t.vertices[0].Level, t.vertices[len(t.vertices)-1].Level
}

// EnvelopeRateAt returns the normalized data rate (bits/slot) the envelope
// achieves at the given dimming level, interpolating linearly along the
// segment between the bracketing vertices. Levels outside the envelope
// span return 0.
func (t *Table) EnvelopeRateAt(level float64) float64 {
	vs := t.vertices
	if !(level >= vs[0].Level && level <= vs[len(vs)-1].Level) { // NaN fails too
		return 0
	}
	i := sort.Search(len(vs), func(i int) bool { return vs[i].Level >= level })
	if vs[i].Level == level {
		return vs[i].Rate
	}
	a, b := vs[i-1], vs[i]
	f := (level - a.Level) / (b.Level - a.Level)
	return a.Rate + f*(b.Rate-a.Rate)
}

// BestSingleRateAt returns the best normalized rate achievable at the given
// level with a single fixed pattern (no multiplexing) whose dimming level
// matches the target within tol. This is the "without multiplexing" curve
// of paper Fig. 9; it returns 0 when no pattern lands on the level.
func (t *Table) BestSingleRateAt(level, tol float64) float64 {
	best := 0.0
	for _, p := range t.patterns {
		if abs(p.DimmingLevel()-level) <= tol {
			if r := p.NormalizedRate(); r > best {
				best = r
			}
		}
	}
	return best
}
