package telemetry

import "slices"

// Counts is the raw-count record behind every windowed rollup: the link
// health series and the fleet aggregate both fold observations into one
// of these and derive their rates from it, never from other rates, so a
// coarse or merged point is an exact sum. Fields a caller does not track
// stay zero.
type Counts struct {
	FramesTx, FramesRetx, FramesOK, FramesBad int64
	Symbols, SymbolErrors                     int64
	Delivered                                 int64 // delivered payload, in the caller's unit
	TxSlots                                   int64
	Timeouts, Acks                            int64

	LevelSum float64
	LevelN   int64
	LevelMax float64

	AckCount   int64
	AckSum     float64
	AckBuckets [NumHistogramBuckets]int64 // on the histogram's log2 grid
}

// Add folds o into c: every count is summed and LevelMax keeps the larger.
func (c *Counts) Add(o *Counts) {
	c.FramesTx += o.FramesTx
	c.FramesRetx += o.FramesRetx
	c.FramesOK += o.FramesOK
	c.FramesBad += o.FramesBad
	c.Symbols += o.Symbols
	c.SymbolErrors += o.SymbolErrors
	c.Delivered += o.Delivered
	c.TxSlots += o.TxSlots
	c.Timeouts += o.Timeouts
	c.Acks += o.Acks
	c.LevelSum += o.LevelSum
	c.LevelN += o.LevelN
	if o.LevelMax > c.LevelMax {
		c.LevelMax = o.LevelMax
	}
	c.AckCount += o.AckCount
	c.AckSum += o.AckSum
	for i, n := range o.AckBuckets {
		c.AckBuckets[i] += n
	}
}

// Sub subtracts o from c field by field, turning two cumulative reads into
// the increment between them. LevelMax, which has no difference, is left
// as it is; the level fields are subtracted like the rest, and a caller
// that reads them as a gauge restores the current value afterwards.
func (c *Counts) Sub(o *Counts) {
	c.FramesTx -= o.FramesTx
	c.FramesRetx -= o.FramesRetx
	c.FramesOK -= o.FramesOK
	c.FramesBad -= o.FramesBad
	c.Symbols -= o.Symbols
	c.SymbolErrors -= o.SymbolErrors
	c.Delivered -= o.Delivered
	c.TxSlots -= o.TxSlots
	c.Timeouts -= o.Timeouts
	c.Acks -= o.Acks
	c.LevelSum -= o.LevelSum
	c.LevelN -= o.LevelN
	c.AckCount -= o.AckCount
	c.AckSum -= o.AckSum
	for i, n := range o.AckBuckets {
		c.AckBuckets[i] -= n
	}
}

// MeanLevel is the mean dimming level over the record's level samples.
func (c *Counts) MeanLevel() float64 {
	if c.LevelN == 0 {
		return 0
	}
	return c.LevelSum / float64(c.LevelN)
}

// Rates are the rates every rollup point derives from its Counts, plus
// the ACK histogram in the sparse form snapshots store.
type Rates struct {
	AckBuckets             []Bucket // occupied buckets only; nil when none
	MeanLevel, SER         float64
	FrameLoss              float64
	AckP50, AckP95, AckP99 float64
}

// Rates derives c's rates. A rate whose denominator is zero reads 0.
func (c *Counts) Rates() Rates {
	r := Rates{MeanLevel: c.MeanLevel()}
	for i, n := range c.AckBuckets {
		if n > 0 {
			r.AckBuckets = append(r.AckBuckets, Bucket{Index: i, Count: n})
		}
	}
	if c.Symbols > 0 {
		r.SER = float64(c.SymbolErrors) / float64(c.Symbols)
	}
	if all := c.FramesOK + c.FramesBad; all > 0 {
		r.FrameLoss = float64(c.FramesBad) / float64(all)
	}
	r.AckP50 = QuantileOf(r.AckBuckets, c.AckCount, 0.50)
	r.AckP95 = QuantileOf(r.AckBuckets, c.AckCount, 0.95)
	r.AckP99 = QuantileOf(r.AckBuckets, c.AckCount, 0.99)
	return r
}

// Group is a rollup point in the making: the counts of the constituents
// folded into it and the span they cover.
type Group struct {
	Index      int64
	Start, End float64
	Width      float64 // summed widths of the constituents, in the caller's unit
	Partial    bool    // some constituent was partial
	Members    int     // the most members any constituent had
	N          int     // constituents folded in
	Counts
}

// fold adds constituent c to g, a group of factor constituents.
func (g *Group) fold(c *Group, factor int) {
	if g.N == 0 {
		g.Index, g.Start, g.End = c.Index/int64(factor), c.Start, c.End
	}
	if c.Start < g.Start {
		g.Start = c.Start
	}
	if c.End > g.End {
		g.End = c.End
	}
	g.Width += c.Width
	g.Partial = g.Partial || c.Partial
	g.Members = max(g.Members, c.Members)
	g.Add(&c.Counts)
	g.N++
}

// maxLevels bounds a Pyramid's depth.
const maxLevels = 6

// Pyramid is a multi-resolution downsampling pyramid of rollup points P.
// Level 0 holds the points the caller seals; every Factor consecutive
// points of level k fold into one point of level k+1. Each level keeps its
// most recent Capacity points in a ring, counting evictions in Dropped.
//
// Only the open groups hold a dense Counts record; sealed points are the
// caller's compact P, built by the point function the pyramid is made
// with. A Pyramid is not safe for concurrent use.
type Pyramid[P any] struct {
	factor, capacity int
	point            func(*Group) P
	rings            []ring[P]
	open             []Group // open[k] collects level-k points toward level k+1
}

// NewPyramid returns a pyramid of levels resolutions (clamped to [1, 6])
// that folds factor (≥ 2) points per coarser point and keeps capacity
// (≥ 1) points per level. point builds a level's point from a group.
func NewPyramid[P any](levels, factor, capacity int, point func(*Group) P) *Pyramid[P] {
	levels = min(max(levels, 1), maxLevels)
	return &Pyramid[P]{
		factor:   factor,
		capacity: capacity,
		point:    point,
		rings:    make([]ring[P], levels),
		open:     make([]Group, levels-1),
	}
}

// Levels returns the number of resolutions.
func (p *Pyramid[P]) Levels() int { return len(p.rings) }

// Seal appends the level-0 point built from g and cascades g's counts
// upward, sealing each coarser group once it holds Factor points. It
// returns the level-0 point.
func (p *Pyramid[P]) Seal(g *Group) P { return p.seal(0, g) }

func (p *Pyramid[P]) seal(k int, g *Group) P {
	pt := p.point(g)
	p.rings[k].push(pt, p.capacity)
	if k < len(p.open) {
		up := &p.open[k]
		up.fold(g, p.factor)
		if up.N == p.factor {
			p.seal(k+1, up)
			*up = Group{}
		}
	}
	return pt
}

// AppendPoints appends level k's retained points to dst, oldest first.
// With open set, a level-k group that holds any constituent follows as
// a Partial point: it has exactly the counts folded into it so far, and
// its End and Width cover exactly those constituents.
func (p *Pyramid[P]) AppendPoints(dst []P, k int, open bool) []P {
	r := &p.rings[k]
	var g *Group
	if open && k > 0 && p.open[k-1].N > 0 {
		g = &p.open[k-1]
	}
	n := len(r.pts)
	if g != nil {
		n++
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, r.pts[r.head:]...)
	dst = append(dst, r.pts[:r.head]...)
	if g != nil {
		// Built in place, so rendering allocates only the point itself.
		was := g.Partial
		g.Partial = true
		dst = append(dst, p.point(g))
		g.Partial = was
	}
	return dst
}

// Dropped returns the number of points level k has evicted.
func (p *Pyramid[P]) Dropped(k int) int64 { return p.rings[k].dropped }

// ring keeps the most recent points of one level; once full, head is the
// oldest.
type ring[P any] struct {
	pts     []P
	head    int
	dropped int64
}

func (r *ring[P]) push(pt P, capacity int) {
	if len(r.pts) < capacity {
		r.pts = append(r.pts, pt)
		return
	}
	r.pts[r.head] = pt
	r.head = (r.head + 1) % capacity
	r.dropped++
}
