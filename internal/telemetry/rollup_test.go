package telemetry_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/agg"
	"smartvlc/internal/telemetry/health"
)

// span is the part of a rollup point the cross-level check reads: its
// time span, its width in seconds, and its integer counts.
type span struct {
	start, end, width float64
	partial           bool
	counts            []int64
}

// checkLevels requires every point above level 0 to hold exactly the
// counts of the finer points inside its [Start, End), with their widths
// summing to its own, and every partial point's width to equal its span.
func checkLevels(t *testing.T, who string, levels [][]span) {
	t.Helper()
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	for k, pts := range levels {
		if len(pts) == 0 {
			t.Fatalf("%s: level %d is empty", who, k)
		}
		for _, p := range pts {
			if p.partial && !near(p.width, p.end-p.start) {
				t.Errorf("%s: level %d partial [%v, %v) is %v s wide", who, k, p.start, p.end, p.width)
			}
			if k == 0 {
				continue
			}
			sum := make([]int64, len(p.counts))
			var width float64
			for _, q := range levels[k-1] {
				if q.start >= p.start && q.end <= p.end {
					for i, n := range q.counts {
						sum[i] += n
					}
					width += q.width
				}
			}
			if fmt.Sprint(sum) != fmt.Sprint(p.counts) || !near(width, p.width) {
				t.Errorf("%s: level %d [%v, %v) holds %v over %v s; the finer points inside sum to %v over %v s",
					who, k, p.start, p.end, p.counts, p.width, sum, width)
			}
		}
	}
}

// TestRollupLevelsAccount drives both users of telemetry.Pyramid with
// seeded random traffic and checks the cross-level accounting on their
// final snapshots: the health monitor through Finish, the fleet
// aggregator through Snapshot.
func TestRollupLevelsAccount(t *testing.T) {
	const tslot = 8e-6
	for _, factor := range []int{2, 4} {
		t.Run(fmt.Sprintf("health/factor%d", factor), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(factor), 1))
			m := health.NewMonitor(health.Config{BucketSlots: 1000, Levels: 3, Factor: factor, Capacity: 1 << 12})
			now := 0.0
			for i := 0; i < 500; i++ {
				now += rng.Float64() * 0.004
				ok, bad := rng.IntN(3), rng.IntN(2)
				m.ObserveLevel(now, rng.Float64())
				m.ObserveTx(now, 100+rng.IntN(100), rng.IntN(4) == 0)
				m.ObserveRx(now, ok, bad, rng.IntN(5), ok*128)
				m.ObserveDelivered(now, int64(ok)*1024)
				if rng.IntN(2) == 0 {
					m.ObserveAck(now, rng.Float64()*0.05)
				}
			}
			s := m.Finish(now + rng.Float64()*0.008)
			var levels [][]span
			for _, sr := range s.Series {
				if sr.Dropped != 0 {
					t.Fatalf("level %d evicted %d points", sr.Resolution, sr.Dropped)
				}
				var pts []span
				for _, p := range sr.Points {
					pts = append(pts, span{p.Start, p.End, p.WidthSlots * tslot, p.Partial, []int64{
						p.FramesTx, p.FramesRetx, p.FramesOK, p.FramesBad, p.Symbols, p.SymbolErrors,
						p.DeliveredBits, p.TxSlots, p.LevelN, p.AckCount,
					}})
				}
				levels = append(levels, pts)
			}
			checkLevels(t, "health", levels)
		})
		t.Run(fmt.Sprintf("agg/factor%d", factor), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(factor), 2))
			a, err := agg.New(agg.Config{WindowSeconds: 0.01, Levels: 3, Factor: factor, Capacity: 1 << 12}, 2)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				f, err := a.Feed(agg.SessionMeta{Index: i, PayloadBytes: 32})
				if err != nil {
					t.Fatal(err)
				}
				reg := telemetry.New()
				now := 0.0
				for j := 0; j < 300+100*i; j++ {
					now += rng.Float64() * 0.004
					ok := int64(rng.IntN(3))
					reg.Counter("sim_frames_tx_total").Inc()
					reg.Counter("phy_rx_frames_total", "outcome", "ok").Add(ok)
					reg.Counter("phy_rx_frames_total", "outcome", "bad").Add(int64(rng.IntN(2)))
					reg.Counter("phy_rx_symbol_errors_total").Add(int64(rng.IntN(5)))
					reg.Counter("mac_timeouts_total").Add(int64(rng.IntN(2)))
					reg.Counter("sim_delivered_bytes_total").Add(ok * 32)
					reg.Gauge("sim_dimming_level").Set(rng.Float64())
					if rng.IntN(2) == 0 {
						reg.Counter("mac_acks_received_total").Inc()
						reg.Histogram("mac_ack_latency_seconds").Observe(rng.Float64() * 0.05)
					}
					f.Tick(now, reg)
				}
				f.Finish(now+rng.Float64()*0.01, reg)
			}
			var levels [][]span
			for _, sr := range a.Snapshot().Series {
				if sr.Dropped != 0 {
					t.Fatalf("level %d evicted %d points", sr.Resolution, sr.Dropped)
				}
				var pts []span
				for _, p := range sr.Points {
					pts = append(pts, span{p.Start, p.End, p.End - p.Start, p.Partial, []int64{
						p.FramesTx, p.FramesOK, p.FramesBad, p.SymbolErrors, p.Symbols,
						p.Timeouts, p.Acks, p.DeliveredBytes, p.LevelN, p.AckCount,
					}})
				}
				levels = append(levels, pts)
			}
			checkLevels(t, "agg", levels)
		})
	}
}
