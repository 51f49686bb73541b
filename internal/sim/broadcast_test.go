package sim

import (
	"math"
	"strings"
	"testing"

	"smartvlc/internal/light"
	"smartvlc/internal/optics"
	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/agg"
	"smartvlc/internal/telemetry/flight"
	"smartvlc/internal/telemetry/span"
)

func broadcastConfig(t *testing.T, poses ...ReceiverPose) BroadcastConfig {
	t.Helper()
	return BroadcastConfig{
		Config:    DefaultConfig(amppmScheme(t)),
		Receivers: poses,
	}
}

func TestBroadcastValidation(t *testing.T) {
	if _, err := RunBroadcast(BroadcastConfig{Config: DefaultConfig(amppmScheme(t))}, 1); err == nil {
		t.Fatal("no receivers accepted")
	}
	cfg := broadcastConfig(t, ReceiverPose{Geometry: optics.Geometry{}})
	if _, err := RunBroadcast(cfg, 1); err == nil {
		t.Fatal("bad geometry accepted")
	}
	cfg = broadcastConfig(t, ReceiverPose{Geometry: optics.Aligned(2, 0)})
	for _, d := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := RunBroadcast(cfg, d); err == nil {
			t.Fatalf("duration %v accepted", d)
		}
	}
	for _, h := range hostileConfigs {
		cfg := broadcastConfig(t, ReceiverPose{Geometry: optics.Aligned(2, 0)}, ReceiverPose{Geometry: optics.Aligned(3, 4)})
		h.edit(&cfg.Config)
		if _, err := RunBroadcast(cfg, 0.05); err == nil {
			t.Errorf("%s accepted", h.name)
		}
	}

	// The single-link facilities are refused by name, never ignored.
	rec, err := flight.New(flight.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ag, err := agg.New(agg.Config{WindowSeconds: 0.05}, 1)
	if err != nil {
		t.Fatal(err)
	}
	feed, err := ag.Feed(agg.SessionMeta{})
	if err != nil {
		t.Fatal(err)
	}
	for name, arm := range map[string]func(*Config){
		"Config.Flight":           func(c *Config) { c.Flight = rec },
		"Config.Watch":            func(c *Config) { c.Telemetry, c.Watch = telemetry.New(), feed },
		"Config.UplinkVLCBitRate": func(c *Config) { c.UplinkVLCBitRate = 10e3 },
	} {
		cfg := broadcastConfig(t, ReceiverPose{Geometry: optics.Aligned(2, 0)})
		arm(&cfg.Config)
		_, err := RunBroadcast(cfg, 0.05)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("broadcast with %s: error %v, want one naming it", name, err)
		}
	}
}

func TestBroadcastAllReceiversDeliver(t *testing.T) {
	cfg := broadcastConfig(t,
		ReceiverPose{Geometry: optics.Aligned(1.5, 0)},
		ReceiverPose{Geometry: optics.Aligned(3.0, 3)},
		ReceiverPose{Geometry: optics.Aligned(3.3, 5)},
	)
	cfg.FixedLevel = 0.4
	res, err := RunBroadcast(cfg, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerReceiver) != 3 {
		t.Fatalf("outcomes: %d", len(res.PerReceiver))
	}
	// The reliable rate is bounded by the slowest receiver.
	slowest := math.Inf(1)
	for i, o := range res.PerReceiver {
		if o.DeliveredBps < 30e3 {
			t.Fatalf("receiver %d delivered only %v bps", i, o.DeliveredBps)
		}
		slowest = math.Min(slowest, o.DeliveredBps)
	}
	if res.ReliableGoodputBps > slowest+1e-9 {
		t.Fatalf("reliable %v above slowest receiver %v", res.ReliableGoodputBps, slowest)
	}
	if res.ReliableGoodputBps < 30e3 {
		t.Fatalf("reliable goodput %v", res.ReliableGoodputBps)
	}
}

func TestBroadcastRetransmitsForWeakReceiver(t *testing.T) {
	// One receiver sits near the range cliff: the sender must retransmit
	// until it too acknowledges, costing reliable throughput.
	strong := broadcastConfig(t, ReceiverPose{Geometry: optics.Aligned(1.5, 0)})
	strong.FixedLevel = 0.5
	rs, err := RunBroadcast(strong, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mixed := broadcastConfig(t,
		ReceiverPose{Geometry: optics.Aligned(1.5, 0)},
		ReceiverPose{Geometry: optics.Aligned(3.7, 0)},
	)
	mixed.FixedLevel = 0.5
	rm, err := RunBroadcast(mixed, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rm.ReliableGoodputBps >= rs.ReliableGoodputBps {
		t.Fatalf("weak receiver should cost reliable throughput: %v vs %v",
			rm.ReliableGoodputBps, rs.ReliableGoodputBps)
	}
}

func TestBroadcastDimmingFollowsDarkestDesk(t *testing.T) {
	// Two desks, one near the window (2x ambient): the controller must
	// satisfy the darker desk, so the sunnier one ends up brighter than
	// the target while the darker one stays at it.
	cfg := broadcastConfig(t,
		ReceiverPose{Geometry: optics.Aligned(2.0, 0), AmbientScale: 0.5},
		ReceiverPose{Geometry: optics.Aligned(2.5, 0), AmbientScale: 2.0},
	)
	cfg.Trace = light.Static{Lux: 150}
	cfg.FullLEDLux = 500
	cfg.TargetSum = 1.0
	res, err := RunBroadcast(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	dark, sunny := res.PerReceiver[0], res.PerReceiver[1]
	if math.Abs(dark.MeanSum-1.0) > 0.08 {
		t.Fatalf("dark desk sum %v, want ≈1.0", dark.MeanSum)
	}
	if sunny.MeanSum < dark.MeanSum+0.2 {
		t.Fatalf("sunny desk %v should exceed dark desk %v", sunny.MeanSum, dark.MeanSum)
	}
}

// TestBroadcastDrainRecordsTrailingAcks: frames every receiver
// acknowledges after the last transmission, in the trailing drain, reach
// the sender like any other — the ACK counter, the ACK-latency histogram
// and the mac/ack spans each count every completed frame, as the single
// link's drain does at the same pose.
func TestBroadcastDrainRecordsTrailingAcks(t *testing.T) {
	acks := func(snap *telemetry.Snapshot, spans *span.Snapshot) (counter, latencies, ackSpans int64) {
		for _, c := range snap.Counters {
			if c.Name == "mac_acks_received_total" {
				counter = c.Value
			}
		}
		for _, h := range snap.Histograms {
			if h.Name == "mac_ack_latency_seconds" {
				latencies = h.Count
			}
		}
		for _, s := range spans.Spans {
			if s.Name == "mac/ack" {
				ackSpans++
			}
		}
		return counter, latencies, ackSpans
	}
	cfg := broadcastConfig(t, ReceiverPose{Geometry: optics.Aligned(2, 0)})
	cfg.Telemetry, cfg.Spans = telemetry.New(), span.NewCollector()
	res, err := RunBroadcast(cfg, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	complete := int64(math.Round(res.ReliableGoodputBps * res.Duration / 8 / float64(cfg.PayloadBytes)))
	counter, latencies, ackSpans := acks(res.Telemetry, res.Spans)
	if counter != complete || latencies != complete || ackSpans != complete {
		t.Fatalf("%d frames complete; acks counted %d, latencies %d, mac/ack spans %d", complete, counter, latencies, ackSpans)
	}

	single := cfg.Config
	single.Geometry = optics.Aligned(2, 0)
	single.Telemetry, single.Spans = telemetry.New(), span.NewCollector()
	sres, err := Run(single, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if c, l, s := acks(sres.Telemetry, sres.Spans); c != complete || l != complete || s != complete {
		t.Fatalf("single link at the same pose counts %d acks, %d latencies, %d mac/ack spans; broadcast %d", c, l, s, complete)
	}
}
