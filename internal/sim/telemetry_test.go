package sim

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"smartvlc/internal/light"
	"smartvlc/internal/optics"
	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/vlog"
)

// TestRunTelemetryDeterministic is the ISSUE acceptance criterion: two
// Run calls with identical config and seed must produce byte-identical
// JSON telemetry exports. Per-session registries only record sim-time
// quantities, so nothing about wall time, map order or process warm-up
// may leak into the snapshot.
func TestRunTelemetryDeterministic(t *testing.T) {
	s := amppmScheme(t)
	run := func() []byte {
		cfg := DefaultConfig(s)
		cfg.FixedLevel = 0.5
		cfg.Telemetry = telemetry.New()
		res, err := Run(cfg, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if res.Telemetry == nil {
			t.Fatal("Run left Result.Telemetry nil despite a registry")
		}
		j, err := res.Telemetry.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("telemetry snapshots differ across identically-seeded runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestRunTelemetryContent checks the instrumented pipeline actually
// records: frames transmitted, PHY outcomes and MAC acks all present and
// consistent with Result.
func TestRunTelemetryContent(t *testing.T) {
	s := amppmScheme(t)
	cfg := DefaultConfig(s)
	cfg.FixedLevel = 0.5
	cfg.Telemetry = telemetry.New()
	res, err := Run(cfg, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Telemetry

	counter := func(name string, labels ...string) int64 {
		t.Helper()
		for _, c := range snap.Counters {
			if c.Name != name {
				continue
			}
			if len(labels) == 0 && len(c.Labels) == 0 {
				return c.Value
			}
			if len(labels) == 2 && len(c.Labels) == 1 &&
				c.Labels[0].Key == labels[0] && c.Labels[0].Value == labels[1] {
				return c.Value
			}
		}
		return 0
	}

	if got := counter("sim_frames_tx_total"); got != int64(res.FramesSent) {
		t.Errorf("sim_frames_tx_total=%d, Result.FramesSent=%d", got, res.FramesSent)
	}
	if got := counter("phy_rx_frames_total", "outcome", "ok"); got != int64(res.FramesOK) {
		t.Errorf("phy_rx_frames_total{outcome=ok}=%d, Result.FramesOK=%d", got, res.FramesOK)
	}
	if counter("phy_tx_frames_total") == 0 {
		t.Error("phy_tx_frames_total never incremented")
	}
	if counter("mac_acks_received_total") == 0 {
		t.Error("mac_acks_received_total never incremented")
	}
}

// TestAckLatencyMetricsHistogram: the ACK latency histogram holds one
// observation per acknowledged frame — exactly the latencies the
// "ack accepted" log records report, one per unique acknowledged frame.
func TestAckLatencyMetricsHistogram(t *testing.T) {
	cfg := DefaultConfig(amppmScheme(t))
	cfg.Telemetry = telemetry.New()
	cfg.Logs = vlog.New(vlog.Debug)
	res, err := Run(cfg, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	var sum float64
	for _, r := range res.Logs.Records {
		if r.Msg != "ack accepted" {
			continue
		}
		v, _ := r.Attr("latency_s")
		lat, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatal(err)
		}
		n, sum = n+1, sum+lat
	}
	h := cfg.Telemetry.Histogram("mac_ack_latency_seconds")
	acked := int64(math.Round(res.GoodputBps * res.Duration / 8 / float64(cfg.PayloadBytes)))
	if n == 0 || h.Count() != n || h.Count() != acked || math.Abs(h.Sum()-sum) > 1e-9 {
		t.Fatalf("histogram count=%d sum=%v; logs report %d latencies summing to %v; %d frames acknowledged",
			h.Count(), h.Sum(), n, sum, acked)
	}
}

// TestRunBroadcastTelemetry covers the multi-receiver path: snapshot
// present, deterministic, and shared PHY instruments see every receiver.
func TestRunBroadcastTelemetry(t *testing.T) {
	s := amppmScheme(t)
	run := func() (BroadcastResult, []byte) {
		cfg := BroadcastConfig{Config: DefaultConfig(s)}
		cfg.FixedLevel = 0.5
		cfg.Telemetry = telemetry.New()
		cfg.Receivers = []ReceiverPose{
			{Geometry: cfg.Geometry},
			{Geometry: optics.Aligned(2.5, 10), AmbientScale: 1.5},
		}
		res, err := RunBroadcast(cfg, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if res.Telemetry == nil {
			t.Fatal("RunBroadcast left Telemetry nil despite a registry")
		}
		j, err := res.Telemetry.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return res, j
	}
	res, a := run()
	_, b := run()
	if !bytes.Equal(a, b) {
		t.Fatal("broadcast telemetry snapshots differ across identically-seeded runs")
	}
	var framesTx, txFrames int64
	for _, c := range res.Telemetry.Counters {
		switch c.Name {
		case "sim_frames_tx_total":
			framesTx = c.Value
		case "phy_tx_frames_total":
			txFrames = c.Value
		}
	}
	if framesTx == 0 {
		t.Fatal("no frames transmitted")
	}
	// Each scheduled frame is pushed through every receiver's link, so
	// the shared PHY transmit counter sees nRx× the MAC frame count.
	if txFrames != 2*framesTx {
		t.Errorf("phy_tx_frames_total=%d, want 2×sim_frames_tx_total=%d", txFrames, 2*framesTx)
	}
}

// TestRunWithoutTelemetry keeps the nil-registry default truly zero
// impact: no snapshot, identical results to an instrumented run.
func TestRunWithoutTelemetry(t *testing.T) {
	s := amppmScheme(t)
	cfg := DefaultConfig(s)
	cfg.FixedLevel = 0.5
	plain, err := Run(cfg, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Telemetry != nil {
		t.Fatal("Telemetry non-nil without a registry")
	}
	cfg2 := DefaultConfig(s)
	cfg2.FixedLevel = 0.5
	cfg2.Telemetry = telemetry.New()
	inst, err := Run(cfg2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if plain.GoodputBps != inst.GoodputBps || plain.FramesOK != inst.FramesOK ||
		plain.FramesSent != inst.FramesSent {
		t.Fatalf("instrumentation changed results: %+v vs %+v", plain, inst)
	}
}

// TestControllerMetricsAgree pins the telemetry view of the dimming
// controller to its own counters during a dynamic-ambient session.
func TestControllerMetricsAgree(t *testing.T) {
	s := amppmScheme(t)
	cfg := DefaultConfig(s)
	cfg.Trace = light.BlindPull{StartLux: 50, EndLux: 4000, Duration: 0.5}
	cfg.Telemetry = telemetry.New()
	res, err := Run(cfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var steps int64
	for _, c := range res.Telemetry.Counters {
		if c.Name == "light_adjustments_total" {
			steps = c.Value
		}
	}
	if steps != int64(res.Adjustments) {
		t.Fatalf("light_adjustments_total=%d, Result.Adjustments=%d", steps, res.Adjustments)
	}
}
