package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"smartvlc"
)

// fullOpts runs a short session with every artifact enabled and returns
// the corresponding serveOpts.
func fullOpts(t *testing.T) serveOpts {
	t.Helper()
	sch, err := smartvlc.NewAMPPMScheme(smartvlc.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smartvlc.DefaultSessionConfig(sch)
	cfg.Telemetry = smartvlc.NewTelemetry()
	cfg.Spans = smartvlc.NewSpanCollector()
	cfg.Health = &smartvlc.HealthConfig{Objectives: smartvlc.DefaultHealthObjectives()}
	cfg.Prof = smartvlc.NewProfiler()
	cfg.Logs = smartvlc.NewLogger(smartvlc.LogDebug)
	res, err := smartvlc.RunSession(cfg, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return serveOpts{
		reg: cfg.Telemetry, snap: res.Telemetry, spans: res.Spans,
		health: res.Health, prof: res.Prof, logs: res.Logs, runtimeMetrics: true,
	}
}

func get(t *testing.T, o serveOpts, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	buildMux(o).ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

// TestBuildMuxFullRoutes verifies every endpoint answers when all
// artifacts are present, including the scrape-time runtime gauges.
func TestBuildMuxFullRoutes(t *testing.T) {
	o := fullOpts(t)
	for path, want := range map[string]string{
		"/metrics":       "go_goroutines",
		"/metrics.json":  "{",
		"/metrics.om":    "# EOF",
		"/trace":         "traceEvents",
		"/health":        "\"state\"",
		"/health/stream": "\n",
		"/prof":          "\"stage\"",
		"/prof/folded":   ";",
		"/logs":          "\"records\"",
		"/logs/stream":   "\"stage\":\"sim/session\"",
	} {
		code, body := get(t, o, path)
		if code != 200 {
			t.Errorf("%s: status %d", path, code)
		}
		if !strings.Contains(body, want) {
			t.Errorf("%s: body missing %q:\n%s", path, want, truncate(body))
		}
	}
}

// TestBuildMuxGatedRoutes verifies that absent artifacts mean absent
// routes: fleet mode (no spans, no per-run health) must 404 on /trace and
// /health rather than serve empty payloads, and the runtime gauges stay
// out of /metrics unless requested.
func TestBuildMuxGatedRoutes(t *testing.T) {
	o := fullOpts(t)
	o.reg = nil // fleet mode serves the merged snapshot without a registry
	o.spans = nil
	o.health = nil
	o.prof = nil
	o.logs = nil
	o.runtimeMetrics = false
	for _, path := range []string{"/trace", "/health", "/health/stream", "/prof", "/prof/folded", "/logs", "/logs/stream"} {
		if code, _ := get(t, o, path); code != 404 {
			t.Errorf("%s: status %d, want 404", path, code)
		}
	}
	code, body := get(t, o, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics: status %d", code)
	}
	if strings.Contains(body, "go_goroutines") {
		t.Error("/metrics leaked runtime gauges with runtimeMetrics off")
	}
}

// TestRuntimeMetricsAppendix pins the runtime/metrics-sampled appendix:
// scheduler/GC tail gauges and the heap goal appear on /metrics when
// runtimeMetrics is set, each with HELP and TYPE lines.
func TestRuntimeMetricsAppendix(t *testing.T) {
	_, body := get(t, fullOpts(t), "/metrics")
	for _, name := range []string{
		"go_goroutines", "go_heap_objects_bytes", "go_gc_heap_goal_bytes",
		"go_gc_cycles_total", "go_gc_pause_p99_seconds", "go_sched_latency_p99_seconds",
	} {
		if !strings.Contains(body, "# TYPE "+name+" ") || !strings.Contains(body, "\n"+name+" ") {
			t.Errorf("/metrics appendix missing runtime gauge %q", name)
		}
	}
}

// TestOpenMetricsExemplars verifies /metrics.om carries the histogram
// exemplars in OpenMetrics syntax (a `# {label="…"} value ts` suffix on
// bucket lines) — the drill-down breadcrumbs Prometheus-compatible
// scrapers understand.
func TestOpenMetricsExemplars(t *testing.T) {
	code, body := get(t, fullOpts(t), "/metrics.om")
	if code != 200 {
		t.Fatalf("/metrics.om: status %d", code)
	}
	if !strings.Contains(body, "_bucket{") || !strings.Contains(body, " # {") {
		t.Fatalf("/metrics.om carries no bucket exemplars:\n%s", truncate(body))
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Error("/metrics.om missing the OpenMetrics # EOF terminator")
	}
}

// TestProfFoldedMetricParam verifies the ?metric= selector switches the
// folded export's cost dimension and rejects unknown names with a 400.
func TestProfFoldedMetricParam(t *testing.T) {
	o := fullOpts(t)
	code, slots := get(t, o, "/prof/folded?metric=slots")
	if code != 200 || !strings.Contains(slots, ";") {
		t.Fatalf("/prof/folded?metric=slots: status %d body %s", code, truncate(slots))
	}
	_, samples := get(t, o, "/prof/folded")
	if slots == samples {
		t.Error("metric=slots produced the same folded output as the samples default")
	}
	if code, _ := get(t, o, "/prof/folded?metric=bogus"); code != 400 {
		t.Errorf("/prof/folded?metric=bogus: status %d, want 400", code)
	}
}

// TestBuildMuxTwice guards the regression this helper exists for: the
// single-session and fleet paths used to register handlers independently,
// and a second registration on a shared mux panics with "multiple
// registrations". Two builds must each produce a working, independent mux.
func TestBuildMuxTwice(t *testing.T) {
	o := fullOpts(t)
	for i, mux := range []*http.ServeMux{buildMux(o), buildMux(o)} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			t.Fatalf("mux %d: status %d", i, rec.Code)
		}
	}
}

// aggOpts runs a small watched fleet and returns serveOpts exposing its
// aggregation snapshot through the live getter.
func aggOpts(t *testing.T) serveOpts {
	t.Helper()
	sch, err := smartvlc.NewAMPPMScheme(smartvlc.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	fa, err := smartvlc.NewFleetAggregator(smartvlc.FleetAggConfig{WindowSeconds: 0.05}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]smartvlc.SessionConfig, 2)
	for i := range cfgs {
		cfg := smartvlc.DefaultSessionConfig(sch)
		cfg.Seed = uint64(i + 1)
		cfg.Telemetry = smartvlc.NewTelemetry()
		feed, err := fa.Feed(smartvlc.FleetSessionMeta{Index: i, Seed: cfg.Seed, Scheme: sch.Name(), PayloadBytes: cfg.PayloadBytes})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Watch = feed
		cfgs[i] = cfg
	}
	fl, err := smartvlc.RunFleet(cfgs, 0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	snap := fl.Agg
	return serveOpts{
		snap: fl.Telemetry,
		agg:  func() *smartvlc.FleetAggSnapshot { return snap },
	}
}

// TestFleetRoutes verifies /fleet serves the aggregation snapshot as
// JSON and /fleet/stream as typed NDJSON, and that the routes 404 when
// no aggregator was armed.
func TestFleetRoutes(t *testing.T) {
	o := aggOpts(t)
	code, body := get(t, o, "/fleet")
	if code != 200 || !strings.Contains(body, "\"sealed_windows\"") || !strings.Contains(body, "\"top_ser\"") {
		t.Fatalf("/fleet: status %d body %s", code, truncate(body))
	}
	code, body = get(t, o, "/fleet/stream")
	if code != 200 || !strings.Contains(body, "\"type\":\"fleet\"") || !strings.Contains(body, "\"type\":\"point\"") {
		t.Fatalf("/fleet/stream: status %d body %s", code, truncate(body))
	}
	o.agg = nil
	if code, _ := get(t, o, "/fleet"); code != 404 {
		t.Errorf("/fleet without an aggregator: status %d, want 404", code)
	}
}

// TestFleetRoutesBeforeStart pins the live-server startup window: the
// getter returning nil (no repeat has begun) answers 503, not a crash or
// an empty payload.
func TestFleetRoutesBeforeStart(t *testing.T) {
	o := serveOpts{
		snap: &smartvlc.TelemetrySnapshot{},
		agg:  func() *smartvlc.FleetAggSnapshot { return nil },
	}
	for _, path := range []string{"/fleet", "/fleet/stream"} {
		if code, _ := get(t, o, path); code != 503 {
			t.Errorf("%s before aggregation starts: status %d, want 503", path, code)
		}
	}
}

// TestPprofMuxIsolated verifies the debug routes live only on the pprof
// mux — the metrics mux must not answer /debug/pprof/.
func TestPprofMuxIsolated(t *testing.T) {
	rec := httptest.NewRecorder()
	pprofMux().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Fatalf("pprof mux: status %d", rec.Code)
	}
	if code, _ := get(t, fullOpts(t), "/debug/pprof/"); code == 200 {
		t.Error("metrics mux answered /debug/pprof/ — debug routes leaked")
	}
}

func truncate(s string) string {
	if len(s) > 400 {
		return s[:400] + "…"
	}
	return s
}

// TestServeTimeoutsAndShutdown checks the server serve builds: it bounds
// request headers, whole requests and idle connections but sets no write
// timeout (the stream routes write for as long as the client reads), and
// cancelling the context serveUntil serves under shuts it down and
// returns with no error.
func TestServeTimeoutsAndShutdown(t *testing.T) {
	srv := newServer("127.0.0.1:0", buildMux(fullOpts(t)))
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout ||
		srv.IdleTimeout != idleTimeout || srv.WriteTimeout != 0 {
		t.Errorf("timeouts: header %v, read %v, idle %v, write %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, srv.WriteTimeout)
	}
	if readHeaderTimeout <= 0 || readTimeout <= 0 || idleTimeout <= 0 {
		t.Error("a zero timeout disables it")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- serveUntil(ctx, srv, ln) }()
	url := "http://" + ln.Addr().String() + "/metrics"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveUntil after cancel: %v", err)
		}
	case <-time.After(shutdownTimeout + 5*time.Second):
		t.Fatal("serveUntil did not return after cancel")
	}
	if resp, err := http.Get(url); err == nil {
		resp.Body.Close()
		t.Error("server still answering after shutdown")
	}
}
