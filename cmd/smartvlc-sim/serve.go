package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/metrics"
	"syscall"
	"time"

	"smartvlc"
)

// Timeouts of every server the command runs. A client gets
// readHeaderTimeout to send its request headers and readTimeout for the
// whole request, and an idle keep-alive connection is closed after
// idleTimeout. There is no write timeout: /health/stream, /logs/stream
// and /fleet/stream stream for as long as the client reads, and pprof's
// profile and trace hold their response for the sampling window.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	// shutdownTimeout bounds a graceful shutdown: connections still
	// open after it, such as streams a client keeps reading, are cut.
	shutdownTimeout = 5 * time.Second
)

// newServer returns a server for handler on addr with the timeouts above.
func newServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// serveUntil serves srv on ln until ctx is done and then shuts it down.
// It returns nil after the shutdown, and Serve's error if serving stops
// on its own first.
func serveUntil(ctx context.Context, srv *http.Server, ln net.Listener) error {
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	shutdown(srv)
	<-served // http.ErrServerClosed once the shutdown has begun
	return nil
}

// shutdown stops srv gracefully within shutdownTimeout, then closes the
// connections still open.
func shutdown(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if srv.Shutdown(ctx) != nil {
		srv.Close()
	}
}

// untilSignal returns a context that is done on SIGINT or SIGTERM, and
// the function that stops listening for them.
func untilSignal() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// serveOpts is everything the HTTP endpoints can expose after a run.
// Routes are registered only for the artifacts actually present, so the
// single-session and fleet paths share one construction site instead of
// each wiring its own mux (fleet mode used to serve an empty /trace, and
// a second registration site is how duplicate-pattern panics start).
type serveOpts struct {
	// reg supplies HELP text for the Prometheus exposition; nil (the
	// merged-fleet case) falls back to the snapshot's own exposition.
	reg *smartvlc.Telemetry
	// snap is the metrics snapshot served at /metrics and /metrics.json.
	snap *smartvlc.TelemetrySnapshot
	// spans, when non-nil, is served at /trace as a Chrome trace_event
	// file.
	spans *smartvlc.SpanSnapshot
	// health, when non-nil, is served at /health (canonical JSON) and
	// /health/stream (NDJSON, one object per time bucket and transition).
	health *smartvlc.HealthSnapshot
	// prof, when non-nil, is served at /prof (canonical stage-profile
	// JSON, vlcprof's input) and /prof/folded (folded stacks for flame
	// graphs; ?metric= selects the cost dimension, default samples).
	prof *smartvlc.ProfSnapshot
	// logs, when non-nil, is served at /logs (canonical JSON) and
	// /logs/stream (NDJSON, one record per line — vlclog tail's input).
	logs *smartvlc.LogSnapshot
	// agg, when non-nil, is called per request to serve the streaming
	// fleet aggregation at /fleet (canonical JSON) and /fleet/stream
	// (NDJSON). It is a getter rather than a snapshot because -fleet-watch
	// serves these routes while the fleet is still running — each request
	// sees the rollups and worst-sessions tables as of that moment. A nil
	// return (aggregator not started yet) answers 503.
	agg func() *smartvlc.FleetAggSnapshot
	// runtimeMetrics appends Go runtime gauges (goroutines, heap) to the
	// Prometheus exposition at scrape time. They reflect the serving
	// process, not the simulation, so they never enter the canonical
	// snapshot files — determinism of -metrics-out is preserved.
	runtimeMetrics bool
}

// buildMux registers the report endpoints for the artifacts in opts.
// Always present: /metrics, /metrics.json, /metrics.om (OpenMetrics,
// where histogram exemplars ride the exposition). Flag-gated: /trace,
// /health, /health/stream, /prof, /prof/folded, /logs, /logs/stream,
// /fleet, /fleet/stream. pprof is deliberately
// NOT here — it serves on its own address (see servePprof) so debug
// handlers never leak onto the metrics port.
func buildMux(o serveOpts) *http.ServeMux {
	mux := http.NewServeMux()
	addRoutes(mux, o)
	return mux
}

// addFleetRoutes registers only /fleet and /fleet/stream, backed by the
// getter. The -fleet-watch path calls this before the run starts (live
// serving) and later adds the remaining report routes to the same mux
// with addRoutes once the artifacts exist.
func addFleetRoutes(mux *http.ServeMux, agg func() *smartvlc.FleetAggSnapshot) {
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, _ *http.Request) {
		s := agg()
		if s == nil {
			http.Error(w, "fleet aggregation not started", http.StatusServiceUnavailable)
			return
		}
		j, err := s.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(j)
	})
	mux.HandleFunc("/fleet/stream", func(w http.ResponseWriter, _ *http.Request) {
		s := agg()
		if s == nil {
			http.Error(w, "fleet aggregation not started", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := s.WriteNDJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// addRoutes registers the report endpoints on an existing mux (see
// buildMux). Split out so the live -fleet-watch server, whose mux starts
// serving before the run finishes, can gain the post-run routes without
// a second mux.
func addRoutes(mux *http.ServeMux, o serveOpts) {
	if o.agg != nil {
		addFleetRoutes(mux, o.agg)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		var err error
		if o.reg != nil {
			err = o.reg.WritePrometheus(w)
		} else {
			err = o.snap.WritePrometheus(w, nil)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if o.runtimeMetrics {
			writeRuntimeMetrics(w)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		j, err := o.snap.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(j)
	})
	mux.HandleFunc("/metrics.om", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		var err error
		if o.reg != nil {
			err = o.reg.WriteOpenMetrics(w)
		} else {
			err = o.snap.WriteOpenMetrics(w, nil)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if o.spans != nil {
		mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := o.spans.WriteChromeTrace(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	if o.health != nil {
		mux.HandleFunc("/health", func(w http.ResponseWriter, _ *http.Request) {
			j, err := o.health.JSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(j)
		})
		mux.HandleFunc("/health/stream", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			if err := o.health.WriteNDJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	if o.prof != nil {
		mux.HandleFunc("/prof", func(w http.ResponseWriter, _ *http.Request) {
			j, err := o.prof.JSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(j)
		})
		mux.HandleFunc("/prof/folded", func(w http.ResponseWriter, r *http.Request) {
			m := smartvlc.ProfSamples
			if name := r.URL.Query().Get("metric"); name != "" {
				var err error
				if m, err = parseProfMetric(name); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if err := o.prof.WriteFolded(w, m); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	if o.logs != nil {
		mux.HandleFunc("/logs", func(w http.ResponseWriter, _ *http.Request) {
			j, err := o.logs.JSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(j)
		})
		mux.HandleFunc("/logs/stream", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			if err := o.logs.WriteNDJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
}

// runtimeSampleNames are the runtime/metrics series behind the
// -runtime-metrics appendix. The two histogram-valued entries feed p99
// gauges; the rest map one-to-one onto exposition lines.
var runtimeSampleNames = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/goal:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// writeRuntimeMetrics appends Go runtime gauges in Prometheus text
// exposition, sampled from the runtime/metrics package: scheduler and GC
// tail latency (p99 over the process-lifetime histograms), the GC heap
// goal and cycle count, live heap bytes and the goroutine count.
// Scrape-time values — never part of canonical snapshots.
func writeRuntimeMetrics(w http.ResponseWriter) {
	samples := make([]metrics.Sample, len(runtimeSampleNames))
	for i, name := range runtimeSampleNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for _, s := range samples {
		switch s.Name {
		case "/sched/goroutines:goroutines":
			writeRuntimeGauge(w, "go_goroutines", "gauge",
				"Number of live goroutines in the serving process.", float64(s.Value.Uint64()))
		case "/memory/classes/heap/objects:bytes":
			writeRuntimeGauge(w, "go_heap_objects_bytes", "gauge",
				"Bytes occupied by live heap objects plus dead objects not yet swept.", float64(s.Value.Uint64()))
		case "/gc/heap/goal:bytes":
			writeRuntimeGauge(w, "go_gc_heap_goal_bytes", "gauge",
				"Heap size target of the next GC cycle.", float64(s.Value.Uint64()))
		case "/gc/cycles/total:gc-cycles":
			writeRuntimeGauge(w, "go_gc_cycles_total", "counter",
				"Completed GC cycles.", float64(s.Value.Uint64()))
		case "/gc/pauses:seconds":
			writeRuntimeGauge(w, "go_gc_pause_p99_seconds", "gauge",
				"p99 stop-the-world GC pause over the process lifetime.", histP99(s.Value.Float64Histogram()))
		case "/sched/latencies:seconds":
			writeRuntimeGauge(w, "go_sched_latency_p99_seconds", "gauge",
				"p99 time goroutines spent runnable before running, process lifetime.", histP99(s.Value.Float64Histogram()))
		}
	}
}

// writeRuntimeGauge emits one HELP/TYPE/sample triple. Values are
// rendered with %g: runtime byte and count gauges are integral, the
// latency p99s are small floats.
func writeRuntimeGauge(w http.ResponseWriter, name, typ, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
}

// histP99 extracts the 99th percentile from a runtime/metrics histogram:
// the upper bound of the first bucket at which the cumulative count
// reaches 99% of observations. Unbounded edge buckets fall back to their
// finite side. Returns 0 for an empty or absent histogram.
func histP99(h *metrics.Float64Histogram) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	thresh := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= thresh {
			// Bucket i spans Buckets[i]..Buckets[i+1].
			if ub := h.Buckets[i+1]; !math.IsInf(ub, 1) {
				return ub
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// pprofMux builds an explicit pprof mux. Importing net/http/pprof for the
// handler functions alone also registers them on http.DefaultServeMux as
// an init side effect; by never serving DefaultServeMux, those stay dark
// and debug routes only ever appear on the dedicated -pprof-addr.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// servePprof serves the profiling endpoints on their own address in the
// background, for profiling long fleet runs or the serving process, and
// returns the server for the caller to shut down.
func servePprof(addr string) *http.Server {
	srv := newServer(addr, pprofMux())
	go func() {
		if err := srv.ListenAndServe(); err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "smartvlc-sim: pprof:", err)
		}
	}()
	fmt.Printf("pprof       : serving on http://%s/debug/pprof/\n", addr)
	return srv
}
