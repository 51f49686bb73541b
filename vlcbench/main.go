// Command vlcbench is the repository's benchmark. It runs one of four
// seeded, closed-loop workloads against the public API of the SmartVLC
// simulator (the smartvlc facade and the exported entry points of
// internal/sim, phy, photon, frame, scheme, mac and light), checks every
// op's output, and prints the end-to-end metrics (--trace 0) or the
// per-layer ledger (--trace 1). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Host times
// of the end-to-end metrics are read on the kernel's CPU clocks (see
// measure.go), with their wall-clock counterparts printed beside them.
//
// Run it from the repository root through its build script, which keeps
// every build output under .bench_build/:
//
//	bash vlcbench/run.sh --workload fig15_steady --seed 1 --seconds 15 --trace 0
//
// The workloads, and why each was chosen, are listed in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of the untraced run.
var endToEnd = []metricSpec{
	{"air_s_per_s", "s/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"setup_s", "s"},
	{"alloc_kb_per_air_s", "KB/s"},
	{"peak_heap_mb", "MB"},
	{"goodput_kbps", "kbps"},
	{"sum_err_pct", "%"},
}

// perLayer are the metrics of the traced run, named by module.
var perLayer = []metricSpec{
	{"amppm.table_build_ms", "ms"},
	{"scheme.codec_for_per_air_s", "1/s"},
	{"scheme.codec_for_ns", "ns"},
	{"scheme.codec_cache_hit_ratio", "ratio"},
	{"frame.build_ns_per_frame", "ns"},
	{"frame.slots_per_frame", "count"},
	{"photon.channel_at_per_air_s", "1/s"},
	{"photon.sampler_cache_miss_ratio", "ratio"},
	{"phy.tx_ns_per_frame", "ns"},
	{"phy.tx_ns_per_sample", "ns"},
	{"phy.tx_cold_us", "us"},
	{"phy.tx_share", "ratio"},
	{"phy.rx_ns_per_frame", "ns"},
	{"phy.rx_reset_us", "us"},
	{"phy.rx_hunt_miss_ratio", "ratio"},
	{"phy.rx_yield", "ratio"},
	{"phy.rx_share", "ratio"},
	{"phy.threshold_cache_miss_ratio", "ratio"},
	{"mac.retx_ratio", "ratio"},
	{"mac.useful_ratio", "ratio"},
	{"mac.window_stalls_per_air_s", "1/s"},
	{"mac.ack_latency_ms_p50", "ms"},
	{"mac.ns_per_frame", "ns"},
	{"light.steps_per_air_s", "1/s"},
	{"light.adjustments_per_air_s", "1/s"},
	{"light.step_ns", "ns"},
	{"sim.glue_ns_per_frame", "ns"},
	{"sim.glue_share", "ratio"},
	{"telemetry.observe_ns_per_frame", "ns"},
	{"telemetry.alloc_kb_per_frame", "KB"},
	{"telemetry.metrics_ns_per_frame", "ns"},
	{"telemetry.spans_ns_per_frame", "ns"},
	{"telemetry.health_ns_per_frame", "ns"},
	{"telemetry.prof_ns_per_frame", "ns"},
	{"telemetry.logs_ns_per_frame", "ns"},
	{"telemetry.watch_ns_per_frame", "ns"},
	{"telemetry.merge_ms", "ms"},
	{"telemetry.agg_snapshot_ms", "ms"},
	{"parallel.cpu_util", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.live_heap_kb_per_op", "KB"},
	{"smartvlc.deliver_ns_per_chunk", "ns"},
	{"smartvlc.deliver_setup_us", "us"},
	{"smartvlc.stream_retry_ratio", "ratio"},
	{"ledger.residual_frac", "ratio"},
	{"ledger.trace_overhead_frac", "ratio"},
}

// spanDir is where a traced run writes its spans, relative to the
// working directory (the repository root under run.sh).
const spanDir = ".bench_build/spans"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	runtime.LockOSThread() // set-up and the traced run's serial ops read this thread's CPU clock
	defer runtime.UnlockOSThread()
	fs := flag.NewFlagSet("vlcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; every op input is generated from it")
	seconds := fs.Float64("seconds", 15, "how long the run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "vlcbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := checkClocks(); err != nil {
		fmt.Fprintln(stderr, "vlcbench: no CPU clocks:", err)
		return 1
	}
	fmt.Fprintf(stdout, "vlcbench: workload %s, seed %d, %g s, trace %d; closed loop, %d client(s), %d working goroutine(s)\n",
		w.name, *seed, *seconds, *trace, w.clients, w.workers)

	var (
		r     runResult
		err   error
		specs = endToEnd
	)
	if *trace == 0 {
		r, err = runUntraced(w, *seed, *seconds)
	} else {
		specs = perLayer
		r, err = runTraced(w, *seed, *seconds, spanDir)
	}
	if err != nil {
		fmt.Fprintln(stderr, "vlcbench:", err)
		return 1
	}
	for k, err := range r.errs {
		if k == 10 {
			fmt.Fprintf(stderr, "vlcbench: ... %d more failures\n", len(r.errs)-k)
			break
		}
		fmt.Fprintln(stderr, "vlcbench: FAILED:", err)
	}

	res := resultLine{
		Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: len(r.errs),
		Metrics: make(map[string]metricValue, len(specs)),
	}
	fmt.Fprintf(stdout, "  %-34s %d\n  %-34s %d\n", "ops attempted", r.attempted, "ops failed", len(r.errs))
	for _, s := range specs {
		v := r.metrics[s.name]
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		fmt.Fprintln(stdout, strings.TrimRight(fmt.Sprintf("  %-34s %14.6g %-5s %s", s.name, v, s.unit, r.notes[s.name]), " "))
	}
	for _, l := range r.lines {
		fmt.Fprintln(stdout, l)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "vlcbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runResult is a run's outcome: its metrics, notes printed beside some
// of them, the ops it attempted, its failures and a report printed after
// the metrics.
type runResult struct {
	metrics   map[string]float64
	notes     map[string]string
	attempted int
	errs      []error
	lines     []string
}

// runUntraced sets the workload up, times its ops closed-loop and
// computes the end-to-end metrics.
func runUntraced(w *workload, seed uint64, seconds float64) (runResult, error) {
	var r runResult
	spinUp(w.workers)
	su, err := setup(w, seed)
	if err != nil {
		return r, err
	}
	r.attempted += su.ops
	r.errs = append(r.errs, su.failed...)

	ph := runPhase(su.inst, w.clients, w.minOps, time.Duration(seconds*float64(time.Second)))
	r.attempted += ph.ops
	r.errs = append(r.errs, ph.errs...)
	opMs, wallMs := make([]float64, ph.ops), make([]float64, ph.ops)
	for i, d := range ph.durs {
		opMs[i], wallMs[i] = float64(d.cpu)/1e6, float64(d.wall)/1e6
	}
	fid := checkFidelity(w, su.inst, ph.prints, seed)
	r.attempted += fid.runs
	r.errs = append(r.errs, fid.failed...)

	n, air := float64(ph.ops), ph.sum.Air
	wall := ph.end.at.Sub(ph.start.at).Seconds()
	cpu := (ph.end.cpu - ph.start.cpu).Seconds()
	r.metrics = map[string]float64{
		"air_s_per_s":        air / cpu,
		"op_ms_p50":          quantile(opMs, 0.5),
		"op_ms_p90":          quantile(opMs, 0.9),
		"setup_s":            median(su.cpu),
		"alloc_kb_per_air_s": float64(ph.end.allocs-ph.start.allocs) / 1e3 / air,
		"peak_heap_mb":       float64(ph.peakHeap) / 1e6,
		"goodput_kbps":       ph.sum.Goodput / n / 1e3,
		"sum_err_pct":        100 * ratio(ph.sum.SumErr, float64(ph.sum.SumN)),
	}

	ref := w.paperRef
	if ref == "" {
		ref = "the repository holds no reference value for this workload"
	}
	verdict := "identical"
	if len(fid.failed) > 0 {
		verdict = "DIFFERENT (see stderr)"
	}
	r.notes = map[string]string{
		"air_s_per_s":  fmt.Sprintf("(wall clock: %.4g)", air/wall),
		"op_ms_p50":    fmt.Sprintf("(wall clock: %.4g)", quantile(wallMs, 0.5)),
		"op_ms_p90":    fmt.Sprintf("(wall clock: %.4g)", quantile(wallMs, 0.9)),
		"setup_s":      fmt.Sprintf("(wall clock: %.4g)", median(su.wall)),
		"goodput_kbps": "(" + ref + ")",
		"sum_err_pct":  "(" + w.sumErrNote + ")",
	}
	r.lines = []string{
		fmt.Sprintf("  %d timed ops (p90 has %d beyond it), %.1f s simulated air, %.2f s wall, %.2f s process CPU", ph.ops, ph.ops/10, air, wall, cpu),
		fmt.Sprintf("  host time is CPU time: %s", w.opClock()),
		fmt.Sprintf("  simulated-statistics digest (not a metric: equal digests, equal physics): %016x over ops 0..%d, %016x over all %d ops",
			digest(ph.prints[:min(ph.ops, digestOps)]), min(ph.ops, digestOps)-1, digest(ph.prints), ph.ops),
		fmt.Sprintf("  fidelity: op %d re-run %d way(s) (warm; fresh state; one worker where the op fans out): %s", fid.op, fid.runs, verdict),
	}
	return r, nil
}
