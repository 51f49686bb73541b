package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"time"

	"smartvlc"
)

// The traced run yields the per-layer metrics. It has two phases:
//
//   - Phase A runs the program's ops as the workload loads them (same
//     clients and workers as the untimed run), for the process-wide
//     readings: CPU utilisation, GC share, live-heap growth and the
//     global cache counters.
//   - Phase B goes op by op on one goroutine: the program op with every
//     observer off, the ledger replay untraced, then traced. The replays
//     must reproduce the program op's simulated outcome exactly. On
//     officeday_observed each op's fleet also runs with observers off,
//     all armed and each pillar alone (see officeTwins).

// tracedShareA is the share of the run given to phase A.
const tracedShareA = 0.35

// phaseBMinOps is the least number of ops phase B replays.
const phaseBMinOps = 6

// spanDumpOps bounds how many ops' spans the run writes out.
const spanDumpOps = 4

// twin is one observer configuration of the officeday fleet.
type twin struct {
	name string
	obs  pillar
}

// twins are the observer configurations phase B times on officeday;
// watch needs metrics, so its cost is metrics+watch minus metrics alone.
var twins = []twin{
	{"off", 0},
	{"all", pillarsAll},
	{"metrics", pillarMetrics},
	{"spans", pillarSpans},
	{"health", pillarHealth},
	{"prof", pillarProf},
	{"logs", pillarLogs},
	{"metrics+watch", pillarMetrics | pillarWatch},
}

// twinCost holds one twin's per-frame cost over the observers-off twin
// (metrics alone for watch), one sample per replayed session.
type twinCost struct {
	nsPerFrame, allocsPerFrame []float64
}

// phaseB holds phase B's sums.
type phaseB struct {
	ops                          int
	progNs, untracedNs, tracedNs int64
	lt                           layerTimes
	n                            counts
	twins                        []twinCost // indexed like twins
	mergeMs, aggMs               []float64
	frames                       int
}

func runTraced(w *workload, seed uint64, seconds float64, spanDir string) (runResult, error) {
	var tr runResult
	spinUp(w.workers)
	su, err := setup(w, seed)
	if err != nil {
		return tr, err
	}
	tr.attempted += su.ops
	tr.errs = append(tr.errs, su.failed...)
	inst := su.inst

	// Phase A.
	liveBefore := gcLiveHeap()
	pa := runPhase(inst, w.clients, 20, time.Duration(tracedShareA*seconds*float64(time.Second)))
	liveAfter := gcLiveHeap()
	tr.attempted += pa.ops
	tr.errs = append(tr.errs, pa.errs...)
	fid := checkFidelity(w, inst, pa.prints, seed)
	tr.attempted += fid.runs
	tr.errs = append(tr.errs, fid.failed...)

	// Phase B.
	l := newLedger()
	l.tr.epoch = time.Now()
	pb := phaseB{twins: make([]twinCost, len(twins))}
	durB := time.Duration((1 - tracedShareA) * seconds * float64(time.Second))
	twinArena := smartvlc.NewArena()
	startB := time.Now()
	for i := 0; i < phaseBMinOps || time.Since(startB) < durB; i++ {
		if err := replayOp(w, inst, l, i, &pb); err != nil {
			tr.errs = append(tr.errs, err)
		}
		tr.attempted++
		if w.name == "officeday_observed" {
			n, err := officeTwins(inst.(*office), twinArena, i, &pb)
			tr.attempted += n
			if err != nil {
				tr.errs = append(tr.errs, err)
			}
		}
		pb.ops++
	}
	pb.n = l.n
	if spanDir != "" {
		if err := writeSpans(spanDir, w.name, seed, l.tr.spans); err != nil {
			fmt.Fprintln(os.Stderr, "vlcbench: span dump:", err)
		}
	}

	tr.metrics, tr.notes = layerMetrics(w, &su, &pa, &pb, liveBefore, liveAfter)
	tr.lines = splitLines(&pb)
	return tr, nil
}

// replayOp runs op i once as the program (observers off, one
// goroutine) and twice through the ledger, untraced then traced, and
// checks that the replays reproduce the program's outcome.
func replayOp(w *workload, inst instance, l *ledger, i int, pb *phaseB) error {
	prog, progD, err := w.serialOp(inst, i)
	if err != nil {
		return fmt.Errorf("phase B op %d: %w", i, err)
	}
	saved := l.n
	l.tr.on = false
	t0 := time.Now()
	untraced, err := w.ledger(inst, l, i)
	untracedD := time.Since(t0)
	l.n = saved
	if err != nil {
		return fmt.Errorf("ledger op %d: %w", i, err)
	}

	l.tr.on = true
	l.tr.op = int32(i)
	mark := len(l.tr.spans)
	t0 = time.Now()
	l.tr.begin(callOp)
	traced, err := w.ledger(inst, l, i)
	l.tr.end()
	tracedD := time.Since(t0)
	if err != nil {
		return fmt.Errorf("traced ledger op %d: %w", i, err)
	}
	pb.lt.fold(l.tr.spans, mark)
	if i >= spanDumpOps {
		// Folded; only the first ops' spans are kept to write out.
		l.tr.spans = l.tr.spans[:mark]
	}

	pb.progNs += int64(progD.wall)
	pb.untracedNs += int64(untracedD)
	pb.tracedNs += int64(tracedD)
	pb.frames += prog.Sent
	for _, got := range []opStats{untraced, traced} {
		if !sameOutcome(got, prog) {
			return fmt.Errorf("ledger op %d does not reproduce the program: ledger %+v, program %+v", i, got, prog)
		}
	}
	return nil
}

// officeTwins runs op i's fleet session by session once per observer
// twin — observers off, all armed, each pillar alone — in an order
// rotated per session so drift cancels, on a warm arena of its own.
// A twin's cost is its wall time per frame over the observers-off twin
// of the same session: one goroutine does all the work, and the
// collector is paused for the set, so a cycle owed to the whole run's
// heap cannot land on one twin (the pillars' allocation is reported on
// its own, as telemetry.alloc_kb_per_frame). Process CPU time would
// serve too, but getrusage
// advances in scheduler ticks, too coarse for one session. The public
// merge calls are timed on the all-pillars snapshots, and the aggregator
// snapshot on their feeds.
func officeTwins(w *office, a *smartvlc.Arena, i int, pb *phaseB) (int, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perTwin := make([][]smartvlc.SessionConfig, len(twins))
	aggs := make([]*smartvlc.FleetAggregator, len(twins))
	for k, tw := range twins {
		var err error
		if perTwin[k], aggs[k], err = w.configs(i, tw.obs); err != nil {
			return 0, err
		}
	}
	ran := 0
	for s := 0; s < officeSessions; s++ {
		wall := make([]float64, len(twins))
		allocs := make([]float64, len(twins))
		var all smartvlc.SessionResult
		for r := range twins {
			k := (r + s + i) % len(twins)
			a0 := heapAllocs()
			t0 := time.Now()
			res, err := a.Run(perTwin[k][s], officeAir)
			d := time.Since(t0)
			a1 := heapAllocs()
			ran++
			if err == nil {
				err = checkSession(res, w.ceiling)
			}
			if err != nil {
				return ran, fmt.Errorf("observer twin %s, op %d session %d: %w", twins[k].name, i, s, err)
			}
			wall[k] = float64(d) / float64(res.FramesSent)
			allocs[k] = float64(a1-a0) / float64(res.FramesSent)
			if twins[k].obs == pillarsAll {
				all = res
			}
		}
		for k, tw := range twins {
			base := 0
			if tw.obs == pillarMetrics|pillarWatch {
				base = 2 // watch is priced against metrics alone
			}
			pb.twins[k].nsPerFrame = append(pb.twins[k].nsPerFrame, wall[k]-wall[base])
			pb.twins[k].allocsPerFrame = append(pb.twins[k].allocsPerFrame, allocs[k]-allocs[base])
		}
		t0 := time.Now()
		smartvlc.MergeTelemetry(slices.Repeat([]*smartvlc.TelemetrySnapshot{all.Telemetry}, officeSessions)...)
		smartvlc.MergeHealth(slices.Repeat([]*smartvlc.HealthSnapshot{all.Health}, officeSessions)...)
		smartvlc.MergeProf(slices.Repeat([]*smartvlc.ProfSnapshot{all.Prof}, officeSessions)...)
		smartvlc.MergeLogs(slices.Repeat([]*smartvlc.LogSnapshot{all.Logs}, officeSessions)...)
		pb.mergeMs = append(pb.mergeMs, float64(time.Since(t0))/1e6)
	}
	for k, tw := range twins {
		if tw.obs&pillarWatch != 0 {
			t0 := time.Now()
			aggs[k].Snapshot()
			pb.aggMs = append(pb.aggMs, float64(time.Since(t0))/1e6)
		}
	}
	return ran, nil
}

// layerMetrics computes every per-layer metric, and notes giving each
// share and ratio its base. Layers a workload does not exercise read 0.
func layerMetrics(w *workload, su *setupResult, pa *timedPhase, pb *phaseB, liveBefore, liveAfter uint64) (map[string]float64, map[string]string) {
	m := map[string]float64{}
	lt, n := &pb.lt, &pb.n
	frames := float64(n.frames)
	air := n.air
	tracedOp := float64(lt.incl[callOp])
	perFrame := func(ns int64) float64 { return ratio(float64(ns), frames) }
	mean := func(c call) float64 { return ratio(float64(lt.incl[c]), float64(lt.count[c])) }
	s, e := pa.start, pa.end
	codecLookups := e.codecHit - s.codecHit + e.codecMiss - s.codecMiss
	sampLookups := e.sampHit - s.sampHit + e.sampMiss - s.sampMiss
	thrLookups := e.thrHit - s.thrHit + e.thrMiss - s.thrMiss

	m["amppm.table_build_ms"] = su.tableMs[0]
	m["scheme.codec_for_per_air_s"] = ratio(float64(n.codecFor), air)
	m["scheme.codec_for_ns"] = mean(callCodecFor)
	m["scheme.codec_cache_hit_ratio"] = ratio(float64(e.codecHit-s.codecHit), float64(codecLookups))

	m["frame.build_ns_per_frame"] = perFrame(lt.self[callBuild])
	m["frame.slots_per_frame"] = ratio(float64(n.slots), frames)

	m["photon.channel_at_per_air_s"] = ratio(float64(n.channelAt), air)
	m["photon.sampler_cache_miss_ratio"] = ratio(float64(e.sampMiss-s.sampMiss), float64(sampLookups))

	m["phy.tx_ns_per_frame"] = perFrame(lt.self[callTx])
	m["phy.tx_ns_per_sample"] = ratio(float64(lt.self[callTx]), float64(n.samples))
	var cold int64
	for _, d := range n.coldTxNs {
		cold += d
	}
	m["phy.tx_cold_us"] = ratio(float64(cold), float64(len(n.coldTxNs))) / 1e3
	m["phy.tx_share"] = ratio(float64(lt.self[callTx]), tracedOp)
	m["phy.rx_ns_per_frame"] = perFrame(lt.self[callRx])
	m["phy.rx_reset_us"] = mean(callRxReset) / 1e3
	m["phy.rx_hunt_miss_ratio"] = ratio(float64(n.rxHuntMiss), float64(n.rxOffered))
	m["phy.rx_yield"] = ratio(float64(n.rxOK), float64(n.rxOffered))
	m["phy.rx_share"] = ratio(float64(lt.self[callRx]+lt.self[callRxReset]), tracedOp)
	m["phy.threshold_cache_miss_ratio"] = ratio(float64(e.thrMiss-s.thrMiss), float64(thrLookups))

	m["mac.retx_ratio"] = ratio(float64(n.retx), frames)
	m["mac.useful_ratio"] = ratio(float64(n.useful), frames)
	m["mac.window_stalls_per_air_s"] = ratio(float64(n.stalls), air)
	if len(n.ackLat) > 0 {
		m["mac.ack_latency_ms_p50"] = median(n.ackLat) * 1e3
	} else {
		m["mac.ack_latency_ms_p50"] = 0
	}
	m["mac.ns_per_frame"] = perFrame(lt.self[callMacSender] + lt.self[callMacReceiver] + lt.self[callMacSide])

	m["light.steps_per_air_s"] = ratio(float64(n.steps), air)
	m["light.adjustments_per_air_s"] = ratio(float64(n.adjustments), air)
	m["light.step_ns"] = mean(callLightStep)

	glue := float64(pb.progNs - pb.untracedNs)
	m["sim.glue_ns_per_frame"] = ratio(glue, float64(pb.frames))
	m["sim.glue_share"] = ratio(glue, float64(pb.progNs))

	tel := map[string]float64{}
	if w.name == "officeday_observed" {
		cost := func(k int) float64 { return median(pb.twins[k].nsPerFrame) }
		tel["observe_ns_per_frame"] = cost(1)
		tel["alloc_kb_per_frame"] = median(pb.twins[1].allocsPerFrame) / 1e3
		for k, name := range []string{"metrics", "spans", "health", "prof", "logs", "watch"} {
			tel[name+"_ns_per_frame"] = cost(k + 2)
		}
		tel["merge_ms"] = median(pb.mergeMs)
		tel["agg_snapshot_ms"] = median(pb.aggMs)
	}
	for _, k := range []string{"observe_ns_per_frame", "alloc_kb_per_frame", "metrics_ns_per_frame",
		"spans_ns_per_frame", "health_ns_per_frame", "prof_ns_per_frame", "logs_ns_per_frame",
		"watch_ns_per_frame", "merge_ms", "agg_snapshot_ms"} {
		m["telemetry."+k] = tel[k]
	}

	wall := e.at.Sub(s.at).Seconds()
	m["parallel.cpu_util"] = ratio((e.cpu - s.cpu).Seconds(), wall*float64(w.workers))
	m["runtime.gc_cpu_frac"] = ratio(e.gcCPU-s.gcCPU, e.totalCPU-s.totalCPU)
	m["runtime.live_heap_kb_per_op"] = ratio(float64(int64(liveAfter)-int64(liveBefore)), float64(pa.ops)) / 1e3

	m["smartvlc.deliver_ns_per_chunk"] = ratio(float64(lt.incl[callDeliver]), float64(n.deliverCalls))
	m["smartvlc.deliver_setup_us"] = 0
	m["smartvlc.stream_retry_ratio"] = 0
	if w.name == "filetransfer_stream" {
		m["smartvlc.deliver_setup_us"] = ratio(float64(lt.incl[callChannelAt]+lt.incl[callRxReset]), float64(n.deliverCalls)) / 1e3
		m["smartvlc.stream_retry_ratio"] = ratio(float64(pa.sum.Retx), float64(pa.sum.Sent))
	}

	m["ledger.residual_frac"] = ratio(float64(lt.self[callOp]), tracedOp)
	m["ledger.trace_overhead_frac"] = ratio(float64(pb.tracedNs-pb.untracedNs), float64(pb.untracedNs))

	opNs := ratio(tracedOp, frames)
	phaseA := fmt.Sprintf("%d phase-A ops", pa.ops)
	notes := map[string]string{
		"amppm.table_build_ms":            "(cold: the process's first System)",
		"scheme.codec_cache_hit_ratio":    fmt.Sprintf("(of %d lookups, %s)", codecLookups, phaseA),
		"photon.sampler_cache_miss_ratio": fmt.Sprintf("(of %d lookups, %s)", sampLookups, phaseA),
		"phy.threshold_cache_miss_ratio":  fmt.Sprintf("(of %d lookups, %s)", thrLookups, phaseA),
		"phy.tx_share":                    fmt.Sprintf("(of the traced ledger op, %.0f ns/frame)", opNs),
		"phy.rx_share":                    fmt.Sprintf("(rx + reset, of the traced ledger op, %.0f ns/frame)", opNs),
		"phy.rx_hunt_miss_ratio":          fmt.Sprintf("(of %d receiver-frames)", n.rxOffered),
		"phy.rx_yield":                    fmt.Sprintf("(of %d receiver-frames)", n.rxOffered),
		"mac.retx_ratio":                  fmt.Sprintf("(of %d frames)", n.frames),
		"mac.useful_ratio":                fmt.Sprintf("(of %d frames)", n.frames),
		"sim.glue_share":                  fmt.Sprintf("(of the program op, %.0f ns/frame)", ratio(float64(pb.progNs), float64(pb.frames))),
		"parallel.cpu_util":               fmt.Sprintf("(process CPU over wall × %d workers, %s)", w.workers, phaseA),
		"runtime.gc_cpu_frac":             fmt.Sprintf("(of the process's CPU, %s)", phaseA),
		"ledger.residual_frac":            fmt.Sprintf("(of the traced ledger op, %.0f ns/frame)", opNs),
		"ledger.trace_overhead_frac":      fmt.Sprintf("(of the untraced ledger op, %.0f ns/frame)", ratio(float64(pb.untracedNs), frames)),
	}
	if w.name == "filetransfer_stream" {
		notes["smartvlc.stream_retry_ratio"] = fmt.Sprintf("(of %d frames, %s)", pa.sum.Sent, phaseA)
	}
	return m, notes
}

// splitLines renders the per-frame split: the ledger's layer self times,
// its residual, minus the tracing overhead, plus the session glue, which
// add up to the program's untraced time per frame (the base).
func splitLines(pb *phaseB) []string {
	lt := &pb.lt
	frames := float64(pb.frames)
	base := ratio(float64(pb.progNs), frames)
	perFrame := func(ns int64) float64 { return ratio(float64(ns), frames) }
	rows := []struct {
		name string
		ns   float64
	}{
		{"frame (build)", perFrame(lt.self[callBuild])},
		{"phy tx", perFrame(lt.self[callTx])},
		{"phy rx (+ reset)", perFrame(lt.self[callRx] + lt.self[callRxReset])},
		{"mac", perFrame(lt.self[callMacSender] + lt.self[callMacReceiver] + lt.self[callMacSide])},
		{"adapt (light, scheme, photon)", perFrame(lt.self[callLightStep] + lt.self[callCodecFor] + lt.self[callChannelAt])},
		{"smartvlc deliver glue", perFrame(lt.self[callDeliver])},
		{"ledger residual", perFrame(lt.self[callOp])},
		{"minus trace overhead", -perFrame(pb.tracedNs - pb.untracedNs)},
		{"sim glue", perFrame(pb.progNs - pb.untracedNs)},
	}
	lines := []string{fmt.Sprintf("per-frame split over %d ops, %d frames (base: program, untraced, one goroutine, observers off = %.0f ns/frame)",
		pb.ops, pb.frames, base)}
	sum := 0.0
	for _, r := range rows {
		sum += r.ns
		lines = append(lines, fmt.Sprintf("  %-32s %10.0f ns/frame  %6.1f%% of base", r.name, r.ns, 100*ratio(r.ns, base)))
	}
	lines = append(lines, fmt.Sprintf("  %-32s %10.0f ns/frame  %6.1f%% of base", "sum", sum, 100*ratio(sum, base)))
	return lines
}

// writeSpans writes the first ops' spans as TSV: op, index, parent,
// name, start and end in ns since the run's epoch.
func writeSpans(dir, workload string, seed uint64, spans []spanRec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", workload, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "op\tspan\tparent\tname\tstart_ns\tend_ns")
	for k, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.op, k, s.parent, callNames[s.call], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
