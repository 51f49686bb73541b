package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"slices"

	"smartvlc"
)

// opStats is one op's simulated outcome: what the output checks, the
// digest, the fidelity re-run and the ledger comparison read. Every field
// is in the sim domain, so it is a pure function of (workload, seed, op).
type opStats struct {
	Air     float64 // simulated air seconds
	Goodput float64 // acknowledged unique payload rate, bit/s (see workload docs)
	Sent    int     // frames put on air, retransmissions included
	OK      int     // frames (or chunks) received intact
	Bad     int     // frames received damaged (sessions only: the broadcast and stream results do not report it)
	Retx    int     // retransmissions
	Adjust  int     // LED brightness steps
	// SumErr and SumN accumulate |ambient+LED−target|/target over the
	// light series samples taken after the initial settle.
	SumErr float64
	SumN   int
	// Print fingerprints the op's full simulated result.
	Print uint64
}

// add accumulates o into s.
func (s *opStats) add(o opStats) {
	s.Air += o.Air
	s.Goodput += o.Goodput
	s.Sent += o.Sent
	s.OK += o.OK
	s.Bad += o.Bad
	s.Retx += o.Retx
	s.Adjust += o.Adjust
	s.SumErr += o.SumErr
	s.SumN += o.SumN
}

// instance is one set-up workload: the program objects a run builds once
// (scheme, System, arenas, pools) and the ops it times against them.
type instance interface {
	// op runs op i on client c's warm state, checks its outputs and
	// returns the simulated outcome and the host time of the program call.
	op(c, i int) (opStats, opTime, error)
	// deep runs op i for the fidelity check and returns its simulated
	// outcome and a fingerprint of everything the program reported,
	// snapshots included. fresh builds new state (a fresh arena, pool or
	// System); serial also drops to one worker where the op fans out.
	deep(i int, fresh, serial bool) (opStats, uint64, error)
}

// workload is one benchmark workload: how to build it and how to load it.
type workload struct {
	name string
	// clients is the number of closed-loop clients issuing ops.
	clients int
	// workers is the number of goroutines doing work under that load
	// (clients × per-op fan-out), the denominator of parallel.cpu_util.
	workers int
	// minOps is the least number of timed ops a run makes, whatever its
	// length: enough that ten lie beyond op_ms_p90. It is also the fixed
	// op sequence peak_heap_mb is read over.
	minOps int
	// paperRef describes the reference value for goodput_kbps, if any.
	paperRef string
	// sumErrNote says what sum_err_pct measures on this workload.
	sumErrNote string
	setup      func(seed uint64) (instance, error)
	// ledger replays op i through the layers (see ledger.go).
	ledger func(inst instance, l *ledger, i int) (opStats, error)
	// serialOp runs op i as one goroutine with every observer off: the
	// program side of the ledger comparison.
	serialOp func(inst instance, i int) (opStats, opTime, error)
}

var workloads = []*workload{
	{
		name: "fig15_steady", clients: 2, workers: 2, minOps: 150,
		paperRef:   "paper Fig. 15: AMPPM at l = 0.5 ≈ 107 kbps; EXPERIMENTS.md measures 96.8 kbps",
		sumErrNote: "the session's sum series at a fixed level under 8000 lux of daylight, far above the 1.0 target by design (Fig. 19b's metric belongs to officeday_observed)",
		setup:      newFig15, ledger: ledgerFig15, serialOp: firstClientOp,
	},
	{
		name: "officeday_observed", clients: 1, workers: officeWorkers, minOps: 100,
		sumErrNote: "Fig. 19b: the sessions' sum series against the 1.0 target after the settle",
		setup:      newOffice, ledger: ledgerOffice, serialOp: serialOffice,
	},
	{
		name: "classroom_broadcast", clients: 1, workers: classWorkers, minOps: 120,
		sumErrNote: "every desk's share of the sky plus the LED against the 1.0 target after the settle",
		setup:      newClassroom, ledger: ledgerClassroom, serialOp: serialClassroom,
	},
	{
		name: "filetransfer_stream", clients: 2, workers: 2, minOps: 150,
		sumErrNote: "each level's static offset from the 1.0 target at the op's ambient",
		setup:      newStream, ledger: ledgerStream, serialOp: firstClientOp,
	},
}

// opClock names the CPU clocks the workload is timed on. Ops of a
// workload with several clients run on their client's goroutine, so the
// client thread's clock times them; the single-client workloads' ops fan
// out to workers, so the process clock times them.
func (w *workload) opClock() string {
	if w.clients > 1 {
		return "each op on its client thread's CPU clock; the air rate and set-up on the process's"
	}
	return "ops, the air rate and set-up on the process's CPU clock"
}

// firstClientOp is serialOp for workloads whose ops run on their
// client's goroutine with observers off: op i on client 0's state.
func firstClientOp(inst instance, i int) (opStats, opTime, error) { return inst.op(0, i) }

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// opRand returns the input generator of op i: every input an op passes
// to the program (session seeds, trace parameters, desk poses, file
// bytes) comes from it, so the same (seed, i) always yields the same op.
// Warm-up ops use negative i.
func opRand(seed uint64, i int) *rand.Rand { return rand.New(opPCG(seed, i)) }

func opPCG(seed uint64, i int) *rand.PCG { return rand.NewPCG(seed, 0x5EED0000+uint64(int64(i))) }

// uniform draws from [lo, hi).
func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// errCheck marks an op whose outputs failed a check (as opposed to an
// error the program returned).
var errCheck = errors.New("output check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errCheck}, args...)...)
}

// newSystem builds the AMPPM System (the planning table) every workload
// runs on.
func newSystem() (*smartvlc.System, error) {
	return smartvlc.New(smartvlc.DefaultConstraints())
}

// peakRate is the Eq. 2 ceiling over the controller's range [0.1, 0.9]:
// the bound for ops whose dimming level moves.
func peakRate(sys *smartvlc.System) float64 {
	best := 0.0
	for k := 0; k <= 800; k++ {
		best = math.Max(best, sys.Throughput(0.1+0.8*float64(k)/800))
	}
	return best
}

// hasher accumulates an FNV-1a fingerprint without allocating, so the
// harness adds nothing to the heap the ops are measured by.
type hasher uint64

func newHasher() hasher { return 14695981039346656037 }

func (h *hasher) byte(c byte) { *h = (*h ^ hasher(c)) * 1099511628211 }
func (h *hasher) u(v uint64) {
	for k := 0; k < 8; k++ {
		h.byte(byte(v >> (8 * k)))
	}
}
func (h *hasher) f(v float64) { h.u(math.Float64bits(v)) }
func (h *hasher) i(v int)     { h.u(uint64(int64(v))) }
func (h *hasher) b(p []byte) {
	h.i(len(p))
	for _, c := range p {
		h.byte(c)
	}
}
func (h *hasher) series(s smartvlc.Series) {
	h.i(len(s.Points))
	for _, p := range s.Points {
		h.f(p.T)
		h.f(p.V)
	}
}
func (h *hasher) sum() uint64 { return uint64(*h) }

// sessionStats condenses one sim.Run result.
func sessionStats(res smartvlc.SessionResult, target float64) opStats {
	st := opStats{
		Air: res.Duration, Goodput: res.GoodputBps,
		Sent: res.FramesSent, OK: res.FramesOK, Bad: res.FramesBad, Retx: res.Retransmits, Adjust: res.Adjustments,
	}
	for _, p := range res.Sum.Points {
		if p.T >= settleSeconds {
			st.SumErr += math.Abs(p.V-target) / target
			st.SumN++
		}
	}
	h := newHasher()
	h.f(res.Duration)
	h.f(res.GoodputBps)
	for _, v := range []int{res.FramesSent, res.FramesOK, res.FramesBad, res.Retransmits, res.SymbolErrors, res.Adjustments} {
		h.i(v)
	}
	h.series(res.Throughput)
	h.series(res.LED)
	h.series(res.Sum)
	st.Print = h.sum()
	return st
}

// settleSeconds is the initial settle the illumination error skips
// (Fig. 19b): the controller starts from its first, smoothed reading.
const settleSeconds = 0.25

// checkSession applies the per-session output checks.
func checkSession(res smartvlc.SessionResult, ceiling float64) error {
	if res.FramesOK > res.FramesSent {
		return checkf("frames ok %d > sent %d", res.FramesOK, res.FramesSent)
	}
	if !(res.GoodputBps > 0 && res.GoodputBps <= ceiling) {
		return checkf("goodput %.1f bit/s outside (0, %.1f]", res.GoodputBps, ceiling)
	}
	return nil
}

// ---- fig15_steady ---------------------------------------------------

// fig15Air is the simulated air time of one fig15_steady session.
const fig15Air = 2.0

// fig15 runs Fig. 15's operating point (AMPPM, l = 0.5, 3 m on-axis,
// 8000 lux, 128-byte payloads), observers off, one warm arena per client.
type fig15 struct {
	seed   uint64
	sys    *smartvlc.System
	arenas []*smartvlc.Arena
}

func newFig15(seed uint64) (instance, error) {
	sys, err := newSystem()
	if err != nil {
		return nil, err
	}
	return &fig15{seed: seed, sys: sys, arenas: []*smartvlc.Arena{smartvlc.NewArena(), smartvlc.NewArena()}}, nil
}

func (w *fig15) config(i int) smartvlc.SessionConfig {
	cfg := smartvlc.DefaultSessionConfig(w.sys.Scheme()) // already Fig. 15's point
	cfg.Seed = opPCG(w.seed, i).Uint64()
	return cfg
}

func (w *fig15) run(a *smartvlc.Arena, i int) (smartvlc.SessionResult, smartvlc.SessionConfig, opTime, error) {
	cfg := w.config(i)
	sw := startWatch(clockThreadCPU)
	res, err := a.Run(cfg, fig15Air)
	return res, cfg, sw.stop(), err
}

func (w *fig15) op(c, i int) (opStats, opTime, error) {
	res, cfg, d, err := w.run(w.arenas[c], i)
	if err != nil {
		return opStats{}, d, err
	}
	return sessionStats(res, cfg.TargetSum), d, checkSession(res, w.sys.Throughput(cfg.FixedLevel))
}

func (w *fig15) deep(i int, fresh, _ bool) (opStats, uint64, error) {
	a := w.arenas[0]
	if fresh {
		a = smartvlc.NewArena()
	}
	res, cfg, _, err := w.run(a, i)
	if err != nil {
		return opStats{}, 0, err
	}
	st := sessionStats(res, cfg.TargetSum)
	return st, st.Print, nil
}

// ---- officeday_observed ---------------------------------------------

const (
	officeSessions = 4   // sessions per fleet op
	officeAir      = 1.0 // simulated seconds per session
	officeWorkers  = 2
)

// pillar selects observers for a fleet run.
type pillar uint8

const (
	pillarMetrics pillar = 1 << iota
	pillarSpans
	pillarHealth
	pillarProf
	pillarLogs
	pillarWatch // requires pillarMetrics: the feed streams registry deltas
	pillarsAll  = pillarMetrics | pillarSpans | pillarHealth | pillarProf | pillarLogs | pillarWatch
)

// office runs fleets of sessions that follow a fast cloudy sky through
// the perceived-domain controller, every observer pillar armed, on one
// persistent arena pool.
type office struct {
	seed    uint64
	sys     *smartvlc.System
	arenas  *smartvlc.FleetArenas
	ceiling float64
}

func newOffice(seed uint64) (instance, error) {
	sys, err := newSystem()
	if err != nil {
		return nil, err
	}
	return &office{seed: seed, sys: sys, arenas: smartvlc.NewFleetArenas(), ceiling: peakRate(sys)}, nil
}

// configs builds op i's fleet with the given observers armed.
func (w *office) configs(i int, obs pillar) ([]smartvlc.SessionConfig, *smartvlc.FleetAggregator, error) {
	r := opRand(w.seed, i)
	var fa *smartvlc.FleetAggregator
	if obs&pillarWatch != 0 {
		var err error
		if fa, err = smartvlc.NewFleetAggregator(smartvlc.FleetAggConfig{}, officeSessions); err != nil {
			return nil, nil, err
		}
	}
	cfgs := make([]smartvlc.SessionConfig, officeSessions)
	for k := range cfgs {
		cfg := smartvlc.DefaultSessionConfig(w.sys.Scheme())
		cfg.Seed = r.Uint64()
		// Desk ambient 250–400 lux with clouds taking up to 40–70 % of it
		// every 0.6–1.5 s: the LED level and the channel move every few
		// frames.
		cfg.Trace = smartvlc.CloudyAmbient(uniform(r, 250, 400), uniform(r, 0.4, 0.7), uniform(r, 0.6, 1.5))
		cfg.FullLEDLux = 500
		cfg.TargetSum = 1.0
		cfg.Stepper = smartvlc.PerceivedStepper
		if obs&pillarMetrics != 0 {
			cfg.Telemetry = smartvlc.NewTelemetry()
		}
		if obs&pillarSpans != 0 {
			cfg.Spans = smartvlc.NewSpanCollector()
		}
		if obs&pillarHealth != 0 {
			cfg.Health = &smartvlc.HealthConfig{}
		}
		if obs&pillarProf != 0 {
			cfg.Prof = smartvlc.NewProfiler()
		}
		if obs&pillarLogs != 0 {
			cfg.Logs = smartvlc.NewLogger(smartvlc.LogInfo)
		}
		if fa != nil {
			feed, err := fa.Feed(smartvlc.FleetSessionMeta{
				Index: k, Seed: cfg.Seed, Scheme: w.sys.Scheme().Name(), PayloadBytes: cfg.PayloadBytes,
			})
			if err != nil {
				return nil, nil, err
			}
			cfg.Watch = feed
		}
		cfgs[k] = cfg
	}
	return cfgs, fa, nil
}

// fleet runs op i's fleet and times the program call.
func (w *office) fleet(arenas *smartvlc.FleetArenas, i int, obs pillar, workers int) (smartvlc.FleetResult, opTime, error) {
	cfgs, _, err := w.configs(i, obs)
	if err != nil {
		return smartvlc.FleetResult{}, opTime{}, err
	}
	sw := startWatch(clockProcessCPU)
	fl, err := smartvlc.RunFleetArenas(arenas, cfgs, officeAir, workers)
	return fl, sw.stop(), err
}

// fleetStats condenses and checks a fleet: goodput is the per-session
// mean, everything else sums over the sessions.
func (w *office) fleetStats(fl smartvlc.FleetResult) (opStats, error) {
	var st opStats
	h := newHasher()
	var err error
	for _, res := range fl.Results {
		s := sessionStats(res, 1.0)
		s.Goodput /= float64(len(fl.Results))
		st.add(s)
		h.u(s.Print)
		if e := checkSession(res, w.ceiling); e != nil && err == nil {
			err = e
		}
	}
	st.Print = h.sum()
	return st, err
}

func (w *office) op(_, i int) (opStats, opTime, error) {
	fl, d, err := w.fleet(w.arenas, i, pillarsAll, officeWorkers)
	if err != nil {
		return opStats{}, d, err
	}
	if fl.Telemetry == nil || fl.Health == nil || fl.Prof == nil || fl.Logs == nil || fl.Agg == nil {
		return opStats{}, d, checkf("fleet dropped an armed observer's snapshot")
	}
	st, err := w.fleetStats(fl)
	return st, d, err
}

// deep fingerprints the fleet's results and every fleet snapshot.
func (w *office) deep(i int, fresh, serial bool) (opStats, uint64, error) {
	arenas, workers := w.arenas, officeWorkers
	if fresh {
		arenas = smartvlc.NewFleetArenas()
	}
	if serial {
		workers = 1
	}
	fl, _, err := w.fleet(arenas, i, pillarsAll, workers)
	if err != nil {
		return opStats{}, 0, err
	}
	st, err := w.fleetStats(fl)
	if err != nil {
		return opStats{}, 0, err
	}
	h := newHasher()
	h.u(st.Print)
	for _, js := range []func() ([]byte, error){fl.Telemetry.JSON, fl.Health.JSON, fl.Prof.JSON, fl.Agg.JSON, fl.Logs.JSON} {
		b, err := js()
		if err != nil {
			return opStats{}, 0, err
		}
		h.b(b)
	}
	for _, res := range fl.Results {
		b, err := res.Spans.JSON()
		if err != nil {
			return opStats{}, 0, err
		}
		h.b(b)
	}
	return st, h.sum(), nil
}

func serialOffice(inst instance, i int) (opStats, opTime, error) {
	w := inst.(*office)
	fl, d, err := w.fleet(w.arenas, i, 0, 1)
	if err != nil {
		return opStats{}, d, err
	}
	st, err := w.fleetStats(fl)
	return st, d, err
}

// ---- classroom_broadcast --------------------------------------------

const (
	classAir     = 0.5 // simulated seconds per broadcast session
	classWorkers = 2
)

// classroom runs one luminaire serving six desks under a cloudy sky,
// reliable multicast ARQ, receiver fan-out on two workers.
type classroom struct {
	seed    uint64
	sys     *smartvlc.System
	arena   *smartvlc.Arena
	ceiling float64
}

func newClassroom(seed uint64) (instance, error) {
	sys, err := newSystem()
	if err != nil {
		return nil, err
	}
	return &classroom{seed: seed, sys: sys, arena: smartvlc.NewArena(), ceiling: peakRate(sys)}, nil
}

func (w *classroom) config(i int, workers int) smartvlc.BroadcastConfig {
	r := opRand(w.seed, i)
	cfg := smartvlc.BroadcastConfig{Config: smartvlc.DefaultSessionConfig(w.sys.Scheme()), Workers: workers}
	cfg.Seed = r.Uint64()
	cfg.Trace = smartvlc.CloudyAmbient(uniform(r, 230, 290), uniform(r, 0.4, 0.6), uniform(r, 1.5, 4))
	cfg.FullLEDLux = 500
	cfg.TargetSum = 1.0
	cfg.Stepper = smartvlc.PerceivedStepper
	// Five desks from the front row (1.8 m, by the window) to the back,
	// plus a far desk in the darkest corner (≈150 lux at the sky's base)
	// placed past the range cliff, which starts near 5 m at that ambient.
	desks := []struct{ d, angle, scale float64 }{
		{1.8, 0, 1.6}, {2.4, 5, 1.3}, {2.9, 8, 1.0}, {3.4, 10, 0.8}, {3.9, 6, 0.7},
		{uniform(r, 5.2, 5.8), 0, 0.6},
	}
	for k, d := range desks {
		dist := d.d
		if k < len(desks)-1 {
			dist += uniform(r, -0.1, 0.1)
		}
		cfg.Receivers = append(cfg.Receivers, smartvlc.ReceiverPose{
			Geometry: smartvlc.Aligned(dist, d.angle), AmbientScale: d.scale,
		})
	}
	return cfg
}

func (w *classroom) run(a *smartvlc.Arena, i, workers int) (smartvlc.BroadcastResult, smartvlc.BroadcastConfig, opTime, error) {
	cfg := w.config(i, workers)
	sw := startWatch(clockProcessCPU)
	res, err := a.RunBroadcast(cfg, classAir)
	return res, cfg, sw.stop(), err
}

// broadcastStats condenses and checks a broadcast session.
func (w *classroom) broadcastStats(res smartvlc.BroadcastResult, cfg smartvlc.BroadcastConfig) (opStats, error) {
	st := opStats{Air: res.Duration, Goodput: res.ReliableGoodputBps, Sent: res.FramesSent, Adjust: res.Adjustments}
	h := newHasher()
	h.f(res.Duration)
	h.f(res.ReliableGoodputBps)
	h.i(res.FramesSent)
	h.i(res.Adjustments)
	h.series(res.LED)
	var err error
	for k, o := range res.PerReceiver {
		st.OK += o.FramesOK
		h.i(o.FramesOK)
		h.f(o.DeliveredBps)
		h.f(o.MeanSum)
		if o.FramesOK > res.FramesSent && err == nil {
			err = checkf("desk %d: frames ok %d > sent %d", k, o.FramesOK, res.FramesSent)
		}
		if res.ReliableGoodputBps > o.DeliveredBps && err == nil {
			err = checkf("reliable goodput %.1f > desk %d's delivered %.1f bit/s", res.ReliableGoodputBps, k, o.DeliveredBps)
		}
	}
	if !(res.ReliableGoodputBps > 0 && res.ReliableGoodputBps <= w.ceiling) && err == nil {
		err = checkf("reliable goodput %.1f bit/s outside (0, %.1f]", res.ReliableGoodputBps, w.ceiling)
	}
	// Illumination error per desk: the desk's share of the sky plus the
	// LED, against the target, from the LED series the program reports.
	for _, p := range res.LED.Points {
		if p.T < settleSeconds {
			continue
		}
		for _, rcv := range cfg.Receivers {
			amb := cfg.Trace.LuxAt(p.T) * rcv.AmbientScale / cfg.FullLEDLux
			st.SumErr += math.Abs(amb+p.V-cfg.TargetSum) / cfg.TargetSum
			st.SumN++
		}
	}
	st.Print = h.sum()
	return st, err
}

func (w *classroom) op(_, i int) (opStats, opTime, error) {
	res, cfg, d, err := w.run(w.arena, i, classWorkers)
	if err != nil {
		return opStats{}, d, err
	}
	st, err := w.broadcastStats(res, cfg)
	return st, d, err
}

func (w *classroom) deep(i int, fresh, serial bool) (opStats, uint64, error) {
	a, workers := w.arena, classWorkers
	if fresh {
		a = smartvlc.NewArena()
	}
	if serial {
		workers = 1
	}
	res, cfg, _, err := w.run(a, i, workers)
	if err != nil {
		return opStats{}, 0, err
	}
	st, err := w.broadcastStats(res, cfg)
	return st, st.Print, err
}

func serialClassroom(inst instance, i int) (opStats, opTime, error) {
	w := inst.(*classroom)
	res, cfg, d, err := w.run(w.arena, i, 1)
	if err != nil {
		return opStats{}, d, err
	}
	st, err := w.broadcastStats(res, cfg)
	return st, d, err
}

// ---- filetransfer_stream --------------------------------------------

const (
	streamFileBytes = 16 << 10
	streamDistanceM = 3.3
)

// streamLevels is the dimming cycle inside each stream op: the file goes
// out as one Stream.Write per level, in this order, so long dim and
// bright frames alternate with short mid-level ones in every op.
var streamLevels = [3]float64{0.1, 0.5, 0.9}

// segment returns the part of the file written at streamLevels[k].
func segment(file []byte, k int) []byte {
	n, m := len(file), len(streamLevels)
	return file[k*n/m : (k+1)*n/m]
}

// stream moves one file per op through the facade's reliable byte pipe
// (System.OpenStream → Write per level → Read), all clients sharing one
// System.
type stream struct {
	seed uint64
	sys  *smartvlc.System
	bufs [2]streamBufs // per client
}

// streamBufs are one client's file, read-back and read buffers, reused
// across ops so the harness adds nothing to the measured heap.
type streamBufs struct{ file, got, buf []byte }

func newStream(seed uint64) (instance, error) {
	sys, err := newSystem()
	if err != nil {
		return nil, err
	}
	return &stream{seed: seed, sys: sys}, nil
}

// streamInput is one op's generated inputs.
type streamInput struct {
	ambient float64
	seed    uint64
	file    []byte
}

// input generates op i's inputs, the file into file's storage.
func (w *stream) input(i int, file []byte) streamInput {
	r := opRand(w.seed, i)
	in := streamInput{
		ambient: uniform(r, 6000, 9000),
		seed:    r.Uint64(),
		file:    slices.Grow(file[:0], streamFileBytes)[:streamFileBytes],
	}
	for k := 0; k < len(in.file); k += 8 {
		v := r.Uint64()
		for b := 0; b < 8; b++ {
			in.file[k+b] = byte(v >> (8 * b))
		}
	}
	return in
}

func (w *stream) run(sys *smartvlc.System, b *streamBufs, i int) (opStats, opTime, error) {
	in := w.input(i, b.file)
	b.file = in.file
	if b.buf == nil {
		b.buf = make([]byte, 4096)
	}
	got, buf := b.got[:0], b.buf
	defer func() { b.got = got }()
	var segAir [len(streamLevels)]float64
	written := 0
	sw := startWatch(clockThreadCPU)
	st, err := sys.OpenStream(smartvlc.Aligned(streamDistanceM, 0), in.ambient, streamLevels[0], in.seed)
	if err != nil {
		return opStats{}, sw.stop(), err
	}
	for k, level := range streamLevels {
		if err := st.SetLevel(level); err != nil {
			return opStats{}, sw.stop(), err
		}
		air0 := st.AirtimeSeconds()
		n, err := st.Write(segment(in.file, k))
		written += n
		if err != nil {
			return opStats{}, sw.stop(), err
		}
		segAir[k] = st.AirtimeSeconds() - air0
	}
	for {
		k, rerr := st.Read(buf)
		got = append(got, buf[:k]...)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return opStats{}, sw.stop(), rerr
		}
	}
	d := sw.stop()
	s := st.Stats()
	chunks := 0
	for _, c := range s.ChunkAttempts {
		chunks += int(c)
	}
	out := opStats{
		Air: st.AirtimeSeconds(), Sent: s.FramesSent, OK: chunks, Retx: s.Retries,
		Goodput: float64(s.DeliveredBytes) * 8 / st.AirtimeSeconds(),
	}
	h := newHasher()
	h.i(s.FramesSent)
	h.i(s.Retries)
	h.i(s.AirtimeSlots)
	h.i(int(s.DeliveredBytes))
	for _, c := range s.ChunkAttempts {
		h.i(int(c))
	}
	h.b(got)
	out.Print = h.sum()
	switch {
	case written != len(in.file):
		err = checkf("wrote %d of %d bytes", written, len(in.file))
	case !bytes.Equal(got, in.file):
		off := 0
		for off < len(got) && off < len(in.file) && got[off] == in.file[off] {
			off++
		}
		err = checkf("read back %d bytes that differ from the %d written, first at byte %d (chunk %d)",
			len(got), len(in.file), off, chunkAt(in.file, off))
	case out.OK > out.Sent:
		err = checkf("chunks delivered %d > frames sent %d", out.OK, out.Sent)
	}
	for k, level := range streamLevels {
		// Each level holds under a static ambient: its illumination error
		// is that operating point's offset from the 1.0 target (LED units,
		// 500 lux per full LED, as in the other workloads).
		out.SumErr += math.Abs(in.ambient/500 + level - 1.0)
		out.SumN++
		rate, ceiling := float64(len(segment(in.file, k)))*8/segAir[k], w.sys.Throughput(level)
		if !(rate > 0 && rate <= ceiling) && err == nil {
			err = checkf("goodput %.1f bit/s at level %v outside (0, %.1f]", rate, level, ceiling)
		}
	}
	return out, d, err
}

// chunkAt returns the stream chunk that carries byte off of the file:
// each level's segment goes out in chunks of streamChunkBytes, numbered
// on across the segments.
func chunkAt(file []byte, off int) int {
	chunk := 0
	for k := range streamLevels {
		lo, seg := k*len(file)/len(streamLevels), segment(file, k)
		if off < lo+len(seg) {
			return chunk + (off-lo)/streamChunkBytes
		}
		chunk += (len(seg) + streamChunkBytes - 1) / streamChunkBytes
	}
	return chunk
}

func (w *stream) op(c, i int) (opStats, opTime, error) { return w.run(w.sys, &w.bufs[c], i) }

func (w *stream) deep(i int, fresh, _ bool) (opStats, uint64, error) {
	sys := w.sys
	if fresh {
		var err error
		if sys, err = newSystem(); err != nil {
			return opStats{}, 0, err
		}
	}
	st, _, err := w.run(sys, &streamBufs{}, i)
	return st, st.Print, err
}
