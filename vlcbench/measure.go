package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"smartvlc"
)

// Host time. The end-to-end timings read the kernel's CPU clocks, not
// the wall clock: on a virtual machine whose host is shared, the
// hypervisor takes the virtual CPUs away for spells of seconds to
// minutes, and a wall clock counts those spells as the program's time —
// a fan-out op that waits at a barrier for a descheduled worker counts
// them twice. A Linux guest built with CONFIG_PARAVIRT_TIME_ACCOUNTING
// accounts that stolen time apart, so it stays out of the CPU clocks.
// What the Go scheduler burns looking for work while a fan-out op waits
// is CPU time and still counts, so such an op's CPU time still grows a
// little while a worker is away. The wall-clock figures are printed
// beside the CPU-clock ones.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread, which must be locked to its goroutine
)

// readCPU reads a CPU clock.
func readCPU(clock int) (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("clock_gettime(%d): %w", clock, e)
	}
	return time.Duration(ts.Nano()), nil
}

// checkClocks reports whether the kernel provides both CPU clocks; once
// it has, cpuNow cannot fail.
func checkClocks() error {
	for _, c := range []int{clockProcessCPU, clockThreadCPU} {
		if _, err := readCPU(c); err != nil {
			return err
		}
	}
	return nil
}

func cpuNow(clock int) time.Duration {
	d, err := readCPU(clock)
	if err != nil {
		panic(err) // checkClocks passed at start-up
	}
	return d
}

// opTime is the host time of one program call.
type opTime struct{ wall, cpu time.Duration }

// watch times one program call on the wall clock and a CPU clock: the
// calling thread's for an op that runs on its caller's goroutine, the
// process's for an op that fans out (those run one client at a time).
type watch struct {
	clock int
	wall  time.Time
	cpu   time.Duration
}

func startWatch(clock int) watch {
	return watch{clock: clock, wall: time.Now(), cpu: cpuNow(clock)}
}

func (w watch) stop() opTime {
	cpu := cpuNow(w.clock)
	return opTime{wall: time.Since(w.wall), cpu: cpu - w.cpu}
}

// probe is a process-wide reading taken at the edges of a timed phase.
type probe struct {
	at                  time.Time
	cpu                 time.Duration // CPU time of the process
	allocs              uint64        // cumulative heap bytes allocated
	gcCPU, totalCPU     float64       // runtime CPU-class estimates, seconds
	codecHit, codecMiss int64         // scheme codec cache (global registry)
	sampHit, sampMiss   int64         // photon sampler cache
	thrHit, thrMiss     int64         // phy threshold cache
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readProbe() probe {
	s := make([]metrics.Sample, len(runtimeSamples))
	for k, name := range runtimeSamples {
		s[k].Name = name
	}
	metrics.Read(s)
	g := smartvlc.GlobalTelemetry()
	counter := func(name, result string) int64 {
		return g.LookupCounter(name, "result", result).Value()
	}
	return probe{
		at:        time.Now(),
		cpu:       cpuNow(clockProcessCPU),
		allocs:    s[0].Value.Uint64(),
		gcCPU:     s[1].Value.Float64(),
		totalCPU:  s[2].Value.Float64(),
		codecHit:  counter("scheme_codec_cache_total", "hit"),
		codecMiss: counter("scheme_codec_cache_total", "miss"),
		sampHit:   counter("photon_sampler_cache_total", "hit"),
		sampMiss:  counter("photon_sampler_cache_total", "miss"),
		thrHit:    counter("phy_threshold_cache_total", "hit"),
		thrMiss:   counter("phy_threshold_cache_total", "miss"),
	}
}

// heapAllocs returns the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap returns the live heap as of the last GC cycle.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcLiveHeap forces two collections and returns the live heap the
// second found: sync.Pool caches survive one collection as victims and
// go in the next, so what they happen to hold at the reading does not
// count.
func gcLiveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return liveHeap()
}

// timedPhase is the outcome of one closed-loop phase.
type timedPhase struct {
	ops        int      // ops 0..ops−1 all ran
	durs       []opTime // per op: host time of the program call
	prints     []uint64 // per op: simulated-result fingerprint
	sum        opStats  // summed over the ops
	errs       []error
	start, end probe
	// peakHeap is the peak live heap over the fixed op sequence
	// 0..minOps−1: the live heap each op's completion sees, and a forced
	// collection once that sequence has run.
	peakHeap uint64
}

// dispenser hands out op indices until the phase is over: it has run
// for its duration and issued at least minOps. Once it refuses it keeps
// refusing, so the ops that ran are exactly 0..n−1. Before issuing op
// minOps it waits for every op in flight to return and forces the
// collection that closes peak, so no op runs during it. It takes no
// lock: a client parked on a contended mutex wakes on the other P, and
// the program's per-P sync.Pool caches then miss and allocate.
type dispenser struct {
	next, inflight atomic.Int64
	stopped        atomic.Bool
	reading        atomic.Bool // a client has claimed the heap reading
	heapRead       atomic.Bool // and taken it
	peak           atomic.Uint64
	minOps         int64
	deadline       time.Time
}

func (d *dispenser) take() (int, bool) {
	for {
		n := d.next.Load()
		if d.stopped.Load() {
			return 0, false
		}
		if n >= d.minOps && !time.Now().Before(d.deadline) {
			d.stopped.Store(true)
			return 0, false
		}
		if n == d.minOps && !d.heapRead.Load() {
			d.readHeap()
			continue
		}
		if d.next.CompareAndSwap(n, n+1) {
			d.inflight.Add(1)
			return int(n), true
		}
	}
}

// readHeap waits until no op is in flight, then one client forces the
// collection while the others wait for it.
func (d *dispenser) readHeap() {
	for d.inflight.Load() > 0 {
		runtime.Gosched()
	}
	if d.reading.CompareAndSwap(false, true) {
		d.raisePeak(gcLiveHeap())
		d.heapRead.Store(true)
		return
	}
	for !d.heapRead.Load() {
		runtime.Gosched()
	}
}

func (d *dispenser) raisePeak(v uint64) {
	for {
		p := d.peak.Load()
		if v <= p || d.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// done retires op i; live is the live heap its client read afterwards.
func (d *dispenser) done(i int, live uint64) {
	if int64(i) < d.minOps {
		d.raisePeak(live)
	}
	d.inflight.Add(-1)
}

// clientLog is one client's record of the ops it ran, preallocated so
// recording an op neither allocates inside the measured window nor
// weighs on the live heap.
type clientLog struct {
	idx    []int32
	durs   []opTime
	prints []uint64
	sum    opStats
	errs   []error
}

const logCap = 2048

// runPhase drives the given number of closed-loop clients against inst:
// each issues its next op when the previous one returns, for the given
// duration and at least minOps ops in all. The phase starts from a collected heap, so
// setup garbage and the collector's phase do not carry into it.
func runPhase(inst instance, clients, minOps int, dur time.Duration) timedPhase {
	var ph timedPhase
	d := &dispenser{minOps: int64(minOps)}
	logs := make([]clientLog, clients)
	for c := range logs {
		logs[c] = clientLog{idx: make([]int32, 0, logCap), durs: make([]opTime, 0, logCap), prints: make([]uint64, 0, logCap)}
	}
	runtime.GC()
	ph.start = readProbe()
	d.deadline = ph.start.at.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(lg *clientLog) {
			defer wg.Done()
			runtime.LockOSThread() // the thread CPU clock times this goroutine's ops
			defer runtime.UnlockOSThread()
			live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
			for {
				i, ok := d.take()
				if !ok {
					return
				}
				st, dt, err := inst.op(c, i)
				lg.idx = append(lg.idx, int32(i))
				lg.durs = append(lg.durs, dt)
				lg.prints = append(lg.prints, st.Print)
				lg.sum.add(st)
				if err != nil {
					lg.errs = append(lg.errs, fmt.Errorf("op %d: %w", i, err))
				}
				metrics.Read(live)
				d.done(i, live[0].Value.Uint64())
			}
		}(&logs[c])
	}
	wg.Wait()
	ph.end = readProbe()
	ph.ops = int(d.next.Load())
	ph.durs = make([]opTime, ph.ops)
	ph.prints = make([]uint64, ph.ops)
	for _, lg := range logs {
		for k, i := range lg.idx {
			ph.durs[i], ph.prints[i] = lg.durs[k], lg.prints[k]
		}
		ph.sum.add(lg.sum)
		ph.errs = append(ph.errs, lg.errs...)
	}
	ph.peakHeap = d.peak.Load()
	return ph
}

// spinUp busies n goroutines with a fixed integer loop, in 100 ms
// slices, until the loop's rate is steady: three consecutive slices
// within 3 % of each other, after at least 1.5 s and at most 4 s. A
// virtual CPU on a shared host can run at a steady half speed for about
// a second after an idle spell; without this, that spell lands on set-up
// and the first ops. It runs none of the program's code.
func spinUp(n int) {
	const slice = 100 * time.Millisecond
	start := time.Now()
	var rates []float64
	for time.Since(start) < 4*time.Second {
		counts := make([]int, n)
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				x := uint64(g + 1)
				end := time.Now().Add(slice)
				for time.Now().Before(end) {
					for k := 0; k < 1000; k++ {
						x = x*6364136223846793005 + 1442695040888963407
					}
					counts[g]++
				}
				if x == 0 { // keeps the loop from being optimised away
					counts[g]--
				}
			}(g)
		}
		wg.Wait()
		rate := 0.0
		for _, c := range counts {
			rate += float64(c)
		}
		rates = append(rates, rate)
		if k := len(rates); k >= 3 && time.Since(start) >= slice*15 {
			lo := min(rates[k-1], rates[k-2], rates[k-3])
			hi := max(rates[k-1], rates[k-2], rates[k-3])
			if hi-lo <= 0.03*hi {
				return
			}
		}
	}
}

// setupResult is the outcome of the repeated set-up.
type setupResult struct {
	inst    instance
	cpu     []float64 // process CPU seconds of each set-up
	wall    []float64 // wall seconds of each set-up
	tableMs []float64 // smartvlc.New, timed on its own before each set-up; only the first builds the AMPPM table, the process caches it
	ops     int       // warm-up ops run
	failed  []error
}

// setupReps is how many times a run sets its workload up; setup_s is
// their median and the last one serves the timed ops.
const setupReps = 9

// setup builds the workload setupReps times. One set-up is everything
// between workload start and the first timed op: the System, arenas and
// pools, and one untimed warm-up op per client (warm-up ops use negative
// op indices, outside the timed sequence). The process builds the AMPPM
// planning table once and caches it, so the first smartvlc.New, timed on
// its own before the first set-up, is the table's cold build.
func setup(w *workload, seed uint64) (setupResult, error) {
	var res setupResult
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		if _, err := newSystem(); err != nil {
			return res, err
		}
		res.tableMs = append(res.tableMs, float64(time.Since(t0))/1e6)
		runtime.GC() // each set-up starts from a collected heap, as in a fresh process
		sw := startWatch(clockProcessCPU)
		inst, err := w.setup(seed)
		if err != nil {
			return res, err
		}
		for c := 0; c < w.clients; c++ {
			res.ops++
			if _, _, err := inst.op(c, -1-c); err != nil {
				res.failed = append(res.failed, fmt.Errorf("warm-up op %d: %w", -1-c, err))
			}
		}
		d := sw.stop()
		res.cpu = append(res.cpu, d.cpu.Seconds())
		res.wall = append(res.wall, d.wall.Seconds())
		res.inst = inst
	}
	return res, nil
}

// fidelity re-runs one sampled op of the timed sequence and requires
// the warm state, a fresh arena (or pool, or System) and, where the op
// fans out, a fresh single-worker run to report identical results — the
// byte-identity contract of the arenas and the parallel fan-out, checked
// from outside.
type fidelity struct {
	op     int
	runs   int
	failed []error
}

func checkFidelity(w *workload, inst instance, prints []uint64, seed uint64) fidelity {
	type mode struct {
		name          string
		fresh, serial bool
	}
	f := fidelity{op: int(seed % uint64(len(prints)))}
	modes := []mode{{"warm", false, false}, {"fresh", true, false}}
	if w.workers > w.clients { // the op itself fans out
		modes = append(modes, mode{"fresh, one worker", true, true})
	}
	var want uint64
	for k, m := range modes {
		f.runs++
		st, fp, err := inst.deep(f.op, m.fresh, m.serial)
		switch {
		case err != nil:
			f.failed = append(f.failed, fmt.Errorf("fidelity re-run (%s) of op %d: %w", m.name, f.op, err))
		case st.Print != prints[f.op]:
			f.failed = append(f.failed, fmt.Errorf("fidelity re-run (%s) of op %d: simulated result differs from the timed run", m.name, f.op))
		case k == 0:
			want = fp
		case fp != want:
			f.failed = append(f.failed, fmt.Errorf("fidelity re-run (%s) of op %d: snapshots differ from the warm re-run", m.name, f.op))
		}
	}
	return f
}

// digestOps is the fixed op prefix one simulated-statistics digest
// covers, so runs of one seed compare whatever their length.
const digestOps = 16

// digest fingerprints the simulated results of the given ops.
func digest(prints []uint64) uint64 {
	h := newHasher()
	for _, p := range prints {
		h.u(p)
	}
	return h.sum()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
