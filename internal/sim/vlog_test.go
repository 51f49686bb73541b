package sim

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"smartvlc/internal/light"
	"smartvlc/internal/optics"
	"smartvlc/internal/telemetry/flight"
	"smartvlc/internal/telemetry/vlog"
)

// logNDJSON renders a result's log snapshot as canonical NDJSON — the
// byte stream the determinism contract pins.
func logNDJSON(t testing.TB, snap *vlog.Snapshot) []byte {
	t.Helper()
	if snap == nil {
		t.Fatal("instrumented run returned no log snapshot")
	}
	b, err := snap.NDJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunLogByteIdentical extends the arena byte-identity contract to the
// structured log: sessions rented from a warm arena produce log snapshots
// byte-identical to fresh-allocated runs, including after the arena has
// been dirtied by sessions of different shapes (whose own log records —
// arena growth included — must not leak into the next session).
func TestRunLogByteIdentical(t *testing.T) {
	mkCfg := func(seed uint64) Config {
		cfg := arenaSessionConfig(t, seed)
		cfg.Logs = vlog.New(vlog.Debug)
		return cfg
	}
	run, err := Run(mkCfg(7), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	ref := logNDJSON(t, run.Logs)
	if !bytes.Contains(ref, []byte(`"stage":"sim/session"`)) {
		t.Fatalf("log snapshot carries no session records:\n%s", ref)
	}
	if !bytes.Contains(ref, []byte(`"stage":"phy/`)) {
		t.Fatalf("log snapshot carries no phy records:\n%s", ref)
	}

	a := NewArena()
	check := func(round string) {
		got, err := a.Run(mkCfg(7), 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if g := logNDJSON(t, got.Logs); !bytes.Equal(ref, g) {
			t.Fatalf("%s: log snapshot diverges from fresh run:\n--- fresh ---\n%s--- arena ---\n%s", round, ref, g)
		}
	}
	check("cold arena")
	check("warm arena")

	dirty := mkCfg(99)
	dirty.PayloadBytes = 64
	dirty.Window = 4
	dirty.FixedLevel = 0.3
	dirty.Trace = nil
	if _, err := a.Run(dirty, 0.2); err != nil {
		t.Fatal(err)
	}
	check("dirtied arena")
}

// TestBroadcastLogWorkerInvariance pins the tentpole acceptance matrix:
// broadcast log snapshots are byte-identical across GOMAXPROCS {1, 4} ×
// Workers {1, 3, -1}, arena-warm runs included. Per-receiver records are
// rendered from each receiver's events in receiver order during the
// sequential merge, so the parallel fan-out must be invisible in the
// NDJSON bytes.
func TestBroadcastLogWorkerInvariance(t *testing.T) {
	mkCfg := func() BroadcastConfig {
		cfg := broadcastConfig(t,
			ReceiverPose{Geometry: optics.Aligned(1.5, 0)},
			ReceiverPose{Geometry: optics.Aligned(3.0, 3)},
			ReceiverPose{Geometry: optics.Aligned(3.3, 5)},
		)
		cfg.Trace = light.BlindPull{StartLux: 100, EndLux: 400, Duration: 0.3}
		cfg.Health = stepHealthConfig()
		cfg.Logs = vlog.New(vlog.Debug)
		return cfg
	}
	run, err := RunBroadcast(mkCfg(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	ref := logNDJSON(t, run.Logs)
	for _, shard := range []string{"rx0", "rx1", "rx2"} {
		if !bytes.Contains(ref, []byte(`"shard":"`+shard+`"`)) {
			t.Fatalf("broadcast log carries no %s shard records:\n%s", shard, ref)
		}
	}

	a := NewArena()
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 3, -1} {
			cfg := mkCfg()
			cfg.Workers = workers
			got, err := a.RunBroadcast(cfg, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if g := logNDJSON(t, got.Logs); !bytes.Equal(ref, g) {
				t.Fatalf("GOMAXPROCS=%d workers=%d: log snapshot diverges from fresh run", procs, workers)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestFleetLogMergeAndSharedLoggerRejected covers the fleet contract:
// configs sharing one logger are rejected up front (a shared ring would
// interleave sessions non-deterministically), and distinct loggers merge
// into a config-ordered fleet snapshot whose session records keep their
// per-session seeds in order.
func TestFleetLogMergeAndSharedLoggerRejected(t *testing.T) {
	cfgs := fleetConfigs(t, 2)
	shared := vlog.New(vlog.Info)
	cfgs[0].Logs, cfgs[1].Logs = shared, shared
	if _, err := RunFleet(cfgs, 0.3, 1); err == nil {
		t.Fatal("shared logger accepted")
	} else if !strings.Contains(err.Error(), "share a structured logger") {
		t.Fatalf("shared-logger error %q lacks the diagnostic", err)
	}

	cfgs = fleetConfigs(t, 3)
	for i := range cfgs {
		cfgs[i].Logs = vlog.New(vlog.Info)
	}
	fl, err := RunFleet(cfgs, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Logs == nil {
		t.Fatal("fleet with per-session loggers produced no merged log snapshot")
	}
	var seeds []string
	for _, r := range fl.Logs.Records {
		if r.Stage == "sim/session" && r.Msg == "session start" {
			if a, ok := r.Attr("seed"); ok {
				seeds = append(seeds, a)
			}
		}
	}
	if want := []string{"1", "2", "3"}; !equalStrings(seeds, want) {
		t.Fatalf("merged session-start seeds %v, want %v (config order)", seeds, want)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFlightBundleLogTailIntact replays the SLO-escalation scenario with
// the structured log armed and asserts the triggered bundle ships a log
// tail whose final record is the sim/flight trigger record — the record
// is logged before the snapshot is taken, so the tail always ends with
// the line explaining why the bundle exists.
func TestFlightBundleLogTailIntact(t *testing.T) {
	rec, err := flight.New(flight.Config{Dir: t.TempDir(), MaxBundles: 256, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(amppmScheme(t))
	cfg.Geometry = optics.Aligned(4.0, 0)
	cfg.Trace = light.Steps{Levels: []float64{400, 6000, 12000}, StepSeconds: 0.6}
	cfg.Flight = rec
	cfg.Health = stepHealthConfig()
	cfg.Logs = vlog.New(vlog.Debug)
	if _, err := Run(cfg, 1.8); err != nil {
		t.Fatal(err)
	}
	if len(rec.Bundles()) == 0 {
		t.Fatal("scenario triggered no flight bundle")
	}
	for _, bdir := range rec.Bundles() {
		b, err := flight.ReadBundle(bdir)
		if err != nil {
			t.Fatal(err)
		}
		if b.Logs == nil || len(b.Logs.Records) == 0 {
			t.Fatalf("bundle %s shipped no log tail", bdir)
		}
		if n := len(b.Logs.Records); n > flight.DefaultLogTail {
			t.Fatalf("bundle %s log tail has %d records, cap %d", bdir, n, flight.DefaultLogTail)
		}
		last := b.Logs.Records[len(b.Logs.Records)-1]
		if last.Stage != "sim/flight" {
			t.Fatalf("bundle %s log tail ends with %q/%q, want the sim/flight trigger record",
				bdir, last.Stage, last.Msg)
		}
		if !strings.Contains(last.Msg, "flight bundle triggered") {
			t.Fatalf("bundle %s trigger record message %q", bdir, last.Msg)
		}
	}
}
