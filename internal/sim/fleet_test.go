package sim

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/flight"
)

// fleetConfigs builds n independent instrumented sessions with distinct
// seeds. Fresh registries every call: registries are stateful, so each
// fleet run needs its own.
func fleetConfigs(t *testing.T, n int) []Config {
	t.Helper()
	s := amppmScheme(t)
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfg := DefaultConfig(s)
		cfg.FixedLevel = 0.5
		cfg.Seed = uint64(i + 1)
		cfg.Telemetry = telemetry.New()
		cfgs[i] = cfg
	}
	return cfgs
}

// TestRunFleetWorkerInvariant is the ISSUE's key invariant: every
// per-session result and the merged telemetry snapshot must be
// byte-identical between workers=1 and workers=NumCPU, at GOMAXPROCS 1
// and 4 alike.
func TestRunFleetWorkerInvariant(t *testing.T) {
	type capture struct {
		results []Result
		session [][]byte
		merged  []byte
	}
	run := func(workers int) capture {
		fl, err := RunFleet(fleetConfigs(t, 5), 0.3, workers)
		if err != nil {
			t.Fatal(err)
		}
		c := capture{results: fl.Results}
		for i := range fl.Results {
			j, err := fl.Results[i].Telemetry.JSON()
			if err != nil {
				t.Fatal(err)
			}
			c.session = append(c.session, j)
			// Telemetry pointers differ per run; compare them as JSON and
			// the rest of the Result structurally.
			c.results[i].Telemetry = nil
		}
		c.merged, err = fl.Telemetry.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		ref := run(1)
		for _, workers := range []int{2, runtime.NumCPU()} {
			got := run(workers)
			if !reflect.DeepEqual(ref.results, got.results) {
				t.Fatalf("GOMAXPROCS=%d workers=%d: results diverge from serial", procs, workers)
			}
			for i := range ref.session {
				if !bytes.Equal(ref.session[i], got.session[i]) {
					t.Fatalf("GOMAXPROCS=%d workers=%d: session %d snapshot diverges", procs, workers, i)
				}
			}
			if !bytes.Equal(ref.merged, got.merged) {
				t.Fatalf("GOMAXPROCS=%d workers=%d: merged snapshot diverges:\n--- serial ---\n%s\n--- parallel ---\n%s",
					procs, workers, ref.merged, got.merged)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestRunFleetMatchesSerialRun pins each fleet slot to a standalone Run
// of the same config — the fleet adds scheduling, never physics.
func TestRunFleetMatchesSerialRun(t *testing.T) {
	cfgs := fleetConfigs(t, 3)
	fl, err := RunFleet(cfgs, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	solo := fleetConfigs(t, 3)
	for i := range solo {
		want, err := Run(solo[i], 0.3)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := want.Telemetry.JSON()
		b, _ := fl.Results[i].Telemetry.JSON()
		if !bytes.Equal(a, b) {
			t.Fatalf("session %d: fleet snapshot differs from standalone Run", i)
		}
		want.Telemetry, fl.Results[i].Telemetry = nil, nil
		if !reflect.DeepEqual(want, fl.Results[i]) {
			t.Fatalf("session %d: fleet result %+v differs from standalone %+v", i, fl.Results[i], want)
		}
	}
	if fl.Telemetry == nil {
		t.Fatal("merged telemetry missing despite per-session registries")
	}
}

// TestRunFleetValidation covers the error paths: empty fleet, shared
// registry or flight recorder, a duration no session can run, and a
// session config error surfacing as the fleet error.
func TestRunFleetValidation(t *testing.T) {
	if _, err := RunFleet(nil, 0.3, 1); err == nil {
		t.Fatal("empty fleet accepted")
	}
	cfgs := fleetConfigs(t, 2)
	cfgs[1].Telemetry = cfgs[0].Telemetry
	if _, err := RunFleet(cfgs, 0.3, 1); err == nil {
		t.Fatal("shared registry accepted")
	}
	// Concurrent sessions sharing one recorder would write a different
	// bundle set per run.
	rec, err := flight.New(flight.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfgs = fleetConfigs(t, 3)
	cfgs[0].Flight, cfgs[2].Flight = rec, rec
	if _, err := RunFleet(cfgs, 0.3, 2); err == nil || !strings.Contains(err.Error(), "flight recorder") {
		t.Fatalf("shared flight recorder: error %v", err)
	}
	for _, d := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := RunFleet(fleetConfigs(t, 2), d, 2); err == nil {
			t.Fatalf("duration %v accepted", d)
		}
	}
	cfgs = fleetConfigs(t, 2)
	cfgs[1].PayloadBytes = 0
	if _, err := RunFleet(cfgs, 0.3, 2); err == nil {
		t.Fatal("invalid session config accepted")
	}
}

// TestRunBroadcastWorkersInvariant: the parallel per-receiver fan-out
// must be invisible in the output — results and telemetry byte-identical
// for Workers 1, 4, and GOMAXPROCS (-1), across GOMAXPROCS settings.
func TestRunBroadcastWorkersInvariant(t *testing.T) {
	s := amppmScheme(t)
	run := func(workers int) (BroadcastResult, []byte) {
		cfg := BroadcastConfig{Config: DefaultConfig(s), Workers: workers}
		cfg.FixedLevel = 0.5
		cfg.Telemetry = telemetry.New()
		base := cfg.Geometry
		cfg.Receivers = []ReceiverPose{
			{Geometry: base},
			{Geometry: base, AmbientScale: 1.4},
			{Geometry: base, AmbientScale: 0.7},
			{Geometry: base, AmbientScale: 1.1},
		}
		res, err := RunBroadcast(cfg, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		j, err := res.Telemetry.JSON()
		if err != nil {
			t.Fatal(err)
		}
		res.Telemetry = nil
		return res, j
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		refRes, refSnap := run(1)
		for _, workers := range []int{4, -1} {
			gotRes, gotSnap := run(workers)
			if !reflect.DeepEqual(refRes, gotRes) {
				t.Fatalf("GOMAXPROCS=%d workers=%d: broadcast result diverges: %+v vs %+v",
					procs, workers, gotRes, refRes)
			}
			if !bytes.Equal(refSnap, gotSnap) {
				t.Fatalf("GOMAXPROCS=%d workers=%d: broadcast telemetry diverges", procs, workers)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
