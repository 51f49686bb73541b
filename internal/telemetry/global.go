package telemetry

// The global registry holds process-wide metrics whose values depend on
// warm-up state shared across sessions — the planning, threshold, codec
// and sampler caches. Those counts are real and useful (the HTTP endpoint
// and cache-efficiency tests read them) but NOT deterministic per session:
// a second identically seeded run finds the caches already warm. Session
// registries (sim.Config.Telemetry) therefore never include them, which is
// what keeps session snapshots byte-identical across runs.
var global = New()

// Global returns the process-wide registry. It always exists, so
// package-level cache instrumentation can register counters at init time;
// the per-increment cost is one atomic add.
func Global() *Registry { return global }
