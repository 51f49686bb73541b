package amppm

import "smartvlc/internal/telemetry"

// Planning-cache efficiency counters live on the process-global telemetry
// registry: both caches (the per-Constraints table cache and each table's
// Select cache) outlive individual sessions, so their hit rates are
// process properties and never enter deterministic session snapshots.
var (
	tableCacheHits    = telemetry.Global().Counter("amppm_table_cache_total", "result", "hit")
	tableCacheMisses  = telemetry.Global().Counter("amppm_table_cache_total", "result", "miss")
	selectCacheHits   = telemetry.Global().Counter("amppm_select_cache_total", "result", "hit")
	selectCacheMisses = telemetry.Global().Counter("amppm_select_cache_total", "result", "miss")
	// tableBuildMicros observes the wall-clock cost of each uncached
	// planning run in microseconds. Wall time is fine here: the global
	// registry is a process property, not part of any deterministic
	// session snapshot.
	tableBuildMicros = telemetry.Global().Histogram("amppm_table_build_micros")
)
