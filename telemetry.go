package smartvlc

import (
	"io"

	"smartvlc/internal/phy"
	"smartvlc/internal/telemetry"
	"smartvlc/internal/telemetry/flight"
	"smartvlc/internal/telemetry/health"
	"smartvlc/internal/telemetry/span"
	"smartvlc/internal/telemetry/vlog"
)

// Telemetry re-exports, so applications never import internal packages.
type (
	// Telemetry is a deterministic, race-safe metrics registry: counters,
	// gauges and log-bucketed histograms with exemplars. All exemplar
	// timestamps are simulated time; two identically-seeded sessions
	// produce byte-identical snapshots.
	Telemetry = telemetry.Registry
	// TelemetrySnapshot is a canonical point-in-time export of a registry,
	// serializable as JSON or Prometheus text exposition.
	TelemetrySnapshot = telemetry.Snapshot

	// Span is one causal pipeline stage of one frame.
	Span = span.Span
	// SpanCollector accumulates causal frame spans; attach one via
	// SessionConfig.Spans or System.SetSpans. Nil is the zero-cost no-op
	// default everywhere.
	SpanCollector = span.Collector
	// SpanSnapshot is a canonical export of a collector, serializable as
	// JSON or as a Chrome trace_event file (WriteChromeTrace) that opens
	// in Perfetto.
	SpanSnapshot = span.Snapshot

	// FlightRecorder is the anomaly flight recorder: it rings recent frame
	// captures and dumps diagnostic bundles on decode failures, hunt
	// misses, symbol-error bursts and ACK timeouts.
	FlightRecorder = flight.Recorder
	// FlightConfig parameterizes NewFlightRecorder.
	FlightConfig = flight.Config
	// FlightBundle is a diagnostic bundle read back with ReadFlightBundle;
	// its Replay method pushes the captured samples through the receiver
	// again and reports the reproduced decode error class.
	FlightBundle = flight.Bundle

	// HealthConfig parameterizes a link-health monitor: time-series bucket
	// width, downsampling pyramid depth, and the SLO objectives to burn
	// against. Pass one via SessionConfig.Health.
	HealthConfig = health.Config
	// HealthMonitor aggregates link observations into sim-clock time-series
	// buckets and evaluates SLO burn rates. A nil monitor is a no-op.
	HealthMonitor = health.Monitor
	// HealthObjective is one declarative SLO (metric, target, burn-rate
	// thresholds over fast/slow windows).
	HealthObjective = health.Objective
	// HealthSnapshot is a canonical export of a monitor: multi-resolution
	// series, per-objective attainment reports and state transitions.
	HealthSnapshot = health.Snapshot
	// HealthTransition is one SLO state change (ok/warning/critical) with
	// the burn rates that caused it.
	HealthTransition = health.Transition
	// HealthObjectiveReport is an objective's spec plus its evaluation
	// outcome (final state, per-bucket attainment, worst burn).
	HealthObjectiveReport = health.ObjectiveReport
	// HealthPoint is one sealed time-series bucket: raw link counts plus
	// the rates derived from them.
	HealthPoint = health.Point
	// HealthSeries is one resolution's retained points.
	HealthSeries = health.Series
	// HealthState is an SLO state: HealthOK, HealthWarning, HealthCritical.
	HealthState = health.State

	// Logger is a deterministic structured logger: leveled records on the
	// simulation clock in a bounded ring, each carrying the correlation
	// keys (seq, span, stage, scheme, dim, shard) that join it against the
	// other telemetry pillars. Attach one via SessionConfig.Logs; nil is
	// the zero-cost no-op default.
	Logger = vlog.Logger
	// LogLevel orders record severity: LogDebug, LogInfo, LogWarn, LogError.
	LogLevel = vlog.Level
	// LogRecord is one structured log line.
	LogRecord = vlog.Record
	// LogAttr is one key/value annotation on a log record.
	LogAttr = vlog.Attr
	// LogSnapshot is a canonical export of a logger, serializable as
	// indented JSON or NDJSON (one record per line).
	LogSnapshot = vlog.Snapshot
	// LogConsole renders log records or snapshots human-readably to a
	// writer — the vlog-native replacement for the stdlib log package in
	// the examples.
	LogConsole = vlog.Console
)

// Health states, ordered by severity.
const (
	HealthOK       = health.StateOK
	HealthWarning  = health.StateWarning
	HealthCritical = health.StateCritical
)

// Log levels, ordered by severity.
const (
	LogDebug = vlog.Debug
	LogInfo  = vlog.Info
	LogWarn  = vlog.Warn
	LogError = vlog.Error
)

// NewLogger returns an empty structured logger keeping records at or
// above min, for SessionConfig.Logs.
func NewLogger(min LogLevel) *Logger { return vlog.New(min) }

// NewLogConsole returns a console renderer for log records writing to w
// (os.Stderr when nil), emitting records at or above min.
func NewLogConsole(w io.Writer, min LogLevel) *LogConsole { return vlog.NewConsole(w, min) }

// MergeLogs concatenates per-session log snapshots in argument order,
// reassigning record IDs; nil snapshots are skipped. Ring capacity is NOT
// re-applied and the session boundary is elided — recover it from the
// "sim/session" records. RunFleet applies this to its sessions already.
func MergeLogs(snaps ...*LogSnapshot) *LogSnapshot { return vlog.Merge(snaps...) }

// ParseLogNDJSON loads a log snapshot written as NDJSON
// (LogSnapshot.NDJSON), e.g. a flight bundle's logs.ndjson or the
// smartvlc-sim -log-out artifact.
func ParseLogNDJSON(r io.Reader) (*LogSnapshot, error) { return vlog.ParseNDJSON(r) }

// ParseLogLevel maps a canonical level name ("debug", "info", "warn",
// "error") to its LogLevel.
func ParseLogLevel(s string) (LogLevel, bool) { return vlog.ParseLevel(s) }

// NewSpanCollector returns an empty span collector for SessionConfig.Spans
// or System.SetSpans.
func NewSpanCollector() *SpanCollector { return span.NewCollector() }

// NewFlightRecorder arms an anomaly flight recorder writing bundles under
// cfg.Dir; pass it via SessionConfig.Flight.
func NewFlightRecorder(cfg FlightConfig) (*FlightRecorder, error) { return flight.New(cfg) }

// ReadFlightBundle loads a flight-recorder bundle directory.
func ReadFlightBundle(dir string) (*FlightBundle, error) { return flight.ReadBundle(dir) }

// NewTelemetry returns an empty registry to pass to SessionConfig.Telemetry
// or System.SetTelemetry. A nil registry everywhere is a no-op and keeps
// the hot paths allocation-free.
func NewTelemetry() *Telemetry { return telemetry.New() }

// MergeTelemetry combines per-session snapshots into one fleet-level
// aggregate: counters and histogram occupancies sum, gauges average over
// the sessions carrying them. The fold is sequential over the argument
// order, so passing snapshots in session order yields a deterministic
// result; nil snapshots are skipped. RunFleet applies this to its sessions already.
func MergeTelemetry(snaps ...*TelemetrySnapshot) *TelemetrySnapshot {
	return telemetry.Merge(snaps...)
}

// ParseTelemetrySnapshot loads a snapshot written as canonical JSON
// (TelemetrySnapshot.JSON), e.g. the smartvlc-sim -metrics-out artifact
// or its /metrics.json endpoint. Use Snapshot.WriteExemplars for the
// exemplar drill-down vlctop and vlctrace render.
func ParseTelemetrySnapshot(b []byte) (*TelemetrySnapshot, error) {
	return telemetry.ParseSnapshot(b)
}

// DefaultHealthObjectives returns the paper-derived SLO set: symbol error
// rate against the Eq. 3 design bound, frame loss, goodput against the
// tent-shaped per-dimming-level envelope rate, ACK latency p95 and
// retransmission rate.
func DefaultHealthObjectives() []HealthObjective { return health.DefaultObjectives() }

// MergeHealth combines per-link health snapshots into one aggregate: raw
// counts sum per time bucket, rates are recomputed from the merged counts
// (never averaged averages), goodput normalizes per link, and the SLOs are
// re-evaluated over the merged series. The fold is deterministic in
// argument order; nil snapshots are skipped. RunBroadcast and RunFleet
// apply this to their receivers and sessions already.
func MergeHealth(snaps ...*HealthSnapshot) *HealthSnapshot { return health.Merge(snaps...) }

// ReadHealthSnapshot loads a health snapshot written as canonical JSON
// (Snapshot.JSON), e.g. the smartvlc-sim -health-out artifact.
func ReadHealthSnapshot(r io.Reader) (*HealthSnapshot, error) { return health.ReadSnapshot(r) }

// GlobalTelemetry returns the process-wide registry holding cache
// hit/miss counters for the memoized planners and samplers. Its contents
// depend on process warm-up order, so it is deliberately kept out of
// per-session snapshots.
func GlobalTelemetry() *Telemetry { return telemetry.Global() }

// SetTelemetry attaches a registry to the System's one-shot physical path
// (Deliver/DeliverStats). Call it before sharing the System across
// goroutines; the registry itself is race-safe, the attachment is not.
func (s *System) SetTelemetry(r *Telemetry) {
	s.reg = r
	s.txm = phy.NewTxMetrics(r)
	s.rxm = phy.NewRxMetrics(r)
}

// Telemetry returns the registry attached with SetTelemetry (nil by
// default).
func (s *System) Telemetry() *Telemetry { return s.reg }

// SetSpans attaches a span collector to the System's one-shot physical
// path: each DeliverStats call records a "deliver" root span with the
// receiver's hunt/decode children, timed from the start of the delivered
// waveform. Like SetTelemetry, attach before sharing the System across
// goroutines; the collector itself is race-safe.
func (s *System) SetSpans(c *SpanCollector) { s.spans = c }

// DeliverReport is the full outcome of one Deliver call: every cleanly
// decoded payload plus the receiver statistics Deliver alone discards.
type DeliverReport struct {
	// Payloads holds the payload of each frame that decoded cleanly, in
	// arrival order.
	Payloads [][]byte
	// FramesOK counts frames that passed all checks.
	FramesOK int
	// FramesBad counts preamble hits that failed header, sync, length or
	// CRC validation.
	FramesBad int
	// SymbolErrors sums constituent symbol anomalies across good frames.
	SymbolErrors int
	// Errors tallies parse failures by error text (nil when none).
	Errors map[string]int
	// Threshold is the receiver's photon-count decision threshold for
	// this channel.
	Threshold int
}
