//! Streaming telemetry for the serve executor: windowed metrics, SLO
//! evaluation, the span flight recorder, and incremental Perfetto
//! export — the `serve --watch` machinery.
//!
//! The executor drives a [`Telemetry`] instance from its dispatch loop:
//! each finished request lands counters and a flow-time observation in
//! the open [`WindowedMetrics`] window, freshly recorded spans are fed
//! to the [`FlightRecorder`] ring and appended to the incremental
//! Perfetto stream, and window rotation (driven by the *device clock*,
//! never wall time) closes windows into [`WatchWindow`] lines and
//! evaluates the SLO engine. SLO evaluation is edge-triggered and also
//! runs intra-window, so a hard breach dumps the flight recorder while
//! the offending request's spans are still in the ring.
//!
//! Memory is O(window + ring + #closed windows): the open window holds a
//! handful of counters and one bounded histogram, the ring holds at most
//! its capacity in spans, and the streamed Perfetto file lives on disk,
//! not in memory. Telemetry only *reads* device clocks, so telemetry-on
//! and telemetry-off runs stay bit-identical in virtual time.

use cocopelia_gpusim::SimTime;
use cocopelia_obs::perfetto::StreamWriter;
use cocopelia_obs::slo::names;
use cocopelia_obs::{
    FlightDump, FlightRecorder, Registry, SloBreach, SloEngine, SloSpec, SloStatus, Span,
    WindowSnapshot, WindowedMetrics,
};
use std::fmt;
use std::fmt::Write as _;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

use super::{RequestOutcome, RequestStatus};

/// Flow-time histogram bounds (seconds) for per-window percentiles.
pub const FLOW_SECS_BOUNDS: [f64; 14] = [
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5,
];

/// Ceiling on stored flight-recorder dumps (each is O(ring) spans).
const MAX_DUMPS: usize = 32;

/// Configuration of the executor's streaming telemetry hook.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Window length on the virtual-time axis.
    pub window: SimTime,
    /// Objectives evaluated per window (empty = no SLO engine output).
    pub slos: Vec<SloSpec>,
    /// Flight-recorder ring capacity, in spans.
    pub recorder_cap: usize,
    /// Span-log capacity cap applied to the tracer while telemetry is
    /// on (`None` = unbounded, the pre-watch behaviour).
    pub trace_cap: Option<usize>,
    /// Stream Perfetto packets incrementally to this file.
    pub stream_path: Option<PathBuf>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            window: SimTime::from_secs_f64(5e-3),
            slos: Vec::new(),
            recorder_cap: 2048,
            trace_cap: Some(8192),
            stream_path: None,
        }
    }
}

/// One closed telemetry window, rendered as a `serve --watch` line.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchWindow {
    /// Zero-based window index.
    pub index: u64,
    /// Window start (virtual time since drain start).
    pub start: SimTime,
    /// Window end (exclusive; truncated for the final partial window).
    pub end: SimTime,
    /// Queue depth when the window closed.
    pub queue_depth: usize,
    /// Requests that reached a terminal state in the window.
    pub finished: u64,
    /// …of which completed within deadline.
    pub completed: u64,
    /// …of which finished past their deadline.
    pub deadline_missed: u64,
    /// …of which failed terminally.
    pub failed: u64,
    /// Requests shed by admission control or backpressure in the window
    /// (not counted in `finished`; they never ran).
    pub rejected: u64,
    /// Requests that coalesced onto an identical queued request and
    /// completed with it in the window.
    pub coalesced: u64,
    /// p95 flow time of the window's finished requests, seconds.
    pub flow_p95_secs: Option<f64>,
    /// Residency-cache hit rate in the window, when it saw lookups.
    pub residency_hit_rate: Option<f64>,
    /// Device faults observed in the window.
    pub faults: u64,
    /// Quarantined devices when the window closed.
    pub quarantined: usize,
    /// Mean absolute relative error of the drain's offload predictions so
    /// far, as a fraction (`0.05` = predictions off by 5% on average).
    pub mean_abs_drift: f64,
    /// Hedge attempts launched in the window.
    pub hedges: u64,
    /// …of which beat their primary attempt.
    pub hedge_wins: u64,
    /// Probation canary probes run in the window.
    pub probes: u64,
    /// Retries refused fast (budget exhausted or breaker open).
    pub fastfails: u64,
    /// Cross-request operand prefetches issued in the window.
    pub prefetches: u64,
    /// …of which were claimed by their target request at dispatch.
    pub prefetch_hits: u64,
    /// Per-objective verdicts (empty when no SLOs are configured).
    pub slo: Vec<SloStatus>,
}

impl WatchWindow {
    /// The deterministic one-line rendering `serve --watch` prints.
    pub fn render(&self) -> String {
        let ms = |t: SimTime| t.as_secs_f64() * 1e3;
        let p95 = match self.flow_p95_secs {
            Some(v) => format!("{:.3}ms", v * 1e3),
            None => "-".to_owned(),
        };
        let hit = match self.residency_hit_rate {
            Some(v) => format!("{:.0}%", v * 100.0),
            None => "-".to_owned(),
        };
        let slo = if self.slo.is_empty() {
            "-".to_owned()
        } else if self.slo.iter().all(|s| s.ok) {
            "ok".to_owned()
        } else {
            let breached: Vec<String> = self
                .slo
                .iter()
                .filter(|s| !s.ok)
                .map(|s| match s.observed {
                    // A latched breach with no observations this window
                    // stays BREACH but has no number to compare.
                    Some(v) if v.is_finite() => {
                        format!("{} {:.4}>{}", s.spec.kind.name(), v, s.spec.limit)
                    }
                    _ => s.spec.kind.name().to_owned(),
                })
                .collect();
            format!("BREACH({})", breached.join(","))
        };
        // The straggler-defense columns appear only when the window saw
        // such activity, so runs with hedging/probation/budgets disarmed
        // render byte-identically to earlier versions.
        let mut defense = String::new();
        if self.hedges > 0 || self.hedge_wins > 0 {
            let _ = write!(defense, " hedge={}/{}", self.hedges, self.hedge_wins);
        }
        if self.probes > 0 {
            let _ = write!(defense, " probe={}", self.probes);
        }
        if self.fastfails > 0 {
            let _ = write!(defense, " ff={}", self.fastfails);
        }
        // The prefetch hit-rate column follows the same only-when-active
        // rule: `pf=hits/issued` is the window's prefetch hit rate.
        if self.prefetches > 0 || self.prefetch_hits > 0 {
            let _ = write!(defense, " pf={}/{}", self.prefetch_hits, self.prefetches);
        }
        format!(
            "[w{:03} {:9.3}-{:9.3}ms] q={} done={} miss={} fail={} rej={} coal={} p95={} hit={} faults={} quar={} drift={:.2}%{} slo={}",
            self.index,
            ms(self.start),
            ms(self.end),
            self.queue_depth,
            self.completed,
            self.deadline_missed,
            self.failed,
            self.rejected,
            self.coalesced,
            p95,
            hit,
            self.faults,
            self.quarantined,
            self.mean_abs_drift * 100.0,
            defense,
            slo,
        )
    }
}

/// End-of-run summary of what the telemetry layer saw and kept.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Window length used.
    pub window: SimTime,
    /// Every closed window, in order (the `--watch` lines).
    pub windows: Vec<WatchWindow>,
    /// Every ok→breached SLO transition, in firing order.
    pub breaches: Vec<SloBreach>,
    /// Flight-recorder dumps captured at breach/quarantine instants.
    pub dumps: Vec<FlightDump>,
    /// Spans left in the ring at end of run (≤ `recorder_cap`).
    pub recorder_len: usize,
    /// The ring's configured capacity.
    pub recorder_cap: usize,
    /// Spans the ring evicted over the run.
    pub recorder_dropped: u64,
    /// Perfetto packets streamed to disk (0 when streaming was off).
    pub stream_packets: u64,
    /// Bytes streamed to disk.
    pub stream_bytes: u64,
    /// First streaming I/O error, if any (streaming then stopped; the
    /// run itself is never failed by telemetry I/O).
    pub stream_error: Option<String>,
}

impl TelemetryReport {
    /// Compact multi-line summary appended to the serve report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "telemetry: {} windows of {:.3} ms, ring {}/{} spans ({} evicted), {} breach(es), {} dump(s)\n",
            self.windows.len(),
            self.window.as_secs_f64() * 1e3,
            self.recorder_len,
            self.recorder_cap,
            self.recorder_dropped,
            self.breaches.len(),
            self.dumps.len(),
        ));
        if self.stream_packets > 0 {
            out.push_str(&format!(
                "  stream: {} packets, {} bytes\n",
                self.stream_packets, self.stream_bytes
            ));
        }
        if let Some(err) = &self.stream_error {
            out.push_str(&format!("  stream error: {err}\n"));
        }
        for b in &self.breaches {
            out.push_str(&format!("  {b}\n"));
        }
        for d in &self.dumps {
            out.push_str(&format!(
                "  dump @ {:.3} ms: {} ({} spans, {} evicted before)\n",
                d.at_ns as f64 / 1e6,
                d.reason,
                d.spans.len(),
                d.dropped_before,
            ));
        }
        out
    }
}

/// Session-side snapshot of the loop state a telemetry tick needs.
pub(crate) struct TickState<'a> {
    /// Max device-clock advance since drain start, nanoseconds (the
    /// virtual "now" that rotates windows).
    pub elapsed_ns: u64,
    /// Requests still queued.
    pub queue_depth: usize,
    /// Quarantined device count.
    pub quarantined: usize,
    /// Mean absolute relative prediction error so far, as a fraction.
    pub mean_abs_drift: f64,
    /// The run-lifetime registry (read-only; per-window deltas are
    /// derived against an internal baseline).
    pub metrics: &'a Registry,
}

/// Callback receiving each closed window as it closes.
pub(crate) type WatchSink = Box<dyn FnMut(&WatchWindow)>;

/// The executor's streaming telemetry state.
pub(crate) struct Telemetry {
    cfg: TelemetryConfig,
    win: WindowedMetrics,
    slo: SloEngine,
    recorder: FlightRecorder,
    stream: Option<StreamWriter<BufWriter<File>>>,
    stream_error: Option<String>,
    sink: Option<WatchSink>,
    windows: Vec<WatchWindow>,
    breaches: Vec<SloBreach>,
    dumps: Vec<FlightDump>,
    /// Span-id watermark into the tracer's log.
    span_mark: u64,
    /// Per-device engine-trace watermark for lane streaming.
    lane_mark: Vec<usize>,
    /// Registry-counter baseline for per-window deltas, indexed like
    /// [`DELTA_COUNTERS`].
    base: [u64; DELTA_COUNTERS.len()],
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("cfg", &self.cfg)
            .field("windows", &self.windows.len())
            .field("breaches", &self.breaches.len())
            .field("dumps", &self.dumps.len())
            .field("recorder_len", &self.recorder.len())
            .field("streaming", &self.stream.is_some())
            .finish()
    }
}

impl Telemetry {
    /// Creates telemetry state, opening the stream file if configured.
    pub(crate) fn new(cfg: TelemetryConfig) -> std::io::Result<Self> {
        let stream = match &cfg.stream_path {
            Some(path) => Some(StreamWriter::new(BufWriter::new(File::create(path)?))),
            None => None,
        };
        Ok(Telemetry {
            win: WindowedMetrics::new(cfg.window.as_nanos().max(1)),
            slo: SloEngine::new(cfg.slos.clone()),
            recorder: FlightRecorder::new(cfg.recorder_cap),
            stream,
            stream_error: None,
            sink: None,
            windows: Vec::new(),
            breaches: Vec::new(),
            dumps: Vec::new(),
            span_mark: 0,
            lane_mark: Vec::new(),
            base: [0; DELTA_COUNTERS.len()],
            cfg,
        })
    }

    pub(crate) fn set_sink(&mut self, sink: WatchSink) {
        self.sink = Some(sink);
    }

    /// Resets per-run state at drain start. `lane_marks` are the current
    /// per-device trace lengths (entries before the drain are not ours).
    pub(crate) fn begin(&mut self, lane_marks: Vec<usize>, metrics: &Registry) {
        self.win = WindowedMetrics::new(self.cfg.window.as_nanos().max(1));
        self.slo = SloEngine::new(self.cfg.slos.clone());
        self.recorder = FlightRecorder::new(self.cfg.recorder_cap);
        self.windows.clear();
        self.breaches.clear();
        self.dumps.clear();
        self.span_mark = 0;
        self.lane_mark = lane_marks;
        // Baseline every delta-tracked counter so pre-run counts (e.g.
        // from an earlier drain on the same executor) don't leak in.
        self.base = DELTA_COUNTERS.map(|name| metrics.counter(name));
    }

    /// Feeds spans recorded since the last call into the ring and the
    /// Perfetto stream; returns the new watermark.
    pub(crate) fn drain_spans(&mut self, spans: &[Span], next_id: u64) {
        if !spans.is_empty() {
            if self.stream.is_some() {
                self.stream_op(|w| w.write_spans(spans));
            }
            for s in spans {
                self.recorder.record(s.clone());
            }
        }
        self.span_mark = next_id;
    }

    /// The span-id watermark (spans with ids ≥ this are unseen).
    pub(crate) fn span_mark(&self) -> u64 {
        self.span_mark
    }

    /// Per-device engine-trace watermark.
    pub(crate) fn lane_mark(&self, d: usize) -> usize {
        self.lane_mark.get(d).copied().unwrap_or(0)
    }

    /// Streams freshly produced engine entries of device `d` (lane name
    /// `dev{d}`, formatted only when a stream is open).
    pub(crate) fn stream_lane(
        &mut self,
        d: usize,
        entries: &[cocopelia_gpusim::TraceEntry],
        new_len: usize,
    ) {
        if self.lane_mark.len() <= d {
            self.lane_mark.resize(d + 1, 0);
        }
        self.lane_mark[d] = new_len;
        if !entries.is_empty() && self.stream.is_some() {
            let name = format!("dev{d}");
            self.stream_op(|w| w.write_entries(d, &name, entries));
        }
    }

    /// Records one finished request into the open window. A rejected
    /// request never ran, so it counts only toward the window's
    /// `rejected` (feeding the `rejected` SLO kind), not `finished`.
    pub(crate) fn on_outcome(&mut self, outcome: &RequestOutcome, flow_secs: f64) {
        let (completed, missed, failed) = match &outcome.status {
            RequestStatus::Completed(_) => (1, 0, 0),
            RequestStatus::TimedOut { .. } => (0, 1, 0),
            RequestStatus::Failed(_) => (0, 0, 1),
            RequestStatus::Rejected { .. } => {
                self.win.counter_add(names::REJECTED, 1);
                return;
            }
        };
        if outcome.coalesced {
            self.win.counter_add(names::COALESCED, 1);
        }
        self.win.counter_add(names::FINISHED, 1);
        self.win.counter_add(names::COMPLETED, completed);
        self.win.counter_add(names::DEADLINE_MISSED, missed);
        self.win.counter_add(names::FAILED, failed);
        self.win
            .counter_add(names::ATTEMPTS, u64::from(outcome.retries) + 1);
        if flow_secs.is_finite() {
            self.win
                .histogram_observe(names::FLOW_SECS, &FLOW_SECS_BOUNDS, flow_secs);
        }
    }

    /// A device was quarantined: dump the ring (the incident's spans are
    /// already in it) and flush the stream so the trace survives even a
    /// quarantine-to-empty-pool drain or terminal DeviceLost.
    pub(crate) fn on_quarantine(&mut self, device: usize, request: u64, at_ns: u64) {
        let reason = format!("quarantine dev{device} (request {request})");
        self.capture_dump(reason, at_ns);
        self.flush_stream();
    }

    /// Flushes the Perfetto stream (checkpoint on error paths and at
    /// window boundaries).
    pub(crate) fn flush_stream(&mut self) {
        if self.stream.is_some() {
            self.stream_op(|w| w.flush());
        }
    }

    /// Window rotation + SLO evaluation; call once per dispatch with the
    /// current loop state. Closes every window the device clock has
    /// passed, emits their `WatchWindow`s (sink + report), fires
    /// edge-triggered breach dumps, and then fast-path-evaluates the
    /// open window so a hard breach dumps immediately.
    pub(crate) fn tick(&mut self, st: &TickState<'_>) {
        self.inject(st);
        let closed = self.win.advance_to(st.elapsed_ns);
        let rotated = !closed.is_empty();
        for snap in closed {
            self.close_window(snap);
        }
        if rotated {
            self.flush_stream();
        }
        // Intra-window fast path: a breach observable mid-window fires
        // now, while the breaching request's spans are still ringed. With
        // no objectives there is nothing to evaluate, so the open window
        // is not snapshotted.
        if self.slo.specs().is_empty() {
            return;
        }
        let peek = self.win.peek(st.elapsed_ns);
        let partial = self.slo.evaluate_partial(&peek);
        for b in partial {
            self.capture_dump(format!("{b}"), b.at_ns);
            self.breaches.push(b);
        }
    }

    /// Final rotation at drain end: closes the partial window (if it has
    /// any content or time), evaluates it, flushes the stream, and
    /// returns the end-of-run summary.
    pub(crate) fn finish(&mut self, st: &TickState<'_>) -> TelemetryReport {
        self.inject(st);
        for snap in self.win.advance_to(st.elapsed_ns) {
            self.close_window(snap);
        }
        if st.elapsed_ns > self.win.open_start_ns() {
            let snap = self.win.close_now(st.elapsed_ns);
            self.close_window(snap);
        }
        self.flush_stream();
        TelemetryReport {
            window: self.cfg.window,
            windows: std::mem::take(&mut self.windows),
            breaches: std::mem::take(&mut self.breaches),
            dumps: std::mem::take(&mut self.dumps),
            recorder_len: self.recorder.len(),
            recorder_cap: self.recorder.capacity(),
            recorder_dropped: self.recorder.dropped(),
            stream_packets: self.stream.as_ref().map(|w| w.packets()).unwrap_or(0),
            stream_bytes: self.stream.as_ref().map(|w| w.bytes_written()).unwrap_or(0),
            stream_error: self.stream_error.clone(),
        }
    }

    // ---- internals ----

    /// Samples gauges and registry-counter deltas into the open window.
    fn inject(&mut self, st: &TickState<'_>) {
        self.win
            .gauge_set(names::QUEUE_DEPTH, st.queue_depth as f64);
        self.win
            .gauge_set(names::QUARANTINED, st.quarantined as f64);
        self.win.gauge_set(names::DRIFT, st.mean_abs_drift);
        let [transient, degraded, fatal, hits, misses, hedges, hedge_wins, probes, fastfails, prefetches, prefetch_hits] =
            self.deltas(st.metrics);
        self.win
            .counter_add(names::FAULTS, transient + degraded + fatal);
        self.win.counter_add(names::RESIDENCY_HITS, hits);
        self.win.counter_add(names::RESIDENCY_MISSES, misses);
        self.win.counter_add(names::HEDGES, hedges);
        self.win.counter_add(names::HEDGE_WINS, hedge_wins);
        self.win.counter_add(names::PROBES, probes);
        self.win.counter_add(names::BUDGET_FASTFAILS, fastfails);
        self.win.counter_add(names::PREFETCHES, prefetches);
        self.win.counter_add(names::PREFETCH_HITS, prefetch_hits);
    }

    /// Growth of every [`DELTA_COUNTERS`] counter since the previous
    /// call (or [`begin`](Self::begin)), advancing the baseline.
    fn deltas(&mut self, metrics: &Registry) -> [u64; DELTA_COUNTERS.len()] {
        let mut out = [0; DELTA_COUNTERS.len()];
        for ((name, base), d) in DELTA_COUNTERS.iter().zip(&mut self.base).zip(&mut out) {
            let cur = metrics.counter(name);
            *d = cur.saturating_sub(*base);
            *base = cur;
        }
        out
    }

    fn close_window(&mut self, snap: WindowSnapshot) {
        let (statuses, breaches) = self.slo.evaluate(&snap);
        let ww = watch_window(&snap, statuses);
        if let Some(sink) = self.sink.as_mut() {
            sink(&ww);
        }
        self.windows.push(ww);
        for b in breaches {
            self.capture_dump(format!("{b}"), b.at_ns);
            self.breaches.push(b);
        }
    }

    fn capture_dump(&mut self, reason: String, at_ns: u64) {
        if self.dumps.len() >= MAX_DUMPS {
            return;
        }
        self.dumps
            .push(self.recorder.dump(reason, self.win.index(), at_ns));
        self.flush_stream();
    }

    fn stream_op(
        &mut self,
        op: impl FnOnce(&mut StreamWriter<BufWriter<File>>) -> std::io::Result<()>,
    ) {
        if let Some(w) = self.stream.as_mut() {
            if let Err(e) = op(w) {
                // First error wins; streaming stops, the run continues.
                self.stream_error.get_or_insert_with(|| e.to_string());
                self.stream = None;
            }
        }
    }
}

/// Registry counters whose per-window deltas telemetry tracks, in the
/// order [`Telemetry::deltas`] returns them.
const DELTA_COUNTERS: [&str; 11] = [
    "fault_transient_total",
    "fault_degraded_total",
    "fault_fatal_total",
    "residency_hits_total",
    "residency_misses_total",
    "hedge_attempts_total",
    "hedge_wins_total",
    "probe_attempts_total",
    "budget_fastfail_total",
    "prefetch_issued_total",
    "prefetch_hits_total",
];

fn watch_window(s: &WindowSnapshot, slo: Vec<SloStatus>) -> WatchWindow {
    let hits = s.counter(names::RESIDENCY_HITS);
    let misses = s.counter(names::RESIDENCY_MISSES);
    WatchWindow {
        index: s.index,
        start: SimTime::from_nanos(s.start_ns),
        end: SimTime::from_nanos(s.end_ns),
        queue_depth: s.gauge(names::QUEUE_DEPTH).unwrap_or(0.0) as usize,
        finished: s.counter(names::FINISHED),
        completed: s.counter(names::COMPLETED),
        deadline_missed: s.counter(names::DEADLINE_MISSED),
        failed: s.counter(names::FAILED),
        rejected: s.counter(names::REJECTED),
        coalesced: s.counter(names::COALESCED),
        flow_p95_secs: s
            .digest(names::FLOW_SECS)
            .filter(|d| d.count > 0)
            .map(|d| d.p95),
        residency_hit_rate: (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64),
        faults: s.counter(names::FAULTS),
        quarantined: s.gauge(names::QUARANTINED).unwrap_or(0.0) as usize,
        mean_abs_drift: s.gauge(names::DRIFT).unwrap_or(0.0),
        hedges: s.counter(names::HEDGES),
        hedge_wins: s.counter(names::HEDGE_WINS),
        probes: s.counter(names::PROBES),
        fastfails: s.counter(names::BUDGET_FASTFAILS),
        prefetches: s.counter(names::PREFETCHES),
        prefetch_hits: s.counter(names::PREFETCH_HITS),
        slo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watch_window_render_is_stable() {
        let ww = WatchWindow {
            index: 3,
            start: SimTime::from_nanos(15_000_000),
            end: SimTime::from_nanos(20_000_000),
            queue_depth: 4,
            finished: 10,
            completed: 9,
            deadline_missed: 1,
            failed: 0,
            rejected: 2,
            coalesced: 1,
            flow_p95_secs: Some(0.00231),
            residency_hit_rate: Some(0.875),
            faults: 2,
            quarantined: 0,
            mean_abs_drift: 0.0041,
            hedges: 0,
            hedge_wins: 0,
            probes: 0,
            fastfails: 0,
            prefetches: 0,
            prefetch_hits: 0,
            slo: Vec::new(),
        };
        assert_eq!(
            ww.render(),
            "[w003    15.000-   20.000ms] q=4 done=9 miss=1 fail=0 rej=2 coal=1 p95=2.310ms hit=88% faults=2 quar=0 drift=0.41% slo=-"
        );
        let empty = WatchWindow {
            flow_p95_secs: None,
            residency_hit_rate: None,
            ..ww.clone()
        };
        assert!(empty.render().contains("p95=- hit=-"));
        // Straggler-defense columns appear only when the window saw that
        // activity — and then between drift and slo.
        let busy = WatchWindow {
            hedges: 3,
            hedge_wins: 1,
            probes: 2,
            fastfails: 4,
            ..ww
        };
        assert!(
            busy.render()
                .contains("drift=0.41% hedge=3/1 probe=2 ff=4 slo=-"),
            "{}",
            busy.render()
        );
        // The prefetch hit-rate column rides with the defense columns,
        // after fast-fails.
        let prefetching = WatchWindow {
            prefetches: 5,
            prefetch_hits: 4,
            ..busy
        };
        assert!(
            prefetching
                .render()
                .contains("hedge=3/1 probe=2 ff=4 pf=4/5 slo=-"),
            "{}",
            prefetching.render()
        );
    }

    #[test]
    fn telemetry_without_stream_needs_no_fs() {
        let mut t = Telemetry::new(TelemetryConfig::default()).expect("no file needed");
        let reg = Registry::default();
        t.begin(vec![0, 0], &reg);
        let st = TickState {
            elapsed_ns: 12_000_000,
            queue_depth: 0,
            quarantined: 0,
            mean_abs_drift: 0.0,
            metrics: &reg,
        };
        t.tick(&st);
        let report = t.finish(&st);
        // 5 ms windows over 12 ms: two full + one partial.
        assert_eq!(report.windows.len(), 3);
        assert_eq!(report.windows[2].end, SimTime::from_nanos(12_000_000));
        assert!(report.breaches.is_empty());
        assert_eq!(report.stream_packets, 0);
        assert!(report.stream_error.is_none());
    }
}
