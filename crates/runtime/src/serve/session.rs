//! The serving session: construction-time configuration
//! ([`ServeOptions`], [`ExecutorConfig`]), the request lifecycle
//! ([`ServeSession`]), and the drain event loop with its telemetry hooks.
//! Admission, dispatch, straggler defense, and prefetch live in sibling
//! modules, each owning its own state.

use crate::error::RequestId;
use crate::multigpu::MultiGpu;
use crate::request::RoutineRequest;
use cocopelia_gpusim::SimTime;
use cocopelia_obs::{DeviceLane, DriftAccountant, DriftRecord, Registry};

use super::admission::Admission;
use super::defense::Defense;
use super::drift_stats::DriftStats;
use super::prefetch::Prefetcher;
use super::queue::{PredictionTable, Queued, SessionQueue};
use super::residency::ResidencyCache;
use super::telemetry::{Telemetry, TickState, WatchSink};
use super::trace::ServeTracer;
use super::{
    HedgeConfig, ProbationConfig, RequestOutcome, RequestStatus, RetryBudgetConfig, SchedulePolicy,
    ServeReport, TelemetryConfig, TelemetryReport, WatchWindow,
};

/// Bucket bounds of the `serve_queue_depth` histogram.
pub(super) const QUEUE_DEPTH_BOUNDS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Tuning knobs of the serving layer: residency budget, admission
/// ceiling, retries, quarantine, and the host-fallback rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorConfig {
    /// Fraction of each device's memory reserved for the cross-request
    /// residency cache.
    pub residency_frac: f64,
    /// Admission ceiling: a request whose worst-case footprint exceeds
    /// this fraction of device memory is rejected at submission.
    pub admission_frac: f64,
    /// Retry requests after transient device failures (out-of-memory,
    /// injected faults), reclaiming the device in between. When false,
    /// [`max_retries`](ExecutorConfig::max_retries) is ignored and every
    /// fault is terminal for its request.
    pub retry_transient: bool,
    /// Request-level retry budget: how many times one request may be
    /// re-attempted (on the same device after reclaim, or re-dispatched to
    /// a healthy device after a quarantine) before it fails.
    pub max_retries: u32,
    /// Consecutive faults on one device before the session quarantines
    /// it: the device stops receiving work and its residency cache is
    /// invalidated.
    pub quarantine_after: u32,
    /// Host-BLAS throughput (GFLOP/s) assumed for graceful degradation:
    /// when every device in the pool is quarantined, requests complete on
    /// the host at this rate instead of failing.
    pub host_gflops: f64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            residency_frac: 0.5,
            admission_frac: 0.9,
            retry_transient: true,
            max_retries: 3,
            quarantine_after: 2,
            host_gflops: 50.0,
        }
    }
}

/// Construction-time configuration of a [`ServeSession`]: scheduling
/// policy, observability arms, the open-arrival knobs, prefetch, and the
/// straggler defenses. A builder consumed once, so a session's behaviour
/// is fixed for its whole lifetime.
///
/// ```
/// use cocopelia_runtime::serve::{SchedulePolicy, ServeOptions};
///
/// let opts = ServeOptions::new()
///     .policy(SchedulePolicy::Predictive)
///     .tracing()
///     .queue_cap(32)
///     .coalesce();
/// ```
#[derive(Default)]
pub struct ServeOptions {
    policy: SchedulePolicy,
    tracing: bool,
    telemetry: Option<TelemetryConfig>,
    watch_sink: Option<WatchSink>,
    queue_cap: Option<usize>,
    shed_flow_secs: Option<f64>,
    coalesce: bool,
    prefetch: bool,
    hedge: Option<HedgeConfig>,
    probation: Option<ProbationConfig>,
    retry_budget: Option<RetryBudgetConfig>,
}

impl std::fmt::Debug for ServeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeOptions")
            .field("policy", &self.policy)
            .field("tracing", &self.tracing)
            .field("telemetry", &self.telemetry)
            .field(
                "watch_sink",
                &self.watch_sink.as_ref().map(|_| "FnMut(&WatchWindow)"),
            )
            .field("queue_cap", &self.queue_cap)
            .field("shed_flow_secs", &self.shed_flow_secs)
            .field("coalesce", &self.coalesce)
            .field("prefetch", &self.prefetch)
            .field("hedge", &self.hedge)
            .field("probation", &self.probation)
            .field("retry_budget", &self.retry_budget)
            .finish()
    }
}

impl ServeOptions {
    /// Defaults: FIFO policy, no tracing, no telemetry, an unbounded
    /// queue, no shed watermark, no coalescing, no prefetch, and no
    /// straggler defense — exactly [`ServeSession::new`].
    pub fn new() -> Self {
        ServeOptions::default()
    }

    /// Queue-scheduling policy (default [`SchedulePolicy::Fifo`]).
    pub fn policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Arms request-lifecycle tracing: drains collect a
    /// [`cocopelia_obs::ServeTrace`] (spans plus per-device engine lanes)
    /// into [`ServeReport::trace`]. Tracing changes no scheduling
    /// decision — traced and untraced drains of the same trace are
    /// identical.
    pub fn tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Arms streaming telemetry (windowed metrics, SLOs, flight recorder,
    /// optional Perfetto stream). Implies tracing, with the span log
    /// capped at [`TelemetryConfig::trace_cap`]. Telemetry only *reads*
    /// device clocks, so telemetered and plain drains stay bit-identical.
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }

    /// Live-watch sink, called once per closed telemetry window. Only
    /// meaningful together with [`telemetry`](Self::telemetry).
    pub fn watch_sink(mut self, sink: impl FnMut(&WatchWindow) + 'static) -> Self {
        self.watch_sink = Some(Box::new(sink));
        self
    }

    /// Backpressure: an open arrival finding the dispatch queue at this
    /// depth is shed as [`RequestStatus::Rejected`]. Bounds queue memory
    /// — [`ServeReport::peak_queue_depth`] never exceeds the cap.
    /// Closed-queue `submit` calls are not capped (the caller owns that
    /// queue; backpressure governs *arrivals*).
    ///
    /// [`RequestStatus::Rejected`]: crate::serve::RequestStatus::Rejected
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = Some(cap);
        self
    }

    /// Load-shed watermark: an open arrival whose predicted flow time —
    /// the queued service backlog spread over healthy devices plus the
    /// request's own service estimate — exceeds `secs` is shed instead of
    /// queued, keeping latency bounded under sustained overload.
    pub fn shed_flow_secs(mut self, secs: f64) -> Self {
        self.shed_flow_secs = Some(secs);
        self
    }

    /// Arms request coalescing: an open arrival whose shape is identical
    /// to a *queued* request (same routine, tile choice, scalars, and
    /// shared/ghost operands position by position) rides on that
    /// request's single execution instead of uploading and running again.
    pub fn coalesce(mut self) -> Self {
        self.coalesce = true;
        self
    }

    /// Arms prediction-guided cross-request prefetch: while a request
    /// runs on a device, the next scheduled request's missing shared
    /// operands may be pre-uploaded on that device's idle h2d engine —
    /// but only when the overlap predictor says the upload hides inside
    /// the running attempt's predicted h2d idle time and the bytes fit
    /// the residency cache's free budget without evicting anything.
    /// Prefetched operands stay pinned until their target claims them at
    /// dispatch; an unclaimed prefetch (target rejected, coalesced, or
    /// hedged to another device) is released with accounting.
    pub fn prefetch(mut self) -> Self {
        self.prefetch = true;
        self
    }

    /// Arms hedged re-dispatch: a device attempt whose virtual elapsed
    /// overruns its offload prediction by the adaptive threshold (see
    /// [`HedgeConfig`]) is speculatively re-run on the best other healthy
    /// device; the first completion wins and the loser is cancelled with
    /// its work rolled back. Requires a deployed profile (no prediction,
    /// no overrun). A non-positive multiplier disarms.
    pub fn hedge(mut self, cfg: HedgeConfig) -> Self {
        self.hedge = Some(cfg);
        self
    }

    /// Arms quarantine probation: a quarantined device is periodically
    /// probed with a tiny canary GEMM after a seeded exponential backoff;
    /// [`ProbationConfig::successes`] consecutive clean probes re-admit it
    /// (cold residency cache), and [`ProbationConfig::max_rounds`] failed
    /// rounds give it up for the rest of the session.
    pub fn probation(mut self, cfg: ProbationConfig) -> Self {
        self.probation = Some(cfg);
        self
    }

    /// Arms the per-session retry budget and circuit breaker: each
    /// session-level retry spends one token from a bucket refilled in
    /// virtual time; an empty bucket opens the breaker and faulted
    /// requests fail fast to host fallback until a cooldown (doubling
    /// while faults persist) half-opens it again.
    pub fn retry_budget(mut self, cfg: RetryBudgetConfig) -> Self {
        self.retry_budget = Some(cfg);
        self
    }
}

/// A long-lived serving session over a [`MultiGpu`] pool.
///
/// The session accepts submissions *while draining*: open arrivals
/// scheduled with [`submit_at`](Self::submit_at) materialise at their
/// virtual instant, interleaved with dispatches and completions inside
/// the drain's event loop, where admission control (footprint ceiling,
/// queue cap, shed watermark, coalescing) runs against the queue state of
/// that moment. [`drain`](Self::drain) runs the loop to quiescence — the
/// session itself stays alive, so a workload can alternate submission
/// phases and drains indefinitely on warm residency caches.
///
/// Each queued request is dispatched through the configured
/// [`SchedulePolicy`]. Under FIFO and EDF it is pulled by the device with
/// the lowest estimated ready time: its virtual clock plus the estimated
/// upload time of the request's shared operands it does not hold
/// resident. Residency affinity therefore wins only while the affine
/// device's clock lead stays below the re-upload cost. The predictive
/// policy extends the same ready-time estimate with the model-predicted
/// offload time from each device's deployed profile and schedules
/// longest-first to minimise the pool makespan.
///
/// ```no_run
/// # use cocopelia_runtime::serve::{ExecutorConfig, ServeOptions, ServeSession};
/// # use cocopelia_gpusim::SimTime;
/// # fn demo(pool: cocopelia_runtime::MultiGpu, reqs: Vec<cocopelia_runtime::GemmRequest<f64>>) {
/// let opts = ServeOptions::new().queue_cap(64).coalesce();
/// let mut session = ServeSession::with_options(pool, ExecutorConfig::default(), opts).unwrap();
/// for (i, req) in reqs.into_iter().enumerate() {
///     session.submit_at(req, SimTime::from_nanos(i as u64 * 500_000));
/// }
/// let report = session.drain();
/// println!("{}", report.render());
/// # }
/// ```
#[derive(Debug)]
pub struct ServeSession {
    pub(super) pool: MultiGpu,
    pub(super) residency: Vec<ResidencyCache>,
    pub(super) cfg: ExecutorConfig,
    pub(super) policy: SchedulePolicy,
    pub(super) queue: SessionQueue,
    /// Per-device offload prediction of every shape the session has seen.
    pub(super) shapes: PredictionTable,
    pub(super) outcomes: Vec<RequestOutcome>,
    pub(super) metrics: Registry,
    pub(super) drift: DriftAccountant,
    /// Running p95 and mean of `drift`'s absolute relative errors; reset
    /// with it when the drain hands the accountant to its report.
    pub(super) drift_stats: DriftStats,
    next_id: u64,
    /// Devices removed from dispatch after repeated faults or loss.
    pub(super) quarantined: Vec<bool>,
    /// Consecutive faults per device; reset by any successful request.
    pub(super) fault_streak: Vec<u32>,
    /// Request-lifecycle span collector, when tracing is armed.
    pub(super) tracer: Option<ServeTracer>,
    /// Span-log capacity cap ([`TelemetryConfig::trace_cap`]).
    trace_cap: Option<usize>,
    /// Per-device trace length when the drain began; the run's device
    /// lanes are the entries recorded after these marks.
    trace_mark: Vec<usize>,
    /// Streaming telemetry pipeline, when armed.
    telemetry: Option<Telemetry>,
    /// Deepest queue observed during the current drain.
    pub(super) peak_queue: usize,
    pub(super) admission: Admission,
    pub(super) defense: Defense,
    /// Cross-request operand prefetch on idle h2d engines, when armed.
    pub(super) prefetcher: Option<Prefetcher>,
}

impl ServeSession {
    /// A session with default options (see [`ServeOptions::new`]),
    /// carving each device's residency budget out of its memory capacity
    /// per `cfg`.
    pub fn new(pool: MultiGpu, cfg: ExecutorConfig) -> Self {
        Self::with_options(pool, cfg, ServeOptions::new())
            .expect("no telemetry stream to open without telemetry")
    }

    /// A session with the full serving configuration applied up front.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when a telemetry stream file cannot be
    /// created.
    pub fn with_options(
        pool: MultiGpu,
        cfg: ExecutorConfig,
        opts: ServeOptions,
    ) -> std::io::Result<Self> {
        let residency = pool
            .devices()
            .iter()
            .map(|dev| {
                let cap = dev.gpu().device_mem_capacity() as f64;
                ResidencyCache::new((cap * cfg.residency_frac.clamp(0.0, 1.0)) as usize)
            })
            .collect();
        let count = pool.device_count();
        let trace_cap = opts.telemetry.as_ref().and_then(|t| t.trace_cap);
        let tracer = (opts.tracing || opts.telemetry.is_some()).then(ServeTracer::default);
        let telemetry = match opts.telemetry {
            Some(tcfg) => {
                let mut tele = Telemetry::new(tcfg)?;
                if let Some(sink) = opts.watch_sink {
                    tele.set_sink(sink);
                }
                Some(tele)
            }
            None => None,
        };
        Ok(ServeSession {
            pool,
            residency,
            cfg,
            policy: opts.policy,
            queue: SessionQueue::default(),
            shapes: PredictionTable::default(),
            outcomes: Vec::new(),
            metrics: Registry::new(),
            drift: DriftAccountant::new(),
            drift_stats: DriftStats::default(),
            next_id: 0,
            quarantined: vec![false; count],
            fault_streak: vec![0; count],
            tracer,
            trace_cap,
            trace_mark: vec![0; count],
            telemetry,
            peak_queue: 0,
            admission: Admission::new(opts.queue_cap, opts.shed_flow_secs, opts.coalesce),
            defense: Defense::new(count, opts.hedge, opts.probation, opts.retry_budget),
            prefetcher: opts.prefetch.then(Prefetcher::default),
        })
    }

    fn next_request_id(&mut self) -> RequestId {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.metrics.counter_add("serve_requests_total", 1);
        id
    }

    /// Submits a request for the next drain (closed-queue: present from
    /// the drain's first instant), returning its id. Footprint admission
    /// runs immediately: a request whose worst-case footprint exceeds
    /// [`ExecutorConfig::admission_frac`] of the smallest device's memory
    /// terminates as [`RequestStatus::Rejected`]. Closed-queue
    /// submissions are not subject to the queue cap (the caller owns that
    /// queue; backpressure governs *arrivals*).
    pub fn submit(&mut self, req: impl Into<RoutineRequest>) -> RequestId {
        let id = self.next_request_id();
        self.admit_now(id, req.into());
        id
    }

    /// Schedules an open arrival `at` virtual time past the next drain's
    /// start, interleaved with dispatches and completions in the event
    /// loop. Admission control — the footprint ceiling plus, when
    /// configured, the bounded-queue cap, the flow-time shed watermark,
    /// and coalescing — runs at the arrival instant, against the queue
    /// state of that moment. Flow time and deadlines for the request are
    /// measured from its arrival, not from drain start.
    pub fn submit_at(&mut self, req: impl Into<RoutineRequest>, at: SimTime) -> RequestId {
        let id = self.next_request_id();
        self.admission.schedule(id, req.into(), at.as_nanos());
        id
    }

    /// Submits a batch for the next drain, returning the ids in order.
    pub fn submit_all(
        &mut self,
        reqs: impl IntoIterator<Item = impl Into<RoutineRequest>>,
    ) -> Vec<RequestId> {
        reqs.into_iter().map(|r| self.submit(r)).collect()
    }

    /// Requests waiting for dispatch.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Open arrivals scheduled but not yet due.
    pub fn pending_arrivals(&self) -> usize {
        self.admission.pending()
    }

    /// The session's metrics registry (counters, gauges, queue depth).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The wrapped pool.
    pub fn pool(&self) -> &MultiGpu {
        &self.pool
    }

    /// The residency cache of device `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn residency(&self, d: usize) -> &ResidencyCache {
        &self.residency[d]
    }

    /// Devices currently quarantined, in index order.
    pub fn quarantined(&self) -> Vec<usize> {
        self.quarantined
            .iter()
            .enumerate()
            .filter_map(|(i, &q)| q.then_some(i))
            .collect()
    }

    /// Devices currently on probation (a canary probe is scheduled), in
    /// index order.
    pub fn probation_pending(&self) -> Vec<usize> {
        self.defense.probation_pending()
    }

    /// The active queue-scheduling policy.
    pub fn policy(&self) -> SchedulePolicy {
        self.policy
    }

    /// Operationally drains device `d`: quarantines it exactly as a fault
    /// storm would (residency invalidated, allocations released, no new
    /// work), without any fault having occurred. When probation is armed
    /// ([`ProbationConfig`]) the device re-enters service automatically
    /// once its canary probes pass — the maintenance-window workflow: pull
    /// a device, let the prober re-admit it. Without probation the device
    /// stays out until the session ends. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn force_quarantine(&mut self, d: usize) {
        assert!(d < self.quarantined.len(), "no such device: {d}");
        self.quarantine(d);
    }

    /// Runs the drain event loop to quiescence — every queued request and
    /// scheduled arrival reaches a terminal status — and reports the run.
    /// Arrivals interleave with dispatches in virtual time: before each
    /// dispatch pick, every arrival whose offset the device clocks have
    /// passed is admitted (and possibly shed or coalesced); when the
    /// queue is empty but arrivals remain, admission jumps to the next
    /// arrival instant. The session remains usable afterwards.
    pub fn drain(&mut self) -> ServeReport {
        let start: Vec<SimTime> = self.pool.devices().iter().map(|d| d.gpu().now()).collect();
        self.peak_queue = self.queue.len();
        if let Some(t) = self.tracer.as_mut() {
            self.trace_mark = self
                .pool
                .devices()
                .iter()
                .map(|d| d.gpu().trace().len())
                .collect();
            let t0 = start.iter().map(|t| t.as_nanos()).min().unwrap_or(0);
            let queued: Vec<u64> = self.queue.iter().map(|q| q.id.0).collect();
            t.begin_drain(t0, &queued);
        }
        if let Some(tele) = self.telemetry.as_mut() {
            tele.begin(self.trace_mark.clone(), &self.metrics);
        }
        while let Some((queued, preferred, arrival_ns)) = self.next_event(&start) {
            let id = queued.id;
            let quar_before = if self.telemetry.is_some() {
                self.quarantined.clone()
            } else {
                Vec::new()
            };
            let outcome = self.dispatch(queued, preferred, &start, arrival_ns);
            self.record(outcome, &start, &quar_before);
            if self.admission.has_followers(id) {
                let leader = self.outcomes.last().expect("just pushed").clone();
                self.fan_out_followers(&leader, &start);
            }
            if let (Some(cap), Some(t)) = (self.trace_cap, self.tracer.as_mut()) {
                t.enforce_cap(cap);
            }
        }
        self.unpin_unclaimed_prefetches();
        let per_device_busy: Vec<SimTime> = self
            .pool
            .devices()
            .iter()
            .zip(&start)
            .map(|(d, &s)| d.gpu().now().saturating_since(s))
            .collect();
        let makespan = per_device_busy
            .iter()
            .copied()
            .max()
            .expect("at least one device");
        let telemetry = self.telemetry_finish(makespan);
        let mut total_flops = 0.0;
        let mut host_flops = 0.0;
        let mut host_time = SimTime::ZERO;
        for o in &self.outcomes {
            // A coalesced outcome carries a copy of its leader's report;
            // the execution is counted once, at the leader.
            if o.coalesced {
                continue;
            }
            let Some(r) = o.executed_report() else {
                continue;
            };
            if o.host_fallback {
                host_flops += r.flops;
                host_time += r.elapsed;
            } else {
                total_flops += r.flops;
            }
        }
        let (trace, trace_dropped) = self.finish_trace();
        self.admission.end_drain();
        self.drift_stats.clear();
        let mut report = ServeReport {
            outcomes: std::mem::take(&mut self.outcomes),
            makespan,
            per_device_busy,
            total_flops,
            host_flops,
            host_time,
            quarantined: self.quarantined(),
            drift: std::mem::take(&mut self.drift),
            metrics: Registry::new(),
            trace,
            trace_dropped,
            telemetry,
            peak_queue_depth: self.peak_queue,
        };
        self.metrics
            .gauge_set("serve_makespan_secs", report.makespan.as_secs_f64());
        self.metrics
            .gauge_set("serve_throughput_gflops", report.throughput_gflops());
        self.metrics
            .gauge_set("serve_occupancy", report.occupancy());
        report.metrics = self.metrics.clone();
        report
    }

    /// The drain's event step: admit every arrival due by the current
    /// virtual elapsed and run due probation probes, then pull the next
    /// dispatch. When the queue is empty but arrivals remain, virtual
    /// admission time jumps forward to the next arrival instant (the pool
    /// is idle; nothing else can happen first). Returns the dispatch pick
    /// plus the request's arrival offset (ns past drain start; zero for
    /// closed-queue submissions), or `None` when both queue and arrivals
    /// are exhausted.
    fn next_event(&mut self, start: &[SimTime]) -> Option<(Queued, Option<usize>, u64)> {
        loop {
            let now_ns = self.elapsed_since(start).as_nanos();
            self.admit_due(now_ns, start);
            self.run_due_probes();
            if let Some(event) = self.next_admitted() {
                return Some(event);
            }
            let next_at = self.admission.next_at()?;
            self.admit_due(next_at, start);
        }
    }

    /// Books one terminal outcome: the status counter, the outcome list,
    /// and a telemetry step. `quar_before` is the quarantine state before
    /// the work that produced the outcome (empty when none ran).
    pub(super) fn record(
        &mut self,
        outcome: RequestOutcome,
        start: &[SimTime],
        quar_before: &[bool],
    ) {
        let counter = match outcome.status {
            RequestStatus::Completed(_) => Some("serve_completed_total"),
            RequestStatus::TimedOut { .. } => Some("serve_timed_out_total"),
            RequestStatus::Failed(_) => Some("serve_failed_total"),
            RequestStatus::Rejected { .. } => None,
        };
        if let Some(name) = counter {
            self.metrics.counter_add(name, 1);
        }
        self.outcomes.push(outcome);
        self.telemetry_tick(start, quar_before);
    }

    /// Takes the drain's trace out of the tracer (trimmed to the span
    /// cap, with the run's device lanes) and the count of spans the cap
    /// dropped. The tracer stays armed for the next drain.
    fn finish_trace(&mut self) -> (Option<cocopelia_obs::ServeTrace>, u64) {
        let Some(t) = self.tracer.as_mut() else {
            return (None, 0);
        };
        if let Some(cap) = self.trace_cap {
            t.trim_to(cap);
        }
        // `finish` resets the drop counter, so read it first.
        let dropped = t.dropped();
        let lanes = self
            .pool
            .devices()
            .iter()
            .enumerate()
            .map(|(i, d)| DeviceLane {
                device: i,
                name: format!("dev{i}"),
                entries: d
                    .gpu()
                    .trace()
                    .entries_since(self.trace_mark.get(i).copied().unwrap_or(0))
                    .to_vec(),
            })
            .collect();
        (Some(t.finish(lanes)), dropped)
    }

    /// Max device-clock advance since the drain began — the virtual
    /// "elapsed" that drives arrivals and telemetry windows.
    fn elapsed_since(&self, start: &[SimTime]) -> SimTime {
        self.pool
            .devices()
            .iter()
            .zip(start)
            .map(|(d, &s)| d.gpu().now().saturating_since(s))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Feeds freshly produced engine-trace entries and spans into the
    /// telemetry stream/ring, advancing the per-device and span
    /// watermarks.
    fn telemetry_drain(&self, tele: &mut Telemetry) {
        for d in 0..self.pool.device_count() {
            let mark = tele.lane_mark(d);
            let trace = self.pool.devices()[d].gpu().trace();
            let new_len = trace.len();
            if new_len > mark {
                tele.stream_lane(d, trace.entries_since(mark), new_len);
            }
        }
        if let Some(t) = self.tracer.as_ref() {
            let mark = tele.span_mark();
            tele.drain_spans(t.spans_since(mark), t.next_span_id());
        }
    }

    /// The loop state a telemetry tick reads, at virtual `elapsed`.
    fn tick_state(&self, elapsed: SimTime) -> TickState<'_> {
        TickState {
            elapsed_ns: elapsed.as_nanos(),
            queue_depth: self.queue.len(),
            quarantined: self.quarantined.iter().filter(|&&q| q).count(),
            mean_abs_drift: self.drift_stats.mean(),
            metrics: &self.metrics,
        }
    }

    /// One telemetry step after an outcome: drain lanes/spans, account
    /// the just-finished outcome (flow time from the serving device's
    /// clock, so telemetry never *moves* a clock), dump on fresh
    /// quarantines, and rotate windows. No-op when telemetry is off.
    fn telemetry_tick(&mut self, start: &[SimTime], quar_before: &[bool]) {
        let Some(mut tele) = self.telemetry.take() else {
            return;
        };
        self.telemetry_drain(&mut tele);
        let elapsed = self.elapsed_since(start);
        if let Some(o) = self.outcomes.last() {
            for (d, &was) in quar_before.iter().enumerate() {
                if !was && self.quarantined.get(d).copied().unwrap_or(false) {
                    tele.on_quarantine(d, o.id.0, elapsed.as_nanos());
                }
            }
            // The same flow the deadline was judged on.
            let flow_secs = match &o.status {
                RequestStatus::TimedOut { elapsed, .. } => *elapsed,
                RequestStatus::Completed(r) => match o.device {
                    Some(d) if !o.host_fallback => {
                        self.flow_secs(d, start, self.admission.arrival_ns(o.id.0))
                    }
                    _ => r.elapsed.as_secs_f64(),
                },
                _ => f64::NAN,
            };
            tele.on_outcome(o, flow_secs);
            if o.host_fallback {
                // Quarantine-to-empty-pool path: checkpoint the stream so
                // a drain that never returns still leaves a valid trace.
                tele.flush_stream();
            }
        }
        tele.tick(&self.tick_state(elapsed));
        self.telemetry = Some(tele);
    }

    /// Final telemetry rotation at drain end; returns the run summary and
    /// re-arms telemetry for a subsequent drain. `None` when telemetry is
    /// off.
    fn telemetry_finish(&mut self, makespan: SimTime) -> Option<TelemetryReport> {
        let mut tele = self.telemetry.take()?;
        self.telemetry_drain(&mut tele);
        let report = tele.finish(&self.tick_state(makespan));
        self.telemetry = Some(tele);
        Some(report)
    }

    /// Policy dispatch pick, exposed for the microbenchmark harness.
    #[doc(hidden)]
    pub fn next_dispatch_for_bench(
        &mut self,
    ) -> Option<(RequestId, RoutineRequest, Option<usize>)> {
        self.next_dispatch().map(|(q, pref)| (q.id, q.req, pref))
    }

    /// One open-arrival event step (due-arrival admission plus dispatch
    /// pick), exposed for the microbenchmark harness.
    #[doc(hidden)]
    pub fn next_event_for_bench(&mut self) -> Option<(RequestId, RoutineRequest, Option<usize>)> {
        let start: Vec<SimTime> = self.pool.devices().iter().map(|d| d.gpu().now()).collect();
        self.next_event(&start)
            .map(|(q, pref, _)| (q.id, q.req, pref))
    }

    /// The hedge-overrun decision for one attempt, exposed for the
    /// microbenchmark harness: would an attempt predicted at
    /// `predicted_secs` that actually advanced the clock by `elapsed_ns`
    /// trigger a hedge? This is the per-dispatch hot-path check (always
    /// false with hedging disarmed).
    #[doc(hidden)]
    pub fn hedge_decision_for_bench(&self, predicted_secs: f64, elapsed_ns: u64) -> bool {
        self.defense
            .hedge_fires(predicted_secs, elapsed_ns, &self.drift_stats)
    }

    /// Records one synthetic drift record (predicted against actual
    /// offload seconds) in the current drain's accountant and running
    /// statistics, for the microbenchmark harness: seeds the state the
    /// hedge threshold reads without running the requests that would
    /// produce it (a drain hands its records to the report).
    #[doc(hidden)]
    pub fn seed_drift_for_bench(&mut self, predicted_secs: f64, actual_secs: f64) {
        let call = self.drift.records().len() as u64;
        self.push_drift(DriftRecord {
            routine: "gemm",
            call,
            model: cocopelia_core::models::ModelKind::DataReuse,
            tile: 512,
            predicted_secs,
            actual_secs,
        });
    }

    /// The prefetch admission decision for one candidate operand set,
    /// exposed for the microbenchmark harness: would `bytes` of missing
    /// shared operands be staged on device `d` given `window_secs` of
    /// predicted h2d idle time? This is the per-dispatch hot-path check
    /// (always false with prefetch disarmed).
    #[doc(hidden)]
    pub fn prefetch_decision_for_bench(&self, d: usize, bytes: usize, window_secs: f64) -> bool {
        self.prefetcher.is_some()
            && self.effective_h2d_secs(d, bytes) <= window_secs
            && self.residency[d].fits_now(bytes)
    }

    /// The probe-scheduling scan (earliest due probe, as `(due_ns,
    /// device)`), exposed for the microbenchmark harness.
    #[doc(hidden)]
    pub fn next_probe_for_bench(&self) -> Option<(u64, usize)> {
        self.defense.next_probe()
    }

    /// Seeds a probe schedule directly, for the microbenchmark harness.
    #[doc(hidden)]
    pub fn seed_probe_for_bench(&mut self, d: usize, due_ns: u64) {
        self.quarantined[d] = true;
        self.defense.seed_probe(d, due_ns);
    }
}
