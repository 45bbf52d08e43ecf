//! Dispatch: device choice, the policy's queue pick, and one request's
//! run to a terminal status — resolution against the residency cache,
//! retries with device reclaim, quarantine, and the host fallback.

use crate::ctx::{Cocopelia, RoutineReport};
use crate::error::{FaultClass, RequestError, RequestId, RuntimeError};
use crate::operand::{MatOperand, VecOperand};
use crate::request::{MatArg, RoutineRequest, VecArg};
use cocopelia_core::models::Prediction;
use cocopelia_gpusim::{DevBufId, HostBufId, SimError, SimScalar, SimTime};
use cocopelia_obs::drift::ABS_ERROR_BOUNDS;
use cocopelia_obs::{DriftRecord, OverlapStats, Registry};
use std::collections::BTreeSet;

use super::defense::HedgeOutcome;
use super::queue::{Queued, ShapeId};
use super::residency::{ResidencyCache, ResidentHandle};
use super::session::QUEUE_DEPTH_BOUNDS;
use super::{RequestOutcome, RequestStatus, SchedulePolicy, ServeSession};

/// The buffers alive on one device before an attempt: whatever is alive
/// afterwards and absent here was allocated by the attempt.
#[derive(Debug)]
pub(super) struct Live {
    pub(super) dev: BTreeSet<DevBufId>,
    host: BTreeSet<HostBufId>,
}

/// True when the error is the device itself being lost.
pub(super) fn device_lost(e: &RuntimeError) -> bool {
    matches!(e, RuntimeError::Sim(SimError::DeviceLost))
}

impl ServeSession {
    /// Device `d`'s virtual clock, raw ns.
    pub(super) fn now_ns(&self, d: usize) -> u64 {
        self.pool.devices()[d].gpu().now().as_nanos()
    }

    /// Lifts device `d`'s clock to raw instant `at_ns` if it lags it.
    pub(super) fn advance_to(&mut self, d: usize, at_ns: u64) {
        let behind = at_ns.saturating_sub(self.now_ns(d));
        if behind > 0 {
            self.pool
                .device_mut(d)
                .gpu_mut()
                .advance_clock(SimTime::from_nanos(behind));
        }
    }

    /// The buffers alive on device `d` now.
    pub(super) fn live_buffers(&self, d: usize) -> Live {
        let gpu = self.pool.devices()[d].gpu();
        Live {
            dev: gpu.live_device_buffers().into_iter().collect(),
            host: gpu.live_host_buffers().into_iter().collect(),
        }
    }

    /// Flow seconds of a request finishing now on device `d`: the
    /// device's clock advance since the drain began, less the request's
    /// arrival offset, so queueing delay counts and an open arrival's
    /// budget starts at arrival.
    pub(super) fn flow_secs(&self, d: usize, start: &[SimTime], arrival_ns: u64) -> f64 {
        let raw = self.pool.devices()[d]
            .gpu()
            .now()
            .saturating_since(start[d]);
        SimTime::from_nanos(raw.as_nanos().saturating_sub(arrival_ns)).as_secs_f64()
    }

    /// Estimated h2d time device `d` would spend uploading the shared
    /// operands of `req` it does not hold resident, at the link bandwidth
    /// in effect at the device's current clock — a fault-plan
    /// [`DegradeWindow`](cocopelia_gpusim::DegradeWindow) covering the
    /// instant slows the estimate the same way it slows the copy, so
    /// dispatch stops treating a degraded link as full-rate. A key the
    /// request names twice is charged once.
    pub(super) fn upload_estimate(&self, d: usize, req: &RoutineRequest) -> f64 {
        self.upload_secs(d, req.shared_footprints())
    }

    /// [`upload_estimate`](Self::upload_estimate) of a `(key, bytes)`
    /// footprint list.
    pub(super) fn upload_secs<'k>(
        &self,
        d: usize,
        footprints: impl IntoIterator<Item = (&'k str, usize)>,
    ) -> f64 {
        footprints
            .into_iter()
            .filter(|(k, _)| !self.residency[d].contains(k))
            .map(|(_, bytes)| self.effective_h2d_secs(d, bytes))
            .sum()
    }

    /// Estimated h2d transfer time of `bytes` on device `d` at the
    /// *effective* link bandwidth of the device's current clock: the
    /// first fault-plan degrade window covering the instant scales the
    /// bandwidth by its factor, exactly like the engine. With no degrade
    /// windows this returns
    /// [`DirLinkSpec::ideal_time`](cocopelia_gpusim::DirLinkSpec::ideal_time)
    /// bit for bit, so fault-free schedules are unchanged.
    pub(super) fn effective_h2d_secs(&self, d: usize, bytes: usize) -> f64 {
        let gpu = self.pool.devices()[d].gpu();
        let h2d = gpu.spec().link.h2d;
        let degrade = &gpu.fault_spec().degrade;
        if degrade.is_empty() {
            return h2d.ideal_time(bytes);
        }
        let at = gpu.now().as_secs_f64();
        let factor = degrade
            .iter()
            .find(|w| at >= w.start_s && at < w.end_s)
            .map_or(1.0, |w| w.factor)
            .max(1e-9);
        h2d.latency_s + bytes as f64 / (h2d.bandwidth_bps * factor)
    }

    /// Predicted cost of running `req`, of shape `shape`, on device `d`:
    /// the model's offload prediction plus the missing-operand upload,
    /// when the device's profile can predict the shape.
    pub(super) fn estimate(
        &self,
        d: usize,
        shape: ShapeId,
        req: &RoutineRequest,
    ) -> Option<(Prediction, f64)> {
        self.shapes
            .get(shape, d)
            .map(|p| (p, self.upload_estimate(d, req)))
    }

    /// The healthy device that pulls `req`, other than `skip` (the hedge
    /// target must race a *different* device than the straggling
    /// primary): lowest estimated ready time — virtual clock plus the h2d
    /// time of the shared operands the device is missing, plus the
    /// hedge-informed straggler penalty — then lowest index. Residency
    /// affinity is thus *bounded*: a device holding the operands is
    /// preferred only while its clock lead over an idle peer stays below
    /// the re-upload cost, so high-reuse traces still spread across the
    /// pool. The straggler penalty matters when hedging is armed: a
    /// winning hedge rewinds the cancelled primary's clock, which would
    /// otherwise keep the degraded device looking *idle* and attractive.
    /// Quarantined devices never pull work; `None` means no healthy
    /// device remains.
    pub(super) fn choose_device_excluding(
        &self,
        req: &RoutineRequest,
        skip: usize,
    ) -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut best_cost = f64::INFINITY;
        for i in 0..self.pool.device_count() {
            if i == skip || self.quarantined[i] {
                continue;
            }
            let cost = self.pool.devices()[i].gpu().now().as_secs_f64()
                + self.upload_estimate(i, req)
                + self.defense.suspicion(i);
            if cost < best_cost {
                best = Some(i);
                best_cost = cost;
            }
        }
        best
    }

    /// The queue position the active [`SchedulePolicy`] would dispatch
    /// next, plus the predictive policy's preferred device. This is both
    /// the dispatch pick ([`next_dispatch`](Self::next_dispatch)) and the
    /// prefetcher's peek at the request that will run *after* the one
    /// about to execute; it changes nothing but the
    /// `serve_dispatch_scores_total` counter. `None` on an empty queue.
    pub(super) fn select_index(&mut self) -> Option<(usize, Option<usize>)> {
        if self.queue.is_empty() {
            return None;
        }
        Some(match self.policy {
            SchedulePolicy::Fifo => (0, None),
            SchedulePolicy::Edf => {
                // Earliest deadline wins; deadline-less requests sort to
                // +inf, i.e. after every deadline-carrying one. Strict `<`
                // keeps submission order within equal deadlines.
                let mut best = 0;
                let mut best_dl = f64::INFINITY;
                for (i, q) in self.queue.iter().enumerate() {
                    let dl = q.req.deadline().unwrap_or(f64::INFINITY);
                    if dl < best_dl {
                        best = i;
                        best_dl = dl;
                    }
                }
                (best, None)
            }
            SchedulePolicy::Predictive => self.predictive_pick(),
        })
    }

    /// The Predictive pick: cost each request at its best healthy device
    /// (clock + missing uploads + predicted offload time), then dispatch
    /// the request with the *largest* best-completion first —
    /// longest-processing-time list scheduling, so a straggler never lands
    /// on an already-loaded device at the tail of the trace.
    ///
    /// Every member of a class costs the same, so only class heads are
    /// scored: O(classes × healthy devices) per pick. Ties go to the
    /// lowest device index and then to the oldest request, exactly as a
    /// strict-`>` scan of every request in queue order would break them.
    fn predictive_pick(&mut self) -> (usize, Option<usize>) {
        let healthy: Vec<usize> = (0..self.pool.device_count())
            .filter(|&i| !self.quarantined[i])
            .collect();
        if healthy.is_empty() {
            // Whole pool quarantined: order is irrelevant, every request
            // degrades to the host.
            return (0, None);
        }
        let mut pick: Option<(u64, usize)> = None;
        let mut pick_completion = f64::NEG_INFINITY;
        let mut heads = 0u64;
        for (class, seq) in self.queue.heads() {
            heads += 1;
            let mut best_dev = healthy[0];
            let mut best_c = f64::INFINITY;
            for &d in &healthy {
                let footprints = class.footprints.iter().map(|(k, b)| (k.as_str(), *b));
                let c = self.pool.devices()[d].gpu().now().as_secs_f64()
                    + self.upload_secs(d, footprints)
                    + self.shapes.get(class.shape, d).map_or(0.0, |p| p.total);
                if c < best_c {
                    best_dev = d;
                    best_c = c;
                }
            }
            let older = pick.is_some_and(|(s, _)| seq < s);
            if best_c > pick_completion || (best_c == pick_completion && older) {
                pick = Some((seq, best_dev));
                pick_completion = best_c;
            }
        }
        self.metrics
            .counter_add("serve_dispatch_scores_total", heads * healthy.len() as u64);
        match pick {
            Some((seq, dev)) => (self.queue.position(seq), Some(dev)),
            None => (0, None),
        }
    }

    /// Pulls the next request per the active [`SchedulePolicy`], sampling
    /// queue depth (the pulled request included) at dispatch time. The
    /// second element is the predictive policy's preferred device, which
    /// [`dispatch`](Self::dispatch) tries first.
    pub(super) fn next_dispatch(&mut self) -> Option<(Queued, Option<usize>)> {
        let (idx, preferred) = self.select_index()?;
        self.metrics.histogram_observe(
            "serve_queue_depth",
            &QUEUE_DEPTH_BOUNDS,
            self.queue.len() as f64,
        );
        self.queue.remove(idx).map(|q| (q, preferred))
    }

    /// Runs one admitted request through to a terminal status: dispatch to
    /// `preferred` (the scheduling policy's device pick) or the best
    /// healthy device, retry with device reclaim on retryable faults
    /// ([`RuntimeError::fault_class`]), quarantine devices that fault
    /// repeatedly or are lost (re-dispatching the request to a healthy
    /// peer), and degrade gracefully to host BLAS when no healthy device
    /// remains. `start` holds each device's clock when the drain began:
    /// deadlines are judged on *flow time* — the serving device's clock at
    /// completion measured from that start — so time spent queued behind
    /// other requests counts against the budget. For an open arrival,
    /// `arrival_ns` (its offset past drain start) floors the serving
    /// device's clock — work cannot begin before the request exists — and
    /// is subtracted from the flow so the deadline budget starts at
    /// arrival, not at drain start.
    pub(super) fn dispatch(
        &mut self,
        queued: Queued,
        mut preferred: Option<usize>,
        start: &[SimTime],
        arrival_ns: u64,
    ) -> RequestOutcome {
        let Queued { id, req, shape, .. } = queued;
        let routine = req.routine();
        let budget = if self.cfg.retry_transient {
            self.cfg.max_retries
        } else {
            0
        };
        let mut retries: u32 = 0;
        let mut host_fallback = false;
        let mut device: Option<usize> = None;
        // End of the previous attempt, in virtual ns: a re-issued attempt
        // must never start earlier (span invariant 3), and the queue span
        // is recorded once, at the first attempt's start.
        let mut not_before_ns: u64 = 0;
        let mut queued_recorded = false;
        // Armed when the retry budget's circuit breaker denies a retry:
        // the request skips further device picks and fails fast to host.
        let mut budget_fastfail = false;
        let result = loop {
            // The policy's pick applies to the first attempt only; a retry
            // after a fault re-chooses among the devices still healthy.
            let pick = if budget_fastfail {
                None
            } else {
                preferred
                    .take()
                    .filter(|&p| !self.quarantined[p])
                    .or_else(|| self.choose_device_excluding(&req, usize::MAX))
            };
            let Some(d) = pick else {
                // Probation may heal the pool before we give up on
                // devices entirely: jump virtual time to the probe
                // schedule and re-pick if a canary re-admits a device.
                if !budget_fastfail && self.try_heal_pool() {
                    continue;
                }
                // Graceful degradation: the whole pool is quarantined, so
                // the request completes on the host instead of failing.
                // Operands prefetched for this request sit on devices it
                // will never touch: release them with accounting.
                self.release_prefetch_for(id.0);
                host_fallback = true;
                device = None;
                self.metrics.counter_add("fault_host_fallback_total", 1);
                let report = self.execute_host(&req);
                if let Some(t) = self.tracer.as_mut() {
                    if !queued_recorded {
                        t.queue_wait(id.0, not_before_ns);
                    }
                    t.host_fallback(id.0, not_before_ns, report.elapsed.as_nanos());
                }
                break Ok(report);
            };
            if device.is_some_and(|prev| self.quarantined[prev]) {
                // The previous attempt's device was quarantined under the
                // request; it is now re-dispatched to a healthy peer.
                self.metrics.counter_add("quarantine_redispatch_total", 1);
            }
            device = Some(d);
            // Claim (on `d`) or release (elsewhere) whatever the
            // prefetcher staged for this request before resolution runs,
            // so a claimed entry serves the resolve as a warm hit.
            self.settle_prefetch(id.0, d);
            // A request cannot restart before the fault that re-issued it
            // occurred: a re-dispatch target whose virtual clock lags the
            // previous attempt's end is lifted to it. (Per-device clocks
            // advance independently, so a healthy peer may well be
            // "earlier" than the fault; the request still arrives after.)
            // An open arrival additionally floors the clock at its arrival
            // instant: the device may be idle earlier, but the request
            // does not exist yet. Closed-queue submissions have offset 0,
            // making the floor a no-op (clocks never run backwards from
            // `start`).
            self.advance_to(d, not_before_ns.max(start[d].as_nanos() + arrival_ns));
            let pre = self.live_buffers(d);
            // Predicted completion of this attempt: missing-operand upload
            // plus the model's offload estimate. Recorded against the
            // actual clock advance under every policy, so FIFO/EDF runs
            // expose the same misprediction accounting the predictive
            // policy schedules by.
            let estimate = self.estimate(d, shape, &req);
            let clock_before = self.pool.devices()[d].gpu().now();
            let len_before = self.pool.devices()[d].gpu().trace().len();
            if !queued_recorded {
                queued_recorded = true;
                if let Some(t) = self.tracer.as_mut() {
                    t.queue_wait(id.0, clock_before.as_nanos());
                }
            }
            let attempt_no = retries;
            let window = self.prefetch_window(d, &req, estimate.as_ref());
            match self.execute_once(d, req.clone(), window) {
                Ok(report) => {
                    self.fault_streak[d] = 0;
                    self.defense.note_success(&mut self.metrics);
                    let clock_after = self.pool.devices()[d].gpu().now();
                    // Straggler defense: a successful attempt that overran
                    // its prediction far enough races a speculative hedge
                    // on the best other healthy device. The race resolves
                    // retroactively in virtual time, so replay is
                    // bit-identical; a winning hedge cancels this attempt
                    // and completes the request itself.
                    let hedged = self.maybe_hedge(
                        id,
                        &req,
                        shape,
                        d,
                        attempt_no,
                        clock_before,
                        clock_after,
                        len_before,
                        &pre,
                        estimate.as_ref(),
                    );
                    if let HedgeOutcome::Won(hreport, hdev, hend_ns) = hedged {
                        device = Some(hdev);
                        not_before_ns = hend_ns;
                        break Ok(*hreport);
                    }
                    if matches!(hedged, HedgeOutcome::NotLaunched) && self.tracer.is_some() {
                        let entries = self.attempt_entries(d, len_before);
                        if let Some(t) = self.tracer.as_mut() {
                            let (start, end) = (clock_before.as_nanos(), clock_after.as_nanos());
                            t.attempt(id.0, d, attempt_no, start, end, &entries, None);
                        }
                    }
                    not_before_ns = clock_after.as_nanos();
                    if let Some((pred, upload)) = estimate {
                        let actual = self.pool.devices()[d]
                            .gpu()
                            .now()
                            .saturating_since(clock_before)
                            .as_secs_f64();
                        self.record_drift(routine, id, &pred, upload, actual);
                    }
                    break Ok(report);
                }
                Err(e) => {
                    self.count_fault(&e);
                    let clock_after_ns = self.now_ns(d);
                    if self.tracer.is_some() {
                        let entries = self.attempt_entries(d, len_before);
                        if let Some(t) = self.tracer.as_mut() {
                            let (start, error) = (clock_before.as_nanos(), e.to_string());
                            let error = Some(error.as_str());
                            t.attempt(id.0, d, attempt_no, start, clock_after_ns, &entries, error);
                        }
                    }
                    not_before_ns = clock_after_ns;
                    let exhausted = retries >= budget;
                    if device_lost(&e) {
                        // The device is gone but the request is innocent:
                        // quarantine the device and re-dispatch.
                        self.quarantine_traced(id, d, clock_after_ns);
                    } else if e.fault_class().retryable() {
                        self.fault_streak[d] += 1;
                        if self.fault_streak[d] >= self.cfg.quarantine_after {
                            self.quarantine_traced(id, d, clock_after_ns);
                        } else if !exhausted {
                            // Only a retry justifies the scorched-earth
                            // reclaim that evicts the whole residency
                            // cache to make room.
                            self.reclaim(d, &pre);
                        } else {
                            // No retry will run: free only what the failed
                            // attempt leaked and keep warm operands for
                            // later requests.
                            self.release_leaked(d, &pre);
                        }
                    } else {
                        // Programming errors never improve on retry.
                        self.release_leaked(d, &pre);
                        break Err(e);
                    }
                    if exhausted {
                        break Err(e);
                    }
                    if !self.defense.allow_retry(clock_after_ns, &mut self.metrics) {
                        // The session retry budget ran dry (or its
                        // breaker is open): fail fast to host fallback
                        // instead of burning more device time on a
                        // sustained fault storm.
                        budget_fastfail = true;
                        continue;
                    }
                    retries += 1;
                    self.metrics.counter_add("retry_attempts_total", 1);
                    self.metrics.counter_add("serve_retries_total", 1);
                }
            }
        };
        let status = match result {
            Ok(report) => {
                self.metrics
                    .counter_add("retry_tile_ops_total", report.op_retries);
                // Host runs advance no device clock; their own elapsed
                // time is the closest flow measure available.
                let flow = match device {
                    Some(d) if !host_fallback => self.flow_secs(d, start, arrival_ns),
                    _ => report.elapsed.as_secs_f64(),
                };
                match req.deadline() {
                    Some(dl) if flow > dl => RequestStatus::TimedOut {
                        deadline: dl,
                        elapsed: flow,
                        report: Box::new(report),
                    },
                    _ => RequestStatus::Completed(report),
                }
            }
            Err(e) => RequestStatus::Failed(RequestError::new(id, routine, e)),
        };
        if let Some(t) = self.tracer.as_mut() {
            let end_ns = if host_fallback {
                t.host_now_ns()
            } else {
                not_before_ns
            };
            t.complete(id.0, end_ns, status.label());
        }
        RequestOutcome {
            id,
            routine,
            device,
            status,
            retries,
            host_fallback,
            coalesced: false,
        }
    }

    /// Predicted h2d idle time within an attempt of `req` on device `d` —
    /// the window a cross-request prefetch must hide in: the attempt's
    /// total predicted span minus the h2d occupancy of its own input
    /// operands. Computed from operand bytes at the effective link rate
    /// rather than the prediction's `t_in_tile` (whose meaning is
    /// model-specific: the data-reuse model stores the pipeline fill
    /// there, so `k * t_in_tile` would overcount by ~`k`). `None` without
    /// a prediction or with prefetch disarmed.
    fn prefetch_window(
        &self,
        d: usize,
        req: &RoutineRequest,
        estimate: Option<&(Prediction, f64)>,
    ) -> Option<f64> {
        let (pred, _) = estimate.filter(|_| self.prefetcher.is_some())?;
        let spec = req.problem_spec();
        let own_h2d: f64 = spec
            .operands
            .iter()
            .filter(|o| o.get())
            .map(|o| self.effective_h2d_secs(d, o.bytes(spec.dtype)))
            .sum();
        Some((pred.total - own_h2d).max(0.0))
    }

    /// Records one attempt's predicted-vs-actual offload time in the
    /// drift accountant and the `sched_predict_abs_err` histograms.
    pub(super) fn record_drift(
        &mut self,
        routine: &'static str,
        id: RequestId,
        pred: &Prediction,
        upload: f64,
        actual_secs: f64,
    ) {
        let rec = DriftRecord {
            routine,
            call: id.0,
            model: pred.model,
            tile: pred.tile,
            predicted_secs: upload + pred.total,
            actual_secs,
        };
        let err = rec.abs_rel_err();
        self.metrics
            .histogram_observe("sched_predict_abs_err", &ABS_ERROR_BOUNDS, err);
        self.metrics
            .histogram_observe(self.policy.abs_err_metric(), &ABS_ERROR_BOUNDS, err);
        self.drift.record(rec);
    }

    /// Bumps the fault-class counter of one device error.
    pub(super) fn count_fault(&mut self, e: &RuntimeError) {
        let name = match e.fault_class() {
            FaultClass::Transient => "fault_transient_total",
            FaultClass::Degraded => "fault_degraded_total",
            FaultClass::Fatal => "fault_fatal_total",
        };
        self.metrics.counter_add(name, 1);
    }

    /// Quarantines device `d`: it stops pulling work, its residency cache
    /// is invalidated, and every live allocation is released (a lost
    /// device aborts in-flight work first). Under probation its first
    /// canary probe is scheduled. Idempotent.
    pub(super) fn quarantine(&mut self, d: usize) {
        if self.quarantined[d] {
            return;
        }
        self.quarantined[d] = true;
        self.defense.clear_suspicion(d);
        self.metrics.counter_add("quarantine_devices_total", 1);
        let evicted = self.residency[d].clear();
        self.forget_prefetch_on_device(d);
        self.metrics
            .counter_add("quarantine_invalidated_total", evicted.len() as u64);
        let dev = self.pool.device_mut(d);
        let _ = dev.gpu_mut().synchronize();
        for e in evicted {
            free_resident(dev, e.handle);
        }
        for b in dev.gpu().live_device_buffers() {
            let _ = dev.gpu_mut().free_device(b);
        }
        for h in dev.gpu().live_host_buffers() {
            let _ = dev.gpu_mut().take_host(h);
        }
        let now_ns = self.now_ns(d);
        self.defense.schedule_probe(d, now_ns);
    }

    /// [`quarantine`](Self::quarantine) on behalf of request `id`,
    /// recorded as a `Quarantine` span at `at_ns`.
    pub(super) fn quarantine_traced(&mut self, id: RequestId, d: usize, at_ns: u64) {
        self.quarantine(d);
        if let Some(t) = self.tracer.as_mut() {
            t.quarantine(id.0, d, at_ns);
        }
    }

    /// Completes a request on the host at the configured
    /// [`host_gflops`](super::ExecutorConfig::host_gflops) rate — the
    /// graceful degradation path when every device is quarantined. Host
    /// time is reported in the request's outcome but advances no device
    /// clock, so it does not count toward the pool makespan.
    fn execute_host(&mut self, req: &RoutineRequest) -> RoutineReport {
        let flops = req.problem_spec().flops();
        let elapsed = SimTime::from_secs_f64(flops / (self.cfg.host_gflops.max(1e-9) * 1e9));
        RoutineReport {
            elapsed,
            tile: 0,
            subkernels: 1,
            flops,
            selection: None,
            overlap: OverlapStats::default(),
            drift: Vec::new(),
            tile_hits: 0,
            tile_misses: 0,
            op_retries: 0,
        }
    }

    /// One attempt: resolve shared operands against device `d`'s residency
    /// cache, optionally stage a cross-request prefetch on the idle h2d
    /// engine, run the routine, release bypass uploads.
    ///
    /// `prefetch_window` is the running attempt's predicted h2d idle time
    /// (see `prefetch_window`); `Some` only on primary dispatches with a
    /// usable prediction — hedges and probes pass `None` and never
    /// prefetch.
    pub(super) fn execute_once(
        &mut self,
        d: usize,
        req: RoutineRequest,
        prefetch_window: Option<f64>,
    ) -> Result<RoutineReport, RuntimeError> {
        let mut bypass = Vec::new();
        // Pin every shared key of this request for the whole resolution:
        // resolving a later operand must never evict (and free) an earlier
        // operand of the same request out from under its resolved handle.
        let pinned: Vec<String> = req.shared_keys().iter().map(|k| (*k).to_owned()).collect();
        let resolved = resolve_request(
            self.pool.device_mut(d),
            &mut self.residency[d],
            &mut self.metrics,
            &mut bypass,
            &pinned,
            req,
        )?;
        // The trace mark must precede the staging enqueues so
        // finish_prefetch sees its own copy entries.
        let mark = self.pool.devices()[d].gpu().trace().len();
        let staged = match prefetch_window {
            Some(window) => self.begin_prefetch(d, window),
            None => Vec::new(),
        };
        match self.pool.device_mut(d).submit(resolved) {
            Ok(report) => {
                self.finish_prefetch(d, staged, mark);
                let dev = self.pool.device_mut(d);
                for h in bypass {
                    free_resident(dev, h);
                }
                Ok(report)
            }
            Err(e) => {
                // The staged buffers were never adopted by the cache, so
                // the caller's ordinary fault cleanup frees them exactly
                // like the attempt's own leaked buffers.
                if !staged.is_empty() {
                    self.metrics
                        .counter_add("prefetch_aborted_total", staged.len() as u64);
                }
                Err(e)
            }
        }
    }

    /// Returns device `d` to a clean state after a failed attempt: waits
    /// for in-flight work, evicts its residency cache, and frees any
    /// buffer the failed attempt leaked (allocations alive now that were
    /// not alive before the attempt).
    fn reclaim(&mut self, d: usize, pre: &Live) {
        let dev = self.pool.device_mut(d);
        let _ = dev.gpu_mut().synchronize();
        let evicted = self.residency[d].clear();
        self.metrics
            .counter_add("residency_evictions_total", evicted.len() as u64);
        for e in evicted {
            free_resident(dev, e.handle);
        }
        for b in dev.gpu().live_device_buffers() {
            if !pre.dev.contains(&b) {
                let _ = dev.gpu_mut().free_device(b);
            }
        }
        for h in dev.gpu().live_host_buffers() {
            if !pre.host.contains(&h) {
                let _ = dev.gpu_mut().take_host(h);
            }
        }
        // The cache wipe above already freed any prefetched buffers; drop
        // their tracking entries too so a later dispatch of the target
        // request cannot claim a phantom hit.
        self.forget_prefetch_on_device(d);
    }

    /// Frees buffers a failed attempt leaked on device `d` without
    /// touching the residency cache: allocations alive now that were
    /// neither alive before the attempt nor adopted by the cache (operands
    /// the attempt successfully resolved stay warm for later requests).
    pub(super) fn release_leaked(&mut self, d: usize, pre: &Live) {
        let cached: BTreeSet<DevBufId> = self.residency[d].device_buffers().into_iter().collect();
        let dev = self.pool.device_mut(d);
        let _ = dev.gpu_mut().synchronize();
        for b in dev.gpu().live_device_buffers() {
            if !pre.dev.contains(&b) && !cached.contains(&b) {
                let _ = dev.gpu_mut().free_device(b);
            }
        }
        for h in dev.gpu().live_host_buffers() {
            if !pre.host.contains(&h) {
                let _ = dev.gpu_mut().take_host(h);
            }
        }
    }
}

/// Frees a cached or bypass device allocation, ignoring stale handles
/// (reclaim may already have freed them).
pub(super) fn free_resident(dev: &mut Cocopelia, h: ResidentHandle) {
    let _ = match h {
        ResidentHandle::Mat(m) => dev.free_matrix(m),
        ResidentHandle::Vec(v) => dev.free_vector(v),
    };
}

/// Resolves one matrix argument: shared keys become device-resident
/// operands via the residency cache (hit) or a ghost upload (miss).
/// `pinned` names the whole request's shared keys, which eviction must
/// not touch; an operand that cannot fit alongside them bypasses the
/// cache instead.
fn resolve_mat<T: SimScalar>(
    dev: &mut Cocopelia,
    cache: &mut ResidencyCache,
    metrics: &mut Registry,
    bypass: &mut Vec<ResidentHandle>,
    pinned: &[String],
    arg: MatArg<T>,
) -> Result<MatArg<T>, RuntimeError> {
    let MatArg::Shared(s) = arg else {
        return Ok(arg);
    };
    if let Some(m) = cache.lookup_mat(&s.key, T::DTYPE, s.rows, s.cols)? {
        metrics.counter_add("residency_hits_total", 1);
        return Ok(MatArg::Inline(MatOperand::Device(m)));
    }
    metrics.counter_add("residency_misses_total", 1);
    let bytes = s.rows * s.cols * T::DTYPE.width();
    let cacheable = cache.fits_pinned(bytes, pinned);
    if cacheable {
        for e in cache.evict_for(bytes, pinned) {
            metrics.counter_add("residency_evictions_total", 1);
            free_resident(dev, e.handle);
        }
    } else {
        metrics.counter_add("residency_bypass_total", 1);
    }
    let m = dev.upload_ghost_matrix(T::DTYPE, s.rows, s.cols)?;
    metrics.counter_add("residency_bytes_uploaded", bytes as u64);
    if cacheable {
        cache.insert_mat(&s.key, T::DTYPE, m, bytes);
    } else {
        bypass.push(ResidentHandle::Mat(m));
    }
    Ok(MatArg::Inline(MatOperand::Device(m)))
}

/// Resolves one vector argument; see [`resolve_mat`].
fn resolve_vec<T: SimScalar>(
    dev: &mut Cocopelia,
    cache: &mut ResidencyCache,
    metrics: &mut Registry,
    bypass: &mut Vec<ResidentHandle>,
    pinned: &[String],
    arg: VecArg<T>,
) -> Result<VecArg<T>, RuntimeError> {
    let VecArg::Shared(s) = arg else {
        return Ok(arg);
    };
    if let Some(v) = cache.lookup_vec(&s.key, T::DTYPE, s.len)? {
        metrics.counter_add("residency_hits_total", 1);
        return Ok(VecArg::Inline(VecOperand::Device(v)));
    }
    metrics.counter_add("residency_misses_total", 1);
    let bytes = s.len * T::DTYPE.width();
    let cacheable = cache.fits_pinned(bytes, pinned);
    if cacheable {
        for e in cache.evict_for(bytes, pinned) {
            metrics.counter_add("residency_evictions_total", 1);
            free_resident(dev, e.handle);
        }
    } else {
        metrics.counter_add("residency_bypass_total", 1);
    }
    let v = dev.upload_ghost_vector(T::DTYPE, s.len)?;
    metrics.counter_add("residency_bytes_uploaded", bytes as u64);
    if cacheable {
        cache.insert_vec(&s.key, T::DTYPE, v, bytes);
    } else {
        bypass.push(ResidentHandle::Vec(v));
    }
    Ok(VecArg::Inline(VecOperand::Device(v)))
}

/// Resolves every shared operand of a request against one device, with
/// the request's own keys pinned against eviction.
fn resolve_request(
    dev: &mut Cocopelia,
    cache: &mut ResidencyCache,
    metrics: &mut Registry,
    bypass: &mut Vec<ResidentHandle>,
    pinned: &[String],
    req: RoutineRequest,
) -> Result<RoutineRequest, RuntimeError> {
    Ok(match req {
        RoutineRequest::GemmF64(mut r) => {
            r.a = resolve_mat(dev, cache, metrics, bypass, pinned, r.a)?;
            r.b = resolve_mat(dev, cache, metrics, bypass, pinned, r.b)?;
            r.c = resolve_mat(dev, cache, metrics, bypass, pinned, r.c)?;
            RoutineRequest::GemmF64(r)
        }
        RoutineRequest::GemmF32(mut r) => {
            r.a = resolve_mat(dev, cache, metrics, bypass, pinned, r.a)?;
            r.b = resolve_mat(dev, cache, metrics, bypass, pinned, r.b)?;
            r.c = resolve_mat(dev, cache, metrics, bypass, pinned, r.c)?;
            RoutineRequest::GemmF32(r)
        }
        RoutineRequest::AxpyF64(mut r) => {
            r.x = resolve_vec(dev, cache, metrics, bypass, pinned, r.x)?;
            r.y = resolve_vec(dev, cache, metrics, bypass, pinned, r.y)?;
            RoutineRequest::AxpyF64(r)
        }
        RoutineRequest::DotF64(mut r) => {
            r.x = resolve_vec(dev, cache, metrics, bypass, pinned, r.x)?;
            r.y = resolve_vec(dev, cache, metrics, bypass, pinned, r.y)?;
            RoutineRequest::DotF64(r)
        }
        RoutineRequest::GemvF64(mut r) => {
            r.a = resolve_mat(dev, cache, metrics, bypass, pinned, r.a)?;
            r.x = resolve_vec(dev, cache, metrics, bypass, pinned, r.x)?;
            r.y = resolve_vec(dev, cache, metrics, bypass, pinned, r.y)?;
            RoutineRequest::GemvF64(r)
        }
    })
}
