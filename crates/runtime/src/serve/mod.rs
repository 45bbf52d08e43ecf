//! The request-serving layer: a queued, admission-controlled session that
//! dispatches heterogeneous routine requests across a [`MultiGpu`] pool.
//!
//! The single-call library of §IV-C schedules one BLAS call at a time; a
//! production deployment instead sees *traffic* — many requests, some
//! naming the same operands. This module adds the three ingredients
//! multi-request throughput comes from (following BLASX's shared tile
//! cache and dynamic device dispatch):
//!
//! 1. **Admission control.** A request whose worst-case device footprint
//!    cannot fit on the pool's smallest device is rejected at submission
//!    instead of failing mid-flight.
//! 2. **Policy-driven dispatch.** The queue drains through a pluggable
//!    [`SchedulePolicy`]: FIFO (the default baseline), earliest-deadline-
//!    first, or the prediction-guided policy that costs queued requests
//!    on each device with the paper's models
//!    ([`SystemProfile::predict_offload`](cocopelia_core::SystemProfile::predict_offload),
//!    run once per distinct shape and device) and schedules to minimise
//!    pool makespan. Whatever the policy, the
//!    device for a request is never worse than the bounded-affinity
//!    ready-time heuristic: virtual clock plus the estimated upload time
//!    of the request's shared operands the device is missing, so an idle
//!    device steals work once the affine device falls far enough behind.
//! 3. **Cross-request residency.** Operands named by key
//!    ([`MatArg::shared`](crate::MatArg::shared)) live in a per-device LRU
//!    cache, so a matrix uploaded for request *N* is not re-transferred
//!    for request *N+1*.
//!
//! Each request terminates in exactly one [`RequestStatus`]. The session
//! is fault-tolerant: retryable faults
//! ([`RuntimeError::fault_class`](crate::RuntimeError::fault_class)) are
//! retried up to [`ExecutorConfig::max_retries`] times after reclaiming
//! the device; a device that faults
//! [`ExecutorConfig::quarantine_after`] times in a row — or is lost
//! outright — is quarantined (its residency cache invalidated, its
//! allocations released) and the request re-dispatches to a healthy peer;
//! when every device is quarantined, requests degrade gracefully to host
//! BLAS at [`ExecutorConfig::host_gflops`]. Aggregate throughput,
//! queue-depth, occupancy, and `fault_*`/`retry_*`/`quarantine_*` metrics
//! flow through a [`cocopelia_obs::Registry`].
//!
//! On top of that baseline sits the straggler-defense and self-healing
//! tier, armed per session: hedged re-dispatch races a slow attempt
//! against a healthy peer and cancels the loser ([`HedgeConfig`]),
//! quarantine probation re-admits devices that pass canary probes
//! ([`ProbationConfig`]), and a retry token bucket with a circuit breaker
//! fails fast to host during fault storms ([`RetryBudgetConfig`]).
//!
//! Shared operands carry no host data (they are ghost uploads), so the
//! serving layer is a *timing* harness: drive it with pools built in
//! [`ExecMode::TimingOnly`](cocopelia_gpusim::ExecMode).
//!
//! [`MultiGpu`]: crate::MultiGpu

//! [`ServeSession`] is the one serving type. Its concerns live in
//! separate modules, each owning its state: admission (arrivals,
//! backpressure, coalescing), the queue and its prediction table,
//! dispatch (device choice, retries, quarantine), defense (hedging,
//! probation, retry budget), prefetch, and the report types.

mod admission;
mod defense;
mod dispatch;
mod drift_stats;
mod prefetch;
mod queue;
mod report;
mod residency;
mod sched;
mod session;
mod telemetry;
mod trace;

#[cfg(test)]
mod pick_equivalence;

pub use defense::{HedgeConfig, ProbationConfig, RetryBudgetConfig, HEDGE_WARMUP};
pub use report::{RequestOutcome, RequestStatus, ServeReport};
pub use residency::ResidencyCache;
pub use sched::SchedulePolicy;
pub use session::{ExecutorConfig, ServeOptions, ServeSession};
pub use telemetry::{TelemetryConfig, TelemetryReport, WatchWindow, FLOW_SECS_BOUNDS};
