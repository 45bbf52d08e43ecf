//! What a drain produces: each request's terminal [`RequestStatus`] and
//! [`RequestOutcome`], and the aggregate [`ServeReport`].

use crate::ctx::RoutineReport;
use crate::error::{RequestError, RequestId};
use cocopelia_gpusim::SimTime;
use cocopelia_obs::{DriftAccountant, Registry, ServeTrace};
use std::fmt::Write as _;

use super::TelemetryReport;

/// Terminal state of a served request.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RequestStatus {
    /// The routine ran to completion within its deadline (if any).
    Completed(RoutineReport),
    /// Admission control refused the request at submission.
    Rejected {
        /// Why the request was not admitted.
        reason: String,
    },
    /// The routine ran but blew its virtual-time budget.
    TimedOut {
        /// The request's budget in virtual seconds.
        deadline: f64,
        /// The request's *flow time* in virtual seconds: the serving
        /// device's clock at completion measured from the start of the
        /// drain, so queueing delay behind other requests counts.
        elapsed: f64,
        /// The report of the (late) run.
        report: Box<RoutineReport>,
    },
    /// The routine failed; transient failures have already been retried.
    Failed(RequestError),
}

impl RequestStatus {
    /// Short terminal label, as recorded on the request's `Complete` span.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            RequestStatus::Completed(_) => "completed",
            RequestStatus::Rejected { .. } => "rejected",
            RequestStatus::TimedOut { .. } => "timed-out",
            RequestStatus::Failed(_) => "failed",
        }
    }
}

/// One request's terminal record.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// The id assigned at submission.
    pub id: RequestId,
    /// Canonical routine name.
    pub routine: &'static str,
    /// Device the request ran on (`None` when rejected at submission).
    pub device: Option<usize>,
    /// How the request terminated.
    pub status: RequestStatus,
    /// Times the request was re-attempted after a fault (0 on a clean
    /// first run).
    pub retries: u32,
    /// True when the request completed on the host because every device
    /// in the pool was quarantined (graceful degradation).
    pub host_fallback: bool,
    /// True when the request never executed itself: it coalesced onto an
    /// identical queued request whose single execution fed both. Its
    /// report is a copy of the leader's, and work accounting
    /// ([`ServeReport::total_flops`]) counts the execution once.
    pub coalesced: bool,
}

impl RequestOutcome {
    /// The completed report, when the request completed.
    pub fn report(&self) -> Option<&RoutineReport> {
        match &self.status {
            RequestStatus::Completed(r) => Some(r),
            _ => None,
        }
    }

    /// The report of any run that executed, completed *or* timed out: a
    /// timed-out request still did its device work, so its report counts
    /// toward work accounting even though the result missed its budget.
    pub fn executed_report(&self) -> Option<&RoutineReport> {
        match &self.status {
            RequestStatus::Completed(r) => Some(r),
            RequestStatus::TimedOut { report, .. } => Some(report),
            _ => None,
        }
    }
}

/// Aggregate result of one [`ServeSession::drain`](super::ServeSession::drain).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Terminal records: submission-time rejections first (in submit
    /// order), then served requests in dispatch order.
    pub outcomes: Vec<RequestOutcome>,
    /// Virtual makespan of the run: the busiest device's elapsed time.
    pub makespan: SimTime,
    /// Per-device busy time over the run.
    pub per_device_busy: Vec<SimTime>,
    /// Useful floating-point operations executed *on devices*: completed
    /// and timed-out runs (a timed-out run still did its device work and
    /// inflated the makespan, so it must count toward throughput).
    /// Host-fallback work is excluded — see
    /// [`host_flops`](ServeReport::host_flops).
    pub total_flops: f64,
    /// Useful floating-point operations of host-fallback runs. Host work
    /// advances no device clock, so mixing it into
    /// [`total_flops`](ServeReport::total_flops) would credit the
    /// device-only makespan with work no device did.
    pub host_flops: f64,
    /// Wall time host-fallback runs took (outside the device makespan).
    pub host_time: SimTime,
    /// Devices quarantined by the end of the run, in index order.
    pub quarantined: Vec<usize>,
    /// Predicted-vs-actual drift of the scheduler's per-dispatch offload
    /// predictions, when the deployed profile could predict the requests.
    pub drift: DriftAccountant,
    /// Snapshot of the session's metrics registry after the run.
    pub metrics: Registry,
    /// The request-lifecycle trace of the drain, when
    /// [`ServeOptions::tracing`](super::ServeOptions::tracing) or
    /// [`ServeOptions::telemetry`](super::ServeOptions::telemetry) armed it.
    pub trace: Option<ServeTrace>,
    /// Spans dropped from [`trace`](ServeReport::trace) by the span
    /// capacity cap ([`TelemetryConfig::trace_cap`](super::TelemetryConfig::trace_cap));
    /// `0` when tracing was uncapped or nothing overflowed.
    pub trace_dropped: u64,
    /// Streaming telemetry summary (windows, SLO breaches, flight-recorder
    /// dumps), when [`ServeOptions::telemetry`](super::ServeOptions::telemetry)
    /// armed it.
    pub telemetry: Option<TelemetryReport>,
    /// Deepest the dispatch queue got during the drain — with a
    /// [`ServeOptions::queue_cap`](super::ServeOptions::queue_cap) this
    /// never exceeds the cap, the
    /// bounded-memory guarantee of backpressure.
    pub peak_queue_depth: usize,
}

impl ServeReport {
    /// Number of outcomes in the given terminal state.
    fn count(&self, pred: impl Fn(&RequestStatus) -> bool) -> usize {
        self.outcomes.iter().filter(|o| pred(&o.status)).count()
    }

    /// Completed requests.
    pub fn completed(&self) -> usize {
        self.count(|s| matches!(s, RequestStatus::Completed(_)))
    }

    /// Requests refused at submission.
    pub fn rejected(&self) -> usize {
        self.count(|s| matches!(s, RequestStatus::Rejected { .. }))
    }

    /// Requests that blew their deadline.
    pub fn timed_out(&self) -> usize {
        self.count(|s| matches!(s, RequestStatus::TimedOut { .. }))
    }

    /// Requests that failed after any retry.
    pub fn failed(&self) -> usize {
        self.count(|s| matches!(s, RequestStatus::Failed(_)))
    }

    /// Requests that completed on the host after pool-wide quarantine.
    pub fn host_fallbacks(&self) -> usize {
        self.outcomes.iter().filter(|o| o.host_fallback).count()
    }

    /// Requests that coalesced onto an identical queued request.
    pub fn coalesced(&self) -> usize {
        self.outcomes.iter().filter(|o| o.coalesced).count()
    }

    /// Aggregate throughput of *device* work over the device makespan, in
    /// GFLOP/s: [`total_flops`](ServeReport::total_flops) per second of
    /// [`makespan`](ServeReport::makespan). Host-fallback work is excluded
    /// from both numerator and denominator — when the whole pool
    /// quarantines this reports `0`, not a division of host flops by a
    /// near-zero device makespan.
    pub fn throughput_gflops(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs > 0.0 {
            self.total_flops / secs / 1e9
        } else {
            0.0
        }
    }

    /// Mean device utilisation over the makespan, in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        let span = self.makespan.as_secs_f64();
        if span <= 0.0 || self.per_device_busy.is_empty() {
            return 0.0;
        }
        let busy: f64 = self.per_device_busy.iter().map(|t| t.as_secs_f64()).sum();
        busy / (span * self.per_device_busy.len() as f64)
    }

    /// Human-readable summary: per-request lines plus aggregates.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            let dev = match o.device {
                Some(d) => format!("dev{d}"),
                None if o.host_fallback => "host".to_owned(),
                None => "-".to_owned(),
            };
            let retried = if o.retries > 0 {
                format!(" (retries={})", o.retries)
            } else if o.coalesced {
                " (coalesced)".to_owned()
            } else {
                String::new()
            };
            match &o.status {
                RequestStatus::Completed(r) => {
                    // Host runs never tiled, so rendering their fabricated
                    // `tile: 0` as a real tiling size would be misleading.
                    let tile = if o.host_fallback {
                        "-".to_owned()
                    } else {
                        r.tile.to_string()
                    };
                    let _ = writeln!(
                        out,
                        "{:<8} {:<6} {:<5} completed  T={tile:<5} {:>9.3} ms {:>8.1} GF/s{retried}",
                        o.id.to_string(),
                        o.routine,
                        dev,
                        r.elapsed.as_secs_f64() * 1e3,
                        r.gflops(),
                    );
                }
                RequestStatus::Rejected { reason } => {
                    let _ = writeln!(
                        out,
                        "{:<8} {:<6} {:<5} rejected   {reason}",
                        o.id.to_string(),
                        o.routine,
                        dev
                    );
                }
                RequestStatus::TimedOut {
                    deadline, elapsed, ..
                } => {
                    let _ = writeln!(
                        out,
                        "{:<8} {:<6} {:<5} timed-out  {:.3} ms > {:.3} ms budget{retried}",
                        o.id.to_string(),
                        o.routine,
                        dev,
                        elapsed * 1e3,
                        deadline * 1e3,
                    );
                }
                RequestStatus::Failed(e) => {
                    let _ = writeln!(
                        out,
                        "{:<8} {:<6} {:<5} failed     {e}{retried}",
                        o.id.to_string(),
                        o.routine,
                        dev
                    );
                }
            }
        }
        let coalesced = if self.coalesced() > 0 {
            format!(" coalesced {}", self.coalesced())
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "requests {} | completed {} rejected {} timed-out {} failed {}{coalesced}",
            self.outcomes.len(),
            self.completed(),
            self.rejected(),
            self.timed_out(),
            self.failed(),
        );
        let _ = writeln!(
            out,
            "makespan {:.3} ms | throughput {:.1} GFLOP/s | occupancy {:.1}%",
            self.makespan.as_secs_f64() * 1e3,
            self.throughput_gflops(),
            self.occupancy() * 1e2,
        );
        if !self.quarantined.is_empty() || self.host_fallbacks() > 0 {
            let devs: Vec<String> = self.quarantined.iter().map(|d| format!("dev{d}")).collect();
            let host = if self.host_fallbacks() > 0 {
                format!(
                    " ({:.2} GFLOP in {:.3} ms on host)",
                    self.host_flops / 1e9,
                    self.host_time.as_secs_f64() * 1e3,
                )
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "quarantined [{}] | host fallbacks {}{host}",
                devs.join(", "),
                self.host_fallbacks(),
            );
        }
        if !self.drift.records().is_empty() {
            out.push_str(&self.drift.render());
        }
        if self.trace_dropped > 0 {
            let kept = self.trace.as_ref().map(|t| t.spans.len()).unwrap_or(0);
            let _ = writeln!(
                out,
                "trace capped: {} oldest spans dropped ({kept} kept)",
                self.trace_dropped,
            );
        }
        if let Some(tele) = &self.telemetry {
            out.push_str(&tele.render());
        }
        out
    }
}
