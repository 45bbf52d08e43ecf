//! Admission control: the footprint ceiling, scheduled open arrivals,
//! backpressure (queue cap and predicted-flow shed watermark), coalescing
//! of identical queued shapes, and the queued service backlog the
//! watermark reads.

use crate::ctx::RoutineReport;
use crate::error::RequestId;
use crate::request::RoutineRequest;
use cocopelia_gpusim::SimTime;
use std::collections::{HashMap, VecDeque};

use super::queue::{Queued, ShapeId};
use super::session::QUEUE_DEPTH_BOUNDS;
use super::{RequestOutcome, RequestStatus, ServeSession};

/// A request coalesced onto a queued leader: it never executes itself,
/// but completes (against its own arrival time and deadline) when the
/// leader does.
#[derive(Debug, Clone)]
pub(super) struct Follower {
    id: RequestId,
    arrival_ns: u64,
    deadline: Option<f64>,
}

/// What admission decided for one open arrival.
enum Verdict {
    /// Refused at the arrival instant. `backpressure` distinguishes load
    /// shedding (queue cap, flow watermark — counted in
    /// `serve_shed_total`) from the static footprint ceiling.
    Shed { reason: String, backpressure: bool },
    /// Rides on this queued leader's single execution.
    Coalesced(RequestId),
    /// Joins the dispatch queue.
    Enqueue,
}

/// Admission state of a session: scheduled arrivals plus the per-drain
/// backpressure and coalescing bookkeeping.
#[derive(Debug, Default)]
pub(super) struct Admission {
    /// Open-arrival events not yet due, sorted by arrival offset (virtual
    /// ns past the next drain's start), ties in submission order.
    arrivals: VecDeque<(RequestId, RoutineRequest, u64)>,
    /// Arrival offset (ns past drain start) per open-arrival request id;
    /// closed-queue submissions are absent (offset zero).
    offsets: HashMap<u64, u64>,
    /// Bounded-queue backpressure: an arrival finding the queue at this
    /// depth is shed.
    queue_cap: Option<usize>,
    /// Load-shed watermark: an arrival whose predicted flow time (queue
    /// backlog spread over healthy devices plus its own service estimate)
    /// exceeds this many seconds is shed.
    shed_flow_secs: Option<f64>,
    /// Request coalescing for identical problem shapes (open arrivals
    /// only).
    coalesce: bool,
    /// Coalesce key of each *queued* request that can lead a coalition.
    leaders: HashMap<String, RequestId>,
    /// Leader id → requests riding on its execution.
    followers: HashMap<u64, Vec<Follower>>,
    /// Estimated service seconds queued, maintained only while the
    /// flow-time watermark is armed.
    backlog_secs: f64,
    /// Backlog seconds each queued request contributed at admission, so
    /// the dispatch-time decrement returns exactly what admission added
    /// even when residency (and thus the estimate) changed in between.
    backlog_contrib: HashMap<u64, f64>,
}

/// Rejection reason for the footprint admission ceiling — shared by the
/// closed-queue and open-arrival admission paths so the two reject
/// identically.
fn footprint_reason(footprint: usize, limit: usize, frac: f64) -> String {
    format!(
        "footprint {footprint} B exceeds admission limit {limit} B \
         ({:.0}% of device memory)",
        frac * 1e2
    )
}

impl Admission {
    pub(super) fn new(
        queue_cap: Option<usize>,
        shed_flow_secs: Option<f64>,
        coalesce: bool,
    ) -> Self {
        Admission {
            queue_cap,
            shed_flow_secs: shed_flow_secs.filter(|s| *s > 0.0),
            coalesce,
            ..Admission::default()
        }
    }

    /// Schedules an open arrival `at_ns` past the next drain's start,
    /// after every arrival scheduled at or before the same instant.
    pub(super) fn schedule(&mut self, id: RequestId, req: RoutineRequest, at_ns: u64) {
        let pos = self.arrivals.partition_point(|a| a.2 <= at_ns);
        self.arrivals.insert(pos, (id, req, at_ns));
    }

    /// Open arrivals scheduled but not yet due.
    pub(super) fn pending(&self) -> usize {
        self.arrivals.len()
    }

    /// Arrival offset of the next scheduled arrival, if any.
    pub(super) fn next_at(&self) -> Option<u64> {
        self.arrivals.front().map(|a| a.2)
    }

    /// Arrival offset (ns past drain start) of request `id`; zero for
    /// closed-queue submissions.
    pub(super) fn arrival_ns(&self, id: u64) -> u64 {
        self.offsets.get(&id).copied().unwrap_or(0)
    }

    /// Whether requests coalesced onto `leader` wait for its completion.
    pub(super) fn has_followers(&self, leader: RequestId) -> bool {
        self.followers.contains_key(&leader.0)
    }

    /// Request `id` leaves the queue for dispatch: it can no longer lead a
    /// coalition, and its backlog contribution is returned. Yields the
    /// request's arrival offset.
    fn on_dispatch(&mut self, id: RequestId, req: &RoutineRequest) -> u64 {
        if self.coalesce {
            if let Some(key) = req.coalesce_key() {
                // A later identical arrival starts a fresh coalition.
                if self.leaders.get(&key) == Some(&id) {
                    self.leaders.remove(&key);
                }
            }
        }
        if self.shed_flow_secs.is_some() {
            // Return exactly the contribution admission recorded:
            // re-estimating here would leak residue into the backlog
            // whenever residency warmed (or cooled) while the request
            // waited.
            let est = self.backlog_contrib.remove(&id.0).unwrap_or(0.0);
            self.backlog_secs = (self.backlog_secs - est).max(0.0);
        }
        self.arrival_ns(id.0)
    }

    /// Admission at the arrival instant: footprint ceiling, bounded-queue
    /// shed, flow-time watermark shed (`estimate` prices the request's
    /// service time, and is only called while the watermark is armed),
    /// coalescing onto a queued identical request, or enqueue.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &mut self,
        id: RequestId,
        req: &RoutineRequest,
        at_ns: u64,
        queue_len: usize,
        limit: usize,
        admission_frac: f64,
        healthy: usize,
        estimate: impl Fn() -> f64,
    ) -> Verdict {
        self.offsets.insert(id.0, at_ns);
        let footprint = req.footprint_bytes();
        if footprint > limit {
            return Verdict::Shed {
                reason: footprint_reason(footprint, limit, admission_frac),
                backpressure: false,
            };
        }
        if let Some(cap) = self.queue_cap {
            if queue_len >= cap {
                return Verdict::Shed {
                    reason: format!("queue full: depth {queue_len} at cap {cap}"),
                    backpressure: true,
                };
            }
        }
        let est = self.shed_flow_secs.map(|watermark| (watermark, estimate()));
        if let Some((watermark, est)) = est {
            let predicted = self.backlog_secs / healthy.max(1) as f64 + est;
            if predicted > watermark {
                return Verdict::Shed {
                    reason: format!(
                        "predicted flow {:.3} ms exceeds shed watermark {:.3} ms",
                        predicted * 1e3,
                        watermark * 1e3
                    ),
                    backpressure: true,
                };
            }
        }
        if self.coalesce {
            if let Some(key) = req.coalesce_key() {
                if let Some(&leader) = self.leaders.get(&key) {
                    // Identical shape already queued: ride on its single
                    // execution instead of uploading and running again.
                    self.followers.entry(leader.0).or_default().push(Follower {
                        id,
                        arrival_ns: at_ns,
                        deadline: req.deadline(),
                    });
                    return Verdict::Coalesced(leader);
                }
                self.leaders.insert(key, id);
            }
        }
        if let Some((_, est)) = est {
            self.backlog_secs += est;
            self.backlog_contrib.insert(id.0, est);
        }
        Verdict::Enqueue
    }

    /// Per-drain reset: every scheduled arrival has reached a terminal
    /// outcome by drain end.
    pub(super) fn end_drain(&mut self) {
        self.offsets.clear();
        self.leaders.clear();
        self.followers.clear();
        self.backlog_secs = 0.0;
        self.backlog_contrib.clear();
    }
}

impl ServeSession {
    /// The footprint admission ceiling, from the *smallest* device in the
    /// pool so an admitted request fits whichever device dispatch picks
    /// ([`MultiGpu`](crate::MultiGpu) pools are homogeneous today, making
    /// this the only capacity; a heterogeneous pool stays safe but
    /// under-admits).
    fn admission_limit(&self) -> usize {
        let cap = self
            .pool
            .devices()
            .iter()
            .map(|d| d.gpu().device_mem_capacity())
            .min()
            .expect("at least one device");
        (cap as f64 * self.cfg.admission_frac.clamp(0.0, 1.0)) as usize
    }

    /// Closed-queue admission at submission: the footprint ceiling, or
    /// straight into the queue.
    pub(super) fn admit_now(&mut self, id: RequestId, req: RoutineRequest) {
        let limit = self.admission_limit();
        let footprint = req.footprint_bytes();
        if footprint > limit {
            self.metrics.counter_add("serve_rejected_total", 1);
            self.outcomes.push(RequestOutcome {
                id,
                routine: req.routine(),
                device: None,
                status: RequestStatus::Rejected {
                    reason: footprint_reason(footprint, limit, self.cfg.admission_frac),
                },
                retries: 0,
                host_fallback: false,
                coalesced: false,
            });
            return;
        }
        let shape = self.intern_shape(&req);
        self.enqueue(id, req, shape);
    }

    /// The shape of `req` in the session's prediction table, predicting
    /// it on every device the first time it is seen.
    fn intern_shape(&mut self, req: &RoutineRequest) -> ShapeId {
        self.shapes.intern(req, &self.pool, &mut self.metrics)
    }

    /// Appends an admitted request to the dispatch queue. Depth is
    /// sampled on admission (and again at each dispatch), so burst
    /// arrivals are visible even if the queue drains quickly.
    fn enqueue(&mut self, id: RequestId, req: RoutineRequest, shape: ShapeId) {
        self.queue.push(id, req, shape);
        self.peak_queue = self.peak_queue.max(self.queue.len());
        self.metrics.histogram_observe(
            "serve_queue_depth",
            &QUEUE_DEPTH_BOUNDS,
            self.queue.len() as f64,
        );
    }

    /// Admits every scheduled arrival with offset `<= now_ns`, in arrival
    /// order.
    pub(super) fn admit_due(&mut self, now_ns: u64, start: &[SimTime]) {
        while self
            .admission
            .arrivals
            .front()
            .is_some_and(|a| a.2 <= now_ns)
        {
            let (id, req, at_ns) = self.admission.arrivals.pop_front().expect("front checked");
            self.admit_arrival(id, req, at_ns, start);
        }
    }

    /// Pulls the next request per the active policy and releases its
    /// admission bookkeeping; the fourth element is its arrival offset.
    pub(super) fn next_admitted(&mut self) -> Option<(Queued, Option<usize>, u64)> {
        let (queued, preferred) = self.next_dispatch()?;
        let arrival_ns = self.admission.on_dispatch(queued.id, &queued.req);
        Some((queued, preferred, arrival_ns))
    }

    /// Open-arrival admission at the arrival instant, applying the
    /// [`Admission`] verdict.
    fn admit_arrival(&mut self, id: RequestId, req: RoutineRequest, at_ns: u64, start: &[SimTime]) {
        let t0 = start.iter().map(|t| t.as_nanos()).min().unwrap_or(0);
        let abs_ns = t0 + at_ns;
        if let Some(t) = self.tracer.as_mut() {
            t.arrive(id.0, abs_ns);
        }
        let limit = self.admission_limit();
        let healthy = self.quarantined.iter().filter(|&&q| !q).count();
        let shape = self.intern_shape(&req);
        let mut admission = std::mem::take(&mut self.admission);
        let verdict = admission.admit(
            id,
            &req,
            at_ns,
            self.queue.len(),
            limit,
            self.cfg.admission_frac,
            healthy,
            || self.service_estimate(shape, &req),
        );
        self.admission = admission;
        match verdict {
            Verdict::Shed {
                reason,
                backpressure,
            } => {
                self.metrics.counter_add("serve_rejected_total", 1);
                if backpressure {
                    self.metrics.counter_add("serve_shed_total", 1);
                }
                if let Some(t) = self.tracer.as_mut() {
                    t.reject(id.0, abs_ns, &reason);
                }
                let outcome = RequestOutcome {
                    id,
                    routine: req.routine(),
                    device: None,
                    status: RequestStatus::Rejected { reason },
                    retries: 0,
                    host_fallback: false,
                    coalesced: false,
                };
                self.record(outcome, start, &[]);
            }
            Verdict::Coalesced(leader) => {
                self.metrics.counter_add("serve_coalesced_total", 1);
                if let Some(t) = self.tracer.as_mut() {
                    t.coalesce(id.0, leader.0, abs_ns);
                }
            }
            Verdict::Enqueue => self.enqueue(id, req, shape),
        }
    }

    /// Service-time estimate of a request for the flow-time shed
    /// watermark: the *best* healthy device's cost — the h2d time of the
    /// shared operands that device is actually missing (residency-aware,
    /// at effective link bandwidth) plus its model offload estimate. A
    /// warm repeat request therefore prices near its compute time instead
    /// of being charged cold uploads it will never perform. When the
    /// whole pool is quarantined the estimate falls back to cold device-0
    /// pricing (the arrival would run on the host; the figure only feeds
    /// the watermark). Residency changes between admission and dispatch
    /// are reconciled through the recorded backlog contribution.
    fn service_estimate(&self, shape: ShapeId, req: &RoutineRequest) -> f64 {
        let mut best = f64::INFINITY;
        for d in 0..self.pool.device_count() {
            if self.quarantined[d] {
                continue;
            }
            let cost =
                self.upload_estimate(d, req) + self.shapes.get(shape, d).map_or(0.0, |p| p.total);
            if cost < best {
                best = cost;
            }
        }
        if best.is_finite() {
            return best;
        }
        let h2d = self.pool.devices()[0].gpu().spec().link.h2d;
        let upload: f64 = req
            .shared_footprints()
            .iter()
            .map(|&(_, bytes)| h2d.ideal_time(bytes))
            .sum();
        upload + self.shapes.get(shape, 0).map_or(0.0, |p| p.total)
    }

    /// Completes every follower coalesced onto `leader` at the leader's
    /// completion instant. Each follower gets a copy of the leader's
    /// report judged against the follower's *own* arrival time and
    /// deadline: a follower that arrived later has a shorter flow and may
    /// meet a deadline the leader missed — and vice versa. A failed
    /// leader fails its followers with the same error.
    pub(super) fn fan_out_followers(&mut self, leader: &RequestOutcome, start: &[SimTime]) {
        let Some(followers) = self.admission.followers.remove(&leader.id.0) else {
            return;
        };
        let device = leader.device.filter(|_| !leader.host_fallback);
        let end_ns = match device {
            Some(d) => self.pool.devices()[d].gpu().now().as_nanos(),
            None => self.tracer.as_ref().map(|t| t.host_now_ns()).unwrap_or(0),
        };
        for f in followers {
            let status = match &leader.status {
                RequestStatus::Completed(r) => self.follower_status(device, r, &f, start),
                RequestStatus::TimedOut { report, .. } => {
                    self.follower_status(device, report, &f, start)
                }
                RequestStatus::Failed(e) => RequestStatus::Failed(e.clone()),
                RequestStatus::Rejected { reason } => RequestStatus::Rejected {
                    reason: reason.clone(),
                },
            };
            if let Some(t) = self.tracer.as_mut() {
                t.complete(f.id.0, end_ns, status.label());
            }
            let outcome = RequestOutcome {
                id: f.id,
                routine: leader.routine,
                device: leader.device,
                status,
                retries: 0,
                host_fallback: leader.host_fallback,
                coalesced: true,
            };
            self.record(outcome, start, &[]);
        }
    }

    /// Terminal status of one follower given its leader's report and
    /// serving device (`None` on the host): the follower's flow time
    /// (leader completion minus the follower's own arrival) judged
    /// against the follower's own deadline.
    fn follower_status(
        &self,
        device: Option<usize>,
        report: &RoutineReport,
        f: &Follower,
        start: &[SimTime],
    ) -> RequestStatus {
        let flow = match device {
            Some(d) => self.flow_secs(d, start, f.arrival_ns),
            None => report.elapsed.as_secs_f64(),
        };
        match f.deadline {
            Some(dl) if flow > dl => RequestStatus::TimedOut {
                deadline: dl,
                elapsed: flow,
                report: Box::new(report.clone()),
            },
            _ => RequestStatus::Completed(report.clone()),
        }
    }
}
