//! Pluggable queue-scheduling policies for the [`ServeSession`].
//!
//! The executor drains its queue through a [`SchedulePolicy`], which
//! decides *which* queued request is dispatched next and (for the
//! prediction-guided policy) *where*:
//!
//! * [`Fifo`](SchedulePolicy::Fifo) — strict submission order, the
//!   baseline behaviour. The device is chosen by the bounded-affinity
//!   ready-time heuristic alone (clock + re-upload cost of missing shared
//!   operands).
//! * [`Edf`](SchedulePolicy::Edf) — earliest-deadline-first: the queued
//!   request with the smallest deadline runs next; deadline-less requests
//!   run after every deadline-carrying one, in submission order. Device
//!   choice is as for FIFO. Because deadlines are judged on *flow time*
//!   (device clock at completion, queue wait included), reordering the
//!   queue is exactly what saves a tight deadline stuck behind bulk work.
//! * [`Predictive`](SchedulePolicy::Predictive) — the paper's models close
//!   the loop: for a queued request on a healthy device the executor
//!   estimates completion = device clock + h2d time of non-resident shared
//!   operands + model-predicted offload time
//!   ([`SystemProfile::predict_offload`](cocopelia_core::SystemProfile::predict_offload)
//!   on the device's deployed profile). Each request is costed at its best
//!   device, and the request with the *largest* best-completion is
//!   dispatched there first — longest-processing-time list scheduling,
//!   which keeps one straggler from landing on an already-loaded device at
//!   the end and stretching the pool makespan. Residency-affine requests
//!   still batch naturally: a device holding the operands wins the
//!   request's best-device slot until its backlog outweighs the re-upload
//!   saving. The offload prediction comes from a per-device table filled
//!   once per distinct request shape, and requests of one class (same
//!   shape, same shared operands) cost the same, so a pick scores only
//!   each class's oldest request: O(classes × healthy devices) per pick,
//!   with ties broken exactly as a scan of the whole queue in order would.
//!
//! Every policy records predicted-vs-actual per dispatch (the
//! `sched_predict_abs_err` histogram and the report's drift table)
//! whenever the device profile can predict the request, so the three
//! policies are comparable on the same misprediction accounting.
//!
//! [`ServeSession`]: crate::serve::ServeSession

use std::fmt;

/// Queue-scheduling policy of the serving executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// Strict submission order (the default baseline).
    #[default]
    Fifo,
    /// Earliest-deadline-first; deadline-less requests after, in
    /// submission order.
    Edf,
    /// Model-predicted completion time of each request at its best
    /// device, dispatched longest-first to minimise pool makespan.
    Predictive,
}

impl SchedulePolicy {
    /// Canonical lowercase name, as accepted by [`parse`](Self::parse)
    /// and used as the metrics suffix (`sched_predict_abs_err_fifo`, …).
    pub fn name(self) -> &'static str {
        match self {
            SchedulePolicy::Fifo => "fifo",
            SchedulePolicy::Edf => "edf",
            SchedulePolicy::Predictive => "predictive",
        }
    }

    /// Name of the policy's predicted-vs-actual histogram:
    /// `sched_predict_abs_err_` followed by [`name`](Self::name).
    pub(crate) fn abs_err_metric(self) -> &'static str {
        match self {
            SchedulePolicy::Fifo => "sched_predict_abs_err_fifo",
            SchedulePolicy::Edf => "sched_predict_abs_err_edf",
            SchedulePolicy::Predictive => "sched_predict_abs_err_predictive",
        }
    }

    /// Parses a policy name (`fifo`, `edf`, `predictive`;
    /// case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown policy and the accepted set.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "fifo" => Ok(SchedulePolicy::Fifo),
            "edf" => Ok(SchedulePolicy::Edf),
            "predictive" => Ok(SchedulePolicy::Predictive),
            other => Err(format!(
                "unknown policy `{other}` (expected fifo, edf, or predictive)"
            )),
        }
    }
}

impl fmt::Display for SchedulePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for p in [
            SchedulePolicy::Fifo,
            SchedulePolicy::Edf,
            SchedulePolicy::Predictive,
        ] {
            assert_eq!(SchedulePolicy::parse(p.name()), Ok(p));
            assert_eq!(p.to_string(), p.name());
            assert_eq!(
                p.abs_err_metric(),
                format!("sched_predict_abs_err_{}", p.name())
            );
        }
        assert_eq!(
            SchedulePolicy::parse("EDF"),
            Ok(SchedulePolicy::Edf),
            "parsing is case-insensitive"
        );
    }

    #[test]
    fn default_is_fifo_and_unknown_names_error() {
        assert_eq!(SchedulePolicy::default(), SchedulePolicy::Fifo);
        let err = SchedulePolicy::parse("sjf").expect_err("unknown policy");
        assert!(err.contains("sjf"), "{err}");
        assert!(err.contains("predictive"), "{err}");
    }
}
