//! The benchmark's metric sets. Every workload prints every metric of the
//! set its mode asks for; a per-layer metric a workload never exercises
//! reads 0 (e.g. prefetch counts on the routine sweep).

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (repetitions for host times, requests or
    /// calls for virtual distributions, 1 for a single deterministic
    /// reading).
    pub samples: usize,
}

/// End-to-end metrics: what a user of the system sees.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub setup_reps: usize,
    pub host_req_per_s: f64,
    pub host_reps: usize,
    pub peak_rss_mb: f64,
    pub virt_makespan_ms: f64,
    pub virt_gflops: f64,
    pub flow_p50_ms: f64,
    pub flow_p99_ms: f64,
    pub flow_samples: usize,
    pub fail_frac: f64,
    pub attempted: usize,
    pub pred_err_pct: f64,
    pub pred_samples: usize,
    pub tile_regret_pct: f64,
    pub regret_shapes: usize,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name, value, unit, samples| Metric {
            name,
            value,
            unit,
            samples,
        };
        vec![
            m("setup_s", self.setup_s, "s", self.setup_reps),
            m("host_req_per_s", self.host_req_per_s, "1/s", self.host_reps),
            m("peak_rss_mb", self.peak_rss_mb, "MiB", 1),
            m("virt_makespan_ms", self.virt_makespan_ms, "ms", 1),
            m("virt_gflops", self.virt_gflops, "GFLOP/s", 1),
            m("flow_p50_ms", self.flow_p50_ms, "ms", self.flow_samples),
            m("flow_p99_ms", self.flow_p99_ms, "ms", self.flow_samples),
            m("fail_frac", self.fail_frac, "fraction", self.attempted),
            m("pred_err_pct", self.pred_err_pct, "%", self.pred_samples),
            m(
                "tile_regret_pct",
                self.tile_regret_pct,
                "%",
                self.regret_shapes,
            ),
        ]
    }
}

/// Per-layer metrics, measured from outside each layer's public calls.
#[derive(Debug, Clone, Default)]
pub struct PerLayer {
    pub deploy_host_s: f64,
    pub deploy_exec_points: f64,
    pub core_predict_us: f64,
    pub core_candidates: f64,
    pub core_err_pct_bts: f64,
    pub core_err_pct_dr: f64,
    pub core_bias_pct_bts: f64,
    pub core_bias_pct_dr: f64,
    pub sched_subkernels: f64,
    pub sched_tile_hit_rate: f64,
    pub gpusim_host_us_per_subkernel: f64,
    pub gpusim_overlap_x: f64,
    pub gpusim_busy_ms_h2d: f64,
    pub gpusim_busy_ms_exec: f64,
    pub gpusim_busy_ms_d2h: f64,
    pub serve_submit_s: f64,
    pub serve_drain_s: f64,
    pub serve_dispatch_s: f64,
    pub serve_queue_depth_p99: f64,
    pub residency_hit_rate: f64,
    pub residency_upload_mb: f64,
    pub prefetch_issued: f64,
    pub prefetch_hit_ratio: f64,
    pub prefetch_staged_mb: f64,
    pub defense_hedges: f64,
    pub defense_hedge_win_ratio: f64,
    pub telemetry_windows: f64,
    pub telemetry_overhead_frac: f64,
    pub obs_spans: f64,
    pub obs_trace_overhead_frac: f64,
}

impl PerLayer {
    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name, value, unit| Metric {
            name,
            value,
            unit,
            samples: 1,
        };
        vec![
            m("deploy.host_s", self.deploy_host_s, "s"),
            m("deploy.exec_points", self.deploy_exec_points, "count"),
            m("core.predict_us", self.core_predict_us, "us"),
            m("core.candidates", self.core_candidates, "count"),
            m("core.err_pct.bts", self.core_err_pct_bts, "%"),
            m("core.err_pct.dr", self.core_err_pct_dr, "%"),
            m("core.bias_pct.bts", self.core_bias_pct_bts, "%"),
            m("core.bias_pct.dr", self.core_bias_pct_dr, "%"),
            m("sched.subkernels", self.sched_subkernels, "count"),
            m("sched.tile_hit_rate", self.sched_tile_hit_rate, "fraction"),
            m(
                "gpusim.host_us_per_subkernel",
                self.gpusim_host_us_per_subkernel,
                "us",
            ),
            m("gpusim.overlap_x", self.gpusim_overlap_x, "x"),
            m("gpusim.busy_ms.h2d", self.gpusim_busy_ms_h2d, "ms"),
            m("gpusim.busy_ms.exec", self.gpusim_busy_ms_exec, "ms"),
            m("gpusim.busy_ms.d2h", self.gpusim_busy_ms_d2h, "ms"),
            m("serve.submit_s", self.serve_submit_s, "s"),
            m("serve.drain_s", self.serve_drain_s, "s"),
            m("serve.dispatch_s", self.serve_dispatch_s, "s"),
            m("serve.queue_depth_p99", self.serve_queue_depth_p99, "count"),
            m("residency.hit_rate", self.residency_hit_rate, "fraction"),
            m("residency.upload_mb", self.residency_upload_mb, "MiB"),
            m("prefetch.issued", self.prefetch_issued, "count"),
            m("prefetch.hit_ratio", self.prefetch_hit_ratio, "fraction"),
            m("prefetch.staged_mb", self.prefetch_staged_mb, "MiB"),
            m("defense.hedges", self.defense_hedges, "count"),
            m(
                "defense.hedge_win_ratio",
                self.defense_hedge_win_ratio,
                "fraction",
            ),
            m("telemetry.windows", self.telemetry_windows, "count"),
            m(
                "telemetry.overhead_frac",
                self.telemetry_overhead_frac,
                "fraction",
            ),
            m("obs.spans", self.obs_spans, "count"),
            m(
                "obs.trace_overhead_frac",
                self.obs_trace_overhead_frac,
                "fraction",
            ),
        ]
    }
}

/// Engine busy totals of a set of routine reports, for the gpusim rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    pub h2d_ns: u64,
    pub exec_ns: u64,
    pub d2h_ns: u64,
    pub union_ns: u64,
    pub subkernels: usize,
    pub tile_hits: u64,
    pub tile_fetches: u64,
}

impl Busy {
    pub fn add(&mut self, r: &cocopelia_runtime::RoutineReport) {
        self.h2d_ns += r.overlap.h2d_busy_ns;
        self.exec_ns += r.overlap.exec_busy_ns;
        self.d2h_ns += r.overlap.d2h_busy_ns;
        self.union_ns += r.overlap.union_busy_ns;
        self.subkernels += r.subkernels;
        self.tile_hits += r.tile_hits;
        self.tile_fetches += r.tile_hits + r.tile_misses;
    }

    pub fn merge(&mut self, o: &Busy) {
        self.h2d_ns += o.h2d_ns;
        self.exec_ns += o.exec_ns;
        self.d2h_ns += o.d2h_ns;
        self.union_ns += o.union_ns;
        self.subkernels += o.subkernels;
        self.tile_hits += o.tile_hits;
        self.tile_fetches += o.tile_fetches;
    }

    /// Fills the scheduler and gpusim rows per session, for totals over
    /// `sessions` sessions; `host_s` is one session's measured host time.
    pub fn fill(&self, pl: &mut PerLayer, host_s: f64, sessions: usize) {
        use crate::stats::ratio;
        let per = |v: f64| v / sessions as f64;
        pl.sched_subkernels = per(self.subkernels as f64);
        pl.sched_tile_hit_rate = ratio(self.tile_hits as f64, self.tile_fetches as f64);
        pl.gpusim_host_us_per_subkernel = ratio(host_s * 1e6, pl.sched_subkernels);
        pl.gpusim_overlap_x = ratio(
            (self.h2d_ns + self.exec_ns + self.d2h_ns) as f64,
            self.union_ns as f64,
        );
        pl.gpusim_busy_ms_h2d = per(self.h2d_ns as f64 * 1e-6);
        pl.gpusim_busy_ms_exec = per(self.exec_ns as f64 * 1e-6);
        pl.gpusim_busy_ms_d2h = per(self.d2h_ns as f64 * 1e-6);
    }
}

/// Running sums of drift records' relative errors, so the benchmark keeps
/// three numbers per model instead of every record.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriftSum {
    abs: f64,
    signed: f64,
    pub n: usize,
}

impl DriftSum {
    pub fn of<'a>(recs: impl IntoIterator<Item = &'a cocopelia_obs::DriftRecord>) -> Self {
        let mut s = DriftSum::default();
        for r in recs {
            s.abs += r.abs_rel_err();
            s.signed += r.signed_rel_err();
            s.n += 1;
        }
        s
    }

    pub fn merge(&mut self, o: &DriftSum) {
        self.abs += o.abs;
        self.signed += o.signed;
        self.n += o.n;
    }

    /// Mean absolute and mean signed relative error, in percent (0 when
    /// there are no records).
    pub fn pct(&self) -> (f64, f64) {
        use crate::stats::ratio;
        (
            100.0 * ratio(self.abs, self.n as f64),
            100.0 * ratio(self.signed, self.n as f64),
        )
    }
}
