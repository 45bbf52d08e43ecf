//! The serving workloads: the small mixed mix on a 4-device Testbed I
//! pool, drained through `ServeSession`.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::{Duration, Instant};

use cocopelia_core::{ModelCtx, ModelKind, ProblemSpec, SystemProfile, TileSelector};
use cocopelia_gpusim::{testbed_i, ExecMode, Gpu, SimTime, TestbedSpec};
use cocopelia_obs::{ServeTrace, SpanPhase};
use cocopelia_runtime::serve::{
    ExecutorConfig, HedgeConfig, SchedulePolicy, ServeOptions, ServeReport, ServeSession,
    TelemetryConfig,
};
use cocopelia_runtime::{Cocopelia, MultiGpu, RoutineRequest, TileChoice};

use crate::metrics::{Busy, DriftSum, EndToEnd, PerLayer};
use crate::spans::Spans;
use crate::stats::{mean, median, percentile, ratio};
use crate::{checks, inputs, Args, Outcome};

/// One serving workload.
#[derive(Debug)]
pub struct Config {
    /// Queue-scheduling policy of the measured sessions.
    pub policy: SchedulePolicy,
    /// Requests per session.
    pub requests: usize,
    /// Seeded Poisson arrival rate (requests per virtual second); `None`
    /// submits a closed queue.
    pub arrival_hz: Option<f64>,
    /// Arms what a production session runs with: prefetch,
    /// `HedgeConfig::default()`, and telemetry windows sent to a sink
    /// that discards them.
    pub production: bool,
    /// Independent seeded input sets per run; virtual metrics pool them.
    pub sets: usize,
}

/// Closed queue under Predictive dispatch: dispatch scoring dominates host
/// time, so a dispatch fix shows in `host_req_per_s` here.
pub const SMALL_PREDICTIVE: Config = Config {
    policy: SchedulePolicy::Predictive,
    requests: 1024,
    arrival_hz: None,
    production: false,
    sets: 1,
};

/// Open Poisson arrivals under FIFO with the production arms on, at about
/// 78% of the pool's closed-queue FIFO capacity (~5,800 req/s virtual).
/// At 85% the flow tail of a few virtual seconds swings by ±30% from seed
/// to seed; 32 independent sets of 4096 arrivals keep it steady.
pub const OPEN_FIFO: Config = Config {
    policy: SchedulePolicy::Fifo,
    requests: 4096,
    arrival_hz: Some(4500.0),
    production: true,
    sets: 32,
};

const DEVICES: usize = 4;
const POOL_SEED: u64 = 42;
const MIB: f64 = (1u64 << 20) as f64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// The measured configuration, untraced.
    Plain,
    /// The measured configuration with an uncapped `ServeTrace`.
    Traced,
    /// The measured configuration under FIFO.
    Fifo,
    /// Production arms without telemetry.
    NoTelemetry,
}

impl Variant {
    fn span_names(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Variant::Plain => ("session", "submit", "drain"),
            Variant::Traced => ("session.traced", "submit.traced", "drain.traced"),
            Variant::Fifo => ("session.fifo", "submit.fifo", "drain.fifo"),
            Variant::NoTelemetry => (
                "session.no_telemetry",
                "submit.no_telemetry",
                "drain.no_telemetry",
            ),
        }
    }
}

struct Inputs {
    requests: Vec<RoutineRequest>,
    arrivals: Option<Vec<SimTime>>,
}

/// Input set `j` of a run seeded with `seed`; `service` is each mix
/// routine's predicted time. Every request's flow budget is
/// [`crate::BUDGET_X`] times its quoted flow on the pool. Sets are rebuilt
/// from their seed for each session that uses them, so only one is alive
/// at a time.
fn input_set(cfg: &Config, seed: u64, j: usize, service: &[f64; 4]) -> Inputs {
    let seed = seed.wrapping_mul(64).wrapping_add(j as u64);
    let arrivals = cfg
        .arrival_hz
        .map(|hz| inputs::poisson_arrivals(cfg.requests, hz, seed));
    let mut quote = inputs::FlowQuote::new(DEVICES);
    let requests = inputs::small_mix(cfg.requests, seed, |i, r| {
        let at = arrivals.as_ref().map_or(0.0, |a| a[i].as_secs_f64());
        crate::BUDGET_X * quote.next(at, service[r])
    });
    Inputs { requests, arrivals }
}

/// Host seconds of one session's submit and drain calls, and the factor
/// that brings them to reference speed ([`crate::calib`]).
struct Rep {
    submit_s: f64,
    drain_s: f64,
    factor: f64,
}

impl Rep {
    /// `submit` + `drain` at reference speed.
    fn host_s(&self) -> f64 {
        (self.submit_s + self.drain_s) * self.factor
    }
}

fn options(cfg: &Config, variant: Variant) -> ServeOptions {
    let policy = match variant {
        Variant::Fifo => SchedulePolicy::Fifo,
        _ => cfg.policy,
    };
    let mut o = ServeOptions::new().policy(policy);
    if cfg.production {
        o = o.prefetch().hedge(HedgeConfig::default());
        if variant != Variant::NoTelemetry {
            let mut t = TelemetryConfig::default();
            if variant == Variant::Traced {
                t.trace_cap = None;
            }
            o = o.telemetry(t).watch_sink(|w| {
                black_box(w);
            });
        }
    }
    if variant == Variant::Traced {
        o = o.tracing();
    }
    o
}

fn session(
    spans: &mut Spans,
    tb: &TestbedSpec,
    profile: &SystemProfile,
    cfg: &Config,
    inputs: &Inputs,
    variant: Variant,
    factor: f64,
) -> Result<(Rep, ServeReport), String> {
    let (_, submit_name, drain_name) = variant.span_names();
    let (pool, _) = spans.scope("pool_build", |_| {
        MultiGpu::new(
            tb,
            DEVICES,
            ExecMode::TimingOnly,
            POOL_SEED,
            profile.clone(),
        )
    });
    let mut session =
        ServeSession::with_options(pool, ExecutorConfig::default(), options(cfg, variant))
            .map_err(|e| format!("session: {e}"))?;
    let requests = inputs.requests.clone();
    let (_, submit_s) = spans.scope(submit_name, |_| match &inputs.arrivals {
        Some(at) => {
            for (r, t) in requests.into_iter().zip(at) {
                session.submit_at(r, *t);
            }
        }
        None => {
            for r in requests {
                session.submit(r);
            }
        }
    });
    let (report, drain_s) = spans.scope(drain_name, |_| session.drain());
    checks::serve_session(&session, &report, &inputs.requests)?;
    Ok((
        Rep {
            submit_s,
            drain_s,
            factor,
        },
        report,
    ))
}

/// Per-request Queued→Complete gaps, ms, from an uncapped trace: the
/// per-request grouping of `ServeTrace::request_spans`, done in one pass
/// over the span log (filtering it once per request is quadratic).
fn flows_ms(trace: &ServeTrace, requests: usize) -> Vec<f64> {
    let mut queued = vec![None; requests];
    let mut done = vec![None; requests];
    for s in &trace.spans {
        let Some(i) = usize::try_from(s.request).ok().filter(|i| *i < requests) else {
            continue;
        };
        match s.phase {
            SpanPhase::Queued if queued[i].is_none() => queued[i] = Some(s.start_ns),
            SpanPhase::Complete => done[i] = Some(s.end_ns),
            _ => {}
        }
    }
    queued
        .into_iter()
        .zip(done)
        .filter_map(|(q, d)| Some(d?.saturating_sub(q?) as f64 * 1e-6))
        .collect()
}

/// Distinct problems among `requests`, in first-seen order.
fn distinct_problems<'a>(
    requests: impl IntoIterator<Item = &'a RoutineRequest>,
) -> Vec<ProblemSpec> {
    let mut out: Vec<ProblemSpec> = Vec::new();
    for p in requests.into_iter().map(RoutineRequest::problem_spec) {
        if !out.contains(&p) {
            out.push(p);
        }
    }
    out
}

/// Host µs per `predict_offload(problem, None, None)` over `problems`
/// (each with the profile of the testbed it runs on), and the mean
/// `TileSelector::select` candidate count.
pub fn probe_core(spans: &mut Spans, problems: &[(&SystemProfile, ProblemSpec)]) -> (f64, f64) {
    let mut calls = 0usize;
    let (_, secs) = spans.scope("predict_offload", |_| {
        let until = Instant::now() + Duration::from_millis(250);
        while calls == 0 || Instant::now() < until {
            for (profile, p) in problems {
                black_box(profile.predict_offload(black_box(p), None, None));
                calls += 1;
            }
        }
    });
    let (evaluated, _) = spans.scope("tile_select", |_| {
        problems
            .iter()
            .filter_map(|(profile, p)| {
                let ctx = ModelCtx {
                    problem: p,
                    transfer: &profile.transfer,
                    exec: profile.exec_table(p.routine, p.dtype)?,
                    full_kernel_time: None,
                };
                let sel = TileSelector::default()
                    .select(ModelKind::recommended_for(p.routine), &ctx)
                    .ok()?;
                Some(sel.evaluated.len() as f64)
            })
            .collect::<Vec<_>>()
    });
    (
        secs * 1e6 / calls as f64,
        ratio(evaluated.iter().sum(), evaluated.len() as f64),
    )
}

/// Tile regret of one shape on a fresh device: the auto-tile call's
/// virtual time over the best of a power-of-two ladder of fixed T from
/// `min_dim / 16` to `min_dim`, minus one, in percent. (The quick exec
/// grid starts above the serving shapes, so it admits no fixed T there.)
fn shape_regret(
    tb: &TestbedSpec,
    profile: &SystemProfile,
    shape: &inputs::Shape,
) -> Result<f64, String> {
    let mut ctx = Cocopelia::new(
        Gpu::new(tb.clone(), ExecMode::TimingOnly, POOL_SEED),
        profile.clone(),
    );
    let err = |e: cocopelia_runtime::RuntimeError| format!("regret probe {}: {e}", shape.label());
    let resident = shape.upload(&mut ctx).map_err(err)?;
    let mut secs = |tile| -> Result<f64, String> {
        Ok(ctx
            .submit(shape.request(tile, resident))
            .map_err(err)?
            .elapsed
            .as_secs_f64())
    };
    let auto = secs(TileChoice::Auto)?;
    let min_dim = shape.host_problem().min_dim();
    let mut best = f64::INFINITY;
    for shift in 0..=4 {
        best = best.min(secs(TileChoice::Fixed((min_dim >> shift).max(1)))?);
    }
    Ok(100.0 * (auto / best - 1.0))
}

/// Tile regret at the serving shapes: each auto-tile shape of the mix,
/// probed cold and with its shared operands resident, weighted by the
/// residency hit rate the sessions saw. Returns the mean over shapes and
/// the per-shape (cold, resident) regrets.
fn serving_regret(
    tb: &TestbedSpec,
    profile: &SystemProfile,
    hit_rate: f64,
) -> Result<(f64, Vec<(f64, f64)>), String> {
    let pairs = inputs::small_mix_auto_shapes(false)
        .iter()
        .zip(&inputs::small_mix_auto_shapes(true))
        .map(|(cold, warm)| {
            Ok((
                shape_regret(tb, profile, cold)?,
                shape_regret(tb, profile, warm)?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let weighted: Vec<f64> = pairs
        .iter()
        .map(|(cold, warm)| (1.0 - hit_rate) * cold + hit_rate * warm)
        .collect();
    Ok((mean(&weighted), pairs))
}

/// Registry counters the per-layer rows read.
const COUNTERS: [&str; 8] = [
    "residency_hits_total",
    "residency_misses_total",
    "residency_bytes_uploaded",
    "prefetch_issued_total",
    "prefetch_hits_total",
    "prefetch_bytes_total",
    "hedge_attempts_total",
    "hedge_wins_total",
];

/// What the benchmark keeps of an input set's first drain: the
/// virtual-clock aggregates, plus a fingerprint of every outcome for the
/// bit-identity checks (keeping whole reports would put the benchmark's
/// own bookkeeping into `peak_rss_mb`).
struct Summary {
    makespan: SimTime,
    fingerprint: u64,
    total_flops: f64,
    completed: usize,
    rejected: usize,
    timed_out: usize,
    failed: usize,
    /// Drift sums per model the scheduler scored.
    drift: Vec<(ModelKind, DriftSum)>,
    busy: Busy,
    counters: [u64; COUNTERS.len()],
    queue_depth_p99: Option<f64>,
    windows: usize,
}

fn fingerprint(report: &ServeReport) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{:?}", report.outcomes).hash(&mut h);
    h.finish()
}

impl Summary {
    fn of(r: &ServeReport) -> Self {
        let mut busy = Busy::default();
        for o in &r.outcomes {
            if let Some(rep) = o.executed_report().filter(|_| !o.coalesced) {
                busy.add(rep);
            }
        }
        let mut drift: Vec<(ModelKind, DriftSum)> = Vec::new();
        for rec in r.drift.records() {
            let one = DriftSum::of([rec]);
            match drift.iter_mut().find(|(m, _)| *m == rec.model) {
                Some((_, sum)) => sum.merge(&one),
                None => drift.push((rec.model, one)),
            }
        }
        Summary {
            makespan: r.makespan,
            fingerprint: fingerprint(r),
            total_flops: r.total_flops,
            completed: r.completed(),
            rejected: r.rejected(),
            timed_out: r.timed_out(),
            failed: r.failed(),
            drift,
            busy,
            counters: COUNTERS.map(|c| r.metrics.counter(c)),
            queue_depth_p99: r
                .metrics
                .histogram("serve_queue_depth")
                .and_then(|h| h.quantile(0.99)),
            windows: r.telemetry.as_ref().map_or(0, |t| t.windows.len()),
        }
    }

    /// Checks that `other` drained the same inputs to the same virtual
    /// outcome, bit for bit.
    fn same_virtual(&self, what: &str, other: &ServeReport) -> Result<(), String> {
        if self.makespan == other.makespan && self.fingerprint == fingerprint(other) {
            Ok(())
        } else {
            Err(format!(
                "{what}: makespan {:?} vs {:?} or outcomes differ",
                self.makespan, other.makespan
            ))
        }
    }
}

/// Flow samples of a traced session, after checking it against the
/// untraced drain of the same inputs.
fn traced_flows(
    untraced: &Summary,
    traced: &ServeReport,
    requests: usize,
) -> Result<Vec<f64>, String> {
    untraced.same_virtual("traced vs untraced", traced)?;
    if traced.trace_dropped > 0 {
        return Err("flow trace dropped spans".into());
    }
    let trace = traced.trace.as_ref().ok_or("traced session has no trace")?;
    Ok(flows_ms(trace, requests))
}

/// Runs one serving workload.
pub fn run(cfg: &Config, args: &Args, spans: &mut Spans) -> Result<Outcome, String> {
    let tb = crate::quiet(testbed_i());
    let k = cfg.sets;
    let mut deploy_s = Vec::new();
    let ((profile, service), setup_s) = crate::time_setup(spans, |s| {
        let t0 = Instant::now();
        let profile = crate::deploy_all(s, std::slice::from_ref(&tb))?.remove(0);
        deploy_s.push(t0.elapsed().as_secs_f64());
        let (pool, _) = s.scope("pool_build", |_| {
            MultiGpu::new(
                &tb,
                DEVICES,
                ExecMode::TimingOnly,
                POOL_SEED,
                profile.clone(),
            )
        });
        drop(pool);
        let (service, _) = s.scope("gen_inputs", |_| {
            let service = inputs::small_mix_service(&profile)?;
            for j in 0..k {
                black_box(input_set(cfg, args.seed, j, &service));
            }
            Ok::<_, String>(service)
        });
        Ok((profile, service?))
    })?;
    checks::functional_subset(&tb, &profile)?;

    // Measured phase: fresh sessions (cold residency and tile caches),
    // rotating over the input sets, until the host budget is spent and
    // every set ran in every variant. Each session's inputs are rebuilt
    // from the set's seed, outside the timed calls. Variants take turns
    // so all see the same machine state: plain sessions (the only ones
    // behind the host metrics), traced replays (uncapped `ServeTrace`, for
    // the flow percentiles and the trace overhead) and, in the traced run,
    // the contrasts behind `serve.dispatch_s` (the queue drained under
    // FIFO; only the Predictive workload pays for it, since a Predictive
    // drain of the open workload takes minutes) and
    // `telemetry.overhead_frac`.
    let mut variants = vec![Variant::Plain, Variant::Traced];
    if args.trace && cfg.policy == SchedulePolicy::Predictive {
        variants.push(Variant::Fifo);
    }
    if args.trace && cfg.production {
        variants.push(Variant::NoTelemetry);
    }
    let until = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut reps: Vec<Vec<Rep>> = variants.iter().map(|_| Vec::new()).collect();
    let mut first: Vec<Option<Summary>> = (0..k).map(|_| None).collect();
    // Each traced session's flow (p50, p99, samples).
    let mut flows: Vec<(f64, f64, usize)> = Vec::new();
    let mut trace_spans = Vec::new();
    let mut turn = 0;
    while reps.iter().any(|r| r.len() < k) || Instant::now() < until {
        let v = turn % variants.len();
        turn += 1;
        let (variant, j) = (variants[v], reps[v].len() % k);
        let (inputs, _) = spans.scope("gen_inputs", |_| input_set(cfg, args.seed, j, &service));
        let factor = crate::calib::factor();
        let (run, _) = spans.scope(variant.span_names().0, |s| {
            session(s, &tb, &profile, cfg, &inputs, variant, factor)
        });
        drop(inputs);
        let (rep, report) = run?;
        match (&first[j], variant) {
            (None, _) => first[j] = Some(Summary::of(&report)),
            (Some(_), Variant::Fifo) => {}
            (Some(f), Variant::Traced) if reps[v].len() < k => {
                let f = traced_flows(f, &report, cfg.requests)?;
                flows.push((percentile(&f, 0.5), percentile(&f, 0.99), f.len()));
                trace_spans.push(report.trace.as_ref().map_or(0, |t| t.spans.len()) as f64);
            }
            (Some(f), _) => f.same_virtual("repeat session", &report)?,
        }
        reps[v].push(rep);
    }
    let of = |variant: Variant| {
        variants
            .iter()
            .position(|v| *v == variant)
            .map(|i| &reps[i][..])
    };
    let (plain, traced) = (
        of(Variant::Plain).unwrap_or_default(),
        of(Variant::Traced).unwrap_or_default(),
    );
    let sums: Vec<Summary> = first.into_iter().flatten().collect();
    let med = |reps: &[Rep], f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let host = |reps: &[Rep]| med(reps, Rep::host_s);
    let drain = |reps: &[Rep]| med(reps, |r| r.drain_s * r.factor);

    // A percentile of each session's flows, median over the sessions:
    // one burst in one set moves it no more than its rank.
    let flow_q =
        |pick: fn(&(f64, f64, usize)) -> f64| median(&flows.iter().map(pick).collect::<Vec<_>>());
    let attempted = k * cfg.requests;
    let total = |f: fn(&Summary) -> usize| sums.iter().map(f).sum::<usize>();
    let failed_hard = total(|s| s.failed);
    let missed = total(|s| s.rejected + s.timed_out + s.failed);
    let drift = |model: Option<ModelKind>| {
        let mut sum = DriftSum::default();
        for (m, d) in sums.iter().flat_map(|s| &s.drift) {
            if model.is_none_or(|want| want == *m) {
                sum.merge(d);
            }
        }
        sum
    };
    let c = |name: &str| {
        let i = COUNTERS
            .iter()
            .position(|n| *n == name)
            .expect("listed counter");
        sums.iter().map(|s| s.counters[i]).sum::<u64>() as f64
    };
    let hit_rate = ratio(
        c("residency_hits_total"),
        c("residency_hits_total") + c("residency_misses_total"),
    );
    let (regret, probes) = serving_regret(&tb, &profile, hit_rate)?;
    let makespan_s: Vec<f64> = sums.iter().map(|s| s.makespan.as_secs_f64()).collect();
    let total_flops: f64 = sums.iter().map(|s| s.total_flops).sum();
    let e2e = EndToEnd {
        setup_s: median(&setup_s),
        setup_reps: setup_s.len(),
        host_req_per_s: med(plain, |r| 1.0 / r.host_s()) * cfg.requests as f64,
        host_reps: plain.len(),
        peak_rss_mb: 0.0,
        virt_makespan_ms: mean(&makespan_s) * 1e3,
        virt_gflops: total_flops / makespan_s.iter().sum::<f64>() / 1e9,
        flow_p50_ms: flow_q(|f| f.0),
        flow_p99_ms: flow_q(|f| f.1),
        flow_samples: flows.iter().map(|f| f.2).sum(),
        fail_frac: missed as f64 / attempted as f64,
        attempted,
        pred_err_pct: drift(None).pct().0,
        pred_samples: drift(None).n,
        tile_regret_pct: regret,
        regret_shapes: probes.len(),
    };

    let mut pl = PerLayer {
        deploy_host_s: median(&deploy_s),
        deploy_exec_points: crate::exec_points(&profile) as f64,
        ..PerLayer::default()
    };
    if args.trace {
        let set = input_set(cfg, args.seed, 0, &service);
        let problems: Vec<_> = distinct_problems(&set.requests)
            .into_iter()
            .map(|p| (&profile, p))
            .collect();
        (pl.core_predict_us, pl.core_candidates) = probe_core(spans, &problems);
        (pl.core_err_pct_bts, pl.core_bias_pct_bts) = drift(Some(ModelKind::Bts)).pct();
        (pl.core_err_pct_dr, pl.core_bias_pct_dr) = drift(Some(ModelKind::DataReuse)).pct();
        pl.serve_submit_s = med(plain, |r| r.submit_s * r.factor);
        pl.serve_drain_s = drain(plain);
        if let Some(fifo) = of(Variant::Fifo) {
            pl.serve_dispatch_s = drain(plain) - drain(fifo);
        }
        if let Some(bare) = of(Variant::NoTelemetry) {
            pl.telemetry_overhead_frac = drain(plain) / drain(bare) - 1.0;
        }
        // Per session: one set's work against one session's host time
        // outside Predictive dispatch scoring.
        let mut busy = Busy::default();
        sums.iter().for_each(|s| busy.merge(&s.busy));
        let sim_s = host(plain) - pl.serve_dispatch_s;
        busy.fill(&mut pl, sim_s, k);
        let per_session = |v: f64| v / k as f64;
        pl.serve_queue_depth_p99 = mean(
            &sums
                .iter()
                .filter_map(|s| s.queue_depth_p99)
                .collect::<Vec<_>>(),
        );
        pl.residency_hit_rate = hit_rate;
        pl.residency_upload_mb = per_session(c("residency_bytes_uploaded")) / MIB;
        pl.prefetch_issued = per_session(c("prefetch_issued_total"));
        pl.prefetch_hit_ratio = ratio(c("prefetch_hits_total"), c("prefetch_issued_total"));
        pl.prefetch_staged_mb = per_session(c("prefetch_bytes_total")) / MIB;
        pl.defense_hedges = per_session(c("hedge_attempts_total"));
        pl.defense_hedge_win_ratio = ratio(c("hedge_wins_total"), c("hedge_attempts_total"));
        pl.telemetry_windows = per_session(total(|s| s.windows) as f64);
        pl.obs_spans = mean(&trace_spans);
        pl.obs_trace_overhead_frac = host(traced) / host(plain) - 1.0;
    }

    let names = inputs::small_mix_names().join(", ");
    let notes = vec![
        format!(
            "{k} input set(s) x {} requests of [{names}] over {} shared keys on {DEVICES} Testbed I devices, {}{}",
            cfg.requests,
            inputs::KEYS,
            cfg.arrival_hz
                .map_or("closed queue".to_owned(), |hz| format!("Poisson arrivals at {hz} req/s virtual")),
            if cfg.production { ", prefetch + default hedging + telemetry windows" } else { "" },
        ),
        format!(
            "policy {}; a request misses when its flow is over {}x its quoted flow (predicted times {:?} ms after the predicted work ahead of it spread over {DEVICES} devices); residency and tile caches start empty in every session",
            cfg.policy,
            crate::BUDGET_X,
            service.map(|t| t * 1e3),
        ),
        format!(
            "{} measured sessions ({:.1} req/s raw host, {:.1} ms median reference unit); flow from {} traced sessions; {} completed, {} rejected, {} timed out, {failed_hard} failed",
            plain.len(),
            med(plain, |r| 1.0 / (r.submit_s + r.drain_s)) * cfg.requests as f64,
            med(plain, |r| crate::calib::REF_S / r.factor) * 1e3,
            flows.len(),
            total(|s| s.completed),
            total(|s| s.rejected),
            total(|s| s.timed_out),
        ),
        format!(
            "tile regret (cold, resident) % at the serving auto shapes {:?}, weighted by residency hit rate {hit_rate:.4}",
            probes
        ),
    ];
    Ok(Outcome {
        attempted,
        failed: failed_hard,
        end_to_end: e2e,
        per_layer: pl,
        notes,
    })
}
