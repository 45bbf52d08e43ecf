//! The routine sweep: single `Cocopelia::submit` calls at the paper's
//! evaluation shapes on one device per testbed, with no serve layer. Each
//! shape runs once at `TileChoice::Auto` and once at every admissible
//! exec-grid T.

use std::time::{Duration, Instant};

use cocopelia_core::{ModelCtx, ModelKind, SystemProfile, TileSelector};
use cocopelia_gpusim::{testbed_i, testbed_ii, ExecMode, Gpu, TestbedSpec};
use cocopelia_runtime::{Cocopelia, RoutineReport, TileChoice};

use crate::inputs::{sweep_shapes, Shape};
use crate::metrics::{Busy, DriftSum, EndToEnd, PerLayer};
use crate::spans::Spans;
use crate::stats::{mean, median, percentile};
use crate::{checks, Args, Outcome};

/// A shape with its admissible fixed tiles, worked out in set-up.
struct Plan {
    shape: Shape,
    tiles: Vec<usize>,
}

fn plans(shapes: Vec<Shape>, profiles: &[SystemProfile]) -> Result<Vec<Plan>, String> {
    shapes
        .into_iter()
        .map(|shape| {
            let problem = shape.host_problem();
            let profile = &profiles[shape.testbed];
            let exec = profile
                .exec_table(problem.routine, problem.dtype)
                .ok_or_else(|| format!("no exec table for {}", shape.label()))?;
            let ctx = ModelCtx {
                problem: &problem,
                transfer: &profile.transfer,
                exec,
                full_kernel_time: None,
            };
            let tiles = TileSelector::default().candidates(&ctx);
            Ok(Plan { shape, tiles })
        })
        .collect()
}

fn contexts(testbeds: &[TestbedSpec], profiles: &[SystemProfile], seed: u64) -> Vec<Cocopelia> {
    testbeds
        .iter()
        .zip(profiles)
        .map(|(tb, p)| Cocopelia::new(Gpu::new(tb.clone(), ExecMode::TimingOnly, seed), p.clone()))
        .collect()
}

/// One call of a sweep pass: `tile` is `None` for the auto call.
struct Call {
    plan: usize,
    tile: Option<usize>,
    report: RoutineReport,
}

/// One pass over every plan on fresh contexts (cold tile-selection
/// caches). Returns the calls and the host seconds spent inside
/// `Cocopelia::submit`.
fn pass(
    spans: &mut Spans,
    testbeds: &[TestbedSpec],
    profiles: &[SystemProfile],
    plans: &[Plan],
    seed: u64,
) -> Result<(Vec<Call>, f64), String> {
    let (mut ctxs, _) = spans.scope("ctx_build", |_| contexts(testbeds, profiles, seed));
    let mut calls = Vec::new();
    let mut host_s = 0.0;
    for (i, plan) in plans.iter().enumerate() {
        let ctx = &mut ctxs[plan.shape.testbed];
        let s = &plan.shape;
        let (resident, _) = spans.scope("upload", |_| s.upload(ctx));
        let resident = resident.map_err(|e| format!("{}: upload: {e}", s.label()))?;
        for tile in std::iter::once(None).chain(plan.tiles.iter().copied().map(Some)) {
            let req = s.request(tile.map_or(TileChoice::Auto, TileChoice::Fixed), resident);
            let (report, secs) = spans.scope("routine_call", |_| ctx.submit(req));
            host_s += secs;
            let report = report.map_err(|e| format!("{} T={tile:?}: {e}", s.label()))?;
            let flops = s.host_problem().flops();
            if report.flops != flops || report.elapsed.as_nanos() == 0 || report.subkernels == 0 {
                return Err(format!(
                    "{} T={tile:?}: report flops {} (want {flops}), elapsed {:?}, {} sub-kernels",
                    s.label(),
                    report.flops,
                    report.elapsed,
                    report.subkernels
                ));
            }
            calls.push(Call {
                plan: i,
                tile,
                report,
            });
        }
        Shape::free(ctx, resident).map_err(|e| format!("{}: free: {e}", s.label()))?;
    }
    Ok((calls, host_s))
}

/// Runs the routine sweep.
pub fn run(args: &Args, spans: &mut Spans) -> Result<Outcome, String> {
    let testbeds = [testbed_i(), testbed_ii()];
    let mut deploy_s = Vec::new();
    let ((profiles, plans), setup_s) = crate::time_setup(spans, |s| {
        let t0 = Instant::now();
        let profiles = crate::deploy_all(s, &testbeds)?;
        deploy_s.push(t0.elapsed().as_secs_f64());
        let (ctxs, _) = s.scope("ctx_build", |_| contexts(&testbeds, &profiles, args.seed));
        drop(ctxs);
        let (plans, _) = s.scope("gen_inputs", |_| plans(sweep_shapes(args.seed), &profiles));
        Ok((profiles, plans?))
    })?;
    checks::functional_subset(&testbeds[0], &profiles[0])?;

    // Measured phase: whole passes until the host budget is spent. The
    // traced run alternates passes with spans off and on.
    let until = Instant::now() + Duration::from_secs_f64(args.seconds);
    // Host seconds of each pass at reference speed, and of the plain
    // passes as measured.
    let (mut plain_s, mut traced_s, mut raw_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_spans = 0;
    let mut first: Option<Vec<Call>> = None;
    while plain_s.is_empty() || (args.trace && traced_s.is_empty()) || Instant::now() < until {
        let traced = args.trace && plain_s.len() > traced_s.len();
        spans.set_on(traced);
        let before = spans.len();
        let factor = crate::calib::factor();
        let ((calls, host_s), _) = {
            let (r, secs) = spans.scope("sweep_pass", |s| {
                pass(s, &testbeds, &profiles, &plans, args.seed)
            });
            (r?, secs)
        };
        match &first {
            Some(f) => {
                if f.iter().zip(&calls).any(|(a, b)| a.report != b.report) || f.len() != calls.len()
                {
                    return Err("a repeated sweep pass differs on the virtual clock".into());
                }
            }
            None => first = Some(calls),
        }
        if traced {
            traced_spans = spans.len() - before;
            traced_s.push(host_s * factor);
        } else {
            plain_s.push(host_s * factor);
            raw_s.push(host_s);
        }
    }
    spans.set_on(args.trace);
    let calls = first.expect("at least one pass");

    let elapsed_s: Vec<f64> = calls
        .iter()
        .map(|c| c.report.elapsed.as_secs_f64())
        .collect();
    let total_s: f64 = elapsed_s.iter().sum();
    let flops: f64 = calls.iter().map(|c| c.report.flops).sum();
    let flows_ms: Vec<f64> = elapsed_s.iter().map(|s| s * 1e3).collect();
    let recommended =
        |c: &Call| ModelKind::recommended_for(plans[c.plan].shape.host_problem().routine);
    let auto: Vec<&Call> = calls.iter().filter(|c| c.tile.is_none()).collect();
    let pred = DriftSum::of(auto.iter().flat_map(|c| {
        c.report
            .drift
            .iter()
            .filter(move |r| r.model == recommended(c))
    }));
    // Regret compares the fixed-T call at the auto-selected T with the best
    // fixed-T call, so two noise draws of the same schedule never count as
    // a selection error.
    let mut regrets = Vec::new();
    for (i, _) in plans.iter().enumerate() {
        let fixed = || {
            calls
                .iter()
                .filter(move |c| c.plan == i && c.tile.is_some())
        };
        let chosen = calls
            .iter()
            .find(|c| c.plan == i && c.tile.is_none())
            .map(|auto| {
                fixed()
                    .find(|c| c.tile == Some(auto.report.tile))
                    .unwrap_or(auto)
                    .report
                    .elapsed
                    .as_secs_f64()
            });
        let best = fixed()
            .map(|c| c.report.elapsed.as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        if let Some(t) = chosen.filter(|_| best.is_finite()) {
            regrets.push(100.0 * (t / best - 1.0));
        }
    }
    // A single call has no queue, so its flow is its elapsed time.
    let missed = calls
        .iter()
        .filter(|c| {
            c.report
                .drift
                .iter()
                .find(|r| r.model == recommended(c))
                .is_some_and(|r| r.actual_secs > crate::BUDGET_X * r.predicted_secs)
        })
        .count();
    let e2e = EndToEnd {
        setup_s: median(&setup_s),
        setup_reps: setup_s.len(),
        host_req_per_s: median(
            &plain_s
                .iter()
                .map(|s| calls.len() as f64 / s)
                .collect::<Vec<_>>(),
        ),
        host_reps: plain_s.len(),
        peak_rss_mb: 0.0,
        virt_makespan_ms: total_s * 1e3,
        virt_gflops: flops / total_s / 1e9,
        flow_p50_ms: percentile(&flows_ms, 0.5),
        flow_p99_ms: percentile(&flows_ms, 0.99),
        flow_samples: flows_ms.len(),
        fail_frac: missed as f64 / calls.len() as f64,
        attempted: calls.len(),
        pred_err_pct: pred.pct().0,
        pred_samples: pred.n,
        tile_regret_pct: mean(&regrets),
        regret_shapes: regrets.len(),
    };

    let mut pl = PerLayer {
        deploy_host_s: median(&deploy_s),
        deploy_exec_points: profiles.iter().map(crate::exec_points).sum::<usize>() as f64,
        ..PerLayer::default()
    };
    if args.trace {
        let problems: Vec<_> = plans
            .iter()
            .map(|p| (&profiles[p.shape.testbed], p.shape.host_problem()))
            .collect();
        (pl.core_predict_us, pl.core_candidates) = crate::serve::probe_core(spans, &problems);
        let of_model = |m: ModelKind| {
            DriftSum::of(
                auto.iter()
                    .filter(|c| recommended(c) == m)
                    .flat_map(|c| c.report.drift.iter().filter(move |r| r.model == m)),
            )
            .pct()
        };
        (pl.core_err_pct_bts, pl.core_bias_pct_bts) = of_model(ModelKind::Bts);
        (pl.core_err_pct_dr, pl.core_bias_pct_dr) = of_model(ModelKind::DataReuse);
        let mut busy = Busy::default();
        calls.iter().for_each(|c| busy.add(&c.report));
        busy.fill(&mut pl, median(&plain_s), 1);
        pl.obs_spans = traced_spans as f64;
        pl.obs_trace_overhead_frac = median(&traced_s) / median(&plain_s) - 1.0;
    }

    let notes = vec![
        format!(
            "{} shapes on one Testbed I and one Testbed II device with realistic noise (device seed = workload seed): \
             {} calls per pass ({} auto, {} fixed-T)",
            plans.len(),
            calls.len(),
            auto.len(),
            calls.len() - auto.len()
        ),
        format!(
            "single-client calls: flow is each call's virtual elapsed; a call misses its budget when it runs \
             over {}x its recommended model's prediction ({missed} of {})",
            crate::BUDGET_X,
            calls.len()
        ),
        format!(
            "{} measured passes ({:.1} calls/s raw host); tile-selection caches start empty in every pass; regret over {} shapes",
            plain_s.len(),
            calls.len() as f64 / median(&raw_s),
            regrets.len()
        ),
        format!("mean regret {:.3}% max {:.3}%", mean(&regrets), regrets.iter().copied().fold(0.0, f64::max)),
    ];
    Ok(Outcome {
        attempted: calls.len(),
        failed: 0,
        end_to_end: e2e,
        per_layer: pl,
        notes,
    })
}
