//! The class-head Predictive pick against the linear scan it replaced:
//! at every pop of seeded mixed traces, both must name the same queue
//! position and preferred device.

use super::queue::Queued;
use super::{ExecutorConfig, SchedulePolicy, ServeOptions, ServeSession};
use crate::multigpu::MultiGpu;
use crate::operand::{MatOperand, TileChoice, VecOperand};
use crate::request::{
    AxpyRequest, DotRequest, GemmRequest, GemvRequest, MatArg, RoutineRequest, SharedMat, SharedVec,
};
use cocopelia_core::models::{ModelKind, Prediction};
use cocopelia_core::params::RoutineClass;
use cocopelia_deploy::{deploy, DeployConfig};
use cocopelia_gpusim::{testbed_i, DegradeWindow, ExecMode, FaultSpec, NoiseSpec, SimTime};
use cocopelia_hostblas::Dtype;

/// The reference: the model's prediction computed afresh from the
/// device profile, as dispatch did before the prediction table.
fn predict(s: &ServeSession, d: usize, req: &RoutineRequest) -> Option<Prediction> {
    let (model, tile) = match req.tile_choice() {
        TileChoice::Fixed(t) => (None, Some(t)),
        TileChoice::Model(m) => (Some(m), None),
        TileChoice::Auto => (None, None),
    };
    s.pool.devices()[d]
        .profile()
        .predict_offload(&req.problem_spec(), model, tile)
}

/// Whether two queued requests fall in one class.
fn same_class(a: &Queued, b: &Queued) -> bool {
    a.shape == b.shape && a.req.shared_footprints() == b.req.shared_footprints()
}

/// The linear Predictive scorer: every queued request × healthy device,
/// strict comparisons in queue order. Also reports whether the winning
/// completion was tied bit for bit by a request of another class.
fn reference_pick(s: &ServeSession) -> Option<((usize, Option<usize>), bool)> {
    if s.queue.is_empty() {
        return None;
    }
    let healthy: Vec<usize> = (0..s.pool.device_count())
        .filter(|&i| !s.quarantined[i])
        .collect();
    if healthy.is_empty() {
        return Some(((0, None), false));
    }
    let mut pick = 0;
    let mut pick_completion = f64::NEG_INFINITY;
    let mut pick_dev = None;
    let mut best: Vec<f64> = Vec::new();
    for (i, q) in s.queue.iter().enumerate() {
        let mut best_dev = healthy[0];
        let mut best_c = f64::INFINITY;
        for &d in &healthy {
            let c = s.pool.devices()[d].gpu().now().as_secs_f64()
                + s.upload_estimate(d, &q.req)
                + predict(s, d, &q.req).map_or(0.0, |p| p.total);
            if c < best_c {
                best_dev = d;
                best_c = c;
            }
        }
        best.push(best_c);
        if best_c > pick_completion {
            pick = i;
            pick_completion = best_c;
            pick_dev = Some(best_dev);
        }
    }
    let winner = s.queue.get(pick).expect("picked");
    let tied = s
        .queue
        .iter()
        .zip(&best)
        .any(|(q, &c)| c == pick_completion && !same_class(q, winner));
    Some(((pick, pick_dev), tied))
}

/// Deterministic trace generator.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }
}

const N: usize = 256;
const V: usize = 1 << 16;

/// One seeded request: the four routines, Auto/Fixed/Model tile choices,
/// keys from a small set (so classes collide), self-multiplies and
/// self-dots, and an optional deadline.
fn request(rng: &mut Lcg) -> RoutineRequest {
    let mat = SharedMat::new(format!("M{}", rng.below(3)), N, N);
    let vec = SharedVec::new(format!("V{}", rng.below(3)), V);
    let choice = rng.below(3);
    let tile = |fixed: usize| match choice {
        0 => TileChoice::Auto,
        1 => TileChoice::Fixed(fixed),
        _ => TileChoice::Model(ModelKind::DataLoc),
    };
    let deadline = (rng.below(2) == 0).then(|| 1e-4 * (1 + rng.below(50)) as f64);
    let ghost = MatOperand::HostGhost { rows: N, cols: N };
    let req: RoutineRequest = match rng.below(5) {
        0 => {
            let b: MatArg<f64> = if rng.below(2) == 0 {
                MatOperand::HostGhost { rows: N, cols: N }.into()
            } else {
                mat.clone().into()
            };
            let mut r = GemmRequest::<f64>::new(mat, b, ghost)
                .alpha(1.0)
                .beta(1.0)
                .tile(tile(128));
            r.deadline = deadline;
            r.into()
        }
        1 => {
            let mut r = GemvRequest::<f64>::new(
                mat,
                VecOperand::HostGhost { len: N },
                VecOperand::HostGhost { len: N },
            )
            .alpha(1.0)
            .beta(1.0)
            .tile(tile(128));
            r.deadline = deadline;
            r.into()
        }
        2 => {
            let mut r = AxpyRequest::<f64>::new(vec, VecOperand::HostGhost { len: V })
                .alpha(0.5)
                .tile(tile(V / 4));
            r.deadline = deadline;
            r.into()
        }
        3 => {
            let mut r = DotRequest::<f64>::new(vec.clone(), vec).tile(tile(V / 4));
            r.deadline = deadline;
            r.into()
        }
        _ => {
            let y = SharedVec::new(format!("V{}", rng.below(3)), V);
            let mut r = DotRequest::<f64>::new(vec, y).tile(tile(V / 4));
            r.deadline = deadline;
            r.into()
        }
    };
    req
}

/// End of device 1's degrade window, in virtual seconds.
const DEGRADE_END_S: f64 = 3e-3;

/// A three-device pool on a quiet Testbed I with a small deployed
/// profile; device 1's link runs at a quarter rate until
/// [`DEGRADE_END_S`].
fn session(policy: SchedulePolicy) -> ServeSession {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    let cfg = DeployConfig {
        transfer_dims: vec![256, 512, 1024],
        gemm_tiles: vec![64, 128, 256],
        axpy_tiles: vec![1 << 12, 1 << 14, 1 << 16],
        gemv_tiles: vec![64, 128, 256],
        routines: vec![
            (RoutineClass::Gemm, Dtype::F64),
            (RoutineClass::Axpy, Dtype::F64),
            (RoutineClass::Dot, Dtype::F64),
            (RoutineClass::Gemv, Dtype::F64),
        ],
        ..DeployConfig::quick()
    };
    let profile = deploy(&tb, &cfg).expect("deploys").profile;
    let mut plans = FaultSpec::none().per_device(3);
    plans[1].degrade.push(DegradeWindow {
        start_s: 0.0,
        end_s: DEGRADE_END_S,
        factor: 0.25,
    });
    let pool = MultiGpu::with_fault_plans(&tb, ExecMode::TimingOnly, 7, profile, &plans);
    ServeSession::with_options(
        pool,
        ExecutorConfig::default(),
        ServeOptions::new().policy(policy),
    )
    .expect("session")
}

/// What one drain of a seeded trace exercised.
#[derive(Debug, Default)]
struct Coverage {
    pops: usize,
    /// Picks where the winning completion tied across classes.
    ties: usize,
    /// Picks with a prediction available for some queued request.
    predicted: usize,
    /// Picks with device 1 healthy and inside its degrade window.
    degraded: usize,
    /// Picks with a queued request's operand resident somewhere.
    warm: usize,
    /// Pops that removed a request other than its class's oldest.
    mid_class: usize,
}

/// Drains a seeded trace under `policy` by hand — warm residency from a
/// first drain, more arrivals mid-run, a device quarantined mid-run —
/// and checks the Predictive pick against the reference before every pop
/// (switching the policy to Predictive for the check when `policy` is
/// another one).
fn run(policy: SchedulePolicy, seed: u64) -> Coverage {
    let mut rng = Lcg(seed);
    let mut s = session(policy);
    for _ in 0..6 {
        s.submit(request(&mut rng));
    }
    s.drain();
    for _ in 0..24 {
        s.submit(request(&mut rng));
    }
    let start: Vec<SimTime> = s.pool.devices().iter().map(|d| d.gpu().now()).collect();
    let mut cov = Coverage::default();
    loop {
        let want = reference_pick(&s);
        s.policy = SchedulePolicy::Predictive;
        let got = s.select_index();
        s.policy = policy;
        assert_eq!(got, want.map(|(p, _)| p), "seed {seed}, pop {}", cov.pops);
        cov.ties += usize::from(want.is_some_and(|(_, tied)| tied));
        cov.predicted += usize::from(s.queue.iter().any(|q| predict(&s, 1, &q.req).is_some()));
        let now_1 = s.pool.devices()[1].gpu().now().as_secs_f64();
        cov.degraded +=
            usize::from(!s.quarantined[1] && now_1 < DEGRADE_END_S && !s.queue.is_empty());
        cov.warm += usize::from(s.queue.iter().any(|q| {
            q.req
                .shared_footprints()
                .iter()
                .any(|(k, _)| s.residency.iter().any(|r| r.contains(k)))
        }));
        let Some((idx, _)) = s.select_index() else {
            break;
        };
        let chosen = s.queue.get(idx).expect("queued");
        cov.mid_class += usize::from(s.queue.iter().take(idx).any(|q| same_class(q, chosen)));
        let (q, preferred) = s.next_dispatch().expect("non-empty");
        let outcome = s.dispatch(q, preferred, &start, 0);
        s.record(outcome, &start, &[]);
        s.queue.assert_index_consistent();
        cov.pops += 1;
        match cov.pops {
            8 => {
                for _ in 0..16 {
                    s.submit(request(&mut rng));
                }
            }
            16 => s.force_quarantine(0),
            _ => {}
        }
    }
    assert_eq!(cov.pops, 40, "every request dispatched once");
    cov
}

#[test]
fn class_head_pick_matches_the_linear_scan() {
    let mut total = Coverage::default();
    for seed in [1, 2, 3] {
        let cov = run(SchedulePolicy::Predictive, seed);
        total.ties += cov.ties;
        total.predicted += cov.predicted;
        total.degraded += cov.degraded;
        total.warm += cov.warm;
    }
    assert!(total.ties > 0, "some picks tie bit for bit across classes");
    assert!(total.predicted > 0, "the profile predicts the trace");
    assert!(total.degraded > 0, "some picks see the degraded link");
    assert!(total.warm > 0, "some picks see warm residency");
}

#[test]
fn class_index_survives_fifo_and_edf_removals() {
    let fifo = run(SchedulePolicy::Fifo, 4);
    let mut mid_class = 0;
    for seed in [4, 5] {
        mid_class += run(SchedulePolicy::Edf, seed).mid_class;
    }
    assert_eq!(fifo.mid_class, 0, "FIFO always pops a class head");
    assert!(mid_class > 0, "EDF removes from the middle of a class");
}
