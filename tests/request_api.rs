//! Contract of the request builders: defaults, type-erased submission,
//! and auto selection agree with the explicit typed path on a same-seed
//! fresh device — bit-for-bit in virtual time, selection, and overlap
//! accounting.

use cocopelia_core::profile::SystemProfile;
use cocopelia_core::transfer::{LatBw, TransferModel};
use cocopelia_deploy::{deploy, DeployConfig};
use cocopelia_gpusim::{testbed_i, ExecMode, Gpu, NoiseSpec, TestbedSpec};
use cocopelia_runtime::{
    Cocopelia, GemmRequest, MatOperand, RoutineReport, RuntimeError, SharedMat, TileChoice,
};

fn quiet() -> TestbedSpec {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    tb
}

fn dummy_profile() -> SystemProfile {
    SystemProfile::new(
        "request-api-test",
        TransferModel {
            h2d: LatBw { t_l: 0.0, t_b: 0.0 },
            d2h: LatBw { t_l: 0.0, t_b: 0.0 },
            sl_h2d: 1.0,
            sl_d2h: 1.0,
        },
    )
}

/// A fresh timing-only pipeline; identical seeds give identical virtual
/// clocks, so matching reports prove matching schedules.
fn ctx(seed: u64) -> Cocopelia {
    Cocopelia::new(
        Gpu::new(quiet(), ExecMode::TimingOnly, seed),
        dummy_profile(),
    )
}

fn ghost(rows: usize, cols: usize) -> MatOperand<f64> {
    MatOperand::HostGhost { rows, cols }
}

#[test]
fn builder_defaults_are_alpha_one_beta_zero() {
    let request = || GemmRequest::new(ghost(768, 768), ghost(768, 768), ghost(768, 768));
    let explicit = request()
        .alpha(1.0)
        .beta(0.0)
        .tile(TileChoice::Fixed(256))
        .run(&mut ctx(23))
        .expect("explicit runs")
        .report;
    let defaulted = request()
        .tile(TileChoice::Fixed(256))
        .run(&mut ctx(23))
        .expect("defaults run")
        .report;
    assert_eq!(explicit, defaulted);
}

/// Auto selection goes through the full deploy → profile → model path;
/// the typed run and the type-erased submission must still agree
/// report-for-report.
#[test]
fn auto_selection_parity_through_deployed_profile() {
    let tb = quiet();
    let mut cfg = DeployConfig::quick();
    cfg.transfer_dims = vec![512, 1024, 2048];
    cfg.gemm_tiles = vec![256, 512, 1024];
    let profile = deploy(&tb, &cfg).expect("deploys").profile;
    let fresh = || {
        Cocopelia::new(
            Gpu::new(tb.clone(), ExecMode::TimingOnly, 29),
            profile.clone(),
        )
    };
    let request = || {
        GemmRequest::new(ghost(2048, 2048), ghost(2048, 2048), ghost(2048, 2048))
            .alpha(1.0)
            .beta(1.0)
            .tile(TileChoice::Auto)
    };
    let typed = request().run(&mut fresh()).expect("typed runs").report;
    let erased = fresh().submit(request()).expect("submit runs");
    assert_eq!(typed, erased);
    assert!(typed.selection.is_some(), "auto actually selected");
}

/// `submit` erases the request type but must not change its behaviour.
#[test]
fn submit_matches_typed_run() {
    let request = || {
        GemmRequest::new(ghost(1024, 1024), ghost(1024, 1024), ghost(1024, 1024))
            .alpha(1.0)
            .beta(1.0)
            .tile(TileChoice::Fixed(512))
    };
    let typed: RoutineReport = request().run(&mut ctx(31)).expect("typed runs").report;
    let erased = ctx(31).submit(request()).expect("submit runs");
    assert_eq!(typed, erased);
}

/// Shared operands are an executor feature; a direct call must refuse
/// them loudly instead of guessing.
#[test]
fn direct_submit_rejects_shared_operands() {
    let req = GemmRequest::<f64>::new(
        SharedMat::new("A", 256, 256),
        ghost(256, 256),
        ghost(256, 256),
    )
    .tile(TileChoice::Fixed(128));
    let err = ctx(37).submit(req).expect_err("must refuse");
    assert!(
        matches!(&err, RuntimeError::SharedOperand { key } if key == "A"),
        "unexpected error: {err}"
    );
}
