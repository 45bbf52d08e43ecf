//! Output correctness checks. Any failure aborts the run before a single
//! number is printed.

use std::collections::BTreeSet;

use cocopelia_core::SystemProfile;
use cocopelia_gpusim::{ExecMode, Gpu, TestbedSpec};
use cocopelia_hostblas::{level1, level2, level3, validate, Matrix};
use cocopelia_runtime::serve::{ServeReport, ServeSession};
use cocopelia_runtime::{
    AxpyRequest, Cocopelia, DotRequest, GemmRequest, GemvRequest, MatOperand, RoutineRequest,
    TileChoice, VecOperand,
};

/// A failed check, naming what disagreed.
pub type Check = Result<(), String>;

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Check {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn data(len: usize, salt: u64) -> Vec<f64> {
    (0..len as u64)
        .map(|i| ((i.wrapping_mul(2_654_435_761) ^ salt) % 1000) as f64 / 500.0 - 1.0)
        .collect()
}

/// Runs dgemm, daxpy, ddot and dgemv in [`ExecMode::Functional`] on small
/// operands with real data and compares each result with the host BLAS
/// reference within [`validate::gemm_tolerance`].
pub fn functional_subset(testbed: &TestbedSpec, profile: &SystemProfile) -> Check {
    let mut ctx = Cocopelia::new(
        Gpu::new(testbed.clone(), ExecMode::Functional, 11),
        profile.clone(),
    );
    let err = |what: &str, e: cocopelia_runtime::RuntimeError| format!("functional {what}: {e}");
    let (m, n, k) = (96, 80, 64);
    let a = Matrix::from_vec(m, k, data(m * k, 1));
    let b = Matrix::from_vec(k, n, data(k * n, 2));
    let c = Matrix::from_vec(m, n, data(m * n, 3));
    let mut want = c.clone();
    level3::gemm(1.5, &a.view(), &b.view(), 0.5, &mut want.view_mut());
    let got = GemmRequest::<f64>::new(
        MatOperand::Host(a),
        MatOperand::Host(b),
        MatOperand::Host(c),
    )
    .alpha(1.5)
    .beta(0.5)
    .tile(TileChoice::Fixed(32))
    .run(&mut ctx)
    .map_err(|e| err("dgemm", e))?
    .c
    .ok_or("functional dgemm returned no C")?;
    ensure(
        validate::matrices_close(&got, &want, validate::gemm_tolerance::<f64>(k)),
        || "functional dgemm differs from the host reference".into(),
    )?;

    let len = 1000;
    let (x, y) = (data(len, 4), data(len, 5));
    let mut want = y.clone();
    level1::axpy(-0.75, &x, &mut want);
    let got = AxpyRequest::<f64>::new(VecOperand::Host(x.clone()), VecOperand::Host(y.clone()))
        .alpha(-0.75)
        .tile(TileChoice::Fixed(256))
        .run(&mut ctx)
        .map_err(|e| err("daxpy", e))?
        .y
        .ok_or("functional daxpy returned no y")?;
    ensure(
        validate::max_rel_err(&got, &want) <= validate::gemm_tolerance::<f64>(1),
        || "functional daxpy differs from the host reference".into(),
    )?;

    let want = level1::dot(&x, &y);
    let got = DotRequest::<f64>::new(VecOperand::Host(x), VecOperand::Host(y))
        .tile(TileChoice::Fixed(256))
        .run(&mut ctx)
        .map_err(|e| err("ddot", e))?
        .value
        .ok_or("functional ddot returned no value")?;
    ensure(
        validate::max_rel_err(&[got], &[want]) <= validate::gemm_tolerance::<f64>(len),
        || format!("functional ddot {got} != host reference {want}"),
    )?;

    let (rows, cols) = (70, 50);
    let a = Matrix::from_vec(rows, cols, data(rows * cols, 6));
    let (x, y) = (data(cols, 7), data(rows, 8));
    let mut want = y.clone();
    level2::gemv(2.0, &a.view(), &x, -1.0, &mut want);
    let got = GemvRequest::<f64>::new(
        MatOperand::Host(a),
        VecOperand::Host(x),
        VecOperand::Host(y),
    )
    .alpha(2.0)
    .beta(-1.0)
    .tile(TileChoice::Fixed(16))
    .run(&mut ctx)
    .map_err(|e| err("dgemv", e))?
    .y
    .ok_or("functional dgemv returned no y")?;
    ensure(
        validate::max_rel_err(&got, &want) <= validate::gemm_tolerance::<f64>(cols),
        || "functional dgemv differs from the host reference".into(),
    )
}

/// The serving invariants of one drained session that was handed
/// `requests`: every request terminal exactly once, device flops equal to
/// the executed requests' flops, and no device buffer outside the
/// residency cache.
pub fn serve_session(
    session: &ServeSession,
    report: &ServeReport,
    requests: &[RoutineRequest],
) -> Check {
    let ids: BTreeSet<u64> = report.outcomes.iter().map(|o| o.id.0).collect();
    let terminal = report.completed() + report.rejected() + report.timed_out() + report.failed();
    ensure(
        ids.len() == report.outcomes.len() && terminal == requests.len(),
        || {
            format!(
                "accounting: {} submitted, {} distinct outcomes, {terminal} terminal",
                requests.len(),
                ids.len()
            )
        },
    )?;
    let mut want_flops = 0.0;
    for o in &report.outcomes {
        let req = usize::try_from(o.id.0)
            .ok()
            .and_then(|i| requests.get(i))
            .ok_or_else(|| format!("outcome for unknown request {}", o.id.0))?;
        if o.executed_report().is_some() && !o.coalesced && !o.host_fallback {
            want_flops += req.problem_spec().flops();
        }
    }
    ensure(
        (report.total_flops - want_flops).abs() <= 1e-9 * want_flops,
        || {
            format!(
                "total_flops {} != executed requests' {want_flops}",
                report.total_flops
            )
        },
    )?;
    for (d, dev) in session.pool().devices().iter().enumerate() {
        if report.quarantined.contains(&d) {
            continue;
        }
        let live: BTreeSet<_> = dev.gpu().live_device_buffers().into_iter().collect();
        let cached: BTreeSet<_> = session.residency(d).device_buffers().into_iter().collect();
        ensure(
            live == cached && dev.gpu().live_host_buffers().is_empty(),
            || {
                format!(
                    "dev{d} leaked: {} live buffers, {} cached",
                    live.len(),
                    cached.len()
                )
            },
        )?;
    }
    Ok(())
}
