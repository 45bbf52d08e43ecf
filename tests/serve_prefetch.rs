//! Cross-request h2d prefetch: the overlap-predicted pre-upload of the
//! next queued request's missing shared operands, the estimate fixes
//! that gate it (residency-aware service estimates, degrade-aware upload
//! estimates), and the bit-identity of prefetch-off runs.

use std::collections::BTreeSet;

use cocopelia_core::profile::SystemProfile;
use cocopelia_core::transfer::{LatBw, TransferModel};
use cocopelia_gpusim::{
    testbed_i, DegradeWindow, ExecMode, FaultSpec, NoiseSpec, SimTime, TestbedSpec,
};
use cocopelia_obs::{check_spans, SpanPhase};
use cocopelia_runtime::serve::{ExecutorConfig, RequestStatus, ServeOptions, ServeSession};
use cocopelia_runtime::{GemmRequest, MatOperand, MultiGpu, RoutineRequest, SharedMat, TileChoice};
use cocopelia_xp::run_serve;

fn quiet() -> TestbedSpec {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    tb
}

fn dummy_profile() -> SystemProfile {
    SystemProfile::new(
        "prefetch-test",
        TransferModel {
            h2d: LatBw { t_l: 0.0, t_b: 0.0 },
            d2h: LatBw { t_l: 0.0, t_b: 0.0 },
            sl_h2d: 1.0,
            sl_d2h: 1.0,
        },
    )
}

fn ghost(n: usize) -> MatOperand<f64> {
    MatOperand::HostGhost { rows: n, cols: n }
}

/// A skewed trace with prefetch opportunity: each big ghost-operand gemm
/// (long predicted run, ample h2d idle tail) is followed by a small gemm
/// whose shared operands are unique to it — so while the big request
/// runs, the small one's operands are the next thing worth staging.
fn skewed_trace(pairs: usize) -> Vec<RoutineRequest> {
    let (big, small) = (4096usize, 512usize);
    let mut trace = Vec::new();
    for i in 0..pairs {
        trace.push(
            GemmRequest::<f64>::new(ghost(big), ghost(big), ghost(big))
                .alpha(1.0)
                .beta(1.0)
                .tile(TileChoice::Fixed(1024))
                .into(),
        );
        trace.push(
            GemmRequest::<f64>::new(
                SharedMat::new(format!("A{i}"), small, small),
                SharedMat::new(format!("B{i}"), small, small),
                ghost(small),
            )
            .alpha(1.0)
            .beta(1.0)
            .tile(TileChoice::Fixed(256))
            .into(),
        );
    }
    trace
}

/// The headline acceptance bar: on a warm skewed trace, `--prefetch`
/// strictly beats the FIFO no-prefetch makespan through measured h2d/exec
/// overlap — the staged copies demonstrably hid under the running
/// attempt's compute, and their targets claimed them as residency hits.
#[test]
fn prefetch_beats_fifo_makespan_via_measured_overlap() {
    let plans = FaultSpec::none().per_device(1);
    let off = run_serve(
        &quiet(),
        &plans,
        skewed_trace(4),
        ServeOptions::new().tracing(),
        None,
    )
    .expect("no-prefetch run");
    let on = run_serve(
        &quiet(),
        &plans,
        skewed_trace(4),
        ServeOptions::new().tracing().prefetch(),
        None,
    )
    .expect("prefetch run");

    for cmp in [&off, &on] {
        assert_eq!(cmp.report.outcomes.len(), 8);
        assert!(cmp
            .report
            .outcomes
            .iter()
            .all(|o| matches!(o.status, RequestStatus::Completed(_))));
        check_spans(&cmp.report.trace.as_ref().unwrap().spans)
            .expect("span invariants hold with prefetch");
    }
    assert_eq!(off.report.metrics.counter("prefetch_issued_total"), 0);

    let issued = on.report.metrics.counter("prefetch_issued_total");
    let hits = on.report.metrics.counter("prefetch_hits_total");
    let overlap_ns = on.report.metrics.counter("prefetch_overlap_ns");
    assert!(issued > 0, "the skewed trace must trigger prefetches");
    assert_eq!(hits, issued, "every staged operand's target must claim it");
    assert!(
        overlap_ns > 0,
        "prefetch copies must measurably overlap the running attempt's compute"
    );
    assert!(
        on.report
            .trace
            .as_ref()
            .unwrap()
            .spans
            .iter()
            .any(|s| s.phase == SpanPhase::Prefetch),
        "prefetch copies must surface as Prefetch spans"
    );

    let m_on = on.report.makespan.as_nanos();
    let m_off = off.report.makespan.as_nanos();
    assert!(
        m_on < m_off,
        "prefetch must strictly beat the no-prefetch makespan ({m_on} ns vs {m_off} ns)"
    );
    // Same useful work: hiding uploads must not change what was computed.
    assert_eq!(
        on.report.total_flops.to_bits(),
        off.report.total_flops.to_bits()
    );
}

/// With prefetch off, a run through the full option plumbing is
/// bit-identical to one where prefetch is never mentioned at all — the
/// feature adds zero enqueues, zero metrics, and zero scheduling
/// perturbation when disarmed.
#[test]
fn prefetch_off_replays_bit_identical_to_unaware_path() {
    use cocopelia_runtime::serve::SchedulePolicy;
    let plans = FaultSpec::none().per_device(2);
    let fifo = ServeOptions::new().policy(SchedulePolicy::Fifo);
    let unaware =
        run_serve(&quiet(), &plans, skewed_trace(3), fifo, None).expect("prefetch-unaware run");
    let off = run_serve(&quiet(), &plans, skewed_trace(3), ServeOptions::new(), None)
        .expect("prefetch-off run");
    assert_eq!(
        off.report.makespan.as_nanos(),
        unaware.report.makespan.as_nanos()
    );
    assert_eq!(off.report.per_device_busy, unaware.report.per_device_busy);
    assert_eq!(off.report.outcomes, unaware.report.outcomes);
    assert_eq!(
        off.report.total_flops.to_bits(),
        unaware.report.total_flops.to_bits()
    );
    assert_eq!(off.report.render(), unaware.report.render());
    assert_eq!(off.report.metrics.counter("prefetch_issued_total"), 0);
    assert_eq!(off.report.metrics.counter("prefetch_skipped_total"), 0);
}

/// The residency-aware service estimate: under a shed watermark sized
/// between the warm and cold costs of the same request, the arrival whose
/// shared operand is already resident is admitted while the identical-
/// shape cold arrival is shed. (The old estimate priced every shared
/// operand as a fresh upload against device 0, so warm repeat traffic was
/// spuriously rejected.)
#[test]
fn residency_warm_arrival_admitted_while_cold_twin_sheds() {
    let tb = quiet();
    let n = 2048usize; // 2 x 32 MiB shared inputs: upload dominates the estimate.
    let upload_secs = 2.0 * tb.link.h2d.ideal_time(n * n * 8);
    let gemm = |prefix: &str| -> RoutineRequest {
        GemmRequest::<f64>::new(
            SharedMat::new(format!("{prefix}_a"), n, n),
            SharedMat::new(format!("{prefix}_b"), n, n),
            ghost(n),
        )
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Fixed(512))
        .into()
    };

    let pool = MultiGpu::new(&tb, 1, ExecMode::TimingOnly, 42, dummy_profile());
    let opts = ServeOptions::new().shed_flow_secs(upload_secs / 2.0);
    let mut exec =
        ServeSession::with_options(pool, ExecutorConfig::default(), opts).expect("session");

    // Closed-queue warm-up (the watermark governs arrivals only).
    exec.submit(gemm("warm"));
    let warmup = exec.drain();
    assert!(warmup
        .outcomes
        .iter()
        .all(|o| matches!(o.status, RequestStatus::Completed(_))));

    let warm_id = exec.submit_at(gemm("warm"), SimTime::from_nanos(0));
    let cold_id = exec.submit_at(gemm("cold"), SimTime::from_nanos(1));
    let report = exec.drain();
    let status = |id| {
        &report
            .outcomes
            .iter()
            .find(|o| o.id == id)
            .expect("outcome present")
            .status
    };
    assert!(
        matches!(status(warm_id), RequestStatus::Completed(_)),
        "warm repeat arrival must be admitted: {:?}",
        status(warm_id)
    );
    assert!(
        matches!(status(cold_id), RequestStatus::Rejected { .. }),
        "cold twin must shed on the same watermark: {:?}",
        status(cold_id)
    );
}

/// The degrade-aware upload estimate: with device 0's h2d link inside a
/// fault-plan degrade window, dispatch prices the shared-operand upload
/// at the degraded bandwidth and routes the request to the healthy peer
/// (the old estimate used ideal link time, leaving the tie to fall on
/// device 0).
#[test]
fn degraded_link_dispatch_prefers_healthy_peer() {
    let degraded = FaultSpec {
        degrade: vec![DegradeWindow {
            start_s: 0.0,
            end_s: 1e6,
            factor: 0.01,
        }],
        ..FaultSpec::none()
    };
    let plans = [degraded, FaultSpec::none()];
    let pool =
        MultiGpu::with_fault_plans(&quiet(), ExecMode::TimingOnly, 42, dummy_profile(), &plans);
    let mut exec = ServeSession::new(pool, ExecutorConfig::default());
    let n = 2048;
    exec.submit(
        GemmRequest::<f64>::new(
            SharedMat::new("A", n, n),
            SharedMat::new("B", n, n),
            ghost(n),
        )
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Fixed(512)),
    );
    let report = exec.drain();
    assert_eq!(report.outcomes.len(), 1);
    assert!(matches!(
        report.outcomes[0].status,
        RequestStatus::Completed(_)
    ));
    assert_eq!(
        report.outcomes[0].device,
        Some(1),
        "the degraded-link device must lose the upload-cost comparison"
    );
}

/// Prefetched-but-unclaimed operands are released with accounting, and a
/// drained session leaves no pinned entries or stray allocations behind:
/// every device's live buffers are exactly its residency cache.
#[test]
fn prefetch_pins_release_and_nothing_leaks() {
    let tb = quiet();
    let deployed =
        cocopelia_deploy::deploy(&tb, &cocopelia_deploy::DeployConfig::quick()).expect("deploy");
    let pool = MultiGpu::new(&tb, 1, ExecMode::TimingOnly, 42, deployed.profile);
    let opts = ServeOptions::new().tracing().prefetch();
    let mut exec =
        ServeSession::with_options(pool, ExecutorConfig::default(), opts).expect("session");
    for req in skewed_trace(3) {
        exec.submit(req);
    }
    let report = exec.drain();
    assert!(report
        .outcomes
        .iter()
        .all(|o| matches!(o.status, RequestStatus::Completed(_))));
    let issued = report.metrics.counter("prefetch_issued_total");
    assert!(issued > 0, "the skewed trace must trigger prefetches");
    assert_eq!(
        issued,
        report.metrics.counter("prefetch_hits_total")
            + report.metrics.counter("prefetch_released_total")
            + report.metrics.counter("prefetch_aborted_total"),
        "every staged operand must be claimed, released, or aborted"
    );
    // No pinned leftovers, no allocation the cache does not track.
    for (d, dev) in exec.pool().devices().iter().enumerate() {
        let live: BTreeSet<_> = dev.gpu().live_device_buffers().into_iter().collect();
        let resident: BTreeSet<_> = exec.residency(d).device_buffers().into_iter().collect();
        assert_eq!(live, resident, "dev{d} live buffers != residency cache");
        assert!(
            dev.gpu().live_host_buffers().is_empty(),
            "dev{d} still pins staging ghosts"
        );
    }
    check_spans(&report.trace.as_ref().unwrap().spans).expect("prefetch spans satisfy invariants");
}
