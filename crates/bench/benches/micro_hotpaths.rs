//! Instruction-count-style microbenches for the serving hot paths: the
//! scheduler's dispatch decision (FIFO, and the Predictive class-head
//! scan over a 1,024-request queue), the open-arrival event loop (arrival
//! admission interleaved with dispatch), the residency-cache admission
//! probe,
//! the span-record / Perfetto-export trace path, the streaming
//! telemetry primitives (window rotation, flight-recorder ring record),
//! and the per-dispatch decision points (adaptive hedge threshold,
//! canary-probe due scan, prefetch admission).
//!
//! Uses the `iai_callgrind` harness (vendored wall-clock stand-in; the
//! registry version counts instructions under callgrind). Each function
//! is self-contained — setup inside, hot loop sized to dominate it.

use iai_callgrind::{black_box, main};

use cocopelia_core::exec_table::ExecTable;
use cocopelia_core::params::RoutineClass;
use cocopelia_core::profile::SystemProfile;
use cocopelia_core::transfer::{LatBw, TransferModel};
use cocopelia_gpusim::{testbed_i, EngineKind, ExecMode, NoiseSpec, SimTime, TraceEntry};
use cocopelia_hostblas::Dtype;
use cocopelia_obs::{DeviceLane, FlightRecorder, ServeTrace, SpanLog, SpanPhase, WindowedMetrics};
use cocopelia_runtime::serve::{
    ExecutorConfig, HedgeConfig, SchedulePolicy, ServeOptions, ServeSession,
};
use cocopelia_runtime::{GemmRequest, MatOperand, MultiGpu, RoutineRequest, SharedMat, TileChoice};
use cocopelia_xp::small_mix_request_trace;

fn dummy_profile() -> SystemProfile {
    SystemProfile::new(
        "micro",
        TransferModel {
            h2d: LatBw { t_l: 0.0, t_b: 0.0 },
            d2h: LatBw { t_l: 0.0, t_b: 0.0 },
            sl_h2d: 1.0,
            sl_d2h: 1.0,
        },
    )
}

fn shared_gemm() -> RoutineRequest {
    GemmRequest::<f64>::new(
        SharedMat::new("A", 1024, 1024),
        SharedMat::new("B", 1024, 1024),
        MatOperand::HostGhost {
            rows: 1024,
            cols: 1024,
        },
    )
    .alpha(1.0)
    .beta(1.0)
    .tile(TileChoice::Fixed(512))
    .into()
}

fn quiet_session(devices: usize) -> ServeSession {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    let pool = MultiGpu::new(&tb, devices, ExecMode::TimingOnly, 42, dummy_profile());
    ServeSession::new(pool, ExecutorConfig::default())
}

/// The scheduler's per-request decision: pop the next request and pick
/// its device (affinity + ready-time heuristic) without executing it.
#[inline(never)]
fn next_dispatch() {
    let mut exec = quiet_session(4);
    for _ in 0..64 {
        exec.submit(shared_gemm());
    }
    while let Some(decision) = exec.next_dispatch_for_bench() {
        black_box(decision);
    }
}

/// A profile that predicts the small mix: the dummy transfer model plus
/// a two-point kernel-time table for each f64 routine.
fn mix_profile() -> SystemProfile {
    let mut profile = dummy_profile();
    for (routine, t) in [
        (RoutineClass::Gemm, 256),
        (RoutineClass::Axpy, 1 << 14),
        (RoutineClass::Dot, 1 << 14),
        (RoutineClass::Gemv, 256),
    ] {
        profile.insert_exec(
            routine,
            Dtype::F64,
            ExecTable::new(vec![(t, 1e-5), (2 * t, 6e-5)]),
        );
    }
    profile
}

/// The Predictive pick: pop 1,024 queued requests (4 shapes × 16 keys)
/// through the class-head scan without executing them.
#[inline(never)]
fn next_dispatch_predictive() {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    let pool = MultiGpu::new(&tb, 4, ExecMode::TimingOnly, 42, mix_profile());
    let mut exec = ServeSession::with_options(
        pool,
        ExecutorConfig::default(),
        ServeOptions::new().policy(SchedulePolicy::Predictive),
    )
    .expect("no telemetry stream");
    exec.submit_all(small_mix_request_trace(1024));
    while let Some(decision) = exec.next_dispatch_for_bench() {
        black_box(decision);
    }
}

/// The open-arrival event loop: `next_event` admitting scheduled
/// arrivals interleaved with dispatch pulls, the hot path of a
/// `ServeSession::drain` under a live arrival stream.
#[inline(never)]
fn next_event() {
    let mut exec = quiet_session(4);
    for i in 0..64u64 {
        exec.submit_at(shared_gemm(), SimTime::from_nanos(i * 1_000));
    }
    while let Some(event) = exec.next_event_for_bench() {
        black_box(event);
    }
}

/// The admission probe against a residency cache populated by a real
/// shared-operand run: `fits` plus the buffer enumeration.
#[inline(never)]
fn residency_probe() {
    let mut exec = quiet_session(2);
    for _ in 0..4 {
        exec.submit(shared_gemm());
    }
    exec.drain();
    let cache = exec.residency(0);
    for i in 0..200_000usize {
        black_box(cache.fits(i & 0xFFFF));
    }
    black_box(cache.device_buffers());
    black_box(cache.used_bytes());
}

/// The span-record hot path: what the session pays per traced request.
#[inline(never)]
fn span_record() {
    let mut log = SpanLog::default();
    for i in 0..10_000u64 {
        let parent = log.record(
            None,
            i,
            Some((i % 4) as usize),
            SpanPhase::Dispatch,
            "attempt 0",
            i * 100,
            i * 100 + 80,
            Some(i),
        );
        log.record(
            Some(parent),
            i,
            Some((i % 4) as usize),
            SpanPhase::Exec,
            "exec",
            i * 100 + 10,
            i * 100 + 70,
            None,
        );
    }
    black_box(log.len());
}

/// The Perfetto protobuf encode of a serve trace with engine lanes.
#[inline(never)]
fn perfetto_export() {
    let mut log = SpanLog::default();
    let mut entries = Vec::new();
    for i in 0..1_000u64 {
        log.record(
            None,
            i,
            Some((i % 2) as usize),
            SpanPhase::Dispatch,
            "attempt 0",
            i * 200,
            i * 200 + 150,
            Some(i),
        );
        entries.push(TraceEntry {
            op: i as usize,
            stream: cocopelia_gpusim::StreamId::from_raw(0),
            engine: EngineKind::Compute,
            label: "gemm tile".to_owned(),
            start: SimTime::from_nanos(i * 200),
            end: SimTime::from_nanos(i * 200 + 150),
            bytes: None,
            tag: None,
        });
    }
    let trace = ServeTrace {
        spans: log.into_spans(),
        lanes: vec![DeviceLane {
            device: 0,
            name: "dev0".to_owned(),
            entries,
        }],
    };
    black_box(cocopelia_obs::perfetto::to_perfetto(black_box(&trace)));
}

/// The telemetry tick's window path: per-outcome counter/histogram lands
/// plus clock-driven rotation across many windows.
#[inline(never)]
fn window_rotate() {
    let bounds = [1e-4, 1e-3, 1e-2, 0.1, 1.0];
    let mut win = WindowedMetrics::new(1_000);
    let mut closed = 0usize;
    for i in 0..50_000u64 {
        win.counter_add("requests_finished", 1);
        win.gauge_set("queue_depth", (i % 64) as f64);
        win.histogram_observe("flow_secs", &bounds, (i % 97) as f64 * 1e-4);
        // One rotation every ~250 observations.
        closed += win.advance_to(i * 4).len();
    }
    black_box(closed);
    black_box(win.index());
}

/// The hedge decision every successful attempt pays when hedging is
/// armed: the adaptive threshold (the running p95 of the drain's drift
/// errors) against an elapsed clock advance, without launching anything.
#[inline(never)]
fn hedge_decision() {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    let pool = MultiGpu::new(&tb, 2, ExecMode::TimingOnly, 42, dummy_profile());
    let mut exec = ServeSession::with_options(
        pool,
        ExecutorConfig::default(),
        ServeOptions::new().hedge(HedgeConfig::default()),
    )
    .expect("session");
    let decide = |exec: &ServeSession| {
        for i in 0..50_000u64 {
            // Alternate clear underruns and gross overruns of a 1 ms
            // prediction so both outcomes stay hot.
            let elapsed_ns = 500_000 + (i % 2) * 5_000_000;
            black_box(exec.hedge_decision_for_bench(black_box(1e-3), black_box(elapsed_ns)));
        }
    };
    // Cold start: no drift records yet, the doubled warm-up multiplier.
    decide(&exec);
    // Seed the open drain's drift records directly (a drain would hand
    // them to its report and reset the threshold to warm-up): 4,096
    // errors spread over 0–40% put the threshold on its p95 branch.
    for i in 0..4_096u64 {
        let err = (i * 7_919 % 4_096) as f64 / 4_096.0 * 0.4;
        exec.seed_drift_for_bench(1e-3 * (1.0 + err), 1e-3);
    }
    decide(&exec);
}

/// The prefetch admission decision every primary dispatch pays when
/// cross-request prefetch is armed: effective h2d time for the candidate
/// bytes against the predicted idle window plus the residency free-budget
/// probe, without staging anything.
#[inline(never)]
fn prefetch_decision() {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE;
    let pool = MultiGpu::new(&tb, 2, ExecMode::TimingOnly, 42, dummy_profile());
    let mut exec = ServeSession::with_options(
        pool,
        ExecutorConfig::default(),
        ServeOptions::new().prefetch(),
    )
    .expect("session");
    // A few drained requests leave the residency cache realistically
    // populated for the free-budget probe.
    for _ in 0..4 {
        exec.submit(shared_gemm());
    }
    exec.drain();
    for i in 0..100_000u64 {
        // Alternate operand sets that hide inside and overflow a 1 ms
        // window so both decision branches stay hot.
        let bytes = 1 << (16 + (i % 2) * 12);
        black_box(exec.prefetch_decision_for_bench(0, black_box(bytes as usize), black_box(1e-3)));
    }
}

/// Probe scheduling under a wide quarantine: the session's "which canary
/// is due next" scan, the per-event-loop-iteration cost probation adds.
#[inline(never)]
fn probe_schedule() {
    let mut exec = quiet_session(4);
    for d in 0..4 {
        exec.seed_probe_for_bench(d, (d as u64 + 1) * 1_000_000);
    }
    for _ in 0..100_000u64 {
        black_box(exec.next_probe_for_bench());
    }
}

/// The flight recorder's per-span record under constant eviction
/// pressure: a full ring popping its oldest span for every push.
#[inline(never)]
fn ring_record() {
    let mut log = SpanLog::default();
    for i in 0..4_096u64 {
        log.record(
            None,
            i,
            Some((i % 4) as usize),
            SpanPhase::Dispatch,
            "attempt 0",
            i * 100,
            i * 100 + 80,
            None,
        );
    }
    let spans = log.into_spans();
    let mut ring = FlightRecorder::new(256);
    for _ in 0..16 {
        for s in &spans {
            ring.record(s.clone());
        }
    }
    black_box(ring.len());
    black_box(ring.dropped());
}

main!(
    callgrind_args = "--simulate-wb=no", "--simulate-hwpref=yes",
        "--I1=32768,8,64", "--D1=32768,8,64", "--LL=8388608,16,64";
    functions = next_dispatch, next_dispatch_predictive, next_event, residency_probe,
        span_record, perfetto_export, window_rotate, ring_record, hedge_decision,
        probe_schedule, prefetch_decision
);
