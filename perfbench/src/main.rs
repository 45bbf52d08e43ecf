//! Two-clock benchmark of the cocopelia serving and routine layers.
//!
//! ```text
//! cocopelia-perfbench --workload <serve-small-predictive|serve-open-fifo|routine-sweep>
//!                     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process. Set-up (deploy, pool or context
//! build, input generation, tile-grid bookkeeping) is timed only into
//! `setup_s`; the measured phase then repeats fresh sessions — residency
//! and tile-selection caches start empty every time, because users pay
//! that cost on every session — for `--seconds` of host time. Virtual-clock
//! metrics and counts are deterministic for a seed; host-clock metrics are
//! medians over the repetitions, at reference speed ([`calib`]).
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics and writes the benchmark's own spans to `.bench_out/`. Any failed correctness check exits 1 before a number
//! is printed.

mod calib;
mod checks;
mod inputs;
mod metrics;
mod serve;
mod spans;
mod stats;
mod sweep;

use std::process::ExitCode;

use cocopelia_core::SystemProfile;
use cocopelia_deploy::{deploy, DeployConfig};
use cocopelia_gpusim::{NoiseSpec, TestbedSpec};

use metrics::Metric;
use spans::Spans;

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        let pos = argv
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        argv.get(pos + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "bad --seconds".to_owned())?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_owned(),
        seed: get("--seed")?
            .parse()
            .map_err(|_| "bad --seed".to_owned())?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace `{other}` (0 or 1)")),
        },
    })
}

/// A testbed with measurement noise off, as `serve` deploys and serves
/// on: every virtual-clock number is then a pure function of the inputs.
pub fn quiet(mut tb: TestbedSpec) -> TestbedSpec {
    tb.noise = NoiseSpec::NONE;
    tb
}

/// Deploys the quick grid (the one `serve` uses) on each testbed, one
/// `deploy` span per testbed.
pub fn deploy_all(
    spans: &mut Spans,
    testbeds: &[TestbedSpec],
) -> Result<Vec<SystemProfile>, String> {
    testbeds
        .iter()
        .map(|tb| {
            spans
                .scope("deploy", |_| deploy(tb, &DeployConfig::quick()))
                .0
                .map(|d| d.profile)
                .map_err(|e| format!("deploy on {}: {e}", tb.name))
        })
        .collect()
}

/// Exec-table points of a profile, over every routine.
pub fn exec_points(profile: &SystemProfile) -> usize {
    profile.exec.values().map(|t| t.tile_sizes().count()).sum()
}

/// Whole set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Runs the whole set-up `build` [`SETUP_REPS`] times before the measured
/// phase, one `setup` span each, and returns the last repetition's state
/// with every repetition's host seconds at reference speed
/// ([`calib`]). Each repetition's state is dropped before the next is
/// built, so no two copies are ever alive.
pub fn time_setup<T>(
    spans: &mut Spans,
    mut build: impl FnMut(&mut Spans) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let k = calib::factor();
        let (built, t) = spans.scope("setup", &mut build);
        secs.push(t * k);
        state = Some(built?);
    }
    Ok((state.expect("SETUP_REPS > 0"), secs))
}

/// A request or call misses its latency budget when its flow time is
/// more than this multiple of its quoted flow ([`inputs::FlowQuote`]):
/// the time the library's own predictions promise for it. 1.05 is the
/// repository's own line between noise and a regression of a virtual
/// makespan (`cocopelia_obs::DiffConfig::default().makespan_threshold`).
/// The one rule serves every workload; a single caller on the routine
/// sweep has nothing queued ahead, so its quote is its predicted time.
pub const BUDGET_X: f64 = 1.05;

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// What a workload run hands back for printing.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub end_to_end: metrics::EndToEnd,
    pub per_layer: metrics::PerLayer,
    pub notes: Vec<String>,
}

fn run(args: &Args) -> Result<(Vec<Metric>, Outcome, Spans), String> {
    let mut spans = Spans::new(args.trace);
    let mut out = match args.workload.as_str() {
        "serve-small-predictive" => serve::run(&serve::SMALL_PREDICTIVE, args, &mut spans)?,
        "serve-open-fifo" => serve::run(&serve::OPEN_FIFO, args, &mut spans)?,
        "routine-sweep" => sweep::run(args, &mut spans)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    out.end_to_end.peak_rss_mb = peak_rss_mb()?;
    let metrics = if args.trace {
        out.per_layer.metrics()
    } else {
        out.end_to_end.metrics()
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.name));
    }
    Ok((metrics, out, spans))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    let (metrics, out, spans) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("check failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = format!(".bench_out/spans-{}-{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, spans.to_json(&args.workload, args.seed)));
        if let Err(e) = written {
            eprintln!("writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("spans: {} written to {path}", spans.len());
    }
    println!(
        "workload {} seed {} ({} attempted, {} failed)",
        args.workload, args.seed, out.attempted, out.failed
    );
    for note in &out.notes {
        println!("  note: {note}");
    }
    for m in &metrics {
        println!(
            "  {:<30} {:>16.6} {:<9} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        body.join(",")
    );
    ExitCode::SUCCESS
}
