#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, and the full test suite.
#
# Offline-registry caveat: this workspace resolves its external dependencies
# (rand, serde, serde_json, proptest, criterion, iai_callgrind) to the
# API-compatible stubs
# vendored under vendor/ via path entries in [workspace.dependencies] —
# `cargo` never touches a registry, so the script runs in fully offline
# environments. Do not add registry dependencies without vendoring them the
# same way.

set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== cargo build --release =="
cargo build --release

echo "== cargo test =="
cargo test -q

echo "== benchmark build (perfbench against the public API) =="
# perfbench/ is its own Cargo workspace compiled against crates/* by path:
# building it here makes a public-API removal that breaks the benchmark
# fail CI instead of the benchmark run.
CARGO_TARGET_DIR=.bench_build cargo build --release --manifest-path perfbench/Cargo.toml

echo "== perf snapshot gate (vs BENCH_seed.json) =="
# The standard sweep is deterministic (quiet testbed, fixed seeds): any
# makespan drift against the committed baseline is a code change. If a
# change legitimately shifts performance, regenerate the baseline in the
# same PR: target/release/cocopelia snapshot --out BENCH_seed.json
target/release/cocopelia snapshot --out target/BENCH_ci.json --label ci
target/release/cocopelia compare BENCH_seed.json target/BENCH_ci.json

echo "== scheduling policy gate (predictive < fifo, edf deadline wins, dispatch counts) =="
# The policy-comparison acceptance tests: Predictive must strictly beat
# FIFO's makespan on the skewed trace, EDF must meet the deadline FIFO
# misses, and all three policies must export sched_predict_abs_err.
# Exact count bounds on a Predictive drain of the 16-key, 4-shape small
# mix: serve_predict_calls_total <= distinct shapes x devices (16), and
# serve_dispatch_scores_total at 4n over n (n = 256 -> 1024) <= 5 — a
# scan of every queued request at every pop would give ~16.
cargo test --release -q -p cocopelia-xp --test serve_sched

echo "== open-arrival gate (backpressure, coalescing, closed-queue replay) =="
# The ServeSession acceptance bars: seeded Poisson overload sheds to a
# bounded queue and replays bit-identically, coalescing uploads strictly
# fewer h2d bytes and beats the non-coalesced makespan, and two
# closed-queue drains of the same trace under the same seeded fault plan
# agree bit for bit.
cargo test --release -q -p cocopelia-xp --test serve_open

echo "== chaos soak gate (seeded fault injection) =="
# Fault injection is seeded and rolled at enqueue time, so the soak —
# scheduler retries, quarantine + re-dispatch, host fallback, leak and
# trace-invariant checks over three fixed seeds — must pass bit-identically
# on every run. The seeds live in tests/serve_faults.rs.
cargo test --release -q -p cocopelia-xp --test serve_faults

echo "== straggler defense gate (hedging, probation, retry budgets) =="
# The self-healing acceptance bars over the 3-seed straggler/probation
# matrix: hedged re-dispatch strictly improves p99 flow on the degraded-
# link scenario with bit-identical total flops, canary probation re-admits
# a drained device that then serves again, the retry-budget breaker fails
# fast under a fault storm, a device lost mid-hedge leaks nothing, and a
# fully-defended run replays bit-identically. Seeds live in
# tests/serve_straggler.rs.
cargo test --release -q -p cocopelia-xp --test serve_straggler

echo "== prefetch gate (prefetch beats baseline, estimate fixes, off-identity) =="
# The cross-request prefetch acceptance bars: on the warm skewed trace,
# --prefetch strictly beats the FIFO no-prefetch makespan through
# measured h2d/exec overlap (staged copies drain on the background stream
# under the running attempt's compute and their targets claim them as
# residency hits), a prefetch-off run replays bit-identically to the
# prefetch-unaware path, the residency-aware service estimate admits warm
# repeat arrivals a cold twin's watermark sheds, the degrade-aware upload
# estimate routes dispatch to the healthy peer, and a drained session
# leaves no pinned or leaked staging buffers.
cargo test --release -q -p cocopelia-xp --test serve_prefetch

echo "== trace pipeline gate (spans, perfetto, timeline) =="
# The serve tracing pipeline end to end: span invariants on chaos runs,
# Perfetto round-trip decode (track counts, flows, per-track monotonicity),
# timeline rendering, and traced-vs-untraced timing identity.
cargo test --release -q -p cocopelia-xp --test serve_trace

echo "== streaming telemetry gate (watch windows, SLO dumps, bounded memory) =="
# The serve --watch acceptance run at full size: a 50k-request drain under
# telemetry keeps span memory bounded by the flight-recorder ring, emits a
# deterministic window stream, streams a decodable Perfetto file, and fires
# exactly one SLO-breach dump — while staying bit-identical to the
# telemetry-off run. (Debug `cargo test` runs a 5k slice of the same test.)
cargo test --release -q -p cocopelia-xp --test serve_watch

echo "== microbench smoke (dispatch / residency / trace hot paths) =="
# Builds and runs the iai-callgrind-style microbenches once so the hot-path
# bench targets can't rot. Numbers are informational (the vendored harness
# reports wall clock, not instruction counts).
cargo bench --bench micro_hotpaths

echo "CI gate passed."
