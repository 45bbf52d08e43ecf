//! The per-pipeline observer: one object that accumulates metrics, overlap
//! statistics, and prediction drift across routine calls.
//!
//! The runtime owns one [`Observer`] per library handle and feeds it a
//! [`CallObservation`] after every routine; users read it back through
//! `Cocopelia::observer()` for text reports, JSON summaries, or raw
//! records.

use crate::drift::{DriftAccountant, DriftRecord};
use crate::metrics::Registry;
use crate::overlap::OverlapStats;
use cocopelia_core::models::ModelKind;
use cocopelia_gpusim::{EngineKind, TraceEntry};
use serde::Value;
use std::fmt::Write as _;

/// Histogram bounds for per-call overlap efficiency (1x .. 3x).
pub const EFFICIENCY_BOUNDS: [f64; 7] = [1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0];

/// Everything the runtime knows about one finished routine call.
#[derive(Debug, Clone)]
pub struct CallObservation<'a> {
    /// Routine family (`"gemm"`, `"axpy"`, …).
    pub routine: &'static str,
    /// Routine invocation counter (shared with the trace's `OpTag::call`).
    pub call: u64,
    /// Tiling size used.
    pub tile: usize,
    /// Model that chose the tile, if any (fixed tiles have none).
    pub model: Option<ModelKind>,
    /// Sub-kernels launched.
    pub subkernels: usize,
    /// Virtual wall time of the call, in seconds.
    pub elapsed_secs: f64,
    /// Trace entries the call produced.
    pub entries: &'a [TraceEntry],
    /// Overlap statistics of `entries` (the caller computes them once for
    /// its own report as well).
    pub overlap: OverlapStats,
    /// Tile-cache hits during the call (reused device tiles).
    pub tile_hits: u64,
    /// Tile-cache misses during the call (fresh fetches/allocations).
    pub tile_misses: u64,
    /// Per-model drift records scored for this call.
    pub drift: Vec<DriftRecord>,
}

/// Digest of one observed call, kept for reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSummary {
    /// Routine family.
    pub routine: &'static str,
    /// Routine invocation counter.
    pub call: u64,
    /// Tiling size used.
    pub tile: usize,
    /// Model that chose the tile, if any.
    pub model: Option<ModelKind>,
    /// Sub-kernels launched.
    pub subkernels: usize,
    /// Virtual wall time, in seconds.
    pub elapsed_secs: f64,
    /// Overlap statistics of the call's trace slice.
    pub overlap: OverlapStats,
}

/// Accumulates observability state across the life of a pipeline.
#[derive(Debug, Clone, Default)]
pub struct Observer {
    metrics: Registry,
    drift: DriftAccountant,
    calls: Vec<CallSummary>,
    next_call: u64,
}

impl Observer {
    /// A fresh observer.
    pub fn new() -> Self {
        Observer::default()
    }

    /// Allocates the next routine-call id (also used as `OpTag::call`).
    pub fn next_call_id(&mut self) -> u64 {
        let id = self.next_call;
        self.next_call += 1;
        id
    }

    /// Ingests one finished call: updates counters, histograms, drift
    /// aggregates, and the per-call summary list.
    pub fn observe_call(&mut self, obs: CallObservation<'_>) {
        let overlap = obs.overlap;
        self.metrics.counter_add("calls_total", 1);
        match calls_counter(obs.routine) {
            Some(name) => self.metrics.counter_add(name, 1),
            None => self
                .metrics
                .counter_add(&format!("calls_{}", obs.routine), 1),
        }
        self.metrics
            .counter_add("subkernels_total", obs.subkernels as u64);
        let h2d_bytes: u64 = engine_bytes(obs.entries, EngineKind::CopyH2d);
        let d2h_bytes: u64 = engine_bytes(obs.entries, EngineKind::CopyD2h);
        self.metrics.counter_add("h2d_bytes_total", h2d_bytes);
        self.metrics.counter_add("d2h_bytes_total", d2h_bytes);
        self.metrics
            .counter_add("h2d_busy_ns_total", overlap.h2d_busy_ns);
        self.metrics
            .counter_add("exec_busy_ns_total", overlap.exec_busy_ns);
        self.metrics
            .counter_add("d2h_busy_ns_total", overlap.d2h_busy_ns);
        self.metrics
            .counter_add("union_busy_ns_total", overlap.union_busy_ns);
        self.metrics
            .counter_add("makespan_ns_total", overlap.makespan_ns);
        self.metrics
            .counter_add("tile_cache_hits_total", obs.tile_hits);
        self.metrics
            .counter_add("tile_cache_misses_total", obs.tile_misses);
        if let Some(model) = obs.model {
            self.metrics.counter_add(selections_counter(model), 1);
        }
        self.metrics.histogram_observe(
            "overlap_efficiency",
            &EFFICIENCY_BOUNDS,
            overlap.efficiency(),
        );
        for rec in obs.drift {
            self.drift.record(rec);
        }
        self.calls.push(CallSummary {
            routine: obs.routine,
            call: obs.call,
            tile: obs.tile,
            model: obs.model,
            subkernels: obs.subkernels,
            elapsed_secs: obs.elapsed_secs,
            overlap,
        });
    }

    /// Records a selection-cache lookup (model-reuse cache of §IV-C).
    pub fn record_selection_lookup(&mut self, hit: bool) {
        let name = if hit {
            "selection_cache_hits_total"
        } else {
            "selection_cache_misses_total"
        };
        self.metrics.counter_add(name, 1);
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The drift accountant.
    pub fn drift(&self) -> &DriftAccountant {
        &self.drift
    }

    /// Per-call summaries, in call order.
    pub fn calls(&self) -> &[CallSummary] {
        &self.calls
    }

    /// The value-tree form of the whole observer state, for JSON reports.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("metrics".to_owned(), self.metrics.to_value()),
            ("drift".to_owned(), self.drift.to_value()),
            (
                "calls".to_owned(),
                Value::Seq(
                    self.calls
                        .iter()
                        .map(|c| {
                            Value::Map(vec![
                                ("routine".to_owned(), Value::Str(c.routine.to_owned())),
                                ("call".to_owned(), Value::U64(c.call)),
                                ("tile".to_owned(), Value::U64(c.tile as u64)),
                                (
                                    "model".to_owned(),
                                    match c.model {
                                        Some(m) => Value::Str(m.name().to_owned()),
                                        None => Value::Null,
                                    },
                                ),
                                ("subkernels".to_owned(), Value::U64(c.subkernels as u64)),
                                ("elapsed_secs".to_owned(), Value::F64(c.elapsed_secs)),
                                (
                                    "overlap_efficiency".to_owned(),
                                    Value::F64(c.overlap.efficiency()),
                                ),
                                ("makespan_ns".to_owned(), Value::U64(c.overlap.makespan_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the full human-readable report: per-call table, metrics, and
    /// drift aggregates.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== calls ==");
        let _ = writeln!(
            out,
            "{:<6} {:<6} {:>6} {:>8} {:>12} {:>8} {:<16}",
            "call", "routine", "T", "subkrnl", "elapsed ms", "overlap", "model"
        );
        for c in &self.calls {
            let _ = writeln!(
                out,
                "{:<6} {:<6} {:>6} {:>8} {:>12.3} {:>7.2}x {:<16}",
                c.call,
                c.routine,
                c.tile,
                c.subkernels,
                c.elapsed_secs * 1e3,
                c.overlap.efficiency(),
                c.model.map(|m| m.name()).unwrap_or("fixed"),
            );
        }
        let _ = writeln!(out, "\n== metrics ==");
        out.push_str(&self.metrics.render());
        if !self.drift.records().is_empty() {
            let _ = writeln!(out, "\n== prediction drift ==");
            out.push_str(&self.drift.render());
        }
        out
    }
}

/// The `calls_<routine>` counter name of the runtime's routine families,
/// without formatting it per call; `None` for any other routine name.
fn calls_counter(routine: &str) -> Option<&'static str> {
    Some(match routine {
        "gemm" => "calls_gemm",
        "gemv" => "calls_gemv",
        "axpy" => "calls_axpy",
        "dot" => "calls_dot",
        _ => return None,
    })
}

/// The `tile_selections_<model>` counter name of a model.
fn selections_counter(model: ModelKind) -> &'static str {
    match model {
        ModelKind::Cso => "tile_selections_CSO-Model",
        ModelKind::Baseline => "tile_selections_Baseline-Model",
        ModelKind::DataLoc => "tile_selections_Dataloc-Model",
        ModelKind::Bts => "tile_selections_BTS-Model",
        ModelKind::DataReuse => "tile_selections_DR-Model",
    }
}

fn engine_bytes(entries: &[TraceEntry], engine: EngineKind) -> u64 {
    entries
        .iter()
        .filter(|e| e.engine == engine)
        .filter_map(|e| e.bytes)
        .map(|b| b as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocopelia_gpusim::{SimTime, StreamId};

    fn entry(engine: EngineKind, start: u64, end: u64, bytes: Option<usize>) -> TraceEntry {
        TraceEntry {
            op: 0,
            stream: StreamId::from_raw(0),
            engine,
            label: "t".to_owned(),
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
            bytes,
            tag: None,
        }
    }

    #[test]
    fn observe_call_updates_counters_and_calls() {
        let mut obs = Observer::new();
        let id = obs.next_call_id();
        assert_eq!(id, 0);
        let entries = [
            entry(EngineKind::CopyH2d, 0, 100, Some(1024)),
            entry(EngineKind::Compute, 0, 100, None),
        ];
        obs.observe_call(CallObservation {
            routine: "gemm",
            call: id,
            tile: 256,
            model: Some(ModelKind::DataReuse),
            subkernels: 8,
            elapsed_secs: 1e-7,
            entries: &entries,
            overlap: OverlapStats::from_entries(&entries),
            tile_hits: 3,
            tile_misses: 5,
            drift: vec![],
        });
        assert_eq!(obs.metrics().counter("calls_total"), 1);
        assert_eq!(obs.metrics().counter("calls_gemm"), 1);
        assert_eq!(obs.metrics().counter("h2d_bytes_total"), 1024);
        assert_eq!(obs.metrics().counter("tile_cache_hits_total"), 3);
        assert_eq!(obs.metrics().counter("tile_selections_DR-Model"), 1);
        assert_eq!(obs.calls().len(), 1);
        assert_eq!(obs.calls()[0].overlap.efficiency(), 2.0);
        let h = obs
            .metrics()
            .histogram("overlap_efficiency")
            .expect("observed");
        assert_eq!(h.count(), 1);
    }

    /// The static counter names spell exactly what formatting them did.
    #[test]
    fn static_counter_names_match_the_formatted_ones() {
        for routine in ["gemm", "gemv", "axpy", "dot"] {
            assert_eq!(calls_counter(routine), Some(&*format!("calls_{routine}")));
        }
        assert_eq!(calls_counter("syrk"), None);
        for model in [
            ModelKind::Cso,
            ModelKind::Baseline,
            ModelKind::DataLoc,
            ModelKind::Bts,
            ModelKind::DataReuse,
        ] {
            assert_eq!(
                selections_counter(model),
                format!("tile_selections_{}", model.name())
            );
        }
    }

    #[test]
    fn call_ids_are_sequential() {
        let mut obs = Observer::new();
        assert_eq!(obs.next_call_id(), 0);
        assert_eq!(obs.next_call_id(), 1);
        assert_eq!(obs.next_call_id(), 2);
    }

    #[test]
    fn selection_cache_counters() {
        let mut obs = Observer::new();
        obs.record_selection_lookup(false);
        obs.record_selection_lookup(true);
        obs.record_selection_lookup(true);
        assert_eq!(obs.metrics().counter("selection_cache_hits_total"), 2);
        assert_eq!(obs.metrics().counter("selection_cache_misses_total"), 1);
    }

    #[test]
    fn render_and_to_value_cover_sections() {
        let mut obs = Observer::new();
        let id = obs.next_call_id();
        obs.observe_call(CallObservation {
            routine: "axpy",
            call: id,
            tile: 1 << 20,
            model: None,
            subkernels: 4,
            elapsed_secs: 0.001,
            entries: &[],
            overlap: OverlapStats::default(),
            tile_hits: 0,
            tile_misses: 8,
            drift: vec![],
        });
        let text = obs.render();
        assert!(text.contains("axpy"));
        assert!(text.contains("fixed"));
        let json = serde_json::to_string(&obs.to_value()).expect("serializes");
        assert!(json.contains("\"calls_total\":1"));
    }
}
