//! Prediction-guided cross-request prefetch: while a request runs on a
//! device, the next scheduled request's missing shared operands are
//! staged on that device's idle h2d engine, then pinned in the residency
//! cache until their target claims them at dispatch. [`Prefetcher`] owns
//! the pinned-until-claimed entries; a session without one never
//! prefetches.

use crate::request::SharedOperandSpec;
use cocopelia_gpusim::{EngineKind, HostBufId, OpTag, TraceEntry};
use cocopelia_hostblas::Dtype;
use std::collections::BTreeSet;

use super::dispatch::free_resident;
use super::residency::ResidentHandle;
use super::ServeSession;

/// The prefetched operands of a session, pinned in residency caches
/// until their target request claims them at dispatch (or a release path
/// frees them).
#[derive(Debug, Default)]
pub(super) struct Prefetcher {
    entries: Vec<PrefetchEntry>,
}

/// One prefetched operand pinned in a device's residency cache.
#[derive(Debug, Clone)]
struct PrefetchEntry {
    /// Device holding the prefetched operand.
    device: usize,
    /// Request id the operand was prefetched for.
    target: u64,
    /// Residency key of the operand.
    key: String,
    /// Operand size in bytes.
    bytes: usize,
}

/// One staged prefetch upload: the copy is enqueued on the device's h2d
/// stream but the running attempt's synchronize has not run yet, so the
/// staging ghost cannot be reclaimed and the cache entry cannot be
/// created. `finish_prefetch` settles it after a successful submit.
#[derive(Debug)]
pub(super) struct StagedPrefetch {
    target: u64,
    key: String,
    dtype: Dtype,
    bytes: usize,
    handle: ResidentHandle,
    host: HostBufId,
}

/// True when a trace entry is a cross-request prefetch copy (tagged with
/// the prefetcher's synthetic [`OpTag`]). Attempt flow accounting filters
/// these out: they belong to the *target* request's lifecycle, recorded
/// as its `Prefetch` span.
fn is_prefetch_entry(e: &TraceEntry) -> bool {
    e.tag.as_ref().is_some_and(|t| t.routine == "prefetch")
}

impl ServeSession {
    /// Stages the next scheduled request's missing shared operands on
    /// device `d`'s h2d engine, without synchronizing — the copies drain
    /// during the running routine's own synchronize, overlapping its
    /// compute. Stages nothing unless prefetch is armed, the overlap
    /// predictor says the upload hides inside `window_secs`, and the
    /// bytes fit in the residency cache's free budget (a prefetch must
    /// never evict demand-fetched state).
    pub(super) fn begin_prefetch(&mut self, d: usize, window_secs: f64) -> Vec<StagedPrefetch> {
        if self.prefetcher.is_none() || window_secs <= 0.0 || self.quarantined[d] {
            return Vec::new();
        }
        let Some((idx, _)) = self.select_index() else {
            return Vec::new();
        };
        let (target, specs) = {
            let q = self.queue.get(idx).expect("selected index is queued");
            (q.id.0, q.req.shared_operand_specs())
        };
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let plan: Vec<SharedOperandSpec> = specs
            .into_iter()
            .filter(|s| !self.residency[d].contains(s.key()) && seen.insert(s.key().to_owned()))
            .collect();
        if plan.is_empty() {
            return Vec::new();
        }
        let upload: f64 = plan
            .iter()
            .map(|s| self.effective_h2d_secs(d, s.bytes()))
            .sum();
        let total_bytes: usize = plan.iter().map(SharedOperandSpec::bytes).sum();
        if upload > window_secs || !self.residency[d].fits_now(total_bytes) {
            self.metrics.counter_add("prefetch_skipped_total", 1);
            return Vec::new();
        }
        let mut staged = Vec::with_capacity(plan.len());
        for (i, spec) in plan.into_iter().enumerate() {
            let tag = OpTag {
                routine: "prefetch",
                call: target,
                tile: (i, 0),
                operand: None,
                get: true,
                set: false,
            };
            let dev = self.pool.device_mut(d);
            let (dtype, enqueued) = match &spec {
                SharedOperandSpec::Mat {
                    dtype, rows, cols, ..
                } => (
                    *dtype,
                    dev.enqueue_ghost_matrix(*dtype, *rows, *cols, tag)
                        .map(|(m, h)| (ResidentHandle::Mat(m), h)),
                ),
                SharedOperandSpec::Vec { dtype, len, .. } => (
                    *dtype,
                    dev.enqueue_ghost_vector(*dtype, *len, tag)
                        .map(|(v, h)| (ResidentHandle::Vec(v), h)),
                ),
            };
            match enqueued {
                Ok((handle, host)) => staged.push(StagedPrefetch {
                    target,
                    key: spec.key().to_owned(),
                    dtype,
                    bytes: spec.bytes(),
                    handle,
                    host,
                }),
                Err(_) => {
                    self.metrics.counter_add("prefetch_aborted_total", 1);
                    break;
                }
            }
        }
        staged
    }

    /// Lands the copies staged by [`begin_prefetch`](Self::begin_prefetch)
    /// after the running routine's synchronize drained them: releases the
    /// staging ghosts, measures how much of each copy actually hid under
    /// the routine's compute, records `Prefetch` trace spans, and adopts
    /// the operands into the residency cache as pinned-until-claimed
    /// entries.
    pub(super) fn finish_prefetch(&mut self, d: usize, staged: Vec<StagedPrefetch>, mark: usize) {
        if staged.is_empty() {
            return;
        }
        for s in &staged {
            let _ = self.pool.device_mut(d).gpu_mut().take_host(s.host);
        }
        let entries: Vec<TraceEntry> = self.pool.devices()[d]
            .gpu()
            .trace()
            .entries_since(mark)
            .to_vec();
        let computes: Vec<(u64, u64)> = entries
            .iter()
            .filter(|e| e.engine == EngineKind::Compute)
            .map(|e| (e.start.as_nanos(), e.end.as_nanos()))
            .collect();
        let mut overlap_ns = 0u64;
        for e in entries.iter().filter(|e| is_prefetch_entry(e)) {
            let (s_ns, e_ns) = (e.start.as_nanos(), e.end.as_nanos());
            overlap_ns += computes
                .iter()
                .map(|&(cs, ce)| e_ns.min(ce).saturating_sub(s_ns.max(cs)))
                .sum::<u64>();
            if let Some(t) = self.tracer.as_mut() {
                let label = e
                    .tag
                    .as_ref()
                    .and_then(|t| staged.get(t.tile.0))
                    .map_or_else(
                        || "prefetch".to_owned(),
                        |s| format!("prefetch {} ({} B)", s.key, s.bytes),
                    );
                let target = e.tag.as_ref().map_or(0, |t| t.call);
                t.prefetch(target, d, s_ns, e_ns, &label);
            }
        }
        self.metrics
            .counter_add("prefetch_issued_total", staged.len() as u64);
        self.metrics.counter_add("prefetch_overlap_ns", overlap_ns);
        self.metrics.counter_add(
            "prefetch_bytes_total",
            staged.iter().map(|s| s.bytes as u64).sum(),
        );
        for s in staged {
            let cache = &mut self.residency[d];
            let inserted = match s.handle {
                ResidentHandle::Mat(m) => cache.insert_mat(&s.key, s.dtype, m, s.bytes),
                ResidentHandle::Vec(v) => cache.insert_vec(&s.key, s.dtype, v, s.bytes),
            };
            if inserted {
                cache.pin(&s.key);
                let entries = &mut self
                    .prefetcher
                    .as_mut()
                    .expect("staged implies armed")
                    .entries;
                entries.push(PrefetchEntry {
                    device: d,
                    target: s.target,
                    key: s.key,
                    bytes: s.bytes,
                });
            } else {
                // A concurrent demand fetch won the key: drop the duplicate.
                free_resident(self.pool.device_mut(d), s.handle);
            }
        }
    }

    /// Claims or releases the prefetched operands staged for request `id`
    /// now that it is dispatching on device `d`: entries on `d` become
    /// ordinary warm cache state (unpinned, counted as hits); entries
    /// staged on any other device — the request was hedged elsewhere, or
    /// its chosen device changed — are evicted and freed with accounting.
    pub(super) fn settle_prefetch(&mut self, id: u64, d: usize) {
        let ServeSession {
            prefetcher: Some(pf),
            residency,
            pool,
            metrics,
            ..
        } = self
        else {
            return;
        };
        pf.entries.retain(|e| {
            if e.target != id {
                return true;
            }
            residency[e.device].unpin(&e.key);
            if e.device == d {
                metrics.counter_add("prefetch_hits_total", 1);
                metrics.counter_add("prefetch_hit_bytes_total", e.bytes as u64);
            } else {
                if let Some(r) = residency[e.device].remove(&e.key) {
                    free_resident(pool.device_mut(e.device), r.handle);
                }
                metrics.counter_add("prefetch_released_total", 1);
            }
            false
        });
    }

    /// Releases every prefetched operand staged for request `id` without
    /// claiming any — the request was rejected, coalesced, or fell back to
    /// the host, so its staged bytes must not stay pinned.
    pub(super) fn release_prefetch_for(&mut self, id: u64) {
        self.settle_prefetch(id, usize::MAX);
    }

    /// Evicts and frees every unclaimed prefetched operand on device `d`
    /// after its timeline was rewound ([`cocopelia_gpusim::Gpu::cancel_to`]):
    /// the copies never happened, so the cache entries must not survive to
    /// serve phantom hits. The buffers are still allocated (the rewind is
    /// timeline-only) and cache-tracked, so they are freed here, not by
    /// the leak sweep.
    pub(super) fn abort_prefetch_on_device(&mut self, d: usize) {
        let ServeSession {
            prefetcher: Some(pf),
            residency,
            pool,
            metrics,
            ..
        } = self
        else {
            return;
        };
        let before = pf.entries.len();
        pf.entries.retain(|e| {
            if e.device != d {
                return true;
            }
            residency[d].unpin(&e.key);
            if let Some(r) = residency[d].remove(&e.key) {
                free_resident(pool.device_mut(d), r.handle);
            }
            false
        });
        let aborted = (before - pf.entries.len()) as u64;
        if aborted > 0 {
            metrics.counter_add("prefetch_aborted_total", aborted);
        }
    }

    /// Drops the tracking entries for device `d`'s unclaimed prefetches
    /// after its residency cache was cleared wholesale (quarantine,
    /// reclaim) — the buffers were already freed with the cache, so this
    /// only forgets them.
    pub(super) fn forget_prefetch_on_device(&mut self, d: usize) {
        let Some(pf) = self.prefetcher.as_mut() else {
            return;
        };
        let before = pf.entries.len();
        pf.entries.retain(|e| e.device != d);
        let dropped = (before - pf.entries.len()) as u64;
        if dropped > 0 {
            self.metrics.counter_add("prefetch_aborted_total", dropped);
        }
    }

    /// Drain end: a prefetched entry whose target never claimed it loses
    /// its pin and becomes an ordinary LRU entry (the data is valid —
    /// only the reservation lapses).
    pub(super) fn unpin_unclaimed_prefetches(&mut self) {
        let Some(pf) = self.prefetcher.as_mut() else {
            return;
        };
        let leftovers = std::mem::take(&mut pf.entries);
        for e in &leftovers {
            self.residency[e.device].unpin(&e.key);
        }
        if !leftovers.is_empty() {
            self.metrics
                .counter_add("prefetch_released_total", leftovers.len() as u64);
        }
    }

    /// Device `d`'s trace entries since `len_before`, with prefetch copies
    /// filtered out: they belong to the *next* request's `Prefetch` spans,
    /// not this attempt's per-engine children.
    pub(super) fn attempt_entries(&self, d: usize, len_before: usize) -> Vec<TraceEntry> {
        self.pool.devices()[d]
            .gpu()
            .trace()
            .entries_since(len_before)
            .iter()
            .filter(|e| !is_prefetch_entry(e))
            .cloned()
            .collect()
    }
}
