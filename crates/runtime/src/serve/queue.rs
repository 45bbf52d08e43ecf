//! The session queue and what its requests are predicted to cost.
//!
//! [`PredictionTable`] interns each request's *shape* — its problem spec
//! plus its tile choice, everything
//! [`SystemProfile::predict_offload`](cocopelia_core::SystemProfile::predict_offload)
//! reads — and stores one prediction per device for it, computed once
//! when the shape is first seen. Profiles never change during a session,
//! so every later estimate of that shape is a lookup.
//!
//! [`SessionQueue`] keeps the queued requests in submission order and
//! indexes them by *class*: shape plus de-duplicated shared-operand
//! footprints. Every request of a class costs the same on a given device
//! (same prediction, same missing uploads), so the Predictive pick only
//! scores each class's oldest request.

use crate::error::RequestId;
use crate::multigpu::MultiGpu;
use crate::operand::TileChoice;
use crate::request::RoutineRequest;
use cocopelia_core::models::Prediction;
use cocopelia_core::params::ProblemSpec;
use cocopelia_obs::Registry;
use std::collections::{HashMap, VecDeque};

/// An interned request shape: a row of the session's [`PredictionTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) struct ShapeId(u32);

/// What a prediction depends on: the problem as the models see it and
/// how the tile is chosen.
#[derive(Debug, PartialEq, Eq, Hash)]
struct ShapeKey {
    spec: ProblemSpec,
    tile: TileChoice,
}

/// One offload prediction per (shape, device), each computed at most
/// once per session.
#[derive(Debug, Default)]
pub(super) struct PredictionTable {
    ids: HashMap<ShapeKey, ShapeId>,
    /// Row per shape, one entry per device; `None` where the device's
    /// profile cannot predict the shape.
    rows: Vec<Vec<Option<Prediction>>>,
}

impl PredictionTable {
    /// The shape of `req`, predicting it on every device of `pool` the
    /// first time it is seen. Each prediction bumps
    /// `serve_predict_calls_total`.
    pub(super) fn intern(
        &mut self,
        req: &RoutineRequest,
        pool: &MultiGpu,
        metrics: &mut Registry,
    ) -> ShapeId {
        let key = ShapeKey {
            spec: req.problem_spec(),
            tile: req.tile_choice(),
        };
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let (model, tile) = match key.tile {
            TileChoice::Fixed(t) => (None, Some(t)),
            TileChoice::Model(m) => (Some(m), None),
            TileChoice::Auto => (None, None),
        };
        let row: Vec<Option<Prediction>> = pool
            .devices()
            .iter()
            .map(|dev| dev.profile().predict_offload(&key.spec, model, tile))
            .collect();
        metrics.counter_add("serve_predict_calls_total", row.len() as u64);
        let id = ShapeId(self.rows.len() as u32);
        self.rows.push(row);
        self.ids.insert(key, id);
        id
    }

    /// Model-predicted offload time of `shape` on device `d`; `None` when
    /// the device's profile cannot predict it.
    pub(super) fn get(&self, shape: ShapeId, d: usize) -> Option<Prediction> {
        self.rows[shape.0 as usize][d]
    }
}

/// A queued request.
#[derive(Debug)]
pub(super) struct Queued {
    pub(super) id: RequestId,
    pub(super) req: RoutineRequest,
    pub(super) shape: ShapeId,
    /// Enqueue sequence number: strictly increasing in queue order.
    seq: u64,
    /// Index into [`SessionQueue::classes`].
    class: usize,
}

/// Requests that score identically: one shape, one de-duplicated list of
/// shared-operand footprints.
#[derive(Debug)]
pub(super) struct Class {
    pub(super) shape: ShapeId,
    /// Shared keys and their bytes, as
    /// [`RoutineRequest::shared_footprints`] lists them.
    pub(super) footprints: Vec<(String, usize)>,
    /// Sequence numbers of the queued members, oldest first.
    seqs: VecDeque<u64>,
}

/// The dispatch queue: requests in submission order plus a FIFO of
/// sequence numbers per class. A class stays indexed for the rest of the
/// session once seen.
#[derive(Debug, Default)]
pub(super) struct SessionQueue {
    entries: VecDeque<Queued>,
    next_seq: u64,
    classes: Vec<Class>,
    /// Class index by (shape, footprints with interned key ids).
    class_ids: HashMap<(ShapeId, Vec<(u32, usize)>), usize>,
    key_ids: HashMap<String, u32>,
    /// Classes with at least one queued member.
    active: Vec<usize>,
}

impl SessionQueue {
    /// Appends an admitted request of shape `shape`.
    pub(super) fn push(&mut self, id: RequestId, req: RoutineRequest, shape: ShapeId) {
        let footprints = req.shared_footprints();
        let ids: Vec<(u32, usize)> = footprints
            .iter()
            .map(|&(k, bytes)| {
                let kid = match self.key_ids.get(k) {
                    Some(&kid) => kid,
                    None => {
                        let kid = self.key_ids.len() as u32;
                        self.key_ids.insert(k.to_owned(), kid);
                        kid
                    }
                };
                (kid, bytes)
            })
            .collect();
        let classes = &mut self.classes;
        let class = *self.class_ids.entry((shape, ids)).or_insert_with(|| {
            classes.push(Class {
                shape,
                footprints: footprints.iter().map(|&(k, b)| (k.to_owned(), b)).collect(),
                seqs: VecDeque::new(),
            });
            classes.len() - 1
        });
        let seq = self.next_seq;
        self.next_seq += 1;
        let members = &mut self.classes[class].seqs;
        if members.is_empty() {
            self.active.push(class);
        }
        members.push_back(seq);
        self.entries.push_back(Queued {
            id,
            req,
            shape,
            seq,
            class,
        });
    }

    /// Removes and returns the request at queue position `idx`.
    pub(super) fn remove(&mut self, idx: usize) -> Option<Queued> {
        let q = self.entries.remove(idx)?;
        let members = &mut self.classes[q.class].seqs;
        let pos = members
            .binary_search(&q.seq)
            .expect("a queued request is listed in its class");
        members.remove(pos);
        if members.is_empty() {
            if let Some(pos) = self.active.iter().position(|&c| c == q.class) {
                self.active.swap_remove(pos);
            }
        }
        Some(q)
    }

    pub(super) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The request at queue position `idx`.
    pub(super) fn get(&self, idx: usize) -> Option<&Queued> {
        self.entries.get(idx)
    }

    /// Queued requests in queue order.
    pub(super) fn iter(&self) -> impl Iterator<Item = &Queued> {
        self.entries.iter()
    }

    /// Each non-empty class with the sequence number of its oldest
    /// member, in no particular order.
    pub(super) fn heads(&self) -> impl Iterator<Item = (&Class, u64)> {
        self.active.iter().map(|&c| {
            let class = &self.classes[c];
            (class, class.seqs[0])
        })
    }

    /// Queue position of the request with sequence number `seq`.
    ///
    /// # Panics
    ///
    /// Panics if no queued request has that sequence number.
    pub(super) fn position(&self, seq: u64) -> usize {
        self.entries
            .binary_search_by_key(&seq, |q| q.seq)
            .expect("sequence number of a queued request")
    }
}

#[cfg(test)]
impl SessionQueue {
    /// Asserts that the class index matches the queue: each class lists
    /// exactly its queued members, oldest first, and `active` names
    /// exactly the non-empty classes.
    pub(super) fn assert_index_consistent(&self) {
        let mut members: Vec<Vec<u64>> = vec![Vec::new(); self.classes.len()];
        for q in &self.entries {
            members[q.class].push(q.seq);
        }
        for (c, class) in self.classes.iter().enumerate() {
            assert!(class.seqs.iter().eq(&members[c]), "class {c} members");
        }
        let mut active = self.active.clone();
        active.sort_unstable();
        let non_empty: Vec<usize> = (0..members.len())
            .filter(|&c| !members[c].is_empty())
            .collect();
        assert_eq!(active, non_empty, "active classes");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::MatOperand;
    use crate::request::{GemmRequest, SharedMat};

    fn gemm(key: &str) -> RoutineRequest {
        GemmRequest::<f64>::new(
            SharedMat::new(key, 64, 64),
            MatOperand::HostGhost { rows: 64, cols: 64 },
            MatOperand::HostGhost { rows: 64, cols: 64 },
        )
        .into()
    }

    /// The member sequence numbers of every active class, sorted.
    fn classes(q: &SessionQueue) -> Vec<Vec<u64>> {
        let mut out: Vec<Vec<u64>> = q
            .active
            .iter()
            .map(|&c| q.classes[c].seqs.iter().copied().collect())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn class_index_tracks_removals_anywhere() {
        let mut q = SessionQueue::default();
        let shape = ShapeId(0);
        for (i, key) in ["A", "B", "A", "A", "B"].into_iter().enumerate() {
            q.push(RequestId(i as u64), gemm(key), shape);
        }
        assert_eq!(classes(&q), vec![vec![0, 2, 3], vec![1, 4]]);
        // Out of the middle of class A, then its head, then all of B.
        assert_eq!(q.remove(2).map(|e| e.id), Some(RequestId(2)));
        assert_eq!(classes(&q), vec![vec![0, 3], vec![1, 4]]);
        assert_eq!(q.remove(0).map(|e| e.id), Some(RequestId(0)));
        assert_eq!(q.position(3), 1);
        assert_eq!(q.remove(2).map(|e| e.id), Some(RequestId(4)));
        assert_eq!(q.remove(0).map(|e| e.id), Some(RequestId(1)));
        assert_eq!(classes(&q), vec![vec![3]]);
        // A known class re-activates without a new index entry.
        q.push(RequestId(5), gemm("B"), shape);
        assert_eq!(classes(&q), vec![vec![3], vec![5]]);
        assert_eq!(q.classes.len(), 2);
        assert_eq!(q.len(), 2);
    }
}
