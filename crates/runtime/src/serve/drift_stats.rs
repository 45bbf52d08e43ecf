//! Running statistics of the current drain's drift records — the two
//! numbers the session reads on its hot path: the 95th-percentile
//! absolute relative error that widens the hedge threshold (read after
//! every successful attempt when hedging is armed) and the mean that the
//! telemetry drift gauge samples on every tick.
//!
//! Both are maintained as records arrive instead of being recomputed from
//! the whole record list: O(log n) per record for the order statistic
//! (a max-heap of the low side and a min-heap of the high side, split at
//! the rank) and O(1) per read. The values are bit-identical to sorting
//! and summing the records, so hedge decisions and watch lines do not
//! move.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// An `f64` ordered by [`f64::total_cmp`], so it can live in a heap.
/// Equal under this order means equal bits.
#[derive(Debug, Clone, Copy)]
struct Total(f64);

impl PartialEq for Total {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Total {}

impl PartialOrd for Total {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Total {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Zero-based rank of the order statistic the hedge threshold reads, in
/// ascending order of `len` values: `(len − 1) · 95 / 100`.
fn p95_rank(len: usize) -> usize {
    (len - 1) * 95 / 100
}

/// Running sum and exact p95 of the absolute relative errors recorded so
/// far in one drain.
#[derive(Debug, Default)]
pub(super) struct DriftStats {
    /// Sum of the errors in record order (the order the drift accountant
    /// holds them), so the mean matches summing its records bit for bit.
    sum: f64,
    /// The `p95_rank(len) + 1` smallest errors; its maximum is the p95.
    low: BinaryHeap<Total>,
    /// Every other error; its minimum is on top.
    high: BinaryHeap<Reverse<Total>>,
}

impl DriftStats {
    /// Errors recorded since the last [`clear`](Self::clear).
    pub(super) fn len(&self) -> usize {
        self.low.len() + self.high.len()
    }

    /// Records one absolute relative error. O(log n): one heap push plus
    /// at most one move across the split (the rank grows by at most one
    /// per record).
    pub(super) fn push(&mut self, err: f64) {
        self.sum += err;
        let v = Total(err);
        if self.low.peek().is_some_and(|top| v < *top) {
            self.low.push(v);
        } else {
            self.high.push(Reverse(v));
        }
        let want = p95_rank(self.len()) + 1;
        while self.low.len() > want {
            let top = self.low.pop().expect("low side is non-empty");
            self.high.push(Reverse(top));
        }
        while self.low.len() < want {
            let Reverse(bottom) = self.high.pop().expect("high side holds the rest");
            self.low.push(bottom);
        }
    }

    /// The error at rank `(len − 1) · 95 / 100` of the ascending order;
    /// `None` before the first record.
    pub(super) fn p95(&self) -> Option<f64> {
        self.low.peek().map(|t| t.0)
    }

    /// Mean of the recorded errors; `0.0` before the first record.
    pub(super) fn mean(&self) -> f64 {
        match self.len() {
            0 => 0.0,
            n => self.sum / n as f64,
        }
    }

    /// Forgets every record (the drain handed its accountant to the
    /// report), keeping the heaps' allocations for the next drain.
    pub(super) fn clear(&mut self) {
        self.sum = 0.0;
        self.low.clear();
        self.high.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::HEDGE_WARMUP;

    /// The sort-based p95 the hedge threshold used to compute from the
    /// whole record list.
    fn sorted_p95(errs: &[f64]) -> f64 {
        let mut sorted = errs.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted[(sorted.len() - 1) * 95 / 100]
    }

    /// The summed mean the telemetry gauge used to compute.
    fn summed_mean(errs: &[f64]) -> f64 {
        if errs.is_empty() {
            0.0
        } else {
            errs.iter().sum::<f64>() / errs.len() as f64
        }
    }

    fn splitmix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One seeded error: mostly small fractions, with exact zeros, heavy
    /// ties drawn from a tiny palette, and occasional huge values.
    fn draw(state: &mut u64) -> f64 {
        let r = splitmix(state);
        match r % 8 {
            0 => 0.0,
            1 | 2 => [0.01, 0.25, 0.5, 1.0][(r >> 8) as usize % 4],
            3 => 1e12 * ((r >> 11) as f64 / (1u64 << 53) as f64),
            _ => (r >> 11) as f64 / (1u64 << 53) as f64,
        }
    }

    /// At every push, across the hedge warm-up boundary and after resets,
    /// the running p95 and mean equal the sort-and-sum reference bit for
    /// bit.
    #[test]
    fn running_p95_and_mean_match_sort_and_sum() {
        for seed in [1u64, 7, 42, 0xdead_beef] {
            let mut state = seed;
            let mut stats = DriftStats::default();
            let mut errs: Vec<f64> = Vec::new();
            // Three drains of different lengths: the first spans the
            // warm-up boundary, the later ones start from a reset.
            for drain_len in [HEDGE_WARMUP + 3, 1_500, 257] {
                assert_eq!(stats.len(), 0);
                assert_eq!(stats.p95(), None);
                assert_eq!(stats.mean().to_bits(), summed_mean(&[]).to_bits());
                for _ in 0..drain_len {
                    let e = draw(&mut state);
                    stats.push(e);
                    errs.push(e);
                    assert_eq!(stats.len(), errs.len());
                    assert_eq!(
                        stats.p95().map(f64::to_bits),
                        Some(sorted_p95(&errs).to_bits()),
                        "seed {seed}, p95 after {} records",
                        errs.len()
                    );
                    assert_eq!(
                        stats.mean().to_bits(),
                        summed_mean(&errs).to_bits(),
                        "seed {seed}, mean after {} records",
                        errs.len()
                    );
                }
                stats.clear();
                errs.clear();
            }
        }
    }

    /// Ties and zeros alone: every element equal, then all zeros, still
    /// reproduce the reference exactly.
    #[test]
    fn constant_and_zero_sequences_match_the_reference() {
        for v in [0.0, 0.3, 1e300] {
            let mut stats = DriftStats::default();
            let mut errs = Vec::new();
            for _ in 0..200 {
                stats.push(v);
                errs.push(v);
                assert_eq!(
                    stats.p95().map(f64::to_bits),
                    Some(sorted_p95(&errs).to_bits())
                );
                assert_eq!(stats.mean().to_bits(), summed_mean(&errs).to_bits());
            }
        }
    }
}
