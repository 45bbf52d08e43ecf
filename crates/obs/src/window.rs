//! Rolling time-windowed metric aggregation over *virtual* time.
//!
//! A [`WindowedMetrics`] partitions the virtual-time axis into fixed
//! windows of `window_ns` nanoseconds and aggregates counters, gauges,
//! and histogram observations into the currently open window only.
//! Rotation is driven by the caller feeding the device clock into
//! [`advance_to`](WindowedMetrics::advance_to) — never by wall time — so
//! windowed aggregation is exactly as deterministic as the simulation
//! that drives it.
//!
//! Memory is O(one window): closing a window emits an owned
//! [`WindowSnapshot`] and resets the live aggregates in place. Counters
//! and histograms reset to zero each window (histograms keep their bucket
//! bounds); gauges are last-value-wins and *persist* across windows, so a
//! queue-depth gauge sampled once still renders in later windows.
//!
//! Percentiles come from the same bounded [`Histogram`] the run-lifetime
//! registry uses, digested into p50/p95/p99 per window.

use crate::metrics::Histogram;
use std::collections::BTreeMap;

/// Per-window digest of one histogram: count/sum plus the three
/// operational percentiles, computed at window close.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WindowDigest {
    /// Observations recorded in the window.
    pub count: u64,
    /// Sum of the window's observations.
    pub sum: f64,
    /// Estimated median (0 when the window recorded nothing).
    pub p50: f64,
    /// Estimated 95th percentile (0 when empty).
    pub p95: f64,
    /// Estimated 99th percentile (0 when empty).
    pub p99: f64,
}

impl WindowDigest {
    fn from_histogram(h: &Histogram) -> Self {
        let q = |p: f64| h.quantile(p).unwrap_or(0.0);
        WindowDigest {
            count: h.count(),
            sum: h.sum(),
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
        }
    }

    /// Mean observation of the window, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One closed (or peeked) aggregation window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WindowSnapshot {
    /// Zero-based window number since the aggregator was created.
    pub index: u64,
    /// Window start on the virtual-time axis, nanoseconds (inclusive).
    pub start_ns: u64,
    /// Window end, nanoseconds (exclusive; `== start_ns + window_ns` for
    /// closed windows, the peek instant for peeked ones).
    pub end_ns: u64,
    /// Counter values accumulated within the window.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values as of the window's close (last-value-wins, persisted
    /// across windows).
    pub gauges: BTreeMap<String, f64>,
    /// Histogram digests of the window's observations.
    pub digests: BTreeMap<String, WindowDigest>,
}

impl WindowSnapshot {
    /// Counter value, 0 when never touched in this window.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram digest, if the metric exists.
    pub fn digest(&self, name: &str) -> Option<&WindowDigest> {
        self.digests.get(name)
    }
}

/// Rolling window aggregator over a virtual-nanosecond clock.
///
/// Windows are the half-open intervals `[i·w, (i+1)·w)`. The aggregator
/// holds exactly one open window; [`advance_to`](Self::advance_to) closes
/// every window that ends at or before the supplied clock, emitting their
/// snapshots in order (including empty windows, so a consumer sees an
/// unbroken cadence).
#[derive(Debug, Clone)]
pub struct WindowedMetrics {
    window_ns: u64,
    index: u64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

impl WindowedMetrics {
    /// Creates an aggregator with the given window length (clamped to at
    /// least 1 ns).
    pub fn new(window_ns: u64) -> Self {
        WindowedMetrics {
            window_ns: window_ns.max(1),
            index: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    /// The configured window length, nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Index of the currently open window.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Start of the currently open window, nanoseconds.
    pub fn open_start_ns(&self) -> u64 {
        self.index * self.window_ns
    }

    /// Adds `v` to counter `name` in the open window. The name is copied
    /// only when the counter is created.
    pub fn counter_add(&mut self, name: &str, v: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += v,
            None => {
                self.counters.insert(name.to_owned(), v);
            }
        }
    }

    /// Sets gauge `name` (last-value-wins; persists across windows).
    /// Non-finite values are ignored, mirroring [`crate::Registry`]. The
    /// name is copied only when the gauge is created.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        if !v.is_finite() {
            return;
        }
        match self.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(name.to_owned(), v);
            }
        }
    }

    /// Records `v` into the open window's histogram `name`, creating it
    /// with `bounds` if absent (later calls ignore `bounds`). The name is
    /// copied only when the histogram is created.
    pub fn histogram_observe(&mut self, name: &str, bounds: &[f64], v: f64) {
        match self.hists.get_mut(name) {
            Some(h) => h.observe(v),
            None => {
                let mut h = Histogram::new(bounds.to_vec());
                h.observe(v);
                self.hists.insert(name.to_owned(), h);
            }
        }
    }

    fn snapshot(&self, end_ns: u64) -> WindowSnapshot {
        WindowSnapshot {
            index: self.index,
            start_ns: self.open_start_ns(),
            end_ns: end_ns.max(self.open_start_ns()),
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            digests: self
                .hists
                .iter()
                .map(|(k, h)| (k.clone(), WindowDigest::from_histogram(h)))
                .collect(),
        }
    }

    /// A snapshot of the *open* window as of `now_ns`, without closing
    /// it — the intra-window view SLO fast-path evaluation uses.
    pub fn peek(&self, now_ns: u64) -> WindowSnapshot {
        self.snapshot(now_ns)
    }

    fn reset_window(&mut self) {
        // Keys survive (deterministic snapshot shape); values reset.
        for v in self.counters.values_mut() {
            *v = 0;
        }
        for h in self.hists.values_mut() {
            *h = Histogram::new(h.bounds().to_vec());
        }
        self.index += 1;
    }

    /// Closes every window that ends at or before `now_ns`, returning
    /// their snapshots oldest-first (empty windows included). The open
    /// window afterwards contains `now_ns`.
    pub fn advance_to(&mut self, now_ns: u64) -> Vec<WindowSnapshot> {
        let mut out = Vec::new();
        while (self.index + 1) * self.window_ns <= now_ns {
            let end = (self.index + 1) * self.window_ns;
            out.push(self.snapshot(end));
            self.reset_window();
        }
        out
    }

    /// Closes the open window *now*, even mid-interval — the final
    /// (possibly partial) window of a run. The next window starts at the
    /// following regular boundary.
    pub fn close_now(&mut self, now_ns: u64) -> WindowSnapshot {
        let snap = self.snapshot(now_ns);
        self.reset_window();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_is_driven_by_the_supplied_clock() {
        let mut w = WindowedMetrics::new(100);
        w.counter_add("n", 1);
        assert!(w.advance_to(99).is_empty(), "window not over yet");
        let closed = w.advance_to(250);
        assert_eq!(closed.len(), 2, "two whole windows fit before 250");
        assert_eq!(closed[0].counter("n"), 1);
        assert_eq!(closed[0].start_ns, 0);
        assert_eq!(closed[0].end_ns, 100);
        assert_eq!(closed[1].counter("n"), 0, "counters reset per window");
        assert_eq!(closed[1].index, 1);
        assert_eq!(w.index(), 2);
    }

    #[test]
    fn gauges_persist_and_counters_reset() {
        let mut w = WindowedMetrics::new(10);
        w.gauge_set("depth", 7.0);
        w.counter_add("done", 3);
        let first = w.advance_to(10).remove(0);
        assert_eq!(first.gauge("depth"), Some(7.0));
        assert_eq!(first.counter("done"), 3);
        let second = w.advance_to(20).remove(0);
        assert_eq!(second.gauge("depth"), Some(7.0), "gauges persist");
        assert_eq!(second.counter("done"), 0, "counters do not");
        w.gauge_set("depth", f64::NAN);
        assert_eq!(w.peek(25).gauge("depth"), Some(7.0), "NaN ignored");
    }

    #[test]
    fn digests_match_a_fresh_histogram_per_window() {
        let bounds = [1.0, 2.0, 4.0, 8.0];
        let mut w = WindowedMetrics::new(1000);
        let mut whole = Histogram::new(bounds.to_vec());
        // Seeded LCG spread over three windows.
        let mut x: u64 = 0x9E37;
        let mut windows: Vec<WindowSnapshot> = Vec::new();
        for i in 0..300u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) as f64 / (1u64 << 31) as f64 * 8.0;
            windows.extend(w.advance_to(i * 10));
            w.histogram_observe("lat", &bounds, v);
            whole.observe(v);
        }
        windows.push(w.close_now(3000));
        let count: u64 = windows
            .iter()
            .filter_map(|s| s.digest("lat"))
            .map(|d| d.count)
            .sum();
        let sum: f64 = windows
            .iter()
            .filter_map(|s| s.digest("lat"))
            .map(|d| d.sum)
            .sum();
        assert_eq!(count, whole.count(), "no observation lost at rotation");
        assert!((sum - whole.sum()).abs() < 1e-9);
        for s in &windows {
            if let Some(d) = s.digest("lat") {
                if d.count > 0 {
                    assert!(d.p50 <= d.p95 && d.p95 <= d.p99, "{d:?}");
                    assert!(d.p99 <= 8.0, "percentiles bracketed by bounds");
                }
            }
        }
    }

    #[test]
    fn peek_does_not_close_and_close_now_does() {
        let mut w = WindowedMetrics::new(100);
        w.counter_add("n", 2);
        let peeked = w.peek(42);
        assert_eq!(peeked.end_ns, 42);
        assert_eq!(peeked.counter("n"), 2);
        assert_eq!(w.index(), 0, "peek leaves the window open");
        let closed = w.close_now(42);
        assert_eq!(closed.counter("n"), 2);
        assert_eq!(w.index(), 1);
        assert_eq!(w.peek(50).counter("n"), 0);
    }

    #[test]
    fn zero_window_is_clamped() {
        let w = WindowedMetrics::new(0);
        assert_eq!(w.window_ns(), 1);
    }
}
