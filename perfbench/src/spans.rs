//! The benchmark's own host-time spans: one per call into a layer
//! (deploy, pool build, submit, drain, prediction probes, routine calls),
//! each with a name, start, end and parent. Spans stay in memory and are
//! written as JSON when the run ends; per-layer self time — a span's
//! duration minus the part its children cover — is derived from them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder. When off it records nothing, but [`Spans::scope`] still
/// times the closure, so the untraced run measures through the same code.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `on` arms span recording.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Arms or disarms recording from here on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f` inside a span named `name` (a child of the innermost open
    /// span) and returns its result with the host seconds it took.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let t0 = Instant::now();
        let idx = self.on.then(|| {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let secs = t0.elapsed().as_secs_f64();
        if let Some(i) = idx {
            self.spans[i].end_ns = self.now_ns();
            self.open.pop();
        }
        (out, secs)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every recorded span, in seconds, grouped by name in
    /// record order.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            out.entry(s.name).or_default().push(own as f64 * 1e-9);
        }
        out
    }

    /// The span table plus per-name total self time, as JSON.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("],\"self_s\":{");
        for (i, (name, v)) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{}", v.iter().sum::<f64>());
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true);
        s.scope("outer", |s| {
            s.scope("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let t = s.self_times();
        assert!(t["inner"][0] >= 0.02);
        assert!(t["outer"][0] < t["inner"][0]);
        assert_eq!(s.spans[1].parent, Some(0));
        assert!(s.to_json("w", 1).contains("\"parent\":0"));
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut s = Spans::new(false);
        let (v, secs) = s.scope("x", |_| 7);
        assert_eq!((v, s.len()), (7, 0));
        assert!(secs >= 0.0);
    }
}
