//! Host time at reference speed.
//!
//! The host clock of a shared machine runs at a speed that drifts by
//! ±20–30% over tens of seconds, and the program and a fixed CPU loop
//! slow down together. So every timed phase is preceded by one run of a
//! fixed reference unit that shares no code with the program: inserts
//! into a `BTreeMap` and a `HashMap`, a sort, and a floating-point loop.
//! The phase's host seconds are then scaled by [`REF_S`] over the unit's
//! host seconds. Host-clock metrics thus read as seconds on a machine
//! where the unit takes [`REF_S`].

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use crate::inputs::Rng;

/// Host seconds of one reference unit at reference speed: its median on
/// the machine the baseline was recorded on.
pub const REF_S: f64 = 0.0175;

/// Runs the reference unit once and returns its host seconds.
pub fn unit_s() -> f64 {
    let t0 = Instant::now();
    let mut rng = Rng::new(7, 9);
    let mut tree = BTreeMap::new();
    let mut hash = HashMap::new();
    let mut keys = Vec::with_capacity(40_000);
    for i in 0..40_000u64 {
        tree.insert(rng.next_u64() % 100_000, i);
        hash.insert(rng.next_u64() % 50_000, i);
        keys.push(rng.next_u64());
    }
    keys.sort_unstable();
    let xs: Vec<f64> = (0..20_000)
        .map(|_| (rng.next_u64() >> 11) as f64 / 9e15 + 0.5)
        .collect();
    let mut acc = 0.0f64;
    for r in 0..80 {
        for x in &xs {
            let t = (x * (f64::from(r) + 1.5) + 0.25) / (x + 0.75);
            acc += if t > 1.0 { t.sqrt() } else { t.ln_1p() };
        }
    }
    black_box((tree.len(), hash.len(), keys[keys.len() / 2], acc));
    t0.elapsed().as_secs_f64()
}

/// Runs the reference unit and returns the factor that turns the host
/// seconds of the phase timed right after it into seconds at reference
/// speed.
pub fn factor() -> f64 {
    REF_S / unit_s()
}
