//! Seeded, deterministic fault injection for the simulated device.
//!
//! A [`FaultSpec`] attached to a [`Gpu`](crate::Gpu) (via
//! [`Gpu::with_faults`](crate::Gpu::with_faults)) describes *when* the
//! simulated hardware misbehaves: transient DMA failures on either copy
//! direction, kernel launch faults, ECC-style corruption reported at launch,
//! link bandwidth degradation windows, and a terminal device-lost threshold.
//!
//! Injection is driven by a dedicated RNG seeded from [`FaultSpec::seed`],
//! **separate** from the timing-noise RNG, and faults are rolled at *enqueue
//! time* (one roll per enqueue call). Two consequences:
//!
//! * The same program against the same spec sees the same faults — chaos
//!   tests are reproducible bit-for-bit.
//! * With [`FaultSpec::none`] no random draw is ever made, so a fault-free
//!   run is bit-identical to a build without the fault layer at all.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::SimError;

/// A virtual-time window during which the host↔device link runs at reduced
/// bandwidth (both directions), modeling congestion or thermal throttling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeWindow {
    /// Window start, in virtual seconds.
    pub start_s: f64,
    /// Window end (exclusive), in virtual seconds.
    pub end_s: f64,
    /// Bandwidth multiplier applied inside the window (e.g. `0.5` halves
    /// the link rate). Values above `1.0` model a jitter *speed-up*.
    pub factor: f64,
}

/// Declarative fault-injection configuration for one simulated device.
///
/// All probabilities are per enqueue call in `[0, 1]`. The default
/// ([`FaultSpec::none`]) injects nothing and performs no RNG draws.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed for the fault RNG (independent of the timing-noise seed).
    pub seed: u64,
    /// Probability that a host→device copy enqueue fails transiently.
    pub h2d: f64,
    /// Probability that a device→host copy enqueue fails transiently.
    pub d2h: f64,
    /// Probability that a kernel launch fails transiently.
    pub kernel: f64,
    /// Probability that a kernel launch reports an ECC corruption error
    /// (retryable, but a sign of degrading hardware).
    pub ecc: f64,
    /// After this many injected faults the device transitions to terminal
    /// [`SimError::DeviceLost`]: every subsequent enqueue and synchronize
    /// fails, and all in-flight work is aborted.
    pub lost_after: Option<u64>,
    /// Link bandwidth degradation windows (see [`DegradeWindow`]).
    pub degrade: Vec<DegradeWindow>,
}

impl FaultSpec {
    /// The no-fault spec: zero probabilities, no loss threshold, no degrade
    /// windows. A device built with this spec behaves bit-identically to one
    /// built without a fault layer.
    pub fn none() -> Self {
        FaultSpec {
            seed: 0,
            h2d: 0.0,
            d2h: 0.0,
            kernel: 0.0,
            ecc: 0.0,
            lost_after: None,
            degrade: Vec::new(),
        }
    }

    /// One copy of this plan per device of a `count`-device pool, re-seeded
    /// per device (`seed + i`) so the devices fail independently.
    pub fn per_device(&self, count: usize) -> Vec<FaultSpec> {
        (0..count as u64)
            .map(|i| FaultSpec {
                seed: self.seed.wrapping_add(i),
                ..self.clone()
            })
            .collect()
    }

    /// True when this spec can never perturb an execution (all probabilities
    /// zero and no degrade windows).
    pub fn is_none(&self) -> bool {
        self.h2d == 0.0
            && self.d2h == 0.0
            && self.kernel == 0.0
            && self.ecc == 0.0
            && self.degrade.is_empty()
    }

    /// Parses the CLI fault grammar: comma-separated `key=value` fields.
    ///
    /// ```text
    /// seed=N           fault RNG seed (default 0)
    /// h2d=P            transient h2d copy failure probability
    /// d2h=P            transient d2h copy failure probability
    /// kernel=P         transient kernel launch failure probability
    /// ecc=P            ECC corruption probability per kernel launch
    /// lost_after=N     device becomes lost after N injected faults
    /// degrade=S:E:F    link runs at F× bandwidth in [S, E) virtual seconds
    ///                  (repeatable)
    /// ```
    ///
    /// The empty string and `"none"` parse to [`FaultSpec::none`].
    pub fn parse(text: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::none();
        let text = text.trim();
        if text.is_empty() || text == "none" {
            return Ok(spec);
        }
        for field in text.split(',') {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("fault spec field `{field}` is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("fault spec: `{v}` is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault spec: probability `{v}` not in [0, 1]"));
                }
                Ok(p)
            };
            match key {
                "seed" => {
                    spec.seed = value
                        .parse()
                        .map_err(|_| format!("fault spec: bad seed `{value}`"))?;
                }
                "h2d" => spec.h2d = prob(value)?,
                "d2h" => spec.d2h = prob(value)?,
                "kernel" => spec.kernel = prob(value)?,
                "ecc" => spec.ecc = prob(value)?,
                "lost_after" => {
                    spec.lost_after = Some(
                        value
                            .parse()
                            .map_err(|_| format!("fault spec: bad lost_after `{value}`"))?,
                    );
                }
                "degrade" => {
                    let mut parts = value.split(':');
                    let (s, e, f) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
                        (Some(s), Some(e), Some(f), None) => (s, e, f),
                        _ => {
                            return Err(format!(
                                "fault spec: degrade `{value}` is not START:END:FACTOR"
                            ))
                        }
                    };
                    let num = |v: &str| -> Result<f64, String> {
                        v.parse()
                            .map_err(|_| format!("fault spec: `{v}` is not a number"))
                    };
                    let win = DegradeWindow {
                        start_s: num(s)?,
                        end_s: num(e)?,
                        factor: num(f)?,
                    };
                    if !(win.start_s >= 0.0 && win.end_s > win.start_s && win.factor > 0.0) {
                        return Err(format!("fault spec: degrade window `{value}` is invalid"));
                    }
                    spec.degrade.push(win);
                }
                other => return Err(format!("fault spec: unknown key `{other}`")),
            }
        }
        Ok(spec)
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

/// Counters of faults actually injected so far on one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient h2d copy failures injected.
    pub h2d_faults: u64,
    /// Transient d2h copy failures injected.
    pub d2h_faults: u64,
    /// Transient kernel launch failures injected.
    pub kernel_faults: u64,
    /// ECC corruption errors injected.
    pub ecc_faults: u64,
    /// Whether the device has transitioned to terminal loss.
    pub device_lost: bool,
}

impl FaultStats {
    /// Total injected faults of all kinds.
    pub fn total(&self) -> u64 {
        self.h2d_faults + self.d2h_faults + self.kernel_faults + self.ecc_faults
    }
}

/// Where an enqueue-time fault roll happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultSite {
    /// `memcpy_h2d_async`.
    H2d,
    /// `memcpy_d2h_async`.
    D2h,
    /// `launch_kernel`.
    Kernel,
}

/// The stateful per-device instantiation of a [`FaultSpec`]: its own RNG
/// stream plus injection counters and the terminal-loss flag.
#[derive(Debug)]
pub(crate) struct FaultPlan {
    spec: FaultSpec,
    rng: StdRng,
    stats: FaultStats,
}

impl FaultPlan {
    pub(crate) fn new(spec: FaultSpec) -> Self {
        let rng = StdRng::seed_from_u64(spec.seed);
        FaultPlan {
            spec,
            rng,
            stats: FaultStats::default(),
        }
    }

    pub(crate) fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    pub(crate) fn stats(&self) -> FaultStats {
        self.stats
    }

    pub(crate) fn is_lost(&self) -> bool {
        self.stats.device_lost
    }

    /// Rolls the dice once; avoids touching the RNG for zero probabilities
    /// so `FaultSpec::none()` stays draw-free.
    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_range(0.0..1.0) < p
    }

    /// Marks one injected fault and returns true if it crossed the
    /// device-lost threshold.
    fn crossed_loss_threshold(&mut self) -> bool {
        if let Some(limit) = self.spec.lost_after {
            if self.stats.total() >= limit {
                self.stats.device_lost = true;
                return true;
            }
        }
        false
    }

    /// One enqueue-time injection decision. Returns `Some(error)` when the
    /// enqueue must fail, `None` when it proceeds normally.
    pub(crate) fn inject(&mut self, site: FaultSite) -> Option<SimError> {
        if self.stats.device_lost {
            return Some(SimError::DeviceLost);
        }
        let p_fault = match site {
            FaultSite::H2d => self.spec.h2d,
            FaultSite::D2h => self.spec.d2h,
            FaultSite::Kernel => self.spec.kernel,
        };
        if self.roll(p_fault) {
            let err = match site {
                FaultSite::H2d => {
                    self.stats.h2d_faults += 1;
                    SimError::TransferFault {
                        what: "h2d copy enqueue".into(),
                    }
                }
                FaultSite::D2h => {
                    self.stats.d2h_faults += 1;
                    SimError::TransferFault {
                        what: "d2h copy enqueue".into(),
                    }
                }
                FaultSite::Kernel => {
                    self.stats.kernel_faults += 1;
                    SimError::KernelFault {
                        what: "kernel launch".into(),
                    }
                }
            };
            if self.crossed_loss_threshold() {
                return Some(SimError::DeviceLost);
            }
            return Some(err);
        }
        if site == FaultSite::Kernel && self.roll(self.spec.ecc) {
            self.stats.ecc_faults += 1;
            if self.crossed_loss_threshold() {
                return Some(SimError::DeviceLost);
            }
            return Some(SimError::EccError {
                what: "kernel launch".into(),
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_spec_is_none_and_never_injects() {
        let spec = FaultSpec::none();
        assert!(spec.is_none());
        let mut plan = FaultPlan::new(spec);
        for _ in 0..1000 {
            assert_eq!(plan.inject(FaultSite::H2d), None);
            assert_eq!(plan.inject(FaultSite::Kernel), None);
        }
        assert_eq!(plan.stats().total(), 0);
        assert!(!plan.is_lost());
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let spec = FaultSpec {
            seed: 42,
            h2d: 0.3,
            d2h: 0.2,
            kernel: 0.25,
            ecc: 0.1,
            ..FaultSpec::none()
        };
        let run = |spec: FaultSpec| {
            let mut plan = FaultPlan::new(spec);
            (0..300)
                .map(|i| {
                    let site = match i % 3 {
                        0 => FaultSite::H2d,
                        1 => FaultSite::D2h,
                        _ => FaultSite::Kernel,
                    };
                    plan.inject(site)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(spec.clone()), run(spec.clone()));
        let other = FaultSpec {
            seed: 43,
            ..spec.clone()
        };
        assert_ne!(run(other), run(spec));
    }

    #[test]
    fn loss_threshold_is_terminal() {
        let spec = FaultSpec {
            seed: 7,
            h2d: 1.0,
            lost_after: Some(2),
            ..FaultSpec::none()
        };
        let mut plan = FaultPlan::new(spec);
        assert!(matches!(
            plan.inject(FaultSite::H2d),
            Some(SimError::TransferFault { .. })
        ));
        assert_eq!(plan.inject(FaultSite::H2d), Some(SimError::DeviceLost));
        assert!(plan.is_lost());
        // Every subsequent roll, at any site, reports loss without drawing.
        assert_eq!(plan.inject(FaultSite::D2h), Some(SimError::DeviceLost));
        assert_eq!(plan.inject(FaultSite::Kernel), Some(SimError::DeviceLost));
        assert_eq!(plan.stats().h2d_faults, 2);
    }

    #[test]
    fn parse_full_grammar() {
        let spec = FaultSpec::parse(
            "seed=9,h2d=0.1,d2h=0.05,kernel=0.02,ecc=0.01,lost_after=8,degrade=0.5:1.5:0.25,degrade=2:3:0.5",
        )
        .unwrap();
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.h2d, 0.1);
        assert_eq!(spec.d2h, 0.05);
        assert_eq!(spec.kernel, 0.02);
        assert_eq!(spec.ecc, 0.01);
        assert_eq!(spec.lost_after, Some(8));
        assert_eq!(spec.degrade.len(), 2);
        assert_eq!(spec.degrade[0].start_s, 0.5);
        assert_eq!(spec.degrade[1].factor, 0.5);
    }

    #[test]
    fn parse_rejects_bad_fields() {
        assert!(FaultSpec::parse("h2d=1.5").is_err());
        assert!(FaultSpec::parse("bogus=1").is_err());
        assert!(FaultSpec::parse("h2d").is_err());
        assert!(FaultSpec::parse("degrade=1:0:0.5").is_err());
        assert!(FaultSpec::parse("degrade=1:2").is_err());
        assert_eq!(FaultSpec::parse("").unwrap(), FaultSpec::none());
        assert_eq!(FaultSpec::parse("none").unwrap(), FaultSpec::none());
    }
}
