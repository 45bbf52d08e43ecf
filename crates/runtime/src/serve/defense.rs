//! Straggler defense and self-healing: hedged re-dispatch of overrunning
//! attempts, quarantine probation with canary probes, and the session
//! retry budget with its circuit breaker. [`Defense`] owns all of their
//! state, including the hedge-informed dispatch penalty.

use crate::ctx::RoutineReport;
use crate::error::RequestId;
use crate::operand::{MatOperand, TileChoice};
use crate::request::{GemmRequest, RoutineRequest};
use cocopelia_core::models::Prediction;
use cocopelia_gpusim::{BufferMarks, SimTime};
use cocopelia_obs::Registry;

use super::dispatch::{device_lost, free_resident};
use super::drift_stats::DriftStats;
use super::queue::ShapeId;
use super::ServeSession;

/// Hedged re-dispatch configuration (see
/// [`ServeOptions::hedge`](crate::serve::ServeOptions::hedge)).
///
/// When a dispatch attempt's virtual elapsed time exceeds its offload
/// prediction (missing-operand upload plus
/// [`SystemProfile::predict_offload`](cocopelia_core::SystemProfile::predict_offload))
/// by an adaptive multiplier, the session speculatively re-dispatches
/// the same request to the best *other* healthy device, starting at the
/// virtual instant the overrun threshold was crossed. First completion
/// wins; the loser is cancelled ([`cocopelia_gpusim::Gpu::cancel_to`])
/// and its buffers freed, so device time, flops, and uploads are counted
/// exactly once. The multiplier adapts to the drift accountant's observed
/// error distribution: it is widened by the p95 observed prediction error
/// (and doubled while fewer than [`HEDGE_WARMUP`] drift records exist).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Base overrun multiplier on the predicted attempt time before a
    /// hedge fires; `1.5` hedges attempts running 50% past prediction.
    /// Widened at runtime by the p95 observed prediction error (and
    /// doubled while fewer than [`HEDGE_WARMUP`] drift records exist).
    pub multiplier: f64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig { multiplier: 1.5 }
    }
}

/// Drift records required before the adaptive hedge threshold trusts the
/// observed error distribution; below this the base multiplier is doubled
/// (cold start: hedging on a wild early estimate wastes a device).
pub const HEDGE_WARMUP: usize = 8;

/// Quarantine probation configuration (see
/// [`ServeOptions::probation`](crate::serve::ServeOptions::probation)).
///
/// A quarantined device is not necessarily dead — a link
/// [`DegradeWindow`](cocopelia_gpusim::DegradeWindow) ends, a fault storm
/// passes. Probation schedules tiny canary GEMMs after a seeded backoff:
/// enough consecutive successes re-admit the device (with a cold
/// residency cache — quarantine invalidated it), each failure extends the
/// backoff exponentially, and [`max_rounds`](ProbationConfig::max_rounds)
/// failed rounds retire the device for good.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbationConfig {
    /// Backoff before the first canary probe of a freshly quarantined
    /// device; doubled per failed probe round.
    pub backoff: SimTime,
    /// Consecutive probe successes that re-admit the device.
    pub successes: u32,
    /// Failed probe rounds before the session stops probing the device
    /// (it stays quarantined for good).
    pub max_rounds: u32,
    /// Seed of the deterministic backoff jitter that de-synchronises
    /// probes of devices quarantined at the same instant.
    pub seed: u64,
}

impl Default for ProbationConfig {
    fn default() -> Self {
        ProbationConfig {
            backoff: SimTime::from_secs_f64(5e-3),
            successes: 2,
            max_rounds: 6,
            seed: 0,
        }
    }
}

/// Retry-budget / circuit-breaker configuration (see
/// [`ServeOptions::retry_budget`](crate::serve::ServeOptions::retry_budget)).
///
/// Replaces unbounded per-request retry appetite with a *session-wide*
/// token bucket: every session-level retry spends a token (refilled at a
/// rate in virtual time), and when the bucket runs dry the circuit
/// breaker opens — further faults fail fast to host fallback instead of
/// burning device time on a sustained fault storm. After the cooldown
/// (or when a probation canary re-admits a device) the breaker half-opens
/// and one trial retry decides: success closes it, another fault reopens
/// it with a doubled cooldown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudgetConfig {
    /// Token-bucket capacity: session-level retries the session may
    /// spend before the breaker opens.
    pub tokens: f64,
    /// Bucket refill rate in tokens per virtual second.
    pub refill_per_sec: f64,
    /// How long the breaker stays open after the bucket empties; doubles
    /// every time a half-open trial faults again.
    pub cooldown: SimTime,
}

impl Default for RetryBudgetConfig {
    fn default() -> Self {
        RetryBudgetConfig {
            tokens: 8.0,
            refill_per_sec: 2.0,
            cooldown: SimTime::from_secs_f64(0.05),
        }
    }
}

/// Probation schedule of one quarantined device.
#[derive(Debug, Clone, Copy)]
struct DeviceProbe {
    /// Raw virtual instant (device-clock axis) the next canary runs.
    next_due_ns: u64,
    /// Probe successes since the last failure.
    consecutive_ok: u32,
    /// Failed probe rounds so far (drives the exponential backoff).
    round: u32,
}

/// Circuit-breaker state of the session retry budget.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Breaker {
    /// Retries flow normally, spending tokens.
    Closed,
    /// The bucket emptied: retries fail fast to host fallback until the
    /// cooldown expires.
    Open {
        /// Raw virtual instant the cooldown ends.
        until_ns: u64,
    },
    /// The cooldown expired (or a probe re-admitted a device): the next
    /// retry runs as a trial — success closes the breaker, another fault
    /// reopens it with a doubled cooldown.
    HalfOpen,
}

/// Live state of the session retry budget.
#[derive(Debug, Clone, Copy)]
struct BudgetState {
    cfg: RetryBudgetConfig,
    tokens: f64,
    last_refill_ns: u64,
    cooldown_ns: u64,
    breaker: Breaker,
}

impl BudgetState {
    fn new(cfg: RetryBudgetConfig) -> Self {
        BudgetState {
            cfg,
            tokens: cfg.tokens.max(0.0),
            last_refill_ns: 0,
            cooldown_ns: cfg.cooldown.as_nanos().max(1),
            breaker: Breaker::Closed,
        }
    }
}

/// SplitMix64 mix — the deterministic probe-backoff jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The canary probe request of quarantine probation: the smallest GEMM of
/// the exec tables (256³ at a fixed 256 tile — one subkernel), on ghost
/// operands so it touches no residency state.
fn canary_request() -> RoutineRequest {
    GemmRequest::<f64>::new(
        MatOperand::HostGhost {
            rows: 256,
            cols: 256,
        },
        MatOperand::HostGhost {
            rows: 256,
            cols: 256,
        },
        MatOperand::HostGhost {
            rows: 256,
            cols: 256,
        },
    )
    .tile(TileChoice::Fixed(256))
    .into()
}

/// Result of the retroactive hedge race run after a successful primary
/// attempt (see `ServeSession::maybe_hedge`).
pub(super) enum HedgeOutcome {
    /// No hedge fired (disarmed, no estimate, no overrun, or no healthy
    /// peer free early enough); the caller owns all span bookkeeping.
    NotLaunched,
    /// A hedge ran but lost or faulted; the primary result stands and the
    /// attempt/hedge/cancel spans are already recorded.
    PrimaryStands,
    /// The hedge won: the primary was cancelled; the request completes
    /// with this report, on this device, at this raw virtual instant.
    Won(Box<RoutineReport>, usize, u64),
}

/// Straggler-defense state of a session: the armed configurations, each
/// quarantined device's probe schedule, the retry budget, and the
/// hedge-informed dispatch penalty.
#[derive(Debug)]
pub(super) struct Defense {
    /// Hedged re-dispatch of straggling attempts (a non-positive
    /// multiplier disarms).
    hedge: Option<HedgeConfig>,
    /// Quarantine probation (canary probes that re-admit healed devices).
    probation: Option<ProbationConfig>,
    /// Per-device probe schedule while quarantined under probation.
    probes: Vec<Option<DeviceProbe>>,
    /// Session retry token bucket and circuit breaker.
    budget: Option<BudgetState>,
    /// Hedge-informed dispatch penalty, virtual seconds: a device whose
    /// attempt overran its prediction carries the observed excess as
    /// extra ready time, so dispatch stops feeding a straggler that a
    /// winning hedge keeps rewinding to an attractive clock. Cleared by
    /// any attempt that completes within its hedge threshold and on
    /// quarantine/re-admission. Stays all-zero unless hedging is armed.
    suspicion_secs: Vec<f64>,
}

impl Defense {
    pub(super) fn new(
        devices: usize,
        hedge: Option<HedgeConfig>,
        probation: Option<ProbationConfig>,
        retry_budget: Option<RetryBudgetConfig>,
    ) -> Self {
        Defense {
            hedge: hedge.filter(|h| h.multiplier > 0.0),
            probation,
            probes: vec![None; devices],
            budget: retry_budget.map(BudgetState::new),
            suspicion_secs: vec![0.0; devices],
        }
    }

    /// Device `d`'s straggler penalty, virtual seconds.
    pub(super) fn suspicion(&self, d: usize) -> f64 {
        self.suspicion_secs[d]
    }

    /// Lifts device `d`'s straggler penalty (quarantine wipes its state).
    pub(super) fn clear_suspicion(&mut self, d: usize) {
        self.suspicion_secs[d] = 0.0;
    }

    /// The hedge threshold, in virtual ns, of an attempt predicted at
    /// `predicted_secs`: the configured base multiplier widened by the
    /// 95th percentile of the drain's observed absolute relative error
    /// (maintained incrementally in `drift`), so a model that routinely
    /// misses by 40% does not trigger hedges on ordinary 40% overruns.
    /// With fewer than [`HEDGE_WARMUP`] drift records the base is doubled
    /// instead (cold start: trust nothing, hedge only on gross overruns).
    /// `None` when hedging is disarmed. O(1).
    fn hedge_threshold_ns(&self, predicted_secs: f64, drift: &DriftStats) -> Option<u64> {
        let cfg = self.hedge?;
        let multiplier = match drift.p95() {
            Some(p95) if drift.len() >= HEDGE_WARMUP => cfg.multiplier * (1.0 + p95),
            _ => cfg.multiplier * 2.0,
        };
        Some((predicted_secs * multiplier * 1e9) as u64)
    }

    /// Whether an attempt predicted at `predicted_secs` that advanced its
    /// clock by `elapsed_ns` overran its hedge threshold.
    pub(super) fn hedge_fires(
        &self,
        predicted_secs: f64,
        elapsed_ns: u64,
        drift: &DriftStats,
    ) -> bool {
        self.hedge_threshold_ns(predicted_secs, drift)
            .is_some_and(|t| t > 0 && elapsed_ns > t)
    }

    /// Whether the session retry budget allows another session-level
    /// retry at raw virtual instant `now_ns`. Closed: refill (in virtual
    /// time) then spend one token, or open the breaker when the bucket is
    /// dry. Open: fail fast until the cooldown expires, then half-open
    /// and allow one trial. Half-open reached *here* means the previous
    /// trial faulted again (only faults ask for retries), so the breaker
    /// reopens with a doubled cooldown. Always true with no budget armed.
    pub(super) fn allow_retry(&mut self, now_ns: u64, metrics: &mut Registry) -> bool {
        let Some(bs) = self.budget.as_mut() else {
            return true;
        };
        match bs.breaker {
            Breaker::Closed => {
                let dt = now_ns.saturating_sub(bs.last_refill_ns) as f64 / 1e9;
                bs.tokens = (bs.tokens + dt * bs.cfg.refill_per_sec).min(bs.cfg.tokens.max(0.0));
                bs.last_refill_ns = now_ns;
                if bs.tokens >= 1.0 {
                    bs.tokens -= 1.0;
                    metrics.counter_add("budget_spent_total", 1);
                    true
                } else {
                    bs.breaker = Breaker::Open {
                        until_ns: now_ns + bs.cooldown_ns,
                    };
                    metrics.counter_add("budget_exhausted_total", 1);
                    metrics.counter_add("budget_fastfail_total", 1);
                    false
                }
            }
            Breaker::Open { until_ns } if now_ns < until_ns => {
                metrics.counter_add("budget_fastfail_total", 1);
                false
            }
            Breaker::Open { .. } => {
                bs.breaker = Breaker::HalfOpen;
                metrics.counter_add("budget_halfopen_total", 1);
                true
            }
            Breaker::HalfOpen => {
                bs.cooldown_ns = bs.cooldown_ns.saturating_mul(2);
                bs.breaker = Breaker::Open {
                    until_ns: now_ns + bs.cooldown_ns,
                };
                metrics.counter_add("budget_fastfail_total", 1);
                false
            }
        }
    }

    /// Notes a successful device attempt for the circuit breaker: a
    /// success while half-open closes the breaker, refills the bucket,
    /// and resets the cooldown to its configured base.
    pub(super) fn note_success(&mut self, metrics: &mut Registry) {
        if let Some(bs) = self.budget.as_mut() {
            if bs.breaker == Breaker::HalfOpen {
                bs.breaker = Breaker::Closed;
                bs.tokens = bs.cfg.tokens.max(0.0);
                bs.cooldown_ns = bs.cfg.cooldown.as_nanos().max(1);
                metrics.counter_add("budget_close_total", 1);
            }
        }
    }

    /// Schedules the first canary probe of a device quarantined at raw
    /// instant `now_ns`, one backoff (plus deterministic jitter) later.
    /// No-op unless probation is armed or a probe is already scheduled.
    pub(super) fn schedule_probe(&mut self, d: usize, now_ns: u64) {
        let Some(cfg) = self.probation else {
            return;
        };
        if self.probes[d].is_some() {
            return;
        }
        let jitter =
            splitmix64(cfg.seed ^ ((d as u64) << 32)) % (cfg.backoff.as_nanos() / 4).max(1);
        self.probes[d] = Some(DeviceProbe {
            next_due_ns: now_ns + cfg.backoff.as_nanos().max(1) + jitter,
            consecutive_ok: 0,
            round: 0,
        });
    }

    /// The earliest due probe, as `(due_ns, device)`.
    pub(super) fn next_probe(&self) -> Option<(u64, usize)> {
        self.probes
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (p.next_due_ns, i)))
            .min()
    }

    /// Devices with a canary probe scheduled, in index order.
    pub(super) fn probation_pending(&self) -> Vec<usize> {
        (0..self.probes.len())
            .filter(|&i| self.probes[i].is_some())
            .collect()
    }

    /// Seeds a probe schedule directly (microbenchmark set-up).
    pub(super) fn seed_probe(&mut self, d: usize, due_ns: u64) {
        self.probes[d] = Some(DeviceProbe {
            next_due_ns: due_ns,
            consecutive_ok: 0,
            round: 0,
        });
    }
}

impl ServeSession {
    /// The retroactive hedge race after a successful primary attempt on
    /// device `d`. When the attempt's elapsed exceeded the adaptive
    /// overrun threshold, the same request is speculatively re-executed
    /// on the best other healthy device, starting at the virtual instant
    /// the overrun was detected (or the peer's own clock if later).
    /// Whichever attempt finishes first in virtual time wins; the loser
    /// is cancelled ([`cocopelia_gpusim::Gpu::cancel_to`]) and rolled
    /// back, so device time, flops, and residency effects are charged
    /// exactly once. A hedge that *faults* gets the ordinary fault
    /// bookkeeping on its device (streak, quarantine, leak release) while
    /// the primary's result stands.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn maybe_hedge(
        &mut self,
        id: RequestId,
        req: &RoutineRequest,
        shape: ShapeId,
        d: usize,
        attempt_no: u32,
        clock_before: SimTime,
        clock_after: SimTime,
        len_before: usize,
        pre: BufferMarks,
        estimate: Option<&(Prediction, f64)>,
    ) -> HedgeOutcome {
        // No offload estimate (e.g. an undeployed profile): there is no
        // prediction to overrun, so hedging never fires.
        let Some((pred, upload)) = estimate else {
            return HedgeOutcome::NotLaunched;
        };
        let predicted = upload + pred.total;
        let Some(threshold_ns) = self
            .defense
            .hedge_threshold_ns(predicted, &self.drift_stats)
        else {
            return HedgeOutcome::NotLaunched;
        };
        let elapsed_ns = clock_after
            .as_nanos()
            .saturating_sub(clock_before.as_nanos());
        if threshold_ns == 0 || elapsed_ns <= threshold_ns {
            // On-prediction attempt: the device is demonstrably healthy,
            // so any straggler penalty it carried is lifted.
            self.defense.suspicion_secs[d] = 0.0;
            return HedgeOutcome::NotLaunched;
        }
        // Overrun detected — whether or not a hedge can launch, the
        // device's observed excess becomes its dispatch penalty, so later
        // requests prefer peers even after a winning hedge rewinds this
        // device's clock.
        self.defense.suspicion_secs[d] = SimTime::from_nanos(elapsed_ns).as_secs_f64() - predicted;
        let Some(b) = self.choose_device_excluding(req, d) else {
            return HedgeOutcome::NotLaunched;
        };
        // The hedge starts when the overrun was detected — the primary's
        // clock crossing the threshold — or at the hedge device's own
        // clock if that is later (it may be busy with earlier work).
        let trigger_ns = clock_before.as_nanos() + threshold_ns;
        let b_start_ns = self.now_ns(b).max(trigger_ns);
        if b_start_ns >= clock_after.as_nanos() {
            // The hedge could not have started before the primary
            // finished; there is nothing to race.
            return HedgeOutcome::NotLaunched;
        }
        // Mark the hedge device's buffer ids so a losing hedge rolls back
        // precisely: newly-cached operands evicted and freed, leaked
        // buffers released, everything predating the hedge untouched.
        let pre_b = self.buffer_marks(b);
        self.advance_to(b, b_start_ns);
        let len_b_before = self.pool.devices()[b].gpu().trace().len();
        let estimate_b = self.estimate(b, shape, req);
        self.metrics.counter_add("hedge_attempts_total", 1);
        let lanes = |s: &Self| {
            let hedge = s.pool.devices()[b]
                .gpu()
                .trace()
                .entries_since(len_b_before);
            (s.attempt_entries(d, len_before), hedge.to_vec())
        };
        let hreport = match self.execute_once(b, req.clone(), None) {
            Ok(hreport) => hreport,
            Err(e) => {
                // The hedge faulted: the primary's result stands; the
                // hedge device gets ordinary fault bookkeeping — under a
                // compound failure (device lost mid-hedge) it is
                // quarantined and scrubbed, so nothing leaks.
                let b_after_ns = self.now_ns(b);
                self.count_fault(&e);
                self.metrics.counter_add("hedge_fail_total", 1);
                if self.tracer.is_some() {
                    let (entries_d, entries_b) = lanes(self);
                    if let Some(t) = self.tracer.as_mut() {
                        let (start, end) = (clock_before.as_nanos(), clock_after.as_nanos());
                        t.attempt(id.0, d, attempt_no, start, end, &entries_d, None);
                        let label = format!("hedge on dev{b}: {e}");
                        t.hedge(id.0, b, b_start_ns, b_after_ns, &entries_b, &label);
                    }
                }
                let quarantine = device_lost(&e)
                    || (e.fault_class().retryable() && {
                        self.fault_streak[b] += 1;
                        self.fault_streak[b] >= self.cfg.quarantine_after
                    });
                if quarantine {
                    self.quarantine_traced(id, b, b_after_ns);
                } else {
                    self.release_leaked(b, pre_b);
                }
                return HedgeOutcome::PrimaryStands;
            }
        };
        let b_after_ns = self.now_ns(b);
        if b_after_ns >= clock_after.as_nanos() {
            // The hedge lost: cancel it at the instant the primary
            // finished. Its partial work is erased and rolled back; the
            // time it burned until the cancellation stays charged to the
            // hedge device.
            self.pool.device_mut(b).gpu_mut().cancel_to(clock_after);
            self.rollback_cancelled(b, req, pre_b);
            self.metrics.counter_add("hedge_losses_total", 1);
            self.metrics.counter_add("hedge_cancel_total", 1);
            if self.tracer.is_some() {
                let (entries_d, entries_b) = lanes(self);
                if let Some(t) = self.tracer.as_mut() {
                    let (start, end) = (clock_before.as_nanos(), clock_after.as_nanos());
                    t.attempt(id.0, d, attempt_no, start, end, &entries_d, None);
                    let label = format!("hedge on dev{b} (lost)");
                    t.hedge(id.0, b, b_start_ns, end, &entries_b, &label);
                    t.cancel(id.0, b, end, "hedge lost");
                }
            }
            return HedgeOutcome::PrimaryStands;
        }
        // The hedge won: cancel the primary at the instant the hedge
        // completed and roll its work back.
        self.pool
            .device_mut(d)
            .gpu_mut()
            .cancel_to(SimTime::from_nanos(b_after_ns));
        self.rollback_cancelled(d, req, pre);
        // The rewind erased the primary's prefetch copies too: their data
        // never arrived, so the cache entries must not survive to serve
        // phantom hits.
        self.abort_prefetch_on_device(d);
        self.fault_streak[b] = 0;
        self.defense.suspicion_secs[b] = 0.0;
        self.metrics.counter_add("hedge_wins_total", 1);
        self.metrics.counter_add("hedge_cancel_total", 1);
        if self.tracer.is_some() {
            let (entries_d, entries_b) = lanes(self);
            if let Some(t) = self.tracer.as_mut() {
                let start = clock_before.as_nanos();
                let cancelled = Some("cancelled: hedge won");
                t.attempt(
                    id.0, d, attempt_no, start, b_after_ns, &entries_d, cancelled,
                );
                t.cancel(
                    id.0,
                    d,
                    b_after_ns,
                    &format!("cancelled by hedge on dev{b}"),
                );
                let label = format!("hedge on dev{b} (won)");
                t.hedge(id.0, b, b_start_ns, b_after_ns, &entries_b, &label);
            }
        }
        // The surviving attempt carries the drift record: the hedge
        // device's own prediction against what its run actually took (the
        // cancelled primary's timing was erased, so recording it would
        // poison the model).
        if let Some((hpred, hupload)) = estimate_b {
            let actual = SimTime::from_nanos(b_after_ns.saturating_sub(b_start_ns)).as_secs_f64();
            self.record_drift(req.routine(), id, &hpred, hupload, actual);
        }
        HedgeOutcome::Won(Box::new(hreport), b, b_after_ns)
    }

    /// Rolls back the cancelled side of a hedge race on device `dev`:
    /// shared operands the attempt *newly* inserted into the residency
    /// cache (their buffer ids are at or past the pre-attempt mark) are
    /// removed and freed, then every remaining buffer the attempt
    /// allocated is released. Entries resident before the attempt — and
    /// the cache hits they served — survive untouched.
    fn rollback_cancelled(&mut self, dev: usize, req: &RoutineRequest, pre: BufferMarks) {
        let mut rolled_back_bytes = 0u64;
        for key in req.shared_keys() {
            let fresh = self.residency[dev]
                .buffer_of(key)
                .is_some_and(|b| b >= pre.dev);
            if fresh {
                if let Some(e) = self.residency[dev].remove(key) {
                    rolled_back_bytes += e.bytes as u64;
                    free_resident(self.pool.device_mut(dev), e.handle);
                }
            }
        }
        // `residency_bytes_uploaded` already counted the cancelled
        // attempt's uploads; this correction term keeps "bytes usefully
        // uploaded" computable without a decrementable counter.
        if rolled_back_bytes > 0 {
            self.metrics
                .counter_add("hedge_cancelled_bytes", rolled_back_bytes);
        }
        self.release_leaked(dev, pre);
    }

    /// Runs every canary probe that has come due on the pool's virtual
    /// clock (the furthest-ahead device). Probes advance only the
    /// quarantined device's own clock, so a healthy pool never waits on
    /// them. No-op unless probation is armed.
    pub(super) fn run_due_probes(&mut self) {
        if self.defense.probation.is_none() {
            return;
        }
        let pool_now = (0..self.pool.device_count())
            .map(|d| self.now_ns(d))
            .max()
            .unwrap_or(0);
        for d in 0..self.pool.device_count() {
            if self.defense.probes[d].is_some_and(|p| p.next_due_ns <= pool_now) {
                self.run_probe(d);
            }
        }
    }

    /// Jumps virtual time to the probation schedule when no healthy
    /// device remains: runs probes in due order until one re-admits a
    /// device (`true`) or every probationary device gives up (`false`).
    /// Bounded: each failed round extends the backoff and
    /// [`ProbationConfig::max_rounds`] retires the probe entirely.
    pub(super) fn try_heal_pool(&mut self) -> bool {
        if self.defense.probation.is_none() {
            return false;
        }
        while let Some((_, d)) = self.defense.next_probe() {
            self.run_probe(d);
            if !self.quarantined[d] {
                return true;
            }
        }
        false
    }

    /// One canary probe of quarantined device `d`: a tiny ghost GEMM from
    /// the exec tables, run at the scheduled instant (the device clock is
    /// lifted to it). Enough consecutive successes re-admit the device
    /// with a cold residency cache; a failure resets the streak and
    /// extends the backoff exponentially (with deterministic jitter)
    /// until [`ProbationConfig::max_rounds`] gives the device up.
    fn run_probe(&mut self, d: usize) {
        let Some(cfg) = self.defense.probation else {
            return;
        };
        let Some(mut p) = self.defense.probes[d].take() else {
            return;
        };
        if !self.quarantined[d] {
            return;
        }
        self.advance_to(d, p.next_due_ns);
        let pre = self.buffer_marks(d);
        let before_ns = self.now_ns(d);
        self.metrics.counter_add("probe_attempts_total", 1);
        let goal = cfg.successes.max(1);
        let result = self.execute_once(d, canary_request(), None);
        let after_ns = self.now_ns(d);
        match result {
            Ok(_) => {
                self.metrics.counter_add("probe_success_total", 1);
                p.consecutive_ok += 1;
                if let Some(t) = self.tracer.as_mut() {
                    let label = format!("probe ok ({}/{goal})", p.consecutive_ok);
                    t.probe(d, before_ns, after_ns, &label);
                }
                if p.consecutive_ok >= goal {
                    self.readmit(d);
                } else {
                    // The device looks healthy — confirm soon, after a
                    // plain (un-doubled) backoff.
                    p.next_due_ns = after_ns + cfg.backoff.as_nanos().max(1);
                    self.defense.probes[d] = Some(p);
                }
            }
            Err(e) => {
                self.metrics.counter_add("probe_fail_total", 1);
                if let Some(t) = self.tracer.as_mut() {
                    t.probe(d, before_ns, after_ns, &format!("probe fault: {e}"));
                }
                self.release_leaked(d, pre);
                p.consecutive_ok = 0;
                p.round += 1;
                if p.round >= cfg.max_rounds.max(1) {
                    self.metrics.counter_add("probe_giveup_total", 1);
                } else {
                    let backoff = cfg.backoff.as_nanos().max(1) << p.round.min(20);
                    let jitter = splitmix64(cfg.seed ^ ((d as u64) << 32) ^ u64::from(p.round))
                        % (cfg.backoff.as_nanos() / 4).max(1);
                    p.next_due_ns = after_ns + backoff + jitter;
                    self.defense.probes[d] = Some(p);
                }
            }
        }
    }

    /// Re-admits a healed device: it pulls work again, with a cold
    /// residency cache (quarantine cleared it) and a clean fault streak.
    /// An open retry-budget breaker moves to half-open — the canary that
    /// healed the pool is evidence the fault storm passed.
    fn readmit(&mut self, d: usize) {
        self.quarantined[d] = false;
        self.fault_streak[d] = 0;
        self.defense.suspicion_secs[d] = 0.0;
        self.metrics.counter_add("probe_readmit_total", 1);
        if let Some(bs) = self.defense.budget.as_mut() {
            if matches!(bs.breaker, Breaker::Open { .. }) {
                bs.breaker = Breaker::HalfOpen;
                self.metrics.counter_add("budget_halfopen_total", 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multigpu::MultiGpu;
    use crate::request::SharedMat;
    use crate::serve::ExecutorConfig;
    use cocopelia_core::profile::SystemProfile;
    use cocopelia_core::transfer::{LatBw, TransferModel};
    use cocopelia_gpusim::{testbed_i, DevBufId, ExecMode, NoiseSpec};
    use cocopelia_hostblas::Dtype;
    use std::collections::BTreeSet;

    fn shared_gemm(a: &str, b: &str, n: usize) -> RoutineRequest {
        GemmRequest::<f64>::new(
            SharedMat::new(a, n, n),
            SharedMat::new(b, n, n),
            MatOperand::HostGhost { rows: n, cols: n },
        )
        .tile(TileChoice::Fixed(n))
        .into()
    }

    fn live(s: &ServeSession, d: usize) -> BTreeSet<DevBufId> {
        s.pool.devices()[d]
            .gpu()
            .live_device_buffers()
            .into_iter()
            .collect()
    }

    /// The cancelled side of a lost hedge race, rolled back on a device
    /// that already holds many live buffers below its buffer-id mark —
    /// warm cached operands plus one allocation the cache does not own.
    /// The rollback frees exactly what the attempt allocated (its fresh
    /// cached operand and a leaked buffer), keeps the warm operand it
    /// hit, and leaves the cache equal to the live set.
    #[test]
    fn losing_hedge_rollback_frees_exactly_its_own_buffers() {
        let mut tb = testbed_i();
        tb.noise = NoiseSpec::NONE;
        let profile = SystemProfile::new(
            "rollback-test",
            TransferModel {
                h2d: LatBw { t_l: 0.0, t_b: 0.0 },
                d2h: LatBw { t_l: 0.0, t_b: 0.0 },
                sl_h2d: 1.0,
                sl_d2h: 1.0,
            },
        );
        let pool = MultiGpu::new(&tb, 2, ExecMode::TimingOnly, 42, profile);
        let mut s = ServeSession::new(pool, ExecutorConfig::default());
        for i in 0..40 {
            s.submit(shared_gemm(&format!("WA{i}"), &format!("WB{i}"), 256));
        }
        s.drain();
        let dev = 1;
        let warm = (0..40)
            .map(|i| format!("WA{i}"))
            .find(|k| s.residency[dev].contains(k))
            .expect("the warm drain cached operands on both devices");
        let foreign = s
            .pool
            .device_mut(dev)
            .gpu_mut()
            .alloc_device(Dtype::F64, 1024)
            .expect("alloc");
        let before = live(&s, dev);
        assert!(before.len() >= 32, "only {} live buffers", before.len());

        // The attempt hits the warm operand (below the mark), uploads a
        // fresh one (past it), and leaks one more buffer.
        let req = shared_gemm(&warm, "FRESH", 256);
        let pre = s.buffer_marks(dev);
        let t0 = s.pool.devices()[dev].gpu().now();
        s.execute_once(dev, req.clone(), None).expect("attempt");
        let leaked = s
            .pool
            .device_mut(dev)
            .gpu_mut()
            .alloc_device(Dtype::F64, 64)
            .expect("alloc");
        assert!(s.residency[dev].contains("FRESH"));
        assert!(live(&s, dev).contains(&leaked));
        s.pool.device_mut(dev).gpu_mut().cancel_to(t0);
        s.rollback_cancelled(dev, &req, pre);

        assert_eq!(
            live(&s, dev),
            before,
            "rollback freed exactly the attempt's buffers"
        );
        assert!(!s.residency[dev].contains("FRESH"));
        assert!(s.residency[dev].contains(&warm));
        assert_eq!(s.metrics.counter("hedge_cancelled_bytes"), 256 * 256 * 8);
        s.pool
            .device_mut(dev)
            .gpu_mut()
            .free_device(foreign)
            .expect("free");
        let cached: BTreeSet<DevBufId> = s.residency[dev].device_buffers().into_iter().collect();
        assert_eq!(live(&s, dev), cached, "live set == residency cache");
    }
}
