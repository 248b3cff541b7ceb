//! Per-model circuit breaker.
//!
//! The paper's guardrails demote a misbehaving model to the engine default
//! rather than letting it poison query plans (Zhu et al. §4). The breaker is
//! the serving-side half of that contract: a classic three-state machine
//! (Closed → Open → HalfOpen) driven by *simulated* time, so same-seed runs
//! replay the exact same transition sequence.
//!
//! ```text
//!            N consecutive failures
//!   Closed ───────────────────────────▶ Open
//!     ▲                                  │ cooldown elapses
//!     │  probe_successes in a row        ▼
//!     └────────────────────────────── HalfOpen
//!                 (any probe failure reopens)
//! ```
//!
//! Each reopen from a failed half-open probe multiplies the cooldown by
//! `backoff_factor` (capped at `max_cooldown_ticks`), so a persistently
//! broken model is probed exponentially less often; closing fully resets
//! the backoff. Cooldowns are a pure function of the config and the open
//! streak, so same-seed replays stay byte-identical.

use serde::Serialize;

/// Breaker tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BreakerConfig {
    /// Master switch; when false the breaker never trips and routing always
    /// goes to the model.
    pub enabled: bool,
    /// Consecutive failures (timeouts, stale serves, guard trips) that open
    /// the breaker. Minimum 1.
    pub failure_threshold: u32,
    /// Simulated ticks the breaker stays open before admitting a half-open
    /// probe, for the first open after a closed period.
    pub cooldown_ticks: f64,
    /// Multiplier applied to the cooldown on every consecutive reopen (a
    /// half-open probe failing). Values below 1 are treated as 1 (no
    /// backoff). Fully closing resets the backoff.
    pub backoff_factor: f64,
    /// Upper bound on the cooldown, so backoff can never push the next
    /// probe out indefinitely.
    pub max_cooldown_ticks: f64,
    /// Consecutive half-open probe successes required to close again.
    /// Minimum 1.
    pub probe_successes: u32,
    /// Poison guard: a fresh prediction whose magnitude differs from the
    /// registered heuristic fallback by more than this factor counts as a
    /// failure and is served from the fallback instead. `f64::INFINITY`
    /// disables the guard (the default). Intended for the repo's
    /// non-negative prediction spaces (ln-cardinality, ln-cost, durations).
    pub guard_factor: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            failure_threshold: 4,
            cooldown_ticks: 32.0,
            backoff_factor: 2.0,
            max_cooldown_ticks: 256.0,
            probe_successes: 2,
            guard_factor: f64::INFINITY,
        }
    }
}

impl BreakerConfig {
    /// A breaker that never trips.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// Breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BreakerState {
    /// Normal operation: requests route to the model.
    Closed,
    /// Tripped: requests route to the heuristic fallback until the cooldown
    /// elapses.
    Open,
    /// Probing: requests route to the model; successes close the breaker,
    /// any failure reopens it.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name used in obs labels and traces.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// One observed state change, surfaced so the gateway can record it in the
/// flight recorder in caller order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// State before the change.
    pub from: BreakerState,
    /// State after the change.
    pub to: BreakerState,
}

/// The per-model breaker state machine. All methods are synchronous and are
/// only ever called from the gateway's caller thread, in request order.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    probes_succeeded: u32,
    open_until: f64,
    transitions: u64,
    /// Consecutive opens since the last full close (drives the backoff).
    reopens: u32,
}

impl CircuitBreaker {
    /// Creates a closed breaker.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            probes_succeeded: 0,
            open_until: 0.0,
            transitions: 0,
            reopens: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Total state changes since construction.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Consecutive opens since the breaker last fully closed (0 while it
    /// has stayed closed). Each additional open in the streak multiplies
    /// the next cooldown by `backoff_factor`.
    pub fn open_streak(&self) -> u32 {
        self.reopens
    }

    /// The cooldown the *next* open would impose, after backoff and cap.
    fn next_cooldown(&self) -> f64 {
        let factor = self.config.backoff_factor.max(1.0);
        // Exponent is clamped so pathological configs can't overflow powi
        // into infinity before the cap applies.
        let backed_off = self.config.cooldown_ticks * factor.powi(self.reopens.min(64) as i32);
        backed_off.min(
            self.config
                .max_cooldown_ticks
                .max(self.config.cooldown_ticks),
        )
    }

    /// Opens the breaker at `sim_time`, advancing the backoff counters.
    fn open(&mut self, sim_time: f64) -> Option<Transition> {
        self.open_until = sim_time + self.next_cooldown();
        self.reopens = self.reopens.saturating_add(1);
        self.shift(BreakerState::Open)
    }

    fn shift(&mut self, to: BreakerState) -> Option<Transition> {
        let from = self.state;
        if from == to {
            return None;
        }
        self.state = to;
        self.transitions += 1;
        Some(Transition { from, to })
    }

    /// Routing decision for a request arriving at `sim_time`: `true` sends
    /// it to the model, `false` to the fallback. Performs the
    /// Open → HalfOpen transition when the cooldown has elapsed (the
    /// admitted request becomes the first probe).
    pub fn allow(&mut self, sim_time: f64) -> (bool, Option<Transition>) {
        if !self.config.enabled {
            return (true, None);
        }
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => (true, None),
            BreakerState::Open => {
                if sim_time >= self.open_until {
                    self.probes_succeeded = 0;
                    (true, self.shift(BreakerState::HalfOpen))
                } else {
                    (false, None)
                }
            }
        }
    }

    /// Records a successful model serve.
    pub fn on_success(&mut self) -> Option<Transition> {
        if !self.config.enabled {
            return None;
        }
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures = 0;
                None
            }
            BreakerState::HalfOpen => {
                self.probes_succeeded += 1;
                if self.probes_succeeded >= self.config.probe_successes.max(1) {
                    self.consecutive_failures = 0;
                    self.reopens = 0; // full close resets the backoff
                    self.shift(BreakerState::Closed)
                } else {
                    None
                }
            }
            // A success can land while Open when the request was admitted
            // before the breaker tripped (in-flight at trip time); ignore it.
            BreakerState::Open => None,
        }
    }

    /// Records a failed model serve (timeout, stale, or guard trip) at
    /// `sim_time`.
    pub fn on_failure(&mut self, sim_time: f64) -> Option<Transition> {
        if !self.config.enabled {
            return None;
        }
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold.max(1) {
                    self.open(sim_time)
                } else {
                    None
                }
            }
            BreakerState::HalfOpen => self.open(sim_time),
            BreakerState::Open => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(threshold: u32, cooldown: f64, probes: u32) -> BreakerConfig {
        BreakerConfig {
            enabled: true,
            failure_threshold: threshold,
            cooldown_ticks: cooldown,
            backoff_factor: 2.0,
            max_cooldown_ticks: 8.0 * cooldown,
            probe_successes: probes,
            guard_factor: f64::INFINITY,
        }
    }

    #[test]
    fn opens_after_threshold_failures() {
        let mut b = CircuitBreaker::new(config(3, 10.0, 1));
        assert!(b.on_failure(0.0).is_none());
        assert!(b.on_failure(1.0).is_none());
        let t = b.on_failure(2.0).unwrap();
        assert_eq!(t.from, BreakerState::Closed);
        assert_eq!(t.to, BreakerState::Open);
        assert!(!b.allow(3.0).0);
    }

    #[test]
    fn success_resets_failure_streak() {
        let mut b = CircuitBreaker::new(config(2, 10.0, 1));
        b.on_failure(0.0);
        b.on_success();
        assert!(b.on_failure(1.0).is_none(), "streak was reset");
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_after_cooldown_then_closes_on_probes() {
        let mut b = CircuitBreaker::new(config(1, 10.0, 2));
        b.on_failure(5.0); // opens, cooldown until 15.0
        assert!(!b.allow(14.9).0);
        let (allowed, t) = b.allow(15.0);
        assert!(allowed);
        assert_eq!(t.unwrap().to, BreakerState::HalfOpen);
        assert!(b.on_success().is_none(), "needs two probes");
        let t = b.on_success().unwrap();
        assert_eq!(t.to, BreakerState::Closed);
    }

    #[test]
    fn probe_failure_reopens_with_backed_off_cooldown() {
        let mut b = CircuitBreaker::new(config(1, 10.0, 2));
        b.on_failure(0.0); // first open: cooldown 10
        b.allow(10.0); // half-open
        let t = b.on_failure(10.0).unwrap();
        assert_eq!(t.from, BreakerState::HalfOpen);
        assert_eq!(t.to, BreakerState::Open);
        // Second open in the streak: cooldown doubles to 20.
        assert!(!b.allow(29.9).0);
        assert!(b.allow(30.0).0);
        assert_eq!(b.open_streak(), 2);
    }

    #[test]
    fn backoff_doubles_per_reopen_and_caps() {
        // cooldown 10, factor 2, cap 80: sequence 10, 20, 40, 80, 80, …
        let mut b = CircuitBreaker::new(config(1, 10.0, 2));
        let mut now = 0.0;
        let mut cooldowns = Vec::new();
        for _ in 0..6 {
            b.on_failure(now); // opens (or reopens from half-open)
            assert_eq!(b.state(), BreakerState::Open);
            cooldowns.push(b.open_until - now);
            now = b.open_until;
            let (allowed, _) = b.allow(now); // half-open probe at the boundary
            assert!(allowed);
        }
        assert_eq!(cooldowns, vec![10.0, 20.0, 40.0, 80.0, 80.0, 80.0]);
    }

    #[test]
    fn closing_resets_the_backoff() {
        let mut b = CircuitBreaker::new(config(1, 10.0, 1));
        b.on_failure(0.0); // open, cooldown 10
        b.allow(10.0); // half-open
        b.on_failure(10.0); // reopen, cooldown 20
        b.allow(30.0); // half-open
        b.on_success(); // closes (1 probe), streak resets
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.open_streak(), 0);
        b.on_failure(40.0); // fresh open: back to the base cooldown
        assert!(!b.allow(49.9).0);
        assert!(b.allow(50.0).0);
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let mut b = CircuitBreaker::new(BreakerConfig::disabled());
        for i in 0..100 {
            assert!(b.on_failure(i as f64).is_none());
        }
        assert!(b.allow(0.0).0);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.transitions(), 0);
    }
}
