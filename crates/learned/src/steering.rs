//! Rule-hint steering: Bao adapted to production constraints.
//!
//! "We had to make significant adjustments for the production system,
//! including limiting steering to small incremental steps for better
//! interpretability and debuggability, minimizing pre-production
//! experimentation costs using a contextual bandit model, and guarding
//! against regression with a validation model." (Sec 4.2, \[35, 51\])
//!
//! Per recurring template, a [`SteeringController`] keeps a *deployed* rule
//! configuration and explores only its Hamming-distance-1 neighbourhood with
//! an epsilon-greedy bandit. An arm is **promoted** to deployed only when
//! the validation model confirms a consistent improvement; otherwise the
//! deployed configuration never moves — the regression guard.

use adas_engine::rules::RuleSet;
use adas_ml::bandit::{BanditPolicy, EpsilonGreedy};
use adas_obs::{digest_f64, Obs, Provenance};
use adas_workload::signature::Signature;
use serde::Serialize;
use std::collections::HashMap;

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteeringConfig {
    /// Bandit exploration rate.
    pub epsilon: f64,
    /// Observations an arm needs before the validation model will consider
    /// promoting it.
    pub min_trials: usize,
    /// Required mean relative improvement over the deployed configuration
    /// (e.g. 0.05 = 5%).
    pub improvement_margin: f64,
    /// Required win rate (fraction of trials strictly better than the
    /// deployed configuration) — the validation model's acceptance bar.
    pub validation_win_rate: f64,
    /// RNG seed for the per-template bandits.
    pub seed: u64,
}

impl Default for SteeringConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.2,
            min_trials: 8,
            improvement_margin: 0.02,
            validation_win_rate: 0.75,
            seed: 31,
        }
    }
}

/// Aggregate steering statistics (experiment C4/A3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SteeringStats {
    /// Templates under management.
    pub templates: usize,
    /// Templates whose deployed configuration moved at least one step.
    pub templates_steered: usize,
    /// Total promotions across templates.
    pub promotions: usize,
    /// Candidate arms that met the raw-improvement bar but were rejected by
    /// the validation model (regressions prevented).
    pub rejected_by_validation: usize,
    /// Mean per-observation reward (cost_baseline / cost_chosen) across all
    /// observations; > 1 means steering helped overall.
    pub mean_reward: f64,
}

/// Per-arm observation history.
#[derive(Debug, Clone, Default)]
struct ArmHistory {
    /// Relative rewards: `baseline_cost / arm_cost` per trial.
    rewards: Vec<f64>,
}

impl ArmHistory {
    fn wins(&self) -> usize {
        self.rewards.iter().filter(|&&r| r > 1.0).count()
    }
    fn mean(&self) -> f64 {
        if self.rewards.is_empty() {
            0.0
        } else {
            self.rewards.iter().sum::<f64>() / self.rewards.len() as f64
        }
    }
}

/// Steering state for one template.
struct TemplateState {
    deployed: RuleSet,
    arms: Vec<RuleSet>,
    bandit: EpsilonGreedy,
    history: Vec<ArmHistory>,
    promotions: usize,
    rejected: usize,
}

impl TemplateState {
    fn new(deployed: RuleSet, config: &SteeringConfig, seed: u64) -> Self {
        let arms = deployed.neighbors(); // arm 0 == deployed itself
        let n = arms.len();
        Self {
            deployed,
            arms,
            bandit: EpsilonGreedy::new(n, config.epsilon, seed)
                .expect("neighbor count >= 1 and epsilon validated"),
            history: vec![ArmHistory::default(); n],
            promotions: 0,
            rejected: 0,
        }
    }

    fn rebase(&mut self, new_deployed: RuleSet, config: &SteeringConfig, seed: u64) {
        *self = Self::new(new_deployed, config, seed);
    }
}

/// The per-template steering controller.
pub struct SteeringController {
    config: SteeringConfig,
    templates: HashMap<Signature, TemplateState>,
    default_rules: RuleSet,
    observations: Vec<f64>,
    steered: HashMap<Signature, usize>,
    obs: Obs,
}

impl SteeringController {
    /// Creates a controller whose templates all start at `default_rules`
    /// (typically [`RuleSet::all`], the engine default). Every steering
    /// observation is recorded into `obs` as a flight-recorder decision
    /// (model `steering-bandit`, versioned by the template's promotion
    /// count), plus `hint_promoted` / `hint_rejected_by_validation`
    /// provenance events.
    pub fn with_obs(default_rules: RuleSet, config: SteeringConfig, obs: Obs) -> Self {
        Self {
            config,
            templates: HashMap::new(),
            default_rules,
            observations: Vec::new(),
            steered: HashMap::new(),
            obs,
        }
    }

    /// Chooses the rule configuration to run for the next instance of a
    /// template. Exploration is confined to the deployed configuration's
    /// Hamming-1 neighbourhood.
    pub fn choose(&mut self, template: Signature) -> RuleSet {
        let seed = self.config.seed ^ template.0;
        let config = self.config;
        let default_rules = self.default_rules;
        let state = self
            .templates
            .entry(template)
            .or_insert_with(|| TemplateState::new(default_rules, &config, seed));
        let arm = state.bandit.choose(&[]);
        state.arms[arm]
    }

    /// The configuration currently deployed for a template.
    pub fn deployed(&self, template: Signature) -> RuleSet {
        self.templates
            .get(&template)
            .map_or(self.default_rules, |s| s.deployed)
    }

    /// Records the outcome of running one instance: the true cost under the
    /// chosen configuration and under the deployed baseline (in production
    /// the baseline comes from the recurring template's history; in the
    /// simulator both are measured).
    pub fn observe(
        &mut self,
        template: Signature,
        chosen: RuleSet,
        cost_with_chosen: f64,
        cost_with_deployed: f64,
    ) {
        let reward = if cost_with_chosen > 0.0 {
            cost_with_deployed / cost_with_chosen
        } else {
            1.0
        };
        self.observations.push(reward);
        let seed = self.config.seed ^ template.0;
        let config = self.config;
        let default_rules = self.default_rules;
        let state = self
            .templates
            .entry(template)
            .or_insert_with(|| TemplateState::new(default_rules, &config, seed));
        let Some(arm) = state.arms.iter().position(|&a| a == chosen) else {
            return; // stale observation from before a promotion; drop it
        };
        state.bandit.update(arm, &[], reward);
        state.history[arm].rewards.push(reward);

        if self.obs.is_enabled() {
            // The hint's prediction is the deployed baseline's cost (what
            // steering expects to at least match); the observed outcome is
            // the chosen configuration's measured cost.
            let provenance = Provenance::new(
                "steering-bandit",
                state.promotions as u64 + 1,
                digest_f64([template.0 as f64, chosen.0 as f64]),
            );
            let mut batch = self.obs.batch();
            batch.record_decision(
                "learned.steering",
                "rule_hint",
                &provenance,
                cost_with_deployed,
                Some(cost_with_chosen),
                if reward >= 1.0 {
                    "improved"
                } else {
                    "regressed"
                },
                false,
                0,
                0.0,
            );
            batch.counter_add("learned.steering", "hints_observed", &[], 1);
        }

        // Promotion check: skip arm 0 (the deployed config itself).
        if arm != 0 && state.history[arm].rewards.len() >= self.config.min_trials {
            let mean = state.history[arm].mean();
            let win_rate =
                state.history[arm].wins() as f64 / state.history[arm].rewards.len() as f64;
            if mean >= 1.0 + self.config.improvement_margin {
                if win_rate >= self.config.validation_win_rate {
                    let new_deployed = state.arms[arm];
                    state.promotions += 1;
                    let promotions = state.promotions;
                    let rejected = state.rejected;
                    state.rebase(new_deployed, &self.config, seed ^ promotions as u64);
                    state.promotions = promotions;
                    state.rejected = rejected;
                    *self.steered.entry(template).or_insert(0) += 1;
                    let mut batch = self.obs.batch();
                    batch.event(
                        "learned.steering",
                        "hint_promoted",
                        0.0,
                        &[
                            ("template", &template.0.to_string()),
                            ("rules", &new_deployed.0.to_string()),
                            ("mean_reward", &format!("{mean:.6}")),
                        ],
                    );
                    batch.counter_add("learned.steering", "promotions", &[], 1);
                } else {
                    // Raw mean looked good but wins were inconsistent: the
                    // validation model blocks the promotion. Clear the arm's
                    // history so it must re-qualify.
                    state.rejected += 1;
                    state.history[arm].rewards.clear();
                    let mut batch = self.obs.batch();
                    batch.event(
                        "learned.steering",
                        "hint_rejected_by_validation",
                        0.0,
                        &[
                            ("template", &template.0.to_string()),
                            ("rules", &chosen.0.to_string()),
                            ("win_rate", &format!("{win_rate:.6}")),
                        ],
                    );
                    batch.counter_add("learned.steering", "rejected_by_validation", &[], 1);
                }
            }
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> SteeringStats {
        let mean_reward = if self.observations.is_empty() {
            1.0
        } else {
            self.observations.iter().sum::<f64>() / self.observations.len() as f64
        };
        SteeringStats {
            templates: self.templates.len(),
            templates_steered: self.steered.len(),
            promotions: self.templates.values().map(|s| s.promotions).sum(),
            rejected_by_validation: self.templates.values().map(|s| s.rejected).sum(),
            mean_reward,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(n: u64) -> Signature {
        Signature(n)
    }

    fn controller(config: SteeringConfig) -> SteeringController {
        SteeringController::with_obs(RuleSet::all(), config, Obs::disabled())
    }

    /// Environment where toggling rule 3 off yields a 20% cost reduction and
    /// everything else is neutral.
    fn env_cost(rules: RuleSet) -> f64 {
        if rules.contains(3) {
            100.0
        } else {
            80.0
        }
    }

    #[test]
    fn controller_promotes_genuinely_better_config() {
        let mut c = controller(SteeringConfig::default());
        let t = sig(42);
        for _ in 0..400 {
            let chosen = c.choose(t);
            let baseline = c.deployed(t);
            c.observe(t, chosen, env_cost(chosen), env_cost(baseline));
        }
        let deployed = c.deployed(t);
        assert!(!deployed.contains(3), "rule 3 should have been steered off");
        let stats = c.stats();
        assert!(stats.promotions >= 1);
        assert_eq!(stats.templates, 1);
        assert_eq!(stats.templates_steered, 1);
        assert!(stats.mean_reward >= 1.0);
    }

    #[test]
    fn promotion_moves_one_step_at_a_time() {
        let mut c = controller(SteeringConfig::default());
        let t = sig(7);
        let start = c.deployed(t);
        let mut last = start;
        for _ in 0..1000 {
            let chosen = c.choose(t);
            assert!(
                chosen.hamming(c.deployed(t)) <= 1,
                "exploration beyond Hamming 1"
            );
            let baseline = c.deployed(t);
            c.observe(t, chosen, env_cost(chosen), env_cost(baseline));
            let now = c.deployed(t);
            assert!(
                now.hamming(last) <= 1,
                "promotion jumped more than one step"
            );
            last = now;
        }
    }

    #[test]
    fn noisy_improvements_blocked_by_validation() {
        // Arm pays off on average but loses often: high variance.
        // mean = (7*0.5 + 1*6.0)/8 = 1.19 > margin, win rate = 0.125 < 0.75.
        let mut c = controller(SteeringConfig {
            epsilon: 0.0,
            ..Default::default()
        });
        let t = sig(9);
        let target = RuleSet::all().toggled(2);
        let rewards = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 6.0];
        for r in rewards {
            // Feed the observation directly for the target arm.
            c.observe(t, target, 100.0 / r, 100.0);
        }
        assert_eq!(c.deployed(t), RuleSet::all(), "validation model must block");
        assert_eq!(c.stats().rejected_by_validation, 1);
    }

    #[test]
    fn neutral_environment_never_promotes() {
        let mut c = controller(SteeringConfig::default());
        let t = sig(5);
        for _ in 0..300 {
            let chosen = c.choose(t);
            c.observe(t, chosen, 100.0, 100.0);
        }
        assert_eq!(c.deployed(t), RuleSet::all());
        assert_eq!(c.stats().promotions, 0);
    }

    #[test]
    fn independent_templates_steer_independently() {
        let mut c = controller(SteeringConfig::default());
        // Template A: rule 1 is bad. Template B: rule 2 is bad.
        let cost_a = |r: RuleSet| if r.contains(1) { 100.0 } else { 70.0 };
        let cost_b = |r: RuleSet| if r.contains(2) { 100.0 } else { 70.0 };
        for _ in 0..400 {
            for (t, cost) in [(sig(1), cost_a as fn(RuleSet) -> f64), (sig(2), cost_b)] {
                let chosen = c.choose(t);
                let baseline = c.deployed(t);
                c.observe(t, chosen, cost(chosen), cost(baseline));
            }
        }
        assert!(!c.deployed(sig(1)).contains(1));
        assert!(c.deployed(sig(1)).contains(2));
        assert!(!c.deployed(sig(2)).contains(2));
        assert!(c.deployed(sig(2)).contains(1));
    }

    #[test]
    fn stale_observations_ignored() {
        let mut c = controller(SteeringConfig::default());
        let t = sig(3);
        // An observation for a config outside the neighbourhood is dropped.
        let far = RuleSet::none();
        c.observe(t, far, 10.0, 100.0);
        assert_eq!(c.stats().promotions, 0);
    }
}
