//! Per-template cardinality micromodels with pruning.
//!
//! "For cardinality estimation, we utilize the templates generated by
//! workload analysis and train per-template micromodels. We reduce the
//! number of micromodels by retaining only those that would actually improve
//! performance. Consequently, the optimizer can employ more precise
//! cardinalities for queries or subexpressions with corresponding models
//! while reverting to the default cardinalities for others." (Sec 4.2)

use crate::features;
use adas_engine::cardinality::{CardinalityModel, DefaultEstimator, TrueCardinality};
use adas_engine::cost::CostModel;
use adas_ml::dataset::Dataset;
use adas_ml::linear::LinearRegression;
use adas_ml::metrics::median_q_error;
use adas_ml::Regressor;
use adas_workload::catalog::Catalog;
use adas_workload::plan::LogicalPlan;
use adas_workload::signature::{template_signature, Signature};
use serde::Serialize;
use std::collections::HashMap;

/// Training configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Minimum instances of a template before a micromodel is trained.
    pub min_instances: usize,
    /// Fraction of instances used for training (rest validates pruning).
    pub train_fraction: f64,
    /// A micromodel is kept only if its held-out median q-error is below
    /// `prune_ratio` times the default estimator's.
    pub prune_ratio: f64,
    /// Split seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            min_instances: 8,
            train_fraction: 0.7,
            prune_ratio: 0.9,
            seed: 17,
        }
    }
}

/// Report from training: model counts and held-out errors, the numbers
/// experiment C2/A1 prints.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MicromodelReport {
    /// Templates observed in the training workload.
    pub templates_seen: usize,
    /// Templates with enough instances to train on.
    pub templates_trained: usize,
    /// Micromodels retained after pruning.
    pub models_kept: usize,
    /// Held-out median q-error of the default estimator (over covered
    /// templates).
    pub default_q_error: f64,
    /// Held-out median q-error of the learned estimator (same queries).
    pub learned_q_error: f64,
}

/// A learned cardinality estimator: per-template micromodels with default
/// fallback. The external-service shape matches the paper: the optimizer's
/// only extension point is "ask the service, else use the default".
pub struct LearnedCardinality<'a> {
    catalog: &'a Catalog,
    models: HashMap<Signature, LinearRegression>,
    cost_model: CostModel,
}

impl<'a> LearnedCardinality<'a> {
    /// Trains micromodels from a history of plans, using the ground-truth
    /// oracle as the label source (a stand-in for observed runtime
    /// cardinalities; production training should prefer
    /// [`Self::train_from_feedback`], whose labels come from execution).
    ///
    /// Returns the estimator and its training report.
    pub fn train(
        catalog: &'a Catalog,
        history: &[LogicalPlan],
        config: TrainConfig,
    ) -> (Self, MicromodelReport) {
        let truth = TrueCardinality::new(catalog);
        let labeled: Vec<(LogicalPlan, f64)> = history
            .iter()
            .map(|p| (p.clone(), truth.estimate(p).unwrap_or(1.0)))
            .collect();
        Self::train_labeled(catalog, &labeled, config)
    }

    /// Trains micromodels from the engine's workload-feedback store — the
    /// Peregrine loop closed: labels are the cardinalities *observed at
    /// execution time*, grouped by template.
    pub fn train_from_feedback(
        catalog: &'a Catalog,
        feedback: &adas_engine::feedback::FeedbackStore,
        config: TrainConfig,
    ) -> (Self, MicromodelReport) {
        let labeled: Vec<(LogicalPlan, f64)> = feedback
            .templates()
            .into_iter()
            .flat_map(|(_, obs)| obs.iter().map(|o| (o.plan.clone(), o.actual_rows)))
            .collect();
        Self::train_labeled(catalog, &labeled, config)
    }

    /// Shared training core over `(plan, observed rows)` pairs.
    fn train_labeled(
        catalog: &'a Catalog,
        labeled: &[(LogicalPlan, f64)],
        config: TrainConfig,
    ) -> (Self, MicromodelReport) {
        let cost_model = CostModel::default();

        // Group instances by template.
        let mut groups: HashMap<Signature, Vec<&(LogicalPlan, f64)>> = HashMap::new();
        for pair in labeled {
            groups
                .entry(template_signature(&pair.0))
                .or_default()
                .push(pair);
        }
        let templates_seen = groups.len();

        let mut models = HashMap::new();
        let mut templates_trained = 0usize;
        let mut default_errs: Vec<(f64, f64)> = Vec::new(); // (actual, default est)
        let mut learned_errs: Vec<(f64, f64)> = Vec::new(); // (actual, learned est)

        for (sig, pairs) in groups {
            if pairs.len() < config.min_instances {
                continue;
            }
            templates_trained += 1;
            let rows: Vec<Vec<f64>> = pairs
                .iter()
                .map(|(p, _)| features::featurize(p, catalog, &cost_model))
                .collect();
            let targets: Vec<f64> = pairs.iter().map(|(_, rows)| rows.max(1.0).ln()).collect();
            let Ok(data) = Dataset::new(rows, targets) else {
                continue;
            };
            let Ok((train, test)) = data.split(config.train_fraction, config.seed) else {
                continue;
            };
            // Ridge for robustness against near-constant features.
            let Ok(model) = LinearRegression::fit_ridge(&train, 1e-6) else {
                continue;
            };

            // Held-out comparison against the default estimator.
            let mut actuals = Vec::with_capacity(test.len());
            let mut defaults = Vec::with_capacity(test.len());
            let mut learneds = Vec::with_capacity(test.len());
            for row in test.features() {
                // Feature 0 is ln(default rows) — recover the default estimate.
                defaults.push(row[0].exp());
                learneds.push(model.predict(row).exp());
            }
            for &t in test.targets() {
                actuals.push(t.exp());
            }
            let default_q = median_q_error(&actuals, &defaults);
            let learned_q = median_q_error(&actuals, &learneds);
            let keep = learned_q < default_q * config.prune_ratio;
            for ((a, d), l) in actuals.iter().zip(&defaults).zip(&learneds) {
                default_errs.push((*a, *d));
                learned_errs.push((*a, if keep { *l } else { *d }));
            }
            if keep {
                models.insert(sig, model);
            }
        }

        let report = MicromodelReport {
            templates_seen,
            templates_trained,
            models_kept: models.len(),
            default_q_error: median_q_error(
                &default_errs.iter().map(|p| p.0).collect::<Vec<_>>(),
                &default_errs.iter().map(|p| p.1).collect::<Vec<_>>(),
            ),
            learned_q_error: median_q_error(
                &learned_errs.iter().map(|p| p.0).collect::<Vec<_>>(),
                &learned_errs.iter().map(|p| p.1).collect::<Vec<_>>(),
            ),
        };
        (
            Self {
                catalog,
                models,
                cost_model,
            },
            report,
        )
    }

    /// Number of retained micromodels.
    pub fn model_count(&self) -> usize {
        self.models.len()
    }

    /// Signatures of the retained micromodels (unordered).
    pub fn signatures(&self) -> Vec<Signature> {
        self.models.keys().copied().collect()
    }

    /// The retained micromodel for a template, if any.
    pub fn model(&self, sig: Signature) -> Option<&LinearRegression> {
        self.models.get(&sig)
    }

    /// The catalog this estimator was trained against.
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// Whether a given plan's template has a micromodel.
    pub fn covers(&self, plan: &LogicalPlan) -> bool {
        self.models.contains_key(&template_signature(plan))
    }
}

impl CardinalityModel for LearnedCardinality<'_> {
    /// Root estimate from the micromodel when covered, else default; inner
    /// nodes always use the default estimator (the paper's fallback
    /// behaviour). One default-estimator pass serves both the annotation
    /// and the micromodel's features.
    fn annotate(&self, plan: &LogicalPlan) -> adas_engine::Result<Vec<f64>> {
        let mut ann = DefaultEstimator::new(self.catalog).annotate(plan)?;
        if let Some(model) = self.models.get(&template_signature(plan)) {
            let f = features::featurize_annotated(plan, &ann, &self.cost_model);
            ann[0] = model.predict(&f).exp().max(1.0);
        }
        Ok(ann)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_workload::gen::{GeneratorConfig, WorkloadGenerator};

    fn history() -> (Catalog, Vec<LogicalPlan>) {
        let w = WorkloadGenerator::new(GeneratorConfig {
            days: 6,
            jobs_per_day: 150,
            n_templates: 20,
            ..Default::default()
        })
        .unwrap()
        .generate()
        .unwrap();
        let plans = w.trace.jobs().iter().map(|j| j.plan.clone()).collect();
        (w.catalog, plans)
    }

    #[test]
    fn micromodels_beat_default_on_holdout() {
        let (catalog, plans) = history();
        let (model, report) = LearnedCardinality::train(&catalog, &plans, TrainConfig::default());
        assert!(report.templates_trained > 0);
        assert!(model.model_count() > 0);
        assert!(
            report.learned_q_error < report.default_q_error,
            "learned {} vs default {}",
            report.learned_q_error,
            report.default_q_error
        );
    }

    #[test]
    fn pruning_caps_model_count() {
        let (catalog, plans) = history();
        let (_, permissive) = LearnedCardinality::train(
            &catalog,
            &plans,
            TrainConfig {
                prune_ratio: 10.0,
                ..Default::default()
            },
        );
        let (_, strict) = LearnedCardinality::train(
            &catalog,
            &plans,
            TrainConfig {
                prune_ratio: 0.5,
                ..Default::default()
            },
        );
        assert!(strict.models_kept <= permissive.models_kept);
        assert!(permissive.models_kept <= permissive.templates_trained);
    }

    #[test]
    fn uncovered_templates_fall_back_to_default() {
        let (catalog, plans) = history();
        let (model, _) = LearnedCardinality::train(&catalog, &plans, TrainConfig::default());
        // A plan the model never saw.
        let fresh = LogicalPlan::scan("regions").aggregate(vec![1]);
        assert!(!model.covers(&fresh));
        let learned = model.estimate(&fresh).unwrap();
        let default = DefaultEstimator::new(&catalog).estimate(&fresh).unwrap();
        assert_eq!(learned, default);
    }

    #[test]
    fn insufficient_instances_train_nothing() {
        let (catalog, plans) = history();
        let (model, report) = LearnedCardinality::train(
            &catalog,
            &plans,
            TrainConfig {
                min_instances: 100_000,
                ..Default::default()
            },
        );
        assert_eq!(report.templates_trained, 0);
        assert_eq!(model.model_count(), 0);
    }
}

#[cfg(test)]
mod feedback_tests {
    use super::*;
    use adas_engine::feedback::FeedbackStore;
    use adas_workload::gen::{GeneratorConfig, WorkloadGenerator};

    /// The closed Peregrine loop: execute → record feedback → train →
    /// estimate better than the default.
    #[test]
    fn training_from_execution_feedback_matches_oracle_training() {
        let w = WorkloadGenerator::new(GeneratorConfig {
            days: 6,
            jobs_per_day: 150,
            n_templates: 20,
            ..Default::default()
        })
        .unwrap()
        .generate()
        .unwrap();
        let mut store = FeedbackStore::new();
        for job in w.trace.jobs() {
            store.record_execution(&job.plan, &w.catalog, None).unwrap();
        }
        let (fb_model, fb_report) =
            LearnedCardinality::train_from_feedback(&w.catalog, &store, TrainConfig::default());
        assert!(fb_model.model_count() > 0);
        assert!(fb_report.learned_q_error < fb_report.default_q_error);

        // Feedback-trained and oracle-trained models agree: the feedback
        // store's observations ARE the execution ground truth.
        let plans: Vec<_> = w.trace.jobs().iter().map(|j| j.plan.clone()).collect();
        let (_, oracle_report) =
            LearnedCardinality::train(&w.catalog, &plans, TrainConfig::default());
        assert_eq!(fb_report.models_kept, oracle_report.models_kept);
        assert!((fb_report.learned_q_error - oracle_report.learned_q_error).abs() < 1e-9);
    }
}
