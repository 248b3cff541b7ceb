//! Learned cost micromodels and the meta ensemble.
//!
//! "We adopt the same micromodel approach for learned cost models and
//! introduce a meta ensemble model that corrects and combines predictions
//! from individual models to increase coverage." (Sec 4.2, \[46\])
//!
//! Three predictors are in play:
//!
//! * the engine's **default** cost (analytic formulas over default
//!   cardinality estimates),
//! * per-template **micromodels** (high accuracy, limited coverage),
//! * a **global model** trained on all templates (full coverage, lower
//!   accuracy).
//!
//! The meta ensemble routes each query to the best available predictor and
//! corrects the global model with a learned residual — giving 100% coverage
//! without giving up the micromodels' accuracy, exactly the trade the paper
//! describes.

use crate::features;
use adas_engine::cardinality::TrueCardinality;
use adas_engine::cost::CostModel;
use adas_ml::dataset::Dataset;
use adas_ml::gbm::{GbmConfig, GradientBoosting};
use adas_ml::linear::LinearRegression;
use adas_ml::metrics::mape;
use adas_ml::Regressor;
use adas_workload::catalog::Catalog;
use adas_workload::plan::LogicalPlan;
use adas_workload::signature::{template_signature, Signature};
use serde::Serialize;
use std::collections::HashMap;

/// Training configuration for the cost ensemble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostTrainConfig {
    /// Minimum instances per template for a micromodel.
    pub min_instances: usize,
    /// Train fraction of each split.
    pub train_fraction: f64,
    /// Split / boosting seed.
    pub seed: u64,
}

impl Default for CostTrainConfig {
    fn default() -> Self {
        Self {
            min_instances: 8,
            train_fraction: 0.7,
            seed: 23,
        }
    }
}

/// Evaluation report (experiment C3/A2).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CostEnsembleReport {
    /// Fraction of evaluation queries covered by a micromodel.
    pub micromodel_coverage: f64,
    /// MAPE of the engine's default (analytic) cost prediction.
    pub default_mape: f64,
    /// MAPE using micromodels only (default where uncovered).
    pub micro_only_mape: f64,
    /// MAPE of the full ensemble (micromodels + corrected global model).
    pub ensemble_mape: f64,
}

/// The learned cost predictor.
pub struct CostEnsemble<'a> {
    catalog: &'a Catalog,
    cost_model: CostModel,
    micro: HashMap<Signature, LinearRegression>,
    global: Option<GradientBoosting>,
}

impl<'a> CostEnsemble<'a> {
    /// Trains micromodels and the global model from a plan history, then
    /// evaluates default vs micro-only vs ensemble on held-out data. Labels
    /// come from the ground-truth oracle; production training should prefer
    /// [`Self::train_from_feedback`].
    pub fn train(
        catalog: &'a Catalog,
        history: &[LogicalPlan],
        config: CostTrainConfig,
    ) -> (Self, CostEnsembleReport) {
        let truth = TrueCardinality::new(catalog);
        let cost_model = CostModel::default();
        let labeled: Vec<(LogicalPlan, f64)> = history
            .iter()
            .map(|p| (p.clone(), cost_model.total_cost(p, &truth).unwrap_or(1.0)))
            .collect();
        Self::train_labeled(catalog, &labeled, config)
    }

    /// Trains from the engine's workload-feedback store: labels are the
    /// costs observed at execution time (the Peregrine loop).
    pub fn train_from_feedback(
        catalog: &'a Catalog,
        feedback: &adas_engine::feedback::FeedbackStore,
        config: CostTrainConfig,
    ) -> (Self, CostEnsembleReport) {
        let labeled: Vec<(LogicalPlan, f64)> = feedback
            .templates()
            .into_iter()
            .flat_map(|(_, obs)| obs.iter().map(|o| (o.plan.clone(), o.actual_cost)))
            .collect();
        Self::train_labeled(catalog, &labeled, config)
    }

    /// Shared training core over `(plan, observed cost)` pairs.
    fn train_labeled(
        catalog: &'a Catalog,
        labeled: &[(LogicalPlan, f64)],
        config: CostTrainConfig,
    ) -> (Self, CostEnsembleReport) {
        let cost_model = CostModel::default();

        // Featurize everything once; labels are log observed cost.
        let featurized: Vec<(Signature, Vec<f64>, f64)> = labeled
            .iter()
            .map(|(p, cost)| {
                let sig = template_signature(p);
                let f = features::featurize(p, catalog, &cost_model);
                (sig, f, cost.max(1.0).ln())
            })
            .collect();

        // Deterministic split by index hash.
        let is_train = |i: usize| (i * 2654435761) % 100 < (config.train_fraction * 100.0) as usize;
        let train: Vec<&(Signature, Vec<f64>, f64)> = featurized
            .iter()
            .enumerate()
            .filter(|(i, _)| is_train(*i))
            .map(|(_, x)| x)
            .collect();
        let test: Vec<&(Signature, Vec<f64>, f64)> = featurized
            .iter()
            .enumerate()
            .filter(|(i, _)| !is_train(*i))
            .map(|(_, x)| x)
            .collect();

        // Per-template micromodels.
        type LabeledRow = (Signature, Vec<f64>, f64);
        let mut by_template: HashMap<Signature, Vec<&LabeledRow>> = HashMap::new();
        for row in &train {
            by_template.entry(row.0).or_default().push(row);
        }
        let mut micro = HashMap::new();
        for (sig, rows) in &by_template {
            if rows.len() < config.min_instances {
                continue;
            }
            let data = Dataset::new(
                rows.iter().map(|r| r.1.clone()).collect(),
                rows.iter().map(|r| r.2).collect(),
            );
            if let Ok(data) = data {
                if let Ok(model) = LinearRegression::fit_ridge(&data, 1e-6) {
                    micro.insert(*sig, model);
                }
            }
        }

        // Global model over all training rows.
        let global = Dataset::new(
            train.iter().map(|r| r.1.clone()).collect(),
            train.iter().map(|r| r.2).collect(),
        )
        .ok()
        .and_then(|d| GradientBoosting::fit(&d, GbmConfig::default()).ok());

        let ensemble = Self {
            catalog,
            cost_model,
            micro,
            global,
        };

        // Held-out evaluation.
        let mut actual = Vec::with_capacity(test.len());
        let mut default_pred = Vec::with_capacity(test.len());
        let mut micro_pred = Vec::with_capacity(test.len());
        let mut ensemble_pred = Vec::with_capacity(test.len());
        let mut covered = 0usize;
        for (sig, f, label) in &test {
            actual.push(label.exp());
            default_pred.push(f[1].exp()); // feature 1 is ln(default cost)
            let micro_estimate = ensemble.micro.get(sig).map(|m| m.predict(f).exp());
            if micro_estimate.is_some() {
                covered += 1;
            }
            micro_pred.push(micro_estimate.unwrap_or_else(|| f[1].exp()));
            ensemble_pred.push(ensemble.predict_features(sig, f));
        }
        let report = CostEnsembleReport {
            micromodel_coverage: if test.is_empty() {
                0.0
            } else {
                covered as f64 / test.len() as f64
            },
            default_mape: mape(&actual, &default_pred),
            micro_only_mape: mape(&actual, &micro_pred),
            ensemble_mape: mape(&actual, &ensemble_pred),
        };
        (ensemble, report)
    }

    /// Predicts the true cost of a plan.
    pub fn predict(&self, plan: &LogicalPlan) -> f64 {
        let sig = template_signature(plan);
        let f = features::featurize(plan, self.catalog, &self.cost_model);
        self.predict_features(&sig, &f)
    }

    fn predict_features(&self, sig: &Signature, features: &[f64]) -> f64 {
        if let Some(model) = self.micro.get(sig) {
            return model.predict(features).exp();
        }
        if let Some(global) = &self.global {
            return global.predict(features).exp();
        }
        features[1].exp() // analytic default
    }

    /// Number of micromodels.
    pub fn micromodel_count(&self) -> usize {
        self.micro.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_workload::gen::{GeneratorConfig, WorkloadGenerator};

    fn history() -> (Catalog, Vec<LogicalPlan>) {
        let w = WorkloadGenerator::new(GeneratorConfig {
            days: 6,
            jobs_per_day: 120,
            n_templates: 15,
            ..Default::default()
        })
        .unwrap()
        .generate()
        .unwrap();
        let plans = w.trace.jobs().iter().map(|j| j.plan.clone()).collect();
        (w.catalog, plans)
    }

    #[test]
    fn ensemble_beats_default_cost() {
        let (catalog, plans) = history();
        let (ensemble, report) = CostEnsemble::train(&catalog, &plans, CostTrainConfig::default());
        assert!(ensemble.micromodel_count() > 0);
        assert!(ensemble.global.is_some());
        assert!(
            report.ensemble_mape < report.default_mape,
            "ensemble {} vs default {}",
            report.ensemble_mape,
            report.default_mape
        );
    }

    #[test]
    fn ensemble_covers_everything_micro_does_not() {
        let (catalog, plans) = history();
        let (ensemble, report) = CostEnsemble::train(&catalog, &plans, CostTrainConfig::default());
        assert!(
            report.micromodel_coverage < 1.0,
            "ad-hoc jobs cannot be covered"
        );
        assert!(
            report.micromodel_coverage > 0.3,
            "recurring templates should be covered"
        );
        // The ensemble still predicts for an unseen plan (global fallback).
        let fresh = LogicalPlan::scan("regions").aggregate(vec![1]);
        assert!(ensemble.predict(&fresh) > 0.0);
    }

    #[test]
    fn micro_only_beats_default_on_covered() {
        let (catalog, plans) = history();
        let (_, report) = CostEnsemble::train(&catalog, &plans, CostTrainConfig::default());
        assert!(report.micro_only_mape <= report.default_mape);
    }
}

#[cfg(test)]
mod feedback_tests {
    use super::*;
    use adas_engine::feedback::FeedbackStore;
    use adas_workload::gen::{GeneratorConfig, WorkloadGenerator};

    #[test]
    fn cost_training_from_execution_feedback() {
        let w = WorkloadGenerator::new(GeneratorConfig {
            days: 6,
            jobs_per_day: 120,
            n_templates: 15,
            ..Default::default()
        })
        .unwrap()
        .generate()
        .unwrap();
        let mut store = FeedbackStore::new();
        for job in w.trace.jobs() {
            store.record_execution(&job.plan, &w.catalog, None).unwrap();
        }
        let (ensemble, report) =
            CostEnsemble::train_from_feedback(&w.catalog, &store, CostTrainConfig::default());
        assert!(ensemble.micromodel_count() > 0);
        assert!(report.ensemble_mape < report.default_mape);
    }
}
