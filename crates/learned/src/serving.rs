//! Gateway-served cardinality estimates.
//!
//! The paper's optimizer never calls models in-process: predictions come
//! from a serving tier with versioning and guardrails (Sec 4.2's "ask the
//! service, else use the default" contract). The in-process
//! [`LearnedCardinality`] stays the *training* artifact; publishing it
//! puts its fitted micromodels into a [`Gateway`] and returns a
//! [`ServedCardinality`], whose estimates go through the serving layer —
//! circuit breaker, fallback and all.
//!
//! Each per-template micromodel is served as `card/<sig>`. Its fallback
//! closure serves the engine default in the model's own output space:
//! feature 0 is ln(default rows), so the fallback is simply that feature.

use crate::cardinality::LearnedCardinality;
use crate::features;
use adas_engine::cardinality::{CardinalityModel, DefaultEstimator};
use adas_engine::cost::CostModel;
use adas_serve::{
    AutonomyAction, AutonomyController, Gateway, ModelHandle, Prediction, RegressorModel,
};
use adas_workload::catalog::Catalog;
use adas_workload::plan::LogicalPlan;
use adas_workload::signature::{template_signature, Signature};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

/// Formats the gateway name of a cardinality micromodel.
pub fn cardinality_model_name(sig: Signature) -> String {
    format!("card/{:016x}", sig.0)
}

impl<'a> LearnedCardinality<'a> {
    /// Publishes every retained micromodel into `gateway` (deterministic
    /// signature order) and returns a [`CardinalityModel`] whose root
    /// estimates are obtained through the serving layer. Re-publishing
    /// after retraining bumps each model's served version (hot-swap).
    pub fn publish(&self, gateway: &Gateway) -> ServedCardinality<'a> {
        let mut handles = HashMap::new();
        let mut signatures: Vec<Signature> = self.signatures();
        signatures.sort();
        for sig in signatures {
            let handle = gateway.register(&cardinality_model_name(sig), |f: &[f64]| f[0]);
            let model = self
                .model(sig)
                .expect("signature listed by signatures()")
                .clone();
            gateway
                .publish(handle, Arc::new(RegressorModel(model)), 0.0)
                .expect("freshly registered handle");
            handles.insert(sig, handle);
        }
        ServedCardinality {
            catalog: self.catalog(),
            cost_model: CostModel::default(),
            gateway: gateway.clone(),
            handles,
            sim_time: Cell::new(0.0),
            last: RefCell::new(HashMap::new()),
        }
    }
}

/// Per-template stash of the last served prediction: the handle it came
/// from, the features it was computed on, and the prediction itself.
type LastServed = HashMap<Signature, (ModelHandle, Vec<f64>, Prediction)>;

/// A [`CardinalityModel`] that asks the gateway for covered templates and
/// uses the default estimator everywhere else — the served twin of
/// [`LearnedCardinality`]. Plugs straight into `Optimizer::optimize`.
pub struct ServedCardinality<'a> {
    catalog: &'a Catalog,
    cost_model: CostModel,
    gateway: Gateway,
    handles: HashMap<Signature, ModelHandle>,
    sim_time: Cell<f64>,
    /// Last served prediction per template, kept so the observed outcome
    /// can be fed back *without* re-predicting (a re-predict would advance
    /// the canary ticket and draw from the fault channel again, breaking
    /// replay determinism).
    last: RefCell<LastServed>,
}

impl ServedCardinality<'_> {
    /// Sets the simulated time stamped onto subsequent gateway requests
    /// (drives breaker cooldowns).
    pub fn set_sim_time(&self, sim_time: f64) {
        self.sim_time.set(sim_time);
    }

    /// Number of templates served by a micromodel.
    pub fn served_count(&self) -> usize {
        self.handles.len()
    }

    /// Whether a plan's template is served by a micromodel.
    pub fn covers(&self, plan: &LogicalPlan) -> bool {
        self.handles.contains_key(&template_signature(plan))
    }

    /// Feeds the observed true row count for the most recent estimate of
    /// `plan`'s template into the autonomy `controller` (which supervises
    /// this estimator's gateway). Returns the controller's actions, or
    /// `None` when the template is not served or has no pending estimate.
    ///
    /// Outcomes arrive in ln-rows space, matching the served model's
    /// output space.
    pub fn observe_actual(
        &self,
        plan: &LogicalPlan,
        actual_rows: f64,
        controller: &mut AutonomyController,
        sim_time: f64,
    ) -> Option<Vec<AutonomyAction>> {
        let sig = template_signature(plan);
        let (handle, features, prediction) = self.last.borrow_mut().remove(&sig)?;
        let actual = actual_rows.max(1.0).ln();
        controller
            .observe(handle, &features, &prediction, actual, sim_time)
            .ok()
    }
}

impl CardinalityModel for ServedCardinality<'_> {
    fn annotate(&self, plan: &LogicalPlan) -> adas_engine::Result<Vec<f64>> {
        let mut ann = DefaultEstimator::new(self.catalog).annotate(plan)?;
        let sig = template_signature(plan);
        if let Some(&handle) = self.handles.get(&sig) {
            let f = features::featurize_annotated(plan, &ann, &self.cost_model);
            let prediction = self
                .gateway
                .predict(handle, &f, self.sim_time.get())
                .expect("handle registered at publish time");
            ann[0] = prediction.value.exp().max(1.0);
            self.last.borrow_mut().insert(sig, (handle, f, prediction));
        }
        Ok(ann)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::TrainConfig;
    use adas_obs::Obs;
    use adas_serve::GatewayConfig;
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
    fn served_cardinality_matches_direct_path() {
        let (catalog, plans) = history();
        let (direct, _) = LearnedCardinality::train(&catalog, &plans, TrainConfig::default());
        let gateway = Gateway::with_obs(GatewayConfig::standard(), Obs::disabled());
        let served = direct.publish(&gateway);
        assert_eq!(served.served_count(), direct.model_count());
        for plan in plans.iter().take(50) {
            let a = direct.estimate(plan).unwrap();
            let b = served.estimate(plan).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "served must equal direct");
        }
        assert!(gateway.stats().requests > 0, "predictions went via gateway");
    }

    #[test]
    fn observe_actual_feeds_the_controller_without_repredicting() {
        let (catalog, plans) = history();
        let (direct, _) = LearnedCardinality::train(&catalog, &plans, TrainConfig::default());
        let gateway = Gateway::with_obs(GatewayConfig::standard(), Obs::disabled());
        let served = direct.publish(&gateway);
        let mut controller = AutonomyController::new(gateway.clone(), adas_obs::Obs::disabled());
        let covered: Vec<&LogicalPlan> = plans.iter().filter(|p| served.covers(p)).collect();
        assert!(!covered.is_empty());
        let plan = covered[0];
        // No estimate yet: nothing stashed.
        assert!(served
            .observe_actual(plan, 100.0, &mut controller, 0.0)
            .is_none());
        served.estimate(plan).unwrap();
        let requests_before = gateway.stats().requests;
        let actions = served.observe_actual(plan, 100.0, &mut controller, 1.0);
        assert!(actions.is_some(), "stashed prediction is consumed");
        assert_eq!(
            gateway.stats().requests,
            requests_before,
            "feedback must not re-predict"
        );
        // Consumed: a second outcome for the same estimate is rejected.
        assert!(served
            .observe_actual(plan, 100.0, &mut controller, 2.0)
            .is_none());
    }

    #[test]
    fn republish_hot_swaps_versions() {
        let (catalog, plans) = history();
        let (direct, _) = LearnedCardinality::train(&catalog, &plans, TrainConfig::default());
        let gateway = Gateway::with_obs(GatewayConfig::standard(), Obs::disabled());
        let first = direct.publish(&gateway);
        let second = direct.publish(&gateway);
        assert_eq!(first.served_count(), second.served_count());
        // Same handles, bumped versions.
        let sig = *first.handles.keys().next().unwrap();
        assert_eq!(first.handles[&sig], second.handles[&sig]);
        assert_eq!(
            gateway.current_version(first.handles[&sig]).unwrap(),
            Some(2)
        );
    }
}
