//! The workload feedback mechanism (Sec 4.2 / Direction 1).
//!
//! Peregrine "consists of an engine-agnostic workload representation,
//! workload categorization based on patterns, and a **workload feedback
//! mechanism that enables query engines to respond to workload feedback**."
//!
//! [`FeedbackStore`] is that mechanism: after a job executes, the engine
//! records what *actually* happened — observed cardinalities, true cost,
//! latency — keyed by the job's template. The learned components train from
//! these observations (see
//! `adas_learned::cardinality::LearnedCardinality::train_from_feedback`),
//! which is how production systems work: labels come from execution
//! telemetry, never from an oracle.

use crate::cardinality::{CardinalityModel, TrueCardinality};
use crate::cost::CostModel;
use crate::exec::ExecReport;
use crate::Result;
use adas_workload::catalog::Catalog;
use adas_workload::plan::LogicalPlan;
use adas_workload::signature::{template_signature, Signature};
use serde::Serialize;
use std::collections::HashMap;

/// What the engine observed from one executed job.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobObservation {
    /// The executed plan.
    pub plan: LogicalPlan,
    /// Observed output rows at the plan root.
    pub actual_rows: f64,
    /// Observed total work (cost units actually charged).
    pub actual_cost: f64,
    /// Observed wall-clock latency, seconds (0 when not executed on the
    /// cluster simulator).
    pub latency: f64,
}

/// Execution-feedback storage, keyed by template signature.
#[derive(Debug, Clone, Default)]
pub struct FeedbackStore {
    by_template: HashMap<Signature, Vec<JobObservation>>,
}

impl FeedbackStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the execution of `plan`: the observed cardinality and cost
    /// are what the simulator's ground truth charges (in production these
    /// arrive as runtime statistics from the executed vertices).
    pub fn record_execution(
        &mut self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        report: Option<&ExecReport>,
    ) -> Result<()> {
        let truth = TrueCardinality::new(catalog);
        let actual_rows = truth.estimate(plan)?;
        let actual_cost = CostModel::default().total_cost(plan, &truth)?;
        let observation = JobObservation {
            plan: plan.clone(),
            actual_rows,
            actual_cost,
            latency: report.map_or(0.0, |r| r.latency),
        };
        self.by_template
            .entry(template_signature(plan))
            .or_default()
            .push(observation);
        Ok(())
    }

    /// Observations for one template.
    pub fn observations(&self, template: Signature) -> &[JobObservation] {
        self.by_template.get(&template).map_or(&[], Vec::as_slice)
    }

    /// All `(template, observations)` groups in deterministic order.
    pub fn templates(&self) -> Vec<(Signature, &[JobObservation])> {
        let mut v: Vec<(Signature, &[JobObservation])> = self
            .by_template
            .iter()
            .map(|(sig, obs)| (*sig, obs.as_slice()))
            .collect();
        v.sort_by_key(|(sig, _)| *sig);
        v
    }

    /// Total observations recorded.
    pub fn len(&self) -> usize {
        self.by_template.values().map(Vec::len).sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.by_template.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ClusterConfig, SimOptions, Simulator};
    use crate::physical::StageDag;
    use adas_obs::Obs;
    use adas_workload::plan::{CmpOp, Predicate};

    fn plan(v: i64) -> LogicalPlan {
        // No aggregate on top: aggregates cap output at the group count,
        // which would make actual rows literal-independent.
        LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Le, v))
    }

    #[test]
    fn observations_group_by_template() {
        let catalog = Catalog::standard();
        let mut store = FeedbackStore::new();
        for v in [100, 200, 300] {
            store
                .record_execution(&plan(v), &catalog, None)
                .expect("records");
        }
        store
            .record_execution(
                &LogicalPlan::scan("users").aggregate(vec![1]),
                &catalog,
                None,
            )
            .expect("records");
        assert_eq!(store.len(), 4);
        assert_eq!(store.templates().len(), 2);
        let sig = template_signature(&plan(100));
        assert_eq!(store.observations(sig).len(), 3);
        // Actuals vary with the literal (cardinality is literal-dependent).
        let obs = store.observations(sig);
        assert_ne!(obs[0].actual_rows, obs[2].actual_rows);
    }

    #[test]
    fn execution_report_latency_captured() {
        let catalog = Catalog::standard();
        let sim = Simulator::with_obs(ClusterConfig::default(), Obs::disabled()).expect("valid");
        let p = plan(250);
        let dag = StageDag::compile(&p, &catalog, &CostModel::default()).expect("compiles");
        let report = sim.run(&dag, &SimOptions::default()).expect("simulates");
        let mut store = FeedbackStore::new();
        store
            .record_execution(&p, &catalog, Some(&report))
            .expect("records");
        let sig = template_signature(&p);
        assert!(store.observations(sig)[0].latency > 0.0);
        assert!(store.observations(sig)[0].actual_cost > 0.0);
    }

    #[test]
    fn empty_store() {
        let store = FeedbackStore::new();
        assert!(store.is_empty());
        assert_eq!(store.len(), 0);
        assert!(store.observations(Signature(1)).is_empty());
    }
}
