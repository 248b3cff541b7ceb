//! Cross-crate property-based tests: invariants that must hold for *any*
//! plan/workload the generators can produce.

use autonomous_data_services::engine::cardinality::{
    CardinalityModel, DefaultEstimator, TrueCardinality,
};
use autonomous_data_services::engine::cost::CostModel;
use autonomous_data_services::engine::physical::StageDag;
use autonomous_data_services::engine::rules::{Optimizer, RuleSet, ALL_RULES};
use autonomous_data_services::workload::catalog::Catalog;
use autonomous_data_services::workload::plan::{CmpOp, Comparison, LogicalPlan, Predicate};
use autonomous_data_services::workload::signature::{strict_signature, template_signature};
use proptest::prelude::*;

/// Strategy producing arbitrary valid plans over the standard catalog.
fn arb_plan() -> impl Strategy<Value = LogicalPlan> {
    let tables = ["events", "sessions", "users", "regions", "telemetry"];
    let leaf = (0..tables.len()).prop_map(move |i| LogicalPlan::scan(tables[i]));
    leaf.prop_recursive(4, 24, 2, move |inner| {
        prop_oneof![
            // Filter: clause columns constrained to the narrowest table (2
            // columns) so the plan validates regardless of base table.
            (
                inner.clone(),
                0usize..2,
                prop_oneof![Just(CmpOp::Le), Just(CmpOp::Ge), Just(CmpOp::Eq)],
                -5i64..1000
            )
                .prop_map(|(child, col, op, v)| child
                    .filter(Predicate::new(vec![Comparison::new(col, op, v)]))),
            (inner.clone()).prop_map(|child| child.project(vec![0, 1])),
            (inner.clone()).prop_map(|child| child.aggregate(vec![0])),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| LogicalPlan::join(l, r, 0, 0)),
            (inner.clone(), inner).prop_map(|(l, r)| LogicalPlan::union(l, r)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any valid plan gets positive, finite cardinality and cost estimates
    /// from both models, with per-node annotations covering every node.
    #[test]
    fn estimates_are_finite_and_positive(plan in arb_plan()) {
        let catalog = Catalog::standard();
        prop_assume!(plan.validate(&catalog).is_ok());
        for model in [&DefaultEstimator::new(&catalog) as &dyn CardinalityModel,
                      &TrueCardinality::new(&catalog)] {
            let ann = model.annotate(&plan).expect("validated plan annotates");
            prop_assert_eq!(ann.len(), plan.node_count());
            for rows in &ann {
                prop_assert!(rows.is_finite() && *rows >= 1.0);
            }
            let cost = CostModel::default().total_cost(&plan, model).expect("costs");
            prop_assert!(cost.is_finite() && cost >= 0.0);
        }
    }

    /// The optimizer is safe under any rule subset: output validates, cost
    /// never rises, and disabled-rule runs leave the plan untouched.
    #[test]
    fn optimizer_safe_under_any_ruleset(plan in arb_plan(), mask in 0u64..(1 << ALL_RULES.len())) {
        let catalog = Catalog::standard();
        prop_assume!(plan.validate(&catalog).is_ok());
        let est = DefaultEstimator::new(&catalog);
        let optimizer = Optimizer::default();
        let before = CostModel::default().total_cost(&plan, &est).expect("costs");
        let out = optimizer.optimize(&plan, RuleSet(mask), &est).expect("optimizes");
        prop_assert!(out.plan.validate(&catalog).is_ok());
        prop_assert!(out.estimated_cost <= before + 1e-6);
        if mask == 0 {
            prop_assert_eq!(out.plan, plan);
        }
    }

    /// Physical compilation covers every node with topologically valid
    /// edges, and signatures are stable under clone.
    #[test]
    fn compilation_and_signatures(plan in arb_plan()) {
        let catalog = Catalog::standard();
        prop_assume!(plan.validate(&catalog).is_ok());
        let dag = StageDag::compile(&plan, &catalog, &CostModel::default()).expect("compiles");
        prop_assert_eq!(dag.len(), plan.node_count());
        for (i, stage) in dag.stages().iter().enumerate() {
            prop_assert_eq!(stage.id.0, i);
            for input in &stage.inputs {
                prop_assert!(input.0 < i);
            }
        }
        let copy = plan.clone();
        prop_assert_eq!(strict_signature(&plan), strict_signature(&copy));
        prop_assert_eq!(template_signature(&plan), template_signature(&copy));
    }

    /// Literal rewrites preserve the template signature and structure.
    #[test]
    fn template_signature_invariant_under_literals(plan in arb_plan(), shift in -100i64..100) {
        let rewritten = plan.map_literals(&mut |v| v.saturating_add(shift));
        prop_assert_eq!(template_signature(&plan), template_signature(&rewritten));
        prop_assert_eq!(plan.node_count(), rewritten.node_count());
        prop_assert_eq!(plan.height(), rewritten.height());
    }
}

mod exec_properties {
    use autonomous_data_services::engine::cost::CostModel;
    use autonomous_data_services::engine::exec::{ClusterConfig, SimOptions, Simulator};
    use autonomous_data_services::engine::physical::StageDag;
    use autonomous_data_services::faultsim::{ChaosRunner, FaultEvent, FaultSchedule};
    use autonomous_data_services::obs::Obs;
    use autonomous_data_services::workload::catalog::Catalog;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// For any valid plan and cluster size, the simulated schedule obeys
        /// the physics: dependencies respected, latency at least the
        /// critical-path bound, CPU time at least total work / speed.
        #[test]
        fn schedule_physics(
            plan in super::arb_plan(),
            machines in 1usize..24,
            slots in 1usize..6,
        ) {
            let catalog = Catalog::standard();
            prop_assume!(plan.validate(&catalog).is_ok());
            let config = ClusterConfig {
                machines,
                slots_per_machine: slots,
                ..Default::default()
            };
            let sim = Simulator::with_obs(config, Obs::disabled()).expect("valid cluster");
            let dag = StageDag::compile(&plan, &catalog, &CostModel::default()).expect("compiles");
            let report = sim.run(&dag, &SimOptions::default()).expect("simulates");

            for stage in dag.stages() {
                for input in &stage.inputs {
                    prop_assert!(
                        report.stage_start[stage.id.0] >= report.stage_finish[input.0] - 1e-9
                    );
                }
                prop_assert!(report.stage_finish[stage.id.0] >= report.stage_start[stage.id.0]);
            }
            // Work conservation: CPU seconds >= pure work / speed (overheads add).
            let min_cpu = dag.total_work() / config.work_per_second;
            prop_assert!(report.total_cpu_seconds >= min_cpu - 1e-6);
            // Latency >= the longest single task (stages parallelize their
            // work across tasks, so the per-stage bound is work / tasks).
            let longest_task = dag
                .stages()
                .iter()
                .map(|st| st.work / st.tasks as f64 / config.work_per_second)
                .fold(0.0f64, f64::max);
            prop_assert!(report.latency >= longest_task - 1e-6);
            // Temp peaks are non-negative and bounded by total output bytes.
            let total_bytes: f64 = dag.stages().iter().map(|s| s.output_bytes).sum();
            for &peak in &report.machine_temp_peak {
                // Relative tolerance: byte totals reach 1e10+, where f64
                // accumulation error exceeds any absolute epsilon.
                prop_assert!(peak >= 0.0 && peak <= total_bytes * (1.0 + 1e-9) + 1.0);
            }
        }

        /// Checkpointing every stage never increases the hotspot, and a task
        /// crash never makes the recovery run slower than the checkpointed run.
        #[test]
        fn full_checkpointing_dominates(plan in super::arb_plan()) {
            use std::collections::HashSet;
            let catalog = Catalog::standard();
            prop_assume!(plan.validate(&catalog).is_ok());
            let runner =
                ChaosRunner::with_obs(ClusterConfig::default(), f64::INFINITY, Obs::disabled())
                    .expect("valid");
            let sim = runner.simulator();
            let dag = StageDag::compile(&plan, &catalog, &CostModel::default()).expect("compiles");
            let all: HashSet<_> = dag.stages().iter().map(|s| s.id).collect();
            let plain = sim.run(&dag, &SimOptions::default()).expect("simulates");
            let ckpt = sim
                .run(&dag, &SimOptions { checkpointed: all.clone(), precomputed: HashSet::new() })
                .expect("simulates");
            prop_assert!(ckpt.hotspot_peak() <= plain.hotspot_peak() + 1e-6);
            let crash = FaultSchedule { events: vec![FaultEvent::TaskCrash { at: 0.7 }] };
            let recovery = runner.run_job(&dag, &all, &crash).expect("simulates").final_report;
            prop_assert!(recovery.latency <= ckpt.latency + 1e-6);
        }
    }
}

mod interchange_properties {
    use autonomous_data_services::workload::interchange::{export_plan, import_plan};
    use autonomous_data_services::workload::signature::strict_signature;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any plan survives the interchange round trip exactly.
        #[test]
        fn round_trip_exact(plan in super::arb_plan()) {
            let json = export_plan("prop-test", &plan).expect("exports");
            let back = import_plan(&json).expect("imports");
            prop_assert_eq!(strict_signature(&back), strict_signature(&plan));
            prop_assert_eq!(back, plan);
        }
    }
}
