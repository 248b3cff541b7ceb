//! C7 — Pipemizer pipeline optimization + Wing dependency-aware scheduling
//! (Sec 4.2, \[8, 14\]).
//!
//! Shape: pushing common subexpressions from consumers into their producer
//! cuts total pipeline work, and dependency-aware (critical-path) job
//! ordering cuts makespan against dependency-blind FIFO on a contended
//! cluster.

use crate::Row;
use adas_obs::Obs;
use adas_pipeline::{optimize_pipelines, schedule, PipelineGraph, Policy};
use adas_workload::catalog::Catalog;
use adas_workload::job::{Job, Trace};
use adas_workload::plan::{CmpOp, LogicalPlan, Predicate};
use adas_workload::{DatasetId, JobId, TemplateId};

/// Builds a trace of `n_pipelines` fan-out pipelines: one producer feeding
/// `consumers` jobs that all embed one shared subexpression.
pub fn pipeline_trace(n_pipelines: usize, consumers: usize) -> Trace {
    let mut jobs = Vec::new();
    let mut next_id = 0u64;
    for p in 0..n_pipelines {
        let ds = DatasetId(p as u64);
        let literal = 100 + (p as i64 % 6) * 90;
        jobs.push(Job {
            id: JobId(next_id),
            template: TemplateId(next_id),
            plan: LogicalPlan::scan("sessions")
                .filter(Predicate::single(2, CmpOp::Le, literal))
                .aggregate(vec![1]),
            submit_time: p as u64 * 2,
            inputs: vec![],
            outputs: vec![ds],
        });
        next_id += 1;
        let shared = LogicalPlan::join(
            LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Le, literal)),
            LogicalPlan::scan("users"),
            0,
            0,
        );
        for c in 0..consumers {
            jobs.push(Job {
                id: JobId(next_id),
                template: TemplateId(next_id),
                plan: shared.clone().aggregate(vec![c % 3]),
                submit_time: p as u64 * 2 + 1,
                inputs: vec![ds],
                outputs: vec![],
            });
            next_id += 1;
        }
    }
    Trace::new(jobs)
}

/// Runs the experiment.
pub fn run() -> Vec<Row> {
    let catalog = Catalog::standard();
    let trace = pipeline_trace(30, 3);
    let graph = PipelineGraph::build(&trace);
    let stats = graph.stats(&trace);

    let (optimized_jobs, extended, push) =
        optimize_pipelines(&trace, &catalog).expect("optimization runs");

    // Scheduling: baseline trace, FIFO vs critical-path; then the optimized
    // trace under critical-path.
    let slots = 8;
    let speed = 5e6;
    let obs = Obs::disabled();
    let fifo = schedule(&trace, &catalog, slots, speed, Policy::Fifo, &obs).expect("schedules");
    let cp =
        schedule(&trace, &catalog, slots, speed, Policy::CriticalPath, &obs).expect("schedules");
    let optimized_trace = Trace::new(optimized_jobs);
    let optimized_cp = schedule(
        &optimized_trace,
        &extended,
        slots,
        speed,
        Policy::CriticalPath,
        &obs,
    )
    .expect("schedules");

    vec![
        Row::measured_only(
            "C7",
            "pipelines in trace",
            stats.pipeline_count as f64,
            "pipelines",
        ),
        Row::measured_only(
            "C7",
            "jobs in pipelines",
            stats.pipelined_fraction,
            "fraction",
        ),
        Row::measured_only(
            "C7",
            "subexpressions pushed",
            push.subexpressions_pushed as f64,
            "subexprs",
        ),
        Row::measured_only(
            "C7",
            "consumer rewrites",
            push.consumer_rewrites as f64,
            "rewrites",
        ),
        Row::measured_only(
            "C7",
            "pipeline work reduction",
            push.work_reduction,
            "fraction",
        ),
        Row::measured_only("C7", "FIFO makespan", fifo.makespan, "seconds"),
        Row::measured_only("C7", "critical-path makespan", cp.makespan, "seconds"),
        Row::measured_only(
            "C7",
            "dependency-aware scheduling gain",
            (fifo.makespan - cp.makespan) / fifo.makespan,
            "fraction",
        ),
        Row::measured_only(
            "C7",
            "optimized pipeline makespan",
            optimized_cp.makespan,
            "seconds",
        ),
        Row::measured_only(
            "C7",
            "end-to-end makespan reduction",
            (fifo.makespan - optimized_cp.makespan) / fifo.makespan,
            "fraction",
        ),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn c7_pipeline_optimization_pays_off() {
        let rows = super::run();
        let get = |m: &str| rows.iter().find(|r| r.metric == m).unwrap().measured;
        assert!(get("subexpressions pushed") >= 20.0);
        assert!(
            get("pipeline work reduction") > 0.2,
            "{}",
            get("pipeline work reduction")
        );
        assert!(get("end-to-end makespan reduction") > 0.1);
        assert!(get("critical-path makespan") <= get("FIFO makespan") + 1e-9);
    }
}
