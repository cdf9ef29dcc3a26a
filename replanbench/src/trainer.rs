//! The straggler-event loop the two replan workloads share, its output
//! check, and its per-layer summary.

use crate::report::{Layers, Measured, Window};
use crate::stats::Histogram;
use crate::testbed::{decision_bytes, Testbed};
use crate::trace::Tracer;
use malleus_cluster::ClusterSnapshot;
use malleus_core::{plan_migration, ParallelizationPlan, PlanOutcome, PlanTiming, Planner};
use malleus_runtime::{replan_overlapped_incremental, Executor, Profiler};
use malleus_sim::{migration_time, MigrationCost};
use std::time::{Duration, Instant};

/// What one straggler event did.
#[derive(Debug, Clone)]
pub struct Event {
    /// Candidates re-evaluated / served from the memo, and lattice size.
    pub evaluated: usize,
    pub reused: usize,
    pub candidates: usize,
    /// Whether the replan took the warm-start delta route.
    pub delta: bool,
    pub timing: PlanTiming,
    /// Wall time of the replan span (0 with tracing off).
    pub replan_ns: u64,
    /// Simulated step time on the new plan.
    pub step_time_s: f64,
    /// Whether the replan changed the plan, and what migrating cost.
    pub plan_changed: bool,
    pub migration: MigrationCost,
}

/// A training job reacting to straggler events the way `TrainingSession`
/// does: step on the old plan, let the profiler see it, replan with warm
/// start, migrate, step on the new plan.
#[derive(Debug)]
pub struct Trainer {
    planner: Planner,
    executor: Executor,
    profiler: Profiler,
    current: PlanOutcome,
}

impl Trainer {
    /// Plan cold for `snapshot` and instantiate the plan.
    pub fn start(testbed: &Testbed, snapshot: &ClusterSnapshot) -> Result<Self, String> {
        let planner = testbed.planner();
        let current = planner
            .plan(snapshot)
            .map_err(|e| format!("initial plan: {e}"))?;
        let mut executor = Executor::new(planner.cost.coeffs.clone());
        executor.instantiate(current.plan.clone());
        Ok(Self {
            planner,
            executor,
            profiler: Profiler::default(),
            current,
        })
    }

    pub fn current(&self) -> &PlanOutcome {
        &self.current
    }

    pub fn global_batch(&self) -> u64 {
        self.planner.config.global_batch_size
    }

    /// Handle one straggler event: the cluster now looks like `snapshot`.
    pub fn event(
        &mut self,
        snapshot: &ClusterSnapshot,
        tracer: &mut Tracer,
        op: u64,
    ) -> Result<Event, String> {
        let root = tracer.open("op", op, None);
        let oom = |e: malleus_sim::OomError| format!("train step: {e}");
        let before = tracer
            .span("sim.step", op, root, || self.executor.train_step(snapshot))
            .map_err(oom)?;
        tracer.span("runtime.profiler", op, root, || {
            self.profiler.observe(&before, snapshot)
        });
        let replan_span = tracer.open("runtime.replan", op, root);
        let replan =
            replan_overlapped_incremental(&self.planner, snapshot, &self.current, before.step_time)
                .map_err(|e| format!("replan: {e}"))?;
        tracer.close(replan_span);
        let migration = if replan.plan_changed {
            let new_plan = replan.outcome.plan.clone();
            tracer.span("runtime.migrate", op, root, || {
                self.executor.migrate_to(new_plan, snapshot)
            })
        } else {
            MigrationCost {
                time: 0.0,
                total_bytes: 0.0,
                messages: 0,
            }
        };
        let after = tracer
            .span("sim.step", op, root, || self.executor.train_step(snapshot))
            .map_err(oom)?;
        tracer.close(root);
        let lattice = replan.outcome.lattice.as_deref();
        let event = Event {
            evaluated: lattice.map_or(0, |l| l.evaluated),
            reused: lattice.map_or(0, |l| l.reused),
            candidates: lattice.map_or(0, |l| l.entries.len()),
            delta: lattice.is_some_and(|l| l.delta),
            timing: replan.outcome.timing,
            replan_ns: tracer.duration_ns(replan_span),
            step_time_s: after.step_time,
            plan_changed: replan.plan_changed,
            migration,
        };
        self.current = replan.outcome;
        Ok(event)
    }

    /// Time the migration layers by shadow calls, outside the op, on the
    /// migration from `old` to the current plan.
    fn shadow_migration(
        &self,
        old: &ParallelizationPlan,
        snapshot: &ClusterSnapshot,
        tracer: &mut Tracer,
        op: u64,
    ) {
        let coeffs = &self.planner.cost.coeffs;
        let new = &self.current.plan;
        let plan = tracer.span("core.migration_plan", op, None, || {
            plan_migration(old, new, coeffs)
        });
        tracer.span("sim.migration_time", op, None, || {
            migration_time(coeffs, snapshot, &plan)
        });
    }
}

/// Time straggler events until `next` returns `None`.  It is given the op
/// index and whether the window is over: `limit` has passed or the span
/// buffer is full.  Ops for which `checked` holds
/// keep their inputs and adapted plan for the oracle; `visit` sees every
/// event that succeeded, after its latency is recorded.  With tracing on,
/// migrations are also timed by shadow calls and the events are returned.
pub fn run_events(
    trainer: &mut Trainer,
    tracer: &mut Tracer,
    limit: Duration,
    mut next: impl FnMut(u64, bool) -> Option<ClusterSnapshot>,
    checked: impl Fn(u64) -> bool,
    mut visit: impl FnMut(u64, &Event),
) -> (Measured, Vec<Event>, Vec<Check>) {
    let mut kept = Vec::new();
    let mut checks = Vec::new();
    let mut window = Window::start();
    let mut op = 0;
    while let Some(snapshot) = next(op, window.elapsed() >= limit || tracer.full()) {
        let check = checked(op);
        let previous = (check || tracer.enabled()).then(|| trainer.current().plan.clone());
        let t0 = Instant::now();
        let result = trainer.event(&snapshot, tracer, op);
        let ns = t0.elapsed().as_nanos() as u64;
        match result {
            Ok(event) => {
                window.record(ns);
                visit(op, &event);
                if tracer.enabled() {
                    if let Some(old) = previous.as_ref().filter(|_| event.plan_changed) {
                        trainer.shadow_migration(old, &snapshot, tracer, op);
                    }
                    kept.push(event);
                }
            }
            Err(_) => window.fail(),
        }
        if let Some(previous) = previous.filter(|_| check) {
            checks.push(Check {
                snapshot,
                previous,
                adapted: decision_bytes(trainer.current()),
            });
        }
        op += 1;
    }
    (window.finish(), kept, checks)
}

/// An adapted plan to compare with the serial oracle after the window.
#[derive(Debug)]
pub struct Check {
    pub snapshot: ClusterSnapshot,
    pub previous: ParallelizationPlan,
    pub adapted: Vec<u8>,
}

impl Check {
    /// Whether a fresh `Fixed(1)`, full-enumeration planner replanning from
    /// the same previous plan reaches the same decision, byte for byte.
    pub fn holds(&self, testbed: &Testbed) -> bool {
        testbed
            .oracle()
            .replan(&self.snapshot, &self.previous)
            .is_ok_and(|oracle| decision_bytes(&oracle) == self.adapted)
    }
}

/// The planner's four phases, scaled by `scale` to nominal host speed.
pub fn phase_layers(layers: &mut Layers, phases: &[PlanTiming], scale: f64) {
    let mut phase = |name, f: fn(&PlanTiming) -> std::time::Duration| {
        let mut h = Histogram::default();
        for t in phases {
            h.record(f(t).as_nanos() as u64);
        }
        let median = h.percentile(0.5).unwrap_or(0.0) * scale;
        layers.put(name, median / 1e6, h.len());
    };
    phase("core.grouping_ms", |t| t.grouping);
    phase("core.division_ms", |t| t.division);
    phase("core.ordering_ms", |t| t.ordering);
    phase("core.assignment_ms", |t| t.assignment);
}

/// Per-layer numbers of a traced window of straggler events.
pub fn replan_layers(layers: &mut Layers, tracer: &Tracer, events: &[Event]) {
    layers.time(
        "runtime.replan_ms",
        &tracer.durations("runtime.replan"),
        1e6,
    );
    let mut other = Histogram::default();
    let mut evaluated = Histogram::default();
    let mut step = Histogram::default();
    let (mut reused, mut candidates, mut bytes) = (0, 0, 0.0);
    for e in events {
        let planned = e.timing.total().as_nanos() as u64;
        other.record(e.replan_ns.saturating_sub(planned));
        evaluated.record(e.evaluated as u64);
        step.record((e.step_time_s * 1e9) as u64);
        reused += e.reused;
        candidates += e.candidates;
        bytes += e.migration.total_bytes;
    }
    let n = events.len() as u64;
    layers.time("core.planner_other_us", &other, 1e3);
    layers.median("core.candidates_evaluated", &evaluated, 1.0);
    let ratio = if candidates == 0 {
        0.0
    } else {
        reused as f64 / candidates as f64
    };
    layers.put("core.memo_reuse_ratio", ratio, n);
    layers.time("sim.step_us", &tracer.durations("sim.step"), 1e3);
    layers.time(
        "runtime.profiler_us",
        &tracer.durations("runtime.profiler"),
        1e3,
    );
    layers.time(
        "runtime.migrate_us",
        &tracer.durations("runtime.migrate"),
        1e3,
    );
    let plan_ns = tracer.durations("core.migration_plan");
    layers.time("core.migration_plan_us", &plan_ns, 1e3);
    let time_ns = tracer.durations("sim.migration_time");
    layers.time("sim.migration_time_us", &time_ns, 1e3);
    // Simulated seconds: no host time, so never scaled.
    layers.median("sim.step_time_s", &step, 1e9);
    layers.put("sim.migration_gb", bytes / 1e9 / n.max(1) as f64, n);
    layers.time("trace.op_self_us", &tracer.self_times("op"), 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::DriftInputs;
    use malleus_cluster::PaperSituation;

    #[test]
    fn same_seed_gives_same_plan_digests_and_the_oracle_agrees() {
        // One drift event after S3, replayed by two independent trainers.
        let testbed = Testbed::new();
        let digest = |seed: u64| {
            let s3 = testbed.snapshot(PaperSituation::S3);
            let mut trainer =
                Trainer::start(&testbed, &testbed.snapshot(PaperSituation::Normal)).unwrap();
            trainer.event(&s3, &mut Tracer::new(false), 0).unwrap();
            let next = DriftInputs::new(seed, s3).next_snapshot();
            let previous = trainer.current().plan.clone();
            let event = trainer.event(&next, &mut Tracer::new(false), 1).unwrap();
            assert!(event.delta && event.reused == 0);
            assert_eq!(event.evaluated, event.candidates);
            let adapted = decision_bytes(trainer.current());
            let check = Check {
                snapshot: next,
                previous,
                adapted: adapted.clone(),
            };
            assert!(check.holds(&testbed));
            adapted
        };
        assert_eq!(digest(5), digest(5));
    }
}
