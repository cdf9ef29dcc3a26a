//! replan-flap: the paper's Normal → S1 … S6 → Normal trace (§7.1),
//! replayed in a loop after one cold cycle in set-up.  Every timed replan is
//! a memo replay that evaluates no candidate, so migration dominates and the
//! solver is bypassed: the prediction for a solver change here is "no
//! change".  The inputs are the paper's fixed trace, so the seed changes
//! nothing.

use crate::report::{Layers, Report};
use crate::setup::repeat_setup;
use crate::speed::Speed;
use crate::testbed::{paper_trace, Goodput, Testbed};
use crate::trace::Tracer;
use crate::trainer::{phase_layers, replan_layers, run_events, Event, Trainer};
use malleus_cluster::ClusterSnapshot;
use malleus_core::PlanTiming;
use std::time::Duration;

struct State {
    trainer: Trainer,
    snapshots: Vec<ClusterSnapshot>,
    /// Planner phase timings of the cold cycle.
    cold: Vec<PlanTiming>,
}

fn setup(testbed: &Testbed, speed: &mut Speed) -> Result<State, String> {
    let snapshots: Vec<_> = paper_trace().iter().map(|s| testbed.snapshot(*s)).collect();
    let mut trainer = Trainer::start(testbed, &snapshots[0])?;
    speed.tick();
    let mut off = Tracer::new(false);
    let mut cold = Vec::new();
    for i in 1..=snapshots.len() {
        let event = trainer.event(&snapshots[i % snapshots.len()], &mut off, 0)?;
        speed.tick();
        cold.push(event.timing);
    }
    Ok(State {
        trainer,
        snapshots,
        cold,
    })
}

fn on_path(event: &Event) -> bool {
    event.delta && event.evaluated == 0
}

pub fn run(_seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let testbed = Testbed::new();
    let (setup, mut state) = repeat_setup(|speed| setup(&testbed, speed))?;
    let State {
        trainer,
        snapshots,
        cold,
    } = &mut state;
    let n = snapshots.len() as u64;
    let limit = Duration::from_secs(seconds);
    // Op k moves the cluster to the situation after the one it is in,
    // starting from Normal.  A window covers whole cycles, at least one, so
    // the next window starts from Normal again.
    let mut next = |op: u64, over: bool| {
        (op < n || !over || !op.is_multiple_of(n))
            .then(|| snapshots[((op + 1) % n) as usize].clone())
    };

    let mut path_ok = true;
    let mut goodput = Goodput::default();
    let batch = trainer.global_batch();
    let (measured, _, checks) = run_events(
        trainer,
        &mut Tracer::new(false),
        limit,
        &mut next,
        |op| op < n,
        |op, event| {
            path_ok &= on_path(event);
            if op < n {
                goodput.add(batch, event.step_time_s, event.migration.time);
            }
        },
    );

    let mut layers = Layers::new(1.0);
    let traced = trace.then(|| {
        let mut tracer = Tracer::new(true);
        let (traced, events, _) = run_events(
            trainer,
            &mut tracer,
            limit,
            &mut next,
            |_| false,
            |_, event| path_ok &= on_path(event),
        );
        layers = Layers::new(traced.scale);
        phase_layers(&mut layers, cold, setup.scale);
        replan_layers(&mut layers, &tracer, &events);
        (traced, tracer)
    });

    let failed_checks = checks.iter().filter(|c| !c.holds(&testbed)).count() as u64;
    Ok(Report {
        setup,
        measured,
        traced,
        checks: checks.len() as u64,
        failed_checks,
        path_check: path_ok
            .then_some(())
            .ok_or_else(|| "a timed replan evaluated a candidate".into()),
        goodput: goodput.samples_per_s(),
        layers,
    })
}
