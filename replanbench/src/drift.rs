//! replan-drift: every event moves one of the two S3 stragglers to a rate
//! never seen before, so each replan re-evaluates its whole candidate
//! lattice, reuses nothing, and writes the candidate memo.  Eq. (4)
//! division dominates; solver and planner gains show here.
//!
//! The simulated goodput covers set-up's events (the cold S3 replan and the
//! fixed warm-up drift), not the timed ones: those depend on the seed, and
//! the goodput must read the same in every run until plans change.

use crate::report::{Layers, Report};
use crate::setup::repeat_setup;
use crate::speed::Speed;
use crate::testbed::{DriftInputs, Goodput, Rng, Testbed};
use crate::trace::Tracer;
use crate::trainer::{phase_layers, replan_layers, run_events, Event, Trainer};
use malleus_cluster::PaperSituation;
use std::time::Duration;

/// Events per second of `--seconds`: about what one planner worker
/// completes at nominal host speed (≈155 ms per replan).  The window runs a
/// fixed number of events, not a fixed time, because the candidate memo
/// grows with every event and with it the peak RSS: only identical work
/// gives identical memory.
const EVENTS_PER_SECOND: u64 = 6;
/// Timed events whose adapted plan is checked against the oracle.
const CHECKED_EVENTS: usize = 3;

struct State {
    trainer: Trainer,
    inputs: DriftInputs,
    goodput: Goodput,
}

fn setup(testbed: &Testbed, seed: u64, speed: &mut Speed) -> Result<State, String> {
    let s3 = testbed.snapshot(PaperSituation::S3);
    let mut trainer = Trainer::start(testbed, &testbed.snapshot(PaperSituation::Normal))?;
    speed.tick();
    let mut inputs = DriftInputs::new(seed, s3.clone());
    let batch = trainer.global_batch();
    let mut goodput = Goodput::default();
    for snapshot in std::iter::once(s3).chain(inputs.warm_up()) {
        let event = trainer.event(&snapshot, &mut Tracer::new(false), 0)?;
        goodput.add(batch, event.step_time_s, event.migration.time);
        speed.tick();
    }
    Ok(State {
        trainer,
        inputs,
        goodput,
    })
}

fn on_path(event: &Event) -> bool {
    event.delta && event.reused == 0 && event.evaluated == event.candidates
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let testbed = Testbed::new();
    let (setup, mut state) = repeat_setup(|speed| setup(&testbed, seed, speed))?;
    let events = EVENTS_PER_SECOND * seconds;
    let mut sample = Rng::new(seed ^ 0xC4EC_4ED0_0000_0000);
    let mut checked = Vec::with_capacity(CHECKED_EVENTS);
    while checked.len() < CHECKED_EVENTS.min(events as usize) {
        let op = sample.below(events as usize) as u64;
        if !checked.contains(&op) {
            checked.push(op);
        }
    }

    let mut path_ok = true;
    let State {
        trainer,
        inputs,
        goodput,
    } = &mut state;
    let (measured, _, checks) = run_events(
        trainer,
        &mut Tracer::new(false),
        Duration::MAX,
        |op, _| (op < events).then(|| inputs.next_snapshot()),
        |op| checked.contains(&op),
        |_, event| path_ok &= on_path(event),
    );

    let mut layers = Layers::new(1.0);
    let traced = trace.then(|| {
        let mut tracer = Tracer::new(true);
        let (traced, events_seen, _) = run_events(
            trainer,
            &mut tracer,
            Duration::MAX,
            |op, _| (op < events).then(|| inputs.next_snapshot()),
            |_| false,
            |_, event| path_ok &= on_path(event),
        );
        layers = Layers::new(traced.scale);
        let timings: Vec<_> = events_seen.iter().map(|e| e.timing).collect();
        phase_layers(&mut layers, &timings, traced.scale);
        replan_layers(&mut layers, &tracer, &events_seen);
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
            .ok_or_else(|| "a timed replan reused a candidate or left the delta route".into()),
        goodput: goodput.samples_per_s(),
        layers,
    })
}
