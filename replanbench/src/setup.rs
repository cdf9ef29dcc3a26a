//! Set-up, repeated so that its time can be reported as a median.

use crate::report::Setup;
use crate::speed::Speed;
use crate::stats::Histogram;
use std::time::Instant;

/// Set-up runs per benchmark run.  A single cold plan varies by up to 50%
/// between processes on a shared 2-vCPU host; the median of seven set-ups,
/// each several cold plans long and each scaled to nominal host speed, is
/// steadier.
pub const SETUP_REPEATS: usize = 7;

/// Run `setup` [`SETUP_REPEATS`] times from scratch and keep the last
/// state.  `setup` times the reference kernel with [`Speed::tick`] after
/// each of its plans; a repeat's duration leaves that time out and is
/// scaled by the repeat's own samples.  Every repeat runs on a thread that
/// has never planned, because the solver keeps thread-local memos: the first
/// `SETUP_REPEATS - 1` on fresh threads, the last on the calling thread,
/// which then runs the timed window with the caches that set-up warmed.
pub fn repeat_setup<S>(
    setup: impl Fn(&mut Speed) -> Result<S, String> + Sync,
) -> Result<(Setup, S), String> {
    let timed = |speed: &mut Speed| {
        let t0 = Instant::now();
        let state = setup(speed);
        let ns = t0.elapsed().saturating_sub(speed.spent()).as_nanos() as f64;
        (ns * speed.scale(), state)
    };
    let mut times = Histogram::default();
    let mut scales = Vec::with_capacity(SETUP_REPEATS);
    let mut repeats = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        let mut speed = Speed::new();
        let (ns, state) = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let (ns, state) = timed(&mut speed);
                    (ns, state.map(drop))
                })
                .join()
                .expect("set-up thread panicked")
        });
        state?;
        times.record(ns as u64);
        scales.push(speed.scale());
        repeats.push((ns / 1e9, speed.scale()));
    }
    let mut speed = Speed::new();
    let (ns, state) = timed(&mut speed);
    let state = state?;
    times.record(ns as u64);
    scales.push(speed.scale());
    repeats.push((ns / 1e9, speed.scale()));
    scales.sort_by(f64::total_cmp);
    let scale = scales[scales.len() / 2];
    Ok((
        Setup {
            times,
            scale,
            repeats,
        },
        state,
    ))
}
