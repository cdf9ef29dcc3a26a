//! Bounded admission for planner invocations.
//!
//! The service caps how many planner invocations execute at once
//! (`max_concurrent_plans`) so the number of busy planner threads stays
//! bounded however many tenants call in: each admitted invocation plans on
//! its requesting thread.  Requests beyond the cap queue on a condvar up to
//! `max_queue_depth` waiters; past that the gate sheds load by returning
//! [`ServiceError::Overloaded`] — the backpressure knob.
//!
//! Queued waiters additionally honor an optional `queue_wait_timeout`: if no
//! slot frees within the bound, the ticket is *abandoned* and the caller gets
//! a typed [`ServiceError::AdmissionTimeout`] instead of blocking forever on
//! a wedged (or merely slow) planner.  Abandoned tickets are skipped when the
//! serving pointer reaches them, so a timed-out head never strands the
//! waiters queued behind it.

use crate::ServiceError;
use malleus_core::{lock_rank, RankedMutex};
use std::collections::BTreeSet;
use std::sync::Condvar;
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct GateState {
    active: usize,
    waiting: usize,
    /// Next ticket number handed to a queued waiter.
    next_ticket: u64,
    /// Ticket currently at the head of the queue.  Freed slots go to the
    /// head ticket before any later arrival: a new request that finds
    /// `active < max_active` but `waiting > 0` must still queue, otherwise a
    /// continuous arrival stream barges past the queue and starves it.
    serving: u64,
    /// Tickets whose waiters timed out before being served.  The serving
    /// pointer skips over these so the queue keeps draining.
    abandoned: BTreeSet<u64>,
}

impl GateState {
    /// Advance `serving` past `just_retired` and any abandoned tickets that
    /// follow it, landing on the next ticket with a live waiter (or on
    /// `next_ticket` if the queue is empty).
    fn advance_serving(&mut self, just_retired: u64) {
        self.serving = just_retired + 1;
        while self.abandoned.remove(&self.serving) {
            self.serving += 1;
        }
    }
}

/// Counting semaphore with a bounded, FIFO, optionally time-limited wait
/// queue.
#[derive(Debug)]
pub(crate) struct AdmissionGate {
    max_active: usize,
    max_queue_depth: usize,
    queue_wait_timeout: Option<Duration>,
    state: RankedMutex<GateState>,
    freed: Condvar,
}

/// An admission permit; dropping it frees the slot and wakes one waiter.
#[derive(Debug)]
pub(crate) struct Permit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock();
        state.active -= 1;
        drop(state);
        // Wake every waiter: only the head ticket can proceed, and a targeted
        // notify_one could land on a non-head waiter that just re-sleeps,
        // stranding the head.
        self.gate.freed.notify_all();
    }
}

impl AdmissionGate {
    pub fn new(
        max_active: usize,
        max_queue_depth: usize,
        queue_wait_timeout: Option<Duration>,
    ) -> Self {
        Self {
            max_active: max_active.max(1),
            max_queue_depth,
            queue_wait_timeout,
            state: RankedMutex::new(
                lock_rank::ADMISSION_GATE_STATE,
                "AdmissionGate.state",
                GateState::default(),
            ),
            freed: Condvar::new(),
        }
    }

    /// Acquire a permit, blocking while the gate is saturated *or* earlier
    /// arrivals are still queued (freed slots are handed out FIFO).  Fails
    /// fast with [`ServiceError::Overloaded`] once the wait queue is full,
    /// and with [`ServiceError::AdmissionTimeout`] if the gate's
    /// `queue_wait_timeout` elapses before a slot is granted.
    pub fn admit(&self) -> Result<Permit<'_>, ServiceError> {
        self.admit_with_timeout(self.queue_wait_timeout)
    }

    /// [`admit`](Self::admit) with an explicit per-call timeout override
    /// (tests mix bounded and unbounded waiters on one gate).
    pub fn admit_with_timeout(
        &self,
        timeout: Option<Duration>,
    ) -> Result<Permit<'_>, ServiceError> {
        let mut state = self.state.lock();
        if state.active >= self.max_active || state.waiting > 0 {
            if state.waiting >= self.max_queue_depth {
                return Err(ServiceError::Overloaded {
                    queue_depth: state.waiting,
                    limit: self.max_queue_depth,
                });
            }
            let ticket = state.next_ticket;
            state.next_ticket += 1;
            state.waiting += 1;
            let enqueued = Instant::now();
            while state.active >= self.max_active || state.serving != ticket {
                match timeout {
                    None => state = self.state.wait(&self.freed, state),
                    Some(limit) => {
                        let waited = enqueued.elapsed();
                        let Some(remaining) = limit.checked_sub(waited) else {
                            // Abandon the ticket: leave the queue, and make
                            // sure the serving pointer never rests on it.
                            state.waiting -= 1;
                            if state.serving == ticket {
                                state.advance_serving(ticket);
                            } else {
                                state.abandoned.insert(ticket);
                            }
                            drop(state);
                            // The next live ticket may now be at the head.
                            self.freed.notify_all();
                            return Err(ServiceError::AdmissionTimeout {
                                waited,
                                timeout: limit,
                            });
                        };
                        let (guard, _timed_out) =
                            self.state.wait_timeout(&self.freed, state, remaining);
                        state = guard;
                    }
                }
            }
            state.advance_serving(ticket);
            state.waiting -= 1;
            state.active += 1;
            drop(state);
            // The next ticket may already be eligible (several slots freed
            // while the queue drained one at a time).
            self.freed.notify_all();
            return Ok(Permit { gate: self });
        }
        state.active += 1;
        Ok(Permit { gate: self })
    }

    /// (active invocations, queued waiters).
    pub fn depths(&self) -> (usize, usize) {
        let state = self.state.lock();
        (state.active, state.waiting)
    }

    /// Queue tickets handed out so far.  Unlike the queue depth it never
    /// drops when a waiter times out, so tests can wait on it without racing
    /// the timeout.
    #[cfg(test)]
    fn tickets_issued(&self) -> u64 {
        self.state.lock().next_ticket
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test-only fixture locks sit outside the production lock ranks"
)]
mod tests {
    use super::*;

    #[test]
    fn permits_free_on_drop() {
        let gate = AdmissionGate::new(1, 0, None);
        let permit = gate.admit().expect("first permit");
        assert_eq!(gate.depths(), (1, 0));
        // Saturated with an empty wait queue: immediate backpressure.
        assert!(matches!(
            gate.admit(),
            Err(ServiceError::Overloaded { limit: 0, .. })
        ));
        drop(permit);
        assert_eq!(gate.depths(), (0, 0));
        let _again = gate.admit().expect("slot freed");
    }

    #[test]
    fn waiters_are_admitted_when_a_slot_frees() {
        let gate = std::sync::Arc::new(AdmissionGate::new(1, 4, None));
        let permit = gate.admit().unwrap();
        let waiter = {
            let gate = std::sync::Arc::clone(&gate);
            std::thread::spawn(move || gate.admit().map(|_| ()).is_ok())
        };
        // Let the waiter reach the queue, then free the slot.
        while gate.depths().1 == 0 {
            std::thread::yield_now();
        }
        drop(permit);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn zero_max_active_is_clamped_to_one() {
        let gate = AdmissionGate::new(0, 0, None);
        let _permit = gate.admit().expect("clamped to one slot");
    }

    #[test]
    fn queued_waiter_is_admitted_ahead_of_a_later_arrival() {
        use std::sync::{Arc, Mutex};
        // The barge window is the gap between a permit drop and the queued
        // waiter's wakeup; race it repeatedly — the ticketed gate must never
        // let the later arrival through first.
        for _ in 0..200 {
            let gate = Arc::new(AdmissionGate::new(1, 4, None));
            let order = Arc::new(Mutex::new(Vec::new()));
            let permit = gate.admit().unwrap();
            let waiter = {
                let gate = Arc::clone(&gate);
                let order = Arc::clone(&order);
                std::thread::spawn(move || {
                    let p = gate.admit().unwrap();
                    order.lock().unwrap().push("waiter");
                    drop(p);
                })
            };
            while gate.depths().1 == 0 {
                std::thread::yield_now();
            }
            // Free the slot, then immediately contend as a later arrival.
            drop(permit);
            let p = gate.admit().unwrap();
            order.lock().unwrap().push("arrival");
            drop(p);
            waiter.join().unwrap();
            assert_eq!(
                order.lock().unwrap().as_slice(),
                ["waiter", "arrival"],
                "later arrival barged past the queued waiter"
            );
        }
    }

    #[test]
    fn freed_slots_are_handed_out_in_arrival_order() {
        use std::sync::{Arc, Mutex};
        let gate = Arc::new(AdmissionGate::new(1, 8, None));
        let order = Arc::new(Mutex::new(Vec::new()));
        let permit = gate.admit().unwrap();
        let mut waiters = Vec::new();
        for id in 0..3usize {
            let gate_ref = Arc::clone(&gate);
            let order_ref = Arc::clone(&order);
            waiters.push(std::thread::spawn(move || {
                let p = gate_ref.admit().unwrap();
                order_ref.lock().unwrap().push(id);
                drop(p);
            }));
            // Pin the queue order: wait until this waiter is enqueued before
            // spawning the next.
            while gate.depths().1 <= id {
                std::thread::yield_now();
            }
        }
        drop(permit);
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(order.lock().unwrap().as_slice(), [0, 1, 2]);
    }

    /// Regression: with no `queue_wait_timeout` this configuration blocks the
    /// waiter forever (the permit is never dropped) — the old gate had no
    /// timeout at all, so this test would hang on the old code.  With the
    /// timeout, the waiter must come back with a typed error within the
    /// bound.
    #[test]
    fn queue_wait_timeout_bounds_the_wait_with_a_typed_error() {
        use std::sync::Arc;
        let timeout = Duration::from_millis(50);
        let gate = Arc::new(AdmissionGate::new(1, 4, Some(timeout)));
        // Hold the only slot for the whole test: no slot ever frees.
        let _blocker = gate.admit().expect("first permit is immediate");
        let started = Instant::now();
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.admit().map(|_| ()))
        };
        let result = waiter.join().unwrap();
        let elapsed = started.elapsed();
        match result {
            Err(ServiceError::AdmissionTimeout { waited, timeout: t }) => {
                assert_eq!(t, timeout);
                assert!(
                    waited >= timeout,
                    "reported wait {waited:?} below the bound"
                );
            }
            other => panic!("expected AdmissionTimeout, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(10),
            "timeout failed to bound the wait ({elapsed:?})"
        );
        // The abandoned ticket must not wedge the gate for later arrivals.
        assert_eq!(gate.depths().1, 0);
    }

    /// An abandoned ticket in the *middle* of the queue must be skipped when
    /// the serving pointer reaches it — the waiters behind it still drain in
    /// order.
    #[test]
    fn later_queue_survives_an_abandoned_head_ticket() {
        use std::sync::{Arc, Mutex};
        let gate = Arc::new(AdmissionGate::new(1, 8, None));
        let order = Arc::new(Mutex::new(Vec::new()));
        let permit = gate.admit().unwrap();

        // A queues first with no timeout.
        let a = {
            let (gate, order) = (Arc::clone(&gate), Arc::clone(&order));
            std::thread::spawn(move || {
                let p = gate.admit_with_timeout(None).unwrap();
                order.lock().unwrap().push("a");
                drop(p);
            })
        };
        while gate.tickets_issued() < 1 {
            std::thread::yield_now();
        }
        // B queues second with a short timeout — it will abandon its ticket
        // while *not* at the head (A holds the head).
        let b = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.admit_with_timeout(Some(Duration::from_millis(30)))
                    .map(|_| ())
            })
        };
        while gate.tickets_issued() < 2 {
            std::thread::yield_now();
        }
        // C queues third, unbounded.  B may time out before or after C
        // queues; either way A is served first and C second.
        let c = {
            let (gate, order) = (Arc::clone(&gate), Arc::clone(&order));
            std::thread::spawn(move || {
                let p = gate.admit_with_timeout(None).unwrap();
                order.lock().unwrap().push("c");
                drop(p);
            })
        };
        while gate.tickets_issued() < 3 {
            std::thread::yield_now();
        }

        // Let B time out and abandon its mid-queue ticket.
        assert!(matches!(
            b.join().unwrap(),
            Err(ServiceError::AdmissionTimeout { .. })
        ));
        // Now free the slot: A is admitted, and when A's permit drops the
        // serving pointer must skip B's abandoned ticket straight to C.
        drop(permit);
        a.join().unwrap();
        c.join().unwrap();
        assert_eq!(order.lock().unwrap().as_slice(), ["a", "c"]);
        assert_eq!(gate.depths(), (0, 0));
    }
}
