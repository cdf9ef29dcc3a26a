//! Request coalescing (singleflight).
//!
//! Concurrent identical requests must not re-plan: the first arrival for a
//! key becomes the *leader* and runs the planner; later arrivals become
//! *followers* and block on a condvar-backed slot until the leader publishes
//! the shared result.  A fingerprint collision — a different request hashing
//! to an in-flight key — is detected by full-equality comparison against the
//! leader's request and falls back to an independent computation, so
//! coalescing can never hand a tenant another tenant's plan.
//!
//! Leader-failure hardening: if the leader thread panics/unwinds mid-plan it
//! never reaches [`InFlightTable::complete`], which would historically leave
//! followers parked on the condvar forever.  The leader therefore holds an
//! unwind guard (`CompleteSlotOnDrop` in `lib.rs`) that publishes
//! [`Publication::Aborted`] on the way out; followers observing an abort fall
//! back to computing the plan independently instead of hanging or inheriting
//! a synthetic error.

use crate::{KeyedRequest, ServiceError};
use malleus_core::{lock_rank, PlannedOutcome, RankedMutex};
use std::collections::HashMap;
use std::sync::{Arc, Condvar};

/// What a computation produced, shared verbatim with every coalesced waiter.
pub(crate) type PlanResult = Result<Arc<PlannedOutcome>, ServiceError>;

/// What the leader published into the slot.
#[derive(Debug, Clone)]
pub(crate) enum Publication {
    /// The leader ran to completion (successfully or with a typed error).
    Done(PlanResult),
    /// The leader unwound without completing (panic mid-plan); followers
    /// must recompute independently.
    Aborted,
}

/// One in-flight computation.
#[derive(Debug)]
pub(crate) struct InFlight {
    /// The leader's keyed request (followers confirm full equality — backend
    /// included — before waiting).
    request: KeyedRequest,
    result: RankedMutex<Option<Publication>>,
    ready: Condvar,
}

impl InFlight {
    fn new(request: KeyedRequest) -> Self {
        Self {
            request,
            // `RankedMutex` recovers from poisoning: the slot is an `Option`
            // set exactly once, so a leader panic must not cascade poison
            // panics into every follower.
            result: RankedMutex::new(lock_rank::IN_FLIGHT_RESULT, "InFlight.result", None),
            ready: Condvar::new(),
        }
    }

    /// Block until the leader publishes (a result *or* an abort), then return
    /// a clone of the publication.
    pub fn wait(&self) -> Publication {
        let mut slot = self.result.lock();
        while slot.is_none() {
            slot = self.result.wait(&self.ready, slot);
        }
        slot.clone().expect("loop exits only once published")
    }

    fn publish(&self, publication: Publication) {
        *self.result.lock() = Some(publication);
        self.ready.notify_all();
    }
}

/// How a request relates to the in-flight table.
pub(crate) enum Role {
    /// First arrival: owns the computation and must call
    /// [`InFlightTable::complete`] (or [`InFlightTable::abort`]) exactly once.
    Leader(Arc<InFlight>),
    /// Identical request already in flight: wait on its slot.
    Follower(Arc<InFlight>),
    /// A *different* request is in flight under the same fingerprint;
    /// compute independently without touching the slot.
    Collision,
}

/// The singleflight table: at most one slot per key.
#[derive(Debug)]
pub(crate) struct InFlightTable {
    slots: RankedMutex<HashMap<u64, Arc<InFlight>>>,
}

impl Default for InFlightTable {
    fn default() -> Self {
        Self {
            slots: RankedMutex::new(
                lock_rank::IN_FLIGHT_TABLE_SLOTS,
                "InFlightTable.slots",
                HashMap::new(),
            ),
        }
    }
}

impl InFlightTable {
    /// Join the in-flight computation for `key`, or become its leader.
    pub fn join(&self, key: u64, request: &KeyedRequest) -> Role {
        let mut slots = self.slots.lock();
        match slots.get(&key) {
            Some(slot) if slot.request.matches(request) => Role::Follower(Arc::clone(slot)),
            Some(_) => Role::Collision,
            None => {
                let slot = Arc::new(InFlight::new(request.clone()));
                slots.insert(key, Arc::clone(&slot));
                Role::Leader(slot)
            }
        }
    }

    /// Leader-side completion: publish the result to every follower (waking
    /// them) and retire the slot so later requests go to the cache.
    pub fn complete(&self, key: u64, slot: &Arc<InFlight>, result: PlanResult) {
        slot.publish(Publication::Done(result));
        self.slots.lock().remove(&key);
    }

    /// Leader-side abort (unwind path): wake every follower with
    /// [`Publication::Aborted`] so they recompute independently, and retire
    /// the slot so a later arrival can become a fresh leader.
    pub fn abort(&self, key: u64, slot: &Arc<InFlight>) {
        slot.publish(Publication::Aborted);
        self.slots.lock().remove(&key);
    }

    /// Number of in-flight computations (diagnostics).
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }
}
