//! The candidate memo: every plan replays the evaluations it has seen.
//!
//! A full planning invocation enumerates the candidate lattice — every
//! (max-TP, DP, micro-batch, division-mode) tuple — and pays the Eq. (4)
//! division MINLP plus the ordering/layer ILPs for each point.  Most cluster
//! events do not invalidate most of that work: a straggler coefficient
//! drifting on one GPU leaves every candidate whose cost inputs are unchanged
//! bit-identical, and straggler levels in practice flap between a few
//! discrete interference states (§2 / Table 4), so previously evaluated
//! lattice points recur.  A GPU that fails and later returns recurs too.
//!
//! - [`CandidateMemo`]: a bounded cross-invocation memo of candidate
//!   evaluations, keyed by a hash of *exactly* the inputs that determine
//!   [`crate::Planner`]'s per-candidate evaluation (the grouping
//!   membership, every group's straggling-rate bits, the DP degree, the
//!   micro-batch size, the division mode, the global batch, the non-uniform
//!   knobs and the GPU count) and confirmed by full equality on a hit, the
//!   profiled coefficients included — the same discipline as
//!   [`crate::GroupingCache`].  A confirmed hit returns the bitwise-identical
//!   evaluation a fresh computation would produce, whatever the event was
//!   (drift, failure or rejoin), so memo-backed plans are byte-identical to
//!   from-scratch plans *by construction*, and a fresh planner, whose memo
//!   is empty, is the equivalence oracle.  Debug builds evaluate every hit
//!   afresh as well and assert the same evaluation.
//! - [`ScoredLattice`]: the scored candidate lattice and its reuse counts,
//!   attached to the chosen plan (in [`crate::PlanOutcome::lattice`]) as
//!   diagnostics; no plan reads it.
//!
//! A replan served entirely from the memo costs a lookup per candidate: the
//! grouping part of the key (`GroupingInputs`) is hashed once per grouping
//! per plan, each candidate extends it by three words, the confirmation
//! compares the shared grouping by pointer before comparing it deeply, and
//! a hit hands out the shared evaluation rather than a copy.
//!
//! Colliding keys coexist in a small per-key bucket (they never replace
//! each other), and the memo clears wholesale once a capacity bound is hit,
//! keeping memory bounded under snapshot churn.

use crate::grouping::GroupingResult;
use crate::parallel::{lock_rank, RankedMutex};
use crate::planner::{CandidateEval, PlannerConfig};
use malleus_cluster::{ClusterSnapshot, Fnv1a};
use malleus_model::ProfiledCoefficients;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Upper bound on memoized candidate evaluations; the memo is cleared
/// wholesale when exceeded (bounded memory, same policy as the grouping
/// cache).
const MEMO_CAPACITY: usize = 8192;

/// Colliding evaluations tolerated under one key before the oldest is
/// dropped.
const MEMO_BUCKET: usize = 4;

/// One scored point of the candidate lattice (feasible or not).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatticeEntry {
    /// Maximum TP degree of the candidate's grouping.
    pub max_tp: u32,
    /// Data-parallel degree.
    pub dp: usize,
    /// Micro-batch size.
    pub micro_batch: u64,
    /// Whether the Eq. (4) MINLP division was used.
    pub nonuniform_division: bool,
    /// Estimated step time under the exact cost model; `None` when the
    /// candidate was infeasible.
    pub estimated_step_time: Option<f64>,
    /// Whether this evaluation was served from the candidate memo.
    pub reused: bool,
}

/// The scored candidate lattice of one planning invocation, attached to the
/// chosen plan as diagnostics: what was enumerated and what the memo served.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoredLattice {
    /// Every enumerated candidate, in lattice order.
    pub entries: Vec<LatticeEntry>,
    /// How many candidate evaluations were served from the memo.
    pub reused: usize,
    /// How many candidates were evaluated from scratch.
    pub evaluated: usize,
    /// Whether the memo was consulted: `true` on every attached lattice,
    /// since every plan consults it.  Kept because the replanbench harness
    /// reads it.
    pub delta: bool,
}

/// Borrowed view of the inputs every candidate of one grouping shares, with
/// their memo-key prefix hashed once.
///
/// The snapshot enters candidate evaluation only through each group's
/// straggling rate (`TpGroup::max_rate`) and the total GPU count (which fixes
/// the removed-GPU complement), so those are captured instead of the full
/// snapshot: a drifted GPU that is not the maximum of any group it belongs to
/// leaves its candidates' inputs — and therefore their evaluations —
/// bitwise unchanged.
pub(crate) struct GroupingInputs<'a> {
    coeffs: &'a ProfiledCoefficients,
    global_batch_size: u64,
    nonuniform_layers: bool,
    nonuniform_data: bool,
    num_gpus: usize,
    grouping: &'a Arc<GroupingResult>,
    group_rate_bits: Vec<u64>,
    /// FNV-1a state over every field above except the coefficients, which
    /// only the confirmation compares.
    key_prefix: Fnv1a,
}

impl<'a> GroupingInputs<'a> {
    /// Capture the shared inputs of `grouping`'s candidates under
    /// `snapshot`, and hash them.
    pub fn new(
        coeffs: &'a ProfiledCoefficients,
        config: &PlannerConfig,
        snapshot: &ClusterSnapshot,
        grouping: &'a Arc<GroupingResult>,
    ) -> Self {
        let group_rate_bits: Vec<u64> = grouping
            .groups
            .iter()
            .map(|group| group.max_rate(snapshot).to_bits())
            .collect();
        let num_gpus = snapshot.num_gpus();
        let mut h = Fnv1a::new();
        h.u64(config.global_batch_size);
        h.u64(num_gpus as u64);
        h.u64((config.nonuniform_layers as u64) | (config.nonuniform_data as u64) << 1);
        h.u64(grouping.max_tp as u64);
        h.u64(grouping.groups.len() as u64);
        for group in &grouping.groups {
            h.u64(group.gpus.len() as u64);
            for gpu in &group.gpus {
                h.u64(gpu.0 as u64);
            }
        }
        for &bits in &group_rate_bits {
            h.u64(bits);
        }
        Self {
            coeffs,
            global_batch_size: config.global_batch_size,
            nonuniform_layers: config.nonuniform_layers,
            nonuniform_data: config.nonuniform_data,
            num_gpus,
            grouping,
            group_rate_bits,
            key_prefix: h,
        }
    }

    /// The inputs of this grouping's candidate at one (DP, micro-batch,
    /// division-mode) point.
    pub fn candidate(
        &self,
        dp: usize,
        micro_batch: u64,
        nonuniform_division: bool,
    ) -> CandidateInputs<'_> {
        CandidateInputs {
            shared: self,
            dp,
            micro_batch,
            nonuniform_division,
        }
    }
}

/// Borrowed view of every input that determines one candidate evaluation:
/// its grouping's shared inputs plus the lattice point.
pub(crate) struct CandidateInputs<'a> {
    shared: &'a GroupingInputs<'a>,
    dp: usize,
    micro_batch: u64,
    nonuniform_division: bool,
}

impl CandidateInputs<'_> {
    /// The memo key: the grouping's key prefix extended with the DP degree,
    /// the micro-batch size and the division mode (collisions are resolved
    /// by the per-key bucket plus full-equality confirmation).
    pub fn key(&self) -> u64 {
        let mut h = self.shared.key_prefix.clone();
        h.u64(self.dp as u64)
            .u64(self.micro_batch)
            .u64(self.nonuniform_division as u64);
        h.finish()
    }
}

/// One memoized candidate evaluation: the owned copy of its inputs (for
/// full-equality confirmation) plus the shared evaluation.
#[derive(Debug)]
struct MemoizedEval {
    coeffs: ProfiledCoefficients,
    global_batch_size: u64,
    nonuniform_layers: bool,
    nonuniform_data: bool,
    num_gpus: usize,
    grouping: Arc<GroupingResult>,
    group_rate_bits: Vec<u64>,
    dp: usize,
    micro_batch: u64,
    nonuniform_division: bool,
    eval: Arc<CandidateEval>,
}

impl MemoizedEval {
    /// Full equality on every input.  The grouping is compared by pointer
    /// first: the planner's grouping cache hands a recurring snapshot the
    /// `Arc` this entry was stored with.
    fn matches(&self, inputs: &CandidateInputs<'_>) -> bool {
        let shared = inputs.shared;
        self.dp == inputs.dp
            && self.micro_batch == inputs.micro_batch
            && self.nonuniform_division == inputs.nonuniform_division
            && self.global_batch_size == shared.global_batch_size
            && self.nonuniform_layers == shared.nonuniform_layers
            && self.nonuniform_data == shared.nonuniform_data
            && self.num_gpus == shared.num_gpus
            && self.group_rate_bits == shared.group_rate_bits
            && (Arc::ptr_eq(&self.grouping, shared.grouping) || *self.grouping == **shared.grouping)
            && self.coeffs == *shared.coeffs
    }
}

/// The memo's buckets plus a running count of the evaluations they hold, so
/// that the capacity check and [`CandidateMemo::len`] are O(1).
#[derive(Debug, Default)]
struct MemoEntries {
    buckets: HashMap<u64, Vec<MemoizedEval>>,
    len: usize,
}

/// Bounded cross-invocation memo of candidate evaluations.  Cloning shares
/// the storage (the same sharing idiom as [`crate::GroupingCache`]), so
/// planners built for successive replanning rounds — or for different
/// tenants by the planning service — pool their candidate work.
///
/// Keys are the planner's prefix keys: the grouping's inputs hashed once
/// per plan, extended per candidate.  A hit is confirmed by full equality
/// on every input, comparing the grouping by pointer before comparing it
/// deeply, and hands out the stored evaluation without copying it.  A
/// running entry count keeps inserts and [`CandidateMemo::len`] O(1).
#[derive(Debug, Clone)]
pub struct CandidateMemo {
    entries: Arc<RankedMutex<MemoEntries>>,
}

impl Default for CandidateMemo {
    fn default() -> Self {
        Self {
            entries: Arc::new(RankedMutex::new(
                lock_rank::CANDIDATE_MEMO_ENTRIES,
                "CandidateMemo.entries",
                MemoEntries::default(),
            )),
        }
    }
}

impl CandidateMemo {
    /// Confirmed lookup: a key hit whose stored inputs differ is a miss
    /// (colliding entries coexist in the bucket, so a collision never evicts
    /// the survivor).
    pub(crate) fn lookup(
        &self,
        key: u64,
        inputs: &CandidateInputs<'_>,
    ) -> Option<Arc<CandidateEval>> {
        let entries = self.entries.lock();
        entries
            .buckets
            .get(&key)?
            .iter()
            .find(|e| e.matches(inputs))
            .map(|e| Arc::clone(&e.eval))
    }

    /// Memoize one evaluation (idempotent for racing inserts of the same
    /// inputs: the bucket keeps the first copy).
    pub(crate) fn insert(&self, key: u64, inputs: &CandidateInputs<'_>, eval: Arc<CandidateEval>) {
        let shared = inputs.shared;
        let memoized = MemoizedEval {
            coeffs: shared.coeffs.clone(),
            global_batch_size: shared.global_batch_size,
            nonuniform_layers: shared.nonuniform_layers,
            nonuniform_data: shared.nonuniform_data,
            num_gpus: shared.num_gpus,
            grouping: Arc::clone(shared.grouping),
            group_rate_bits: shared.group_rate_bits.clone(),
            dp: inputs.dp,
            micro_batch: inputs.micro_batch,
            nonuniform_division: inputs.nonuniform_division,
            eval,
        };
        let mut entries = self.entries.lock();
        let entries = &mut *entries;
        if entries.len >= MEMO_CAPACITY {
            entries.buckets.clear();
            entries.len = 0;
        }
        // Most keys only ever hold one evaluation; a default `Vec` would
        // reserve room for four on its first push.
        let bucket = entries
            .buckets
            .entry(key)
            .or_insert_with(|| Vec::with_capacity(1));
        if bucket.iter().any(|e| e.matches(inputs)) {
            return;
        }
        if bucket.len() >= MEMO_BUCKET {
            bucket.remove(0);
            entries.len -= 1;
        }
        bucket.push(memoized);
        entries.len += 1;
    }

    /// Number of memoized evaluations (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.entries.lock().len
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::group_cluster;
    use malleus_cluster::Cluster;
    use malleus_model::{HardwareParams, ModelSpec};

    impl CandidateMemo {
        /// The evaluations the buckets hold, counted afresh.
        fn recount(&self) -> usize {
            self.entries.lock().buckets.values().map(Vec::len).sum()
        }
    }

    #[test]
    fn running_count_tracks_every_insert_drop_and_clear() {
        let coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_7b(), HardwareParams::a800_cluster());
        let config = PlannerConfig::default();
        let snapshot = Cluster::homogeneous(1, 8).snapshot();
        let grouping = Arc::new(group_cluster(
            &snapshot,
            &coeffs,
            2,
            1,
            config.straggler_threshold,
            true,
        ));
        let shared = GroupingInputs::new(&coeffs, &config, &snapshot, &grouping);
        let eval = Arc::new(CandidateEval {
            outcome: None,
            failure: None,
        });
        let memo = CandidateMemo::default();
        let insert = |key: u64, micro_batch: u64| {
            memo.insert(
                key,
                &shared.candidate(1, micro_batch, true),
                Arc::clone(&eval),
            );
            assert_eq!(
                memo.len(),
                memo.recount(),
                "after inserting b={micro_batch} under {key}"
            );
        };

        // Six distinct inputs under one forced key: the bucket keeps the
        // newest `MEMO_BUCKET`, and each drop takes one off the count.
        for b in 1..=6 {
            insert(0, b);
        }
        assert_eq!(memo.len(), MEMO_BUCKET);
        let newest = shared.candidate(1, 6, true);
        assert!(memo.lookup(0, &newest).is_some());
        assert!(memo.lookup(0, &shared.candidate(1, 1, true)).is_none());

        // Re-inserting a resident input is idempotent.
        insert(0, 6);
        assert_eq!(memo.len(), MEMO_BUCKET);

        // Fill to capacity under distinct keys; the next insert clears first.
        let mut key = 1;
        while memo.len() < MEMO_CAPACITY {
            insert(key, 1);
            key += 1;
        }
        insert(key, 1);
        assert_eq!(memo.len(), 1);
        assert!(
            memo.lookup(0, &newest).is_none(),
            "the clear dropped every bucket"
        );
    }
}
