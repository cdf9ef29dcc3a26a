//! Warm-start delta replanning (ROADMAP: "Incremental (delta) replanning to
//! shrink the stall window").
//!
//! A full planning invocation enumerates the candidate lattice — every
//! (max-TP, DP, micro-batch, division-mode) tuple — and pays the Eq. (4)
//! division MINLP plus the ordering/layer ILPs for each point.  Most cluster
//! events do not invalidate most of that work: a straggler coefficient
//! drifting on one GPU leaves every candidate whose cost inputs are unchanged
//! bit-identical, and straggler levels in practice flap between a few
//! discrete interference states (§2 / Table 4), so previously evaluated
//! lattice points recur.
//!
//! Two pieces make the warm start sound:
//!
//! - [`ScoredLattice`]: the scored candidate lattice is persisted alongside
//!   the chosen plan (in [`crate::PlanOutcome::lattice`]) together with the
//!   snapshot it was planned against, so the replanner can classify the next
//!   event from the snapshot *diff* and fall back to full enumeration when
//!   the change is structural (node loss / node join / topology change).
//! - [`CandidateMemo`]: a bounded cross-invocation memo of candidate
//!   evaluations, keyed by a fingerprint of *exactly* the inputs that
//!   determine [`crate::Planner`]'s per-candidate evaluation (the grouping
//!   membership, every group's straggling-rate bits, the DP degree, the
//!   micro-batch size, the division mode, the global batch, the non-uniform
//!   knobs, the GPU count and the profiled coefficients) and confirmed by
//!   full equality on a hit — the same discipline as
//!   [`crate::GroupingCache`].  A confirmed hit returns the bitwise-identical
//!   evaluation a fresh computation would produce, so delta replans are
//!   byte-identical to from-scratch plans *by construction*; the
//!   `Parallelism::Fixed(1)` full-enumeration path remains the equivalence
//!   oracle.
//!
//! Colliding fingerprints coexist in a small per-key bucket (they never
//! replace each other), and the memo clears wholesale once a capacity bound
//! is hit, keeping memory bounded under snapshot churn.

use crate::grouping::GroupingResult;
use crate::parallel::{lock_rank, RankedMutex};
use crate::planner::PlanOutcome;
use malleus_cluster::{ClusterSnapshot, Fnv1a};
use malleus_model::ProfiledCoefficients;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Upper bound on memoized candidate evaluations; the memo is cleared
/// wholesale when exceeded (bounded memory, same policy as the grouping
/// cache).
const MEMO_CAPACITY: usize = 8192;

/// Colliding evaluations tolerated under one fingerprint before the oldest is
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

/// The scored candidate lattice of one planning invocation, persisted
/// alongside the chosen plan so the next replan can warm-start.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoredLattice {
    /// The snapshot this lattice was scored against: the basis for
    /// classifying the next event from the snapshot diff.
    pub snapshot: ClusterSnapshot,
    /// The DP pin in effect (replans keep the previous DP degree).
    pub forced_dp: Option<usize>,
    /// Every enumerated candidate, in lattice order.
    pub entries: Vec<LatticeEntry>,
    /// How many candidate evaluations were served from the memo.
    pub reused: usize,
    /// How many candidates were evaluated from scratch.
    pub evaluated: usize,
    /// Whether the memo was consulted at all (`false` on full-enumeration
    /// invocations, which only *populate* the memo).
    pub delta: bool,
}

impl ScoredLattice {
    /// Whether `snapshot` differs structurally from the lattice's planning
    /// basis: a topology change or any availability flip
    /// (finite ↔ infinite rate).  Structural diffs route to full
    /// enumeration; drift-only diffs may warm-start.
    pub fn structural_change(&self, snapshot: &ClusterSnapshot) -> bool {
        !self.snapshot.same_structure(snapshot)
    }
}

/// Borrowed view of every input that determines one candidate evaluation.
///
/// The snapshot enters candidate evaluation only through each group's
/// straggling rate (`TpGroup::max_rate`) and the total GPU count (which fixes
/// the removed-GPU complement), so those are captured instead of the full
/// snapshot: a drifted GPU that is not the maximum of any group it belongs to
/// leaves its candidates' inputs — and therefore their evaluations —
/// bitwise unchanged.
pub(crate) struct CandidateInputs<'a> {
    pub coeffs: &'a ProfiledCoefficients,
    pub global_batch_size: u64,
    pub nonuniform_layers: bool,
    pub nonuniform_data: bool,
    pub num_gpus: usize,
    pub grouping: &'a GroupingResult,
    pub group_rate_bits: &'a [u64],
    pub dp: usize,
    pub micro_batch: u64,
    pub nonuniform_division: bool,
}

impl CandidateInputs<'_> {
    /// FNV-1a fingerprint of the inputs (collisions are resolved by the
    /// per-key bucket plus full-equality confirmation).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(self.global_batch_size);
        h.u64(self.num_gpus as u64);
        h.u64(self.dp as u64);
        h.u64(self.micro_batch);
        h.u64(
            (self.nonuniform_division as u64)
                | (self.nonuniform_layers as u64) << 1
                | (self.nonuniform_data as u64) << 2,
        );
        h.u64(self.grouping.max_tp as u64);
        h.u64(self.grouping.groups.len() as u64);
        for group in &self.grouping.groups {
            h.u64(group.gpus.len() as u64);
            for gpu in &group.gpus {
                h.u64(gpu.0 as u64);
            }
        }
        for &bits in self.group_rate_bits {
            h.u64(bits);
        }
        h.finish()
    }
}

/// One memoized candidate evaluation: the owned copy of its inputs (for
/// full-equality confirmation) plus the evaluation result.
#[derive(Debug)]
pub(crate) struct MemoizedEval {
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
    /// The feasible outcome (timing zeroed, no lattice), if any.
    pub outcome: Option<PlanOutcome>,
    /// The failure reason, if the candidate was infeasible.
    pub failure: Option<String>,
}

impl MemoizedEval {
    fn matches(&self, inputs: &CandidateInputs<'_>) -> bool {
        self.global_batch_size == inputs.global_batch_size
            && self.nonuniform_layers == inputs.nonuniform_layers
            && self.nonuniform_data == inputs.nonuniform_data
            && self.num_gpus == inputs.num_gpus
            && self.dp == inputs.dp
            && self.micro_batch == inputs.micro_batch
            && self.nonuniform_division == inputs.nonuniform_division
            && self.group_rate_bits == inputs.group_rate_bits
            && *self.grouping == *inputs.grouping
            && self.coeffs == *inputs.coeffs
    }
}

/// Bounded cross-invocation memo of candidate evaluations.  Cloning shares
/// the storage (the same sharing idiom as [`crate::GroupingCache`]), so
/// planners built for successive replanning rounds — or for different
/// tenants by the planning service — pool their candidate work.
#[derive(Debug, Clone)]
pub struct CandidateMemo {
    entries: Arc<RankedMutex<HashMap<u64, Vec<Arc<MemoizedEval>>>>>,
}

impl Default for CandidateMemo {
    fn default() -> Self {
        Self {
            entries: Arc::new(RankedMutex::new(
                lock_rank::CANDIDATE_MEMO_ENTRIES,
                "CandidateMemo.entries",
                HashMap::new(),
            )),
        }
    }
}

impl CandidateMemo {
    /// Confirmed lookup: a fingerprint hit whose stored inputs differ is a
    /// miss (colliding entries coexist in the bucket, so a collision never
    /// evicts the survivor).
    pub(crate) fn lookup(
        &self,
        key: u64,
        inputs: &CandidateInputs<'_>,
    ) -> Option<Arc<MemoizedEval>> {
        let entries = self.entries.lock();
        entries
            .get(&key)?
            .iter()
            .find(|e| e.matches(inputs))
            .map(Arc::clone)
    }

    /// Memoize one evaluation (idempotent for racing inserts of the same
    /// inputs: the bucket keeps the first copy).
    pub(crate) fn insert(
        &self,
        key: u64,
        inputs: &CandidateInputs<'_>,
        grouping: Arc<GroupingResult>,
        outcome: Option<PlanOutcome>,
        failure: Option<String>,
    ) {
        let eval = MemoizedEval {
            coeffs: inputs.coeffs.clone(),
            global_batch_size: inputs.global_batch_size,
            nonuniform_layers: inputs.nonuniform_layers,
            nonuniform_data: inputs.nonuniform_data,
            num_gpus: inputs.num_gpus,
            grouping,
            group_rate_bits: inputs.group_rate_bits.to_vec(),
            dp: inputs.dp,
            micro_batch: inputs.micro_batch,
            nonuniform_division: inputs.nonuniform_division,
            outcome,
            failure,
        };
        let mut entries = self.entries.lock();
        if entries.values().map(Vec::len).sum::<usize>() >= MEMO_CAPACITY {
            entries.clear();
        }
        let bucket = entries.entry(key).or_default();
        if bucket.iter().any(|e| e.matches(inputs)) {
            return;
        }
        if bucket.len() >= MEMO_BUCKET {
            bucket.remove(0);
        }
        bucket.push(Arc::new(eval));
    }

    /// Number of memoized evaluations (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.entries.lock().values().map(Vec::len).sum()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
