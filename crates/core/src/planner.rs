//! The end-to-end parallelization planner (§4.3.3).
//!
//! For every candidate maximum TP degree in {1, 2, 4, 8} the planner produces a
//! grouping result, orchestrates pipelines for each candidate DP degree, and
//! solves the lower-level work assignment for each candidate micro-batch size.
//! The best plan under the cost model wins.  A per-phase timing breakdown is
//! recorded so the planning-scalability experiment (Appendix A.2, Table 5) can
//! be reproduced.
//!
//! A plan runs on its caller's thread.  The planner walks the candidate
//! lattice — every (max-TP, DP, micro-batch, division-mode) tuple — in a
//! fixed order and folds each candidate as soon as it is scored: a candidate
//! replaces the incumbent only if its estimated step time is smaller by more
//! than `1e-12` seconds, so ties resolve to the earliest candidate.
//! Concurrency lives across requests, in `malleus-service`, not inside a
//! plan.

use crate::assignment::assign_data;
use crate::backend::DEFAULT_STRAGGLER_THRESHOLD;
use crate::cost::CostModel;
use crate::delta::{CandidateMemo, GroupingInputs, LatticeEntry, ScoredLattice};
use crate::error::PlanError;
use crate::grouping::GroupingResult;
use crate::orchestration::{divide_groups, order_and_assign_layers};
use crate::parallel::{GroupingCache, Parallelism};
use crate::plan::{ParallelizationPlan, PipelinePlan};
use crate::precheck::Precheck;
use malleus_cluster::{ClusterSnapshot, GpuId};
use malleus_model::ProfiledCoefficients;
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Planner configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Global batch size `B` (sequences per step).
    pub global_batch_size: u64,
    /// Candidate maximum tensor-parallel degrees (the paper enumerates
    /// {1, 2, 4, 8}).
    pub candidate_tp_degrees: Vec<u32>,
    /// Candidate micro-batch sizes `b`; only divisors of `B` are used.
    pub candidate_micro_batch_sizes: Vec<u64>,
    /// Candidate data-parallel degrees.  `None` derives powers of two up to the
    /// number of groups.
    pub candidate_dp: Option<Vec<usize>>,
    /// Fix the DP degree (used during re-planning: the paper maintains the DP
    /// degree across plan adjustments, footnote 2).
    pub fixed_dp: Option<usize>,
    /// Rate above which a GPU counts as a straggler for group splitting.
    pub straggler_threshold: f64,
    /// Enable heavy-straggler group splitting (non-uniform device partitioning).
    pub enable_group_splitting: bool,
    /// Enable non-uniform layer partitioning (Eq. (2)); disabled = even split.
    pub nonuniform_layers: bool,
    /// Enable non-uniform data partitioning (Eq. (3)); disabled = even split.
    pub nonuniform_data: bool,
    /// Enable non-uniform stage partitioning (Eq. (4) pipeline division);
    /// disabled = equal group counts per pipeline.
    pub nonuniform_stages: bool,
    /// Ignored: every plan runs on its caller's thread.  The field stays,
    /// with its wire encoding, only because the replan benchmark still sets
    /// it; ROADMAP "One planner thread", step 2, deletes it (see
    /// [`Parallelism`]).
    pub parallelism: Parallelism,
    /// Ignored: every plan consults the candidate memo (see
    /// [`crate::delta`]), and a fresh planner is the full-enumeration
    /// oracle.  The field stays, with its wire encoding, only because the
    /// replan benchmark's oracle still sets it; ROADMAP "Collapse" deletes
    /// it together with [`PlannerConfig::parallelism`].
    pub incremental: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            global_batch_size: 64,
            candidate_tp_degrees: vec![1, 2, 4, 8],
            candidate_micro_batch_sizes: vec![1, 2, 4],
            candidate_dp: None,
            fixed_dp: None,
            straggler_threshold: DEFAULT_STRAGGLER_THRESHOLD,
            enable_group_splitting: true,
            nonuniform_layers: true,
            nonuniform_data: true,
            nonuniform_stages: true,
            parallelism: Parallelism::Auto,
            incremental: true,
        }
    }
}

impl PlannerConfig {
    /// Configuration for the Figure 9 ablation: selectively disable the
    /// non-uniform partitioning dimensions.
    pub fn ablation(layers: bool, data: bool, device: bool, stages: bool) -> Self {
        Self {
            nonuniform_layers: layers,
            nonuniform_data: data,
            enable_group_splitting: device,
            nonuniform_stages: stages,
            ..Self::default()
        }
    }
}

/// Per-phase breakdown of one planning invocation (Appendix A.2, Table 5).
///
/// Each duration is the wall-clock time the plan spent in that phase,
/// summed over the TP degrees (grouping) or the candidates it evaluated (the
/// other three; a candidate served from the memo adds nothing).  The phases
/// run one after another on the caller's thread, so [`PlanTiming::total`] is
/// at most the elapsed time around the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PlanTiming {
    /// GPU grouping (Theorem 1 + splitting enumeration).
    pub grouping: Duration,
    /// Pipeline division (the Eq. (4) MINLP), including the memory pre-check
    /// ([`Planner::memory_infeasible`]), which runs once per (grouping, DP,
    /// micro-batch) at the first evaluated candidate of the two division
    /// modes, and counts there.
    pub division: Duration,
    /// Group ordering (Theorem 3 + bundle permutations, each evaluated through
    /// the layer ILP).
    pub ordering: Duration,
    /// Final work assignment (layer + data ILPs for the winning candidate).
    pub assignment: Duration,
}

impl PlanTiming {
    /// Total planning time.
    pub fn total(&self) -> Duration {
        self.grouping + self.division + self.ordering + self.assignment
    }
}

/// The result of a planning invocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanOutcome {
    /// The selected parallelization plan.
    pub plan: ParallelizationPlan,
    /// Estimated step time under the exact 1F1B cost model (seconds).
    pub estimated_step_time: f64,
    /// Estimated step time under the simplified cost model used by the ILPs
    /// (this is what `R_est` in Table 3 reports).
    pub estimated_step_time_simplified: f64,
    /// The maximum TP degree of the winning grouping result.
    pub chosen_tp: u32,
    /// The data-parallel degree of the plan.
    pub dp: usize,
    /// Per-phase planning time.
    pub timing: PlanTiming,
    /// The scored candidate lattice this outcome was selected from, with its
    /// memo reuse counts: diagnostics only, no later plan reads it.  Every
    /// [`Planner`] plan attaches one.
    pub lattice: Option<Arc<ScoredLattice>>,
}

impl PartialEq for PlanOutcome {
    /// Equality over the planning *result*.  The per-phase timing is wall
    /// clock, and the attached lattice is diagnostics (its reuse statistics
    /// depend on memo history, not on what was planned), so both are
    /// excluded: two independently computed identical plans compare equal.
    /// Compare the wire encodings where those must match too.
    fn eq(&self, other: &Self) -> bool {
        // Bitwise float comparison: outcome equality backs the byte-identity
        // oracle checks, where `==` would declare +0.0 == -0.0 equal and NaN
        // unequal to itself — both wrong for "same bytes".  `clippy::float_cmp`
        // skips `eq` bodies, so `outcome_equality_is_bitwise_over_step_times`
        // guards this one.
        self.plan == other.plan
            && self.estimated_step_time.to_bits() == other.estimated_step_time.to_bits()
            && self.estimated_step_time_simplified.to_bits()
                == other.estimated_step_time_simplified.to_bits()
            && self.chosen_tp == other.chosen_tp
            && self.dp == other.dp
    }
}

/// One point of the candidate lattice: a (grouping, DP, micro-batch,
/// division-mode) tuple evaluated independently of every other point.
#[derive(Debug, Clone, Copy)]
struct Candidate<'a> {
    /// Grouping result for this candidate's maximum TP degree (shared by
    /// every candidate of that degree).
    grouping: &'a GroupingResult,
    /// Data-parallel degree.
    dp: usize,
    /// Micro-batch size.
    micro_batch: u64,
    /// Whether the Eq. (4) MINLP division is used (vs equal group counts).
    nonuniform_division: bool,
    /// The memory pre-check's answer for this (grouping, DP, micro-batch),
    /// shared by both division modes and computed at the first of them the
    /// memo misses.
    proof: &'a OnceCell<bool>,
}

impl Candidate<'_> {
    /// The reason the candidate fails when some pipeline cannot take the
    /// model's layers.
    fn layer_failure(&self) -> String {
        format!(
            "layer assignment infeasible for tp={} dp={} b={}",
            self.grouping.max_tp, self.dp, self.micro_batch
        )
    }
}

/// Result of evaluating one candidate: a feasible outcome (timing zeroed, no
/// lattice) or a failure reason.
#[derive(Debug)]
pub(crate) struct CandidateEval {
    pub outcome: Option<PlanOutcome>,
    pub failure: Option<String>,
}

/// The Malleus parallelization planner.
#[derive(Debug, Clone)]
pub struct Planner {
    /// Cost model (profiled coefficients).
    pub cost: CostModel,
    /// Configuration.
    pub config: PlannerConfig,
    /// Memoized grouping results, shared across re-planning rounds on
    /// unchanged snapshots and with every planner holding a clone.
    grouping_memo: GroupingCache,
    /// Memoized candidate evaluations (see [`crate::delta`]), consulted and
    /// filled by every plan, and shared by clones of this planner.
    candidate_memo: CandidateMemo,
}

impl Planner {
    /// Create a planner from profiled coefficients and a configuration.
    pub fn new(coeffs: ProfiledCoefficients, config: PlannerConfig) -> Self {
        Self {
            cost: CostModel::new(coeffs),
            config,
            grouping_memo: GroupingCache::default(),
            candidate_memo: CandidateMemo::default(),
        }
    }

    /// Builder-style override of [`PlannerConfig::parallelism`], which the
    /// planner ignores.  It stays only because the replan benchmark still
    /// calls it; ROADMAP "One planner thread", step 2, deletes it.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.config.parallelism = parallelism;
        self
    }

    /// Builder-style injection of a shared grouping memo.  Cloning a
    /// [`GroupingCache`] shares its storage, so planners built for different
    /// tenants (e.g. by the planning service) can pool their grouping work;
    /// the memo confirms hits against the full snapshot *and* coefficients,
    /// so sharing across models degrades to recomputation, never wrong
    /// results.
    pub fn with_grouping_cache(mut self, cache: GroupingCache) -> Self {
        self.grouping_memo = cache;
        self
    }

    /// The shared grouping memo (diagnostics / tests).
    pub fn grouping_cache(&self) -> &GroupingCache {
        &self.grouping_memo
    }

    /// The shared candidate-evaluation memo (diagnostics / tests).
    pub fn candidate_memo(&self) -> &CandidateMemo {
        &self.candidate_memo
    }

    /// Deduce the best parallelization plan for the observed straggler
    /// situation.
    pub fn plan(&self, snapshot: &ClusterSnapshot) -> Result<PlanOutcome, PlanError> {
        self.plan_with_dp(snapshot, self.config.fixed_dp)
    }

    /// Re-planning entry point: keep the DP degree of the previous plan (the
    /// memory footprint of ZeRO-1 sharding depends on DP, so the paper keeps it
    /// fixed across adjustments).  If no feasible plan exists with that DP
    /// degree — e.g. a severe straggler situation shrinks the usable groups —
    /// fall back to an unconstrained search (footnote 2 of the paper notes that
    /// enumerating other DP degrees is equally possible).
    pub fn replan(
        &self,
        snapshot: &ClusterSnapshot,
        previous: &ParallelizationPlan,
    ) -> Result<PlanOutcome, PlanError> {
        match self.plan_with_dp(snapshot, Some(previous.dp())) {
            Ok(outcome) => Ok(outcome),
            Err(_) => self.plan_with_dp(snapshot, self.config.fixed_dp),
        }
    }

    fn dp_candidates(
        &self,
        forced_dp: Option<usize>,
        num_groups: usize,
        healthy_gpus: usize,
    ) -> Vec<usize> {
        if let Some(dp) = forced_dp {
            return vec![dp];
        }
        if let Some(c) = &self.config.candidate_dp {
            return c.clone();
        }
        self.derived_dp_candidates(num_groups, healthy_gpus)
    }

    /// Derive the default candidate DP degrees: powers of two bounded by the
    /// snapshot's *healthy* group count (and by the global batch), excluding
    /// degrees that are certainly memory-infeasible on the surviving GPUs.
    ///
    /// Every DP replica must hold the full model states — at least
    /// `total_params · (param_and_grad_bytes + optimizer_bytes / dp)` bytes
    /// under ZeRO-1 sharding — and the `dp` replicas together can use at most
    /// `healthy_gpus · per_gpu_capacity` bytes.  A degree violating that bound
    /// cannot produce any plan passing [`CostModel::memory_feasible`], so a
    /// degraded cluster (failed GPUs or nodes) no longer wastes planning time
    /// enumerating DP degrees its healthy remainder can never host.  The
    /// second memory bound, [`Planner::memory_infeasible`], drops single
    /// candidates whose pipelines cannot hold the model's layers.
    pub fn derived_dp_candidates(&self, num_groups: usize, healthy_gpus: usize) -> Vec<usize> {
        let memory = &self.cost.coeffs.memory;
        let total_params = self.cost.coeffs.spec.total_params() as f64;
        let available = healthy_gpus as f64 * self.cost.coeffs.per_gpu_capacity();
        let mut dps = Vec::new();
        let mut dp = 1usize;
        while dp <= num_groups && (dp as u64) <= self.config.global_batch_size {
            let needed = total_params
                * (memory.param_and_grad_bytes_per_param * dp as f64
                    + memory.optimizer_bytes_per_param);
            if needed > available {
                // The bound grows with dp, so every larger degree is also
                // infeasible.
                break;
            }
            dps.push(dp);
            dp *= 2;
        }
        dps
    }

    /// Whether no division of `grouping` into `dp` pipelines can pass layer
    /// assignment at micro-batch size `micro_batch_size`: a proof, read
    /// before the Eq. (4) division runs, from the Appendix B.4 memory caps
    /// alone.
    ///
    /// A pipeline passes layer assignment only if it ends with some `p` of
    /// its groups as stages that hold all `L` layers within their caps
    /// (`min(L, max_layers)`, or 0 where even an empty stage overflows;
    /// [`CostModel::max_layers`]).  Dropping zero-layer stages only shortens
    /// a pipeline, and the `dp` pipelines share no group.  One bound rests on
    /// that, tried at each TP degree `t` of the grouping in ascending order:
    /// the `n_h` groups of degree `≥ t` are high and the `n_l` others low,
    /// and each stage is capped by the best degree of its class.  A pipeline
    /// holding `k` high groups needs `need(k)` low groups: the fewest `p − m`
    /// over depths `p` and `m ≤ k` high positions for which the low caps at
    /// every position plus the `m` largest high-minus-low gains reach `L`.
    /// The candidate fails when no split `k_1 + … + k_dp ≤ n_h` has
    /// `Σ need(k_i) ≤ n_l`.  A threshold is skipped when `⌊n_h / dp⌋` high
    /// groups alone hold `L`.  At the smallest degree every group is high and
    /// none is low, so there the bound is a direct sum: the candidate fails
    /// when no `p ≤ ⌊groups / dp⌋` stages, each capped by the grouping's best
    /// degree, hold `L`, since the smallest pipeline has at most that many
    /// groups.
    ///
    /// A proven candidate fails with the reason the full path gives.  All
    /// thresholds read one table of caps per degree, built one depth at a
    /// time in a per-thread scratch: an interior stage's cap depends on
    /// `(j, p)` only through its in-flight count `p − 1 − j`, and the last
    /// stage's is the same for every `p ≥ 2`, so each depth costs one
    /// `max_layers` call per degree for its first stage and one for its new
    /// interior stage.  Caps never grow with the in-flight count, so the
    /// table stops at the first interior stage that holds nothing at any
    /// degree.  The planner asks once per (grouping, DP, micro-batch), at
    /// the first evaluated candidate of the two division modes, and both
    /// read the answer.
    ///
    /// Returns `false`, leaving the candidate to the full path, when `dp` is
    /// 0 or exceeds the group count (division rejects those first, with its
    /// own reason), or when the grouping has more than eight distinct TP
    /// degrees.
    pub fn memory_infeasible(
        &self,
        grouping: &GroupingResult,
        dp: usize,
        micro_batch_size: u64,
    ) -> bool {
        if dp == 0 || grouping.groups.len() < dp {
            return false;
        }
        let layers = self.cost.coeffs.spec.num_layers as u64;
        Precheck::with(|check| {
            check.load(grouping, dp, micro_batch_size, layers) && check.proves(&self.cost)
        })
    }

    /// Score one candidate: serve it from the memo when the memo holds its
    /// confirmed inputs, else evaluate and memoize it.  The flag says
    /// whether the memo served it.  Debug builds evaluate every hit afresh
    /// as well, with a proof cell of its own so that the plan's timing and
    /// the other division mode's pre-check are untouched, and assert the
    /// same outcome, bitwise, and the same failure.
    fn score_candidate(
        &self,
        snapshot: &ClusterSnapshot,
        cand: &Candidate<'_>,
        shared: &GroupingInputs<'_>,
        timing: &mut PlanTiming,
    ) -> (Arc<CandidateEval>, bool) {
        let inputs = shared.candidate(cand.dp, cand.micro_batch, cand.nonuniform_division);
        let key = inputs.key();
        if let Some(hit) = self.candidate_memo.lookup(key, &inputs) {
            #[cfg(debug_assertions)]
            {
                let proof = OnceCell::new();
                let fresh = Candidate {
                    proof: &proof,
                    ..*cand
                };
                let fresh = self.evaluate_candidate(snapshot, &fresh, &mut PlanTiming::default());
                assert!(
                    fresh.outcome == hit.outcome && fresh.failure == hit.failure,
                    "a candidate-memo hit must match a fresh evaluation at tp={} dp={} b={} \
                     (MINLP division: {}): memo {:?} / {:?}, fresh {:?} / {:?}",
                    cand.grouping.max_tp,
                    cand.dp,
                    cand.micro_batch,
                    cand.nonuniform_division,
                    hit.outcome.as_ref().map(|o| o.estimated_step_time),
                    hit.failure,
                    fresh.outcome.as_ref().map(|o| o.estimated_step_time),
                    fresh.failure,
                );
            }
            return (hit, true);
        }
        let eval = Arc::new(self.evaluate_candidate(snapshot, cand, timing));
        self.candidate_memo.insert(key, &inputs, Arc::clone(&eval));
        (eval, false)
    }

    /// Evaluate one lattice point.  A candidate that
    /// [`Planner::memory_infeasible`] proves cannot pass layer assignment
    /// fails at once with layer assignment's reason; every other goes
    /// through `evaluate_in_full`.  The proof is shared with the
    /// candidate's other division mode (`Candidate::proof`), and its time
    /// counts as division where it is computed.  Debug builds evaluate every
    /// proven candidate in full as well and assert that it fails with the
    /// same reason.
    fn evaluate_candidate(
        &self,
        snapshot: &ClusterSnapshot,
        cand: &Candidate<'_>,
        timing: &mut PlanTiming,
    ) -> CandidateEval {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock timing is observability-only; it feeds PlanTiming, never plan selection"
        )]
        let t0 = Instant::now();
        let proven = *cand
            .proof
            .get_or_init(|| self.memory_infeasible(cand.grouping, cand.dp, cand.micro_batch));
        if !proven {
            return self.evaluate_in_full(snapshot, cand, timing, t0);
        }
        timing.division += t0.elapsed();
        let eval = CandidateEval {
            outcome: None,
            failure: Some(cand.layer_failure()),
        };
        #[cfg(debug_assertions)]
        {
            let full = self.evaluate_in_full(snapshot, cand, &mut PlanTiming::default(), t0);
            assert!(
                full.outcome.is_none() && full.failure == eval.failure,
                "a proven memory-infeasible candidate must fail in full with {:?}, \
                 got {:?} (feasible: {})",
                eval.failure,
                full.failure,
                full.outcome.is_some()
            );
        }
        eval
    }

    /// Evaluate one lattice point in full: pipeline division, group ordering
    /// / layer assignment, data assignment, validation, and cost estimation,
    /// adding the time of each phase to `timing`.  The division phase is
    /// timed from `division_start`, when the pre-check began.
    fn evaluate_in_full(
        &self,
        snapshot: &ClusterSnapshot,
        cand: &Candidate<'_>,
        timing: &mut PlanTiming,
        division_start: Instant,
    ) -> CandidateEval {
        let num_layers = self.cost.coeffs.spec.num_layers as u64;
        let (max_tp, dp, b) = (cand.grouping.max_tp, cand.dp, cand.micro_batch);
        let total_micro_batches = self.config.global_batch_size / b;
        let failed = |failure: Option<String>| CandidateEval {
            outcome: None,
            failure,
        };

        let division = divide_groups(
            &self.cost,
            cand.grouping,
            snapshot,
            dp,
            total_micro_batches,
            b,
            cand.nonuniform_division,
        );
        timing.division += division_start.elapsed();
        let division = match division {
            Ok(d) => d,
            Err(e) => return failed(Some(e.to_string())),
        };

        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock timing is observability-only; it feeds PlanTiming, never plan selection"
        )]
        let t0 = Instant::now();
        let assignments: Option<Vec<_>> = division
            .pipelines
            .iter()
            .map(|pipeline_groups| {
                order_and_assign_layers(
                    &self.cost,
                    pipeline_groups,
                    snapshot,
                    num_layers,
                    b,
                    dp as u32,
                    !self.config.nonuniform_layers,
                )
            })
            .collect();
        timing.ordering += t0.elapsed();
        let Some(assignments) = assignments else {
            return failed(Some(cand.layer_failure()));
        };

        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock timing is observability-only; it feeds PlanTiming, never plan selection"
        )]
        let t0 = Instant::now();
        let objectives: Vec<f64> = assignments.iter().map(|a| a.objective).collect();
        let micro_batches = assign_data(
            &objectives,
            total_micro_batches,
            !self.config.nonuniform_data,
        );
        timing.assignment += t0.elapsed();
        let Some(micro_batches) = micro_batches else {
            return failed(None);
        };
        // A pipeline with zero micro-batches would idle an entire replica;
        // reject such degenerate splits.
        if micro_batches.contains(&0) {
            return failed(Some(format!(
                "data assignment starved a pipeline for tp={max_tp} dp={dp} b={b}"
            )));
        }

        let pipelines: Vec<PipelinePlan> = assignments
            .into_iter()
            .zip(micro_batches.iter())
            .map(|(a, &m)| PipelinePlan {
                stages: a.stages,
                num_micro_batches: m,
            })
            .collect();

        let mut active = vec![false; snapshot.num_gpus()];
        for stage in pipelines.iter().flat_map(|p| &p.stages) {
            for g in &stage.group.gpus {
                if let Some(seen) = active.get_mut(g.index()) {
                    *seen = true;
                }
            }
        }
        let removed: Vec<GpuId> = (0..snapshot.num_gpus() as u32)
            .map(GpuId)
            .filter(|g| !active[g.index()])
            .collect();
        let plan = ParallelizationPlan {
            pipelines,
            micro_batch_size: b,
            removed_gpus: removed,
        };
        if plan
            .validate(num_layers as u32, self.config.global_batch_size)
            .is_err()
            || !self.cost.memory_feasible(&plan)
        {
            return failed(Some(format!(
                "candidate plan failed validation for tp={max_tp} dp={dp} b={b}"
            )));
        }

        let exact = self.cost.step_time(&plan, snapshot);
        let simplified = self.cost.step_time_simplified(&plan, snapshot);
        CandidateEval {
            outcome: Some(PlanOutcome {
                plan,
                estimated_step_time: exact,
                estimated_step_time_simplified: simplified,
                chosen_tp: max_tp,
                dp,
                timing: PlanTiming::default(),
                lattice: None,
            }),
            failure: None,
        }
    }

    fn plan_with_dp(
        &self,
        snapshot: &ClusterSnapshot,
        forced_dp: Option<usize>,
    ) -> Result<PlanOutcome, PlanError> {
        let usable = snapshot.rates.iter().filter(|r| r.is_finite()).count();
        if usable == 0 {
            return Err(PlanError::NoUsableGpus);
        }
        let b_candidates: Vec<u64> = self
            .config
            .candidate_micro_batch_sizes
            .iter()
            .copied()
            .filter(|&b| b > 0 && self.config.global_batch_size.is_multiple_of(b))
            .collect();
        if b_candidates.is_empty() {
            return Err(PlanError::NoFeasiblePlan {
                reason: "no candidate micro-batch size divides the global batch".into(),
            });
        }

        // When non-uniform stages are enabled the MINLP division is tried *in
        // addition to* the uniform equal-count division, so enabling the
        // extra freedom can never hurt.
        let division_modes: &[bool] = if self.config.nonuniform_stages {
            &[true, false]
        } else {
            &[false]
        };
        let fingerprint = snapshot.fingerprint();
        let mut timing = PlanTiming::default();
        let mut best: Option<Arc<CandidateEval>> = None;
        let mut last_failure: Option<Arc<CandidateEval>> = None;
        let mut entries = Vec::new();

        // The lattice in its reference order: TP degrees in config order,
        // then DP degrees, micro-batch sizes and division modes.  Each
        // candidate is folded as soon as it is scored: it replaces the
        // incumbent only if it is faster by more than 1e-12 s, so ties
        // resolve to the earliest candidate.
        for &max_tp in &self.config.candidate_tp_degrees {
            // Grouping is memoized per (snapshot, TP degree); the snapshot is
            // hashed once for every degree.
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-clock timing is observability-only; it feeds PlanTiming, never plan selection"
            )]
            let t0 = Instant::now();
            let grouping = self.grouping_memo.get_or_compute(
                snapshot,
                fingerprint,
                &self.cost.coeffs,
                max_tp,
                self.config.straggler_threshold,
                self.config.enable_group_splitting,
            );
            timing.grouping += t0.elapsed();
            let num_groups = grouping.groups.len();
            if num_groups == 0 {
                continue;
            }
            // Per-grouping memo inputs: together with the group membership,
            // each group's straggling-rate bits are the only way the snapshot
            // enters a candidate evaluation.  Their key prefix is hashed here,
            // once per grouping, and every candidate of the grouping extends
            // it.  A candidate whose confirmed inputs are unchanged since an
            // earlier plan is served from the memo — the shared evaluation,
            // bitwise what a fresh one would produce — and every fresh
            // evaluation moves into the memo.
            let shared = GroupingInputs::new(&self.cost.coeffs, &self.config, snapshot, &grouping);
            for dp in self.dp_candidates(forced_dp, num_groups, usable) {
                if dp == 0 || dp > num_groups {
                    continue;
                }
                for &micro_batch in &b_candidates {
                    if self.config.global_batch_size / micro_batch < dp as u64 {
                        continue;
                    }
                    let proof = OnceCell::new();
                    for &nonuniform_division in division_modes {
                        let cand = Candidate {
                            grouping: &grouping,
                            dp,
                            micro_batch,
                            nonuniform_division,
                            proof: &proof,
                        };
                        let (eval, reused) =
                            self.score_candidate(snapshot, &cand, &shared, &mut timing);
                        entries.push(LatticeEntry {
                            max_tp,
                            dp,
                            micro_batch,
                            nonuniform_division,
                            estimated_step_time: eval
                                .outcome
                                .as_ref()
                                .map(|o| o.estimated_step_time),
                            reused,
                        });
                        if eval.failure.is_some() {
                            last_failure = Some(Arc::clone(&eval));
                        }
                        if let Some(outcome) = &eval.outcome {
                            let incumbent = best.as_ref().and_then(|b| b.outcome.as_ref());
                            if incumbent.is_none_or(|o| {
                                outcome.estimated_step_time < o.estimated_step_time - 1e-12
                            }) {
                                best = Some(Arc::clone(&eval));
                            }
                        }
                    }
                }
            }
        }

        let Some(mut outcome) = best.and_then(|eval| eval.outcome.clone()) else {
            return Err(PlanError::NoFeasiblePlan {
                reason: last_failure
                    .and_then(|eval| eval.failure.clone())
                    .unwrap_or_else(|| "no candidate configuration was feasible".into()),
            });
        };
        outcome.timing = timing;
        let reused = entries.iter().filter(|e| e.reused).count();
        outcome.lattice = Some(Arc::new(ScoredLattice {
            evaluated: entries.len() - reused,
            entries,
            reused,
            delta: true,
        }));
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::TpGroup;
    use malleus_cluster::{Cluster, PaperSituation};
    use malleus_model::{HardwareParams, ModelSpec};
    use std::collections::HashMap;

    fn planner(spec: ModelSpec, batch: u64) -> Planner {
        let coeffs = ProfiledCoefficients::derive(spec, HardwareParams::a800_cluster());
        Planner::new(
            coeffs,
            PlannerConfig {
                global_batch_size: batch,
                ..PlannerConfig::default()
            },
        )
    }

    /// Byte-identity oracles need bitwise equality: float `==` holds for
    /// `+0.0 == -0.0` despite different bytes, and `NaN != NaN` despite
    /// identical bytes.  `clippy::float_cmp` does not look inside `eq`, so
    /// this test keeps `PlanOutcome::eq` bitwise.  The wall-clock timing
    /// never takes part.
    #[test]
    fn outcome_equality_is_bitwise_over_step_times() {
        let cluster = Cluster::homogeneous(2, 8);
        let p = planner(ModelSpec::llama2_32b(), 64);
        let outcome = p.plan(&cluster.snapshot()).expect("plan");

        let mut retimed = outcome.clone();
        retimed.timing.division += Duration::from_secs(1);
        assert_eq!(retimed, outcome, "timing must not take part in equality");

        let mut nan_a = outcome.clone();
        nan_a.estimated_step_time = f64::NAN;
        let nan_b = nan_a.clone();
        assert_eq!(nan_a, nan_b, "bit-identical NaN outcomes must be equal");

        let mut pos_zero = outcome.clone();
        pos_zero.estimated_step_time = 0.0;
        let mut neg_zero = pos_zero.clone();
        neg_zero.estimated_step_time = -0.0;
        assert_ne!(
            pos_zero, neg_zero,
            "+0.0 and -0.0 encode differently and must not compare equal"
        );
    }

    #[test]
    fn healthy_cluster_produces_megatron_like_plan() {
        // 32 GPUs, 32B model: the planner should find a uniform 3D-parallel plan
        // (equal stages, equal layers, equal data) because no stragglers exist.
        let cluster = Cluster::homogeneous(4, 8);
        let p = planner(ModelSpec::llama2_32b(), 64);
        let outcome = p.plan(&cluster.snapshot()).expect("plan");
        let plan = &outcome.plan;
        plan.validate(60, 64).unwrap();
        // Uniform data split.
        let m: Vec<u64> = plan.pipelines.iter().map(|p| p.num_micro_batches).collect();
        assert!(
            m.iter().all(|&x| x == m[0]),
            "data should be uniform: {m:?}"
        );
        // Uniform stage shape.
        let pps: Vec<usize> = plan.pipelines.iter().map(|p| p.pp()).collect();
        assert!(pps.iter().all(|&x| x == pps[0]));
        assert!(plan.removed_gpus.is_empty());
    }

    #[test]
    fn straggler_receives_less_work() {
        let mut cluster = Cluster::homogeneous(4, 8);
        let sit = PaperSituation::S2.situation(&cluster);
        cluster.apply_situation(&sit.rates);
        let p = planner(ModelSpec::llama2_32b(), 64);
        let outcome = p.plan(&cluster.snapshot()).expect("plan");
        let plan = &outcome.plan;
        plan.validate(60, 64).unwrap();
        // The straggling GPU (gpu 0, x=5.42) either sits in a stage with fewer
        // layers than its peers, or was removed entirely.
        let straggler = GpuId(0);
        let holds = plan.pipelines.iter().find_map(|pl| {
            pl.stages
                .iter()
                .find(|s| s.group.gpus.contains(&straggler))
                .map(|s| (s.layers, pl))
        });
        match holds {
            None => assert!(plan.removed_gpus.contains(&straggler)),
            Some((layers, pipeline)) => {
                let max_layers = pipeline.stages.iter().map(|s| s.layers).max().unwrap();
                assert!(
                    layers < max_layers
                        || pipeline.num_micro_batches
                            < plan
                                .pipelines
                                .iter()
                                .map(|p| p.num_micro_batches)
                                .max()
                                .unwrap(),
                    "straggler must get fewer layers or its pipeline fewer micro-batches"
                );
            }
        }
    }

    #[test]
    fn straggled_plan_is_faster_than_uniform_plan() {
        let mut cluster = Cluster::homogeneous(4, 8);
        let sit = PaperSituation::S4.situation(&cluster);
        cluster.apply_situation(&sit.rates);
        let snapshot = cluster.snapshot();
        let p = planner(ModelSpec::llama2_32b(), 64);
        let outcome = p.plan(&snapshot).expect("plan");
        // Compare against the uniform Megatron-style plan evaluated under the
        // same cost model.
        let gpus: Vec<GpuId> = (0..32).map(GpuId).collect();
        let uniform = ParallelizationPlan::uniform(&gpus, 2, 4, 4, 60, 64, 1).unwrap();
        let uniform_time = p.cost.step_time(&uniform, &snapshot);
        assert!(
            outcome.estimated_step_time < uniform_time * 0.75,
            "malleus {} vs uniform {}",
            outcome.estimated_step_time,
            uniform_time
        );
    }

    #[test]
    fn replan_keeps_dp_degree() {
        let mut cluster = Cluster::homogeneous(4, 8);
        let p = planner(ModelSpec::llama2_32b(), 64);
        let initial = p.plan(&cluster.snapshot()).expect("initial plan");
        let sit = PaperSituation::S1.situation(&cluster);
        cluster.apply_situation(&sit.rates);
        let replanned = p
            .replan(&cluster.snapshot(), &initial.plan)
            .expect("replan");
        assert_eq!(replanned.dp, initial.plan.dp());
    }

    #[test]
    fn failed_gpu_is_excluded_from_plan() {
        let mut cluster = Cluster::homogeneous(4, 8);
        cluster.set_rate(GpuId(5), f64::INFINITY);
        let p = planner(ModelSpec::llama2_32b(), 64);
        let outcome = p.plan(&cluster.snapshot()).expect("plan");
        assert!(!outcome.plan.active_gpus().contains(&GpuId(5)));
        assert!(outcome.plan.removed_gpus.contains(&GpuId(5)));
    }

    #[test]
    fn timing_breakdown_is_populated() {
        let cluster = Cluster::homogeneous(2, 8);
        let p = planner(ModelSpec::llama2_13b(), 64);
        let outcome = p.plan(&cluster.snapshot()).expect("plan");
        assert!(outcome.timing.total() > Duration::ZERO);
    }

    /// The phases of a plan run one after another on the caller's thread,
    /// so their sum is wall-clock time spent inside the call.
    #[test]
    fn timing_total_is_at_most_the_elapsed_time() {
        let within_elapsed = |what: &str, call: &dyn Fn() -> PlanOutcome| {
            #[expect(
                clippy::disallowed_methods,
                reason = "the test measures the wall-clock time around a plan"
            )]
            let start = Instant::now();
            let outcome = call();
            let elapsed = start.elapsed();
            assert!(
                outcome.timing.total() <= elapsed,
                "{what}: phases {:?} > elapsed {elapsed:?}",
                outcome.timing
            );
            outcome
        };
        let cluster = Cluster::homogeneous(4, 8);
        let p = planner(ModelSpec::llama2_32b(), 64);
        let cold = within_elapsed("cold plan", &|| p.plan(&cluster.snapshot()).expect("plan"));
        let drifted = cluster.snapshot().with_rate(GpuId(3), 2.57);
        let warm = within_elapsed("drift replan", &|| {
            p.replan(&drifted, &cold.plan).expect("replan")
        });
        let memo = within_elapsed("memo replan", &|| {
            p.replan(&cluster.snapshot(), &warm.plan).expect("replan")
        });
        assert_eq!(memo.lattice.as_ref().expect("lattice").evaluated, 0);
        let failed = cluster.snapshot().with_rate(GpuId(5), f64::INFINITY);
        within_elapsed("failure replan", &|| {
            p.replan(&failed, &memo.plan).expect("replan")
        });
    }

    #[test]
    fn no_usable_gpus_is_an_error() {
        let mut cluster = Cluster::homogeneous(1, 2);
        cluster.set_rate(GpuId(0), f64::INFINITY);
        cluster.set_rate(GpuId(1), f64::INFINITY);
        let p = planner(ModelSpec::llama2_7b(), 8);
        assert!(matches!(
            p.plan(&cluster.snapshot()),
            Err(PlanError::NoUsableGpus)
        ));
    }

    #[test]
    fn grouping_memo_is_reused_across_plan_calls() {
        let cluster = Cluster::homogeneous(2, 8);
        let p = planner(ModelSpec::llama2_13b(), 64);
        let first = p.plan(&cluster.snapshot()).expect("plan");
        let entries = p.grouping_cache().len();
        assert!(entries > 0);
        let second = p.plan(&cluster.snapshot()).expect("plan");
        // Same snapshot: no new entries, identical plan.
        assert_eq!(p.grouping_cache().len(), entries);
        assert_eq!(first.plan, second.plan);
    }

    #[test]
    fn degraded_cluster_prunes_infeasible_dp_degrees() {
        // Regression test for the default DP derivation: with one of four
        // nodes failed, 24 healthy GPUs cannot hold 16 replicas of the 32B
        // model states (ZeRO-1 needs ~(4·16+12)·P bytes in total), so dp=16
        // must not be enumerated even though the TP-1 grouping offers 24
        // groups.  On the healthy cluster the same degree stays available.
        let p = planner(ModelSpec::llama2_32b(), 64);
        let healthy = p.derived_dp_candidates(32, 32);
        assert!(healthy.contains(&16), "healthy candidates: {healthy:?}");
        let degraded = p.derived_dp_candidates(24, 24);
        assert!(!degraded.contains(&16), "degraded candidates: {degraded:?}");
        assert!(degraded.contains(&8));
        // End-to-end: the degraded cluster still plans fine.
        let mut cluster = Cluster::homogeneous(4, 8);
        for g in 24..32 {
            cluster.set_rate(GpuId(g), f64::INFINITY);
        }
        let outcome = p.plan(&cluster.snapshot()).expect("plan");
        assert!(outcome.dp <= 8);
        assert_eq!(
            outcome.plan.active_gpus().len() + outcome.plan.removed_gpus.len(),
            32
        );
    }

    #[test]
    fn delta_replan_is_byte_identical_to_full_enumeration() {
        let cluster = Cluster::homogeneous(4, 8);
        let delta = planner(ModelSpec::llama2_32b(), 64);
        let initial = delta.plan(&cluster.snapshot()).expect("initial plan");
        let lattice = initial.lattice.as_ref().expect("lattice persisted");
        assert_eq!(
            lattice.evaluated,
            lattice.entries.len(),
            "an empty memo evaluates every candidate"
        );
        assert!(!delta.candidate_memo().is_empty(), "memo populated");

        // Novel drift: byte-identical to a fresh full-enumeration replan.
        let drifted = cluster.snapshot().with_rate(GpuId(3), 2.57);
        let warm = delta.replan(&drifted, &initial.plan).expect("delta replan");
        let oracle = planner(ModelSpec::llama2_32b(), 64)
            .replan(&drifted, &initial.plan)
            .expect("oracle replan");
        assert_eq!(warm, oracle);
        assert!(warm.lattice.as_ref().unwrap().delta, "memo was consulted");

        // Recurrent state: the straggler recovers to the exact rates the
        // memo has already seen — every candidate is served from the memo,
        // which a clone of the planner shares.
        let recurred = delta
            .clone()
            .replan(&cluster.snapshot(), &warm.plan)
            .expect("recurrent replan");
        let recurred_lattice = recurred.lattice.as_ref().unwrap();
        assert_eq!(recurred_lattice.evaluated, 0, "full candidate reuse");
        assert_eq!(recurred_lattice.reused, recurred_lattice.entries.len());
        let oracle2 = planner(ModelSpec::llama2_32b(), 64)
            .replan(&cluster.snapshot(), &warm.plan)
            .expect("oracle replan");
        assert_eq!(recurred, oracle2);
    }

    #[test]
    fn failure_evaluates_every_candidate_and_rejoin_replays_the_memo() {
        let cluster = Cluster::homogeneous(4, 8);
        let p = planner(ModelSpec::llama2_32b(), 64);
        let initial = p.plan(&cluster.snapshot()).expect("initial plan");
        let oracle = |snapshot: &ClusterSnapshot, previous: &ParallelizationPlan| {
            planner(ModelSpec::llama2_32b(), 64)
                .replan(snapshot, previous)
                .expect("oracle replan")
        };
        // GPU loss: every grouping changes, so no candidate input recurs.
        let failed = cluster.snapshot().with_rate(GpuId(5), f64::INFINITY);
        let after_loss = p.replan(&failed, &initial.plan).expect("replan");
        let lattice = after_loss.lattice.as_ref().unwrap();
        assert_eq!(lattice.evaluated, lattice.entries.len());
        assert_eq!(after_loss, oracle(&failed, &initial.plan));
        // The GPU rejoins at the healthy rate: a state the memo has seen.
        let rejoined = failed.with_rate(GpuId(5), 1.0);
        let after_join = p.replan(&rejoined, &after_loss.plan).expect("replan");
        let lattice = after_join.lattice.as_ref().unwrap();
        assert_eq!(lattice.evaluated, 0, "the rejoin is a memo replay");
        assert_eq!(lattice.reused, lattice.entries.len());
        assert_eq!(after_join, oracle(&rejoined, &after_loss.plan));
    }

    /// The pre-check sums `C(p)` incrementally on two identities of the
    /// Appendix B.4 caps: an interior stage's `max_layers` depends on
    /// `(j, p)` only through its in-flight count `p − 1 − j`, and the last
    /// stage's is the same for every `p ≥ 2`.
    #[test]
    fn stage_caps_depend_on_the_in_flight_count_only() {
        for spec in [
            ModelSpec::llama2_7b(),
            ModelSpec::llama2_32b(),
            ModelSpec::llama2_70b(),
            ModelSpec::llama2_110b(),
        ] {
            let cost = CostModel::new(ProfiledCoefficients::derive(
                spec,
                HardwareParams::a800_cluster(),
            ));
            for (tp, b, dp) in tp_b_dp_grid() {
                let cap = |j, p| cost.max_layers(tp, j, p, b, dp);
                for p in 2..=40 {
                    assert_eq!(cap(p - 1, p), cap(1, 2), "last stage of {p}");
                    for j in 1..p - 1 {
                        // Stage 1 of a `p − j + 1`-stage pipeline has the
                        // same in-flight count, `p − 1 − j`.
                        assert_eq!(cap(j, p), cap(1, p - j + 1), "stage {j} of {p}");
                    }
                }
            }
        }
    }

    /// Every (TP degree, micro-batch, DP) the identity test covers.
    fn tp_b_dp_grid() -> impl Iterator<Item = (u32, u64, u32)> {
        [1, 2, 4, 8].into_iter().flat_map(|tp| {
            [1, 2, 4]
                .into_iter()
                .flat_map(move |b| [1, 2, 4, 8, 16].into_iter().map(move |dp| (tp, b, dp)))
        })
    }

    /// The pre-check stops deepening at the first interior stage that holds
    /// nothing at any degree, on two orders of the Appendix B.4 caps: an
    /// interior stage's cap never grows with its in-flight count, and a
    /// first stage's never grows with the depth from two stages on.  `None`,
    /// a stage that overflows when empty, orders below every cap.
    #[test]
    fn stage_caps_never_grow_with_depth() {
        for spec in [
            ModelSpec::llama2_7b(),
            ModelSpec::llama2_32b(),
            ModelSpec::llama2_70b(),
            ModelSpec::llama2_110b(),
        ] {
            let cost = CostModel::new(ProfiledCoefficients::derive(
                spec,
                HardwareParams::a800_cluster(),
            ));
            for (tp, b, dp) in tp_b_dp_grid() {
                let cap = |j, p| cost.max_layers(tp, j, p, b, dp);
                for p in 2..=200 {
                    assert!(cap(0, p + 1) <= cap(0, p), "first stage of {p}");
                    if p >= 3 {
                        assert!(cap(1, p + 1) <= cap(1, p), "interior stage of {p}");
                    }
                }
            }
        }
    }

    /// `C(p)` summed stage by stage over the best degree of the grouping:
    /// whether no `p ≤ ⌊groups / dp⌋` has `C(p) ≥ L`, the direct-sum bound
    /// on its own.
    fn direct_sum_proves(p: &Planner, grouping: &GroupingResult, dp: usize, b: u64) -> bool {
        let layers = p.cost.coeffs.spec.num_layers as u64;
        let cap = |j, pp| {
            grouping
                .groups
                .iter()
                .map(|g| {
                    p.cost
                        .max_layers(g.tp_degree(), j, pp, b, dp as u32)
                        .map_or(0, |l| l.min(layers))
                })
                .max()
                .unwrap_or(0)
        };
        !(1..=grouping.groups.len() / dp)
            .any(|pp| (0..pp).map(|j| cap(j, pp)).sum::<u64>() >= layers)
    }

    /// The pre-check proves every candidate the direct sum proves, on split
    /// and unsplit groupings at every DP degree they admit, and counting the
    /// groups of each degree proves more.  Both counts are pinned.
    #[test]
    fn memory_precheck_proves_what_the_direct_sum_proves() {
        let (mut by_sum, mut proofs) = (0, 0);
        for spec in [ModelSpec::llama2_32b(), ModelSpec::llama2_110b()] {
            let p = planner(spec, 64);
            let mut cluster = Cluster::homogeneous(8, 8);
            let healthy = cluster.snapshot();
            cluster.apply_situation(&PaperSituation::S4.situation(&cluster).rates);
            for snapshot in [healthy, cluster.snapshot()] {
                for max_tp in [1, 2, 4, 8] {
                    let grouping = crate::grouping::group_cluster(
                        &snapshot,
                        &p.cost.coeffs,
                        max_tp,
                        1,
                        1.05,
                        true,
                    );
                    for dp in 1..=grouping.groups.len() {
                        for b in [1, 2, 4] {
                            let proven = p.memory_infeasible(&grouping, dp, b);
                            let summed = direct_sum_proves(&p, &grouping, dp, b);
                            assert!(proven || !summed, "tp={max_tp} dp={dp} b={b}");
                            by_sum += summed as usize;
                            proofs += proven as usize;
                        }
                    }
                }
            }
        }
        assert_eq!(
            (by_sum, proofs),
            (1176, 1320),
            "proofs by the direct sum, in all"
        );
    }

    /// The pre-check's brute-force reference: whether some split of the
    /// groups over `dp` pipelines lets every pipeline hold the model's `L`
    /// layers, where `counts[i]` groups have TP degree `degrees[i]`.  It
    /// tries every split of each degree's groups over the pipelines and, in
    /// each pipeline, every choice of its groups as `pp` stages in every
    /// order, capping stage `j` at `min(L, max_layers(·, j, pp))`, or 0
    /// where even an empty stage overflows.
    fn reference_admits(p: &Planner, degrees: &[u32], counts: &[usize], dp: usize, b: u64) -> bool {
        let layers = p.cost.coeffs.spec.num_layers as u64;
        let groups: usize = counts.iter().sum();
        // caps[pp][j][d]: degree `degrees[d]` at stage `j` of `pp` stages.
        let caps: Vec<Vec<Vec<u64>>> = (0..=groups)
            .map(|pp| {
                (0..pp)
                    .map(|j| {
                        degrees
                            .iter()
                            .map(|&d| {
                                p.cost
                                    .max_layers(d, j, pp, b, dp as u32)
                                    .map_or(0, |l| l.min(layers))
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        // The most layers stages `j..` hold, over every order of the
        // groups in `left` (which holds enough groups for every stage).
        fn most(caps: &[Vec<u64>], j: usize, left: &mut [usize]) -> u64 {
            if j == caps.len() {
                return 0;
            }
            (0..left.len())
                .filter_map(|d| {
                    let more = left[d].checked_sub(1)?;
                    left[d] = more;
                    let held = caps[j][d] + most(caps, j + 1, left);
                    left[d] += 1;
                    Some(held)
                })
                .max()
                .unwrap_or(0)
        }
        let mut holds = |pipeline: &[usize]| {
            let mut left = pipeline.to_vec();
            (1..=pipeline.iter().sum()).any(|pp| most(&caps[pp], 0, &mut left) >= layers)
        };
        // Whether `pipelines` pipelines can share the groups in `left` so
        // that each holds `L`: every share of the first, then the rest.
        fn split(
            left: &[usize],
            pipelines: usize,
            holds: &mut dyn FnMut(&[usize]) -> bool,
            seen: &mut HashMap<(usize, Vec<usize>), bool>,
        ) -> bool {
            if pipelines == 0 {
                return true;
            }
            if let Some(&known) = seen.get(&(pipelines, left.to_vec())) {
                return known;
            }
            let mut share = vec![0; left.len()];
            let found = loop {
                let rest: Vec<usize> = left.iter().zip(&share).map(|(l, s)| l - s).collect();
                if holds(&share) && split(&rest, pipelines - 1, holds, seen) {
                    break true;
                }
                // The next share, counting in mixed radix `left[d] + 1`.
                let Some(d) = (0..share.len()).find(|&d| share[d] < left[d]) else {
                    break false;
                };
                share[d] += 1;
                share[..d].fill(0);
            };
            seen.insert((pipelines, left.to_vec()), found);
            found
        }
        split(counts, dp, &mut holds, &mut HashMap::new())
    }

    /// A synthetic grouping with `counts[i]` groups of TP degree
    /// `degrees[i]`.
    fn synthetic_grouping(degrees: &[u32], counts: &[usize]) -> GroupingResult {
        let mut next = 0;
        let mut groups = Vec::new();
        for (&degree, &count) in degrees.iter().zip(counts) {
            for _ in 0..count {
                groups.push(TpGroup::new((next..next + degree).map(GpuId).collect()));
                next += degree;
            }
        }
        GroupingResult {
            max_tp: degrees.iter().copied().max().unwrap_or(1),
            groups,
        }
    }

    /// The pre-check against the brute-force reference on small groupings:
    /// nodes of eight GPUs at maximum TP degree 4, each healthy (two TP-4
    /// groups) or split around one straggler into the Appendix B.7 `{4, 2,
    /// 1}` and the straggler's TP-1 group, and TP-8 plus TP-1 groupings, at
    /// every DP degree up to 8 they admit.  It never proves what the
    /// reference admits, and with two degrees it proves all the reference
    /// proves.  With three, 10 of the 360 cases are proven by the reference
    /// alone: each class of a threshold takes its best degree's cap, so a
    /// TP-2 group counts as TP-4 among the high groups and TP-1 groups
    /// count as TP-2 among the low ones.
    #[test]
    fn memory_precheck_matches_a_brute_force_reference() {
        let mut shapes: Vec<(Vec<u32>, Vec<usize>)> = Vec::new();
        for (healthy, split) in [(1, 1), (2, 1), (0, 2), (1, 2)] {
            shapes.push((vec![1, 2, 4], vec![2 * split, split, 2 * healthy + split]));
        }
        for (tp8, tp1) in [(2, 4), (3, 5), (1, 8)] {
            shapes.push((vec![1, 8], vec![tp1, tp8]));
        }
        let (mut proofs, mut cases, mut three_degree, mut reference_only) = (0, 0, 0, 0);
        for spec in [
            ModelSpec::llama2_13b(),
            ModelSpec::llama2_32b(),
            ModelSpec::llama2_70b(),
            ModelSpec::llama2_110b(),
        ] {
            let p = planner(spec, 64);
            for (degrees, counts) in &shapes {
                let grouping = synthetic_grouping(degrees, counts);
                for dp in 1..=grouping.groups.len().min(8) {
                    for b in [1, 2, 4] {
                        let case = format!("{} {counts:?} dp={dp} b={b}", p.cost.coeffs.spec.name);
                        let proven = p.memory_infeasible(&grouping, dp, b);
                        let admitted = reference_admits(&p, degrees, counts, dp, b);
                        assert!(!(proven && admitted), "{case}: proven but admitted");
                        if degrees.len() == 2 {
                            assert!(proven || admitted, "{case}: not proven");
                        } else {
                            three_degree += 1;
                            reference_only += !(proven || admitted) as usize;
                        }
                        proofs += proven as usize;
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!((proofs, cases), (433, 624), "proofs of all cases");
        assert_eq!((reference_only, three_degree), (10, 360));
    }

    #[test]
    fn estimate_simplified_close_to_exact() {
        let cluster = Cluster::homogeneous(4, 8);
        let p = planner(ModelSpec::llama2_32b(), 64);
        let outcome = p.plan(&cluster.snapshot()).expect("plan");
        let ratio = outcome.estimated_step_time / outcome.estimated_step_time_simplified;
        assert!((1.0..1.3).contains(&ratio), "ratio {ratio}");
    }
}
