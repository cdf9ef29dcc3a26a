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
use malleus_cluster::{ClusterSnapshot, GpuId};
use malleus_model::ProfiledCoefficients;
use serde::{Deserialize, Serialize};
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
    /// Enable the candidate memo (see [`crate::delta`]): every
    /// [`Planner::plan`] and [`Planner::replan`] serves candidates whose
    /// inputs it has evaluated before from the memo, memoizes the rest, and
    /// attaches its scored lattice to [`PlanOutcome::lattice`].  This is
    /// *execution policy*: memo hits are confirmed bitwise against the full
    /// candidate inputs, so the chosen plan is independent of this knob, and
    /// a planner with it off is the full-enumeration equivalence oracle.
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
    /// Pipeline division (the Eq. (4) MINLP).
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
    /// memo reuse counts: diagnostics only, no later plan reads it
    /// (populated when [`PlannerConfig::incremental`] is on).
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
    /// filled by every plan when [`PlannerConfig::incremental`] is on, and
    /// shared by clones of this planner.
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
    /// enumerating DP degrees its healthy remainder can never host.
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

    /// Score one candidate: serve it from the memo when `shared` is given
    /// and the memo holds its confirmed inputs, else evaluate it (and
    /// memoize the evaluation when `shared` is given).  The flag says whether
    /// the memo served it.
    fn score_candidate(
        &self,
        snapshot: &ClusterSnapshot,
        cand: &Candidate<'_>,
        shared: Option<&GroupingInputs<'_>>,
        timing: &mut PlanTiming,
    ) -> (Arc<CandidateEval>, bool) {
        let Some(shared) = shared else {
            return (
                Arc::new(self.evaluate_candidate(snapshot, cand, timing)),
                false,
            );
        };
        let inputs = shared.candidate(cand.dp, cand.micro_batch, cand.nonuniform_division);
        let key = inputs.key();
        if let Some(hit) = self.candidate_memo.lookup(key, &inputs) {
            return (hit, true);
        }
        let eval = Arc::new(self.evaluate_candidate(snapshot, cand, timing));
        self.candidate_memo.insert(key, &inputs, Arc::clone(&eval));
        (eval, false)
    }

    /// Evaluate one lattice point: pipeline division, group ordering / layer
    /// assignment, data assignment, validation, and cost estimation, adding
    /// the time of each phase to `timing`.
    fn evaluate_candidate(
        &self,
        snapshot: &ClusterSnapshot,
        cand: &Candidate<'_>,
        timing: &mut PlanTiming,
    ) -> CandidateEval {
        let num_layers = self.cost.coeffs.spec.num_layers as u64;
        let (max_tp, dp, b) = (cand.grouping.max_tp, cand.dp, cand.micro_batch);
        let total_micro_batches = self.config.global_batch_size / b;
        let failed = |failure: Option<String>| CandidateEval {
            outcome: None,
            failure,
        };

        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock timing is observability-only; it feeds PlanTiming, never plan selection"
        )]
        let t0 = Instant::now();
        let division = divide_groups(
            &self.cost,
            cand.grouping,
            snapshot,
            dp,
            total_micro_batches,
            b,
            cand.nonuniform_division,
        );
        timing.division += t0.elapsed();
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
            return failed(Some(format!(
                "layer assignment infeasible for tp={max_tp} dp={dp} b={b}"
            )));
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
        let memoize = self.config.incremental;
        let fingerprint = snapshot.fingerprint();
        let mut timing = PlanTiming::default();
        let mut best: Option<Arc<CandidateEval>> = None;
        let mut last_failure: Option<Arc<CandidateEval>> = None;
        let mut entries = Vec::new();
        let mut reused_count = 0usize;

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
            let shared = memoize
                .then(|| GroupingInputs::new(&self.cost.coeffs, &self.config, snapshot, &grouping));
            for dp in self.dp_candidates(forced_dp, num_groups, usable) {
                if dp == 0 || dp > num_groups {
                    continue;
                }
                for &micro_batch in &b_candidates {
                    if self.config.global_batch_size / micro_batch < dp as u64 {
                        continue;
                    }
                    for &nonuniform_division in division_modes {
                        let cand = Candidate {
                            grouping: &grouping,
                            dp,
                            micro_batch,
                            nonuniform_division,
                        };
                        let (eval, reused) =
                            self.score_candidate(snapshot, &cand, shared.as_ref(), &mut timing);
                        if memoize {
                            reused_count += reused as usize;
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
                        }
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
        if memoize {
            let evaluated = entries.len() - reused_count;
            outcome.lattice = Some(Arc::new(ScoredLattice {
                entries,
                reused: reused_count,
                evaluated,
                delta: true,
            }));
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_cluster::{Cluster, PaperSituation};
    use malleus_model::{HardwareParams, ModelSpec};

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

    #[test]
    fn incremental_off_disables_lattice_and_memo() {
        let cluster = Cluster::homogeneous(2, 8);
        let coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_13b(), HardwareParams::a800_cluster());
        let p = Planner::new(
            coeffs,
            PlannerConfig {
                global_batch_size: 64,
                incremental: false,
                ..PlannerConfig::default()
            },
        );
        let outcome = p.plan(&cluster.snapshot()).expect("plan");
        assert!(outcome.lattice.is_none());
        assert!(p.candidate_memo().is_empty());
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
