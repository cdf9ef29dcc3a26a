//! The memory pre-check's cap table and its two bounds.  See
//! [`Planner::memory_infeasible`](crate::Planner::memory_infeasible) for
//! the bounds, why each is a proof, and how the table is built and cut
//! short.  The table and the class bound's work lists live in a per-thread
//! scratch, so a warm check allocates nothing.

use crate::cost::CostModel;
use crate::grouping::GroupingResult;
use std::cell::RefCell;

/// The most distinct TP degrees a grouping may have for the pre-check to
/// read it; a grouping with more is left to the full path.
const MAX_DEGREES: usize = 8;

/// The cap table of one (grouping, DP, b) and the class bound's work lists,
/// one per thread.  Caps are `min(L, max_layers)`, or 0 where even an empty
/// stage overflows.
#[derive(Debug, Default)]
pub(crate) struct Precheck {
    /// The grouping's distinct TP degrees, ascending.
    degrees: [u32; MAX_DEGREES],
    /// How many groups have each degree.
    counts: [usize; MAX_DEGREES],
    /// How many distinct degrees `degrees` and `counts` hold.
    n: usize,
    /// The grouping's group count, the DP degree, the micro-batch size and
    /// the model's layer count `L`.
    groups: usize,
    dp: usize,
    micro_batch_size: u64,
    layers: u64,
    /// Row `p − 1`: each degree's cap at stage 0 of a `p`-stage pipeline.
    /// Row 0 is the single-stage pipeline, its first and last stage at once.
    first: Vec<u64>,
    /// Each degree's cap at the last stage of a pipeline of two or more
    /// stages.
    last: [u64; MAX_DEGREES],
    /// Row `c − 1`: each degree's cap at an interior stage with in-flight
    /// count `c`.
    interior: Vec<u64>,
    /// The deepest pipeline the table covers.
    depth: usize,
    /// The deepest row's interior stage holds nothing at any degree.
    flat: bool,
    /// Class bound: the high-minus-low gains of the interior stages seen so
    /// far, and those of every stage of one depth, sorted descending.
    interior_gains: Vec<i64>,
    gains: Vec<i64>,
    /// Class bound: `need[k]`, the fewest low groups a pipeline holding `k`
    /// high groups needs, saturated at one more than the low groups there
    /// are.
    need: Vec<usize>,
    /// Class bound: `split[h]`, the fewest low groups the pipelines split
    /// so far need with at most `h` high groups between them.
    split: Vec<usize>,
}

thread_local! {
    static PRECHECK: RefCell<Precheck> = RefCell::new(Precheck::default());
}

impl Precheck {
    /// Run `f` on this thread's scratch.
    pub(crate) fn with<R>(f: impl FnOnce(&mut Precheck) -> R) -> R {
        PRECHECK.with(|cell| f(&mut cell.borrow_mut()))
    }

    /// Count the groups of each TP degree of `grouping` and forget the
    /// previous table.  `false` when the grouping has more than
    /// `MAX_DEGREES` distinct degrees.
    pub(crate) fn load(
        &mut self,
        grouping: &GroupingResult,
        dp: usize,
        micro_batch_size: u64,
        layers: u64,
    ) -> bool {
        self.n = 0;
        for group in &grouping.groups {
            let degree = group.tp_degree();
            let at = self.degrees[..self.n].partition_point(|&d| d < degree);
            if at < self.n && self.degrees[at] == degree {
                self.counts[at] += 1;
                continue;
            }
            if self.n == MAX_DEGREES {
                return false;
            }
            self.degrees.copy_within(at..self.n, at + 1);
            self.counts.copy_within(at..self.n, at + 1);
            self.degrees[at] = degree;
            self.counts[at] = 1;
            self.n += 1;
        }
        self.groups = grouping.groups.len();
        self.dp = dp;
        self.micro_batch_size = micro_batch_size;
        self.layers = layers;
        self.first.clear();
        self.interior.clear();
        self.depth = 0;
        self.flat = false;
        true
    }

    /// Whether either bound proves the loaded candidate infeasible.  The
    /// class bound runs only when the direct sum proves nothing.
    pub(crate) fn proves(&mut self, cost: &CostModel) -> bool {
        let best = |row: &[u64]| row.iter().copied().max().unwrap_or(0);
        self.shallowest_holding(cost, self.groups / self.dp, best)
            .is_none()
            || (1..self.n).any(|s| self.class_bound_proves(cost, s))
    }

    /// Degree `i`'s cap at stage `stage` of a `p`-stage pipeline.
    fn cap(&self, cost: &CostModel, i: usize, stage: usize, p: usize) -> u64 {
        cost.max_layers(
            self.degrees[i],
            stage,
            p,
            self.micro_batch_size,
            self.dp as u32,
        )
        .map_or(0, |l| l.min(self.layers))
    }

    /// Build the table down to depth `p`.  `false` when it went flat above
    /// `p`: then no pipeline of `p` or more stages holds more than a
    /// shallower one, in any class.
    fn build_to(&mut self, cost: &CostModel, p: usize) -> bool {
        while self.depth < p {
            if self.flat {
                return false;
            }
            let q = self.depth + 1;
            for i in 0..self.n {
                let cap = self.cap(cost, i, 0, q);
                self.first.push(cap);
            }
            if q == 2 {
                for i in 0..self.n {
                    self.last[i] = self.cap(cost, i, 1, 2);
                }
            }
            if q >= 3 {
                // Stage 1 of a `q`-stage pipeline has in-flight count
                // `q − 2`, the one going from `q − 1` to `q` stages adds.
                let start = self.interior.len();
                for i in 0..self.n {
                    let cap = self.cap(cost, i, 1, q);
                    self.interior.push(cap);
                }
                self.flat = self.interior[start..].iter().all(|&cap| cap == 0);
            }
            self.depth = q;
        }
        true
    }

    /// Each degree's cap at stage 0 of a `p`-stage pipeline.
    fn first_row(&self, p: usize) -> &[u64] {
        &self.first[(p - 1) * self.n..p * self.n]
    }

    /// Each degree's cap at an interior stage with in-flight count `c`.
    fn interior_row(&self, c: usize) -> &[u64] {
        &self.interior[(c - 1) * self.n..c * self.n]
    }

    /// The fewest stages, at most `deepest`, that hold `L` layers when each
    /// stage's cap is its row reduced by `class`; `None` when no depth up
    /// to `deepest` does.
    fn shallowest_holding(
        &mut self,
        cost: &CostModel,
        deepest: usize,
        class: impl Fn(&[u64]) -> u64,
    ) -> Option<usize> {
        let mut interior = 0;
        for p in 1..=deepest {
            if !self.build_to(cost, p) {
                return None;
            }
            let held = if p == 1 {
                class(self.first_row(1))
            } else {
                if p >= 3 {
                    interior += class(self.interior_row(p - 2));
                }
                class(self.first_row(p)) + class(&self.last[..self.n]) + interior
            };
            if held >= self.layers {
                return Some(p);
            }
        }
        None
    }

    /// The class bound at the threshold `degrees[s]`: groups of that degree
    /// or more are high, the rest low, and each stage is capped by the best
    /// degree of its class.  Whether no split `k_1 + … + k_dp ≤ n_high` of
    /// the high groups over the pipelines has `Σ need(k_i) ≤ n_low`.
    fn class_bound_proves(&mut self, cost: &CostModel, s: usize) -> bool {
        let n_high: usize = self.counts[s..self.n].iter().sum();
        let n_low = self.groups - n_high;
        // Each pipeline taking `⌊n_high / dp⌋` high groups and no low one
        // is a split the bound admits.
        let high = |row: &[u64]| row[s..].iter().copied().max().unwrap_or(0);
        if self
            .shallowest_holding(cost, n_high / self.dp, high)
            .is_some()
        {
            return false;
        }
        // A stage's low cap and its high-minus-low gain.
        let classes = |row: &[u64]| {
            let low = row[..s].iter().copied().max().unwrap_or(0);
            (low, high(row) as i64 - low as i64)
        };
        let layers = self.layers as i64;
        let saturated = n_low + 1;
        self.need.clear();
        self.need.resize(n_high + 1, saturated);
        self.interior_gains.clear();
        let mut interior_low = 0;
        // Every other pipeline holds at least one group.
        for p in 1..=self.groups - self.dp + 1 {
            if !self.build_to(cost, p) {
                break;
            }
            let (mut low, gain) = classes(self.first_row(p));
            self.gains.clear();
            self.gains.push(gain);
            if p >= 2 {
                if p >= 3 {
                    let (interior, gain) = classes(self.interior_row(p - 2));
                    interior_low += interior;
                    self.interior_gains.push(gain);
                }
                let (last, gain) = classes(&self.last[..self.n]);
                low += last + interior_low;
                self.gains.push(gain);
                self.gains.extend_from_slice(&self.interior_gains);
            }
            self.gains.sort_unstable_by(|a, b| b.cmp(a));
            // With `m` high positions the stages hold at most the low caps
            // plus the `m` largest gains; `reach` is the largest `m ≤ k`
            // that holds `L`, so a pipeline with `k` high groups needs
            // `p − reach` low ones at this depth.
            let mut held = low as i64;
            let mut reach = None;
            for m in 0..=p {
                if m > 0 {
                    held += self.gains[m - 1];
                }
                if held >= layers {
                    reach = Some(m);
                }
                if let (Some(reach), Some(need)) = (reach, self.need.get_mut(m)) {
                    *need = (*need).min(p - reach);
                }
            }
            if let Some(reach) = reach {
                for need in self.need.iter_mut().skip(p + 1) {
                    *need = (*need).min(p - reach);
                }
            }
            // A deeper pipeline with `k` high groups needs at least
            // `p + 1 − k` low ones.
            if self
                .need
                .iter()
                .enumerate()
                .all(|(k, &need)| (p + 1).saturating_sub(k) >= need)
            {
                break;
            }
        }
        // A pipeline never needs more high groups than the fewest that
        // leave it needing no low one.
        let enough = self.need.iter().position(|&need| need == 0);
        self.split.clear();
        self.split.resize(n_high + 1, 0);
        for _ in 0..self.dp {
            // Descending, so `split[h − k]` still holds the previous
            // pipelines' row when `split[h]` is replaced.
            for h in (0..=n_high).rev() {
                let fewest = (0..=enough.map_or(h, |e| e.min(h)))
                    .map(|k| self.split[h - k] + self.need[k])
                    .min()
                    .unwrap_or(saturated);
                self.split[h] = fewest.min(saturated);
            }
            if self.split[n_high] > n_low {
                return true;
            }
        }
        false
    }
}
