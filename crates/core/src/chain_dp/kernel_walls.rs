//! Differential walls for the Algorithm 1 kernels against the formulations
//! they replaced.
//!
//! [`reference`] holds the code of the blocked kernel that sorted each
//! range of its recursion afresh (lines by slope and queries by point at
//! every node, a sorted domain per block, a binary search per Li Chao
//! query), of the levelled DP that scanned `j` once per state `(x, p, s)`,
//! and of the pruned DP that called `segment_lower_bound` and then `cost`
//! for each candidate, as they were, most comments trimmed. They tally their
//! work in locals instead of the process-wide solver counters, so the walls
//! compare counts without racing the tests that run beside them. The
//! production kernels keep their own tallies (the Li Chao tree's, the
//! levelled DP's and [`ResumableDp`]'s [`DpTally`]) and the walls read
//! those, not the counters.
//!
//! The production pruned and levelled DPs also stop their rows at a second,
//! suffix bound (work conservation: every suffix costs at least its work),
//! so the two references take a [`reference::Rule`]:
//! [`reference::Rule::Segment`] runs them as they were, with the
//! first-segment bound alone, and is the answer oracle;
//! [`reference::Rule::Suffix`] adds the suffix bound candidate by candidate
//! where the kernels apply it, and is the work oracle. The walls
//! assert that every entry's values, choices and levels equal the answer
//! oracle's bit for bit, that its work counts equal the work oracle's
//! exactly, and that it never evaluates more candidates than the answer
//! oracle.
//!
//! Each wall asserts bitwise equality: DP values (every position, as bits),
//! choices, placements, and the work counts — Li Chao inserts and node
//! visits, DP candidates and prune breaks. The inputs aim at the tie rules:
//! uniform costs (exactly equal segment costs), periodic orders whose
//! slopes coincide, orders whose tiny weights vanish from the prefix sums
//! (coinciding lines and query points), and a rate so small that every
//! slope and query point rounds to the same value. Swapping any tie rule
//! of the kernel (the merge's, the hull's, the block sort's, the domain's)
//! makes them fail. The kernel's orders come from a bounded insertion
//! sort: `prop_sort_positions_matches_sort_by` holds it to `sort_by` and to
//! its move budget, and the recovery-jitter orders drive the kernel past
//! that budget at the production block size. The pruned DP's wall also
//! aims at the row split of [`SegmentCostTable::pruned_row`]: rows that are
//! all `exp_m1` head, rows split mid-row, rows without a head, saturated
//! tables, rows where `λ·work` lands exactly on the `10⁻²` switch or one
//! ulp to either side, and rows the suffix bound cuts short.

use ckpt_dag::generators;
use ckpt_expectation::segment_cost::SegmentCostTable;
use ckpt_expectation::storage::{LevelledCostTable, StorageLevel, StorageLevels};
use ckpt_failure::{Pcg64, RandomSource};
use proptest::prelude::*;

use super::{
    blocked_placement_with_block_into, optimal_chain_schedule, optimal_levelled_placement_on_table,
    positions_from_choice, scalable_placement_on_table_with_scratch, sort_positions,
    ChainDpScratch, DpTally, ResumableDp, SortTally, DP_BLOCK, INSERTION_MOVES_PER_POSITION,
    SCALABLE_THRESHOLD,
};
use crate::instance::ProblemInstance;
use reference::Rule;

/// The replaced kernels, kept as they were; the pruned and levelled DPs
/// also run the suffix bound under [`Rule::Suffix`].
mod reference {
    use super::super::{positions_from_choice, resummed_value, TablePlacement};
    use super::{DpTally, LevelledCostTable, SegmentCostTable};
    use ckpt_expectation::segment_cost::STREAMED_BEFORE_CUTOFF;

    /// The bounds a reference scan stops its rows at.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Rule {
        /// The first-segment bound alone, as the kernels had it before the
        /// suffix bound: the answer oracle.
        Segment,
        /// The first-segment bound, and the suffix bound where the kernels
        /// apply it: the pruned DP from the [`STREAMED_BEFORE_CUTOFF`]-th
        /// product-form candidate of a row on, against the incumbent at
        /// that point; the levelled DP at every candidate, against the
        /// state's incumbent.
        Suffix,
    }

    /// The replaced kernel's arena.
    #[derive(Debug, Clone, Default)]
    pub(super) struct Scratch {
        points: Vec<f64>,
        slopes: Vec<f64>,
        pub(super) value: Vec<f64>,
        pub(super) choice: Vec<usize>,
        cross_val: Vec<f64>,
        cross_id: Vec<usize>,
        domain: Vec<f64>,
        pub(super) tree: LiChaoTree,
        lines: Vec<(f64, f64, usize)>,
        hull: Vec<(f64, f64, usize)>,
        by_point: Vec<usize>,
    }

    /// The blocked core, sorting every range of its recursion afresh.
    pub(super) fn blocked_placement_with_block_into(
        table: &SegmentCostTable,
        block: usize,
        scratch: &mut Scratch,
    ) -> TablePlacement {
        debug_assert!(!table.is_saturated(), "blocked solver needs slopes/query points");
        assert!(block > 0, "block size must be positive");
        let n = table.len();
        scratch.points.clear();
        scratch.points.extend((0..n).map(|x| table.query_point(x)));
        scratch.slopes.clear();
        scratch.slopes.extend((0..n).map(|j| table.slope(j)));
        scratch.value.clear();
        scratch.value.resize(n + 1, 0.0);
        scratch.choice.clear();
        scratch.choice.resize(n, 0);
        scratch.cross_val.clear();
        scratch.cross_val.resize(n, f64::INFINITY);
        scratch.cross_id.clear();
        scratch.cross_id.resize(n, usize::MAX);

        struct BlockedDp<'a> {
            table: &'a SegmentCostTable,
            points: &'a [f64],
            slopes: &'a [f64],
            block: usize,
            value: &'a mut [f64],
            choice: &'a mut [usize],
            cross_val: &'a mut [f64],
            cross_id: &'a mut [usize],
            domain: &'a mut Vec<f64>,
            tree: &'a mut LiChaoTree,
            lines: &'a mut Vec<(f64, f64, usize)>,
            hull: &'a mut Vec<(f64, f64, usize)>,
            by_point: &'a mut Vec<usize>,
        }

        impl BlockedDp<'_> {
            fn solve(&mut self, lo: usize, hi: usize) {
                if hi - lo <= self.block {
                    self.solve_block(lo, hi);
                    return;
                }
                let mid = lo + (hi - lo) / 2;
                self.solve(mid, hi);
                self.apply_cross(lo, mid, hi);
                self.solve(lo, mid);
            }

            fn solve_block(&mut self, lo: usize, hi: usize) {
                self.domain.clear();
                self.domain.extend_from_slice(&self.points[lo..hi]);
                self.domain.sort_by(f64::total_cmp);
                self.domain.dedup();
                self.tree.reset(self.domain);
                for x in (lo..hi).rev() {
                    self.tree.insert(LiChaoLine {
                        slope: self.slopes[x],
                        intercept: self.value[x + 1],
                        id: x,
                    });
                    let (in_block, in_block_id) = self.tree.query(self.points[x]);
                    let (mut best, mut best_j) = (in_block, in_block_id);
                    if self.cross_id[x] != usize::MAX && self.cross_val[x] < best {
                        best = self.cross_val[x];
                        best_j = self.cross_id[x];
                    }
                    self.value[x] = best - self.table.coefficient(x);
                    self.choice[x] = best_j;
                }
            }

            fn apply_cross(&mut self, lo: usize, mid: usize, hi: usize) {
                self.lines.clear();
                self.lines.extend((mid..hi).map(|j| (self.slopes[j], self.value[j + 1], j)));
                self.lines.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.total_cmp(&b.1)));
                self.hull.clear();
                for &line in self.lines.iter() {
                    if let Some(&(last_slope, ..)) = self.hull.last() {
                        if last_slope == line.0 {
                            continue;
                        }
                    }
                    while self.hull.len() >= 2 {
                        let a = self.hull[self.hull.len() - 2];
                        let b = self.hull[self.hull.len() - 1];
                        let x_ab = (b.1 - a.1) / (a.0 - b.0);
                        let x_al = (line.1 - a.1) / (a.0 - line.0);
                        if x_al <= x_ab {
                            self.hull.pop();
                        } else {
                            break;
                        }
                    }
                    self.hull.push(line);
                }

                self.by_point.clear();
                self.by_point.extend(lo..mid);
                self.by_point.sort_by(|&a, &b| self.points[a].total_cmp(&self.points[b]));
                let mut k = 0usize;
                for &x in self.by_point.iter() {
                    let t = self.points[x];
                    while k + 1 < self.hull.len()
                        && self.hull[k + 1].0 * t + self.hull[k + 1].1
                            <= self.hull[k].0 * t + self.hull[k].1
                    {
                        k += 1;
                    }
                    let candidate = self.hull[k].0 * t + self.hull[k].1;
                    if self.cross_id[x] == usize::MAX || candidate < self.cross_val[x] {
                        self.cross_val[x] = candidate;
                        self.cross_id[x] = self.hull[k].2;
                    }
                }
            }
        }

        let Scratch {
            points,
            slopes,
            value,
            choice,
            cross_val,
            cross_id,
            domain,
            tree,
            lines,
            hull,
            by_point,
        } = scratch;
        let mut dp = BlockedDp {
            table,
            points,
            slopes,
            block,
            value,
            choice,
            cross_val,
            cross_id,
            domain,
            tree,
            lines,
            hull,
            by_point,
        };
        dp.solve(0, n);

        let positions = positions_from_choice(dp.choice);
        let expected_makespan = resummed_value(table, &positions);
        TablePlacement { expected_makespan, checkpoint_positions: positions }
    }

    #[derive(Debug, Clone, Copy)]
    struct LiChaoLine {
        slope: f64,
        intercept: f64,
        id: usize,
    }

    impl LiChaoLine {
        fn eval(&self, t: f64) -> f64 {
            self.slope * t + self.intercept
        }
    }

    #[derive(Debug, Clone, Default)]
    pub(super) struct LiChaoTree {
        xs: Vec<f64>,
        nodes: Vec<Option<LiChaoLine>>,
        pub(super) inserts: u64,
        pub(super) visits: u64,
    }

    impl LiChaoTree {
        fn reset(&mut self, xs: &[f64]) {
            self.xs.clear();
            self.xs.extend_from_slice(xs);
            let len = self.xs.len().max(1);
            self.nodes.clear();
            self.nodes.resize(4 * len, None);
        }

        fn insert(&mut self, line: LiChaoLine) {
            let hi = self.xs.len() - 1;
            let visited = self.insert_in(1, 0, hi, line);
            self.inserts += 1;
            self.visits += visited;
        }

        fn insert_in(&mut self, node: usize, lo: usize, hi: usize, mut line: LiChaoLine) -> u64 {
            let mid = (lo + hi) / 2;
            let mid_x = self.xs[mid];
            match &mut self.nodes[node] {
                slot @ None => {
                    *slot = Some(line);
                    1
                }
                Some(current) => {
                    if line.eval(mid_x) < current.eval(mid_x) {
                        std::mem::swap(current, &mut line);
                    }
                    if lo == hi {
                        return 1;
                    }
                    let lo_x = self.xs[lo];
                    if line.eval(lo_x) < current.eval(lo_x) {
                        1 + self.insert_in(2 * node, lo, mid, line)
                    } else {
                        1 + self.insert_in(2 * node + 1, mid + 1, hi, line)
                    }
                }
            }
        }

        fn query(&self, t: f64) -> (f64, usize) {
            let index = self
                .xs
                .binary_search_by(|x| x.total_cmp(&t))
                .expect("query points are part of the tree domain");
            let (mut lo, mut hi, mut node) = (0usize, self.xs.len() - 1, 1usize);
            let mut best: Option<(f64, usize)> = None;
            loop {
                if let Some(line) = &self.nodes[node] {
                    let candidate = line.eval(t);
                    if best.is_none_or(|(value, _)| candidate < value) {
                        best = Some((candidate, line.id));
                    }
                }
                if lo == hi {
                    break;
                }
                let mid = (lo + hi) / 2;
                if index <= mid {
                    hi = mid;
                    node *= 2;
                } else {
                    lo = mid + 1;
                    node = 2 * node + 1;
                }
            }
            best.expect("query on an empty envelope")
        }
    }

    /// The pruned recurrence over positions `from..below`, scanning each
    /// row candidate by candidate: the bounds, then the cost.
    pub(super) fn pruned_dp_span(
        table: &SegmentCostTable,
        value: &mut [f64],
        choice: &mut [usize],
        from: usize,
        below: usize,
        rule: Rule,
    ) -> DpTally {
        let n = table.len();
        let mut candidates = 0u64;
        let mut prune_breaks = 0u64;
        for x in (from..below).rev() {
            let mut best = f64::INFINITY;
            let mut best_j = n - 1;
            // Product-form candidates evaluated, and the incumbent the
            // suffix bound is held against once there are enough of them.
            let mut streamed = 0usize;
            let mut cutoff_incumbent = None;
            for j in x..n {
                if table.segment_lower_bound(x, j) > best {
                    prune_breaks += 1;
                    break;
                }
                let product_form =
                    !table.is_saturated() && table.lambda() * table.work(x, j) >= 1e-2;
                if rule == Rule::Suffix && product_form && streamed == STREAMED_BEFORE_CUTOFF {
                    let incumbent = *cutoff_incumbent.get_or_insert(best);
                    let bound =
                        table.suffix_lower_bound_with_coefficient(x, j, table.coefficient(x));
                    if bound > incumbent {
                        prune_breaks += 1;
                        break;
                    }
                } else if product_form {
                    streamed += 1;
                }
                candidates += 1;
                let cost = table.cost(x, j) + value[j + 1];
                if cost < best {
                    best = cost;
                    best_j = j;
                }
            }
            value[x] = best;
            choice[x] = best_j;
        }
        DpTally { positions: (below - from) as u64, candidates, prune_breaks }
    }

    /// The levelled DP scanning `j` once per state `(x, p, s)`.
    pub(super) fn optimal_levelled_placement_on_table(
        table: &LevelledCostTable,
        rule: Rule,
    ) -> (f64, Vec<(usize, usize)>, DpTally) {
        let n = table.len();
        let levels = table.level_count();
        let (bounded, budget) = match table.levels().bounded() {
            Some((idx, slots)) => (Some(idx), slots.min(n)),
            None => (None, 0),
        };
        let slot_states = budget + 1;
        let states = levels * slot_states;
        let idx = |x: usize, p: usize, s: usize| (x * levels + p) * slot_states + s;
        let free_level = (0..levels).find(|&level| bounded != Some(level)).unwrap_or(0);
        let mut value = vec![0.0f64; (n + 1) * states];
        let mut choice_j = vec![0usize; n * states];
        let mut choice_level = vec![0usize; n * states];
        let mut candidates = 0u64;
        let mut prune_breaks = 0u64;
        for x in (0..n).rev() {
            for p in 0..levels {
                let coefficient = table.table(p).coefficient(x);
                for s in 0..slot_states {
                    let mut best = f64::INFINITY;
                    let mut best_j = n - 1;
                    let mut best_level = free_level;
                    for j in x..n {
                        let mut bound =
                            table.table(0).segment_lower_bound_with_coefficient(x, j, coefficient);
                        for level in 1..levels {
                            bound =
                                bound.min(table.table(level).segment_lower_bound_with_coefficient(
                                    x,
                                    j,
                                    coefficient,
                                ));
                        }
                        if rule == Rule::Suffix {
                            bound = bound.max(table.table(0).suffix_lower_bound_with_coefficient(
                                x,
                                j,
                                coefficient,
                            ));
                        }
                        if bound > best {
                            prune_breaks += 1;
                            break;
                        }
                        for level in 0..levels {
                            let next_s = match bounded {
                                Some(b) if b == level => {
                                    if s == 0 {
                                        continue;
                                    }
                                    s - 1
                                }
                                _ => s,
                            };
                            candidates += 1;
                            let cost = table.table(level).cost_with_coefficient(x, j, coefficient)
                                + value[idx(j + 1, level, next_s)];
                            if cost < best {
                                best = cost;
                                best_j = j;
                                best_level = level;
                            }
                        }
                    }
                    value[idx(x, p, s)] = best;
                    choice_j[idx(x, p, s)] = best_j;
                    choice_level[idx(x, p, s)] = best_level;
                }
            }
        }
        let tally = DpTally { positions: (n * states) as u64, candidates, prune_breaks };

        let mut checkpoints = Vec::new();
        let (mut x, mut p, mut s) = (0usize, 0usize, budget);
        while x < n {
            let state = idx(x, p, s);
            let j = choice_j[state];
            let level = choice_level[state];
            checkpoints.push((j, level));
            if bounded == Some(level) {
                s -= 1;
            }
            p = level;
            x = j + 1;
        }
        (value[idx(0, 0, budget)], checkpoints, tally)
    }
}

/// The shapes of order the walls draw, each aimed at a tie rule.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Weights, checkpoint and recovery costs all drawn independently.
    Heterogeneous,
    /// One weight, one checkpoint and one recovery cost everywhere: equal
    /// segments cost exactly the same.
    Uniform,
    /// Weights alternating 100/200 and checkpoint costs 200/0, so
    /// `prefix[j+1] + C_j` repeats in pairs and many slopes coincide.
    Periodic,
    /// Weights alternating 100 and 10⁻³⁰⁰, one checkpoint and one recovery
    /// cost: the tiny weights vanish from the prefix sums, so each pair of
    /// positions has one query point, and its two lines are the same line
    /// (equal slopes and equal intercepts). Only the tie rules decide
    /// which of them an envelope keeps.
    Absorbed,
    /// Weights and recovery costs drawn independently, every checkpoint
    /// free: a segment's exponent is `λ·work` alone, so a pruned row's
    /// split falls exactly where `cost` switches from `exp_m1` to the
    /// product form.
    FreeCheckpoints,
    /// Weights of 1–2, one checkpoint cost of 1 and recoveries drawn in
    /// 0–10⁴: a query point's recovery term outweighs thousands of prefix
    /// steps, so the point order is far from descending position order and
    /// its sort hands off to the comparison sort, while the slopes still
    /// rise with the position and the blocks' slope orders are finished by
    /// insertion.
    RecoveryJitter,
}

/// An order's weights, checkpoint costs, protecting recoveries (entry 0 the
/// initial recovery) and downtime.
type Order = (Vec<f64>, Vec<f64>, Vec<f64>, f64);

/// An order of `n` positions of `shape`.
fn order(shape: Shape, seed: u64, n: usize) -> Order {
    let mut rng = Pcg64::seed_from_u64(seed);
    match shape {
        Shape::Heterogeneous => {
            let weights = (0..n).map(|_| 10.0 + rng.next_f64() * 1_990.0).collect();
            let ckpt = (0..n).map(|_| rng.next_f64() * 250.0).collect();
            let rec = (0..n).map(|_| rng.next_f64() * 250.0).collect();
            (weights, ckpt, rec, rng.next_f64() * 60.0)
        }
        Shape::Uniform => (vec![100.0; n], vec![60.0; n], vec![90.0; n], 30.0),
        Shape::Periodic => {
            let weights = (0..n).map(|k| [100.0, 200.0][k % 2]).collect();
            let ckpt = (0..n).map(|k| [200.0, 0.0][k % 2]).collect();
            (weights, ckpt, vec![50.0; n], 10.0)
        }
        Shape::Absorbed => {
            let weights = (0..n).map(|k| [100.0, 1e-300][k % 2]).collect();
            (weights, vec![60.0; n], vec![90.0; n], 30.0)
        }
        Shape::FreeCheckpoints => {
            let weights = (0..n).map(|_| 10.0 + rng.next_f64() * 1_990.0).collect();
            let rec = (0..n).map(|_| rng.next_f64() * 250.0).collect();
            (weights, vec![0.0; n], rec, rng.next_f64() * 60.0)
        }
        Shape::RecoveryJitter => {
            let weights = (0..n).map(|_| 1.0 + rng.next_f64()).collect();
            let rec = (0..n).map(|_| rng.next_f64() * 1e4).collect();
            (weights, vec![1.0; n], rec, 30.0)
        }
    }
}

/// The order's segment-cost table at `λ = lambda_w / total work`.
fn table_at(shape: Shape, seed: u64, n: usize, lambda_w: f64) -> SegmentCostTable {
    let (weights, ckpt, rec, downtime) = order(shape, seed, n);
    let total: f64 = weights.iter().sum();
    SegmentCostTable::new(lambda_w / total, downtime, &weights, &ckpt, &rec).unwrap()
}

/// Solves `table` with both blocked kernels at block size `block` and
/// asserts they agree bit for bit, counts included. Returns the number of
/// adjacent positions with equal slopes, and of those whose lines are the
/// same line, so callers can check that a tie input has ties, and how the
/// solve's sorts finished.
fn assert_blocked_kernels_agree(
    table: &SegmentCostTable,
    block: usize,
    label: &str,
) -> (usize, usize, SortTally) {
    let mut scratch = ChainDpScratch::new();
    let placement = blocked_placement_with_block_into(table, block, &mut scratch);
    let mut old = reference::Scratch::default();
    let expected = reference::blocked_placement_with_block_into(table, block, &mut old);
    assert_eq!(
        placement.expected_makespan.to_bits(),
        expected.expected_makespan.to_bits(),
        "{label}: value {} vs {}",
        placement.expected_makespan,
        expected.expected_makespan
    );
    assert_eq!(placement.checkpoint_positions, expected.checkpoint_positions, "{label}");
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&scratch.value), bits(&old.value), "{label}: DP values");
    assert_eq!(scratch.choice, old.choice, "{label}: DP choices");
    assert_eq!(scratch.tree.inserts, old.tree.inserts, "{label}: Li Chao inserts");
    assert_eq!(scratch.tree.visits, old.tree.visits, "{label}: Li Chao visits");
    assert_eq!(scratch.tree.inserts, table.len() as u64, "{label}: one insert per position");
    let equal_slopes: Vec<usize> =
        (1..table.len()).filter(|&j| table.slope(j) == table.slope(j - 1)).collect();
    let same_lines = equal_slopes.iter().filter(|&&j| old.value[j + 1] == old.value[j]).count();
    (equal_slopes.len(), same_lines, scratch.sorts)
}

#[test]
fn blocked_kernel_matches_the_per_range_sorting_kernel() {
    let (mut periodic_ties, mut absorbed_ties) = (0usize, 0usize);
    for shape in [Shape::Heterogeneous, Shape::Uniform, Shape::Periodic, Shape::Absorbed] {
        // At λ·W = 2·10⁻¹⁷ every e^{λ·prefix} rounds to 1: all slopes are
        // 1.0 and, under one recovery cost, all query points are equal.
        let rates = [2e-17, 1e-3, 0.1, 3.0, 30.0, 300.0, 640.0];
        for (seed, lambda_w) in rates.into_iter().enumerate() {
            let seed = seed as u64;
            for n in [1usize, 2, 5, 37, 300, 1_500] {
                let table = table_at(shape, seed, n, lambda_w);
                if table.is_saturated() {
                    // λ·(W + max C) > 650 on the shortest orders at the
                    // highest rates: the blocked kernel never sees these.
                    assert!(n < 300, "{shape:?} n {n} λW {lambda_w} saturated");
                    continue;
                }
                for block in [1usize, 2, 3, 7, 64, DP_BLOCK] {
                    let label = format!("{shape:?} seed {seed} λW {lambda_w} n {n} block {block}");
                    let (equal_slopes, same_lines, _) =
                        assert_blocked_kernels_agree(&table, block, &label);
                    match shape {
                        Shape::Periodic => periodic_ties += equal_slopes,
                        Shape::Absorbed => absorbed_ties += same_lines,
                        _ => {}
                    }
                }
            }
        }
    }
    assert!(periodic_ties > 0, "the periodic orders produced no equal slopes");
    assert!(absorbed_ties > 0, "the absorbed orders produced no coinciding lines");
}

/// Orders whose recovery jitter dwarfs their weights, at the production
/// block size: the kernel hands its point order to the comparison sort and
/// finishes the blocks' slope orders by insertion, and both kernels still
/// agree bit for bit.
#[test]
fn blocked_kernel_matches_the_per_range_sorting_kernel_past_the_insertion_budget() {
    for n in [1_500usize, 6_000] {
        for (seed, lambda_w) in [3.0, 30.0].into_iter().enumerate() {
            let table = table_at(Shape::RecoveryJitter, seed as u64, n, lambda_w);
            let label = format!("RecoveryJitter seed {seed} λW {lambda_w} n {n}");
            let (.., sorts) = assert_blocked_kernels_agree(&table, DP_BLOCK, &label);
            assert_both_sorts_ran(sorts, &label);
        }
    }
}

/// Asserts that a solve's sorts took both of [`sort_positions`]'s paths.
fn assert_both_sorts_ran(sorts: SortTally, label: &str) {
    assert!(sorts.by_comparison > 0, "{label}: no sort handed off to the comparison sort");
    assert!(sorts.by_insertion > 0, "{label}: no sort finished by insertion");
}

/// The production-size twin: 10⁵ positions at the production block size,
/// up to λ·W = 640, just under the table's saturation switch.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn blocked_kernel_matches_the_per_range_sorting_kernel_at_production_size() {
    for shape in [Shape::Heterogeneous, Shape::Uniform, Shape::Absorbed, Shape::RecoveryJitter] {
        for lambda_w in [3.0, 30.0, 300.0, 640.0] {
            let table = table_at(shape, 7, 100_000, lambda_w);
            assert!(!table.is_saturated());
            let label = format!("{shape:?} n 100000 λW {lambda_w}");
            let (.., sorts) = assert_blocked_kernels_agree(&table, DP_BLOCK, &label);
            if let Shape::RecoveryJitter = shape {
                assert_both_sorts_ran(sorts, &label);
            }
        }
    }
}

/// The positions `0..n` sorted by `(key, position)`, as the blocked
/// kernel's point order is.
fn sorted_by_key(keys: &[f64]) -> Vec<u32> {
    let mut positions: Vec<u32> = (0..keys.len() as u32).collect();
    positions.sort_by(|&a, &b| keys[a as usize].total_cmp(&keys[b as usize]));
    positions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// [`sort_positions`] from descending positions gives `sort_by`'s order
    /// on random keys, keys that fall with the position up to a jitter of
    /// 0–40 positions' worth, keys that rise with it (every pair starts
    /// inverted) and equal keys (ties by position: every pair inverted
    /// too), and hands off to the comparison sort exactly when the
    /// insertion pass would have to move more than its budget, the
    /// number of inverted pairs.
    #[test]
    fn prop_sort_positions_matches_sort_by(
        seed in any::<u64>(),
        n in 0usize..400,
        kind in 0usize..4,
        jitter in 0.0f64..40.0,
    ) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let keys: Vec<f64> = match kind {
            0 => (0..n).map(|_| rng.next_f64()).collect(),
            1 => (0..n).map(|x| (n - x) as f64 + jitter * rng.next_f64()).collect(),
            2 => (0..n).map(|x| x as f64).collect(),
            _ => vec![0.5; n],
        };
        let compare =
            |&a: &u32, &b: &u32| keys[a as usize].total_cmp(&keys[b as usize]).then(a.cmp(&b));
        let mut positions: Vec<u32> = (0..n as u32).rev().collect();
        let inverted = (0..n)
            .map(|i| (i + 1..n).filter(|&k| compare(&positions[i], &positions[k]).is_gt()).count())
            .sum::<usize>();
        let compared = sort_positions(&mut positions, compare);
        prop_assert_eq!(positions, sorted_by_key(&keys));
        prop_assert_eq!(compared, inverted > INSERTION_MOVES_PER_POSITION * n);
    }
}

/// A seed-derived hierarchy of 1–3 levels, at most one of them bounded by
/// 0–11 slots.
fn random_levels(rng: &mut Pcg64) -> StorageLevels {
    let count = 1 + (rng.next_f64() * 3.0) as usize;
    let bounded = (rng.next_f64() * (count + 1) as f64) as usize;
    let levels = (0..count)
        .map(|level| {
            let factors =
                StorageLevel::new(0.05 + rng.next_f64() * 2.0, 0.05 + rng.next_f64() * 2.0)
                    .unwrap();
            let slots = (rng.next_f64() * 12.0) as usize;
            if level == bounded {
                factors.with_slots(slots)
            } else {
                factors
            }
        })
        .collect();
    StorageLevels::new(levels).unwrap()
}

/// Solves `table` with the levelled DP and asserts that its value and
/// checkpoints equal the per-state scan's under [`Rule::Segment`] bit for
/// bit, that its work equals the per-state scan's under [`Rule::Suffix`],
/// and that it evaluates no more candidates than the former. Returns the
/// candidates of both rules.
fn assert_levelled_dps_agree(table: &LevelledCostTable, label: &str) -> (u64, u64) {
    let (value, checkpoints, tally) = optimal_levelled_placement_on_table(table);
    let (expected_value, expected_checkpoints, answer_tally) =
        reference::optimal_levelled_placement_on_table(table, Rule::Segment);
    let (suffix_value, suffix_checkpoints, expected_tally) =
        reference::optimal_levelled_placement_on_table(table, Rule::Suffix);
    assert_eq!(value.to_bits(), expected_value.to_bits(), "{label}: {value} vs {expected_value}");
    assert_eq!(checkpoints, expected_checkpoints, "{label}");
    assert_eq!(suffix_value.to_bits(), expected_value.to_bits(), "{label}: suffix rule value");
    assert_eq!(suffix_checkpoints, expected_checkpoints, "{label}: suffix rule checkpoints");
    assert_eq!(tally, expected_tally, "{label}");
    assert_eq!(tally.positions, answer_tally.positions, "{label}");
    assert!(tally.candidates <= answer_tally.candidates, "{label}: {tally:?} vs {answer_tally:?}");
    (answer_tally.candidates, tally.candidates)
}

#[test]
fn levelled_row_scan_matches_the_per_state_scan() {
    let mut rng = Pcg64::seed_from_u64(0x1e7e_11ed);
    let mut cut_short = 0usize;
    for case in 0..160u64 {
        let shape = [Shape::Heterogeneous, Shape::Uniform, Shape::Periodic, Shape::Absorbed]
            [case as usize % 4];
        let n = 1 + (rng.next_f64() * 48.0) as usize;
        // λ·W up to 2 000: the levelled DP has no saturated fallback, and
        // past ~700 per segment costs overflow to +∞.
        let lambda_w = 10f64.powf(-3.0 + rng.next_f64() * 6.3);
        let levels = if case % 8 == 0 { StorageLevels::single() } else { random_levels(&mut rng) };
        if let [only] = levels.levels() {
            if only.slots() == Some(0) {
                continue;
            }
        }
        let (weights, ckpt, rec, downtime) = order(shape, case, n);
        let total: f64 = weights.iter().sum();
        let table =
            LevelledCostTable::new(lambda_w / total, downtime, &weights, &ckpt, &rec, levels)
                .unwrap();
        let (answer, suffix) = assert_levelled_dps_agree(
            &table,
            &format!("case {case} {shape:?} n {n} λW {lambda_w}"),
        );
        cut_short += usize::from(suffix < answer);
    }
    assert!(cut_short > 0, "the suffix bound never cut a levelled scan short");
}

/// The per-row candidate counts of a pruned solve, sorted by where the row
/// meets the `exp_m1`/product split of
/// [`SegmentCostTable::pruned_row`], and by whether the suffix bound cut it
/// short.
#[derive(Debug, Default)]
struct RowCoverage {
    /// Rows whose every candidate has `λ·work < 10⁻²`.
    all_head: usize,
    /// Rows split mid-row whose scan reached past the split.
    split_crossed: usize,
    /// Rows whose first candidate already has `λ·work ≥ 10⁻²`.
    product_only: usize,
    /// Rows of saturated tables (the per-candidate scan throughout).
    saturated: usize,
    /// Rows that evaluated fewer candidates than under [`Rule::Segment`].
    cut_short: usize,
}

impl RowCoverage {
    fn add(&mut self, table: &SegmentCostTable, rows: &PrunedRows) {
        let n = table.len();
        for (x, (answer, scanned)) in rows.segment.iter().zip(&rows.suffix).enumerate() {
            self.cut_short += usize::from(scanned.candidates < answer.candidates);
            if table.is_saturated() {
                self.saturated += 1;
                continue;
            }
            let head = (x..n).take_while(|&j| table.lambda() * table.work(x, j) < 1e-2).count();
            if head == n - x {
                self.all_head += 1;
            } else if head == 0 {
                self.product_only += 1;
            } else if scanned.candidates as usize > head {
                self.split_crossed += 1;
            }
        }
    }
}

/// The reference's work on each row of one solve, under each rule.
struct PrunedRows {
    segment: Vec<DpTally>,
    suffix: Vec<DpTally>,
}

impl PrunedRows {
    /// The work of the rows `from..` under [`Rule::Suffix`], checked to be
    /// no more than under [`Rule::Segment`].
    fn span(&self, from: usize, label: &str) -> DpTally {
        let sum = |rows: &[DpTally]| DpTally {
            positions: rows.len() as u64,
            candidates: rows.iter().map(|row| row.candidates).sum(),
            prune_breaks: rows.iter().map(|row| row.prune_breaks).sum(),
        };
        let (answer, work) = (sum(&self.segment[from..]), sum(&self.suffix[from..]));
        assert!(work.candidates <= answer.candidates, "{label}: {work:?} vs {answer:?}");
        work
    }
}

/// Runs [`reference::pruned_dp_span`] over `from..below` under both rules
/// from the same `value` and `choice`, asserts that they agree on every
/// value and choice bit for bit, and returns the results with each row's
/// work under each rule.
fn reference_rows(
    table: &SegmentCostTable,
    value: &[f64],
    choice: &[usize],
    from: usize,
    below: usize,
    label: &str,
) -> (Vec<f64>, Vec<usize>, PrunedRows) {
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let solve = |rule| {
        let (mut value, mut choice) = (value.to_vec(), choice.to_vec());
        let mut rows = vec![DpTally::default(); below - from];
        for x in (from..below).rev() {
            rows[x - from] =
                reference::pruned_dp_span(table, &mut value, &mut choice, x, x + 1, rule);
        }
        (value, choice, rows)
    };
    let (value, choice, segment) = solve(Rule::Segment);
    let (suffix_value, suffix_choice, suffix) = solve(Rule::Suffix);
    assert_eq!(bits(&suffix_value), bits(&value), "{label}: suffix rule values");
    assert_eq!(suffix_choice, choice, "{label}: suffix rule choices");
    (value, choice, PrunedRows { segment, suffix })
}

/// Solves `order` at `lambda` through every entry that runs the pruned
/// recurrence and asserts each agrees with [`reference::pruned_dp_span`]:
/// in values and choices bit for bit with [`Rule::Segment`], in work
/// exactly with [`Rule::Suffix`]. The entries are [`ResumableDp::solve`],
/// [`ResumableDp::try_prefix`] at `split` (on a table whose recoveries
/// differ below `split`, and on one whose weights below `split` are
/// reversed, so that its prefix sums past `split` differ in the last bits,
/// as the order search's do), and [`ResumableDp::solve_suffix`] from
/// `split`, checked in values, choices and the state's tally;
/// [`optimal_chain_schedule`] on the order as a chain instance, and the
/// dispatch where it runs the pruned DP, in values and placements. Returns
/// the table and its rows' work.
fn assert_pruned_entries_agree(
    order: &Order,
    lambda: f64,
    split: usize,
    label: &str,
) -> (SegmentCostTable, PrunedRows) {
    let (weights, ckpt, rec, downtime) = order;
    let n = weights.len();
    let table = SegmentCostTable::new(lambda, *downtime, weights, ckpt, rec).unwrap();
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

    let (value, choice, rows) = reference_rows(&table, &vec![0.0; n + 1], &vec![0; n], 0, n, label);

    let mut dp = ResumableDp::new();
    assert_eq!(dp.solve(&table).to_bits(), value[0].to_bits(), "{label}: solve");
    assert_eq!(bits(&dp.value), bits(&value), "{label}: solve values");
    assert_eq!(dp.choice, choice, "{label}: solve choices");
    assert_eq!(dp.tally, rows.span(0, label), "{label}: solve work");

    let mut changed_rec = rec.clone();
    for r in &mut changed_rec[..split] {
        *r = 0.5 * *r + 7.0;
    }
    let mut reversed = weights.clone();
    reversed[..split].reverse();
    let trials = [
        SegmentCostTable::new(lambda, *downtime, weights, ckpt, &changed_rec),
        SegmentCostTable::new(lambda, *downtime, &reversed, ckpt, rec),
    ];
    for (trial, changed) in ["recoveries", "reversed weights"].into_iter().zip(trials) {
        let Ok(changed) = changed else {
            // Reversing moves an absorbed weight next to a large prefix sum
            // where it no longer vanishes, or the other way round, and the
            // rate check rejects the new order; the original passed it.
            continue;
        };
        let label = format!("{label}: try_prefix on {trial}");
        let (trial_value, trial_choice, trial_rows) =
            reference_rows(&changed, &value, &choice, 0, split, &label);
        let resumed = dp.try_prefix(&changed, split);
        assert_eq!(resumed.to_bits(), trial_value[0].to_bits(), "{label}");
        assert_eq!(bits(&dp.trial_value), bits(&trial_value), "{label}: values");
        assert_eq!(dp.trial_choice, trial_choice, "{label}: choices");
        assert_eq!(dp.tally, trial_rows.span(0, &label), "{label}: work");
    }

    let mut suffix = ResumableDp::new();
    let suffix_value = suffix.solve_suffix(&table, split);
    assert_eq!(suffix_value.to_bits(), value[split].to_bits(), "{label}: solve_suffix");
    assert_eq!(bits(&suffix.value[split..]), bits(&value[split..]), "{label}: suffix values");
    assert_eq!(suffix.choice[split..], choice[split..], "{label}: suffix choices");
    assert_eq!(suffix.tally, rows.span(split, label), "{label}: solve_suffix work");

    // The chain instance whose table is `table`: position x > 0 is
    // protected by task x − 1's recovery, and the last task's protects
    // nothing.
    let mut task_rec = rec[1..].to_vec();
    task_rec.push(0.0);
    let instance = ProblemInstance::builder(generators::chain(weights).unwrap())
        .checkpoint_costs(ckpt.clone())
        .recovery_costs(task_rec)
        .initial_recovery(rec[0])
        .downtime(*downtime)
        .platform_lambda(lambda)
        .build()
        .unwrap();
    let solution = optimal_chain_schedule(&instance).unwrap();
    let positions = positions_from_choice(&choice);
    assert_eq!(solution.expected_makespan.to_bits(), value[0].to_bits(), "{label}: chain");
    assert_eq!(solution.checkpoint_positions, positions, "{label}: chain positions");

    if n < SCALABLE_THRESHOLD || table.is_saturated() {
        let mut scratch = ChainDpScratch::new();
        let placement = scalable_placement_on_table_with_scratch(&table, &mut scratch);
        assert_eq!(placement.expected_makespan.to_bits(), value[0].to_bits(), "{label}: dispatch");
        assert_eq!(placement.checkpoint_positions, positions, "{label}: dispatch positions");
        assert_eq!(bits(&scratch.value), bits(&value), "{label}: dispatch values");
        assert_eq!(scratch.choice, choice, "{label}: dispatch choices");
    }
    (table, rows)
}

#[test]
fn pruned_row_matches_the_per_candidate_scan() {
    let mut coverage = RowCoverage::default();
    for shape in [Shape::Heterogeneous, Shape::Absorbed, Shape::FreeCheckpoints, Shape::Uniform] {
        // From rows that are all head (λ·W = 10⁻¹⁷) through rows split
        // mid-row to rows without a head (λ·W ≥ 300), and saturated
        // tables (λ·W = 1 000).
        let rates = [1e-17, 1e-4, 0.03, 0.3, 3.0, 30.0, 300.0, 640.0, 1_000.0];
        for (seed, lambda_w) in rates.into_iter().enumerate() {
            for n in [1usize, 2, 5, 37, 300] {
                let order = order(shape, seed as u64, n);
                let lambda = lambda_w / order.0.iter().sum::<f64>();
                let label = format!("{shape:?} seed {seed} λW {lambda_w} n {n}");
                let (weights, ckpt, rec, downtime) = &order;
                if SegmentCostTable::new(lambda, *downtime, weights, ckpt, rec).is_err() {
                    // A weight absorbed by the prefix sum (a zero step)
                    // next to a coefficient e^{λR}(1/λ + D) that
                    // overflows: the rate check rejects the order.
                    assert!(matches!(shape, Shape::Absorbed) && lambda_w >= 1_000.0, "{label}");
                    continue;
                }
                let (table, rows) = assert_pruned_entries_agree(&order, lambda, n / 2, &label);
                coverage.add(&table, &rows);
            }
        }
    }
    assert!(coverage.all_head > 0, "{coverage:?}");
    assert!(coverage.split_crossed > 0, "{coverage:?}");
    assert!(coverage.product_only > 0, "{coverage:?}");
    assert!(coverage.saturated > 0, "{coverage:?}");
    assert!(coverage.cut_short > 0, "{coverage:?}");

    // The reversed-weights trial of `assert_pruned_entries_agree` reaches
    // prefix sums that differ past the window in their last bits.
    let (weights, ckpt, rec, downtime) = order(Shape::Heterogeneous, 3, 300);
    let mut reversed = weights.clone();
    reversed[..150].reverse();
    let table = SegmentCostTable::new(1e-6, downtime, &weights, &ckpt, &rec).unwrap();
    let trial = SegmentCostTable::new(1e-6, downtime, &reversed, &ckpt, &rec).unwrap();
    assert!((150..300).any(|j| table.work(0, j) != trial.work(0, j)));

    // Integer weights keep every prefix sum, and so every segment's work,
    // exact; λ = target / 64 is exact too, so each scanned segment of 64 s
    // of work has λ·work equal to the target bit for bit.
    for target in [1e-2f64.next_down(), 1e-2, 1e-2f64.next_up()] {
        for free in [true, false] {
            let n = 300;
            let mut rng = Pcg64::seed_from_u64(target.to_bits() ^ u64::from(free));
            let mut integer = |high: f64| (rng.next_f64() * high).floor();
            let weights: Vec<f64> = (0..n).map(|_| 1.0 + integer(16.0)).collect();
            let ckpt = (0..n).map(|_| if free { 0.0 } else { integer(8.0) }).collect();
            let rec = (0..n).map(|_| integer(32.0)).collect();
            let order = (weights, ckpt, rec, 10.0);
            let label = format!("λ·64 = {target:e}, free checkpoints {free}");
            let (table, rows) = assert_pruned_entries_agree(&order, target / 64.0, n / 2, &label);
            let on_target = (0..n)
                .filter(|&x| {
                    let scanned = rows.suffix[x].candidates as usize;
                    (x..x + scanned).any(|j| table.lambda() * table.work(x, j) == target)
                })
                .count();
            assert!(on_target > 0, "{label}: no scanned segment lands on the target");
        }
    }
}

/// The production-size twin: plan-mixed's flat class (2 650 tasks at
/// λ = 10⁻⁶, costs drawn from perfbench's ranges), and 10⁴ positions at
/// λ·W = 0.05, where the split moves across the rows.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn pruned_row_matches_the_per_candidate_scan_at_production_size() {
    let n = 2_650;
    let mut rng = Pcg64::seed_from_u64(2_650);
    let mut draw = |low: f64, high: f64| low + rng.next_f64() * (high - low);
    let weights = (0..n).map(|_| draw(100.0, 2_000.0)).collect();
    let ckpt = (0..n).map(|_| draw(10.0, 300.0)).collect();
    let mut rec: Vec<f64> = (0..n).map(|_| draw(10.0, 600.0)).collect();
    rec[0] = 20.0;
    let flat = (weights, ckpt, rec, 30.0);
    let mut coverage = RowCoverage::default();
    let (table, rows) = assert_pruned_entries_agree(&flat, 1e-6, n / 2, "plan-mixed flat class");
    coverage.add(&table, &rows);
    assert!(coverage.split_crossed > n / 2, "{coverage:?}");
    assert!(coverage.cut_short > n / 2, "{coverage:?}");

    let n = 10_000;
    let long = order(Shape::Heterogeneous, 7, n);
    let lambda = 0.05 / long.0.iter().sum::<f64>();
    let mut coverage = RowCoverage::default();
    let (table, rows) = assert_pruned_entries_agree(&long, lambda, n / 2, "10⁴ positions");
    coverage.add(&table, &rows);
    assert!(coverage.all_head > 0 && coverage.split_crossed > 0, "{coverage:?}");
}

/// The suffix bound fires where rows run long: in the regime of b1's
/// `pruned_sparse` row (4 096 weights drawn from `[100, 2 000]`, `C = 60`,
/// `R = 90`, `D = 30`, `λ·W = 3`), the production solve evaluates at most a
/// quarter of the candidates the first-segment bound alone lets through,
/// with the same values and choices.
#[test]
fn suffix_bound_cuts_long_rows_to_a_quarter() {
    let n = 4_096;
    let mut rng = Pcg64::seed_from_u64(11);
    let weights: Vec<f64> = (0..n).map(|_| rng.next_range(100.0, 2_000.0)).collect();
    let lambda = 3.0 / weights.iter().sum::<f64>();
    let table =
        SegmentCostTable::new(lambda, 30.0, &weights, &[60.0; 4_096], &[90.0; 4_096]).unwrap();
    let (mut value, mut choice) = (vec![0.0; n + 1], vec![0; n]);
    let answer = reference::pruned_dp_span(&table, &mut value, &mut choice, 0, n, Rule::Segment);
    let mut dp = ResumableDp::new();
    assert_eq!(dp.solve(&table).to_bits(), value[0].to_bits());
    assert_eq!(dp.choice, choice);
    assert!(4 * dp.tally.candidates <= answer.candidates, "{:?} vs {answer:?}", dp.tally);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random orders of up to 300 positions at `λ·W` from `10⁻¹⁷` to 1 000,
    /// with free, heterogeneous and absorbed costs: every pruned entry
    /// (prefix re-solves on tables whose prefix sums differ past the
    /// window included) and the levelled DP on two levels with 0–8 fast
    /// slots keep the answer oracle's values, choices and levels bit for
    /// bit, with the work oracle's counts.
    #[test]
    fn prop_suffix_bound_keeps_every_answer(
        seed in any::<u64>(),
        n in 1usize..301,
        log_lambda_w in -17.0f64..3.0,
        shape in 0usize..3,
        split in 0.0f64..1.0,
        slots in 0usize..9,
    ) {
        let shape = [Shape::FreeCheckpoints, Shape::Heterogeneous, Shape::Absorbed][shape];
        let order = order(shape, seed, n);
        let (weights, ckpt, rec, downtime) = &order;
        let lambda = 10f64.powf(log_lambda_w) / weights.iter().sum::<f64>();
        let label = format!("{shape:?} seed {seed} n {n} λW 1e{log_lambda_w}");
        if SegmentCostTable::new(lambda, *downtime, weights, ckpt, rec).is_ok() {
            let split = (split * n as f64) as usize;
            assert_pruned_entries_agree(&order, lambda, split, &label);
        }
        let levels = StorageLevels::two_level(
            StorageLevel::new(0.25, 0.2).unwrap().with_slots(slots),
            StorageLevel::new(1.0, 1.0).unwrap(),
        )
        .unwrap();
        if let Ok(table) = LevelledCostTable::new(lambda, *downtime, weights, ckpt, rec, levels) {
            assert_levelled_dps_agree(&table, &format!("{label} slots {slots}"));
        }
    }
}
