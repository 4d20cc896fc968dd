//! Differential walls for the Algorithm 1 kernels against the formulations
//! they replaced.
//!
//! [`reference`] holds the code of the blocked kernel that sorted each
//! range of its recursion afresh (lines by slope and queries by point at
//! every node, a sorted domain per block, a binary search per Li Chao
//! query) and of the levelled DP that scanned `j` once per state
//! `(x, p, s)`, as it was, most comments trimmed. The one edit is that they
//! tally their work in locals instead of the process-wide solver counters,
//! so the walls compare counts without racing the tests that run beside
//! them. The production kernels keep their own tallies (the Li Chao
//! tree's, the levelled DP's [`DpTally`]) and the walls read those, not the
//! counters.
//!
//! Each wall asserts bitwise equality: DP values (every position, as bits),
//! choices, placements, and the work counts — Li Chao inserts and node
//! visits, DP candidates and prune breaks. The inputs aim at the tie rules:
//! uniform costs (exactly equal segment costs), periodic orders whose
//! slopes coincide, orders whose tiny weights vanish from the prefix sums
//! (coinciding lines and query points), and a rate so small that every
//! slope and query point rounds to the same value. Swapping any tie rule
//! of the kernel (the merge's, the hull's, the block sort's, the domain's)
//! makes them fail.

use ckpt_expectation::segment_cost::SegmentCostTable;
use ckpt_expectation::storage::{LevelledCostTable, StorageLevel, StorageLevels};
use ckpt_failure::{Pcg64, RandomSource};

use super::{
    blocked_placement_with_block_into, optimal_levelled_placement_on_table, ChainDpScratch,
    DpTally, DP_BLOCK,
};

/// The replaced kernels, kept as they were.
mod reference {
    use super::super::{positions_from_choice, resummed_value, TablePlacement};
    use super::{DpTally, LevelledCostTable, SegmentCostTable};

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

    /// The levelled DP scanning `j` once per state `(x, p, s)`.
    pub(super) fn optimal_levelled_placement_on_table(
        table: &LevelledCostTable,
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
}

/// An order of `n` positions of `shape`: weights, checkpoint costs,
/// protecting recoveries (entry 0 the initial recovery) and downtime.
fn order(shape: Shape, seed: u64, n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, f64) {
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
/// same line, so callers can check that a tie input has ties.
fn assert_blocked_kernels_agree(
    table: &SegmentCostTable,
    block: usize,
    label: &str,
) -> (usize, usize) {
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
    (equal_slopes.len(), same_lines)
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
                    let (equal_slopes, same_lines) =
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

/// The production-size twin: 10⁵ positions at the production block size,
/// up to λ·W = 640, just under the table's saturation switch.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn blocked_kernel_matches_the_per_range_sorting_kernel_at_production_size() {
    for shape in [Shape::Heterogeneous, Shape::Uniform, Shape::Absorbed] {
        for lambda_w in [3.0, 30.0, 300.0, 640.0] {
            let table = table_at(shape, 7, 100_000, lambda_w);
            assert!(!table.is_saturated());
            let label = format!("{shape:?} n 100000 λW {lambda_w}");
            assert_blocked_kernels_agree(&table, DP_BLOCK, &label);
        }
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

/// Solves `table` with both levelled DPs and asserts they agree bit for
/// bit, counts included.
fn assert_levelled_dps_agree(table: &LevelledCostTable, label: &str) {
    let (value, checkpoints, tally) = optimal_levelled_placement_on_table(table);
    let (expected_value, expected_checkpoints, expected_tally) =
        reference::optimal_levelled_placement_on_table(table);
    assert_eq!(value.to_bits(), expected_value.to_bits(), "{label}: {value} vs {expected_value}");
    assert_eq!(checkpoints, expected_checkpoints, "{label}");
    assert_eq!(tally, expected_tally, "{label}");
}

#[test]
fn levelled_row_scan_matches_the_per_state_scan() {
    let mut rng = Pcg64::seed_from_u64(0x1e7e_11ed);
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
        assert_levelled_dps_agree(&table, &format!("case {case} {shape:?} n {n} λW {lambda_w}"));
    }
}
