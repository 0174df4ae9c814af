//! Incognito — full-domain k-anonymity (LeFevre, DeWitt, Ramakrishnan,
//! SIGMOD 2005).
//!
//! Full-domain recoding generalizes *every* value of an attribute to
//! the same hierarchy level, so a solution is a vector of levels, one
//! per QI attribute, and the solution space is a lattice ordered by
//! per-coordinate level. Incognito's key insight is the
//! **generalization property**: if a lattice node is k-anonymous,
//! every more general node is too. The original algorithm exploits it
//! via levelwise candidate generation over QI *subsets*; this
//! implementation runs the size-1 subset stage (per-attribute minimum
//! feasible levels) and then applies the same property directly on the
//! pruned full-QI lattice. The kernel counting path additionally runs
//! the size-2 subset stage (`pair_subset_stage`): cheap 2-attribute
//! projections whose failures discard the class-heavy bottom of the
//! lattice before any full partition is materialized. Subset stages
//! only prune — the result set is identical to the original's: **all
//! minimal k-anonymous full-domain generalizations**. Of those, the
//! one with the lowest weighted GCP is published, matching how
//! SECRETA's Evaluation mode reports a single anonymized dataset.

use crate::common::{min_class_size_matrix, RelError, RelOutput, RelationalInput};
use crate::kernel::{Counting, LevelTable, Partition, RecodeTables};
use secreta_data::hash::{FxHashMap, FxHashSet};
use secreta_metrics::anon::rel_column_from_value_map;
use secreta_metrics::{AnonTable, GenEntry, PhaseTimer};

/// Run Incognito on `input` with the kernel counting paths.
pub fn anonymize(input: &RelationalInput) -> Result<RelOutput, RelError> {
    anonymize_with(input, Counting::Kernel)
}

/// Run Incognito with the naive per-node row rescans — the reference
/// oracle the kernel path is tested and benchmarked against.
pub fn anonymize_reference(input: &RelationalInput) -> Result<RelOutput, RelError> {
    anonymize_with(input, Counting::Naive)
}

/// Run Incognito on `input` with an explicit [`Counting`] selection.
pub fn anonymize_with(input: &RelationalInput, counting: Counting) -> Result<RelOutput, RelError> {
    input.validate()?;
    let mut timer = PhaseTimer::new();

    let heights: Vec<u32> = input.hierarchies.iter().map(|h| h.height()).collect();
    let q = input.qi_attrs.len();

    // per-attribute value counts, for GCP-weighted node selection
    let (counts, totals) = input.qi_value_counts();
    // row-major QI values: every lattice-node anonymity check scans
    // all rows, so table lookups must stay out of that loop
    let matrix = input.value_matrix();
    let domains: Vec<usize> = input
        .qi_attrs
        .iter()
        .map(|&a| input.table.domain_size(a))
        .collect();
    // the kernel path recodes through precomputed per-level tables
    // instead of re-deriving `generalize()` per domain value per check
    let tables = match counting {
        Counting::Kernel => Some(RecodeTables::build(&input.hierarchies)),
        Counting::Naive => None,
    };
    timer.phase("setup");

    // Incognito's subset lattice, size-1 stage: an attribute that is
    // not k-anonymous *alone* at some level cannot be part of any
    // k-anonymous combination at that level (projections only merge
    // classes). Computing the per-attribute minimum feasible level
    // first prunes the full lattice sharply.
    let min_level: Vec<u32> = match &tables {
        // kernel: partition the column once at level 0 and roll it up
        // — each level after the first costs O(#groups), not O(n)
        Some(rt) => (0..q)
            .map(|pos| {
                let mut part = Partition::build_column(&matrix, pos, rt.table(pos, 0));
                let mut lvl = 0u32;
                while part.min_size() < input.k {
                    debug_assert!(lvl < heights[pos], "root level is k-anonymous for k <= n");
                    part = part.rollup(0, rt.merge(pos, lvl), rt.table(pos, lvl + 1).n_groups);
                    lvl += 1;
                }
                lvl
            })
            .collect(),
        // naive: per-level full-column rescan, with the single-column
        // matrix extracted once per attribute instead of once per
        // candidate level
        None => (0..q)
            .map(|pos| {
                let col = matrix.column(pos);
                let dom = [domains[pos]];
                (0..=heights[pos])
                    .find(|&lvl| {
                        min_class_size_matrix(&col, &dom, |_, v| {
                            input.hierarchies[pos].generalize(v, lvl)
                        }) >= input.k
                    })
                    // even the root alone is below k only when k > n,
                    // which validate() has excluded
                    .expect("root level is k-anonymous for k <= n")
            })
            .collect(),
    };
    timer.phase("subset pruning");

    // Enumerate lattice nodes grouped by total level (levelwise,
    // bottom-up), applying the generalization property for pruning.
    let recorder = secreta_obsv::current();
    let minimal = match &tables {
        Some(rt) => kernel_lattice_search(input, &matrix, rt, &heights, &min_level, &recorder),
        None => naive_lattice_search(input, &matrix, &domains, &heights, &min_level, &recorder),
    };
    recorder.count("incognito/minimal_nodes", minimal.len() as u64);
    timer.phase("lattice search");

    // The root node is always k-anonymous once k <= n (validated), so
    // `minimal` is non-empty.
    debug_assert!(!minimal.is_empty());

    // choose the minimal node with the lowest weighted GCP (scored
    // once per node, not once per comparison)
    let gcp_of = |node: &[u32]| -> f64 {
        let mut total = 0.0;
        for pos in 0..q {
            let h = &input.hierarchies[pos];
            let c = &counts[pos];
            let rows = totals[pos];
            if rows == 0 {
                continue;
            }
            let mut attr_sum = 0.0;
            for (v, &cv) in c.iter().enumerate() {
                if cv > 0 {
                    attr_sum += h.ncp(h.generalize(v as u32, node[pos])) * cv as f64;
                }
            }
            total += attr_sum / rows as f64;
        }
        total / q as f64
    };
    // deterministic tie-break: equal-GCP minimal nodes resolve to the
    // lexicographically smallest level vector, independent of search
    // and iteration order
    let best = minimal
        .iter()
        .map(|node| (node, gcp_of(node)))
        .min_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("GCP is finite")
                .then_with(|| a.0.cmp(b.0))
        })
        .expect("minimal set non-empty")
        .0
        .clone();
    timer.phase("node selection");

    let rel = input
        .qi_attrs
        .iter()
        .enumerate()
        .map(|(pos, &attr)| {
            let h = &input.hierarchies[pos];
            rel_column_from_value_map(input.table, attr, |v| {
                GenEntry::Node(h.generalize(v.0, best[pos]))
            })
        })
        .collect();
    let anon = AnonTable {
        rel,
        tx: None,
        n_rows: input.table.n_rows(),
    };
    timer.phase("recode");

    Ok(RelOutput {
        anon,
        phases: timer.finish(),
    })
}

/// The original levelwise search: one full-matrix rescan per checked
/// node. Returns all minimal k-anonymous nodes, in enumeration order.
fn naive_lattice_search(
    input: &RelationalInput,
    matrix: &crate::common::ValueMatrix,
    domains: &[usize],
    heights: &[u32],
    min_level: &[u32],
    recorder: &secreta_obsv::Recorder,
) -> Vec<Vec<u32>> {
    let q = input.qi_attrs.len();
    let max_sum: u32 = heights.iter().sum();
    let mut anonymous: FxHashSet<Vec<u32>> = FxHashSet::default();
    let mut minimal: Vec<Vec<u32>> = Vec::new();
    let mut checks = 0u64;
    let mut visited = 0u64;

    for s in 0..=max_sum {
        for node in nodes_with_sum(heights, s) {
            visited += 1;
            // size-1 subset pruning
            if node.iter().zip(min_level).any(|(&l, &ml)| l < ml) {
                continue;
            }
            // predecessor anonymous => node anonymous and non-minimal
            let mut implied = false;
            for i in 0..q {
                if node[i] > 0 {
                    let mut pred = node.clone();
                    pred[i] -= 1;
                    if anonymous.contains(&pred) {
                        implied = true;
                        break;
                    }
                }
            }
            if implied {
                anonymous.insert(node);
                continue;
            }
            checks += 1;
            let m = min_class_size_matrix(matrix, domains, |pos, v| {
                input.hierarchies[pos].generalize(v, node[pos])
            });
            if m >= input.k {
                minimal.push(node.clone());
                anonymous.insert(node);
            }
        }
    }
    recorder.count("incognito/lattice_nodes", visited);
    recorder.count("incognito/anonymity_checks", checks);
    minimal
}

/// The kernel levelwise search. Same pruning and enumeration order as
/// [`naive_lattice_search`], but each checked node's partition is
/// *rolled up* from a failed predecessor's cached partition —
/// O(#classes) instead of an O(n·q) row rescan — and the independent
/// checks within one lattice level run in parallel, merged in fixed
/// node order so the result is byte-identical at any thread count.
///
/// On top of the size-1 stage the kernel path runs Incognito's size-2
/// subset stage: for every attribute pair it sweeps the pair's small
/// 2-D level lattice (the full lattice with every other attribute at
/// its root) and records the level combinations whose two-attribute
/// projection alone is not k-anonymous. The subset property lifts each
/// recorded failure to every full node sharing those two levels, so
/// the deep, class-heavy region of the lattice is discarded without
/// ever materializing its partitions. Pruned nodes are exactly the
/// nodes the naive search checks and fails, so the result set is
/// unchanged.
///
/// Caching only failed nodes is enough: a checked node at sum `s` can
/// have no anonymous predecessor (it would have been pruned by
/// implication), so every predecessor either failed its check at sum
/// `s − 1` (partition cached) or was skipped by subset pruning (fall
/// back to a fresh build from the rows).
fn kernel_lattice_search(
    input: &RelationalInput,
    matrix: &crate::common::ValueMatrix,
    rt: &RecodeTables,
    heights: &[u32],
    min_level: &[u32],
    recorder: &secreta_obsv::Recorder,
) -> Vec<Vec<u32>> {
    let q = input.qi_attrs.len();
    let max_sum: u32 = heights.iter().sum();
    let mut anonymous: FxHashSet<Vec<u32>> = FxHashSet::default();
    let mut minimal: Vec<Vec<u32>> = Vec::new();
    let mut checks = 0u64;
    let mut visited = 0u64;
    let mut rollups = 0u64;
    let mut rolled_classes = 0u64;
    let mut builds = 0u64;
    let mut pair_pruned = 0u64;

    // size-2 subset stage: per attribute pair, the set of level
    // combinations whose 2-attribute projection fails k-anonymity
    let pair_bad = pair_subset_stage(input, matrix, rt, heights, min_level, recorder);

    // partitions of the non-anonymous nodes checked at the previous
    // lattice level, the rollup sources for this level's checks
    let mut prev_parts: FxHashMap<Vec<u32>, Partition> = FxHashMap::default();

    for s in 0..=max_sum {
        let mut to_check: Vec<Vec<u32>> = Vec::new();
        for node in nodes_with_sum(heights, s) {
            visited += 1;
            if node.iter().zip(min_level).any(|(&l, &ml)| l < ml) {
                continue;
            }
            let mut implied = false;
            for i in 0..q {
                if node[i] > 0 {
                    let mut pred = node.clone();
                    pred[i] -= 1;
                    if anonymous.contains(&pred) {
                        implied = true;
                        break;
                    }
                }
            }
            if implied {
                anonymous.insert(node);
                continue;
            }
            // a failed pair projection proves the full node fails:
            // skip the check without materializing its partition
            if pair_bad
                .iter()
                .any(|(a, b, bad)| bad.contains(&(node[*a], node[*b])))
            {
                pair_pruned += 1;
                continue;
            }
            to_check.push(node);
        }

        // the nodes of one level are independent (all pruning reads
        // level s−1 state), so their partitions can be computed
        // concurrently; flattening the chunk results restores
        // enumeration order, and the rollup source (the cached
        // predecessor with the fewest classes, first index on ties)
        // depends only on `prev_parts`
        let evaluate = |node: &Vec<u32>| -> (Partition, bool, u64) {
            let mut src: Option<(usize, &Partition)> = None;
            for i in 0..q {
                if node[i] > 0 {
                    let mut pred = node.clone();
                    pred[i] -= 1;
                    if let Some(p) = prev_parts.get(&pred) {
                        if src.is_none_or(|(_, s)| p.n_classes() < s.n_classes()) {
                            src = Some((i, p));
                        }
                    }
                }
            }
            if let Some((i, p)) = src {
                let nc = p.n_classes() as u64;
                let part = p.rollup(i, rt.merge(i, node[i] - 1), rt.table(i, node[i]).n_groups);
                return (part, true, nc);
            }
            let tabs: Vec<&LevelTable> = (0..q).map(|i| rt.table(i, node[i])).collect();
            (Partition::build(matrix, &tabs), false, 0)
        };
        let results: Vec<(Partition, bool, u64)> =
            secreta_parallel::par_chunks(to_check.len(), 1, |lo, hi| {
                to_check[lo..hi].iter().map(evaluate).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();

        // sequential merge in node order: anonymity bookkeeping,
        // counters and the next level's rollup cache
        let mut next_parts: FxHashMap<Vec<u32>, Partition> = FxHashMap::default();
        for (node, (part, rolled, nc)) in to_check.into_iter().zip(results) {
            checks += 1;
            if rolled {
                rollups += 1;
                rolled_classes += nc;
            } else {
                builds += 1;
            }
            if part.min_size() >= input.k {
                minimal.push(node.clone());
                anonymous.insert(node);
            } else {
                next_parts.insert(node, part);
            }
        }
        prev_parts = next_parts;
    }
    recorder.count("incognito/lattice_nodes", visited);
    recorder.count("incognito/anonymity_checks", checks);
    recorder.count("incognito/rollups", rollups);
    recorder.count("incognito/rolled_classes", rolled_classes);
    recorder.count("incognito/partition_builds", builds);
    recorder.count("incognito/pair_pruned", pair_pruned);
    minimal
}

/// One attribute pair `(a, b)` and the level combinations whose
/// 2-attribute projection fails k-anonymity.
type PairBad = (usize, usize, FxHashSet<(u32, u32)>);

/// Incognito's size-2 subset stage. For every attribute pair `(a, b)`
/// walk the pair's 2-D level lattice levelwise — each node is the full
/// lattice node with every other attribute at its root, so the
/// projection partitions reuse [`Partition::build`]/[`Partition::rollup`]
/// unchanged — and return, per pair, the level combinations whose
/// projection is **not** k-anonymous. These partitions are tiny (the
/// code space is the product of just two attributes' group counts), so
/// the stage costs a few row scans while licensing the main search to
/// skip the lattice's entire class-heavy bottom region.
fn pair_subset_stage(
    input: &RelationalInput,
    matrix: &crate::common::ValueMatrix,
    rt: &RecodeTables,
    heights: &[u32],
    min_level: &[u32],
    recorder: &secreta_obsv::Recorder,
) -> Vec<PairBad> {
    let q = input.qi_attrs.len();
    let mut out = Vec::new();
    let mut pair_checks = 0u64;
    for a in 0..q {
        for b in a + 1..q {
            let mut bad: FxHashSet<(u32, u32)> = FxHashSet::default();
            let mut anon: FxHashSet<(u32, u32)> = FxHashSet::default();
            let mut prev: FxHashMap<(u32, u32), Partition> = FxHashMap::default();
            let base = (min_level[a], min_level[b]);
            let max_sum = heights[a] + heights[b];
            for s in (base.0 + base.1)..=max_sum {
                let mut next: FxHashMap<(u32, u32), Partition> = FxHashMap::default();
                let mut all_anonymous = true;
                for la in base.0..=heights[a].min(s) {
                    let lb = s - la;
                    if lb < base.1 || lb > heights[b] {
                        continue;
                    }
                    // implication pruning within the pair lattice
                    if (la > base.0 && anon.contains(&(la - 1, lb)))
                        || (lb > base.1 && anon.contains(&(la, lb - 1)))
                    {
                        anon.insert((la, lb));
                        continue;
                    }
                    pair_checks += 1;
                    let part = if la > base.0 && prev.contains_key(&(la - 1, lb)) {
                        prev[&(la - 1, lb)].rollup(a, rt.merge(a, la - 1), rt.table(a, la).n_groups)
                    } else if lb > base.1 && prev.contains_key(&(la, lb - 1)) {
                        prev[&(la, lb - 1)].rollup(b, rt.merge(b, lb - 1), rt.table(b, lb).n_groups)
                    } else {
                        let tabs: Vec<&LevelTable> = (0..q)
                            .map(|i| {
                                let lvl = if i == a {
                                    la
                                } else if i == b {
                                    lb
                                } else {
                                    heights[i]
                                };
                                rt.table(i, lvl)
                            })
                            .collect();
                        Partition::build(matrix, &tabs)
                    };
                    if part.min_size() >= input.k {
                        anon.insert((la, lb));
                    } else {
                        all_anonymous = false;
                        bad.insert((la, lb));
                        next.insert((la, lb), part);
                    }
                }
                if all_anonymous && s > base.0 + base.1 {
                    // every projection at this sum is k-anonymous, so
                    // by the generalization property so is everything
                    // above — nothing further can fail
                    break;
                }
                prev = next;
            }
            if !bad.is_empty() {
                out.push((a, b, bad));
            }
        }
    }
    recorder.count("incognito/pair_checks", pair_checks);
    out
}

/// All level vectors bounded by `heights` whose components sum to `s`.
fn nodes_with_sum(heights: &[u32], s: u32) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut cur = vec![0u32; heights.len()];
    fn rec(heights: &[u32], i: usize, remaining: u32, cur: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if i == heights.len() {
            if remaining == 0 {
                out.push(cur.clone());
            }
            return;
        }
        let cap = heights[i].min(remaining);
        for l in 0..=cap {
            cur[i] = l;
            rec(heights, i + 1, remaining - l, cur, out);
        }
        cur[i] = 0;
    }
    rec(heights, 0, s, &mut cur, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::min_class_size;
    use crate::verify::is_k_anonymous;
    use secreta_data::{Attribute, AttributeKind, RtTable, Schema};
    use secreta_hierarchy::auto_hierarchy;
    use secreta_metrics::anon::rel_column_from_value_map;
    use secreta_metrics::gcp;

    fn table() -> RtTable {
        let schema = Schema::new(vec![
            Attribute::numeric("Age"),
            Attribute::categorical("Edu"),
        ])
        .unwrap();
        let mut t = RtTable::new(schema);
        for (age, edu) in [
            ("30", "BSc"),
            ("31", "BSc"),
            ("32", "MSc"),
            ("33", "MSc"),
            ("60", "BSc"),
            ("61", "BSc"),
            ("62", "MSc"),
            ("63", "MSc"),
        ] {
            t.push_row(&[age, edu], &[]).unwrap();
        }
        t
    }

    fn input(t: &RtTable, k: usize) -> RelationalInput<'_> {
        RelationalInput {
            table: t,
            qi_attrs: vec![0, 1],
            hierarchies: vec![
                auto_hierarchy(t.pool(0), AttributeKind::Numeric, 2).unwrap(),
                auto_hierarchy(t.pool(1), AttributeKind::Categorical, 2).unwrap(),
            ],
            k,
        }
    }

    #[test]
    fn produces_k_anonymous_truthful_output() {
        let t = table();
        for k in [1, 2, 4, 8] {
            let out = anonymize(&input(&t, k)).unwrap();
            assert!(is_k_anonymous(&out.anon, k), "k={k}");
            let hs = input(&t, k).hierarchies;
            assert!(out.anon.is_truthful(&t, |a| Some(hs[a].clone()), None));
        }
    }

    #[test]
    fn k1_keeps_original_values() {
        let t = table();
        let out = anonymize(&input(&t, 1)).unwrap();
        let hs = input(&t, 1).hierarchies;
        assert!((gcp(&t, &out.anon, |a| Some(hs[a].clone())) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn loss_is_monotone_in_k() {
        let t = table();
        let hs = input(&t, 1).hierarchies;
        let mut prev = -1.0;
        for k in [1, 2, 4, 8] {
            let out = anonymize(&input(&t, k)).unwrap();
            let g = gcp(&t, &out.anon, |a| Some(hs[a].clone()));
            assert!(
                g >= prev - 1e-12,
                "GCP must not decrease with k: k={k}, {g} < {prev}"
            );
            prev = g;
        }
    }

    #[test]
    fn full_domain_recoding_is_level_uniform() {
        // every value of an attribute must sit at the same depth
        let t = table();
        let out = anonymize(&input(&t, 2)).unwrap();
        let hs = input(&t, 2).hierarchies;
        for (pos, col) in out.anon.rel.iter().enumerate() {
            let h = &hs[pos];
            let depths: Vec<u32> = col
                .domain
                .iter()
                .map(|e| match e {
                    GenEntry::Node(n) => h.height() - (h.depth(*n)),
                    _ => panic!("Incognito emits Node entries"),
                })
                .collect();
            // all leaves were at uniform depth in auto hierarchies, so
            // generalized depth-from-leaf must be uniform too
            assert!(depths.windows(2).all(|w| w[0] == w[1]), "{depths:?}");
        }
    }

    #[test]
    fn infeasible_k_rejected() {
        let t = table();
        assert_eq!(
            anonymize(&input(&t, 9)).unwrap_err(),
            RelError::Infeasible { k: 9, n: 8 }
        );
    }

    #[test]
    fn phases_recorded() {
        let t = table();
        let out = anonymize(&input(&t, 2)).unwrap();
        let names: Vec<&str> = out.phases.phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "setup",
                "subset pruning",
                "lattice search",
                "node selection",
                "recode"
            ]
        );
    }

    #[test]
    fn nodes_with_sum_enumerates_lattice_level() {
        assert_eq!(nodes_with_sum(&[2, 2], 0), vec![vec![0, 0]]);
        let s1 = nodes_with_sum(&[2, 2], 1);
        assert_eq!(s1.len(), 2);
        let s2 = nodes_with_sum(&[2, 2], 2);
        assert_eq!(s2.len(), 3);
        let s4 = nodes_with_sum(&[2, 2], 4);
        assert_eq!(s4, vec![vec![2, 2]]);
        assert!(nodes_with_sum(&[1], 5).is_empty());
    }

    #[test]
    fn pruned_search_matches_exhaustive_reference() {
        // recompute the minimal-GCP k-anonymous full-domain node by
        // brute force and compare with the algorithm's published node
        let t = table();
        let i = input(&t, 4);
        let out = anonymize(&i).unwrap();
        let hs = &i.hierarchies;
        let heights: Vec<u32> = hs.iter().map(|h| h.height()).collect();
        let mut best: Option<(Vec<u32>, f64)> = None;
        for l0 in 0..=heights[0] {
            for l1 in 0..=heights[1] {
                let node = vec![l0, l1];
                let m = min_class_size(&t, &i.qi_attrs, |pos, v| hs[pos].generalize(v, node[pos]));
                if m < 4 {
                    continue;
                }
                // only *minimal* nodes qualify
                let minimal = (0..2).all(|pos| {
                    if node[pos] == 0 {
                        return true;
                    }
                    let mut pred = node.clone();
                    pred[pos] -= 1;
                    min_class_size(&t, &i.qi_attrs, |p, v| hs[p].generalize(v, pred[p])) < 4
                });
                if !minimal {
                    continue;
                }
                let anon = AnonTable {
                    rel: i
                        .qi_attrs
                        .iter()
                        .enumerate()
                        .map(|(pos, &attr)| {
                            rel_column_from_value_map(&t, attr, |v| {
                                GenEntry::Node(hs[pos].generalize(v.0, node[pos]))
                            })
                        })
                        .collect(),
                    tx: None,
                    n_rows: t.n_rows(),
                };
                let g = gcp(&t, &anon, |a| Some(hs[a].clone()));
                if best.as_ref().is_none_or(|(_, bg)| g < *bg) {
                    best = Some((node, g));
                }
            }
        }
        let (_, best_gcp) = best.expect("some node is k-anonymous");
        let got = gcp(&t, &out.anon, |a| Some(hs[a].clone()));
        assert!(
            (got - best_gcp).abs() < 1e-12,
            "published GCP {got} differs from optimum {best_gcp}"
        );
    }

    #[test]
    fn equal_gcp_tie_resolves_to_lexicographically_smallest_node() {
        // two perfectly symmetric attributes: at k=2 both [0,1] and
        // [1,0] are minimal k-anonymous nodes with identical GCP, so
        // selection must fall back to lexicographic node order
        let schema = Schema::new(vec![
            Attribute::categorical("A"),
            Attribute::categorical("B"),
        ])
        .unwrap();
        let mut t = RtTable::new(schema);
        for (a, b) in [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")] {
            t.push_row(&[a, b], &[]).unwrap();
        }
        let i = RelationalInput {
            table: &t,
            qi_attrs: vec![0, 1],
            hierarchies: vec![
                auto_hierarchy(t.pool(0), AttributeKind::Categorical, 2).unwrap(),
                auto_hierarchy(t.pool(1), AttributeKind::Categorical, 2).unwrap(),
            ],
            k: 2,
        };
        let hs = &i.hierarchies;
        // confirm the tie exists: both single-raise nodes are minimal
        for node in [[0u32, 1], [1, 0]] {
            let m = min_class_size(&t, &i.qi_attrs, |p, v| hs[p].generalize(v, node[p]));
            assert!(m >= 2, "node {node:?} must be k-anonymous");
        }
        for counting in [Counting::Naive, Counting::Kernel] {
            let out = anonymize_with(&i, counting).unwrap();
            let levels: Vec<u32> = out
                .anon
                .rel
                .iter()
                .enumerate()
                .map(|(pos, col)| {
                    let GenEntry::Node(node) = &col.domain[0] else {
                        panic!("Incognito emits Node entries");
                    };
                    hs[pos].height() - hs[pos].depth(*node)
                })
                .collect();
            assert_eq!(levels, vec![0, 1], "{counting:?} must publish [0,1]");
        }
    }

    #[test]
    fn kernel_matches_naive_on_fixture() {
        let t = table();
        for k in [1, 2, 3, 4, 8] {
            let fast = anonymize_with(&input(&t, k), Counting::Kernel).unwrap();
            let slow = anonymize_with(&input(&t, k), Counting::Naive).unwrap();
            assert_eq!(fast.anon, slow.anon, "k={k}");
        }
    }

    #[test]
    fn single_attribute_dataset() {
        let schema = Schema::new(vec![Attribute::numeric("Age")]).unwrap();
        let mut t = RtTable::new(schema);
        for age in ["1", "2", "3", "4"] {
            t.push_row(&[age], &[]).unwrap();
        }
        let h = auto_hierarchy(t.pool(0), AttributeKind::Numeric, 2).unwrap();
        let out = anonymize(&RelationalInput {
            table: &t,
            qi_attrs: vec![0],
            hierarchies: vec![h],
            k: 2,
        })
        .unwrap();
        assert!(is_k_anonymous(&out.anon, 2));
    }
}
