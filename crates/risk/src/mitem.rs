//! Transaction re-identification under m-item background knowledge.
//!
//! The adversary knows up to `m` original items of their victim's
//! transaction and matches them against the published (generalized)
//! rows: a row is a *candidate* when its published items cover every
//! known original item. The victim's **worst case** is the knowledge
//! subset with the fewest candidates — the adversary gets to pick what
//! they know. A worst case of one row is a unique re-identification; a
//! worst case of zero means suppression broke every link (the
//! adversary cannot even place the victim in the table).
//!
//! The kernel path builds a tiered inverted index over the published
//! gen-item ids ([`InvertedIndex::from_fn`]), materializes each
//! *distinct* candidate row set once as a [`RowSet`] (items with equal
//! covering lists share one set; dense bitmap for hot items), and
//! enumerates subsets of distinct sets only, smallest-first, with
//! per-shard memoized intersection counts. The naive path re-scans the
//! whole table per subset — the brute-force O(n²) oracle the kernel
//! is tested against. Both paths aggregate integer minima/sums merged
//! in fixed shard order, so results are byte-identical to each other
//! and across thread counts.

use crate::{RiskParams, RiskWork};
use secreta_data::hash::FxHashMap;
use secreta_data::RtTable;
use secreta_hierarchy::Hierarchy;
use secreta_metrics::{AnonTable, GenEntry, MItemRisk, TransactionRisk};
use secreta_transaction::support::{for_each_subset, InvertedIndex, KernelStats};
use secreta_transaction::{Counting, RowSet};

/// Rows per shard below which the parallel row walk stays sequential.
const MIN_ROWS_PER_SHARD: usize = 128;

/// Per-shard integer accumulator; merged field-wise in shard order.
struct Acc {
    /// Per `m` (index `m - 1`): (min worst-case, Σ worst-case, unique
    /// records).
    per_m: Vec<(u64, u64, u64)>,
    /// Records with at least one original item.
    counted: u64,
    work: RiskWork,
}

impl Acc {
    fn new(max_m: u32) -> Acc {
        Acc {
            per_m: vec![(u64::MAX, 0, 0); max_m.max(1) as usize],
            counted: 0,
            work: RiskWork::default(),
        }
    }

    fn absorb(&mut self, other: &Acc) {
        for (a, b) in self.per_m.iter_mut().zip(&other.per_m) {
            a.0 = a.0.min(b.0);
            a.1 += b.1;
            a.2 += b.2;
        }
        self.counted += other.counted;
        self.work.absorb(&other.work);
    }

    /// Record one attacked row's worst-case candidate counts
    /// (`worst[m_eff - 1]` for `m_eff = min(m, row length)`).
    fn record(&mut self, worst_by_len: &[u64]) {
        self.counted += 1;
        self.work.rows += 1;
        for (i, slot) in self.per_m.iter_mut().enumerate() {
            let w = worst_by_len[i.min(worst_by_len.len() - 1)];
            slot.0 = slot.0.min(w);
            slot.1 += w;
            slot.2 += u64::from(w == 1);
        }
    }

    fn finish(self, max_m: u32) -> TransactionRisk {
        let per_m = (1..=max_m.max(1))
            .map(|m| {
                let (min, sum, unique) = self.per_m[(m - 1) as usize];
                MItemRisk {
                    m,
                    min_candidates: if self.counted == 0 { 0 } else { min },
                    avg_candidates: if self.counted == 0 {
                        0.0
                    } else {
                        sum as f64 / self.counted as f64
                    },
                    unique_fraction: if self.counted == 0 {
                        0.0
                    } else {
                        unique as f64 / self.counted as f64
                    },
                }
            })
            .collect();
        TransactionRisk { per_m }
    }
}

/// Compute the m-item adversary block for the transaction part of
/// `anon`, plus the work tally. `(None, work)` when the output has no
/// transaction part.
pub fn transaction_risk(
    table: &RtTable,
    anon: &AnonTable,
    item_hierarchy: Option<&Hierarchy>,
    params: &RiskParams,
    counting: Counting,
) -> (Option<TransactionRisk>, RiskWork) {
    let tx = match &anon.tx {
        Some(tx) => tx,
        None => return (None, RiskWork::default()),
    };
    let acc = match counting {
        Counting::Kernel => kernel_attack(table, tx, item_hierarchy, params),
        Counting::Naive => naive_attack(table, tx, item_hierarchy, params),
    };
    let work = acc.work;
    (Some(acc.finish(params.max_m)), work)
}

/// Which gen-domain entries cover each original item id.
fn covering_lists(
    universe: usize,
    domain: &[GenEntry],
    item_hierarchy: Option<&Hierarchy>,
) -> Vec<Vec<u32>> {
    let mut covering: Vec<Vec<u32>> = vec![Vec::new(); universe];
    for (g, entry) in domain.iter().enumerate() {
        match entry {
            GenEntry::Set(s) => {
                for &v in s {
                    if (v as usize) < universe {
                        covering[v as usize].push(g as u32);
                    }
                }
            }
            GenEntry::Node(n) => {
                let h = item_hierarchy.expect("Node entries require the item hierarchy");
                for v in h.leaves_under(*n) {
                    if (v as usize) < universe {
                        covering[v as usize].push(g as u32);
                    }
                }
            }
            GenEntry::Suppressed => {}
        }
    }
    covering
}

fn kernel_attack(
    table: &RtTable,
    tx: &secreta_metrics::AnonTransaction,
    item_hierarchy: Option<&Hierarchy>,
    params: &RiskParams,
) -> Acc {
    let n = tx.n_rows();
    let universe = table.item_universe();
    let covering = covering_lists(universe, &tx.domain, item_hierarchy);
    // Tiered index over the *published* rows: gen id → rows containing
    // it, with hot gen items carrying bitmaps.
    let gidx = InvertedIndex::from_fn(n, tx.domain.len(), |row, buf| {
        buf.extend_from_slice(tx.row_items(row))
    });
    // Candidate sets, deduplicated: items with equal covering lists
    // have equal candidate sets, and after generalization most of the
    // universe collapses onto a few gen entries. Each distinct set is
    // materialized once (the union of the covering postings).
    let mut union_stats = KernelStats::default();
    let mut by_list: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
    let mut unique: Vec<RowSet> = Vec::new();
    let mut cand_id: Vec<Option<u32>> = Vec::with_capacity(universe);
    for c in &covering {
        if c.is_empty() {
            cand_id.push(None);
            continue;
        }
        let next = unique.len() as u32;
        let id = *by_list.entry(c.clone()).or_insert_with(|| {
            unique.push(gidx.union_rowset(c.iter().copied(), &mut union_stats));
            next
        });
        cand_id.push(Some(id));
    }
    // Re-key by ascending cardinality, so per-row sorted id lists put
    // the smallest sets first and subset keys are canonical across
    // rows (and shards — the memo is an optimization, not a source of
    // nondeterminism: every hit returns the exact count a recompute
    // would).
    let mut by_size: Vec<u32> = (0..unique.len() as u32).collect();
    by_size.sort_unstable_by_key(|&id| (unique[id as usize].len(), id));
    let mut rank_of = vec![0u32; unique.len()];
    for (rank, &id) in by_size.iter().enumerate() {
        rank_of[id as usize] = rank as u32;
    }
    let ordered: Vec<&RowSet> = by_size.iter().map(|&id| &unique[id as usize]).collect();
    let rank_of_item = |it: u32| cand_id[it as usize].map(|id| rank_of[id as usize]);

    let parts = secreta_parallel::par_chunks(n, MIN_ROWS_PER_SHARD, |lo, hi| {
        let mut acc = Acc::new(params.max_m);
        let mut distinct: Vec<u32> = Vec::new();
        let mut worst_by_len: Vec<u64> = Vec::new();
        let mut sets: Vec<&RowSet> = Vec::new();
        // per-shard memo: canonical (sorted-rank) subset → |∩|. Rows
        // sharing a generalized shape repeat the same intersections.
        let mut memo: FxHashMap<Vec<u32>, u64> = FxHashMap::default();
        for row in lo..hi {
            let items = table.transaction(row);
            if items.is_empty() {
                continue;
            }
            // map items to distinct candidate-set ranks; an item no
            // published entry covers zeroes every knowledge size
            distinct.clear();
            let mut uncovered = false;
            for it in items {
                match rank_of_item(it.0) {
                    Some(r) => distinct.push(r),
                    None => {
                        uncovered = true;
                        break;
                    }
                }
            }
            if uncovered {
                worst_by_len.clear();
                worst_by_len.resize(params.max_m.max(1) as usize, 0);
                acc.record(&worst_by_len);
                continue;
            }
            distinct.sort_unstable();
            distinct.dedup();
            let d = distinct.len();
            // Exactness: an m_eff-item knowledge subset intersects the
            // distinct candidate sets of its items — a set family S
            // with |S| ≤ m_eff. Intersections only shrink as S grows,
            // and every family of size min(m_eff, d) is realizable
            // (pick one item per set, pad with duplicates), so the
            // worst case is the min over families of exactly that
            // size. Duplicate items never need enumerating.
            worst_by_len.clear();
            for m in 1..=params.max_m as usize {
                let size = m.min(items.len()).min(d);
                if m > 1 && size == (m - 1).min(items.len()).min(d) {
                    // same family size as the previous m — same worst
                    let prev = worst_by_len[m - 2];
                    worst_by_len.push(prev);
                    continue;
                }
                if m > 1 && worst_by_len[m - 2] == 0 {
                    // supersets of an empty intersection stay empty
                    worst_by_len.push(0);
                    continue;
                }
                let mut worst = u64::MAX;
                if size == 1 {
                    // ranks ascend with cardinality: first = smallest
                    worst = ordered[distinct[0] as usize].len() as u64;
                    acc.work.subsets += 1;
                } else {
                    for_each_subset(&distinct, size, &mut |s| {
                        if worst == 0 {
                            return;
                        }
                        acc.work.subsets += 1;
                        let count = match memo.get(s) {
                            Some(&c) => c,
                            None => {
                                let c = family_count(s, &ordered, &mut sets, &mut acc.work);
                                memo.insert(s.to_vec(), c);
                                c
                            }
                        };
                        worst = worst.min(count);
                    });
                }
                worst_by_len.push(worst);
            }
            acc.record(&worst_by_len);
        }
        acc
    });
    let mut iter = parts.into_iter();
    let mut global = iter.next().unwrap_or_else(|| Acc::new(params.max_m));
    for part in iter {
        global.absorb(&part);
    }
    global
}

/// |∩| over a family of distinct candidate sets, given by ascending
/// size rank, with no intermediate materialization. `sets` is a reused
/// scratch buffer. Only called on memo misses, so the work tally
/// counts real intersections.
fn family_count<'a>(
    ranks: &[u32],
    ordered: &[&'a RowSet],
    sets: &mut Vec<&'a RowSet>,
    work: &mut RiskWork,
) -> u64 {
    sets.clear();
    sets.extend(ranks.iter().map(|&r| ordered[r as usize]));
    work.intersections += 1;
    // a sparse operand drives a probe walk: every row of the smallest
    // sparse set (ranks ascend with candidate size, so the first
    // sparse set is it) is membership-tested against the rest
    if let Some(pi) = sets.iter().position(|s| !s.is_dense()) {
        let RowSet::Sparse(rows) = sets[pi] else {
            unreachable!("position() found a non-dense set")
        };
        work.bitmap_intersections += u64::from(sets.iter().any(|s| s.is_dense()));
        return rows
            .iter()
            .filter(|&&r| {
                sets.iter()
                    .enumerate()
                    .all(|(j, s)| j == pi || s.contains(r))
            })
            .count() as u64;
    }
    // all dense: one word-wise AND chain with popcount
    work.bitmap_intersections += 1;
    let RowSet::Dense(first) = sets[0] else {
        unreachable!("no sparse set found")
    };
    first.intersect_count_many(sets[1..].iter().map(|s| match s {
        RowSet::Dense(b) => b,
        RowSet::Sparse(_) => unreachable!("handled by the probe walk"),
    })) as u64
}

/// The brute-force oracle: same enumeration, candidates counted by
/// re-scanning every published row per subset via [`GenEntry::covers`].
fn naive_attack(
    table: &RtTable,
    tx: &secreta_metrics::AnonTransaction,
    item_hierarchy: Option<&Hierarchy>,
    params: &RiskParams,
) -> Acc {
    let n = tx.n_rows();
    let mut acc = Acc::new(params.max_m);
    let mut worst_by_len: Vec<u64> = Vec::new();
    for row in 0..n {
        let items: Vec<u32> = table.transaction(row).iter().map(|it| it.0).collect();
        if items.is_empty() {
            continue;
        }
        worst_by_len.clear();
        for m in 1..=params.max_m as usize {
            let m_eff = m.min(items.len());
            if m_eff < m {
                let prev = worst_by_len[m_eff - 1];
                worst_by_len.push(prev);
                continue;
            }
            let mut worst = u64::MAX;
            for_each_subset(&items, m_eff, &mut |s| {
                if worst == 0 {
                    return;
                }
                acc.work.subsets += 1;
                let count = (0..n)
                    .filter(|&r2| {
                        s.iter().all(|&i| {
                            tx.row_items(r2)
                                .iter()
                                .any(|&g| tx.domain[g as usize].covers(i, item_hierarchy))
                        })
                    })
                    .count() as u64;
                worst = worst.min(count);
            });
            worst_by_len.push(worst);
        }
        acc.record(&worst_by_len);
    }
    acc
}
