//! VPA — vertical partitioning anonymization (Terrovitis et al.,
//! VLDB J. 2011).
//!
//! Splits the *item domain* into vertical parts (contiguous runs of
//! the hierarchy's DFS leaf order, so subtrees stay intact), projects
//! every transaction onto each part, and runs Apriori anonymization on
//! each projected sub-database independently. Recoding inside a part
//! may not climb above the part — the part's *ceiling* — so when a
//! violation cannot be repaired within the ceiling the offending
//! items are suppressed (the cross-part trade-off the original paper
//! accepts: protection is guaranteed per part, and adversary
//! knowledge spanning parts is the documented residual risk; with
//! `m = 1` the guarantee is global).

use crate::apriori::{anonymize_rows, build_anon};
use crate::common::{TransactionInput, TxError, TxOutput};
use crate::support::Counting;
use secreta_metrics::PhaseTimer;

/// Run VPA with `parts` vertical parts (kernelized support counting).
pub fn anonymize(input: &TransactionInput, parts: usize) -> Result<TxOutput, TxError> {
    anonymize_with(input, parts, Counting::Kernel)
}

/// Run VPA with the naive reference counters.
pub fn anonymize_reference(input: &TransactionInput, parts: usize) -> Result<TxOutput, TxError> {
    anonymize_with(input, parts, Counting::Naive)
}

/// Run VPA with an explicit counting implementation.
pub fn anonymize_with(
    input: &TransactionInput,
    parts: usize,
    counting: Counting,
) -> Result<TxOutput, TxError> {
    input.validate()?;
    let h = input
        .hierarchy
        .ok_or_else(|| TxError::BadInput("VPA requires an item hierarchy".into()))?;
    let parts = parts.max(1).min(h.n_leaves().max(1));
    let mut timer = PhaseTimer::new();

    // vertical parts: contiguous runs of the DFS leaf order
    let dfs: Vec<u32> = h.leaves_under(h.root()).collect();
    let per_part = dfs.len().div_ceil(parts);
    let mut part_of = vec![0usize; h.n_leaves()];
    for (pos, &leaf) in dfs.iter().enumerate() {
        part_of[leaf as usize] = pos / per_part;
    }
    let n_parts = dfs.len().div_ceil(per_part);
    secreta_obsv::current().count("vpa/parts", n_parts as u64);
    timer.phase("vertical partitioning");

    let rows: Vec<usize> = (0..input.table.n_rows()).collect();
    let mut states = Vec::with_capacity(n_parts);
    for p in 0..n_parts {
        // the part's ceiling: a node is allowed iff all its leaves are
        // in part p
        let state = anonymize_rows(
            input.table,
            &rows,
            input.k,
            input.m,
            h,
            |node| h.leaves_under(node).all(|v| part_of[v as usize] == p),
            |it| part_of[it.index()] == p,
            true,
            counting,
        )?;
        states.push(state);
    }
    timer.phase("per-part recoding");

    let anon = build_anon(input.table, h, |_, it| states[part_of[it.index()]].map(it));
    timer.phase("publish");

    Ok(TxOutput {
        anon,
        phases: timer.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori;
    use crate::verify::is_km_anonymous;
    use secreta_data::{Attribute, AttributeKind, RtTable, Schema};
    use secreta_hierarchy::{auto_hierarchy, Hierarchy};
    use secreta_metrics::transaction_gcp;

    fn table() -> RtTable {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        for tx in [
            vec!["a", "b", "x"],
            vec!["a", "b", "y"],
            vec!["a", "c", "x"],
            vec!["b", "c", "y"],
            vec!["a", "b", "x"],
            vec!["c", "y"],
            vec!["a", "x", "y"],
            vec!["b", "c", "x"],
        ] {
            t.push_row(&[], &tx).unwrap();
        }
        t
    }

    fn hierarchy(t: &RtTable) -> Hierarchy {
        auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap()
    }

    #[test]
    fn m1_guarantee_is_global() {
        let t = table();
        let h = hierarchy(&t);
        for parts in [1, 2, 3] {
            let out = anonymize(&TransactionInput::km(&t, 2, 1, &h), parts).unwrap();
            assert!(is_km_anonymous(&out.anon, 2, 1, Some(&h)), "parts={parts}");
            assert!(out.anon.is_truthful(&t, |_| None, Some(&h)));
        }
    }

    #[test]
    fn one_part_equals_apriori() {
        let t = table();
        let h = hierarchy(&t);
        let vpa = anonymize(&TransactionInput::km(&t, 2, 2, &h), 1).unwrap();
        let aa = apriori::anonymize(&TransactionInput::km(&t, 2, 2, &h)).unwrap();
        assert!(
            (transaction_gcp(&t, &vpa.anon, Some(&h)) - transaction_gcp(&t, &aa.anon, Some(&h)))
                .abs()
                < 1e-12
        );
        assert!(is_km_anonymous(&vpa.anon, 2, 2, Some(&h)));
    }

    #[test]
    fn per_part_protection_holds_for_higher_m() {
        // project the published data onto each part and check k^m there
        let t = table();
        let h = hierarchy(&t);
        let parts = 2;
        let out = anonymize(&TransactionInput::km(&t, 2, 2, &h), parts).unwrap();
        let tx = out.anon.tx.as_ref().unwrap();

        let dfs: Vec<u32> = h.leaves_under(h.root()).collect();
        let per_part = dfs.len().div_ceil(parts);
        let mut part_of = vec![0usize; h.n_leaves()];
        for (pos, &leaf) in dfs.iter().enumerate() {
            part_of[leaf as usize] = pos / per_part;
        }
        for p in 0..parts {
            // keep only this part's gen items per row, then re-count
            use secreta_data::hash::FxHashMap;
            let mut sup: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
            for row in 0..tx.n_rows() {
                let mine: Vec<u32> = tx
                    .row_items(row)
                    .iter()
                    .copied()
                    .filter(|&g| {
                        // a gen item belongs to the part of its leaves
                        match &tx.domain[g as usize] {
                            secreta_metrics::GenEntry::Node(n) => {
                                h.leaves_under(*n).all(|v| part_of[v as usize] == p)
                            }
                            _ => false,
                        }
                    })
                    .collect();
                for i in 1..=2usize.min(mine.len()) {
                    crate::support::for_each_subset(&mine, i, &mut |s| {
                        *sup.entry(s.to_vec()).or_insert(0) += 1;
                    });
                }
            }
            for (set, &c) in &sup {
                assert!(c >= 2, "part {p}: {set:?} has support {c}");
            }
        }
    }

    #[test]
    fn suppression_only_under_ceiling_pressure() {
        // strict global AA never suppresses; VPA may, but on this easy
        // data it should not need to for k=2,m=1
        let t = table();
        let h = hierarchy(&t);
        let out = anonymize(&TransactionInput::km(&t, 2, 1, &h), 2).unwrap();
        assert!(out.anon.tx.as_ref().unwrap().suppressed.len() <= 1);
    }

    #[test]
    fn extreme_parts_suppress_rare_items() {
        // every item its own part and a k larger than some item's
        // support forces suppression of rare items
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        for _ in 0..4 {
            t.push_row(&[], &["common"]).unwrap();
        }
        t.push_row(&[], &["common", "rare"]).unwrap();
        let h = hierarchy(&t);
        let out = anonymize(&TransactionInput::km(&t, 2, 1, &h), h.n_leaves()).unwrap();
        let tx = out.anon.tx.as_ref().unwrap();
        let rare = t.item_pool().unwrap().get("rare").unwrap();
        assert!(tx
            .suppressed
            .binary_search(&secreta_data::ItemId(rare))
            .is_ok());
        assert!(is_km_anonymous(&out.anon, 2, 1, Some(&h)));
    }

    #[test]
    fn too_small_input_suppresses_everything() {
        // unlike AA, VPA resolves unfixable violations by suppression,
        // so a single transaction with k=2 publishes empty
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        t.push_row(&[], &["a"]).unwrap();
        let h = hierarchy(&t);
        let out = anonymize(&TransactionInput::km(&t, 2, 1, &h), 1).unwrap();
        let tx = out.anon.tx.as_ref().unwrap();
        assert!(tx.row_items(0).is_empty());
        assert_eq!(tx.suppressed.len(), 1);
        assert!(is_km_anonymous(&out.anon, 2, 1, Some(&h)));
    }
}
