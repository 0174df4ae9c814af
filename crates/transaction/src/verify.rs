//! Post-hoc verification of transaction privacy guarantees.
//!
//! Each guarantee has one violation counter here; its verifier is that
//! counter `== 0`, and the risk audit (`secreta_risk::audit`) reports
//! the same count, so `verified` and the audit can never disagree.

use crate::support::for_each_subset;
use secreta_data::hash::FxHashMap;
use secreta_hierarchy::Hierarchy;
use secreta_metrics::anon::AnonTransaction;
use secreta_metrics::AnonTable;
use secreta_policy::PrivacyPolicy;

/// Is the published transaction part of `anon` k^m-anonymous — every
/// itemset of up to `m` *published* (generalized) items that occurs in
/// some published transaction occurs in at least `k` of them?
///
/// Checked from the output alone; `tx_hierarchy` is unused for the
/// counting itself (generalized ids suffice) but kept in the signature
/// for symmetry with the metrics API.
pub fn is_km_anonymous(
    anon: &AnonTable,
    k: usize,
    m: usize,
    _tx_hierarchy: Option<&Hierarchy>,
) -> bool {
    km_violations(anon, k, m) == 0
}

/// Occurring published itemsets of sizes `1..=m` (`m` at least 1) with
/// support below `k`. A table without a transaction part has none.
pub fn km_violations(anon: &AnonTable, k: usize, m: usize) -> u64 {
    match &anon.tx {
        Some(tx) => km_violations_in(tx, 0..tx.n_rows(), k, m),
        None => 0,
    }
}

/// [`km_violations`] over the published transactions of `rows` only,
/// with supports counted among those rows (the per-class check of
/// (k, k^m)-anonymity).
pub fn km_violations_in(
    tx: &AnonTransaction,
    rows: impl Iterator<Item = usize> + Clone,
    k: usize,
    m: usize,
) -> u64 {
    let mut violations = 0u64;
    let mut sup: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
    for size in 1..=m.max(1) {
        sup.clear();
        for row in rows.clone() {
            for_each_subset(tx.row_items(row), size, &mut |s| {
                *sup.entry(s.to_vec()).or_insert(0) += 1;
            });
        }
        violations += sup.values().filter(|&&c| (c as usize) < k).count() as u64;
    }
    violations
}

/// Does the published output satisfy `privacy` at level `k`?
///
/// A constraint's published support is the number of transactions
/// whose generalized items cover **all** of the constraint's original
/// items; COAT's guarantee is support ≥ k or = 0 for every
/// constraint.
pub fn satisfies_privacy(
    anon: &AnonTable,
    privacy: &PrivacyPolicy,
    k: usize,
    tx_hierarchy: Option<&Hierarchy>,
) -> bool {
    policy_violations(anon, privacy, k, tx_hierarchy) == 0
}

/// Non-empty privacy constraints whose published support lies in
/// `(0, k)`. Without a transaction part no constraint can be checked,
/// so every constraint counts.
pub fn policy_violations(
    anon: &AnonTable,
    privacy: &PrivacyPolicy,
    k: usize,
    tx_hierarchy: Option<&Hierarchy>,
) -> u64 {
    let tx = match &anon.tx {
        Some(tx) => tx,
        None => return privacy.constraints.len() as u64,
    };
    let covered = |row: usize, c: &[secreta_data::ItemId]| {
        let items = tx.row_items(row);
        c.iter().all(|it| {
            items
                .iter()
                .any(|&g| tx.domain[g as usize].covers(it.0, tx_hierarchy))
        })
    };
    let mut violations = 0u64;
    for c in privacy.constraints.iter().filter(|c| !c.is_empty()) {
        let sup = (0..tx.n_rows()).filter(|&row| covered(row, c)).count();
        if sup > 0 && sup < k {
            violations += 1;
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use secreta_data::{Attribute, ItemId, RtTable, Schema};
    use secreta_metrics::anon::{AnonTransaction, GenEntry};

    fn table() -> RtTable {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        t.push_row(&[], &["a", "b"]).unwrap();
        t.push_row(&[], &["a", "b"]).unwrap();
        t.push_row(&[], &["c"]).unwrap();
        t
    }

    fn identity_anon(t: &RtTable) -> AnonTable {
        AnonTable::identity(t, &[])
    }

    #[test]
    fn km_detects_violations() {
        let t = table();
        let a = identity_anon(&t);
        // {a,b} appears twice, {c} once
        assert!(is_km_anonymous(&a, 1, 2, None));
        assert!(!is_km_anonymous(&a, 2, 1, None), "c has support 1");
        // merge c into a gen item with a? then supports change
        let dom = vec![GenEntry::set(vec![0, 2]), GenEntry::Set(vec![1])];
        let tx = AnonTransaction::from_mapping(&t, dom, |it| Some(if it.0 == 1 { 1 } else { 0 }));
        let merged = AnonTable {
            rel: vec![],
            tx: Some(tx),
            n_rows: 3,
        };
        // published: {0,1},{0,1},{0} -> item 0 sup 3, item 1 sup 2,
        // pair {0,1} sup 2
        assert!(is_km_anonymous(&merged, 2, 2, None));
        assert!(!is_km_anonymous(&merged, 3, 2, None));
    }

    #[test]
    fn km_without_tx_is_vacuous() {
        let a = AnonTable {
            rel: vec![],
            tx: None,
            n_rows: 3,
        };
        assert!(is_km_anonymous(&a, 99, 2, None));
    }

    #[test]
    fn privacy_satisfaction() {
        let t = table();
        let a = identity_anon(&t);
        let p_ok = PrivacyPolicy::new(vec![vec![ItemId(0)]]); // a: sup 2
        assert!(satisfies_privacy(&a, &p_ok, 2, None));
        let p_bad = PrivacyPolicy::new(vec![vec![ItemId(2)]]); // c: sup 1
        assert!(!satisfies_privacy(&a, &p_bad, 2, None));
        // zero support is fine
        let dom = vec![GenEntry::Set(vec![0]), GenEntry::Set(vec![1])];
        let tx = AnonTransaction::from_mapping(&t, dom, |it| {
            if it.0 < 2 {
                Some(it.0)
            } else {
                None // suppress c
            }
        });
        let suppressed = AnonTable {
            rel: vec![],
            tx: Some(tx),
            n_rows: 3,
        };
        assert!(satisfies_privacy(&suppressed, &p_bad, 2, None));
    }

    #[test]
    fn multi_item_constraints() {
        let t = table();
        let a = identity_anon(&t);
        let pair = PrivacyPolicy::new(vec![vec![ItemId(0), ItemId(1)]]); // {a,b}: sup 2
        assert!(satisfies_privacy(&a, &pair, 2, None));
        assert!(!satisfies_privacy(&a, &pair, 3, None));
    }
}
