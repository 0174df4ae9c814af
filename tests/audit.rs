//! Agreement oracle for the guarantee audit. On small random published
//! tables, `audit_guarantee` must count exactly the violations the
//! definitions give — counted here by brute force over bitmasks,
//! independently of the library's counters — and pass exactly when the
//! matching verifier does. The verifier's rules are the definitions:
//! a table without relational columns is one class, (k, k^m) supports
//! are counted inside each class, and a privacy policy cannot hold on
//! a table without a transaction part.

use proptest::prelude::*;
use secreta::core::data::ItemId;
use secreta::core::metrics::{AnonTable, AnonTransaction, GenEntry, RelColumn};
use secreta::core::policy::PrivacyPolicy;
use secreta::core::relational::is_k_anonymous;
use secreta::core::risk::{audit_guarantee, Guarantee};
use secreta::core::rt::is_k_km_anonymous;
use secreta::core::transaction::{is_km_anonymous, satisfies_privacy};

/// A published table in the oracle's own terms.
#[derive(Debug, Clone)]
struct Shape {
    /// Relational class of each row, or `None` for a table without
    /// relational columns.
    classes: Option<Vec<u32>>,
    /// Number of rows.
    n_rows: usize,
    /// The transaction part, or `None`: per generalized item the
    /// bitmask of original items it covers, and per row the bitmask of
    /// generalized items it publishes.
    tx: Option<(Vec<u32>, Vec<u32>)>,
}

impl Shape {
    fn anon(&self) -> AnonTable {
        let rel = match &self.classes {
            Some(classes) => vec![RelColumn {
                attr: 0,
                domain: (0..3).map(|c| GenEntry::Set(vec![c])).collect(),
                cells: classes.clone(),
            }],
            None => vec![],
        };
        let tx = self.tx.as_ref().map(|(covers, rows)| {
            let mut offsets = vec![0u32];
            let mut items = Vec::new();
            for &mask in rows {
                items.extend((0..covers.len() as u32).filter(|g| mask >> g & 1 == 1));
                offsets.push(items.len() as u32);
            }
            AnonTransaction {
                domain: covers.iter().map(|&c| GenEntry::Set(bits(c))).collect(),
                offsets,
                multiplicity: vec![1; items.len()],
                items,
                suppressed: vec![],
            }
        });
        AnonTable {
            rel,
            tx,
            n_rows: self.n_rows,
        }
    }

    /// Rows grouped by relational class, classes in any order.
    fn class_rows(&self) -> Vec<Vec<usize>> {
        match &self.classes {
            None if self.n_rows == 0 => vec![],
            None => vec![(0..self.n_rows).collect()],
            Some(classes) => (0..3)
                .map(|c| (0..self.n_rows).filter(|&r| classes[r] == c).collect())
                .filter(|rows: &Vec<usize>| !rows.is_empty())
                .collect(),
        }
    }
}

fn bits(mask: u32) -> Vec<u32> {
    (0..32).filter(|b| mask >> b & 1 == 1).collect()
}

/// Records in classes of fewer than `k` rows.
fn brute_k(shape: &Shape, k: usize) -> u64 {
    shape
        .class_rows()
        .iter()
        .filter(|rows| rows.len() < k)
        .map(|rows| rows.len() as u64)
        .sum()
}

/// Itemsets of 1..=m generalized items contained in some of `rows` but
/// in fewer than `k` of them.
fn brute_km_among(shape: &Shape, rows: &[usize], k: usize, m: usize) -> u64 {
    let Some((covers, masks)) = &shape.tx else {
        return 0;
    };
    let mut violations = 0;
    for set in 1u32..1 << covers.len() {
        if set.count_ones() as usize > m.max(1) {
            continue;
        }
        let support = rows.iter().filter(|&&r| masks[r] & set == set).count();
        if support > 0 && support < k {
            violations += 1;
        }
    }
    violations
}

fn brute_km(shape: &Shape, k: usize, m: usize) -> u64 {
    brute_km_among(shape, &(0..shape.n_rows).collect::<Vec<_>>(), k, m)
}

fn brute_k_km(shape: &Shape, k: usize, m: usize) -> u64 {
    let per_class: u64 = shape
        .class_rows()
        .iter()
        .map(|rows| brute_km_among(shape, rows, k, m))
        .sum();
    brute_k(shape, k) + per_class
}

/// Non-empty constraints whose published support lies in `(0, k)`; a
/// table without a transaction part violates every constraint.
fn brute_policy(shape: &Shape, policy: &PrivacyPolicy, k: usize) -> u64 {
    let Some((covers, masks)) = &shape.tx else {
        return policy.constraints.len() as u64;
    };
    let covered_by_row = |row: usize| -> u32 {
        (0..covers.len())
            .filter(|&g| masks[row] >> g & 1 == 1)
            .fold(0, |acc, g| acc | covers[g])
    };
    policy
        .constraints
        .iter()
        .filter(|c| !c.is_empty())
        .filter(|c| {
            let need = c.iter().fold(0u32, |acc, it| acc | 1 << it.0);
            let support = (0..shape.n_rows)
                .filter(|&r| covered_by_row(r) & need == need)
                .count();
            support > 0 && support < k
        })
        .count() as u64
}

/// Check all four guarantees on `shape` against the brute-force counts
/// and the verifiers.
fn check(shape: &Shape, policy: &PrivacyPolicy, k: usize, m: usize) -> Result<(), String> {
    let anon = shape.anon();
    let cases = [
        (
            Guarantee::KAnonymity { k },
            brute_k(shape, k),
            is_k_anonymous(&anon, k),
        ),
        (
            Guarantee::KmAnonymity { k, m },
            brute_km(shape, k, m),
            is_km_anonymous(&anon, k, m, None),
        ),
        (
            Guarantee::Policy { k },
            brute_policy(shape, policy, k),
            satisfies_privacy(&anon, policy, k, None),
        ),
        (
            Guarantee::KKmAnonymity { k, m },
            brute_k_km(shape, k, m),
            is_k_km_anonymous(&anon, k, m),
        ),
    ];
    for (guarantee, expected, verified) in cases {
        let audit = audit_guarantee(&anon, None, Some(policy), &guarantee);
        if audit.violations != expected {
            return Err(format!(
                "{}: audit counts {} violations, the definition {expected}",
                audit.guarantee, audit.violations
            ));
        }
        if audit.passed != (expected == 0) || audit.passed != verified {
            return Err(format!(
                "{}: audit passed={}, verifier={verified}, violations={expected}",
                audit.guarantee, audit.passed
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn audit_agrees_with_definitions_and_verifiers(
        (n_rows, with_rel, classes) in (0usize..9, 0u8..4, prop::collection::vec(0u32..3, 8)),
        (tx_pick, n_gen, covers, masks) in (
            0u8..6,
            1usize..=6,
            prop::collection::vec(1u32..256, 6),
            prop::collection::vec(0u32..64, 8),
        ),
        constraints in prop::collection::vec(prop::collection::vec(0u32..8, 0..=3usize), 0..=4usize),
        k in 1usize..=4,
        m in 1usize..=3,
    ) {
        // one table in four has no relational column, one in six no
        // transaction part
        let shape = Shape {
            classes: (with_rel > 0).then(|| classes[..n_rows].to_vec()),
            n_rows,
            tx: (tx_pick > 0).then(|| {
                let rows = masks[..n_rows].iter().map(|&r| r & ((1 << n_gen) - 1)).collect();
                (covers[..n_gen].to_vec(), rows)
            }),
        };
        // built field by field so empty constraints reach the counters
        let policy = PrivacyPolicy {
            constraints: constraints
                .iter()
                .map(|c| {
                    let mut c: Vec<ItemId> = c.iter().map(|&i| ItemId(i)).collect();
                    c.sort_unstable();
                    c.dedup();
                    c
                })
                .collect(),
        };
        let verdict = check(&shape, &policy, k, m);
        prop_assert!(verdict.is_ok(), "{verdict:?}");
        // a policy audit without a policy has nothing to check
        let anon = shape.anon();
        let unchecked = audit_guarantee(&anon, None, None, &Guarantee::Policy { k });
        prop_assert!(unchecked.passed);
    }
}

/// Two 2-row classes whose rows publish `{0}` and `{1}`: every item has
/// support 2 in the table but 1 inside its class, so (k=2, m=1) fails.
#[test]
fn k_km_supports_are_counted_per_class() {
    let shape = Shape {
        classes: Some(vec![0, 0, 1, 1]),
        n_rows: 4,
        tx: Some((vec![0b01, 0b10], vec![0b01, 0b10, 0b01, 0b10])),
    };
    let anon = shape.anon();
    let audit = audit_guarantee(&anon, None, None, &Guarantee::KKmAnonymity { k: 2, m: 1 });
    assert!(!is_k_km_anonymous(&anon, 2, 1));
    assert!(!audit.passed);
    assert_eq!(
        audit.violations, 4,
        "two items under-supported in each class"
    );
    check(&shape, &PrivacyPolicy::new(vec![]), 2, 1).unwrap();
}

/// Three rows without a relational column form one class of three,
/// which is not 5-anonymous.
#[test]
fn table_without_relational_columns_is_one_class() {
    let shape = Shape {
        classes: None,
        n_rows: 3,
        tx: None,
    };
    let anon = shape.anon();
    let audit = audit_guarantee(&anon, None, None, &Guarantee::KAnonymity { k: 5 });
    assert!(!is_k_anonymous(&anon, 5));
    assert!(!audit.passed);
    assert_eq!(audit.violations, 3);
    check(&shape, &PrivacyPolicy::new(vec![]), 5, 1).unwrap();
}
