//! Constraint-violation audit: re-check the claimed guarantee on the
//! published output and count how badly it fails.
//!
//! The audit owns no counting rules. It dispatches each [`Guarantee`]
//! onto the violation counter of the crate that owns the guarantee —
//! `secreta_relational::verify::k_violations`,
//! `secreta_transaction::verify::{km_violations, policy_violations}`
//! and `secreta_rt::verify::k_km_violations` — whose `== 0` is the
//! matching verifier (`is_k_anonymous`, `is_km_anonymous`,
//! `satisfies_privacy`, `is_k_km_anonymous`). `passed` is therefore the
//! verifier's verdict by construction, and `anonymizer::run` reports it
//! as the run's `verified` indicator. ρ-uncertainty is the exception:
//! mining sensitive rules is the ρ verifiers' job, and the audit
//! reports their verdict.

use crate::Guarantee;
use secreta_hierarchy::Hierarchy;
use secreta_metrics::{AnonTable, ConstraintAudit};
use secreta_policy::PrivacyPolicy;
use secreta_relational::verify::k_violations;
use secreta_rt::verify::k_km_violations;
use secreta_transaction::verify::{km_violations, policy_violations};

/// Re-check `guarantee` on `anon`, counting violations. A
/// [`Guarantee::Policy`] audit without a `privacy` policy has nothing
/// to check.
pub fn audit_guarantee(
    anon: &AnonTable,
    item_hierarchy: Option<&Hierarchy>,
    privacy: Option<&PrivacyPolicy>,
    guarantee: &Guarantee,
) -> ConstraintAudit {
    let (label, violations) = match guarantee {
        Guarantee::KAnonymity { k } => (format!("k-anonymity(k={k})"), k_violations(anon, *k)),
        Guarantee::KmAnonymity { k, m } => (
            format!("k^m-anonymity(k={k},m={m})"),
            km_violations(anon, *k, *m),
        ),
        Guarantee::Policy { k } => (
            format!("privacy-policy(k={k})"),
            privacy.map_or(0, |p| policy_violations(anon, p, *k, item_hierarchy)),
        ),
        Guarantee::KKmAnonymity { k, m } => (
            format!("(k,k^m)-anonymity(k={k},m={m})"),
            k_km_violations(anon, *k, *m),
        ),
        Guarantee::RhoUncertainty { rho, satisfied } => {
            (format!("rho-uncertainty(rho={rho})"), u64::from(!satisfied))
        }
    };
    ConstraintAudit {
        guarantee: label,
        violations,
        passed: violations == 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secreta_data::{Attribute, ItemId, RtTable, Schema};
    use secreta_metrics::anon::RelColumn;
    use secreta_metrics::GenEntry;

    fn tx_table() -> RtTable {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        t.push_row(&[], &["a", "b"]).unwrap();
        t.push_row(&[], &["a", "b"]).unwrap();
        t.push_row(&[], &["c"]).unwrap();
        t
    }

    #[test]
    fn k_anonymity_counts_small_class_records() {
        let anon = AnonTable {
            rel: vec![RelColumn {
                attr: 0,
                domain: vec![GenEntry::Set(vec![0]), GenEntry::Set(vec![1])],
                cells: vec![0, 0, 0, 1],
            }],
            tx: None,
            n_rows: 4,
        };
        let a = audit_guarantee(&anon, None, None, &Guarantee::KAnonymity { k: 2 });
        assert_eq!(a.violations, 1, "the singleton class has one record");
        assert!(!a.passed);
        let a3 = audit_guarantee(&anon, None, None, &Guarantee::KAnonymity { k: 4 });
        assert_eq!(a3.violations, 4, "both classes are below 4");
    }

    #[test]
    fn km_counts_under_supported_itemsets() {
        let t = tx_table();
        let anon = AnonTable::identity(&t, &[]);
        // items: a,b sup 2; c sup 1; pair {a,b} sup 2
        let ok = audit_guarantee(&anon, None, None, &Guarantee::KmAnonymity { k: 1, m: 2 });
        assert!(ok.passed);
        let bad = audit_guarantee(&anon, None, None, &Guarantee::KmAnonymity { k: 2, m: 2 });
        assert_eq!(bad.violations, 1, "only {{c}} is under-supported");
        assert_eq!(bad.guarantee, "k^m-anonymity(k=2,m=2)");
    }

    #[test]
    fn policy_counts_violating_constraints() {
        let t = tx_table();
        let anon = AnonTable::identity(&t, &[]);
        let policy = PrivacyPolicy::new(vec![vec![ItemId(0)], vec![ItemId(2)]]);
        let a = audit_guarantee(&anon, None, Some(&policy), &Guarantee::Policy { k: 2 });
        assert_eq!(a.violations, 1, "constraint {{c}} has support 1");
        // zero-support constraints are fine: audit agrees with the
        // verifier's `sup == 0 or ≥ k` rule
        let dom = vec![GenEntry::Set(vec![0]), GenEntry::Set(vec![1])];
        let tx = secreta_metrics::AnonTransaction::from_mapping(&t, dom, |it| {
            (it.0 < 2).then_some(it.0)
        });
        let suppressed = AnonTable {
            rel: vec![],
            tx: Some(tx),
            n_rows: 3,
        };
        let a = audit_guarantee(
            &suppressed,
            None,
            Some(&policy),
            &Guarantee::Policy { k: 2 },
        );
        assert!(a.passed);
    }

    #[test]
    fn rho_passes_through_the_verdict() {
        let anon = AnonTable {
            rel: vec![],
            tx: None,
            n_rows: 0,
        };
        let g = Guarantee::RhoUncertainty {
            rho: 0.5,
            satisfied: false,
        };
        let a = audit_guarantee(&anon, None, None, &g);
        assert_eq!(a.violations, 1);
        assert_eq!(a.guarantee, "rho-uncertainty(rho=0.5)");
    }
}
