//! Oracle for the ARE fast path. `average_relative_error` tabulates
//! each anonymized relational atom over its column's generalized
//! domain and resolves every hierarchy once per column; the per-row
//! `Query::estimate` is its naive twin. On small random RT tables the
//! two must give bit-identical ARE, whatever mix of hierarchy nodes,
//! value sets and suppression the columns hold.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secreta::core::config::{Bounding, MethodSpec, RelAlgo, TxAlgo};
use secreta::core::data::{Attribute, AttributeKind, ItemId, RtTable, Schema};
use secreta::core::hierarchy::{auto_hierarchy, Hierarchy, NodeId};
use secreta::core::metrics::{
    average_relative_error, gcp, AnonTable, AnonTransaction, GenEntry, Query, QueryAtom, RelColumn,
    Workload,
};
use secreta::core::{anonymizer, parallel, SessionContext};
use secreta::gen::{DatasetSpec, WorkloadSpec};
use std::cell::Cell;

/// Relational attributes of the random tables: (name, kind, domain).
const REL: [(&str, AttributeKind, usize); 3] = [
    ("Age", AttributeKind::Numeric, 7),
    ("Edu", AttributeKind::Categorical, 5),
    ("Job", AttributeKind::Categorical, 4),
];
const ITEMS: usize = 8;

/// A random table over [`REL`] plus `Items`, every value interned up
/// front so each domain is complete.
fn random_table(rng: &mut StdRng, rows: usize) -> RtTable {
    let mut attrs: Vec<Attribute> = REL
        .iter()
        .map(|&(name, kind, _)| match kind {
            AttributeKind::Numeric => Attribute::numeric(name),
            _ => Attribute::categorical(name),
        })
        .collect();
    attrs.push(Attribute::transaction("Items"));
    let mut t = RtTable::new(Schema::new(attrs).unwrap());
    for (attr, &(_, _, dom)) in REL.iter().enumerate() {
        for v in 0..dom {
            t.intern_value(attr, &(10 + v).to_string()).unwrap();
        }
    }
    for i in 0..ITEMS {
        t.intern_item(&format!("i{i}")).unwrap();
    }
    for _ in 0..rows {
        let values: Vec<String> = REL
            .iter()
            .map(|&(_, _, dom)| (10 + rng.gen_range(0..dom)).to_string())
            .collect();
        let values: Vec<&str> = values.iter().map(String::as_str).collect();
        let items: Vec<String> = (0..rng.gen_range(0..4usize))
            .map(|_| format!("i{}", rng.gen_range(0..ITEMS)))
            .collect();
        let items: Vec<&str> = items.iter().map(String::as_str).collect();
        t.push_row(&values, &items).unwrap();
    }
    t
}

/// A random subset of `0..dom`, possibly empty.
fn subset(rng: &mut StdRng, dom: usize) -> Vec<u32> {
    (0..dom as u32).filter(|_| rng.gen_bool(0.4)).collect()
}

/// A random generalized value: a node of `h` (when given), a value set
/// or suppression.
fn entry(rng: &mut StdRng, dom: usize, h: Option<&Hierarchy>) -> GenEntry {
    match (rng.gen_range(0..3u32), h) {
        (0, Some(h)) => GenEntry::Node(NodeId(rng.gen_range(0..h.n_nodes() as u32))),
        (2, _) => GenEntry::Suppressed,
        _ => GenEntry::set(subset(rng, dom)),
    }
}

/// A random anonymization of `t`: each relational attribute anonymized
/// with probability 2/3 by a random column; the transaction part
/// published unchanged or recoded into random generalized items, which
/// use `item_h` nodes when it is given.
fn random_anon(
    rng: &mut StdRng,
    t: &RtTable,
    hierarchies: &[Option<Hierarchy>],
    item_h: Option<&Hierarchy>,
) -> AnonTable {
    let mut rel = Vec::new();
    for (attr, &(_, _, dom)) in REL.iter().enumerate() {
        if rng.gen_range(0..3u32) == 0 {
            continue;
        }
        let domain: Vec<GenEntry> = (0..rng.gen_range(1..6usize))
            .map(|_| entry(rng, dom, hierarchies[attr].as_ref()))
            .collect();
        let cells = (0..t.n_rows())
            .map(|_| rng.gen_range(0..domain.len()) as u32)
            .collect();
        rel.push(RelColumn {
            attr,
            domain,
            cells,
        });
    }
    let tx = rng.gen_bool(0.8).then(|| {
        let domain: Vec<GenEntry> = (0..rng.gen_range(1..5usize))
            .map(|_| match entry(rng, ITEMS, item_h) {
                // suppression is expressed by the item mapping
                GenEntry::Suppressed => GenEntry::set(subset(rng, ITEMS)),
                e => e,
            })
            .collect();
        let map: Vec<Option<u32>> = (0..ITEMS)
            .map(|_| {
                rng.gen_bool(0.85)
                    .then(|| rng.gen_range(0..domain.len()) as u32)
            })
            .collect();
        AnonTransaction::from_mapping(t, domain, |it| map[it.index()])
    });
    AnonTable {
        rel,
        tx,
        n_rows: t.n_rows(),
    }
}

/// Random queries over every relational attribute (anonymized or not)
/// and the items.
fn random_workload(rng: &mut StdRng) -> Workload {
    let queries = (0..rng.gen_range(1..7usize))
        .map(|_| Query {
            atoms: (0..rng.gen_range(0..4usize))
                .map(|_| match rng.gen_range(0..REL.len() + 1) {
                    attr if attr < REL.len() => {
                        let mut values = subset(rng, REL[attr].2);
                        if values.is_empty() {
                            values.push(0);
                        }
                        QueryAtom::Rel { attr, values }
                    }
                    _ => {
                        let mut items: Vec<ItemId> = (0..rng.gen_range(1..3usize))
                            .map(|_| ItemId(rng.gen_range(0..ITEMS as u32)))
                            .collect();
                        items.sort_unstable();
                        items.dedup();
                        QueryAtom::Items { items }
                    }
                })
                .collect(),
        })
        .collect();
    Workload { queries }
}

/// The ARE the per-row oracle gives: each query's error from
/// `Query::estimate`, averaged in query order.
fn oracle_are(
    t: &RtTable,
    anon: &AnonTable,
    w: &Workload,
    hierarchies: &[Option<Hierarchy>],
    item_h: Option<&Hierarchy>,
) -> f64 {
    let lookup = |attr: usize| hierarchies[attr].clone();
    let errors: Vec<f64> = w
        .queries
        .iter()
        .map(|q| {
            let exact = q.count(t) as f64;
            let est = q.estimate(t, anon, &lookup, item_h);
            (exact - est).abs() / exact.max(1.0)
        })
        .collect();
    errors.iter().sum::<f64>() / w.len() as f64
}

fn rel_hierarchies(t: &RtTable) -> Vec<Option<Hierarchy>> {
    REL.iter()
        .enumerate()
        .map(|(attr, &(_, kind, _))| Some(auto_hierarchy(t.pool(attr), kind, 2).unwrap()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The tabulated ARE equals the per-row oracle's bit for bit, with
    /// and without an item hierarchy.
    #[test]
    fn tabulated_are_matches_per_row_oracle(
        seed in 0u64..1_000_000,
        rows in 1usize..40,
        with_item_h in 0u32..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = random_table(&mut rng, rows);
        let hierarchies = rel_hierarchies(&t);
        let item_h = (with_item_h == 1).then(|| {
            auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap()
        });
        let anon = random_anon(&mut rng, &t, &hierarchies, item_h.as_ref());
        let w = random_workload(&mut rng);
        let fast = average_relative_error(
            &t,
            &anon,
            &w,
            |attr| hierarchies[attr].clone(),
            item_h.as_ref(),
        );
        let oracle = oracle_are(&t, &anon, &w, &hierarchies, item_h.as_ref());
        prop_assert_eq!(fast.to_bits(), oracle.to_bits(), "fast {} vs oracle {}", fast, oracle);
    }
}

/// ARE and GCP look each hierarchy up at most once per anonymized
/// column, however many rows and queries they scan.
#[test]
fn hierarchies_are_resolved_once_per_anonymized_column() {
    let mut rng = StdRng::seed_from_u64(7);
    let t = random_table(&mut rng, 200);
    let hierarchies = rel_hierarchies(&t);
    // the first two attributes recoded to their hierarchy's leaves'
    // parents; the third is published unchanged
    let rel: Vec<RelColumn> = (0..2)
        .map(|attr| {
            let h = hierarchies[attr].as_ref().unwrap();
            let domain: Vec<GenEntry> = (0..REL[attr].2 as u32)
                .map(|v| GenEntry::Node(h.parent(h.leaf(v)).unwrap_or(h.root())))
                .collect();
            let cells = (0..t.n_rows()).map(|r| t.value(r, attr).0).collect();
            RelColumn {
                attr,
                domain,
                cells,
            }
        })
        .collect();
    let anon = AnonTable {
        rel,
        tx: None,
        n_rows: t.n_rows(),
    };
    let w = Workload {
        queries: (0..10)
            .map(|i| Query {
                atoms: (0..REL.len())
                    .map(|attr| QueryAtom::Rel {
                        attr,
                        values: vec![(i % REL[attr].2) as u32],
                    })
                    .collect(),
            })
            .collect(),
    };
    let calls = Cell::new(0usize);
    let lookup = |attr: usize| {
        calls.set(calls.get() + 1);
        hierarchies[attr].clone()
    };
    let are = average_relative_error(&t, &anon, &w, lookup, None);
    assert!(
        calls.get() <= anon.rel.len(),
        "ARE looked hierarchies up {} times for {} columns",
        calls.get(),
        anon.rel.len()
    );
    assert_eq!(
        are.to_bits(),
        oracle_are(&t, &anon, &w, &hierarchies, None).to_bits()
    );
    calls.set(0);
    gcp(&t, &anon, lookup);
    assert!(
        calls.get() <= anon.rel.len(),
        "GCP looked hierarchies up {} times for {} columns",
        calls.get(),
        anon.rel.len()
    );
}

/// The six configurations of a relational/RT comparison give the same
/// indicators on one kernel thread as on two.
#[test]
fn compare_rt_indicators_do_not_depend_on_kernel_threads() {
    let table = DatasetSpec::adult_like(300, 1).generate();
    let ctx = SessionContext::auto(table, 4).expect("hierarchies");
    let w = WorkloadSpec {
        n_queries: 50,
        ..Default::default()
    }
    .generate(&ctx.table);
    let ctx = ctx.with_workload(w);
    let rel = |algo| MethodSpec::Relational { algo, k: 5 };
    let rt = |bounding| MethodSpec::Rt {
        rel: RelAlgo::Cluster,
        tx: TxAlgo::Apriori,
        bounding,
        k: 5,
        m: 2,
        delta: 2,
    };
    let specs = [
        rel(RelAlgo::Cluster),
        rel(RelAlgo::Incognito),
        rel(RelAlgo::TopDown),
        rel(RelAlgo::BottomUp),
        rt(Bounding::RMerge),
        rt(Bounding::RtMerge),
    ];
    let before = parallel::max_threads();
    for spec in &specs {
        let indicators: Vec<_> = [1usize, 2]
            .into_iter()
            .map(|threads| {
                parallel::set_threads(threads);
                let mut ind = anonymizer::run(&ctx, spec, 1)
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.label()))
                    .indicators;
                ind.runtime_ms = 0.0;
                ind
            })
            .collect();
        assert_eq!(indicators[0], indicators[1], "{}", spec.label());
    }
    parallel::set_threads(before);
}
