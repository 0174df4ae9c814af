//! ρ-uncertainty — inference-proof transaction anonymization (Cao,
//! Karras, Raïssi, Tan — PVLDB 2010).
//!
//! The paper's conclusion names this model as SECRETA's planned
//! extension ("we will extend our system, by incorporating additional
//! algorithms, such as those in \[2\]"); this module implements it.
//!
//! **Model.** Items are split into *sensitive* and non-sensitive.
//! A published database is ρ-uncertain iff for every *sensitive
//! association rule* `q → s` (antecedent `q` a published itemset, `s`
//! a sensitive item not in `q`) the confidence
//! `sup(q ∪ {s}) / sup(q)` is below `ρ`. Unlike k^m-anonymity the
//! guarantee is recursive — suppressing or generalizing items changes
//! the rule set — and holds against adversaries with *any* amount of
//! background knowledge, which is why Cao et al.'s reference
//! implementation bounds rule antecedents by a constant (`q ≤ m`) in
//! its mining loop; we do the same.
//!
//! **Algorithm.** A faithful rendition of their *SuppressControl*
//! greedy: while a violating rule exists, suppress the item whose
//! removal kills the most violating rules per unit of information
//! loss (global suppression; sensitive items may themselves be
//! suppressed as a last resort). Suppression preserves truthfulness
//! and needs no hierarchy, matching the original's TDControl-free
//! baseline configuration.

use crate::common::{TransactionInput, TxError, TxOutput};
use crate::support::{for_each_subset, Counting, InvertedIndex, RuleCounts};
use secreta_data::hash::{FxHashMap, FxHashSet};
use secreta_data::{stats::item_supports, ItemId, RtTable};
use secreta_metrics::anon::AnonTransaction;
use secreta_metrics::{AnonTable, GenEntry, PhaseTimer};

/// Parameters of a ρ-uncertainty run.
#[derive(Debug, Clone, PartialEq)]
pub struct RhoParams {
    /// Confidence threshold in `(0, 1]`; published rules `q → s` must
    /// have confidence `< rho`.
    pub rho: f64,
    /// Sensitive items (the `s` of the rules).
    pub sensitive: Vec<ItemId>,
    /// Antecedent size bound of the mining loop (≥ 0; 0 checks only
    /// the priors `∅ → s`, i.e. plain support disclosure).
    pub max_antecedent: usize,
}

impl RhoParams {
    /// Standard setup: threshold plus sensitive items, antecedents up
    /// to 2 (the setting of the original evaluation).
    pub fn new(rho: f64, mut sensitive: Vec<ItemId>) -> RhoParams {
        sensitive.sort_unstable();
        sensitive.dedup();
        RhoParams {
            rho,
            sensitive,
            max_antecedent: 2,
        }
    }
}

/// A violating sensitive association rule found during mining.
#[derive(Debug, Clone, PartialEq)]
struct Violation {
    antecedent: Vec<u32>,
    sensitive: u32,
    confidence: f64,
}

/// Mine violating rules `q → s` with `|q| <= max_antecedent` from the
/// rows' live (non-suppressed) items.
fn violations(
    table: &RtTable,
    rows: &[usize],
    suppressed: &[bool],
    params: &RhoParams,
) -> Vec<Violation> {
    let sensitive: FxHashSet<u32> = params
        .sensitive
        .iter()
        .filter(|s| !suppressed[s.index()])
        .map(|s| s.0)
        .collect();
    if sensitive.is_empty() || params.rho >= 1.0 {
        return Vec::new();
    }

    // count antecedent supports and antecedent∪{s} supports in one pass
    let mut sup_q: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
    let mut sup_qs: FxHashMap<(Vec<u32>, u32), u32> = FxHashMap::default();
    let mut live: Vec<u32> = Vec::new();
    for &r in rows {
        live.clear();
        live.extend(
            table
                .transaction(r)
                .iter()
                .filter(|it| !suppressed[it.index()])
                .map(|it| it.0),
        );
        if live.is_empty() {
            continue;
        }
        let present_sensitive: Vec<u32> = live
            .iter()
            .copied()
            .filter(|v| sensitive.contains(v))
            .collect();
        // enumerate antecedents of size 0..=max_antecedent over live
        // items (the empty antecedent models prior disclosure)
        for size in 0..=params.max_antecedent.min(live.len()) {
            for_each_subset(&live, size, &mut |q| {
                *sup_q.entry(q.to_vec()).or_insert(0) += 1;
                for &s in &present_sensitive {
                    if !q.contains(&s) {
                        *sup_qs.entry((q.to_vec(), s)).or_insert(0) += 1;
                    }
                }
            });
        }
    }

    let mut out = Vec::new();
    for ((q, s), &qs) in &sup_qs {
        let q_sup = *sup_q.get(q).expect("antecedent counted");
        let confidence = qs as f64 / q_sup as f64;
        if confidence >= params.rho {
            out.push(Violation {
                antecedent: q.clone(),
                sensitive: *s,
                confidence,
            });
        }
    }
    out
}

/// Pick the suppression victim from a round's kill counts: the item
/// killing the most violations per unit of lost occurrences (the
/// gain/loss greedy of SuppressControl). Ties break toward the
/// smaller item id — a strict total order, so the choice is
/// independent of map iteration order.
fn select_victim(kill_count: &FxHashMap<u32, usize>, base_supports: &[u64]) -> u32 {
    let (&victim, _) = kill_count
        .iter()
        .max_by(|(&a, &ka), (&b, &kb)| {
            let la = (base_supports[a as usize] as f64).max(1.0);
            let lb = (base_supports[b as usize] as f64).max(1.0);
            (ka as f64 / la)
                .partial_cmp(&(kb as f64 / lb))
                .expect("finite scores")
                // deterministic tie-break
                .then(b.cmp(&a))
        })
        .expect("violations imply candidates");
    victim
}

/// Run SuppressControl on `input` with `params` and the kernelized
/// (incremental, sharded) rule counters. `input.k`/`input.m` are
/// unused — ρ-uncertainty has its own parameters.
pub fn anonymize(input: &TransactionInput, params: &RhoParams) -> Result<TxOutput, TxError> {
    anonymize_with(input, params, Counting::Kernel)
}

/// Run SuppressControl with the naive reference counters (full rule
/// re-mining every round).
pub fn anonymize_reference(
    input: &TransactionInput,
    params: &RhoParams,
) -> Result<TxOutput, TxError> {
    anonymize_with(input, params, Counting::Naive)
}

/// Run SuppressControl with an explicit counting implementation.
pub fn anonymize_with(
    input: &TransactionInput,
    params: &RhoParams,
    counting: Counting,
) -> Result<TxOutput, TxError> {
    input.validate()?;
    if !(params.rho > 0.0 && params.rho <= 1.0) {
        return Err(TxError::BadInput(format!(
            "rho must be in (0, 1], got {}",
            params.rho
        )));
    }
    let universe = input.table.item_universe();
    for s in &params.sensitive {
        if s.index() >= universe {
            return Err(TxError::BadInput(format!(
                "sensitive item id {s} outside the universe"
            )));
        }
    }
    let mut timer = PhaseTimer::new();
    // empty transactions carry no rules: filter them once per run
    let rows = input.non_empty_rows();
    let mut suppressed = vec![false; universe];
    let base_supports = item_supports(input.table);
    timer.phase("setup");

    let recorder = secreta_obsv::current();
    let mut mining_rounds = 0u64;
    let mut rules_checked = 0u64;
    let mut n_suppressed = 0u64;
    match counting {
        Counting::Naive => loop {
            mining_rounds += 1;
            let viols = violations(input.table, &rows, &suppressed, params);
            rules_checked += viols.len() as u64;
            if viols.is_empty() {
                break;
            }
            let mut kill_count: FxHashMap<u32, usize> = FxHashMap::default();
            for v in &viols {
                for &q in &v.antecedent {
                    *kill_count.entry(q).or_insert(0) += 1;
                }
                *kill_count.entry(v.sensitive).or_insert(0) += 1;
            }
            let victim = select_victim(&kill_count, &base_supports);
            suppressed[victim as usize] = true;
            n_suppressed += 1;
        },
        Counting::Kernel => {
            let sensitive: FxHashSet<u32> = params.sensitive.iter().map(|s| s.0).collect();
            // rho >= 1.0 (or no sensitive items) is vacuous — mirror
            // the reference miner's short-circuit without counting
            let vacuous = sensitive.is_empty() || params.rho >= 1.0;
            let table = input.table;
            // transactions are stored sorted+deduped, so the filtered
            // live list is sorted too
            let fill_row = |sup: &[bool], pos: usize, buf: &mut Vec<u32>| {
                buf.extend(
                    table
                        .transaction(rows[pos])
                        .iter()
                        .filter(|it| !sup[it.index()])
                        .map(|it| it.0),
                );
            };
            let is_target = |t: u32| sensitive.contains(&t);
            let index = InvertedIndex::build(table, &rows, universe, |_| true);
            let mut rc = if vacuous {
                RuleCounts::default()
            } else {
                let mut rc = RuleCounts::build(
                    rows.len(),
                    params.max_antecedent,
                    true,
                    |pos, buf| fill_row(&suppressed, pos, buf),
                    is_target,
                );
                rc.stats.record_index(&index);
                rc
            };
            loop {
                mining_rounds += 1;
                let mut kill_count: FxHashMap<u32, usize> = FxHashMap::default();
                let mut viols = 0u64;
                if !vacuous {
                    for (q, s, qs, q_sup) in rc.rules() {
                        let confidence = qs as f64 / q_sup as f64;
                        if confidence >= params.rho {
                            viols += 1;
                            for &v in q {
                                *kill_count.entry(v).or_insert(0) += 1;
                            }
                            *kill_count.entry(s).or_insert(0) += 1;
                        }
                    }
                }
                rules_checked += viols;
                if viols == 0 {
                    break;
                }
                let victim = select_victim(&kill_count, &base_supports);
                suppressed[victim as usize] = true;
                n_suppressed += 1;
                // only rows containing the victim change their live
                // lists — everything else keeps its counts; the dirty
                // set rides the tiered RowSet path (dense bitmap when
                // the victim is a hot item)
                let dirty = index.union_rowset(std::iter::once(victim), &mut rc.stats);
                rc.stats.posting_unions += 1;
                rc.update_rowset(
                    &dirty,
                    |pos, buf| fill_row(&suppressed, pos, buf),
                    is_target,
                );
            }
            rc.stats.flush(&recorder);
        }
    }
    recorder.count("rho/mining_rounds", mining_rounds);
    recorder.count("rho/violating_rules", rules_checked);
    recorder.count("rho/suppressions", n_suppressed);
    timer.phase("suppress-control");

    let domain: Vec<GenEntry> = (0..universe as u32)
        .map(|v| GenEntry::Set(vec![v]))
        .collect();
    let tx = AnonTransaction::from_mapping(input.table, domain, |it| {
        if suppressed[it.index()] {
            None
        } else {
            Some(it.0)
        }
    });
    let anon = AnonTable {
        rel: Vec::new(),
        tx: Some(tx),
        n_rows: input.table.n_rows(),
    };
    timer.phase("publish");

    Ok(TxOutput {
        anon,
        phases: timer.finish(),
    })
}

/// Verify ρ-uncertainty of a published output (support/confidence
/// recomputed from the anonymized table alone, antecedents bounded by
/// `params.max_antecedent`).
pub fn is_rho_uncertain(table: &RtTable, anon: &AnonTable, params: &RhoParams) -> bool {
    let tx = match &anon.tx {
        Some(tx) => tx,
        None => return true,
    };
    // reconstruct the suppression set; SuppressControl publishes
    // singleton entries so gen id == item id for live items
    let universe = table.item_universe();
    let mut suppressed = vec![true; universe];
    for row in 0..tx.n_rows() {
        for &g in tx.row_items(row) {
            if let GenEntry::Set(s) = &tx.domain[g as usize] {
                for &v in s {
                    suppressed[v as usize] = false;
                }
            }
        }
    }
    let rows: Vec<usize> = (0..table.n_rows()).collect();
    violations(table, &rows, &suppressed, params).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use secreta_data::{Attribute, Schema};

    /// 10 transactions; "hiv" co-occurs with "marker" 3/3 times.
    fn table() -> RtTable {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        for tx in [
            vec!["marker", "hiv"],
            vec!["marker", "hiv", "flu"],
            vec!["marker", "hiv"],
            vec!["flu", "cold"],
            vec!["flu", "cold"],
            vec!["flu"],
            vec!["cold"],
            vec!["flu", "cold"],
            vec!["cold", "flu"],
            vec!["flu"],
        ] {
            t.push_row(&[], &tx).unwrap();
        }
        t
    }

    fn input(t: &RtTable) -> TransactionInput<'_> {
        TransactionInput {
            table: t,
            k: 1,
            m: 1,
            hierarchy: None,
            privacy: None,
            utility: None,
        }
    }

    fn hiv(t: &RtTable) -> ItemId {
        ItemId(t.item_pool().unwrap().get("hiv").unwrap())
    }

    #[test]
    fn breaks_perfect_inference_rules() {
        let t = table();
        // marker -> hiv has confidence 1.0; demand < 0.5
        let params = RhoParams::new(0.5, vec![hiv(&t)]);
        let out = anonymize(&input(&t), &params).unwrap();
        assert!(is_rho_uncertain(&t, &out.anon, &params));
        assert!(out.anon.is_truthful(&t, |_| None, None));
        // something had to be suppressed
        assert!(!out.anon.tx.as_ref().unwrap().suppressed.is_empty());
    }

    #[test]
    fn lenient_rho_changes_nothing() {
        let t = table();
        // hiv prior is 3/10; any antecedent raises it to 1.0, so only
        // rho > 1.0-equivalent settings leave data untouched. Use a
        // non-sensitive-free policy instead: no sensitive items.
        let params = RhoParams::new(0.5, vec![]);
        let out = anonymize(&input(&t), &params).unwrap();
        assert!(out.anon.tx.as_ref().unwrap().suppressed.is_empty());
        assert!(is_rho_uncertain(&t, &out.anon, &params));
    }

    #[test]
    fn prior_disclosure_is_caught_by_empty_antecedent() {
        let t = table();
        // hiv prior = 0.3; demanding rho <= 0.3 forces suppression of
        // hiv itself even with max_antecedent = 0
        let params = RhoParams {
            rho: 0.3,
            sensitive: vec![hiv(&t)],
            max_antecedent: 0,
        };
        let out = anonymize(&input(&t), &params).unwrap();
        let tx = out.anon.tx.as_ref().unwrap();
        assert!(tx.suppressed.binary_search(&hiv(&t)).is_ok());
        assert!(is_rho_uncertain(&t, &out.anon, &params));
    }

    #[test]
    fn suppression_prefers_low_loss_items() {
        let t = table();
        // killing marker->hiv: suppressing "marker" (sup 3) loses less
        // than suppressing "flu" (sup 7) and kills the rule; hiv's
        // prior (0.3) is below 0.6 so hiv itself can stay
        let params = RhoParams::new(0.6, vec![hiv(&t)]);
        let out = anonymize(&input(&t), &params).unwrap();
        let tx = out.anon.tx.as_ref().unwrap();
        let flu = ItemId(t.item_pool().unwrap().get("flu").unwrap());
        assert!(tx.suppressed.binary_search(&flu).is_err(), "flu kept");
        assert!(is_rho_uncertain(&t, &out.anon, &params));
    }

    #[test]
    fn invalid_parameters_rejected() {
        let t = table();
        assert!(matches!(
            anonymize(&input(&t), &RhoParams::new(0.0, vec![])),
            Err(TxError::BadInput(_))
        ));
        assert!(matches!(
            anonymize(&input(&t), &RhoParams::new(1.5, vec![])),
            Err(TxError::BadInput(_))
        ));
        assert!(matches!(
            anonymize(&input(&t), &RhoParams::new(0.5, vec![ItemId(999)])),
            Err(TxError::BadInput(_))
        ));
    }

    #[test]
    fn verifier_rejects_unprotected_output() {
        let t = table();
        let identity = AnonTable::identity(&t, &[]);
        let params = RhoParams::new(0.5, vec![hiv(&t)]);
        assert!(!is_rho_uncertain(&t, &identity, &params));
    }

    #[test]
    fn rho_one_is_vacuous() {
        let t = table();
        let params = RhoParams::new(1.0, vec![hiv(&t)]);
        let out = anonymize(&input(&t), &params).unwrap();
        assert!(out.anon.tx.as_ref().unwrap().suppressed.is_empty());
    }

    #[test]
    fn deterministic() {
        let t = table();
        let params = RhoParams::new(0.4, vec![hiv(&t)]);
        let a = anonymize(&input(&t), &params).unwrap();
        let b = anonymize(&input(&t), &params).unwrap();
        assert_eq!(a.anon, b.anon);
    }
}
