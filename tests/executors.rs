//! The executor contract: one sweep run through the in-process pool
//! (`Orchestrator::compare`) and through the lease-based distributed
//! coordinator (`run_distributed` + `worker_loop`) must be the same
//! sweep — same id and cache counters, same indicators, byte-identical
//! stored anonymizations, and the same journal story — and a warm
//! re-run through either executor must be served entirely from cache.

use secreta::core::config::{MethodSpec, RelAlgo, TxAlgo};
use secreta::core::distributed::{run_distributed, worker_loop, DistOptions};
use secreta::core::store::{JournalEvent, RunStore};
use secreta::core::{
    sweep_id_for, Configuration, Orchestrated, Orchestrator, SessionContext, Sweep, VaryingParam,
};
use secreta::gen::{DatasetSpec, WorkloadSpec};
use std::collections::BTreeMap;

fn session() -> SessionContext {
    let table = DatasetSpec::adult_like(60, 5).generate();
    let ctx = SessionContext::auto(table, 4).expect("hierarchies");
    let w = WorkloadSpec {
        n_queries: 10,
        ..Default::default()
    }
    .generate(&ctx.table);
    ctx.with_workload(w)
}

fn configs() -> Vec<Configuration> {
    let sweep = Sweep {
        param: VaryingParam::K,
        start: 2,
        end: 6,
        step: 2,
    };
    vec![
        Configuration::new(
            MethodSpec::Relational {
                algo: RelAlgo::Cluster,
                k: 0,
            },
            sweep,
            3,
        ),
        Configuration::new(
            MethodSpec::Transaction {
                algo: TxAlgo::Apriori,
                k: 0,
                m: 2,
            },
            sweep,
            3,
        ),
    ]
}

fn fresh_store(name: &str) -> RunStore {
    let dir = std::env::temp_dir().join(format!("secreta-exec-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    RunStore::open(dir).unwrap()
}

fn in_process(ctx: &SessionContext, store: &RunStore) -> Orchestrated {
    Orchestrator::new(2)
        .with_store(store.clone())
        .compare(ctx, &configs(), serde_json::parse_value("null").unwrap())
        .unwrap()
}

/// The coordinator in attach mode plus two `worker_loop` threads.
fn distributed(ctx: &SessionContext, store: &RunStore) -> Orchestrated {
    let opts = DistOptions {
        lease_ttl_ms: 2_000,
        poll_ms: 5,
        workers: 0,
        worker_wait_ms: 5_000,
    };
    let sweep = sweep_id_for(ctx, &configs());
    std::thread::scope(|s| {
        let coordinator = s.spawn(|| {
            run_distributed(
                ctx,
                store,
                &configs(),
                serde_json::parse_value("null").unwrap(),
                &opts,
                None,
            )
            .unwrap()
        });
        for _ in 0..2 {
            s.spawn(|| worker_loop(ctx, store, &sweep, &opts).unwrap());
        }
        coordinator.join().unwrap()
    })
}

/// Every stored `anon.json`, byte for byte, keyed by run key.
fn anon_files(store: &RunStore) -> BTreeMap<String, Vec<u8>> {
    store
        .list()
        .unwrap()
        .into_iter()
        .map(|m| {
            let path = store
                .root()
                .join("runs")
                .join(&m.key[..2])
                .join(&m.key)
                .join("anon.json");
            (m.key, std::fs::read(path).unwrap())
        })
        .collect()
}

/// What one journal says about its sweeps: the job list of every
/// `SweepStarted`, (JobStarted, executed JobFinished) counts per key,
/// and every `SweepFinished`'s counters.
type Story = (
    Vec<Vec<Vec<(f64, String)>>>,
    BTreeMap<String, (usize, usize)>,
    Vec<(u64, u64, u64)>,
);

fn story(store: &RunStore) -> Story {
    let (mut intents, mut per_key, mut finished) = (Vec::new(), BTreeMap::new(), Vec::new());
    for event in store.read_journal().unwrap() {
        match event {
            JournalEvent::SweepStarted(rec) => intents.push(rec.jobs),
            JournalEvent::JobStarted { key, .. } => {
                per_key.entry(key).or_insert((0, 0)).0 += 1;
            }
            JournalEvent::JobFinished {
                key,
                cache_hit: false,
                ..
            } => per_key.entry(key).or_insert((0, 0)).1 += 1,
            JournalEvent::SweepFinished {
                hits,
                misses,
                failures,
                ..
            } => finished.push((hits, misses, failures)),
            _ => {}
        }
    }
    (intents, per_key, finished)
}

fn assert_no_job_state(store: &RunStore) {
    for dir in ["jobs", "leases"] {
        assert!(
            !store.root().join(dir).exists(),
            "{dir}/ left behind in {}",
            store.root().display()
        );
    }
}

#[test]
fn pool_and_lease_executors_run_the_same_sweep() {
    let ctx = session();
    let (pool_store, lease_store) = (fresh_store("pool"), fresh_store("lease"));
    let pool = in_process(&ctx, &pool_store);
    let lease = distributed(&ctx, &lease_store);

    assert_eq!(pool.sweep_id, lease.sweep_id);
    assert_eq!(pool.stats, lease.stats);
    assert_eq!((pool.stats.misses, pool.stats.failures), (6, 0));
    assert_eq!(pool.result.labels, lease.result.labels);
    for (p_cfg, l_cfg) in pool.result.points.iter().zip(&lease.result.points) {
        assert_eq!(p_cfg.len(), 3);
        for ((pv, pr), (lv, lr)) in p_cfg.iter().zip(l_cfg) {
            assert_eq!(pv, lv);
            // runtime_ms is wall-clock and differs between live runs
            let mut a = pr.as_ref().unwrap().indicators.clone();
            let mut b = lr.as_ref().unwrap().indicators.clone();
            a.runtime_ms = 0.0;
            b.runtime_ms = 0.0;
            assert_eq!(a, b, "k={pv} diverged");
        }
    }
    let files = anon_files(&pool_store);
    assert_eq!(files.len(), 6);
    assert_eq!(files, anon_files(&lease_store), "anon.json bytes differ");

    let (pool_intents, pool_jobs, pool_finished) = story(&pool_store);
    let (lease_intents, lease_jobs, lease_finished) = story(&lease_store);
    assert_eq!(pool_intents.len(), 1, "one SweepStarted");
    assert_eq!(pool_intents, lease_intents, "same job list");
    for jobs in [&pool_jobs, &lease_jobs] {
        assert_eq!(jobs.len(), 6);
        assert!(
            jobs.values().all(|&counts| counts == (1, 1)),
            "each executed key starts and finishes once: {jobs:?}"
        );
    }
    assert_eq!(pool_finished, vec![(0, 6, 0)]);
    assert_eq!(pool_finished, lease_finished);
    assert_no_job_state(&lease_store);

    // warm: both executors serve the whole sweep from their store
    let warm_pool = in_process(&ctx, &pool_store);
    let warm_lease = run_distributed(
        &ctx,
        &lease_store,
        &configs(),
        serde_json::parse_value("null").unwrap(),
        &DistOptions::default(),
        None,
    )
    .unwrap();
    for warm in [&warm_pool, &warm_lease] {
        assert_eq!(warm.sweep_id, pool.sweep_id);
        assert_eq!((warm.stats.hits, warm.stats.misses), (6, 0));
    }
    assert_eq!(story(&pool_store).2, story(&lease_store).2);
    for store in [&pool_store, &lease_store] {
        assert_no_job_state(store);
        let _ = std::fs::remove_dir_all(store.root());
    }
}
