//! The three benchmark workloads: their sizes, their configurations,
//! and the input files each writes from a seed.
//!
//! A workload only ever reaches the program as files (a CSV dataset,
//! a query file and, for `compare-tx`, a privacy-policy file), exactly
//! as a user of the CLI would hand them over.

use secreta_core::data::csv as dcsv;
use secreta_core::gen::{DatasetSpec, WorkloadSpec};
use secreta_core::metrics::query::write_workload;
use secreta_core::policy::{generate_privacy, io as pio, PrivacyStrategy};
use secreta_core::{Bounding, Configuration, MethodSpec, RelAlgo, Sweep, TxAlgo, VaryingParam};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Seed of the query template: which rows anchor the queries and
/// which attributes each query constrains. It is fixed so that every
/// seed asks the same shape of queries; the values in each query come
/// from its anchor row, so they still change with the data seed. (The
/// cost of ARE differs by an order of magnitude between attributes,
/// which made the template, not the code, dominate run-to-run spread.)
pub const QUERY_TEMPLATE_SEED: u64 = 0x5ec2e7a;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Comparison mode over an RT table: four relational algorithms
    /// plus Cluster+Apriori through two bounding methods.
    CompareRt,
    /// Comparison mode over a basket table under a privacy policy:
    /// the five transaction algorithms.
    CompareTx,
    /// Evaluation mode over a large CSV loaded under a memory budget.
    EvaluateLarge,
}

/// Input scale: `Full` is what the benchmark measures; `Tiny` keeps
/// every configuration but shrinks the data for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Benchmark size.
    Full,
    /// Self-test size.
    Tiny,
}

impl Size {
    /// Parse a size name.
    pub fn parse(name: &str) -> Option<Size> {
        [Size::Full, Size::Tiny]
            .into_iter()
            .find(|s| s.name() == name)
    }

    /// The size's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

impl Workload {
    /// Every workload, in the order the reference table lists them.
    pub const ALL: [Workload; 3] = [
        Workload::CompareRt,
        Workload::CompareTx,
        Workload::EvaluateLarge,
    ];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompareRt => "compare-rt",
            Workload::CompareTx => "compare-tx",
            Workload::EvaluateLarge => "evaluate-large",
        }
    }

    /// The input sizes at `size`.
    pub fn plan(self, size: Size) -> Plan {
        let tiny = size == Size::Tiny;
        match self {
            Workload::CompareRt => Plan {
                rows: if tiny { 150 } else { 2_000 },
                items: 200,
                queries: if tiny { 10 } else { 50 },
                privacy_itemsets: 0,
                memory_budget_mb: None,
            },
            Workload::CompareTx => Plan {
                rows: if tiny { 300 } else { 10_000 },
                items: if tiny { 40 } else { 200 },
                queries: if tiny { 10 } else { 50 },
                privacy_itemsets: if tiny { 20 } else { 400 },
                memory_budget_mb: None,
            },
            Workload::EvaluateLarge => Plan {
                rows: if tiny { 500 } else { 300_000 },
                items: 200,
                queries: 0,
                privacy_itemsets: 0,
                memory_budget_mb: Some(256),
            },
        }
    }

    /// The sweep configurations the workload runs; `seed` feeds the
    /// randomized algorithms (Cluster's seeding).
    pub fn configurations(self, seed: u64) -> Vec<Configuration> {
        let k_sweep = |start, end, step| Sweep {
            param: VaryingParam::K,
            start,
            end,
            step,
        };
        let rel = |algo| MethodSpec::Relational { algo, k: 5 };
        match self {
            Workload::CompareRt => {
                let rt = |bounding| MethodSpec::Rt {
                    rel: RelAlgo::Cluster,
                    tx: TxAlgo::Apriori,
                    bounding,
                    k: 5,
                    m: 2,
                    delta: 2,
                };
                [
                    rel(RelAlgo::Cluster),
                    rel(RelAlgo::Incognito),
                    rel(RelAlgo::TopDown),
                    rel(RelAlgo::BottomUp),
                    rt(Bounding::RMerge),
                    rt(Bounding::RtMerge),
                ]
                .into_iter()
                .map(|spec| Configuration::new(spec, k_sweep(5, 15, 5), seed))
                .collect()
            }
            Workload::CompareTx => [
                TxAlgo::Apriori,
                TxAlgo::Lra { partitions: 4 },
                TxAlgo::Vpa { parts: 4 },
                TxAlgo::Coat,
                TxAlgo::Pcta,
            ]
            .into_iter()
            .map(|algo| {
                let spec = MethodSpec::Transaction { algo, k: 5, m: 2 };
                Configuration::new(spec, k_sweep(5, 20, 5), seed)
            })
            .collect(),
            Workload::EvaluateLarge => [RelAlgo::Incognito, RelAlgo::TopDown]
                .into_iter()
                .map(|algo| Configuration::new(rel(algo), k_sweep(10, 100, 15), seed))
                .collect(),
        }
    }

    /// The dataset generator for `plan` and `seed`.
    fn dataset(self, plan: &Plan, seed: u64) -> DatasetSpec {
        match self {
            Workload::CompareRt | Workload::EvaluateLarge => {
                let mut spec = DatasetSpec::adult_like(plan.rows, seed);
                spec.n_items = plan.items;
                spec
            }
            Workload::CompareTx => DatasetSpec::basket(plan.rows, plan.items, seed),
        }
    }

    /// Write the workload's input files for `seed` into `dir`: the
    /// dataset CSV, the query file and (when the plan has one) the
    /// privacy-policy file. Equal seeds give byte-identical files.
    ///
    /// Queries and policy are drawn from the dataset as read back from
    /// the CSV, like `secreta workload` / `secreta policy` do: the
    /// generated table's domains also hold values no row took, which
    /// the CSV cannot carry.
    pub fn write_inputs(self, size: Size, seed: u64, dir: &Path) -> Result<Inputs, String> {
        let plan = self.plan(size);
        let inputs = Inputs::in_dir(dir, plan.privacy_itemsets > 0);
        let generated = self.dataset(&plan, seed).generate();
        dcsv::write_table_path(&generated, &inputs.dataset, &crate::setup::csv_options())
            .map_err(|e| e.to_string())?;
        drop(generated);
        let (table, _) = crate::setup::ingest(&inputs.dataset, &plan)?;

        let workload = WorkloadSpec {
            n_queries: plan.queries,
            seed: QUERY_TEMPLATE_SEED,
            ..WorkloadSpec::default()
        }
        .generate(&table);
        write_file(&inputs.queries, |w| {
            write_workload(&workload, &table, w).map_err(|e| e.to_string())
        })?;

        if let Some(path) = &inputs.privacy {
            let policy = generate_privacy(
                &table,
                &PrivacyStrategy::RandomItemsets {
                    size: 2,
                    count: plan.privacy_itemsets,
                    seed,
                },
            );
            write_file(path, |w| {
                pio::write_privacy(&policy, &table, w).map_err(|e| e.to_string())
            })?;
        }
        Ok(inputs)
    }
}

/// Input sizes of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Dataset rows.
    pub rows: usize,
    /// Item universe of the transaction attribute.
    pub items: usize,
    /// Queries in the ARE workload (0 = none).
    pub queries: usize,
    /// Size-2 itemsets in the `RandomItemsets` privacy policy (0 = no
    /// policy file).
    pub privacy_itemsets: usize,
    /// Accounted-memory budget of the chunked ingest, in MB.
    pub memory_budget_mb: Option<u64>,
}

/// Paths of a workload's input files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// The dataset CSV (transaction column `Items`).
    pub dataset: PathBuf,
    /// The query workload file.
    pub queries: PathBuf,
    /// The privacy-policy file, when the workload has one.
    pub privacy: Option<PathBuf>,
}

impl Inputs {
    /// The input file names inside `dir`.
    pub fn in_dir(dir: &Path, with_privacy: bool) -> Inputs {
        Inputs {
            dataset: dir.join("data.csv"),
            queries: dir.join("queries.txt"),
            privacy: with_privacy.then(|| dir.join("privacy.txt")),
        }
    }

    /// Total size of the input files in bytes.
    pub fn bytes(&self) -> u64 {
        [
            Some(&self.dataset),
            Some(&self.queries),
            self.privacy.as_ref(),
        ]
        .into_iter()
        .flatten()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
    }
}

fn write_file(
    path: &Path,
    body: impl FnOnce(&mut BufWriter<std::fs::File>) -> Result<(), String>,
) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    body(&mut w)?;
    w.flush().map_err(|e| format!("{}: {e}", path.display()))
}
