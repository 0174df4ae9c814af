//! Set-up: input files → a ready [`SessionContext`], the way the CLI
//! builds one (chunked ingest with numeric auto-detection, automatic
//! hierarchies, then the query and policy files).

use crate::workload::{Inputs, Plan};
use secreta_core::data::{chunk, ChunkStats, CsvOptions, MemoryBudget, RtTable};
use secreta_core::metrics::query::read_workload;
use secreta_core::policy::io as pio;
use secreta_core::SessionContext;
use std::path::Path;
use std::time::{Duration, Instant};

/// Fan-out of the automatic hierarchies (the CLI's default).
const FANOUT: usize = 4;

/// Wall time of each set-up layer, measured around its calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `chunk::read_chunked_path` through `into_table`.
    pub ingest: Duration,
    /// `SessionContext::auto`: every automatic hierarchy.
    pub hierarchy: Duration,
    /// The query-workload and privacy-policy readers.
    pub policy: Duration,
}

/// What the ingest reports besides the table.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestFacts {
    /// Rows ingested.
    pub rows: u64,
    /// High-water mark of the ingest's accounted memory, in bytes.
    pub accounted_peak_bytes: u64,
}

/// CSV options of every workload's dataset: the transaction column is
/// `Items`, as `secreta-gen` names it.
pub fn csv_options() -> CsvOptions {
    CsvOptions {
        transaction_column: Some("Items".to_owned()),
        ..CsvOptions::default()
    }
}

/// Read a dataset CSV as the CLI does: chunked ingest under the plan's
/// memory budget, numeric columns detected from the values.
pub fn ingest(path: &Path, plan: &Plan) -> Result<(RtTable, ChunkStats), String> {
    let budget = match plan.memory_budget_mb {
        Some(mb) => MemoryBudget::megabytes(mb),
        None => MemoryBudget::unlimited(),
    };
    let mut chunked = chunk::read_chunked_path(path, &csv_options(), chunk::chunk_rows(), budget)
        .map_err(|e| e.to_string())?;
    chunked.reclassify_numeric();
    let stats = chunked.stats();
    let table = chunked.into_table().map_err(|e| e.to_string())?;
    Ok((table, stats))
}

/// Load `inputs` into a session context.
pub fn load(
    inputs: &Inputs,
    plan: &Plan,
) -> Result<(SessionContext, SetupTimes, IngestFacts), String> {
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let (table, stats) = ingest(&inputs.dataset, plan)?;
    times.ingest = t.elapsed();

    let t = Instant::now();
    let ctx = SessionContext::auto(table, FANOUT).map_err(|e| e.to_string())?;
    times.hierarchy = t.elapsed();

    let t = Instant::now();
    let open =
        |path: &Path| std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()));
    let workload = read_workload(open(&inputs.queries)?, &ctx.table)
        .map_err(|e| format!("{}: {e}", inputs.queries.display()))?;
    let privacy = match &inputs.privacy {
        Some(path) => Some(
            pio::read_privacy(open(path)?, &ctx.table)
                .map_err(|e| format!("{}: {e}", path.display()))?,
        ),
        None => None,
    };
    let ctx = ctx
        .with_workload(workload)
        .with_policies(privacy, None)
        .with_ingest_stats(stats.clone());
    times.policy = t.elapsed();

    let facts = IngestFacts {
        rows: stats.rows,
        accounted_peak_bytes: stats.peak_accounted_bytes,
    };
    Ok((ctx, times, facts))
}
