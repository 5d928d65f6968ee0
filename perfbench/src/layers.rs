//! Per-layer measurement from outside the program: spans around public
//! calls into each crate, kept in memory and written out at the end.
//!
//! The traced run alternates traced and untraced blocks. In a traced block
//! every request is followed by "mirror" probes: the public calls that the
//! statement makes inside the program (parse, workload-repository record,
//! `Txn::begin`/`commit`, the snapshot copy, in-memory execution), timed
//! one by one under the request's id. Their sum over the request's
//! untraced latency is the span coverage; the traced-over-untraced
//! throughput ratio is the tracing overhead.

use crate::common::ms_since;
use crate::report::{Metrics, J};
use crate::stats::median;
use orion_core::prelude::{
    BuiltIndex, CmpOp, ExecOptions, IndexDef, IndexKind, Predicate, SharedDurableDb, Txn, Value,
};
use orion_obs::{ExecSample, WorkloadRepo};
use orion_pdf::prelude::{Interval, Pdf1, RegionSet};
use orion_sql::{Database, Output};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub req: u64,
    pub name: &'static str,
    /// Client thread that issued the request.
    pub tid: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// In-memory span store of one client thread.
pub struct Spans {
    t0: Instant,
    tid: u64,
    pub spans: Vec<Span>,
    /// A private repository, so probing `record` leaves the engine's own
    /// statement statistics untouched.
    repo: WorkloadRepo,
}

impl Spans {
    pub fn new() -> Spans {
        Spans::starting_at(Instant::now(), 0)
    }

    /// A store for client `tid` whose timestamps count from `t0`.
    pub fn starting_at(t0: Instant, tid: u64) -> Spans {
        Spans { t0, tid, spans: Vec::new(), repo: WorkloadRepo::new(Default::default()) }
    }

    pub fn t0(&self) -> Instant {
        self.t0
    }

    /// Times `f` as span `name` of request `req`.
    pub fn time<R>(&mut self, req: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.push(req, name, start);
        out
    }

    fn push(&mut self, req: u64, name: &'static str, start: Instant) {
        let dur_ns = start.elapsed().as_nanos() as u64;
        let start_ns = start.duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span { req, name, tid: self.tid, start_ns, dur_ns });
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns as f64 / 1e6).collect()
    }

    /// Mirror probes of the SQL and observability layers for one statement.
    pub fn sql_and_obs(&mut self, req: u64, sql: &str) {
        let Ok(stmt) = self.time(req, "sql.parse", || orion_sql::parse(black_box(sql))) else {
            return;
        };
        let (fingerprint, text) = orion_sql::fingerprint(&stmt);
        let sample =
            ExecSample { fingerprint, text, nanos: 1_000_000, rows: 1, ..Default::default() };
        let start = Instant::now();
        black_box(self.repo.record(&sample));
        self.push(req, "obs.record", start);
    }

    /// `Txn::begin` at the live database size.
    pub fn txn_begin(&mut self, req: u64, db: &SharedDurableDb) {
        let txn = self.time(req, "core.txn_begin", || Txn::begin(db));
        txn.rollback();
    }

    /// `Txn::commit` of a one-row write. The probe row (a negative rid no
    /// workload uses) is deleted again by an untimed second transaction.
    pub fn txn_commit_row(
        &mut self,
        req: u64,
        db: &SharedDurableDb,
        table: &str,
    ) -> Result<(), String> {
        let rid = -(req as i64) - 1;
        let mut txn = Txn::begin(db);
        let pdf = Pdf1::gaussian(50.0, 4.0).map_err(|e| e.to_string())?;
        txn.insert_simple(table, &[("rid", Value::Int(rid))], &[("value", pdf)])
            .map_err(|e| e.to_string())?;
        self.time(req, "core.txn_commit", || txn.commit())
            .map_err(|e| format!("probe commit: {e}"))?;
        let mut undo = Txn::begin(db);
        undo.delete_where(table, |t| t.certain[0] == Value::Int(rid)).map_err(|e| e.to_string())?;
        undo.commit().map_err(|e| format!("probe undo: {e}"))?;
        Ok(())
    }

    /// The per-statement snapshot copy (`with_tables` clone of tables and
    /// registry) that every session read makes.
    pub fn snapshot_copy(&mut self, req: u64, db: &SharedDurableDb) {
        let copy =
            self.time(req, "core.snapshot_copy", || db.with_tables(|t, r| (t.clone(), r.clone())));
        drop(black_box(copy));
    }

    /// Sum of every span of request `req`, in milliseconds.
    pub fn req_ms(&self) -> BTreeMap<u64, f64> {
        let mut m = BTreeMap::new();
        for s in &self.spans {
            *m.entry(s.req).or_insert(0.0) += s.dur_ns as f64 / 1e6;
        }
        m
    }

    /// Writes the spans as a Chrome trace-event file.
    pub fn write_chrome(&self, path: &Path) -> Result<(), String> {
        let events: Vec<J> = self
            .spans
            .iter()
            .map(|s| {
                J::obj()
                    .with("name", J::Str(s.name.into()))
                    .with("ph", J::Str("X".into()))
                    .with("ts", J::Num(s.start_ns as f64 / 1e3))
                    .with("dur", J::Num(s.dur_ns as f64 / 1e3))
                    .with("pid", J::Int(1))
                    .with("tid", J::Int(s.tid))
                    .with("args", J::obj().with("req", J::Int(s.req)))
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        let doc = J::obj().with("traceEvents", J::Arr(events));
        std::fs::write(path, doc.render()).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Puts the medians of the loop's mirror spans into `layer`.
pub fn span_metrics(spans: &Spans, layer: &mut Metrics) {
    layer.put("sql.parse_us", median(&spans.ms("sql.parse")) * 1e3, "us");
    layer.put("obs.record_us", median(&spans.ms("obs.record")) * 1e3, "us");
}

/// The statement classes the layer panel runs on every workload's final
/// state, so every per-layer metric exists on every workload.
pub const PANEL_CLASSES: [&str; 5] =
    ["point_read", "threshold_scan", "threshold_indexed", "range_expected", "join"];

/// Warmed in-memory copy of a durable database's current state, with
/// operator counters attached.
pub fn memory_copy(
    db: &SharedDurableDb,
    setup_sql: &[String],
) -> Result<(Database, std::sync::Arc<orion_obs::ExecStats>), String> {
    let (tables, reg) = db.with_tables(|t, r| (t.clone(), r.clone()));
    let mut mem = Database::new();
    for rel in tables.into_values() {
        mem.register_table(rel);
    }
    *mem.registry_mut() = reg;
    for sql in setup_sql {
        mem.execute(sql).map_err(|e| format!("{sql}: {e}"))?;
    }
    let stats = std::sync::Arc::new(orion_obs::ExecStats::new());
    mem.set_exec_stats(std::sync::Arc::clone(&stats));
    Ok((mem, stats))
}

/// The `cdf` index on `readings.value` that `prob_analytics` creates.
pub fn cdf_index_def() -> IndexDef {
    IndexDef {
        name: "readings_value_cdf".into(),
        table: "readings".into(),
        column: "value".into(),
        kind: IndexKind::Cdf,
    }
}

/// Medians of repeated calls, in nanoseconds per inner item.
fn per_item_ns(reps: usize, items: usize, mut f: impl FnMut()) -> f64 {
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        xs.push(t.elapsed().as_nanos() as f64 / items.max(1) as f64);
    }
    median(&xs)
}

/// Kernel and index probes over the `readings` table's pdfs.
pub fn kernel_metrics(
    db: &SharedDurableDb,
    range: (f64, f64),
    layer: &mut Metrics,
) -> Result<(), String> {
    let rel = db.with_tables(|t, _| t.get("readings").cloned()).ok_or("no readings table")?;
    let pdfs: Vec<Pdf1> = (0..rel.len())
        .map(|ti| rel.marginal(ti, "value").map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    layer.put(
        "pdf.cdf_ns",
        per_item_ns(21, pdfs.len(), || {
            for p in &pdfs {
                black_box(p.cumulative(black_box(50.0)));
            }
        }),
        "ns",
    );
    let region = RegionSet::from_interval(Interval::new(range.0, range.1));
    layer.put(
        "pdf.floor_expect_us",
        per_item_ns(7, pdfs.len(), || {
            for p in &pdfs {
                black_box(p.floor_region(&region).expected_value());
            }
        }) / 1e3,
        "us",
    );
    let def = cdf_index_def();
    let mut err = None;
    let build_ns = per_item_ns(7, 1, || {
        if let Err(e) = BuiltIndex::build(&def, &rel, 0).map(black_box) {
            err = Some(e.to_string());
        }
    });
    if let Some(e) = err {
        return Err(format!("index build: {e}"));
    }
    layer.put("pindex.build_ms", build_ns / 1e6, "ms");

    // One Gaussian probe against one Uniform zone, through the public
    // join operator.
    let mut mem = Database::new();
    for sql in [
        "CREATE TABLE jp (pid INT, pos REAL UNCERTAIN)",
        "CREATE TABLE jz (zid INT, boundary REAL UNCERTAIN)",
        "INSERT INTO jp VALUES (1, GAUSSIAN(50, 4))",
        "INSERT INTO jz VALUES (2, UNIFORM(45, 55))",
    ] {
        mem.execute(sql).map_err(|e| e.to_string())?;
    }
    let l = mem.table("jp").cloned().ok_or("jp")?;
    let r = mem.table("jz").cloned().ok_or("jz")?;
    let pred = Predicate::cmp_cols("pos", CmpOp::Lt, "boundary");
    let opts = ExecOptions::default();
    let mut err = None;
    let pair_ns = per_item_ns(31, 1, || {
        match orion_core::join::join(&l, &r, Some(&pred), mem.registry_mut(), &opts) {
            Ok(rel) if rel.len() == 1 => {
                black_box(rel);
            }
            Ok(rel) => err = Some(format!("1x1 join returned {} rows", rel.len())),
            Err(e) => err = Some(e.to_string()),
        }
    });
    if let Some(e) = err {
        return Err(format!("join probe: {e}"));
    }
    layer.put("pdf.join_pair_us", pair_ns / 1e3, "us");
    Ok(())
}

/// `Txn::commit` of a transaction with no writes.
pub fn empty_commit_ms(db: &SharedDurableDb) -> Result<f64, String> {
    let mut xs = Vec::new();
    for _ in 0..15 {
        let txn = Txn::begin(db);
        let t = Instant::now();
        txn.commit().map_err(|e| e.to_string())?;
        xs.push(ms_since(t));
    }
    Ok(median(&xs))
}

/// Exact operator counts of one in-memory execution.
pub struct Counts {
    /// Input rows (or join pairs) not pruned by an index.
    pub examined: u64,
    pub rows_out: u64,
    pub pdf_products: u64,
    pub pdf_floors: u64,
    pub collapses: u64,
    pub index_probes: u64,
    pub index_pruned: u64,
}

/// Executes `sql` on the in-memory copy, returning output, time and the
/// operator-counter deltas. `input` is the number of rows (or join pairs)
/// the statement reads before any index pruning.
pub fn exec_counted(
    mem: &mut Database,
    stats: &orion_obs::ExecStats,
    sql: &str,
    input: u64,
) -> Result<(Output, f64, Counts), String> {
    let before = stats.snapshot();
    let t = Instant::now();
    let out = mem.execute(sql).map_err(|e| format!("{sql}: {e}"))?;
    let ms = ms_since(t);
    let after = stats.snapshot();
    let counts = Counts {
        examined: input.saturating_sub(after.index_pruned - before.index_pruned),
        rows_out: crate::common::row_count(&out) as u64,
        pdf_products: after.pdf_products - before.pdf_products,
        pdf_floors: after.pdf_floors - before.pdf_floors,
        collapses: after.collapses - before.collapses,
        index_probes: after.index_probes - before.index_probes,
        index_pruned: after.index_pruned - before.index_pruned,
    };
    Ok((out, ms, counts))
}

/// Puts the per-class panel results into `layer`.
pub fn class_metrics(
    class: &str,
    session_ms: &[f64],
    memory_ms: &[f64],
    counts: &[Counts],
    layer: &mut Metrics,
) {
    let mem = median(memory_ms);
    layer.put(format!("core.exec_ms.{class}"), mem, "ms");
    layer.put(format!("core.session_overhead_ratio.{class}"), median(session_ms) / mem, "ratio");
    let n = counts.len().max(1) as f64;
    let sum = |f: fn(&Counts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    layer.put(
        format!("core.rows_examined_per_row.{class}"),
        sum(|c| c.examined) / sum(|c| c.rows_out).max(1.0),
        "ratio",
    );
    layer.put(format!("core.pdf_products.{class}"), sum(|c| c.pdf_products) / n, "count");
    layer.put(format!("core.pdf_floors.{class}"), sum(|c| c.pdf_floors) / n, "count");
    layer.put(format!("core.collapses.{class}"), sum(|c| c.collapses) / n, "count");
    layer.put(format!("core.index_probes.{class}"), sum(|c| c.index_probes) / n, "count");
    layer.put(format!("core.index_pruned.{class}"), sum(|c| c.index_pruned) / n, "count");
}
