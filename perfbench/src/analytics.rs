//! `prob_analytics`: one read-only client on 2000 readings with a `cdf`
//! index, plus a 10-probe × 10-zone uncertain join. The core operators, the
//! planner and index, and the pdf kernels do the work; the snapshot copy is
//! small and the WAL is idle.
//!
//! Also the layer panel every traced run ends with.

use crate::common::{
    exec, fingerprint, insert_sql, ms_since, normal_quantile, result_text, stratified, Reading,
    Rng, Sensors, WorkDir,
};
use crate::layers::{
    cdf_index_def, class_metrics, empty_commit_ms, exec_counted, kernel_metrics, memory_copy,
    PANEL_CLASSES,
};
use crate::phase::{finish_recovery, timed_setups, Blocks};
use crate::report::{Outcomes, Report};
use crate::Args;
use orion_core::prelude::{BuiltIndex, SharedDurableDb, Txn, Value};
use orion_pdf::prelude::Pdf1;
use orion_sql::{Database, DurableSession, Output};
use std::collections::HashMap;
use std::time::Instant;

const ROWS: i64 = 2000;
const PROBES: i64 = 10;
const ZONES: i64 = 10;
const LOAD_BATCH: usize = 500;
/// Distinct statements per threshold class (range queries: 3/4 as many,
/// the join: one); each has its reference result computed before timing.
const POOL: usize = 16;
const INDEX_SQL: &str = "CREATE INDEX readings_value_cdf ON readings (value) USING cdf";
const JOIN_SQL: &str = "SELECT * FROM probes JOIN zones ON pos < boundary";

/// The 10 probes (Gaussian positions) and 10 zones (Uniform boundaries)
/// of the §III-D uncertain join. Positions and zone midpoints are
/// Latin-hypercube draws of U(0,100) and zone lengths of N(10,3), so how
/// many pairs overlap (and what the join costs) hardly moves with the seed.
fn join_tables_sql(seed: u64) -> Vec<String> {
    let mut gen = Sensors::new(seed ^ 0x6a6f_696e);
    let mut rng = Rng::new(seed ^ 0x7a6f_6e65);
    let pos = stratified(&mut rng, PROBES as usize);
    let probes: Vec<String> = (1..=PROBES)
        .zip(pos)
        .map(|(pid, u)| {
            let r = Reading { mean: (100.0 * u * 1e4).round() / 1e4, ..gen.reading(pid) };
            format!("({pid}, {})", r.pdf_sql())
        })
        .collect();
    let (mids, lens) = (stratified(&mut rng, ZONES as usize), stratified(&mut rng, ZONES as usize));
    let zones: Vec<String> = (1..=ZONES)
        .zip(mids.iter().zip(&lens))
        .map(|(zid, (&m, &l))| {
            let (mid, len) = (100.0 * m, (10.0 + 3.0 * normal_quantile(l)).clamp(0.5, 30.0));
            format!("({zid}, UNIFORM({:.4}, {:.4}))", mid - len / 2.0, mid + len / 2.0)
        })
        .collect();
    vec![
        "CREATE TABLE probes (pid INT, pos REAL UNCERTAIN)".into(),
        format!("INSERT INTO probes VALUES {}", probes.join(", ")),
        "CREATE TABLE zones (zid INT, boundary REAL UNCERTAIN)".into(),
        format!("INSERT INTO zones VALUES {}", zones.join(", ")),
    ]
}

/// The set-up statements, in order.
fn setup_sql(seed: u64) -> Vec<String> {
    let mut gen = Sensors::new(seed);
    let rows: Vec<Reading> = (1..=ROWS).map(|rid| gen.reading(rid)).collect();
    let mut sql = vec!["CREATE TABLE readings (rid INT, value REAL UNCERTAIN)".to_string()];
    sql.extend(insert_sql("readings", &rows, LOAD_BATCH));
    sql.push(INDEX_SQL.into());
    sql.extend(join_tables_sql(seed));
    sql
}

/// Runs after the set-up checkpoint: a checkpoint taken once `ANALYZE`
/// has run on 2000 rows fails (the statistics record outgrows a snapshot
/// page), so this workload checkpoints before it and never after.
const ANALYZE_SQL: &str = "ANALYZE readings";

/// One statement of `class`; `u` and `v` in `[0, 1)` pick its parameters.
fn statement(class: &str, u: f64, v: f64) -> String {
    let r2 = |x: f64| (x * 100.0).round() / 100.0;
    match class {
        "point_read" => format!(
            "SELECT rid, EXPECTED(value) FROM readings WHERE rid = {}",
            1 + (u * ROWS as f64) as i64
        ),
        // Selectivity of 98% or more. The cost model prices a cold `cdf`
        // index below the scan down to about 98% selectivity at 2000 rows,
        // so only this wide a threshold is planned as a scan.
        "threshold_scan" => {
            format!("SELECT rid FROM readings WHERE PROB(value < {}) > 0.5", r2(99.5 + 3.5 * u))
        }
        // Upper tail at ≤2% selectivity: the `cdf` index prunes.
        "threshold_indexed" => {
            format!("SELECT rid FROM readings WHERE PROB(value > {}) > 0.9", r2(95.5 + 3.0 * u))
        }
        // Fig. 5 range query (midpoint ~U(0,100), length ~N(10,3)): floor
        // every pdf to the range, return the expectation of what is left.
        "range_expected" => {
            let (mid, len) = (100.0 * u, (10.0 + 3.0 * normal_quantile(v)).clamp(0.5, 30.0));
            format!(
                "SELECT rid, EXPECTED(value) FROM readings WHERE value BETWEEN {:.4} AND {:.4}",
                mid - len / 2.0,
                mid + len / 2.0
            )
        }
        "join" => JOIN_SQL.to_string(),
        other => unreachable!("unknown class {other}"),
    }
}

pub const CLASSES: [&str; 4] = ["threshold_scan", "threshold_indexed", "range_expected", "join"];

/// Per cycle: 3 scans, 3 indexed thresholds, 1 range query and 1 join,
/// shuffled.
fn cycle(rng: &mut Rng) -> Vec<usize> {
    let mut c = vec![0, 0, 0, 1, 1, 1, 2, 3];
    rng.shuffle(&mut c);
    c
}

/// The access path the planner picked for `sql`, from `EXPLAIN ANALYZE`.
fn chosen_path(s: &mut DurableSession, sql: &str) -> Result<String, String> {
    let out = exec(s, &format!("EXPLAIN ANALYZE {sql}"))?;
    let Output::Explain { profile, .. } = out else { return Ok("none".into()) };
    let mut stack = vec![profile];
    while let Some(p) = stack.pop() {
        if let Some(a) = p.alternatives.iter().find(|a| a.chosen) {
            return Ok(a.path.clone());
        }
        stack.extend(p.children);
    }
    Ok("none".into())
}

pub fn run(args: &Args, work: &mut WorkDir, report: &mut Report) -> Result<(), String> {
    let sql = setup_sql(args.seed);
    let mut ckpt = (0.0, 0);
    let (setup_s, mut session, dir) = timed_setups(work, "analytics", |dir| {
        let mut s = DurableSession::open(dir).map_err(|e| e.to_string())?;
        for q in &sql {
            exec(&mut s, q)?;
        }
        let t = Instant::now();
        s.db().checkpoint_incremental().map_err(|e| e.to_string())?;
        ckpt = (ms_since(t), s.db().io_stats().snapshot().ckpt_pages_copied);
        exec(&mut s, ANALYZE_SQL)?;
        Ok(s)
    })?;
    report.layer.put("storage.ckpt_ms", ckpt.0, "ms");
    report.layer.put("storage.ckpt_pages_copied", ckpt.1 as f64, "count");

    // Reference: an in-memory database loaded with the same rows and no
    // index, so every threshold result is also checked against a scan.
    let mut reference = Database::new();
    for q in sql.iter().filter(|q| q.as_str() != INDEX_SQL).chain([&ANALYZE_SQL.to_string()]) {
        reference.execute(q).map_err(|e| format!("reference {q:.80}: {e}"))?;
    }
    let mut rng = Rng::new(args.seed ^ 0x616e_616c);
    let mut pool: Vec<Vec<(String, String)>> = Vec::new();
    for class in CLASSES {
        let n = match class {
            "join" => 1,
            "range_expected" => POOL * 3 / 4,
            _ => POOL,
        };
        let mut stmts = Vec::new();
        // Latin-hypercube parameters: the pool's cost then hardly moves
        // with the seed, while each parameter keeps its distribution.
        let (us, vs) = (stratified(&mut rng, n), stratified(&mut rng, n));
        for (&u, &v) in us.iter().zip(&vs) {
            let q = statement(class, u, v);
            let want =
                result_text(&reference.execute(&q).map_err(|e| format!("reference {q}: {e}"))?);
            let got = result_text(&exec(&mut session, &q)?);
            if got != want {
                return Err(format!(
                    "check: {class} result differs from the in-memory reference: {q}"
                ));
            }
            stmts.push((q, want));
        }
        if class.starts_with("threshold") {
            report.setting(&format!("plan.{class}"), chosen_path(&mut session, &stmts[0].0)?);
        }
        pool.push(stmts);
    }
    report.passed("indexed-threshold rids equal in-memory scan rids (before timing)");
    report
        .passed("threshold, range and join results equal the in-memory reference (before timing)");
    let db = session.db().clone();
    let before = fingerprint(&db);

    // Warmed in-memory copy for the traced mirrors of each statement.
    let (mut mem, _) = memory_copy(&db, &[INDEX_SQL.into(), ANALYZE_SQL.into()])?;
    // Each session statement plans on a catalog with no built trees, so an
    // indexed threshold rebuilds the index: mirrored by a build.
    let readings = db.with_tables(|t, _| t.get("readings").cloned()).ok_or("no readings table")?;
    let def = cdf_index_def();
    let mut blocks = Blocks::new(args, &CLASSES, false);
    let mut outcomes = Outcomes::default();
    while !blocks.done() {
        for ci in cycle(&mut rng) {
            let class = CLASSES[ci];
            let (q, want) = &pool[ci][rng.below(pool[ci].len())];
            crate::calib::tick();
            let t = Instant::now();
            let res = session.execute(q);
            let ms = ms_since(t);
            match res {
                Ok(out) => {
                    if result_text(&out) != *want {
                        return Err(format!(
                            "check: {class} result changed during the timed phase: {q}"
                        ));
                    }
                    outcomes.ok();
                }
                Err(e) => {
                    outcomes.fail(class, e);
                    continue;
                }
            }
            let req = blocks.record(class, ms);
            if let Some(spans) = blocks.tracing() {
                spans.sql_and_obs(req, q);
                spans.snapshot_copy(req, &db);
                if class == "threshold_indexed" {
                    let built =
                        spans.time(req, "pindex.build", || BuiltIndex::build(&def, &readings, 0));
                    built.map_err(|e| format!("index build mirror: {e}"))?;
                }
                let res = spans.time(req, "core.exec", || mem.execute(q));
                res.map_err(|e| format!("in-memory mirror {q}: {e}"))?;
            }
        }
    }
    if fingerprint(&db) != before {
        return Err("check: the read-only workload changed the database".into());
    }
    report.passed("every timed result equals its in-memory reference");
    report.passed("database content unchanged by the read-only phase");

    let samples = blocks.untraced_samples();
    for class in CLASSES {
        report.detail.put(format!("{class}_p50_ms"), samples[class].p50(), "ms");
    }
    for class in CLASSES {
        report.detail.put(format!("{class}_samples"), samples[class].len() as f64, "count");
    }
    blocks.finish(report, setup_s, outcomes, "threshold_indexed")?;
    drop(db);
    finish_recovery(args, work, session, &dir, false, report)
}

const PANEL_REPS: usize = 3;
const PROBE_REPS: usize = 15;

/// The layer panel: on a copy of a workload's final state, runs every
/// panel statement class through the session and on a warmed in-memory
/// copy (checking they agree), and probes the engine's generic layers.
/// Creates the join tables, `cdf` index and statistics when the workload
/// has none, so every per-layer metric exists on every workload.
pub fn panel(s: &mut DurableSession, seed: u64, report: &mut Report) -> Result<(), String> {
    let db = s.db().clone();
    generic_probes(&db, &mut report.layer)?;
    if !db.with_tables(|t, _| t.contains_key("probes")) {
        for q in join_tables_sql(seed) {
            exec(s, &q)?;
        }
    }
    if db.indexes().lock().find("readings", Some("value")).is_empty() {
        exec(s, INDEX_SQL)?;
    }
    exec(s, ANALYZE_SQL)?;
    let (mut mem, stats) = memory_copy(&db, &[INDEX_SQL.into(), ANALYZE_SQL.into()])?;
    let mut rng = Rng::new(seed ^ 0x7061_6e65);
    let mut session_ms: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut memory_ms: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut counts: HashMap<&str, Vec<crate::layers::Counts>> = HashMap::new();
    let rows = db.with_tables(|t, _| t.get("readings").map_or(0, |r| r.len())) as u64;
    // Builds the in-memory index, so the copy is warm.
    exec_counted(&mut mem, &stats, &statement("threshold_indexed", 0.5, 0.5), rows)?;
    for _ in 0..PANEL_REPS {
        for class in PANEL_CLASSES {
            let q = statement(class, rng.range(0.0, 1.0), rng.range(0.0, 1.0));
            let t = Instant::now();
            let got = exec(s, &q)?;
            let sess = ms_since(t);
            let input = if class == "join" { (PROBES * ZONES) as u64 } else { rows };
            let (out, mem_ms, c) = exec_counted(&mut mem, &stats, &q, input)?;
            if result_text(&got) != result_text(&out) {
                return Err(format!("check: session and in-memory results differ: {q}"));
            }
            session_ms.entry(class).or_default().push(sess);
            memory_ms.entry(class).or_default().push(mem_ms);
            counts.entry(class).or_default().push(c);
        }
    }
    report.passed("layer panel: session results equal warmed in-memory results");
    for class in PANEL_CLASSES {
        class_metrics(
            class,
            &session_ms[class],
            &memory_ms[class],
            &counts[class],
            &mut report.layer,
        );
    }
    kernel_metrics(&db, Sensors::new(seed ^ 0x7061_6e66).range(), &mut report.layer)
}

/// `Txn::begin`, commit (empty and of one row) and the snapshot copy at
/// the database's current size.
fn generic_probes(db: &SharedDurableDb, layer: &mut crate::report::Metrics) -> Result<(), String> {
    let median = crate::stats::median;
    let (mut begin, mut commit, mut copy) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..PROBE_REPS {
        let t = Instant::now();
        let txn = Txn::begin(db);
        begin.push(ms_since(t));
        txn.rollback();

        let rid = -1 - i as i64;
        let mut txn = Txn::begin(db);
        let pdf = Pdf1::gaussian(50.0, 4.0).map_err(|e| e.to_string())?;
        txn.insert_simple("readings", &[("rid", Value::Int(rid))], &[("value", pdf)])
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        txn.commit().map_err(|e| format!("probe commit: {e}"))?;
        commit.push(ms_since(t));
        let mut undo = Txn::begin(db);
        undo.delete_where("readings", |t| t.certain[0] == Value::Int(rid))
            .map_err(|e| e.to_string())?;
        undo.commit().map_err(|e| format!("probe undo: {e}"))?;

        let t = Instant::now();
        let snap = db.with_tables(|t, r| (t.clone(), r.clone()));
        copy.push(ms_since(t));
        drop(std::hint::black_box(snap));
    }
    layer.put("core.txn_begin_ms", median(&begin), "ms");
    layer.put("core.txn_commit_ms", median(&commit), "ms");
    layer.put("core.txn_commit_empty_ms", empty_commit_ms(db)?, "ms");
    layer.put("core.snapshot_copy_ms", median(&copy), "ms");
    Ok(())
}
