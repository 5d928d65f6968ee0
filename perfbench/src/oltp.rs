//! `keyed_oltp`: one client, point reads and single-row writes on a fixed
//! 8000-row table. Each statement pays for `Txn::begin`, the snapshot copy
//! and commit; pdf kernels, the planner and joins barely run.

use crate::common::{exec, insert_sql, ms_since, Reading, Rng, Sensors, WorkDir};
use crate::phase::{finish_recovery, timed_setups, Blocks};
use crate::report::{Outcomes, Report};
use crate::Args;
use orion_sql::{DurableSession, Output};
use std::collections::HashMap;
use std::time::Instant;

const ROWS: i64 = 8000;
const LOAD_BATCH: usize = 500;
/// Statements of one explicit transaction: `BEGIN`, 4 updates, `COMMIT`.
const TXN_UPDATES: usize = 4;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Read,
    Update,
    Insert,
    Delete,
    Txn,
}

/// One request cycle: 4 point reads, 2 updates, an insert of a new rid and
/// the delete of it, and one explicit transaction, shuffled per cycle so
/// every class runs through the whole timed phase.
fn cycle(rng: &mut Rng) -> Vec<Kind> {
    let mut kinds = vec![
        Kind::Read,
        Kind::Read,
        Kind::Read,
        Kind::Read,
        Kind::Update,
        Kind::Update,
        Kind::Insert,
        Kind::Txn,
    ];
    rng.shuffle(&mut kinds);
    // The delete of the inserted rid goes to a random later slot.
    let at = kinds.iter().position(|k| *k == Kind::Insert).expect("one insert");
    let slot = at + 1 + rng.below(kinds.len() - at);
    kinds.insert(slot, Kind::Delete);
    kinds
}

struct State {
    session: DurableSession,
    /// What every live rid should read back as.
    model: HashMap<i64, Reading>,
    gen: Sensors,
    next_rid: i64,
}

fn setup(dir: &std::path::Path, seed: u64) -> Result<State, String> {
    let mut session = DurableSession::open(dir).map_err(|e| e.to_string())?;
    exec(&mut session, "CREATE TABLE readings (rid INT, value REAL UNCERTAIN)")?;
    let mut gen = Sensors::new(seed);
    let rows: Vec<Reading> = (1..=ROWS).map(|rid| gen.reading(rid)).collect();
    for sql in insert_sql("readings", &rows, LOAD_BATCH) {
        exec(&mut session, &sql)?;
    }
    session.db().checkpoint().map_err(|e| e.to_string())?;
    let model = rows.into_iter().map(|r| (r.rid, r)).collect();
    Ok(State { session, model, gen, next_rid: ROWS + 1 })
}

/// Every row reads back as the model says, and nothing else exists.
fn check_table(st: &mut State) -> Result<(), String> {
    let out = exec(&mut st.session, "SELECT rid, EXPECTED(value) FROM readings")?;
    let Output::Rows { rows, .. } = out else {
        return Err("check: full scan returned no rows".into());
    };
    if rows.len() != st.model.len() {
        return Err(format!("check: table has {} rows, expected {}", rows.len(), st.model.len()));
    }
    for row in &rows {
        let rid: i64 = row[0].parse().map_err(|_| format!("check: bad rid '{}'", row[0]))?;
        match st.model.get(&rid) {
            Some(r) if r.expected_text() == row[1] => {}
            _ => return Err(format!("check: row {rid} reads {} unexpectedly", row[1])),
        }
    }
    Ok(())
}

fn expect_count(out: &Output, n: usize, what: &str) -> Result<(), String> {
    match out {
        Output::Count(k) if *k == n => Ok(()),
        other => Err(format!(
            "check: {what} affected {} rows, expected {n}",
            crate::common::row_count(other)
        )),
    }
}

/// Runs one request; returns its class and latency, or `None` when it
/// failed (counted in `outcomes`). `texts` receives the SQL it ran.
fn request(
    st: &mut State,
    rng: &mut Rng,
    kind: Kind,
    pending_insert: &mut Option<i64>,
    outcomes: &mut Outcomes,
    texts: &mut Vec<String>,
) -> Result<Option<(&'static str, f64)>, String> {
    texts.clear();
    crate::calib::tick();
    let live = ROWS as usize;
    match kind {
        Kind::Read => {
            let rid = 1 + rng.below(live) as i64;
            let sql = format!("SELECT rid, EXPECTED(value) FROM readings WHERE rid = {rid}");
            let t = Instant::now();
            let res = st.session.execute(&sql);
            let ms = ms_since(t);
            texts.push(sql);
            match res {
                Ok(Output::Rows { rows, .. }) => {
                    let want = st.model[&rid].expected_text();
                    if rows.len() != 1 || rows[0][0] != rid.to_string() || rows[0][1] != want {
                        return Err(format!("check: point read of {rid} returned {rows:?}, expected [{rid}, {want}]"));
                    }
                    outcomes.ok();
                    Ok(Some(("point_read", ms)))
                }
                Ok(_) => Err(format!("check: point read of {rid} returned no rows")),
                Err(e) => {
                    outcomes.fail("point read", e);
                    Ok(None)
                }
            }
        }
        Kind::Update => {
            let rid = 1 + rng.below(live) as i64;
            let new = st.gen.reading(rid);
            let sql = format!("UPDATE readings SET value = {} WHERE rid = {rid}", new.pdf_sql());
            let t = Instant::now();
            let res = st.session.execute(&sql);
            let ms = ms_since(t);
            texts.push(sql);
            match res {
                Ok(out) => {
                    expect_count(&out, 1, "update")?;
                    st.model.insert(rid, new);
                    outcomes.ok();
                    Ok(Some(("write", ms)))
                }
                Err(e) => {
                    outcomes.fail("update", e);
                    Ok(None)
                }
            }
        }
        Kind::Insert => {
            let rid = st.next_rid;
            st.next_rid += 1;
            let new = st.gen.reading(rid);
            let sql = format!("INSERT INTO readings VALUES {}", new.row_sql());
            let t = Instant::now();
            let res = st.session.execute(&sql);
            let ms = ms_since(t);
            texts.push(sql);
            match res {
                Ok(out) => {
                    expect_count(&out, 1, "insert")?;
                    *pending_insert = Some(rid);
                    outcomes.ok();
                    Ok(Some(("write", ms)))
                }
                Err(e) => {
                    outcomes.fail("insert", e);
                    Ok(None)
                }
            }
        }
        Kind::Delete => {
            let Some(rid) = pending_insert.take() else { return Ok(None) };
            let sql = format!("DELETE FROM readings WHERE rid = {rid}");
            let t = Instant::now();
            let res = st.session.execute(&sql);
            let ms = ms_since(t);
            texts.push(sql);
            match res {
                Ok(out) => {
                    expect_count(&out, 1, "delete")?;
                    outcomes.ok();
                    Ok(Some(("write", ms)))
                }
                Err(e) => {
                    outcomes.fail("delete", e);
                    Ok(None)
                }
            }
        }
        Kind::Txn => {
            let mut rids = Vec::new();
            while rids.len() < TXN_UPDATES {
                let rid = 1 + rng.below(live) as i64;
                if !rids.contains(&rid) {
                    rids.push(rid);
                }
            }
            let news: Vec<Reading> = rids.iter().map(|&rid| st.gen.reading(rid)).collect();
            texts.push("BEGIN".into());
            for n in &news {
                texts.push(format!(
                    "UPDATE readings SET value = {} WHERE rid = {}",
                    n.pdf_sql(),
                    n.rid
                ));
            }
            texts.push("COMMIT".into());
            let t = Instant::now();
            let mut res = Ok(());
            for sql in texts.iter() {
                if let Err(e) = st.session.execute(sql) {
                    res = Err(format!("{sql}: {e}"));
                    break;
                }
            }
            let ms = ms_since(t);
            match res {
                Ok(()) => {
                    for n in news {
                        st.model.insert(n.rid, n);
                    }
                    outcomes.ok();
                    Ok(Some(("txn", ms)))
                }
                Err(e) => {
                    if st.session.in_txn() {
                        let _ = st.session.execute("ROLLBACK");
                    }
                    outcomes.fail("transaction", e);
                    Ok(None)
                }
            }
        }
    }
}

pub const CLASSES: [&str; 3] = ["point_read", "write", "txn"];

pub fn run(args: &Args, work: &mut WorkDir, report: &mut Report) -> Result<(), String> {
    let (setup_s, mut st, dir) = timed_setups(work, "keyed", |dir| setup(dir, args.seed))?;
    check_table(&mut st)?;
    report.passed("every row reads back as loaded (before timing)");

    let db = st.session.db().clone();
    let wal_before = db.wal_len();
    let wal_stats = db.wal_stats();
    let (commits0, fsyncs0) = (wal_stats.group_commit_commits.get(), wal_stats.fsyncs.get());
    let mut rng = Rng::new(args.seed ^ 0x006b_6579_6564);
    let mut blocks = Blocks::new(args, &CLASSES, false);
    let mut outcomes = Outcomes::default();
    let mut pending = None;
    let mut texts = Vec::new();
    let mut rows_written = 0u64;
    // In-memory copy for the traced mirror of point-read execution. Point
    // reads cost the same on a copy that misses later writes.
    let (mut mem, _) = crate::layers::memory_copy(&db, &[])?;
    while !blocks.done() {
        for kind in cycle(&mut rng) {
            let Some((class, ms)) =
                request(&mut st, &mut rng, kind, &mut pending, &mut outcomes, &mut texts)?
            else {
                continue;
            };
            rows_written += match kind {
                Kind::Read => 0,
                Kind::Txn => TXN_UPDATES as u64,
                _ => 1,
            };
            let req = blocks.record(class, ms);
            if let Some(spans) = blocks.tracing() {
                for sql in texts.iter() {
                    spans.sql_and_obs(req, sql);
                }
                if class == "point_read" {
                    spans.snapshot_copy(req, &db);
                    let res = spans.time(req, "core.exec", || mem.execute(&texts[0]));
                    res.map_err(|e| format!("in-memory mirror: {e}"))?;
                } else {
                    spans.txn_begin(req, &db);
                    spans.txn_commit_row(req, &db, "readings")?;
                }
            }
        }
    }
    let wal_growth = db.wal_len() - wal_before;
    let commits = wal_stats.group_commit_commits.get() - commits0;
    let fsyncs = wal_stats.fsyncs.get() - fsyncs0;
    check_table(&mut st)?;
    report.passed("every point read returned exactly one row with the value last written");
    report.passed("every row reads back as last written (after timing)");

    let samples = blocks.untraced_samples();
    let read = &samples["point_read"];
    let write = &samples["write"];
    let txn = &samples["txn"];
    report.detail.put("point_read_p50_ms", read.p50(), "ms");
    report.detail.put("point_read_p95_ms", read.pct(0.95), "ms");
    report.detail.put("txn_p50_ms", txn.p50(), "ms");
    report.detail.put("write_p50_ms", write.p50(), "ms");
    report.detail.put("write_p95_ms", write.pct(0.95), "ms");
    report.detail.put("point_read_samples", read.len() as f64, "count");
    report.detail.put("write_samples", write.len() as f64, "count");
    report.detail.put("txn_samples", txn.len() as f64, "count");
    report.layer.put("storage.commits_per_fsync", commits as f64 / fsyncs.max(1) as f64, "ratio");
    report.layer.put(
        "storage.wal_bytes_per_row",
        wal_growth as f64 / rows_written.max(1) as f64,
        "B/row",
    );

    blocks.finish(report, setup_s, outcomes, "point_read")?;
    drop(db);
    finish_recovery(args, work, st.session, &dir, true, report)
}
