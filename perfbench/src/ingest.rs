//! `concurrent_ingest`: two sessions share one engine and append sensor
//! readings; the only workload where commits contend (group commit,
//! first-committer-wins validation, drained checkpoints).
//!
//! The timed phase is a series of identical episodes. Each starts from a
//! copy of the 2000-row set-up directory and appends a fixed script per
//! client, so every episode does the same work at the same table sizes,
//! however fast the program is.

use crate::common::{copy_dir, exec, insert_sql, ms_since, Reading, Sensors, WorkDir};
use crate::layers::Spans;
use crate::phase::{finish_recovery, timed_setups, Blocks, Scale};
use crate::report::{Outcomes, Report};
use crate::stats::{median, Samples};
use crate::Args;
use orion_core::prelude::{GroupCommitConfig, SharedDurableDb};
use orion_sql::{DurableSession, Output};
use std::sync::{Arc, Barrier};
use std::time::Instant;

const BASE_ROWS: i64 = 2000;
const LOAD_BATCH: usize = 500;
const CLIENTS: usize = 2;
const STATEMENTS_PER_CLIENT: usize = 160;
/// Every fourth statement inserts this many rows; the others insert one.
const BATCH_ROWS: usize = 20;
/// Client 0 runs an incremental checkpoint after every this many of its
/// statements.
const CKPT_EVERY: usize = 50;

pub const CLASSES: [&str; 2] = ["insert_1", "insert_20"];

struct Stmt {
    sql: String,
    class: &'static str,
    rows: usize,
}

/// Client `c`'s fixed script: rids from its own range, values from the
/// sensor generator.
fn script(seed: u64, c: usize) -> (Vec<Stmt>, Vec<Reading>) {
    let mut gen = Sensors::new(seed ^ (0x696e_6700 + c as u64));
    let mut next = 1_000_000 * (c as i64 + 1);
    let mut all = Vec::new();
    let stmts = (0..STATEMENTS_PER_CLIENT)
        .map(|s| {
            let n = if s % 4 == 3 { BATCH_ROWS } else { 1 };
            let rows: Vec<Reading> = (0..n)
                .map(|_| {
                    next += 1;
                    gen.reading(next)
                })
                .collect();
            all.extend_from_slice(&rows);
            let sql = insert_sql("readings", &rows, BATCH_ROWS).remove(0);
            Stmt { sql, class: if n == 1 { "insert_1" } else { "insert_20" }, rows: n }
        })
        .collect();
    (stmts, all)
}

#[derive(Default)]
struct ClientOut {
    /// `(request id, class, ms, host-speed factor)` of each completed
    /// statement.
    done: Vec<(u64, &'static str, f64, f64)>,
    /// When each completed statement started and ended.
    intervals: Vec<(Instant, Instant)>,
    rows: u64,
    outcomes: Outcomes,
    /// `(ms, wal length before, wal length after)` per checkpoint.
    ckpts: Vec<(f64, u64, u64)>,
    spans: Option<Spans>,
    error: Option<String>,
}

fn client(
    db: SharedDurableDb,
    stmts: &[Stmt],
    checkpoints: bool,
    req_base: u64,
    spans: Option<Spans>,
    start: &Barrier,
) -> ClientOut {
    let mut s = DurableSession::from_db(db.clone());
    let mut out = ClientOut { spans, ..Default::default() };
    start.wait();
    for (i, st) in stmts.iter().enumerate() {
        crate::calib::tick();
        let t = Instant::now();
        let res = s.execute(&st.sql);
        let ms = ms_since(t);
        match res {
            Ok(Output::Count(n)) if n == st.rows => {
                out.outcomes.ok();
                out.rows += n as u64;
                let id = req_base + i as u64;
                out.done.push((id, st.class, ms, 0.0));
                out.intervals.push((t, t + std::time::Duration::from_secs_f64(ms / 1e3)));
                if let Some(spans) = out.spans.as_mut() {
                    spans.sql_and_obs(id, &st.sql);
                    spans.txn_begin(id, &db);
                    if let Err(e) = spans.txn_commit_row(id, &db, "readings") {
                        out.error = Some(e);
                        return out;
                    }
                }
            }
            Ok(_) => {
                out.error =
                    Some(format!("check: insert did not report {} rows: {:.80}", st.rows, st.sql));
                return out;
            }
            Err(e) => out.outcomes.fail(st.class, e),
        }
        if checkpoints && (i + 1) % CKPT_EVERY == 0 {
            let before = db.wal_len();
            let t = Instant::now();
            if let Err(e) = db.checkpoint_incremental() {
                out.error = Some(format!("checkpoint: {e}"));
                return out;
            }
            out.ckpts.push((ms_since(t), before, db.wal_len()));
        }
    }
    crate::calib::tick();
    for (d, (start, end)) in out.done.iter_mut().zip(&out.intervals) {
        d.3 = crate::calib::factor_between(*start, *end);
    }
    out
}

/// What `SELECT rid, EXPECTED(value)` must return, as sorted `rid|E` lines.
fn expected_lines(rows: impl Iterator<Item = Reading>) -> Vec<String> {
    let mut v: Vec<String> = rows.map(|r| format!("{}|{}", r.rid, r.expected_text())).collect();
    v.sort();
    v
}

fn check_content(db: &SharedDurableDb, want: &[String]) -> Result<(), String> {
    let mut s = DurableSession::from_db(db.clone());
    let Output::Rows { rows, .. } = exec(&mut s, "SELECT rid, EXPECTED(value) FROM readings")?
    else {
        return Err("check: full scan returned no rows".into());
    };
    let mut got: Vec<String> = rows.iter().map(|r| r.join("|")).collect();
    got.sort();
    if got != want {
        return Err(format!(
            "check: episode ended with {} rows, expected {} (or contents differ)",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

pub fn run(args: &Args, work: &mut WorkDir, report: &mut Report) -> Result<(), String> {
    let mut gen = Sensors::new(args.seed);
    let base: Vec<Reading> = (1..=BASE_ROWS).map(|rid| gen.reading(rid)).collect();
    let (setup_s, (), base_dir) = timed_setups(work, "ingest-base", |dir| {
        let mut s = DurableSession::open(dir).map_err(|e| e.to_string())?;
        exec(&mut s, "CREATE TABLE readings (rid INT, value REAL UNCERTAIN)")?;
        for q in insert_sql("readings", &base, LOAD_BATCH) {
            exec(&mut s, &q)?;
        }
        s.db().checkpoint().map_err(|e| e.to_string())
    })?;
    let scripts: Vec<(Vec<Stmt>, Vec<Reading>)> =
        (0..CLIENTS).map(|c| script(args.seed, c)).collect();
    let want = expected_lines(
        base.iter().copied().chain(scripts.iter().flat_map(|(_, rows)| rows.iter().copied())),
    );

    let mut blocks = Blocks::new(args, &CLASSES, true);
    let mut outcomes = Outcomes::default();
    let (mut commits, mut fsyncs, mut rows, mut wal_growth) = (0u64, 0u64, 0u64, 0u64);
    let mut ckpt_ms = Vec::new();
    let (mut pages_copied, mut ckpt_count) = (0u64, 0u64);
    let mut episodes = 0u64;
    let mut write = Samples::default();
    let mut last: Option<(SharedDurableDb, std::path::PathBuf)> = None;
    while blocks.measured() < args.seconds {
        if let Some((db, dir)) = last.take() {
            drop(db);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = work.fresh("episode");
        copy_dir(&base_dir, &dir)?;
        let db =
            SharedDurableDb::open(&dir, GroupCommitConfig::default()).map_err(|e| e.to_string())?;
        let wal0 = db.wal_len();
        let copied0 = db.io_stats().snapshot().ckpt_pages_copied;
        let traced = blocks.traced_now();
        let barrier = Arc::new(Barrier::new(CLIENTS + 1));
        let req_base = (episodes + 1) * 1_000_000;
        let t0 = blocks.spans.t0();
        let (outs, secs) = std::thread::scope(|scope| {
            let handles: Vec<_> = scripts
                .iter()
                .enumerate()
                .map(|(c, (stmts, _))| {
                    let (db, barrier) = (db.clone(), Arc::clone(&barrier));
                    let base = req_base + c as u64 * 100_000;
                    let spans = traced.then(|| Spans::starting_at(t0, c as u64));
                    scope.spawn(move || client(db, stmts, c == 0, base, spans, &barrier))
                })
                .collect();
            barrier.wait();
            let t = Instant::now();
            let outs: Vec<ClientOut> =
                handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
            (outs, t.elapsed().as_secs_f64())
        });
        let mut prev_after = wal0;
        let mut factors = Vec::new();
        for out in outs {
            if let Some(e) = out.error {
                return Err(e);
            }
            for (id, class, ms, factor) in out.done {
                blocks.record_id(id, class, ms, Scale::Factor(factor));
                factors.push(factor);
                if !traced {
                    write.push(ms * factor);
                }
            }
            if let Some(spans) = out.spans {
                blocks.spans.spans.extend(spans.spans);
            }
            for (ms, before, after) in &out.ckpts {
                ckpt_ms.push(*ms);
                wal_growth += before - prev_after;
                prev_after = *after;
            }
            ckpt_count += out.ckpts.len() as u64;
            if !traced {
                rows += out.rows;
            }
            outcomes.merge(out.outcomes);
        }
        wal_growth += db.wal_len() - prev_after;
        pages_copied += db.io_stats().snapshot().ckpt_pages_copied - copied0;
        let ws = db.wal_stats();
        commits += ws.group_commit_commits.get();
        fsyncs += ws.fsyncs.get();
        // Both clients run through the whole episode: its busy time is
        // scaled by the mean factor of their statements.
        let mean_factor = factors.iter().sum::<f64>() / factors.len().max(1) as f64;
        blocks.close_block(secs, secs * mean_factor);
        episodes += 1;
        check_content(&db, &want)?;
        last = Some((db, dir));
    }
    report.passed(format!(
        "each of {episodes} episodes ended with exactly the base rows plus both scripts"
    ));
    let untraced_busy = blocks.untraced_busy();
    let samples = blocks.untraced_samples();
    report.detail.put("write_p50_ms", write.p50(), "ms");
    report.detail.put("write_p95_ms", write.pct(0.95), "ms");
    report.detail.put("ingest_rows_per_s", rows as f64 / untraced_busy, "1/s");
    for class in CLASSES {
        report.detail.put(format!("{class}_p50_ms"), samples[class].p50(), "ms");
        report.detail.put(format!("{class}_samples"), samples[class].len() as f64, "count");
    }
    report.detail.put("episodes", episodes as f64, "count");
    report.layer.put("storage.commits_per_fsync", commits as f64 / fsyncs.max(1) as f64, "ratio");
    let all_rows = episodes * scripts.iter().map(|(_, r)| r.len() as u64).sum::<u64>();
    report.layer.put(
        "storage.wal_bytes_per_row",
        wal_growth as f64 / all_rows.max(1) as f64,
        "B/row",
    );
    report.layer.put("storage.ckpt_ms", median(&ckpt_ms), "ms");
    report.layer.put(
        "storage.ckpt_pages_copied",
        pages_copied as f64 / ckpt_count.max(1) as f64,
        "count",
    );
    blocks.finish(report, setup_s, outcomes, "insert_1")?;

    let (db, dir) = last.expect("at least one episode");
    let session = DurableSession::from_db(db);
    finish_recovery(args, work, session, &dir, true, report)
}
