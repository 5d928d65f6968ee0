//! Group-commit stress (`--features failpoints`): many threads hammer a
//! [`SharedDurableDb`] while fsync failures are injected mid-run. The
//! durability contract under test:
//!
//! * every insert that was **acked** (returned `Ok`) survives recovery;
//! * every insert that was **nacked** (returned `Err`) leaves no trace —
//!   neither in memory after rollback nor on disk after recovery;
//! * concurrent commits share fsyncs (`group_commit_batches` /
//!   `fsyncs_saved` move), which is the entire point of the protocol.
#![cfg(feature = "failpoints")]

use orion_core::durable::SharedDurableDb;
use orion_core::prelude::*;
use orion_pdf::prelude::*;
use orion_storage::GroupCommitConfig;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("orion_group_commit_stress").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn schema() -> ProbSchema {
    ProbSchema::new(vec![("id", ColumnType::Int, false), ("v", ColumnType::Real, true)], vec![])
        .unwrap()
}

fn batching_config() -> GroupCommitConfig {
    GroupCommitConfig {
        window: Duration::from_millis(2),
        max_batch_bytes: 1 << 20,
        ..GroupCommitConfig::default()
    }
}

/// Ids present in the `readings` table (certain column 0).
fn ids_of(rel: &Relation) -> BTreeSet<i64> {
    rel.tuples
        .iter()
        .map(|t| match t.certain[0] {
            Value::Int(i) => i,
            ref v => panic!("unexpected id value {v:?}"),
        })
        .collect()
}

/// Runs `threads × per_thread` concurrent inserts, optionally injecting a
/// sync failure before every `fail_every`-th insert issued by thread 0.
/// Returns (acked ids, nacked ids).
fn hammer(
    db: &SharedDurableDb,
    threads: i64,
    per_thread: i64,
    fail_every: Option<i64>,
) -> (BTreeSet<i64>, BTreeSet<i64>) {
    let acked = Mutex::new(BTreeSet::new());
    let nacked = Mutex::new(BTreeSet::new());
    std::thread::scope(|s| {
        for t in 0..threads {
            let db = db.clone();
            let (acked, nacked) = (&acked, &nacked);
            s.spawn(move || {
                for i in 0..per_thread {
                    let id = t * 10_000 + i;
                    if t == 0 {
                        if let Some(every) = fail_every {
                            if i % every == 0 {
                                // Fails the *next batch* fsync: whichever
                                // commits share that batch all get nacked.
                                db.inject_wal_sync_failure();
                            }
                        }
                    }
                    let res = db.insert_simple(
                        "readings",
                        &[("id", Value::Int(id))],
                        &[("v", Pdf1::gaussian(id as f64, 1.0).unwrap())],
                    );
                    match res {
                        Ok(()) => drop(acked.lock().unwrap().insert(id)),
                        Err(_) => drop(nacked.lock().unwrap().insert(id)),
                    }
                }
            });
        }
    });
    (acked.into_inner().unwrap(), nacked.into_inner().unwrap())
}

/// Recovers the directory fresh and returns the surviving ids.
fn recovered_ids(dir: &Path) -> BTreeSet<i64> {
    let db = SharedDurableDb::open(dir, GroupCommitConfig::default()).unwrap();
    db.check_invariants().unwrap();
    db.with_tables(|t, _| ids_of(&t["readings"]))
}

#[test]
fn concurrent_writers_share_fsyncs_and_acked_commits_survive() {
    let dir = temp_dir("fault_free");
    let db = SharedDurableDb::open(&dir, batching_config()).unwrap();
    db.create_table("readings", schema()).unwrap();
    let (acked, nacked) = hammer(&db, 8, 40, None);
    assert_eq!(acked.len(), 8 * 40, "fault-free run acks everything");
    assert!(nacked.is_empty());
    db.check_invariants().unwrap();
    assert_eq!(db.with_tables(|tables, _| ids_of(&tables["readings"])), acked);

    let stats = db.wal_stats();
    let commits = stats.group_commit_commits.get();
    let fsyncs = stats.fsyncs.get();
    assert_eq!(commits, 8 * 40 + 1, "every insert plus the schema is one commit");
    assert!(stats.group_commit_batches.get() > 0);
    assert_eq!(stats.fsyncs_saved.get(), commits - fsyncs, "ledger: saved = commits − fsyncs");
    assert!(
        fsyncs < commits,
        "8 writers with a 2ms window must share fsyncs ({fsyncs} fsyncs for {commits} commits)"
    );
    drop(db);
    assert_eq!(recovered_ids(&dir), acked, "recovery returns exactly the acked set");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_sync_failures_nack_whole_batches_but_never_acked_commits() {
    let dir = temp_dir("sync_faults");
    let db = SharedDurableDb::open(&dir, batching_config()).unwrap();
    db.create_table("readings", schema()).unwrap();
    let (acked, nacked) = hammer(&db, 8, 25, Some(5));
    assert!(!nacked.is_empty(), "injected sync failures must nack some commits");
    assert!(!acked.is_empty(), "retries between faults must still land commits");
    db.check_invariants().unwrap();
    // Rollback removed every nacked tuple from memory, kept every ack.
    assert_eq!(db.with_tables(|tables, _| ids_of(&tables["readings"])), acked);
    drop(db);
    let recovered = recovered_ids(&dir);
    assert_eq!(recovered, acked, "acked ⊆ recovered and recovered ⊆ acked");
    assert!(recovered.is_disjoint(&nacked), "no nacked commit may resurrect");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn append_failpoint_under_concurrency_rolls_back_exactly_one_commit() {
    let dir = temp_dir("append_fault");
    let db = SharedDurableDb::open(&dir, batching_config()).unwrap();
    db.create_table("readings", schema()).unwrap();
    // Deterministic single-threaded probe first: the very next record
    // (the insert's base pdf) fails, the insert nacks and rolls back.
    db.inject_wal_append_failure(0);
    let err = db.insert_simple(
        "readings",
        &[("id", Value::Int(-1))],
        &[("v", Pdf1::gaussian(0.0, 1.0).unwrap())],
    );
    assert!(err.is_err());
    db.check_invariants().unwrap();
    assert!(db.with_tables(|tables, _| tables["readings"].is_empty()));
    // Then a concurrent burst with a handful of per-record faults sprayed
    // in: whoever draws the poisoned record nacks, everyone else lands.
    let acked = Mutex::new(BTreeSet::new());
    std::thread::scope(|s| {
        for t in 0..4i64 {
            let db = db.clone();
            let acked = &acked;
            s.spawn(move || {
                for i in 0..20 {
                    let id = t * 10_000 + i;
                    if t == 0 && i % 7 == 0 {
                        db.inject_wal_append_failure(3);
                    }
                    if db
                        .insert_simple(
                            "readings",
                            &[("id", Value::Int(id))],
                            &[("v", Pdf1::gaussian(id as f64, 1.0).unwrap())],
                        )
                        .is_ok()
                    {
                        acked.lock().unwrap().insert(id);
                    }
                }
            });
        }
    });
    let acked = acked.into_inner().unwrap();
    db.check_invariants().unwrap();
    assert_eq!(db.with_tables(|tables, _| ids_of(&tables["readings"])), acked);
    drop(db);
    assert_eq!(recovered_ids(&dir), acked);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoints_interleaved_with_writers_preserve_the_acked_set() {
    let dir = temp_dir("ckpt_interleave");
    let db = SharedDurableDb::open(&dir, batching_config()).unwrap();
    db.create_table("readings", schema()).unwrap();
    let acked = Mutex::new(BTreeSet::new());
    std::thread::scope(|s| {
        for t in 0..4i64 {
            let db = db.clone();
            let acked = &acked;
            s.spawn(move || {
                for i in 0..30 {
                    let id = t * 10_000 + i;
                    if db
                        .insert_simple(
                            "readings",
                            &[("id", Value::Int(id))],
                            &[("v", Pdf1::gaussian(id as f64, 1.0).unwrap())],
                        )
                        .is_ok()
                    {
                        acked.lock().unwrap().insert(id);
                    }
                }
            });
        }
        // A checkpointer thread alternates full and incremental snapshots
        // while the writers run; each one drains in-flight commits first.
        let db = db.clone();
        s.spawn(move || {
            for round in 0..6 {
                if round % 2 == 0 {
                    db.checkpoint_incremental().unwrap();
                } else {
                    db.checkpoint().unwrap();
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
    });
    let acked = acked.into_inner().unwrap();
    assert_eq!(acked.len(), 4 * 30);
    db.check_invariants().unwrap();
    drop(db);
    assert_eq!(recovered_ids(&dir), acked, "chain + WAL recovery loses nothing");
    std::fs::remove_dir_all(&dir).ok();
}
