//! Durability figure — **group commit and incremental checkpoints**.
//!
//! Two sweeps quantify the PR's durability machinery:
//!
//! * **Group commit** — `W` writer threads each commit `N` inserts through
//!   a [`SharedDurableDb`], once with group commit disabled (one fsync per
//!   commit, the PR 2 baseline) and once with a small batching window. The
//!   reported metric is *commits per fsync*: the leader/follower protocol
//!   must amortize the fsync across concurrent committers (the acceptance
//!   bar is ≥ 2× fewer fsyncs at 8 writers).
//! * **Checkpoints** — a table of `N` tuples is checkpointed in full, then
//!   receives a small tail of inserts and is checkpointed incrementally.
//!   The incremental delta must copy only the dirty pages; the row reports
//!   latency and the copied/skipped page split from the I/O counters.

use orion_core::durable::SharedDurableDb;
use orion_core::prelude::*;
use orion_obs::json;
use orion_pdf::prelude::*;
use orion_storage::GroupCommitConfig;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Configuration for the durability sweeps.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Writer-thread counts to sweep for the group-commit figure.
    pub writer_counts: Vec<usize>,
    /// Inserts committed by each writer thread.
    pub inserts_per_writer: usize,
    /// Group-commit batching window.
    pub window: Duration,
    /// Table sizes (tuples) for the checkpoint figure.
    pub checkpoint_sizes: Vec<usize>,
    /// Tail inserts between the full and the incremental checkpoint.
    pub checkpoint_tail: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            writer_counts: vec![1, 2, 4, 8],
            inserts_per_writer: 200,
            window: Duration::from_millis(2),
            checkpoint_sizes: vec![1_000, 4_000],
            checkpoint_tail: 16,
        }
    }
}

/// One group-commit measurement cell.
#[derive(Debug, Clone)]
pub struct GroupCommitRow {
    /// `"per-commit"` (disabled) or `"group"` (batching window).
    pub mode: String,
    /// Concurrent writer threads.
    pub writers: usize,
    /// Commits issued (inserts + the schema record).
    pub commits: u64,
    /// Physical fsyncs of the log.
    pub fsyncs: u64,
    /// Commits that shared a leader's fsync.
    pub fsyncs_saved: u64,
    /// Leader batches flushed.
    pub batches: u64,
    /// Wall-clock seconds for the whole workload.
    pub secs: f64,
}

impl GroupCommitRow {
    /// Commits amortized per physical fsync.
    pub fn commits_per_fsync(&self) -> f64 {
        self.commits as f64 / self.fsyncs.max(1) as f64
    }

    /// JSON form of the cell.
    pub fn to_json(&self) -> json::Value {
        json::Value::object()
            .with("mode", self.mode.as_str())
            .with("writers", self.writers)
            .with("commits", self.commits)
            .with("fsyncs", self.fsyncs)
            .with("fsyncs_saved", self.fsyncs_saved)
            .with("batches", self.batches)
            .with("secs", self.secs)
            .with("commits_per_fsync", self.commits_per_fsync())
    }
}

/// One checkpoint measurement cell.
#[derive(Debug, Clone)]
pub struct CheckpointRow {
    /// `"full"` or `"incremental"`.
    pub kind: String,
    /// Tuples resident when the checkpoint ran.
    pub tuples: usize,
    /// Checkpoint latency in seconds.
    pub secs: f64,
    /// Pages written into the snapshot/delta.
    pub pages_copied: u64,
    /// Clean pages the incremental checkpoint skipped.
    pub pages_skipped: u64,
}

impl CheckpointRow {
    /// JSON form of the cell.
    pub fn to_json(&self) -> json::Value {
        json::Value::object()
            .with("kind", self.kind.as_str())
            .with("tuples", self.tuples)
            .with("secs", self.secs)
            .with("pages_copied", self.pages_copied)
            .with("pages_skipped", self.pages_skipped)
    }
}

fn bench_schema() -> ProbSchema {
    ProbSchema::new(vec![("id", ColumnType::Int, false), ("v", ColumnType::Real, true)], vec![])
        .unwrap()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("orion_fig_durability").join(tag);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `writers × inserts` concurrent commits under `cfg` and returns the
/// measured cell. The directory is destroyed afterwards.
pub fn run_group_commit_cell(
    writers: usize,
    inserts: usize,
    cfg: GroupCommitConfig,
    mode: &str,
) -> GroupCommitRow {
    let dir = scratch_dir(&format!("gc_{mode}_{writers}"));
    let db = SharedDurableDb::open(&dir, cfg).unwrap();
    db.create_table("readings", bench_schema()).unwrap();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for w in 0..writers {
            let db = db.clone();
            s.spawn(move || {
                for i in 0..inserts {
                    let id = (w * 1_000_000 + i) as i64;
                    db.insert_simple(
                        "readings",
                        &[("id", Value::Int(id))],
                        &[("v", Pdf1::gaussian(id as f64, 1.0).unwrap())],
                    )
                    .unwrap();
                }
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    let stats = db.wal_stats();
    let row = GroupCommitRow {
        mode: mode.to_string(),
        writers,
        commits: stats.group_commit_commits.get(),
        fsyncs: stats.fsyncs.get(),
        fsyncs_saved: stats.fsyncs_saved.get(),
        batches: stats.group_commit_batches.get(),
        secs,
    };
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
    row
}

/// The group-commit sweep: every writer count, disabled vs windowed.
pub fn run_group_commit(cfg: &DurabilityConfig) -> Vec<GroupCommitRow> {
    let mut rows = Vec::new();
    for &w in &cfg.writer_counts {
        let off = GroupCommitConfig { enabled: false, ..GroupCommitConfig::default() };
        rows.push(run_group_commit_cell(w, cfg.inserts_per_writer, off, "per-commit"));
        let on = GroupCommitConfig { window: cfg.window, ..GroupCommitConfig::default() };
        rows.push(run_group_commit_cell(w, cfg.inserts_per_writer, on, "group"));
    }
    rows
}

fn fill(db: &SharedDurableDb, from: usize, n: usize) {
    for i in from..from + n {
        db.insert_simple(
            "readings",
            &[("id", Value::Int(i as i64))],
            &[("v", Pdf1::gaussian(i as f64, 1.0).unwrap())],
        )
        .unwrap();
    }
}

fn ckpt_pages(db: &SharedDurableDb) -> (u64, u64) {
    let io = db.io_stats().snapshot();
    (io.ckpt_pages_copied, io.ckpt_pages_skipped)
}

/// The checkpoint sweep: for each size, one full checkpoint over the whole
/// table and one incremental checkpoint after a small tail of inserts.
pub fn run_checkpoints(cfg: &DurabilityConfig, dir: &Path) -> Vec<CheckpointRow> {
    let mut rows = Vec::new();
    for &n in &cfg.checkpoint_sizes {
        let dir = dir.join(format!("ckpt_{n}"));
        std::fs::remove_dir_all(&dir).ok();
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        db.create_table("readings", bench_schema()).unwrap();
        fill(&db, 0, n);
        let before = ckpt_pages(&db);
        let t0 = Instant::now();
        db.checkpoint().unwrap();
        let full_secs = t0.elapsed().as_secs_f64();
        let after = ckpt_pages(&db);
        rows.push(CheckpointRow {
            kind: "full".to_string(),
            tuples: n,
            secs: full_secs,
            pages_copied: after.0 - before.0,
            pages_skipped: after.1 - before.1,
        });

        fill(&db, n, cfg.checkpoint_tail);
        let before = ckpt_pages(&db);
        let t0 = Instant::now();
        db.checkpoint_incremental().unwrap();
        let incr_secs = t0.elapsed().as_secs_f64();
        let after = ckpt_pages(&db);
        rows.push(CheckpointRow {
            kind: "incremental".to_string(),
            tuples: n + cfg.checkpoint_tail,
            secs: incr_secs,
            pages_copied: after.0 - before.0,
            pages_skipped: after.1 - before.1,
        });
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
    rows
}

/// JSON artifact over both sweeps.
pub fn to_json(gc: &[GroupCommitRow], ckpt: &[CheckpointRow]) -> json::Value {
    let mut gc_arr = json::Value::array();
    for r in gc {
        gc_arr.push(r.to_json());
    }
    let mut ck_arr = json::Value::array();
    for r in ckpt {
        ck_arr.push(r.to_json());
    }
    json::Value::object()
        .with("figure", "fig_durability")
        .with("group_commit", gc_arr)
        .with("checkpoints", ck_arr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_commit_halves_fsyncs_at_eight_writers() {
        // The acceptance bar: at 8 writers the batching window must cut
        // physical fsyncs at least in half versus per-commit syncing.
        let cfg = DurabilityConfig {
            writer_counts: vec![8],
            inserts_per_writer: 50,
            ..DurabilityConfig::default()
        };
        let rows = run_group_commit(&cfg);
        let per = rows.iter().find(|r| r.mode == "per-commit").unwrap();
        let grp = rows.iter().find(|r| r.mode == "group").unwrap();
        assert_eq!(per.commits, grp.commits, "same workload either way");
        assert_eq!(per.fsyncs, per.commits, "disabled mode syncs every commit");
        assert_eq!(per.fsyncs_saved, 0);
        assert!(
            grp.fsyncs * 2 <= per.fsyncs,
            "group commit must save ≥2×: {} vs {} fsyncs",
            grp.fsyncs,
            per.fsyncs
        );
        assert_eq!(grp.fsyncs_saved, grp.commits - grp.fsyncs, "ledger closes");
        assert!(grp.batches > 0 && grp.batches == grp.fsyncs);
        assert!(grp.commits_per_fsync() >= 2.0 * per.commits_per_fsync());
    }

    #[test]
    fn lone_writer_pays_no_batching_tax_in_fsyncs_saved_accounting() {
        let cfg = DurabilityConfig {
            writer_counts: vec![1],
            inserts_per_writer: 20,
            ..DurabilityConfig::default()
        };
        let rows = run_group_commit(&cfg);
        for r in &rows {
            assert_eq!(r.commits, 21, "{:?}", r);
            assert_eq!(r.fsyncs_saved + r.fsyncs, r.commits, "{:?}", r);
        }
    }

    #[test]
    fn incremental_checkpoint_skips_most_pages() {
        let cfg = DurabilityConfig {
            checkpoint_sizes: vec![2_000],
            checkpoint_tail: 8,
            ..DurabilityConfig::default()
        };
        let dir = scratch_dir("ckpt_test");
        let rows = run_checkpoints(&cfg, &dir);
        std::fs::remove_dir_all(&dir).ok();
        let full = rows.iter().find(|r| r.kind == "full").unwrap();
        let incr = rows.iter().find(|r| r.kind == "incremental").unwrap();
        assert!(full.pages_copied > 0);
        assert!(incr.pages_skipped > 0, "{incr:?}");
        assert!(
            incr.pages_copied < full.pages_copied,
            "a small tail must not re-copy the table: {incr:?} vs {full:?}"
        );
    }

    #[test]
    fn json_artifact_carries_both_sweeps() {
        let gc = vec![GroupCommitRow {
            mode: "group".into(),
            writers: 2,
            commits: 10,
            fsyncs: 4,
            fsyncs_saved: 6,
            batches: 4,
            secs: 0.1,
        }];
        let ck = vec![CheckpointRow {
            kind: "incremental".into(),
            tuples: 100,
            secs: 0.01,
            pages_copied: 2,
            pages_skipped: 30,
        }];
        let text = to_json(&gc, &ck).to_string_compact();
        assert!(text.contains("\"commits_per_fsync\""), "{text}");
        assert!(text.contains("\"pages_skipped\""), "{text}");
        assert!(text.contains("\"fig_durability\""), "{text}");
    }
}
