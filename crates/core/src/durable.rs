//! Durable database: atomic snapshots + a write-ahead log, with crash
//! recovery.
//!
//! A [`SharedDurableDb`] lives in a directory holding two files:
//!
//! * `snapshot.db` — the last checkpoint, written atomically by
//!   [`crate::persist::save_database`] (temp file → fsync → rename);
//! * `wal.log` — every mutation since that checkpoint, as length+CRC32
//!   framed records ([`orion_storage::Wal`]).
//!
//! **Commit protocol.** An insert first mutates the in-memory tables and
//! registry, then logs the base-pdf records it registered followed by the
//! tuple record, then fsyncs the WAL. The tuple record reaching stable
//! storage *is* the commit point: recovery replays base records before the
//! tuple that references them, and a crash after the bases but before the
//! tuple leaves refcount-0 orphan bases — harmless, reclaimed at the next
//! checkpoint (reference counts are rebuilt only from tuple records).
//! If logging fails, the in-memory mutation is **rolled back** (tuple
//! removed by identity, freshly registered bases released) and the WAL is
//! truncated to its pre-insert length, so memory never diverges from what
//! recovery would rebuild.
//!
//! **Checkpoints.** A checkpoint writes an atomic snapshot stamped with a
//! fresh *epoch*, then empties the WAL. The first record logged after a
//! checkpoint restamps the WAL with the snapshot's epoch. A crash in the
//! window between the snapshot rename and the WAL reset leaves the old
//! WAL (carrying the *previous* epoch) beside the new snapshot; recovery
//! compares epochs and discards such a stale WAL instead of replaying it
//! over state that already contains its records.
//!
//! **Recovery.** [`SharedDurableDb::open`] folds the snapshot **chain**
//! (base `snapshot.db` plus any incremental `delta-*.db` files, pages
//! merged in epoch order before a single decode pass — see
//! [`crate::persist::load_chain`]), truncates any torn WAL tail, discards
//! the whole WAL if its epoch predates the chain's, and otherwise replays
//! every committed record through the same
//! [`crate::persist::apply_record`] decoder the snapshot loader uses,
//! reporting what it did in a [`RecoveryReport`]. Re-opening a recovered
//! database is idempotent: the second open replays the same records and
//! truncates nothing.
//!
//! **Group commit.** The WAL is driven through
//! [`orion_storage::GroupWal`]: each commit enqueues its framed records,
//! one elected leader performs a single batched `append + fsync` for every
//! queued commit, and followers block on their commit sequence number.
//! [`SharedDurableDb`] is the one engine handle: its methods take `&self`
//! and an insert commits outside the core lock, so concurrent writers
//! share fsyncs. Tunables (batching window, max batch bytes) live in
//! [`orion_storage::GroupCommitConfig`].
//!
//! **Incremental checkpoints.** [`SharedDurableDb::checkpoint_incremental`]
//! rebuilds the chain's pages in memory, appends only the records created
//! since the last checkpoint, and writes the pages that mutation dirtied
//! into an epoch-stamped [`orion_storage::DeltaFile`]
//! (temp → fsync → rename): the cost scales with the new data, not the
//! database. A full [`SharedDurableDb::checkpoint`] rewrites the base and
//! deletes the delta chain it subsumes.

use crate::error::{EngineError, Result};
use crate::history::{HistoryRegistry, PdfId};
use crate::persist::{self, LoadState};
use crate::pindex::{IndexCatalog, IndexDef, IndexHandle, IndexKind};
use crate::plan_feedback::PlanFeedbackStore;
use crate::relation::Relation;
use crate::schema::ProbSchema;
use crate::stats_catalog::{analyze_relation, StatsCatalog, TableStats};
use crate::tuple::ProbTuple;
use crate::value::Value;
use orion_obs::workload::WorkloadRepo;
use orion_pdf::prelude::{JointPdf, Pdf1};
use orion_storage::wal::WalStats;
use orion_storage::{
    DeltaFile, GroupCommitConfig, GroupWal, HeapFile, IoStats, PageStore, Wal, PAGE_SIZE,
};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Snapshot file name inside a [`SharedDurableDb`] directory.
pub const SNAPSHOT_FILE: &str = "snapshot.db";
/// Write-ahead log file name inside a [`SharedDurableDb`] directory.
pub const WAL_FILE: &str = "wal.log";

/// What [`SharedDurableDb::open`] found and did while recovering.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Whether a snapshot file existed and was loaded.
    pub snapshot_loaded: bool,
    /// Committed WAL records replayed over the snapshot.
    pub wal_records_replayed: u64,
    /// Bytes of torn WAL tail discarded (crash mid-append).
    pub wal_bytes_truncated: u64,
    /// Records discarded because the whole WAL predated the snapshot's
    /// checkpoint epoch (crash between snapshot rename and WAL reset).
    pub stale_wal_records_discarded: u64,
    /// Incremental delta files folded over the base snapshot.
    pub deltas_folded: u64,
    /// Delta files discarded because a full checkpoint had already
    /// subsumed them (crash between snapshot rename and delta cleanup).
    pub stale_deltas_removed: u64,
    /// Records belonging to a transaction whose commit marker never
    /// reached stable storage (crash mid-transaction) or that was
    /// explicitly aborted — discarded wholesale so no partial transaction
    /// is ever visible after recovery.
    pub incomplete_txn_records_discarded: u64,
}

impl RecoveryReport {
    /// Stable JSON rendering for stats exporters and test grepping.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"snapshot_loaded\":{},\"wal_records_replayed\":{},\"wal_bytes_truncated\":{},\"stale_wal_records_discarded\":{},\"deltas_folded\":{},\"stale_deltas_removed\":{},\"incomplete_txn_records_discarded\":{}}}",
            self.snapshot_loaded,
            self.wal_records_replayed,
            self.wal_bytes_truncated,
            self.stale_wal_records_discarded,
            self.deltas_folded,
            self.stale_deltas_removed,
            self.incomplete_txn_records_discarded
        )
    }
}

/// Where the last checkpoint left off: everything the persistent chain
/// already contains, so an incremental checkpoint appends only what came
/// after. Captured right after the chain fold at open (before WAL replay —
/// replayed records are *not* in the chain) and after every checkpoint.
#[derive(Debug, Clone, Default)]
pub(crate) struct CkptMarks {
    /// Highest base-pdf id in the chain; later registrations are new.
    last_base: PdfId,
    /// Per-table tuple count in the chain; presence of a key means the
    /// table's schema record is already persisted.
    tables: HashMap<String, usize>,
    /// Canonical encoding of the stats catalog the chain contains. Stats
    /// equality is defined as bitwise encoding equality, so comparing
    /// bytes tells an incremental checkpoint whether `ANALYZE` ran since.
    stats: Vec<u8>,
    /// Canonical encoding of the index definitions the chain contains
    /// (same byte-compare discipline as `stats`): tells an incremental
    /// checkpoint whether `CREATE INDEX` ran since.
    indexes: Vec<u8>,
    /// Whether a delete or update ran since the last checkpoint. Such
    /// mutations break the append-only assumption the incremental
    /// record-diff relies on (tuple counts can shrink, existing tuples can
    /// change in place), so the next checkpoint must be full.
    pub(crate) mutated: bool,
}

impl CkptMarks {
    fn capture(
        tables: &HashMap<String, Relation>,
        reg: &HistoryRegistry,
        stats: &StatsCatalog,
        indexes: &IndexCatalog,
    ) -> CkptMarks {
        CkptMarks {
            last_base: reg.last_id(),
            tables: tables.iter().map(|(n, r)| (n.clone(), r.tuples.len())).collect(),
            stats: stats.encode(),
            indexes: indexes.encode(),
            mutated: false,
        }
    }
}

/// Name of the workload-repository sidecar written next to the snapshot
/// chain when `ORION_STATEMENTS_PERSIST=1`.
pub const WORKLOAD_FILE: &str = "workload.json";

/// Best-effort write of the workload repository + planner feedback into the
/// [`WORKLOAD_FILE`] sidecar (temp → rename), gated on the repository's
/// `persist` knob. Observability data: a failure here must never fail the
/// checkpoint that triggered it, so errors are swallowed.
fn persist_workload_sidecar(dir: &Path, workload: &WorkloadRepo, feedback: &PlanFeedbackStore) {
    if !workload.config().persist {
        return;
    }
    let doc = orion_obs::json::Value::object()
        .with("workload", workload.to_json())
        .with("plan_feedback", feedback.to_json());
    let tmp = dir.join(format!("{WORKLOAD_FILE}.tmp"));
    if std::fs::write(&tmp, doc.to_string_pretty()).is_ok() {
        let _ = std::fs::rename(&tmp, dir.join(WORKLOAD_FILE));
    }
}

/// Best-effort load of the [`WORKLOAD_FILE`] sidecar on open: counters
/// merge into the fresh stores. Unconditional — a repository persisted by a
/// previous process is picked up even when this process won't persist.
fn load_workload_sidecar(dir: &Path, workload: &WorkloadRepo, feedback: &PlanFeedbackStore) {
    let Ok(text) = std::fs::read_to_string(dir.join(WORKLOAD_FILE)) else { return };
    let Ok(doc) = orion_obs::json::parse(&text) else { return };
    if let Some(w) = doc.get("workload") {
        let _ = workload.load_json(w);
    }
    if let Some(f) = doc.get("plan_feedback") {
        let _ = feedback.load_json(f);
    }
}

/// (Re)arms the [`GroupWal`]'s epoch stamp: after any checkpoint, the
/// first batch written to the (then empty) log is prefixed with the
/// chain's epoch, so recovery can tell a live WAL from a stale one left by
/// a crashed checkpoint. Epoch 0 (no checkpoint yet) writes no stamp.
fn set_epoch_stamp(wal: &GroupWal, epoch: u64) -> Result<()> {
    if epoch == 0 {
        wal.set_stamp(None)?;
    } else {
        let mut buf = Vec::new();
        persist::encode_epoch(epoch, &mut buf);
        wal.set_stamp(Some(&buf))?;
    }
    Ok(())
}

/// Validates a CREATE INDEX against the live tables and catalog, resolving
/// the key layout (`cdf` for uncertain columns, `evx` for certain ones
/// when not forced). The same kind/column compatibility check
/// [`crate::pindex::BuiltIndex::build`] applies runs here, so an
/// unbuildable definition is never logged.
pub fn validate_index_def(
    tables: &HashMap<String, Relation>,
    indexes: &IndexHandle,
    name: &str,
    table: &str,
    column: &str,
    kind: Option<IndexKind>,
) -> Result<IndexDef> {
    if indexes.lock().get(name).is_some() {
        return Err(EngineError::Operator(format!("index '{name}' already exists")));
    }
    let rel = tables
        .get(table)
        .ok_or_else(|| EngineError::Operator(format!("unknown table '{table}'")))?;
    let col = rel
        .schema
        .column(column)
        .ok_or_else(|| EngineError::Schema(format!("unknown column '{column}'")))?;
    let kind = kind.unwrap_or(if col.uncertain { IndexKind::Cdf } else { IndexKind::Evx });
    match kind {
        IndexKind::Evx if col.uncertain => {
            return Err(EngineError::Operator(format!(
                "evx index needs a certain column ('{column}' is uncertain); use USING cdf"
            )))
        }
        IndexKind::Cdf if !col.uncertain => {
            return Err(EngineError::Operator(format!(
                "cdf index needs an uncertain column ('{column}' is certain); use USING evx"
            )))
        }
        _ => {}
    }
    Ok(IndexDef { name: name.into(), table: table.into(), column: column.into(), kind })
}

/// Encodes one insert's WAL unit: the base records it registered (ids in
/// `before+1..=last`) followed by the tuple record (the commit point).
fn encode_insert_payloads(
    tables: &HashMap<String, Relation>,
    reg: &HistoryRegistry,
    table: &str,
    before: PdfId,
) -> Result<Vec<Vec<u8>>> {
    let mut payloads = Vec::new();
    for id in before + 1..=reg.last_id() {
        if let Ok(base) = reg.base(id) {
            let mut buf = Vec::new();
            persist::encode_base(id, base, &mut buf);
            payloads.push(buf);
        }
    }
    let t = tables
        .get(table)
        .and_then(|rel| rel.tuples.last())
        .ok_or_else(|| EngineError::Operator("insert left no tuple to log".into()))?;
    let mut buf = Vec::new();
    persist::encode_tuple(table, t, &mut buf);
    payloads.push(buf);
    Ok(payloads)
}

/// A span on the calling thread's `checkpoint` lane, inert while tracing
/// is off. Checkpoints are serialized per database (they hold the engine
/// lock), and thread-keying keeps concurrent databases off each other's
/// lanes.
fn ckpt_span(name: &'static str) -> orion_obs::Span {
    let t = orion_obs::Tracer::global();
    if !t.enabled() {
        return orion_obs::Span::noop();
    }
    t.thread_lane("checkpoint").span(name, "checkpoint")
}

/// Mutable database state behind [`SharedDurableDb`]'s core lock.
#[derive(Debug)]
pub(crate) struct SharedCore {
    dir: PathBuf,
    pub(crate) tables: HashMap<String, Relation>,
    pub(crate) reg: HistoryRegistry,
    pub(crate) epoch: u64,
    pub(crate) marks: CkptMarks,
    pub(crate) stats: StatsCatalog,
    pub(crate) indexes: IndexHandle,
    /// Inserts whose in-memory mutation has been applied but whose WAL
    /// commit has not yet resolved. Checkpoints wait for zero: a snapshot
    /// taken mid-commit could capture a tuple that then fails its commit
    /// and rolls back — durable state would diverge from every replay.
    in_flight: usize,
    /// Monotonic transaction-commit sequence: bumped once per committed
    /// transaction, under the core lock, so observers can order commits.
    pub(crate) commit_seq: u64,
}

impl SharedCore {
    /// Full checkpoint: atomically writes a fresh base snapshot stamped
    /// with the next epoch, deletes the delta chain it subsumes, then
    /// empties the WAL (whose records the snapshot now contains).
    /// Crash-atomic at every point: until the snapshot rename lands,
    /// recovery uses the old chain + full WAL; once it lands, leftover
    /// deltas and a WAL still carrying the old epoch are recognized as
    /// stale and discarded instead of replayed. A checkpoint that returns
    /// an error never corrupts state — at worst the WAL keeps
    /// accumulating.
    fn checkpoint_full(&mut self, wal: &GroupWal, io: &IoStats) -> Result<()> {
        let mut span = ckpt_span("checkpoint.full");
        let new_epoch = self.epoch + 1;
        let snap = self.dir.join(SNAPSHOT_FILE);
        let cat = self.indexes.lock();
        persist::save_snapshot_full(&snap, &self.tables, &self.reg, &self.stats, &cat, new_epoch)?;
        // A full checkpoint copies every page of the new base; the counter
        // mirrors the incremental path's copied/skipped accounting.
        let pages =
            std::fs::metadata(&snap).map(|m| m.len().div_ceil(PAGE_SIZE as u64)).unwrap_or(0);
        io.ckpt_pages_copied.add(pages);
        if span.is_recording() {
            span.arg("epoch", new_epoch);
            span.arg("pages_copied", pages);
        }
        // The rename above is the commit point. Deltas subsumed by the new
        // base are deleted afterwards; a crash in between leaves them behind
        // with stale epochs, and recovery removes them.
        DeltaFile::remove_all(&self.dir)?;
        self.epoch = new_epoch;
        self.marks = CkptMarks::capture(&self.tables, &self.reg, &self.stats, &cat);
        drop(cat);
        wal.reset()?;
        set_epoch_stamp(wal, new_epoch)?;
        Ok(())
    }

    /// Incremental checkpoint: folds the existing chain's pages in memory,
    /// appends only the records created since the last checkpoint, and
    /// writes the pages that dirtied into an epoch-stamped delta file
    /// (temp → fsync → rename — the same crash-atomicity discipline as
    /// the full path; the delta rename is the commit point). Falls back to
    /// a full checkpoint when no base snapshot exists yet; a no-op when
    /// nothing changed since the last checkpoint.
    fn checkpoint_incremental(&mut self, wal: &GroupWal, io: &IoStats) -> Result<()> {
        let snap = self.dir.join(SNAPSHOT_FILE);
        if !snap.exists() {
            // Nothing to increment on — the first checkpoint is always full.
            return self.checkpoint_full(wal, io);
        }
        if self.marks.mutated {
            // A delete, update, or index drop ran since the last checkpoint:
            // the chain's records are no longer a prefix of the current state,
            // so the append-only diff below would be wrong. Rewrite the base.
            return self.checkpoint_full(wal, io);
        }
        let cat = self.indexes.lock();
        let stats_changed = self.stats.encode() != self.marks.stats;
        let indexes_changed = cat.encode() != self.marks.indexes;
        let new_work = stats_changed
            || indexes_changed
            || self.reg.last_id() > self.marks.last_base
            || self
                .tables
                .iter()
                .any(|(n, r)| self.marks.tables.get(n).is_none_or(|&count| r.tuples.len() > count));
        if !new_work {
            return Ok(());
        }
        let mut span = ckpt_span("checkpoint.incremental");
        let new_epoch = self.epoch + 1;
        // Rebuild the chain's pages in memory, then append only the records
        // the chain does not contain. The heap adopts the chain's tail page so
        // appends fill its free space (that page is copied; untouched pages
        // are skipped — the incremental win).
        let (mem, _) = persist::fold_chain_pages(&snap, &self.dir)?;
        let mut heap = HeapFile::new(mem, 64);
        heap.adopt_tail();
        heap.pool().mark_checkpoint();
        let mut buf = Vec::new();
        persist::encode_epoch(new_epoch, &mut buf);
        persist::insert_record(&mut heap, &buf)?;
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort();
        for name in &names {
            if !self.marks.tables.contains_key(*name) {
                buf.clear();
                persist::encode_schema(&self.tables[*name], &mut buf);
                persist::insert_record(&mut heap, &buf)?;
            }
        }
        let mut bases: Vec<_> =
            self.reg.iter_bases().filter(|(id, _)| *id > self.marks.last_base).collect();
        bases.sort_by_key(|(id, _)| *id);
        for (id, base) in bases {
            buf.clear();
            persist::encode_base(id, base, &mut buf);
            persist::insert_record(&mut heap, &buf)?;
        }
        for name in &names {
            let from = self.marks.tables.get(*name).copied().unwrap_or(0);
            for t in &self.tables[*name].tuples[from..] {
                buf.clear();
                persist::encode_tuple(name, t, &mut buf);
                persist::insert_record(&mut heap, &buf)?;
            }
        }
        if stats_changed {
            // Stats replay overwrites per table, so re-emitting the whole
            // catalog is idempotent; the delta's records decode after the
            // chain's and win.
            for ts in self.stats.iter() {
                buf.clear();
                persist::encode_stats(ts, &mut buf);
                persist::insert_record(&mut heap, &buf)?;
            }
        }
        if indexes_changed {
            // Index replay installs-by-name, so re-emitting every definition
            // is idempotent. Only creates reach this path — a drop sets the
            // `mutated` mark and forces a full checkpoint, because an
            // append-only delta cannot retract the chain's create record.
            for def in cat.defs() {
                buf.clear();
                persist::encode_index_def(def, &mut buf);
                persist::insert_record(&mut heap, &buf)?;
            }
        }
        heap.pool().flush()?;
        let dirty = heap.pool().dirty_pages_since_mark();
        let total = heap.page_count() as u64;
        let mut store = heap.into_store()?;
        let mut pages = Vec::with_capacity(dirty.len());
        for pid in dirty {
            let mut page = orion_storage::Page::new();
            store.read_page(pid, &mut page)?;
            pages.push((pid, page));
        }
        io.ckpt_pages_copied.add(pages.len() as u64);
        io.ckpt_pages_skipped.add(total.saturating_sub(pages.len() as u64));
        if span.is_recording() {
            span.arg("epoch", new_epoch);
            span.arg("pages_copied", pages.len() as u64);
            span.arg("pages_skipped", total.saturating_sub(pages.len() as u64));
        }
        // The delta rename is the commit point of this checkpoint.
        DeltaFile { epoch: new_epoch, pages }.write_atomic(&self.dir)?;
        self.epoch = new_epoch;
        self.marks = CkptMarks::capture(&self.tables, &self.reg, &self.stats, &cat);
        drop(cat);
        wal.reset()?;
        set_epoch_stamp(wal, new_epoch)?;
        Ok(())
    }

    /// Undoes the in-memory effects of one insert: removes its
    /// tuple **by identity** (re-encoding candidates and matching the exact
    /// WAL bytes — concurrent inserts may have appended later tuples, so "pop
    /// the last" would remove the wrong one), releases the references its
    /// nodes took, and deletes the bases it registered (`before+1..=last`,
    /// unique to this insert because id allocation is monotonic under the
    /// core lock). `tuple_bytes: None` skips the tuple search (the mutation
    /// failed before a tuple was encoded).
    fn rollback_insert(&mut self, table: &str, before: PdfId, tuple_bytes: Option<&[u8]>) {
        if let Some(rel) = self.tables.get_mut(table) {
            let popped: Option<ProbTuple> = tuple_bytes.and_then(|bytes| {
                rel.tuples
                    .iter()
                    .rposition(|t| {
                        let mut buf = Vec::new();
                        persist::encode_tuple(table, t, &mut buf);
                        buf == bytes
                    })
                    .map(|i| rel.tuples.remove(i))
            });
            if let Some(t) = popped {
                for n in &t.nodes {
                    self.reg.release_refs(&n.ancestors);
                }
            }
        }
        for id in before + 1..=self.reg.last_id() {
            self.reg.delete_base(id);
        }
    }
}

/// One live transaction's introspection row (the `orion.txns` table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveTxnInfo {
    /// Transaction id (process-global, monotonic).
    pub id: u64,
    /// Checkpoint epoch of the chain when the snapshot was taken.
    pub snapshot_epoch: u64,
    /// Current write-set size (DML ops staged so far).
    pub writes: usize,
}

#[derive(Debug)]
pub(crate) struct SharedInner {
    pub(crate) core: Mutex<SharedCore>,
    /// Signalled each time `in_flight` drops to zero.
    drained: Condvar,
    pub(crate) wal: GroupWal,
    recovery: RecoveryReport,
    io: Arc<IoStats>,
    workload: Arc<WorkloadRepo>,
    feedback: Arc<PlanFeedbackStore>,
    /// Live transactions: id → (snapshot epoch, shared write-set counter).
    /// A side table (not under the core lock) so `orion.txns` can be read
    /// without stalling writers.
    pub(crate) txns: Mutex<HashMap<u64, (u64, Arc<std::sync::atomic::AtomicUsize>)>>,
}

/// The durable engine handle, safe to share across threads (`Clone` +
/// `Send` + `Sync`): the in-memory mutation happens under a core mutex,
/// but an insert's WAL commit happens **outside** it, so concurrent
/// inserts pile into the [`GroupWal`]'s batch and share fsyncs — the whole
/// point of group commit.
#[derive(Debug, Clone)]
pub struct SharedDurableDb {
    pub(crate) inner: Arc<SharedInner>,
}

impl SharedDurableDb {
    /// Opens (creating if absent) the database in `dir` with the given
    /// group-commit tunables, running crash recovery: snapshot-chain fold,
    /// torn-tail truncation, stale-WAL rejection, WAL replay.
    pub fn open(dir: &Path, cfg: GroupCommitConfig) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        // Crash observability: flight-recorder dumps land next to the data
        // they describe, and a panic anywhere in the process leaves one
        // (both no-ops unless the recorder is enabled via ORION_TRACE=1 or
        // recorder::set_enabled).
        orion_obs::recorder::set_dump_dir(dir);
        orion_obs::recorder::install_panic_hook();
        let snap = dir.join(SNAPSHOT_FILE);
        let mut state = LoadState::default();
        let chain = persist::load_chain(&snap, dir, &mut state)?;
        let snap_epoch = state.wal_epoch;
        // Everything loaded so far lives in the persistent chain: that is
        // what the next incremental checkpoint starts from. WAL records
        // replayed below are new relative to it.
        let marks = CkptMarks::capture(&state.tables, &state.reg, &state.stats, &state.indexes);
        let (mut wal, replay) = Wal::open(&dir.join(WAL_FILE))?;
        let wal_epoch = replay.records.first().and_then(|r| persist::record_epoch(r)).unwrap_or(0);
        let mut replayed = 0u64;
        let mut stale_discarded = 0u64;
        let mut incomplete_discarded = 0u64;
        if wal_epoch < snap_epoch {
            // The WAL predates the snapshot: a crash hit the window between
            // a checkpoint's commit point (snapshot rename / delta rename)
            // and its WAL reset. Every record here is already folded into
            // the chain — replaying would duplicate tuples and
            // double-count refcounts.
            stale_discarded = replay.records.len() as u64;
            if stale_discarded > 0 {
                wal.reset()?;
            }
        } else {
            // Transaction framing: records between a begin marker and its
            // commit marker are buffered and applied only when the commit
            // is seen — all-or-nothing. An abort marker, or a begin whose
            // commit never reached stable storage (crash mid-transaction),
            // discards the buffered records wholesale.
            let mut txn_buf: Option<(u64, Vec<&[u8]>)> = None;
            for rec in &replay.records {
                if let Some(marker) = persist::txn_marker(rec) {
                    match (marker, &mut txn_buf) {
                        (persist::TxnMarker::Begin(id), None) => txn_buf = Some((id, Vec::new())),
                        (persist::TxnMarker::Begin(_), Some(_)) => {
                            return Err(EngineError::Corrupt(
                                "nested transaction begin in WAL".into(),
                            ))
                        }
                        (persist::TxnMarker::Commit(id), Some((txid, buffered))) if id == *txid => {
                            for r in buffered.drain(..) {
                                persist::apply_record(r, &mut state)?;
                                replayed += 1;
                            }
                            txn_buf = None;
                        }
                        (persist::TxnMarker::Abort(id), Some((txid, buffered))) if id == *txid => {
                            incomplete_discarded += buffered.len() as u64;
                            txn_buf = None;
                        }
                        (m, _) => {
                            return Err(EngineError::Corrupt(format!(
                                "transaction marker {m:?} without matching begin"
                            )))
                        }
                    }
                    continue;
                }
                match &mut txn_buf {
                    Some((_, buffered)) => buffered.push(rec),
                    None => {
                        persist::apply_record(rec, &mut state)?;
                        if persist::record_epoch(rec).is_none() {
                            replayed += 1;
                        }
                    }
                }
            }
            if let Some((_, buffered)) = txn_buf {
                // Crash after the begin but before the commit made it to
                // stable storage: the transaction never committed.
                incomplete_discarded += buffered.len() as u64;
            }
        }
        let recovery = RecoveryReport {
            snapshot_loaded: chain.snapshot_loaded,
            wal_records_replayed: replayed,
            wal_bytes_truncated: replay.truncated_bytes,
            stale_wal_records_discarded: stale_discarded,
            deltas_folded: chain.deltas_folded,
            stale_deltas_removed: chain.stale_deltas_removed,
            incomplete_txn_records_discarded: incomplete_discarded,
        };
        let epoch = state.wal_epoch.max(snap_epoch);
        let stats = state.take_stats();
        let indexes = IndexHandle::from_catalog(state.take_indexes());
        let (tables, reg) = state.finish();
        let wal = GroupWal::new(wal, cfg);
        set_epoch_stamp(&wal, epoch)?;
        let workload = Arc::new(WorkloadRepo::from_env());
        let feedback = Arc::new(PlanFeedbackStore::new());
        load_workload_sidecar(dir, &workload, &feedback);
        let core = SharedCore {
            dir: dir.to_path_buf(),
            tables,
            reg,
            epoch,
            marks,
            stats,
            indexes,
            in_flight: 0,
            commit_seq: 0,
        };
        Ok(SharedDurableDb {
            inner: Arc::new(SharedInner {
                core: Mutex::new(core),
                drained: Condvar::new(),
                wal,
                recovery,
                io: Arc::new(IoStats::default()),
                workload,
                feedback,
                txns: Mutex::new(HashMap::new()),
            }),
        })
    }

    /// Creates a table and durably logs its schema. The core lock is held
    /// across the commit so no concurrent insert into the new table can
    /// enqueue its tuple record ahead of the schema record.
    pub fn create_table(&self, name: &str, schema: ProbSchema) -> Result<()> {
        let mut core = self.inner.core.lock();
        if core.tables.contains_key(name) {
            return Err(EngineError::Schema(format!("table '{name}' already exists")));
        }
        let rel = Relation::new(name, schema);
        let mut buf = Vec::new();
        persist::encode_schema(&rel, &mut buf);
        self.inner.wal.commit(&[buf])?;
        core.tables.insert(name.to_string(), rel);
        Ok(())
    }

    /// Collects per-column statistics for `table` (see
    /// [`crate::stats_catalog::analyze_relation`]), durably logs them, and
    /// returns what was logged. Replay is an overwrite per table, so
    /// re-analyzing supersedes the old record. The core lock is held
    /// across the commit so the logged record matches the table state it
    /// summarizes. On a failed commit nothing is applied — the catalog
    /// keeps its previous entry (or none).
    pub fn analyze_table(&self, table: &str) -> Result<TableStats> {
        let mut core = self.inner.core.lock();
        let rel = core
            .tables
            .get(table)
            .ok_or_else(|| EngineError::Operator(format!("unknown table '{table}'")))?;
        let ts = analyze_relation(rel)?;
        let mut buf = Vec::new();
        persist::encode_stats(&ts, &mut buf);
        self.inner.wal.commit(&[buf])?;
        core.stats.insert(ts.clone());
        Ok(ts)
    }

    /// A copy of the statistics catalog (empty until
    /// [`SharedDurableDb::analyze_table`]).
    pub fn stats_catalog(&self) -> StatsCatalog {
        self.inner.core.lock().stats.clone()
    }

    /// Creates a secondary index and durably logs its definition. `kind`
    /// defaults by column certainty (`cdf` for uncertain, `evx` for
    /// certain). Only the definition is persisted — the tree is rebuilt
    /// lazily on first use. The core lock is held across the commit so the
    /// definition matches the schema it was validated against; on a failed
    /// commit nothing is applied.
    pub fn create_index(
        &self,
        name: &str,
        table: &str,
        column: &str,
        kind: Option<IndexKind>,
    ) -> Result<()> {
        let core = self.inner.core.lock();
        let def = validate_index_def(&core.tables, &core.indexes, name, table, column, kind)?;
        let mut buf = Vec::new();
        persist::encode_index_def(&def, &mut buf);
        self.inner.wal.commit(&[buf])?;
        let created = core.indexes.lock().create(def);
        created
    }

    /// Drops a secondary index and durably logs the drop. On a failed
    /// commit nothing is applied.
    pub fn drop_index(&self, name: &str) -> Result<()> {
        let mut core = self.inner.core.lock();
        if core.indexes.lock().get(name).is_none() {
            return Err(EngineError::Operator(format!("unknown index '{name}'")));
        }
        let mut buf = Vec::new();
        persist::encode_index_drop(name, &mut buf);
        self.inner.wal.commit(&[buf])?;
        let _ = core.indexes.lock().drop_index(name);
        // An append-only delta cannot retract the chain's create record.
        core.marks.mutated = true;
        Ok(())
    }

    /// The shared index catalog handle (seed it into
    /// [`crate::select::ExecOptions::indexes`] so the planner sees it).
    pub fn indexes(&self) -> IndexHandle {
        self.inner.core.lock().indexes.clone()
    }

    /// Inserts a tuple (see [`Relation::insert`]) and commits it through
    /// the group-commit pipeline. Blocks until the commit is durable; on
    /// error the in-memory mutation is rolled back. Concurrent callers
    /// share fsyncs.
    pub fn insert(
        &self,
        table: &str,
        certain: &[(&str, Value)],
        uncertain: Vec<(Vec<&str>, JointPdf)>,
    ) -> Result<()> {
        self.insert_with(table, |rel, reg| rel.insert(reg, certain, uncertain))
    }

    /// Inserts a tuple of independent 1-D pdfs (see
    /// [`Relation::insert_simple`]) through the group-commit pipeline.
    pub fn insert_simple(
        &self,
        table: &str,
        certain: &[(&str, Value)],
        pdfs: &[(&str, Pdf1)],
    ) -> Result<()> {
        self.insert_with(table, |rel, reg| rel.insert_simple(reg, certain, pdfs))
    }

    fn insert_with(
        &self,
        table: &str,
        mutate: impl FnOnce(&mut Relation, &mut HistoryRegistry) -> Result<()>,
    ) -> Result<()> {
        // Phase 1 (under the core lock): apply the in-memory mutation and
        // encode its WAL unit.
        let (payloads, before) = {
            let mut core = self.inner.core.lock();
            let core = &mut *core;
            let before = core.reg.last_id();
            let rel = core
                .tables
                .get_mut(table)
                .ok_or_else(|| EngineError::Operator(format!("unknown table '{table}'")))?;
            mutate(rel, &mut core.reg)?;
            let payloads = match encode_insert_payloads(&core.tables, &core.reg, table, before) {
                Ok(p) => p,
                Err(e) => {
                    core.rollback_insert(table, before, None);
                    return Err(e);
                }
            };
            core.in_flight += 1;
            (payloads, before)
        };
        // Phase 2 (lock released): block in the group-commit pipeline.
        // Other inserters run phase 1 meanwhile and join the same batch.
        let committed = self.inner.wal.commit(&payloads);
        // Phase 3: resolve. A failed commit rolls the mutation back by
        // identity — other inserts may have appended tuples since.
        let mut core = self.inner.core.lock();
        if committed.is_err() {
            let tuple_bytes = payloads.last().expect("insert unit has a tuple record");
            core.rollback_insert(table, before, Some(tuple_bytes));
        } else {
            core.indexes.lock().note_mutation(table);
        }
        core.in_flight -= 1;
        if core.in_flight == 0 {
            self.inner.drained.notify_all();
        }
        drop(core);
        committed.map_err(EngineError::from)
    }

    /// Runs `f` with read access to the tables and registry (for queries).
    /// Do not block inside `f`: the core lock stalls every writer.
    pub fn with_tables<R>(
        &self,
        f: impl FnOnce(&HashMap<String, Relation>, &HistoryRegistry) -> R,
    ) -> R {
        let core = self.inner.core.lock();
        f(&core.tables, &core.reg)
    }

    /// Full checkpoint (see `SharedCore::checkpoint_full`). Waits for
    /// every in-flight insert to resolve first, so the snapshot never
    /// captures a tuple whose commit could still fail and roll back.
    pub fn checkpoint(&self) -> Result<()> {
        let mut core = self.lock_drained();
        core.checkpoint_full(&self.inner.wal, &self.inner.io)?;
        persist_workload_sidecar(&core.dir, &self.inner.workload, &self.inner.feedback);
        Ok(())
    }

    /// Incremental checkpoint (see `SharedCore::checkpoint_incremental`),
    /// after draining in-flight inserts. Pages copied vs skipped are
    /// counted in [`SharedDurableDb::io_stats`].
    pub fn checkpoint_incremental(&self) -> Result<()> {
        let mut core = self.lock_drained();
        core.checkpoint_incremental(&self.inner.wal, &self.inner.io)?;
        persist_workload_sidecar(&core.dir, &self.inner.workload, &self.inner.feedback);
        Ok(())
    }

    /// Live transactions (id, snapshot epoch, current write-set size),
    /// sorted by id — the rows of the `orion.txns` system table.
    pub fn active_txns(&self) -> Vec<ActiveTxnInfo> {
        let txns = self.inner.txns.lock();
        let mut rows: Vec<ActiveTxnInfo> = txns
            .iter()
            .map(|(&id, (epoch, writes))| ActiveTxnInfo {
                id,
                snapshot_epoch: *epoch,
                writes: writes.load(std::sync::atomic::Ordering::Relaxed),
            })
            .collect();
        rows.sort_by_key(|r| r.id);
        rows
    }

    /// Number of transactions committed through this handle since open.
    pub fn commit_seq(&self) -> u64 {
        self.inner.core.lock().commit_seq
    }

    /// Acquires the core lock with no insert in flight. Holding the lock
    /// keeps new inserts out of phase 1, so the WAL pipeline is drained
    /// for as long as the guard lives.
    pub(crate) fn lock_drained(&self) -> parking_lot::MutexGuard<'_, SharedCore> {
        let mut core = self.inner.core.lock();
        while core.in_flight > 0 {
            self.inner.drained.wait(&mut core);
        }
        core
    }

    /// What recovery did when the underlying database was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.inner.recovery
    }

    /// Group-commit counters (fsyncs, batches, fsyncs saved).
    pub fn wal_stats(&self) -> Arc<WalStats> {
        self.inner.wal.stats()
    }

    /// Checkpoint I/O counters (`ckpt_pages_copied` / `_skipped`).
    pub fn io_stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.inner.io)
    }

    /// The per-statement workload repository (shared with SQL sessions; the
    /// row source for `orion.statements` / `orion.slow_queries`).
    pub fn workload(&self) -> Arc<WorkloadRepo> {
        Arc::clone(&self.inner.workload)
    }

    /// The planner cardinality-feedback store (the row source for
    /// `orion.plan_feedback`).
    pub fn plan_feedback(&self) -> Arc<PlanFeedbackStore> {
        Arc::clone(&self.inner.feedback)
    }

    /// Current group-commit tunables.
    pub fn group_commit_config(&self) -> GroupCommitConfig {
        self.inner.wal.config()
    }

    /// Replaces the group-commit tunables (batching window, max batch
    /// bytes, enable/disable).
    pub fn set_group_commit_config(&self, cfg: GroupCommitConfig) {
        self.inner.wal.set_config(cfg);
    }

    /// Current WAL length in bytes.
    pub fn wal_len(&self) -> u64 {
        self.inner.wal.len()
    }

    /// Checkpoint epoch of the current snapshot chain.
    pub fn epoch(&self) -> u64 {
        self.inner.core.lock().epoch
    }

    /// Verifies structural invariants; see [`check_invariants`].
    pub fn check_invariants(&self) -> Result<()> {
        let core = self.inner.core.lock();
        check_invariants(&core.tables, &core.reg)
    }

    /// Recovery + size stats as JSON, for the observability exporters.
    pub fn stats_json(&self) -> String {
        let core = self.inner.core.lock();
        format!(
            "{{\"recovery\":{},\"wal_len\":{},\"epoch\":{},\"tables\":{},\"bases\":{},\"wal\":{},\"io\":{}}}",
            self.inner.recovery.to_json(),
            self.inner.wal.len(),
            core.epoch,
            core.tables.len(),
            core.reg.len(),
            self.inner.wal.stats().to_json().to_string_compact(),
            self.inner.io.snapshot().to_json().to_string_compact()
        )
    }

    /// Dumps the flight recorder's recent-span ring into this database's
    /// directory on demand (the same dump a panic or a halt-on-fault kill
    /// produces). Returns the written path, or `None` when the recorder is
    /// disabled.
    pub fn dump_flight(&self, reason: &str) -> Option<PathBuf> {
        if !orion_obs::recorder::enabled() {
            return None;
        }
        let dir = self.inner.core.lock().dir.clone();
        orion_obs::recorder::dump_to_dir(&dir, reason).ok()
    }

    /// Fault injection: the `nth` next WAL record fails its commit.
    #[cfg(feature = "failpoints")]
    pub fn inject_wal_append_failure(&self, nth: u32) {
        self.inner.wal.fail_nth_record(nth);
    }

    /// Fault injection: the next WAL fsync fails, aborting its whole
    /// batch.
    #[cfg(feature = "failpoints")]
    pub fn inject_wal_sync_failure(&self) {
        self.inner.wal.fail_next_sync();
    }
}

/// Verifies the structural invariants every recovered database must
/// satisfy, independent of where the crash happened:
///
/// 1. every tuple node's ancestors resolve in the registry;
/// 2. each base's reference count equals the number of nodes citing it;
/// 3. every node's joint mass lies in `[0, 1 + ε]`.
pub fn check_invariants(tables: &HashMap<String, Relation>, reg: &HistoryRegistry) -> Result<()> {
    let mut cited: HashMap<u64, usize> = HashMap::new();
    for (name, rel) in tables {
        for (i, t) in rel.tuples.iter().enumerate() {
            for n in &t.nodes {
                for &a in &n.ancestors {
                    if reg.base(a).is_err() {
                        return Err(EngineError::Corrupt(format!(
                            "{name}[{i}]: ancestor {a} does not resolve"
                        )));
                    }
                    *cited.entry(a).or_insert(0) += 1;
                }
                let m = n.mass();
                if !(0.0..=1.0 + 1e-9).contains(&m) {
                    return Err(EngineError::Corrupt(format!(
                        "{name}[{i}]: node mass {m} outside [0, 1]"
                    )));
                }
            }
        }
    }
    for (id, _) in reg.iter_bases() {
        let expect = cited.get(&id).copied().unwrap_or(0);
        if reg.ref_count(id) != expect {
            return Err(EngineError::Corrupt(format!(
                "base {id}: ref count {} but {expect} citing nodes",
                reg.ref_count(id)
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("orion_durable_test").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn schema() -> ProbSchema {
        ProbSchema::new(vec![("id", ColumnType::Int, false), ("v", ColumnType::Real, true)], vec![])
            .unwrap()
    }

    fn insert_n(db: &SharedDurableDb, from: i64, n: i64) {
        for i in from..from + n {
            db.insert_simple(
                "readings",
                &[("id", Value::Int(i))],
                &[("v", Pdf1::gaussian(i as f64, 1.0).unwrap())],
            )
            .unwrap();
        }
    }

    #[test]
    fn workload_sidecar_round_trips_across_checkpoint_and_reopen() {
        use orion_obs::workload::{ExecSample, WorkloadConfig};
        let dir = temp_dir("workload_sidecar");
        {
            let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
            db.create_table("readings", schema()).unwrap();
            insert_n(&db, 0, 2);
            let repo = db.workload();
            repo.set_config(WorkloadConfig { persist: true, ..WorkloadConfig::default() });
            repo.record(&ExecSample {
                fingerprint: 0x42,
                text: "SELECT id FROM readings WHERE v < ?".to_string(),
                nanos: 1_500,
                rows: 2,
                ..Default::default()
            });
            db.plan_feedback().observe("readings", "Scan", 10, 20);
            db.checkpoint().unwrap();
            assert!(dir.join(WORKLOAD_FILE).exists());
        }
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        let stats = db.workload().statements();
        assert_eq!(stats.len(), 1);
        assert_eq!((stats[0].fingerprint, stats[0].calls), (0x42, 1));
        let fb = db.plan_feedback().summaries();
        assert_eq!(fb.len(), 1);
        assert_eq!((fb[0].last_est, fb[0].last_actual), (10, 20));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workload_sidecar_not_written_without_persist_knob() {
        let dir = temp_dir("workload_sidecar_off");
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        db.create_table("readings", schema()).unwrap();
        db.checkpoint().unwrap();
        assert!(!dir.join(WORKLOAD_FILE).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inserts_survive_reopen_without_checkpoint() {
        let dir = temp_dir("wal_only");
        {
            let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
            db.create_table("readings", schema()).unwrap();
            insert_n(&db, 0, 3);
            assert!(db.wal_len() > 0);
        }
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        assert!(!db.recovery().snapshot_loaded);
        assert_eq!(db.with_tables(|t, _| t["readings"].len()), 3);
        db.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_wal_and_reopens_from_snapshot() {
        let dir = temp_dir("checkpoint");
        {
            let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
            db.create_table("readings", schema()).unwrap();
            insert_n(&db, 0, 2);
            db.checkpoint().unwrap();
            assert_eq!(db.wal_len(), 0);
            insert_n(&db, 2, 1);
        }
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        assert!(db.recovery().snapshot_loaded);
        assert_eq!(db.recovery().wal_records_replayed, 2, "one base + one tuple after ckpt");
        assert_eq!(db.with_tables(|t, _| t["readings"].len()), 3);
        db.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_between_snapshot_rename_and_wal_reset_discards_stale_wal() {
        // The checkpoint crash window: the new snapshot is renamed into
        // place but the process dies before the WAL reset truncates the
        // old log. Recovery must NOT replay that log over the snapshot —
        // doing so would duplicate every tuple and double-count refcounts.
        let dir = temp_dir("ckpt_window");
        {
            let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
            db.create_table("readings", schema()).unwrap();
            insert_n(&db, 0, 3);
            // First half of checkpoint(): snapshot written and renamed,
            // stamped with the next epoch. Then "crash" before wal.reset().
            let epoch = db.epoch() + 1;
            db.with_tables(|t, r| persist::save_snapshot(&dir.join(SNAPSHOT_FILE), t, r, epoch))
                .unwrap();
        }
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        assert!(db.recovery().snapshot_loaded);
        assert_eq!(db.recovery().wal_records_replayed, 0);
        assert!(db.recovery().stale_wal_records_discarded > 0, "stale WAL detected");
        assert_eq!(db.with_tables(|t, _| t["readings"].len()), 3, "no duplicated tuples");
        db.check_invariants().unwrap();
        assert_eq!(db.wal_len(), 0, "stale WAL emptied");
        // Second open finds nothing stale left.
        drop(db);
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        assert_eq!(db.recovery().stale_wal_records_discarded, 0);
        assert_eq!(db.with_tables(|t, _| t["readings"].len()), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_is_monotonic_across_checkpoints_and_reopens() {
        let dir = temp_dir("epochs");
        {
            let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
            assert_eq!(db.epoch(), 0);
            db.create_table("readings", schema()).unwrap();
            insert_n(&db, 0, 1);
            db.checkpoint().unwrap();
            assert_eq!(db.epoch(), 1);
            insert_n(&db, 1, 1);
            db.checkpoint().unwrap();
            assert_eq!(db.epoch(), 2);
            insert_n(&db, 2, 1);
        }
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        assert_eq!(db.epoch(), 2, "epoch survives reopen");
        assert_eq!(db.recovery().wal_records_replayed, 2, "post-checkpoint base + tuple");
        assert_eq!(db.with_tables(|t, _| t["readings"].len()), 3);
        db.check_invariants().unwrap();
        db.checkpoint().unwrap();
        assert_eq!(db.epoch(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_loses_only_the_uncommitted_insert() {
        let dir = temp_dir("torn");
        {
            let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
            db.create_table("readings", schema()).unwrap();
            insert_n(&db, 0, 2);
        }
        // Simulate a crash mid-append: chop bytes off the WAL tail.
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        assert!(db.recovery().wal_bytes_truncated > 0);
        assert_eq!(db.with_tables(|t, _| t["readings"].len()), 1, "torn insert rolled back");
        db.check_invariants().unwrap();
        // Second open is idempotent: nothing further to truncate.
        drop(db);
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        assert_eq!(db.recovery().wal_bytes_truncated, 0);
        assert_eq!(db.with_tables(|t, _| t["readings"].len()), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_json_is_grepable() {
        let dir = temp_dir("stats");
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        db.create_table("readings", schema()).unwrap();
        insert_n(&db, 0, 1);
        let s = db.stats_json();
        assert!(s.contains("\"wal_records_replayed\":0"));
        assert!(s.contains("\"snapshot_loaded\":false"));
        assert!(s.contains("\"bases\":1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incremental_checkpoint_folds_deltas_on_recovery() {
        let dir = temp_dir("incr_fold");
        {
            let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
            db.create_table("readings", schema()).unwrap();
            insert_n(&db, 0, 2);
            // First incremental falls back to full (no base yet).
            db.checkpoint_incremental().unwrap();
            assert_eq!(db.epoch(), 1);
            assert!(DeltaFile::list(&dir).unwrap().is_empty(), "first ckpt is full");
            insert_n(&db, 2, 2);
            db.checkpoint_incremental().unwrap();
            assert_eq!(db.epoch(), 2);
            assert_eq!(db.wal_len(), 0, "incremental ckpt resets the WAL");
            insert_n(&db, 4, 1);
            db.checkpoint_incremental().unwrap();
            assert_eq!(DeltaFile::list(&dir).unwrap().len(), 2, "one delta per incremental");
            let io = db.io_stats().snapshot();
            assert!(io.ckpt_pages_copied > 0);
            insert_n(&db, 5, 1); // tail insert riding only the WAL
        }
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        assert_eq!(db.recovery().deltas_folded, 2);
        assert_eq!(db.recovery().wal_records_replayed, 2, "base + tuple after last ckpt");
        assert_eq!(db.with_tables(|t, _| t["readings"].len()), 6);
        db.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incremental_checkpoint_skips_clean_pages() {
        let dir = temp_dir("incr_skip");
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        db.create_table("readings", schema()).unwrap();
        // Enough tuples to span several pages.
        insert_n(&db, 0, 400);
        db.checkpoint().unwrap();
        insert_n(&db, 400, 1);
        db.checkpoint_incremental().unwrap();
        let io = db.io_stats().snapshot();
        assert!(
            io.ckpt_pages_skipped > 0,
            "one small insert must not re-copy the whole heap: {io:?}"
        );
        assert!(io.ckpt_pages_copied < io.ckpt_pages_copied + io.ckpt_pages_skipped);
        // And the delta is much smaller than the base snapshot.
        let (_, delta_path) = DeltaFile::list(&dir).unwrap().pop().unwrap();
        let delta_len = std::fs::metadata(&delta_path).unwrap().len();
        let base_len = std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len();
        assert!(delta_len < base_len, "delta {delta_len} >= base {base_len}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incremental_checkpoint_is_noop_without_new_work() {
        let dir = temp_dir("incr_noop");
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        db.create_table("readings", schema()).unwrap();
        insert_n(&db, 0, 1);
        db.checkpoint().unwrap();
        let epoch = db.epoch();
        db.checkpoint_incremental().unwrap();
        assert_eq!(db.epoch(), epoch, "nothing new → no epoch bump");
        assert!(DeltaFile::list(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_checkpoint_subsumes_delta_chain() {
        let dir = temp_dir("full_subsumes");
        {
            let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
            db.create_table("readings", schema()).unwrap();
            insert_n(&db, 0, 1);
            db.checkpoint().unwrap();
            insert_n(&db, 1, 1);
            db.checkpoint_incremental().unwrap();
            insert_n(&db, 2, 1);
            db.checkpoint().unwrap();
            assert!(DeltaFile::list(&dir).unwrap().is_empty(), "full ckpt removes deltas");
        }
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        assert_eq!(db.recovery().deltas_folded, 0);
        assert_eq!(db.with_tables(|t, _| t["readings"].len()), 3);
        db.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn new_table_after_checkpoint_lands_in_next_delta() {
        let dir = temp_dir("incr_new_table");
        {
            let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
            db.create_table("readings", schema()).unwrap();
            insert_n(&db, 0, 1);
            db.checkpoint().unwrap();
            db.create_table("extra", schema()).unwrap();
            db.insert_simple("extra", &[("id", Value::Int(9))], &[("v", Pdf1::certain(9.0))])
                .unwrap();
            db.checkpoint_incremental().unwrap();
        }
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        assert_eq!(db.recovery().deltas_folded, 1);
        assert_eq!(db.with_tables(|t, _| t["extra"].len()), 1);
        assert_eq!(db.with_tables(|t, _| t["readings"].len()), 1);
        db.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_handle_round_trips_concurrent_inserts() {
        let dir = temp_dir("shared");
        let shared = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        shared.create_table("readings", schema()).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let s = shared.clone();
                std::thread::spawn(move || {
                    for i in 0..10 {
                        s.insert_simple(
                            "readings",
                            &[("id", Value::Int(t * 100 + i))],
                            &[("v", Pdf1::gaussian(i as f64, 1.0).unwrap())],
                        )
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in threads {
            h.join().unwrap();
        }
        shared.check_invariants().unwrap();
        shared.checkpoint_incremental().unwrap();
        assert_eq!(shared.with_tables(|t, _| t["readings"].len()), 40);
        drop(shared);
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        assert_eq!(db.with_tables(|t, _| t["readings"].len()), 40);
        db.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyzed_stats_survive_reopen_via_wal_replay() {
        let dir = temp_dir("stats_wal");
        let before;
        {
            let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
            db.create_table("readings", schema()).unwrap();
            insert_n(&db, 0, 5);
            db.analyze_table("readings").unwrap();
            before = db.stats_catalog().encode();
            assert!(!before.is_empty());
        }
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        assert_eq!(db.stats_catalog().encode(), before, "stats replayed bitwise-identically");
        assert_eq!(db.stats_catalog().get("readings").unwrap().rows, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyzed_stats_survive_full_and_incremental_checkpoints() {
        let dir = temp_dir("stats_ckpt");
        let before;
        {
            let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
            db.create_table("readings", schema()).unwrap();
            insert_n(&db, 0, 3);
            db.analyze_table("readings").unwrap();
            db.checkpoint().unwrap();
            assert_eq!(db.wal_len(), 0);
            // Re-analyze after more inserts; the new record rides a delta.
            insert_n(&db, 3, 2);
            db.analyze_table("readings").unwrap();
            db.checkpoint_incremental().unwrap();
            assert_eq!(db.wal_len(), 0);
            before = db.stats_catalog().encode();
        }
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        assert_eq!(db.recovery().wal_records_replayed, 0, "stats live in the chain");
        assert_eq!(db.stats_catalog().encode(), before);
        assert_eq!(db.stats_catalog().get("readings").unwrap().rows, 5, "delta overwrote base");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_larger_than_a_page_survive_full_and_incremental_checkpoints() {
        // 2000 uncertain rows give a stats record (cdf sketch included)
        // several pages long; both checkpoint writers must chunk it.
        let dir = temp_dir("stats_big");
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        db.create_table("readings", schema()).unwrap();
        let bulk = |from: i64, n: i64| {
            let mut txn = crate::txn::Txn::begin(&db);
            for i in from..from + n {
                let v = Pdf1::gaussian((i % 97) as f64, 1.0 + (i % 5) as f64).unwrap();
                txn.insert_simple("readings", &[("id", Value::Int(i))], &[("v", v)]).unwrap();
            }
            txn.commit().unwrap();
        };
        bulk(0, 2000);
        db.analyze_table("readings").unwrap();
        let mut rec = Vec::new();
        persist::encode_stats(db.stats_catalog().get("readings").unwrap(), &mut rec);
        assert!(rec.len() > orion_storage::MAX_RECORD, "stats record fits a page");
        db.checkpoint().unwrap();
        assert_eq!(db.wal_len(), 0);
        bulk(2000, 10);
        db.analyze_table("readings").unwrap();
        db.checkpoint_incremental().unwrap();
        assert_eq!(DeltaFile::list(&dir).unwrap().len(), 1, "stats rode a delta");
        let before = db.stats_catalog().encode();
        drop(db);
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        assert_eq!(db.recovery().wal_records_replayed, 0, "stats live in the chain");
        assert_eq!(db.stats_catalog().encode(), before, "bitwise-identical stats");
        assert_eq!(db.stats_catalog().get("readings").unwrap().rows, 2010);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reanalyze_alone_counts_as_checkpoint_work() {
        let dir = temp_dir("stats_new_work");
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        db.create_table("readings", schema()).unwrap();
        insert_n(&db, 0, 2);
        db.checkpoint().unwrap();
        let epoch = db.epoch();
        // No data change → no-op.
        db.checkpoint_incremental().unwrap();
        assert_eq!(db.epoch(), epoch);
        // ANALYZE with no data change is still new work: the catalog went
        // from empty to populated and must reach the chain.
        db.analyze_table("readings").unwrap();
        db.checkpoint_incremental().unwrap();
        assert_eq!(db.epoch(), epoch + 1, "stats change bumps the chain");
        let before = db.stats_catalog().encode();
        drop(db);
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        assert_eq!(db.recovery().wal_records_replayed, 0);
        assert_eq!(db.stats_catalog().encode(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_handle_analyzes_and_round_trips_stats() {
        let dir = temp_dir("stats_shared");
        let shared = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        shared.create_table("readings", schema()).unwrap();
        shared
            .insert_simple(
                "readings",
                &[("id", Value::Int(1))],
                &[("v", Pdf1::gaussian(1.0, 1.0).unwrap())],
            )
            .unwrap();
        shared.analyze_table("readings").unwrap();
        shared.checkpoint_incremental().unwrap();
        let before = shared.stats_catalog().encode();
        assert!(!before.is_empty());
        drop(shared);
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        assert_eq!(db.stats_catalog().encode(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_defs_survive_reopen_via_wal_replay() {
        let dir = temp_dir("index_wal");
        {
            let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
            db.create_table("readings", schema()).unwrap();
            insert_n(&db, 0, 3);
            db.create_index("ix_v", "readings", "v", None).unwrap();
            db.create_index("ix_id", "readings", "id", None).unwrap();
            // Kind is resolved by column certainty when not forced.
            let cat = db.indexes();
            let cat = cat.lock();
            assert_eq!(cat.get("ix_v").unwrap().kind, IndexKind::Cdf);
            assert_eq!(cat.get("ix_id").unwrap().kind, IndexKind::Evx);
        }
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        let handle = db.indexes();
        let cat = handle.lock();
        assert_eq!(cat.defs().count(), 2, "defs replayed from the WAL");
        assert_eq!(cat.get("ix_v").unwrap().column, "v");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_defs_survive_checkpoints_and_drop_forces_full() {
        let dir = temp_dir("index_ckpt");
        let encoded;
        {
            let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
            db.create_table("readings", schema()).unwrap();
            insert_n(&db, 0, 2);
            db.checkpoint().unwrap();
            // CREATE INDEX alone counts as incremental-checkpoint work.
            let epoch = db.epoch();
            db.create_index("ix_v", "readings", "v", None).unwrap();
            db.checkpoint_incremental().unwrap();
            assert_eq!(db.epoch(), epoch + 1, "index DDL bumps the chain");
            assert_eq!(db.wal_len(), 0);
            encoded = db.indexes().lock().encode();
        }
        {
            let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
            assert_eq!(db.recovery().wal_records_replayed, 0, "defs live in the chain");
            assert_eq!(db.indexes().lock().encode(), encoded, "bitwise-identical defs");
        }
        {
            // Dropping retracts the def durably even though the chain still
            // carries its create record: the drop rides the WAL, and the
            // next checkpoint is forced full.
            let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
            db.drop_index("ix_v").unwrap();
            db.checkpoint_incremental().unwrap();
            assert!(DeltaFile::list(&dir).unwrap().is_empty(), "drop forces a full ckpt");
        }
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        assert_eq!(db.indexes().lock().defs().count(), 0, "drop survived recovery");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_index_validates_before_logging() {
        let dir = temp_dir("index_validate");
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        db.create_table("readings", schema()).unwrap();
        assert!(db.create_index("ix", "nope", "v", None).is_err(), "unknown table");
        assert!(db.create_index("ix", "readings", "nope", None).is_err(), "unknown column");
        assert!(
            db.create_index("ix", "readings", "v", Some(IndexKind::Evx)).is_err(),
            "evx over uncertain column"
        );
        assert!(
            db.create_index("ix", "readings", "id", Some(IndexKind::Cdf)).is_err(),
            "cdf over certain column"
        );
        db.create_index("ix", "readings", "v", None).unwrap();
        assert!(db.create_index("ix", "readings", "id", None).is_err(), "duplicate name");
        assert!(db.drop_index("ghost").is_err(), "unknown index drop");
        assert!(db.wal_len() > 0);
        // None of the failed DDL reached the log: recovery sees one def.
        drop(db);
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        assert_eq!(db.indexes().lock().defs().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dml_bumps_index_staleness_epoch() {
        let dir = temp_dir("index_epoch");
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        db.create_table("readings", schema()).unwrap();
        insert_n(&db, 0, 1);
        // No index defined yet: inserts do not track epochs.
        assert_eq!(db.indexes().lock().epoch("readings"), 0);
        db.create_index("ix_v", "readings", "v", None).unwrap();
        insert_n(&db, 1, 2);
        assert_eq!(db.indexes().lock().epoch("readings"), 2, "one bump per insert");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invariant_checker_catches_dangling_ancestor() {
        let mut reg = HistoryRegistry::new();
        let mut rel = Relation::new("t", schema());
        rel.insert_simple(&mut reg, &[("id", Value::Int(1))], &[("v", Pdf1::certain(1.0))])
            .unwrap();
        let mut tables = HashMap::new();
        tables.insert("t".to_string(), rel);
        check_invariants(&tables, &reg).unwrap();
        // Forcibly remove the base the tuple references.
        let id = reg.iter_bases().map(|(id, _)| id).next().unwrap();
        reg.delete_base(id);
        // delete_base keeps referenced bases as phantoms — dependency is
        // still resolvable, so the invariant holds.
        check_invariants(&tables, &reg).unwrap();
    }
}
