//! Shared plumbing: seeded inputs, data directories, SQL helpers, state
//! fingerprints, recovery timing and provenance.

use crate::phase::{median_timed, timed, Timed};
use crate::report::Report;
use orion_core::prelude::{GroupCommitConfig, RecoveryReport, SharedDurableDb};
use orion_sql::{DurableSession, Output};
use orion_workload::SensorWorkload;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// SplitMix64: the benchmark's own statement-mix generator, so the mix
/// does not depend on the program's generator crates.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Uniform index in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// `n` values in `[0, 1)`, one in each of `n` equal strata, in seeded
/// order (a one-dimensional Latin hypercube).
pub fn stratified(rng: &mut Rng, n: usize) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n).map(|i| (i as f64 + rng.range(0.0, 1.0)) / n as f64).collect();
    rng.shuffle(&mut v);
    v
}

/// The standard normal quantile function (Acklam's rational
/// approximation, relative error below 1.2e-9).
pub fn normal_quantile(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e1,
        2.209460984245205e2,
        -2.759285104469687e2,
        1.38357751867269e2,
        -3.066479806614716e1,
        2.506628277459239,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e1,
        1.615858368580409e2,
        -1.556989798598866e2,
        6.680131188771972e1,
        -1.328068155288572e1,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-3,
        -3.223964580411365e-1,
        -2.400758277161838,
        -2.549732539343734,
        4.374664141464968,
        2.938163982698783,
    ];
    const D: [f64; 4] =
        [7.784695709041462e-3, 3.224671290700398e-1, 2.445134137142996, 3.754408661907416];
    let p = p.clamp(1e-12, 1.0 - 1e-12);
    let tail = |q: f64| {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    if p < 0.02425 {
        tail((-2.0 * p.ln()).sqrt())
    } else if p > 1.0 - 0.02425 {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

/// A reading as the benchmark writes it: parameters rounded to 4 decimals
/// so the SQL text, the stored pdf and the expected `EXPECTED(...)` output
/// agree exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub rid: i64,
    pub mean: f64,
    pub var: f64,
}

fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

impl Reading {
    pub fn pdf_sql(&self) -> String {
        format!("GAUSSIAN({:.4}, {:.4})", self.mean, self.var)
    }

    pub fn row_sql(&self) -> String {
        format!("({}, {})", self.rid, self.pdf_sql())
    }

    /// What `EXPECTED(value)` prints for this reading.
    pub fn expected_text(&self) -> String {
        format!("{:.6}", self.mean)
    }
}

/// The paper's sensor generator (means ~U(0,100), sd ~N(2,0.5)) with rids
/// reassigned by the caller.
pub struct Sensors(SensorWorkload);

impl Sensors {
    pub fn new(seed: u64) -> Sensors {
        Sensors(SensorWorkload::new(seed))
    }

    pub fn reading(&mut self, rid: i64) -> Reading {
        let r = self.0.reading();
        Reading { rid, mean: round4(r.mean), var: round4(r.sd * r.sd).max(1e-4) }
    }

    /// A range: midpoint ~U(0,100), length ~N(10,3).
    pub fn range(&mut self) -> (f64, f64) {
        let q = self.0.range_query();
        (round4(q.lo), round4(q.hi))
    }
}

/// `INSERT` statements of at most `batch` rows each.
pub fn insert_sql(table: &str, rows: &[Reading], batch: usize) -> Vec<String> {
    rows.chunks(batch)
        .map(|c| {
            let vals: Vec<String> = c.iter().map(Reading::row_sql).collect();
            format!("INSERT INTO {table} VALUES {}", vals.join(", "))
        })
        .collect()
}

/// Executes one statement, turning errors into text.
pub fn exec(s: &mut DurableSession, sql: &str) -> Result<Output, String> {
    s.execute(sql).map_err(|e| format!("{sql:.120}: {e}"))
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The run's work directory inside the checkout, removed on drop.
pub struct WorkDir {
    pub root: PathBuf,
    n: u32,
}

impl WorkDir {
    pub fn new(workload: &str, seed: u64) -> Result<WorkDir, String> {
        let root = std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(".perfbench_data")
            .join(format!("{workload}-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        Ok(WorkDir { root, n: 0 })
    }

    /// A fresh, not yet existing directory path.
    pub fn fresh(&mut self, tag: &str) -> PathBuf {
        self.n += 1;
        self.root.join(format!("{tag}-{}", self.n))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Only succeeds when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

pub fn copy_dir(src: &Path, dst: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dst).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(src).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let to = dst.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a, for content fingerprints.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Row count and content fingerprint of every table: the sorted debug
/// forms of all tuples (values, pdfs and history ancestors).
pub fn fingerprint(db: &SharedDurableDb) -> (usize, u64) {
    db.with_tables(|tables, _| {
        let mut names: Vec<&String> = tables.keys().collect();
        names.sort();
        let mut h = Fnv::new();
        let mut rows = 0;
        for name in names {
            let mut lines: Vec<String> =
                tables[name].tuples.iter().map(|t| format!("{t:?}")).collect();
            lines.sort();
            rows += lines.len();
            h.bytes(name.as_bytes());
            for l in &lines {
                h.bytes(l.as_bytes());
            }
        }
        (rows, h.finish())
    })
}

/// Canonical text of a query result, for equality against a reference.
pub fn result_text(out: &Output) -> String {
    match out {
        Output::Rows { header, rows } => {
            let mut lines: Vec<String> = rows.iter().map(|r| r.join("|")).collect();
            lines.sort();
            format!("{}\n{}", header.join("|"), lines.join("\n"))
        }
        Output::Table(rel) => {
            let cols = rel.schema.columns();
            let mut lines: Vec<String> = (0..rel.len())
                .map(|ti| {
                    let t = &rel.tuples[ti];
                    let mut cells: Vec<String> = cols
                        .iter()
                        .map(|c| {
                            if c.uncertain {
                                rel.marginal(ti, &c.name).map_or_else(
                                    |e| e.to_string(),
                                    |p| format!("{p} E={:?}", p.expected_value()),
                                )
                            } else {
                                format!(
                                    "{:?}",
                                    t.certain[rel.schema.index_of(&c.name).expect("col")]
                                )
                            }
                        })
                        .collect();
                    cells.push(format!("{:?}", t.naive_existence()));
                    cells.join("|")
                })
                .collect();
            lines.sort();
            lines.join("\n")
        }
        Output::Count(n) => format!("count {n}"),
        _ => "other".to_string(),
    }
}

/// Rows of a `Rows` or `Table` output.
pub fn row_count(out: &Output) -> usize {
    match out {
        Output::Rows { rows, .. } => rows.len(),
        Output::Table(rel) => rel.len(),
        Output::Count(n) => *n,
        _ => 0,
    }
}

/// Recovery of a closed directory, timed from outside.
pub struct Recovery {
    pub median: Timed,
    pub reps: usize,
    pub report: RecoveryReport,
}

/// Reopens fresh copies of `dir` until at least `min_reps` reopens and
/// `min_secs` of reopening have run; each recovered state must match the
/// `expect`ed row count and fingerprint.
pub fn recover(
    dir: &Path,
    work: &mut WorkDir,
    expect: (usize, u64),
    min_reps: usize,
    min_secs: f64,
) -> Result<Recovery, String> {
    const MAX_REPS: usize = 200;
    let mut times: Vec<Timed> = Vec::new();
    let mut report = None;
    while times.len() < MAX_REPS
        && (times.len() < min_reps || times.iter().map(|t| t.raw).sum::<f64>() < min_secs)
    {
        let copy = work.fresh("recover");
        copy_dir(dir, &copy)?;
        let (db, t) = timed(|| SharedDurableDb::open(&copy, GroupCommitConfig::default()));
        let db = db.map_err(|e| format!("reopen {}: {e}", copy.display()))?;
        let got = fingerprint(&db);
        if got != expect {
            return Err(format!(
                "check: recovered state differs: {} rows / {:016x}, expected {} rows / {:016x}",
                got.0, got.1, expect.0, expect.1
            ));
        }
        report = Some(db.recovery().clone());
        drop(db);
        let _ = std::fs::remove_dir_all(&copy);
        times.push(t);
    }
    Ok(Recovery {
        median: median_timed(&times),
        reps: times.len(),
        report: report.expect("one reopen"),
    })
}

/// Settings and provenance every result carries.
pub fn provenance(r: &mut Report, seed: u64, data_dir: &Path) {
    r.setting("seed", seed);
    r.setting("revision", revision());
    r.setting(
        "nproc",
        std::thread::available_parallelism().map_or_else(|e| e.to_string(), |n| n.to_string()),
    );
    r.setting(
        "cgroup_cpu_max",
        std::fs::read_to_string("/sys/fs/cgroup/cpu.max")
            .map_or_else(|_| "absent".to_string(), |s| s.trim().to_string()),
    );
    r.setting("data_dir_fs", filesystem_of(data_dir));
    for knob in ["ORION_THREADS", "ORION_STATEMENTS", "ORION_TRACE", "ORION_MODE", "ORION_PLANNER"]
    {
        r.setting(knob, std::env::var(knob).unwrap_or_else(|_| "unset".into()));
    }
    r.setting("workload_repository", "on (engine default)");
    r.setting("group_commit", format!("{:?}", GroupCommitConfig::default()));
    r.setting("fsync", "on");
    r.setting("clients", "closed loop");
}

/// Git revision when run from a git checkout (reads only `.git` in the
/// current directory), else a fingerprint of the sources that were built.
fn revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    if let Some(r) = head.strip_prefix("ref: ") {
        if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(r)) {
            return format!("git {}", id.trim());
        }
    } else if !head.is_empty() {
        return format!("git {head}");
    }
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    files.push(PathBuf::from("Cargo.lock"));
    files.sort();
    let mut h = Fnv::new();
    for f in &files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("sources fnv {:016x} ({} files)", h.finish(), files.len())
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for e in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// Filesystem type of the mount holding `dir`, from `/proc/self/mounts`.
fn filesystem_of(dir: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let dir = dir.to_string_lossy();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() > 2 && dir.starts_with(f[1]))
                .then(|| (f[1].len(), format!("{} on {}", f[2], f[1])))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, s)| s)
}
