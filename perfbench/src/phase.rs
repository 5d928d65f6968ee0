//! The timed phase and the one-off timings around it: set-up repetitions,
//! the block clock and samples of the timed phase, and the recovery
//! measurement every workload ends with.

use crate::common::{self, copy_dir, dir_bytes, fingerprint, recover, WorkDir};
use crate::layers::{self, Spans};
use crate::report::{Outcomes, Report};
use crate::stats::{self, geomean, Samples};
use crate::{analytics, calib, Args};
use orion_sql::DurableSession;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A one-off time, scaled to the reference host speed and as measured.
#[derive(Clone, Copy)]
pub struct Timed {
    pub scaled: f64,
    pub raw: f64,
}

/// Times `f` between two fresh rounds of host-speed calibration, scaled by
/// them.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    calib::recalibrate();
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    calib::recalibrate();
    let raw = (end - start).as_secs_f64();
    (out, Timed { scaled: raw * calib::factor_between(start, end), raw })
}

/// Medians of a series of [`Timed`] values.
pub fn median_timed(xs: &[Timed]) -> Timed {
    let scaled: Vec<f64> = xs.iter().map(|t| t.scaled).collect();
    let raw: Vec<f64> = xs.iter().map(|t| t.raw).collect();
    Timed { scaled: stats::median(&scaled), raw: stats::median(&raw) }
}

/// Runs `setup` on fresh directories until it has run at least
/// `SETUP_MIN_REPS` times and `SETUP_MIN_SECS` in total; reports the median
/// and keeps the last state.
pub fn timed_setups<T>(
    work: &mut WorkDir,
    tag: &str,
    mut setup: impl FnMut(&Path) -> Result<T, String>,
) -> Result<(Timed, T, PathBuf), String> {
    const SETUP_MIN_REPS: usize = 5;
    const SETUP_MAX_REPS: usize = 60;
    const SETUP_MIN_SECS: f64 = 2.0;
    let mut times: Vec<Timed> = Vec::new();
    let mut kept: Option<(T, PathBuf)> = None;
    while times.len() < SETUP_MIN_REPS
        || (times.iter().map(|t| t.raw).sum::<f64>() < SETUP_MIN_SECS
            && times.len() < SETUP_MAX_REPS)
    {
        if let Some((old, dir)) = kept.take() {
            drop(old);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = work.fresh(tag);
        let (state, t) = timed(|| setup(&dir));
        times.push(t);
        kept = Some((state?, dir));
    }
    let (state, dir) = kept.expect("at least one setup");
    Ok((median_timed(&times), state, dir))
}

/// Length of one traced or untraced block of a traced run.
const BLOCK_SECS: f64 = 1.0;

/// The timed phase's clock and samples. An untraced run is one block; a
/// traced run alternates untraced and traced blocks of [`BLOCK_SECS`].
///
/// Latencies are kept scaled to the reference host speed (see
/// [`calib`]) and as measured. Throughput divides requests by busy time:
/// the scaled sum of request latencies for one client, or the scaled
/// episode time for concurrent clients.
pub struct Blocks {
    target: f64,
    trace: bool,
    /// Episodes of concurrent clients report their busy time themselves.
    concurrent: bool,
    traced_now: bool,
    block_start: Instant,
    /// `[untraced, traced]`: wall seconds, scaled busy seconds, requests.
    wall: [f64; 2],
    busy: [f64; 2],
    reqs: [u64; 2],
    block_reqs: u64,
    samples: [HashMap<&'static str, Samples>; 2],
    raw: HashMap<&'static str, Samples>,
    classes: Vec<&'static str>,
    pub spans: Spans,
    traced_reqs: Vec<(u64, &'static str)>,
    next_req: u64,
    pending: Vec<Req>,
}

/// How a request's time is scaled to the reference host speed.
pub enum Scale {
    /// By a factor its client thread already worked out.
    Factor(f64),
    /// By this thread's calibrations around the interval.
    Between(Instant, Instant),
}

struct Req {
    /// 0 untraced, 1 traced.
    mode: usize,
    class: &'static str,
    raw_ms: f64,
    scale: Scale,
}

impl Blocks {
    pub fn new(args: &Args, classes: &[&'static str], concurrent: bool) -> Blocks {
        let empty = || classes.iter().map(|c| (*c, Samples::default())).collect();
        Blocks {
            target: args.seconds,
            trace: args.trace,
            concurrent,
            traced_now: false,
            block_start: Instant::now(),
            wall: [0.0; 2],
            busy: [0.0; 2],
            reqs: [0; 2],
            block_reqs: 0,
            samples: [empty(), empty()],
            raw: empty(),
            classes: classes.to_vec(),
            spans: Spans::new(),
            traced_reqs: Vec::new(),
            next_req: 0,
            pending: Vec::new(),
        }
    }

    /// Called between request cycles of one client: closes the block when
    /// it is long enough and reports whether the measured time is used up.
    pub fn done(&mut self) -> bool {
        let el = self.block_start.elapsed().as_secs_f64();
        if self.measured() + el >= self.target || (self.trace && el >= BLOCK_SECS) {
            self.close_block(el, 0.0);
        }
        self.measured() >= self.target
    }

    /// Ends the current block after `wall` seconds; concurrent episodes
    /// pass their scaled busy time too.
    pub fn close_block(&mut self, wall: f64, busy: f64) {
        let m = self.traced_now as usize;
        self.wall[m] += wall;
        self.busy[m] += busy;
        self.reqs[m] += self.block_reqs;
        self.block_reqs = 0;
        if self.trace {
            self.traced_now = !self.traced_now;
        }
        self.block_start = Instant::now();
    }

    pub fn measured(&self) -> f64 {
        self.wall[0] + self.wall[1]
    }

    pub fn traced_now(&self) -> bool {
        self.traced_now
    }

    /// Records one request of this thread that took `raw_ms` and ended
    /// about now; returns its id. Its host-speed factor is worked out in
    /// [`Blocks::finish`], once the calibrations after it have run.
    pub fn record(&mut self, class: &'static str, raw_ms: f64) -> u64 {
        self.next_req += 1;
        let id = self.next_req;
        let end = Instant::now();
        let start = end.checked_sub(Duration::from_secs_f64(raw_ms / 1e3)).unwrap_or(end);
        self.record_id(id, class, raw_ms, Scale::Between(start, end));
        id
    }

    /// Records a request measured `raw_ms`.
    pub fn record_id(&mut self, id: u64, class: &'static str, raw_ms: f64, scale: Scale) {
        let mode = self.traced_now as usize;
        self.pending.push(Req { mode, class, raw_ms, scale });
        self.block_reqs += 1;
        if self.traced_now {
            self.traced_reqs.push((id, class));
        }
    }

    /// Scales every recorded request and files it by mode and class.
    fn settle(&mut self) {
        for r in self.pending.drain(..) {
            let factor = match r.scale {
                Scale::Factor(f) => f,
                Scale::Between(start, end) => calib::factor_between(start, end),
            };
            let ms = r.raw_ms * factor;
            self.samples[r.mode].get_mut(r.class).expect("known class").push(ms);
            if r.mode == 0 {
                self.raw.get_mut(r.class).expect("known class").push(r.raw_ms);
            }
            if !self.concurrent {
                self.busy[r.mode] += ms / 1e3;
            }
        }
    }

    /// The span store, when the current block is traced.
    pub fn tracing(&mut self) -> Option<&mut Spans> {
        self.traced_now.then_some(&mut self.spans)
    }

    /// Scaled latencies of the untraced blocks.
    pub fn untraced_samples(&mut self) -> &HashMap<&'static str, Samples> {
        self.settle();
        &self.samples[0]
    }

    /// Scaled busy seconds of the untraced blocks.
    pub fn untraced_busy(&self) -> f64 {
        self.busy[0]
    }

    /// Fills the end-to-end metrics every workload reports (and their
    /// unscaled forms) and, in a traced run, the span metrics, coverage
    /// and tracing overhead. `fastest` names the class the snapshot copy
    /// is compared against.
    ///
    /// `latency_p50_ms` is the geometric mean of the class medians, so
    /// every class counts alike however fast it is. `latency_p95_ms`, the
    /// 95th percentile over all requests, is reported but not gated: with
    /// ~30 samples of its slowest class per run, its spread on
    /// `prob_analytics` is too wide for the largest bound allowed.
    pub fn finish(
        &mut self,
        report: &mut Report,
        setup: Timed,
        outcomes: Outcomes,
        fastest: &str,
    ) -> Result<(), String> {
        self.settle();
        let s = &self.samples[0];
        let p50 = |set: &HashMap<&'static str, Samples>| {
            geomean(&self.classes.iter().map(|c| set[c].p50()).collect::<Vec<_>>())
        };
        let p95 = |set: &HashMap<&'static str, Samples>| {
            let mut all = Samples::default();
            for c in &self.classes {
                all.extend(&set[c]);
            }
            all.pct(0.95)
        };
        report.e2e.put("setup_s", setup.scaled, "s");
        report.e2e.put("ops_per_s", self.reqs[0] as f64 / self.busy[0], "1/s");
        report.e2e.put("latency_p50_ms", p50(s), "ms");
        report.detail.put("latency_p95_ms", p95(s), "ms");
        report.raw.put("setup_s", setup.raw, "s");
        report.raw.put("ops_per_s", self.reqs[0] as f64 / self.wall[0], "1/s");
        report.raw.put("latency_p50_ms", p50(&self.raw), "ms");
        report.raw.put("latency_p95_ms", p95(&self.raw), "ms");
        report.detail.put("failed_share", outcomes.failed_share(), "ratio");
        report.fastest_p50_ms = s[fastest].p50();
        report.outcomes.merge(outcomes);
        report.setting("measured_s", format!("{:.3}", self.measured()));
        if !self.trace {
            return Ok(());
        }
        let workload = report
            .settings
            .iter()
            .find(|(k, _)| k == "workload")
            .map_or("run", |(_, v)| v.as_str());
        let seed =
            report.settings.iter().find(|(k, _)| k == "seed").map_or("0", |(_, v)| v.as_str());
        let path = Path::new(".perfbench_out").join(format!("spans-{workload}-{seed}.json"));
        self.spans.write_chrome(&path)?;
        report.setting("spans_file", path.display());
        layers::span_metrics(&self.spans, &mut report.layer);
        // Coverage compares unscaled span times with unscaled latencies.
        let per_req = self.spans.req_ms();
        let (mut covered, mut base) = (0.0, 0.0);
        let mut by_class: HashMap<&str, (f64, f64)> = HashMap::new();
        for (id, class) in &self.traced_reqs {
            let spans_ms = per_req.get(id).copied().unwrap_or(0.0);
            let p50 = self.raw[class].p50();
            covered += spans_ms;
            base += p50;
            let e = by_class.entry(class).or_default();
            e.0 += spans_ms;
            e.1 += p50;
        }
        for c in &self.classes {
            if let Some((cov, b)) = by_class.get(c) {
                report.coverage.put(format!("span_coverage.{c}"), cov / b, "ratio");
            }
        }
        let untraced = self.reqs[0] as f64 / self.wall[0];
        let traced = self.reqs[1] as f64 / self.wall[1];
        report.layer.put("trace.span_coverage", covered / base, "ratio");
        report.layer.put("trace.overhead_ratio", untraced / traced, "ratio");
        report.coverage.put("untraced_ops_per_s_unscaled", untraced, "1/s");
        report.coverage.put("traced_ops_per_s_unscaled", traced, "1/s");
        Ok(())
    }
}

/// Single-row inserts appended after the timed phase, so the recovered
/// WAL tail is the same for every run and workload, whatever the run's
/// throughput.
const RECOVERY_TAIL_INSERTS: usize = 100;

/// Prepares the directory every workload's recovery is measured on: an
/// incremental checkpoint of the final state (when `checkpoint`), then a
/// fixed tail of inserts. Closes the session, reopens fresh copies, and
/// records `recovery_s`, `disk_bytes_per_row` and the storage layer
/// metrics. In a traced run the layer panel then runs on one more copy.
pub fn finish_recovery(
    args: &Args,
    work: &mut WorkDir,
    mut session: DurableSession,
    dir: &Path,
    checkpoint: bool,
    report: &mut Report,
) -> Result<(), String> {
    let db = session.db().clone();
    let io = db.io_stats();
    let copied0 = io.snapshot().ckpt_pages_copied;
    let t = Instant::now();
    if checkpoint {
        db.checkpoint_incremental().map_err(|e| format!("checkpoint: {e}"))?;
    }
    let ckpt_ms = common::ms_since(t);
    if report.layer.get("storage.ckpt_ms").is_none() {
        report.layer.put("storage.ckpt_ms", ckpt_ms, "ms");
        report.layer.put(
            "storage.ckpt_pages_copied",
            (io.snapshot().ckpt_pages_copied - copied0) as f64,
            "count",
        );
    }
    let wal0 = db.wal_len();
    let wal_stats = db.wal_stats();
    let (commits0, fsyncs0) = (wal_stats.group_commit_commits.get(), wal_stats.fsyncs.get());
    let mut gen = common::Sensors::new(args.seed ^ 0x7461_696c);
    for i in 0..RECOVERY_TAIL_INSERTS {
        let r = gen.reading(9_000_000 + i as i64);
        common::exec(&mut session, &format!("INSERT INTO readings VALUES {}", r.row_sql()))?;
    }
    if report.layer.get("storage.commits_per_fsync").is_none() {
        let commits = wal_stats.group_commit_commits.get() - commits0;
        let fsyncs = wal_stats.fsyncs.get() - fsyncs0;
        report.layer.put(
            "storage.commits_per_fsync",
            commits as f64 / fsyncs.max(1) as f64,
            "ratio",
        );
    }
    if report.layer.get("storage.wal_bytes_per_row").is_none() {
        report.layer.put(
            "storage.wal_bytes_per_row",
            (db.wal_len() - wal0) as f64 / RECOVERY_TAIL_INSERTS as f64,
            "B/row",
        );
    }
    let expect = fingerprint(&db);
    drop(db);
    drop(session);
    report.e2e.put("disk_bytes_per_row", dir_bytes(dir) as f64 / expect.0.max(1) as f64, "B/row");
    let rec = recover(dir, work, expect, 10, 2.0)?;
    report.passed(format!(
        "{} reopened copies match the closed state ({} rows, fingerprint {:016x})",
        rec.reps, expect.0, expect.1
    ));
    report.e2e.put("recovery_s", rec.median.scaled, "s");
    report.raw.put("recovery_s", rec.median.raw, "s");
    report.layer.put("storage.recovery_records", rec.report.wal_records_replayed as f64, "count");
    report.layer.put("storage.deltas_folded", rec.report.deltas_folded as f64, "count");
    if args.trace {
        let copy = work.fresh("panel");
        copy_dir(dir, &copy)?;
        let mut s = DurableSession::open(&copy).map_err(|e| e.to_string())?;
        analytics::panel(&mut s, args.seed, report)?;
        let copy = report.layer.get("core.snapshot_copy_ms").unwrap_or(f64::NAN);
        report.layer.put("core.snapshot_share", copy / report.fastest_p50_ms, "ratio");
    }
    Ok(())
}
