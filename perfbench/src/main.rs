//! Orion-RS benchmark: three workloads through the durable SQL session.
//!
//! ```text
//! perfbench --workload keyed_oltp|prob_analytics|concurrent_ingest
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! (`DETAIL {...}`) carries the settings, checks, failures, the workload's
//! own statement-class metrics and the end-to-end times as measured. A
//! failed correctness check prints `"correct": false` and exits with 1.
//!
//! End-to-end times are scaled to a reference host speed (see [`calib`]):
//! the shared host's speed drifts by ±20–30% over seconds, which no run
//! length this benchmark can afford averages out. Per-layer times are as
//! measured.

mod analytics;
mod calib;
mod common;
mod ingest;
mod layers;
mod oltp;
mod phase;
mod report;
mod stats;

use common::WorkDir;
use report::{Metrics, Outcomes, Report, J};
use std::path::Path;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|_| format!("bad --seed {val}"))?,
            "--seconds" => seconds = val.parse().map_err(|_| format!("bad --seconds {val}"))?,
            "--trace" => trace = val == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range (0, 120]"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Order of the end-to-end metrics in `BENCHMARK.json`.
const E2E: [&str; 6] =
    ["setup_s", "ops_per_s", "latency_p50_ms", "peak_rss_mb", "recovery_s", "disk_bytes_per_row"];

/// Per-layer metrics in `BENCHMARK.json`, besides the per-class ones of
/// [`layers::PANEL_CLASSES`].
const PER_LAYER: [&str; 19] = [
    "sql.parse_us",
    "obs.record_us",
    "core.txn_begin_ms",
    "core.txn_commit_ms",
    "core.txn_commit_empty_ms",
    "core.snapshot_copy_ms",
    "core.snapshot_share",
    "pindex.build_ms",
    "pdf.cdf_ns",
    "pdf.floor_expect_us",
    "pdf.join_pair_us",
    "storage.commits_per_fsync",
    "storage.wal_bytes_per_row",
    "storage.ckpt_ms",
    "storage.ckpt_pages_copied",
    "storage.recovery_records",
    "storage.deltas_folded",
    "trace.span_coverage",
    "trace.overhead_ratio",
];

/// Per-class metric families measured by the layer panel.
const PER_CLASS: [&str; 8] = [
    "core.exec_ms",
    "core.session_overhead_ratio",
    "core.rows_examined_per_row",
    "core.pdf_products",
    "core.pdf_floors",
    "core.collapses",
    "core.index_probes",
    "core.index_pruned",
];

/// Every per-layer metric name, in `BENCHMARK.json` order.
fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = PER_LAYER.iter().map(|n| n.to_string()).collect();
    for family in PER_CLASS {
        for class in layers::PANEL_CLASSES {
            names.push(format!("{family}.{class}"));
        }
    }
    names
}

/// `wanted` metrics of `from`, in order; an unmeasured one is an error.
fn select(from: &Metrics, wanted: &[String]) -> Result<Metrics, String> {
    let mut out = Metrics::default();
    for name in wanted {
        let m = from
            .0
            .iter()
            .find(|m| &m.name == name)
            .ok_or(format!("metric {name} was not measured"))?;
        out.put(name.clone(), m.value, m.unit);
    }
    Ok(out)
}

fn print_metrics(title: &str, m: &Metrics) {
    if m.0.is_empty() {
        return;
    }
    println!("{title}:");
    for x in &m.0 {
        println!("  {:<42} {:>14.4} {}", x.name, x.value, x.unit);
    }
}

fn result_line(correct: bool, o: &Outcomes, metrics: J) -> String {
    J::obj()
        .with("correct", J::Bool(correct))
        .with("attempted", J::Int(o.attempted.max(1)))
        .with("failed", J::Int(o.failed))
        .with("metrics", metrics)
        .render()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Settings the workloads are defined with: one executor thread, and
    // every other engine knob at its default.
    std::env::set_var("ORION_THREADS", "1");
    for knob in [
        "ORION_STATEMENTS",
        "ORION_TRACE",
        "ORION_MODE",
        "ORION_PLANNER",
        "ORION_SLOW_MS",
        "ORION_SLOW_SAMPLE",
    ] {
        std::env::remove_var(knob);
    }
    let mut report = Report::default();
    let result = WorkDir::new(&args.workload, args.seed).and_then(|mut work| {
        common::provenance(&mut report, args.seed, &work.root);
        report.setting("workload", &args.workload);
        report.setting("trace", args.trace as u8);
        match args.workload.as_str() {
            "keyed_oltp" => oltp::run(&args, &mut work, &mut report),
            "prob_analytics" => analytics::run(&args, &mut work, &mut report),
            "concurrent_ingest" => ingest::run(&args, &mut work, &mut report),
            w => Err(format!("unknown workload '{w}'")),
        }
    });
    report.e2e.put("peak_rss_mb", common::peak_rss_mb(), "MiB");
    let kernel = calib::kernel_samples();
    report.setting(
        "host_kernel_ms",
        format!(
            "median {:.4}, p10 {:.4}, p90 {:.4} over {} calibrations",
            stats::median(&kernel),
            stats::percentile(&kernel, 0.1),
            stats::percentile(&kernel, 0.9),
            kernel.len()
        ),
    );
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        if e.starts_with("check:") {
            println!("{}", result_line(false, &report.outcomes, J::obj()));
        }
        std::process::exit(1);
    }
    for (k, v) in &report.settings {
        println!("{k}: {v}");
    }
    for c in &report.checks {
        println!("check passed: {c}");
    }
    for e in &report.outcomes.errors {
        println!("failure: {e}");
    }
    let e2e_names: Vec<String> = E2E.iter().map(|n| n.to_string()).collect();
    let selected = select(&report.e2e, &e2e_names).and_then(|e2e| {
        let layer = if args.trace {
            select(&report.layer, &per_layer_names())?
        } else {
            Metrics::default()
        };
        Ok((e2e, layer))
    });
    let (e2e, layer) = match selected {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    print_metrics("end-to-end (times at reference host speed)", &e2e);
    print_metrics("end-to-end times as measured", &report.raw);
    print_metrics(&format!("{} statement classes", args.workload), &report.detail);
    print_metrics("per-layer", &layer);
    print_metrics("span coverage and tracing overhead", &report.coverage);
    let detail = J::obj()
        .with("workload", J::Str(args.workload.clone()))
        .with(
            "settings",
            J::Obj(report.settings.iter().map(|(k, v)| (k.clone(), J::Str(v.clone()))).collect()),
        )
        .with("checks", J::Arr(report.checks.iter().map(|c| J::Str(c.clone())).collect()))
        .with(
            "failures",
            J::Arr(report.outcomes.errors.iter().map(|c| J::Str(c.clone())).collect()),
        )
        .with("end_to_end", e2e.to_json())
        .with("end_to_end_unscaled", report.raw.to_json())
        .with("classes", report.detail.to_json())
        .with("per_layer", layer.to_json())
        .with("coverage", report.coverage.to_json())
        .render();
    let out_dir = Path::new(".perfbench_out");
    let _ = std::fs::create_dir_all(out_dir);
    let _ = std::fs::write(
        out_dir.join(format!("{}-{}-trace{}.json", args.workload, args.seed, args.trace as u8)),
        &detail,
    );
    println!("DETAIL {detail}");
    let metrics = if args.trace { layer.to_json() } else { e2e.to_json() };
    println!("{}", result_line(true, &report.outcomes, metrics));
}
