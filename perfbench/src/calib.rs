//! Host-speed calibration.
//!
//! The benchmark shares its cores with other tenants, and their load moves
//! the host's speed by ±20–30% in phases of a few seconds, the same for
//! every statement class. A fixed kernel of the benchmark's own code (no
//! engine code, so no engine change can move it) runs between requests;
//! each timing is scaled by `REFERENCE_MS / kernel time` around it, so
//! reported times are what the host would show at its reference speed.
//! Unscaled values are kept in the report for comparison.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel time at the reference host speed: its typical time on a 2-core
/// Intel Xeon VM (the host the benchmark was defined on).
const REFERENCE_MS: f64 = 0.21;
/// Longest gap between two calibrations inside a timed phase.
const EVERY: Duration = Duration::from_millis(25);
/// Calibrations in a row before a one-off measurement.
const WINDOW: usize = 5;
/// A timing is scaled by the calibrations from this long before it
/// started to this long after it ended.
const MARGIN: Duration = Duration::from_millis(100);

pub struct HostSpeed {
    src: Vec<f64>,
    dst: Vec<f64>,
    idx: Vec<u32>,
    text: String,
    last_at: Instant,
    /// Every kernel time measured, in milliseconds, with when it ended.
    samples: Vec<(Instant, f64)>,
}

/// Kernel working set, in `f64`s: small enough to stay in the core's
/// caches, so the kernel's time does not depend on what the engine left
/// in them.
const KERNEL_WORDS: usize = 4096;

impl HostSpeed {
    fn new() -> HostSpeed {
        let mut rng = crate::common::Rng::new(7);
        let mut idx: Vec<u32> = (0..KERNEL_WORDS as u32).collect();
        rng.shuffle(&mut idx);
        let mut h = HostSpeed {
            src: (0..KERNEL_WORDS).map(|i| i as f64).collect(),
            dst: vec![0.0; KERNEL_WORDS],
            idx,
            text: String::with_capacity(16 * 1024),
            last_at: Instant::now(),
            samples: Vec::new(),
        };
        h.recalibrate();
        h
    }

    /// One pass of the kernel: gathers (memory access), float math (like
    /// pdf kernels) and number formatting and parsing (like SQL text).
    /// Allocates nothing.
    fn pass(&mut self) -> f64 {
        for (d, &i) in self.dst.iter_mut().zip(&self.idx) {
            *d = self.src[i as usize] * 1.000_1;
        }
        let mut acc = self.dst.iter().step_by(7).sum::<f64>();
        for i in 0..6000 {
            let x = black_box(i as f64 * 1e-3);
            acc += (-(x * x)).exp() * (1.0 + x).ln() / (1.0 + x.sqrt());
        }
        self.text.clear();
        for i in 0..300 {
            use std::fmt::Write;
            let _ = write!(self.text, "{:.4},", acc / (i + 1) as f64);
        }
        acc + self.text.split(',').filter_map(|s| s.parse::<f64>().ok()).sum::<f64>()
    }

    /// Kernel time: a warm-up pass refills the caches, the second pass is
    /// timed.
    fn kernel(&mut self) -> f64 {
        black_box(self.pass());
        let t = Instant::now();
        black_box(self.pass());
        t.elapsed().as_secs_f64() * 1e3
    }

    /// A fresh window of calibrations, for a measurement about to start.
    fn recalibrate(&mut self) {
        for _ in 0..WINDOW {
            self.calibrate();
        }
    }

    /// Measures the kernel now.
    fn calibrate(&mut self) {
        let ms = self.kernel();
        self.last_at = Instant::now();
        self.samples.push((self.last_at, ms));
    }

    fn tick(&mut self) {
        if self.last_at.elapsed() >= EVERY {
            self.calibrate();
        }
    }

    /// The median of the calibrations within [`MARGIN`] of `[start, end]`
    /// (at least the three nearest), as a factor.
    fn factor_between(&self, start: Instant, end: Instant) -> f64 {
        let lo = start.checked_sub(MARGIN).unwrap_or(start);
        let hi = end + MARGIN;
        let mut near: Vec<f64> =
            self.samples.iter().filter(|(t, _)| *t >= lo && *t <= hi).map(|(_, ms)| *ms).collect();
        if near.len() < 3 {
            let gap = |t: Instant| {
                if t < start {
                    start - t
                } else {
                    t.saturating_duration_since(end)
                }
            };
            let mut by_gap: Vec<&(Instant, f64)> = self.samples.iter().collect();
            by_gap.sort_by_key(|(t, _)| gap(*t));
            near = by_gap.iter().take(3).map(|(_, ms)| *ms).collect();
        }
        REFERENCE_MS / crate::stats::median(&near)
    }
}

thread_local! {
    static HOST: RefCell<Option<HostSpeed>> = const { RefCell::new(None) };
}

fn with<R>(f: impl FnOnce(&mut HostSpeed) -> R) -> R {
    HOST.with(|h| f(h.borrow_mut().get_or_insert_with(HostSpeed::new)))
}

/// Calibrates this thread when its last calibration is older than
/// [`EVERY`]; called between requests.
pub fn tick() {
    with(HostSpeed::tick);
}

/// A fresh window of calibrations on this thread, before a one-off
/// measurement such as a set-up or a reopen.
pub fn recalibrate() {
    with(HostSpeed::recalibrate);
}

/// What a time this thread measured from `start` to `end` is multiplied
/// by. Uses calibrations after `end` too, so call it once they ran.
pub fn factor_between(start: Instant, end: Instant) -> f64 {
    with(|h| h.factor_between(start, end))
}

/// Every kernel time this thread measured, in milliseconds.
pub fn kernel_samples() -> Vec<f64> {
    with(|h| h.samples.iter().map(|(_, ms)| *ms).collect())
}
