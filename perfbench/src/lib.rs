//! Wall-clock benchmark of HaoCL, end to end and per layer.
//!
//! One process, one closed-loop client thread. [`run_e2e`] measures a
//! workload with tracing off and yields the end-to-end metrics;
//! [`layers::run_traced`] is the separate traced run that times the
//! calls into each layer's public functions from this crate's code and
//! yields the per-layer metrics. `README.md` beside this crate lists
//! every metric, its unit and which end-to-end metric it should move.

pub mod fixture;
pub mod layers;
pub mod stats;

use std::time::{Duration, Instant};

use fixture::{Fixture, Tally, Workload};
use haocl::Platform;
use stats::{median, quantile, quiet, rss_bytes, steal_ticks, Metric};

/// Set-ups per run, spread over the segments; `setup_s` is the median
/// of the quiet ones ([`quiet`]).
pub const SETUP_REPS: usize = 64;

/// Untimed ops before each segment's timed loop (caches, lowering,
/// pools).
const WARMUP: Duration = Duration::from_millis(250);

/// Fresh set-ups the timed loop is spread over.
pub const SEGMENTS: usize = 8;

/// One window's figures.
struct Window {
    /// Steal ticks the VM lost to its host during the window.
    stolen: u64,
    ops_per_s: f64,
    p50: f64,
}

/// Shortest window. Steal is counted in 10 ms ticks (summed over the
/// CPUs), so a window in a stretch where the host takes a large share
/// of the CPUs almost always sees a tick, and a window that sees none
/// fell in a lull.
const WINDOW: Duration = Duration::from_millis(25);

/// Ops per cycle of the workload. A window is a whole number of cycles,
/// so every window holds the same mix of launches, and samples at the
/// same position in the cycle come from the same kernel.
fn cycle(workload: Workload) -> usize {
    match workload {
        // One round of the five paper kernels.
        Workload::PaperKernels => 5,
        _ => 1,
    }
}

/// A window's median latency: each kernel's median, averaged over the
/// kernels of the cycle, so each kernel weighs the same.
fn window_p50(samples: &[u64], cycle: usize) -> f64 {
    let meds: Vec<f64> = (0..cycle.min(samples.len()))
        .map(|k| {
            let mut v: Vec<u64> = samples.iter().skip(k).step_by(cycle).copied().collect();
            quantile(&mut v, 0.5) as f64
        })
        .collect();
    meds.iter().sum::<f64>() / meds.len() as f64
}

/// Cumulative `haocl_fabric_{bytes,frames}_total` from the platform's
/// metrics text.
pub fn fabric_counters(platform: &Platform) -> (u64, u64) {
    let text = platform.render_metrics();
    let sum = |name: &str| -> u64 {
        text.lines()
            .filter(|l| l.starts_with(name))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
            .sum()
    };
    (
        sum(haocl_obs::names::FABRIC_BYTES),
        sum(haocl_obs::names::FABRIC_FRAMES),
    )
}

/// Sets the workload up `reps` times and keeps the last fixture, with
/// its oracle computed. Returns it with each set-up's steal ticks and
/// time in seconds.
///
/// # Errors
///
/// Set-up or oracle failures, as text.
pub fn setup(
    workload: Workload,
    seed: u64,
    reps: usize,
) -> Result<(Fixture, Vec<(u64, f64)>), String> {
    setup_with(workload, seed, reps, None)
}

/// [`setup`], taking the oracle digests from `oracle` when an earlier
/// set-up with the same seed computed them.
fn setup_with(
    workload: Workload,
    seed: u64,
    reps: usize,
    oracle: Option<&[u64]>,
) -> Result<(Fixture, Vec<(u64, f64)>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        let stolen = steal_ticks();
        let t0 = Instant::now();
        let fx = Fixture::new(workload, seed).map_err(|e| format!("set-up: {e}"))?;
        let secs = t0.elapsed().as_secs_f64();
        times.push((steal_ticks() - stolen, secs));
        // The previous fixture shuts its cluster down here, untimed.
        kept = Some(fx);
    }
    let mut fx = kept.expect("at least one set-up");
    match oracle {
        Some(digests) => fx.set_oracle(digests),
        None => fx.compute_oracle()?,
    }
    Ok((fx, times))
}

/// The end-to-end measurement of one workload, tracing off.
#[derive(Debug, Clone)]
pub struct E2e {
    /// Median set-up seconds (quiet set-ups).
    pub setup_s: f64,
    /// Median op latency, microseconds (median over quiet windows).
    pub p50_us: f64,
    /// 99th-percentile op latency over all samples, microseconds.
    pub p99_us: f64,
    /// Latency samples over all windows.
    pub samples: usize,
    /// Completed ops per wall second (median over quiet windows).
    pub ops_per_s: f64,
    /// Share of windows that counted as quiet.
    pub quiet_frac: f64,
    /// Virtual milliseconds per op.
    pub virtual_ms_per_op: f64,
    /// (errors + sheds + wrong outputs) / attempted.
    pub failed_frac: f64,
    /// RSS growth after warm-up, per op.
    pub retained_bytes_per_op: f64,
    /// Counts over the timed loop.
    pub tally: Tally,
    /// First error seen, if any.
    pub first_error: Option<String>,
}

impl E2e {
    /// The end-to-end metrics `BENCHMARK.json` gates, in its order.
    pub fn gated(&self) -> Vec<Metric> {
        vec![
            Metric {
                name: "setup_s",
                unit: "s",
                value: self.setup_s,
            },
            Metric {
                name: "latency_p50_us",
                unit: "us",
                value: self.p50_us,
            },
            Metric {
                name: "ops_per_s",
                unit: "1/s",
                value: self.ops_per_s,
            },
        ]
    }

    /// Every end-to-end metric, gated or not.
    pub fn all(&self) -> Vec<Metric> {
        let mut out = self.gated();
        out.extend([
            Metric {
                name: "latency_p99_us",
                unit: "us",
                value: self.p99_us,
            },
            Metric {
                name: "latency_samples",
                unit: "count",
                value: self.samples as f64,
            },
            Metric {
                name: "virtual_ms_per_op",
                unit: "virt_ms",
                value: self.virtual_ms_per_op,
            },
            Metric {
                name: "failed_frac",
                unit: "ratio",
                value: self.failed_frac,
            },
            Metric {
                name: "retained_bytes_per_op",
                unit: "B",
                value: self.retained_bytes_per_op,
            },
            Metric {
                name: "quiet_window_frac",
                unit: "ratio",
                value: self.quiet_frac,
            },
        ]);
        out
    }
}

/// Runs `workload` for `seconds` of timed closed-loop ops, tracing off.
///
/// The timed loop is split over [`SEGMENTS`] fresh set-ups (each its own
/// cluster and threads), so one unlucky thread placement weighs one
/// segment, not the run. Each segment is cut into short windows of whole
/// op cycles ([`cycle`]); latency and throughput are medians over
/// the windows in which the VM lost the least time to its host
/// ([`quiet`]), so a slow stretch of the shared host moves a
/// share of the windows, not the result.
///
/// # Errors
///
/// Set-up failures, as text. Op failures are counted, not returned.
pub fn run_e2e(workload: Workload, seed: u64, seconds: f64) -> Result<E2e, String> {
    let cycle = cycle(workload);
    let segment = Duration::from_secs_f64(seconds / SEGMENTS as f64);
    let mut setups = Vec::new();
    let mut windows: Vec<Window> = Vec::new();
    let mut lat = Vec::new();
    let mut tally = Tally::default();
    let mut warm = Tally::default();
    let (mut virt, mut retained) = (0u64, 0u64);
    let mut first_error = None;
    let mut oracle = None;
    for _ in 0..SEGMENTS {
        let (mut fx, times) = setup_with(workload, seed, SETUP_REPS / SEGMENTS, oracle.as_deref())?;
        oracle = Some(fx.oracle());
        setups.extend(times);
        let t0 = Instant::now();
        while t0.elapsed() < WARMUP {
            fx.run_op(&mut Vec::new(), &mut warm);
        }
        let rss0 = rss_bytes();
        let virt0 = fx.platform.now().as_nanos();
        let t0 = Instant::now();
        while t0.elapsed() < segment {
            let start = lat.len();
            let stolen = steal_ticks();
            let tw = Instant::now();
            while tw.elapsed() < WINDOW {
                for _ in 0..cycle {
                    fx.run_op(&mut lat, &mut tally);
                }
            }
            let secs = tw.elapsed().as_secs_f64();
            let stolen = steal_ticks() - stolen;
            let samples = &lat[start..];
            if samples.is_empty() {
                continue;
            }
            windows.push(Window {
                stolen,
                ops_per_s: samples.len() as f64 / secs,
                p50: window_p50(samples, cycle),
            });
        }
        virt += fx.platform.now().as_nanos() - virt0;
        retained += rss_bytes().saturating_sub(rss0);
        first_error = first_error.or(fx.first_error.take());
    }
    if windows.is_empty() {
        return Err(format!(
            "no op completed: {}",
            first_error.unwrap_or_default()
        ));
    }
    let ops = tally.ops.max(1) as f64;
    let quiet_of = |f: fn(&Window) -> f64| {
        quiet(&windows.iter().map(|w| (w.stolen, f(w))).collect::<Vec<_>>())
    };
    let p50s = quiet_of(|w| w.p50);
    let p99 = quantile(&mut lat, 0.99) as f64;
    Ok(E2e {
        setup_s: median(&quiet(&setups)),
        p50_us: median(&p50s) / 1e3,
        p99_us: p99 / 1e3,
        samples: lat.len(),
        ops_per_s: median(&quiet_of(|w| w.ops_per_s)),
        quiet_frac: p50s.len() as f64 / windows.len() as f64,
        virtual_ms_per_op: virt as f64 / 1e6 / ops,
        failed_frac: (tally.errors + tally.wrong + tally.sheds) as f64
            / tally.attempted().max(1) as f64,
        retained_bytes_per_op: retained as f64 / ops,
        first_error: first_error.or(warm_error(&warm)),
        tally,
    })
}

fn warm_error(warm: &Tally) -> Option<String> {
    (warm.failed() > 0).then(|| format!("{} failed ops during warm-up", warm.failed()))
}

/// What must repeat exactly between two runs with one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repeat {
    /// Digest over every output read.
    pub digest: u64,
    /// Fabric bytes over the ops.
    pub fabric_bytes: u64,
    /// Fabric frames over the ops.
    pub fabric_frames: u64,
    /// Admission sheds over the ops.
    pub sheds: u64,
    /// Failed ops (must be zero).
    pub failed: u64,
}

/// Runs `ops` ops of `workload` from a fresh set-up and returns what
/// must repeat exactly, plus the virtual nanoseconds they took (which
/// may differ: the observation-ordered clock is not always exact).
///
/// # Errors
///
/// Set-up failures, as text.
pub fn repeat_run(workload: Workload, seed: u64, ops: usize) -> Result<(Repeat, u64), String> {
    let (mut fx, _) = setup(workload, seed, 1)?;
    let (bytes0, frames0) = fabric_counters(&fx.platform);
    let virt0 = fx.platform.now().as_nanos();
    let mut lat = Vec::new();
    let mut tally = Tally::default();
    for _ in 0..ops {
        fx.run_op(&mut lat, &mut tally);
    }
    let virt = fx.platform.now().as_nanos() - virt0;
    let (bytes, frames) = fabric_counters(&fx.platform);
    Ok((
        Repeat {
            digest: tally.digest,
            fabric_bytes: bytes - bytes0,
            fabric_frames: frames - frames0,
            sheds: tally.sheds,
            failed: tally.failed(),
        },
        virt,
    ))
}
