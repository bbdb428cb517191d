//! Wall-clock hot-path benchmarks (`BENCH_wall_*.json`).
//!
//! Unlike the figure harnesses, which report *virtual* time from the
//! link and device models, this module times the host process itself:
//! real requests/sec and p50/p99 latency through the two layers the
//! compiled-execution PR rebuilt —
//!
//! * the `clc` VM, per engine (reference interpreter vs the compiled
//!   closure engine, serial and parallel), on the five paper kernels
//!   with real inputs; every engine must produce byte-identical
//!   buffers, so each row carries an output digest and
//!   [`vm_rows`] fails on divergence;
//! * the wire path, per framing strategy (the historic copy-per-chunk
//!   path vs pooled zero-copy segmentation/reassembly) at small and
//!   bulk payload sizes.
//!
//! The `wall` binary renders both tables and writes them as
//! `BENCH_wall_vm.json` / `BENCH_wall_wire.json`; the nightly
//! `wall-bench` CI job uploads those and gates the compiled engine at
//! ≥ 2× the interpreter across the paper kernels.

use std::time::Instant;

use haocl_clc::vm::{run_ndrange_with_engine, ArgValue, EngineKind, GlobalBuffer, NdRange};
use haocl_clc::{compile, CompiledProgram};
use haocl_net::frame::{
    encode_frame, encode_frame_pooled, segment, segment_pooled, FrameAssembler,
};
use haocl_net::pool::{BufferPool, PooledBytes};

/// Wall-clock latency distribution over one measured loop.
#[derive(Debug, Clone, Copy)]
pub struct LatencyStats {
    /// Requests measured.
    pub requests: u64,
    /// Total wall time across all requests, nanoseconds.
    pub total_nanos: u64,
    /// Median per-request latency, nanoseconds.
    pub p50_nanos: u64,
    /// 99th-percentile per-request latency, nanoseconds.
    pub p99_nanos: u64,
}

impl LatencyStats {
    /// Collapses raw per-request samples into the distribution.
    fn from_samples(mut samples: Vec<u64>) -> Self {
        assert!(!samples.is_empty(), "no samples measured");
        let total: u64 = samples.iter().sum();
        samples.sort_unstable();
        let pct = |p: f64| {
            let idx = ((samples.len() - 1) as f64 * p).round() as usize;
            samples[idx]
        };
        LatencyStats {
            requests: samples.len() as u64,
            total_nanos: total.max(1),
            p50_nanos: pct(0.50),
            p99_nanos: pct(0.99),
        }
    }

    /// Sustained throughput over the measured loop.
    pub fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / (self.total_nanos as f64 / 1e9)
    }
}

/// One (kernel, engine) measurement of the VM layer.
#[derive(Debug, Clone)]
pub struct VmRow {
    /// Paper benchmark the kernel comes from.
    pub app: &'static str,
    /// `"interp"`, `"compiled-serial"` or `"compiled"`.
    pub engine: &'static str,
    /// Launch latency distribution.
    pub stats: LatencyStats,
    /// FNV-1a digest over every buffer after the measured loop. All
    /// engines must agree — [`vm_rows`] enforces it.
    pub digest: u64,
}

/// The engines every kernel is measured under, reference first.
const ENGINES: [(&str, EngineKind); 3] = [
    ("interp", EngineKind::Interp),
    ("compiled-serial", EngineKind::CompiledSerial),
    ("compiled", EngineKind::Compiled),
];

/// One prepared paper-kernel launch: compiled program, bound arguments
/// and initial buffer contents (reset before every engine's loop so
/// each engine sees identical inputs).
struct Launch {
    app: &'static str,
    program: CompiledProgram,
    kernel: &'static str,
    args: Vec<ArgValue>,
    buffers: Vec<GlobalBuffer>,
    range: NdRange,
}

/// Deterministic pseudo-random stream (SplitMix64) for input data; the
/// bench must not depend on a seeded RNG crate.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn f32s(&mut self, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| (self.next() % 1000) as f32 / 100.0 + 0.5)
            .collect()
    }
}

/// Builds the five measured launches with real, deterministic inputs.
///
/// # Panics
///
/// Panics if a paper kernel stops compiling (the lint-corpus suite
/// pins that too).
fn paper_launches() -> Vec<Launch> {
    let mut rng = Mix(42);
    let mut out = Vec::new();

    // MatrixMul: dense 48x48 — the inner k-loop dominates, which is
    // where closure fusion pays.
    let n = 48usize;
    out.push(Launch {
        app: "MatrixMul",
        program: compile(haocl_workloads::matmul::KERNEL_SOURCE).expect("matmul compiles"),
        kernel: haocl_workloads::matmul::KERNEL_NAME,
        args: vec![
            ArgValue::global(0),
            ArgValue::global(1),
            ArgValue::global(2),
            ArgValue::from_i32(n as i32),
            ArgValue::from_i32(n as i32),
        ],
        buffers: vec![
            GlobalBuffer::from_f32(&rng.f32s(n * n)),
            GlobalBuffer::from_f32(&rng.f32s(n * n)),
            GlobalBuffer::zeroed(4 * n * n),
        ],
        range: NdRange::d2([n as u64, n as u64], [8, 8]),
    });

    // SpMV: 2048 rows, 8 nonzeros per row, CSR.
    let rows = 2048usize;
    let nnz_per_row = 8usize;
    let nnz = rows * nnz_per_row;
    let row_ptr: Vec<i32> = (0..=rows).map(|r| (r * nnz_per_row) as i32).collect();
    let cols: Vec<i32> = (0..nnz)
        .map(|_| (rng.next() % rows as u64) as i32)
        .collect();
    out.push(Launch {
        app: "SpMV",
        program: compile(haocl_workloads::spmv::KERNEL_SOURCE).expect("spmv compiles"),
        kernel: haocl_workloads::spmv::KERNEL_NAME,
        args: vec![
            ArgValue::global(0),
            ArgValue::global(1),
            ArgValue::global(2),
            ArgValue::global(3),
            ArgValue::global(4),
            ArgValue::from_i32(rows as i32),
        ],
        buffers: vec![
            GlobalBuffer::from_i32(&row_ptr),
            GlobalBuffer::from_i32(&cols),
            GlobalBuffer::from_f32(&rng.f32s(nnz)),
            GlobalBuffer::from_f32(&rng.f32s(rows)),
            GlobalBuffer::zeroed(4 * rows),
        ],
        range: NdRange::linear(rows as u64, 64),
    });

    // BFS apply: 4096 scattered depth updates.
    let count = 4096usize;
    let mut updates = Vec::with_capacity(2 * count);
    for t in 0..count as i32 {
        updates.push(t);
        updates.push((rng.next() % 32) as i32);
    }
    out.push(Launch {
        app: "BFS",
        program: compile(haocl_workloads::bfs::KERNEL_SOURCE).expect("bfs compiles"),
        kernel: haocl_workloads::bfs::APPLY_KERNEL_NAME,
        args: vec![
            ArgValue::global(0),
            ArgValue::global(1),
            ArgValue::from_i32(count as i32),
        ],
        buffers: vec![
            GlobalBuffer::from_i32(&vec![-1; count]),
            GlobalBuffer::from_i32(&updates),
        ],
        range: NdRange::linear(count as u64, 64),
    });

    // KNN distance pass: 4096 records against one query.
    let records = 4096usize;
    out.push(Launch {
        app: "KNN",
        program: compile(haocl_workloads::knn::KERNEL_SOURCE).expect("knn compiles"),
        kernel: haocl_workloads::knn::DIST_KERNEL_NAME,
        args: vec![
            ArgValue::global(0),
            ArgValue::global(1),
            ArgValue::global(2),
            ArgValue::from_f32(3.25),
            ArgValue::from_f32(7.5),
            ArgValue::from_i32(records as i32),
        ],
        buffers: vec![
            GlobalBuffer::from_f32(&rng.f32s(records)),
            GlobalBuffer::from_f32(&rng.f32s(records)),
            GlobalBuffer::zeroed(4 * records),
        ],
        range: NdRange::linear(records as u64, 64),
    });

    // CFD flux: 1024 cells, 4 neighbours each, 5 conserved variables.
    let cells = 1024usize;
    let neigh: Vec<i32> = (0..4 * cells)
        .map(|_| (rng.next() % cells as u64) as i32)
        .collect();
    out.push(Launch {
        app: "CFD",
        program: compile(haocl_workloads::cfd::KERNEL_SOURCE).expect("cfd compiles"),
        kernel: haocl_workloads::cfd::KERNEL_NAME,
        args: vec![
            ArgValue::global(0),
            ArgValue::global(1),
            ArgValue::global(2),
            ArgValue::from_i32(cells as i32),
            ArgValue::from_i32(0),
            ArgValue::from_i32(cells as i32),
        ],
        buffers: vec![
            GlobalBuffer::from_f32(&rng.f32s(5 * cells)),
            GlobalBuffer::from_i32(&neigh),
            GlobalBuffer::zeroed(4 * 5 * cells),
        ],
        range: NdRange::linear(cells as u64, 64),
    });

    out
}

/// Measures every paper kernel under every engine: `iters` timed
/// launches each, after one untimed warm-up launch.
///
/// # Errors
///
/// Returns a description of the first launch failure or cross-engine
/// output divergence (both are bugs, not measurement noise).
pub fn vm_rows(iters: usize) -> Result<Vec<VmRow>, String> {
    let mut out = Vec::new();
    for launch in paper_launches() {
        let kernel = launch
            .program
            .kernel(launch.kernel)
            .expect("paper kernel present");
        // Interleave the engines round-robin so slow machine-load
        // drift lands on every engine equally instead of biasing
        // whichever engine ran its block last.
        let mut buffers: Vec<_> = ENGINES.iter().map(|_| launch.buffers.clone()).collect();
        let mut samples: Vec<Vec<u64>> =
            ENGINES.iter().map(|_| Vec::with_capacity(iters)).collect();
        for (e, (name, engine)) in ENGINES.into_iter().enumerate() {
            run_ndrange_with_engine(kernel, &launch.args, &mut buffers[e], &launch.range, engine)
                .map_err(|err| format!("{} warm-up on {name}: {err}", launch.app))?;
        }
        for _ in 0..iters {
            for (e, (name, engine)) in ENGINES.into_iter().enumerate() {
                let t0 = Instant::now();
                run_ndrange_with_engine(
                    kernel,
                    &launch.args,
                    &mut buffers[e],
                    &launch.range,
                    engine,
                )
                .map_err(|err| format!("{} on {name}: {err}", launch.app))?;
                samples[e].push(t0.elapsed().as_nanos() as u64);
            }
        }
        let reference = buffers_digest(&buffers[0]);
        for (e, (name, _)) in ENGINES.into_iter().enumerate() {
            let digest = buffers_digest(&buffers[e]);
            if digest != reference {
                return Err(format!(
                    "{}: engine {name} produced digest {digest:#018x}, \
                     interpreter produced {reference:#018x}",
                    launch.app
                ));
            }
            out.push(VmRow {
                app: launch.app,
                engine: name,
                stats: LatencyStats::from_samples(samples[e].clone()),
                digest,
            });
        }
    }
    Ok(out)
}

/// Ratio of interpreter to compiled median launch latency, per app.
/// This is the nightly gate's input: the compiled engine must clear
/// `>= 2.0` on summed medians across the paper kernels. Medians, not
/// totals — one scheduler hiccup inside one launch must not move the
/// gate.
pub fn speedups(rows: &[VmRow]) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let apps: Vec<&'static str> = {
        let mut seen = Vec::new();
        for r in rows {
            if !seen.contains(&r.app) {
                seen.push(r.app);
            }
        }
        seen
    };
    for app in apps {
        let time = |engine: &str| {
            rows.iter()
                .find(|r| r.app == app && r.engine == engine)
                .map(|r| r.stats.p50_nanos as f64)
        };
        if let (Some(interp), Some(compiled)) = (time("interp"), time("compiled")) {
            out.push((app, interp / compiled));
        }
    }
    out
}

/// One (payload size, framing strategy) measurement of the wire layer.
#[derive(Debug, Clone)]
pub struct WireRow {
    /// `"small"` (256 B) or `"bulk"` (64 KiB).
    pub payload: &'static str,
    /// Payload bytes per request.
    pub payload_bytes: usize,
    /// `"copy"` (historic per-chunk copies) or `"pooled"` (zero-copy).
    pub path: &'static str,
    /// Frame round-trip (encode → segment → reassemble) distribution.
    pub stats: LatencyStats,
    /// FNV-1a digest of the last reassembled frame (copy and pooled
    /// must agree per payload size).
    pub digest: u64,
}

/// Measures encode → MTU segmentation → reassembly round trips through
/// both framing strategies at a small and a bulk payload size.
pub fn wire_rows(iters: usize) -> Vec<WireRow> {
    let mut out = Vec::new();
    for (payload, payload_bytes) in [("small", 256usize), ("bulk", 64 * 1024)] {
        let mut rng = Mix(7);
        let body: Vec<u8> = (0..payload_bytes).map(|_| rng.next() as u8).collect();

        // Historic path: every frame is a fresh Vec, every chunk and
        // every reassembled frame a copy.
        let mut asm = FrameAssembler::new();
        let mut samples = Vec::with_capacity(iters);
        let mut digest = 0;
        for _ in 0..iters {
            let t0 = Instant::now();
            let frame = encode_frame(&body);
            let mut frames = Vec::new();
            for chunk in segment(&frame) {
                frames.extend(asm.push(chunk).expect("clean stream"));
            }
            samples.push(t0.elapsed().as_nanos() as u64);
            digest = fnv1a(&frames[0]);
        }
        out.push(WireRow {
            payload,
            payload_bytes,
            path: "copy",
            stats: LatencyStats::from_samples(samples),
            digest,
        });

        // Pooled path: one recycled allocation per frame, chunks and
        // completed frames are views of it.
        let pool = BufferPool::new();
        let mut asm = FrameAssembler::new();
        let mut samples = Vec::with_capacity(iters);
        let mut pooled_digest = 0;
        for _ in 0..iters {
            let t0 = Instant::now();
            let frame = encode_frame_pooled(&pool, |v| v.extend_from_slice(&body));
            let mut frames: Vec<PooledBytes> = Vec::new();
            for chunk in segment_pooled(&frame) {
                frames.extend(asm.push_pooled(&chunk).expect("clean stream"));
            }
            samples.push(t0.elapsed().as_nanos() as u64);
            pooled_digest = fnv1a(&frames[0]);
            drop(frames);
            drop(frame);
        }
        assert_eq!(
            digest, pooled_digest,
            "{payload}: pooled reassembly diverged from the copying path"
        );
        out.push(WireRow {
            payload,
            payload_bytes,
            path: "pooled",
            stats: LatencyStats::from_samples(samples),
            digest: pooled_digest,
        });
    }
    out
}

/// FNV-1a over the concatenated buffer bytes (same parameters as the
/// ablation digests).
fn buffers_digest(buffers: &[GlobalBuffer]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for buf in buffers {
        for &b in buf.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_rows_cover_every_engine_and_agree_on_outputs() {
        // vm_rows itself fails on digest divergence; this pins coverage.
        let rows = vm_rows(2).expect("wall VM bench runs clean");
        assert_eq!(rows.len(), 5 * ENGINES.len());
        for (name, _) in ENGINES {
            assert_eq!(rows.iter().filter(|r| r.engine == name).count(), 5);
        }
        for r in &rows {
            assert!(r.stats.requests_per_sec() > 0.0);
            assert!(r.stats.p50_nanos <= r.stats.p99_nanos);
        }
    }

    #[test]
    fn compiled_engine_clears_2x_over_interpreter() {
        // The PR's acceptance bar, gated in-tree at a small iteration
        // count and re-checked nightly at bench scale. Summed medians
        // over the five paper kernels so one scheduler hiccup on a
        // short kernel cannot flake the gate. The strict bar only
        // means something on optimized code: under `cargo test` in a
        // debug profile both engines run unoptimized and the compiled
        // engine's inlined fast paths don't exist, so there the test
        // only pins that the bench machinery produces a sane ratio.
        let rows =
            vm_rows(if cfg!(debug_assertions) { 4 } else { 8 }).expect("wall VM bench runs clean");
        let sum = |engine: &str| -> u64 {
            rows.iter()
                .filter(|r| r.engine == engine)
                .map(|r| r.stats.p50_nanos)
                .sum()
        };
        let interp = sum("interp");
        let compiled = sum("compiled");
        let speedup = interp as f64 / compiled as f64;
        let bar = if cfg!(debug_assertions) { 0.5 } else { 2.0 };
        assert!(
            speedup >= bar,
            "compiled engine speedup {speedup:.2}x across paper kernels \
             (interp {interp} ns vs compiled {compiled} ns median sums) \
             is below the {bar}x bar"
        );
    }

    #[test]
    fn wire_paths_agree_and_report_sane_stats() {
        let rows = wire_rows(16);
        assert_eq!(rows.len(), 4);
        for size in ["small", "bulk"] {
            let find = |path: &str| {
                rows.iter()
                    .find(|r| r.payload == size && r.path == path)
                    .unwrap()
            };
            assert_eq!(find("copy").digest, find("pooled").digest);
        }
    }
}
