//! Parallel work-group execution must be unobservable.
//!
//! The compiled engine fans independent work-groups out over OS threads
//! only when the effect prover shows group order cannot matter, so a
//! forced multi-threaded run (`HAOCL_VM_THREADS`, since CI machines may
//! report a single core) has to produce byte-identical buffers and
//! identical [`ExecStats`] to the sequential driver — every run, every
//! interleaving. Through the full platform stack, which always runs the
//! compiled engine, the output bytes match the reference interpreter run
//! through `run_ndrange_with_engine`, and the recorded span tree repeats
//! exactly: virtual times, parents, names and attributes are all
//! deterministic, with the single exception of the `wall_nanos`
//! wall-clock annotation, which is stripped before comparing.

use haocl::kernel::Kernel;
use haocl::{Buffer, CommandQueue, Context, DeviceType, MemFlags, Platform, Program};
use haocl_clc::compile;
use haocl_clc::vm::{
    parallel_groups_safe, run_ndrange_with_engine, ArgValue, EngineKind, GlobalBuffer, NdRange,
};
use haocl_cluster::ClusterConfig;
use haocl_kernel::KernelRegistry;
use haocl_obs::Span;

const SCALE_SRC: &str = r#"
    __kernel void scale(__global float* y, float a, int n) {
        int i = get_global_id(0);
        if (i < n) y[i] = y[i] * a + 1.5f;
    }
"#;

/// Forces the worker pool on for this process (the machine may report a
/// single core, which would silently take the sequential fallback).
fn force_threads() {
    std::env::set_var("HAOCL_VM_THREADS", "4");
}

#[test]
fn forced_parallel_runs_are_byte_identical_to_sequential() {
    force_threads();
    let program = compile(SCALE_SRC).expect("scale compiles");
    let kernel = program.kernel("scale").expect("scale exists");
    let args = [
        ArgValue::global(0),
        ArgValue::from_f32(1.75),
        ArgValue::from_i32(4096),
    ];
    let range = NdRange::linear(4096, 64);
    assert!(
        parallel_groups_safe(kernel, &args, &range),
        "scale must be admissible for parallel groups, or this test exercises nothing"
    );

    let data: Vec<f32> = (0..4096).map(|i| i as f32 * 0.25 - 100.0).collect();
    let mut serial = vec![GlobalBuffer::from_f32(&data)];
    let serial_stats = run_ndrange_with_engine(
        kernel,
        &args,
        &mut serial,
        &range,
        EngineKind::CompiledSerial,
    )
    .expect("serial run succeeds");

    // Repeat the parallel run: thread interleaving varies, bytes must not.
    for attempt in 0..8 {
        let mut parallel = vec![GlobalBuffer::from_f32(&data)];
        let parallel_stats =
            run_ndrange_with_engine(kernel, &args, &mut parallel, &range, EngineKind::Compiled)
                .unwrap_or_else(|e| panic!("parallel attempt {attempt} failed: {e}"));
        assert_eq!(parallel_stats, serial_stats, "attempt {attempt}: stats");
        assert_eq!(
            parallel[0].as_bytes(),
            serial[0].as_bytes(),
            "attempt {attempt}: output bytes diverged from the sequential driver"
        );
    }
}

#[test]
fn inadmissible_kernels_fall_back_and_still_match() {
    force_threads();
    // A scatter through an index buffer is not provably group-private,
    // so the parallel gate must refuse it and the compiled engine must
    // take the sequential path — same bytes as the serial driver.
    let src = r#"
        __kernel void scatter(__global int* out, __global const int* idx, int n) {
            int i = get_global_id(0);
            if (i < n) out[idx[i] % n] = i;
        }
    "#;
    let program = compile(src).expect("scatter compiles");
    let kernel = program.kernel("scatter").expect("scatter exists");
    let n = 2048i32;
    let args = [
        ArgValue::global(0),
        ArgValue::global(1),
        ArgValue::from_i32(n),
    ];
    let range = NdRange::linear(n as u64, 64);
    assert!(
        !parallel_groups_safe(kernel, &args, &range),
        "scatter must be rejected by the parallel gate"
    );
    let idx: Vec<i32> = (0..n).map(|i| (i * 7 + 3) % n).collect();
    let mut serial = vec![
        GlobalBuffer::zeroed(4 * n as usize),
        GlobalBuffer::from_i32(&idx),
    ];
    let serial_stats = run_ndrange_with_engine(
        kernel,
        &args,
        &mut serial,
        &range,
        EngineKind::CompiledSerial,
    )
    .expect("serial run succeeds");
    let mut fallback = vec![
        GlobalBuffer::zeroed(4 * n as usize),
        GlobalBuffer::from_i32(&idx),
    ];
    let fallback_stats =
        run_ndrange_with_engine(kernel, &args, &mut fallback, &range, EngineKind::Compiled)
            .expect("compiled run succeeds");
    assert_eq!(fallback_stats, serial_stats);
    assert_eq!(fallback[0].as_bytes(), serial[0].as_bytes());
}

/// Input of the traced platform launch: 4096 `f32`s.
fn traced_input() -> Vec<f32> {
    (0..4096u32).map(|i| i as f32 * 0.5 - 7.0).collect()
}

/// Runs one traced launch of `scale(y, 3.5, 4096)` through the whole
/// platform stack and returns the output bytes plus the span tree with
/// the `wall_nanos` wall-clock annotations stripped.
fn traced_run() -> (Vec<u8>, Vec<Span>) {
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(2), KernelRegistry::new()).unwrap();
    platform.obs().set_enabled(true);
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(&platform, &devices).unwrap();
    let program = Program::from_source(&ctx, SCALE_SRC);
    program.build().unwrap();
    let kernel = Kernel::new(&program, "scale").unwrap();
    let queue = CommandQueue::new(&ctx, &devices[0]).unwrap();

    let input: Vec<u8> = traced_input()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, input.len() as u64).unwrap();
    queue.enqueue_write_buffer(&buf, 0, &input).unwrap();
    kernel.set_arg_buffer(0, &buf).unwrap();
    kernel.set_arg_f32(1, 3.5).unwrap();
    kernel.set_arg_i32(2, 4096).unwrap();
    queue
        .enqueue_nd_range_kernel(&kernel, haocl_kernel::NdRange::linear(4096, 64))
        .unwrap();
    let mut out = vec![0u8; input.len()];
    queue.enqueue_read_buffer(&buf, 0, &mut out).unwrap();
    queue.finish();

    let mut spans = platform.obs().recorder.spans();
    for span in &mut spans {
        span.attrs.retain(|(key, _)| key != "wall_nanos");
    }
    spans.sort_by_key(|s| s.id.0);
    (out, spans)
}

#[test]
fn platform_matches_interpreter_and_span_trees_repeat_modulo_wall_nanos() {
    force_threads();
    let (out, spans) = traced_run();

    let program = compile(SCALE_SRC).expect("scale compiles");
    let kernel = program.kernel("scale").expect("scale exists");
    let mut reference = vec![GlobalBuffer::from_f32(&traced_input())];
    run_ndrange_with_engine(
        kernel,
        &[
            ArgValue::global(0),
            ArgValue::from_f32(3.5),
            ArgValue::from_i32(4096),
        ],
        &mut reference,
        &NdRange::linear(4096, 64),
        EngineKind::Interp,
    )
    .expect("interpreter run succeeds");
    assert_eq!(
        out,
        reference[0].as_bytes(),
        "platform output diverges from the interpreter"
    );

    let (again_out, again_spans) = traced_run();
    assert_eq!(out, again_out, "output bytes diverge between runs");
    assert!(!spans.is_empty(), "tracing recorded nothing");
    assert_eq!(spans, again_spans, "span trees diverge between runs");
}
