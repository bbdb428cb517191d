//! End-to-end integration: an OpenCL host program over a real in-process
//! cluster, exercising compiler, VM, wire protocol, NMPs, coherence and
//! virtual timing together.

use haocl::kernel::Kernel;
use haocl::{
    Buffer, CommandQueue, Context, DeviceType, Fidelity, MemFlags, Platform, Program, Status,
};
use haocl_cluster::ClusterConfig;
use haocl_kernel::{CostModel, KernelRegistry, NdRange};
use haocl_obs::names;

fn to_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|f| f.to_le_bytes()).collect()
}

fn to_f32s(b: &[u8]) -> Vec<f32> {
    b.chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[test]
fn source_program_runs_identically_on_every_node_of_a_cluster() {
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(3), KernelRegistry::new()).unwrap();
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(&platform, &devices).unwrap();
    let program = Program::from_source(
        &ctx,
        "__kernel void square(__global float* a, int n) {
            int i = get_global_id(0);
            if (i < n) a[i] = a[i] * a[i];
        }",
    );
    program.build().unwrap();
    let kernel = Kernel::new(&program, "square").unwrap();
    let input: Vec<f32> = (0..64).map(|i| i as f32 / 3.0).collect();
    let expect: Vec<f32> = input.iter().map(|x| x * x).collect();
    for device in &devices {
        let queue = CommandQueue::new(&ctx, device).unwrap();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 256).unwrap();
        queue
            .enqueue_write_buffer(&buf, 0, &to_bytes(&input))
            .unwrap();
        kernel.set_arg_buffer(0, &buf).unwrap();
        kernel.set_arg_i32(1, 64).unwrap();
        queue
            .enqueue_nd_range_kernel(&kernel, NdRange::linear(64, 8))
            .unwrap();
        let mut out = vec![0u8; 256];
        queue.enqueue_read_buffer(&buf, 0, &mut out).unwrap();
        assert_eq!(to_f32s(&out), expect, "device {}", device.index());
    }
}

#[test]
fn compiled_vm_and_native_kernels_agree_bit_for_bit() {
    // The same MatrixMul runs once through the clc VM (source program)
    // and once through the registered native kernel; single-precision
    // results must be identical because both use the same FLOP order.
    use haocl_workloads::matmul::{self, MatmulConfig};
    use haocl_workloads::{KernelMode, RunOptions};
    let cfg = MatmulConfig { n: 32, seed: 123 };
    let run_with = |mode: KernelMode| -> Vec<u8> {
        let platform = Platform::local_with_registry(
            &[haocl::DeviceKind::Gpu],
            haocl_workloads::registry_with_all(),
        )
        .unwrap();
        let opts = RunOptions {
            mode,
            ..RunOptions::full()
        };
        let report = matmul::run(&platform, &cfg, &opts).unwrap();
        assert_eq!(report.verified, Some(true));
        Vec::new()
    };
    run_with(KernelMode::Source);
    run_with(KernelMode::Native);
}

#[test]
fn coherence_moves_data_across_nodes_through_the_host() {
    // Write on node 0, compute on node 1, compute again on node 2, read
    // on node 0: the single-writer protocol must chain transfers
    // correctly across three different nodes.
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(3), KernelRegistry::new()).unwrap();
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(&platform, &devices).unwrap();
    let program = Program::from_source(
        &ctx,
        "__kernel void inc(__global int* a) { int i = get_global_id(0); a[i] = a[i] + 1; }",
    );
    program.build().unwrap();
    let kernel = Kernel::new(&program, "inc").unwrap();
    let queues: Vec<CommandQueue> = devices
        .iter()
        .map(|d| CommandQueue::new(&ctx, d).unwrap())
        .collect();
    let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 16).unwrap();
    let init: Vec<u8> = [10i32, 20, 30, 40]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    queues[0].enqueue_write_buffer(&buf, 0, &init).unwrap();
    kernel.set_arg_buffer(0, &buf).unwrap();
    queues[1]
        .enqueue_nd_range_kernel(&kernel, NdRange::linear(4, 1))
        .unwrap();
    queues[2]
        .enqueue_nd_range_kernel(&kernel, NdRange::linear(4, 1))
        .unwrap();
    let mut out = vec![0u8; 16];
    queues[0].enqueue_read_buffer(&buf, 0, &mut out).unwrap();
    let vals: Vec<i32> = out
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(vals, vec![12, 22, 32, 42]);
}

#[test]
fn whole_buffer_round_trips_move_each_byte_twice() {
    // Write the whole buffer, transform it in place, read it back — on
    // alternating nodes. Nothing of the old contents survives the write,
    // so the host relay carries the push and the read and nothing else.
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(2), KernelRegistry::new()).unwrap();
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(&platform, &devices).unwrap();
    let program = Program::from_source(
        &ctx,
        "__kernel void mix(__global uint* a, uint k) {
            uint i = get_global_id(0);
            a[i] = a[i] * 3u + k;
        }",
    );
    program.build().unwrap();
    let kernel = Kernel::new(&program, "mix").unwrap();
    let queues: Vec<CommandQueue> = devices
        .iter()
        .map(|d| CommandQueue::new(&ctx, d).unwrap())
        .collect();
    const WORDS: usize = 1024;
    let size = 4 * WORDS as u64;
    let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, size).unwrap();
    kernel.set_arg_buffer(0, &buf).unwrap();
    let metrics = &platform.obs().metrics;
    let relay =
        || metrics.counter_value(names::DATAPLANE_BYTES, &[("path", names::PATH_HOST_RELAY)]);
    for op in 0..6u32 {
        let queue = &queues[op as usize % 2];
        let input: Vec<u32> = (0..WORDS as u32).map(|i| i ^ (op << 16)).collect();
        let bytes: Vec<u8> = input.iter().flat_map(|w| w.to_le_bytes()).collect();
        let before = relay();
        queue.enqueue_write_buffer(&buf, 0, &bytes).unwrap();
        kernel.set_arg_u32(1, op).unwrap();
        queue
            .enqueue_nd_range_kernel(&kernel, NdRange::linear(WORDS as u64, 64))
            .unwrap()
            .wait()
            .unwrap();
        let mut out = vec![0u8; size as usize];
        queue.enqueue_read_buffer(&buf, 0, &mut out).unwrap();
        assert_eq!(relay() - before, 2 * size, "op {op}");
        let got: Vec<u32> = out
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let expect: Vec<u32> = input
            .iter()
            .map(|w| w.wrapping_mul(3).wrapping_add(op))
            .collect();
        assert_eq!(got, expect, "op {op}");
    }
}

#[test]
fn virtual_time_is_deterministic_across_identical_runs() {
    let run_once = || {
        let platform =
            Platform::cluster(&ClusterConfig::gpu_cluster(2), KernelRegistry::new()).unwrap();
        let devices = platform.devices(DeviceType::All);
        let ctx = Context::new(&platform, &devices).unwrap();
        let program = Program::from_source(
            &ctx,
            "__kernel void f(__global float* a) { int i = get_global_id(0); a[i] = a[i] * 2.0f; }",
        );
        program.build().unwrap();
        let kernel = Kernel::new(&program, "f").unwrap();
        kernel.set_fidelity(Fidelity::Modeled);
        kernel.set_cost(CostModel::new().flops(1e9).bytes_read(1e7));
        let q0 = CommandQueue::new(&ctx, &devices[0]).unwrap();
        let buf = Buffer::new_modeled(&ctx, MemFlags::READ_WRITE, 1 << 20).unwrap();
        q0.enqueue_write_buffer_modeled(&buf, 0, 1 << 20).unwrap();
        kernel.set_arg_buffer(0, &buf).unwrap();
        let ev = q0
            .enqueue_nd_range_kernel(&kernel, NdRange::linear(1024, 64))
            .unwrap();
        q0.finish();
        (ev.started_at(), ev.finished_at(), platform.now())
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "virtual timing must be reproducible bit-for-bit");
}

#[test]
fn kernel_launch_is_asynchronous_in_virtual_time() {
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(1), KernelRegistry::new()).unwrap();
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(&platform, &devices).unwrap();
    let program = Program::from_source(&ctx, "__kernel void f(__global float* a) { a[0] = 1.0f; }");
    program.build().unwrap();
    let kernel = Kernel::new(&program, "f").unwrap();
    kernel.set_fidelity(Fidelity::Modeled);
    // A one-second kernel.
    kernel.set_cost(CostModel::new().flops(3.85e12));
    let queue = CommandQueue::new(&ctx, &devices[0]).unwrap();
    let buf = Buffer::new_modeled(&ctx, MemFlags::READ_WRITE, 4).unwrap();
    kernel.set_arg_buffer(0, &buf).unwrap();
    let before = platform.now();
    let ev = queue
        .enqueue_nd_range_kernel(&kernel, NdRange::linear(1, 1))
        .unwrap();
    let after_enqueue = platform.now();
    // The enqueue returned long before the kernel's completion time.
    assert!(ev.duration() >= haocl_sim::SimDuration::from_millis(900));
    assert!(
        after_enqueue - before < haocl_sim::SimDuration::from_millis(100),
        "enqueue must not block virtual time"
    );
    // clFinish advances to the completion.
    let done = queue.finish();
    assert!(done >= ev.finished_at());
}

#[test]
fn multiple_users_share_a_cluster() {
    use haocl_cluster::SessionManager;
    let sessions = SessionManager::new();
    let alice = sessions.open("alice");
    let bob = sessions.open("bob");
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(1), KernelRegistry::new()).unwrap();
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(&platform, &devices).unwrap();
    let queue = CommandQueue::new(&ctx, &devices[0]).unwrap();
    // Both sessions allocate and use buffers on the same shared device.
    for user in [alice, bob] {
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 64).unwrap();
        queue.enqueue_write_buffer(&buf, 0, &[7u8; 64]).unwrap();
        sessions.note_call(user);
        let mut out = vec![0u8; 64];
        queue.enqueue_read_buffer(&buf, 0, &mut out).unwrap();
        sessions.note_call(user);
        assert_eq!(out, vec![7u8; 64]);
    }
    assert_eq!(sessions.stats(alice).unwrap().calls, 2);
    assert_eq!(sessions.stats(bob).unwrap().calls, 2);
}

#[test]
fn build_errors_surface_the_remote_build_log() {
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(1), KernelRegistry::new()).unwrap();
    let ctx = Context::new(&platform, &platform.devices(DeviceType::All)).unwrap();
    let program = Program::from_source(&ctx, "__kernel void broken(int x { }");
    let err = program.build().unwrap_err();
    assert_eq!(err.status(), Some(Status::BuildProgramFailure));
    assert!(program.build_log().contains("error"));
}
