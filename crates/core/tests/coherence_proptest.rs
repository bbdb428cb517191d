//! Property tests for the residency/coherence state machine.
//!
//! A buffer's observable contents must match a trivial `Vec<u8>`
//! reference model no matter how host writes, host reads, kernel
//! writes, device-side copies and cross-device migrations interleave —
//! and no matter whether the bytes travelled through the host shadow or
//! over a direct NMP→NMP peer transfer. A second property replays the
//! same state machine on a two-node cluster under seeded chaos (drops,
//! duplication, delays, crashes with failover) and requires the final
//! bytes to stay bit-identical to the reference: journal replay plus
//! residency epoch invalidation must reconstruct every replica the
//! faults destroyed. A named regression sweeps a node crash across every
//! frame of one failover scenario.

use std::time::Duration;

use proptest::prelude::*;

use haocl::{
    Buffer, ChaosPolicy, ChaosSpec, CommandQueue, Context, DeviceKind, DeviceType, Kernel,
    MemFlags, NdRange, Platform, Program, RecoveryPolicy,
};
use haocl_cluster::ClusterConfig;
use haocl_kernel::KernelRegistry;

/// Buffer size in bytes: 8 int lanes.
const SIZE: usize = 32;
const LANES: usize = SIZE / 4;

/// The kernel is a pure bitwise transform, so device execution and the
/// reference model agree exactly — no rounding, no overflow UB.
const SCRAMBLE_SRC: &str =
    "__kernel void scramble(__global int* a) { int i = get_global_id(0); a[i] = a[i] ^ (i + 1); }";

#[derive(Debug, Clone)]
enum Op {
    /// `clEnqueueWriteBuffer` of `data` at `offset` via device `dev`.
    HostWrite {
        buf: usize,
        dev: usize,
        offset: usize,
        data: Vec<u8>,
    },
    /// `clEnqueueReadBuffer`, checked against the reference immediately.
    HostRead {
        buf: usize,
        offset: usize,
        len: usize,
    },
    /// Launch `scramble` over the whole buffer on device `dev`
    /// (migrating the newest replica there first).
    KernelWrite { buf: usize, dev: usize },
    /// `clEnqueueCopyBuffer` from buffer 0 into buffer 1 (or back) on
    /// device `dev`.
    Copy {
        reverse: bool,
        dev: usize,
        src_offset: usize,
        dst_offset: usize,
        len: usize,
    },
}

fn op_strategy(devices: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            0..2usize,
            0..devices,
            0..SIZE,
            proptest::collection::vec(any::<u8>(), 1..9)
        )
            .prop_map(|(buf, dev, offset, data)| Op::HostWrite {
                buf,
                dev,
                offset,
                data,
            }),
        // Overwrites the whole buffer: the host skips pulling the old
        // contents first.
        (
            0..2usize,
            0..devices,
            proptest::collection::vec(any::<u8>(), SIZE..SIZE + 1)
        )
            .prop_map(|(buf, dev, data)| Op::HostWrite {
                buf,
                dev,
                offset: 0,
                data,
            }),
        (0..2usize, 0..SIZE, 1..SIZE + 1).prop_map(|(buf, offset, len)| Op::HostRead {
            buf,
            offset,
            len
        }),
        (0..2usize, 0..devices).prop_map(|(buf, dev)| Op::KernelWrite { buf, dev }),
        (any::<bool>(), 0..devices, 0..SIZE, 0..SIZE, 1..SIZE + 1).prop_map(
            |(reverse, dev, src_offset, dst_offset, len)| Op::Copy {
                reverse,
                dev,
                src_offset,
                dst_offset,
                len,
            }
        ),
    ]
}

/// Applies the scramble kernel to the reference model.
fn scramble_ref(model: &mut [u8]) {
    for i in 0..LANES {
        let mut v = i32::from_le_bytes(model[i * 4..i * 4 + 4].try_into().unwrap());
        v ^= (i + 1) as i32;
        model[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
    }
}

/// Runs `ops` against `platform`, checking every read against the
/// reference model and the full final contents at the end.
fn check_against_reference(platform: &Platform, ops: &[Op]) {
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(platform, &devices).unwrap();
    let queues: Vec<CommandQueue> = devices
        .iter()
        .map(|d| CommandQueue::new(&ctx, d).unwrap())
        .collect();
    let prog = Program::from_source(&ctx, SCRAMBLE_SRC);
    prog.build().unwrap();
    let kernel = Kernel::new(&prog, "scramble").unwrap();
    let buffers = [
        Buffer::new(&ctx, MemFlags::READ_WRITE, SIZE as u64).unwrap(),
        Buffer::new(&ctx, MemFlags::READ_WRITE, SIZE as u64).unwrap(),
    ];
    let mut model = [vec![0u8; SIZE], vec![0u8; SIZE]];

    for op in ops {
        match op {
            Op::HostWrite {
                buf,
                dev,
                offset,
                data,
            } => {
                let len = data.len().min(SIZE - offset);
                let data = &data[..len];
                queues[*dev]
                    .enqueue_write_buffer(&buffers[*buf], *offset as u64, data)
                    .unwrap();
                model[*buf][*offset..*offset + len].copy_from_slice(data);
            }
            Op::HostRead { buf, offset, len } => {
                let len = (*len).min(SIZE - offset);
                let mut out = vec![0u8; len];
                queues[0]
                    .enqueue_read_buffer(&buffers[*buf], *offset as u64, &mut out)
                    .unwrap();
                assert_eq!(out, model[*buf][*offset..*offset + len], "read {op:?}");
            }
            Op::KernelWrite { buf, dev } => {
                kernel.set_arg_buffer(0, &buffers[*buf]).unwrap();
                let ev = queues[*dev]
                    .enqueue_nd_range_kernel(&kernel, NdRange::linear(LANES as u64, 4))
                    .unwrap();
                ev.wait().unwrap();
                scramble_ref(&mut model[*buf]);
            }
            Op::Copy {
                reverse,
                dev,
                src_offset,
                dst_offset,
                len,
            } => {
                let len = (*len).min(SIZE - src_offset).min(SIZE - dst_offset);
                if len == 0 {
                    continue;
                }
                let (src, dst) = if *reverse { (1, 0) } else { (0, 1) };
                queues[*dev]
                    .enqueue_copy_buffer(
                        &buffers[src],
                        &buffers[dst],
                        *src_offset as u64,
                        *dst_offset as u64,
                        len as u64,
                    )
                    .unwrap();
                let slice = model[src][*src_offset..*src_offset + len].to_vec();
                model[dst][*dst_offset..*dst_offset + len].copy_from_slice(&slice);
            }
        }
    }
    for q in &queues {
        q.finish();
    }
    for (buf, model) in buffers.iter().zip(&model) {
        let mut out = vec![0u8; SIZE];
        queues[0].enqueue_read_buffer(buf, 0, &mut out).unwrap();
        assert_eq!(&out, model, "final contents diverged from the reference");
    }
}

fn node_hosts(config: &ClusterConfig) -> Vec<String> {
    config
        .nodes
        .iter()
        .map(|s| s.addr.split(':').next().unwrap_or(&s.addr).to_string())
        .collect()
}

fn chaotic_platform(seed: u64, spec: &str) -> Platform {
    let config = ClusterConfig::gpu_cluster(2);
    let platform = Platform::cluster(&config, KernelRegistry::new()).unwrap();
    let spec = ChaosSpec::parse(spec)
        .unwrap()
        .resolve_wildcards(&node_hosts(&config), seed);
    platform.install_chaos(ChaosPolicy::new(seed, spec));
    platform.set_recovery(Some(RecoveryPolicy {
        base_timeout: Duration::from_millis(10),
        max_attempts: 4,
        failover: true,
    }));
    platform
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Three devices on one node: every interleaving of host I/O, kernel
    /// writes, copies and migrations matches the reference byte model.
    #[test]
    fn coherence_matches_reference_model(
        ops in proptest::collection::vec(op_strategy(3), 1..24)
    ) {
        let platform = Platform::local(
            &[DeviceKind::Gpu, DeviceKind::Gpu, DeviceKind::Gpu],
        ).unwrap();
        check_against_reference(&platform, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two real NMP nodes under a seeded lossy schedule: peer transfers,
    /// retransmissions and dedup must leave the bytes bit-identical.
    #[test]
    fn coherence_survives_lossy_chaos(
        seed in 0u64..1_000,
        ops in proptest::collection::vec(op_strategy(2), 1..12)
    ) {
        let platform = chaotic_platform(seed, "drop=0.05,dup=0.1,delay=0.2:200us");
        check_against_reference(&platform, &ops);
    }

    /// A node crashes mid-run and the host fails over: journal replay —
    /// including the companion pulls for peer-pushed replicas — plus
    /// residency epoch invalidation must reconstruct the exact bytes.
    #[test]
    fn coherence_survives_crash_failover(
        seed in 0u64..1_000,
        ops in proptest::collection::vec(op_strategy(2), 1..12)
    ) {
        let platform = chaotic_platform(seed, "crash=*@20,dup=0.1");
        check_against_reference(&platform, &ops);
    }
}

/// Regression: after a failover that unrelated traffic triggers,
/// `revalidate()` once promoted the stale host shadow over the replica
/// that journal replay had rebuilt on the survivor. Sweeps the crash of
/// node 1 across every frame of the scenario.
#[test]
fn regression_no_stale_shadow_after_unrelated_failover() {
    let node1_host = node_hosts(&ClusterConfig::gpu_cluster(2))[1].clone();
    let mut failed_frames = Vec::new();
    for frame in 1u64..120 {
        let platform = chaotic_platform(7, &format!("crash={node1_host}@{frame}"));
        let devices = platform.devices(DeviceType::All);
        let ctx = Context::new(&platform, &devices).unwrap();
        let queues: Vec<CommandQueue> = devices
            .iter()
            .map(|d| CommandQueue::new(&ctx, d).unwrap())
            .collect();
        let prog = Program::from_source(&ctx, SCRAMBLE_SRC);
        prog.build().unwrap();
        let kernel = Kernel::new(&prog, "scramble").unwrap();

        let buf0 = Buffer::new(&ctx, MemFlags::READ_WRITE, SIZE as u64).unwrap();
        let buf1 = Buffer::new(&ctx, MemFlags::READ_WRITE, SIZE as u64).unwrap();
        let mut model = vec![0u8; SIZE];
        let data: Vec<u8> = (1..=SIZE as u8).collect();

        // Seed buf0 via node1's device, then scramble it there: node1's
        // device becomes the sole current replica, the shadow goes stale.
        if queues[1].enqueue_write_buffer(&buf0, 0, &data).is_err() {
            continue;
        }
        model.copy_from_slice(&data);
        kernel.set_arg_buffer(0, &buf0).unwrap();
        let Ok(ev) = queues[1].enqueue_nd_range_kernel(&kernel, NdRange::linear(LANES as u64, 4))
        else {
            continue;
        };
        if ev.wait().is_err() {
            continue;
        }
        scramble_ref(&mut model);

        // Unrelated traffic to node1 around the crash: this is what
        // detects the failure and bumps node1's epoch.
        for _ in 0..6 {
            let _ = queues[1].enqueue_write_buffer(&buf1, 0, &data);
        }

        // Now read buf0 in full.
        let mut out = vec![0u8; SIZE];
        if queues[0].enqueue_read_buffer(&buf0, 0, &mut out).is_err() {
            continue;
        }
        if out != model {
            failed_frames.push((frame, out.clone()));
        }
    }
    assert!(
        failed_frames.is_empty(),
        "stale reads at crash frames: {:?}",
        failed_frames
            .iter()
            .map(|(f, o)| (*f, o[..8].to_vec()))
            .collect::<Vec<_>>()
    );
}
