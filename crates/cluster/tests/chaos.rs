//! Deterministic fault-injection harness (the chaos suite).
//!
//! Every test here runs real cluster traffic through a seeded
//! [`ChaosPolicy`] and asserts the recovery invariants end to end:
//!
//! * a fixed seed produces the *same* fault schedule, run after run;
//! * whatever the schedule does to the wire — drops, delays,
//!   duplication, reordering, NMP crashes — the bytes that come back
//!   are **bit-identical** to a fault-free run;
//! * retransmission never double-executes a kernel (the NMP's
//!   at-most-once journal absorbs duplicates);
//! * the five paper workloads verify under crash and lossy schedules;
//! * retries, failovers, dedup hits and quarantines all surface in the
//!   shared metrics registry and the scheduler audit log.

use std::time::Duration;

use bytes::Bytes;
use haocl_cluster::{ClusterConfig, LocalCluster, RecoveryPolicy};
use haocl_kernel::KernelRegistry;
use haocl_net::{ChaosPolicy, ChaosSpec};
use haocl_proto::ids::{BufferId, KernelId, NodeId, ProgramId};
use haocl_proto::messages::{ApiCall, ApiReply, Fidelity, WireArg, WireCost, WireNdRange};

/// The kernel every scripted pipeline iterates: `a[i] = a[i]*2 + i` is
/// exact in binary floating point, so outputs are bitwise-deterministic.
const TICK_SRC: &str =
    "__kernel void tick(__global float* a) { int i = get_global_id(0); a[i] = a[i] * 2.0f + (float)i; }";

fn recovery(base_timeout: Duration, failover: bool) -> RecoveryPolicy {
    RecoveryPolicy {
        base_timeout,
        max_attempts: 4,
        failover,
    }
}

fn node_hosts(config: &ClusterConfig) -> Vec<String> {
    config
        .nodes
        .iter()
        .map(|s| s.addr.split(':').next().unwrap_or(&s.addr).to_string())
        .collect()
}

fn policy_for(config: &ClusterConfig, seed: u64, spec: &str) -> ChaosPolicy {
    let spec = ChaosSpec::parse(spec)
        .unwrap()
        .resolve_wildcards(&node_hosts(config), seed);
    ChaosPolicy::new(seed, spec)
}

/// Drives a fixed two-node pipeline — create/write/build/create-kernel,
/// three launch rounds, read back — on one 32-byte buffer per node, and
/// returns each node's final buffer bytes plus the observed fault
/// schedule. With `chaos`, the policy is installed after the handshake
/// and recovery enabled with `base_timeout` patience.
fn scripted_run(chaos: Option<(u64, &str)>, base_timeout: Duration) -> (Vec<Vec<u8>>, Vec<String>) {
    scripted_run_sized(chaos, base_timeout, 32)
}

/// [`scripted_run`] on `size`-byte buffers: every launch ticks all
/// `size / 4` floats.
fn scripted_run_sized(
    chaos: Option<(u64, &str)>,
    base_timeout: Duration,
    size: u64,
) -> (Vec<Vec<u8>>, Vec<String>) {
    let items = size / 4;
    let config = ClusterConfig::gpu_cluster(2);
    let cluster = LocalCluster::launch(&config, KernelRegistry::new()).unwrap();
    if let Some((seed, spec)) = chaos {
        cluster.install_chaos(policy_for(&config, seed, spec));
        cluster
            .host()
            .set_recovery(Some(recovery(base_timeout, true)));
    }
    let host = cluster.host();
    for n in 0..2u64 {
        let node = NodeId::new(n as u32);
        let buf = BufferId::new(n + 1);
        host.call(
            node,
            ApiCall::CreateBuffer {
                device: 0,
                buffer: buf,
                size,
            },
        )
        .unwrap();
        let init: Vec<u8> = (0..items)
            .flat_map(|i| (n as f32 + i as f32 * 0.5).to_le_bytes())
            .collect();
        host.call(
            node,
            ApiCall::WriteBuffer {
                device: 0,
                buffer: buf,
                offset: 0,
                data: Bytes::from(init),
            },
        )
        .unwrap();
        host.call(
            node,
            ApiCall::BuildProgram {
                device: 0,
                program: ProgramId::new(n + 1),
                source: TICK_SRC.into(),
            },
        )
        .unwrap();
        host.call(
            node,
            ApiCall::CreateKernel {
                device: 0,
                kernel: KernelId::new(n + 1),
                program: ProgramId::new(n + 1),
                name: "tick".into(),
            },
        )
        .unwrap();
    }
    for _round in 0..3 {
        for n in 0..2u64 {
            host.call(
                NodeId::new(n as u32),
                ApiCall::LaunchKernel {
                    device: 0,
                    kernel: KernelId::new(n + 1),
                    args: vec![WireArg::Buffer(BufferId::new(n + 1))],
                    range: WireNdRange {
                        work_dim: 1,
                        global: [items, 1, 1],
                        local: [4, 1, 1],
                    },
                    cost: WireCost {
                        flops: 2.0 * items as f64,
                        bytes_read: size as f64,
                        bytes_written: size as f64,
                        uniform: true,
                        streaming: false,
                    },
                    fidelity: Fidelity::Full,
                    shared: false,
                },
            )
            .unwrap();
        }
    }
    let mut outputs = Vec::new();
    for n in 0..2u64 {
        let outcome = host
            .call(
                NodeId::new(n as u32),
                ApiCall::ReadBuffer {
                    device: 0,
                    buffer: BufferId::new(n + 1),
                    offset: 0,
                    len: size,
                },
            )
            .unwrap();
        match outcome.reply {
            ApiReply::Data { bytes } => outputs.push(bytes.to_vec()),
            other => panic!("read answered with {other:?}"),
        }
    }
    let schedule = cluster.chaos_schedule();
    cluster.shutdown();
    (outputs, schedule)
}

/// Groups schedule lines (`"#N src->dst kind"`) by link, dropping the
/// global sequence number: each link's fault stream is seeded from
/// `seed ^ hash(link)` and advances per frame *on that link*, so the
/// per-link sequences are the deterministic fingerprint. The global
/// interleaving across links depends on thread scheduling and is not
/// part of the guarantee.
fn per_link(schedule: &[String]) -> std::collections::BTreeMap<String, Vec<String>> {
    let mut by_link = std::collections::BTreeMap::<String, Vec<String>>::new();
    for line in schedule {
        let mut parts = line.splitn(3, ' ');
        let _seq = parts.next().unwrap();
        let link = parts.next().unwrap().to_string();
        let kind = parts.next().unwrap().to_string();
        by_link.entry(link).or_default().push(kind);
    }
    by_link
}

#[test]
fn fixed_seed_reproduces_the_fault_schedule_exactly() {
    // Generous patience: the schedule fingerprint must depend only on
    // the seed, so wall-clock-induced spurious retransmissions (which
    // would add frames) need to stay out of the picture.
    let patience = Duration::from_millis(150);
    let spec = "drop=0.05,delay=0.2:300us,dup=0.1";
    let (bytes_a, schedule_a) = scripted_run(Some((7, spec)), patience);
    let (bytes_b, schedule_b) = scripted_run(Some((7, spec)), patience);
    assert!(
        !schedule_a.is_empty(),
        "the schedule injected at least one fault"
    );
    assert_eq!(
        per_link(&schedule_a),
        per_link(&schedule_b),
        "same seed, same spec => identical per-link fault schedule"
    );
    assert_eq!(bytes_a, bytes_b, "same schedule => identical bytes");
}

#[test]
fn outputs_are_bit_identical_to_fault_free_under_every_schedule() {
    let (golden, no_faults) = scripted_run(None, Duration::from_millis(10));
    assert!(no_faults.is_empty(), "fault-free run injects nothing");
    // Eight seeds across three schedule families: a mid-run NMP crash
    // (failover + journal replay), a lossy network (retransmission +
    // dedup), and a jittery reordering one.
    let specs = [
        "crash=*@9",
        "drop=0.1,dup=0.25",
        "delay=0.4:300us,dup=0.2,reorder=0.2",
    ];
    for seed in 1..=8u64 {
        for spec in specs {
            let (bytes, schedule) = scripted_run(Some((seed, spec)), Duration::from_millis(10));
            assert_eq!(
                bytes,
                golden,
                "seed {seed} spec `{spec}` diverged from the fault-free \
                 golden; repro schedule:\n{}",
                schedule.join("\n")
            );
        }
    }
}

#[test]
fn multi_mtu_frames_stay_bit_identical_under_every_schedule() {
    // 64 KiB per node: every write request and read reply is a frame of
    // dozens of MTUs, so duplicates, reorders and crash replays move
    // whole multi-MTU frames.
    const SIZE: u64 = 64 << 10;
    let patience = Duration::from_millis(10);
    let (golden, no_faults) = scripted_run_sized(None, patience, SIZE);
    assert!(no_faults.is_empty(), "fault-free run injects nothing");
    assert!(golden.iter().all(|b| b.len() == SIZE as usize));
    let specs = [
        "crash=*@9",
        "drop=0.1,dup=0.25",
        "delay=0.4:300us,dup=0.2,reorder=0.2",
    ];
    for seed in 1..=3u64 {
        for spec in specs {
            let (bytes, schedule) = scripted_run_sized(Some((seed, spec)), patience, SIZE);
            assert!(
                bytes == golden,
                "seed {seed} spec `{spec}` diverged from the fault-free \
                 golden; repro schedule:\n{}",
                schedule.join("\n")
            );
        }
    }
}

#[test]
fn crash_failover_recovers_mid_pipeline() {
    // Target the crash explicitly at the second node, late enough that
    // state exists on it, early enough that launches and the final read
    // must ride the failover replay.
    let config = ClusterConfig::gpu_cluster(2);
    let hosts = node_hosts(&config);
    let (golden, _) = scripted_run(None, Duration::from_millis(10));
    let spec = format!("crash={}@11", hosts[1]);
    let (bytes, schedule) = scripted_run(Some((1, &spec)), Duration::from_millis(10));
    assert!(
        !schedule.is_empty(),
        "the crash blackholed at least one frame"
    );
    assert_eq!(
        bytes, golden,
        "failover replay reproduced the crashed node's state bit-for-bit"
    );
}

#[test]
fn retransmission_never_double_executes_a_kernel() {
    // A lossy, duplicating network with retransmission but no failover:
    // after the dust settles the node's own profile must count each
    // launch exactly once.
    let config = ClusterConfig::gpu_cluster(1);
    let cluster = LocalCluster::launch(&config, KernelRegistry::new()).unwrap();
    cluster.install_chaos(policy_for(&config, 5, "drop=0.15,dup=0.3"));
    cluster
        .host()
        .set_recovery(Some(recovery(Duration::from_millis(10), false)));
    let host = cluster.host();
    let node = NodeId::new(0);
    let buf = BufferId::new(1);
    host.call(
        node,
        ApiCall::CreateBuffer {
            device: 0,
            buffer: buf,
            size: 32,
        },
    )
    .unwrap();
    host.call(
        node,
        ApiCall::BuildProgram {
            device: 0,
            program: ProgramId::new(1),
            source: TICK_SRC.into(),
        },
    )
    .unwrap();
    host.call(
        node,
        ApiCall::CreateKernel {
            device: 0,
            kernel: KernelId::new(1),
            program: ProgramId::new(1),
            name: "tick".into(),
        },
    )
    .unwrap();
    const LAUNCHES: u64 = 6;
    for _ in 0..LAUNCHES {
        host.call(
            node,
            ApiCall::LaunchKernel {
                device: 0,
                kernel: KernelId::new(1),
                args: vec![WireArg::Buffer(buf)],
                range: WireNdRange {
                    work_dim: 1,
                    global: [8, 1, 1],
                    local: [4, 1, 1],
                },
                cost: WireCost {
                    flops: 16.0,
                    bytes_read: 32.0,
                    bytes_written: 32.0,
                    uniform: true,
                    streaming: false,
                },
                fidelity: Fidelity::Full,
                shared: false,
            },
        )
        .unwrap();
    }
    let outcome = host.call(node, ApiCall::QueryProfile).unwrap();
    let ApiReply::Profile { entries } = outcome.reply else {
        panic!("profile query answered wrong");
    };
    let runs: u64 = entries
        .iter()
        .filter(|e| e.kernel == "tick")
        .map(|e| e.runs)
        .sum();
    let schedule = cluster.chaos_schedule();
    assert!(
        !schedule.is_empty(),
        "the lossy schedule injected at least one fault"
    );
    assert_eq!(
        runs,
        LAUNCHES,
        "every duplicate was answered from the journal; repro schedule:\n{}",
        schedule.join("\n")
    );
    cluster.shutdown();
}

mod workloads_under_chaos {
    use super::*;
    use haocl::Platform;
    use haocl_workloads::{registry_with_all, RunOptions, Workload};

    /// Runs one workload on a two-GPU cluster under the given chaos
    /// schedule and asserts it still verifies against the host
    /// reference.
    fn verify_under(workload: &Workload, seed: u64, spec: &str) {
        let config = ClusterConfig::gpu_cluster(2);
        let platform = Platform::cluster(&config, registry_with_all()).unwrap();
        platform.install_chaos(policy_for(&config, seed, spec));
        platform.set_recovery(Some(recovery(Duration::from_millis(10), true)));
        let report = workload.run(&platform, &RunOptions::full()).unwrap();
        assert_eq!(
            report.verified,
            Some(true),
            "{} under seed {seed} spec `{spec}`: {report}; repro schedule:\n{}",
            workload.name(),
            platform.chaos_schedule().join("\n")
        );
    }

    // One test per workload keeps failures attributable and lets the
    // harness run them in parallel. Seeds are distinct across all ten
    // cases, so the suite covers ten different fault schedules.

    #[test]
    fn matmul_verifies_under_crash_and_loss() {
        let w = Workload::test_suite()[0];
        verify_under(&w, 11, "crash=*@20");
        verify_under(&w, 12, "drop=0.05,dup=0.1,delay=0.2:200us");
    }

    #[test]
    fn cfd_verifies_under_crash_and_loss() {
        let w = Workload::test_suite()[1];
        verify_under(&w, 13, "crash=*@20");
        verify_under(&w, 14, "drop=0.05,dup=0.1,delay=0.2:200us");
    }

    #[test]
    fn knn_verifies_under_crash_and_loss() {
        let w = Workload::test_suite()[2];
        verify_under(&w, 15, "crash=*@20");
        verify_under(&w, 16, "drop=0.05,dup=0.1,delay=0.2:200us");
    }

    #[test]
    fn bfs_verifies_under_crash_and_loss() {
        let w = Workload::test_suite()[3];
        verify_under(&w, 17, "crash=*@20");
        verify_under(&w, 18, "drop=0.05,dup=0.1,delay=0.2:200us");
    }

    #[test]
    fn spmv_verifies_under_crash_and_loss() {
        let w = Workload::test_suite()[4];
        verify_under(&w, 19, "crash=*@20");
        verify_under(&w, 20, "drop=0.05,dup=0.1,delay=0.2:200us");
    }
}

mod observability {
    use super::*;
    use haocl::auto::AutoScheduler;
    use haocl::{Buffer, Context, DeviceType, Kernel, MemFlags, NdRange, Platform, Program};
    use haocl_sched::policies;

    #[test]
    fn recovery_and_quarantine_surface_in_metrics_and_audit() {
        let config = ClusterConfig::gpu_cluster(2);
        let platform = Platform::cluster(&config, KernelRegistry::new()).unwrap();
        let hosts = node_hosts(&config);
        // The second node crashes early; duplication guarantees the NMP
        // journal answers at least one retransmitted mutation from
        // cache.
        let spec = format!("crash={}@14,dup=0.25", hosts[1]);
        platform.install_chaos(policy_for(&config, 3, &spec));
        platform.set_recovery(Some(recovery(Duration::from_millis(10), true)));

        let ctx = Context::new(&platform, &platform.devices(DeviceType::All)).unwrap();
        let mut auto = AutoScheduler::new(&ctx, Box::new(policies::RoundRobin::new())).unwrap();
        // One failover is enough evidence to demote a node here.
        auto.set_quarantine_threshold(1);
        let prog = Program::from_source(&ctx, TICK_SRC);
        prog.build().unwrap();
        let k = Kernel::new(&prog, "tick").unwrap();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 32).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();

        for _ in 0..10 {
            let (ev, _) = auto.launch(&k, NdRange::linear(8, 4)).unwrap();
            ev.wait().unwrap();
            if platform.node_epoch(NodeId::new(1)) >= 1 {
                break;
            }
        }
        assert!(
            platform.node_epoch(NodeId::new(1)) >= 1,
            "the crashed node failed over; repro schedule:\n{}",
            platform.chaos_schedule().join("\n")
        );
        // The next launch's health poll observes the epoch bump and
        // quarantines the node.
        let (ev, _) = auto.launch(&k, NdRange::linear(8, 4)).unwrap();
        ev.wait().unwrap();
        assert!(
            auto.quarantine().is_quarantined(NodeId::new(1)),
            "one failover crossed the (lowered) quarantine threshold"
        );

        let metrics = platform.render_metrics();
        for name in [
            "haocl_retries_total",
            "haocl_failovers_total",
            "haocl_dedup_hits_total",
            "haocl_quarantines_total",
        ] {
            assert!(
                metrics.contains(name),
                "metrics are missing {name}; rendered:\n{metrics}"
            );
        }
        let audit = platform.render_audit_log();
        assert!(
            audit.contains("quarantine"),
            "audit log records the quarantine decision; rendered:\n{audit}"
        );
    }
}

mod elastic {
    use super::*;
    use haocl::{
        Buffer, CommandQueue, Context, DeviceType, DrainOptions, Kernel, MemFlags, MembershipState,
        NdRange, Platform, Program,
    };

    /// One scripted elastic run: seed the buffer on node 1, iterate the
    /// tick kernel there (so node 1 holds the newest bytes), drain
    /// node 1, then keep working on node 0 and read back through it.
    /// `crash_at` arms a frame-counted blackhole on node 1's host;
    /// sweeping the threshold slides the crash across the whole drain
    /// state machine — before the drain (failover first, then a drain
    /// of the re-routed node), mid-evacuation, or after retirement.
    /// Returns the final bytes plus the number of blackholed frames.
    fn drain_race_run(crash_at: Option<u64>) -> (Vec<u8>, usize) {
        let config = ClusterConfig::gpu_cluster(3);
        let platform = Platform::cluster(&config, KernelRegistry::new()).unwrap();
        let chaotic = crash_at.is_some();
        if let Some(at) = crash_at {
            let spec = format!("crash={}@{at}", node_hosts(&config)[1]);
            platform.install_chaos(policy_for(&config, 11, &spec));
            platform.set_recovery(Some(recovery(Duration::from_millis(10), true)));
        }
        let ctx = Context::new(&platform, &platform.devices(DeviceType::All)).unwrap();
        let q0 = CommandQueue::new(&ctx, &ctx.devices()[0]).unwrap();
        let q1 = CommandQueue::new(&ctx, &ctx.devices()[1]).unwrap();
        let prog = Program::from_source(&ctx, TICK_SRC);
        prog.build().unwrap();
        let k = Kernel::new(&prog, "tick").unwrap();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 32).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        q1.enqueue_write_buffer(&buf, 0, &[0u8; 32]).unwrap();
        for _ in 0..4 {
            let ev = q1
                .enqueue_nd_range_kernel(&k, NdRange::linear(8, 4))
                .unwrap();
            ev.wait().unwrap();
        }

        let victim = NodeId::new(1);
        // However the race lands, the drain either completes (Departed)
        // or fails retryably (Draining) — and a retry may ride failover
        // replay to completion.
        let mut drained = false;
        for _ in 0..3 {
            match platform.drain_node(victim, DrainOptions::default()) {
                Ok(_) => {
                    drained = true;
                    break;
                }
                Err(e) => {
                    assert!(chaotic, "clean-network drain failed: {e:?}");
                    assert_eq!(
                        platform.node_membership(victim),
                        Some(MembershipState::Draining)
                    );
                }
            }
        }
        if drained {
            assert_eq!(
                platform.node_membership(victim),
                Some(MembershipState::Departed)
            );
        }

        // The survivors must keep serving launches: a drain (or a crash
        // racing it) must never poison a surviving node's data plane.
        for _ in 0..2 {
            let ev = q0
                .enqueue_nd_range_kernel(&k, NdRange::linear(8, 4))
                .unwrap();
            ev.wait().unwrap();
        }
        let mut out = vec![0u8; 32];
        q0.enqueue_read_buffer(&buf, 0, &mut out).unwrap();
        (out, platform.chaos_schedule().len())
    }

    #[test]
    fn drain_racing_a_crash_preserves_bytes_and_survivors() {
        let (golden, no_faults) = drain_race_run(None);
        assert_eq!(no_faults, 0, "fault-free run injected nothing");
        let mut total_faults = 0;
        // Small thresholds crash node 1 before the drain even starts
        // (the drain then targets an already-failed-over node); larger
        // ones land mid-evacuation or after retirement.
        for at in [2, 4, 6, 9, 12, 16, 24, 40] {
            let (bytes, faults) = drain_race_run(Some(at));
            total_faults += faults;
            assert_eq!(
                bytes, golden,
                "crash@{at} racing the drain diverged from the fault-free golden"
            );
        }
        assert!(
            total_faults > 0,
            "the threshold sweep never actually fired the crash"
        );
    }
}
