//! The cluster layer's half of the trace contract: a traced submit must
//! come back with the node's dispatch/VM spans, correctly parented under
//! the caller's context and each stamped with its own wall time, and an
//! untraced submit must come back with none.

use haocl_cluster::{ClusterConfig, LocalCluster};
use haocl_kernel::KernelRegistry;
use haocl_obs::{SpanId, TraceCtx, TraceId};
use haocl_proto::ids::NodeId;
use haocl_proto::messages::{ApiCall, ApiReply, Fidelity, WireArg, WireCost, WireNdRange};

fn launch_call(kernel: haocl_proto::ids::KernelId, buffer: haocl_proto::ids::BufferId) -> ApiCall {
    ApiCall::LaunchKernel {
        device: 0,
        kernel,
        args: vec![WireArg::Buffer(buffer)],
        range: WireNdRange {
            work_dim: 1,
            global: [4, 1, 1],
            local: [2, 1, 1],
        },
        cost: WireCost {
            flops: 0.0,
            bytes_read: 0.0,
            bytes_written: 0.0,
            uniform: true,
            streaming: false,
        },
        fidelity: Fidelity::Full,
        shared: false,
    }
}

fn built_kernel(
    cluster: &LocalCluster,
    node: NodeId,
) -> (haocl_proto::ids::KernelId, haocl_proto::ids::BufferId) {
    let host = cluster.host();
    let program = haocl_proto::ids::ProgramId::new(1);
    let src = "__kernel void one(__global int* a) { a[get_global_id(0)] = 1; }";
    let r = host
        .call(
            node,
            ApiCall::BuildProgram {
                device: 0,
                program,
                source: src.to_string(),
            },
        )
        .unwrap();
    assert!(
        matches!(r.reply, ApiReply::BuildLog { ok: true, .. }),
        "{:?}",
        r.reply
    );
    let kernel = haocl_proto::ids::KernelId::new(1);
    let r = host
        .call(
            node,
            ApiCall::CreateKernel {
                device: 0,
                program,
                kernel,
                name: "one".to_string(),
            },
        )
        .unwrap();
    assert!(
        matches!(r.reply, ApiReply::KernelInfo { .. }),
        "{:?}",
        r.reply
    );
    let buffer = haocl_proto::ids::BufferId::new(1);
    let r = host
        .call(
            node,
            ApiCall::CreateBuffer {
                device: 0,
                buffer,
                size: 16,
            },
        )
        .unwrap();
    assert!(matches!(r.reply, ApiReply::Ack), "{:?}", r.reply);
    (kernel, buffer)
}

#[test]
fn traced_launch_ships_node_spans_back() {
    let cluster =
        LocalCluster::launch(&ClusterConfig::gpu_cluster(1), KernelRegistry::new()).unwrap();
    let node = NodeId::new(0);
    let (kernel, buffer) = built_kernel(&cluster, node);
    let ctx = TraceCtx::new(TraceId(7), SpanId(42));
    let outcome = cluster
        .host()
        .submit_traced(node, launch_call(kernel, buffer), Some(ctx))
        .unwrap()
        .wait()
        .unwrap();
    assert!(matches!(outcome.reply, ApiReply::LaunchDone { .. }));
    let names: Vec<&str> = outcome.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, vec!["nmp.dispatch", "vm.run"], "{:?}", outcome.spans);
    let dispatch = &outcome.spans[0];
    let vm = &outcome.spans[1];
    assert_eq!(
        dispatch.parent, 42,
        "dispatch parents under the caller's span"
    );
    assert_eq!(vm.parent, dispatch.id, "vm.run parents under dispatch");
    assert_ne!(dispatch.id & (1 << 63), 0, "node ids carry the high bit");
    assert!(dispatch.start_nanos <= vm.start_nanos && vm.end_nanos <= dispatch.end_nanos);
    // `vm.run` is stamped with the VM's own wall time, which the dispatch
    // interval strictly contains (kernel lookup, per-user accounting).
    assert!(
        vm.wall_nanos < dispatch.wall_nanos,
        "vm.run wall {} must be below nmp.dispatch wall {}",
        vm.wall_nanos,
        dispatch.wall_nanos
    );
}

#[test]
fn untraced_launch_ships_no_spans() {
    let cluster =
        LocalCluster::launch(&ClusterConfig::gpu_cluster(1), KernelRegistry::new()).unwrap();
    let node = NodeId::new(0);
    let (kernel, buffer) = built_kernel(&cluster, node);
    let outcome = cluster
        .host()
        .submit(node, launch_call(kernel, buffer))
        .unwrap()
        .wait()
        .unwrap();
    assert!(matches!(outcome.reply, ApiReply::LaunchDone { .. }));
    assert!(outcome.spans.is_empty());
}
