//! The traced run: per-layer wall time, timed around calls into each
//! layer's public functions from this crate's own code.
//!
//! The run alternates three blocks until its time is up, so slow drift
//! in machine load lands on all three equally:
//!
//! 1. workload ops with span recording off — fabric bytes/frames and
//!    the virtual phase breakdown per op, and the untraced p50;
//! 2. workload ops with span recording on — the traced p50, spans per
//!    op, and the NMP's own `nmp.dispatch` wall time;
//! 3. probe rounds on copies of the workload's launches (own buffers,
//!    so the workload's checks stay valid): one call into each layer.
//!
//! Medians are taken per kernel and averaged over the workload's
//! kernels, so every kernel of `paper_kernels` weighs the same.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use haocl::{Error, ServingPlane};
use haocl_clc::vm::EngineKind;
use haocl_cluster::{ClusterConfig, LocalCluster};
use haocl_kernel::KernelRegistry;
use haocl_net::frame::{encode_frame_pooled, segment_pooled, FrameAssembler};
use haocl_net::pool::{BufferPool, PooledBytes};
use haocl_proto::messages::{Fidelity, WireArg, WireCost, WireNdRange};
use haocl_proto::wire::{decode_from_slice, encode_to_vec};
use haocl_proto::{ApiCall, BufferId, KernelId, NodeId};
use haocl_sched::policies;
use haocl_sim::Phase;

use crate::fixture::{Fixture, Launch, Tally, Workload};
use crate::stats::{quantile, Metric};
use crate::{fabric_counters, setup};

/// Wall time of one block of each kind.
const BLOCK: Duration = Duration::from_millis(100);

/// Small-message encodes/decodes timed together (one is ~100 ns, too
/// close to the timer's own cost to time alone).
const PROTO_BATCH: u32 = 32;

/// Payload sizes of the wire probes.
const SMALL: usize = 256;
const BULK: usize = 256 * 1024;

/// Wall-time samples in nanoseconds, keyed by (layer metric, kernel).
#[derive(Default)]
struct Samples(BTreeMap<(&'static str, &'static str), Vec<u64>>);

impl Samples {
    fn push(&mut self, metric: &'static str, app: &'static str, nanos: u64) {
        self.0.entry((metric, app)).or_default().push(nanos);
    }

    fn since(&mut self, metric: &'static str, app: &'static str, t0: Instant) {
        self.push(metric, app, t0.elapsed().as_nanos() as u64);
    }

    /// Mean over kernels of each kernel's median, in nanoseconds.
    fn value(&mut self, metric: &'static str) -> f64 {
        let meds: Vec<f64> = self
            .0
            .iter_mut()
            .filter(|((m, _), _)| *m == metric)
            .map(|(_, v)| quantile(v, 0.5) as f64)
            .collect();
        if meds.is_empty() {
            0.0
        } else {
            meds.iter().sum::<f64>() / meds.len() as f64
        }
    }
}

/// Everything the probe rounds call into.
struct Probes {
    /// A second 2-node cluster, driven at the `haocl-cluster` API.
    cluster: LocalCluster,
    plane: ServingPlane,
    session: haocl::Session,
    launches: Vec<Launch>,
    /// LaunchKernel and a 256 B WriteBuffer; a 256 KiB WriteBuffer.
    small_msgs: [ApiCall; 2],
    bulk_msg: ApiCall,
    small_wire: [Vec<u8>; 2],
    bulk_wire: Vec<u8>,
    pool: BufferPool,
    asm: FrameAssembler,
    small_body: Vec<u8>,
    bulk_body: Vec<u8>,
}

fn write_msg(len: usize) -> ApiCall {
    ApiCall::WriteBuffer {
        device: 0,
        buffer: BufferId::new(7),
        offset: 0,
        data: Bytes::from((0..len).map(|i| (i * 31) as u8).collect::<Vec<u8>>()),
    }
}

impl Probes {
    fn new(fx: &Fixture) -> Result<Probes, Error> {
        let cluster = LocalCluster::launch(&ClusterConfig::gpu_cluster(2), KernelRegistry::new())?;
        let plane = ServingPlane::new(&fx.ctx, Box::new(policies::HeteroAware::new()))?;
        let session = plane.default_session();
        let launch = ApiCall::LaunchKernel {
            device: 0,
            kernel: KernelId::new(3),
            args: vec![WireArg::Buffer(BufferId::new(7)), WireArg::U32(0x1234_5678)],
            range: WireNdRange {
                work_dim: 1,
                global: [64, 1, 1],
                local: [16, 1, 1],
            },
            cost: WireCost {
                flops: 192.0,
                bytes_read: 256.0,
                bytes_written: 256.0,
                uniform: true,
                streaming: false,
            },
            fidelity: Fidelity::Full,
            shared: false,
        };
        let small_msgs = [launch, write_msg(SMALL)];
        let bulk_msg = write_msg(BULK);
        Ok(Probes {
            cluster,
            plane,
            session,
            launches: fx.probe_launches()?,
            small_wire: [encode_to_vec(&small_msgs[0]), encode_to_vec(&small_msgs[1])],
            bulk_wire: encode_to_vec(&bulk_msg),
            small_msgs,
            bulk_msg,
            pool: BufferPool::new(),
            asm: FrameAssembler::new(),
            small_body: (0..SMALL).map(|i| i as u8).collect(),
            bulk_body: (0..BULK).map(|i| (i * 7) as u8).collect(),
        })
    }

    /// One call into each layer, on the `i`-th probe launch.
    fn round(&mut self, fx: &Fixture, i: usize, s: &mut Samples) -> Result<(), String> {
        let n = self.launches.len();
        let l = &mut self.launches[i % n];
        let app = l.app;
        let e = |e: Error| e.to_string();

        let t = Instant::now();
        for (buf, bytes) in &l.inputs {
            fx.queue.enqueue_write_buffer(buf, 0, bytes).map_err(e)?;
        }
        s.since("core.write", app, t);
        // Direct and scheduled launches of the same kernel, alternating
        // which goes first.
        for k in 0..2 {
            let t = Instant::now();
            if (i + k).is_multiple_of(2) {
                fx.queue
                    .enqueue_nd_range_kernel(&l.kernel, l.range)
                    .and_then(|ev| ev.wait())
                    .map_err(e)?;
                s.since("core.launch", app, t);
            } else {
                self.plane
                    .auto()
                    .launch(&l.kernel, l.range)
                    .and_then(|(ev, _)| ev.wait())
                    .map_err(e)?;
                s.since("sched.launch", app, t);
            }
        }
        let t = Instant::now();
        for (buf, out) in l.outputs.iter().zip(&mut l.out_bytes) {
            fx.queue.enqueue_read_buffer(buf, 0, out).map_err(e)?;
        }
        s.since("core.read", app, t);

        let t = Instant::now();
        self.session.submit(&l.kernel, l.range).map_err(e)?;
        s.since("serve.submit", app, t);
        let t = Instant::now();
        match self.plane.dispatch_one().map_err(e)? {
            Some((_, ev, _)) => ev.wait().map_err(e)?,
            None => return Err("serving plane lost a submission".into()),
        }
        s.since("serve.dispatch", app, t);

        let t = Instant::now();
        l.vm.run(EngineKind::Compiled)?;
        s.since("clc.vm", app, t);
        let t = Instant::now();
        haocl_clc::compile(l.source).map_err(|e| e.to_string())?;
        s.since("clc.compile", app, t);

        let t = Instant::now();
        self.cluster
            .host()
            .call(NodeId::new(0), ApiCall::Ping)
            .map_err(|e| e.to_string())?;
        s.since("cluster.ping", "-", t);

        self.wire(s)
    }

    /// Protocol encode/decode and pooled framing, small and bulk.
    fn wire(&mut self, s: &mut Samples) -> Result<(), String> {
        let t = Instant::now();
        for _ in 0..PROTO_BATCH {
            for m in &self.small_msgs {
                std::hint::black_box(encode_to_vec(m));
            }
        }
        s.push(
            "proto.encode",
            "-",
            t.elapsed().as_nanos() as u64 / u64::from(PROTO_BATCH),
        );
        let t = Instant::now();
        for _ in 0..PROTO_BATCH {
            for w in &self.small_wire {
                std::hint::black_box(decode_from_slice::<ApiCall>(w).map_err(|e| e.to_string())?);
            }
        }
        s.push(
            "proto.decode",
            "-",
            t.elapsed().as_nanos() as u64 / u64::from(PROTO_BATCH),
        );
        let t = Instant::now();
        std::hint::black_box(encode_to_vec(&self.bulk_msg));
        s.since("proto.bulk_encode", "-", t);
        let t = Instant::now();
        std::hint::black_box(
            decode_from_slice::<ApiCall>(&self.bulk_wire).map_err(|e| e.to_string())?,
        );
        s.since("proto.bulk_decode", "-", t);

        for (metric, body) in [
            ("net.frame", &self.small_body),
            ("net.bulk_frame", &self.bulk_body),
        ] {
            let t = Instant::now();
            let frame = encode_frame_pooled(&self.pool, |v| v.extend_from_slice(body));
            let mut frames: Vec<PooledBytes> = Vec::new();
            for chunk in segment_pooled(&frame) {
                frames.extend(self.asm.push_pooled(&chunk).map_err(|e| e.to_string())?);
            }
            s.since(metric, "-", t);
            if frames.len() != 1 || frames[0].len() != body.len() {
                return Err(format!("{metric}: reassembly returned a wrong frame"));
            }
        }
        Ok(())
    }
}

/// Span statistics from traced ops.
#[derive(Default)]
struct SpanStats {
    spans: u64,
    vm_runs: u64,
    /// `vm.run` spans whose `wall_nanos` equals their parent
    /// `nmp.dispatch`'s (a known defect: the VM span reuses the whole
    /// dispatch interval).
    vm_aliased: u64,
}

fn wall_attr(span: &haocl_obs::Span) -> Option<u64> {
    span.attrs
        .iter()
        .find(|(k, _)| k == "wall_nanos")
        .and_then(|(_, v)| v.parse().ok())
}

/// Collects and clears the spans one traced op recorded.
fn harvest(fx: &Fixture, app: &'static str, st: &mut SpanStats, s: &mut Samples) {
    let rec = &fx.platform.obs().recorder;
    let spans = rec.spans();
    rec.clear();
    st.spans += spans.len() as u64;
    for d in spans.iter().filter(|sp| sp.name == "nmp.dispatch") {
        let Some(vm) = spans
            .iter()
            .find(|sp| sp.name == "vm.run" && sp.parent == Some(d.id))
        else {
            continue;
        };
        st.vm_runs += 1;
        let (dw, vw) = (wall_attr(d), wall_attr(vm));
        st.vm_aliased += u64::from(dw.is_some() && dw == vw);
        if let Some(dw) = dw {
            s.push("nmp.dispatch", app, dw);
        }
    }
}

/// Totals over the untraced workload blocks.
#[derive(Default)]
struct Plain {
    launches: u64,
    fabric_bytes: u64,
    fabric_frames: u64,
    virt_compute: u64,
    virt_transfer: u64,
}

/// The traced run's result.
pub struct Traced {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Counts over all workload ops of the run.
    pub tally: Tally,
    /// First error seen, if any.
    pub first_error: Option<String>,
}

/// Runs the traced measurement of `workload` for `seconds`.
///
/// # Errors
///
/// Set-up and probe failures, as text. Workload op failures are
/// counted in the tally.
pub fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Result<Traced, String> {
    let (mut fx, _) = setup(workload, seed, 1)?;
    let mut probes = Probes::new(&fx).map_err(|e| format!("probe set-up: {e}"))?;
    let mut s = Samples::default();
    let mut tally = Tally::default();
    let mut lat_plain = Vec::new();
    let mut lat_traced = Vec::new();
    let mut spans = SpanStats::default();
    let mut plain = Plain::default();
    let mut traced_launches = 0u64;
    let mut round = 0usize;

    // Warm every path once (lowering cache, pools, profile seeds).
    let mut warm = Tally::default();
    fx.run_op(&mut Vec::new(), &mut warm);
    probes.round(&fx, 0, &mut Samples::default())?;

    let platform = fx.platform.clone();
    let audit_len0 = platform.obs().audit.len();
    let audit_bytes0 = platform.render_audit_log().len();
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        // 1. Untraced workload ops.
        fx.platform.set_tracing(false);
        fx.platform.reset_phases();
        let (b0, f0) = fabric_counters(&fx.platform);
        let ops0 = tally.ops;
        let tb = Instant::now();
        while tb.elapsed() < BLOCK {
            fx.run_op(&mut lat_plain, &mut tally);
        }
        let (b1, f1) = fabric_counters(&fx.platform);
        let phases = fx.platform.phase_breakdown();
        plain.launches += tally.ops - ops0;
        plain.fabric_bytes += b1 - b0;
        plain.fabric_frames += f1 - f0;
        plain.virt_compute += phases.time(Phase::Compute).as_nanos();
        plain.virt_transfer += phases.time(Phase::DataTransfer).as_nanos();

        // 2. Traced workload ops.
        fx.platform.obs().recorder.clear();
        fx.platform.set_tracing(true);
        let ops0 = tally.ops;
        let tb = Instant::now();
        while tb.elapsed() < BLOCK {
            let app = fx.next_launch().app;
            fx.run_op(&mut lat_traced, &mut tally);
            harvest(&fx, app, &mut spans, &mut s);
        }
        fx.platform.set_tracing(false);
        traced_launches += tally.ops - ops0;

        // 3. Probe rounds.
        let tb = Instant::now();
        while tb.elapsed() < BLOCK {
            probes.round(&fx, round, &mut s)?;
            round += 1;
        }
    }
    let audit_records = (platform.obs().audit.len() - audit_len0).max(1) as f64;
    let audit_bytes = platform
        .render_audit_log()
        .len()
        .saturating_sub(audit_bytes0) as f64;
    let first_error = fx.first_error.take();
    drop((fx, platform));
    probes.cluster.shutdown();

    let us = |ns: f64| ns / 1e3;
    let ping = s.value("cluster.ping");
    let direct = s.value("core.launch");
    let vm = s.value("clc.vm");
    let per = |v: u64, n: u64| v as f64 / n.max(1) as f64;
    let p50 = |v: &mut Vec<u64>| {
        if v.is_empty() {
            0.0
        } else {
            quantile(v, 0.5) as f64
        }
    };
    let m = |name, unit, value| Metric { name, unit, value };
    let metrics = vec![
        m("cluster.ping_us", "us", us(ping)),
        m("core.write_us", "us", us(s.value("core.write"))),
        m("core.launch_us", "us", us(direct)),
        m("core.read_us", "us", us(s.value("core.read"))),
        m("core.launch_over_ping", "ratio", direct / ping),
        m("clc.vm_us", "us", us(vm)),
        m("clc.vm_share", "ratio", vm / direct),
        m("clc.compile_us", "us", us(s.value("clc.compile"))),
        m("sched.launch_us", "us", us(s.value("sched.launch"))),
        m(
            "sched.auto_over_direct",
            "ratio",
            s.value("sched.launch") / direct,
        ),
        m("sched.audit_bytes_per_op", "B", audit_bytes / audit_records),
        m("serve.submit_us", "us", us(s.value("serve.submit"))),
        m("serve.dispatch_us", "us", us(s.value("serve.dispatch"))),
        m("proto.encode_ns", "ns", s.value("proto.encode")),
        m("proto.decode_ns", "ns", s.value("proto.decode")),
        m("proto.bulk_encode_ns", "ns", s.value("proto.bulk_encode")),
        m("proto.bulk_decode_ns", "ns", s.value("proto.bulk_decode")),
        m("net.frame_us", "us", us(s.value("net.frame"))),
        m("net.bulk_frame_us", "us", us(s.value("net.bulk_frame"))),
        m(
            "net.bytes_per_op",
            "B",
            per(plain.fabric_bytes, plain.launches),
        ),
        m(
            "net.frames_per_op",
            "count",
            per(plain.fabric_frames, plain.launches),
        ),
        m(
            "cluster.dispatch_wall_us",
            "us",
            us(s.value("nmp.dispatch") - vm),
        ),
        m(
            "device.virt_compute_us",
            "virt_us",
            us(per(plain.virt_compute, plain.launches)),
        ),
        m(
            "device.virt_transfer_us",
            "virt_us",
            us(per(plain.virt_transfer, plain.launches)),
        ),
        m(
            "obs.trace_overhead",
            "ratio",
            p50(&mut lat_traced) / p50(&mut lat_plain),
        ),
        m(
            "obs.spans_per_op",
            "count",
            per(spans.spans, traced_launches),
        ),
        m(
            "obs.vm_run_spans_per_op",
            "count",
            per(spans.vm_runs, traced_launches),
        ),
        m(
            "obs.vm_run_wall_aliased",
            "ratio",
            per(spans.vm_aliased, spans.vm_runs),
        ),
    ];
    Ok(Traced {
        metrics,
        tally,
        first_error,
    })
}
