//! The four workloads: cluster set-up and one closed-loop operation each.
//!
//! Every workload runs on `ClusterConfig::gpu_cluster(2)` through HaoCL's
//! public API. Inputs come from the seed alone. Every operation's output
//! is checked against a host model (round trips, tenant mix) or against a
//! digest the reference interpreter computed at set-up (paper kernels) —
//! never against the compiled engine under test.

use std::time::Instant;

use haocl::auto::AutoScheduler;
use haocl::{
    Buffer, CommandQueue, Context, DeviceType, Error, Kernel, MemFlags, NdRange, Platform, Program,
    ServingPlane, Session,
};
use haocl_clc::vm::{run_ndrange_with_engine, ArgValue, EngineKind, GlobalBuffer};
use haocl_clc::CompiledProgram;
use haocl_cluster::ClusterConfig;
use haocl_kernel::{CostModel, KernelRegistry};
use haocl_sched::{policies, TenantQuota, TenantSpec};

/// The benchmark's workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 256 B write, 64-item kernel, 256 B read on a direct queue.
    RoundtripSmall,
    /// The same op over a 256 KiB buffer.
    RoundtripBulk,
    /// The five paper kernels, round-robin, through `AutoScheduler`.
    PaperKernels,
    /// Four weighted sessions on one `ServingPlane`, one with a hog.
    TenantMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::RoundtripSmall,
        Workload::RoundtripBulk,
        Workload::PaperKernels,
        Workload::TenantMix,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RoundtripSmall => "roundtrip_small",
            Workload::RoundtripBulk => "roundtrip_bulk",
            Workload::PaperKernels => "paper_kernels",
            Workload::TenantMix => "tenant_mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Deterministic SplitMix64 stream: all inputs derive from the seed.
struct Mix(u64);

impl Mix {
    /// A stream for `seed`, salted so workloads sharing a seed differ.
    fn new(seed: u64, salt: u64) -> Mix {
        Mix(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn f32s(&mut self, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| (self.next_u64() % 1000) as f32 / 100.0 + 0.5)
            .collect()
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(n);
        out
    }
}

/// A fast 64-bit digest over whole words (the tail byte-wise). Fast
/// enough to run on every 256 KiB read without dominating the loop.
fn digest(h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = h ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8 bytes"))).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Digest seed: the FNV-1a offset basis.
const DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The round-trip kernel: every item rewrites its own word from its
/// index and the per-op key, so a dropped, duplicated or misplaced item
/// shows in the host model's comparison.
const MIX_SOURCE: &str = r#"
__kernel void rt_mix(__global uint* buf, uint k) {
    uint i = get_global_id(0);
    buf[i] = buf[i] * 2654435761u + i * 40503u + k;
}
"#;

/// Items per round-trip launch (and per tenant launch).
const MIX_ITEMS: usize = 64;

/// Host model of one `rt_mix` item.
fn mix_word(word: u32, i: u32, k: u32) -> u32 {
    word.wrapping_mul(2_654_435_761)
        .wrapping_add(i.wrapping_mul(40_503))
        .wrapping_add(k)
}

fn mix_cost() -> CostModel {
    CostModel::new()
        .flops(3.0 * MIX_ITEMS as f64)
        .bytes_read(4.0 * MIX_ITEMS as f64)
        .bytes_written(4.0 * MIX_ITEMS as f64)
}

/// A kernel argument, bindable both through the public API and to the
/// VM directly.
#[derive(Debug, Clone, Copy)]
enum Arg {
    /// Index into the launch's buffers.
    Buf(usize),
    /// `int` scalar.
    I32(i32),
    /// `uint` scalar.
    U32(u32),
    /// `float` scalar.
    F32(f32),
}

impl Arg {
    fn vm(self) -> ArgValue {
        match self {
            Arg::Buf(i) => ArgValue::global(i),
            Arg::I32(v) => ArgValue::from_i32(v),
            Arg::U32(v) => ArgValue::from_u32(v),
            Arg::F32(v) => ArgValue::from_f32(v),
        }
    }
}

/// One buffer of a launch: its initial bytes and whether the kernel
/// writes it (written buffers are read back and checked).
#[derive(Clone)]
struct BufSpec {
    init: Vec<u8>,
    written: bool,
}

/// A launch described once, instantiated both on the cluster and as a
/// bare VM run (for the oracle digest and the `clc` layer probe).
#[derive(Clone)]
struct LaunchSpec {
    app: &'static str,
    source: &'static str,
    kernel: &'static str,
    args: Vec<Arg>,
    bufs: Vec<BufSpec>,
    range: NdRange,
    cost: CostModel,
}

/// The same launch, ready to run on the VM alone.
pub(crate) struct VmLaunch {
    /// The compiled program the kernel comes from.
    program: CompiledProgram,
    /// Kernel name within the program.
    kernel: &'static str,
    /// Arguments in VM form.
    args: Vec<ArgValue>,
    /// Buffer contents (initial inputs).
    buffers: Vec<GlobalBuffer>,
    /// Launch geometry.
    range: NdRange,
}

impl VmLaunch {
    /// Runs the launch on `engine`, in place on its buffers.
    ///
    /// # Errors
    ///
    /// The VM's execution error, as text.
    pub(crate) fn run(&mut self, engine: EngineKind) -> Result<(), String> {
        let kernel = self
            .program
            .kernel(self.kernel)
            .ok_or_else(|| format!("kernel {} missing", self.kernel))?;
        run_ndrange_with_engine(kernel, &self.args, &mut self.buffers, &self.range, engine)
            .map_err(|e| format!("{}: {e}", self.kernel))?;
        Ok(())
    }
}

/// One launch bound on the cluster.
pub(crate) struct Launch {
    /// Paper application (or `rt_mix`).
    pub app: &'static str,
    /// OpenCL C source of the kernel's program.
    pub source: &'static str,
    /// The bound kernel.
    pub kernel: Kernel,
    /// Launch geometry.
    pub range: NdRange,
    /// Buffers and the bytes staged into each before every op.
    pub inputs: Vec<(Buffer, Vec<u8>)>,
    /// Buffers the kernel writes; read back after every op.
    pub outputs: Vec<Buffer>,
    /// Host memory the outputs are read into.
    pub out_bytes: Vec<Vec<u8>>,
    /// Digest the reference interpreter produced over the outputs (set
    /// by [`Fixture::compute_oracle`]).
    pub expect: u64,
    /// The same launch for the VM-only probe.
    pub vm: VmLaunch,
}

impl LaunchSpec {
    /// Builds the launch on the cluster (through `program`, already
    /// built) and as a VM launch, staging nothing yet.
    fn bind(&self, ctx: &Context, program: &Program) -> Result<Launch, Error> {
        let kernel = Kernel::new(program, self.kernel)?;
        kernel.set_cost(self.cost);
        let mut bufs = Vec::new();
        for b in &self.bufs {
            let flags = if b.written {
                MemFlags::READ_WRITE
            } else {
                MemFlags::READ_ONLY
            };
            bufs.push(Buffer::new(ctx, flags, b.init.len() as u64)?);
        }
        for (i, a) in self.args.iter().enumerate() {
            let i = i as u32;
            match *a {
                Arg::Buf(b) => kernel.set_arg_buffer(i, &bufs[b])?,
                Arg::I32(v) => kernel.set_arg_i32(i, v)?,
                Arg::U32(v) => kernel.set_arg_u32(i, v)?,
                Arg::F32(v) => kernel.set_arg_f32(i, v)?,
            }
        }
        let vm_program = haocl_clc::compile(self.source)
            .map_err(|e| Error::Transport(format!("{}: {e}", self.app)))?;
        let vm = VmLaunch {
            program: vm_program,
            kernel: self.kernel,
            args: self.args.iter().map(|a| a.vm()).collect(),
            buffers: self
                .bufs
                .iter()
                .map(|b| GlobalBuffer::from_bytes(b.init.clone()))
                .collect(),
            range: self.range,
        };
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        let mut out_bytes = Vec::new();
        for (buf, spec) in bufs.into_iter().zip(&self.bufs) {
            if spec.written {
                outputs.push(buf.clone());
                out_bytes.push(vec![0u8; spec.init.len()]);
            }
            inputs.push((buf, spec.init.clone()));
        }
        Ok(Launch {
            app: self.app,
            source: self.source,
            kernel,
            range: self.range,
            inputs,
            outputs,
            out_bytes,
            expect: 0,
            vm,
        })
    }
}

fn f32_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn i32_bytes(v: &[i32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// The five paper kernels at the `wall` bench's sizes, inputs drawn
/// from `seed`.
fn paper_specs(seed: u64) -> Vec<LaunchSpec> {
    use haocl_workloads::{bfs, cfd, knn, matmul, spmv};
    let mut rng = Mix::new(seed, 3);
    let input = |init: Vec<u8>| BufSpec {
        init,
        written: false,
    };
    let output = |init: Vec<u8>| BufSpec {
        init,
        written: true,
    };
    let mut out = Vec::new();

    let n = 48usize;
    out.push(LaunchSpec {
        app: "MatrixMul",
        source: matmul::KERNEL_SOURCE,
        kernel: matmul::KERNEL_NAME,
        args: vec![
            Arg::Buf(0),
            Arg::Buf(1),
            Arg::Buf(2),
            Arg::I32(n as i32),
            Arg::I32(n as i32),
        ],
        bufs: vec![
            input(f32_bytes(&rng.f32s(n * n))),
            input(f32_bytes(&rng.f32s(n * n))),
            output(vec![0; 4 * n * n]),
        ],
        range: NdRange::d2([n as u64, n as u64], [8, 8]),
        cost: matmul::launch_cost(n, n),
    });

    let rows = 2048usize;
    let per_row = 8usize;
    let nnz = rows * per_row;
    let row_ptr: Vec<i32> = (0..=rows).map(|r| (r * per_row) as i32).collect();
    let cols: Vec<i32> = (0..nnz).map(|_| rng.below(rows) as i32).collect();
    out.push(LaunchSpec {
        app: "SpMV",
        source: spmv::KERNEL_SOURCE,
        kernel: spmv::KERNEL_NAME,
        args: vec![
            Arg::Buf(0),
            Arg::Buf(1),
            Arg::Buf(2),
            Arg::Buf(3),
            Arg::Buf(4),
            Arg::I32(rows as i32),
        ],
        bufs: vec![
            input(i32_bytes(&row_ptr)),
            input(i32_bytes(&cols)),
            input(f32_bytes(&rng.f32s(nnz))),
            input(f32_bytes(&rng.f32s(rows))),
            output(vec![0; 4 * rows]),
        ],
        range: NdRange::linear(rows as u64, 64),
        cost: spmv::compute_cost(rows, nnz),
    });

    // BFS apply: every target exactly once, in a seeded order, so the
    // result does not depend on which item writes first.
    let count = 4096usize;
    let mut targets: Vec<i32> = (0..count as i32).collect();
    for i in (1..count).rev() {
        targets.swap(i, rng.below(i + 1));
    }
    let mut updates = Vec::with_capacity(2 * count);
    for &t in &targets {
        updates.push(t);
        updates.push(rng.below(32) as i32);
    }
    out.push(LaunchSpec {
        app: "BFS",
        source: bfs::KERNEL_SOURCE,
        kernel: bfs::APPLY_KERNEL_NAME,
        args: vec![Arg::Buf(0), Arg::Buf(1), Arg::I32(count as i32)],
        bufs: vec![
            output(i32_bytes(&vec![-1; count])),
            input(i32_bytes(&updates)),
        ],
        range: NdRange::linear(count as u64, 64),
        cost: bfs::apply_cost(count),
    });

    let records = 4096usize;
    let (qlat, qlng) = (rng.f32s(1)[0], rng.f32s(1)[0]);
    out.push(LaunchSpec {
        app: "KNN",
        source: knn::KERNEL_SOURCE,
        kernel: knn::DIST_KERNEL_NAME,
        args: vec![
            Arg::Buf(0),
            Arg::Buf(1),
            Arg::Buf(2),
            Arg::F32(qlat),
            Arg::F32(qlng),
            Arg::I32(records as i32),
        ],
        bufs: vec![
            input(f32_bytes(&rng.f32s(records))),
            input(f32_bytes(&rng.f32s(records))),
            output(vec![0; 4 * records]),
        ],
        range: NdRange::linear(records as u64, 64),
        cost: CostModel::new()
            .flops(5.0 * records as f64)
            .bytes_read(8.0 * records as f64)
            .bytes_written(4.0 * records as f64),
    });

    let cells = 1024usize;
    let neigh: Vec<i32> = (0..4 * cells).map(|_| rng.below(cells) as i32).collect();
    out.push(LaunchSpec {
        app: "CFD",
        source: cfd::KERNEL_SOURCE,
        kernel: cfd::KERNEL_NAME,
        args: vec![
            Arg::Buf(0),
            Arg::Buf(1),
            Arg::Buf(2),
            Arg::I32(cells as i32),
            Arg::I32(0),
            Arg::I32(cells as i32),
        ],
        bufs: vec![
            input(f32_bytes(&rng.f32s(5 * cells))),
            input(i32_bytes(&neigh)),
            output(vec![0; 4 * 5 * cells]),
        ],
        range: NdRange::linear(cells as u64, 64),
        cost: cfd::launch_cost(cells),
    });
    out
}

/// The `rt_mix` launch over a buffer of `bytes` bytes, initial contents
/// from `init`. Only the first [`MIX_ITEMS`] words are rewritten.
fn mix_spec(init: Vec<u8>, key: u32) -> LaunchSpec {
    LaunchSpec {
        app: "rt_mix",
        source: MIX_SOURCE,
        kernel: "rt_mix",
        args: vec![Arg::Buf(0), Arg::U32(key)],
        bufs: vec![BufSpec {
            init,
            written: true,
        }],
        range: NdRange::linear(MIX_ITEMS as u64, 16),
        cost: mix_cost(),
    }
}

/// Distinct input blocks a round-trip workload cycles through.
const ROUNDTRIP_BLOCKS: usize = 4;

/// One tenant of `tenant_mix`: its session, its kernel over its own
/// buffer, how many launches it submits per round, and the host model
/// of its buffer.
struct Tenant {
    /// The tenant's session.
    session: Session,
    /// Its `rt_mix` launch (key = seed salt + tenant index).
    launch: Launch,
    /// Submissions per round.
    burst: usize,
    /// Sheds expected per round (admission control, by construction).
    expect_sheds: usize,
    /// The host model of the tenant's buffer.
    model: Vec<u32>,
    key: u32,
}

/// Counts one or more ops add to.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Launches completed (the ops that carry a latency sample).
    pub ops: u64,
    /// Admission sheds (`Overloaded`), expected by construction.
    pub sheds: u64,
    /// Sheds that differ from the expected count.
    pub unexpected_sheds: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Ops whose output disagreed with the host model or oracle.
    pub wrong: u64,
    /// Digest over every output read, in op order.
    pub digest: u64,
}

impl Tally {
    /// Ops attempted: completed launches plus sheds.
    pub fn attempted(&self) -> u64 {
        self.ops + self.sheds
    }

    /// Ops that failed outright: errors, wrong outputs and sheds
    /// admission control did not predict.
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong + self.unexpected_sheds
    }
}

/// Workload state after set-up: the platform and everything the op
/// loop touches.
pub struct Fixture {
    /// The workload this fixture runs.
    workload: Workload,
    /// The platform (2-node GPU cluster).
    pub platform: Platform,
    /// The context over every device.
    pub ctx: Context,
    /// Direct queue on device 0 (round trips, staging).
    pub queue: CommandQueue,
    /// The programs built at set-up, in launch order.
    programs: Vec<Program>,
    /// The launches' descriptions (for probe copies).
    specs: Vec<LaunchSpec>,
    /// The launches the op cycles through.
    launches: Vec<Launch>,
    /// Paper kernels' scheduler.
    auto: Option<AutoScheduler>,
    /// Tenant mix's serving plane.
    plane: Option<ServingPlane>,
    /// Tenant mix's sessions.
    tenants: Vec<Tenant>,
    /// Round-trip input blocks.
    blocks: Vec<Vec<u8>>,
    /// Ops issued so far (selects launch, block and key).
    seq: u64,
    /// Seed-derived key salt for round trips.
    salt: u32,
    /// First error seen, for the report.
    pub first_error: Option<String>,
}

impl Fixture {
    /// Brings up the cluster, builds every program on every node and
    /// stages the initial inputs: the work `setup_s` times.
    ///
    /// # Errors
    ///
    /// Any bring-up, build or staging failure.
    pub fn new(workload: Workload, seed: u64) -> Result<Fixture, Error> {
        let platform = Platform::cluster(&ClusterConfig::gpu_cluster(2), KernelRegistry::new())?;
        let ctx = Context::new(&platform, &platform.devices(DeviceType::All))?;
        let queue = CommandQueue::new(&ctx, &ctx.devices()[0])?;
        let mut rng = Mix::new(seed, workload as u64 + 1);
        let salt = rng.next_u64() as u32;
        let mut fx = Fixture {
            workload,
            platform,
            ctx,
            queue,
            programs: Vec::new(),
            specs: Vec::new(),
            launches: Vec::new(),
            auto: None,
            plane: None,
            tenants: Vec::new(),
            blocks: Vec::new(),
            seq: 0,
            salt,
            first_error: None,
        };
        match workload {
            Workload::RoundtripSmall | Workload::RoundtripBulk => {
                let bytes = if workload == Workload::RoundtripSmall {
                    4 * MIX_ITEMS
                } else {
                    256 * 1024
                };
                fx.blocks = (0..ROUNDTRIP_BLOCKS).map(|_| rng.bytes(bytes)).collect();
                let spec = mix_spec(fx.blocks[0].clone(), salt);
                let launch = fx.bind(spec)?;
                fx.queue
                    .enqueue_write_buffer(&launch.inputs[0].0, 0, &launch.inputs[0].1)?;
                fx.launches.push(launch);
            }
            Workload::PaperKernels => {
                for spec in paper_specs(seed) {
                    let launch = fx.bind(spec)?;
                    for (buf, bytes) in &launch.inputs {
                        fx.queue.enqueue_write_buffer(buf, 0, bytes)?;
                    }
                    fx.launches.push(launch);
                }
                fx.auto = Some(AutoScheduler::new(
                    &fx.ctx,
                    Box::new(policies::HeteroAware::new()),
                )?);
            }
            Workload::TenantMix => {
                let plane = ServingPlane::new(&fx.ctx, Box::new(policies::HeteroAware::new()))?;
                let specs = [
                    (TenantSpec::new("steady-a"), 4, 0),
                    (TenantSpec::new("steady-b"), 4, 0),
                    (TenantSpec::new("heavy").weight(2), 8, 0),
                    (
                        TenantSpec::new("hog").quota(TenantQuota::default().max_pending(8)),
                        16,
                        8,
                    ),
                ];
                for (t, (spec, burst, expect_sheds)) in specs.into_iter().enumerate() {
                    let session = plane.open_session(spec);
                    let init = rng.bytes(4 * MIX_ITEMS);
                    let model = init
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                        .collect();
                    let key = salt.wrapping_add(t as u32);
                    let launch = fx.bind(mix_spec(init, key))?;
                    fx.queue
                        .enqueue_write_buffer(&launch.inputs[0].0, 0, &launch.inputs[0].1)?;
                    fx.tenants.push(Tenant {
                        session,
                        launch,
                        burst,
                        expect_sheds,
                        model,
                        key,
                    });
                }
                fx.plane = Some(plane);
            }
        }
        Ok(fx)
    }

    /// Runs every paper launch once on the reference interpreter, with
    /// the exact inputs the ops stage, and records the digest of its
    /// outputs as the op's expected result. Kept out of the timed
    /// set-up: it is the benchmark's check, not the system's work.
    ///
    /// # Errors
    ///
    /// The interpreter's execution error, as text.
    pub fn compute_oracle(&mut self) -> Result<(), String> {
        for launch in &mut self.launches {
            let vm = &mut launch.vm;
            let init: Vec<GlobalBuffer> = vm.buffers.clone();
            vm.run(EngineKind::Interp)
                .map_err(|e| format!("oracle {}: {e}", launch.app))?;
            let written = launch
                .inputs
                .iter()
                .map(|(b, _)| launch.outputs.iter().any(|o| o.id() == b.id()));
            launch.expect = vm
                .buffers
                .iter()
                .zip(written)
                .filter(|(_, w)| *w)
                .fold(DIGEST_BASIS, |h, (b, _)| digest(h, b.as_bytes()));
            vm.buffers = init;
        }
        Ok(())
    }

    /// The oracle digests, in launch order.
    pub fn oracle(&self) -> Vec<u64> {
        self.launches.iter().map(|l| l.expect).collect()
    }

    /// Takes the oracle digests from an earlier fixture with the same
    /// workload and seed, instead of running the interpreter again.
    pub fn set_oracle(&mut self, digests: &[u64]) {
        for (launch, &d) in self.launches.iter_mut().zip(digests) {
            launch.expect = d;
        }
    }

    /// Builds `spec`'s program on every node and binds the launch.
    fn bind(&mut self, spec: LaunchSpec) -> Result<Launch, Error> {
        let program = Program::from_source(&self.ctx, spec.source);
        program.build()?;
        let launch = spec.bind(&self.ctx, &program)?;
        self.programs.push(program);
        self.specs.push(spec);
        Ok(launch)
    }

    /// A fresh copy of every launch, on buffers of its own, for the
    /// layer probes: probing never disturbs the state the workload's
    /// checks rely on. Inputs are staged once.
    ///
    /// # Errors
    ///
    /// Binding or staging failures.
    pub(crate) fn probe_launches(&self) -> Result<Vec<Launch>, Error> {
        let mut out = Vec::new();
        for (spec, program) in self.specs.iter().zip(&self.programs) {
            let launch = spec.bind(&self.ctx, program)?;
            for (buf, bytes) in &launch.inputs {
                self.queue.enqueue_write_buffer(buf, 0, bytes)?;
            }
            out.push(launch);
        }
        Ok(out)
    }

    /// Every launch the workload issues (the tenants' for `tenant_mix`).
    fn all_launches(&self) -> Vec<&Launch> {
        if self.tenants.is_empty() {
            self.launches.iter().collect()
        } else {
            self.tenants.iter().map(|t| &t.launch).collect()
        }
    }

    /// The launch the next op will issue.
    pub(crate) fn next_launch(&self) -> &Launch {
        let all = self.all_launches();
        all[self.seq as usize % all.len()]
    }

    fn note_error(&mut self, tally: &mut Tally, e: impl std::fmt::Display) {
        tally.errors += 1;
        if self.first_error.is_none() {
            self.first_error = Some(e.to_string());
        }
    }

    /// Runs one op, pushing one wall-latency sample (nanoseconds) per
    /// completed launch into `lat`. Checks happen outside the timed
    /// region.
    pub fn run_op(&mut self, lat: &mut Vec<u64>, tally: &mut Tally) {
        let result = match self.workload {
            Workload::RoundtripSmall | Workload::RoundtripBulk => self.roundtrip(lat, tally),
            Workload::PaperKernels => self.paper(lat, tally),
            Workload::TenantMix => self.tenant_round(lat, tally),
        };
        if let Err(e) = result {
            self.note_error(tally, e);
        }
        self.seq += 1;
    }

    fn roundtrip(&mut self, lat: &mut Vec<u64>, tally: &mut Tally) -> Result<(), Error> {
        let block = &self.blocks[self.seq as usize % self.blocks.len()];
        let key = self.salt ^ (self.seq as u32);
        let launch = &mut self.launches[0];
        let (buf, _) = &launch.inputs[0];
        let t0 = Instant::now();
        self.queue.enqueue_write_buffer(buf, 0, block)?;
        launch.kernel.set_arg_u32(1, key)?;
        self.queue
            .enqueue_nd_range_kernel(&launch.kernel, launch.range)?
            .wait()?;
        self.queue
            .enqueue_read_buffer(&launch.outputs[0], 0, &mut launch.out_bytes[0])?;
        lat.push(t0.elapsed().as_nanos() as u64);
        tally.ops += 1;
        let out = &launch.out_bytes[0];
        let head = 4 * MIX_ITEMS;
        let mut ok = out[head..] == block[head..];
        for i in 0..MIX_ITEMS {
            let word = |b: &[u8]| u32::from_le_bytes(b[4 * i..4 * i + 4].try_into().expect("4"));
            ok &= word(out) == mix_word(word(block), i as u32, key);
        }
        tally.wrong += u64::from(!ok);
        tally.digest = digest(tally.digest, out);
        Ok(())
    }

    fn paper(&mut self, lat: &mut Vec<u64>, tally: &mut Tally) -> Result<(), Error> {
        let n = self.launches.len();
        let launch = &mut self.launches[self.seq as usize % n];
        let auto = self.auto.as_ref().expect("paper_kernels has a scheduler");
        let t0 = Instant::now();
        for (buf, bytes) in &launch.inputs {
            self.queue.enqueue_write_buffer(buf, 0, bytes)?;
        }
        let (event, _) = auto.launch(&launch.kernel, launch.range)?;
        event.wait()?;
        for (buf, out) in launch.outputs.iter().zip(&mut launch.out_bytes) {
            self.queue.enqueue_read_buffer(buf, 0, out)?;
        }
        lat.push(t0.elapsed().as_nanos() as u64);
        tally.ops += 1;
        let got = launch
            .out_bytes
            .iter()
            .fold(DIGEST_BASIS, |h, b| digest(h, b));
        tally.wrong += u64::from(got != launch.expect);
        tally.digest = digest(tally.digest, &got.to_le_bytes());
        Ok(())
    }

    /// One `tenant_mix` round: every tenant submits its burst, then the
    /// plane dispatches until idle; each tenant's buffer is then read
    /// back and compared with its host model.
    fn tenant_round(&mut self, lat: &mut Vec<u64>, tally: &mut Tally) -> Result<(), Error> {
        let plane = self.plane.as_ref().expect("tenant_mix has a plane");
        for t in &mut self.tenants {
            let mut shed = 0usize;
            for _ in 0..t.burst {
                match t.session.submit(&t.launch.kernel, t.launch.range) {
                    Ok(()) => {
                        for (i, w) in t.model.iter_mut().enumerate() {
                            *w = mix_word(*w, i as u32, t.key);
                        }
                    }
                    Err(Error::Overloaded(_)) => shed += 1,
                    Err(e) => return Err(e),
                }
            }
            tally.sheds += shed as u64;
            tally.unexpected_sheds += shed.abs_diff(t.expect_sheds) as u64;
        }
        loop {
            let t0 = Instant::now();
            let Some((_, event, _)) = plane.dispatch_one()? else {
                break;
            };
            event.wait()?;
            lat.push(t0.elapsed().as_nanos() as u64);
            tally.ops += 1;
        }
        for t in &mut self.tenants {
            let out = &mut t.launch.out_bytes[0];
            self.queue
                .enqueue_read_buffer(&t.launch.outputs[0], 0, out)?;
            let ok = out
                .chunks_exact(4)
                .zip(&t.model)
                .all(|(c, &w)| u32::from_le_bytes(c.try_into().expect("4")) == w);
            tally.wrong += u64::from(!ok);
            tally.digest = digest(tally.digest, out);
        }
        tally.digest = digest(tally.digest, &tally.sheds.to_le_bytes());
        Ok(())
    }
}
