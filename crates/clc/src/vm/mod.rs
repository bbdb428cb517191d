//! The work-item virtual machine.
//!
//! Executes [`CompiledKernel`] bytecode over an NDRange with real OpenCL
//! work-group semantics: work-items of one group share a local-memory
//! arena, and `barrier()` suspends each item until every item in the group
//! arrives. Items are state machines — (pc, operand stack, slots) — so
//! suspension is a cheap save/restore rather than one OS thread per item.

use std::error::Error;
use std::fmt;

use crate::ast::ParamType;
use crate::bytecode::CompiledKernel;
use crate::types::{AddressSpace, ScalarType};

mod compiled;
mod interp;
mod ops;
mod parallel;

pub(crate) use compiled::Lowered;
pub use parallel::parallel_groups_safe;

/// What class of failure an [`ExecError`] reports.
///
/// The VM's dynamic checks mirror the static analyzer
/// ([`crate::analysis`]): a kernel the analyzer passes clean must never
/// produce [`BarrierDivergence`](ExecErrorKind::BarrierDivergence) or
/// [`LocalRace`](ExecErrorKind::LocalRace) at runtime, which is exactly
/// what the cross-check tests assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecErrorKind {
    /// Argument mismatch, memory fault, arithmetic fault, …
    General,
    /// The work-items of a group did not all reach the same `barrier()`.
    BarrierDivergence,
    /// Checked mode only: conflicting `__local` accesses without an
    /// intervening barrier.
    LocalRace,
    /// Checked mode only: the instruction budget ran out (the kernel
    /// likely does not terminate).
    BudgetExhausted,
}

/// A runtime execution failure (out-of-bounds access, divide by zero,
/// barrier divergence, argument mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    message: String,
    kind: ExecErrorKind,
}

impl ExecError {
    fn new(message: impl Into<String>) -> Self {
        ExecError {
            message: message.into(),
            kind: ExecErrorKind::General,
        }
    }

    fn with_kind(kind: ExecErrorKind, message: impl Into<String>) -> Self {
        ExecError {
            message: message.into(),
            kind,
        }
    }

    /// Creates an execution error with a custom message.
    ///
    /// Intended for runtimes layered on top of the VM (device simulators,
    /// native kernels) that need to report launch failures with the same
    /// error type the VM uses.
    pub fn from_message(message: impl Into<String>) -> Self {
        ExecError::new(message)
    }

    /// The failure description.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The failure class.
    pub fn kind(&self) -> ExecErrorKind {
        self.kind
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel execution failed: {}", self.message)
    }
}

impl Error for ExecError {}

/// A `__global` memory buffer (the backing store of an OpenCL `cl_mem`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GlobalBuffer {
    bytes: Vec<u8>,
}

macro_rules! buffer_views {
    ($from:ident, $as_ref:ident, $as_mut:ident, $t:ty) => {
        /// Creates a buffer holding the given elements (little-endian).
        pub fn $from(values: &[$t]) -> Self {
            let mut bytes = Vec::with_capacity(values.len() * std::mem::size_of::<$t>());
            for v in values {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            GlobalBuffer { bytes }
        }

        /// Decodes the buffer as elements of this type.
        ///
        /// # Panics
        ///
        /// Panics if the byte length is not a multiple of the element size.
        pub fn $as_ref(&self) -> Vec<$t> {
            let sz = std::mem::size_of::<$t>();
            assert!(
                self.bytes.len() % sz == 0,
                "buffer length {} is not a multiple of {}",
                self.bytes.len(),
                sz
            );
            self.bytes
                .chunks_exact(sz)
                .map(|c| <$t>::from_le_bytes(c.try_into().expect("chunk size")))
                .collect()
        }
    };
}

impl GlobalBuffer {
    /// Creates a zero-filled buffer of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        GlobalBuffer {
            bytes: vec![0; len],
        }
    }

    /// Creates a buffer from raw bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        GlobalBuffer { bytes }
    }

    /// The raw byte contents.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable access to the raw bytes.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Consumes the buffer, returning its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    buffer_views!(from_f32, as_f32, as_f32_mut, f32);
    buffer_views!(from_f64, as_f64, as_f64_mut, f64);
    buffer_views!(from_i32, as_i32, as_i32_mut, i32);
    buffer_views!(from_u32, as_u32, as_u32_mut, u32);
    buffer_views!(from_i64, as_i64, as_i64_mut, i64);
    buffer_views!(from_u64, as_u64, as_u64_mut, u64);

    fn load(&self, elem: ScalarType, idx: i64) -> Result<Value, ExecError> {
        let sz = elem.size_bytes();
        let off = checked_offset(idx, sz, self.bytes.len())?;
        Ok(decode_scalar(&self.bytes[off..off + sz], elem))
    }

    fn store(&mut self, elem: ScalarType, idx: i64, v: &Value) -> Result<(), ExecError> {
        let sz = elem.size_bytes();
        let off = checked_offset(idx, sz, self.bytes.len())?;
        let dst = &mut self.bytes[off..off + sz];
        write_scalar(dst, elem, v);
        Ok(())
    }
}

fn checked_offset(idx: i64, sz: usize, len: usize) -> Result<usize, ExecError> {
    if idx < 0 {
        return Err(ExecError::new(format!("negative buffer index {idx}")));
    }
    let off = (idx as usize)
        .checked_mul(sz)
        .ok_or_else(|| ExecError::new(format!("buffer index {idx} overflows addressing")))?;
    if off + sz > len {
        return Err(ExecError::new(format!(
            "out-of-bounds access: element {idx} ({} bytes/elem) in a {len}-byte buffer",
            sz
        )));
    }
    Ok(off)
}

fn write_scalar(dst: &mut [u8], elem: ScalarType, v: &Value) {
    match (elem, v) {
        (ScalarType::Bool, Value::Bool(x)) => dst[0] = u8::from(*x),
        (ScalarType::I32, Value::I32(x)) => dst.copy_from_slice(&x.to_le_bytes()),
        (ScalarType::U32, Value::U32(x)) => dst.copy_from_slice(&x.to_le_bytes()),
        (ScalarType::I64, Value::I64(x)) => dst.copy_from_slice(&x.to_le_bytes()),
        (ScalarType::U64, Value::U64(x)) => dst.copy_from_slice(&x.to_le_bytes()),
        (ScalarType::F32, Value::F32(x)) => dst.copy_from_slice(&x.to_le_bytes()),
        (ScalarType::F64, Value::F64(x)) => dst.copy_from_slice(&x.to_le_bytes()),
        (elem, v) => unreachable!("type confusion storing {v:?} as {elem}"),
    }
}

/// Decodes one little-endian scalar from `bytes` (exactly
/// `elem.size_bytes()` long). The single decode path every engine and
/// memory view shares.
fn decode_scalar(bytes: &[u8], elem: ScalarType) -> Value {
    match elem {
        ScalarType::Bool => Value::Bool(bytes[0] != 0),
        ScalarType::I32 => Value::I32(i32::from_le_bytes(bytes.try_into().expect("size"))),
        ScalarType::U32 => Value::U32(u32::from_le_bytes(bytes.try_into().expect("size"))),
        ScalarType::I64 => Value::I64(i64::from_le_bytes(bytes.try_into().expect("size"))),
        ScalarType::U64 => Value::U64(u64::from_le_bytes(bytes.try_into().expect("size"))),
        ScalarType::F32 => Value::F32(f32::from_le_bytes(bytes.try_into().expect("size"))),
        ScalarType::F64 => Value::F64(f64::from_le_bytes(bytes.try_into().expect("size"))),
    }
}

/// A runtime value on the VM operand stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// `bool`
    Bool(bool),
    /// `int`
    I32(i32),
    /// `uint`
    U32(u32),
    /// `long`
    I64(i64),
    /// `ulong`
    U64(u64),
    /// `float`
    F32(f32),
    /// `double`
    F64(f64),
    /// A typed pointer.
    Ptr(Ptr),
}

/// A typed pointer value: address space, element type, element offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ptr {
    space: PtrSpace,
    elem: ScalarType,
    /// Offset in *elements* from the start of the addressed region.
    offset: i64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PtrSpace {
    /// Index into the launch's bound global buffers.
    Global(usize),
    /// The work-group local arena.
    Local,
}

impl Value {
    fn as_bool(&self) -> Result<bool, ExecError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(ExecError::new(format!("expected bool, got {other:?}"))),
        }
    }

    fn as_ptr(&self) -> Result<Ptr, ExecError> {
        match self {
            Value::Ptr(p) => Ok(*p),
            other => Err(ExecError::new(format!("expected pointer, got {other:?}"))),
        }
    }

    fn as_index(&self) -> Result<i64, ExecError> {
        Ok(match self {
            Value::Bool(b) => i64::from(*b),
            Value::I32(x) => i64::from(*x),
            Value::U32(x) => i64::from(*x),
            Value::I64(x) => *x,
            Value::U64(x) => {
                i64::try_from(*x).map_err(|_| ExecError::new(format!("index {x} exceeds i64")))?
            }
            other => return Err(ExecError::new(format!("expected integer, got {other:?}"))),
        })
    }

    fn to_f64_lossy(self) -> f64 {
        match self {
            Value::Bool(b) => f64::from(u8::from(b)),
            Value::I32(x) => f64::from(x),
            Value::U32(x) => f64::from(x),
            Value::I64(x) => x as f64,
            Value::U64(x) => x as f64,
            Value::F32(x) => f64::from(x),
            Value::F64(x) => x,
            Value::Ptr(_) => f64::NAN,
        }
    }

    fn to_i64_lossy(self) -> i64 {
        match self {
            Value::Bool(b) => i64::from(b),
            Value::I32(x) => i64::from(x),
            Value::U32(x) => i64::from(x),
            Value::I64(x) => x,
            Value::U64(x) => x as i64,
            Value::F32(x) => x as i64,
            Value::F64(x) => x as i64,
            Value::Ptr(_) => 0,
        }
    }

    fn cast(self, to: ScalarType) -> Value {
        match to {
            ScalarType::Bool => Value::Bool(match self {
                Value::Bool(b) => b,
                Value::F32(x) => x != 0.0,
                Value::F64(x) => x != 0.0,
                other => other.to_i64_lossy() != 0,
            }),
            ScalarType::I32 => Value::I32(match self {
                Value::F32(x) => x as i32,
                Value::F64(x) => x as i32,
                other => other.to_i64_lossy() as i32,
            }),
            ScalarType::U32 => Value::U32(match self {
                Value::F32(x) => x as u32,
                Value::F64(x) => x as u32,
                other => other.to_i64_lossy() as u32,
            }),
            ScalarType::I64 => Value::I64(match self {
                Value::F32(x) => x as i64,
                Value::F64(x) => x as i64,
                other => other.to_i64_lossy(),
            }),
            ScalarType::U64 => Value::U64(match self {
                Value::F32(x) => x as u64,
                Value::F64(x) => x as u64,
                Value::U64(x) => x,
                other => other.to_i64_lossy() as u64,
            }),
            ScalarType::F32 => Value::F32(self.to_f64_lossy() as f32),
            ScalarType::F64 => Value::F64(self.to_f64_lossy()),
        }
    }
}

/// A kernel argument supplied at launch (`clSetKernelArg` equivalent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// A scalar passed by value (coerced to the parameter type).
    Scalar(Value),
    /// A `__global`/`__constant` pointer: index into the launch's buffer
    /// slice.
    GlobalBuffer(usize),
    /// A dynamically-sized `__local` allocation of this many bytes.
    LocalAlloc(usize),
}

impl ArgValue {
    /// A `__global` buffer argument bound to `buffers[index]`.
    pub fn global(index: usize) -> Self {
        ArgValue::GlobalBuffer(index)
    }

    /// A `float` scalar argument.
    pub fn from_f32(x: f32) -> Self {
        ArgValue::Scalar(Value::F32(x))
    }

    /// A `double` scalar argument.
    pub fn from_f64(x: f64) -> Self {
        ArgValue::Scalar(Value::F64(x))
    }

    /// An `int` scalar argument.
    pub fn from_i32(x: i32) -> Self {
        ArgValue::Scalar(Value::I32(x))
    }

    /// A `uint` scalar argument.
    pub fn from_u32(x: u32) -> Self {
        ArgValue::Scalar(Value::U32(x))
    }

    /// A `long` scalar argument.
    pub fn from_i64(x: i64) -> Self {
        ArgValue::Scalar(Value::I64(x))
    }

    /// A `ulong` scalar argument.
    pub fn from_u64(x: u64) -> Self {
        ArgValue::Scalar(Value::U64(x))
    }

    /// A dynamically-sized `__local` scratch allocation.
    pub fn local_bytes(bytes: usize) -> Self {
        ArgValue::LocalAlloc(bytes)
    }
}

/// An N-dimensional launch range (`clEnqueueNDRangeKernel` geometry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdRange {
    /// Number of dimensions in use (1–3).
    pub work_dim: u32,
    /// Global work size per dimension (unused dimensions are 1).
    pub global: [u64; 3],
    /// Work-group size per dimension (unused dimensions are 1).
    pub local: [u64; 3],
}

impl NdRange {
    /// A 1-D range of `global` items in groups of `local`.
    pub fn linear(global: u64, local: u64) -> Self {
        NdRange {
            work_dim: 1,
            global: [global, 1, 1],
            local: [local, 1, 1],
        }
    }

    /// A 2-D range.
    pub fn d2(global: [u64; 2], local: [u64; 2]) -> Self {
        NdRange {
            work_dim: 2,
            global: [global[0], global[1], 1],
            local: [local[0], local[1], 1],
        }
    }

    /// A 3-D range.
    pub fn d3(global: [u64; 3], local: [u64; 3]) -> Self {
        NdRange {
            work_dim: 3,
            global,
            local,
        }
    }

    /// Total number of work-items.
    pub fn total_items(&self) -> u64 {
        self.global.iter().product()
    }

    /// Number of work-groups.
    pub fn total_groups(&self) -> u64 {
        (0..3)
            .map(|d| self.global[d] / self.local[d].max(1))
            .product()
    }

    /// Work-items per group.
    pub fn group_items(&self) -> u64 {
        self.local.iter().product()
    }

    fn validate(&self) -> Result<(), ExecError> {
        if !(1..=3).contains(&self.work_dim) {
            return Err(ExecError::new("work_dim must be 1, 2 or 3"));
        }
        for d in 0..3 {
            if self.global[d] == 0 || self.local[d] == 0 {
                return Err(ExecError::new(format!(
                    "zero-sized dimension {d} in NDRange"
                )));
            }
            if !self.global[d].is_multiple_of(self.local[d]) {
                return Err(ExecError::new(format!(
                    "local size {} does not divide global size {} in dimension {d}",
                    self.local[d], self.global[d]
                )));
            }
        }
        Ok(())
    }
}

/// Counters from one kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total bytecode instructions retired.
    pub instructions: u64,
    /// Work-items executed.
    pub work_items: u64,
    /// Work-groups executed.
    pub work_groups: u64,
    /// Group-wide barrier releases (each counts once per group, however
    /// many work-items waited) — a synchronization-pressure signal for
    /// the execution profile.
    pub barriers: u64,
}

/// Configuration for [`run_ndrange_checked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Fail (instead of hanging) once this many instructions have retired
    /// across the whole launch. `u64::MAX` disables the budget.
    pub max_instructions: u64,
    /// Detect dynamic `__local` data races.
    pub detect_races: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_instructions: 50_000_000,
            detect_races: true,
        }
    }
}

/// One global-memory access observed by [`run_ndrange_observed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalAccess {
    /// Buffer index (as bound via [`ArgValue::GlobalBuffer`]).
    pub buffer: usize,
    /// Flat work-item id across the whole NDRange.
    pub item: u64,
    /// Store (`true`) or load (`false`).
    pub write: bool,
    /// First byte touched.
    pub byte_off: u64,
    /// Bytes touched.
    pub len: u32,
}

/// The per-byte global-access log collected by [`run_ndrange_observed`] —
/// the dynamic ground truth the static effect summaries
/// ([`crate::analysis::effects`]) are cross-checked against.
#[derive(Debug, Clone, Default)]
pub struct GlobalObs {
    /// Every global-buffer access, in execution order.
    pub accesses: Vec<GlobalAccess>,
    /// The log hit its size cap; `accesses` is a prefix.
    pub truncated: bool,
}

/// Log cap for [`GlobalObs`] (the cross-check corpora stay far below it).
const MAX_OBS_ACCESSES: usize = 1 << 22;

impl GlobalObs {
    fn record(&mut self, rec: GlobalAccess) {
        if self.accesses.len() >= MAX_OBS_ACCESSES {
            self.truncated = true;
        } else {
            self.accesses.push(rec);
        }
    }
}

/// Formats a barrier's source position for error messages.
fn barrier_pos(kernel: &CompiledKernel, pc: usize) -> String {
    match kernel.barrier_site(pc as u32) {
        Some(s) => format!("the barrier at line {}, column {}", s.line, s.col),
        None => format!("the barrier at pc {pc}"),
    }
}

/// Builds the "some items finished without reaching the barrier" error,
/// shared verbatim by every engine.
fn divergence_unreached(
    kernel: &CompiledKernel,
    waiting: usize,
    pc: usize,
    done: usize,
) -> ExecError {
    ExecError::with_kind(
        ExecErrorKind::BarrierDivergence,
        format!(
            "barrier divergence in kernel `{}`: {waiting} item(s) wait at {} \
             while {done} finished without reaching it",
            kernel.name,
            barrier_pos(kernel, pc),
        ),
    )
}

/// Builds the "items wait at different barriers" error, shared verbatim
/// by every engine.
fn divergence_mixed(kernel: &CompiledKernel, pc_a: usize, pc_b: usize) -> ExecError {
    ExecError::with_kind(
        ExecErrorKind::BarrierDivergence,
        format!(
            "barrier divergence in kernel `{}`: work-items of one group wait \
             at different barriers ({} vs {})",
            kernel.name,
            barrier_pos(kernel, pc_a),
            barrier_pos(kernel, pc_b),
        ),
    )
}

/// Builds the checked-mode `__local` race error.
fn local_race_error(kernel: &CompiledKernel, item: u32, other: u32, verb: &str) -> ExecError {
    ExecError::with_kind(
        ExecErrorKind::LocalRace,
        format!(
            "data race on __local memory in kernel `{}`: work-item {item} {verb} \
             a value stored by work-item {other} with no intervening barrier",
            kernel.name
        ),
    )
}

/// Which execution engine [`run_ndrange_with_engine`] drives.
///
/// All engines are observationally identical: same output bytes, same
/// [`ExecStats`], same structured errors. The interpreter is the
/// reference; [`run_ndrange_checked`] and [`run_ndrange_observed`] are
/// always interpreted so the oracle itself never depends on the
/// optimized paths it validates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineKind {
    /// The reference tree-walking interpreter.
    Interp,
    /// Bytecode lowered once per kernel into fused closures, work-groups
    /// executed sequentially in interpreter order.
    CompiledSerial,
    /// The compiled engine, plus parallel work-group execution for
    /// kernels the effect prover shows are safe (sequential fallback
    /// otherwise). This is what [`run_ndrange`] runs.
    Compiled,
}

/// Executes `kernel` across the whole `range`.
///
/// `args` supplies one [`ArgValue`] per kernel parameter, and
/// [`ArgValue::GlobalBuffer`] entries index into `buffers`. Runs on
/// [`EngineKind::Compiled`], which is deterministic and byte-identical
/// to the reference interpreter (device parallelism is *modelled* by
/// `haocl-device` — OS-thread parallelism here is only used where the
/// effect prover shows group order is unobservable).
///
/// # Errors
///
/// Returns [`ExecError`] on argument mismatches, out-of-bounds accesses,
/// integer division by zero, or barrier divergence within a work-group.
pub fn run_ndrange(
    kernel: &CompiledKernel,
    args: &[ArgValue],
    buffers: &mut [GlobalBuffer],
    range: &NdRange,
) -> Result<ExecStats, ExecError> {
    compiled::run(kernel, args, buffers, range, true)
}

/// [`run_ndrange`] on an explicitly chosen engine. This is what
/// differential tests and benchmarks use to compare engines.
///
/// # Errors
///
/// Same as [`run_ndrange`].
pub fn run_ndrange_with_engine(
    kernel: &CompiledKernel,
    args: &[ArgValue],
    buffers: &mut [GlobalBuffer],
    range: &NdRange,
    engine: EngineKind,
) -> Result<ExecStats, ExecError> {
    match engine {
        EngineKind::Interp => interp::run(kernel, args, buffers, range, None, None),
        EngineKind::CompiledSerial => compiled::run(kernel, args, buffers, range, false),
        EngineKind::Compiled => compiled::run(kernel, args, buffers, range, true),
    }
}

/// [`run_ndrange`] with dynamic checking: an instruction budget (so
/// non-terminating kernels fail instead of hanging) and a `__local` race
/// oracle (see [`RaceOracle`]'s rules in the module source).
///
/// This is the dynamic counterpart of the static analyzer
/// ([`crate::analysis`]): the analyzer is conservative, so a kernel it
/// passes clean must also pass checked execution — the lint-corpus
/// cross-check tests assert exactly that (one-directional: checked
/// execution observes only the launched NDRange, so it can miss races the
/// analyzer flags).
///
/// # Errors
///
/// Everything [`run_ndrange`] returns, plus
/// [`ExecErrorKind::LocalRace`] and [`ExecErrorKind::BudgetExhausted`].
pub fn run_ndrange_checked(
    kernel: &CompiledKernel,
    args: &[ArgValue],
    buffers: &mut [GlobalBuffer],
    range: &NdRange,
    cfg: &CheckConfig,
) -> Result<ExecStats, ExecError> {
    interp::run(kernel, args, buffers, range, Some(cfg), None)
}

/// [`run_ndrange_checked`] that additionally logs every global-buffer
/// access (buffer, flat work-item id, byte range, load/store) into a
/// [`GlobalObs`] — the dynamic oracle the static effect summaries are
/// validated against.
///
/// # Errors
///
/// Everything [`run_ndrange_checked`] returns.
pub fn run_ndrange_observed(
    kernel: &CompiledKernel,
    args: &[ArgValue],
    buffers: &mut [GlobalBuffer],
    range: &NdRange,
    cfg: &CheckConfig,
) -> Result<(ExecStats, GlobalObs), ExecError> {
    let mut obs = GlobalObs::default();
    let stats = interp::run(kernel, args, buffers, range, Some(cfg), Some(&mut obs))?;
    Ok((stats, obs))
}

/// Binds launch arguments to slot values, shared by every engine.
///
/// Lays out dynamic `__local` allocations after the kernel's static
/// local arrays (8-byte aligned) and returns the bound parameter values
/// plus the total local-arena size in bytes.
fn bind_args(
    kernel: &CompiledKernel,
    args: &[ArgValue],
    buffers_len: usize,
) -> Result<(Vec<Value>, usize), ExecError> {
    if args.len() != kernel.params.len() {
        return Err(ExecError::new(format!(
            "kernel `{}` expects {} arguments, got {}",
            kernel.name,
            kernel.params.len(),
            args.len()
        )));
    }
    let mut arena_bytes = (kernel.static_local_bytes as usize + 7) & !7;
    let mut bound = Vec::with_capacity(args.len());
    for (i, (arg, param)) in args.iter().zip(&kernel.params).enumerate() {
        let v = match (arg, param) {
            (ArgValue::Scalar(v), ParamType::Scalar(want)) => v.cast(*want),
            (
                ArgValue::GlobalBuffer(b),
                ParamType::Pointer(AddressSpace::Global | AddressSpace::Constant, elem),
            ) => {
                if *b >= buffers_len {
                    return Err(ExecError::new(format!(
                        "argument {i}: buffer index {b} out of range ({buffers_len} bound)"
                    )));
                }
                Value::Ptr(Ptr {
                    space: PtrSpace::Global(*b),
                    elem: *elem,
                    offset: 0,
                })
            }
            (ArgValue::LocalAlloc(bytes), ParamType::Pointer(AddressSpace::Local, elem)) => {
                let offset = (arena_bytes + 7) & !7;
                arena_bytes = offset + bytes;
                Value::Ptr(Ptr {
                    space: PtrSpace::Local,
                    elem: *elem,
                    offset: (offset / elem.size_bytes()) as i64,
                })
            }
            (arg, param) => {
                return Err(ExecError::new(format!(
                    "argument {i}: {arg:?} does not match parameter type {param:?}"
                )));
            }
        };
        bound.push(v);
    }
    Ok((bound, arena_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn run(
        src: &str,
        kernel: &str,
        args: &[ArgValue],
        buffers: &mut [GlobalBuffer],
        range: &NdRange,
    ) -> Result<ExecStats, ExecError> {
        let p = compile(src).expect("compile");
        let k = p.kernel(kernel).expect("kernel");
        run_ndrange(k, args, buffers, range)
    }

    /// Compiles with `WarnOnly` analysis: tests of the VM's *dynamic*
    /// oracles need kernels the static analyzer would reject at build time.
    fn run_warn(
        src: &str,
        kernel: &str,
        args: &[ArgValue],
        buffers: &mut [GlobalBuffer],
        range: &NdRange,
        cfg: Option<&CheckConfig>,
    ) -> Result<ExecStats, ExecError> {
        let opts = crate::CompileOptions {
            analysis: crate::AnalysisMode::WarnOnly,
        };
        let p = crate::compile_with_options(src, &opts).expect("compile");
        let k = p.kernel(kernel).expect("kernel");
        match cfg {
            Some(c) => run_ndrange_checked(k, args, buffers, range, c),
            None => run_ndrange(k, args, buffers, range),
        }
    }

    #[test]
    fn vector_add() {
        let src = r#"__kernel void vadd(__global const float* a, __global const float* b,
                                        __global float* c, int n) {
            int i = get_global_id(0);
            if (i < n) c[i] = a[i] + b[i];
        }"#;
        let mut bufs = vec![
            GlobalBuffer::from_f32(&[1.0, 2.0, 3.0, 4.0]),
            GlobalBuffer::from_f32(&[10.0, 20.0, 30.0, 40.0]),
            GlobalBuffer::zeroed(16),
        ];
        let args = [
            ArgValue::global(0),
            ArgValue::global(1),
            ArgValue::global(2),
            ArgValue::from_i32(4),
        ];
        let stats = run(src, "vadd", &args, &mut bufs, &NdRange::linear(4, 2)).unwrap();
        assert_eq!(bufs[2].as_f32(), vec![11.0, 22.0, 33.0, 44.0]);
        assert_eq!(stats.work_items, 4);
        assert_eq!(stats.work_groups, 2);
        assert!(stats.instructions > 0);
    }

    #[test]
    fn guarded_tail_is_not_written() {
        let src = r#"__kernel void inc(__global int* a, int n) {
            int i = get_global_id(0);
            if (i < n) a[i] = a[i] + 1;
        }"#;
        let mut bufs = vec![GlobalBuffer::from_i32(&[5, 5, 5, 5])];
        let args = [ArgValue::global(0), ArgValue::from_i32(3)];
        run(src, "inc", &args, &mut bufs, &NdRange::linear(4, 4)).unwrap();
        assert_eq!(bufs[0].as_i32(), vec![6, 6, 6, 5]);
    }

    #[test]
    fn loops_and_accumulation() {
        let src = r#"__kernel void rowsum(__global const float* m, __global float* out, int cols) {
            int r = get_global_id(0);
            float acc = 0.0f;
            for (int c = 0; c < cols; c++) acc += m[r * cols + c];
            out[r] = acc;
        }"#;
        let mut bufs = vec![
            GlobalBuffer::from_f32(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            GlobalBuffer::zeroed(8),
        ];
        let args = [
            ArgValue::global(0),
            ArgValue::global(1),
            ArgValue::from_i32(3),
        ];
        run(src, "rowsum", &args, &mut bufs, &NdRange::linear(2, 1)).unwrap();
        assert_eq!(bufs[1].as_f32(), vec![6.0, 15.0]);
    }

    #[test]
    fn barrier_synchronizes_local_memory() {
        // Each item writes its id into local memory; after the barrier,
        // item reads its neighbour's slot (reversed), exposing whether the
        // barrier actually ordered the writes before the reads.
        let src = r#"__kernel void rev(__global int* out) {
            __local int tmp[8];
            int l = get_local_id(0);
            int n = get_local_size(0);
            tmp[l] = l * 10;
            barrier(CLK_LOCAL_MEM_FENCE);
            out[get_global_id(0)] = tmp[n - 1 - l];
        }"#;
        let mut bufs = vec![GlobalBuffer::zeroed(8 * 4)];
        run(
            src,
            "rev",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(8, 8),
        )
        .unwrap();
        assert_eq!(bufs[0].as_i32(), vec![70, 60, 50, 40, 30, 20, 10, 0]);
    }

    #[test]
    fn barrier_releases_are_counted_per_group() {
        let src = r#"__kernel void sync(__global int* out) {
            __local int tmp[4];
            int l = get_local_id(0);
            tmp[l] = l;
            barrier(CLK_LOCAL_MEM_FENCE);
            out[get_global_id(0)] = tmp[l];
        }"#;
        let mut bufs = vec![GlobalBuffer::zeroed(8 * 4)];
        let stats = run(
            src,
            "sync",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(8, 4),
        )
        .unwrap();
        assert_eq!(stats.barriers, 2, "one release per work-group");
        // A barrier-free launch reports none.
        let src = "__kernel void id(__global int* out) { out[get_global_id(0)] = 1; }";
        let mut bufs = vec![GlobalBuffer::zeroed(8 * 4)];
        let stats = run(
            src,
            "id",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(8, 4),
        )
        .unwrap();
        assert_eq!(stats.barriers, 0);
    }

    #[test]
    fn two_dimensional_ids() {
        let src = r#"__kernel void coords(__global int* out, int width) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            out[y * width + x] = x * 100 + y;
        }"#;
        let mut bufs = vec![GlobalBuffer::zeroed(6 * 4)];
        let args = [ArgValue::global(0), ArgValue::from_i32(3)];
        run(
            src,
            "coords",
            &args,
            &mut bufs,
            &NdRange::d2([3, 2], [1, 1]),
        )
        .unwrap();
        assert_eq!(bufs[0].as_i32(), vec![0, 100, 200, 1, 101, 201]);
    }

    #[test]
    fn local_2d_array_tiling() {
        let src = r#"__kernel void transpose4(__global const float* in, __global float* out) {
            __local float tile[4][4];
            int x = get_local_id(0);
            int y = get_local_id(1);
            tile[y][x] = in[y * 4 + x];
            barrier(CLK_LOCAL_MEM_FENCE);
            out[x * 4 + y] = tile[y][x];
        }"#;
        let input: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let mut bufs = vec![GlobalBuffer::from_f32(&input), GlobalBuffer::zeroed(64)];
        run(
            src,
            "transpose4",
            &[ArgValue::global(0), ArgValue::global(1)],
            &mut bufs,
            &NdRange::d2([4, 4], [4, 4]),
        )
        .unwrap();
        let out = bufs[1].as_f32();
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(out[x * 4 + y], (y * 4 + x) as f32);
            }
        }
    }

    #[test]
    fn dynamic_local_argument() {
        let src = r#"__kernel void scan2(__global int* data, __local int* scratch) {
            int l = get_local_id(0);
            scratch[l] = data[get_global_id(0)];
            barrier(CLK_LOCAL_MEM_FENCE);
            int n = get_local_size(0);
            int sum = 0;
            for (int i = 0; i <= l; i++) sum += scratch[i];
            data[get_global_id(0)] = sum;
        }"#;
        let mut bufs = vec![GlobalBuffer::from_i32(&[1, 2, 3, 4])];
        let args = [ArgValue::global(0), ArgValue::local_bytes(4 * 4)];
        run(src, "scan2", &args, &mut bufs, &NdRange::linear(4, 4)).unwrap();
        assert_eq!(bufs[0].as_i32(), vec![1, 3, 6, 10]);
    }

    #[test]
    fn out_of_bounds_read_is_an_error() {
        let src = r#"__kernel void oob(__global int* a) { a[0] = a[99]; }"#;
        let mut bufs = vec![GlobalBuffer::from_i32(&[0, 1])];
        let err = run(
            src,
            "oob",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(1, 1),
        )
        .unwrap_err();
        assert!(err.message().contains("out-of-bounds"));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let src = r#"__kernel void dz(__global int* a) { a[0] = a[1] / a[0]; }"#;
        let mut bufs = vec![GlobalBuffer::from_i32(&[0, 1])];
        let err = run(
            src,
            "dz",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(1, 1),
        )
        .unwrap_err();
        assert!(err.message().contains("division by zero"));
    }

    #[test]
    fn barrier_divergence_is_an_error() {
        let src = r#"__kernel void div(__global int* a) {
            if (get_local_id(0) == 0) { barrier(CLK_LOCAL_MEM_FENCE); }
            a[get_global_id(0)] = 1;
        }"#;
        let mut bufs = vec![GlobalBuffer::zeroed(8)];
        let err = run_warn(
            src,
            "div",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(2, 2),
            None,
        )
        .unwrap_err();
        assert!(err.message().contains("divergence"));
        assert_eq!(err.kind(), ExecErrorKind::BarrierDivergence);
        // The error names where the waiting items are parked.
        assert!(err.message().contains("line 2"), "{}", err.message());
    }

    #[test]
    fn waiting_at_different_barriers_is_divergence() {
        // Both items reach *a* barrier, but not the *same* one; releasing
        // them together would be wrong (real devices deadlock here).
        let src = r#"__kernel void twob(__global int* a) {
            if (get_local_id(0) == 0) {
                barrier(CLK_LOCAL_MEM_FENCE);
            } else {
                barrier(CLK_LOCAL_MEM_FENCE);
            }
            a[get_global_id(0)] = 1;
        }"#;
        let mut bufs = vec![GlobalBuffer::zeroed(8)];
        let err = run_warn(
            src,
            "twob",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(2, 2),
            None,
        )
        .unwrap_err();
        assert_eq!(err.kind(), ExecErrorKind::BarrierDivergence);
        assert!(
            err.message().contains("different barriers"),
            "{}",
            err.message()
        );
        assert!(err.message().contains("line 3"), "{}", err.message());
        assert!(err.message().contains("line 5"), "{}", err.message());
    }

    #[test]
    fn checked_mode_detects_local_race() {
        // Every item stores its own id to tmp[0]: a classic same-element
        // different-values race the static analyzer also flags.
        let src = r#"__kernel void race(__global int* out) {
            __local int tmp[1];
            tmp[0] = get_local_id(0);
            out[get_global_id(0)] = tmp[0];
        }"#;
        let mut bufs = vec![GlobalBuffer::zeroed(16)];
        let err = run_warn(
            src,
            "race",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(4, 4),
            Some(&CheckConfig::default()),
        )
        .unwrap_err();
        assert_eq!(err.kind(), ExecErrorKind::LocalRace);
        assert!(err.message().contains("data race"), "{}", err.message());
    }

    #[test]
    fn checked_mode_detects_unsynchronized_read() {
        // Item reads its neighbour's slot with no barrier in between.
        let src = r#"__kernel void xread(__global int* out) {
            __local int tmp[8];
            int l = get_local_id(0);
            tmp[l] = l + 1;
            out[get_global_id(0)] = tmp[7 - l];
        }"#;
        let mut bufs = vec![GlobalBuffer::zeroed(32)];
        let err = run_warn(
            src,
            "xread",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(8, 8),
            Some(&CheckConfig::default()),
        )
        .unwrap_err();
        assert_eq!(err.kind(), ExecErrorKind::LocalRace);
        assert!(err.message().contains("reads"), "{}", err.message());
    }

    #[test]
    fn checked_mode_accepts_barrier_separated_accesses() {
        // The `rev` kernel from `barrier_synchronizes_local_memory` is
        // clean: the barrier resets the oracle's writer sets.
        let src = r#"__kernel void rev(__global int* out) {
            __local int tmp[8];
            int l = get_local_id(0);
            int n = get_local_size(0);
            tmp[l] = l * 10;
            barrier(CLK_LOCAL_MEM_FENCE);
            out[get_global_id(0)] = tmp[n - 1 - l];
        }"#;
        let mut bufs = vec![GlobalBuffer::zeroed(8 * 4)];
        run_warn(
            src,
            "rev",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(8, 8),
            Some(&CheckConfig::default()),
        )
        .unwrap();
        assert_eq!(bufs[0].as_i32(), vec![70, 60, 50, 40, 30, 20, 10, 0]);
    }

    #[test]
    fn checked_mode_accepts_same_value_stores() {
        // All items store the same constant to tmp[0]: benign by the
        // same rule the static analyzer uses.
        let src = r#"__kernel void bcast(__global int* out) {
            __local int tmp[1];
            tmp[0] = 42;
            out[get_global_id(0)] = tmp[0];
        }"#;
        let mut bufs = vec![GlobalBuffer::zeroed(16)];
        run_warn(
            src,
            "bcast",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(4, 4),
            Some(&CheckConfig::default()),
        )
        .unwrap();
        assert_eq!(bufs[0].as_i32(), vec![42, 42, 42, 42]);
    }

    #[test]
    fn checked_mode_budget_stops_runaway_loop() {
        let src = r#"__kernel void spin(__global int* out) {
            int x = 0;
            while (x < 10) { x = x - 1; }
            out[0] = x;
        }"#;
        let mut bufs = vec![GlobalBuffer::zeroed(4)];
        let cfg = CheckConfig {
            max_instructions: 10_000,
            detect_races: true,
        };
        let err = run_warn(
            src,
            "spin",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(1, 1),
            Some(&cfg),
        )
        .unwrap_err();
        assert_eq!(err.kind(), ExecErrorKind::BudgetExhausted);
        assert!(err.message().contains("budget"), "{}", err.message());
    }

    #[test]
    fn arg_count_mismatch_is_an_error() {
        let src = r#"__kernel void two(__global int* a, int n) { a[0] = n; }"#;
        let mut bufs = vec![GlobalBuffer::zeroed(4)];
        let err = run(
            src,
            "two",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(1, 1),
        )
        .unwrap_err();
        assert!(err.message().contains("expects 2 arguments"));
    }

    #[test]
    fn arg_kind_mismatch_is_an_error() {
        let src = r#"__kernel void two(__global int* a, int n) { a[0] = n; }"#;
        let mut bufs = vec![GlobalBuffer::zeroed(4)];
        let err = run(
            src,
            "two",
            &[ArgValue::from_i32(1), ArgValue::from_i32(2)],
            &mut bufs,
            &NdRange::linear(1, 1),
        )
        .unwrap_err();
        assert!(err.message().contains("does not match"));
    }

    #[test]
    fn scalar_args_are_coerced_to_param_type() {
        let src = r#"__kernel void put(__global float* a, float v) { a[0] = v; }"#;
        let mut bufs = vec![GlobalBuffer::zeroed(4)];
        // Pass an int where a float is expected.
        let args = [ArgValue::global(0), ArgValue::from_i32(3)];
        run(src, "put", &args, &mut bufs, &NdRange::linear(1, 1)).unwrap();
        assert_eq!(bufs[0].as_f32(), vec![3.0]);
    }

    #[test]
    fn nonuniform_local_size_rejected() {
        let src = r#"__kernel void f(__global int* a) { a[0] = 1; }"#;
        let mut bufs = vec![GlobalBuffer::zeroed(4)];
        let err = run(
            src,
            "f",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(5, 2),
        )
        .unwrap_err();
        assert!(err.message().contains("does not divide"));
    }

    #[test]
    fn math_builtins() {
        let src = r#"__kernel void m(__global float* a) {
            a[0] = sqrt(a[0]);
            a[1] = fmax(a[1], 2.5f);
            a[2] = pow(a[2], 2.0f);
            a[3] = fabs(a[3]);
            a[4] = clamp(a[4], 0.0f, 1.0f);
        }"#;
        let mut bufs = vec![GlobalBuffer::from_f32(&[16.0, 1.0, 3.0, -2.0, 7.0])];
        run(
            src,
            "m",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(1, 1),
        )
        .unwrap();
        assert_eq!(bufs[0].as_f32(), vec![4.0, 2.5, 9.0, 2.0, 1.0]);
    }

    #[test]
    fn integer_min_max_abs() {
        let src = r#"__kernel void m(__global int* a) {
            a[0] = min(a[0], a[1]);
            a[1] = max(a[1], 100);
            a[2] = abs(a[2]);
        }"#;
        let mut bufs = vec![GlobalBuffer::from_i32(&[7, 3, -9])];
        run(
            src,
            "m",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(1, 1),
        )
        .unwrap();
        assert_eq!(bufs[0].as_i32(), vec![3, 100, 9]);
    }

    #[test]
    fn while_and_do_while() {
        let src = r#"__kernel void w(__global int* a) {
            int x = 0;
            while (x < 5) x++;
            int y = 0;
            do { y += 2; } while (y < 1);
            a[0] = x;
            a[1] = y;
        }"#;
        let mut bufs = vec![GlobalBuffer::zeroed(8)];
        run(
            src,
            "w",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(1, 1),
        )
        .unwrap();
        assert_eq!(bufs[0].as_i32(), vec![5, 2]);
    }

    #[test]
    fn break_and_continue() {
        let src = r#"__kernel void bc(__global int* a) {
            int sum = 0;
            for (int i = 0; i < 100; i++) {
                if (i % 2 == 0) continue;
                if (i > 8) break;
                sum += i;
            }
            a[0] = sum; // 1+3+5+7 = 16
        }"#;
        let mut bufs = vec![GlobalBuffer::zeroed(4)];
        run(
            src,
            "bc",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(1, 1),
        )
        .unwrap();
        assert_eq!(bufs[0].as_i32(), vec![16]);
    }

    #[test]
    fn ternary_and_logical_ops() {
        let src = r#"__kernel void t(__global int* a) {
            int x = a[0];
            a[1] = (x > 0 && x < 10) ? 1 : 0;
            a[2] = (x < 0 || x == 5) ? 7 : 8;
            a[3] = !(x == 5) ? 100 : 200;
        }"#;
        let mut bufs = vec![GlobalBuffer::from_i32(&[5, 0, 0, 0])];
        run(
            src,
            "t",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(1, 1),
        )
        .unwrap();
        assert_eq!(bufs[0].as_i32(), vec![5, 1, 7, 200]);
    }

    #[test]
    fn unsigned_comparison_uses_unsigned_order() {
        let src = r#"__kernel void u(__global uint* a) {
            uint big = 0xFFFFFFFFu;
            a[0] = (big > 1u) ? 1u : 0u;
        }"#;
        let mut bufs = vec![GlobalBuffer::from_u32(&[0])];
        run(
            src,
            "u",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(1, 1),
        )
        .unwrap();
        assert_eq!(bufs[0].as_u32(), vec![1]);
    }

    #[test]
    fn pointer_offset_arithmetic() {
        let src = r#"__kernel void p(__global float* a, int off) {
            __global float* q = a;
            q = q + off;
            q[0] = 42.0f;
        }"#;
        // Pointer variables are declared via parameters only in the subset;
        // this uses a pointer parameter reassignment instead.
        let src2 = r#"__kernel void p(__global float* a, int off) {
            a = a + off;
            a[0] = 42.0f;
        }"#;
        let _ = src;
        let mut bufs = vec![GlobalBuffer::from_f32(&[0.0, 0.0, 0.0])];
        let args = [ArgValue::global(0), ArgValue::from_i32(2)];
        run(src2, "p", &args, &mut bufs, &NdRange::linear(1, 1)).unwrap();
        assert_eq!(bufs[0].as_f32(), vec![0.0, 0.0, 42.0]);
    }

    #[test]
    fn stats_count_instructions() {
        let src = r#"__kernel void s(__global int* a) { a[get_global_id(0)] = 1; }"#;
        let mut bufs = vec![GlobalBuffer::zeroed(4 * 8)];
        let one = run(
            src,
            "s",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(1, 1),
        )
        .unwrap();
        let eight = run(
            src,
            "s",
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(8, 1),
        )
        .unwrap();
        assert_eq!(eight.instructions, one.instructions * 8);
    }

    // --- Engine equivalence. ----------------------------------------------

    const ALL_ENGINES: [EngineKind; 3] = [
        EngineKind::Interp,
        EngineKind::CompiledSerial,
        EngineKind::Compiled,
    ];

    /// Runs `kernel` on every engine and asserts byte-identical buffers,
    /// identical stats, and identical errors across all of them.
    fn assert_engines_agree(
        src: &str,
        kernel: &str,
        args: &[ArgValue],
        buffers: &[GlobalBuffer],
        range: &NdRange,
    ) {
        let p = compile(src).expect("compile");
        let k = p.kernel(kernel).expect("kernel");
        let mut reference: Option<(Result<ExecStats, ExecError>, Vec<GlobalBuffer>)> = None;
        for engine in ALL_ENGINES {
            let mut bufs = buffers.to_vec();
            let r = run_ndrange_with_engine(k, args, &mut bufs, range, engine);
            match &reference {
                None => reference = Some((r, bufs)),
                Some((r0, bufs0)) => {
                    assert_eq!(r0, &r, "stats/error diverged on {engine:?}");
                    if r.is_ok() {
                        assert_eq!(bufs0, &bufs, "buffers diverged on {engine:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn engines_agree_on_elementwise_kernel() {
        let src = r#"__kernel void saxpy(__global float* y, __global const float* x,
                                         float a, int n) {
            int i = get_global_id(0);
            if (i < n) y[i] = a * x[i] + y[i];
        }"#;
        let n = 1024u64;
        let y: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let x: Vec<f32> = (0..n).map(|i| (i as f32) * 0.5).collect();
        let bufs = vec![GlobalBuffer::from_f32(&y), GlobalBuffer::from_f32(&x)];
        let args = [
            ArgValue::global(0),
            ArgValue::global(1),
            ArgValue::from_f32(2.5),
            ArgValue::from_i32(n as i32),
        ];
        assert_engines_agree(src, "saxpy", &args, &bufs, &NdRange::linear(n, 64));
    }

    #[test]
    fn engines_agree_on_barrier_kernel() {
        let src = r#"__kernel void rev(__global int* out, __global const int* in) {
            __local int tile[64];
            int l = get_local_id(0);
            int g = get_global_id(0);
            tile[l] = in[g];
            barrier(CLK_LOCAL_MEM_FENCE);
            out[g] = tile[63 - l];
        }"#;
        let n = 512u64;
        let inp: Vec<i32> = (0..n as i32).collect();
        let bufs = vec![
            GlobalBuffer::zeroed(n as usize * 4),
            GlobalBuffer::from_i32(&inp),
        ];
        let args = [ArgValue::global(0), ArgValue::global(1)];
        assert_engines_agree(src, "rev", &args, &bufs, &NdRange::linear(n, 64));
    }

    #[test]
    fn engines_agree_on_runtime_error() {
        let src = r#"__kernel void oob(__global int* a, int n) {
            a[n] = 1;
        }"#;
        let bufs = vec![GlobalBuffer::from_i32(&[0; 4])];
        let args = [ArgValue::global(0), ArgValue::from_i32(100)];
        assert_engines_agree(src, "oob", &args, &bufs, &NdRange::linear(1, 1));
    }

    #[test]
    fn parallel_gate_admits_elementwise_and_rejects_scatter() {
        let src = r#"
            __kernel void scale(__global float* y, float a, int n) {
                int i = get_global_id(0);
                if (i < n) y[i] = y[i] * a;
            }
            __kernel void scatter(__global int* out, __global const int* idx) {
                out[idx[get_global_id(0)]] = 1;
            }
        "#;
        let p = compile(src).expect("compile");
        let range = NdRange::linear(1024, 64);
        let scale = p.kernel("scale").unwrap();
        assert!(parallel_groups_safe(
            scale,
            &[
                ArgValue::global(0),
                ArgValue::from_f32(2.0),
                ArgValue::from_i32(1024)
            ],
            &range,
        ));
        let scatter = p.kernel("scatter").unwrap();
        assert!(!parallel_groups_safe(
            scatter,
            &[ArgValue::global(0), ArgValue::global(1)],
            &range,
        ));
    }

    #[test]
    fn parallel_gate_rejects_aliased_written_buffer() {
        let src = r#"__kernel void copy(__global int* out, __global const int* in) {
            int i = get_global_id(0);
            out[i] = in[i];
        }"#;
        let p = compile(src).expect("compile");
        let k = p.kernel("copy").unwrap();
        let range = NdRange::linear(1024, 64);
        assert!(parallel_groups_safe(
            k,
            &[ArgValue::global(0), ArgValue::global(1)],
            &range,
        ));
        assert!(!parallel_groups_safe(
            k,
            &[ArgValue::global(0), ArgValue::global(0)],
            &range,
        ));
    }

    #[test]
    fn parallel_gate_requires_single_group_in_other_dims() {
        // Writes are gid(0)-private, but a 2-D launch with several groups
        // along dim 1 would repeat gid(0) across groups — must reject.
        let src = r#"__kernel void f(__global int* out) {
            out[get_global_id(0)] = 1;
        }"#;
        let p = compile(src).expect("compile");
        let k = p.kernel("f").unwrap();
        assert!(parallel_groups_safe(
            k,
            &[ArgValue::global(0)],
            &NdRange::d2([1024, 4], [64, 4]),
        ));
        assert!(!parallel_groups_safe(
            k,
            &[ArgValue::global(0)],
            &NdRange::d2([1024, 8], [64, 4]),
        ));
    }
}
