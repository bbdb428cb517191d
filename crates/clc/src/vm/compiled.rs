//! The compiled execution engine.
//!
//! Lowers a kernel's bytecode **once** into statement-level superops:
//! within each basic block the operand stack is abstract-interpreted at
//! lowering time, rebuilding the expression trees the front end
//! originally flattened. Each effectful instruction (store, branch,
//! barrier, return) becomes a single op that evaluates its whole
//! operand tree directly — no runtime operand stack exists at all.
//! Values that cross a block seam are spilled to canonical temporary
//! slots appended after the kernel's declared slots, so control-flow
//! joins (short-circuit booleans, conditional expressions) still see
//! one well-defined location per stack depth. Each kernel is lowered
//! exactly once, when [`crate::sema`] builds it; the result rides on the
//! [`CompiledKernel`] (see [`Lowered`]), so launches never lower again.
//!
//! Observational equivalence with the reference interpreter is a hard
//! requirement (the differential proptests assert byte-identical
//! buffers, identical [`ExecStats`] and identical errors):
//!
//! * every value transformation funnels through the same
//!   [`super::ops`] helpers the interpreter uses, and trees evaluate
//!   operands in original push order;
//! * each op retires a contiguous range of `covers` original
//!   instructions, so instruction counts match exactly on every path;
//! * deferral never reorders observable failures: before any op that
//!   can fail executes, pending trees containing fallible work are
//!   spilled in push order, pending memory reads are spilled before
//!   any memory write, and pending reads of a slot are spilled before
//!   that slot is overwritten;
//! * control flow only ever enters at block seams, where a pc → op
//!   index table gives the exact entry point, and `item.pc` remains a
//!   bytecode pc so barrier-divergence diagnostics are identical;
//! * items run under the same pass-based round-robin group schedule
//!   ([`interp::build_items`] / [`interp::barrier_stall_check`]).

use std::fmt;
use std::sync::Arc;

use crate::bytecode::{BinKind, CmpKind, CompiledKernel, Geom, Instr, Math1, Math2};
use crate::types::ScalarType;

use super::interp::{barrier_stall_check, build_items, Item, ItemStatus};
use super::ops::*;
use super::*;

/// What an op tells the dispatch loop to do next.
pub(super) enum Step {
    /// Fall through to the next op.
    Next,
    /// Transfer control to an absolute bytecode pc.
    Jump(u32),
    /// Suspend the item at a barrier.
    Barrier,
    /// The item finished.
    Done,
}

/// A compiled op: closure plus how many original instructions it
/// retires. Spill helper ops retire zero; each instruction is retired
/// by exactly one op on any executed path.
type OpFn =
    Box<dyn for<'a, 'm> Fn(&mut Frame<'a, 'm>, &[Node]) -> Result<Step, ExecError> + Send + Sync>;

struct Op {
    run: OpFn,
    covers: u32,
}

/// A kernel lowered to superop form.
pub(crate) struct CompiledCode {
    /// Dense op sequence (several ops can share one bytecode position).
    ops: Vec<Op>,
    /// Arena of expression-tree nodes referenced by the ops.
    nodes: Vec<Node>,
    /// For every bytecode pc that control can enter (block seams,
    /// barrier resume points), the op index to start at.
    ip_at: Vec<u32>,
    /// Slots each item needs: declared slots plus spill temporaries.
    min_slots: u32,
    /// Whether the bytecode contains any `Barrier`. Barrier-free
    /// kernels run items one at a time with a reused activation record
    /// instead of materializing the whole group.
    has_barrier: bool,
    /// Lowering bailed (non-reconstructible stack shapes); execute via
    /// the interpreter instead. Never taken for sema-produced bytecode.
    fallback: bool,
}

/// A kernel's lowered code, carried on its [`CompiledKernel`] and shared
/// by its clones. It is a pure function of the kernel's bytecode, so it
/// takes no part in the kernel's `PartialEq` or `Debug`.
#[derive(Clone)]
pub(crate) struct Lowered(Arc<CompiledCode>);

impl Lowered {
    /// Lowers `code` (see the module docs).
    pub(crate) fn new(code: &[Instr]) -> Self {
        Lowered(Arc::new(lower(code)))
    }
}

impl PartialEq for Lowered {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for Lowered {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Lowered")
    }
}

/// Per-activation execution context handed to every op closure.
pub(super) struct Frame<'a, 'm> {
    pub(super) slots: &'a mut Vec<Value>,
    pub(super) mem: &'a mut Memory<'m>,
    pub(super) arena: &'a mut [u8],
    pub(super) global_id: [u64; 3],
    pub(super) local_id: [u64; 3],
    pub(super) group_id: [u64; 3],
    pub(super) num_groups: [u64; 3],
    pub(super) global: [u64; 3],
    pub(super) local: [u64; 3],
    pub(super) work_dim: u32,
}

/// How an engine reaches `__global` memory.
///
/// The serial paths hold the buffers exclusively; the parallel path
/// shares them between workers through [`SharedBufs`] raw views (the
/// effect prover guarantees the byte ranges workers touch are
/// disjoint — see `vm/parallel.rs`).
pub(super) enum Memory<'m> {
    Excl(&'m mut [GlobalBuffer]),
    Shared(&'m SharedBufs),
}

impl Memory<'_> {
    #[inline]
    fn load(&self, b: usize, elem: ScalarType, offset: i64) -> Result<Value, ExecError> {
        match self {
            Memory::Excl(bufs) => bufs
                .get(b)
                .ok_or_else(|| dangling_buffer(b))?
                .load(elem, offset),
            Memory::Shared(shared) => shared.load(b, elem, offset),
        }
    }

    #[inline]
    fn store(
        &mut self,
        b: usize,
        elem: ScalarType,
        offset: i64,
        v: &Value,
    ) -> Result<(), ExecError> {
        match self {
            Memory::Excl(bufs) => bufs
                .get_mut(b)
                .ok_or_else(|| dangling_buffer(b))?
                .store(elem, offset, v),
            Memory::Shared(shared) => shared.store(b, elem, offset, v),
        }
    }
}

/// Raw views of every global buffer, shareable across worker threads.
///
/// Access goes through raw pointers only — no `&mut` reference to the
/// underlying bytes is ever materialized while workers run, so the only
/// soundness requirement is the one the effect prover discharges:
/// no byte is written by one worker while another worker touches it.
pub(super) struct SharedBufs {
    bufs: Vec<RawBuf>,
}

struct RawBuf {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the raw pointers are only dereferenced on byte ranges the
// effect prover shows are disjoint between threads (`parallel_groups_safe`).
unsafe impl Send for SharedBufs {}
unsafe impl Sync for SharedBufs {}

impl SharedBufs {
    pub(super) fn new(buffers: &mut [GlobalBuffer]) -> SharedBufs {
        SharedBufs {
            bufs: buffers
                .iter_mut()
                .map(|b| {
                    let s = b.as_bytes_mut();
                    RawBuf {
                        ptr: s.as_mut_ptr(),
                        len: s.len(),
                    }
                })
                .collect(),
        }
    }

    fn load(&self, b: usize, elem: ScalarType, offset: i64) -> Result<Value, ExecError> {
        let rb = self.bufs.get(b).ok_or_else(|| dangling_buffer(b))?;
        let sz = elem.size_bytes();
        let off = checked_offset(offset, sz, rb.len)?;
        let mut tmp = [0u8; 8];
        // SAFETY: `off + sz <= rb.len` by `checked_offset`; disjointness
        // from concurrent writers is guaranteed by the parallel gate.
        unsafe { std::ptr::copy_nonoverlapping(rb.ptr.add(off), tmp.as_mut_ptr(), sz) };
        Ok(decode_scalar(&tmp[..sz], elem))
    }

    fn store(&self, b: usize, elem: ScalarType, offset: i64, v: &Value) -> Result<(), ExecError> {
        let rb = self.bufs.get(b).ok_or_else(|| dangling_buffer(b))?;
        let sz = elem.size_bytes();
        let off = checked_offset(offset, sz, rb.len)?;
        let mut tmp = [0u8; 8];
        write_scalar(&mut tmp[..sz], elem, v);
        // SAFETY: in-bounds per `checked_offset`; no other thread touches
        // these bytes per the parallel gate.
        unsafe { std::ptr::copy_nonoverlapping(tmp.as_ptr(), rb.ptr.add(off), sz) };
        Ok(())
    }
}

// --- compiled-local fast paths ---------------------------------------------
//
// The helpers below mirror the shared semantics in `ops.rs` / `vm/mod.rs`
// for the handful of type combinations the hot kernel loops actually hit,
// and fall back to the shared implementations for everything else — every
// error path goes through the shared code, so messages stay byte-identical.
// They exist only so the compiled engine's inner loops avoid uninlined
// calls; the interpreter never touches them and remains the frozen
// reference. `tests/engine_differential.rs` pins the equivalence.

/// [`bin_op`] with the F32/I32 common cases handled inline.
#[inline(always)]
fn bin_fast(k: BinKind, ty: ScalarType, a: Value, b: Value) -> Result<Value, ExecError> {
    match (a, b) {
        // `bin_op` computes F32 via `to_f64_lossy() as f32`, which
        // round-trips f32 operands exactly, so native f32 arithmetic is
        // bit-identical.
        (Value::F32(x), Value::F32(y)) if ty == ScalarType::F32 => match k {
            BinKind::Add => return Ok(Value::F32(x + y)),
            BinKind::Sub => return Ok(Value::F32(x - y)),
            BinKind::Mul => return Ok(Value::F32(x * y)),
            BinKind::Div => return Ok(Value::F32(x / y)),
            _ => {}
        },
        // Sign-extend → wrap in i64 → truncate equals native i32
        // wrapping arithmetic for these operators (not shifts/div).
        (Value::I32(x), Value::I32(y)) if ty == ScalarType::I32 => match k {
            BinKind::Add => return Ok(Value::I32(x.wrapping_add(y))),
            BinKind::Sub => return Ok(Value::I32(x.wrapping_sub(y))),
            BinKind::Mul => return Ok(Value::I32(x.wrapping_mul(y))),
            BinKind::And => return Ok(Value::I32(x & y)),
            BinKind::Or => return Ok(Value::I32(x | y)),
            BinKind::Xor => return Ok(Value::I32(x ^ y)),
            _ => {}
        },
        _ => {}
    }
    bin_op(k, ty, a, b)
}

/// [`cmp_op`] with the F32/I32 common cases handled inline.
#[inline(always)]
fn cmp_fast(k: CmpKind, ty: ScalarType, a: Value, b: Value) -> bool {
    match (a, b) {
        // Widening to i64 preserves order and equality.
        (Value::I32(x), Value::I32(y))
            if matches!(ty, ScalarType::Bool | ScalarType::I32 | ScalarType::I64) =>
        {
            match k {
                CmpKind::Eq => x == y,
                CmpKind::Ne => x != y,
                CmpKind::Lt => x < y,
                CmpKind::Le => x <= y,
                CmpKind::Gt => x > y,
                CmpKind::Ge => x >= y,
            }
        }
        // f32 → f64 is exact, so comparing in f32 matches f64.
        (Value::F32(x), Value::F32(y)) if ty.is_float() => match k {
            CmpKind::Eq => x == y,
            CmpKind::Ne => x != y,
            CmpKind::Lt => x < y,
            CmpKind::Le => x <= y,
            CmpKind::Gt => x > y,
            CmpKind::Ge => x >= y,
        },
        _ => cmp_op(k, ty, a, b),
    }
}

/// [`Value::as_index`] with the I32 case (every loop induction variable)
/// handled inline.
#[inline(always)]
fn idx_fast(v: Value) -> Result<i64, ExecError> {
    if let Value::I32(x) = v {
        return Ok(i64::from(x));
    }
    v.as_index()
}

/// [`Value::as_ptr`] with the success case handled inline.
#[inline(always)]
fn ptr_fast(v: Value) -> Result<Ptr, ExecError> {
    if let Value::Ptr(p) = v {
        return Ok(p);
    }
    v.as_ptr()
}

/// [`math1`] with the F32 case handled inline: the shared helper widens
/// to f64, applies the op, and narrows — replayed here verbatim, minus
/// the call.
#[inline(always)]
fn math1_fast(m: Math1, ty: ScalarType, a: Value) -> Value {
    if ty == ScalarType::F32 {
        if let Value::F32(v) = a {
            let x = f64::from(v);
            let r = match m {
                Math1::Sqrt => x.sqrt(),
                Math1::Rsqrt => 1.0 / x.sqrt(),
                Math1::Abs => x.abs(),
                Math1::Exp => x.exp(),
                Math1::Log => x.ln(),
                Math1::Log2 => x.log2(),
                Math1::Sin => x.sin(),
                Math1::Cos => x.cos(),
                Math1::Tan => x.tan(),
                Math1::Floor => x.floor(),
                Math1::Ceil => x.ceil(),
            };
            return Value::F32(r as f32);
        }
    }
    math1(m, ty, a)
}

/// Local replica of `decode_scalar` so in-bounds loads stay inline.
#[inline(always)]
fn decode_fast(bytes: &[u8], elem: ScalarType) -> Value {
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

/// Local replica of `write_scalar` so in-bounds stores stay inline.
#[inline(always)]
fn write_fast(dst: &mut [u8], elem: ScalarType, v: &Value) {
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

#[inline(always)]
fn mem_load(f: &mut Frame<'_, '_>, p: Ptr, elem: ScalarType) -> Result<Value, ExecError> {
    // Fast path: an in-bounds global load from exclusively-held buffers.
    // The bounds test mirrors `checked_offset`; anything that would fail
    // it (negative index, multiply/add overflow, out of range) falls
    // through to the shared slow path for the canonical error message.
    if let (PtrSpace::Global(b), Memory::Excl(bufs)) = (p.space, &*f.mem) {
        if let Some(buf) = bufs.get(b) {
            let bytes = buf.as_bytes();
            let sz = elem.size_bytes();
            if p.offset >= 0 {
                if let Some(off) = (p.offset as usize).checked_mul(sz) {
                    if off.checked_add(sz).is_some_and(|end| end <= bytes.len()) {
                        return Ok(decode_fast(&bytes[off..off + sz], elem));
                    }
                }
            }
        }
    }
    match p.space {
        PtrSpace::Global(b) => f.mem.load(b, elem, p.offset),
        PtrSpace::Local => load_arena(f.arena, elem, p.offset),
    }
}

#[inline(always)]
fn mem_store(f: &mut Frame<'_, '_>, p: Ptr, elem: ScalarType, v: &Value) -> Result<(), ExecError> {
    // Same shape as the `mem_load` fast path, for exclusive global stores.
    if let (PtrSpace::Global(b), Memory::Excl(bufs)) = (p.space, &mut *f.mem) {
        if let Some(buf) = bufs.get_mut(b) {
            let sz = elem.size_bytes();
            let bytes = buf.as_bytes_mut();
            if p.offset >= 0 {
                if let Some(off) = (p.offset as usize).checked_mul(sz) {
                    if off.checked_add(sz).is_some_and(|end| end <= bytes.len()) {
                        write_fast(&mut bytes[off..off + sz], elem, v);
                        return Ok(());
                    }
                }
            }
        }
    }
    match p.space {
        PtrSpace::Global(b) => f.mem.store(b, elem, p.offset, v),
        PtrSpace::Local => store_arena(f.arena, elem, p.offset, v),
    }
}

#[inline]
fn query(f: &Frame<'_, '_>, g: Geom, dim: i64) -> Value {
    let d = (dim as usize).min(2);
    Value::U64(match g {
        Geom::GlobalId => f.global_id[d],
        Geom::LocalId => f.local_id[d],
        Geom::GroupId => f.group_id[d],
        Geom::GlobalSize => f.global[d],
        Geom::LocalSize => f.local[d],
        Geom::NumGroups => f.num_groups[d],
        Geom::WorkDim => u64::from(f.work_dim),
    })
}

// --- expression trees ------------------------------------------------------

/// Index into [`CompiledCode::nodes`].
type NodeId = u32;

/// One node of a reconstructed expression tree. Children are arena
/// indices, so trees are compact and sharing a subtree (`Dup` of a
/// spilled value) is a plain index copy.
#[derive(Clone, Copy)]
enum Node {
    /// Immediate resolved at lowering time (also pre-built local
    /// pointers from `PushLocalPtr`).
    Const(Value),
    /// Read a local slot (kernel slot or spill temporary).
    Slot(u32),
    /// Work-item geometry query; child is the dimension operand.
    Query(Geom, NodeId),
    Bin(BinKind, ScalarType, NodeId, NodeId),
    Cmp(CmpKind, ScalarType, NodeId, NodeId),
    Neg(ScalarType, NodeId),
    BitNot(ScalarType, NodeId),
    NotBool(NodeId),
    Cast(ScalarType, NodeId),
    Math1(Math1, ScalarType, NodeId),
    Math2(Math2, ScalarType, NodeId, NodeId),
    /// `(pointer, index)` — evaluation checks the index first, then the
    /// pointer, matching the interpreter's pop order.
    PtrAdd(NodeId, NodeId),
    LoadMem(ScalarType, NodeId),
    /// `PtrAdd` + `LoadMem` folded: `(elem, pointer, index)`. Checks
    /// run in the interpreter's order (index, then pointer, then the
    /// bounds-checked load).
    LoadIdx(ScalarType, NodeId, NodeId),
    /// `LoadIdx` whose index is itself a binary —
    /// `(elem, op, index type, pointer, a, b)` for `p[a op b]`, the
    /// strided-access shape (`vars[slice_len + c]`).
    LoadIdxB(ScalarType, BinKind, ScalarType, NodeId, NodeId, NodeId),
    /// `LoadIdx` whose index is a fused binary pair —
    /// `(elem, outer, inner, index type, pointer, a, b, c)` for
    /// `p[outer(inner(a, b), c)]`, the row-major address shape
    /// (`base[i * n + k]`).
    LoadIdxMA(
        ScalarType,
        BinKind,
        BinKind,
        ScalarType,
        NodeId,
        NodeId,
        NodeId,
        NodeId,
    ),
    /// Two binaries at one scalar type fused into a single node:
    /// `outer(inner(a, b), c)`. Evaluation replays the exact `bin_op`
    /// sequence of the unfused pair, one tree dispatch cheaper. This is
    /// the index-arithmetic shape (`i * n + k`).
    BinLL(BinKind, BinKind, ScalarType, NodeId, NodeId, NodeId),
    /// Mirrored fusion: `outer(c, inner(a, b))` — the accumulate shape
    /// (`acc + x * y`).
    BinLR(BinKind, BinKind, ScalarType, NodeId, NodeId, NodeId),
    /// The abstract stack was empty where bytecode consumed a value;
    /// evaluating reproduces the interpreter's underflow error.
    Underflow,
}

/// Resolves an operand, short-circuiting the leaf kinds so the common
/// slot/immediate fetches cost no function call.
#[inline(always)]
fn operand(nodes: &[Node], id: NodeId, f: &mut Frame<'_, '_>) -> Result<Value, ExecError> {
    match nodes[id as usize] {
        Node::Const(v) => Ok(v),
        Node::Slot(s) => Ok(f.slots[s as usize]),
        _ => eval(nodes, id, f),
    }
}

/// Like [`operand`], but also inlines the fused-load family — the
/// dominant interior shapes of accumulate statements (`acc += p[i] *
/// q[j]`). Used inside the specialized op-root closures, where the
/// larger inlined body is paid once per emitted op rather than once
/// per `eval` call site.
#[inline(always)]
fn operand_load(nodes: &[Node], id: NodeId, f: &mut Frame<'_, '_>) -> Result<Value, ExecError> {
    match nodes[id as usize] {
        Node::Const(v) => Ok(v),
        Node::Slot(s) => Ok(f.slots[s as usize]),
        Node::LoadIdx(elem, p, i) => load_idx(nodes, elem, p, i, f),
        Node::LoadIdxB(elem, k, ity, p, a, b) => load_idx_b(nodes, elem, k, ity, p, a, b, f),
        Node::LoadIdxMA(elem, ko, ki, ity, p, a, b, c) => {
            load_idx_ma(nodes, elem, ko, ki, ity, p, a, b, c, f)
        }
        _ => eval(nodes, id, f),
    }
}

/// Body of [`Node::LoadIdx`]: checks and loads in the interpreter's
/// order (index, then pointer, then the bounds-checked load).
#[inline(always)]
fn load_idx(
    nodes: &[Node],
    elem: ScalarType,
    p: NodeId,
    i: NodeId,
    f: &mut Frame<'_, '_>,
) -> Result<Value, ExecError> {
    let pv = operand(nodes, p, f)?;
    let iv = operand(nodes, i, f)?;
    let idx = idx_fast(iv)?;
    let pp = ptr_fast(pv)?;
    let pp = Ptr {
        offset: pp.offset + idx,
        ..pp
    };
    mem_load(f, pp, elem)
}

/// Body of [`Node::LoadIdxB`]: `p[a op b]` with the exact unfused
/// `bin_op` and check order.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn load_idx_b(
    nodes: &[Node],
    elem: ScalarType,
    k: BinKind,
    ity: ScalarType,
    p: NodeId,
    a: NodeId,
    b: NodeId,
    f: &mut Frame<'_, '_>,
) -> Result<Value, ExecError> {
    let pv = operand(nodes, p, f)?;
    let x = operand(nodes, a, f)?;
    let y = operand(nodes, b, f)?;
    let idx = idx_fast(bin_fast(k, ity, x, y)?)?;
    let pp = ptr_fast(pv)?;
    let pp = Ptr {
        offset: pp.offset + idx,
        ..pp
    };
    mem_load(f, pp, elem)
}

/// Body of [`Node::LoadIdxMA`]: `p[outer(inner(a, b), c)]` with the
/// exact unfused `bin_op` and check order.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn load_idx_ma(
    nodes: &[Node],
    elem: ScalarType,
    ko: BinKind,
    ki: BinKind,
    ity: ScalarType,
    p: NodeId,
    a: NodeId,
    b: NodeId,
    c: NodeId,
    f: &mut Frame<'_, '_>,
) -> Result<Value, ExecError> {
    let pv = operand(nodes, p, f)?;
    let x = operand(nodes, a, f)?;
    let y = operand(nodes, b, f)?;
    let m = bin_fast(ki, ity, x, y)?;
    let z = operand(nodes, c, f)?;
    let idx = idx_fast(bin_fast(ko, ity, m, z)?)?;
    let pp = ptr_fast(pv)?;
    let pp = Ptr {
        offset: pp.offset + idx,
        ..pp
    };
    mem_load(f, pp, elem)
}

/// Evaluates a tree. Operand subtrees evaluate in original push order,
/// so the first observable failure is the same one the interpreter hits.
fn eval(nodes: &[Node], id: NodeId, f: &mut Frame<'_, '_>) -> Result<Value, ExecError> {
    match nodes[id as usize] {
        Node::Const(v) => Ok(v),
        Node::Slot(s) => Ok(f.slots[s as usize]),
        Node::Query(g, dim) => {
            let d = idx_fast(operand(nodes, dim, f)?)?;
            Ok(query(f, g, d))
        }
        Node::Bin(k, ty, a, b) => {
            let x = operand(nodes, a, f)?;
            let y = operand(nodes, b, f)?;
            bin_fast(k, ty, x, y)
        }
        Node::BinLL(ko, ki, ty, a, b, c) => {
            let x = operand(nodes, a, f)?;
            let y = operand(nodes, b, f)?;
            let m = bin_fast(ki, ty, x, y)?;
            let z = operand(nodes, c, f)?;
            bin_fast(ko, ty, m, z)
        }
        Node::BinLR(ko, ki, ty, a, b, c) => {
            let z = operand(nodes, c, f)?;
            let x = operand(nodes, a, f)?;
            let y = operand(nodes, b, f)?;
            let m = bin_fast(ki, ty, x, y)?;
            bin_fast(ko, ty, z, m)
        }
        Node::Cmp(k, ty, a, b) => {
            let x = operand(nodes, a, f)?;
            let y = operand(nodes, b, f)?;
            Ok(Value::Bool(cmp_fast(k, ty, x, y)))
        }
        Node::Neg(ty, a) => Ok(neg_op(ty, operand(nodes, a, f)?)),
        Node::BitNot(ty, a) => {
            let x = operand(nodes, a, f)?.to_i64_lossy();
            Ok(int_value(!x, ty))
        }
        Node::NotBool(a) => Ok(Value::Bool(!operand(nodes, a, f)?.as_bool()?)),
        Node::Cast(to, a) => Ok(operand(nodes, a, f)?.cast(to)),
        Node::Math1(m, ty, a) => Ok(math1_fast(m, ty, operand(nodes, a, f)?)),
        Node::Math2(m, ty, a, b) => {
            let x = operand(nodes, a, f)?;
            let y = operand(nodes, b, f)?;
            Ok(math2(m, ty, x, y))
        }
        Node::PtrAdd(p, i) => {
            let pv = operand(nodes, p, f)?;
            let iv = operand(nodes, i, f)?;
            let idx = idx_fast(iv)?;
            let pp = ptr_fast(pv)?;
            Ok(Value::Ptr(Ptr {
                offset: pp.offset + idx,
                ..pp
            }))
        }
        Node::LoadMem(elem, p) => {
            let pp = ptr_fast(operand(nodes, p, f)?)?;
            mem_load(f, pp, elem)
        }
        Node::LoadIdx(elem, p, i) => load_idx(nodes, elem, p, i, f),
        Node::LoadIdxB(elem, k, ity, p, a, b) => load_idx_b(nodes, elem, k, ity, p, a, b, f),
        Node::LoadIdxMA(elem, ko, ki, ity, p, a, b, c) => {
            load_idx_ma(nodes, elem, ko, ki, ity, p, a, b, c, f)
        }
        Node::Underflow => Err(ExecError::new("operand stack underflow")),
    }
}

/// Whether `bin_op` can return an error for this kind/type pair
/// (integer division by zero, or an integer-only operator applied to a
/// float type).
fn bin_can_err(k: BinKind, ty: ScalarType) -> bool {
    if ty.is_float() {
        !matches!(k, BinKind::Add | BinKind::Sub | BinKind::Mul | BinKind::Div)
    } else {
        matches!(k, BinKind::Div | BinKind::Rem)
    }
}

/// Whether evaluating the tree can produce an `ExecError`. Used to keep
/// deferred work from reordering observable failures.
fn is_fallible(nodes: &[Node], id: NodeId) -> bool {
    match nodes[id as usize] {
        Node::Const(_) | Node::Slot(_) => false,
        Node::Underflow
        | Node::Query(..)
        | Node::NotBool(_)
        | Node::PtrAdd(..)
        | Node::LoadMem(..)
        | Node::LoadIdx(..)
        | Node::LoadIdxB(..)
        | Node::LoadIdxMA(..) => true,
        Node::Bin(k, ty, a, b) => {
            bin_can_err(k, ty) || is_fallible(nodes, a) || is_fallible(nodes, b)
        }
        Node::BinLL(ko, ki, ty, a, b, c) | Node::BinLR(ko, ki, ty, a, b, c) => {
            bin_can_err(ko, ty)
                || bin_can_err(ki, ty)
                || is_fallible(nodes, a)
                || is_fallible(nodes, b)
                || is_fallible(nodes, c)
        }
        Node::Cmp(_, _, a, b) | Node::Math2(_, _, a, b) => {
            is_fallible(nodes, a) || is_fallible(nodes, b)
        }
        Node::Neg(_, a) | Node::BitNot(_, a) | Node::Cast(_, a) | Node::Math1(_, _, a) => {
            is_fallible(nodes, a)
        }
    }
}

/// Whether the tree reads memory (global or `__local`); such trees must
/// not be deferred across a memory write.
fn reads_mem(nodes: &[Node], id: NodeId) -> bool {
    match nodes[id as usize] {
        Node::Const(_) | Node::Slot(_) | Node::Underflow => false,
        Node::LoadMem(..) | Node::LoadIdx(..) | Node::LoadIdxB(..) | Node::LoadIdxMA(..) => true,
        Node::Query(_, a)
        | Node::Neg(_, a)
        | Node::BitNot(_, a)
        | Node::NotBool(a)
        | Node::Cast(_, a)
        | Node::Math1(_, _, a) => reads_mem(nodes, a),
        Node::Bin(_, _, a, b)
        | Node::Cmp(_, _, a, b)
        | Node::Math2(_, _, a, b)
        | Node::PtrAdd(a, b) => reads_mem(nodes, a) || reads_mem(nodes, b),
        Node::BinLL(_, _, _, a, b, c) | Node::BinLR(_, _, _, a, b, c) => {
            reads_mem(nodes, a) || reads_mem(nodes, b) || reads_mem(nodes, c)
        }
    }
}

/// Whether the tree reads local slot `s`; such trees must not be
/// deferred across a store to `s`.
fn reads_slot(nodes: &[Node], id: NodeId, s: u32) -> bool {
    match nodes[id as usize] {
        Node::Const(_) | Node::Underflow => false,
        Node::Slot(x) => x == s,
        Node::Query(_, a)
        | Node::Neg(_, a)
        | Node::BitNot(_, a)
        | Node::NotBool(a)
        | Node::Cast(_, a)
        | Node::Math1(_, _, a) => reads_slot(nodes, a, s),
        Node::LoadMem(_, a) => reads_slot(nodes, a, s),
        Node::Bin(_, _, a, b)
        | Node::Cmp(_, _, a, b)
        | Node::Math2(_, _, a, b)
        | Node::PtrAdd(a, b)
        | Node::LoadIdx(_, a, b) => reads_slot(nodes, a, s) || reads_slot(nodes, b, s),
        Node::BinLL(_, _, _, a, b, c)
        | Node::BinLR(_, _, _, a, b, c)
        | Node::LoadIdxB(_, _, _, a, b, c) => {
            reads_slot(nodes, a, s) || reads_slot(nodes, b, s) || reads_slot(nodes, c, s)
        }
        Node::LoadIdxMA(_, _, _, _, p, a, b, c) => {
            reads_slot(nodes, p, s)
                || reads_slot(nodes, a, s)
                || reads_slot(nodes, b, s)
                || reads_slot(nodes, c, s)
        }
    }
}

/// Branch step helper shared by the branch ops.
#[inline]
fn branch(cond: bool, on_true: bool, t: u32) -> Step {
    if cond == on_true {
        Step::Jump(t)
    } else {
        Step::Next
    }
}

// --- lowering --------------------------------------------------------------

struct Lowerer<'c> {
    code: &'c [Instr],
    ops: Vec<Op>,
    nodes: Vec<Node>,
    ip_at: Vec<u32>,
    /// Expected abstract-stack depth at each block seam, recorded the
    /// first time the seam is seen and verified on every other edge.
    entry_depth: Vec<Option<u32>>,
    /// The abstract operand stack: ids of pending (deferred) trees.
    pend: Vec<NodeId>,
    /// First bytecode pc not yet retired by an emitted op.
    retired: usize,
    /// First spill-temporary slot (one past the highest slot the
    /// bytecode references). The temp for abstract depth `d` is
    /// `temp_base + d`, the same on every path into a seam.
    temp_base: u32,
    max_depth: usize,
    /// False while scanning instructions that no control flow reaches
    /// (after an unconditional jump/return, until the next seam).
    live: bool,
    ok: bool,
}

impl Lowerer<'_> {
    fn node(&mut self, n: Node) -> NodeId {
        self.nodes.push(n);
        (self.nodes.len() - 1) as NodeId
    }

    fn push_id(&mut self, id: NodeId) {
        self.pend.push(id);
        self.max_depth = self.max_depth.max(self.pend.len());
    }

    fn push(&mut self, n: Node) {
        let id = self.node(n);
        self.push_id(id);
    }

    fn popn(&mut self) -> NodeId {
        match self.pend.pop() {
            Some(id) => id,
            None => self.node(Node::Underflow),
        }
    }

    /// Emits an op that retires every instruction up to and including
    /// `end_pc`.
    fn emit(&mut self, end_pc: usize, f: OpFn) {
        let covers = (end_pc + 1 - self.retired) as u32;
        self.retired = end_pc + 1;
        self.ops.push(Op { run: f, covers });
    }

    /// Emits a spill/helper op retiring nothing.
    fn emit_aux(&mut self, f: OpFn) {
        self.ops.push(Op { run: f, covers: 0 });
    }

    /// Emits a no-op retiring everything before `up_to` (deferred
    /// pushes dropped by `Pop`, values dead at a seam).
    fn retire_noop(&mut self, up_to: usize) {
        let covers = (up_to - self.retired) as u32;
        self.retired = up_to;
        self.ops.push(Op {
            run: Box::new(|_, _| Ok(Step::Next)),
            covers,
        });
    }

    /// Spills pending entry `i` to its canonical temp slot and replaces
    /// it with a read of that slot. Evaluation happens where the spill
    /// op executes, so callers spill bottom-up to preserve push order.
    fn flush_entry(&mut self, i: usize) {
        let canon = self.temp_base + i as u32;
        if let Node::Slot(s) = self.nodes[self.pend[i] as usize] {
            if s == canon {
                return;
            }
        }
        let src = self.pend[i];
        self.pend[i] = self.node(Node::Slot(canon));
        let slot = canon as usize;
        self.emit_aux(Box::new(move |f, nodes| {
            let v = eval(nodes, src, f)?;
            f.slots[slot] = v;
            Ok(Step::Next)
        }));
    }

    fn flush_all(&mut self) {
        for i in 0..self.pend.len() {
            self.flush_entry(i);
        }
    }

    /// Spills every pending tree containing fallible work (bottom-up,
    /// i.e. push order) so a following fallible op cannot fail first.
    fn flush_fallible(&mut self) {
        for i in 0..self.pend.len() {
            if is_fallible(&self.nodes, self.pend[i]) {
                self.flush_entry(i);
            }
        }
    }

    /// Lowers a conditional branch, specializing the dominant
    /// compare-and-branch loop-header shape.
    fn lower_branch(&mut self, pc: usize, t: u32, on_true: bool) {
        let c = self.popn();
        self.flush_all();
        self.check_target(t, self.pend.len() as u32);
        // A Cmp result is a freshly-built Bool: `as_bool` cannot fail,
        // so folding it into the branch preserves behavior exactly.
        if let Node::Cmp(k, ty, a, b) = self.nodes[c as usize] {
            self.emit(
                pc,
                Box::new(move |f, nodes| {
                    let x = operand_load(nodes, a, f)?;
                    let y = operand_load(nodes, b, f)?;
                    Ok(branch(cmp_fast(k, ty, x, y), on_true, t))
                }),
            );
        } else {
            self.emit(
                pc,
                Box::new(move |f, nodes| {
                    let v = operand(nodes, c, f)?.as_bool()?;
                    Ok(branch(v, on_true, t))
                }),
            );
        }
    }

    /// Records or verifies the abstract-stack depth on an edge into `t`.
    fn check_target(&mut self, t: u32, depth: u32) {
        let ti = t as usize;
        if ti >= self.entry_depth.len() {
            return; // jump past the end: falls off and completes
        }
        match self.entry_depth[ti] {
            None => self.entry_depth[ti] = Some(depth),
            Some(e) if e == depth => {}
            Some(_) => self.ok = false,
        }
    }

    /// Handles a block seam at `pc`: canonicalize live values into the
    /// per-depth temp slots and record the op index control enters at.
    fn boundary(&mut self, pc: usize) {
        if self.live {
            self.flush_all();
            if self.retired < pc {
                self.retire_noop(pc);
            }
            self.check_target(pc as u32, self.pend.len() as u32);
        } else {
            // Reached only by jumps: rebuild the abstract stack as
            // canonical slot reads at the recorded entry depth.
            let d = self.entry_depth[pc].unwrap_or(0);
            self.pend.clear();
            for i in 0..d {
                let canon = self.temp_base + i;
                self.push(Node::Slot(canon));
            }
            self.retired = pc;
            self.live = true;
        }
        self.ip_at[pc] = self.ops.len() as u32;
    }

    fn instr(&mut self, pc: usize) {
        if !self.live {
            // Unreachable instruction: the interpreter never executes
            // it either, so it must not be retired by any live op.
            self.retired = pc + 1;
            return;
        }
        match self.code[pc] {
            Instr::PushInt(v, ty) => self.push(Node::Const(int_value(v, ty))),
            Instr::PushFloat(v, ty) => self.push(Node::Const(if ty == ScalarType::F32 {
                Value::F32(v as f32)
            } else {
                Value::F64(v)
            })),
            Instr::PushBool(b) => self.push(Node::Const(Value::Bool(b))),
            Instr::PushLocalPtr { byte_offset, elem } => {
                self.push(Node::Const(Value::Ptr(Ptr {
                    space: PtrSpace::Local,
                    elem,
                    offset: (byte_offset as usize / elem.size_bytes()) as i64,
                })));
            }
            Instr::LoadLocal(s) => self.push(Node::Slot(u32::from(s))),
            Instr::Query(g) => {
                let d = self.popn();
                self.push(Node::Query(g, d));
            }
            Instr::Bin(k, ty) => {
                let b = self.popn();
                let a = self.popn();
                // Fuse a same-type child binary into one node. The
                // fused evaluation runs the identical `bin_op` sequence
                // in the identical order, so this is unobservable.
                match (self.nodes[a as usize], self.nodes[b as usize]) {
                    (Node::Bin(ki, ti, x, y), _) if ti == ty => {
                        self.push(Node::BinLL(k, ki, ty, x, y, b));
                    }
                    (_, Node::Bin(ki, ti, x, y)) if ti == ty => {
                        self.push(Node::BinLR(k, ki, ty, x, y, a));
                    }
                    _ => self.push(Node::Bin(k, ty, a, b)),
                }
            }
            Instr::Cmp(k, ty) => {
                let b = self.popn();
                let a = self.popn();
                self.push(Node::Cmp(k, ty, a, b));
            }
            Instr::Neg(ty) => {
                let a = self.popn();
                self.push(Node::Neg(ty, a));
            }
            Instr::BitNot(ty) => {
                let a = self.popn();
                self.push(Node::BitNot(ty, a));
            }
            Instr::NotBool => {
                let a = self.popn();
                self.push(Node::NotBool(a));
            }
            Instr::Cast { to, .. } => {
                let a = self.popn();
                self.push(Node::Cast(to, a));
            }
            Instr::CallMath1(m, ty) => {
                let a = self.popn();
                self.push(Node::Math1(m, ty, a));
            }
            Instr::CallMath2(m, ty) => {
                let b = self.popn();
                let a = self.popn();
                self.push(Node::Math2(m, ty, a, b));
            }
            Instr::PtrAdd => {
                let idx = self.popn();
                let p = self.popn();
                self.push(Node::PtrAdd(p, idx));
            }
            Instr::LoadMem(elem) => {
                let p = self.popn();
                // Fold the ubiquitous `base[index]` shape into one
                // node, absorbing a binary-shaped index too; the fused
                // evaluation keeps the exact check and `bin_op` order.
                if let Node::PtrAdd(pp, ii) = self.nodes[p as usize] {
                    match self.nodes[ii as usize] {
                        Node::Bin(k, ity, a, b) => {
                            self.push(Node::LoadIdxB(elem, k, ity, pp, a, b));
                        }
                        Node::BinLL(ko, ki, ity, a, b, c) => {
                            self.push(Node::LoadIdxMA(elem, ko, ki, ity, pp, a, b, c));
                        }
                        _ => self.push(Node::LoadIdx(elem, pp, ii)),
                    }
                } else {
                    self.push(Node::LoadMem(elem, p));
                }
            }
            Instr::Dup => match self.pend.last().copied() {
                None => {
                    // Replicate the interpreter's Dup-specific error.
                    self.emit(
                        pc,
                        Box::new(|_, _| Err(ExecError::new("stack underflow on Dup"))),
                    );
                }
                Some(id) => match self.nodes[id as usize] {
                    Node::Const(_) | Node::Slot(_) => self.push_id(id),
                    _ => {
                        // Materialize once, then share the slot read —
                        // re-evaluating an arbitrary tree could double
                        // a failure or observe an intervening store.
                        for i in 0..self.pend.len() - 1 {
                            if is_fallible(&self.nodes, self.pend[i]) {
                                self.flush_entry(i);
                            }
                        }
                        let last = self.pend.len() - 1;
                        self.flush_entry(last);
                        let id = self.pend[last];
                        self.push_id(id);
                    }
                },
            },
            Instr::Pop => {
                let n = self.popn();
                if is_fallible(&self.nodes, n) {
                    self.flush_fallible();
                    self.emit(
                        pc,
                        Box::new(move |f, nodes| {
                            eval(nodes, n, f)?;
                            Ok(Step::Next)
                        }),
                    );
                }
                // A pure dropped value is unobservable; its pushes are
                // retired by the next emitted op.
            }
            Instr::StoreLocal(s) => {
                let v = self.popn();
                let can_fail = is_fallible(&self.nodes, v);
                for i in 0..self.pend.len() {
                    let e = self.pend[i];
                    if reads_slot(&self.nodes, e, u32::from(s))
                        || (can_fail && is_fallible(&self.nodes, e))
                    {
                        self.flush_entry(i);
                    }
                }
                let slot = usize::from(s);
                // Specialize the hot roots so the op body starts one
                // recursion level down (operands inline via `operand`).
                match self.nodes[v as usize] {
                    Node::Const(c) => self.emit(
                        pc,
                        Box::new(move |f, _| {
                            f.slots[slot] = c;
                            Ok(Step::Next)
                        }),
                    ),
                    Node::Slot(src) => self.emit(
                        pc,
                        Box::new(move |f, _| {
                            f.slots[slot] = f.slots[src as usize];
                            Ok(Step::Next)
                        }),
                    ),
                    Node::Bin(k, ty, a, b) => self.emit(
                        pc,
                        Box::new(move |f, nodes| {
                            let x = operand_load(nodes, a, f)?;
                            let y = operand_load(nodes, b, f)?;
                            f.slots[slot] = bin_fast(k, ty, x, y)?;
                            Ok(Step::Next)
                        }),
                    ),
                    Node::BinLL(ko, ki, ty, a, b, c) => self.emit(
                        pc,
                        Box::new(move |f, nodes| {
                            let x = operand_load(nodes, a, f)?;
                            let y = operand_load(nodes, b, f)?;
                            let m = bin_fast(ki, ty, x, y)?;
                            let z = operand_load(nodes, c, f)?;
                            f.slots[slot] = bin_fast(ko, ty, m, z)?;
                            Ok(Step::Next)
                        }),
                    ),
                    Node::BinLR(ko, ki, ty, a, b, c) => self.emit(
                        pc,
                        Box::new(move |f, nodes| {
                            let z = operand_load(nodes, c, f)?;
                            let x = operand_load(nodes, a, f)?;
                            let y = operand_load(nodes, b, f)?;
                            let m = bin_fast(ki, ty, x, y)?;
                            f.slots[slot] = bin_fast(ko, ty, z, m)?;
                            Ok(Step::Next)
                        }),
                    ),
                    Node::LoadIdx(elem, p, i) => self.emit(
                        pc,
                        Box::new(move |f, nodes| {
                            f.slots[slot] = load_idx(nodes, elem, p, i, f)?;
                            Ok(Step::Next)
                        }),
                    ),
                    Node::LoadIdxB(elem, k, ity, p, a, b) => self.emit(
                        pc,
                        Box::new(move |f, nodes| {
                            f.slots[slot] = load_idx_b(nodes, elem, k, ity, p, a, b, f)?;
                            Ok(Step::Next)
                        }),
                    ),
                    Node::LoadIdxMA(elem, ko, ki, ity, p, a, b, c) => self.emit(
                        pc,
                        Box::new(move |f, nodes| {
                            f.slots[slot] = load_idx_ma(nodes, elem, ko, ki, ity, p, a, b, c, f)?;
                            Ok(Step::Next)
                        }),
                    ),
                    _ => self.emit(
                        pc,
                        Box::new(move |f, nodes| {
                            let val = eval(nodes, v, f)?;
                            f.slots[slot] = val;
                            Ok(Step::Next)
                        }),
                    ),
                }
            }
            Instr::StoreMem(elem) => {
                let v = self.popn();
                let p = self.popn();
                for i in 0..self.pend.len() {
                    let e = self.pend[i];
                    if is_fallible(&self.nodes, e) || reads_mem(&self.nodes, e) {
                        self.flush_entry(i);
                    }
                }
                // Fold a `base[index] = v` pointer: the PtrAdd checks
                // run before the value evaluates, as in the bytecode.
                if let Node::PtrAdd(pp, ii) = self.nodes[p as usize] {
                    self.emit(
                        pc,
                        Box::new(move |f, nodes| {
                            let pv = operand(nodes, pp, f)?;
                            let iv = operand(nodes, ii, f)?;
                            let idx = idx_fast(iv)?;
                            let ptr = ptr_fast(pv)?;
                            let ptr = Ptr {
                                offset: ptr.offset + idx,
                                ..ptr
                            };
                            let vv = operand_load(nodes, v, f)?;
                            mem_store(f, ptr, elem, &vv)?;
                            Ok(Step::Next)
                        }),
                    );
                } else {
                    self.emit(
                        pc,
                        Box::new(move |f, nodes| {
                            // Push order: the pointer tree was built first.
                            let pv = operand(nodes, p, f)?;
                            let vv = operand_load(nodes, v, f)?;
                            let ptr = ptr_fast(pv)?;
                            mem_store(f, ptr, elem, &vv)?;
                            Ok(Step::Next)
                        }),
                    );
                }
            }
            Instr::Jump(t) => {
                self.flush_all();
                self.check_target(t, self.pend.len() as u32);
                self.emit(pc, Box::new(move |_, _| Ok(Step::Jump(t))));
                self.pend.clear();
                self.live = false;
            }
            Instr::JumpIfFalse(t) => self.lower_branch(pc, t, false),
            Instr::JumpIfTrue(t) => self.lower_branch(pc, t, true),
            Instr::Barrier => {
                self.flush_all();
                self.emit(pc, Box::new(|_, _| Ok(Step::Barrier)));
                // Resumption re-enters at the op after the barrier.
                self.ip_at[pc + 1] = self.ops.len() as u32;
            }
            Instr::Return => {
                // Anything fallible still pending would have failed
                // before the interpreter reached this Return.
                self.flush_fallible();
                self.emit(pc, Box::new(|_, _| Ok(Step::Done)));
                self.pend.clear();
                self.live = false;
            }
        }
    }
}

/// Lowers `code` into superop form.
fn lower(code: &[Instr]) -> CompiledCode {
    // Every pc a jump can land on is a block seam.
    let mut target = vec![false; code.len() + 1];
    for i in code {
        if let Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) = *i {
            if (t as usize) < target.len() {
                target[t as usize] = true;
            }
        }
    }
    let temp_base = code
        .iter()
        .map(|i| match *i {
            Instr::LoadLocal(s) | Instr::StoreLocal(s) => u32::from(s) + 1,
            _ => 0,
        })
        .max()
        .unwrap_or(0);
    let mut lw = Lowerer {
        code,
        ops: Vec::with_capacity(code.len() / 2 + 8),
        nodes: Vec::with_capacity(code.len() + 8),
        ip_at: vec![u32::MAX; code.len() + 1],
        entry_depth: vec![None; code.len() + 1],
        pend: Vec::new(),
        retired: 0,
        temp_base,
        max_depth: 0,
        live: true,
        ok: true,
    };
    lw.ip_at[0] = 0;
    for (pc, &is_target) in target[..code.len()].iter().enumerate() {
        if is_target {
            lw.boundary(pc);
        }
        lw.instr(pc);
        if !lw.ok {
            return CompiledCode {
                ops: Vec::new(),
                nodes: Vec::new(),
                ip_at: Vec::new(),
                min_slots: 0,
                has_barrier: false,
                fallback: true,
            };
        }
    }
    if lw.live && lw.retired < code.len() {
        // Dangling pushes before falling off the end still execute.
        lw.retire_noop(code.len());
    }
    lw.ip_at[code.len()] = lw.ops.len() as u32;
    CompiledCode {
        min_slots: lw.temp_base + lw.max_depth as u32,
        ops: lw.ops,
        nodes: lw.nodes,
        ip_at: lw.ip_at,
        has_barrier: code.iter().any(|i| matches!(i, Instr::Barrier)),
        fallback: false,
    }
}

// --- drivers --------------------------------------------------------------

/// Full-launch compiled-engine driver. With `allow_parallel`, runs
/// independent work-groups on a thread pool when the effect prover
/// shows the kernel is safe (sequential fallback otherwise).
pub(super) fn run(
    kernel: &CompiledKernel,
    args: &[ArgValue],
    buffers: &mut [GlobalBuffer],
    range: &NdRange,
    allow_parallel: bool,
) -> Result<ExecStats, ExecError> {
    if kernel.lowered.0.fallback {
        return super::interp::run(kernel, args, buffers, range, None, None);
    }
    range.validate()?;
    let (bound, arena_bytes) = bind_args(kernel, args, buffers.len())?;
    let num_groups = [
        range.global[0] / range.local[0],
        range.global[1] / range.local[1],
        range.global[2] / range.local[2],
    ];
    if allow_parallel {
        if let Some(result) = super::parallel::try_run_parallel(
            kernel,
            &bound,
            args,
            buffers,
            range,
            num_groups,
            arena_bytes,
        ) {
            return result;
        }
    }
    let mut stats = ExecStats::default();
    let mut arena = vec![0u8; arena_bytes];
    let mut mem = Memory::Excl(buffers);
    for gz in 0..num_groups[2] {
        for gy in 0..num_groups[1] {
            for gx in 0..num_groups[0] {
                run_group(
                    kernel,
                    &bound,
                    &mut mem,
                    range,
                    [gx, gy, gz],
                    num_groups,
                    &mut arena,
                    &mut stats,
                )?;
                stats.work_groups += 1;
            }
        }
    }
    Ok(stats)
}

/// Executes one work-group to completion under the shared pass-based
/// round-robin schedule.
#[allow(clippy::too_many_arguments)]
pub(super) fn run_group(
    kernel: &CompiledKernel,
    bound: &[Value],
    mem: &mut Memory<'_>,
    range: &NdRange,
    group_id: [u64; 3],
    num_groups: [u64; 3],
    arena: &mut [u8],
    stats: &mut ExecStats,
) -> Result<(), ExecError> {
    let ccode = &*kernel.lowered.0;
    arena.fill(0);
    let want = (ccode.min_slots as usize).max(usize::from(kernel.n_slots));
    if !ccode.has_barrier {
        // No barrier can suspend an item, so the round-robin schedule
        // degenerates to running each item once in local-id order.
        // Reuse one activation record instead of materializing the
        // whole group: same execution order, same stats, same first
        // error, but zero per-item allocations.
        let mut template = vec![Value::I32(0); want];
        template[..bound.len()].copy_from_slice(bound);
        let mut item = Item {
            pc: 0,
            stack: Vec::new(),
            slots: template.clone(),
            status: ItemStatus::Running,
            global_id: [0; 3],
            local_id: [0; 3],
        };
        let mut count = 0u64;
        for lz in 0..range.local[2] {
            for ly in 0..range.local[1] {
                for lx in 0..range.local[0] {
                    item.pc = 0;
                    item.status = ItemStatus::Running;
                    item.local_id = [lx, ly, lz];
                    item.global_id = [
                        group_id[0] * range.local[0] + lx,
                        group_id[1] * range.local[1] + ly,
                        group_id[2] * range.local[2] + lz,
                    ];
                    item.slots.copy_from_slice(&template);
                    run_item(
                        ccode, &mut item, mem, range, group_id, num_groups, arena, stats,
                    )?;
                    count += 1;
                }
            }
        }
        stats.work_items += count;
        return Ok(());
    }
    let mut items = build_items(kernel, bound, range, group_id);
    if usize::from(kernel.n_slots) < want {
        for item in &mut items {
            item.slots.resize(want, Value::I32(0));
        }
    }
    loop {
        let mut any_running = false;
        for item in items.iter_mut() {
            if item.status == ItemStatus::Running {
                run_item(ccode, item, mem, range, group_id, num_groups, arena, stats)?;
                any_running = true;
            }
        }
        if !any_running {
            if !barrier_stall_check(kernel, &items)? {
                break;
            }
            stats.barriers += 1;
            for item in &mut items {
                item.status = ItemStatus::Running;
            }
        }
    }
    stats.work_items += items.len() as u64;
    Ok(())
}

/// Runs one item until it finishes, suspends at a barrier, or errors.
/// `item.pc` stays a bytecode pc (barrier diagnostics depend on it);
/// the op index advances in lock-step and is recovered from `ip_at` on
/// entry and at every jump.
#[allow(clippy::too_many_arguments)]
fn run_item(
    ccode: &CompiledCode,
    item: &mut Item,
    mem: &mut Memory<'_>,
    range: &NdRange,
    group_id: [u64; 3],
    num_groups: [u64; 3],
    arena: &mut [u8],
    stats: &mut ExecStats,
) -> Result<(), ExecError> {
    let mut pc = item.pc;
    let mut ip = ccode.ip_at.get(pc).map_or(u32::MAX, |v| *v) as usize;
    let mut frame = Frame {
        slots: &mut item.slots,
        mem,
        arena,
        global_id: item.global_id,
        local_id: item.local_id,
        group_id,
        num_groups,
        global: range.global,
        local: range.local,
        work_dim: range.work_dim,
    };
    let ops = &ccode.ops;
    let nodes = &ccode.nodes[..];
    loop {
        let Some(o) = ops.get(ip) else {
            // Fell off the end — treated as return, like the interpreter.
            item.pc = pc;
            item.status = ItemStatus::Done;
            return Ok(());
        };
        stats.instructions += u64::from(o.covers);
        match (o.run)(&mut frame, nodes)? {
            Step::Next => {
                pc += o.covers as usize;
                ip += 1;
            }
            Step::Jump(t) => {
                pc = t as usize;
                ip = ccode.ip_at.get(pc).map_or(u32::MAX, |v| *v) as usize;
            }
            Step::Barrier => {
                item.pc = pc + o.covers as usize;
                item.status = ItemStatus::AtBarrier;
                return Ok(());
            }
            Step::Done => {
                item.pc = pc + o.covers as usize;
                item.status = ItemStatus::Done;
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    const SRC: &str = r#"
        __kernel void axpy(__global int* y, __global const int* x, int a) {
            int i = get_global_id(0);
            y[i] = a * x[i] + y[i];
        }
    "#;

    #[test]
    fn each_kernel_is_lowered_once_and_clones_share_it() {
        let program = compile(SRC).expect("compile");
        let kernel = program.kernel("axpy").expect("kernel");
        let clone = kernel.clone();
        assert!(Arc::ptr_eq(&kernel.lowered.0, &clone.lowered.0));
        assert!(!kernel.lowered.0.fallback);
        let again = compile(SRC).expect("compile");
        assert_eq!(kernel, again.kernel("axpy").expect("kernel"));
    }

    #[test]
    fn fallback_lowering_still_matches_the_interpreter() {
        let program = compile(SRC).expect("compile");
        let mut kernel = program.kernel("axpy").expect("kernel").clone();
        // Replace the final `Return` with a diamond whose two edges reach
        // the join at different stack depths: lowering cannot give the
        // join one shape, so the compiled engine must hand the launch to
        // the interpreter.
        assert_eq!(kernel.code.pop(), Some(Instr::Return));
        let at = kernel.code.len() as u32;
        kernel.code.extend([
            Instr::PushBool(true),
            Instr::JumpIfFalse(at + 4),
            Instr::PushInt(1, ScalarType::I32),
            Instr::Jump(at + 4),
            Instr::Return,
        ]);
        let span = kernel.spans.pop().expect("span per instruction");
        kernel.spans.resize(kernel.code.len(), span);
        kernel.lowered = Lowered::new(&kernel.code);
        assert!(kernel.lowered.0.fallback);

        let args = [
            ArgValue::global(0),
            ArgValue::global(1),
            ArgValue::from_i32(3),
        ];
        let range = NdRange::linear(256, 64);
        let run = |engine| {
            let mut bufs = vec![
                GlobalBuffer::from_i32(&(0..256).collect::<Vec<_>>()),
                GlobalBuffer::from_i32(&(0..256).map(|i| 1000 - i).collect::<Vec<_>>()),
            ];
            let stats = run_ndrange_with_engine(&kernel, &args, &mut bufs, &range, engine)
                .expect("run succeeds");
            (stats, bufs[0].as_bytes().to_vec())
        };
        let reference = run(EngineKind::Interp);
        assert_eq!(run(EngineKind::CompiledSerial), reference);
        assert_eq!(run(EngineKind::Compiled), reference);
    }
}
