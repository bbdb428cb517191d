//! The stack bytecode produced by [`crate::sema`] and executed by
//! [`crate::vm`].

use std::collections::BTreeMap;
use std::fmt;

use crate::analysis::KernelReport;
use crate::ast::ParamType;
use crate::diag::Span;
use crate::types::ScalarType;
use crate::vm::Lowered;

/// Arithmetic binary operations (operands already unified to one type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (C semantics; integer division by zero traps).
    Div,
    /// Remainder.
    Rem,
    /// Left shift.
    Shl,
    /// Right shift (arithmetic for signed, logical for unsigned).
    Shr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

/// Comparison operations (result is `bool`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKind {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// One-argument math builtins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Math1 {
    /// `sqrt`
    Sqrt,
    /// `rsqrt` (reciprocal square root)
    Rsqrt,
    /// `fabs` / `abs`
    Abs,
    /// `exp`
    Exp,
    /// `log`
    Log,
    /// `log2`
    Log2,
    /// `sin`
    Sin,
    /// `cos`
    Cos,
    /// `tan`
    Tan,
    /// `floor`
    Floor,
    /// `ceil`
    Ceil,
}

/// Two-argument math builtins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Math2 {
    /// `pow`
    Pow,
    /// `fmin` / `min`
    Min,
    /// `fmax` / `max`
    Max,
    /// `fmod`
    Fmod,
}

/// Work-item geometry queries (`get_global_id` and friends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geom {
    /// `get_global_id(dim)`
    GlobalId,
    /// `get_local_id(dim)`
    LocalId,
    /// `get_group_id(dim)`
    GroupId,
    /// `get_global_size(dim)`
    GlobalSize,
    /// `get_local_size(dim)`
    LocalSize,
    /// `get_num_groups(dim)`
    NumGroups,
    /// `get_work_dim()`
    WorkDim,
}

/// A bytecode instruction.
///
/// The machine is a conventional operand-stack design: expression
/// evaluation pushes, operators pop. Pointers are first-class stack values
/// carrying their address space, element type and element offset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Push an integer constant of the given type.
    PushInt(i64, ScalarType),
    /// Push a float constant of the given type (`F32` or `F64`).
    PushFloat(f64, ScalarType),
    /// Push a boolean constant.
    PushBool(bool),
    /// Push a pointer to byte `offset` of the work-group local arena.
    PushLocalPtr {
        /// Byte offset within the local arena.
        byte_offset: u32,
        /// Element type the pointer is typed as.
        elem: ScalarType,
    },
    /// Push a copy of local slot `0`'s value… (indexed slot).
    LoadLocal(u16),
    /// Pop into local slot.
    StoreLocal(u16),
    /// Pop a pointer, push the element it addresses.
    LoadMem(ScalarType),
    /// Pop a value then a pointer, store the value.
    StoreMem(ScalarType),
    /// Pop an index (any integer) then a pointer; push `ptr + index`.
    PtrAdd,
    /// Typed arithmetic on the top two stack values.
    Bin(BinKind, ScalarType),
    /// Typed comparison on the top two stack values; pushes `bool`.
    Cmp(CmpKind, ScalarType),
    /// Negate the top value.
    Neg(ScalarType),
    /// Bitwise-complement the top value.
    BitNot(ScalarType),
    /// Logical-not the top boolean.
    NotBool,
    /// Convert the top value between scalar types.
    Cast {
        /// Source type.
        from: ScalarType,
        /// Destination type.
        to: ScalarType,
    },
    /// Unconditional jump to an instruction index.
    Jump(u32),
    /// Pop a boolean; jump when false.
    JumpIfFalse(u32),
    /// Pop a boolean; jump when true.
    JumpIfTrue(u32),
    /// One-argument math builtin on the top value.
    CallMath1(Math1, ScalarType),
    /// Two-argument math builtin on the top two values.
    CallMath2(Math2, ScalarType),
    /// Push a geometry query result (`u64`); pops the dimension index.
    Query(Geom),
    /// Work-group barrier: suspend until every item in the group arrives.
    Barrier,
    /// Finish this work-item.
    Return,
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,
}

/// A compiled kernel: bytecode plus launch metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    /// Kernel name (as declared in source).
    pub name: String,
    /// Parameter signature, in declaration order.
    pub params: Vec<ParamType>,
    /// The instruction stream (read through [`CompiledKernel::code`]:
    /// `lowered` is built from it, so it never changes after compile).
    pub(crate) code: Vec<Instr>,
    /// Number of local slots (parameters first, then declared variables).
    pub n_slots: u16,
    /// Bytes of work-group local memory statically declared by the kernel
    /// body (`__local float tile[...]`). Dynamic `__local` parameters add
    /// to this at launch time.
    pub static_local_bytes: u32,
    /// Whether the kernel contains a `barrier(...)` (used by devices to
    /// cost synchronization).
    pub uses_barrier: bool,
    /// Source span of the statement or expression each instruction was
    /// lowered from, parallel to `code`. Empty only for hand-built kernels.
    pub spans: Vec<Span>,
    /// Pre-resolved source positions of every `Barrier` instruction, so the
    /// VM (which has no source text) can name the barrier in errors.
    pub barrier_sites: Vec<BarrierSite>,
    /// Every statically-declared `__local` array, keyed by its byte offset
    /// in the local arena (offsets are unique per kernel).
    pub local_arrays: Vec<LocalArrayInfo>,
    /// Static-analysis results, attached by [`crate::compile`].
    pub report: KernelReport,
    /// `code` lowered for the compiled engine, once, when the kernel is
    /// built; clones share it.
    pub(crate) lowered: Lowered,
}

/// Metadata for one statically-declared `__local` array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalArrayInfo {
    /// Variable name in source (for diagnostics).
    pub name: String,
    /// Byte offset of the array within the local arena.
    pub byte_offset: u32,
    /// Element type.
    pub elem: ScalarType,
    /// Declared extents (1 or 2 dimensions).
    pub dims: Vec<u64>,
}

impl LocalArrayInfo {
    /// Total number of elements.
    pub fn extent_elems(&self) -> u64 {
        self.dims.iter().product()
    }
}

/// The 1-based source position of one `Barrier` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierSite {
    /// Instruction index of the `Barrier` in `code`.
    pub pc: u32,
    /// 1-based source line of the `barrier(...)` call.
    pub line: u32,
    /// 1-based source column of the `barrier(...)` call.
    pub col: u32,
}

impl CompiledKernel {
    /// The instruction stream.
    pub fn code(&self) -> &[Instr] {
        &self.code
    }

    /// Number of declared parameters.
    pub fn arity(&self) -> usize {
        self.params.len()
    }

    /// Source position of the `Barrier` instruction at `pc`, if recorded.
    pub fn barrier_site(&self, pc: u32) -> Option<BarrierSite> {
        self.barrier_sites.iter().find(|s| s.pc == pc).copied()
    }
}

impl fmt::Display for CompiledKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "kernel {}/{}:", self.name, self.params.len())?;
        for (i, ins) in self.code.iter().enumerate() {
            writeln!(f, "  {i:4}: {ins:?}")?;
        }
        Ok(())
    }
}

/// A compiled program: every kernel of one translation unit, addressable
/// by name (the `clCreateKernel` lookup).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledProgram {
    kernels: BTreeMap<String, CompiledKernel>,
}

impl CompiledProgram {
    /// Creates a program from compiled kernels.
    ///
    /// # Panics
    ///
    /// Panics if two kernels share a name (sema rejects this earlier).
    pub fn from_kernels(kernels: Vec<CompiledKernel>) -> Self {
        let mut map = BTreeMap::new();
        for k in kernels {
            let name = k.name.clone();
            let prev = map.insert(name.clone(), k);
            assert!(prev.is_none(), "duplicate kernel `{name}`");
        }
        CompiledProgram { kernels: map }
    }

    /// Looks up a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&CompiledKernel> {
        self.kernels.get(name)
    }

    /// Mutable iteration over kernels (used to attach analysis reports).
    pub(crate) fn kernels_mut(&mut self) -> impl Iterator<Item = &mut CompiledKernel> {
        self.kernels.values_mut()
    }

    /// Iterates over all kernels in name order.
    pub fn kernels(&self) -> impl Iterator<Item = &CompiledKernel> {
        self.kernels.values()
    }

    /// The kernel names in this program, sorted.
    pub fn kernel_names(&self) -> impl Iterator<Item = &str> {
        self.kernels.keys().map(String::as_str)
    }

    /// Number of kernels.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Whether the program has no kernels.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(name: &str) -> CompiledKernel {
        let code = vec![Instr::Return];
        CompiledKernel {
            name: name.to_string(),
            params: vec![],
            lowered: Lowered::new(&code),
            code,
            n_slots: 0,
            static_local_bytes: 0,
            uses_barrier: false,
            spans: vec![Span::default()],
            barrier_sites: vec![],
            local_arrays: vec![],
            report: KernelReport::default(),
        }
    }

    #[test]
    fn program_lookup_by_name() {
        let p = CompiledProgram::from_kernels(vec![dummy("a"), dummy("b")]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert!(p.kernel("a").is_some());
        assert!(p.kernel("c").is_none());
        let names: Vec<_> = p.kernel_names().collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "duplicate kernel")]
    fn duplicate_kernel_panics() {
        let _ = CompiledProgram::from_kernels(vec![dummy("a"), dummy("a")]);
    }

    #[test]
    fn display_disassembles() {
        let k = dummy("k");
        let text = k.to_string();
        assert!(text.contains("kernel k/0"));
        assert!(text.contains("Return"));
    }
}
