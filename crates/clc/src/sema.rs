//! Type checking and lowering to bytecode.
//!
//! Lowering is single-pass per kernel: expressions are first *inferred*
//! (a pure type computation mirroring C's usual arithmetic conversions)
//! and then *compiled*, inserting explicit [`Instr::Cast`]s so the VM never
//! has to coerce implicitly.

use std::collections::HashMap;

use crate::ast::{self, BinOp, Block, DeclStmt, Expr, IncDec, KernelDecl, Stmt, UnOp, Unit};
use crate::bytecode::{
    BinKind, CmpKind, CompiledKernel, CompiledProgram, Geom, Instr, Math1, Math2,
};
use crate::diag::{ClcError, Span, Stage};
use crate::types::{AddressSpace, ScalarType, Type};

/// Lowers a parsed [`Unit`] to a [`CompiledProgram`].
///
/// # Errors
///
/// Returns the first type error encountered, with source position.
pub fn lower(unit: &Unit, source: &str) -> Result<CompiledProgram, ClcError> {
    let mut kernels = Vec::new();
    let mut seen: HashMap<&str, ()> = HashMap::new();
    for k in &unit.kernels {
        if seen.insert(&k.name, ()).is_some() {
            return Err(ClcError::at(
                Stage::Sema,
                k.span,
                source,
                format!("duplicate kernel name `{}`", k.name),
            ));
        }
        kernels.push(lower_kernel(k, source)?);
    }
    Ok(CompiledProgram::from_kernels(kernels))
}

#[derive(Debug, Clone)]
enum Binding {
    /// A scalar or pointer variable stored in a VM slot.
    Slot { slot: u16, ty: Type },
    /// A statically-declared `__local` array.
    LocalArray {
        byte_offset: u32,
        elem: ScalarType,
        dims: Vec<u64>,
    },
}

struct LoopFrame {
    /// Jump indices to patch to the loop exit.
    breaks: Vec<usize>,
    /// Jump indices to patch to the continue target.
    continues: Vec<usize>,
}

struct Cx<'a> {
    source: &'a str,
    code: Vec<Instr>,
    /// Source span each emitted instruction was lowered from (parallel to
    /// `code`); `cur_span` is the span attributed to the next emission.
    spans: Vec<Span>,
    cur_span: Span,
    /// `(pc, span)` of every emitted `Barrier`.
    barriers: Vec<(u32, Span)>,
    /// Every statically-declared `__local` array.
    local_arrays: Vec<crate::bytecode::LocalArrayInfo>,
    scopes: Vec<HashMap<String, Binding>>,
    n_slots: u16,
    local_bytes: u32,
    loops: Vec<LoopFrame>,
    uses_barrier: bool,
}

impl<'a> Cx<'a> {
    fn err(&self, span: Span, msg: impl Into<String>) -> ClcError {
        ClcError::at(Stage::Sema, span, self.source, msg)
    }

    fn lookup(&self, name: &str) -> Option<&Binding> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn declare(&mut self, name: &str, binding: Binding, span: Span) -> Result<(), ClcError> {
        let scope = self.scopes.last_mut().expect("scope stack never empty");
        if scope.contains_key(name) {
            return Err(ClcError::at(
                Stage::Sema,
                span,
                self.source,
                format!("`{name}` is already declared in this scope"),
            ));
        }
        scope.insert(name.to_string(), binding);
        Ok(())
    }

    fn alloc_slot(&mut self, span: Span) -> Result<u16, ClcError> {
        if self.n_slots == u16::MAX {
            return Err(self.err(span, "too many local variables"));
        }
        let s = self.n_slots;
        self.n_slots += 1;
        Ok(s)
    }

    fn emit(&mut self, i: Instr) -> usize {
        self.spans.push(self.cur_span);
        self.code.push(i);
        self.code.len() - 1
    }

    fn patch_jump(&mut self, at: usize) {
        let target = self.code.len() as u32;
        match &mut self.code[at] {
            Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) => *t = target,
            other => panic!("patch_jump on non-jump {other:?}"),
        }
    }

    fn patch_jump_to(&mut self, at: usize, target: usize) {
        match &mut self.code[at] {
            Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) => *t = target as u32,
            other => panic!("patch_jump_to on non-jump {other:?}"),
        }
    }
}

fn lower_kernel(k: &KernelDecl, source: &str) -> Result<CompiledKernel, ClcError> {
    let mut cx = Cx {
        source,
        code: Vec::new(),
        spans: Vec::new(),
        cur_span: k.span,
        barriers: Vec::new(),
        local_arrays: Vec::new(),
        scopes: vec![HashMap::new()],
        n_slots: 0,
        local_bytes: 0,
        loops: Vec::new(),
        uses_barrier: false,
    };
    let mut params = Vec::new();
    for p in &k.params {
        let ty = match p.ty {
            ast::ParamType::Scalar(s) => Type::Scalar(s),
            ast::ParamType::Pointer(a, s) => Type::Pointer(a, s),
        };
        let slot = cx.alloc_slot(p.span)?;
        cx.declare(&p.name, Binding::Slot { slot, ty }, p.span)?;
        params.push(p.ty);
    }
    compile_block(&mut cx, &k.body)?;
    cx.emit(Instr::Return);
    let barrier_sites = cx
        .barriers
        .iter()
        .map(|&(pc, span)| {
            let (line, col) = span.line_col(source);
            crate::bytecode::BarrierSite {
                pc,
                line: line as u32,
                col: col as u32,
            }
        })
        .collect();
    Ok(CompiledKernel {
        name: k.name.clone(),
        params,
        lowered: crate::vm::Lowered::new(&cx.code),
        code: cx.code,
        n_slots: cx.n_slots,
        static_local_bytes: cx.local_bytes,
        uses_barrier: cx.uses_barrier,
        spans: cx.spans,
        barrier_sites,
        local_arrays: cx.local_arrays,
        report: crate::analysis::KernelReport::default(),
    })
}

fn compile_block(cx: &mut Cx, b: &Block) -> Result<(), ClcError> {
    cx.scopes.push(HashMap::new());
    for s in &b.stmts {
        compile_stmt(cx, s)?;
    }
    cx.scopes.pop();
    Ok(())
}

fn compile_stmt(cx: &mut Cx, s: &Stmt) -> Result<(), ClcError> {
    match s {
        Stmt::Decl(d) => {
            cx.cur_span = d.span;
            compile_decl(cx, d)
        }
        Stmt::Expr(e) => {
            cx.cur_span = e.span();
            compile_effect(cx, e)
        }
        Stmt::Block(b) => compile_block(cx, b),
        Stmt::If {
            cond,
            then,
            otherwise,
        } => {
            cx.cur_span = cond.span();
            compile_condition(cx, cond)?;
            let jf = cx.emit(Instr::JumpIfFalse(0));
            compile_block(cx, then)?;
            if let Some(other) = otherwise {
                let jend = cx.emit(Instr::Jump(0));
                cx.patch_jump(jf);
                compile_block(cx, other)?;
                cx.patch_jump(jend);
            } else {
                cx.patch_jump(jf);
            }
            Ok(())
        }
        Stmt::While { cond, body } => {
            let top = cx.code.len();
            cx.cur_span = cond.span();
            compile_condition(cx, cond)?;
            let jf = cx.emit(Instr::JumpIfFalse(0));
            cx.loops.push(LoopFrame {
                breaks: vec![],
                continues: vec![],
            });
            compile_block(cx, body)?;
            cx.emit(Instr::Jump(top as u32));
            cx.patch_jump(jf);
            let frame = cx.loops.pop().expect("loop frame");
            for b in frame.breaks {
                cx.patch_jump(b);
            }
            for c in frame.continues {
                cx.patch_jump_to(c, top);
            }
            Ok(())
        }
        Stmt::DoWhile { body, cond } => {
            let top = cx.code.len();
            cx.loops.push(LoopFrame {
                breaks: vec![],
                continues: vec![],
            });
            compile_block(cx, body)?;
            let cond_at = cx.code.len();
            cx.cur_span = cond.span();
            compile_condition(cx, cond)?;
            cx.emit(Instr::JumpIfTrue(top as u32));
            let frame = cx.loops.pop().expect("loop frame");
            for b in frame.breaks {
                cx.patch_jump(b);
            }
            for c in frame.continues {
                cx.patch_jump_to(c, cond_at);
            }
            Ok(())
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            cx.scopes.push(HashMap::new());
            if let Some(init) = init {
                compile_stmt(cx, init)?;
            }
            let top = cx.code.len();
            let jf = match cond {
                Some(c) => {
                    cx.cur_span = c.span();
                    compile_condition(cx, c)?;
                    Some(cx.emit(Instr::JumpIfFalse(0)))
                }
                None => None,
            };
            cx.loops.push(LoopFrame {
                breaks: vec![],
                continues: vec![],
            });
            compile_block(cx, body)?;
            let step_at = cx.code.len();
            if let Some(step) = step {
                compile_effect(cx, step)?;
            }
            cx.emit(Instr::Jump(top as u32));
            if let Some(jf) = jf {
                cx.patch_jump(jf);
            }
            let frame = cx.loops.pop().expect("loop frame");
            for b in frame.breaks {
                cx.patch_jump(b);
            }
            for c in frame.continues {
                cx.patch_jump_to(c, step_at);
            }
            cx.scopes.pop();
            Ok(())
        }
        Stmt::Break(span) => {
            cx.cur_span = *span;
            let j = cx.emit(Instr::Jump(0));
            match cx.loops.last_mut() {
                Some(f) => {
                    f.breaks.push(j);
                    Ok(())
                }
                None => Err(cx.err(*span, "`break` outside of a loop")),
            }
        }
        Stmt::Continue(span) => {
            cx.cur_span = *span;
            let j = cx.emit(Instr::Jump(0));
            match cx.loops.last_mut() {
                Some(f) => {
                    f.continues.push(j);
                    Ok(())
                }
                None => Err(cx.err(*span, "`continue` outside of a loop")),
            }
        }
        Stmt::Return(span) => {
            cx.cur_span = *span;
            cx.emit(Instr::Return);
            Ok(())
        }
        Stmt::Barrier(span) => {
            cx.uses_barrier = true;
            cx.cur_span = *span;
            let pc = cx.emit(Instr::Barrier);
            cx.barriers.push((pc as u32, *span));
            Ok(())
        }
    }
}

fn compile_decl(cx: &mut Cx, d: &DeclStmt) -> Result<(), ClcError> {
    if !d.array_dims.is_empty() {
        // Statically-sized __local array.
        if d.array_dims.len() > 2 {
            return Err(cx.err(d.span, "local arrays support at most two dimensions"));
        }
        if d.space != AddressSpace::Local {
            return Err(cx.err(d.span, "arrays must be `__local`"));
        }
        let elems: u64 = d.array_dims.iter().product();
        let bytes = elems
            .checked_mul(d.ty.size_bytes() as u64)
            .filter(|&b| b <= 16 * 1024 * 1024)
            .ok_or_else(|| cx.err(d.span, "local array too large"))?;
        // 8-byte align each array.
        let offset = (cx.local_bytes + 7) & !7;
        cx.local_bytes = offset + bytes as u32;
        cx.local_arrays.push(crate::bytecode::LocalArrayInfo {
            name: d.name.clone(),
            byte_offset: offset,
            elem: d.ty,
            dims: d.array_dims.clone(),
        });
        cx.declare(
            &d.name,
            Binding::LocalArray {
                byte_offset: offset,
                elem: d.ty,
                dims: d.array_dims.clone(),
            },
            d.span,
        )?;
        if d.init.is_some() {
            return Err(cx.err(d.span, "array initializers are not supported"));
        }
        return Ok(());
    }
    let slot = cx.alloc_slot(d.span)?;
    match &d.init {
        Some(init) => {
            let ty = compile_rvalue(cx, init)?;
            let from = ty
                .as_scalar()
                .ok_or_else(|| cx.err(init.span(), "cannot initialize a scalar from a pointer"))?;
            coerce(cx, from, d.ty);
        }
        None => {
            // Deterministic zero-init.
            push_zero(cx, d.ty);
        }
    }
    cx.emit(Instr::StoreLocal(slot));
    cx.declare(
        &d.name,
        Binding::Slot {
            slot,
            ty: Type::Scalar(d.ty),
        },
        d.span,
    )
}

fn push_zero(cx: &mut Cx, ty: ScalarType) {
    match ty {
        ScalarType::Bool => {
            cx.emit(Instr::PushBool(false));
        }
        t if t.is_float() => {
            cx.emit(Instr::PushFloat(0.0, t));
        }
        t => {
            cx.emit(Instr::PushInt(0, t));
        }
    }
}

/// Emits a cast if `from != to`.
fn coerce(cx: &mut Cx, from: ScalarType, to: ScalarType) {
    if from != to {
        cx.emit(Instr::Cast { from, to });
    }
}

/// Compiles `e` for its side effects only (statement position).
fn compile_effect(cx: &mut Cx, e: &Expr) -> Result<(), ClcError> {
    match e {
        Expr::Assign {
            op,
            target,
            value,
            span,
        } => compile_assign(cx, op.as_ref().copied(), target, value, *span),
        Expr::IncDec {
            op, target, span, ..
        } => {
            // Value unused: compile as `target (op)= 1`.
            let one = Expr::IntLit {
                value: 1,
                ty: ScalarType::I32,
                span: *span,
            };
            let bin = match op {
                IncDec::Inc => BinOp::Add,
                IncDec::Dec => BinOp::Sub,
            };
            compile_assign(cx, Some(bin), target, &one, *span)
        }
        _ => {
            let ty = compile_rvalue(cx, e)?;
            if ty != Type::Void {
                cx.emit(Instr::Pop);
            }
            Ok(())
        }
    }
}

fn compile_assign(
    cx: &mut Cx,
    op: Option<BinOp>,
    target: &Expr,
    value: &Expr,
    span: Span,
) -> Result<(), ClcError> {
    match target {
        Expr::Var { name, span: vspan } => {
            let (slot, ty) = match cx.lookup(name) {
                Some(Binding::Slot { slot, ty }) => (*slot, *ty),
                Some(Binding::LocalArray { .. }) => {
                    return Err(cx.err(*vspan, format!("cannot assign to array `{name}`")));
                }
                None => return Err(cx.err(*vspan, format!("unknown variable `{name}`"))),
            };
            let target_scalar = match ty {
                Type::Scalar(s) => s,
                Type::Pointer(..) => {
                    // Pointer reassignment (e.g. p = p + n) — only plain `=`
                    // with a pointer-typed RHS of the same element type.
                    if op.is_some() {
                        return Err(cx.err(span, "compound assignment to a pointer"));
                    }
                    let vt = compile_rvalue(cx, value)?;
                    if vt != ty {
                        return Err(cx.err(span, format!("cannot assign `{vt}` to pointer `{ty}`")));
                    }
                    cx.emit(Instr::StoreLocal(slot));
                    return Ok(());
                }
                Type::Void => unreachable!("void variable"),
            };
            match op {
                None => {
                    let vt = scalar_rvalue(cx, value)?;
                    coerce(cx, vt, target_scalar);
                }
                Some(bin) => {
                    cx.emit(Instr::LoadLocal(slot));
                    compile_binop_with_loaded_lhs(cx, bin, target_scalar, value, span)?;
                    // Result type of compound assignment folds back into the
                    // target type.
                    let rt = binop_result(cx, bin, target_scalar, value, span)?;
                    coerce(cx, rt, target_scalar);
                }
            }
            cx.emit(Instr::StoreLocal(slot));
            Ok(())
        }
        Expr::Index { .. } => {
            let elem = compile_place(cx, target)?;
            match op {
                None => {
                    let vt = scalar_rvalue(cx, value)?;
                    coerce(cx, vt, elem);
                }
                Some(bin) => {
                    cx.emit(Instr::Dup);
                    cx.emit(Instr::LoadMem(elem));
                    compile_binop_with_loaded_lhs(cx, bin, elem, value, span)?;
                    let rt = binop_result(cx, bin, elem, value, span)?;
                    coerce(cx, rt, elem);
                }
            }
            cx.cur_span = target.span();
            cx.emit(Instr::StoreMem(elem));
            Ok(())
        }
        other => Err(cx.err(other.span(), "invalid assignment target")),
    }
}

/// With the lhs value (of type `lt`) already on the stack, compiles
/// `lhs op value`, leaving the result (of `binop_result` type).
fn compile_binop_with_loaded_lhs(
    cx: &mut Cx,
    op: BinOp,
    lt: ScalarType,
    value: &Expr,
    span: Span,
) -> Result<(), ClcError> {
    let rt_expr = infer(cx, value)?;
    let rt = rt_expr
        .as_scalar()
        .ok_or_else(|| cx.err(value.span(), "pointer operand in arithmetic"))?;
    let (unified, kind) = arith_parts(cx, op, lt, rt, span)?;
    coerce(cx, lt, unified);
    let vt = scalar_rvalue(cx, value)?;
    coerce(cx, vt, unified);
    cx.emit(Instr::Bin(kind, unified));
    Ok(())
}

fn binop_result(
    cx: &mut Cx,
    op: BinOp,
    lt: ScalarType,
    value: &Expr,
    span: Span,
) -> Result<ScalarType, ClcError> {
    let rt_expr = infer(cx, value)?;
    let rt = rt_expr
        .as_scalar()
        .ok_or_else(|| cx.err(value.span(), "pointer operand in arithmetic"))?;
    let (unified, _) = arith_parts(cx, op, lt, rt, span)?;
    Ok(unified)
}

fn arith_parts(
    cx: &Cx,
    op: BinOp,
    lt: ScalarType,
    rt: ScalarType,
    span: Span,
) -> Result<(ScalarType, BinKind), ClcError> {
    let kind = match op {
        BinOp::Add => BinKind::Add,
        BinOp::Sub => BinKind::Sub,
        BinOp::Mul => BinKind::Mul,
        BinOp::Div => BinKind::Div,
        BinOp::Rem => BinKind::Rem,
        BinOp::Shl => BinKind::Shl,
        BinOp::Shr => BinKind::Shr,
        BinOp::BitAnd => BinKind::And,
        BinOp::BitOr => BinKind::Or,
        BinOp::BitXor => BinKind::Xor,
        _ => return Err(cx.err(span, "comparison used where arithmetic expected")),
    };
    let unified = lt.unify(rt);
    let int_only = matches!(
        kind,
        BinKind::Shl | BinKind::Shr | BinKind::And | BinKind::Or | BinKind::Xor
    );
    if int_only && !unified.is_integer() {
        return Err(cx.err(
            span,
            format!("operator requires integer operands, got `{unified}`"),
        ));
    }
    if matches!(kind, BinKind::Rem) && unified.is_float() {
        return Err(cx.err(span, "`%` requires integer operands (use fmod)"));
    }
    Ok((unified, kind))
}

/// Compiles `e` as a boolean condition (C truthiness).
fn compile_condition(cx: &mut Cx, e: &Expr) -> Result<(), ClcError> {
    let ty = compile_rvalue(cx, e)?;
    match ty {
        Type::Scalar(ScalarType::Bool) => Ok(()),
        Type::Scalar(s) if s.is_integer() => {
            cx.emit(Instr::PushInt(0, s));
            cx.emit(Instr::Cmp(CmpKind::Ne, s));
            Ok(())
        }
        Type::Scalar(s) if s.is_float() => {
            cx.emit(Instr::PushFloat(0.0, s));
            cx.emit(Instr::Cmp(CmpKind::Ne, s));
            Ok(())
        }
        other => Err(cx.err(e.span(), format!("`{other}` is not a valid condition"))),
    }
}

/// Compiles `e` as a scalar rvalue, returning its scalar type.
fn scalar_rvalue(cx: &mut Cx, e: &Expr) -> Result<ScalarType, ClcError> {
    let ty = compile_rvalue(cx, e)?;
    ty.as_scalar()
        .ok_or_else(|| cx.err(e.span(), format!("expected a scalar value, got `{ty}`")))
}

/// Pure type inference mirroring `compile_rvalue` (no code emitted).
fn infer(cx: &Cx, e: &Expr) -> Result<Type, ClcError> {
    match e {
        Expr::IntLit { ty, .. } => Ok(Type::Scalar(*ty)),
        Expr::FloatLit { single, .. } => Ok(Type::Scalar(if *single {
            ScalarType::F32
        } else {
            ScalarType::F64
        })),
        Expr::Var { name, span } => match cx.lookup(name) {
            Some(Binding::Slot { ty, .. }) => Ok(*ty),
            Some(Binding::LocalArray { elem, .. }) => Ok(Type::Pointer(AddressSpace::Local, *elem)),
            None => Err(cx.err(*span, format!("unknown variable `{name}`"))),
        },
        Expr::Index { base, span, .. } => {
            let bt = infer(cx, base)?;
            match bt {
                Type::Pointer(space, elem) => {
                    // Indexing a row pointer of a 2-D array yields the
                    // element; indexing the array name with one index on a
                    // 2-D array yields a row pointer.
                    if let Expr::Var { name, .. } = base.as_ref() {
                        if let Some(Binding::LocalArray { dims, elem, .. }) = cx.lookup(name) {
                            if dims.len() == 2 {
                                return Ok(Type::Pointer(AddressSpace::Local, *elem));
                            }
                        }
                    }
                    let _ = space;
                    Ok(Type::Scalar(elem))
                }
                other => Err(cx.err(*span, format!("cannot index into `{other}`"))),
            }
        }
        Expr::Binary { op, lhs, rhs, span } => {
            let lt = infer(cx, lhs)?;
            let rt = infer(cx, rhs)?;
            match op {
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    Ok(Type::Scalar(ScalarType::Bool))
                }
                BinOp::LogAnd | BinOp::LogOr => Ok(Type::Scalar(ScalarType::Bool)),
                BinOp::Add | BinOp::Sub if matches!(lt, Type::Pointer(..)) => Ok(lt),
                _ => {
                    let ls = lt
                        .as_scalar()
                        .ok_or_else(|| cx.err(*span, "pointer operand in arithmetic"))?;
                    let rs = rt
                        .as_scalar()
                        .ok_or_else(|| cx.err(*span, "pointer operand in arithmetic"))?;
                    Ok(Type::Scalar(ls.unify(rs)))
                }
            }
        }
        Expr::Unary { op, operand, span } => match op {
            UnOp::Not => Ok(Type::Scalar(ScalarType::Bool)),
            UnOp::Neg | UnOp::BitNot => {
                let t = infer(cx, operand)?;
                let s = t
                    .as_scalar()
                    .ok_or_else(|| cx.err(*span, "pointer operand in arithmetic"))?;
                // Negating bool promotes to int, like C.
                Ok(Type::Scalar(if s == ScalarType::Bool {
                    ScalarType::I32
                } else {
                    s
                }))
            }
        },
        Expr::Ternary {
            then,
            otherwise,
            span,
            ..
        } => {
            let tt = infer(cx, then)?;
            let ot = infer(cx, otherwise)?;
            if tt == ot {
                return Ok(tt);
            }
            let ts = tt
                .as_scalar()
                .ok_or_else(|| cx.err(*span, "ternary arms must both be scalars"))?;
            let os = ot
                .as_scalar()
                .ok_or_else(|| cx.err(*span, "ternary arms must both be scalars"))?;
            Ok(Type::Scalar(ts.unify(os)))
        }
        Expr::Cast { ty, .. } => Ok(Type::Scalar(*ty)),
        Expr::Assign { span, .. } => {
            Err(cx.err(*span, "assignment cannot be used as a value in this subset"))
        }
        Expr::IncDec { target, span, .. } => match target.as_ref() {
            Expr::Var { name, .. } => match cx.lookup(name) {
                Some(Binding::Slot {
                    ty: Type::Scalar(s),
                    ..
                }) => Ok(Type::Scalar(*s)),
                _ => Err(cx.err(*span, "`++`/`--` needs a scalar variable")),
            },
            _ => Err(cx.err(*span, "`++`/`--` used as a value requires a plain variable")),
        },
        Expr::Call { name, args, span } => infer_call(cx, name, args, *span),
    }
}

fn infer_call(cx: &Cx, name: &str, args: &[Expr], span: Span) -> Result<Type, ClcError> {
    match name {
        "get_global_id" | "get_local_id" | "get_group_id" | "get_global_size"
        | "get_local_size" | "get_num_groups" | "get_work_dim" => Ok(Type::Scalar(ScalarType::U64)),
        "sqrt" | "rsqrt" | "fabs" | "exp" | "log" | "log2" | "sin" | "cos" | "tan" | "floor"
        | "ceil" => {
            let t = float_arg_type(cx, args, span)?;
            Ok(Type::Scalar(t))
        }
        "pow" | "fmin" | "fmax" | "fmod" => {
            let t = float_arg_type(cx, args, span)?;
            Ok(Type::Scalar(t))
        }
        "mad" | "fma" | "clamp" => {
            let t = float_arg_type(cx, args, span)?;
            Ok(Type::Scalar(t))
        }
        "abs" => {
            let t = first_scalar(cx, args, span)?;
            Ok(Type::Scalar(t))
        }
        "min" | "max" => {
            let a = nth_scalar(cx, args, 0, span)?;
            let b = nth_scalar(cx, args, 1, span)?;
            Ok(Type::Scalar(a.unify(b)))
        }
        _ => Err(cx.err(span, format!("unknown function `{name}`"))),
    }
}

fn float_arg_type(cx: &Cx, args: &[Expr], span: Span) -> Result<ScalarType, ClcError> {
    let mut any_f64 = false;
    for a in args {
        if let Type::Scalar(s) = infer(cx, a)? {
            if s == ScalarType::F64 {
                any_f64 = true;
            }
        } else {
            return Err(cx.err(span, "math builtin requires scalar arguments"));
        }
    }
    Ok(if any_f64 {
        ScalarType::F64
    } else {
        ScalarType::F32
    })
}

fn first_scalar(cx: &Cx, args: &[Expr], span: Span) -> Result<ScalarType, ClcError> {
    nth_scalar(cx, args, 0, span)
}

fn nth_scalar(cx: &Cx, args: &[Expr], n: usize, span: Span) -> Result<ScalarType, ClcError> {
    let a = args
        .get(n)
        .ok_or_else(|| cx.err(span, "missing argument"))?;
    infer(cx, a)?
        .as_scalar()
        .ok_or_else(|| cx.err(a.span(), "expected a scalar argument"))
}

/// Compiles an rvalue, leaving the value on the stack.
fn compile_rvalue(cx: &mut Cx, e: &Expr) -> Result<Type, ClcError> {
    cx.cur_span = e.span();
    match e {
        Expr::IntLit { value, ty, .. } => {
            cx.emit(Instr::PushInt(*value as i64, *ty));
            Ok(Type::Scalar(*ty))
        }
        Expr::FloatLit { value, single, .. } => {
            let ty = if *single {
                ScalarType::F32
            } else {
                ScalarType::F64
            };
            cx.emit(Instr::PushFloat(*value, ty));
            Ok(Type::Scalar(ty))
        }
        Expr::Var { name, span } => match cx.lookup(name).cloned() {
            Some(Binding::Slot { slot, ty }) => {
                cx.emit(Instr::LoadLocal(slot));
                Ok(ty)
            }
            Some(Binding::LocalArray {
                byte_offset, elem, ..
            }) => {
                // Array decays to a pointer to its first element.
                cx.emit(Instr::PushLocalPtr { byte_offset, elem });
                Ok(Type::Pointer(AddressSpace::Local, elem))
            }
            None => Err(cx.err(*span, format!("unknown variable `{name}`"))),
        },
        Expr::Index { base, index, span } => {
            // Row access of a 2-D local array yields a pointer, not a load.
            if let Expr::Var { name, .. } = base.as_ref() {
                if let Some(Binding::LocalArray {
                    byte_offset,
                    elem,
                    dims,
                }) = cx.lookup(name).cloned()
                {
                    if dims.len() == 2 {
                        cx.emit(Instr::PushLocalPtr { byte_offset, elem });
                        let it = scalar_rvalue(cx, index)?;
                        require_integer(cx, it, index.span())?;
                        coerce(cx, it, ScalarType::I64);
                        cx.emit(Instr::PushInt(dims[1] as i64, ScalarType::I64));
                        cx.emit(Instr::Bin(BinKind::Mul, ScalarType::I64));
                        cx.emit(Instr::PtrAdd);
                        return Ok(Type::Pointer(AddressSpace::Local, elem));
                    }
                }
            }
            let elem = compile_place_inner(cx, base, index, *span)?;
            cx.cur_span = *span;
            cx.emit(Instr::LoadMem(elem));
            Ok(Type::Scalar(elem))
        }
        Expr::Binary { op, lhs, rhs, span } => compile_binary(cx, *op, lhs, rhs, *span),
        Expr::Unary { op, operand, span } => match op {
            UnOp::Neg => {
                let t = scalar_rvalue(cx, operand)?;
                let t = if t == ScalarType::Bool {
                    coerce(cx, t, ScalarType::I32);
                    ScalarType::I32
                } else {
                    t
                };
                cx.emit(Instr::Neg(t));
                Ok(Type::Scalar(t))
            }
            UnOp::Not => {
                compile_condition(cx, operand)?;
                cx.emit(Instr::NotBool);
                Ok(Type::Scalar(ScalarType::Bool))
            }
            UnOp::BitNot => {
                let t = scalar_rvalue(cx, operand)?;
                if !t.is_integer() {
                    return Err(cx.err(*span, format!("`~` requires an integer, got `{t}`")));
                }
                cx.emit(Instr::BitNot(t));
                Ok(Type::Scalar(t))
            }
        },
        Expr::Ternary {
            cond,
            then,
            otherwise,
            span,
        } => {
            let out = infer(cx, e)?;
            let out_s = out
                .as_scalar()
                .ok_or_else(|| cx.err(*span, "ternary arms must both be scalars"))?;
            compile_condition(cx, cond)?;
            let jf = cx.emit(Instr::JumpIfFalse(0));
            let tt = scalar_rvalue(cx, then)?;
            coerce(cx, tt, out_s);
            let jend = cx.emit(Instr::Jump(0));
            cx.patch_jump(jf);
            let ot = scalar_rvalue(cx, otherwise)?;
            coerce(cx, ot, out_s);
            cx.patch_jump(jend);
            Ok(out)
        }
        Expr::Cast { ty, operand, .. } => {
            let from = scalar_rvalue(cx, operand)?;
            coerce(cx, from, *ty);
            Ok(Type::Scalar(*ty))
        }
        Expr::Assign { span, .. } => {
            Err(cx.err(*span, "assignment cannot be used as a value in this subset"))
        }
        Expr::IncDec {
            op,
            prefix,
            target,
            span,
        } => {
            let Expr::Var { name, span: vspan } = target.as_ref() else {
                return Err(cx.err(*span, "`++`/`--` used as a value requires a plain variable"));
            };
            let (slot, s) = match cx.lookup(name) {
                Some(Binding::Slot {
                    slot,
                    ty: Type::Scalar(s),
                }) => (*slot, *s),
                Some(_) => return Err(cx.err(*vspan, "`++`/`--` needs a scalar variable")),
                None => return Err(cx.err(*vspan, format!("unknown variable `{name}`"))),
            };
            let kind = match op {
                IncDec::Inc => BinKind::Add,
                IncDec::Dec => BinKind::Sub,
            };
            cx.emit(Instr::LoadLocal(slot));
            if *prefix {
                push_one(cx, s);
                cx.emit(Instr::Bin(kind, s));
                cx.emit(Instr::Dup);
                cx.emit(Instr::StoreLocal(slot));
            } else {
                cx.emit(Instr::Dup);
                push_one(cx, s);
                cx.emit(Instr::Bin(kind, s));
                cx.emit(Instr::StoreLocal(slot));
            }
            Ok(Type::Scalar(s))
        }
        Expr::Call { name, args, span } => compile_call(cx, name, args, *span),
    }
}

fn push_one(cx: &mut Cx, ty: ScalarType) {
    if ty.is_float() {
        cx.emit(Instr::PushFloat(1.0, ty));
    } else {
        cx.emit(Instr::PushInt(1, ty));
    }
}

fn require_integer(cx: &Cx, t: ScalarType, span: Span) -> Result<(), ClcError> {
    if t.is_integer() || t == ScalarType::Bool {
        Ok(())
    } else {
        Err(cx.err(span, format!("index must be an integer, got `{t}`")))
    }
}

/// Compiles the address of `target` (an `Index` expression) onto the
/// stack, returning the element type.
fn compile_place(cx: &mut Cx, target: &Expr) -> Result<ScalarType, ClcError> {
    let Expr::Index { base, index, span } = target else {
        unreachable!("compile_place only called on Index expressions");
    };
    compile_place_inner(cx, base, index, *span)
}

fn compile_place_inner(
    cx: &mut Cx,
    base: &Expr,
    index: &Expr,
    span: Span,
) -> Result<ScalarType, ClcError> {
    let bt = compile_rvalue(cx, base)?;
    let (_, elem) = bt
        .as_pointer()
        .ok_or_else(|| cx.err(span, format!("cannot index into `{bt}`")))?;
    let it = scalar_rvalue(cx, index)?;
    require_integer(cx, it, index.span())?;
    cx.emit(Instr::PtrAdd);
    Ok(elem)
}

fn compile_binary(
    cx: &mut Cx,
    op: BinOp,
    lhs: &Expr,
    rhs: &Expr,
    span: Span,
) -> Result<Type, ClcError> {
    match op {
        BinOp::LogAnd => {
            compile_condition(cx, lhs)?;
            let jf = cx.emit(Instr::JumpIfFalse(0));
            compile_condition(cx, rhs)?;
            let jend = cx.emit(Instr::Jump(0));
            cx.patch_jump(jf);
            cx.emit(Instr::PushBool(false));
            cx.patch_jump(jend);
            Ok(Type::Scalar(ScalarType::Bool))
        }
        BinOp::LogOr => {
            compile_condition(cx, lhs)?;
            let jt = cx.emit(Instr::JumpIfTrue(0));
            compile_condition(cx, rhs)?;
            let jend = cx.emit(Instr::Jump(0));
            cx.patch_jump(jt);
            cx.emit(Instr::PushBool(true));
            cx.patch_jump(jend);
            Ok(Type::Scalar(ScalarType::Bool))
        }
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let lt = infer(cx, lhs)?;
            let rt = infer(cx, rhs)?;
            let ls = lt
                .as_scalar()
                .ok_or_else(|| cx.err(span, "cannot compare pointers"))?;
            let rs = rt
                .as_scalar()
                .ok_or_else(|| cx.err(span, "cannot compare pointers"))?;
            let unified = ls.unify(rs);
            let lt2 = scalar_rvalue(cx, lhs)?;
            coerce(cx, lt2, unified);
            let rt2 = scalar_rvalue(cx, rhs)?;
            coerce(cx, rt2, unified);
            let kind = match op {
                BinOp::Eq => CmpKind::Eq,
                BinOp::Ne => CmpKind::Ne,
                BinOp::Lt => CmpKind::Lt,
                BinOp::Le => CmpKind::Le,
                BinOp::Gt => CmpKind::Gt,
                BinOp::Ge => CmpKind::Ge,
                _ => unreachable!(),
            };
            cx.emit(Instr::Cmp(kind, unified));
            Ok(Type::Scalar(ScalarType::Bool))
        }
        BinOp::Add | BinOp::Sub if matches!(infer(cx, lhs)?, Type::Pointer(..)) => {
            // Pointer arithmetic: ptr ± int.
            let pt = compile_rvalue(cx, lhs)?;
            let it = scalar_rvalue(cx, rhs)?;
            require_integer(cx, it, rhs.span())?;
            if op == BinOp::Sub {
                coerce(cx, it, ScalarType::I64);
                cx.emit(Instr::Neg(ScalarType::I64));
            }
            cx.emit(Instr::PtrAdd);
            Ok(pt)
        }
        _ => {
            let lt = infer(cx, lhs)?;
            let rt = infer(cx, rhs)?;
            let ls = lt
                .as_scalar()
                .ok_or_else(|| cx.err(span, "pointer operand in arithmetic"))?;
            let rs = rt
                .as_scalar()
                .ok_or_else(|| cx.err(span, "pointer operand in arithmetic"))?;
            let (unified, kind) = arith_parts(cx, op, ls, rs, span)?;
            let lt2 = scalar_rvalue(cx, lhs)?;
            coerce(cx, lt2, unified);
            let rt2 = scalar_rvalue(cx, rhs)?;
            coerce(cx, rt2, unified);
            cx.emit(Instr::Bin(kind, unified));
            Ok(Type::Scalar(unified))
        }
    }
}

fn compile_call(cx: &mut Cx, name: &str, args: &[Expr], span: Span) -> Result<Type, ClcError> {
    let expect = |n: usize| -> Result<(), ClcError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(cx.err(
                span,
                format!("`{name}` takes {n} argument(s), got {}", args.len()),
            ))
        }
    };
    match name {
        "get_global_id" | "get_local_id" | "get_group_id" | "get_global_size"
        | "get_local_size" | "get_num_groups" => {
            expect(1)?;
            let t = scalar_rvalue(cx, &args[0])?;
            require_integer(cx, t, args[0].span())?;
            coerce(cx, t, ScalarType::U64);
            let g = match name {
                "get_global_id" => Geom::GlobalId,
                "get_local_id" => Geom::LocalId,
                "get_group_id" => Geom::GroupId,
                "get_global_size" => Geom::GlobalSize,
                "get_local_size" => Geom::LocalSize,
                "get_num_groups" => Geom::NumGroups,
                _ => unreachable!(),
            };
            cx.emit(Instr::Query(g));
            Ok(Type::Scalar(ScalarType::U64))
        }
        "get_work_dim" => {
            expect(0)?;
            cx.emit(Instr::PushInt(0, ScalarType::U64));
            cx.emit(Instr::Query(Geom::WorkDim));
            Ok(Type::Scalar(ScalarType::U64))
        }
        "sqrt" | "rsqrt" | "fabs" | "exp" | "log" | "log2" | "sin" | "cos" | "tan" | "floor"
        | "ceil" => {
            expect(1)?;
            let out = float_arg_type(cx, args, span)?;
            let at = scalar_rvalue(cx, &args[0])?;
            coerce(cx, at, out);
            let m = match name {
                "sqrt" => Math1::Sqrt,
                "rsqrt" => Math1::Rsqrt,
                "fabs" => Math1::Abs,
                "exp" => Math1::Exp,
                "log" => Math1::Log,
                "log2" => Math1::Log2,
                "sin" => Math1::Sin,
                "cos" => Math1::Cos,
                "tan" => Math1::Tan,
                "floor" => Math1::Floor,
                "ceil" => Math1::Ceil,
                _ => unreachable!(),
            };
            cx.emit(Instr::CallMath1(m, out));
            Ok(Type::Scalar(out))
        }
        "abs" => {
            expect(1)?;
            let at = scalar_rvalue(cx, &args[0])?;
            // Unsigned abs is the identity — no instruction needed.
            if at.is_float() || at.is_signed() {
                cx.emit(Instr::CallMath1(Math1::Abs, at));
            }
            Ok(Type::Scalar(at))
        }
        "pow" | "fmin" | "fmax" | "fmod" => {
            expect(2)?;
            let out = float_arg_type(cx, args, span)?;
            let a = scalar_rvalue(cx, &args[0])?;
            coerce(cx, a, out);
            let b = scalar_rvalue(cx, &args[1])?;
            coerce(cx, b, out);
            let m = match name {
                "pow" => Math2::Pow,
                "fmin" => Math2::Min,
                "fmax" => Math2::Max,
                "fmod" => Math2::Fmod,
                _ => unreachable!(),
            };
            cx.emit(Instr::CallMath2(m, out));
            Ok(Type::Scalar(out))
        }
        "min" | "max" => {
            expect(2)?;
            let a = infer(cx, &args[0])?
                .as_scalar()
                .ok_or_else(|| cx.err(span, "expected a scalar argument"))?;
            let b = infer(cx, &args[1])?
                .as_scalar()
                .ok_or_else(|| cx.err(span, "expected a scalar argument"))?;
            let out = a.unify(b);
            let a2 = scalar_rvalue(cx, &args[0])?;
            coerce(cx, a2, out);
            let b2 = scalar_rvalue(cx, &args[1])?;
            coerce(cx, b2, out);
            let m = if name == "min" {
                Math2::Min
            } else {
                Math2::Max
            };
            cx.emit(Instr::CallMath2(m, out));
            Ok(Type::Scalar(out))
        }
        "mad" | "fma" => {
            expect(3)?;
            let out = float_arg_type(cx, args, span)?;
            let a = scalar_rvalue(cx, &args[0])?;
            coerce(cx, a, out);
            let b = scalar_rvalue(cx, &args[1])?;
            coerce(cx, b, out);
            cx.emit(Instr::Bin(BinKind::Mul, out));
            let c = scalar_rvalue(cx, &args[2])?;
            coerce(cx, c, out);
            cx.emit(Instr::Bin(BinKind::Add, out));
            Ok(Type::Scalar(out))
        }
        "clamp" => {
            expect(3)?;
            let out = float_arg_type(cx, args, span)?;
            let x = scalar_rvalue(cx, &args[0])?;
            coerce(cx, x, out);
            let lo = scalar_rvalue(cx, &args[1])?;
            coerce(cx, lo, out);
            cx.emit(Instr::CallMath2(Math2::Max, out));
            let hi = scalar_rvalue(cx, &args[2])?;
            coerce(cx, hi, out);
            cx.emit(Instr::CallMath2(Math2::Min, out));
            Ok(Type::Scalar(out))
        }
        _ => Err(cx.err(span, format!("unknown function `{name}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn compile_src(src: &str) -> Result<CompiledProgram, ClcError> {
        let toks = lex(src).unwrap();
        let unit = parse(&toks, src)?;
        lower(&unit, src)
    }

    #[test]
    fn compiles_simple_kernel() {
        let p = compile_src(
            "__kernel void f(__global float* a, float s) { int i = get_global_id(0); a[i] = a[i] * s; }",
        )
        .unwrap();
        let k = p.kernel("f").unwrap();
        assert_eq!(k.arity(), 2);
        assert!(k.n_slots >= 3);
        assert!(!k.uses_barrier);
        assert!(matches!(k.code.last(), Some(Instr::Return)));
    }

    #[test]
    fn detects_unknown_variable() {
        let err = compile_src("__kernel void f() { x = 1; }").unwrap_err();
        assert!(err.message().contains("unknown variable"));
    }

    #[test]
    fn detects_unknown_function() {
        let err =
            compile_src("__kernel void f(__global int* a) { a[0] = frobnicate(1); }").unwrap_err();
        assert!(err.message().contains("unknown function"));
    }

    #[test]
    fn detects_duplicate_kernels() {
        let err = compile_src("__kernel void f() {} __kernel void f() {}").unwrap_err();
        assert!(err.message().contains("duplicate kernel"));
    }

    #[test]
    fn detects_duplicate_declaration_in_scope() {
        let err = compile_src("__kernel void f() { int i = 0; int i = 1; }").unwrap_err();
        assert!(err.message().contains("already declared"));
    }

    #[test]
    fn shadowing_in_inner_scope_is_allowed() {
        assert!(
            compile_src("__kernel void f() { int i = 0; { int i = 1; i = i + 1; } i = 2; }")
                .is_ok()
        );
    }

    #[test]
    fn break_outside_loop_rejected() {
        let err = compile_src("__kernel void f() { break; }").unwrap_err();
        assert!(err.message().contains("break"));
    }

    #[test]
    fn barrier_sets_flag_and_local_bytes_tracked() {
        let p = compile_src(
            "__kernel void f() { __local float t[8][4]; barrier(CLK_LOCAL_MEM_FENCE); }",
        )
        .unwrap();
        let k = p.kernel("f").unwrap();
        assert!(k.uses_barrier);
        assert_eq!(k.static_local_bytes, 8 * 4 * 4);
    }

    #[test]
    fn float_modulo_rejected() {
        let err =
            compile_src("__kernel void f(__global float* a) { a[0] = a[1] % a[2]; }").unwrap_err();
        assert!(err.message().contains("fmod"));
    }

    #[test]
    fn shift_on_float_rejected() {
        let err =
            compile_src("__kernel void f(__global float* a) { a[0] = a[1] << 2; }").unwrap_err();
        assert!(err.message().contains("integer"));
    }

    #[test]
    fn assignment_as_value_rejected() {
        let err =
            compile_src("__kernel void f(__global int* a) { a[0] = (a[1] = 2) + 1; }").unwrap_err();
        assert!(err.message().contains("assignment"));
    }

    #[test]
    fn wrong_builtin_arity_rejected() {
        let err = compile_src("__kernel void f(__global float* a) { a[0] = sqrt(a[1], a[2]); }")
            .unwrap_err();
        assert!(err.message().contains("argument"));
    }

    #[test]
    fn pointer_reassignment_allowed() {
        assert!(compile_src(
            "__kernel void f(__global float* a, int n) { a = a + n; a[0] = 1.0f; }"
        )
        .is_ok());
    }

    #[test]
    fn pointer_compound_assignment_rejected() {
        let err = compile_src("__kernel void f(__global float* a) { a += 1; }").unwrap_err();
        assert!(err.message().contains("pointer"));
    }
}
