//! The kernel IR: what a unit's pointwise members compute, as a
//! straight-line register program — the one description of a kernel
//! that is run, printed and priced.
//!
//! [`lower::partition`](crate::partition) decides *which* operations
//! form a kernel; [`KernelIr::compile`] decides what that kernel does
//! per element. The runtime's block evaluator executes the result over
//! blocks of lanes (one register = one block of `f32` lanes), so a
//! fusion group's intermediates live in registers and only the members
//! something outside the kernel reads are stored. The CUDA emitter
//! prints the same instructions, one C statement each, and
//! [`KernelIr::price`] derives from them the memory traffic and flops
//! that `lower` writes into the plan's steps.
//!
//! A kernel is a list of [`Stage`]s. A [`Segment`] is one loop over one
//! iteration domain; `Norm` / `ReduceTensor` members reduce a whole
//! tensor to a scalar and therefore sit *between* segments. Within a
//! segment, scalar-shaped members (`Pow(beta1, t)`) form a one-lane
//! *prologue* that runs once; the loop body reads their results as
//! splats.

use crate::{
    BinaryOp, Binding, CoreError, DType, Dim, KernelStep, Layout, OpKind, Program, SliceDim,
    TensorType, UnaryOp, VarId,
};

/// A register index. Prologue and body instructions index separate
/// register files.
pub type Reg = usize;

/// One instruction: at most one destination register, at most two
/// sources. Body instructions run once per block of lanes, prologue
/// instructions once on a single lane.
#[derive(Clone, Debug, PartialEq)]
pub enum Instr {
    /// `dst = value` in every lane.
    Const {
        /// Destination register.
        dst: Reg,
        /// The constant, already rounded to `f32`.
        value: f32,
    },
    /// `dst =` this block of [`Segment::operands`]`[operand]`, widened
    /// to `f32`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Index into the segment's operand table.
        operand: usize,
    },
    /// `dst =` prologue register `scalar` in every lane (only in
    /// [`Segment::pinned`]).
    Splat {
        /// Destination (body) register.
        dst: Reg,
        /// Source (prologue) register.
        scalar: Reg,
    },
    /// `dst = op(a)`, the value of `member`.
    Unary {
        /// The operation.
        op: UnaryOp,
        /// Destination register.
        dst: Reg,
        /// Source register.
        a: Reg,
        /// The member this instruction computes.
        member: VarId,
    },
    /// `dst = op(a, b)`, the value of `member`.
    Binary {
        /// The operation.
        op: BinaryOp,
        /// Destination register.
        dst: Reg,
        /// Left source register.
        a: Reg,
        /// Right source register.
        b: Reg,
        /// The member this instruction computes.
        member: VarId,
    },
    /// `dst = keep(global index) ? a / (1 - p) : 0`, with the mask of
    /// dropout node `member` (a pure function of the run's seed, the
    /// node and the element's global index).
    Dropout {
        /// Destination register.
        dst: Reg,
        /// Source register.
        a: Reg,
        /// Drop probability.
        p: f64,
        /// The dropout node, which selects the mask stream.
        member: VarId,
    },
    /// `dst = a` rounded through FP16 — where an FP16-typed member
    /// would round on its store to memory.
    RoundF16 {
        /// Destination register.
        dst: Reg,
        /// Source register.
        a: Reg,
    },
    /// Stores `src` as the value of `member` (in `member`'s dtype).
    Store {
        /// Source register.
        src: Reg,
        /// The member whose value this is.
        member: VarId,
    },
}

impl Instr {
    /// Whether the instruction computes (as opposed to moving, splatting
    /// or rounding a value): what a kernel's flops and op count count.
    pub fn computes(&self) -> bool {
        matches!(
            self,
            Instr::Unary { .. } | Instr::Binary { .. } | Instr::Dropout { .. }
        )
    }

    /// The register this instruction defines.
    pub fn dst(&self) -> Option<Reg> {
        match *self {
            Instr::Const { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::Splat { dst, .. }
            | Instr::Unary { dst, .. }
            | Instr::Binary { dst, .. }
            | Instr::Dropout { dst, .. }
            | Instr::RoundF16 { dst, .. } => Some(dst),
            Instr::Store { .. } => None,
        }
    }

    /// The registers of its own file this instruction reads (a
    /// [`Splat`](Instr::Splat)'s source is a prologue register and not
    /// listed).
    pub fn srcs(&self) -> Vec<Reg> {
        match *self {
            Instr::Const { .. } | Instr::Load { .. } | Instr::Splat { .. } => vec![],
            Instr::Unary { a, .. } | Instr::Dropout { a, .. } | Instr::RoundF16 { a, .. } => {
                vec![a]
            }
            Instr::Binary { a, b, .. } if a == b => vec![a],
            Instr::Binary { a, b, .. } => vec![a, b],
            Instr::Store { src, .. } => vec![src],
        }
    }

    /// Renames every register of the instruction's own file.
    fn rename(&mut self, to: &[Reg]) {
        match self {
            Instr::Const { dst, .. } | Instr::Load { dst, .. } | Instr::Splat { dst, .. } => {
                *dst = to[*dst];
            }
            Instr::Unary { dst, a, .. }
            | Instr::Dropout { dst, a, .. }
            | Instr::RoundF16 { dst, a } => {
                *dst = to[*dst];
                *a = to[*a];
            }
            Instr::Binary { dst, a, b, .. } => {
                *dst = to[*dst];
                *a = to[*a];
                *b = to[*b];
            }
            Instr::Store { src, .. } => *src = to[*src],
        }
    }
}

/// One loop over one iteration domain, preceded by its one-lane
/// prologue.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Segment {
    /// A member whose type gives the body's iteration domain (global
    /// shape and layout; every body member shares it). `None` when the
    /// segment has scalar members only.
    pub domain: Option<VarId>,
    /// The values loaded from memory, each once: operands computed
    /// outside the kernel or by an earlier stage of it.
    pub operands: Vec<VarId>,
    /// Scalar-shaped members, on one lane, run once.
    pub prologue: Vec<Instr>,
    /// Loop-invariant body registers ([`Instr::Splat`] only), filled
    /// once before the first block.
    pub pinned: Vec<Instr>,
    /// The loop body, run once per block.
    pub body: Vec<Instr>,
    /// Registers the prologue needs.
    pub prologue_regs: usize,
    /// Registers the body needs, pinned ones included.
    pub body_regs: usize,
}

impl Segment {
    /// The members this segment stores, prologue first.
    pub fn stores(&self) -> impl Iterator<Item = VarId> + '_ {
        stores_of(&self.prologue).chain(stores_of(&self.body))
    }
}

/// The members `code` stores, in store order.
pub fn stores_of(code: &[Instr]) -> impl Iterator<Item = VarId> + '_ {
    code.iter().filter_map(|i| match i {
        Instr::Store { member, .. } => Some(*member),
        _ => None,
    })
}

/// One stage of a kernel.
#[derive(Clone, Debug, PartialEq)]
pub enum Stage {
    /// A loop over one domain.
    Segment(Segment),
    /// A `Norm` / `ReduceTensor` member: a full reduction of a value
    /// in memory to a replicated scalar (followed by a scalar AllReduce
    /// when that value is sliced).
    Reduce(VarId),
}

/// The register program of one kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelIr {
    /// The stages, in execution order.
    pub stages: Vec<Stage>,
}

/// How a body [`Instr::Load`] reaches its operand from the segment's
/// iteration domain: the one rule the evaluator reads by, the emitter
/// prints and [`KernelIr::price`] charges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// The operand's local storage holds the domain's lanes, in order.
    Window,
    /// The operand holds the whole tensor and the domain is this rank's
    /// contiguous share of it (a flat or leading-dimension slice): the
    /// lanes start at the rank's offset.
    SliceOffset,
    /// The operand has the domain's global shape but no contiguous
    /// window: each lane reads its element through the global index.
    Gather,
    /// The operand's global shape broadcasts into the domain's: each
    /// lane reads through its broadcast global index, and a load reads
    /// the operand's local storage once.
    Broadcast,
}

impl Access {
    /// How an operand laid out as `operand` reaches a domain laid out as
    /// `domain`; `same_shape` says whether their global shapes agree.
    pub fn of(same_shape: bool, operand: Layout, domain: Layout) -> Access {
        if !same_shape {
            return Access::Broadcast;
        }
        match (operand, domain) {
            (a, b) if a == b || !(a.is_sliced() || b.is_sliced()) => Access::Window,
            (
                Layout::Replicated | Layout::Local,
                Layout::Sliced(SliceDim::Flat | SliceDim::Dim(0)),
            ) => Access::SliceOffset,
            _ => Access::Gather,
        }
    }

    /// How a value of type `operand` reaches a domain of type `domain`.
    pub fn between(operand: &TensorType, domain: &TensorType) -> Access {
        Access::of(operand.shape == domain.shape, operand.layout, domain.layout)
    }
}

/// Every node's readers, indexed once per program so that compiling a
/// unit costs what the unit is, not what the program is.
pub struct Readers(Vec<Vec<VarId>>);

impl Readers {
    /// Indexes the readers of every live node of `p`.
    ///
    /// # Errors
    ///
    /// Propagates unknown-variable errors.
    pub fn of(p: &Program) -> Result<Readers, CoreError> {
        let live = p.live_vars();
        let mut readers = vec![Vec::new(); live.last().map_or(0, |v| v.index() + 1)];
        for v in live {
            for dep in p.op(v)?.inputs() {
                readers[dep.index()].push(v);
            }
        }
        Ok(Readers(readers))
    }

    fn of_var(&self, v: VarId) -> &[VarId] {
        self.0.get(v.index()).map_or(&[], Vec::as_slice)
    }
}

/// Whether a value is scalar-shaped whatever the binding: such members
/// run once in the prologue and reach the loop body as splats.
fn is_scalar(ty: &TensorType) -> bool {
    ty.shape.dims().iter().all(|d| matches!(d, Dim::Const(1)))
}

/// Whether two vector members iterate over the same local domain.
fn same_domain(a: &TensorType, b: &TensorType) -> bool {
    Access::between(a, b) == Access::Window
}

fn is_reduction(op: &OpKind) -> bool {
    matches!(op, OpKind::Norm(_) | OpKind::ReduceTensor(..))
}

impl KernelIr {
    /// Compiles the pointwise members of `members` (one unit of
    /// [`partition`](crate::partition); its collectives and sends are
    /// the caller's to run) into a register program. `readers` indexes
    /// `p` ([`Readers::of`]).
    ///
    /// Every operand is loaded once per segment and every member is
    /// computed once; a member is stored only if it escapes the kernel
    /// (a program output, an `Update`, a value read outside it) or a
    /// later stage reads it. `Slice` and `Update` members alias their
    /// operand's register, and a `Slice` outside the kernel is an
    /// addressing mode of the load of what it slices. Registers are
    /// reused after their last read.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedProgram`] when `members` is not in
    /// topological order, and propagates unknown-variable errors.
    pub fn compile(
        p: &Program,
        readers: &Readers,
        members: &[VarId],
    ) -> Result<KernelIr, CoreError> {
        // Pass 1: the stage of every pointwise member.
        enum Draft {
            Segment(Vec<VarId>, Option<VarId>),
            Reduce(VarId),
        }
        let mut drafts: Vec<Draft> = Vec::new();
        let mut stage_of: Vec<(VarId, usize)> = Vec::with_capacity(members.len());
        let mut open: Option<usize> = None;
        for &m in members {
            let op = p.op(m)?;
            if !op.is_pointwise() {
                continue;
            }
            if is_reduction(op) {
                stage_of.push((m, drafts.len()));
                drafts.push(Draft::Reduce(m));
                open = None;
                continue;
            }
            let ty = p.ty(m)?;
            let vector = !is_scalar(ty);
            if let Some(Draft::Segment(_, Some(d))) = open.map(|at| &drafts[at]) {
                if vector && !same_domain(p.ty(*d)?, ty) {
                    open = None;
                }
            }
            let at = *open.get_or_insert_with(|| {
                drafts.push(Draft::Segment(Vec::new(), None));
                drafts.len() - 1
            });
            if let Draft::Segment(seg_members, domain) = &mut drafts[at] {
                seg_members.push(m);
                if vector {
                    domain.get_or_insert(m);
                }
            }
            stage_of.push((m, at));
        }

        // Pass 2: which members reach memory.
        let stage = |v: VarId| stage_of.iter().find(|(m, _)| *m == v).map(|&(_, s)| s);
        let mut stored: Vec<VarId> = Vec::new();
        for &(m, at) in &stage_of {
            let op = p.op(m)?;
            let escapes = p.outputs().contains(&m)
                || matches!(op, OpKind::Update(..))
                || readers.of_var(m).iter().any(|&r| stage(r) != Some(at));
            if escapes && !is_reduction(op) {
                stored.push(m);
            }
        }

        // Pass 3: instructions.
        let mut stages = Vec::with_capacity(drafts.len());
        for (at, draft) in drafts.into_iter().enumerate() {
            stages.push(match draft {
                Draft::Reduce(m) => Stage::Reduce(m),
                Draft::Segment(seg_members, domain) => {
                    let mut emit = Emit {
                        p,
                        stage_of: &stage_of,
                        stage: at,
                        seg: Segment {
                            domain,
                            ..Segment::default()
                        },
                        scalar_of: Vec::new(),
                        vector_of: Vec::new(),
                    };
                    for m in seg_members {
                        emit.member(m, stored.contains(&m))?;
                    }
                    Stage::Segment(emit.finish())
                }
            });
        }
        Ok(KernelIr { stages })
    }

    /// The segments, in execution order.
    pub fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.stages.iter().filter_map(|s| match s {
            Stage::Segment(seg) => Some(seg),
            Stage::Reduce(_) => None,
        })
    }

    /// How many instructions compute ([`Instr::computes`]), prologues
    /// included: the fused-op count the cost model's register-pressure
    /// penalty reads and the emitter prints.
    pub fn n_ops(&self) -> usize {
        self.segments()
            .flat_map(|s| s.prologue.iter().chain(&s.body))
            .filter(|i| i.computes())
            .count()
    }

    /// The (unlabelled) step that prices the kernel on one rank under
    /// `binding`: a body `Load` reads the domain's local elements in the
    /// operand's dtype (a [`Access::Broadcast`] load reads the operand's
    /// storage once), a prologue `Load` one element, a reduction its
    /// operand; a `Store` writes its member's lanes and a reduction its
    /// scalar; a computing instruction is a flop per lane, a reduction
    /// one per element read. Loads of `pack` (a fused collective's
    /// ReduceScatter chunk, which arrives in registers) cost nothing.
    ///
    /// # Errors
    ///
    /// Propagates binding and unknown-variable errors.
    pub fn price(
        &self,
        p: &Program,
        binding: &Binding,
        pack: Option<VarId>,
    ) -> Result<KernelStep, CoreError> {
        let mut price = KernelStep {
            label: String::new(),
            bytes_read: 0,
            bytes_written: 0,
            flops: 0,
            n_ops: self.n_ops(),
        };
        for stage in &self.stages {
            let seg = match stage {
                Stage::Segment(seg) => seg,
                Stage::Reduce(m) => {
                    let operand = p.ty(p.op(*m)?.inputs()[0])?;
                    price.bytes_read += operand.local_bytes(binding)?;
                    price.bytes_written += p.ty(*m)?.local_bytes(binding)?;
                    price.flops += operand.local_numel(binding)?;
                    continue;
                }
            };
            let domain = seg.domain.map(|d| p.ty(d)).transpose()?;
            let lanes = domain.map_or(Ok(0), |d| d.local_numel(binding))?;
            for (code, lanes, domain) in [(&seg.prologue, 1, None), (&seg.body, lanes, domain)] {
                for instr in code {
                    match *instr {
                        Instr::Load { operand, .. } if Some(seg.operands[operand]) != pack => {
                            let ty = p.ty(seg.operands[operand])?;
                            let broadcast =
                                domain.is_some_and(|d| Access::between(ty, d) == Access::Broadcast);
                            price.bytes_read += match broadcast {
                                true => ty.local_bytes(binding)?,
                                false => lanes * ty.dtype.size_bytes() as u64,
                            };
                        }
                        Instr::Store { member, .. } => {
                            price.bytes_written += lanes * p.ty(member)?.dtype.size_bytes() as u64;
                        }
                        _ if instr.computes() => price.flops += lanes,
                        _ => {}
                    }
                }
            }
        }
        Ok(price)
    }
}

/// Emission state of one segment. Registers are virtual (one per value)
/// until [`Emit::finish`] renames them.
struct Emit<'a> {
    p: &'a Program,
    /// The stage of every kernel member.
    stage_of: &'a [(VarId, usize)],
    stage: usize,
    seg: Segment,
    /// The prologue register holding each (resolved) scalar value.
    scalar_of: Vec<(VarId, Reg)>,
    /// The body register holding each (resolved) value or its splat.
    vector_of: Vec<(VarId, Reg)>,
}

/// The register `v` sits in, if any.
fn reg_of(regs: &[(VarId, Reg)], v: VarId) -> Option<Reg> {
    regs.iter().find(|(w, _)| *w == v).map(|&(_, r)| r)
}

impl Emit<'_> {
    /// Looks through the slices outside the kernel: reading
    /// `Slice(a)` is reading `a` at this rank's elements.
    fn resolve(&self, mut v: VarId) -> Result<VarId, CoreError> {
        while let OpKind::Slice(a) = self.p.op(v)? {
            if self.stage_of.iter().any(|(m, _)| *m == v) {
                break;
            }
            v = *a;
        }
        Ok(v)
    }

    /// Whether `v` is computed by an earlier instruction of this
    /// segment (and so must already sit in a register).
    fn computed_here(&self, v: VarId) -> bool {
        self.stage_of.contains(&(v, self.stage))
    }

    fn out_of_order(&self, v: VarId) -> CoreError {
        CoreError::MalformedProgram(format!(
            "kernel member reads {v} before the kernel computes it"
        ))
    }

    fn operand(&mut self, v: VarId) -> usize {
        match self.seg.operands.iter().position(|&o| o == v) {
            Some(at) => at,
            None => {
                self.seg.operands.push(v);
                self.seg.operands.len() - 1
            }
        }
    }

    /// The prologue register holding scalar `dep`.
    fn scalar(&mut self, dep: VarId) -> Result<Reg, CoreError> {
        let dep = self.resolve(dep)?;
        if let Some(r) = reg_of(&self.scalar_of, dep) {
            return Ok(r);
        }
        let dst = self.fresh(true);
        match *self.p.op(dep)? {
            OpKind::ConstScalar(c) => self.seg.prologue.push(Instr::Const {
                dst,
                value: c as f32,
            }),
            _ if self.computed_here(dep) => return Err(self.out_of_order(dep)),
            _ => {
                let operand = self.operand(dep);
                self.seg.prologue.push(Instr::Load { dst, operand });
            }
        }
        self.scalar_of.push((dep, dst));
        Ok(dst)
    }

    /// The body register holding `dep` (a splat if it is scalar).
    fn vector(&mut self, dep: VarId) -> Result<Reg, CoreError> {
        let dep = self.resolve(dep)?;
        if let Some(r) = reg_of(&self.vector_of, dep) {
            return Ok(r);
        }
        let dst;
        if is_scalar(self.p.ty(dep)?) {
            let scalar = self.scalar(dep)?;
            dst = self.fresh(false);
            self.seg.pinned.push(Instr::Splat { dst, scalar });
        } else if self.computed_here(dep) {
            return Err(self.out_of_order(dep));
        } else {
            let operand = self.operand(dep);
            dst = self.fresh(false);
            self.seg.body.push(Instr::Load { dst, operand });
        }
        self.vector_of.push((dep, dst));
        Ok(dst)
    }

    /// Emits member `m`: its instruction, its rounding, its store.
    fn member(&mut self, m: VarId, store: bool) -> Result<(), CoreError> {
        let ty = self.p.ty(m)?.clone();
        let scalar = is_scalar(&ty);
        let op = self.p.op(m)?.clone();
        let src = |e: &mut Self, dep| if scalar { e.scalar(dep) } else { e.vector(dep) };
        // `computed`: the register holds a fresh f32 result; otherwise
        // it aliases a value of dtype `from`.
        let (mut reg, from) = match op {
            OpKind::ConstScalar(_) => (self.scalar(m)?, None),
            OpKind::Unary(op, a) => {
                let a = src(self, a)?;
                let dst = self.fresh(scalar);
                let member = m;
                self.push(scalar, Instr::Unary { op, dst, a, member });
                (dst, None)
            }
            OpKind::Binary(op, a, b) => {
                let (a, b) = (src(self, a)?, src(self, b)?);
                let dst = self.fresh(scalar);
                let member = m;
                self.push(
                    scalar,
                    Instr::Binary {
                        op,
                        dst,
                        a,
                        b,
                        member,
                    },
                );
                (dst, None)
            }
            OpKind::Dropout(a, p) => {
                let a = src(self, a)?;
                let dst = self.fresh(scalar);
                self.push(
                    scalar,
                    Instr::Dropout {
                        dst,
                        a,
                        p,
                        member: m,
                    },
                );
                (dst, None)
            }
            OpKind::Slice(x) | OpKind::Update(_, x) => {
                let from = self.p.ty(self.resolve(x)?)?.dtype;
                (src(self, x)?, Some(from))
            }
            ref other => {
                return Err(CoreError::MalformedProgram(format!(
                    "{} is not a kernel instruction",
                    other.mnemonic()
                )));
            }
        };
        let exact_in_f16 = from == Some(DType::F16) || matches!(op, OpKind::ConstScalar(_));
        if ty.dtype == DType::F16 && !exact_in_f16 {
            let dst = self.fresh(scalar);
            self.push(scalar, Instr::RoundF16 { dst, a: reg });
            reg = dst;
        }
        if scalar {
            self.scalar_of.push((m, reg));
        } else {
            self.vector_of.push((m, reg));
        }
        if store {
            self.push(
                scalar,
                Instr::Store {
                    src: reg,
                    member: m,
                },
            );
        }
        Ok(())
    }

    /// A new virtual register of the prologue's or the body's file.
    fn fresh(&mut self, scalar: bool) -> Reg {
        let count = match scalar {
            true => &mut self.seg.prologue_regs,
            false => &mut self.seg.body_regs,
        };
        *count += 1;
        *count - 1
    }

    fn push(&mut self, scalar: bool, instr: Instr) {
        if scalar {
            self.seg.prologue.push(instr);
        } else {
            self.seg.body.push(instr);
        }
    }

    /// Renames the body's virtual registers onto reused physical ones.
    /// Prologue registers are one lane each and outlive the prologue
    /// (the pinned splats read them), so they keep one register per
    /// value.
    fn finish(mut self) -> Segment {
        let seg = &mut self.seg;
        seg.body_regs = allocate(&mut seg.pinned, &mut seg.body, seg.body_regs);
        self.seg
    }
}

/// Maps the `n_virtual` single-assignment registers of `pinned` (live
/// for the whole loop) and `code` onto physical registers, reusing one
/// after its last read, and returns how many that takes. A destination
/// never shares a register with a source of the same instruction.
fn allocate(pinned: &mut [Instr], code: &mut [Instr], n_virtual: usize) -> usize {
    let mut last_read: Vec<Option<usize>> = vec![None; n_virtual];
    for (at, instr) in code.iter().enumerate() {
        for s in instr.srcs() {
            last_read[s] = Some(at);
        }
    }
    let mut to: Vec<Reg> = vec![Reg::MAX; n_virtual];
    let mut count = 0usize;
    let mut free: Vec<Reg> = Vec::new();
    let mut is_pinned = vec![false; n_virtual];
    for instr in pinned.iter_mut() {
        let dst = instr
            .dst()
            .expect("a pinned instruction defines a register");
        is_pinned[dst] = true;
        to[dst] = count;
        count += 1;
        instr.rename(&to);
    }
    for (at, instr) in code.iter_mut().enumerate() {
        if let Some(dst) = instr.dst() {
            to[dst] = free.pop().unwrap_or_else(|| {
                count += 1;
                count - 1
            });
            if last_read[dst].is_none() {
                free.push(to[dst]);
            }
        }
        for s in instr.srcs() {
            if last_read[s] == Some(at) && !is_pinned[s] {
                free.push(to[s]);
            }
        }
        instr.rename(&to);
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xform::fuse_compute;
    use crate::{Layout, ReduceOp};

    fn compile(p: &Program, members: &[VarId]) -> Result<KernelIr, CoreError> {
        KernelIr::compile(p, &Readers::of(p)?, members)
    }

    /// `m_ = Update(m, m*b1 + g*(1-b1)); out = m_ / (1 - Pow(b1, t))`
    /// fused into one kernel.
    fn momentum() -> (Program, Vec<VarId>) {
        let mut p = Program::new("momentum");
        let g = p.input("g", DType::F16, ["N"], Layout::Replicated);
        let m = p.input("m", DType::F32, ["N"], Layout::Replicated);
        let t = p.scalar_input("t", DType::F32);
        let b1 = p.constant(0.9);
        let rest = p.constant(0.1);
        let one = p.constant(1.0);
        let decay = p.mul(m, b1).unwrap();
        let fresh = p.mul(g, rest).unwrap();
        let sum = p.add(decay, fresh).unwrap();
        let m_ = p.update(m, sum).unwrap();
        let b1t = p.pow(b1, t).unwrap();
        let corr = p.sub(one, b1t).unwrap();
        let out = p.div(m_, corr).unwrap();
        p.set_io(&[g, m, t], &[out]).unwrap();
        let comps = vec![decay, fresh, sum, m_, b1t, corr, out];
        fuse_compute(&mut p, &comps).unwrap();
        (p, comps)
    }

    fn only_segment(ir: &KernelIr) -> &Segment {
        assert_eq!(ir.stages.len(), 1, "{ir:?}");
        ir.segments().next().expect("one segment")
    }

    #[test]
    fn only_escaping_members_are_stored_and_operands_load_once() {
        let (p, comps) = momentum();
        let ir = compile(&p, &comps).unwrap();
        let seg = only_segment(&ir);
        // `m_` (an Update) and `out` (a program output); not `decay`,
        // `fresh`, `sum`, or the scalar `b1t` / `corr`.
        assert_eq!(seg.stores().collect::<Vec<_>>(), vec![comps[3], comps[6]]);
        // g, m and t: each loaded once although `m_` is read again.
        assert_eq!(seg.operands.len(), 3);
        let loads = |code: &[Instr]| {
            code.iter()
                .filter(|i| matches!(i, Instr::Load { .. }))
                .count()
        };
        assert_eq!((loads(&seg.prologue), loads(&seg.body)), (1, 2));
        // `Update` aliases its operand: five arithmetic instructions
        // for the five arithmetic vector members... minus the scalars.
        let arithmetic = seg
            .body
            .iter()
            .filter(|i| matches!(i, Instr::Binary { .. }))
            .count();
        assert_eq!(arithmetic, 4, "{:?}", seg.body);
    }

    #[test]
    fn scalar_members_run_once_in_the_prologue() {
        let (p, comps) = momentum();
        let ir = compile(&p, &comps).unwrap();
        let seg = only_segment(&ir);
        assert_eq!(seg.domain, Some(comps[0]));
        // Pow(b1, t) and 1 - b1t: two binaries over two constants and
        // one loaded scalar, none of them in the loop body.
        let kinds: Vec<&str> = seg
            .prologue
            .iter()
            .map(|i| match i {
                Instr::Const { .. } => "const",
                Instr::Load { .. } => "load",
                Instr::Binary { .. } => "binary",
                other => panic!("unexpected prologue instruction {other:?}"),
            })
            .collect();
        assert_eq!(kinds.iter().filter(|k| **k == "binary").count(), 2);
        assert!(seg.body.iter().all(|i| !matches!(
            i,
            Instr::Binary {
                op: BinaryOp::Pow,
                ..
            }
        )));
        // The body sees b1, 1-b1 and corr as pinned splats.
        assert_eq!(seg.pinned.len(), 3);
        assert!(seg
            .pinned
            .iter()
            .all(|i| matches!(i, Instr::Splat { scalar, .. } if *scalar < seg.prologue_regs)));
    }

    #[test]
    fn registers_are_reused_after_their_last_read() {
        // A chain of twelve unary operations needs two registers, not
        // thirteen; a destination never aliases its own source.
        let mut p = Program::new("chain");
        let x = p.input("x", DType::F32, ["N"], Layout::Replicated);
        let mut cur = x;
        let mut comps = Vec::new();
        for i in 0..12 {
            cur = if i % 2 == 0 {
                p.tanh(cur).unwrap()
            } else {
                p.neg(cur).unwrap()
            };
            comps.push(cur);
        }
        p.set_io(&[x], &[cur]).unwrap();
        let ir = compile(&p, &comps).unwrap();
        let seg = only_segment(&ir);
        assert_eq!(seg.body_regs, 2, "{:?}", seg.body);
        for instr in &seg.body {
            if let Some(dst) = instr.dst() {
                assert!(!instr.srcs().contains(&dst), "{instr:?}");
            }
        }
        assert_eq!(seg.stores().collect::<Vec<_>>(), vec![cur]);
    }

    #[test]
    fn f16_members_round_where_they_would_store() {
        let mut p = Program::new("half");
        let x = p.input("x", DType::F16, ["N"], Layout::Replicated);
        let y = p.input("y", DType::F32, ["N"], Layout::Replicated);
        let sq = p.mul(x, x).unwrap(); // F16: rounds
        let wide = p.add(sq, y).unwrap(); // F32: does not
        p.set_io(&[x, y], &[wide]).unwrap();
        let ir = compile(&p, &[sq, wide]).unwrap();
        let seg = only_segment(&ir);
        let rounds = seg
            .body
            .iter()
            .filter(|i| matches!(i, Instr::RoundF16 { .. }))
            .count();
        assert_eq!(rounds, 1, "{:?}", seg.body);
    }

    #[test]
    fn a_reduction_ends_the_segment_and_its_input_reaches_memory() {
        // u = x * x; n = Norm(u); out = u / n — `u` is stored for the
        // norm and re-loaded by the second segment.
        let mut p = Program::new("normalize");
        let x = p.input("x", DType::F32, ["N"], Layout::Replicated);
        let u = p.mul(x, x).unwrap();
        let n = p.norm(u).unwrap();
        let out = p.div(u, n).unwrap();
        p.set_io(&[x], &[out]).unwrap();
        let ir = compile(&p, &[u, n, out]).unwrap();
        assert_eq!(ir.stages.len(), 3);
        assert_eq!(ir.stages[1], Stage::Reduce(n));
        let segs: Vec<&Segment> = ir.segments().collect();
        assert_eq!(segs[0].stores().collect::<Vec<_>>(), vec![u]);
        assert_eq!(segs[1].operands, vec![u, n]);
        assert_eq!(segs[1].stores().collect::<Vec<_>>(), vec![out]);
    }

    #[test]
    fn a_slice_outside_the_kernel_is_an_addressing_mode() {
        // out = rs + Slice(r): the kernel loads `r`, not a
        // materialized slice.
        let mut p = Program::new("sliced");
        let g = p.input("g", DType::F32, ["N"], Layout::Local);
        let r = p.input("r", DType::F32, ["N"], Layout::Replicated);
        let rs = p.reduce_scatter(ReduceOp::Sum, g).unwrap();
        let sl = p.slice(r).unwrap();
        let out = p.add(rs, sl).unwrap();
        p.set_io(&[g, r], &[out]).unwrap();
        let ir = compile(&p, &[out]).unwrap();
        assert_eq!(only_segment(&ir).operands, vec![rs, r]);
    }

    #[test]
    fn the_price_counts_loads_stores_and_computing_instructions() {
        // Loads g (F16) and m in the body and t in the prologue; stores
        // m_ and out; computes four body and two prologue instructions.
        let (p, comps) = momentum();
        let ir = compile(&p, &comps).unwrap();
        let n = 1000u64;
        let price = ir.price(&p, &Binding::new(1).bind("N", n), None).unwrap();
        assert_eq!(
            price,
            KernelStep {
                label: String::new(),
                bytes_read: 6 * n + 4,
                bytes_written: 8 * n,
                flops: 4 * n + 2,
                n_ops: 6,
            }
        );

        // A reduction reads its operand and writes its scalar; the
        // segment after it re-loads the operand.
        let mut p = Program::new("normalize");
        let x = p.input("x", DType::F32, ["N"], Layout::Replicated);
        let u = p.mul(x, x).unwrap();
        let norm = p.norm(u).unwrap();
        let out = p.div(u, norm).unwrap();
        p.set_io(&[x], &[out]).unwrap();
        let ir = compile(&p, &[u, norm, out]).unwrap();
        let price = ir.price(&p, &Binding::new(1).bind("N", n), None).unwrap();
        assert_eq!(
            (price.bytes_read, price.bytes_written),
            (12 * n + 4, 8 * n + 4)
        );
    }

    #[test]
    fn the_price_follows_each_loads_access() {
        // rs: a window of the rank's share (free when it is the pack);
        // Slice(r): the same share of the replicated `r`; `b`: a [4]
        // bias broadcast into the domain, read once.
        let mut p = Program::new("access");
        let g = p.input("g", DType::F32, ["B", "H"], Layout::Local);
        let r = p.input("r", DType::F32, ["B", "H"], Layout::Replicated);
        let b = p.input("b", DType::F16, ["H"], Layout::Replicated);
        let rs = p.reduce_scatter(ReduceOp::Sum, g).unwrap();
        let sl = p.slice(r).unwrap();
        let sum = p.add(rs, sl).unwrap();
        let out = p.add(sum, b).unwrap();
        p.set_io(&[g, r, b], &[out]).unwrap();
        let ir = compile(&p, &[sum, out]).unwrap();
        let seg = only_segment(&ir);
        let domain = p.ty(seg.domain.unwrap()).unwrap();
        let access: Vec<Access> = seg
            .operands
            .iter()
            .map(|&o| Access::between(p.ty(o).unwrap(), domain))
            .collect();
        assert_eq!(
            access,
            [Access::Window, Access::SliceOffset, Access::Broadcast]
        );
        let binding = Binding::new(4).bind("B", 8).bind("H", 4);
        let share = 8 * 4 / 4 * 4;
        let price = ir.price(&p, &binding, None).unwrap();
        assert_eq!(price.bytes_read, 2 * share + 4 * 2);
        let price = ir.price(&p, &binding, Some(rs)).unwrap();
        assert_eq!(price.bytes_read, share + 4 * 2);
        assert_eq!(price.bytes_written, share);
    }

    #[test]
    fn members_out_of_order_are_rejected() {
        let mut p = Program::new("order");
        let x = p.input("x", DType::F32, ["N"], Layout::Replicated);
        let a = p.neg(x).unwrap();
        let b = p.neg(a).unwrap();
        p.set_io(&[x], &[b]).unwrap();
        assert!(matches!(
            compile(&p, &[b, a]),
            Err(CoreError::MalformedProgram(_))
        ));
    }
}
