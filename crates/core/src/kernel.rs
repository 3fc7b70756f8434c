//! The kernel IR: what a unit's pointwise members compute, as a
//! straight-line register program.
//!
//! [`lower::partition`](crate::partition) decides *which* operations
//! form a kernel; [`KernelIr::compile`] decides what that kernel does
//! per element. The runtime's block evaluator executes the result over
//! blocks of lanes (one register = one block of `f32` lanes), so a
//! fusion group's intermediates live in registers and only the members
//! something outside the kernel reads are stored — the memory traffic
//! [`KernelStep`](crate::KernelStep) prices.
//!
//! A kernel is a list of [`Stage`]s. A [`Segment`] is one loop over one
//! iteration domain; `Norm` / `ReduceTensor` members reduce a whole
//! tensor to a scalar and therefore sit *between* segments. Within a
//! segment, scalar-shaped members (`Pow(beta1, t)`) form a one-lane
//! *prologue* that runs once; the loop body reads their results as
//! splats.

use std::collections::{HashMap, HashSet};

use crate::{BinaryOp, CoreError, DType, Dim, OpKind, Program, TensorType, UnaryOp, VarId};

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
    /// `dst = op(a)`.
    Unary {
        /// The operation.
        op: UnaryOp,
        /// Destination register.
        dst: Reg,
        /// Source register.
        a: Reg,
    },
    /// `dst = op(a, b)`.
    Binary {
        /// The operation.
        op: BinaryOp,
        /// Destination register.
        dst: Reg,
        /// Left source register.
        a: Reg,
        /// Right source register.
        b: Reg,
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

/// Whether a value is scalar-shaped whatever the binding: such members
/// run once in the prologue and reach the loop body as splats.
fn is_scalar(ty: &TensorType) -> bool {
    ty.shape.dims().iter().all(|d| matches!(d, Dim::Const(1)))
}

/// Whether two vector members iterate over the same local domain.
fn same_domain(a: &TensorType, b: &TensorType) -> bool {
    a.shape == b.shape && (a.layout == b.layout || (!a.layout.is_sliced() && !b.layout.is_sliced()))
}

fn is_reduction(op: &OpKind) -> bool {
    matches!(op, OpKind::Norm(_) | OpKind::ReduceTensor(..))
}

impl KernelIr {
    /// Compiles the pointwise members of `members` (one unit of
    /// [`partition`](crate::partition); its collectives and sends are
    /// the caller's to run) into a register program.
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
    pub fn compile(p: &Program, members: &[VarId]) -> Result<KernelIr, CoreError> {
        let mut kernel = Vec::new();
        for &m in members {
            if p.op(m)?.is_pointwise() {
                kernel.push(m);
            }
        }
        let in_kernel: HashSet<VarId> = kernel.iter().copied().collect();

        // Pass 1: the stage of every member.
        enum Draft {
            Segment(Vec<VarId>, Option<VarId>),
            Reduce(VarId),
        }
        let mut drafts: Vec<Draft> = Vec::new();
        let mut stage_of: HashMap<VarId, usize> = HashMap::new();
        let mut open: Option<usize> = None;
        for &m in &kernel {
            if is_reduction(p.op(m)?) {
                stage_of.insert(m, drafts.len());
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
            stage_of.insert(m, at);
        }

        // Pass 2: which members reach memory.
        let mut readers: HashMap<VarId, Vec<VarId>> = HashMap::new();
        for v in p.live_vars() {
            for dep in p.op(v)?.inputs() {
                readers.entry(dep).or_default().push(v);
            }
        }
        let mut stored: HashSet<VarId> = HashSet::new();
        for &m in &kernel {
            let op = p.op(m)?;
            let escapes = p.outputs().contains(&m)
                || matches!(op, OpKind::Update(..))
                || readers
                    .get(&m)
                    .is_some_and(|rs| rs.iter().any(|r| stage_of.get(r) != stage_of.get(&m)));
            if escapes && !is_reduction(op) {
                stored.insert(m);
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
                        in_kernel: &in_kernel,
                        stage_of: &stage_of,
                        stage: at,
                        seg: Segment {
                            domain,
                            ..Segment::default()
                        },
                        scalar_of: HashMap::new(),
                        vector_of: HashMap::new(),
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
}

/// Emission state of one segment. Registers are virtual (one per value)
/// until [`Emit::finish`] renames them.
struct Emit<'a> {
    p: &'a Program,
    in_kernel: &'a HashSet<VarId>,
    stage_of: &'a HashMap<VarId, usize>,
    stage: usize,
    seg: Segment,
    /// The prologue register holding a (resolved) scalar value.
    scalar_of: HashMap<VarId, Reg>,
    /// The body register holding a (resolved) value or its splat.
    vector_of: HashMap<VarId, Reg>,
}

impl Emit<'_> {
    /// Looks through the slices outside the kernel: reading
    /// `Slice(a)` is reading `a` at this rank's elements.
    fn resolve(&self, mut v: VarId) -> Result<VarId, CoreError> {
        while let OpKind::Slice(a) = self.p.op(v)? {
            if self.in_kernel.contains(&v) {
                break;
            }
            v = *a;
        }
        Ok(v)
    }

    /// Whether `v` is computed by an earlier instruction of this
    /// segment (and so must already sit in a register).
    fn computed_here(&self, v: VarId) -> bool {
        self.in_kernel.contains(&v) && self.stage_of.get(&v) == Some(&self.stage)
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
        if let Some(&r) = self.scalar_of.get(&dep) {
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
        self.scalar_of.insert(dep, dst);
        Ok(dst)
    }

    /// The body register holding `dep` (a splat if it is scalar).
    fn vector(&mut self, dep: VarId) -> Result<Reg, CoreError> {
        let dep = self.resolve(dep)?;
        if let Some(&r) = self.vector_of.get(&dep) {
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
        self.vector_of.insert(dep, dst);
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
                self.push(scalar, Instr::Unary { op, dst, a });
                (dst, None)
            }
            OpKind::Binary(op, a, b) => {
                let (a, b) = (src(self, a)?, src(self, b)?);
                let dst = self.fresh(scalar);
                self.push(scalar, Instr::Binary { op, dst, a, b });
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
            self.scalar_of.insert(m, reg);
        } else {
            self.vector_of.insert(m, reg);
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
        let ir = KernelIr::compile(&p, &comps).unwrap();
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
        let ir = KernelIr::compile(&p, &comps).unwrap();
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
        let ir = KernelIr::compile(&p, &comps).unwrap();
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
        let ir = KernelIr::compile(&p, &[sq, wide]).unwrap();
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
        let ir = KernelIr::compile(&p, &[u, n, out]).unwrap();
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
        let ir = KernelIr::compile(&p, &[out]).unwrap();
        assert_eq!(only_segment(&ir).operands, vec![rs, r]);
    }

    #[test]
    fn members_out_of_order_are_rejected() {
        let mut p = Program::new("order");
        let x = p.input("x", DType::F32, ["N"], Layout::Replicated);
        let a = p.neg(x).unwrap();
        let b = p.neg(a).unwrap();
        p.set_io(&[x], &[b]).unwrap();
        assert!(matches!(
            KernelIr::compile(&p, &[b, a]),
            Err(CoreError::MalformedProgram(_))
        ));
    }
}
