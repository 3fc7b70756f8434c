//! The data-flow graph of a CoCoNet program and its builder API.
//!
//! "A CoCoNet program inherits the concept of a data-flow graph (DFG)
//! from existing machine learning frameworks with operations as
//! vertices and data dependencies as edges" (§2.2). The DSL is embedded
//! here in Rust the way the paper embeds it in C++: builder methods add
//! typed nodes, inference runs at construction, and `Execute` (here
//! [`Program::set_io`]) seals the program's interface.
//!
//! Transformations (the `xform` module) rewrite this graph; fusion and
//! overlap decisions are recorded as *groups* over node ids rather than
//! by mutating the ops themselves, so a transformed program remains a
//! flat DAG of elementary operations that the functional runtime can
//! execute directly.

use std::collections::HashSet;
use std::fmt::Write as _;

use coconet_tensor::{DType, ReduceOp};

use crate::infer;
use crate::{
    BinaryOp, CoreError, Layout, OpKind, PeerSelector, SymShape, TensorType, UnaryOp, VarId,
};

/// A node of the DFG: an operation plus its inferred type.
#[derive(Clone, Debug)]
pub struct Node {
    pub(crate) op: OpKind,
    pub(crate) ty: TensorType,
    pub(crate) name: String,
    pub(crate) deleted: bool,
}

impl Node {
    /// The node's operation.
    pub fn op(&self) -> &OpKind {
        &self.op
    }

    /// The node's inferred type.
    pub fn ty(&self) -> &TensorType {
        &self.ty
    }

    /// The node's display name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// What a fusion group lowers to (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FuseKind {
    /// A single kernel performing a series of pointwise computations
    /// ("Computation Fuse").
    Compute,
    /// A `FusedAllReduce`: ReduceScatter + sliced computations +
    /// AllGather in one kernel ("AllReduce Fuse", §2.3/5.2).
    AllReduce,
    /// A fused P2P send: computations applied as data is sent (§4).
    Send,
}

impl std::fmt::Display for FuseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuseKind::Compute => write!(f, "ComputationFuse"),
            FuseKind::AllReduce => write!(f, "AllReduceFuse"),
            FuseKind::Send => write!(f, "SendFuse"),
        }
    }
}

/// A set of nodes lowered as one kernel.
#[derive(Clone, Debug)]
pub struct FusionGroup {
    /// What the group lowers to.
    pub kind: FuseKind,
    /// Member nodes, in topological order.
    pub members: Vec<VarId>,
}

/// A producer–consumer chain executed with fine-grained overlapping
/// (§3.4/5.3). Members are node ids; members belonging to the same
/// fusion group act as a single stage.
#[derive(Clone, Debug)]
pub struct OverlapGroup {
    /// Member nodes, in dependency order.
    pub members: Vec<VarId>,
}

/// A distributed machine-learning program: a typed DFG over
/// computation and communication operations, plus schedule annotations
/// (fusion and overlap groups) produced by transformations.
#[derive(Clone, Debug)]
pub struct Program {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<VarId>,
    outputs: Vec<VarId>,
    fusion_groups: Vec<FusionGroup>,
    overlap_groups: Vec<OverlapGroup>,
    io_sealed: bool,
}

impl Program {
    /// Creates an empty program.
    ///
    /// # Examples
    ///
    /// ```
    /// use coconet_core::{DType, Layout, Program, ReduceOp};
    ///
    /// // Figure 3 of the paper, lines 1..13.
    /// let mut p = Program::new("self_attention");
    /// let w = p.input("w", DType::F16, ["H", "H"], Layout::sliced(0));
    /// let b = p.input("b", DType::F16, ["H"], Layout::Replicated);
    /// let input = p.input("in", DType::F16, ["B", "S", "H"], Layout::sliced(2));
    /// let r = p.input("r", DType::F16, ["B", "S", "H"], Layout::Replicated);
    /// let layer = p.matmul(input, w)?;
    /// let sum = p.all_reduce(ReduceOp::Sum, layer)?;
    /// let biased = p.add(sum, b)?;
    /// let dropout = p.dropout(biased, 0.1)?;
    /// let out = p.add(dropout, r)?;
    /// p.set_io(&[w, input, b, r], &[out])?;
    /// # Ok::<(), coconet_core::CoreError>(())
    /// ```
    pub fn new(name: impl Into<String>) -> Program {
        Program {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            fusion_groups: Vec::new(),
            overlap_groups: Vec::new(),
            io_sealed: false,
        }
    }

    /// The program name (the paper's `Execute` name).
    pub fn name(&self) -> &str {
        &self.name
    }

    fn push(&mut self, op: OpKind, ty: TensorType, name: String) -> VarId {
        let id = VarId(self.nodes.len() as u32);
        self.nodes.push(Node {
            op,
            ty,
            name,
            deleted: false,
        });
        id
    }

    fn auto_name(&self, prefix: &str) -> String {
        format!("{prefix}{}", self.nodes.len())
    }

    /// Looks up a live node.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownVar`] for ids of deleted or foreign
    /// nodes.
    pub fn node(&self, v: VarId) -> Result<&Node, CoreError> {
        self.nodes
            .get(v.index())
            .filter(|n| !n.deleted)
            .ok_or(CoreError::UnknownVar(v.0))
    }

    pub(crate) fn node_mut(&mut self, v: VarId) -> Result<&mut Node, CoreError> {
        self.nodes
            .get_mut(v.index())
            .filter(|n| !n.deleted)
            .ok_or(CoreError::UnknownVar(v.0))
    }

    /// The type of a variable.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownVar`] for dead ids.
    pub fn ty(&self, v: VarId) -> Result<&TensorType, CoreError> {
        Ok(self.node(v)?.ty())
    }

    /// The operation of a variable.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownVar`] for dead ids.
    pub fn op(&self, v: VarId) -> Result<&OpKind, CoreError> {
        Ok(self.node(v)?.op())
    }

    /// Renames a variable (used by workload builders so printed
    /// programs read like the paper's figures).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownVar`] for dead ids.
    pub fn set_name(&mut self, v: VarId, name: impl Into<String>) -> Result<(), CoreError> {
        self.node_mut(v)?.name = name.into();
        Ok(())
    }

    // ----- declarations -------------------------------------------------

    /// Declares an input tensor with the given distributed layout.
    pub fn input(
        &mut self,
        name: impl Into<String>,
        dtype: DType,
        shape: impl Into<SymShape>,
        layout: Layout,
    ) -> VarId {
        let name = name.into();
        self.push(
            OpKind::Input,
            TensorType::new(dtype, shape.into(), layout),
            name,
        )
    }

    /// Declares a replicated scalar input (the paper's `Scalar`, e.g.
    /// learning rate).
    pub fn scalar_input(&mut self, name: impl Into<String>, dtype: DType) -> VarId {
        self.input(name, dtype, SymShape::scalar(), Layout::Replicated)
    }

    /// A scalar constant.
    pub fn constant(&mut self, value: f64) -> VarId {
        let name = self.auto_name("c");
        self.push(
            OpKind::ConstScalar(value),
            TensorType::scalar(DType::F32),
            name,
        )
    }

    // ----- pointwise computation ----------------------------------------

    fn unary(&mut self, op: UnaryOp, a: VarId) -> Result<VarId, CoreError> {
        let ty = self.ty(a)?.clone();
        let name = self.auto_name("v");
        Ok(self.push(OpKind::Unary(op, a), ty, name))
    }

    /// Elementwise square root.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownVar`] for dead operands.
    pub fn sqrt(&mut self, a: VarId) -> Result<VarId, CoreError> {
        self.unary(UnaryOp::Sqrt, a)
    }

    /// Elementwise hyperbolic tangent.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownVar`] for dead operands.
    pub fn tanh(&mut self, a: VarId) -> Result<VarId, CoreError> {
        self.unary(UnaryOp::Tanh, a)
    }

    /// Elementwise ReLU.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownVar`] for dead operands.
    pub fn relu(&mut self, a: VarId) -> Result<VarId, CoreError> {
        self.unary(UnaryOp::Relu, a)
    }

    /// Elementwise negation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownVar`] for dead operands.
    pub fn neg(&mut self, a: VarId) -> Result<VarId, CoreError> {
        self.unary(UnaryOp::Neg, a)
    }

    fn binary(&mut self, op: BinaryOp, a: VarId, b: VarId) -> Result<VarId, CoreError> {
        let ty = infer::infer_binary(op.symbol(), self.ty(a)?, self.ty(b)?)?;
        let name = self.auto_name("v");
        Ok(self.push(OpKind::Binary(op, a, b), ty, name))
    }

    /// Elementwise addition with broadcasting.
    ///
    /// # Errors
    ///
    /// Propagates inference errors (shape/layout incompatibility).
    pub fn add(&mut self, a: VarId, b: VarId) -> Result<VarId, CoreError> {
        self.binary(BinaryOp::Add, a, b)
    }

    /// Elementwise subtraction with broadcasting.
    ///
    /// # Errors
    ///
    /// Propagates inference errors (shape/layout incompatibility).
    pub fn sub(&mut self, a: VarId, b: VarId) -> Result<VarId, CoreError> {
        self.binary(BinaryOp::Sub, a, b)
    }

    /// Elementwise multiplication with broadcasting.
    ///
    /// # Errors
    ///
    /// Propagates inference errors (shape/layout incompatibility).
    pub fn mul(&mut self, a: VarId, b: VarId) -> Result<VarId, CoreError> {
        self.binary(BinaryOp::Mul, a, b)
    }

    /// Elementwise division with broadcasting.
    ///
    /// # Errors
    ///
    /// Propagates inference errors (shape/layout incompatibility).
    pub fn div(&mut self, a: VarId, b: VarId) -> Result<VarId, CoreError> {
        self.binary(BinaryOp::Div, a, b)
    }

    /// Elementwise power `a ^ b`.
    ///
    /// # Errors
    ///
    /// Propagates inference errors (shape/layout incompatibility).
    pub fn pow(&mut self, a: VarId, b: VarId) -> Result<VarId, CoreError> {
        self.binary(BinaryOp::Pow, a, b)
    }

    /// Matrix multiplication `a @ w`.
    ///
    /// # Errors
    ///
    /// Propagates inference errors (shape/layout incompatibility).
    pub fn matmul(&mut self, a: VarId, w: VarId) -> Result<VarId, CoreError> {
        let ty = infer::infer_matmul(self.ty(a)?, self.ty(w)?)?;
        let name = self.auto_name("v");
        Ok(self.push(OpKind::MatMul(a, w), ty, name))
    }

    /// 2-D convolution `conv2d(x, w)` (Table 1's Convolution layer).
    ///
    /// # Errors
    ///
    /// Propagates inference errors (shape/layout incompatibility;
    /// spatial extents must be constant).
    pub fn conv2d(
        &mut self,
        x: VarId,
        w: VarId,
        params: coconet_tensor::Conv2dParams,
    ) -> Result<VarId, CoreError> {
        let ty = infer::infer_conv2d(self.ty(x)?, self.ty(w)?, params)?;
        let name = self.auto_name("v");
        Ok(self.push(OpKind::Conv2d(x, w, params), ty, name))
    }

    /// Dropout activation with drop probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownVar`] for dead operands and
    /// [`CoreError::MalformedProgram`] for `p` outside `[0, 1)`.
    pub fn dropout(&mut self, a: VarId, p: f64) -> Result<VarId, CoreError> {
        if !(0.0..1.0).contains(&p) {
            return Err(CoreError::MalformedProgram(format!(
                "dropout probability {p} outside [0, 1)"
            )));
        }
        let ty = self.ty(a)?.clone();
        let name = self.auto_name("v");
        Ok(self.push(OpKind::Dropout(a, p), ty, name))
    }

    /// In-place update of a declared input tensor (`Update` in
    /// Table 1): `target` takes the value of `value` and the returned
    /// variable represents the updated tensor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ExpectedOp`] if `target` is not an input
    /// and inference errors on type mismatch.
    pub fn update(&mut self, target: VarId, value: VarId) -> Result<VarId, CoreError> {
        let target_node = self.node(target)?;
        if !matches!(target_node.op, OpKind::Input) {
            return Err(CoreError::ExpectedOp {
                expected: "Input tensor as Update target".into(),
                found: target_node.op.mnemonic(),
            });
        }
        let ty = infer::infer_update(self.ty(target)?, self.ty(value)?)?;
        let name = self.auto_name("v");
        Ok(self.push(OpKind::Update(target, value), ty, name))
    }

    /// L2 norm of a tensor, yielding a replicated FP32 scalar.
    ///
    /// # Errors
    ///
    /// Propagates inference errors (`Local` operands are rejected).
    pub fn norm(&mut self, a: VarId) -> Result<VarId, CoreError> {
        let ty = infer::infer_full_reduction("Norm", self.ty(a)?)?;
        let name = self.auto_name("v");
        Ok(self.push(OpKind::Norm(a), ty, name))
    }

    /// Full reduction of a tensor to a replicated FP32 scalar
    /// (`ReduceTensor` in Table 1).
    ///
    /// # Errors
    ///
    /// Propagates inference errors (`Local` operands are rejected).
    pub fn reduce_tensor(&mut self, op: ReduceOp, a: VarId) -> Result<VarId, CoreError> {
        let ty = infer::infer_full_reduction("ReduceTensor", self.ty(a)?)?;
        let name = self.auto_name("v");
        Ok(self.push(OpKind::ReduceTensor(op, a), ty, name))
    }

    /// This rank's flat slice of a replicated tensor (`Slice`).
    ///
    /// # Errors
    ///
    /// Propagates inference errors (operand must be replicated).
    pub fn slice(&mut self, a: VarId) -> Result<VarId, CoreError> {
        let ty = infer::infer_slice(self.ty(a)?)?;
        let name = self.auto_name("v");
        Ok(self.push(OpKind::Slice(a), ty, name))
    }

    // ----- communication -------------------------------------------------

    /// AllReduce collective over the group.
    ///
    /// # Errors
    ///
    /// Propagates inference errors (operand must be `Local`).
    pub fn all_reduce(&mut self, op: ReduceOp, a: VarId) -> Result<VarId, CoreError> {
        let ty = infer::infer_all_reduce(self.ty(a)?)?;
        let name = self.auto_name("v");
        Ok(self.push(OpKind::AllReduce(op, a), ty, name))
    }

    /// ReduceScatter collective over the group.
    ///
    /// # Errors
    ///
    /// Propagates inference errors (operand must be `Local`).
    pub fn reduce_scatter(&mut self, op: ReduceOp, a: VarId) -> Result<VarId, CoreError> {
        let ty = infer::infer_reduce_scatter(self.ty(a)?)?;
        let name = self.auto_name("v");
        Ok(self.push(OpKind::ReduceScatter(op, a), ty, name))
    }

    /// AllGather collective over the group.
    ///
    /// # Errors
    ///
    /// Propagates inference errors (operand must be sliced).
    pub fn all_gather(&mut self, a: VarId) -> Result<VarId, CoreError> {
        let ty = infer::infer_all_gather(self.ty(a)?)?;
        let name = self.auto_name("v");
        Ok(self.push(OpKind::AllGather(a), ty, name))
    }

    /// Broadcast from the group-relative `root` rank.
    ///
    /// # Errors
    ///
    /// Propagates inference errors (operand must not be sliced).
    pub fn broadcast(&mut self, a: VarId, root: usize) -> Result<VarId, CoreError> {
        let ty = infer::infer_broadcast(self.ty(a)?)?;
        let name = self.auto_name("v");
        Ok(self.push(OpKind::Broadcast(a, root), ty, name))
    }

    /// Reduce to the group-relative `root` rank.
    ///
    /// # Errors
    ///
    /// Propagates inference errors (operand must be `Local`).
    pub fn reduce(&mut self, op: ReduceOp, a: VarId, root: usize) -> Result<VarId, CoreError> {
        let ty = infer::infer_reduce(self.ty(a)?)?;
        let name = self.auto_name("v");
        Ok(self.push(OpKind::Reduce(op, a, root), ty, name))
    }

    /// P2P send to the selected peer; the returned variable is the
    /// value as it materializes on the destination group.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownVar`] for dead operands.
    pub fn send(&mut self, a: VarId, peer: PeerSelector) -> Result<VarId, CoreError> {
        let ty = infer::infer_send(self.ty(a)?);
        let name = self.auto_name("v");
        Ok(self.push(OpKind::Send(a, peer), ty, name))
    }

    // ----- interface -----------------------------------------------------

    /// Seals the program interface (the paper's
    /// `Execute name({inputs}, {outputs})`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedProgram`] if an id is not a
    /// declared input, an output is dead, or the program was already
    /// sealed.
    pub fn set_io(&mut self, inputs: &[VarId], outputs: &[VarId]) -> Result<(), CoreError> {
        if self.io_sealed {
            return Err(CoreError::MalformedProgram(
                "program interface already sealed".into(),
            ));
        }
        for &v in inputs {
            let node = self.node(v)?;
            if !matches!(node.op, OpKind::Input) {
                return Err(CoreError::MalformedProgram(format!(
                    "{} is not a declared input tensor",
                    node.name
                )));
            }
        }
        for &v in outputs {
            self.node(v)?;
        }
        self.inputs = inputs.to_vec();
        self.outputs = outputs.to_vec();
        self.io_sealed = true;
        Ok(())
    }

    /// Declared program inputs.
    pub fn inputs(&self) -> &[VarId] {
        &self.inputs
    }

    /// Declared program outputs.
    pub fn outputs(&self) -> &[VarId] {
        &self.outputs
    }

    pub(crate) fn set_outputs(&mut self, outputs: Vec<VarId>) {
        self.outputs = outputs;
    }

    // ----- graph queries --------------------------------------------------

    /// Ids of all live nodes, in arena order.
    pub fn live_vars(&self) -> Vec<VarId> {
        (0..self.nodes.len() as u32)
            .map(VarId)
            .filter(|v| !self.nodes[v.index()].deleted)
            .collect()
    }

    /// Live nodes that read `v`.
    pub fn consumers(&self, v: VarId) -> Vec<VarId> {
        self.live_vars()
            .into_iter()
            .filter(|&c| self.nodes[c.index()].op.inputs().contains(&v))
            .collect()
    }

    /// A topological order over the live nodes.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle (impossible through the
    /// public API; transformations preserve acyclicity).
    pub fn topo_order(&self) -> Vec<VarId> {
        let live = self.live_vars();
        let live_set: HashSet<VarId> = live.iter().copied().collect();
        let mut order = Vec::with_capacity(live.len());
        let mut done: HashSet<VarId> = HashSet::new();
        // Nodes are appended referencing earlier ids, but transformations
        // may rewire forward; do a proper DFS.
        fn visit(
            p: &Program,
            v: VarId,
            live: &HashSet<VarId>,
            done: &mut HashSet<VarId>,
            visiting: &mut HashSet<VarId>,
            order: &mut Vec<VarId>,
        ) {
            if done.contains(&v) || !live.contains(&v) {
                return;
            }
            assert!(visiting.insert(v), "cycle through {v} in program DFG");
            for dep in p.nodes[v.index()].op.inputs() {
                visit(p, dep, live, done, visiting, order);
            }
            visiting.remove(&v);
            done.insert(v);
            order.push(v);
        }
        let mut visiting = HashSet::new();
        for v in live {
            visit(self, v, &live_set, &mut done, &mut visiting, &mut order);
        }
        order
    }

    /// Whether `to` is reachable from `from` along dataflow edges.
    pub fn reaches(&self, from: VarId, to: VarId) -> bool {
        if from == to {
            return true;
        }
        let mut stack = vec![to];
        let mut seen = HashSet::new();
        while let Some(v) = stack.pop() {
            if !seen.insert(v) {
                continue;
            }
            for dep in self.nodes[v.index()].op.inputs() {
                if dep == from {
                    return true;
                }
                stack.push(dep);
            }
        }
        false
    }

    pub(crate) fn mark_deleted(&mut self, v: VarId) {
        self.nodes[v.index()].deleted = true;
    }

    /// Rewires every consumer of `from` to read `to`, and replaces
    /// `from` in the program outputs.
    pub(crate) fn replace_uses(&mut self, from: VarId, to: VarId) {
        for i in 0..self.nodes.len() {
            if !self.nodes[i].deleted {
                self.nodes[i].op.replace_input(from, to);
            }
        }
        for out in &mut self.outputs {
            if *out == from {
                *out = to;
            }
        }
    }

    // ----- schedule annotations -------------------------------------------

    /// The fusion groups recorded by `fuse` transformations.
    pub fn fusion_groups(&self) -> &[FusionGroup] {
        &self.fusion_groups
    }

    /// The overlap groups recorded by `overlap` transformations.
    pub fn overlap_groups(&self) -> &[OverlapGroup] {
        &self.overlap_groups
    }

    pub(crate) fn add_fusion_group(&mut self, group: FusionGroup) -> usize {
        self.fusion_groups.push(group);
        self.fusion_groups.len() - 1
    }

    pub(crate) fn replace_fusion_groups(&mut self, groups: Vec<FusionGroup>) {
        self.fusion_groups = groups;
    }

    pub(crate) fn add_overlap_group(&mut self, group: OverlapGroup) {
        self.overlap_groups.push(group);
    }

    pub(crate) fn remove_from_groups(&mut self, v: VarId) {
        for g in &mut self.fusion_groups {
            g.members.retain(|&m| m != v);
        }
        self.fusion_groups.retain(|g| !g.members.is_empty());
        for g in &mut self.overlap_groups {
            g.members.retain(|&m| m != v);
        }
        self.overlap_groups.retain(|g| !g.members.is_empty());
    }

    /// The index of the fusion group containing `v`, if any.
    pub fn fusion_group_of(&self, v: VarId) -> Option<usize> {
        self.fusion_groups
            .iter()
            .position(|g| g.members.contains(&v))
    }

    /// Recomputes the type of every non-leaf node in topological order.
    /// Called by transformations after rewiring or changing a declared
    /// layout (`asSlice`); an inference failure means the rewrite was
    /// invalid.
    ///
    /// # Errors
    ///
    /// Propagates the first inference error.
    pub(crate) fn reinfer(&mut self) -> Result<(), CoreError> {
        for v in self.topo_order() {
            let op = self.nodes[v.index()].op.clone();
            if matches!(op, OpKind::Input | OpKind::ConstScalar(_)) {
                continue;
            }
            let tys: Vec<TensorType> = op
                .inputs()
                .iter()
                .map(|&d| self.ty(d).cloned())
                .collect::<Result<_, _>>()?;
            let refs: Vec<&TensorType> = tys.iter().collect();
            let new_ty = infer::infer_op(&op, &refs)?;
            self.nodes[v.index()].ty = new_ty;
        }
        Ok(())
    }

    // ----- validation and printing ----------------------------------------

    /// Checks structural invariants: sealed interface, acyclicity, all
    /// operands live, groups reference live nodes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedProgram`] describing the first
    /// violation.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.validated_order().map(drop)
    }

    /// [`validate`](Program::validate), returning the topological order
    /// the acyclicity check computes.
    pub(crate) fn validated_order(&self) -> Result<Vec<VarId>, CoreError> {
        if !self.io_sealed {
            return Err(CoreError::MalformedProgram(
                "program interface not sealed with set_io".into(),
            ));
        }
        for v in self.live_vars() {
            for dep in self.nodes[v.index()].op.inputs() {
                if self.nodes.get(dep.index()).is_none_or(|n| n.deleted) {
                    return Err(CoreError::MalformedProgram(format!(
                        "{v} reads dead variable {dep}"
                    )));
                }
            }
        }
        for out in &self.outputs {
            self.node(*out)?;
        }
        for g in &self.fusion_groups {
            for &m in &g.members {
                self.node(m)?;
            }
        }
        for g in &self.overlap_groups {
            for &m in &g.members {
                self.node(m)?;
            }
        }
        // Write-after-read hazards: every other reader of an Update's
        // target must execute before the update — i.e. it must be an
        // ancestor of the update's value. Otherwise a topological
        // schedule could observe the new value where the program meant
        // the old one.
        for v in self.live_vars() {
            if let OpKind::Update(target, _) = self.nodes[v.index()].op {
                for reader in self.consumers(target) {
                    if reader != v && !self.reaches(reader, v) {
                        return Err(CoreError::MalformedProgram(format!(
                            "{} reads {} but is not ordered before its Update {}",
                            self.nodes[reader.index()].name,
                            self.nodes[target.index()].name,
                            self.nodes[v.index()].name
                        )));
                    }
                }
            }
        }
        Ok(self.topo_order()) // panics on a cycle
    }

    /// Renders the program as DSL source in the style of the paper's
    /// figures (one statement per line, `Execute` last). Table 3 counts
    /// these lines as "Program in CoCoNet".
    pub fn to_dsl_string(&self) -> String {
        let mut out = String::new();
        let name_of = |v: VarId| self.nodes[v.index()].name.clone();
        for v in self.topo_order() {
            let node = &self.nodes[v.index()];
            match &node.op {
                OpKind::Input => {
                    let _ = writeln!(
                        out,
                        "Tensor {}({}, {}, {}, WORLD);",
                        node.name, node.ty.dtype, node.ty.shape, node.ty.layout
                    );
                }
                OpKind::ConstScalar(c) => {
                    let _ = writeln!(out, "Scalar {} = {c};", node.name);
                }
                OpKind::Unary(op, a) => {
                    let _ = writeln!(out, "Var {} = {}({});", node.name, op.name(), name_of(*a));
                }
                OpKind::Binary(op, a, b) => {
                    if matches!(op, BinaryOp::Pow) {
                        let _ = writeln!(
                            out,
                            "Var {} = Pow({}, {});",
                            node.name,
                            name_of(*a),
                            name_of(*b)
                        );
                    } else {
                        let _ = writeln!(
                            out,
                            "Var {} = {} {} {};",
                            node.name,
                            name_of(*a),
                            op.symbol(),
                            name_of(*b)
                        );
                    }
                }
                OpKind::MatMul(a, b) => {
                    let _ = writeln!(
                        out,
                        "Var {} = MatMul({}, {});",
                        node.name,
                        name_of(*a),
                        name_of(*b)
                    );
                }
                OpKind::Conv2d(a, b, params) => {
                    let _ = writeln!(
                        out,
                        "Var {} = Conv2d({}, {}, stride={}, pad={});",
                        node.name,
                        name_of(*a),
                        name_of(*b),
                        params.stride,
                        params.padding
                    );
                }
                OpKind::Dropout(a, p) => {
                    let _ = writeln!(out, "Var {} = Dropout({}, {p});", node.name, name_of(*a));
                }
                OpKind::Update(t, x) => {
                    let _ = writeln!(
                        out,
                        "Var {} = Update({}, {});",
                        node.name,
                        name_of(*t),
                        name_of(*x)
                    );
                }
                OpKind::Norm(a) => {
                    let _ = writeln!(out, "Var {} = Norm({});", node.name, name_of(*a));
                }
                OpKind::ReduceTensor(op, a) => {
                    let _ = writeln!(
                        out,
                        "Var {} = ReduceTensor(\"{op}\", {});",
                        node.name,
                        name_of(*a)
                    );
                }
                OpKind::Slice(a) => {
                    let _ = writeln!(out, "Var {} = Slice({});", node.name, name_of(*a));
                }
                OpKind::AllReduce(op, a) => {
                    let _ = writeln!(
                        out,
                        "Var {} = AllReduce(\"{op}\", {});",
                        node.name,
                        name_of(*a)
                    );
                }
                OpKind::ReduceScatter(op, a) => {
                    let _ = writeln!(
                        out,
                        "Var {} = ReduceScatter(\"{op}\", {});",
                        node.name,
                        name_of(*a)
                    );
                }
                OpKind::AllGather(a) => {
                    let _ = writeln!(out, "Var {} = AllGather({});", node.name, name_of(*a));
                }
                OpKind::Broadcast(a, root) => {
                    let _ = writeln!(
                        out,
                        "Var {} = Broadcast({}, {root});",
                        node.name,
                        name_of(*a)
                    );
                }
                OpKind::Reduce(op, a, root) => {
                    let _ = writeln!(
                        out,
                        "Var {} = Reduce(\"{op}\", {}, {root});",
                        node.name,
                        name_of(*a)
                    );
                }
                OpKind::Send(a, peer) => {
                    let _ = writeln!(out, "Var {} = Send({}, {peer});", node.name, name_of(*a));
                }
            }
        }
        let ins: Vec<String> = self.inputs.iter().map(|&v| name_of(v)).collect();
        let outs: Vec<String> = self.outputs.iter().map(|&v| name_of(v)).collect();
        let _ = writeln!(
            out,
            "Execute {}({{{}}}, {{{}}});",
            self.name,
            ins.join(", "),
            outs.join(", ")
        );
        out
    }

    /// Number of DSL source lines (Table 3's "Program in CoCoNet").
    pub fn dsl_loc(&self) -> usize {
        self.to_dsl_string().lines().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layout;

    /// The running example of the paper (Figure 3).
    fn figure3() -> (Program, VarId) {
        let mut p = Program::new("self_attention");
        let w = p.input("w", DType::F16, ["H", "H"], Layout::sliced(0));
        let b = p.input("b", DType::F16, ["H"], Layout::Replicated);
        let input = p.input("in", DType::F16, ["B", "S", "H"], Layout::sliced(2));
        let r = p.input("r", DType::F16, ["B", "S", "H"], Layout::Replicated);
        let layer = p.matmul(input, w).unwrap();
        let sum = p.all_reduce(ReduceOp::Sum, layer).unwrap();
        let biased = p.add(sum, b).unwrap();
        let dropout = p.dropout(biased, 0.1).unwrap();
        let out = p.add(dropout, r).unwrap();
        p.set_io(&[w, input, b, r], &[out]).unwrap();
        (p, out)
    }

    #[test]
    fn figure3_types() {
        let (p, out) = figure3();
        p.validate().unwrap();
        let out_ty = p.ty(out).unwrap();
        assert_eq!(out_ty.layout, Layout::Replicated);
        assert_eq!(out_ty.shape, ["B", "S", "H"].into());
        // layer is Local (Figure 3, line 6 comment).
        let layer = p
            .live_vars()
            .into_iter()
            .find(|&v| matches!(p.op(v).unwrap(), OpKind::MatMul(..)))
            .unwrap();
        assert_eq!(p.ty(layer).unwrap().layout, Layout::Local);
    }

    #[test]
    fn dsl_printout() {
        let (p, _) = figure3();
        let text = p.to_dsl_string();
        assert!(text.contains("Tensor w(FP16, [H,H], Sliced(0), WORLD);"));
        assert!(text.contains("AllReduce(\"+\""));
        assert!(text.contains("Dropout("));
        assert!(text.contains("Execute self_attention({w, in, b, r}"));
        // 4 tensors + 5 ops + Execute = 10 lines, matching the ~10-line
        // programs of Table 3.
        assert_eq!(p.dsl_loc(), 10);
    }

    #[test]
    fn consumers_and_topo() {
        let (p, out) = figure3();
        let order = p.topo_order();
        assert_eq!(order.len(), p.live_vars().len());
        // Every node appears after its inputs.
        for (idx, &v) in order.iter().enumerate() {
            for dep in p.op(v).unwrap().inputs() {
                let dep_idx = order.iter().position(|&x| x == dep).unwrap();
                assert!(dep_idx < idx);
            }
        }
        // `out` is consumed by nothing.
        assert!(p.consumers(out).is_empty());
    }

    #[test]
    fn reaches() {
        let (p, out) = figure3();
        let layer = p
            .live_vars()
            .into_iter()
            .find(|&v| matches!(p.op(v).unwrap(), OpKind::MatMul(..)))
            .unwrap();
        assert!(p.reaches(layer, out));
        assert!(!p.reaches(out, layer));
        assert!(p.reaches(out, out));
    }

    #[test]
    fn io_rules() {
        let mut p = Program::new("t");
        let a = p.input("a", DType::F32, ["N"], Layout::Local);
        let s = p.all_reduce(ReduceOp::Sum, a).unwrap();
        // Outputs must be live; non-input tensors cannot be inputs.
        assert!(p.set_io(&[s], &[s]).is_err());
        p.set_io(&[a], &[s]).unwrap();
        assert!(p.set_io(&[a], &[s]).is_err(), "sealing twice fails");
        assert_eq!(p.inputs(), &[a]);
        assert_eq!(p.outputs(), &[s]);
    }

    #[test]
    fn update_requires_input_target() {
        let mut p = Program::new("t");
        let a = p.input("a", DType::F32, ["N"], Layout::Replicated);
        let b = p.input("b", DType::F32, ["N"], Layout::Replicated);
        let sum = p.add(a, b).unwrap();
        assert!(p.update(a, sum).is_ok());
        assert!(matches!(
            p.update(sum, a),
            Err(CoreError::ExpectedOp { .. })
        ));
    }

    #[test]
    fn validate_rejects_unsealed() {
        let mut p = Program::new("t");
        let _ = p.input("a", DType::F32, ["N"], Layout::Local);
        assert!(p.validate().is_err());
    }

    #[test]
    fn scalars_and_constants() {
        let mut p = Program::new("t");
        let lr = p.scalar_input("lr", DType::F32);
        let c = p.constant(0.9);
        let x = p.mul(lr, c).unwrap();
        assert_eq!(p.ty(x).unwrap().shape.rank(), 0);
        assert_eq!(p.ty(x).unwrap().layout, Layout::Replicated);
    }

    #[test]
    fn validate_rejects_read_after_update_hazard() {
        // out2 = p + 1 is not ordered against Update(p, ...): a valid
        // topological order could run it after the update and observe
        // the new value.
        let mut prog = Program::new("hazard");
        let p0 = prog.input("p", DType::F32, ["N"], Layout::Replicated);
        let one = prog.constant(1.0);
        let newv = prog.mul(p0, one).unwrap();
        let upd = prog.update(p0, newv).unwrap();
        let out2 = prog.add(p0, one).unwrap();
        prog.set_io(&[p0], &[upd, out2]).unwrap();
        assert!(matches!(
            prog.validate(),
            Err(CoreError::MalformedProgram(_))
        ));

        // Reading p only *inside* the update expression is fine.
        let mut ok = Program::new("fine");
        let p0 = ok.input("p", DType::F32, ["N"], Layout::Replicated);
        let one = ok.constant(1.0);
        let read = ok.add(p0, one).unwrap();
        let upd = ok.update(p0, read).unwrap();
        ok.set_io(&[p0], &[upd]).unwrap();
        ok.validate().unwrap();
    }

    #[test]
    fn set_name_shows_in_dsl() {
        let mut p = Program::new("t");
        let a = p.input("g", DType::F32, ["N"], Layout::Local);
        let s = p.all_reduce(ReduceOp::Sum, a).unwrap();
        p.set_name(s, "avg").unwrap();
        p.set_io(&[a], &[s]).unwrap();
        assert!(p.to_dsl_string().contains("Var avg = AllReduce"));
    }
}
