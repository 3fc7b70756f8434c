//! Lowering: scheduled programs to executable plans.
//!
//! Walks the DFG in topological order, turning fusion groups into
//! single kernel/fused-collective steps, overlap groups into pipeline
//! steps, and everything else into one step per operation — which is
//! exactly how launch counts and memory round-trips differ between the
//! paper's schedules (an unfused optimizer is a long sequence of
//! kernel launches; `fuse(RS-Opt-AG)` is one).
//!
//! [`partition`] decides what the units are and when they run; `lower`
//! prices them, [`crate::codegen`] prints them and the runtime's
//! executor runs them.

use std::collections::{HashMap, HashSet};

use crate::kernel::{Readers, Stage};
use crate::{
    Binding, CollAlgo, CollKind, CommConfig, CoreError, ExecPlan, FuseKind, FusedCollectiveStep,
    KernelIr, KernelStep, Layout, MatMulStep, OpKind, OverlapStage, OverlappedStep, Program,
    SendRecvStep, SliceDim, Step, VarId,
};

/// How a unit's members were grouped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnitKind {
    /// One operation no fusion group claims.
    Single,
    /// A whole fusion group of this kind.
    Fused(FuseKind),
}

/// One schedulable unit: a whole fusion group, or one operation no
/// fusion group claims.
#[derive(Clone, Debug)]
pub struct Unit {
    /// How the members were grouped.
    pub kind: UnitKind,
    /// The unit's operations, in topological order.
    pub members: Vec<VarId>,
}

/// One entry of the execution order, as indices into
/// [`Partition::units`].
#[derive(Clone, Debug)]
pub enum Scheduled {
    /// A unit that runs on its own.
    Unit(usize),
    /// The units of one overlap group, in pipeline order.
    Overlap(Vec<usize>),
}

impl Scheduled {
    /// The entry's units, in execution order.
    pub fn units(&self) -> &[usize] {
        match self {
            Scheduled::Unit(u) => std::slice::from_ref(u),
            Scheduled::Overlap(us) => us,
        }
    }
}

/// What a schedule makes of a program: its units and the order they
/// execute in. `lower` prices it, `codegen` prints it and the runtime
/// executes it, so the three cannot disagree on what a kernel is or
/// when it launches.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Every fusion group (in declaration order), then every remaining
    /// operation (in topological order). Inputs, constants and slices
    /// outside a fusion group are operands, not units.
    pub units: Vec<Unit>,
    /// Execution order: an entry runs after every entry it reads from,
    /// ties broken by each entry's first member in topological order.
    /// The units of an overlap group form one entry.
    pub order: Vec<Scheduled>,
}

/// Validates `p` and partitions it into scheduled units.
///
/// # Errors
///
/// Propagates [`Program::validate`]'s errors.
pub fn partition(p: &Program) -> Result<Partition, CoreError> {
    let topo = p.validated_order()?;
    let position: HashMap<VarId, usize> = topo.iter().enumerate().map(|(i, &v)| (v, i)).collect();

    let mut unit_of: HashMap<VarId, usize> = HashMap::new();
    let mut units: Vec<Unit> = Vec::new();
    for g in p.fusion_groups() {
        let idx = units.len();
        units.push(Unit {
            kind: UnitKind::Fused(g.kind),
            members: g.members.clone(),
        });
        for &m in &g.members {
            unit_of.insert(m, idx);
        }
    }
    for &v in &topo {
        if unit_of.contains_key(&v) {
            continue;
        }
        let op = p.op(v)?;
        if matches!(
            op,
            OpKind::Input | OpKind::ConstScalar(_) | OpKind::Slice(_)
        ) {
            continue;
        }
        let idx = units.len();
        units.push(Unit {
            kind: UnitKind::Single,
            members: vec![v],
        });
        unit_of.insert(v, idx);
    }

    let first_position = |u: usize| {
        units[u]
            .members
            .iter()
            .map(|m| position[m])
            .min()
            .unwrap_or(usize::MAX)
    };

    // Schedule entries: one per overlap group (its units in pipeline
    // order), one per remaining unit.
    let mut entries: Vec<Scheduled> = Vec::new();
    let mut entry_of: HashMap<usize, usize> = HashMap::new();
    for og in p.overlap_groups() {
        let mut covered: Vec<usize> = Vec::new();
        for m in &og.members {
            if let Some(&u) = unit_of.get(m) {
                if !covered.contains(&u) && !entry_of.contains_key(&u) {
                    covered.push(u);
                }
            }
        }
        if covered.is_empty() {
            continue;
        }
        covered.sort_by_key(|&u| first_position(u));
        for &u in &covered {
            entry_of.insert(u, entries.len());
        }
        entries.push(Scheduled::Overlap(covered));
    }
    for u in 0..units.len() {
        if let std::collections::hash_map::Entry::Vacant(slot) = entry_of.entry(u) {
            slot.insert(entries.len());
            entries.push(Scheduled::Unit(u));
        }
    }

    // The entries an entry reads from, looking through the operand
    // nodes (slices of inputs) that belong to no unit.
    let mut reads: Vec<HashSet<usize>> = vec![HashSet::new(); entries.len()];
    for (e, entry) in entries.iter().enumerate() {
        let mut pending: Vec<VarId> = Vec::new();
        for &u in entry.units() {
            for &m in &units[u].members {
                pending.extend(p.op(m)?.inputs());
            }
        }
        let mut seen: HashSet<VarId> = HashSet::new();
        while let Some(dep) = pending.pop() {
            if !seen.insert(dep) {
                continue;
            }
            match unit_of.get(&dep) {
                Some(u) if entry_of[u] != e => {
                    reads[e].insert(entry_of[u]);
                }
                Some(_) => {}
                None => pending.extend(p.op(dep)?.inputs()),
            }
        }
    }

    // Kahn's algorithm, always taking the ready entry whose first
    // member comes first. A fusion group is convex, so the entry graph
    // is acyclic; should a hand-built group break that, the earliest
    // remaining entry runs next, as a plain topological walk would.
    let first_of = |e: usize| {
        entries[e]
            .units()
            .iter()
            .map(|&u| first_position(u))
            .min()
            .unwrap_or(usize::MAX)
    };
    let mut remaining: Vec<usize> = (0..entries.len()).collect();
    remaining.sort_by_key(|&e| first_of(e));
    let mut done: HashSet<usize> = HashSet::new();
    let mut order: Vec<Scheduled> = Vec::with_capacity(entries.len());
    while !remaining.is_empty() {
        let at = remaining
            .iter()
            .position(|&e| reads[e].iter().all(|r| done.contains(r)))
            .unwrap_or(0);
        let e = remaining.remove(at);
        done.insert(e);
        order.push(entries[e].clone());
    }
    Ok(Partition { units, order })
}

/// Lowers a validated program to an executable plan under a binding
/// and communication configuration. The configuration's collective
/// algorithm is stamped into every collective step it emits.
///
/// # Errors
///
/// Propagates validation/binding errors, and returns
/// [`CoreError::InvalidTransform`] when an overlap group contains a
/// stage that cannot be pipelined (plain pointwise kernels must be
/// fused into a collective before overlapping).
pub fn lower(p: &Program, binding: &Binding, config: CommConfig) -> Result<ExecPlan, CoreError> {
    let Partition { units, order } = partition(p)?;
    let readers = Readers::of(p)?;
    let lower_unit = |u: usize| lower_unit(p, &readers, binding, config.algo, &units[u]);
    let mut steps: Vec<Step> = Vec::new();
    for scheduled in &order {
        match scheduled {
            Scheduled::Unit(u) => steps.extend(lower_unit(*u)?),
            Scheduled::Overlap(stage_units) => {
                let mut stages = Vec::new();
                let mut labels = Vec::new();
                for &u in stage_units {
                    for s in lower_unit(u)? {
                        labels.push(s.label().to_string());
                        stages.push(step_to_stage(s)?);
                    }
                }
                steps.push(Step::Overlapped(OverlappedStep {
                    label: format!("overlap({})", labels.join(", ")),
                    stages,
                }));
            }
        }
    }

    Ok(ExecPlan {
        name: p.name().to_string(),
        steps,
        config,
    })
}

fn step_to_stage(step: Step) -> Result<OverlapStage, CoreError> {
    match step {
        Step::MatMul(s) => Ok(OverlapStage::MatMul(s)),
        Step::Collective(s) => Ok(OverlapStage::Collective(s)),
        Step::FusedCollective(s) => Ok(OverlapStage::FusedCollective(s)),
        Step::SendRecv(s) => Ok(OverlapStage::SendRecv(s)),
        other => Err(not_a_stage(other.label())),
    }
}

/// The error for an overlap stage that has no chunked form.
pub(crate) fn not_a_stage(label: &str) -> CoreError {
    CoreError::InvalidTransform {
        transform: "overlap".into(),
        detail: format!(
            "stage `{label}` cannot be pipelined; fuse computations into a \
             collective before overlapping"
        ),
    }
}

/// Per-rank extents of a (possibly sliced) operand.
fn local_dims(p: &Program, v: VarId, binding: &Binding) -> Result<Vec<u64>, CoreError> {
    let ty = p.ty(v)?;
    let shape = ty.shape.eval(binding)?;
    let mut dims: Vec<u64> = shape.dims().iter().map(|&d| d as u64).collect();
    let k = binding.group_size as u64;
    match ty.layout {
        Layout::Sliced(SliceDim::Dim(d)) => {
            if !dims[d].is_multiple_of(k) {
                return Err(CoreError::IndivisibleSize {
                    what: format!("dimension {d} of {}", ty.shape),
                    total: dims[d],
                    parts: k,
                });
            }
            dims[d] /= k;
        }
        Layout::Sliced(SliceDim::Flat) => {
            let total: u64 = dims.iter().product();
            if !total.is_multiple_of(k) {
                return Err(CoreError::IndivisibleSize {
                    what: format!("tensor {}", ty.shape),
                    total,
                    parts: k,
                });
            }
            dims = vec![total / k];
        }
        Layout::Replicated | Layout::Local => {}
    }
    Ok(dims)
}

/// The reductions of `ir` over a *sliced* tensor: each rank holds a
/// partial, so a scalar AllReduce follows the reduction.
pub(crate) fn sliced_reductions(p: &Program, ir: &KernelIr) -> Result<Vec<VarId>, CoreError> {
    let mut reductions = Vec::new();
    for stage in &ir.stages {
        if let Stage::Reduce(m) = *stage {
            if p.ty(p.op(m)?.inputs()[0])?.layout.is_sliced() {
                reductions.push(m);
            }
        }
    }
    Ok(reductions)
}

fn norm_all_reduces(p: &Program, ir: &KernelIr, algo: CollAlgo) -> Result<Vec<Step>, CoreError> {
    let mut steps = Vec::new();
    for m in sliced_reductions(p, ir)? {
        steps.push(Step::Collective(crate::CollectiveStep {
            label: format!("norm-allreduce[{}]", p.node(m)?.name()),
            kind: CollKind::AllReduce,
            op: crate::ReduceOp::Sum,
            algo,
            elems: 1,
            dtype: crate::DType::F32,
            scattered: None,
        }));
    }
    Ok(steps)
}

pub(crate) fn label_of(p: &Program, members: &[VarId]) -> String {
    members
        .iter()
        .filter_map(|&m| p.node(m).ok())
        .map(|n| n.name().to_string())
        .collect::<Vec<_>>()
        .join("+")
}

/// Lowers one unit. Whatever computes is priced from the unit's
/// [`KernelIr`] ([`KernelIr::price`]): a kernel step, a fused
/// collective's extras and a fused send's extras alike.
fn lower_unit(
    p: &Program,
    readers: &Readers,
    binding: &Binding,
    algo: CollAlgo,
    unit: &Unit,
) -> Result<Vec<Step>, CoreError> {
    if unit.kind == UnitKind::Single && !p.op(unit.members[0])?.is_pointwise() {
        return lower_single(p, binding, algo, unit.members[0]);
    }
    let ir = KernelIr::compile(p, readers, &unit.members)?;
    let label = label_of(p, &unit.members);
    let find = |what: fn(&OpKind) -> bool| {
        let m = unit.members.iter().find(|&&m| p.op(m).is_ok_and(what));
        m.copied()
            .ok_or_else(|| CoreError::MalformedProgram(format!("`{label}` misses its transfer")))
    };
    match unit.kind {
        UnitKind::Single | UnitKind::Fused(FuseKind::Compute) => {
            let label = match unit.kind {
                UnitKind::Single => label,
                UnitKind::Fused(_) => format!("fused[{label}]"),
            };
            let mut steps = vec![Step::Kernel(KernelStep {
                label,
                ..ir.price(p, binding, None)?
            })];
            steps.extend(norm_all_reduces(p, &ir, algo)?);
            Ok(steps)
        }
        UnitKind::Fused(FuseKind::AllReduce) => {
            let rs = find(|op| matches!(op, OpKind::ReduceScatter(..)))?;
            let rs_input = p.op(rs)?.inputs()[0];
            // The ReduceScatter's chunk arrives in the pack, not from
            // memory.
            let price = ir.price(p, binding, Some(rs))?;
            Ok(vec![Step::FusedCollective(FusedCollectiveStep {
                label: format!("fusedAR[{label}]"),
                algo,
                elems: p.ty(rs_input)?.numel(binding)?,
                dtype: p.ty(rs_input)?.dtype,
                extra_bytes_read: price.bytes_read,
                extra_bytes_written: price.bytes_written,
                flops: price.flops,
                embedded_scalar_allreduces: sliced_reductions(p, &ir)?.len(),
                n_fused_ops: price.n_ops,
                scattered: None,
            })])
        }
        UnitKind::Fused(FuseKind::Send) => {
            let send = find(|op| matches!(op, OpKind::Send(..)))?;
            let send_input = p.op(send)?.inputs()[0];
            let price = ir.price(p, binding, None)?;
            Ok(vec![Step::SendRecv(SendRecvStep {
                label: format!("fusedSend[{label}]"),
                elems_per_rank: p.ty(send_input)?.local_numel(binding)?,
                dtype: p.ty(send_input)?.dtype,
                extra_bytes_read: price.bytes_read,
                flops: price.flops,
                n_fused_ops: price.n_ops,
            })])
        }
    }
}

/// Lowers an operation no fusion group claims and no kernel computes.
fn lower_single(
    p: &Program,
    binding: &Binding,
    algo: CollAlgo,
    v: VarId,
) -> Result<Vec<Step>, CoreError> {
    let node = p.node(v)?;
    let ty = node.ty().clone();
    let name = node.name().to_string();
    match node.op().clone() {
        OpKind::MatMul(a, w) => {
            let a_dims = local_dims(p, a, binding)?;
            let w_dims = local_dims(p, w, binding)?;
            let m: u64 = a_dims[..a_dims.len() - 1].iter().product();
            let k = a_dims[a_dims.len() - 1];
            let n = w_dims[1];
            Ok(vec![Step::MatMul(MatMulStep {
                label: name,
                m,
                k,
                n,
                dtype: ty.dtype,
            })])
        }
        OpKind::Conv2d(x, w, params) => {
            // Implicit GEMM: m = N'*H_out*W_out, k = C*R*S, n = K.
            let x_dims = local_dims(p, x, binding)?;
            let w_dims = local_dims(p, w, binding)?;
            let out_dims = local_dims(p, v, binding)?;
            let m = out_dims[0] * out_dims[2] * out_dims[3];
            let kk = x_dims[1] * w_dims[2] * w_dims[3];
            let n = w_dims[0];
            let _ = params;
            Ok(vec![Step::MatMul(MatMulStep {
                label: name,
                m,
                k: kk,
                n,
                dtype: ty.dtype,
            })])
        }
        OpKind::AllReduce(op, x) => Ok(vec![collective(
            p,
            binding,
            CollKind::AllReduce,
            op,
            algo,
            x,
            name,
        )?]),
        OpKind::ReduceScatter(op, x) => Ok(vec![collective(
            p,
            binding,
            CollKind::ReduceScatter,
            op,
            algo,
            x,
            name,
        )?]),
        OpKind::AllGather(x) => Ok(vec![collective(
            p,
            binding,
            CollKind::AllGather,
            crate::ReduceOp::Sum,
            algo,
            x,
            name,
        )?]),
        OpKind::Broadcast(x, _) => Ok(vec![collective(
            p,
            binding,
            CollKind::Broadcast,
            crate::ReduceOp::Sum,
            algo,
            x,
            name,
        )?]),
        OpKind::Reduce(op, x, _) => Ok(vec![collective(
            p,
            binding,
            CollKind::Reduce,
            op,
            algo,
            x,
            name,
        )?]),
        OpKind::Send(x, _) => Ok(vec![Step::SendRecv(SendRecvStep {
            label: name,
            elems_per_rank: p.ty(x)?.local_numel(binding)?,
            dtype: p.ty(x)?.dtype,
            extra_bytes_read: 0,
            flops: 0,
            n_fused_ops: 0,
        })]),
        other => Err(CoreError::MalformedProgram(format!(
            "cannot lower {} as a standalone step",
            other.mnemonic()
        ))),
    }
}

#[allow(clippy::too_many_arguments)]
fn collective(
    p: &Program,
    binding: &Binding,
    kind: CollKind,
    op: crate::ReduceOp,
    algo: CollAlgo,
    input: VarId,
    label: String,
) -> Result<Step, CoreError> {
    Ok(Step::Collective(crate::CollectiveStep {
        label,
        kind,
        op,
        algo,
        elems: p.ty(input)?.numel(binding)?,
        dtype: p.ty(input)?.dtype,
        scattered: None,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xform::{fuse_all_reduce, overlap, reorder_all_gather, split_all_reduce};
    use crate::{DType, Program, ReduceOp};

    fn binding() -> Binding {
        Binding::new(16)
            .bind("B", 8)
            .bind("S", 1024)
            .bind("H", 1024)
    }

    fn figure3() -> (Program, Vec<VarId>) {
        let mut p = Program::new("self_attention");
        let w = p.input("w", DType::F16, ["H", "H"], Layout::sliced(0));
        let b = p.input("b", DType::F16, ["H"], Layout::Replicated);
        let input = p.input("in", DType::F16, ["B", "S", "H"], Layout::sliced(2));
        let r = p.input("r", DType::F16, ["B", "S", "H"], Layout::Replicated);
        let layer = p.matmul(input, w).unwrap();
        p.set_name(layer, "layer").unwrap();
        let sum = p.all_reduce(ReduceOp::Sum, layer).unwrap();
        p.set_name(sum, "sum").unwrap();
        let biased = p.add(sum, b).unwrap();
        let d = p.dropout(biased, 0.1).unwrap();
        let out = p.add(d, r).unwrap();
        p.set_io(&[w, input, b, r], &[out]).unwrap();
        (p, vec![layer, sum, biased, d, out])
    }

    #[test]
    fn baseline_lowering_is_one_step_per_op() {
        let (p, _) = figure3();
        let plan = lower(&p, &binding(), CommConfig::default()).unwrap();
        // MatMul + AllReduce + add + dropout + add = 5 launches.
        assert_eq!(plan.steps.len(), 5);
        assert_eq!(plan.total_launches(), 5);
        assert!(matches!(plan.steps[0], Step::MatMul(_)));
        assert!(matches!(plan.steps[1], Step::Collective(_)));
        if let Step::MatMul(mm) = &plan.steps[0] {
            // Per-rank GEMM: [B*S, H/16] x [H/16, H].
            assert_eq!(mm.m, 8 * 1024);
            assert_eq!(mm.k, 1024 / 16);
            assert_eq!(mm.n, 1024);
        }
        if let Step::Collective(c) = &plan.steps[1] {
            assert_eq!(c.kind, CollKind::AllReduce);
            assert_eq!(c.elems, 8 * 1024 * 1024);
        }
    }

    #[test]
    fn overlapped_schedule_lowers_to_one_pipeline() {
        let (mut p, vars) = figure3();
        let (layer, sum, biased, d, out) = (vars[0], vars[1], vars[2], vars[3], vars[4]);
        let (rs, ag) = split_all_reduce(&mut p, sum).unwrap();
        let result = reorder_all_gather(&mut p, ag, &[biased, d, out]).unwrap();
        let new_ag = result.gathers[0].1;
        fuse_all_reduce(&mut p, rs, &result.sliced, &[new_ag]).unwrap();
        overlap(&mut p, &[layer, rs]).unwrap();
        let plan = lower(&p, &binding(), CommConfig::default()).unwrap();
        assert_eq!(plan.steps.len(), 1);
        if let Step::Overlapped(ol) = &plan.steps[0] {
            assert_eq!(ol.stages.len(), 2);
            assert!(matches!(ol.stages[0], OverlapStage::MatMul(_)));
            assert!(matches!(ol.stages[1], OverlapStage::FusedCollective(_)));
            if let OverlapStage::FusedCollective(f) = &ol.stages[1] {
                assert_eq!(f.elems, 8 * 1024 * 1024);
                assert!(f.n_fused_ops >= 3);
                // Fused compute reads b and Slice(r).
                assert!(f.extra_bytes_read > 0);
            }
        } else {
            panic!("expected an overlapped step, got {:?}", plan.steps[0]);
        }
        // One launch per stage: 2 total (vs 5 for the baseline).
        assert_eq!(plan.total_launches(), 2);
    }

    #[test]
    fn overlap_of_unfused_kernels_fails_at_lowering() {
        let (mut p, vars) = figure3();
        let (layer, sum) = (vars[0], vars[1]);
        overlap(&mut p, &[layer, sum]).unwrap();
        // AllReduce alone can overlap with MatMul -- but the following
        // unfused adds cannot be stages; this plan is still fine since
        // the adds are outside the overlap group.
        let plan = lower(&p, &binding(), CommConfig::default()).unwrap();
        assert!(matches!(plan.steps[0], Step::Overlapped(_)));

        // Overlapping a raw pointwise op is rejected at lowering.
        let (mut p2, vars2) = figure3();
        let (sum2, biased2) = (vars2[1], vars2[2]);
        overlap(&mut p2, &[sum2, biased2]).unwrap();
        assert!(matches!(
            lower(&p2, &binding(), CommConfig::default()),
            Err(CoreError::InvalidTransform { .. })
        ));
    }

    #[test]
    fn send_lowering() {
        let mut p = Program::new("pipe");
        let x = p.input("in", DType::F16, ["B", "H"], Layout::Local);
        let sum = p.all_reduce(ReduceOp::Sum, x).unwrap();
        let out = p.send(sum, crate::PeerSelector::NextGroupSameRank).unwrap();
        p.set_io(&[x], &[out]).unwrap();
        let b = Binding::new(4).with_groups(2).bind("B", 8).bind("H", 64);
        let plan = lower(&p, &b, CommConfig::default()).unwrap();
        assert_eq!(plan.steps.len(), 2);
        if let Step::SendRecv(s) = &plan.steps[1] {
            // Replicated send: the full tensor from every rank.
            assert_eq!(s.elems_per_rank, 8 * 64);
        } else {
            panic!("expected SendRecv");
        }
    }

    #[test]
    fn sliced_norm_emits_scalar_allreduce() {
        let mut p = Program::new("norms");
        let g = p.input("g", DType::F32, ["N"], Layout::Local);
        let rs = p.reduce_scatter(ReduceOp::Sum, g).unwrap();
        let n = p.norm(rs).unwrap();
        p.set_io(&[g], &[n]).unwrap();
        let b = Binding::new(4).bind("N", 64);
        let plan = lower(&p, &b, CommConfig::default()).unwrap();
        // RS + norm kernel + scalar AR.
        assert_eq!(plan.steps.len(), 3);
        assert!(plan.steps[2].label().contains("norm-allreduce"));
    }
}
