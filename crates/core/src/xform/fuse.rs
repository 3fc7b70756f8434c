//! The `fuse` transformation (§3.3).
//!
//! Fusion is recorded as a *group annotation* over the DFG rather than
//! by rewriting nodes: the program's semantics are unchanged (the
//! functional runtime can ignore groups), while lowering emits one
//! kernel per group and the cost model charges one launch and one
//! memory round-trip for it.

use std::collections::HashSet;

use crate::{CoreError, FuseKind, FusionGroup, OpKind, Program, VarId};

use super::invalid;

/// Checks that `members` forms a convex region of the DFG: no path
/// between two members passes through a non-member. This is the
/// paper's validity rule — "fusing multiple operations into one
/// operation is valid only if the dependencies in the DFG after fusion
/// are preserved."
fn check_convex(p: &Program, members: &HashSet<VarId>, what: &str) -> Result<(), CoreError> {
    for n in p.live_vars() {
        if members.contains(&n) {
            continue;
        }
        let reached_from_member = members.iter().any(|&m| p.reaches(m, n));
        let reaches_member = members.iter().any(|&m| p.reaches(n, m));
        if reached_from_member && reaches_member {
            return Err(invalid(
                what,
                format!(
                    "fusing would break dependencies: {} lies on a path between members",
                    p.node(n)?.name()
                ),
            ));
        }
    }
    Ok(())
}

/// Checks that no member is already claimed by a fusion group, except
/// for `Compute` groups that are entirely contained in the new member
/// set — those are absorbed (the paper's Figure 6b fuses the already
/// compute-fused `scComp` into the FusedAllReduce). Returns the indices
/// of absorbed groups.
fn check_group_overlap(
    p: &Program,
    members: &HashSet<VarId>,
    what: &str,
) -> Result<Vec<usize>, CoreError> {
    let mut absorbed = Vec::new();
    for (i, g) in p.fusion_groups().iter().enumerate() {
        let inside = g.members.iter().filter(|m| members.contains(m)).count();
        if inside == 0 {
            continue;
        }
        if inside == g.members.len() && g.kind == FuseKind::Compute {
            absorbed.push(i);
        } else {
            return Err(invalid(
                what,
                "members partially overlap an existing fusion group",
            ));
        }
    }
    Ok(absorbed)
}

fn install_group(
    p: &mut Program,
    kind: FuseKind,
    members: &HashSet<VarId>,
    absorbed: Vec<usize>,
) -> usize {
    // Remove absorbed groups (descending index order keeps them valid).
    let mut groups: Vec<FusionGroup> = p.fusion_groups().to_vec();
    for i in absorbed.into_iter().rev() {
        groups.remove(i);
    }
    // Rebuild group list in place, members in topological order.
    let topo: Vec<VarId> = p
        .topo_order()
        .into_iter()
        .filter(|v| members.contains(v))
        .collect();
    p.replace_fusion_groups(groups);
    p.add_fusion_group(FusionGroup {
        kind,
        members: topo,
    })
}

/// Fuses a series of pointwise computations into a single kernel (the
/// paper's `ComputationFuse`). Returns the fusion-group index.
///
/// # Errors
///
/// Returns [`CoreError::InvalidTransform`] when a member is not
/// pointwise, the region is not convex, or members already belong to a
/// fusion group.
pub fn fuse_compute(p: &mut Program, members: &[VarId]) -> Result<usize, CoreError> {
    if members.is_empty() {
        return Err(invalid("fuse", "no members to fuse"));
    }
    let set: HashSet<VarId> = members.iter().copied().collect();
    for &m in members {
        let node = p.node(m)?;
        if !node.op().is_pointwise() {
            return Err(invalid(
                "fuse",
                format!(
                    "{} ({}) is not a pointwise computation",
                    node.name(),
                    node.op().mnemonic()
                ),
            ));
        }
    }
    check_convex(p, &set, "fuse")?;
    let absorbed = check_group_overlap(p, &set, "fuse")?;
    Ok(install_group(p, FuseKind::Compute, &set, absorbed))
}

/// Fuses a ReduceScatter, sliced computations, and AllGather(s) into a
/// single `FusedAllReduce` kernel (the paper's `AllReduceFuse`, §2.3).
/// Returns the fusion-group index.
///
/// # Errors
///
/// Returns [`CoreError::ExpectedOp`] when `rs` / `ags` are not the
/// required collectives and [`CoreError::InvalidTransform`] when the
/// region is not convex or computations are not pointwise.
pub fn fuse_all_reduce(
    p: &mut Program,
    rs: VarId,
    comps: &[VarId],
    ags: &[VarId],
) -> Result<usize, CoreError> {
    if !matches!(p.node(rs)?.op(), OpKind::ReduceScatter(..)) {
        return Err(CoreError::ExpectedOp {
            expected: "ReduceScatter".into(),
            found: p.node(rs)?.op().mnemonic(),
        });
    }
    for &ag in ags {
        if !matches!(p.node(ag)?.op(), OpKind::AllGather(_)) {
            return Err(CoreError::ExpectedOp {
                expected: "AllGather".into(),
                found: p.node(ag)?.op().mnemonic(),
            });
        }
    }
    if ags.is_empty() {
        return Err(invalid(
            "fuse",
            "a FusedAllReduce needs at least one AllGather",
        ));
    }
    for &c in comps {
        let node = p.node(c)?;
        if !node.op().is_pointwise() {
            return Err(invalid(
                "fuse",
                format!(
                    "{} ({}) cannot be fused into a FusedAllReduce",
                    node.name(),
                    node.op().mnemonic()
                ),
            ));
        }
    }
    let mut members: Vec<VarId> = Vec::with_capacity(comps.len() + ags.len() + 1);
    members.push(rs);
    members.extend_from_slice(comps);
    members.extend_from_slice(ags);
    let set: HashSet<VarId> = members.iter().copied().collect();
    if set.len() != members.len() {
        return Err(invalid("fuse", "duplicate members"));
    }
    // Each AllGather must gather a value produced inside the region.
    for &ag in ags {
        if let OpKind::AllGather(input) = p.node(ag)?.op() {
            if !set.contains(input) {
                return Err(invalid(
                    "fuse",
                    "an AllGather member gathers a value from outside the fusion",
                ));
            }
        }
    }
    check_convex(p, &set, "fuse")?;
    let absorbed = check_group_overlap(p, &set, "fuse")?;
    Ok(install_group(p, FuseKind::AllReduce, &set, absorbed))
}

/// Fuses pointwise computations into a P2P send (the paper's
/// `SendFuse`, §4): the computation is applied as the data is sent.
/// Returns the fusion-group index.
///
/// # Errors
///
/// Returns [`CoreError::ExpectedOp`] when `send` is not a `Send` and
/// [`CoreError::InvalidTransform`] on convexity/pointwise violations.
pub fn fuse_send(p: &mut Program, comps: &[VarId], send: VarId) -> Result<usize, CoreError> {
    if !matches!(p.node(send)?.op(), OpKind::Send(..)) {
        return Err(CoreError::ExpectedOp {
            expected: "Send".into(),
            found: p.node(send)?.op().mnemonic(),
        });
    }
    for &c in comps {
        let node = p.node(c)?;
        if !node.op().is_pointwise() {
            return Err(invalid(
                "fuse",
                format!(
                    "{} ({}) cannot be fused into a Send",
                    node.name(),
                    node.op().mnemonic()
                ),
            ));
        }
    }
    let mut members = comps.to_vec();
    members.push(send);
    let set: HashSet<VarId> = members.iter().copied().collect();
    if set.len() != members.len() {
        return Err(invalid("fuse", "duplicate members"));
    }
    check_convex(p, &set, "fuse")?;
    let absorbed = check_group_overlap(p, &set, "fuse")?;
    Ok(install_group(p, FuseKind::Send, &set, absorbed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xform::{reorder_all_gather, split_all_reduce};
    use crate::{DType, Layout, PeerSelector, Program, ReduceOp};

    /// The running example, split and reordered (paper Figure 4-2).
    fn reordered_example() -> (Program, VarId, Vec<VarId>, VarId) {
        let mut p = Program::new("self_attention");
        let w = p.input("w", DType::F16, ["H", "H"], Layout::sliced(0));
        let b = p.input("b", DType::F16, ["H"], Layout::Replicated);
        let input = p.input("in", DType::F16, ["B", "S", "H"], Layout::sliced(2));
        let r = p.input("r", DType::F16, ["B", "S", "H"], Layout::Replicated);
        let layer = p.matmul(input, w).unwrap();
        let sum = p.all_reduce(ReduceOp::Sum, layer).unwrap();
        p.set_name(sum, "sum").unwrap();
        let biased = p.add(sum, b).unwrap();
        let d = p.dropout(biased, 0.1).unwrap();
        let out = p.add(d, r).unwrap();
        p.set_io(&[w, input, b, r], &[out]).unwrap();
        let (rs, ag) = split_all_reduce(&mut p, sum).unwrap();
        let result = reorder_all_gather(&mut p, ag, &[biased, d, out]).unwrap();
        let new_ag = result.gathers[0].1;
        (p, rs, result.sliced, new_ag)
    }

    #[test]
    fn fuse_compute_records_group() {
        let (mut p, _, comps, _) = reordered_example();
        let idx = fuse_compute(&mut p, &comps).unwrap();
        assert_eq!(p.fusion_groups()[idx].kind, FuseKind::Compute);
        assert_eq!(p.fusion_groups()[idx].members.len(), comps.len());
        p.validate().unwrap();
    }

    #[test]
    fn fuse_all_reduce_absorbs_compute_group() {
        // The paper's program 2 -> 3: fuse(rsSum, scOut, agOut, ARFuse),
        // with the computations already compute-fused.
        let (mut p, rs, comps, ag) = reordered_example();
        fuse_compute(&mut p, &comps).unwrap();
        let idx = fuse_all_reduce(&mut p, rs, &comps, &[ag]).unwrap();
        assert_eq!(p.fusion_groups().len(), 1, "compute group absorbed");
        let group = &p.fusion_groups()[idx];
        assert_eq!(group.kind, FuseKind::AllReduce);
        // rs first, ag last (topological order).
        assert_eq!(group.members.first(), Some(&rs));
        assert_eq!(group.members.last(), Some(&ag));
        p.validate().unwrap();
    }

    #[test]
    fn fuse_rejects_non_pointwise() {
        let mut p = Program::new("t");
        let a = p.input("a", DType::F16, ["N", "N"], Layout::Replicated);
        let w = p.input("w", DType::F16, ["N", "N"], Layout::Replicated);
        let mm = p.matmul(a, w).unwrap();
        let two = p.constant(2.0);
        let y = p.mul(mm, two).unwrap();
        p.set_io(&[a, w], &[y]).unwrap();
        assert!(fuse_compute(&mut p, &[mm, y]).is_err());
    }

    #[test]
    fn fuse_rejects_nonconvex_region() {
        // a -> b -> c with b outside the fusion {a, c}.
        let mut p = Program::new("t");
        let x = p.input("x", DType::F32, ["N"], Layout::Replicated);
        let c1 = p.constant(1.0);
        let a = p.add(x, c1).unwrap();
        let b = p.sqrt(a).unwrap();
        let c = p.mul(a, b).unwrap();
        p.set_io(&[x], &[c]).unwrap();
        assert!(matches!(
            fuse_compute(&mut p, &[a, c]),
            Err(CoreError::InvalidTransform { .. })
        ));
        // Including b makes it valid.
        assert!(fuse_compute(&mut p, &[a, b, c]).is_ok());
    }

    #[test]
    fn fuse_rejects_partial_group_overlap() {
        let mut p = Program::new("t");
        let x = p.input("x", DType::F32, ["N"], Layout::Replicated);
        let c1 = p.constant(1.0);
        let a = p.add(x, c1).unwrap();
        let b = p.sqrt(a).unwrap();
        let c = p.mul(a, b).unwrap();
        p.set_io(&[x], &[c]).unwrap();
        fuse_compute(&mut p, &[a, b]).unwrap();
        // {b, c} overlaps the existing {a, b} group partially.
        assert!(fuse_compute(&mut p, &[b, c]).is_err());
    }

    #[test]
    fn fuse_all_reduce_requires_collectives() {
        let (mut p, rs, comps, ag) = reordered_example();
        assert!(matches!(
            fuse_all_reduce(&mut p, comps[0], &comps, &[ag]),
            Err(CoreError::ExpectedOp { .. })
        ));
        assert!(matches!(
            fuse_all_reduce(&mut p, rs, &comps, &[comps[0]]),
            Err(CoreError::ExpectedOp { .. })
        ));
        assert!(fuse_all_reduce(&mut p, rs, &comps, &[]).is_err());
    }

    #[test]
    fn fuse_send_records_group() {
        let mut p = Program::new("pipe");
        let x = p.input("in", DType::F16, ["B", "H"], Layout::Local);
        let b = p.input("b", DType::F16, ["H"], Layout::Replicated);
        let sum = p.all_reduce(ReduceOp::Sum, x).unwrap();
        let biased = p.add(sum, b).unwrap();
        let d = p.dropout(biased, 0.1).unwrap();
        let out = p.send(d, PeerSelector::NextGroupSameRank).unwrap();
        p.set_io(&[x, b], &[out]).unwrap();
        let idx = fuse_send(&mut p, &[biased, d], out).unwrap();
        assert_eq!(p.fusion_groups()[idx].kind, FuseKind::Send);
        assert_eq!(p.fusion_groups()[idx].members.last(), Some(&out));
        // Fusing a non-Send fails.
        assert!(matches!(
            fuse_send(&mut p, &[biased], d),
            Err(CoreError::ExpectedOp { .. })
        ));
    }
}
