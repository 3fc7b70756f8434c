//! The block kernel evaluator: runs a [`KernelIr`](coconet_core::KernelIr)
//! segment over this rank's elements, [`LANES`] `f32` lanes at a time.
//!
//! A register is one block of lanes. Every instruction is one
//! monomorphic loop over a block, so a fusion group's intermediates
//! never leave the register file; the loop over blocks fans out over
//! the `tensor::kernels` pool like every other kernel. What reaches
//! memory is what the IR says: one load per operand, one store per
//! escaping member — counted as it runs, by the rule
//! [`KernelIr::price`](coconet_core::KernelIr::price) charges (a
//! broadcast operand is read once), so a run checks the lowered plan's
//! byte prices.
//!
//! Per element, the sequence of `f32` operations is exactly the
//! per-element interpreter's (same [`UnaryOp::apply`] /
//! [`BinaryOp::apply`], FP16 members round where they would have been
//! stored, dropout draws from the same global-index counter), so the
//! results are bit-identical to it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use coconet_core::kernel::{stores_of, Access, Instr, Segment};
use coconet_core::{BinaryOp, Binding, Layout, Program, UnaryOp, VarId};
use coconet_tensor::{kernels, CounterRng, Shape, Tensor, F16};

use crate::{DistValue, RuntimeError};

/// Lanes per register: one block is 1 KiB of `f32`, so a fused Adam's
/// dozen live registers stay in L1.
pub(crate) const LANES: usize = 256;

/// Bytes a kernel moved between memory and its registers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Traffic {
    pub(crate) loaded: u64,
    pub(crate) stored: u64,
}

/// What a segment needs to know about the rank it runs on.
pub(crate) struct Site<'a> {
    pub(crate) program: &'a Program,
    pub(crate) binding: &'a Binding,
    /// Position within the group, and the group's size.
    pub(crate) pos: usize,
    pub(crate) gs: usize,
    /// The run's dropout seed and every dropout node's ordinal.
    pub(crate) seed: u64,
    pub(crate) dropout_ordinal: &'a HashMap<VarId, u64>,
}

impl Site<'_> {
    /// The mask stream of dropout node `v`: schedules neither add nor
    /// remove dropouts, so the ordinal is stable across them.
    pub(crate) fn dropout_rng(&self, v: VarId) -> CounterRng {
        CounterRng::new(
            self.seed
                .wrapping_add(self.dropout_ordinal[&v].wrapping_mul(0x9E37_79B9)),
        )
    }
}

/// The iteration domain of a loop on this rank.
struct Domain {
    shape: Shape,
    layout: Layout,
    local_shape: Shape,
    pos: usize,
    gs: usize,
}

impl Domain {
    fn of(site: &Site<'_>, v: VarId) -> Result<Domain, RuntimeError> {
        let ty = site.program.ty(v)?;
        let shape = ty.shape.eval(site.binding)?;
        Ok(Domain {
            local_shape: DistValue::local_shape(&shape, ty.layout, site.gs),
            shape,
            layout: ty.layout,
            pos: site.pos,
            gs: site.gs,
        })
    }

    /// The prologue's domain: one lane, global index 0.
    fn scalar(site: &Site<'_>) -> Domain {
        Domain {
            shape: Shape::scalar(),
            layout: Layout::Replicated,
            local_shape: Shape::scalar(),
            pos: site.pos,
            gs: site.gs,
        }
    }

    fn global_index(&self, lane: usize) -> usize {
        DistValue::global_index_in(
            &self.shape,
            self.layout,
            &self.local_shape,
            self.pos,
            self.gs,
            lane,
        )
    }

    /// How a load of `o` reaches this domain: the IR's one rule.
    fn access(&self, o: &DistValue) -> Access {
        Access::of(o.global_shape == self.shape, o.layout, self.layout)
    }

    /// Where the window of `o`'s local storage holding this domain's
    /// lanes in order starts, when there is one.
    fn window_of(&self, o: &DistValue) -> Option<usize> {
        match self.access(o) {
            Access::Window => Some(0),
            Access::SliceOffset => Some(self.pos * self.local_shape.numel()),
            Access::Gather | Access::Broadcast => None,
        }
    }
}

/// How a `Load` reads its operand.
enum Source<'a> {
    /// A contiguous window of an F32 operand.
    F32(&'a [f32]),
    /// A contiguous window of an FP16 operand, widened in the load.
    F16(&'a [F16]),
    /// Per lane through the global index, with broadcasting — the
    /// per-element interpreter's read, for a gather or a broadcast.
    Indexed(&'a DistValue),
    /// A prologue load: element 0 of a scalar operand.
    Scalar(f32),
    /// No instruction of this code loads the operand.
    Unused,
}

/// Everything an instruction sequence reads besides its registers.
struct Env<'a> {
    site: &'a Site<'a>,
    domain: &'a Domain,
    sources: Vec<Source<'a>>,
    /// Bytes every lane loads of each operand (none for a broadcast
    /// operand), and stores to each store slot.
    operand_bytes: Vec<u64>,
    store_bytes: Vec<u64>,
    /// Bytes loaded once per run: the broadcast operands' storage.
    loaded_once: u64,
}

impl<'a> Env<'a> {
    /// Binds the loads of `code` to `operands`; the prologue's
    /// (`one_lane`) read element 0 of scalar operands.
    fn bind(
        site: &'a Site<'a>,
        domain: &'a Domain,
        code: &[Instr],
        operands: &[&'a DistValue],
        one_lane: bool,
    ) -> Result<Env<'a>, RuntimeError> {
        let mut sources: Vec<Source<'a>> = operands.iter().map(|_| Source::Unused).collect();
        let mut operand_bytes: Vec<u64> = operands
            .iter()
            .map(|o| o.local.dtype().size_bytes() as u64)
            .collect();
        let mut store_bytes = Vec::new();
        let mut loaded_once = 0;
        for instr in code {
            match *instr {
                Instr::Load { operand, .. } => {
                    let o = operands[operand];
                    let n = domain.local_shape.numel();
                    sources[operand] = if one_lane {
                        Source::Scalar(o.local.get(0))
                    } else {
                        if domain.access(o) == Access::Broadcast {
                            loaded_once += o.local.size_bytes() as u64;
                            operand_bytes[operand] = 0;
                        }
                        match domain.window_of(o) {
                            Some(at) => match (o.local.as_f32_slice(), o.local.as_f16_slice()) {
                                (Some(s), _) => Source::F32(&s[at..at + n]),
                                (_, Some(s)) => Source::F16(&s[at..at + n]),
                                _ => unreachable!("a tensor is F32 or F16"),
                            },
                            None => Source::Indexed(o),
                        }
                    };
                }
                Instr::Store { member, .. } => {
                    store_bytes.push(site.program.ty(member)?.dtype.size_bytes() as u64);
                }
                _ => {}
            }
        }
        Ok(Env {
            site,
            domain,
            sources,
            operand_bytes,
            store_bytes,
            loaded_once,
        })
    }
}

#[inline(always)]
fn map1(d: &mut [f32], a: &[f32], f: impl Fn(f32) -> f32) {
    for (d, &x) in d.iter_mut().zip(a) {
        *d = f(x);
    }
}

#[inline(always)]
fn map2(d: &mut [f32], a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) {
    for ((d, &x), &y) in d.iter_mut().zip(a).zip(b) {
        *d = f(x, y);
    }
}

/// `d = op(a)`, the operator match hoisted out of the lane loop.
fn unary(op: UnaryOp, d: &mut [f32], a: &[f32]) {
    match op {
        UnaryOp::Sqrt => map1(d, a, |x| UnaryOp::Sqrt.apply(x)),
        UnaryOp::Tanh => map1(d, a, |x| UnaryOp::Tanh.apply(x)),
        UnaryOp::Relu => map1(d, a, |x| UnaryOp::Relu.apply(x)),
        UnaryOp::Neg => map1(d, a, |x| UnaryOp::Neg.apply(x)),
    }
}

/// `d = op(a, b)`, the operator match hoisted out of the lane loop.
fn binary(op: BinaryOp, d: &mut [f32], a: &[f32], b: &[f32]) {
    match op {
        BinaryOp::Add => map2(d, a, b, |x, y| BinaryOp::Add.apply(x, y)),
        BinaryOp::Sub => map2(d, a, b, |x, y| BinaryOp::Sub.apply(x, y)),
        BinaryOp::Mul => map2(d, a, b, |x, y| BinaryOp::Mul.apply(x, y)),
        BinaryOp::Div => map2(d, a, b, |x, y| BinaryOp::Div.apply(x, y)),
        BinaryOp::Pow => map2(d, a, b, |x, y| BinaryOp::Pow.apply(x, y)),
    }
}

/// Takes register `dst` out of the file so an instruction can write it
/// while borrowing its sources: a destination never shares a register
/// with a source (the allocator's guarantee).
fn take(regs: &mut [Vec<f32>], dst: usize) -> Vec<f32> {
    std::mem::take(&mut regs[dst])
}

/// Runs `code` once over lanes `start..start + len` of the domain.
/// `windows[slot]` receives store `slot`; it begins at lane `base`.
fn exec(
    code: &[Instr],
    regs: &mut [Vec<f32>],
    env: &Env<'_>,
    (start, len): (usize, usize),
    (base, windows): (usize, &mut [&mut [f32]]),
    traffic: &mut Traffic,
) {
    let mut slot = 0usize;
    for instr in code {
        match *instr {
            Instr::Const { dst, value } => regs[dst][..len].fill(value),
            Instr::Load { dst, operand } => {
                let d = &mut regs[dst][..len];
                match env.sources[operand] {
                    Source::F32(s) => d.copy_from_slice(&s[start..start + len]),
                    Source::F16(s) => kernels::f16_decode(&s[start..start + len], d),
                    Source::Indexed(o) => {
                        for (lane, d) in d.iter_mut().enumerate() {
                            let gidx = env.domain.global_index(start + lane);
                            let at = o.global_shape.broadcast_index(&env.domain.shape, gidx);
                            *d = o.read_global(at);
                        }
                    }
                    Source::Scalar(x) => d.fill(x),
                    Source::Unused => unreachable!("every load is bound"),
                }
                traffic.loaded += len as u64 * env.operand_bytes[operand];
            }
            Instr::Splat { .. } => unreachable!("splats are pinned, not looped over"),
            Instr::Unary { op, dst, a, .. } => {
                let mut d = take(regs, dst);
                unary(op, &mut d[..len], &regs[a][..len]);
                regs[dst] = d;
            }
            Instr::Binary { op, dst, a, b, .. } => {
                let mut d = take(regs, dst);
                binary(op, &mut d[..len], &regs[a][..len], &regs[b][..len]);
                regs[dst] = d;
            }
            Instr::Dropout { dst, a, p, member } => {
                let rng = env.site.dropout_rng(member);
                let scale = (1.0 / (1.0 - p)) as f32;
                let mut d = take(regs, dst);
                for (lane, (d, &x)) in d[..len].iter_mut().zip(&regs[a][..len]).enumerate() {
                    let gidx = env.domain.global_index(start + lane);
                    *d = if rng.keep_at(gidx as u64, p) {
                        x * scale
                    } else {
                        0.0
                    };
                }
                regs[dst] = d;
            }
            Instr::RoundF16 { dst, a } => {
                let mut d = take(regs, dst);
                map1(&mut d[..len], &regs[a][..len], |x| {
                    F16::from_f32(x).to_f32()
                });
                regs[dst] = d;
            }
            Instr::Store { src, .. } => {
                let at = start - base;
                windows[slot][at..at + len].copy_from_slice(&regs[src][..len]);
                traffic.stored += len as u64 * env.store_bytes[slot];
                slot += 1;
            }
        }
    }
}

/// The value of stored member `m`: `data` in `m`'s dtype and layout.
fn stored_value(site: &Site<'_>, m: VarId, data: Vec<f32>) -> Result<DistValue, RuntimeError> {
    let ty = site.program.ty(m)?;
    let global_shape = ty.shape.eval(site.binding)?;
    let local_shape = DistValue::local_shape(&global_shape, ty.layout, site.gs);
    Ok(DistValue {
        global_shape,
        layout: ty.layout,
        local: Tensor::from_f32_vec(local_shape, ty.dtype, data)?,
        pos: site.pos,
        group_size: site.gs,
    })
}

/// Runs one segment on this rank: its prologue once, its body over
/// every block of the domain. The stored members' values land in
/// `values`; if an operand is absent on this rank (a pipeline stage
/// that received nothing), so are they.
pub(crate) fn run_segment(
    seg: &Segment,
    site: &Site<'_>,
    values: &mut [Option<DistValue>],
) -> Result<Traffic, RuntimeError> {
    let operands: Option<Vec<&DistValue>> = seg
        .operands
        .iter()
        .map(|v| values[v.index()].as_ref())
        .collect();
    let Some(operands) = operands else {
        for m in seg.stores() {
            values[m.index()] = None;
        }
        return Ok(Traffic::default());
    };
    let mut traffic = Traffic::default();
    let mut produced: Vec<(VarId, DistValue)> = Vec::new();

    // The prologue: every scalar member, once, on one lane.
    let one_lane = Domain::scalar(site);
    let env = Env::bind(site, &one_lane, &seg.prologue, &operands, true)?;
    let mut scalars: Vec<Vec<f32>> = vec![vec![0.0]; seg.prologue_regs];
    let mut scalar_outs: Vec<[f32; 1]> = stores_of(&seg.prologue).map(|_| [0.0]).collect();
    {
        let mut windows: Vec<&mut [f32]> = scalar_outs.iter_mut().map(|o| &mut o[..]).collect();
        exec(
            &seg.prologue,
            &mut scalars,
            &env,
            (0, 1),
            (0, &mut windows),
            &mut traffic,
        );
    }
    for (m, out) in stores_of(&seg.prologue).zip(&scalar_outs) {
        produced.push((m, stored_value(site, m, out.to_vec())?));
    }

    // The body: blocks of the domain, fanned out over the kernel pool.
    if let Some(d) = seg.domain {
        let domain = Domain::of(site, d)?;
        let n = domain.local_shape.numel();
        let env = Env::bind(site, &domain, &seg.body, &operands, false)?;
        traffic.loaded += env.loaded_once;
        let mut outs: Vec<Vec<f32>> = stores_of(&seg.body).map(|_| vec![0.0; n]).collect();
        let (loaded, stored) = (AtomicU64::new(0), AtomicU64::new(0));
        {
            let mut out_slices: Vec<&mut [f32]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
            kernels::parallel_for_outputs(n, &mut out_slices, |range, windows| {
                let mut regs: Vec<Vec<f32>> = vec![vec![0.0; LANES]; seg.body_regs];
                for instr in &seg.pinned {
                    if let Instr::Splat { dst, scalar } = *instr {
                        regs[dst].fill(scalars[scalar][0]);
                    }
                }
                let mut moved = Traffic::default();
                let mut start = range.start;
                while start < range.end {
                    let len = LANES.min(range.end - start);
                    exec(
                        &seg.body,
                        &mut regs,
                        &env,
                        (start, len),
                        (range.start, windows),
                        &mut moved,
                    );
                    start += len;
                }
                // Statistics only: nothing is published through them.
                loaded.fetch_add(moved.loaded, Ordering::Relaxed);
                stored.fetch_add(moved.stored, Ordering::Relaxed);
            });
        }
        traffic.loaded += loaded.into_inner();
        traffic.stored += stored.into_inner();
        for (m, out) in stores_of(&seg.body).zip(outs) {
            produced.push((m, stored_value(site, m, out)?));
        }
    }

    for (m, value) in produced {
        values[m.index()] = Some(value);
    }
    Ok(traffic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconet_core::kernel::Readers;
    use coconet_core::{DType, KernelIr};

    fn site<'a>(
        program: &'a Program,
        binding: &'a Binding,
        ordinals: &'a HashMap<VarId, u64>,
    ) -> Site<'a> {
        Site {
            program,
            binding,
            pos: 0,
            gs: 1,
            seed: 7,
            dropout_ordinal: ordinals,
        }
    }

    /// `out = tanh(x * y) + c` over lengths around the block and pool
    /// boundaries: the last block is short, the result is exact.
    #[test]
    fn lengths_that_are_not_a_multiple_of_the_block_are_exact() {
        let mut p = Program::new("ragged");
        let x = p.input("x", DType::F32, ["N"], Layout::Replicated);
        let y = p.input("y", DType::F16, ["N"], Layout::Replicated);
        let c = p.constant(0.25);
        let xy = p.mul(x, y).unwrap();
        let t = p.tanh(xy).unwrap();
        let out = p.add(t, c).unwrap();
        p.set_io(&[x, y], &[out]).unwrap();
        let ir = KernelIr::compile(&p, &Readers::of(&p).unwrap(), &[xy, t, out]).unwrap();
        let seg = ir.segments().next().unwrap();
        let ordinals = HashMap::new();
        for n in [
            1usize,
            LANES - 1,
            LANES,
            LANES + 1,
            3 * LANES + 17,
            kernels::PAR_THRESHOLD + LANES + 5,
        ] {
            let binding = Binding::new(1).bind("N", n as u64);
            let site = site(&p, &binding, &ordinals);
            let xs = Tensor::from_fn([n], DType::F32, |i| (i as f32 * 0.37).sin());
            let ys = Tensor::from_fn([n], DType::F16, |i| (i as f32 * 0.11).cos());
            let mut values: Vec<Option<DistValue>> = vec![None; 8];
            values[x.index()] = Some(DistValue::replicated(xs.clone(), 0, 1));
            values[y.index()] = Some(DistValue::replicated(ys.clone(), 0, 1));
            let traffic = run_segment(seg, &site, &mut values).unwrap();
            let got = values[out.index()].take().unwrap().local;
            assert_eq!(got.numel(), n);
            for i in 0..n {
                let want = BinaryOp::Add.apply(
                    UnaryOp::Tanh.apply(BinaryOp::Mul.apply(xs.get(i), ys.get(i))),
                    0.25,
                );
                assert_eq!(got.get(i).to_bits(), want.to_bits(), "n={n} i={i}");
            }
            // x (4 B) and y (2 B) in, out (4 B) out; nothing else.
            assert_eq!(
                traffic,
                Traffic {
                    loaded: 6 * n as u64,
                    stored: 4 * n as u64
                }
            );
        }
    }

    /// An absent operand (a pipeline stage that received nothing)
    /// makes the stored members absent, not an error.
    #[test]
    fn an_absent_operand_leaves_the_stores_absent() {
        let mut p = Program::new("absent");
        let x = p.input("x", DType::F32, ["N"], Layout::Replicated);
        let out = p.neg(x).unwrap();
        p.set_io(&[x], &[out]).unwrap();
        let ir = KernelIr::compile(&p, &Readers::of(&p).unwrap(), &[out]).unwrap();
        let binding = Binding::new(1).bind("N", 4);
        let ordinals = HashMap::new();
        let mut values: Vec<Option<DistValue>> = vec![None; 4];
        let traffic = run_segment(
            ir.segments().next().unwrap(),
            &site(&p, &binding, &ordinals),
            &mut values,
        )
        .unwrap();
        assert!(values[out.index()].is_none());
        assert_eq!(traffic, Traffic::default());
    }
}
