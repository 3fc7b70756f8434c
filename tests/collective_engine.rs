//! An order-exact oracle for the collective engine.
//!
//! The ring lane and the switch job are the only implementations of
//! their algorithms, so nothing in the crate is left to compare them
//! against. This suite compares them against *plain loops*: a scalar
//! reference that spells out the fold order and the encode points —
//!
//! * ring: chunk `c` folds as `in[c] ∘ (in[c−1] ∘ (… ∘ in[c+1]))`, with
//!   a half-precision round before every FP16 hop and one at the
//!   gather (an F16 payload instead rounds after every fold);
//! * tree: position `p` folds its children `p+1, p+2, p+4, …` in
//!   increasing distance as `acc ∘ incoming`, each child's partial
//!   rounded to half precision once as it travels over FP16 and the
//!   root's value rounded once before the broadcast;
//! * switch: a saturating Q15.16 fold in ascending group position;
//!
//! — and checks result bits, per-rank wire bytes and send counts, and
//! ReduceScatter/AllGather chunk ownership, for 1..=6 ranks, sizes on
//! both sides of `n < k`, every lane width class (one, a few, more than
//! the 64-lane clamp), under the blocking drive and under the priority
//! scheduler beside a competing higher-class job. The overlapped
//! MatMul + AllReduce is one more input to the same ring oracle: each
//! rank's contribution is its product, spelled out as a triple loop.

use coconet::compress::WireFormat;
use coconet::core::{CollAlgo, Executed};
use coconet::runtime::{
    all_gather_wire_striped, all_reduce_wire_striped, chunk_range, overlapped_matmul_all_reduce,
    reduce_scatter_wire_striped, run_ranks, CommScheduler, Group,
};
use coconet::tensor::{DType, ReduceOp, Tensor};

const SIZES: [usize; 7] = [0, 1, 2, 5, 13, 64, 67];
const WIDTHS: [usize; 3] = [1, 3, 70];
const OPS: [ReduceOp; 2] = [ReduceOp::Sum, ReduceOp::Max];

/// `x` rounded to the nearest half-precision value, ties to even — in
/// plain arithmetic, valid for the finite, far-from-overflow magnitudes
/// this suite feeds it.
fn half(x: f32) -> f32 {
    if x == 0.0 {
        return x;
    }
    let a = x.abs();
    // Spacing of half-precision values around `a`: 2^(e−10), with the
    // exponent floored at the subnormal boundary.
    let e = ((a.to_bits() >> 23) as i32 - 127).max(-14);
    let ulp = f32::from_bits(((e - 10 + 127) as u32) << 23);
    // `ulp` is a power of two and a / ulp < 2^11: both steps are exact.
    let q = a / ulp;
    let mut r = q.floor();
    if q - r > 0.5 || (q - r == 0.5 && r % 2.0 == 1.0) {
        r += 1.0;
    }
    (r * ulp).copysign(x)
}

/// Rank `rank`'s element `i`: sign-varied and not half-representable,
/// so both a changed fold grouping and a misplaced rounding show.
fn value(rank: usize, i: usize) -> f32 {
    ((rank * 37 + i * 11) % 53) as f32 * 0.173 - 4.3 + rank as f32 * 0.011
}

/// Where the data path rounds to half precision.
#[derive(Clone, Copy, Debug)]
struct Rounding {
    /// FP16 wire: before every hop and once at the gather.
    hops: bool,
    /// F16 payload: the fold's result is stored as a half.
    folds: bool,
}

/// One swept data-path configuration.
#[derive(Clone, Copy, Debug)]
struct Path {
    dtype: DType,
    wire: WireFormat,
}

const PATHS: [Path; 3] = [
    Path {
        dtype: DType::F32,
        wire: WireFormat::Dense,
    },
    Path {
        dtype: DType::F32,
        wire: WireFormat::Fp16,
    },
    Path {
        dtype: DType::F16,
        wire: WireFormat::Dense,
    },
];

impl Path {
    fn rounding(&self) -> Rounding {
        Rounding {
            hops: self.wire == WireFormat::Fp16,
            folds: self.dtype == DType::F16,
        }
    }

    /// Bytes one element occupies on the wire.
    fn wire_elem_bytes(&self) -> u64 {
        match (self.dtype, self.wire) {
            (DType::F32, WireFormat::Dense) => 4,
            _ => 2,
        }
    }

    /// Every rank's input of `n` elements, as the values the tensors
    /// actually hold (an F16 payload stores halves).
    fn inputs(&self, k: usize, n: usize) -> Vec<Vec<f32>> {
        (0..k)
            .map(|r| {
                (0..n)
                    .map(|i| match self.dtype {
                        DType::F32 => value(r, i),
                        DType::F16 => half(value(r, i)),
                    })
                    .collect()
            })
            .collect()
    }

    fn tensor(&self, values: &[f32]) -> Tensor {
        Tensor::from_f32([values.len()], self.dtype, values).expect("length matches")
    }
}

fn apply(op: ReduceOp, local: f32, incoming: f32) -> f32 {
    match op {
        ReduceOp::Sum => local + incoming,
        ReduceOp::Min => local.min(incoming),
        ReduceOp::Max => local.max(incoming),
    }
}

/// Element `i` (of chunk `c`) as its owner holds it after the
/// ReduceScatter: the partial starts as `in[c+1]` and visits positions
/// `c+2, …, c` in ring order, each folding `local ∘ incoming`.
fn reduced(inputs: &[Vec<f32>], c: usize, i: usize, op: ReduceOp, r: Rounding) -> f32 {
    let k = inputs.len();
    let mut acc = inputs[(c + 1) % k][i];
    for hop in 2..=k {
        let incoming = if r.hops { half(acc) } else { acc };
        acc = apply(op, inputs[(c + hop) % k][i], incoming);
        if r.folds {
            acc = half(acc);
        }
    }
    acc
}

/// What every rank holds for an element after the gather: the owner's
/// value through the wire codec once (no hop, no codec, at `k = 1`).
fn gathered(x: f32, k: usize, r: Rounding) -> f32 {
    if r.hops && k > 1 {
        half(x)
    } else {
        x
    }
}

/// The chunk index holding flat element `i` of `n` split `k` ways.
fn chunk_of(n: usize, k: usize, i: usize) -> usize {
    (0..k)
        .find(|&c| {
            let (off, len) = chunk_range(n, k, c);
            i >= off && i < off + len
        })
        .expect("chunks tile the tensor")
}

fn all_reduce_reference(inputs: &[Vec<f32>], op: ReduceOp, r: Rounding) -> Vec<f32> {
    let (k, n) = (inputs.len(), inputs[0].len());
    (0..n)
        .map(|i| gathered(reduced(inputs, chunk_of(n, k, i), i, op, r), k, r))
        .collect()
}

fn chunk_len(n: usize, k: usize, c: usize) -> u64 {
    chunk_range(n, k, c % k).1 as u64
}

/// Elements position `me` sends during a ReduceScatter of `n`: every
/// chunk but its own.
fn rs_sent(n: usize, k: usize, me: usize) -> u64 {
    n as u64 - chunk_len(n, k, me)
}

/// Elements position `me` sends during the AllGather of those chunks:
/// every chunk but its successor's.
fn ag_sent(n: usize, k: usize, me: usize) -> u64 {
    n as u64 - chunk_len(n, k, me + 1)
}

/// What runs for a ring AllReduce on `wire` over `lanes` lanes.
fn ring(wire: WireFormat, lanes: usize) -> Executed {
    let algo = CollAlgo::Ring;
    Executed {
        algo,
        format: wire,
        lanes,
    }
}

/// What runs for a switch AllReduce.
const SWITCH: Executed = Executed {
    algo: CollAlgo::Switch,
    format: WireFormat::Dense,
    lanes: 1,
};

fn bits(t: &Tensor) -> Vec<u32> {
    (0..t.numel()).map(|i| t.get(i).to_bits()).collect()
}

fn want_bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The plain-arithmetic half rounding agrees with the tensor's own F16
/// store on every value the suite feeds it, so the oracle below checks
/// order and encode points, not two roundings against each other.
#[test]
fn half_rounding_matches_the_tensor_store() {
    let mut probes: Vec<f32> = (0..6)
        .flat_map(|r| (0..67).map(move |i| value(r, i)))
        .collect();
    probes.extend([0.0, 1.0, -1.0, 2049.0, 2051.0, 6.1e-5, 3.0e-6, -5.9e-8]);
    for v in probes {
        let stored = Tensor::from_f32([1], DType::F16, &[v]).unwrap().get(0);
        assert_eq!(half(v).to_bits(), stored.to_bits(), "value {v}");
    }
}

/// Blocking drive: AllReduce bits, per-rank ledger, and the standalone
/// ReduceScatter / AllGather postconditions, against the plain loops.
#[test]
fn blocking_ring_matches_the_scalar_reference() {
    for k in 1..=6usize {
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let me = comm.rank();
            let mut failures: Vec<String> = Vec::new();
            for (n, path, channels, op) in grid() {
                let label = format!("k={k} n={n} {path:?} C={channels} {op:?} rank={me}");
                let inputs = path.inputs(k, n);
                let input = path.tensor(&inputs[me]);
                let lanes = if k == 1 { 1 } else { channels.min(64) as u64 };
                let hops = (k as u64 - 1) * lanes;
                let eb = path.wire_elem_bytes();

                // AllReduce: bits and the whole per-rank ledger.
                comm.reset_ledger();
                let (ring, wire) = (CollAlgo::Ring, path.wire);
                let out = all_reduce_wire_striped(
                    &comm, group, &input, op, ring, 0, wire, None, channels,
                );
                let l = comm.ledger();
                let want = all_reduce_reference(&inputs, op, path.rounding());
                if out.shape() != input.shape() || bits(&out) != want_bits(&want) {
                    failures.push(format!("{label}: all-reduce bits"));
                }
                let sent = (rs_sent(n, k, me) + ag_sent(n, k, me)) * eb;
                let received = (rs_sent(n, k, me + k - 1) + ag_sent(n, k, me + k - 1)) * eb;
                if (l.bytes_sent, l.bytes_received, l.sends) != (sent, received, 2 * hops) {
                    failures.push(format!("{label}: all-reduce ledger {l:?}"));
                }
                if l.class_bytes_sent.iter().any(|&b| b != 0) {
                    failures.push(format!("{label}: a blocking drive recorded a class"));
                }

                // ReduceScatter: position `me` owns reduced chunk `me`.
                comm.reset_ledger();
                let chunk =
                    reduce_scatter_wire_striped(&comm, group, &input, op, ring, 0, wire, channels);
                let l = comm.ledger();
                let (off, len) = chunk_range(n, k, me);
                let want: Vec<f32> = (off..off + len)
                    .map(|i| reduced(&inputs, me, i, op, path.rounding()))
                    .collect();
                if bits(&chunk) != want_bits(&want) {
                    failures.push(format!("{label}: reduce-scatter chunk"));
                }
                if (l.bytes_sent, l.sends) != (rs_sent(n, k, me) * eb, hops) {
                    failures.push(format!("{label}: reduce-scatter ledger {l:?}"));
                }

                // AllGather of each position's input chunk `p`: every
                // rank holds every chunk, in position order, through
                // the codec exactly once.
                comm.reset_ledger();
                let own = input.slice_flat(off, len).expect("in range");
                let chunks = all_gather_wire_striped(&comm, group, &own, ring, 0, wire, channels);
                let l = comm.ledger();
                let held: Vec<Vec<u32>> = chunks.iter().map(bits).collect();
                let want: Vec<Vec<u32>> = (0..k)
                    .map(|p| {
                        let (off, len) = chunk_range(n, k, p);
                        (off..off + len)
                            .map(|i| gathered(inputs[p][i], k, path.rounding()).to_bits())
                            .collect()
                    })
                    .collect();
                if held != want {
                    failures.push(format!("{label}: all-gather chunks"));
                }
                if (l.bytes_sent, l.sends) != (ag_sent(n, k, me) * eb, hops) {
                    failures.push(format!("{label}: all-gather ledger {l:?}"));
                }
            }
            failures
        });
        let failures: Vec<String> = results.into_iter().flatten().collect();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
}

/// The binomial tree's children of position `p` among `k`: `p + d` for
/// every power of two `d` below `p`'s lowest set bit (any `d` at the
/// root) with `p + d < k`, in increasing `d`.
fn tree_children(p: usize, k: usize) -> Vec<usize> {
    let span = if p == 0 { k } else { 1 << p.trailing_zeros() };
    (0..usize::BITS)
        .map(|b| 1usize << b)
        .take_while(|&d| d < span && p + d < k)
        .map(|d| p + d)
        .collect()
}

/// Element `i` of the partial position `p` holds after the reduce
/// phase: its input folded with each child's partial in increasing
/// distance, `acc ∘ incoming`, the partial rounded once as it travels.
fn tree_partial(inputs: &[Vec<f32>], p: usize, i: usize, op: ReduceOp, r: Rounding) -> f32 {
    let mut acc = inputs[p][i];
    for c in tree_children(p, inputs.len()) {
        let partial = tree_partial(inputs, c, i, op, r);
        acc = apply(op, acc, if r.hops { half(partial) } else { partial });
        if r.folds {
            acc = half(acc);
        }
    }
    acc
}

/// What every rank returns: the root's value through the wire codec
/// once — a singleton group's included.
fn tree_reference(inputs: &[Vec<f32>], op: ReduceOp, r: Rounding) -> Vec<f32> {
    let root = |i| tree_partial(inputs, 0, i, op, r);
    (0..inputs[0].len())
        .map(|i| if r.hops { half(root(i)) } else { root(i) })
        .collect()
}

/// The binomial tree AllReduce through the dispatch, blocking: bits
/// against the plain recursion, and per rank one payload up to the
/// parent and one down to every child — as many received — each split
/// into the lanes.
#[test]
fn blocking_tree_matches_the_scalar_reference() {
    for k in 1..=6usize {
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let me = comm.rank();
            let payloads = tree_children(me, k).len() as u64 + u64::from(me != 0);
            let mut failures: Vec<String> = Vec::new();
            for (n, path, channels, op) in grid() {
                let label = format!("k={k} n={n} {path:?} C={channels} {op:?} rank={me}");
                let inputs = path.inputs(k, n);
                let input = path.tensor(&inputs[me]);
                let lanes = if k == 1 { 1 } else { channels.min(64) as u64 };

                comm.reset_ledger();
                let tree = CollAlgo::Tree;
                let out = all_reduce_wire_striped(
                    &comm, group, &input, op, tree, 0, path.wire, None, channels,
                );
                let l = comm.ledger();
                let want = tree_reference(&inputs, op, path.rounding());
                if out.shape() != input.shape() || bits(&out) != want_bits(&want) {
                    failures.push(format!("{label}: tree bits"));
                }
                let bytes = payloads * n as u64 * path.wire_elem_bytes();
                let messages = payloads * lanes;
                if (l.bytes_sent, l.bytes_received, l.sends, l.recvs)
                    != (bytes, bytes, messages, messages)
                    || l.class_bytes_sent.iter().any(|&b| b != 0)
                {
                    failures.push(format!("{label}: tree ledger {l:?}"));
                }
            }
            failures
        });
        let failures: Vec<String> = results.into_iter().flatten().collect();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
}

/// `[rows, inner] · [inner, cols]` shapes of the overlapped case: chunk
/// boundaries that cut output rows (`[3,2]·[2,5]` on 4 ranks), fewer
/// output elements than ranks, even tilings, and a single column.
const GEMMS: [(usize, usize, usize); 7] = [
    (3, 2, 5),
    (1, 2, 3),
    (1, 1, 1),
    (4, 3, 4),
    (8, 5, 8),
    (5, 3, 1),
    (7, 4, 9),
];

/// Row-major `a · w`, every element accumulated over the contraction
/// dimension in ascending order from zero.
fn product(a: &[f32], w: &[f32], rows: usize, inner: usize, cols: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            for l in 0..inner {
                c[i * cols + j] += a[i * inner + l] * w[l * cols + j];
            }
        }
    }
    c
}

/// The overlapped MatMul + AllReduce pulls its chunks out of the GEMM
/// instead of a resident tensor and is otherwise the blocking ring:
/// same fold order over the ranks' products, same per-rank ledger, no
/// priority class.
#[test]
fn overlapped_matmul_all_reduce_matches_the_scalar_reference() {
    for k in [1usize, 2, 3, 4, 5, 8] {
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let me = comm.rank();
            let dense = PATHS[0];
            let mut failures: Vec<String> = Vec::new();
            for (rows, inner, cols) in GEMMS {
                for op in OPS {
                    let label = format!("k={k} [{rows},{inner}]x[{inner},{cols}] {op:?} rank={me}");
                    let lhs = |r: usize| (0..rows * inner).map(|i| value(r, i)).collect();
                    let rhs = |r: usize| (0..inner * cols).map(|i| value(r + 11, i)).collect();
                    let (a, w): (Vec<f32>, Vec<f32>) = (lhs(me), rhs(me));
                    let products: Vec<Vec<f32>> = (0..k)
                        .map(|r| product(&lhs(r), &rhs(r), rows, inner, cols))
                        .collect();
                    let a = Tensor::from_f32([rows, inner], DType::F32, &a).unwrap();
                    let w = Tensor::from_f32([inner, cols], DType::F32, &w).unwrap();

                    comm.reset_ledger();
                    let out = overlapped_matmul_all_reduce(&comm, group, &a, &w, op).unwrap();
                    let l = comm.ledger();
                    let want = all_reduce_reference(&products, op, dense.rounding());
                    if out.shape().dims() != [rows, cols] || bits(&out) != want_bits(&want) {
                        failures.push(format!("{label}: overlapped all-reduce bits"));
                    }
                    let n = rows * cols;
                    let sent = (rs_sent(n, k, me) + ag_sent(n, k, me)) * 4;
                    let received = (rs_sent(n, k, me + k - 1) + ag_sent(n, k, me + k - 1)) * 4;
                    let hops = 2 * (k as u64 - 1);
                    if (l.bytes_sent, l.bytes_received, l.sends) != (sent, received, hops) {
                        failures.push(format!("{label}: overlapped ledger {l:?}"));
                    }
                    if l.class_bytes_sent.iter().any(|&b| b != 0) {
                        failures.push(format!("{label}: a blocking drive recorded a class"));
                    }
                }
            }
            failures
        });
        let failures: Vec<String> = results.into_iter().flatten().collect();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
}

/// Scheduled drive: the same AllReduce polled by the priority scheduler
/// at class 5 beside a competing class-0 job — same bits, same bytes
/// (now attributed to the class), and the competing job exact too.
#[test]
fn scheduled_ring_matches_the_scalar_reference() {
    const RIVAL_ELEMS: usize = 9;
    for k in 1..=6usize {
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let me = comm.rank();
            let dense = PATHS[0];
            let rival_inputs: Vec<Vec<f32>> = (0..k)
                .map(|r| (0..RIVAL_ELEMS).map(|i| value(r + 7, i)).collect())
                .collect();
            let rival = dense.tensor(&rival_inputs[me]);
            let rival_want = all_reduce_reference(&rival_inputs, ReduceOp::Sum, dense.rounding());
            let rival_bytes = (rs_sent(RIVAL_ELEMS, k, me) + ag_sent(RIVAL_ELEMS, k, me)) * 4;
            let mut failures: Vec<String> = Vec::new();
            for (n, path, channels, op) in grid() {
                let label = format!("k={k} n={n} {path:?} C={channels} {op:?} rank={me}");
                let inputs = path.inputs(k, n);
                let input = path.tensor(&inputs[me]);

                comm.reset_ledger();
                let mut sched = CommScheduler::new();
                sched.enqueue(7, 5, group, &input, op, ring(path.wire, channels));
                sched.enqueue(
                    9,
                    0,
                    group,
                    &rival,
                    ReduceOp::Sum,
                    ring(WireFormat::Dense, 1),
                );
                let out = sched.wait(&comm, 7);
                let rival_out = sched.wait(&comm, 9);
                let l = comm.ledger();

                let want = all_reduce_reference(&inputs, op, path.rounding());
                if out.shape() != input.shape() || bits(&out) != want_bits(&want) {
                    failures.push(format!("{label}: scheduled all-reduce bits"));
                }
                if bits(&rival_out) != want_bits(&rival_want) {
                    failures.push(format!("{label}: competing job bits"));
                }
                let sent = (rs_sent(n, k, me) + ag_sent(n, k, me)) * path.wire_elem_bytes();
                if (l.class_bytes_sent[5], l.class_bytes_sent[0]) != (sent, rival_bytes)
                    || l.bytes_sent != sent + rival_bytes
                {
                    failures.push(format!("{label}: scheduled ledger {l:?}"));
                }
                // A one-lane job completes under the caller's id.
                let ids: Vec<u64> = sched.completion_events().iter().map(|c| c.id).collect();
                if !ids.contains(&9) || ((k == 1 || channels == 1) && !ids.contains(&7)) {
                    failures.push(format!("{label}: completion ids {ids:?}"));
                }
            }
            failures
        });
        let failures: Vec<String> = results.into_iter().flatten().collect();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
}

/// The swept configurations, in the one order every rank walks them.
fn grid() -> Vec<(usize, Path, usize, ReduceOp)> {
    let mut out = Vec::new();
    for n in SIZES {
        for path in PATHS {
            for channels in WIDTHS {
                for op in OPS {
                    out.push((n, path, channels, op));
                }
            }
        }
    }
    out
}

/// Position `rank`'s switch input: mostly gradient-scale values, plus
/// three elements whose magnitudes saturate the Q15.16 sum — with signs
/// arranged so any fold order but ascending position gives another
/// answer.
fn switch_value(rank: usize, i: usize) -> f32 {
    match i {
        0 => [30000.0, 30000.0, -30000.0, 30000.0, -30000.0, -30000.0][rank],
        1 => [-20000.0, -20000.0, 25000.0, -20000.0, 1.5, 20000.0][rank],
        2 => 32000.0 - rank as f32 * 9000.0,
        _ => value(rank, i),
    }
}

/// The switch's answer for one element: quantize every contribution to
/// Q15.16, fold in ascending position with saturating integer
/// arithmetic, dequantize.
fn switch_reference(column: &[f32], op: ReduceOp) -> f32 {
    let q = |v: f32| (v * 65536.0).round() as i32;
    let mut acc = q(column[0]);
    for &v in &column[1..] {
        acc = match op {
            ReduceOp::Sum => acc.saturating_add(q(v)),
            ReduceOp::Min => acc.min(q(v)),
            ReduceOp::Max => acc.max(q(v)),
        };
    }
    acc as f32 / 65536.0
}

/// The switch, blocking and scheduled (beside a competing class-0 ring
/// job): result bits against the ascending saturating fold, exactly
/// `n` words up and down per worker, the dataplane's `k·n` on the
/// host's switch counters only.
#[test]
fn switch_matches_the_ascending_saturating_fold() {
    for k in 1..=6usize {
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let me = comm.rank();
            let mut failures: Vec<String> = Vec::new();
            for n in [0usize, 1, 3, 5, 13, 67] {
                for op in OPS {
                    let label = format!("k={k} n={n} {op:?} rank={me}");
                    let input = Tensor::from_fn([n], DType::F32, |i| switch_value(me, i));
                    let want: Vec<f32> = (0..n)
                        .map(|i| {
                            let column: Vec<f32> = (0..k).map(|r| switch_value(r, i)).collect();
                            switch_reference(&column, op)
                        })
                        .collect();
                    let words = n as u64 * 4;
                    let dataplane = if me == 0 { k as u64 * words } else { 0 };

                    comm.reset_ledger();
                    let (switch, dense) = (CollAlgo::Switch, WireFormat::Dense);
                    let out = all_reduce_wire_striped(
                        &comm, group, &input, op, switch, 0, dense, None, 1,
                    );
                    let l = comm.ledger();
                    if bits(&out) != want_bits(&want) {
                        failures.push(format!("{label}: blocking switch bits"));
                    }
                    if (l.bytes_sent, l.bytes_received, l.sends, l.recvs) != (words, words, 1, 1)
                        || (l.switch_bytes_sent, l.switch_bytes_recv) != (dataplane, dataplane)
                        || l.class_bytes_sent.iter().any(|&b| b != 0)
                    {
                        failures.push(format!("{label}: blocking switch ledger {l:?}"));
                    }

                    comm.reset_ledger();
                    let rival = Tensor::from_fn([7], DType::F32, |i| value(me + 3, i));
                    let mut sched = CommScheduler::new();
                    sched.enqueue(4, 6, group, &input, op, SWITCH);
                    sched.enqueue(2, 0, group, &rival, op, ring(WireFormat::Dense, 1));
                    let out = sched.wait(&comm, 4);
                    let _ = sched.wait(&comm, 2);
                    let l = comm.ledger();
                    if bits(&out) != want_bits(&want) {
                        failures.push(format!("{label}: scheduled switch bits"));
                    }
                    // Received bytes land on the taker's counters when
                    // a message is taken, however the two jobs' polls
                    // interleave: the down multicast and the rival
                    // ring's hops from the predecessor worker-side, the
                    // gather on the host's switch counters.
                    let prev = (me + k - 1) % k;
                    let rival_recv = (rs_sent(7, k, prev) + ag_sent(7, k, prev)) * 4;
                    if (l.class_bytes_sent[6], l.switch_bytes_sent) != (words, dataplane)
                        || (l.bytes_received, l.switch_bytes_recv)
                            != (words + rival_recv, dataplane)
                    {
                        failures.push(format!("{label}: scheduled switch ledger {l:?}"));
                    }
                }
            }
            failures
        });
        let failures: Vec<String> = results.into_iter().flatten().collect();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
}
