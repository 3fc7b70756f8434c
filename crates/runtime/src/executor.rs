//! SPMD execution of CoCoNet programs with real data movement.
//!
//! Every rank thread runs the program's *schedule*: the units of
//! [`partition`] — the same partition `lower` prices and the CUDA
//! emitter prints — in their order. A `ComputationFuse` unit is one
//! kernel of the block evaluator ([`crate::kernel`]): its members'
//! [`KernelIr`] runs over blocks of lanes and only the members that
//! escape it reach memory. An `AllReduceFuse` unit is a ReduceScatter,
//! that kernel on the owned chunk (a sliced `Norm` keeps its scalar
//! AllReduce between segments), and an AllGather, with no full-size
//! intermediate. A `SendFuse` unit is that kernel followed by its
//! Send. An unfused pointwise operation is a one-op kernel through the
//! same evaluator; overlap groups run their stages one after another.
//!
//! Communication operations dispatch onto the collective algorithm the
//! run's [`RunOptions`] selects — the flat ring, the binomial tree, or
//! the two-level hierarchical variant, mirroring how a tuned plan's
//! [`CommConfig`](coconet_core::CommConfig) stamps its `CollAlgo` into
//! every collective step.
//!
//! Transformations never change what a program computes per element,
//! only how it is grouped, so the same executor runs a program *before
//! and after* any schedule — which is how the integration tests verify
//! the transformations are semantics preserving. The per-element
//! interpreter the evaluator replaced survives as the tests' oracle
//! ([`run_program_per_element`]): it walks the DFG one node and one
//! element at a time, and every schedule must match it bit for bit.

use std::collections::HashMap;
use std::thread;

use coconet_compress::WireFormat;
use coconet_core::kernel::{Readers, Segment, Stage};
use coconet_core::{
    partition, Binding, CollAlgo, CommConfig, KernelIr, Layout, OpKind, Program, SliceDim, Unit,
    VarId,
};
use coconet_tensor::{DType, ReduceOp, Shape, Tensor};
use coconet_topology::Cluster;

use crate::collectives::{all_reduce_scalar, broadcast, reduce, Group};
use crate::compressed::{
    all_gather_wire_striped, all_reduce_wire_striped, reduce_scatter_wire_striped,
};
use crate::kernel::{run_segment, Site};
use crate::{DistValue, RankComm, RuntimeError};

/// How to initialize a declared input tensor.
#[derive(Clone, Debug)]
pub enum InitValue {
    /// The full global tensor; the runtime replicates or slices it
    /// according to the input's declared layout. Every group sees the
    /// same global value.
    Global(Tensor),
    /// One tensor per *global* rank (required for `Local` inputs,
    /// allowed everywhere).
    PerRank(Vec<Tensor>),
}

/// Initializers for a program's inputs, keyed by input name.
#[derive(Clone, Debug, Default)]
pub struct Inputs {
    map: HashMap<String, InitValue>,
}

impl Inputs {
    /// An empty initializer set.
    pub fn new() -> Inputs {
        Inputs::default()
    }

    /// Sets the initializer for `name` (builder style).
    pub fn set(mut self, name: impl Into<String>, value: InitValue) -> Inputs {
        self.map.insert(name.into(), value);
        self
    }

    /// Convenience: a global tensor initializer.
    pub fn global(self, name: impl Into<String>, t: Tensor) -> Inputs {
        self.set(name, InitValue::Global(t))
    }

    /// Convenience: per-rank initializers.
    pub fn per_rank(self, name: impl Into<String>, ts: Vec<Tensor>) -> Inputs {
        self.set(name, InitValue::PerRank(ts))
    }

    fn get(&self, name: &str) -> Option<&InitValue> {
        self.map.get(name)
    }
}

/// Execution options.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Seed for the counter-based dropout RNG. Two runs of *different
    /// schedules* of the same program with the same seed produce
    /// identical dropout masks.
    pub seed: u64,
    /// Collective algorithm the interpreter's communication operations
    /// run on — the runtime counterpart of a tuned plan's
    /// [`CommConfig::algo`]. Binomial trees only exist for AllReduce
    /// (NCCL builds no tree ReduceScatter/AllGather either); those fall
    /// back to the ring with an identical result.
    pub algo: CollAlgo,
    /// Consecutive group ranks per node, for the hierarchical
    /// algorithm's intra-node/inter-node split. `0` means the whole
    /// group shares one node, degenerating hierarchical to the ring.
    pub ranks_per_node: usize,
    /// Wire format the communication operations encode their payloads
    /// with — the runtime counterpart of a tuned plan's
    /// [`CommConfig::format`]. Top-k applies to sum AllReduces (with
    /// the automatic dense switchover); one-shot program runs discard
    /// the error-feedback residual.
    pub format: WireFormat,
    /// Concurrent lanes every dense collective stripes its payload
    /// across — the runtime counterpart of a tuned plan's
    /// [`CommConfig::channels`]. `1` (the default) moves every hop as
    /// one message; wider counts split it into contiguous stripe
    /// messages with bit-identical results and unchanged byte totals.
    /// Values clamp into `1..=`[`MAX_CHANNELS`](crate::MAX_CHANNELS)
    /// when a collective runs.
    pub channels: usize,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            seed: 0x5eed,
            algo: CollAlgo::Ring,
            ranks_per_node: 0,
            format: WireFormat::Dense,
            channels: 1,
        }
    }
}

impl RunOptions {
    /// A fixed dropout seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> RunOptions {
        self.seed = seed;
        self
    }

    /// A collective algorithm (builder style).
    pub fn with_algo(mut self, algo: CollAlgo) -> RunOptions {
        self.algo = algo;
        self
    }

    /// The node size for the hierarchical algorithm (builder style).
    pub fn with_ranks_per_node(mut self, ranks_per_node: usize) -> RunOptions {
        self.ranks_per_node = ranks_per_node;
        self
    }

    /// A wire format (builder style).
    pub fn with_format(mut self, format: WireFormat) -> RunOptions {
        self.format = format;
        self
    }

    /// A channel (lane) count for the dense collectives (builder
    /// style).
    pub fn with_channels(mut self, channels: usize) -> RunOptions {
        self.channels = channels;
        self
    }

    /// Adopts a tuned plan's communication configuration: the
    /// interpreter will run the collectives on the algorithm the
    /// autotuner selected. The configuration carries no node geometry,
    /// so `ranks_per_node` is left untouched — a hierarchical plan run
    /// with the default of `0` degenerates to the flat ring (same
    /// results, but not the two-level data movement). Pair with
    /// [`with_ranks_per_node`](RunOptions::with_ranks_per_node), or
    /// use [`for_cluster`](RunOptions::for_cluster) to take both from
    /// the machine in one step.
    ///
    /// `protocol`, `sched` and `xfer` do not apply to a single-shot
    /// run: the protocol is a pricing parameter of the simulated
    /// fabric, and the two scheduling disciplines order jobs *across*
    /// iterations, which only
    /// [`StreamExecutor::run_iterations`](crate::StreamExecutor::run_iterations)
    /// has. None of them changes what a collective site executes as
    /// ([`CommConfig::executed_as`]).
    pub fn with_comm(self, config: CommConfig) -> RunOptions {
        self.with_algo(config.algo)
            .with_format(config.format)
            .with_channels(config.channels)
    }

    /// Adopts a tuned plan's communication configuration *and* the
    /// cluster's node geometry: collectives run on the algorithm the
    /// autotuner selected, with the hierarchical intra/inter-node
    /// split taken from the cluster's node size
    /// ([`Cluster::node_group`]).
    pub fn for_cluster(self, config: CommConfig, cluster: &Cluster) -> RunOptions {
        self.with_comm(config)
            .with_ranks_per_node(cluster.node_group(0).size())
    }
}

/// What one executed kernel moved between memory and its registers,
/// counted by the block evaluator as it ran — the measured counterpart
/// of a lowered [`KernelStep`](coconet_core::KernelStep)'s
/// `bytes_read` / `bytes_written`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelStats {
    /// The kernel's pointwise members, joined by `+`.
    pub label: String,
    /// Bytes loaded from operands, each in its stored dtype.
    pub bytes_loaded: u64,
    /// Bytes stored for the members that escape the kernel.
    pub bytes_stored: u64,
}

/// The result of executing a program: per-rank output values.
#[derive(Debug)]
pub struct RunResult {
    per_rank: Vec<HashMap<String, DistValue>>,
    kernels: Vec<Vec<KernelStats>>,
    group_size: usize,
}

impl RunResult {
    /// The kernels a global rank executed, in execution order.
    pub fn kernels(&self, rank: usize) -> &[KernelStats] {
        self.kernels.get(rank).map_or(&[], Vec::as_slice)
    }

    /// The local output value of `name` on a global rank, if present
    /// there (pipeline outputs are absent on the first group).
    pub fn local(&self, rank: usize, name: &str) -> Option<&DistValue> {
        self.per_rank.get(rank).and_then(|m| m.get(name))
    }

    /// Reconstructs the global tensor for output `name` from the first
    /// group that holds it: replicated outputs come from one rank,
    /// sliced outputs are concatenated across the group.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoSuchOutput`] when the output is absent
    /// everywhere, and tensor errors if reassembly fails.
    pub fn global(&self, name: &str) -> Result<Tensor, RuntimeError> {
        let world = self.per_rank.len();
        let gs = self.group_size;
        for group_start in (0..world).step_by(gs) {
            let Some(first) = self.per_rank[group_start].get(name) else {
                continue;
            };
            match first.layout {
                Layout::Replicated | Layout::Local => return Ok(first.local.clone()),
                Layout::Sliced(SliceDim::Flat) => {
                    let locals: Vec<&Tensor> = (group_start..group_start + gs)
                        .map(|r| {
                            self.per_rank[r]
                                .get(name)
                                .map(|v| &v.local)
                                .ok_or_else(|| RuntimeError::NoSuchOutput(name.into()))
                        })
                        .collect::<Result<_, _>>()?;
                    return join_flat(&locals, &first.global_shape);
                }
                Layout::Sliced(SliceDim::Dim(d)) => {
                    let locals: Vec<&Tensor> = (group_start..group_start + gs)
                        .map(|r| {
                            self.per_rank[r]
                                .get(name)
                                .map(|v| &v.local)
                                .ok_or_else(|| RuntimeError::NoSuchOutput(name.into()))
                        })
                        .collect::<Result<_, _>>()?;
                    return Ok(Tensor::concat(&locals, d)?);
                }
            }
        }
        Err(RuntimeError::NoSuchOutput(name.into()))
    }
}

/// The flat chunks of a `Sliced(Flat)` value, in position order, as the
/// whole tensor of `shape`: one concatenation writing each element
/// once, or none when the chunks are adjacent views of one buffer.
fn join_flat(chunks: &[&Tensor], shape: &Shape) -> Result<Tensor, RuntimeError> {
    let flat: Vec<Tensor> = chunks
        .iter()
        .map(|c| c.reshape([c.numel()]))
        .collect::<Result<_, _>>()?;
    let parts: Vec<&Tensor> = flat.iter().collect();
    Ok(Tensor::concat(&parts, 0)?.reshape(shape.clone())?)
}

/// One step of a rank's walk through the program.
enum Action {
    /// A DFG node executed whole: an input, a constant, a collective,
    /// a send, a MatMul or a convolution.
    Node(VarId),
    /// The pointwise members of one unit, as one kernel.
    Kernel { ir: KernelIr, label: String },
    /// One pointwise node, one element at a time (the oracle).
    PerElement(VarId),
}

/// What executing `unit` takes: one kernel of all its pointwise
/// members, after the ReduceScatter that feeds a fused collective and
/// before the AllGathers that publish it or the Send that carries it
/// away (member order alone does not say so: `m * beta1` precedes the
/// ReduceScatter in the DFG).
fn actions_of(
    program: &Program,
    readers: &Readers,
    unit: &Unit,
) -> Result<Vec<Action>, RuntimeError> {
    let is = |m: &VarId, what: fn(&OpKind) -> bool| program.op(*m).is_ok_and(what);
    let (pointwise, collectives): (Vec<VarId>, Vec<VarId>) = unit
        .members
        .iter()
        .partition(|m| is(m, OpKind::is_pointwise));
    let (feeds, publishes): (Vec<VarId>, Vec<VarId>) = collectives
        .into_iter()
        .partition(|m| is(m, |op| matches!(op, OpKind::ReduceScatter(..))));
    let mut actions: Vec<Action> = feeds.into_iter().map(Action::Node).collect();
    if !pointwise.is_empty() {
        let names: Vec<&str> = pointwise
            .iter()
            .filter_map(|&m| program.node(m).ok())
            .map(|n| n.name())
            .collect();
        actions.push(Action::Kernel {
            ir: KernelIr::compile(program, readers, &pointwise)?,
            label: names.join("+"),
        });
    }
    actions.extend(publishes.into_iter().map(Action::Node));
    Ok(actions)
}

/// The schedule of a (validated, by `partition`) `program`: its
/// operands (inputs and constants), then `lower::partition`'s units in
/// their order.
fn schedule_of(program: &Program) -> Result<Vec<Action>, RuntimeError> {
    let parts = partition(program)?;
    let readers = Readers::of(program)?;
    let mut actions: Vec<Action> = program
        .topo_order()
        .into_iter()
        .filter(|&v| matches!(program.op(v), Ok(OpKind::Input | OpKind::ConstScalar(_))))
        .map(Action::Node)
        .collect();
    for &u in parts.order.iter().flat_map(|entry| entry.units()) {
        actions.extend(actions_of(program, &readers, &parts.units[u])?);
    }
    Ok(actions)
}

/// The oracle's walk: the DFG in topological order, one node at a time.
fn per_element_walk(program: &Program) -> Vec<Action> {
    program
        .topo_order()
        .into_iter()
        .map(|v| match program.op(v) {
            Ok(
                OpKind::Unary(..)
                | OpKind::Binary(..)
                | OpKind::Dropout(..)
                | OpKind::Slice(_)
                | OpKind::Update(..),
            ) => Action::PerElement(v),
            _ => Action::Node(v),
        })
        .collect()
}

/// Executes `program` once, SPMD on `binding.world_size()` rank
/// threads. (Multi-iteration, barrier-free execution is
/// [`StreamExecutor::run_iterations`](crate::StreamExecutor::run_iterations).)
///
/// # Errors
///
/// Returns initializer errors before spawning, and
/// [`RuntimeError::RankPanicked`] if a rank thread dies.
pub fn run_program(
    program: &Program,
    binding: &Binding,
    inputs: &Inputs,
    opts: RunOptions,
) -> Result<RunResult, RuntimeError> {
    run_actions(program, binding, inputs, opts, &schedule_of(program)?)
}

/// The oracle the tests compare [`run_program`] against, bit for bit:
/// the per-element interpreter, which ignores the schedule, walks the
/// DFG in topological order and computes every pointwise node one
/// `f32` at a time through global indices.
///
/// # Errors
///
/// As [`run_program`].
#[doc(hidden)]
pub fn run_program_per_element(
    program: &Program,
    binding: &Binding,
    inputs: &Inputs,
    opts: RunOptions,
) -> Result<RunResult, RuntimeError> {
    program.validate()?;
    run_actions(program, binding, inputs, opts, &per_element_walk(program))
}

/// The block evaluator on one kernel segment, outside any schedule:
/// runs `seg` as position `pos` of a group of `binding.group_size`
/// over `operands` (its operands' values) and returns the values it
/// stores, in store order. The tests run the printed CUDA bodies
/// against it.
///
/// # Errors
///
/// Propagates binding and tensor errors.
#[doc(hidden)]
pub fn run_segment_alone(
    program: &Program,
    binding: &Binding,
    seg: &Segment,
    pos: usize,
    seed: u64,
    operands: Vec<(VarId, DistValue)>,
) -> Result<Vec<DistValue>, RuntimeError> {
    let dropout_ordinal = dropout_ordinals(program);
    let site = Site {
        program,
        binding,
        pos,
        gs: binding.group_size,
        seed,
        dropout_ordinal: &dropout_ordinal,
    };
    let mut values: Vec<Option<DistValue>> =
        vec![None; program.live_vars().last().map_or(0, |v| v.index() + 1)];
    for (v, value) in operands {
        values[v.index()] = Some(value);
    }
    run_segment(seg, &site, &mut values)?;
    Ok(seg
        .stores()
        .filter_map(|m| values[m.index()].take())
        .collect())
}

/// Stable dropout ordinals: schedules do not add or remove dropouts.
fn dropout_ordinals(program: &Program) -> HashMap<VarId, u64> {
    let mut dropout_ordinal: HashMap<VarId, u64> = HashMap::new();
    for v in program.topo_order() {
        if matches!(program.op(v), Ok(OpKind::Dropout(..))) {
            let next = dropout_ordinal.len() as u64;
            dropout_ordinal.insert(v, next);
        }
    }
    dropout_ordinal
}

fn run_actions(
    program: &Program,
    binding: &Binding,
    inputs: &Inputs,
    opts: RunOptions,
    actions: &[Action],
) -> Result<RunResult, RuntimeError> {
    let world = binding.world_size();
    // Validate initializers up front for better errors, and reject
    // geometries where a sliced tensor does not divide across the
    // group (the type checker's bind-time divisibility rule).
    for &v in program.inputs() {
        let node = program.node(v)?;
        node.ty().local_numel(binding)?;
        match inputs.get(node.name()) {
            None => return Err(RuntimeError::MissingInput(node.name().into())),
            Some(InitValue::PerRank(ts)) if ts.len() != world => {
                return Err(RuntimeError::BadInput {
                    name: node.name().into(),
                    detail: format!("expected {world} per-rank tensors, got {}", ts.len()),
                });
            }
            Some(_) => {}
        }
    }

    let dropout_ordinal = &dropout_ordinals(program);

    // Scoped rank threads borrow the program, binding, inputs and
    // schedule directly — no deep copies, no reference counting at
    // spawn time.
    let comms = RankComm::world(world);
    let mut per_rank = Vec::with_capacity(world);
    let mut kernels = Vec::with_capacity(world);
    let mut first_err = None;
    thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                s.spawn(move || {
                    coconet_trace::set_thread_rank(comm.rank() as u32);
                    Rank::new(program, binding, inputs, &comm, opts, dropout_ordinal).run(actions)
                })
            })
            .collect();
        for (rank, h) in handles.into_iter().enumerate() {
            let (outputs, stats) = match h.join() {
                Ok(Ok(done)) => done,
                Ok(Err(e)) => {
                    first_err.get_or_insert(e);
                    Default::default()
                }
                Err(_) => {
                    first_err.get_or_insert(RuntimeError::RankPanicked(rank));
                    Default::default()
                }
            };
            per_rank.push(outputs);
            kernels.push(stats);
        }
    });
    match first_err {
        Some(e) => Err(e),
        None => Ok(RunResult {
            per_rank,
            kernels,
            group_size: binding.group_size,
        }),
    }
}

/// Static trace label of a DFG step — the name its span renders under
/// in an exported trace.
fn op_trace_label(op: &OpKind) -> &'static str {
    match op {
        OpKind::Input => "input",
        OpKind::ConstScalar(_) => "const",
        OpKind::Unary(..) => "unary",
        OpKind::Binary(..) => "binary",
        OpKind::MatMul(..) => "matmul",
        OpKind::Conv2d(..) => "conv2d",
        OpKind::Dropout(..) => "dropout",
        OpKind::Update(..) => "update",
        OpKind::Norm(_) => "norm",
        OpKind::ReduceTensor(..) => "reduce_tensor",
        OpKind::Slice(_) => "slice",
        OpKind::AllReduce(..) => "all_reduce",
        OpKind::ReduceScatter(..) => "reduce_scatter",
        OpKind::AllGather(_) => "all_gather",
        OpKind::Broadcast(..) => "broadcast",
        OpKind::Reduce(..) => "reduce",
        OpKind::Send(..) => "send",
    }
}

/// What a rank hands back: the program's outputs by name, and what
/// every kernel it ran moved.
type RankOutput = (HashMap<String, DistValue>, Vec<KernelStats>);

/// One rank's execution state.
struct Rank<'a> {
    inputs: &'a Inputs,
    comm: &'a RankComm,
    opts: RunOptions,
    site: Site<'a>,
    group: Group,
    group_idx: usize,
    /// The value of every node computed so far, by node index.
    values: Vec<Option<DistValue>>,
    kernels: Vec<KernelStats>,
}

impl<'a> Rank<'a> {
    fn new(
        program: &'a Program,
        binding: &'a Binding,
        inputs: &'a Inputs,
        comm: &'a RankComm,
        opts: RunOptions,
        dropout_ordinal: &'a HashMap<VarId, u64>,
    ) -> Rank<'a> {
        let gs = binding.group_size;
        let group_idx = comm.rank() / gs;
        let n_nodes = program.live_vars().last().map_or(0, |v| v.index() + 1);
        Rank {
            inputs,
            comm,
            opts,
            site: Site {
                program,
                binding,
                pos: comm.rank() % gs,
                gs,
                seed: opts.seed,
                dropout_ordinal,
            },
            group: Group {
                start: group_idx * gs,
                size: gs,
            },
            group_idx,
            values: vec![None; n_nodes],
            kernels: Vec::new(),
        }
    }

    /// Runs the walk.
    fn run(mut self, actions: &[Action]) -> Result<RankOutput, RuntimeError> {
        for (step, action) in actions.iter().enumerate() {
            let label = match action {
                Action::Kernel { .. } => "kernel",
                Action::Node(v) | Action::PerElement(v) => {
                    op_trace_label(self.site.program.op(*v)?)
                }
            };
            let _step_span =
                coconet_trace::span(coconet_trace::EventKind::Compute, label, step as u64, 0);
            match action {
                Action::Node(v) => self.node(*v)?,
                Action::Kernel { ir, label } => self.kernel(ir, label)?,
                Action::PerElement(v) => self.per_element(*v)?,
            }
        }
        let mut outputs = HashMap::new();
        for &out in self.site.program.outputs() {
            let name = self.site.program.node(out)?.name().to_string();
            if let Some(val) = self.value(out)?.cloned() {
                outputs.insert(name, val);
            }
        }
        Ok((outputs, self.kernels))
    }

    /// The value of `v` in memory. A `Slice` no unit claims is an
    /// addressing mode to the kernels that read through it; whoever
    /// needs it as a tensor (a collective, a reduction, the program's
    /// outputs) materializes it here, once.
    fn value(&mut self, v: VarId) -> Result<Option<&DistValue>, RuntimeError> {
        if self.values[v.index()].is_none() && matches!(self.site.program.op(v)?, OpKind::Slice(_))
        {
            let p = self.site.program;
            let ir = KernelIr::compile(p, &Readers::of(p)?, &[v])?;
            for seg in ir.segments() {
                run_segment(seg, &self.site, &mut self.values)?;
            }
        }
        Ok(self.values[v.index()].as_ref())
    }

    /// Runs one kernel: its segments through the block evaluator, its
    /// reductions between them.
    fn kernel(&mut self, ir: &KernelIr, label: &str) -> Result<(), RuntimeError> {
        let mut stats = KernelStats {
            label: label.to_string(),
            bytes_loaded: 0,
            bytes_stored: 0,
        };
        for stage in &ir.stages {
            match stage {
                Stage::Segment(seg) => {
                    let moved = run_segment(seg, &self.site, &mut self.values)?;
                    stats.bytes_loaded += moved.loaded;
                    stats.bytes_stored += moved.stored;
                    for m in seg.stores() {
                        if let (OpKind::Update(target, _), Some(new)) =
                            (self.site.program.op(m)?, &self.values[m.index()])
                        {
                            self.values[target.index()] = Some(new.clone());
                        }
                    }
                }
                // A reduction reads its operand once and writes a scalar.
                Stage::Reduce(m) => {
                    self.node(*m)?;
                    let operand = self.site.program.op(*m)?.inputs()[0];
                    let (read, wrote) = (&self.values[operand.index()], &self.values[m.index()]);
                    if let (Some(read), Some(wrote)) = (read, wrote) {
                        stats.bytes_loaded += read.local.size_bytes() as u64;
                        stats.bytes_stored += wrote.local.size_bytes() as u64;
                    }
                }
            }
        }
        self.kernels.push(stats);
        Ok(())
    }

    /// Evaluates pointwise node `v` one element at a time, reading its
    /// operands through global indices (with PyTorch broadcasting).
    fn per_element(&mut self, v: VarId) -> Result<(), RuntimeError> {
        let node = self.site.program.node(v)?;
        let op = node.op().clone();
        // An `Update` reads only its new value; the target is written.
        let operands = match op {
            OpKind::Update(_, x) => vec![x],
            _ => op.inputs(),
        };
        let rng = match op {
            OpKind::Dropout(..) => Some(self.site.dropout_rng(v)),
            _ => None,
        };
        let value = eval_elementwise(
            &self.values,
            &operands,
            &node.ty().shape.eval(self.site.binding)?,
            node.ty().layout,
            node.ty().dtype,
            self.site.pos,
            self.site.gs,
            |args, gidx| match op {
                OpKind::Unary(op, _) => op.apply(args[0]),
                OpKind::Binary(op, ..) => op.apply(args[0], args[1]),
                OpKind::Dropout(_, p) => {
                    let rng = rng.expect("a dropout has its mask stream");
                    if rng.keep_at(gidx as u64, p) {
                        args[0] * (1.0 / (1.0 - p)) as f32
                    } else {
                        0.0
                    }
                }
                _ => args[0],
            },
        );
        if let (OpKind::Update(target, _), Some(_)) = (&op, &value) {
            self.values[target.index()] = value.clone();
        }
        self.values[v.index()] = value;
        Ok(())
    }

    /// Executes node `v` whole: everything that is not a kernel.
    fn node(&mut self, v: VarId) -> Result<(), RuntimeError> {
        let node = self.site.program.node(v)?;
        let ty = node.ty().clone();
        let out_shape = ty.shape.eval(self.site.binding)?;
        let (pos, gs) = (self.site.pos, self.site.gs);
        let (comm, group, opts) = (self.comm, self.group, self.opts);
        let op = node.op().clone();
        for dep in op.inputs() {
            self.value(dep)?;
        }
        let values = &self.values;
        let at = |v: VarId| values[v.index()].as_ref();
        let value: Option<DistValue> = match op {
            OpKind::Input => Some(materialize_input(
                node.name(),
                &out_shape,
                ty.layout,
                ty.dtype,
                self.inputs,
                comm.rank(),
                pos,
                gs,
            )?),
            OpKind::ConstScalar(c) => Some(DistValue::replicated(
                Tensor::scalar(DType::F32, c as f32),
                pos,
                gs,
            )),
            OpKind::MatMul(a, w) => match (at(a), at(w)) {
                (Some(av), Some(wv)) => Some(DistValue {
                    global_shape: out_shape,
                    layout: ty.layout,
                    local: av.local.matmul(&wv.local)?.cast(ty.dtype),
                    pos,
                    group_size: gs,
                }),
                _ => None,
            },
            OpKind::Conv2d(x, w, params) => match (at(x), at(w)) {
                (Some(xv), Some(wv)) => Some(DistValue {
                    global_shape: out_shape,
                    layout: ty.layout,
                    local: xv.local.conv2d(&wv.local, params)?.cast(ty.dtype),
                    pos,
                    group_size: gs,
                }),
                _ => None,
            },
            OpKind::Norm(a) => at(a).map(|x| full_reduction(x, comm, group, ReduceOp::Sum, true)),
            OpKind::ReduceTensor(op, a) => at(a).map(|x| full_reduction(x, comm, group, op, false)),
            // One-shot program runs carry no error-feedback residual.
            OpKind::AllReduce(op, a) => at(a).map(|input| {
                let reduced = all_reduce_wire_striped(
                    comm,
                    group,
                    &input.local,
                    op,
                    opts.algo,
                    opts.ranks_per_node,
                    opts.format,
                    None,
                    opts.channels,
                );
                DistValue::replicated(reduced, pos, gs)
            }),
            OpKind::ReduceScatter(op, a) => at(a).map(|input| {
                let chunk = reduce_scatter_wire_striped(
                    comm,
                    group,
                    &input.local,
                    op,
                    opts.algo,
                    opts.ranks_per_node,
                    opts.format,
                    opts.channels,
                );
                DistValue {
                    global_shape: input.global_shape.clone(),
                    layout: Layout::sliced_flat(),
                    local: chunk,
                    pos,
                    group_size: gs,
                }
            }),
            OpKind::AllGather(a) => match at(a) {
                None => None,
                Some(input) => {
                    let chunks = all_gather_wire_striped(
                        comm,
                        group,
                        &input.local,
                        opts.algo,
                        opts.ranks_per_node,
                        opts.format,
                        opts.channels,
                    );
                    let refs: Vec<&Tensor> = chunks.iter().collect();
                    let full = match input.layout {
                        Layout::Sliced(SliceDim::Dim(d)) => Tensor::concat(&refs, d)?,
                        _ => join_flat(&refs, &input.global_shape)?,
                    };
                    Some(DistValue::replicated(full.reshape(out_shape)?, pos, gs))
                }
            },
            OpKind::Broadcast(a, root) => at(a).map(|input| {
                DistValue::replicated(broadcast(comm, group, Some(&input.local), root), pos, gs)
            }),
            OpKind::Reduce(op, a, root) => at(a).map(|input| {
                DistValue::local(reduce(comm, group, &input.local, op, root), pos, gs)
            }),
            OpKind::Send(a, _) => {
                let shift = ty.group_shift as usize;
                let input = at(a);
                let rank = comm.rank();
                // Send to the peer in the next group if this group has
                // the value and a next group exists.
                if self.group_idx + 1 < self.site.binding.num_groups && self.group_idx + 1 >= shift
                {
                    if let Some(val) = input {
                        comm.send(rank + gs, val.local.clone());
                    }
                }
                // Receive from the previous group if it sent.
                if self.group_idx >= shift && self.group_idx >= 1 {
                    let local = comm.recv(rank - gs);
                    let proto = input.expect("sender side had the value too");
                    Some(DistValue {
                        global_shape: proto.global_shape.clone(),
                        layout: proto.layout,
                        local,
                        pos,
                        group_size: gs,
                    })
                } else {
                    None
                }
            }
            other => unreachable!("{} runs in a kernel", other.mnemonic()),
        };
        self.values[v.index()] = value;
        Ok(())
    }
}

#[allow(clippy::too_many_arguments)]
fn materialize_input(
    name: &str,
    global_shape: &Shape,
    layout: Layout,
    dtype: DType,
    inputs: &Inputs,
    rank: usize,
    pos: usize,
    gs: usize,
) -> Result<DistValue, RuntimeError> {
    let init = inputs
        .get(name)
        .ok_or_else(|| RuntimeError::MissingInput(name.into()))?;
    let local = match init {
        InitValue::Global(t) => {
            if t.shape() != global_shape {
                return Err(RuntimeError::BadInput {
                    name: name.into(),
                    detail: format!(
                        "declared global shape {global_shape}, initializer is {}",
                        t.shape()
                    ),
                });
            }
            let t = t.cast(dtype);
            // Every rank shares the initializer's buffer: whole for
            // `Replicated` / `Local`, a zero-copy view of this rank's
            // share for flat and leading-dimension slices (an interior
            // dimension copies its row runs).
            match layout {
                Layout::Replicated | Layout::Local => t,
                Layout::Sliced(SliceDim::Flat) => {
                    let chunk = t.numel() / gs;
                    t.slice_flat(pos * chunk, chunk)?
                }
                Layout::Sliced(SliceDim::Dim(d)) => {
                    let extent = global_shape.dim(d) / gs;
                    t.slice_dim(d, pos * extent, extent)?
                }
            }
        }
        InitValue::PerRank(ts) => {
            let t = ts[rank].cast(dtype);
            let local_shape = DistValue::local_shape(global_shape, layout, gs);
            if t.shape() != &local_shape {
                return Err(RuntimeError::BadInput {
                    name: name.into(),
                    detail: format!("expected per-rank shape {local_shape}, got {}", t.shape()),
                });
            }
            t
        }
    };
    Ok(DistValue {
        global_shape: global_shape.clone(),
        layout,
        local,
        pos,
        group_size: gs,
    })
}

/// Evaluates a pointwise operation elementwise over the output's local
/// domain, reading operands through global indices (with PyTorch
/// broadcasting). Returns `None` if any operand is absent.
#[allow(clippy::too_many_arguments)]
fn eval_elementwise(
    values: &[Option<DistValue>],
    operands: &[VarId],
    out_shape: &Shape,
    out_layout: Layout,
    out_dtype: DType,
    pos: usize,
    gs: usize,
    f: impl Fn(&[f32], usize) -> f32,
) -> Option<DistValue> {
    let ops: Option<Vec<&DistValue>> = operands
        .iter()
        .map(|o| values[o.index()].as_ref())
        .collect();
    let ops = ops?;
    let local_shape = DistValue::local_shape(out_shape, out_layout, gs);
    // One pass into a staging vector, one buffer materialization — no
    // placeholder tensor for the index mapping.
    let mut data = vec![0.0f32; local_shape.numel()];
    let mut args = vec![0.0f32; ops.len()];
    for (l, slot_out) in data.iter_mut().enumerate() {
        let gidx = DistValue::global_index_in(out_shape, out_layout, &local_shape, pos, gs, l);
        for (slot, op) in args.iter_mut().zip(&ops) {
            let op_gidx = op.global_shape.broadcast_index(out_shape, gidx);
            *slot = op.read_global(op_gidx);
        }
        *slot_out = f(&args, gidx);
    }
    let local = Tensor::from_f32_vec(local_shape, out_dtype, data).expect("same element count");
    Some(DistValue {
        global_shape: out_shape.clone(),
        layout: out_layout,
        local,
        pos,
        group_size: gs,
    })
}

/// `Norm` / `ReduceTensor`: one sequential `f64` pass over this rank's
/// elements, then a scalar AllReduce when the operand is sliced.
fn full_reduction(
    input: &DistValue,
    comm: &RankComm,
    group: Group,
    op: ReduceOp,
    is_norm: bool,
) -> DistValue {
    let mut partial: f64 = if is_norm {
        input.local.sum_squares()
    } else {
        let wide = input.local.cast(DType::F32);
        wide.as_f32_slice()
            .expect("cast to F32")
            .iter()
            .fold(f64::from(op.identity()), |acc, &x| {
                f64::from(op.apply(acc as f32, x))
            })
    };
    if input.layout.is_sliced() {
        partial = all_reduce_scalar(comm, group, partial, op);
    }
    let total = if is_norm { partial.sqrt() } else { partial };
    DistValue::replicated(
        Tensor::scalar(DType::F32, total as f32),
        input.pos,
        input.group_size,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconet_core::xform::{fuse_all_reduce, overlap, reorder_all_gather, split_all_reduce};
    use coconet_core::{DType, Layout, ReduceOp};
    use coconet_tensor::CounterRng;

    /// The paper's running example (Figure 3).
    fn figure3() -> (Program, Vec<VarId>) {
        let mut p = Program::new("self_attention");
        let w = p.input("w", DType::F16, ["H", "H2"], Layout::sliced(0));
        let b = p.input("b", DType::F16, ["H2"], Layout::Replicated);
        let input = p.input("in", DType::F16, ["B", "S", "H"], Layout::sliced(2));
        let r = p.input("r", DType::F16, ["B", "S", "H2"], Layout::Replicated);
        let layer = p.matmul(input, w).unwrap();
        p.set_name(layer, "layer").unwrap();
        let sum = p.all_reduce(ReduceOp::Sum, layer).unwrap();
        p.set_name(sum, "sum").unwrap();
        let biased = p.add(sum, b).unwrap();
        let d = p.dropout(biased, 0.25).unwrap();
        let out = p.add(d, r).unwrap();
        p.set_name(out, "out").unwrap();
        p.set_io(&[w, input, b, r], &[out]).unwrap();
        (p, vec![layer, sum, biased, d, out])
    }

    fn figure3_inputs() -> (Binding, Inputs) {
        let binding = Binding::new(4)
            .bind("B", 2)
            .bind("S", 4)
            .bind("H", 8)
            .bind("H2", 12);
        let rng = CounterRng::new(7);
        let inputs = Inputs::new()
            .global("w", Tensor::randn([8, 12], DType::F16, rng, 0))
            .global("b", Tensor::randn([12], DType::F16, rng, 1_000))
            .global("in", Tensor::randn([2, 4, 8], DType::F16, rng, 2_000))
            .global("r", Tensor::randn([2, 4, 12], DType::F16, rng, 10_000));
        (binding, inputs)
    }

    #[test]
    fn figure3_baseline_runs_and_is_consistent_across_ranks() {
        let (p, _) = figure3();
        let (binding, inputs) = figure3_inputs();
        let result = run_program(&p, &binding, &inputs, RunOptions::default()).unwrap();
        let global = result.global("out").unwrap();
        assert_eq!(global.shape().dims(), &[2, 4, 12]);
        // Replicated output: every rank agrees exactly.
        for rank in 0..4 {
            let local = result.local(rank, "out").unwrap();
            assert_eq!(local.local.to_f32_vec(), global.to_f32_vec());
        }
    }

    /// §3: every transformation is semantics preserving. The fully
    /// scheduled program (split + reorder + fuse + overlap — the
    /// paper's program 4 in Figure 4) must produce the same output as
    /// the unscheduled one, including identical dropout masks.
    #[test]
    fn transformed_schedule_is_semantics_preserving() {
        let (base, _) = figure3();
        let (binding, inputs) = figure3_inputs();
        let opts = RunOptions::default().with_seed(1234);
        let reference = run_program(&base, &binding, &inputs, opts)
            .unwrap()
            .global("out")
            .unwrap();

        let (mut p, vars) = figure3();
        let (layer, sum, biased, d, out) = (vars[0], vars[1], vars[2], vars[3], vars[4]);
        let (rs, ag) = split_all_reduce(&mut p, sum).unwrap();
        let result = reorder_all_gather(&mut p, ag, &[biased, d, out]).unwrap();
        let new_ag = result.gathers[0].1;
        p.set_name(new_ag, "out_gathered").unwrap();
        fuse_all_reduce(&mut p, rs, &result.sliced, &[new_ag]).unwrap();
        overlap(&mut p, &[layer, rs]).unwrap();
        p.validate().unwrap();

        let transformed = run_program(&p, &binding, &inputs, opts)
            .unwrap()
            .global("out_gathered")
            .unwrap();

        assert_eq!(transformed.shape(), reference.shape());
        let diff = transformed.max_abs_diff(&reference);
        // FP16 rounding differs only through reduction order; the ring
        // schedule is identical, so the results match to within a ulp.
        assert!(diff <= 2e-2, "max diff {diff}");
    }

    /// The intermediate schedules (Figure 4 programs 1 and 2) also
    /// preserve semantics.
    #[test]
    fn split_and_reorder_each_preserve_semantics() {
        let (base, _) = figure3();
        let (binding, inputs) = figure3_inputs();
        let opts = RunOptions::default().with_seed(99);
        let reference = run_program(&base, &binding, &inputs, opts)
            .unwrap()
            .global("out")
            .unwrap();

        // Program 1: split only.
        let (mut p1, vars1) = figure3();
        split_all_reduce(&mut p1, vars1[1]).unwrap();
        let got1 = run_program(&p1, &binding, &inputs, opts)
            .unwrap()
            .global("out")
            .unwrap();
        assert!(got1.max_abs_diff(&reference) <= 2e-2);

        // Program 2: split + reorder.
        let (mut p2, vars2) = figure3();
        let (_, ag) = split_all_reduce(&mut p2, vars2[1]).unwrap();
        let r2 = reorder_all_gather(&mut p2, ag, &[vars2[2], vars2[3], vars2[4]]).unwrap();
        p2.set_name(r2.gathers[0].1, "out2").unwrap();
        let got2 = run_program(&p2, &binding, &inputs, opts)
            .unwrap()
            .global("out2")
            .unwrap();
        assert!(got2.max_abs_diff(&reference) <= 2e-2);
    }

    #[test]
    fn pipeline_send_delivers_to_next_group() {
        // Two groups of 2: group 0 allreduces its input and sends; the
        // output materializes on group 1.
        let mut p = Program::new("pipe");
        let x = p.input("in", DType::F32, ["N"], Layout::Local);
        let sum = p.all_reduce(ReduceOp::Sum, x).unwrap();
        let sent = p
            .send(sum, coconet_core::PeerSelector::NextGroupSameRank)
            .unwrap();
        p.set_name(sent, "received").unwrap();
        p.set_io(&[x], &[sent]).unwrap();

        let binding = Binding::new(2).with_groups(2).bind("N", 4);
        let inputs = Inputs::new().per_rank(
            "in",
            (0..4)
                .map(|r| Tensor::full([4], DType::F32, (r + 1) as f32))
                .collect(),
        );
        let result = run_program(&p, &binding, &inputs, RunOptions::default()).unwrap();
        // Group 0 has no received value.
        assert!(result.local(0, "received").is_none());
        assert!(result.local(1, "received").is_none());
        // Group 1 received group 0's AllReduce (1 + 2 = 3).
        for rank in 2..4 {
            let v = result.local(rank, "received").unwrap();
            assert_eq!(v.local.get(0), 3.0);
        }
        assert_eq!(result.global("received").unwrap().get(0), 3.0);
    }

    /// Every collective algorithm produces the same program outputs —
    /// the executor-level counterpart of the ring-vs-tree-vs-
    /// hierarchical equivalences the collective unit tests prove.
    #[test]
    fn all_algorithms_agree_on_figure3() {
        let (p, _) = figure3();
        let (binding, inputs) = figure3_inputs();
        let reference = run_program(&p, &binding, &inputs, RunOptions::default())
            .unwrap()
            .global("out")
            .unwrap();
        for algo in CollAlgo::ALL {
            let opts = RunOptions::default().with_algo(algo).with_ranks_per_node(2); // 4 ranks = 2 nodes of 2
            let got = run_program(&p, &binding, &inputs, opts)
                .unwrap()
                .global("out")
                .unwrap();
            let diff = got.max_abs_diff(&reference);
            assert!(diff <= 2e-2, "{algo}: diff {diff}");
        }
    }

    /// Every wire format executes every algorithm and preserves the
    /// program's semantics: the dense wire exactly, FP16 within the
    /// per-hop rounding of the values (lossless here — the payloads
    /// are already FP16), and one-shot top-k within its stated
    /// tolerance: an element the wire dropped is off by at most its
    /// own magnitude, so the output error is bounded by the largest
    /// reference magnitude (across-iteration recovery is the error
    /// feedback loop's job, proven in `coconet-models`).
    #[test]
    fn every_wire_format_preserves_semantics_within_tolerance() {
        let (p, _) = figure3();
        let (binding, inputs) = figure3_inputs();
        let reference = run_program(&p, &binding, &inputs, RunOptions::default())
            .unwrap()
            .global("out")
            .unwrap();
        let ref_max = reference
            .to_f32_vec()
            .iter()
            .fold(0.0f32, |a, &b| a.max(b.abs()));
        for algo in CollAlgo::ALL {
            for format in coconet_compress::WireFormat::SWEEP {
                let opts = RunOptions::default()
                    .with_algo(algo)
                    .with_ranks_per_node(2)
                    .with_format(format);
                let got = run_program(&p, &binding, &inputs, opts)
                    .unwrap()
                    .global("out")
                    .unwrap();
                let diff = got.max_abs_diff(&reference);
                let tol = match format {
                    // The ring is the reference; other algorithms
                    // reduce in a different order (FP16 data rounds
                    // differently, same bound the cross-algorithm
                    // equivalence test uses).
                    coconet_compress::WireFormat::Dense if algo == CollAlgo::Ring => 0.0,
                    coconet_compress::WireFormat::Dense | coconet_compress::WireFormat::Fp16 => {
                        2e-2
                    }
                    coconet_compress::WireFormat::TopK { .. } => 1.5 * ref_max,
                };
                assert!(diff <= tol, "{algo}/{format}: diff {diff} > tol {tol}");
                // Replicated outputs stay replicated under every
                // format (the sparse exchange densifies the identical
                // combined chunk on every rank).
                let result = run_program(&p, &binding, &inputs, opts).unwrap();
                let global = result.global("out").unwrap();
                for rank in 0..4 {
                    assert_eq!(
                        result.local(rank, "out").unwrap().local.to_f32_vec(),
                        global.to_f32_vec(),
                        "{algo}/{format} rank {rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn missing_input_is_reported() {
        let (p, _) = figure3();
        let (binding, _) = figure3_inputs();
        let err = run_program(&p, &binding, &Inputs::new(), RunOptions::default());
        assert!(matches!(err, Err(RuntimeError::MissingInput(_))));
    }

    #[test]
    fn bad_shape_is_reported() {
        let (p, _) = figure3();
        let (binding, inputs) = figure3_inputs();
        let bad = inputs.global("w", Tensor::zeros([3, 3], DType::F16));
        let err = run_program(&p, &binding, &bad, RunOptions::default());
        assert!(matches!(err, Err(RuntimeError::BadInput { .. })));
    }

    #[test]
    fn indivisible_sliced_input_is_rejected_up_front() {
        // N = 5 over 2 ranks cannot be sliced: the runtime reports the
        // bind-time divisibility error instead of panicking a rank.
        let mut p = Program::new("odd");
        let x = p.input("x", DType::F32, ["N"], Layout::sliced(0));
        let s = p.slice(x); // placeholder op chain
        let _ = s;
        let two = p.constant(2.0);
        let y = p.mul(x, two).unwrap();
        p.set_io(&[x], &[y]).unwrap();
        let binding = Binding::new(2).bind("N", 5);
        let inputs = Inputs::new().global("x", Tensor::zeros([5], DType::F32));
        let err = run_program(&p, &binding, &inputs, RunOptions::default());
        assert!(
            matches!(
                err,
                Err(RuntimeError::Core(
                    coconet_core::CoreError::IndivisibleSize { .. }
                ))
            ),
            "got {err:?}"
        );
    }

    /// A `Slice` no unit claims is an addressing mode to kernels, but a
    /// collective, a reduction and the program's outputs need it as a
    /// tensor: it is materialized on demand, and everything agrees
    /// with the per-element oracle.
    #[test]
    fn an_unscheduled_slice_is_materialized_for_whoever_needs_a_tensor() {
        let mut p = Program::new("slices");
        let r = p.input("r", DType::F32, ["N"], Layout::Replicated);
        let s = p.slice(r).unwrap();
        p.set_name(s, "s").unwrap();
        let ag = p.all_gather(s).unwrap();
        p.set_name(ag, "ag").unwrap();
        let n = p.norm(s).unwrap();
        p.set_name(n, "n").unwrap();
        let two = p.constant(2.0);
        let doubled = p.mul(s, two).unwrap();
        p.set_name(doubled, "doubled").unwrap();
        p.set_io(&[r], &[s, ag, n, doubled]).unwrap();

        let binding = Binding::new(4).bind("N", 8);
        let r0 = Tensor::from_fn([8], DType::F32, |i| i as f32 - 3.5);
        let inputs = Inputs::new().global("r", r0.clone());
        let got = run_program(&p, &binding, &inputs, RunOptions::default()).unwrap();
        let want = run_program_per_element(&p, &binding, &inputs, RunOptions::default()).unwrap();
        for name in ["s", "ag", "n", "doubled"] {
            for rank in 0..4 {
                let (g, w) = (
                    got.local(rank, name).unwrap(),
                    want.local(rank, name).unwrap(),
                );
                assert_eq!(g.layout, w.layout, "{name}");
                assert_eq!(g.local, w.local, "{name} on rank {rank}");
            }
        }
        assert_eq!(got.global("ag").unwrap(), r0);
        // Two kernels ran: the norm over the materialized slice, and
        // `doubled`, which reads `r` through the slice (two elements a
        // rank).
        let kernels: Vec<(&str, u64, u64)> = got
            .kernels(0)
            .iter()
            .map(|k| (k.label.as_str(), k.bytes_loaded, k.bytes_stored))
            .collect();
        assert_eq!(kernels, vec![("n", 8, 4), ("doubled", 8, 8)]);
    }

    #[test]
    fn update_writes_back_and_norm_is_global() {
        // m_ = Update(m, m*2 + g_sum); n = Norm(rsSum) over slices.
        let mut p = Program::new("upd");
        let g = p.input("g", DType::F32, ["N"], Layout::Local);
        let m = p.input("m", DType::F32, ["N"], Layout::Replicated);
        let two = p.constant(2.0);
        let rs = p.reduce_scatter(ReduceOp::Sum, g).unwrap();
        let n = p.norm(rs).unwrap();
        p.set_name(n, "norm").unwrap();
        let dm = p.mul(m, two).unwrap();
        let upd = p.update(m, dm).unwrap();
        p.set_name(upd, "m_").unwrap();
        p.set_io(&[g, m], &[upd, n]).unwrap();

        let binding = Binding::new(4).bind("N", 8);
        let inputs = Inputs::new()
            .per_rank(
                "g",
                (0..4).map(|_| Tensor::full([8], DType::F32, 1.0)).collect(),
            )
            .global("m", Tensor::from_fn([8], DType::F32, |i| i as f32));
        let result = run_program(&p, &binding, &inputs, RunOptions::default()).unwrap();
        let m_ = result.global("m_").unwrap();
        assert_eq!(
            m_.to_f32_vec(),
            (0..8).map(|i| 2.0 * i as f32).collect::<Vec<_>>()
        );
        // Norm of the reduce-scattered g: each element is 4.0 summed
        // over ranks -> sqrt(8 * 16).
        let norm = result.global("norm").unwrap();
        assert!((norm.get(0) - (8.0f32 * 16.0).sqrt()).abs() < 1e-4);
    }
}
