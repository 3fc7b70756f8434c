//! Pipeline-parallel transformer layers (§4, Figure 8; §6.3).
//!
//! Megatron-LM assigns consecutive transformer layers to groups of
//! ranks; within a group, model parallelism produces a replicated
//! activation via AllReduce, the pointwise epilogue runs, and the
//! result is P2P-sent to the corresponding rank of the next group.
//! Because the AllReduce output is replicated, the baseline sends the
//! *same* data `group_size` times over the inter-node fabric — the
//! redundancy CoCoNet's sliced P2P eliminates (Figure 7).

use coconet_core::xform::{fuse_send, overlap, reorder_all_gather, split_all_reduce};
use coconet_core::{
    lower, Binding, CollAlgo, CommConfig, CoreError, DType, Layout, PeerSelector, Program,
    Protocol, ReduceOp, VarId, WireFormat,
};
use coconet_sim::Simulator;
use coconet_topology::MachineSpec;

use crate::ModelConfig;

/// Handles into a pipeline-parallel transformer program.
#[derive(Clone, Debug)]
pub struct PipelineVars {
    /// The intra-group AllReduce.
    pub sum: VarId,
    /// The pointwise epilogue.
    pub comps: Vec<VarId>,
    /// The P2P send to the next group.
    pub send: VarId,
}

/// Builds the Figure 8a program: `sum = AllReduce(in); send =
/// Dropout(sum + b) + r; output = Send(send, GroupRank(GROUP+1, RANK))`.
///
/// # Errors
///
/// Propagates builder errors (none occur for the fixed shape).
pub fn pipeline_program() -> Result<(Program, PipelineVars), CoreError> {
    let mut p = Program::new("transformer");
    let input = p.input("in", DType::F16, ["B", "S", "H"], Layout::Local);
    let b = p.input("b", DType::F16, ["H"], Layout::Replicated);
    let r = p.input("r", DType::F16, ["B", "S", "H"], Layout::Replicated);
    let sum = p.all_reduce(ReduceOp::Sum, input)?;
    p.set_name(sum, "sum")?;
    let biased = p.add(sum, b)?;
    let d = p.dropout(biased, 0.1)?;
    let send_val = p.add(d, r)?;
    p.set_name(send_val, "send")?;
    let output = p.send(send_val, PeerSelector::NextGroupSameRank)?;
    p.set_name(output, "output")?;
    p.set_io(&[input, b, r], &[output])?;
    Ok((
        p,
        PipelineVars {
            sum,
            comps: vec![biased, d, send_val],
            send: output,
        },
    ))
}

/// The §6.3.1 schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineSchedule {
    /// Megatron-LM baseline: AllReduce, pointwise kernels, replicated
    /// P2P (every rank sends the full tensor).
    Megatron,
    /// `AR-C-P2P-AG`: keep the AllReduce but slice the computations and
    /// P2P, gathering on the next group.
    ArCP2pAg,
    /// GShard-Eq / `RS-C-P2P-AG`: split the AllReduce too.
    RsCP2pAg,
    /// `ol(RS, fuse(C-P2P), AG)`: fused sliced send overlapped with the
    /// ReduceScatter and the next group's AllGather (Figure 7b).
    Overlap,
}

impl PipelineSchedule {
    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            PipelineSchedule::Megatron => "Megatron-LM",
            PipelineSchedule::ArCP2pAg => "AR-C-P2P-AG",
            PipelineSchedule::RsCP2pAg => "GShard-Eq (RS-C-P2P-AG)",
            PipelineSchedule::Overlap => "ol(RS,fuse(C-P2P),AG)",
        }
    }

    /// All schedules in presentation order (Figure 12).
    pub const ALL: [PipelineSchedule; 4] = [
        PipelineSchedule::Megatron,
        PipelineSchedule::ArCP2pAg,
        PipelineSchedule::RsCP2pAg,
        PipelineSchedule::Overlap,
    ];
}

/// Builds the pipeline program under a schedule. Returns the program,
/// the transformation log, and the output variable name (on the next
/// group).
///
/// # Errors
///
/// Propagates transformation errors (none occur for these programs).
pub fn apply_pipeline_schedule(
    schedule: PipelineSchedule,
) -> Result<(Program, Vec<String>, String), CoreError> {
    let mut log = Vec::new();
    match schedule {
        PipelineSchedule::Megatron => {
            let (p, _) = pipeline_program()?;
            Ok((p, log, "output".to_string()))
        }
        PipelineSchedule::ArCP2pAg => {
            // Written directly as a standalone program (the paper:
            // "slicing the output of AllReduce to perform sliced P2P
            // sends and computations, and finally an AllGather").
            let mut p = Program::new("transformer");
            let input = p.input("in", DType::F16, ["B", "S", "H"], Layout::Local);
            let b = p.input("b", DType::F16, ["H"], Layout::Replicated);
            let r = p.input("r", DType::F16, ["B", "S", "H"], Layout::Replicated);
            let sum = p.all_reduce(ReduceOp::Sum, input)?;
            p.set_name(sum, "sum")?;
            let sl = p.slice(sum)?;
            p.set_name(sl, "slSum")?;
            let biased = p.add(sl, b)?;
            let d = p.dropout(biased, 0.1)?;
            let r_sliced = p.slice(r)?;
            p.set_name(r_sliced, "slr")?;
            let send_val = p.add(d, r_sliced)?;
            p.set_name(send_val, "scSend")?;
            let sent = p.send(send_val, PeerSelector::NextGroupSameRank)?;
            let out = p.all_gather(sent)?;
            p.set_name(out, "agOut")?;
            p.set_io(&[input, b, r], &[out])?;
            fuse_send(&mut p, &[biased, d, send_val], sent)?;
            log.push("fuseSend = fuse(comps, send, SendFuse)".to_string());
            p.validate()?;
            Ok((p, log, "agOut".to_string()))
        }
        PipelineSchedule::RsCP2pAg | PipelineSchedule::Overlap => {
            let (mut p, vars) = pipeline_program()?;
            let (rs, ag) = split_all_reduce(&mut p, vars.sum)?;
            log.push("(rsSum, agSum) = split(sum, ARSplitRSAG)".to_string());
            // Reorder the AllGather past the computations *and* the
            // send: the gather lands on the next group.
            let mut region = vars.comps.clone();
            region.push(vars.send);
            let result = reorder_all_gather(&mut p, ag, &region)?;
            log.push("(scSend, agOut) = reorder(fuseSend, agSum, AGReorder)".to_string());
            let new_ag = result.gathers[0].1;
            let out_name = p.node(new_ag)?.name().to_string();
            fuse_send(&mut p, &vars.comps, vars.send)?;
            log.push("fuseSend = fuse(send, output, SendFuse)".to_string());
            if schedule == PipelineSchedule::Overlap {
                overlap(&mut p, &[rs, vars.send, new_ag])?;
                log.push("overlapOut = overlap(rsSum, scSend, agOut)".to_string());
            }
            p.validate()?;
            Ok((p, log, out_name))
        }
    }
}

/// The pipeline-parallel epilogue time of one layer boundary under a
/// schedule (Figure 12's standalone measurement).
pub fn pipeline_epilogue_time(
    cfg: &ModelConfig,
    batch: usize,
    group_size: usize,
    num_groups: usize,
    schedule: PipelineSchedule,
) -> f64 {
    let sim = Simulator::new(
        MachineSpec::dgx2_cluster(num_groups.max(2)),
        group_size,
        num_groups,
    );
    let config = CommConfig {
        algo: CollAlgo::Ring,
        protocol: Protocol::Simple,
        channels: 16,
        format: WireFormat::Dense,
        ..CommConfig::default()
    };
    let binding = Binding::new(group_size)
        .with_groups(num_groups)
        .bind("B", batch as u64)
        .bind("S", cfg.seq as u64)
        .bind("H", cfg.hidden as u64);
    let (p, _, _) = apply_pipeline_schedule(schedule).expect("fixed schedule");
    let plan = lower(&p, &binding, config).expect("lowers");
    sim.time_plan(&plan).total
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconet_core::Step;
    use coconet_runtime::{run_program, Inputs, RunOptions};
    use coconet_tensor::{CounterRng, Tensor};

    fn binding() -> Binding {
        Binding::new(4)
            .with_groups(2)
            .bind("B", 2)
            .bind("S", 4)
            .bind("H", 8)
    }

    fn inputs(binding: &Binding) -> Inputs {
        let rng = CounterRng::new(77);
        let world = binding.world_size();
        Inputs::new()
            .per_rank(
                "in",
                (0..world)
                    .map(|r| Tensor::randn([2, 4, 8], DType::F16, rng, (r * 1000) as u64))
                    .collect(),
            )
            .global("b", Tensor::randn([8], DType::F16, rng, 500_000))
            .global("r", Tensor::randn([2, 4, 8], DType::F16, rng, 600_000))
    }

    #[test]
    fn all_schedules_deliver_identical_data_to_next_group() {
        let binding = binding();
        let inputs = inputs(&binding);
        let opts = RunOptions::default().with_seed(3);
        let (base, _, base_out) = apply_pipeline_schedule(PipelineSchedule::Megatron).unwrap();
        let reference = run_program(&base, &binding, &inputs, opts)
            .unwrap()
            .global(&base_out)
            .unwrap();
        assert_eq!(reference.shape().dims(), &[2, 4, 8]);

        for schedule in PipelineSchedule::ALL {
            let (p, _, out_name) = apply_pipeline_schedule(schedule).unwrap();
            let got = run_program(&p, &binding, &inputs, opts)
                .unwrap()
                .global(&out_name)
                .unwrap();
            let diff = got.max_abs_diff(&reference);
            assert!(diff < 2e-2, "{} differs by {diff}", schedule.label());
        }
    }

    #[test]
    fn sliced_schedules_send_a_fraction_of_the_data() {
        let b = Binding::new(16)
            .with_groups(2)
            .bind("B", 8)
            .bind("S", 2048)
            .bind("H", 12288);
        let full: u64 = 8 * 2048 * 12288;
        // Megatron: replicated send of the full tensor per rank.
        let (p, _, _) = apply_pipeline_schedule(PipelineSchedule::Megatron).unwrap();
        let plan = coconet_core::lower(&p, &b, CommConfig::default()).unwrap();
        let megatron_sent = plan
            .steps
            .iter()
            .find_map(|s| match s {
                Step::SendRecv(sr) => Some(sr.elems_per_rank),
                _ => None,
            })
            .unwrap();
        assert_eq!(megatron_sent, full);
        // GShard-Eq: each rank sends 1/16.
        let (p, _, _) = apply_pipeline_schedule(PipelineSchedule::RsCP2pAg).unwrap();
        let plan = coconet_core::lower(&p, &b, CommConfig::default()).unwrap();
        let sliced_sent = plan
            .steps
            .iter()
            .find_map(|s| match s {
                Step::SendRecv(sr) => Some(sr.elems_per_rank),
                _ => None,
            })
            .unwrap();
        assert_eq!(sliced_sent, full / 16);
    }

    #[test]
    fn overlap_schedule_lowers_to_three_stage_pipeline() {
        let b = Binding::new(16)
            .with_groups(2)
            .bind("B", 2)
            .bind("S", 2048)
            .bind("H", 12288);
        let (p, _, _) = apply_pipeline_schedule(PipelineSchedule::Overlap).unwrap();
        let plan = coconet_core::lower(&p, &b, CommConfig::default()).unwrap();
        assert_eq!(plan.steps.len(), 1);
        if let Step::Overlapped(ol) = &plan.steps[0] {
            assert_eq!(ol.stages.len(), 3, "RS, fused P2P, AG (Figure 7b)");
        } else {
            panic!("expected overlapped step");
        }
    }

    #[test]
    fn standalone_pipeline_ordering_matches_figure12() {
        let cfg = ModelConfig::gpt3_175b();
        let t = |s| pipeline_epilogue_time(&cfg, 2, 16, 16, s);
        let megatron = t(PipelineSchedule::Megatron);
        let ar_c = t(PipelineSchedule::ArCP2pAg);
        let gshard = t(PipelineSchedule::RsCP2pAg);
        let overlap = t(PipelineSchedule::Overlap);
        assert!(ar_c < megatron);
        assert!(gshard < ar_c);
        assert!(overlap < gshard);
        // Figure 12: 4.2x / 7.1x / 11.8-12.2x bands (we accept the
        // same ordering at comparable magnitudes).
        let s1 = megatron / ar_c;
        let s2 = megatron / gshard;
        let s3 = megatron / overlap;
        assert!((2.5..8.0).contains(&s1), "AR-C-P2P-AG {s1}");
        assert!((4.0..11.0).contains(&s2), "GShard {s2}");
        assert!((7.0..18.0).contains(&s3), "overlap {s3}");
    }
}
