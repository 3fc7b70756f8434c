//! Shared by the integration suites: the bit-for-bit comparison of the
//! schedule executor against the per-element oracle.

use coconet::core::{Binding, Program};
use coconet::runtime::{run_program, run_program_per_element, Inputs, RunOptions};

/// Runs `program` through `run_program` (the schedule, on the block
/// evaluator) and through the per-element oracle, and requires every
/// output on every rank to agree in presence, layout, dtype, shape and
/// every bit.
pub fn assert_matches_oracle(
    what: &str,
    program: &Program,
    binding: &Binding,
    inputs: &Inputs,
    opts: RunOptions,
) {
    let got = run_program(program, binding, inputs, opts)
        .unwrap_or_else(|e| panic!("{what}: run_program: {e}"));
    let want = run_program_per_element(program, binding, inputs, opts)
        .unwrap_or_else(|e| panic!("{what}: oracle: {e}"));
    for &out in program.outputs() {
        let name = program.node(out).expect("live output").name();
        for rank in 0..binding.world_size() {
            let (g, w) = (got.local(rank, name), want.local(rank, name));
            let (Some(g), Some(w)) = (g, w) else {
                assert_eq!(
                    g.is_some(),
                    w.is_some(),
                    "{what}: `{name}` present on rank {rank}"
                );
                continue;
            };
            assert_eq!(g.layout, w.layout, "{what}: `{name}` layout");
            assert_eq!(g.local.dtype(), w.local.dtype(), "{what}: `{name}` dtype");
            assert_eq!(g.local.shape(), w.local.shape(), "{what}: `{name}` shape");
            for i in 0..w.local.numel() {
                assert_eq!(
                    g.local.get(i).to_bits(),
                    w.local.get(i).to_bits(),
                    "{what}: `{name}` rank {rank} element {i}: {} vs oracle {}",
                    g.local.get(i),
                    w.local.get(i)
                );
            }
        }
    }
}
