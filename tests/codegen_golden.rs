//! Golden pin for the CUDA emitter (`core::codegen`): for every
//! `BlockSchedule` of the model-parallel self-attention block at
//! `examples/codegen_inspect.rs`'s binding, the generated file names,
//! per-file line counts, and a content hash of each file. The emitter
//! is text in, text out with no other test of *what* it emits; an
//! intended change to the generated code updates the table below
//! (run `cargo run --example codegen_inspect -- --dump` to read the
//! new output, and the failure message prints the new table).

use coconet::core::{generate_cuda, Binding};
use coconet::models::model_parallel::{apply_block_schedule, Block, BlockSchedule};

/// FNV-1a, 64-bit: dependency-free and stable across platforms.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(schedule label, [(file name, lines, fnv1a of the content)])`.
type Golden = (&'static str, &'static [(&'static str, usize, u64)]);

const GOLDEN: [Golden; 4] = [
    (
        "Megatron-LM",
        &[
            ("fused_compute_1006.cu", 10, 0x57987c5dc5492bd7),
            ("fused_compute_1007.cu", 9, 0x7015130f7c7f6235),
            ("fused_compute_1008.cu", 10, 0xc9a4380f720d9c9b),
            ("self_attention_host.cu", 10, 0x5c4ce3c472024685),
        ],
    ),
    (
        "MM-AR-C",
        &[
            ("fused_compute_0.cu", 13, 0x6d76c9d3a0425f9b),
            ("self_attention_host.cu", 8, 0x679842e130c0fafd),
        ],
    ),
    (
        "GShard-Eq (MM-RS-C-AG)",
        &[
            ("fused_compute_0.cu", 13, 0xc41aadbab06d9a30),
            ("self_attention_host.cu", 9, 0xec9e94cadf5b88e7),
        ],
    ),
    (
        "ol(MM,fuse(RS-C-AG))",
        &[
            ("overlapped_0.cu", 1047, 0x08315b60d9adbd72),
            ("self_attention_host.cu", 6, 0x03b3448c55a0d940),
        ],
    ),
];

#[test]
fn generated_cuda_matches_the_golden_table() {
    let binding = Binding::new(16)
        .bind("B", 8)
        .bind("S", 1024)
        .bind("H", 3072)
        .bind("H4", 4 * 3072);
    let mut actual = String::new();
    let mut matches = true;
    for (schedule, golden) in BlockSchedule::ALL.into_iter().zip(GOLDEN) {
        let (program, _, _) =
            apply_block_schedule(Block::SelfAttention, schedule).expect("schedule applies");
        let code = generate_cuda(&program, &binding).expect("codegen succeeds");
        let files: Vec<(&str, usize, u64)> = code
            .files
            .iter()
            .map(|(name, src)| (name.as_str(), src.lines().count(), fnv1a(src)))
            .collect();
        matches &= (schedule.label(), files.as_slice()) == golden;
        actual += &format!("    (\n        {:?},\n        &[\n", schedule.label());
        for (name, lines, hash) in &files {
            actual += &format!("            ({name:?}, {lines}, {hash:#018x}),\n");
        }
        actual += "        ],\n    ),\n";
    }
    assert!(
        matches,
        "generated CUDA changed; if intended, replace GOLDEN's rows with:\n{actual}"
    );
}
