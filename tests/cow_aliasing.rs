//! Property-based tests for the copy-on-write aliasing semantics of
//! the tensor substrate.
//!
//! The invariant every mutating operation must uphold: after cloning a
//! tensor (or taking a flat view of it), mutating one handle through
//! *any* write path leaves every other handle bit-identical to its
//! pre-mutation contents. The runtime's zero-copy sends and in-place
//! collectives are only sound because aliasing is never observable —
//! this suite machine-checks that across dtypes, shapes, view windows,
//! and every mutating operation the crate exposes.

use coconet::tensor::{DType, ReduceOp, Tensor};
use proptest::prelude::*;

/// Every in-place mutation path of `Tensor`.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    Set,
    Update,
    Assign,
    WriteFlat,
    ReduceAssign,
    ReduceFlat,
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        Just(Mutation::Set),
        Just(Mutation::Update),
        Just(Mutation::Assign),
        Just(Mutation::WriteFlat),
        Just(Mutation::ReduceAssign),
        Just(Mutation::ReduceFlat),
    ]
}

fn arb_dtype() -> impl Strategy<Value = DType> {
    prop_oneof![Just(DType::F32), Just(DType::F16)]
}

/// Applies one mutation to `t`, with `seed` varying the written values.
fn mutate(t: &mut Tensor, m: Mutation, seed: u64) {
    let n = t.numel();
    let dtype = t.dtype();
    match m {
        Mutation::Set => t.set(seed as usize % n, 1.0 + (seed % 13) as f32),
        Mutation::Update => t.update(|x| x * 2.0 + seed as f32),
        Mutation::Assign => {
            let other = Tensor::from_fn(t.shape().clone(), dtype, |i| (i as u64 + seed) as f32);
            t.assign(&other).expect("same shape");
        }
        Mutation::WriteFlat => {
            let len = 1 + seed as usize % n;
            let src = Tensor::full([len], dtype, -3.0 - (seed % 7) as f32);
            let start = (seed as usize / 2) % (n - len + 1);
            t.write_flat(start, &src).expect("in range");
        }
        Mutation::ReduceAssign => {
            let inc = Tensor::from_fn(t.shape().clone(), dtype, |i| (i % 5) as f32 + seed as f32);
            let view = inc.slice_flat(0, n).expect("full view");
            t.reduce_assign(&view, ReduceOp::Sum).expect("same numel");
        }
        Mutation::ReduceFlat => {
            let len = 1 + seed as usize % n;
            let inc = Tensor::full([len], dtype, 10.0 + (seed % 3) as f32);
            let start = (seed as usize / 3) % (n - len + 1);
            t.reduce_flat(start, &inc, ReduceOp::Max).expect("in range");
        }
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    (0..t.numel()).map(|i| t.get(i).to_bits()).collect()
}

proptest! {
    /// Clone a tensor, mutate one copy through every mutating op in a
    /// random order: the other copy stays bit-identical throughout.
    #[test]
    fn clone_is_isolated_from_every_mutation(
        n in 1usize..64,
        dtype in arb_dtype(),
        seed in any::<u64>(),
        order in prop::collection::vec(arb_mutation(), 1..7),
    ) {
        let original = Tensor::from_fn([n], dtype, |i| i as f32 * 0.5 - 3.0);
        let frozen = bits(&original);
        let mut working = original.clone();
        for (step, m) in order.into_iter().enumerate() {
            mutate(&mut working, m, seed.wrapping_add(step as u64));
            prop_assert_eq!(
                bits(&original),
                frozen.clone(),
                "{m:?} leaked through the clone"
            );
        }
    }

    /// The same isolation holds for sliced views, in both directions:
    /// mutating a view never changes the parent, and mutating the
    /// parent never changes a previously taken view.
    #[test]
    fn views_are_isolated_in_both_directions(
        n in 2usize..64,
        dtype in arb_dtype(),
        seed in any::<u64>(),
        m in arb_mutation(),
    ) {
        let parent = Tensor::from_fn([n], dtype, |i| (i * i) as f32);
        let start = seed as usize % (n - 1);
        let len = 1 + seed as usize % (n - start);
        let view = parent.slice_flat(start, len).expect("in range");
        let parent_bits = bits(&parent);
        let view_bits = bits(&view);

        // Mutate a copy of the view: the parent must not move.
        let mut view_copy = view.clone();
        mutate(&mut view_copy, m, seed);
        prop_assert_eq!(bits(&parent), parent_bits.clone());
        prop_assert_eq!(bits(&view), view_bits.clone());

        // Mutate a copy of the parent: the view must not move.
        let mut parent_copy = parent.clone();
        mutate(&mut parent_copy, m, seed ^ 0xABCD);
        prop_assert_eq!(bits(&view), view_bits.clone());
        prop_assert_eq!(bits(&parent), parent_bits.clone());
    }

    /// Mutating through an alias produces exactly the same values as
    /// mutating a deep copy — copy-on-write changes *when* buffers
    /// materialize, never what the mutation computes.
    #[test]
    fn cow_mutation_equals_deep_mutation(
        n in 1usize..64,
        dtype in arb_dtype(),
        seed in any::<u64>(),
        m in arb_mutation(),
    ) {
        let original = Tensor::from_fn([n], dtype, |i| i as f32 + 0.25);
        let mut shared = original.clone(); // COW path
        let mut deep = original.deep_clone(); // private path
        mutate(&mut shared, m, seed);
        mutate(&mut deep, m, seed);
        prop_assert_eq!(bits(&shared), bits(&deep));
    }

    /// Concatenating adjacent views of one buffer, in order, rejoins them
    /// as a view of that buffer — it shares storage, yet a write to
    /// either side never shows through the other. Parts out of order, or
    /// with a gap between them, are copied.
    #[test]
    fn concat_of_adjacent_views_is_an_isolated_view(
        n in 3usize..64,
        dtype in arb_dtype(),
        seed in any::<u64>(),
        cuts in prop::collection::vec(0usize..64, 2..6),
        m in arb_mutation(),
    ) {
        let mut source = Tensor::from_fn([n], dtype, |i| i as f32 * 0.75 - 5.0);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (n + 1)).collect();
        cuts.sort_unstable();
        let (lo, hi) = (cuts[0], cuts[cuts.len() - 1]);
        prop_assume!(hi > lo);
        let parts: Vec<Tensor> = cuts
            .windows(2)
            .map(|w| source.slice_flat(w[0], w[1] - w[0]).expect("in range"))
            .collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        let rejoin = || Tensor::concat(&refs, 0).expect("one dtype");

        let mut joined = rejoin();
        prop_assert!(joined.shares_storage(&source));
        let joined_bits = bits(&joined);
        prop_assert_eq!(joined_bits.clone(), bits(&source.slice_flat(lo, hi - lo).unwrap()));

        // Write the rejoined view: the source and every part keep theirs.
        let (source_bits, part_bits): (_, Vec<_>) = (bits(&source), parts.iter().map(bits).collect());
        mutate(&mut joined, m, seed);
        prop_assert_eq!(bits(&source), source_bits);
        prop_assert_eq!(parts.iter().map(bits).collect::<Vec<_>>(), part_bits);

        // Write the source: a rejoined view keeps its values.
        let joined = rejoin();
        mutate(&mut source, m, seed ^ 0x5A5A);
        prop_assert_eq!(bits(&joined), joined_bits);

        // Out of order, or with a gap: a copy with the parts' values.
        let reversed: Vec<&Tensor> = refs.iter().rev().copied().filter(|p| p.numel() > 0).collect();
        let (first, third) = (source.slice_flat(0, 1).unwrap(), source.slice_flat(2, 1).unwrap());
        let gapped = [&first, &third];
        for (copied_parts, alias) in [(reversed.as_slice(), &joined), (&gapped[..], &source)] {
            if copied_parts.len() < 2 {
                continue;
            }
            let copied = Tensor::concat(copied_parts, 0).expect("one dtype");
            prop_assert!(!copied.shares_storage(alias));
            let want: Vec<u32> = copied_parts.iter().flat_map(|p| bits(p)).collect();
            prop_assert_eq!(bits(&copied), want);
        }
    }

    /// Multi-way aliasing: several views over one buffer, one of them
    /// mutated — all others (and the parent) keep their contents.
    #[test]
    fn sibling_views_survive_a_mutation(
        half in 1usize..16,
        dtype in arb_dtype(),
        seed in any::<u64>(),
        m in arb_mutation(),
    ) {
        let n = half * 2;
        let parent = Tensor::from_fn([n], dtype, |i| i as f32);
        let mut left = parent.slice_flat(0, half).expect("in range");
        let right = parent.slice_flat(half, half).expect("in range");
        let right_bits = bits(&right);
        let parent_bits = bits(&parent);
        mutate(&mut left, m, seed);
        prop_assert_eq!(bits(&right), right_bits.clone());
        prop_assert_eq!(bits(&parent), parent_bits.clone());
    }
}
