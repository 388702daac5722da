//! **Top-k selection** via bitwise partial quickselect on SplitInd.
//!
//! Starting from the most significant bit of the (order-preserving
//! encoded) keys, each pass splits the current candidate range with the
//! mask "bit is 1" — the true partition holds the larger elements. If it
//! contains at least `k` elements the search recurses into it; otherwise
//! all of it is confirmed top-k and the search continues in the false
//! partition for the remaining `k - |true|` elements. After at most
//! `BITS` passes the first `k` elements of the working buffer are the
//! top-k (in selection order, not sorted — the PyTorch-compatible
//! wrapper can radix-sort the k survivors if sorted output is needed).
//!
//! The passes run on radix sort's pieces: the `RadixEncode` launch runs
//! the sort's per-lane encode and writes the most significant bit's
//! mask, each pass is one split launch (the mask counts, then a scatter
//! of the window that writes the next bit's mask alongside it,
//! ping-ponging two mask buffers), and the `RadixDecode` launch runs the
//! sort's per-lane decode on the `k` survivors. Unlike the sort, each
//! pass is its own launch: the host reads the split's true count to
//! choose the next window. Each scattered window is copied back into the
//! primary buffers, because the confirmed prefix outside the window must
//! stay intact: one pass is three launches.
//!
//! **Expectation management**: the paper reports a *negative* result —
//! this construction does not beat the baseline `top-k` operator for
//! small `k` (≤ 4096), because every pass re-reads the candidate range
//! and the first passes touch the whole input. The benchmark harness
//! reproduces that finding.

use crate::radix_sort::{decode_kernel, encode_kernel, plane_mask, SortOrder, PIECE_CAP};
use crate::split::{NextPlane, SplitStore};
use crate::{for_each_lane, ub_piece};
use ascend_sim::mem::GlobalMemory;
use ascend_sim::KernelReport;
use ascendc::vecops::Bits;
use ascendc::{launch, ChipSpec, GlobalTensor, ScratchpadKind, SimError, SimResult};
use dtypes::{Element, Numeric, RadixKey};
use scan::tile_spans;
use std::sync::Arc;

/// Result of [`topk`].
pub struct TopKRun<K: Element> {
    /// The k largest values (selection order, unsorted).
    pub values: GlobalTensor<K>,
    /// Original indices of the k values.
    pub indices: GlobalTensor<u32>,
    /// Combined execution report over all passes.
    pub report: KernelReport,
}

/// Selects the `k` largest elements of `x` (with original indices).
/// Every launch runs on all of the chip's AI cores.
pub fn topk<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<K>,
    k: usize,
) -> SimResult<TopKRun<K>>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    let n = x.len();
    if k == 0 || k > n {
        return Err(SimError::InvalidArgument(format!(
            "topk: k {k} out of range 1..={n}"
        )));
    }

    let keys_a = GlobalTensor::<K::Encoded>::new(gm, n)?;
    let keys_b = GlobalTensor::<K::Encoded>::new(gm, n)?;
    let idx_a = GlobalTensor::<u32>::new(gm, n)?;
    let idx_b = GlobalTensor::<u32>::new(gm, n)?;
    let mut mask_a = GlobalTensor::<u8>::new(gm, n)?;
    let mut mask_b = GlobalTensor::<u8>::new(gm, n)?;
    let mut reports = Vec::new();

    // Encode + index ramp + the "bit is 1" mask of the top bit.
    reports.push(encode_kernel::<K>(
        spec,
        gm,
        x,
        &keys_a,
        &idx_a,
        &mask_a,
        K::BITS - 1,
        SortOrder::Descending,
    )?);

    // Bitwise quickselect over a shrinking candidate window; `mask_a`
    // holds the current bit's mask, aligned with `keys_a`.
    let mut start = 0usize; // confirmed top elements live in [0, start)
    let mut len = n; // candidates live in [start, start + len)
    let mut need = k; // top elements still to confirm inside the window
    for bit in (0..K::BITS).rev() {
        if len == need {
            break;
        }
        let keys_in = keys_a.slice(start, len)?;
        let keys_out = keys_b.slice(start, len)?;
        let idx_in = idx_a.slice(start, len)?;
        let idx_out = idx_b.slice(start, len)?;
        let mask = mask_a.slice(start, len)?;
        let next_mask = mask_b.slice(start, len)?;
        // The next plane is computed whenever there is one: the split
        // only knows after the launch whether the search goes on.
        let (n_ones, pass) = SplitStore::<K::Encoded> {
            vals: &keys_in,
            idx_in: Some(&idx_in),
            mask: &mask,
            vals_out: &keys_out,
            idx_out: Some(&idx_out),
            false_side: true,
            next_plane: (bit > 0).then_some(NextPlane {
                out: &next_mask,
                compute: &move |vc, keys, mk, m| {
                    plane_mask(vc, keys, mk, m, bit - 1, SortOrder::Descending)
                },
            }),
        }
        .launch(spec, gm)?;
        reports.push(pass);
        if n_ones >= need {
            // All winners are inside the ones partition.
            len = n_ones;
        } else {
            // The whole ones partition is confirmed; keep selecting in
            // the zeros partition.
            start += n_ones;
            need -= n_ones;
            len -= n_ones;
        }
        reports.push(copy_window(spec, gm, &keys_out, &keys_in)?);
        reports.push(copy_window(spec, gm, &idx_out, &idx_in)?);
        std::mem::swap(&mut mask_a, &mut mask_b);
    }

    // The top-k now occupy [0, k) of the working buffers.
    let values = GlobalTensor::<K>::new(gm, k)?;
    let indices = GlobalTensor::<u32>::new(gm, k)?;
    reports.push(decode_kernel::<K>(spec, gm, &keys_a.slice(0, k)?, &values)?);
    reports.push(copy_window(spec, gm, &idx_a.slice(0, k)?, &indices)?);

    let mut report = KernelReport::sequential("TopK", &reports);
    report.elements = n as u64;
    report.useful_bytes = (n * K::SIZE + k * (K::SIZE + 4)) as u64;
    Ok(TopKRun {
        values,
        indices,
        report,
    })
}

/// Copies `src` into `dst` (the shorter length) through UB.
fn copy_window<E: Element>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    src: &GlobalTensor<E>,
    dst: &GlobalTensor<E>,
) -> SimResult<KernelReport> {
    let piece = ub_piece(spec, E::SIZE, PIECE_CAP);
    let spans = tile_spans(src.len().min(dst.len()), piece)?;
    launch(spec, gm, spec.ai_cores, "WindowCopy", |ctx| {
        for_each_lane(ctx, spans.iter(), |vc, _, mine| {
            let mut buf = vc.alloc_local::<E>(ScratchpadKind::Ub, piece)?;
            for &(off, valid) in mine {
                vc.copy_in(&mut buf, 0, src, off, valid, &[])?;
                vc.copy_out(dst, off, &buf, 0, valid, &[])?;
            }
            vc.free_local(buf)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix_sort::tests::{bytes, int_specials, keys, setup, F16_SPECIALS, F32_SPECIALS};
    use crate::split;
    use dtypes::F16;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Ordering;

    fn check_topk_u16(data: &[u16], k: usize) {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, data).unwrap();
        let run = topk(&spec, &gm, &x, k).unwrap();
        let mut got = run.values.to_vec();
        got.sort_unstable_by(|a, b| b.cmp(a));
        let mut expect = data.to_vec();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        expect.truncate(k);
        assert_eq!(got, expect, "k = {k}, n = {}", data.len());
        // Indices point back at the selected values.
        let idx = run.indices.to_vec();
        let vals = run.values.to_vec();
        for (v, &i) in vals.iter().zip(&idx) {
            assert_eq!(data[i as usize], *v);
        }
    }

    #[test]
    fn selects_correct_set_random() {
        let mut rng = StdRng::seed_from_u64(11);
        let data: Vec<u16> = (0..3000).map(|_| rng.gen()).collect();
        for k in [1usize, 5, 64, 1000, 2999] {
            check_topk_u16(&data, k);
        }
    }

    #[test]
    fn handles_duplicates() {
        let data: Vec<u16> = (0..1000).map(|i| (i % 10) as u16).collect();
        check_topk_u16(&data, 150);
    }

    #[test]
    fn k_equals_n() {
        let data: Vec<u16> = (0..100).collect();
        check_topk_u16(&data, 100);
    }

    #[test]
    fn f16_topk_with_negatives() {
        let (spec, gm) = setup();
        let mut rng = StdRng::seed_from_u64(12);
        let data: Vec<F16> = (0..800)
            .map(|_| F16::from_f32(rng.gen_range(-50.0f32..50.0)))
            .collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = topk(&spec, &gm, &x, 10).unwrap();
        let mut got: Vec<u16> = run.values.to_vec().iter().map(|v| v.encode()).collect();
        got.sort_unstable_by(|a, b| b.cmp(a));
        let mut expect: Vec<u16> = data.iter().map(|v| v.encode()).collect();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        expect.truncate(10);
        assert_eq!(got, expect);
    }

    #[test]
    fn rejects_bad_k() {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let x = GlobalTensor::from_slice(&gm, &[1u16, 2, 3]).unwrap();
        assert!(topk(&spec, &gm, &x, 0).is_err());
        assert!(topk(&spec, &gm, &x, 4).is_err());
    }

    /// Selects `k ∈ {1, n/2, n}` from keys of every length around a
    /// split piece at the end of the first chunk on one AI core and
    /// checks the result against the host: the same multiset of bit
    /// patterns as the top `k` under `cmp`, each index pointing at its
    /// value, and no index twice.
    fn check_topk<K>(
        seed: u64,
        specials: &[u64],
        cmp: fn(&K, &K) -> Ordering,
    ) -> Result<(), TestCaseError>
    where
        K: RadixKey + Element,
        K::Encoded: Element + Bits + Numeric,
    {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let per_elem = split::piece_bytes(std::mem::size_of::<K::Encoded>(), 1, true, true, true);
        let p = split::tests::store_piece(&spec, per_elem);
        let mut rng = StdRng::seed_from_u64(seed);
        for n in [2 * p - 1, 2 * p, 2 * p + 1] {
            let data = keys::<K>(&mut rng, n, specials);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let mut expect = data.clone();
            expect.sort_by(|a, b| cmp(b, a));
            for k in [1, (n / 2).max(1), n] {
                let run = topk(&spec, &gm, &x, k).unwrap();
                let vals = run.values.to_vec();
                let idx = run.indices.to_vec();
                let mut got = vals.clone();
                got.sort_by(|a, b| cmp(b, a));
                prop_assert_eq!(bytes(&got), bytes(&expect[..k]), "n = {}, k = {}", n, k);
                let picked: Vec<K> = idx.iter().map(|&i| data[i as usize]).collect();
                prop_assert_eq!(bytes(&picked), bytes(&vals), "n = {}, k = {}", n, k);
                let mut distinct = idx.clone();
                distinct.sort_unstable();
                distinct.dedup();
                prop_assert_eq!(distinct.len(), k, "n = {}, k = {}", n, k);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        #[test]
        fn fused_topk_matches_host_selection(seed in any::<u64>()) {
            check_topk::<u8>(seed, &int_specials(1), u8::cmp)?;
            check_topk::<i8>(seed, &int_specials(1), i8::cmp)?;
            check_topk::<u16>(seed, &int_specials(2), u16::cmp)?;
            check_topk::<i16>(seed, &int_specials(2), i16::cmp)?;
            check_topk::<F16>(seed, &F16_SPECIALS, F16::total_cmp)?;
            check_topk::<u32>(seed, &int_specials(4), u32::cmp)?;
            check_topk::<i32>(seed, &int_specials(4), i32::cmp)?;
            check_topk::<f32>(seed, &F32_SPECIALS, f32::total_cmp)?;
        }
    }
}
