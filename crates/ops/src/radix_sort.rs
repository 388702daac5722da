//! LSB **radix sort** on top of SplitInd — the paper's §5 "Radix sort".
//!
//! The sort loops over the bits of the (order-preserving encoded) keys,
//! least significant first, and performs one stable [`split`] per bit
//! with the mask "bit is 0" (ascending). Each split is one launch: an
//! exclusive int8 MCScan — running on the cube units — whose phase II
//! gives each vector core a range of `⌈rows / cores⌉` rows and scatters
//! each of its segments straight from UB, so even a vocabulary-sized
//! pass of a few tiles scatters on (nearly) all vector cores.
//!
//! The paper extracts each pass's radix in a separate RadixSingle
//! kernel (`ShiftRight`/`And`/`Compare`) and scatters in a kernel of its
//! own. Here those instructions run inside kernels that already hold
//! the keys in UB: the encode kernel writes the bit-0 mask, and each
//! pass's scatter writes the mask for the next bit, permuted alongside
//! the keys. An fp16 sort is therefore 18 launches (encode, 16 fused
//! splits, decode), not 50; it still has the paper's 16 `SyncAll`s.
//!
//! Floats are supported through the pre-/post-processing encode passes
//! (invert the MSB of non-negatives, all bits of negatives — Knuth
//! §5.2.5 ex. 8–9 / the CM-2 paper the authors cite): an unsigned radix
//! sort of the encoded keys orders the originals correctly, including
//! -0.0 < +0.0 and NaNs above +∞.
//!
//! Output indices are permuted alongside the keys on every pass, the
//! last pass writing them straight into the result, so the result
//! matches the PyTorch `sort()` API (values and `argsort`).
//!
//! [`split`]: crate::split::split_ind

use crate::for_each_lane;
use crate::split::{NextPlane, SplitStore};
use ascend_sim::mem::GlobalMemory;
use ascend_sim::KernelReport;
use ascendc::vecops::Bits;
use ascendc::{
    launch, ChipSpec, CmpMode, Core, GlobalTensor, LocalTensor, ScratchpadKind, SimResult,
};
use dtypes::{Element, Numeric, RadixKey};
use scan::tile_spans;
use std::sync::Arc;

/// Sort direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortOrder {
    /// Smallest first.
    Ascending,
    /// Largest first (what top-p sampling needs).
    Descending,
}

/// Result of [`radix_sort`].
pub struct SortRun<K: Element> {
    /// The sorted values.
    pub values: GlobalTensor<K>,
    /// `argsort`: original index of each output element.
    pub indices: GlobalTensor<u32>,
    /// Combined execution report over all passes.
    pub report: KernelReport,
}

/// Elements per piece in the codec kernels.
pub(crate) const PIECE_CAP: usize = 2048;

/// Stable radix sort of `x` (values + original indices), using the
/// MCScan-based split for every bit plane.
///
/// `s` is the tile dimension of the split launches. Every launch runs on
/// all of the chip's AI cores.
pub fn radix_sort<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<K>,
    s: usize,
    order: SortOrder,
) -> SimResult<SortRun<K>>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    let n = x.len();
    let values = GlobalTensor::<K>::new(gm, n)?;
    let indices = GlobalTensor::<u32>::new(gm, n)?;
    if n == 0 {
        return Ok(SortRun {
            values,
            indices,
            report: crate::empty_report(spec, "RadixSort"),
        });
    }

    let mut keys_a = GlobalTensor::<K::Encoded>::new(gm, n)?;
    let mut keys_b = GlobalTensor::<K::Encoded>::new(gm, n)?;
    let mut idx_a = GlobalTensor::<u32>::new(gm, n)?;
    let mut idx_b = GlobalTensor::<u32>::new(gm, n)?;
    let mut mask_a = GlobalTensor::<u8>::new(gm, n)?;
    let mut mask_b = GlobalTensor::<u8>::new(gm, n)?;
    let mut reports = Vec::with_capacity(2 + K::BITS as usize);

    // --- Pre-processing: encode keys, materialize indices, bit-0 mask. ---
    reports.push(encode_kernel::<K>(
        spec, gm, x, &keys_a, &idx_a, &mask_a, 0, order,
    )?);

    // --- One split per bit plane; each scatter emits the next mask. ---
    for bit in 0..K::BITS {
        let last = bit + 1 == K::BITS;
        let (_, pass) = SplitStore::<K::Encoded> {
            vals: &keys_a,
            idx_in: Some(&idx_a),
            mask: &mask_a,
            vals_out: &keys_b,
            idx_out: Some(if last { &indices } else { &idx_b }),
            false_side: true,
            next_plane: (!last).then_some(NextPlane {
                out: &mask_b,
                compute: &move |vc, keys, mk, len| plane_mask(vc, keys, mk, len, bit + 1, order),
            }),
        }
        .launch(spec, gm, s)?;
        reports.push(pass);
        std::mem::swap(&mut keys_a, &mut keys_b);
        std::mem::swap(&mut idx_a, &mut idx_b);
        std::mem::swap(&mut mask_a, &mut mask_b);
    }

    // --- Post-processing: decode keys back to values. ---
    reports.push(decode_kernel::<K>(spec, gm, &keys_a, &values)?);

    let mut report = KernelReport::sequential("RadixSort", &reports);
    report.elements = n as u64;
    report.useful_bytes = (n * K::SIZE + n * (K::SIZE + 4)) as u64;
    Ok(SortRun {
        values,
        indices,
        report,
    })
}

/// Pre-processing kernel: order-preserving encode + index ramp + the
/// split mask of bit plane `bit` (bit 0 for the sort's first pass, the
/// most significant bit for top-k's).
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_kernel<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<K>,
    keys: &GlobalTensor<K::Encoded>,
    idx: &GlobalTensor<u32>,
    mask: &GlobalTensor<u8>,
    bit: u32,
    order: SortOrder,
) -> SimResult<KernelReport>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    let piece = crate::ub_piece(
        spec,
        K::SIZE + std::mem::size_of::<K::Encoded>() + 4 + 1,
        PIECE_CAP,
    );
    let spans = tile_spans(x.len(), piece);
    launch(spec, gm, spec.ai_cores, "RadixEncode", |ctx| {
        for_each_lane(ctx, spans.iter(), |vc, _, mine| {
            let mut raw = vc.alloc_local::<K>(ScratchpadKind::Ub, piece)?;
            let mut enc = vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, piece)?;
            let mut ramp = vc.alloc_local::<u32>(ScratchpadKind::Ub, piece)?;
            let mut mk = vc.alloc_local::<u8>(ScratchpadKind::Ub, piece)?;
            for &(off, valid) in mine {
                vc.copy_in(&mut raw, 0, x, off, valid, &[])?;
                vc.vradix_encode::<K>(&mut enc, &raw, 0, valid)?;
                vc.copy_out(keys, off, &enc, 0, valid, &[])?;
                vc.viota(&mut ramp, 0, valid, off as u32)?;
                vc.copy_out(idx, off, &ramp, 0, valid, &[])?;
                plane_mask(vc, &mut enc, &mut mk, valid, bit, order)?;
                vc.copy_out(mask, off, &mk, 0, valid, &[])?;
            }
            vc.free_local(raw)?;
            vc.free_local(enc)?;
            vc.free_local(ramp)?;
            vc.free_local(mk)
        })
    })
}

/// Writes the split mask of bit `bit` of `keys[..len]` into `mask`
/// (`ShiftRight` + `And` + `Compare`), clobbering `keys`. Ascending
/// sorts put zero bits first, descending sorts one bits.
pub(crate) fn plane_mask<T: Bits + Numeric>(
    vc: &mut Core<'_>,
    keys: &mut LocalTensor<T>,
    mask: &mut LocalTensor<u8>,
    len: usize,
    bit: u32,
    order: SortOrder,
) -> SimResult<()> {
    if bit > 0 {
        vc.vshr(keys, 0, len, bit)?;
    }
    vc.vand_scalar(keys, 0, len, T::one())?;
    let mode = match order {
        SortOrder::Ascending => CmpMode::Eq,
        SortOrder::Descending => CmpMode::Ne,
    };
    vc.vcompare_scalar(mask, keys, 0, len, mode, T::zero(), 0)?;
    Ok(())
}

/// Post-processing kernel: decode keys back into the value domain.
pub(crate) fn decode_kernel<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    keys: &GlobalTensor<K::Encoded>,
    values: &GlobalTensor<K>,
) -> SimResult<KernelReport>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    let piece = crate::ub_piece(spec, K::SIZE + std::mem::size_of::<K::Encoded>(), PIECE_CAP);
    let spans = tile_spans(keys.len(), piece);
    launch(spec, gm, spec.ai_cores, "RadixDecode", |ctx| {
        for_each_lane(ctx, spans.iter(), |vc, _, mine| {
            let mut enc = vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, piece)?;
            let mut out = vc.alloc_local::<K>(ScratchpadKind::Ub, piece)?;
            for &(off, valid) in mine {
                vc.copy_in(&mut enc, 0, keys, off, valid, &[])?;
                vc.vradix_decode::<K>(&mut out, &enc, 0, valid)?;
                vc.copy_out(values, off, &out, 0, valid, &[])?;
            }
            vc.free_local(enc)?;
            vc.free_local(out)
        })
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::split;
    use dtypes::F16;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Ordering;

    pub(crate) fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    #[test]
    fn sorts_random_u16() {
        let (spec, gm) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<u16> = (0..3000).map(|_| rng.gen()).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, 16, SortOrder::Ascending).unwrap();
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(run.values.to_vec(), expect);
        // Indices are a valid argsort.
        let idx = run.indices.to_vec();
        let by_idx: Vec<u16> = idx.iter().map(|&i| data[i as usize]).collect();
        assert_eq!(by_idx, expect);
    }

    #[test]
    fn sorts_random_i16_with_negatives() {
        let (spec, gm) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let data: Vec<i16> = (0..2000).map(|_| rng.gen()).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, 16, SortOrder::Ascending).unwrap();
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(run.values.to_vec(), expect);
    }

    #[test]
    fn sorts_f16_including_specials() {
        let (spec, gm) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let mut data: Vec<F16> = (0..1500)
            .map(|_| F16::from_f32(rng.gen_range(-100.0f32..100.0)))
            .collect();
        data.push(F16::NEG_INFINITY);
        data.push(F16::INFINITY);
        data.push(F16::NEG_ZERO);
        data.push(F16::ZERO);
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, 16, SortOrder::Ascending).unwrap();
        let mut expect = data.clone();
        expect.sort_by(F16::total_cmp);
        let got = run.values.to_vec();
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "f16 sort must follow the IEEE total order bit-exactly"
        );
    }

    #[test]
    fn descending_order() {
        let (spec, gm) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let data: Vec<u16> = (0..1000).map(|_| rng.gen_range(0..500)).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, 16, SortOrder::Descending).unwrap();
        let mut expect = data.clone();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(run.values.to_vec(), expect);
    }

    #[test]
    fn sort_is_stable_in_indices() {
        let (spec, gm) = setup();
        // All-equal keys: a stable sort keeps indices in order.
        let data = vec![42u16; 600];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, 16, SortOrder::Ascending).unwrap();
        assert_eq!(run.indices.to_vec(), (0..600u32).collect::<Vec<_>>());
    }

    #[test]
    fn tiny_inputs() {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        for n in [0usize, 1, 2, 3] {
            let data: Vec<u16> = (0..n as u16).rev().collect();
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let run = radix_sort(&spec, &gm, &x, 16, SortOrder::Ascending).unwrap();
            let mut expect = data.clone();
            expect.sort_unstable();
            assert_eq!(run.values.to_vec(), expect, "n = {n}");
        }
    }

    #[test]
    fn int8_sort_uses_half_the_passes() {
        // The paper's future-work claim: 8-bit keys need 8 splits, so
        // low-precision sorting is ~2x cheaper.
        let (spec, gm) = setup();
        let mut rng = StdRng::seed_from_u64(6);
        let data: Vec<i8> = (0..1500).map(|_| rng.gen()).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, 16, SortOrder::Ascending).unwrap();
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(run.values.to_vec(), expect);
        assert_eq!(run.report.sync_rounds, 8, "one MCScan barrier per bit");
    }

    #[test]
    fn u8_mask_like_values_sort() {
        let (spec, gm) = setup();
        let data: Vec<u8> = (0..900).map(|i| ((i * 31) % 251) as u8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, 16, SortOrder::Descending).unwrap();
        let mut expect = data.clone();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(run.values.to_vec(), expect);
    }

    #[test]
    fn pass_count_matches_paper() {
        // fp16 sort = 16 split passes = 16 scans (plus encode/decode).
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let data: Vec<F16> = (0..100).map(|i| F16::from_f32(i as f32)).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, 16, SortOrder::Ascending).unwrap();
        // Each of the 16 MCScans contributes exactly one SyncAll.
        assert_eq!(run.report.sync_rounds, 16);
    }

    /// Host oracle: the stable argsort of `data` under `cmp` (reversed
    /// for descending, so equal keys keep their input order either way).
    fn host_argsort<K: Copy>(
        data: &[K],
        order: SortOrder,
        cmp: fn(&K, &K) -> Ordering,
    ) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..data.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            let o = cmp(&data[a as usize], &data[b as usize]);
            match order {
                SortOrder::Ascending => o,
                SortOrder::Descending => o.reverse(),
            }
        });
        idx
    }

    /// The little-endian bytes of `v`, for bit-for-bit comparisons.
    pub(crate) fn bytes<K: Element>(v: &[K]) -> Vec<u8> {
        let mut out = vec![0u8; v.len() * K::SIZE];
        for (x, chunk) in v.iter().zip(out.chunks_mut(K::SIZE)) {
            x.write_le(chunk);
        }
        out
    }

    /// `n` keys built from random bits; one in four is drawn from
    /// `specials` (edge values, and duplicates to exercise stability).
    pub(crate) fn keys<K: Element>(rng: &mut StdRng, n: usize, specials: &[u64]) -> Vec<K> {
        (0..n)
            .map(|_| {
                let bits = if rng.gen_range(0..4) == 0 {
                    specials[rng.gen_range(0..specials.len())]
                } else {
                    rng.gen::<u64>()
                };
                K::read_le(&bits.to_le_bytes()[..K::SIZE])
            })
            .collect()
    }

    /// Sorts keys of every length around the split store's piece (plus `extra`)
    /// both ways and checks values and argsort against the host.
    fn check_sorts<K>(
        seed: u64,
        extra: usize,
        specials: &[u64],
        cmp: fn(&K, &K) -> Ordering,
    ) -> Result<(), TestCaseError>
    where
        K: RadixKey + Element,
        K::Encoded: Element + Bits + Numeric,
    {
        let (spec, gm) = setup();
        let per_elem = split::piece_bytes(std::mem::size_of::<K::Encoded>(), true, true, true);
        let p = split::tests::store_piece(&spec, 16, per_elem).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for n in [0, 1, p - 1, p, p + 1, extra] {
            let data = keys::<K>(&mut rng, n, specials);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            for order in [SortOrder::Ascending, SortOrder::Descending] {
                let run = radix_sort(&spec, &gm, &x, 16, order).unwrap();
                let idx = host_argsort(&data, order, cmp);
                let vals: Vec<K> = idx.iter().map(|&i| data[i as usize]).collect();
                prop_assert_eq!(run.indices.to_vec(), idx, "n = {}, {:?}", n, order);
                prop_assert_eq!(
                    bytes(&run.values.to_vec()),
                    bytes(&vals),
                    "n = {}, {:?}",
                    n,
                    order
                );
            }
        }
        Ok(())
    }

    /// Integer edge values of a `bytes`-wide key: 0, 1, the sign bit,
    /// the largest positive and all ones.
    pub(crate) fn int_specials(bytes: usize) -> Vec<u64> {
        let sign = 1u64 << (8 * bytes - 1);
        vec![0, 1, sign, sign - 1, u64::MAX]
    }

    pub(crate) const F16_SPECIALS: [u64; 12] = [
        0x7E00, 0xFE00, 0x7C01, // NaNs: quiet, negative, signalling
        0x0000, 0x8000, // ±0
        0x7C00, 0xFC00, // ±Inf
        0x0001, 0x8001, 0x03FF, 0x83FF, // subnormals
        0x3C00, // 1.0
    ];

    pub(crate) const F32_SPECIALS: [u64; 10] = [
        0x7FC0_0000,
        0xFFC0_0000,
        0x0000_0000,
        0x8000_0000,
        0x7F80_0000,
        0xFF80_0000,
        0x0000_0001,
        0x8000_0001,
        0x007F_FFFF,
        0x3F80_0000,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        #[test]
        fn fused_sort_matches_host_stable_sort(seed in any::<u64>(), extra in 2usize..3000) {
            check_sorts::<u8>(seed, extra, &int_specials(1), u8::cmp)?;
            check_sorts::<i8>(seed, extra, &int_specials(1), i8::cmp)?;
            check_sorts::<u16>(seed, extra, &int_specials(2), u16::cmp)?;
            check_sorts::<i16>(seed, extra, &int_specials(2), i16::cmp)?;
            check_sorts::<F16>(seed, extra, &F16_SPECIALS, F16::total_cmp)?;
            check_sorts::<u32>(seed, extra, &int_specials(4), u32::cmp)?;
            check_sorts::<i32>(seed, extra, &int_specials(4), i32::cmp)?;
            check_sorts::<f32>(seed, extra, &F32_SPECIALS, f32::total_cmp)?;
        }
    }
}
