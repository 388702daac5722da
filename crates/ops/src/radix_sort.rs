//! LSB **radix sort** on top of SplitInd — the paper's §5 "Radix sort".
//!
//! The sort loops over the digits of the (order-preserving encoded)
//! keys, least significant first, and performs one stable split per
//! digit. The paper's digit is one bit: each pass is a [`split`] with
//! the mask "bit is 0" (ascending), which counts the mask per chunk and
//! scatters each chunk on the vector core that counted it, so even a
//! vocabulary-sized pass scatters on every vector core.
//!
//! A pass over an `r`-bit digit (`bits`) is a `2^r`-way split: phase I
//! counts the `2^r − 1` indicator masks "digit is d" (in output order;
//! the last digit's run takes the rest) per chunk, and the scatter
//! gathers each piece into one run per digit. `r = 2` halves the passes
//! — 8 for fp16 keys — and with them the barriers and the key and index
//! traffic, at three mask counts per pass.
//!
//! The paper extracts each pass's radix in a separate RadixSingle
//! kernel (`ShiftRight`/`And`/`Compare`) and scatters in a kernel of its
//! own: 50 launches for fp16 keys. Here those instructions run where the
//! keys already sit in UB — the encode writes the first digit's masks,
//! and each pass's scatter writes the masks of the next digit, permuted
//! alongside the keys — and the whole sort is **one persistent launch**:
//!
//! 1. the encode, then a `SyncAll`;
//! 2. per digit, the split's phase I (the digit's mask counts), a
//!    `SyncAll`, its phase II (the scatter), and a `SyncAll` so the next
//!    pass reads what every core scattered;
//! 3. the decode.
//!
//! Pass `b` reads the key, index and mask buffers of parity `b % 2` and
//! writes the other pair, and one set of counts ([`scan::MaskCounts`])
//! serves every pass. With one-bit digits an fp16 sort runs the paper's
//! 16 splits in 33 barriers, one launch instead of 18 separate ones;
//! with two-bit digits it runs 8 passes in 17 barriers.
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
use crate::split::{alloc_masks, NextPlane, SplitStore};
use ascend_sim::mem::GlobalMemory;
use ascend_sim::KernelReport;
use ascendc::vecops::Bits;
use ascendc::{
    launch, ChipSpec, CmpMode, Core, GlobalTensor, LocalTensor, ScratchpadKind, SimError, SimResult,
};
use dtypes::{Element, Numeric, RadixKey};
use scan::{tile_spans, MaskCounts};
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

/// Key bits per radix-sort pass in `Device::sort`, `Device::top_p` and
/// [`topk`]. The paper's sort splits on one bit per pass; two bits
/// halve the passes and barriers and measure 1.34–1.61× faster on the
/// 910B4 at every size of Fig. 11, for fp16 and int8 keys, and
/// 1.40–1.47× on top-p at every vocabulary of Fig. 13 (EXPERIMENTS,
/// "Radix digits"), so there is no size crossover.
///
/// [`topk`]: crate::topk::topk
pub const SORT_DIGIT_BITS: u32 = 2;

/// Elements per piece in the encode and decode.
const PIECE_CAP: usize = 2048;

/// Stable radix sort of `x` (values + original indices), one split per
/// `bits`-bit digit, as one launch on all of the chip's AI cores.
///
/// `bits` is the digit width: 1, the paper's split per bit, or 2, a
/// 4-way split over three digit masks per pass; anything else is an
/// [`SimError::InvalidArgument`].
pub fn radix_sort<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<K>,
    bits: u32,
    order: SortOrder,
) -> SimResult<SortRun<K>>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    if !matches!(bits, 1 | 2) {
        return Err(SimError::InvalidArgument(format!(
            "radix_sort: {bits} bits per pass, expected 1 or 2"
        )));
    }
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

    // Ping-pong buffers: pass `b` reads side `b % 2` and writes the
    // other, so the kernel needs no per-block state. Each mask buffer
    // holds a pass's digit masks back to back.
    let keys = [
        GlobalTensor::<K::Encoded>::new(gm, n)?,
        GlobalTensor::<K::Encoded>::new(gm, n)?,
    ];
    // Every key width takes an even number of passes, so the last one
    // writes side 0: the caller's `indices` serve as that side's index
    // buffer.
    let idx = [indices.clone(), GlobalTensor::<u32>::new(gm, n)?];
    // One mask per digit but the last.
    let per_pass = (1 << bits) - 1;
    let masks = [
        GlobalTensor::<u8>::new(gm, per_pass * n)?,
        GlobalTensor::<u8>::new(gm, per_pass * n)?,
    ];
    // One set of mask counts serves all of the passes.
    let counts = MaskCounts::new("RadixSort", spec, gm, n, per_pass)?;
    let encode = Codec::encode::<K>(spec, n, per_pass)?;
    let decode = Codec::decode::<K>(spec, n)?;
    let passes = K::BITS / bits;

    let mut report = launch(spec, gm, spec.ai_cores, "RadixSort", |ctx| {
        // Encode keys, materialize indices, the first digit's masks.
        let span = ctx.span_begin("Encode");
        for_each_lane(ctx, encode.spans.iter(), |vc, _, mine| {
            encode_lane::<K>(
                vc,
                encode.piece,
                mine,
                x,
                &keys[0],
                &idx[0],
                &masks[0],
                order,
            )
        })?;
        ctx.span_end(span);
        ctx.sync_all()?;
        // One split per digit; each scatter emits the next digit's masks.
        for pass in 0..passes {
            let (from, to) = ((pass % 2) as usize, (1 - pass % 2) as usize);
            let last = pass + 1 == passes;
            let next = (pass + 1) * bits;
            let compute =
                move |vc: &mut Core<'_>,
                      keys: &mut LocalTensor<K::Encoded>,
                      mk: &mut [LocalTensor<u8>],
                      len| { plane_mask(vc, keys, mk, len, next, order) };
            let store = SplitStore::<K::Encoded> {
                vals: &keys[from],
                idx_in: Some(&idx[from]),
                mask: &masks[from],
                vals_out: &keys[to],
                idx_out: Some(&idx[to]),
                false_side: true,
                next_plane: (!last).then_some(NextPlane {
                    out: &masks[to],
                    compute: &compute,
                }),
            };
            store.pass(ctx, &counts)?;
            // The next pass (or the decode) reads what every core
            // scattered.
            ctx.sync_all()?;
        }
        // Decode keys back to values.
        let span = ctx.span_begin("Decode");
        let sorted = &keys[(passes % 2) as usize];
        for_each_lane(ctx, decode.spans.iter(), |vc, _, mine| {
            decode_lane::<K>(vc, decode.piece, mine, sorted, &values)
        })?;
        ctx.span_end(span);
        Ok(())
    })?;
    report.elements = n as u64;
    report.useful_bytes = (n * K::SIZE + n * (K::SIZE + 4)) as u64;
    Ok(SortRun {
        values,
        indices,
        report,
    })
}

/// How the encode or decode cuts its `n` elements: pieces of `piece`
/// elements (as many as UB holds, up to [`PIECE_CAP`]), dealt
/// round-robin over the vector cores.
struct Codec {
    piece: usize,
    spans: Vec<(usize, usize)>,
}

impl Codec {
    /// The encode's pieces: raw key, encoded key, index and `masks`
    /// digit masks per element.
    fn encode<K: RadixKey + Element>(spec: &ChipSpec, n: usize, masks: usize) -> SimResult<Self> {
        let per_elem = K::SIZE + std::mem::size_of::<K::Encoded>() + 4 + masks;
        Self::new(spec, n, per_elem)
    }

    /// The decode's pieces: encoded and decoded key per element.
    fn decode<K: RadixKey + Element>(spec: &ChipSpec, n: usize) -> SimResult<Self> {
        Self::new(spec, n, K::SIZE + std::mem::size_of::<K::Encoded>())
    }

    fn new(spec: &ChipSpec, n: usize, per_elem: usize) -> SimResult<Self> {
        let piece = crate::ub_piece(spec, per_elem, PIECE_CAP);
        Ok(Codec {
            piece,
            spans: tile_spans(n, piece)?,
        })
    }
}

/// One vector core's share of the encode: for each of its `(offset,
/// len)` pieces, the order-preserving encode of `x` into `keys`, the
/// index ramp into `idx` and the split masks of the lowest digit into
/// `mask` (as many as it holds per key, back to back).
#[allow(clippy::too_many_arguments)]
fn encode_lane<'p, K>(
    vc: &mut Core<'_>,
    piece: usize,
    mine: impl Iterator<Item = &'p (usize, usize)>,
    x: &GlobalTensor<K>,
    keys: &GlobalTensor<K::Encoded>,
    idx: &GlobalTensor<u32>,
    mask: &GlobalTensor<u8>,
    order: SortOrder,
) -> SimResult<()>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    let n = x.len();
    let masks = mask.len() / n.max(1);
    let mut raw = vc.alloc_local::<K>(ScratchpadKind::Ub, piece)?;
    let mut enc = vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, piece)?;
    let mut ramp = vc.alloc_local::<u32>(ScratchpadKind::Ub, piece)?;
    let mut mk = alloc_masks(vc, masks, piece)?;
    for &(off, valid) in mine {
        vc.copy_in(&mut raw, 0, x, off, valid, &[])?;
        vc.vradix_encode::<K>(&mut enc, &raw, 0, valid)?;
        vc.copy_out(keys, off, &enc, 0, valid, &[])?;
        vc.viota(&mut ramp, 0, valid, off as u32)?;
        vc.copy_out(idx, off, &ramp, 0, valid, &[])?;
        plane_mask(vc, &mut enc, &mut mk, valid, 0, order)?;
        for (d, m) in mk.iter().enumerate() {
            vc.copy_out(mask, d * n + off, m, 0, valid, &[])?;
        }
    }
    vc.free_local(raw)?;
    vc.free_local(enc)?;
    vc.free_local(ramp)?;
    for m in mk {
        vc.free_local(m)?;
    }
    Ok(())
}

/// Writes the split masks of the digit at bit `bit` of `keys[..len]` —
/// `masks.len() + 1` values wide, so one mask per digit but the last,
/// in output order — into `masks` (`ShiftRight` + `And` + one `Compare`
/// per mask), clobbering `keys`. Ascending sorts put small digits first,
/// descending sorts large ones.
fn plane_mask<T: Bits + Numeric>(
    vc: &mut Core<'_>,
    keys: &mut LocalTensor<T>,
    masks: &mut [LocalTensor<u8>],
    len: usize,
    bit: u32,
    order: SortOrder,
) -> SimResult<()> {
    if bit > 0 {
        vc.vshr(keys, 0, len, bit)?;
    }
    let top = masks.len();
    vc.vand_scalar(keys, 0, len, T::from_f64(top as f64))?;
    for (i, mask) in masks.iter_mut().enumerate() {
        let digit = match order {
            SortOrder::Ascending => i,
            SortOrder::Descending => top - i,
        };
        let digit = T::from_f64(digit as f64);
        vc.vcompare_scalar(mask, keys, 0, len, CmpMode::Eq, digit, 0)?;
    }
    Ok(())
}

/// One vector core's share of the decode: each of its `(offset, len)`
/// pieces of `keys`, decoded into `values`.
fn decode_lane<'p, K>(
    vc: &mut Core<'_>,
    piece: usize,
    mine: impl Iterator<Item = &'p (usize, usize)>,
    keys: &GlobalTensor<K::Encoded>,
    values: &GlobalTensor<K>,
) -> SimResult<()>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    let mut enc = vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, piece)?;
    let mut out = vc.alloc_local::<K>(ScratchpadKind::Ub, piece)?;
    for &(off, valid) in mine {
        vc.copy_in(&mut enc, 0, keys, off, valid, &[])?;
        vc.vradix_decode::<K>(&mut out, &enc, 0, valid)?;
        vc.copy_out(values, off, &out, 0, valid, &[])?;
    }
    vc.free_local(enc)?;
    vc.free_local(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::split;
    use ascend_sim::prof::with_profiling;
    use dtypes::F16;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Ordering;

    /// The paper's one-bit passes.
    const BIT: u32 = 1;

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
        let run = radix_sort(&spec, &gm, &x, BIT, SortOrder::Ascending).unwrap();
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
        let run = radix_sort(&spec, &gm, &x, BIT, SortOrder::Ascending).unwrap();
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
        let run = radix_sort(&spec, &gm, &x, BIT, SortOrder::Ascending).unwrap();
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
        let run = radix_sort(&spec, &gm, &x, BIT, SortOrder::Descending).unwrap();
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
        let run = radix_sort(&spec, &gm, &x, BIT, SortOrder::Ascending).unwrap();
        assert_eq!(run.indices.to_vec(), (0..600u32).collect::<Vec<_>>());
    }

    #[test]
    fn tiny_inputs() {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        for n in [0usize, 1, 2, 3] {
            let data: Vec<u16> = (0..n as u16).rev().collect();
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let run = radix_sort(&spec, &gm, &x, BIT, SortOrder::Ascending).unwrap();
            let mut expect = data.clone();
            expect.sort_unstable();
            assert_eq!(run.values.to_vec(), expect, "n = {n}");
        }
    }

    #[test]
    fn int8_sort_uses_half_the_passes() {
        // The paper's future-work claim: 8-bit keys need 8 splits, so
        // low-precision sorting is ~2x cheaper. Two-bit digits halve the
        // passes again.
        let (spec, gm) = setup();
        let mut rng = StdRng::seed_from_u64(6);
        let data: Vec<i8> = (0..1500).map(|_| rng.gen()).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let mut expect = data.clone();
        expect.sort_unstable();
        for (bits, passes) in [(BIT, 8), (2, 4)] {
            let (run, profile) = with_profiling(&gm, || {
                radix_sort(&spec, &gm, &x, bits, SortOrder::Ascending).unwrap()
            });
            assert_eq!(run.values.to_vec(), expect, "{bits} bits");
            assert_eq!(
                crate::tests::scans(&profile),
                passes,
                "one phase I per digit"
            );
            // The encode's barrier, then two per pass: after the scan's
            // phase I and after the scatter.
            assert_eq!(run.report.sync_rounds, 1 + 2 * passes as u64);
        }
    }

    #[test]
    fn u8_mask_like_values_sort() {
        let (spec, gm) = setup();
        let data: Vec<u8> = (0..900).map(|i| ((i * 31) % 251) as u8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = radix_sort(&spec, &gm, &x, BIT, SortOrder::Descending).unwrap();
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
        let (run, profile) = with_profiling(&gm, || {
            radix_sort(&spec, &gm, &x, BIT, SortOrder::Ascending).unwrap()
        });
        assert_eq!(crate::tests::scans(&profile), 16);
        // One launch: the encode's barrier, then two per pass.
        assert_eq!(profile.kernels.len(), 1);
        assert_eq!(run.report.sync_rounds, 33);
    }

    #[test]
    fn two_bit_digits_halve_the_passes() {
        // fp16 sort with two-bit digits = 8 passes, each one phase I
        // over three digit masks, in one launch of 17 barriers.
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let data: Vec<F16> = (0..100)
            .map(|i| F16::from_f32((i * 37 % 100) as f32))
            .collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let (run, profile) = with_profiling(&gm, || {
            radix_sort(&spec, &gm, &x, 2, SortOrder::Ascending).unwrap()
        });
        let mut expect = data.clone();
        expect.sort_by(F16::total_cmp);
        assert_eq!(run.values.to_vec(), expect);
        assert_eq!(crate::tests::scans(&profile), 8);
        assert_eq!(profile.kernels.len(), 1);
        assert_eq!(run.report.sync_rounds, 17);
    }

    #[test]
    fn digit_widths_other_than_one_or_two_are_refused() {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, &[3u16, 1, 2]).unwrap();
        for bits in [0, 3, 4, 16] {
            let err = radix_sort(&spec, &gm, &x, bits, SortOrder::Ascending).err();
            assert!(
                matches!(err, Some(SimError::InvalidArgument(_))),
                "{bits}: {err:?}"
            );
        }
    }

    /// Host oracle: the stable argsort of `data` under `cmp` (reversed
    /// for descending, so equal keys keep their input order either way).
    pub(crate) fn host_argsort<K: Copy>(
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

    /// Sorts keys of every length around a split piece inside a chunk
    /// (plus `extra`) both ways on one AI core, with one- and two-bit
    /// digits, and checks values and argsort against the host.
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
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let mut rng = StdRng::seed_from_u64(seed);
        for bits in [BIT, 2] {
            let masks = (1 << bits) - 1;
            let key = std::mem::size_of::<K::Encoded>();
            let p =
                split::tests::store_piece(&spec, split::piece_bytes(key, masks, true, true, true));
            // Over the two vector cores, 2p ± 1 keys put a piece
            // boundary at or just past the end of the first chunk.
            for n in [0, 1, 2 * p - 1, 2 * p + 1, extra] {
                let data = keys::<K>(&mut rng, n, specials);
                let x = GlobalTensor::from_slice(&gm, &data).unwrap();
                for order in [SortOrder::Ascending, SortOrder::Descending] {
                    let run = radix_sort(&spec, &gm, &x, bits, order).unwrap();
                    let idx = host_argsort(&data, order, cmp);
                    let vals: Vec<K> = idx.iter().map(|&i| data[i as usize]).collect();
                    let case = format!("n = {n}, {order:?}, {bits} bits");
                    prop_assert_eq!(run.indices.to_vec(), idx, "{}", case);
                    prop_assert_eq!(bytes(&run.values.to_vec()), bytes(&vals), "{}", case);
                }
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
