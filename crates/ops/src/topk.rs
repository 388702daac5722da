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
//! **Expectation management**: the paper reports a *negative* result —
//! this construction does not beat the baseline `top-k` operator for
//! small `k` (≤ 4096), because every pass re-reads the candidate range
//! and the first passes touch the whole input. The benchmark harness
//! reproduces that finding.

use crate::split::scatter_by_mask;
use ascend_sim::mem::GlobalMemory;
use ascend_sim::KernelReport;
use ascendc::vecops::Bits;
use ascendc::{launch, ChipSpec, CmpMode, GlobalTensor, ScratchpadKind, SimError, SimResult};
use dtypes::{Element, Numeric, RadixKey};
use scan::mcscan::{mcscan, McScanConfig, ScanKind};
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

const PIECE_CAP: usize = 2048;

/// Selects the `k` largest elements of `x` (with original indices).
pub fn topk<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<K>,
    k: usize,
    s: usize,
    blocks: u32,
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

    let mut keys_a = GlobalTensor::<K::Encoded>::new(gm, n)?;
    let keys_b = GlobalTensor::<K::Encoded>::new(gm, n)?;
    let mut idx_a = GlobalTensor::<u32>::new(gm, n)?;
    let idx_b = GlobalTensor::<u32>::new(gm, n)?;
    let mut reports = Vec::new();

    // Encode + index ramp (reuses the radix-sort pre-processing).
    reports.push(encode_kernel::<K>(spec, gm, blocks, x, &keys_a, &idx_a)?);

    // Bitwise quickselect over a shrinking candidate window.
    let mut start = 0usize; // confirmed top elements live in [0, start)
    let mut len = n; // candidates live in [start, start + len)
    let mut need = k; // top elements still to confirm inside the window
    let mut bit = K::BITS;
    while bit > 0 && len > need {
        bit -= 1;
        let keys_view = keys_a.slice(start, len)?;
        let idx_view = idx_a.slice(start, len)?;
        let keys_out = keys_b.slice(start, len)?;
        let idx_out = idx_b.slice(start, len)?;

        // Mask: "bit is 1" first (the larger half).
        let mask = GlobalTensor::<u8>::new(gm, len)?;
        reports.push(bit_mask_kernel::<K>(
            spec, gm, blocks, &keys_view, &mask, bit,
        )?);

        let scan_run = mcscan::<u8, i16, i32>(
            spec,
            gm,
            &mask,
            McScanConfig {
                s,
                blocks,
                kind: ScanKind::Exclusive,
            },
        )?;
        let offs = scan_run.y;
        reports.push(scan_run.report);
        let n_ones =
            (offs.read_range(len - 1, 1)?[0] + i32::from(mask.read_range(len - 1, 1)?[0])) as usize;

        reports.push(scatter_by_mask::<K::Encoded>(
            spec,
            gm,
            blocks,
            &keys_view,
            Some(&idx_view),
            &mask,
            &offs,
            n_ones,
            &keys_out,
            Some(&idx_out),
            true,
            None,
        )?);
        // Copy the rearranged window back into the primary buffers (the
        // confirmed prefix outside the window must stay intact, so the
        // buffers cannot simply be swapped).
        reports.push(copy_window(spec, gm, blocks, &keys_out, &keys_view)?);
        reports.push(copy_window_u32(spec, gm, blocks, &idx_out, &idx_view)?);

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
        if len == need {
            break;
        }
    }

    // The top-k now occupy [0, k) of the working buffers.
    let values = GlobalTensor::<K>::new(gm, k)?;
    let indices = GlobalTensor::<u32>::new(gm, k)?;
    reports.push(decode_prefix::<K>(spec, gm, blocks, &keys_a, &values, k)?);
    reports.push(copy_window_u32(
        spec,
        gm,
        blocks,
        &idx_a.slice(0, k)?,
        &indices,
    )?);

    let mut report = KernelReport::sequential("TopK", &reports);
    report.elements = n as u64;
    report.useful_bytes = (n * K::SIZE + k * (K::SIZE + 4)) as u64;
    let _ = (&mut keys_a, &mut idx_a);
    Ok(TopKRun {
        values,
        indices,
        report,
    })
}

fn pieces(piece: usize, n: usize) -> Vec<(usize, usize)> {
    let mut v = Vec::new();
    let mut off = 0;
    while off < n {
        let valid = piece.min(n - off);
        v.push((off, valid));
        off += valid;
    }
    v
}

fn encode_kernel<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    blocks: u32,
    x: &GlobalTensor<K>,
    keys: &GlobalTensor<K::Encoded>,
    idx: &GlobalTensor<u32>,
) -> SimResult<KernelReport>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    let piece = crate::ub_piece(
        spec,
        K::SIZE + std::mem::size_of::<K::Encoded>() + 4,
        PIECE_CAP,
    );
    let spans = pieces(piece, x.len());
    launch(spec, gm, blocks, "TopKEncode", |ctx| {
        let lane0 = ctx.block_idx as usize * ctx.vecs.len();
        let stride = ctx.block_dim as usize * ctx.vecs.len();
        for v in 0..ctx.vecs.len() {
            let vc = &mut ctx.vecs[v];
            let mut raw = vc.alloc_local::<K>(ScratchpadKind::Ub, piece)?;
            let mut enc = vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, piece)?;
            let mut ramp = vc.alloc_local::<u32>(ScratchpadKind::Ub, piece)?;
            for &(off, valid) in spans.iter().skip(lane0 + v).step_by(stride) {
                vc.copy_in(&mut raw, 0, x, off, valid, &[])?;
                vc.vradix_encode::<K>(&mut enc, &raw, 0, valid)?;
                vc.copy_out(keys, off, &enc, 0, valid, &[])?;
                vc.viota(&mut ramp, 0, valid, off as u32)?;
                vc.copy_out(idx, off, &ramp, 0, valid, &[])?;
            }
            vc.free_local(raw)?;
            vc.free_local(enc)?;
            vc.free_local(ramp)?;
        }
        Ok(())
    })
}

fn bit_mask_kernel<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    blocks: u32,
    keys: &GlobalTensor<K::Encoded>,
    mask: &GlobalTensor<u8>,
    bit: u32,
) -> SimResult<KernelReport>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    let piece = crate::ub_piece(spec, std::mem::size_of::<K::Encoded>() + 1, PIECE_CAP);
    let spans = pieces(piece, keys.len());
    launch(spec, gm, blocks, "TopKBitMask", |ctx| {
        let lane0 = ctx.block_idx as usize * ctx.vecs.len();
        let stride = ctx.block_dim as usize * ctx.vecs.len();
        for v in 0..ctx.vecs.len() {
            let vc = &mut ctx.vecs[v];
            let mut buf = vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, piece)?;
            let mut mk = vc.alloc_local::<u8>(ScratchpadKind::Ub, piece)?;
            for &(off, valid) in spans.iter().skip(lane0 + v).step_by(stride) {
                vc.copy_in(&mut buf, 0, keys, off, valid, &[])?;
                vc.vshr(&mut buf, 0, valid, bit)?;
                vc.vand_scalar(&mut buf, 0, valid, K::Encoded::one())?;
                vc.vcompare_scalar(&mut mk, &buf, 0, valid, CmpMode::Ne, K::Encoded::zero(), 0)?;
                vc.copy_out(mask, off, &mk, 0, valid, &[])?;
            }
            vc.free_local(buf)?;
            vc.free_local(mk)?;
        }
        Ok(())
    })
}

fn copy_window<E: Element>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    blocks: u32,
    src: &GlobalTensor<E>,
    dst: &GlobalTensor<E>,
) -> SimResult<KernelReport> {
    let piece = crate::ub_piece(spec, E::SIZE, PIECE_CAP);
    let spans = pieces(piece, src.len().min(dst.len()));
    launch(spec, gm, blocks, "WindowCopy", |ctx| {
        let lane0 = ctx.block_idx as usize * ctx.vecs.len();
        let stride = ctx.block_dim as usize * ctx.vecs.len();
        for v in 0..ctx.vecs.len() {
            let vc = &mut ctx.vecs[v];
            let mut buf = vc.alloc_local::<E>(ScratchpadKind::Ub, piece)?;
            for &(off, valid) in spans.iter().skip(lane0 + v).step_by(stride) {
                vc.copy_in(&mut buf, 0, src, off, valid, &[])?;
                vc.copy_out(dst, off, &buf, 0, valid, &[])?;
            }
            vc.free_local(buf)?;
        }
        Ok(())
    })
}

fn copy_window_u32(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    blocks: u32,
    src: &GlobalTensor<u32>,
    dst: &GlobalTensor<u32>,
) -> SimResult<KernelReport> {
    copy_window::<u32>(spec, gm, blocks, src, dst)
}

fn decode_prefix<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    blocks: u32,
    keys: &GlobalTensor<K::Encoded>,
    values: &GlobalTensor<K>,
    k: usize,
) -> SimResult<KernelReport>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    let piece = crate::ub_piece(spec, K::SIZE + std::mem::size_of::<K::Encoded>(), PIECE_CAP);
    let spans = pieces(piece, k);
    launch(spec, gm, blocks, "TopKDecode", |ctx| {
        let lane0 = ctx.block_idx as usize * ctx.vecs.len();
        let stride = ctx.block_dim as usize * ctx.vecs.len();
        for v in 0..ctx.vecs.len() {
            let vc = &mut ctx.vecs[v];
            let mut enc = vc.alloc_local::<K::Encoded>(ScratchpadKind::Ub, piece)?;
            let mut out = vc.alloc_local::<K>(ScratchpadKind::Ub, piece)?;
            for &(off, valid) in spans.iter().skip(lane0 + v).step_by(stride) {
                vc.copy_in(&mut enc, 0, keys, off, valid, &[])?;
                vc.vradix_decode::<K>(&mut out, &enc, 0, valid)?;
                vc.copy_out(values, off, &out, 0, valid, &[])?;
            }
            vc.free_local(enc)?;
            vc.free_local(out)?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtypes::F16;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    fn check_topk_u16(data: &[u16], k: usize) {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, data).unwrap();
        let run = topk(&spec, &gm, &x, k, 16, 2).unwrap();
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
        let run = topk(&spec, &gm, &x, 10, 16, 2).unwrap();
        let mut got: Vec<u16> = run.values.to_vec().iter().map(|v| v.encode()).collect();
        got.sort_unstable_by(|a, b| b.cmp(a));
        let mut expect: Vec<u16> = data.iter().map(|v| v.encode()).collect();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        expect.truncate(10);
        assert_eq!(got, expect);
    }

    #[test]
    fn rejects_bad_k() {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, &[1u16, 2, 3]).unwrap();
        assert!(topk(&spec, &gm, &x, 0, 16, 1).is_err());
        assert!(topk(&spec, &gm, &x, 4, 16, 1).is_err());
    }
}
