//! **SplitInd**: stable split by a boolean mask, with original indices.
//!
//! Split reorganizes `x` so that all elements whose mask flag is true
//! come first (in order), followed by all elements whose flag is false
//! (in order). The implementation follows the paper exactly:
//!
//! 1. an **exclusive MCScan** over the int8 mask computes, for every
//!    position, how many true elements precede it — i.e. the output
//!    offset of each true element (and, by arithmetic, of each false
//!    element);
//! 2. a vector **scatter kernel** gathers the true elements of each tile
//!    with `GatherMask` and stores the compacted run at the offset the
//!    scan produced; the false side is handled symmetrically with the
//!    negated mask. Original indices are materialized with
//!    `CreateVecIndex` and gathered alongside the values.
//!
//! Both phases use all cube and vector cores.

use crate::for_each_lane;
use ascend_sim::mem::GlobalMemory;
use ascend_sim::KernelReport;
use ascendc::{
    launch, ChipSpec, CmpMode, Core, GlobalTensor, LocalTensor, ScratchpadKind, SimError, SimResult,
};
use dtypes::Element;
use scan::mcscan::{mcscan, McScanConfig, ScanKind};
use scan::tile_spans;
use std::sync::Arc;

/// Result of [`split_ind`].
pub struct SplitRun<E: Element> {
    /// The partitioned values: all true-flagged elements, then all
    /// false-flagged ones, both in stable order.
    pub values: GlobalTensor<E>,
    /// The original index of every output element (`u32`).
    pub indices: GlobalTensor<u32>,
    /// Number of true-flagged elements.
    pub n_true: usize,
    /// Combined execution report (scan + scatter kernels).
    pub report: KernelReport,
}

/// Upper bound on elements-per-piece in the scatter kernel (the actual
/// size adapts to the chip's UB capacity).
const SCATTER_PIECE_CAP: usize = 2048;

/// Stable split of `x` by `mask` (`1` = first partition). Returns the
/// partitioned values, their original indices, and the true count.
///
/// `s` and `blocks` configure the underlying MCScan (the scatter kernel
/// uses the same block count).
pub fn split_ind<E: Element>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<E>,
    mask: &GlobalTensor<u8>,
    s: usize,
    blocks: u32,
) -> SimResult<SplitRun<E>> {
    if x.len() != mask.len() {
        return Err(SimError::InvalidArgument(format!(
            "split_ind: values ({}) and mask ({}) lengths differ",
            x.len(),
            mask.len()
        )));
    }
    let n = x.len();
    let values = GlobalTensor::<E>::new(gm, n)?;
    let indices = GlobalTensor::<u32>::new(gm, n)?;
    if n == 0 {
        return Ok(SplitRun {
            values,
            indices,
            n_true: 0,
            report: crate::empty_report(spec, "SplitInd"),
        });
    }

    // 1. Exclusive scan of the mask on the int8 MCScan path.
    let (offs, n_true, scan_report) = mask_offsets(spec, gm, mask, s, blocks)?;

    // 2. Scatter kernel.
    let scatter_report = scatter_by_mask(
        spec,
        gm,
        blocks,
        x,
        None,
        mask,
        &offs,
        n_true,
        &values,
        Some(&indices),
        true,
        None,
    )?;

    let mut report = KernelReport::sequential("SplitInd", &[scan_report, scatter_report]);
    report.elements = n as u64;
    report.useful_bytes = (n * (E::SIZE + 1) + n * (E::SIZE + 4)) as u64;
    Ok(SplitRun {
        values,
        indices,
        n_true,
        report,
    })
}

/// Step 1 of every split: the exclusive int8 MCScan of a non-empty
/// `mask` (`u8 → i16 → i32`), giving each element's offset within the
/// true partition, plus the true count and the scan's report.
pub(crate) fn mask_offsets(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    mask: &GlobalTensor<u8>,
    s: usize,
    blocks: u32,
) -> SimResult<(GlobalTensor<i32>, usize, KernelReport)> {
    let n = mask.len();
    let cfg = McScanConfig {
        s,
        blocks,
        kind: ScanKind::Exclusive,
    };
    let run = mcscan::<u8, i16, i32>(spec, gm, mask, cfg)?;
    let last = run.y.read_range(n - 1, 1)?[0] + i32::from(mask.read_range(n - 1, 1)?[0]);
    Ok((run.y, last as usize, run.report))
}

/// Elements per piece of [`scatter_by_mask`] for `elem_size`-byte
/// values, with or without a next-plane output.
pub(crate) fn scatter_piece(spec: &ChipSpec, elem_size: usize, next_plane: bool) -> usize {
    // Per element the scatter stages: value in + gathered (2E), mask +
    // negated mask (2 B), index in + gathered (8 B), plus slack; the
    // next plane adds its mask and the gathered copy (2 B).
    let plane_bytes = if next_plane { 2 } else { 0 };
    crate::ub_piece(spec, 2 * elem_size + 12 + plane_bytes, SCATTER_PIECE_CAP)
}

/// Writes the split mask for `keys[..len]` into `mask`; may clobber
/// `keys`.
pub(crate) type PlaneMaskFn<E> =
    dyn Fn(&mut Core<'_>, &mut LocalTensor<E>, &mut LocalTensor<u8>, usize) -> SimResult<()> + Sync;

/// The split mask a radix-sort pass hands to the next pass, computed by
/// [`scatter_by_mask`] from the keys it already holds in UB.
pub(crate) struct NextPlane<'a, E: Element> {
    /// Where the scattered mask goes (aligned with the scattered values).
    pub out: &'a GlobalTensor<u8>,
    /// Computes the mask from a piece of keys.
    pub compute: &'a PlaneMaskFn<E>,
}

/// The scatter phase shared by SplitInd, Compress and the radix-sort
/// passes: distributes elements (and optionally their indices) into the
/// true partition at the offsets given by the exclusive mask scan, and —
/// when `false_side` is set — into the false partition after it.
///
/// `idx_in`: `None` materializes fresh indices (`CreateVecIndex`);
/// `Some(t)` gathers from an existing index array (radix-sort passes
/// permute previously-permuted indices).
///
/// `next_plane`: `Some` also derives the next radix pass's split mask
/// from the values this piece already holds in UB and scatters it with
/// the same true/false masks, so the mask lands aligned with the
/// permuted values; `None` leaves the kernel a plain split.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scatter_by_mask<E: Element>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    blocks: u32,
    vals: &GlobalTensor<E>,
    idx_in: Option<&GlobalTensor<u32>>,
    mask: &GlobalTensor<u8>,
    offs: &GlobalTensor<i32>,
    n_true: usize,
    vals_out: &GlobalTensor<E>,
    idx_out: Option<&GlobalTensor<u32>>,
    false_side: bool,
    next_plane: Option<NextPlane<'_, E>>,
) -> SimResult<KernelReport> {
    let n = vals.len();
    let p = scatter_piece(spec, E::SIZE, next_plane.is_some());
    let pieces = tile_spans(n, p);

    launch(spec, gm, blocks, "MaskScatter", |ctx| {
        for_each_lane(ctx, pieces.iter(), |vc, _, mine| {
            let mut val_in = vc.alloc_local::<E>(ScratchpadKind::Ub, p)?;
            let mut val_gath = vc.alloc_local::<E>(ScratchpadKind::Ub, p)?;
            let mut mk = vc.alloc_local::<u8>(ScratchpadKind::Ub, p)?;
            let mut mk_neg = vc.alloc_local::<u8>(ScratchpadKind::Ub, p)?;
            let mut idx_buf = vc.alloc_local::<u32>(ScratchpadKind::Ub, p)?;
            let mut idx_gath = vc.alloc_local::<u32>(ScratchpadKind::Ub, p)?;
            let mut base_buf = vc.alloc_local::<i32>(ScratchpadKind::Ub, 1)?;
            let mut plane_bufs = match next_plane {
                Some(_) => Some((
                    vc.alloc_local::<u8>(ScratchpadKind::Ub, p)?,
                    vc.alloc_local::<u8>(ScratchpadKind::Ub, p)?,
                )),
                None => None,
            };

            for &(off, valid) in mine {
                vc.copy_in(&mut val_in, 0, vals, off, valid, &[])?;
                vc.copy_in(&mut mk, 0, mask, off, valid, &[])?;
                vc.copy_in(&mut base_buf, 0, offs, off, 1, &[])?;
                let (base_true_i32, _) = vc.extract(&base_buf, 0)?;
                let base_true = base_true_i32 as usize;

                match idx_in {
                    Some(src) => {
                        vc.copy_in(&mut idx_buf, 0, src, off, valid, &[])?;
                    }
                    None => {
                        vc.viota(&mut idx_buf, 0, valid, off as u32)?;
                    }
                }

                // True side.
                let (c, _) = vc.gather_mask(&mut val_gath, &val_in, &mk, 0, valid)?;
                debug_assert!(base_true + c <= n_true);
                if c > 0 {
                    vc.copy_out(vals_out, base_true, &val_gath, 0, c, &[])?;
                }
                if let Some(outi) = idx_out {
                    let (ci, _) = vc.gather_mask(&mut idx_gath, &idx_buf, &mk, 0, valid)?;
                    debug_assert_eq!(ci, c);
                    if c > 0 {
                        vc.copy_out(outi, base_true, &idx_gath, 0, c, &[])?;
                    }
                }

                // False side.
                let base_false = n_true + (off - base_true);
                if false_side {
                    vc.vcompare_scalar(&mut mk_neg, &mk, 0, valid, CmpMode::Eq, 0u8, 0)?;
                    let (cf, _) = vc.gather_mask(&mut val_gath, &val_in, &mk_neg, 0, valid)?;
                    debug_assert_eq!(cf, valid - c);
                    if cf > 0 {
                        vc.copy_out(vals_out, base_false, &val_gath, 0, cf, &[])?;
                    }
                    if let Some(outi) = idx_out {
                        let (cfi, _) =
                            vc.gather_mask(&mut idx_gath, &idx_buf, &mk_neg, 0, valid)?;
                        debug_assert_eq!(cfi, cf);
                        if cf > 0 {
                            vc.copy_out(outi, base_false, &idx_gath, 0, cf, &[])?;
                        }
                    }
                }

                // Next plane: both sides have consumed `val_in`, so the
                // mask computation may clobber it.
                if let (Some(np), Some((nm, nm_gath))) = (&next_plane, &mut plane_bufs) {
                    (np.compute)(vc, &mut val_in, nm, valid)?;
                    let (c, _) = vc.gather_mask(nm_gath, nm, &mk, 0, valid)?;
                    if c > 0 {
                        vc.copy_out(np.out, base_true, nm_gath, 0, c, &[])?;
                    }
                    if false_side {
                        let (cf, _) = vc.gather_mask(nm_gath, nm, &mk_neg, 0, valid)?;
                        if cf > 0 {
                            vc.copy_out(np.out, base_false, nm_gath, 0, cf, &[])?;
                        }
                    }
                }
            }
            if let Some((nm, nm_gath)) = plane_bufs {
                vc.free_local(nm)?;
                vc.free_local(nm_gath)?;
            }
            vc.free_local(val_in)?;
            vc.free_local(val_gath)?;
            vc.free_local(mk)?;
            vc.free_local(mk_neg)?;
            vc.free_local(idx_buf)?;
            vc.free_local(idx_gath)?;
            vc.free_local(base_buf)
        })
    })
}

/// Reference split used in tests: stable partition with indices.
pub fn reference_split<E: Element>(x: &[E], mask: &[u8]) -> (Vec<E>, Vec<u32>, usize) {
    let mut vals = Vec::with_capacity(x.len());
    let mut idx = Vec::with_capacity(x.len());
    for (i, (&v, &m)) in x.iter().zip(mask).enumerate() {
        if m != 0 {
            vals.push(v);
            idx.push(i as u32);
        }
    }
    let n_true = vals.len();
    for (i, (&v, &m)) in x.iter().zip(mask).enumerate() {
        if m == 0 {
            vals.push(v);
            idx.push(i as u32);
        }
    }
    (vals, idx, n_true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    fn run_case(n: usize, seed: u64) {
        let (spec, gm) = setup();
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<u16> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
        let mask: Vec<u8> = (0..n).map(|_| u8::from(rng.gen_bool(0.5))).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
        let run = split_ind(&spec, &gm, &x, &m, 16, 2).unwrap();
        let (ev, ei, ent) = reference_split(&data, &mask);
        assert_eq!(run.n_true, ent, "n = {n}");
        assert_eq!(run.values.to_vec(), ev, "n = {n}");
        assert_eq!(run.indices.to_vec(), ei, "n = {n}");
    }

    #[test]
    fn random_masks_various_sizes() {
        for (i, n) in [1usize, 7, 256, 1000, 3000, 5000].into_iter().enumerate() {
            run_case(n, 42 + i as u64);
        }
    }

    #[test]
    fn all_true_and_all_false() {
        let (spec, gm) = setup();
        let data: Vec<u16> = (0..500).collect();
        for flag in [0u8, 1u8] {
            let mask = vec![flag; 500];
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
            let run = split_ind(&spec, &gm, &x, &m, 16, 2).unwrap();
            assert_eq!(run.n_true, if flag == 1 { 500 } else { 0 });
            assert_eq!(run.values.to_vec(), data);
            assert_eq!(run.indices.to_vec(), (0..500u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn stability_with_duplicates() {
        let (spec, gm) = setup();
        // Value 7 appears at indices 0, 2, 4; value 3 at 1, 3.
        let data: Vec<u16> = vec![7, 3, 7, 3, 7];
        let mask = vec![1u8, 0, 1, 0, 0];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
        let run = split_ind(&spec, &gm, &x, &m, 16, 1).unwrap();
        assert_eq!(run.values.to_vec(), vec![7, 7, 3, 3, 7]);
        assert_eq!(run.indices.to_vec(), vec![0, 2, 1, 3, 4]);
    }

    #[test]
    fn length_mismatch_rejected() {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, &[1u16, 2]).unwrap();
        let m = GlobalTensor::from_slice(&gm, &[1u8, 0, 1]).unwrap();
        assert!(split_ind(&spec, &gm, &x, &m, 16, 1).is_err());
    }

    #[test]
    fn empty_input() {
        let (spec, gm) = setup();
        let x = GlobalTensor::<u16>::new(&gm, 0).unwrap();
        let m = GlobalTensor::<u8>::new(&gm, 0).unwrap();
        let run = split_ind(&spec, &gm, &x, &m, 16, 1).unwrap();
        assert_eq!(run.n_true, 0);
        assert!(run.values.to_vec().is_empty());
    }

    #[test]
    fn report_combines_scan_and_scatter() {
        let (spec, gm) = setup();
        let n = 2000;
        let data: Vec<u16> = (0..n as u16).collect();
        let mask: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
        let run = split_ind(&spec, &gm, &x, &m, 16, 2).unwrap();
        assert!(run.report.sync_rounds >= 1, "MCScan's barrier is counted");
        assert!(
            run.report.cycles > 2 * spec.launch_cycles,
            "two kernels launched"
        );
        assert_eq!(run.report.elements, n as u64);
    }
}
