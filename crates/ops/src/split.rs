//! **SplitInd**: stable split by a boolean mask, with original indices.
//!
//! Split reorganizes `x` so that all elements whose mask flag is true
//! come first (in order), followed by all elements whose flag is false
//! (in order). The paper builds it from two kernels, an exclusive int8
//! MCScan and a scatter; here both run in **one launch**:
//!
//! 1. MCScan's phase I scans the int8 mask on the cube cores (tile-local
//!    scans) while the vector cores reduce it per chunk, then `SyncAll`;
//! 2. in phase II each vector core propagates its chunk's offsets and,
//!    instead of writing them out, hands every segment — its inclusive
//!    offsets still in UB — to `SplitStore`. The store gathers the
//!    true elements of each piece with `GatherMask` and stores the
//!    compacted run at the piece's offset, `extract`ed from the
//!    segment's offsets; the false side goes after the true count, which
//!    every core reduces from MCScan's `r` once the barrier has run.
//!    Original indices are materialized with `CreateVecIndex` and
//!    gathered alongside the values.
//!
//! The scan runs on all cube and vector cores. The scatter nearly does
//! too: the fused launch ([`scan::mcscan_with`]) gives each vector core a
//! range of `⌈rows / cores⌉` `s`-element rows rather than whole
//! `ℓ`-element tiles, so a 128K-element split of 8 tiles (1,002 rows,
//! 26 to a core) scatters on 39 of the 910B4's 40 vector cores instead
//! of 8. A core whose chunk gets no rows opens no store.

use ascend_sim::mem::GlobalMemory;
use ascend_sim::KernelReport;
use ascendc::{
    ChipSpec, CmpMode, Core, EventTime, GlobalTensor, LocalTensor, ScratchpadKind, SimError,
    SimResult,
};
use dtypes::Element;
use scan::mcscan::{mcscan_with, Tile, TileStore};
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
    /// Execution report of the one split launch.
    pub report: KernelReport,
}

/// Stable split of `x` by `mask` (`1` = first partition). Returns the
/// partitioned values, their original indices, and the true count.
///
/// `s` is the tile dimension of the fused MCScan launch, which runs on
/// all of the chip's AI cores.
pub fn split_ind<E: Element>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<E>,
    mask: &GlobalTensor<u8>,
    s: usize,
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

    let (n_true, mut report) = SplitStore {
        vals: x,
        idx_in: None,
        mask,
        vals_out: &values,
        idx_out: Some(&indices),
        false_side: true,
        next_plane: None,
    }
    .launch(spec, gm, s)?;
    report.name = "SplitInd".into();
    report.elements = n as u64;
    report.useful_bytes = (n * (E::SIZE + 1) + n * (E::SIZE + 4)) as u64;
    Ok(SplitRun {
        values,
        indices,
        n_true,
        report,
    })
}

/// Writes the split mask for `keys[..len]` into `mask`; may clobber
/// `keys`.
pub(crate) type PlaneMaskFn<E> =
    dyn Fn(&mut Core<'_>, &mut LocalTensor<E>, &mut LocalTensor<u8>, usize) -> SimResult<()> + Sync;

/// The split mask a radix-sort pass hands to the next pass, computed by
/// the [`SplitStore`] from the keys it already holds in UB.
pub(crate) struct NextPlane<'a, E: Element> {
    /// Where the scattered mask goes (aligned with the scattered values).
    pub out: &'a GlobalTensor<u8>,
    /// Computes the mask from a piece of keys.
    pub compute: &'a PlaneMaskFn<E>,
}

/// The phase II store of every split — SplitInd, Compress, the
/// radix-sort and top-k passes: distributes elements (and optionally
/// their indices) into the true partition at the offsets of the mask
/// scan, and — when `false_side` is set — into the false partition
/// after it.
///
/// `idx_in`: `None` materializes fresh indices (`CreateVecIndex`);
/// `Some(t)` gathers from an existing index array (radix-sort passes
/// permute previously-permuted indices). Without `idx_out` no indices
/// are touched.
///
/// `next_plane`: `Some` also derives the next radix pass's split mask
/// from the values each piece already holds in UB and scatters it with
/// the same true/false masks, so the mask lands aligned with the
/// permuted values; `None` leaves the store a plain split.
pub(crate) struct SplitStore<'a, E: Element> {
    pub vals: &'a GlobalTensor<E>,
    pub idx_in: Option<&'a GlobalTensor<u32>>,
    pub mask: &'a GlobalTensor<u8>,
    pub vals_out: &'a GlobalTensor<E>,
    pub idx_out: Option<&'a GlobalTensor<u32>>,
    pub false_side: bool,
    pub next_plane: Option<NextPlane<'a, E>>,
}

impl<E: Element> SplitStore<'_, E> {
    /// Runs the split as one launch on all AI cores — the exclusive
    /// `u8 → i16 → i32` MCScan of `mask` with this store as its phase
    /// II — and returns the true count and the launch's report.
    pub(crate) fn launch(
        self,
        spec: &ChipSpec,
        gm: &Arc<GlobalMemory>,
        s: usize,
    ) -> SimResult<(usize, KernelReport)> {
        let mask = self.mask;
        let run = mcscan_with::<u8, i16, i32, _>(spec, gm, mask, s, "MCScanSplit", self)?;
        Ok((run.total as usize, run.report))
    }
}

/// UB bytes per element of a split piece: value in + gathered, the mask
/// (and its negation for the false side), index in + gathered, and the
/// next plane's mask and its gathered copy.
pub(crate) fn piece_bytes(
    elem_size: usize,
    false_side: bool,
    indices: bool,
    next_plane: bool,
) -> usize {
    2 * elem_size
        + 1
        + usize::from(false_side)
        + if indices { 8 } else { 0 }
        + if next_plane { 2 } else { 0 }
}

/// Elements per piece of a store needing `bytes_per_elem` UB bytes per
/// element, out of `ub_left` free bytes: the largest power of two that
/// fits, so a row chunk's segment takes as few pieces as UB allows; a
/// typed error when not one element does.
fn piece_len(ub_left: usize, bytes_per_elem: usize) -> SimResult<usize> {
    let fits = ub_left / bytes_per_elem;
    if fits == 0 {
        return Err(SimError::ScratchpadOverflow {
            buffer: "UB",
            requested: bytes_per_elem,
            in_use: 0,
            capacity: ub_left,
        });
    }
    Ok(1 << fits.ilog2())
}

/// Where one side of a split piece goes: its offset in the output and
/// the scalar reads that address waits for.
struct Side<'d> {
    at: usize,
    deps: &'d [EventTime],
}

impl Side<'_> {
    /// Gathers the elements of `src[..len]` under `mask` into `gath` and
    /// stores them at `dst[self.at..]`. Returns the count and the
    /// store's completion (0 when nothing was gathered).
    fn store<T: Element>(
        &self,
        vc: &mut Core<'_>,
        gath: &mut LocalTensor<T>,
        src: &LocalTensor<T>,
        mask: &LocalTensor<u8>,
        len: usize,
        dst: &GlobalTensor<T>,
    ) -> SimResult<(usize, EventTime)> {
        let (count, _) = vc.gather_mask(gath, src, mask, 0, len)?;
        let done = match count {
            0 => 0,
            _ => vc.copy_out(dst, self.at, gath, 0, count, self.deps)?,
        };
        Ok((count, done))
    }
}

/// One vector core's split buffers; `p` elements each.
pub(crate) struct SplitBufs<E: Element> {
    p: usize,
    val_in: LocalTensor<E>,
    val_gath: LocalTensor<E>,
    mk: LocalTensor<u8>,
    mk_neg: Option<LocalTensor<u8>>,
    idx: Option<(LocalTensor<u32>, LocalTensor<u32>)>,
    plane: Option<(LocalTensor<u8>, LocalTensor<u8>)>,
}

impl<E: Element> TileStore<i32> for SplitStore<'_, E> {
    type Bufs = SplitBufs<E>;

    fn needs_total(&self) -> bool {
        self.false_side
    }

    fn open(&self, vc: &mut Core<'_>, ub_left: usize) -> SimResult<SplitBufs<E>> {
        let bytes = piece_bytes(
            E::SIZE,
            self.false_side,
            self.idx_out.is_some(),
            self.next_plane.is_some(),
        );
        let p = piece_len(ub_left, bytes)?;
        let val_in = vc.alloc_local::<E>(ScratchpadKind::Ub, p)?;
        let val_gath = vc.alloc_local::<E>(ScratchpadKind::Ub, p)?;
        let mk = vc.alloc_local::<u8>(ScratchpadKind::Ub, p)?;
        let mk_neg = match self.false_side {
            true => Some(vc.alloc_local::<u8>(ScratchpadKind::Ub, p)?),
            false => None,
        };
        let idx = match self.idx_out {
            Some(_) => Some((
                vc.alloc_local::<u32>(ScratchpadKind::Ub, p)?,
                vc.alloc_local::<u32>(ScratchpadKind::Ub, p)?,
            )),
            None => None,
        };
        let plane = match self.next_plane {
            Some(_) => Some((
                vc.alloc_local::<u8>(ScratchpadKind::Ub, p)?,
                vc.alloc_local::<u8>(ScratchpadKind::Ub, p)?,
            )),
            None => None,
        };
        Ok(SplitBufs {
            p,
            val_in,
            val_gath,
            mk,
            mk_neg,
            idx,
            plane,
        })
    }

    fn store(
        &self,
        vc: &mut Core<'_>,
        b: &mut SplitBufs<E>,
        tile: &Tile<'_, i32>,
    ) -> SimResult<(EventTime, u64)> {
        let (n_true, total_ready) = tile.total.unwrap_or((0, 0));
        let n_true = n_true as usize;
        let mut done = tile.last.1;
        let mut kept = 0;
        for (j, valid) in tile_spans(tile.valid, b.p) {
            let off = tile.off + j;
            // The piece's exclusive offset: the tile's prefix, or the
            // inclusive offset of the element before the piece. Every
            // store it addresses waits for it; the false side's also
            // wait for the true count.
            let (base, base_ready) = match j {
                0 => tile.prefix,
                _ => vc.extract(tile.incl, j - 1)?,
            };
            let (true_deps, false_deps) = ([base_ready], [base_ready, total_ready]);
            let to_true = Side {
                at: base as usize,
                deps: &true_deps,
            };
            let to_false = Side {
                at: n_true + (off - base as usize),
                deps: &false_deps,
            };

            vc.copy_in(&mut b.val_in, 0, self.vals, off, valid, &[])?;
            vc.copy_in(&mut b.mk, 0, self.mask, off, valid, &[])?;
            if let Some((idx_buf, _)) = &mut b.idx {
                match self.idx_in {
                    Some(src) => vc.copy_in(idx_buf, 0, src, off, valid, &[])?,
                    None => vc.viota(idx_buf, 0, valid, off as u32)?,
                };
            }

            // True side.
            let (c, ev) =
                to_true.store(vc, &mut b.val_gath, &b.val_in, &b.mk, valid, self.vals_out)?;
            debug_assert!(!self.false_side || to_true.at + c <= n_true);
            (kept, done) = (kept + c, done.max(ev));
            if let (Some(outi), Some((idx_buf, idx_gath))) = (self.idx_out, &mut b.idx) {
                let (ci, ev) = to_true.store(vc, idx_gath, idx_buf, &b.mk, valid, outi)?;
                debug_assert_eq!(ci, c);
                done = done.max(ev);
            }

            // False side.
            if let Some(mk_neg) = &mut b.mk_neg {
                vc.vcompare_scalar(mk_neg, &b.mk, 0, valid, CmpMode::Eq, 0u8, 0)?;
                let (cf, ev) =
                    to_false.store(vc, &mut b.val_gath, &b.val_in, mk_neg, valid, self.vals_out)?;
                debug_assert_eq!(cf, valid - c);
                (kept, done) = (kept + cf, done.max(ev));
                if let (Some(outi), Some((idx_buf, idx_gath))) = (self.idx_out, &mut b.idx) {
                    let (cfi, ev) = to_false.store(vc, idx_gath, idx_buf, mk_neg, valid, outi)?;
                    debug_assert_eq!(cfi, cf);
                    done = done.max(ev);
                }
            }

            // Next plane: both sides have consumed `val_in`, so the
            // mask computation may clobber it.
            if let (Some(np), Some((nm, nm_gath))) = (&self.next_plane, &mut b.plane) {
                (np.compute)(vc, &mut b.val_in, nm, valid)?;
                let (_, ev) = to_true.store(vc, nm_gath, nm, &b.mk, valid, np.out)?;
                done = done.max(ev);
                if let Some(mk_neg) = &b.mk_neg {
                    let (_, ev) = to_false.store(vc, nm_gath, nm, mk_neg, valid, np.out)?;
                    done = done.max(ev);
                }
            }
        }
        // Reads: values, mask and input indices of every element;
        // writes: value, index and next-plane mask of every kept one.
        let idx_in = if self.idx_in.is_some() { 4 } else { 0 };
        let idx_out = if self.idx_out.is_some() { 4 } else { 0 };
        let plane = usize::from(self.next_plane.is_some());
        let bytes = tile.valid * (E::SIZE + 1 + idx_in) + kept * (E::SIZE + idx_out + plane);
        Ok((done, bytes as u64))
    }

    fn close(&self, vc: &mut Core<'_>, b: SplitBufs<E>) -> SimResult<()> {
        if let Some((nm, nm_gath)) = b.plane {
            vc.free_local(nm)?;
            vc.free_local(nm_gath)?;
        }
        if let Some((idx_buf, idx_gath)) = b.idx {
            vc.free_local(idx_buf)?;
            vc.free_local(idx_gath)?;
        }
        if let Some(mk_neg) = b.mk_neg {
            vc.free_local(mk_neg)?;
        }
        vc.free_local(b.val_in)?;
        vc.free_local(b.val_gath)?;
        vc.free_local(b.mk)
    }
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
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Elements per piece of a split store needing `bytes_per_elem` UB
    /// bytes per element ([`piece_bytes`]) on tile dimension `s`.
    pub(crate) fn store_piece(
        spec: &ChipSpec,
        s: usize,
        bytes_per_elem: usize,
    ) -> SimResult<usize> {
        piece_len(scan::mcscan::store_ub::<i16, i32>(spec, s), bytes_per_elem)
    }

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
        let run = split_ind(&spec, &gm, &x, &m, 16).unwrap();
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
            let run = split_ind(&spec, &gm, &x, &m, 16).unwrap();
            assert_eq!(run.n_true, if flag == 1 { 500 } else { 0 });
            assert_eq!(run.values.to_vec(), data);
            assert_eq!(run.indices.to_vec(), (0..500u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn stability_with_duplicates() {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        // Value 7 appears at indices 0, 2, 4; value 3 at 1, 3.
        let data: Vec<u16> = vec![7, 3, 7, 3, 7];
        let mask = vec![1u8, 0, 1, 0, 0];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
        let run = split_ind(&spec, &gm, &x, &m, 16).unwrap();
        assert_eq!(run.values.to_vec(), vec![7, 7, 3, 3, 7]);
        assert_eq!(run.indices.to_vec(), vec![0, 2, 1, 3, 4]);
    }

    #[test]
    fn length_mismatch_rejected() {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let x = GlobalTensor::from_slice(&gm, &[1u16, 2]).unwrap();
        let m = GlobalTensor::from_slice(&gm, &[1u8, 0, 1]).unwrap();
        assert!(split_ind(&spec, &gm, &x, &m, 16).is_err());
    }

    #[test]
    fn empty_input() {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let x = GlobalTensor::<u16>::new(&gm, 0).unwrap();
        let m = GlobalTensor::<u8>::new(&gm, 0).unwrap();
        let run = split_ind(&spec, &gm, &x, &m, 16).unwrap();
        assert_eq!(run.n_true, 0);
        assert!(run.values.to_vec().is_empty());
    }

    #[test]
    fn split_is_one_launch_with_one_barrier() {
        let (spec, gm) = setup();
        let n = 2000;
        let data: Vec<u16> = (0..n as u16).collect();
        let mask: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
        let (run, profile) =
            ascend_sim::prof::with_profiling(&gm, || split_ind(&spec, &gm, &x, &m, 16).unwrap());
        assert_eq!(run.report.sync_rounds, 1, "MCScan's barrier is counted");
        let names: Vec<&str> = profile.kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, ["MCScanSplit"]);
        assert_eq!(run.report.elements, n as u64);
    }

    #[test]
    fn a_store_with_no_room_is_a_typed_error() {
        // s = 16 on a 1546 B UB: propagation's single-buffered queue
        // (512 B) and buffer (1 KB) leave 10 bytes, less than one
        // element of the split store needs.
        let spec = ChipSpec {
            ub_capacity: 1536 + 10,
            ..ChipSpec::tiny()
        };
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        assert_eq!(scan::mcscan::store_ub::<i16, i32>(&spec, 16), 10);
        let x = GlobalTensor::from_slice(&gm, &[1u16; 300]).unwrap();
        let m = GlobalTensor::from_slice(&gm, &[1u8; 300]).unwrap();
        let err = split_ind(&spec, &gm, &x, &m, 16).err();
        assert!(
            matches!(err, Some(SimError::ScratchpadOverflow { .. })),
            "{err:?}"
        );
    }

    /// Split and compress of `data` by `mask` at tile dimension `s` on
    /// the tiny chip cut to `ai_cores` AI cores, checked bit for bit
    /// against [`reference_split`].
    fn check_fused(data: &[u32], mask: &[u8], s: usize, ai_cores: u32) {
        let (spec, gm) = crate::tests::tiny_with_cores(ai_cores);
        let case = format!("n = {}, s = {s}, ai_cores = {ai_cores}", data.len());
        let x = GlobalTensor::from_slice(&gm, data).unwrap();
        let m = GlobalTensor::from_slice(&gm, mask).unwrap();
        let (ev, ei, ent) = reference_split(data, mask);
        let run = split_ind(&spec, &gm, &x, &m, s).unwrap();
        assert_eq!(run.n_true, ent, "{case}");
        assert_eq!(run.values.to_vec(), ev, "{case}");
        assert_eq!(run.indices.to_vec(), ei, "{case}");
        let comp = crate::compress::compress(&spec, &gm, &x, &m, s).unwrap();
        assert_eq!(comp.n_true, ent, "{case}");
        assert_eq!(comp.values.to_vec(), &ev[..ent], "{case}");
    }

    #[test]
    fn fused_store_matches_reference_around_piece_and_tile() {
        // At s = 32 the tiny chip's tiles (ℓ = 1024) hold several store
        // pieces for split and compress of u32 values, so pieces start
        // inside a segment (an `extract`ed base) as well as at its offset
        // 0 (the segment's prefix). Phase II's chunks are ranges of
        // s-element rows over 2 (1 AI core) or 4 (2 AI cores) vector cores.
        let (spec, _) = setup();
        let (s, l) = (32, 1024);
        let split_p = store_piece(&spec, s, piece_bytes(4, true, true, false)).unwrap();
        let compress_p = store_piece(&spec, s, piece_bytes(4, false, false, false)).unwrap();
        assert!(split_p < l && compress_p < l, "{split_p} {compress_p}");
        let mut lengths = vec![l - 1, l, l + 1, 3 * l + 7];
        for p in [split_p, compress_p] {
            lengths.extend([p - 1, p, p + 1]);
        }
        // Fewer rows than chunks (3 rows over 4 chunks leaves one empty)
        // and one element either side of a row per chunk.
        lengths.extend([2 * s + 5, 2 * s - 1, 2 * s + 1, 4 * s - 1, 4 * s + 1]);
        // 47 rows: over 2 chunks the second starts at row 24, mid-tile,
        // and its one segment crosses the cube tile at row 32; over 4
        // chunks the third (rows 24..36) does.
        lengths.push(1500);
        let mut rng = StdRng::seed_from_u64(20);
        for n in lengths {
            let data: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
            let random: Vec<u8> = (0..n).map(|_| u8::from(rng.gen_bool(0.5))).collect();
            for mask in [vec![1u8; n], vec![0u8; n], random] {
                for ai_cores in [1, 2] {
                    check_fused(&data, &mask, s, ai_cores);
                }
            }
        }
    }
}
