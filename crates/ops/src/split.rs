//! **SplitInd**: stable split by a boolean mask, with original indices.
//!
//! Split reorganizes `x` so that all elements whose mask flag is true
//! come first (in order), followed by all elements whose flag is false
//! (in order). The paper builds it from an exclusive int8 MCScan and a
//! `GatherMask` scatter. The scatter reads one offset per run and piece,
//! not the scan, so here the split only counts, in **one launch** on all
//! AI cores over [`scan::MaskCounts`]:
//!
//! 1. phase I: each vector core reduces the mask over its chunk (an
//!    equal element range per vector core) into `r`, then `SyncAll`;
//! 2. phase II: each vector core reads its chunk's offset and the true
//!    count from `r` and walks its chunk piece by piece. It gathers a
//!    piece's true elements with `GatherMask`, stores them at the true
//!    run's base and advances the base by the gathered count, read on
//!    the scalar pipe; the false run, based after the true count, goes
//!    the same way. Original indices are materialized with
//!    `CreateVecIndex` and gathered alongside the values.
//!
//! The same walk over `2^r` runs is the `2^r`-way split of an `r`-bit
//! radix-sort pass, whose masks are not stored but made from the keys
//! ([`scan::Digit`]): phase I isolates each piece's digit with one `And`
//! and counts a `Compare` per run but the last
//! ([`MaskCounts::reduce_digits`]), and the scatter isolates the digit
//! again and makes each run's mask, the last one's too, with one
//! `Compare` into one mask buffer.
//!
//! After each chunk walk the host checks it against phase I, at no
//! simulated cost: every run advanced by its mask's count in `r` (the
//! last run by the rest of the chunk), and on the chunk that ends the
//! input every mask's run ends where the next run starts. A mismatch is
//! a [`SimError::AccountingViolation`].

use ascend_sim::mem::GlobalMemory;
use ascend_sim::KernelReport;
use ascendc::{
    launch, BlockCtx, ChipSpec, CmpMode, Core, EventTime, GlobalTensor, LocalTensor,
    ScratchpadKind, SimError, SimResult, SpanArgs,
};
use dtypes::Element;
use scan::{tile_spans, Chunk, Digit, MaskCounts};
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

/// Stable split of `x` by `mask` (`1` = first partition), as one launch
/// on all of the chip's AI cores. Returns the partitioned values, their
/// original indices, and the true count.
pub fn split_ind<E: Element>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<E>,
    mask: &GlobalTensor<u8>,
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
        masks: Masks::Gm(mask),
        vals_out: &values,
        idx_out: Some(&indices),
        false_side: true,
    }
    .launch(spec, gm)?;
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

/// Where a split's masks come from.
pub(crate) enum Masks<'a, E: Element> {
    /// One byte mask of `vals.len()` elements in GM: a non-zero byte
    /// selects the first run (SplitInd's true side).
    Gm(&'a GlobalTensor<u8>),
    /// A radix digit of the values: run `r` takes the values whose digit
    /// is the digit's `r`-th. Only a split with a false side takes one:
    /// phase I counts every run but the last.
    Digit(&'a Digit<E>),
}

/// Every split — SplitInd, Compress, the radix-sort passes:
/// distributes elements (and optionally their indices) into one run per
/// counted mask, after the totals of the runs before it, and — when
/// `false_side` is set — the elements no counted mask selects into a
/// last run after them. With a stored mask the runs are SplitInd's true
/// and false partitions; with a digit, one run per digit value.
///
/// `masks`: where the runs' masks come from (see [`Masks`]).
///
/// `idx_in`: `None` materializes fresh indices (`CreateVecIndex`);
/// `Some(t)` gathers from an existing index array (radix-sort passes
/// permute previously-permuted indices). Without `idx_out` no indices
/// are touched.
pub(crate) struct SplitStore<'a, E: Element> {
    pub vals: &'a GlobalTensor<E>,
    pub idx_in: Option<&'a GlobalTensor<u32>>,
    pub masks: Masks<'a, E>,
    pub vals_out: &'a GlobalTensor<E>,
    pub idx_out: Option<&'a GlobalTensor<u32>>,
    pub false_side: bool,
}

impl<E: Element> SplitStore<'_, E> {
    /// Runs the split as one launch on all AI cores and returns the first
    /// mask's total and the launch's report.
    pub(crate) fn launch(
        self,
        spec: &ChipSpec,
        gm: &Arc<GlobalMemory>,
    ) -> SimResult<(usize, KernelReport)> {
        let counts = MaskCounts::new("Split", spec, gm, self.vals.len(), self.masks())?;
        let report = launch(spec, gm, spec.ai_cores, "Split", |ctx| {
            self.pass(ctx, &counts)
        })?;
        Ok((counts.total(0)?, report))
    }

    /// One split inside a launch on all AI cores: phase I counts the
    /// masks into `counts`, a `SyncAll`, then phase II scatters every
    /// chunk.
    pub(crate) fn pass(&self, ctx: &mut BlockCtx<'_>, counts: &MaskCounts) -> SimResult<()> {
        let phase = ctx.span_begin("Phase I");
        match self.masks {
            Masks::Gm(mask) => counts.reduce(ctx, mask)?,
            Masks::Digit(digit) => counts.reduce_digits(ctx, self.vals, digit)?,
        }
        ctx.span_end(phase);
        ctx.sync_all()?;
        let phase = ctx.span_begin("Phase II");
        let totals = self.false_side || self.masks() > 1;
        counts.walk(ctx, totals, |vc, chunk| self.scatter(vc, chunk, counts))?;
        ctx.span_end(phase);
        Ok(())
    }

    /// How many masks the split counts.
    fn masks(&self) -> usize {
        match self.masks {
            Masks::Gm(_) => 1,
            Masks::Digit(digit) => digit.runs() - 1,
        }
    }

    /// Phase II on the vector core that owns `chunk`: walks the chunk
    /// piece by piece, gathering each run's elements into place and
    /// advancing the run by the gathered count, then checks the walk.
    fn scatter(&self, vc: &mut Core<'_>, chunk: &Chunk, counts: &MaskCounts) -> SimResult<()> {
        let mut b = self.open(vc, chunk.range.len())?;
        let mut runs = self.runs(chunk);
        let begin: Vec<usize> = runs.iter().map(|run| run.at).collect();
        for (off, valid) in tile_spans(chunk.range.len(), b.p)? {
            let off = chunk.range.start + off;
            let piece = vc.span_begin("tile");
            let mut done = vc.copy_in(&mut b.val_in, 0, self.vals, off, valid, &[])?;
            if let Masks::Gm(mask) = self.masks {
                done = done.max(vc.copy_in(&mut b.mk, 0, mask, off, valid, &[])?);
            }
            if let Some((idx_buf, _)) = &mut b.idx {
                done = done.max(match self.idx_in {
                    Some(src) => vc.copy_in(idx_buf, 0, src, off, valid, &[])?,
                    None => vc.viota(idx_buf, 0, valid, off as u32)?,
                });
            }
            if let (Masks::Digit(digit), Some(dig)) = (&self.masks, &mut b.dig) {
                digit.isolate(vc, dig, &b.val_in, valid)?;
            } else if let Some(mk_neg) = &mut b.mk_neg {
                // The false run's mask: what the mask does not select.
                vc.vcompare_scalar(mk_neg, &b.mk, 0, valid, CmpMode::Eq, 0u8, 0)?;
            }

            let mut gathered = Vec::with_capacity(runs.len());
            for (r, run) in runs.iter().enumerate() {
                let mk = match (&self.masks, &b.dig, &b.mk_neg) {
                    (Masks::Digit(digit), Some(dig), _) => {
                        digit.select(vc, &mut b.mk, dig, valid, r)?;
                        &b.mk
                    }
                    (_, _, Some(mk_neg)) if r == 1 => mk_neg,
                    _ => &b.mk,
                };
                let (c, ready, ev) =
                    run.scatter(vc, &mut b.val_gath, &b.val_in, mk, valid, self.vals_out)?;
                // The count addresses the run's next store.
                gathered.push((c, vc.gather_count(ready, run.ready)?));
                done = done.max(ev);
                if let (Some(outi), Some((idx_buf, idx_gath))) = (self.idx_out, &mut b.idx) {
                    let (_, _, ev) = run.scatter(vc, idx_gath, idx_buf, mk, valid, outi)?;
                    done = done.max(ev);
                }
            }

            let mut kept = 0;
            for (run, (c, ready)) in runs.iter_mut().zip(gathered) {
                (run.at, run.ready, kept) = (run.at + c, ready, kept + c);
            }
            // Reads: values, the stored mask and input indices of every
            // element; writes: value and index of every kept one.
            let mask_in = match self.masks {
                Masks::Gm(_) => 1,
                Masks::Digit(_) => 0,
            };
            let idx_in = if self.idx_in.is_some() { 4 } else { 0 };
            let idx_out = if self.idx_out.is_some() { 4 } else { 0 };
            let bytes = valid * (E::SIZE + mask_in + idx_in) + kept * (E::SIZE + idx_out);
            vc.span_args(
                piece,
                SpanArgs {
                    bytes: bytes as u64,
                    kind: "scatter",
                    queue_depth: 1,
                },
            );
            vc.span_end_at(piece, done);
        }
        self.close(vc, b)?;
        self.check(chunk, counts, &begin, &runs)
    }

    /// Where `chunk`'s runs start: mask `d`'s after the totals of the
    /// masks before it plus its own count before the chunk; the last run
    /// after all mask totals plus the chunk's elements before it that no
    /// mask selected. Every address waits for the counts it sums.
    fn runs(&self, chunk: &Chunk) -> Vec<Run> {
        let mut runs = Vec::with_capacity(chunk.before.len() + 1);
        let (mut start, mut start_ready) = (0usize, 0);
        let (mut taken, mut taken_ready) = (0usize, 0);
        for (d, &(before, ready)) in chunk.before.iter().enumerate() {
            runs.push(Run {
                at: start + before as usize,
                ready: ready.max(start_ready),
            });
            (taken, taken_ready) = (taken + before as usize, taken_ready.max(ready));
            if let Some(totals) = &chunk.totals {
                let (total, ready) = totals[d];
                (start, start_ready) = (start + total as usize, start_ready.max(ready));
            }
        }
        if self.false_side {
            runs.push(Run {
                at: start + chunk.range.start - taken,
                ready: start_ready.max(taken_ready),
            });
        }
        runs
    }

    /// Checks a chunk walk against phase I, on the host: each run moved
    /// by its mask's count in the chunk (the last run by the rest of the
    /// chunk), and on the chunk that ends the input each mask's run ends
    /// where the next run starts.
    fn check(
        &self,
        chunk: &Chunk,
        counts: &MaskCounts,
        begin: &[usize],
        runs: &[Run],
    ) -> SimResult<()> {
        let rest = chunk.range.len().wrapping_sub(chunk.counts.iter().sum());
        let want = chunk
            .counts
            .iter()
            .copied()
            .chain(self.false_side.then_some(rest));
        let ends_input = chunk.range.end == self.vals.len();
        let mut next = 0;
        for (d, ((run, &from), want)) in runs.iter().zip(begin).zip(want).enumerate() {
            let moved = run.at - from;
            let last = d < chunk.counts.len() && ends_input;
            if last {
                next += counts.total(d)?;
            }
            if moved != want || (last && run.at != next) {
                return Err(SimError::AccountingViolation {
                    what: "split-counts",
                    detail: format!(
                        "run {d} of chunk {:?} moved {moved} to {}; phase I counted {want}",
                        chunk.range, run.at
                    ),
                });
            }
        }
        Ok(())
    }

    /// UB bytes per element the split's masks take in a piece: the
    /// stored mask and the false side's, or the isolated digits and one
    /// run mask.
    fn mask_bytes(&self) -> usize {
        match self.masks {
            Masks::Gm(_) => 1 + usize::from(self.false_side),
            Masks::Digit(_) => E::SIZE + 1,
        }
    }

    /// One vector core's split buffers for a chunk of `len` elements.
    fn open(&self, vc: &mut Core<'_>, len: usize) -> SimResult<SplitBufs<E>> {
        let bytes = piece_bytes(E::SIZE, self.mask_bytes(), self.idx_out.is_some());
        let ub_left = vc.spec().ub_capacity - vc.scratch_in_use(ScratchpadKind::Ub);
        let p = piece_len(ub_left, bytes)?.min(len);
        let val_in = vc.alloc_local::<E>(ScratchpadKind::Ub, p)?;
        let val_gath = vc.alloc_local::<E>(ScratchpadKind::Ub, p)?;
        let mk = vc.alloc_local::<u8>(ScratchpadKind::Ub, p)?;
        let (mk_neg, dig) = match self.masks {
            Masks::Gm(_) if self.false_side => {
                (Some(vc.alloc_local::<u8>(ScratchpadKind::Ub, p)?), None)
            }
            Masks::Gm(_) => (None, None),
            Masks::Digit(_) => (None, Some(vc.alloc_local::<E>(ScratchpadKind::Ub, p)?)),
        };
        let idx = match self.idx_out {
            Some(_) => Some((
                vc.alloc_local::<u32>(ScratchpadKind::Ub, p)?,
                vc.alloc_local::<u32>(ScratchpadKind::Ub, p)?,
            )),
            None => None,
        };
        Ok(SplitBufs {
            p,
            val_in,
            val_gath,
            mk,
            mk_neg,
            dig,
            idx,
        })
    }

    /// Frees one vector core's buffers.
    fn close(&self, vc: &mut Core<'_>, b: SplitBufs<E>) -> SimResult<()> {
        if let Some(dig) = b.dig {
            vc.free_local(dig)?;
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

/// UB bytes per element of a split piece whose masks take `mask_bytes`:
/// value in + gathered, the masks, and index in + gathered.
pub(crate) fn piece_bytes(elem_size: usize, mask_bytes: usize, indices: bool) -> usize {
    2 * elem_size + mask_bytes + if indices { 8 } else { 0 }
}

/// Elements per piece of a split needing `bytes_per_elem` UB bytes per
/// element, out of `ub_left` free bytes: the largest power of two that
/// fits, so a chunk takes as few pieces as UB allows; a typed error when
/// not one element does.
pub(crate) fn piece_len(ub_left: usize, bytes_per_elem: usize) -> SimResult<usize> {
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

/// Where a run's next elements go: their offset in the output and the
/// scalar read that address waits for.
struct Run {
    at: usize,
    ready: EventTime,
}

impl Run {
    /// Gathers the elements of `src[..len]` under `mask` into `gath` and
    /// stores them at `dst[self.at..]`. Returns the count, the gather's
    /// completion and the store's (0 when nothing was gathered).
    fn scatter<T: Element>(
        &self,
        vc: &mut Core<'_>,
        gath: &mut LocalTensor<T>,
        src: &LocalTensor<T>,
        mask: &LocalTensor<u8>,
        len: usize,
        dst: &GlobalTensor<T>,
    ) -> SimResult<(usize, EventTime, EventTime)> {
        let (count, gathered) = vc.gather_mask(gath, src, mask, 0, len)?;
        let done = match count {
            0 => 0,
            _ => vc.copy_out(dst, self.at, gath, 0, count, &[self.ready])?,
        };
        Ok((count, gathered, done))
    }
}

/// One vector core's split buffers; `p` elements each. A split over a
/// stored mask holds it in `mk` and the false side's in `mk_neg`; a
/// digit split holds the isolated digits in `dig` and one run's mask at
/// a time in `mk`.
struct SplitBufs<E: Element> {
    p: usize,
    val_in: LocalTensor<E>,
    val_gath: LocalTensor<E>,
    mk: LocalTensor<u8>,
    mk_neg: Option<LocalTensor<u8>>,
    dig: Option<LocalTensor<E>>,
    idx: Option<(LocalTensor<u32>, LocalTensor<u32>)>,
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

    /// Elements per piece of a split needing `bytes_per_elem` UB bytes
    /// per element ([`piece_bytes`]) on a chunk longer than that: phase
    /// II has all of UB.
    pub(crate) fn store_piece(spec: &ChipSpec, bytes_per_elem: usize) -> usize {
        piece_len(spec.ub_capacity, bytes_per_elem).unwrap()
    }

    /// Elements per scatter piece of a radix-sort pass over keys of
    /// `key_size` bytes, whatever the digit width: the isolated digits
    /// and one run mask next to the keys and indices.
    pub(crate) fn sort_piece(spec: &ChipSpec, key_size: usize) -> usize {
        store_piece(spec, piece_bytes(key_size, key_size + 1, true))
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
        let run = split_ind(&spec, &gm, &x, &m).unwrap();
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
            let run = split_ind(&spec, &gm, &x, &m).unwrap();
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
        let run = split_ind(&spec, &gm, &x, &m).unwrap();
        assert_eq!(run.values.to_vec(), vec![7, 7, 3, 3, 7]);
        assert_eq!(run.indices.to_vec(), vec![0, 2, 1, 3, 4]);
    }

    #[test]
    fn length_mismatch_rejected() {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let x = GlobalTensor::from_slice(&gm, &[1u16, 2]).unwrap();
        let m = GlobalTensor::from_slice(&gm, &[1u8, 0, 1]).unwrap();
        assert!(split_ind(&spec, &gm, &x, &m).is_err());
    }

    #[test]
    fn empty_input() {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let x = GlobalTensor::<u16>::new(&gm, 0).unwrap();
        let m = GlobalTensor::<u8>::new(&gm, 0).unwrap();
        let run = split_ind(&spec, &gm, &x, &m).unwrap();
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
            ascend_sim::prof::with_profiling(&gm, || split_ind(&spec, &gm, &x, &m).unwrap());
        assert_eq!(run.report.sync_rounds, 1, "phase I's barrier is counted");
        let names: Vec<&str> = profile.kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, ["Split"]);
        assert_eq!(run.report.elements, n as u64);
    }

    #[test]
    fn a_store_with_no_room_is_a_typed_error() {
        // One AI core (two vector cores) with a 13 B UB: phase I's
        // one-element pieces take 9 B (mask byte, widened copy, count)
        // and phase II's offset read 8 B, but one element of a u16
        // split needs 14 B (value in and gathered, mask, false-side
        // mask, index in and gathered).
        let spec = ChipSpec {
            ai_cores: 1,
            ub_capacity: 13,
            ..ChipSpec::tiny()
        };
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        assert_eq!(piece_bytes(2, 2, true), 14);
        let x = GlobalTensor::from_slice(&gm, &[1u16; 300]).unwrap();
        let m = GlobalTensor::from_slice(&gm, &[1u8; 300]).unwrap();
        let err = split_ind(&spec, &gm, &x, &m).err();
        assert!(
            matches!(
                err,
                Some(SimError::ScratchpadOverflow { requested: 14, .. })
            ),
            "{err:?}"
        );
    }

    /// Split and compress of `data` by `mask`, every sort width and
    /// top-k of `data` on the tiny chip cut to `ai_cores` AI cores,
    /// checked bit for bit against the host.
    fn check_fused(data: &[u32], mask: &[u8], ai_cores: u32) {
        let (spec, gm) = crate::tests::tiny_with_cores(ai_cores);
        let case = format!("n = {}, ai_cores = {ai_cores}", data.len());
        let x = GlobalTensor::from_slice(&gm, data).unwrap();
        let m = GlobalTensor::from_slice(&gm, mask).unwrap();
        let (ev, ei, ent) = reference_split(data, mask);
        let run = split_ind(&spec, &gm, &x, &m).unwrap();
        assert_eq!(run.n_true, ent, "{case}");
        assert_eq!(run.values.to_vec(), ev, "{case}");
        assert_eq!(run.indices.to_vec(), ei, "{case}");
        let comp = crate::compress::compress(&spec, &gm, &x, &m).unwrap();
        assert_eq!(comp.n_true, ent, "{case}");
        assert_eq!(comp.values.to_vec(), &ev[..ent], "{case}");
    }

    /// Every sort width and top-k of `data` on the tiny chip cut to
    /// `ai_cores` AI cores, checked against the host: the stable argsort,
    /// and the top half as a set.
    fn check_sort_and_topk(data: &[u32], ai_cores: u32) {
        use crate::radix_sort::{radix_sort, SortOrder};
        let (spec, gm) = crate::tests::tiny_with_cores(ai_cores);
        let case = format!("n = {}, ai_cores = {ai_cores}", data.len());
        let x = GlobalTensor::from_slice(&gm, data).unwrap();
        let mut idx: Vec<u32> = (0..data.len() as u32).collect();
        idx.sort_by_key(|&i| data[i as usize]);
        for bits in [1, 2, 4] {
            let run = radix_sort(&spec, &gm, &x, bits, SortOrder::Ascending).unwrap();
            assert_eq!(run.indices.to_vec(), idx, "{case}, {bits} bits");
        }
        let k = data.len().div_ceil(2);
        let run = crate::topk::topk(&spec, &gm, &x, k).unwrap();
        let mut got = run.values.to_vec();
        got.sort_unstable();
        let mut want = data.to_vec();
        want.sort_unstable();
        assert_eq!(got, &want[data.len() - k..], "{case}");
    }

    #[test]
    fn fused_store_matches_reference_around_piece_and_tile() {
        // Phase II cuts each vector core's chunk (⌈n / cores⌉ elements,
        // the trailing ones possibly empty) into pieces of p elements:
        // piece p ± 1 and chunk c·p ± 1 lengths put a piece edge at, just
        // before and just after a chunk's end, and n below the 2 or 4
        // vector cores leaves trailing chunks empty.
        let (spec, _) = setup();
        let split_p = store_piece(&spec, piece_bytes(4, 2, true));
        let compress_p = store_piece(&spec, piece_bytes(4, 1, false));
        assert!(split_p < compress_p, "{split_p} {compress_p}");
        let mut lengths = vec![1, 2, 3, 5];
        for p in [split_p, compress_p] {
            for cores in [2, 4] {
                lengths.extend([p - 1, p, p + 1, cores * p - 1, cores * p, cores * p + 1]);
            }
        }
        lengths.sort_unstable();
        lengths.dedup();
        let mut rng = StdRng::seed_from_u64(20);
        for n in lengths {
            let data: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
            let random: Vec<u8> = (0..n).map(|_| u8::from(rng.gen_bool(0.5))).collect();
            for ai_cores in [1, 2] {
                for mask in [&vec![1u8; n], &vec![0u8; n], &random] {
                    check_fused(&data, mask, ai_cores);
                }
            }
        }
        // The sorts (every digit width takes the same pieces) and top-k
        // around their own pieces and chunks.
        let p = sort_piece(&spec, 4);
        for n in [
            1,
            3,
            p - 1,
            p,
            p + 1,
            2 * p - 1,
            2 * p + 1,
            4 * p - 1,
            4 * p + 1,
        ] {
            let data: Vec<u32> = (0..n).map(|_| rng.gen::<u32>() % 1000).collect();
            for ai_cores in [1, 2] {
                check_sort_and_topk(&data, ai_cores);
            }
        }
    }
}
