//! The stages every cube scan kernel in this crate is built from.
//!
//! All of them rest on Eq. 1: an `ℓ = s²` tile viewed as an `s × s`
//! matrix `A` gives its row scans as `A @ U_s` and its row sums as
//! `A @ 1_s`. The kernels differ only in how they spread tiles over
//! cores and how partial sums travel; the per-tile work is here, once:
//!
//! * [`check_tile`] / [`check_blocks`] — the one `s` and grid validator;
//! * [`HandOffs`] — the flag-id layout of per-tile cube→vector
//!   hand-offs, including the flag-file size check;
//! * [`CubePass`] — the cube tile pass: L0B constant, adaptive L0A/L0C
//!   queues, zero-padded load, `mmad`, caller-supplied store;
//! * [`Ul1Pass`] — ScanUL1's three-matmul L1/L0 tile schedule;
//! * [`propagate_rows`] / [`carry_through`] — row propagation of a
//!   running partial through a UB tile;
//! * [`reduce_chunk`], [`chunk_offset`], [`store_scalar`] — chunk
//!   reduction into `r[chunk]` and the offset read of `r[..chunk]`
//!   (plus, on request, the total of all of `r`);
//! * [`MaskCounts`] — the same two over one equal element range per
//!   vector core: the counts behind every split of the `ops` crate.
//!
//! A stage's instruction stream is part of every report built on it:
//! changing the order or the dependencies of its instructions moves the
//! simulated numbers of every kernel that uses it.

use crate::triangular::ScanConstants;
use crate::util::{partition, tile_spans};
use ascend_sim::mem::GlobalMemory;
use ascendc::{
    BlockCtx, ChipSpec, Core, EventTime, FlagFile, GlobalTensor, LocalTensor, ScratchpadKind,
    SimError, SimResult, SpanArgs, TQue,
};
use dtypes::{CubeInput, Element, Numeric};
use std::ops::Range;
use std::sync::Arc;

/// Checks a cube kernel's tile dimension: `s` must be a positive
/// multiple of 16, the cube's fractal edge.
pub(crate) fn check_tile(what: &str, s: usize) -> SimResult<()> {
    if s == 0 || !s.is_multiple_of(16) {
        return Err(SimError::InvalidArgument(format!(
            "{what}: s must be a positive multiple of 16, got {s}"
        )));
    }
    Ok(())
}

/// Checks that an integer intermediate `M` holds a row-local scan of
/// `s` elements of `T` (`A @ U_s` leaves one per row): `s · T::MAX` must
/// not exceed `M::MAX`, or the tile scans would wrap silently.
pub(crate) fn check_intermediate<T: Element, M: Element>(what: &str, s: usize) -> SimResult<()> {
    if let (Some(t), Some(m)) = (T::DTYPE.int_max(), M::DTYPE.int_max()) {
        if s as u64 * t > m {
            return Err(SimError::InvalidArgument(format!(
                "{what}: a row of s = {s} {} values sums to up to {}, more than {} holds ({m})",
                T::DTYPE,
                s as u64 * t,
                M::DTYPE
            )));
        }
    }
    Ok(())
}

/// Checks a kernel's grid: at least one block and, for kernels that do
/// not wave-multiplex, at most `max` (`None`: any positive count).
pub(crate) fn check_blocks(what: &str, blocks: u32, max: Option<u32>) -> SimResult<()> {
    match max {
        None if blocks == 0 => Err(SimError::InvalidArgument(format!(
            "{what}: blocks must be at least 1 (grids beyond the chip's AI cores \
             wave-multiplex onto the physical slots)"
        ))),
        Some(max) if blocks == 0 || blocks > max => Err(SimError::InvalidArgument(format!(
            "{what}: blocks {blocks} out of range 1..={max}"
        ))),
        _ => Ok(()),
    }
}

/// The flag-id layout of a kernel's per-tile cube→vector hand-offs: each
/// of `lanes` consumer lanes owns an equal slice of the block's flag
/// file, and a lane's `k`-th hand-off cycles through its slice. Every id
/// is a FIFO, so the cube's `k`-th set pairs with the lane's `k`-th wait
/// even when the cube runs several tiles ahead.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HandOffs {
    per_lane: u32,
}

impl HandOffs {
    /// The layout for `lanes` consumer lanes, or an error when the
    /// chip's flag file has fewer ids than lanes.
    pub(crate) fn new(what: &str, spec: &ChipSpec, lanes: u32) -> SimResult<Self> {
        if lanes == 0 || spec.flag_id_limit < lanes {
            return Err(SimError::InvalidArgument(format!(
                "{what}: the per-tile cube->vector hand-offs need at least {lanes} \
                 cross-core flag ids, the chip has {}",
                spec.flag_id_limit
            )));
        }
        Ok(HandOffs {
            per_lane: spec.flag_id_limit / lanes,
        })
    }

    fn id(self, lane: usize, k: usize) -> u32 {
        lane as u32 * self.per_lane + (k as u32 % self.per_lane)
    }

    /// Producer side: `CrossCoreSetFlag` for lane `lane`'s `k`-th tile
    /// once `after` retires.
    pub(crate) fn set(
        self,
        cube: &mut Core<'_>,
        flags: &FlagFile,
        lane: usize,
        k: usize,
        after: EventTime,
    ) -> SimResult<()> {
        cube.set_flag(flags, self.id(lane, k), &[after])?;
        Ok(())
    }

    /// Consumer side: `CrossCoreWaitFlag` for lane `lane`'s `k`-th tile;
    /// returns the core's resumption time.
    pub(crate) fn wait(
        self,
        vc: &mut Core<'_>,
        flags: &FlagFile,
        lane: usize,
        k: usize,
    ) -> SimResult<EventTime> {
        vc.wait_flag(flags, self.id(lane, k))
    }
}

/// The cube tile pass: one L0B constant (`U_s` for scans, `1_s` for row
/// sums) multiplied into every tile, with L0A/L0C double-buffered when
/// two tiles of the element width fit.
pub(crate) struct CubePass<T: CubeInput> {
    s: usize,
    depth: usize,
    lb: LocalTensor<T>,
    qa: TQue<T>,
    qc: TQue<T::Acc>,
}

impl<T: CubeInput> CubePass<T> {
    /// Loads `rhs` into L0B and sets up the L0A/L0C queues.
    pub(crate) fn new(cube: &mut Core<'_>, rhs: &GlobalTensor<T>, s: usize) -> SimResult<Self> {
        let l = s * s;
        let mut lb = cube.alloc_local::<T>(ScratchpadKind::L0B, l)?;
        cube.copy_in(&mut lb, 0, rhs, 0, l, &[])?;
        let depth = |size: usize, cap: usize| if 2 * l * size <= cap { 2 } else { 1 };
        let da = depth(T::SIZE, cube.spec().l0a_capacity);
        let dc = depth(<T::Acc as Element>::SIZE, cube.spec().l0c_capacity);
        let qa = TQue::<T>::new(cube, ScratchpadKind::L0A, da, l)?.named("qa(L0A)");
        let qc = TQue::<T::Acc>::new(cube, ScratchpadKind::L0C, dc, l)?.named("qc(L0C)");
        Ok(CubePass {
            s,
            depth: da,
            lb,
            qa,
            qc,
        })
    }

    /// Multiplies the `valid` elements of `x` at `src` (zero-padding a
    /// partial last row) by the L0B constant and hands the L0C result
    /// and its row count to `store`, which returns its completion event
    /// and the bytes the tile moved. Returns the store's completion —
    /// the tile's hand-off point.
    pub(crate) fn tile(
        &mut self,
        cube: &mut Core<'_>,
        x: &GlobalTensor<T>,
        src: usize,
        valid: usize,
        store: impl FnOnce(&mut Core<'_>, &LocalTensor<T::Acc>, usize) -> SimResult<(EventTime, u64)>,
    ) -> SimResult<EventTime> {
        let s = self.s;
        let rows = valid.div_ceil(s);
        let tile = cube.span_begin("tile");
        let mut la = self.qa.alloc_tensor()?;
        if valid < rows * s {
            cube.fill_local(&mut la, 0, rows * s, T::zero())?;
        }
        cube.copy_in(&mut la, 0, x, src, valid, &[])?;
        let mut lc = self.qc.alloc_tensor()?;
        let mm = cube.mmad::<T>(&mut lc, &mut la, &mut self.lb, rows, s, s, false)?;
        self.qa.free_tensor(la, mm);
        let (ev, bytes) = store(cube, &lc, rows)?;
        self.qc.free_tensor(lc, ev);
        cube.span_args(
            tile,
            SpanArgs {
                bytes,
                kind: "mmad",
                queue_depth: self.depth as u32,
            },
        );
        cube.span_end_at(tile, ev);
        Ok(ev)
    }

    /// Row scans of one tile: `x[off..off + valid] @ U_s`, cast to `D`
    /// into `y[off..off + valid]`.
    pub(crate) fn scan_tile<D: Numeric>(
        &mut self,
        cube: &mut Core<'_>,
        x: &GlobalTensor<T>,
        y: &GlobalTensor<D>,
        off: usize,
        valid: usize,
    ) -> SimResult<EventTime> {
        self.tile(cube, x, off, valid, |cube, lc, _| {
            let ev = cube.copy_out_cast::<T::Acc, D>(y, off, lc, 0, valid, &[])?;
            Ok((ev, (valid * (T::SIZE + D::SIZE)) as u64))
        })
    }

    /// Releases the L0B constant and both queues.
    pub(crate) fn finish(self, cube: &mut Core<'_>) -> SimResult<()> {
        cube.free_local(self.lb)?;
        self.qa.destroy(cube)?;
        self.qc.destroy(cube)
    }
}

/// ScanUL1's tile schedule (Algorithm 2): `U_s`, `L⁻_s` and `1_s` staged
/// in L1 once; per tile `C₁ = A @ 1_s` (cast through L1), `C₂ = A @ U_s`
/// and `C₂ += L⁻_s @ C₁`, through one L0B buffer reloaded three times,
/// an L0A queue holding `A` and then `L⁻_s`, and two L0C accumulators.
pub(crate) struct Ul1Pass<T: CubeInput> {
    s: usize,
    l1_u: LocalTensor<T>,
    l1_lm: LocalTensor<T>,
    l1_ones: LocalTensor<T>,
    l1_c1: LocalTensor<T>,
    qa: TQue<T>,
    lb: LocalTensor<T>,
    c1: LocalTensor<T::Acc>,
    c2: LocalTensor<T::Acc>,
}

impl<T: CubeInput> Ul1Pass<T> {
    /// Loads the three constants into L1 (Line 3) and allocates the L0
    /// buffers.
    pub(crate) fn new(cube: &mut Core<'_>, consts: &ScanConstants<T>) -> SimResult<Self> {
        let (s, l) = (consts.s, consts.s * consts.s);
        let mut l1_u = cube.alloc_local::<T>(ScratchpadKind::L1, l)?;
        let mut l1_lm = cube.alloc_local::<T>(ScratchpadKind::L1, l)?;
        let mut l1_ones = cube.alloc_local::<T>(ScratchpadKind::L1, l)?;
        cube.copy_in(&mut l1_u, 0, &consts.upper, 0, l, &[])?;
        cube.copy_in(&mut l1_lm, 0, &consts.strict_lower, 0, l, &[])?;
        cube.copy_in(&mut l1_ones, 0, &consts.ones, 0, l, &[])?;
        let l1_c1 = cube.alloc_local::<T>(ScratchpadKind::L1, l)?;
        let qa = TQue::<T>::new(cube, ScratchpadKind::L0A, 2, l)?.named("qa(L0A)");
        let lb = cube.alloc_local::<T>(ScratchpadKind::L0B, l)?;
        let c1 = cube.alloc_local::<T::Acc>(ScratchpadKind::L0C, l)?;
        let c2 = cube.alloc_local::<T::Acc>(ScratchpadKind::L0C, l)?;
        Ok(Ul1Pass {
            s,
            l1_u,
            l1_lm,
            l1_ones,
            l1_c1,
            qa,
            lb,
            c1,
            c2,
        })
    }

    /// Scans one tile, `x[off..off + valid]` into `y[off..off + valid]`
    /// (Lines 6-13); returns the store's completion event.
    pub(crate) fn scan_tile<O: Numeric>(
        &mut self,
        cube: &mut Core<'_>,
        x: &GlobalTensor<T>,
        y: &GlobalTensor<O>,
        off: usize,
        valid: usize,
    ) -> SimResult<EventTime> {
        let (s, l) = (self.s, self.s * self.s);
        let tile = cube.span_begin("tile");
        // Load x_l to L0A, zero-padding a partial tile (Line 6).
        let mut la = self.qa.alloc_tensor()?;
        if valid < l {
            cube.fill_local(&mut la, 0, l, T::zero())?;
        }
        cube.copy_in(&mut la, 0, x, off, valid, &[])?;

        // C1 = A @ 1_s (Line 7), staged to L1 as T (Line 8).
        cube.copy_local(&mut self.lb, 0, &self.l1_ones, 0, l)?;
        cube.mmad::<T>(&mut self.c1, &mut la, &mut self.lb, s, s, s, false)?;
        cube.copy_local_cast::<T::Acc, T>(&mut self.l1_c1, 0, &self.c1, 0, l)?;

        // C2 = A @ U_s (Lines 9-10); A is free afterwards.
        cube.copy_local(&mut self.lb, 0, &self.l1_u, 0, l)?;
        let mm2 = cube.mmad::<T>(&mut self.c2, &mut la, &mut self.lb, s, s, s, false)?;
        self.qa.free_tensor(la, mm2);

        // C2 += L^- @ C1 (Lines 11-12): L^- into L0A, C1 into L0B.
        let mut la2 = self.qa.alloc_tensor()?;
        cube.copy_local(&mut la2, 0, &self.l1_lm, 0, l)?;
        cube.copy_local(&mut self.lb, 0, &self.l1_c1, 0, l)?;
        let mm3 = cube.mmad::<T>(&mut self.c2, &mut la2, &mut self.lb, s, s, s, true)?;
        self.qa.free_tensor(la2, mm3);

        // Copy C2 to y in GM (Line 13).
        let ev = cube.copy_out_cast::<T::Acc, O>(y, off, &self.c2, 0, valid, &[])?;
        cube.span_args(
            tile,
            SpanArgs {
                bytes: (valid * (T::SIZE + O::SIZE)) as u64,
                kind: "mmad3",
                queue_depth: 2,
            },
        );
        cube.span_end_at(tile, ev);
        Ok(ev)
    }

    /// Releases every L1/L0 buffer.
    pub(crate) fn finish(self, cube: &mut Core<'_>) -> SimResult<()> {
        cube.free_local(self.c2)?;
        cube.free_local(self.c1)?;
        cube.free_local(self.lb)?;
        cube.free_local(self.l1_c1)?;
        cube.free_local(self.l1_ones)?;
        cube.free_local(self.l1_lm)?;
        cube.free_local(self.l1_u)?;
        self.qa.destroy(cube)
    }
}

/// Adds the running partial `carry` onto `buf[off..off + len]` and takes
/// the segment's new last element as the next partial: one `Adds`, one
/// scalar `extract`.
pub(crate) fn carry_through<O: Numeric>(
    vc: &mut Core<'_>,
    buf: &mut LocalTensor<O>,
    off: usize,
    len: usize,
    carry: &mut (O, EventTime),
) -> SimResult<()> {
    vc.vadds(buf, off, len, carry.0, carry.1)?;
    *carry = vc.extract(buf, off + len - 1)?;
    Ok(())
}

/// Row propagation: carries the partial through the first `valid`
/// elements of a UB tile, one `row`-element segment at a time (`row =
/// s` for the tile-local row scans of `A @ U_s`, `row = ℓ` for a tile
/// that is already fully scanned).
pub(crate) fn propagate_rows<O: Numeric>(
    vc: &mut Core<'_>,
    buf: &mut LocalTensor<O>,
    valid: usize,
    row: usize,
    carry: &mut (O, EventTime),
) -> SimResult<()> {
    for (off, len) in tile_spans(valid, row)? {
        carry_through(vc, buf, off, len, carry)?;
    }
    Ok(())
}

/// Stores one scalar, ready at `value.1`, to `r[idx]` through a
/// one-element UB buffer.
pub(crate) fn store_scalar<O: Numeric>(
    vc: &mut Core<'_>,
    r: &GlobalTensor<O>,
    idx: usize,
    value: (O, EventTime),
) -> SimResult<()> {
    let mut one = vc.alloc_local::<O>(ScratchpadKind::Ub, 1)?;
    vc.insert(&mut one, 0, value.0, value.1)?;
    vc.copy_out(r, idx, &one, 0, 1, &[])?;
    vc.free_local(one)
}

/// Chunk reduction: for each scanned input `(shift, idx)` of `inputs`,
/// loads each `(offset, len)` piece of `x` at `offset + shift` (at most
/// `piece` elements), widens it to `O` (`vcast`; int8 masks would
/// overflow their own type) and `ReduceSum`s it, chaining the running
/// total on the scalar pipe; then stores the total to `r[idx]`. The
/// inputs share one staging queue.
pub(crate) fn reduce_chunk<T: Numeric, O: Numeric>(
    vc: &mut Core<'_>,
    x: &GlobalTensor<T>,
    pieces: &[(usize, usize)],
    piece: usize,
    r: &GlobalTensor<O>,
    inputs: &[(usize, usize)],
) -> SimResult<()> {
    let din = if 2 * piece * T::SIZE + piece * O::SIZE + 64 <= vc.spec().ub_capacity {
        2
    } else {
        1
    };
    let mut qin = TQue::<T>::new(vc, ScratchpadKind::Ub, din, piece)?.named("qin(UB)");
    let mut acc = vc.alloc_local::<O>(ScratchpadKind::Ub, piece)?;
    for &(shift, idx) in inputs {
        let (mut total, mut total_ready) = (O::zero(), 0);
        for &(off, valid) in pieces {
            let tile = vc.span_begin("tile");
            let mut buf = qin.alloc_tensor()?;
            vc.copy_in(&mut buf, 0, x, shift + off, valid, &[])?;
            let cast_done = vc.vcast::<T, O>(&mut acc, &buf, 0, valid)?;
            qin.free_tensor(buf, cast_done);
            let (sum, ready) = vc.reduce_sum(&acc, 0, valid)?;
            total = total.add(sum);
            total_ready = vc.scalar_ops(1, &[ready, total_ready])?;
            vc.span_args(
                tile,
                SpanArgs {
                    bytes: (valid * T::SIZE) as u64,
                    kind: "reduce",
                    queue_depth: din as u32,
                },
            );
            vc.span_end_at(tile, total_ready);
        }
        store_scalar(vc, r, idx, (total, total_ready))?;
    }
    vc.free_local(acc)?;
    qin.destroy(vc)
}

/// A scalar and the time it is ready.
pub(crate) type Timed<O> = (O, EventTime);

/// Each scanned input's chunk offset and, on request, its total.
pub(crate) type ChunkOffsets<O> = (Vec<Timed<O>>, Option<Vec<Timed<O>>>);

/// The chunk offsets of phase 2: loads the reduction array `r` — one
/// row of `r.len() / inputs` chunk totals per scanned input — into UB
/// and sums, per row, its first `chunk` entries (zero for chunk 0).
/// With `total`, also sums each whole row — the scans' totals.
pub(crate) fn chunk_offset<O: Numeric>(
    vc: &mut Core<'_>,
    r: &GlobalTensor<O>,
    inputs: usize,
    chunk: usize,
    total: bool,
) -> SimResult<ChunkOffsets<O>> {
    let chunks = r.len() / inputs;
    let mut r_ub = vc.alloc_local::<O>(ScratchpadKind::Ub, r.len())?;
    vc.copy_in(&mut r_ub, 0, r, 0, r.len(), &[])?;
    let mut offsets = Vec::with_capacity(inputs);
    for row in 0..inputs {
        offsets.push(if chunk == 0 {
            (O::zero(), 0)
        } else {
            vc.reduce_sum(&r_ub, row * chunks, chunk)?
        });
    }
    let total = if total {
        let rows = (0..inputs).map(|row| vc.reduce_sum(&r_ub, row * chunks, chunks));
        Some(rows.collect::<SimResult<Vec<_>>>()?)
    } else {
        None
    };
    vc.free_local(r_ub)?;
    Ok((offsets, total))
}

/// Each vector core of block `block` with the chunk it owns
/// (`block · vec_per_core + v`).
pub(crate) fn chunk_cores<'c, 'a>(
    block: u32,
    vecs: &'c mut [Core<'a>],
) -> impl Iterator<Item = (usize, &'c mut Core<'a>)> {
    let first = block as usize * vecs.len();
    vecs.iter_mut()
        .enumerate()
        .map(move |(v, vc)| (first + v, vc))
}

/// The counts of a split: `masks` byte masks of `n` elements each (back
/// to back), cut into one equal element range — a chunk — per vector
/// core of the chip, and `r`, one count per mask and chunk.
///
/// A split pass runs inside any launch on all of the chip's AI cores:
/// [`MaskCounts::reduce`] as its phase I, a `SyncAll`, then
/// [`MaskCounts::walk`] as its phase II. A kernel may run further passes
/// on the same counts once a `SyncAll` has ordered one pass's reads of
/// `r` before the next pass's writes.
pub struct MaskCounts {
    n: usize,
    masks: usize,
    piece: usize,
    chunks: Vec<Range<usize>>,
    r: GlobalTensor<i32>,
}

/// One vector core's chunk in phase II of a split pass.
pub struct Chunk {
    /// The chunk's elements.
    pub range: Range<usize>,
    /// Each mask's count before the chunk, with the time it is ready.
    pub before: Vec<(i32, EventTime)>,
    /// Each mask's total with the time it is ready, when the walk asked
    /// for them.
    pub totals: Option<Vec<(i32, EventTime)>>,
    /// Each mask's count inside the chunk, as phase I left it in `r`,
    /// read on the host: what a walk checks itself against.
    pub counts: Vec<usize>,
}

impl MaskCounts {
    /// The counts of `masks` masks of `n` elements each for kernel
    /// `name` on `spec`'s vector cores.
    pub fn new(
        name: &str,
        spec: &ChipSpec,
        gm: &Arc<GlobalMemory>,
        n: usize,
        masks: usize,
    ) -> SimResult<Self> {
        let cores = spec.total_vec_cores() as usize;
        let chunks = partition(name, n, cores)?
            .into_iter()
            .map(|(start, len)| start..start + len)
            .collect();
        // The largest power-of-two piece whose double-buffered mask
        // bytes and widened copy fit UB next to the per-lane scalars,
        // capped at a chunk.
        let fits = 1 << (spec.ub_capacity.saturating_sub(64) / 6).max(1).ilog2();
        let piece = n.div_ceil(cores).clamp(1, fits);
        Ok(MaskCounts {
            n,
            masks,
            piece,
            chunks,
            r: GlobalTensor::new(gm, masks * cores)?,
        })
    }

    /// Phase I on one block: each vector core reduces each mask of
    /// `mask` over its chunk into `r`.
    pub fn reduce(&self, ctx: &mut BlockCtx<'_>, mask: &GlobalTensor<u8>) -> SimResult<()> {
        if mask.len() != self.masks * self.n {
            return Err(SimError::InvalidArgument(format!(
                "mask counts: {} mask elements, expected {} x {}",
                mask.len(),
                self.masks,
                self.n
            )));
        }
        let chunks = self.chunks.len();
        for (chunk, vc) in chunk_cores(ctx.block_idx, &mut ctx.vecs) {
            let range = &self.chunks[chunk];
            let pieces: Vec<_> = tile_spans(range.len(), self.piece)?
                .into_iter()
                .map(|(off, len)| (range.start + off, len))
                .collect();
            let masks: Vec<_> = (0..self.masks)
                .map(|d| (d * self.n, d * chunks + chunk))
                .collect();
            reduce_chunk(vc, mask, &pieces, self.piece, &self.r, &masks)?;
        }
        Ok(())
    }

    /// Phase II on one block, after the `SyncAll` that follows phase I:
    /// each vector core with a non-empty chunk reads its offsets (and,
    /// with `totals`, the masks' totals) from `r` and hands them to
    /// `body`.
    pub fn walk(
        &self,
        ctx: &mut BlockCtx<'_>,
        totals: bool,
        mut body: impl FnMut(&mut Core<'_>, &Chunk) -> SimResult<()>,
    ) -> SimResult<()> {
        let chunks = self.chunks.len();
        for (chunk, vc) in chunk_cores(ctx.block_idx, &mut ctx.vecs) {
            let range = self.chunks[chunk].clone();
            if range.is_empty() {
                continue;
            }
            let (before, totals) = chunk_offset(vc, &self.r, self.masks, chunk, totals)?;
            let counts = (0..self.masks)
                .map(|d| self.read(d * chunks + chunk, 1))
                .collect::<SimResult<_>>()?;
            let chunk = Chunk {
                range,
                before,
                totals,
                counts,
            };
            body(vc, &chunk)?;
        }
        Ok(())
    }

    /// Mask `mask`'s total after the last phase I, read from `r` on the
    /// host.
    pub fn total(&self, mask: usize) -> SimResult<usize> {
        let chunks = self.chunks.len();
        self.read(mask * chunks, chunks)
    }

    /// The sum of `len` entries of `r` from `at`, read on the host.
    fn read(&self, at: usize, len: usize) -> SimResult<usize> {
        let r = self.r.read_range(at, len)?;
        Ok(r.iter().map(|&c| c as usize).sum())
    }
}
