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
//!   vector core: the counts behind every split of the `ops` crate,
//!   over masks in GM or over the runs of a radix [`Digit`] made from
//!   the keys.
//!
//! A stage's instruction stream is part of every report built on it:
//! changing the order or the dependencies of its instructions moves the
//! simulated numbers of every kernel that uses it.

use crate::triangular::ScanConstants;
use crate::util::{partition, tile_spans};
use ascend_sim::mem::GlobalMemory;
use ascendc::{
    Bits, BlockCtx, ChipSpec, CmpMode, Core, EventTime, FlagFile, GlobalTensor, LocalTensor,
    ScratchpadKind, SimError, SimResult, SpanArgs, TQue,
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

/// Chunk reduction: loads each `(offset, len)` piece of `x` (at most
/// `piece` elements), widens it to `O` (`vcast`; int8 masks would
/// overflow their own type) and `ReduceSum`s it, chaining the running
/// total on the scalar pipe; then stores the total to `r[idx]`.
pub(crate) fn reduce_chunk<T: Numeric, O: Numeric>(
    vc: &mut Core<'_>,
    x: &GlobalTensor<T>,
    pieces: &[(usize, usize)],
    piece: usize,
    r: &GlobalTensor<O>,
    idx: usize,
) -> SimResult<()> {
    let din = if 2 * piece * T::SIZE + piece * O::SIZE + 64 <= vc.spec().ub_capacity {
        2
    } else {
        1
    };
    let mut qin = TQue::<T>::new(vc, ScratchpadKind::Ub, din, piece)?.named("qin(UB)");
    let mut acc = vc.alloc_local::<O>(ScratchpadKind::Ub, piece)?;
    let (mut total, mut total_ready) = (O::zero(), 0);
    for &(off, valid) in pieces {
        let tile = vc.span_begin("tile");
        let mut buf = qin.alloc_tensor()?;
        vc.copy_in(&mut buf, 0, x, off, valid, &[])?;
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
    vc.free_local(acc)?;
    qin.destroy(vc)
}

/// The digit counts of one chunk: loads each `(offset, len)` piece of
/// `keys` (at most `piece` elements), isolates `digit` once, and per
/// counted run `Compare`s and counts the mask with a `GatherMask` of
/// the mask by itself, whose count (`GetGatherMaskRemainCount`) it adds
/// to the run's total on the scalar pipe; then stores run `d`'s total
/// to `r[at[d]]`.
fn count_digits<T: Element>(
    vc: &mut Core<'_>,
    keys: &GlobalTensor<T>,
    pieces: &[(usize, usize)],
    piece: usize,
    digit: &Digit<T>,
    r: &GlobalTensor<i32>,
    at: &[usize],
) -> SimResult<()> {
    let din = if 2 * piece * T::SIZE + piece * (T::SIZE + 2) + 64 <= vc.spec().ub_capacity {
        2
    } else {
        1
    };
    let mut qin = TQue::<T>::new(vc, ScratchpadKind::Ub, din, piece)?.named("qin(UB)");
    let mut dig = vc.alloc_local::<T>(ScratchpadKind::Ub, piece)?;
    let mut mask = vc.alloc_local::<u8>(ScratchpadKind::Ub, piece)?;
    let mut kept = vc.alloc_local::<u8>(ScratchpadKind::Ub, piece)?;
    let mut totals = vec![(0i32, 0); at.len()];
    for &(off, valid) in pieces {
        let tile = vc.span_begin("tile");
        let mut buf = qin.alloc_tensor()?;
        vc.copy_in(&mut buf, 0, keys, off, valid, &[])?;
        let isolated = digit.isolate(vc, &mut dig, &buf, valid)?;
        qin.free_tensor(buf, isolated);
        let mut ready = 0;
        for (run, (total, total_ready)) in totals.iter_mut().enumerate() {
            digit.select(vc, &mut mask, &dig, valid, run)?;
            let (count, gathered) = vc.gather_mask(&mut kept, &mask, &mask, 0, valid)?;
            let moved = vc.gather_count(gathered, *total_ready)?;
            *total += count as i32;
            *total_ready = vc.scalar_ops(1, &[moved])?;
            ready = ready.max(*total_ready);
        }
        vc.span_args(
            tile,
            SpanArgs {
                bytes: (valid * T::SIZE) as u64,
                kind: "reduce",
                queue_depth: din as u32,
            },
        );
        vc.span_end_at(tile, ready);
    }
    for (&idx, &total) in at.iter().zip(&totals) {
        store_scalar(vc, r, idx, total)?;
    }
    vc.free_local(kept)?;
    vc.free_local(mask)?;
    vc.free_local(dig)?;
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

/// Elements per phase I piece of a split over `n` elements needing
/// `bytes_per_elem` UB bytes per element: the largest power of two that
/// fits UB next to the per-lane scalars, capped at a chunk.
fn piece_len(spec: &ChipSpec, n: usize, bytes_per_elem: usize) -> usize {
    let fits = 1
        << (spec.ub_capacity.saturating_sub(64) / bytes_per_elem)
            .max(1)
            .ilog2();
    n.div_ceil(spec.total_vec_cores() as usize).clamp(1, fits)
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

/// A radix digit of unsigned keys as a split sees it: run `r` takes the
/// keys whose digit is the `r`-th of the run order. The split masks are
/// made in UB from keys already loaded: one `And` isolates the digit's
/// bits in place (no `ShiftRight`: the runs' digits are compared at the
/// same shift), then one `Compare` per run.
pub struct Digit<T: Element> {
    /// The digit's bits within a key.
    field: T,
    /// Each run's digit, at the digit's shift.
    runs: Vec<T>,
    isolate: ScalarOp<T, T>,
    select: ScalarOp<T, u8>,
}

/// A vector instruction `dst[..len] = src[..len] <op> scalar`, taken when
/// a [`Digit`] is made so that using one needs no bounds beyond
/// `Element`.
type ScalarOp<T, D> =
    fn(&mut Core<'_>, &mut LocalTensor<D>, &LocalTensor<T>, usize, T) -> SimResult<EventTime>;

impl<T: Element> Digit<T> {
    /// The `w`-bit digit at bit `shift` whose runs take the values
    /// `runs` in that order. `runs` must be a permutation of `0..2^w`
    /// with `w ≥ 1`, and the digit must lie inside a key: anything else
    /// is an [`SimError::InvalidArgument`].
    pub fn new(shift: u32, runs: &[u32]) -> SimResult<Self>
    where
        T: Bits + Numeric,
    {
        let mut sorted = runs.to_vec();
        sorted.sort_unstable();
        let width = runs.len().trailing_zeros();
        let permutation = sorted.iter().enumerate().all(|(i, &d)| i == d as usize);
        if runs.len() < 2 || !runs.len().is_power_of_two() || !permutation {
            return Err(SimError::InvalidArgument(format!(
                "digit runs {runs:?}: expected a permutation of 0..2^w, w >= 1"
            )));
        }
        if shift + width > 8 * T::SIZE as u32 {
            return Err(SimError::InvalidArgument(format!(
                "a {width}-bit digit at bit {shift} does not fit a {}-byte key",
                T::SIZE
            )));
        }
        let at = |d: u32| T::from_f64((u64::from(d) << shift) as f64);
        Ok(Digit {
            field: at(runs.len() as u32 - 1),
            runs: runs.iter().map(|&d| at(d)).collect(),
            isolate: |vc, dig, keys, len, field| vc.vand_scalar(dig, keys, 0, len, field),
            select: |vc, mask, dig, len, digit| {
                vc.vcompare_scalar(mask, dig, 0, len, CmpMode::Eq, digit, 0)
            },
        })
    }

    /// How many runs the digit splits into.
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// `And`: the digit bits of `keys[..len]` into `dig`.
    pub fn isolate(
        &self,
        vc: &mut Core<'_>,
        dig: &mut LocalTensor<T>,
        keys: &LocalTensor<T>,
        len: usize,
    ) -> SimResult<EventTime> {
        (self.isolate)(vc, dig, keys, len, self.field)
    }

    /// `Compare`: run `run`'s mask of the isolated digits `dig[..len]`.
    pub fn select(
        &self,
        vc: &mut Core<'_>,
        mask: &mut LocalTensor<u8>,
        dig: &LocalTensor<T>,
        len: usize,
        run: usize,
    ) -> SimResult<EventTime> {
        (self.select)(vc, mask, dig, len, self.runs[run])
    }
}

/// The counts of a split: `masks` byte masks of `n` elements each, cut
/// into one equal element range — a chunk — per vector core of the
/// chip, and `r`, one count per mask and chunk. The masks are either
/// one mask stored in GM ([`MaskCounts::reduce`]) or the masks of a
/// radix digit's runs, made from the keys
/// ([`MaskCounts::reduce_digits`]).
///
/// A split pass runs inside any launch on all of the chip's AI cores:
/// a reduce as its phase I, a `SyncAll`, then [`MaskCounts::walk`] as
/// its phase II. A kernel may run further passes on the same counts
/// once a `SyncAll` has ordered one pass's reads of `r` before the next
/// pass's writes.
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
        Ok(MaskCounts {
            n,
            masks,
            // Double-buffered mask bytes and their widened copy.
            piece: piece_len(spec, n, 2 + 4),
            chunks,
            r: GlobalTensor::new(gm, masks * cores)?,
        })
    }

    /// Phase I on one block over one stored mask: each vector core
    /// reduces `mask` over its chunk into `r`.
    pub fn reduce(&self, ctx: &mut BlockCtx<'_>, mask: &GlobalTensor<u8>) -> SimResult<()> {
        if mask.len() != self.n || self.masks != 1 {
            return Err(SimError::InvalidArgument(format!(
                "mask counts: a stored mask of {} elements for {} masks of {}, expected one",
                mask.len(),
                self.masks,
                self.n
            )));
        }
        for (chunk, vc) in chunk_cores(ctx.block_idx, &mut ctx.vecs) {
            let pieces = self.pieces(chunk, self.piece)?;
            reduce_chunk(vc, mask, &pieces, self.piece, &self.r, chunk)?;
        }
        Ok(())
    }

    /// Phase I on one block over the masks of `digit`'s runs but the
    /// last: each vector core loads its chunk of `keys`, isolates the
    /// digit once per piece and counts each run's `Compare` into `r`.
    pub fn reduce_digits<T: Element>(
        &self,
        ctx: &mut BlockCtx<'_>,
        keys: &GlobalTensor<T>,
        digit: &Digit<T>,
    ) -> SimResult<()> {
        if keys.len() != self.n || digit.runs() != self.masks + 1 {
            return Err(SimError::InvalidArgument(format!(
                "mask counts: {} keys in {} runs, expected {} keys in {}",
                keys.len(),
                digit.runs(),
                self.n,
                self.masks + 1
            )));
        }
        // Double-buffered keys, the isolated digits, a run mask and its
        // gathered copy.
        let piece = piece_len(ctx.spec(), self.n, 3 * T::SIZE + 2);
        let chunks = self.chunks.len();
        for (chunk, vc) in chunk_cores(ctx.block_idx, &mut ctx.vecs) {
            let pieces = self.pieces(chunk, piece)?;
            let at: Vec<_> = (0..self.masks).map(|d| d * chunks + chunk).collect();
            count_digits(vc, keys, &pieces, piece, digit, &self.r, &at)?;
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

    /// Chunk `chunk` cut into `(offset, len)` pieces of at most `piece`
    /// elements.
    fn pieces(&self, chunk: usize, piece: usize) -> SimResult<Vec<(usize, usize)>> {
        let range = &self.chunks[chunk];
        Ok(tile_spans(range.len(), piece)?
            .into_iter()
            .map(|(off, len)| (range.start + off, len))
            .collect())
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_digit_takes_a_permutation_of_its_values_inside_the_key() {
        let digit = Digit::<u16>::new(12, &[3, 2, 1, 0]).unwrap();
        assert_eq!(digit.runs(), 4);
        assert_eq!((digit.field, digit.runs[0]), (0x3000, 0x3000));
        for (shift, runs) in [
            (0, vec![]),
            (0, vec![0]),
            (0, vec![0, 1, 2]),
            (0, vec![0, 0]),
            (0, vec![0, 2]),
            (14, vec![0, 1, 2, 3, 4, 5, 6, 7]),
        ] {
            let err = Digit::<u16>::new(shift, &runs).err();
            assert!(
                matches!(err, Some(SimError::InvalidArgument(_))),
                "{shift} {runs:?}: {err:?}"
            );
        }
    }
}
