//! **MCScan** (Algorithm 3): the multi-core scan.
//!
//! MCScan belongs to the Scan-Scan-Add family but with a twist the paper
//! highlights as novel: **partial recomputation**. In phase 1 the cube
//! cores compute tile-local scans (`A @ U_s`) and write them to global
//! memory, while *in parallel* the vector cores independently re-read the
//! input and compute per-block reductions into an array `r` — neither
//! engine waits for the other. After a `SyncAll` barrier, phase 2 has
//! every vector core scan `r` in its own UB (a "small" scan over the
//! block count) and propagate the resulting block offset plus the
//! running partial through its block's tile-local scans.
//!
//! The implementation exploits the 910B's 2-to-1 vector-to-cube core
//! ratio: each AI core's cube engine serves the *two* chunks owned by its
//! two vector cores, so `r` has `blocks × 2` entries.
//!
//! Global-memory traffic: phase 1 reads the input twice (cube + vector
//! recomputation) and writes the local scans once; phase 2 reads and
//! writes the output once — ≈ `5·N` element accesses to produce the
//! operator's `2·N` useful bytes, which is what caps MCScan at ≈ 3/8 of
//! peak memory bandwidth (the paper's 37.5%).
//!
//! Phase 2 hands every propagated segment to a [`TileStore`]:
//! [`mcscan`]'s writes the scan to `y`, and [`mcscan_with`] takes any
//! other — the one-launch split of the `ops` crate scatters each segment
//! straight from UB instead of writing its offsets out for a second
//! kernel.
//!
//! A chunk is a contiguous element range walked in segments of at most
//! `ℓ` elements. [`mcscan`] keeps the paper's chunks
//! of whole tiles; [`mcscan_with`] gives each vector core a range of
//! `⌈rows / chunks⌉` `s`-element rows, because `A @ U_s` leaves
//! independent row scans in `w` and phase II only carries a running sum
//! through them. A short split of a few tiles then runs its phase II on
//! (nearly) every vector core instead of one core per tile.
//!
//! A layout may scan several inputs of one length side by side — the
//! `2^r − 1` digit masks of an `r`-bit radix-sort pass: the cube runs
//! every input's tiles through one `U_s` in L0B, `w` and `r` hold one
//! row per input, and phase II carries each input's chunk offset through
//! the same segments before one store call sees them all.

use crate::stage::{
    carry_through, check_blocks, check_intermediate, check_tile, chunk_offset, reduce_chunk,
    CubePass, HandOffs, Timed,
};
use crate::triangular::ScanConstants;
use crate::util::{partition, tile_dim, tile_spans};
use crate::{finish_report, ScanRun};
use ascend_sim::mem::GlobalMemory;
use ascendc::{
    launch, BlockCtx, ChipSpec, Core, EventTime, FlagFile, GlobalTensor, KernelReport, LocalTensor,
    ScratchpadKind, SimError, SimResult, SpanArgs, TQue,
};
use dtypes::{CubeInput, Element, Numeric, F16};
use std::ops::Range;
use std::sync::Arc;

/// Inclusive vs. exclusive scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanKind {
    /// `y[i] = x[0] + … + x[i]`.
    Inclusive,
    /// `y[0] = 0`, `y[i] = x[0] + … + x[i-1]`. Implemented by writing
    /// the inclusive result shifted one element right, discarding the
    /// last value, and having the first block write a zero to `y[0]`
    /// (exactly the paper's §4.3 description).
    Exclusive,
}

/// MCScan launch parameters.
#[derive(Clone, Copy, Debug)]
pub struct McScanConfig {
    /// Matmul tile dimension (`ℓ = s²` elements per cube tile);
    /// `s = 128` maximizes L0A/L0B utilization on the 910B4.
    pub s: usize,
    /// Number of AI cores (blocks) to use; each contributes one cube
    /// core and two vector cores.
    pub blocks: u32,
    /// Inclusive or exclusive scan.
    pub kind: ScanKind,
}

impl McScanConfig {
    /// The paper's default evaluation configuration for a chip's fp16
    /// scan: all AI cores, the largest tile that fits (`s = 128` on the
    /// 910B4), inclusive.
    pub fn for_chip(spec: &ChipSpec) -> Self {
        Self::for_types::<F16, F16, F16>(spec)
    }

    /// [`McScanConfig::for_chip`] for an `mcscan::<T, M, O>` launch: `s`
    /// is the largest tile dimension (at most 128) whose scratchpad
    /// footprint fits the chip for these element types.
    pub fn for_types<T: CubeInput, M: Element, O: Element>(spec: &ChipSpec) -> Self {
        McScanConfig {
            s: tile_dim::<T, M, O>(spec, 1),
            blocks: spec.ai_cores,
            kind: ScanKind::Inclusive,
        }
    }
}

/// Runs MCScan over `x`, producing the scan in element type `O`.
///
/// `T` is the cube input type, `M` the *intermediate* type the tile-
/// local scans are written to global memory as, and `O` the final
/// output type:
///
/// * fp16: `mcscan::<F16, F16, F16>` — the paper's default path;
/// * int8 masks (§4.3's specialization): `mcscan::<u8, i16, i32>` —
///   a row-local scan of `s ≤ 128` bytes never exceeds `128 · 255 =
///   32,640`, so the intermediate fits `i16` and phase 1 writes 2 bytes
///   per element instead of 4, which is where the int8 path's
///   throughput edge over fp16 comes from.
///
/// An integer `M` must hold `s` times the largest input value: a larger
/// `s` is refused with [`SimError::InvalidArgument`] rather than left to
/// wrap (`s = 144` would for all-255 `u8` rows).
pub fn mcscan<T, M, O>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    cfg: McScanConfig,
) -> SimResult<ScanRun<O>>
where
    T: CubeInput,
    M: Numeric,
    O: Numeric,
{
    let (mc, store) = McLayout::<T, M, O>::with_y("MCScan", spec, gm, x, cfg, None)?;
    let report = mc.launch(
        spec,
        gm,
        |mc, ctx| mc.phase_one(ctx, x),
        |mc, ctx| mc.phase_two(ctx, &store),
    )?;
    Ok(ScanRun { y: store.y, report })
}

/// Result of [`mcscan_with`]: the launch report and the scan's total.
pub struct StoreRun<O: Element> {
    /// Simulated execution report of the one launch.
    pub report: KernelReport,
    /// The sum of all of `x`, read back from the reduction array `r`
    /// after the launch.
    pub total: O,
}

/// MCScan with a caller-supplied phase II store: the launch `name` runs
/// [`mcscan`]'s two phases on `x` at tile dimension `s` on all AI cores,
/// over chunks of `⌈rows / chunks⌉` rows, and hands every propagated
/// segment to `store`, which decides what it writes.
pub fn mcscan_with<T, M, O, S>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    s: usize,
    name: &'static str,
    store: S,
) -> SimResult<StoreRun<O>>
where
    T: CubeInput,
    M: Numeric,
    O: Numeric,
    S: TileStore<O>,
{
    let grid = (s, spec.ai_cores);
    let (mc, store) = McLayout::<T, M, O>::new(
        name,
        spec,
        gm,
        x.len(),
        1,
        grid,
        Chunking::Rows,
        None,
        |_| Ok(store),
    )?;
    let report = mc.launch(
        spec,
        gm,
        |mc, ctx| mc.phase_one(ctx, x),
        |mc, ctx| mc.phase_two(ctx, &store),
    )?;
    Ok(StoreRun {
        report,
        total: mc.total(),
    })
}

/// One segment of phase II — at most `ℓ` elements of a chunk, starting
/// on a row boundary (with row chunks it may straddle two cube tiles) —
/// once the running partials have been carried through it: what a
/// [`TileStore`] receives.
pub struct Tile<'t, O: Element> {
    /// Offset of the segment's first element in the scanned array.
    pub off: usize,
    /// Elements in the segment.
    pub valid: usize,
    /// Each scanned input's state over the segment, in input order (one
    /// for a plain scan).
    pub inputs: &'t [Scanned<'t, O>],
}

/// One scanned input over a segment of phase II.
pub struct Scanned<'t, O: Element> {
    /// The segment's inclusive scan, still in UB (`valid` elements).
    pub incl: &'t LocalTensor<O>,
    /// The exclusive prefix before the segment, with its ready time.
    pub prefix: Timed<O>,
    /// The segment's last inclusive value (the next segment's prefix),
    /// with its ready time.
    pub last: Timed<O>,
    /// The scan's total with its ready time, when the store asks for it
    /// ([`TileStore::needs_total`]).
    pub total: Option<Timed<O>>,
}

/// Phase II's output stage: MCScan hands each propagated segment of a
/// chunk to the store, on the vector core that owns the chunk.
pub trait TileStore<O: Numeric>: Sync {
    /// The store's UB buffers on one vector core.
    type Bufs;

    /// Whether phase II also reduces all of `r` to the scans' totals
    /// (one more `ReduceSum` per input and vector core; every block can
    /// read `r` once the `SyncAll` has run).
    fn needs_total(&self) -> bool {
        false
    }

    /// Allocates one vector core's buffers from the `ub_left` bytes of
    /// UB that propagation's queue and buffer leave free.
    fn open(&self, vc: &mut Core<'_>, ub_left: usize) -> SimResult<Self::Bufs>;

    /// Runs when segment `off` starts, before its rows are propagated,
    /// with each input's exclusive prefix.
    fn begin(
        &self,
        _vc: &mut Core<'_>,
        _bufs: &mut Self::Bufs,
        _off: usize,
        _prefix: &[Timed<O>],
    ) -> SimResult<()> {
        Ok(())
    }

    /// Stores one propagated segment. Returns the completion of its last
    /// write and the global-memory bytes it moved.
    fn store(
        &self,
        vc: &mut Core<'_>,
        bufs: &mut Self::Bufs,
        tile: &Tile<'_, O>,
    ) -> SimResult<(EventTime, u64)>;

    /// Frees one vector core's buffers.
    fn close(&self, vc: &mut Core<'_>, bufs: Self::Bufs) -> SimResult<()>;
}

/// The scan's own store: writes the inclusive scan, or §4.3's shifted
/// exclusive scan, to `y`.
pub(crate) struct YStore<O: Element> {
    pub(crate) y: GlobalTensor<O>,
    kind: ScanKind,
}

impl<T: CubeInput, M: Numeric, O: Numeric> McLayout<T, M, O> {
    /// [`McLayout::new`] over `x` in tile chunks, with the scan's own
    /// store: the `cfg.kind` scan to a fresh `y`.
    pub(crate) fn with_y(
        name: &'static str,
        spec: &ChipSpec,
        gm: &Arc<GlobalMemory>,
        x: &GlobalTensor<T>,
        cfg: McScanConfig,
        max_blocks: Option<u32>,
    ) -> SimResult<(Self, YStore<O>)> {
        let grid = (cfg.s, cfg.blocks);
        Self::new(
            name,
            spec,
            gm,
            x.len(),
            1,
            grid,
            Chunking::Tiles,
            max_blocks,
            |gm| {
                Ok(YStore {
                    y: GlobalTensor::<O>::new(gm, x.len())?,
                    kind: cfg.kind,
                })
            },
        )
    }
}

impl<O: Numeric> TileStore<O> for YStore<O> {
    /// The one-element buffer of the exclusive scan's boundary write.
    type Bufs = LocalTensor<O>;

    fn open(&self, vc: &mut Core<'_>, _ub_left: usize) -> SimResult<LocalTensor<O>> {
        vc.alloc_local::<O>(ScratchpadKind::Ub, 1)
    }

    fn begin(
        &self,
        vc: &mut Core<'_>,
        boundary: &mut LocalTensor<O>,
        off: usize,
        prefix: &[Timed<O>],
    ) -> SimResult<()> {
        if self.kind == ScanKind::Exclusive {
            let prefix = prefix[0];
            // The segment's first exclusive output is the running
            // partial itself; writing it from this core keeps every
            // store inside the core's own span (§4.3's shifted write,
            // without a cross-block boundary hazard). For the very first
            // segment this also writes the required y[0] = 0.
            vc.insert(boundary, 0, prefix.0, prefix.1)?;
            vc.copy_out(&self.y, off, boundary, 0, 1, &[])?;
        }
        Ok(())
    }

    fn store(
        &self,
        vc: &mut Core<'_>,
        _boundary: &mut LocalTensor<O>,
        tile: &Tile<'_, O>,
    ) -> SimResult<(EventTime, u64)> {
        let (off, valid, scan) = (tile.off, tile.valid, &tile.inputs[0]);
        let done = match self.kind {
            ScanKind::Inclusive => vc.copy_out(&self.y, off, scan.incl, 0, valid, &[])?,
            // Shift right by one within the segment; its last inclusive
            // value is carried to the next segment instead of stored.
            ScanKind::Exclusive if valid > 1 => {
                vc.copy_out(&self.y, off + 1, scan.incl, 0, valid - 1, &[])?
            }
            ScanKind::Exclusive => scan.last.1,
        };
        Ok((done, (valid * O::SIZE) as u64))
    }

    fn close(&self, vc: &mut Core<'_>, boundary: LocalTensor<O>) -> SimResult<()> {
        vc.free_local(boundary)
    }
}

/// UB bytes a [`TileStore`] has on each vector core of an
/// `McLayout::<_, M, O>` phase II over `inputs` scanned inputs with tile
/// dimension `s` (one for [`mcscan_with`]) once its segments are `ℓ`
/// long: what propagation's staging queue and buffers leave free.
pub fn store_ub<M: Element, O: Element>(spec: &ChipSpec, s: usize, inputs: usize) -> usize {
    let l = s * s;
    let depth = queue_depth::<M, O>(spec, l, inputs);
    spec.ub_capacity
        .saturating_sub(depth * l * M::SIZE + inputs * l * O::SIZE)
}

/// Depth of propagation's staging queue: double-buffered when UB has
/// room for two intermediate tiles next to the propagation buffers (one
/// per scanned input); single-buffered otherwise (the propagation is
/// bandwidth-bound either way).
fn queue_depth<M: Element, O: Element>(spec: &ChipSpec, l: usize, inputs: usize) -> usize {
    if 2 * l * M::SIZE + inputs * l * O::SIZE + 64 <= spec.ub_capacity {
        2
    } else {
        1
    }
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

/// What a chunk of phase II is made of. The entry point fixes it:
/// [`mcscan`] and the ablation variants use tiles, [`mcscan_with`] and
/// [`McLayout::rows`] rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Chunking {
    /// Whole `ℓ`-element cube tiles, `⌈tiles / chunks⌉` to a chunk: the
    /// paper's layout. The ablations' per-tile cube→vector hand-offs
    /// need it, and the figures reproduce it.
    Tiles,
    /// `s`-element rows, `⌈rows / chunks⌉` to a chunk: phase II is
    /// shared by `⌈rows / ⌈rows / chunks⌉⌉` vector cores even when the
    /// input is a few tiles long. The trailing chunks may get no rows;
    /// those run no phase II.
    Rows,
}

/// The layout of an MCScan over `n` elements, shared by [`mcscan`],
/// [`mcscan_with`], the ablation variants and kernels that run the scan
/// inside a launch of their own: the scan constants, the intermediate
/// `w` the tile-local scans land in, the reduction array `r` (one entry
/// per chunk, Line 3) and the chunk map — one contiguous element range
/// per vector core: whole tiles for [`mcscan`], rows for [`mcscan_with`]
/// and [`McLayout::rows`].
///
/// A layout scans `inputs` arrays of `n` elements side by side (one for
/// every entry point but [`McLayout::rows`]): phase I's input holds them
/// back to back, and `w` and `r` hold one row per input. Phase II then
/// holds one propagation buffer per input in UB, so a layout over
/// several inputs sizes them to its longest segment rather than to `ℓ`,
/// leaving the store room for whole segments when chunks are short; a
/// one-input layout keeps the paper's `ℓ`-element buffer, and with it
/// the pieces every split store has always cut.
///
/// Its two phases run inside any launch on the layout's grid:
/// [`McLayout::phase_one`] over an input, a `SyncAll`, then
/// [`McLayout::phase_two`] with a [`TileStore`]. A kernel may run them
/// again on another input of the same length once a further `SyncAll`
/// has ordered the previous phase II's reads of `w` and `r` before the
/// next phase I's writes.
pub struct McLayout<T: CubeInput, M: Numeric, O: Numeric> {
    name: &'static str,
    n: usize,
    inputs: usize,
    pub(crate) s: usize,
    pub(crate) l: usize,
    /// Elements per propagation buffer: `ℓ`, or the longest segment of
    /// a layout over several inputs.
    seg: usize,
    blocks: u32,
    consts: ScanConstants<T>,
    pub(crate) w: GlobalTensor<M>,
    pub(crate) r: GlobalTensor<O>,
    tiles: Vec<(usize, usize)>,
    chunking: Chunking,
    chunks: Vec<Range<usize>>,
}

impl<T: CubeInput, M: Numeric, O: Numeric> McLayout<T, M, O> {
    /// The row-chunk layout of `inputs` scans over `n` elements each at
    /// tile dimension `s` on all of the chip's AI cores, for a kernel
    /// `name` that runs the two phases inside its own launch.
    pub fn rows(
        name: &'static str,
        spec: &ChipSpec,
        gm: &Arc<GlobalMemory>,
        n: usize,
        inputs: usize,
        s: usize,
    ) -> SimResult<Self> {
        let grid = (s, spec.ai_cores);
        let (mc, ()) = Self::new(
            name,
            spec,
            gm,
            n,
            inputs,
            grid,
            Chunking::Rows,
            None,
            |_| Ok(()),
        )?;
        Ok(mc)
    }

    /// The largest tile dimension `s ≤ 128` (a multiple of 16) whose
    /// layout over `inputs` scanned inputs fits the chip: as
    /// [`McScanConfig::for_types`] picks it for one input, with one
    /// propagation buffer per input in UB. Falls back to 16, whose launch
    /// then reports the [`SimError::ScratchpadOverflow`].
    pub fn tile_dim(spec: &ChipSpec, inputs: usize) -> usize {
        tile_dim::<T, M, O>(spec, inputs)
    }

    /// Validates tile dimension `s`, the intermediate's range and grid
    /// `blocks` for kernel `name` (grids above `max_blocks` are
    /// rejected; `None` wave-multiplexes any grid) and allocates the
    /// layout's tensors for `inputs` scans of `n` elements, with the
    /// phase II store `store` builds after the constants.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new<S>(
        name: &'static str,
        spec: &ChipSpec,
        gm: &Arc<GlobalMemory>,
        n: usize,
        inputs: usize,
        (s, blocks): (usize, u32),
        chunking: Chunking,
        max_blocks: Option<u32>,
        store: impl FnOnce(&Arc<GlobalMemory>) -> SimResult<S>,
    ) -> SimResult<(Self, S)> {
        check_tile(name, s)?;
        check_intermediate::<T, M>(name, s)?;
        check_blocks(name, blocks, max_blocks)?;
        if inputs == 0 {
            return Err(SimError::InvalidArgument(format!(
                "{name}: a layout scans at least one input"
            )));
        }
        let l = s * s;
        let chunks_total = (blocks * spec.vec_per_core) as usize;
        let unit = match chunking {
            Chunking::Tiles => l,
            Chunking::Rows => s,
        };
        let chunks: Vec<Range<usize>> = partition(name, n.div_ceil(unit), chunks_total)?
            .into_iter()
            .map(|(first, count)| (first * unit).min(n)..((first + count) * unit).min(n))
            .collect();
        let seg = match inputs {
            1 => l,
            _ => chunks
                .iter()
                .map(|c| c.len())
                .max()
                .unwrap_or(0)
                .clamp(1, l),
        };
        let consts = ScanConstants::<T>::upload(gm, s)?;
        let store = store(gm)?;
        // Tile-local scans land here in the (possibly narrower)
        // intermediate type; the paper's kernel writes them into the
        // output buffer, which is the same traffic.
        let w = GlobalTensor::<M>::new(gm, inputs * n)?;
        let r = GlobalTensor::<O>::new(gm, inputs * chunks_total)?;
        let mc = McLayout {
            name,
            n,
            inputs,
            s,
            l,
            seg,
            blocks,
            consts,
            w,
            r,
            tiles: tile_spans(n, l),
            chunking,
            chunks,
        };
        Ok((mc, store))
    }

    /// Launches the two-phase skeleton: `phase1` per block, a `SyncAll`
    /// (Line 15), then `phase2`, each inside its phase span.
    pub(crate) fn launch(
        &self,
        spec: &ChipSpec,
        gm: &Arc<GlobalMemory>,
        phase1: impl Fn(&Self, &mut BlockCtx<'_>) -> SimResult<()> + Sync,
        phase2: impl Fn(&Self, &mut BlockCtx<'_>) -> SimResult<()> + Sync,
    ) -> SimResult<KernelReport> {
        let mut report = launch(spec, gm, self.blocks, self.name, |ctx| {
            let phase = ctx.span_begin("Phase I");
            phase1(self, ctx)?;
            ctx.span_end(phase);
            ctx.sync_all()?;
            let phase = ctx.span_begin("Phase II");
            phase2(self, ctx)?;
            ctx.span_end(phase);
            Ok(())
        })?;
        finish_report(&mut report, self.n, T::SIZE, O::SIZE);
        Ok(report)
    }

    /// MCScan's phase I (Lines 4-14) of `x` — the layout's inputs back
    /// to back — on one block: the cube writes the tile-local scans of
    /// the block's tiles of every input to `w` while the vector cores
    /// recompute their chunks' reductions from `x` into `r`.
    pub fn phase_one(&self, ctx: &mut BlockCtx<'_>, x: &GlobalTensor<T>) -> SimResult<()> {
        if x.len() != self.inputs * self.n {
            return Err(SimError::InvalidArgument(format!(
                "{}: phase I input has {} elements, the layout {} x {}",
                self.name,
                x.len(),
                self.inputs,
                self.n
            )));
        }
        let range = self.block_tiles(ctx);
        self.cube_scans(&mut ctx.cube, x, range, None)?;
        let chunks = self.chunks.len();
        for (chunk, vc) in chunk_cores(ctx.block_idx, &mut ctx.vecs) {
            let inputs: Vec<_> = (0..self.inputs)
                .map(|i| (i * self.n, i * chunks + chunk))
                .collect();
            reduce_chunk(vc, x, &self.segments(chunk), self.l, &self.r, &inputs)?;
        }
        Ok(())
    }

    /// MCScan's phase II (Lines 16-26) on one block, after the `SyncAll`
    /// that follows phase I: each vector core scans `r`'s prefix of
    /// every input in UB and propagates them through its chunk's
    /// tile-local scans, handing every segment to `store`.
    pub fn phase_two<S: TileStore<O>>(&self, ctx: &mut BlockCtx<'_>, store: &S) -> SimResult<()> {
        for (chunk, vc) in chunk_cores(ctx.block_idx, &mut ctx.vecs) {
            if self.chunking == Chunking::Rows && self.chunks[chunk].is_empty() {
                continue;
            }
            let needs_total = store.needs_total();
            let (offset, total) = chunk_offset(vc, &self.r, self.inputs, chunk, needs_total)?;
            self.propagate(vc, chunk, offset, total, None, store)?;
        }
        Ok(())
    }

    /// The sum of the first input of the last phase I, read back from
    /// `r` after the launch.
    pub fn total(&self) -> O {
        let r = self.r.to_vec();
        r[..self.chunks.len()]
            .iter()
            .fold(O::zero(), |a, &b| a.add(b))
    }

    /// The segments of chunk `chunk`: its element range cut into
    /// `(offset, len)` pieces of at most `ℓ` elements. With tile chunks
    /// each segment is one cube tile, and `offset / ℓ` its index.
    pub(crate) fn segments(&self, chunk: usize) -> Vec<(usize, usize)> {
        let range = self.chunks[chunk].clone();
        tile_spans(range.len(), self.l)
            .into_iter()
            .map(|(off, len)| (range.start + off, len))
            .collect()
    }

    /// The cube tiles of the block: those that start inside its chunks.
    pub(crate) fn block_tiles(&self, ctx: &BlockCtx<'_>) -> Range<usize> {
        let vpc = ctx.vecs.len();
        let first = ctx.block_idx as usize * vpc;
        let (start, end) = (self.chunks[first].start, self.chunks[first + vpc - 1].end);
        start.div_ceil(self.l)..end.div_ceil(self.l)
    }

    /// The cube stage: tile-local scans (`A @ U_s`) of `range` of every
    /// input into `w`, through one `U_s` in L0B. With `hand`, each tile
    /// is handed to the vector cores under its tile index.
    pub(crate) fn cube_scans(
        &self,
        cube: &mut Core<'_>,
        x: &GlobalTensor<T>,
        range: Range<usize>,
        hand: Option<(&FlagFile, HandOffs)>,
    ) -> SimResult<()> {
        let mut pass = CubePass::new(cube, &self.consts.upper, self.s)?;
        for input in 0..self.inputs {
            for t in range.clone() {
                let (off, valid) = self.tiles[t];
                let off = input * self.n + off;
                let ev = pass.scan_tile(cube, x, &self.w, off, valid)?;
                if let Some((flags, hand)) = hand {
                    hand.set(cube, flags, 0, t, ev)?;
                }
            }
        }
        pass.finish(cube)
    }

    /// The propagation stage: streams chunk `chunk`'s tile-local scans
    /// of every input from `w` one segment at a time, widens them to `O`,
    /// carries each input's running partial (from `carry`) through them
    /// row by row, the inputs' rows interleaved, and hands each segment
    /// to `store`, with the scans' `total`s when the store asked for
    /// them. A segment may straddle two cube tiles: `w` holds row-local
    /// scans and is read only after the `SyncAll`. With `hand` (tile
    /// chunks only), each segment first waits for its tile's hand-off.
    /// Returns the final partials — the chunk's inclusive totals.
    pub(crate) fn propagate<S: TileStore<O>>(
        &self,
        vc: &mut Core<'_>,
        chunk: usize,
        mut carry: Vec<Timed<O>>,
        total: Option<Vec<Timed<O>>>,
        hand: Option<(&FlagFile, HandOffs)>,
        store: &S,
    ) -> SimResult<Vec<Timed<O>>> {
        let (s, l, seg) = (self.s, self.l, self.seg);
        let depth = queue_depth::<M, O>(vc.spec(), seg, self.inputs);
        let mut q = TQue::<M>::new(vc, ScratchpadKind::Ub, depth, seg)?.named("q(UB)");
        let mut bufs = Vec::with_capacity(self.inputs);
        for _ in 0..self.inputs {
            bufs.push(vc.alloc_local::<O>(ScratchpadKind::Ub, seg)?);
        }
        let ub_left = vc
            .spec()
            .ub_capacity
            .saturating_sub(vc.scratch_in_use(ScratchpadKind::Ub));
        let mut sbufs = store.open(vc, ub_left)?;
        for (off, valid) in self.segments(chunk) {
            let tile = vc.span_begin("tile");
            let ready = match hand {
                Some((flags, hand)) => Some(hand.wait(vc, flags, 0, off / l)?),
                None => None,
            };
            for (input, buf) in bufs.iter_mut().enumerate() {
                let mut piece = q.alloc_tensor()?;
                let src = input * self.n + off;
                vc.copy_in(&mut piece, 0, &self.w, src, valid, ready.as_slice())?;
                let cast_done = vc.vcast::<M, O>(buf, &piece, 0, valid)?;
                q.free_tensor(piece, cast_done);
            }
            store.begin(vc, &mut sbufs, off, &carry)?;
            let prefix = carry.clone();
            for (row, len) in tile_spans(valid, s) {
                for (buf, carry) in bufs.iter_mut().zip(carry.iter_mut()) {
                    carry_through(vc, buf, row, len, carry)?;
                }
            }
            let inputs: Vec<Scanned<'_, O>> = (0..self.inputs)
                .map(|i| Scanned {
                    incl: &bufs[i],
                    prefix: prefix[i],
                    last: carry[i],
                    total: total.as_ref().map(|t| t[i]),
                })
                .collect();
            let stored = Tile {
                off,
                valid,
                inputs: &inputs,
            };
            let (out_done, bytes) = store.store(vc, &mut sbufs, &stored)?;
            vc.span_args(
                tile,
                SpanArgs {
                    bytes: (self.inputs * valid * M::SIZE) as u64 + bytes,
                    kind: "propagate",
                    queue_depth: depth as u32,
                },
            );
            vc.span_end_at(tile, out_done);
        }
        store.close(vc, sbufs)?;
        for buf in bufs {
            vc.free_local(buf)?;
        }
        q.destroy(vc)?;
        Ok(carry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use dtypes::F16;

    fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    fn cfg(s: usize, blocks: u32, kind: ScanKind) -> McScanConfig {
        McScanConfig { s, blocks, kind }
    }

    #[test]
    fn inclusive_matches_reference_multiblock() {
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..3000).map(|i| ((i * 7) % 9) as i8 - 4).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = mcscan::<i8, i32, i32>(&spec, &gm, &x, cfg(16, 2, ScanKind::Inclusive)).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<i8, i32>(&data)
        );
        assert_eq!(run.report.sync_rounds, 1);
    }

    #[test]
    fn exclusive_matches_reference() {
        let (spec, gm) = setup();
        let data: Vec<u8> = (0..2777).map(|i| ((i * 13) % 5 == 0) as u8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = mcscan::<u8, i16, i32>(&spec, &gm, &x, cfg(16, 2, ScanKind::Exclusive)).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::exclusive_widening::<u8, i32>(&data)
        );
    }

    #[test]
    fn single_block_still_works() {
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..500).map(|i| (i % 3) as i8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = mcscan::<i8, i32, i32>(&spec, &gm, &x, cfg(16, 1, ScanKind::Inclusive)).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<i8, i32>(&data)
        );
    }

    #[test]
    fn fp16_inclusive_small_values() {
        let (spec, gm) = setup();
        let data: Vec<F16> = (0..1200).map(|i| F16::from_f32((i % 2) as f32)).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = mcscan::<F16, F16, F16>(&spec, &gm, &x, cfg(16, 2, ScanKind::Inclusive)).unwrap();
        assert_eq!(run.y.to_vec(), reference::inclusive(&data));
    }

    #[test]
    fn input_smaller_than_one_tile() {
        let (spec, gm) = setup();
        let data = vec![2i8, 3, -1, 7];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = mcscan::<i8, i32, i32>(&spec, &gm, &x, cfg(16, 2, ScanKind::Inclusive)).unwrap();
        assert_eq!(run.y.to_vec(), vec![2, 5, 4, 11]);
        let run = mcscan::<i8, i32, i32>(&spec, &gm, &x, cfg(16, 2, ScanKind::Exclusive)).unwrap();
        assert_eq!(run.y.to_vec(), vec![0, 2, 5, 4]);
    }

    #[test]
    fn exclusive_single_element() {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, &[9i8]).unwrap();
        let run = mcscan::<i8, i32, i32>(&spec, &gm, &x, cfg(16, 1, ScanKind::Exclusive)).unwrap();
        assert_eq!(run.y.to_vec(), vec![0]);
    }

    #[test]
    fn rejects_bad_config() {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, &[1i8; 8]).unwrap();
        assert!(mcscan::<i8, i32, i32>(&spec, &gm, &x, cfg(10, 1, ScanKind::Inclusive)).is_err());
        assert!(mcscan::<i8, i32, i32>(&spec, &gm, &x, cfg(16, 0, ScanKind::Inclusive)).is_err());
    }

    #[test]
    fn an_int8_row_scan_that_overflows_i16_is_refused() {
        // A row of s = 144 all-255 bytes sums to 36,720, past i16's
        // 32,767: every MCScan entry refuses it instead of wrapping.
        let spec = ChipSpec::ascend_910b4();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        let data = vec![255u8; 144 * 144];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let refused = |r: SimResult<()>| matches!(r, Err(SimError::InvalidArgument(_)));
        let cfg = cfg(144, spec.ai_cores, ScanKind::Inclusive);
        assert!(refused(
            mcscan::<u8, i16, i32>(&spec, &gm, &x, cfg).map(drop)
        ));
        let store = YStore {
            y: GlobalTensor::<i32>::new(&gm, data.len()).unwrap(),
            kind: ScanKind::Inclusive,
        };
        let with = mcscan_with::<u8, i16, i32, _>(&spec, &gm, &x, 144, "MCScanSplit", store);
        assert!(refused(with.map(drop)));
        let rows = McLayout::<u8, i16, i32>::rows("rows", &spec, &gm, data.len(), 1, 144);
        assert!(refused(rows.map(drop)));
        for v in [
            crate::McScanVariant::StridedTotals,
            crate::McScanVariant::SsaFull,
            crate::McScanVariant::Rss,
        ] {
            let run = crate::mcscan_variant::<u8, i16, i32>(&spec, &gm, &x, cfg, v);
            assert!(refused(run.map(drop)), "{v:?}");
        }
        // An i32 intermediate holds the same rows.
        assert!(mcscan::<u8, i32, i32>(&spec, &gm, &x, cfg).is_ok());
    }

    #[test]
    fn all_255_rows_at_s_128_are_exact_in_i16() {
        // 128 · 255 = 32,640 fits i16: the largest int8 tile MCScan
        // takes scans all-255 rows exactly.
        let spec = ChipSpec::ascend_910b4();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        let data = vec![255u8; 3 * 128 * 128 + 77];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let cfg = cfg(128, spec.ai_cores, ScanKind::Inclusive);
        let run = mcscan::<u8, i16, i32>(&spec, &gm, &x, cfg).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<u8, i32>(&data)
        );
    }

    #[test]
    fn oversubscribed_blocks_wave_multiplex() {
        // More blocks than the tiny chip's 2 AI cores: the launch
        // time-shares slots (including across the SyncAll) and the
        // result is still exact.
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..3000).map(|i| ((i * 5) % 11) as i8 - 5).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let blocks = spec.ai_cores + 3;
        let run =
            mcscan::<i8, i32, i32>(&spec, &gm, &x, cfg(16, blocks, ScanKind::Inclusive)).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<i8, i32>(&data)
        );
        assert_eq!(run.report.sync_rounds, 1);
    }

    #[test]
    fn phase1_recomputation_traffic_shape() {
        // The signature of MCScan: input read twice, output written once
        // in phase 1, output read + written once in phase 2 ⇒ ≈ 3 reads
        // + 2 writes of N elements (plus small r traffic).
        let (spec, gm) = setup();
        let n = 4096usize;
        let data = vec![1i8; n];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = mcscan::<i8, i32, i32>(&spec, &gm, &x, cfg(16, 2, ScanKind::Inclusive)).unwrap();
        let r = &run.report;
        let read_elems_lo = (2 * n + 4 * n) as u64; // x twice (1B) + y once (4B)
        let written_lo = (2 * 4 * n) as u64; // y twice (4B)
        assert!(
            r.bytes_read >= read_elems_lo,
            "{} < {}",
            r.bytes_read,
            read_elems_lo
        );
        assert!(r.bytes_read < read_elems_lo + 4096);
        assert!(r.bytes_written >= written_lo);
        assert!(r.bytes_written < written_lo + 4096);
    }

    #[test]
    fn mcscan_beats_single_core_scanu_on_big_chip() {
        let spec = ChipSpec::ascend_910b4();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        let n = 1 << 21;
        let data = vec![1i8; n];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let cfg = McScanConfig::for_types::<i8, i32, i32>(&spec);
        let mc = mcscan::<i8, i32, i32>(&spec, &gm, &x, cfg).unwrap();
        let single = crate::scanu::scanu::<i8, i32>(&spec, &gm, &x, 128).unwrap();
        let speedup = single.report.time_s() / mc.report.time_s();
        assert!(
            speedup > 5.0,
            "MCScan should be much faster than single-core ScanU, got {speedup:.1}x"
        );
        assert_eq!(
            mc.y.to_vec(),
            reference::inclusive_widening::<i8, i32>(&data)
        );
    }
}
