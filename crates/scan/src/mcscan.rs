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
//! Phase 2 hands every propagated tile to a [`TileStore`]: [`mcscan`]'s
//! writes the scan to `y`, and [`mcscan_with`] takes any other — the
//! one-launch split of the `ops` crate scatters each tile straight from
//! UB instead of writing its offsets out for a second kernel.

use crate::stage::{
    check_blocks, check_tile, chunk_offset, propagate_rows, reduce_chunk, CubePass, HandOffs,
};
use crate::triangular::ScanConstants;
use crate::util::{partition, tile_dim, tile_spans};
use crate::{finish_report, ScanRun};
use ascend_sim::mem::GlobalMemory;
use ascendc::{
    launch, BlockCtx, ChipSpec, Core, EventTime, FlagFile, GlobalTensor, KernelReport, LocalTensor,
    ScratchpadKind, SimResult, SpanArgs, TQue,
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
            s: tile_dim::<T, M, O>(spec),
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
///   a tile-local scan never exceeds `ℓ = s² ≤ 16384`, so the
///   intermediate fits `i16` and phase 1 writes 2 bytes per element
///   instead of 4, which is where the int8 path's throughput edge over
///   fp16 comes from.
///
/// `M` must be wide enough for `ℓ` times the largest input value.
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
    McLayout::<T, M, O, _>::with_y("MCScan", spec, gm, x, cfg, None)?
        .recompute(spec, gm, x)
        .map(ScanRun::from)
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
/// [`mcscan`]'s two phases on `x` and hands every propagated tile to
/// `store` instead of writing a scan output. `cfg.kind` is unused; the
/// store decides what each tile writes.
pub fn mcscan_with<T, M, O, S>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    cfg: McScanConfig,
    name: &'static str,
    store: S,
) -> SimResult<StoreRun<O>>
where
    T: CubeInput,
    M: Numeric,
    O: Numeric,
    S: TileStore<O>,
{
    let (report, mc) = McLayout::<T, M, O, S>::new(name, spec, gm, x, cfg, None, |_| Ok(store))?
        .recompute(spec, gm, x)?;
    let total = mc.r.to_vec().into_iter().fold(O::zero(), O::add);
    Ok(StoreRun { report, total })
}

/// One tile of phase II once the running partial has been carried
/// through it: what a [`TileStore`] receives.
pub struct Tile<'t, O: Element> {
    /// Offset of the tile's first element in the scanned array.
    pub off: usize,
    /// Elements in the tile.
    pub valid: usize,
    /// The tile's inclusive scan, still in UB (`valid` elements).
    pub incl: &'t LocalTensor<O>,
    /// The exclusive prefix before the tile, with its ready time.
    pub prefix: (O, EventTime),
    /// The tile's last inclusive value (the next tile's prefix), with
    /// its ready time.
    pub last: (O, EventTime),
    /// The scan's total with its ready time, when the store asks for it
    /// ([`TileStore::needs_total`]).
    pub total: Option<(O, EventTime)>,
}

/// Phase II's output stage: MCScan hands each propagated tile of a chunk
/// to the store, on the vector core that owns the chunk.
pub trait TileStore<O: Numeric>: Sync {
    /// The store's UB buffers on one vector core.
    type Bufs;

    /// Whether phase II also reduces all of `r` to the scan's total
    /// (one more `ReduceSum` per vector core; every block can read `r`
    /// once the `SyncAll` has run).
    fn needs_total(&self) -> bool {
        false
    }

    /// Allocates one vector core's buffers from the `ub_left` bytes of
    /// UB that propagation's queue and buffer leave free.
    fn open(&self, vc: &mut Core<'_>, ub_left: usize) -> SimResult<Self::Bufs>;

    /// Runs when tile `off` starts, before its rows are propagated, with
    /// its exclusive prefix.
    fn begin(
        &self,
        _vc: &mut Core<'_>,
        _bufs: &mut Self::Bufs,
        _off: usize,
        _prefix: (O, EventTime),
    ) -> SimResult<()> {
        Ok(())
    }

    /// Stores one propagated tile. Returns the completion of its last
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

impl<T: CubeInput, M: Numeric, O: Numeric> McLayout<T, M, O, YStore<O>> {
    /// [`McLayout::new`] with the scan's own store: the `cfg.kind` scan
    /// to a fresh `y`.
    pub(crate) fn with_y(
        name: &'static str,
        spec: &ChipSpec,
        gm: &Arc<GlobalMemory>,
        x: &GlobalTensor<T>,
        cfg: McScanConfig,
        max_blocks: Option<u32>,
    ) -> SimResult<Self> {
        Self::new(name, spec, gm, x, cfg, max_blocks, |gm| {
            Ok(YStore {
                y: GlobalTensor::<O>::new(gm, x.len())?,
                kind: cfg.kind,
            })
        })
    }
}

impl<T: CubeInput, M: Numeric, O: Numeric> From<(KernelReport, McLayout<T, M, O, YStore<O>>)>
    for ScanRun<O>
{
    fn from((report, mc): (KernelReport, McLayout<T, M, O, YStore<O>>)) -> Self {
        ScanRun {
            y: mc.store.y,
            report,
        }
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
        prefix: (O, EventTime),
    ) -> SimResult<()> {
        if self.kind == ScanKind::Exclusive {
            // The tile's first exclusive output is the running partial
            // itself; writing it from this core keeps every store inside
            // the core's own span (§4.3's shifted write, without a
            // cross-block boundary hazard). For the very first tile this
            // also writes the required y[0] = 0.
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
        let (off, valid) = (tile.off, tile.valid);
        let done = match self.kind {
            ScanKind::Inclusive => vc.copy_out(&self.y, off, tile.incl, 0, valid, &[])?,
            // Shift right by one within the tile; the tile's last
            // inclusive value is carried to the next tile instead of
            // stored.
            ScanKind::Exclusive if valid > 1 => {
                vc.copy_out(&self.y, off + 1, tile.incl, 0, valid - 1, &[])?
            }
            ScanKind::Exclusive => tile.last.1,
        };
        Ok((done, (valid * O::SIZE) as u64))
    }

    fn close(&self, vc: &mut Core<'_>, boundary: LocalTensor<O>) -> SimResult<()> {
        vc.free_local(boundary)
    }
}

/// UB bytes a [`TileStore`] has on each vector core of an
/// `mcscan_with::<_, M, O, _>` launch with tile dimension `s`: what
/// propagation's staging queue and buffer leave free.
pub fn store_ub<M: Element, O: Element>(spec: &ChipSpec, s: usize) -> usize {
    let l = s * s;
    let depth = queue_depth::<M, O>(spec, l);
    spec.ub_capacity
        .saturating_sub(depth * l * M::SIZE + l * O::SIZE)
}

/// Depth of propagation's staging queue: double-buffered when UB has
/// room for two intermediate tiles next to the propagation buffer;
/// single-buffered for wide intermediates (the propagation is
/// bandwidth-bound either way).
fn queue_depth<M: Element, O: Element>(spec: &ChipSpec, l: usize) -> usize {
    if 2 * l * M::SIZE + l * O::SIZE + 64 <= spec.ub_capacity {
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

/// The launch layout MCScan shares with its ablation variants: the scan
/// constants, the phase II `store`, the intermediate `w` the tile-local
/// scans land in, the reduction array `r` (one entry per chunk, Line 3)
/// and the chunk layout — one chunk per vector core, at tile
/// granularity.
pub(crate) struct McLayout<T: CubeInput, M: Numeric, O: Numeric, S: TileStore<O>> {
    name: &'static str,
    n: usize,
    pub(crate) s: usize,
    pub(crate) l: usize,
    blocks: u32,
    consts: ScanConstants<T>,
    pub(crate) store: S,
    pub(crate) w: GlobalTensor<M>,
    pub(crate) r: GlobalTensor<O>,
    pub(crate) tiles: Vec<(usize, usize)>,
    chunk_tiles: Vec<(usize, usize)>,
}

impl<T: CubeInput, M: Numeric, O: Numeric, S: TileStore<O>> McLayout<T, M, O, S> {
    /// Validates `cfg` for kernel `name` (grids above `max_blocks` are
    /// rejected; `None` wave-multiplexes any grid) and allocates the
    /// launch's tensors, the store's through `store`.
    pub(crate) fn new(
        name: &'static str,
        spec: &ChipSpec,
        gm: &Arc<GlobalMemory>,
        x: &GlobalTensor<T>,
        cfg: McScanConfig,
        max_blocks: Option<u32>,
        store: impl FnOnce(&Arc<GlobalMemory>) -> SimResult<S>,
    ) -> SimResult<Self> {
        check_tile(name, cfg.s)?;
        check_blocks(name, cfg.blocks, max_blocks)?;
        let (n, s) = (x.len(), cfg.s);
        let l = s * s;
        let consts = ScanConstants::<T>::upload(gm, s)?;
        let store = store(gm)?;
        // Tile-local scans land here in the (possibly narrower)
        // intermediate type; the paper's kernel writes them into the
        // output buffer, which is the same traffic.
        let w = GlobalTensor::<M>::new(gm, n)?;
        let chunks_total = (cfg.blocks * spec.vec_per_core) as usize;
        let tiles = tile_spans(n, l);
        let chunk_tiles = partition(tiles.len(), chunks_total);
        let r = GlobalTensor::<O>::new(gm, chunks_total)?;
        Ok(McLayout {
            name,
            n,
            s,
            l,
            blocks: cfg.blocks,
            consts,
            store,
            w,
            r,
            tiles,
            chunk_tiles,
        })
    }

    /// Launches MCScan's own two phases over `x`.
    fn recompute(
        self,
        spec: &ChipSpec,
        gm: &Arc<GlobalMemory>,
        x: &GlobalTensor<T>,
    ) -> SimResult<(KernelReport, Self)> {
        self.launch(
            spec,
            gm,
            // Phase I (Lines 4-14): the cube cores write tile-local scans
            // while the vector cores recompute the chunk reductions from x.
            |mc, ctx| {
                let range = mc.block_tiles(ctx);
                mc.cube_scans(&mut ctx.cube, x, range, None)?;
                for (chunk, vc) in chunk_cores(ctx.block_idx, &mut ctx.vecs) {
                    reduce_chunk(vc, x, mc.chunk(chunk), mc.l, &mc.r, chunk)?;
                }
                Ok(())
            },
            // Phase II (Lines 16-26): each vector core scans r's prefix in
            // UB and propagates it through its chunk's tile-local scans.
            |mc, ctx| {
                for (chunk, vc) in chunk_cores(ctx.block_idx, &mut ctx.vecs) {
                    let (offset, total) = chunk_offset(vc, &mc.r, chunk, mc.store.needs_total())?;
                    mc.propagate(vc, chunk, offset, total, None)?;
                }
                Ok(())
            },
        )
    }

    /// Launches the two-phase skeleton: `phase1` per block, a `SyncAll`
    /// (Line 15), then `phase2`, each inside its phase span. Returns the
    /// report and the layout, whose store and `r` hold the results.
    pub(crate) fn launch(
        self,
        spec: &ChipSpec,
        gm: &Arc<GlobalMemory>,
        phase1: impl Fn(&Self, &mut BlockCtx<'_>) -> SimResult<()> + Sync,
        phase2: impl Fn(&Self, &mut BlockCtx<'_>) -> SimResult<()> + Sync,
    ) -> SimResult<(KernelReport, Self)> {
        let mut report = launch(spec, gm, self.blocks, self.name, |ctx| {
            let phase = ctx.span_begin("Phase I");
            phase1(&self, ctx)?;
            ctx.span_end(phase);
            ctx.sync_all()?;
            let phase = ctx.span_begin("Phase II");
            phase2(&self, ctx)?;
            ctx.span_end(phase);
            Ok(())
        })?;
        finish_report(&mut report, self.n, T::SIZE, O::SIZE);
        Ok((report, self))
    }

    /// The tile range of chunk `chunk`.
    pub(crate) fn chunk_range(&self, chunk: usize) -> Range<usize> {
        let (t0, count) = self.chunk_tiles[chunk];
        t0..t0 + count
    }

    /// The tiles of chunk `chunk`.
    pub(crate) fn chunk(&self, chunk: usize) -> &[(usize, usize)] {
        &self.tiles[self.chunk_range(chunk)]
    }

    /// The contiguous tile range of the block's chunks.
    pub(crate) fn block_tiles(&self, ctx: &BlockCtx<'_>) -> Range<usize> {
        let vpc = ctx.vecs.len();
        let block = ctx.block_idx as usize;
        let first = self.chunk_range(block * vpc);
        first.start..self.chunk_range(block * vpc + vpc - 1).end
    }

    /// The cube stage: tile-local scans (`A @ U_s`) of `range` into `w`.
    /// With `hand`, each tile is handed to the vector cores under its
    /// tile index.
    pub(crate) fn cube_scans(
        &self,
        cube: &mut Core<'_>,
        x: &GlobalTensor<T>,
        range: Range<usize>,
        hand: Option<(&FlagFile, HandOffs)>,
    ) -> SimResult<()> {
        let mut pass = CubePass::new(cube, &self.consts.upper, self.s)?;
        for t in range {
            let (off, valid) = self.tiles[t];
            let ev = pass.scan_tile(cube, x, &self.w, off, valid)?;
            if let Some((flags, hand)) = hand {
                hand.set(cube, flags, 0, t, ev)?;
            }
        }
        pass.finish(cube)
    }

    /// The propagation stage: streams chunk `chunk`'s tile-local scans
    /// from `w`, widens them to `O`, carries the running partial (from
    /// `carry`) through them row by row and hands each tile to the
    /// store, with the scan's `total` when the store asked for it. With
    /// `hand`, each tile first waits for its hand-off. Returns the final
    /// partial — the chunk's inclusive total.
    pub(crate) fn propagate(
        &self,
        vc: &mut Core<'_>,
        chunk: usize,
        mut carry: (O, EventTime),
        total: Option<(O, EventTime)>,
        hand: Option<(&FlagFile, HandOffs)>,
    ) -> SimResult<(O, EventTime)> {
        let (s, l) = (self.s, self.l);
        let depth = queue_depth::<M, O>(vc.spec(), l);
        let mut q = TQue::<M>::new(vc, ScratchpadKind::Ub, depth, l)?.named("q(UB)");
        let mut buf = vc.alloc_local::<O>(ScratchpadKind::Ub, l)?;
        let ub_left = vc
            .spec()
            .ub_capacity
            .saturating_sub(vc.scratch_in_use(ScratchpadKind::Ub));
        let mut bufs = self.store.open(vc, ub_left)?;
        for t in self.chunk_range(chunk) {
            let (off, valid) = self.tiles[t];
            let tile = vc.span_begin("tile");
            let ready = match hand {
                Some((flags, hand)) => Some(hand.wait(vc, flags, 0, t)?),
                None => None,
            };
            let mut piece = q.alloc_tensor()?;
            vc.copy_in(&mut piece, 0, &self.w, off, valid, ready.as_slice())?;
            let cast_done = vc.vcast::<M, O>(&mut buf, &piece, 0, valid)?;
            q.free_tensor(piece, cast_done);
            self.store.begin(vc, &mut bufs, off, carry)?;
            let prefix = carry;
            propagate_rows(vc, &mut buf, valid, s, &mut carry)?;
            let stored = Tile {
                off,
                valid,
                incl: &buf,
                prefix,
                last: carry,
                total,
            };
            let (out_done, bytes) = self.store.store(vc, &mut bufs, &stored)?;
            vc.span_args(
                tile,
                SpanArgs {
                    bytes: (valid * M::SIZE) as u64 + bytes,
                    kind: "propagate",
                    queue_depth: depth as u32,
                },
            );
            vc.span_end_at(tile, out_done);
        }
        self.store.close(vc, bufs)?;
        vc.free_local(buf)?;
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
