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
//! A chunk is a run of whole `ℓ`-element tiles, `⌈tiles / chunks⌉` to a
//! vector core. The `ops` crate's splits do not scan at all: they count
//! their masks per chunk with [`crate::MaskCounts`]. Its samplers run
//! the same two phases inside a launch of their own ([`McLayout::scan`]).

use crate::stage::{
    check_blocks, check_intermediate, check_tile, chunk_cores, chunk_offset, propagate_rows,
    reduce_chunk, CubePass, HandOffs, Timed,
};
use crate::triangular::ScanConstants;
use crate::util::{partition, tile_dim, tile_spans};
use crate::{finish_report, ScanRun};
use ascend_sim::mem::GlobalMemory;
use ascendc::{
    launch, BlockCtx, ChipSpec, Core, FlagFile, GlobalTensor, KernelReport, ScratchpadKind,
    SimResult, SpanArgs, TQue,
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
///   a row-local scan of `s ≤ 128` bytes never exceeds `128 · 255 =
///   32,640`, so the intermediate fits `i16` and phase 1 writes 2 bytes
///   per element instead of 4, which is where the int8 path's
///   throughput edge over fp16 comes from.
///
/// An integer `M` must hold `s` times the largest input value: a larger
/// `s` is refused with [`ascendc::SimError::InvalidArgument`] rather than
/// left to wrap (`s = 144` would for all-255 `u8` rows).
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
    let mc = McLayout::<T, M, O>::new("MCScan", spec, gm, x, cfg, None)?;
    let report = mc.launch(
        spec,
        gm,
        |mc, ctx| mc.phase_one(ctx, x),
        |mc, ctx| mc.phase_two(ctx),
    )?;
    Ok(ScanRun { y: mc.y, report })
}

/// Depth of propagation's staging queue: double-buffered when UB has
/// room for two intermediate tiles next to the propagation buffer;
/// single-buffered otherwise (the propagation is bandwidth-bound either
/// way).
fn queue_depth<M: Element, O: Element>(spec: &ChipSpec, l: usize) -> usize {
    if 2 * l * M::SIZE + l * O::SIZE + 64 <= spec.ub_capacity {
        2
    } else {
        1
    }
}

/// The layout of an MCScan over `x`, shared by [`mcscan`], the ablation
/// variants and the kernels that scan inside a launch of their own
/// ([`McLayout::scan`]): the scan constants, the output `y`, the
/// intermediate `w` the tile-local scans land in, the reduction array
/// `r` (one entry per chunk, Line 3) and the chunk map — one contiguous
/// run of whole tiles per vector core.
pub struct McLayout<T: CubeInput, M: Numeric, O: Numeric> {
    name: &'static str,
    n: usize,
    pub(crate) s: usize,
    pub(crate) l: usize,
    blocks: u32,
    kind: ScanKind,
    consts: ScanConstants<T>,
    /// The scan's output.
    pub y: GlobalTensor<O>,
    pub(crate) w: GlobalTensor<M>,
    pub(crate) r: GlobalTensor<O>,
    tiles: Vec<(usize, usize)>,
    chunks: Vec<Range<usize>>,
}

impl<T: CubeInput, M: Numeric, O: Numeric> McLayout<T, M, O> {
    /// Validates `cfg` (its tile dimension, the intermediate's range and
    /// the grid; grids above `max_blocks` are rejected, `None`
    /// wave-multiplexes any grid) for kernel `name` and allocates the
    /// layout's tensors for a `cfg.kind` scan of `x`.
    pub fn new(
        name: &'static str,
        spec: &ChipSpec,
        gm: &Arc<GlobalMemory>,
        x: &GlobalTensor<T>,
        cfg: McScanConfig,
        max_blocks: Option<u32>,
    ) -> SimResult<Self> {
        let (n, s, blocks) = (x.len(), cfg.s, cfg.blocks);
        check_tile(name, s)?;
        check_intermediate::<T, M>(name, s)?;
        check_blocks(name, blocks, max_blocks)?;
        let l = s * s;
        let chunks_total = (blocks * spec.vec_per_core) as usize;
        let chunks: Vec<Range<usize>> = partition(name, n.div_ceil(l), chunks_total)?
            .into_iter()
            .map(|(first, count)| (first * l).min(n)..((first + count) * l).min(n))
            .collect();
        let consts = ScanConstants::<T>::upload(gm, s)?;
        let y = GlobalTensor::<O>::new(gm, n)?;
        // Tile-local scans land here in the (possibly narrower)
        // intermediate type; the paper's kernel writes them into the
        // output buffer, which is the same traffic.
        let w = GlobalTensor::<M>::new(gm, n)?;
        let r = GlobalTensor::<O>::new(gm, chunks_total)?;
        Ok(McLayout {
            name,
            n,
            s,
            l,
            blocks,
            kind: cfg.kind,
            consts,
            y,
            w,
            r,
            tiles: tile_spans(n, l)?,
            chunks,
        })
    }

    /// Launches the two-phase skeleton (`phase1`, a `SyncAll`, then
    /// `phase2`) on the layout's grid.
    pub(crate) fn launch(
        &self,
        spec: &ChipSpec,
        gm: &Arc<GlobalMemory>,
        phase1: impl Fn(&Self, &mut BlockCtx<'_>) -> SimResult<()> + Sync,
        phase2: impl Fn(&Self, &mut BlockCtx<'_>) -> SimResult<()> + Sync,
    ) -> SimResult<KernelReport> {
        let mut report = launch(spec, gm, self.blocks, self.name, |ctx| {
            self.phases(ctx, &phase1, &phase2)
        })?;
        finish_report(&mut report, self.n, T::SIZE, O::SIZE);
        Ok(report)
    }

    /// MCScan of `x` on one block of any launch on the layout's grid:
    /// phase I, a `SyncAll`, then phase II, each inside its phase span —
    /// what [`mcscan`] runs as a launch of its own. `y` holds the scan
    /// once every block has passed a later `SyncAll`.
    pub fn scan(&self, ctx: &mut BlockCtx<'_>, x: &GlobalTensor<T>) -> SimResult<()> {
        self.phases(
            ctx,
            |mc, ctx| mc.phase_one(ctx, x),
            |mc, ctx| mc.phase_two(ctx),
        )
    }

    /// The two-phase skeleton on one block: `phase1`, a `SyncAll`
    /// (Line 15), then `phase2`, each inside its phase span.
    fn phases(
        &self,
        ctx: &mut BlockCtx<'_>,
        phase1: impl Fn(&Self, &mut BlockCtx<'_>) -> SimResult<()>,
        phase2: impl Fn(&Self, &mut BlockCtx<'_>) -> SimResult<()>,
    ) -> SimResult<()> {
        let phase = ctx.span_begin("Phase I");
        phase1(self, ctx)?;
        ctx.span_end(phase);
        ctx.sync_all()?;
        let phase = ctx.span_begin("Phase II");
        phase2(self, ctx)?;
        ctx.span_end(phase);
        Ok(())
    }

    /// MCScan's phase I (Lines 4-14) of `x` on one block: the cube writes
    /// the tile-local scans of the block's tiles to `w` while the vector
    /// cores recompute their chunks' reductions from `x` into `r`.
    fn phase_one(&self, ctx: &mut BlockCtx<'_>, x: &GlobalTensor<T>) -> SimResult<()> {
        let range = self.block_tiles(ctx);
        self.cube_scans(&mut ctx.cube, x, range, None)?;
        for (chunk, vc) in chunk_cores(ctx.block_idx, &mut ctx.vecs) {
            reduce_chunk(vc, x, &self.segments(chunk)?, self.l, &self.r, chunk)?;
        }
        Ok(())
    }

    /// MCScan's phase II (Lines 16-26) on one block, after the `SyncAll`
    /// that follows phase I: each vector core scans `r`'s prefix in UB
    /// and propagates it through its chunk's tile-local scans into `y`.
    fn phase_two(&self, ctx: &mut BlockCtx<'_>) -> SimResult<()> {
        for (chunk, vc) in chunk_cores(ctx.block_idx, &mut ctx.vecs) {
            let (offset, _) = chunk_offset(vc, &self.r, 1, chunk, false)?;
            self.propagate(vc, chunk, offset[0], None)?;
        }
        Ok(())
    }

    /// The segments of chunk `chunk`: its element range cut into
    /// `(offset, len)` cube tiles, `offset / ℓ` being the tile's index.
    pub(crate) fn segments(&self, chunk: usize) -> SimResult<Vec<(usize, usize)>> {
        let range = self.chunks[chunk].clone();
        Ok(tile_spans(range.len(), self.l)?
            .into_iter()
            .map(|(off, len)| (range.start + off, len))
            .collect())
    }

    /// The cube tiles of the block: those that start inside its chunks.
    pub(crate) fn block_tiles(&self, ctx: &BlockCtx<'_>) -> Range<usize> {
        let vpc = ctx.vecs.len();
        let first = ctx.block_idx as usize * vpc;
        let (start, end) = (self.chunks[first].start, self.chunks[first + vpc - 1].end);
        start.div_ceil(self.l)..end.div_ceil(self.l)
    }

    /// The cube stage: tile-local scans (`A @ U_s`) of `range` into `w`,
    /// through one `U_s` in L0B. With `hand`, each tile is handed to the
    /// vector cores under its tile index.
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
    /// from `w` one tile at a time, widens them to `O`, carries the
    /// running partial `carry` through them row by row and writes the
    /// inclusive scan, or §4.3's shifted exclusive scan, to `y`. With
    /// `hand`, each tile first waits for its hand-off. Returns the final
    /// partial — the chunk's inclusive total.
    pub(crate) fn propagate(
        &self,
        vc: &mut Core<'_>,
        chunk: usize,
        mut carry: Timed<O>,
        hand: Option<(&FlagFile, HandOffs)>,
    ) -> SimResult<Timed<O>> {
        let (s, l) = (self.s, self.l);
        let depth = queue_depth::<M, O>(vc.spec(), l);
        let mut q = TQue::<M>::new(vc, ScratchpadKind::Ub, depth, l)?.named("q(UB)");
        let mut buf = vc.alloc_local::<O>(ScratchpadKind::Ub, l)?;
        // The one-element buffer of the exclusive scan's boundary write.
        let mut boundary = vc.alloc_local::<O>(ScratchpadKind::Ub, 1)?;
        for (off, valid) in self.segments(chunk)? {
            let tile = vc.span_begin("tile");
            let ready = match hand {
                Some((flags, hand)) => Some(hand.wait(vc, flags, 0, off / l)?),
                None => None,
            };
            let mut piece = q.alloc_tensor()?;
            vc.copy_in(&mut piece, 0, &self.w, off, valid, ready.as_slice())?;
            let cast_done = vc.vcast::<M, O>(&mut buf, &piece, 0, valid)?;
            q.free_tensor(piece, cast_done);
            if self.kind == ScanKind::Exclusive {
                // The tile's first exclusive output is the running
                // partial itself; writing it from this core keeps every
                // store inside the core's own span (§4.3's shifted
                // write, without a cross-block boundary hazard). For the
                // very first tile this also writes the required y[0] = 0.
                vc.insert(&mut boundary, 0, carry.0, carry.1)?;
                vc.copy_out(&self.y, off, &boundary, 0, 1, &[])?;
            }
            propagate_rows(vc, &mut buf, valid, s, &mut carry)?;
            let done = match self.kind {
                ScanKind::Inclusive => vc.copy_out(&self.y, off, &buf, 0, valid, &[])?,
                // Shift right by one within the tile; its last inclusive
                // value is carried to the next tile instead of stored.
                ScanKind::Exclusive if valid > 1 => {
                    vc.copy_out(&self.y, off + 1, &buf, 0, valid - 1, &[])?
                }
                ScanKind::Exclusive => carry.1,
            };
            vc.span_args(
                tile,
                SpanArgs {
                    bytes: (valid * (M::SIZE + O::SIZE)) as u64,
                    kind: "propagate",
                    queue_depth: depth as u32,
                },
            );
            vc.span_end_at(tile, done);
        }
        vc.free_local(boundary)?;
        vc.free_local(buf)?;
        q.destroy(vc)?;
        Ok(carry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use ascendc::SimError;
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
