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

use crate::triangular::ScanConstants;
use crate::util::{partition, tile_dim, tile_spans};
use crate::{finish_report, ScanRun};
use ascend_sim::mem::GlobalMemory;
use ascendc::{
    launch, ChipSpec, GlobalTensor, ScratchpadKind, SimError, SimResult, SpanArgs, TQue,
};
use dtypes::{CubeInput, Element, Numeric, F16};
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
    if cfg.s == 0 || !cfg.s.is_multiple_of(16) {
        return Err(SimError::InvalidArgument(format!(
            "MCScan: s must be a positive multiple of 16, got {}",
            cfg.s
        )));
    }
    if cfg.blocks == 0 {
        return Err(SimError::InvalidArgument(format!(
            "MCScan: blocks must be at least 1 (grids beyond the chip's {} AI \
             cores wave-multiplex onto the physical slots)",
            spec.ai_cores
        )));
    }
    let n = x.len();
    let s = cfg.s;
    let l = s * s;
    let consts = ScanConstants::<T>::upload(gm, s)?;
    let y = GlobalTensor::<O>::new(gm, n)?;
    // Tile-local scans land here in the (possibly narrower) intermediate
    // type; the paper's kernel writes them into the output buffer, which
    // is the same traffic.
    let w = GlobalTensor::<M>::new(gm, n)?;

    // Chunk layout: one chunk per vector core, at tile granularity.
    let chunks_total = (cfg.blocks * spec.vec_per_core) as usize;
    let tiles = tile_spans(n, l);
    let chunk_tiles = partition(tiles.len(), chunks_total);
    // The reduction array r, one entry per chunk (Line 3).
    let r = GlobalTensor::<O>::new(gm, chunks_total)?;

    let mut report = launch(spec, gm, cfg.blocks, "MCScan", |ctx| {
        let block = ctx.block_idx as usize;
        let vec_per_core = ctx.vecs.len();
        // ---------------- Phase I (Lines 4-14) ----------------
        let phase1 = ctx.span_begin("Phase I");
        // Cube core: tile-local scans over this block's chunks.
        {
            let cube = &mut ctx.cube;
            let mut lb = cube.alloc_local::<T>(ScratchpadKind::L0B, l)?;
            cube.copy_in(&mut lb, 0, &consts.upper, 0, l, &[])?;
            // Double-buffer L0A/L0C when the element width allows two
            // tiles (fp16/int8); fall back to single buffering for f32.
            let da = if 2 * l * T::SIZE <= cube.spec().l0a_capacity {
                2
            } else {
                1
            };
            let dc = if 2 * l * <T::Acc as dtypes::Element>::SIZE <= cube.spec().l0c_capacity {
                2
            } else {
                1
            };
            let mut qa = TQue::<T>::new(cube, ScratchpadKind::L0A, da, l)?.named("qa(L0A)");
            let mut qc = TQue::<T::Acc>::new(cube, ScratchpadKind::L0C, dc, l)?.named("qc(L0C)");
            for v in 0..vec_per_core {
                let (t0, tcount) = chunk_tiles[block * vec_per_core + v];
                for &(off, valid) in &tiles[t0..t0 + tcount] {
                    let rows = valid.div_ceil(s);
                    let tile = cube.span_begin("tile");
                    let mut la = qa.alloc_tensor()?;
                    if valid < rows * s {
                        cube.fill_local(&mut la, 0, rows * s, T::zero())?;
                    }
                    cube.copy_in(&mut la, 0, x, off, valid, &[])?;
                    let mut lc = qc.alloc_tensor()?;
                    let mm = cube.mmad::<T>(&mut lc, &mut la, &mut lb, rows, s, s, false)?;
                    qa.free_tensor(la, mm);
                    let ev = cube.copy_out_cast::<T::Acc, M>(&w, off, &lc, 0, valid, &[])?;
                    qc.free_tensor(lc, ev);
                    cube.span_args(
                        tile,
                        SpanArgs {
                            bytes: (valid * (T::SIZE + M::SIZE)) as u64,
                            kind: "mmad",
                            queue_depth: da as u32,
                        },
                    );
                    cube.span_end_at(tile, ev);
                }
            }
            cube.free_local(lb)?;
            qa.destroy(cube)?;
            qc.destroy(cube)?;
        }
        // Vector cores: recompute the block (chunk) reductions from x.
        for v in 0..vec_per_core {
            let chunk = block * vec_per_core + v;
            let (t0, tcount) = chunk_tiles[chunk];
            let vc = &mut ctx.vecs[v];
            let din = if 2 * l * T::SIZE + l * O::SIZE + 64 <= vc.spec().ub_capacity {
                2
            } else {
                1
            };
            let mut qin = TQue::<T>::new(vc, ScratchpadKind::Ub, din, l)?.named("qin(UB)");
            let mut acc_buf = vc.alloc_local::<O>(ScratchpadKind::Ub, l)?;
            let mut total = O::zero();
            let mut total_ready = 0;
            for &(off, valid) in &tiles[t0..t0 + tcount] {
                let tile = vc.span_begin("tile");
                let mut piece = qin.alloc_tensor()?;
                vc.copy_in(&mut piece, 0, x, off, valid, &[])?;
                // Widen to the output domain before reducing (int8 masks
                // would overflow their own type).
                let cast_done = vc.vcast::<T, O>(&mut acc_buf, &piece, 0, valid)?;
                qin.free_tensor(piece, cast_done);
                let (sum, ready) = vc.reduce_sum(&acc_buf, 0, valid)?;
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
            // Write r[chunk] (Line 13).
            let mut one = vc.alloc_local::<O>(ScratchpadKind::Ub, 1)?;
            vc.insert(&mut one, 0, total, total_ready)?;
            vc.copy_out(&r, chunk, &one, 0, 1, &[])?;
            vc.free_local(one)?;
            vc.free_local(acc_buf)?;
            qin.destroy(vc)?;
        }
        ctx.span_end(phase1);

        // ---------------- SyncAll (Line 15) ----------------
        ctx.sync_all()?;

        // ---------------- Phase II (Lines 16-26) ----------------
        let phase2 = ctx.span_begin("Phase II");
        for v in 0..vec_per_core {
            let chunk = block * vec_per_core + v;
            let (t0, tcount) = chunk_tiles[chunk];
            let vc = &mut ctx.vecs[v];
            // Load r into UB and scan its prefix for this chunk.
            let mut r_ub = vc.alloc_local::<O>(ScratchpadKind::Ub, chunks_total)?;
            vc.copy_in(&mut r_ub, 0, &r, 0, chunks_total, &[])?;
            let (mut partial, mut partial_ready) = if chunk == 0 {
                (O::zero(), 0)
            } else {
                vc.reduce_sum(&r_ub, 0, chunk)?
            };
            vc.free_local(r_ub)?;

            // Double-buffer the staging queue when UB has room for two
            // intermediate tiles next to the propagation buffer; fall
            // back to single buffering for wide intermediates (the
            // propagation is bandwidth-bound either way).
            let ub = vc.spec().ub_capacity;
            let depth = if 2 * l * M::SIZE + l * O::SIZE + 64 <= ub {
                2
            } else {
                1
            };
            let mut q = TQue::<M>::new(vc, ScratchpadKind::Ub, depth, l)?.named("q(UB)");
            let mut buf = vc.alloc_local::<O>(ScratchpadKind::Ub, l)?;
            let mut boundary = vc.alloc_local::<O>(ScratchpadKind::Ub, 1)?;
            for &(off, valid) in &tiles[t0..t0 + tcount] {
                let tile = vc.span_begin("tile");
                let mut piece = q.alloc_tensor()?;
                vc.copy_in(&mut piece, 0, &w, off, valid, &[])?;
                let cast_done = vc.vcast::<M, O>(&mut buf, &piece, 0, valid)?;
                q.free_tensor(piece, cast_done);
                if cfg.kind == ScanKind::Exclusive {
                    // The tile's first exclusive output is the running
                    // partial itself; writing it from this core keeps
                    // every store inside the core's own span (§4.3's
                    // shifted write, without a cross-block boundary
                    // hazard). For the very first tile this also writes
                    // the required y[0] = 0.
                    vc.insert(&mut boundary, 0, partial, partial_ready)?;
                    vc.copy_out(&y, off, &boundary, 0, 1, &[])?;
                }
                for (row_off, row_len) in tile_spans(valid, s) {
                    vc.vadds(&mut buf, row_off, row_len, partial, partial_ready)?;
                    let (p, pr) = vc.extract(&buf, row_off + row_len - 1)?;
                    partial = p;
                    partial_ready = pr;
                }
                let out_done = match cfg.kind {
                    ScanKind::Inclusive => vc.copy_out(&y, off, &buf, 0, valid, &[])?,
                    ScanKind::Exclusive => {
                        // Shift right by one within the tile; the tile's
                        // last inclusive value is carried to the next
                        // tile through `partial` instead of the store.
                        if valid > 1 {
                            vc.copy_out(&y, off + 1, &buf, 0, valid - 1, &[])?
                        } else {
                            partial_ready
                        }
                    }
                };
                vc.span_args(
                    tile,
                    SpanArgs {
                        bytes: (valid * (M::SIZE + O::SIZE)) as u64,
                        kind: "propagate",
                        queue_depth: depth as u32,
                    },
                );
                vc.span_end_at(tile, out_done);
            }
            vc.free_local(boundary)?;
            vc.free_local(buf)?;
            q.destroy(vc)?;
        }
        ctx.span_end(phase2);
        Ok(())
    })?;

    finish_report(&mut report, n, T::SIZE, O::SIZE);
    Ok(ScanRun { y, report })
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
