//! Ablations of MCScan's design choice — the **partial recomputation**
//! strategy the paper highlights as novel (§2.1/§4.3).
//!
//! MCScan's phase 1 has the vector cores *recompute* block reductions
//! directly from the input while the cube cores produce tile-local
//! scans, so neither engine waits for the other. The classic strategies
//! it competes with are implemented here as drop-in variants:
//!
//! * [`McScanVariant::StridedTotals`] — instead of recomputing, the
//!   vector cores read the *last element of every `s`-row* of the cube's
//!   tile-local scans (those are the row totals). This halves the
//!   logical phase-1 read volume but (a) serializes the vector cores
//!   behind the cube output and (b) is a strided, line-granularity
//!   access pattern: each 2-byte element drags a whole GM line.
//! * [`McScanVariant::SsaFull`] — textbook Scan-Scan-Add: phase 1
//!   computes *complete* per-block scans (cube local scans + vector
//!   propagation), phase 2 broadcast-adds the scanned block totals.
//!   ≈ 6·N element accesses vs MCScan's 5·N.
//! * [`McScanVariant::Rss`] — Reduce-Scan-Scan: phase 1 only reduces
//!   blocks (vector), phase 2 performs the full local scan + offset.
//!   Same 5·N traffic as MCScan, but phase 1 leaves the cube idle and
//!   phase 2 re-serializes cube → vector per tile.
//!
//! The variants run on MCScan's own launch layout (`y`, `w`, `r`, one
//! chunk of whole tiles per vector core — their per-tile hand-offs need
//! tile chunks), its two-phase skeleton and its stages — the
//! cube tile pass, the chunk reduction and the chunk propagation — so
//! they differ from MCScan only where their strategies do.
//!
//! The `figures ablation` experiment compares all four. In the model,
//! the recomputing MCScan beats SSA everywhere (less traffic) and stays
//! within ~10% of RSS, which moves the same ~10 bytes/element. Every
//! per-tile cube→vector hand-off is an explicit, *priced*
//! `CrossCoreSetFlag`/`CrossCoreWaitFlag` pair (`flag_set_cycles` on the
//! producer, `flag_wait_cycles` plus the observed skew on the consumer)
//! rather than a free timestamp edge — the cost §3.1 warns about ("each
//! data transfer between the AIC and AIV cores might be expensive") and
//! precisely what the paper's recomputation strategy avoids paying per
//! tile.

use crate::mcscan::{chunk_cores, mcscan, McLayout, McScanConfig, ScanKind};
use crate::stage::{chunk_offset, reduce_chunk, store_scalar, HandOffs};
use crate::ScanRun;
use ascend_sim::mem::GlobalMemory;
use ascendc::{ChipSpec, GlobalTensor, ScratchpadKind, SimError, SimResult, TQue};
use dtypes::{CubeInput, Numeric};
use std::sync::Arc;

/// Which multi-core scan strategy to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McScanVariant {
    /// The paper's MCScan: vector cores recompute block reductions from
    /// the input, fully overlapped with the cube cores.
    Recompute,
    /// Block totals gathered from the cube output's row-total column
    /// (strided reads, serialized behind the cube).
    StridedTotals,
    /// Textbook Scan-Scan-Add: complete block scans in phase 1, then a
    /// broadcast add.
    SsaFull,
    /// Reduce-Scan-Scan: reduce-only phase 1, full scan in phase 2.
    Rss,
}

impl McScanVariant {
    /// All variants, for sweeps.
    pub const ALL: [McScanVariant; 4] = [
        McScanVariant::Recompute,
        McScanVariant::StridedTotals,
        McScanVariant::SsaFull,
        McScanVariant::Rss,
    ];

    /// Display label.
    pub const fn name(self) -> &'static str {
        match self {
            McScanVariant::Recompute => "MCScan(recompute)",
            McScanVariant::StridedTotals => "strided-totals",
            McScanVariant::SsaFull => "SSA(full)",
            McScanVariant::Rss => "RSS",
        }
    }
}

/// Runs the chosen multi-core scan strategy (inclusive scan only — the
/// ablation compares phase structures, not output conventions).
pub fn mcscan_variant<T, M, O>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    cfg: McScanConfig,
    variant: McScanVariant,
) -> SimResult<ScanRun<O>>
where
    T: CubeInput,
    M: Numeric,
    O: Numeric,
{
    if cfg.kind != ScanKind::Inclusive {
        return Err(SimError::InvalidArgument(
            "ablation variants implement inclusive scans only".into(),
        ));
    }
    match variant {
        McScanVariant::Recompute => mcscan::<T, M, O>(spec, gm, x, cfg),
        McScanVariant::StridedTotals => strided_totals::<T, M, O>(spec, gm, x, cfg),
        McScanVariant::SsaFull => ssa_full::<T, M, O>(spec, gm, x, cfg),
        McScanVariant::Rss => rss::<T, M, O>(spec, gm, x, cfg),
    }
}

/// Strided-totals variant: block totals come from the cube output.
fn strided_totals<T, M, O>(
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
    let name = "MCScan(strided-totals)";
    let hand = HandOffs::new(name, spec, 1)?;
    let run = McLayout::<T, M, O, _>::with_y(name, spec, gm, x, cfg, Some(spec.ai_cores))?.launch(
        spec,
        gm,
        |mc, ctx| {
            // Phase 1a: cube tile scans, each handed off by a priced
            // CrossCoreSetFlag.
            let range = mc.block_tiles(ctx);
            mc.cube_scans(&mut ctx.cube, x, range, Some((&ctx.flags, hand)))?;
            // Phase 1b: each vector core gathers its chunk's row totals
            // from w with a strided read (one element every s), then
            // reduces.
            let (s, l) = (mc.s, mc.l);
            for (chunk, vc) in chunk_cores(ctx.block_idx, &mut ctx.vecs) {
                let mut totals = vc.alloc_local::<M>(ScratchpadKind::Ub, l / s)?;
                let mut totals_o = vc.alloc_local::<O>(ScratchpadKind::Ub, l / s)?;
                let (mut total, mut total_ready) = (O::zero(), 0);
                for (off, valid) in mc.segments(chunk) {
                    let rows = valid.div_ceil(s);
                    let full_rows = valid / s;
                    // Strided gather: last element of each complete
                    // s-row, once the priced CrossCoreWaitFlag sees the
                    // cube's tile.
                    let dep = hand.wait(vc, &ctx.flags, 0, off / l)?;
                    if full_rows > 0 {
                        vc.copy_in_2d(&mut totals, &mc.w, off + s - 1, full_rows, 1, s, &[dep])?;
                    }
                    // A short tail row contributes its own last element.
                    if valid > full_rows * s {
                        let mut one = vc.alloc_local::<M>(ScratchpadKind::Ub, 1)?;
                        vc.copy_in(&mut one, 0, &mc.w, off + valid - 1, 1, &[dep])?;
                        let (last, lr) = vc.extract(&one, 0)?;
                        vc.insert(&mut totals, rows - 1, last, lr)?;
                        vc.free_local(one)?;
                    }
                    let cast_done = vc.vcast::<M, O>(&mut totals_o, &totals, 0, rows)?;
                    let (sum, ready) = vc.reduce_sum(&totals_o, 0, rows)?;
                    total = total.add(sum);
                    total_ready = vc.scalar_ops(1, &[ready, total_ready, cast_done])?;
                }
                store_scalar(vc, &mc.r, chunk, (total, total_ready))?;
                vc.free_local(totals)?;
                vc.free_local(totals_o)?;
            }
            Ok(())
        },
        // Phase 2: MCScan's propagation.
        |mc, ctx| {
            for (chunk, vc) in chunk_cores(ctx.block_idx, &mut ctx.vecs) {
                let (offset, _) = chunk_offset(vc, &mc.r, chunk, false)?;
                mc.propagate(vc, chunk, offset, None, None)?;
            }
            Ok(())
        },
    )?;
    Ok(ScanRun::from(run))
}

/// Textbook SSA: full per-chunk scans in phase 1, broadcast add after.
fn ssa_full<T, M, O>(
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
    let name = "SSA(full)";
    let hand = HandOffs::new(name, spec, 1)?;
    let run = McLayout::<T, M, O, _>::with_y(name, spec, gm, x, cfg, Some(spec.ai_cores))?.launch(
        spec,
        gm,
        |mc, ctx| {
            let range = mc.block_tiles(ctx);
            mc.cube_scans(&mut ctx.cube, x, range, Some((&ctx.flags, hand)))?;
            // Phase 1b: full chunk-local scan (rows propagated from
            // zero), written to y; the chunk total goes to r.
            for (chunk, vc) in chunk_cores(ctx.block_idx, &mut ctx.vecs) {
                let zero = (O::zero(), 0);
                let waits = Some((&ctx.flags, hand));
                let total = mc.propagate(vc, chunk, zero, None, waits)?;
                store_scalar(vc, &mc.r, chunk, total)?;
            }
            Ok(())
        },
        // Phase 2: broadcast-add the scanned chunk offsets (uniform per
        // chunk — one Adds per tile, no per-row chain).
        |mc, ctx| {
            let l = mc.l;
            for (chunk, vc) in chunk_cores(ctx.block_idx, &mut ctx.vecs) {
                if chunk == 0 {
                    continue; // chunk 0 needs no offset
                }
                let ((offset, offset_ready), _) = chunk_offset(vc, &mc.r, chunk, false)?;
                let depth = if 3 * l * O::SIZE + 64 <= vc.spec().ub_capacity {
                    2
                } else {
                    1
                };
                let mut q = TQue::<O>::new(vc, ScratchpadKind::Ub, depth, l)?;
                for (off, valid) in mc.segments(chunk) {
                    let mut buf = q.alloc_tensor()?;
                    vc.copy_in(&mut buf, 0, &mc.store.y, off, valid, &[])?;
                    vc.vadds(&mut buf, 0, valid, offset, offset_ready)?;
                    let ev = vc.copy_out(&mc.store.y, off, &buf, 0, valid, &[])?;
                    q.free_tensor(buf, ev);
                }
                q.destroy(vc)?;
            }
            Ok(())
        },
    )?;
    Ok(ScanRun::from(run))
}

/// Reduce-Scan-Scan: phase 1 reduces only; phase 2 does everything else.
fn rss<T, M, O>(
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
    let name = "RSS";
    let hand = HandOffs::new(name, spec, 1)?;
    let run = McLayout::<T, M, O, _>::with_y(name, spec, gm, x, cfg, Some(spec.ai_cores))?.launch(
        spec,
        gm,
        // Phase 1: MCScan's chunk reductions only (the cube sits idle —
        // RSS's structural drawback on a split architecture).
        |mc, ctx| {
            for (chunk, vc) in chunk_cores(ctx.block_idx, &mut ctx.vecs) {
                reduce_chunk(vc, x, &mc.segments(chunk), mc.l, &mc.r, chunk)?;
            }
            Ok(())
        },
        // Phase 2: cube tile scans + vector propagation with the chunk
        // offset folded into the running partial (per-tile cube→vector
        // dependencies — the serialization MCScan's phase split avoids).
        |mc, ctx| {
            let range = mc.block_tiles(ctx);
            mc.cube_scans(&mut ctx.cube, x, range, Some((&ctx.flags, hand)))?;
            for (chunk, vc) in chunk_cores(ctx.block_idx, &mut ctx.vecs) {
                let (offset, _) = chunk_offset(vc, &mc.r, chunk, false)?;
                let waits = Some((&ctx.flags, hand));
                mc.propagate(vc, chunk, offset, None, waits)?;
            }
            Ok(())
        },
    )?;
    Ok(ScanRun::from(run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    fn cfg(blocks: u32) -> McScanConfig {
        McScanConfig {
            s: 16,
            blocks,
            kind: ScanKind::Inclusive,
        }
    }

    #[test]
    fn all_variants_compute_the_same_scan() {
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..5000).map(|i| ((i * 7) % 9) as i8 - 4).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let expect = reference::inclusive_widening::<i8, i32>(&data);
        for v in McScanVariant::ALL {
            let run = mcscan_variant::<i8, i32, i32>(&spec, &gm, &x, cfg(2), v).unwrap();
            assert_eq!(run.y.to_vec(), expect, "variant {}", v.name());
        }
    }

    #[test]
    fn variants_handle_partial_tiles_and_single_block() {
        let (spec, gm) = setup();
        let data: Vec<u8> = (0..1333).map(|i| ((i * 13) % 3 == 0) as u8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let expect = reference::inclusive_widening::<u8, i32>(&data);
        for v in McScanVariant::ALL {
            let run = mcscan_variant::<u8, i16, i32>(&spec, &gm, &x, cfg(1), v).unwrap();
            assert_eq!(run.y.to_vec(), expect, "variant {}", v.name());
        }
    }

    #[test]
    fn exclusive_rejected_for_ablation_variants() {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, &[1i8; 64]).unwrap();
        let bad = McScanConfig {
            s: 16,
            blocks: 1,
            kind: ScanKind::Exclusive,
        };
        assert!(mcscan_variant::<i8, i32, i32>(&spec, &gm, &x, bad, McScanVariant::Rss).is_err());
    }

    #[test]
    fn ssa_moves_more_traffic_than_recompute() {
        let (spec, gm) = setup();
        let n = 8192;
        let data = vec![1i8; n];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let rec = mcscan_variant::<i8, i16, i32>(&spec, &gm, &x, cfg(2), McScanVariant::Recompute)
            .unwrap()
            .report;
        let ssa = mcscan_variant::<i8, i16, i32>(&spec, &gm, &x, cfg(2), McScanVariant::SsaFull)
            .unwrap()
            .report;
        let rec_traffic = rec.bytes_read + rec.bytes_written;
        let ssa_traffic = ssa.bytes_read + ssa.bytes_written;
        assert!(
            ssa_traffic > rec_traffic,
            "SSA {ssa_traffic} B should exceed recompute {rec_traffic} B"
        );
    }

    #[test]
    fn recompute_wins_on_the_big_chip() {
        // At the bandwidth roofline MCScan and RSS tie (both move ~10
        // bytes per int8 element); recompute's edge is (a) strictly less
        // traffic than textbook SSA and (b) a shorter critical path in
        // the latency-bound regime, where phase 1 overlaps cube and
        // vector work instead of serializing them.
        let spec = ChipSpec::ascend_910b4();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        let big = McScanConfig {
            s: 128,
            blocks: spec.ai_cores,
            kind: ScanKind::Inclusive,
        };

        // Roofline regime: within 5% of the best variant, and strictly
        // ahead of SSA(full).
        let n = 4 << 20;
        let x = GlobalTensor::from_slice(&gm, &vec![1i8; n]).unwrap();
        let mut times = Vec::new();
        for v in McScanVariant::ALL {
            let run = mcscan_variant::<i8, i16, i32>(&spec, &gm, &x, big, v).unwrap();
            times.push((v, run.report.time_us()));
        }
        let rec = times[0].1;
        let best = times.iter().map(|&(_, t)| t).fold(f64::MAX, f64::min);
        assert!(
            rec <= best * 1.05,
            "recompute {rec:.1} us vs best {best:.1} us"
        );
        let ssa = times
            .iter()
            .find(|(v, _)| *v == McScanVariant::SsaFull)
            .unwrap()
            .1;
        assert!(
            rec < ssa,
            "recompute {rec:.1} us must beat SSA(full) {ssa:.1} us"
        );

        // Latency-sensitive regime: recompute's overlapped phase 1 wins
        // against the serialized strategies.
        let n = 1 << 18;
        let x = GlobalTensor::from_slice(&gm, &vec![1i8; n]).unwrap();
        let rec = mcscan_variant::<i8, i16, i32>(&spec, &gm, &x, big, McScanVariant::Recompute)
            .unwrap()
            .report
            .time_us();
        for v in [McScanVariant::SsaFull, McScanVariant::Rss] {
            let t = mcscan_variant::<i8, i16, i32>(&spec, &gm, &x, big, v)
                .unwrap()
                .report
                .time_us();
            assert!(
                rec <= t * 1.01,
                "at 256K, recompute ({rec:.1} us) should not trail {} ({t:.1} us)",
                v.name()
            );
        }
    }
}
