//! Batched (multi-array) scans — §4.2.
//!
//! A batched scan computes independent prefix sums over `batch` arrays of
//! equal length. The two schedules mirror the paper's Figure 4:
//!
//! * [`batched_scanu`] extends ScanU and exploits the 910B's 2-to-1
//!   vector-to-cube ratio: each AI core's cube engine computes the
//!   tile-local scans of *two* batch rows interleaved, and the core's two
//!   vector cores each complete the propagation of one of the rows.
//! * [`batched_scanul1`] extends ScanUL1: each AI core runs the full
//!   ScanUL1 pipeline on whole rows assigned round-robin. Single-core
//!   [`crate::scanul1()`] is this body at batch 1.
//!
//! Fig. 5's finding reproduces from these schedules: ScanU-batched wins
//! for many short rows (its per-row pipeline has lower latency and uses
//! both vector cores), ScanUL1-batched wins for few long rows (its
//! steady-state per-element cost is lower, but only one row per AI core
//! progresses at a time).

use crate::stage::{check_tile, propagate_rows, CubePass, HandOffs, Ul1Pass};
use crate::triangular::ScanConstants;
use crate::util::tile_spans;
use crate::{finish_report, ScanRun};
use ascend_sim::mem::GlobalMemory;
use ascendc::{
    launch, ChipSpec, Core, EventTime, GlobalTensor, ScratchpadKind, SimError, SimResult, SpanArgs,
    TQue,
};
use dtypes::{CubeInput, Numeric};
use std::sync::Arc;

fn check_shape(what: &str, total: usize, batch: usize, len: usize) -> SimResult<()> {
    if batch == 0 || len == 0 || batch * len != total {
        return Err(SimError::InvalidArgument(format!(
            "{what}: batch {batch} x len {len} does not match tensor of {total} elements"
        )));
    }
    Ok(())
}

/// Batched scan based on ScanU (Algorithm 1): rows are processed in
/// pairs per AI core — the cube interleaves both rows' tiles and each
/// vector core owns one row of the pair (a chip with one vector core
/// per AI core takes the rows one at a time).
///
/// `x` holds `batch` rows of `len` elements, row-major.
pub fn batched_scanu<T, O>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    batch: usize,
    len: usize,
    s: usize,
) -> SimResult<ScanRun<O>>
where
    T: CubeInput,
    O: Numeric,
{
    let what = "batched ScanU";
    check_tile(what, s)?;
    check_shape(what, x.len(), batch, len)?;
    // The cube alternates lanes within a tile while each vector core
    // drains one lane sequentially, so the flag-id space is split per
    // lane: within a lane, set order equals wait order.
    let group = spec.vec_per_core.min(2);
    let hand = HandOffs::new(what, spec, group)?;
    let group = group as usize;
    let l = s * s;
    let consts = ScanConstants::<T>::upload(gm, s)?;
    let y = GlobalTensor::<O>::new(gm, batch * len)?;
    let spans = tile_spans(len, l)?;
    let groups = batch.div_ceil(group);
    let blocks = (spec.ai_cores as usize).min(groups) as u32;

    let mut report = launch(spec, gm, blocks, "BatchedScanU", |ctx| {
        let block = ctx.block_idx as usize;
        let nblocks = ctx.block_dim as usize;
        // Row groups handled by this block, assigned round-robin; the
        // lanes of group `g` are rows `g · group + lane`.
        let my_groups: Vec<usize> = (block..groups).step_by(nblocks).collect();
        let lanes = |g: usize| {
            (0..group)
                .map(move |lane| (lane, g * group + lane))
                .filter(|&(_, row)| row < batch)
        };

        // ---- Cube core: interleave the group's rows tile by tile. ----
        let phase = ctx.span_begin("CubePairedTileScans");
        let cube = &mut ctx.cube;
        let mut pass = CubePass::new(cube, &consts.upper, s)?;
        for (gi, &g) in my_groups.iter().enumerate() {
            for (t, &(off, valid)) in spans.iter().enumerate() {
                for (lane, row) in lanes(g) {
                    let ev = pass.scan_tile(cube, x, &y, row * len + off, valid)?;
                    hand.set(cube, &ctx.flags, lane, gi * spans.len() + t, ev)?;
                }
            }
        }
        pass.finish(cube)?;
        ctx.span_end(phase);

        // ---- Vector cores: one row of each group per core. ----
        let phase = ctx.span_begin("VecPropagation");
        for lane in 0..group {
            let vc = &mut ctx.vecs[lane];
            let mut q = TQue::<O>::new(vc, ScratchpadKind::Ub, 2, l)?.named("q(UB)");
            for (gi, &g) in my_groups.iter().enumerate() {
                let row = g * group + lane;
                if row < batch {
                    let first = gi * spans.len();
                    let wait = |vc: &mut Core<'_>, t| hand.wait(vc, &ctx.flags, lane, first + t);
                    propagate_row(vc, &mut q, &y, row * len, &spans, s, wait)?;
                }
            }
            q.destroy(vc)?;
        }
        ctx.span_end(phase);
        Ok(())
    })?;

    finish_report(&mut report, batch * len, T::SIZE, O::SIZE);
    Ok(ScanRun { y, report })
}

/// Batched scan based on ScanUL1 (Algorithm 2): each AI core runs the
/// complete three-matmul pipeline on whole rows, assigned round-robin.
pub fn batched_scanul1<T, O>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    batch: usize,
    len: usize,
    s: usize,
) -> SimResult<ScanRun<O>>
where
    T: CubeInput,
    O: Numeric,
{
    check_shape("batched ScanUL1", x.len(), batch, len)?;
    ul1_rows(spec, gm, x, batch, len, s, "BatchedScanUL1")
}

/// The batched ScanUL1 body, launched as kernel `name`: rows go
/// round-robin to the AI cores, whose cube runs [`Ul1Pass`] over each
/// row's tiles and whose first vector core adds one running partial per
/// tile. Single-core ScanUL1 is this body at batch 1.
pub(crate) fn ul1_rows<T, O>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    batch: usize,
    len: usize,
    s: usize,
    name: &str,
) -> SimResult<ScanRun<O>>
where
    T: CubeInput,
    O: Numeric,
{
    check_tile(name, s)?;
    // Tile hand-offs cycle the chip's flag registers in (row, tile)
    // order; the single vector core waits in the same order.
    let hand = HandOffs::new(name, spec, 1)?;
    let l = s * s;
    let consts = ScanConstants::<T>::upload(gm, s)?;
    let y = GlobalTensor::<O>::new(gm, batch * len)?;
    let spans = tile_spans(len, l)?;
    let blocks = (spec.ai_cores as usize).min(batch) as u32;

    let mut report = launch(spec, gm, blocks, name, |ctx| {
        let block = ctx.block_idx as usize;
        let nblocks = ctx.block_dim as usize;
        let my_rows: Vec<usize> = (block..batch).step_by(nblocks).collect();

        let phase = ctx.span_begin("CubeThreeMatmuls");
        let cube = &mut ctx.cube;
        let mut pass = Ul1Pass::new(cube, &consts)?;
        for (ri, &row) in my_rows.iter().enumerate() {
            for (t, &(off, valid)) in spans.iter().enumerate() {
                let ev = pass.scan_tile(cube, x, &y, row * len + off, valid)?;
                hand.set(cube, &ctx.flags, 0, ri * spans.len() + t, ev)?;
            }
        }
        pass.finish(cube)?;
        ctx.span_end(phase);

        // ---- Vector core: one partial add per tile (Lines 14-18). ----
        // One vector core per AI core completes the rows (the second
        // vector core is idle — the schedule's known inefficiency that
        // Fig. 5 exposes for large batch counts).
        let phase = ctx.span_begin("VecPropagation");
        let vc = &mut ctx.vecs[0];
        let mut q = TQue::<O>::new(vc, ScratchpadKind::Ub, 2, l)?.named("q(UB)");
        for (ri, &row) in my_rows.iter().enumerate() {
            let first = ri * spans.len();
            let wait = |vc: &mut Core<'_>, t| hand.wait(vc, &ctx.flags, 0, first + t);
            propagate_row(vc, &mut q, &y, row * len, &spans, l, wait)?;
        }
        q.destroy(vc)?;
        ctx.span_end(phase);
        Ok(())
    })?;

    finish_report(&mut report, batch * len, T::SIZE, O::SIZE);
    Ok(ScanRun { y, report })
}

/// The vector side of one batch row at `y[base..]`: per tile, wait for
/// the cube's hand-off of the row's `t`-th tile (`wait`), load the tile,
/// carry the row's running partial through it in `seg`-element segments
/// (`s` after ScanU's row scans, `ℓ` after ScanUL1's full tile scans)
/// and store it back.
fn propagate_row<O: Numeric>(
    vc: &mut Core<'_>,
    q: &mut TQue<O>,
    y: &GlobalTensor<O>,
    base: usize,
    spans: &[(usize, usize)],
    seg: usize,
    wait: impl Fn(&mut Core<'_>, usize) -> SimResult<EventTime>,
) -> SimResult<()> {
    let mut carry = (O::zero(), 0);
    for (t, &(off, valid)) in spans.iter().enumerate() {
        let tile = vc.span_begin("tile");
        let ready = wait(vc, t)?;
        let mut buf = q.alloc_tensor()?;
        vc.copy_in(&mut buf, 0, y, base + off, valid, &[ready])?;
        propagate_rows(vc, &mut buf, valid, seg, &mut carry)?;
        let ev = vc.copy_out(y, base + off, &buf, 0, valid, &[])?;
        q.free_tensor(buf, ev);
        vc.span_args(
            tile,
            SpanArgs {
                bytes: (2 * valid * O::SIZE) as u64,
                kind: "vadds",
                queue_depth: 2,
            },
        );
        vc.span_end_at(tile, ev);
    }
    Ok(())
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

    fn rows_reference(data: &[i8], batch: usize, len: usize) -> Vec<i32> {
        let mut out = Vec::with_capacity(batch * len);
        for b in 0..batch {
            out.extend(reference::inclusive_widening::<i8, i32>(
                &data[b * len..(b + 1) * len],
            ));
        }
        out
    }

    #[test]
    fn batched_scanu_matches_rowwise_reference() {
        let (spec, gm) = setup();
        let (batch, len) = (5, 300);
        let data: Vec<i8> = (0..batch * len).map(|i| ((i * 7) % 9) as i8 - 4).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = batched_scanu::<i8, i32>(&spec, &gm, &x, batch, len, 16).unwrap();
        assert_eq!(run.y.to_vec(), rows_reference(&data, batch, len));
    }

    #[test]
    fn batched_scanul1_matches_rowwise_reference() {
        let (spec, gm) = setup();
        let (batch, len) = (3, 700);
        let data: Vec<i8> = (0..batch * len).map(|i| ((i * 5) % 7) as i8 - 3).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = batched_scanul1::<i8, i32>(&spec, &gm, &x, batch, len, 16).unwrap();
        assert_eq!(run.y.to_vec(), rows_reference(&data, batch, len));
    }

    #[test]
    fn both_schedules_agree_f16() {
        let (spec, gm) = setup();
        let (batch, len) = (4, 260);
        let data: Vec<F16> = (0..batch * len)
            .map(|i| F16::from_f32((i % 3) as f32))
            .collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let a = batched_scanu::<F16, F16>(&spec, &gm, &x, batch, len, 16).unwrap();
        let b = batched_scanul1::<F16, F16>(&spec, &gm, &x, batch, len, 16).unwrap();
        assert_eq!(a.y.to_vec(), b.y.to_vec());
    }

    #[test]
    fn odd_batch_count() {
        let (spec, gm) = setup();
        let (batch, len) = (7, 64);
        let data: Vec<i8> = (0..batch * len).map(|i| (i % 4) as i8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = batched_scanu::<i8, i32>(&spec, &gm, &x, batch, len, 16).unwrap();
        assert_eq!(run.y.to_vec(), rows_reference(&data, batch, len));
    }

    #[test]
    fn single_row_batch() {
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..100).map(|i| (i % 5) as i8 - 2).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let a = batched_scanu::<i8, i32>(&spec, &gm, &x, 1, 100, 16).unwrap();
        let b = batched_scanul1::<i8, i32>(&spec, &gm, &x, 1, 100, 16).unwrap();
        let expect = reference::inclusive_widening::<i8, i32>(&data);
        assert_eq!(a.y.to_vec(), expect);
        assert_eq!(b.y.to_vec(), expect);
    }

    #[test]
    fn int8_batched_rows_agree_with_mcscan_per_row() {
        // Cross-check the int8 specialization across schedules: each row
        // of a batched ScanU/ScanUL1 run must equal a standalone MCScan
        // of that row (and the host reference).
        use crate::mcscan::{mcscan, McScanConfig, ScanKind};
        let (spec, gm) = setup();
        let (batch, len) = (4, 450);
        let data: Vec<i8> = (0..batch * len)
            .map(|i| ((i * 11) % 13) as i8 - 6)
            .collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let expect = rows_reference(&data, batch, len);
        let u = batched_scanu::<i8, i32>(&spec, &gm, &x, batch, len, 16).unwrap();
        let ul1 = batched_scanul1::<i8, i32>(&spec, &gm, &x, batch, len, 16).unwrap();
        assert_eq!(u.y.to_vec(), expect);
        assert_eq!(ul1.y.to_vec(), expect);
        let cfg = McScanConfig {
            s: 16,
            blocks: 2,
            kind: ScanKind::Inclusive,
        };
        for b in 0..batch {
            let row = x.slice(b * len, len).unwrap();
            let mc = mcscan::<i8, i32, i32>(&spec, &gm, &row, cfg).unwrap();
            assert_eq!(
                mc.y.to_vec(),
                expect[b * len..(b + 1) * len],
                "row {b} disagrees between MCScan and the batched schedules"
            );
        }
    }

    #[test]
    fn rejects_shape_mismatch() {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, &[1i8; 100]).unwrap();
        assert!(batched_scanu::<i8, i32>(&spec, &gm, &x, 3, 30, 16).is_err());
        assert!(batched_scanul1::<i8, i32>(&spec, &gm, &x, 0, 100, 16).is_err());
        assert!(batched_scanu::<i8, i32>(&spec, &gm, &x, 4, 25, 10).is_err());
    }

    #[test]
    fn fig5_crossover_shape() {
        // Large batch + short rows: ScanU-batched should win.
        // Small batch + long rows: ScanUL1-batched should win.
        let spec = ChipSpec::ascend_910b4();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));

        let (batch, len) = (40, 1024);
        let data = vec![0i8; batch * len];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let u = batched_scanu::<i8, i32>(&spec, &gm, &x, batch, len, 128).unwrap();
        let ul1 = batched_scanul1::<i8, i32>(&spec, &gm, &x, batch, len, 128).unwrap();
        assert!(
            u.report.time_s() < ul1.report.time_s(),
            "many short rows: ScanU {} us should beat ScanUL1 {} us",
            u.report.time_us(),
            ul1.report.time_us()
        );

        let (batch, len) = (4, 1 << 17);
        let data = vec![0i8; batch * len];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let u = batched_scanu::<i8, i32>(&spec, &gm, &x, batch, len, 128).unwrap();
        let ul1 = batched_scanul1::<i8, i32>(&spec, &gm, &x, batch, len, 128).unwrap();
        assert!(
            ul1.report.time_s() < u.report.time_s(),
            "few long rows: ScanUL1 {} us should beat ScanU {} us",
            ul1.report.time_us(),
            u.report.time_us()
        );
    }
}
