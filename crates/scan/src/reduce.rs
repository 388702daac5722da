//! Reduction (sum) kernels — the scan's sibling primitive.
//!
//! The paper builds on Dakkak et al. (ICS'19), which accelerates both
//! *reduction and scan* with matrix engines; the same `A @ 1ₛ` trick that
//! powers ScanUL1's second term computes `s` row sums in one matmul.
//! Two implementations are provided:
//!
//! * [`reduce_cube`] — multi-core cube reduction: each cube core turns
//!   its `ℓ = s²` tiles into row-sum columns (`C = A @ 1ₛ`, column 0
//!   holds the row sums), the block's vector cores accumulate the
//!   columns, and a final small reduction over the per-chunk partials
//!   runs in UB. Traffic ≈ `N` reads + a sliver — reduction approaches
//!   the copy roofline where scan cannot.
//! * [`reduce_vec`] — the vector-only baseline (`ReduceSum` over tiles).
//!
//! Both run on all of the chip's AI cores and return exact sums in the
//! accumulator domain (f32 for fp16 input, i32 for int8) using the same
//! pairwise lane-tree semantics as the hardware reduction. An empty
//! input is no error: the launch runs over nothing, like an empty scan,
//! and the total is zero.

use crate::stage::{
    check_blocks, check_tile, chunk_offset, reduce_chunk, store_scalar, CubePass, HandOffs,
};
use crate::triangular::ScanConstants;
use crate::util::{partition, tile_spans};
use ascend_sim::mem::GlobalMemory;
use ascend_sim::KernelReport;
use ascendc::{launch, BlockCtx, ChipSpec, GlobalTensor, ScratchpadKind, SimResult};
use dtypes::{CubeInput, Element, Numeric};
use std::sync::Arc;

/// Result of a reduction kernel.
pub struct ReduceRun<A: Element> {
    /// The total.
    pub total: A,
    /// Execution report.
    pub report: KernelReport,
}

/// Multi-core cube+vector reduction of `x` (sum in the accumulator
/// domain): `C = A @ 1ₛ` per tile on the cube cores, column accumulation
/// on the vector cores.
pub fn reduce_cube<T>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    s: usize,
) -> SimResult<ReduceRun<T::Acc>>
where
    T: CubeInput,
{
    check_tile("reduce_cube", s)?;
    check_blocks("reduce_cube", spec.ai_cores, None)?;
    let n = x.len();
    // Priced AIC→AIV hand-off: one CrossCoreSetFlag per tile, matched by
    // the consumer's CrossCoreWaitFlag, keyed by the global tile index.
    let hand = HandOffs::new("reduce_cube", spec, 1)?;
    let l = s * s;
    let consts = ScanConstants::<T>::upload(gm, s)?;
    let chunks_total = (spec.ai_cores * spec.vec_per_core) as usize;
    let tiles = tile_spans(n, l)?;
    let chunk_tiles = partition("reduce_cube", tiles.len(), chunks_total)?;
    // Row-sum columns land here (one s-column per tile), then per-chunk
    // partials in r.
    let cols = GlobalTensor::<T::Acc>::new(gm, tiles.len() * s)?;
    let r = GlobalTensor::<T::Acc>::new(gm, chunks_total)?;

    let mut report = launch(spec, gm, spec.ai_cores, "ReduceCube", |ctx| {
        let block = ctx.block_idx as usize;
        let vpc = ctx.vecs.len();
        // Cube: row sums per tile; FIXP writes only the first column
        // (s values per tile instead of s^2 — the reduction's traffic
        // advantage over scan).
        let phase = ctx.span_begin("CubeRowSums");
        let cube = &mut ctx.cube;
        let mut pass = CubePass::new(cube, &consts.ones, s)?;
        let first = chunk_tiles[block * vpc].0;
        let (last, count) = chunk_tiles[block * vpc + vpc - 1];
        for (t, &(off, valid)) in (first..).zip(&tiles[first..last + count]) {
            let ev = pass.tile(cube, x, off, valid, |cube, lc, rows| {
                // Column 0 of C holds the row sums: one strided FIXP
                // copy extracts it (s values instead of s^2).
                let ev = cube.copy_out_2d(&cols, t * s, lc, 0, rows, 1, s, &[])?;
                Ok((
                    ev,
                    (valid * T::SIZE + rows * <T::Acc as Element>::SIZE) as u64,
                ))
            })?;
            hand.set(cube, &ctx.flags, 0, t, ev)?;
        }
        pass.finish(cube)?;
        ctx.span_end(phase);
        let phase = ctx.span_begin("VecAccumulate");
        // Vector cores: accumulate each chunk's row-sum columns.
        for (v, vc) in ctx.vecs.iter_mut().enumerate() {
            let chunk = block * vpc + v;
            let (t0, tcount) = chunk_tiles[chunk];
            let mut buf = vc.alloc_local::<T::Acc>(ScratchpadKind::Ub, s)?;
            let (mut total, mut total_ready) = (T::Acc::zero(), 0);
            for (t, &(_, valid)) in (t0..).zip(&tiles[t0..t0 + tcount]) {
                let rows = valid.div_ceil(s);
                let dep = hand.wait(vc, &ctx.flags, 0, t)?;
                vc.copy_in(&mut buf, 0, &cols, t * s, rows, &[dep])?;
                let (sum, ready) = vc.reduce_sum(&buf, 0, rows)?;
                total = total.add(sum);
                total_ready = vc.scalar_ops(1, &[ready, total_ready])?;
            }
            store_scalar(vc, &r, chunk, (total, total_ready))?;
            vc.free_local(buf)?;
        }
        ctx.span_end(phase);
        ctx.sync_all()?;
        fold_partials(ctx, &r)
    })?;

    let total = r.read_range(0, 1)?[0];
    report.elements = n as u64;
    report.useful_bytes = (n * T::SIZE) as u64;
    Ok(ReduceRun { total, report })
}

/// Final step of both reductions: block 0's first vector core folds the
/// per-chunk partials in `r` into `r[0]`.
fn fold_partials<A: Numeric>(ctx: &mut BlockCtx<'_>, r: &GlobalTensor<A>) -> SimResult<()> {
    if ctx.block_idx == 0 {
        let vc = &mut ctx.vecs[0];
        let (grand, _) = chunk_offset(vc, r, 1, r.len(), false)?;
        let grand = grand[0];
        store_scalar(vc, r, 0, grand)?;
    }
    Ok(())
}

/// Vector-only reduction baseline: tile loads + `ReduceSum`, spread over
/// all vector cores.
pub fn reduce_vec<T>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
) -> SimResult<ReduceRun<T::Acc>>
where
    T: CubeInput,
{
    check_blocks("reduce_vec", spec.ai_cores, None)?;
    let n = x.len();
    let chunks_total = (spec.ai_cores * spec.vec_per_core) as usize;
    let r = GlobalTensor::<T::Acc>::new(gm, chunks_total)?;
    let piece = {
        let per = spec.ub_capacity / (2 * T::SIZE + <T::Acc as Element>::SIZE + 8);
        let mut p = 64;
        while p * 2 <= per && p < 8192 {
            p *= 2;
        }
        p
    };
    let spans = tile_spans(n, piece)?;
    let chunk_spans = partition("reduce_vec", spans.len(), chunks_total)?;

    let mut report = launch(spec, gm, spec.ai_cores, "ReduceVec", |ctx| {
        let block = ctx.block_idx as usize;
        let vpc = ctx.vecs.len();
        let phase = ctx.span_begin("VecReduce");
        for (v, vc) in ctx.vecs.iter_mut().enumerate() {
            let chunk = block * vpc + v;
            let (s0, count) = chunk_spans[chunk];
            reduce_chunk(vc, x, &spans[s0..s0 + count], piece, &r, chunk)?;
        }
        ctx.span_end(phase);
        ctx.sync_all()?;
        fold_partials(ctx, &r)
    })?;

    let total = r.read_range(0, 1)?[0];
    report.elements = n as u64;
    report.useful_bytes = (n * T::SIZE) as u64;
    Ok(ReduceRun { total, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtypes::F16;

    fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    #[test]
    fn cube_reduce_matches_exact_sum() {
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..4000).map(|i| ((i * 7) % 11) as i8 - 5).collect();
        let expect: i32 = data.iter().map(|&v| i32::from(v)).sum();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = reduce_cube::<i8>(&spec, &gm, &x, 16).unwrap();
        assert_eq!(run.total, expect);
    }

    #[test]
    fn vec_reduce_matches_exact_sum() {
        let (spec, gm) = setup();
        let data: Vec<u8> = (0..3777).map(|i| (i % 4 == 0) as u8).collect();
        let expect: i32 = data.iter().map(|&v| i32::from(v)).sum();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = reduce_vec::<u8>(&spec, &gm, &x).unwrap();
        assert_eq!(run.total, expect);
    }

    #[test]
    fn both_agree_on_f16() {
        let (spec, gm) = setup();
        let data: Vec<F16> = (0..2000).map(|i| F16::from_f32((i % 5) as f32)).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let a = reduce_cube::<F16>(&spec, &gm, &x, 16).unwrap();
        let b = reduce_vec::<F16>(&spec, &gm, &x).unwrap();
        // Both accumulate in f32; summation orders differ (matmul rows
        // vs lane tree), so allow float slack.
        assert!((a.total - 4000.0).abs() < 1.0, "cube total {}", a.total);
        assert!((b.total - 4000.0).abs() < 1.0, "vec total {}", b.total);
    }

    #[test]
    fn partial_tail_tiles() {
        let spec = ChipSpec {
            ai_cores: 1,
            ..ChipSpec::tiny()
        };
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        for n in [1usize, 255, 256, 257, 1000] {
            let data = vec![1i8; n];
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let run = reduce_cube::<i8>(&spec, &gm, &x, 16).unwrap();
            assert_eq!(run.total, n as i32, "n = {n}");
        }
    }

    #[test]
    fn reduction_traffic_is_about_one_read() {
        // Reduction reads N element-bytes plus slivers — far below the
        // scan's 5N — so it should outrun MCScan clearly.
        let spec = ChipSpec::ascend_910b4();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        let n = 4 << 20;
        let data = vec![1i8; n];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let red = reduce_cube::<i8>(&spec, &gm, &x, 128).unwrap();
        assert_eq!(red.total, n as i32);
        let traffic = red.report.bytes_read + red.report.bytes_written;
        assert!(
            traffic < (n + n / 2) as u64,
            "reduction moved {traffic} B for {n} elements"
        );
        let scan = crate::mcscan::mcscan::<i8, i16, i32>(
            &spec,
            &gm,
            &x,
            crate::mcscan::McScanConfig::for_chip(&spec),
        )
        .unwrap();
        assert!(red.report.time_s() < scan.report.time_s());
    }

    #[test]
    fn rejects_bad_args() {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, &[1i8; 8]).unwrap();
        assert!(reduce_cube::<i8>(&spec, &gm, &x, 10).is_err());
        let coreless = ChipSpec {
            ai_cores: 0,
            ..spec
        };
        assert!(reduce_cube::<i8>(&coreless, &gm, &x, 16).is_err());
        assert!(reduce_vec::<i8>(&coreless, &gm, &x).is_err());
    }

    #[test]
    fn empty_input_sums_to_zero_in_one_launch() {
        // Like an empty scan: the launch runs over nothing.
        let (spec, gm) = setup();
        let empty = GlobalTensor::<i8>::new(&gm, 0).unwrap();
        for run in [
            reduce_cube::<i8>(&spec, &gm, &empty, 16).unwrap(),
            reduce_vec::<i8>(&spec, &gm, &empty).unwrap(),
        ] {
            assert_eq!(run.total, 0);
            assert_eq!((run.report.blocks, run.report.elements), (spec.ai_cores, 0));
            assert!(run.report.cycles >= spec.launch_cycles);
        }
    }
}
