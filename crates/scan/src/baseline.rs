//! The vector-only scan baseline.
//!
//! Stands in for the AscendC `CumSum` API kernel (with `CumSumInfo`
//! 128×128) that the paper uses as the Fig. 3 baseline, and for the
//! unoptimized `torch.cumsum` Ascend operator that Figs. 8/13 are
//! measured against. It never touches the cube engine: each `ℓ`-tile is
//! staged into UB, every `s`-row is scanned with log₂(s) Hillis–Steele
//! shifted adds, and the running partial is propagated with an `Adds`
//! plus a scalar extraction per row — together with the scalar-unit
//! bookkeeping of the generic API, this is what makes the vector-only
//! kernel 5–10× slower than the cube scans at large input lengths.

use crate::stage::carry_through;
use crate::util::tile_spans;
use crate::{finish_report, ScanRun};
use ascend_sim::mem::GlobalMemory;
use ascendc::{
    launch, ChipSpec, GlobalTensor, ScratchpadKind, SimError, SimResult, SpanArgs, TQue,
};
use dtypes::Numeric;
use std::sync::Arc;

/// Scalar-unit operations charged per row by the generic CumSum API
/// (loop control, address arithmetic, tail handling of the unspecialized
/// kernel). Part of the calibrated baseline cost model.
const CUMSUM_SCALAR_OPS_PER_ROW: u64 = 16;

/// Vector-only inclusive scan of `x` on one vector core: the sequential
/// partial-sum dependency keeps the reference CumSum kernel (and
/// `torch.cumsum` of a 1-D tensor on the Ascend adapter) single-core.
///
/// `s` is the row length of the CumSum tiling (the paper sets 128).
pub fn cumsum_vec_only<T: Numeric>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    s: usize,
) -> SimResult<ScanRun<T>> {
    if s == 0 || !s.is_power_of_two() {
        return Err(SimError::InvalidArgument(format!(
            "CumSum baseline: s must be a power of two, got {s}"
        )));
    }
    if spec.vec_per_core == 0 {
        return Err(SimError::InvalidArgument(
            "CumSum baseline: the chip has no vector core to scan on".into(),
        ));
    }
    let n = x.len();
    let l = s * s;
    let y = GlobalTensor::<T>::new(gm, n)?;
    let spans = tile_spans(n, l)?;

    let mut report = launch(spec, gm, 1, "CumSum(vec-only)", |ctx| {
        let phase = ctx.span_begin("VecOnlyScan");
        let v = &mut ctx.vecs[0];
        let mut q = TQue::<T>::new(v, ScratchpadKind::Ub, 2, l)?.named("q(UB)");
        let mut tmp = v.alloc_local::<T>(ScratchpadKind::Ub, s)?;
        let mut carry = (T::zero(), 0);
        for &(off, valid) in &spans {
            let tile = v.span_begin("tile");
            let mut buf = q.alloc_tensor()?;
            v.copy_in(&mut buf, 0, x, off, valid, &[])?;
            for (row_off, row_len) in tile_spans(valid, s)? {
                // Hillis-Steele local scan of the row. SIMD adds cannot
                // overlap source and destination in place, so each
                // log-step is a copy into a staging buffer plus an
                // element-wise add — two vector instructions per step,
                // as the generic CumSum kernel issues them.
                let mut shift = 1;
                while shift < row_len {
                    let span = row_len - shift;
                    v.copy_local(&mut tmp, 0, &buf, row_off, span)?;
                    v.vadd_inplace(&mut buf, row_off + shift, &tmp, 0, span)?;
                    shift *= 2;
                }
                // Propagate the running partial and pick up the new one.
                carry_through(v, &mut buf, row_off, row_len, &mut carry)?;
                // Generic-API scalar bookkeeping.
                v.scalar_ops(CUMSUM_SCALAR_OPS_PER_ROW, &[])?;
            }
            let ev = v.copy_out(&y, off, &buf, 0, valid, &[])?;
            q.free_tensor(buf, ev);
            v.span_args(
                tile,
                SpanArgs {
                    bytes: (2 * valid * T::SIZE) as u64,
                    kind: "hillis-steele",
                    queue_depth: 2,
                },
            );
            v.span_end_at(tile, ev);
        }
        v.free_local(tmp)?;
        q.destroy(v)?;
        ctx.span_end(phase);
        Ok(())
    })?;

    finish_report(&mut report, n, T::SIZE, T::SIZE);
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

    #[test]
    fn matches_reference_i32() {
        let (spec, gm) = setup();
        let data: Vec<i32> = (0..2000).map(|i| (i % 17) - 8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = cumsum_vec_only(&spec, &gm, &x, 16).unwrap();
        assert_eq!(run.y.to_vec(), reference::inclusive(&data));
    }

    #[test]
    fn matches_reference_f16_small() {
        let (spec, gm) = setup();
        let data: Vec<F16> = (0..500).map(|i| F16::from_f32((i % 3) as f32)).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = cumsum_vec_only(&spec, &gm, &x, 16).unwrap();
        assert_eq!(run.y.to_vec(), reference::inclusive(&data));
    }

    #[test]
    fn handles_single_element_rows_and_tails() {
        let (spec, gm) = setup();
        for n in [1usize, 15, 16, 17, 255, 256, 257] {
            let data: Vec<i32> = (0..n as i32).collect();
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let run = cumsum_vec_only(&spec, &gm, &x, 16).unwrap();
            assert_eq!(run.y.to_vec(), reference::inclusive(&data), "n = {n}");
        }
    }

    #[test]
    fn rejects_bad_args() {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, &[1i32; 8]).unwrap();
        assert!(cumsum_vec_only(&spec, &gm, &x, 12).is_err());
    }

    #[test]
    fn slower_than_cube_scans_at_scale() {
        // The headline Fig. 3 shape: vec-only is several times slower
        // than ScanU, which is slower than ScanUL1.
        let spec = ChipSpec::ascend_910b4();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        let n = 1 << 20;
        let data: Vec<F16> = vec![F16::ZERO; n];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let base = cumsum_vec_only(&spec, &gm, &x, 128).unwrap();
        let u = crate::scanu::scanu::<F16, F16>(&spec, &gm, &x, 128).unwrap();
        let ratio = base.report.time_s() / u.report.time_s();
        assert!(
            ratio > 3.0,
            "vec-only baseline should trail ScanU clearly, got {ratio:.2}x"
        );
    }
}
