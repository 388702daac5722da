//! **Weighted sampling** by inverse transform — §5 "Weighted Sampling".
//!
//! Given non-negative weights `w`, draw index `i` with probability
//! `w[i] / Σw`: scan the weights (MCScan), then find the first index
//! whose cumulative sum exceeds `θ·Σw` for a uniform `θ`. The paper runs
//! SplitInd with that predicate and reads the boundary off its index
//! output; here one `CdfSearch` launch counts the predicate per piece
//! instead (`cdf_search`), since nothing needs to move.
//!
//! Unlike the Ascend `torch.multinomial` baseline (capped at 2²⁴
//! support), this works for arbitrary support sizes — the functional
//! improvement the paper claims.

use crate::{for_each_lane, inclusive_scan};
use ascend_sim::mem::GlobalMemory;
use ascend_sim::KernelReport;
use ascendc::{launch, ChipSpec, CmpMode, GlobalTensor, ScratchpadKind, SimError, SimResult};
use dtypes::Numeric;
use scan::tile_spans;
use std::sync::Arc;

/// Result of [`weighted_sample`].
pub struct WeightedRun {
    /// The sampled index.
    pub index: usize,
    /// Combined execution report (the CDF scan and the `CdfSearch`
    /// launch).
    pub report: KernelReport,
}

/// Draws one index from the distribution proportional to `w`, using the
/// uniform variate `theta ∈ [0, 1)` supplied by the caller (callers
/// bring their own RNG — the kernel itself is deterministic).
///
/// `W` is the weight element type (`F16` in the paper's LLM setting;
/// `f32` works too). Weights must be non-negative. `s` is the tile
/// dimension of the MCScan launch; both launches run on all of the
/// chip's AI cores.
pub fn weighted_sample<W>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    w: &GlobalTensor<W>,
    theta: f64,
    s: usize,
) -> SimResult<WeightedRun>
where
    W: dtypes::CubeInput,
{
    let n = w.len();
    if n == 0 {
        return Err(SimError::InvalidArgument(
            "weighted_sample: empty weight vector".into(),
        ));
    }
    if !(0.0..1.0).contains(&theta) {
        return Err(SimError::InvalidArgument(format!(
            "weighted_sample: theta {theta} outside [0, 1)"
        )));
    }

    // 1. Inclusive scan of the weights.
    let scan_run = inclusive_scan(spec, gm, w, s)?;
    let cdf = scan_run.y;
    let total = cdf.read_range(n - 1, 1)?[0].to_f64();
    if !(total.is_finite() && total > 0.0) {
        return Err(SimError::InvalidArgument(format!(
            "weighted_sample: weights sum to {total}, not a finite positive mass"
        )));
    }
    let threshold = W::from_f64(theta * total);

    // 2. Predicate kernel + boundary search. The paper routes this
    // through SplitInd; the sample is the first index whose cumulative
    // sum exceeds θ·Σw, which SplitInd exposes as the entry before the
    // partition boundary. We fuse the predicate and the boundary scan
    // into one vector kernel (same traffic as the mask of SplitInd, no
    // value movement) — each vector core finds the first exceeding
    // index in its chunk and the host takes the minimum.
    let (index, search_report) = cdf_search(spec, gm, &cdf, n, threshold)?;

    let mut report = KernelReport::sequential("WeightedSample", &[scan_run.report, search_report]);
    report.elements = n as u64;
    report.useful_bytes = (n * W::SIZE) as u64;
    Ok(WeightedRun { index, report })
}

/// Finds the first index `i < n` with `cdf[i] > threshold` (the inverse-
/// transform boundary search), clamped to `n - 1` if none exceeds.
///
/// Each vector core counts the exceeding elements of its pieces with
/// `Compare` + `ReduceSum`; because the CDF is monotone, the first hit of
/// a piece is `off + valid - count`. Shared with top-p sampling, which
/// reuses its CDF scan's cumulative sums instead of rescanning — that is
/// why top-p with the paper's one-bit sort costs 17 scans, not 18.
pub(crate) fn cdf_search<W: Numeric>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    cdf: &GlobalTensor<W>,
    n: usize,
    threshold: W,
) -> SimResult<(usize, KernelReport)> {
    let first_hits = GlobalTensor::<u32>::new(gm, (spec.ai_cores * spec.vec_per_core) as usize)?;
    let piece = crate::ub_piece(spec, W::SIZE + 1 + 4, 4096);
    let spans = tile_spans(n, piece)?;
    let report = launch(spec, gm, spec.ai_cores, "CdfSearch", |ctx| {
        for_each_lane(ctx, spans.iter(), |vc, lane, mine| {
            let mut buf = vc.alloc_local::<W>(ScratchpadKind::Ub, piece)?;
            let mut mk = vc.alloc_local::<u8>(ScratchpadKind::Ub, piece)?;
            let mut wide = vc.alloc_local::<i32>(ScratchpadKind::Ub, piece)?;
            let mut best = u32::MAX;
            let mut best_ready = 0;
            for &(off, valid) in mine {
                vc.copy_in(&mut buf, 0, cdf, off, valid, &[])?;
                vc.vcompare_scalar(&mut mk, &buf, 0, valid, CmpMode::Gt, threshold, 0)?;
                // Widen the mask before reducing (a u8 sum wraps at 255)
                // and count the exceeding elements; the first hit in this
                // piece is `off + valid - count` because the CDF is
                // monotone.
                vc.vcast::<u8, i32>(&mut wide, &mk, 0, valid)?;
                let (count, ready) = vc.reduce_sum(&wide, 0, valid)?;
                if count > 0 && best == u32::MAX {
                    best = (off + valid - count as usize) as u32;
                }
                best_ready = vc.scalar_ops(2, &[ready, best_ready])?;
            }
            let mut one = vc.alloc_local::<u32>(ScratchpadKind::Ub, 1)?;
            vc.insert(&mut one, 0, best, best_ready)?;
            vc.copy_out(&first_hits, lane, &one, 0, 1, &[])?;
            vc.free_local(one)?;
            vc.free_local(buf)?;
            vc.free_local(mk)?;
            vc.free_local(wide)
        })
    })?;

    let index = first_hits
        .to_vec()
        .into_iter()
        .min()
        .unwrap_or(u32::MAX)
        .min((n - 1) as u32) as usize;
    Ok((index, report))
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
    fn deterministic_inverse_transform() {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        // Weights 1,2,3,4 -> CDF 1,3,6,10; thresholds pick predictably.
        let w: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0];
        let t = GlobalTensor::from_slice(&gm, &w).unwrap();
        for (theta, expect) in [
            (0.05, 0usize), // 0.5 < 1
            (0.15, 1),      // 1.5 in (1, 3]
            (0.45, 2),      // 4.5 in (3, 6]
            (0.95, 3),      // 9.5 in (6, 10]
        ] {
            let run = weighted_sample::<f32>(&spec, &gm, &t, theta, 16).unwrap();
            assert_eq!(run.index, expect, "theta = {theta}");
        }
    }

    #[test]
    fn mass_on_single_element() {
        let (spec, gm) = setup();
        let mut w = vec![0.0f32; 1000];
        w[777] = 5.0;
        let t = GlobalTensor::from_slice(&gm, &w).unwrap();
        for theta in [0.0, 0.3, 0.9] {
            let run = weighted_sample::<f32>(&spec, &gm, &t, theta, 16).unwrap();
            assert_eq!(run.index, 777);
        }
    }

    #[test]
    fn f16_weights() {
        let (spec, gm) = setup();
        let w: Vec<F16> = (0..512)
            .map(|i| {
                if i == 100 {
                    F16::from_f32(8.0)
                } else {
                    F16::ZERO
                }
            })
            .collect();
        let t = GlobalTensor::from_slice(&gm, &w).unwrap();
        let run = weighted_sample::<F16>(&spec, &gm, &t, 0.5, 16).unwrap();
        assert_eq!(run.index, 100);
    }

    #[test]
    fn supports_large_support_sizes() {
        // The baseline multinomial caps at 2^24; this one should accept
        // any length (we use a modest one to keep the test fast, and
        // check no artificial cap is applied).
        let (spec, gm) = setup();
        let w = vec![1.0f32; 70000];
        let t = GlobalTensor::from_slice(&gm, &w).unwrap();
        let run = weighted_sample::<f32>(&spec, &gm, &t, 0.5, 16).unwrap();
        // Uniform weights: theta = 0.5 lands near the middle.
        assert!(
            (run.index as i64 - 35000).abs() < 100,
            "index {}",
            run.index
        );
    }

    #[test]
    fn rejects_bad_input() {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let t = GlobalTensor::<f32>::new(&gm, 0).unwrap();
        assert!(weighted_sample::<f32>(&spec, &gm, &t, 0.5, 16).is_err());
        let t = GlobalTensor::from_slice(&gm, &[1.0f32]).unwrap();
        assert!(weighted_sample::<f32>(&spec, &gm, &t, 1.5, 16).is_err());
        let zeros = GlobalTensor::from_slice(&gm, &[0.0f32; 10]).unwrap();
        assert!(weighted_sample::<f32>(&spec, &gm, &zeros, 0.5, 16).is_err());
    }

    /// Asserts `w` is rejected as not summing to a finite positive mass.
    fn assert_bad_total(w: &[F16]) {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let t = GlobalTensor::from_slice(&gm, w).unwrap();
        match weighted_sample::<F16>(&spec, &gm, &t, 0.5, 16) {
            Err(SimError::InvalidArgument(msg)) => assert!(msg.contains("sum to"), "{msg}"),
            Err(e) => panic!("wrong error: {e}"),
            Ok(run) => panic!("sampled index {}", run.index),
        }
    }

    #[test]
    fn rejects_a_single_nan_weight() {
        let mut w = vec![F16::from_f32(0.1); 300];
        w[123] = F16::NAN;
        assert_bad_total(&w);
    }

    #[test]
    fn rejects_an_infinite_weight() {
        let mut w = vec![F16::from_f32(0.1); 300];
        w[42] = F16::INFINITY;
        assert_bad_total(&w);
    }

    #[test]
    fn rejects_a_total_that_overflows_f16() {
        // Every weight is finite, but 300 x 60000 exceeds f16's 65504.
        assert_bad_total(&[F16::from_f32(60000.0); 300]);
    }
}
