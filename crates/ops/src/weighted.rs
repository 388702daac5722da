//! **Weighted sampling** by inverse transform — §5 "Weighted Sampling".
//!
//! Given non-negative weights `w`, draw index `i` with probability
//! `w[i] / Σw`: scan the weights (MCScan), then find the first index
//! whose cumulative sum exceeds `θ·Σw` for a uniform `θ`. The paper runs
//! SplitInd with that predicate and reads the boundary off its index
//! output; here each vector core counts the predicate per piece instead
//! (`CdfSearch`), since nothing needs to move.
//!
//! The draw is **one launch**: MCScan's phase I, a `SyncAll`, its
//! phase II, a `SyncAll`, then the search, in which every vector core
//! reads `Σw` (the CDF's last entry) itself and derives the threshold.
//! A total that is not a finite positive mass fails every block at that
//! read, so the launch fails with that one typed error.
//!
//! Unlike the Ascend `torch.multinomial` baseline (capped at 2²⁴
//! support), this works for arbitrary support sizes — the functional
//! improvement the paper claims.

use crate::{for_each_lane, inclusive, read_scalar};
use ascend_sim::mem::GlobalMemory;
use ascend_sim::{EventTime, KernelReport};
use ascendc::{
    launch, BlockCtx, ChipSpec, CmpMode, Core, GlobalTensor, ScratchpadKind, SimError, SimResult,
};
use dtypes::{Element, Numeric};
use scan::{tile_spans, McLayout};
use std::sync::Arc;

/// Result of [`weighted_sample`].
pub struct WeightedRun {
    /// The sampled index.
    pub index: usize,
    /// The report of the one `WeightedSample` launch (the CDF scan and
    /// the search).
    pub report: KernelReport,
}

/// Draws one index from the distribution proportional to `w`, using the
/// uniform variate `theta ∈ [0, 1)` supplied by the caller (callers
/// bring their own RNG — the kernel itself is deterministic).
///
/// `W` is the weight element type (`F16` in the paper's LLM setting;
/// `f32` works too). Weights must be non-negative. `s` is the tile
/// dimension of the CDF's MCScan phases; the launch runs on all of the
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

    let cdf = McLayout::<W, W, W>::new("WeightedSample", spec, gm, w, inclusive(spec, s), None)?;
    let search = CdfSearch::new::<W>(spec, gm, n)?;
    let mut report = launch(spec, gm, spec.ai_cores, "WeightedSample", |ctx| {
        // 1. Inclusive scan of the weights.
        cdf.scan(ctx, w)?;
        ctx.sync_all()?;
        // 2. The boundary search. The paper routes this through
        // SplitInd; the sample is the first index whose cumulative sum
        // exceeds θ·Σw, which SplitInd exposes as the entry before the
        // partition boundary. Counting the predicate per piece moves the
        // mask's traffic and no values.
        search.run(ctx, &cdf.y, |vc| {
            let (total, ready) = read_scalar(vc, &cdf.y, n - 1, &[])?;
            check_mass("weighted_sample: weights", total.to_f64())?;
            let ready = vc.scalar_ops(1, &[ready])?;
            Ok((n, (W::from_f64(theta * total.to_f64()), ready)))
        })
    })?;
    report.elements = n as u64;
    report.useful_bytes = (n * W::SIZE) as u64;
    Ok(WeightedRun {
        index: search.index(n),
        report,
    })
}

/// Refuses a CDF total that is not a finite positive mass: `what` names
/// the operator and its input.
pub(crate) fn check_mass(what: &str, total: f64) -> SimResult<()> {
    if total.is_finite() && total > 0.0 {
        Ok(())
    } else {
        Err(SimError::InvalidArgument(format!(
            "{what} sum to {total}, not a finite positive mass"
        )))
    }
}

/// The inverse-transform boundary search, one phase of a launch: finds
/// the first index `i` with `cdf[i] > threshold` among the CDF's leading
/// elements, clamped to the last of them if none exceeds.
///
/// Each vector core counts the exceeding elements of its pieces with
/// `Compare` + `ReduceSum`; because the CDF is monotone, the first hit of
/// a piece is `off + valid - count`, and each core stores its first hit.
/// Shared with top-p sampling, which reuses its CDF scan's cumulative
/// sums instead of rescanning — that is why top-p with the paper's
/// one-bit sort costs 17 scans, not 18.
pub(crate) struct CdfSearch {
    piece: usize,
    spans: Vec<(usize, usize)>,
    first_hits: GlobalTensor<u32>,
}

impl CdfSearch {
    /// The search over at most `n` elements of a `W` CDF, on all of the
    /// chip's vector cores.
    pub(crate) fn new<W: Element>(
        spec: &ChipSpec,
        gm: &Arc<GlobalMemory>,
        n: usize,
    ) -> SimResult<Self> {
        let piece = crate::ub_piece(spec, W::SIZE + 1 + 4, 4096);
        Ok(CdfSearch {
            piece,
            spans: tile_spans(n, piece)?,
            first_hits: GlobalTensor::new(gm, spec.total_vec_cores() as usize)?,
        })
    }

    /// The search on one block. On each vector core `bound` first reads,
    /// with priced instructions, how many leading elements of `cdf` to
    /// search and the threshold with the time it is ready; the core then
    /// searches its pieces, cut at that length.
    pub(crate) fn run<W: Numeric>(
        &self,
        ctx: &mut BlockCtx<'_>,
        cdf: &GlobalTensor<W>,
        bound: impl Fn(&mut Core<'_>) -> SimResult<(usize, (W, EventTime))>,
    ) -> SimResult<()> {
        let span = ctx.span_begin("Search");
        for_each_lane(ctx, self.spans.iter(), |vc, lane, mine| {
            let (len, (threshold, threshold_ready)) = bound(vc)?;
            let mut buf = vc.alloc_local::<W>(ScratchpadKind::Ub, self.piece)?;
            let mut mk = vc.alloc_local::<u8>(ScratchpadKind::Ub, self.piece)?;
            let mut wide = vc.alloc_local::<i32>(ScratchpadKind::Ub, self.piece)?;
            let mut best = u32::MAX;
            let mut best_ready = 0;
            for &(off, valid) in mine.take_while(|&&(off, _)| off < len) {
                let valid = valid.min(len - off);
                vc.copy_in(&mut buf, 0, cdf, off, valid, &[])?;
                vc.vcompare_scalar(
                    &mut mk,
                    &buf,
                    0,
                    valid,
                    CmpMode::Gt,
                    threshold,
                    threshold_ready,
                )?;
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
            vc.copy_out(&self.first_hits, lane, &one, 0, 1, &[])?;
            vc.free_local(one)?;
            vc.free_local(buf)?;
            vc.free_local(mk)?;
            vc.free_local(wide)
        })?;
        ctx.span_end(span);
        Ok(())
    }

    /// After the launch, on the host: the first hit over all vector
    /// cores, clamped to `len - 1` (`len` being the searched length).
    pub(crate) fn index(&self, len: usize) -> usize {
        let first = self.first_hits.to_vec().into_iter().min();
        first.unwrap_or(u32::MAX).min((len - 1) as u32) as usize
    }
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
