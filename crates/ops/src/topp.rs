//! **Top-p (nucleus) sampling** — the Llama3 `sample_top_p` operator.
//!
//! Given a token probability vector, nucleus sampling draws from the
//! smallest set of highest-probability tokens whose cumulative mass
//! exceeds `p`. The Llama3 reference implementation sorts the
//! probabilities descending, takes their cumulative sum, masks out
//! tokens once the *exclusive* cumulative mass passes `p`, renormalizes
//! and draws — exactly the pipeline built here from the paper's
//! operators, in two launches on all of the chip's AI cores:
//!
//! 1. the descending [`radix_sort`] of the probabilities, one launch:
//!    splits that count their masks and scatter on every vector core —
//!    16 one-bit passes for fp16 in the paper's accounting, 4 four-bit
//!    passes (fifteen mask counts each, the masks made from the raw
//!    keys in UB; 7 barriers) as `Device::top_p` runs it;
//! 2. one `TopP` launch of three phases:
//!    - the inclusive MCScan of the sorted probabilities
//!      ([`McLayout::scan`]: phase I, a `SyncAll`, phase II), then a
//!      `SyncAll` — 1 scan, so with one-bit passes 17 phase I's per
//!      draw, the paper's scan count. This scan keeps MCScan's tile
//!      chunks and its own `s`: another chunking would change where the
//!      fp16 chunk offsets round, and with them the sampled tokens;
//!    - the threshold count: every vector core reads the CDF total and
//!      counts its pieces' kept tokens (`cumsum − prob ≤ p·total`); then
//!      a `SyncAll`;
//!    - the inverse-transform boundary search (`CdfSearch`) over the
//!      *existing* cumulative sums restricted to the kept prefix (no
//!      extra scan): every vector core sums the kept counts and reads
//!      the kept mass first.
//!
//! Every value a phase needs from another core is read after a `SyncAll`
//! with priced instructions. The host reads only the launch's outputs:
//! the kept counts, the first hits and the sampled token's index.
//!
//! The sort stays a launch of its own: run in the same block threads
//! right before the scan, it raised the simulator's peak host memory per
//! draw by about a fifth (its per-launch validation state pins the
//! threads' allocator arenas under the scan's buffers), for 3 µs of
//! simulated time.
//!
//! [`radix_sort`]: crate::radix_sort::radix_sort

use crate::radix_sort::{radix_sort, SortOrder};
use crate::weighted::{check_mass, CdfSearch};
use crate::{for_each_lane, inclusive, read_scalar};
use ascend_sim::mem::GlobalMemory;
use ascend_sim::{EventTime, KernelReport};
use ascendc::{
    launch, BlockCtx, ChipSpec, CmpMode, Core, GlobalTensor, ScratchpadKind, SimError, SimResult,
};
use dtypes::{Element, F16};
use scan::{tile_spans, McLayout};
use std::sync::Arc;

/// Result of [`top_p_sample`].
pub struct TopPRun {
    /// The sampled token id (index into the original probability vector).
    pub token: u32,
    /// How many tokens the nucleus kept.
    pub n_kept: usize,
    /// Combined execution report (the sort's launch, and the `TopP`
    /// launch of the scan, the threshold count and the search).
    pub report: KernelReport,
}

/// Draws one token by nucleus sampling from `probs` with threshold `p`,
/// using the uniform variate `theta ∈ [0, 1)`.
///
/// `probs` need not be normalized (the draw is proportional). `s` is
/// the tile dimension of the CDF's MCScan phases and `bits` the sort's
/// digit width (see [`radix_sort`]); both launches run on all of the
/// chip's AI cores.
pub fn top_p_sample(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    probs: &GlobalTensor<F16>,
    p: f64,
    theta: f64,
    s: usize,
    bits: u32,
) -> SimResult<TopPRun> {
    let n = probs.len();
    if n == 0 {
        return Err(SimError::InvalidArgument(
            "top_p: empty probabilities".into(),
        ));
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(SimError::InvalidArgument(format!(
            "top_p: p {p} outside [0, 1]"
        )));
    }
    if !(0.0..1.0).contains(&theta) {
        return Err(SimError::InvalidArgument(format!(
            "top_p: theta {theta} outside [0, 1)"
        )));
    }

    // 1. Sort descending (values + original token ids).
    let sorted = radix_sort::<F16>(spec, gm, probs, bits, SortOrder::Descending)?;
    let cdf =
        McLayout::<F16, F16, F16>::new("TopP", spec, gm, &sorted.values, inclusive(spec, s), None)?;
    let kept = KeptCount::new(spec, gm, n)?;
    let search = CdfSearch::new::<F16>(spec, gm, n)?;
    let draw = launch(spec, gm, spec.ai_cores, "TopP", |ctx| {
        // 2. Cumulative sum of the sorted probabilities.
        cdf.scan(ctx, &sorted.values)?;
        ctx.sync_all()?;
        // 3. Count the kept prefix.
        kept.run(ctx, &cdf.y, &sorted.values, p)?;
        ctx.sync_all()?;
        // 4. Inverse-transform draw over the kept prefix, reusing the
        // CDF: θ of the kept mass.
        search.run(ctx, &cdf.y, |vc| {
            let (n_kept, ready) = kept.read(vc)?;
            let (mass, ready) = read_scalar(vc, &cdf.y, n_kept - 1, &[ready])?;
            let ready = vc.scalar_ops(1, &[ready])?;
            Ok((n_kept, (F16::from_f64(theta * mass.to_f64()), ready)))
        })
    })?;
    let n_kept = kept.total();
    let token = sorted.indices.read_range(search.index(n_kept), 1)?[0];
    let mut report = KernelReport::sequential("TopP", &[sorted.report, draw]);
    report.elements = n as u64;
    report.useful_bytes = (n * F16::SIZE) as u64;
    Ok(TopPRun {
        token,
        n_kept,
        report,
    })
}

/// The threshold count, one phase of the top-p launch: how many leading
/// tokens of the sorted distribution survive the nucleus threshold,
/// `#{i : cumsum[i] − prob[i] ≤ p·total}` (the CDF is descending-sorted,
/// so survivors form a prefix), one count per vector core.
struct KeptCount {
    piece: usize,
    spans: Vec<(usize, usize)>,
    counts: GlobalTensor<u32>,
}

impl KeptCount {
    /// The count over `n` sorted tokens on all of the chip's vector cores.
    fn new(spec: &ChipSpec, gm: &Arc<GlobalMemory>, n: usize) -> SimResult<Self> {
        let piece = crate::ub_piece(spec, 2 * F16::SIZE + 1 + 4, 4096);
        Ok(KeptCount {
            piece,
            spans: tile_spans(n, piece)?,
            counts: GlobalTensor::new(gm, spec.total_vec_cores() as usize)?,
        })
    }

    /// The count on one block: each vector core reads the CDF's total,
    /// refuses one that is not a finite positive mass, and counts its
    /// pieces' kept tokens into its entry of `counts`.
    fn run(
        &self,
        ctx: &mut BlockCtx<'_>,
        cdf: &GlobalTensor<F16>,
        probs_sorted: &GlobalTensor<F16>,
        p: f64,
    ) -> SimResult<()> {
        let span = ctx.span_begin("Threshold");
        for_each_lane(ctx, self.spans.iter(), |vc, lane, mine| {
            // Llama3 normalizes first; proportional weights fold the
            // total into the threshold.
            let (total, ready) = read_scalar(vc, cdf, cdf.len() - 1, &[])?;
            check_mass("top_p: probabilities", total.to_f64())?;
            let p_ready = vc.scalar_ops(1, &[ready])?;
            let p_abs = F16::from_f64(p * total.to_f64());
            let mut cbuf = vc.alloc_local::<F16>(ScratchpadKind::Ub, self.piece)?;
            let mut pbuf = vc.alloc_local::<F16>(ScratchpadKind::Ub, self.piece)?;
            let mut mk = vc.alloc_local::<u8>(ScratchpadKind::Ub, self.piece)?;
            let mut wide = vc.alloc_local::<i32>(ScratchpadKind::Ub, self.piece)?;
            let mut kept = 0u32;
            let mut kept_ready = 0;
            for &(off, valid) in mine {
                vc.copy_in(&mut cbuf, 0, cdf, off, valid, &[])?;
                vc.copy_in(&mut pbuf, 0, probs_sorted, off, valid, &[])?;
                // exclusive mass = cumsum - prob
                vc.vsub_inplace(&mut cbuf, 0, &pbuf, 0, valid)?;
                vc.vcompare_scalar(&mut mk, &cbuf, 0, valid, CmpMode::Le, p_abs, p_ready)?;
                // Widen before reducing: a u8 mask sum wraps at 255.
                vc.vcast::<u8, i32>(&mut wide, &mk, 0, valid)?;
                let (count, ready) = vc.reduce_sum(&wide, 0, valid)?;
                kept += count as u32;
                kept_ready = vc.scalar_ops(1, &[ready, kept_ready])?;
            }
            let mut one = vc.alloc_local::<u32>(ScratchpadKind::Ub, 1)?;
            vc.insert(&mut one, 0, kept, kept_ready)?;
            vc.copy_out(&self.counts, lane, &one, 0, 1, &[])?;
            vc.free_local(one)?;
            vc.free_local(cbuf)?;
            vc.free_local(pbuf)?;
            vc.free_local(mk)?;
            vc.free_local(wide)
        })?;
        ctx.span_end(span);
        Ok(())
    }

    /// On a vector core after the `SyncAll` that follows the count: the
    /// kept count, at least one token, and the time it is ready — every
    /// core's count loaded and summed by `ReduceSum`.
    fn read(&self, vc: &mut Core<'_>) -> SimResult<(usize, EventTime)> {
        let lanes = self.counts.len();
        let mut all = vc.alloc_local::<u32>(ScratchpadKind::Ub, lanes)?;
        vc.copy_in(&mut all, 0, &self.counts, 0, lanes, &[])?;
        let (kept, ready) = vc.reduce_sum(&all, 0, lanes)?;
        vc.free_local(all)?;
        let ready = vc.scalar_ops(1, &[ready])?;
        Ok((kept.max(1) as usize, ready))
    }

    /// After the launch, on the host: the kept count, at least one token.
    fn total(&self) -> usize {
        let kept: u32 = self.counts.to_vec().into_iter().sum();
        kept.max(1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_sim::prof::with_profiling;

    /// The paper's one-bit sort passes.
    const BIT: u32 = 1;

    fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    #[test]
    fn keeps_only_the_nucleus() {
        let (spec, gm) = setup();
        // Token 3 holds 60% of the mass, token 7 holds 30%, the rest 10%.
        let mut probs = vec![F16::from_f32(0.000_5); 200];
        probs[3] = F16::from_f32(0.6);
        probs[7] = F16::from_f32(0.3);
        let t = GlobalTensor::from_slice(&gm, &probs).unwrap();
        // p = 0.5: nucleus is {token 3} alone.
        for theta in [0.0, 0.5, 0.99] {
            let run = top_p_sample(&spec, &gm, &t, 0.5, theta, 16, BIT).unwrap();
            assert_eq!(run.n_kept, 1);
            assert_eq!(run.token, 3, "theta = {theta}");
        }
        // p = 0.85: nucleus is {3, 7}.
        let run = top_p_sample(&spec, &gm, &t, 0.85, 0.9, 16, BIT).unwrap();
        assert_eq!(run.n_kept, 2);
        assert_eq!(
            run.token, 7,
            "theta 0.9 of mass 0.9 falls in token 7's slice"
        );
        let run = top_p_sample(&spec, &gm, &t, 0.85, 0.1, 16, BIT).unwrap();
        assert_eq!(run.token, 3);
    }

    #[test]
    fn p_one_keeps_everything() {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let probs: Vec<F16> = (1..=64).map(|i| F16::from_f32(i as f32)).collect();
        let t = GlobalTensor::from_slice(&gm, &probs).unwrap();
        let run = top_p_sample(&spec, &gm, &t, 1.0, 0.999, 16, BIT).unwrap();
        assert_eq!(run.n_kept, 64);
        // theta ~ 1 lands in the tail of the descending-sorted CDF: the
        // smallest kept probability.
        assert!(run.token < 64);
    }

    #[test]
    fn always_keeps_at_least_one_token() {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let mut probs = vec![F16::ZERO; 50];
        probs[20] = F16::ONE;
        let t = GlobalTensor::from_slice(&gm, &probs).unwrap();
        let run = top_p_sample(&spec, &gm, &t, 0.0, 0.7, 16, BIT).unwrap();
        assert_eq!(run.n_kept, 1);
        assert_eq!(run.token, 20);
    }

    #[test]
    fn scan_count_matches_paper() {
        // 16 radix-sort mask counts + 1 cumsum scan = 17 phase I's, in
        // the sort's launch and the draw's.
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let probs: Vec<F16> = (0..128)
            .map(|i| F16::from_f32((i % 7) as f32 + 1.0))
            .collect();
        let t = GlobalTensor::from_slice(&gm, &probs).unwrap();
        let (run, profile) = with_profiling(&gm, || {
            top_p_sample(&spec, &gm, &t, 0.9, 0.5, 16, BIT).unwrap()
        });
        assert_eq!(
            crate::tests::scans(&profile),
            17,
            "the paper's 17-scans-per-batch count"
        );
        assert_eq!(profile.kernels.len(), 2);
        // The sort's 31 barriers (two per pass but the last), then the
        // CDF scan's, one after the scan and one after the threshold
        // count.
        assert_eq!(run.report.sync_rounds, 34);
    }

    #[test]
    fn rejects_bad_args() {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let t = GlobalTensor::from_slice(&gm, &[F16::ONE; 8]).unwrap();
        assert!(top_p_sample(&spec, &gm, &t, 1.5, 0.5, 16, BIT).is_err());
        assert!(top_p_sample(&spec, &gm, &t, 0.9, 1.0, 16, BIT).is_err());
        let empty = GlobalTensor::<F16>::new(&gm, 0).unwrap();
        assert!(top_p_sample(&spec, &gm, &empty, 0.9, 0.5, 16, BIT).is_err());
    }

    /// Asserts `probs` is rejected as not summing to a finite positive mass.
    fn assert_bad_total(probs: &[F16]) {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let t = GlobalTensor::from_slice(&gm, probs).unwrap();
        match top_p_sample(&spec, &gm, &t, 0.9, 0.5, 16, BIT) {
            Err(SimError::InvalidArgument(msg)) => assert!(msg.contains("sum to"), "{msg}"),
            Err(e) => panic!("wrong error: {e}"),
            Ok(run) => panic!("sampled token {} (n_kept {})", run.token, run.n_kept),
        }
    }

    #[test]
    fn rejects_all_nan_probabilities() {
        assert_bad_total(&[F16::NAN; 300]);
    }

    #[test]
    fn rejects_a_single_nan_probability() {
        let mut probs = vec![F16::from_f32(0.1); 300];
        probs[123] = F16::NAN;
        assert_bad_total(&probs);
    }

    #[test]
    fn rejects_a_total_that_overflows_f16() {
        // Every entry is finite, but 300 x 60000 exceeds f16's 65504.
        assert_bad_total(&[F16::from_f32(60000.0); 300]);
    }

    #[test]
    fn rejects_an_infinite_probability() {
        let mut probs = vec![F16::from_f32(0.1); 300];
        probs[42] = F16::INFINITY;
        assert_bad_total(&probs);
    }
}
