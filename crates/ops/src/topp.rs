//! **Top-p (nucleus) sampling** — the Llama3 `sample_top_p` operator.
//!
//! Given a token probability vector, nucleus sampling draws from the
//! smallest set of highest-probability tokens whose cumulative mass
//! exceeds `p`. The Llama3 reference implementation sorts the
//! probabilities descending, takes their cumulative sum, masks out
//! tokens once the *exclusive* cumulative mass passes `p`, renormalizes
//! and draws — exactly the pipeline built here from the paper's
//! operators:
//!
//! 1. descending [`radix_sort`] of the probabilities: one launch of
//!    splits that count their masks and scatter on every vector core —
//!    16 one-bit passes for fp16 in the paper's accounting, 8 two-bit
//!    passes (three mask counts each) as `Device::top_p` runs it;
//! 2. inclusive [`mcscan`] of the sorted probabilities (1 scan — with
//!    one-bit passes 17 phase I's per batch total, the paper's scan
//!    count; 4 launches either way). This scan keeps MCScan's tile chunks
//!    and its own `s`: another chunking would change where the fp16
//!    chunk offsets round, and with them the sampled tokens;
//! 3. a vector kernel that counts the kept prefix (`cumsum − prob ≤ p`);
//! 4. the inverse-transform boundary search over the *existing*
//!    cumulative sums restricted to the kept prefix (no extra scan).
//!
//! [`radix_sort`]: crate::radix_sort::radix_sort
//! [`mcscan`]: scan::mcscan::mcscan

use crate::radix_sort::{radix_sort, SortOrder};
use crate::weighted::cdf_search;
use crate::{for_each_lane, inclusive_scan};
use ascend_sim::mem::GlobalMemory;
use ascend_sim::KernelReport;
use ascendc::{launch, ChipSpec, CmpMode, GlobalTensor, ScratchpadKind, SimError, SimResult};
use dtypes::{Element, F16};
use scan::tile_spans;
use std::sync::Arc;

/// Result of [`top_p_sample`].
pub struct TopPRun {
    /// The sampled token id (index into the original probability vector).
    pub token: u32,
    /// How many tokens the nucleus kept.
    pub n_kept: usize,
    /// Combined execution report (sort + scan + threshold + search).
    pub report: KernelReport,
}

/// Draws one token by nucleus sampling from `probs` with threshold `p`,
/// using the uniform variate `theta ∈ [0, 1)`.
///
/// `probs` need not be normalized (the draw is proportional). `s` is
/// the tile dimension of the CDF's MCScan launch and `bits` the sort's
/// digit width (see [`radix_sort`]); every launch runs on all of the
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

    // 2. Cumulative sum of the sorted probabilities.
    let scan_run = inclusive_scan(spec, gm, &sorted.values, s)?;
    let cdf = scan_run.y;

    // 3. Count the kept prefix: token i stays while its *exclusive*
    // cumulative mass (cumsum[i] - prob[i]) does not exceed p·total.
    // (Llama3 normalizes first; proportional weights fold the total in.)
    let total = cdf.read_range(n - 1, 1)?[0].to_f32() as f64;
    if !(total.is_finite() && total > 0.0) {
        return Err(SimError::InvalidArgument(format!(
            "top_p: probabilities sum to {total}, not a finite positive mass"
        )));
    }
    let p_abs = F16::from_f64(p * total);
    let (n_kept, count_report) = kept_prefix_count(spec, gm, &cdf, &sorted.values, p_abs)?;
    let n_kept = n_kept.max(1);

    // 4. Inverse-transform draw over the kept prefix, reusing the CDF.
    let kept_mass = cdf.read_range(n_kept - 1, 1)?[0];
    let threshold = F16::from_f64(theta * kept_mass.to_f64());
    let (pos, search_report) = cdf_search(spec, gm, &cdf.slice(0, n_kept)?, n_kept, threshold)?;
    let token = sorted.indices.read_range(pos, 1)?[0];

    let mut report = KernelReport::sequential(
        "TopP",
        &[sorted.report, scan_run.report, count_report, search_report],
    );
    report.elements = n as u64;
    report.useful_bytes = (n * F16::SIZE) as u64;
    Ok(TopPRun {
        token,
        n_kept,
        report,
    })
}

/// Batched nucleus sampling: draws one token per row of a
/// `batch x vocab` probability tensor (the paper notes these operations
/// "are usually batched with a constant batch size"). Rows execute as
/// back-to-back device pipelines; the combined report reflects the whole
/// batch.
#[allow(clippy::too_many_arguments)]
pub fn top_p_sample_batch(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    probs: &GlobalTensor<F16>,
    batch: usize,
    vocab: usize,
    p: f64,
    thetas: &[f64],
    s: usize,
    bits: u32,
) -> SimResult<(Vec<u32>, KernelReport)> {
    if batch == 0 || vocab == 0 || batch * vocab != probs.len() {
        return Err(SimError::InvalidArgument(format!(
            "top_p batch: {batch} x {vocab} does not match tensor of {}",
            probs.len()
        )));
    }
    if thetas.len() != batch {
        return Err(SimError::InvalidArgument(format!(
            "top_p batch: {} thetas for batch {batch}",
            thetas.len()
        )));
    }
    let mut tokens = Vec::with_capacity(batch);
    let mut reports = Vec::with_capacity(batch);
    for (b, &theta) in thetas.iter().enumerate() {
        let row = probs.slice(b * vocab, vocab)?;
        let run = top_p_sample(spec, gm, &row, p, theta, s, bits)?;
        tokens.push(run.token);
        reports.push(run.report);
    }
    let mut report = KernelReport::sequential("TopP(batch)", &reports);
    report.elements = (batch * vocab) as u64;
    report.useful_bytes = (batch * vocab * F16::SIZE) as u64;
    Ok((tokens, report))
}

/// Counts how many leading tokens of the sorted distribution survive the
/// nucleus threshold: `#{i : cumsum[i] − prob[i] ≤ p}` (the CDF is
/// descending-sorted, so survivors form a prefix).
fn kept_prefix_count(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    cdf: &GlobalTensor<F16>,
    probs_sorted: &GlobalTensor<F16>,
    p_abs: F16,
) -> SimResult<(usize, KernelReport)> {
    let n = cdf.len();
    let piece = crate::ub_piece(spec, 2 * F16::SIZE + 1 + 4, 4096);
    let lanes = (spec.ai_cores * spec.vec_per_core) as usize;
    let counts = GlobalTensor::<u32>::new(gm, lanes)?;
    let spans = tile_spans(n, piece)?;
    let report = launch(spec, gm, spec.ai_cores, "TopPThreshold", |ctx| {
        for_each_lane(ctx, spans.iter(), |vc, lane, mine| {
            let mut cbuf = vc.alloc_local::<F16>(ScratchpadKind::Ub, piece)?;
            let mut pbuf = vc.alloc_local::<F16>(ScratchpadKind::Ub, piece)?;
            let mut mk = vc.alloc_local::<u8>(ScratchpadKind::Ub, piece)?;
            let mut wide = vc.alloc_local::<i32>(ScratchpadKind::Ub, piece)?;
            let mut kept = 0u32;
            let mut kept_ready = 0;
            for &(off, valid) in mine {
                vc.copy_in(&mut cbuf, 0, cdf, off, valid, &[])?;
                vc.copy_in(&mut pbuf, 0, probs_sorted, off, valid, &[])?;
                // exclusive mass = cumsum - prob
                vc.vsub_inplace(&mut cbuf, 0, &pbuf, 0, valid)?;
                vc.vcompare_scalar(&mut mk, &cbuf, 0, valid, CmpMode::Le, p_abs, 0)?;
                // Widen before reducing: a u8 mask sum wraps at 255.
                vc.vcast::<u8, i32>(&mut wide, &mk, 0, valid)?;
                let (count, ready) = vc.reduce_sum(&wide, 0, valid)?;
                kept += count as u32;
                kept_ready = vc.scalar_ops(1, &[ready, kept_ready])?;
            }
            let mut one = vc.alloc_local::<u32>(ScratchpadKind::Ub, 1)?;
            vc.insert(&mut one, 0, kept, kept_ready)?;
            vc.copy_out(&counts, lane, &one, 0, 1, &[])?;
            vc.free_local(one)?;
            vc.free_local(cbuf)?;
            vc.free_local(pbuf)?;
            vc.free_local(mk)?;
            vc.free_local(wide)
        })
    })?;
    let n_kept: u32 = counts.to_vec().into_iter().sum();
    Ok((n_kept as usize, report))
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
        // 16 radix-sort scans + 1 cumsum scan = 17 SyncAll rounds from
        // MCScan launches.
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
        // The sort's 33 barriers (encode, then two per pass) and the
        // CDF scan's one.
        assert_eq!(run.report.sync_rounds, 34);
    }

    #[test]
    fn batched_sampling_draws_per_row() {
        let (spec, gm) = setup();
        let (batch, vocab) = (3usize, 100usize);
        let mut probs = vec![F16::from_f32(1e-4); batch * vocab];
        // One dominant token per row at a different position.
        probs[7] = F16::ONE;
        probs[vocab + 31] = F16::ONE;
        probs[2 * vocab + 99] = F16::ONE;
        let t = GlobalTensor::from_slice(&gm, &probs).unwrap();
        let ((tokens, report), profile) = with_profiling(&gm, || {
            top_p_sample_batch(&spec, &gm, &t, batch, vocab, 0.5, &[0.3, 0.6, 0.9], 16, BIT)
                .unwrap()
        });
        assert_eq!(tokens, vec![7, 31, 99]);
        // 17 scans per batch element (the paper's accounting), in 34
        // barriers.
        assert_eq!(crate::tests::scans(&profile), 17 * batch);
        assert_eq!(report.sync_rounds, 34 * batch as u64);
        // Shape errors are rejected.
        assert!(top_p_sample_batch(&spec, &gm, &t, 2, vocab, 0.5, &[0.1, 0.2], 16, BIT).is_err());
        assert!(top_p_sample_batch(&spec, &gm, &t, batch, vocab, 0.5, &[0.1], 16, BIT).is_err());
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
