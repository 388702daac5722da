//! **Alias tables** for multi-sample weighted sampling — the direction
//! the paper's §5 names as future work ("for the multiple sample
//! generation scenario, the parallel alias table construction of
//! [Hübschle-Schneider & Sanders] seems to be a promising direction").
//!
//! An alias table answers weighted draws in O(1) per sample: pick a
//! uniform slot `i`, accept `i` with probability `prob[i]`, otherwise
//! emit `alias[i]`. Construction here runs the scan-heavy parts on the
//! device — normalization and classification of items into *light*
//! (scaled weight < 1) and *heavy* via a [`split_ind`] on the
//! comparison mask, exactly the paper's operator — while the residual
//! light/heavy pairing is a single sequential Vose sweep charged to the
//! scalar unit (the part whose parallelization is the cited paper's
//! whole contribution, and which we deliberately do not claim to solve).
//!
//! Sampling `k` draws is a device kernel: each draw costs two
//! line-granularity gathers (`prob[slot]`, `alias[slot]`), spread over
//! all vector cores.
//!
//! [`split_ind`]: crate::split::split_ind

use crate::split::split_ind;
use crate::{for_each_lane, inclusive_scan};
use ascend_sim::mem::GlobalMemory;
use ascend_sim::{EngineKind, KernelReport};
use ascendc::{launch, ChipSpec, CmpMode, GlobalTensor, ScratchpadKind, SimError, SimResult};
use scan::tile_spans;
use std::sync::Arc;

/// A built alias table in device memory.
pub struct AliasTable {
    /// Acceptance probability per slot (f32).
    pub prob: GlobalTensor<f32>,
    /// Alias target per slot (u32 index).
    pub alias: GlobalTensor<u32>,
    /// Support size.
    pub n: usize,
    /// Construction report.
    pub report: KernelReport,
}

/// Builds an alias table from non-negative `f32` weights.
///
/// Device work: inclusive MCScan of the weights (for the total), a
/// vector kernel computing the scaled weights and the light/heavy mask,
/// and a SplitInd partition of the indices. The final Vose pairing over
/// the partitioned indices is a sequential scalar sweep (charged at
/// `pairing_scalar_ops_per_item` scalar-unit operations per item on one
/// core — parallelizing it is the cited future work). `s` is the tile
/// dimension of the scan and split launches; every launch runs on all of
/// the chip's AI cores.
pub fn build_alias_table(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    w: &GlobalTensor<f32>,
    s: usize,
) -> SimResult<AliasTable> {
    let n = w.len();
    if n == 0 {
        return Err(SimError::InvalidArgument(
            "alias table: empty weights".into(),
        ));
    }

    // 1. Total mass via inclusive scan (device).
    let scan_run = inclusive_scan(spec, gm, w, s)?;
    let total = scan_run.y.read_range(n - 1, 1)?[0] as f64;
    if !(total.is_finite() && total > 0.0) {
        return Err(SimError::InvalidArgument(format!(
            "alias table: weights sum to {total}, not a finite positive mass"
        )));
    }

    // 2. Scaled weights + light mask (device vector kernel).
    let scaled = GlobalTensor::<f32>::new(gm, n)?;
    let mask = GlobalTensor::<u8>::new(gm, n)?;
    let scale = (n as f64 / total) as f32;
    let piece = crate::ub_piece(spec, 4 + 1, 4096);
    let spans = tile_spans(n, piece);
    let scale_report = launch(spec, gm, spec.ai_cores, "AliasScale", |ctx| {
        for_each_lane(ctx, spans.iter(), |vc, _, mine| {
            let mut buf = vc.alloc_local::<f32>(ScratchpadKind::Ub, piece)?;
            let mut mk = vc.alloc_local::<u8>(ScratchpadKind::Ub, piece)?;
            for &(off, valid) in mine {
                vc.copy_in(&mut buf, 0, w, off, valid, &[])?;
                vc.vmuls(&mut buf, 0, valid, scale, 0)?;
                vc.copy_out(&scaled, off, &buf, 0, valid, &[])?;
                vc.vcompare_scalar(&mut mk, &buf, 0, valid, CmpMode::Lt, 1.0f32, 0)?;
                vc.copy_out(&mask, off, &mk, 0, valid, &[])?;
            }
            vc.free_local(buf)?;
            vc.free_local(mk)
        })
    })?;

    // 3. Partition item indices into lights-first order (device split —
    // the values being split are the scaled weights; the index output is
    // what the pairing consumes).
    let split = split_ind::<f32>(spec, gm, &scaled, &mask, s)?;
    let n_light = split.n_true;

    // 4. Sequential Vose pairing over the partitioned order (host-side
    // arithmetic, charged to one scalar unit). Lights are resolved one
    // bucket at a time; a heavy whose residual drops below 1 joins the
    // light queue (the classic worklist algorithm — this dynamic
    // conversion is exactly what makes the construction sequential and
    // why its parallelization is the cited paper's contribution).
    let order = split.indices.to_vec();
    let scaled_host = scaled.to_vec();
    let mut residual: Vec<f64> = scaled_host.iter().map(|&v| v as f64).collect();
    let mut prob = vec![1.0f32; n];
    let mut alias: Vec<u32> = (0..n as u32).collect();
    {
        use std::collections::VecDeque;
        let mut small: VecDeque<u32> = order[..n_light].iter().copied().collect();
        let mut large: VecDeque<u32> = order[n_light..].iter().copied().collect();
        while let (Some(&s_idx), Some(&l_idx)) = (small.front(), large.front()) {
            small.pop_front();
            let si = s_idx as usize;
            let li = l_idx as usize;
            prob[si] = residual[si] as f32;
            alias[si] = l_idx;
            residual[li] -= 1.0 - residual[si];
            if residual[li] < 1.0 {
                large.pop_front();
                small.push_back(l_idx);
            }
        }
        // Leftovers on either queue are numerically full buckets.
        for s_idx in small {
            prob[s_idx as usize] = 1.0;
        }
    }
    let prob_t = GlobalTensor::from_slice(gm, &prob)?;
    let alias_t = GlobalTensor::from_slice(gm, &alias)?;

    // Charge the sequential pairing to the scalar unit of one core.
    let pairing_cycles = (n as u64) * 4 * u64::from(spec.scalar_op_cycles);
    let mut pairing = KernelReport {
        blocks: 1,
        cycles: spec.launch_cycles + pairing_cycles,
        bytes_read: (n * 8) as u64,
        bytes_written: (n * 8) as u64,
        working_set: (n * 16) as u64,
        ..crate::empty_report(spec, "AliasPairing(scalar)")
    };
    pairing.engine_busy[EngineKind::Scalar.index()] = pairing_cycles;

    let mut report = KernelReport::sequential(
        "BuildAliasTable",
        &[scan_run.report, scale_report, split.report, pairing],
    );
    report.elements = n as u64;
    report.useful_bytes = (n * 4 + n * 8) as u64;
    Ok(AliasTable {
        prob: prob_t,
        alias: alias_t,
        n,
        report,
    })
}

/// Draws one sample per `(theta_slot, theta_accept)` pair of uniform
/// variates: O(1) work and two line-granularity gathers per draw,
/// distributed over all vector cores.
pub fn alias_sample_many(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    table: &AliasTable,
    thetas: &[(f64, f64)],
) -> SimResult<(Vec<u32>, KernelReport)> {
    if thetas.is_empty() {
        return Err(SimError::InvalidArgument(
            "alias sample: no draws requested".into(),
        ));
    }
    for &(a, b) in thetas {
        if !(0.0..1.0).contains(&a) || !(0.0..1.0).contains(&b) {
            return Err(SimError::InvalidArgument(format!(
                "alias sample: variates ({a}, {b}) outside [0, 1)"
            )));
        }
    }
    let n = table.n;
    let k = thetas.len();
    let out = GlobalTensor::<u32>::new(gm, k)?;
    let blocks = spec.ai_cores.min(k.div_ceil(2).max(1) as u32);

    let mut report = launch(spec, gm, blocks, "AliasSample", |ctx| {
        for_each_lane(ctx, thetas.iter().enumerate(), |vc, _, mine| {
            let mut pbuf = vc.alloc_local::<f32>(ScratchpadKind::Ub, 1)?;
            let mut abuf = vc.alloc_local::<u32>(ScratchpadKind::Ub, 1)?;
            let mut obuf = vc.alloc_local::<u32>(ScratchpadKind::Ub, 1)?;
            for (di, &(ts, ta)) in mine {
                let slot = ((ts * n as f64) as usize).min(n - 1);
                // Two random-position gathers: each drags a GM line.
                vc.copy_in_2d(&mut pbuf, &table.prob, slot, 1, 1, n.max(2), &[])?;
                vc.copy_in_2d(&mut abuf, &table.alias, slot, 1, 1, n.max(2), &[])?;
                let (p, pr) = vc.extract(&pbuf, 0)?;
                let (al, ar) = vc.extract(&abuf, 0)?;
                let token = if ta < f64::from(p) { slot as u32 } else { al };
                let ready = vc.scalar_ops(2, &[pr, ar])?;
                vc.insert(&mut obuf, 0, token, ready)?;
                vc.copy_out(&out, di, &obuf, 0, 1, &[])?;
            }
            vc.free_local(pbuf)?;
            vc.free_local(abuf)?;
            vc.free_local(obuf)
        })
    })?;
    let tokens = out.to_vec();
    report.elements = k as u64;
    report.useful_bytes = (k * 4) as u64;
    Ok((tokens, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    /// The alias-table invariant: the mass attributed to item `i` —
    /// `prob[i]` from its own slot plus `(1 - prob[j])` from every slot
    /// aliased to it — equals its scaled weight.
    fn check_table(table_prob: &[f32], table_alias: &[u32], w: &[f32]) {
        let n = w.len() as f64;
        let total: f64 = w.iter().map(|&x| x as f64).sum();
        let mut mass = vec![0.0f64; w.len()];
        for i in 0..w.len() {
            mass[i] += table_prob[i] as f64;
            let a = table_alias[i] as usize;
            mass[a] += 1.0 - table_prob[i] as f64;
        }
        for i in 0..w.len() {
            let expect = w[i] as f64 * n / total;
            assert!(
                (mass[i] - expect).abs() < 1e-3 * n,
                "item {i}: mass {} vs scaled weight {expect}",
                mass[i]
            );
        }
    }

    #[test]
    fn table_mass_matches_weights() {
        let (spec, gm) = setup();
        let w: Vec<f32> = (0..500).map(|i| 1.0 + (i % 7) as f32).collect();
        let x = GlobalTensor::from_slice(&gm, &w).unwrap();
        let t = build_alias_table(&spec, &gm, &x, 16).unwrap();
        check_table(&t.prob.to_vec(), &t.alias.to_vec(), &w);
    }

    #[test]
    fn uniform_weights_need_no_aliases() {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let w = vec![3.0f32; 128];
        let x = GlobalTensor::from_slice(&gm, &w).unwrap();
        let t = build_alias_table(&spec, &gm, &x, 16).unwrap();
        assert!(t.prob.to_vec().iter().all(|&p| (p - 1.0).abs() < 1e-6));
    }

    #[test]
    fn skewed_weights_build_a_valid_table() {
        let (spec, gm) = setup();
        let mut w = vec![0.01f32; 300];
        w[42] = 100.0;
        w[17] = 50.0;
        let x = GlobalTensor::from_slice(&gm, &w).unwrap();
        let t = build_alias_table(&spec, &gm, &x, 16).unwrap();
        check_table(&t.prob.to_vec(), &t.alias.to_vec(), &w);
    }

    #[test]
    fn sampling_respects_the_distribution() {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        // 90% of mass on item 5 in a 10-item support.
        let mut w = vec![1.0f32; 10];
        w[5] = 81.0;
        let x = GlobalTensor::from_slice(&gm, &w).unwrap();
        let t = build_alias_table(&spec, &gm, &x, 16).unwrap();
        // A deterministic grid of variates approximates expectation.
        let thetas: Vec<(f64, f64)> = (0..400)
            .map(|i| {
                (
                    ((i % 20) as f64 + 0.5) / 20.0,
                    ((i / 20) as f64 + 0.5) / 20.0,
                )
            })
            .collect();
        let (tokens, report) = alias_sample_many(&spec, &gm, &t, &thetas).unwrap();
        let hits5 = tokens.iter().filter(|&&t| t == 5).count() as f64 / 400.0;
        assert!(
            (hits5 - 0.9).abs() < 0.05,
            "item 5 should receive ~90% of draws, got {hits5:.2}"
        );
        assert!(tokens.iter().all(|&t| (t as usize) < 10));
        assert!(report.time_us() > 0.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let empty = GlobalTensor::<f32>::new(&gm, 0).unwrap();
        assert!(build_alias_table(&spec, &gm, &empty, 16).is_err());
        let zeros = GlobalTensor::from_slice(&gm, &[0.0f32; 8]).unwrap();
        assert!(build_alias_table(&spec, &gm, &zeros, 16).is_err());
        let w = GlobalTensor::from_slice(&gm, &[1.0f32; 8]).unwrap();
        let t = build_alias_table(&spec, &gm, &w, 16).unwrap();
        assert!(alias_sample_many(&spec, &gm, &t, &[]).is_err());
        assert!(alias_sample_many(&spec, &gm, &t, &[(1.2, 0.5)]).is_err());
    }

    /// Builds a table over eight unit weights with one weight replaced.
    fn table_with_one_weight(bad: f32) -> SimResult<AliasTable> {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let mut w = [1.0f32; 8];
        w[3] = bad;
        let x = GlobalTensor::from_slice(&gm, &w).unwrap();
        build_alias_table(&spec, &gm, &x, 16)
    }

    #[test]
    fn nan_weight_is_rejected() {
        let err = table_with_one_weight(f32::NAN).err().expect("NaN total");
        assert!(err.to_string().contains("NaN"), "{err}");
    }

    #[test]
    fn infinite_weight_is_rejected() {
        let err = table_with_one_weight(f32::INFINITY)
            .err()
            .expect("inf total");
        assert!(err.to_string().contains("inf"), "{err}");
    }
}
