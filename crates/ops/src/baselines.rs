//! The PyTorch-Ascend baseline operators the paper measures against.
//!
//! Two kinds of baseline live here:
//!
//! * **Real kernels** — [`clone`] (the `torch.clone` copy used as the
//!   roofline reference in Fig. 8) is an ordinary simulator kernel.
//! * **Modeled operators** — `torch.masked_select`, `torch.sort`,
//!   `torch.multinomial` and the baseline top-k are *opaque* library
//!   operators on the real system (the paper treats them as black
//!   boxes). They are reproduced as documented cost models: the
//!   functional result is computed exactly (host-side), and the
//!   simulated time is an explicit formula calibrated to the paper's
//!   observed behaviour — e.g. `masked_select` "does not use the vector
//!   or cube units" (paper footnote), so it is charged scalar-unit
//!   cycles per element on a single core.
//!
//! Every model's constants are `pub` so the benchmark harness can show
//! and vary them.

use crate::for_each_lane;
use ascend_sim::mem::GlobalMemory;
use ascend_sim::KernelReport;
use ascendc::{launch, ChipSpec, GlobalTensor, ScratchpadKind, SimError, SimResult};
use dtypes::{Element, Numeric, RadixKey, F16};
use scan::tile_spans;
use std::sync::Arc;

/// Scalar-unit cycles `torch.masked_select` spends per input element
/// (single scalar pipeline, no vector/cube engines — paper's footnote 4).
pub const MASKED_SELECT_CYCLES_PER_ELEM: f64 = 9.0;

/// Vector cycles per element per merge level for the `torch.sort`
/// baseline model (multi-core merge sort with vectorized local phases).
pub const SORT_CYCLES_PER_ELEM_LEVEL: f64 = 0.12;

/// Fixed host+device dispatch overhead of one opaque torch operator, in
/// cycles (~11 µs at 1.8 GHz — profiler-visible op latency).
pub const TORCH_OP_OVERHEAD_CYCLES: u64 = 20_000;

/// Vector cycles per element for the baseline `torch.topk` (single
/// filtering pass + per-core heaps; efficient for small k).
pub const TOPK_BASE_CYCLES_PER_ELEM: f64 = 0.08;

/// Vector cycles per element for `torch.multinomial`'s CDF build +
/// binary search.
pub const MULTINOMIAL_CYCLES_PER_ELEM: f64 = 0.55;

/// Support-size cap of the Ascend `torch.multinomial` baseline (2²⁴).
pub const MULTINOMIAL_MAX_SUPPORT: usize = 1 << 24;

fn modeled_report(
    spec: &ChipSpec,
    name: &str,
    compute_cycles: f64,
    bytes_read: u64,
    bytes_written: u64,
) -> KernelReport {
    // An opaque operator is still subject to the memory roofline.
    let bw_cycles = spec.gm_bound_cycles(bytes_read + bytes_written, usize::MAX);
    let cycles = TORCH_OP_OVERHEAD_CYCLES + (compute_cycles.ceil() as u64).max(bw_cycles);
    KernelReport {
        blocks: spec.ai_cores,
        cycles,
        bytes_read,
        bytes_written,
        // An opaque op streams its I/O once: footprint == traffic.
        working_set: bytes_read + bytes_written,
        ..crate::empty_report(spec, name)
    }
}

/// `torch.clone`: a pure device copy, implemented as a real multi-core
/// MTE kernel (the Fig. 8 roofline reference).
pub fn clone<E: Element>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<E>,
) -> SimResult<(GlobalTensor<E>, KernelReport)> {
    let n = x.len();
    let y = GlobalTensor::<E>::new(gm, n)?;
    let piece = 8192usize.min(spec.ub_capacity / (2 * E::SIZE).max(1));
    let spans = tile_spans(n, piece)?;
    let mut report = launch(spec, gm, spec.ai_cores, "torch.clone", |ctx| {
        for_each_lane(ctx, spans.iter(), |vc, _, mine| {
            let mut q = ascendc::TQue::<E>::new(vc, ScratchpadKind::Ub, 2, piece)?;
            for &(off, valid) in mine {
                let mut buf = q.alloc_tensor()?;
                vc.copy_in(&mut buf, 0, x, off, valid, &[])?;
                let ev = vc.copy_out(&y, off, &buf, 0, valid, &[])?;
                q.free_tensor(buf, ev);
            }
            q.destroy(vc)
        })
    })?;
    report.elements = n as u64;
    report.useful_bytes = (2 * n * E::SIZE) as u64;
    Ok((y, report))
}

/// `torch.masked_select` (Ascend): scalar-unit-only selection — the
/// paper's footnote documents that the stock operator uses neither the
/// vector nor the cube units, which is why Compress dominates it.
pub fn masked_select<E: Element>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<E>,
    mask: &GlobalTensor<u8>,
) -> SimResult<(GlobalTensor<E>, KernelReport)> {
    if x.len() != mask.len() {
        return Err(SimError::InvalidArgument(
            "masked_select: length mismatch".into(),
        ));
    }
    let n = x.len();
    let selected: Vec<E> = x
        .to_vec()
        .into_iter()
        .zip(mask.to_vec())
        .filter(|&(_, m)| m != 0)
        .map(|(v, _)| v)
        .collect();
    let out = GlobalTensor::from_slice(gm, &selected)?;
    let mut report = modeled_report(
        spec,
        "torch.masked_select",
        n as f64 * MASKED_SELECT_CYCLES_PER_ELEM,
        (n * (E::SIZE + 1)) as u64,
        (selected.len() * E::SIZE) as u64,
    );
    report.elements = n as u64;
    report.useful_bytes = (n * (E::SIZE + 1) + selected.len() * E::SIZE) as u64;
    Ok((out, report))
}

/// `torch.sort` (Ascend): modeled multi-core merge sort. Returns sorted
/// values and the argsort indices, like the PyTorch API.
pub fn sort<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<K>,
    descending: bool,
) -> SimResult<(GlobalTensor<K>, GlobalTensor<u32>, KernelReport)>
where
    K: RadixKey + Element,
{
    let n = x.len();
    let data = x.to_vec();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&i| {
        let e = data[i as usize].encode().into();
        if descending {
            u64::MAX - e
        } else {
            e
        }
    });
    let values: Vec<K> = order.iter().map(|&i| data[i as usize]).collect();
    let vt = GlobalTensor::from_slice(gm, &values)?;
    let it = GlobalTensor::from_slice(gm, &order)?;

    let levels = (n.max(2) as f64).log2();
    let mut report = modeled_report(
        spec,
        "torch.sort",
        n as f64 * levels * SORT_CYCLES_PER_ELEM_LEVEL,
        // Merge passes stream values+indices once per level pair.
        (n as f64 * (K::SIZE + 4) as f64 * (levels / 2.0)) as u64,
        (n as f64 * (K::SIZE + 4) as f64 * (levels / 2.0)) as u64,
    );
    report.elements = n as u64;
    report.useful_bytes = (n * K::SIZE + n * (K::SIZE + 4)) as u64;
    Ok((vt, it, report))
}

/// Baseline `torch.topk` (Ascend): modeled single-sweep selection with
/// per-core heaps — fast for small `k`, which is exactly the regime
/// where the paper's SplitInd-based top-k fails to beat it.
pub fn topk_baseline<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<K>,
    k: usize,
) -> SimResult<(GlobalTensor<K>, GlobalTensor<u32>, KernelReport)>
where
    K: RadixKey + Element,
{
    let n = x.len();
    if k == 0 || k > n {
        return Err(SimError::InvalidArgument(format!(
            "topk_baseline: k {k} out of range 1..={n}"
        )));
    }
    let data = x.to_vec();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&i| u64::MAX - data[i as usize].encode().into());
    order.truncate(k);
    let values: Vec<K> = order.iter().map(|&i| data[i as usize]).collect();
    let vt = GlobalTensor::from_slice(gm, &values)?;
    let it = GlobalTensor::from_slice(gm, &order)?;

    // One streaming pass over the input plus a k·log k merge of the
    // per-core candidate heaps.
    let merge = (k as f64) * (k.max(2) as f64).log2() * 0.5;
    let mut report = modeled_report(
        spec,
        "torch.topk",
        n as f64 * TOPK_BASE_CYCLES_PER_ELEM + merge,
        (n * K::SIZE) as u64,
        (k * (K::SIZE + 4)) as u64,
    );
    report.elements = n as u64;
    report.useful_bytes = (n * K::SIZE + k * (K::SIZE + 4)) as u64;
    Ok((vt, it, report))
}

/// `torch.multinomial` (Ascend): modeled CDF build + search. Faithfully
/// reproduces the baseline's 2²⁴ support-size cap (the functional
/// limitation the paper's weighted sampling removes).
pub fn multinomial(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    w: &GlobalTensor<F16>,
    theta: f64,
) -> SimResult<(usize, KernelReport)> {
    let n = w.len();
    if n == 0 {
        return Err(SimError::InvalidArgument(
            "multinomial: empty weights".into(),
        ));
    }
    if n > MULTINOMIAL_MAX_SUPPORT {
        return Err(SimError::InvalidArgument(format!(
            "multinomial: support size {n} exceeds the baseline's 2^24 cap"
        )));
    }
    let _ = gm;
    let weights = w.to_vec();
    let total: f64 = weights.iter().map(|v| v.to_f64()).sum();
    if !(total.is_finite() && total > 0.0) {
        return Err(SimError::InvalidArgument(format!(
            "multinomial: weights sum to {total}, not a finite positive mass"
        )));
    }
    let target = theta * total;
    let mut acc = 0.0;
    let mut index = n - 1;
    for (i, v) in weights.iter().enumerate() {
        acc += v.to_f64();
        if acc > target {
            index = i;
            break;
        }
    }
    let mut report = modeled_report(
        spec,
        "torch.multinomial",
        n as f64 * MULTINOMIAL_CYCLES_PER_ELEM,
        (n * F16::SIZE) as u64,
        (n * 4) as u64, // f32 CDF materialization
    );
    report.elements = n as u64;
    report.useful_bytes = (n * F16::SIZE) as u64;
    Ok((index, report))
}

/// `torch.cumsum` (Ascend): the unoptimized vector-only scan — simply
/// the CumSum baseline kernel from the `scan` crate.
pub fn cumsum<T: Numeric>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
) -> SimResult<(GlobalTensor<T>, KernelReport)> {
    // Pick the largest power-of-two row length whose double-buffered
    // s*s tile fits UB (128 on the 910B4, smaller on the test chip).
    let mut s = 8;
    while s <= 64 && 2 * (2 * s) * (2 * s) * T::SIZE + 2 * s * T::SIZE <= spec.ub_capacity {
        s *= 2;
    }
    let run = scan::baseline::cumsum_vec_only(spec, gm, x, s)?;
    Ok((run.y, run.report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    #[test]
    fn clone_copies_and_reports_bandwidth() {
        let (spec, gm) = setup();
        let data: Vec<u16> = (0..5000).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let (y, report) = clone(&spec, &gm, &x).unwrap();
        assert_eq!(y.to_vec(), data);
        assert_eq!(report.bytes_read, 10_000);
        assert_eq!(report.bytes_written, 10_000);
        assert!(report.gbps() > 0.0);
    }

    #[test]
    fn masked_select_filters() {
        let (spec, gm) = setup();
        let data: Vec<u16> = (0..100).collect();
        let mask: Vec<u8> = (0..100).map(|i| (i % 4 == 0) as u8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
        let (out, _) = masked_select(&spec, &gm, &x, &m).unwrap();
        assert_eq!(out.to_vec(), (0..100).step_by(4).collect::<Vec<u16>>());
    }

    #[test]
    fn sort_orders_both_ways() {
        let (spec, gm) = setup();
        let data: Vec<u16> = vec![5, 1, 9, 3, 3, 7];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let (v, i, _) = sort(&spec, &gm, &x, false).unwrap();
        assert_eq!(v.to_vec(), vec![1, 3, 3, 5, 7, 9]);
        assert_eq!(i.to_vec()[0], 1);
        let (v, _, _) = sort(&spec, &gm, &x, true).unwrap();
        assert_eq!(v.to_vec(), vec![9, 7, 5, 3, 3, 1]);
    }

    #[test]
    fn topk_baseline_selects() {
        let (spec, gm) = setup();
        let data: Vec<u16> = (0..1000).map(|i| (i * 37 % 997) as u16).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let (v, idx, _) = topk_baseline(&spec, &gm, &x, 5).unwrap();
        let mut expect = data.clone();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(v.to_vec(), &expect[..5]);
        for (val, &i) in v.to_vec().iter().zip(&idx.to_vec()) {
            assert_eq!(data[i as usize], *val);
        }
        assert!(topk_baseline(&spec, &gm, &x, 0).is_err());
    }

    #[test]
    fn multinomial_caps_support_size() {
        let (spec, gm) = setup();
        let w = GlobalTensor::from_slice(&gm, &[F16::ONE; 100]).unwrap();
        let (idx, _) = multinomial(&spec, &gm, &w, 0.5).unwrap();
        assert!(
            (45..55).contains(&idx),
            "uniform draw near the middle, got {idx}"
        );
        // The cap itself (2^24) is too large to allocate in a unit test;
        // the guard is a plain length check, so exercise the error path
        // by temporarily lowering... the constant is pub but const. We
        // instead assert the constant's documented value.
        assert_eq!(MULTINOMIAL_MAX_SUPPORT, 1 << 24);
    }

    /// Draws from eight unit weights with one weight replaced.
    fn multinomial_with_one_weight(bad: F16) -> SimResult<(usize, KernelReport)> {
        let (spec, gm) = setup();
        let mut w = [F16::ONE; 8];
        w[3] = bad;
        let x = GlobalTensor::from_slice(&gm, &w).unwrap();
        multinomial(&spec, &gm, &x, 0.5)
    }

    #[test]
    fn multinomial_rejects_nan_weight() {
        let err = multinomial_with_one_weight(F16::NAN).unwrap_err();
        assert!(err.to_string().contains("NaN"), "{err}");
    }

    #[test]
    fn multinomial_rejects_infinite_weight() {
        let err = multinomial_with_one_weight(F16::INFINITY).unwrap_err();
        assert!(err.to_string().contains("inf"), "{err}");
    }

    #[test]
    fn cumsum_baseline_works() {
        let (spec, gm) = setup();
        let data: Vec<i32> = (0..500).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let (y, _) = cumsum(&spec, &gm, &x).unwrap();
        assert_eq!(y.to_vec(), scan::reference::inclusive(&data));
    }

    #[test]
    fn modeled_reports_respect_bandwidth_floor() {
        let spec = ChipSpec::tiny();
        // 100 MB at 100 GB/s on 1 GHz = 1e6 cycles minimum.
        let r = modeled_report(&spec, "m", 10.0, 50_000_000, 50_000_000);
        assert!(r.cycles >= 1_000_000);
    }
}
