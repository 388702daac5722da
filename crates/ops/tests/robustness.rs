//! Robustness of the split-based operators of the `ops` crate.
//!
//! `split_ind`, `compress`, `radix_sort`, `topk` and `top_p_sample` (the
//! sort and top-p with one- and two-bit sort digits) run on the tiny
//! chip and odd variants of it (a 2 KB UB, one AI core, one vector core
//! per AI core) at lengths around the row (`s`) and tile (`ℓ = s²`)
//! boundaries of top-p's CDF scan. Each call must return either the
//! host reference or a typed [`SimError`] — never a panic. Every split
//! runs as one launch whose scatter takes the UB its offset read leaves
//! free, so a chip too small for one element of it must refuse with an
//! error. The pinned counts record which calls run to a result.
//!
//! The `ops::baselines` free functions — `clone`, `masked_select`,
//! `sort`, `topk_baseline`, `multinomial` and `cumsum` — run on the same
//! chips and lengths under the same contract, with a pin of their own.

use ascend_sim::mem::GlobalMemory;
use ascendc::{ChipSpec, GlobalTensor, SimError, SimResult};
use dtypes::F16;
use ops::baselines;
use ops::split::reference_split;
use ops::{compress, radix_sort, split_ind, top_p_sample, topk, SortOrder};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The tiny chip and its odd variants.
fn chips() -> Vec<(&'static str, ChipSpec)> {
    let tiny = ChipSpec::tiny();
    let with = |f: fn(&mut ChipSpec)| {
        let mut spec = tiny.clone();
        f(&mut spec);
        spec
    };
    vec![
        ("tiny", tiny.clone()),
        ("2 KB UB", with(|c| c.ub_capacity = 2 << 10)),
        ("1 AI core", with(|c| c.ai_cores = 1)),
        ("1 vector core", with(|c| c.vec_per_core = 1)),
        ("0 vector cores", with(|c| c.vec_per_core = 0)),
    ]
}

/// Lengths around the row (`s`) and tile (`ℓ = s²`) boundaries.
fn lengths(s: usize) -> Vec<usize> {
    let l = s * s;
    vec![0, 1, s - 1, s, s + 1, l - 1, l, l + 1, 3 * l + 7]
}

/// Collects every contract violation so one run reports them all, and
/// counts the calls that ran to a result.
#[derive(Default)]
struct Findings {
    violations: Vec<String>,
    calls: usize,
    accepted: usize,
}

impl Findings {
    /// Runs `call`; a panic (on the caller's thread or inside a block,
    /// which the launch reports as `BlockPanicked`) or a result other
    /// than `expect` is a finding, any other typed error is a legitimate
    /// refusal.
    fn check<R: PartialEq + Debug>(
        &mut self,
        case: &str,
        expect: impl FnOnce() -> R,
        call: impl FnOnce() -> SimResult<R>,
    ) {
        self.calls += 1;
        match catch_unwind(AssertUnwindSafe(call)) {
            Err(_) | Ok(Err(SimError::BlockPanicked { .. })) => {
                self.violations.push(format!("{case}: panicked"))
            }
            Ok(Ok(got)) => {
                self.accepted += 1;
                let want = expect();
                if got != want {
                    self.violations
                        .push(format!("{case}: got {got:?}, want {want:?}"));
                }
            }
            Ok(Err(_)) => {}
        }
    }
}

/// The stable ascending argsort of `keys` and the sorted keys.
fn host_sort(keys: &[u16]) -> (Vec<u16>, Vec<u32>) {
    let mut idx: Vec<u32> = (0..keys.len() as u32).collect();
    idx.sort_by_key(|&i| keys[i as usize]);
    (idx.iter().map(|&i| keys[i as usize]).collect(), idx)
}

/// Host top-p over integer-valued f16 weights (totals stay below 2048,
/// so every f16 sum is exact): the stable descending sort, the kept
/// prefix `cumsum − w ≤ p·total` (at least one token) and the first
/// kept position whose cumulative weight exceeds `theta` of the kept
/// mass. Returns `(token, n_kept)`.
fn host_top_p(w: &[f64], p: f64, theta: f64) -> (u32, usize) {
    let mut idx: Vec<u32> = (0..w.len() as u32).collect();
    idx.sort_by(|&a, &b| w[b as usize].total_cmp(&w[a as usize]));
    let cdf: Vec<f64> = idx
        .iter()
        .scan(0.0, |acc, &i| {
            *acc += w[i as usize];
            Some(*acc)
        })
        .collect();
    let total = cdf[cdf.len() - 1];
    let p_abs = F16::from_f64(p * total).to_f64();
    let kept = idx
        .iter()
        .zip(&cdf)
        .filter(|&(&i, &c)| c - w[i as usize] <= p_abs)
        .count()
        .max(1);
    let threshold = F16::from_f64(theta * cdf[kept - 1]).to_f64();
    let pos = cdf[..kept]
        .iter()
        .position(|&c| c > threshold)
        .unwrap_or(kept - 1);
    (idx[pos], kept)
}

/// The `k` largest of the distinct `vals` with their indices, largest
/// first.
fn host_topk(vals: &[u16], k: usize) -> Vec<(u16, u32)> {
    let mut top: Vec<(u16, u32)> = (0..vals.len() as u32)
        .map(|i| (vals[i as usize], i))
        .collect();
    top.sort_unstable_by(|a, b| b.cmp(a));
    top.truncate(k);
    top
}

fn run_operators(findings: &mut Findings, chip: &str, spec: &ChipSpec, s: usize, n: usize) {
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    // Distinct values (7919 is prime and above every length here), so
    // the top-k set is unique; keys with duplicates for the sort.
    let vals: Vec<u16> = (0..n).map(|i| (i * 7919 % n.max(1)) as u16).collect();
    let keys: Vec<u16> = (0..n).map(|i| (i * 37 % 101) as u16).collect();
    let mask: Vec<u8> = (0..n).map(|i| u8::from(i % 3 != 1)).collect();
    let weights: Vec<f64> = (0..n).map(|i| [1.0, 0.0, 2.0, 0.0, 0.0][i % 5]).collect();
    let probs: Vec<F16> = weights.iter().map(|&w| F16::from_f64(w)).collect();
    let x = GlobalTensor::from_slice(&gm, &vals).unwrap();
    let k = GlobalTensor::from_slice(&gm, &keys).unwrap();
    let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
    let pr = GlobalTensor::from_slice(&gm, &probs).unwrap();
    let case = |what: &str| format!("{what} on {chip}, s = {s}, n = {n}");

    findings.check(
        &case("split_ind"),
        || reference_split(&vals, &mask),
        || split_ind(spec, &gm, &x, &m).map(|r| (r.values.to_vec(), r.indices.to_vec(), r.n_true)),
    );
    findings.check(
        &case("compress"),
        || {
            let (v, _, n_true) = reference_split(&vals, &mask);
            v[..n_true].to_vec()
        },
        || compress(spec, &gm, &x, &m).map(|r| r.values.to_vec()),
    );
    for bits in [1, 2] {
        findings.check(
            &case(&format!("radix_sort ({bits}-bit digits)")),
            || host_sort(&keys),
            || {
                radix_sort(spec, &gm, &k, bits, SortOrder::Ascending)
                    .map(|r| (r.values.to_vec(), r.indices.to_vec()))
            },
        );
    }
    let kk = n.div_ceil(2);
    findings.check(
        &case("topk"),
        || host_topk(&vals, kk),
        || {
            topk(spec, &gm, &x, kk).map(|r| {
                r.values
                    .to_vec()
                    .into_iter()
                    .zip(r.indices.to_vec())
                    .collect()
            })
        },
    );
    for bits in [1, 2] {
        findings.check(
            &case(&format!("top_p_sample ({bits}-bit sort digits)")),
            || host_top_p(&weights, 0.5, 0.5),
            || top_p_sample(spec, &gm, &pr, 0.5, 0.5, s, bits).map(|r| (r.token, r.n_kept)),
        );
    }
}

/// The `ops::baselines` free functions on the inputs of
/// [`run_operators`]: the two real kernels (`clone` and the vector-only
/// `cumsum`) and the four modeled operators, whose results are computed
/// on the host.
fn run_baselines(findings: &mut Findings, chip: &str, spec: &ChipSpec, s: usize, n: usize) {
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    let vals: Vec<u16> = (0..n).map(|i| (i * 7919 % n.max(1)) as u16).collect();
    let keys: Vec<u16> = (0..n).map(|i| (i * 37 % 101) as u16).collect();
    let mask: Vec<u8> = (0..n).map(|i| u8::from(i % 3 != 1)).collect();
    let weights: Vec<f64> = (0..n).map(|i| [1.0, 0.0, 2.0, 0.0, 0.0][i % 5]).collect();
    let probs: Vec<F16> = weights.iter().map(|&w| F16::from_f64(w)).collect();
    let signal: Vec<i32> = (0..n).map(|i| (i as i32 * 7) % 3 - 1).collect();
    let x = GlobalTensor::from_slice(&gm, &vals).unwrap();
    let k = GlobalTensor::from_slice(&gm, &keys).unwrap();
    let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
    let pr = GlobalTensor::from_slice(&gm, &probs).unwrap();
    let sig = GlobalTensor::from_slice(&gm, &signal).unwrap();
    let case = |what: &str| format!("baselines::{what} on {chip}, s = {s}, n = {n}");

    findings.check(
        &case("clone"),
        || vals.clone(),
        || baselines::clone(spec, &gm, &x).map(|(y, _)| y.to_vec()),
    );
    findings.check(
        &case("masked_select"),
        || {
            let (v, _, n_true) = reference_split(&vals, &mask);
            v[..n_true].to_vec()
        },
        || baselines::masked_select(spec, &gm, &x, &m).map(|(y, _)| y.to_vec()),
    );
    findings.check(
        &case("sort"),
        || host_sort(&keys),
        || baselines::sort(spec, &gm, &k, false).map(|(v, i, _)| (v.to_vec(), i.to_vec())),
    );
    let kk = n.div_ceil(2);
    findings.check(
        &case("topk_baseline"),
        || host_topk(&vals, kk),
        || {
            baselines::topk_baseline(spec, &gm, &x, kk)
                .map(|(v, i, _)| v.to_vec().into_iter().zip(i.to_vec()).collect())
        },
    );
    findings.check(
        &case("multinomial"),
        || {
            // The first index whose cumulative weight exceeds half the
            // total; the integer weights keep every sum exact.
            let half = weights.iter().sum::<f64>() / 2.0;
            let mut acc = 0.0;
            weights.iter().position(|&w| {
                acc += w;
                acc > half
            })
        },
        || baselines::multinomial(spec, &gm, &pr, 0.5).map(|(index, _)| Some(index)),
    );
    findings.check(
        &case("cumsum"),
        || scan::reference::inclusive(&signal),
        || baselines::cumsum(spec, &gm, &sig).map(|(y, _)| y.to_vec()),
    );
}

#[test]
fn every_operator_returns_the_reference_or_a_typed_error() {
    let mut findings = Findings::default();
    for (chip, spec) in chips() {
        for s in [16, 32] {
            for n in lengths(s) {
                run_operators(&mut findings, chip, &spec, s, n);
            }
        }
    }
    assert!(
        findings.violations.is_empty(),
        "{} contract violations:\n{}",
        findings.violations.len(),
        findings.violations.join("\n")
    );
    // Pins which inputs the operators accept: a change that makes one
    // refuse (or newly run) any of these calls moves the count. The 158
    // refusals: `topk` and both `top_p_sample`s of nothing on every chip
    // and `s` (30), both `top_p_sample`s of something at s = 32 on the
    // 2 KB UB, whose CDF MCScan's 4 KB propagation buffer does not fit
    // (16), and on the chip without vector cores every call that
    // launches (112: only the empty split, compress and both sorts at
    // both `s` launch nothing and run). The splits, sorts and top-k take
    // no `s` and run on the 2 KB UB: they need no propagation buffers.
    assert_eq!(
        (findings.calls, findings.accepted),
        (630, 472),
        "(calls, calls that ran to a result)"
    );
}

#[test]
fn every_baseline_returns_the_reference_or_a_typed_error() {
    let mut findings = Findings::default();
    for (chip, spec) in chips() {
        for s in [16, 32] {
            for n in lengths(s) {
                run_baselines(&mut findings, chip, &spec, s, n);
            }
        }
    }
    assert!(
        findings.violations.is_empty(),
        "{} contract violations:\n{}",
        findings.violations.len(),
        findings.violations.join("\n")
    );
    // Pins which inputs the baselines accept, as above. The 56
    // refusals: `topk_baseline` and `multinomial` of nothing on every
    // chip and `s` (20), and on the chip without vector cores the two
    // real kernels, `clone` and `cumsum` (36); every other call runs,
    // the two real kernels included on the 2 KB UB.
    assert_eq!(
        (findings.calls, findings.accepted),
        (540, 484),
        "(calls, calls that ran to a result)"
    );
}

#[test]
fn a_chip_without_room_for_the_split_store_refuses_every_split() {
    // One AI core with a 13 B UB: a split's phase I (9 B for one-element
    // pieces) and offset read (8 B) fit, but one element of the u16
    // split's scatter needs 14 B, of the one-bit sort's 16 B and of
    // top-k's two-bit sort 20 B (their encodes, which run first, refuse
    // already). Compress's scatter needs 5 B per element, so it runs,
    // one element per piece.
    let spec = ChipSpec {
        ai_cores: 1,
        ub_capacity: 13,
        ..ChipSpec::tiny()
    };
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    let vals: Vec<u16> = (0..300).collect();
    let mask: Vec<u8> = (0..300).map(|i| (i % 2) as u8).collect();
    let x = GlobalTensor::from_slice(&gm, &vals).unwrap();
    let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
    let errs = [
        split_ind(&spec, &gm, &x, &m).err(),
        radix_sort(&spec, &gm, &x, 1, SortOrder::Ascending).err(),
        topk(&spec, &gm, &x, 10).err(),
    ];
    for err in errs {
        assert!(
            matches!(err, Some(SimError::ScratchpadOverflow { .. })),
            "{err:?}"
        );
    }
    let (want, _, n_true) = reference_split(&vals, &mask);
    let got = compress(&spec, &gm, &x, &m).unwrap().values.to_vec();
    assert_eq!(got, &want[..n_true]);
}
