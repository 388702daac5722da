//! Robustness of the `Device` facade and of the `ops` sampling free
//! functions.
//!
//! The chips and the length grid are those of the `ops` suite: the tiny
//! chip and odd variants of it (a 2 KB UB, one AI core, one vector core
//! per AI core), at lengths around the row (`s`) and tile (`ℓ = s²`)
//! boundaries of the tile dimension each call runs at. `cumsum` and
//! `mask_exclusive_scan` also run one element either side of their ScanC
//! crossover, so both kernels behind each are covered. Each call must
//! return the host reference or a typed [`SimError`] — never a panic.
//! The pinned counts record which calls run to a result.
//!
//! The special-value tests pin what the scans do with NaN, ±Inf,
//! subnormals and saturated masks against `scan::reference`.

use ascend_scan::ops::{alias_sample_many, build_alias_table, weighted_sample, AliasTable};
use ascend_scan::scan::crossover::ScanPath;
use ascend_scan::scan::reference;
use ascend_scan::{ChipSpec, Device, McScanConfig, SimError, SimResult, F16};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// A walk of `±step` whose partial sums stay within `±64·step`, so
/// every fp16 association of it is exact (for `step = 1` and for the
/// subnormal `step = 2⁻²⁴` alike).
fn bounded_walk(n: usize, step: F16) -> Vec<F16> {
    let neg = F16::from_f64(-step.to_f64());
    let (mut pos, mut state) = (0i32, 0x9e37_79b9u32);
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let up = (state >> 16) & 1 == 1;
            let down = pos >= 64 || (pos > -64 && !up);
            pos += if down { -1 } else { 1 };
            if down {
                neg
            } else {
                step
            }
        })
        .collect()
}

/// Integer weights `[1, 0, 2, 0, 0]` repeated: every total below 2048,
/// so every fp16 and f32 sum of them is exact.
fn weights(n: usize) -> Vec<f64> {
    (0..n).map(|i| [1.0, 0.0, 2.0, 0.0, 0.0][i % 5]).collect()
}

/// Host inverse transform: the first index whose cumulative weight
/// exceeds `theta` of the total (rounded to fp16 like the kernel's
/// threshold), or the last index.
fn host_weighted(w: &[f64], theta: f64) -> usize {
    let total: f64 = w.iter().sum();
    let threshold = F16::from_f64(theta * total).to_f64();
    let mut cdf = 0.0;
    w.iter()
        .position(|&x| {
            cdf += x;
            cdf > threshold
        })
        .unwrap_or(w.len() - 1)
}

/// The alias-table invariant: the mass attributed to item `i` —
/// `prob[i]` from its own slot plus `1 − prob[j]` from every slot `j`
/// aliased to it — equals its scaled weight `w[i]·n / Σw`.
fn alias_invariant(table: &AliasTable, w: &[f64]) -> bool {
    let (prob, alias) = (table.prob.to_vec(), table.alias.to_vec());
    let n = w.len() as f64;
    let total: f64 = w.iter().sum();
    let mut mass = vec![0.0f64; w.len()];
    for (i, (&p, &a)) in prob.iter().zip(&alias).enumerate() {
        mass[i] += f64::from(p);
        mass[a as usize] += 1.0 - f64::from(p);
    }
    mass.iter()
        .zip(w)
        .all(|(&m, &x)| (m - x * n / total).abs() < 1e-3 * n)
}

/// The variates the alias-sampling checks draw with.
const THETAS: [(f64, f64); 4] = [(0.0, 0.0), (0.3, 0.9), (0.61, 0.2), (0.999, 0.5)];

/// Host draws from a built table: slot `⌊a·n⌋`, kept when `b < prob`,
/// else its alias.
fn host_alias_draws(table: &AliasTable) -> Vec<u32> {
    let (prob, alias) = (table.prob.to_vec(), table.alias.to_vec());
    THETAS
        .iter()
        .map(|&(a, b)| {
            let slot = ((a * table.n as f64) as usize).min(table.n - 1);
            if b < f64::from(prob[slot]) {
                slot as u32
            } else {
                alias[slot]
            }
        })
        .collect()
}

/// Lengths of a scan through `Device`: the grid around its tile
/// dimension plus one element either side of the path's crossover.
fn scan_lengths(s: usize, path: ScanPath) -> Vec<usize> {
    let at = path.crossover_tiles() * s * s;
    let mut grid = lengths(s);
    grid.extend([at - 1, at]);
    grid
}

fn run_device(findings: &mut Findings, chip: &str, spec: &ChipSpec) {
    let case = |what: &str, n: usize| format!("Device::{what} on {chip}, n = {n}");
    let s16 = McScanConfig::for_types::<F16, F16, F16>(spec).s;
    let s8 = McScanConfig::for_types::<u8, i16, i32>(spec).s;
    let sf = McScanConfig::for_types::<f32, f32, f32>(spec).s;
    let si8 = McScanConfig::for_types::<i8, i8, i32>(spec).s;

    for n in scan_lengths(s16, ScanPath::Fp16) {
        let dev = Device::with_spec(spec.clone());
        let xs = bounded_walk(n, F16::ONE);
        findings.check(
            &case("cumsum", n),
            || reference::inclusive(&xs),
            || dev.cumsum(&dev.tensor(&xs)?).map(|r| r.y.to_vec()),
        );
    }
    for n in scan_lengths(s8, ScanPath::Int8) {
        let dev = Device::with_spec(spec.clone());
        let mask: Vec<u8> = (0..n).map(|i| u8::from(i % 7 < 3)).collect();
        findings.check(
            &case("mask_exclusive_scan", n),
            || reference::exclusive_widening::<u8, i32>(&mask),
            || {
                dev.mask_exclusive_scan(&dev.tensor(&mask)?)
                    .map(|r| r.y.to_vec())
            },
        );
    }
    for n in lengths(si8) {
        let dev = Device::with_spec(spec.clone());
        let xs: Vec<i8> = (0..n).map(|i| (i * 37 % 23) as i8 - 11).collect();
        findings.check(
            &case("reduce", n),
            || xs.iter().map(|&v| i32::from(v)).sum::<i32>(),
            || dev.reduce(&dev.tensor(&xs)?).map(|r| r.total),
        );
    }
    for n in lengths(sf) {
        let dev = Device::with_spec(spec.clone());
        let w = weights(n);
        let wf: Vec<f32> = w.iter().map(|&x| x as f32).collect();
        let mut table = None;
        findings.check(
            &case("alias_table", n),
            || true,
            || {
                let built = dev.alias_table(&dev.tensor(&wf)?)?;
                let ok = alias_invariant(&built, &w);
                table = Some(built);
                Ok(ok)
            },
        );
        if let Some(table) = table {
            findings.check(
                &case("alias_sample", n),
                || host_alias_draws(&table),
                || dev.alias_sample(&table, &THETAS).map(|(draws, _)| draws),
            );
        }
    }
    for n in lengths(s16) {
        let dev = Device::with_spec(spec.clone());
        let w = weights(n);
        let wh: Vec<F16> = w.iter().map(|&x| F16::from_f64(x)).collect();
        findings.check(
            &case("weighted_sample", n),
            || host_weighted(&w, 0.5),
            || dev.weighted_sample(&dev.tensor(&wh)?, 0.5).map(|r| r.index),
        );
    }
}

/// The `ops` free functions `alias` and `weighted` at an explicit tile
/// dimension `s`, on all of the chip's AI cores.
fn run_free_functions(findings: &mut Findings, chip: &str, spec: &ChipSpec, s: usize) {
    let case = |what: &str, n: usize| format!("ops::{what} on {chip}, s = {s}, n = {n}");
    for n in lengths(s) {
        let dev = Device::with_spec(spec.clone());
        let gm = dev.memory();
        let w = weights(n);
        let wf: Vec<f32> = w.iter().map(|&x| x as f32).collect();
        let mut table = None;
        findings.check(
            &case("build_alias_table", n),
            || true,
            || {
                let built = build_alias_table(spec, gm, &dev.tensor(&wf)?, s)?;
                let ok = alias_invariant(&built, &w);
                table = Some(built);
                Ok(ok)
            },
        );
        if let Some(table) = table {
            findings.check(
                &case("alias_sample_many", n),
                || host_alias_draws(&table),
                || alias_sample_many(spec, gm, &table, &THETAS).map(|(draws, _)| draws),
            );
        }
        let wh: Vec<F16> = w.iter().map(|&x| F16::from_f64(x)).collect();
        findings.check(
            &case("weighted_sample", n),
            || host_weighted(&w, 0.5),
            || weighted_sample(spec, gm, &dev.tensor(&wh)?, 0.5, s).map(|r| r.index),
        );
    }
}

#[test]
fn every_device_call_returns_the_reference_or_a_typed_error() {
    let mut findings = Findings::default();
    for (chip, spec) in chips() {
        run_device(&mut findings, chip, &spec);
        for s in [16, 32] {
            run_free_functions(&mut findings, chip, &spec, s);
        }
    }
    assert!(
        findings.violations.is_empty(),
        "{} contract violations:\n{}",
        findings.violations.len(),
        findings.violations.join("\n")
    );
    // Pins which inputs the calls accept: a change that makes one refuse
    // (or newly run) any of these moves the count. The 56 refusals: the
    // empty input of `alias_table`, `weighted_sample` and both free
    // functions on every chip and `s` (24; sampling from nothing has no
    // answer, while empty scans return an empty output and an empty
    // `reduce` a zero total), and on the 2 KB UB every alias-table build
    // at any `s` and the free `weighted_sample` at s = 32, whose f32 or
    // 4 KB buffers do not fit (32).
    assert_eq!(
        (findings.calls, findings.accepted),
        (412, 356),
        "(calls, calls that ran to a result)"
    );
}

/// Bitwise equality, except that any NaN matches any NaN.
fn same_f16(got: &[F16], want: &[F16]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()))
}

/// `Device::cumsum` of `xs` on the tiny chip, checked against
/// `reference::inclusive` with [`same_f16`].
fn check_cumsum(what: &str, xs: &[F16]) -> Vec<F16> {
    let dev = Device::with_spec(ChipSpec::tiny());
    let got = dev.cumsum(&dev.tensor(xs).unwrap()).unwrap().y.to_vec();
    assert!(same_f16(&got, &reference::inclusive(xs)), "{what}");
    got
}

#[test]
fn cumsum_propagates_nan_and_infinities_like_the_reference() {
    // 3,000 elements at s = 32: three tiles over the tiny chip's four
    // chunks, so each special value also crosses chunk offsets.
    let n = 3_000;
    let mut xs = bounded_walk(n, F16::ONE);
    xs[1_234] = F16::NAN;
    let got = check_cumsum("NaN", &xs);
    assert!(got[..1_234].iter().all(|v| !v.is_nan()));
    assert!(
        got[1_234..].iter().all(|v| v.is_nan()),
        "NaN reaches the end"
    );

    for inf in [F16::INFINITY, F16::NEG_INFINITY] {
        let mut xs = bounded_walk(n, F16::ONE);
        xs[700] = inf;
        let got = check_cumsum("one infinity", &xs);
        assert!(got[700..].iter().all(|v| v.to_bits() == inf.to_bits()));
    }

    // +Inf then -Inf: every prefix holding both is NaN.
    let mut xs = bounded_walk(n, F16::ONE);
    xs[500] = F16::INFINITY;
    xs[2_500] = F16::NEG_INFINITY;
    let got = check_cumsum("both infinities", &xs);
    assert!(got[500..2_500].iter().all(|v| v.is_infinite()));
    assert!(got[2_500..].iter().all(|v| v.is_nan()));
}

#[test]
fn cumsum_of_subnormals_is_exact() {
    // A ±2⁻²⁴ walk: every input and every partial sum is subnormal (or
    // zero), and all of them are multiples of the smallest subnormal, so
    // the scan is exact in any association unless a stage flushes them.
    let tiny = F16::from_bits(1);
    assert!(tiny.to_f64() > 0.0 && tiny.to_f64() < F16::MIN_POSITIVE.to_f64());
    let xs = bounded_walk(3_000, tiny);
    let got = check_cumsum("subnormals", &xs);
    assert!(got.iter().any(|v| v.to_bits() != 0));
    assert!(got
        .iter()
        .all(|v| v.abs().to_f64() < F16::MIN_POSITIVE.to_f64()));
}

#[test]
fn saturated_u8_mask_scans_exactly_on_the_910b4() {
    // Every mask byte is 255: the i16 intermediate holds row scans of up
    // to 128 · 255 = 32,640, and the i32 offsets reach 255 · 65,535.
    let dev = Device::ascend_910b4();
    let mask = vec![255u8; 65_536];
    let run = dev
        .mask_exclusive_scan(&dev.tensor(&mask).unwrap())
        .unwrap();
    let got = run.y.to_vec();
    assert_eq!(got[20_000], 5_100_000);
    assert_eq!(got, reference::exclusive_widening::<u8, i32>(&mask));
}
