//! Robustness of every public entry point of the `scan` crate.
//!
//! On hostile lengths (empty, one element, one row or one tile ± 1, a
//! few tiles plus a ragged tail), unsupported tile sizes and odd chips
//! (one AI core, one vector core per AI core, a 1 KB UB, a flag file of
//! 0–2 ids), each call must return either the exact reference result or
//! a typed [`SimError`] — never a panic. This pins which inputs each
//! kernel accepts.

use ascend_sim::mem::GlobalMemory;
use ascendc::{ChipSpec, GlobalTensor, SimError, SimResult};
use scan::reference::{exclusive_widening, inclusive, inclusive_widening};
use scan::{
    batched_scanu, batched_scanul1, cumsum_vec_only, mcscan, mcscan_variant, reduce_cube,
    reduce_vec, scanc, scanu, scanul1, McScanConfig, McScanVariant, ScanCConfig, ScanKind,
};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The tiny chip and its hostile variants.
fn chips() -> Vec<(&'static str, ChipSpec)> {
    let tiny = ChipSpec::tiny();
    let with = |f: fn(&mut ChipSpec)| {
        let mut spec = tiny.clone();
        f(&mut spec);
        spec
    };
    vec![
        ("tiny", tiny.clone()),
        ("1 AI core", with(|c| c.ai_cores = 1)),
        ("1 vector core", with(|c| c.vec_per_core = 1)),
        ("0 vector cores", with(|c| c.vec_per_core = 0)),
        ("1 KB UB", with(|c| c.ub_capacity = 1 << 10)),
        ("0 flag ids", with(|c| c.flag_id_limit = 0)),
        ("1 flag id", with(|c| c.flag_id_limit = 1)),
        ("2 flag ids", with(|c| c.flag_id_limit = 2)),
    ]
}

/// Lengths around the row (`s`) and tile (`ℓ = s²`) boundaries.
fn lengths(s: usize) -> Vec<usize> {
    let l = s * s;
    let mut ns = vec![
        0,
        1,
        s.saturating_sub(1),
        s,
        s + 1,
        l.saturating_sub(1),
        l,
        l + 1,
        3 * l + 7,
    ];
    ns.sort_unstable();
    ns.dedup();
    ns
}

/// The batch shape a length is split into: three or two rows where it
/// divides, one otherwise.
fn batch_shape(n: usize) -> (usize, usize) {
    let batch = [3, 2]
        .into_iter()
        .find(|&b| n > 0 && n.is_multiple_of(b))
        .unwrap_or(1);
    (batch, n / batch)
}

fn rowwise(data: &[i8], batch: usize, len: usize) -> Vec<i32> {
    (0..batch)
        .flat_map(|b| inclusive_widening::<i8, i32>(&data[b * len..(b + 1) * len]))
        .collect()
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

fn run_entry_points(findings: &mut Findings, chip: &str, spec: &ChipSpec, s: usize, n: usize) {
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    let signal: Vec<i8> = (0..n).map(|i| ((i * 7) % 3) as i8 - 1).collect();
    let mask: Vec<u8> = (0..n).map(|i| u8::from(i % 3 != 1)).collect();
    let wide: Vec<i32> = signal.iter().map(|&v| i32::from(v)).collect();
    let xs = GlobalTensor::from_slice(&gm, &signal).unwrap();
    let xm = GlobalTensor::from_slice(&gm, &mask).unwrap();
    let xw = GlobalTensor::from_slice(&gm, &wide).unwrap();
    let incl = || inclusive_widening::<i8, i32>(&signal);
    let case = |what: &str| format!("{what} on {chip}, s = {s}, n = {n}");
    let mc = McScanConfig {
        s,
        blocks: spec.ai_cores,
        kind: ScanKind::Inclusive,
    };
    let (batch, len) = batch_shape(n);

    findings.check(&case("scanu"), incl, || {
        scanu::<i8, i32>(spec, &gm, &xs, s).map(|r| r.y.to_vec())
    });
    findings.check(&case("scanul1"), incl, || {
        scanul1::<i8, i32>(spec, &gm, &xs, s).map(|r| r.y.to_vec())
    });
    findings.check(&case("mcscan inclusive"), incl, || {
        mcscan::<i8, i32, i32>(spec, &gm, &xs, mc).map(|r| r.y.to_vec())
    });
    let excl = McScanConfig {
        kind: ScanKind::Exclusive,
        ..mc
    };
    findings.check(
        &case("mcscan exclusive"),
        || exclusive_widening::<u8, i32>(&mask),
        || mcscan::<u8, i16, i32>(spec, &gm, &xm, excl).map(|r| r.y.to_vec()),
    );
    for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
        let cfg = ScanCConfig {
            s,
            kind,
            ..ScanCConfig::for_chip::<u8, i16, i32>(spec)
        };
        let expect = || match kind {
            ScanKind::Inclusive => inclusive_widening::<u8, i32>(&mask),
            ScanKind::Exclusive => exclusive_widening::<u8, i32>(&mask),
        };
        findings.check(&case(&format!("scanc {kind:?}")), expect, || {
            scanc::<u8, i16, i32>(spec, &gm, &xm, cfg).map(|r| r.y.to_vec())
        });
    }
    for variant in McScanVariant::ALL {
        findings.check(&case(variant.name()), incl, || {
            mcscan_variant::<i8, i32, i32>(spec, &gm, &xs, mc, variant).map(|r| r.y.to_vec())
        });
    }
    let rows = || rowwise(&signal, batch, len);
    let shape = format!("batch {batch} x {len}");
    findings.check(&case(&format!("batched_scanu {shape}")), rows, || {
        batched_scanu::<i8, i32>(spec, &gm, &xs, batch, len, s).map(|r| r.y.to_vec())
    });
    findings.check(&case(&format!("batched_scanul1 {shape}")), rows, || {
        batched_scanul1::<i8, i32>(spec, &gm, &xs, batch, len, s).map(|r| r.y.to_vec())
    });
    let total: i32 = wide.iter().sum();
    findings.check(
        &case("reduce_cube"),
        || total,
        || reduce_cube::<i8>(spec, &gm, &xs, s).map(|r| r.total),
    );
    let ones: i32 = mask.iter().map(|&m| i32::from(m)).sum();
    findings.check(
        &case("reduce_vec"),
        || ones,
        || reduce_vec::<u8>(spec, &gm, &xm).map(|r| r.total),
    );
    findings.check(
        &case("cumsum_vec_only"),
        || inclusive(&wide),
        || cumsum_vec_only::<i32>(spec, &gm, &xw, s).map(|r| r.y.to_vec()),
    );
}

#[test]
fn every_entry_point_returns_the_reference_or_a_typed_error() {
    let mut findings = Findings::default();
    for (chip, spec) in chips() {
        for s in [0, 8, 16, 32] {
            for n in lengths(s) {
                run_entry_points(&mut findings, chip, &spec, s, n);
            }
        }
    }
    assert!(
        findings.violations.is_empty(),
        "{} contract violations:\n{}",
        findings.violations.len(),
        findings.violations.join("\n")
    );
    // Pins which inputs the kernels accept: a change that makes a
    // kernel refuse (or newly run) any of these calls moves the count.
    // An empty reduction sums to zero, as an empty scan returns an empty
    // output: all 28 empty `reduce_vec` calls on a chip with vector
    // cores run, and the 12 empty `reduce_cube` calls at a valid `s` on
    // a chip with room for its hand-offs (all but the one with no flag
    // ids). A chip without vector cores runs nothing (450 calls).
    assert_eq!(
        (findings.calls, findings.accepted),
        (3600, 1563),
        "(calls, calls that ran to a result)"
    );
}

type Kernel = Box<dyn Fn(&ChipSpec, &Arc<GlobalMemory>, &GlobalTensor<i8>) -> SimResult<()>>;

fn kernel(
    f: impl Fn(&ChipSpec, &Arc<GlobalMemory>, &GlobalTensor<i8>) -> SimResult<()> + 'static,
) -> Kernel {
    Box::new(f)
}

#[test]
fn kernels_reject_a_flag_file_too_small_for_their_hand_offs() {
    // Every kernel with per-tile cube→vector hand-offs needs at least
    // one flag id per consumer lane; batched ScanU splits the file
    // between the two vector cores of an AI core, so it needs two.
    let mut cases: Vec<(&str, u32, Kernel)> = vec![
        (
            "scanu",
            0,
            kernel(|spec, gm, x| scanu::<i8, i32>(spec, gm, x, 16).map(drop)),
        ),
        (
            "scanul1",
            0,
            kernel(|spec, gm, x| scanul1::<i8, i32>(spec, gm, x, 16).map(drop)),
        ),
        (
            "batched_scanul1",
            0,
            kernel(|spec, gm, x| batched_scanul1::<i8, i32>(spec, gm, x, 2, 300, 16).map(drop)),
        ),
        (
            "batched_scanu",
            1,
            kernel(|spec, gm, x| batched_scanu::<i8, i32>(spec, gm, x, 2, 300, 16).map(drop)),
        ),
        (
            "reduce_cube",
            0,
            kernel(|spec, gm, x| reduce_cube::<i8>(spec, gm, x, 16).map(drop)),
        ),
    ];
    let mc = McScanConfig {
        s: 16,
        blocks: 2,
        kind: ScanKind::Inclusive,
    };
    for v in [
        McScanVariant::StridedTotals,
        McScanVariant::SsaFull,
        McScanVariant::Rss,
    ] {
        cases.push((
            v.name(),
            0,
            kernel(move |spec, gm, x| mcscan_variant::<i8, i32, i32>(spec, gm, x, mc, v).map(drop)),
        ));
    }
    for (name, limit, run) in cases {
        let spec = ChipSpec {
            flag_id_limit: limit,
            ..ChipSpec::tiny()
        };
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        let x = GlobalTensor::from_slice(&gm, &[1i8; 600]).unwrap();
        let err = run(&spec, &gm, &x).expect_err("a too-small flag file must be refused");
        assert!(
            matches!(err, SimError::InvalidArgument(_)),
            "{name} at flag_id_limit {limit}: {err:?}"
        );
    }
}

#[test]
fn tile_spans_refuses_a_zero_tile() {
    // The one piece list of the workspace is public: a zero tile, which
    // cannot cover anything, is a typed error rather than a panic.
    for n in [0, 1, 5] {
        let got = catch_unwind(|| scan::tile_spans(n, 0));
        assert!(
            matches!(got, Ok(Err(SimError::InvalidArgument(_)))),
            "n = {n}: {got:?}"
        );
    }
    assert_eq!(scan::tile_spans(5, 2).unwrap(), [(0, 2), (2, 2), (4, 1)]);
}
