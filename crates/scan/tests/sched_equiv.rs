//! Serial/parallel scheduler equivalence gate.
//!
//! The simulator ships two host scheduling disciplines
//! ([`ascend_sim::SchedPolicy`]): the cooperative serial baton and the
//! parallel-round scheduler that steps runnable blocks on worker
//! threads and commits side effects in block-index order. Both must
//! produce **byte-identical** [`ascendc::KernelReport`]s — timing,
//! traffic, stall attribution and the Full-validation critical-path
//! audit are all part of the contract, so the comparison is on the
//! serialized `report.to_json(&spec)` string, not on selected fields.
//!
//! Two layers of coverage:
//!
//! * every shipped scan kernel (ScanU, ScanUL1, MCScan, ScanC, the
//!   vector-only baseline, both batched scans, the three MCScan
//!   ablation variants and both reductions), including a ScanC
//!   shape whose look-back chain spans scheduling waves, and the
//!   exclusive ScanC mask scan, which must also replay byte-identically
//!   under every commit order the model checker finds (`Planned`);
//! * a proptest over random tiny-chip schedules — oversubscribed
//!   grids, a random number of `SyncAll` rounds, per-block work that
//!   varies by seed, and an optional cross-block grid-flag chain.
//!
//! Each launch pins its discipline through
//! [`ChipSpec::with_scheduler`] rather than the `ASCEND_SCHED`
//! environment variable, so the two runs never race on process state.

use ascend_sim::mem::GlobalMemory;
use ascend_sim::sync::GridPlan;
use ascend_sim::{mc, prof, SchedPolicy};
use ascendc::{launch, BlockCtx, ChipSpec, GlobalTensor, ScratchpadKind, SimResult};
use dtypes::F16;
use proptest::prelude::*;
use scan::{
    batched_scanu, batched_scanul1, cumsum_vec_only, mcscan, mcscan_variant, reduce_cube,
    reduce_vec, scanc, scanu, scanul1, McScanConfig, McScanVariant, ScanCConfig, ScanKind,
};
use std::sync::Arc;

/// Runs `f` once per scheduling discipline on its own fresh device and
/// returns the two serialized reports. The tiny chip's default
/// `ValidationMode::Full` stays on, so the simcheck audits and the
/// critical-path section must also agree byte for byte.
fn both_schedulers(f: impl Fn(&ChipSpec, &Arc<GlobalMemory>) -> String) -> (String, String) {
    let run = |policy: SchedPolicy| {
        let spec = ChipSpec::tiny().with_scheduler(policy);
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        f(&spec, &gm)
    };
    (run(SchedPolicy::Serial), run(SchedPolicy::Parallel))
}

fn assert_equiv(name: &str, f: impl Fn(&ChipSpec, &Arc<GlobalMemory>) -> String) {
    let (serial, parallel) = both_schedulers(f);
    assert_eq!(
        serial, parallel,
        "{name}: serial and parallel schedulers must report byte-identically"
    );
    assert!(
        serial.contains("\"critical_path\""),
        "{name}: Full validation should have audited the launch"
    );
}

fn signal(n: usize) -> Vec<i8> {
    (0..n).map(|i| ((i * 7) % 11) as i8 - 5).collect()
}

// ---------------------------------------------------------------------
// The shipped kernels.
// ---------------------------------------------------------------------

#[test]
fn scanu_reports_identically_under_both_schedulers() {
    assert_equiv("ScanU", |spec, gm| {
        let x = GlobalTensor::from_slice(gm, &signal(3000)).unwrap();
        let run = scanu::<i8, i32>(spec, gm, &x, 16).unwrap();
        run.report.to_json(spec)
    });
}

#[test]
fn scanul1_reports_identically_under_both_schedulers() {
    assert_equiv("ScanUL1", |spec, gm| {
        let x = GlobalTensor::from_slice(gm, &signal(3000)).unwrap();
        let run = scanul1::<i8, i32>(spec, gm, &x, 16).unwrap();
        run.report.to_json(spec)
    });
}

#[test]
fn mcscan_reports_identically_under_both_schedulers() {
    assert_equiv("MCScan", |spec, gm| {
        let x = GlobalTensor::from_slice(gm, &signal(3000)).unwrap();
        let cfg = McScanConfig {
            s: 16,
            blocks: 2,
            kind: ScanKind::Inclusive,
        };
        let run = mcscan::<i8, i32, i32>(spec, gm, &x, cfg).unwrap();
        run.report.to_json(spec)
    });
}

#[test]
fn scanc_chain_spanning_waves_reports_identically() {
    assert_equiv("ScanC", |spec, gm| {
        let x = GlobalTensor::from_slice(gm, &signal(3000)).unwrap();
        // tpl=1 → 12 lanes → 6 blocks on 2 AI cores: the grid
        // oversubscribes and the look-back chain spans waves, the
        // hardest case for the parallel scheduler's grid-op gating.
        let cfg = ScanCConfig {
            s: 16,
            tiles_per_lane: 1,
            lookback_window: 1,
            kind: ScanKind::Inclusive,
        };
        let run = scanc::<i8, i16, i32>(spec, gm, &x, cfg).unwrap();
        assert!(run.report.blocks > spec.ai_cores);
        run.report.to_json(spec)
    });
}

#[test]
fn scanc_multihop_window_spanning_waves_reports_identically() {
    assert_equiv("ScanC-multihop", |spec, gm| {
        let x = GlobalTensor::from_slice(gm, &signal(3000)).unwrap();
        // Same 12-lane / 6-block oversubscribed shape, but with the
        // decoupled multi-hop window: probes consume partial and
        // inclusive mailbox epochs from up to 2 predecessors, with
        // grid-flag ids cycling modulo the tiny chip's 8-id file.
        let cfg = ScanCConfig {
            s: 16,
            tiles_per_lane: 1,
            lookback_window: 2,
            kind: ScanKind::Inclusive,
        };
        let run = scanc::<i8, i16, i32>(spec, gm, &x, cfg).unwrap();
        assert!(run.report.blocks > spec.ai_cores);
        run.report.to_json(spec)
    });
}

#[test]
fn exclusive_scanc_reports_identically_under_serial_parallel_and_planned() {
    // The mask scan `Device::mask_exclusive_scan` runs at or above its
    // crossover: 1200 mask bytes → 5 lanes → 3 blocks on 2 AI cores,
    // multi-hop window 2, so the chain spans waves and the schedule
    // space holds several grid commit orders.
    let mask: Vec<u8> = (0..1200).map(|i| u8::from(i % 3 != 1)).collect();
    let run = |policy: SchedPolicy| {
        let spec = ChipSpec::tiny().with_scheduler(policy);
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        let x = GlobalTensor::from_slice(&gm, &mask).unwrap();
        let cfg = ScanCConfig {
            s: 16,
            tiles_per_lane: 1,
            lookback_window: 2,
            kind: ScanKind::Exclusive,
        };
        prof::with_profiling(&gm, || {
            let run = scanc::<u8, i16, i32>(&spec, &gm, &x, cfg).unwrap();
            assert!(run.report.blocks > spec.ai_cores);
            assert_eq!(
                run.y.to_vec(),
                scan::reference::exclusive_widening::<u8, i32>(&mask)
            );
            run.report.to_json(&spec)
        })
    };
    let (serial, _) = run(SchedPolicy::Serial);
    let (parallel, profile) = run(SchedPolicy::Parallel);
    assert_eq!(serial, parallel, "serial vs parallel");
    let r = mc::check(
        &profile.kernels[0].hb_events,
        &mc::McConfig::new(ChipSpec::tiny().ai_cores as usize),
    )
    .unwrap();
    assert!(!r.budget_exhausted && r.deadlocks == 0 && r.diagnostics.is_empty());
    assert!(
        r.unique_grid_orders.len() >= 2,
        "{:?}",
        r.unique_grid_orders
    );
    for order in &r.unique_grid_orders {
        let plan = GridPlan {
            order: order.clone(),
        };
        let (planned, _) = run(SchedPolicy::Planned(Arc::new(plan)));
        assert_eq!(planned, parallel, "planned replay of {order:?}");
    }
}

#[test]
fn cumsum_vec_only_reports_identically_under_both_schedulers() {
    assert_equiv("CumSum", |spec, gm| {
        let x = GlobalTensor::from_slice(gm, &vec![F16::ONE; 2048]).unwrap();
        let run = cumsum_vec_only::<F16>(spec, gm, &x, 16).unwrap();
        run.report.to_json(spec)
    });
}

#[test]
fn batched_scanu_reports_identically_under_both_schedulers() {
    assert_equiv("BatchedScanU", |spec, gm| {
        let (batch, len) = (8, 300);
        let x = GlobalTensor::from_slice(gm, &signal(batch * len)).unwrap();
        let run = batched_scanu::<i8, i32>(spec, gm, &x, batch, len, 16).unwrap();
        run.report.to_json(spec)
    });
}

#[test]
fn batched_scanul1_with_more_rows_than_cores_reports_identically() {
    // Five rows on the tiny chip's two AI cores: each block runs the
    // shared ScanUL1 body over several rows, cycling its flag ids
    // across row boundaries.
    assert_equiv("BatchedScanUL1", |spec, gm| {
        let (batch, len) = (5, 300);
        assert!(batch > spec.ai_cores as usize);
        let x = GlobalTensor::from_slice(gm, &signal(batch * len)).unwrap();
        let run = batched_scanul1::<i8, i32>(spec, gm, &x, batch, len, 16).unwrap();
        run.report.to_json(spec)
    });
}

#[test]
fn ablation_variants_report_identically_under_both_schedulers() {
    // Each variant pairs a SyncAll with per-tile cube→vector flags.
    for variant in [
        McScanVariant::StridedTotals,
        McScanVariant::SsaFull,
        McScanVariant::Rss,
    ] {
        assert_equiv(variant.name(), |spec, gm| {
            let x = GlobalTensor::from_slice(gm, &signal(3000)).unwrap();
            let cfg = McScanConfig {
                s: 16,
                blocks: 2,
                kind: ScanKind::Inclusive,
            };
            let run = mcscan_variant::<i8, i16, i32>(spec, gm, &x, cfg, variant).unwrap();
            run.report.to_json(spec)
        });
    }
}

#[test]
fn reductions_report_identically_under_both_schedulers() {
    assert_equiv("ReduceCube", |spec, gm| {
        let x = GlobalTensor::from_slice(gm, &signal(3000)).unwrap();
        let run = reduce_cube::<i8>(spec, gm, &x, 16).unwrap();
        run.report.to_json(spec)
    });
    assert_equiv("ReduceVec", |spec, gm| {
        let x = GlobalTensor::from_slice(gm, &signal(3000)).unwrap();
        let run = reduce_vec::<i8>(spec, gm, &x).unwrap();
        run.report.to_json(spec)
    });
}

// ---------------------------------------------------------------------
// Random tiny-chip schedules.
// ---------------------------------------------------------------------

/// Launches a synthetic kernel whose schedule shape is controlled by
/// the arguments and returns the serialized report. Per block the
/// kernel does seed-dependent vector work, passes `rounds` `SyncAll`
/// barriers with more uneven work between them, and (when `chain` is
/// set) threads a grid-flag look-back chain through every block — the
/// same shape ScanC uses, including across waves once `blocks`
/// exceeds the tiny chip's two physical cores.
fn run_random_schedule(
    policy: SchedPolicy,
    blocks: usize,
    rounds: usize,
    seed: u64,
    chain: bool,
) -> String {
    let spec = ChipSpec::tiny().with_scheduler(policy);
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    let lane = 64usize;
    let data: Vec<i32> = (0..blocks * lane)
        .map(|i| (i as i32 * 3) % 17 - 8)
        .collect();
    let x = GlobalTensor::from_slice(&gm, &data).unwrap();
    let y = GlobalTensor::<i32>::new(&gm, blocks * lane).unwrap();
    let report = launch(&spec, &gm, blocks as u32, "rand-sched", |ctx| {
        random_schedule_block(ctx, &x, &y, lane, rounds, seed, chain)
    })
    .expect("synthetic schedule must launch cleanly under Full validation");
    report.to_json(&spec)
}

fn random_schedule_block(
    ctx: &mut BlockCtx<'_>,
    x: &GlobalTensor<i32>,
    y: &GlobalTensor<i32>,
    lane: usize,
    rounds: usize,
    seed: u64,
    chain: bool,
) -> SimResult<()> {
    let b = ctx.block_idx as usize;
    let blocks = ctx.block_dim as usize;
    let flag_ids = ctx.spec().flag_id_limit;
    let grid = ctx.grid();

    // Seed-dependent work before anything synchronizes: blocks reach
    // their first sync edge at different simulated times.
    let v = &mut ctx.vecs[0];
    let mut buf = v.alloc_local::<i32>(ScratchpadKind::Ub, lane)?;
    let loaded = v.copy_in(&mut buf, 0, x, b * lane, lane, &[])?;
    let reps = 1 + ((seed >> (8 * (b % 8))) & 3) as usize;
    let mut done = loaded;
    for r in 0..reps {
        done = v.vadds(&mut buf, 0, lane, 1 + r as i32, done)?;
    }

    // Publish this block's link of the look-back chain before the
    // barriers; successors consume it after theirs, so the set always
    // precedes the (backward) wait in baton order.
    if chain && b + 1 < blocks {
        v.set_grid_flag(grid, (b % flag_ids as usize) as u32, &[done])?;
    }

    // Uneven inter-barrier work: each round re-sorts which block is
    // slowest, so barrier arrival order differs round to round.
    for round in 0..rounds {
        ctx.sync_all()?;
        let v = &mut ctx.vecs[0];
        let extra = 1 + ((seed >> ((b + round) % 32)) & 7) as usize;
        for _ in 0..extra {
            done = v.vadds(&mut buf, 0, lane, 1, done)?;
        }
    }

    // Consume the predecessor's link (backward look-back only, as on
    // hardware), then retire this block's output slice.
    let v = &mut ctx.vecs[0];
    if chain && b > 0 {
        let seen = v.wait_grid_flag(grid, ((b - 1) % flag_ids as usize) as u32)?;
        done = done.max(seen);
    }
    v.copy_out(y, b * lane, &buf, 0, lane, &[done])?;
    v.free_local(buf)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_schedules_report_identically(
        blocks in 1usize..=5,
        rounds in 0usize..=3,
        seed in any::<u64>(),
        chain in any::<bool>(),
    ) {
        let serial = run_random_schedule(SchedPolicy::Serial, blocks, rounds, seed, chain);
        let parallel = run_random_schedule(SchedPolicy::Parallel, blocks, rounds, seed, chain);
        prop_assert_eq!(
            serial,
            parallel,
            "blocks={} rounds={} seed={:#x} chain={}",
            blocks,
            rounds,
            seed,
            chain
        );
    }
}
