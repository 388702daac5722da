//! Seeded-bug corpus for the `simlint` happens-before analyzer.
//!
//! Each test plants one schedule bug in a deliberately broken kernel and
//! proves the corresponding diagnostic class fires:
//!
//! * **gm-race** (Error) — a cross-core hand-off with no flag edge, both
//!   offline (Cheap validation + profiling, then [`hb::analyze`]) and
//!   in-process (Full validation fails the launch);
//! * **flag-reuse** (Error) — one flag id aliasing hand-offs across two
//!   `SyncAll` rounds;
//! * **flag-leak / queue-unbalanced / queue-leak / alloc-leak /
//!   dead-transfer** (Warnings) — hygiene lints that do *not* abort a
//!   Full-validation launch but fail the `simlint` CLI.
//!
//! The final test is the clean-suite gate: every shipped scan kernel runs
//! under profiling and must produce zero diagnostics.

use ascend_sim::mem::GlobalMemory;
use ascend_sim::{hb, prof, Severity, ValidationMode};
use ascendc::{launch, ChipSpec, GlobalTensor, ScratchpadKind, SimError, SimResult, TQue};
use scan::{
    batched_scanu, batched_scanul1, cumsum_vec_only, mcscan, mcscan_variant, reduce_cube,
    reduce_vec, scanc, scanu, scanul1, McScanConfig, McScanVariant, ScanCConfig, ScanKind,
};
use std::sync::Arc;

fn setup(validation: ValidationMode) -> (ChipSpec, Arc<GlobalMemory>) {
    let spec = ChipSpec::tiny().with_validation(validation);
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    (spec, gm)
}

/// Runs `kernel` under profiling and returns the analyzer's findings for
/// the single launch it performs.
fn lint_one(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    name: &'static str,
    kernel: impl Fn(&mut ascendc::BlockCtx<'_>) -> SimResult<()> + Sync,
) -> Vec<hb::Diagnostic> {
    let (result, profile) = prof::with_profiling(gm, || launch(spec, gm, 1, name, &kernel));
    result.expect("seeded kernel should launch cleanly under this validation mode");
    assert_eq!(profile.kernels.len(), 1, "exactly one launch profiled");
    hb::analyze(&profile.kernels[0].hb_events)
}

fn has(diags: &[hb::Diagnostic], code: &str, severity: Severity) -> bool {
    diags
        .iter()
        .any(|d| d.code == code && d.severity == severity)
}

// ---------------------------------------------------------------------
// Seed 1: missing wait — a cube → vector hand-off with only a raw timing
// dependency. The schedule orders nothing; the analyzer must call it a
// GM race.
// ---------------------------------------------------------------------

fn missing_wait_kernel(
    shared: &GlobalTensor<i32>,
) -> impl Fn(&mut ascendc::BlockCtx<'_>) -> SimResult<()> + Sync + '_ {
    |ctx: &mut ascendc::BlockCtx<'_>| {
        let cube = &mut ctx.cube;
        let mut l1 = cube.alloc_local::<i32>(ScratchpadKind::L1, 64)?;
        let produced = cube.fill_local(&mut l1, 0, 64, 7)?;
        // Raw timing dep, no CrossCoreSetFlag: replay is timing-safe,
        // the schedule is not.
        let stored = cube.copy_out(shared, 0, &l1, 0, 64, &[produced])?;
        let v = &mut ctx.vecs[0];
        let mut buf = v.alloc_local::<i32>(ScratchpadKind::Ub, 64)?;
        v.copy_in(&mut buf, 0, shared, 0, 64, &[stored])?;
        cube.free_local(l1)?;
        v.free_local(buf)?;
        Ok(())
    }
}

#[test]
fn seeded_missing_wait_is_a_gm_race_offline() {
    // Cheap validation records the happens-before stream (profiling is
    // on) but runs no audits: the launch succeeds and the race is found
    // after the fact from the trace — the `simlint` CLI path.
    let (spec, gm) = setup(ValidationMode::Cheap);
    let shared = GlobalTensor::<i32>::new(&gm, 64).unwrap();
    let diags = lint_one(
        &spec,
        &gm,
        "seed-missing-wait",
        missing_wait_kernel(&shared),
    );
    assert!(
        has(&diags, "gm-race", Severity::Error),
        "expected a gm-race error, got {diags:?}"
    );
}

#[test]
fn seeded_missing_wait_fails_a_full_validation_launch() {
    let (spec, gm) = setup(ValidationMode::Full);
    let shared = GlobalTensor::<i32>::new(&gm, 64).unwrap();
    let kernel = missing_wait_kernel(&shared);
    let err = launch(&spec, &gm, 1, "seed-missing-wait", kernel).unwrap_err();
    match err {
        SimError::ScheduleHazard { what, detail } => {
            assert_eq!(what, "gm-race");
            assert!(detail.contains("copy_out"), "names the write: {detail}");
        }
        other => panic!("expected a gm-race ScheduleHazard, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Seed 2: flag reuse across barrier rounds — the round-0 hand-off on
// flag 0 is still pending (its wait is concurrent with the round-1 set),
// so one physical register aliases two rounds' hand-offs.
// ---------------------------------------------------------------------

#[test]
fn seeded_flag_reuse_across_rounds_is_an_error() {
    let (spec, gm) = setup(ValidationMode::Cheap);
    let diags = lint_one(&spec, &gm, "seed-flag-reuse", |ctx| {
        {
            let flags = &ctx.flags;
            ctx.cube.set_flag(flags, 0, &[])?;
        }
        ctx.sync_all()?;
        {
            let flags = &ctx.flags;
            ctx.cube.set_flag(flags, 0, &[])?;
        }
        // Both waits land after the barrier on the vector core: the
        // round-0 set's consumption does not happen-before the round-1
        // set, so the id was reused while still pending.
        let flags = &ctx.flags;
        let v = &mut ctx.vecs[0];
        v.wait_flag(flags, 0)?;
        v.wait_flag(flags, 0)?;
        Ok(())
    });
    assert!(
        has(&diags, "flag-reuse", Severity::Error),
        "expected a flag-reuse error, got {diags:?}"
    );
}

// ---------------------------------------------------------------------
// Non-seed: grid-flag epoch cycling within one round is NOT reuse.
// ScanC's decoupled look-back publishes two epochs on one physical grid
// flag id from a single lane — first the partial (p-edge), later the
// inclusive (q-edge) — with no barrier in between; consumers pair the
// sets FIFO. The analyzer's grid `flag-reuse` lint is scoped to
// *cross-barrier-round* aliasing, so this in-round upgrade pattern must
// come back completely clean.
// ---------------------------------------------------------------------

#[test]
fn grid_flag_partial_then_inclusive_epochs_are_not_flag_reuse() {
    let (spec, gm) = setup(ValidationMode::Full);
    let (result, profile) = prof::with_profiling(&gm, || {
        launch(&spec, &gm, 2, "grid-epoch-upgrade", |ctx| {
            let grid = ctx.grid();
            let v = &mut ctx.vecs[0];
            if ctx.block_idx == 0 {
                // Partial epoch, then the inclusive upgrade on the SAME
                // physical id — exactly what multi-hop ScanC does when
                // a lane's p-edge and q-edge ids collide mod the flag
                // file size.
                v.set_grid_flag(grid, 0, &[])?;
                v.set_grid_flag(grid, 0, &[])?;
            } else {
                // The successor consumes both epochs in FIFO order.
                v.wait_grid_flag(grid, 0)?;
                v.wait_grid_flag(grid, 0)?;
            }
            Ok(())
        })
    });
    result.expect("epoch-cycled grid hand-off launches cleanly under Full validation");
    assert_eq!(profile.kernels.len(), 1, "one launch profiled");
    let diags = hb::analyze(&profile.kernels[0].hb_events);
    assert!(
        diags.is_empty(),
        "same-round partial→inclusive epoch cycling must not be misflagged \
         (flag-reuse is a cross-barrier-round lint), got {diags:?}"
    );
}

// ---------------------------------------------------------------------
// Seed 3: flag leak — a set nobody consumes. A hygiene warning: the
// Full-validation launch still succeeds, but `simlint` reports it.
// ---------------------------------------------------------------------

#[test]
fn seeded_unconsumed_flag_lints_but_passes_full_validation() {
    let (spec, gm) = setup(ValidationMode::Full);
    let diags = lint_one(&spec, &gm, "seed-flag-leak", |ctx| {
        let flags = &ctx.flags;
        ctx.cube.set_flag(flags, 3, &[])?;
        Ok(())
    });
    assert!(
        has(&diags, "flag-leak", Severity::Warning),
        "expected a flag-leak warning, got {diags:?}"
    );
    assert!(
        diags.iter().all(|d| d.severity == Severity::Warning),
        "a leaked flag is hygiene, not a hard error: {diags:?}"
    );
}

// ---------------------------------------------------------------------
// Seed 3b: unused flag — an id that is *set* but never waited anywhere
// in the launch. Distinct from flag-leak (a pending set on an id that
// does have waiters): unused-flag means the protocol edge was never
// wired up at all, usually a refactoring leftover.
// ---------------------------------------------------------------------

#[test]
fn seeded_never_waited_flag_is_unused_not_just_leaked() {
    let (spec, gm) = setup(ValidationMode::Full);
    let diags = lint_one(&spec, &gm, "seed-unused-flag", |ctx| {
        let flags = &ctx.flags;
        ctx.cube.set_flag(flags, 5, &[])?;
        Ok(())
    });
    assert!(
        has(&diags, "unused-flag", Severity::Warning),
        "expected an unused-flag warning, got {diags:?}"
    );
    assert!(
        has(&diags, "flag-leak", Severity::Warning),
        "a never-waited set is also still pending, got {diags:?}"
    );
}

#[test]
fn seeded_partially_consumed_flag_leaks_but_is_not_unused() {
    // Two sets, one wait: the id *is* waited somewhere, so the stricter
    // unused-flag class must stay quiet while flag-leak still fires for
    // the pending second set.
    let (spec, gm) = setup(ValidationMode::Full);
    let diags = lint_one(&spec, &gm, "seed-half-consumed-flag", |ctx| {
        {
            let flags = &ctx.flags;
            ctx.cube.set_flag(flags, 2, &[])?;
            ctx.cube.set_flag(flags, 2, &[])?;
        }
        let flags = &ctx.flags;
        let v = &mut ctx.vecs[0];
        v.wait_flag(flags, 2)?;
        Ok(())
    });
    assert!(
        has(&diags, "flag-leak", Severity::Warning),
        "expected a flag-leak warning for the pending set, got {diags:?}"
    );
    assert!(
        !diags.iter().any(|d| d.code == "unused-flag"),
        "id 2 is waited, so it is not unused: {diags:?}"
    );
}

// ---------------------------------------------------------------------
// Seed 4: queue protocol rot — an enque with no matching deque, a queue
// never destroyed, and scratchpad allocations never freed.
// ---------------------------------------------------------------------

#[test]
fn seeded_queue_imbalance_and_leaks_lint() {
    let (spec, gm) = setup(ValidationMode::Full);
    let diags = lint_one(&spec, &gm, "seed-queue-rot", |ctx| {
        let cube = &mut ctx.cube;
        let mut q = TQue::<i8>::new(cube, ScratchpadKind::L0A, 2, 64)?;
        let t = q.alloc_tensor()?;
        q.enque(t)?;
        // No deque, no destroy: the queue's pool buffers leak too.
        let _leaked = cube.alloc_local::<i8>(ScratchpadKind::L1, 64)?;
        Ok(())
    });
    for code in ["queue-unbalanced", "queue-leak", "alloc-leak"] {
        assert!(
            has(&diags, code, Severity::Warning),
            "expected a {code} warning, got {diags:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Seed 5: dead transfer — the cube's GM write is buried by the vector
// core's (flag-ordered) overwrite before anything could read it.
// ---------------------------------------------------------------------

#[test]
fn seeded_buried_write_lints_dead_transfer() {
    let (spec, gm) = setup(ValidationMode::Full);
    let y = GlobalTensor::<i32>::new(&gm, 64).unwrap();
    let diags = lint_one(&spec, &gm, "seed-dead-transfer", |ctx| {
        let flags = &ctx.flags;
        let cube = &mut ctx.cube;
        let mut l1 = cube.alloc_local::<i32>(ScratchpadKind::L1, 64)?;
        let produced = cube.fill_local(&mut l1, 0, 64, 7)?;
        let stored = cube.copy_out(&y, 0, &l1, 0, 64, &[produced])?;
        cube.free_local(l1)?;
        cube.set_flag(flags, 0, &[stored])?;
        let v = &mut ctx.vecs[0];
        let ready = v.wait_flag(flags, 0)?;
        let mut buf = v.alloc_local::<i32>(ScratchpadKind::Ub, 64)?;
        let filled = v.fill_local(&mut buf, 0, 64, 9)?;
        // Properly ordered overwrite of the whole range: no race, but
        // the cube's transfer was pure waste.
        v.copy_out(&y, 0, &buf, 0, 64, &[ready, filled])?;
        v.free_local(buf)?;
        Ok(())
    });
    assert!(
        has(&diags, "dead-transfer", Severity::Warning),
        "expected a dead-transfer warning, got {diags:?}"
    );
}

// ---------------------------------------------------------------------
// Clean-suite gate: every shipped scan kernel, profiled and analyzed,
// must come back with zero diagnostics — no races, no coverage gaps, no
// leaks. CI additionally enforces this over the `trace` binary's output
// via the `simlint` CLI.
// ---------------------------------------------------------------------

#[test]
fn shipped_scan_kernels_lint_clean() {
    let (spec, gm) = setup(ValidationMode::Full);
    let data: Vec<i8> = (0..1500).map(|i| ((i * 7) % 9) as i8 - 4).collect();
    let x = GlobalTensor::from_slice(&gm, &data).unwrap();
    let mask: Vec<u8> = (0..500).map(|i| (i % 3 == 0) as u8).collect();
    let xm = GlobalTensor::from_slice(&gm, &mask).unwrap();
    let mask_long: Vec<u8> = (0..1500).map(|i| (i % 3 == 0) as u8).collect();
    let xm_long = GlobalTensor::from_slice(&gm, &mask_long).unwrap();
    let wide: Vec<i32> = (0..500).map(|i| (i % 11) - 5).collect();
    let xw = GlobalTensor::from_slice(&gm, &wide).unwrap();

    let cfg = McScanConfig {
        s: 16,
        blocks: 2,
        kind: ScanKind::Inclusive,
    };
    let (results, profile) = prof::with_profiling(&gm, || {
        let mut runs: Vec<(&'static str, SimResult<()>)> = Vec::new();
        runs.push(("scanu", scanu::<i8, i32>(&spec, &gm, &x, 16).map(|_| ())));
        runs.push((
            "scanul1",
            scanul1::<i8, i32>(&spec, &gm, &x, 16).map(|_| ()),
        ));
        runs.push((
            "mcscan",
            mcscan::<i8, i32, i32>(&spec, &gm, &x, cfg).map(|_| ()),
        ));
        // ScanC's grid-flag look-back, both within the chip's core
        // budget (tpl=2 → 3 blocks) and oversubscribed (tpl=1 → 6
        // blocks on 2 cores), and for both the chained protocol (w=1)
        // and the decoupled multi-hop window (w=2, the tiny chip's
        // maximum): partial/inclusive mailbox epochs cycling grid-flag
        // ids must be race-free in every schedule.
        for (tiles_per_lane, lookback_window) in [(2usize, 1usize), (2, 2), (1, 1), (1, 2)] {
            runs.push((
                "scanc",
                scanc::<i8, i16, i32>(
                    &spec,
                    &gm,
                    &x,
                    ScanCConfig {
                        s: 16,
                        tiles_per_lane,
                        lookback_window,
                        kind: ScanKind::Inclusive,
                    },
                )
                .map(|_| ()),
            ));
        }
        // The exclusive mask scan `Device::mask_exclusive_scan` runs
        // at or above its crossover: per-tile boundary stores next to the
        // shifted tile stores, in the same four lane/window shapes.
        for (tiles_per_lane, lookback_window) in [(2usize, 1usize), (2, 2), (1, 1), (1, 2)] {
            runs.push((
                "scanc-excl",
                scanc::<u8, i16, i32>(
                    &spec,
                    &gm,
                    &xm_long,
                    ScanCConfig {
                        s: 16,
                        tiles_per_lane,
                        lookback_window,
                        kind: ScanKind::Exclusive,
                    },
                )
                .map(|_| ()),
            ));
        }
        for variant in McScanVariant::ALL {
            runs.push((
                "mcscan_variant",
                mcscan_variant::<i8, i32, i32>(&spec, &gm, &x, cfg, variant).map(|_| ()),
            ));
        }
        runs.push((
            "cumsum_vec_only",
            cumsum_vec_only::<i32>(&spec, &gm, &xw, 16).map(|_| ()),
        ));
        runs.push((
            "batched_scanu",
            batched_scanu::<i8, i32>(&spec, &gm, &x, 5, 300, 16).map(|_| ()),
        ));
        runs.push((
            "batched_scanul1",
            batched_scanul1::<i8, i32>(&spec, &gm, &x, 5, 300, 16).map(|_| ()),
        ));
        runs.push((
            "reduce_cube",
            reduce_cube::<i8>(&spec, &gm, &x, 16).map(|_| ()),
        ));
        runs.push(("reduce_vec", reduce_vec::<u8>(&spec, &gm, &xm).map(|_| ())));
        runs
    });
    for (name, r) in &results {
        assert!(r.is_ok(), "{name} failed to launch: {r:?}");
    }
    assert_eq!(
        profile.kernels.len(),
        results.len(),
        "one profile per launch"
    );
    // Analyze each launch separately: concatenating unrelated launches
    // would make their blocks look concurrent.
    for k in &profile.kernels {
        let diags = hb::analyze(&k.hb_events);
        assert!(
            diags.is_empty(),
            "{} must lint clean ({} hb events), got {diags:?}",
            k.name,
            k.hb_events.len()
        );
    }
}

// ---------------------------------------------------------------------
// Oversubscribed wave-multiplexed schedules, analyzed directly: a
// 3-core chip runs a 6-block ScanC in two waves, so the look-back
// chain's grid flags cross a wave hand-off. The analyzer must find the
// resulting schedule ordered and leak-free from the raw trace alone —
// not only via the `sched_equiv` report comparison.
// ---------------------------------------------------------------------

#[test]
fn oversubscribed_scanc_waves_analyze_clean_directly() {
    let mut spec = ChipSpec::tiny().with_validation(ValidationMode::Full);
    spec.ai_cores = 3;
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    let data: Vec<i8> = (0..3000).map(|i| ((i * 7) % 11) as i8 - 5).collect();
    let x = GlobalTensor::from_slice(&gm, &data).unwrap();
    let cfg = ScanCConfig {
        s: 16,
        tiles_per_lane: 1,
        // Multi-hop window: wave-2 blocks probe partial *and* inclusive
        // mailbox epochs from two predecessors each.
        lookback_window: 2,
        kind: ScanKind::Inclusive,
    };
    let (run, profile) = prof::with_profiling(&gm, || scanc::<i8, i16, i32>(&spec, &gm, &x, cfg));
    let run = run.expect("oversubscribed ScanC launches cleanly");
    assert!(
        run.report.blocks > spec.ai_cores,
        "the grid must oversubscribe the chip ({} blocks on {} cores)",
        run.report.blocks,
        spec.ai_cores
    );
    assert_eq!(profile.kernels.len(), 1, "one launch profiled");
    let k = &profile.kernels[0];
    let diags = hb::analyze(&k.hb_events);
    assert!(
        diags.is_empty(),
        "wave-multiplexed ScanC must analyze clean ({} hb events across {} blocks), got {diags:?}",
        k.hb_events.len(),
        run.report.blocks
    );
    // The trace really crosses waves: grid-flag events from a block of
    // wave 2 (index >= ai_cores) must be present.
    use ascend_sim::HbAction;
    assert!(
        k.hb_events.iter().any(|e| e.block >= spec.ai_cores
            && matches!(
                e.action,
                HbAction::GridFlagSet { .. } | HbAction::GridFlagWait { .. }
            )),
        "expected grid-flag traffic from wave-2 blocks"
    );
}
