//! Seeded-bug corpus for the `ascend_sim::mc` schedule-space model
//! checker — the cases that per-trace analysis and sampled scheduler
//! equivalence provably miss:
//!
//! * a **wave-gating deadlock**: a forward grid-flag wait whose recorded
//!   trace is hb-clean, yet on a 1-slot chip the schedule space contains
//!   a deadlock (the setter can never run until the waiter finishes);
//! * a **schedule-dependent report**: two same-id grid sets racing for
//!   one wait. Serial and parallel schedulers both commit in block-index
//!   order — `sched_equiv` passes — but the checker enumerates a commit
//!   order whose planned replay produces a byte-different
//!   `KernelReport`;
//! * a **planned-canonical replay** of the wave-spanning ScanC chain,
//!   proving the model's commit orders are faithful to the simulator;
//! * a proptest that the DPOR reduction (persistent + sleep sets) is
//!   sound: for random sync skeletons it finds exactly the same grid
//!   commit orders and diagnostic classes as unreduced enumeration.

use ascend_sim::mem::GlobalMemory;
use ascend_sim::sync::GridPlan;
use ascend_sim::{hb, mc, prof, HbAction, HbEvent, SchedPolicy, ValidationMode};
use ascendc::{launch, BlockCtx, ChipSpec, GlobalTensor, ScratchpadKind, SimResult};
use proptest::prelude::*;
use scan::{scanc, ScanCConfig, ScanKind};
use std::collections::BTreeSet;
use std::sync::Arc;

fn ev(block: u32, core: u32, action: HbAction) -> HbEvent {
    HbEvent {
        block,
        core,
        time: 0,
        what: "corpus",
        action,
    }
}

// ---------------------------------------------------------------------
// Seed 1: wave-gating deadlock. The recorded two-slot trace is clean —
// hb sees a properly paired set → wait edge — but block 0's wait can
// only ever be satisfied if block 1 runs concurrently. Time-shared on
// one physical slot, block 1 is gated behind block 0 forever.
// ---------------------------------------------------------------------

#[test]
fn mc_finds_the_wave_deadlock_that_per_trace_analysis_calls_clean() {
    let events = [
        ev(0, 0, HbAction::GridFlagWait { id: 0, token: 0 }),
        ev(1, 0, HbAction::GridFlagSet { id: 0, token: 0 }),
    ];
    // The per-trace analyzer (what `simlint` and `sched_equiv` rest on)
    // has no complaint: the one recorded schedule is properly ordered.
    assert!(
        hb::analyze(&events).is_empty(),
        "the recorded trace itself must be hb-clean"
    );
    // The model checker explores the 1-slot schedule space and proves
    // the protocol deadlocks there.
    let narrow = mc::check(&events, &mc::McConfig::new(1)).expect("valid config");
    assert!(narrow.deadlocks > 0, "expected a wave-gating deadlock");
    assert!(
        narrow.deadlock_witnesses[0].contains("GridWaitFlag"),
        "witness names the stuck wait: {:?}",
        narrow.deadlock_witnesses
    );
    // With two physical slots the same protocol is fine.
    let wide = mc::check(&events, &mc::McConfig::new(2)).expect("valid config");
    assert_eq!(wide.deadlocks, 0, "{:?}", wide.deadlock_witnesses);
}

// ---------------------------------------------------------------------
// Seed 2: schedule-dependent report. Both blocks set grid flag 0;
// block 0 then consumes one set. The simulator's grid flag file pairs
// waits FIFO, so whichever set commits first is the one block 0
// observes — and block 1's set is published after far more work, so
// the pairing changes the launch's timing and its serialized report.
// ---------------------------------------------------------------------

fn racing_sets_kernel(
    ctx: &mut BlockCtx<'_>,
    x: &GlobalTensor<i32>,
    y: &GlobalTensor<i32>,
    lane: usize,
) -> SimResult<()> {
    let b = ctx.block_idx as usize;
    let grid = ctx.grid();
    let v = &mut ctx.vecs[0];
    let mut buf = v.alloc_local::<i32>(ScratchpadKind::Ub, lane)?;
    let loaded = v.copy_in(&mut buf, 0, x, b * lane, lane, &[])?;
    let mut done = loaded;
    // Block 1 publishes its set much later than block 0.
    let reps = if b == 0 { 1 } else { 6 };
    for r in 0..reps {
        done = v.vadds(&mut buf, 0, lane, 1 + r, done)?;
    }
    v.set_grid_flag(grid, 0, &[done])?;
    if b == 0 {
        let seen = v.wait_grid_flag(grid, 0)?;
        done = done.max(seen);
    }
    v.copy_out(y, b * lane, &buf, 0, lane, &[done])?;
    v.free_local(buf)?;
    Ok(())
}

fn run_racing_sets(policy: SchedPolicy) -> (String, prof::Profile) {
    let spec = ChipSpec::tiny().with_scheduler(policy);
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    let lane = 64usize;
    let data: Vec<i32> = (0..2 * lane).map(|i| (i as i32 * 3) % 17 - 8).collect();
    let x = GlobalTensor::from_slice(&gm, &data).unwrap();
    let y = GlobalTensor::<i32>::new(&gm, 2 * lane).unwrap();
    prof::with_profiling(&gm, || {
        let report = launch(&spec, &gm, 2, "racing-sets", |ctx| {
            racing_sets_kernel(ctx, &x, &y, lane)
        })
        .expect("racing-sets launches cleanly");
        report.to_json(&spec)
    })
}

#[test]
fn mc_finds_the_schedule_dependent_report_that_sched_equiv_misses() {
    // The sampled equivalence gate: serial and parallel agree, because
    // both commit grid operations in block-index order.
    let (parallel, profile) = run_racing_sets(SchedPolicy::Parallel);
    let (serial, _) = run_racing_sets(SchedPolicy::Serial);
    assert_eq!(
        serial, parallel,
        "sched_equiv-style sampling sees nothing wrong with this kernel"
    );

    // The model checker enumerates the full commit-order space...
    assert_eq!(profile.kernels.len(), 1);
    let spec = ChipSpec::tiny();
    let r = mc::check(
        &profile.kernels[0].hb_events,
        &mc::McConfig::new(spec.ai_cores as usize),
    )
    .expect("valid config");
    assert_eq!(r.deadlocks, 0, "{:?}", r.deadlock_witnesses);
    assert!(
        r.unique_grid_orders.len() >= 2,
        "both sets must be able to commit first: {:?}",
        r.unique_grid_orders
    );
    assert!(!r.budget_exhausted);

    // ...and replaying them shows the report is schedule-dependent:
    // pairing block 0's wait with block 1's late set changes the bytes.
    let reports: BTreeSet<String> = r
        .unique_grid_orders
        .iter()
        .map(|order| {
            let plan = GridPlan {
                order: order.clone(),
            };
            run_racing_sets(SchedPolicy::Planned(Arc::new(plan))).0
        })
        .collect();
    assert!(
        reports.len() >= 2,
        "a feasible commit order must produce a byte-different report \
         ({} orders, {} distinct reports)",
        r.unique_grid_orders.len(),
        reports.len()
    );
    assert!(
        reports.contains(&parallel),
        "the canonical order is among the replays"
    );
}

// ---------------------------------------------------------------------
// Seed 2b: wrong partial/inclusive epoch ordering. Two predecessors'
// mailbox epochs collide on one physical grid flag id — block 0
// publishes its *inclusive* aggregate late (after a long local tail),
// block 1 publishes its *partial* aggregate early — exactly the id
// cycling the decoupled look-back performs, but with the safety margin
// (w² ≤ flag ids) violated so the two sets are causally unordered. The
// consumer is buggy: it probes the id ONCE and assumes FIFO hands it
// the inclusive epoch, deriving its accumulated prefix from that
// pairing. The checker finds the feasible commit order in which the
// partial epoch lands first, and its planned replay produces a
// byte-different *output*, not just a timing skew.
// ---------------------------------------------------------------------

fn buggy_epoch_kernel(
    ctx: &mut BlockCtx<'_>,
    x: &GlobalTensor<i32>,
    mailbox: &GlobalTensor<i32>,
    y: &GlobalTensor<i32>,
    lane: usize,
) -> SimResult<()> {
    let b = ctx.block_idx as usize;
    let grid = ctx.grid();
    let v = &mut ctx.vecs[0];
    let mut buf = v.alloc_local::<i32>(ScratchpadKind::Ub, lane)?;
    match b {
        0 => {
            // Inclusive epoch, published only after a long local tail.
            let loaded = v.copy_in(&mut buf, 0, x, 0, lane, &[])?;
            let mut done = loaded;
            for r in 0..8 {
                done = v.vadds(&mut buf, 0, lane, 1 + r, done)?;
            }
            let stored = v.copy_out(mailbox, 0, &buf, 0, lane, &[done])?;
            v.set_grid_flag(grid, 0, &[stored])?;
        }
        1 => {
            // Partial epoch from the window neighbour, published early —
            // on the SAME physical id as block 0's inclusive epoch.
            let loaded = v.copy_in(&mut buf, 0, x, lane, lane, &[])?;
            let partial = v.vadds(&mut buf, 0, lane, 1, loaded)?;
            let stored = v.copy_out(mailbox, lane, &buf, 0, lane, &[partial])?;
            v.set_grid_flag(grid, 0, &[stored])?;
        }
        _ => {
            // BUG: a single probe where the colliding id carries two
            // epochs. The wait pairs whichever epoch COMMITS first, and
            // the consumer bakes that pairing into its output (the
            // arrival stamp stands in for "which prefix did I just
            // accumulate" — the decision a real look-back makes here).
            let seen = v.wait_grid_flag(grid, 0)?;
            let got = v.copy_in(&mut buf, 0, mailbox, 0, lane, &[seen])?;
            let bias = (seen % 251) as i32;
            let done = v.vadds(&mut buf, 0, lane, bias, got)?;
            v.copy_out(y, 0, &buf, 0, lane, &[done])?;
        }
    }
    v.free_local(buf)?;
    Ok(())
}

fn run_buggy_epoch(policy: SchedPolicy) -> (String, Vec<i32>, prof::Profile) {
    // Cheap validation: when the wait pairs the partial epoch, the
    // consumer's mailbox read is unordered against block 0's inclusive
    // publish — the launch must still be allowed so the checker can
    // explore it (Full would abort on the seeded race).
    let spec = ChipSpec::tiny()
        .with_scheduler(policy)
        .with_validation(ValidationMode::Cheap);
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    let lane = 64usize;
    let data: Vec<i32> = (0..2 * lane).map(|i| (i as i32 * 3) % 17 - 8).collect();
    let x = GlobalTensor::from_slice(&gm, &data).unwrap();
    let mailbox = GlobalTensor::<i32>::new(&gm, 2 * lane).unwrap();
    let y = GlobalTensor::<i32>::new(&gm, lane).unwrap();
    let (json, profile) = prof::with_profiling(&gm, || {
        let report = launch(&spec, &gm, 3, "buggy-epoch", |ctx| {
            buggy_epoch_kernel(ctx, &x, &mailbox, &y, lane)
        })
        .expect("buggy-epoch launches under Cheap validation");
        report.to_json(&spec)
    });
    (json, y.to_vec(), profile)
}

#[test]
fn mc_finds_the_wrong_result_from_misordered_partial_inclusive_epochs() {
    let (canonical_json, canonical_y, profile) = run_buggy_epoch(SchedPolicy::Parallel);
    let (serial_json, serial_y, _) = run_buggy_epoch(SchedPolicy::Serial);
    assert_eq!(
        (serial_json, serial_y),
        (canonical_json.clone(), canonical_y.clone()),
        "sampled scheduler equivalence sees nothing wrong with this kernel"
    );

    assert_eq!(profile.kernels.len(), 1);
    let spec = ChipSpec::tiny();
    let r = mc::check(
        &profile.kernels[0].hb_events,
        &mc::McConfig::new(spec.ai_cores as usize),
    )
    .expect("valid config");
    assert_eq!(r.deadlocks, 0, "{:?}", r.deadlock_witnesses);
    assert!(
        r.unique_grid_orders.len() >= 2,
        "the single probe must be able to commit between the two epoch \
         sets: {:?}",
        r.unique_grid_orders
    );
    assert!(!r.budget_exhausted);

    // Replaying the feasible orders surfaces the wrong result: when the
    // consumer's wait commits before the inclusive set, its mailbox read
    // returns the stale partial aggregate.
    let replays: BTreeSet<(String, Vec<i32>)> = r
        .unique_grid_orders
        .iter()
        .map(|order| {
            let plan = GridPlan {
                order: order.clone(),
            };
            let (json, y, _) = run_buggy_epoch(SchedPolicy::Planned(Arc::new(plan)));
            (json, y)
        })
        .collect();
    assert!(
        replays.len() >= 2,
        "a feasible epoch ordering must produce a different outcome \
         ({} orders, {} distinct outcomes)",
        r.unique_grid_orders.len(),
        replays.len()
    );
    let distinct_outputs: BTreeSet<&Vec<i32>> = replays.iter().map(|(_, y)| y).collect();
    assert!(
        distinct_outputs.len() >= 2,
        "the bug must corrupt the functional output, not just timing: \
         {distinct_outputs:?}"
    );
    assert!(
        replays
            .iter()
            .any(|(json, y)| *json == canonical_json && *y == canonical_y),
        "the canonical order is among the replays"
    );
}

// ---------------------------------------------------------------------
// Seed 3: faithfulness — the wave-spanning ScanC chain has exactly one
// feasible commit order, and replaying it through the planned scheduler
// reproduces the parallel report byte for byte.
// ---------------------------------------------------------------------

fn run_scanc(policy: SchedPolicy, n: usize, lookback_window: usize) -> (String, prof::Profile) {
    let spec = ChipSpec::tiny().with_scheduler(policy);
    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
    let data: Vec<i8> = (0..n).map(|i| ((i * 7) % 11) as i8 - 5).collect();
    let x = GlobalTensor::from_slice(&gm, &data).unwrap();
    let cfg = ScanCConfig {
        s: 16,
        tiles_per_lane: 1,
        lookback_window,
        kind: ScanKind::Inclusive,
    };
    prof::with_profiling(&gm, || {
        let run = scanc::<i8, i16, i32>(&spec, &gm, &x, cfg).expect("scanc launches");
        assert!(run.report.blocks > spec.ai_cores, "chain spans waves");
        run.report.to_json(&spec)
    })
}

#[test]
fn scanc_single_commit_order_replays_byte_identically_when_planned() {
    let (canonical, profile) = run_scanc(SchedPolicy::Parallel, 1500, 1);
    assert_eq!(profile.kernels.len(), 1);
    let spec = ChipSpec::tiny();
    let r = mc::check(
        &profile.kernels[0].hb_events,
        &mc::McConfig::new(spec.ai_cores as usize),
    )
    .expect("valid config");
    assert_eq!(r.deadlocks, 0, "{:?}", r.deadlock_witnesses);
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    assert!(!r.budget_exhausted);
    assert_eq!(
        r.unique_grid_orders.len(),
        1,
        "the look-back chain forces a single commit order: {:?}",
        r.unique_grid_orders
    );
    let plan = GridPlan {
        order: r.unique_grid_orders[0].clone(),
    };
    let (replayed, _) = run_scanc(SchedPolicy::Planned(Arc::new(plan)), 1500, 1);
    assert_eq!(
        replayed, canonical,
        "planned replay of the canonical commit order must be byte-identical"
    );
    // 100% wait/flag coverage on the chain (the acceptance bar).
    assert_eq!(
        r.coverage.wait_sites_dual, r.coverage.wait_sites,
        "uncovered: {:?}",
        r.coverage.uncovered
    );
}

// ---------------------------------------------------------------------
// Seed 3b: the decoupled multi-hop look-back (w=2) genuinely relaxes
// the chain — a lane's q-edge publish commutes with its successor's
// probe phase, so the schedule space holds *several* feasible commit
// orders — yet the per-id FIFO pairing is forced by the partial-edge
// happens-before chain, so every feasible order must replay to the
// canonical report byte for byte. 1200 elements → 5 lanes → 3 blocks
// on 2 cores (wave-spanning) and 7 look-back edges ≤ the tiny chip's
// 8 grid flag ids, so the certification is reuse-free.
// ---------------------------------------------------------------------

#[test]
fn multihop_scanc_has_many_orders_that_all_replay_byte_identically() {
    let (canonical, profile) = run_scanc(SchedPolicy::Parallel, 1200, 2);
    assert_eq!(profile.kernels.len(), 1);
    let spec = ChipSpec::tiny();
    let r = mc::check(
        &profile.kernels[0].hb_events,
        &mc::McConfig::new(spec.ai_cores as usize),
    )
    .expect("valid config");
    assert_eq!(r.deadlocks, 0, "{:?}", r.deadlock_witnesses);
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    assert!(!r.budget_exhausted);
    assert!(
        r.unique_grid_orders.len() >= 2,
        "decoupling must open the commit-order space (probes commute \
         with q-publishes), got {} order(s)",
        r.unique_grid_orders.len()
    );
    let replays: BTreeSet<String> = r
        .unique_grid_orders
        .iter()
        .map(|order| {
            let plan = GridPlan {
                order: order.clone(),
            };
            run_scanc(SchedPolicy::Planned(Arc::new(plan)), 1200, 2).0
        })
        .collect();
    assert_eq!(
        replays.len(),
        1,
        "every feasible commit order must replay byte-identically \
         ({} orders, {} distinct reports)",
        r.unique_grid_orders.len(),
        replays.len()
    );
    assert!(
        replays.contains(&canonical),
        "the canonical parallel report is the unique fixed point"
    );
    // 100% dual wait coverage across the relaxed schedule space.
    assert_eq!(
        r.coverage.wait_sites_dual, r.coverage.wait_sites,
        "uncovered: {:?}",
        r.coverage.uncovered
    );
}

// ---------------------------------------------------------------------
// Reduction soundness: on random sync skeletons, DPOR must preserve the
// set of grid commit orders and the diagnostic classes found by plain
// exhaustive enumeration. Deadlock and coverage come from phase A,
// which is never reduced, so they are identical by construction.
// ---------------------------------------------------------------------

/// Builds a random sync skeleton from per-thread op selectors.
fn synth_events(blocks: usize, threads_per_block: usize, sel: &[u8]) -> Vec<HbEvent> {
    let mut events = Vec::new();
    let mut i = 0usize;
    for b in 0..blocks as u32 {
        for c in 0..threads_per_block as u32 {
            let mut barriers = 0u32;
            for _ in 0..3 {
                let s = sel.get(i).copied().unwrap_or(0);
                i += 1;
                let action = match s % 7 {
                    0 => HbAction::GmWrite {
                        start: u64::from(s % 2) * 8,
                        end: u64::from(s % 2) * 8 + 8,
                    },
                    1 => HbAction::GmRead {
                        start: u64::from(s % 3) * 8,
                        end: u64::from(s % 3) * 8 + 8,
                    },
                    2 => HbAction::GridFlagSet {
                        id: u32::from(s % 2),
                        token: 0,
                    },
                    3 => HbAction::GridFlagWait {
                        id: u32::from(s % 2),
                        token: 0,
                    },
                    4 => {
                        let r = barriers;
                        barriers += 1;
                        HbAction::Barrier { round: r }
                    }
                    5 => HbAction::FlagSet { id: 0, token: 0 },
                    _ => HbAction::FlagWait { id: 0, token: 0 },
                };
                events.push(ev(b, c, action));
            }
        }
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dpor_reduction_is_sound_on_random_skeletons(
        blocks in 2usize..=3,
        threads_per_block in 1usize..=2,
        phys in 1usize..=2,
        sel in proptest::collection::vec(any::<u8>(), 18),
    ) {
        let events = synth_events(blocks, threads_per_block, &sel);
        let mut cfg = mc::McConfig::new(phys);
        cfg.max_execs = 100_000;
        cfg.max_states = 500_000;
        let reduced = mc::check(&events, &cfg).expect("valid config");
        let mut full_cfg = cfg.clone();
        full_cfg.reduction = false;
        let full = mc::check(&events, &full_cfg).expect("valid config");
        prop_assert!(!full.budget_exhausted, "raise the budget for this shape");
        prop_assert_eq!(
            &reduced.unique_grid_orders,
            &full.unique_grid_orders,
            "reduction must preserve the grid commit orders"
        );
        let codes = |r: &mc::McReport| -> BTreeSet<&'static str> {
            r.diagnostics.iter().map(|d| d.code).collect()
        };
        prop_assert_eq!(
            codes(&reduced),
            codes(&full),
            "reduction must preserve the diagnostic classes"
        );
        prop_assert_eq!(reduced.deadlocks, full.deadlocks);
        prop_assert!(reduced.executions <= full.executions);
    }
}
