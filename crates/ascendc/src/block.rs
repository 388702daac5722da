//! Kernel blocks and the launch machinery.
//!
//! A *block* is the smallest logical execution unit of an AscendC kernel;
//! here one block maps to one AI core — one cube core plus
//! `spec.vec_per_core` vector cores. [`launch`] runs the kernel closure
//! once per block and merges the per-block simulated timelines into a
//! single [`KernelReport`].
//!
//! # Deterministic scheduling
//!
//! Blocks are tasks driven by the deterministic [`Scheduler`], each held
//! by one gate until the lower blocks it depends on have parked. A block
//! runs on a host thread of its own only while it has to: a finished
//! block's thread goes on to run its slot's next tenant, and only a block
//! that parks at a barrier while a later tenant of its slot must start
//! makes the launch spawn another thread. The spec's
//! [`SchedPolicy`](ascend_sim::SchedPolicy) sets the gate's stride: 1
//! under `Serial` (exactly one block progresses at a time, ascending
//! block index within each barrier round), the slot count by default
//! (blocks run concurrently between sync edges). Every
//! observable side effect commits in block-index order at either stride,
//! so both produce byte-identical reports (`ascend_sim::sync` documents
//! the equivalence argument), and two launches of the same kernel replay
//! byte-for-byte regardless of host load or core count. Grids larger
//! than the chip (`block_dim > spec.ai_cores`) are *oversubscribed*:
//! block `b` time-shares physical core slot `b % spec.ai_cores`, starting
//! where the slot's previous tenant yielded it. A block yields its slot at
//! every barrier arrival and at its finish, so oversubscribed kernels
//! can still call [`BlockCtx::sync_all`]: the arriving block parks and
//! vacates the slot, the slot's later tenants run, and the block resumes
//! at the later of the barrier release and its slot freeing again — the
//! scheduler's yield/re-queue protocol (see [`ascend_sim::sync`]).
//!
//! # Barrier pricing
//!
//! [`BlockCtx::sync_all`] is built from priced cross-core flag
//! instructions: every core executes a `CrossCoreSetFlag` (arrival) and
//! a `CrossCoreWaitFlag` (release poll) on its scalar pipe, then stalls
//! until the last arrival flag lands (`wait:flag`) and until the barrier
//! release — segment bandwidth bound plus `sync_all_cycles` — completes
//! (`wait:barrier`). Kernels can also use raw flag pairs directly via
//! [`Core::set_flag`]/[`Core::wait_flag`] and the block's
//! [`FlagFile`](BlockCtx::flags), or hand off *between* blocks with the
//! launch-wide grid flags ([`Core::set_grid_flag`]/
//! [`Core::wait_grid_flag`] against [`BlockCtx::grid`]) — the mailbox
//! protocol of chained look-back scans.
//!
//! # Failure semantics
//!
//! A kernel that returns an error *between* two `sync_all` calls while
//! other blocks keep synchronizing would deadlock on real hardware; here
//! the failed block simply stops participating — the scheduler resolves
//! later barriers over the still-live blocks and the error is reported
//! after the launch drains. A kernel closure that panics is treated the
//! same way: the panic is caught, the block finishes, and the launch
//! returns [`SimError::BlockPanicked`] with the block and the message.

use crate::core::Core;
use ascend_sim::audit::{LaunchAudit, Records};
use ascend_sim::mem::GlobalMemory;
use ascend_sim::prof::{self, KernelProfile, SpanRecorder};
use ascend_sim::sync::{FlagFile, Scheduler};
use ascend_sim::{
    simcheck, ChipSpec, CoreKind, CounterEvent, EngineKind, EventTime, HbAction, KernelReport,
    SimError, SimResult, SpanArgs, SpanId, StallCause, StallEvent, StallTally, TraceEvent,
    TraceSpan,
};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Per-block execution context: the block's cores plus the launch-wide
/// shared state.
pub struct BlockCtx<'a> {
    /// This block's index in `0..block_dim`.
    pub block_idx: u32,
    /// Number of blocks in the launch.
    pub block_dim: u32,
    /// The block's cube (AIC) core.
    pub cube: Core<'a>,
    /// The block's vector (AIV) cores (two on the 910B).
    pub vecs: Vec<Core<'a>>,
    /// The block's cross-core flag file: `CrossCoreSetFlag` on one core
    /// publishes here, `CrossCoreWaitFlag` on a sibling core consumes.
    /// See [`Core::set_flag`]/[`Core::wait_flag`].
    pub flags: FlagFile,
    spec: &'a ChipSpec,
    gm: &'a GlobalMemory,
    sync: &'a Scheduler,
    /// Block-level phase spans (depth 1; kernel root is depth 0).
    spans: SpanRecorder,
    /// Number of completed [`BlockCtx::sync_all`] rounds; stamps each
    /// core's `Barrier` happens-before event. All blocks execute the
    /// same barrier sequence, so equal round numbers identify one
    /// grid-wide rendezvous.
    sync_round: u32,
    /// The launch's audits, when its cores record: each barrier epoch's
    /// records go there once the release has aligned the cores.
    audit: Option<&'a LaunchAudit>,
}

impl<'a> BlockCtx<'a> {
    /// The chip specification.
    pub fn spec(&self) -> &ChipSpec {
        self.spec
    }

    /// The block's local completion horizon: the latest time any of its
    /// cores finishes its issued work.
    pub fn local_now(&self) -> EventTime {
        self.vecs
            .iter()
            .map(Core::now)
            .chain(std::iter::once(self.cube.now()))
            .max()
            .unwrap_or(0)
    }

    /// The launch-wide [`Scheduler`], home of the grid-flag mailbox
    /// registry used by chained look-back kernels — pass it to
    /// [`Core::set_grid_flag`]/[`Core::wait_grid_flag`].
    pub fn grid(&self) -> &'a Scheduler {
        self.sync
    }

    /// `SyncAll`: global barrier across all blocks. Every core pays a
    /// `CrossCoreSetFlag` (arrival) and `CrossCoreWaitFlag` (release
    /// poll) on its scalar pipe, stalls on the last arrival flag
    /// (`wait:flag`), then on the release — the segment's
    /// memory-bandwidth bound plus `sync_all_cycles` (`wait:barrier`).
    /// Returns the resumption time.
    ///
    /// On an oversubscribed launch (`block_dim > spec.ai_cores`) the
    /// block additionally waits for its physical core slot: it resumes
    /// at the later of the barrier release and the slot freeing —
    /// slot-mates run their post-barrier segments in ascending block
    /// order, with the extra idle attributed as `wait:barrier`.
    pub fn sync_all(&mut self) -> SimResult<EventTime> {
        let sched = self.sync;
        let span = self.spans.begin("SyncAll", self.local_now());
        let w = self.spec.flag_wait_cycles;
        let mut set_done: EventTime = 0;
        let mut ready: EventTime = 0;
        for core in std::iter::once(&mut self.cube).chain(self.vecs.iter_mut()) {
            // Arrival: the set flag drains the core's engine queues
            // (dependency on the core-wide horizon), then occupies the
            // scalar pipe; the release poll issues right behind it.
            let horizon = core.now();
            let arrive = core.timeline_mut().exec(
                EngineKind::FLAG_ENGINE,
                self.spec.flag_set_cycles,
                &[horizon],
            )?;
            let polled = core.timeline_mut().exec(EngineKind::FLAG_ENGINE, w, &[])?;
            set_done = set_done.max(arrive);
            ready = ready.max(polled);
        }
        let (all_set, _resolved, resume) = sched.sync(
            self.block_idx as usize,
            set_done,
            ready,
            self.gm,
            self.spec,
            self.spec.sync_all_cycles,
        );
        // Until the grid-wide last arrival flag is observable the cores
        // are flag-blocked; from there to the release (plus, when
        // oversubscribed, the slot re-queue) they are barrier-blocked.
        let flag_edge = (all_set + w).min(resume);
        let round = self.sync_round;
        for core in std::iter::once(&mut self.cube).chain(self.vecs.iter_mut()) {
            core.timeline_mut()
                .align_to_cause(flag_edge, StallCause::Flag);
            core.timeline_mut().align_to(resume);
            core.hb_recorder()
                .record(resume, "SyncAll", HbAction::Barrier { round });
        }
        self.sync_round += 1;
        self.spans.end(span, resume);
        if let Some(audit) = self.audit {
            let records = self.take_records();
            audit.deposit(self.block_idx, round, records, true);
        }
        Ok(resume)
    }

    /// Drains the records the block's cores left since the last
    /// barrier, core by core (cube first).
    fn take_records(&mut self) -> Vec<Records> {
        let block = self.block_idx;
        std::iter::once(&mut self.cube)
            .chain(self.vecs.iter_mut())
            .enumerate()
            .map(|(ci, core)| {
                let core_id = ci as u32;
                let (busy, idle) = core.timeline_mut().take_recorded();
                Records {
                    events: busy
                        .into_iter()
                        .map(|(engine, start, end)| TraceEvent {
                            block,
                            core: core_id,
                            engine,
                            start,
                            end,
                        })
                        .collect(),
                    stalls: idle
                        .into_iter()
                        .map(|(engine, cause, start, end)| StallEvent {
                            block,
                            core: core_id,
                            engine,
                            cause,
                            start,
                            end,
                        })
                        .collect(),
                    hb: core.take_hb(block, core_id),
                }
            })
            .collect()
    }

    // ---------------------------------------------------------------
    // Profiling spans
    // ---------------------------------------------------------------

    /// Whether spans are recorded for this launch (a profile collector is
    /// attached or the chip audits launches).
    pub fn profiling(&self) -> bool {
        self.spans.enabled()
    }

    /// Opens a block-level phase span (e.g. `"Phase I"`) starting at the
    /// block's current completion horizon. A no-op returning
    /// [`SpanId::NONE`] when profiling is off — kernels instrument
    /// unconditionally at zero cost.
    pub fn span_begin(&mut self, name: &'static str) -> SpanId {
        let now = self.local_now();
        self.spans.begin(name, now)
    }

    /// Closes a phase span at the block's current completion horizon.
    pub fn span_end(&mut self, id: SpanId) {
        let now = self.local_now();
        self.spans.end(id, now);
    }

    /// Attaches argument payload to an open phase span.
    pub fn span_args(&mut self, id: SpanId, args: SpanArgs) {
        self.spans.set_args(id, args);
    }
}

struct BlockOutcome {
    block: u32,
    end: EventTime,
    busy: [u64; EngineKind::ALL.len()],
    instructions: [u64; EngineKind::ALL.len()],
    stalls: StallTally,
    error: Option<SimError>,
    spans: Vec<TraceSpan>,
    counters: Vec<CounterEvent>,
}

/// The message of a caught panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|msg| msg.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// Launches `block_dim` blocks of `kernel` on the chip and returns the
/// merged execution report.
///
/// The kernel closure runs once per block under the deterministic
/// cooperative scheduler and drives the block's engines through
/// [`BlockCtx`]. `block_dim` may exceed `spec.ai_cores` (and the host's
/// core count): excess blocks run in waves on the physical core slots —
/// see the module docs. A chip without vector cores is refused: every
/// block's AI core pairs its cube core with vector cores. `useful_bytes`
/// and `elements` of the returned report are left at zero — operator
/// wrappers fill them in with the operator's I/O convention.
///
/// Under [`ValidationMode::Full`](ascend_sim::ValidationMode) the
/// launch audits its recorded schedule one barrier epoch at a time
/// ([`ascend_sim::audit`]): each block hands its cores' records over at
/// every `SyncAll` and at its finish, and an epoch's records are dropped
/// once audited unless a profile collector is attached.
pub fn launch<F>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    block_dim: u32,
    name: &str,
    kernel: F,
) -> SimResult<KernelReport>
where
    F: Fn(&mut BlockCtx<'_>) -> SimResult<()> + Sync,
{
    if block_dim == 0 {
        return Err(SimError::InvalidArgument(format!(
            "launch {name:?} with block_dim 0: a kernel needs at least one block \
             (the chip has {} AI cores; larger grids wave-multiplex)",
            spec.ai_cores
        )));
    }
    if spec.vec_per_core == 0 {
        return Err(SimError::InvalidArgument(format!(
            "launch {name:?} on a chip without vector cores: every AI core pairs its \
             cube core with at least one vector core"
        )));
    }
    let read_at_start = gm.bytes_read();
    let written_at_start = gm.bytes_written();
    let oversubscribed = block_dim > spec.ai_cores;
    // The profile recorder is per-launch state carried by the launch's
    // GlobalMemory (attach_profiler), so concurrent launches on other
    // memories — and later launches on this one — never share a profile.
    let collector = gm.profiler();
    let recording = collector.is_some() || spec.validation.audits();
    let audit = LaunchAudit::new(spec, block_dim, collector.is_some());

    // One scheduler drives every launch shape: dedicated slots when the
    // grid fits the chip, slot time-sharing (yield/re-queue) when it is
    // oversubscribed. The kernel-end alignment (`kernel_end`) already
    // stretches the end to the grid's bandwidth bound. The gate's stride
    // (serial or parallel — byte-identical reports either way) comes
    // from the spec's scheduler policy.
    let phys = block_dim.min(spec.ai_cores);
    let sync = Scheduler::new(
        block_dim as usize,
        phys as usize,
        spec.launch_cycles,
        read_at_start + written_at_start,
        spec.flag_id_limit,
        &spec.scheduler,
    );

    // Runs one block to its finish. The block first waits at the
    // scheduler's gate (begin() also yields its start origin — the
    // launch start, or the slot's previous tenant's yield point when
    // oversubscribed).
    let run_block = |block_idx: u32| {
        let origin = sync.begin(block_idx as usize);
        let mut ctx = BlockCtx {
            block_idx,
            block_dim,
            cube: Core::new(CoreKind::Cube, spec, origin, block_idx as usize, 0),
            vecs: (0..spec.vec_per_core)
                .map(|v| {
                    Core::new(
                        CoreKind::Vector,
                        spec,
                        origin,
                        block_idx as usize,
                        1 + v as usize,
                    )
                })
                .collect(),
            flags: FlagFile::new(spec.flag_id_limit),
            spec,
            gm,
            sync: &sync,
            spans: SpanRecorder::new(1),
            sync_round: 0,
            audit: recording.then_some(&audit),
        };
        if recording {
            ctx.cube.timeline_mut().enable_recording();
            ctx.cube.enable_hb();
            for v in &mut ctx.vecs {
                v.timeline_mut().enable_recording();
                v.enable_hb();
            }
        }
        if recording {
            // Spans and stall intervals also feed the critical-path
            // audit, so they are recorded whenever audits are on —
            // not only when a profile collector is attached.
            ctx.spans.enable();
            ctx.cube.enable_profiling();
            for v in &mut ctx.vecs {
                v.enable_profiling();
            }
        }
        // A panic is caught and becomes the block's error, so the block
        // still finishes below.
        let error = match catch_unwind(AssertUnwindSafe(|| kernel(&mut ctx))) {
            Ok(result) => result.err(),
            Err(payload) => Some(SimError::BlockPanicked {
                block: block_idx,
                message: panic_message(payload.as_ref()),
            }),
        };
        // Finishing (also on error) lets sibling blocks terminate;
        // see module docs for failure semantics.
        let next = sync.finish(block_idx as usize, ctx.local_now(), gm, spec);
        ((ctx, error), next)
    };
    // Harvests a finished block's timelines at the common kernel-end
    // alignment. The tail wait is attributed as barrier time so the
    // per-engine stall partition (busy + dependency + barrier + flag =
    // elapsed) closes exactly on non-oversubscribed launches.
    let harvest = |(mut ctx, error): (BlockCtx<'_>, Option<SimError>), end: EventTime| {
        let block_idx = ctx.block_idx;
        ctx.cube.wait(end);
        for v in &mut ctx.vecs {
            v.wait(end);
        }
        let mut busy = [0u64; EngineKind::ALL.len()];
        let mut instructions = [0u64; EngineKind::ALL.len()];
        let mut stalls = StallTally::default();
        let mut spans = ctx.spans.take(block_idx, prof::BLOCK_SCOPE, end);
        let mut counters = Vec::new();
        for core in std::iter::once(&ctx.cube).chain(&ctx.vecs) {
            for e in EngineKind::ALL {
                busy[e.index()] += core.timeline().busy_cycles(e);
                instructions[e.index()] += core.timeline().instructions(e);
            }
            stalls.absorb(core.timeline().stalls());
        }
        if let Some(audit) = ctx.audit {
            let records = ctx.take_records();
            audit.deposit(block_idx, ctx.sync_round, records, false);
            for (ci, core) in std::iter::once(&mut ctx.cube)
                .chain(ctx.vecs.iter_mut())
                .enumerate()
            {
                spans.extend(core.take_spans(block_idx, ci as u32, end));
                counters.extend(core.take_counters(block_idx, ci as u32));
            }
        }
        BlockOutcome {
            block: block_idx,
            end,
            busy,
            instructions,
            stalls,
            error,
            spans,
            counters,
        }
    };

    // A host thread: runs its first block and then each slot successor
    // `finish` hands it, and harvests them all once the kernel end is
    // known.
    let worker = |first: u32| {
        let mut ran = Vec::new();
        let mut next = Some(first as usize);
        while let Some(block) = next {
            let (done, successor) = run_block(block as u32);
            ran.push(done);
            next = successor;
        }
        let last = ran.last().map_or(first, |(ctx, _)| ctx.block_idx);
        let end = sync.kernel_end(last as usize);
        ran.into_iter()
            .map(|block| harvest(block, end))
            .collect::<Vec<_>>()
    };
    let mut outcomes: Vec<BlockOutcome> = std::thread::scope(|scope| {
        let worker = &worker;
        let mut handles: Vec<_> = (0..phys).map(|b| scope.spawn(move || worker(b))).collect();
        while let Some(b) = sync.next_spawn() {
            handles.push(scope.spawn(move || worker(b as u32)));
        }
        if recording {
            audit.audit_epochs(&sync, || handles.iter().all(|h| h.is_finished()));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)))
            .collect()
    });
    outcomes.sort_unstable_by_key(|o| o.block);
    let cycles = outcomes.iter().map(|o| o.end).max().unwrap_or(0);
    let (sync_rounds, barrier_waits, flag_waits) = (
        sync.rounds().saturating_sub(1),
        sync.round_waits(),
        sync.flag_waits(),
    );

    if let Some(err) = outcomes.iter().find_map(|o| o.error.clone()) {
        return Err(err);
    }

    let mut busy = [0u64; EngineKind::ALL.len()];
    let mut instructions = [0u64; EngineKind::ALL.len()];
    let mut stalls = StallTally::default();
    for o in &outcomes {
        for i in 0..EngineKind::ALL.len() {
            busy[i] += o.busy[i];
            instructions[i] += o.instructions[i];
        }
        stalls.absorb(&o.stalls);
    }
    let total = |len: fn(&BlockOutcome) -> usize| outcomes.iter().map(len).sum::<usize>();
    let mut spans: Vec<TraceSpan> = Vec::with_capacity(total(|o| o.spans.len()));
    let mut counters: Vec<CounterEvent> = Vec::with_capacity(total(|o| o.counters.len()));
    for o in outcomes {
        spans.extend(o.spans);
        counters.extend(o.counters);
    }
    let mut report = KernelReport {
        name: name.to_string(),
        blocks: block_dim,
        cycles,
        clock_ghz: spec.clock_ghz,
        bytes_read: gm.bytes_read() - read_at_start,
        bytes_written: gm.bytes_written() - written_at_start,
        useful_bytes: 0,
        elements: 0,
        working_set: gm.high_water() as u64,
        engine_busy: busy,
        engine_instructions: instructions,
        sync_rounds,
        stalls,
        barrier_waits,
        flag_waits,
        critical_path: None,
    };
    // The occupancy, schedule and critical-path audits ran one barrier
    // epoch at a time as the blocks handed their records over; the run
    // the kernel end closes is audited here, and the path joined.
    let mut critical: Option<ascend_sim::critpath::CritReport> = None;
    let mut kept = Records::default();
    if recording {
        let (crit, records) = audit.finish(&sync, cycles, &spans)?;
        report.critical_path = Some(crit.summary.clone());
        (critical, kept) = (Some(crit), records);
    }
    if spec.validation.audits() {
        simcheck::audit_report(
            &report,
            spec,
            gm.bytes_read() - read_at_start,
            gm.bytes_written() - written_at_start,
        )?;
        if !oversubscribed {
            // Oversubscribed blocks are not aligned to a common kernel
            // end, so their idle time is not fully attributed.
            simcheck::audit_stall_accounting(&report, spec)?;
        }
    }
    if let Some(collector) = collector {
        collector.submit(KernelProfile {
            name: name.to_string(),
            clock_ghz: spec.clock_ghz,
            blocks: block_dim,
            cycles,
            events: kept.events,
            spans,
            stall_events: kept.stalls,
            counters,
            stalls: report.stalls.clone(),
            hb_events: kept.hb,
            critical_path: critical,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::GlobalTensor;
    use ascend_sim::chip::ScratchpadKind;
    use ascend_sim::prof;

    fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    #[test]
    fn single_block_copy_kernel() {
        let (spec, gm) = setup();
        let input: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let x = GlobalTensor::from_slice(&gm, &input).unwrap();
        let y = GlobalTensor::<f32>::new(&gm, 256).unwrap();

        let report = launch(&spec, &gm, 1, "copy", |ctx| {
            let v = &mut ctx.vecs[0];
            let mut buf = v.alloc_local::<f32>(ScratchpadKind::Ub, 256)?;
            v.copy_in(&mut buf, 0, &x, 0, 256, &[])?;
            v.copy_out(&y, 0, &buf, 0, 256, &[])?;
            Ok(())
        })
        .unwrap();

        assert_eq!(y.to_vec(), input);
        assert!(report.cycles > spec.launch_cycles);
        assert_eq!(report.bytes_read, 1024);
        assert_eq!(report.bytes_written, 1024);
        assert_eq!(report.blocks, 1);
    }

    #[test]
    fn blocks_partition_work() {
        let (spec, gm) = setup();
        let n = 512;
        let x = GlobalTensor::from_slice(&gm, &vec![1i32; n]).unwrap();
        let y = GlobalTensor::<i32>::new(&gm, n).unwrap();

        launch(&spec, &gm, 2, "add1", |ctx| {
            let per = n / ctx.block_dim as usize;
            let off = ctx.block_idx as usize * per;
            let v = &mut ctx.vecs[0];
            let mut buf = v.alloc_local::<i32>(ScratchpadKind::Ub, per)?;
            v.copy_in(&mut buf, 0, &x, off, per, &[])?;
            v.vadds(&mut buf, 0, per, 41, 0)?;
            v.copy_out(&y, off, &buf, 0, per, &[])?;
            Ok(())
        })
        .unwrap();

        assert_eq!(y.to_vec(), vec![42i32; n]);
    }

    #[test]
    fn sync_all_aligns_blocks() {
        let (spec, gm) = setup();
        let flags = GlobalTensor::<u32>::new(&gm, 2).unwrap();

        let report = launch(&spec, &gm, 2, "sync", |ctx| {
            let idx = ctx.block_idx as usize;
            // Block 0 does much more pre-barrier work than block 1.
            let reps = if idx == 0 { 50 } else { 1 };
            {
                let v = &mut ctx.vecs[0];
                let mut buf = v.alloc_local::<u32>(ScratchpadKind::Ub, 64)?;
                for _ in 0..reps {
                    v.vadds(&mut buf, 0, 64, 1, 0)?;
                }
                v.copy_out(&flags, idx, &buf, 0, 1, &[])?;
            }
            let resumed = ctx.sync_all()?;
            // After the barrier both blocks resume at the same cycle,
            // which is at least the slow block's pre-barrier time.
            assert!(resumed >= ctx.spec().launch_cycles + 50);
            Ok(())
        })
        .unwrap();

        assert_eq!(report.sync_rounds, 1);
        assert_eq!(flags.to_vec(), vec![50, 1]);
        // One entry per barrier plus the kernel-end alignment, and the
        // barrier itself has modelled (nonzero) release cost.
        assert_eq!(report.barrier_waits.len(), 2);
        assert_eq!(report.flag_waits.len(), 2);
        assert!(report.barrier_waits[0] > 0, "SyncAll release is priced");
        // The fast block idles on the slow block's arrival flag.
        assert!(report.flag_waits[0] > 0, "arrival skew is flag-attributed");
    }

    #[test]
    fn cross_core_flags_order_and_price_work() {
        let (spec, gm) = setup();
        let out = GlobalTensor::<i32>::new(&gm, 64).unwrap();

        let report = launch(&spec, &gm, 1, "flags", |ctx| {
            let BlockCtx {
                cube, vecs, flags, ..
            } = ctx;
            // Cube produces into GM, publishes flag 0; vec 0 waits on it
            // before consuming — an explicit AIC→AIV handoff.
            let mut l1 = cube.alloc_local::<i32>(ScratchpadKind::L1, 64)?;
            let produced = cube.fill_local(&mut l1, 0, 64, 7)?;
            let stored = cube.copy_out(&out, 0, &l1, 0, 64, &[produced])?;
            let set = cube.set_flag(flags, 0, &[stored])?;
            assert!(set >= stored + cube.spec().flag_set_cycles);

            let v = &mut vecs[0];
            let observed = v.wait_flag(flags, 0)?;
            assert!(observed >= set, "consumer resumes after the set lands");
            let mut buf = v.alloc_local::<i32>(ScratchpadKind::Ub, 64)?;
            v.copy_in(&mut buf, 0, &out, 0, 64, &[])?;
            cube.free_local(l1)?;
            v.free_local(buf)?;
            Ok(())
        })
        .unwrap();

        assert_eq!(out.to_vec(), vec![7i32; 64]);
        // The waiting vector core's idle time is attributed to flags.
        assert!(report.stalls.flag.iter().sum::<u64>() > 0);
    }

    #[test]
    fn wait_on_unset_flag_errors() {
        let (spec, gm) = setup();
        let err = launch(&spec, &gm, 1, "deadlock", |ctx| {
            let BlockCtx { vecs, flags, .. } = ctx;
            vecs[0].wait_flag(flags, 5).map(|_| ())
        })
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidArgument(_)));
        assert!(err.to_string().contains("unset flag"));
    }

    #[test]
    fn flag_id_beyond_register_file_is_rejected() {
        // Failure injection: the tiny chip exposes 8 cross-core flag
        // registers; publishing on id 8 must fail the launch.
        let (spec, gm) = setup();
        let limit = spec.flag_id_limit;
        let err = launch(&spec, &gm, 1, "flag-overflow", |ctx| {
            let BlockCtx { cube, flags, .. } = ctx;
            cube.set_flag(flags, limit, &[]).map(|_| ())
        })
        .unwrap_err();
        assert_eq!(err, SimError::FlagIdOutOfRange { id: limit, limit });
        // The last in-range id works.
        let (spec, gm) = setup();
        launch(&spec, &gm, 1, "flag-last", |ctx| {
            let BlockCtx {
                cube, vecs, flags, ..
            } = ctx;
            cube.set_flag(flags, limit - 1, &[])?;
            vecs[0].wait_flag(flags, limit - 1)?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn unsynchronized_cross_core_handoff_fails_the_audit() {
        // Failure injection: cube writes GM and the vector core reads
        // the same range with only a raw timing dependency — no flag, no
        // barrier. The replayed interleaving is timing-safe, but the
        // schedule guarantees nothing, and the happens-before audit
        // must reject it.
        let (spec, gm) = setup();
        let shared = GlobalTensor::<i32>::new(&gm, 64).unwrap();
        let err = launch(&spec, &gm, 1, "racy", |ctx| {
            let cube = &mut ctx.cube;
            let mut l1 = cube.alloc_local::<i32>(ScratchpadKind::L1, 64)?;
            let produced = cube.fill_local(&mut l1, 0, 64, 7)?;
            let stored = cube.copy_out(&shared, 0, &l1, 0, 64, &[produced])?;
            let v = &mut ctx.vecs[0];
            let mut buf = v.alloc_local::<i32>(ScratchpadKind::Ub, 64)?;
            v.copy_in(&mut buf, 0, &shared, 0, 64, &[stored])?;
            cube.free_local(l1)?;
            v.free_local(buf)?;
            Ok(())
        })
        .unwrap_err();
        match err {
            SimError::ScheduleHazard { what, detail } => {
                assert_eq!(what, "gm-race");
                assert!(detail.contains("copy_out"), "names the write: {detail}");
            }
            other => panic!("expected a gm-race ScheduleHazard, got {other:?}"),
        }
    }

    #[test]
    fn epoch_audits_carry_flags_and_queues_across_barriers() {
        // A flag token and a queue entry published before a SyncAll and
        // consumed after it: each epoch's audit inherits the open token
        // and the queue's balance, so the launch passes the audits, and
        // the whole-launch analysis of its records agrees.
        let (spec, gm) = setup();
        let (report, profile) = prof::with_profiling(&gm, || {
            launch(&spec, &gm, 2, "carry", |ctx| {
                ctx.cube.set_flag(&ctx.flags, 1, &[])?;
                let mut q = crate::TQue::<i32>::new(&mut ctx.vecs[0], ScratchpadKind::Ub, 1, 64)?;
                let t = q.alloc_tensor()?;
                q.enque(t)?;
                ctx.sync_all()?;
                let t = q.deque()?;
                q.free_tensor(t, 0);
                q.destroy(&mut ctx.vecs[0])?;
                ctx.vecs[0].wait_flag(&ctx.flags, 1)?;
                Ok(())
            })
        });
        let report = report.unwrap();
        assert_eq!(report.sync_rounds, 1);
        let k = &profile.kernels[0];
        assert_eq!(
            report.critical_path.as_ref(),
            k.critical_path.as_ref().map(|c| &c.summary)
        );
        let errors = ascend_sim::hb::analyze(&k.hb_events)
            .into_iter()
            .filter(|d| d.severity == ascend_sim::Severity::Error)
            .count();
        assert_eq!(errors, 0);
    }

    #[test]
    fn epoch_audits_find_a_flag_reused_across_a_barrier() {
        // Failure injection: the round-0 token on flag 1 is still pending
        // when round 1 publishes flag 1 again.
        let (spec, gm) = setup();
        let err = launch(&spec, &gm, 1, "reuse", |ctx| {
            ctx.cube.set_flag(&ctx.flags, 1, &[])?;
            ctx.sync_all()?;
            ctx.cube.set_flag(&ctx.flags, 1, &[])?;
            ctx.vecs[0].wait_flag(&ctx.flags, 1)?;
            ctx.vecs[0].wait_flag(&ctx.flags, 1)?;
            Ok(())
        })
        .unwrap_err();
        match err {
            SimError::ScheduleHazard { what, .. } => assert_eq!(what, "flag-reuse"),
            other => panic!("expected a flag-reuse ScheduleHazard, got {other:?}"),
        }
    }

    #[test]
    fn epoch_audits_find_a_race_after_the_first_barrier() {
        // Failure injection: the race of the test above, two barriers in.
        let (spec, gm) = setup();
        let shared = GlobalTensor::<i32>::new(&gm, 64).unwrap();
        let err = launch(&spec, &gm, 2, "racy-late", |ctx| {
            ctx.sync_all()?;
            ctx.sync_all()?;
            if ctx.block_idx == 0 {
                let cube = &mut ctx.cube;
                let mut l1 = cube.alloc_local::<i32>(ScratchpadKind::L1, 64)?;
                let produced = cube.fill_local(&mut l1, 0, 64, 7)?;
                let stored = cube.copy_out(&shared, 0, &l1, 0, 64, &[produced])?;
                let v = &mut ctx.vecs[0];
                let mut buf = v.alloc_local::<i32>(ScratchpadKind::Ub, 64)?;
                v.copy_in(&mut buf, 0, &shared, 0, 64, &[stored])?;
                cube.free_local(l1)?;
                v.free_local(buf)?;
            }
            Ok(())
        })
        .unwrap_err();
        match err {
            SimError::ScheduleHazard { what, .. } => assert_eq!(what, "gm-race"),
            other => panic!("expected a gm-race ScheduleHazard, got {other:?}"),
        }
    }

    #[test]
    fn a_block_that_skips_a_barrier_is_audited_with_the_rest() {
        // Block 0 finishes before the barrier block 1 reaches: the
        // epochs that not every block closed are audited together when
        // the launch ends.
        let (spec, gm) = setup();
        let out = GlobalTensor::<i32>::new(&gm, 128).unwrap();
        let report = launch(&spec, &gm, 2, "diverge", |ctx| {
            if ctx.block_idx == 1 {
                ctx.sync_all()?;
            }
            let off = ctx.block_idx as usize * 64;
            let v = &mut ctx.vecs[0];
            let mut buf = v.alloc_local::<i32>(ScratchpadKind::Ub, 64)?;
            v.fill_local(&mut buf, 0, 64, 1)?;
            v.copy_out(&out, off, &buf, 0, 64, &[])?;
            v.free_local(buf)?;
            Ok(())
        })
        .unwrap();
        assert!(report.critical_path.is_some());
        assert_eq!(out.to_vec(), vec![1; 128]);
    }

    #[test]
    fn launch_is_deterministic() {
        let run = || {
            let (spec, gm) = setup();
            let x = GlobalTensor::from_slice(&gm, &vec![2i32; 1024]).unwrap();
            let y = GlobalTensor::<i32>::new(&gm, 1024).unwrap();
            launch(&spec, &gm, 2, "det", |ctx| {
                let per = 512;
                let off = ctx.block_idx as usize * per;
                let which = (ctx.block_idx % 2) as usize;
                let mut buf = {
                    let v = &mut ctx.vecs[which];
                    let mut buf = v.alloc_local::<i32>(ScratchpadKind::Ub, per)?;
                    v.copy_in(&mut buf, 0, &x, off, per, &[])?;
                    buf
                };
                ctx.sync_all()?;
                let v = &mut ctx.vecs[which];
                v.copy_out(&y, off, &buf, 0, per, &[])?;
                let _ = &mut buf;
                Ok(())
            })
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.engine_busy, b.engine_busy);
        assert_eq!(a.bytes_read, b.bytes_read);
    }

    /// Acceptance: a grid ≥ 4x the host's cores (and well beyond the
    /// chip's AI cores) launches fine and two invocations produce
    /// byte-identical reports. Invoked by name from `scripts/ci.sh`.
    #[test]
    fn oversubscribed_launch_is_deterministic() {
        let host = std::thread::available_parallelism()
            .map(|n| n.get() as u32)
            .unwrap_or(8);
        let (spec, gm_probe) = setup();
        let blocks = (host * 4).max(spec.ai_cores * 4);
        drop(gm_probe);
        let n = 64usize * blocks as usize;
        let run = || {
            let (spec, gm) = setup();
            let x = GlobalTensor::from_slice(&gm, &vec![3i32; n]).unwrap();
            let y = GlobalTensor::<i32>::new(&gm, n).unwrap();
            let report = launch(&spec, &gm, blocks, "oversub", |ctx| {
                let per = 64;
                let off = ctx.block_idx as usize * per;
                let v = &mut ctx.vecs[0];
                let mut buf = v.alloc_local::<i32>(ScratchpadKind::Ub, per)?;
                v.copy_in(&mut buf, 0, &x, off, per, &[])?;
                v.vadds(&mut buf, 0, per, 1, 0)?;
                v.copy_out(&y, off, &buf, 0, per, &[])?;
                v.free_local(buf)?;
                Ok(())
            })
            .unwrap();
            assert_eq!(y.to_vec(), vec![4i32; n]);
            report.to_json(&spec)
        };
        let a = run();
        let b = run();
        assert!(blocks > ChipSpec::tiny().ai_cores, "grid exceeds the chip");
        assert_eq!(a, b, "oversubscribed launches must replay byte-for-byte");
    }

    #[test]
    fn oversubscribed_blocks_time_share_slots() {
        let (spec, gm) = setup();
        let blocks = spec.ai_cores * 2 + 1;
        let n = 64usize * blocks as usize;
        let x = GlobalTensor::from_slice(&gm, &vec![1i32; n]).unwrap();
        let y = GlobalTensor::<i32>::new(&gm, n).unwrap();
        let report = launch(&spec, &gm, blocks, "waves", |ctx| {
            let per = 64;
            let off = ctx.block_idx as usize * per;
            let v = &mut ctx.vecs[0];
            let mut buf = v.alloc_local::<i32>(ScratchpadKind::Ub, per)?;
            v.copy_in(&mut buf, 0, &x, off, per, &[])?;
            v.copy_out(&y, off, &buf, 0, per, &[])?;
            v.free_local(buf)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(y.to_vec(), vec![1i32; n]);
        assert_eq!(report.blocks, blocks);
        // Three waves take roughly three times as long as one block's
        // work; at minimum the serialization must be visible.
        let single = {
            let (spec, gm) = setup();
            let x = GlobalTensor::from_slice(&gm, &vec![1i32; 64]).unwrap();
            let y = GlobalTensor::<i32>::new(&gm, 64).unwrap();
            launch(&spec, &gm, 1, "one", |ctx| {
                let v = &mut ctx.vecs[0];
                let mut buf = v.alloc_local::<i32>(ScratchpadKind::Ub, 64)?;
                v.copy_in(&mut buf, 0, &x, 0, 64, &[])?;
                v.copy_out(&y, 0, &buf, 0, 64, &[])?;
                v.free_local(buf)?;
                Ok(())
            })
            .unwrap()
        };
        assert!(
            report.cycles > single.cycles,
            "waves serialize: {} vs {}",
            report.cycles,
            single.cycles
        );
        assert_eq!(report.sync_rounds, 0);
    }

    #[test]
    fn sync_all_rendezvous_when_oversubscribed() {
        // Blocks beyond the chip's core count time-share slots via the
        // scheduler's yield/re-queue path — and can still cross a
        // SyncAll. Each block publishes its index before the barrier and
        // reads its successor's value after it, so the barrier carries a
        // real cross-block (and cross-wave) data dependency.
        let (spec, gm) = setup();
        let blocks = spec.ai_cores + 1;
        let stage = GlobalTensor::<i32>::new(&gm, blocks as usize).unwrap();
        let out = GlobalTensor::<i32>::new(&gm, blocks as usize).unwrap();
        let report = launch(&spec, &gm, blocks, "oversync", |ctx| {
            let idx = ctx.block_idx as usize;
            let peer = (idx + 1) % ctx.block_dim as usize;
            {
                let v = &mut ctx.vecs[0];
                let mut buf = v.alloc_local::<i32>(ScratchpadKind::Ub, 8)?;
                v.fill_local(&mut buf, 0, 8, ctx.block_idx as i32)?;
                v.copy_out(&stage, idx, &buf, 0, 1, &[])?;
                v.free_local(buf)?;
            }
            ctx.sync_all()?;
            let v = &mut ctx.vecs[0];
            let mut buf = v.alloc_local::<i32>(ScratchpadKind::Ub, 8)?;
            v.copy_in(&mut buf, 0, &stage, peer, 1, &[])?;
            v.copy_out(&out, idx, &buf, 0, 1, &[])?;
            v.free_local(buf)?;
            Ok(())
        })
        .unwrap();
        let expect: Vec<i32> = (0..blocks as i32)
            .map(|b| (b + 1) % blocks as i32)
            .collect();
        assert_eq!(out.to_vec(), expect);
        assert_eq!(report.sync_rounds, 1);
        assert!(blocks > spec.ai_cores);
    }

    #[test]
    fn finished_blocks_hand_their_thread_to_the_slot_successor() {
        // Without barriers every block parks only at its finish, so each
        // slot's tenants run one after another on one host thread; with
        // a barrier, a parked block keeps its thread and its successor
        // gets a new one.
        use std::collections::HashSet;
        use std::sync::Mutex;
        let (spec, gm) = setup();
        let blocks = spec.ai_cores * 4 + 1;
        for barrier in [false, true] {
            let threads = Mutex::new(HashSet::new());
            launch(&spec, &gm, blocks, "reuse", |ctx| {
                threads.lock().unwrap().insert(std::thread::current().id());
                if barrier {
                    ctx.sync_all()?;
                }
                Ok(())
            })
            .unwrap();
            let used = threads.into_inner().unwrap().len();
            let want = if barrier { blocks } else { spec.ai_cores };
            assert_eq!(used, want as usize, "barrier: {barrier}");
        }
    }

    #[test]
    fn serial_runs_one_block_at_a_time_in_index_order() {
        // Byte-identical reports cannot tell a serializing gate from a
        // concurrent one, so observe the host execution directly: under
        // `Serial` no two kernel segments overlap in wall time, and
        // segments run round by round in ascending block index — also
        // when the grid oversubscribes the chip's 2 cores.
        use ascend_sim::SchedPolicy;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let spec = ChipSpec::tiny().with_scheduler(SchedPolicy::Serial);
        for blocks in [2u32, 5] {
            let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
            let live = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let order = Mutex::new(Vec::new());
            let segment = |round: u32, block: u32| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                order.lock().unwrap().push((round, block));
                std::thread::sleep(std::time::Duration::from_millis(2));
                live.fetch_sub(1, Ordering::SeqCst);
            };
            launch(&spec, &gm, blocks, "serial", |ctx| {
                for round in 0..3 {
                    segment(round, ctx.block_idx);
                    ctx.sync_all()?;
                }
                segment(3, ctx.block_idx);
                Ok(())
            })
            .unwrap();
            assert_eq!(peak.load(Ordering::SeqCst), 1, "{blocks} blocks");
            let order = order.into_inner().unwrap();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(order, sorted, "{blocks} blocks");
            assert_eq!(order.len(), 4 * blocks as usize);
        }
    }

    #[test]
    fn grid_flags_chain_blocks_without_a_barrier() {
        // A miniature chained look-back: block b waits on b-1's grid
        // flag, reads b-1's mailbox, adds its own contribution, writes
        // its mailbox, and publishes its flag — a running sum across the
        // grid with no SyncAll, spanning waves (3 blocks on 2 cores).
        let (spec, gm) = setup();
        let blocks = spec.ai_cores + 1;
        let mailbox = GlobalTensor::<i32>::new(&gm, blocks as usize).unwrap();
        launch(&spec, &gm, blocks, "lookback", |ctx| {
            let idx = ctx.block_idx as usize;
            let grid = ctx.grid();
            let limit = ctx.spec().flag_id_limit;
            let v = &mut ctx.vecs[0];
            let mut buf = v.alloc_local::<i32>(ScratchpadKind::Ub, 8)?;
            let prev = if idx > 0 {
                let seen = v.wait_grid_flag(grid, (idx as u32 - 1) % limit)?;
                v.copy_in(&mut buf, 0, &mailbox, idx - 1, 1, &[seen])?;
                let (prev, _at) = v.extract(&buf, 0)?;
                prev
            } else {
                0
            };
            v.fill_local(&mut buf, 0, 8, prev + ctx.block_idx as i32 + 1)?;
            let stored = v.copy_out(&mailbox, idx, &buf, 0, 1, &[])?;
            if idx + 1 < ctx.block_dim as usize {
                v.set_grid_flag(grid, idx as u32 % limit, &[stored])?;
            }
            v.free_local(buf)?;
            Ok(())
        })
        .unwrap();
        // Inclusive prefix sums of 1..=blocks.
        let expect: Vec<i32> = (1..=blocks as i32)
            .scan(0, |s, b| {
                *s += b;
                Some(*s)
            })
            .collect();
        assert_eq!(mailbox.to_vec(), expect);
    }

    #[test]
    fn forward_grid_flag_wait_is_rejected() {
        // Waiting on a grid flag nobody published models a deadlock:
        // under ascending-index waves the set could never arrive.
        let (spec, gm) = setup();
        let err = launch(&spec, &gm, 2, "forward-wait", |ctx| {
            let grid = ctx.grid();
            ctx.vecs[0].wait_grid_flag(grid, 3).map(|_| ())
        })
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidArgument(_)));
        assert!(err.to_string().contains("unset grid flag"));
    }

    #[test]
    fn invalid_block_dim_rejected() {
        let (spec, gm) = setup();
        assert!(launch(&spec, &gm, 0, "x", |_| Ok(())).is_err());
        // Oversubscription is allowed (blocks wave-multiplex).
        assert!(launch(&spec, &gm, spec.ai_cores + 1, "x", |_| Ok(())).is_ok());
    }

    #[test]
    fn kernel_error_propagates() {
        let (spec, gm) = setup();
        let err = launch(&spec, &gm, 1, "fail", |ctx| {
            // UB on the tiny chip is 16 KiB; ask for 1 MiB.
            ctx.vecs[0]
                .alloc_local::<f32>(ScratchpadKind::Ub, 1 << 18)
                .map(|_| ())
        })
        .unwrap_err();
        assert!(matches!(err, SimError::ScratchpadOverflow { .. }));
    }

    #[test]
    fn early_error_does_not_deadlock_siblings() {
        let (spec, gm) = setup();
        // Block 0 fails before the barrier that block 1 reaches; the
        // launch must drain and report the error, not hang.
        let err = launch(&spec, &gm, 2, "mismatched", |ctx| {
            if ctx.block_idx == 0 {
                return Err(SimError::InvalidArgument("block 0 bails".into()));
            }
            ctx.sync_all()?;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidArgument(_)));
    }

    #[test]
    fn a_panicking_block_is_a_typed_error_not_a_hang() {
        // A block whose kernel panics before a barrier its siblings
        // reach: the launch must drain and return the panic as an error
        // under both gate strides and on an oversubscribed grid (5
        // blocks on the tiny chip's 2 cores). The launch runs on its own
        // thread so a hang fails the test instead of stalling it.
        use ascend_sim::SchedPolicy;
        use std::sync::mpsc;
        use std::time::Duration;
        for policy in [SchedPolicy::Serial, SchedPolicy::Parallel] {
            for (blocks, bad) in [(2u32, 0u32), (5, 3)] {
                let spec = ChipSpec::tiny().with_scheduler(policy.clone());
                let (tx, rx) = mpsc::channel();
                std::thread::spawn(move || {
                    let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
                    let res = launch(&spec, &gm, blocks, "panics", |ctx| {
                        if ctx.block_idx == bad {
                            panic!("block {bad} gives up");
                        }
                        ctx.sync_all()?;
                        Ok(())
                    });
                    let _ = tx.send(res.map(|r| r.cycles));
                });
                let case = format!("{policy:?}, {blocks} blocks");
                let res = rx
                    .recv_timeout(Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("{case}: the launch hung"));
                assert_eq!(
                    res,
                    Err(SimError::BlockPanicked {
                        block: bad,
                        message: format!("block {bad} gives up"),
                    }),
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn cube_and_vector_cores_cooperate() {
        let (spec, gm) = setup();
        let s = 4;
        // A: 4x4 of ones; B: upper triangular ones -> row prefix sums.
        let a_host = vec![1i8; s * s];
        let b_host: Vec<i8> = (0..s * s)
            .map(|i| if i / s <= i % s { 1 } else { 0 })
            .collect();
        let a = GlobalTensor::from_slice(&gm, &a_host).unwrap();
        let b = GlobalTensor::from_slice(&gm, &b_host).unwrap();
        let c = GlobalTensor::<i32>::new(&gm, s * s).unwrap();
        let out = GlobalTensor::<i32>::new(&gm, s * s).unwrap();

        launch(&spec, &gm, 1, "mix", |ctx| {
            // Cube: C = A @ B, write to GM, publish the hand-off flag.
            let flags = &ctx.flags;
            let cube = &mut ctx.cube;
            let mut la = cube.alloc_local::<i8>(ScratchpadKind::L0A, s * s)?;
            let mut lb = cube.alloc_local::<i8>(ScratchpadKind::L0B, s * s)?;
            let mut lc = cube.alloc_local::<i32>(ScratchpadKind::L0C, s * s)?;
            cube.copy_in(&mut la, 0, &a, 0, s * s, &[])?;
            cube.copy_in(&mut lb, 0, &b, 0, s * s, &[])?;
            cube.mmad::<i8>(&mut lc, &mut la, &mut lb, s, s, s, false)?;
            let cube_done = cube.copy_out(&c, 0, &lc, 0, s * s, &[])?;
            cube.set_flag(flags, 0, &[cube_done])?;

            // Vector: wait on the flag, read the cube's result, add 100.
            let v = &mut ctx.vecs[0];
            let ready = v.wait_flag(flags, 0)?;
            let mut buf = v.alloc_local::<i32>(ScratchpadKind::Ub, s * s)?;
            v.copy_in(&mut buf, 0, &c, 0, s * s, &[ready])?;
            v.vadds(&mut buf, 0, s * s, 100, 0)?;
            v.copy_out(&out, 0, &buf, 0, s * s, &[])?;
            Ok(())
        })
        .unwrap();

        let result = out.to_vec();
        assert_eq!(&result[..4], &[101, 102, 103, 104]);
        assert_eq!(&result[12..], &[101, 102, 103, 104]);
    }
}
