//! Runtime sanitizer layer ("simcheck").
//!
//! The simulator already turns hard failures (out-of-bounds accesses,
//! scratchpad overflow) into [`SimError`]s. This module adds the checks
//! that catch *silent* misuse — bugs that on real hardware corrupt data
//! or timing without any diagnostic:
//!
//! * **Scratchpad lifetimes** ([`ScratchTracker`]): every local-buffer
//!   allocation gets a unique id and an address range inside its
//!   scratchpad (UB/L1/L0A/L0B/L0C). Using or freeing a buffer after it
//!   was freed is a use-after-free; using a stale buffer whose range has
//!   since been handed to a live allocation is an overlap.
//! * **Engine-occupancy audit** ([`audit_engine_occupancy`]): per-engine
//!   event times must be monotone — an in-order engine queue can never
//!   run two instructions in overlapping intervals — and the tenants of
//!   one physical core slot never double-book an engine.
//! * **Accounting audits** ([`audit_report`]): per-engine busy cycles
//!   are bounded by `cores-with-engine x cycles`, and the report's
//!   traffic must reconcile with the [`GlobalMemory`] transfer counters.
//! * **Schedule audits** ([`audit_schedule`]): the happens-before
//!   analyzer ([`crate::hb`], a.k.a. `simlint`) replays the launch's
//!   synchronization structure; error-severity findings (GM data races,
//!   unmatched flag waits, flag reuse across barrier rounds, deadlock
//!   shapes) abort the launch.
//!
//! All checks are *observational*: they never issue instructions or
//! advance any timeline, so enabling them cannot change a kernel's
//! simulated cycles, traffic, or engine occupancy (the determinism
//! fingerprints tests rely on).
//!
//! [`GlobalMemory`]: crate::mem::GlobalMemory

use crate::chip::ChipSpec;
use crate::engine::EngineKind;
use crate::error::{SimError, SimResult};
use crate::graph::LaunchGraph;
use crate::hb::{self, Severity};
use crate::report::KernelReport;
use crate::trace::TraceEvent;
use std::collections::{BTreeMap, HashMap};

/// How much runtime validation the simulator performs.
///
/// Carried on [`ChipSpec`](crate::ChipSpec::validation) so a single
/// launch-side switch covers every kernel: tests run the presets'
/// default ([`ValidationMode::Full`]); benchmarks downgrade to
/// [`ValidationMode::Cheap`] via
/// [`ChipSpec::with_validation`](crate::ChipSpec::with_validation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ValidationMode {
    /// O(1) structural checks only (queue protocol, bounds). No
    /// per-allocation lifetime tracking, no post-launch audits.
    Cheap,
    /// Everything: lifetime/overlap tracking, timeline monotonicity and
    /// accounting audits. The default, and what all tests run under.
    #[default]
    Full,
    /// [`ValidationMode::Full`] plus per-element data validation: every
    /// tensor enqueued into a [`TQue`] is checksummed and the checksum is
    /// re-verified at `deque`, catching any corruption of the payload
    /// across the cross-core handoff. Off by default — the checksums are
    /// O(bytes) per handoff.
    ///
    /// [`TQue`]: https://docs.rs/ascendc
    Paranoid,
}

impl ValidationMode {
    /// Whether scratchpad lifetime/overlap tracking is active.
    pub fn lifetime_checks(self) -> bool {
        matches!(self, ValidationMode::Full | ValidationMode::Paranoid)
    }

    /// Whether post-launch timeline and accounting audits run.
    pub fn audits(self) -> bool {
        matches!(self, ValidationMode::Full | ValidationMode::Paranoid)
    }

    /// Whether enque/deque payload checksumming is active.
    pub fn checksums(self) -> bool {
        matches!(self, ValidationMode::Paranoid)
    }
}

/// A live or freed scratchpad allocation: pad index, byte offset, byte
/// length, and the pad's display name.
#[derive(Clone, Copy, Debug)]
struct AllocInfo {
    pad: usize,
    offset: usize,
    len: usize,
    buffer: &'static str,
}

/// Number of distinct scratchpads tracked per core (UB, L1, L0A/B/C).
pub const TRACKED_PADS: usize = 5;

/// Per-core scratchpad lifetime tracker.
///
/// The owning core assigns each allocation a process-unique id (0 means
/// "untracked"); the tracker places it at a concrete byte range via
/// first-fit and remembers freed allocations so later uses of stale
/// handles can be classified as use-after-free or overlap.
///
/// Ids the tracker never allocated (e.g. a tensor handed over from a
/// different core) are ignored rather than flagged: cross-core traffic
/// is policed by the position checks, not by this tracker.
#[derive(Debug, Default)]
pub struct ScratchTracker {
    active: bool,
    /// Live ranges per pad, kept sorted by offset: `(offset, len, id)`.
    ranges: [Vec<(usize, usize, u64)>; TRACKED_PADS],
    live: HashMap<u64, AllocInfo>,
    freed: HashMap<u64, AllocInfo>,
}

impl ScratchTracker {
    /// Creates a tracker; when `active` is false every operation is a
    /// no-op returning success (the `Cheap` mode).
    pub fn new(active: bool) -> Self {
        ScratchTracker {
            active,
            ..Default::default()
        }
    }

    /// Registers an allocation of `len` bytes in pad `pad` under the
    /// caller-supplied unique `id`. Placement is first-fit among the
    /// pad's live ranges; when fragmentation leaves no gap inside
    /// `capacity` the range is placed past the end instead — placement
    /// exists for overlap classification only and must never invent
    /// failures the capacity accounting did not.
    pub fn on_alloc(
        &mut self,
        id: u64,
        pad: usize,
        buffer: &'static str,
        len: usize,
        capacity: usize,
    ) {
        if !self.active || id == 0 {
            return;
        }
        let ranges = &mut self.ranges[pad];
        let mut offset = 0usize;
        let mut slot = ranges.len();
        for (i, &(start, rlen, _)) in ranges.iter().enumerate() {
            if offset + len <= start {
                slot = i;
                break;
            }
            offset = offset.max(start + rlen);
        }
        if slot == ranges.len() && offset + len > capacity {
            // Fragmented: no in-capacity gap. Park the range past the
            // current maximum so it overlaps nothing live.
            offset = ranges.last().map_or(0, |&(s, l, _)| s + l).max(offset);
        }
        ranges.insert(slot.min(ranges.len()), (offset, len, id));
        ranges.sort_unstable_by_key(|&(s, _, _)| s);
        self.live.insert(
            id,
            AllocInfo {
                pad,
                offset,
                len,
                buffer,
            },
        );
    }

    /// Validates and records a free of allocation `id`. Freeing an
    /// already-freed allocation is a use-after-free; unknown ids are
    /// foreign and ignored.
    pub fn on_free(&mut self, id: u64, what: &'static str) -> SimResult<()> {
        if !self.active || id == 0 {
            return Ok(());
        }
        if let Some(info) = self.live.remove(&id) {
            self.ranges[info.pad].retain(|&(_, _, rid)| rid != id);
            self.freed.insert(id, info);
            return Ok(());
        }
        if let Some(info) = self.freed.get(&id) {
            return Err(SimError::ScratchpadUseAfterFree {
                buffer: info.buffer,
                what,
            });
        }
        Ok(())
    }

    /// Validates a use (read or write) of allocation `id`. A freed
    /// allocation whose byte range has since been handed to a live
    /// allocation is an overlap (two tiles believe they own the same
    /// addresses); a freed allocation with no such conflict is a plain
    /// use-after-free. Unknown ids are foreign and ignored.
    pub fn check_use(&self, id: u64, what: &'static str) -> SimResult<()> {
        if !self.active || id == 0 || self.live.contains_key(&id) {
            return Ok(());
        }
        let Some(info) = self.freed.get(&id) else {
            return Ok(());
        };
        let stale_end = info.offset + info.len;
        let overlaps_live = self.ranges[info.pad]
            .iter()
            .any(|&(start, len, _)| start < stale_end && info.offset < start + len);
        if overlaps_live && info.len > 0 {
            Err(SimError::ScratchpadOverlap {
                buffer: info.buffer,
                what,
            })
        } else {
            Err(SimError::ScratchpadUseAfterFree {
                buffer: info.buffer,
                what,
            })
        }
    }

    /// Number of currently live tracked allocations (diagnostics).
    pub fn live_count(&self) -> usize {
        self.live.len()
    }
}

/// Audits a launch's recorded engine-occupancy events in one pass over
/// its `(slot, core, engine)` streams, where block `b` occupies physical
/// core slot `b % phys_blocks` (`phys_blocks = min(blocks, ai_cores)`):
///
/// * every interval is well-formed (`end >= start`);
/// * within each `(block, core, engine)` stream, in record order, every
///   interval starts at or after the previous one's end — an in-order
///   engine queue never overlaps two instructions;
/// * no two tenants of a slot are busy on one engine in overlapping
///   intervals, in any record order — a block that migrates onto a slot
///   runs only after the previous tenant's interval ended, or the trace
///   double-books silicon (impossible parallelism, occupancy > 100%).
pub fn audit_engine_occupancy(events: &[TraceEvent], phys_blocks: u32) -> SimResult<()> {
    Occupancy::default().audit(events, phys_blocks)
}

/// [`audit_engine_occupancy`] run one barrier epoch at a time: what the
/// epochs audited so far leave for the next.
#[derive(Debug, Default)]
pub struct Occupancy {
    /// Per `(block, core, engine)` stream: its last interval's end.
    last_end: HashMap<(u32, u32, usize), u64>,
    /// Per `(slot, core, engine)` stream: the latest end of any earlier
    /// epoch's interval. Every core aligns to a barrier's release, so an
    /// interval of a later epoch starts at or after it.
    floor: HashMap<(u32, u32, usize), u64>,
}

impl Occupancy {
    /// Audits the next epoch's `events` (see [`audit_engine_occupancy`]);
    /// each interval must also start at or after every interval an
    /// earlier epoch recorded on its `(slot, core, engine)` stream.
    pub fn audit(&mut self, events: &[TraceEvent], phys_blocks: u32) -> SimResult<()> {
        /// `(slot, core, engine)` -> `(start, end, block)` intervals, in
        /// record order.
        type SlotStreams = BTreeMap<(u32, u32, usize), Vec<(u64, u64, u32)>>;
        let phys = phys_blocks.max(1);
        let mut streams = SlotStreams::new();
        for e in events {
            if e.end < e.start {
                return Err(SimError::AccountingViolation {
                    what: "trace event interval",
                    detail: format!(
                        "block {} core {} engine {}: end {} precedes start {}",
                        e.block,
                        e.core,
                        e.engine.name(),
                        e.end,
                        e.start
                    ),
                });
            }
            streams
                .entry((e.block % phys, e.core, e.engine.index()))
                .or_default()
                .push((e.start, e.end, e.block));
        }
        for ((slot, core, engine), mut iv) in streams {
            let key = (slot, core, engine);
            let name = EngineKind::ALL[engine].name();
            for &(start, end, block) in &iv {
                match self.last_end.insert((block, core, engine), end) {
                    Some(prev) if start < prev => {
                        return Err(SimError::AccountingViolation {
                            what: "engine timeline monotonicity",
                            detail: format!(
                                "block {block} core {core} engine {name}: event starts at \
                                 {start} before previous end {prev}"
                            ),
                        })
                    }
                    _ => {}
                }
            }
            iv.sort_unstable();
            let floor = self.floor.get(&key).copied().unwrap_or(0);
            if let Some(&(start, end, block)) = iv.first().filter(|iv| iv.0 < floor) {
                return Err(SimError::AccountingViolation {
                    what: "physical core occupancy",
                    detail: format!(
                        "slot {slot} core {core} engine {name}: block {block} busy \
                         [{start}, {end}) overlaps an earlier epoch's interval ending at \
                         {floor}"
                    ),
                });
            }
            for w in iv.windows(2) {
                let (prev_start, prev_end, prev_block) = w[0];
                let (start, end, block) = w[1];
                if start < prev_end && prev_start < end {
                    return Err(SimError::AccountingViolation {
                        what: "physical core occupancy",
                        detail: format!(
                            "slot {slot} core {core} engine {name}: block {block} busy \
                             [{start}, {end}) overlaps block {prev_block}'s interval \
                             [{prev_start}, {prev_end})"
                        ),
                    });
                }
            }
            let top = iv.iter().map(|i| i.1).max().unwrap_or(0);
            self.floor.insert(key, floor.max(top));
        }
        Ok(())
    }
}

/// Runs the happens-before schedule analyzer ([`crate::hb`], the engine
/// behind `simlint`) over a launch's graph and converts the first
/// error-severity finding into a launch failure.
///
/// Warning-severity findings (flag/alloc/queue leaks, dead transfers)
/// are tolerated in-process — hygiene is enforced offline by the
/// `simlint` CLI, which fails on any finding — so unit-test kernels
/// that deliberately leak a buffer still run.
pub fn audit_schedule(graph: &LaunchGraph<'_>) -> SimResult<()> {
    for d in hb::check(graph) {
        if d.severity == Severity::Error {
            return Err(SimError::ScheduleHazard {
                what: d.code,
                detail: d.message,
            });
        }
    }
    Ok(())
}

/// Audits a finished [`KernelReport`] against the chip spec and the
/// observed global-memory counter deltas:
///
/// * per-engine busy cycles cannot exceed `cores-with-engine x cycles`
///   (an engine cannot be busy longer than the kernel ran);
/// * `bytes_read`/`bytes_written` must equal the deltas measured on the
///   [`GlobalMemory`](crate::mem::GlobalMemory) transfer counters.
pub fn audit_report(
    report: &KernelReport,
    spec: &ChipSpec,
    gm_read_delta: u64,
    gm_written_delta: u64,
) -> SimResult<()> {
    for e in EngineKind::ALL {
        let bound = spec.cores_with_engine(report.blocks, e) * report.cycles;
        let busy = report.engine_busy[e.index()];
        if busy > bound {
            return Err(SimError::AccountingViolation {
                what: "engine busy cycles",
                detail: format!(
                    "engine {}: {busy} busy cycles exceed bound {bound} ({} cores x {} cycles)",
                    e.name(),
                    spec.cores_with_engine(report.blocks, e),
                    report.cycles
                ),
            });
        }
    }
    if report.bytes_read != gm_read_delta {
        return Err(SimError::AccountingViolation {
            what: "bytes_read reconciliation",
            detail: format!(
                "report claims {} B read but global memory counted {gm_read_delta} B",
                report.bytes_read
            ),
        });
    }
    if report.bytes_written != gm_written_delta {
        return Err(SimError::AccountingViolation {
            what: "bytes_written reconciliation",
            detail: format!(
                "report claims {} B written but global memory counted {gm_written_delta} B",
                report.bytes_written
            ),
        });
    }
    Ok(())
}

/// Audits the stall-attribution partition of a launched kernel's report:
/// with every core created at `launch_cycles` and aligned to the kernel
/// end, each engine's time decomposes *exactly* as
///
/// ```text
/// busy + stall_dependency + stall_barrier + stall_flag
///     == cores_with_engine × (cycles − launch_cycles)
/// ```
///
/// (contention overlaps busy time and is deliberately outside the
/// partition). Only valid for reports produced by the launch machinery —
/// synthetic or [`KernelReport::sequential`] reports don't satisfy it,
/// and neither do oversubscribed launches (`blocks > ai_cores`), where
/// blocks time-share physical cores and are not aligned to a common
/// kernel end; the launch path skips the audit for those.
pub fn audit_stall_accounting(report: &KernelReport, spec: &ChipSpec) -> SimResult<()> {
    let span = report.cycles.saturating_sub(spec.launch_cycles);
    for e in EngineKind::ALL {
        let i = e.index();
        let accounted = report.engine_busy[i]
            + report.stalls.dependency[i]
            + report.stalls.barrier[i]
            + report.stalls.flag[i];
        let expected = spec.cores_with_engine(report.blocks, e) * span;
        if accounted != expected {
            return Err(SimError::AccountingViolation {
                what: "stall accounting partition",
                detail: format!(
                    "engine {}: busy {} + dep {} + barrier {} + flag {} = {accounted} \
                     != {expected} ({} cores x {span} cycles)",
                    e.name(),
                    report.engine_busy[i],
                    report.stalls.dependency[i],
                    report.stalls.barrier[i],
                    report.stalls.flag[i],
                    spec.cores_with_engine(report.blocks, e),
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const UB: usize = 0;

    fn tracker() -> ScratchTracker {
        ScratchTracker::new(true)
    }

    #[test]
    fn validation_mode_gating() {
        assert!(ValidationMode::Full.lifetime_checks());
        assert!(ValidationMode::Full.audits());
        assert!(!ValidationMode::Full.checksums());
        assert!(ValidationMode::Paranoid.lifetime_checks());
        assert!(ValidationMode::Paranoid.audits());
        assert!(ValidationMode::Paranoid.checksums());
        assert!(!ValidationMode::Cheap.lifetime_checks());
        assert!(!ValidationMode::Cheap.audits());
        assert!(!ValidationMode::Cheap.checksums());
        assert_eq!(ValidationMode::default(), ValidationMode::Full);
    }

    #[test]
    fn live_allocation_passes_checks() {
        let mut t = tracker();
        t.on_alloc(1, UB, "UB", 256, 1024);
        assert!(t.check_use(1, "copy").is_ok());
        assert_eq!(t.live_count(), 1);
        assert!(t.on_free(1, "free_local").is_ok());
        assert_eq!(t.live_count(), 0);
    }

    #[test]
    fn use_after_free_is_detected() {
        let mut t = tracker();
        t.on_alloc(1, UB, "UB", 256, 1024);
        t.on_free(1, "free_local").unwrap();
        let err = t.check_use(1, "Adds").unwrap_err();
        assert!(matches!(err, SimError::ScratchpadUseAfterFree { .. }));
    }

    #[test]
    fn double_free_is_detected() {
        let mut t = tracker();
        t.on_alloc(1, UB, "UB", 256, 1024);
        t.on_free(1, "free_local").unwrap();
        let err = t.on_free(1, "free_local").unwrap_err();
        assert!(matches!(err, SimError::ScratchpadUseAfterFree { .. }));
    }

    #[test]
    fn stale_use_over_recycled_range_is_overlap() {
        let mut t = tracker();
        t.on_alloc(1, UB, "UB", 256, 1024);
        t.on_free(1, "free_local").unwrap();
        // The freed range is recycled by a new live allocation.
        t.on_alloc(2, UB, "UB", 256, 1024);
        let err = t.check_use(1, "Adds").unwrap_err();
        assert!(matches!(err, SimError::ScratchpadOverlap { .. }));
    }

    #[test]
    fn foreign_and_untracked_ids_are_ignored() {
        let mut t = tracker();
        assert!(t.check_use(0, "x").is_ok());
        assert!(t.check_use(999, "x").is_ok());
        assert!(t.on_free(0, "x").is_ok());
        assert!(t.on_free(999, "x").is_ok());
    }

    #[test]
    fn inactive_tracker_is_a_no_op() {
        let mut t = ScratchTracker::new(false);
        t.on_alloc(1, UB, "UB", 256, 1024);
        t.on_free(1, "f").unwrap();
        t.on_free(1, "f").unwrap();
        assert!(t.check_use(1, "x").is_ok());
    }

    #[test]
    fn first_fit_reuses_gaps() {
        let mut t = tracker();
        t.on_alloc(1, UB, "UB", 100, 1024);
        t.on_alloc(2, UB, "UB", 100, 1024);
        t.on_free(1, "f").unwrap();
        // Id 3 takes id 1's old range [0, 100); stale id 1 now overlaps.
        t.on_alloc(3, UB, "UB", 50, 1024);
        assert!(matches!(
            t.check_use(1, "x"),
            Err(SimError::ScratchpadOverlap { .. })
        ));
        // Id 2's range is untouched and still live.
        assert!(t.check_use(2, "x").is_ok());
    }

    #[test]
    fn engine_occupancy_audit_checks_intervals_order_and_slots() {
        let ev = |block, start, end| TraceEvent {
            block,
            core: 0,
            engine: EngineKind::Vec,
            start,
            end,
        };
        let what = |events: &[TraceEvent], phys| match audit_engine_occupancy(events, phys) {
            Err(SimError::AccountingViolation { what, detail }) => (what, detail),
            other => panic!("expected an accounting violation, got {other:?}"),
        };
        // One block's in-order engine stream: monotone passes, an event
        // starting before its predecessor ends fails, as does end < start.
        assert!(audit_engine_occupancy(&[ev(0, 0, 10), ev(0, 10, 20), ev(0, 25, 30)], 1).is_ok());
        assert_eq!(
            what(&[ev(0, 0, 10), ev(0, 5, 20)], 1).0,
            "engine timeline monotonicity"
        );
        assert_eq!(what(&[ev(0, 10, 5)], 1).0, "trace event interval");
        // Two waves on 2 physical slots: blocks 0 and 2 share slot 0.
        // Block 2 runs strictly after block 0 — fine.
        let ok = [
            ev(0, 100, 200),
            ev(1, 100, 180),
            ev(2, 200, 300),
            ev(3, 180, 250),
        ];
        assert!(audit_engine_occupancy(&ok, 2).is_ok());
        // Regression: a migrated block whose interval overlaps the
        // previous tenant of the same slot double-books the silicon.
        let bad = [ev(0, 100, 200), ev(2, 150, 250)];
        let (what_bad, detail) = what(&bad, 2);
        assert_eq!(what_bad, "physical core occupancy");
        assert!(detail.contains("slot 0"));
        // The same intervals on distinct slots are concurrent, not
        // double-booked.
        assert!(audit_engine_occupancy(&bad, 4).is_ok());
        // Record order must not matter across tenants.
        let bad_rev = [ev(2, 150, 250), ev(0, 100, 200)];
        assert_eq!(what(&bad_rev, 2).0, "physical core occupancy");
    }

    #[test]
    fn schedule_audit_fails_on_errors_tolerates_warnings() {
        use crate::trace::{HbAction, HbEvent};
        assert!(audit_schedule(&LaunchGraph::build(&[])).is_ok());
        // A leaked allocation is warning-severity: launch still passes.
        let leak = [HbEvent {
            block: 0,
            core: 1,
            time: 10,
            what: "AllocLocal",
            action: HbAction::Alloc { id: 1, bytes: 64 },
        }];
        assert!(audit_schedule(&LaunchGraph::build(&leak)).is_ok());
        // A cross-block GM race is error-severity: launch fails.
        let mk_write = |block| HbEvent {
            block,
            core: 1,
            time: 10,
            what: "DataCopy",
            action: HbAction::GmWrite { start: 0, end: 64 },
        };
        let err = audit_schedule(&LaunchGraph::build(&[mk_write(0), mk_write(1)])).unwrap_err();
        match err {
            SimError::ScheduleHazard { what, .. } => assert_eq!(what, "gm-race"),
            other => panic!("expected ScheduleHazard, got {other:?}"),
        }
    }

    #[test]
    fn report_audit_bounds_busy_and_reconciles_traffic() {
        let spec = ChipSpec::tiny();
        let mut report = KernelReport {
            name: "t".into(),
            blocks: 1,
            cycles: 1000,
            clock_ghz: 1.0,
            bytes_read: 512,
            bytes_written: 256,
            useful_bytes: 768,
            elements: 128,
            working_set: 768,
            engine_busy: [0; EngineKind::ALL.len()],
            engine_instructions: [0; EngineKind::ALL.len()],
            sync_rounds: 0,
            stalls: crate::prof::StallTally::default(),
            barrier_waits: Vec::new(),
            flag_waits: Vec::new(),
            critical_path: None,
        };
        assert!(audit_report(&report, &spec, 512, 256).is_ok());

        // Vec engine exists only on the 2 vector cores: bound is 2000.
        report.engine_busy[EngineKind::Vec.index()] = 2001;
        assert!(matches!(
            audit_report(&report, &spec, 512, 256),
            Err(SimError::AccountingViolation { .. })
        ));
        report.engine_busy[EngineKind::Vec.index()] = 2000;
        assert!(audit_report(&report, &spec, 512, 256).is_ok());

        // Traffic mismatch in either direction is caught.
        assert!(matches!(
            audit_report(&report, &spec, 513, 256),
            Err(SimError::AccountingViolation { .. })
        ));
        assert!(matches!(
            audit_report(&report, &spec, 512, 0),
            Err(SimError::AccountingViolation { .. })
        ));
    }

    #[test]
    fn stall_accounting_partition_must_close() {
        let spec = ChipSpec::tiny();
        let span = 900u64; // cycles - launch_cycles (tiny: launch = 100)
        let mut report = KernelReport {
            name: "t".into(),
            blocks: 1,
            cycles: spec.launch_cycles + span,
            clock_ghz: 1.0,
            bytes_read: 0,
            bytes_written: 0,
            useful_bytes: 0,
            elements: 0,
            working_set: 0,
            engine_busy: [0; EngineKind::ALL.len()],
            engine_instructions: [0; EngineKind::ALL.len()],
            sync_rounds: 0,
            stalls: crate::prof::StallTally::default(),
            barrier_waits: Vec::new(),
            flag_waits: Vec::new(),
            critical_path: None,
        };
        // Fill every engine's partition exactly: busy + dep + barrier +
        // flag must equal cores_with_engine x span.
        for e in EngineKind::ALL {
            let cores = spec.cores_with_engine(1, e);
            report.engine_busy[e.index()] = 100 * cores;
            report.stalls.dependency[e.index()] = 300 * cores;
            report.stalls.flag[e.index()] = 50 * cores;
            report.stalls.barrier[e.index()] = (span - 450) * cores;
        }
        assert!(audit_stall_accounting(&report, &spec).is_ok());

        // A missing cycle anywhere breaks the partition.
        report.stalls.barrier[EngineKind::Vec.index()] -= 1;
        assert!(matches!(
            audit_stall_accounting(&report, &spec),
            Err(SimError::AccountingViolation { .. })
        ));
        report.stalls.barrier[EngineKind::Vec.index()] += 1;
        // So does an excess flag-wait cycle.
        report.stalls.flag[EngineKind::Scalar.index()] += 1;
        assert!(matches!(
            audit_stall_accounting(&report, &spec),
            Err(SimError::AccountingViolation { .. })
        ));
    }
}
