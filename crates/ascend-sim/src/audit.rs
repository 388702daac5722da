//! A launch's recorded-schedule audits, run one barrier epoch at a time.
//!
//! Under [`ValidationMode::Full`](crate::ValidationMode) a launch audits
//! its engine occupancy ([`simcheck::Occupancy`]), its happens-before
//! schedule ([`crate::hb`]) and its critical path ([`crate::critpath`])
//! from the busy, stall and happens-before records its cores leave. A
//! persistent kernel leaves many of them (about 150K for a one-launch
//! radix sort of 128K fp16 keys), so instead of holding a whole
//! launch's records until it ends, every block hands
//! over its records at each `SyncAll` and at its finish
//! ([`LaunchAudit::deposit`]). Once every block has handed over an epoch
//! — the records between two barrier releases — the launching thread
//! audits it and drops it ([`LaunchAudit::audit_epochs`]):
//!
//! * the occupancy audit carries each engine stream's last end;
//! * the schedule graph carries the flag tokens still open and each
//!   queue's balance ([`Carry`]): everything before a barrier
//!   happens-before everything after it;
//! * the critical-path walk covers the epoch from its round record back
//!   to the previous release ([`critpath::walk`]); the joined segments
//!   are summarized once the launch ends ([`LaunchAudit::finish`]).
//!
//! Records are kept past their audit only when a profile collector wants
//! them. Epochs the blocks did not all close with a barrier (the kernel
//! end, or a block that finished while others went on synchronizing) are
//! audited together when the launch ends.

use crate::chip::ChipSpec;
use crate::critpath::{self, CritInput, CritReport, PathSeg};
use crate::error::{SimError, SimResult};
use crate::graph::{Carry, LaunchGraph};
use crate::prof::{StallEvent, TraceSpan};
use crate::simcheck::{self, Occupancy};
use crate::sync::Scheduler;
use crate::timeline::EventTime;
use crate::trace::{HbEvent, TraceEvent};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Busy, idle and happens-before records: one core's in one epoch, or
/// everything a launch kept for its profile collector.
#[derive(Clone, Debug, Default)]
pub struct Records {
    /// Engine busy intervals.
    pub events: Vec<TraceEvent>,
    /// Engine idle intervals with their causes.
    pub stalls: Vec<StallEvent>,
    /// Happens-before events.
    pub hb: Vec<HbEvent>,
}

impl Records {
    fn append(&mut self, mut other: Records) {
        self.events.append(&mut other.events);
        self.stalls.append(&mut other.stalls);
        self.hb.append(&mut other.hb);
    }
}

/// What the audits of a launch need besides its records.
struct AuditConfig {
    /// Run the occupancy and schedule audits (the critical-path walk
    /// always runs).
    audits: bool,
    /// Keep every record for a profile collector.
    keep: bool,
    /// Blocks in the launch.
    blocks: u32,
    /// Physical core slots the blocks share.
    phys_blocks: u32,
    /// Launch latency: the origin of the critical path's first epoch.
    origin: EventTime,
    flag_wait_cycles: u64,
    flag_set_cycles: u64,
}

/// One epoch's deposits: per block, its cores' records, and how many
/// blocks closed the epoch at a barrier.
#[derive(Default)]
struct Epoch {
    at_barrier: u32,
    blocks: BTreeMap<u32, Vec<Records>>,
}

/// The deposits not audited yet, shared by the block threads.
#[derive(Default)]
struct Pending {
    epochs: BTreeMap<u32, Epoch>,
    /// The first epoch not audited yet.
    next: u32,
    /// Blocks that have handed over their last records.
    finished: u32,
}

/// What the audits carry from epoch to epoch; only the launching thread
/// touches it.
#[derive(Default)]
struct State {
    occupancy: Occupancy,
    carry: Carry,
    /// The critical path's segments so far, in ascending order.
    path: Vec<PathSeg>,
    /// Per block, per core: every record, when kept.
    kept: BTreeMap<u32, Vec<Records>>,
    /// The first audit failure; later epochs are dropped unaudited.
    error: Option<SimError>,
}

/// The streaming audits of one launch (see the module docs). Block
/// threads [`deposit`](LaunchAudit::deposit) their records; the
/// launching thread audits each epoch once it is complete
/// ([`audit_epochs`](LaunchAudit::audit_epochs)), so every audit's
/// working memory comes from one thread's allocator, whichever block
/// closed the epoch.
pub struct LaunchAudit {
    cfg: AuditConfig,
    pending: Mutex<Pending>,
    /// Signalled when an epoch completes or a block finishes.
    changed: Condvar,
    state: Mutex<State>,
}

impl LaunchAudit {
    /// Audits for a launch of `blocks` blocks on `spec`, keeping every
    /// record for a profile collector when `keep`.
    pub fn new(spec: &ChipSpec, blocks: u32, keep: bool) -> Self {
        let cfg = AuditConfig {
            audits: spec.validation.audits(),
            keep,
            blocks,
            phys_blocks: blocks.min(spec.ai_cores),
            origin: spec.launch_cycles,
            flag_wait_cycles: spec.flag_wait_cycles,
            flag_set_cycles: spec.flag_set_cycles,
        };
        LaunchAudit {
            cfg,
            pending: Mutex::new(Pending::default()),
            changed: Condvar::new(),
            state: Mutex::new(State::default()),
        }
    }

    fn pending(&self) -> MutexGuard<'_, Pending> {
        self.pending
            .lock()
            .expect("a block thread panicked while depositing its records")
    }

    /// Hands over block `block`'s records of epoch `epoch`, one entry per
    /// core: at a `SyncAll` once its release has aligned the cores
    /// (`at_barrier`), or at the block's finish.
    pub fn deposit(&self, block: u32, epoch: u32, records: Vec<Records>, at_barrier: bool) {
        let mut p = self.pending();
        let e = p.epochs.entry(epoch).or_default();
        e.at_barrier += u32::from(at_barrier);
        e.blocks.insert(block, records);
        p.finished += u32::from(!at_barrier);
        self.changed.notify_one();
    }

    /// For the launching thread while the blocks run: audits each epoch
    /// every block has closed at a barrier, oldest first, with `sched`'s
    /// round records, until every block has finished or `gone` reports
    /// that no block thread is left to deposit.
    pub fn audit_epochs(&self, sched: &Scheduler, gone: impl Fn() -> bool) {
        let mut st = self
            .state
            .lock()
            .expect("the launching thread panicked while auditing");
        let mut p = self.pending();
        loop {
            let next = p.next;
            if p.epochs
                .get(&next)
                .is_some_and(|e| e.at_barrier == self.cfg.blocks)
            {
                let e = p.epochs.remove(&next).expect("a complete epoch");
                p.next += 1;
                drop(p);
                if st.error.is_none() {
                    let rounds = sched.round_records();
                    let run = audit_run(&self.cfg, &mut st, vec![e], next as usize, &rounds, None);
                    st.error = run.err();
                }
                p = self.pending();
                continue;
            }
            if p.finished == self.cfg.blocks || gone() {
                return;
            }
            p = self
                .changed
                .wait_timeout(p, Duration::from_millis(10))
                .expect("a block thread panicked while depositing its records")
                .0;
        }
    }

    /// Audits every epoch still pending, as one run, against the kernel
    /// end `cycles`, and joins the critical path with the launch's phase
    /// `spans`. Returns the path and, when kept, every record.
    pub fn finish(
        self,
        sched: &Scheduler,
        cycles: EventTime,
        spans: &[TraceSpan],
    ) -> SimResult<(CritReport, Records)> {
        let mut st = self
            .state
            .into_inner()
            .expect("the launching thread panicked while auditing");
        if let Some(err) = st.error.take() {
            return Err(err);
        }
        let p = self
            .pending
            .into_inner()
            .expect("a block thread panicked while depositing its records");
        let rounds = sched.round_records();
        let epochs: Vec<Epoch> = p.epochs.into_values().collect();
        let finale = sched.final_record();
        // The last run ends at the kernel end.
        let end = Some((cycles, finale));
        audit_run(&self.cfg, &mut st, epochs, p.next as usize, &rounds, end)?;
        let path = critpath::summarize(std::mem::take(&mut st.path), cycles, spans)?;
        let mut kept = Records::default();
        for core in std::mem::take(&mut st.kept).into_values().flatten() {
            kept.append(core);
        }
        Ok((path, kept))
    }
}

/// Audits `epochs`, a run starting at epoch `first`: the occupancy and
/// schedule audits over their records, then the critical path through
/// them — through the round that closes the last one, or, with `end`,
/// through the kernel end.
fn audit_run(
    cfg: &AuditConfig,
    st: &mut State,
    epochs: Vec<Epoch>,
    first: usize,
    rounds: &[crate::sync::RoundRecord],
    end: Option<(EventTime, Option<crate::sync::FinalRecord>)>,
) -> SimResult<()> {
    // Block order, then core order, then epoch order: a core's
    // records stay in program order.
    let mut blocks: BTreeMap<u32, Vec<Records>> = BTreeMap::new();
    let count = epochs.len();
    for e in epochs {
        for (block, cores) in e.blocks {
            merge(&mut blocks, block, cores);
        }
    }
    // One list of each kind, sized up front: a long launch's records
    // would otherwise be copied once per doubling.
    let total = |len: fn(&Records) -> usize| blocks.values().flatten().map(len).sum();
    let mut run = Records {
        events: Vec::with_capacity(total(|c| c.events.len())),
        stalls: Vec::with_capacity(total(|c| c.stalls.len())),
        hb: Vec::with_capacity(total(|c| c.hb.len())),
    };
    let kept = if cfg.keep {
        for core in blocks.values().flatten() {
            run.append(core.clone());
        }
        blocks
    } else {
        for core in blocks.into_values().flatten() {
            run.append(core);
        }
        BTreeMap::new()
    };
    if cfg.audits {
        st.occupancy.audit(&run.events, cfg.phys_blocks)?;
    }
    let graph = LaunchGraph::build_after(&run.hb, &st.carry);
    if cfg.audits {
        simcheck::audit_schedule(&graph)?;
    }
    st.carry = graph.carry_out(&st.carry);
    let (cycles, finale, last) = match end {
        Some((cycles, finale)) => (cycles, finale, rounds.len()),
        None => (0, None, first + count - 1),
    };
    let input = CritInput {
        cycles,
        origin: cfg.origin,
        flag_wait_cycles: cfg.flag_wait_cycles,
        flag_set_cycles: cfg.flag_set_cycles,
        events: &run.events,
        stalls: &run.stalls,
        graph: &graph,
        spans: &[],
        rounds,
        finale,
    };
    let segments = critpath::walk(&input, first..=last)?;
    st.path.extend(segments);
    for (block, cores) in kept {
        merge(&mut st.kept, block, cores);
    }
    Ok(())
}

/// Appends block `block`'s per-core records to what `into` holds for it.
fn merge(into: &mut BTreeMap<u32, Vec<Records>>, block: u32, cores: Vec<Records>) {
    match into.entry(block) {
        Entry::Vacant(slot) => {
            slot.insert(cores);
        }
        Entry::Occupied(mut slot) => {
            let mine = slot.get_mut();
            mine.resize_with(mine.len().max(cores.len()), Records::default);
            for (mine, core) in mine.iter_mut().zip(cores) {
                mine.append(core);
            }
        }
    }
}
