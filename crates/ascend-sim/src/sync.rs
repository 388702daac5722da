//! The deterministic block scheduler, cross-block barriers, cross-core
//! flags, and the global bandwidth bound.
//!
//! # Execution model
//!
//! Blocks are tasks driven by a single [`Scheduler`], each on a host
//! thread (a finished block's thread may run a later block), running
//! until it either *parks* at a `SyncAll` barrier ([`Scheduler::sync`])
//! or *completes* ([`Scheduler::finish`]). Each parked thread waits on
//! its own condvar and is woken only when its wait is satisfied. One gate
//! decides when a block may run: block `b` starts (or resumes after a
//! barrier) once every lower block `j < b` with `j ≡ b (mod step)` has
//! finished or has parked more times than `b`. The [`SchedPolicy`] only
//! picks the stride:
//!
//! * [`SchedPolicy::Serial`] — stride 1: a block waits for *every* lower
//!   block, so exactly one block makes progress at any instant, in
//!   ascending block index within each barrier round.
//! * [`SchedPolicy::Parallel`] (the default) — stride = the slot count:
//!   a block waits only for the lower tenants of its own physical core
//!   slot, so slot-disjoint blocks step to their next sync edge
//!   concurrently.
//!
//! Both strides produce **byte-identical reports** (test- and CI-gated),
//! because nothing a block can *observe* depends on host timing: a round
//! resolves only at a full rendezvous, when the last block parks (so the
//! commutative GM byte counters and max-reductions are
//! order-independent); a block reads its slot clock only once the gate
//! has passed, after every earlier tenant has written it; and grid-flag
//! operations commit in block-index order (see below). Every run of the
//! same kernel replays byte-for-byte, and `launch()` can multiplex grids
//! far larger than the chip (or the host) onto the physical cores. The
//! process-wide default comes from the `ASCEND_SCHED` environment
//! variable ([`SchedPolicy::resolve`]); `ChipSpec::scheduler` can force a
//! policy per launch.
//!
//! # Slot time-sharing (oversubscription)
//!
//! The scheduler models `phys` physical core slots ([`Scheduler::new`]);
//! block `b` runs on slot `b % phys`. A block *yields* its slot whenever
//! it parks — at a barrier arrival or at its finish — and the slot's next
//! tenant is *re-queued* from the time the slot frees: its start origin
//! ([`Scheduler::begin`]) and its post-barrier resume time
//! ([`Scheduler::sync`]'s third return value) are both lower-bounded by
//! the slot's free time. The slot clock is only ever written by the
//! slot's tenants, and the gate (at either stride) holds a tenant until
//! every lower-index slot-mate has advanced to its next yield point, so
//! oversubscribed grids (`blocks > phys`) wave-multiplex
//! deterministically — and they can still rendezvous at `SyncAll`
//! barriers.
//!
//! # Grid flags (launch-wide mailboxes)
//!
//! [`Scheduler::grid_set`]/[`Scheduler::grid_consume`] expose a
//! launch-wide analogue of the per-block [`FlagFile`]: counting
//! semaphores keyed by a flag id, stamped with launch-unique tokens for
//! the happens-before analyzer. They back the decoupled look-back
//! protocol of single-pass chained scans (`ScanC`), where block `b`
//! publishes its partial aggregate to a GM mailbox and block `b + 1`
//! waits on `b`'s flag instead of a global barrier. Waiting on a flag
//! nobody has published is rejected — under block-index-ordered commit a
//! *backward* look-back always finds its predecessor's flag already set,
//! while a forward wait would deadlock real silicon. A grid operation by
//! block `b` passes the same gate at stride 1 — every block below `b` has
//! parked past `b`'s current segment — which fixes the `(segment, block
//! index, program order)` commit order under either policy: same FIFO
//! contents, same tokens, same "unset grid flag" rejections. Under
//! [`SchedPolicy::Planned`] the plan cursor replaces that gate.
//!
//! # Barrier pricing
//!
//! `SyncAll` is built from priced cross-core flag instructions rather
//! than a free host barrier. Each participating core executes a
//! `CrossCoreSetFlag` (arrival) and a `CrossCoreWaitFlag` (release poll)
//! on its scalar pipe; the scheduler resolves the barrier once every
//! live block has arrived:
//!
//! * the cycles until the **last arrival flag** lands are attributed as
//!   `wait:flag` stall time on the early cores (the AIC↔AIV skew);
//! * the remaining alignment — the segment's **bandwidth bound** plus the
//!   chip's barrier release latency (`sync_all_cycles`) — is attributed
//!   as `wait:barrier` stall time.
//!
//! The bandwidth bound is unchanged from the original model: between two
//! barriers the global clock cannot advance faster than the bytes moved
//! to/from global memory divided by the effective memory bandwidth, which
//! is what makes memory-bound kernels saturate at the modelled roofline.

use crate::chip::{ChipSpec, SchedPolicy};
use crate::error::{SimError, SimResult};
use crate::mem::GlobalMemory;
use crate::timeline::EventTime;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Per-block registry of cross-core flag events.
///
/// Flags are modelled as *counting semaphores*, matching the FFTS-style
/// hardware counters behind `CrossCoreSetFlag`/`CrossCoreWaitFlag`: each
/// set on an id enqueues one pending event (FIFO per id) and each wait
/// consumes the earliest pending event. A producer may therefore run
/// several sets ahead of its consumer on the same id without losing
/// hand-offs. The flag-id space is the chip's small physical register
/// file: ids `>= limit` are rejected with [`SimError::FlagIdOutOfRange`].
///
/// Every set is stamped with a file-wide monotonic *token* so that the
/// schedule analyzer (`hb` module) can pair each wait with the exact set
/// it consumed.
#[derive(Debug)]
pub struct FlagFile {
    slots: RefCell<HashMap<u32, VecDeque<(EventTime, u64)>>>,
    next_token: RefCell<u64>,
    limit: u32,
}

impl FlagFile {
    /// An empty flag file with `limit` usable ids (all flags unset).
    pub fn new(limit: u32) -> Self {
        FlagFile {
            slots: RefCell::new(HashMap::new()),
            next_token: RefCell::new(0),
            limit,
        }
    }

    /// The number of usable flag ids (`0..limit`).
    pub fn limit(&self) -> u32 {
        self.limit
    }

    fn check_id(&self, id: u32) -> SimResult<()> {
        if id >= self.limit {
            return Err(SimError::FlagIdOutOfRange {
                id,
                limit: self.limit,
            });
        }
        Ok(())
    }

    /// Publishes one set event on flag `id` completing at cycle `at`;
    /// returns the set's unique token.
    pub fn set(&self, id: u32, at: EventTime) -> SimResult<u64> {
        self.check_id(id)?;
        let token = {
            let mut t = self.next_token.borrow_mut();
            let token = *t;
            *t += 1;
            token
        };
        self.slots
            .borrow_mut()
            .entry(id)
            .or_default()
            .push_back((at, token));
        Ok(token)
    }

    /// Consumes the earliest pending set on flag `id`, returning its
    /// completion time and token — `None` when no set is pending (a wait
    /// now would deadlock real silicon).
    pub fn consume(&self, id: u32) -> SimResult<Option<(EventTime, u64)>> {
        self.check_id(id)?;
        Ok(self
            .slots
            .borrow_mut()
            .get_mut(&id)
            .and_then(VecDeque::pop_front))
    }
}

/// A pinned grid-flag commit order, for replaying one specific
/// interleaving the model checker (`ascend_sim::mc`) explored.
///
/// `order[k]` is the block index whose grid-flag operation (set *or*
/// consume — both pass the commit gate) must commit `k`-th. Plans come
/// from model executions, which respect the scheduler's wave gates, so
/// a plan emitted by `mc` is always realizable; a hand-written
/// infeasible plan makes the offending grid operation fail with
/// [`SimError::InvalidArgument`] instead of hanging the launch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GridPlan {
    /// Block index per grid-flag commit, in commit order.
    pub order: Vec<u32>,
}

/// What a parked block thread waits for. The thread whose call changes
/// the scheduler state re-evaluates every parked block's wait and wakes
/// exactly the blocks it satisfied, each on its own condvar.
#[derive(Clone, Copy, Debug)]
enum Wait {
    /// The segment gate at this stride ([`SchedState::lower_parked`]).
    Gate(usize),
    /// Barrier round `round` has resolved, and then the segment gate.
    Round { round: u64, step: usize },
    /// The kernel-end alignment has resolved.
    Final,
    /// The plan cursor names this block, names a block that finished
    /// without issuing its operation, or ran past the plan.
    Plan,
}

/// What one block is doing, from the scheduler's point of view.
#[derive(Clone, Copy, Debug)]
enum BlockState {
    /// Not parked: waiting to start, or running a segment.
    Running,
    /// Arrived at barrier round `round`; `set_done` is when its last
    /// arrival flag landed, `ready` is when its slowest core finished the
    /// wait instruction that follows.
    AtBarrier {
        round: u64,
        set_done: EventTime,
        ready: EventTime,
    },
    /// Kernel body complete at local cycle `.0`; waiting for the final
    /// kernel-end alignment.
    Finishing(EventTime),
}

/// Everything the scheduler decided when resolving one barrier round,
/// recorded so the critical-path analyzer (`critpath`) can re-derive —
/// and justify — the resolved release time from its inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundRecord {
    /// Cycle the last arrival (`CrossCoreSetFlag`) landed grid-wide.
    pub all_set: EventTime,
    /// Slowest block's release-poll completion (max `ready`).
    pub ready_max: EventTime,
    /// Segment start (the previous round's `resolved`, or the launch
    /// origin for round 0).
    pub seg_start: EventTime,
    /// GM bytes moved during the segment ending at this barrier.
    pub seg_bytes: u64,
    /// Bandwidth bound for the segment: `seg_start + gm_bound_cycles`.
    pub bw_bound: EventTime,
    /// Barrier release latency added on top of `max(ready_max, bw_bound)`.
    pub release_cost: u64,
    /// The barrier release time: `max(ready_max, bw_bound) + release_cost`.
    pub resolved: EventTime,
}

/// The kernel-end alignment decision, mirror of [`RoundRecord`] for the
/// final (flag-less) round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FinalRecord {
    /// Slowest block's local completion time.
    pub max_local: EventTime,
    /// Start of the final segment (last barrier's `resolved`, or the
    /// launch origin when the kernel has no barriers).
    pub seg_start: EventTime,
    /// GM bytes moved during the final segment.
    pub seg_bytes: u64,
    /// Bandwidth bound for the final segment.
    pub bw_bound: EventTime,
    /// The kernel-end time: `max(max_local, bw_bound)`.
    pub end: EventTime,
}

struct SchedState {
    /// Resolved gating policy (never [`SchedPolicy::Env`]).
    policy: SchedPolicy,
    /// Corrected global clock at the end of the last resolved round.
    seg_start: EventTime,
    /// GM traffic counters (read+written) at the end of the last round.
    bytes_mark: u64,
    /// Barrier round currently being gathered.
    round: u64,
    /// Per-block execution state.
    status: Vec<BlockState>,
    /// `(all_set, resolved)` per resolved barrier round.
    round_result: Vec<(EventTime, EventTime)>,
    /// Full decision record per resolved barrier round (critpath input).
    round_records: Vec<RoundRecord>,
    /// Full decision record of the kernel-end alignment.
    final_record: Option<FinalRecord>,
    /// Barrier release latency for the round being gathered.
    pending_cost: u64,
    /// Completed rounds (barriers + the final kernel-end alignment).
    rounds: u64,
    /// Barrier-wait cycles per round, summed over blocks.
    round_waits: Vec<u64>,
    /// Flag-wait (arrival skew) cycles per round, summed over blocks.
    flag_waits: Vec<u64>,
    /// Kernel-end alignment time, once every block has finished.
    final_end: Option<EventTime>,
    /// Cycle at which each physical core slot frees; block `b` occupies
    /// slot `b % slot_free.len()` and updates it at every yield point.
    slot_free: Vec<EventTime>,
    /// Times each block has parked (barrier arrivals and its finish; the
    /// clock the gate compares).
    yields: Vec<u64>,
    /// Whether each block has called [`Scheduler::finish`] (a finished
    /// block satisfies every gate forever).
    finished: Vec<bool>,
    /// Launch-wide mailbox flag registry (FIFO counting semaphores per
    /// id), with a monotonic token stamping every set for the analyzer.
    grid_slots: HashMap<u32, VecDeque<(EventTime, u64)>>,
    grid_next_token: u64,
    grid_limit: u32,
    /// Number of grid-flag operations committed so far — the cursor into
    /// a [`GridPlan`] under [`SchedPolicy::Planned`].
    grid_committed: usize,
    /// What each block's thread is parked on, if it is parked.
    parked: Vec<Option<Wait>>,
    /// Whether each block has a host thread (running it now or later).
    /// The first wave has one from the start; see [`Scheduler::finish`]
    /// and [`Scheduler::next_spawn`] for the rest.
    claimed: Vec<bool>,
    unclaimed: usize,
    /// Blocks whose slot predecessor parked at a barrier: they need a
    /// thread of their own, spawned by the launching thread.
    to_spawn: Vec<usize>,
}

impl SchedState {
    /// The scheduling gate: true when every lower block `j < block` with
    /// `j ≡ block (mod step)` has finished or has parked more times than
    /// `block`. A parked block cannot park again until a round `block`
    /// participates in resolves, and each gate waits only on strictly
    /// lower indices, so once it holds, state written by those blocks
    /// (the slot clock, grid flags) carries exactly the value of the
    /// canonical ascending-index order, and the gates cannot form a cycle.
    fn lower_parked(&self, block: usize, step: usize) -> bool {
        let mine = self.yields[block];
        // Nearest first: the block just below is the likeliest holdout.
        ((block % step)..block)
            .step_by(step)
            .rev()
            .all(|j| self.finished[j] || self.yields[j] > mine)
    }

    /// Whether `block`'s thread may stop waiting for `wait`.
    fn satisfied(&self, block: usize, wait: Wait) -> bool {
        match wait {
            Wait::Gate(step) => self.lower_parked(block, step),
            Wait::Round { round, step } => {
                self.round_result.len() > round as usize && self.lower_parked(block, step)
            }
            Wait::Final => self.final_end.is_some(),
            Wait::Plan => match &self.policy {
                SchedPolicy::Planned(plan) => plan
                    .order
                    .get(self.grid_committed)
                    .is_none_or(|&b| b as usize == block || self.finished[b as usize]),
                _ => true,
            },
        }
    }

    /// The segment gate's stride: 1 under [`SchedPolicy::Serial`] (every
    /// lower block), the slot count otherwise (lower slot-mates only).
    fn segment_step(&self) -> usize {
        match self.policy {
            SchedPolicy::Serial => 1,
            _ => self.slot_free.len(),
        }
    }
}

/// Deterministic cooperative scheduler for one kernel launch.
///
/// Protocol, per block: [`Scheduler::begin`] once, then any number of
/// [`Scheduler::sync`] calls (one per `SyncAll`), then exactly one
/// [`Scheduler::finish`]; the thread that ran it later collects the
/// kernel-end time with [`Scheduler::kernel_end`]. A block that errors
/// out early may skip straight to `finish`; barriers resolve over the
/// blocks still live, so mismatched sync counts cannot deadlock the
/// launch.
pub struct Scheduler {
    state: Mutex<SchedState>,
    /// One condvar per block: a state change wakes only the blocks whose
    /// wait it satisfied, never the whole grid.
    wakeups: Vec<Condvar>,
    /// Wakes the launching thread in [`Scheduler::next_spawn`].
    spawner: Condvar,
}

impl Scheduler {
    /// Creates a scheduler multiplexing `blocks` blocks onto `phys`
    /// physical core slots (block `b` on slot `b % phys`). The first
    /// segment starts at cycle `seg_start` with `bytes_mark` bytes of GM
    /// traffic already on the counters (one [`GlobalMemory`] serves many
    /// launches); grid-flag ids `>= grid_flag_limit` are rejected. The
    /// gate follows `policy`, resolved here, so [`SchedPolicy::Env`]
    /// reads `ASCEND_SCHED`.
    pub fn new(
        blocks: usize,
        phys: usize,
        seg_start: EventTime,
        bytes_mark: u64,
        grid_flag_limit: u32,
        policy: &SchedPolicy,
    ) -> Self {
        assert!(phys >= 1, "a launch needs at least one physical slot");
        Scheduler {
            state: Mutex::new(SchedState {
                policy: policy.resolve(),
                seg_start,
                bytes_mark,
                round: 0,
                status: vec![BlockState::Running; blocks],
                round_result: Vec::new(),
                round_records: Vec::new(),
                final_record: None,
                pending_cost: 0,
                rounds: 0,
                round_waits: Vec::new(),
                flag_waits: Vec::new(),
                final_end: None,
                slot_free: vec![seg_start; phys],
                yields: vec![0; blocks],
                finished: vec![false; blocks],
                grid_slots: HashMap::new(),
                grid_next_token: 0,
                grid_limit: grid_flag_limit,
                grid_committed: 0,
                parked: vec![None; blocks],
                claimed: (0..blocks).map(|b| b < phys).collect(),
                unclaimed: blocks.saturating_sub(phys),
                to_spawn: Vec::new(),
            }),
            wakeups: (0..blocks).map(|_| Condvar::new()).collect(),
            spawner: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().expect("Scheduler lock poisoned")
    }

    /// Parks `block`'s thread until `wait` is satisfied.
    fn park<'a>(
        &self,
        mut st: MutexGuard<'a, SchedState>,
        block: usize,
        wait: Wait,
    ) -> MutexGuard<'a, SchedState> {
        while !st.satisfied(block, wait) {
            st.parked[block] = Some(wait);
            st = self.wakeups[block]
                .wait(st)
                .expect("Scheduler lock poisoned");
        }
        st.parked[block] = None;
        st
    }

    /// After a state change: wakes every parked block whose wait it
    /// satisfied. Every wait is monotone (yields, finishes, resolved
    /// rounds and the plan cursor only move forward, and a satisfied
    /// block's own wait can only be undone by that block), so a block is
    /// woken at most once per park.
    fn wake_satisfied(&self, st: &mut SchedState) {
        for block in 0..st.parked.len() {
            if let Some(wait) = st.parked[block] {
                if st.satisfied(block, wait) {
                    st.parked[block] = None;
                    self.wakeups[block].notify_one();
                }
            }
        }
    }

    /// Blocks until the gate lets `block` run: every lower block (under
    /// `Serial`) or every earlier tenant of its physical slot (otherwise)
    /// has yielded at least once, so wave-0 blocks of a parallel launch
    /// start immediately and concurrently. Must be the first scheduler
    /// call a block thread makes. Returns the cycle the block's physical
    /// core slot frees — the block's start origin (the first segment's
    /// start for wave-0 blocks, the previous tenant's yield point for
    /// later waves).
    pub fn begin(&self, block: usize) -> EventTime {
        let st = self.lock();
        let step = st.segment_step();
        let st = self.park(st, block, Wait::Gate(step));
        st.slot_free[block % st.slot_free.len()]
    }

    /// Yields at a `SyncAll` barrier. `set_done` is the completion time
    /// of the block's last arrival (`CrossCoreSetFlag`) instruction;
    /// `ready` is when its slowest core finished the release-poll
    /// (`CrossCoreWaitFlag`) instruction that follows. Parks the calling
    /// block — vacating its physical core slot at `ready` — and returns
    /// `(all_set, resolved, resume)` once the round resolves and the gate
    /// lets the block run again: the cycle the last arrival flag landed
    /// grid-wide, the cycle the barrier releases, and the cycle *this
    /// block* actually resumes — `resolved` when the block has its own
    /// slot, later when an oversubscribed slot-mate runs its post-barrier
    /// segment first.
    pub fn sync(
        &self,
        block: usize,
        set_done: EventTime,
        ready: EventTime,
        gm: &GlobalMemory,
        spec: &ChipSpec,
        release_cost: u64,
    ) -> (EventTime, EventTime, EventTime) {
        let mut st = self.lock();
        // Rendezvous invariant: round r cannot resolve until this block
        // parks at it, and this block cannot reach barrier r before round
        // r-1 resolved — so the gathering round IS this block's round.
        let my_round = st.round;
        debug_assert_eq!(st.yields[block], my_round, "a block skipped a round");
        st.status[block] = BlockState::AtBarrier {
            round: my_round,
            set_done,
            ready,
        };
        st.yields[block] += 1;
        let slot = block % st.slot_free.len();
        st.slot_free[slot] = st.slot_free[slot].max(ready);
        st.pending_cost = st.pending_cost.max(release_cost);
        // The block keeps its thread while parked, so the slot's next
        // tenant, which may start now, needs a thread of its own.
        if let Some(next) = self.claim_successor(&mut st, block) {
            st.to_spawn.push(next);
            self.spawner.notify_one();
        }
        self.try_resolve(&mut st, gm, spec);
        self.wake_satisfied(&mut st);
        let step = st.segment_step();
        let wait = Wait::Round {
            round: my_round,
            step,
        };
        let st = self.park(st, block, wait);
        let (all_set, resolved) = st.round_result[my_round as usize];
        (all_set, resolved, resolved.max(st.slot_free[slot]))
    }

    /// Marks the block's kernel body complete at local cycle `local`,
    /// vacating its slot. Does not wait: returns the slot's next tenant
    /// if no thread has it yet, for the caller's thread to run next, and
    /// the thread collects the kernel-end time with
    /// [`Scheduler::kernel_end`].
    pub fn finish(
        &self,
        block: usize,
        local: EventTime,
        gm: &GlobalMemory,
        spec: &ChipSpec,
    ) -> Option<usize> {
        let mut st = self.lock();
        st.status[block] = BlockState::Finishing(local);
        st.yields[block] += 1;
        st.finished[block] = true;
        let slot = block % st.slot_free.len();
        st.slot_free[slot] = st.slot_free[slot].max(local);
        self.try_resolve(&mut st, gm, spec);
        self.wake_satisfied(&mut st);
        self.claim_successor(&mut st, block)
    }

    /// Claims `block`'s slot successor (`block + slots`) for a thread, if
    /// it has one that no thread has yet. The successor cannot start
    /// before `block` parks or finishes, so claiming it then loses no
    /// concurrency.
    fn claim_successor(&self, st: &mut SchedState, block: usize) -> Option<usize> {
        let next = block + st.slot_free.len();
        if next >= st.claimed.len() || st.claimed[next] {
            return None;
        }
        st.claimed[next] = true;
        st.unclaimed -= 1;
        if st.unclaimed == 0 {
            self.spawner.notify_one();
        }
        Some(next)
    }

    /// For the launching thread: the next block that needs a thread of
    /// its own (its slot predecessor parked at a barrier), or `None` once
    /// every block has a thread. A barrier-free grid of any size runs on
    /// one thread per slot.
    pub fn next_spawn(&self) -> Option<usize> {
        let mut st = self.lock();
        loop {
            if let Some(block) = st.to_spawn.pop() {
                return Some(block);
            }
            if st.unclaimed == 0 {
                return None;
            }
            st = self.spawner.wait(st).expect("Scheduler lock poisoned");
        }
    }

    /// Parks the thread that ran `block` (finished) until every block has
    /// finished; returns the kernel-end alignment time (slowest block,
    /// stretched to the final segment's bandwidth bound).
    pub fn kernel_end(&self, block: usize) -> EventTime {
        let st = self.park(self.lock(), block, Wait::Final);
        st.final_end.expect("final alignment resolved")
    }

    /// The last block to park resolves the round. Fires only at a full
    /// rendezvous — every block parked at the gathering round or
    /// finishing — so the GM byte counters, the arrival/ready maxima,
    /// and the pending release cost carry the same values whichever host
    /// thread got here last.
    fn try_resolve(&self, st: &mut SchedState, gm: &GlobalMemory, spec: &ChipSpec) {
        let round = st.round;
        let mut any_at_barrier = false;
        for s in &st.status {
            match *s {
                BlockState::AtBarrier { round: r, .. } if r == round => any_at_barrier = true,
                BlockState::Finishing(_) => {}
                // Someone is still running (or not begun): no resolution.
                _ => return,
            }
        }
        if any_at_barrier {
            self.resolve_round(st, gm, spec);
        } else {
            self.resolve_final(st, gm, spec);
        }
    }

    /// Resolves one barrier round over the blocks that arrived at it.
    fn resolve_round(&self, st: &mut SchedState, gm: &GlobalMemory, spec: &ChipSpec) {
        let round = st.round;
        let mut all_set: EventTime = 0;
        let mut ready_max: EventTime = 0;
        for s in &st.status {
            if let BlockState::AtBarrier {
                round: r,
                set_done,
                ready,
            } = *s
            {
                if r == round {
                    all_set = all_set.max(set_done);
                    ready_max = ready_max.max(ready);
                }
            }
        }
        let seg_bytes = (gm.bytes_read() + gm.bytes_written()).saturating_sub(st.bytes_mark);
        let bw_bound = st.seg_start + spec.gm_bound_cycles(seg_bytes, gm.high_water());
        let resolved = ready_max.max(bw_bound) + st.pending_cost;
        // Split each block's idle time at the barrier: waiting for the
        // last peer's arrival flag to land (and for its own release poll
        // of that flag) is flag time; the rest — bandwidth stretch plus
        // release latency — is barrier time.
        let flag_cut = (all_set + spec.flag_wait_cycles).min(resolved);
        let mut flag_wait = 0u64;
        let mut barrier_wait = 0u64;
        for s in &mut st.status {
            if let BlockState::AtBarrier {
                round: r, ready, ..
            } = *s
            {
                if r == round {
                    flag_wait += flag_cut.saturating_sub(ready);
                    barrier_wait += resolved - ready.max(flag_cut);
                    *s = BlockState::Running;
                }
            }
        }
        st.round_result.push((all_set, resolved));
        st.round_records.push(RoundRecord {
            all_set,
            ready_max,
            seg_start: st.seg_start,
            seg_bytes,
            bw_bound,
            release_cost: st.pending_cost,
            resolved,
        });
        st.seg_start = resolved;
        st.bytes_mark = gm.bytes_read() + gm.bytes_written();
        st.pending_cost = 0;
        st.round += 1;
        st.rounds += 1;
        st.flag_waits.push(flag_wait);
        st.round_waits.push(barrier_wait);
    }

    /// Resolves the kernel-end alignment once every block has finished.
    fn resolve_final(&self, st: &mut SchedState, gm: &GlobalMemory, spec: &ChipSpec) {
        let mut max_local: EventTime = 0;
        for s in &st.status {
            match *s {
                BlockState::Finishing(local) => max_local = max_local.max(local),
                _ => unreachable!("final alignment with unfinished blocks"),
            }
        }
        let seg_bytes = (gm.bytes_read() + gm.bytes_written()).saturating_sub(st.bytes_mark);
        let bw_bound = st.seg_start + spec.gm_bound_cycles(seg_bytes, gm.high_water());
        let end = max_local.max(bw_bound);
        let wait: u64 = st
            .status
            .iter()
            .map(|s| match *s {
                BlockState::Finishing(local) => end - local,
                _ => 0,
            })
            .sum();
        st.final_record = Some(FinalRecord {
            max_local,
            seg_start: st.seg_start,
            seg_bytes,
            bw_bound,
            end,
        });
        st.seg_start = end;
        st.bytes_mark = gm.bytes_read() + gm.bytes_written();
        st.rounds += 1;
        st.round_waits.push(wait);
        st.flag_waits.push(0);
        st.final_end = Some(end);
    }

    /// Number of completed rounds (barriers plus the final alignment).
    pub fn rounds(&self) -> u64 {
        self.lock().rounds
    }

    /// Total cycles blocks spent idle at barriers and on arrival flags.
    pub fn total_wait_cycles(&self) -> u64 {
        let st = self.lock();
        st.round_waits.iter().sum::<u64>() + st.flag_waits.iter().sum::<u64>()
    }

    /// Barrier-wait cycles per round, summed over blocks. The last entry
    /// is the kernel-end alignment round.
    pub fn round_waits(&self) -> Vec<u64> {
        self.lock().round_waits.clone()
    }

    /// Flag-wait (arrival skew) cycles per round, summed over blocks,
    /// parallel to [`Scheduler::round_waits`]. The kernel-end entry is
    /// always zero: the runtime aligns finished blocks without flags.
    pub fn flag_waits(&self) -> Vec<u64> {
        self.lock().flag_waits.clone()
    }

    /// The full decision record of every resolved barrier round, in
    /// round order (critical-path analyzer input).
    pub fn round_records(&self) -> Vec<RoundRecord> {
        self.lock().round_records.clone()
    }

    /// The kernel-end alignment record, once the launch has resolved.
    pub fn final_record(&self) -> Option<FinalRecord> {
        self.lock().final_record
    }

    // ---------------------------------------------------------------
    // Grid flags (launch-wide mailbox flags)
    // ---------------------------------------------------------------

    /// Holds the caller until its grid-flag operation may commit: the
    /// stride-1 gate (every block below `block` has parked past `block`'s
    /// current segment), so grid-flag operations commit in the canonical
    /// `(segment, block index, program order)` total order under either
    /// `Serial` or `Parallel`. Under `Planned` the caller instead waits
    /// for the plan cursor to name its block — erroring (rather than
    /// hanging) when the plan can no longer be satisfied, which only a
    /// hand-written plan can trigger.
    fn gate_grid_op<'a>(
        &'a self,
        mut st: MutexGuard<'a, SchedState>,
        block: usize,
    ) -> SimResult<MutexGuard<'a, SchedState>> {
        let SchedPolicy::Planned(plan) = st.policy.clone() else {
            return Ok(self.park(st, block, Wait::Gate(1)));
        };
        loop {
            let k = st.grid_committed;
            match plan.order.get(k) {
                None => {
                    return Err(SimError::InvalidArgument(format!(
                        "grid plan exhausted: block {block} issues grid operation \
                         {} but the plan only covers {}",
                        k + 1,
                        plan.order.len()
                    )))
                }
                Some(&b) if b as usize == block => return Ok(st),
                Some(&b) if st.finished[b as usize] => {
                    return Err(SimError::InvalidArgument(format!(
                        "grid plan infeasible: commit {k} is assigned to block \
                         {b}, which finished without issuing it"
                    )))
                }
                Some(_) => st = self.park(st, block, Wait::Plan),
            }
        }
    }

    /// Bumps the plan cursor after a committed grid operation and wakes
    /// the next planned waiter. No-op outside planned mode.
    fn commit_grid_op(&self, mut st: MutexGuard<'_, SchedState>) {
        if matches!(st.policy, SchedPolicy::Planned(_)) {
            st.grid_committed += 1;
            self.wake_satisfied(&mut st);
        }
    }

    /// Publishes one launch-wide set event on grid flag `id` completing
    /// at cycle `at`, on behalf of `block`; returns the set's
    /// launch-unique token. Like the per-block [`FlagFile`], grid flags
    /// are FIFO counting semaphores per id, and ids `>= grid_flag_limit`
    /// are rejected.
    pub fn grid_set(&self, block: usize, id: u32, at: EventTime) -> SimResult<u64> {
        let mut st = self.gate_grid_op(self.lock(), block)?;
        if id >= st.grid_limit {
            return Err(SimError::FlagIdOutOfRange {
                id,
                limit: st.grid_limit,
            });
        }
        let token = st.grid_next_token;
        st.grid_next_token += 1;
        st.grid_slots.entry(id).or_default().push_back((at, token));
        self.commit_grid_op(st);
        Ok(token)
    }

    /// Consumes the earliest pending set on grid flag `id` on behalf of
    /// `block`, returning its completion time and token — `None` when no
    /// set is pending. Calls commit in the canonical segment order (the
    /// stride-1 gate) or a pinned [`GridPlan`]'s, so the consumption
    /// order — and the token pairing the analyzer sees — is
    /// deterministic.
    pub fn grid_consume(&self, block: usize, id: u32) -> SimResult<Option<(EventTime, u64)>> {
        let mut st = self.gate_grid_op(self.lock(), block)?;
        if id >= st.grid_limit {
            return Err(SimError::FlagIdOutOfRange {
                id,
                limit: st.grid_limit,
            });
        }
        let hit = st.grid_slots.get_mut(&id).and_then(VecDeque::pop_front);
        self.commit_grid_op(st);
        Ok(hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A scheduler with one slot per block, segment accounting from cycle
    /// 0, an unbounded grid-flag id space and the environment's policy.
    fn scheduler(blocks: usize) -> Scheduler {
        Scheduler::new(blocks, blocks, 0, 0, u32::MAX, &SchedPolicy::Env)
    }

    fn spec_no_bw() -> ChipSpec {
        // A spec with effectively infinite bandwidth so only the
        // max-clock logic is visible.
        let mut s = ChipSpec::tiny();
        s.hbm_bytes_per_sec = 1e18;
        s.l2_bytes_per_sec = 1e18;
        s
    }

    /// Runs the full protocol for `set_done` arrival clocks (one barrier
    /// round, then finish at the barrier's resolution time); returns each
    /// block's `(all_set, resolved)`.
    fn one_round(
        spec: &ChipSpec,
        gm: &Arc<GlobalMemory>,
        set_clocks: &[EventTime],
        cost: u64,
    ) -> (Arc<Scheduler>, Vec<(EventTime, EventTime)>) {
        let sched = Arc::new(scheduler(set_clocks.len()));
        let w = spec.flag_wait_cycles;
        let results: Vec<(EventTime, EventTime)> = std::thread::scope(|s| {
            let handles: Vec<_> = set_clocks
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let sched = Arc::clone(&sched);
                    let gm = Arc::clone(gm);
                    let spec = spec.clone();
                    s.spawn(move || {
                        sched.begin(i);
                        let (all_set, resolved, _) = sched.sync(i, c, c + w, &gm, &spec, cost);
                        sched.finish(i, resolved, &gm, &spec);
                        (all_set, resolved)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        (sched, results)
    }

    #[test]
    fn barrier_aligns_to_slowest_block() {
        let spec = spec_no_bw();
        let gm = Arc::new(GlobalMemory::new(1 << 20));
        // Arrival flags land at 100, 5000, 250; every core's release poll
        // takes flag_wait_cycles (18 on tiny) after its own arrival.
        let (sched, results) = one_round(&spec, &gm, &[100, 5000, 250], 7);
        let all_set = 5000;
        let resolved = all_set + spec.flag_wait_cycles + 7;
        assert!(results.iter().all(|&r| r == (all_set, resolved)));
        // One barrier + the final alignment.
        assert_eq!(sched.rounds(), 2);
    }

    #[test]
    fn barrier_idle_splits_into_flag_skew_and_release() {
        let spec = spec_no_bw();
        let gm = Arc::new(GlobalMemory::new(1 << 20));
        let (sched, _) = one_round(&spec, &gm, &[100, 5000, 250], 7);
        // Flag skew: each early block waits (5000 - its arrival) for the
        // laggard's set flag (the laggard itself waits 0); barrier:
        // everyone pays the release cost.
        assert_eq!(sched.flag_waits(), vec![4900 + 4750, 0]);
        assert_eq!(sched.round_waits(), vec![7 * 3, 0]);
        assert_eq!(sched.total_wait_cycles(), 4900 + 4750 + 21);
    }

    #[test]
    fn bandwidth_bound_stretches_fast_segments() {
        // 4 MiB moved at 100 GB/s on a 1 GHz chip; blocks claim to finish
        // almost immediately, so the bound dominates.
        let spec = ChipSpec::tiny(); // 100 GB/s HBM, L2 1 MiB @ 200 GB/s
        let gm = Arc::new(GlobalMemory::new(8 << 20));
        let region = gm.alloc(4 << 20).unwrap(); // working set 4 MiB > L2
        let buf = vec![0u8; 1 << 20];
        for i in 0..4 {
            gm.device_write(region, i * (1 << 20), &buf).unwrap();
        }
        assert_eq!(gm.bytes_written(), 4 << 20);

        let sched = scheduler(1);
        sched.begin(0);
        let (_, t, _) = sched.sync(0, 100, 100 + spec.flag_wait_cycles, &gm, &spec, 0);
        let expect = spec.gm_bound_cycles(4 << 20, gm.high_water());
        assert_eq!(t, expect);
        assert!(t > 100);
    }

    #[test]
    fn segments_account_bytes_incrementally() {
        let spec = ChipSpec::tiny();
        let gm = GlobalMemory::new(8 << 20);
        let region = gm.alloc(4 << 20).unwrap();
        let buf = vec![0u8; 2 << 20];
        let sched = scheduler(1);
        sched.begin(0);

        gm.device_write(region, 0, &buf).unwrap();
        let (_, t1, _) = sched.sync(0, 0, 0, &gm, &spec, 0);
        // Second segment moves the same amount; the bound should advance
        // by the same delta, not double-count the first segment.
        gm.device_write(region, 2 << 20, &buf).unwrap();
        let (_, t2, _) = sched.sync(0, t1, t1, &gm, &spec, 0);
        assert_eq!(t2 - t1, t1, "equal segments take equal time");
    }

    #[test]
    fn small_working_set_uses_l2_bandwidth() {
        let spec = ChipSpec::tiny(); // L2: 1 MiB at 200 GB/s vs HBM 100 GB/s
        let gm = GlobalMemory::new(8 << 20);
        let region = gm.alloc(512 << 10).unwrap(); // fits in L2
        let buf = vec![0u8; 512 << 10];
        gm.device_write(region, 0, &buf).unwrap();
        let sched = scheduler(1);
        sched.begin(0);
        let (_, t, _) = sched.sync(0, 0, 0, &gm, &spec, 0);
        // 512 KiB at 200 GB/s (L2) on 1 GHz.
        assert_eq!(t, ((512u64 << 10) as f64 / 200e9 * 1e9).ceil() as u64);
    }

    #[test]
    fn wait_cycles_accumulate_across_rounds() {
        let spec = spec_no_bw();
        let gm = GlobalMemory::new(1 << 20);
        let sched = scheduler(1);
        sched.begin(0);
        // ready = set + flag_wait_cycles: the release poll is busy time
        // on the core, so a lone block stalls on neither flags nor the
        // barrier when the release is free.
        let (_, t1, _) = sched.sync(0, 100, 118, &gm, &spec, 0);
        assert_eq!(t1, 118, "single block still pays its own release poll");
        // Next round: the block pays 25 cycles of release cost.
        let (_, t2, _) = sched.sync(0, t1, t1 + 18, &gm, &spec, 25);
        assert_eq!(t2, t1 + 18 + 25);
        sched.finish(0, t2, &gm, &spec);
        assert_eq!(sched.flag_waits(), vec![0, 0, 0]);
        assert_eq!(sched.round_waits(), vec![0, 25, 0]);
    }

    #[test]
    fn kernel_end_alignment_charges_the_final_round() {
        let spec = spec_no_bw();
        let gm = Arc::new(GlobalMemory::new(1 << 20));
        let sched = Arc::new(scheduler(2));
        let ends = [400u64, 1000];
        std::thread::scope(|s| {
            for (i, &e) in ends.iter().enumerate() {
                let sched = Arc::clone(&sched);
                let gm = Arc::clone(&gm);
                let spec = spec.clone();
                s.spawn(move || {
                    sched.begin(i);
                    sched.finish(i, e, &gm, &spec);
                    assert_eq!(sched.kernel_end(i), 1000);
                });
            }
        });
        assert_eq!(sched.rounds(), 1);
        assert_eq!(sched.round_waits(), vec![600]);
        assert_eq!(sched.flag_waits(), vec![0]);
    }

    #[test]
    fn early_finisher_does_not_deadlock_a_barrier() {
        // Block 0 errors out before the SyncAll that block 1 reaches: the
        // barrier must resolve over the still-live blocks only.
        let spec = spec_no_bw();
        let gm = Arc::new(GlobalMemory::new(1 << 20));
        let sched = Arc::new(scheduler(2));
        let (e0, e1) = std::thread::scope(|s| {
            let a = {
                let sched = Arc::clone(&sched);
                let gm = Arc::clone(&gm);
                let spec = spec.clone();
                s.spawn(move || {
                    sched.begin(0);
                    sched.finish(0, 50, &gm, &spec);
                    sched.kernel_end(0)
                })
            };
            let b = {
                let sched = Arc::clone(&sched);
                let gm = Arc::clone(&gm);
                let spec = spec.clone();
                s.spawn(move || {
                    sched.begin(1);
                    let (_, r, _) = sched.sync(1, 200, 218, &gm, &spec, 10);
                    assert_eq!(r, 228, "resolved over block 1 alone");
                    sched.finish(1, r, &gm, &spec);
                    sched.kernel_end(1)
                })
            };
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(e0, 228);
        assert_eq!(e1, 228);
        assert_eq!(sched.rounds(), 2);
    }

    #[test]
    fn oversubscribed_slots_chain_wave_origins() {
        // 3 blocks on 1 physical slot, no barriers: each block's begin()
        // origin is the previous tenant's finish time — in both modes.
        let spec = spec_no_bw();
        for mode in [SchedPolicy::Serial, SchedPolicy::Parallel] {
            let gm = Arc::new(GlobalMemory::new(1 << 20));
            let sched = Arc::new(Scheduler::new(3, 1, 100, 0, 8, &mode));
            let origins: Vec<EventTime> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..3)
                    .map(|i| {
                        let sched = Arc::clone(&sched);
                        let gm = Arc::clone(&gm);
                        let spec = spec.clone();
                        s.spawn(move || {
                            let origin = sched.begin(i);
                            // Each block "works" for 50 cycles on the slot.
                            sched.finish(i, origin + 50, &gm, &spec);
                            origin
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(origins, vec![100, 150, 200], "{mode:?}");
        }
    }

    #[test]
    fn barrier_yield_requeues_the_slot() {
        // 2 blocks share 1 slot and both cross one barrier: the slot-mate
        // that resumes second is re-queued behind the first one's
        // post-barrier segment, not released concurrently — in both modes.
        let spec = spec_no_bw();
        for mode in [SchedPolicy::Serial, SchedPolicy::Parallel] {
            let gm = Arc::new(GlobalMemory::new(1 << 20));
            let sched = Arc::new(Scheduler::new(2, 1, 0, 0, 8, &mode));
            let (r0, r1) = std::thread::scope(|s| {
                let a = {
                    let sched = Arc::clone(&sched);
                    let gm = Arc::clone(&gm);
                    let spec = spec.clone();
                    s.spawn(move || {
                        let origin = sched.begin(0);
                        assert_eq!(origin, 0);
                        // Arrive at 60 (slot vacates), resume, then run a
                        // 40-cycle post-barrier segment before finishing.
                        let r = sched.sync(0, 50, 60, &gm, &spec, 0);
                        sched.finish(0, r.2 + 40, &gm, &spec);
                        r
                    })
                };
                let b = {
                    let sched = Arc::clone(&sched);
                    let gm = Arc::clone(&gm);
                    let spec = spec.clone();
                    s.spawn(move || {
                        let origin = sched.begin(1);
                        assert_eq!(origin, 60, "wave-1 begins when the slot frees");
                        let r = sched.sync(1, 200, 210, &gm, &spec, 0);
                        sched.finish(1, r.2, &gm, &spec);
                        r
                    })
                };
                (a.join().unwrap(), b.join().unwrap())
            });
            // Round resolves at the slowest arrival: all_set 200, ready 210.
            assert_eq!((r0.0, r0.1), (200, 210), "{mode:?}");
            assert_eq!((r1.0, r1.1), (200, 210), "{mode:?}");
            // Block 0 has the slot first and resumes at the release; block
            // 1 is re-queued behind block 0's 40-cycle post-barrier segment.
            assert_eq!(r0.2, 210, "{mode:?}");
            assert_eq!(r1.2, 250, "{mode:?}");
        }
    }

    #[test]
    fn dedicated_slots_resume_at_the_release() {
        // With one slot per block (the non-oversubscribed case) the
        // resume time degenerates to the barrier release exactly.
        let spec = spec_no_bw();
        let gm = Arc::new(GlobalMemory::new(1 << 20));
        let (_, results) = one_round(&spec, &gm, &[100, 5000, 250], 7);
        let resolved = 5000 + spec.flag_wait_cycles + 7;
        assert!(results.iter().all(|&r| r.1 == resolved));
        // one_round's harness already asserts via the tuple; re-check
        // the three-way return on a fresh single-block scheduler.
        let sched = scheduler(1);
        sched.begin(0);
        let (_, resolved, resume) = sched.sync(0, 10, 28, &gm, &spec, 5);
        assert_eq!(resume, resolved);
    }

    #[test]
    fn grid_flags_are_fifo_counting_semaphores() {
        let sched = Scheduler::new(2, 1, 0, 0, 4, &SchedPolicy::Env);
        assert_eq!(sched.grid_consume(0, 3).unwrap(), None);
        let t0 = sched.grid_set(0, 3, 100).unwrap();
        let t1 = sched.grid_set(0, 3, 140).unwrap();
        assert_ne!(t0, t1, "every grid set gets a launch-unique token");
        assert_eq!(sched.grid_consume(0, 3).unwrap(), Some((100, t0)));
        assert_eq!(sched.grid_consume(0, 3).unwrap(), Some((140, t1)));
        assert_eq!(sched.grid_consume(0, 3).unwrap(), None);
        // Tokens are unique across ids too (launch-wide pairing).
        let t2 = sched.grid_set(0, 0, 7).unwrap();
        assert!(t2 > t1);
    }

    #[test]
    fn grid_flags_enforce_the_id_space() {
        let sched = Scheduler::new(1, 1, 0, 0, 4, &SchedPolicy::Env);
        let err = sched.grid_set(0, 4, 100).unwrap_err();
        assert!(matches!(
            err,
            SimError::FlagIdOutOfRange { id: 4, limit: 4 }
        ));
        let err = sched.grid_consume(0, 9).unwrap_err();
        assert!(matches!(
            err,
            SimError::FlagIdOutOfRange { id: 9, limit: 4 }
        ));
        sched.grid_set(0, 3, 1).unwrap();
        assert!(sched.grid_consume(0, 3).unwrap().is_some());
    }

    #[test]
    fn parallel_grid_ops_commit_in_block_index_order() {
        // Three blocks on 2 slots, each publishing one grid set from its
        // only segment: whatever order the host threads reach grid_set,
        // the tokens must come out in block-index order — block 2's op
        // additionally waits for the wave-0 blocks to park.
        let spec = spec_no_bw();
        let gm = Arc::new(GlobalMemory::new(1 << 20));
        for _ in 0..16 {
            let sched = Arc::new(Scheduler::new(3, 2, 0, 0, 8, &SchedPolicy::Parallel));
            let tokens: Vec<u64> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..3usize)
                    .map(|i| {
                        let sched = Arc::clone(&sched);
                        let gm = Arc::clone(&gm);
                        let spec = spec.clone();
                        s.spawn(move || {
                            let origin = sched.begin(i);
                            let token = sched.grid_set(i, 0, origin + 10).unwrap();
                            sched.finish(i, origin + 50, &gm, &spec);
                            token
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(tokens, vec![0, 1, 2]);
        }
    }

    #[test]
    fn planned_grid_ops_commit_in_plan_order() {
        // Three blocks, each with its own slot, each publishing one grid
        // set: under a [1, 2, 0] plan the tokens come out in plan order,
        // not block-index order.
        let spec = spec_no_bw();
        let gm = Arc::new(GlobalMemory::new(1 << 20));
        let plan = Arc::new(GridPlan {
            order: vec![1, 2, 0],
        });
        for _ in 0..16 {
            let sched = Arc::new(Scheduler::new(
                3,
                3,
                0,
                0,
                8,
                &SchedPolicy::Planned(Arc::clone(&plan)),
            ));
            let tokens: Vec<u64> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..3usize)
                    .map(|i| {
                        let sched = Arc::clone(&sched);
                        let gm = Arc::clone(&gm);
                        let spec = spec.clone();
                        s.spawn(move || {
                            let origin = sched.begin(i);
                            let token = sched.grid_set(i, 0, origin + 10).unwrap();
                            sched.finish(i, origin + 50, &gm, &spec);
                            token
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(tokens, vec![2, 0, 1], "block b's set commits at plan slot");
        }
    }

    #[test]
    fn planned_canonical_order_replays_the_parallel_commit_order() {
        // A plan spelling out block-index order must behave exactly like
        // the stride-1 grid-op gate.
        let spec = spec_no_bw();
        let gm = Arc::new(GlobalMemory::new(1 << 20));
        let plan = Arc::new(GridPlan {
            order: vec![0, 1, 2],
        });
        let sched = Arc::new(Scheduler::new(3, 2, 0, 0, 8, &SchedPolicy::Planned(plan)));
        let tokens: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3usize)
                .map(|i| {
                    let sched = Arc::clone(&sched);
                    let gm = Arc::clone(&gm);
                    let spec = spec.clone();
                    s.spawn(move || {
                        let origin = sched.begin(i);
                        let token = sched.grid_set(i, 0, origin + 10).unwrap();
                        sched.finish(i, origin + 50, &gm, &spec);
                        token
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(tokens, vec![0, 1, 2]);
    }

    #[test]
    fn exhausted_plan_rejects_the_extra_grid_op() {
        let spec = spec_no_bw();
        let gm = GlobalMemory::new(1 << 20);
        let plan = Arc::new(GridPlan { order: vec![0] });
        let sched = Scheduler::new(1, 1, 0, 0, 8, &SchedPolicy::Planned(plan));
        sched.begin(0);
        sched.grid_set(0, 0, 10).unwrap();
        let err = sched.grid_set(0, 0, 20).unwrap_err();
        assert!(matches!(err, SimError::InvalidArgument(ref m) if m.contains("exhausted")));
        sched.finish(0, 50, &gm, &spec);
    }

    #[test]
    fn infeasible_plan_errors_instead_of_hanging() {
        // The plan assigns the first commit to block 1, but block 1
        // finishes without any grid op: block 0's gate must error out
        // once that becomes evident, not spin forever.
        let spec = spec_no_bw();
        let gm = Arc::new(GlobalMemory::new(1 << 20));
        let plan = Arc::new(GridPlan { order: vec![1] });
        let sched = Arc::new(Scheduler::new(2, 2, 0, 0, 8, &SchedPolicy::Planned(plan)));
        std::thread::scope(|s| {
            let a = {
                let sched = Arc::clone(&sched);
                let gm = Arc::clone(&gm);
                let spec = spec.clone();
                s.spawn(move || {
                    sched.begin(0);
                    let err = sched.grid_set(0, 0, 10).unwrap_err();
                    assert!(
                        matches!(err, SimError::InvalidArgument(ref m) if m.contains("infeasible"))
                    );
                    sched.finish(0, 50, &gm, &spec);
                })
            };
            let b = {
                let sched = Arc::clone(&sched);
                let gm = Arc::clone(&gm);
                let spec = spec.clone();
                s.spawn(move || {
                    sched.begin(1);
                    sched.finish(1, 40, &gm, &spec);
                })
            };
            a.join().unwrap();
            b.join().unwrap();
        });
    }

    #[test]
    fn serial_and_parallel_schedulers_agree() {
        // The same three-block, one-barrier schedule must produce the
        // same results, records, and wait attribution in both modes.
        let spec = spec_no_bw();
        let set_clocks = [100u64, 5000, 250];
        let w = spec.flag_wait_cycles;
        let run = |mode: SchedPolicy| {
            let gm = Arc::new(GlobalMemory::new(1 << 20));
            let sched = Arc::new(Scheduler::new(
                set_clocks.len(),
                set_clocks.len(),
                0,
                0,
                8,
                &mode,
            ));
            let results: Vec<(EventTime, EventTime, EventTime)> = std::thread::scope(|s| {
                let handles: Vec<_> = set_clocks
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| {
                        let sched = Arc::clone(&sched);
                        let gm = Arc::clone(&gm);
                        let spec = spec.clone();
                        s.spawn(move || {
                            sched.begin(i);
                            let r = sched.sync(i, c, c + w, &gm, &spec, 7);
                            sched.finish(i, r.1, &gm, &spec);
                            r
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            (
                results,
                sched.round_records(),
                sched.final_record(),
                sched.round_waits(),
                sched.flag_waits(),
            )
        };
        assert_eq!(run(SchedPolicy::Serial), run(SchedPolicy::Parallel));
    }

    #[test]
    fn env_policy_follows_ascend_sched() {
        // CI runs the whole suite a second time with ASCEND_SCHED=serial;
        // this pins that such a run really gates at stride 1.
        let expect = match std::env::var("ASCEND_SCHED").as_deref() {
            Ok("serial") | Ok("baton") => SchedPolicy::Serial,
            _ => SchedPolicy::Parallel,
        };
        assert_eq!(SchedPolicy::Env.resolve(), expect);
        let wide = Scheduler::new(4, 2, 0, 0, 8, &SchedPolicy::Env);
        let step = if expect == SchedPolicy::Serial { 1 } else { 2 };
        assert_eq!(wide.lock().segment_step(), step);
        let plan = SchedPolicy::Planned(Arc::new(GridPlan { order: vec![0] }));
        for policy in [SchedPolicy::Serial, SchedPolicy::Parallel, plan] {
            assert_eq!(policy.resolve(), policy);
        }
    }

    #[test]
    fn flag_file_is_a_counting_semaphore() {
        let flags = FlagFile::new(8);
        assert_eq!(flags.consume(3).unwrap(), None);
        let t0 = flags.set(3, 100).unwrap();
        let t1 = flags.set(3, 140).unwrap();
        assert_ne!(t0, t1, "every set gets a unique token");
        // A producer running ahead queues events; waits drain in FIFO
        // order, pairing each wait with the earliest pending set.
        assert_eq!(flags.consume(3).unwrap(), Some((100, t0)));
        assert_eq!(flags.consume(3).unwrap(), Some((140, t1)));
        assert_eq!(flags.consume(3).unwrap(), None);
        // Independent ids do not interfere.
        let ta = flags.set(0, 7).unwrap();
        flags.set(1, 9).unwrap();
        assert_eq!(flags.consume(0).unwrap(), Some((7, ta)));
    }

    #[test]
    fn flag_file_enforces_the_id_space() {
        let flags = FlagFile::new(8);
        assert_eq!(flags.limit(), 8);
        let err = flags.set(8, 100).unwrap_err();
        assert!(matches!(
            err,
            SimError::FlagIdOutOfRange { id: 8, limit: 8 }
        ));
        let err = flags.consume(200).unwrap_err();
        assert!(matches!(
            err,
            SimError::FlagIdOutOfRange { id: 200, limit: 8 }
        ));
        // In-range ids still work.
        flags.set(7, 1).unwrap();
        assert!(flags.consume(7).unwrap().is_some());
    }
}
