//! Exhaustive schedule-space model checking of a launch's sync skeleton.
//!
//! The [`hb`](crate::hb) analyzer checks the *one* interleaving a given
//! scheduler happened to produce. This module upgrades that to a proof at
//! small scale: it takes the threads of the launch's
//! [`LaunchGraph`] as per-`(block, core)` thread programs over the
//! sync-visible operations (`Set`/`Wait` on a per-block or grid flag
//! [`Chan`], `SyncAll` barrier rounds, `TQue` enque/deque, wave
//! hand-offs, thread end) and drives that model through
//! **every inequivalent interleaving** permitted by the scheduler
//! semantics of [`sync`](crate::sync):
//!
//! * blocking waits — a flag/grid wait only fires after a matching set;
//! * barrier rendezvous — a `SyncAll` round commits only once every
//!   still-live thread has parked at its barrier;
//! * wave gating — with `B` blocks time-shared over `P` physical block
//!   slots, block `b` may only run when every lower block `j ≡ b (mod P)`
//!   has either finished or yielded the slot often enough
//!   (`yields[j] ≥ yields[b] + 1`), exactly the simulator's begin/resume
//!   gates. Blocks yield at barrier arrival and at block finish.
//!
//! The exploration runs in two phases over the same model:
//!
//! 1. **Phase A — exhaustive state search.** A depth-first search
//!    memoized on the model state (program counters + parked bits, which
//!    determine every counter in the model) visits every reachable
//!    state. This finds deadlocks (a non-final state with no enabled
//!    transition) and gathers AccelSync-style *sync coverage*: each wait
//!    site must be observed both blocked (runnable but not enabled) and
//!    ready in some reachable state.
//! 2. **Phase B — DPOR execution enumeration.** A partial-order-reduced
//!    search (persistent sets from a static thread-dependence closure,
//!    plus sleep sets filtered by an op-level independence relation)
//!    enumerates inequivalent complete executions. For each one it
//!    reconstructs a concrete [`HbEvent`] stream (tokens re-stamped per
//!    scope and consumed FIFO per channel, as the simulator's flag files
//!    do) and re-runs
//!    [`hb::analyze`] on it, and records the execution's **grid commit
//!    order** — the sequence a [`GridPlan`](crate::sync::GridPlan) needs
//!    to replay that schedule on the real simulator.
//!
//! `Deque` operations gate execution in the model but are excluded from
//! wait-site coverage: AscendC queues pair enque/deque on the same
//! `(block, core)` stream, so they are satisfied in program order and can
//! never be observed blocking.
//!
//! The `mcheck` CLI in the bench crate wires this together: it model
//! checks each shipped kernel on a tiny chip, then replays every unique
//! grid order through `SchedPolicy::Planned` and byte-compares the
//! resulting `KernelReport`s to prove schedule independence.

use crate::error::{SimError, SimResult};
use crate::graph::{Chan, LaunchGraph};
use crate::hb::{self, Diagnostic};
use crate::trace::{HbAction, HbEvent};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// Cap on distinct diagnostics accumulated across all explored executions.
const DIAG_CAP: usize = 50;
/// Cap on rendered deadlock witnesses (all deadlock states are counted).
const WITNESS_CAP: usize = 4;
/// Longest thread program the model holds: program counters are `u16`
/// and the state key packs `pc * 2 + parked`.
const MAX_PROGRAM_OPS: usize = u16::MAX as usize / 2 - 1;

/// Tuning knobs for [`check`].
#[derive(Clone, Debug)]
pub struct McConfig {
    /// Number of physical block slots (the tiny chip's `ai_cores`).
    /// Blocks beyond this are wave-multiplexed onto the slots.
    pub phys: usize,
    /// Phase A stops after visiting this many distinct states; phase B
    /// stops after this many transitions. Exceeding either sets
    /// [`McReport::budget_exhausted`].
    pub max_states: usize,
    /// Phase B stops after enumerating this many complete executions.
    pub max_execs: usize,
    /// Disable to turn off persistent-set and sleep-set pruning (every
    /// interleaving is enumerated). Used to validate the reduction.
    pub reduction: bool,
}

impl McConfig {
    /// Defaults: 200k states, 4096 executions, reduction on.
    pub fn new(phys: usize) -> Self {
        McConfig {
            phys,
            max_states: 200_000,
            max_execs: 4096,
            reduction: true,
        }
    }
}

/// Sync-coverage metrics over the explored state space.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct McCoverage {
    /// Static wait sites (flag waits, grid waits, barrier parks).
    pub wait_sites: usize,
    /// Sites observed blocked (runnable but not enabled) in some state.
    pub wait_sites_blocked: usize,
    /// Sites observed ready (enabled / round committable) in some state.
    pub wait_sites_ready: usize,
    /// Sites observed both blocked and ready — full AccelSync duality.
    pub wait_sites_dual: usize,
    /// Distinct flag identities exercised (per-block `(block, id)` pairs
    /// plus grid flag ids).
    pub flag_ids: usize,
    /// Barrier rounds in the program (path-independent).
    pub barrier_rounds: usize,
    /// Human-readable descriptions of sites missing dual coverage.
    pub uncovered: Vec<String>,
}

/// Result of a [`check`] run.
#[derive(Clone, Debug)]
pub struct McReport {
    /// Model threads (`(block, core)` pairs with at least one event).
    pub threads: usize,
    /// Distinct blocks.
    pub blocks: usize,
    /// Sync-visible operations across all threads (excluding thread ends).
    pub sync_ops: usize,
    /// Distinct states visited by phase A.
    pub states: usize,
    /// Transitions taken (phase A + phase B).
    pub transitions: usize,
    /// Complete executions enumerated by phase B.
    pub executions: usize,
    /// Every distinct grid-flag commit order (block index per commit, sets
    /// and consumes alike) seen across executions — each is a
    /// [`GridPlan`](crate::sync::GridPlan) order for simulator replay.
    pub unique_grid_orders: Vec<Vec<u32>>,
    /// Executions-subtree visits skipped by sleep sets.
    pub sleep_pruned: usize,
    /// Enabled transitions pruned by persistent sets.
    pub persistent_pruned: usize,
    /// True if any phase hit its state/execution budget before finishing;
    /// the exploration is then a partial proof only.
    pub budget_exhausted: bool,
    /// Distinct deadlocked states found by phase A.
    pub deadlocks: usize,
    /// Rendered witnesses for the first few deadlocks.
    pub deadlock_witnesses: Vec<String>,
    /// Deduplicated hb diagnostics across all explored executions.
    pub diagnostics: Vec<Diagnostic>,
    /// Sync-coverage metrics.
    pub coverage: McCoverage,
}

/// A sync-visible operation in a thread program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SyncOp {
    /// A flag set: `CrossCoreSetFlag` into a block's flag file or
    /// `GridSetFlag` on the launch-wide mailbox.
    Set(Chan),
    /// The matching blocking wait.
    Wait(Chan),
    /// `SyncAll` barrier arrival (parks; advanced by a round commit).
    Barrier,
    /// `TQue` enque (never blocks).
    Enque { queue: u32 },
    /// `TQue` deque (blocks until the queue is non-empty).
    Deque { queue: u32 },
    /// Thread end: the block finishes when its last thread ends.
    End,
}

/// One model operation: a sync op plus the local (non-sync) events that
/// precede it in program order, and their GM footprint.
#[derive(Clone, Debug)]
struct OpNode {
    op: SyncOp,
    /// Indices into the original event stream of local events emitted
    /// before this op (GM accesses, queue create/destroy, alloc/free).
    locals: Vec<usize>,
    /// Index of the sync event itself (`None` for `End`).
    sync_event: Option<usize>,
    /// GM accesses among `locals`: `(start, end, is_write)`.
    gm: Vec<(u64, u64, bool)>,
}

/// One thread program: the sync skeleton of a `(block, core)` stream.
#[derive(Clone, Debug)]
struct ThreadProg {
    block: u32,
    core: u32,
    /// Dense rank of `block` among the launch's distinct block ids.
    brank: usize,
    ops: Vec<OpNode>,
}

impl OpNode {
    fn new(events: &[HbEvent], op: SyncOp, locals: Vec<usize>, sync_event: Option<usize>) -> Self {
        let gm = locals
            .iter()
            .filter_map(|&i| match events[i].action {
                HbAction::GmRead { start, end } => Some((start, end, false)),
                HbAction::GmWrite { start, end } => Some((start, end, true)),
                _ => None,
            })
            .collect();
        OpNode {
            op,
            locals,
            sync_event,
            gm,
        }
    }
}

/// Abstract the launch graph's threads into thread programs.
fn extract(g: &LaunchGraph<'_>) -> SimResult<(Vec<ThreadProg>, usize)> {
    let events = g.events;
    let mut blocks: Vec<u32> = g.threads.iter().map(|t| t.block).collect();
    blocks.sort_unstable();
    blocks.dedup();
    let mut progs = Vec::with_capacity(g.threads.len());
    for th in &g.threads {
        let (mut ops, mut locals) = (Vec::new(), Vec::new());
        for &i in &th.nodes {
            let op = match (events[i].action, events[i].flag()) {
                (HbAction::Barrier { .. }, _) => SyncOp::Barrier,
                (HbAction::Enque { queue }, _) => SyncOp::Enque { queue },
                (HbAction::Deque { queue }, _) => SyncOp::Deque { queue },
                (_, Some(f)) if f.set => SyncOp::Set(f.chan),
                (_, Some(f)) => SyncOp::Wait(f.chan),
                _ => {
                    locals.push(i);
                    continue;
                }
            };
            ops.push(OpNode::new(
                events,
                op,
                std::mem::take(&mut locals),
                Some(i),
            ));
        }
        ops.push(OpNode::new(events, SyncOp::End, locals, None));
        if ops.len() > MAX_PROGRAM_OPS {
            return Err(SimError::InvalidArgument(format!(
                "block {} core {}: a thread program of {} ops is too long for the model \
                 checker (limit {MAX_PROGRAM_OPS})",
                th.block,
                th.core,
                ops.len()
            )));
        }
        progs.push(ThreadProg {
            block: th.block,
            core: th.core,
            brank: blocks.binary_search(&th.block).expect("block listed"),
            ops,
        });
    }
    Ok((progs, blocks.len()))
}

fn op_desc(op: SyncOp) -> String {
    match op {
        SyncOp::Set(c) | SyncOp::Wait(c) => {
            let (_, set, wait) = c.names();
            let instr = if matches!(op, SyncOp::Set(_)) {
                set
            } else {
                wait
            };
            match c.block {
                Some(block) => format!("{instr}(block {block}, id {})", c.id),
                None => format!("{instr}(id {})", c.id),
            }
        }
        SyncOp::Barrier => "SyncAll barrier".to_string(),
        SyncOp::Enque { queue } => format!("EnQue(queue {queue})"),
        SyncOp::Deque { queue } => format!("DeQue(queue {queue})"),
        SyncOp::End => "end of program".to_string(),
    }
}

/// A transition of the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tr {
    /// Thread `t` executes its current (non-barrier) op.
    Step(usize),
    /// Thread `t` parks at its barrier (the block yields its slot once
    /// all of its live threads have parked).
    Park(usize),
    /// A barrier round commits: every parked thread advances.
    Round,
}

/// Inverse record for [`Model::undo`].
enum Undo {
    Op {
        t: usize,
        finished_block: bool,
        yielded: bool,
    },
    Park {
        t: usize,
        yielded: bool,
    },
    Round {
        advanced: Vec<usize>,
    },
}

/// The dynamic model state. Every counter is a function of
/// `(pcs, parked)`, which is therefore a sound memoization key.
struct Model<'a> {
    progs: &'a [ThreadProg],
    threads_of_block: Vec<Vec<usize>>,
    phys: usize,
    pcs: Vec<u16>,
    parked: Vec<bool>,
    block_live: Vec<u32>,
    finished: Vec<bool>,
    yields: Vec<u64>,
    flag_avail: HashMap<Chan, u32>,
    queue_avail: HashMap<u32, u32>,
    /// Block index of every grid-flag commit, in commit order.
    grid_log: Vec<u32>,
}

impl<'a> Model<'a> {
    fn new(progs: &'a [ThreadProg], nblocks: usize, phys: usize) -> Self {
        let mut block_live = vec![0u32; nblocks];
        let mut threads_of_block = vec![Vec::new(); nblocks];
        for (t, p) in progs.iter().enumerate() {
            block_live[p.brank] += 1;
            threads_of_block[p.brank].push(t);
        }
        Model {
            progs,
            threads_of_block,
            phys,
            pcs: vec![0; progs.len()],
            parked: vec![false; progs.len()],
            block_live,
            finished: vec![false; nblocks],
            yields: vec![0; nblocks],
            flag_avail: HashMap::new(),
            queue_avail: HashMap::new(),
            grid_log: Vec::new(),
        }
    }

    fn done(&self, t: usize) -> bool {
        usize::from(self.pcs[t]) == self.progs[t].ops.len()
    }

    fn all_done(&self) -> bool {
        (0..self.progs.len()).all(|t| self.done(t))
    }

    fn cur(&self, t: usize) -> &OpNode {
        &self.progs[t].ops[usize::from(self.pcs[t])]
    }

    /// The simulator's wave gate: block `brank` may run iff every lower
    /// block in its slot group has finished or yielded past it.
    fn runnable(&self, brank: usize) -> bool {
        let mut j = brank % self.phys;
        while j < brank {
            if !(self.finished[j] || self.yields[j] > self.yields[brank]) {
                return false;
            }
            j += self.phys;
        }
        true
    }

    fn op_enabled(&self, t: usize) -> bool {
        match self.cur(t).op {
            SyncOp::Wait(c) => self.flag_avail.get(&c).copied().unwrap_or(0) > 0,
            SyncOp::Deque { queue } => self.queue_avail.get(&queue).copied().unwrap_or(0) > 0,
            SyncOp::Barrier => !self.parked[t],
            _ => true,
        }
    }

    fn enabled(&self, t: usize) -> bool {
        !self.done(t) && self.runnable(self.progs[t].brank) && self.op_enabled(t)
    }

    /// The transition thread `t` would take if enabled.
    fn tr_for(&self, t: usize) -> Tr {
        if matches!(self.cur(t).op, SyncOp::Barrier) {
            Tr::Park(t)
        } else {
            Tr::Step(t)
        }
    }

    fn enabled_threads(&self) -> Vec<usize> {
        (0..self.progs.len()).filter(|&t| self.enabled(t)).collect()
    }

    /// True once the block has arrived at a barrier: at least one of its
    /// threads is parked and every live thread is parked. Arriving
    /// yields the block's slot (wave hand-off), whether the last live
    /// thread parked or a sibling finished while the rest were parked.
    fn block_arrived(&self, brank: usize) -> bool {
        self.threads_of_block[brank].iter().any(|&u| self.parked[u])
            && self.threads_of_block[brank]
                .iter()
                .all(|&u| self.done(u) || self.parked[u])
    }

    /// A round may commit iff at least one thread is parked and every
    /// non-done thread is parked (the simulator's rendezvous over live
    /// blocks).
    fn round_enabled(&self) -> bool {
        let mut any = false;
        for t in 0..self.progs.len() {
            if self.done(t) {
                continue;
            }
            if !self.parked[t] {
                return false;
            }
            any = true;
        }
        any
    }

    /// Memoization key: `pc * 2 + parked` per thread.
    fn key(&self) -> Vec<u16> {
        (0..self.progs.len())
            .map(|t| self.pcs[t] * 2 + u16::from(self.parked[t]))
            .collect()
    }

    fn step(&mut self, tr: Tr) -> Undo {
        match tr {
            Tr::Step(t) => {
                let brank = self.progs[t].brank;
                let op = self.cur(t).op;
                if matches!(op, SyncOp::End) {
                    let before = self.block_arrived(brank);
                    self.pcs[t] += 1;
                    self.block_live[brank] -= 1;
                    let mut finished_block = false;
                    let mut yielded = false;
                    if self.block_live[brank] == 0 {
                        self.finished[brank] = true;
                        self.yields[brank] += 1;
                        finished_block = true;
                    } else if !before && self.block_arrived(brank) {
                        // The siblings were already parked: this end
                        // completes the block's barrier arrival.
                        self.yields[brank] += 1;
                        yielded = true;
                    }
                    return Undo::Op {
                        t,
                        finished_block,
                        yielded,
                    };
                }
                self.pcs[t] += 1;
                match op {
                    SyncOp::Set(c) | SyncOp::Wait(c) => {
                        let avail = self.flag_avail.entry(c).or_insert(0);
                        if matches!(op, SyncOp::Set(_)) {
                            *avail += 1;
                        } else {
                            *avail -= 1;
                        }
                        if c.block.is_none() {
                            self.grid_log.push(self.progs[t].block);
                        }
                    }
                    SyncOp::Enque { queue } => {
                        *self.queue_avail.entry(queue).or_insert(0) += 1;
                    }
                    SyncOp::Deque { queue } => {
                        *self.queue_avail.get_mut(&queue).expect("gated") -= 1;
                    }
                    SyncOp::Barrier | SyncOp::End => {
                        unreachable!("barriers advance via Round; End handled above")
                    }
                }
                Undo::Op {
                    t,
                    finished_block: false,
                    yielded: false,
                }
            }
            Tr::Park(t) => {
                let brank = self.progs[t].brank;
                self.parked[t] = true;
                let yielded = self.threads_of_block[brank]
                    .iter()
                    .all(|&u| self.done(u) || self.parked[u]);
                if yielded {
                    self.yields[brank] += 1;
                }
                Undo::Park { t, yielded }
            }
            Tr::Round => {
                let advanced: Vec<usize> =
                    (0..self.progs.len()).filter(|&t| self.parked[t]).collect();
                for &t in &advanced {
                    self.parked[t] = false;
                    self.pcs[t] += 1;
                }
                Undo::Round { advanced }
            }
        }
    }

    fn undo(&mut self, u: Undo) {
        match u {
            Undo::Op {
                t,
                finished_block,
                yielded,
            } => {
                self.pcs[t] -= 1;
                let brank = self.progs[t].brank;
                let op = self.cur(t).op;
                match op {
                    SyncOp::Set(c) | SyncOp::Wait(c) => {
                        let avail = self.flag_avail.get_mut(&c).expect("stepped");
                        if matches!(op, SyncOp::Set(_)) {
                            *avail -= 1;
                        } else {
                            *avail += 1;
                        }
                        if c.block.is_none() {
                            self.grid_log.pop();
                        }
                    }
                    SyncOp::Enque { queue } => {
                        *self.queue_avail.get_mut(&queue).expect("set") -= 1;
                    }
                    SyncOp::Deque { queue } => {
                        *self.queue_avail.entry(queue).or_insert(0) += 1;
                    }
                    SyncOp::Barrier => unreachable!("barriers advance via Round"),
                    SyncOp::End => {
                        self.block_live[brank] += 1;
                        if finished_block {
                            self.finished[brank] = false;
                        }
                        if finished_block || yielded {
                            self.yields[brank] -= 1;
                        }
                    }
                }
            }
            Undo::Park { t, yielded } => {
                self.parked[t] = false;
                if yielded {
                    self.yields[self.progs[t].brank] -= 1;
                }
            }
            Undo::Round { advanced } => {
                for &t in &advanced {
                    self.pcs[t] -= 1;
                    self.parked[t] = true;
                }
            }
        }
    }
}

/// One state on phase A's search path.
struct FrameA {
    /// The state's outgoing transitions.
    trs: Vec<Tr>,
    /// Index of the next transition to take.
    next: usize,
    /// Undo record of the transition whose subtree is being explored.
    undo: Option<Undo>,
}

/// One state on phase B's search path.
enum FrameB {
    /// A forced round commit, undone when its subtree is done.
    Round(Undo),
    /// A state exploring its persistent set `p` under sleep set `sleep`.
    Threads {
        sleep: Vec<bool>,
        p: Vec<usize>,
        /// Index into `p` of the next candidate.
        next: usize,
        /// Threads whose subtrees are fully explored here.
        done_here: Vec<usize>,
        /// The thread being explored and its transition's undo record.
        undo: Option<(usize, Undo)>,
    },
}

#[derive(Clone, Copy, Debug, Default)]
struct SiteCov {
    ready: bool,
    blocked: bool,
}

struct Checker<'a> {
    m: Model<'a>,
    cfg: &'a McConfig,
    events: &'a [HbEvent],
    nblocks: usize,
    /// Static thread-dependence matrix for persistent-set closures.
    dep: Vec<Vec<bool>>,
    visited: HashSet<Vec<u16>>,
    sites: BTreeMap<(usize, u16), SiteCov>,
    deadlocks: usize,
    witnesses: Vec<String>,
    transitions: usize,
    budget_exhausted: bool,
    executions: usize,
    b_transitions: usize,
    sleep_pruned: usize,
    persistent_pruned: usize,
    grid_orders: BTreeSet<Vec<u32>>,
    diags: Vec<Diagnostic>,
    path: Vec<Tr>,
}

impl<'a> Checker<'a> {
    // ---------------- phase A: exhaustive state search ----------------

    fn run_phase_a(&mut self) {
        self.visited.insert(self.m.key());
        self.observe();
        self.dfs_a();
    }

    /// Depth-first search over states, on an explicit stack (one frame
    /// per state on the current path, so long programs cannot overflow
    /// the host thread's stack). Each frame holds the state's outgoing
    /// transitions, the next one to take, and the undo record of the
    /// transition whose subtree is being explored.
    fn dfs_a(&mut self) {
        let mut stack: Vec<FrameA> = self.expand_a().into_iter().collect();
        while let Some(top) = stack.last_mut() {
            if let Some(u) = top.undo.take() {
                self.m.undo(u);
                if self.budget_exhausted {
                    stack.pop();
                    continue;
                }
            }
            let Some(&tr) = top.trs.get(top.next) else {
                stack.pop();
                continue;
            };
            top.next += 1;
            let u = self.m.step(tr);
            self.transitions += 1;
            let key = self.m.key();
            if self.visited.len() >= self.cfg.max_states {
                self.budget_exhausted = true;
            } else if !self.visited.contains(&key) {
                self.visited.insert(key);
                self.observe();
                top.undo = Some(u);
                stack.extend(self.expand_a());
                continue;
            }
            top.undo = Some(u);
        }
    }

    /// The transitions out of the current state, or `None` at a leaf
    /// (recording a deadlock if the leaf is not a completed launch).
    fn expand_a(&mut self) -> Option<FrameA> {
        let en = self.m.enabled_threads();
        let trs: Vec<Tr> = if en.is_empty() {
            if self.m.round_enabled() {
                vec![Tr::Round]
            } else {
                if !self.m.all_done() {
                    self.record_deadlock();
                }
                return None;
            }
        } else {
            en.iter().map(|&t| self.m.tr_for(t)).collect()
        };
        Some(FrameA {
            trs,
            next: 0,
            undo: None,
        })
    }

    /// Record wait-site coverage visible in the current state.
    fn observe(&mut self) {
        let round = self.m.round_enabled();
        for t in 0..self.m.progs.len() {
            if self.m.done(t) {
                continue;
            }
            let pc = self.m.pcs[t];
            match self.m.cur(t).op {
                SyncOp::Wait(_) if self.m.runnable(self.m.progs[t].brank) => {
                    let cov = self.sites.entry((t, pc)).or_default();
                    if self.m.op_enabled(t) {
                        cov.ready = true;
                    } else {
                        cov.blocked = true;
                    }
                }
                SyncOp::Barrier if self.m.parked[t] => {
                    let cov = self.sites.entry((t, pc)).or_default();
                    if round {
                        cov.ready = true;
                    } else {
                        cov.blocked = true;
                    }
                }
                _ => {}
            }
        }
    }

    fn record_deadlock(&mut self) {
        self.deadlocks += 1;
        if self.witnesses.len() >= WITNESS_CAP {
            return;
        }
        let mut parts = Vec::new();
        for t in 0..self.m.progs.len() {
            if self.m.done(t) {
                continue;
            }
            let p = &self.m.progs[t];
            let why = if !self.m.runnable(p.brank) {
                "wave-gated behind an unfinished lower block in its slot group"
            } else if self.m.parked[t] {
                "parked at a barrier round that can never commit"
            } else {
                "blocked on a set that is never published"
            };
            parts.push(format!(
                "block {} core {} stuck at {} ({why})",
                p.block,
                p.core,
                op_desc(self.m.cur(t).op)
            ));
        }
        self.witnesses.push(parts.join("; "));
    }

    // ---------------- phase B: DPOR execution enumeration ----------------

    fn stop_b(&mut self) -> bool {
        if self.executions >= self.cfg.max_execs || self.b_transitions >= self.cfg.max_states {
            self.budget_exhausted = true;
            return true;
        }
        false
    }

    fn run_phase_b(&mut self) {
        let sleep = vec![false; self.m.progs.len()];
        let mut stack: Vec<FrameB> = Vec::new();
        self.enter_b(sleep, &mut stack);
        while let Some(top) = stack.last_mut() {
            let FrameB::Threads {
                sleep,
                p,
                next,
                done_here,
                undo,
            } = top
            else {
                // A round's subtree is done.
                let Some(FrameB::Round(u)) = stack.pop() else {
                    unreachable!("matched a round frame")
                };
                self.path.pop();
                self.m.undo(u);
                continue;
            };
            if let Some((t, u)) = undo.take() {
                self.path.pop();
                self.m.undo(u);
                done_here.push(t);
                if self.stop_b() {
                    stack.pop();
                    continue;
                }
            }
            let mut awake = None;
            while let Some(&t) = p.get(*next) {
                *next += 1;
                if !sleep[t] {
                    awake = Some(t);
                    break;
                }
                self.sleep_pruned += 1;
            }
            let Some(t) = awake else {
                stack.pop();
                continue;
            };
            let t_pc = usize::from(self.m.pcs[t]);
            let tr = self.m.tr_for(t);
            let u = self.m.step(tr);
            self.b_transitions += 1;
            self.path.push(tr);
            let child_sleep: Vec<bool> = (0..self.m.progs.len())
                .map(|w| {
                    w != t
                        && !self.m.done(w)
                        && (sleep[w] || done_here.contains(&w))
                        && !self.op_dep(w, t, t_pc)
                })
                .collect();
            *undo = Some((t, u));
            self.enter_b(child_sleep, &mut stack);
        }
    }

    /// DPOR execution enumeration, entering the current state with sleep
    /// set `sleep`: pushes the frames that explore it (a chain of forced
    /// round commits, then the state's persistent set), or records a
    /// completed execution at a leaf. Frames live on the caller's
    /// explicit stack, so search depth is bounded by memory rather than
    /// the host thread's stack.
    fn enter_b(&mut self, mut sleep: Vec<bool>, stack: &mut Vec<FrameB>) {
        loop {
            if self.stop_b() {
                return;
            }
            let en = self.m.enabled_threads();
            if !en.is_empty() {
                let p = if self.cfg.reduction {
                    let p = self.persistent(&en);
                    self.persistent_pruned += en.len() - p.len();
                    p
                } else {
                    en
                };
                stack.push(FrameB::Threads {
                    sleep,
                    p,
                    next: 0,
                    done_here: Vec::new(),
                    undo: None,
                });
                return;
            }
            if !self.m.round_enabled() {
                if self.m.all_done() {
                    self.record_execution();
                }
                // A deadlocked leaf was already counted by phase A.
                return;
            }
            let u = self.m.step(Tr::Round);
            self.b_transitions += 1;
            self.path.push(Tr::Round);
            stack.push(FrameB::Round(u));
            // Rounds touch every thread; sleep sets do not survive.
            sleep = vec![false; self.m.progs.len()];
        }
    }

    /// Persistent set: the enabled transitions inside the static
    /// dependence closure seeded from the first enabled thread. Disabled
    /// threads participate in the closure (their enablers share objects
    /// with them, hence are statically dependent), which keeps the set
    /// persistent.
    fn persistent(&self, en: &[usize]) -> Vec<usize> {
        let n = self.m.progs.len();
        let mut inset = vec![false; n];
        let mut stack = vec![en[0]];
        inset[en[0]] = true;
        while let Some(t) = stack.pop() {
            for (u, in_u) in inset.iter_mut().enumerate() {
                if !*in_u && !self.m.done(u) && self.dep[t][u] {
                    *in_u = true;
                    stack.push(u);
                }
            }
        }
        en.iter().copied().filter(|&t| inset[t]).collect()
    }

    /// Op-level dependence between thread `w`'s *current* op and the op
    /// thread `t` just executed at `t_pc`. Used to filter sleep sets:
    /// only independent threads stay asleep.
    fn op_dep(&self, w: usize, t: usize, t_pc: usize) -> bool {
        let pw = &self.m.progs[w];
        let pt = &self.m.progs[t];
        let a = self.m.cur(w);
        let b = &pt.ops[t_pc];
        // Barrier parks and thread ends bump parked/finished/yields,
        // which can *enable* ops of higher blocks time-shared on the
        // same slot — a one-way coupling, so only the lower block's
        // gating ops are dependent with the higher block's ops. Parks
        // and ends of unrelated blocks commute with everything that
        // shares no object with them (round commits are forced
        // transitions that only fire when nothing else is enabled, so
        // they never race), and within one block the arrival/finish
        // bookkeeping is order-insensitive.
        let gating = |o: &OpNode| matches!(o.op, SyncOp::Barrier | SyncOp::End);
        if self.nblocks > self.m.phys
            && pw.brank != pt.brank
            && pw.brank % self.m.phys == pt.brank % self.m.phys
            && ((pw.brank < pt.brank && gating(a)) || (pt.brank < pw.brank && gating(b)))
        {
            return true;
        }
        ops_conflict(a, b)
    }

    // ---------------- execution recording ----------------

    fn record_execution(&mut self) {
        self.executions += 1;
        self.grid_orders.insert(self.m.grid_log.clone());
        let stream = self.rebuild_stream();
        for d in hb::analyze(&stream) {
            if self.diags.len() < DIAG_CAP && !self.diags.contains(&d) {
                self.diags.push(d);
            }
        }
    }

    /// Reconstruct the concrete event stream of the current path, with
    /// flag tokens re-stamped under the simulator's FIFO disciplines
    /// (per-block flag file; launch-wide grid token counter).
    fn rebuild_stream(&self) -> Vec<HbEvent> {
        let n = self.m.progs.len();
        let mut pcs = vec![0usize; n];
        let mut out: Vec<HbEvent> = Vec::new();
        // Tokens count per scope (a block's flag file, or launch-wide)
        // and are consumed FIFO per channel.
        let mut next_token: HashMap<Option<u32>, u64> = HashMap::new();
        let mut fifo: HashMap<Chan, VecDeque<u64>> = HashMap::new();
        let mut emit = |t: usize, pcs: &mut Vec<usize>, out: &mut Vec<HbEvent>| {
            let node = &self.m.progs[t].ops[pcs[t]];
            for &i in &node.locals {
                out.push(self.events[i]);
            }
            if let Some(si) = node.sync_event {
                let ev = self.events[si];
                let action = match ev.flag() {
                    Some(mut f) if f.set => {
                        let next = next_token.entry(f.chan.block).or_insert(0);
                        f.token = *next;
                        *next += 1;
                        fifo.entry(f.chan).or_default().push_back(f.token);
                        f.action()
                    }
                    Some(mut f) => {
                        f.token = fifo
                            .get_mut(&f.chan)
                            .and_then(|q| q.pop_front())
                            .expect("model gates waits on a pending set");
                        f.action()
                    }
                    None => ev.action,
                };
                out.push(HbEvent { action, ..ev });
            }
            pcs[t] += 1;
        };
        for &tr in &self.path {
            match tr {
                Tr::Park(_) => {}
                Tr::Step(t) => emit(t, &mut pcs, &mut out),
                Tr::Round => {
                    for t in 0..n {
                        if pcs[t] < self.m.progs[t].ops.len()
                            && matches!(self.m.progs[t].ops[pcs[t]].op, SyncOp::Barrier)
                        {
                            emit(t, &mut pcs, &mut out);
                        }
                    }
                }
            }
        }
        out
    }
}

/// Whether two ops share an object, so their order can matter: one flag
/// channel (any two grid-flag ops also share the launch-wide commit
/// order), one queue, or GM bytes that either of them writes.
fn ops_conflict(a: &OpNode, b: &OpNode) -> bool {
    let queue = |o: &OpNode| match o.op {
        SyncOp::Enque { queue } | SyncOp::Deque { queue } => Some(queue),
        _ => None,
    };
    let same_chan = match (a.op, b.op) {
        (SyncOp::Set(x) | SyncOp::Wait(x), SyncOp::Set(y) | SyncOp::Wait(y)) => {
            x == y || (x.block.is_none() && y.block.is_none())
        }
        _ => false,
    };
    same_chan
        || (queue(a).is_some() && queue(a) == queue(b))
        || a.gm.iter().any(|&(s1, e1, w1)| {
            b.gm.iter()
                .any(|&(s2, e2, w2)| (w1 || w2) && s1 < e2 && s2 < e1)
        })
}

/// Static thread-level dependence for persistent-set closures. Threads
/// are dependent if any pair of their ops could ever be dependent: they
/// share a block, a physical slot (wave gating couples blocks
/// time-shared on it), or an object.
fn thread_dep(a: &ThreadProg, b: &ThreadProg, phys: usize, nblocks: usize) -> bool {
    a.brank == b.brank
        || (nblocks > phys && a.brank % phys == b.brank % phys)
        || a.ops
            .iter()
            .any(|x| b.ops.iter().any(|y| ops_conflict(x, y)))
}

/// Model check the launch whose happens-before events are `events`.
///
/// Explores every inequivalent interleaving of the launch's sync skeleton
/// under `cfg.phys` physical block slots and returns deadlocks, merged hb
/// diagnostics, sync coverage, and the set of grid commit orders for
/// `SchedPolicy::Planned` replay.
///
/// Fails with [`SimError::InvalidArgument`] when `cfg.phys` is zero or a
/// thread program is too long to model.
pub fn check(events: &[HbEvent], cfg: &McConfig) -> SimResult<McReport> {
    if cfg.phys == 0 {
        return Err(SimError::InvalidArgument(
            "the model checker needs at least one physical block slot".to_string(),
        ));
    }
    let (progs, nblocks) = extract(&LaunchGraph::build(events))?;
    let n = progs.len();
    let dep: Vec<Vec<bool>> = (0..n)
        .map(|a| {
            (0..n)
                .map(|b| a != b && thread_dep(&progs[a], &progs[b], cfg.phys, nblocks))
                .collect()
        })
        .collect();
    // Enumerate the static wait sites up front so uncovered sites are
    // reported even if never reached.
    let mut sites: BTreeMap<(usize, u16), SiteCov> = BTreeMap::new();
    let mut chans: HashSet<Chan> = HashSet::new();
    let mut barrier_rounds = 0usize;
    let mut sync_ops = 0usize;
    for (t, p) in progs.iter().enumerate() {
        let mut barriers = 0usize;
        for (pc, node) in p.ops.iter().enumerate() {
            if matches!(node.op, SyncOp::Wait(_) | SyncOp::Barrier) {
                sites.insert((t, pc as u16), SiteCov::default());
            }
            match node.op {
                SyncOp::Set(c) | SyncOp::Wait(c) => {
                    chans.insert(c);
                }
                SyncOp::Barrier => barriers += 1,
                _ => {}
            }
            if !matches!(node.op, SyncOp::End) {
                sync_ops += 1;
            }
        }
        barrier_rounds = barrier_rounds.max(barriers);
    }
    let mut ck = Checker {
        m: Model::new(&progs, nblocks, cfg.phys),
        cfg,
        events,
        nblocks,
        dep,
        visited: HashSet::new(),
        sites,
        deadlocks: 0,
        witnesses: Vec::new(),
        transitions: 0,
        budget_exhausted: false,
        executions: 0,
        b_transitions: 0,
        sleep_pruned: 0,
        persistent_pruned: 0,
        grid_orders: BTreeSet::new(),
        diags: Vec::new(),
        path: Vec::new(),
    };
    ck.run_phase_a();
    ck.run_phase_b();
    let mut cov = McCoverage {
        wait_sites: ck.sites.len(),
        flag_ids: chans.len(),
        barrier_rounds,
        ..McCoverage::default()
    };
    for (&(t, pc), sc) in &ck.sites {
        if sc.ready {
            cov.wait_sites_ready += 1;
        }
        if sc.blocked {
            cov.wait_sites_blocked += 1;
        }
        if sc.ready && sc.blocked {
            cov.wait_sites_dual += 1;
        } else {
            let p = &progs[t];
            let missing = match (sc.ready, sc.blocked) {
                (true, false) => "never observed blocked",
                (false, true) => "never observed ready",
                _ => "never observed at all",
            };
            cov.uncovered.push(format!(
                "block {} core {} op {} ({}): {missing}",
                p.block,
                p.core,
                pc,
                op_desc(p.ops[usize::from(pc)].op)
            ));
        }
    }
    let mut diagnostics = ck.diags;
    diagnostics
        .sort_by(|a, b| (a.severity, a.code, &a.message).cmp(&(b.severity, b.code, &b.message)));
    Ok(McReport {
        threads: n,
        blocks: nblocks,
        sync_ops,
        states: ck.visited.len(),
        transitions: ck.transitions + ck.b_transitions,
        executions: ck.executions,
        unique_grid_orders: ck.grid_orders.into_iter().collect(),
        sleep_pruned: ck.sleep_pruned,
        persistent_pruned: ck.persistent_pruned,
        budget_exhausted: ck.budget_exhausted,
        deadlocks: ck.deadlocks,
        deadlock_witnesses: ck.witnesses,
        diagnostics,
        coverage: cov,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hb::Severity;

    fn ev(block: u32, core: u32, action: HbAction) -> HbEvent {
        HbEvent {
            block,
            core,
            time: 0,
            what: "test",
            action,
        }
    }

    #[test]
    fn empty_launch_is_trivially_clean() {
        let r = check(&[], &McConfig::new(1)).unwrap();
        assert_eq!(r.threads, 0);
        assert_eq!(r.deadlocks, 0);
        assert_eq!(r.executions, 1);
        assert!(r.diagnostics.is_empty());
        assert_eq!(r.unique_grid_orders, vec![Vec::<u32>::new()]);
    }

    #[test]
    fn producer_consumer_wait_gets_dual_coverage() {
        let events = [
            ev(0, 0, HbAction::GridFlagSet { id: 0, token: 0 }),
            ev(1, 0, HbAction::GridFlagWait { id: 0, token: 0 }),
        ];
        let r = check(&events, &McConfig::new(2)).unwrap();
        assert_eq!(r.threads, 2);
        assert_eq!(r.deadlocks, 0, "{:?}", r.deadlock_witnesses);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        // The wait is forced after the set, so there is a single commit
        // order, but the waiter is observed parked before the set lands.
        assert_eq!(r.unique_grid_orders, vec![vec![0, 1]]);
        assert_eq!(r.coverage.wait_sites, 1);
        assert_eq!(
            r.coverage.wait_sites_dual, 1,
            "uncovered: {:?}",
            r.coverage.uncovered
        );
        assert!(!r.budget_exhausted);
    }

    #[test]
    fn wave_gated_forward_wait_deadlocks_on_one_slot() {
        // Block 0 waits for a grid flag that only block 1 sets. On a
        // 1-slot chip block 1 never runs until block 0 finishes: deadlock.
        // hb-analysis of the recorded (2-slot) trace is clean, so only
        // the model checker can see this.
        let events = [
            ev(0, 0, HbAction::GridFlagWait { id: 0, token: 0 }),
            ev(1, 0, HbAction::GridFlagSet { id: 0, token: 0 }),
        ];
        let narrow = check(&events, &McConfig::new(1)).unwrap();
        assert!(narrow.deadlocks > 0);
        assert!(narrow.deadlock_witnesses[0].contains("GridWaitFlag(id 0)"));
        assert!(narrow.deadlock_witnesses[0].contains("wave-gated"));
        let wide = check(&events, &McConfig::new(2)).unwrap();
        assert_eq!(wide.deadlocks, 0, "{:?}", wide.deadlock_witnesses);
        assert_eq!(wide.unique_grid_orders, vec![vec![1, 0]]);
    }

    #[test]
    fn unordered_grid_sets_enumerate_every_commit_order() {
        // Two independent setters and a double-waiter: the sets commute
        // at the program level but grid commits are totally ordered, so
        // the checker must surface every feasible commit order.
        let events = [
            ev(0, 0, HbAction::GridFlagSet { id: 0, token: 0 }),
            ev(1, 0, HbAction::GridFlagSet { id: 0, token: 1 }),
            ev(2, 0, HbAction::GridFlagWait { id: 0, token: 0 }),
            ev(2, 0, HbAction::GridFlagWait { id: 0, token: 1 }),
        ];
        let r = check(&events, &McConfig::new(3)).unwrap();
        assert_eq!(r.deadlocks, 0, "{:?}", r.deadlock_witnesses);
        let expect: Vec<Vec<u32>> = vec![
            vec![0, 1, 2, 2],
            vec![0, 2, 1, 2],
            vec![1, 0, 2, 2],
            vec![1, 2, 0, 2],
        ];
        assert_eq!(r.unique_grid_orders, expect);
    }

    #[test]
    fn reduction_preserves_orders_and_diagnostics() {
        let events = [
            ev(0, 0, HbAction::GmWrite { start: 0, end: 8 }),
            ev(0, 0, HbAction::GridFlagSet { id: 0, token: 0 }),
            ev(1, 0, HbAction::GmRead { start: 0, end: 8 }),
            ev(1, 0, HbAction::GridFlagSet { id: 0, token: 1 }),
            ev(2, 0, HbAction::GridFlagWait { id: 0, token: 0 }),
            ev(2, 0, HbAction::GridFlagWait { id: 0, token: 1 }),
        ];
        let mut on = McConfig::new(3);
        on.reduction = true;
        let mut off = on.clone();
        off.reduction = false;
        let r_on = check(&events, &on).unwrap();
        let r_off = check(&events, &off).unwrap();
        assert_eq!(r_on.unique_grid_orders, r_off.unique_grid_orders);
        let codes =
            |r: &McReport| -> Vec<&'static str> { r.diagnostics.iter().map(|d| d.code).collect() };
        assert_eq!(codes(&r_on), codes(&r_off));
        // The unsynchronized read/write pair must race in some (here:
        // every) interleaving.
        assert!(codes(&r_on).contains(&"gm-race"), "{:?}", r_on.diagnostics);
        assert!(r_off.executions >= r_on.executions);
    }

    #[test]
    fn racy_unsynchronized_blocks_produce_a_gm_race() {
        let events = [
            ev(0, 0, HbAction::GmWrite { start: 0, end: 4 }),
            ev(1, 0, HbAction::GmRead { start: 0, end: 4 }),
        ];
        let r = check(&events, &McConfig::new(2)).unwrap();
        assert_eq!(r.deadlocks, 0);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == "gm-race" && d.severity == Severity::Error));
    }

    #[test]
    fn barrier_round_parks_and_commits_with_dual_coverage() {
        let events = [
            ev(0, 0, HbAction::Barrier { round: 0 }),
            ev(1, 0, HbAction::Barrier { round: 0 }),
        ];
        let r = check(&events, &McConfig::new(2)).unwrap();
        assert_eq!(r.deadlocks, 0, "{:?}", r.deadlock_witnesses);
        assert_eq!(r.coverage.barrier_rounds, 1);
        assert_eq!(r.coverage.wait_sites, 2);
        assert_eq!(
            r.coverage.wait_sites_dual, 2,
            "uncovered: {:?}",
            r.coverage.uncovered
        );
        assert!(r.executions >= 1);
    }

    #[test]
    fn oversubscribed_barriers_hand_the_slot_across_waves() {
        // Two blocks time-shared on one slot, each with a barrier: the
        // wave-0 block must yield at barrier arrival so the wave-1 block
        // can reach its own barrier, then the round commits.
        let events = [
            ev(0, 0, HbAction::Barrier { round: 0 }),
            ev(1, 0, HbAction::Barrier { round: 0 }),
        ];
        let r = check(&events, &McConfig::new(1)).unwrap();
        assert_eq!(r.deadlocks, 0, "{:?}", r.deadlock_witnesses);
        assert!(r.executions >= 1);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn per_block_flag_pairings_are_restamped_fifo() {
        // Cube sets twice, vector waits twice, inside one block. The
        // reconstruction must pair waits FIFO per id so hb sees a clean
        // launch in every interleaving.
        let events = [
            ev(0, 0, HbAction::FlagSet { id: 3, token: 0 }),
            ev(0, 0, HbAction::FlagSet { id: 3, token: 1 }),
            ev(0, 1, HbAction::FlagWait { id: 3, token: 0 }),
            ev(0, 1, HbAction::FlagWait { id: 3, token: 1 }),
        ];
        let r = check(&events, &McConfig::new(1)).unwrap();
        assert_eq!(r.deadlocks, 0, "{:?}", r.deadlock_witnesses);
        let errors: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(r.coverage.wait_sites, 2);
        assert!(r.coverage.wait_sites_dual >= 1);
    }

    #[test]
    fn budget_exhaustion_is_reported_not_fatal() {
        let events = [
            ev(0, 0, HbAction::GridFlagSet { id: 0, token: 0 }),
            ev(1, 0, HbAction::GridFlagSet { id: 0, token: 1 }),
            ev(2, 0, HbAction::GridFlagWait { id: 0, token: 0 }),
            ev(2, 0, HbAction::GridFlagWait { id: 0, token: 1 }),
        ];
        let mut cfg = McConfig::new(3);
        cfg.max_states = 4;
        let r = check(&events, &cfg).unwrap();
        assert!(r.budget_exhausted);
        assert!(r.states <= 4);
    }

    #[test]
    fn zero_slots_are_rejected_not_a_panic() {
        let events = [ev(0, 0, HbAction::GridFlagSet { id: 0, token: 0 })];
        let literal = McConfig {
            phys: 0,
            max_states: 10,
            max_execs: 10,
            reduction: false,
        };
        for cfg in [McConfig::new(0), literal] {
            let err = check(&events, &cfg).unwrap_err();
            assert!(matches!(err, SimError::InvalidArgument(_)), "{err}");
        }
    }

    #[test]
    fn longest_thread_program_fits_a_small_thread_stack() {
        // 32,765 sets plus the thread end: the longest program the model
        // holds, one transition per op. Both searches keep their path on
        // the heap, so a 2 MB stack (the test-harness default) suffices.
        let events: Vec<HbEvent> = (0..32_765)
            .map(|token| {
                let id = token as u32;
                ev(0, 0, HbAction::FlagSet { id, token })
            })
            .collect();
        let r = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || check(&events, &McConfig::new(1)))
            .expect("spawn")
            .join()
            .expect("no stack overflow")
            .expect("a valid program");
        assert_eq!((r.threads, r.sync_ops, r.executions), (1, 32_765, 1));
        assert_eq!(r.states, 32_767);
        assert_eq!(r.deadlocks, 0);
        assert!(!r.budget_exhausted);
    }

    #[test]
    fn overlong_thread_program_is_rejected_not_a_panic() {
        // 32,766 sets plus the thread end make a program of 32,767 ops,
        // one more than the packed u16 state key holds.
        let events: Vec<HbEvent> = (0..32_766)
            .map(|token| ev(0, 0, HbAction::FlagSet { id: 0, token }))
            .collect();
        let err = check(&events, &McConfig::new(1)).unwrap_err();
        assert!(matches!(err, SimError::InvalidArgument(_)), "{err}");
    }
}
