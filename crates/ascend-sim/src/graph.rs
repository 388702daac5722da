//! The happens-before graph of one launch, built once from its recorded
//! [`HbEvent`] stream and read by every schedule analyzer: [`crate::hb`]
//! computes vector clocks and lints over it, [`crate::critpath`] follows
//! its flag edges backward, and [`crate::mc`] takes its thread programs
//! from it. [`LaunchGraph::build`] is the only code that discovers
//! threads or pairs set→wait tokens and enque→deque.
//!
//! Per-block flags and grid flags are one [`Chan`] type. A token pairs
//! within its channel's scope: the block's flag file for a per-block
//! flag, the whole launch for a grid flag (the mailbox of chained
//! look-back scans).

use crate::trace::{HbAction, HbEvent};
use std::collections::{BTreeMap, HashMap, HashSet};

/// A flag channel: a per-block `CrossCoreSetFlag` register, or a
/// launch-wide grid flag when `block` is `None`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Chan {
    /// The block whose flag file holds the flag; `None` for a grid flag.
    pub block: Option<u32>,
    /// The flag id.
    pub id: u32,
}

impl Chan {
    /// How diagnostics name the channel: its noun, then its set and wait
    /// instructions.
    pub fn names(self) -> (&'static str, &'static str, &'static str) {
        match self.block {
            Some(_) => ("flag", "CrossCoreSetFlag", "CrossCoreWaitFlag"),
            None => ("grid flag", "GridSetFlag", "GridWaitFlag"),
        }
    }
}

/// A flag event decoded onto its channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlagOp {
    /// The channel.
    pub chan: Chan,
    /// The set's token (a wait carries the token it consumed).
    pub token: u64,
    /// A set (`true`) or a wait (`false`).
    pub set: bool,
}

impl FlagOp {
    /// The event action that performs this operation.
    pub fn action(self) -> HbAction {
        let (id, token) = (self.chan.id, self.token);
        match (self.chan.block.is_some(), self.set) {
            (true, true) => HbAction::FlagSet { id, token },
            (true, false) => HbAction::FlagWait { id, token },
            (false, true) => HbAction::GridFlagSet { id, token },
            (false, false) => HbAction::GridFlagWait { id, token },
        }
    }
}

impl HbEvent {
    /// The flag operation this event performs, if it is a set or wait
    /// on a per-block or grid flag.
    pub fn flag(&self) -> Option<FlagOp> {
        let (block, id, token, set) = match self.action {
            HbAction::FlagSet { id, token } => (Some(self.block), id, token, true),
            HbAction::FlagWait { id, token } => (Some(self.block), id, token, false),
            HbAction::GridFlagSet { id, token } => (None, id, token, true),
            HbAction::GridFlagWait { id, token } => (None, id, token, false),
            _ => return None,
        };
        Some(FlagOp {
            chan: Chan { block, id },
            token,
            set,
        })
    }
}

/// One `(block, core)` program-order thread.
#[derive(Clone, Debug)]
pub struct Thread {
    /// Block index.
    pub block: u32,
    /// Core index within the block.
    pub core: u32,
    /// The thread's events, in program order.
    pub nodes: Vec<usize>,
}

/// The events of one `(block, queue)`, by kind.
#[derive(Clone, Debug, Default)]
pub struct QueueNodes {
    /// `QueueCreate` events.
    pub created: Vec<usize>,
    /// `QueueDestroy` events.
    pub destroyed: Vec<usize>,
    /// `Enque` events, in stream order.
    pub enques: Vec<usize>,
    /// `Deque` events, in stream order.
    pub deques: Vec<usize>,
    /// Enques minus deques of earlier epochs: a positive balance pairs
    /// the first deques here with enques before the barrier; a negative
    /// one pairs the first enques here with deques before it.
    pub carried: i64,
}

/// One published token on a channel.
#[derive(Clone, Copy, Debug)]
pub struct SetNode {
    /// The token.
    pub token: u64,
    /// The set event (the last one published with this token).
    pub node: usize,
    /// The last wait that consumed the token, if any did.
    pub wait: Option<usize>,
}

/// A flag token published in an earlier epoch and not consumed before
/// the graph's first event.
#[derive(Clone, Copy, Debug)]
pub struct CarriedSet {
    /// The barrier epoch the set was published in.
    pub epoch: u32,
    /// The set event (its index belongs to the earlier graph).
    pub event: HbEvent,
    /// The wait of this graph that consumed the token, if any did.
    pub wait: Option<usize>,
}

/// What a barrier epoch's graph inherits from the epochs before it.
#[derive(Clone, Debug, Default)]
pub struct Carry {
    /// Barrier epochs crossed so far: the epoch the next graph starts in.
    pub epoch: u32,
    /// Published tokens no wait has consumed yet, by `(scope, token)`,
    /// with the epoch and event that published them.
    pub open: BTreeMap<(Option<u32>, u64), (u32, HbEvent)>,
    /// Per `(block, queue)`: enques minus deques so far.
    pub queued: BTreeMap<(u32, u32), i64>,
}

/// The happens-before graph of one launch, or of a run of its barrier
/// epochs. Every index is into [`LaunchGraph::events`].
#[derive(Default)]
pub struct LaunchGraph<'a> {
    /// The analyzed event stream.
    pub events: &'a [HbEvent],
    /// Threads in first-appearance order.
    pub threads: Vec<Thread>,
    /// Per event: its thread.
    pub thread_of: Vec<usize>,
    /// Per event: its position in its thread's program order.
    pub pos: Vec<u32>,
    /// Per event: its barrier epoch (the barrier arrivals before it on
    /// its thread, counted from the launch start).
    pub epoch: Vec<u32>,
    /// Every flag wait in stream order, with the set it consumed; `None`
    /// marks an unmatched wait. A set recorded later in the stream still
    /// pairs (the deadlock shape: the edge then closes a cycle).
    pub waits: Vec<(usize, Option<usize>)>,
    /// Per channel, its published tokens in token order.
    pub sets: BTreeMap<Chan, Vec<SetNode>>,
    /// Channels some wait instruction names.
    pub waited: HashSet<Chan>,
    /// Queue events per `(block, queue)`.
    pub queues: BTreeMap<(u32, u32), QueueNodes>,
    /// Barrier rounds in round order, each with its arrival events.
    pub rounds: Vec<Vec<usize>>,
    /// Tokens inherited from earlier epochs, per channel: the waits
    /// that consume them carry no edge here, because the barrier
    /// already orders the set before them.
    pub carried: BTreeMap<Chan, Vec<CarriedSet>>,
}

impl<'a> LaunchGraph<'a> {
    /// Builds the graph. Events of one `(block, core)` pair must appear
    /// in program order; threads may otherwise interleave arbitrarily.
    pub fn build(events: &'a [HbEvent]) -> Self {
        Self::build_after(events, &Carry::default())
    }

    /// Builds the graph of the events that follow the epochs `carry`
    /// sums up: each thread starts in epoch `carry.epoch`, a wait may
    /// consume a token `carry` holds open, and each queue's first deques
    /// pair with the enques it carries.
    pub fn build_after(events: &'a [HbEvent], carry: &Carry) -> Self {
        let mut g = LaunchGraph {
            events,
            ..LaunchGraph::default()
        };
        let mut thread_ids: HashMap<(u32, u32), usize> = HashMap::new();
        let mut epochs: Vec<u32> = Vec::new();
        let mut rounds: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        // A token pairs within its scope: (Some(block), token) for a
        // per-block flag file, (None, token) launch-wide.
        let mut set_at: HashMap<(Option<u32>, u64), usize> = HashMap::new();
        let mut waits: Vec<(usize, FlagOp)> = Vec::new();
        for (i, e) in events.iter().enumerate() {
            let t = *thread_ids.entry((e.block, e.core)).or_insert_with(|| {
                g.threads.push(Thread {
                    block: e.block,
                    core: e.core,
                    nodes: Vec::new(),
                });
                epochs.push(carry.epoch);
                g.threads.len() - 1
            });
            g.thread_of.push(t);
            g.pos.push(g.threads[t].nodes.len() as u32);
            g.threads[t].nodes.push(i);
            g.epoch.push(epochs[t]);
            match e.action {
                HbAction::Barrier { round } => {
                    epochs[t] += 1;
                    rounds.entry(round).or_default().push(i);
                }
                HbAction::QueueCreate { queue } => g.queue(e.block, queue).created.push(i),
                HbAction::QueueDestroy { queue } => g.queue(e.block, queue).destroyed.push(i),
                HbAction::Enque { queue } => g.queue(e.block, queue).enques.push(i),
                HbAction::Deque { queue } => g.queue(e.block, queue).deques.push(i),
                _ => match e.flag() {
                    Some(f) if f.set => {
                        set_at.insert((f.chan.block, f.token), i);
                    }
                    Some(f) => waits.push((i, f)),
                    None => {}
                },
            }
        }
        let mut consumer: HashMap<usize, usize> = HashMap::new();
        let mut inherited: HashMap<(Option<u32>, u64), usize> = HashMap::new();
        for (i, f) in waits {
            g.waited.insert(f.chan);
            let key = (f.chan.block, f.token);
            let set = set_at.get(&key).copied();
            match set {
                Some(s) => {
                    consumer.insert(s, i);
                }
                None if carry.open.contains_key(&key) => {
                    inherited.insert(key, i);
                }
                None => {}
            }
            g.waits.push((i, set));
        }
        for (key, &(epoch, event)) in &carry.open {
            let chan = event.flag().expect("a set event").chan;
            g.carried.entry(chan).or_default().push(CarriedSet {
                epoch,
                event,
                wait: inherited.get(key).copied(),
            });
        }
        for (&(block, queue), &queued) in &carry.queued {
            g.queue(block, queue).carried = queued;
        }
        for (&(_, token), &node) in &set_at {
            let chan = events[node].flag().expect("a set event").chan;
            g.sets.entry(chan).or_default().push(SetNode {
                token,
                node,
                wait: consumer.get(&node).copied(),
            });
        }
        for sets in g.sets.values_mut() {
            sets.sort_unstable_by_key(|s| s.token);
        }
        g.rounds = rounds.into_values().collect();
        g
    }

    fn queue(&mut self, block: u32, queue: u32) -> &mut QueueNodes {
        self.queues.entry((block, queue)).or_default()
    }

    /// The event before `node` on its thread.
    pub fn prev(&self, node: usize) -> Option<usize> {
        let p = self.pos[node] as usize;
        (p > 0).then(|| self.threads[self.thread_of[node]].nodes[p - 1])
    }

    /// The enque→deque edges: the i-th enque on a queue feeds its i-th
    /// deque. Pairs with a side in an earlier epoch are not edges here.
    pub fn queue_edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.queues.values().flat_map(|q| {
            let (enq_skip, deq_skip) = match q.carried {
                c if c < 0 => (c.unsigned_abs() as usize, 0),
                c => (0, c as usize),
            };
            let enques = q.enques.iter().skip(enq_skip).copied();
            enques.zip(q.deques.iter().skip(deq_skip).copied())
        })
    }

    /// The enques that feed a deque of an earlier epoch: each one closes
    /// a cycle through the barrier between them.
    pub fn backward_enques(&self) -> impl Iterator<Item = usize> + '_ {
        self.queues.values().flat_map(|q| {
            let n = if q.carried < 0 {
                q.carried.unsigned_abs() as usize
            } else {
                0
            };
            q.enques.iter().take(n).copied()
        })
    }

    /// What the epochs after this graph inherit, given what it inherited.
    pub fn carry_out(&self, carry: &Carry) -> Carry {
        let mut open = carry.open.clone();
        for c in self.carried.values().flatten().filter(|c| c.wait.is_some()) {
            let f = c.event.flag().expect("a set event");
            open.remove(&(f.chan.block, f.token));
        }
        for (chan, sets) in &self.sets {
            for s in sets.iter().filter(|s| s.wait.is_none()) {
                let epoch = self.epoch[s.node];
                open.insert((chan.block, s.token), (epoch, self.events[s.node]));
            }
        }
        let mut queued = carry.queued.clone();
        for (&key, q) in &self.queues {
            *queued.entry(key).or_default() += q.enques.len() as i64 - q.deques.len() as i64;
        }
        queued.retain(|_, v| *v != 0);
        Carry {
            epoch: carry.epoch + self.rounds.len() as u32,
            open,
            queued,
        }
    }
}
