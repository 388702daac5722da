//! Happens-before schedule analysis — the engine behind `simlint`.
//!
//! A launch's recorded [`HbEvent`] stream (see [`crate::trace`]) becomes
//! its happens-before graph ([`LaunchGraph`], built once per launch by
//! [`crate::graph`]). This module checks the schedule against the
//! partial order that graph guarantees:
//!
//! * **program order** — events of one `(block, core)` thread in record
//!   order;
//! * **flag edges** — a set happens-before the wait that consumed its
//!   token. One [`crate::graph::Chan`] type covers both scopes: a
//!   `CrossCoreSetFlag` pairs within its block's flag file, a
//!   `GridSetFlag` pairs launch-wide (the mailbox of chained look-back
//!   scans, where block `b+1` waits on block `b`'s aggregate instead of
//!   a global barrier);
//! * **queue edges** — the i-th `enque` on a `TQue` happens-before the
//!   i-th `deque`;
//! * **barrier rounds** — everything program-order-before any core's
//!   `SyncAll` arrival happens-before everything after any core's release
//!   in the same round (grid-wide rendezvous).
//!
//! Vector clocks over a topological order of this graph answer
//! `a happens-before b` in O(1), which powers the diagnostics:
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | `gm-race` | error | conflicting GM accesses with no HB path |
//! | `hb-cycle` | error | the sync edges contradict program order (deadlock shape) |
//! | `unmatched-wait` | error | a `wait_flag` consuming a token no set published |
//! | `flag-reuse` | error | a flag id reused across barrier rounds while an older round's set is still pending |
//! | `flag-leak` | warning | a set no wait ever consumed |
//! | `unused-flag` | warning | a flag id set somewhere but never waited on anywhere in the launch |
//! | `queue-unbalanced` | warning | enque/deque counts differ on a queue |
//! | `queue-leak` | warning | a queue created but never destroyed |
//! | `alloc-leak` | warning | a scratchpad allocation never freed |
//! | `dead-transfer` | warning | a GM write overwritten without any possible reader |
//!
//! The analysis is *sound for the recorded schedule*: unlike the runtime
//! `simcheck` layer, which only observes the one interleaving the
//! deterministic scheduler produced, a missing HB path is flagged even
//! when the replayed timing happened to order the accesses safely
//! (AccelSync-style sync-coverage checking).
//!
//! Error-severity findings abort a `ValidationMode::Full`/`Paranoid`
//! launch via [`crate::simcheck::audit_schedule`]; the `simlint` CLI
//! additionally fails on warnings, keeping shipped kernels lint-clean.

use crate::graph::LaunchGraph;
use crate::trace::{HbAction, HbEvent};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Definite schedule bug: fails Full-validation launches in-process.
    Error,
    /// Hygiene finding: reported, and fails the `simlint` CLI, but does
    /// not abort a launch.
    Warning,
}

impl Severity {
    /// Display label.
    pub const fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// Where a finding anchors in the analyzed event stream: the first
/// event implicated by the diagnostic. Drives the deterministic
/// `(block, core, event index, code)` report order; findings with no
/// single anchoring event (e.g. the capped-race summary) carry `None`
/// and sort after anchored ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DiagSite {
    /// Block index of the anchoring event.
    pub block: u32,
    /// Core index of the anchoring event (0 = cube, 1+ = vector lanes).
    pub core: u32,
    /// Index of the anchoring event in the analyzed stream.
    pub event: usize,
}

/// One schedule finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Finding severity.
    pub severity: Severity,
    /// Stable machine-readable code (e.g. `"gm-race"`).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Anchoring event, when the finding has one.
    pub site: Option<DiagSite>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.label(),
            self.code,
            self.message
        )
    }
}

/// Most races reported individually before summarizing the rest.
const RACE_REPORT_CAP: usize = 20;

fn core_name(core: u32) -> String {
    if core == 0 {
        "cube".to_string()
    } else {
        format!("vec{}", core - 1)
    }
}

fn place(e: &HbEvent) -> String {
    format!(
        "block {} {} `{}` @{}",
        e.block,
        core_name(e.core),
        e.what,
        e.time
    )
}

/// One GM access extracted from the event stream.
#[derive(Clone, Copy)]
struct Access {
    start: u64,
    end: u64,
    write: bool,
    node: usize,
}

/// Analyzes a launch's happens-before event stream and returns every
/// finding, errors first, in a deterministic order.
///
/// Events of one `(block, core)` pair must appear in program order
/// (the order [`crate::trace::HbRecorder::take`] and the trace JSON
/// preserve); threads may otherwise interleave arbitrarily.
pub fn analyze(events: &[HbEvent]) -> Vec<Diagnostic> {
    check(&LaunchGraph::build(events))
}

/// [`analyze`] over an already built [`LaunchGraph`].
pub fn check(g: &LaunchGraph<'_>) -> Vec<Diagnostic> {
    let events = g.events;
    let mut diags: Vec<Diagnostic> = Vec::new();
    let n = events.len();
    let site = |node: usize| -> Option<DiagSite> {
        Some(DiagSite {
            block: events[node].block,
            core: events[node].core,
            event: node,
        })
    };

    // ---- Edges: program order, flag, queue -------------------------------
    let mut preds: Vec<Vec<usize>> = (0..n).map(|i| g.prev(i).into_iter().collect()).collect();
    // Waits on a token an earlier epoch published: the barrier between
    // them is their edge.
    let inherited: HashSet<usize> = g
        .carried
        .values()
        .flatten()
        .filter_map(|c| c.wait)
        .collect();
    for &(wait, set) in &g.waits {
        match set {
            Some(s) => preds[wait].push(s),
            None if inherited.contains(&wait) => {}
            None => {
                let e = &events[wait];
                let f = e.flag().expect("a flag wait");
                let (noun, set_instr, _) = f.chan.names();
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    code: "unmatched-wait",
                    message: format!(
                        "{} consumed {noun} token {} that no {set_instr} published",
                        place(e),
                        f.token
                    ),
                    site: site(wait),
                });
            }
        }
    }
    for (enq, deq) in g.queue_edges() {
        preds[deq].push(enq);
    }
    // An enque feeding a deque of an earlier epoch: the edge runs back
    // across the barrier between them.
    for enq in g.backward_enques() {
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: "hb-cycle",
            message: format!(
                "the synchronization edges contradict program order (deadlock shape) — \
                 {} feeds a deque before an earlier barrier",
                place(&events[enq])
            ),
            site: site(enq),
        });
    }
    // Barrier rounds: a virtual join node per round. Each participant's
    // program-order predecessor reaches the join; the join reaches every
    // participant — so pre-barrier work on any thread happens-before
    // post-barrier work on every thread.
    let mut vpreds: Vec<Vec<usize>> = Vec::with_capacity(g.rounds.len());
    for members in &g.rounds {
        let vnode = n + vpreds.len();
        for &m in members {
            preds[m].push(vnode);
        }
        vpreds.push(members.iter().filter_map(|&m| g.prev(m)).collect());
    }
    let nthreads = g.threads.len();
    let (thread_of, pos_in_thread) = (&g.thread_of, &g.pos);
    let total_nodes = n + vpreds.len();
    let pred_list = |node: usize| -> &[usize] {
        if node < n {
            &preds[node]
        } else {
            &vpreds[node - n]
        }
    };

    // ---- Vector clocks over a topological order --------------------------
    let mut indegree: Vec<u32> = vec![0; total_nodes];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); total_nodes];
    for (node, deg) in indegree.iter_mut().enumerate() {
        let node_preds = pred_list(node);
        *deg = node_preds.len() as u32;
        for &p in node_preds {
            succs[p].push(node);
        }
    }
    let mut queue: std::collections::VecDeque<usize> =
        (0..total_nodes).filter(|&v| indegree[v] == 0).collect();
    // Vector clocks, shared along program order as FastTrack shares
    // epochs: clock entry `t` counts thread t's events known to
    // happen-before-or-equal a node. A node whose every incoming edge
    // comes from its own thread knows exactly what its program-order
    // predecessor knows about the other threads, so it reuses that
    // clock; only nodes with a cross-thread or barrier edge (and the
    // barrier joins) get a fresh one. A node's own-thread entry is its
    // position, which is answered from `pos` rather than stored.
    // `clock_of[node]` indexes `store`, `nthreads` entries per clock;
    // clock 0 is all zeros.
    let shares_clock = |node: usize| {
        node < n
            && pred_list(node)
                .iter()
                .all(|&p| p < n && thread_of[p] == thread_of[node])
    };
    let fresh = (0..total_nodes).filter(|&v| !shares_clock(v)).count();
    let mut store: Vec<u32> = Vec::with_capacity((1 + fresh) * nthreads);
    store.resize(nthreads, 0);
    let mut clock_of: Vec<usize> = vec![0; total_nodes];
    let mut processed = 0usize;
    while let Some(node) = queue.pop_front() {
        processed += 1;
        let node_preds = pred_list(node);
        let prev = if node < n { g.prev(node) } else { None };
        if shares_clock(node) {
            clock_of[node] = prev.map_or(0, |p| clock_of[p]);
        } else {
            // Start from the program-order predecessor's clock (zeros for
            // a thread's first node or a barrier join), then fold in
            // every other predecessor, materializing each predecessor's
            // own-thread entry from its position.
            let base = store.len();
            let start = prev.map_or(0, |p| clock_of[p]) * nthreads;
            store.extend_from_within(start..start + nthreads);
            let (known, vc) = store.split_at_mut(base);
            for &p in node_preds {
                if Some(p) != prev {
                    let c = clock_of[p] * nthreads;
                    for (slot, &v) in vc.iter_mut().zip(&known[c..c + nthreads]) {
                        *slot = (*slot).max(v);
                    }
                }
                if p < n {
                    let t = thread_of[p];
                    vc[t] = vc[t].max(pos_in_thread[p] + 1);
                }
            }
            clock_of[node] = base / nthreads;
        }
        for &s in &succs[node] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                queue.push_back(s);
            }
        }
    }
    if processed < total_nodes {
        let stuck_node = (0..n).find(|&v| indegree[v] > 0);
        let stuck = stuck_node
            .map(|v| place(&events[v]))
            .unwrap_or_else(|| "a barrier round".to_string());
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: "hb-cycle",
            message: format!(
                "the synchronization edges contradict program order (deadlock shape) — \
                 cycle through {stuck}"
            ),
            site: stuck_node.and_then(site),
        });
        finish(&mut diags);
        return diags;
    }
    // `a happens-before b`: b's clock has seen a's position on a's thread
    // (program order itself when they share a thread).
    let hb = |a: usize, b: usize| -> bool {
        let ta = thread_of[a];
        if ta == thread_of[b] {
            pos_in_thread[a] < pos_in_thread[b]
        } else {
            store[clock_of[b] * nthreads + ta] > pos_in_thread[a]
        }
    };

    // ---- GM data races + transfer liveness -------------------------------
    let mut accesses: Vec<Access> = Vec::new();
    // Scratchpad allocations: (block, alloc id) -> (alloc node, freed?).
    let mut allocs: HashMap<(u32, u64), (usize, bool)> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        match e.action {
            HbAction::GmRead { start, end } => accesses.push(Access {
                start,
                end,
                write: false,
                node: i,
            }),
            HbAction::GmWrite { start, end } => accesses.push(Access {
                start,
                end,
                write: true,
                node: i,
            }),
            HbAction::Alloc { id, .. } => {
                allocs.insert((e.block, id), (i, false));
            }
            HbAction::Free { id } => {
                if let Some(slot) = allocs.get_mut(&(e.block, id)) {
                    slot.1 = true;
                }
            }
            _ => {}
        }
    }
    accesses.sort_by_key(|a| (a.start, a.end, a.node));
    // Per write: was it overwritten by an HB-later write, and could any
    // reader possibly observe it (a read not ordered before it)?
    let mut overwritten: HashMap<usize, bool> = HashMap::new();
    let mut observed: HashMap<usize, bool> = HashMap::new();
    let mut races: Vec<(usize, usize, u64, u64)> = Vec::new();
    let mut active: Vec<Access> = Vec::new();
    for &cur in &accesses {
        active.retain(|a| a.end > cur.start);
        for a in &active {
            // `a` starts at or before `cur` and ends after cur.start: the
            // pair overlaps on [cur.start, min(end)).
            debug_assert!(a.start <= cur.start && a.end > cur.start);
            match (a.write, cur.write) {
                (true, true) => {
                    if hb(a.node, cur.node) {
                        overwritten.insert(a.node, true);
                    } else if hb(cur.node, a.node) {
                        overwritten.insert(cur.node, true);
                    }
                }
                (true, false) => {
                    if !hb(cur.node, a.node) {
                        observed.insert(a.node, true);
                    }
                }
                (false, true) => {
                    if !hb(a.node, cur.node) {
                        observed.insert(cur.node, true);
                    }
                }
                (false, false) => {}
            }
            let conflicting = a.write || cur.write;
            if conflicting
                && thread_of[a.node] != thread_of[cur.node]
                && !hb(a.node, cur.node)
                && !hb(cur.node, a.node)
            {
                races.push((a.node, cur.node, cur.start, a.end.min(cur.end)));
            }
        }
        active.push(cur);
    }
    races.sort();
    races.dedup();
    for (i, &(a, b, lo, hi)) in races.iter().enumerate() {
        if i == RACE_REPORT_CAP {
            diags.push(Diagnostic {
                severity: Severity::Error,
                code: "gm-race",
                // "GM bytes ..." < "GM race ..." lexicographically, so the
                // capped-report summary sorts after every concrete race.
                message: format!(
                    "GM race report capped: {} more racy access pair(s) suppressed",
                    races.len() - i
                ),
                site: None,
            });
            break;
        }
        let (ea, eb) = (&events[a], &events[b]);
        let kind = |e: &HbEvent| {
            if matches!(e.action, HbAction::GmWrite { .. }) {
                "write"
            } else {
                "read"
            }
        };
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: "gm-race",
            message: format!(
                "GM bytes [{lo}, {hi}): {} by {} races with {} by {} — \
                 no happens-before path orders them",
                kind(ea),
                place(ea),
                kind(eb),
                place(eb),
            ),
            site: site(a.min(b)),
        });
    }
    // Dead transfer: a write that some later write (HB-ordered) buries,
    // while no read anywhere could have observed it. Final outputs are
    // read by the host after the launch and are never overwritten, so
    // they are exempt by construction.
    for &a in &accesses {
        if a.write
            && overwritten.get(&a.node).copied().unwrap_or(false)
            && !observed.get(&a.node).copied().unwrap_or(false)
        {
            let e = &events[a.node];
            diags.push(Diagnostic {
                severity: Severity::Warning,
                code: "dead-transfer",
                message: format!(
                    "{} wrote GM bytes [{}, {}) that are overwritten before any \
                     engine could read them",
                    place(e),
                    a.start,
                    a.end
                ),
                site: site(a.node),
            });
        }
    }

    // ---- Flag coverage ---------------------------------------------------
    for (&chan, sets) in &g.sets {
        let ((noun, _, wait_instr), id) = (chan.names(), chan.id);
        if !g.waited.contains(&chan) {
            let scope = chan.block.map_or(String::new(), |b| format!("block {b} "));
            diags.push(Diagnostic {
                severity: Severity::Warning,
                code: "unused-flag",
                message: format!(
                    "{scope}{noun} id {id} is set {} time(s) but no {wait_instr} on this id \
                     exists anywhere in the launch",
                    sets.len()
                ),
                site: site(sets[0].node),
            });
        }
        for (si, s) in sets.iter().enumerate() {
            let (token, node) = (s.token, s.node);
            if s.wait.is_none() {
                diags.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "flag-leak",
                    message: format!(
                        "{} set {noun} id {id} (token {token}) but no {wait_instr} ever \
                         consumed it",
                        place(&events[node])
                    ),
                    site: site(node),
                });
            }
            // Reuse across barrier rounds: an earlier-epoch set still
            // pending when this one is published aliases two rounds'
            // hand-offs on one flag register.
            let reused = sets[..si].iter().find(|s0| {
                g.epoch[s0.node] < g.epoch[node] && !s0.wait.is_some_and(|w| hb(w, node))
            });
            // A token an earlier epoch left open reuses the id the same
            // way unless a wait here consumed it first.
            let reused = reused
                .map(|s0| (g.epoch[s0.node], s0.token, events[s0.node]))
                .or_else(|| {
                    let carried = g.carried.get(&chan).into_iter().flatten();
                    carried
                        .filter(|c| !c.wait.is_some_and(|w| hb(w, node)))
                        .map(|c| (c.epoch, c.event.flag().map_or(0, |f| f.token), c.event))
                        .next()
                });
            if let Some((epoch, token, set)) = reused {
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    code: "flag-reuse",
                    message: format!(
                        "{} reuses {noun} id {id} across barrier rounds: the round-{epoch} set \
                         (token {token}) by {} is still pending",
                        place(&events[node]),
                        place(&set),
                    ),
                    site: site(node),
                });
            }
        }
    }

    // ---- Queue and allocation lints --------------------------------------
    for (key, q) in &g.queues {
        let who_node = q
            .created
            .first()
            .or_else(|| q.enques.first())
            .or_else(|| q.deques.first())
            .copied();
        let who = who_node
            .map(|i| place(&events[i]))
            .unwrap_or_else(|| format!("block {} queue {}", key.0, key.1));
        if q.enques.len() != q.deques.len() {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                code: "queue-unbalanced",
                message: format!(
                    "{who}: {} enque(s) vs {} deque(s)",
                    q.enques.len(),
                    q.deques.len()
                ),
                site: who_node.and_then(site),
            });
        }
        if q.destroyed.len() < q.created.len() {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                code: "queue-leak",
                message: format!("{who}: queue created but never destroyed"),
                site: who_node.and_then(site),
            });
        }
    }
    let mut leaked: Vec<(usize, u64)> = allocs
        .iter()
        .filter(|&(_, &(_, freed))| !freed)
        .map(|(&(_, id), &(node, _))| (node, id))
        .collect();
    leaked.sort_unstable();
    for (node, id) in leaked {
        let bytes = match events[node].action {
            HbAction::Alloc { bytes, .. } => bytes,
            _ => 0,
        };
        diags.push(Diagnostic {
            severity: Severity::Warning,
            code: "alloc-leak",
            message: format!(
                "{} allocated {bytes} B (alloc id {id}) that are never freed",
                place(&events[node])
            ),
            site: site(node),
        });
    }

    finish(&mut diags);
    diags
}

/// Deterministic final order: errors first, then by anchoring site
/// `(block, core, event index)` with unanchored findings last, then by
/// code and message; exact duplicates are removed. The order (and the
/// dedup) is a function of the diagnostics alone — never of the order
/// the analysis happened to discover them in — so `simlint --json`
/// output is byte-identical however the input trace was produced.
fn finish(diags: &mut Vec<Diagnostic>) {
    let key = |d: &Diagnostic| {
        let s = d.site.map_or((u32::MAX, u32::MAX, usize::MAX), |s| {
            (s.block, s.core, s.event)
        });
        (d.severity, s, d.code, d.message.clone())
    };
    diags.sort_by(|a, b| key(a).cmp(&key(b)));
    diags.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Carry;

    fn ev(block: u32, core: u32, time: u64, what: &'static str, action: HbAction) -> HbEvent {
        HbEvent {
            block,
            core,
            time,
            what,
            action,
        }
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn empty_schedule_is_clean() {
        assert!(analyze(&[]).is_empty());
    }

    #[test]
    fn unordered_conflicting_accesses_race() {
        // Two blocks write the same GM range with no sync edge at all.
        let events = [
            ev(
                0,
                1,
                10,
                "DataCopy",
                HbAction::GmWrite { start: 0, end: 64 },
            ),
            ev(
                1,
                1,
                10,
                "DataCopy",
                HbAction::GmWrite { start: 32, end: 96 },
            ),
        ];
        let diags = analyze(&events);
        assert_eq!(codes(&diags), ["gm-race"]);
        assert!(diags[0].message.contains("[32, 64)"));
        assert_eq!(diags[0].severity, Severity::Error);
        // Read vs read never conflicts.
        let reads = [
            ev(0, 1, 10, "DataCopy", HbAction::GmRead { start: 0, end: 64 }),
            ev(1, 1, 10, "DataCopy", HbAction::GmRead { start: 0, end: 64 }),
        ];
        assert!(analyze(&reads).is_empty());
        // Disjoint ranges never conflict.
        let disjoint = [
            ev(
                0,
                1,
                10,
                "DataCopy",
                HbAction::GmWrite { start: 0, end: 64 },
            ),
            ev(
                1,
                1,
                10,
                "DataCopy",
                HbAction::GmWrite {
                    start: 64,
                    end: 128,
                },
            ),
        ];
        assert!(analyze(&disjoint).is_empty());
    }

    #[test]
    fn same_thread_program_order_is_not_a_race() {
        let events = [
            ev(
                0,
                1,
                10,
                "DataCopy",
                HbAction::GmWrite { start: 0, end: 64 },
            ),
            ev(0, 1, 20, "DataCopy", HbAction::GmRead { start: 0, end: 64 }),
        ];
        assert!(analyze(&events).is_empty());
    }

    #[test]
    fn flag_edge_orders_cross_core_handoff() {
        // Producer writes, sets a flag; consumer waits then reads: clean.
        let events = [
            ev(
                0,
                0,
                10,
                "DataCopy",
                HbAction::GmWrite { start: 0, end: 64 },
            ),
            ev(
                0,
                0,
                16,
                "CrossCoreSetFlag",
                HbAction::FlagSet { id: 0, token: 0 },
            ),
            ev(
                0,
                1,
                40,
                "CrossCoreWaitFlag",
                HbAction::FlagWait { id: 0, token: 0 },
            ),
            ev(0, 1, 50, "DataCopy", HbAction::GmRead { start: 0, end: 64 }),
        ];
        assert!(analyze(&events).is_empty());
        // Without the flag pair, the same accesses race.
        let racy = [events[0], events[3]];
        assert_eq!(codes(&analyze(&racy)), ["gm-race"]);
    }

    #[test]
    fn grid_flag_edge_orders_cross_block_lookback() {
        // Block 0 writes its mailbox, publishes a grid flag; block 1
        // waits on the token then reads the mailbox: clean — the
        // chained look-back hand-off needs no barrier.
        let events = [
            ev(0, 1, 10, "DataCopy", HbAction::GmWrite { start: 0, end: 4 }),
            ev(
                0,
                1,
                16,
                "GridSetFlag",
                HbAction::GridFlagSet { id: 0, token: 0 },
            ),
            ev(
                1,
                1,
                40,
                "GridWaitFlag",
                HbAction::GridFlagWait { id: 0, token: 0 },
            ),
            ev(1, 1, 50, "DataCopy", HbAction::GmRead { start: 0, end: 4 }),
        ];
        assert!(analyze(&events).is_empty());
        // Without the grid flag pair the same mailbox accesses race.
        let racy = [events[0], events[3]];
        assert_eq!(codes(&analyze(&racy)), ["gm-race"]);
    }

    #[test]
    fn grid_flag_tokens_pair_launch_wide() {
        // Tokens are launch-unique: block 2 consuming block 0's token is
        // a valid pairing even though the blocks differ (unlike
        // per-block flags, which pair within one block).
        let events = [
            ev(
                0,
                1,
                10,
                "GridSetFlag",
                HbAction::GridFlagSet { id: 3, token: 7 },
            ),
            ev(
                2,
                1,
                40,
                "GridWaitFlag",
                HbAction::GridFlagWait { id: 3, token: 7 },
            ),
        ];
        assert!(analyze(&events).is_empty());
    }

    #[test]
    fn grid_flag_coverage_diagnostics() {
        // A grid set nobody consumes leaks (e.g. a look-back chain whose
        // tail lane publishes although no successor exists).
        let leak = [ev(
            0,
            1,
            10,
            "GridSetFlag",
            HbAction::GridFlagSet { id: 2, token: 0 },
        )];
        let diags = analyze(&leak);
        assert_eq!(codes(&diags), ["flag-leak", "unused-flag"]);
        assert!(diags[0].message.contains("grid flag id 2"));
        assert!(diags[1].message.contains("grid flag id 2"));
        // A grid wait consuming an unpublished token is an error.
        let orphan = [ev(
            1,
            1,
            10,
            "GridWaitFlag",
            HbAction::GridFlagWait { id: 2, token: 9 },
        )];
        let diags = analyze(&orphan);
        assert_eq!(codes(&diags), ["unmatched-wait"]);
        assert!(diags[0].message.contains("GridSetFlag"));
    }

    #[test]
    fn barrier_round_orders_all_threads() {
        // Block 0 writes before the barrier; block 1 reads after: clean.
        let events = [
            ev(
                0,
                1,
                10,
                "DataCopy",
                HbAction::GmWrite { start: 0, end: 64 },
            ),
            ev(0, 1, 30, "SyncAll", HbAction::Barrier { round: 0 }),
            ev(1, 1, 30, "SyncAll", HbAction::Barrier { round: 0 }),
            ev(1, 1, 40, "DataCopy", HbAction::GmRead { start: 0, end: 64 }),
        ];
        assert!(analyze(&events).is_empty());
        // Reading on the *pre*-barrier side of another thread races.
        let racy = [
            ev(
                0,
                1,
                10,
                "DataCopy",
                HbAction::GmWrite { start: 0, end: 64 },
            ),
            ev(0, 1, 30, "SyncAll", HbAction::Barrier { round: 0 }),
            ev(1, 1, 5, "DataCopy", HbAction::GmRead { start: 0, end: 64 }),
            ev(1, 1, 30, "SyncAll", HbAction::Barrier { round: 0 }),
        ];
        assert_eq!(codes(&analyze(&racy)), ["gm-race"]);
    }

    #[test]
    fn queue_edges_pair_fifo() {
        let events = [
            ev(0, 1, 5, "q", HbAction::QueueCreate { queue: 0 }),
            ev(0, 1, 10, "q", HbAction::Enque { queue: 0 }),
            ev(0, 1, 20, "q", HbAction::Deque { queue: 0 }),
            ev(0, 1, 30, "q", HbAction::QueueDestroy { queue: 0 }),
        ];
        assert!(analyze(&events).is_empty());
    }

    #[test]
    fn queue_lints_fire() {
        let unbalanced = [
            ev(0, 1, 5, "q", HbAction::QueueCreate { queue: 0 }),
            ev(0, 1, 10, "q", HbAction::Enque { queue: 0 }),
            ev(0, 1, 30, "q", HbAction::QueueDestroy { queue: 0 }),
        ];
        assert_eq!(codes(&analyze(&unbalanced)), ["queue-unbalanced"]);
        let leaked = [ev(0, 1, 5, "q", HbAction::QueueCreate { queue: 0 })];
        assert_eq!(codes(&analyze(&leaked)), ["queue-leak"]);
    }

    #[test]
    fn flag_coverage_diagnostics() {
        // A set nobody consumes leaks.
        let leak = [ev(
            0,
            0,
            10,
            "CrossCoreSetFlag",
            HbAction::FlagSet { id: 2, token: 0 },
        )];
        let diags = analyze(&leak);
        assert_eq!(codes(&diags), ["flag-leak", "unused-flag"]);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(diags[1].severity, Severity::Warning);
        // A wait consuming an unpublished token is an error.
        let orphan = [ev(
            0,
            1,
            10,
            "CrossCoreWaitFlag",
            HbAction::FlagWait { id: 2, token: 9 },
        )];
        let diags = analyze(&orphan);
        assert_eq!(codes(&diags), ["unmatched-wait"]);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    /// The error codes of `events` audited one barrier epoch at a time:
    /// each thread's events up to and including its `k`-th barrier form
    /// epoch `k`, each epoch's graph inheriting the one before.
    fn epoch_error_codes(events: &[HbEvent]) -> Vec<&'static str> {
        let mut epochs: Vec<Vec<HbEvent>> = Vec::new();
        let mut crossed: HashMap<(u32, u32), usize> = HashMap::new();
        for e in events {
            let k = crossed.entry((e.block, e.core)).or_default();
            if epochs.len() <= *k {
                epochs.resize_with(*k + 1, Vec::new);
            }
            epochs[*k].push(*e);
            *k += usize::from(matches!(e.action, HbAction::Barrier { .. }));
        }
        let mut carry = Carry::default();
        let mut codes = Vec::new();
        for epoch in &epochs {
            let g = LaunchGraph::build_after(epoch, &carry);
            let diags = check(&g);
            codes.extend(
                diags
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .map(|d| d.code),
            );
            carry = g.carry_out(&carry);
        }
        codes
    }

    /// The error codes of the whole-stream analysis.
    fn error_codes(events: &[HbEvent]) -> Vec<&'static str> {
        analyze(events)
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn epoch_audits_find_what_the_whole_stream_finds() {
        let set = |core, time, token| {
            ev(
                0,
                core,
                time,
                "CrossCoreSetFlag",
                HbAction::FlagSet { id: 4, token },
            )
        };
        let wait = |core, time, token| {
            ev(
                0,
                core,
                time,
                "CrossCoreWaitFlag",
                HbAction::FlagWait { id: 4, token },
            )
        };
        let barrier = |core| ev(0, core, 30, "SyncAll", HbAction::Barrier { round: 0 });
        let queue = |core, time, what, action| ev(0, core, time, what, action);
        let cases: Vec<(&str, Vec<HbEvent>, Vec<&str>)> = vec![
            // A token set before the barrier and consumed after it.
            (
                "carried token",
                vec![set(0, 10, 0), barrier(0), barrier(1), wait(1, 40, 0)],
                vec![],
            ),
            // The round-0 token is still pending when round 1 reuses id 4.
            (
                "reuse",
                vec![
                    set(0, 10, 0),
                    barrier(0),
                    barrier(1),
                    set(0, 40, 1),
                    wait(1, 60, 0),
                    wait(1, 70, 1),
                ],
                vec!["flag-reuse"],
            ),
            // The old token is consumed before the new set: clean.
            (
                "consumed first",
                vec![
                    set(0, 10, 0),
                    barrier(0),
                    barrier(1),
                    wait(1, 35, 0),
                    // Tokens number one flag file's sets across ids.
                    ev(
                        0,
                        1,
                        36,
                        "CrossCoreSetFlag",
                        HbAction::FlagSet { id: 9, token: 5 },
                    ),
                    ev(
                        0,
                        0,
                        37,
                        "CrossCoreWaitFlag",
                        HbAction::FlagWait { id: 9, token: 5 },
                    ),
                    set(0, 40, 1),
                    wait(1, 60, 1),
                ],
                vec![],
            ),
            // A queue entry enqueued before the barrier, dequeued after.
            (
                "carried enque",
                vec![
                    queue(1, 10, "enque", HbAction::Enque { queue: 3 }),
                    barrier(0),
                    barrier(1),
                    queue(1, 40, "deque", HbAction::Deque { queue: 3 }),
                ],
                vec![],
            ),
            // A deque before the barrier fed by an enque after it.
            (
                "backward enque",
                vec![
                    queue(1, 10, "deque", HbAction::Deque { queue: 3 }),
                    barrier(0),
                    barrier(1),
                    queue(0, 40, "enque", HbAction::Enque { queue: 3 }),
                ],
                vec!["hb-cycle"],
            ),
        ];
        for (name, events, want) in cases {
            assert_eq!(error_codes(&events), want, "{name}: whole stream");
            assert_eq!(epoch_error_codes(&events), want, "{name}: by epoch");
        }
    }

    #[test]
    fn flag_reuse_across_rounds_is_flagged() {
        // Round 0 publishes id 4; nobody consumes it before round 1
        // publishes id 4 again — two rounds alias one register.
        let events = [
            ev(
                0,
                0,
                10,
                "CrossCoreSetFlag",
                HbAction::FlagSet { id: 4, token: 0 },
            ),
            ev(0, 0, 30, "SyncAll", HbAction::Barrier { round: 0 }),
            ev(0, 1, 30, "SyncAll", HbAction::Barrier { round: 0 }),
            ev(
                0,
                0,
                40,
                "CrossCoreSetFlag",
                HbAction::FlagSet { id: 4, token: 1 },
            ),
            ev(
                0,
                1,
                60,
                "CrossCoreWaitFlag",
                HbAction::FlagWait { id: 4, token: 0 },
            ),
            ev(
                0,
                1,
                70,
                "CrossCoreWaitFlag",
                HbAction::FlagWait { id: 4, token: 1 },
            ),
        ];
        let diags = analyze(&events);
        assert_eq!(codes(&diags), ["flag-reuse"]);
        assert!(diags[0].message.contains("flag id 4"));
        // Same shape but the old set is consumed before the new round's
        // set: clean (pipelined same-epoch reuse stays legal too).
        let clean = [
            ev(
                0,
                0,
                10,
                "CrossCoreSetFlag",
                HbAction::FlagSet { id: 4, token: 0 },
            ),
            ev(
                0,
                1,
                20,
                "CrossCoreWaitFlag",
                HbAction::FlagWait { id: 4, token: 0 },
            ),
            ev(0, 0, 30, "SyncAll", HbAction::Barrier { round: 0 }),
            ev(0, 1, 30, "SyncAll", HbAction::Barrier { round: 0 }),
            ev(
                0,
                0,
                40,
                "CrossCoreSetFlag",
                HbAction::FlagSet { id: 4, token: 1 },
            ),
            ev(
                0,
                1,
                60,
                "CrossCoreWaitFlag",
                HbAction::FlagWait { id: 4, token: 1 },
            ),
        ];
        assert!(analyze(&clean).is_empty());
    }

    #[test]
    fn pipelined_same_epoch_flag_cycling_is_legal() {
        // The producer runs several sets ahead on one id (counting
        // semaphore); the consumer drains in FIFO order. No barrier in
        // between — no reuse error, no leak.
        let mut events = Vec::new();
        for t in 0..6u64 {
            events.push(ev(
                0,
                0,
                10 + t,
                "CrossCoreSetFlag",
                HbAction::FlagSet {
                    id: (t % 2) as u32,
                    token: t,
                },
            ));
        }
        for t in 0..6u64 {
            events.push(ev(
                0,
                1,
                100 + t,
                "CrossCoreWaitFlag",
                HbAction::FlagWait {
                    id: (t % 2) as u32,
                    token: t,
                },
            ));
        }
        assert!(analyze(&events).is_empty());
    }

    #[test]
    fn hb_cycle_is_detected() {
        // One thread waits on a token whose set comes later in its own
        // program order — the canonical self-deadlock shape.
        let events = [
            ev(
                0,
                0,
                10,
                "CrossCoreWaitFlag",
                HbAction::FlagWait { id: 0, token: 0 },
            ),
            ev(
                0,
                0,
                20,
                "CrossCoreSetFlag",
                HbAction::FlagSet { id: 0, token: 0 },
            ),
        ];
        let diags = analyze(&events);
        assert_eq!(codes(&diags), ["hb-cycle"]);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn alloc_leak_is_flagged() {
        let leak = [ev(
            0,
            1,
            10,
            "AllocLocal",
            HbAction::Alloc { id: 7, bytes: 256 },
        )];
        let diags = analyze(&leak);
        assert_eq!(codes(&diags), ["alloc-leak"]);
        assert!(diags[0].message.contains("256 B"));
        let paired = [
            ev(
                0,
                1,
                10,
                "AllocLocal",
                HbAction::Alloc { id: 7, bytes: 256 },
            ),
            ev(0, 1, 20, "FreeLocal", HbAction::Free { id: 7 }),
        ];
        assert!(analyze(&paired).is_empty());
    }

    #[test]
    fn dead_transfer_requires_no_possible_reader() {
        // Write buried by an ordered overwrite with no read: dead.
        let dead = [
            ev(
                0,
                1,
                10,
                "DataCopy",
                HbAction::GmWrite { start: 0, end: 64 },
            ),
            ev(
                0,
                1,
                20,
                "DataCopy",
                HbAction::GmWrite { start: 0, end: 64 },
            ),
        ];
        let diags = analyze(&dead);
        assert_eq!(codes(&diags), ["dead-transfer"]);
        assert!(diags[0].message.contains("@10"));
        // An intervening read keeps the first write live.
        let live = [
            ev(
                0,
                1,
                10,
                "DataCopy",
                HbAction::GmWrite { start: 0, end: 64 },
            ),
            ev(0, 1, 15, "DataCopy", HbAction::GmRead { start: 0, end: 64 }),
            ev(
                0,
                1,
                20,
                "DataCopy",
                HbAction::GmWrite { start: 0, end: 64 },
            ),
        ];
        assert!(analyze(&live).is_empty());
        // A final (never overwritten) output is not dead even unread.
        let final_out = [ev(
            0,
            1,
            10,
            "DataCopy",
            HbAction::GmWrite { start: 0, end: 64 },
        )];
        assert!(analyze(&final_out).is_empty());
    }

    #[test]
    fn race_report_is_capped_and_deterministic() {
        // 30 blocks all write the same range: many pairwise races.
        let events: Vec<HbEvent> = (0..30)
            .map(|b| ev(b, 1, 10, "DataCopy", HbAction::GmWrite { start: 0, end: 8 }))
            .collect();
        let d1 = analyze(&events);
        let d2 = analyze(&events);
        assert_eq!(d1, d2, "diagnostics replay identically");
        assert_eq!(d1.len(), RACE_REPORT_CAP + 1);
        assert!(d1.iter().any(|d| d.message.contains("more racy")));
    }

    #[test]
    fn unused_flag_is_distinct_from_flag_leak() {
        // Two sets, one wait: the extra set leaks, but the id *is*
        // waited on — no unused-flag.
        let partially_consumed = [
            ev(
                0,
                0,
                10,
                "CrossCoreSetFlag",
                HbAction::FlagSet { id: 3, token: 0 },
            ),
            ev(
                0,
                0,
                20,
                "CrossCoreSetFlag",
                HbAction::FlagSet { id: 3, token: 1 },
            ),
            ev(
                0,
                1,
                30,
                "CrossCoreWaitFlag",
                HbAction::FlagWait { id: 3, token: 0 },
            ),
        ];
        assert_eq!(codes(&analyze(&partially_consumed)), ["flag-leak"]);
        // A wait on the same id in a *different* block does not count:
        // per-block flags are per-block registers.
        let wrong_block = [
            ev(
                0,
                0,
                10,
                "CrossCoreSetFlag",
                HbAction::FlagSet { id: 3, token: 0 },
            ),
            ev(
                1,
                0,
                10,
                "CrossCoreSetFlag",
                HbAction::FlagSet { id: 3, token: 0 },
            ),
            ev(
                1,
                1,
                30,
                "CrossCoreWaitFlag",
                HbAction::FlagWait { id: 3, token: 0 },
            ),
        ];
        let diags = analyze(&wrong_block);
        assert_eq!(codes(&diags), ["flag-leak", "unused-flag"]);
        assert!(diags[1].message.starts_with("block 0 flag id 3"));
        // Grid flags pair launch-wide, so any block's wait covers the id.
        let grid_covered = [
            ev(
                0,
                1,
                10,
                "GridSetFlag",
                HbAction::GridFlagSet { id: 1, token: 0 },
            ),
            ev(
                0,
                1,
                15,
                "GridSetFlag",
                HbAction::GridFlagSet { id: 1, token: 1 },
            ),
            ev(
                2,
                1,
                40,
                "GridWaitFlag",
                HbAction::GridFlagWait { id: 1, token: 0 },
            ),
        ];
        assert_eq!(codes(&analyze(&grid_covered)), ["flag-leak"]);
    }

    #[test]
    fn diagnostics_sort_by_site_then_code_and_dedup() {
        // Two alloc leaks recorded out of block order: the report is
        // ordered by (block, core, event), not by discovery order.
        let events = [
            ev(1, 1, 5, "AllocLocal", HbAction::Alloc { id: 1, bytes: 64 }),
            ev(0, 1, 9, "AllocLocal", HbAction::Alloc { id: 2, bytes: 32 }),
        ];
        let diags = analyze(&events);
        assert_eq!(codes(&diags), ["alloc-leak", "alloc-leak"]);
        assert_eq!(
            diags[0].site,
            Some(DiagSite {
                block: 0,
                core: 1,
                event: 1
            })
        );
        assert_eq!(
            diags[1].site,
            Some(DiagSite {
                block: 1,
                core: 1,
                event: 0
            })
        );
        // finish() drops exact duplicates and orders unanchored
        // findings after anchored ones.
        let mut mixed = vec![
            Diagnostic {
                severity: Severity::Warning,
                code: "flag-leak",
                message: "dup".into(),
                site: None,
            },
            Diagnostic {
                severity: Severity::Warning,
                code: "flag-leak",
                message: "dup".into(),
                site: None,
            },
            Diagnostic {
                severity: Severity::Warning,
                code: "queue-leak",
                message: "anchored".into(),
                site: Some(DiagSite {
                    block: 7,
                    core: 0,
                    event: 3,
                }),
            },
        ];
        finish(&mut mixed);
        assert_eq!(codes(&mixed), ["queue-leak", "flag-leak"]);
    }

    #[test]
    fn diagnostics_order_errors_first() {
        let events = [
            // A leaked alloc (warning)...
            ev(0, 1, 5, "AllocLocal", HbAction::Alloc { id: 1, bytes: 64 }),
            // ...and a race (error).
            ev(0, 1, 10, "DataCopy", HbAction::GmWrite { start: 0, end: 8 }),
            ev(1, 1, 10, "DataCopy", HbAction::GmWrite { start: 0, end: 8 }),
        ];
        let diags = analyze(&events);
        assert_eq!(codes(&diags), ["gm-race", "alloc-leak"]);
        assert!(diags[0].to_string().starts_with("error[gm-race]"));
        assert!(diags[1].to_string().starts_with("warning[alloc-leak]"));
    }
}
