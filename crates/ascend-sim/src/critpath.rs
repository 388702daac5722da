//! Critical-path extraction over a recorded kernel launch.
//!
//! The simulator already records everything needed to explain *why* the
//! makespan is what it is: per-engine busy intervals ([`TraceEvent`]),
//! attributed idle intervals ([`StallEvent`]), the launch's
//! happens-before graph ([`LaunchGraph`]: per-block and grid flag
//! set→wait edges, whose wires are priced at `flag_wait_cycles`), and
//! the scheduler's per-round release decisions ([`RoundRecord`],
//! [`FinalRecord`]). This module stitches those into the **critical
//! path**: a contiguous chain of causal segments covering `[0, cycles]`
//! whose total length *must* equal the reported makespan.
//!
//! The analyzer walks **backward** from the kernel end. At every cycle
//! boundary it finds the recorded cause that justifies the time — the
//! busy instruction that finished there, the flag wire that delivered
//! there, the barrier round that released there, the bandwidth bound
//! that stretched there — and follows it. Each hop either emits a
//! segment (consuming cycles) or jumps lanes (free). If a boundary has
//! no recorded cause, the timing model and its own accounting disagree,
//! and the walk fails with [`SimError::AccountingViolation`] — this is
//! the **makespan identity** audit run on every Full-validation launch.
//!
//! Every core aligns to a `SyncAll`'s release, so the path crosses each
//! barrier through its round record: [`walk`] can cover one barrier
//! epoch at a time from that epoch's records alone, and a launch audits
//! its path as it runs, epoch by epoch, then [`summarize`]s the joined
//! segments. [`analyze`] walks every epoch of a whole recorded launch.
//!
//! On top of the path the module computes:
//! * **attribution** — path cycles by segment class, engine, and the
//!   enclosing phase span (the breakdown sums to the makespan exactly,
//!   because the segments tile `[0, cycles]`);
//! * **what-if analysis** — COZ-style optimistic speedup bounds from
//!   deleting a cost class off the path (free cross-core flags,
//!   infinite HBM bandwidth, zero look-back chain). These are upper
//!   bounds: removing a cost can surface a second-longest path that the
//!   subtraction does not see.

use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};

use crate::engine::EngineKind;
use crate::error::{SimError, SimResult};
use crate::graph::LaunchGraph;
use crate::json::Json;
use crate::prof::{StallCause, StallEvent, TraceSpan, BLOCK_SCOPE};
use crate::sync::{FinalRecord, RoundRecord};
use crate::timeline::EventTime;
use crate::trace::{HbEvent, TraceEvent};

/// What a critical-path segment spends its cycles on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegClass {
    /// Kernel launch latency (`[0, launch_cycles]`).
    Launch,
    /// An engine executing an instruction.
    Busy,
    /// A cross-core flag propagating from set to wait
    /// (`flag_wait_cycles` of wire latency).
    FlagWire,
    /// A launch-wide grid flag propagating — one link of the chained
    /// look-back protocol.
    ChainWire,
    /// `SyncAll` barrier release latency on top of the last arrival.
    BarrierRelease,
    /// A segment stretched to the global-memory bandwidth bound.
    Hbm,
}

impl SegClass {
    /// Stable lower-case label used in JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            SegClass::Launch => "launch",
            SegClass::Busy => "busy",
            SegClass::FlagWire => "flag_wire",
            SegClass::ChainWire => "chain_wire",
            SegClass::BarrierRelease => "barrier_release",
            SegClass::Hbm => "hbm",
        }
    }
}

/// One segment of the critical path. Segments tile `[0, cycles]`:
/// consecutive segments share a boundary and the lengths sum to the
/// makespan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathSeg {
    /// What the cycles were spent on.
    pub class: SegClass,
    /// Start cycle.
    pub start: EventTime,
    /// End cycle.
    pub end: EventTime,
    /// Block that owns the segment (producer block for wires); `None`
    /// for launch-wide segments (launch, HBM stretch, barrier release).
    pub block: Option<u32>,
    /// Core within the block, parallel to `block`.
    pub core: Option<u32>,
    /// Executing engine (busy segments only).
    pub engine: Option<EngineKind>,
    /// Busy segment is flag bookkeeping (a set/wait/arrival/poll
    /// instruction on the scalar pipe) rather than useful work.
    pub flag_instr: bool,
    /// Busy segment is a grid-flag publish — a link of the look-back
    /// chain's instruction cost.
    pub chain_instr: bool,
    /// Innermost phase span enclosing the segment, `"(launch)"`,
    /// `"(bandwidth)"`, `"(barrier)"`, or `"(unattributed)"`.
    pub phase: &'static str,
}

impl PathSeg {
    /// Segment length in cycles.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the segment is zero-length (can happen for zero-cost
    /// barrier releases; never for wires).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// One what-if experiment: delete a cost class from the critical path
/// and report the optimistic predicted makespan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WhatIf {
    /// Experiment name (`free_flags`, `infinite_hbm`, `zero_lookback`,
    /// `free_barrier_release`).
    pub name: &'static str,
    /// Critical-path cycles the deleted class contributed.
    pub saved: u64,
    /// Predicted makespan with the class deleted (`makespan - saved`);
    /// an optimistic lower bound on the achievable cycles.
    pub predicted: u64,
}

/// Critical-path attribution. Every cycle of the makespan lands in
/// exactly one of the class buckets, so
/// `launch + busy + flag_wire + chain_wire + barrier_release + hbm`
/// equals `makespan` exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CritSummary {
    /// The reported kernel cycles the path must (and does) add up to.
    pub makespan: u64,
    /// Cycles in launch latency.
    pub launch: u64,
    /// Cycles executing instructions.
    pub busy: u64,
    /// Cycles in per-block flag wires (including `SyncAll` arrival
    /// skew edges).
    pub flag_wire: u64,
    /// Cycles in grid-flag (look-back chain) wires.
    pub chain_wire: u64,
    /// Cycles in barrier release latency.
    pub barrier_release: u64,
    /// Cycles stretched to the HBM bandwidth bound.
    pub hbm: u64,
    /// Busy cycles per engine, indexed like [`EngineKind::ALL`].
    pub busy_by_engine: [u64; EngineKind::ALL.len()],
    /// Busy cycles that are flag bookkeeping instructions.
    pub flag_instr: u64,
    /// Busy cycles that are grid-flag publish instructions.
    pub chain_instr: u64,
    /// The look-back chain's total footprint on the path:
    /// `chain_wire + chain_instr`.
    pub lookback_chain: u64,
    /// Number of grid-flag wire hops (`ChainWire` segments) on the
    /// path — the look-back chain's *depth* as actually traversed.
    /// Multi-hop windowed look-back shrinks this without changing the
    /// per-hop wire price.
    pub chain_hops: usize,
    /// Path cycles per enclosing phase span, sorted by cycles
    /// descending (ties by name).
    pub phases: Vec<(&'static str, u64)>,
    /// Number of path segments (zero-length ones included).
    pub segments: usize,
    /// What-if experiments (always `free_flags`, `infinite_hbm`,
    /// `zero_lookback`, `free_barrier_release`, in that order).
    pub what_ifs: Vec<WhatIf>,
}

impl CritSummary {
    /// Share of the makespan spent on the look-back chain, in `[0, 1]`.
    pub fn lookback_share(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.lookback_chain as f64 / self.makespan as f64
        }
    }
}

/// The extracted critical path: the segment chain plus its summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CritReport {
    /// Path segments in ascending time order, tiling `[0, makespan]`.
    pub segments: Vec<PathSeg>,
    /// Attribution and what-ifs.
    pub summary: CritSummary,
}

/// Everything the analyzer needs from a recorded launch.
pub struct CritInput<'a> {
    /// The reported makespan ([`crate::report::KernelReport::cycles`]).
    pub cycles: u64,
    /// Launch latency — the origin every wave-0 block starts from.
    pub origin: EventTime,
    /// Flag wire latency (`ChipSpec::flag_wait_cycles`).
    pub flag_wait_cycles: u64,
    /// Flag set/poll instruction cost (`ChipSpec::flag_set_cycles`).
    pub flag_set_cycles: u64,
    /// Recorded per-engine busy intervals.
    pub events: &'a [TraceEvent],
    /// Recorded idle intervals with causes.
    pub stalls: &'a [StallEvent],
    /// The launch's happens-before graph (flag edges).
    pub graph: &'a LaunchGraph<'a>,
    /// Recorded spans (phase attribution; may be empty). Only
    /// [`analyze`] reads them; [`walk`] leaves phases to [`summarize`].
    pub spans: &'a [TraceSpan],
    /// Scheduler barrier-round decisions, in round order.
    pub rounds: &'a [RoundRecord],
    /// The kernel-end alignment decision; `None` while the launch runs,
    /// when only barrier epochs can be walked.
    pub finale: Option<FinalRecord>,
}

// ---------------------------------------------------------------------
// Internal walk machinery
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum IvKind {
    Busy {
        engine: EngineKind,
        flag: bool,
        chain: bool,
    },
    Stall(StallCause),
}

#[derive(Clone, Copy, Debug)]
struct Iv {
    start: EventTime,
    end: EventTime,
    kind: IvKind,
}

struct Lane {
    block: u32,
    core: u32,
    ivs: Vec<Iv>,
}

/// Where the backward walk currently stands. `t` (held outside) is the
/// boundary being justified.
#[derive(Clone, Copy, Debug)]
enum Cursor {
    /// Justify the kernel end via the final alignment record.
    Final,
    /// Consume lane interval `(lane, idx)`, which ends at `t`.
    Lane(usize, usize),
    /// Justify `t` as barrier round `r`'s release.
    Round(usize),
    /// Find any recorded cause ending at `t`, optionally preferring a
    /// `(block, core)` (the stalled consumer).
    Seek(Option<(u32, u32)>),
    /// Like `Seek`, but flag-first: `t` ended a flag stall on the
    /// given core, so try its wait edges before generic causes.
    SeekFlag(u32, u32),
    /// Justify `t` as the launch origin and finish.
    Launch,
    /// Walk complete.
    Done,
}

/// A `(block, core, cycle)` point on a lane's timeline.
type LanePoint = (u32, u32, EventTime);
/// Arrival edges keyed by consumer lane point → producer lane points.
type ArrivalIndex = HashMap<LanePoint, Vec<LanePoint>>;

/// Every busy and stall interval, by lane and by end cycle.
struct LaneIndex {
    /// Per-`(block, core, engine)` lanes in that order, each sorted by
    /// `(start, end)`.
    lanes: Vec<Lane>,
    /// Every interval as `(end cycle, lane, index)`, sorted: the
    /// intervals ending at one cycle form a run in lane order.
    ends: Vec<(EventTime, u32, u32)>,
}

struct Analyzer<'a> {
    input: &'a CritInput<'a>,
    /// Built on the walk's first interval lookup. A walk that only
    /// crosses bandwidth-bound segments and the launch (any large
    /// HBM-bound scan) never pays for indexing every interval.
    index: OnceCell<LaneIndex>,
    /// Flag/grid-flag waits by `(block, core, time)`: the set each
    /// consumed, if any.
    waits: HashMap<LanePoint, Vec<Option<usize>>>,
    /// Flag/grid-flag waits by time alone (cross-lane fallback).
    waits_by_time: HashMap<EventTime, Vec<Option<usize>>>,
    /// Grid-flag *arrival* edges by `(consumer block, consumer core,
    /// set time + flag_wait_cycles)` → producer `(block, core, set
    /// time)`. A blocking wait resumes exactly at the arrival and is
    /// resolved through [`Analyzer::wire`]; a non-blocking probe
    /// records its hb event at the earlier poll time and threads the
    /// arrival as a plain dependency, so the dependent instruction's
    /// `Dependency` stall ends at a cycle only this index can justify.
    arrivals: ArrivalIndex,
    /// Arrival edges by time alone (cross-lane fallback).
    arrivals_by_time: HashMap<EventTime, Vec<(u32, u32, EventTime)>>,
}

/// A wire hop: the producer's `(block, core)`, its set time and the
/// wire class.
type Hop = (u32, u32, EventTime, SegClass);

/// The first grid-flag arrival edge among `found`, as a chain-wire hop
/// (probed hops; blocking hops resolve via [`Analyzer::wire`]).
fn arrival(found: Option<&Vec<LanePoint>>) -> Option<Hop> {
    let &(block, core, set_time) = found?.first()?;
    Some((block, core, set_time, SegClass::ChainWire))
}

/// Stable sort of `(end, lane, index)` entries by end: an LSD radix
/// sort, one byte of the end per pass, over the bytes the largest end
/// uses. Linear in the entry count; a comparison sort of a wide launch's
/// half-million intervals dominated the analyzer's setup.
fn sort_by_end(v: &mut Vec<(EventTime, u32, u32)>) {
    let max = v.iter().map(|e| e.0).max().unwrap_or(0);
    let mut buf = vec![(0, 0, 0); v.len()];
    let mut shift = 0;
    while shift < EventTime::BITS && max >> shift > 0 {
        let digit = |e: &(EventTime, u32, u32)| (e.0 >> shift) as u8 as usize;
        let mut at = [0usize; 256];
        for e in v.iter() {
            at[digit(e)] += 1;
        }
        let mut sum = 0;
        for slot in &mut at {
            (sum, *slot) = (sum + *slot, sum);
        }
        for e in v.iter() {
            let d = digit(e);
            buf[at[d]] = *e;
            at[d] += 1;
        }
        std::mem::swap(v, &mut buf);
        shift += 8;
    }
}

/// Whether `e` sets or waits on a grid flag.
fn is_grid(e: &HbEvent) -> bool {
    e.flag().is_some_and(|f| f.chan.block.is_none())
}

fn viol(what: &'static str, detail: String) -> SimError {
    SimError::AccountingViolation { what, detail }
}

impl<'a> Analyzer<'a> {
    fn new(input: &'a CritInput<'a>) -> Self {
        // Index the flag traffic first; busy tagging needs it.
        let events = input.graph.events;
        let mut waits: HashMap<LanePoint, Vec<Option<usize>>> = HashMap::new();
        let mut waits_by_time: HashMap<EventTime, Vec<Option<usize>>> = HashMap::new();
        // Every grid consume joined with its set gives the arrival edge
        // (set + wire latency) keyed by the *consumer* — the only record
        // of an overlapped (probed) hop's delivery time.
        let mut arrivals = ArrivalIndex::new();
        let mut arrivals_by_time: HashMap<EventTime, Vec<LanePoint>> = HashMap::new();
        for &(w, set) in &input.graph.waits {
            let e = &events[w];
            waits
                .entry((e.block, e.core, e.time))
                .or_default()
                .push(set);
            waits_by_time.entry(e.time).or_default().push(set);
            if let Some(p) = set.map(|s| &events[s]).filter(|p| is_grid(p)) {
                let at = p.time + input.flag_wait_cycles;
                let producer = (p.block, p.core, p.time);
                arrivals
                    .entry((e.block, e.core, at))
                    .or_default()
                    .push(producer);
                arrivals_by_time.entry(at).or_default().push(producer);
            }
        }

        Analyzer {
            input,
            index: OnceCell::new(),
            waits,
            waits_by_time,
            arrivals,
            arrivals_by_time,
        }
    }

    /// The lane index, built on first use.
    fn index(&self) -> &LaneIndex {
        self.index.get_or_init(|| self.build_index())
    }

    fn build_index(&self) -> LaneIndex {
        let input = self.input;
        // Every lane point holding a flag event, and whether one of them
        // is a grid flag (a look-back chain instruction).
        let mut flag_points: HashMap<LanePoint, bool> = HashMap::new();
        for e in input.graph.events.iter().filter(|e| e.flag().is_some()) {
            *flag_points.entry((e.block, e.core, e.time)).or_default() |= is_grid(e);
        }
        // Build per-(block, core, engine) lanes of busy + stall
        // intervals. Busy and idle intervals tile each lane (that is
        // audited elsewhere); the walk re-checks the property locally.
        // Lanes are bucketed by a dense `(block, core, engine)` index,
        // whose ascending order is the lanes' order.
        let lane_ends = input.events.iter().map(|e| (e.block, e.core));
        let lane_ends = lane_ends.chain(input.stalls.iter().map(|s| (s.block, s.core)));
        let (blocks, cores) = lane_ends.fold((0, 0), |(b, c), (block, core)| {
            (b.max(block as usize + 1), c.max(core as usize + 1))
        });
        let engines = EngineKind::ALL.len();
        let lane_of = |block: u32, core: u32, engine: EngineKind| {
            (block as usize * cores + core as usize) * engines + engine.index()
        };
        let mut sizes = vec![0usize; blocks * cores * engines];
        for ev in input.events {
            sizes[lane_of(ev.block, ev.core, ev.engine)] += 1;
        }
        for st in input.stalls {
            sizes[lane_of(st.block, st.core, st.engine)] += 1;
        }
        let mut by_lane: Vec<Vec<Iv>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for ev in input.events {
            let dur = ev.end - ev.start;
            let point = (ev.engine == EngineKind::FLAG_ENGINE)
                .then(|| flag_points.get(&(ev.block, ev.core, ev.end)))
                .flatten();
            let is_flag_instr = ev.engine == EngineKind::FLAG_ENGINE
                && (point.is_some()
                    || dur == input.flag_set_cycles
                    || dur == input.flag_wait_cycles);
            let is_chain_instr = point == Some(&true);
            by_lane[lane_of(ev.block, ev.core, ev.engine)].push(Iv {
                start: ev.start,
                end: ev.end,
                kind: IvKind::Busy {
                    engine: ev.engine,
                    flag: is_flag_instr || is_chain_instr,
                    chain: is_chain_instr,
                },
            });
        }
        for st in input.stalls {
            by_lane[lane_of(st.block, st.core, st.engine)].push(Iv {
                start: st.start,
                end: st.end,
                kind: IvKind::Stall(st.cause),
            });
        }
        let mut lanes = Vec::new();
        let mut ends = Vec::with_capacity(input.events.len() + input.stalls.len());
        for (key, mut ivs) in by_lane.into_iter().enumerate() {
            if ivs.is_empty() {
                continue;
            }
            // Busy and stall intervals each arrive in time order, so a
            // stable sort is a linear merge (ties keep busy first).
            ivs.sort_by_key(|iv| (iv.start, iv.end));
            let li = lanes.len() as u32;
            ends.extend(ivs.iter().enumerate().map(|(i, iv)| (iv.end, li, i as u32)));
            let (block, core) = (key / engines / cores, key / engines % cores);
            lanes.push(Lane {
                block: block as u32,
                core: core as u32,
                ivs,
            });
        }
        // Entries were pushed in `(lane, index)` order, so a stable sort
        // by end alone yields `(end, lane, index)` order.
        sort_by_end(&mut ends);
        LaneIndex { lanes, ends }
    }

    /// First busy interval ending at `t` whose lane satisfies `pred`,
    /// in deterministic lane order. Zero-length intervals are skipped:
    /// they cannot justify the passage of time and would loop the walk.
    fn busy_at<F: Fn(&Lane) -> bool>(&self, t: EventTime, pred: F) -> Option<(usize, usize)> {
        let lanes = &self.index().lanes;
        self.ending_at(t).find(|&(l, i)| {
            let iv = &lanes[l].ivs[i];
            matches!(iv.kind, IvKind::Busy { .. }) && iv.start < iv.end && pred(&lanes[l])
        })
    }

    /// First unvisited stall interval ending at `t`.
    fn stall_at(&self, t: EventTime, visited: &HashSet<(usize, usize)>) -> Option<(usize, usize)> {
        let lanes = &self.index().lanes;
        self.ending_at(t).find(|&(l, i)| {
            matches!(lanes[l].ivs[i].kind, IvKind::Stall(_)) && !visited.contains(&(l, i))
        })
    }

    /// The `(lane, index)` intervals ending at `t`, in lane order.
    fn ending_at(&self, t: EventTime) -> impl Iterator<Item = (usize, usize)> + '_ {
        let ends = &self.index().ends;
        let from = ends.partition_point(|&(end, ..)| end < t);
        ends[from..]
            .iter()
            .take_while(move |&&(end, ..)| end == t)
            .map(|&(_, l, i)| (l as usize, i as usize))
    }

    /// The wire hop ending at `t` among the sets `consumed` by some
    /// waits. The wire spans `[set_time, t]` with `t = set_time +
    /// flag_wait_cycles` (a wait that arrives after the edge does not
    /// stall and never reaches this lookup).
    fn wire(&self, consumed: Option<&Vec<Option<usize>>>, t: EventTime) -> Option<Hop> {
        let events = self.input.graph.events;
        let p = consumed?
            .iter()
            .flatten()
            .map(|&s| &events[s])
            .find(|p| p.time + self.input.flag_wait_cycles == t)?;
        let class = if is_grid(p) {
            SegClass::ChainWire
        } else {
            SegClass::FlagWire
        };
        Some((p.block, p.core, p.time, class))
    }

    /// Runs the backward walk through barrier epochs `first..=last`
    /// (epoch `rounds.len()` is the one the kernel end closes); returns
    /// segments in ascending order, their phases unattributed.
    fn walk(&self, first: usize, last: usize) -> SimResult<Vec<PathSeg>> {
        let input = self.input;
        let fw = input.flag_wait_cycles;
        let total_ivs = input.events.len() + input.stalls.len();
        let limit = 2 * total_ivs + 8 * input.rounds.len() + 64;

        let mut segs: Vec<PathSeg> = Vec::new();
        let (mut t, mut cur) = match input.rounds.get(last) {
            Some(rr) => (rr.resolved, Cursor::Round(last)),
            None => (input.cycles, Cursor::Final),
        };
        let mut visited: HashSet<(usize, usize)> = HashSet::new();
        let mut last_t = EventTime::MAX;
        let mut steps = 0usize;

        let push = |segs: &mut Vec<PathSeg>,
                    class: SegClass,
                    start: EventTime,
                    end: EventTime,
                    lane: Option<(u32, u32)>,
                    engine: Option<EngineKind>,
                    flag: bool,
                    chain: bool|
         -> SimResult<()> {
            if start > end {
                return Err(viol(
                    "critical-path segment",
                    format!(
                        "{} segment would run backward: [{start}, {end}]",
                        class.label()
                    ),
                ));
            }
            segs.push(PathSeg {
                class,
                start,
                end,
                block: lane.map(|(b, _)| b),
                core: lane.map(|(_, c)| c),
                engine,
                flag_instr: flag,
                chain_instr: chain,
                phase: "",
            });
            Ok(())
        };
        // Crosses a wire hop backward to the producer's set.
        let hop =
            |segs: &mut Vec<PathSeg>, t: EventTime, h: Hop| -> SimResult<(EventTime, Cursor)> {
                let (pb, pc, ts, class) = h;
                push(segs, class, ts, t, Some((pb, pc)), None, false, false)?;
                Ok((ts, Cursor::Seek(Some((pb, pc)))))
            };

        loop {
            steps += 1;
            if steps > limit {
                return Err(viol(
                    "critical-path walk",
                    format!("no progress after {steps} steps at cycle {t}"),
                ));
            }
            if t < last_t {
                visited.clear();
                last_t = t;
            }
            match cur {
                Cursor::Done => break,
                // The epoch before `first` walks on from its release.
                Cursor::Round(r) if r + 1 == first => break,
                Cursor::Final => {
                    let Some(f) = &input.finale else {
                        return Err(viol(
                            "critical-path walk",
                            "the kernel end is not resolved yet".to_string(),
                        ));
                    };
                    if f.end != t {
                        return Err(viol(
                            "makespan identity",
                            format!(
                                "kernel-end alignment resolved at {} but the report says {}",
                                f.end, t
                            ),
                        ));
                    }
                    if f.max_local >= f.bw_bound {
                        cur = Cursor::Seek(None);
                    } else {
                        push(
                            &mut segs,
                            SegClass::Hbm,
                            f.seg_start,
                            t,
                            None,
                            None,
                            false,
                            false,
                        )?;
                        t = f.seg_start;
                        cur = self.seg_start_cursor(input.rounds.len());
                    }
                }
                Cursor::Round(r) => {
                    let rr = &input.rounds[r];
                    if rr.resolved != t {
                        return Err(viol(
                            "critical-path walk",
                            format!(
                                "round {r} resolved at {} but the path reaches it at {t}",
                                rr.resolved
                            ),
                        ));
                    }
                    let base = rr.ready_max.max(rr.bw_bound);
                    push(
                        &mut segs,
                        SegClass::BarrierRelease,
                        base,
                        t,
                        None,
                        None,
                        false,
                        false,
                    )?;
                    t = base;
                    if rr.bw_bound >= rr.ready_max {
                        push(
                            &mut segs,
                            SegClass::Hbm,
                            rr.seg_start,
                            t,
                            None,
                            None,
                            false,
                            false,
                        )?;
                        t = rr.seg_start;
                        cur = self.seg_start_cursor(r);
                    } else {
                        // The release base is the slowest block's poll
                        // completion — a recorded busy end.
                        cur = Cursor::Seek(None);
                    }
                }
                Cursor::Lane(l, i) => {
                    let lane = &self.index().lanes[l];
                    let iv = lane.ivs[i];
                    if iv.end != t {
                        return Err(viol(
                            "critical-path walk",
                            format!(
                                "lane (block {}, core {}) interval ends at {} but the \
                                 path reaches it at {t}",
                                lane.block, lane.core, iv.end
                            ),
                        ));
                    }
                    match iv.kind {
                        IvKind::Busy {
                            engine,
                            flag,
                            chain,
                        } => {
                            push(
                                &mut segs,
                                SegClass::Busy,
                                iv.start,
                                t,
                                Some((lane.block, lane.core)),
                                Some(engine),
                                flag,
                                chain,
                            )?;
                            t = iv.start;
                            if i > 0 {
                                let prev = lane.ivs[i - 1];
                                if prev.end != t {
                                    return Err(viol(
                                        "critical-path walk",
                                        format!(
                                            "lane (block {}, core {}) has a gap: interval \
                                             ends at {} but the next starts at {t}",
                                            lane.block, lane.core, prev.end
                                        ),
                                    ));
                                }
                                cur = Cursor::Lane(l, i - 1);
                            } else {
                                // Lane origin: a wave-0 block starts at
                                // the launch origin; a requeued block
                                // starts where the previous slot tenant
                                // yielded (a recorded busy/stall end).
                                cur = Cursor::Seek(Some((lane.block, lane.core)));
                            }
                        }
                        IvKind::Stall(cause) => {
                            cur = match cause {
                                StallCause::Flag => Cursor::SeekFlag(lane.block, lane.core),
                                _ => Cursor::Seek(Some((lane.block, lane.core))),
                            };
                        }
                    }
                }
                Cursor::SeekFlag(b, c) => {
                    if let Some(h) = self.wire(self.waits.get(&(b, c, t)), t) {
                        (t, cur) = hop(&mut segs, t, h)?;
                    } else if let Some(r) = input
                        .rounds
                        .iter()
                        .rposition(|rr| rr.all_set + fw == t && rr.all_set < t)
                    {
                        // SyncAll arrival-skew edge: the last peer's
                        // arrival flag reaching this core.
                        push(
                            &mut segs,
                            SegClass::FlagWire,
                            input.rounds[r].all_set,
                            t,
                            None,
                            None,
                            false,
                            false,
                        )?;
                        t = input.rounds[r].all_set;
                        cur = Cursor::Seek(None);
                    } else if let Some(r) = input.rounds.iter().rposition(|rr| rr.resolved == t) {
                        // Flag edge truncated by the resume alignment.
                        cur = Cursor::Round(r);
                    } else {
                        cur = Cursor::Seek(Some((b, c)));
                    }
                }
                Cursor::Seek(near) => {
                    if let Some((b, c)) = near {
                        if let Some((l, i)) = self.busy_at(t, |l| l.block == b && l.core == c) {
                            cur = Cursor::Lane(l, i);
                            continue;
                        }
                        if self.waits.contains_key(&(b, c, t)) {
                            cur = Cursor::SeekFlag(b, c);
                            continue;
                        }
                        // An overlapped (probed) look-back hop: the
                        // consumer's dependent instruction stalled until
                        // the predecessor's set arrived here at `t`.
                        if let Some(h) = arrival(self.arrivals.get(&(b, c, t))) {
                            (t, cur) = hop(&mut segs, t, h)?;
                            continue;
                        }
                        if let Some((l, i)) = self.busy_at(t, |l| l.block == b) {
                            cur = Cursor::Lane(l, i);
                            continue;
                        }
                    }
                    if let Some(r) = input.rounds.iter().rposition(|rr| rr.resolved == t) {
                        cur = Cursor::Round(r);
                        continue;
                    }
                    if let Some((l, i)) = self.busy_at(t, |_| true) {
                        cur = Cursor::Lane(l, i);
                        continue;
                    }
                    // Cross-lane fallback: any wire or arrival edge landing at `t`.
                    let any = self.wire(self.waits_by_time.get(&t), t);
                    if let Some(h) = any.or_else(|| arrival(self.arrivals_by_time.get(&t))) {
                        (t, cur) = hop(&mut segs, t, h)?;
                        continue;
                    }
                    if let Some(r) = input
                        .rounds
                        .iter()
                        .rposition(|rr| rr.all_set + fw == t && rr.all_set < t)
                    {
                        push(
                            &mut segs,
                            SegClass::FlagWire,
                            input.rounds[r].all_set,
                            t,
                            None,
                            None,
                            false,
                            false,
                        )?;
                        t = input.rounds[r].all_set;
                        cur = Cursor::Seek(None);
                        continue;
                    }
                    if t == input.origin {
                        cur = Cursor::Launch;
                        continue;
                    }
                    if let Some((l, i)) = self.stall_at(t, &visited) {
                        visited.insert((l, i));
                        cur = Cursor::Lane(l, i);
                        continue;
                    }
                    return Err(viol(
                        "makespan identity",
                        format!(
                            "unexplained boundary: no recorded instruction, stall, flag \
                             edge, barrier round, or launch origin ends at cycle {t}"
                        ),
                    ));
                }
                Cursor::Launch => {
                    if t != input.origin {
                        return Err(viol(
                            "critical-path walk",
                            format!(
                                "launch segment reached at cycle {t}, origin is {}",
                                input.origin
                            ),
                        ));
                    }
                    push(&mut segs, SegClass::Launch, 0, t, None, None, false, false)?;
                    t = 0;
                    cur = Cursor::Done;
                }
            }
        }

        segs.reverse();
        Ok(segs)
    }

    /// Cursor for the start of segment `i`'s round (the previous
    /// round's release, or the launch origin for the first segment).
    fn seg_start_cursor(&self, i: usize) -> Cursor {
        if i == 0 {
            Cursor::Launch
        } else {
            Cursor::Round(i - 1)
        }
    }
}

/// Innermost phase span of `block` containing cycle `at`, among the
/// depth-1 block-scope spans per block, sorted by start.
fn phase_of(
    phase_spans: &HashMap<u32, Vec<(EventTime, EventTime, &'static str)>>,
    block: u32,
    at: EventTime,
) -> &'static str {
    if let Some(spans) = phase_spans.get(&block) {
        let mut best: Option<&'static str> = None;
        for &(s, e, name) in spans {
            if s <= at && at < e.max(s + 1) {
                best = Some(name);
            }
            if s > at {
                break;
            }
        }
        if let Some(name) = best {
            return name;
        }
    }
    "(unattributed)"
}

/// Extracts the critical path of a recorded launch and asserts the
/// makespan identity: the path must tile `[0, cycles]` exactly, with
/// every boundary justified by a recorded cause. Fails with
/// [`SimError::AccountingViolation`] when the timing model and its own
/// records disagree.
pub fn analyze(input: &CritInput<'_>) -> SimResult<CritReport> {
    let segments = walk(input, 0..=input.rounds.len())?;
    summarize(segments, input.cycles, input.spans)
}

/// The critical path's segments inside barrier epochs `epochs`, in
/// ascending order: epoch `e` runs from round `e − 1`'s release (the
/// launch start for `e = 0`) to round `e`'s, and epoch `rounds.len()`
/// to the kernel end, which needs `finale`. `input` must hold every
/// record of those epochs; records of others may be absent. Phases are
/// left to [`summarize`], which also checks that the joined segments
/// tile the makespan.
pub fn walk(
    input: &CritInput<'_>,
    epochs: std::ops::RangeInclusive<usize>,
) -> SimResult<Vec<PathSeg>> {
    Analyzer::new(input).walk(*epochs.start(), *epochs.end())
}

/// Joins a launch's critical path from the segments [`walk`] returned
/// for all of its epochs, in ascending order: checks that they tile
/// `[0, cycles]` (the makespan identity), attributes each to its phase
/// span in `spans` and sums the attribution and what-ifs.
pub fn summarize(
    mut segments: Vec<PathSeg>,
    cycles: u64,
    spans: &[TraceSpan],
) -> SimResult<CritReport> {
    let mut phase_spans: HashMap<u32, Vec<(EventTime, EventTime, &'static str)>> = HashMap::new();
    for s in spans {
        if s.depth == 1 && s.core == BLOCK_SCOPE {
            phase_spans
                .entry(s.block)
                .or_default()
                .push((s.start, s.end, s.name));
        }
    }
    for spans in phase_spans.values_mut() {
        spans.sort_unstable();
    }
    for s in &mut segments {
        let mid = s.start + (s.end - s.start) / 2;
        s.phase = match (s.class, s.block) {
            (SegClass::Launch, _) => "(launch)",
            (SegClass::Hbm, _) => "(bandwidth)",
            (SegClass::BarrierRelease, _) | (_, None) => "(barrier)",
            (_, Some(b)) => phase_of(&phase_spans, b, mid),
        };
    }

    // The walk builds the chain backward, emitting contiguous segments;
    // re-verify the tiling to make the identity audit independent of
    // the walk's bookkeeping.
    let mut at = 0u64;
    for s in &segments {
        if s.start != at {
            return Err(viol(
                "makespan identity",
                format!(
                    "critical path is not contiguous: segment starts at {} after {}",
                    s.start, at
                ),
            ));
        }
        at = s.end;
    }
    if at != cycles {
        return Err(viol(
            "makespan identity",
            format!("critical path covers [0, {at}] but the report says {cycles} cycles"),
        ));
    }

    let mut summary = CritSummary {
        makespan: cycles,
        launch: 0,
        busy: 0,
        flag_wire: 0,
        chain_wire: 0,
        barrier_release: 0,
        hbm: 0,
        busy_by_engine: [0; EngineKind::ALL.len()],
        flag_instr: 0,
        chain_instr: 0,
        lookback_chain: 0,
        chain_hops: 0,
        phases: Vec::new(),
        segments: segments.len(),
        what_ifs: Vec::new(),
    };
    let mut phases: HashMap<&'static str, u64> = HashMap::new();
    for s in &segments {
        let len = s.len();
        match s.class {
            SegClass::Launch => summary.launch += len,
            SegClass::Busy => {
                summary.busy += len;
                if let Some(e) = s.engine {
                    summary.busy_by_engine[e.index()] += len;
                }
                if s.flag_instr {
                    summary.flag_instr += len;
                }
                if s.chain_instr {
                    summary.chain_instr += len;
                }
            }
            SegClass::FlagWire => summary.flag_wire += len,
            SegClass::ChainWire => {
                summary.chain_wire += len;
                summary.chain_hops += 1;
            }
            SegClass::BarrierRelease => summary.barrier_release += len,
            SegClass::Hbm => summary.hbm += len,
        }
        *phases.entry(s.phase).or_default() += len;
    }
    summary.lookback_chain = summary.chain_wire + summary.chain_instr;
    let mut phases: Vec<(&'static str, u64)> = phases.into_iter().collect();
    phases.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    summary.phases = phases;

    let mk = summary.makespan;
    let free_flags = summary.flag_wire + summary.chain_wire + summary.flag_instr;
    let zero_lookback = summary.lookback_chain;
    summary.what_ifs = vec![
        WhatIf {
            name: "free_flags",
            saved: free_flags,
            predicted: mk - free_flags,
        },
        WhatIf {
            name: "infinite_hbm",
            saved: summary.hbm,
            predicted: mk - summary.hbm,
        },
        WhatIf {
            name: "zero_lookback",
            saved: zero_lookback,
            predicted: mk - zero_lookback,
        },
        // Every `SyncAll` releasing at no cost: what removing barriers
        // (fewer passes, look-back offsets) can win at most.
        WhatIf {
            name: "free_barrier_release",
            saved: summary.barrier_release,
            predicted: mk - summary.barrier_release,
        },
    ];

    Ok(CritReport { segments, summary })
}

impl CritSummary {
    /// The `critical_path` JSON object (no surrounding key), stable
    /// schema: integer cycle buckets that sum to `makespan`, share
    /// fractions in `[0, 1]`, per-engine busy cycles, phase breakdown,
    /// and the what-if table. A zero denominator prints as `0.0`.
    pub fn to_json(&self) -> Json {
        let mk = self.makespan;
        let share = |c: u64| Json::fixed(c as f64 / mk as f64, 6);
        let busy_by_engine = EngineKind::ALL
            .iter()
            .zip(self.busy_by_engine)
            .filter(|&(_, cycles)| cycles > 0)
            .map(|(e, cycles)| (e.name(), cycles.into()));
        let phases = self.phases.iter().map(|&(name, cycles)| {
            Json::obj([
                ("name", name.into()),
                ("cycles", cycles.into()),
                ("share", share(cycles)),
            ])
        });
        let what_ifs = self.what_ifs.iter().map(|w| {
            Json::obj([
                ("name", w.name.into()),
                ("saved_cycles", w.saved.into()),
                ("predicted_cycles", w.predicted.into()),
                ("speedup", Json::fixed(mk as f64 / w.predicted as f64, 6)),
            ])
        });
        Json::obj([
            ("makespan", mk.into()),
            ("launch", self.launch.into()),
            ("busy", self.busy.into()),
            ("flag_wire", self.flag_wire.into()),
            ("chain_wire", self.chain_wire.into()),
            ("barrier_release", self.barrier_release.into()),
            ("hbm", self.hbm.into()),
            ("launch_share", share(self.launch)),
            ("busy_share", share(self.busy)),
            ("flag_wire_share", share(self.flag_wire)),
            ("chain_wire_share", share(self.chain_wire)),
            ("barrier_release_share", share(self.barrier_release)),
            ("hbm_share", share(self.hbm)),
            ("flag_instr", self.flag_instr.into()),
            ("chain_instr", self.chain_instr.into()),
            ("lookback_chain", self.lookback_chain.into()),
            ("lookback_chain_share", share(self.lookback_chain)),
            ("chain_hops", self.chain_hops.into()),
            ("busy_by_engine", Json::obj(busy_by_engine)),
            ("phases", Json::Arr(phases.collect())),
            ("segments", self.segments.into()),
            ("what_ifs", Json::Arr(what_ifs.collect())),
        ])
    }
}

impl CritReport {
    /// JSON for the trace export: the kernel name, the summary, and the
    /// `top` longest segments (ties broken by start cycle).
    pub fn to_json(&self, kernel: &str, top: usize) -> Json {
        let mut order: Vec<usize> = (0..self.segments.len()).collect();
        order.sort_by_key(|&i| {
            (
                std::cmp::Reverse(self.segments[i].len()),
                self.segments[i].start,
            )
        });
        order.truncate(top);
        order.sort_by_key(|&i| self.segments[i].start);
        let top_segments = order.iter().map(|&i| {
            let s = &self.segments[i];
            let mut fields = vec![
                ("class", s.class.label().into()),
                ("start", s.start.into()),
                ("end", s.end.into()),
                ("cycles", s.len().into()),
            ];
            if let Some(b) = s.block {
                fields.push(("block", b.into()));
            }
            if let Some(c) = s.core {
                fields.push(("core", c.into()));
            }
            if let Some(e) = s.engine {
                fields.push(("engine", e.name().into()));
            }
            fields.push(("phase", s.phase.into()));
            Json::obj(fields)
        });
        Json::obj([
            ("kernel", kernel.into()),
            ("summary", self.summary.to_json()),
            ("top_segments", Json::Arr(top_segments.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::HbAction;

    fn busy(block: u32, core: u32, engine: EngineKind, start: u64, end: u64) -> TraceEvent {
        TraceEvent {
            block,
            core,
            engine,
            start,
            end,
        }
    }

    fn stall(
        block: u32,
        core: u32,
        engine: EngineKind,
        cause: StallCause,
        start: u64,
        end: u64,
    ) -> StallEvent {
        StallEvent {
            block,
            core,
            engine,
            cause,
            start,
            end,
        }
    }

    fn finale(max_local: u64, seg_start: u64) -> FinalRecord {
        FinalRecord {
            max_local,
            seg_start,
            seg_bytes: 0,
            bw_bound: seg_start,
            end: max_local,
        }
    }

    #[test]
    fn radix_end_sort_is_a_stable_sort_by_end() {
        let mut state = 7u64;
        let mut v: Vec<(EventTime, u32, u32)> = (0..5000u32)
            .map(|i| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                ((state >> 20) % [3, 300, 1 << 40][i as usize % 3], i / 7, i)
            })
            .collect();
        let mut want = v.clone();
        want.sort_by_key(|e| e.0);
        sort_by_end(&mut v);
        assert_eq!(v, want);
        let mut empty = Vec::new();
        sort_by_end(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn single_lane_tiling_is_the_whole_path() {
        // launch [0,100], vec busy [100,400], end at 400.
        let events = [busy(0, 1, EngineKind::Vec, 100, 400)];
        let input = CritInput {
            cycles: 400,
            origin: 100,
            flag_wait_cycles: 540,
            flag_set_cycles: 180,
            events: &events,
            stalls: &[],
            graph: &LaunchGraph::build(&[]),
            spans: &[],
            rounds: &[],
            finale: Some(finale(400, 100)),
        };
        let r = analyze(&input).unwrap();
        assert_eq!(r.summary.makespan, 400);
        assert_eq!(r.summary.launch, 100);
        assert_eq!(r.summary.busy, 300);
        assert_eq!(r.segments.len(), 2);
        let wi = &r.summary.what_ifs;
        assert_eq!(wi.len(), 4);
        assert!(wi.iter().all(|w| w.predicted == 400 - w.saved));
    }

    #[test]
    fn flag_wire_crosses_cores() {
        // Producer (core 0 scalar) sets at 280; wire lands on core 1 at
        // 820; consumer vec runs [820, 900]. Consumer polled [100, 280]
        // then stalled on the flag.
        let events = [
            busy(0, 0, EngineKind::Scalar, 100, 280),
            busy(0, 1, EngineKind::Scalar, 100, 280),
            busy(0, 1, EngineKind::Vec, 820, 900),
        ];
        let stalls = [
            stall(0, 1, EngineKind::Scalar, StallCause::Flag, 280, 820),
            stall(0, 1, EngineKind::Vec, StallCause::Dependency, 100, 820),
        ];
        let hb = [
            HbEvent {
                block: 0,
                core: 0,
                time: 280,
                what: "CrossCoreSetFlag",
                action: HbAction::FlagSet { id: 3, token: 0 },
            },
            HbEvent {
                block: 0,
                core: 1,
                time: 820,
                what: "CrossCoreWaitFlag",
                action: HbAction::FlagWait { id: 3, token: 0 },
            },
        ];
        let input = CritInput {
            cycles: 900,
            origin: 100,
            flag_wait_cycles: 540,
            flag_set_cycles: 180,
            events: &events,
            stalls: &stalls,
            graph: &LaunchGraph::build(&hb),
            spans: &[],
            rounds: &[],
            finale: Some(finale(900, 100)),
        };
        let r = analyze(&input).unwrap();
        assert_eq!(r.summary.flag_wire, 540);
        // The producer's 180-cycle set instruction is flag overhead.
        assert_eq!(r.summary.flag_instr, 180);
        assert_eq!(
            r.summary.launch + r.summary.busy + r.summary.flag_wire,
            r.summary.makespan
        );
        let free = &r.summary.what_ifs[0];
        assert_eq!(free.name, "free_flags");
        assert_eq!(free.saved, 540 + 180);
    }

    #[test]
    fn barrier_round_contributes_release_and_hbm() {
        // One block: busy [100, 300] (poll), round resolves at
        // max(300, bw 500) + 50 = 550; post-barrier busy [550, 600].
        let events = [
            busy(0, 0, EngineKind::Scalar, 100, 300),
            busy(0, 0, EngineKind::Vec, 550, 600),
        ];
        let stalls = [stall(0, 0, EngineKind::Vec, StallCause::Barrier, 300, 550)];
        let rounds = [RoundRecord {
            all_set: 250,
            ready_max: 300,
            seg_start: 100,
            seg_bytes: 4096,
            bw_bound: 500,
            release_cost: 50,
            resolved: 550,
        }];
        let input = CritInput {
            cycles: 600,
            origin: 100,
            flag_wait_cycles: 540,
            flag_set_cycles: 180,
            events: &events,
            stalls: &stalls,
            graph: &LaunchGraph::build(&[]),
            spans: &[],
            rounds: &rounds,
            finale: Some(FinalRecord {
                max_local: 600,
                seg_start: 550,
                seg_bytes: 0,
                bw_bound: 550,
                end: 600,
            }),
        };
        let r = analyze(&input).unwrap();
        assert_eq!(r.summary.barrier_release, 50);
        assert_eq!(r.summary.hbm, 400); // [100, 500] stretched segment
        assert_eq!(r.summary.launch, 100);
        assert_eq!(r.summary.busy, 50); // only the post-barrier work
        assert_eq!(
            r.summary.launch + r.summary.busy + r.summary.barrier_release + r.summary.hbm,
            600
        );
        assert_eq!(r.summary.what_ifs[1].name, "infinite_hbm");
        assert_eq!(r.summary.what_ifs[1].saved, 400);
        // Free barriers save the release and nothing else.
        assert_eq!(
            r.summary.what_ifs[3],
            WhatIf {
                name: "free_barrier_release",
                saved: 50,
                predicted: 550,
            }
        );
    }

    #[test]
    fn overlapped_probe_hop_attributes_as_chain_wire() {
        // Decoupled look-back: block 1 probes block 0's grid flag early
        // (hb recorded at the poll, cycle 280) and threads the arrival
        // (set 580 + wire 540 = 1120) into its mailbox copy-in as a
        // plain dependency. No wait hb event exists at 1120 — only the
        // arrival index can justify the dependency stall's end.
        let events = [
            busy(0, 1, EngineKind::Vec, 100, 400), // producer local work
            busy(0, 1, EngineKind::FLAG_ENGINE, 400, 580), // grid set
            busy(1, 1, EngineKind::FLAG_ENGINE, 100, 280), // probe poll
            busy(1, 1, EngineKind::Mte2, 1120, 1200), // dep-threaded copy-in
        ];
        let stalls = [stall(
            1,
            1,
            EngineKind::Mte2,
            StallCause::Dependency,
            100,
            1120,
        )];
        let hb = [
            HbEvent {
                block: 0,
                core: 1,
                time: 580,
                what: "GridSetFlag",
                action: HbAction::GridFlagSet { id: 0, token: 0 },
            },
            HbEvent {
                block: 1,
                core: 1,
                time: 280,
                what: "GridProbeFlag",
                action: HbAction::GridFlagWait { id: 0, token: 0 },
            },
        ];
        let input = CritInput {
            cycles: 1200,
            origin: 100,
            flag_wait_cycles: 540,
            flag_set_cycles: 180,
            events: &events,
            stalls: &stalls,
            graph: &LaunchGraph::build(&hb),
            spans: &[],
            rounds: &[],
            finale: Some(finale(1200, 100)),
        };
        let r = analyze(&input).unwrap();
        assert_eq!(r.summary.chain_wire, 540);
        assert_eq!(r.summary.chain_hops, 1);
        // The producer's 180-cycle grid set is chain overhead too.
        assert_eq!(r.summary.chain_instr, 180);
        assert_eq!(r.summary.lookback_chain, 720);
        assert_eq!(
            r.summary.launch + r.summary.busy + r.summary.chain_wire,
            r.summary.makespan
        );
        let zl = &r.summary.what_ifs[2];
        assert_eq!(zl.name, "zero_lookback");
        assert_eq!(zl.saved, 720);
        // The wire segment is owned by the producer lane.
        let wire = r
            .segments
            .iter()
            .find(|s| s.class == SegClass::ChainWire)
            .unwrap();
        assert_eq!((wire.block, wire.core), (Some(0), Some(1)));
        assert_eq!((wire.start, wire.end), (580, 1120));
    }

    #[test]
    fn unexplained_boundary_is_a_violation() {
        // The lane ends at 350 but the report claims 400, and nothing
        // justifies cycle 400.
        let events = [busy(0, 1, EngineKind::Vec, 100, 350)];
        let input = CritInput {
            cycles: 400,
            origin: 100,
            flag_wait_cycles: 540,
            flag_set_cycles: 180,
            events: &events,
            stalls: &[],
            graph: &LaunchGraph::build(&[]),
            spans: &[],
            rounds: &[],
            finale: Some(finale(400, 100)),
        };
        let err = analyze(&input).unwrap_err();
        assert!(matches!(err, SimError::AccountingViolation { .. }));
    }

    #[test]
    fn summary_json_is_well_formed() {
        let events = [busy(0, 1, EngineKind::Vec, 100, 400)];
        let input = CritInput {
            cycles: 400,
            origin: 100,
            flag_wait_cycles: 540,
            flag_set_cycles: 180,
            events: &events,
            stalls: &[],
            graph: &LaunchGraph::build(&[]),
            spans: &[],
            rounds: &[],
            finale: Some(finale(400, 100)),
        };
        let r = analyze(&input).unwrap();
        let js = r.summary.to_json().to_string();
        assert!(js.starts_with('{') && js.ends_with('}'));
        assert!(js.contains("\"makespan\":400"));
        assert!(js.contains("\"what_ifs\":["));
        assert!(js.contains("\"lookback_chain_share\":"));
        let full = r.to_json("k", 8).to_string();
        assert!(full.contains("\"top_segments\":["));
        assert!(full.contains("\"class\":\"busy\""));
    }
}
