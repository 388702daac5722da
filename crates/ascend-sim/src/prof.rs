//! First-class profiling: named spans, stall attribution, and
//! machine-readable kernel profiles.
//!
//! The profiling layer is strictly **observational**: enabling it never
//! changes a simulated cycle. Timing lives in [`crate::timeline`]; this
//! module only classifies and records what the timeline already decided.
//!
//! # Span model
//!
//! Spans are hierarchical named intervals — kernel → phase → tile:
//!
//! * the *kernel* span (depth 0) covers one launch, one per block;
//! * *phase* spans (depth 1) are opened by the kernel through the
//!   `BlockCtx` span API and bracket paper-level phases ("Phase I",
//!   "propagate", `SyncAll`);
//! * *tile* spans (depth ≥ 2) are opened on an individual core and
//!   bracket one tile's pipeline trip, crossing the `TQue` producer →
//!   consumer boundary because they are pure time intervals.
//!
//! Span begin/end times come from the core's completion horizon
//! ([`crate::timeline::CoreTimeline::now`]) or from explicit instruction
//! completion events, so consecutive tile spans tile a phase contiguously
//! along the critical path.
//!
//! # Stall taxonomy
//!
//! Idle cycles on each engine split into:
//!
//! * **dependency-wait** — the engine sat idle because the instruction's
//!   inputs were not ready yet (`start − engine_free` when the
//!   dependencies resolve after the engine frees up);
//! * **flag-wait** — the engine sat idle because the core was blocked on
//!   a `CrossCoreWaitFlag` whose matching `CrossCoreSetFlag` had not yet
//!   completed on the producing core (the AIC↔AIV hand-off cost);
//! * **barrier-wait** — the engine sat idle because the core was aligned
//!   to a global barrier (the `SyncAll` release, the bandwidth bound, or
//!   kernel end);
//! * **engine-contention** — the instruction's inputs were ready but the
//!   engine was still busy with earlier instructions. Contention overlaps
//!   the engine's *own* busy time of those earlier instructions, so it is
//!   a queueing-delay metric, **not** part of the idle-cycle partition:
//!   `busy + dependency + barrier + flag = cores × (cycles − launch)`
//!   exactly (audited by `simcheck`), while contention is reported on the
//!   side.

use crate::critpath::CritReport;
use crate::engine::EngineKind;
use crate::json::Json;
use crate::timeline::EventTime;
use crate::trace::{hb_events_json, HbEvent, TraceEvent};
use std::sync::{Arc, Mutex};

/// Core index used in [`TraceSpan::core`] for block-scoped (phase) spans
/// that do not belong to a single core.
pub const BLOCK_SCOPE: u32 = u32::MAX;

/// Why an engine sat idle (recorded as an interval when tracing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallCause {
    /// Waiting for instruction inputs produced elsewhere.
    Dependency,
    /// Aligned forward by a global barrier / bandwidth bound / kernel end.
    Barrier,
    /// Blocked on a `CrossCoreWaitFlag` until the matching
    /// `CrossCoreSetFlag` completed on the producing core.
    Flag,
}

impl StallCause {
    /// Display label used in trace exports.
    pub const fn label(self) -> &'static str {
        match self {
            StallCause::Dependency => "wait:dep",
            StallCause::Barrier => "wait:barrier",
            StallCause::Flag => "wait:flag",
        }
    }
}

/// Per-engine stall cycle counters (see the module docs for the taxonomy).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StallTally {
    /// Idle cycles spent waiting for dependencies, per engine.
    pub dependency: [u64; EngineKind::ALL.len()],
    /// Queueing delay behind the engine's own earlier instructions, per
    /// engine (overlaps busy time; not part of the idle partition).
    pub contention: [u64; EngineKind::ALL.len()],
    /// Idle cycles spent aligned at barriers, per engine.
    pub barrier: [u64; EngineKind::ALL.len()],
    /// Idle cycles spent blocked on cross-core flags, per engine.
    pub flag: [u64; EngineKind::ALL.len()],
}

impl StallTally {
    /// Adds another tally into this one (merging per-core tallies into a
    /// per-kernel report).
    pub fn absorb(&mut self, other: &StallTally) {
        for i in 0..EngineKind::ALL.len() {
            self.dependency[i] += other.dependency[i];
            self.contention[i] += other.contention[i];
            self.barrier[i] += other.barrier[i];
            self.flag[i] += other.flag[i];
        }
    }

    /// Idle cycles (dependency + barrier + flag) for one engine.
    pub fn idle(&self, engine: EngineKind) -> u64 {
        self.dependency[engine.index()] + self.barrier[engine.index()] + self.flag[engine.index()]
    }

    /// Total idle cycles across all engines.
    pub fn total_idle(&self) -> u64 {
        self.dependency.iter().sum::<u64>()
            + self.barrier.iter().sum::<u64>()
            + self.flag.iter().sum::<u64>()
    }
}

/// Optional structured arguments attached to a span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanArgs {
    /// Bytes moved by the work the span covers.
    pub bytes: u64,
    /// Dominant instruction kind ("mmad", "datacopy", "vadds", …).
    pub kind: &'static str,
    /// Depth of the pipeline queue feeding the span's work (0 = none).
    pub queue_depth: u32,
}

/// Handle to an open span (no-op sentinel when profiling is off).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    const NONE: SpanId = SpanId(usize::MAX);
}

/// One closed named span, ready for export.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpan {
    /// Block the span belongs to.
    pub block: u32,
    /// Core index within the block, or [`BLOCK_SCOPE`] for phase spans.
    pub core: u32,
    /// Span name (static so that disabled profiling allocates nothing).
    pub name: &'static str,
    /// Nesting depth: 0 = kernel, 1 = phase, ≥ 2 = tile.
    pub depth: u16,
    /// Start cycle.
    pub start: EventTime,
    /// End cycle.
    pub end: EventTime,
    /// Structured arguments, if the kernel attached any.
    pub args: Option<SpanArgs>,
}

/// One engine idle interval with its attributed cause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallEvent {
    /// Block the core belongs to.
    pub block: u32,
    /// Core index within the block.
    pub core: u32,
    /// The idle engine.
    pub engine: EngineKind,
    /// Why it idled.
    pub cause: StallCause,
    /// Start cycle of the idle interval.
    pub start: EventTime,
    /// End cycle of the idle interval.
    pub end: EventTime,
}

/// One sampled counter value (e.g. `TQue` occupancy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterEvent {
    /// Block the counter belongs to.
    pub block: u32,
    /// Core index within the block.
    pub core: u32,
    /// Counter name (e.g. the queue's name).
    pub name: &'static str,
    /// Sample time in cycles.
    pub time: EventTime,
    /// Sampled value (e.g. buffers in flight).
    pub value: u32,
}

/// Records nested spans for one scope (a block or a core). Disabled by
/// default; every method is a no-op until [`SpanRecorder::enable`].
#[derive(Debug, Default)]
pub struct SpanRecorder {
    enabled: bool,
    base_depth: u16,
    slots: Vec<Slot>,
    open: Vec<usize>,
}

#[derive(Debug)]
struct Slot {
    name: &'static str,
    start: EventTime,
    end: Option<EventTime>,
    depth: u16,
    args: Option<SpanArgs>,
}

impl SpanRecorder {
    /// A disabled recorder whose spans start at nesting depth
    /// `base_depth` (1 for block phases, 2 for core tile spans).
    pub fn new(base_depth: u16) -> Self {
        SpanRecorder {
            enabled: false,
            base_depth,
            slots: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span starting at `now`. Returns a no-op handle when
    /// recording is off.
    pub fn begin(&mut self, name: &'static str, now: EventTime) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let depth = self.base_depth + self.open.len() as u16;
        let idx = self.slots.len();
        self.slots.push(Slot {
            name,
            start: now,
            end: None,
            depth,
            args: None,
        });
        self.open.push(idx);
        SpanId(idx)
    }

    /// Closes a span at time `at` (clamped to the span's start).
    pub fn end(&mut self, id: SpanId, at: EventTime) {
        if id == SpanId::NONE {
            return;
        }
        if let Some(slot) = self.slots.get_mut(id.0) {
            if slot.end.is_none() {
                slot.end = Some(at.max(slot.start));
                self.open.retain(|&i| i != id.0);
            }
        }
    }

    /// Attaches structured arguments to a span.
    pub fn set_args(&mut self, id: SpanId, args: SpanArgs) {
        if id == SpanId::NONE {
            return;
        }
        if let Some(slot) = self.slots.get_mut(id.0) {
            slot.args = Some(args);
        }
    }

    /// Drains all recorded spans, closing still-open ones at
    /// `final_time`, and stamps them with their block/core identity.
    pub fn take(&mut self, block: u32, core: u32, final_time: EventTime) -> Vec<TraceSpan> {
        self.open.clear();
        self.slots
            .drain(..)
            .map(|s| TraceSpan {
                block,
                core,
                name: s.name,
                depth: s.depth,
                start: s.start,
                end: s.end.unwrap_or(final_time).max(s.start),
                args: s.args,
            })
            .collect()
    }
}

/// Everything profiled during one kernel launch.
#[derive(Clone, Debug, Default)]
pub struct KernelProfile {
    /// Kernel name.
    pub name: String,
    /// Core clock in GHz (for cycle → µs conversion).
    pub clock_ghz: f64,
    /// Number of blocks launched.
    pub blocks: u32,
    /// End-to-end simulated cycles.
    pub cycles: u64,
    /// Per-instruction engine occupancy intervals.
    pub events: Vec<TraceEvent>,
    /// Named spans (kernel phases, tiles).
    pub spans: Vec<TraceSpan>,
    /// Engine idle intervals with attributed causes.
    pub stall_events: Vec<StallEvent>,
    /// Sampled counters (queue occupancy).
    pub counters: Vec<CounterEvent>,
    /// Aggregated stall cycles per engine.
    pub stalls: StallTally,
    /// Happens-before events (GM access ranges, flag/queue edges, barrier
    /// rounds) consumed by the schedule analyzer ([`crate::hb`]).
    pub hb_events: Vec<HbEvent>,
    /// The launch's extracted critical path ([`crate::critpath`]):
    /// segments tiling `[0, cycles]` plus attribution and what-ifs.
    pub critical_path: Option<CritReport>,
}

/// Profiles collected from one or more kernel launches (see
/// [`with_profiling`]).
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// One entry per launch, in launch order.
    pub kernels: Vec<KernelProfile>,
}

fn core_label(core: u32) -> String {
    match core {
        BLOCK_SCOPE => "block".to_string(),
        0 => "cube".to_string(),
        i => format!("vec{}", i - 1),
    }
}

impl Profile {
    /// Renders the full profile as a Chrome Trace Event JSON document
    /// (open at <https://ui.perfetto.dev>). Tracks: one *process* per
    /// block; per (core, engine) threads carry busy intervals interleaved
    /// with their `wait:dep` / `wait:barrier` idle intervals; `phases`
    /// and `<core>.spans` threads carry the named spans; queue occupancy
    /// is exported as counter tracks. Successive kernels are laid out
    /// sequentially on the time axis.
    ///
    /// The document is additionally stamped `"schema":"ascend-trace/v1"`
    /// and carries the launches' happens-before events under a top-level
    /// `"hbEvents"` key (concatenated across kernels, in launch order),
    /// so the `simlint` CLI can analyze a trace file offline via
    /// [`crate::trace::parse_hb_json`]. Chrome/Perfetto ignore the extra
    /// keys.
    pub fn to_chrome_json(&self) -> String {
        let mut trace_events = Vec::new();
        let mut base_us = 0.0f64;
        for k in &self.kernels {
            let ghz = if k.clock_ghz > 0.0 { k.clock_ghz } else { 1.0 };
            let base = base_us;
            let ts = move |cycles: u64| Json::fixed(base + cycles as f64 / (ghz * 1e3), 3);
            let dur = |start: u64, end: u64| {
                Json::fixed(
                    (end.saturating_sub(start) as f64 / (ghz * 1e3)).max(0.001),
                    3,
                )
            };
            // One complete ("X") event; `extra` fields follow `tid`.
            let span = |name: Json,
                        cat: &str,
                        (start, end): (u64, u64),
                        pid: u32,
                        tid: Json,
                        extra: Option<(&str, Json)>| {
                let mut fields = vec![
                    ("name", name),
                    ("cat", cat.into()),
                    ("ph", "X".into()),
                    ("ts", ts(start)),
                    ("dur", dur(start, end)),
                    ("pid", pid.into()),
                    ("tid", tid),
                ];
                fields.extend(extra);
                Json::obj(fields)
            };
            // Kernel root span, one per block.
            for b in 0..k.blocks {
                trace_events.push(span(
                    k.name.as_str().into(),
                    "kernel",
                    (0, k.cycles),
                    b,
                    "phases".into(),
                    None,
                ));
            }
            for e in &k.events {
                trace_events.push(span(
                    e.engine.name().into(),
                    "engine",
                    (e.start, e.end),
                    e.block,
                    format!("{}.{}", core_label(e.core), e.engine.name()).into(),
                    None,
                ));
            }
            for s in &k.stall_events {
                trace_events.push(span(
                    s.cause.label().into(),
                    "stall",
                    (s.start, s.end),
                    s.block,
                    format!("{}.{}", core_label(s.core), s.engine.name()).into(),
                    None,
                ));
            }
            for s in &k.spans {
                let tid: Json = if s.core == BLOCK_SCOPE {
                    "phases".into()
                } else {
                    format!("{}.spans", core_label(s.core)).into()
                };
                let args = s.args.map(|a| {
                    let args = Json::obj([
                        ("bytes", a.bytes.into()),
                        ("kind", a.kind.into()),
                        ("queue_depth", a.queue_depth.into()),
                    ]);
                    ("args", args)
                });
                trace_events.push(span(
                    s.name.into(),
                    "span",
                    (s.start, s.end),
                    s.block,
                    tid,
                    args,
                ));
            }
            for c in &k.counters {
                trace_events.push(Json::obj([
                    ("name", format!("{}:{}", core_label(c.core), c.name).into()),
                    ("ph", "C".into()),
                    ("ts", ts(c.time)),
                    ("pid", c.block.into()),
                    ("args", Json::obj([("buffers", c.value.into())])),
                ]));
            }
            // On-critical-path marking: one `critical` thread per block
            // (pid 0 hosts launch-wide segments — launch latency, HBM
            // stretches, barrier releases) so the path reads as a
            // contiguous chain across the trace.
            if let Some(cp) = &k.critical_path {
                for s in cp.segments.iter().filter(|s| !s.is_empty()) {
                    let name = match (s.class, s.engine) {
                        (crate::critpath::SegClass::Busy, Some(e)) => {
                            format!("crit:{}:{}", s.class.label(), e.name())
                        }
                        _ => format!("crit:{}", s.class.label()),
                    };
                    trace_events.push(span(
                        name.into(),
                        "critical",
                        (s.start, s.end),
                        s.block.unwrap_or(0),
                        "critical".into(),
                        Some(("args", Json::obj([("phase", s.phase.into())]))),
                    ));
                }
            }
            // Lay the next kernel out after this one with a small gap.
            base_us += k.cycles as f64 / (ghz * 1e3) * 1.05 + 1.0;
        }
        // Each path carries its launch's cycles, which its makespan must
        // equal.
        let critical_paths = self.kernels.iter().filter_map(|k| {
            let mut cp = k.critical_path.as_ref()?.to_json(&k.name, 32);
            if let Json::Obj(fields) = &mut cp {
                fields.insert(1, ("cycles".to_string(), k.cycles.into()));
            }
            Some(cp)
        });
        let all_hb: Vec<HbEvent> = self
            .kernels
            .iter()
            .flat_map(|k| k.hb_events.iter().copied())
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(trace_events)),
            ("schema", "ascend-trace/v1".into()),
            ("criticalPaths", Json::Arr(critical_paths.collect())),
            ("hbEvents", hb_events_json(&all_hb)),
        ])
        .to_string()
    }
}

/// An explicit, launch-scoped profile collector.
///
/// The recorder is *per-launch state*: it is attached to the
/// [`GlobalMemory`](crate::mem::GlobalMemory) a launch runs against
/// ([`GlobalMemory::attach_profiler`](crate::mem::GlobalMemory::attach_profiler)),
/// and the launch machinery submits the finished [`KernelProfile`]
/// there. Unlike the thread-local collector it replaces, a recorder is
/// `Send + Sync` — launches on different memories can profile
/// concurrently from a host thread pool — and it cannot leak profiles
/// across sequential launches on the same host thread: a launch records
/// if and only if its own memory has a recorder attached.
#[derive(Debug, Default)]
pub struct ProfileRecorder {
    kernels: Mutex<Vec<KernelProfile>>,
}

impl ProfileRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> Arc<ProfileRecorder> {
        Arc::new(ProfileRecorder::default())
    }

    /// Hands a finished launch's profile to the recorder.
    pub fn submit(&self, profile: KernelProfile) {
        self.kernels
            .lock()
            .expect("ProfileRecorder lock poisoned")
            .push(profile);
    }

    /// Drains everything recorded so far into a [`Profile`], in launch
    /// completion order.
    pub fn take(&self) -> Profile {
        Profile {
            kernels: std::mem::take(
                &mut self.kernels.lock().expect("ProfileRecorder lock poisoned"),
            ),
        }
    }
}

/// Runs `f` with profile collection enabled on `gm`: every kernel
/// launched against `gm` inside records spans, engine events, and stall
/// intervals, and the collected [`Profile`] is returned alongside `f`'s
/// result. Launches against *other* memories are unaffected.
///
/// Profiling is observational — simulated cycle counts are identical
/// with and without it.
pub fn with_profiling<R>(gm: &crate::mem::GlobalMemory, f: impl FnOnce() -> R) -> (R, Profile) {
    let recorder = gm.attach_profiler();
    let result = f();
    gm.detach_profiler();
    (result, recorder.take())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let mut r = SpanRecorder::new(1);
        let id = r.begin("phase", 100);
        assert_eq!(id, SpanId::NONE);
        r.end(id, 200);
        r.set_args(id, SpanArgs::default());
        assert!(r.take(0, BLOCK_SCOPE, 500).is_empty());
    }

    #[test]
    fn spans_nest_and_close() {
        let mut r = SpanRecorder::new(1);
        r.enable();
        let outer = r.begin("phase", 10);
        let inner = r.begin("tile", 20);
        r.set_args(
            inner,
            SpanArgs {
                bytes: 64,
                kind: "mmad",
                queue_depth: 2,
            },
        );
        r.end(inner, 30);
        let dangling = r.begin("tile", 35);
        assert_ne!(dangling, SpanId::NONE);
        r.end(outer, 40);
        let spans = r.take(3, 0, 100);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "phase");
        assert_eq!(spans[0].depth, 1);
        assert_eq!((spans[0].start, spans[0].end), (10, 40));
        assert_eq!(spans[1].depth, 2);
        assert_eq!(spans[1].args.unwrap().bytes, 64);
        // The dangling span is closed at the final time.
        assert_eq!(spans[2].end, 100);
        assert!(spans.iter().all(|s| s.block == 3 && s.core == 0));
    }

    #[test]
    fn span_end_clamps_to_start() {
        let mut r = SpanRecorder::new(0);
        r.enable();
        let id = r.begin("x", 50);
        r.end(id, 10);
        let spans = r.take(0, 0, 0);
        assert_eq!((spans[0].start, spans[0].end), (50, 50));
    }

    #[test]
    fn tally_absorbs_and_partitions() {
        let mut a = StallTally::default();
        a.dependency[EngineKind::Vec.index()] = 10;
        a.barrier[EngineKind::Vec.index()] = 5;
        a.flag[EngineKind::Vec.index()] = 4;
        a.contention[EngineKind::Mte2.index()] = 7;
        a.flag[EngineKind::Scalar.index()] = 2;
        let mut b = StallTally::default();
        b.dependency[EngineKind::Vec.index()] = 1;
        b.absorb(&a);
        assert_eq!(b.idle(EngineKind::Vec), 20);
        assert_eq!(b.total_idle(), 22);
        assert_eq!(b.contention[EngineKind::Mte2.index()], 7);
    }

    #[test]
    fn recorder_is_scoped_to_its_memory() {
        let gm1 = crate::mem::GlobalMemory::new(1 << 10);
        let gm2 = crate::mem::GlobalMemory::new(1 << 10);
        let ((), p1) = with_profiling(&gm1, || {
            // A launch submits to the recorder of the memory it runs
            // against; gm2 has none, so its submissions are dropped.
            gm1.profiler().unwrap().submit(KernelProfile {
                name: "a".into(),
                ..Default::default()
            });
            assert!(gm2.profiler().is_none());
        });
        assert_eq!(p1.kernels.len(), 1);
        assert_eq!(p1.kernels[0].name, "a");
        assert!(gm1.profiler().is_none(), "scope detaches on exit");
    }

    #[test]
    fn sequential_scopes_do_not_share_profiles() {
        // Regression: the old thread-local collector could leak profiles
        // across back-to-back launches on the same host thread.
        let gm = crate::mem::GlobalMemory::new(1 << 10);
        let ((), first) = with_profiling(&gm, || {
            gm.profiler().unwrap().submit(KernelProfile {
                name: "first".into(),
                ..Default::default()
            });
        });
        let ((), second) = with_profiling(&gm, || {
            gm.profiler().unwrap().submit(KernelProfile {
                name: "second".into(),
                ..Default::default()
            });
        });
        assert_eq!(first.kernels.len(), 1);
        assert_eq!(first.kernels[0].name, "first");
        assert_eq!(second.kernels.len(), 1);
        assert_eq!(second.kernels[0].name, "second");
    }

    #[test]
    fn recorder_take_drains() {
        let rec = ProfileRecorder::new();
        rec.submit(KernelProfile::default());
        assert_eq!(rec.take().kernels.len(), 1);
        assert!(rec.take().kernels.is_empty());
    }

    #[test]
    fn chrome_export_escapes_hostile_span_names() {
        let profile = Profile {
            kernels: vec![KernelProfile {
                name: "evil\"kernel\\\n".into(),
                clock_ghz: 1.0,
                blocks: 1,
                cycles: 1000,
                spans: vec![TraceSpan {
                    block: 0,
                    core: 0,
                    name: "tile \"0\"\t<end>",
                    depth: 2,
                    start: 10,
                    end: 20,
                    args: Some(SpanArgs {
                        bytes: 512,
                        kind: "mm\"ad",
                        queue_depth: 2,
                    }),
                }],
                ..Default::default()
            }],
        };
        let json = profile.to_chrome_json();
        assert!(json.contains("evil\\\"kernel\\\\\\n"));
        assert!(json.contains("tile \\\"0\\\"\\t<end>"));
        assert!(json.contains("\"kind\":\"mm\\\"ad\""));
        // No raw quote-in-name survives: the document still parses by
        // eye — balanced braces and brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn chrome_export_embeds_hb_events_for_offline_lint() {
        use crate::trace::{parse_hb_json, HbAction};
        let mk = |name: &str, block| KernelProfile {
            name: name.into(),
            clock_ghz: 1.0,
            blocks: 1,
            cycles: 100,
            hb_events: vec![HbEvent {
                block,
                core: 0,
                time: 10,
                what: "DataCopy",
                action: HbAction::GmWrite { start: 0, end: 64 },
            }],
            ..Default::default()
        };
        let p = Profile {
            kernels: vec![mk("k1", 0), mk("k2", 1)],
        };
        let json = p.to_chrome_json();
        assert!(json.contains("\"schema\":\"ascend-trace/v1\""));
        let parsed = parse_hb_json(&json).unwrap();
        assert_eq!(parsed.len(), 2, "kernels concatenate in launch order");
        assert_eq!(parsed[0].block, 0);
        assert_eq!(parsed[1].block, 1);
        // Chrome-trace shape is preserved for Perfetto.
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn chrome_export_lays_kernels_out_sequentially() {
        let mk = |name: &str| KernelProfile {
            name: name.into(),
            clock_ghz: 1.0,
            blocks: 1,
            cycles: 2000,
            events: vec![TraceEvent {
                block: 0,
                core: 0,
                engine: EngineKind::Cube,
                start: 0,
                end: 1000,
            }],
            ..Default::default()
        };
        let p = Profile {
            kernels: vec![mk("k1"), mk("k2")],
        };
        let json = p.to_chrome_json();
        // Both kernels emit a CUBE event; the second must be offset.
        let mut ts: Vec<f64> = Vec::new();
        for part in json.split("\"cat\":\"engine\"").skip(1) {
            if let Some(rest) = part.split("\"ts\":").nth(1) {
                let num: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_digit() || *c == '.')
                    .collect();
                ts.push(num.parse().unwrap());
            }
        }
        assert_eq!(ts.len(), 2);
        assert!(ts[1] > ts[0] + 2.0, "second kernel laid out after first");
    }
}
