//! Per-core dataflow timing.
//!
//! A [`CoreTimeline`] models one AIC or AIV core: a set of engines, each
//! with its own in-order instruction queue. Executing an instruction on an
//! engine starts at `max(engine free, all dependencies ready)` and
//! occupies the engine for the instruction's cost. The returned
//! [`EventTime`] is the completion time; threading these completion times
//! through the AscendC queue layer yields exactly the pipelined schedules
//! the paper describes (MTE/cube/vector overlap, double buffering).

use crate::chip::ChipSpec;
use crate::engine::EngineKind;
use crate::error::{SimError, SimResult};
use crate::prof::{StallCause, StallTally};

/// Completion time of an instruction, in core cycles since kernel start.
pub type EventTime = u64;

/// Whether a core is a cube (AIC) or vector (AIV) core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreKind {
    /// AI Cube core: matmul engine + MTE1/MTE2/MTE3/FIXP + scalar.
    Cube,
    /// AI Vector core: SIMD engine + MTE2/MTE3 + scalar.
    Vector,
}

impl CoreKind {
    /// The core kind's name.
    pub const fn name(self) -> &'static str {
        match self {
            CoreKind::Cube => "cube",
            CoreKind::Vector => "vector",
        }
    }

    /// True if the engine exists on this core kind.
    pub fn has_engine(self, engine: EngineKind) -> bool {
        match self {
            CoreKind::Cube => ChipSpec::cube_core_engines().contains(&engine),
            CoreKind::Vector => ChipSpec::vec_core_engines().contains(&engine),
        }
    }
}

/// A core's recorded busy `(engine, start, end)` and idle `(engine,
/// cause, start, end)` intervals.
pub type Recorded = (
    Vec<(EngineKind, EventTime, EventTime)>,
    Vec<(EngineKind, StallCause, EventTime, EventTime)>,
);

/// The timing state of one core.
#[derive(Clone, Debug)]
pub struct CoreTimeline {
    kind: CoreKind,
    /// The cycle the core was created at (launch overhead boundary);
    /// idle time before it is charged to nobody.
    origin: EventTime,
    /// Cycle at which each engine becomes free.
    free_at: [EventTime; EngineKind::ALL.len()],
    /// Accumulated busy cycles per engine (for utilization reports).
    busy: [u64; EngineKind::ALL.len()],
    /// Number of instructions issued per engine.
    issued: [u64; EngineKind::ALL.len()],
    /// Attributed idle/queueing cycles per engine (always counted).
    stalls: StallTally,
    /// High-water mark of contention already charged per engine: queueing
    /// intervals are merged against it so overlapping backlogs are never
    /// double-counted and contention stays ≤ `now() − origin`.
    contention_mark: [EventTime; EngineKind::ALL.len()],
    /// Recorded (engine, start, end) intervals, when tracing is on.
    recorded: Option<Vec<(EngineKind, EventTime, EventTime)>>,
    /// Recorded idle intervals with causes, when tracing is on.
    recorded_stalls: Option<Vec<(EngineKind, StallCause, EventTime, EventTime)>>,
}

impl CoreTimeline {
    /// A fresh core timeline at cycle `start` (engines all idle).
    pub fn new(kind: CoreKind, start: EventTime) -> Self {
        CoreTimeline {
            kind,
            origin: start,
            free_at: [start; EngineKind::ALL.len()],
            busy: [0; EngineKind::ALL.len()],
            issued: [0; EngineKind::ALL.len()],
            stalls: StallTally::default(),
            contention_mark: [start; EngineKind::ALL.len()],
            recorded: None,
            recorded_stalls: None,
        }
    }

    /// Turns on per-instruction interval recording (for trace export),
    /// including idle-interval (stall) recording.
    pub fn enable_recording(&mut self) {
        if self.recorded.is_none() {
            self.recorded = Some(Vec::new());
        }
        if self.recorded_stalls.is_none() {
            self.recorded_stalls = Some(Vec::new());
        }
    }

    /// Drains the recorded busy and idle intervals (empty unless tracing
    /// is on), leaving recording as it was.
    pub fn take_recorded(&mut self) -> Recorded {
        let busy = self.recorded.as_mut().map(std::mem::take);
        let idle = self.recorded_stalls.as_mut().map(std::mem::take);
        (busy.unwrap_or_default(), idle.unwrap_or_default())
    }

    /// The attributed stall cycles accumulated so far.
    pub fn stalls(&self) -> &StallTally {
        &self.stalls
    }

    /// The core kind.
    pub fn kind(&self) -> CoreKind {
        self.kind
    }

    /// Executes an instruction of the given cost on an engine, after all
    /// of `deps` have completed. Returns the completion time.
    pub fn exec(
        &mut self,
        engine: EngineKind,
        cycles: u64,
        deps: &[EventTime],
    ) -> SimResult<EventTime> {
        if !self.kind.has_engine(engine) {
            return Err(SimError::WrongCore {
                instr: engine.name(),
                core: self.kind.name(),
            });
        }
        let idx = engine.index();
        let ready = deps.iter().copied().max().unwrap_or(0);
        let prev_free = self.free_at[idx];
        let start = prev_free.max(ready);
        let end = start + cycles;
        // Stall attribution (observational — `start`/`end` are already
        // decided above): the engine idled from `prev_free` to `start`
        // waiting for inputs; conversely, if the inputs were ready while
        // the engine was still busy, the instruction queued from
        // `max(ready, origin)` to `prev_free` (engine contention; overlaps
        // the engine's own busy time, see `prof::StallTally`). Queued
        // intervals of back-to-back instructions overlap the same backlog,
        // so only the part past the already-charged high-water mark is
        // counted — keeping contention per engine ≤ `now() − origin`.
        if start > prev_free {
            self.stalls.dependency[idx] += start - prev_free;
            if let Some(rec) = &mut self.recorded_stalls {
                rec.push((engine, StallCause::Dependency, prev_free, start));
            }
        }
        let queued_from = ready.max(self.origin).max(self.contention_mark[idx]);
        if prev_free > queued_from {
            self.stalls.contention[idx] += prev_free - queued_from;
            self.contention_mark[idx] = prev_free;
        }
        self.free_at[idx] = end;
        self.busy[idx] += cycles;
        self.issued[idx] += 1;
        if let Some(rec) = &mut self.recorded {
            rec.push((engine, start, end));
        }
        Ok(end)
    }

    /// The core's current completion horizon: when its last-finishing
    /// engine becomes free.
    pub fn now(&self) -> EventTime {
        *self.free_at.iter().max().expect("non-empty engine set")
    }

    /// Advances every engine's free time to at least `t`, attributing the
    /// skipped-over idle cycles to `cause` on the engines this core
    /// actually has. Used at global barriers ([`StallCause::Barrier`])
    /// and when blocked on a cross-core flag ([`StallCause::Flag`]).
    pub fn align_to_cause(&mut self, t: EventTime, cause: StallCause) {
        for (i, e) in EngineKind::ALL.iter().enumerate() {
            let f = self.free_at[i];
            if t > f {
                if self.kind.has_engine(*e) {
                    match cause {
                        StallCause::Barrier => self.stalls.barrier[i] += t - f,
                        StallCause::Flag => self.stalls.flag[i] += t - f,
                        StallCause::Dependency => self.stalls.dependency[i] += t - f,
                    }
                    if let Some(rec) = &mut self.recorded_stalls {
                        rec.push((*e, cause, f, t));
                    }
                }
                self.free_at[i] = t;
            }
        }
    }

    /// [`Self::align_to_cause`] with the barrier cause (global barriers
    /// and kernel-end alignment).
    pub fn align_to(&mut self, t: EventTime) {
        self.align_to_cause(t, StallCause::Barrier);
    }

    /// Busy cycles accumulated on an engine.
    pub fn busy_cycles(&self, engine: EngineKind) -> u64 {
        self.busy[engine.index()]
    }

    /// Instructions issued on an engine.
    pub fn instructions(&self, engine: EngineKind) -> u64 {
        self.issued[engine.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_engine_serializes() {
        let mut core = CoreTimeline::new(CoreKind::Vector, 0);
        let a = core.exec(EngineKind::Vec, 10, &[]).unwrap();
        let b = core.exec(EngineKind::Vec, 5, &[]).unwrap();
        assert_eq!(a, 10);
        assert_eq!(b, 15, "second op waits for the engine");
    }

    #[test]
    fn different_engines_overlap() {
        let mut core = CoreTimeline::new(CoreKind::Vector, 0);
        let a = core.exec(EngineKind::Mte2, 100, &[]).unwrap();
        let b = core.exec(EngineKind::Vec, 10, &[]).unwrap();
        assert_eq!(a, 100);
        assert_eq!(b, 10, "independent engines run concurrently");
        // But a dependent op waits for its producer.
        let c = core.exec(EngineKind::Vec, 10, &[a]).unwrap();
        assert_eq!(c, 110);
    }

    #[test]
    fn dependencies_pick_latest() {
        let mut core = CoreTimeline::new(CoreKind::Cube, 0);
        let a = core.exec(EngineKind::Mte2, 50, &[]).unwrap();
        let b = core.exec(EngineKind::Mte1, 20, &[a]).unwrap();
        let c = core.exec(EngineKind::Cube, 30, &[a, b]).unwrap();
        assert_eq!(b, 70);
        assert_eq!(c, 100);
        assert_eq!(core.now(), 100);
    }

    #[test]
    fn wrong_core_is_rejected() {
        let mut vec_core = CoreTimeline::new(CoreKind::Vector, 0);
        let err = vec_core.exec(EngineKind::Cube, 1, &[]).unwrap_err();
        assert!(matches!(err, SimError::WrongCore { .. }));
        let mut cube_core = CoreTimeline::new(CoreKind::Cube, 0);
        assert!(cube_core.exec(EngineKind::Vec, 1, &[]).is_err());
        assert!(cube_core.exec(EngineKind::Mte1, 1, &[]).is_ok());
    }

    #[test]
    fn align_to_advances_all_engines() {
        let mut core = CoreTimeline::new(CoreKind::Vector, 0);
        core.exec(EngineKind::Vec, 10, &[]).unwrap();
        core.align_to(1000);
        let a = core.exec(EngineKind::Vec, 1, &[]).unwrap();
        assert_eq!(a, 1001);
        // align_to never moves time backwards.
        core.align_to(50);
        let b = core.exec(EngineKind::Mte2, 1, &[]).unwrap();
        assert_eq!(b, 1001);
    }

    #[test]
    fn counters_accumulate() {
        let mut core = CoreTimeline::new(CoreKind::Vector, 0);
        core.exec(EngineKind::Vec, 10, &[]).unwrap();
        core.exec(EngineKind::Vec, 15, &[]).unwrap();
        core.exec(EngineKind::Mte2, 5, &[]).unwrap();
        assert_eq!(core.busy_cycles(EngineKind::Vec), 25);
        assert_eq!(core.instructions(EngineKind::Vec), 2);
        assert_eq!(core.busy_cycles(EngineKind::Mte2), 5);
    }

    #[test]
    fn stall_attribution_partitions_idle_time() {
        let mut core = CoreTimeline::new(CoreKind::Vector, 100);
        core.enable_recording();
        // Engine free at 100 but inputs ready at 150: dependency-wait.
        let a = core.exec(EngineKind::Vec, 10, &[150]).unwrap();
        assert_eq!(a, 160);
        assert_eq!(core.stalls().dependency[EngineKind::Vec.index()], 50);
        // Inputs ready at 120 while the engine is busy until 160: the
        // instruction queues for 40 cycles (contention, overlaps busy).
        let b = core.exec(EngineKind::Vec, 5, &[120]).unwrap();
        assert_eq!(b, 165);
        assert_eq!(core.stalls().contention[EngineKind::Vec.index()], 40);
        // Flag alignment: idle 165 -> 180 waiting on a cross-core flag.
        core.align_to_cause(180, StallCause::Flag);
        assert_eq!(core.stalls().flag[EngineKind::Vec.index()], 15);
        // Barrier alignment: idle 180 -> 200 is a barrier wait.
        core.align_to(200);
        assert_eq!(core.stalls().barrier[EngineKind::Vec.index()], 20);
        // The idle partition closes:
        // busy + dep + barrier + flag == now - origin.
        let busy = core.busy_cycles(EngineKind::Vec);
        assert_eq!(busy + 50 + 20 + 15, 200 - 100);
        // Recorded intervals carry their causes.
        let (_, stalls) = core.take_recorded();
        assert!(stalls.contains(&(EngineKind::Vec, StallCause::Dependency, 100, 150)));
        assert!(stalls.contains(&(EngineKind::Vec, StallCause::Flag, 165, 180)));
        assert!(stalls.contains(&(EngineKind::Vec, StallCause::Barrier, 180, 200)));
    }

    #[test]
    fn contention_is_bounded_by_wall_clock() {
        // Regression: a long stream of cheap scalar ops whose inputs are
        // all ready up front used to charge each instruction the *whole*
        // backlog ahead of it (`prev_free - ready`), summing to a
        // quadratic total four orders of magnitude above wall-clock
        // (136.9 G contention cycles in an 8.3 M-cycle kernel). Queued
        // intervals overlap, so merged they can never exceed the engine's
        // elapsed time since launch.
        let origin = 100u64;
        let mut core = CoreTimeline::new(CoreKind::Vector, origin);
        let n = 10_000u64;
        for _ in 0..n {
            // Inputs ready at the origin; every op queues behind the
            // engine's growing backlog.
            core.exec(EngineKind::Vec, 2, &[origin]).unwrap();
        }
        let contention = core.stalls().contention[EngineKind::Vec.index()];
        let elapsed = core.now() - origin;
        assert!(
            contention <= elapsed,
            "contention {contention} exceeds wall-clock {elapsed}"
        );
        // The backlog is real: all but the first op queued, so the merged
        // total is the elapsed time minus the last op's own execution.
        assert_eq!(contention, elapsed - 2);
    }

    #[test]
    fn contention_intervals_merge_across_engines_independently() {
        let mut core = CoreTimeline::new(CoreKind::Vector, 0);
        // Two engines each build a backlog; the marks are per-engine.
        for _ in 0..10 {
            core.exec(EngineKind::Vec, 5, &[0]).unwrap();
            core.exec(EngineKind::Mte2, 3, &[0]).unwrap();
        }
        let vec_c = core.stalls().contention[EngineKind::Vec.index()];
        let mte_c = core.stalls().contention[EngineKind::Mte2.index()];
        assert_eq!(vec_c, 45, "vec backlog: 9 queued ops over 45 cycles");
        assert_eq!(mte_c, 27, "mte backlog: 9 queued ops over 27 cycles");
    }

    #[test]
    fn stall_attribution_ignores_pre_origin_idle() {
        let mut core = CoreTimeline::new(CoreKind::Vector, 500);
        // A dependency earlier than the origin causes no dependency wait
        // and no contention: the core simply did not exist yet.
        core.exec(EngineKind::Vec, 10, &[100]).unwrap();
        assert_eq!(core.stalls().dependency[EngineKind::Vec.index()], 0);
        assert_eq!(core.stalls().contention[EngineKind::Vec.index()], 0);
    }

    #[test]
    fn barrier_waits_only_charged_to_present_engines() {
        let mut core = CoreTimeline::new(CoreKind::Vector, 0);
        core.align_to(100);
        // Vector cores have no CUBE engine: nothing charged there.
        assert_eq!(core.stalls().barrier[EngineKind::Cube.index()], 0);
        assert_eq!(core.stalls().barrier[EngineKind::Vec.index()], 100);
        assert_eq!(core.stalls().barrier[EngineKind::Mte2.index()], 100);
    }

    #[test]
    fn starts_at_nonzero_origin() {
        let mut core = CoreTimeline::new(CoreKind::Vector, 500);
        let a = core.exec(EngineKind::Vec, 10, &[]).unwrap();
        assert_eq!(a, 510);
        // A dependency earlier than the origin has no effect.
        let b = core.exec(EngineKind::Mte2, 10, &[100]).unwrap();
        assert_eq!(b, 510);
    }
}
