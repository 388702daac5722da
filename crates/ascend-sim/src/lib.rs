//! A deterministic functional + timing simulator of the Huawei Ascend 910B
//! ("DaVinci") AI accelerator, built as the hardware substrate for the
//! parallel-scan reproduction.
//!
//! # What is simulated
//!
//! The 910B presents a grid of *AI cores*; each AI core contains one **AI
//! Cube (AIC) core** and two **AI Vector (AIV) cores**. Every core owns
//!
//! * a compute engine (cube matmul engine or SIMD vector engine),
//! * Memory Transfer Engines (MTE2 inbound, MTE3 outbound, and on the cube
//!   core MTE1 for L1→L0 moves and a FIXP path for L0C→GM),
//! * a scalar unit, and
//! * local scratchpads (UB on vector cores; L1/L0A/L0B/L0C on cube cores).
//!
//! Engines have separate instruction queues and run concurrently; data
//! dependencies between them are explicit (the AscendC queue model). The
//! simulator reproduces exactly this: every instruction is assigned a
//! deterministic cost by the [`chip::ChipSpec`] cost model, issues on its
//! engine's queue, and starts at `max(engine free, dependencies ready)`.
//! A kernel's simulated time is therefore the critical path through its
//! instruction dataflow graph, with two global corrections:
//!
//! * a **bandwidth bound**: between global barriers, the simulated clock
//!   can never run faster than (bytes moved to/from global memory) /
//!   (effective HBM or L2 bandwidth);
//! * a **launch overhead** per kernel.
//!
//! Blocks are driven by a deterministic [`Scheduler`] (see [`sync`])
//! with one gate: a block runs its next segment once the lower blocks it
//! depends on have parked. At stride 1 (`Serial`) that is every lower
//! block, so one block runs at a time; at the slot-count stride (the
//! default, `Parallel`) it is only the block's lower slot-mates, so
//! blocks run concurrently on host threads. Grid-flag operations commit
//! in block-index order either way, and both strides produce
//! byte-identical reports, so launches replay
//! byte-for-byte regardless of host thread scheduling and grids may
//! exceed both the host's cores and the chip's. Cross-block
//! synchronization (`SyncAll`) is built from priced
//! `CrossCoreSetFlag`/`CrossCoreWaitFlag` scalar instructions, so
//! barrier cost is modelled rather than absorbed.
//!
//! Every launch's happens-before events become one [`graph::LaunchGraph`],
//! built once and read by the schedule analyzers: [`hb`] (races, sync
//! coverage and leak lints), [`critpath`] (the makespan's critical path)
//! and [`mc`] (exhaustive model checking of the schedule space).
//!
//! Functional behaviour is exact: global memory is a real byte buffer and
//! every transfer/compute instruction also performs its actual data
//! movement/arithmetic, so kernels produce bit-accurate results that the
//! test-suite checks against reference implementations.
//!
//! # What is *not* simulated
//!
//! Instruction fetch, cache-line granularity, DRAM row effects, and the
//! scalar pipelines are abstracted into per-instruction issue overheads.
//! The model aims for faithful *relative* performance (who wins, where
//! crossovers fall), not cycle-exact absolute numbers.

#![forbid(unsafe_code)]

pub mod audit;
pub mod chip;
pub mod critpath;
pub mod engine;
pub mod error;
pub mod graph;
pub mod hb;
pub mod json;
pub mod mc;
pub mod mem;
pub mod prof;
pub mod report;
pub mod simcheck;
pub mod sync;
pub mod timeline;
pub mod trace;

pub use chip::{ChipSpec, SchedPolicy};
pub use critpath::{CritInput, CritReport, CritSummary, PathSeg, SegClass, WhatIf};
pub use engine::EngineKind;
pub use error::{SimError, SimResult};
pub use graph::{Chan, LaunchGraph};
pub use hb::{DiagSite, Diagnostic, Severity};
pub use mc::{McConfig, McCoverage, McReport};
pub use mem::{GlobalMemory, Region};
pub use prof::{
    CounterEvent, KernelProfile, Profile, ProfileRecorder, SpanArgs, SpanId, SpanRecorder,
    StallCause, StallEvent, StallTally, TraceSpan,
};
pub use report::KernelReport;
pub use simcheck::{ScratchTracker, ValidationMode};
pub use sync::{FlagFile, GridPlan, Scheduler};
pub use timeline::{CoreKind, CoreTimeline, EventTime};
pub use trace::{HbAction, HbEvent, HbRecorder, TraceEvent};
