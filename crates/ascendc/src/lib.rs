//! A Rust embedding of the **AscendC** programming model on top of the
//! [`ascend_sim`] simulator.
//!
//! AscendC is Huawei's pipeline-based kernel programming model for the
//! Ascend accelerators. Kernels manipulate *tensors* — [`GlobalTensor`]
//! wraps a buffer in global memory, [`LocalTensor`] wraps a buffer in a
//! core's scratchpad — and move data between them with explicit MTE
//! transfers. Data dependencies between hardware engines are expressed
//! with *queues* ([`TQue`]): a producer `enque`s a tensor after writing
//! it, a consumer `deque`s it before reading, and freeing a tensor
//! returns its buffer slot to the pool (a depth-2 queue is double
//! buffering).
//!
//! One kernel *block* maps to one AI core: a cube core plus (on the 910B)
//! two vector cores, exposed through [`BlockCtx`]. Kernel code is an
//! ordinary Rust closure run once per block; every intrinsic both
//! performs its real data movement/arithmetic and advances the simulated
//! timeline of the engine it runs on. [`launch`] drives all blocks as
//! cooperative tasks under the deterministic event-driven scheduler
//! (grids may exceed both the chip's AI cores and the host's — excess
//! blocks wave-multiplex onto physical core slots), prices every
//! [`BlockCtx::sync_all`] barrier from `CrossCoreSetFlag`/
//! `CrossCoreWaitFlag` instructions plus the global bandwidth bound, and
//! returns an [`ascend_sim::KernelReport`].

#![forbid(unsafe_code)]

pub mod block;
pub mod core;
pub mod queue;
pub mod tensor;
pub mod vecops;

pub use crate::core::{CmpMode, Core};
pub use block::{launch, BlockCtx};
pub use queue::TQue;
pub use tensor::{GlobalTensor, LocalTensor};
pub use vecops::Bits;

pub use ascend_sim::chip::ScratchpadKind;
pub use ascend_sim::{
    ChipSpec, EventTime, FlagFile, KernelProfile, KernelReport, Profile, SimError, SimResult,
    SpanArgs, SpanId, StallCause, StallTally,
};
