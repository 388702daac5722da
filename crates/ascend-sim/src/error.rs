//! Error types for the simulator.

use std::fmt;

/// Result alias used throughout the simulator and kernel layers.
pub type SimResult<T> = Result<T, SimError>;

/// Errors raised by the simulator.
///
/// These correspond to conditions that on real hardware would be compile
/// errors, runtime aborts, or silent corruption; the simulator turns all
/// of them into explicit errors so kernels can be tested for resource
/// safety (scratchpad budgets, queue protocol, bounds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A local-buffer allocation exceeded the scratchpad capacity.
    ScratchpadOverflow {
        /// Which scratchpad (e.g. "UB", "L0A").
        buffer: &'static str,
        /// Bytes requested by the failing allocation.
        requested: usize,
        /// Bytes already in use.
        in_use: usize,
        /// Scratchpad capacity in bytes.
        capacity: usize,
    },
    /// A global-memory access fell outside its tensor region.
    OutOfBounds {
        /// Description of the access.
        what: &'static str,
        /// First byte offset of the access.
        offset: usize,
        /// Length of the access in bytes.
        len: usize,
        /// Size of the containing region in bytes.
        region: usize,
    },
    /// Global-memory allocation exceeded the configured HBM capacity.
    GlobalMemoryExhausted {
        /// Bytes requested.
        requested: usize,
        /// Bytes available.
        available: usize,
    },
    /// A freed local buffer was used or freed again (simcheck).
    ScratchpadUseAfterFree {
        /// Which scratchpad (e.g. "UB", "L0A").
        buffer: &'static str,
        /// The instruction or operation that touched the stale buffer.
        what: &'static str,
    },
    /// A stale local buffer's address range is now owned by a live
    /// allocation: two tiles overlap in the same scratchpad (simcheck).
    ScratchpadOverlap {
        /// Which scratchpad (e.g. "UB", "L0A").
        buffer: &'static str,
        /// The instruction or operation that touched the stale buffer.
        what: &'static str,
    },
    /// A local buffer owned by one core's scratchpad was used or freed
    /// by a different core without going through a queue handoff
    /// (simcheck). Scratchpads are private per core on real hardware;
    /// such an access reads unrelated memory silently.
    CrossCoreScratchpad {
        /// The instruction or operation that performed the foreign use.
        what: &'static str,
        /// Unique id of the core that owns the buffer.
        owner: u64,
        /// Unique id of the core that used it.
        user: u64,
    },
    /// A queue was drained past its contents: `deque` before any
    /// `enque`, a double-`deque`, or `alloc_tensor` on an empty pool.
    QueueUnderflow {
        /// The operation that underflowed ("deque" or "alloc_tensor").
        op: &'static str,
    },
    /// More tensors were enqueued than the queue's depth allows.
    QueueOverflow {
        /// The queue's configured depth.
        depth: usize,
    },
    /// A queue was destroyed while buffers were still checked out or
    /// enqueued.
    QueueDestroyLive {
        /// Number of buffers not returned to the pool.
        in_flight: usize,
    },
    /// Queue protocol violation not covered by a dedicated variant
    /// (e.g. enqueuing a tensor from a different scratchpad).
    QueueProtocol(&'static str),
    /// A post-launch audit found inconsistent timing or traffic
    /// accounting (simcheck).
    AccountingViolation {
        /// Which invariant failed.
        what: &'static str,
        /// Human-readable details of the mismatch.
        detail: String,
    },
    /// A `CrossCoreSetFlag`/`CrossCoreWaitFlag` used a flag id beyond the
    /// chip's flag register file (`ChipSpec::flag_id_limit`). Real
    /// silicon has a small fixed id space; an out-of-range id silently
    /// aliases another flag.
    FlagIdOutOfRange {
        /// The offending flag id.
        id: u32,
        /// The chip's flag-id limit (valid ids are `0..limit`).
        limit: u32,
    },
    /// The post-launch schedule analyzer (`simlint`, see the `hb`
    /// module) found an error-severity hazard: a cross-block GM data
    /// race, an unmatched flag wait, a flag id reused across barrier
    /// rounds, or a happens-before cycle.
    ScheduleHazard {
        /// The diagnostic code (e.g. "gm-race", "flag-reuse").
        what: &'static str,
        /// Human-readable details of the hazard.
        detail: String,
    },
    /// An instruction was given invalid arguments (shape mismatch etc.).
    InvalidArgument(String),
    /// An instruction was issued on a core that lacks the engine
    /// (e.g. `Mmad` on a vector core).
    WrongCore {
        /// The instruction name.
        instr: &'static str,
        /// The core kind the instruction ran on.
        core: &'static str,
    },
    /// A block's kernel closure panicked. The launch caught the panic,
    /// finished the block so its siblings could drain, and reports it
    /// here instead of unwinding through the scheduler.
    BlockPanicked {
        /// Index of the panicking block.
        block: u32,
        /// The panic message (`"<non-string panic payload>"` when the
        /// payload was neither a `&str` nor a `String`).
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ScratchpadOverflow {
                buffer,
                requested,
                in_use,
                capacity,
            } => write!(
                f,
                "scratchpad {buffer} overflow: requested {requested} B with {in_use}/{capacity} B in use"
            ),
            SimError::OutOfBounds {
                what,
                offset,
                len,
                region,
            } => write!(
                f,
                "{what}: access [{offset}, {}) outside region of {region} B",
                offset + len
            ),
            SimError::GlobalMemoryExhausted {
                requested,
                available,
            } => write!(
                f,
                "global memory exhausted: requested {requested} B, {available} B available"
            ),
            SimError::ScratchpadUseAfterFree { buffer, what } => {
                write!(f, "{what}: use of freed buffer in scratchpad {buffer}")
            }
            SimError::ScratchpadOverlap { buffer, what } => write!(
                f,
                "{what}: stale buffer overlaps a live allocation in scratchpad {buffer}"
            ),
            SimError::CrossCoreScratchpad { what, owner, user } => write!(
                f,
                "{what}: core {user} touched a local buffer owned by core {owner}'s scratchpad \
                 (cross-core scratchpads are not addressable; hand buffers over via a queue)"
            ),
            SimError::QueueUnderflow { op } => {
                write!(f, "queue underflow: {op} with no entries available")
            }
            SimError::QueueOverflow { depth } => {
                write!(f, "queue overflow: enque beyond depth {depth}")
            }
            SimError::QueueDestroyLive { in_flight } => {
                write!(f, "queue destroyed with {in_flight} buffer(s) still in flight")
            }
            SimError::QueueProtocol(msg) => write!(f, "queue protocol violation: {msg}"),
            SimError::AccountingViolation { what, detail } => {
                write!(f, "accounting violation ({what}): {detail}")
            }
            SimError::FlagIdOutOfRange { id, limit } => write!(
                f,
                "flag id {id} out of range: the chip has {limit} cross-core flag registers \
                 (valid ids are 0..{limit})"
            ),
            SimError::ScheduleHazard { what, detail } => {
                write!(f, "schedule hazard ({what}): {detail}")
            }
            SimError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            SimError::WrongCore { instr, core } => {
                write!(f, "instruction {instr} not available on a {core} core")
            }
            SimError::BlockPanicked { block, message } => {
                write!(f, "block {block} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SimError::ScratchpadOverflow {
            buffer: "UB",
            requested: 1024,
            in_use: 190_000,
            capacity: 196_608,
        };
        assert!(e.to_string().contains("UB"));
        assert!(e.to_string().contains("1024"));

        let e = SimError::OutOfBounds {
            what: "DataCopy",
            offset: 100,
            len: 28,
            region: 64,
        };
        assert!(e.to_string().contains("[100, 128)"));

        let e = SimError::WrongCore {
            instr: "Mmad",
            core: "vector",
        };
        assert!(e.to_string().contains("Mmad"));
    }

    #[test]
    fn simcheck_display_messages() {
        let e = SimError::ScratchpadUseAfterFree {
            buffer: "UB",
            what: "Adds",
        };
        assert!(e.to_string().contains("freed buffer"));
        assert!(e.to_string().contains("UB"));

        let e = SimError::ScratchpadOverlap {
            buffer: "L0A",
            what: "Mmad",
        };
        assert!(e.to_string().contains("overlaps"));

        let e = SimError::CrossCoreScratchpad {
            what: "Adds",
            owner: 3,
            user: 7,
        };
        assert!(e.to_string().contains("core 7"));
        assert!(e.to_string().contains("owned by core 3"));

        assert!(SimError::QueueUnderflow { op: "deque" }
            .to_string()
            .contains("underflow"));
        assert!(SimError::QueueOverflow { depth: 2 }
            .to_string()
            .contains("depth 2"));
        assert!(SimError::QueueDestroyLive { in_flight: 1 }
            .to_string()
            .contains("in flight"));
        let e = SimError::AccountingViolation {
            what: "bytes_read reconciliation",
            detail: "off by 4".into(),
        };
        assert!(e.to_string().contains("bytes_read"));

        let e = SimError::FlagIdOutOfRange { id: 17, limit: 16 };
        assert!(e.to_string().contains("flag id 17"));
        assert!(e.to_string().contains("0..16"));

        let e = SimError::ScheduleHazard {
            what: "gm-race",
            detail: "blocks 0 and 1 both write [0, 64)".into(),
        };
        assert!(e.to_string().contains("gm-race"));
        assert!(e.to_string().contains("blocks 0 and 1"));
    }
}
