//! Chip specification and instruction cost model.
//!
//! All timing constants live here, in one place, so that the whole
//! reproduction can be re-calibrated by editing a single preset. The
//! calibration targets the published shape of the paper's figures (ratios
//! and crossovers), not cycle-exact Ascend silicon behaviour.

use crate::engine::EngineKind;
use crate::simcheck::ValidationMode;
use crate::sync::GridPlan;
use std::sync::Arc;

/// How a launch gates its blocks: the stride of the scheduler's one
/// segment gate and the grid-flag commit order (see `ascend_sim::sync`).
///
/// Every policy produces byte-identical reports for schedule-independent
/// kernels; pinning one per launch lets tests and equivalence gates
/// avoid racing on the process-global `ASCEND_SCHED` environment
/// variable.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Resolve from `ASCEND_SCHED` at launch time (the default).
    #[default]
    Env,
    /// Segment gate of stride 1: one block runs at a time, in ascending
    /// block index within each barrier round.
    Serial,
    /// Segment gate of stride = the slot count: slot-disjoint blocks run
    /// concurrently between sync edges.
    Parallel,
    /// Parallel segments with grid-flag commits pinned to a [`GridPlan`] —
    /// the model checker's replay hook (see `ascend_sim::mc`): the
    /// launch commits grid-flag operations in exactly the planned order
    /// so one specific explored interleaving can be re-executed on the
    /// real simulator and its report byte-compared.
    Planned(Arc<GridPlan>),
}

impl SchedPolicy {
    /// The concrete policy a launch runs under. [`SchedPolicy::Env`]
    /// reads `ASCEND_SCHED`: `serial` (or `baton`) selects `Serial`,
    /// anything else — including unset — `Parallel`. Every other policy
    /// resolves to itself.
    pub fn resolve(&self) -> SchedPolicy {
        match self {
            SchedPolicy::Env => match std::env::var("ASCEND_SCHED").as_deref() {
                Ok("serial") | Ok("baton") => SchedPolicy::Serial,
                _ => SchedPolicy::Parallel,
            },
            policy => policy.clone(),
        }
    }
}

/// Static description of an Ascend-like accelerator.
///
/// Use [`ChipSpec::ascend_910b4`] for the paper's evaluation platform or
/// [`ChipSpec::tiny`] for fast, deterministic unit tests.
#[derive(Clone, Debug, PartialEq)]
pub struct ChipSpec {
    /// Human-readable chip name.
    pub name: &'static str,
    /// Number of AI cores (each: 1 cube core + `vec_per_core` vector cores).
    pub ai_cores: u32,
    /// Vector (AIV) cores per AI core — 2 on the 910B series.
    pub vec_per_core: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,

    // ---- Global memory system ----
    /// Peak HBM bandwidth in bytes/second (800 GB/s on the 910B4).
    pub hbm_bytes_per_sec: f64,
    /// Fraction of peak HBM achievable by streaming kernels (DRAM
    /// efficiency; applied when the working set exceeds L2).
    pub hbm_efficiency: f64,
    /// L2 cache capacity in bytes.
    pub l2_capacity: usize,
    /// L2 bandwidth in bytes/second (applies when the working set fits).
    pub l2_bytes_per_sec: f64,
    /// Simulated global-memory (HBM) capacity in bytes.
    pub hbm_capacity: usize,

    // ---- Per-core transfer engines ----
    /// MTE throughput in bytes per cycle per engine (GM<->local, L1->L0).
    pub mte_bytes_per_cycle: u32,
    /// Fixed startup cost of one DataCopy instruction, in cycles.
    pub mte_startup_cycles: u32,
    /// Global-memory access granularity in bytes: a strided DataCopy
    /// whose rows are shorter than this still moves (and is charged for)
    /// one full line per row — why gather-style access patterns waste
    /// bandwidth and the paper's recomputation strategy avoids them.
    pub gm_line_bytes: u32,

    // ---- Vector engine ----
    /// Vector engine throughput in bytes per cycle (256 B = 128 fp16 lanes).
    pub vec_bytes_per_cycle: u32,
    /// Fixed issue overhead of one vector instruction, in cycles.
    pub vec_issue_cycles: u32,
    /// Extra latency of reduction-style instructions (tree across lanes).
    pub vec_reduce_extra_cycles: u32,
    /// Latency for the scalar unit to observe a value produced by the
    /// vector engine (vector->scalar hazard), in cycles. This is what the
    /// `partial <- last entry` step of the scan algorithms pays per tile.
    pub scalar_extract_cycles: u32,
    /// Cost of one scalar-unit operation, in cycles.
    pub scalar_op_cycles: u32,

    // ---- Cube engine ----
    /// fp16 multiply-accumulates per cycle (16x16x16 = 4096 on DaVinci).
    pub cube_macs_per_cycle_fp16: u32,
    /// Fixed startup cost of one Mmad instruction, in cycles.
    pub cube_startup_cycles: u32,

    // ---- Scratchpad capacities (bytes) ----
    /// Unified Buffer on each vector core.
    pub ub_capacity: usize,
    /// L1 buffer on each cube core.
    pub l1_capacity: usize,
    /// L0A (left matrix) buffer on each cube core.
    pub l0a_capacity: usize,
    /// L0B (right matrix) buffer on each cube core.
    pub l0b_capacity: usize,
    /// L0C (accumulator) buffer on each cube core.
    pub l0c_capacity: usize,

    // ---- Kernel-level overheads ----
    /// Cycles charged once per kernel launch (device-side setup).
    pub launch_cycles: u64,
    /// Release latency of a `SyncAll` global barrier, charged after the
    /// last participant's arrival flag lands (the barrier itself is built
    /// from `CrossCoreSetFlag`/`CrossCoreWaitFlag` pairs, priced below).
    pub sync_all_cycles: u64,
    /// Cycles a `CrossCoreSetFlag` occupies the issuing core's scalar
    /// pipe: the preceding pipes are drained and the flag write must be
    /// made visible to the peer core.
    pub flag_set_cycles: u64,
    /// Fixed issue cost of a `CrossCoreWaitFlag` on the waiting core's
    /// scalar pipe. Cycles spent blocked beyond this until the producer's
    /// set lands are attributed separately as `wait:flag` stall time.
    pub flag_wait_cycles: u64,
    /// Number of cross-core flag ids per block. Real silicon exposes a
    /// small fixed flag register file; `CrossCoreSetFlag`/`WaitFlag` with
    /// `id >= flag_id_limit` is rejected with
    /// [`SimError::FlagIdOutOfRange`](crate::SimError::FlagIdOutOfRange).
    pub flag_id_limit: u32,

    // ---- Validation ----
    /// How much runtime sanitizer checking (`simcheck`) the simulator
    /// performs. Purely observational: never affects simulated timing.
    pub validation: ValidationMode,

    // ---- Host execution ----
    /// Which scheduler gating discipline launches use. Purely a host
    /// execution choice: never affects simulated timing or reports.
    pub scheduler: SchedPolicy,
}

impl ChipSpec {
    /// The Ascend 910B4 used in the paper's evaluation: 20 AI cores with a
    /// 2:1 vector-to-cube core ratio and 800 GB/s of HBM.
    pub fn ascend_910b4() -> Self {
        ChipSpec {
            name: "Ascend 910B4",
            ai_cores: 20,
            vec_per_core: 2,
            clock_ghz: 1.8,

            hbm_bytes_per_sec: 800e9,
            hbm_efficiency: 0.90,
            l2_capacity: 192 << 20,
            l2_bytes_per_sec: 1000e9,
            hbm_capacity: 8 << 30,

            mte_bytes_per_cycle: 128,
            mte_startup_cycles: 64,
            gm_line_bytes: 256,

            vec_bytes_per_cycle: 256,
            vec_issue_cycles: 16,
            vec_reduce_extra_cycles: 24,
            scalar_extract_cycles: 32,
            scalar_op_cycles: 2,

            cube_macs_per_cycle_fp16: 4096,
            cube_startup_cycles: 64,

            ub_capacity: 192 << 10,
            l1_capacity: 512 << 10,
            l0a_capacity: 64 << 10,
            l0b_capacity: 64 << 10,
            l0c_capacity: 128 << 10,

            launch_cycles: 9_000,   // ~5 us device-side launch
            sync_all_cycles: 2_700, // ~1.5 us barrier release latency
            flag_set_cycles: 180,   // ~100 ns pipe drain + flag publish
            flag_wait_cycles: 540,  // ~300 ns cross-core flag observation
            flag_id_limit: 16,      // hardware cross-core flag registers

            validation: ValidationMode::Full,
            scheduler: SchedPolicy::Env,
        }
    }

    /// A small fictional chip for unit tests: 2 AI cores, tiny scratchpads,
    /// trivial overheads. Keeps tests fast and makes capacity-overflow
    /// conditions easy to trigger.
    pub fn tiny() -> Self {
        ChipSpec {
            name: "tiny-test-chip",
            ai_cores: 2,
            vec_per_core: 2,
            clock_ghz: 1.0,

            hbm_bytes_per_sec: 100e9,
            hbm_efficiency: 1.0,
            l2_capacity: 1 << 20,
            l2_bytes_per_sec: 200e9,
            hbm_capacity: 64 << 20,

            mte_bytes_per_cycle: 64,
            mte_startup_cycles: 8,
            gm_line_bytes: 32,

            vec_bytes_per_cycle: 64,
            vec_issue_cycles: 4,
            vec_reduce_extra_cycles: 4,
            scalar_extract_cycles: 8,
            scalar_op_cycles: 1,

            cube_macs_per_cycle_fp16: 512,
            cube_startup_cycles: 8,

            ub_capacity: 16 << 10,
            l1_capacity: 32 << 10,
            l0a_capacity: 4 << 10,
            l0b_capacity: 4 << 10,
            l0c_capacity: 8 << 10,

            launch_cycles: 100,
            sync_all_cycles: 50,
            flag_set_cycles: 6,
            flag_wait_cycles: 18,
            flag_id_limit: 8,

            validation: ValidationMode::Full,
            scheduler: SchedPolicy::Env,
        }
    }

    /// Returns the spec with a different [`ValidationMode`] — how
    /// benchmarks opt out of the sanitizer overhead
    /// (`ChipSpec::ascend_910b4().with_validation(ValidationMode::Cheap)`).
    pub fn with_validation(mut self, validation: ValidationMode) -> Self {
        self.validation = validation;
        self
    }

    /// Returns the spec with a different [`SchedPolicy`] — how tests pin
    /// a launch to one scheduler without racing on the process-global
    /// `ASCEND_SCHED` variable
    /// (`ChipSpec::tiny().with_scheduler(SchedPolicy::Serial)`).
    pub fn with_scheduler(mut self, scheduler: SchedPolicy) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Total number of vector cores on the chip.
    #[inline]
    pub fn total_vec_cores(&self) -> u32 {
        self.ai_cores * self.vec_per_core
    }

    /// Cycles per second.
    #[inline]
    pub fn cycles_per_sec(&self) -> f64 {
        self.clock_ghz * 1e9
    }

    /// Converts simulated cycles to seconds.
    #[inline]
    pub fn cycles_to_secs(&self, cycles: u64) -> f64 {
        cycles as f64 / self.cycles_per_sec()
    }

    /// Converts a duration in seconds to (rounded-up) cycles.
    #[inline]
    pub fn secs_to_cycles(&self, secs: f64) -> u64 {
        (secs * self.cycles_per_sec()).ceil() as u64
    }

    /// Effective global-memory bandwidth in bytes/second for a kernel with
    /// the given working-set size: L2 bandwidth when the set fits in L2,
    /// otherwise DRAM bandwidth derated by the streaming efficiency.
    pub fn effective_gm_bandwidth(&self, working_set: usize) -> f64 {
        if working_set <= self.l2_capacity {
            self.l2_bytes_per_sec
        } else {
            self.hbm_bytes_per_sec * self.hbm_efficiency
        }
    }

    /// Minimum cycles needed to move `bytes` to/from global memory given
    /// the working-set size (the per-segment bandwidth bound).
    pub fn gm_bound_cycles(&self, bytes: u64, working_set: usize) -> u64 {
        let bw = self.effective_gm_bandwidth(working_set);
        self.secs_to_cycles(bytes as f64 / bw)
    }

    // ---- Instruction cost model ----

    /// Cost of a DataCopy moving `bytes` on an MTE engine.
    pub fn cost_datacopy(&self, bytes: usize) -> u64 {
        u64::from(self.mte_startup_cycles)
            + (bytes as u64).div_ceil(u64::from(self.mte_bytes_per_cycle))
    }

    /// Bytes a strided DataCopy actually moves for one row of
    /// `row_bytes`: at least one full GM line.
    pub fn strided_row_bytes(&self, row_bytes: usize) -> usize {
        row_bytes.max(self.gm_line_bytes as usize)
    }

    /// Cost of a strided DataCopy moving `rows` rows of `row_bytes` each
    /// (each row pays line-granularity bandwidth).
    pub fn cost_datacopy_strided(&self, rows: usize, row_bytes: usize) -> u64 {
        u64::from(self.mte_startup_cycles)
            + ((rows * self.strided_row_bytes(row_bytes)) as u64)
                .div_ceil(u64::from(self.mte_bytes_per_cycle))
    }

    /// Cost of an element-wise vector instruction over `bytes` of data.
    pub fn cost_vector_op(&self, bytes: usize) -> u64 {
        u64::from(self.vec_issue_cycles)
            + (bytes as u64).div_ceil(u64::from(self.vec_bytes_per_cycle))
    }

    /// Cost of a reduction-style vector instruction over `bytes` of data
    /// (ReduceSum, ReduceMax, whole-block GatherMask bookkeeping).
    pub fn cost_vector_reduce(&self, bytes: usize) -> u64 {
        self.cost_vector_op(bytes) + u64::from(self.vec_reduce_extra_cycles)
    }

    /// Cost of an `m x k @ k x n` matrix multiplication on the cube engine.
    ///
    /// `rate_x4` is the data type's throughput multiplier relative to
    /// fp16 in quarter-rate units (fp16 = 4, int8 = 8, fp32 = 1 on the
    /// 910B cube).
    pub fn cost_mmad(&self, m: usize, k: usize, n: usize, rate_x4: u32) -> u64 {
        // The cube engine processes 16x16x16 fp16 fractal tiles per cycle.
        let fractals = (m.div_ceil(16) * k.div_ceil(16) * n.div_ceil(16)) as u64;
        let macs = fractals * 4096 * 4;
        let macs_per_cycle = u64::from(self.cube_macs_per_cycle_fp16) * u64::from(rate_x4);
        u64::from(self.cube_startup_cycles) + macs.div_ceil(macs_per_cycle.max(1))
    }

    /// Cost of a scalar-unit operation.
    pub fn cost_scalar_op(&self) -> u64 {
        u64::from(self.scalar_op_cycles)
    }

    /// Cost of moving one value from the vector engine's domain into the
    /// scalar unit (the `partial <- last entry of y_s` hazard).
    pub fn cost_scalar_extract(&self) -> u64 {
        u64::from(self.scalar_extract_cycles)
    }

    /// Scratchpad capacity in bytes for the given engine-visible buffer.
    pub fn scratchpad_capacity(&self, buffer: ScratchpadKind) -> usize {
        match buffer {
            ScratchpadKind::Ub => self.ub_capacity,
            ScratchpadKind::L1 => self.l1_capacity,
            ScratchpadKind::L0A => self.l0a_capacity,
            ScratchpadKind::L0B => self.l0b_capacity,
            ScratchpadKind::L0C => self.l0c_capacity,
        }
    }

    /// Engines present on a cube (AIC) core.
    pub fn cube_core_engines() -> &'static [EngineKind] {
        &[
            EngineKind::Mte2,
            EngineKind::Mte1,
            EngineKind::Mte3,
            EngineKind::Fixp,
            EngineKind::Cube,
            EngineKind::Scalar,
        ]
    }

    /// Engines present on a vector (AIV) core.
    pub fn vec_core_engines() -> &'static [EngineKind] {
        &[
            EngineKind::Mte2,
            EngineKind::Mte3,
            EngineKind::Vec,
            EngineKind::Scalar,
        ]
    }

    /// Number of cores in a `blocks`-block launch that carry `engine`
    /// (cube and vector cores have different engine sets; each block has
    /// one cube core plus `vec_per_core` vector cores).
    pub fn cores_with_engine(&self, blocks: u32, engine: EngineKind) -> u64 {
        let on_cube = u64::from(Self::cube_core_engines().contains(&engine));
        let on_vec = u64::from(Self::vec_core_engines().contains(&engine));
        u64::from(blocks) * (on_cube + on_vec * u64::from(self.vec_per_core))
    }
}

/// The local scratchpad buffers of the DaVinci memory hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScratchpadKind {
    /// Unified Buffer (vector cores).
    Ub,
    /// L1 staging buffer (cube cores).
    L1,
    /// L0A: left matrix operand buffer (cube cores).
    L0A,
    /// L0B: right matrix operand buffer (cube cores).
    L0B,
    /// L0C: accumulator/output buffer (cube cores).
    L0C,
}

impl ScratchpadKind {
    /// The buffer's conventional name.
    pub const fn name(self) -> &'static str {
        match self {
            ScratchpadKind::Ub => "UB",
            ScratchpadKind::L1 => "L1",
            ScratchpadKind::L0A => "L0A",
            ScratchpadKind::L0B => "L0B",
            ScratchpadKind::L0C => "L0C",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let b4 = ChipSpec::ascend_910b4();
        assert_eq!(b4.ai_cores, 20);
        assert_eq!(b4.total_vec_cores(), 40);
        assert_eq!(b4.cycles_per_sec(), 1.8e9);
        let tiny = ChipSpec::tiny();
        assert_eq!(tiny.total_vec_cores(), 4);
    }

    #[test]
    fn cross_core_sync_is_priced_on_every_preset() {
        // The AIC<->AIV hand-off must have nonzero modelled cost: both
        // flag instructions and the barrier release latency.
        for spec in [ChipSpec::ascend_910b4(), ChipSpec::tiny()] {
            assert!(spec.flag_set_cycles > 0, "{}: free SetFlag", spec.name);
            assert!(spec.flag_wait_cycles > 0, "{}: free WaitFlag", spec.name);
            assert!(spec.sync_all_cycles > 0, "{}: free SyncAll", spec.name);
            assert!(spec.flag_id_limit > 0, "{}: no flag registers", spec.name);
        }
    }

    #[test]
    fn cycle_time_round_trip() {
        let spec = ChipSpec::ascend_910b4();
        let secs = spec.cycles_to_secs(1_800_000);
        assert!((secs - 1e-3).abs() < 1e-12);
        assert_eq!(spec.secs_to_cycles(1e-3), 1_800_000);
    }

    #[test]
    fn datacopy_cost_scales_with_bytes() {
        let spec = ChipSpec::ascend_910b4();
        let small = spec.cost_datacopy(128);
        let large = spec.cost_datacopy(128 * 1024);
        assert_eq!(small, 64 + 1);
        assert_eq!(large, 64 + 1024);
        assert!(large > small);
    }

    #[test]
    fn mmad_cost_128_cube() {
        let spec = ChipSpec::ascend_910b4();
        // 128x128x128 fp16 = 8*8*8 = 512 fractal tiles at 1/cycle.
        assert_eq!(spec.cost_mmad(128, 128, 128, 4), 64 + 512);
        // int8 runs at double rate, fp32 at quarter rate.
        assert_eq!(spec.cost_mmad(128, 128, 128, 8), 64 + 256);
        assert_eq!(spec.cost_mmad(128, 128, 128, 1), 64 + 2048);
        // Sizes round up to 16.
        assert_eq!(spec.cost_mmad(1, 1, 1, 4), 64 + 1);
    }

    #[test]
    fn effective_bandwidth_l2_vs_hbm() {
        let spec = ChipSpec::ascend_910b4();
        let in_l2 = spec.effective_gm_bandwidth(1 << 20);
        let in_hbm = spec.effective_gm_bandwidth(1 << 30);
        assert_eq!(in_l2, 1000e9);
        assert_eq!(in_hbm, 800e9 * 0.90);
    }

    #[test]
    fn gm_bound_cycles_matches_bandwidth() {
        let spec = ChipSpec::ascend_910b4();
        // 720 GB at 720 GB/s = 1 s = 1.8e9 cycles.
        let cycles = spec.gm_bound_cycles(720_000_000_000, usize::MAX);
        assert_eq!(cycles, 1_800_000_000);
    }

    #[test]
    fn scratchpad_capacities() {
        let spec = ChipSpec::ascend_910b4();
        assert_eq!(spec.scratchpad_capacity(ScratchpadKind::Ub), 192 << 10);
        assert_eq!(spec.scratchpad_capacity(ScratchpadKind::L0A), 64 << 10);
        assert_eq!(ScratchpadKind::L0C.name(), "L0C");
    }

    #[test]
    fn core_engine_lists() {
        assert!(ChipSpec::cube_core_engines().contains(&EngineKind::Cube));
        assert!(!ChipSpec::vec_core_engines().contains(&EngineKind::Cube));
        assert!(ChipSpec::vec_core_engines().contains(&EngineKind::Vec));
    }
}
