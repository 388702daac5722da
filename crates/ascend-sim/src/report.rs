//! Kernel execution reports.

use crate::chip::ChipSpec;
use crate::critpath::CritSummary;
use crate::engine::EngineKind;
use crate::json::Json;
use crate::prof::StallTally;

/// Result of simulating one kernel launch: the corrected simulated time
/// plus traffic and occupancy statistics.
///
/// Bandwidth figures follow the paper's convention: the *operator*
/// bandwidth divides the operator's useful bytes (its input size plus its
/// output size, `useful_bytes`) by the simulated time, while
/// `traffic_gbps` divides the bytes the kernel actually moved (which can
/// be larger — e.g. MCScan touches ≈5·N bytes to produce 2·N useful ones).
///
/// Traffic is further attributed between DRAM and L2: when the kernel's
/// GM footprint (`working_set`) fits in L2, repeated accesses to the
/// same bytes are L2 re-reads, not DRAM transactions, so the modeled
/// DRAM rate ([`KernelReport::dram_traffic_gbps`]) is bounded by both
/// the footprint and the chip's HBM peak; the remainder is reported as
/// L2-served bandwidth ([`KernelReport::l2_traffic_gbps`]).
#[derive(Clone, Debug)]
pub struct KernelReport {
    /// Kernel name (for harness output).
    pub name: String,
    /// Number of blocks launched.
    pub blocks: u32,
    /// Corrected end-to-end simulated cycles (including launch overhead).
    pub cycles: u64,
    /// Core clock in GHz (copied from the spec for unit conversions).
    pub clock_ghz: f64,
    /// Device bytes read from global memory.
    pub bytes_read: u64,
    /// Device bytes written to global memory.
    pub bytes_written: u64,
    /// The operator's useful bytes (input + output), set by the caller.
    pub useful_bytes: u64,
    /// The operator's element count, set by the caller.
    pub elements: u64,
    /// High-water GM footprint in bytes (distinct device memory touched),
    /// used to attribute traffic between DRAM and L2.
    pub working_set: u64,
    /// Total busy cycles per engine kind, summed over all cores.
    pub engine_busy: [u64; EngineKind::ALL.len()],
    /// Total instructions per engine kind, summed over all cores.
    pub engine_instructions: [u64; EngineKind::ALL.len()],
    /// Number of global barriers executed.
    pub sync_rounds: u64,
    /// Attributed stall cycles per engine kind, summed over all cores:
    /// dependency-wait, barrier-wait and flag-wait partition the idle
    /// time (`busy + dependency + barrier + flag = cores × (cycles −
    /// launch)`), while contention measures queueing delay overlapping
    /// busy time.
    pub stalls: StallTally,
    /// Cycles blocks collectively idled at each barrier round (one entry
    /// per `SyncAll` plus a final entry for the kernel-end alignment, so
    /// `barrier_waits.len() == sync_rounds + 1` for launched kernels).
    pub barrier_waits: Vec<u64>,
    /// Cycles blocks collectively idled per round waiting for the last
    /// peer's `CrossCoreSetFlag` to land (the arrival-skew share of each
    /// `SyncAll`), parallel to `barrier_waits`. The kernel-end entry is
    /// always zero.
    pub flag_waits: Vec<u64>,
    /// Critical-path attribution and what-ifs (see
    /// [`crate::critpath`]), populated on Full-validation launches;
    /// `None` for unaudited launches and [`KernelReport::sequential`]
    /// merges (a critical path does not compose across launches).
    pub critical_path: Option<CritSummary>,
}

impl KernelReport {
    /// Simulated wall-clock seconds.
    pub fn time_s(&self) -> f64 {
        self.cycles as f64 / (self.clock_ghz * 1e9)
    }

    /// Simulated time in microseconds.
    pub fn time_us(&self) -> f64 {
        self.time_s() * 1e6
    }

    /// Simulated time in milliseconds.
    pub fn time_ms(&self) -> f64 {
        self.time_s() * 1e3
    }

    /// Operator bandwidth in GB/s (useful bytes / time) — the paper's
    /// reporting convention.
    ///
    /// Debug-asserts that `useful_bytes` and `cycles` are non-zero:
    /// [`KernelReport::sequential`] leaves `useful_bytes` at zero for the
    /// caller to fill in, and a silent `0.0` here has historically hidden
    /// that omission.
    pub fn gbps(&self) -> f64 {
        debug_assert!(
            self.useful_bytes > 0,
            "gbps() on report '{}' with useful_bytes == 0 (sequential() leaves it for the caller)",
            self.name
        );
        debug_assert!(
            self.cycles > 0,
            "gbps() on report '{}' with zero cycles",
            self.name
        );
        self.useful_bytes as f64 / self.time_s() / 1e9
    }

    /// Achieved raw traffic bandwidth in GB/s (bytes actually moved,
    /// regardless of whether they were served by DRAM or L2).
    pub fn traffic_gbps(&self) -> f64 {
        (self.bytes_read + self.bytes_written) as f64 / self.time_s() / 1e9
    }

    /// Bytes that actually crossed the DRAM (HBM) bus. When the GM
    /// footprint fits in L2, each resident byte crosses DRAM at most
    /// twice (initial fill + final writeback) and everything else is an
    /// L2 re-read; otherwise the whole stream is DRAM traffic.
    pub fn dram_bytes(&self, spec: &ChipSpec) -> u64 {
        let total = self.bytes_read + self.bytes_written;
        if self.working_set > 0 && self.working_set <= spec.l2_capacity as u64 {
            total.min(2 * self.working_set)
        } else {
            total
        }
    }

    /// Modeled DRAM bandwidth in GB/s: [`KernelReport::dram_bytes`] over
    /// the simulated time, clamped to the chip's HBM peak — modeled DRAM
    /// traffic can never exceed what the memory system can deliver.
    pub fn dram_traffic_gbps(&self, spec: &ChipSpec) -> f64 {
        let rate = self.dram_bytes(spec) as f64 / self.time_s() / 1e9;
        rate.min(spec.hbm_bytes_per_sec / 1e9)
    }

    /// Bandwidth served out of L2 in GB/s: the raw traffic rate minus
    /// the DRAM-attributed rate. Nonzero only for L2-resident kernels,
    /// which is how an L2-resident kernel can legitimately sustain more
    /// than the HBM peak end to end.
    pub fn l2_traffic_gbps(&self, spec: &ChipSpec) -> f64 {
        (self.traffic_gbps() - self.dram_traffic_gbps(spec)).max(0.0)
    }

    /// Throughput in giga-elements per second (Fig. 9's unit).
    ///
    /// Debug-asserts that `elements` and `cycles` are non-zero — see
    /// [`KernelReport::gbps`].
    pub fn gelems(&self) -> f64 {
        debug_assert!(
            self.elements > 0,
            "gelems() on report '{}' with elements == 0 (sequential() leaves it for the caller)",
            self.name
        );
        debug_assert!(
            self.cycles > 0,
            "gelems() on report '{}' with zero cycles",
            self.name
        );
        self.elements as f64 / self.time_s() / 1e9
    }

    /// Utilization of an engine kind across `cores` cores: busy cycles
    /// divided by (cores × total cycles).
    pub fn utilization(&self, engine: EngineKind, cores: u32) -> f64 {
        if self.cycles == 0 || cores == 0 {
            return 0.0;
        }
        self.engine_busy[engine.index()] as f64 / (self.cycles as f64 * f64::from(cores))
    }

    /// Fraction of the chip's theoretical peak memory bandwidth achieved
    /// by the operator (the paper's "37.5% of theoretical bandwidth").
    pub fn fraction_of_peak(&self, spec: &ChipSpec) -> f64 {
        self.gbps() * 1e9 / spec.hbm_bytes_per_sec
    }

    /// Combines reports of kernels launched back to back into one
    /// operator-level report: cycles and traffic add up; `useful_bytes`
    /// and `elements` are left for the caller's I/O convention.
    pub fn sequential(name: &str, parts: &[KernelReport]) -> KernelReport {
        // Cannot fire: every caller (top-p's two launches, the
        // alias-table build, the PyTorch top-p model and the
        // `llm_sampling` example) passes a fixed, non-empty list of
        // reports.
        assert!(!parts.is_empty(), "sequential needs at least one report");
        let mut engine_busy = [0u64; EngineKind::ALL.len()];
        let mut engine_instructions = [0u64; EngineKind::ALL.len()];
        let mut stalls = StallTally::default();
        let mut barrier_waits = Vec::new();
        let mut flag_waits = Vec::new();
        for p in parts {
            for i in 0..EngineKind::ALL.len() {
                engine_busy[i] += p.engine_busy[i];
                engine_instructions[i] += p.engine_instructions[i];
            }
            stalls.absorb(&p.stalls);
            barrier_waits.extend_from_slice(&p.barrier_waits);
            flag_waits.extend_from_slice(&p.flag_waits);
        }
        KernelReport {
            name: name.to_string(),
            blocks: parts.iter().map(|p| p.blocks).max().unwrap_or(0),
            cycles: parts.iter().map(|p| p.cycles).sum(),
            clock_ghz: parts[0].clock_ghz,
            bytes_read: parts.iter().map(|p| p.bytes_read).sum(),
            bytes_written: parts.iter().map(|p| p.bytes_written).sum(),
            useful_bytes: 0,
            elements: 0,
            working_set: parts.iter().map(|p| p.working_set).max().unwrap_or(0),
            engine_busy,
            engine_instructions,
            sync_rounds: parts.iter().map(|p| p.sync_rounds).sum(),
            stalls,
            barrier_waits,
            flag_waits,
            critical_path: None,
        }
    }

    /// Renders the report as one JSON object with a stable schema
    /// (`bench-scan/v4`): identification (`name`, `blocks`), totals
    /// (`cycles`, `time_us`, traffic and byte counters, `working_set`,
    /// `sync_rounds`, `barrier_wait_cycles`, `flag_wait_cycles`),
    /// derived rates (`gbps`, `traffic_gbps` — DRAM-attributed and
    /// clamped to the HBM peak — `l2_traffic_gbps`, `gelems`,
    /// `fraction_of_peak` — `0.0` when the underlying denominator is
    /// zero), a per-engine map `engines` keyed by engine name with
    /// `busy_cycles`, `instructions`, `utilization`, and the stall
    /// breakdown (`stall_dependency`, `stall_contention`,
    /// `stall_barrier`, `stall_flag`), and — when the launch was
    /// audited — a `critical_path` object ([`CritSummary::to_json`]:
    /// class attribution summing to the makespan, share fractions,
    /// phases, and the what-if table).
    pub fn to_json(&self, spec: &ChipSpec) -> String {
        self.to_json_value(spec).to_string()
    }

    /// [`KernelReport::to_json`] as a [`Json`] tree, for embedding in a
    /// larger document.
    pub fn to_json_value(&self, spec: &ChipSpec) -> Json {
        let has_time = self.cycles > 0;
        let gbps = if has_time && self.useful_bytes > 0 {
            self.gbps()
        } else {
            0.0
        };
        let traffic_gbps = if has_time {
            self.dram_traffic_gbps(spec)
        } else {
            0.0
        };
        let l2_traffic_gbps = if has_time {
            self.l2_traffic_gbps(spec)
        } else {
            0.0
        };
        let gelems = if has_time && self.elements > 0 {
            self.gelems()
        } else {
            0.0
        };
        let fraction_of_peak = gbps * 1e9 / spec.hbm_bytes_per_sec;
        let cycles_list = |v: &[u64]| Json::Arr(v.iter().map(|&w| w.into()).collect());
        let engines = EngineKind::ALL.iter().enumerate().map(|(i, e)| {
            let cores = spec.cores_with_engine(self.blocks, *e);
            let engine = Json::obj([
                ("busy_cycles", self.engine_busy[i].into()),
                ("instructions", self.engine_instructions[i].into()),
                (
                    "utilization",
                    Json::fixed(self.utilization(*e, cores as u32), 6),
                ),
                ("stall_dependency", self.stalls.dependency[i].into()),
                ("stall_contention", self.stalls.contention[i].into()),
                ("stall_barrier", self.stalls.barrier[i].into()),
                ("stall_flag", self.stalls.flag[i].into()),
            ]);
            (e.name(), engine)
        });
        let mut fields = vec![
            ("name", self.name.as_str().into()),
            ("blocks", self.blocks.into()),
            ("cycles", self.cycles.into()),
            ("time_us", Json::fixed(self.time_us(), 6)),
            ("gbps", Json::fixed(gbps, 6)),
            ("traffic_gbps", Json::fixed(traffic_gbps, 6)),
            ("l2_traffic_gbps", Json::fixed(l2_traffic_gbps, 6)),
            ("gelems", Json::fixed(gelems, 6)),
            ("fraction_of_peak", Json::fixed(fraction_of_peak, 6)),
            ("bytes_read", self.bytes_read.into()),
            ("bytes_written", self.bytes_written.into()),
            ("useful_bytes", self.useful_bytes.into()),
            ("elements", self.elements.into()),
            ("working_set", self.working_set.into()),
            ("sync_rounds", self.sync_rounds.into()),
            ("barrier_wait_cycles", cycles_list(&self.barrier_waits)),
            ("flag_wait_cycles", cycles_list(&self.flag_waits)),
            ("engines", Json::obj(engines)),
        ];
        if let Some(cp) = &self.critical_path {
            fields.push(("critical_path", cp.to_json()));
        }
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> KernelReport {
        KernelReport {
            name: "test".into(),
            blocks: 20,
            cycles: 1_800_000, // 1 ms at 1.8 GHz
            clock_ghz: 1.8,
            bytes_read: 3_000_000,
            bytes_written: 2_000_000,
            useful_bytes: 2_000_000,
            elements: 1_000_000,
            working_set: 2_500_000,
            engine_busy: [0, 0, 0, 0, 900_000, 0, 0],
            engine_instructions: [0; 7],
            sync_rounds: 1,
            stalls: StallTally::default(),
            barrier_waits: vec![100, 50],
            flag_waits: vec![30, 0],
            critical_path: None,
        }
    }

    #[test]
    fn time_conversions() {
        let r = report();
        assert!((r.time_s() - 1e-3).abs() < 1e-12);
        assert!((r.time_us() - 1000.0).abs() < 1e-6);
        assert!((r.time_ms() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_conventions() {
        let r = report();
        // Useful: 2 MB in 1 ms = 2 GB/s.
        assert!((r.gbps() - 2.0).abs() < 1e-9);
        // Traffic: 5 MB in 1 ms = 5 GB/s.
        assert!((r.traffic_gbps() - 5.0).abs() < 1e-9);
        // 1 M elements in 1 ms = 1e9 elems/s = 1 GElem/s.
        assert!((r.gelems() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dram_attribution_separates_l2_rereads() {
        let spec = ChipSpec::ascend_910b4();
        // A 1 MB footprint hammered for 1 GB of traffic in 1 ms: the raw
        // rate is 1000 GB/s, above the 800 GB/s HBM peak, but only the
        // fill + writeback of the footprint can be DRAM transactions.
        let mut r = report();
        r.working_set = 1_000_000;
        r.bytes_read = 900_000_000;
        r.bytes_written = 100_000_000;
        assert!((r.traffic_gbps() - 1000.0).abs() < 1e-9);
        assert_eq!(r.dram_bytes(&spec), 2_000_000);
        assert!((r.dram_traffic_gbps(&spec) - 2.0).abs() < 1e-9);
        assert!((r.l2_traffic_gbps(&spec) - 998.0).abs() < 1e-9);
        // The JSON `traffic_gbps` is the DRAM-attributed figure.
        let json = r.to_json(&spec);
        assert!(json.contains("\"traffic_gbps\":2.0"));
        assert!(json.contains("\"l2_traffic_gbps\":998.0"));
        assert!(json.contains("\"working_set\":1000000"));
    }

    #[test]
    fn dram_traffic_is_clamped_to_hbm_peak() {
        let spec = ChipSpec::ascend_910b4();
        // Footprint larger than L2: all traffic is DRAM, but the modeled
        // rate still cannot exceed what the HBM bus can deliver.
        let mut r = report();
        r.working_set = 300 << 20;
        r.bytes_read = 900_000_000;
        r.bytes_written = 100_000_000;
        assert_eq!(r.dram_bytes(&spec), 1_000_000_000);
        assert!((r.dram_traffic_gbps(&spec) - 800.0).abs() < 1e-9);
        assert!((r.l2_traffic_gbps(&spec) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn zero_working_set_means_no_l2_attribution() {
        // Hand-built reports (and pre-v3 fixtures) leave working_set at
        // zero; traffic then stays fully DRAM-attributed (clamped only).
        let spec = ChipSpec::ascend_910b4();
        let mut r = report();
        r.working_set = 0;
        assert_eq!(r.dram_bytes(&spec), 5_000_000);
        assert!((r.dram_traffic_gbps(&spec) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_and_peak_fraction() {
        let r = report();
        let u = r.utilization(EngineKind::Cube, 20);
        assert!((u - 900_000.0 / (1_800_000.0 * 20.0)).abs() < 1e-12);
        let spec = ChipSpec::ascend_910b4();
        assert!((r.fraction_of_peak(&spec) - 2.0 / 800.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_utilization_is_zero() {
        let mut r = report();
        r.cycles = 0;
        assert_eq!(r.utilization(EngineKind::Cube, 20), 0.0);
    }

    #[test]
    fn sequential_combines_and_leaves_useful_fields_zero() {
        let parts = [report(), report()];
        let s = KernelReport::sequential("combined", &parts);
        assert_eq!(s.cycles, 3_600_000);
        assert_eq!(s.bytes_read, 6_000_000);
        assert_eq!(s.useful_bytes, 0);
        assert_eq!(s.elements, 0);
        // The footprint does not add up across launches over the same
        // buffers: the combined report keeps the high-water mark.
        assert_eq!(s.working_set, 2_500_000);
        // Barrier- and flag-wait rounds concatenate; stalls add up.
        assert_eq!(s.barrier_waits, vec![100, 50, 100, 50]);
        assert_eq!(s.flag_waits, vec![30, 0, 30, 0]);
    }

    #[test]
    fn json_report_has_schema_keys_and_escapes_names() {
        let mut r = report();
        r.name = "weird \"name\"\\".into();
        r.stalls.dependency[EngineKind::Cube.index()] = 123;
        let spec = ChipSpec::ascend_910b4();
        let json = r.to_json(&spec);
        for key in [
            "\"name\":",
            "\"blocks\":",
            "\"cycles\":",
            "\"time_us\":",
            "\"gbps\":",
            "\"traffic_gbps\":",
            "\"l2_traffic_gbps\":",
            "\"working_set\":",
            "\"gelems\":",
            "\"fraction_of_peak\":",
            "\"sync_rounds\":",
            "\"barrier_wait_cycles\":",
            "\"flag_wait_cycles\":",
            "\"engines\":",
            "\"stall_dependency\":",
            "\"stall_contention\":",
            "\"stall_barrier\":",
            "\"stall_flag\":",
            "\"busy_cycles\":",
            "\"instructions\":",
            "\"utilization\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("weird \\\"name\\\"\\\\"));
        assert!(json.contains("\"CUBE\":{"));
        assert!(json.contains("\"stall_dependency\":123"));
        assert!(json.contains("\"barrier_wait_cycles\":[100,50]"));
        assert!(json.contains("\"flag_wait_cycles\":[30,0]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_report_guards_zero_denominators() {
        let spec = ChipSpec::tiny();
        let r = KernelReport::sequential("unfilled", &[report()]);
        // useful_bytes and elements are zero: to_json must not trip the
        // gbps()/gelems() debug asserts and reports 0.0 instead.
        let json = r.to_json(&spec);
        assert!(json.contains("\"gbps\":0.0"));
        assert!(json.contains("\"gelems\":0.0"));
        assert!(json.contains("\"fraction_of_peak\":0.0"));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "useful_bytes == 0")]
    fn gbps_on_unfilled_sequential_report_panics() {
        let s = KernelReport::sequential("unfilled", &[report()]);
        let _ = s.gbps();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "elements == 0")]
    fn gelems_on_unfilled_sequential_report_panics() {
        let s = KernelReport::sequential("unfilled", &[report()]);
        let _ = s.gelems();
    }
}
