//! # ascend-scan
//!
//! Parallel prefix-sum (scan) algorithms and scan-based operators for
//! (simulated) Ascend AI accelerators — a from-scratch Rust reproduction
//! of *"Parallel Scan on Ascend AI Accelerators"* (Wróblewski, Gottardo,
//! Zouzias; IPPS 2025).
//!
//! The crate is a facade over the workspace:
//!
//! * [`sim`] ([`ascend_sim`]) — a deterministic functional + timing
//!   simulator of the Ascend 910B "DaVinci" architecture (cube/vector
//!   engines, MTEs, scratchpads, HBM/L2 bandwidth model);
//! * [`ascendc`] — the AscendC programming model embedded in Rust
//!   (global/local tensors, queues, intrinsics, kernel launch);
//! * [`scan`] — the paper's scan algorithms: ScanU, ScanUL1, the
//!   multi-core MCScan, batched variants, and the vector-only baseline;
//! * [`ops`] — scan-based operators: split, compress, radix sort, top-k,
//!   top-p (nucleus) sampling, weighted sampling, plus the PyTorch-Ascend
//!   baselines;
//! * [`dtypes`] — software `f16` and the element/radix-key traits.
//!
//! ## Quickstart
//!
//! ```
//! use ascend_scan::Device;
//! use ascend_scan::dtypes::F16;
//!
//! // A simulated Ascend 910B4 (20 cube cores, 40 vector cores).
//! let dev = Device::ascend_910b4();
//!
//! // Scan a million-element fp16 array on all cores.
//! let xs: Vec<F16> = (0..1_000_000).map(|i| F16::from_f32((i % 2) as f32)).collect();
//! let x = dev.tensor(&xs).unwrap();
//! let run = dev.cumsum(&x).unwrap();
//!
//! // The prefix sums are non-decreasing and the report carries the
//! // simulated execution profile.
//! let y = run.y.to_vec();
//! assert!(y.windows(2).take(1000).all(|w| w[0].to_f32() <= w[1].to_f32()));
//! println!("simulated time: {:.1} us at {:.0} GB/s", run.report.time_us(), run.report.gbps());
//! assert!(run.report.gbps() > 100.0);
//! ```

pub use ascend_sim as sim;
pub use ascendc;
pub use dtypes;
pub use ops;
pub use scan;

pub use ascend_sim::{ChipSpec, KernelReport, SimError, SimResult};
pub use ascendc::GlobalTensor;
pub use dtypes::{Element, F16};
pub use scan::mcscan::{McScanConfig, ScanKind};
pub use scan::scanc::ScanCConfig;
pub use scan::ScanRun;

use ascend_sim::mem::GlobalMemory;
use dtypes::{CubeInput, Numeric};
use ops::SORT_DIGIT_BITS;
use scan::SortKey;
use std::sync::Arc;

/// A simulated accelerator: a chip specification plus its global memory.
///
/// Thin convenience wrapper so applications don't thread `(&ChipSpec,
/// &Arc<GlobalMemory>)` everywhere; all operators remain available as
/// free functions in [`scan`] and [`ops`] for fine-grained control.
/// Every operator runs on all of the chip's AI cores.
///
/// Empty inputs follow one rule: a call whose result is defined for no
/// elements returns it (an empty scan, split, compress or sort; a zero
/// `reduce` total) with a report that charges one launch. Sampling from
/// an empty distribution and `topk` with `k` outside `1..=n` have no
/// answer and return [`SimError::InvalidArgument`].
pub struct Device {
    spec: ChipSpec,
    gm: Arc<GlobalMemory>,
}

impl Device {
    /// A simulated Ascend 910B4 — the paper's evaluation platform.
    pub fn ascend_910b4() -> Self {
        Self::with_spec(ChipSpec::ascend_910b4())
    }

    /// A device with a custom chip specification.
    pub fn with_spec(spec: ChipSpec) -> Self {
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        Device { spec, gm }
    }

    /// The chip specification.
    pub fn spec(&self) -> &ChipSpec {
        &self.spec
    }

    /// The device's global memory.
    pub fn memory(&self) -> &Arc<GlobalMemory> {
        &self.gm
    }

    /// Uploads a host slice into a new global tensor.
    pub fn tensor<T: Element>(&self, data: &[T]) -> SimResult<GlobalTensor<T>> {
        GlobalTensor::from_slice(&self.gm, data)
    }

    /// Allocates a zeroed global tensor.
    pub fn zeros<T: Element>(&self, len: usize) -> SimResult<GlobalTensor<T>> {
        GlobalTensor::new(&self.gm, len)
    }

    /// The MCScan tile dimension for a `<T, M, O>` scan on this chip:
    /// `s = 128` on the 910B4, smaller where the scratchpads are.
    fn s<T: CubeInput, M: Element, O: Element>(&self) -> usize {
        McScanConfig::for_types::<T, M, O>(&self.spec).s
    }

    /// Inclusive scan on all cores. The kernel is chosen by size: fp16
    /// scans at or above the crossover in [`scan::crossover`] run the
    /// single-pass ScanC, smaller ones (and other element types) the
    /// paper's MCScan (`s = 128` on the 910B4).
    pub fn cumsum<T: CubeInput>(&self, x: &GlobalTensor<T>) -> SimResult<ScanRun<T>> {
        self.scan::<T, T, T>(x, ScanKind::Inclusive)
    }

    /// Exclusive int8-mask scan (`u8 → i16 → i32`), the split/compress
    /// building block. Like [`Device::cumsum`], the kernel is chosen by
    /// size: ScanC at or above the int8 crossover, MCScan below it.
    pub fn mask_exclusive_scan(&self, mask: &GlobalTensor<u8>) -> SimResult<ScanRun<i32>> {
        self.scan::<u8, i16, i32>(mask, ScanKind::Exclusive)
    }

    /// The one scan dispatch behind `cumsum` and `mask_exclusive_scan`:
    /// ScanC from the path's crossover (counted in `ℓ = s²` tiles) on,
    /// MCScan below it.
    fn scan<T: CubeInput, M: Numeric, O: Numeric>(
        &self,
        x: &GlobalTensor<T>,
        kind: ScanKind,
    ) -> SimResult<ScanRun<O>> {
        let s = self.s::<T, M, O>();
        if scan::crossover::picks_scanc::<T, M, O>(x.len(), s * s) {
            let cfg = ScanCConfig {
                kind,
                ..ScanCConfig::for_chip::<T, M, O>(&self.spec)
            };
            scan::scanc::scanc::<T, M, O>(&self.spec, &self.gm, x, cfg)
        } else {
            let cfg = McScanConfig {
                kind,
                ..McScanConfig::for_types::<T, M, O>(&self.spec)
            };
            scan::mcscan::mcscan::<T, M, O>(&self.spec, &self.gm, x, cfg)
        }
    }

    /// Stable split by mask, with original indices.
    pub fn split<E: Element>(
        &self,
        x: &GlobalTensor<E>,
        mask: &GlobalTensor<u8>,
    ) -> SimResult<ops::SplitRun<E>> {
        ops::split_ind(&self.spec, &self.gm, x, mask)
    }

    /// `masked_select`: compacts the mask-selected elements.
    pub fn compress<E: Element>(
        &self,
        x: &GlobalTensor<E>,
        mask: &GlobalTensor<u8>,
    ) -> SimResult<ops::compress::CompressRun<E>> {
        ops::compress(&self.spec, &self.gm, x, mask)
    }

    /// Stable radix sort (values + argsort indices), four key bits per
    /// pass: 4 passes for fp16 keys, in one launch of 7 `SyncAll`s.
    pub fn sort<K: SortKey>(
        &self,
        x: &GlobalTensor<K>,
        order: ops::SortOrder,
    ) -> SimResult<ops::SortRun<K>> {
        ops::radix_sort(&self.spec, &self.gm, x, SORT_DIGIT_BITS, order)
    }

    /// Top-k selection: the first `k` values and indices of the
    /// descending [`Device::sort`], largest first, in its one launch.
    pub fn topk<K: SortKey>(
        &self,
        x: &GlobalTensor<K>,
        k: usize,
    ) -> SimResult<ops::topk::TopKRun<K>> {
        ops::topk(&self.spec, &self.gm, x, k)
    }

    /// Top-p (nucleus) sampling from an fp16 probability vector: the
    /// descending four-bit sort's launch, then one launch of the CDF
    /// scan, the threshold count and the search (10 `SyncAll`s for fp16).
    pub fn top_p(
        &self,
        probs: &GlobalTensor<F16>,
        p: f64,
        theta: f64,
    ) -> SimResult<ops::topp::TopPRun> {
        // The CDF scan keeps the `s` it has always run at (the smaller of
        // the int8 mask and fp16 tiles), so its fp16 rounding, and with
        // it every sampled token, does not depend on the sort's passes.
        let s = self.s::<u8, i16, i32>().min(self.s::<F16, F16, F16>());
        ops::top_p_sample(&self.spec, &self.gm, probs, p, theta, s, SORT_DIGIT_BITS)
    }

    /// Weighted sampling by inverse transform (unbounded support size),
    /// as one launch: the CDF scan and the search (2 `SyncAll`s).
    pub fn weighted_sample<W: CubeInput>(
        &self,
        w: &GlobalTensor<W>,
        theta: f64,
    ) -> SimResult<ops::weighted::WeightedRun> {
        let s = self.s::<W, W, W>();
        ops::weighted_sample(&self.spec, &self.gm, w, theta, s)
    }

    /// Sum reduction on the cube units (`A @ 1s` row sums).
    pub fn reduce<T: CubeInput>(&self, x: &GlobalTensor<T>) -> SimResult<scan::ReduceRun<T::Acc>> {
        let s = self.s::<T, T, T::Acc>();
        scan::reduce_cube::<T>(&self.spec, &self.gm, x, s)
    }

    /// Builds an alias table for O(1)-per-draw weighted sampling.
    pub fn alias_table(&self, w: &GlobalTensor<f32>) -> SimResult<ops::AliasTable> {
        let s = self.s::<f32, f32, f32>();
        ops::build_alias_table(&self.spec, &self.gm, w, s)
    }

    /// Draws many samples from an alias table.
    pub fn alias_sample(
        &self,
        table: &ops::AliasTable,
        thetas: &[(f64, f64)],
    ) -> SimResult<(Vec<u32>, KernelReport)> {
        ops::alias_sample_many(&self.spec, &self.gm, table, thetas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_end_to_end_cumsum() {
        let dev = Device::with_spec(ChipSpec::tiny());
        let xs: Vec<i8> = (0..5000).map(|i| (i % 3) as i8).collect();
        let x = dev.tensor(&xs).unwrap();
        let run = scan::mcscan::mcscan::<i8, i32, i32>(
            dev.spec(),
            dev.memory(),
            &x,
            McScanConfig {
                s: 16,
                blocks: 2,
                kind: ScanKind::Inclusive,
            },
        )
        .unwrap();
        assert_eq!(
            run.y.to_vec(),
            scan::reference::inclusive_widening::<i8, i32>(&xs)
        );
    }

    #[test]
    fn device_wrappers_run_on_910b4() {
        // The Device defaults target the 910B4 (s = 128); exercise the
        // full-size path once with a small input.
        let dev = Device::ascend_910b4();
        let mask: Vec<u8> = (0..40_000).map(|i| (i % 2) as u8).collect();
        let m = dev.tensor(&mask).unwrap();
        let scanrun = dev.mask_exclusive_scan(&m).unwrap();
        let expect = scan::reference::exclusive_widening::<u8, i32>(&mask);
        assert_eq!(scanrun.y.to_vec(), expect);

        let vals: Vec<u16> = (0..40_000).map(|i| (i * 7 % 1000) as u16).collect();
        let v = dev.tensor(&vals).unwrap();
        let split = dev.split(&v, &m).unwrap();
        assert_eq!(split.n_true, 20_000);
    }

    /// A ±1 walk whose every partial sum stays within ±64, so every
    /// fp16 association of it is exact.
    fn bounded_walk(n: usize) -> Vec<F16> {
        let (mut pos, mut state) = (0i32, 0x9e37_79b9u32);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let up = (state >> 16) & 1 == 1;
                let step = if pos >= 64 || (pos > -64 && !up) {
                    -1
                } else {
                    1
                };
                pos += step;
                F16::from_f32(step as f32)
            })
            .collect()
    }

    #[test]
    fn device_scans_switch_kernels_at_the_crossover() {
        use scan::crossover::ScanPath;
        let dev = Device::with_spec(ChipSpec::tiny());
        // fp16: bit-identical to the host scan on both sides.
        let s = dev.s::<F16, F16, F16>();
        let at = ScanPath::Fp16.crossover_tiles() * s * s;
        for (n, kernel) in [(at - 1, "MCScan"), (at, "ScanC")] {
            let xs = bounded_walk(n);
            let run = dev.cumsum(&dev.tensor(&xs).unwrap()).unwrap();
            assert_eq!(run.report.name, kernel, "fp16 n={n}");
            assert_eq!(run.y.to_vec(), scan::reference::inclusive(&xs), "n={n}");
        }
        // int8 masks: offsets bit-identical to MCScan's on both sides.
        let s = dev.s::<u8, i16, i32>();
        let at = ScanPath::Int8.crossover_tiles() * s * s;
        for (n, kernel) in [(at - 1, "MCScan"), (at, "ScanC")] {
            let mask: Vec<u8> = (0..n).map(|i| u8::from(i % 7 < 3)).collect();
            let m = dev.tensor(&mask).unwrap();
            let run = dev.mask_exclusive_scan(&m).unwrap();
            assert_eq!(run.report.name, kernel, "int8 n={n}");
            let cfg = McScanConfig {
                kind: ScanKind::Exclusive,
                ..McScanConfig::for_types::<u8, i16, i32>(dev.spec())
            };
            let mc = scan::mcscan::mcscan::<u8, i16, i32>(dev.spec(), dev.memory(), &m, cfg);
            assert_eq!(run.y.to_vec(), mc.unwrap().y.to_vec(), "n={n}");
        }
    }

    #[test]
    fn tile_dim_is_the_papers_on_910b4_and_shrinks_on_tiny() {
        let big = ChipSpec::ascend_910b4();
        let tiny = ChipSpec::tiny();
        let dims = |spec: &ChipSpec| {
            [
                McScanConfig::for_chip(spec).s,
                McScanConfig::for_types::<u8, i16, i32>(spec).s,
                McScanConfig::for_types::<f32, f32, f32>(spec).s,
                McScanConfig::for_types::<i8, i32, i32>(spec).s,
                ScanCConfig::for_chip::<F16, F16, F16>(spec).s,
                ScanCConfig::for_chip::<u8, i16, i32>(spec).s,
            ]
        };
        assert_eq!(dims(&big), [128; 6]);
        for s in dims(&tiny) {
            assert!(s % 16 == 0 && s < 128, "tiny chip s = {s}");
        }
    }

    #[test]
    fn device_wrappers_run_on_tiny_chip() {
        use ops::SortOrder;
        let dev = Device::with_spec(ChipSpec::tiny());
        let n = 1500;

        // Scans: 0/1 values keep every fp16 prefix sum exact.
        let xs: Vec<F16> = (0..n).map(|i| F16::from_f32((i % 2) as f32)).collect();
        let x = dev.tensor(&xs).unwrap();
        assert_eq!(
            dev.cumsum(&x).unwrap().y.to_vec(),
            scan::reference::inclusive(&xs)
        );
        let mask: Vec<u8> = (0..n).map(|i| u8::from(i % 3 == 0)).collect();
        let m = dev.tensor(&mask).unwrap();
        let offs = scan::reference::exclusive_widening::<u8, i32>(&mask);
        assert_eq!(dev.mask_exclusive_scan(&m).unwrap().y.to_vec(), offs);

        // Split and compress: the scan's offsets place every element.
        let vals: Vec<u16> = (0..n).map(|i| (i * 7919 % 1000) as u16).collect();
        let v = dev.tensor(&vals).unwrap();
        let (ev, ei, ent) = ops::split::reference_split(&vals, &mask);
        let split = dev.split(&v, &m).unwrap();
        assert_eq!(split.n_true, ent);
        assert_eq!(split.values.to_vec(), ev);
        assert_eq!(split.indices.to_vec(), ei);
        let comp = dev.compress(&v, &m).unwrap();
        assert_eq!(comp.values.to_vec(), ev[..ent]);

        // Sort and top-k against a host stable sort.
        let sorted = dev.sort(&v, SortOrder::Descending).unwrap();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| vals[b as usize].cmp(&vals[a as usize]));
        assert_eq!(sorted.indices.to_vec(), order);
        let top = dev.topk(&v, 10).unwrap();
        assert_eq!(top.indices.to_vec(), order[..10]);
        assert_eq!(top.values.to_vec(), sorted.values.to_vec()[..10]);

        // Samplers: the token is the first whose prefix sum exceeds
        // theta times the (kept) total.
        let w: Vec<f32> = (0..n).map(|i| if i < 100 { 50.0 } else { 1.0 }).collect();
        let wt = dev.tensor(&w).unwrap();
        let cdf = scan::reference::inclusive(&w);
        let total = cdf[n - 1] as f64;
        for theta in [0.2, 0.9] {
            let want = cdf.iter().position(|&c| c as f64 > theta * total).unwrap();
            assert_eq!(dev.weighted_sample(&wt, theta).unwrap().index, want);
        }
        assert_eq!(dev.reduce(&wt).unwrap().total, total as f32);
        let table = dev.alias_table(&wt).unwrap();
        let (draws, _) = dev.alias_sample(&table, &[(0.5, 0.5)]).unwrap();
        assert!((draws[0] as usize) < n);

        let probs: Vec<F16> = (0..n)
            .map(|i| F16::from_f32(if i == 700 { 0.5 } else { 0.001 }))
            .collect();
        let p = dev.tensor(&probs).unwrap();
        let run = dev.top_p(&p, 0.2, 0.5).unwrap();
        assert_eq!((run.token, run.n_kept), (700, 1));
    }
}
