//! Cross-crate integration tests: operator pipelines composed end to
//! end on the simulated 910B4, validated against host references.

use ascend_scan::dtypes::{RadixKey, F16};
use ascend_scan::ops::{baselines, radix_sort, SortOrder, SORT_DIGIT_BITS};
use ascend_scan::sim::hb;
use ascend_scan::sim::prof::{with_profiling, Profile, BLOCK_SCOPE};
use ascend_scan::{Device, ScanKind};

fn device() -> Device {
    Device::ascend_910b4()
}

fn synth_f16(n: usize, seed: u64) -> Vec<F16> {
    let mut state = seed.wrapping_mul(0xD134_2543_DE82_EF95) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            F16::from_f32(((state >> 40) as f32 / (1u64 << 23) as f32 - 1.0) * 100.0)
        })
        .collect()
}

#[test]
fn sort_then_scan_pipeline() {
    // Sorting probabilities descending then scanning them yields a
    // monotone CDF whose last entry is the total mass.
    let dev = device();
    let n = 50_000;
    let probs: Vec<F16> = (0..n)
        .map(|i| F16::from_f32(((i * 31 + 7) % 100) as f32 / 100.0))
        .collect();
    let x = dev.tensor(&probs).unwrap();
    let sorted = dev.sort(&x, SortOrder::Descending).unwrap();
    let vals = sorted.values.to_vec();
    assert!(vals.windows(2).all(|w| w[0].to_f32() >= w[1].to_f32()));

    let cdf = dev.cumsum(&sorted.values).unwrap();
    let c = cdf.y.to_vec();
    // fp16 rounding at the block boundaries can nick monotonicity by a
    // few ULPs at the running sum's magnitude (hardware does the same);
    // compare against the exact reference within that slack instead.
    let mut exact = 0.0f64;
    let total: f64 = vals.iter().map(|v| v.to_f64()).sum();
    for (i, v) in c.iter().enumerate() {
        exact += vals[i].to_f64();
        assert!(
            (v.to_f64() - exact).abs() <= total * 0.01 + 8.0,
            "cdf[{i}] = {} vs exact {exact}",
            v.to_f64()
        );
    }
}

#[test]
fn split_and_compress_agree() {
    let dev = device();
    let n = 120_000;
    let vals: Vec<u16> = (0..n).map(|i| (i * 7919 % 65536) as u16).collect();
    let mask: Vec<u8> = (0..n)
        .map(|i| (((i as u64 * 2654435761) >> 16) & 1) as u8)
        .collect();
    let x = dev.tensor(&vals).unwrap();
    let m = dev.tensor(&mask).unwrap();

    let split = dev.split(&x, &m).unwrap();
    let comp = dev.compress(&x, &m).unwrap();

    assert_eq!(split.n_true, comp.n_true);
    assert_eq!(
        split.values.read_range(0, split.n_true).unwrap(),
        comp.values.to_vec(),
        "compress equals the true side of split"
    );
    // Split's index output inverts back to the input.
    let sv = split.values.to_vec();
    let si = split.indices.to_vec();
    for (out_pos, &orig) in si.iter().enumerate().step_by(997) {
        assert_eq!(sv[out_pos], vals[orig as usize]);
    }
}

#[test]
fn a_vocab_sized_split_shares_phase_two_over_the_vector_cores() {
    // 128,256 elements are only 8 cube tiles of ℓ = 16,384, but the
    // split gives each of the 910B4's 40 vector cores an equal range of
    // ⌈128,256 / 40⌉ = 3,207 elements: all 40 of them scatter a piece,
    // not 8, and the result is bit-exact.
    let dev = device();
    let n: usize = 128_256;
    let vals: Vec<u16> = (0..n).map(|i| (i * 7919 % 65536) as u16).collect();
    let mask: Vec<u8> = (0..n)
        .map(|i| (((i as u64 * 2654435761) >> 13) & 1) as u8)
        .collect();
    let x = dev.tensor(&vals).unwrap();
    let m = dev.tensor(&mask).unwrap();
    let (run, profile) = with_profiling(dev.memory(), || dev.split(&x, &m).unwrap());
    let (want_vals, want_idx, want_true) = ascend_scan::ops::split::reference_split(&vals, &mask);
    assert_eq!(run.n_true, want_true);
    assert_eq!(run.values.to_vec(), want_vals);
    assert_eq!(run.indices.to_vec(), want_idx);

    let [launch] = &profile.kernels[..] else {
        panic!("{:?}", launch_counts(&profile));
    };
    let mut cores: Vec<(u32, u32)> = launch
        .spans
        .iter()
        .filter(|sp| sp.name == "tile" && sp.args.is_some_and(|a| a.kind == "scatter"))
        .map(|sp| (sp.block, sp.core))
        .collect();
    cores.sort_unstable();
    cores.dedup();
    let spec = dev.spec();
    let chunks = (spec.ai_cores * spec.vec_per_core) as usize;
    assert_eq!(cores.len(), n.div_ceil(n.div_ceil(chunks)));
    assert_eq!(cores.len(), 40);
}

#[test]
fn top_p_token_comes_from_the_nucleus() {
    let dev = device();
    let n = 40_000;
    let mut probs = vec![F16::from_f32(1e-6); n];
    // Hot tokens: 70% + 20% of the mass on two ids.
    probs[123] = F16::from_f32(0.7);
    probs[9876] = F16::from_f32(0.2);
    let x = dev.tensor(&probs).unwrap();
    for theta in [0.1, 0.4, 0.7, 0.9] {
        let run = dev.top_p(&x, 0.8, theta).unwrap();
        assert!(
            run.token == 123 || run.token == 9876,
            "p = 0.8 nucleus holds only the two hot tokens; got {} at theta {theta}",
            run.token
        );
    }
}

#[test]
fn weighted_sampling_matches_cdf_quantiles() {
    let dev = device();
    // Geometric-ish weights; verify draws land at the analytic quantile.
    let w: Vec<f32> = (0..10_000)
        .map(|i| if i < 100 { 50.0 } else { 1.0 })
        .collect();
    let total: f32 = w.iter().sum(); // 5000 + 9900 = 14900
    let x = dev.tensor(&w).unwrap();
    // theta deep inside the heavy head.
    let run = dev.weighted_sample(&x, 0.2).unwrap();
    assert!(
        run.index < 100,
        "theta 0.2*{total} < 5000 lands in the head"
    );
    // theta in the uniform tail.
    let run = dev.weighted_sample(&x, 0.9).unwrap();
    assert!(run.index >= 100);
}

#[test]
fn radix_sort_argsort_is_a_permutation() {
    let dev = device();
    let n = 30_000;
    let vals = synth_f16(n, 11);
    let x = dev.tensor(&vals).unwrap();
    let run = dev.sort(&x, SortOrder::Ascending).unwrap();
    let idx = run.indices.to_vec();
    let mut seen = vec![false; n];
    for &i in &idx {
        assert!(!seen[i as usize], "duplicate index {i}");
        seen[i as usize] = true;
    }
    assert!(seen.iter().all(|&b| b));
    // And the permutation reproduces the sorted output bit-exactly.
    let sorted = run.values.to_vec();
    for r in (0..n).step_by(613) {
        assert_eq!(vals[idx[r] as usize].to_bits(), sorted[r].to_bits());
    }
}

#[test]
fn topk_agrees_with_full_sort() {
    let dev = device();
    let flat: Vec<F16> = (0..32_000)
        .map(|i| F16::from_f32(((i * 7919) % 1000) as f32 / 1e6))
        .collect();
    for (vals, k) in [(synth_f16(60_000, 13), 500), (flat, 100)] {
        let x = dev.tensor(&vals).unwrap();
        let (run, profile) = with_profiling(dev.memory(), || dev.topk(&x, k).unwrap());
        let sorted = dev.sort(&x, SortOrder::Descending).unwrap();
        // Element for element the head of the descending sort: largest
        // first, equal keys by lower index.
        let bits = |v: Vec<F16>| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(run.values.to_vec()), bits(sorted.values.to_vec())[..k]);
        assert_eq!(run.indices.to_vec(), sorted.indices.to_vec()[..k]);
        let mut expect: Vec<u16> = vals.iter().map(|v| v.encode()).collect();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        let got: Vec<u16> = run.values.to_vec().iter().map(|v| v.encode()).collect();
        assert_eq!(got, expect[..k]);

        // Top-k is the sort: one launch, its encode's barrier and two
        // per four-bit pass.
        let names: Vec<&str> = profile.kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, ["RadixSort"], "{:?}", launch_counts(&profile));
        assert_eq!(run.report.sync_rounds, 9);
    }
}

#[test]
fn split_based_topk_loses_to_the_baseline_for_small_k() {
    // The paper's §5 negative result: a split-based top-k moves every
    // key on every pass, while `torch.topk` streams the input once.
    let dev = device();
    let x = dev.tensor(&synth_f16(32 << 10, 7)).unwrap();
    for k in [64, 4096] {
        let ours = dev.topk(&x, k).unwrap().report;
        let (_, _, base) = baselines::topk_baseline(dev.spec(), dev.memory(), &x, k).unwrap();
        assert!(
            ours.time_s() > base.time_s(),
            "k = {k}: ours {:.1} us, torch.topk {:.1} us",
            ours.time_us(),
            base.time_us()
        );
    }
}

#[test]
fn exclusive_scan_is_shifted_inclusive_on_device() {
    let dev = device();
    let mask: Vec<u8> = (0..77_777u64)
        .map(|i| ((i * 40503) >> 13 & 1) as u8)
        .collect();
    let m = dev.tensor(&mask).unwrap();
    let inc = ascend_scan::scan::mcscan::mcscan::<u8, i16, i32>(
        dev.spec(),
        dev.memory(),
        &m,
        ascend_scan::McScanConfig {
            s: 128,
            blocks: 20,
            kind: ScanKind::Inclusive,
        },
    )
    .unwrap();
    let exc = dev.mask_exclusive_scan(&m).unwrap();
    let inc = inc.y.to_vec();
    let exc = exc.y.to_vec();
    assert_eq!(exc[0], 0);
    assert_eq!(&exc[1..], &inc[..inc.len() - 1]);
}

/// The scans a profiled pipeline ran: one phase I span per MCScan or split
/// on block 0, whichever launch it ran in.
fn scans(profile: &Profile) -> usize {
    profile
        .kernels
        .iter()
        .flat_map(|k| &k.spans)
        .filter(|s| s.name == "Phase I" && s.block == 0 && s.core == BLOCK_SCOPE)
        .count()
}

/// `(name, count)` per distinct launch name, in first-launch order.
fn launch_counts(profile: &Profile) -> Vec<(String, usize)> {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for k in &profile.kernels {
        match counts.iter_mut().find(|(name, _)| *name == k.name) {
            Some((_, c)) => *c += 1,
            None => counts.push((k.name.clone(), 1)),
        }
    }
    counts
}

#[test]
fn top_p_and_sort_launch_counts_are_pinned() {
    let dev = device();
    let x = dev.tensor(&synth_f16(32_000, 5)).unwrap();
    let (sorted, profile) = with_profiling(dev.memory(), || {
        dev.sort(&x, SortOrder::Descending).unwrap()
    });
    // The whole sort is one launch: the encode, 4 four-bit splits and
    // the decode.
    let want = [("RadixSort", 1)];
    let want: Vec<(String, usize)> = want.iter().map(|&(n, c)| (n.to_string(), c)).collect();
    assert_eq!(launch_counts(&profile), want);
    assert_eq!(profile.kernels.len(), 1, "{:?}", launch_counts(&profile));
    assert_eq!(
        scans(&profile),
        4,
        "one phase I, over fifteen masks, per four bits"
    );
    // The encode's barrier, then two per pass: after the counts' phase
    // I and after the scatter.
    assert_eq!(sorted.report.sync_rounds, 9);

    let probs: Vec<F16> = (0..32_000)
        .map(|i| F16::from_f32(((i * 7919) % 1000) as f32 / 1e6))
        .collect();
    let p = dev.tensor(&probs).unwrap();
    let (run, profile) = with_profiling(dev.memory(), || dev.top_p(&p, 0.9, 0.5).unwrap());
    // The one-launch sort, then one launch of the CDF scan, the
    // threshold count and the search.
    let want = [("RadixSort", 1), ("TopP", 1)];
    let want: Vec<(String, usize)> = want.iter().map(|&(n, c)| (n.to_string(), c)).collect();
    assert_eq!(launch_counts(&profile), want);
    // The sort's 4 phase Is and the CDF scan's one; the paper's
    // one-bit passes would make it 17.
    assert_eq!(scans(&profile), 5);
    // The sort's 9 barriers, then the CDF scan's, one after the scan
    // and one after the threshold count.
    assert_eq!(run.report.sync_rounds, 12);
    // Each launch's critical path covers it.
    for k in &profile.kernels {
        let path = k.critical_path.as_ref().expect("Full audits");
        assert_eq!(path.summary.makespan, k.cycles, "{}", k.name);
    }

    let (run, profile) = with_profiling(dev.memory(), || dev.weighted_sample(&p, 0.5).unwrap());
    // One launch: the CDF scan and the search.
    assert_eq!(launch_counts(&profile), [("WeightedSample".to_string(), 1)]);
    assert_eq!(scans(&profile), 1);
    // The CDF scan's barrier and one after the scan.
    assert_eq!(run.report.sync_rounds, 2);
}

#[test]
fn a_vocab_sized_two_bit_sort_costs_fewer_instructions_than_one_bit_passes() {
    // A split reads one count per run and piece, so a two-bit pass pays
    // for three mask counts, not three mask scans: a 128,256-key fp16
    // sort issues fewer instructions in 8 two-bit passes than the 16
    // one-bit passes of the scan-based split did (55,524; two-bit
    // passes over scans took 93.3K). So do the 4 four-bit passes
    // `Device` runs, at fifteen `Compare`s and counts per key and pass.
    let dev = device();
    let n = 128_256;
    let keys: Vec<F16> = (0..n)
        .map(|i| F16::from_f32(((i * 7919) % 1000) as f32 / 1e3))
        .collect();
    let x = dev.tensor(&keys).unwrap();
    let mut want = keys.clone();
    want.sort_by(|a, b| b.total_cmp(a));
    let want: Vec<u16> = want.iter().map(|v| v.to_bits()).collect();
    for bits in [2, 4] {
        let run = radix_sort(dev.spec(), dev.memory(), &x, bits, SortOrder::Descending).unwrap();
        let instructions: u64 = run.report.engine_instructions.iter().sum();
        assert!(
            instructions < 55_524,
            "{bits} bits: {instructions} instructions"
        );
        let got: Vec<u16> = run.values.to_vec().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "{bits} bits");
    }
}

#[test]
fn four_bit_sort_passes_beat_two_bit_passes_on_the_910b4() {
    // `SORT_DIGIT_BITS` is a constant, not a size rule: four-bit passes
    // must beat two-bit ones at top-p's vocabularies (32,000 and
    // 128,256 tokens), for fp16 and int8 keys alike.
    // A fresh device per sort, so no run inherits another's memory
    // high-water mark (and with it the L2/HBM choice).
    fn time_us<K>(keys: &[K], bits: u32) -> f64
    where
        K: ascend_scan::dtypes::Element + RadixKey,
        K::Encoded: ascend_scan::dtypes::Element
            + ascend_scan::ascendc::Bits
            + ascend_scan::dtypes::Numeric,
    {
        let dev = device();
        let x = dev.tensor(keys).unwrap();
        let run = radix_sort(dev.spec(), dev.memory(), &x, bits, SortOrder::Descending).unwrap();
        run.report.time_us()
    }
    for n in [32_000usize, 128_256] {
        let fp16 = synth_f16(n, 11);
        let int8: Vec<i8> = (0..n).map(|i| (i * 7919 % 256) as u8 as i8).collect();
        let two = (time_us(&fp16, 2), time_us(&int8, 2));
        let four = (time_us(&fp16, 4), time_us(&int8, 4));
        assert_eq!(SORT_DIGIT_BITS, 4);
        assert!(four.0 < two.0, "fp16, n = {n}: {four:?} vs {two:?} us");
        assert!(four.1 < two.1, "int8, n = {n}: {four:?} vs {two:?} us");
    }
}

#[test]
fn top_p_launches_are_hb_clean() {
    // Every launch's recorded schedule must analyze without a single
    // diagnostic, warnings included: a dead or leaked transfer in
    // the fused radix passes (shared by top-p's sort and top-k), a
    // scatter store racing another core's in a split, or a top-p phase
    // reading what another core wrote without a barrier between, fails
    // here.
    let dev = device();
    let probs: Vec<F16> = (0..32_000)
        .map(|i| F16::from_f32(if i % 97 == 0 { 0.01 } else { 1e-4 }))
        .collect();
    let p = dev.tensor(&probs).unwrap();
    let mask: Vec<u8> = (0..32_000).map(|i| u8::from(i % 3 != 1)).collect();
    let m = dev.tensor(&mask).unwrap();
    let (_, top_p) = with_profiling(dev.memory(), || dev.top_p(&p, 0.9, 0.3).unwrap());
    let (_, top_k) = with_profiling(dev.memory(), || dev.topk(&p, 500).unwrap());
    let (_, split) = with_profiling(dev.memory(), || dev.split(&p, &m).unwrap());
    let (_, compress) = with_profiling(dev.memory(), || dev.compress(&p, &m).unwrap());
    let names: Vec<&str> = top_p.kernels.iter().map(|k| k.name.as_str()).collect();
    assert_eq!(
        names,
        ["RadixSort", "TopP"],
        "top-p is the sort and one draw"
    );
    let launches = [top_p, top_k, split, compress];
    for k in launches.iter().flat_map(|p| &p.kernels) {
        assert!(!k.hb_events.is_empty(), "{} recorded no events", k.name);
        let diags = hb::analyze(&k.hb_events);
        if let Some(first) = diags.first() {
            panic!("{}: {} diagnostics, first: {first}", k.name, diags.len());
        }
    }
}
