//! LLM token sampling: the Llama3-style top-p (nucleus) sampler built
//! from the paper's operators — descending radix sort, MCScan cumulative
//! sum, threshold, inverse-transform draw. Compares against the modeled
//! PyTorch baseline pipeline on a synthetic logit distribution.
//!
//! ```text
//! cargo run --release --example llm_sampling
//! ```

use ascend_scan::dtypes::F16;
use ascend_scan::Device;

/// Synthetic next-token distribution: a softmax-ish Zipf tail with a few
/// dominant tokens, like a confident LLM step.
fn synthetic_token_probs(vocab: usize) -> Vec<F16> {
    let mut probs: Vec<f32> = (0..vocab)
        .map(|i| 1.0 / ((i + 2) as f32).powf(1.3))
        .collect();
    // Three "hot" tokens carry most of the mass.
    probs[42] = 0.30;
    probs[1000 % vocab] = 0.20;
    probs[77] = 0.10;
    let total: f32 = probs.iter().sum();
    probs.iter().map(|&p| F16::from_f32(p / total)).collect()
}

fn main() {
    let dev = Device::ascend_910b4();
    let vocab = 128_000; // Llama3's vocabulary size
    let probs = synthetic_token_probs(vocab);
    let x = dev.tensor(&probs).expect("upload probabilities");

    println!("nucleus sampling over a {vocab}-token vocabulary (p = 0.9)\n");

    // Draw a few tokens at different uniform variates. The kernel is
    // deterministic given theta, so the draws are reproducible.
    println!("  theta   token   nucleus size   simulated time");
    for theta in [0.05, 0.25, 0.45, 0.65, 0.85] {
        let run = dev.top_p(&x, 0.9, theta).expect("top-p sample");
        println!(
            "  {theta:>5.2}  {:>6}  {:>13}  {:>10.2} ms",
            run.token,
            run.n_kept,
            run.report.time_ms()
        );
    }

    // The paper's accounting: one fp16 top-p = 16 one-bit radix-sort
    // scans plus one cumulative-sum scan. `Device` sorts four bits per
    // pass: the encode's barrier and 4 passes of two in the sort's
    // launch (9), then the CDF scan's, one after the scan and one after
    // the threshold count in the draw's launch (3).
    let run = dev.top_p(&x, 0.9, 0.5).expect("top-p sample");
    println!(
        "\nSyncAll rounds per sample: {} in two launches (4 four-bit sort passes; the paper's \
         one-bit sort makes it '17 scans per batch')",
        run.report.sync_rounds
    );

    // Compare with the modeled PyTorch pipeline (torch.sort +
    // torch.cumsum + torch.multinomial).
    let (token, base) = bench_baseline(&dev, &probs);
    println!(
        "\nbaseline PyTorch pipeline: token {token}, {:.2} ms -> ours is {:.2}x faster at this vocab",
        base.time_ms(),
        base.time_s() / run.report.time_s()
    );
}

fn bench_baseline(dev: &Device, probs: &[F16]) -> (u32, ascend_scan::KernelReport) {
    let gm = dev.memory();
    let x = ascend_scan::GlobalTensor::from_slice(gm, probs).expect("upload");
    let spec = dev.spec();
    // torch.sort + torch.cumsum + torch.multinomial, as Fig. 13 measures.
    let (vals, idx, r_sort) = ascend_scan::ops::baselines::sort::<F16>(spec, gm, &x, true).unwrap();
    let (cdf, r_cumsum) = ascend_scan::ops::baselines::cumsum::<F16>(spec, gm, &vals).unwrap();
    let _ = cdf;
    let (pos, r_mult) = ascend_scan::ops::baselines::multinomial(spec, gm, &vals, 0.5).unwrap();
    let token = idx.read_range(pos, 1).unwrap()[0];
    let report = ascend_scan::KernelReport::sequential("torch top-p", &[r_sort, r_cumsum, r_mult]);
    (token, report)
}
