//! Workloads: seeded request mixes, their oracles, and one request's run.
//!
//! A request is `Device::with_spec` → `Device::tensor` upload(s) → one
//! operator call → `to_vec` of the outputs, always on a fresh `Device`:
//! `GlobalMemory` is a bump allocator whose high-water mark drives the
//! L2-vs-HBM decision, so a reused device would drift (see NOTES.md).

use ascend_scan::dtypes::F16;
use ascend_scan::scan::reference;
use ascend_scan::sim::mem::GlobalMemory;
use ascend_scan::sim::prof::{with_profiling, Profile};
use ascend_scan::{ChipSpec, Device, KernelReport, SimResult};
use std::ops::RangeInclusive;
use std::time::{Duration, Instant};

/// Nucleus threshold of every top-p request.
pub const TOP_P: f64 = 0.9;
/// Slack on `TOP_P` for the host nucleus. The device decides on an f16
/// CDF: MCScan adds 40 chunk totals into f16 running offsets, each addition
/// rounding at half an ulp of the total, which moves a flat 128K-vocab
/// nucleus by about 2% of the mass.
const TOP_P_SLACK: f64 = 0.05;
/// Softmax temperatures of the peaked rows, drawn per row: nuclei of a
/// few to a few hundred tokens, mostly tens. The spread matters: top-p's
/// simulated time depends on the data only through `n_kept`, and only
/// once the nucleus crosses a vector repeat (128 elements).
const PEAK_TEMPERATURES: std::ops::Range<f64> = 0.15..0.25;
/// Bound on the fp16 scan inputs' running sum. Every partial sum MCScan
/// forms is a range sum of the input, so it stays within ±2·bound < 2048,
/// where f16 represents every integer: the device result is then exact
/// in any summation order and must equal the reference bit for bit.
const WALK_BOUND: i32 = 1000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ToppSampling,
    ScanStream,
    CompactMid,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ToppSampling,
        Workload::ScanStream,
        Workload::CompactMid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ToppSampling => "topp_sampling",
            Workload::ScanStream => "scan_stream",
            Workload::CompactMid => "compact_mid",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// SplitMix64: a small seeded generator, so inputs depend on the seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Standard normal (Box–Muller).
    fn normal(&mut self) -> f64 {
        let u = 1.0 - self.unit();
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

pub enum Op {
    TopP { probs: Vec<F16>, theta: f64 },
    Cumsum(Vec<F16>),
    MaskScan(Vec<u8>),
    Compress { x: Vec<F16>, mask: Vec<u8> },
    Split { x: Vec<F16>, mask: Vec<u8> },
}

/// What a correct output looks like, computed at set-up on the host.
enum Expect {
    /// `n_kept` must lie between the f64 nucleus sizes at `TOP_P ∓
    /// TOP_P_SLACK`, and the token's probability must be at least the
    /// smallest one in the wider nucleus.
    TopP {
        n_kept: RangeInclusive<usize>,
        min_prob: f64,
    },
    Cumsum(Vec<F16>),
    MaskScan(Vec<i32>),
    Compress(Vec<F16>),
    Split {
        values: Vec<F16>,
        indices: Vec<u32>,
        n_true: usize,
    },
}

pub enum Output {
    TopP {
        token: u32,
        n_kept: usize,
    },
    Cumsum(Vec<F16>),
    MaskScan(Vec<i32>),
    Compress {
        values: Vec<F16>,
        n_true: usize,
    },
    Split {
        values: Vec<F16>,
        indices: Vec<u32>,
        n_true: usize,
    },
}

pub struct Request {
    pub label: String,
    pub op: Op,
    expect: Expect,
}

/// One finished request: its report, outputs and host-time split.
pub struct Served {
    pub report: KernelReport,
    pub output: Output,
    /// `Device::with_spec` plus the uploads.
    pub upload: Duration,
    /// The operator call.
    pub call: Duration,
    /// `to_vec` of the outputs.
    pub download: Duration,
    /// Launch profiles, when the call ran under `with_profiling`.
    pub profile: Option<Profile>,
}

impl Served {
    pub fn host(&self) -> Duration {
        self.upload + self.call + self.download
    }
}

/// Builds the workload's fixed request mix from `seed`, with oracles.
pub fn build(workload: Workload, seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    match workload {
        // Vocab alternates Llama2/Llama3 sizes; peaked and flat rows
        // alternate in pairs, two of each combination per pass.
        Workload::ToppSampling => (0..8)
            .map(|i| {
                let vocab = if i % 2 == 0 { 32_000 } else { 128_256 };
                let peaked = (i / 2) % 2 == 0;
                let probs = if peaked {
                    peaked_probs(&mut rng, vocab)
                } else {
                    flat_probs(&mut rng, vocab)
                };
                let theta = rng.unit();
                let shape = if peaked { "peaked" } else { "flat" };
                topp(format!("top_p/{vocab}/{shape}"), probs, theta)
            })
            .collect(),
        // Lengths sit a seeded tail below 4M/16M, so simulated time
        // depends on the seed while the regime stays the same.
        Workload::ScanStream => [4usize << 20, 16 << 20]
            .into_iter()
            .flat_map(|full| {
                let n_sum = full - rng.below(4096) as usize;
                let n_mask = full - rng.below(4096) as usize;
                [
                    cumsum(walk(&mut rng, n_sum)),
                    mask_scan(bernoulli(&mut rng, n_mask, 0.5)),
                ]
            })
            .collect(),
        Workload::CompactMid => {
            let mut mix: Vec<Request> = [64usize << 10, 256 << 10, 1 << 20]
                .into_iter()
                .map(|n| cumsum(walk(&mut rng, n)))
                .collect();
            for n in [256usize << 10, 1 << 20] {
                for density in [0.5, 0.05] {
                    let x = values(&mut rng, n);
                    let mask = bernoulli(&mut rng, n, density);
                    mix.push(compress(x.clone(), mask.clone(), density));
                    mix.push(split(x, mask, density));
                }
            }
            mix
        }
    }
}

/// Low-temperature softmax of seeded normal logits, at a seeded temperature.
fn peaked_probs(rng: &mut Rng, vocab: usize) -> Vec<F16> {
    let t =
        PEAK_TEMPERATURES.start + rng.unit() * (PEAK_TEMPERATURES.end - PEAK_TEMPERATURES.start);
    let logits: Vec<f64> = (0..vocab).map(|_| rng.normal()).collect();
    let top = logits.iter().copied().fold(f64::MIN, f64::max);
    let weights: Vec<f64> = logits.iter().map(|z| ((z - top) / t).exp()).collect();
    let total: f64 = weights.iter().sum();
    weights.iter().map(|w| F16::from_f64(w / total)).collect()
}

/// The `bench::synth_probs` shape: uniform noise over a 1/(1 + i/100)
/// decay, unnormalized.
fn flat_probs(rng: &mut Rng, vocab: usize) -> Vec<F16> {
    (0..vocab)
        .map(|i| F16::from_f64(rng.unit() / (1.0 + 0.01 * i as f64)))
        .collect()
}

/// Steps of −1/0/+1 whose running sum stays within `±WALK_BOUND`.
fn walk(rng: &mut Rng, n: usize) -> Vec<F16> {
    let steps = [F16::from_f32(-1.0), F16::ZERO, F16::from_f32(1.0)];
    let mut level = 0i32;
    (0..n)
        .map(|_| {
            let mut step = rng.below(3) as i32 - 1;
            if (level + step).abs() > WALK_BOUND {
                step = -step;
            }
            level += step;
            steps[(step + 1) as usize]
        })
        .collect()
}

fn bernoulli(rng: &mut Rng, n: usize, p: f64) -> Vec<u8> {
    (0..n).map(|_| u8::from(rng.unit() < p)).collect()
}

fn values(rng: &mut Rng, n: usize) -> Vec<F16> {
    (0..n)
        .map(|_| F16::from_f64((rng.unit() * 2.0 - 1.0) * 1000.0))
        .collect()
}

fn topp(label: String, probs: Vec<F16>, theta: f64) -> Request {
    let mut sorted: Vec<f64> = probs.iter().map(|p| p.to_f64()).collect();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let total: f64 = sorted.iter().sum();
    // Tokens whose exclusive cumulative mass is within p·total.
    let kept = |p: f64| {
        let mut before = 0.0;
        sorted
            .iter()
            .take_while(|&&q| {
                let keep = before <= p * total;
                before += q;
                keep
            })
            .count()
            .max(1)
    };
    let hi = kept(TOP_P + TOP_P_SLACK);
    let expect = Expect::TopP {
        n_kept: kept(TOP_P - TOP_P_SLACK)..=hi,
        min_prob: sorted[hi - 1],
    };
    Request {
        label,
        op: Op::TopP { probs, theta },
        expect,
    }
}

fn cumsum(x: Vec<F16>) -> Request {
    let expect = Expect::Cumsum(reference::inclusive_widening::<F16, F16>(&x));
    Request {
        label: format!("cumsum/{}", x.len()),
        op: Op::Cumsum(x),
        expect,
    }
}

fn mask_scan(mask: Vec<u8>) -> Request {
    let expect = Expect::MaskScan(reference::exclusive_widening::<u8, i32>(&mask));
    Request {
        label: format!("mask_scan/{}", mask.len()),
        op: Op::MaskScan(mask),
        expect,
    }
}

fn compress(x: Vec<F16>, mask: Vec<u8>, density: f64) -> Request {
    let kept = x
        .iter()
        .zip(&mask)
        .filter(|(_, &m)| m != 0)
        .map(|(&v, _)| v)
        .collect();
    Request {
        label: format!("compress/{}/{density}", x.len()),
        op: Op::Compress { x, mask },
        expect: Expect::Compress(kept),
    }
}

fn split(x: Vec<F16>, mask: Vec<u8>, density: f64) -> Request {
    let (mut values, mut indices) = (Vec::with_capacity(x.len()), Vec::with_capacity(x.len()));
    for side in [1u8, 0] {
        for (i, (&v, &m)) in x.iter().zip(&mask).enumerate() {
            if m == side {
                values.push(v);
                indices.push(i as u32);
            }
        }
    }
    let n_true = mask.iter().filter(|&&m| m != 0).count();
    Request {
        label: format!("split/{}/{density}", x.len()),
        op: Op::Split { x, mask },
        expect: Expect::Split {
            values,
            indices,
            n_true,
        },
    }
}

/// An operator call's start and end, and its launch profiles if traced.
type CallTiming = (Instant, Instant, Option<Profile>);

/// Runs one operator call, under `with_profiling` when `profile` is set,
/// and returns its result with the call's start and end instants.
fn timed<R>(
    gm: &GlobalMemory,
    profile: bool,
    call: impl FnOnce() -> SimResult<R>,
) -> SimResult<(R, CallTiming)> {
    let start = Instant::now();
    let (result, profile) = if profile {
        let (r, p) = with_profiling(gm, call);
        (r, Some(p))
    } else {
        (call(), None)
    };
    Ok((result?, (start, Instant::now(), profile)))
}

impl Request {
    /// Serves the request on a fresh device, profiling the operator call
    /// when `profile` is set.
    pub fn serve(&self, spec: &ChipSpec, profile: bool) -> SimResult<Served> {
        let start = Instant::now();
        let dev = Device::with_spec(spec.clone());
        let gm = dev.memory();
        let (report, output, (uploaded, called, profile)) = match &self.op {
            Op::TopP { probs, theta } => {
                let p = dev.tensor(probs)?;
                let (run, t) = timed(gm, profile, || dev.top_p(&p, TOP_P, *theta))?;
                let output = Output::TopP {
                    token: run.token,
                    n_kept: run.n_kept,
                };
                (run.report, output, t)
            }
            Op::Cumsum(xs) => {
                let x = dev.tensor(xs)?;
                let (run, t) = timed(gm, profile, || dev.cumsum(&x))?;
                (run.report, Output::Cumsum(run.y.to_vec()), t)
            }
            Op::MaskScan(mask) => {
                let m = dev.tensor(mask)?;
                let (run, t) = timed(gm, profile, || dev.mask_exclusive_scan(&m))?;
                (run.report, Output::MaskScan(run.y.to_vec()), t)
            }
            Op::Compress { x, mask } => {
                let (x, m) = (dev.tensor(x)?, dev.tensor(mask)?);
                let (run, t) = timed(gm, profile, || dev.compress(&x, &m))?;
                let output = Output::Compress {
                    values: run.values.to_vec(),
                    n_true: run.n_true,
                };
                (run.report, output, t)
            }
            Op::Split { x, mask } => {
                let (x, m) = (dev.tensor(x)?, dev.tensor(mask)?);
                let (run, t) = timed(gm, profile, || dev.split(&x, &m))?;
                let output = Output::Split {
                    values: run.values.to_vec(),
                    indices: run.indices.to_vec(),
                    n_true: run.n_true,
                };
                (run.report, output, t)
            }
        };
        let downloaded = Instant::now();
        Ok(Served {
            report,
            output,
            upload: uploaded - start,
            call: called - uploaded,
            download: downloaded - called,
            profile,
        })
    }

    /// Checks `output` against the oracle; the error says what differs.
    pub fn check(&self, output: &Output) -> Result<(), String> {
        let same = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("{what} differ"))
            }
        };
        match (&self.expect, output) {
            (Expect::TopP { n_kept, min_prob }, Output::TopP { token, n_kept: got }) => {
                let Op::TopP { probs, .. } = &self.op else {
                    unreachable!("top-p oracle on a top-p request")
                };
                let prob = probs.get(*token as usize).map_or(0.0, |p| p.to_f64());
                if !n_kept.contains(got) {
                    Err(format!(
                        "n_kept {got} outside the host nucleus sizes {n_kept:?}"
                    ))
                } else if !(prob > 0.0 && prob >= *min_prob) {
                    Err(format!(
                        "token {token} (p = {prob}) outside the host nucleus (p >= {min_prob})"
                    ))
                } else {
                    Ok(())
                }
            }
            (Expect::Cumsum(want), Output::Cumsum(got)) => same(want == got, "prefix sums"),
            (Expect::MaskScan(want), Output::MaskScan(got)) => same(want == got, "offsets"),
            (Expect::Compress(want), Output::Compress { values, n_true }) => {
                same(*n_true == want.len(), "n_true")?;
                same(values == want, "values")
            }
            (
                Expect::Split {
                    values,
                    indices,
                    n_true,
                },
                Output::Split {
                    values: got_values,
                    indices: got_indices,
                    n_true: got_n_true,
                },
            ) => {
                same(n_true == got_n_true, "n_true")?;
                same(values == got_values, "values")?;
                same(indices == got_indices, "indices")
            }
            _ => Err("output of another operator".into()),
        }
    }
}
