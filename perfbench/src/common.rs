//! What every workload shares: the run settings, the result record, the
//! set-up and measurement loops, and the per-layer counters read from
//! telemetry snapshots.

use std::cell::RefCell;
use std::time::Instant;

use legion_hw::pcm::{pcm_counter_name, TrafficKind};
use legion_hw::traffic::{traffic_counter_name, Source};
use legion_telemetry::Snapshot;
use serde_json::Value;

use crate::trace::Tracer;

/// Set-ups a run makes at least; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Short set-ups repeat until they total this many host seconds...
const SETUP_MIN_TOTAL_S: f64 = 4.0;
/// ...or this many set-ups.
const SETUP_MAX_REPS: usize = 9;

const MIB: f64 = (1u64 << 20) as f64;

/// Seed of every workload's graph and features. The dataset is the
/// workload's fixed input: `--seed` drives everything drawn from it (the
/// request stream, the mutation log, epoch shuffles, the engines' own
/// random streams), because graph-to-graph variation would swamp every
/// simulated metric.
pub const DATASET_SEED: u64 = 42;

/// Host seconds this thread has spent running on a CPU, read from
/// `/proc/thread-self/schedstat` (nanoseconds). Time the machine gives
/// to other tenants or to its hypervisor is not charged to the
/// simulator, which makes host figures far steadier on a shared machine
/// than wall time. Falls back to wall time where the file is missing.
pub fn host_now() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or_else(
            || wall_origin().elapsed().as_secs_f64(),
            |ns| ns as f64 * 1e-9,
        )
}

/// Host seconds the reference computation took on the host of the first
/// baseline.
const REFERENCE_S: f64 = 0.045;
/// Wall seconds between two samples of the host's speed.
const SPEED_SAMPLE_EVERY_S: f64 = 0.5;

thread_local! {
    static SPEED: RefCell<(Option<Instant>, Vec<f64>)> = const { RefCell::new((None, Vec::new())) };
    static TABLE: RefCell<Vec<u32>> = RefCell::new((0..1u32 << 22).collect());
}

/// Host seconds of a fixed reference computation: dependent random reads
/// and writes over a 16 MiB table, the access pattern of a graph sampler.
fn reference_s() -> f64 {
    TABLE.with(|t| {
        let mut t = t.borrow_mut();
        let n = t.len();
        let start = host_now();
        let mut x = 0x9e37_79b9u32;
        for _ in 0..(1 << 21) {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let i = (x as usize) & (n - 1);
            let j = (t[i] as usize ^ x as usize) & (n - 1);
            t[j] = t[j].wrapping_add(t[i] | 1);
        }
        std::hint::black_box(&*t);
        host_now() - start
    })
}

/// Times the reference computation when `SPEED_SAMPLE_EVERY_S` of wall
/// time have passed since the last sample. Called before every timed
/// set-up and engine call, so the samples follow the host's speed
/// through the run.
pub fn sample_host_speed() {
    let due = SPEED.with(|s| {
        s.borrow()
            .0
            .is_none_or(|t| t.elapsed().as_secs_f64() >= SPEED_SAMPLE_EVERY_S)
    });
    if due {
        let secs = reference_s();
        SPEED.with(|s| {
            let mut s = s.borrow_mut();
            s.0 = Some(Instant::now());
            s.1.push(secs);
        });
    }
}

/// How fast the host ran during this run against the host of the first
/// baseline: `REFERENCE_S` over the mean reference time (below 1 when
/// slower). Host seconds times this factor are seconds at reference
/// speed; host figures on a shared machine drift by 10–15% between runs
/// as neighbours come and go, and the scaling cancels most of that.
pub fn host_speed() -> (f64, usize) {
    SPEED.with(|s| {
        let samples = &s.borrow().1;
        if samples.is_empty() {
            return (1.0, 0);
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        (REFERENCE_S / mean, samples.len())
    })
}

fn wall_origin() -> Instant {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// The benchmark's command-line settings.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
}

impl RunCfg {
    /// A seed for one stream of the run, derived from `--seed`.
    pub fn derive(&self, stream: u64) -> u64 {
        splitmix(self.seed ^ splitmix(stream))
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Which clock a number was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// How fast the simulator ran on this host.
    Host,
    /// What the modelled hardware would do; exact per seed.
    Sim,
}

impl Clock {
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "simulated",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What the measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Time-bounded engine calls made; a traced replay makes exactly as
    /// many.
    pub calls: usize,
    /// Host seconds of every engine call.
    pub call_s: Vec<f64>,
    pub end_to_end: Vec<Metric>,
    /// Simulated per-layer metrics (the per-layer host times come from
    /// the tracer).
    pub layers: Vec<Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// Every simulated output of the phase, serialized: a traced replay
    /// must reproduce it byte for byte.
    pub fingerprint: String,
}

impl Phase {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, clock: Clock) {
        self.end_to_end.push(Metric {
            name,
            value,
            unit,
            clock,
        });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str, clock: Clock) {
        self.layers.push(Metric {
            name,
            value,
            unit,
            clock,
        });
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Appends `text` to the fingerprint.
    pub fn record_output(&mut self, text: impl AsRef<str>) {
        self.fingerprint.push_str(text.as_ref());
        self.fingerprint.push('\n');
    }
}

/// Builds the workload from scratch `SETUP_REPS` times, or more while
/// the set-ups total under `SETUP_MIN_TOTAL_S`, and returns the median
/// host seconds of one build with the last build's state. Each earlier
/// state is dropped before the next build starts.
pub fn repeat_setup<S>(tr: &Tracer, mut build: impl FnMut() -> S) -> (f64, S) {
    let mut times: Vec<f64> = Vec::new();
    let mut state = None;
    while times.len() < SETUP_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_TOTAL_S && times.len() < SETUP_MAX_REPS)
    {
        drop(state.take());
        sample_host_speed();
        let t = host_now();
        state = Some(tr.span("bench.setup", &mut build));
        times.push(host_now() - t);
    }
    (median(&mut times), state.expect("at least one set-up"))
}

/// Calls `step(i)` for i = 0, 1, ... until `seconds` of wall time have
/// passed and at least `min_calls` were made, or exactly `fixed` times
/// when given (the traced replay of an untraced phase). Returns the host
/// seconds of every call.
pub fn timed_loop(
    seconds: f64,
    min_calls: usize,
    fixed: Option<usize>,
    mut step: impl FnMut(usize),
) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let done = times.len();
        let more = match fixed {
            Some(n) => done < n,
            None => done < min_calls || start.elapsed().as_secs_f64() < seconds,
        };
        if !more {
            return times;
        }
        sample_host_speed();
        let t = host_now();
        step(done);
        times.push(host_now() - t);
    }
}

pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn sum_gpus(snaps: &[&Snapshot], gpus: usize, name: impl Fn(usize) -> String) -> u64 {
    snaps
        .iter()
        .map(|s| (0..gpus).map(|g| s.counter(&name(g))).sum::<u64>())
        .sum()
}

/// PCIe transactions (PCM) summed over every GPU of every snapshot.
pub fn pcie_txns(snaps: &[&Snapshot], gpus: usize) -> u64 {
    sum_gpus(snaps, gpus, |g| pcm_counter_name(g, TrafficKind::Topology))
        + sum_gpus(snaps, gpus, |g| pcm_counter_name(g, TrafficKind::Feature))
}

/// Feature-cache hit rate over every GPU of every snapshot.
pub fn feature_hit_rate(snaps: &[&Snapshot], gpus: usize) -> f64 {
    let hits = sum_gpus(snaps, gpus, |g| format!("cache.gpu{g}.feature_hits"));
    let misses = sum_gpus(snaps, gpus, |g| format!("cache.gpu{g}.feature_misses"));
    ratio(hits as f64, (hits + misses) as f64)
}

/// The per-layer metrics every workload's snapshots carry: sampling,
/// extraction, cache, hardware traffic, and pipeline stage times in
/// total and per batch. `snaps` holds one snapshot per simulated server;
/// `batches` is how many mini-batches they ran.
pub fn common_layers(p: &mut Phase, snaps: &[&Snapshot], gpus: usize, batches: u64) {
    let sim = Clock::Sim;
    let topo_tx = sum_gpus(snaps, gpus, |g| pcm_counter_name(g, TrafficKind::Topology));
    let feat_tx = sum_gpus(snaps, gpus, |g| pcm_counter_name(g, TrafficKind::Feature));
    let edges = sum_gpus(snaps, gpus, |g| format!("sample.gpu{g}.edges"));
    let rows = sum_gpus(snaps, gpus, |g| format!("extract.gpu{g}.rows"));
    let topo_hits = sum_gpus(snaps, gpus, |g| format!("cache.gpu{g}.topology_hits"));
    let topo_misses = sum_gpus(snaps, gpus, |g| format!("cache.gpu{g}.topology_misses"));
    let cpu_bytes = sum_gpus(snaps, gpus, |g| traffic_counter_name(g, Source::Cpu));
    let peer_bytes: u64 = (0..gpus)
        .map(|src| {
            sum_gpus(snaps, gpus, |dst| {
                traffic_counter_name(dst, Source::Gpu(src))
            })
        })
        .sum();
    let stage_ns =
        |stage: &str| sum_gpus(snaps, gpus, |g| format!("stage.gpu{g}.{stage}_ns")) as f64;
    let max_gpu_tx = snaps
        .iter()
        .flat_map(|s| {
            (0..gpus).map(move |g| {
                s.counter(&pcm_counter_name(g, TrafficKind::Topology))
                    + s.counter(&pcm_counter_name(g, TrafficKind::Feature))
            })
        })
        .max()
        .unwrap_or(0);
    let all_gpus = (gpus * snaps.len()) as f64;
    p.layer("sampling.edges", edges as f64, "count", sim);
    p.layer("sampling.topology_txns", topo_tx as f64, "count", sim);
    p.layer("extract.feature_txns", feat_tx as f64, "count", sim);
    p.layer("extract.rows", rows as f64, "count", sim);
    p.layer(
        "cache.feature_hit_rate",
        feature_hit_rate(snaps, gpus),
        "ratio",
        sim,
    );
    p.layer(
        "cache.topology_hit_rate",
        ratio(topo_hits as f64, (topo_hits + topo_misses) as f64),
        "ratio",
        sim,
    );
    p.layer("hw.cpu_mib", mib(cpu_bytes), "MiB", sim);
    p.layer("hw.nvlink_mib", mib(peer_bytes), "MiB", sim);
    p.layer("pipeline.sample_ms", stage_ns("sample") * 1e-6, "ms", sim);
    p.layer("pipeline.extract_ms", stage_ns("extract") * 1e-6, "ms", sim);
    p.layer("pipeline.train_ms", stage_ns("train") * 1e-6, "ms", sim);
    let per_batch_us = |stage: &str| ratio(stage_ns(stage) * 1e-3, batches as f64);
    p.layer(
        "pipeline.batch_sample_us",
        per_batch_us("sample"),
        "us",
        sim,
    );
    p.layer(
        "pipeline.batch_extract_us",
        per_batch_us("extract"),
        "us",
        sim,
    );
    p.layer(
        "pipeline.batch_compute_us",
        per_batch_us("train"),
        "us",
        sim,
    );
    p.layer(
        "pipeline.gpu_skew",
        ratio(max_gpu_tx as f64 * all_gpus, (topo_tx + feat_tx) as f64),
        "ratio",
        sim,
    );
}

/// A snapshot serialized, for byte-for-byte comparison.
pub fn snapshot_text(s: &Snapshot) -> String {
    serde_json::to_string(s).expect("snapshot serializes")
}

pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / MIB
}

/// A JSON object with the given entries, in order.
pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn num(x: f64) -> Value {
    Value::F64(x)
}

pub fn int(x: u64) -> Value {
    Value::U64(x)
}

pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}
