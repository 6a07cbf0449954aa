//! The single-server serving workloads, `serve-drift` and `serve-ooc`,
//! and the measured phase every serving workload shares: a knee search
//! and a run of nominal-rate calls, each over several request streams.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use legion_graph::dataset::spec_by_name;
use legion_graph::{Dataset, VertexId};
use legion_hw::{MultiGpuServer, ServerSpec};
use legion_serve::{
    estimate_capacity_rps, generate_workload_classed, serve_requests, ArrivalProcess, ClassConfig,
    ClassSampler, NvmeGeneration, PolicyKind, PriorityClass, Request, RouterPolicy, ServeConfig,
    ServeReport, StoreConfig, TargetSampler, CLASS_COUNT,
};
use legion_telemetry::{HistogramSample, Snapshot};

use crate::common::{
    common_layers, host_now, median, mib, pcie_txns, ratio, sample_host_speed, snapshot_text,
    timed_loop, Clock, Phase, RunCfg, DATASET_SEED,
};
use crate::trace::Tracer;
use crate::Workload;

/// PR is generated at 1/50 scale for every serving workload.
pub const PR_DIVISOR: u64 = 50;
/// Share of its offered requests each class must complete within its
/// own SLO for a rate to count as sustained.
const KNEE_ATTAINMENT: f64 = 0.99;
/// The knee search stops once its bracket is this narrow (hi / lo).
const KNEE_RESOLUTION: f64 = 1.02;
/// Request streams the knee search pools at every probed rate.
pub const KNEE_STREAMS: usize = 3;
/// Request streams served at the nominal rate; each simulated figure is
/// the median over them, and a run cycles through them until its time
/// is up.
pub const NOMINAL_STREAMS: usize = 5;

/// A serving workload: the server, the engine configuration, the stream
/// length, the fixed nominal rate and the knee search's bracket.
pub struct Serve {
    pub server: ServerSpec,
    /// The engine configuration; each run sets its seed, stream length,
    /// arrival rate and store.
    pub config: ServeConfig,
    pub requests: usize,
    pub nominal_rps: f64,
    pub knee_bracket: (f64, f64),
    /// Whether DRAM holds only a tenth of the feature table.
    pub oversubscribe: bool,
}

/// `serve-drift`: two 2-GPU cliques, residency routing, a 20/50/30
/// Interactive/Standard/Batch mix under QoS, the re-planning cache and a
/// drifting Zipf-1.8 hot set.
pub fn serve_drift() -> Serve {
    let mut config = ServeConfig {
        policy: PolicyKind::Replan,
        cache_rows_per_gpu: 2048,
        zipf_exponent: 1.8,
        drift_period: 2000,
        drift_stride: 4096,
        classes: ClassConfig {
            mix: [0.2, 0.5, 0.3],
            qos: true,
            ..ClassConfig::default()
        },
        ..ServeConfig::default()
    };
    config.router.policy = RouterPolicy::Residency;
    Serve {
        server: ServerSpec::custom(4, 1 << 30, 2),
        config,
        requests: 24_000,
        nominal_rps: 3.6e6,
        knee_bracket: (4e6, 12e6),
        oversubscribe: false,
    }
}

/// `serve-ooc`: `servectl --oversubscribe`: DRAM holds a tenth of the
/// feature table, the rest sits on the NVMe tier behind the lookahead
/// prefetcher; single-hop fanout, 64 HBM rows per GPU, Zipf 1.8.
pub fn serve_ooc() -> Serve {
    Serve {
        server: ServerSpec::dgx_v100().truncated(4),
        config: ServeConfig {
            policy: PolicyKind::StaticHot,
            zipf_exponent: 1.8,
            drift_period: 0,
            fanouts: vec![8],
            max_wait: 4e-4,
            cache_rows_per_gpu: 64,
            ..ServeConfig::default()
        },
        requests: 200_000,
        nominal_rps: 2.8e5,
        knee_bracket: (2.5e5, 9e5),
        oversubscribe: true,
    }
}

pub struct State {
    dataset: Dataset,
    server: MultiGpuServer,
    config: ServeConfig,
    /// Per stream: the engine seed (warmup profile, sampling, re-plans)
    /// and the requests at the nominal rate; other rates rescale their
    /// arrivals.
    streams: Vec<(u64, Vec<Request>)>,
    capacity_rps: f64,
}

/// PR at 1/50, the serving workloads' dataset.
pub fn generate_pr(tr: &Tracer) -> Dataset {
    tr.span("graph.generate", || {
        spec_by_name("PR")
            .expect("PR is registered")
            .instantiate(PR_DIVISOR, DATASET_SEED)
    })
}

impl Workload for Serve {
    type State = State;

    fn setup(&self, cfg: &RunCfg, tr: &Tracer) -> State {
        let dataset = generate_pr(tr);
        let server = self.server.build();
        let mut config = self.config.clone();
        config.seed = cfg.derive(2);
        config.num_requests = self.requests;
        config.arrival = ArrivalProcess::Poisson {
            rate: self.nominal_rps,
        };
        if self.oversubscribe {
            config.store = ooc_store(&dataset);
        }
        let streams = tr.span("serve.workload_gen", || {
            (0..NOMINAL_STREAMS as u64)
                .map(|k| {
                    (
                        cfg.derive(20 + k),
                        generate_stream(cfg, k, &dataset, &config),
                    )
                })
                .collect()
        });
        let capacity_rps = tr.span("serve.capacity_probe", || {
            estimate_capacity_rps(&dataset.graph, &dataset.features, &server, &config)
        });
        State {
            dataset,
            server,
            config,
            streams,
            capacity_rps,
        }
    }

    fn measure(&self, cfg: &RunCfg, st: &State, tr: &Tracer, fixed: Option<usize>) -> Phase {
        let mut p = Phase::default();
        let offered: Vec<[u64; CLASS_COUNT]> =
            st.streams.iter().map(|(_, s)| class_counts(s)).collect();
        let run = ServingRun {
            knee_bracket: self.knee_bracket,
            nominal_rps: self.nominal_rps,
            gpus: st.server.num_gpus(),
            offered: &offered,
        };
        let reports = run.measure(cfg, fixed, &mut p, |stream, rate| {
            let scale = self.nominal_rps / rate;
            let (seed, requests) = &st.streams[stream];
            let config = ServeConfig {
                seed: *seed,
                ..st.config.clone()
            };
            let requests: Vec<Request> = requests
                .iter()
                .map(|r| Request {
                    arrival: r.arrival * scale,
                    ..*r
                })
                .collect();
            tr.span("serve.engine", || {
                serve_requests(
                    &st.dataset.graph,
                    &st.dataset.features,
                    &st.server,
                    &config,
                    &requests,
                )
            })
        });
        let r = &reports[0];
        let gpus = run.gpus;
        let snaps = [&r.metrics];
        common_layers(&mut p, &snaps, gpus, sum_counter(&snaps, gpus, BATCHES));
        serve_layers(&mut p, &[r], gpus, st.capacity_rps);
        router_layers(&mut p, r);
        store_layers(&mut p, &r.metrics);
        p
    }
}

/// Requests of each priority class in a stream.
fn class_counts(stream: &[Request]) -> [u64; CLASS_COUNT] {
    let mut n = [0u64; CLASS_COUNT];
    for r in stream {
        n[r.class.index()] += 1;
    }
    n
}

/// Per-GPU batch counters of a serving snapshot.
pub const BATCHES: &str = "serve.gpu{g}.batches";

/// What the shared measured phase reads from one engine call: one
/// single-server report, or a fleet's.
pub trait Served {
    /// One report per simulated server.
    fn servers(&self) -> Vec<&ServeReport>;
    /// The latency histogram over every server, microseconds.
    fn latency_us(&self) -> Option<&HistogramSample>;
    /// Every simulated output, serialized.
    fn text(&self) -> String;
}

impl Served for ServeReport {
    fn servers(&self) -> Vec<&ServeReport> {
        vec![self]
    }
    fn latency_us(&self) -> Option<&HistogramSample> {
        self.metrics.histogram("serve.latency_us")
    }
    fn text(&self) -> String {
        snapshot_text(&self.metrics)
    }
}

/// The measured phase of a serving workload.
pub struct ServingRun<'a> {
    pub knee_bracket: (f64, f64),
    pub nominal_rps: f64,
    /// GPUs per server.
    pub gpus: usize,
    /// Requests per class in each stream.
    pub offered: &'a [[u64; CLASS_COUNT]],
}

impl ServingRun<'_> {
    /// Searches the knee over the first `KNEE_STREAMS` streams, then
    /// serves the streams at the nominal rate in turn until the run's
    /// time is up, checking every call. Records the end-to-end metrics
    /// and returns the nominal reports, one per stream. The host
    /// throughputs are totals over every call of the run: summing many
    /// streams' work evens out how much work each stream happens to be.
    pub fn measure<R: Served>(
        &self,
        cfg: &RunCfg,
        fixed: Option<usize>,
        p: &mut Phase,
        mut call: impl FnMut(usize, f64) -> R,
    ) -> Vec<R> {
        let start = Instant::now();
        // Per call: host seconds, completed requests, batches.
        let mut work: Vec<(f64, u64, u64)> = Vec::new();
        let gpus = self.gpus;
        let mut checked = |p: &mut Phase, stream: usize, rate: f64| -> R {
            sample_host_speed();
            let t = host_now();
            let r = call(stream, rate);
            let host_s = host_now() - t;
            let servers = r.servers();
            let snaps: Vec<&Snapshot> = servers.iter().map(|s| &s.metrics).collect();
            let done = servers.iter().map(|s| s.completed).sum();
            work.push((host_s, done, sum_counter(&snaps, gpus, BATCHES)));
            self.check_conservation(p, stream, rate, &servers);
            r
        };
        let knee = knee_search(p, self.knee_bracket, |p, rate| {
            let probes: Vec<R> = (0..KNEE_STREAMS).map(|k| checked(p, k, rate)).collect();
            for r in &probes {
                p.record_output(format!("knee probe {rate}: {}", r.text()));
            }
            let servers: Vec<Vec<&ServeReport>> = probes.iter().map(|r| r.servers()).collect();
            meets_slo(&servers, &self.offered[..KNEE_STREAMS])
        });

        let budget = cfg.seconds - start.elapsed().as_secs_f64();
        let mut reports: Vec<R> = Vec::new();
        let nominal_calls = timed_loop(budget, NOMINAL_STREAMS, fixed, |i| {
            let k = i % NOMINAL_STREAMS;
            let r = checked(p, k, self.nominal_rps);
            if i < NOMINAL_STREAMS {
                p.record_output(format!("nominal {k}: {}", r.text()));
                reports.push(r);
            } else {
                p.check(
                    "a repeated nominal call reproduces the first byte for byte",
                    r.text() == reports[k].text(),
                    format!("stream {k}"),
                );
            }
        });

        let per_stream = |f: &dyn Fn(&R) -> f64| -> f64 {
            let mut xs: Vec<f64> = reports.iter().map(f).collect();
            median(&mut xs)
        };
        let servers_of = |r: &R| -> (u64, u64, u64) {
            r.servers().iter().fold((0, 0, 0), |(o, c, s), x| {
                (o + x.offered, c + x.completed, s + x.shed)
            })
        };
        let (offered, completed, shed) = reports
            .iter()
            .map(servers_of)
            .fold((0, 0, 0), |(o, c, s), (a, b, d)| (o + a, c + b, s + d));
        p.attempted = offered;
        p.failed = shed;
        let busy_ms = per_stream(&|r| {
            let servers = r.servers();
            let snaps: Vec<&Snapshot> = servers.iter().map(|s| &s.metrics).collect();
            let all_gpus = (gpus * servers.len()) as f64;
            sum_counter(&snaps, gpus, "serve.gpu{g}.busy_ns") as f64 * 1e-6 / all_gpus
        });
        let pcie = per_stream(&|r| {
            let snaps: Vec<&Snapshot> = r.servers().iter().map(|s| &s.metrics).collect();
            pcie_txns(&snaps, gpus) as f64
        });
        // The engine's own quantiles, before it rounds them to whole
        // microseconds.
        let quantile = |r: &R, q| r.latency_us().map_or(0.0, |h| hist_quantile(h, q));
        let p50 = per_stream(&|r| quantile(r, 0.5));
        let p99 = per_stream(&|r| quantile(r, 0.99));
        let host_s: f64 = work.iter().map(|w| w.0).sum();
        let done: u64 = work.iter().map(|w| w.1).sum();
        let batches: u64 = work.iter().map(|w| w.2).sum();
        p.calls = nominal_calls.len();
        p.call_s = work.iter().map(|w| w.0).collect();
        p.e2e(
            "served_frac",
            ratio(completed as f64, offered as f64),
            "ratio",
            Clock::Sim,
        );
        p.e2e(
            "batches_per_host_s",
            batches as f64 / host_s,
            "batches/s",
            Clock::Host,
        );
        p.e2e(
            "sim_requests_per_host_s",
            done as f64 / host_s,
            "req/s",
            Clock::Host,
        );
        p.e2e("sim_epoch_ms", busy_ms, "ms", Clock::Sim);
        p.e2e("pcie_txns_per_epoch", pcie, "count", Clock::Sim);
        p.e2e("knee_rps", knee, "req/s", Clock::Sim);
        p.e2e("sim_p50_us", p50, "us", Clock::Sim);
        p.e2e("sim_p99_us", p99, "us", Clock::Sim);
        reports
    }

    /// `offered == completed + shed`, per server and per class.
    fn check_conservation(
        &self,
        p: &mut Phase,
        stream: usize,
        rate: f64,
        servers: &[&ServeReport],
    ) {
        let want = self.offered[stream];
        let sum = |f: &dyn Fn(&ServeReport) -> u64| servers.iter().map(|s| f(s)).sum::<u64>();
        let mut ok = sum(&|s| s.offered) == want.iter().sum::<u64>()
            && servers.iter().all(|s| s.completed + s.shed == s.offered);
        if want.iter().filter(|&&n| n > 0).count() > 1 {
            for (c, &n) in want.iter().enumerate() {
                ok &= sum(&|s| s.class_completed[c] + s.class_shed[c]) == n;
            }
        }
        p.check(
            format!("offered == completed + shed, stream {stream} at {rate:.0} req/s"),
            ok,
            format!(
                "offered {want:?}, completed {}, shed {}",
                sum(&|s| s.completed),
                sum(&|s| s.shed)
            ),
        );
    }
}

/// `servectl --oversubscribe`'s store: a DRAM budget of a tenth of the
/// feature table, a staging window and prefetch depth sized to keep the
/// SSD rows of the working set staged below the knee.
fn ooc_store(dataset: &Dataset) -> StoreConfig {
    StoreConfig {
        dram_budget_bytes: Some(dataset.feature_bytes() / 10),
        staging_rows: 3072,
        nvme: NvmeGeneration::Gen3x4,
        lookahead_requests: 64,
        prefetch_neighbors: 64,
        prefetch_budget: 512,
    }
}

/// Stream `k` of the run: the open-loop stream `serve` would draw, from
/// seeds derived from the run's.
fn generate_stream(cfg: &RunCfg, k: u64, dataset: &Dataset, config: &ServeConfig) -> Vec<Request> {
    let all: Vec<VertexId> = (0..dataset.graph.num_vertices() as VertexId).collect();
    let mut targets = TargetSampler::new(
        all,
        config.zipf_exponent,
        config.drift_period,
        config.drift_stride,
    );
    if config.classes.mix[PriorityClass::Interactive.index()] > 0.0 {
        targets = targets.with_interactive_boost(config.classes.interactive_boost);
    }
    let mut classes = ClassSampler::new(config.classes.mix, cfg.derive(30 + k));
    let mut rng = StdRng::seed_from_u64(cfg.derive(40 + k));
    generate_workload_classed(
        &config.arrival,
        &mut targets,
        &mut classes,
        config.num_requests,
        &mut rng,
    )
}

/// Whether every priority class kept `KNEE_ATTAINMENT` of its offered
/// requests within its own SLO, pooled over the streams; a shed request
/// is a miss. `reports[k]` holds stream `k`'s reports, one per server.
fn meets_slo(reports: &[Vec<&ServeReport>], offered: &[[u64; CLASS_COUNT]]) -> bool {
    let servers = || reports.iter().flatten();
    let total: u64 = offered.iter().flatten().sum();
    let multi = offered
        .iter()
        .any(|o| o.iter().filter(|&&n| n > 0).count() > 1);
    if !multi {
        let within: f64 = servers()
            .map(|r| (r.slo_attainment * r.completed as f64).round())
            .sum();
        return within >= KNEE_ATTAINMENT * total as f64;
    }
    (0..CLASS_COUNT).all(|c| {
        let within: f64 = servers()
            .map(|r| (r.class_slo_attainment[c] * r.class_completed[c] as f64).round())
            .sum();
        let want: u64 = offered.iter().map(|o| o[c]).sum();
        within >= KNEE_ATTAINMENT * want as f64
    })
}

/// Geometric bisection over a fixed bracket until `hi / lo` is at most
/// `KNEE_RESOLUTION`. Returns the highest rate that passed (the bracket's
/// low end when none did). Checks that the bracket held the knee: at
/// least one probe passed and one failed.
fn knee_search(
    p: &mut Phase,
    (mut lo, mut hi): (f64, f64),
    mut passes: impl FnMut(&mut Phase, f64) -> bool,
) -> f64 {
    let (mut passed, mut failed) = (false, false);
    while hi / lo > KNEE_RESOLUTION {
        let mid = (lo * hi).sqrt();
        if passes(p, mid) {
            lo = mid;
            passed = true;
        } else {
            hi = mid;
            failed = true;
        }
    }
    p.check(
        "knee lies inside the search bracket",
        passed && failed,
        format!("knee {lo:.0} req/s"),
    );
    lo
}

pub fn sum_counter(snaps: &[&Snapshot], gpus: usize, pattern: &str) -> u64 {
    snaps
        .iter()
        .map(|s| {
            (0..gpus)
                .map(|g| s.counter(&pattern.replace("{g}", &g.to_string())))
                .sum::<u64>()
        })
        .sum()
}

/// `legion-serve` per-layer metrics over one report per server.
pub fn serve_layers(p: &mut Phase, reports: &[&ServeReport], gpus: usize, capacity_rps: f64) {
    let snaps: Vec<&Snapshot> = reports.iter().map(|r| &r.metrics).collect();
    let batches = sum_counter(&snaps, gpus, BATCHES) as f64;
    let busy_ns = sum_counter(&snaps, gpus, "serve.gpu{g}.busy_ns") as f64;
    let completed: u64 = reports.iter().map(|r| r.completed).sum();
    let gpu_ns: f64 = reports
        .iter()
        .map(|r| r.makespan_s * 1e9 * gpus as f64)
        .sum();
    let sim = Clock::Sim;
    p.layer("serve.capacity_rps", capacity_rps, "req/s", sim);
    p.layer("serve.nominal_completed", completed as f64, "count", sim);
    p.layer(
        "serve.batch_size",
        ratio(completed as f64, batches),
        "requests",
        sim,
    );
    p.layer("serve.gpu_busy_frac", ratio(busy_ns, gpu_ns), "ratio", sim);
    let replans: u64 = snaps.iter().map(|s| s.counter("serve.replan.count")).sum();
    let swap: u64 = snaps
        .iter()
        .map(|s| s.counter("serve.replan.swap_bytes"))
        .sum();
    p.layer("serve.replan.count", replans as f64, "count", sim);
    p.layer("serve.replan.swap_mib", mib(swap), "MiB", sim);
}

fn router_layers(p: &mut Phase, r: &ServeReport) {
    let sim = Clock::Sim;
    p.layer("router.route_locality", r.route_locality, "ratio", sim);
    p.layer(
        "router.spilled_frac",
        ratio(r.spilled as f64, r.offered as f64),
        "ratio",
        sim,
    );
    let [i, s, b] = r.class_p99_us;
    p.layer("router.class_p99_us.interactive", i as f64, "us", sim);
    p.layer("router.class_p99_us.standard", s as f64, "us", sim);
    p.layer("router.class_p99_us.batch", b as f64, "us", sim);
}

fn store_layers(p: &mut Phase, s: &Snapshot) {
    let hits = s.counter("serve.store.prefetch_hits");
    let stalls = s.counter("serve.store.late_stalls");
    let cold = s.counter("serve.store.cold_reads");
    let sim = Clock::Sim;
    p.layer(
        "store.prefetch_ratio",
        ratio(hits as f64, (hits + stalls + cold) as f64),
        "ratio",
        sim,
    );
    p.layer(
        "store.nvme_mib",
        mib(s.counter("store.nvme.bytes")),
        "MiB",
        sim,
    );
    let p99 = s
        .histogram("store.nvme.read_us")
        .map_or(0.0, |h| hist_quantile(h, 0.99));
    p.layer("store.nvme_read_p99_us", p99, "us", sim);
    p.layer("store.cold_reads", cold as f64, "count", sim);
    p.layer("store.late_stalls", stalls as f64, "count", sim);
}

/// A histogram quantile, interpolated within its bucket the way
/// `legion_telemetry::Histogram::quantile` does.
fn hist_quantile(h: &HistogramSample, q: f64) -> f64 {
    let total: u64 = h.counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut below = 0u64;
    for (i, &c) in h.counts.iter().enumerate() {
        if below + c >= rank {
            if i == h.bounds.len() {
                return h.bounds.last().copied().unwrap_or(0) as f64;
            }
            let lower = if i == 0 { 0 } else { h.bounds[i - 1] } as f64;
            let upper = h.bounds[i] as f64;
            return lower + (upper - lower) * (rank - below) as f64 / c as f64;
        }
        below += c;
    }
    0.0
}
