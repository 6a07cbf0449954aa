//! `fleet-churn`: four 4-GPU DGX-V100 servers on PR at 1/50 behind the
//! residency fleet router, with per-owner coalescing, the default 4:1
//! uplink contention, StaticHot caches, and a replayed mutation log at a
//! quarter of the offered request rate.

use std::sync::Arc;

use legion_dyn::{ChurnConfig, Mutation, MutationLog, MutationSource};
use legion_fleet::{plan_fleet, serve_fleet, FleetConfig, FleetPolicy, FleetReport};
use legion_graph::Dataset;
use legion_hw::{ServerSpec, UplinkConfig};
use legion_serve::{estimate_capacity_rps, ArrivalProcess, PolicyKind, ServeConfig, ServeReport};
use legion_telemetry::{HistogramSample, Snapshot};

use crate::common::{common_layers, mib, ratio, snapshot_text, Check, Clock, Phase, RunCfg};
use crate::serving::{
    generate_pr, serve_layers, sum_counter, Served, ServingRun, BATCHES, NOMINAL_STREAMS,
};
use crate::trace::Tracer;
use crate::Workload;

const SERVERS: usize = 4;
const GPUS: usize = 4;
const REQUESTS: usize = 48_000;
const NOMINAL_RPS: f64 = 5.7e6;
const KNEE_BRACKET: (f64, f64) = (5e6, 16e6);
/// Mutations per offered request.
const WRITE_SHARE: f64 = 0.25;

pub struct FleetChurn;

pub struct State {
    dataset: Dataset,
    spec: ServerSpec,
    base: ServeConfig,
    fleet: FleetConfig,
    /// Per stream: the engine seed (which draws the fleet's request
    /// stream) and the mutation log at the nominal rate; other rates
    /// rescale the log.
    streams: Vec<(u64, MutationLog)>,
    compact_threshold: usize,
    capacity_rps: f64,
}

impl State {
    /// The engine config of stream `k` at `rate`: the request stream and
    /// the mutation log both run `rate / NOMINAL_RPS` times faster.
    fn config_at(&self, k: usize, rate: f64) -> ServeConfig {
        let scale = NOMINAL_RPS / rate;
        let (seed, log) = &self.streams[k];
        let log = MutationLog {
            ops: log
                .ops
                .iter()
                .map(|m| Mutation {
                    at: m.at * scale,
                    op: m.op,
                })
                .collect(),
        };
        ServeConfig {
            arrival: ArrivalProcess::Poisson { rate },
            seed: *seed,
            mutations: Some(MutationSource::Replay {
                log: Arc::new(log),
                compact_threshold: self.compact_threshold,
            }),
            ..self.base.clone()
        }
    }
}

impl Workload for FleetChurn {
    type State = State;

    fn setup(&self, cfg: &RunCfg, tr: &Tracer) -> State {
        let dataset = generate_pr(tr);
        let spec = ServerSpec::dgx_v100().truncated(GPUS);
        let base = ServeConfig {
            policy: PolicyKind::StaticHot,
            num_requests: REQUESTS,
            arrival: ArrivalProcess::Poisson { rate: NOMINAL_RPS },
            seed: cfg.derive(2),
            ..ServeConfig::default()
        };
        let churn = ChurnConfig {
            ops_per_sec: WRITE_SHARE * NOMINAL_RPS,
            ..ChurnConfig::default()
        };
        // The log spans the nominal stream: REQUESTS arrivals at the
        // nominal rate, plus slack for the Poisson tail.
        let horizon = 1.1 * REQUESTS as f64 / NOMINAL_RPS;
        let streams = tr.span("dyn.log_gen", || {
            (0..NOMINAL_STREAMS as u64)
                .map(|k| {
                    let log =
                        MutationLog::generate(&dataset.graph, &churn, cfg.derive(50 + k), horizon);
                    (cfg.derive(20 + k), log)
                })
                .collect()
        });
        let capacity_rps = tr.span("serve.capacity_probe", || {
            estimate_capacity_rps(&dataset.graph, &dataset.features, &spec.build(), &base)
        });
        let fleet = FleetConfig {
            num_servers: SERVERS,
            policy: FleetPolicy::Residency,
            drain_rps: Some(capacity_rps),
            uplink: Some(UplinkConfig::default()),
            coalesce: true,
            ..FleetConfig::default()
        };
        // Timed as set-up; `serve_fleet` plans again for each stream.
        tr.span("fleet.plan", || plan_fleet(&dataset.graph, &base, &fleet));
        State {
            dataset,
            spec,
            base,
            fleet,
            streams,
            compact_threshold: churn.compact_threshold,
            capacity_rps,
        }
    }

    fn measure(&self, cfg: &RunCfg, st: &State, tr: &Tracer, fixed: Option<usize>) -> Phase {
        let mut p = Phase::default();
        let offered = [[0, REQUESTS as u64, 0]; NOMINAL_STREAMS];
        let run = ServingRun {
            knee_bracket: KNEE_BRACKET,
            nominal_rps: NOMINAL_RPS,
            gpus: GPUS,
            offered: &offered,
        };
        let mut fleet_checks = Vec::new();
        let reports = run.measure(cfg, fixed, &mut p, |k, rate| {
            let config = st.config_at(k, rate);
            let r = tr.span("fleet.serve", || {
                serve_fleet(
                    &st.dataset.graph,
                    &st.dataset.features,
                    &st.spec,
                    &config,
                    &st.fleet,
                )
            });
            fleet_checks.push(check_fleet(k, rate, &r));
            r
        });
        p.checks.extend(fleet_checks);
        let r = &reports[0];
        let snaps: Vec<&Snapshot> = r.per_server.iter().map(|s| &s.metrics).collect();
        common_layers(&mut p, &snaps, GPUS, sum_counter(&snaps, GPUS, BATCHES));
        serve_layers(&mut p, &r.servers(), GPUS, st.capacity_rps);
        fleet_layers(&mut p, r, &snaps);
        p
    }
}

impl Served for FleetReport {
    fn servers(&self) -> Vec<&ServeReport> {
        self.per_server.iter().collect()
    }
    fn latency_us(&self) -> Option<&HistogramSample> {
        self.metrics.histogram("fleet.latency_us")
    }
    fn text(&self) -> String {
        fleet_text(self)
    }
}

fn fleet_text(r: &FleetReport) -> String {
    let mut s = snapshot_text(&r.metrics);
    for server in &r.per_server {
        s.push_str(&snapshot_text(&server.metrics));
    }
    s
}

/// The fleet's own totals: offered == completed + shed, and the
/// per-server totals sum to the fleet's.
fn check_fleet(k: usize, rate: f64, r: &FleetReport) -> Check {
    let sum = |f: fn(&ServeReport) -> u64| r.per_server.iter().map(f).sum::<u64>();
    let servers = (sum(|s| s.offered), sum(|s| s.completed), sum(|s| s.shed));
    let fleet = (r.offered, r.completed, r.shed);
    Check {
        name: format!(
            "fleet totals conserve and match the servers', stream {k} at {rate:.0} req/s"
        ),
        ok: r.completed + r.shed == r.offered
            && servers == fleet
            && sum(|s| s.metrics.counter("serve.remote.reads")) == r.remote_reads,
        detail: format!("fleet {fleet:?}, servers {servers:?}"),
    }
}

fn fleet_layers(p: &mut Phase, r: &FleetReport, snaps: &[&Snapshot]) {
    let sim = Clock::Sim;
    let rows = sum_counter(snaps, GPUS, "extract.gpu{g}.rows");
    let per_server: Vec<f64> = r.per_server.iter().map(|s| s.completed as f64).collect();
    let mean = per_server.iter().sum::<f64>() / per_server.len() as f64;
    let max = per_server.iter().copied().fold(0.0, f64::max);
    let per_server_sum = |name: &str| snaps.iter().map(|s| s.counter(name)).sum::<u64>();
    p.layer(
        "fleet.row_locality",
        1.0 - ratio(r.remote_reads as f64, rows as f64),
        "ratio",
        sim,
    );
    p.layer("fleet.probe_locality", r.locality, "ratio", sim);
    p.layer(
        "fleet.replicated_rows",
        r.replicated_rows as f64,
        "count",
        sim,
    );
    p.layer("fleet.remote_mib", mib(r.remote_bytes), "MiB", sim);
    p.layer("fleet.remote_msgs", r.remote_msgs as f64, "count", sim);
    p.layer("fleet.dedup_hits", r.dedup_hits as f64, "count", sim);
    p.layer(
        "fleet.uplink_stretch",
        r.metrics.gauge("fleet.uplink.stretch"),
        "ratio",
        sim,
    );
    p.layer("fleet.server_skew", ratio(max, mean), "ratio", sim);
    p.layer(
        "dyn.applied",
        r.metrics.counter("fleet.mut.applied") as f64,
        "count",
        sim,
    );
    p.layer(
        "dyn.compactions",
        per_server_sum("graph.mut.compactions") as f64,
        "count",
        sim,
    );
    p.layer(
        "dyn.invalidated_rows",
        per_server_sum("serve.invalidate.topo_rows") as f64,
        "count",
        sim,
    );
    p.layer(
        "dyn.residency_bits",
        per_server_sum("serve.invalidate.residency_bits") as f64,
        "count",
        sim,
    );
    p.layer(
        "dyn.notify_mib",
        mib(r.metrics.counter("fleet.mut.notify_bytes")),
        "MiB",
        sim,
    );
}
