//! Golden behaviour pin for the serving engine.
//!
//! Runs a fixed matrix of serving configurations — every cache policy
//! under every feature tier (plain, out-of-core store, flat and
//! coalesced remote reads, streaming churn) and both routers, plus the
//! sharded loop — and compares each run's snapshot digest, completion
//! and shed counts and p99 against `tests/golden/serve_snapshots.txt`.
//! An overloaded run of the plain and store tiers covers full batches,
//! queueing, prefetch and shedding. The capacity probes — QoS and
//! single-class mixes, with and without the store, on the clique server
//! and on a DGX-V100 — are pinned by the exact bits of their `f64`
//! estimate. A refactor of the batch path that keeps behaviour keeps
//! every line of the table.
//!
//! On a mismatch the test prints the recomputed table. A deliberate
//! behaviour change replaces the data file with that table in its own
//! commit.

use std::sync::Arc;

use legion_graph::dataset::{spec_by_name, Dataset};
use legion_hw::{MultiGpuServer, ServerSpec};
use legion_serve::{
    estimate_capacity_rps, serve, ArrivalProcess, ChurnConfig, ClassConfig, CoalesceConfig,
    MutationSource, NetGeneration, NetModel, PolicyKind, RemoteConfig, ReplanConfig, RouterPolicy,
    ServeConfig,
};

const GOLDEN: &str = include_str!("golden/serve_snapshots.txt");

const POLICIES: [PolicyKind; 3] = [PolicyKind::StaticHot, PolicyKind::Fifo, PolicyKind::Replan];
const ROUTERS: [RouterPolicy; 2] = [RouterPolicy::RoundRobin, RouterPolicy::Residency];
const TIERS: [&str; 7] = [
    "plain",
    "store",
    "remote",
    "coalesced",
    "churn",
    "overload",
    "overload_store",
];

fn dataset() -> Dataset {
    spec_by_name("PR").unwrap().instantiate(500, 42)
}

/// Two NVLink cliques of two GPUs, so `shards = 2` splits the loop and
/// the partitioned layout has real peer reads.
fn clique_server() -> MultiGpuServer {
    ServerSpec::custom(4, 1 << 30, 2).build()
}

/// The sharded-serving base config of the determinism suite: a QoS
/// multi-class mix, and forced drift with an eager detector under
/// Replan so plans commit mid-run.
fn base_config(policy: PolicyKind, router: RouterPolicy) -> ServeConfig {
    let mut cfg = ServeConfig {
        num_requests: 1600,
        max_batch: 16,
        max_wait: 0.0,
        queue_capacity: 256,
        cache_rows_per_gpu: 512,
        warmup_requests: 128,
        fanouts: vec![5, 3],
        policy,
        classes: ClassConfig {
            mix: [0.2, 0.5, 0.3],
            qos: true,
            ..ClassConfig::default()
        },
        ..ServeConfig::default()
    };
    cfg.router.policy = router;
    if policy == PolicyKind::Replan {
        cfg.drift_period = 300;
        cfg.drift_stride = 1024;
        cfg.replan = ReplanConfig {
            bucket_requests: 16,
            window_buckets: 2,
            cooldown_buckets: 0,
            ..ReplanConfig::default()
        };
    }
    cfg
}

/// Enables one feature tier on `cfg`. Remote tiers treat this server
/// as server 0 of a two-server fleet that owns the even vertices. The
/// base arrival rate leaves every batch a single request, so the two
/// overload tiers offer about twice the probed capacity (with and
/// without the store) to fill batches, queue, prefetch and shed.
fn with_tier(mut cfg: ServeConfig, tier: &str, num_vertices: usize) -> ServeConfig {
    let remote = |coalesce: Option<CoalesceConfig>| RemoteConfig {
        owned: Arc::new((0..num_vertices).map(|v| v % 2 == 0).collect()),
        net: NetModel::new(NetGeneration::Eth100G),
        coalesce,
        concurrent_servers: 2,
    };
    match tier {
        "plain" => {}
        "store" => cfg.store.dram_budget_bytes = Some(4096),
        "remote" => cfg.remote = Some(remote(None)),
        "coalesced" => {
            cfg.remote = Some(remote(Some(CoalesceConfig {
                shard: Arc::new((0..num_vertices as u32).map(|v| v % 2).collect()),
                num_servers: 2,
                window_batches: 2,
            })))
        }
        "churn" => {
            cfg.mutations = Some(MutationSource::Generate(ChurnConfig {
                ops_per_sec: 20_000.0,
                compact_threshold: 256,
                ..ChurnConfig::default()
            }))
        }
        "overload" => cfg.arrival = ArrivalProcess::Poisson { rate: 1.0e7 },
        "overload_store" => {
            cfg.store.dram_budget_bytes = Some(4096);
            cfg.arrival = ArrivalProcess::Poisson { rate: 2.0e5 };
        }
        other => panic!("unknown tier {other}"),
    }
    cfg
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One serving config's golden line: name, snapshot digest,
/// completed, shed, p99.
fn serve_line(d: &Dataset, name: &str, cfg: &ServeConfig) -> (String, u64) {
    let server = clique_server();
    let report = serve(&d.graph, &d.features, &server, cfg);
    let json = serde_json::to_string(&report.metrics).expect("serializable snapshot");
    let digest = fnv1a64(json.as_bytes());
    let line = format!(
        "{name} {digest:016x} completed={} shed={} p99_us={}",
        report.completed, report.shed, report.p99_us
    );
    (line, digest)
}

#[test]
fn serving_matrix_matches_the_golden_table() {
    let d = dataset();
    let n = d.graph.num_vertices();
    let mut lines = Vec::new();
    let mut tier_digests = Vec::new();
    for policy in POLICIES {
        for router in ROUTERS {
            let mut plain = 0u64;
            for tier in TIERS {
                let name = format!("{}/{tier}/{}", policy.as_str(), router.as_str());
                let cfg = with_tier(base_config(policy, router), tier, n);
                let (line, digest) = serve_line(&d, &name, &cfg);
                if tier == "plain" {
                    plain = digest;
                } else {
                    tier_digests.push((name, digest, plain));
                }
                lines.push(line);
            }
            let mut cfg = base_config(policy, router);
            cfg.shards = 2;
            let name = format!("{}/shards2/{}", policy.as_str(), router.as_str());
            lines.push(serve_line(&d, &name, &cfg).0);
        }
    }
    for router in ROUTERS {
        for store in [false, true] {
            let mut cfg = base_config(PolicyKind::StaticHot, router);
            if store {
                cfg = with_tier(cfg, "store", n);
            }
            let server = clique_server();
            let bits = estimate_capacity_rps(&d.graph, &d.features, &server, &cfg).to_bits();
            let tier = if store { "store" } else { "plain" };
            lines.push(format!("probe/{tier}/{} {bits:016x}", router.as_str()));
        }
        // The single-class default mix, beside the base config's QoS
        // mix above.
        let mut cfg = base_config(PolicyKind::StaticHot, router);
        cfg.classes = ClassConfig::default();
        let bits = estimate_capacity_rps(&d.graph, &d.features, &clique_server(), &cfg).to_bits();
        lines.push(format!("probe/single/{} {bits:016x}", router.as_str()));
        // The server shape whose probe sets a fleet's drain rate.
        let cfg = base_config(PolicyKind::StaticHot, router);
        let dgx = ServerSpec::dgx_v100().build();
        let bits = estimate_capacity_rps(&d.graph, &d.features, &dgx, &cfg).to_bits();
        lines.push(format!("probe/dgx_v100/{} {bits:016x}", router.as_str()));
    }

    let table = lines.join("\n") + "\n";
    if table != GOLDEN {
        println!("recomputed golden table:\n{table}");
        panic!("serving behaviour drifted from tests/golden/serve_snapshots.txt");
    }
    // A tier that silently stopped running would reproduce `plain`.
    for (name, digest, plain) in tier_digests {
        assert_ne!(digest, plain, "{name} matches its plain run: tier inactive");
    }
}
