//! Golden behaviour pin for the offline epoch runner.
//!
//! Runs every system setup — all four schedule kinds — through each
//! public epoch entry point: the sequential runner with GraphSAGE and
//! with GCN, the out-of-core store runner, and the threaded runner
//! (which rejects GNNLab's factored schedule). Each line records the
//! digest of the run's full metric snapshot and the exact bits of its
//! epoch time, compared against `tests/golden/epoch_snapshots.txt`.
//! A refactor of the epoch loop that keeps behaviour keeps every line.
//!
//! Batch 16 gives each GPU's tablet several batches, so the store's
//! lookahead prefetcher has upcoming batches to stage; at batch 64
//! every tablet is one batch and the prefetcher never runs.
//!
//! On a mismatch the test prints the recomputed table. A deliberate
//! behaviour change replaces the data file with that table in its own
//! commit.

use legion_baselines::quiver::QuiverHotness;
use legion_baselines::{dgl, gnnlab, pagraph, quiver, BuildContext, SystemSetup};
use legion_core::runner::{
    run_epoch_parallel, run_epoch_with_model, run_epoch_with_store, EpochReport, EpochStoreConfig,
};
use legion_core::{legion_feature_cache_setup, legion_setup, LegionConfig};
use legion_gnn::ModelKind;
use legion_graph::dataset::{spec_by_name, Dataset};
use legion_hw::ServerSpec;

const GOLDEN: &str = include_str!("golden/epoch_snapshots.txt");

const SETUPS: [&str; 7] = [
    "legion",
    "legion_fc",
    "dgl",
    "pagraph",
    "pagraph_plus",
    "gnnlab",
    "quiver",
];
const RUNNERS: [&str; 4] = ["sage", "gcn", "store", "parallel"];

fn config() -> LegionConfig {
    LegionConfig {
        batch_size: 16,
        ..LegionConfig::small()
    }
}

fn build(name: &str, ctx: &BuildContext<'_>, config: &LegionConfig) -> SystemSetup {
    match name {
        "legion" => legion_setup(ctx, config),
        "legion_fc" => legion_feature_cache_setup(ctx, config, 50),
        "dgl" => dgl::setup(ctx),
        "pagraph" => pagraph::setup(ctx),
        "pagraph_plus" => pagraph::setup_plus(ctx),
        "gnnlab" => gnnlab::setup(ctx, 1),
        "quiver" => quiver::setup(ctx, QuiverHotness::InDegree),
        other => panic!("unknown setup {other}"),
    }
    .unwrap_or_else(|e| panic!("{name} setup failed: {e:?}"))
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs one setup through one runner on a fresh server.
fn run(d: &Dataset, setup_name: &str, runner: &str) -> EpochReport {
    let config = config();
    let server = ServerSpec::custom(4, 32 << 20, 2).build();
    let ctx = config.build_context(d, &server);
    let setup = build(setup_name, &ctx, &config);
    match runner {
        "sage" => run_epoch_with_model(&setup, &ctx, &config, ModelKind::GraphSage),
        "gcn" => run_epoch_with_model(&setup, &ctx, &config, ModelKind::Gcn),
        "store" => {
            let store = EpochStoreConfig {
                dram_budget_bytes: d.feature_bytes() / 10,
                staging_rows: 128,
                ..EpochStoreConfig::default()
            };
            run_epoch_with_store(&setup, &ctx, &config, ModelKind::GraphSage, &store)
        }
        "parallel" => run_epoch_parallel(&setup, &ctx, &config, ModelKind::GraphSage),
        other => panic!("unknown runner {other}"),
    }
}

#[test]
fn epoch_matrix_matches_the_golden_table() {
    let d = spec_by_name("PR").unwrap().instantiate(2000, 3);
    let mut lines = Vec::new();
    let mut digests = std::collections::HashMap::new();
    let mut store_counters = Vec::new();
    for setup in SETUPS {
        for runner in RUNNERS {
            if runner == "parallel" && setup == "gnnlab" {
                continue;
            }
            let report = run(&d, setup, runner);
            let json = serde_json::to_string(&report.metrics).expect("serializable snapshot");
            let digest = fnv1a64(json.as_bytes());
            let bits = report.epoch_seconds.to_bits();
            lines.push(format!("{setup}/{runner} {digest:016x} {bits:016x}"));
            digests.insert((setup, runner), digest);
            if runner == "store" {
                store_counters.push((
                    setup,
                    report.metrics.counter("epoch.store.prefetch_hits"),
                    report.metrics.counter("epoch.store.late_stalls"),
                ));
            }
        }
    }

    let table = lines.join("\n") + "\n";
    if table != GOLDEN {
        println!("recomputed golden table:\n{table}");
        panic!("epoch behaviour drifted from tests/golden/epoch_snapshots.txt");
    }
    for setup in SETUPS {
        let sage = digests[&(setup, "sage")];
        if let Some(&par) = digests.get(&(setup, "parallel")) {
            assert_eq!(
                par, sage,
                "{setup}: threaded runner differs from sequential"
            );
        }
        // A store run that reproduced the resident run would mean the
        // SSD tier never engaged.
        assert_ne!(digests[&(setup, "store")], sage, "{setup}: store inactive");
    }
    // The lookahead prefetcher must both land rows ahead of use and
    // sometimes finish late, or the store clock is not exercised.
    for (setup, hits, stalls) in store_counters {
        if setup == "legion_fc" || setup == "dgl" {
            assert!(hits > 0, "{setup}: no prefetch hits");
            assert!(stalls > 0, "{setup}: no late stalls");
        }
    }
}
