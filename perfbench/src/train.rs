//! `train-uks`: Legion training on UKS (R-MAT, 1/1000 scale) on the
//! scaled DGX-V100, with the `LegionConfig` defaults and the automatic
//! cache plan, over several epochs each shuffled with its own seed.

use legion_baselines::{ScheduleKind, SystemError, SystemSetup};
use legion_cache::{build_clique_cache, cslp, CachePlan, CostModel, PlannerConfig};
use legion_core::{legion_setup_with_plans, run_epoch, scaled_server, EpochReport, LegionConfig};
use legion_graph::dataset::spec_by_name;
use legion_graph::Dataset;
use legion_hw::{MultiGpuServer, ServerSpec};
use legion_partition::{hierarchical_partition, quality};
use legion_sampling::access::{CacheLayout, TopologyPlacement};
use legion_sampling::{presample, KHopSampler};

use crate::common::{
    common_layers, feature_hit_rate, pcie_txns, ratio, snapshot_text, timed_loop, Clock, Phase,
    RunCfg, DATASET_SEED,
};
use crate::trace::Tracer;
use crate::Workload;

const DIVISOR: u64 = 1000;
/// Epochs whose simulated figures are reported; a run trains at least
/// this many and then keeps going until its time is up.
const SIM_EPOCHS: usize = 8;

pub struct TrainUks;

pub struct State {
    dataset: Dataset,
    spec: ServerSpec,
    server: MultiGpuServer,
    config: LegionConfig,
    built: Result<Built, SystemError>,
}

struct Built {
    setup: SystemSetup,
    plans: Vec<CachePlan>,
    /// The S2 vertex partition; only the staged (traced) build keeps it.
    vertex_partition: Option<Vec<u32>>,
}

impl Workload for TrainUks {
    type State = State;

    fn setup(&self, cfg: &RunCfg, tr: &Tracer) -> State {
        let dataset = tr.span("graph.generate", || {
            spec_by_name("UKS")
                .expect("UKS is registered")
                .instantiate(DIVISOR, DATASET_SEED)
        });
        let spec = scaled_server(&ServerSpec::dgx_v100(), DIVISOR);
        let server = spec.build();
        let config = LegionConfig {
            seed: cfg.derive(2),
            ..LegionConfig::default()
        };
        let built = if tr.enabled() {
            staged_build(&dataset, &server, &config, tr)
        } else {
            let ctx = config.build_context(&dataset, &server);
            legion_setup_with_plans(&ctx, &config).map(|(setup, plans)| Built {
                setup,
                plans,
                vertex_partition: None,
            })
        };
        State {
            dataset,
            spec,
            server,
            config,
            built,
        }
    }

    fn verify_setup(&self, st: &State, tr: &Tracer, p: &mut Phase) {
        // The staged build must match the shipped set-up, stage for stage:
        // same plans, same bytes filled on every GPU.
        let reference = st.spec.build();
        let ctx = st.config.build_context(&st.dataset, &reference);
        let want = tr.span("core.legion_setup", || {
            legion_setup_with_plans(&ctx, &st.config)
        });
        let (ok, detail) = match (&want, &st.built) {
            (Ok((_, plans)), Ok(b)) => {
                let fill = |s: &MultiGpuServer| -> Vec<u64> {
                    (0..s.num_gpus()).map(|g| s.allocated_bytes(g)).collect()
                };
                let same = *plans == b.plans && fill(&reference) == fill(&st.server);
                (
                    same,
                    format!("{} clique plans, fill {:?}", plans.len(), fill(&reference)),
                )
            }
            (Err(a), Err(b)) => (a == b, format!("both failed: {a}")),
            _ => (false, "one build failed".to_string()),
        };
        p.check("staged build equals legion_setup_with_plans", ok, detail);
    }

    fn measure(&self, cfg: &RunCfg, st: &State, tr: &Tracer, fixed: Option<usize>) -> Phase {
        let mut p = Phase::default();
        let built = match &st.built {
            Ok(b) => b,
            Err(e) => {
                p.attempted = 1;
                p.failed = 1;
                p.check("setup", false, format!("setup failed: {e}"));
                return p;
            }
        };
        let gpus = st.server.num_gpus();
        let ctx = st.config.build_context(&st.dataset, &st.server);
        let mut reports: Vec<EpochReport> = Vec::new();
        let mut batches: Vec<u64> = Vec::new();
        let times = timed_loop(cfg.seconds, SIM_EPOCHS, fixed, |e| {
            // Each epoch shuffles with its own seed.
            let config = LegionConfig {
                seed: cfg.derive(100 + e as u64),
                ..st.config.clone()
            };
            let r = tr.span("core.run_epoch", || run_epoch(&built.setup, &ctx, &config));
            let snap = [&r.metrics];
            batches.push(
                (0..gpus)
                    .map(|g| r.metrics.counter(&format!("batch.gpu{g}.batches")))
                    .sum(),
            );
            let summed = pcie_txns(&snap, gpus);
            p.check(
                format!("epoch {e}: pcie_txns_per_epoch equals the sum of pcm counters"),
                r.pcie_total == summed,
                format!("{} vs {summed}", r.pcie_total),
            );
            let gauge = r.metrics.gauge("epoch.feature_hit_rate");
            let rate = feature_hit_rate(&snap, gpus);
            p.check(
                format!("epoch {e}: cache.feature_hit_rate equals the epoch gauge"),
                rate == gauge && r.feature_hit_rate() == gauge,
                format!("{rate} vs {gauge}"),
            );
            p.record_output(format!("epoch {e}: {} s", r.epoch_seconds));
            p.record_output(snapshot_text(&r.metrics));
            if e < SIM_EPOCHS {
                reports.push(r);
            }
        });
        p.attempted = times.len() as u64;
        p.calls = times.len();
        p.call_s = times.clone();

        let sim = &reports[..SIM_EPOCHS];
        let seeds: u64 = st.dataset.train_vertices.len() as u64;
        let epoch_s: Vec<f64> = sim.iter().map(|r| r.epoch_seconds).collect();
        let mean_s = epoch_s.iter().sum::<f64>() / SIM_EPOCHS as f64;
        let mean_txns = sim.iter().map(|r| r.pcie_total as f64).sum::<f64>() / SIM_EPOCHS as f64;
        let host_s: f64 = times.iter().sum();
        let all_batches: u64 = batches.iter().sum();
        let mut epoch_us: Vec<f64> = epoch_s.iter().map(|s| s * 1e6).collect();
        epoch_us.sort_by(f64::total_cmp);

        // Every attempted epoch ran: a failed set-up returned above.
        p.e2e("served_frac", 1.0, "ratio", Clock::Sim);
        p.e2e(
            "batches_per_host_s",
            all_batches as f64 / host_s,
            "batches/s",
            Clock::Host,
        );
        p.e2e(
            "sim_requests_per_host_s",
            (seeds * times.len() as u64) as f64 / host_s,
            "req/s",
            Clock::Host,
        );
        p.e2e("sim_epoch_ms", mean_s * 1e3, "ms", Clock::Sim);
        p.e2e("pcie_txns_per_epoch", mean_txns, "count", Clock::Sim);
        p.e2e("knee_rps", seeds as f64 / mean_s, "req/s", Clock::Sim);
        p.e2e("sim_p50_us", quantile(&epoch_us, 0.5), "us", Clock::Sim);
        p.e2e("sim_p99_us", quantile(&epoch_us, 0.99), "us", Clock::Sim);

        // Per-layer figures of the first epoch.
        let first = &reports[0];
        common_layers(&mut p, &[&first.metrics], gpus, batches[0]);
        if let Some(vp) = &built.vertex_partition {
            p.layer(
                "partition.edge_cut_ratio",
                quality::edge_cut_ratio(&st.dataset.graph, vp),
                "ratio",
                Clock::Sim,
            );
        }
        let alpha = built.plans.iter().map(|c| c.alpha).sum::<f64>() / built.plans.len() as f64;
        let predicted: f64 = built.plans.iter().map(|c| c.evaluation.n_total()).sum();
        p.layer("cache.alpha", alpha, "ratio", Clock::Sim);
        p.layer(
            "cache.model_ratio",
            ratio(predicted, first.pcie_total as f64),
            "ratio",
            Clock::Sim,
        );
        p
    }
}

/// Linear-interpolated quantile of sorted values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `legion_setup_with_plans`, one public call per stage, each in its own
/// span: hierarchical partition, then per clique presample, CSLP, cost
/// model, plan search and cache fill.
fn staged_build(
    dataset: &Dataset,
    server: &MultiGpuServer,
    config: &LegionConfig,
    tr: &Tracer,
) -> Result<Built, SystemError> {
    let ctx = config.build_context(dataset, server);
    let needed = dataset.topology_bytes() + dataset.feature_bytes();
    let available = server.spec().cpu_memory;
    if needed > available {
        return Err(SystemError::CpuOom { needed, available });
    }
    let partitioner = config.partitioner.build(config.seed);
    let plan = tr.span("partition.hierarchical", || {
        hierarchical_partition(
            &dataset.graph,
            &dataset.train_vertices,
            server.nvlink(),
            partitioner.as_ref(),
        )
    });
    let sampler = KHopSampler::new(config.fanouts.clone());
    let planner = PlannerConfig {
        reserved_per_gpu: ctx.reserved_per_gpu,
        delta_alpha: config.delta_alpha,
    };
    let mut cliques = Vec::with_capacity(plan.cliques.len());
    let mut plans = Vec::with_capacity(plan.cliques.len());
    for clique_gpus in &plan.cliques {
        let tablets: Vec<_> = clique_gpus
            .iter()
            .map(|&g| plan.tablets[g].clone())
            .collect();
        let pres = tr.span("sampling.presample", || {
            presample(
                &dataset.graph,
                &dataset.features,
                server,
                clique_gpus,
                &tablets,
                &sampler,
                ctx.batch_size,
                config.presample_epochs,
                config.seed,
            )
        });
        let (topo_order, feat_order) = tr.span("cache.cslp", || (cslp(&pres.h_t), cslp(&pres.h_f)));
        let model = tr.span("cache.cost_model", || {
            CostModel::new(
                &dataset.graph,
                &topo_order.clique_order,
                &topo_order.accumulated,
                &feat_order.clique_order,
                &feat_order.accumulated,
                pres.n_tsum,
                dataset.features.dim(),
                server.pcie().cls(),
            )
        });
        let mut budget = planner.clique_budget(server.spec().gpu_memory, clique_gpus.len());
        if let Some(cap) = ctx.cache_budget_override {
            budget = budget.min(cap * clique_gpus.len() as u64);
        }
        let cache_plan = tr.span("cache.plan", || planner.plan_with_budget(&model, budget));
        let cache = tr
            .span("cache.fill", || {
                build_clique_cache(
                    &dataset.graph,
                    &dataset.features,
                    clique_gpus,
                    &topo_order,
                    &feat_order,
                    &cache_plan,
                    server,
                )
            })
            .map_err(SystemError::GpuOom)?;
        cliques.push(cache);
        plans.push(cache_plan);
    }
    Ok(Built {
        setup: SystemSetup {
            name: "Legion".to_string(),
            layout: CacheLayout::from_cliques(server.num_gpus(), cliques),
            tablets: plan.tablets,
            topology_placement: TopologyPlacement::CpuUva,
            schedule: ScheduleKind::Pipelined,
        },
        plans,
        vertex_partition: Some(plan.vertex_partition),
    })
}
