//! The shared epoch runner: executes one training epoch of any
//! [`SystemSetup`] on the simulated server, metering PCIe transactions,
//! traffic matrices and cache hits, and deriving the epoch time through
//! the §5 pipeline model.
//!
//! Every numeric field of [`EpochReport`] is derived from the server's
//! [`legion_telemetry::Registry`] snapshot — the runner itself only
//! computes pipeline epoch time; all traffic, cache, and stage-time
//! accounting flows through the metric registry and is preserved verbatim
//! in [`EpochReport::metrics`].

use rand::rngs::StdRng;
use rand::SeedableRng;

use legion_baselines::{ScheduleKind, SystemSetup};
use legion_gnn::{GnnModel, ModelKind};
use legion_graph::{CsrGraph, VertexId};
use legion_hw::pcm::{pcm_counter_name, TrafficKind};
use legion_hw::traffic::{traffic_counter_name, Source};
use legion_hw::MultiGpuServer;
use legion_pipeline::{
    epoch_time_factored, epoch_time_pipelined, epoch_time_serial, BatchCost, StageRecorder,
    TimeModel,
};
use legion_sampling::access::{AccessEngine, BatchTotals};
use legion_sampling::extract::HitStats;
use legion_sampling::{BatchGenerator, KHopSampler, SampleScratch};
use legion_store::{NvmeGeneration, NvmeModel, Tier, VertexStore};
use legion_telemetry::{Counter, Registry, Snapshot, NANOS_PER_SEC};

use legion_baselines::BuildContext;

use crate::config::LegionConfig;

/// Everything measured over one epoch.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// System name.
    pub name: String,
    /// Modeled wall-clock epoch time in seconds.
    pub epoch_seconds: f64,
    /// Total CPU→GPU PCIe transactions (PCM).
    pub pcie_total: u64,
    /// Maximum per-GPU PCIe transactions.
    pub pcie_max_gpu: u64,
    /// Maximum per-socket PCIe transactions — the metric the paper's
    /// Figure 8 reports from PCM (§6.2).
    pub pcie_max_socket: u64,
    /// Sampling-side PCIe transactions.
    pub pcie_topology: u64,
    /// Feature-side PCIe transactions.
    pub pcie_feature: u64,
    /// Total CPU→GPU bytes.
    pub cpu_bytes: u64,
    /// Total GPU↔GPU (NVLink) bytes.
    pub peer_bytes: u64,
    /// Per-GPU feature-cache hit statistics.
    pub per_gpu_hits: Vec<HitStats>,
    /// Figure 10-style traffic snapshot (`rows[dst] = [src..., cpu]`).
    pub traffic: Vec<Vec<u64>>,
    /// Aggregate per-stage seconds (pre-overlap), quantized to integer
    /// nanoseconds by the stage counters.
    pub sample_seconds: f64,
    /// Total feature-extraction seconds.
    pub extract_seconds: f64,
    /// Total training seconds.
    pub train_seconds: f64,
    /// The full metric snapshot the fields above are derived from.
    pub metrics: Snapshot,
}

impl EpochReport {
    /// Overall feature-cache hit rate across GPUs.
    pub fn feature_hit_rate(&self) -> f64 {
        let mut agg = HitStats::default();
        for h in &self.per_gpu_hits {
            agg.merge(*h);
        }
        agg.hit_rate()
    }

    /// Per-GPU hit rates (0 for GPUs that trained nothing).
    pub fn per_gpu_hit_rates(&self) -> Vec<f64> {
        self.per_gpu_hits.iter().map(|h| h.hit_rate()).collect()
    }
}

/// Sets the epoch gauges, snapshots the server's registry, and derives
/// every numeric report field from that snapshot.
fn finalize_report(name: String, server: &MultiGpuServer, epoch_seconds: f64) -> EpochReport {
    let registry = server.telemetry();
    let n = server.num_gpus();
    let mut agg = HitStats::default();
    for g in 0..n {
        agg.merge(HitStats {
            hits: registry.counter_value(&format!("cache.gpu{g}.feature_hits")),
            misses: registry.counter_value(&format!("cache.gpu{g}.feature_misses")),
        });
    }
    registry.gauge("epoch.seconds").set(epoch_seconds);
    registry.gauge("epoch.feature_hit_rate").set(agg.hit_rate());
    let metrics = registry.snapshot();

    let spec = server.spec();
    let mut pcie_topology = 0u64;
    let mut pcie_feature = 0u64;
    let mut pcie_max_gpu = 0u64;
    let mut per_socket = vec![0u64; spec.sockets.max(1)];
    let mut per_gpu_hits = Vec::with_capacity(n);
    for g in 0..n {
        let t = metrics.counter(&pcm_counter_name(g, TrafficKind::Topology));
        let f = metrics.counter(&pcm_counter_name(g, TrafficKind::Feature));
        pcie_topology += t;
        pcie_feature += f;
        pcie_max_gpu = pcie_max_gpu.max(t + f);
        per_socket[spec.socket_of(g)] += t + f;
        per_gpu_hits.push(HitStats {
            hits: metrics.counter(&format!("cache.gpu{g}.feature_hits")),
            misses: metrics.counter(&format!("cache.gpu{g}.feature_misses")),
        });
    }

    let mut traffic = Vec::with_capacity(n);
    let mut cpu_bytes = 0u64;
    let mut peer_bytes = 0u64;
    for dst in 0..n {
        let mut row: Vec<u64> = (0..n)
            .map(|src| metrics.counter(&traffic_counter_name(dst, Source::Gpu(src))))
            .collect();
        peer_bytes += row.iter().sum::<u64>();
        let cpu = metrics.counter(&traffic_counter_name(dst, Source::Cpu));
        cpu_bytes += cpu;
        row.push(cpu);
        traffic.push(row);
    }

    let stage_secs = |stage: &str| -> f64 {
        (0..n)
            .map(|g| metrics.counter(&format!("stage.gpu{g}.{stage}_ns")))
            .sum::<u64>() as f64
            / NANOS_PER_SEC
    };

    EpochReport {
        name,
        epoch_seconds: metrics.gauge("epoch.seconds"),
        pcie_total: pcie_topology + pcie_feature,
        pcie_max_gpu,
        pcie_max_socket: per_socket.into_iter().max().unwrap_or(0),
        pcie_topology,
        pcie_feature,
        cpu_bytes,
        peer_bytes,
        per_gpu_hits,
        traffic,
        sample_seconds: stage_secs("sample"),
        extract_seconds: stage_secs("extract"),
        train_seconds: stage_secs("train"),
        metrics,
    }
}

/// Output classes of the throwaway model that supplies training FLOP
/// counts; its weights are never updated by the runner.
const FLOP_MODEL_CLASSES: usize = 16;

/// Out-of-core configuration for the offline epoch runner: a host-DRAM
/// budget for feature rows with the cold tail on the simulated NVMe
/// tier, plus the batch-generator lookahead prefetcher's knobs. The
/// training-side analogue of `legion_serve::StoreConfig`.
#[derive(Debug, Clone)]
pub struct EpochStoreConfig {
    /// Host-DRAM budget for feature rows, in bytes. Rows are ranked by
    /// degree (the structural hotness sampled neighborhoods follow);
    /// the head fills the budget, the tail lives on the SSD.
    pub dram_budget_bytes: u64,
    /// Staging-window rows per trainer GPU (bounded DRAM pin).
    pub staging_rows: usize,
    /// Simulated device class.
    pub nvme: NvmeGeneration,
    /// Upcoming generator batches staged ahead of extraction.
    pub lookahead_batches: usize,
    /// Leading adjacency rows staged per seed vertex.
    pub prefetch_neighbors: usize,
    /// Maximum rows one prefetch call may issue.
    pub prefetch_budget: usize,
}

impl Default for EpochStoreConfig {
    fn default() -> Self {
        Self {
            dram_budget_bytes: u64::MAX,
            staging_rows: 4096,
            nvme: NvmeGeneration::Gen3x4,
            lookahead_batches: 2,
            prefetch_neighbors: 16,
            prefetch_budget: 1024,
        }
    }
}

/// The tier assignment every trainer's store shares: the rows that
/// spilled past the DRAM budget onto the SSD.
struct StorePlan<'a> {
    cfg: &'a EpochStoreConfig,
    ssd_rows: &'a [VertexId],
    num_vertices: usize,
    row_bytes: u64,
}

/// Per-GPU out-of-core state for the epoch runner: the NUMA-local
/// store plus the shared epoch-level meters.
struct EpochStore {
    store: VertexStore,
    lookahead_batches: usize,
    prefetch_neighbors: usize,
    prefetch_budget: usize,
    prefetch_hits: Counter,
    late_stalls: Counter,
    cold_reads: Counter,
    nvme_bytes: Counter,
    missed: Vec<VertexId>,
    candidates: Vec<VertexId>,
}

impl EpochStore {
    /// Opens one trainer's store over `plan`. The warm fill happens
    /// before the measured epoch, mirroring the HBM cache's warmup pass.
    fn open(plan: &StorePlan<'_>, registry: &Registry) -> Self {
        let cfg = plan.cfg;
        let nvme = NvmeModel::new(cfg.nvme);
        let mut store = VertexStore::new(nvme, plan.num_vertices, plan.row_bytes, cfg.staging_rows);
        for &v in plan.ssd_rows {
            store.assign(v, Tier::Ssd);
        }
        store.warm(plan.ssd_rows.iter().copied());
        Self {
            store,
            lookahead_batches: cfg.lookahead_batches,
            prefetch_neighbors: cfg.prefetch_neighbors,
            prefetch_budget: cfg.prefetch_budget,
            prefetch_hits: registry.counter("epoch.store.prefetch_hits"),
            late_stalls: registry.counter("epoch.store.late_stalls"),
            cold_reads: registry.counter("epoch.store.cold_reads"),
            nvme_bytes: registry.counter("store.nvme.bytes"),
            missed: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// Resolves a batch's cache misses against the store at epoch time
    /// `at` and returns the extraction stall to charge.
    fn charge(
        &mut self,
        engine: &AccessEngine<'_>,
        gpu: usize,
        inputs: &[VertexId],
        at: f64,
    ) -> f64 {
        self.missed.clear();
        self.missed.extend(
            inputs
                .iter()
                .copied()
                .filter(|&v| !engine.feature_would_hit(gpu, v)),
        );
        let out = self.store.read(at, &self.missed);
        self.prefetch_hits.add(out.prefetch_hits);
        self.late_stalls.add(out.late_stalls);
        self.cold_reads.add(out.cold_reads);
        self.nvme_bytes.add(out.nvme_bytes);
        out.stall_s
    }

    /// Stages an upcoming generator batch's seed rows (and each seed's
    /// leading neighbors) at epoch time `at`, ahead of its extraction.
    fn prefetch_batch(&mut self, graph: &CsrGraph, seeds: &[VertexId], at: f64) {
        if self.prefetch_budget == 0 {
            return;
        }
        for &s in seeds {
            graph.extend_probe(s, self.prefetch_neighbors, &mut self.candidates);
        }
        let out = self
            .store
            .prefetch(at, self.candidates.drain(..), self.prefetch_budget);
        self.nvme_bytes.add(out.nvme_bytes);
    }
}

/// One trainer GPU's reusable batch state: the sampler's scratch arena,
/// the feature gather buffer and the batch-local meter totals, allocated
/// once and reused across every batch of that GPU's epoch.
struct BatchScratch {
    sample: SampleScratch,
    features: Vec<f32>,
    totals: BatchTotals,
}

/// Everything one epoch shares across its trainer GPUs: the access
/// engine, time and FLOP models, sampler, per-GPU stage recorders and
/// the optional out-of-core tier. Building it resets the server's
/// registry, so the report covers exactly this epoch.
struct Epoch<'a> {
    setup: &'a SystemSetup,
    server: &'a MultiGpuServer,
    graph: &'a CsrGraph,
    batch_size: usize,
    seed: u64,
    engine: AccessEngine<'a>,
    time_model: TimeModel,
    sampler: KHopSampler,
    flops_model: GnnModel,
    /// One recorder per GPU, registered up front: GPUs that train
    /// nothing (GNNLab's samplers) still report zero stage counters.
    recorders: Vec<StageRecorder>,
    store: Option<StorePlan<'a>>,
}

impl<'a> Epoch<'a> {
    fn new(
        setup: &'a SystemSetup,
        ctx: &'a BuildContext<'_>,
        config: &LegionConfig,
        model_kind: ModelKind,
        store: Option<StorePlan<'a>>,
    ) -> Self {
        let server = ctx.server;
        // Clear all metrics (PCM, traffic, cache, stage counters) so the
        // snapshot covers exactly this epoch.
        server.telemetry().reset();
        let engine = AccessEngine::new(
            &ctx.dataset.graph,
            &ctx.dataset.features,
            &setup.layout,
            server,
            setup.topology_placement,
        );
        let mut flops_rng = StdRng::seed_from_u64(config.seed);
        let flops_model = GnnModel::new(
            model_kind,
            ctx.dataset.features.dim(),
            config.hidden_dim,
            FLOP_MODEL_CLASSES,
            config.fanouts.len(),
            &mut flops_rng,
        );
        Self {
            setup,
            server,
            graph: &ctx.dataset.graph,
            batch_size: ctx.batch_size,
            seed: config.seed,
            engine,
            time_model: TimeModel::new(server.spec()),
            sampler: KHopSampler::new(config.fanouts.clone()),
            flops_model,
            recorders: (0..server.num_gpus())
                .map(|g| StageRecorder::for_gpu(server.telemetry(), g))
                .collect(),
            store,
        }
    }

    /// Runs every trainer GPU's batches one after another. The factored
    /// schedule's round-robin cursor over dedicated samplers carries
    /// across trainers.
    fn run_sequential(&self) -> Vec<Vec<BatchCost>> {
        let mut sampler_cursor = 0usize;
        (0..self.server.num_gpus())
            .map(|gpu| self.run_gpu(gpu, &mut sampler_cursor))
            .collect()
    }

    /// One trainer GPU's epoch: shuffles its tablet into batches, stages
    /// upcoming batches into the store, and runs each batch, returning
    /// the per-batch pipeline costs.
    fn run_gpu(&self, gpu: usize, sampler_cursor: &mut usize) -> Vec<BatchCost> {
        let tablet = &self.setup.tablets[gpu];
        if tablet.is_empty() {
            return Vec::new();
        }
        let telemetry = self.server.telemetry();
        let mut store = self.store.as_ref().map(|p| EpochStore::open(p, telemetry));
        let mut rng = StdRng::seed_from_u64(self.seed ^ (gpu as u64).wrapping_mul(0x517c_c1b7));
        // The epoch schedule is materialized up front so the prefetcher
        // can look past the batch in flight — the offline analogue of
        // the serving tier's queue lookahead.
        let batches = BatchGenerator::new(tablet.clone(), self.batch_size)
            .with_telemetry(telemetry, gpu)
            .epoch(&mut rng);
        let mut scratch = BatchScratch {
            sample: SampleScratch::new(),
            features: Vec::new(),
            totals: BatchTotals::new(self.server.num_gpus()),
        };
        // Per-GPU serial clock: the store's device horizon needs a
        // monotone notion of "now", and the per-GPU batch stream is
        // serial regardless of the cross-stage overlap model.
        let mut clock = 0.0f64;
        let mut costs = Vec::with_capacity(batches.len());
        for (i, batch) in batches.iter().enumerate() {
            if let Some(es) = store.as_mut() {
                for ahead in batches.iter().skip(i + 1).take(es.lookahead_batches) {
                    es.prefetch_batch(self.graph, ahead, clock);
                }
            }
            let sampling_gpu = match &self.setup.schedule {
                ScheduleKind::Factored { samplers, .. } => {
                    let g = samplers[*sampler_cursor % samplers.len()];
                    *sampler_cursor += 1;
                    g
                }
                _ => gpu,
            };
            let store_at = store.as_mut().map(|es| (es, clock));
            let (sample_t, extract_t, train_t) =
                self.run_batch(&mut scratch, gpu, sampling_gpu, batch, &mut rng, store_at);
            clock += sample_t + extract_t + train_t;

            // Stage times accrue to the trainer GPU's counters (for a
            // factored schedule the sampling ran elsewhere, but the batch
            // belongs to this trainer).
            self.recorders[gpu].record(sample_t, extract_t, train_t);
            costs.push(match self.setup.schedule {
                ScheduleKind::Serial => BatchCost::serial(sample_t, extract_t, train_t),
                // Factored: samplers only sample; trainers extract + train
                // (GNNLab's feature cache lives on the trainer GPUs).
                ScheduleKind::Factored { .. } => BatchCost {
                    prep: sample_t,
                    train: extract_t + train_t,
                },
                _ => BatchCost::overlapped(sample_t, extract_t, train_t),
            });
        }
        costs
    }

    /// Runs one mini-batch through sampling (charged to `sampling_gpu`),
    /// feature extraction, and training (charged to `trainer_gpu`),
    /// returning the three stage times. Stage timing reads the PCM /
    /// traffic deltas around each batched call, which is exact because
    /// the batched paths flush their totals before returning.
    ///
    /// When `store` carries an out-of-core tier (and the current epoch
    /// clock), the batch's HBM misses are resolved against it and any
    /// SSD stall is folded into the extraction time.
    fn run_batch(
        &self,
        scratch: &mut BatchScratch,
        trainer_gpu: usize,
        sampling_gpu: usize,
        batch: &[VertexId],
        rng: &mut StdRng,
        store: Option<(&mut EpochStore, f64)>,
    ) -> (f64, f64, f64) {
        let pcm = self.server.pcm();
        // Stage 1: neighbor sampling (charged to the sampling GPU).
        let topo_before = pcm.gpu_kind(sampling_gpu, TrafficKind::Topology);
        let sample = self.sampler.sample_batch_with(
            &self.engine,
            sampling_gpu,
            batch,
            rng,
            None,
            &mut scratch.sample,
        );
        let topo_tx = pcm.gpu_kind(sampling_gpu, TrafficKind::Topology) - topo_before;
        let edges = sample.total_edges() as u64;
        let sample_t = match self.setup.schedule {
            ScheduleKind::CpuSampling => self.time_model.cpu_sample_seconds(edges),
            _ => self.time_model.sample_seconds(topo_tx, edges),
        };
        // Stage 2: feature extraction (charged to the trainer GPU).
        let peer_in = || -> u64 {
            (0..self.server.num_gpus())
                .map(|s| self.server.traffic().gpu_to_gpu(s, trainer_gpu))
                .sum()
        };
        let feat_before = pcm.gpu_kind(trainer_gpu, TrafficKind::Feature);
        let peer_before = peer_in();
        self.engine.read_features_batch(
            trainer_gpu,
            sample.input_vertices(),
            &mut scratch.features,
            &mut scratch.totals,
        );
        let feat_tx = pcm.gpu_kind(trainer_gpu, TrafficKind::Feature) - feat_before;
        let mut extract_t = self
            .time_model
            .extract_seconds(feat_tx, peer_in() - peer_before);
        if let Some((es, at)) = store {
            extract_t += es.charge(&self.engine, trainer_gpu, sample.input_vertices(), at);
        }
        // Stage 3: training.
        let train_t = self
            .time_model
            .train_seconds(self.flops_model.training_flops(&sample));
        (sample_t, extract_t, train_t)
    }

    /// Folds the per-GPU batch costs into the §5 epoch time and derives
    /// the report from the registry snapshot.
    fn finish(&self, per_gpu_costs: &[Vec<BatchCost>]) -> EpochReport {
        let slowest = |time: fn(&[BatchCost]) -> f64| {
            per_gpu_costs.iter().map(|c| time(c)).fold(0.0, f64::max)
        };
        let epoch_seconds = match &self.setup.schedule {
            ScheduleKind::Pipelined | ScheduleKind::CpuSampling => slowest(epoch_time_pipelined),
            ScheduleKind::Serial => slowest(epoch_time_serial),
            ScheduleKind::Factored { samplers, trainers } => {
                let all: Vec<BatchCost> = per_gpu_costs.iter().flatten().copied().collect();
                epoch_time_factored(&all, samplers.len(), trainers.len())
            }
        };
        finalize_report(self.setup.name.clone(), self.server, epoch_seconds)
    }
}

/// Runs one epoch of `setup` under `config`, returning the full report.
///
/// Counters are reset at entry, so the report covers exactly this epoch.
/// Execution is sequential and fully deterministic for a fixed seed; the
/// multi-GPU parallelism is reflected in the epoch-time model rather than
/// host threads.
pub fn run_epoch(
    setup: &SystemSetup,
    ctx: &BuildContext<'_>,
    config: &LegionConfig,
) -> EpochReport {
    run_epoch_with_model(setup, ctx, config, ModelKind::GraphSage)
}

/// [`run_epoch`] with an explicit model kind (GraphSAGE or GCN).
pub fn run_epoch_with_model(
    setup: &SystemSetup,
    ctx: &BuildContext<'_>,
    config: &LegionConfig,
    model_kind: ModelKind,
) -> EpochReport {
    let epoch = Epoch::new(setup, ctx, config, model_kind, None);
    epoch.finish(&epoch.run_sequential())
}

/// [`run_epoch_with_model`] with an out-of-core feature tier: host DRAM
/// holds only `store_cfg.dram_budget_bytes` of feature rows and the
/// cold tail lives on the simulated NVMe device, fronted per trainer
/// GPU by a staging window and a batch-generator lookahead prefetcher
/// (the epoch runner knows its future mini-batches exactly, so the
/// prefetcher stages upcoming seeds and their leading neighbors while
/// the current batch trains). SSD stalls fold into extraction time and
/// flow through the same §5 pipeline model as every other stage.
///
/// When the budget covers every row the store never sees a request and
/// the run degenerates to [`run_epoch_with_model`] byte-for-byte.
pub fn run_epoch_with_store(
    setup: &SystemSetup,
    ctx: &BuildContext<'_>,
    config: &LegionConfig,
    model_kind: ModelKind,
    store_cfg: &EpochStoreConfig,
) -> EpochReport {
    let graph = &ctx.dataset.graph;
    let num_vertices = graph.num_vertices();
    let row_bytes = legion_graph::feature_bytes_for_dim(ctx.dataset.features.dim() as u64);
    let dram_rows =
        (store_cfg.dram_budget_bytes / row_bytes.max(1)).min(num_vertices as u64) as usize;
    if dram_rows >= num_vertices {
        // Nothing spills: the store would never see a request (nor
        // register its meters), so the plain runner's timeline is
        // reproduced exactly.
        return run_epoch_with_model(setup, ctx, config, model_kind);
    }
    // Host-DRAM fill by degree: sampled neighborhoods concentrate on
    // high-degree rows (the same structural hotness the HBM cost model
    // ranks by), so the head stays resident and the long tail spills.
    // The sort is stable, keeping the placement deterministic across
    // runs for equal-degree rows.
    let mut order: Vec<VertexId> = (0..num_vertices as VertexId).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(graph.neighbors(v).len()));
    let plan = StorePlan {
        cfg: store_cfg,
        ssd_rows: &order[dram_rows..],
        num_vertices,
        row_bytes,
    };
    let epoch = Epoch::new(setup, ctx, config, model_kind, Some(plan));
    epoch.finish(&epoch.run_sequential())
}

/// Multi-threaded variant of [`run_epoch_with_model`]: one host thread
/// per training GPU, mirroring the real system's concurrent execution.
/// All counters are thread-safe; per-GPU stage timing remains exact
/// because each GPU's PCM row is only written by its own worker.
///
/// Results are bit-identical to the sequential runner (same per-GPU RNG
/// streams, commutative counter updates).
///
/// # Panics
///
/// Panics for factored schedules, whose shared sampler GPUs would race on
/// per-stage counter snapshots — use the sequential runner for GNNLab.
pub fn run_epoch_parallel(
    setup: &SystemSetup,
    ctx: &BuildContext<'_>,
    config: &LegionConfig,
    model_kind: ModelKind,
) -> EpochReport {
    assert!(
        !matches!(setup.schedule, ScheduleKind::Factored { .. }),
        "parallel runner does not support factored schedules"
    );
    let epoch = Epoch::new(setup, ctx, config, model_kind, None);
    let per_gpu_costs: Vec<Vec<BatchCost>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.server.num_gpus())
            .map(|gpu| {
                let epoch = &epoch;
                scope.spawn(move |_| epoch.run_gpu(gpu, &mut 0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("GPU worker panicked"))
            .collect()
    })
    .expect("epoch scope");
    epoch.finish(&per_gpu_costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::legion_setup;
    use legion_baselines::dgl;
    use legion_graph::dataset::spec_by_name;
    use legion_hw::ServerSpec;

    #[test]
    fn legion_beats_dgl_on_pcie_and_epoch_time() {
        let ds = spec_by_name("PR").unwrap().instantiate(2000, 3);
        let config = LegionConfig::small();

        let server = ServerSpec::custom(4, 32 << 20, 2).build();
        let ctx = config.build_context(&ds, &server);
        let legion = legion_setup(&ctx, &config).unwrap();
        let legion_report = run_epoch(&legion, &ctx, &config);

        let server2 = ServerSpec::custom(4, 32 << 20, 2).build();
        let ctx2 = config.build_context(&ds, &server2);
        let dgl_setup = dgl::setup(&ctx2).unwrap();
        let dgl_report = run_epoch(&dgl_setup, &ctx2, &config);

        assert!(
            legion_report.pcie_total < dgl_report.pcie_total / 2,
            "legion {} dgl {}",
            legion_report.pcie_total,
            dgl_report.pcie_total
        );
        assert!(
            legion_report.epoch_seconds < dgl_report.epoch_seconds,
            "legion {} dgl {}",
            legion_report.epoch_seconds,
            dgl_report.epoch_seconds
        );
        assert!(legion_report.feature_hit_rate() > 0.3);
        assert_eq!(dgl_report.feature_hit_rate(), 0.0);
    }

    #[test]
    fn report_totals_are_consistent() {
        let ds = spec_by_name("PR").unwrap().instantiate(4000, 3);
        let config = LegionConfig::small();
        let server = ServerSpec::custom(2, 32 << 20, 2).build();
        let ctx = config.build_context(&ds, &server);
        let setup = dgl::setup(&ctx).unwrap();
        let report = run_epoch(&setup, &ctx, &config);
        assert_eq!(
            report.pcie_total,
            report.pcie_topology + report.pcie_feature
        );
        assert!(report.pcie_max_gpu <= report.pcie_total);
        assert!(report.cpu_bytes > 0);
        // DGL uses no NVLink.
        assert_eq!(report.peer_bytes, 0);
        // Traffic snapshot row sums match CPU bytes.
        let snap_cpu: u64 = report.traffic.iter().map(|r| r[r.len() - 1]).sum();
        assert_eq!(snap_cpu, report.cpu_bytes);
        // Stage times are positive.
        assert!(report.sample_seconds > 0.0);
        assert!(report.extract_seconds > 0.0);
        assert!(report.train_seconds > 0.0);
        // Every numeric field is derived from the attached snapshot.
        assert_eq!(report.pcie_total, report.metrics.counter_sum("pcm."));
        assert_eq!(
            report.cpu_bytes + report.peer_bytes,
            report.metrics.counter_sum("traffic.")
        );
        assert_eq!(report.epoch_seconds, report.metrics.gauge("epoch.seconds"));
        assert_eq!(
            report.feature_hit_rate(),
            report.metrics.gauge("epoch.feature_hit_rate")
        );
        // Pipeline operators all left their marks.
        assert!(report.metrics.counter_sum("batch.") > 0);
        assert!(report.metrics.counter_sum("sample.") > 0);
        assert!(report.metrics.counter_sum("extract.") > 0);
        assert!(report.metrics.counter_sum("subgraph.") > 0);
        assert!(report.metrics.counter_sum("cache.") > 0);
        let blocks: u64 = (0..2)
            .map(|g| report.metrics.counter(&format!("subgraph.gpu{g}.blocks")))
            .sum();
        let hist = report
            .metrics
            .histograms
            .iter()
            .find(|h| h.name == "subgraph.block_edges")
            .expect("block-size histogram registered");
        assert_eq!(hist.counts.iter().sum::<u64>(), blocks);
    }

    #[test]
    fn runner_is_deterministic() {
        let ds = spec_by_name("PR").unwrap().instantiate(4000, 3);
        let config = LegionConfig::small();
        let server = ServerSpec::custom(2, 32 << 20, 2).build();
        let ctx = config.build_context(&ds, &server);
        let setup = dgl::setup(&ctx).unwrap();
        let a = run_epoch(&setup, &ctx, &config);
        let b = run_epoch(&setup, &ctx, &config);
        assert_eq!(a.pcie_total, b.pcie_total);
        assert_eq!(a.epoch_seconds, b.epoch_seconds);
    }

    #[test]
    fn store_epoch_degenerates_and_oversubscription_costs() {
        let ds = spec_by_name("PR").unwrap().instantiate(2000, 3);
        let config = LegionConfig::small();
        let server = ServerSpec::custom(2, 32 << 20, 2).build();
        let ctx = config.build_context(&ds, &server);
        let setup = dgl::setup(&ctx).unwrap();

        let baseline = run_epoch_with_model(&setup, &ctx, &config, ModelKind::GraphSage);

        // Infinite DRAM budget: the store is never consulted, so the
        // epoch is byte-identical to the legacy runner.
        let infinite = EpochStoreConfig::default();
        let resident = run_epoch_with_store(&setup, &ctx, &config, ModelKind::GraphSage, &infinite);
        assert_eq!(resident.epoch_seconds, baseline.epoch_seconds);
        assert_eq!(resident.pcie_total, baseline.pcie_total);
        assert_eq!(resident.metrics.counter("store.nvme.bytes"), 0);

        // A quarter of the features fit in DRAM: SSD traffic must flow
        // and the flash stalls must make the epoch strictly slower.
        let tight = EpochStoreConfig {
            dram_budget_bytes: ds.feature_bytes() / 4,
            staging_rows: 512,
            ..EpochStoreConfig::default()
        };
        let over = run_epoch_with_store(&setup, &ctx, &config, ModelKind::GraphSage, &tight);
        assert!(over.metrics.counter("store.nvme.bytes") > 0);
        let touched = over.metrics.counter("epoch.store.prefetch_hits")
            + over.metrics.counter("epoch.store.late_stalls")
            + over.metrics.counter("epoch.store.cold_reads");
        assert!(touched > 0, "SSD tier never touched");
        assert!(
            over.epoch_seconds > baseline.epoch_seconds,
            "oversubscribed {} vs resident {}",
            over.epoch_seconds,
            baseline.epoch_seconds
        );
        // Sampling and training are untouched by the feature tier.
        assert_eq!(over.pcie_topology, baseline.pcie_topology);

        // The store timeline is integer-ns deterministic.
        let again = run_epoch_with_store(&setup, &ctx, &config, ModelKind::GraphSage, &tight);
        assert_eq!(again.epoch_seconds, over.epoch_seconds);
        assert_eq!(
            again.metrics.counter("store.nvme.bytes"),
            over.metrics.counter("store.nvme.bytes")
        );
        assert_eq!(
            again.metrics.counter("epoch.store.prefetch_hits"),
            over.metrics.counter("epoch.store.prefetch_hits")
        );
    }

    #[test]
    fn parallel_runner_matches_sequential() {
        let ds = spec_by_name("PR").unwrap().instantiate(2000, 3);
        let config = LegionConfig::small();
        let server = ServerSpec::custom(4, 32 << 20, 2).build();
        let ctx = config.build_context(&ds, &server);
        let setup = legion_setup(&ctx, &config).unwrap();
        let seq = run_epoch_with_model(&setup, &ctx, &config, ModelKind::GraphSage);
        let par = run_epoch_parallel(&setup, &ctx, &config, ModelKind::GraphSage);
        assert_eq!(seq.pcie_total, par.pcie_total);
        assert_eq!(seq.pcie_max_gpu, par.pcie_max_gpu);
        assert_eq!(seq.cpu_bytes, par.cpu_bytes);
        assert_eq!(seq.peer_bytes, par.peer_bytes);
        assert_eq!(seq.epoch_seconds, par.epoch_seconds);
        assert_eq!(seq.per_gpu_hit_rates(), par.per_gpu_hit_rates());
    }

    #[test]
    #[should_panic(expected = "factored")]
    fn parallel_runner_rejects_factored() {
        let ds = spec_by_name("PR").unwrap().instantiate(2000, 3);
        let config = LegionConfig::small();
        let server = ServerSpec::custom(4, 1 << 30, 2).build();
        let ctx = config.build_context(&ds, &server);
        let setup = legion_baselines::gnnlab::setup(&ctx, 1).unwrap();
        let _ = run_epoch_parallel(&setup, &ctx, &config, ModelKind::GraphSage);
    }

    #[test]
    fn gcn_and_sage_have_different_train_times() {
        let ds = spec_by_name("PR").unwrap().instantiate(4000, 3);
        let config = LegionConfig::small();
        let server = ServerSpec::custom(2, 32 << 20, 2).build();
        let ctx = config.build_context(&ds, &server);
        let setup = dgl::setup(&ctx).unwrap();
        let sage = run_epoch_with_model(&setup, &ctx, &config, ModelKind::GraphSage);
        let gcn = run_epoch_with_model(&setup, &ctx, &config, ModelKind::Gcn);
        // SAGE weights are twice as wide -> more FLOPs.
        assert!(sage.train_seconds > gcn.train_seconds);
    }
}
