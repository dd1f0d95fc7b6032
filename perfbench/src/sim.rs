//! The in-process simulator workloads: the program's own training entry
//! point, timed from outside, and a replica of its round loop built from the
//! same public calls with a span around each one.

use crate::replay::StageReplay;
use crate::trace::Tracer;
use bytes::BytesMut;
use sketchml_cluster::worker::partition;
use sketchml_cluster::{train_allreduce, train_distributed, ClusterConfig, Topology, TrainSpec};
use sketchml_collectives::{allreduce, Contribution, Hop, MergePolicy, Transport};
use sketchml_core::{
    CompressError, CompressScratch, GradientCompressor, MergeableCompressor, RawCompressor,
    SketchMlCompressor, SparseGradient,
};
use sketchml_data::Batcher;
use sketchml_ml::{GlmLoss, GlmModel, Instance, OptimizerState};

/// Workers of both simulator workloads.
pub const WORKERS: usize = 2;

/// How workers' gradients reach the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Path {
    /// `train_distributed`: the driver decodes, merges and re-encodes
    /// (star BSP) with the default SketchML codec.
    DriverSketchMl,
    /// `train_allreduce` over a ring with the raw f64 codec.
    RingRaw,
}

/// One simulator workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct SimShape {
    /// Aggregation path and codec.
    pub path: Path,
    /// Training instances per batch as a share of the training set.
    pub batch_ratio: f64,
    /// Epochs per training call.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
}

impl SimShape {
    /// The paper's protocol (logistic loss, λ = 0.01, Adam) with `seed`
    /// driving the batch shuffle.
    pub fn spec(&self, seed: u64) -> TrainSpec {
        let mut spec = TrainSpec::paper(GlmLoss::Logistic, self.lr, self.epochs);
        spec.seed = seed;
        spec
    }

    /// Cluster-1 costs, telemetry off.
    pub fn cluster(&self) -> ClusterConfig {
        let c = ClusterConfig::cluster1(WORKERS)
            .with_batch_ratio(self.batch_ratio)
            .with_telemetry(false);
        match self.path {
            Path::DriverSketchMl => c,
            Path::RingRaw => c.with_topology(Topology::Ring),
        }
    }
}

/// A generated train/test split.
pub struct Data {
    /// Training instances.
    pub train: Vec<Instance>,
    /// Test instances.
    pub test: Vec<Instance>,
    /// Model dimension.
    pub dim: usize,
}

/// What one training call produced, as far as the checks compare it.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Mean training-batch loss of each epoch.
    pub train_losses: Vec<f64>,
    /// Test loss after each epoch.
    pub test_losses: Vec<f64>,
    /// Uplink bytes over the whole call.
    pub uplink: u64,
    /// Downlink bytes over the whole call.
    pub downlink: u64,
    /// Gradient pairs shipped uplink.
    pub pairs: u64,
    /// Rounds run.
    pub rounds: u64,
}

/// Runs the program's own entry point once.
///
/// # Errors
/// Whatever the training call returns.
pub fn program(shape: &SimShape, d: &Data, seed: u64) -> Result<Outcome, CompressError> {
    let spec = shape.spec(seed);
    let cluster = shape.cluster();
    let report = match shape.path {
        Path::DriverSketchMl => train_distributed(
            &d.train,
            &d.test,
            d.dim,
            &spec,
            &cluster,
            &SketchMlCompressor::default(),
        )?,
        Path::RingRaw => train_allreduce(
            &d.train,
            &d.test,
            d.dim,
            &spec,
            &cluster,
            &RawCompressor::default(),
        )?,
    };
    let rounds_per_epoch = Batcher::new(d.train.len(), shape.batch_ratio, seed).batches_per_epoch();
    Ok(Outcome {
        train_losses: report.epochs.iter().map(|e| e.train_loss).collect(),
        test_losses: report.epochs.iter().map(|e| e.test_loss).collect(),
        uplink: report.epochs.iter().map(|e| e.uplink_bytes).sum(),
        downlink: report.epochs.iter().map(|e| e.downlink_bytes).sum(),
        pairs: report.epochs.iter().map(|e| e.pairs).sum(),
        rounds: (rounds_per_epoch * report.epochs.len()) as u64,
    })
}

/// One worker's contribution to a round.
struct Msg {
    payload: Vec<u8>,
    loss_sum: f64,
    instances: usize,
    pairs: usize,
    /// Kept for the codec-stage replay.
    grad: Option<SparseGradient>,
}

/// Per-worker pooled codec state.
#[derive(Default)]
struct WorkerState {
    scratch: CompressScratch,
    out: BytesMut,
}

/// Moves hop payloads like the simulator's fault-free transport (a copy
/// per hop), with a span around each.
struct SpanTransport<'a> {
    t: &'a mut Tracer,
}

impl Transport for SpanTransport<'_> {
    fn transmit(&mut self, _hop: Hop, payload: &[u8]) -> Option<Vec<u8>> {
        Some(self.t.span("collectives.hop", |_| payload.to_vec()))
    }
}

/// The replica round loop: the same calls, in the same order, as the
/// program's loop for `shape.path`, each inside a span on `t`. With
/// `replay`, every worker gradient's SketchML stages are replayed after its
/// round inside a root `replay.stages` span, with the stage spans on the
/// replay's own tracer. Returns the outcome and the trained model.
///
/// # Errors
/// Propagates codec and configuration failures.
pub fn replica(
    shape: &SimShape,
    d: &Data,
    seed: u64,
    t: &mut Tracer,
    mut replay: Option<(&mut StageReplay, &mut Tracer)>,
) -> Result<(Outcome, GlmModel), CompressError> {
    let spec = shape.spec(seed);
    let cluster = shape.cluster();
    let sketch = SketchMlCompressor::default();
    let raw = RawCompressor::default();
    let (codec, mergeable): (&dyn GradientCompressor, &dyn MergeableCompressor) = match shape.path {
        Path::DriverSketchMl => (&sketch, &sketch),
        Path::RingRaw => (&raw, &raw),
    };
    let dim = d.dim;
    let mut model = GlmModel::new(dim, spec.loss, spec.l2)
        .map_err(|e| CompressError::InvalidConfig(e.to_string()))?;
    let mut opt = OptimizerState::build(spec.optimizer, spec.opt_state, dim)
        .map_err(|e| CompressError::InvalidConfig(e.to_string()))?;
    let mut batcher = Batcher::new(d.train.len(), cluster.batch_ratio, spec.seed);
    let mut workers: Vec<WorkerState> = (0..WORKERS).map(|_| WorkerState::default()).collect();
    let mut driver = WorkerState::default();
    let mut parts: Vec<SparseGradient> = Vec::new();
    let keep_grads = replay.is_some();
    let mut out = Outcome {
        train_losses: Vec::new(),
        test_losses: Vec::new(),
        uplink: 0,
        downlink: 0,
        pairs: 0,
        rounds: 0,
    };

    for _epoch in 0..spec.max_epochs {
        let batches = t.span("data.shuffle", |_| batcher.epoch());
        let mut loss_accum = 0.0;
        for batch in &batches {
            t.set_round(out.rounds);
            let msgs = t.span("cluster.round", |t| -> Result<Vec<Msg>, CompressError> {
                let slices = t.span("cluster.gather", |_| partition(batch, WORKERS));
                let frozen = &model;
                let train = &d.train;
                let msgs = t.span("cluster.fanout", |t| {
                    let forks: Vec<Tracer> = (0..WORKERS).map(|w| t.fork(w as u32 + 1)).collect();
                    let results: Vec<(Result<Msg, CompressError>, Tracer)> =
                        std::thread::scope(|s| {
                            let handles: Vec<_> = slices
                                .iter()
                                .zip(workers.iter_mut())
                                .zip(forks)
                                .map(|((part, ws), mut wt)| {
                                    s.spawn(move || {
                                        let r = wt.span("cluster.worker", |wt| {
                                            work(wt, frozen, train, part, codec, ws, keep_grads)
                                        });
                                        (r, wt)
                                    })
                                })
                                .collect();
                            handles
                                .into_iter()
                                .map(|h| h.join().expect("worker thread panicked"))
                                .collect()
                        });
                    let mut msgs = Vec::with_capacity(results.len());
                    for (r, wt) in results {
                        t.join(wt);
                        msgs.push(r);
                    }
                    msgs.into_iter().collect::<Result<Vec<Msg>, _>>()
                })?;
                out.pairs += msgs.iter().map(|m| m.pairs as u64).sum::<u64>();
                let total: usize = msgs.iter().map(|m| m.instances).sum();
                let loss_sum: f64 = msgs.iter().map(|m| m.loss_sum).sum();
                loss_accum += loss_sum / total.max(1) as f64;
                let gradient = match shape.path {
                    Path::DriverSketchMl => {
                        out.uplink += msgs.iter().map(|m| m.payload.len() as u64).sum::<u64>();
                        while parts.len() < msgs.len() {
                            parts.push(SparseGradient::empty(0));
                        }
                        for (m, part) in msgs.iter().zip(parts.iter_mut()) {
                            t.span("core.decode", |_| {
                                codec.decompress_into(&m.payload, &mut driver.scratch, part)
                            })?;
                        }
                        let g = t.span("core.merge", |_| {
                            for (m, part) in msgs.iter().zip(parts.iter_mut()) {
                                part.scale(m.instances as f64 / total as f64);
                            }
                            SparseGradient::aggregate(&parts[..msgs.len()])
                        })?;
                        t.span("core.downlink_encode", |_| {
                            codec.compress_into(&g, &mut driver.scratch, &mut driver.out)
                        })?;
                        out.downlink += (driver.out.len() * WORKERS) as u64;
                        g
                    }
                    Path::RingRaw => {
                        let contribs: Vec<Contribution> = msgs
                            .iter()
                            .map(|m| Contribution {
                                payload: &m.payload,
                                weight: m.instances as f64 / total.max(1) as f64,
                            })
                            .collect();
                        let round = t.span("collectives.allreduce", |t| {
                            allreduce(
                                Topology::Ring,
                                MergePolicy::Exact,
                                mergeable,
                                dim as u64,
                                &contribs,
                                &mut SpanTransport { t },
                            )
                        })?;
                        // Worker payloads ride the ring's reduce hops.
                        out.uplink += round.reduce_bytes;
                        out.downlink += round.distribute_bytes;
                        round.gradient
                    }
                };
                t.span("ml.apply", |_| {
                    model.apply_gradient(&mut opt, gradient.keys(), gradient.values());
                });
                Ok(msgs)
            })?;
            out.rounds += 1;
            if let Some((stages, st)) = replay.as_mut() {
                let grads: Vec<&SparseGradient> =
                    msgs.iter().filter_map(|m| m.grad.as_ref()).collect();
                t.span("replay.stages", |_| {
                    st.set_round(out.rounds - 1);
                    grads.iter().try_for_each(|g| stages.run(st, g))
                })?;
            }
        }
        out.train_losses.push(loss_accum / batches.len() as f64);
        let loss = t.span("ml.eval", |_| model.mean_loss(&d.test));
        out.test_losses.push(loss);
    }
    Ok((out, model))
}

/// One worker's share of a round: copy its instances, compute the
/// gradient, encode it.
fn work(
    t: &mut Tracer,
    model: &GlmModel,
    train: &[Instance],
    part: &[usize],
    codec: &dyn GradientCompressor,
    ws: &mut WorkerState,
    keep_grad: bool,
) -> Result<Msg, CompressError> {
    let slice: Vec<Instance> = t.span("cluster.gather", |_| {
        part.iter().map(|&i| train[i].clone()).collect()
    });
    let g = t.span("ml.grad", |_| model.batch_gradient(&slice));
    let (loss_sum, instances) = (g.loss_sum, slice.len());
    let sparse = SparseGradient::new(model.dim() as u64, g.keys, g.values)?;
    let report = t.span("core.encode", |_| {
        codec.compress_into(&sparse, &mut ws.scratch, &mut ws.out)
    })?;
    Ok(Msg {
        payload: ws.out[..].to_vec(),
        loss_sum,
        instances,
        pairs: report.pairs,
        grad: keep_grad.then_some(sparse),
    })
}
