//! The live-serving workload: an in-process `sketchml-net` server on
//! loopback TCP, one training worker, and one open-loop Predict client.
//!
//! A byte-counting session routes the worker through a relay, so uplink
//! and downlink bytes are the bytes its socket carried, framing included;
//! timed sessions connect it straight to the server, so the relay's copies
//! do not compete for the cores. Predict traffic always uses its own
//! connection straight to the server.

use crate::host::Timed;
use crate::openloop::{drive, Sample};
use crate::trace::Tracer;
use bytes::BytesMut;
use sketchml_cluster::worker::partition;
use sketchml_cluster::TrainSpec;
use sketchml_core::{compressor_by_name, CompressScratch, SparseGradient};
use sketchml_data::{Batcher, SparseDatasetSpec};
use sketchml_ml::{GlmLoss, GlmModel, Instance};
use sketchml_net::{
    run_worker, Client, NetError, PredictInstance, PushStatus, ServeSetup, ServeSummary, Server,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Instances per Predict request.
pub const PREDICT_BATCH: usize = 8;

/// The serve workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    /// Training instances per round as a share of the training set.
    pub batch_ratio: f64,
    /// Epochs per session.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
}

impl ServeShape {
    /// The server's session config for `dataset`, with `seed` driving the
    /// batch shuffle: one worker, `sketchml` uplink, straggler and idle
    /// timeouts far above any round time.
    pub fn setup(&self, dataset: SparseDatasetSpec, seed: u64) -> ServeSetup {
        let mut spec = TrainSpec::paper(GlmLoss::Logistic, self.lr, self.epochs);
        spec.seed = seed;
        let mut s = ServeSetup::new(dataset, spec, 1);
        s.batch_ratio = self.batch_ratio;
        s.compressor = "sketchml".into();
        s.round_timeout_ms = 60_000;
        s.idle_timeout_ms = 60_000;
        s
    }
}

/// What the worker side of one session did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerTally {
    /// Pushes the server accepted.
    pub accepted: u64,
    /// Pushes answered `Backpressure` or `Stale`.
    pub retries: u64,
    /// Push payload bytes (replica only).
    pub push_bytes: u64,
    /// Pulled weight bytes (replica only).
    pub pull_bytes: u64,
    /// Gradient pairs pushed (replica only).
    pub pairs: u64,
    /// Rounds per epoch (replica only).
    pub rounds_per_epoch: u64,
}

/// One serve session's results.
#[derive(Debug)]
pub struct Session {
    /// Server bind (and relay start) plus the Predict client's connect.
    pub setup_s: f64,
    /// The worker's training call.
    pub train: Timed,
    /// Wall seconds of the whole session, set-up and teardown included.
    pub wall_s: f64,
    /// Server-side training summary.
    pub summary: ServeSummary,
    /// Bytes the worker's socket sent and received, when counted.
    pub bytes: Option<(u64, u64)>,
    /// Worker push accounting, or the worker's error.
    pub worker: Result<WorkerTally, String>,
    /// The Predict stream.
    pub predicts: Vec<Sample>,
    /// Predict replies with the wrong count or a non-finite score.
    pub bad_replies: usize,
    /// Start and end of the replica worker call on its tracer's clock.
    pub window: Option<(f64, f64)>,
}

/// Which worker loop a session runs.
pub enum Worker<'a> {
    /// `sketchml_net::run_worker`.
    Program,
    /// The benchmark's replica of it, with spans on the tracer.
    Replica(&'a mut Tracer),
}

/// Predict requests cycling through `test` in batches of
/// [`PREDICT_BATCH`].
pub fn predict_batches(test: &[Instance], count: usize) -> Vec<Vec<PredictInstance>> {
    (0..count)
        .map(|b| {
            (0..PREDICT_BATCH)
                .map(|i| {
                    let inst = &test[(b * PREDICT_BATCH + i) % test.len()];
                    PredictInstance {
                        indices: inst.features.indices().to_vec(),
                        values: inst.features.values().to_vec(),
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs one session: server up, worker trains to the end while the Predict
/// client sends at `rate_hz`, server down. With `count_bytes` the worker's
/// connection goes through a [`Relay`].
///
/// # Errors
/// Server, relay or client start-up failures.
pub fn session(
    setup: &ServeSetup,
    batches: &[Vec<PredictInstance>],
    rate_hz: f64,
    worker: Worker,
    count_bytes: bool,
) -> Result<Session, String> {
    let t0 = Instant::now();
    let server = Server::bind_tcp(setup.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let relay = if count_bytes {
        Some(Relay::start(server.addr()).map_err(|e| format!("relay: {e}"))?)
    } else {
        None
    };
    let addr = relay
        .as_ref()
        .map_or(server.addr(), |r| r.addr.as_str())
        .to_string();
    let mut predictor = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    let setup_s = t0.elapsed().as_secs_f64();

    let done = AtomicBool::new(false);
    let mut bad_replies = 0usize;
    let mut window = None;
    let (train, worker, predicts) = std::thread::scope(|s| {
        let stream = s.spawn(|| {
            let mut next = 0usize;
            drive(
                rate_hz,
                |_| done.load(Ordering::SeqCst),
                || {
                    let batch = batches[next % batches.len()].clone();
                    next += 1;
                    let n = batch.len();
                    match predictor.predict(batch) {
                        Ok(scores) if scores.len() == n && scores.iter().all(|x| x.is_finite()) => {
                            true
                        }
                        Ok(_) => {
                            bad_replies += 1;
                            false
                        }
                        Err(_) => false,
                    }
                },
            )
        });
        let (worker, train) = Timed::call(|| match worker {
            Worker::Program => run_worker(&addr, 0).map(|st| WorkerTally {
                accepted: st.pushes_accepted,
                retries: st.pushes_stale + st.backpressure_retries,
                ..WorkerTally::default()
            }),
            Worker::Replica(t) => {
                let from = t.now();
                let r = replica_worker(&addr, t);
                window = Some((from, t.now()));
                r
            }
        });
        done.store(true, Ordering::SeqCst);
        let predicts = stream.join().expect("predict thread panicked");
        (train, worker.map_err(|e| e.to_string()), predicts)
    });
    drop(predictor);
    server.shutdown();
    let summary = server.join();
    let bytes = match relay {
        Some(r) => Some(r.finish().map_err(|e| format!("relay: {e}"))?),
        None => None,
    };
    Ok(Session {
        setup_s,
        train,
        wall_s: t0.elapsed().as_secs_f64(),
        summary,
        bytes,
        worker,
        predicts,
        bad_replies,
        window,
    })
}

/// The benchmark's replica of `run_worker` for worker 0 of a fresh
/// session, with a span around every call.
fn replica_worker(addr: &str, t: &mut Tracer) -> Result<WorkerTally, NetError> {
    let mut client = t.span("net.connect", |_| Client::connect(addr))?;
    let setup = t.span("net.config", |_| client.get_config())?;
    setup.validate()?;
    let spec = setup.spec;
    let dim = setup.dataset.features as usize;
    let (train, _test) = t.span("data.generate", |_| setup.dataset.generate_split());
    let compressor = compressor_by_name(&setup.compressor)?;
    let mut batcher = Batcher::new(train.len(), setup.batch_ratio, spec.seed);
    let mut tally = WorkerTally {
        rounds_per_epoch: batcher.batches_per_epoch() as u64,
        ..WorkerTally::default()
    };
    let rpe = tally.rounds_per_epoch;
    let first = t.span("net.pull_first", |_| client.pull_model(0, 0, false))?;
    if first.round != 0 || first.done {
        return Err(NetError::Protocol(format!(
            "fresh session starts at round {} (done: {})",
            first.round, first.done
        )));
    }
    let mut round = 0u64;
    let mut model = GlmModel::new(dim, spec.loss, spec.l2)
        .map_err(|e| NetError::InvalidConfig(e.to_string()))?;
    let mut scratch = CompressScratch::default();
    let mut out = BytesMut::new();
    let mut epochs_consumed = 0u64;
    let mut current: Vec<Vec<usize>> = Vec::new();
    'rounds: loop {
        t.set_round(round);
        let view = t.span("net.pull", |_| client.pull_model(0, round, true))?;
        tally.pull_bytes += 8 * view.weights.len() as u64;
        if view.done {
            return Ok(tally);
        }
        if view.round < round {
            continue;
        }
        round = view.round;
        if view.weights.len() != dim {
            return Err(NetError::Protocol(format!(
                "model has {} weights, expected {dim}",
                view.weights.len()
            )));
        }
        model.weights = view.weights;
        let epoch = round / rpe;
        while epochs_consumed <= epoch {
            current = t.span("data.shuffle", |_| batcher.epoch());
            epochs_consumed += 1;
        }
        let batch = &current[(round % rpe) as usize];
        let slice: Vec<Instance> = t.span("cluster.gather", |_| {
            let part = partition(batch, setup.workers)
                .into_iter()
                .next()
                .unwrap_or_default();
            part.iter().map(|&i| train[i].clone()).collect()
        });
        let g = t.span("ml.grad", |_| model.batch_gradient(&slice));
        let loss_sum = g.loss_sum;
        let sparse = SparseGradient::new(dim as u64, g.keys, g.values)?;
        t.span("core.encode", |_| {
            compressor.compress_into(&sparse, &mut scratch, &mut out)
        })?;
        tally.push_bytes += out.len() as u64;
        tally.pairs += sparse.nnz() as u64;
        loop {
            let payload = out[..].to_vec();
            let (status, server_round) = t.span("net.push", |_| {
                client.push_gradient(0, round, loss_sum, slice.len() as u64, payload)
            })?;
            match status {
                PushStatus::Accepted => {
                    tally.accepted += 1;
                    round += 1;
                    break;
                }
                PushStatus::Stale => {
                    tally.retries += 1;
                    round = server_round;
                    break;
                }
                PushStatus::Backpressure => {
                    tally.retries += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
                PushStatus::Done => break 'rounds,
            }
        }
    }
    Ok(tally)
}

/// Forwards one TCP connection to an upstream address and counts the bytes
/// each way.
pub struct Relay {
    /// `tcp://` address to connect to instead of the upstream.
    pub addr: String,
    handle: JoinHandle<std::io::Result<(u64, u64)>>,
}

impl Relay {
    /// Listens on a loopback port for one connection to forward to
    /// `upstream` (`tcp://host:port`).
    ///
    /// # Errors
    /// Bind failures.
    pub fn start(upstream: &str) -> std::io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = format!("tcp://{}", listener.local_addr()?);
        listener.set_nonblocking(true)?;
        let upstream = upstream
            .strip_prefix("tcp://")
            .unwrap_or(upstream)
            .to_string();
        let handle = std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(60);
            let client = loop {
                match listener.accept() {
                    Ok((s, _)) => break s,
                    Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(e),
                }
            };
            client.set_nonblocking(false)?;
            client.set_nodelay(true)?;
            let server = TcpStream::connect(&upstream)?;
            server.set_nodelay(true)?;
            let (c2, s2) = (client.try_clone()?, server.try_clone()?);
            let upward = std::thread::spawn(move || pump(client, server));
            let down = pump(s2, c2);
            let up = upward.join().expect("relay pump panicked");
            Ok((up?, down?))
        });
        Ok(Relay { addr, handle })
    }

    /// Waits for both directions to close; returns `(sent, received)` from
    /// the connecting side's point of view.
    ///
    /// # Errors
    /// Socket failures while forwarding.
    pub fn finish(self) -> std::io::Result<(u64, u64)> {
        self.handle.join().expect("relay thread panicked")
    }
}

fn pump(mut from: TcpStream, mut to: TcpStream) -> std::io::Result<u64> {
    let mut buf = vec![0u8; 1 << 16];
    let mut total = 0u64;
    let result = loop {
        match from.read(&mut buf) {
            Ok(0) => break Ok(total),
            Ok(n) => {
                if let Err(e) = to.write_all(&buf[..n]) {
                    break Err(e);
                }
                total += n as u64;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => break Err(e),
        }
    };
    let _ = to.shutdown(Shutdown::Write);
    result
}
