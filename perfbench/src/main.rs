//! End-to-end, layer-by-layer benchmark of SketchML training and serving.
//!
//! ```text
//! sketchml-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    [--out <dir>] [--rev <git rev>] [--source <digest>] [--rustc <version>]
//! ```
//!
//! `--trace 0` times the program's own entry points and prints the
//! end-to-end metrics; `--trace 1` drives the benchmark's replica of each
//! round loop with spans around every public call and prints the per-layer
//! metrics. Both runs check the outputs and end with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod host;
mod openloop;
mod replay;
mod report;
mod serve;
mod sim;
mod stats;
mod trace;

use host::Timed;
use report::{Check, Report};
use serde::Value;
use sim::{Data, Path, SimShape};
use sketchml_data::SparseDatasetSpec;
use sketchml_ml::{GlmModel, Instance};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Predict latency limit (µs) behind `predict_slo_met_ratio`.
const SLO_US: f64 = 50_000.0;
/// Offered open-loop Predict rate during training (requests/s, 8 instances
/// each), far below the server's closed-loop capacity.
const PREDICT_RATE_HZ: f64 = 500.0;

/// A named workload.
struct Workload {
    name: &'static str,
    features: u32,
    instances: usize,
    kind: Kind,
}

enum Kind {
    Sim(SimShape),
    Serve(serve::ServeShape),
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sim-sketchml-d1m",
        features: 1_000_000,
        instances: 100_000,
        kind: Kind::Sim(SimShape {
            path: Path::DriverSketchMl,
            batch_ratio: 0.1,
            epochs: 3,
            lr: 0.05,
        }),
    },
    Workload {
        name: "sim-ring-raw-d100k",
        features: 100_000,
        instances: 40_000,
        kind: Kind::Sim(SimShape {
            path: Path::RingRaw,
            batch_ratio: 0.005,
            epochs: 2,
            lr: 0.05,
        }),
    },
    Workload {
        name: "serve-sketchml-d1m",
        features: 1_000_000,
        instances: 40_000,
        kind: Kind::Serve(serve::ServeShape {
            batch_ratio: 0.1,
            epochs: 2,
            lr: 0.05,
        }),
    },
];

impl Workload {
    /// The kdd12-like shape at this workload's size, generated from `seed`.
    fn dataset(&self, seed: u64) -> SparseDatasetSpec {
        let mut d = SparseDatasetSpec::kdd12_like().with_seed(seed);
        d.features = self.features;
        d.instances = self.instances;
        d
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    rev: String,
    source: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{k}`"))?;
        let v = it.next().ok_or_else(|| format!("`{k}` needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let need = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let opt = |k: &str| kv.get(k).cloned().unwrap_or_else(|| "unknown".into());
    let seconds: f64 = need("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range (0, 120]"));
    }
    Ok(Args {
        workload: need("workload")?,
        seed: need("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match need("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        out: kv.get("out").cloned(),
        rev: opt("rev"),
        source: opt("source"),
        rustc: opt("rustc"),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload `{}` (have: {})",
            args.workload,
            names.join(", ")
        );
        std::process::exit(2);
    };
    let mut rep = Report::new(w.name, args.seed, args.trace);
    rep.note("git_rev", Value::Str(args.rev.clone()));
    rep.note("source_digest", Value::Str(args.source.clone()));
    rep.note("rustc", Value::Str(args.rustc.clone()));
    rep.note(
        "nproc",
        Value::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
    );
    // True only when the `simd` feature was built and the CPU has the lanes.
    rep.note("simd", Value::Bool(sketchml_core::simd::lanes_active()));
    rep.note("seconds", Value::F64(args.seconds));
    match &w.kind {
        Kind::Sim(shape) => run_sim(w, shape, &args, &mut rep),
        Kind::Serve(shape) => run_serve(w, shape, &args, &mut rep),
    }
    rep.finish(args.out.as_deref());
}

/// Generates the dataset [`SETUP_REPS`] times; returns the last split and
/// the median effective generation time (see [`Timed::effective`]).
fn generate(w: &Workload, seed: u64, t: &mut Tracer) -> (Data, f64) {
    let spec = w.dataset(seed);
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut data = None;
    for _ in 0..SETUP_REPS {
        // Free the previous copy first so only one is ever resident.
        drop(data.take());
        let ((train, test), timed) =
            Timed::call(|| t.span("data.generate", |_| spec.generate_split()));
        times.push(timed.effective());
        data = Some(Data {
            train,
            test,
            dim: w.features as usize,
        });
    }
    (data.expect("at least one set-up"), stats::median(&times))
}

/// One call of the program's own training entry point, timed from outside.
fn program_call(
    rep: &mut Report,
    shape: &SimShape,
    data: &Data,
    seed: u64,
) -> Option<(sim::Outcome, Timed)> {
    rep.attempted += 1;
    match Timed::call(|| sim::program(shape, data, seed)) {
        (Ok(o), t) => Some((o, t)),
        (Err(e), _) => {
            rep.failed += 1;
            rep.check(Check::fail("training call", e.to_string()));
            None
        }
    }
}

/// Scores Predict-sized batches of `test` with `model` on the open-loop
/// schedule until `done`; a reply is one finite score per instance.
fn score_stream(model: &GlmModel, test: &[Instance], done: &AtomicBool) -> Vec<openloop::Sample> {
    let mut next = 0usize;
    openloop::drive(
        PREDICT_RATE_HZ,
        |_| done.load(Ordering::SeqCst),
        || {
            let scores: Vec<f64> = (0..serve::PREDICT_BATCH)
                .map(|k| model.score(&test[(next * serve::PREDICT_BATCH + k) % test.len()]))
                .collect();
            next += 1;
            scores.len() == serve::PREDICT_BATCH && scores.iter().all(|x| x.is_finite())
        },
    )
}

fn run_sim(w: &Workload, shape: &SimShape, args: &Args, rep: &mut Report) {
    let mut setup_tracer = Tracer::new();
    let (data, setup_s) = generate(w, args.seed, &mut setup_tracer);
    let samples_per_call = (data.train.len() * shape.epochs) as f64;
    let window = Instant::now();

    // The program's first call warms the process up and is not timed.
    let Some((first, _)) = program_call(rep, shape, &data, args.seed) else {
        return rep.abandon();
    };
    rep.check(Check::that(
        "losses are finite",
        first
            .test_losses
            .iter()
            .chain(&first.train_losses)
            .all(|l| l.is_finite()),
        format!("{:?}", first.test_losses),
    ));
    // One untraced replica call: it must match the program exactly, and its
    // model answers the Predict stream.
    let mut t = Tracer::new();
    rep.attempted += 1;
    let model = match sim::replica(shape, &data, args.seed, &mut t, None) {
        Ok((o, m)) => {
            rep.check(Check::equal("replica loop matches the program", &o, &first));
            m
        }
        Err(e) => {
            rep.failed += 1;
            rep.check(Check::fail("replica loop", e.to_string()));
            return rep.abandon();
        }
    };

    // Timed calls, with the Predict stream scoring alongside when untraced.
    // Traced runs time one call, for the tracing overhead.
    let done = AtomicBool::new(false);
    let mut outs = Vec::new();
    let mut timed: Vec<Timed> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    let samples = std::thread::scope(|s| {
        let stream = (!args.trace).then(|| s.spawn(|| score_stream(&model, &data.test, &done)));
        let start = window.elapsed().as_secs_f64();
        loop {
            let reset = host::reset_peak();
            let Some((o, t)) = program_call(rep, shape, &data, args.seed) else {
                break;
            };
            if reset {
                peaks.push(host::peak_mib());
            }
            outs.push(o);
            timed.push(t);
            let el = window.elapsed().as_secs_f64();
            let budget = args.seconds - start;
            if args.trace || (timed.len() >= 2 && !fits(timed.len(), el - start, 0.0, budget)) {
                break;
            }
        }
        done.store(true, Ordering::SeqCst);
        stream.map(|h| h.join().expect("predict thread panicked"))
    });
    if timed.is_empty() {
        return rep.abandon();
    }
    let differs = outs.iter().find(|o| **o != first).unwrap_or(&first);
    rep.check(Check::equal(
        "repeat calls: same losses and bytes",
        differs,
        &first,
    ));

    let untraced = stats::median(&timed.iter().map(|t| t.wall).collect::<Vec<_>>());
    let (layer_runs, spans_out) = if args.trace {
        let calls = 2 + timed.len();
        traced_sim(rep, shape, &data, args, &first, untraced, (window, calls))
    } else {
        (Vec::new(), Vec::new())
    };

    let tput: Vec<f64> = host::steal_free(&timed)
        .iter()
        .map(|e| samples_per_call / e)
        .collect();
    rep.note("timed_calls", Value::U64(timed.len() as u64));
    rep.timings(&timed);
    rep.note("rounds_per_call", Value::U64(first.rounds));
    rep.note("train_instances", Value::U64(data.train.len() as u64));
    rep.note("test_losses", report::f64s(&first.test_losses));
    rep.metric("train_samples_per_s", stats::median(&tput), "instances/s");
    let final_loss = *first.test_losses.last().expect("at least one epoch");
    rep.metric("final_test_loss", final_loss, "loss");
    rep.metric(
        "wire_bytes_per_sample",
        (first.uplink + first.downlink) as f64 / samples_per_call,
        "B/instance",
    );
    rep.metric("setup_s", setup_s, "s");
    rep.metric("peak_rss_mb", host::median_or_process(&peaks), "MiB");
    if args.trace {
        let gen = trace::total(setup_tracer.spans(), "data.generate") / SETUP_REPS as f64;
        rep.layers(&layer_runs, gen);
        rep.spans(spans_out);
    } else if let Some(samples) = samples {
        rep.predicts(&samples, PREDICT_RATE_HZ, SLO_US, 0);
    }
}

/// Traced replica calls until the run's time is spent, starting `calls`
/// calls into the window that opened at `window.0`: the per-layer metrics
/// of each call, and the last call's spans.
fn traced_sim(
    rep: &mut Report,
    shape: &SimShape,
    data: &Data,
    args: &Args,
    first: &sim::Outcome,
    untraced: f64,
    (window, calls): (Instant, usize),
) -> (Vec<BTreeMap<&'static str, f64>>, Vec<trace::Span>) {
    let mut replay = replay::StageReplay::new(sketchml_core::SketchMlCompressor::default().config);
    let mut runs = Vec::new();
    let mut spans = Vec::new();
    loop {
        let mut t = Tracer::new();
        let mut stages = Tracer::new();
        let with_replay = shape.path == Path::DriverSketchMl;
        let t0 = t.now();
        rep.attempted += 1;
        let r = sim::replica(
            shape,
            data,
            args.seed,
            &mut t,
            with_replay.then_some((&mut replay, &mut stages)),
        );
        let t1 = t.now();
        let o = match r {
            Ok((o, _)) => o,
            Err(e) => {
                rep.failed += 1;
                rep.check(Check::fail("replica loop", e.to_string()));
                break;
            }
        };
        rep.check(Check::equal("replica loop matches the program", &o, first));
        let counts = report::Counts {
            rounds: o.rounds,
            uplink: o.uplink,
            downlink: o.downlink,
            pairs: o.pairs,
            collective_bytes: if shape.path == Path::RingRaw {
                o.uplink + o.downlink
            } else {
                0
            },
            ..report::Counts::default()
        };
        runs.push(report::layers(
            t.spans(),
            stages.spans(),
            t0,
            t1,
            untraced,
            &counts,
        ));
        spans = t.spans().to_vec();
        if !fits(
            calls + runs.len(),
            window.elapsed().as_secs_f64(),
            0.0,
            args.seconds,
        ) {
            break;
        }
    }
    (runs, spans)
}

fn run_serve(w: &Workload, shape: &serve::ServeShape, args: &Args, rep: &mut Report) {
    let mut setup_tracer = Tracer::new();
    let (data, gen_s) = generate(w, args.seed, &mut setup_tracer);
    let samples_per_call = (data.train.len() * shape.epochs) as f64;
    let batches = serve::predict_batches(&data.test, 256);
    drop(data);
    let setup = shape.setup(w.dataset(args.seed), args.seed);
    let window = Instant::now();

    // The first session warms the process up and counts the worker's bytes
    // through the relay; it is not timed.
    let Some(counted) = checked_session(rep, &setup, &batches, serve::Worker::Program, true) else {
        return rep.abandon();
    };
    let bytes = counted.bytes.unwrap_or_default();
    let tally = counted.worker.clone().unwrap_or_default();
    let key = |s: &serve::Session| s.summary.final_test_loss.to_bits();

    // Timed sessions connect straight to the server. Traced runs time one,
    // for the overhead.
    let mut timed: Vec<serve::Session> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    loop {
        let reset = host::reset_peak();
        let Some(s) = checked_session(rep, &setup, &batches, serve::Worker::Program, false) else {
            break;
        };
        if reset {
            peaks.push(host::peak_mib());
        }
        timed.push(s);
        let el = window.elapsed().as_secs_f64();
        let calls = timed.len() + 1;
        if args.trace || (timed.len() >= 2 && !fits(calls, el, el / calls as f64, args.seconds)) {
            break;
        }
    }
    if timed.is_empty() {
        return rep.abandon();
    }
    let differs = timed
        .iter()
        .find(|s| key(s) != key(&counted))
        .unwrap_or(&counted);
    rep.check(Check::equal(
        "repeat sessions: same final loss",
        &key(differs),
        &key(&counted),
    ));
    let trains: Vec<Timed> = timed.iter().map(|s| s.train).collect();
    let untraced = stats::median(&trains.iter().map(|t| t.wall).collect::<Vec<_>>());

    // Replica sessions go through the relay too, so their bytes compare.
    let mut layer_runs: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut spans_out = Vec::new();
    loop {
        let mut t = Tracer::new();
        let Some(s) = checked_session(rep, &setup, &batches, serve::Worker::Replica(&mut t), true)
        else {
            break;
        };
        let replica = s.worker.clone().unwrap_or_default();
        rep.check(Check::equal(
            "replica worker matches run_worker: final loss, bytes, pushes",
            &(key(&s), s.bytes, replica.accepted),
            &(key(&counted), counted.bytes, tally.accepted),
        ));
        if args.trace {
            let (t0, t1) = s.window.unwrap_or_default();
            let counts = report::Counts {
                rounds: replica.accepted,
                uplink: replica.push_bytes,
                downlink: replica.pull_bytes,
                pairs: replica.pairs,
                push_retries: replica.retries,
                rounds_per_epoch: replica.rounds_per_epoch,
                ..report::Counts::default()
            };
            layer_runs.push(report::layers(t.spans(), &[], t0, t1, untraced, &counts));
            spans_out = t.spans().to_vec();
        }
        let calls = 1 + timed.len() + layer_runs.len();
        if !args.trace || !fits(calls, window.elapsed().as_secs_f64(), 0.0, args.seconds) {
            break;
        }
    }

    let tput: Vec<f64> = host::steal_free(&trains)
        .iter()
        .map(|e| samples_per_call / e)
        .collect();
    let setups: Vec<f64> = timed.iter().map(|s| s.setup_s).collect();
    rep.note("timed_sessions", Value::U64(timed.len() as u64));
    rep.timings(&trains);
    rep.note("server_setup_s", report::f64s(&setups));
    let walls: Vec<f64> = timed.iter().map(|s| s.wall_s).collect();
    rep.note("session_wall_s", report::f64s(&walls));
    rep.note("rounds_per_call", Value::U64(counted.summary.rounds));
    rep.note("pushes_accepted", Value::U64(tally.accepted));
    rep.note("worker_bytes_up", Value::U64(bytes.0));
    rep.note("worker_bytes_down", Value::U64(bytes.1));
    rep.metric("setup_s", gen_s + stats::median(&setups), "s");
    rep.metric("train_samples_per_s", stats::median(&tput), "instances/s");
    rep.metric("final_test_loss", counted.summary.final_test_loss, "loss");
    rep.metric(
        "wire_bytes_per_sample",
        (bytes.0 + bytes.1) as f64 / samples_per_call,
        "B/instance",
    );
    rep.metric("peak_rss_mb", host::median_or_process(&peaks), "MiB");
    if args.trace {
        let gen = trace::total(setup_tracer.spans(), "data.generate") / SETUP_REPS as f64;
        rep.layers(&layer_runs, gen);
        rep.spans(spans_out);
    } else {
        let predicts: Vec<openloop::Sample> = timed
            .iter()
            .flat_map(|s| s.predicts.iter().copied())
            .collect();
        let bad = timed.iter().map(|s| s.bad_replies).sum();
        rep.predicts(&predicts, PREDICT_RATE_HZ, SLO_US, bad);
    }
}

/// Whether one more call, as long as the mean of the `calls` made in
/// `elapsed` seconds, still fits in `budget` with `reserve` seconds to spare.
fn fits(calls: usize, elapsed: f64, reserve: f64, budget: f64) -> bool {
    elapsed + elapsed / calls.max(1) as f64 + reserve <= budget
}

/// Runs one serve session and its checks; `None` if it failed.
fn checked_session(
    rep: &mut Report,
    setup: &sketchml_net::ServeSetup,
    batches: &[Vec<sketchml_net::PredictInstance>],
    worker: serve::Worker,
    count_bytes: bool,
) -> Option<serve::Session> {
    rep.attempted += 1;
    match serve::session(setup, batches, PREDICT_RATE_HZ, worker, count_bytes) {
        Ok(s) => session_checks(rep, &s).then_some(s),
        Err(e) => {
            rep.failed += 1;
            rep.check(Check::fail("serve session", e));
            None
        }
    }
}

/// Checks every session must pass; returns whether this one did.
fn session_checks(rep: &mut Report, s: &serve::Session) -> bool {
    let mut ok = true;
    let mut check = |c: Check| {
        ok &= c.ok;
        rep.check(c);
    };
    check(match &s.worker {
        Ok(_) => Check::pass("worker trained to the end"),
        Err(e) => Check::fail("worker trained to the end", e.clone()),
    });
    check(Check::that(
        "serve run ends with aborted == false",
        !s.summary.aborted,
        format!("{:?}", s.summary),
    ));
    check(Check::that(
        "final test loss is finite",
        s.summary.final_test_loss.is_finite(),
        format!("{}", s.summary.final_test_loss),
    ));
    check(Check::that(
        "every Predict returns one finite score per instance",
        s.bad_replies == 0,
        format!("{} bad replies", s.bad_replies),
    ));
    // A training call that errs, and every push not accepted, is a failed
    // operation.
    let (accepted, retries) = s
        .worker
        .as_ref()
        .map_or((0, 0), |w| (w.accepted, w.retries));
    rep.attempted += accepted + retries;
    rep.failed += retries + u64::from(s.worker.is_err());
    ok
}
