//! Metric names, per-layer analysis of a traced run, output checks, and the
//! printed result.

use crate::host::Timed;
use crate::openloop::{summarize, Sample};
use crate::stats::{highest_supported, median};
use crate::trace::{self, Span};
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order. Predict
/// latency percentiles are measured and printed too, but not gated: on a
/// small shared virtual machine their run-to-run spread exceeds any usable
/// bound (see `README.md`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("train_samples_per_s", "instances/s"),
    ("final_test_loss", "loss"),
    ("wire_bytes_per_sample", "B/instance"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("predict_slo_met_ratio", "ratio"),
    ("succeeded_ratio", "ratio"),
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("data.generate_s", "s"),
    ("data.self_s", "s"),
    ("cluster.rounds", "count"),
    ("cluster.gather_s", "s"),
    ("cluster.fanout_wait_s", "s"),
    ("cluster.worker_skew_s", "s"),
    ("cluster.self_s", "s"),
    ("ml.grad_s", "s"),
    ("ml.apply_s", "s"),
    ("ml.eval_s", "s"),
    ("ml.self_s", "s"),
    ("core.encode_s", "s"),
    ("core.decode_s", "s"),
    ("core.merge_s", "s"),
    ("core.downlink_encode_s", "s"),
    ("core.uplink_bytes", "B"),
    ("core.downlink_bytes", "B"),
    ("core.compression_ratio", "ratio"),
    ("core.self_s", "s"),
    ("core.quantify_s", "s"),
    ("sketches.minmax_insert_s", "s"),
    ("encoding.key_encode_s", "s"),
    ("core.stage_cover", "ratio"),
    ("collectives.allreduce_s", "s"),
    ("collectives.hops", "count"),
    ("collectives.bytes", "B"),
    ("collectives.self_s", "s"),
    ("net.pull_s", "s"),
    ("net.pull_bytes", "B"),
    ("net.epoch_stall_s", "s"),
    ("net.push_s", "s"),
    ("net.push_retries", "count"),
    ("net.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.cover", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// Counts a traced training call produced outside its spans.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Rounds (simulator) or accepted pushes (serve).
    pub rounds: u64,
    /// Uplink payload bytes.
    pub uplink: u64,
    /// Downlink payload bytes.
    pub downlink: u64,
    /// Gradient pairs shipped uplink.
    pub pairs: u64,
    /// Bytes the collective hops carried.
    pub collective_bytes: u64,
    /// Pushes answered `Backpressure` or `Stale`.
    pub push_retries: u64,
    /// Rounds per epoch of a serve session (0 for the simulator).
    pub rounds_per_epoch: u64,
}

/// Per-layer metrics of one traced training call spanning `[from, to]` on
/// the tracer's clock. `stages` holds the codec-stage replay spans;
/// `untraced_wall` is the program's own wall time for the same call.
pub fn layers(
    spans: &[Span],
    stages: &[Span],
    from: f64,
    to: f64,
    untraced_wall: f64,
    c: &Counts,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let total = |name: &str| trace::total(spans, name);
    let wall = (to - from) - total("replay.stages");

    // Fan-out: wall time not spent in the slowest worker (thread start and
    // join), and the straggler gap between the slowest and the mean worker.
    let mut busy: HashMap<usize, Vec<f64>> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == "cluster.worker") {
        if let Some(p) = s.parent {
            busy.entry(p).or_default().push(s.secs());
        }
    }
    let (mut wait, mut skew) = (0.0, 0.0);
    for (p, b) in &busy {
        let max = b.iter().copied().fold(0.0, f64::max);
        let mean = b.iter().sum::<f64>() / b.len() as f64;
        wait += spans[*p].secs() - max;
        skew += max - mean;
    }

    // Pulls: the two after an epoch's last push carry the server's eval
    // and checkpoint (the round is published before them, so the stall
    // lands on the second); every other pull is a mid-epoch pull.
    let (mut stall, mut pull) = (0.0, total("net.pull"));
    if c.rounds_per_epoch > 0 {
        let rpe = c.rounds_per_epoch;
        let is_boundary = |s: &Span| s.round >= rpe && s.round % rpe < 2;
        let pulls: Vec<&Span> = spans.iter().filter(|s| s.name == "net.pull").collect();
        let mid: Vec<f64> = pulls
            .iter()
            .filter(|s| !is_boundary(s))
            .map(|s| s.secs())
            .collect();
        if !mid.is_empty() {
            let base = median(&mid);
            stall = pulls
                .iter()
                .filter(|s| is_boundary(s))
                .map(|s| s.secs() - base)
                .sum::<f64>();
            pull -= stall;
        }
    }

    let selfs = trace::layer_self(spans);
    let self_of = |layer: &str| selfs.get(layer).copied().unwrap_or(0.0);
    let encode = total("core.encode");
    let stage_sum = [
        "core.quantify",
        "sketches.minmax_insert",
        "encoding.key_encode",
    ]
    .iter()
    .map(|n| trace::total(stages, n))
    .sum::<f64>();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    m.insert("data.self_s", self_of("data"));
    m.insert("cluster.rounds", c.rounds as f64);
    m.insert("cluster.gather_s", total("cluster.gather"));
    m.insert("cluster.fanout_wait_s", wait);
    m.insert("cluster.worker_skew_s", skew);
    m.insert("cluster.self_s", self_of("cluster"));
    m.insert("ml.grad_s", total("ml.grad"));
    m.insert("ml.apply_s", total("ml.apply"));
    m.insert("ml.eval_s", total("ml.eval"));
    m.insert("ml.self_s", self_of("ml"));
    m.insert("core.encode_s", encode);
    m.insert("core.decode_s", total("core.decode"));
    m.insert("core.merge_s", total("core.merge"));
    m.insert("core.downlink_encode_s", total("core.downlink_encode"));
    m.insert("core.uplink_bytes", c.uplink as f64);
    m.insert("core.downlink_bytes", c.downlink as f64);
    m.insert(
        "core.compression_ratio",
        ratio(12.0 * c.pairs as f64, c.uplink as f64),
    );
    m.insert("core.self_s", self_of("core"));
    m.insert("core.quantify_s", trace::total(stages, "core.quantify"));
    m.insert(
        "sketches.minmax_insert_s",
        trace::total(stages, "sketches.minmax_insert"),
    );
    m.insert(
        "encoding.key_encode_s",
        trace::total(stages, "encoding.key_encode"),
    );
    m.insert(
        "core.stage_cover",
        ratio(stage_sum, if stages.is_empty() { 0.0 } else { encode }),
    );
    m.insert("collectives.allreduce_s", total("collectives.allreduce"));
    m.insert(
        "collectives.hops",
        trace::count(spans, "collectives.hop") as f64,
    );
    m.insert("collectives.bytes", c.collective_bytes as f64);
    m.insert("collectives.self_s", self_of("collectives"));
    m.insert("net.pull_s", pull);
    m.insert(
        "net.pull_bytes",
        if c.rounds_per_epoch > 0 {
            c.downlink as f64
        } else {
            0.0
        },
    );
    m.insert("net.epoch_stall_s", stall);
    m.insert("net.push_s", total("net.push"));
    m.insert("net.push_retries", c.push_retries as f64);
    m.insert("net.self_s", self_of("net"));
    m.insert("trace.wall_s", wall);
    m.insert("trace.cover", trace::coverage(spans, from, to, "replay"));
    m.insert("trace.overhead_s", wall - untraced_wall);
    m.insert("trace.spans", (spans.len() + stages.len()) as f64);
    m
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence when it did not.
    pub detail: String,
}

impl Check {
    /// A check that held.
    pub fn pass(name: &str) -> Check {
        Check::that(name, true, String::new())
    }

    /// A check that failed.
    pub fn fail(name: &str, detail: String) -> Check {
        Check::that(name, false, detail)
    }

    /// A check of `ok`.
    pub fn that(name: &str, ok: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail: if ok { String::new() } else { detail },
        }
    }

    /// Exact equality of `got` and `want`.
    pub fn equal<T: PartialEq + Debug>(name: &str, got: &T, want: &T) -> Check {
        Check::that(name, got == want, format!("got {got:?}, want {want:?}"))
    }
}

/// Everything one run prints.
pub struct Report {
    workload: &'static str,
    seed: u64,
    trace: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    metrics: Vec<(String, f64, String)>,
    notes: Vec<(String, Value)>,
    checks: Vec<Check>,
    spans: Vec<Span>,
    abandoned: bool,
}

impl Report {
    /// An empty report for one run.
    pub fn new(workload: &'static str, seed: u64, trace: bool) -> Report {
        Report {
            workload,
            seed,
            trace,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            checks: Vec::new(),
            spans: Vec::new(),
            abandoned: false,
        }
    }

    /// Records a metric. The final line carries only the metrics of this
    /// run's kind ([`END_TO_END`] or [`PER_LAYER`]); the summary and the
    /// record show every one.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.into(), value, unit.into()));
    }

    /// Records each timed call's wall, CPU and steal seconds.
    pub fn timings(&mut self, calls: &[Timed]) {
        let col = |f: fn(&Timed) -> f64| f64s(&calls.iter().map(f).collect::<Vec<_>>());
        self.note("train_wall_s", col(|t| t.wall));
        self.note("train_cpu_s", col(|t| t.cpu));
        self.note("train_steal_s", col(|t| t.steal));
        self.note("train_steal_free_s", f64s(&crate::host::steal_free(calls)));
    }

    /// Adds a field to the result record.
    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.push((key.into(), value));
    }

    /// Records an output check; a repeated check keeps its first failure.
    pub fn check(&mut self, c: Check) {
        match self.checks.iter_mut().find(|k| k.name == c.name) {
            Some(k) if k.ok => *k = c,
            Some(_) => {}
            None => self.checks.push(c),
        }
    }

    /// Gives up on the remaining measurements; the run reports incorrect.
    pub fn abandon(&mut self) {
        self.abandoned = true;
    }

    /// The Predict metrics of an open-loop stream at `rate_hz` against a
    /// `slo_us` limit; `bad` replies had the wrong count or a non-finite
    /// score.
    pub fn predicts(&mut self, samples: &[Sample], rate_hz: f64, slo_us: f64, bad: usize) {
        let s = summarize(samples, slo_us);
        self.attempted += s.attempted as u64;
        self.failed += s.failed as u64;
        self.check(Check::that(
            "every Predict returns one finite score per instance",
            s.failed == 0 && bad == 0,
            format!("{} failed, {bad} malformed", s.failed),
        ));
        self.check(Check::that(
            "p99 has at least 10 samples beyond it",
            s.p99_us.is_some(),
            format!("{} samples", s.samples),
        ));
        let met = 1.0 - s.slo_miss as f64 / s.attempted.max(1) as f64;
        self.metric("predict_p50_us", s.p50_us, "us");
        self.metric("predict_p99_us", s.p99_us.unwrap_or(f64::NAN), "us");
        self.metric("predict_slo_met_ratio", met, "ratio");
        self.note(
            "predict",
            Value::Obj(vec![
                ("offered_rate_hz".into(), Value::F64(rate_hz)),
                ("slo_us".into(), Value::F64(slo_us)),
                ("attempted".into(), Value::U64(s.attempted as u64)),
                ("failed".into(), Value::U64(s.failed as u64)),
                ("slo_miss".into(), Value::U64(s.slo_miss as u64)),
                ("slo_miss_ratio".into(), Value::F64(1.0 - met)),
                // The sample count behind both percentiles.
                ("latency_samples".into(), Value::U64(s.samples as u64)),
                (
                    "highest_supported_percentile".into(),
                    highest_supported(s.samples, &[50.0, 90.0, 99.0, 99.9])
                        .map_or(Value::Null, Value::F64),
                ),
                ("lateness_p99_us".into(), Value::F64(s.lateness_p99_us)),
                ("lateness_max_us".into(), Value::F64(s.lateness_max_us)),
            ]),
        );
    }

    /// The per-layer metrics: medians over the traced calls in `runs`,
    /// plus the median data-generation time.
    pub fn layers(&mut self, runs: &[BTreeMap<&'static str, f64>], generate_s: f64) {
        if runs.is_empty() {
            return self.abandon();
        }
        self.note("traced_calls", Value::U64(runs.len() as u64));
        for (name, unit) in PER_LAYER {
            let v = if name == "data.generate_s" {
                generate_s
            } else {
                let vals: Vec<f64> = runs.iter().filter_map(|r| r.get(name).copied()).collect();
                if vals.len() != runs.len() {
                    continue;
                }
                median(&vals)
            };
            self.metric(name, v, unit);
        }
    }

    /// Keeps the last traced call's spans for the trace file.
    pub fn spans(&mut self, spans: Vec<Span>) {
        self.spans = spans;
    }

    /// Prints the human-readable summary, the result record and the final
    /// JSON line; writes the record and spans under `out`; exits non-zero
    /// when a check failed.
    pub fn finish(mut self, out: Option<&str>) -> ! {
        if !self.trace {
            let ok = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
            self.metric("succeeded_ratio", ok, "ratio");
        }
        let wanted: Vec<(&str, &str)> = if self.trace {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.to_vec()
        };
        for (name, unit) in &wanted {
            let have = self
                .metrics
                .iter()
                .any(|(n, v, u)| n == name && u == unit && v.is_finite());
            if !have {
                self.check(Check::fail(
                    "every metric measured",
                    format!("{name} missing"),
                ));
            }
        }
        let correct = !self.abandoned && self.checks.iter().all(|c| c.ok);

        println!(
            "== {} seed {} ({}) ==",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "end to end" }
        );
        for (name, value, unit) in &self.metrics {
            let gated = wanted.iter().any(|(w, _)| w == name);
            let tag = if gated { "" } else { "  (not gated)" };
            println!("{name:<28} {value:>16.6} {unit}{tag}");
        }
        for c in &self.checks {
            if c.ok {
                println!("check ok    {}", c.name);
            } else {
                println!("check FAIL  {}: {}", c.name, c.detail);
            }
        }
        let metric_obj = |metrics: &[(String, f64, String)]| {
            Value::Obj(
                metrics
                    .iter()
                    .map(|(n, v, u)| {
                        (
                            n.clone(),
                            Value::Obj(vec![
                                ("value".into(), Value::F64(*v)),
                                ("unit".into(), Value::Str(u.clone())),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        let checks = Value::Arr(
            self.checks
                .iter()
                .map(|c| {
                    Value::Obj(vec![
                        ("check".into(), Value::Str(c.name.clone())),
                        ("ok".into(), Value::Bool(c.ok)),
                        ("detail".into(), Value::Str(c.detail.clone())),
                    ])
                })
                .collect(),
        );
        let mut record = vec![
            ("workload".into(), Value::Str(self.workload.into())),
            ("seed".into(), Value::U64(self.seed)),
            ("trace".into(), Value::Bool(self.trace)),
        ];
        record.extend(self.notes.iter().cloned());
        record.push(("checks".into(), checks));
        record.push(("metrics".into(), metric_obj(&self.metrics)));
        let record = serde_json::to_string(&Value::Obj(record)).expect("record serializes");
        println!("record {record}");
        if let Some(dir) = out {
            let stem = format!(
                "{dir}/{}-seed{}-trace{}",
                self.workload,
                self.seed,
                u8::from(self.trace)
            );
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(format!("{stem}.json"), &record))
                .and_then(|()| {
                    if self.spans.is_empty() {
                        Ok(())
                    } else {
                        std::fs::write(
                            format!("{stem}.spans.json"),
                            trace::chrome_json(&self.spans),
                        )
                    }
                });
            if let Err(e) = written {
                eprintln!("perfbench: writing {stem}: {e}");
            }
        }
        let last = Value::Obj(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            (
                "metrics".into(),
                metric_obj(
                    &self
                        .metrics
                        .iter()
                        .filter(|(n, _, _)| wanted.iter().any(|(w, _)| w == n))
                        .cloned()
                        .collect::<Vec<_>>(),
                ),
            ),
        ]);
        println!(
            "{}",
            serde_json::to_string(&last).expect("result serializes")
        );
        std::process::exit(if correct { 0 } else { 1 });
    }
}

/// A JSON array of floats.
pub fn f64s(v: &[f64]) -> Value {
    Value::Arr(v.iter().copied().map(Value::F64).collect())
}
