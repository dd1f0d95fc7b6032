//! Open-loop Predict generation: request `i` is due at `i / rate` seconds
//! after the start whether or not earlier requests have returned, and its
//! latency runs from that due time. A stall therefore charges its wait to
//! every request queued behind it instead of silently lowering the load.

use crate::stats::{percentile, supports};
use std::time::{Duration, Instant};

/// One request's timeline, in seconds since the generator started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the schedule wanted the request sent.
    pub due: f64,
    /// When the generator actually sent it.
    pub sent: f64,
    /// When the reply (or the failure) came back.
    pub done: f64,
    /// Whether a well-formed reply came back.
    pub ok: bool,
}

/// Latency and lateness figures of one open-loop stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Requests the schedule issued.
    pub attempted: usize,
    /// Requests that failed or were refused.
    pub failed: usize,
    /// Requests that failed, were refused, or took longer than the limit.
    pub slo_miss: usize,
    /// Successful requests behind the latency percentiles.
    pub samples: usize,
    /// Median latency from due time (µs).
    pub p50_us: f64,
    /// 99th-percentile latency from due time (µs); `None` when fewer than
    /// 1,000 successful samples support it.
    pub p99_us: Option<f64>,
    /// 99th-percentile generator lateness, sent minus due (µs).
    pub lateness_p99_us: f64,
    /// Worst generator lateness (µs).
    pub lateness_max_us: f64,
}

/// Drives `send` on the open-loop schedule at `rate_hz` until `stop(i)`
/// returns true before request `i`, sleeping until each due time. `send`
/// returns whether the request succeeded.
pub fn drive(
    rate_hz: f64,
    mut stop: impl FnMut(usize) -> bool,
    mut send: impl FnMut() -> bool,
) -> Vec<Sample> {
    let origin = Instant::now();
    let mut out = Vec::new();
    let mut i = 0usize;
    while !stop(i) {
        let due = i as f64 / rate_hz;
        let now = origin.elapsed().as_secs_f64();
        if now < due {
            std::thread::sleep(Duration::from_secs_f64(due - now));
        }
        let sent = origin.elapsed().as_secs_f64();
        let ok = send();
        let done = origin.elapsed().as_secs_f64();
        out.push(Sample {
            due,
            sent,
            done,
            ok,
        });
        i += 1;
    }
    out
}

/// Summarizes a stream against a latency limit of `slo_us`. Failed
/// requests count as attempted, failed and SLO misses; they are not
/// latency samples.
pub fn summarize(samples: &[Sample], slo_us: f64) -> Summary {
    let mut latency: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| (s.done - s.due) * 1e6)
        .collect();
    latency.sort_by(f64::total_cmp);
    let mut lateness: Vec<f64> = samples.iter().map(|s| (s.sent - s.due) * 1e6).collect();
    lateness.sort_by(f64::total_cmp);
    let failed = samples.iter().filter(|s| !s.ok).count();
    let slow = latency.iter().filter(|&&l| l > slo_us).count();
    let pick = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { percentile(v, p) };
    Summary {
        attempted: samples.len(),
        failed,
        slo_miss: failed + slow,
        samples: latency.len(),
        p50_us: pick(&latency, 50.0),
        p99_us: supports(latency.len(), 99.0).then(|| percentile(&latency, 99.0)),
        lateness_p99_us: if supports(lateness.len(), 99.0) {
            percentile(&lateness, 99.0)
        } else {
            lateness.last().copied().unwrap_or(0.0)
        },
        lateness_max_us: lateness.last().copied().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(due: f64, sent: f64, done: f64, ok: bool) -> Sample {
        Sample {
            due,
            sent,
            done,
            ok,
        }
    }

    #[test]
    fn latency_runs_from_due_time_so_stalls_charge_the_queue() {
        // Due every 1 ms; the first reply stalls for 3.5 ms, so requests 1-3
        // go out late and each pays the wait since its own due time.
        let s = [
            at(0.000, 0.000, 0.0035, true),
            at(0.001, 0.0035, 0.0036, true),
            at(0.002, 0.0036, 0.0037, true),
            at(0.003, 0.0037, 0.0038, true),
        ];
        let sum = summarize(&s, 1e6);
        assert_eq!(sum.samples, 4);
        // Latencies: 3500, 2600, 1700, 800 µs; nearest-rank median = 1700.
        assert!((sum.p50_us - 1700.0).abs() < 1e-6);
        assert!((sum.lateness_max_us - 2500.0).abs() < 1e-6);
        // Too few samples for a p99, so lateness falls back to the max.
        assert_eq!(sum.p99_us, None);
        assert_eq!(sum.lateness_p99_us, sum.lateness_max_us);
    }

    #[test]
    fn failures_are_slo_misses_not_dropped_samples() {
        let s = [
            at(0.0, 0.0, 0.0001, true),
            at(0.001, 0.001, 0.0011, false),
            at(0.002, 0.002, 0.0500, true),
        ];
        let sum = summarize(&s, 10_000.0);
        assert_eq!(sum.attempted, 3);
        assert_eq!(sum.failed, 1);
        // One refused request plus one reply over the 10 ms limit.
        assert_eq!(sum.slo_miss, 2);
        assert_eq!(sum.samples, 2);
    }

    #[test]
    fn p99_and_lateness_p99_need_a_thousand_samples() {
        let s: Vec<Sample> = (0..1000)
            .map(|i| {
                let due = i as f64 * 1e-3;
                let late = if i >= 990 { 5e-3 } else { 1e-4 };
                at(due, due + late, due + late + 1e-4, true)
            })
            .collect();
        let sum = summarize(&s, 1e6);
        // 990 samples at 200 µs and 10 at 5100 µs: p99 is the 990th.
        assert!((sum.p99_us.expect("1000 samples") - 200.0).abs() < 1e-6);
        assert!((sum.lateness_p99_us - 100.0).abs() < 1e-6);
        assert!((sum.lateness_max_us - 5000.0).abs() < 1e-6);
    }

    #[test]
    fn drive_keeps_the_schedule_and_stops() {
        let mut calls = 0;
        let s = drive(
            2_000.0,
            |i| i == 5,
            || {
                calls += 1;
                calls != 3
            },
        );
        assert_eq!(s.len(), 5);
        assert_eq!(s.iter().filter(|x| !x.ok).count(), 1);
        for (i, x) in s.iter().enumerate() {
            assert_eq!(x.due, i as f64 / 2_000.0);
            assert!(x.sent >= x.due && x.done >= x.sent);
        }
    }
}
