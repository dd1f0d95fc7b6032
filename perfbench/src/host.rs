//! What the kernel reports about this process and its machine: peak
//! resident memory, CPU time used, and CPU time the hypervisor withheld.
//!
//! On a virtual machine whose virtual CPUs share physical cores with other
//! machines, the hypervisor can stop a runnable virtual CPU for
//! milliseconds at a time ("steal"). Timed calls therefore report their
//! wall time with the stolen time taken out as well as raw (see
//! [`Timed::effective`] and [`steal_free`]); with no steal they are equal.

use crate::stats::median;

/// Resets the process's peak resident set (`VmHWM`) to its current size,
/// so the next [`peak_mib`] covers only what runs in between. Returns
/// `false` where the kernel does not allow it.
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (MiB) since start-up or the last [`reset_peak`].
pub fn peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The median of per-call peaks, or the whole process's peak when the
/// peak could not be reset between calls.
pub fn median_or_process(per_call: &[f64]) -> f64 {
    if per_call.is_empty() {
        peak_mib()
    } else {
        median(per_call)
    }
}

/// CPU time the hypervisor took from this machine's virtual CPUs (steal,
/// summed over CPUs), in seconds since boot; 0 where not reported.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// User plus system CPU seconds this process has used.
pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th fields overall.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Wall, CPU and steal seconds of one timed call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timed {
    /// Wall seconds.
    pub wall: f64,
    /// CPU seconds this process used.
    pub cpu: f64,
    /// CPU seconds the hypervisor withheld from this machine.
    pub steal: f64,
}

impl Timed {
    /// Times `f`.
    pub fn call<T>(f: impl FnOnce() -> T) -> (T, Timed) {
        let (t0, c0, s0) = (std::time::Instant::now(), cpu_s(), steal_s());
        let out = f();
        let timed = Timed {
            wall: t0.elapsed().as_secs_f64(),
            cpu: cpu_s() - c0,
            steal: (steal_s() - s0).max(0.0),
        };
        (out, timed)
    }

    /// Wall seconds scaled by the share of the demanded CPU time the
    /// machine actually got: `wall × cpu / (cpu + steal)`. The call wanted
    /// `cpu + steal` CPU seconds and was given `cpu`, so with the CPU it
    /// asked for it would have taken this long.
    pub fn effective(&self) -> f64 {
        if self.cpu + self.steal > 0.0 {
            self.wall * self.cpu / (self.cpu + self.steal)
        } else {
            self.wall
        }
    }
}

/// Wall seconds of each of a run's calls with the hypervisor's steal taken
/// out.
///
/// How far a stolen CPU-second delays a call depends on the program: a
/// round loop with a barrier every millisecond stalls second for second,
/// while a call with work to spare on the other CPU absorbs part of it. So
/// the delay per stolen second `b` is fitted across the run's calls (least
/// squares of wall on steal), clamped to `[0, 1]`, and each call reports
/// `wall − b × steal`. With fewer than three calls, or steal that hardly
/// varies between them, each call reports [`Timed::effective`] instead.
pub fn steal_free(calls: &[Timed]) -> Vec<f64> {
    let n = calls.len() as f64;
    let (lo, hi) = calls.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), t| {
        (lo.min(t.steal), hi.max(t.steal))
    });
    // Two /proc/stat ticks (10 ms each) of spread.
    if calls.len() < 3 || hi - lo < 0.02 {
        return calls.iter().map(Timed::effective).collect();
    }
    let ms = calls.iter().map(|t| t.steal).sum::<f64>() / n;
    let mw = calls.iter().map(|t| t.wall).sum::<f64>() / n;
    let cov: f64 = calls.iter().map(|t| (t.steal - ms) * (t.wall - mw)).sum();
    let var: f64 = calls.iter().map(|t| (t.steal - ms).powi(2)).sum();
    let b = (cov / var).clamp(0.0, 1.0);
    calls.iter().map(|t| t.wall - b * t.steal).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(wall: f64, steal: f64) -> Timed {
        Timed {
            wall,
            cpu: 1.0,
            steal,
        }
    }

    #[test]
    fn steal_free_fits_the_delay_per_stolen_second() {
        // Wall = 0.5 + 0.8 × steal exactly: every call comes back to 0.5.
        let calls: Vec<Timed> = [0.0, 0.1, 0.3, 0.6]
            .iter()
            .map(|&s| call(0.5 + 0.8 * s, s))
            .collect();
        for e in steal_free(&calls) {
            assert!((e - 0.5).abs() < 1e-12, "{e}");
        }
        // A slope above one (noise) is clamped: a stolen second costs at
        // most a wall second.
        let steep: Vec<Timed> = [0.0, 0.1, 0.2]
            .iter()
            .map(|&s| call(0.5 + 3.0 * s, s))
            .collect();
        let e = steal_free(&steep);
        assert!((e[2] - (1.1 - 0.2)).abs() < 1e-12);
    }

    #[test]
    fn steal_free_falls_back_without_spread_in_steal() {
        let flat = [call(1.0, 0.5), call(1.2, 0.5), call(1.1, 0.505)];
        let want: Vec<f64> = flat.iter().map(Timed::effective).collect();
        assert_eq!(steal_free(&flat), want);
        let two = [call(1.0, 0.0), call(2.0, 1.0)];
        assert_eq!(steal_free(&two), vec![1.0, 1.0]);
    }

    #[test]
    fn effective_wall_removes_the_withheld_share() {
        let t = Timed {
            wall: 2.0,
            cpu: 3.0,
            steal: 1.0,
        };
        assert_eq!(t.effective(), 1.5);
        let calm = Timed {
            wall: 2.0,
            cpu: 3.0,
            steal: 0.0,
        };
        assert_eq!(calm.effective(), 2.0);
        assert_eq!(
            Timed {
                wall: 1.0,
                ..Timed::default()
            }
            .effective(),
            1.0
        );
    }
}
