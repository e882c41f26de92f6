//! Sample bookkeeping shared by every workload: exact percentiles from raw
//! samples, the closed-loop op log, the end-to-end metric set, and peak RSS.

use std::time::Instant;

/// One reported figure. `samples` is the number of raw samples behind it
/// (1 for counts and single measurements).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// The `q`-quantile (`q` in `[0, 1]`) of raw samples, linearly
/// interpolated between the two closest ranks. 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// What one attempted op produced: its timed latency (checks excluded),
/// whether its output matched the oracle, and its modeled cost.
pub struct OpOutcome {
    pub latency_s: f64,
    pub ok: bool,
    pub model_s: f64,
    pub comm_bytes: f64,
}

/// Every op of a closed loop, in issue order.
#[derive(Default)]
pub struct OpLog {
    pub latency_s: Vec<f64>,
    pub model_s: Vec<f64>,
    pub comm_bytes: Vec<f64>,
    pub failed: u64,
    /// Wall seconds of the timed phase that throughput divides by.
    pub timed_s: f64,
    /// `VmHWM` once the loop had completed [`RSS_OPS`] ops.
    pub peak_rss_mb: Option<f64>,
}

impl OpLog {
    pub fn push(&mut self, op: OpOutcome) {
        self.latency_s.push(op.latency_s);
        self.model_s.push(op.model_s);
        self.comm_bytes.push(op.comm_bytes);
        if !op.ok {
            self.failed += 1;
        }
    }

    pub fn attempted(&self) -> u64 {
        self.latency_s.len() as u64
    }

    /// Append a later segment of the same loop.
    pub fn append(&mut self, other: OpLog) {
        self.latency_s.extend(other.latency_s);
        self.model_s.extend(other.model_s);
        self.comm_bytes.extend(other.comm_bytes);
        self.failed += other.failed;
        self.timed_s += other.timed_s;
        self.peak_rss_mb = self.peak_rss_mb.or(other.peak_rss_mb);
    }

    /// Ops per second over the timed phase.
    pub fn throughput(&self) -> f64 {
        self.attempted() as f64 / self.timed_s.max(1e-12)
    }
}

/// Run `op(k)` for ops `k = 0, 1, ...` until `seconds` of wall time have
/// passed (at least `min_ops` ops). `op` times its own measured region and
/// checks its output outside it; the timed phase is the sum of those
/// latencies, so oracle checks never count as throughput.
pub fn closed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut(usize) -> OpOutcome) -> OpLog {
    let start = Instant::now();
    let mut log = OpLog::default();
    let mut k = 0;
    while k < min_ops || start.elapsed().as_secs_f64() < seconds {
        log.push(op(k));
        k += 1;
        if k == RSS_OPS {
            log.peak_rss_mb = Some(peak_rss_mb());
        }
    }
    log.timed_s = log.latency_s.iter().sum();
    log
}

/// Ops after which a closed loop reads its process's peak RSS. A fixed
/// count, not the end of the run: a long-lived program's memory grows with
/// the ops it ran (`RunStats::records`), so an end-of-run figure would
/// follow the host's speed.
pub const RSS_OPS: usize = 10_000;

/// Ops whose modeled figures are averaged: a fixed prefix, so the figure is
/// a pure function of the seed however many ops the run completes.
pub const MODEL_OPS: usize = 16;

fn prefix_mean(v: &[f64]) -> f64 {
    let n = v.len().min(MODEL_OPS);
    if n == 0 {
        return 0.0;
    }
    v[..n].iter().sum::<f64>() / n as f64
}

/// The modeled figures of a log: mean simulated seconds and modeled bytes
/// per op over the first [`MODEL_OPS`] ops.
pub fn model_figures(log: &OpLog) -> (f64, f64) {
    (prefix_mean(&log.model_s), prefix_mean(&log.comm_bytes))
}

/// The end-to-end metric set of one workload run. `tail_q` is the
/// workload's fixed tail quantile (see the README's workload table);
/// `model_s` is the modeled seconds per op.
pub fn e2e_metrics(setup_s: &[f64], log: &OpLog, tail_q: f64, model_s: f64) -> Vec<Metric> {
    let lat_ms: Vec<f64> = log.latency_s.iter().map(|s| s * 1e3).collect();
    let n = lat_ms.len();
    let attempted = log.attempted().max(1);
    vec![
        Metric::new("setup_s", median(setup_s), "s", setup_s.len()),
        Metric::new("latency_p50_ms", median(&lat_ms), "ms", n),
        Metric::new("latency_tail_ms", quantile(&lat_ms, tail_q), "ms", n),
        Metric::new("throughput_ops_s", log.throughput(), "ops/s", n),
        Metric::new("model_time_s", model_s, "s", n.min(MODEL_OPS)),
        Metric::new(
            "peak_rss_mb",
            log.peak_rss_mb.unwrap_or_else(peak_rss_mb),
            "MB",
            1,
        ),
        Metric::new(
            "ok_ratio",
            (attempted - log.failed.min(attempted)) as f64 / attempted as f64,
            "ratio",
            n,
        ),
    ]
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn model_figures_use_a_fixed_prefix() {
        let mut log = OpLog::default();
        for k in 0..40 {
            log.push(OpOutcome {
                latency_s: 1.0,
                ok: true,
                model_s: if k < MODEL_OPS { 2.0 } else { 100.0 },
                comm_bytes: 8.0,
            });
        }
        assert_eq!(model_figures(&log), (2.0, 8.0));
    }
}
