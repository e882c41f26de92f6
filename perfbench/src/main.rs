//! The repository benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with every kind
//! of tracing off. With `--trace 1` it measures the per-layer metrics
//! instead: an untraced and a traced pass of the same loop (their
//! throughput ratio is `obs.trace_overhead_pct`), then a drive of the same
//! inputs through each layer's public functions, every call inside a span
//! recorded by this benchmark. Spans are written to
//! `$CARGO_TARGET_DIR/perfbench-spans/<workload>-<seed>.jsonl` at the end.
//!
//! Every op's output is checked against the `spdistal_sparse::reference`
//! oracles outside the timed region; a wrong or failed op is counted, not
//! fatal. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod common;
mod cpals;
mod served;
mod spans;
mod spmv;
mod stats;
mod stream;

use common::{target_dir, Cfg, Report, Res};
use stats::Metric;

/// The end-to-end metrics, in report order.
const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("model_time_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// The per-layer metrics, in report order. A workload that does not reach
/// a layer reports it as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("sparse.build_ms", "ms"),
    ("ir.parse_us", "us"),
    ("ir.lower_us", "us"),
    ("dist_tensor.add_tensor_ms", "ms"),
    ("dist_tensor.update_batch_ms", "ms"),
    ("codegen.compile_ms", "ms"),
    ("codegen.compiles", "count"),
    ("engine.plan_hit_ratio", "ratio"),
    ("engine.cross_tenant_hits", "count"),
    ("plan.execute_ms", "ms"),
    ("plan.host_ms", "ms"),
    ("kernels.leaf_ms", "ms"),
    ("kernels.specialized", "count"),
    ("kernels.fallback", "count"),
    ("session.flush_ms", "ms"),
    ("session.batches", "count"),
    ("session.modeled_overlap", "ratio"),
    ("program.run_ms", "ms"),
    ("streaming.incremental_ms", "ms"),
    ("streaming.skip_ratio", "ratio"),
    ("streaming.fallbacks", "count"),
    ("sched.steals", "count"),
    ("sched.steal_ratio", "ratio"),
    ("sched.busy_s", "s"),
    ("sched.critical_task_s", "s"),
    ("sched.task_skew", "ratio"),
    ("exec.records", "count"),
    ("exec.messages", "count"),
    ("exec.comm_bytes", "B"),
    ("pipeline.issue_to_start_us", "us"),
    ("client.encode_us", "us"),
    ("client.decode_us", "us"),
    ("client.register_ms", "ms"),
    ("server.exec_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

struct Args {
    workload: String,
    cfg: Cfg,
}

fn parse_args() -> Res<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>()?),
            "--seconds" => seconds = Some(val.parse::<f64>()?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: Cfg {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

fn run(args: &Args) -> Res<Report> {
    match args.workload.as_str() {
        "spmv_steady" => spmv::run(&args.cfg),
        "cpals_sweep" => cpals::run(&args.cfg),
        "stream_updates" => stream::run(&args.cfg),
        "served_shared" => served::run(&args.cfg, false),
        "served_mix" => served::run(&args.cfg, true),
        other => Err(format!(
            "unknown workload '{other}' (spmv_steady, cpals_sweep, stream_updates, \
             served_shared, served_mix)"
        )
        .into()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let wanted = if args.cfg.trace { PER_LAYER } else { E2E };
    let metrics: Vec<Metric> = wanted
        .iter()
        .map(|&(name, unit)| {
            let m = report.metrics.iter().find(|m| m.name == name);
            Metric::new(
                name,
                m.map_or(0.0, |m| m.value),
                unit,
                m.map_or(0, |m| m.samples),
            )
        })
        .collect();
    if let Some(spans) = &report.spans {
        let dir = target_dir().join("perfbench-spans");
        let path = dir.join(format!("{}-{}.jsonl", args.workload, args.cfg.seed));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, spans.to_json_lines()))
        {
            eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            );
        }
    }
    if !report.deterministic {
        eprintln!("perfbench: modeled figures did not repeat bit-for-bit");
    }
    println!(
        "{:<30} {:>16} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &metrics {
        println!(
            "{:<30} {:>16.6} {:<6} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "ops attempted {} failed {} (wrong output or error)",
        report.attempted, report.failed
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.deterministic && report.attempted > 0,
        report.attempted,
        report.failed,
        body.join(", ")
    );
}

/// A finite number with all its digits (JSON has no NaN or infinity).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in the repository's BENCHMARK.json agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json beside perfbench/");
        let names_after = |key: &str| -> Vec<String> {
            let section = text.split(&format!("\"{key}\"")).nth(1).expect(key);
            let section = &section[..section.find(']').expect("list end")];
            section
                .split("\"name\":")
                .skip(1)
                .map(|s| {
                    s.trim()
                        .trim_start_matches('"')
                        .split('"')
                        .next()
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let e2e: Vec<String> = E2E.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_after("end_to_end"), e2e);
        assert_eq!(names_after("per_layer"), layers);
    }
}
