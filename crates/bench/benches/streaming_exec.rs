//! Incremental recompute vs. full recompute as the dirty fraction grows —
//! the streaming subsystem's headline trade.
//!
//! One banded SpMM program (feature propagation: a sparse adjacency
//! against a dense 32-wide feature block) is compiled once, run cold,
//! and then fed value-only delta batches that dirty 1%, 10%, and 50% of
//! the rows (one overwrite per dirty row, clustered at the low rows so
//! the dirty set maps onto a contiguous prefix of the 16 colors). For
//! each fraction the bench measures the wall-clock of
//! `run_incremental()` — dirty-set lookup, color re-execution, merge
//! into the retained output — against the wall-clock of a full `run()`
//! over the same mutated tensor. Delta ingestion (`update_batch`) is
//! timed separately, into an `update_batch_<f>pct_us` histogram per
//! fraction: value-only batches are written in place, so ingestion costs
//! one level walk per delta rather than a rebuild of the tensor, and the
//! histogram gates that. The incremental-vs-full comparison is recompute
//! latency after ingestion.
//!
//! At 1% dirty one color of sixteen re-executes and the win is large; at
//! 10% a couple of colors run; at 50% half the colors re-execute — the
//! dirty ratio sits exactly at `FALLBACK_DIRTY_RATIO`, the last point
//! before `run_incremental` degenerates to the full path by design — and
//! the ratio shrinks toward ~1x. The persisted report
//! carries `streaming.speedup_milli_<f>pct` counters (mean full latency /
//! mean incremental latency, in thousandths) — the trajectory point CI
//! gates on.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use spdistal::prelude::*;
use spdistal_sparse::{dense_matrix, generate};

const PIECES: usize = 16;
/// Dense feature width: every stored nonzero does `2 * WIDTH` flops, so
/// the skippable kernel work dominates the plan's fixed per-pass
/// overhead (operand resolution, span bookkeeping, output seeding) and
/// the measured ratio reflects the work actually skipped.
const WIDTH: usize = 32;
/// Percent of rows dirtied per delta batch.
const FRACTIONS: [usize; 3] = [1, 10, 50];

fn rows() -> usize {
    ((200_000.0 * spdistal_bench::dataset_scale()) as usize).max(4 * PIECES)
}

fn build(trace: &Trace) -> CompiledProgram {
    let n = rows();
    let b = generate::banded(n, 80, 21);
    Program::on(Machine::grid1d(PIECES, MachineProfile::lassen_cpu()))
        .trace(trace.clone())
        .tensor(
            "A",
            Format::blocked_dense_matrix(),
            dense_matrix(n, WIDTH, vec![0.0; n * WIDTH]),
        )
        .tensor("B", Format::blocked_csr(), b)
        .tensor(
            "C",
            Format::replicated_dense_matrix(),
            dense_matrix(n, WIDTH, generate::dense_buffer(n, WIDTH, 22)),
        )
        .stmt("A(i,j) = B(i,k) * C(k,j)")
        .schedule(ScheduleSpec::outer_dim())
        .build()
        .unwrap()
}

/// One value-only overwrite per dirty row: the banded matrix always
/// stores its diagonal, and clustering the rows at the low end maps the
/// dirty set onto a prefix of the colors. `round` varies the values so
/// consecutive batches are real mutations, never no-ops the plan could
/// have seen before.
fn batch_for(pct: usize, round: usize) -> Vec<CoordDelta> {
    let dirty = (rows() * pct / 100).max(1);
    (0..dirty as i64)
        .map(|r| CoordDelta::overwrite(vec![r, r], 1.0 + (r + round as i64) as f64 * 1e-3))
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn incremental_vs_full(c: &mut Criterion) {
    let mut g = c.benchmark_group("streaming_exec");
    let mut program = build(&Trace::disabled());
    program.run().unwrap();
    for pct in FRACTIONS {
        let mut round = 0;
        g.bench_with_input(BenchmarkId::new("incremental", pct), &(), |b, ()| {
            b.iter(|| {
                round += 1;
                program.update_batch("B", &batch_for(pct, round)).unwrap();
                program.run_incremental().unwrap();
            })
        });
    }
    g.bench_with_input(BenchmarkId::new("full", "100"), &(), |b, ()| {
        b.iter(|| {
            program.run().unwrap();
        })
    });
    g.finish();
}

/// The headline table plus the persisted trajectory counters.
fn streaming_table(_c: &mut Criterion) {
    const RUNS: usize = 15;
    let trace = Trace::enabled();
    let mut program = build(&trace);
    program.run().unwrap();

    // Full-recompute baseline on the same compiled program.
    let full: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            program.run().unwrap();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let full_mean = mean(&full);
    trace.add("streaming.full_mean_ns", (full_mean * 1e9) as u64);

    println!(
        "\nstreaming SpMM ({WIDTH}-wide) over {} rows, {PIECES} colors: incremental vs full recompute\n\
         {:<12}{:>14}{:>14}{:>12}  mode",
        rows(),
        "dirty",
        "incr (ms)",
        "full (ms)",
        "speedup",
    );
    for pct in FRACTIONS {
        let mut spans_skipped = 0;
        let mut fallback = false;
        let incr: Vec<f64> = (0..RUNS)
            .map(|round| {
                let batch = batch_for(pct, round);
                let t0 = Instant::now();
                program.update_batch("B", &batch).unwrap();
                trace.observe_ns(
                    &format!("update_batch_{pct}pct_ns"),
                    t0.elapsed().as_nanos() as u64,
                );
                let t0 = Instant::now();
                program.run_incremental().unwrap();
                let dt = t0.elapsed().as_secs_f64();
                let stats = program.last_incremental(0).unwrap();
                spans_skipped = stats.spans_skipped;
                fallback = stats.fallback;
                dt
            })
            .collect();
        let incr_mean = mean(&incr);
        let speedup = full_mean / incr_mean.max(1e-12);
        trace.add(
            &format!("streaming.incr_mean_ns_{pct}pct"),
            (incr_mean * 1e9) as u64,
        );
        trace.add(
            &format!("streaming.speedup_milli_{pct}pct"),
            (speedup * 1e3) as u64,
        );
        println!(
            "{:<12}{:>14.4}{:>14.4}{:>11.2}x  {}",
            format!("{pct}%"),
            incr_mean * 1e3,
            full_mean * 1e3,
            speedup,
            if fallback {
                "full (above dirty-ratio threshold)".to_string()
            } else {
                format!("incremental ({spans_skipped} spans skipped)")
            }
        );
    }
    println!(
        "run_report_json={}",
        trace.run_report_json("streaming_exec")
    );
    println!("(incremental outputs are bit-identical to full recompute; see tests/incremental_identity.rs)\n");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = incremental_vs_full, streaming_table
}
criterion_main!(benches);
