//! `cpals_sweep`: Jacobi CP-ALS over a skewed 3-tensor. One op is one
//! sweep: three independent SpMTTKRP mode updates in one pipelined flush.
//! Leaf kernels dominate; host overhead is small.
//!
//! The sweeps run serially. Under `ExecMode::Parallel(2)` on a 2-core host,
//! one busy core from another process stretched the median sweep by 44%,
//! and run-to-run spreads reached 35%, so end-to-end numbers would have
//! measured the neighbours. The work-stealing pool is measured in the
//! traced run instead: its layer drive flushes the same plans on
//! [`THREADS`] workers.

use spdistal::prelude::*;
use spdistal::{plan, Session};
use spdistal_sparse::convert::permuted;
use spdistal_sparse::{dense_matrix, generate, reference, SpTensor};

use crate::common::{
    counter, drive_for, layer_builds, leaf_all_colors, output, ratio, run_library, values, Cfg,
    Decl, Layers, Report, Res, TOL,
};
use crate::spans::{op_scope, SpanLog};
use crate::stats::{median, OpOutcome};

const DIMS: [usize; 3] = [600, 400, 500];
const NNZ: usize = 200_000;
/// Zipf exponent of the mode-0 slice sizes: skew makes stealing matter.
const ALPHA: f64 = 0.8;
const RANK: usize = 16;
const PIECES: usize = 8;
/// Workers of the layer drive's pool flushes.
const THREADS: usize = 2;
const SETUP_REPS: usize = 7;
/// 95th percentile (~60 sweeps beyond it per run). Higher percentiles
/// spread by more than the benchmark's bound between runs on a shared host.
const TAIL_Q: f64 = 0.95;

/// Per mode: statement, output, and the factor it replaces. Factor index
/// `f` is tensor `FACTORS[f]` of extent `DIMS[f]`.
const FACTORS: [&str; 3] = ["A", "C", "D"];
const MODES: [(&str, &str, usize); 3] = [
    ("Anew(m,l) = B0(m,u,v) * C(u,l) * D(v,l)", "Anew", 0),
    ("Cnew(m,l) = B1(m,u,v) * A(u,l) * D(v,l)", "Cnew", 1),
    ("Dnew(m,l) = B2(m,u,v) * A(u,l) * C(v,l)", "Dnew", 2),
];
/// The two factors each mode's driver multiplies, in statement order.
const OPERANDS: [(usize, usize); 3] = [(1, 2), (0, 2), (0, 1)];

struct Inputs {
    /// The tensor and its two mode permutations (drivers of modes 0..3).
    b: [SpTensor; 3],
    factors: [Vec<f64>; 3],
}

fn decl(inp: &Inputs) -> Decl {
    let mut tensors = Vec::new();
    for (name, b) in ["B0", "B1", "B2"].into_iter().zip(&inp.b) {
        tensors.push((name, Format::blocked_csf3(), b.clone()));
    }
    for (f, name) in FACTORS.into_iter().enumerate() {
        tensors.push((
            name,
            Format::replicated_dense_matrix(),
            dense_matrix(DIMS[f], RANK, inp.factors[f].clone()),
        ));
    }
    for (_, out, f) in MODES {
        tensors.push((
            out,
            Format::blocked_dense_matrix(),
            dense_matrix(DIMS[f], RANK, vec![0.0; DIMS[f] * RANK]),
        ));
    }
    Decl {
        pieces: PIECES,
        mode: ExecMode::Serial,
        tensors,
        stmts: MODES.iter().map(|m| m.0).collect(),
    }
}

/// The oracle outputs of all three modes for the given factors, mode 0 on
/// a second thread (the check runs outside the timed region; it costs more
/// than a sweep, so it is split across the workload's two threads).
fn expected(inp: &Inputs, factors: &[Vec<f64>; 3]) -> Vec<Vec<f64>> {
    let mode = |m: usize| {
        let (c, d) = OPERANDS[m];
        reference::spmttkrp(&inp.b[m], &factors[c], &factors[d], RANK)
    };
    std::thread::scope(|s| {
        let first = s.spawn(|| mode(0));
        let rest = [mode(1), mode(2)];
        let [m1, m2] = rest;
        vec![first.join().expect("oracle thread"), m1, m2]
    })
}

/// The least-squares-solve stand-in between sweeps: each new factor with
/// its columns scaled to unit 2-norm, as CP-ALS normalizes into its
/// weights. Keeps values bounded over any number of sweeps.
fn normalized(new: &[f64]) -> Vec<f64> {
    let mut norms = [0.0f64; RANK];
    for row in new.chunks_exact(RANK) {
        for (n, v) in norms.iter_mut().zip(row) {
            *n += v * v;
        }
    }
    let mut out = new.to_vec();
    for row in out.chunks_exact_mut(RANK) {
        for (v, n) in row.iter_mut().zip(&norms) {
            if *n > 0.0 {
                *v /= n.sqrt();
            }
        }
    }
    out
}

pub fn run(cfg: &Cfg) -> Res<Report> {
    let b0 = generate::tensor3_skewed(DIMS, NNZ, ALPHA, cfg.seed);
    let b1 = permuted(&b0, &[1, 0, 2], &generate::CSF3);
    let b2 = permuted(&b0, &[2, 0, 1], &generate::CSF3);
    let factors = [0u64, 1, 2]
        .map(|f| generate::dense_buffer(DIMS[f as usize], RANK, cfg.seed.wrapping_add(1 + f)));
    let inp = Inputs {
        b: [b0, b1, b2],
        factors,
    };
    // Per-run state: the factors the program currently holds.
    let mut fresh = || (decl(&inp), inp.factors.clone());
    let mut op = |p: &mut CompiledProgram,
                  held: &mut [Vec<f64>; 3],
                  k: usize,
                  spans: Option<&mut SpanLog>| {
        let makespan0 = p.report().model_makespan;
        let (latency_s, res) =
            op_scope(spans, k, |s| s.time("program.run", || p.run().map(|_| ())));
        let model_s = p.report().model_makespan - makespan0;
        let comm_bytes = (0..3)
            .filter_map(|m| p.result(m))
            .map(|r| r.comm_bytes as f64)
            .sum();
        let want = expected(&inp, held);
        let mut ok = res.is_ok()
            && (0..3).all(|m| output(p, m).is_some_and(|o| reference::approx_eq(o, &want[m], TOL)));
        for (m, (_, _, f)) in MODES.iter().enumerate() {
            let next = normalized(output(p, m).unwrap_or(&want[m]));
            match p.tensor_data_mut(FACTORS[*f]) {
                Ok(t) => t.vals_mut().copy_from_slice(&next),
                Err(_) => ok = false,
            }
            held[*f] = next;
        }
        OpOutcome {
            latency_s,
            ok,
            model_s,
            comm_bytes,
        }
    };
    run_library(
        cfg,
        SETUP_REPS,
        TAIL_Q,
        &mut fresh,
        &mut op,
        |_, spans, seconds| {
            let mut out = Layers::default();
            let (mut ctx, plans) = layer_builds(spans, || decl(&inp))?;
            // The pool's steal counters come from the library's own trace,
            // attached during the pool flushes only.
            let pool_trace = Trace::enabled();
            let want = expected(&inp, &inp.factors);
            let mut flushes = Vec::new();
            drive_for(seconds, |op| {
                ctx.set_exec_mode(ExecMode::Parallel(THREADS));
                ctx.set_trace(pool_trace.clone());
                let id = spans.begin("session.flush", op, None);
                let mut session = Session::new(&mut ctx);
                let futures: Vec<_> = plans.iter().map(|p| session.submit(p)).collect();
                let report = session.flush()?;
                spans.end(id);
                for (m, f) in futures.iter().enumerate() {
                    let v = session.value(f)?;
                    out.check(reference::approx_eq(values(&v), &want[m], TOL));
                }
                drop(session);
                flushes.push(report);
                // Serial, as in the sweeps, so that execute minus leaf is host
                // time, not a difference between two degrees of parallelism.
                ctx.set_exec_mode(ExecMode::Serial);
                ctx.set_trace(Trace::disabled());
                for (m, p) in plans.iter().enumerate() {
                    let res =
                        spans.time("plan.execute", op, None, || plan::execute(&mut ctx, p))?;
                    out.check(reference::approx_eq(values(&res.output), &want[m], TOL));
                }
                for (m, p) in plans.iter().enumerate() {
                    let leaf = spans.time("kernels.leaf", op, None, || leaf_all_colors(&ctx, p))?;
                    out.check(reference::approx_eq(&leaf, &want[m], TOL));
                }
                Ok(())
            })?;
            out.setup_layers(spans);
            let n = flushes.len();
            let per_flush = |f: &dyn Fn(&FlushReport) -> f64| {
                median(&flushes.iter().map(f).collect::<Vec<_>>())
            };
            out.span_median(spans, "session.flush", "session.flush_ms", "ms");
            out.push(
                "session.batches",
                per_flush(&|r| r.batches as f64),
                "count",
                n,
            );
            out.push(
                "session.modeled_overlap",
                per_flush(&|r| r.modeled_overlap()),
                "ratio",
                n,
            );
            out.push("sched.busy_s", per_flush(&|r| r.busy_seconds), "s", n);
            out.push(
                "sched.critical_task_s",
                per_flush(&|r| r.critical_task_seconds),
                "s",
                n,
            );
            out.push("sched.task_skew", per_flush(&|r| r.task_skew()), "ratio", n);
            let steals = counter(&pool_trace, "steals");
            let failed_scans = counter(&pool_trace, "steal_attempts");
            out.push("sched.steals", steals as f64 / n.max(1) as f64, "count", n);
            out.push(
                "sched.steal_ratio",
                ratio(steals as f64, (steals + failed_scans) as f64),
                "ratio",
                n,
            );
            let exec = out.span_median(spans, "plan.execute", "plan.execute_ms", "ms");
            let leaf = out.span_median(spans, "kernels.leaf", "kernels.leaf_ms", "ms");
            out.push("plan.host_ms", exec - leaf, "ms", n);
            out.span_median(spans, "program.run", "program.run_ms", "ms");
            Ok(out)
        },
    )
}
