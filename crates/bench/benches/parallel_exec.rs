//! Serial vs. parallel wall-clock for the real leaf kernels, on the
//! workloads the paper's evaluation leans on (SpMV, SpMM, SpMTTKRP).
//!
//! Two views of the same comparison:
//!
//! * criterion timings of the full `run` (compute + model + writeback)
//!   under each [`ExecMode`];
//! * an explicit speedup table over `ExecResult::wall_time` (the isolated
//!   compute phase), printed at the end — on a multi-core host the SpMM
//!   row is the headline number, on a single-core host it honestly
//!   reports ~1x.
//!
//! Simulated time is identical between modes by construction; only real
//! wall-clock moves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use spdistal::prelude::*;
use spdistal::{access, assign, schedule_outer_dim, Plan};
use spdistal_sparse::{dense_matrix, dense_vector, generate};

const PIECES: usize = 8;
const WIDTH: usize = 32;

fn spmv_workload() -> (Context, Plan) {
    let mut ctx = Context::new(Machine::grid1d(PIECES, MachineProfile::lassen_cpu()));
    let b = generate::rmat_default(14, 600_000, 11);
    let n = b.dims()[0];
    ctx.add_tensor("a", dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
        .unwrap();
    ctx.add_tensor("B", b, Format::blocked_csr()).unwrap();
    ctx.add_tensor(
        "c",
        dense_vector(generate::dense_vec(n, 12)),
        Format::replicated_dense_vec(),
    )
    .unwrap();
    let [i, j] = ctx.fresh_vars(["i", "j"]);
    let stmt = assign("a", &[i], access("B", &[i, j]) * access("c", &[j]));
    let sched = schedule_outer_dim(&mut ctx, &stmt, PIECES, ParallelUnit::CpuThread);
    let plan = ctx.compile(&stmt, &sched).unwrap();
    (ctx, plan)
}

fn spmm_workload() -> (Context, Plan) {
    let mut ctx = Context::new(Machine::grid1d(PIECES, MachineProfile::lassen_cpu()));
    let (n, m) = (8192, 8192);
    let b = generate::uniform(n, m, 400_000, 13);
    ctx.add_tensor(
        "A",
        dense_matrix(n, WIDTH, vec![0.0; n * WIDTH]),
        Format::blocked_dense_matrix(),
    )
    .unwrap();
    ctx.add_tensor("B", b, Format::blocked_csr()).unwrap();
    ctx.add_tensor(
        "C",
        dense_matrix(m, WIDTH, generate::dense_buffer(m, WIDTH, 14)),
        Format::replicated_dense_matrix(),
    )
    .unwrap();
    let [i, j, k] = ctx.fresh_vars(["i", "j", "k"]);
    let stmt = assign("A", &[i, j], access("B", &[i, k]) * access("C", &[k, j]));
    let sched = schedule_outer_dim(&mut ctx, &stmt, PIECES, ParallelUnit::CpuThread);
    let plan = ctx.compile(&stmt, &sched).unwrap();
    (ctx, plan)
}

fn mttkrp_workload() -> (Context, Plan) {
    let mut ctx = Context::new(Machine::grid1d(PIECES, MachineProfile::lassen_cpu()));
    let dims = [2048usize, 2048, 2048];
    let b = generate::tensor3_uniform(dims, 400_000, 15);
    ctx.add_tensor("B", b, Format::blocked_csf3()).unwrap();
    ctx.add_tensor(
        "A",
        dense_matrix(dims[0], WIDTH, vec![0.0; dims[0] * WIDTH]),
        Format::blocked_dense_matrix(),
    )
    .unwrap();
    ctx.add_tensor(
        "C",
        dense_matrix(dims[1], WIDTH, generate::dense_buffer(dims[1], WIDTH, 16)),
        Format::replicated_dense_matrix(),
    )
    .unwrap();
    ctx.add_tensor(
        "D",
        dense_matrix(dims[2], WIDTH, generate::dense_buffer(dims[2], WIDTH, 17)),
        Format::replicated_dense_matrix(),
    )
    .unwrap();
    let [i, l, j, k] = ctx.fresh_vars(["i", "l", "j", "k"]);
    let stmt = assign(
        "A",
        &[i, l],
        access("B", &[i, j, k]) * access("C", &[j, l]) * access("D", &[k, l]),
    );
    let sched = schedule_outer_dim(&mut ctx, &stmt, PIECES, ParallelUnit::CpuThread);
    let plan = ctx.compile(&stmt, &sched).unwrap();
    (ctx, plan)
}

fn workloads() -> Vec<(&'static str, Context, Plan)> {
    let (spmv_ctx, spmv_plan) = spmv_workload();
    let (spmm_ctx, spmm_plan) = spmm_workload();
    let (mttkrp_ctx, mttkrp_plan) = mttkrp_workload();
    vec![
        ("SpMV", spmv_ctx, spmv_plan),
        ("SpMM", spmm_ctx, spmm_plan),
        ("SpMTTKRP", mttkrp_ctx, mttkrp_plan),
    ]
}

fn serial_vs_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_exec");
    for (name, mut ctx, plan) in workloads() {
        ctx.set_exec_mode(ExecMode::Serial);
        g.bench_with_input(BenchmarkId::new(name, "serial"), &(), |b, ()| {
            b.iter(|| spdistal::plan::execute(&mut ctx, &plan).unwrap().wall_time)
        });
        ctx.set_exec_mode(ExecMode::Parallel(0));
        g.bench_with_input(BenchmarkId::new(name, "parallel"), &(), |b, ()| {
            b.iter(|| spdistal::plan::execute(&mut ctx, &plan).unwrap().wall_time)
        });
    }
    g.finish();
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// The headline table: isolated compute-phase wall-clock per mode.
fn speedup_table(_c: &mut Criterion) {
    const RUNS: usize = 7;
    let threads = ExecMode::Parallel(0).threads();
    println!(
        "\ncompute-phase wall-clock, serial vs parallel \
         ({threads} threads, {PIECES} point tasks):"
    );
    for (name, mut ctx, plan) in workloads() {
        let mut measure = |mode: ExecMode| {
            ctx.set_exec_mode(mode);
            median(
                (0..RUNS)
                    .map(|_| spdistal::plan::execute(&mut ctx, &plan).unwrap().wall_time)
                    .collect(),
            )
        };
        let serial = measure(ExecMode::Serial);
        let parallel = measure(ExecMode::Parallel(0));
        println!(
            "  {name:9} serial {:8.3} ms   parallel {:8.3} ms   speedup {:.2}x",
            serial * 1e3,
            parallel * 1e3,
            serial / parallel.max(1e-12),
        );
    }
    println!("(simulated time is mode-independent; outputs are bit-identical)\n");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = serial_vs_parallel, speedup_table
}
criterion_main!(benches);
