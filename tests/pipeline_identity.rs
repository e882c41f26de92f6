//! The deferred-execution contract: multi-statement programs executed
//! through a pipelined [`Session`] produce **bit-identical** outputs (and
//! final tensor states) to `ExecMode::Serial` launch-at-a-time execution,
//! for independent statements (which overlap), WAW chains (which
//! serialize at launch granularity within one batch), and RAW chains
//! (which cut the pipeline into batches so consumers see producers'
//! write-backs). Simulated time stays mode-independent throughout.

use spdistal_repro::sparse::{dense_matrix, dense_vector, generate, SpTensor};
use spdistal_repro::spdistal::prelude::*;
use spdistal_repro::spdistal::{access, assign, plan, schedule_outer_dim, Plan};

const PIECES: usize = 6;
const RANK: usize = 8;

/// A multi-statement program: a fresh context plus compiled plans in issue
/// order, and the tensor names whose final data should be compared.
struct Program {
    ctx: Context,
    plans: Vec<Plan>,
    observed: Vec<&'static str>,
    /// Expected batch count when pipelined (None: don't check).
    batches: Option<usize>,
}

/// Three independent SpMTTKRP mode updates (a Jacobi CP-ALS sweep): no
/// statement reads another's output, so all three share one batch.
fn cp_als_sweep() -> Program {
    let dims = [60usize, 50, 40];
    let b = generate::tensor3_skewed(dims, 4000, 0.9, 7);
    let perm =
        |perm: [usize; 3]| spdistal_repro::sparse::convert::permuted(&b, &perm, &generate::CSF3);
    let mut ctx = Context::new(Machine::grid1d(PIECES, MachineProfile::lassen_cpu()));
    ctx.add_tensor("B0", b.clone(), Format::blocked_csf3())
        .unwrap();
    ctx.add_tensor("B1", perm([1, 0, 2]), Format::blocked_csf3())
        .unwrap();
    ctx.add_tensor("B2", perm([2, 0, 1]), Format::blocked_csf3())
        .unwrap();
    for (name, rows, seed) in [("A", dims[0], 1), ("C", dims[1], 2), ("D", dims[2], 3)] {
        ctx.add_tensor(
            name,
            dense_matrix(rows, RANK, generate::dense_buffer(rows, RANK, seed)),
            Format::replicated_dense_matrix(),
        )
        .unwrap();
    }
    for (name, rows) in [("Anew", dims[0]), ("Cnew", dims[1]), ("Dnew", dims[2])] {
        ctx.add_tensor(
            name,
            dense_matrix(rows, RANK, vec![0.0; rows * RANK]),
            Format::blocked_dense_matrix(),
        )
        .unwrap();
    }
    let mut plans = Vec::new();
    for (out, driver, f1, f2) in [
        ("Anew", "B0", "C", "D"),
        ("Cnew", "B1", "A", "D"),
        ("Dnew", "B2", "A", "C"),
    ] {
        let [m, l, u, v] = ctx.fresh_vars(["m", "l", "u", "v"]);
        let stmt = assign(
            out,
            &[m, l],
            access(driver, &[m, u, v]) * access(f1, &[u, l]) * access(f2, &[v, l]),
        );
        let sched = schedule_outer_dim(&mut ctx, &stmt, PIECES, ParallelUnit::CpuThread);
        plans.push(ctx.compile(&stmt, &sched).unwrap());
    }
    Program {
        ctx,
        plans,
        observed: vec!["Anew", "Cnew", "Dnew"],
        batches: Some(1),
    }
}

/// SpAdd3 symbolic+numeric twice over disjoint outputs: independent
/// assembled statements, one batch.
fn double_spadd3() -> Program {
    let b = generate::uniform(120, 110, 1500, 11);
    let c = generate::shift_last_dim(&b, 3);
    let d = generate::shift_last_dim(&b, 7);
    let e = generate::shift_last_dim(&b, 9);
    let mut ctx = Context::new(Machine::grid1d(PIECES, MachineProfile::lassen_cpu()));
    for (name, t) in [("B", &b), ("C", &c), ("D", &d), ("E", &e)] {
        ctx.add_tensor(name, t.clone(), Format::blocked_csr())
            .unwrap();
    }
    for out in ["A", "A2"] {
        ctx.add_tensor(
            out,
            spdistal_repro::spdistal::plan::empty_csr(120, 110),
            Format::blocked_csr(),
        )
        .unwrap();
    }
    let mut plans = Vec::new();
    for (out, t1, t2, t3) in [("A", "B", "C", "D"), ("A2", "C", "D", "E")] {
        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let stmt = assign(
            out,
            &[i, j],
            access(t1, &[i, j]) + access(t2, &[i, j]) + access(t3, &[i, j]),
        );
        let sched = schedule_outer_dim(&mut ctx, &stmt, PIECES, ParallelUnit::CpuThread);
        plans.push(ctx.compile(&stmt, &sched).unwrap());
    }
    Program {
        ctx,
        plans,
        observed: vec!["A", "A2"],
        batches: Some(1),
    }
}

/// An iterative solve: x1 = B x0; x2 = B x1; x3 = B x2. Every statement
/// reads its predecessor's output — three RAW cuts, three batches.
fn chained_spmv() -> Program {
    let b = generate::banded(240, 7, 13);
    let n = b.dims()[0];
    let mut ctx = Context::new(Machine::grid1d(PIECES, MachineProfile::lassen_cpu()));
    ctx.add_tensor("B", b, Format::blocked_csr()).unwrap();
    ctx.add_tensor(
        "x0",
        dense_vector(generate::dense_vec(n, 14)),
        Format::replicated_dense_vec(),
    )
    .unwrap();
    for x in ["x1", "x2", "x3"] {
        ctx.add_tensor(x, dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
            .unwrap();
    }
    let mut plans = Vec::new();
    for (out, input) in [("x1", "x0"), ("x2", "x1"), ("x3", "x2")] {
        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let stmt = assign(out, &[i], access("B", &[i, j]) * access(input, &[j]));
        let sched = schedule_outer_dim(&mut ctx, &stmt, PIECES, ParallelUnit::CpuThread);
        plans.push(ctx.compile(&stmt, &sched).unwrap());
    }
    Program {
        ctx,
        plans,
        observed: vec!["x1", "x2", "x3"],
        batches: Some(3),
    }
}

/// A WAW pair: y = B x0 issued twice into the same output tensor. Stays in
/// one batch (no read of the output), serialized at launch granularity;
/// the later write-back wins, exactly as launch-at-a-time.
fn waw_same_output() -> Program {
    let b = generate::rmat_default(7, 800, 17);
    let n = b.dims()[0];
    let mut ctx = Context::new(Machine::grid1d(PIECES, MachineProfile::lassen_cpu()));
    ctx.add_tensor("B", b, Format::blocked_csr()).unwrap();
    ctx.add_tensor(
        "x0",
        dense_vector(generate::dense_vec(n, 18)),
        Format::replicated_dense_vec(),
    )
    .unwrap();
    ctx.add_tensor(
        "x1",
        dense_vector(generate::dense_vec(n, 19)),
        Format::replicated_dense_vec(),
    )
    .unwrap();
    ctx.add_tensor("y", dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
        .unwrap();
    let mut plans = Vec::new();
    for input in ["x0", "x1"] {
        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let stmt = assign("y", &[i], access("B", &[i, j]) * access(input, &[j]));
        let sched = schedule_outer_dim(&mut ctx, &stmt, PIECES, ParallelUnit::CpuThread);
        plans.push(ctx.compile(&stmt, &sched).unwrap());
    }
    Program {
        ctx,
        plans,
        observed: vec!["y"],
        batches: Some(1),
    }
}

fn assert_tensors_bit_identical(label: &str, a: &SpTensor, b: &SpTensor) {
    assert_eq!(a.dims(), b.dims(), "{label}: dims");
    assert_eq!(a.levels(), b.levels(), "{label}: structure");
    for (i, (x, y)) in a.vals().iter().zip(b.vals()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: value {i} differs ({x} vs {y})"
        );
    }
}

/// Run `make()`'s program launch-at-a-time serial and pipelined at several
/// thread counts; everything observable must be bit-identical.
fn check_program(label: &str, make: fn() -> Program) {
    // Reference: serial, launch-at-a-time via plan::execute.
    let Program {
        mut ctx,
        plans,
        observed,
        batches,
    } = make();
    let mut serial_results = Vec::new();
    for p in &plans {
        serial_results.push(plan::execute(&mut ctx, p).unwrap());
    }
    let serial_tensors: Vec<SpTensor> = observed
        .iter()
        .map(|n| ctx.tensor(n).unwrap().data.clone())
        .collect();

    // Auto splitting is the default; forcing spans additionally covers
    // pipelined split execution at both thread counts.
    for (threads, split) in [
        (2usize, SplitPolicy::Auto),
        (2, SplitPolicy::Spans(3)),
        (4, SplitPolicy::Auto),
        (4, SplitPolicy::Spans(3)),
    ] {
        let Program { mut ctx, plans, .. } = make();
        ctx.set_exec_mode(ExecMode::Parallel(threads));
        ctx.set_split_policy(split);
        let mut session = Session::new(&mut ctx);
        let futures: Vec<TensorFuture> = plans.iter().map(|p| session.submit(p)).collect();
        let report = session.flush().unwrap();
        if let Some(expected) = batches {
            assert_eq!(report.batches, expected, "{label}: batch count");
        }
        assert_eq!(report.launches.len(), plans.len(), "{label}: launch count");
        for t in &report.launches {
            assert!(
                t.issue <= t.start && t.start <= t.drain,
                "{label}: milestones out of order"
            );
        }
        for (k, (future, serial)) in futures.iter().zip(&serial_results).enumerate() {
            let result = session.wait(future).unwrap().clone();
            assert_eq!(
                serial.time, result.time,
                "{label}: simulated time of statement {k} must not depend on pipelining"
            );
            assert_eq!(
                serial.comm_bytes, result.comm_bytes,
                "{label}: bytes moved by statement {k} must not depend on pipelining"
            );
            assert_eq!(
                serial.messages, result.messages,
                "{label}: messages of statement {k} must not depend on pipelining"
            );
            assert_eq!(
                serial.ops, result.ops,
                "{label}: modeled ops of statement {k} must not depend on pipelining"
            );
            assert_eq!(
                serial.records.len(),
                result.records.len(),
                "{label}: launch records of statement {k} must not depend on pipelining"
            );
            match (&serial.output, &result.output) {
                (OutputValue::Tensor(a), OutputValue::Tensor(b)) => {
                    assert_tensors_bit_identical(&format!("{label}[{k}]"), a, b)
                }
                (OutputValue::Dense(a), OutputValue::Dense(b)) => {
                    assert_eq!(a.len(), b.len(), "{label}[{k}] len");
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.to_bits(), y.to_bits(), "{label}[{k}]");
                    }
                }
                _ => panic!("{label}[{k}]: output kinds differ"),
            }
        }
        drop(session);
        for (name, serial) in observed.iter().zip(&serial_tensors) {
            assert_tensors_bit_identical(
                &format!("{label} final {name}"),
                serial,
                &ctx.tensor(name).unwrap().data,
            );
        }
    }
}

#[test]
fn cp_als_sweep_pipelines_bit_identically() {
    check_program("cp_als", cp_als_sweep);
}

#[test]
fn double_spadd3_pipelines_bit_identically() {
    check_program("spadd3", double_spadd3);
}

#[test]
fn raw_chain_cuts_batches_bit_identically() {
    check_program("chained_spmv", chained_spmv);
}

#[test]
fn waw_same_output_serializes_bit_identically() {
    check_program("waw", waw_same_output);
}

/// The `Program` plan cache must be invisible to results: `run_iters(n)`
/// compiles each (statement, schedule) pair exactly once and its outputs
/// stay bit-identical to per-iteration `compile_and_run` with freshly
/// compiled plans.
#[test]
fn program_plan_cache_replays_bit_identically() {
    use spdistal_repro::spdistal::{Program as ProgramApi, ScheduleSpec};
    const ITERS: usize = 3;

    let b = generate::banded(240, 7, 13);
    let n = b.dims()[0];
    let x0 = generate::dense_vec(n, 14);
    let stmts = [("x1", "x0"), ("x2", "x1"), ("x3", "x2")];

    // Reference: fresh compile + launch-at-a-time run per statement, every
    // iteration.
    let mut ctx = Context::new(Machine::grid1d(PIECES, MachineProfile::lassen_cpu()));
    ctx.add_tensor("B", b.clone(), Format::blocked_csr())
        .unwrap();
    ctx.add_tensor(
        "x0",
        dense_vector(x0.clone()),
        Format::replicated_dense_vec(),
    )
    .unwrap();
    for x in ["x1", "x2", "x3"] {
        ctx.add_tensor(x, dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
            .unwrap();
    }
    let mut fresh_outputs = Vec::new();
    for _ in 0..ITERS {
        fresh_outputs.clear();
        for (out, input) in stmts {
            let [i, j] = ctx.fresh_vars(["i", "j"]);
            let stmt = assign(out, &[i], access("B", &[i, j]) * access(input, &[j]));
            let sched = schedule_outer_dim(&mut ctx, &stmt, PIECES, ParallelUnit::CpuThread);
            fresh_outputs.push(ctx.compile_and_run(&stmt, &sched).unwrap().output);
        }
    }
    let fresh_tensors: Vec<SpTensor> = ["x1", "x2", "x3"]
        .iter()
        .map(|x| ctx.tensor(x).unwrap().data.clone())
        .collect();

    // The same program through the cached front-end.
    let mut program = ProgramApi::on(Machine::grid1d(PIECES, MachineProfile::lassen_cpu()))
        .tensor("B", Format::blocked_csr(), b)
        .tensor("x0", Format::replicated_dense_vec(), dense_vector(x0))
        .tensor(
            "x1",
            Format::blocked_dense_vec(),
            dense_vector(vec![0.0; n]),
        )
        .tensor(
            "x2",
            Format::blocked_dense_vec(),
            dense_vector(vec![0.0; n]),
        )
        .tensor(
            "x3",
            Format::blocked_dense_vec(),
            dense_vector(vec![0.0; n]),
        )
        .stmt("x1(i) = B(i,j) * x0(j)")
        .schedule(ScheduleSpec::outer_dim())
        .stmt("x2(i) = B(i,j) * x1(j)")
        .schedule(ScheduleSpec::outer_dim())
        .stmt("x3(i) = B(i,j) * x2(j)")
        .schedule(ScheduleSpec::outer_dim())
        .build()
        .unwrap();
    program.run_iters(ITERS).unwrap();

    let report = program.report();
    assert_eq!(report.iterations, ITERS);
    assert_eq!(
        report.compiles,
        stmts.len(),
        "each (stmt, schedule) pair compiles exactly once across run_iters"
    );
    assert_eq!(report.cache_hits, stmts.len() * (ITERS - 1));

    for (k, fresh) in fresh_outputs.iter().enumerate() {
        let cached = &program.result(k).unwrap().output;
        match (fresh, cached) {
            (OutputValue::Tensor(a), OutputValue::Tensor(b)) => {
                assert_tensors_bit_identical(&format!("program stmt {k}"), a, b)
            }
            _ => panic!("output kinds differ for stmt {k}"),
        }
    }
    for (x, fresh) in ["x1", "x2", "x3"].iter().zip(&fresh_tensors) {
        assert_tensors_bit_identical(
            &format!("program final {x}"),
            fresh,
            &program.context().tensor(x).unwrap().data,
        );
    }
}

/// Independent launches must actually be *eligible* to overlap: the CP-ALS
/// sweep's three launches form an edge-free launch graph (observable as
/// one batch with three launches whose `issue`s all precede the flush) —
/// while the RAW chain reports strictly ordered drains.
#[test]
fn timings_reflect_dependence_structure() {
    let Program { mut ctx, plans, .. } = chained_spmv();
    ctx.set_exec_mode(ExecMode::Parallel(2));
    let mut session = Session::new(&mut ctx);
    for p in &plans {
        session.submit(p);
    }
    let report = session.flush().unwrap();
    assert_eq!(report.batches, 3);
    for pair in report.launches.windows(2) {
        assert!(
            pair[1].start >= pair[0].drain,
            "dependent statements must not overlap"
        );
    }
}

/// The modeled counterpart of the wall-clock milestones: the simulator's
/// graph-ordered replay overlaps the CP-ALS sweep's three independent
/// SpMTTKRP launches (modeled makespan strictly below the sequential
/// modeled sum), while the RAW-dependent chain tiles exactly — its
/// modeled-overlap ratio is 1, reproducing launch-at-a-time modeled time.
#[test]
fn modeled_overlap_reflects_dependence_structure() {
    // Independent sweep: one batch, overlap on the model timeline.
    let Program { mut ctx, plans, .. } = cp_als_sweep();
    ctx.set_exec_mode(ExecMode::Parallel(2));
    let mut session = Session::new(&mut ctx);
    for p in &plans {
        session.submit(p);
    }
    let report = session.flush().unwrap();
    assert_eq!(report.batches, 1);
    assert!(
        report.model_makespan() < report.model_seq_sum(),
        "independent MTTKRP modes must overlap on the model timeline: \
         makespan {} vs sequential sum {}",
        report.model_makespan(),
        report.model_seq_sum()
    );
    assert!(report.modeled_overlap() > 1.0);
    drop(session);

    // RAW chain: three single-launch batches, spans tile.
    let Program { mut ctx, plans, .. } = chained_spmv();
    ctx.set_exec_mode(ExecMode::Parallel(2));
    let mut session = Session::new(&mut ctx);
    for p in &plans {
        session.submit(p);
    }
    let report = session.flush().unwrap();
    assert_eq!(report.batches, 3);
    for pair in report.launches.windows(2) {
        assert!(pair[1].model.start >= pair[0].model.finish);
    }
    assert!(
        (report.modeled_overlap() - 1.0).abs() < 1e-9,
        "a RAW chain must have no modeled overlap, got {}",
        report.modeled_overlap()
    );
}
