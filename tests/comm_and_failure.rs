//! Integration tests for the communication model and failure behavior:
//! matched data/computation distributions move no sparse data, mismatched
//! ones pay for reshaping (Section II-D), and memory capacity surfaces as
//! OOM rather than wrong answers.

use spdistal_repro::runtime::{Machine, MachineProfile, RuntimeError};
use spdistal_repro::sparse::{convert, dense_vector, generate, SpTensor};
use spdistal_repro::spdistal::prelude::*;
use spdistal_repro::spdistal::{access, assign, schedule_nonzero, schedule_outer_dim};

fn spmv_stmt(ctx: &mut Context) -> spdistal_repro::ir::Assignment {
    let [i, j] = ctx.fresh_vars(["i", "j"]);
    assign("a", &[i], access("B", &[i, j]) * access("c", &[j]))
}

/// Row-based schedule over row-distributed data: after the initial
/// distribution, the kernel moves no B non-zeros at all.
#[test]
fn matched_distribution_moves_no_sparse_data() {
    let b = generate::banded(5000, 7, 1);
    let n = b.dims()[0];
    let mut ctx = Context::new(Machine::grid1d(8, MachineProfile::lassen_cpu()));
    ctx.add_tensor("a", dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
        .unwrap();
    ctx.add_tensor("B", b, Format::blocked_csr()).unwrap();
    ctx.add_tensor(
        "c",
        dense_vector(generate::dense_vec(n, 2)),
        Format::replicated_dense_vec(),
    )
    .unwrap();
    let stmt = spmv_stmt(&mut ctx);
    let sched = schedule_outer_dim(&mut ctx, &stmt, 8, ParallelUnit::CpuThread);
    let r = ctx.compile_and_run(&stmt, &sched).unwrap();
    assert_eq!(r.comm_bytes, 0, "matched distribution should be comm-free");
}

/// The same row-based schedule over *non-zero-distributed* data is valid
/// but pays to reshape the data (the performance-cost case the paper calls
/// out explicitly in Section II-D).
#[test]
fn mismatched_distribution_pays_communication() {
    let b = generate::rmat_default(9, 8000, 2);
    let n = b.dims()[0];
    let mut ctx = Context::new(Machine::grid1d(8, MachineProfile::lassen_cpu()));
    ctx.add_tensor("a", dense_vector(vec![0.0; n]), Format::blocked_dense_vec())
        .unwrap();
    // Data distributed by non-zeros, computation distributed by rows.
    ctx.add_tensor("B", b, Format::nonzero_csr()).unwrap();
    ctx.add_tensor(
        "c",
        dense_vector(generate::dense_vec(n, 3)),
        Format::replicated_dense_vec(),
    )
    .unwrap();
    let stmt = spmv_stmt(&mut ctx);
    let sched = schedule_outer_dim(&mut ctx, &stmt, 8, ParallelUnit::CpuThread);
    let r = ctx.compile_and_run(&stmt, &sched).unwrap();
    assert!(
        r.comm_bytes > 0,
        "mismatched distributions must reshape data"
    );
}

/// Non-zero schedules on skewed inputs produce balanced work; row-based
/// schedules don't. Imbalance shows up directly in simulated time.
#[test]
fn nonzero_schedule_beats_rows_on_skew() {
    // A matrix with one huge row.
    let mut triplets: Vec<(i64, i64, f64)> = (0..4000).map(|j| (0i64, j as i64, 1.0)).collect();
    for i in 1..4000i64 {
        triplets.push((i, i, 1.0));
    }
    let b = spdistal_repro::sparse::csr_from_triplets(4000, 4000, &triplets);
    let c = generate::dense_vec(4000, 4);
    let mut times = Vec::new();
    for nonzero in [false, true] {
        // Scale fixed overheads down with the small test problem so the
        // work imbalance (not task launch latency) dominates.
        let profile = MachineProfile::lassen_cpu().time_scaled(1e-3);
        let mut ctx = Context::new(Machine::grid1d(8, profile));
        let fmt = if nonzero {
            Format::nonzero_csr()
        } else {
            Format::blocked_csr()
        };
        ctx.add_tensor(
            "a",
            dense_vector(vec![0.0; 4000]),
            Format::blocked_dense_vec(),
        )
        .unwrap();
        ctx.add_tensor("B", b.clone(), fmt).unwrap();
        ctx.add_tensor("c", dense_vector(c.clone()), Format::replicated_dense_vec())
            .unwrap();
        let stmt = spmv_stmt(&mut ctx);
        let sched = if nonzero {
            schedule_nonzero(&mut ctx, &stmt, "B", 2, 8, ParallelUnit::CpuThread).unwrap()
        } else {
            schedule_outer_dim(&mut ctx, &stmt, 8, ParallelUnit::CpuThread)
        };
        times.push(ctx.compile_and_run(&stmt, &sched).unwrap().time);
    }
    assert!(
        times[1] < times[0],
        "nonzero {} should beat row {}",
        times[1],
        times[0]
    );
}

/// GPU memory capacity turns into an OOM error, not silent wrong answers.
#[test]
fn gpu_oom_is_an_error() {
    let b = generate::uniform(2000, 2000, 40_000, 5);
    let tiny = MachineProfile::lassen_gpu(1e-8); // ~160 bytes of HBM
    let mut ctx = Context::new(Machine::grid1d(4, tiny));
    let err = ctx
        .add_tensor("B", b, Format::blocked_csr())
        .expect_err("must OOM");
    match err {
        spdistal_repro::spdistal::Error::Runtime(RuntimeError::Oom { .. }) => {}
        other => panic!("expected OOM, got {other}"),
    }
}

/// Invalid schedules are rejected at compile time with typed errors.
#[test]
fn bad_schedules_rejected() {
    let b = generate::uniform(100, 100, 500, 6);
    let mut ctx = Context::new(Machine::grid1d(4, MachineProfile::lassen_cpu()));
    ctx.add_tensor(
        "a",
        dense_vector(vec![0.0; 100]),
        Format::blocked_dense_vec(),
    )
    .unwrap();
    ctx.add_tensor("B", b, Format::blocked_csr()).unwrap();
    ctx.add_tensor(
        "c",
        dense_vector(generate::dense_vec(100, 7)),
        Format::replicated_dense_vec(),
    )
    .unwrap();
    let stmt = spmv_stmt(&mut ctx);

    // No distributed loop at all.
    let empty = Schedule::new();
    assert!(ctx.compile(&stmt, &empty).is_err());

    // Divide pieces disagree with the machine extent.
    let mut wrong = Schedule::new();
    let i = stmt.lhs.indices[0];
    let (io, _ii) = wrong.divide(ctx.vars_mut(), i, 3); // machine has 4
    wrong.distribute(io, 0);
    assert!(ctx.compile(&stmt, &wrong).is_err());

    // Communicate at a non-distributed loop.
    let mut sched = Schedule::new();
    sched.communicate(&["B"], i);
    assert!(ctx.compile(&stmt, &sched).is_err());
}

/// An operand whose extent disagrees with its index variable's extent in
/// the rest of the statement is a typed compile-time error, through both
/// `Context::compile` and `Program::build`, instead of an out-of-bounds
/// panic in the leaf kernel at execution.
#[test]
fn mismatched_operand_extents_rejected_at_compile() {
    let b = generate::banded(256, 5, 41);
    let c = dense_vector(generate::dense_vec(10, 42));
    let check = |e: Error| match e {
        Error::ShapeMismatch {
            var,
            tensor,
            expected,
            got,
        } => assert_eq!(
            (var.as_str(), tensor.as_str(), expected, got),
            ("j", "c", 256, 10)
        ),
        other => panic!("expected a shape mismatch, got: {other}"),
    };

    let mut ctx = Context::new(Machine::grid1d(4, MachineProfile::lassen_cpu()));
    ctx.add_tensor(
        "a",
        dense_vector(vec![0.0; 256]),
        Format::blocked_dense_vec(),
    )
    .unwrap();
    ctx.add_tensor("B", b.clone(), Format::blocked_csr())
        .unwrap();
    ctx.add_tensor("c", c.clone(), Format::replicated_dense_vec())
        .unwrap();
    let stmt = spmv_stmt(&mut ctx);
    let sched = schedule_outer_dim(&mut ctx, &stmt, 4, ParallelUnit::CpuThread);
    check(ctx.compile(&stmt, &sched).unwrap_err());

    let built = Program::on(Machine::grid1d(4, MachineProfile::lassen_cpu()))
        .tensor(
            "a",
            Format::blocked_dense_vec(),
            dense_vector(vec![0.0; 256]),
        )
        .tensor("B", Format::blocked_csr(), b)
        .tensor("c", Format::replicated_dense_vec(), c)
        .stmt("a(i) = B(i,j) * c(j)")
        .build();
    check(built.err().expect("build must reject the statement"));
}

/// SpAdd3 merges CSR rows through `pos` arrays indexed by row. An input
/// stored any other way — COO, or DCSR (whose `pos1` is indexed by level-0
/// position, so empty rows shift it) — is a typed compile error naming
/// the tensor and its storage, at both front doors: not a panic in the
/// leaf kernel, and not silently wrong values.
#[test]
fn spadd3_rejects_non_csr_inputs() {
    type Convert = fn(&SpTensor) -> SpTensor;
    let cases: [(Format, Convert, &str); 2] = [
        (
            Format::blocked_coo(),
            convert::to_coo_format,
            "{Compressed,Singleton}",
        ),
        (
            Format::blocked_dcsr(),
            convert::to_dcsr,
            "{Compressed,Compressed}",
        ),
    ];
    for (format, to_format, stored) in cases {
        // 50 rows, 25 entries: many rows are empty.
        let inputs: Vec<SpTensor> = (0..3)
            .map(|k| to_format(&generate::uniform(50, 40, 25, 8 + k)))
            .collect();
        let check = |e: Error| match &e {
            Error::Unsupported(msg) => assert!(
                msg.contains("SpAdd3") && msg.contains("'B'") && msg.contains(stored),
                "{msg}"
            ),
            other => panic!("expected an unsupported-input error, got: {other}"),
        };

        let mut ctx = Context::new(Machine::grid1d(4, MachineProfile::lassen_cpu()));
        for (name, t) in ["B", "C", "D"].into_iter().zip(&inputs) {
            ctx.add_tensor(name, t.clone(), format.clone()).unwrap();
        }
        ctx.add_tensor(
            "A",
            spdistal_repro::spdistal::plan::empty_csr(50, 40),
            Format::blocked_csr(),
        )
        .unwrap();
        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let stmt = assign(
            "A",
            &[i, j],
            access("B", &[i, j]) + access("C", &[i, j]) + access("D", &[i, j]),
        );
        let sched = schedule_outer_dim(&mut ctx, &stmt, 4, ParallelUnit::CpuThread);
        check(ctx.compile(&stmt, &sched).unwrap_err());

        let mut program = Program::on(Machine::grid1d(4, MachineProfile::lassen_cpu())).tensor(
            "A",
            Format::blocked_csr(),
            spdistal_repro::spdistal::plan::empty_csr(50, 40),
        );
        for (name, t) in ["B", "C", "D"].into_iter().zip(&inputs) {
            program = program.tensor(name, format.clone(), t.clone());
        }
        let built = program.stmt("A(i,j) = B(i,j) + C(i,j) + D(i,j)").build();
        check(built.err().expect("build must reject the statement"));
    }
}

/// The deferred-execution model never synchronizes processors without a
/// data dependence: per-processor clocks differ after imbalanced work.
#[test]
fn deferred_execution_decouples_processors() {
    let mut triplets: Vec<(i64, i64, f64)> = (0..2000).map(|j| (0i64, j, 1.0)).collect();
    triplets.push((1500, 0, 1.0));
    let b = spdistal_repro::sparse::csr_from_triplets(2000, 2000, &triplets);
    let mut ctx = Context::new(Machine::grid1d(4, MachineProfile::lassen_cpu()));
    ctx.add_tensor(
        "a",
        dense_vector(vec![0.0; 2000]),
        Format::blocked_dense_vec(),
    )
    .unwrap();
    ctx.add_tensor("B", b, Format::blocked_csr()).unwrap();
    ctx.add_tensor(
        "c",
        dense_vector(generate::dense_vec(2000, 8)),
        Format::replicated_dense_vec(),
    )
    .unwrap();
    let stmt = spmv_stmt(&mut ctx);
    let sched = schedule_outer_dim(&mut ctx, &stmt, 4, ParallelUnit::CpuThread);
    ctx.compile_and_run(&stmt, &sched).unwrap();
    let clocks: Vec<f64> = (0..4).map(|p| ctx.runtime().proc_clock(p)).collect();
    assert!(
        clocks[0] > clocks[2],
        "proc 0 (dense row) should lag: {clocks:?}"
    );
}
