//! Property-based tests (proptest) over the core invariants:
//!
//! * format round-trips preserve sparse tensors exactly;
//! * `SpTensor::locate` finds exactly the stored coordinates, at the
//!   positions `for_each` visits them, in every blessed layout;
//! * the Table I partition derivations cover every stored entry exactly
//!   once at the leaf level for disjoint initial partitions;
//! * image/preimage adjointness on tensor pos/crd pairs;
//! * the compiled distributed SpMV equals the serial oracle for arbitrary
//!   sparse matrices, schedules (row/non-zero) and machine sizes;
//! * the loop-IR interpreter agrees with the specialized kernels.

use proptest::prelude::*;

use spdistal_repro::ir;
use spdistal_repro::runtime::{image_rects, preimage_rects, Partition};
use spdistal_repro::sparse::{
    convert, dense_vector, reference, CooTensor, Level, LevelFormat, SpTensor,
};
use spdistal_repro::spdistal::level_funcs::{
    equal_coord_bounds, nonzero_partition, partition_tensor, universe_partition,
};
use spdistal_repro::spdistal::prelude::*;
use spdistal_repro::spdistal::{access, assign, schedule_nonzero, schedule_outer_dim};

/// Strategy: an arbitrary small sparse matrix in CSR.
fn arb_matrix() -> impl Strategy<Value = SpTensor> {
    (2usize..40, 2usize..40, 0usize..120).prop_flat_map(|(rows, cols, n)| {
        proptest::collection::vec(
            (0..rows as i64, 0..cols as i64, -5.0f64..5.0),
            n.min(rows * cols),
        )
        .prop_map(move |triplets| {
            let mut coo = CooTensor::new(vec![rows, cols]);
            for (i, j, v) in triplets {
                // Avoid exact-zero stored values for pattern stability.
                coo.push(&[i, j], if v == 0.0 { 1.0 } else { v });
            }
            coo.build(&[LevelFormat::Dense, LevelFormat::Compressed])
        })
    })
}

/// Strategy: an arbitrary small 3-tensor in CSF (values never zero).
fn arb_tensor3() -> impl Strategy<Value = SpTensor> {
    (1usize..8, 1usize..8, 1usize..8, 0usize..80).prop_flat_map(|(a, b, c, n)| {
        proptest::collection::vec((0..a as i64, 0..b as i64, 0..c as i64, 0.5f64..2.0), n).prop_map(
            move |entries| {
                let mut coo = CooTensor::new(vec![a, b, c]);
                for (i, j, k, v) in entries {
                    coo.push(&[i, j, k], v);
                }
                coo.build(&[
                    LevelFormat::Dense,
                    LevelFormat::Compressed,
                    LevelFormat::Compressed,
                ])
            },
        )
    })
}

/// `locate` over every coordinate of `t`'s blessed `layouts`: a stored
/// coordinate maps to the position `for_each` visits it at, any other
/// coordinate to `None`.
fn check_locate(t: &SpTensor, layouts: &[Vec<LevelFormat>]) -> Result<(), proptest::TestCaseError> {
    for formats in layouts {
        let t = convert::with_formats(t, formats);
        prop_assert!(t.is_canonical(), "{:?}", formats);
        let mut stored = std::collections::BTreeMap::new();
        t.for_each(|c, _| {
            let q = stored.len();
            stored.insert(c.to_vec(), q);
        });
        let mut coord = vec![0i64; t.order()];
        'grid: loop {
            prop_assert_eq!(t.locate(&coord), stored.get(&coord).copied());
            let mut d = t.order();
            loop {
                if d == 0 {
                    break 'grid;
                }
                d -= 1;
                coord[d] += 1;
                if (coord[d] as usize) < t.dims()[d] {
                    break;
                }
                coord[d] = 0;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn locate_agrees_with_for_each(m in arb_matrix(), t3 in arb_tensor3()) {
        use LevelFormat::{Compressed as C, Dense as D, Singleton as S};
        check_locate(&m, &[vec![D, C], vec![C, C], vec![C, S], vec![D, D]])?;
        check_locate(
            &t3,
            &[vec![D, C, C], vec![C, C, C], vec![C, S, S], vec![D, D, D]],
        )?;
    }

    #[test]
    fn format_roundtrips_preserve_tensor(m in arb_matrix()) {
        let csc = convert::to_csc(&m);
        prop_assert_eq!(&convert::to_csc(&csc), &m);
        let dcsr = convert::to_dcsr(&m);
        prop_assert_eq!(dcsr.to_coo(), m.to_coo());
        let back = convert::to_csr(&convert::with_formats(
            &m,
            &[LevelFormat::Compressed, LevelFormat::Compressed],
        ));
        prop_assert_eq!(&back, &m);
    }

    #[test]
    fn partitions_cover_leaves_exactly_once(
        m in arb_matrix(),
        colors in 1usize..7,
        nonzero in proptest::bool::ANY,
    ) {
        let init = if nonzero {
            nonzero_partition(&m, 1, colors)
        } else {
            universe_partition(&m, 0, &equal_coord_bounds(m.dims()[0], colors))
        };
        let level = if nonzero { 1 } else { 0 };
        let tp = partition_tensor(&m, level, init);
        // Leaf (vals) partition is disjoint & complete for both initial
        // partitions: each stored value is computed exactly once.
        prop_assert!(tp.vals.is_disjoint());
        prop_assert!(tp.vals.is_complete());
        // The crd level is complete; the row level must cover every row
        // that has stored children (empty rows need no color under a
        // non-zero partition).
        prop_assert!(tp.entries[1].is_complete());
        let Level::Compressed { pos, .. } = m.level(1) else { unreachable!() };
        let mut row_union = spdistal_repro::runtime::IntervalSet::new();
        for c in 0..colors {
            row_union = row_union.union(tp.entries[0].subset(c));
        }
        for (row, r) in pos.iter().enumerate() {
            if !r.is_empty() {
                prop_assert!(row_union.contains(row as i64), "row {row} uncovered");
            }
        }
    }

    #[test]
    fn image_preimage_adjoint(m in arb_matrix(), colors in 1usize..6) {
        let Level::Compressed { pos, crd } = m.level(1) else { unreachable!() };
        let p = Partition::equal(pos.len() as u64, colors);
        let img = image_rects(pos, &p, crd.len() as u64);
        let back = preimage_rects(pos, &img);
        for c in 0..colors {
            // Adjointness: rows with children keep their color.
            for i in p.subset(c).iter_points() {
                if !pos[i as usize].is_empty() {
                    prop_assert!(back.subset(c).contains(i));
                }
            }
        }
    }

    #[test]
    fn distributed_spmv_equals_oracle(
        m in arb_matrix(),
        nodes in 1usize..6,
        nonzero in proptest::bool::ANY,
    ) {
        prop_assume!(m.nnz() > 0);
        let n = m.dims()[0];
        let cols = m.dims()[1];
        let c: Vec<f64> = (0..cols).map(|k| (k as f64 * 0.37).sin() + 1.5).collect();
        let expect = reference::spmv(&m, &c);

        let mut ctx = Context::new(Machine::grid1d(nodes, MachineProfile::test_profile()));
        let fmt = if nonzero { Format::nonzero_csr() } else { Format::blocked_csr() };
        ctx.add_tensor("a", dense_vector(vec![0.0; n]), Format::blocked_dense_vec()).unwrap();
        ctx.add_tensor("B", m.clone(), fmt).unwrap();
        ctx.add_tensor("c", dense_vector(c.clone()), Format::replicated_dense_vec()).unwrap();
        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let stmt = assign("a", &[i], access("B", &[i, j]) * access("c", &[j]));
        let sched = if nonzero {
            schedule_nonzero(&mut ctx, &stmt, "B", 2, nodes, ParallelUnit::CpuThread).unwrap()
        } else {
            schedule_outer_dim(&mut ctx, &stmt, nodes, ParallelUnit::CpuThread)
        };
        let r = ctx.compile_and_run(&stmt, &sched).unwrap();
        prop_assert!(reference::approx_eq(
            r.output.as_tensor().unwrap().vals(), &expect, 1e-10));
    }

    #[test]
    fn interpreter_agrees_with_reference_spmv(m in arb_matrix()) {
        let cols = m.dims()[1];
        let c: Vec<f64> = (0..cols).map(|k| 0.5 + k as f64).collect();
        let mut vars = ir::VarCtx::new();
        let [i, j] = vars.fresh_n(["i", "j"]);
        let stmt = ir::Assignment::new(
            ir::Access::new("a", &[i]),
            ir::Expr::access("B", &[i, j]) * ir::Expr::access("c", &[j]),
        );
        let cv = dense_vector(c.clone());
        let out = ir::evaluate(&stmt, &ir::Bindings::new().bind("B", &m).bind("c", &cv)).unwrap();
        let dense = ir::result_to_dense(&out, &[m.dims()[0]]);
        prop_assert!(reference::approx_eq(&dense, &reference::spmv(&m, &c), 1e-10));
    }

    #[test]
    fn spadd3_distributed_equals_oracle(m in arb_matrix(), nodes in 1usize..5) {
        prop_assume!(m.nnz() > 0);
        let c = spdistal_repro::sparse::generate::shift_last_dim(&m, 1);
        let d = spdistal_repro::sparse::generate::shift_last_dim(&m, 2);
        let expect = reference::spadd3(&m, &c, &d);
        let (rows, cols) = (m.dims()[0], m.dims()[1]);
        let mut ctx = Context::new(Machine::grid1d(nodes, MachineProfile::test_profile()));
        for (name, t) in [("B", &m), ("C", &c), ("D", &d)] {
            ctx.add_tensor(name, t.clone(), Format::blocked_csr()).unwrap();
        }
        ctx.add_tensor("A", spdistal_repro::spdistal::plan::empty_csr(rows, cols),
            Format::blocked_csr()).unwrap();
        let [i, j] = ctx.fresh_vars(["i", "j"]);
        let stmt = assign("A", &[i, j],
            access("B", &[i, j]) + access("C", &[i, j]) + access("D", &[i, j]));
        let sched = schedule_outer_dim(&mut ctx, &stmt, nodes, ParallelUnit::CpuThread);
        let r = ctx.compile_and_run(&stmt, &sched).unwrap();
        prop_assert!(reference::tensors_approx_eq(
            r.output.as_tensor().unwrap(), &expect, 1e-10));
    }

    #[test]
    fn tdn_parse_resolve_never_panics(
        dims in "[a-e]{1,3}",
        machine in "~?[a-g]",
    ) {
        let input = format!("T {dims} -> {machine} M");
        if let Ok(stmt) = ir::tdn::parse(&input) {
            let _ = stmt.dist.resolve(dims.len());
        }
    }
}
