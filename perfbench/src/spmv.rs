//! `spmv_steady`: one compiled `a(i) = B(i,j) * c(j)` run in a closed loop
//! of cached iterations — host overhead per cached run is the target.

use spdistal::plan;
use spdistal::prelude::*;
use spdistal_sparse::{dense_vector, generate, reference, SpTensor};

use crate::common::{
    drive_for, layer_builds, leaf_all_colors, output, run_library, values, Cfg, Decl, Layers,
    Report, Res, TOL,
};
use crate::spans::{op_scope, SpanLog};
use crate::stats::OpOutcome;

const SCALE: u32 = 12;
const NNZ: usize = 200_000;
const PIECES: usize = 8;
const SETUP_REPS: usize = 15;
/// 95th percentile (~1 500 iterations beyond it per run). The 99th and
/// 99.9th are set by preemptions of the shared host, not by the program:
/// they spread by 17% and 90% between runs.
const TAIL_Q: f64 = 0.95;
const STMT: &str = "a(i) = B(i,j) * c(j)";

struct Inputs {
    b: SpTensor,
    c: Vec<f64>,
    expect: Vec<f64>,
}

fn decl(inp: &Inputs) -> Decl {
    Decl {
        pieces: PIECES,
        mode: ExecMode::Serial,
        tensors: vec![
            (
                "a",
                Format::blocked_dense_vec(),
                dense_vector(vec![0.0; inp.b.dims()[0]]),
            ),
            ("B", Format::blocked_csr(), inp.b.clone()),
            (
                "c",
                Format::replicated_dense_vec(),
                dense_vector(inp.c.clone()),
            ),
        ],
        stmts: vec![STMT],
    }
}

pub fn run(cfg: &Cfg) -> Res<Report> {
    let b = generate::rmat_default(SCALE, NNZ, cfg.seed);
    let c = generate::dense_vec(b.dims()[1], cfg.seed.wrapping_add(1));
    let expect = reference::spmv(&b, &c);
    let inp = Inputs { b, c, expect };
    let mut fresh = || (decl(&inp), ());
    let mut op = |p: &mut CompiledProgram, _: &mut (), k: usize, spans: Option<&mut SpanLog>| {
        let (latency_s, res) =
            op_scope(spans, k, |s| s.time("program.run", || p.run().map(|_| ())));
        let r = p.result(0);
        OpOutcome {
            latency_s,
            ok: res.is_ok()
                && output(p, 0).is_some_and(|o| reference::approx_eq(o, &inp.expect, TOL)),
            model_s: r.map_or(0.0, |r| r.time),
            comm_bytes: r.map_or(0.0, |r| r.comm_bytes as f64),
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
            let n = drive_for(seconds, |op| {
                let res = spans.time("plan.execute", op, None, || {
                    plan::execute(&mut ctx, &plans[0])
                })?;
                out.check(reference::approx_eq(values(&res.output), &inp.expect, TOL));
                let leaf = spans.time("kernels.leaf", op, None, || {
                    leaf_all_colors(&ctx, &plans[0])
                })?;
                out.check(reference::approx_eq(&leaf, &inp.expect, TOL));
                Ok(())
            })?;
            out.setup_layers(spans);
            let exec = out.span_median(spans, "plan.execute", "plan.execute_ms", "ms");
            let leaf = out.span_median(spans, "kernels.leaf", "kernels.leaf_ms", "ms");
            out.push("plan.host_ms", exec - leaf, "ms", n);
            out.span_median(spans, "program.run", "program.run_ms", "ms");
            Ok(out)
        },
    )
}
