//! `stream_updates`: SpMM feature propagation over a graph that streams
//! edge-weight updates. One op applies one delta batch (`update_batch`) and
//! recomputes incrementally (`run_incremental`); every
//! [`STRUCTURAL_EVERY`]th batch also inserts edges, which forces a plan
//! drop, a recompile and a full pass.

use spdistal::plan;
use spdistal::prelude::*;
use spdistal_sparse::{dense_matrix, generate, reference, CooTensor, SpTensor};

use crate::common::{
    drive_for, layer_builds, leaf_all_colors, output, ratio, run_library, values, Cfg, Decl,
    Layers, Report, Res, TOL,
};
use crate::spans::{op_scope, SpanLog};
use crate::stats::OpOutcome;

const SCALE: u32 = 14;
const NNZ: usize = 400_000;
const WIDTH: usize = 32;
const PIECES: usize = 16;
/// `delta_stream` clustering of each batch's overwrites.
const ALPHA: f64 = 0.5;
/// Overwrites per batch: touches about 1% of the rows (~170 of 16 384).
const BATCH_NNZ: usize = 250;
const STRUCTURAL_EVERY: usize = 8;
const INSERTS: usize = 16;
/// Batches generated per `delta_stream` call.
const CHUNK: usize = 64;
const SETUP_REPS: usize = 7;
/// 90th percentile (~25 batches beyond it per run): inside the structural
/// batches, which are one in eight.
const TAIL_Q: f64 = 0.9;
const STMT: &str = "A(i,j) = B(i,k) * C(k,j)";

struct Inputs {
    seed: u64,
    b: SpTensor,
    c: Vec<f64>,
    expect: Vec<f64>,
}

/// The driver state of one run: the benchmark's own copy of the mutated
/// matrix (row-wise, sorted by column), the oracle output for it, the
/// current chunk of delta batches, and incremental-pass telemetry.
struct State {
    rows: Vec<Vec<(i64, f64)>>,
    expect: Vec<f64>,
    chunk: Vec<Vec<CoordDelta>>,
    spans_skipped: usize,
    spans_rerun: usize,
    fallbacks: usize,
}

/// SplitMix64: the benchmark's own deterministic stream for edge inserts.
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    fn decl(&self) -> Decl {
        let n = self.b.dims()[0];
        Decl {
            pieces: PIECES,
            mode: ExecMode::Serial,
            tensors: vec![
                (
                    "A",
                    Format::blocked_dense_matrix(),
                    dense_matrix(n, WIDTH, vec![0.0; n * WIDTH]),
                ),
                ("B", Format::blocked_csr(), self.b.clone()),
                (
                    "C",
                    Format::replicated_dense_matrix(),
                    dense_matrix(self.b.dims()[1], WIDTH, self.c.clone()),
                ),
            ],
            stmts: vec![STMT],
        }
    }

    fn fresh_state(&self) -> State {
        let mut rows = vec![Vec::new(); self.b.dims()[0]];
        for (coord, v) in self.b.to_coo() {
            rows[coord[0] as usize].push((coord[1], v));
        }
        State {
            rows,
            expect: self.expect.clone(),
            chunk: Vec::new(),
            spans_skipped: 0,
            spans_rerun: 0,
            fallbacks: 0,
        }
    }

    /// The deltas of batch `k` (0-based): `delta_stream` overwrites, plus
    /// edge inserts on every `STRUCTURAL_EVERY`th batch. Pure in `k`.
    fn batch(&self, state: &mut State, k: usize) -> Vec<CoordDelta> {
        if k.is_multiple_of(CHUNK) {
            let chunk_seed = self.seed.wrapping_mul(1_000_003).wrapping_add(k as u64);
            state.chunk = generate::delta_stream(&self.b, ALPHA, CHUNK, BATCH_NNZ, chunk_seed);
        }
        let mut deltas = state.chunk[k % CHUNK].clone();
        if k % STRUCTURAL_EVERY == STRUCTURAL_EVERY - 1 {
            let mut x = self.seed ^ (k as u64).wrapping_mul(0xA24B_AED4_963E_E407);
            let n = self.b.dims()[0] as u64;
            for _ in 0..INSERTS {
                let (i, j) = (splitmix(&mut x) % n, splitmix(&mut x) % n);
                let v = (splitmix(&mut x) >> 11) as f64 / (1u64 << 53) as f64;
                deltas.push(CoordDelta::insert(vec![i as i64, j as i64], v));
            }
        }
        deltas
    }
}

impl State {
    /// Apply `deltas` to the benchmark's matrix copy and refresh the oracle
    /// output of every touched row with `reference::spmm`.
    fn apply(&mut self, deltas: &[CoordDelta], c: &[f64]) {
        let mut touched: Vec<usize> = Vec::new();
        for d in deltas {
            let (i, j) = (d.coord[0] as usize, d.coord[1]);
            let row = &mut self.rows[i];
            match row.binary_search_by_key(&j, |e| e.0) {
                Ok(at) => row[at].1 = d.val,
                Err(at) if d.op == DeltaOp::Insert => row.insert(at, (j, d.val)),
                Err(_) => {}
            }
            touched.push(i);
        }
        touched.sort_unstable();
        touched.dedup();
        let n = self.rows.len();
        let mut coo = CooTensor::new(vec![n, n]);
        for &i in &touched {
            for &(j, v) in &self.rows[i] {
                coo.push(&[i as i64, j], v);
            }
        }
        let part = reference::spmm(&coo.build(&generate::CSR), c, WIDTH);
        for &i in &touched {
            let r = i * WIDTH..(i + 1) * WIDTH;
            self.expect[r.clone()].copy_from_slice(&part[r]);
        }
    }
}

pub fn run(cfg: &Cfg) -> Res<Report> {
    let b = generate::rmat_default(SCALE, NNZ, cfg.seed);
    let c = generate::dense_buffer(b.dims()[1], WIDTH, cfg.seed.wrapping_add(1));
    let expect = reference::spmm(&b, &c, WIDTH);
    let inp = Inputs {
        seed: cfg.seed,
        b,
        c,
        expect,
    };
    let mut fresh = || (inp.decl(), inp.fresh_state());
    let mut op =
        |p: &mut CompiledProgram, st: &mut State, k: usize, spans: Option<&mut SpanLog>| {
            let (latency_s, res) = if k == 0 {
                op_scope(spans, k, |s| s.time("program.run", || p.run().map(|_| ())))
            } else {
                let deltas = inp.batch(st, k - 1);
                let out = op_scope(spans, k, |s| {
                    s.time("dist_tensor.update_batch", || p.update_batch("B", &deltas))?;
                    s.time("streaming.incremental", || p.run_incremental().map(|_| ()))
                });
                st.apply(&deltas, &inp.c);
                if let Some(inc) = p.last_incremental(0) {
                    st.spans_skipped += inc.spans_skipped;
                    st.spans_rerun += inc.spans_reexecuted;
                    st.fallbacks += usize::from(inc.fallback);
                }
                out
            };
            let r = p.result(0);
            OpOutcome {
                latency_s,
                ok: res.is_ok()
                    && output(p, 0).is_some_and(|o| reference::approx_eq(o, &st.expect, TOL)),
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
        |traced, spans, seconds| {
            let mut out = Layers::default();
            let (mut ctx, plans) = layer_builds(spans, || inp.decl())?;
            let entries = inp.b.to_coo();
            let n = drive_for(seconds, |op| {
                let mut coo = CooTensor::new(inp.b.dims().to_vec());
                for (coord, v) in &entries {
                    coo.push(coord, *v);
                }
                let rebuilt = spans.time("sparse.build", op, None, || coo.build(&generate::CSR));
                out.check(reference::tensors_approx_eq(&rebuilt, &inp.b, 0.0));
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
            out.span_median(spans, "sparse.build", "sparse.build_ms", "ms");
            let exec = out.span_median(spans, "plan.execute", "plan.execute_ms", "ms");
            let leaf = out.span_median(spans, "kernels.leaf", "kernels.leaf_ms", "ms");
            out.push("plan.host_ms", exec - leaf, "ms", n);
            out.span_median(
                spans,
                "dist_tensor.update_batch",
                "dist_tensor.update_batch_ms",
                "ms",
            );
            out.span_median(
                spans,
                "streaming.incremental",
                "streaming.incremental_ms",
                "ms",
            );
            let st = &traced.state;
            out.push(
                "streaming.skip_ratio",
                ratio(
                    st.spans_skipped as f64,
                    (st.spans_skipped + st.spans_rerun) as f64,
                ),
                "ratio",
                traced.log.attempted() as usize,
            );
            out.push("streaming.fallbacks", st.fallbacks as f64, "count", 1);
            Ok(out)
        },
    )
}
