//! What every workload shares: the run configuration and report, the
//! program declaration (built either through the `Program` front door or
//! layer by layer), the direct leaf-kernel drive, and library trace
//! counters.

use spdistal::codegen::{self, Plan};
use spdistal::kernels::specialized::{self, SpecializedKernel};
use spdistal::kernels::{matrix, tensor3, LeafKernel, OutVals};
use spdistal::prelude::*;
use spdistal::schedule_outer_dim;
use spdistal_ir::{lower, parse_tin};
use spdistal_sparse::SpTensor;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::spans::{SpanLog, LAYER_OP_BASE};
use crate::stats::{
    closed_loop, e2e_metrics, median, model_figures, Metric, OpLog, OpOutcome, MODEL_OPS,
};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Relative tolerance of every output check against the reference oracles.
pub const TOL: f64 = 1e-9;

/// Where runs leave their by-products (spans, the determinism record): the
/// build directory, which lives inside the checkout.
pub fn target_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
}

pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every repeated modeled figure (simulated time, modeled bytes) was
    /// bit-identical across fresh builds of the same inputs.
    pub deterministic: bool,
    pub metrics: Vec<Metric>,
    pub spans: Option<SpanLog>,
}

/// A program's declaration: machine size, execution mode, tensors, and
/// TIN statements, each on the pinned outer-dimension schedule (never
/// `ScheduleSpec::Auto`, which re-selects from measured wall-clock skew
/// and would make the modeled figures nondeterministic).
pub struct Decl {
    pub pieces: usize,
    pub mode: ExecMode,
    pub tensors: Vec<(&'static str, Format, SpTensor)>,
    pub stmts: Vec<&'static str>,
}

fn machine(pieces: usize) -> Machine {
    Machine::grid1d(pieces, MachineProfile::lassen_cpu())
}

impl Decl {
    /// Build through the `Program` front door.
    pub fn build(self, trace: Trace) -> Res<CompiledProgram> {
        let mut p = Program::on(machine(self.pieces))
            .exec_mode(self.mode)
            .trace(trace);
        for (name, format, data) in self.tensors {
            p = p.tensor(name, format, data);
        }
        for stmt in self.stmts {
            p = p.stmt(stmt).schedule(ScheduleSpec::outer_dim());
        }
        Ok(p.build()?)
    }

    /// Build layer by layer: `Context::add_tensor`, `parse_tin`, `lower`
    /// and `codegen::compile`, each call inside a span of `op`.
    pub fn build_layers(self, spans: &mut SpanLog, op: u64) -> Res<(Context, Vec<Plan>)> {
        let mut ctx = Context::new(machine(self.pieces)).with_exec_mode(self.mode);
        for (name, format, data) in self.tensors {
            spans.time("dist_tensor.add_tensor", op, None, || {
                ctx.add_tensor(name, data, format)
            })?;
        }
        let mut plans = Vec::new();
        for src in self.stmts {
            let stmt = spans.time("ir.parse", op, None, || parse_tin(src, ctx.vars_mut()))?;
            let schedule =
                schedule_outer_dim(&mut ctx, &stmt, self.pieces, ParallelUnit::CpuThread);
            spans.time("ir.lower", op, None, || lower(&stmt, &schedule, ctx.vars()))?;
            plans.push(spans.time("codegen.compile", op, None, || {
                codegen::compile(&ctx, &stmt, &schedule)
            })?);
        }
        Ok((ctx, plans))
    }
}

/// The values of an output (a dense buffer or a tensor's stored values).
pub fn values(v: &OutputValue) -> &[f64] {
    match v {
        OutputValue::Dense(v) => v,
        OutputValue::Tensor(t) => t.vals(),
    }
}

/// The values of statement `k`'s last output.
pub fn output(p: &CompiledProgram, k: usize) -> Option<&[f64]> {
    p.value(k).map(values)
}

/// Run `plan`'s leaf kernel directly over every color of its partition into
/// a fresh zeroed buffer: the specialized table entry when the
/// (kernel, driver format) pair is blessed, the generic walker otherwise.
/// Operands are the plan's non-driver inputs in statement order.
pub fn leaf_all_colors(ctx: &Context, plan: &Plan) -> Res<Vec<f64>> {
    let driver = &ctx.tensor(&plan.driver)?.data;
    let part = &plan
        .inputs
        .iter()
        .find(|i| i.tensor == plan.driver)
        .ok_or("plan has no driver input")?
        .part;
    let operands = plan
        .inputs
        .iter()
        .filter(|i| i.tensor != plan.driver)
        .map(|i| ctx.tensor(&i.tensor).map(|t| t.data.vals()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut buf = vec![0.0; ctx.tensor(&plan.output.tensor)?.data.vals().len()];
    let out = OutVals::new(&mut buf);
    let spec = specialized::lookup(&plan.kernel, &plan.driver_levels);
    for color in 0..plan.colors {
        match (&plan.kernel, spec, operands.as_slice()) {
            (LeafKernel::SpMv, Some(SpecializedKernel::SpMv(f)), [c]) => {
                f(driver, part, color, None, c, &out);
            }
            (LeafKernel::SpMv, None, [c]) => {
                matrix::spmv_color(driver, part, color, None, c, &out);
            }
            (LeafKernel::SpMm { jdim }, Some(SpecializedKernel::SpMm(f)), [c]) => {
                f(driver, part, color, None, c, *jdim, &out);
            }
            (LeafKernel::SpMm { jdim }, None, [c]) => {
                matrix::spmm_color(driver, part, color, None, c, *jdim, &out);
            }
            (LeafKernel::SpMttkrp { ldim }, Some(SpecializedKernel::SpMttkrp(f)), [c, d]) => {
                f(driver, part, color, None, c, d, *ldim, &out);
            }
            (LeafKernel::SpMttkrp { ldim }, None, [c, d]) => {
                tensor3::spmttkrp_color(driver, part, color, None, c, d, *ldim, &out);
            }
            (kernel, ..) => return Err(format!("no direct leaf drive for {kernel:?}").into()),
        }
    }
    Ok(buf)
}

/// A counter of the library's own trace (0 when tracing is off).
pub fn counter(trace: &Trace, name: &str) -> u64 {
    trace.metrics().map_or(0, |m| m.counter(name).get())
}

/// Whether every repeat of a modeled figure is bit-identical.
pub fn all_bits_equal(values: &[(f64, f64)]) -> bool {
    values
        .windows(2)
        .all(|w| w[0].0.to_bits() == w[1].0.to_bits() && w[0].1.to_bits() == w[1].1.to_bits())
}

/// Ratio with a zero denominator reported as 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One pass of a library workload: a closed loop on one build, plus `reps`
/// fresh builds in all, each timed through its first, compiling op (the
/// `setup_s` samples).
pub struct Pass<S> {
    pub program: CompiledProgram,
    pub state: S,
    pub log: OpLog,
    pub setup: SetupLog,
    /// Per loop op, traced passes only: mean launch issue-to-start seconds
    /// and modeled messages summed over the op's statements.
    pub issue_to_start_s: Vec<f64>,
    pub messages: Vec<f64>,
}

impl<S> Pass<S> {
    pub fn attempted(&self) -> u64 {
        self.log.attempted() + self.setup.setup_s.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.log.failed + self.setup.failed
    }
}

/// Builds a fresh declaration plus per-run driver state; called outside
/// every timer, so cloning inputs never counts as set-up.
pub type Fresh<'a, S> = dyn FnMut() -> (Decl, S) + 'a;
/// Runs op `k` on a program, spans given in traced passes.
pub type OpFn<'a, S> =
    dyn FnMut(&mut CompiledProgram, &mut S, usize, Option<&mut SpanLog>) -> OpOutcome + 'a;

/// The set-up samples of a pass.
#[derive(Default)]
pub struct SetupLog {
    pub setup_s: Vec<f64>,
    /// Modeled (time, bytes) of each build's first op.
    pub first_model: Vec<(f64, f64)>,
    pub failed: u64,
}

impl SetupLog {
    /// Build a fresh program and run its first, compiling op: one
    /// `setup_s` sample.
    fn build<S>(
        &mut self,
        trace: &Trace,
        fresh: &mut Fresh<S>,
        op: &mut OpFn<S>,
    ) -> Res<(CompiledProgram, S)> {
        let (decl, mut state) = fresh();
        let t0 = Instant::now();
        let mut program = decl.build(trace.clone())?;
        let first = op(&mut program, &mut state, 0, None);
        self.setup_s.push(t0.elapsed().as_secs_f64());
        self.first_model.push((first.model_s, first.comm_bytes));
        self.failed += u64::from(!first.ok);
        Ok((program, state))
    }
}

/// Run one pass for `seconds`; see [`Pass`].
pub fn pass<S>(
    seconds: f64,
    reps: usize,
    trace: Trace,
    fresh: &mut Fresh<S>,
    op: &mut OpFn<S>,
    mut spans: Option<&mut SpanLog>,
) -> Res<Pass<S>> {
    let mut setup = SetupLog::default();
    let (mut program, mut state) = setup.build(&trace, fresh, op)?;
    // The other builds are spread over the loop, so that set-up samples the
    // host's speed across the whole run, as the ops do; each is dropped
    // right after its first op.
    let every = seconds / reps.max(1) as f64;
    let start = Instant::now();
    let mut setup_err = None;
    let (mut issue_to_start_s, mut messages) = (Vec::new(), Vec::new());
    let log = closed_loop(seconds, MODEL_OPS, |k| {
        if setup_err.is_none()
            && setup.setup_s.len() < reps
            && start.elapsed().as_secs_f64() >= every * setup.setup_s.len() as f64
        {
            setup_err = setup.build(&trace, fresh, op).err();
        }
        let out = op(&mut program, &mut state, k + 1, spans.as_deref_mut());
        if trace.is_enabled() {
            let results: Vec<&ExecResult> = (0..program.stmt_count())
                .filter_map(|s| program.result(s))
                .collect();
            let waits: Vec<f64> = results
                .iter()
                .flat_map(|r| &r.launches)
                .map(|l| (l.start - l.issue).max(0.0))
                .collect();
            issue_to_start_s.push(waits.iter().sum::<f64>() / waits.len().max(1) as f64);
            messages.push(results.iter().map(|r| r.messages as f64).sum());
        }
        out
    });
    if let Some(e) = setup_err {
        return Err(e);
    }
    Ok(Pass {
        program,
        state,
        log,
        setup,
        issue_to_start_s,
        messages,
    })
}

/// Per-layer figures from the layer drive, plus its own output checks.
#[derive(Default)]
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Layers {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The median of `spans`' per-op sums of `span` durations, scaled.
    pub fn span_median(
        &mut self,
        spans: &SpanLog,
        span: &str,
        name: &'static str,
        unit: &'static str,
    ) -> f64 {
        let sums = spans.per_op_sums(span);
        let scale = match unit {
            "ms" => 1e3,
            "us" => 1e6,
            _ => 1.0,
        };
        let v = median(&sums) * scale;
        self.metrics.push(Metric::new(name, v, unit, sums.len()));
        v
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }

    /// The set-up layers of [`Decl::build_layers`], as medians over builds.
    pub fn setup_layers(&mut self, spans: &SpanLog) {
        self.span_median(
            spans,
            "dist_tensor.add_tensor",
            "dist_tensor.add_tensor_ms",
            "ms",
        );
        self.span_median(spans, "ir.parse", "ir.parse_us", "us");
        self.span_median(spans, "ir.lower", "ir.lower_us", "us");
        self.span_median(spans, "codegen.compile", "codegen.compile_ms", "ms");
    }
}

/// Share of wall time spent in the layer drive of a traced run; the rest
/// is split evenly between the untraced and the traced pass.
pub const LAYER_SHARE: f64 = 0.3;

/// Builds of the layer drive; its set-up layer figures are medians over them.
const LAYER_BUILDS: u64 = 5;

/// The layer drive's set-up: `decl()` built layer by layer
/// [`LAYER_BUILDS`] times, keeping the last build.
pub fn layer_builds(
    spans: &mut SpanLog,
    mut decl: impl FnMut() -> Decl,
) -> Res<(Context, Vec<Plan>)> {
    let mut built = None;
    for rep in 0..LAYER_BUILDS {
        built = Some(decl().build_layers(spans, LAYER_OP_BASE + rep)?);
    }
    Ok(built.ok_or("no layer build")?)
}

/// Run `step(op)` under fresh op ids until `seconds` have passed, at least
/// once. Returns the number of steps.
pub fn drive_for(seconds: f64, mut step: impl FnMut(u64) -> Res<()>) -> Res<usize> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut n = 0;
    while n == 0 || Instant::now() < deadline {
        step(LAYER_OP_BASE + LAYER_BUILDS + n as u64)?;
        n += 1;
    }
    Ok(n)
}

/// Run a library workload: the end-to-end metrics from one untraced pass,
/// or (traced) the per-layer metrics from an untraced pass, a traced pass
/// of the same loop, and `layers`' drive through the layer functions.
pub fn run_library<S>(
    cfg: &Cfg,
    reps: usize,
    tail_q: f64,
    fresh: &mut Fresh<S>,
    op: &mut OpFn<S>,
    layers: impl FnOnce(&Pass<S>, &mut SpanLog, f64) -> Res<Layers>,
) -> Res<Report> {
    if !cfg.trace {
        let p = pass(cfg.seconds, reps, Trace::disabled(), fresh, op, None)?;
        let model = model_figures(&p.log);
        return Ok(Report {
            attempted: p.attempted(),
            failed: p.failed(),
            deterministic: all_bits_equal(&p.setup.first_model),
            metrics: e2e_metrics(&p.setup.setup_s, &p.log, tail_q, model.0),
            spans: None,
        });
    }
    let loop_s = cfg.seconds * (1.0 - LAYER_SHARE) / 2.0;
    let plain = pass(loop_s, 1, Trace::disabled(), fresh, op, None)?;
    let mut spans = SpanLog::default();
    let traced = pass(loop_s, 1, Trace::enabled(), fresh, op, Some(&mut spans))?;
    let mut out = layers(&traced, &mut spans, cfg.seconds * LAYER_SHARE)?;
    let (p, trace) = (&traced.program, traced.program.trace());
    let cache = p.plan_cache();
    let (thr_plain, thr_traced) = (plain.log.throughput(), traced.log.throughput());
    let n = traced.log.attempted() as usize;
    out.push("codegen.compiles", p.report().compiles as f64, "count", 1);
    out.push(
        "engine.plan_hit_ratio",
        ratio(cache.hits() as f64, (cache.hits() + cache.misses()) as f64),
        "ratio",
        1,
    );
    out.push(
        "kernels.specialized",
        counter(trace, "kernel.specialized") as f64,
        "count",
        1,
    );
    out.push(
        "kernels.fallback",
        counter(trace, "kernel.fallback") as f64,
        "count",
        1,
    );
    out.push(
        "exec.records",
        p.context().runtime().stats().records.len() as f64,
        "count",
        1,
    );
    out.push("exec.messages", median(&traced.messages), "count", n);
    out.push(
        "exec.comm_bytes",
        model_figures(&traced.log).1,
        "B",
        n.min(MODEL_OPS),
    );
    out.push(
        "pipeline.issue_to_start_us",
        median(&traced.issue_to_start_s) * 1e6,
        "us",
        n,
    );
    out.push(
        "obs.trace_overhead_pct",
        ratio(thr_plain - thr_traced, thr_plain) * 100.0,
        "%",
        n,
    );
    Ok(Report {
        attempted: plain.attempted() + traced.attempted() + out.attempted,
        failed: plain.failed() + traced.failed() + out.failed,
        deterministic: true,
        metrics: out.metrics,
        spans: Some(spans),
    })
}
