//! The `Program` front-end: one typed entry point for the paper's whole
//! programming model.
//!
//! Figure 1's pitch is that a user writes *four declarative things* — a
//! machine, tensor formats, a tensor index notation statement, and a
//! distribution/schedule — and the system does the rest. [`Program`] is
//! that surface in one builder:
//!
//! ```
//! use spdistal::prelude::*;
//! use spdistal_sparse::{dense_vector, generate};
//!
//! let pieces = 4;
//! let b = generate::banded(64, 5, 0);
//! let mut p = Program::on(Machine::grid1d(pieces, MachineProfile::lassen_cpu()))
//!     .tensor("a", Format::blocked_dense_vec(), dense_vector(vec![0.0; 64]))
//!     .tensor("B", Format::blocked_csr(), b)
//!     .tensor("c", Format::replicated_dense_vec(), dense_vector(vec![1.0; 64]))
//!     .stmt("a(i) = B(i,j) * c(j)")
//!     .auto()
//!     .build()
//!     .unwrap();
//! let report = p.run().unwrap().clone();
//! assert_eq!(report.iterations, 1);
//! assert_eq!(report.compiles, 1);
//! assert!(p.result(0).unwrap().time > 0.0);
//! ```
//!
//! [`Program::build`] compiles the declarations into a [`CompiledProgram`]
//! that owns the [`Context`], a **plan cache** keyed by `(statement,
//! schedule, format signature)`, and the deferred-execution drive loop:
//! [`CompiledProgram::run`] submits every statement to a
//! [`Session`](crate::Session) (independent statements overlap; RAW chains
//! cut batches), [`CompiledProgram::run_iters`] repeats the whole program
//! without recompiling anything whose cache key is unchanged, and
//! [`CompiledProgram::report`] surfaces what happened — including every
//! [`AutoDecision`] the auto-scheduler took.
//!
//! ## Auto-scheduling
//!
//! [`ScheduleSpec::Auto`] closes the simplest form of the executor-feedback
//! loop the paper leaves to the user:
//!
//! 1. **Static choice** — from the driver tensor's non-zero statistics: if
//!    the equal outer-dimension blocks' nnz imbalance exceeds
//!    [`STATIC_IMBALANCE`], the statement gets the non-zero distribution of
//!    Section II-D outright; otherwise the Figure-1 outer-dimension
//!    (row/slice) distribution.
//! 2. **Warm-up feedback** — after the first iteration, statements still on
//!    the outer-dimension schedule are re-examined against the *compiled*
//!    plan's modeled partition imbalance ([`SWITCH_IMBALANCE`]) and the
//!    executor's measured counters (task skew above [`SWITCH_TASK_SKEW`]
//!    with real steals): if either says one color gates the launch, the
//!    statement is re-scheduled onto the non-zero distribution for every
//!    subsequent iteration. Each (re)selection is recorded as an
//!    [`AutoDecision`] in [`CompiledProgram::report`].
//!
//! The plan cache makes the re-selection cheap: the old and new schedules
//! key different entries, each compiled exactly once.
//!
//! ## Caching caveat
//!
//! Cache keys capture statements, schedules, and *formats* — not tensor
//! values. Plans embed partitions derived from the driver's sparsity
//! pattern at compile time, so iterating is sound while patterns are
//! stable (dense factor updates, CP-ALS sweeps). If an *input* tensor's
//! pattern changes between iterations, call
//! [`CompiledProgram::clear_plan_cache`].

use std::sync::Arc;
use std::time::Instant;

use spdistal_ir::{parse_tin, tdn, Assignment, Format, ParallelUnit, Schedule, VarCtx};
use spdistal_runtime::pipeline::LaunchTiming;
use spdistal_runtime::{ExecMode, Machine, SplitPolicy, Trace};
use spdistal_sparse::SpTensor;

use crate::api::{schedule_nonzero, schedule_outer_dim};
use crate::codegen::{self, Plan};
use crate::dist_tensor::{Context, Error};
use crate::engine::{PlanCache, PlanKey};
use crate::kernels;
use crate::level_funcs::{equal_coord_bounds, partition_tensor, universe_partition};
use crate::plan::{self, ExecResult, OutputValue};
use crate::session::{FlushReport, Session};
use crate::streaming::{DirtyMap, IncrementalStats, RetainedOutput, FALLBACK_DIRTY_RATIO};

/// Static auto-scheduling threshold: if the driver's equal outer-dimension
/// blocks carry nnz imbalance above this, [`ScheduleSpec::Auto`] picks the
/// non-zero distribution before ever running.
pub const STATIC_IMBALANCE: f64 = 2.0;

/// Warm-up feedback threshold on the *compiled* outer-dimension plan's
/// modeled partition imbalance: above it, auto re-selects to non-zero.
pub const SWITCH_IMBALANCE: f64 = 1.5;

/// Warm-up feedback threshold on the executor's *measured* task skew
/// (critical color over balanced share); combined with observed steals it
/// re-selects to non-zero even when the modeled imbalance looked mild.
pub const SWITCH_TASK_SKEW: f64 = 1.75;

/// How one statement is mapped onto the machine.
///
/// ```
/// use spdistal::ScheduleSpec;
/// // The default is the auto-scheduler.
/// assert!(matches!(ScheduleSpec::default(), ScheduleSpec::Auto));
/// ```
#[derive(Clone, Debug, Default)]
pub enum ScheduleSpec {
    /// Let the program choose (and re-choose) between the outer-dimension
    /// and non-zero distributions from nnz statistics and executor
    /// feedback. The default.
    #[default]
    Auto,
    /// The row/slice-based distribution of Figure 1 (`pieces` defaults to
    /// the extent of machine dimension 0).
    OuterDim {
        pieces: Option<usize>,
        unit: ParallelUnit,
    },
    /// The non-zero distribution of Section II-D. `driver` defaults to the
    /// first sparse right-hand-side tensor, `depth` to 2 (matrix non-zeros
    /// / 3-tensor tubes), `pieces` to machine dimension 0's extent.
    Nonzero {
        driver: Option<String>,
        depth: Option<usize>,
        pieces: Option<usize>,
        unit: ParallelUnit,
    },
    /// A schedule built by hand with the scheduling-language commands.
    Explicit(Schedule),
}

impl ScheduleSpec {
    /// The outer-dimension distribution with all defaults.
    pub fn outer_dim() -> Self {
        ScheduleSpec::OuterDim {
            pieces: None,
            unit: ParallelUnit::CpuThread,
        }
    }

    /// The non-zero distribution with all defaults.
    pub fn nonzero() -> Self {
        ScheduleSpec::Nonzero {
            driver: None,
            depth: None,
            pieces: None,
            unit: ParallelUnit::CpuThread,
        }
    }
}

/// One auto-scheduler (re)selection, surfaced by
/// [`CompiledProgram::report`].
#[derive(Clone, Debug)]
pub struct AutoDecision {
    /// Statement index within the program.
    pub stmt: usize,
    /// Iteration the decision was taken at (0 = before the first run;
    /// later iterations are warm-up feedback re-selections).
    pub iteration: usize,
    /// The distribution picked: `"outer-dim"` or `"non-zero"`.
    pub choice: &'static str,
    /// Why, in human-readable terms (thresholds and measured values).
    pub reason: String,
}

impl std::fmt::Display for AutoDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stmt {} iter {}: {} ({})",
            self.stmt, self.iteration, self.choice, self.reason
        )
    }
}

/// Per-statement slice of a [`ProgramReport`].
#[derive(Clone, Debug)]
pub struct StmtReport {
    /// The statement, in TIN syntax.
    pub stmt: String,
    /// Which schedule family is currently selected.
    pub schedule_kind: &'static str,
    /// The concrete schedule, in scheduling-language syntax.
    pub schedule: String,
    /// Simulated seconds of the last execution.
    pub time: f64,
    /// Measured compute wall-clock seconds of the last execution.
    pub wall_time: f64,
    /// Measured task skew of the last execution's batch.
    pub task_skew: f64,
}

/// What a [`CompiledProgram`]'s runs did, cumulatively.
#[derive(Clone, Debug, Default)]
pub struct ProgramReport {
    /// Whole-program iterations executed so far.
    pub iterations: usize,
    /// Plans compiled (cache misses) so far.
    pub compiles: usize,
    /// Plan-cache hits so far.
    pub cache_hits: usize,
    /// Real wall-clock seconds summed over every flush.
    pub wall_seconds: f64,
    /// Pipelined batches over all iterations.
    pub batches: usize,
    /// Point tasks executed over all iterations.
    pub tasks: usize,
    /// Spans executed over all iterations.
    pub spans: usize,
    /// Work-stealing steals over all iterations.
    pub steals: usize,
    /// Worker threads used (max over flushes).
    pub threads: usize,
    /// Modeled sequential sum over all flushes (launch-at-a-time charge).
    pub model_seq_sum: f64,
    /// Modeled graph-ordered makespan summed over flushes.
    pub model_makespan: f64,
    /// Per-launch milestones of the most recent iteration.
    pub launches: Vec<LaunchTiming>,
    /// Per-statement state after the most recent iteration.
    pub stmts: Vec<StmtReport>,
    /// Every auto-scheduler decision taken so far, in order.
    pub decisions: Vec<AutoDecision>,
}

impl ProgramReport {
    /// The decisions affecting one statement, in order.
    pub fn decisions_for(&self, stmt: usize) -> impl Iterator<Item = &AutoDecision> {
        self.decisions.iter().filter(move |d| d.stmt == stmt)
    }
}

enum StmtSource {
    Text(String),
    Built(Box<dyn FnOnce(&mut VarCtx) -> Assignment>),
}

struct StmtDecl {
    source: StmtSource,
    spec: ScheduleSpec,
}

/// The typed program builder — see the [module docs](self) for the
/// Figure-1 walkthrough. Declarations are checked at [`Program::build`];
/// builder methods themselves never fail.
pub struct Program {
    machine: Machine,
    exec_mode: ExecMode,
    split: SplitPolicy,
    pipelined: bool,
    trace: Option<Trace>,
    cache: Option<Arc<PlanCache>>,
    tenant: Option<String>,
    tensors: Vec<(String, SpTensor, Format)>,
    dists: Vec<String>,
    stmts: Vec<StmtDecl>,
    errors: Vec<String>,
}

impl Program {
    /// Start a program on `machine` (Figure 1's `Machine M(Grid(pieces))`).
    pub fn on(machine: Machine) -> Self {
        Program {
            machine,
            exec_mode: ExecMode::Serial,
            split: SplitPolicy::Auto,
            pipelined: true,
            trace: None,
            cache: None,
            tenant: None,
            tensors: Vec::new(),
            dists: Vec::new(),
            stmts: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Share a [`PlanCache`] with other programs: every `(statement,
    /// schedule, formats)` key any sharer compiled is a hit for all of
    /// them. Defaults to a fresh private cache; an
    /// [`Engine`](crate::Engine) wires its shared cache through here.
    pub fn plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Label this program's cache traffic with a tenant name: lookups
    /// count under `tenant.<name>.plan_cache.{hit,miss}` on the trace, and
    /// plans it compiles are attributed to it for cross-tenant hit
    /// accounting (see [`PlanCache`]).
    pub fn tenant(mut self, name: &str) -> Self {
        self.tenant = Some(name.to_string());
        self
    }

    /// Attach a structured trace: every flush, launch, span, steal,
    /// plan-cache lookup, and auto-scheduler decision of the compiled
    /// program records into it (see [`spdistal_runtime::obs`]). Without
    /// this call the trace comes from the `SPD_TRACE` environment variable
    /// ([`Trace::from_env`]) and defaults to disabled — a disabled trace
    /// is a no-op handle with near-zero overhead.
    pub fn trace(mut self, trace: Trace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Declare a tensor with its format (levels + distribution) and data.
    pub fn tensor(mut self, name: &str, format: Format, data: SpTensor) -> Self {
        self.tensors.push((name.to_string(), data, format));
        self
    }

    /// Override a declared tensor's *distribution* with a TDN statement,
    /// e.g. `.dist("B xy (xy->f) -> ~f M")` — the tensor named in the
    /// statement keeps its level formats and gets the parsed distribution.
    pub fn dist(mut self, tdn_stmt: &str) -> Self {
        self.dists.push(tdn_stmt.to_string());
        self
    }

    /// Add a statement in TIN text, e.g. `"a(i) = B(i,j) * c(j)"`. Its
    /// schedule defaults to [`ScheduleSpec::Auto`]; follow with
    /// [`Program::schedule`] or [`Program::auto`] to change it.
    pub fn stmt(mut self, tin: &str) -> Self {
        self.stmts.push(StmtDecl {
            source: StmtSource::Text(tin.to_string()),
            spec: ScheduleSpec::default(),
        });
        self
    }

    /// Add a statement built programmatically against the program's
    /// variable context (the [`Expr`](spdistal_ir::Expr) builders):
    ///
    /// ```
    /// use spdistal::prelude::*;
    /// use spdistal::{access, assign};
    /// # use spdistal_sparse::{dense_vector, generate};
    /// # let b = generate::banded(32, 3, 1);
    /// let p = Program::on(Machine::grid1d(4, MachineProfile::lassen_cpu()))
    ///     # .tensor("a", Format::blocked_dense_vec(), dense_vector(vec![0.0; 32]))
    ///     # .tensor("B", Format::blocked_csr(), b)
    ///     # .tensor("c", Format::replicated_dense_vec(), dense_vector(vec![1.0; 32]))
    ///     // ... .tensor(...) declarations ...
    ///     .stmt_with(|vars| {
    ///         let [i, j] = vars.fresh_n(["i", "j"]);
    ///         assign("a", &[i], access("B", &[i, j]) * access("c", &[j]))
    ///     });
    /// # p.build().unwrap().run().unwrap();
    /// ```
    pub fn stmt_with(mut self, build: impl FnOnce(&mut VarCtx) -> Assignment + 'static) -> Self {
        self.stmts.push(StmtDecl {
            source: StmtSource::Built(Box::new(build)),
            spec: ScheduleSpec::default(),
        });
        self
    }

    /// Set the most recently added statement's schedule.
    pub fn schedule(mut self, spec: ScheduleSpec) -> Self {
        match self.stmts.last_mut() {
            Some(decl) => decl.spec = spec,
            None => self.errors.push("schedule() before any stmt()".to_string()),
        }
        self
    }

    /// Let the auto-scheduler pick the most recent statement's mapping
    /// (equivalent to `.schedule(ScheduleSpec::Auto)`; with no statements
    /// yet it is a no-op, since `Auto` is already the default).
    pub fn auto(self) -> Self {
        if self.stmts.is_empty() {
            return self;
        }
        self.schedule(ScheduleSpec::Auto)
    }

    /// Select how leaf kernels execute (default [`ExecMode::Serial`]).
    pub fn exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Select how splittable colors chunk into spans (default
    /// [`SplitPolicy::Auto`]).
    pub fn split_policy(mut self, policy: SplitPolicy) -> Self {
        self.split = policy;
        self
    }

    /// Flush after every statement instead of overlapping a whole
    /// iteration through one deferred flush (the pre-`Session` behavior;
    /// useful for baselines and A/B runs).
    pub fn launch_at_a_time(mut self) -> Self {
        self.pipelined = false;
        self
    }

    /// Check and compile the declarations: materialize every tensor's
    /// initial distribution, parse/build every statement, and return the
    /// executable [`CompiledProgram`]. Schedules are resolved lazily (the
    /// auto-scheduler needs the tensor table), plans on first run. A
    /// statement whose index variable takes different extents in different
    /// accesses fails here with [`Error::ShapeMismatch`], and one whose leaf
    /// kernel cannot read an input's storage (SpAdd3 on a non-CSR input)
    /// with [`Error::Unsupported`].
    pub fn build(self) -> Result<CompiledProgram, Error> {
        if let Some(msg) = self.errors.into_iter().next() {
            return Err(Error::Unsupported(msg));
        }
        let mut tensors = self.tensors;
        for tdn_stmt in &self.dists {
            let parsed = tdn::parse(tdn_stmt)?;
            let decl = tensors
                .iter_mut()
                .find(|(name, ..)| *name == parsed.tensor)
                .ok_or_else(|| Error::UnknownTensor(parsed.tensor.clone()))?;
            decl.2.dist = parsed.dist;
        }
        let trace = self.trace.unwrap_or_else(Trace::from_env);
        let mut ctx = Context::new(self.machine)
            .with_exec_mode(self.exec_mode)
            .with_split_policy(self.split)
            .with_trace(trace);
        for (name, data, format) in tensors {
            ctx.add_tensor(&name, data, format)?;
        }
        let mut stmts = Vec::with_capacity(self.stmts.len());
        for decl in self.stmts {
            let stmt = match decl.source {
                StmtSource::Text(src) => parse_tin(&src, ctx.vars_mut())?,
                StmtSource::Built(build) => build(ctx.vars_mut()),
            };
            codegen::check_extents(&ctx, &stmt)?;
            codegen::leaf_kernel(&ctx, &stmt)?;
            stmts.push(ProgramStmt {
                stmt,
                spec: decl.spec,
                chosen: None,
                tuned: false,
            });
        }
        let n = stmts.len();
        Ok(CompiledProgram {
            ctx,
            stmts,
            pipelined: self.pipelined,
            cache: self.cache.unwrap_or_else(PlanCache::shared),
            tenant: self.tenant,
            report: ProgramReport::default(),
            last_results: vec![None; n],
            retained: vec![None; n],
            last_incremental: vec![None; n],
        })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChosenKind {
    OuterDim,
    Nonzero,
    Explicit,
}

impl ChosenKind {
    fn label(self) -> &'static str {
        match self {
            ChosenKind::OuterDim => "outer-dim",
            ChosenKind::Nonzero => "non-zero",
            ChosenKind::Explicit => "explicit",
        }
    }
}

struct Chosen {
    kind: ChosenKind,
    schedule: Schedule,
}

struct ProgramStmt {
    stmt: Assignment,
    spec: ScheduleSpec,
    /// The currently selected concrete schedule. Built once per selection,
    /// so its `Display` form (hence the cache key) is stable across
    /// iterations.
    chosen: Option<Chosen>,
    /// Whether the warm-up feedback pass already ran for this statement
    /// (re-selection happens at most once).
    tuned: bool,
}

/// A built program: context + plan cache + drive loop. Created by
/// [`Program::build`]; see the [module docs](self) for the full tour.
pub struct CompiledProgram {
    ctx: Context,
    stmts: Vec<ProgramStmt>,
    pipelined: bool,
    cache: Arc<PlanCache>,
    tenant: Option<String>,
    report: ProgramReport,
    last_results: Vec<Option<ExecResult>>,
    /// Per-statement retained output of the most recent run, with the
    /// version snapshot proving what it was computed from — the merge
    /// base for [`CompiledProgram::run_incremental`].
    retained: Vec<Option<RetainedOutput>>,
    /// Per-statement telemetry of the most recent
    /// [`run_incremental`](CompiledProgram::run_incremental) pass.
    last_incremental: Vec<Option<IncrementalStats>>,
}

impl CompiledProgram {
    /// The underlying compilation context (low-level escape hatch).
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Mutable access to the context — for tensor data updates between
    /// iterations and other low-level needs. Plans already cached stay
    /// keyed on the old declarations; see the module docs' caching caveat.
    pub fn context_mut(&mut self) -> &mut Context {
        &mut self.ctx
    }

    /// Statements in this program.
    pub fn stmt_count(&self) -> usize {
        self.stmts.len()
    }

    /// Select how leaf kernels execute from the next run on.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.ctx.set_exec_mode(mode);
    }

    /// Select the span-splitting policy from the next run on.
    pub fn set_split_policy(&mut self, policy: SplitPolicy) {
        self.ctx.set_split_policy(policy);
    }

    /// Toggle whole-iteration overlap (see [`Program::launch_at_a_time`]).
    pub fn set_pipelined(&mut self, pipelined: bool) {
        self.pipelined = pipelined;
    }

    /// Re-register a tensor under a new format. Cached plans for
    /// statements touching it miss from now on (the format signature is
    /// part of the cache key) and recompile against the new declaration.
    /// Re-registration also drops tracked dirty state for `name` (in the
    /// context) and every retained incremental output of a statement that
    /// reads or writes it — a new level layout re-orders stored values, so
    /// neither is a valid merge base afterwards.
    pub fn set_tensor_format(&mut self, name: &str, format: Format) -> Result<(), Error> {
        self.ctx.set_tensor_format(name, format)?;
        for k in 0..self.stmts.len() {
            if self.stmts[k].stmt.tensor_names().iter().any(|n| n == name) {
                self.retained[k] = None;
            }
        }
        Ok(())
    }

    /// Mutable access to a tensor's values (e.g. the CP-ALS factor-damping
    /// step between sweeps).
    pub fn tensor_data_mut(&mut self, name: &str) -> Result<&mut SpTensor, Error> {
        self.ctx.tensor_data_mut(name)
    }

    /// Apply a batch of coordinate deltas to a registered tensor and track
    /// the touched rows for the next
    /// [`run_incremental`](CompiledProgram::run_incremental) — see
    /// [`Context::update_batch`].
    pub fn update_batch(
        &mut self,
        name: &str,
        deltas: &[crate::streaming::CoordDelta],
    ) -> Result<crate::streaming::UpdateReport, Error> {
        self.ctx.update_batch(name, deltas)
    }

    /// The last run's result for statement `k` (None before the first
    /// run).
    pub fn result(&self, k: usize) -> Option<&ExecResult> {
        self.last_results.get(k)?.as_ref()
    }

    /// The last run's output value for statement `k`.
    pub fn value(&self, k: usize) -> Option<&OutputValue> {
        self.result(k).map(|r| &r.output)
    }

    /// What every run so far did (cache traffic, executor counters,
    /// modeled times, auto-scheduler decisions).
    pub fn report(&self) -> &ProgramReport {
        &self.report
    }

    /// The program's structured trace handle (disabled unless attached via
    /// [`Program::trace`] or the `SPD_TRACE` environment variable).
    pub fn trace(&self) -> &Trace {
        self.ctx.trace()
    }

    /// Write the recorded trace as Chrome trace-event JSON (loadable in
    /// Perfetto / `chrome://tracing`). A no-op `Ok(())` when tracing is
    /// disabled.
    pub fn write_chrome_trace(&self, path: &str) -> std::io::Result<()> {
        self.ctx.trace().write_chrome_trace(path)
    }

    /// One-line JSON run report: event counts, counters, and histogram
    /// quantiles (p50/p95/p99) — grep-friendly for benches and CI.
    pub fn run_report_json(&self, name: &str) -> String {
        self.ctx.trace().run_report_json(name)
    }

    /// Record an auto-scheduler decision in the report *and* on the trace.
    fn push_decision(&mut self, d: AutoDecision) {
        self.ctx
            .trace()
            .auto_decision(d.stmt as u32, d.iteration as u32, d.choice, &d.reason);
        self.report.decisions.push(d);
    }

    /// Drop every cached plan (they recompile on the next run). Needed
    /// only when an *input* tensor's sparsity pattern changed under a
    /// cached plan — see the module docs' caching caveat. On a cache
    /// shared via [`Program::plan_cache`] / [`Engine`](crate::Engine)
    /// this affects every sharer.
    pub fn clear_plan_cache(&mut self) {
        self.cache.clear();
    }

    /// The plan cache this program admits lookups through — private by
    /// default, shared when built via [`Program::plan_cache`] or an
    /// [`Engine`](crate::Engine).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The tenant label attributed to this program's cache traffic, if
    /// any (see [`Program::tenant`]).
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// Execute the whole program once. Statements flow through one
    /// deferred [`Session`] flush (unless built
    /// [`launch_at_a_time`](Program::launch_at_a_time)), so independent
    /// statements overlap and RAW chains cut batches exactly as
    /// [`Session`] documents — outputs are bit-identical to launch-at-a-
    /// time serial execution.
    pub fn run(&mut self) -> Result<&ProgramReport, Error> {
        self.run_iters(1)
    }

    /// Execute the whole program `iters` times. Every (statement,
    /// schedule, formats) triple compiles **exactly once** across all
    /// iterations; the auto-scheduler's warm-up feedback runs after the
    /// first iteration and may re-select schedules for the rest.
    pub fn run_iters(&mut self, iters: usize) -> Result<&ProgramReport, Error> {
        self.run_iters_with(iters, |_, _| Ok(()))
    }

    /// [`run_iters`](CompiledProgram::run_iters) with a between-iteration
    /// hook: `hook(ctx, iter)` runs after iteration `iter`'s flush (all
    /// write-backs landed) and before the next iteration — the place for
    /// CP-ALS-style factor updates that feed one sweep into the next:
    ///
    /// ```
    /// # use spdistal::prelude::*;
    /// # use spdistal_sparse::{dense_vector, generate};
    /// # let b = generate::banded(32, 3, 1);
    /// # let mut p = Program::on(Machine::grid1d(4, MachineProfile::lassen_cpu()))
    /// #     .tensor("a", Format::blocked_dense_vec(), dense_vector(vec![0.0; 32]))
    /// #     .tensor("B", Format::blocked_csr(), b)
    /// #     .tensor("c", Format::replicated_dense_vec(), dense_vector(vec![1.0; 32]))
    /// #     .stmt("a(i) = B(i,j) * c(j)")
    /// #     .build()
    /// #     .unwrap();
    /// p.run_iters_with(3, |ctx, _iter| {
    ///     // Feed this iteration's output back into the next one's input.
    ///     let a = ctx.tensor("a")?.data.vals().to_vec();
    ///     ctx.tensor_data_mut("c")?.vals_mut().copy_from_slice(&a);
    ///     Ok(())
    /// })
    /// .unwrap();
    /// assert_eq!(p.report().compiles, 1); // still one compile
    /// ```
    pub fn run_iters_with(
        &mut self,
        iters: usize,
        mut hook: impl FnMut(&mut Context, usize) -> Result<(), Error>,
    ) -> Result<&ProgramReport, Error> {
        for _ in 0..iters {
            let iter = self.report.iterations;
            let t0 = Instant::now();
            // Accumulated streamed deltas can invalidate an earlier
            // outer-dim pick even on the full-run path.
            self.drift_reselect()?;
            self.ensure_schedules(iter)?;
            self.execute_once()?;
            self.report.iterations += 1;
            let trace = self.ctx.trace();
            trace.observe_ns("iter_ns", t0.elapsed().as_nanos() as u64);
            trace.add("iterations", 1);
            hook(&mut self.ctx, iter)?;
            if iter == 0 {
                self.warmup_feedback()?;
            }
        }
        Ok(&self.report)
    }

    /// A human-readable dump of the program: statements, current
    /// schedules, cache keys, and the decision log.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "program: {} statement(s) on {:?} procs; plan cache: {} entries, \
             {} compiles, {} hits",
            self.stmts.len(),
            self.ctx.machine().dims(),
            self.cache.len(),
            self.report.compiles,
            self.report.cache_hits,
        );
        for (k, ps) in self.stmts.iter().enumerate() {
            let _ = writeln!(out, "  [{k}] {}", ps.stmt);
            match &ps.chosen {
                Some(c) => {
                    let _ = writeln!(out, "      schedule ({}): {}", c.kind.label(), c.schedule);
                    let _ = writeln!(out, "      cache key: {}", self.cache_key(k));
                }
                None => {
                    let _ = writeln!(out, "      schedule: not yet selected");
                }
            }
            for name in ps.stmt.tensor_names() {
                if let Ok(t) = self.ctx.tensor(&name) {
                    let _ = writeln!(out, "      format {}: {}", name, t.format.signature());
                }
            }
        }
        if !self.report.decisions.is_empty() {
            let _ = writeln!(out, "  auto-scheduler decisions:");
            for d in &self.report.decisions {
                let _ = writeln!(out, "    {d}");
            }
        }
        out
    }

    // ---- schedule selection ---------------------------------------------

    /// The first sparse tensor on the statement's right-hand side — the
    /// operand that drives iteration and decides skew.
    fn sparse_driver(&self, stmt: &Assignment) -> Option<String> {
        stmt.rhs
            .accesses()
            .into_iter()
            .find(|a| {
                self.ctx
                    .tensor(&a.tensor)
                    .map(|t| kernels::is_sparse(&t.data))
                    .unwrap_or(false)
            })
            .map(|a| a.tensor.clone())
    }

    /// nnz imbalance of equal outer-dimension blocks of `name` — the
    /// static statistic behind the auto-scheduler's first pick.
    fn outer_block_imbalance(&self, name: &str, pieces: usize) -> Result<f64, Error> {
        let t = &self.ctx.tensor(name)?.data;
        let bounds = equal_coord_bounds(t.dims()[0], pieces);
        let init = universe_partition(t, 0, &bounds);
        Ok(partition_tensor(t, 0, init).vals.imbalance())
    }

    fn default_pieces(&self) -> usize {
        self.ctx.machine().dim(0)
    }

    fn build_outer_dim(
        ctx: &mut Context,
        stmt: &Assignment,
        pieces: usize,
        unit: ParallelUnit,
    ) -> Chosen {
        Chosen {
            kind: ChosenKind::OuterDim,
            schedule: schedule_outer_dim(ctx, stmt, pieces, unit),
        }
    }

    fn build_nonzero(
        ctx: &mut Context,
        stmt: &Assignment,
        driver: &str,
        depth: usize,
        pieces: usize,
        unit: ParallelUnit,
    ) -> Result<Chosen, Error> {
        Ok(Chosen {
            kind: ChosenKind::Nonzero,
            schedule: schedule_nonzero(ctx, stmt, driver, depth, pieces, unit)?,
        })
    }

    /// Depth of the non-zero split for `driver`: 2 covers matrix non-zeros
    /// and 3-tensor tubes (the evaluation's static load-balancing splits).
    fn nonzero_depth(&self, driver: &str) -> usize {
        self.ctx
            .tensor(driver)
            .map(|t| t.data.order().min(2))
            .unwrap_or(2)
    }

    /// Build the concrete schedule for every statement that does not have
    /// one yet (first run, or after a feedback re-selection cleared it).
    fn ensure_schedules(&mut self, iteration: usize) -> Result<(), Error> {
        let pieces_default = self.default_pieces();
        for k in 0..self.stmts.len() {
            if self.stmts[k].chosen.is_some() {
                continue;
            }
            let stmt = self.stmts[k].stmt.clone();
            let chosen = match self.stmts[k].spec.clone() {
                ScheduleSpec::Explicit(schedule) => Chosen {
                    kind: ChosenKind::Explicit,
                    schedule,
                },
                ScheduleSpec::OuterDim { pieces, unit } => Self::build_outer_dim(
                    &mut self.ctx,
                    &stmt,
                    pieces.unwrap_or(pieces_default),
                    unit,
                ),
                ScheduleSpec::Nonzero {
                    driver,
                    depth,
                    pieces,
                    unit,
                } => {
                    let driver = match driver.or_else(|| self.sparse_driver(&stmt)) {
                        Some(d) => d,
                        None => {
                            return Err(Error::Unsupported(format!(
                                "no sparse driver for non-zero schedule of '{stmt}'"
                            )))
                        }
                    };
                    let depth = depth.unwrap_or_else(|| self.nonzero_depth(&driver));
                    Self::build_nonzero(
                        &mut self.ctx,
                        &stmt,
                        &driver,
                        depth,
                        pieces.unwrap_or(pieces_default),
                        unit,
                    )?
                }
                ScheduleSpec::Auto => self.auto_initial(k, &stmt, pieces_default, iteration)?,
            };
            self.stmts[k].chosen = Some(chosen);
        }
        Ok(())
    }

    /// The auto-scheduler's static pick for statement `k`: non-zero when
    /// the driver's block statistics already show severe skew, Figure 1's
    /// outer-dimension distribution otherwise.
    fn auto_initial(
        &mut self,
        k: usize,
        stmt: &Assignment,
        pieces: usize,
        iteration: usize,
    ) -> Result<Chosen, Error> {
        let unit = ParallelUnit::CpuThread;
        let Some(driver) = self.sparse_driver(stmt) else {
            self.push_decision(AutoDecision {
                stmt: k,
                iteration,
                choice: "outer-dim",
                reason: "no sparse driver on the right-hand side".to_string(),
            });
            return Ok(Self::build_outer_dim(&mut self.ctx, stmt, pieces, unit));
        };
        let imbalance = self.outer_block_imbalance(&driver, pieces)?;
        if imbalance > STATIC_IMBALANCE {
            let depth = self.nonzero_depth(&driver);
            match Self::build_nonzero(&mut self.ctx, stmt, &driver, depth, pieces, unit) {
                Ok(chosen) => {
                    self.push_decision(AutoDecision {
                        stmt: k,
                        iteration,
                        choice: "non-zero",
                        reason: format!(
                            "{driver} row-block nnz imbalance {imbalance:.2}x > {STATIC_IMBALANCE:.2}x"
                        ),
                    });
                    return Ok(chosen);
                }
                Err(e) => {
                    self.push_decision(AutoDecision {
                        stmt: k,
                        iteration,
                        choice: "outer-dim",
                        reason: format!("non-zero schedule unavailable ({e})"),
                    });
                    return Ok(Self::build_outer_dim(&mut self.ctx, stmt, pieces, unit));
                }
            }
        }
        self.push_decision(AutoDecision {
            stmt: k,
            iteration,
            choice: "outer-dim",
            reason: format!(
                "{driver} row-block nnz imbalance {imbalance:.2}x <= {STATIC_IMBALANCE:.2}x"
            ),
        });
        Ok(Self::build_outer_dim(&mut self.ctx, stmt, pieces, unit))
    }

    /// The executor-feedback half of the auto-tuning loop: after the
    /// warm-up iteration, re-examine every `Auto` statement still on the
    /// outer-dimension schedule and switch it to the non-zero distribution
    /// if the compiled plan's modeled imbalance or the executor's measured
    /// skew/steal counters say one color gated the launch.
    fn warmup_feedback(&mut self) -> Result<(), Error> {
        let pieces = self.default_pieces();
        for k in 0..self.stmts.len() {
            let ps = &self.stmts[k];
            if ps.tuned
                || !matches!(ps.spec, ScheduleSpec::Auto)
                || !matches!(
                    ps.chosen.as_ref().map(|c| c.kind),
                    Some(ChosenKind::OuterDim)
                )
            {
                continue;
            }
            let plan_imbalance = self
                .cache
                .peek(&self.cache_key(k))
                .map(|p| p.inputs[0].part.vals.imbalance())
                .unwrap_or(1.0);
            let (task_skew, steals) = self.last_results[k]
                .as_ref()
                .map(|r| (r.sched.task_skew(), r.sched.steals))
                .unwrap_or((1.0, 0));
            let reason = if plan_imbalance > SWITCH_IMBALANCE {
                format!(
                    "warm-up: modeled partition imbalance {plan_imbalance:.2}x > \
                     {SWITCH_IMBALANCE:.2}x"
                )
            } else if task_skew > SWITCH_TASK_SKEW && steals > 0 {
                format!(
                    "warm-up: measured task skew {task_skew:.2}x > {SWITCH_TASK_SKEW:.2}x \
                     with {steals} steals"
                )
            } else {
                self.stmts[k].tuned = true;
                continue;
            };
            let stmt = self.stmts[k].stmt.clone();
            let Some(driver) = self.sparse_driver(&stmt) else {
                self.stmts[k].tuned = true;
                continue;
            };
            let depth = self.nonzero_depth(&driver);
            let unit = ParallelUnit::CpuThread;
            match Self::build_nonzero(&mut self.ctx, &stmt, &driver, depth, pieces, unit) {
                Ok(chosen) => {
                    self.push_decision(AutoDecision {
                        stmt: k,
                        iteration: self.report.iterations,
                        choice: "non-zero",
                        reason,
                    });
                    self.stmts[k].chosen = Some(chosen);
                }
                Err(e) => {
                    self.push_decision(AutoDecision {
                        stmt: k,
                        iteration: self.report.iterations,
                        choice: "outer-dim",
                        reason: format!("{reason}; non-zero schedule unavailable ({e})"),
                    });
                }
            }
            self.stmts[k].tuned = true;
        }
        Ok(())
    }

    // ---- plan cache + execution -----------------------------------------

    /// The cache key of statement `k`'s current selection: statement text,
    /// schedule text, and the format signature of every referenced tensor.
    fn cache_key(&self, k: usize) -> PlanKey {
        let ps = &self.stmts[k];
        let schedule = ps
            .chosen
            .as_ref()
            .map(|c| c.schedule.to_string())
            .unwrap_or_else(|| "<unselected>".to_string());
        let formats: Vec<String> = ps
            .stmt
            .tensor_names()
            .iter()
            .map(|name| match self.ctx.tensor(name) {
                Ok(t) => format!("{name}={}", t.format.signature()),
                Err(_) => format!("{name}=<unknown>"),
            })
            .collect();
        PlanKey::new(ps.stmt.to_string(), schedule, formats.join("; "))
    }

    /// [`PlanCache::lookup`] with this program's trace and tenant label,
    /// folding a hit into the program report.
    fn lookup_plan(&mut self, key: &PlanKey) -> Option<Arc<Plan>> {
        let plan = self
            .cache
            .lookup(key, self.ctx.trace(), self.tenant.as_deref());
        if plan.is_some() {
            self.report.cache_hits += 1;
        }
        plan
    }

    /// Compile statement `k`'s plan unless its key is already cached.
    /// An `Auto` non-zero selection that fails to compile falls back to
    /// the outer-dimension schedule (recorded as a decision).
    fn ensure_plan(&mut self, k: usize) -> Result<Arc<Plan>, Error> {
        let mut key = self.cache_key(k);
        if let Some(plan) = self.lookup_plan(&key) {
            return Ok(plan);
        }
        let chosen = self.stmts[k]
            .chosen
            .as_ref()
            .expect("schedule selected before compile");
        let compiled = self.ctx.compile(&self.stmts[k].stmt, &chosen.schedule);
        let plan = match compiled {
            Ok(plan) => plan,
            Err(e)
                if chosen.kind == ChosenKind::Nonzero
                    && matches!(self.stmts[k].spec, ScheduleSpec::Auto) =>
            {
                // Fall back: the auto-picked non-zero mapping does not
                // lower for this statement; outer-dim always does.
                let stmt = self.stmts[k].stmt.clone();
                let pieces = self.default_pieces();
                let chosen =
                    Self::build_outer_dim(&mut self.ctx, &stmt, pieces, ParallelUnit::CpuThread);
                self.push_decision(AutoDecision {
                    stmt: k,
                    iteration: self.report.iterations,
                    choice: "outer-dim",
                    reason: format!("non-zero plan failed to compile ({e})"),
                });
                self.stmts[k].chosen = Some(chosen);
                self.stmts[k].tuned = true;
                key = self.cache_key(k);
                if let Some(plan) = self.lookup_plan(&key) {
                    return Ok(plan);
                }
                let chosen = self.stmts[k].chosen.as_ref().unwrap();
                self.ctx.compile(&self.stmts[k].stmt, &chosen.schedule)?
            }
            Err(e) => return Err(e),
        };
        self.report.compiles += 1;
        Ok(self.cache.insert(key, plan, self.tenant.as_deref()))
    }

    /// One whole-program pass through a deferred session.
    fn execute_once(&mut self) -> Result<(), Error> {
        for k in 0..self.stmts.len() {
            self.invalidate_structural(k);
        }
        let drivers: Vec<Option<String>> = (0..self.stmts.len())
            .map(|k| self.sparse_driver(&self.stmts[k].stmt))
            .collect();
        let snapshots: Vec<Vec<(String, u64)>> = (0..self.stmts.len())
            .map(|k| self.input_version_snapshot(k, drivers[k].as_deref()))
            .collect();
        let plans: Vec<Arc<Plan>> = (0..self.stmts.len())
            .map(|k| self.ensure_plan(k))
            .collect::<Result<_, _>>()?;

        let mut flushes: Vec<FlushReport> = Vec::new();
        let mut results: Vec<Option<ExecResult>> = vec![None; plans.len()];
        {
            let pipelined = self.pipelined;
            let mut session = Session::new(&mut self.ctx);
            let mut futures = Vec::with_capacity(plans.len());
            for plan in &plans {
                futures.push(session.submit(plan));
                if !pipelined {
                    flushes.push(session.flush()?);
                }
            }
            if pipelined {
                flushes.push(session.flush()?);
            }
            for (k, future) in futures.iter().enumerate() {
                results[k] = Some(session.wait(future)?.clone());
            }
        }
        self.last_results = results;
        for k in 0..self.stmts.len() {
            self.retain_output(k, snapshots[k].clone(), drivers[k].as_deref());
        }
        // A full pass brought every consumer up to date with every tracked
        // delta — dirty state is consumed.
        self.ctx.clear_all_dirty();

        // Fold the iteration into the cumulative report.
        let r = &mut self.report;
        r.launches.clear();
        for f in &flushes {
            r.wall_seconds += f.wall_seconds;
            r.batches += f.batches;
            r.tasks += f.tasks;
            r.spans += f.spans;
            r.steals += f.steals;
            r.threads = r.threads.max(f.threads);
            r.model_seq_sum += f.model_seq_sum();
            r.model_makespan += f.model_makespan();
            r.launches.extend(f.launches.iter().cloned());
        }
        self.update_stmt_reports();
        Ok(())
    }

    /// Refresh [`ProgramReport::stmts`] from the current selections and
    /// `last_results`.
    fn update_stmt_reports(&mut self) {
        self.report.stmts = self
            .stmts
            .iter()
            .zip(&self.last_results)
            .map(|(ps, result)| {
                let chosen = ps.chosen.as_ref();
                StmtReport {
                    stmt: ps.stmt.to_string(),
                    schedule_kind: chosen.map(|c| c.kind.label()).unwrap_or("unselected"),
                    schedule: chosen
                        .map(|c| c.schedule.to_string())
                        .unwrap_or_else(|| "<unselected>".to_string()),
                    time: result.as_ref().map(|r| r.time).unwrap_or(0.0),
                    wall_time: result.as_ref().map(|r| r.wall_time).unwrap_or(0.0),
                    task_skew: result.as_ref().map(|r| r.sched.task_skew()).unwrap_or(0.0),
                }
            })
            .collect();
    }

    // ---- incremental recompute ------------------------------------------

    /// Telemetry of statement `k`'s most recent
    /// [`run_incremental`](CompiledProgram::run_incremental) pass (`None`
    /// before the first incremental run).
    pub fn last_incremental(&self, k: usize) -> Option<&IncrementalStats> {
        self.last_incremental.get(k)?.as_ref()
    }

    /// Versions of every tensor statement `k` *reads* other than the
    /// sparse driver — the snapshot a retained output carries so the next
    /// incremental pass can prove those operands unchanged. The output
    /// tensor is excluded (its version bumps on every write-back).
    fn input_version_snapshot(&self, k: usize, driver: Option<&str>) -> Vec<(String, u64)> {
        let stmt = &self.stmts[k].stmt;
        let out = stmt.lhs.tensor.clone();
        let mut seen: Vec<(String, u64)> = Vec::new();
        for a in stmt.rhs.accesses() {
            if a.tensor == out
                || Some(a.tensor.as_str()) == driver
                || seen.iter().any(|(n, _)| *n == a.tensor)
            {
                continue;
            }
            let version = self.ctx.tensor_version(&a.tensor);
            seen.push((a.tensor.clone(), version));
        }
        seen
    }

    /// Capture statement `k`'s freshly computed output as the next merge
    /// base (no-op before its first result).
    fn retain_output(
        &mut self,
        k: usize,
        input_versions: Vec<(String, u64)>,
        driver: Option<&str>,
    ) {
        let Some(result) = &self.last_results[k] else {
            return;
        };
        let vals = match &result.output {
            OutputValue::Dense(v) => v.clone(),
            OutputValue::Tensor(t) => t.vals().to_vec(),
        };
        self.retained[k] = Some(RetainedOutput {
            vals,
            driver_version: driver.map(|d| self.ctx.tensor_version(d)).unwrap_or(0),
            input_versions,
            plan_key: self.cache_key(k).to_string(),
        });
    }

    /// If any tensor statement `k` touches carries *structural* tracked
    /// deltas (inserts/deletes), drop the statement's cached plan — it
    /// embeds partitions derived from the old sparsity pattern — and its
    /// retained output.
    fn invalidate_structural(&mut self, k: usize) {
        let structural = self.stmts[k]
            .stmt
            .tensor_names()
            .iter()
            .any(|n| self.ctx.dirty_state(n).is_some_and(|d| d.structural));
        if structural {
            self.cache.remove(&self.cache_key(k));
            self.retained[k] = None;
        }
    }

    /// The drift half of the auto-tuning loop: accumulated streamed deltas
    /// can skew a driver that was balanced when the outer-dimension
    /// schedule was picked. Re-examine every `Auto` statement still on
    /// outer-dim whose driver carries tracked deltas, and re-select the
    /// non-zero distribution when the *current* row-block nnz imbalance
    /// crosses [`SWITCH_IMBALANCE`].
    fn drift_reselect(&mut self) -> Result<(), Error> {
        let pieces = self.default_pieces();
        for k in 0..self.stmts.len() {
            let ps = &self.stmts[k];
            if !matches!(ps.spec, ScheduleSpec::Auto)
                || !matches!(
                    ps.chosen.as_ref().map(|c| c.kind),
                    Some(ChosenKind::OuterDim)
                )
            {
                continue;
            }
            let stmt = ps.stmt.clone();
            let Some(driver) = self.sparse_driver(&stmt) else {
                continue;
            };
            let deltas = match self.ctx.dirty_state(&driver) {
                Some(d) if d.deltas_applied > 0 => d.deltas_applied,
                _ => continue,
            };
            let imbalance = self.outer_block_imbalance(&driver, pieces)?;
            if imbalance <= SWITCH_IMBALANCE {
                continue;
            }
            let reason = format!(
                "drift: {driver} row-block nnz imbalance {imbalance:.2}x > \
                 {SWITCH_IMBALANCE:.2}x after {deltas} streamed delta(s)"
            );
            let depth = self.nonzero_depth(&driver);
            let unit = ParallelUnit::CpuThread;
            match Self::build_nonzero(&mut self.ctx, &stmt, &driver, depth, pieces, unit) {
                Ok(chosen) => {
                    self.push_decision(AutoDecision {
                        stmt: k,
                        iteration: self.report.iterations,
                        choice: "non-zero",
                        reason,
                    });
                    self.stmts[k].chosen = Some(chosen);
                    // New schedule, new plan key: the retained output is
                    // still numerically valid but keyed to the old plan.
                    self.retained[k] = None;
                }
                Err(e) => {
                    self.push_decision(AutoDecision {
                        stmt: k,
                        iteration: self.report.iterations,
                        choice: "outer-dim",
                        reason: format!("{reason}; non-zero schedule unavailable ({e})"),
                    });
                }
            }
            self.stmts[k].tuned = true;
        }
        Ok(())
    }

    /// Execute the whole program once, re-using each statement's retained
    /// output where the tracked delta state proves it sound: only the
    /// colors whose driver rows intersect the dirty set re-execute, the
    /// rest are served from the retained buffer. Statements that cannot
    /// take the fast path (no retained run yet, structural deltas, an
    /// untracked operand change, a dirty ratio above
    /// [`FALLBACK_DIRTY_RATIO`], a schedule/format change, or a plan with
    /// no in-place output) fall back to a full recompute — either way the
    /// result is bit-identical to [`run`](CompiledProgram::run) on the
    /// same data.
    ///
    /// Statements run launch-at-a-time (no cross-statement overlap);
    /// every pass is trace-instrumented with
    /// `incremental.{runs,rows_dirty,spans_reexecuted,spans_skipped,fallbacks}`
    /// counters and an `Event::IncrementalRun` per statement, and
    /// [`last_incremental`](CompiledProgram::last_incremental) reports
    /// per-statement what happened and why.
    pub fn run_incremental(&mut self) -> Result<&ProgramReport, Error> {
        let iter = self.report.iterations;
        let t0 = Instant::now();
        self.drift_reselect()?;
        self.ensure_schedules(iter)?;
        let n = self.stmts.len();
        for k in 0..n {
            self.invalidate_structural(k);
        }
        let drivers: Vec<Option<String>> = (0..n)
            .map(|k| self.sparse_driver(&self.stmts[k].stmt))
            .collect();
        let snapshots: Vec<Vec<(String, u64)>> = (0..n)
            .map(|k| self.input_version_snapshot(k, drivers[k].as_deref()))
            .collect();

        let mut stats_out: Vec<Option<IncrementalStats>> = vec![None; n];
        for k in 0..n {
            let plan = self.ensure_plan(k)?;
            let key_str = self.cache_key(k).to_string();
            let driver = drivers[k].clone();
            let rows_dirty = driver
                .as_deref()
                .and_then(|d| self.ctx.dirty_state(d))
                .map(|td| td.map.dirty_rows())
                .unwrap_or(0);

            // Eligibility: every observable operand must be provably
            // unchanged except value-only deltas on the tracked driver.
            let mut fallback_reason: Option<String> = None;
            let mut dirty = DirtyMap::default();
            let stmt = &self.stmts[k].stmt;
            if stmt
                .rhs
                .accesses()
                .iter()
                .any(|a| a.tensor == stmt.lhs.tensor)
            {
                fallback_reason =
                    Some("output tensor also appears on the right-hand side".to_string());
            }
            if fallback_reason.is_none() {
                match self.retained[k].as_ref() {
                    None => {
                        fallback_reason =
                            Some("no retained output from a previous run".to_string());
                    }
                    Some(ret) if ret.plan_key != key_str => {
                        fallback_reason =
                            Some("schedule or format changed since the retained run".to_string());
                    }
                    Some(ret) => {
                        if let Some((name, v)) = ret
                            .input_versions
                            .iter()
                            .find(|(name, v)| self.ctx.tensor_version(name) != *v)
                        {
                            fallback_reason = Some(format!(
                                "input '{name}' changed (version {} != retained {v})",
                                self.ctx.tensor_version(name)
                            ));
                        } else if let Some(d) = driver.as_deref() {
                            match self.ctx.dirty_state(d) {
                                None if self.ctx.tensor_version(d) != ret.driver_version => {
                                    fallback_reason =
                                        Some(format!("driver '{d}' mutated outside update_batch"));
                                }
                                // Clean driver: empty dirty set, every
                                // color skips.
                                None => {}
                                Some(td) if td.structural => {
                                    fallback_reason =
                                        Some(format!("structural deltas on driver '{d}'"));
                                }
                                Some(td)
                                    if td.from_version != ret.driver_version
                                        || self.ctx.tensor_version(d) != td.tracked_version =>
                                {
                                    fallback_reason = Some(format!(
                                        "driver '{d}' version lineage broken by an untracked \
                                         mutation"
                                    ));
                                }
                                Some(td) if td.map.ratio() > FALLBACK_DIRTY_RATIO => {
                                    fallback_reason = Some(format!(
                                        "dirty ratio {:.2} > {FALLBACK_DIRTY_RATIO:.2}",
                                        td.map.ratio()
                                    ));
                                }
                                Some(td) => dirty = td.map.clone(),
                            }
                        }
                    }
                }
            }

            // Eligible statements seed the executor with the retained
            // buffer, which moves in and becomes the shared output
            // allocation; a fresh retained output is captured from the
            // result below either way.
            let seed = fallback_reason
                .is_none()
                .then(|| (self.retained[k].take().unwrap().vals, &dirty));
            let batch = vec![plan::BatchPlan { plan: &plan, seed }];
            let (mut runs, _) = plan::execute_batch(&mut self.ctx, batch, None)?;
            let run = runs.pop().expect("one result per plan");
            if fallback_reason.is_none() && !run.seeded {
                fallback_reason = Some("plan has no in-place output to merge into".to_string());
            }
            let stats = IncrementalStats {
                stmt: k,
                rows_dirty,
                spans_reexecuted: run.spans_reexecuted,
                spans_skipped: run.spans_skipped,
                fallback: fallback_reason.is_some(),
                reason: fallback_reason.unwrap_or_else(|| {
                    format!(
                        "incremental: {} span(s) re-executed, {} skipped",
                        run.spans_reexecuted, run.spans_skipped
                    )
                }),
            };
            self.last_results[k] = Some(run.result);
            self.ctx.trace().incremental_run(
                k as u32,
                stats.rows_dirty as u64,
                stats.spans_reexecuted as u64,
                stats.spans_skipped as u64,
                stats.fallback,
            );
            stats_out[k] = Some(stats);
            self.retain_output(k, snapshots[k].clone(), drivers[k].as_deref());
        }
        self.last_incremental = stats_out;
        self.ctx.clear_all_dirty();

        // Fold the pass into the cumulative report (launch-at-a-time:
        // each statement's own scheduler report counts once).
        self.report.iterations += 1;
        self.report.launches.clear();
        for res in self.last_results.iter().flatten() {
            self.report.wall_seconds += res.sched.wall_seconds;
            self.report.batches += 1;
            self.report.tasks += res.sched.tasks;
            self.report.spans += res.sched.spans;
            self.report.steals += res.sched.steals;
            self.report.threads = self.report.threads.max(res.sched.threads);
            self.report.model_seq_sum += res.time;
            self.report.model_makespan += res.time;
        }
        let launches: Vec<LaunchTiming> = self
            .last_results
            .iter()
            .flatten()
            .flat_map(|r| r.launches.iter().cloned())
            .collect();
        self.report.launches = launches;
        self.update_stmt_reports();
        let trace = self.ctx.trace();
        trace.observe_ns("iter_ns", t0.elapsed().as_nanos() as u64);
        trace.add("iterations", 1);
        Ok(&self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdistal_ir::Format;
    use spdistal_runtime::MachineProfile;
    use spdistal_sparse::{dense_vector, generate, reference};

    const PIECES: usize = 4;

    fn machine() -> Machine {
        Machine::grid1d(PIECES, MachineProfile::lassen_cpu())
    }

    fn spmv_program(b: SpTensor, spec: ScheduleSpec) -> Program {
        let n = b.dims()[0];
        let c = generate::dense_vec(b.dims()[1], 5);
        Program::on(machine())
            .tensor("a", Format::blocked_dense_vec(), dense_vector(vec![0.0; n]))
            .tensor("B", Format::blocked_csr(), b)
            .tensor("c", Format::replicated_dense_vec(), dense_vector(c))
            .stmt("a(i) = B(i,j) * c(j)")
            .schedule(spec)
    }

    #[test]
    fn figure1_via_program_matches_reference() {
        let b = generate::banded(96, 5, 3);
        let c = generate::dense_vec(96, 5);
        let expect = reference::spmv(&b, &c);
        let mut p = spmv_program(b, ScheduleSpec::outer_dim()).build().unwrap();
        p.run().unwrap();
        let got = p.value(0).unwrap().as_tensor().unwrap();
        assert!(reference::approx_eq(got.vals(), &expect, 1e-12));
        assert_eq!(p.report().compiles, 1);
        assert_eq!(p.report().iterations, 1);
    }

    #[test]
    fn run_iters_compiles_each_pair_exactly_once() {
        let b = generate::banded(96, 5, 3);
        let mut p = spmv_program(b, ScheduleSpec::outer_dim()).build().unwrap();
        p.run_iters(5).unwrap();
        assert_eq!(p.report().iterations, 5);
        assert_eq!(p.report().compiles, 1, "one compile across 5 iterations");
        assert_eq!(p.report().cache_hits, 4);
    }

    #[test]
    fn format_change_misses_the_cache() {
        let b = generate::rmat_default(7, 900, 2);
        let mut p = spmv_program(b, ScheduleSpec::outer_dim()).build().unwrap();
        p.run().unwrap();
        assert_eq!(p.report().compiles, 1);
        // Same statement, same schedule — different format signature.
        p.set_tensor_format("B", Format::nonzero_csr()).unwrap();
        p.run().unwrap();
        assert_eq!(
            p.report().compiles,
            2,
            "a re-declared format must miss the plan cache"
        );
        // And back: the original key (same data, same format) is still
        // cached — plan partitions depend only on statement, schedule, and
        // format, so reuse is sound and counted as a hit.
        p.set_tensor_format("B", Format::blocked_csr()).unwrap();
        p.run().unwrap();
        assert_eq!(p.report().compiles, 2);
        assert_eq!(p.report().cache_hits, 1);
    }

    #[test]
    fn auto_stays_outer_dim_on_balanced_input() {
        let b = generate::banded(128, 7, 9);
        let mut p = spmv_program(b, ScheduleSpec::Auto).build().unwrap();
        p.run_iters(2).unwrap();
        let report = p.report();
        assert_eq!(report.stmts[0].schedule_kind, "outer-dim");
        assert!(report.decisions_for(0).all(|d| d.choice == "outer-dim"));
    }

    #[test]
    fn auto_picks_nonzero_on_heavily_clustered_input() {
        // Hub rows clustered at low indices: the blocked row distribution
        // hands color 0 most of the non-zeros, visible statically.
        let b = generate::rmat_clustered(9, 6000, 0.95, 7);
        let c = generate::dense_vec(b.dims()[1], 5);
        let expect = reference::spmv(&b, &c);
        let mut p = spmv_program(b, ScheduleSpec::Auto).build().unwrap();
        p.run().unwrap();
        let report = p.report();
        assert_eq!(report.stmts[0].schedule_kind, "non-zero");
        let first = report.decisions_for(0).next().unwrap();
        assert_eq!(first.choice, "non-zero");
        assert!(first.reason.contains("imbalance"));
        let got = p.value(0).unwrap().as_tensor().unwrap();
        assert!(reference::approx_eq(got.vals(), &expect, 1e-12));
    }

    #[test]
    fn auto_switches_after_warmup_on_moderately_skewed_input() {
        // Moderate clustering: mild enough that the static statistic keeps
        // the outer-dim pick, skewed enough that the warm-up plan's modeled
        // partition imbalance crosses the switch threshold.
        let b = find_moderate_skew();
        let c = generate::dense_vec(b.dims()[1], 5);
        let expect = reference::spmv(&b, &c);
        let mut p = spmv_program(b, ScheduleSpec::Auto).build().unwrap();
        p.run_iters(3).unwrap();
        let report = p.report();
        let choices: Vec<&str> = report.decisions_for(0).map(|d| d.choice).collect();
        assert_eq!(
            choices,
            vec!["outer-dim", "non-zero"],
            "auto must start outer-dim and switch after the warm-up run: {:#?}",
            report.decisions
        );
        assert!(report.decisions[1].reason.starts_with("warm-up"));
        assert_eq!(report.stmts[0].schedule_kind, "non-zero");
        // Two compiles (one per selection), the rest cache hits.
        assert_eq!(report.compiles, 2);
        assert_eq!(report.cache_hits, 1);
        let got = p.value(0).unwrap().as_tensor().unwrap();
        assert!(reference::approx_eq(got.vals(), &expect, 1e-12));
    }

    /// A clustered R-MAT whose equal row-block nnz imbalance lands between
    /// [`SWITCH_IMBALANCE`] and [`STATIC_IMBALANCE`] (asserted, so the
    /// warm-up-switch test cannot silently test the wrong regime).
    fn find_moderate_skew() -> SpTensor {
        for alpha in [0.45, 0.5, 0.55, 0.6, 0.65, 0.7] {
            let b = generate::rmat_clustered(9, 6000, alpha, 11);
            let bounds = equal_coord_bounds(b.dims()[0], PIECES);
            let init = universe_partition(&b, 0, &bounds);
            let imbalance = partition_tensor(&b, 0, init).vals.imbalance();
            if imbalance > SWITCH_IMBALANCE && imbalance <= STATIC_IMBALANCE {
                return b;
            }
        }
        panic!("no alpha produced a moderately skewed input");
    }

    #[test]
    fn text_and_builder_statements_agree() {
        let b = generate::banded(64, 3, 1);
        let c = generate::dense_vec(64, 5);
        let build = |textual: bool| {
            let program = Program::on(machine())
                .tensor(
                    "a",
                    Format::blocked_dense_vec(),
                    dense_vector(vec![0.0; 64]),
                )
                .tensor("B", Format::blocked_csr(), b.clone())
                .tensor("c", Format::replicated_dense_vec(), dense_vector(c.clone()));
            let program = if textual {
                program.stmt("a(i) = B(i,j) * c(j)")
            } else {
                program.stmt_with(|vars| {
                    let [i, j] = vars.fresh_n(["i", "j"]);
                    crate::api::assign(
                        "a",
                        &[i],
                        crate::api::access("B", &[i, j]) * crate::api::access("c", &[j]),
                    )
                })
            };
            let mut p = program.schedule(ScheduleSpec::outer_dim()).build().unwrap();
            p.run().unwrap();
            p.value(0).unwrap().as_tensor().unwrap().clone()
        };
        let (a, b) = (build(true), build(false));
        assert_eq!(a.vals(), b.vals());
    }

    #[test]
    fn dist_override_applies_tdn() {
        let b = generate::rmat_default(7, 800, 4);
        let mut p = spmv_program(b, ScheduleSpec::outer_dim())
            .dist("B xy (xy->f) -> ~f M")
            .build()
            .unwrap();
        let sig = p.context().tensor("B").unwrap().format.signature();
        assert_eq!(sig, Format::nonzero_csr().signature());
        p.run().unwrap();
        // Unknown tensor in a TDN override is a typed error.
        let b2 = generate::rmat_default(7, 800, 4);
        let err = spmv_program(b2, ScheduleSpec::outer_dim())
            .dist("Z xy -> x M")
            .build();
        assert!(matches!(err, Err(Error::UnknownTensor(_))));
    }

    #[test]
    fn builder_misuse_is_reported_at_build() {
        let err = Program::on(machine()).schedule(ScheduleSpec::Auto).build();
        assert!(matches!(err, Err(Error::Unsupported(_))));
        let err = Program::on(machine()).stmt("a(i) = ").build();
        assert!(matches!(err, Err(Error::Parse(_))));
    }

    #[test]
    fn chained_statements_cut_batches_and_see_writebacks() {
        let b = generate::banded(80, 5, 2);
        let n = b.dims()[0];
        let x0 = generate::dense_vec(n, 6);
        let x1 = reference::spmv(&b, &x0);
        let x2 = reference::spmv(&b, &x1);
        let mut p = Program::on(machine())
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
            .stmt("x1(i) = B(i,j) * x0(j)")
            .schedule(ScheduleSpec::outer_dim())
            .stmt("x2(i) = B(i,j) * x1(j)")
            .schedule(ScheduleSpec::outer_dim())
            .build()
            .unwrap();
        p.run().unwrap();
        assert_eq!(p.report().batches, 2, "RAW chain must cut the flush");
        let got = p.value(1).unwrap().as_tensor().unwrap();
        assert!(reference::approx_eq(got.vals(), &x2, 1e-12));
        assert!(reference::approx_eq(
            p.context().tensor("x1").unwrap().data.vals(),
            &x1,
            1e-12
        ));
    }

    fn bits(p: &CompiledProgram, k: usize) -> Vec<u64> {
        p.value(k)
            .unwrap()
            .as_tensor()
            .unwrap()
            .vals()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn run_incremental_is_bit_identical_and_skips_clean_colors() {
        use crate::streaming::CoordDelta;
        let b = generate::banded(96, 5, 3);
        let mut p = spmv_program(b, ScheduleSpec::outer_dim()).build().unwrap();
        p.run().unwrap();
        // Value-only deltas confined to the first few rows: one of four
        // colors is dirty, three are served from the retained output.
        let deltas: Vec<CoordDelta> = (0..4)
            .map(|i| CoordDelta::overwrite(vec![i, i], 7.5 + i as f64))
            .collect();
        let rep = p.update_batch("B", &deltas).unwrap();
        assert!(!rep.structural);
        assert_eq!(rep.overwritten, 4);
        assert_eq!(rep.rows_dirty, 4);
        p.run_incremental().unwrap();
        let stats = p.last_incremental(0).unwrap().clone();
        assert!(!stats.fallback, "unexpected fallback: {}", stats.reason);
        assert_eq!(stats.rows_dirty, 4);
        assert!(stats.spans_reexecuted > 0);
        assert!(stats.spans_skipped > 0, "clean colors must be skipped");
        // Bit-identical to a full recompute over the post-delta data.
        let b2 = p.context().tensor("B").unwrap().data.clone();
        let mut full = spmv_program(b2, ScheduleSpec::outer_dim()).build().unwrap();
        full.run().unwrap();
        assert_eq!(bits(&p, 0), bits(&full, 0));
        // Trace counters observed the pass.
        let m = p.trace().metrics();
        if let Some(m) = m {
            assert_eq!(m.counter("incremental.runs").get(), 1);
        }
    }

    #[test]
    fn run_incremental_without_deltas_skips_every_span() {
        let b = generate::banded(96, 5, 3);
        let mut p = spmv_program(b, ScheduleSpec::outer_dim()).build().unwrap();
        p.run().unwrap();
        let before = bits(&p, 0);
        p.run_incremental().unwrap();
        let stats = p.last_incremental(0).unwrap();
        assert!(!stats.fallback, "unexpected fallback: {}", stats.reason);
        assert_eq!(stats.spans_reexecuted, 0);
        assert!(stats.spans_skipped > 0);
        assert_eq!(bits(&p, 0), before);
    }

    #[test]
    fn structural_deltas_fall_back_and_recompile_bit_identically() {
        use crate::streaming::CoordDelta;
        let b = generate::banded(96, 5, 3);
        let mut p = spmv_program(b, ScheduleSpec::outer_dim()).build().unwrap();
        p.run().unwrap();
        assert_eq!(p.report().compiles, 1);
        // Inserts outside the band change the sparsity pattern: the cached
        // plan's partitions are stale and must be recompiled.
        let deltas = vec![
            CoordDelta::insert(vec![0, 90], 3.25),
            CoordDelta::delete(vec![1, 1]),
            CoordDelta::delete(vec![95, 0]), // absent -> ignored
        ];
        let rep = p.update_batch("B", &deltas).unwrap();
        assert!(rep.structural);
        assert_eq!((rep.inserted, rep.deleted, rep.ignored), (1, 1, 1));
        p.run_incremental().unwrap();
        let stats = p.last_incremental(0).unwrap();
        assert!(stats.fallback);
        assert_eq!(p.report().compiles, 2, "structural deltas must recompile");
        let b2 = p.context().tensor("B").unwrap().data.clone();
        let mut full = spmv_program(b2, ScheduleSpec::outer_dim()).build().unwrap();
        full.run().unwrap();
        assert_eq!(bits(&p, 0), bits(&full, 0));
    }

    #[test]
    fn set_tensor_format_invalidates_incremental_state() {
        use crate::streaming::CoordDelta;
        let b = generate::banded(96, 5, 3);
        let mut p = spmv_program(b, ScheduleSpec::outer_dim()).build().unwrap();
        p.run().unwrap();
        p.update_batch("B", &[CoordDelta::overwrite(vec![0, 0], 9.0)])
            .unwrap();
        // Re-registration drops the tracked dirty state and the retained
        // output: the next incremental pass must fall back, not merge into
        // a buffer keyed to the old format.
        p.set_tensor_format("B", Format::nonzero_csr()).unwrap();
        assert!(p.context().dirty_state("B").is_none());
        p.run_incremental().unwrap();
        let stats = p.last_incremental(0).unwrap();
        assert!(stats.fallback);
        let b2 = p.context().tensor("B").unwrap().data.clone();
        let mut full = spmv_program(b2, ScheduleSpec::outer_dim()).build().unwrap();
        full.run().unwrap();
        assert_eq!(bits(&p, 0), bits(&full, 0));
    }

    #[test]
    fn drift_reselects_nonzero_after_streamed_skew() {
        use crate::streaming::CoordDelta;
        // Balanced band: auto stays outer-dim through warm-up.
        let b = generate::banded(128, 7, 9);
        let mut p = spmv_program(b, ScheduleSpec::Auto).build().unwrap();
        p.run_iters(2).unwrap();
        assert_eq!(p.report().stmts[0].schedule_kind, "outer-dim");
        // Stream inserts concentrated in the first row block until its nnz
        // share crosses the switch threshold.
        let mut deltas = Vec::new();
        for i in 0..32 {
            for j in 64..72 {
                deltas.push(CoordDelta::insert(vec![i, j], 0.5));
            }
        }
        p.update_batch("B", &deltas).unwrap();
        p.run_incremental().unwrap();
        let report = p.report();
        assert_eq!(report.stmts[0].schedule_kind, "non-zero");
        let drift = report
            .decisions_for(0)
            .find(|d| d.reason.starts_with("drift"))
            .expect("a drift re-selection must be recorded");
        assert_eq!(drift.choice, "non-zero");
        // Correct under the re-selected schedule.
        let b2 = p.context().tensor("B").unwrap().data.clone();
        let c = generate::dense_vec(128, 5);
        let expect = reference::spmv(&b2, &c);
        let got = p.value(0).unwrap().as_tensor().unwrap();
        assert!(reference::approx_eq(got.vals(), &expect, 1e-12));
    }

    #[test]
    fn incremental_chained_statements_stay_correct() {
        use crate::streaming::CoordDelta;
        // x1 = B*x0; x2 = B*x1 — stmt 1's operand x1 is rewritten by stmt
        // 0 every pass, so it must fall back while stmt 0 merges.
        let b = generate::banded(80, 5, 2);
        let n = b.dims()[0];
        let x0 = generate::dense_vec(n, 6);
        let build = |b: SpTensor| {
            Program::on(machine())
                .tensor("B", Format::blocked_csr(), b)
                .tensor(
                    "x0",
                    Format::replicated_dense_vec(),
                    dense_vector(x0.clone()),
                )
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
                .stmt("x1(i) = B(i,j) * x0(j)")
                .schedule(ScheduleSpec::outer_dim())
                .stmt("x2(i) = B(i,j) * x1(j)")
                .schedule(ScheduleSpec::outer_dim())
                .build()
                .unwrap()
        };
        let mut p = build(b);
        p.run().unwrap();
        p.update_batch("B", &[CoordDelta::overwrite(vec![0, 0], 11.0)])
            .unwrap();
        p.run_incremental().unwrap();
        assert!(!p.last_incremental(0).unwrap().fallback);
        assert!(
            p.last_incremental(1).unwrap().fallback,
            "stmt 1 reads a rewritten operand and must fall back"
        );
        let b2 = p.context().tensor("B").unwrap().data.clone();
        let mut full = build(b2);
        full.run().unwrap();
        assert_eq!(bits(&p, 0), bits(&full, 0));
        assert_eq!(bits(&p, 1), bits(&full, 1));
    }

    #[test]
    fn describe_names_schedules_and_cache_keys() {
        let b = generate::banded(64, 3, 8);
        let mut p = spmv_program(b, ScheduleSpec::outer_dim()).build().unwrap();
        p.run().unwrap();
        let text = p.describe();
        assert!(text.contains("a(iv0) = B(iv0,iv1) * c(iv1)"), "{text}");
        assert!(text.contains("divide(iv0, 4)"), "{text}");
        assert!(text.contains("cache key:"), "{text}");
        assert!(text.contains("{Dense,Compressed} xy -> x"), "{text}");
    }
}
