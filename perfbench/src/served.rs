//! Serving over the wire: an in-process `spd-server` on a Unix socket with
//! the default `ServerConfig` (one exec worker, serial, 4 pieces) and two
//! closed-loop client connections, one per tenant. Requests are `iters = 1`
//! SpMV, with every [`SPMM_EVERY`]th an SpMM of rank [`RANK`], so request
//! cost varies and head-of-line blocking shows in the tail.
//!
//! `served_shared`: both connections belong to one tenant and register the
//! same matrix. `served_mix`: two tenants, each with its own matrix of the
//! same dimensions and format — the shared plan cache hands the second
//! tenant plans partitioned for the first tenant's sparsity pattern, so
//! about half of its answers are wrong at this commit; the benchmark
//! counts them as failed ops.

use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Instant;

use spdistal::prelude::*;
use spdistal_client::{Client, Event, Request, StmtSpec};
use spdistal_server::{ServeError, Server, ServerConfig, ShutdownHandle};
use spdistal_sparse::{dense_matrix, dense_vector, generate, reference, SpTensor};

use crate::common::{
    all_bits_equal, counter, drive_for, layer_builds, ratio, Cfg, Decl, Layers, Report, Res,
    LAYER_SHARE, TOL,
};
use crate::spans::SpanLog;
use crate::stats::{e2e_metrics, median, OpLog, OpOutcome};

const SCALE: u32 = 12;
const NNZ: usize = 200_000;
const RANK: usize = 16;
const SPMM_EVERY: usize = 4;
const SETUP_REPS: usize = 5;
/// 95th percentile (~200 requests beyond it per run): inside the SpMM
/// requests, which are one in four. Higher percentiles spread by more
/// than the benchmark's bound between runs on a shared host.
const TAIL_Q: f64 = 0.95;
const SPMV: &str = "a(i) = B(i,j) * c(j)";
const SPMM: &str = "A(i,l) = B(i,j) * C(j,l)";
/// Op ids of registration spans (one per server and connection).
const REGISTER_OP_BASE: u64 = 1 << 40;

/// One client connection's tenant and data, with its oracle outputs.
struct Tenant {
    name: String,
    b: SpTensor,
    c: Vec<f64>,
    cm: Vec<f64>,
    spmv: Vec<f64>,
    spmm: Vec<f64>,
}

impl Tenant {
    fn new(name: String, seed: u64) -> Tenant {
        let b = generate::rmat_default(SCALE, NNZ, seed);
        let c = generate::dense_vec(b.dims()[1], seed.wrapping_add(1));
        let cm = generate::dense_buffer(b.dims()[1], RANK, seed.wrapping_add(2));
        Tenant {
            name,
            spmv: reference::spmv(&b, &c),
            spmm: reference::spmm(&b, &cm, RANK),
            b,
            c,
            cm,
        }
    }

    /// Request `k` of a connection: its statement and oracle output.
    fn request(&self, k: usize) -> (&'static str, &[f64]) {
        if k % SPMM_EVERY == SPMM_EVERY - 1 {
            (SPMM, &self.spmm)
        } else {
            (SPMV, &self.spmv)
        }
    }

    /// The tensors every submission of this tenant runs over, as
    /// registered (wire format name) and as declared in-process.
    fn tensors(&self) -> Vec<(&'static str, &'static str, Format, SpTensor)> {
        let (n, m) = (self.b.dims()[0], self.b.dims()[1]);
        vec![
            (
                "a",
                "blocked_dense_vec",
                Format::blocked_dense_vec(),
                dense_vector(vec![0.0; n]),
            ),
            ("B", "blocked_csr", Format::blocked_csr(), self.b.clone()),
            (
                "c",
                "replicated_dense_vec",
                Format::replicated_dense_vec(),
                dense_vector(self.c.clone()),
            ),
            (
                "A",
                "blocked_dense_matrix",
                Format::blocked_dense_matrix(),
                dense_matrix(n, RANK, vec![0.0; n * RANK]),
            ),
            (
                "C",
                "replicated_dense_matrix",
                Format::replicated_dense_matrix(),
                dense_matrix(m, RANK, self.cm.clone()),
            ),
        ]
    }

    /// The server's execution of `stmts` over this tenant's tensors, as an
    /// in-process declaration (`ServerConfig::default()`: 4 pieces, serial).
    fn decl(&self, stmts: Vec<&'static str>) -> Decl {
        let defaults = ServerConfig::default();
        Decl {
            pieces: defaults.pieces,
            mode: defaults.exec_mode,
            tensors: self
                .tensors()
                .into_iter()
                .map(|(n, _, f, d)| (n, f, d))
                .collect(),
            stmts,
        }
    }
}

/// One request's outcome as a client sees it.
struct Reply {
    latency_s: f64,
    server_s: f64,
    ok: bool,
}

/// Send request `k` and wait for its terminal event.
fn request(client: &mut Client, tenant: &Tenant, k: usize) -> Reply {
    let (stmt, want) = tenant.request(k);
    let t0 = Instant::now();
    let outcome = client.submit(&[(stmt, "outer-dim")], 1, true, |_| {});
    let latency_s = t0.elapsed().as_secs_f64();
    match outcome {
        Ok(o) => Reply {
            latency_s,
            server_s: o.wall_seconds,
            ok: o
                .results
                .first()
                .is_some_and(|(_, vals)| reference::approx_eq(vals, want, TOL)),
        },
        Err(_) => Reply {
            latency_s,
            server_s: 0.0,
            ok: false,
        },
    }
}

/// A running server with one registered connection per tenant.
struct Served {
    clients: Vec<Client>,
    engine: Engine,
    shutdown: ShutdownHandle,
    thread: JoinHandle<Result<(), ServeError>>,
    path: PathBuf,
}

/// Bind a server, connect and register every tenant, and wait for the
/// first reply: the `setup_s` interval. Registrations are spans of `spans`.
fn start(
    tenants: &[Tenant],
    socket: usize,
    mut spans: Option<&mut SpanLog>,
) -> Res<(f64, Served, Reply)> {
    // Relative, so the socket path stays short whatever the checkout path.
    let path = PathBuf::from(format!(".perfbench-{}-{socket}.sock", std::process::id()));
    let t0 = Instant::now();
    let server = Server::bind_uds(&path, ServerConfig::default())?;
    let (engine, shutdown) = (server.engine().clone(), server.shutdown_handle());
    let thread = std::thread::spawn(move || server.run());
    let mut clients = Vec::new();
    for (k, t) in tenants.iter().enumerate() {
        let mut client = Client::connect_uds(&path)?;
        client.hello(&t.name)?;
        let id = spans.as_deref_mut().map(|s| {
            s.begin(
                "client.register",
                REGISTER_OP_BASE + (socket * 2 + k) as u64,
                None,
            )
        });
        for (name, format, _, data) in t.tensors() {
            client.register_tensor(name, format, &data)?;
        }
        if let (Some(s), Some(id)) = (spans.as_deref_mut(), id) {
            s.end(id);
        }
        clients.push(client);
    }
    let first = request(&mut clients[0], &tenants[0], 0);
    let setup_s = t0.elapsed().as_secs_f64();
    Ok((
        setup_s,
        Served {
            clients,
            engine,
            shutdown,
            thread,
            path,
        },
        first,
    ))
}

impl Served {
    /// Drain and stop the server, joining its thread.
    fn stop(self) -> Res<()> {
        drop(self.clients);
        self.shutdown.request_shutdown();
        let joined = self.thread.join().map_err(|_| "server thread panicked")?;
        let _ = std::fs::remove_file(&self.path);
        Ok(joined?)
    }

    /// Both connections in closed loops for `seconds`; spans per request
    /// when `traced`. Returns the op log (wall-clock timed phase) and the
    /// server-side execution seconds of each request.
    fn closed_loops(
        &mut self,
        tenants: &[Tenant],
        seconds: f64,
        traced: bool,
        spans: &mut SpanLog,
    ) -> (OpLog, Vec<f64>) {
        let start = Instant::now();
        let n = self.clients.len();
        let per_client: Vec<(Vec<Reply>, SpanLog)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(tenants)
                .enumerate()
                .map(|(c, (client, tenant))| {
                    s.spawn(move || {
                        let mut log = SpanLog::starting_at(start);
                        let mut replies = Vec::new();
                        // Request 0 of connection 0 was the set-up reply.
                        let mut k = usize::from(c == 0);
                        while start.elapsed().as_secs_f64() < seconds {
                            let op = (k * n + c) as u64;
                            let id = traced.then(|| log.begin("client.submit", op, None));
                            replies.push(request(client, tenant, k));
                            if let Some(id) = id {
                                log.end(id);
                            }
                            k += 1;
                        }
                        (replies, log)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut log = OpLog {
            timed_s: start.elapsed().as_secs_f64(),
            ..OpLog::default()
        };
        let mut server_s = Vec::new();
        for (replies, client_spans) in per_client {
            spans.absorb(client_spans);
            for r in replies {
                server_s.push(r.server_s);
                log.push(OpOutcome {
                    latency_s: r.latency_s,
                    ok: r.ok,
                    model_s: 0.0,
                    comm_bytes: 0.0,
                });
            }
        }
        (log, server_s)
    }
}

/// Modeled seconds and bytes per request of the traffic mix, by running
/// each request kind once through an in-process program declared like the
/// server's (the wire carries no model time; the model is deterministic).
fn model_per_request(tenants: &[Tenant]) -> Res<(f64, f64)> {
    let (mut time, mut bytes) = (0.0, 0.0);
    for t in tenants {
        for (stmt, share) in [(SPMV, SPMM_EVERY - 1), (SPMM, 1)] {
            let mut p = t.decl(vec![stmt]).build(Trace::disabled())?;
            p.run()?;
            let r = p.result(0).ok_or("no result")?;
            let w = share as f64 / (SPMM_EVERY * tenants.len()) as f64;
            time += r.time * w;
            bytes += r.comm_bytes as f64 * w;
        }
    }
    Ok((time, bytes))
}

pub fn run(cfg: &Cfg, mix: bool) -> Res<Report> {
    let tenants: Vec<Tenant> = (0..2u64)
        .map(|k| {
            if mix {
                Tenant::new(format!("tenant{k}"), cfg.seed.wrapping_add(k * 1_000_003))
            } else {
                Tenant::new("tenant0".into(), cfg.seed)
            }
        })
        .collect();
    let model = model_per_request(&tenants)?;
    let deterministic = all_bits_equal(&[model, model_per_request(&tenants)?]);
    let mut scratch = SpanLog::default();
    if !cfg.trace {
        // One server per segment of the run: each segment's set-up is a
        // `setup_s` sample, so set-up meets the host's speed across the
        // whole run, as the requests do.
        let (mut setup_s, mut setup_failed, mut log) = (Vec::new(), 0, OpLog::default());
        for rep in 0..SETUP_REPS {
            let (s, mut served, first) = start(&tenants, rep, None)?;
            setup_s.push(s);
            setup_failed += u64::from(!first.ok);
            let segment = cfg.seconds / SETUP_REPS as f64;
            log.append(
                served
                    .closed_loops(&tenants, segment, false, &mut scratch)
                    .0,
            );
            served.stop()?;
        }
        return Ok(Report {
            attempted: log.attempted() + SETUP_REPS as u64,
            failed: log.failed + setup_failed,
            deterministic,
            metrics: e2e_metrics(&setup_s, &log, TAIL_Q, model.0),
            spans: None,
        });
    }

    let loop_s = cfg.seconds * (1.0 - LAYER_SHARE) / 2.0;
    let (_, mut plain, first_plain) = start(&tenants, 0, None)?;
    let (plain_log, _) = plain.closed_loops(&tenants, loop_s, false, &mut scratch);
    plain.stop()?;

    // The server's own trace is always on (it backs its run report), so
    // the traced pass differs from the plain one by the benchmark's spans.
    let mut spans = SpanLog::default();
    let (_, mut traced, first_traced) = start(&tenants, 1, Some(&mut spans))?;
    let (log, server_s) = traced.closed_loops(&tenants, loop_s, true, &mut spans);
    let (cache, trace) = (
        traced.engine.plan_cache().clone(),
        traced.engine.trace().clone(),
    );
    traced.stop()?;

    let mut out = Layers::default();
    layer_builds(&mut spans, || tenants[0].decl(vec![SPMV, SPMM]))?;
    out.setup_layers(&spans);
    // The client's own encode and decode of this traffic mix.
    let (mut encode_s, mut decode_s) = (Vec::new(), Vec::new());
    let mut k = 0;
    drive_for(cfg.seconds * LAYER_SHARE, |_| {
        let (stmt, want) = tenants[0].request(k);
        let req = Request::Submit {
            stmts: vec![StmtSpec {
                tin: stmt.into(),
                schedule: "outer-dim".into(),
            }],
            iters: 1,
            pipelined: true,
        };
        let t0 = Instant::now();
        let bytes = std::hint::black_box(req.to_json());
        encode_s.push(t0.elapsed().as_secs_f64());
        out.check(Request::parse(bytes.as_bytes()).is_ok_and(|r| r == req));
        let payload = Event::Result {
            stmt: 0,
            vals: want.to_vec(),
        }
        .to_json();
        let t0 = Instant::now();
        let ev = Event::parse(std::hint::black_box(payload.as_bytes()));
        decode_s.push(t0.elapsed().as_secs_f64());
        out.check(matches!(ev, Ok(Event::Result { vals, .. }) if vals == want));
        k += 1;
        Ok(())
    })?;
    let latency_minus_server: Vec<f64> = log
        .latency_s
        .iter()
        .zip(&server_s)
        .map(|(l, s)| (l - s) * 1e3)
        .collect();
    let n = log.attempted() as usize;
    out.push(
        "client.encode_us",
        median(&encode_s) * 1e6,
        "us",
        encode_s.len(),
    );
    out.push(
        "client.decode_us",
        median(&decode_s) * 1e6,
        "us",
        decode_s.len(),
    );
    out.span_median(&spans, "client.register", "client.register_ms", "ms");
    out.push(
        "server.exec_ms",
        median(&server_s.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
        "ms",
        n,
    );
    out.push("server.overhead_ms", median(&latency_minus_server), "ms", n);
    out.push("codegen.compiles", cache.misses() as f64, "count", 1);
    out.push(
        "engine.plan_hit_ratio",
        ratio(cache.hits() as f64, (cache.hits() + cache.misses()) as f64),
        "ratio",
        1,
    );
    out.push(
        "engine.cross_tenant_hits",
        cache.cross_tenant_hits() as f64,
        "count",
        1,
    );
    out.push(
        "kernels.specialized",
        counter(&trace, "kernel.specialized") as f64,
        "count",
        1,
    );
    out.push(
        "kernels.fallback",
        counter(&trace, "kernel.fallback") as f64,
        "count",
        1,
    );
    out.push("exec.comm_bytes", model.1, "B", 1);
    let (thr_plain, thr_traced) = (plain_log.throughput(), log.throughput());
    out.push(
        "obs.trace_overhead_pct",
        ratio(thr_plain - thr_traced, thr_plain) * 100.0,
        "%",
        n,
    );
    Ok(Report {
        attempted: plain_log.attempted() + log.attempted() + 2 + out.attempted,
        failed: plain_log.failed
            + log.failed
            + u64::from(!first_plain.ok)
            + u64::from(!first_traced.ok)
            + out.failed,
        deterministic,
        metrics: out.metrics,
        spans: Some(spans),
    })
}
