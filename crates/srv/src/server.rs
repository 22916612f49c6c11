//! The request scheduler and its front-ends.
//!
//! A fixed pool of workers (`SCTM_THREADS`, else all cores) pulls
//! per-request *stage* tasks — probe → capture → replay → render — from
//! per-worker deques with stealing ([`WorkStealPool`]). A worker
//! finishing one stage pushes the request's next stage onto its own
//! deque; idle workers steal the oldest queued stage from a peer. So the
//! capture of request N overlaps the replay of request M and the
//! response rendering of request K, and a sweep saturates every worker.
//!
//! Determinism does not depend on the worker count: each request's
//! result manifest is computed from simulated quantities only, and the
//! [`CaptureCache`] single-flight pending slots are the only
//! cross-request synchronization — whichever request performs a capture
//! produces the same bytes. Scheduling changes *when* work runs, never
//! *what* it computes; `tests/srv_sched.rs` pins every worker count to
//! a direct `Experiment::execute`.
//!
//! In **shard mode** ([`Server::start_sharded`]) several `sctmd`
//! processes partition the capture cache by consistent hashing over the
//! FNV capture key: a miss on a key owned by a peer is forwarded (`fwd`
//! verb) instead of captured locally, so the whole cluster performs one
//! capture per workload. See the `shard` module docs.
//!
//! Backpressure is explicit: `submit` on a full queue fails immediately
//! with a `busy` response carrying `retry_after_ms`, never blocks the
//! caller, and never grows the queue past its cap. Shutdown is a
//! graceful drain — everything already queued still runs and answers.
//!
//! # Telemetry (DESIGN.md §12)
//!
//! Every request is decomposed into lifecycle phases — accepted →
//! queued → cache-probe → capture/replay → respond — timed on the host
//! clock and rolled into a [`SvcStats`] aggregate (relaxed-atomic
//! counters, max gauges, per-phase latency histograms behind one
//! per-request lock). The aggregate is always on: it feeds the `stats`
//! verb (versioned JSON snapshot), the `metrics` verb (Prometheus text
//! exposition 0.0.4, also served to `GET /metrics` over the same TCP
//! port), and the optional JSONL request log. None of it can reach a
//! simulation: response `"result"` bytes are produced before any
//! telemetry is recorded for the request, and the byte-identity suite
//! hammers `stats` concurrently to prove it.

use crate::cache::{CacheStats, CaptureCache, CaptureKey};
use crate::proto::{
    self, error_kind, error_response, ok_response, parse_request, result_json, timeout_response,
    CacheOutcome, FwdRequest, Request, RunRequest,
};
use crate::shard::Shard;
use sctm_core::trace::TraceLog;
use sctm_core::{Mode, SctmError};
use sctm_engine::par::{service_threads, WorkStealPool, WorkerHandle};
use sctm_engine::stats::Histogram;
use sctm_obs::reqlog::{json_line, quoted, RequestLog};
use sctm_obs::svc::{SvcCounter, SvcPhase, SvcStats, SVC_STATS_VERSION};
use sctm_obs::{span, ConvergenceVerdict, Manifest};
use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Service knobs. All bounds are hard: the queue never exceeds
/// `queue_cap` and the cache evicts past `cache_bytes`.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Bounded request queue length; submissions beyond it get `busy`.
    pub queue_cap: usize,
    /// Capture cache byte budget (sctf-encoded trace bytes).
    pub cache_bytes: usize,
    /// Queue deadline for requests that do not carry `timeout_ms`.
    pub default_timeout_ms: u64,
    /// Retry hint attached to `busy` responses.
    pub retry_after_ms: u64,
    /// Scheduler worker count; `0` resolves via
    /// [`service_threads`] (`SCTM_THREADS`, else all cores).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_cap: 64,
            cache_bytes: 256 << 20,
            default_timeout_ms: 300_000,
            retry_after_ms: 50,
            workers: 0,
        }
    }
}

struct Job {
    req: RunRequest,
    /// Monotone per-daemon request number; pairs log lines with spans.
    seq: u64,
    enqueued: Instant,
    /// `None` never times out (deadline arithmetic overflowed).
    deadline: Option<Instant>,
    reply: mpsc::Sender<String>,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    draining: bool,
    /// Accepted requests not yet answered (queued + in flight). Drain
    /// waits for this to hit zero so every accepted request is answered
    /// before the pool stops.
    outstanding: usize,
}

/// The four pipeline stages, in flow order. Indices key the
/// `srv.sched.queue.<stage>` depth gauges.
const STAGE_NAMES: [&str; 4] = ["probe", "capture", "replay", "render"];
const STAGE_PROBE: usize = 0;
const STAGE_CAPTURE: usize = 1;
const STAGE_REPLAY: usize = 2;
const STAGE_RENDER: usize = 3;

/// Shard-mode counters (zeros outside shard mode; the schema is
/// stable either way). Cluster-wide capture count is
/// `Σ srv.cache.misses − Σ srv.shard.forwarded` across instances.
#[derive(Default)]
struct ShardCounters {
    /// Local captures for keys this instance owns.
    owned: AtomicU64,
    /// Misses satisfied by fetching from the owning peer.
    forwarded: AtomicU64,
    /// `fwd` requests served on behalf of peers.
    fwd_served: AtomicU64,
    /// Forwards that failed (peer down, malformed reply); the request
    /// got a typed error and the pending slot was released.
    fwd_errors: AtomicU64,
    /// Format mix of served `fwd` replies: binary sctf frames vs CSV
    /// frames (a CSV frame means the requesting peer is version-skewed
    /// or pinned to the interchange codec).
    fwd_sctf: AtomicU64,
    fwd_csv: AtomicU64,
}

struct Shared {
    cfg: ServerConfig,
    cache: CaptureCache,
    queue: Mutex<QueueState>,
    /// Signalled whenever `outstanding` drops; `drain` waits on it.
    answered: Condvar,
    svc: SvcStats,
    log: Option<Arc<RequestLog>>,
    next_seq: AtomicU64,
    /// Convergence rollup across completed self-correction runs: run
    /// counts per verdict and an iterations-per-run histogram, served
    /// as `srv.conv.*` by the `stats`/`metrics` verbs.
    conv: Mutex<ConvRollup>,
    /// Consistent-hash shard state; `None` runs single-instance.
    shard: Option<Shard>,
    shard_counters: ShardCounters,
    /// Queued-but-not-started stage tasks, by stage index.
    stage_depth: [AtomicU64; 4],
}

struct ConvRollup {
    runs: std::collections::BTreeMap<&'static str, u64>,
    iterations: Histogram,
}

impl ConvRollup {
    fn new() -> Self {
        ConvRollup {
            runs: std::collections::BTreeMap::new(),
            iterations: Histogram::new(),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn us(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

fn now_ms() -> u128 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0)
}

impl Shared {
    /// Emit one structured JSONL request-log line (no-op when the
    /// daemon runs without a log). `fields` follow the fixed prefix
    /// `ts_ms`, `seq`.
    fn log_event(&self, seq: u64, fields: &[(&str, String)]) {
        let Some(log) = &self.log else { return };
        let mut all: Vec<(&str, String)> = Vec::with_capacity(fields.len() + 2);
        all.push(("ts_ms", now_ms().to_string()));
        all.push(("seq", seq.to_string()));
        all.extend(fields.iter().map(|(k, v)| (*k, v.clone())));
        log.log(&json_line(&all));
    }
}

/// A running simulation service. Dropping it drains gracefully.
pub struct Server {
    shared: Arc<Shared>,
    /// The stage pool; `None` once drained.
    pool: Mutex<Option<WorkStealPool>>,
}

impl Server {
    pub fn start(cfg: ServerConfig) -> Server {
        Server::start_sharded(cfg, None, None)
    }

    /// As [`Server::start`], with an optional structured request log
    /// (one JSONL line per request; see DESIGN.md §12).
    pub fn start_logged(cfg: ServerConfig, log: Option<Arc<RequestLog>>) -> Server {
        Server::start_sharded(cfg, None, log)
    }

    /// As [`Server::start_logged`], optionally joining a consistent-hash
    /// shard cluster (see the `shard` module docs): capture misses on
    /// keys owned by a peer are forwarded instead of captured locally.
    pub fn start_sharded(
        cfg: ServerConfig,
        shard: Option<Shard>,
        log: Option<Arc<RequestLog>>,
    ) -> Server {
        let shared = Arc::new(Shared {
            cache: CaptureCache::new(cfg.cache_bytes),
            cfg,
            queue: Mutex::new(QueueState::default()),
            answered: Condvar::new(),
            svc: SvcStats::new(),
            log,
            next_seq: AtomicU64::new(1),
            conv: Mutex::new(ConvRollup::new()),
            shard,
            shard_counters: ShardCounters::default(),
            stage_depth: Default::default(),
        });
        let workers = if cfg.workers > 0 {
            cfg.workers
        } else {
            service_threads()
        };
        Server {
            shared,
            pool: Mutex::new(Some(WorkStealPool::new(workers))),
        }
    }

    pub fn config(&self) -> ServerConfig {
        self.shared.cfg
    }

    /// Enqueue a run. Returns the response channel, or the ready-made
    /// `busy`/`error` line when the queue is full or draining. Never
    /// blocks.
    pub fn submit(&self, req: RunRequest) -> Result<mpsc::Receiver<String>, String> {
        let cfg = self.shared.cfg;
        let now = Instant::now();
        let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
        let timeout = req.timeout_ms.unwrap_or(cfg.default_timeout_ms);
        let deadline = now.checked_add(Duration::from_millis(timeout));
        let mut q = lock(&self.shared.queue);
        if q.draining {
            drop(q);
            let err = sctm_core::SctmError::InvalidSpec("server is shutting down".into());
            self.shared.svc.incr(SvcCounter::Rejected);
            self.shared.log_event(
                seq,
                &[
                    ("id", quoted(&req.id)),
                    ("verb", quoted("run")),
                    ("outcome", quoted("draining")),
                ],
            );
            return Err(error_response(&req.id, &err));
        }
        if q.jobs.len() >= cfg.queue_cap {
            drop(q);
            self.shared.svc.incr(SvcCounter::Rejected);
            self.shared.log_event(
                seq,
                &[
                    ("id", quoted(&req.id)),
                    ("verb", quoted("run")),
                    ("outcome", quoted("busy")),
                ],
            );
            return Err(proto::busy_response(&req.id, cfg.retry_after_ms));
        }
        let (tx, rx) = mpsc::channel();
        q.jobs.push_back(Job {
            req,
            seq,
            enqueued: now,
            deadline,
            reply: tx,
        });
        q.outstanding += 1;
        let depth = q.jobs.len() as u64;
        // Hand the pool one probe task per accepted job, while still
        // holding the queue lock so a concurrent drain cannot stop the
        // pool between accept and dispatch.
        self.dispatch_probe();
        drop(q);
        self.shared.svc.incr(SvcCounter::Accepted);
        self.shared.svc.note_queue_depth(depth);
        Ok(rx)
    }

    /// Submit one probe-stage task to the work-steal pool. The task
    /// pops the oldest queued job (FIFO fairness for the probe stage;
    /// later stages ride the deques) and starts its pipeline.
    fn dispatch_probe(&self) {
        let pool = lock(&self.pool);
        let Some(pool) = pool.as_ref() else { return };
        let sh = Arc::clone(&self.shared);
        sh.stage_depth[STAGE_PROBE].fetch_add(1, Ordering::Relaxed);
        pool.submit(move |h| {
            sh.stage_depth[STAGE_PROBE].fetch_sub(1, Ordering::Relaxed);
            let job = lock(&sh.queue).jobs.pop_front();
            if let Some(job) = job {
                stage_probe(&sh, h, job);
            }
        });
    }

    /// Answer a peer's `fwd` request from this instance's own cache —
    /// the owner end of the forward hop. Runs on the connection thread
    /// (never a scheduler worker) and goes through the normal
    /// single-flight `get_or_capture`, so racing forwards from several
    /// peers and local requests for the same key collapse onto one
    /// capture. The owner never re-forwards: it is the end of the
    /// chain, so forwarding cannot loop.
    pub fn handle_fwd(&self, f: &FwdRequest) -> String {
        let e = &f.experiment;
        let key = CaptureKey::new(e.kernel.label(), e.system.side, e.ops_per_core, e.seed);
        self.shared
            .shard_counters
            .fwd_served
            .fetch_add(1, Ordering::Relaxed);
        let (log, hit) = self.shared.cache.get_or_capture(key, || {
            let _g = span("svc", "capture");
            e.capture()
        });
        let outcome = if hit {
            CacheOutcome::Hit
        } else {
            CacheOutcome::Miss
        };
        let mix = match f.format {
            sctm_core::trace::TraceFormat::Sctf => &self.shared.shard_counters.fwd_sctf,
            sctm_core::trace::TraceFormat::Csv => &self.shared.shard_counters.fwd_csv,
        };
        mix.fetch_add(1, Ordering::Relaxed);
        proto::fwd_response(&f.id, outcome, &log, f.format)
    }

    /// Submit and wait for the response line.
    pub fn submit_blocking(&self, req: RunRequest) -> String {
        match self.submit(req) {
            Ok(rx) => rx
                .recv()
                .unwrap_or_else(|_| r#"{"status":"error","kind":"internal","message":"scheduler dropped the request"}"#.into()),
            Err(line) => line,
        }
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.queue).jobs.len()
    }

    /// Point-in-time copy of the service aggregate. Counters are
    /// individually monotone across successive calls.
    pub fn svc_snapshot(&self) -> sctm_obs::svc::SvcSnapshot {
        self.shared.svc.snapshot()
    }

    /// The structured request log, when the server was started with one.
    pub fn request_log(&self) -> Option<&RequestLog> {
        self.shared.log.as_deref()
    }

    /// Service telemetry as a run manifest in the `sctm-obs` schema:
    /// the full `srv.*` namespace of DESIGN.md §12 (lifecycle counters,
    /// per-phase latency histograms, cache economics, queue state).
    pub fn stats_manifest(&self) -> Manifest {
        let cs = self.shared.cache.stats();
        let mut m = Manifest::new();
        m.config("stats_version", SVC_STATS_VERSION);
        m.config("queue_cap", self.shared.cfg.queue_cap);
        m.config("cache_budget_bytes", self.shared.cfg.cache_bytes);
        m.metrics.counter_add("srv.cache.hits", cs.hits);
        m.metrics.counter_add("srv.cache.misses", cs.misses);
        m.metrics.counter_add("srv.cache.evictions", cs.evictions);
        m.metrics
            .counter_add("srv.cache.single_flight_waits", cs.single_flight_waits);
        m.metrics.gauge_set("srv.cache.entries", cs.entries as f64);
        m.metrics.gauge_set("srv.cache.bytes", cs.bytes as f64);
        // Mean resident size per entry (sctf-encoded bytes): the
        // at-a-glance capacity figure — budget / bytes_per_entry is how
        // many workloads stay warm. Zero while the cache is empty.
        let per_entry = if cs.entries > 0 {
            cs.bytes as f64 / cs.entries as f64
        } else {
            0.0
        };
        m.metrics.gauge_set("srv.cache.bytes_per_entry", per_entry);
        m.metrics
            .gauge_set("srv.queue.depth", self.queue_depth() as f64);
        {
            // Fixed verdict set, zeros included: the schema never
            // depends on which verdicts have occurred yet.
            let conv = lock(&self.shared.conv);
            for v in ConvergenceVerdict::ALL {
                let n = conv.runs.get(v.label()).copied().unwrap_or(0);
                m.metrics
                    .counter_add(format!("srv.conv.runs.{}", v.label()), n);
            }
            m.metrics
                .hist_merge("srv.conv.iterations", &conv.iterations);
        }
        // Scheduler occupancy: live pool counters, zeros once drained —
        // the schema never depends on the pool's state.
        let ps = lock(&self.pool)
            .as_ref()
            .map(|p| p.stats())
            .unwrap_or_default();
        m.metrics.gauge_set("srv.sched.workers", ps.workers as f64);
        m.metrics.gauge_set("srv.sched.busy", ps.busy as f64);
        m.metrics.counter_add("srv.sched.steals", ps.steals);
        m.metrics.counter_add("srv.sched.tasks", ps.executed);
        for (i, stage) in STAGE_NAMES.iter().enumerate() {
            m.metrics.gauge_set(
                format!("srv.sched.queue.{stage}"),
                self.shared.stage_depth[i].load(Ordering::Relaxed) as f64,
            );
        }
        // Shard counters: zeros single-instance, same schema.
        let peers = self
            .shared
            .shard
            .as_ref()
            .map_or(0, |s| s.ring().peers().len());
        let sc = &self.shared.shard_counters;
        m.metrics.gauge_set("srv.shard.peers", peers as f64);
        m.metrics
            .counter_add("srv.shard.owned", sc.owned.load(Ordering::Relaxed));
        m.metrics
            .counter_add("srv.shard.forwarded", sc.forwarded.load(Ordering::Relaxed));
        m.metrics.counter_add(
            "srv.shard.fwd_served",
            sc.fwd_served.load(Ordering::Relaxed),
        );
        m.metrics.counter_add(
            "srv.shard.fwd_errors",
            sc.fwd_errors.load(Ordering::Relaxed),
        );
        m.metrics
            .counter_add("srv.shard.fwd_sctf", sc.fwd_sctf.load(Ordering::Relaxed));
        m.metrics
            .counter_add("srv.shard.fwd_csv", sc.fwd_csv.load(Ordering::Relaxed));
        self.shared.svc.snapshot().publish(&mut m.metrics);
        m
    }

    /// The whole service registry as Prometheus text exposition 0.0.4.
    pub fn prometheus_text(&self) -> String {
        sctm_obs::svc::prometheus_text(&self.stats_manifest().metrics)
    }

    /// Graceful drain: refuse new submissions, finish everything
    /// queued, then stop the pool. Idempotent.
    pub fn drain(&self) {
        lock(&self.shared.queue).draining = true;
        // Every accepted request holds an `outstanding` tick until its
        // reply is sent; wait for zero, then stop the pool (its Drop
        // finishes queued tasks first).
        let pool = lock(&self.pool).take();
        if let Some(pool) = pool {
            let mut q = lock(&self.shared.queue);
            while q.outstanding > 0 {
                q = self
                    .shared
                    .answered
                    .wait(q)
                    .unwrap_or_else(|e| e.into_inner());
            }
            drop(q);
            drop(pool);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Answer a request whose queue deadline expired before it ran, with
/// full telemetry.
fn finish_timeout(shared: &Shared, job: Job, now: Instant) {
    let waited = now.duration_since(job.enqueued);
    shared.svc.incr(SvcCounter::TimedOut);
    shared.svc.record_us(SvcPhase::Queue, us(waited));
    shared.svc.record_us(SvcPhase::Total, us(waited));
    shared.log_event(
        job.seq,
        &[
            ("id", quoted(&job.req.id)),
            ("verb", quoted("run")),
            ("outcome", quoted("timeout")),
            ("queue_us", us(waited).to_string()),
            ("total_us", us(waited).to_string()),
        ],
    );
    let _ = job
        .reply
        .send(timeout_response(&job.req.id, waited.as_millis()));
    note_answered(shared);
}

/// Fold one finished request into counters, conv rollup, phase
/// histograms, and the request log, and send its reply.
fn finish_job(shared: &Shared, job: Job, queue_us: u64, done: JobDone) {
    // Counters, the conv rollup and the request-log line land before
    // the reply: a client that reads its answer and then polls `stats`
    // or reads the log always sees itself (the channel send/recv pair
    // orders the relaxed stores for the receiver).
    let svc = &shared.svc;
    svc.incr(SvcCounter::Completed);
    match done.cache {
        CacheOutcome::Bypass => svc.incr(SvcCounter::CacheBypass),
        CacheOutcome::Hit | CacheOutcome::Miss => {}
    }
    if let Some(kind) = done.error_kind {
        svc.incr(SvcCounter::Errors);
        if kind == "budget-exhausted" {
            svc.incr(SvcCounter::BudgetExhausted);
        }
    }
    if let Some(v) = done.verdict {
        let mut conv = lock(&shared.conv);
        *conv.runs.entry(v).or_insert(0) += 1;
        conv.iterations.record(done.conv_iterations);
    }
    let total_us = us(job.enqueued.elapsed());

    let mut fields: Vec<(&str, String)> = vec![
        ("id", quoted(&job.req.id)),
        ("verb", quoted("run")),
        (
            "outcome",
            quoted(if done.error_kind.is_some() {
                "error"
            } else {
                "ok"
            }),
        ),
        ("cache", quoted(done.cache.label())),
    ];
    if let Some(key) = done.key_prefix {
        fields.push(("key", quoted(&key)));
    }
    if let Some(kind) = done.error_kind {
        fields.push(("error_kind", quoted(kind)));
    }
    if let Some(v) = done.verdict {
        fields.push(("verdict", quoted(v)));
    }
    fields.push(("queue_us", queue_us.to_string()));
    fields.push(("probe_us", done.probe_us.to_string()));
    fields.push(("execute_us", done.execute_us.to_string()));
    fields.push(("total_us", total_us.to_string()));
    shared.log_event(job.seq, &fields);

    let respond0 = Instant::now();
    let _ = job.reply.send(done.line);
    svc.record_us(SvcPhase::Queue, queue_us);
    svc.record_us(SvcPhase::CacheProbe, done.probe_us);
    svc.record_us(SvcPhase::Execute, done.execute_us);
    svc.record_us(SvcPhase::Respond, us(respond0.elapsed()));
    svc.record_us(SvcPhase::Total, total_us);
    note_answered(shared);
}

/// Release one `outstanding` tick after a reply (or timeout drop) and
/// wake a drain that may be waiting for the count to reach zero.
fn note_answered(shared: &Shared) {
    let mut q = lock(&shared.queue);
    q.outstanding = q.outstanding.saturating_sub(1);
    drop(q);
    shared.answered.notify_all();
}

/// What one executed request produced, response line plus the
/// telemetry the scheduler folds into [`SvcStats`] and the request log.
struct JobDone {
    line: String,
    cache: CacheOutcome,
    /// First 8 hex digits of the [`CaptureKey`] (`None` on bypass) —
    /// enough to correlate log lines sharing a capture without leaking
    /// a reversible workload description.
    key_prefix: Option<String>,
    error_kind: Option<&'static str>,
    /// Cache resolution time, excluding any capture it triggered.
    probe_us: u64,
    /// Simulation work: capture (on a miss) plus replay/execute.
    execute_us: u64,
    /// Convergence verdict label (self-correction runs only).
    verdict: Option<&'static str>,
    /// Self-correction iterations the run took (0 for other modes).
    conv_iterations: u64,
}

/// Produce the capture for `key`: locally when this instance owns the
/// key (or runs single-instance), otherwise by forwarding to the
/// owning peer. Runs as the single-flight producer, so per instance at
/// most one capture/forward per key is in flight; an `Err` releases
/// the pending slot (drop guard) and surfaces a typed error.
fn produce_capture(
    shared: &Shared,
    e: &sctm_core::Experiment,
    id: &str,
    key: CaptureKey,
) -> Result<TraceLog, SctmError> {
    if let Some(shard) = &shared.shard {
        let owner = shard.ring().owner(key);
        if owner != shard.ring().self_addr() {
            let owner = owner.to_string();
            let _g = span("svc", "fwd");
            return match shard.fetch_from_owner(&owner, e, id) {
                Ok((log, _peer_outcome)) => {
                    shared
                        .shard_counters
                        .forwarded
                        .fetch_add(1, Ordering::Relaxed);
                    Ok(log)
                }
                Err(err) => {
                    shared
                        .shard_counters
                        .fwd_errors
                        .fetch_add(1, Ordering::Relaxed);
                    Err(err)
                }
            };
        }
        shared.shard_counters.owned.fetch_add(1, Ordering::Relaxed);
    }
    let _g = span("svc", "capture");
    Ok(e.capture())
}

/// Per-request state threaded through the stage pipeline.
/// Built at probe, completed at render; each stage hands it to the
/// next via the worker's own deque.
struct StageCtx {
    job: Job,
    queue_us: u64,
    /// When the probe stage began: the zero of the reply's `wall_ns`.
    started: Instant,
    probe_us: u64,
    /// Accumulated simulation work so far (capture/forward, replay).
    execute_us: u64,
    cache: CacheOutcome,
    key: Option<CaptureKey>,
    key_prefix: Option<String>,
    log: Option<Arc<TraceLog>>,
    outcome: Option<Result<sctm_core::RunOutcome, SctmError>>,
}

/// Queue `ctx` for `stage` on this worker's own deque (LIFO keeps the
/// request hot; an idle peer may steal it), with depth accounting and
/// a Perfetto `sched` span around the stage body.
fn spawn_stage(shared: &Arc<Shared>, h: &WorkerHandle<'_>, stage: usize, ctx: StageCtx) {
    shared.stage_depth[stage].fetch_add(1, Ordering::Relaxed);
    let sh = Arc::clone(shared);
    h.push_local(move |h2| {
        sh.stage_depth[stage].fetch_sub(1, Ordering::Relaxed);
        let _g = span("sched", STAGE_NAMES[stage]);
        match stage {
            STAGE_CAPTURE => stage_capture(&sh, h2, ctx),
            STAGE_REPLAY => stage_replay(&sh, h2, ctx),
            STAGE_RENDER => stage_render(&sh, ctx),
            other => unreachable!("stage {other} is never queued"),
        }
    });
}

/// Stage 1 — deadline check and non-blocking cache probe. A hit skips
/// straight to replay; a cold or in-flight key goes to the capture
/// stage (which joins the single-flight there, off this fast path).
fn stage_probe(shared: &Arc<Shared>, h: &WorkerHandle<'_>, job: Job) {
    let _g = span("sched", STAGE_NAMES[STAGE_PROBE]);
    let now = Instant::now();
    if let Some(d) = job.deadline {
        if d <= now {
            finish_timeout(shared, job, now);
            return;
        }
    }
    let queue_us = us(now.duration_since(job.enqueued));
    shared.svc.enter();
    let traceless = matches!(
        job.req.spec.mode,
        Mode::ExecutionDriven | Mode::Online { .. }
    );
    let mut ctx = StageCtx {
        job,
        queue_us,
        started: now,
        probe_us: 0,
        execute_us: 0,
        cache: CacheOutcome::Bypass,
        key: None,
        key_prefix: None,
        log: None,
        outcome: None,
    };
    if traceless {
        spawn_stage(shared, h, STAGE_REPLAY, ctx);
        return;
    }
    let e = &ctx.job.req.experiment;
    let key = CaptureKey::new(e.kernel.label(), e.system.side, e.ops_per_core, e.seed);
    ctx.key = Some(key);
    ctx.key_prefix = Some(format!("{:08x}", key.0 >> 32));
    let probe0 = Instant::now();
    let probed = {
        let _g = span("svc", "cache_probe");
        shared.cache.try_get(key)
    };
    ctx.probe_us = us(probe0.elapsed());
    match probed {
        Some(log) => {
            ctx.cache = CacheOutcome::Hit;
            ctx.log = Some(log);
            spawn_stage(shared, h, STAGE_REPLAY, ctx);
        }
        None => spawn_stage(shared, h, STAGE_CAPTURE, ctx),
    }
}

/// Stage 2 — join the single-flight and produce the capture if this
/// request drew the short straw (locally, or via the shard forward
/// hop). Blocking on another request's in-flight capture parks this
/// worker only; the producer is always actively running on some
/// worker (or a peer), so the wait is on live progress, never on
/// queued work — no scheduling deadlock at any worker count.
fn stage_capture(shared: &Arc<Shared>, h: &WorkerHandle<'_>, mut ctx: StageCtx) {
    let key = ctx.key.expect("capture stage requires a key");
    let c0 = Instant::now();
    let mut produce_time = Duration::ZERO;
    let fetched = {
        let _g = span("svc", "cache_probe");
        let e = &ctx.job.req.experiment;
        let id = &ctx.job.req.id;
        shared.cache.try_get_or_capture(key, || {
            let p0 = Instant::now();
            let t = produce_capture(shared, e, id, key);
            produce_time = p0.elapsed();
            t
        })
    };
    // Resolution (including any single-flight wait) counts as probe
    // time; the production itself is execution work.
    ctx.probe_us += us(c0.elapsed().saturating_sub(produce_time));
    ctx.execute_us += us(produce_time);
    match fetched {
        Ok((log, hit)) => {
            ctx.cache = if hit {
                CacheOutcome::Hit
            } else {
                CacheOutcome::Miss
            };
            ctx.log = Some(log);
            spawn_stage(shared, h, STAGE_REPLAY, ctx);
        }
        Err(err) => {
            ctx.cache = CacheOutcome::Miss;
            ctx.outcome = Some(Err(err));
            spawn_stage(shared, h, STAGE_RENDER, ctx);
        }
    }
}

/// Stage 3 — run the simulation (replay against the capture, or direct
/// execution for traceless modes).
fn stage_replay(shared: &Arc<Shared>, h: &WorkerHandle<'_>, mut ctx: StageCtx) {
    let x0 = Instant::now();
    let outcome = {
        let _g = span("svc", "execute");
        let req = &ctx.job.req;
        match &ctx.log {
            Some(log) => req.experiment.execute_seeded(&req.spec, Some(log)),
            None => req.experiment.execute(&req.spec),
        }
    };
    ctx.execute_us += us(x0.elapsed());
    ctx.outcome = Some(outcome);
    spawn_stage(shared, h, STAGE_RENDER, ctx);
}

/// Stage 4 — render the response line and fold the request into
/// telemetry. The `"result"` object is computed from simulated
/// quantities only, so its bytes do not depend on which worker ran
/// which stage, or in what order.
fn stage_render(shared: &Arc<Shared>, ctx: StageCtx) {
    let StageCtx {
        job,
        queue_us,
        started,
        probe_us,
        execute_us,
        cache,
        key_prefix,
        outcome,
        ..
    } = ctx;
    let done = match outcome.expect("render stage requires an outcome") {
        Ok(out) => JobDone {
            line: ok_response(
                &job.req.id,
                started.elapsed().as_nanos(),
                cache,
                &result_json(&out.report, &job.req.experiment),
            ),
            cache,
            key_prefix,
            error_kind: None,
            // Rendering counts as execution work.
            probe_us,
            execute_us: us(started.elapsed()),
            verdict: out.report.verdict.map(|v| v.label()),
            conv_iterations: out.report.iterations.as_ref().map_or(0, |v| v.len() as u64),
        },
        Err(err) => JobDone {
            line: error_response(&job.req.id, &err),
            cache,
            key_prefix,
            error_kind: Some(error_kind(&err)),
            probe_us,
            execute_us,
            verdict: None,
            conv_iterations: 0,
        },
    };
    shared.svc.exit();
    finish_job(shared, job, queue_us, done);
}

/// One reply owed to the client. The reader queues slots in request
/// order; the writer resolves them one by one.
enum Slot {
    /// Rendered at parse time: protocol errors, `busy`, `ping`.
    Line(String),
    /// A submitted run; its line arrives when the pool finishes it.
    Run(mpsc::Receiver<String>),
    /// Control verbs, rendered when their turn comes so they observe
    /// every earlier run on the connection.
    Stats,
    Metrics,
    Fwd(Box<FwdRequest>),
    Shutdown,
    /// One-shot HTTP scrape (the request line); ends the connection.
    Http(String),
}

fn recv_line(rx: &mpsc::Receiver<String>) -> String {
    rx.recv().unwrap_or_else(|_| {
        r#"{"status":"error","kind":"internal","message":"scheduler dropped the request"}"#.into()
    })
}

/// The `stats` verb's response line: versioned envelope around the
/// telemetry manifest.
fn stats_line(server: &Server) -> String {
    format!(
        r#"{{"status":"ok","version":{},"stats":{}}}"#,
        SVC_STATS_VERSION,
        server.stats_manifest().to_json_compact()
    )
}

/// Serve newline-delimited requests from `reader`, writing one response
/// line per request to `writer` **in request order**. Returns `true`
/// when the stream asked for shutdown.
///
/// The calling thread reads, parses and submits; a scoped writer
/// thread blocks on each owed reply in turn and writes and flushes it
/// the moment it lands. So a lockstep client — one request, wait for
/// the answer — is served as soon as its run finishes, while a
/// pipelining client keeps the pool busy with everything it has sent.
/// Control verbs (`stats`, `metrics`, `fwd`, `shutdown`) are answered
/// when their turn comes, after every earlier reply, so their answers
/// observe all preceding runs. The `metrics` response is the one
/// multi-line answer: Prometheus text terminated by a `# EOF` line.
///
/// A line starting with `GET ` switches the connection to one-shot
/// HTTP: `GET /metrics` and `GET /stats` answer with an `HTTP/1.0`
/// response and close, so standard Prometheus scrapers can poll the
/// same TCP port the line protocol lives on.
pub fn serve_lines<R: BufRead, W: Write + Send>(
    reader: R,
    writer: &mut W,
    server: &Server,
) -> std::io::Result<bool> {
    let (slots, owed) = mpsc::channel();
    std::thread::scope(|s| {
        let out = s.spawn(move || write_replies(owed, writer, server));
        let read = read_requests(reader, slots, server);
        let wrote = out
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        let shutdown = read?;
        wrote.map(|()| shutdown)
    })
}

/// The reader half of [`serve_lines`]: turn each request line into a
/// reply slot. Stops at EOF, `shutdown`, an HTTP request, or once the
/// writer has gone away.
fn read_requests<R: BufRead>(
    mut reader: R,
    slots: mpsc::Sender<Slot>,
    server: &Server,
) -> std::io::Result<bool> {
    let mut buf = String::new();
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            return Ok(false); // EOF
        }
        let line = buf.trim_end_matches(['\r', '\n']);
        if line.trim().is_empty() {
            continue;
        }
        let slot = if line.starts_with("GET ") {
            // One-shot HTTP scrape; drain the request headers first.
            let mut hdr = String::new();
            while reader.read_line(&mut hdr)? > 0 && !hdr.trim().is_empty() {
                hdr.clear();
            }
            Slot::Http(line.to_string())
        } else {
            match parse_request(line) {
                Err(err) => Slot::Line(error_response("", &err)),
                Ok(Request::Run(req)) => match server.submit(*req) {
                    Ok(rx) => Slot::Run(rx),
                    Err(line) => Slot::Line(line),
                },
                Ok(Request::Fwd(freq)) => Slot::Fwd(freq),
                Ok(Request::Ping) => Slot::Line(r#"{"status":"ok","pong":true}"#.into()),
                Ok(Request::Stats) => Slot::Stats,
                Ok(Request::Metrics) => Slot::Metrics,
                Ok(Request::Shutdown) => Slot::Shutdown,
            }
        };
        let shutdown = matches!(slot, Slot::Shutdown);
        let last = shutdown || matches!(slot, Slot::Http(_));
        if slots.send(slot).is_err() || last {
            return Ok(shutdown);
        }
    }
}

/// The writer half of [`serve_lines`]: answer each slot in order,
/// flushing every reply as soon as it is written.
fn write_replies<W: Write>(
    owed: mpsc::Receiver<Slot>,
    writer: &mut W,
    server: &Server,
) -> std::io::Result<()> {
    for slot in owed {
        match slot {
            Slot::Line(line) => writeln!(writer, "{line}")?,
            Slot::Run(rx) => writeln!(writer, "{}", recv_line(&rx))?,
            Slot::Stats => {
                server.shared.svc.incr(SvcCounter::StatsServed);
                writeln!(writer, "{}", stats_line(server))?;
            }
            Slot::Metrics => {
                server.shared.svc.incr(SvcCounter::MetricsServed);
                writer.write_all(server.prometheus_text().as_bytes())?;
                writeln!(writer, "# EOF")?;
            }
            // Peer capture fetch: answered on this connection's writer
            // (it may block in the owner's single-flight, never on a
            // scheduler worker).
            Slot::Fwd(freq) => writeln!(writer, "{}", server.handle_fwd(&freq))?,
            Slot::Shutdown => writeln!(writer, r#"{{"status":"ok","shutting_down":true}}"#)?,
            Slot::Http(request_line) => serve_http_get(&request_line, writer, server)?,
        }
        writer.flush()?;
    }
    Ok(())
}

/// Answer one HTTP GET (`/metrics`, `/stats`) and close. HTTP/1.0 +
/// `Connection: close` keeps this a strict one-shot: no keep-alive, no
/// chunking, nothing for a scraper to misread.
fn serve_http_get<W: Write>(
    request_line: &str,
    writer: &mut W,
    server: &Server,
) -> std::io::Result<()> {
    let path = request_line
        .strip_prefix("GET ")
        .unwrap_or("")
        .split_whitespace()
        .next()
        .unwrap_or("/");
    let (status, ctype, body) = match path {
        "/metrics" => {
            server.shared.svc.incr(SvcCounter::MetricsServed);
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                server.prometheus_text(),
            )
        }
        "/stats" => {
            server.shared.svc.incr(SvcCounter::StatsServed);
            (
                "200 OK",
                "application/json",
                format!("{}\n", stats_line(server)),
            )
        }
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "unknown path; try /metrics or /stats\n".to_string(),
        ),
    };
    write!(
        writer,
        "HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    writer.flush()
}

/// Serve the line protocol over TCP until a connection sends
/// `shutdown`. One thread per connection; the accept loop polls so it
/// can notice the shutdown flag. Returns after the graceful drain.
pub fn serve_tcp(listener: std::net::TcpListener, server: Server) -> std::io::Result<()> {
    use std::sync::atomic::AtomicBool;
    listener.set_nonblocking(true)?;
    let server = Arc::new(server);
    let stop = Arc::new(AtomicBool::new(false));
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let server = Arc::clone(&server);
                let stop = Arc::clone(&stop);
                conns.push(std::thread::spawn(move || {
                    stream.set_nonblocking(false).ok();
                    // Each reply leaves in one buffered write plus one
                    // flush; without nodelay that segment would wait on
                    // the client's delayed ACK of the previous one.
                    stream.set_nodelay(true).ok();
                    let Ok(read_half) = stream.try_clone() else {
                        return;
                    };
                    let reader = std::io::BufReader::new(read_half);
                    let mut writer = std::io::BufWriter::new(stream);
                    if let Ok(true) = serve_lines(reader, &mut writer, &server) {
                        stop.store(true, Ordering::SeqCst);
                    }
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }
    for c in conns {
        let _ = c.join();
    }
    server.drain();
    Ok(())
}
