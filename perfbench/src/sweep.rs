//! The `sweep` workload: the release `sctmd` on a loopback port, driven
//! closed-loop by pooled `sctm_client::Client` connections, plus the
//! service-layer probe every traced run shares.

use crate::calib::Scaled;
use crate::layers::Pair;
use crate::stats::{describe, median, peak_rss_mb, quantile};
use crate::{Args, Outcome};
use sctm_client::{Client, ClientOptions, Response};
use sctm_core::NetworkKind;
use sctm_engine::stats::rel_err_pct;
use sctm_srv::proto::{parse_request, result_json, Request};
use sctm_workloads::Kernel;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Scheduler workers of the daemon, and closed-loop client connections.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const SIDE: usize = 4;
const OPS: usize = 600;
const KERNELS: [Kernel; 3] = [Kernel::Fft, Kernel::Lu, Kernel::Canneal];
const NETS: [NetworkKind; 4] = [
    NetworkKind::Omesh,
    NetworkKind::Oxbar,
    NetworkKind::Obus,
    NetworkKind::Hybrid,
];
/// Workload seed of every design point: a sweep varies the design, not
/// the application. `--seed` orders the requests and picks the fresh
/// (cache-missing) workload seeds.
const POINT_SEED: u64 = 1;
/// Daemon boots (each followed by the cache-warming captures) whose
/// median is `setup_s`; the last one serves the timed window.
const SETUP_REPEATS: usize = 3;
/// Capture-cache budget: the three warm captures plus ~30 fresh ones,
/// so fresh misses evict each other within the window and the
/// daemon's footprint levels off instead of growing with throughput.
const CACHE_MB: usize = 32;
/// Nominal wall of one cycle of the mix on the reference host; a run
/// sends `--seconds / CYCLE_S` whole cycles, three at least.
const CYCLE_S: f64 = 14.0;
/// Requests between two calibration rounds (half a cycle). The
/// clients drain at each segment's end, so the daemon is idle while
/// the benchmark calibrates.
const SEGMENT: usize = 120;
/// Nominal wall of one round of the traced run at 16 cores.
const TRACED_ROUND_S: f64 = 1.0;

/// A running `sctmd`, stopped (and waited for) on drop.
pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
}

fn client_opts() -> ClientOptions {
    ClientOptions {
        io_timeout_ms: 120_000,
        pool_cap: 1,
        max_busy_retries: 0,
    }
}

impl Daemon {
    /// Boot `sctmd` and wait for its first `ping` reply.
    pub fn start(bin: &Path, log_dir: Option<&Path>) -> Result<Daemon, String> {
        let mut last_err = String::new();
        // A port picked by binding :0 can be taken before sctmd binds
        // it; retry on a fresh one if the daemon dies at start-up.
        for _ in 0..3 {
            let port = std::net::TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map_err(|e| format!("pick a port: {e}"))?
                .port();
            let addr = format!("127.0.0.1:{port}");
            let mut cmd = Command::new(bin);
            cmd.args(["--listen", &addr, "--workers", &WORKERS.to_string()])
                .args(["--cache-mb", &CACHE_MB.to_string()])
                .env("SCTM_THREADS", "1")
                .env_remove("SCTM_OBS")
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null());
            if let Some(d) = log_dir {
                cmd.arg("--log-dir").arg(d);
            }
            let child = cmd
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
            let mut d = Daemon {
                child: Some(child),
                addr,
            };
            let t = Instant::now();
            while t.elapsed() < Duration::from_secs(20) {
                if let Ok(c) = Client::connect_with(&d.addr, client_opts()) {
                    if c.ping().is_ok() {
                        return Ok(d);
                    }
                }
                if let Some(st) = d.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                    last_err = format!("sctmd exited at start-up: {st}");
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            if last_err.is_empty() {
                last_err = "sctmd did not answer ping within 20 s".into();
            }
            d.kill();
        }
        Err(last_err)
    }

    pub fn client(&self) -> Result<Client, String> {
        Client::connect_with(&self.addr, client_opts()).map_err(|e| format!("connect: {e}"))
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(self.child.as_ref().map(|c| c.id()))
    }

    /// Ask the daemon to shut down and wait for it; kill it if it does
    /// not exit within 10 s.
    pub fn stop(mut self) -> Result<(), String> {
        let acked = self
            .client()
            .and_then(|c| c.shutdown().map_err(|e| e.to_string()));
        let mut child = self.child.take().expect("daemon not yet stopped");
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(10) {
            if let Some(st) = child.try_wait().map_err(|e| e.to_string())? {
                return match acked {
                    Ok(()) if st.success() => Ok(()),
                    Ok(()) => Err(format!("sctmd exited with {st}")),
                    Err(e) => Err(format!("shutdown: {e}")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = child.kill();
        let _ = child.wait();
        Err("sctmd ignored shutdown for 10 s".into())
    }

    fn kill(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The `result` object of an `ok` response: the deterministic part,
/// which excludes host wall time and the cache outcome.
pub fn result_of(line: &str) -> Option<&str> {
    let i = line.find("\"result\":")?;
    line[i + "\"result\":".len()..].strip_suffix('}')
}

/// The `value` of a named metric in a manifest JSON object.
pub fn metric_value(json: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{key}\""))?;
    let rest = &json[at..];
    let v = &rest[rest.find("\"value\":")? + "\"value\":".len()..];
    let v = v.trim_start();
    let end = v
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(v.len());
    v[..end].parse().ok()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    /// Replay-only self-correcting pass on a warmed capture.
    Pass,
    /// Replay-only classic trace on a warmed capture.
    Classic,
    /// Replay-only oracle trace on a warmed capture.
    Oracle,
    /// Full self-correction loop (iteration 1 from the cache).
    Loop,
    /// Exec-driven reference on the point's network (cache bypass).
    Exec,
    /// Exec-driven emesh baseline of the point's kernel (cache bypass).
    Emesh,
    /// Replay-only pass on a fresh seed: capture, freeze, insert.
    Fresh,
}

/// Requests per design point per cycle: 60 % replay-only hits, 15 %
/// loops, 10 % exec-driven, 15 % fresh-seed misses.
const RECIPE: [(Kind, usize); 7] = [
    (Kind::Pass, 4),
    (Kind::Classic, 4),
    (Kind::Oracle, 4),
    (Kind::Loop, 3),
    (Kind::Exec, 1),
    (Kind::Emesh, 1),
    (Kind::Fresh, 3),
];

#[derive(Clone, Copy)]
struct Slot {
    kind: Kind,
    kernel: Kernel,
    net: NetworkKind,
    point: usize,
}

fn line(s: &Slot, seed: u64) -> String {
    let (net, mode) = match s.kind {
        Kind::Pass | Kind::Fresh => (s.net, "mode=sctm replay=1"),
        Kind::Classic => (s.net, "mode=classic-trace replay=1"),
        Kind::Oracle => (s.net, "mode=oracle-trace replay=1"),
        Kind::Loop => (s.net, "mode=sctm iters=4"),
        Kind::Exec => (s.net, "mode=exec-driven"),
        Kind::Emesh => (NetworkKind::Emesh, "mode=exec-driven"),
    };
    format!(
        "run kernel={} net={} side={SIDE} ops={OPS} seed={seed} {mode} id=t",
        s.kernel.label(),
        net.label()
    )
}

/// splitmix64: the request-order shuffle needs no more.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Workload seed of the fresh request issued `i`-th: distinct for every
/// `i` and never [`POINT_SEED`], so each one misses the cache.
fn fresh_seed(seed: u64, i: usize) -> u64 {
    (seed % 1_000_000) * 1_000_000 + 1_000 + i as u64
}

/// One shuffled cycle of the mix over every design point.
fn cycle(seed: u64) -> Vec<Slot> {
    let mut slots = Vec::new();
    for (ki, &kernel) in KERNELS.iter().enumerate() {
        for (ni, &net) in NETS.iter().enumerate() {
            for &(kind, n) in &RECIPE {
                slots.extend((0..n).map(|_| Slot {
                    kind,
                    kernel,
                    net,
                    point: ki * NETS.len() + ni,
                }));
            }
        }
    }
    let mut state = seed;
    for i in (1..slots.len()).rev() {
        let j = (mix(&mut state) % (i as u64 + 1)) as usize;
        slots.swap(i, j);
    }
    slots
}

struct Done {
    slot: Slot,
    line: String,
    /// Client-side latency, with the daemon's share of it scaled by the
    /// run's calibration (see [`run`]).
    latency_s: f64,
    /// The `ok` response line, or what went wrong.
    resp: Result<String, String>,
}

impl Done {
    /// The daemon's own wall for the request (`wall_ns` of the reply).
    fn server_s(&self) -> f64 {
        self.resp
            .as_deref()
            .ok()
            .and_then(|r| sctm_client::wire::json_u64_field(r, "wall_ns"))
            .map_or(0.0, |ns| ns as f64 / 1e9)
    }
}

/// Boot the daemon and warm its cache with one capture per kernel.
fn boot_and_warm(bin: &Path, log_dir: Option<&Path>) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let d = Daemon::start(bin, log_dir)?;
    let c = d.client()?;
    for k in KERNELS {
        let l = format!(
            "run kernel={} net=omesh side={SIDE} ops={OPS} seed={POINT_SEED} mode=classic-trace replay=1 id=warm",
            k.label()
        );
        c.call(&l).map_err(|e| format!("warm {l}: {e}"))?;
    }
    Ok((d, t.elapsed().as_secs_f64()))
}

/// Closed loop: each client sends its next request when the previous
/// one returns, until requests `range` (indices into the repeated
/// cycle `slots`) have all been sent.
fn window(
    d: &Daemon,
    slots: &[Slot],
    seed: u64,
    range: std::ops::Range<usize>,
) -> Result<Vec<Done>, String> {
    let next = Mutex::new(range.start);
    let take = || {
        let mut n = next.lock().expect("no client panics holding the index");
        let i = *n;
        *n += 1;
        (i < range.end).then_some(i)
    };
    let per_client: Vec<Result<Vec<Done>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let client = d.client()?;
                    let mut done = Vec::new();
                    while let Some(i) = take() {
                        let slot = slots[i % slots.len()];
                        let s = match slot.kind {
                            Kind::Fresh => fresh_seed(seed, i),
                            _ => POINT_SEED,
                        };
                        let l = line(&slot, s);
                        let t = Instant::now();
                        let resp = match client.call_once(&l) {
                            Ok(Response::Ok { line }) => Ok(line),
                            Ok(other) => Err(format!("{other:?}")),
                            Err(e) => Err(e.to_string()),
                        };
                        done.push(Done {
                            slot,
                            line: l,
                            latency_s: t.elapsed().as_secs_f64(),
                            resp,
                        });
                    }
                    Ok(done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for r in per_client {
        all.extend(r?);
    }
    Ok(all)
}

fn err_pair(est: &str, reference: &str, key: &str) -> Option<f64> {
    Some(rel_err_pct(
        metric_value(est, key)?,
        metric_value(reference, key)?,
    ))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = args
        .sctmd
        .as_deref()
        .ok_or("the sweep workload needs --sctmd")?;
    let log_dir = args.trace.then(|| args.work_dir.join("sctmd-log"));
    // The daemon, the clients and the calibration helpers share the
    // same CPUs, one helper on each (see `calib`).
    let mut cpus = crate::calib::allowed_cpus()?;
    cpus.truncate(WORKERS);
    crate::calib::pin(&cpus)?;
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_REPEATS {
        let (d, s) = boot_and_warm(bin, log_dir.as_deref())?;
        setups.push(s);
        if i + 1 < SETUP_REPEATS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let d = daemon.expect("SETUP_REPEATS > 0");
    let admin = d.client()?;
    let stats0 = admin.stats().map_err(|e| format!("stats: {e}"))?;
    let slots = cycle(args.seed);
    // Whole cycles, sent in segments with calibration rounds before,
    // between and after them. Only the daemon's share of a request's
    // latency is host compute, so only that share is scaled, by the
    // median round (see `calib`); the rest (the wire, the kernel's TCP
    // timers) is left as measured.
    let total = slots.len() * crate::apps::repeats(args.seconds, CYCLE_S, 3);
    let mut cal = Scaled::start(&cpus)?;
    cal.mark()?;
    let mut done = Vec::new();
    for start in (0..total).step_by(SEGMENT) {
        done.extend(window(
            &d,
            &slots,
            args.seed,
            start..(start + SEGMENT).min(total),
        )?);
        cal.mark()?;
    }
    let f = cal.factor(0.5);
    for x in &mut done {
        x.latency_s += x.server_s() * (f - 1.0);
    }
    let stats1 = admin.stats().map_err(|e| format!("stats: {e}"))?;
    let rss = d.peak_rss_mb()?;
    let mut out = Outcome {
        attempted: done.len() as u64,
        failed: done.iter().filter(|x| x.resp.is_err()).count() as u64,
        ..Outcome::default()
    };

    // Correctness: every response ok, and one result per request line.
    let mut by_line: BTreeMap<&str, &str> = BTreeMap::new();
    let mut mismatched = 0;
    for x in &done {
        match &x.resp {
            Err(e) => out.check(false, format!("{}: {e}", x.line)),
            Ok(resp) => match result_of(resp) {
                None => out.check(false, format!("no result in response to {}", x.line)),
                Some(r) => {
                    if *by_line.entry(&x.line).or_insert(r) != r {
                        mismatched += 1;
                    }
                }
            },
        }
    }
    out.check(
        mismatched == 0,
        format!("{mismatched} responses differ from an earlier response to the same line"),
    );
    // Accuracy over the design points: first loop vs first exec result.
    let first = |kind: Kind, point: usize| {
        done.iter()
            .find(|x| x.slot.kind == kind && x.slot.point == point)
            .and_then(|x| x.resp.as_ref().ok())
            .and_then(|r| result_of(r))
    };
    let (mut errs, mut data_errs) = (Vec::new(), Vec::new());
    for p in 0..KERNELS.len() * NETS.len() {
        match (first(Kind::Loop, p), first(Kind::Exec, p)) {
            (Some(est), Some(reference)) => {
                errs.extend(err_pair(est, reference, "run.exec_time_ps"));
                data_errs.extend(err_pair(est, reference, "run.mean_lat_data_ns"));
            }
            _ => out.check(
                false,
                format!("design point {p} lacks a loop or exec result"),
            ),
        }
    }
    out.check(
        errs.len() == KERNELS.len() * NETS.len() && data_errs.len() == errs.len(),
        "unparseable exec time or data latency in a result",
    );
    let lat = |kind: Kind| -> Vec<f64> {
        done.iter()
            .filter(|x| x.slot.kind == kind)
            .map(|x| x.latency_s)
            .collect()
    };
    // A kind's wall: the mean over design points of each point's median
    // latency, so points with different costs weigh the same in every run.
    let kind_wall = |kind: Kind| -> f64 {
        let points = KERNELS.len() * NETS.len();
        (0..points)
            .map(|p| {
                let v: Vec<f64> = done
                    .iter()
                    .filter(|x| x.slot.kind == kind && x.slot.point == p)
                    .map(|x| x.latency_s)
                    .collect();
                median(&v)
            })
            .sum::<f64>()
            / points as f64
    };
    let all: Vec<f64> = done.iter().map(|x| x.latency_s * 1e3).collect();
    let ok = done.iter().filter(|x| x.resp.is_ok()).count();
    for (name, kind) in [
        ("loop", Kind::Loop),
        ("exec", Kind::Exec),
        ("emesh", Kind::Emesh),
        ("classic", Kind::Classic),
        ("pass", Kind::Pass),
        ("oracle", Kind::Oracle),
        ("fresh", Kind::Fresh),
    ] {
        let v: Vec<f64> = lat(kind).iter().map(|s| s * 1e3).collect();
        println!("{}", describe(&format!("sweep {name} latency"), "ms", &v));
    }
    println!("{}", describe("sweep request latency", "ms", &all));
    println!("sweep setups (s): {setups:?}");
    println!("calibration rounds (s): {:?}", cal.rounds());

    // In-process spot check, outside the timed window: the first
    // response of every kind equals the library's own rendering.
    for kind in [
        Kind::Pass,
        Kind::Classic,
        Kind::Oracle,
        Kind::Loop,
        Kind::Exec,
        Kind::Emesh,
        Kind::Fresh,
    ] {
        let Some(x) = done.iter().find(|x| x.slot.kind == kind && x.resp.is_ok()) else {
            out.check(false, format!("no ok response of kind {kind:?}"));
            continue;
        };
        let want = match parse_request(&x.line) {
            Ok(Request::Run(req)) => {
                let exp = req.experiment.clone().with_capture_threads(1);
                exp.execute(&req.spec)
                    .map(|o| result_json(&o.report, &exp))
                    .map_err(|e| e.to_string())
            }
            Ok(_) => Err("not a run request".into()),
            Err(e) => Err(e.to_string()),
        };
        let got = x.resp.as_deref().ok().and_then(result_of);
        out.check(
            want.as_deref().ok() == got,
            format!(
                "{}: daemon result differs from in-process execute ({want:?})",
                x.line
            ),
        );
    }

    if args.trace {
        srv_metrics(
            &mut out,
            &admin,
            log_dir.as_deref().expect("traced runs log"),
            (&stats0, &stats1),
            done.iter()
                .filter(|x| matches!(&x.resp, Err(e) if e.contains("Busy")))
                .count(),
        )?;
        drop(admin);
        d.stop()?;
        let pairs = [
            Pair {
                kernel: Kernel::Fft,
                net: NetworkKind::Omesh,
                side: SIDE,
                ops: OPS,
            },
            Pair {
                kernel: Kernel::Canneal,
                net: NetworkKind::Oxbar,
                side: SIDE,
                ops: OPS,
            },
        ];
        let rounds = crate::apps::repeats(args.seconds, TRACED_ROUND_S, 1);
        crate::apps::traced_layers(&pairs, POINT_SEED, rounds, &mut out)?;
    } else {
        drop(admin);
        d.stop()?;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        out.metric("setup_s", median(&setups), "s");
        out.metric("sctm_wall_s", kind_wall(Kind::Loop), "s");
        out.metric("exec_wall_s", kind_wall(Kind::Exec), "s");
        out.metric("emesh_wall_s", kind_wall(Kind::Emesh), "s");
        out.metric("classic_wall_s", kind_wall(Kind::Classic), "s");
        out.metric("sctm_err_pct", mean(&errs), "%");
        out.metric("sctm_data_lat_err_pct", mean(&data_errs), "%");
        out.metric("peak_rss_mb", rss, "MiB");
        // Closed-loop throughput of the clients at the scaled latencies.
        let busy_s: f64 = done.iter().map(|x| x.latency_s).sum();
        out.metric("sweep_rps", (CLIENTS * ok) as f64 / busy_s, "1/s");
        out.metric("req_p50_ms", quantile(&all, 0.50), "ms");
        out.metric("req_p95_ms", quantile(&all, 0.95), "ms");
    }
    Ok(out)
}

/// Service-layer metrics: per-request phase times from the daemon's
/// request log (timed requests only, `id=t`), cache economics from the
/// `stats` delta over the window, and the client's `ping` round trip.
fn srv_metrics(
    out: &mut Outcome,
    admin: &Client,
    log_dir: &Path,
    (stats0, stats1): (&str, &str),
    busy: usize,
) -> Result<(), String> {
    let mut rtt = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        admin.ping().map_err(|e| format!("ping: {e}"))?;
        rtt.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let log = read_log(&log_dir.join("sctmd.log.jsonl"))?;
    let field = |name: &str, probed_only: bool| -> Vec<f64> {
        log.iter()
            .filter(|l| l.contains("\"id\":\"t\""))
            .filter(|l| !probed_only || !l.contains("\"cache\":\"bypass\""))
            .filter_map(|l| sctm_client::wire::json_u64_field(l, name))
            .map(|us| us as f64 / 1e3)
            .collect()
    };
    let exec = field("execute_us", false);
    let probe = field("probe_us", true);
    let wait = field("queue_us", false);
    if exec.is_empty() || probe.is_empty() {
        return Err("the request log holds no timed requests".into());
    }
    let delta =
        |k: &str| metric_value(stats1, k).unwrap_or(0.0) - metric_value(stats0, k).unwrap_or(0.0);
    let (hits, misses) = (delta("srv.cache.hits"), delta("srv.cache.misses"));
    out.metric("srv.exec_ms_p50", median(&exec), "ms");
    out.metric("srv.cache_probe_ms_p50", median(&probe), "ms");
    out.metric("srv.wait_ms_p95", quantile(&wait, 0.95), "ms");
    out.metric(
        "srv.busy_responses",
        busy as f64 + delta("srv.rejected"),
        "count",
    );
    out.metric(
        "srv.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    out.metric("client.ping_rtt_us", median(&rtt), "us");
    Ok(())
}

fn read_log(path: &PathBuf) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text.lines().map(str::to_string).collect())
}

/// The service-layer probe of a traced `flagship`/`heldout_apps` run:
/// each design point as a replay-only request, sent twice (a capture
/// miss, then a hit), through a daemon that logs every request.
pub fn srv_probe(
    bin: &Path,
    work_dir: &Path,
    pairs: &[Pair],
    seed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let log_dir = work_dir.join("sctmd-log");
    let d = Daemon::start(bin, Some(&log_dir))?;
    let admin = d.client()?;
    let stats0 = admin.stats().map_err(|e| format!("stats: {e}"))?;
    let mut results: BTreeMap<String, String> = BTreeMap::new();
    for p in pairs {
        let l = format!(
            "run kernel={} net={} side={} ops={} seed={seed} mode=sctm replay=1 id=t",
            p.kernel.label(),
            p.net.label(),
            p.side,
            p.ops
        );
        for _ in 0..2 {
            out.attempted += 1;
            let resp = admin.call(&l).map_err(|e| format!("{l}: {e}"))?;
            let r = result_of(&resp)
                .ok_or("response without result")?
                .to_string();
            let same = results.entry(l.clone()).or_insert_with(|| r.clone()) == &r;
            out.check(same, format!("{l}: hit and miss results differ"));
        }
    }
    let stats1 = admin.stats().map_err(|e| format!("stats: {e}"))?;
    srv_metrics(out, &admin, &log_dir, (&stats0, &stats1), 0)?;
    drop(admin);
    d.stop()
}
