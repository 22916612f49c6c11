//! `sctmd` — the SCTM simulation daemon.
//!
//! ```text
//! sctmd --stdin                      # serve requests from stdin (CI mode)
//! sctmd --listen 127.0.0.1:4710     # serve the line protocol over TCP
//! sctmd --stdin --cache-mb 64 --queue 32 --timeout-ms 10000
//! sctmd --listen 127.0.0.1:4710 --log-dir /var/log/sctmd
//! sctmd --listen 127.0.0.1:4710 --workers 8
//! sctmd --listen 127.0.0.1:4711 \
//!       --peers 127.0.0.1:4710,127.0.0.1:4711   # shard the capture cache
//! ```
//!
//! Scheduling: each request's probe → capture → replay → render
//! stages pipeline across a work-stealing pool of `--workers` threads
//! (default `SCTM_THREADS`, else all cores). Every reply is written
//! and flushed as soon as it is ready, in request order.
//! Shard mode: `--peers` lists every instance's *listen* address
//! (comma-separated, including this one — matched against `--listen`,
//! or set explicitly with `--shard-self`); capture misses on keys
//! owned by a peer are forwarded over the `fwd` verb.
//!
//! One request per line, one JSON response line per request; see
//! `DESIGN.md` §10–12 and the README quickstart for the protocol.
//!
//! Diagnostics are structured: every daemon-level event is one JSON
//! line on stderr (`{"ts_ms":…,"event":…}`), and with `--log-dir DIR`
//! (or the `SCTM_LOG` environment variable, mirroring `SCTM_OBS`
//! conventions) per-request lifecycle records are appended to
//! `DIR/sctmd.log.jsonl` with size-based rotation.

use sctm_obs::reqlog::{json_line, quoted, RequestLog};
use sctm_srv::shard::ShardRing;
use sctm_srv::{serve_lines, serve_tcp, Server, ServerConfig, Shard};
use std::sync::Arc;

/// One structured daemon event on stderr: `{"ts_ms":…,"event":"…",…}`.
fn log_stderr(event: &str, extra: &[(&str, String)]) {
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let mut fields: Vec<(&str, String)> = vec![("ts_ms", ts.to_string()), ("event", quoted(event))];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    eprintln!("{}", json_line(&fields));
}

fn usage() -> ! {
    log_stderr(
        "usage",
        &[(
            "message",
            quoted(
                "sctmd (--stdin | --listen ADDR) [--cache-mb N] [--queue N] \
                 [--timeout-ms N] [--log-dir DIR] [--workers N] \
                 [--peers A,B,...] [--shard-self ADDR]",
            ),
        )],
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut stdin_mode = false;
    let mut listen: Option<String> = None;
    let mut log_dir: Option<String> = std::env::var("SCTM_LOG")
        .ok()
        .filter(|v| !matches!(v.as_str(), "" | "0" | "false" | "off"));
    let mut peers: Vec<String> = Vec::new();
    let mut shard_self: Option<String> = None;
    let mut cfg = ServerConfig::default();

    let mut i = 0;
    let num = |args: &[String], i: &mut usize| -> u64 {
        *i += 1;
        args.get(*i)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--stdin" => stdin_mode = true,
            "--listen" => {
                i += 1;
                listen = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--cache-mb" => cfg.cache_bytes = (num(&args, &mut i) as usize) << 20,
            "--queue" => cfg.queue_cap = num(&args, &mut i) as usize,
            "--timeout-ms" => cfg.default_timeout_ms = num(&args, &mut i),
            "--workers" => cfg.workers = num(&args, &mut i) as usize,
            "--peers" => {
                i += 1;
                peers = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| usage())
                    .split(',')
                    .map(|p| p.trim().to_string())
                    .filter(|p| !p.is_empty())
                    .collect();
            }
            "--shard-self" => {
                i += 1;
                shard_self = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--log-dir" => {
                i += 1;
                log_dir = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    if stdin_mode == listen.is_some() {
        usage(); // exactly one front-end
    }

    let log = log_dir.map(|dir| match RequestLog::create(std::path::Path::new(&dir)) {
        Ok(log) => {
            log_stderr(
                "request-log",
                &[("path", quoted(&log.path().display().to_string()))],
            );
            Arc::new(log)
        }
        Err(e) => {
            log_stderr(
                "error",
                &[
                    ("message", quoted(&format!("cannot open request log: {e}"))),
                    ("dir", quoted(&dir)),
                ],
            );
            std::process::exit(1);
        }
    });

    let shard = if peers.is_empty() {
        None
    } else {
        // The self address defaults to the listen address; stdin mode
        // has no listen address, so sharded stdin requires --shard-self.
        let self_addr = shard_self.or_else(|| listen.clone()).unwrap_or_else(|| {
            log_stderr(
                "error",
                &[(
                    "message",
                    quoted("--peers with --stdin requires --shard-self"),
                )],
            );
            std::process::exit(2);
        });
        match ShardRing::new(peers, &self_addr) {
            Ok(ring) => {
                log_stderr(
                    "shard",
                    &[
                        ("peers", ring.peers().len().to_string()),
                        ("self", quoted(ring.self_addr())),
                    ],
                );
                Some(Shard::new(ring))
            }
            Err(e) => {
                log_stderr("error", &[("message", quoted(&e.to_string()))]);
                std::process::exit(2);
            }
        }
    };

    let server = Server::start_sharded(cfg, shard, log);
    if stdin_mode {
        // `Stdout`, not its lock: the reply writer runs on its own
        // thread, and a `StdoutLock` cannot move there.
        let res = serve_lines(std::io::stdin().lock(), &mut std::io::stdout(), &server);
        server.drain();
        if let Err(e) = res {
            log_stderr("error", &[("message", quoted(&e.to_string()))]);
            std::process::exit(1);
        }
    } else if let Some(addr) = listen {
        let listener = match std::net::TcpListener::bind(&addr) {
            Ok(l) => l,
            Err(e) => {
                log_stderr(
                    "error",
                    &[
                        ("message", quoted(&format!("cannot bind: {e}"))),
                        ("addr", quoted(&addr)),
                    ],
                );
                std::process::exit(1);
            }
        };
        log_stderr("listening", &[("addr", quoted(&addr))]);
        if let Err(e) = serve_tcp(listener, server) {
            log_stderr("error", &[("message", quoted(&e.to_string()))]);
            std::process::exit(1);
        }
    }
}
