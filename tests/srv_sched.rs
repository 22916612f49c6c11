//! Determinism contract of the work-stealing scheduler and the sharded
//! multi-instance cache: the staged pipeline must answer
//! byte-identically at any worker count, with every `"result"` equal
//! to a direct `Experiment::execute`; a two-instance shard must answer
//! byte-identically to a single instance while capturing each workload
//! exactly once *cluster-wide*; and a lockstep client whose connection
//! stays open must get each reply without sending another byte.
//!
//! Responses are compared whole, after masking the one wall-clock field
//! (`wall_ns`) a scheduler may legitimately change.

use sctm_client::Client;
use sctm_srv::{
    parse_request, result_json, serve_lines, serve_tcp, Request, RunRequest, Server, ServerConfig,
    Shard, ShardRing,
};

fn run_req(line: &str) -> RunRequest {
    match parse_request(line).expect("parse") {
        Request::Run(r) => *r,
        other => panic!("expected run, got {other:?}"),
    }
}

/// Mask the wall-clock field: `"wall_ns":12345` → `"wall_ns":#`.
/// Everything else in a response line is simulated or structural, so
/// after masking, byte equality is the determinism assertion.
fn mask_wall(line: &str) -> String {
    match line.find(r#""wall_ns":"#) {
        None => line.to_string(),
        Some(at) => {
            let digits_at = at + r#""wall_ns":"#.len();
            let digits_end = line[digits_at..]
                .find(|c: char| !c.is_ascii_digit())
                .map(|n| digits_at + n)
                .unwrap_or(line.len());
            format!(
                "{}#{}",
                &line[..at + r#""wall_ns":"#.len()],
                &line[digits_end..]
            )
        }
    }
}

/// A deterministic script exercising every stage path: cache misses,
/// hits, traceless bypass, seeded replay, and typed errors.
fn script() -> Vec<&'static str> {
    vec![
        "run kernel=fft net=omesh side=2 ops=150 mode=classic-trace id=a1",
        "run kernel=fft net=oxbar side=2 ops=150 mode=sctm iters=2 id=a2",
        "run kernel=lu net=emesh side=2 ops=150 mode=sctm iters=2 damping=0.7 id=a3",
        "run kernel=fft net=omesh side=2 ops=150 mode=exec-driven id=a4",
        "run kernel=barnes net=hybrid side=2 ops=150 mode=oracle-trace id=a5",
        "run kernel=fft net=obus side=2 ops=150 mode=classic-trace id=a6",
        "run kernel=lu net=omesh side=2 ops=150 mode=sctm iters=3 replay=1 id=a7",
        "run kernel=nosuch id=a8",
        "run kernel=fft net=subspace id=a9",
        "run kernel=barnes net=oxbar side=2 ops=150 mode=sctm iters=2 id=a10",
    ]
}

fn answers(server: &Server) -> Vec<String> {
    // Drive the production front-end (`serve_lines`) so the comparison
    // also pins response *ordering* under the steal scheduler.
    let text = format!("{}\n", script().join("\n"));
    let mut out = Vec::new();
    serve_lines(text.as_bytes(), &mut out, server).expect("serve");
    server.drain();
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(mask_wall)
        .collect()
}

#[test]
fn any_worker_count_answers_byte_identically_and_matches_direct_execute() {
    let reference = answers(&Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }));
    assert!(
        reference.iter().any(|l| l.contains(r#""cache":"hit""#)),
        "script never warms the cache — weak test"
    );
    assert!(
        reference.iter().any(|l| l.contains(r#""status":"error""#)),
        "script never errors — weak test"
    );
    // Every answer that carries a result equals the library path with
    // no service in between.
    for (line, answer) in script().iter().zip(&reference) {
        let Ok(Request::Run(req)) = parse_request(line) else {
            assert!(answer.contains(r#""status":"error""#), "{answer}");
            continue;
        };
        let direct = req.experiment.execute(&req.spec).expect("execute").report;
        let want = format!(r#""result":{}}}"#, result_json(&direct, &req.experiment));
        let at = answer
            .find(r#""result":"#)
            .unwrap_or_else(|| panic!("no result object in {answer}"));
        assert_eq!(&answer[at..], want, "{line}");
    }
    for workers in [4usize, 8] {
        let got = answers(&Server::start(ServerConfig {
            workers,
            ..ServerConfig::default()
        }));
        assert_eq!(got, reference, "{workers} workers diverged from 1 worker");
    }
}

#[test]
fn steal_keeps_the_one_capture_per_sweep_economics() {
    // The §P5 invariant under the staged pipeline: 50 configs over one
    // workload still cost exactly one capture.
    let server = Server::start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let mut rxs = Vec::new();
    for n in 0..50 {
        let damping = ["0.4", "0.6", "0.8", "0.9", "1.0"][n % 5];
        let net = ["emesh", "omesh", "oxbar", "hybrid", "obus"][n / 10];
        let req = run_req(&format!(
            "run kernel=fft net={net} side=2 ops=150 mode=sctm iters=2 \
             damping={damping} replay=1 id=s{n}"
        ));
        rxs.push(server.submit(req).expect("enqueue"));
    }
    let lines: Vec<String> = rxs.into_iter().map(|rx| rx.recv().unwrap()).collect();
    for line in &lines {
        assert!(line.starts_with(r#"{"status":"ok""#), "{line}");
    }
    let stats = server.cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 49), "{stats:?}");
}

fn stats_counter(doc: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": {{\"kind\"");
    let at = doc
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {doc}"));
    let tail = &doc[at..];
    let vkey = "\"value\": ";
    let vat = tail.find(vkey).expect("value field") + vkey.len();
    tail[vat..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("numeric value")
}

#[test]
fn two_instance_shard_captures_once_cluster_wide_and_matches_single() {
    // Two daemons sharding one capture cache. The sweep alternates
    // between instances, so whichever instance does not own the
    // workload's key must forward over `fwd` instead of capturing.
    let sweep: Vec<String> = (0..20)
        .map(|n| {
            let damping = ["0.4", "0.6", "0.8", "0.9", "1.0"][n % 5];
            let net = ["emesh", "omesh", "oxbar", "hybrid"][n / 5];
            format!(
                "run kernel=fft net={net} side=2 ops=150 mode=sctm iters=2 \
                 damping={damping} replay=1 id=w{n}"
            )
        })
        .collect();

    // Reference: the same sweep against one unsharded instance.
    let reference: Vec<String> = {
        let server = Server::start(ServerConfig::default());
        let out = sweep
            .iter()
            .map(|l| mask_wall(&server.submit_blocking(run_req(l))))
            .collect();
        server.drain();
        out
    };

    // Bind both listeners first so each ring lists real addresses.
    let la = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a");
    let lb = std::net::TcpListener::bind("127.0.0.1:0").expect("bind b");
    let addr_a = la.local_addr().unwrap().to_string();
    let addr_b = lb.local_addr().unwrap().to_string();
    let peers = vec![addr_a.clone(), addr_b.clone()];
    let ring_a = ShardRing::new(peers.clone(), &addr_a).unwrap();
    let ring_b = ShardRing::new(peers, &addr_b).unwrap();
    let srv_a = Server::start_sharded(ServerConfig::default(), Some(Shard::new(ring_a)), None);
    let srv_b = Server::start_sharded(ServerConfig::default(), Some(Shard::new(ring_b)), None);
    let da = std::thread::spawn(move || serve_tcp(la, srv_a));
    let db = std::thread::spawn(move || serve_tcp(lb, srv_b));

    let ca = Client::connect(&addr_a).expect("dial a");
    let cb = Client::connect(&addr_b).expect("dial b");
    let mut got = Vec::new();
    for (i, line) in sweep.iter().enumerate() {
        let c = if i % 2 == 0 { &ca } else { &cb };
        let reply = c.call(line).unwrap_or_else(|e| panic!("call {i}: {e}"));
        got.push(mask_wall(&reply));
    }

    // Byte-identity with the single instance, modulo the local
    // hit/miss label: the first request *per instance* is a local
    // miss (one resolves by capturing, one by forwarding), both of
    // which replay into the identical result object.
    let normalize = |l: &str| l.replace(r#""cache":"miss""#, r#""cache":"hit""#);
    for (g, r) in got.iter().zip(&reference) {
        assert_eq!(normalize(g), normalize(r), "sharded answer diverged");
    }
    // Either one or two responses carry a local `miss` label: when the
    // owner sees the workload first it misses once and the non-owner's
    // forward later misses once (2); when the *non-owner* goes first,
    // its forward warms the owner's cache, whose own requests then all
    // hit (1). Which case runs depends on the OS-assigned ports.
    let local_misses = got
        .iter()
        .filter(|l| l.contains(r#""cache":"miss""#))
        .count();
    assert!(
        (1..=2).contains(&local_misses),
        "local misses {local_misses}"
    );

    // Cluster-wide capture accounting straight off the daemons' own
    // counters: captures = Σ misses − Σ forwarded = 1.
    let sa = ca.stats().expect("stats a");
    let sb = cb.stats().expect("stats b");
    let misses = stats_counter(&sa, "srv.cache.misses") + stats_counter(&sb, "srv.cache.misses");
    let forwarded =
        stats_counter(&sa, "srv.shard.forwarded") + stats_counter(&sb, "srv.shard.forwarded");
    let served =
        stats_counter(&sa, "srv.shard.fwd_served") + stats_counter(&sb, "srv.shard.fwd_served");
    let errors =
        stats_counter(&sa, "srv.shard.fwd_errors") + stats_counter(&sb, "srv.shard.fwd_errors");
    assert_eq!(errors, 0, "a:{sa}\nb:{sb}");
    assert_eq!(forwarded, 1, "exactly one instance forwards the one key");
    assert_eq!(served, 1, "the owner serves exactly that forward");
    assert_eq!(misses - forwarded, 1, "one capture cluster-wide");

    ca.shutdown().expect("shutdown a");
    cb.shutdown().expect("shutdown b");
    da.join().unwrap().expect("daemon a");
    db.join().unwrap().expect("daemon b");
}

#[test]
fn reply_arrives_while_the_request_stream_stays_open() {
    use std::io::{BufRead, BufReader, Write};
    // A lockstep client sends one request and then waits with its
    // stream still open: the reply must arrive without further input,
    // while the reader half of `serve_lines` stays blocked in
    // `read_line`. Detached threads, so a missing reply fails the test
    // at the guard instead of hanging it.
    let (rx, mut tx) = std::io::pipe().expect("pipe");
    let (out_rx, mut out_tx) = std::io::pipe().expect("pipe");
    let daemon = std::thread::spawn(move || {
        let server = Server::start(ServerConfig::default());
        serve_lines(BufReader::new(rx), &mut out_tx, &server)
    });
    writeln!(
        tx,
        "run kernel=fft net=omesh side=2 ops=150 mode=classic-trace id=o1"
    )
    .expect("send");
    let (got_tx, got_rx) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let mut replies = BufReader::new(out_rx);
        for _ in 0..2 {
            let mut line = String::new();
            replies.read_line(&mut line).expect("read reply");
            got_tx.send(line).expect("report");
        }
    });
    let guard = std::time::Duration::from_secs(30);
    let line = got_rx
        .recv_timeout(guard)
        .expect("no reply within 30 s while the request stream stayed open");
    assert!(line.starts_with(r#"{"status":"ok""#), "{line}");
    assert!(line.contains(r#""id":"o1""#), "{line}");
    // Only now does the stream move on.
    writeln!(tx, "shutdown").expect("send shutdown");
    let ack = got_rx.recv_timeout(guard).expect("no shutdown ack");
    assert!(ack.contains(r#""shutting_down":true"#), "{ack}");
    assert!(
        daemon.join().unwrap().expect("serve"),
        "shutdown verb not honoured"
    );
    client.join().unwrap();
}
