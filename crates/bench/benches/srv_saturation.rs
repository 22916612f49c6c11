//! Saturation throughput of the staged work-stealing scheduler: the
//! §P5 warm sweep — 50 network configs over one already-captured
//! workload — driven end-to-end through the pooled `sctm-client`
//! crate over real TCP, with the steal scheduler at 1, 4 and 8
//! workers.
//!
//! The sweep is warm (one shared capture, 50 replays), so the bench
//! measures exactly what the scheduler changes: how many independent
//! replay+render stages the daemon can keep in flight while the
//! connection thread streams responses. On a multicore host steal_w8
//! versus steal_w1 is the scaling headline; on a single-core runner
//! the curve is honest and flat (see EXPERIMENTS.md §P9).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sctm_client::{Client, ClientOptions};
use sctm_srv::{serve_tcp, Server, ServerConfig};

const NETS: [&str; 5] = ["emesh", "omesh", "oxbar", "hybrid", "obus"];
const DAMPINGS: [&str; 5] = ["0.4", "0.6", "0.8", "0.9", "1.0"];

/// The 50-config warm sweep: every detailed network crossed with loop
/// knobs, one workload, one seed — one capture serves all of it.
fn sweep_lines() -> Vec<String> {
    let mut lines = Vec::with_capacity(50);
    for (i, net) in NETS.iter().cycle().take(50).enumerate() {
        let damping = DAMPINGS[(i / 5) % 5];
        lines.push(format!(
            "run kernel=fft net={net} side=2 ops=150 mode=sctm iters=2 \
             damping={damping} replay=1 id=b{i}"
        ));
    }
    lines
}

struct Daemon {
    client: Client,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn boot(workers: usize) -> Daemon {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap().to_string();
        let server = Server::start(ServerConfig {
            workers,
            queue_cap: 64,
            ..ServerConfig::default()
        });
        let handle = std::thread::spawn(move || serve_tcp(listener, server));
        let client = Client::connect_with(
            &addr,
            ClientOptions {
                pool_cap: 2,
                ..ClientOptions::default()
            },
        )
        .expect("dial");
        Daemon {
            client,
            handle: Some(handle),
        }
    }

    /// One pipelined warm sweep; returns the number of ok responses.
    fn sweep(&self, lines: &[String]) -> usize {
        let replies = self.client.pipeline(lines).expect("pipeline");
        let ok = replies
            .iter()
            .filter(|r| matches!(r, sctm_client::Response::Ok { line } if line.contains(r#""status":"ok""#)))
            .count();
        assert_eq!(ok, lines.len(), "sweep had non-ok responses");
        ok
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.client.shutdown();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn bench_saturation(c: &mut Criterion) {
    let lines = sweep_lines();
    let mut g = c.benchmark_group("srv_saturation_warm50");
    for workers in [1usize, 4, 8] {
        g.bench_function(
            BenchmarkId::from_parameter(format!("steal_w{workers}")),
            |b| {
                let daemon = Daemon::boot(workers);
                daemon.sweep(&lines); // prime the capture cache
                b.iter(|| black_box(daemon.sweep(&lines)))
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_saturation
}
criterion_main!(benches);
