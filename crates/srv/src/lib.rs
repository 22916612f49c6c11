//! # sctm-srv — the `sctmd` simulation service
//!
//! A long-running, std-only front-end for the SCTM simulator: clients
//! send newline-delimited requests (over TCP, or over stdin for CI
//! pipelines) describing simulations in the [`RunSpec`] vocabulary, and
//! get back one single-line JSON response per request, ending with a
//! run manifest in the `sctm-obs` schema.
//!
//! The piece that makes a *service* worth running over a CLI is the
//! [`CaptureCache`]: CMP captures are content-addressed by
//! (kernel, side, ops, seed) — the capture runs on the analytic model
//! and is byte-identical at any `SCTM_THREADS`, so the target network
//! is *not* part of the identity. A design sweep of fifty network
//! configurations over one workload therefore costs one capture plus
//! fifty replays, and the cache counters in every response prove it.
//!
//! Scheduling rides the workspace's work-stealing pool
//! (`sctm_engine::par::WorkStealPool`): each request runs as probe →
//! capture → replay → render stages, in parallel with its neighbours,
//! yet answers bit-identically to a direct library call, and every
//! reply streams back in request order as soon as it is ready. The
//! request queue is bounded with explicit backpressure (`busy` +
//! `retry_after_ms`), each request has a queue deadline, and shutdown
//! drains gracefully.
//!
//! ```text
//! $ printf 'run kernel=fft net=omesh ops=300 id=a\nstats\n' | sctmd --stdin
//! {"status":"ok","id":"a",...,"result":{...}}
//! {"status":"ok","stats":{...}}
//! ```
//!
//! [`RunSpec`]: sctm_core::RunSpec

pub mod cache;
pub mod proto;
pub mod server;
pub mod shard;

pub use cache::{CacheStats, CaptureCache, CaptureKey};
pub use proto::{
    parse_fwd_response, parse_request, result_json, CacheOutcome, FwdRequest, Request, RunRequest,
};
pub use server::{serve_lines, serve_tcp, Server, ServerConfig};
pub use shard::{Shard, ShardRing};
