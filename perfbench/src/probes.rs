//! Probes of single layers on a captured trace: the event kernel's
//! pending set (`engine`) and the `sctf` trace codec (`trace`).

use sctm_engine::time::SimTime;
use sctm_engine::EventQueue;
use sctm_trace::sctf::{from_sctf_bytes, to_sctf_bytes};
use sctm_trace::TraceLog;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time box of each half (pushes, then pops) of a queue probe. On the
/// schedules of ROADMAP Open item 1 pushes degrade to microseconds each
/// (every push past 131,072 pending events is a full rebuild); the box
/// keeps that bounded.
pub const QUEUE_BOX: Duration = Duration::from_millis(1000);

/// How often (in operations) the probe looks at the clock.
const CLOCK_STRIDE: usize = 16;

#[derive(Clone, Copy, Debug, Default)]
pub struct QueueProbe {
    /// Events pushed, all pending when the pushes stopped.
    pub pushed: u64,
    pub push_ns: u64,
    pub popped: u64,
    pub pop_ns: u64,
    /// Whether the pushes ran into [`QUEUE_BOX`] before the schedule ended.
    pub boxed: bool,
}

impl QueueProbe {
    pub fn push_ns_each(&self) -> f64 {
        self.push_ns as f64 / self.pushed.max(1) as f64
    }
    pub fn pop_ns_each(&self) -> f64 {
        self.pop_ns as f64 / self.popped.max(1) as f64
    }
}

/// Push a trace's injection times, in trace order, into a fresh
/// default `EventQueue` — the schedule open-loop classic replay puts in
/// front of the network — then pop them all. Each half is time-boxed.
pub fn queue_probe(log: &TraceLog) -> QueueProbe {
    let times: Vec<SimTime> = log.records.iter().map(|r| r.t_inject).collect();
    let mut q: EventQueue<u32> = EventQueue::new();
    let t = Instant::now();
    let mut boxed = false;
    for (i, &at) in times.iter().enumerate() {
        q.schedule(at, i as u32);
        if (i + 1).is_multiple_of(CLOCK_STRIDE) && t.elapsed() > QUEUE_BOX {
            boxed = i + 1 < times.len();
            break;
        }
    }
    let push_ns = t.elapsed().as_nanos() as u64;
    let pushed = q.len() as u64;
    let t = Instant::now();
    let mut popped = 0u64;
    while let Some(ev) = q.pop() {
        black_box(ev);
        popped += 1;
        if popped.is_multiple_of(CLOCK_STRIDE as u64) && t.elapsed() > QUEUE_BOX {
            break;
        }
    }
    QueueProbe {
        pushed,
        push_ns,
        popped,
        pop_ns: t.elapsed().as_nanos() as u64,
        boxed,
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct SctfProbe {
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub bytes: u64,
    pub messages: u64,
    pub deps: u64,
    /// Decode gave back the same trace and re-encodes to the same bytes.
    pub lossless: bool,
}

/// Encode a trace to `sctf`, decode it back and compare.
pub fn sctf_probe(log: &TraceLog) -> Result<SctfProbe, String> {
    let t = Instant::now();
    let bytes = to_sctf_bytes(log);
    let encode_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let back = from_sctf_bytes(&bytes).map_err(|e| format!("sctf decode: {e}"))?;
    let decode_ns = t.elapsed().as_nanos() as u64;
    let lossless = same_trace(log, &back) && to_sctf_bytes(&back) == bytes;
    Ok(SctfProbe {
        encode_ns,
        decode_ns,
        bytes: bytes.len() as u64,
        messages: log.len() as u64,
        deps: log.records.iter().map(|r| r.deps.len() as u64).sum(),
        lossless,
    })
}

/// Field-by-field trace equality (`TraceLog` has no `PartialEq`).
pub fn same_trace(a: &TraceLog, b: &TraceLog) -> bool {
    a.len() == b.len()
        && a.capture_net == b.capture_net
        && a.capture_exec_time == b.capture_exec_time
        && a.records.iter().zip(&b.records).all(|(x, y)| {
            x.msg.id == y.msg.id
                && x.msg.src == y.msg.src
                && x.msg.dst == y.msg.dst
                && x.msg.class == y.msg.class
                && x.msg.bytes == y.msg.bytes
                && x.t_inject == y.t_inject
                && x.t_deliver == y.t_deliver
                && x.deps == y.deps
                && x.prev_same_src == y.prev_same_src
                && x.kind == y.kind
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Pair;
    use sctm_core::NetworkKind;
    use sctm_workloads::Kernel;

    fn flagship_at(ops: usize) -> QueueProbe {
        let pair = Pair {
            kernel: Kernel::Fft,
            net: NetworkKind::Omesh,
            side: 8,
            ops,
        };
        queue_probe(&pair.experiment(1).capture())
    }

    /// The probe separates a healthy schedule (flagship at ops 300,
    /// ~52k pending) from one that crosses the calendar queue's
    /// rebuild-on-every-push line (ops 1200, ~208k pending): at this
    /// commit the pathological schedule must hit the time box or cost
    /// over 20x the healthy one per push. A kernel fix that removes the
    /// pathology (ROADMAP Open item 1) makes this test fail on purpose;
    /// it then changes to assert that the two read alike.
    #[test]
    fn queue_probe_separates_healthy_from_pathological() {
        let healthy = flagship_at(300);
        let big = flagship_at(1200);
        eprintln!("ops 300: {healthy:?} {:.0} ns/push", healthy.push_ns_each());
        eprintln!("ops 1200: {big:?} {:.0} ns/push", big.push_ns_each());
        assert!(!healthy.boxed, "a 52k-event schedule must fit the time box");
        assert!(healthy.push_ns_each() < 2_000.0);
        let ratio = big.push_ns_each() / healthy.push_ns_each();
        assert!(
            big.boxed || ratio > 20.0,
            "the pathological schedule reads only {ratio:.1}x the healthy one per push"
        );
    }

    #[test]
    fn sctf_probe_round_trips() {
        let pair = Pair {
            kernel: Kernel::Lu,
            net: NetworkKind::Omesh,
            side: 4,
            ops: 200,
        };
        let p = sctf_probe(&pair.experiment(3).capture()).unwrap();
        assert!(p.lossless && p.bytes > 0 && p.messages > 0);
    }
}
