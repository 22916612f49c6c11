//! Latency blame analysis and critical-path extraction.
//!
//! Inputs: the capture-time [`TraceLog`] (for the causal dependency
//! DAG) and the replay-time [`MsgLifecycle`] records (for measured
//! latencies and their per-component decomposition on the *target*
//! network). Both are keyed by the same dense message ids, so joining
//! them is an index lookup.
//!
//! The critical path is computed by dynamic programming over the DAG
//! in replay injection order: the longest chain of
//! `latency + dependency gap` segments ending at each delivery. A
//! dependency edge is only *usable* if the dep really delivered at or
//! before the dependent's replay injection — replay can reorder
//! messages relative to capture, and edges that became acausal are
//! skipped (and counted, as a replay-fidelity diagnostic). By
//! construction the path length is at least the largest single-message
//! latency and at most the replay makespan; `tests/prof_properties.rs`
//! asserts both on real runs.

use sctm_engine::net::{LatencyBreakdown, MsgClass, MsgLifecycle};
use sctm_obs::json_escape;
use sctm_trace::TraceLog;
use std::fmt::Write as _;

/// Component totals for one message class.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassBlame {
    pub class: &'static str,
    pub messages: u64,
    /// Sum of end-to-end latencies; equals `breakdown.total_ps()`
    /// exactly, because every model's per-message decomposition is
    /// exact.
    pub latency_ps: u64,
    pub breakdown: LatencyBreakdown,
}

/// The longest causal chain through the replayed run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalPath {
    /// Total path length: message latencies plus dependency gaps.
    pub length_ps: u64,
    /// Messages on the path, in causal order (dense message ids).
    pub path: Vec<u64>,
    /// In-network blame along the path.
    pub blame: LatencyBreakdown,
    /// Time the path spent *between* messages — a delivery enabling an
    /// injection that only happened later (compute, protocol
    /// occupancy, barrier waits).
    pub dep_gap_ps: u64,
    /// Dependency edges that replay made acausal (dep delivered after
    /// the dependent injected) and the walk therefore skipped.
    pub acausal_edges: u64,
}

/// A full blame report for one profiled run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlameReport {
    pub network: String,
    pub workload: String,
    pub messages: u64,
    pub classes: Vec<ClassBlame>,
    pub critical_path: CriticalPath,
}

/// Sum lifecycle decompositions per message class.
pub fn aggregate(lifecycles: &[MsgLifecycle]) -> Vec<ClassBlame> {
    let mut ctrl = ClassBlame {
        class: "ctrl",
        ..ClassBlame::default()
    };
    let mut data = ClassBlame {
        class: "data",
        ..ClassBlame::default()
    };
    for l in lifecycles {
        let b = match l.msg.class {
            MsgClass::Control => &mut ctrl,
            MsgClass::Data => &mut data,
        };
        b.messages += 1;
        b.latency_ps += l.latency_ps();
        let d = &l.breakdown;
        b.breakdown.queue_ps += d.queue_ps;
        b.breakdown.arbitration_ps += d.arbitration_ps;
        b.breakdown.serialization_ps += d.serialization_ps;
        b.breakdown.propagation_ps += d.propagation_ps;
        b.breakdown.overhead_ps += d.overhead_ps;
    }
    vec![ctrl, data]
}

/// Extract the critical path (see module docs for the recurrence).
pub fn critical_path(log: &TraceLog, lifecycles: &[MsgLifecycle]) -> CriticalPath {
    let n = log.len();
    let mut lc: Vec<Option<&MsgLifecycle>> = vec![None; n];
    for l in lifecycles {
        let i = l.msg.id.0 as usize;
        if i < n {
            lc[i] = Some(l);
        }
    }
    // Process in replay injection order: any usable dep delivered at or
    // before this injection, and (latencies being positive) therefore
    // injected strictly earlier, so its DP state is already final.
    let mut order: Vec<usize> = (0..n).filter(|&i| lc[i].is_some()).collect();
    order.sort_unstable_by_key(|&i| (lc[i].unwrap().injected_at, i));

    let mut plen = vec![0u64; n]; // best path length ending at i
    let mut pred: Vec<Option<usize>> = vec![None; n];
    let mut done = vec![false; n];
    let mut acausal = 0u64;
    let mut best: Option<usize> = None;
    for &i in &order {
        let l = lc[i].unwrap();
        let inj = l.injected_at;
        let mut via: Option<(u64, usize)> = None;
        for d in &log.records[i].deps {
            let j = d.0 as usize;
            let Some(dep) = (j < n).then(|| lc[j]).flatten() else {
                continue;
            };
            if dep.delivered_at > inj || !done[j] {
                acausal += 1;
                continue;
            }
            let gap = inj.saturating_since(dep.delivered_at).as_ps();
            let cand = plen[j] + gap;
            if via.is_none_or(|(v, _)| cand > v) {
                via = Some((cand, j));
            }
        }
        plen[i] = l.latency_ps() + via.map_or(0, |(v, _)| v);
        pred[i] = via.map(|(_, j)| j);
        done[i] = true;
        if best.is_none_or(|b| plen[i] > plen[b]) {
            best = Some(i);
        }
    }

    let mut cp = CriticalPath::default();
    let Some(end) = best else { return cp };
    cp.length_ps = plen[end];
    // Walk predecessors back to the path start, accumulating blame.
    let mut cur = Some(end);
    while let Some(i) = cur {
        cp.path.push(i as u64);
        let l = lc[i].unwrap();
        let d = &l.breakdown;
        cp.blame.queue_ps += d.queue_ps;
        cp.blame.arbitration_ps += d.arbitration_ps;
        cp.blame.serialization_ps += d.serialization_ps;
        cp.blame.propagation_ps += d.propagation_ps;
        cp.blame.overhead_ps += d.overhead_ps;
        if let Some(j) = pred[i] {
            cp.dep_gap_ps += l
                .injected_at
                .saturating_since(lc[j].unwrap().delivered_at)
                .as_ps();
        }
        cur = pred[i];
    }
    cp.path.reverse();
    cp.acausal_edges = acausal;
    debug_assert_eq!(cp.length_ps, cp.blame.total_ps() + cp.dep_gap_ps);
    cp
}

/// Transitive dirty frontier: every message whose replay timing a
/// change to the `seeds` messages can reach, walking the forward
/// dependency edges (a dep's delivery gates its dependants' injection)
/// and the per-source departure chains (a source's next message waits
/// on this one locally). Returns the closure — seeds included — in
/// ascending id order.
///
/// This is the *diagnostic* counterpart of the incremental replay
/// engine's checkpoint-validity test (`sctm-trace::incr`): the engine
/// only needs the direct input diff (everything downstream re-simulates
/// anyway), while this closure answers "how much of the trace can a
/// change at these points touch at all" — the right number for judging
/// whether incremental replay can pay off on a workload.
pub fn dirty_frontier(log: &TraceLog, seeds: &[u32]) -> Vec<u32> {
    let n = log.len();
    // Forward adjacency: dep -> dependants (CSR), plus the per-source
    // successor chain derived from `prev_same_src`.
    let mut cnt = vec![0u32; n];
    for r in &log.records {
        for d in &r.deps {
            cnt[d.0 as usize] += 1;
        }
    }
    let mut off = vec![0u32; n + 1];
    for i in 0..n {
        off[i + 1] = off[i] + cnt[i];
    }
    let mut adj = vec![0u32; off[n] as usize];
    cnt.fill(0);
    let mut next_same_src = vec![u32::MAX; n];
    for (i, r) in log.records.iter().enumerate() {
        for d in &r.deps {
            let d = d.0 as usize;
            adj[(off[d] + cnt[d]) as usize] = i as u32;
            cnt[d] += 1;
        }
        if let Some(p) = r.prev_same_src {
            next_same_src[p.0 as usize] = i as u32;
        }
    }
    let mut dirty = vec![false; n];
    let mut stack: Vec<u32> = seeds
        .iter()
        .copied()
        .filter(|&s| (s as usize) < n)
        .collect();
    while let Some(i) = stack.pop() {
        let iu = i as usize;
        if std::mem::replace(&mut dirty[iu], true) {
            continue;
        }
        for e in off[iu]..off[iu + 1] {
            if !dirty[adj[e as usize] as usize] {
                stack.push(adj[e as usize]);
            }
        }
        let nx = next_same_src[iu];
        if nx != u32::MAX && !dirty[nx as usize] {
            stack.push(nx);
        }
    }
    (0..n as u32).filter(|&i| dirty[i as usize]).collect()
}

/// One-call profile: per-class blame plus the critical path.
pub fn analyze(
    network: impl Into<String>,
    workload: impl Into<String>,
    log: &TraceLog,
    lifecycles: &[MsgLifecycle],
) -> BlameReport {
    BlameReport {
        network: network.into(),
        workload: workload.into(),
        messages: lifecycles.len() as u64,
        classes: aggregate(lifecycles),
        critical_path: critical_path(log, lifecycles),
    }
}

impl BlameReport {
    /// Folded-stack lines (`a;b;c value`) for flamegraph tooling:
    /// aggregate blame per class, then the critical path's own
    /// decomposition including the dependency-gap frame.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for c in &self.classes {
            for (name, ps) in c.breakdown.components() {
                if ps > 0 {
                    let _ = writeln!(out, "{};{};{} {}", self.network, c.class, name, ps);
                }
            }
        }
        for (name, ps) in self.critical_path.blame.components() {
            if ps > 0 {
                let _ = writeln!(out, "{};critical-path;{} {}", self.network, name, ps);
            }
        }
        if self.critical_path.dep_gap_ps > 0 {
            let _ = writeln!(
                out,
                "{};critical-path;dep-gap {}",
                self.network, self.critical_path.dep_gap_ps
            );
        }
        out
    }

    /// Hand-rolled JSON document (see crate docs for why no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = write!(
            out,
            "  \"network\": \"{}\",\n  \"workload\": \"{}\",\n  \"messages\": {},\n",
            json_escape(&self.network),
            json_escape(&self.workload),
            self.messages
        );
        out.push_str("  \"classes\": [");
        for (i, c) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"class\": \"{}\", \"messages\": {}, \"latency_ps\": {}",
                c.class, c.messages, c.latency_ps
            );
            for (name, ps) in c.breakdown.components() {
                let _ = write!(out, ", \"{name}_ps\": {ps}");
            }
            out.push('}');
        }
        out.push_str("\n  ],\n");
        let cp = &self.critical_path;
        let _ = write!(
            out,
            "  \"critical_path\": {{\n    \"length_ps\": {},\n    \"messages\": {},\n    \"dep_gap_ps\": {},\n    \"acausal_edges\": {}",
            cp.length_ps,
            cp.path.len(),
            cp.dep_gap_ps,
            cp.acausal_edges
        );
        for (name, ps) in cp.blame.components() {
            let _ = write!(out, ",\n    \"{name}_ps\": {ps}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sctm_engine::net::{Message, MsgId, NodeId};
    use sctm_engine::time::SimTime;
    use sctm_trace::log::TraceRecord;

    fn lc(id: u64, inj: u64, del: u64, class: MsgClass) -> MsgLifecycle {
        let lat = del - inj;
        MsgLifecycle {
            msg: Message {
                id: MsgId(id),
                src: NodeId(0),
                dst: NodeId(1),
                class,
                bytes: 8,
            },
            injected_at: SimTime::from_ps(inj),
            delivered_at: SimTime::from_ps(del),
            breakdown: LatencyBreakdown {
                queue_ps: lat / 2,
                propagation_ps: lat - lat / 2,
                ..LatencyBreakdown::default()
            },
        }
    }

    fn rec(id: u64, deps: Vec<u64>) -> TraceRecord {
        TraceRecord {
            msg: Message {
                id: MsgId(id),
                src: NodeId(0),
                dst: NodeId(1),
                class: MsgClass::Control,
                bytes: 8,
            },
            t_inject: SimTime::from_ps(id * 10),
            t_deliver: SimTime::from_ps(id * 10 + 5),
            deps: deps.into_iter().map(MsgId).collect(),
            prev_same_src: None,
            kind: "test",
        }
    }

    fn log3() -> TraceLog {
        TraceLog {
            records: vec![rec(0, vec![]), rec(1, vec![0]), rec(2, vec![1])],
            capture_net: "test",
            capture_exec_time: SimTime::from_ps(500),
        }
    }

    #[test]
    fn dirty_frontier_walks_deps_and_source_chains() {
        // 0 → 1 → 2 via deps; 3 independent; 4 follows 3 on its source.
        let mut log = log3();
        log.records.push(rec(3, vec![]));
        let mut r4 = rec(4, vec![]);
        r4.prev_same_src = Some(MsgId(3));
        log.records.push(r4);

        assert_eq!(dirty_frontier(&log, &[0]), vec![0, 1, 2]);
        assert_eq!(dirty_frontier(&log, &[1]), vec![1, 2]);
        assert_eq!(dirty_frontier(&log, &[3]), vec![3, 4]);
        assert_eq!(dirty_frontier(&log, &[2, 4]), vec![2, 4]);
        // Out-of-range seeds are ignored; empty seeds reach nothing.
        assert_eq!(dirty_frontier(&log, &[99]), Vec::<u32>::new());
        assert_eq!(dirty_frontier(&log, &[]), Vec::<u32>::new());
    }

    #[test]
    fn chain_path_sums_latencies_and_gaps() {
        // 0: 0..100, 1: 150..250 (gap 50), 2: 260..400 (gap 10).
        let lcs = vec![
            lc(0, 0, 100, MsgClass::Control),
            lc(1, 150, 250, MsgClass::Data),
            lc(2, 260, 400, MsgClass::Control),
        ];
        let cp = critical_path(&log3(), &lcs);
        assert_eq!(cp.path, vec![0, 1, 2]);
        assert_eq!(cp.length_ps, 100 + 50 + 100 + 10 + 140);
        assert_eq!(cp.dep_gap_ps, 60);
        assert_eq!(cp.blame.total_ps(), 340);
        assert_eq!(cp.acausal_edges, 0);
        assert_eq!(cp.length_ps, cp.blame.total_ps() + cp.dep_gap_ps);
    }

    #[test]
    fn acausal_edge_is_skipped_and_counted() {
        // Replay reordered: dep 1 delivers *after* 2 injects.
        let lcs = vec![
            lc(0, 0, 100, MsgClass::Control),
            lc(1, 150, 500, MsgClass::Data),
            lc(2, 260, 400, MsgClass::Control),
        ];
        let cp = critical_path(&log3(), &lcs);
        assert_eq!(cp.acausal_edges, 1);
        // Longest usable chain is 0 -> 1 (100 + 50 + 350 = 500).
        assert_eq!(cp.path, vec![0, 1]);
        assert_eq!(cp.length_ps, 500);
    }

    #[test]
    fn path_at_least_max_latency_at_most_makespan() {
        let lcs = vec![
            lc(0, 0, 100, MsgClass::Control),
            lc(1, 150, 250, MsgClass::Data),
            lc(2, 260, 400, MsgClass::Control),
        ];
        let cp = critical_path(&log3(), &lcs);
        let max_lat = lcs.iter().map(|l| l.latency_ps()).max().unwrap();
        let makespan = 400; // last delivery − first injection (at t=0)
        assert!(cp.length_ps >= max_lat);
        assert!(cp.length_ps <= makespan);
    }

    #[test]
    fn aggregate_is_exact_per_class() {
        let lcs = vec![
            lc(0, 0, 100, MsgClass::Control),
            lc(1, 0, 60, MsgClass::Data),
            lc(2, 10, 110, MsgClass::Data),
        ];
        let classes = aggregate(&lcs);
        assert_eq!(classes[0].class, "ctrl");
        assert_eq!(classes[0].messages, 1);
        assert_eq!(classes[0].latency_ps, 100);
        assert_eq!(classes[0].breakdown.total_ps(), 100);
        assert_eq!(classes[1].messages, 2);
        assert_eq!(classes[1].latency_ps, 160);
        assert_eq!(classes[1].breakdown.total_ps(), 160);
    }

    #[test]
    fn report_exports_json_and_folded() {
        let lcs = vec![
            lc(0, 0, 100, MsgClass::Control),
            lc(1, 150, 250, MsgClass::Data),
        ];
        let log = TraceLog {
            records: vec![rec(0, vec![]), rec(1, vec![0])],
            capture_net: "test",
            capture_exec_time: SimTime::from_ps(300),
        };
        let r = analyze("omesh", "fft", &log, &lcs);
        let json = r.to_json();
        assert!(json.contains("\"network\": \"omesh\""));
        assert!(json.contains("\"length_ps\": 250"));
        assert!(json.contains("\"queue_ps\":"));
        let folded = r.to_folded();
        assert!(folded.contains("omesh;ctrl;queue 50"));
        assert!(folded.contains("omesh;critical-path;dep-gap 50"));
        // Folded values parse as "<stack> <int>" lines.
        for line in folded.lines() {
            let (stack, v) = line.rsplit_once(' ').unwrap();
            assert!(stack.split(';').count() == 3);
            v.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let cp = critical_path(&TraceLog::default(), &[]);
        assert_eq!(cp.length_ps, 0);
        assert!(cp.path.is_empty());
        let r = analyze("x", "y", &TraceLog::default(), &[]);
        assert_eq!(r.messages, 0);
        assert!(r.to_folded().is_empty());
    }
}
