//! Per-layer accounting from outside the program.
//!
//! [`Traced`] is a `NetworkModel` decorator that forwards every trait
//! method to the wrapped model and accumulates call counts, nanoseconds
//! and injected messages into a shared [`Meter`]. The traced operations
//! below rebuild the public entry points (`Experiment::execute` for the
//! exec-driven reference and the self-correction loop) from the public
//! pieces — `sctm_workloads::build`, `CmpSim::run`, `Capture::finish`,
//! `IncrReplayer::replay` (or `replay_sctm_pass_with` when the
//! experiment turns incremental replay off), `pair_corrections` — so
//! that each layer gets its own span. A layer's self time is its span
//! minus the time its child spans (the wrapped network models) account
//! for.

use sctm_cmp::{CmpSim, NullHook};
use sctm_core::{Experiment, NetworkKind, RunReport, RunSpec, SystemConfig};
use sctm_engine::net::{
    Delivery, Message, MsgClass, MsgLifecycle, NetStats, NetworkModel, NodeId, NodeObs,
};
use sctm_engine::time::SimTime;
use sctm_trace::replay::{pair_corrections, replay_sctm_pass_with, ReplayScratch};
use sctm_trace::{Capture, IncrReplayer, TraceLog};
use sctm_workloads::{build, Kernel, ScriptWorkload, WorkloadParams};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Counters one network model kind accumulates. Relaxed atomics: plain
/// statistics that publish no other data.
#[derive(Default)]
pub struct Meter {
    calls: AtomicU64,
    ns: AtomicU64,
    injected: AtomicU64,
    /// `snapshot` calls that returned a snapshot (the incremental
    /// engine's checkpoints), and their ns (also part of `ns`).
    snapshots: AtomicU64,
    snapshot_ns: AtomicU64,
}

/// A point-in-time copy of a [`Meter`].
#[derive(Clone, Copy, Default, Debug)]
pub struct Reading {
    pub calls: u64,
    pub ns: u64,
    pub injected: u64,
    pub snapshots: u64,
    pub snapshot_ns: u64,
}

impl Meter {
    pub fn read(&self) -> Reading {
        Reading {
            calls: self.calls.load(Relaxed),
            ns: self.ns.load(Relaxed),
            injected: self.injected.load(Relaxed),
            snapshots: self.snapshots.load(Relaxed),
            snapshot_ns: self.snapshot_ns.load(Relaxed),
        }
    }
}

impl std::ops::Sub for Reading {
    type Output = Reading;
    fn sub(self, o: Reading) -> Reading {
        Reading {
            calls: self.calls - o.calls,
            ns: self.ns - o.ns,
            injected: self.injected - o.injected,
            snapshots: self.snapshots - o.snapshots,
            snapshot_ns: self.snapshot_ns - o.snapshot_ns,
        }
    }
}

/// The decorator. Every call is timed, including the cheap ones, so
/// `calls` counts every crossing of the trait boundary.
pub struct Traced {
    inner: Box<dyn NetworkModel>,
    meter: Arc<Meter>,
}

impl Traced {
    pub fn new(inner: Box<dyn NetworkModel>, meter: Arc<Meter>) -> Traced {
        Traced { inner, meter }
    }

    #[inline]
    fn timed<R>(meter: &Meter, f: impl FnOnce() -> R) -> R {
        Self::timed_ns(meter, f).0
    }

    #[inline]
    fn timed_ns<R>(meter: &Meter, f: impl FnOnce() -> R) -> (R, u64) {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        meter.ns.fetch_add(ns, Relaxed);
        meter.calls.fetch_add(1, Relaxed);
        (r, ns)
    }
}

impl NetworkModel for Traced {
    fn num_nodes(&self) -> usize {
        Self::timed(&self.meter, || self.inner.num_nodes())
    }
    fn inject(&mut self, at: SimTime, msg: Message) {
        self.meter.injected.fetch_add(1, Relaxed);
        Self::timed(&self.meter, || self.inner.inject(at, msg))
    }
    fn inject_backdated(&mut self, at: SimTime, msg: Message) {
        self.meter.injected.fetch_add(1, Relaxed);
        Self::timed(&self.meter, || self.inner.inject_backdated(at, msg))
    }
    fn next_time(&self) -> Option<SimTime> {
        Self::timed(&self.meter, || self.inner.next_time())
    }
    fn advance_until(&mut self, t: SimTime, out: &mut Vec<Delivery>) {
        Self::timed(&self.meter, || self.inner.advance_until(t, out))
    }
    fn drain(&mut self, out: &mut Vec<Delivery>) -> SimTime {
        Self::timed(&self.meter, || self.inner.drain(out))
    }
    fn advance_batches(
        &mut self,
        stop: Option<SimTime>,
        out: &mut Vec<Delivery>,
    ) -> Option<SimTime> {
        Self::timed(&self.meter, || self.inner.advance_batches(stop, out))
    }
    fn snapshot(&self) -> Option<Box<dyn NetworkModel>> {
        let (snap, ns) = Self::timed_ns(&self.meter, || self.inner.snapshot());
        let snap = snap?;
        self.meter.snapshots.fetch_add(1, Relaxed);
        self.meter.snapshot_ns.fetch_add(ns, Relaxed);
        // The copy stays metered: the incremental engine resumes from it.
        Some(Box::new(Traced::new(snap, self.meter.clone())))
    }
    fn stats(&self) -> &NetStats {
        Self::timed(&self.meter, || self.inner.stats())
    }
    fn reset_stats(&mut self) {
        Self::timed(&self.meter, || self.inner.reset_stats())
    }
    fn label(&self) -> &'static str {
        Self::timed(&self.meter, || self.inner.label())
    }
    fn observe_nodes(&self, out: &mut Vec<NodeObs>) {
        Self::timed(&self.meter, || self.inner.observe_nodes(out))
    }
    fn set_lifecycle_capture(&mut self, on: bool) {
        Self::timed(&self.meter, || self.inner.set_lifecycle_capture(on))
    }
    fn lifecycle_capture(&self) -> bool {
        Self::timed(&self.meter, || self.inner.lifecycle_capture())
    }
    fn take_lifecycles(&mut self, out: &mut Vec<MsgLifecycle>) {
        Self::timed(&self.meter, || self.inner.take_lifecycles(out))
    }
}

/// The simulated outputs of one run, compared bit for bit between
/// repetitions and between traced and untraced runs.
#[derive(Clone, Debug, PartialEq)]
pub struct Sig {
    exec_ps: u64,
    messages: u64,
    lat_ctrl_bits: u64,
    lat_data_bits: u64,
    /// Per iteration: estimate, drift, corrections, factor move bits,
    /// messages.
    iters: Vec<(u64, u64, usize, u64, u64)>,
}

impl Sig {
    pub fn of(r: &RunReport) -> Sig {
        Sig {
            exec_ps: r.exec_time.as_ps(),
            messages: r.messages,
            lat_ctrl_bits: r.mean_lat_ctrl_ns.to_bits(),
            lat_data_bits: r.mean_lat_data_ns.to_bits(),
            iters: r
                .iterations
                .iter()
                .flatten()
                .map(|i| {
                    (
                        i.est_exec_time.as_ps(),
                        i.drift.as_ps(),
                        i.corrections,
                        i.factor_move.to_bits(),
                        i.messages,
                    )
                })
                .collect(),
        }
    }
}

/// One simulated design point: a kernel on a target network.
#[derive(Clone, Copy, Debug)]
pub struct Pair {
    pub kernel: Kernel,
    pub net: NetworkKind,
    pub side: usize,
    pub ops: usize,
}

/// Self-correction iteration cap, as in experiment E2.
pub const MAX_ITERS: usize = 4;

impl Pair {
    pub fn label(&self) -> String {
        format!("{}/{}", self.kernel.label(), self.net.label())
    }

    pub fn experiment(&self, seed: u64) -> Experiment {
        self.on(self.net, seed)
    }

    /// The same workload on another network (the emesh baseline).
    pub fn on(&self, net: NetworkKind, seed: u64) -> Experiment {
        Experiment::new(SystemConfig::new(self.side, net), self.kernel)
            .with_ops(self.ops)
            .with_seed(seed)
            .with_capture_threads(1)
    }

    pub fn script(&self, seed: u64) -> ScriptWorkload {
        build(
            self.kernel,
            WorkloadParams::new(self.side * self.side, self.ops, seed),
        )
    }
}

/// Untraced run of one public entry point, with its host wall.
pub fn execute(exp: &Experiment, spec: &RunSpec) -> Result<(RunReport, f64), String> {
    let t = Instant::now();
    let r = exp
        .execute(spec)
        .map_err(|e| format!("{spec:?}: {e}"))?
        .report;
    Ok((r, t.elapsed().as_secs_f64()))
}

/// Sums the traced operations accumulate, in ns unless named otherwise.
#[derive(Default, Debug)]
pub struct Acc {
    pub builds: u64,
    pub build_ns: u64,
    pub captures: u64,
    pub capture_ns: u64,
    pub capture_msgs: u64,
    pub capture_model_ns: u64,
    pub finish_ns: u64,
    pub passes: u64,
    pub pass_ns: u64,
    pub pass_msgs: u64,
    pub pass_model_ns: u64,
    pub corr_ns: u64,
    pub iterations: u64,
    pub loop_ns: u64,
    pub loop_accounted_ns: u64,
    pub exec_ns: u64,
    pub exec_msgs: u64,
    pub exec_model_ns: u64,
}

/// Meters per network label plus the accumulated spans.
#[derive(Default)]
pub struct Tracer {
    meters: BTreeMap<&'static str, Arc<Meter>>,
    pub acc: Acc,
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Tracer {
    pub fn meter(&mut self, label: &'static str) -> Arc<Meter> {
        self.meters.entry(label).or_default().clone()
    }

    pub fn reading(&self, label: &str) -> Reading {
        self.meters.get(label).map(|m| m.read()).unwrap_or_default()
    }

    fn wrap(&mut self, net: Box<dyn NetworkModel>, kind: NetworkKind) -> Box<dyn NetworkModel> {
        Box::new(Traced::new(net, self.meter(kind.label())))
    }

    /// Build one script, timed as the `workloads` layer.
    pub fn script(&mut self, pair: &Pair, seed: u64) -> ScriptWorkload {
        let t = Instant::now();
        let s = pair.script(seed);
        self.acc.build_ns += ns(t);
        self.acc.builds += 1;
        s
    }

    /// Exec-driven co-simulation of `exp` with its network traced;
    /// mirrors `Experiment::execute(&RunSpec::exec_driven())`.
    pub fn exec(&mut self, pair: &Pair, exp: &Experiment) -> Sig {
        let kind = exp.system.network;
        let wl = Box::new(self.script(pair, exp.seed));
        let net = self.wrap(exp.system.make_network(), kind);
        let mut sim = CmpSim::new(exp.system.cmp.clone(), net, wl);
        let before = self.reading(kind.label());
        let t = Instant::now();
        let res = sim.run(&mut NullHook);
        let wall = ns(t);
        let model = self.reading(kind.label()) - before;
        self.acc.exec_ns += wall;
        self.acc.exec_model_ns += model.ns;
        self.acc.exec_msgs += res.messages_injected;
        let stats = sim.network().stats();
        Sig {
            exec_ps: res.exec_time.as_ps(),
            messages: res.messages_injected,
            lat_ctrl_bits: (stats.ctrl_latency_ps.mean() / 1000.0).to_bits(),
            lat_data_bits: (stats.data_latency_ps.mean() / 1000.0).to_bits(),
            iters: Vec::new(),
        }
    }

    /// One capture on the (possibly corrected) analytic model.
    fn capture(
        &mut self,
        pair: &Pair,
        exp: &Experiment,
        model: &sctm_engine::net::AnalyticNetwork,
    ) -> TraceLog {
        let wl = Box::new(self.script(pair, exp.seed));
        let net = self.wrap(Box::new(model.clone()), NetworkKind::Analytic);
        let mut sim = CmpSim::new(exp.system.cmp.clone(), net, wl);
        let mut cap = Capture::with_capacity(exp.ops_per_core * exp.system.cores() * 3);
        let before = self.reading(NetworkKind::Analytic.label());
        let t = Instant::now();
        let res = sim.run(&mut cap);
        self.acc.capture_ns += ns(t);
        let model_r = self.reading(NetworkKind::Analytic.label()) - before;
        self.acc.capture_model_ns += model_r.ns;
        self.acc.capture_msgs += model_r.injected;
        self.acc.captures += 1;
        let t = Instant::now();
        let log = cap.finish("analytic", res.exec_time);
        self.acc.finish_ns += ns(t);
        log
    }

    /// A self-correcting pass that only feeds the network model's meter
    /// (not the `trace` layer's pass spans).
    pub fn model_pass(
        &mut self,
        log: &TraceLog,
        side: usize,
        kind: NetworkKind,
        scratch: &mut ReplayScratch,
    ) {
        let mut net = self.wrap(SystemConfig::make_network_kind(side, kind), kind);
        replay_sctm_pass_with(log, net.as_mut(), scratch);
    }

    /// One self-correcting replay pass of `log` on a traced `kind`,
    /// through the loop's incremental engine when it has one.
    fn pass(
        &mut self,
        log: &TraceLog,
        side: usize,
        kind: NetworkKind,
        incr: Option<&mut IncrReplayer>,
        scratch: &mut ReplayScratch,
    ) -> (sctm_trace::ReplayResult, u64) {
        let mut net = self.wrap(SystemConfig::make_network_kind(side, kind), kind);
        let before = self.reading(kind.label());
        let t = Instant::now();
        let result = match incr {
            Some(engine) => engine.replay(log, &mut net, scratch).0,
            None => replay_sctm_pass_with(log, net.as_mut(), scratch),
        };
        let wall = ns(t);
        let model = self.reading(kind.label()) - before;
        self.acc.passes += 1;
        self.acc.pass_ns += wall;
        self.acc.pass_model_ns += model.ns;
        self.acc.pass_msgs += log.len() as u64;
        (result, wall)
    }

    /// The self-correction loop of `Experiment::execute(&RunSpec::
    /// self_correction(max_iters))`, rebuilt span by span. Like the
    /// program's loop, it keeps one `IncrReplayer` alive across the
    /// iterations when `exp.incremental` is set (the default), so the
    /// engine's checkpoint snapshots go through the decorator too.
    /// Returns the simulated outputs and the first iteration's trace.
    pub fn sctm_loop(
        &mut self,
        pair: &Pair,
        exp: &Experiment,
        max_iters: usize,
    ) -> (Sig, TraceLog) {
        let loop0 = Instant::now();
        let mut accounted = 0u64;
        let side = exp.system.side;
        let kind = exp.system.network;
        let mut model = SystemConfig::analytic(exp.system.cores());
        let mut scratch = ReplayScratch::new();
        let mut incr = exp.incremental.then(IncrReplayer::new);
        let mut prev_est = SimTime::ZERO;
        let mut iters = Vec::new();
        let mut first: Option<TraceLog> = None;
        let mut last = None;
        for it in 1..=max_iters {
            let spans0 = self.acc.build_ns + self.acc.capture_ns + self.acc.finish_ns;
            let log = self.capture(pair, exp, &model);
            accounted += self.acc.build_ns + self.acc.capture_ns + self.acc.finish_ns - spans0;
            if it == 1 {
                prev_est = log.capture_exec_time;
            }
            let (result, pass_ns) = self.pass(&log, side, kind, incr.as_mut(), &mut scratch);
            accounted += pass_ns;
            let est = result.est_exec_time;
            let drift = est.abs_diff(prev_est);
            let t = Instant::now();
            let corr = pair_corrections(&log, &result, |m| model.base_latency(m));
            let (mut moved_weighted, mut weight) = (0.0f64, 0.0f64);
            for &((s, d, class), f, count) in &corr {
                let old = model.correction(NodeId(s), NodeId(d), class);
                model.set_correction(
                    NodeId(s),
                    NodeId(d),
                    class,
                    (1.0 - exp.damping) * old + exp.damping * f,
                );
                let installed = model.correction(NodeId(s), NodeId(d), class);
                moved_weighted += (installed - old).abs() / old.abs().max(1e-12) * count as f64;
                weight += count as f64;
            }
            let factor_move = if weight > 0.0 {
                moved_weighted / weight
            } else {
                0.0
            };
            let corr_ns = ns(t);
            self.acc.corr_ns += corr_ns;
            accounted += corr_ns;
            self.acc.iterations += 1;
            iters.push((
                est.as_ps(),
                drift.as_ps(),
                corr.len(),
                factor_move.to_bits(),
                log.len() as u64,
            ));
            prev_est = est;
            let done = drift.as_ps() * 200 < est.as_ps()
                || (exp.factor_epsilon > 0.0 && factor_move < exp.factor_epsilon);
            if first.is_none() {
                first = Some(log);
                last = Some((None, result));
            } else {
                last = Some((Some(log), result));
            }
            if done {
                break;
            }
        }
        self.acc.loop_ns += ns(loop0);
        self.acc.loop_accounted_ns += accounted;
        let first = first.expect("at least one iteration");
        let (last_log, result) = last.expect("at least one iteration");
        let log = last_log.as_ref().unwrap_or(&first);
        let sig = Sig {
            exec_ps: result.est_exec_time.as_ps(),
            messages: log.len() as u64,
            lat_ctrl_bits: result
                .mean_latency_ns(log, Some(MsgClass::Control))
                .to_bits(),
            lat_data_bits: result.mean_latency_ns(log, Some(MsgClass::Data)).to_bits(),
            iters,
        };
        (sig, first)
    }

    /// The per-layer metrics the accumulated spans and meters give;
    /// `rounds` traced rounds ran.
    pub fn metrics(&self, rounds: usize, out: &mut crate::Outcome) {
        let a = &self.acc;
        let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        let ms = |v: u64, n: u64| per(v, n) / 1e6;
        let model = |label: &str| {
            let r = self.reading(label);
            per(r.ns, r.injected)
        };
        let omesh = self.reading(NetworkKind::Omesh.label());
        let oxbar = self.reading(NetworkKind::Oxbar.label());
        out.metric("workloads.build_ms", ms(a.build_ns, a.builds), "ms");
        out.metric("cmp.capture_ms", ms(a.capture_ns, a.captures), "ms");
        out.metric(
            "cmp.capture_self_ns_per_msg",
            per(a.capture_ns - a.capture_model_ns, a.capture_msgs),
            "ns",
        );
        out.metric(
            "engine.analytic_ns_per_msg",
            model(NetworkKind::Analytic.label()),
            "ns",
        );
        out.metric("trace.finish_ms", ms(a.finish_ns, a.captures), "ms");
        out.metric("trace.sctm_pass_ms", ms(a.pass_ns, a.passes), "ms");
        out.metric(
            "trace.sctm_pass_self_ns_per_msg",
            per(a.pass_ns - a.pass_model_ns, a.pass_msgs),
            "ns",
        );
        out.metric("trace.corrections_ms", ms(a.corr_ns, a.iterations), "ms");
        out.metric("onoc.omesh_ns_per_msg", per(omesh.ns, omesh.injected), "ns");
        out.metric("onoc.oxbar_ns_per_msg", per(oxbar.ns, oxbar.injected), "ns");
        out.metric(
            "onoc.calls_per_msg",
            per(omesh.calls + oxbar.calls, omesh.injected + oxbar.injected),
            "count",
        );
        // Checkpoints the incremental engine took on the photonic
        // targets, per loop pass.
        out.metric(
            "onoc.snapshots_per_pass",
            per(omesh.snapshots + oxbar.snapshots, a.passes),
            "count",
        );
        out.metric(
            "onoc.snapshot_ms_per_pass",
            ms(omesh.snapshot_ns + oxbar.snapshot_ns, a.passes),
            "ms",
        );
        out.metric(
            "core.loop_iterations",
            a.iterations as f64 / rounds.max(1) as f64,
            "count",
        );
        out.metric(
            "core.loop_accounted_pct",
            100.0 * per(a.loop_accounted_ns, a.loop_ns),
            "%",
        );
        out.metric(
            "cmp.exec_self_ns_per_msg",
            per(a.exec_ns - a.exec_model_ns, a.exec_msgs),
            "ns",
        );
        out.metric(
            "enoc.emesh_ns_per_msg",
            model(NetworkKind::Emesh.label()),
            "ns",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced loop replays through the incremental engine as the
    /// program's loop does: its checkpoint snapshots reach the decorator,
    /// and its outputs equal `Experiment::execute`'s bit for bit, with
    /// incremental replay on and off.
    #[test]
    fn traced_loop_matches_the_program_and_meters_snapshots() {
        let pair = Pair {
            kernel: Kernel::Lu,
            net: NetworkKind::Omesh,
            side: 4,
            ops: 200,
        };
        for incremental in [true, false] {
            let exp = pair.experiment(3).with_incremental(incremental);
            let (plain, _) = execute(&exp, &RunSpec::self_correction(MAX_ITERS)).unwrap();
            let mut tracer = Tracer::default();
            let (sig, _) = tracer.sctm_loop(&pair, &exp, MAX_ITERS);
            assert_eq!(sig, Sig::of(&plain), "incremental={incremental}");
            let snapshots = tracer.reading(NetworkKind::Omesh.label()).snapshots;
            assert_eq!(snapshots > 0, incremental, "{snapshots} snapshots");
        }
    }
}
