//! The `flagship` and `heldout_apps` workloads: 64-core applications
//! run through the public `Experiment` API, one process, one thread.

use crate::calib::Scaled;
use crate::layers::{execute, Pair, Sig, Tracer, MAX_ITERS};
use crate::probes::{queue_probe, sctf_probe};
use crate::stats::{describe, median, peak_rss_mb, quantile};
use crate::{Args, Outcome};
use sctm_core::{accuracy, kernel_from_label, NetworkKind, RunSpec, SystemConfig};
use sctm_trace::replay::ReplayScratch;
use sctm_trace::TraceLog;
use sctm_workloads::Kernel;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Capture plus classic replay must finish within this, or it counts as
/// a failed operation and its wall reads as the time it was stopped at.
pub const CLASSIC_DEADLINE: Duration = Duration::from_secs(2);

/// First argument that turns this binary into the classic-trace child.
pub const CLASSIC_CHILD: &str = "classic-child";

/// Set-ups before each pass; `setup_s` is the median over the run.
const SETUPS_PER_PASS: usize = 3;

/// Operations one run repeats: `seconds / nominal_s` of them, rounded,
/// and at least `min`. A fixed count for a given `--seconds` makes
/// every run of a workload attempt the same operations however fast
/// the host happens to be.
pub fn repeats(seconds: f64, nominal_s: f64, min: usize) -> usize {
    ((seconds / nominal_s).round() as usize).max(min)
}

/// A 64-core workload: its design points; on the reference host, the
/// nominal wall of one pass over them (calibration included) and of one
/// round of the traced run; and the runs of each emesh baseline per run
/// of the workload. The baseline is the longest operation, so it runs
/// after the passes rather than in every one; with two runs or more,
/// their outputs must agree.
pub struct Apps {
    pub pairs: Vec<Pair>,
    pub pass_s: f64,
    pub round_s: f64,
    pub emesh_repeats: usize,
}

fn app(kernel: Kernel, net: NetworkKind) -> Pair {
    Pair {
        kernel,
        net,
        side: 8,
        ops: 1200,
    }
}

/// fft on the 64-core photonic mesh: experiment E2's case study.
pub fn flagship() -> Apps {
    Apps {
        pairs: vec![app(Kernel::Fft, NetworkKind::Omesh)],
        pass_s: 1.7,
        round_s: 9.0,
        emesh_repeats: 5,
    }
}

/// Applications and a network held out from the loop's tuning.
pub fn heldout() -> Apps {
    Apps {
        pairs: vec![
            app(Kernel::Canneal, NetworkKind::Oxbar),
            app(Kernel::Lu, NetworkKind::Omesh),
            app(Kernel::Barnes, NetworkKind::Omesh),
            app(Kernel::Fft, NetworkKind::Oxbar),
        ],
        pass_s: 2.9,
        round_s: 25.0,
        emesh_repeats: 1,
    }
}

/// Each distinct kernel once, on the emesh baseline.
fn emesh_pairs(pairs: &[Pair]) -> Vec<Pair> {
    let mut out: Vec<Pair> = Vec::new();
    for p in pairs {
        if !out.iter().any(|q| q.kernel == p.kernel) {
            out.push(Pair {
                net: NetworkKind::Emesh,
                ..*p
            });
        }
    }
    out
}

/// Generate and validate every input the run hands the program.
fn setup(pairs: &[Pair], seed: u64) -> Result<f64, String> {
    let t = Instant::now();
    let specs = [
        RunSpec::exec_driven(),
        RunSpec::self_correction(MAX_ITERS),
        RunSpec::classic(),
    ];
    for p in pairs.iter().chain(&emesh_pairs(pairs)) {
        SystemConfig::try_new(p.side, p.net).map_err(|e| e.to_string())?;
        for s in &specs {
            s.validate().map_err(|e| e.to_string())?;
        }
        let script = p.script(seed);
        if script.total_ops() == 0 || script.barriers() == 0 {
            return Err(format!("{}: degenerate script", p.label()));
        }
        std::hint::black_box(script);
    }
    Ok(t.elapsed().as_secs_f64())
}

/// What the classic child reports when it finishes in time.
struct ClassicDone {
    messages: u64,
    delivered: u64,
}

/// Capture plus classic replay in a child process, stopped at
/// [`CLASSIC_DEADLINE`]. Returns the wall and, if it finished, its output.
fn classic(pair: &Pair, seed: u64) -> Result<(f64, Option<ClassicDone>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut child = Command::new(exe)
        .args([
            CLASSIC_CHILD,
            pair.kernel.label(),
            pair.net.label(),
            &pair.side.to_string(),
            &pair.ops.to_string(),
            &seed.to_string(),
        ])
        .env("SCTM_THREADS", "1")
        .env_remove("SCTM_OBS")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn classic child: {e}"))?;
    loop {
        if let Some(st) = child.try_wait().map_err(|e| e.to_string())? {
            let wall = t.elapsed().as_secs_f64();
            let mut text = String::new();
            if let Some(mut so) = child.stdout.take() {
                so.read_to_string(&mut text).map_err(|e| e.to_string())?;
            }
            if !st.success() {
                return Err(format!("classic child for {} failed: {st}", pair.label()));
            }
            let n: Vec<u64> = text
                .split_whitespace()
                .filter_map(|w| w.parse().ok())
                .collect();
            let [messages, delivered] = n[..] else {
                return Err(format!("classic child printed {text:?}"));
            };
            return Ok((
                wall,
                Some(ClassicDone {
                    messages,
                    delivered,
                }),
            ));
        }
        if t.elapsed() >= CLASSIC_DEADLINE {
            let _ = child.kill();
            child.wait().map_err(|e| e.to_string())?;
            return Ok((t.elapsed().as_secs_f64(), None));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The child side: `classic-child KERNEL NET SIDE OPS SEED`. Prints
/// `messages delivered`, counting as delivered only the
/// messages whose delivery is not before their injection.
pub fn classic_child(argv: &[String]) -> std::process::ExitCode {
    let parsed = (|| -> Result<Pair, String> {
        let [k, n, side, ops, _] = argv else {
            return Err("classic-child KERNEL NET SIDE OPS SEED".into());
        };
        Ok(Pair {
            kernel: kernel_from_label(k).map_err(|e| e.to_string())?,
            net: NetworkKind::from_label(n).map_err(|e| e.to_string())?,
            side: side.parse().map_err(|e| format!("side: {e}"))?,
            ops: ops.parse().map_err(|e| format!("ops: {e}"))?,
        })
    })();
    let seed = argv.get(4).and_then(|s| s.parse().ok());
    let (Ok(pair), Some(seed)) = (parsed, seed) else {
        eprintln!("usage: classic-child KERNEL NET SIDE OPS SEED");
        return std::process::ExitCode::from(2);
    };
    let log = pair.experiment(seed).capture();
    let mut net = SystemConfig::make_network_kind(pair.side, pair.net);
    let r = sctm_trace::replay::replay_fixed(&log, net.as_mut());
    let delivered = r
        .inject
        .iter()
        .zip(&r.deliver)
        .filter(|(i, d)| d >= i)
        .count();
    println!("{} {}", log.len(), delivered);
    std::process::ExitCode::SUCCESS
}

/// Reset this process's peak resident set (`VmHWM`) to its current one.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset VmHWM: {e}"))
}

/// Workload seed of pass `i` of a run: the run's own seed for the first
/// pass, distinct ones for the others.
fn pass_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64) << 32)
}

/// One pass of the timed window: the exec-driven reference and the SCTM
/// loop on every pair, the workload's answer to one request.
struct Pass {
    wall_s: f64,
    /// Host walls per pair, in pair order.
    exec_s: Vec<f64>,
    loop_s: Vec<f64>,
    /// Simulated outputs, compared across passes.
    sigs: Vec<Sig>,
    /// (exec-time error, data-latency error) per pair, in %.
    errs: Vec<(f64, f64)>,
}

fn pass(pairs: &[Pair], seed: u64) -> Result<Pass, String> {
    let t = Instant::now();
    let mut p = Pass {
        wall_s: 0.0,
        exec_s: Vec::new(),
        loop_s: Vec::new(),
        sigs: Vec::new(),
        errs: Vec::new(),
    };
    for pair in pairs {
        let exp = pair.experiment(seed);
        let (reference, s) = execute(&exp, &RunSpec::exec_driven())?;
        p.exec_s.push(s);
        let (estimate, s) = execute(&exp, &RunSpec::self_correction(MAX_ITERS))?;
        p.loop_s.push(s);
        let acc = accuracy(&estimate, &reference);
        p.errs.push((acc.exec_time_err_pct, acc.data_lat_err_pct));
        p.sigs.push(Sig::of(&reference));
        p.sigs.push(Sig::of(&estimate));
    }
    p.wall_s = t.elapsed().as_secs_f64();
    Ok(p)
}

pub fn run(apps: &Apps, args: &Args) -> Result<Outcome, String> {
    let pairs = &apps.pairs[..];
    let mut out = Outcome::default();
    if args.trace {
        let rounds = repeats(args.seconds, apps.round_s, 1);
        traced_layers(pairs, args.seed, rounds, &mut out)?;
        let bin = args.sctmd.as_deref().ok_or("traced runs need --sctmd")?;
        crate::sweep::srv_probe(bin, &args.work_dir, pairs, args.seed, &mut out)?;
        return Ok(out);
    }
    // Everything timed runs on one CPU, the one calibrated (see `calib`).
    let cpu = *crate::calib::allowed_cpus()?
        .first()
        .ok_or("no CPU allowed")?;
    crate::calib::pin(&[cpu])?;
    // The timed window: a fixed number of passes filling about `seconds`
    // on the reference host, three at least. Each pass runs on inputs of
    // its own seed, so that one run's errors and walls average over
    // several inputs; the last pass repeats the first one's seed, and
    // the two must agree bit for bit. The emesh runs (on the run's own
    // seed) are spread between the passes, and a calibration round on
    // the same CPU follows every operation. Set-ups are timed in the
    // window too, before each pass, so that the calibration can scale
    // them like the passes.
    let n = repeats(args.seconds, apps.pass_s, 3);
    let seeds: Vec<u64> = (0..n).map(|i| pass_seed(args.seed, i % (n - 1))).collect();
    let emesh = emesh_pairs(pairs);
    let m = emesh.len() * apps.emesh_repeats;
    let mut cal = Scaled::start(&[cpu])?;
    cal.mark()?;
    let mut passes = Vec::new();
    // Calibration round before each pass, for its bracketing factor.
    let mut pass_round = Vec::new();
    let mut pass_rss = Vec::new();
    let mut setups = Vec::new();
    let mut emesh_raw = vec![Vec::new(); emesh.len()];
    let mut emesh_sig: Vec<Option<Sig>> = vec![None; emesh.len()];
    for (i, &seed) in seeds.iter().enumerate() {
        pass_round.push(cal.rounds().len() - 1);
        for _ in 0..SETUPS_PER_PASS {
            setups.push(setup(pairs, args.seed)?);
        }
        reset_peak_rss()?;
        passes.push(pass(pairs, seed)?);
        pass_rss.push(peak_rss_mb(None)?);
        cal.mark()?;
        for j in (0..m).filter(|j| j * n / m == i) {
            let k = j % emesh.len();
            let (r, s) = execute(&emesh[k].experiment(args.seed), &RunSpec::exec_driven())?;
            emesh_raw[k].push(s);
            cal.mark()?;
            let sig = Sig::of(&r);
            out.check(
                emesh_sig[k].get_or_insert_with(|| sig.clone()) == &sig,
                format!("{}: emesh runs of one seed disagree", emesh[k].label()),
            );
        }
    }
    for p in &passes {
        println!("pass walls (s): exec {:?} loop {:?}", p.exec_s, p.loop_s);
    }
    let mut classic_s = Vec::new();
    let mut missed = Vec::new();
    for pair in pairs {
        let (s, done) = classic(pair, args.seed)?;
        classic_s.push(s);
        match done {
            Some(d) => out.check(
                d.delivered == d.messages,
                format!(
                    "{}: classic replay delivered {} of {} messages",
                    pair.label(),
                    d.delivered,
                    d.messages
                ),
            ),
            None => missed.push(pair.label()),
        }
    }
    out.attempted = (passes.len() * pairs.len() * 2 + emesh_raw.len() * apps.emesh_repeats) as u64
        + pairs.len() as u64;
    out.failed = missed.len() as u64;

    out.check(
        passes[n - 1].sigs == passes[0].sigs,
        format!(
            "pass {} simulated outputs differ from pass 0 on the same seed",
            n - 1
        ),
    );
    for miss in &missed {
        println!(
            "classic {miss}: capture + classic replay missed the {:.1} s deadline, counted as a \
             failed operation (known defect, ROADMAP Open item 1: the event kernel's calendar \
             queue degrades on this schedule; the traced run's queue probe shows it)",
            CLASSIC_DEADLINE.as_secs_f64()
        );
    }
    // The sctf codec must give the captured traces back unchanged.
    for pair in pairs {
        let log = pair.experiment(args.seed).capture();
        let probe = sctf_probe(&log)?;
        out.check(
            probe.lossless,
            format!("{}: sctf round trip is lossy", pair.label()),
        );
    }

    // An operation's wall: the fastest of its runs, over the fastest
    // calibration round of the window (see `calib`); summed over pairs
    // or kernels.
    let fastest = |v: &[f64]| quantile(v, 0.0) * cal.factor(0.0);
    let wall = |f: fn(&Pass) -> &Vec<f64>| -> f64 {
        (0..pairs.len())
            .map(|i| fastest(&passes.iter().map(|p| f(p)[i]).collect::<Vec<f64>>()))
            .sum()
    };
    let emesh_s: f64 = emesh_raw.iter().map(|w| fastest(w)).sum();
    let pass_ms: Vec<f64> = passes.iter().map(|p| p.wall_s * 1e3).collect();
    // A pass is one request; each one's wall is scaled by the rounds on
    // either side of it.
    let pass_scaled_ms: Vec<f64> = pass_ms
        .iter()
        .zip(&pass_round)
        .map(|(ms, &r)| ms * cal.around(r))
        .collect();
    // Per pair, the mean over the distinct seeds (every pass but the
    // last); then the mean over pairs.
    let distinct = &passes[..n - 1];
    let errs: Vec<(f64, f64)> = (0..pairs.len())
        .map(|i| {
            let k = distinct.len() as f64;
            let e = distinct.iter().map(|p| p.errs[i].0).sum::<f64>() / k;
            let d = distinct.iter().map(|p| p.errs[i].1).sum::<f64>() / k;
            (e, d)
        })
        .collect();
    let mean = |f: fn(&(f64, f64)) -> f64| errs.iter().map(f).sum::<f64>() / errs.len() as f64;
    for (pair, (e, d)) in pairs.iter().zip(&errs) {
        println!(
            "{}: exec-time error {e:.4} %, data-latency error {d:.4} % (mean of {} seeds)",
            pair.label(),
            distinct.len()
        );
    }
    let all = |f: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    println!("{}", describe("sctm loop wall", "s", &all(|p| &p.loop_s)));
    println!("{}", describe("exec-driven wall", "s", &all(|p| &p.exec_s)));
    println!("{}", describe("pass wall", "ms", &pass_ms));
    println!("emesh walls (s): {emesh_raw:?}");
    println!("calibration rounds (s): {:?}", cal.rounds());
    println!("classic walls (s): {classic_s:?}");
    println!("setups (s): {setups:?}");
    println!("peak resident set per pass (MiB): {pass_rss:?}");
    // Set-ups and passes share their bracketing rounds.
    let setups_scaled: Vec<f64> = setups
        .chunks(SETUPS_PER_PASS)
        .zip(&pass_round)
        .flat_map(|(c, &r)| {
            let f = cal.around(r);
            c.iter().map(move |s| s * f)
        })
        .collect();
    out.metric("setup_s", median(&setups_scaled), "s");
    out.metric("sctm_wall_s", wall(|p| &p.loop_s), "s");
    out.metric("exec_wall_s", wall(|p| &p.exec_s), "s");
    out.metric("emesh_wall_s", emesh_s, "s");
    out.metric("classic_wall_s", classic_s.iter().sum(), "s");
    out.metric("sctm_err_pct", mean(|e| e.0), "%");
    out.metric("sctm_data_lat_err_pct", mean(|e| e.1), "%");
    out.metric("peak_rss_mb", median(&pass_rss), "MiB");
    out.metric("sweep_rps", 1e3 / median(&pass_scaled_ms), "1/s");
    out.metric("req_p50_ms", median(&pass_scaled_ms), "ms");
    out.metric("req_p95_ms", quantile(&pass_scaled_ms, 0.95), "ms");
    Ok(out)
}

/// The traced run shared by every workload: `rounds` untraced and
/// traced rounds of the exec-driven reference, the SCTM loop and the
/// emesh baseline alternate; then the queue and codec probes run on
/// each pair's uncorrected capture.
pub fn traced_layers(
    pairs: &[Pair],
    seed: u64,
    rounds: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut tracer = Tracer::default();
    let emesh = emesh_pairs(pairs);
    // Network models no pair targets still get measured, on the
    // pairs' own traces, so every workload reports every model.
    let cross: Vec<NetworkKind> = [NetworkKind::Omesh, NetworkKind::Oxbar]
        .into_iter()
        .filter(|k| pairs.iter().all(|p| p.net != *k))
        .collect();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut reference: Option<Vec<Sig>> = None;
    let mut captures: Vec<TraceLog> = Vec::new();
    for _ in 0..rounds {
        let t = Instant::now();
        let mut plain = Vec::new();
        for p in pairs {
            let exp = p.experiment(seed);
            plain.push(Sig::of(&execute(&exp, &RunSpec::exec_driven())?.0));
            plain.push(Sig::of(
                &execute(&exp, &RunSpec::self_correction(MAX_ITERS))?.0,
            ));
        }
        for p in &emesh {
            plain.push(Sig::of(
                &execute(&p.experiment(seed), &RunSpec::exec_driven())?.0,
            ));
        }
        plain_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let mut traced = Vec::new();
        captures.clear();
        for p in pairs {
            let exp = p.experiment(seed);
            traced.push(tracer.exec(p, &exp));
            let (sig, first) = tracer.sctm_loop(p, &exp, MAX_ITERS);
            traced.push(sig);
            captures.push(first);
        }
        for p in &emesh {
            traced.push(tracer.exec(p, &p.experiment(seed)));
        }
        traced_s.push(t.elapsed().as_secs_f64());
        out.attempted += 2 * (traced.len() as u64);

        out.check(
            plain == traced,
            "traced simulated outputs differ from the untraced run's",
        );
        match &reference {
            None => reference = Some(plain),
            Some(r) => out.check(*r == plain, "same-seed rounds disagree"),
        }
        let mut scratch = ReplayScratch::new();
        for kind in &cross {
            for (p, log) in pairs.iter().zip(&captures) {
                tracer.model_pass(log, p.side, *kind, &mut scratch);
            }
        }
    }
    tracer.metrics(traced_s.len(), out);
    let (plain, traced) = (median(&plain_s), median(&traced_s));
    println!(
        "traced rounds {} (s): untraced {plain_s:?}, traced {traced_s:?}",
        traced_s.len()
    );
    out.metric(
        "tracing.overhead_pct",
        100.0 * (traced - plain) / plain,
        "%",
    );

    let (mut push_ns, mut pushed, mut pop_ns, mut popped, mut peak) = (0, 0, 0, 0, 0);
    let (mut enc_ns, mut dec_ns, mut bytes, mut msgs, mut deps) = (0, 0, 0, 0, 0);
    for (p, log) in pairs.iter().zip(&captures) {
        let q = queue_probe(log);
        println!(
            "queue probe {}: {} of {} injections pushed, {:.0} ns/push, {:.0} ns/pop{}",
            p.label(),
            q.pushed,
            log.len(),
            q.push_ns_each(),
            q.pop_ns_each(),
            if q.boxed {
                " - time box hit: per-push cost pathological (ROADMAP Open item 1)"
            } else {
                ""
            }
        );
        push_ns += q.push_ns;
        pushed += q.pushed;
        pop_ns += q.pop_ns;
        popped += q.popped;
        // Classic replay injects the whole schedule before it advances
        // the network, so its pending peak is the schedule's length (the
        // probe may push fewer before its time box stops it).
        peak = peak.max(log.len() as u64);
        let s = sctf_probe(log)?;
        out.check(
            s.lossless,
            format!("{}: sctf round trip is lossy", p.label()),
        );
        enc_ns += s.encode_ns;
        dec_ns += s.decode_ns;
        bytes += s.bytes;
        msgs += s.messages;
        deps += s.deps;
    }
    let n = captures.len() as f64;
    out.metric(
        "engine.queue_push_ns",
        push_ns as f64 / pushed.max(1) as f64,
        "ns",
    );
    out.metric(
        "engine.queue_pop_ns",
        pop_ns as f64 / popped.max(1) as f64,
        "ns",
    );
    out.metric("engine.queue_pending_peak", peak as f64, "count");
    out.metric("trace.sctf_encode_ms", enc_ns as f64 / 1e6 / n, "ms");
    out.metric("trace.sctf_decode_ms", dec_ns as f64 / 1e6 / n, "ms");
    out.metric(
        "trace.sctf_bytes_per_msg",
        bytes as f64 / msgs.max(1) as f64,
        "B",
    );
    out.metric(
        "trace.deps_per_msg",
        deps as f64 / msgs.max(1) as f64,
        "count",
    );
    Ok(())
}
