//! Host-speed calibration for the in-process timings.
//!
//! The shared host this benchmark runs on changes speed in phases that
//! last tens of seconds: the same 64-core pass can take 0.95 s in one
//! minute and 1.5 s in the next, and no statistic inside one run can
//! tell such a phase from a slower program. So the workloads time a
//! fixed kernel of the benchmark's own ([`Calibrator::measure`]) between
//! the simulator operations they time, and scale an operation's walls
//! by the kernel's walls to the kernel's nominal wall [`REF_S`]: the
//! fastest run of an operation by the fastest round
//! ([`Scaled::factor`]), or one run by the rounds on either side of it
//! ([`Scaled::around`]). On an idle host the scaled value is the wall
//! itself; on a host running at 70 % speed, it is still about what the
//! operation takes at full speed. On a shared 2-vCPU x86-64 virtual
//! machine, over a dozen runs of `flagship`, the spread of the SCTM
//! loop's wall was 0.14 unscaled and 0.03 as the fastest pass over the
//! fastest round.
//!
//! The kernel is memory-bound like the simulator (a binary heap, a hash
//! map, a sort and random read-modify-writes over a 32 MiB table); a
//! pure register loop does not slow down with the simulator and was
//! rejected. It is benchmark code, built in this package, so a change
//! to the program never changes it. It runs in a helper process of its
//! own ([`CALIB_CHILD`]), so that its memory never shows in the peak
//! resident set of the process that simulates.
//!
//! The phases differ between the host's CPUs: a kernel timed on the
//! other CPU tracks the simulator about a third as well as one timed on
//! the simulator's own. So each helper is pinned to one CPU, and the
//! workloads pin what they time to the CPUs their helpers calibrate.

use crate::stats::quantile;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::Instant;

/// First argument that turns this binary into the calibration helper.
pub const CALIB_CHILD: &str = "calib-child";

/// An affinity mask of up to 1024 CPUs, as `cpu_set_t` lays it out.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuMask) -> i32;
}

/// The CPUs this process may run on, in increasing order.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: the kernel writes at most `size_of::<CpuMask>()` bytes
    // into `mask`, which is that large.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..1024)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect())
}

/// Restrict this process (and the children it spawns from now on) to
/// `cpus`.
pub fn pin(cpus: &[usize]) -> Result<(), String> {
    let mut mask: CpuMask = [0; 16];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: the kernel reads `size_of::<CpuMask>()` bytes of `mask`.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), &mask) } != 0 {
        return Err(format!(
            "sched_setaffinity {cpus:?}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Nominal wall of one [`Calibrator::measure`] round, in seconds.
pub const REF_S: f64 = 0.2;

/// Words in the random-access table (32 MiB).
const TABLE_WORDS: usize = 4 << 20;

/// xorshift64: the kernel needs reproducible noise, nothing more.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

pub struct Calibrator {
    table: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            table: vec![1; TABLE_WORDS],
        }
    }
}

impl Calibrator {
    /// Run the fixed kernel once and return its wall in seconds.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut acc = 0u64;
        for _ in 0..6_000_000 {
            let i = (next(&mut x) % TABLE_WORDS as u64) as usize;
            acc = acc.wrapping_add(self.table[i]);
            self.table[i] = self.table[i].wrapping_add(acc);
        }
        // An event queue: pop the earliest, push a later one.
        let mut heap = BinaryHeap::new();
        for _ in 0..100_000 {
            heap.push(Reverse((next(&mut x) % 1_000_000, x)));
        }
        for _ in 0..200_000 {
            let Reverse((t, v)) = heap.pop().expect("the heap never drains");
            acc ^= v;
            heap.push(Reverse((t + next(&mut x) % 100_000, x)));
        }
        let mut map: HashMap<u64, u64> = HashMap::new();
        for i in 0..1_000_000u64 {
            *map.entry(next(&mut x) % 500_000).or_insert(0) += i;
        }
        acc = map.values().fold(acc, |a, v| a.wrapping_add(*v));
        let mut v: Vec<u64> = (0..2_000_000).map(|_| next(&mut x)).collect();
        v.sort_unstable();
        black_box((acc, v[v.len() / 2]));
        t.elapsed().as_secs_f64()
    }
}

/// The helper side, `calib-child CPU`: pinned to CPU, for every line on
/// stdin one calibration round, its wall printed as one line; exits at
/// end of input.
pub fn calib_child(argv: &[String]) -> ExitCode {
    let cpu = argv.first().and_then(|c| c.parse().ok());
    let Some(cpu) = cpu else {
        eprintln!("usage: calib-child CPU");
        return ExitCode::from(2);
    };
    if let Err(e) = pin(&[cpu]) {
        eprintln!("calib-child: {e}");
        return ExitCode::FAILURE;
    }
    let mut cal = Calibrator::default();
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        if line.is_err() || writeln!(out, "{}", cal.measure()).is_err() || out.flush().is_err() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// One calibration helper process.
struct Helper {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Helper {
    fn start(cpu: usize) -> Result<Helper, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args([CALIB_CHILD, &cpu.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn calibration helper: {e}"))?;
        let stdin = child.stdin.take().expect("piped");
        let stdout = BufReader::new(child.stdout.take().expect("piped"));
        Ok(Helper {
            child,
            stdin,
            stdout,
        })
    }

    fn measure(&mut self) -> Result<f64, String> {
        let mut line = String::new();
        writeln!(self.stdin, "m")
            .and_then(|()| self.stdin.flush())
            .and_then(|()| self.stdout.read_line(&mut line).map(|_| ()))
            .map_err(|e| format!("calibration helper: {e}"))?;
        line.trim()
            .parse()
            .map_err(|e| format!("calibration helper printed {line:?}: {e}"))
    }
}

impl Drop for Helper {
    /// Stop the helper and wait until it has ended.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Calibration rounds that alternate with the operations timed:
/// `mark`, op, `mark`, op, ..., `mark`.
pub struct Scaled {
    helpers: Vec<Helper>,
    /// Calibration walls (the mean over the helpers' CPUs), one more
    /// than the operations once closed.
    rounds: Vec<f64>,
}

impl Scaled {
    /// Start one calibration helper on each of `cpus`.
    pub fn start(cpus: &[usize]) -> Result<Scaled, String> {
        Ok(Scaled {
            helpers: cpus
                .iter()
                .map(|&c| Helper::start(c))
                .collect::<Result<_, _>>()?,
            rounds: Vec::new(),
        })
    }

    /// Calibrate before the next operation (the first call) or between
    /// two operations; call once more after the last one. The helpers
    /// run one after the other, so they never share a CPU.
    pub fn mark(&mut self) -> Result<(), String> {
        let mut sum = 0.0;
        for h in &mut self.helpers {
            sum += h.measure()?;
        }
        self.rounds.push(sum / self.helpers.len() as f64);
        Ok(())
    }

    /// [`REF_S`] over quantile `q` of the calibration rounds: the
    /// factor for quantile `q` of the walls of the operations timed
    /// between them.
    pub fn factor(&self, q: f64) -> f64 {
        REF_S / quantile(&self.rounds, q)
    }

    /// [`REF_S`] over the mean of rounds `i` and `i + 1`: the factor for
    /// the one operation timed between them.
    pub fn around(&self, i: usize) -> f64 {
        REF_S / ((self.rounds[i] + self.rounds[i + 1]) / 2.0)
    }

    /// Every calibration wall so far, for the human-readable lines.
    pub fn rounds(&self) -> &[f64] {
        &self.rounds
    }
}
