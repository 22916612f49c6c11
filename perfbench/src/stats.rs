//! Order statistics and host probes shared by the workloads.

/// Quantile `q` in `[0, 1]` by linear interpolation between order
/// statistics. `values` must be non-empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One line describing a timing sample: median, quartiles, and the
/// highest of p90/p95/p99 that still has at least ten samples beyond
/// it, with the sample count.
pub fn describe(name: &str, unit: &str, values: &[f64]) -> String {
    let n = values.len();
    let mut line = format!(
        "{name}: n={n} median={:.6} q1={:.6} q3={:.6}",
        median(values),
        quantile(values, 0.25),
        quantile(values, 0.75)
    );
    if let Some(p) = [99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
    {
        line.push_str(&format!(" p{p}={:.6}", quantile(values, p / 100.0)));
    }
    line.push(' ');
    line.push_str(unit);
    line
}

/// Peak resident set (`VmHWM`) of a process in MiB, from procfs.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let small: Vec<f64> = (0..50).map(f64::from).collect();
        assert!(!describe("x", "ms", &small).contains(" p9"));
        let big: Vec<f64> = (0..200).map(f64::from).collect();
        assert!(describe("x", "ms", &big).contains(" p95="));
    }
}
