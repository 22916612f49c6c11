//! The schema-versioned bench-result format (`sctm-bench-v1`) and its
//! merge/compare operations.
//!
//! Emitters: the vendored criterion shim (every bench binary accepts
//! `--bench-json PATH`) and the `tables` binary (per-experiment wall
//! times). Consumer: the `benchcmp` binary, which merges per-emitter
//! files into one `BENCH_PR3.json` and diffs two such files as the CI
//! perf gate.
//!
//! Medians (not means) are compared: sample medians are robust to the
//! one-off scheduling outliers shared CI runners produce. The machine
//! fingerprint travels with the numbers so a comparison across
//! different hardware can be flagged instead of trusted.

use crate::json::{parse, Json};
use sctm_obs::json_escape;
use std::fmt::Write as _;

/// Schema identifier; bump on any incompatible change.
pub const SCHEMA: &str = "sctm-bench-v1";

/// Where the numbers were measured.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Machine {
    pub os: String,
    pub arch: String,
    pub threads: u64,
}

impl Machine {
    /// Fingerprint of the machine running right now.
    pub fn current() -> Machine {
        Machine {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        }
    }
}

/// One benchmark's order statistics, in nanoseconds per iteration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchRecord {
    pub id: String,
    pub samples: u64,
    pub min_ns: f64,
    pub p25_ns: f64,
    pub median_ns: f64,
    pub p75_ns: f64,
    pub max_ns: f64,
}

/// A complete bench-JSON document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchFile {
    pub schema: String,
    pub machine: Machine,
    pub benches: Vec<BenchRecord>,
}

impl BenchFile {
    pub fn new() -> Self {
        BenchFile {
            schema: SCHEMA.to_string(),
            machine: Machine::current(),
            benches: Vec::new(),
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"{}\",", json_escape(&self.schema));
        let _ = writeln!(
            out,
            "  \"machine\": {{\"os\": \"{}\", \"arch\": \"{}\", \"threads\": {}}},",
            json_escape(&self.machine.os),
            json_escape(&self.machine.arch),
            self.machine.threads
        );
        out.push_str("  \"benches\": [");
        for (i, b) in self.benches.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"id\": \"{}\", \"samples\": {}, \"min_ns\": {}, \"p25_ns\": {}, \"median_ns\": {}, \"p75_ns\": {}, \"max_ns\": {}}}",
                json_escape(&b.id),
                b.samples,
                num(b.min_ns),
                num(b.p25_ns),
                num(b.median_ns),
                num(b.p75_ns),
                num(b.max_ns),
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    pub fn from_json(s: &str) -> Result<BenchFile, String> {
        let v = parse(s)?;
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema '{schema}' (want '{SCHEMA}')"));
        }
        let m = v.get("machine").ok_or("missing machine")?;
        let machine = Machine {
            os: m.get("os").and_then(Json::as_str).unwrap_or("").to_string(),
            arch: m
                .get("arch")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            threads: m.get("threads").and_then(Json::as_u64).unwrap_or(0),
        };
        let mut benches = Vec::new();
        for b in v
            .get("benches")
            .and_then(Json::as_arr)
            .ok_or("missing benches array")?
        {
            let field = |k: &str| {
                b.get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("bench missing numeric '{k}'"))
            };
            benches.push(BenchRecord {
                id: b
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("bench missing id")?
                    .to_string(),
                samples: b.get("samples").and_then(Json::as_u64).unwrap_or(0),
                min_ns: field("min_ns")?,
                p25_ns: field("p25_ns")?,
                median_ns: field("median_ns")?,
                p75_ns: field("p75_ns")?,
                max_ns: field("max_ns")?,
            });
        }
        Ok(BenchFile {
            schema: schema.to_string(),
            machine,
            benches,
        })
    }

    /// Concatenate several files (e.g. one per bench binary) into one.
    /// The machine fingerprint comes from the first file; bench ids are
    /// kept sorted and must be unique across inputs.
    pub fn merge(files: Vec<BenchFile>) -> Result<BenchFile, String> {
        let mut out = BenchFile::new();
        if let Some(first) = files.first() {
            out.machine = first.machine.clone();
        }
        for f in files {
            out.benches.extend(f.benches);
        }
        out.benches.sort_by(|a, b| a.id.cmp(&b.id));
        for w in out.benches.windows(2) {
            if w[0].id == w[1].id {
                return Err(format!("duplicate bench id '{}' across inputs", w[0].id));
            }
        }
        Ok(out)
    }
}

fn num(v: f64) -> String {
    if !v.is_finite() {
        "0".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One benchmark whose median moved past the threshold.
#[derive(Clone, Debug, PartialEq)]
pub struct Delta {
    pub id: String,
    pub old_ns: f64,
    pub new_ns: f64,
    /// `new / old`; > 1 is slower.
    pub ratio: f64,
}

/// Result of comparing two bench files.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Comparison {
    /// Benchmarks present in both files.
    pub common: usize,
    /// Ids only in the new file.
    pub added: Vec<String>,
    /// Ids only in the old file.
    pub removed: Vec<String>,
    /// Median slowdowns beyond the threshold.
    pub regressions: Vec<Delta>,
    /// Median speedups beyond the threshold.
    pub improvements: Vec<Delta>,
    /// The two files were measured on different machines.
    pub machine_mismatch: bool,
    /// Geometric mean of `new/old` median ratios across *all* common
    /// benches (not just the ones past the threshold): the one-number
    /// answer to "did this change make the suite faster overall".
    /// `None` when no common bench has a positive old median.
    pub geo_mean_ratio: Option<f64>,
}

/// Compare medians with a relative `threshold` (0.10 = 10%). Benchmarks
/// appearing on only one side are reported but never count as
/// regressions — renames must not break CI silently *or* loudly.
pub fn compare(old: &BenchFile, new: &BenchFile, threshold: f64) -> Comparison {
    let mut cmp = Comparison {
        machine_mismatch: old.machine != new.machine,
        ..Comparison::default()
    };
    let (mut ln_sum, mut ln_n) = (0.0f64, 0u32);
    for n in &new.benches {
        match old.benches.iter().find(|o| o.id == n.id) {
            None => cmp.added.push(n.id.clone()),
            Some(o) => {
                cmp.common += 1;
                if o.median_ns <= 0.0 {
                    continue;
                }
                let ratio = n.median_ns / o.median_ns;
                if ratio > 0.0 && ratio.is_finite() {
                    ln_sum += ratio.ln();
                    ln_n += 1;
                }
                let d = Delta {
                    id: n.id.clone(),
                    old_ns: o.median_ns,
                    new_ns: n.median_ns,
                    ratio,
                };
                if ratio > 1.0 + threshold {
                    cmp.regressions.push(d);
                } else if ratio < 1.0 - threshold {
                    cmp.improvements.push(d);
                }
            }
        }
    }
    for o in &old.benches {
        if !new.benches.iter().any(|n| n.id == o.id) {
            cmp.removed.push(o.id.clone());
        }
    }
    cmp.regressions.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
    cmp.improvements.sort_by(|a, b| a.ratio.total_cmp(&b.ratio));
    if ln_n > 0 {
        cmp.geo_mean_ratio = Some((ln_sum / ln_n as f64).exp());
    }
    cmp
}

/// Outcome of a within-file median ratio check (`benchcmp ratio`).
#[derive(Clone, Debug, PartialEq)]
pub struct RatioCheck {
    pub num_ns: f64,
    pub den_ns: f64,
    /// `num / den` of the two medians.
    pub ratio: f64,
    pub max: f64,
}

impl RatioCheck {
    pub fn passed(&self) -> bool {
        self.ratio <= self.max
    }
}

/// Gate the ratio of two medians *within one file*: `num_id / den_id`
/// must not exceed `max`. This is how relative-overhead budgets (e.g.
/// "stats polling costs ≤2%") are enforced without a baseline file —
/// both numbers come from the same machine and run, so no fingerprint
/// escape hatch applies.
pub fn ratio_check(
    file: &BenchFile,
    num_id: &str,
    den_id: &str,
    max: f64,
) -> Result<RatioCheck, String> {
    let median = |id: &str| {
        file.benches
            .iter()
            .find(|b| b.id == id)
            .map(|b| b.median_ns)
            .ok_or_else(|| format!("bench id '{id}' not in file"))
    };
    let num_ns = median(num_id)?;
    let den_ns = median(den_id)?;
    if den_ns <= 0.0 {
        return Err(format!(
            "denominator '{den_id}' has non-positive median {den_ns}"
        ));
    }
    Ok(RatioCheck {
        num_ns,
        den_ns,
        ratio: num_ns / den_ns,
        max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, median: f64) -> BenchRecord {
        BenchRecord {
            id: id.to_string(),
            samples: 10,
            min_ns: median * 0.9,
            p25_ns: median * 0.95,
            median_ns: median,
            p75_ns: median * 1.05,
            max_ns: median * 1.2,
        }
    }

    fn file(benches: Vec<BenchRecord>) -> BenchFile {
        BenchFile {
            schema: SCHEMA.to_string(),
            machine: Machine {
                os: "linux".into(),
                arch: "x86_64".into(),
                threads: 8,
            },
            benches,
        }
    }

    #[test]
    fn roundtrip_through_json() {
        let f = file(vec![rec("a/1", 1234.5), rec("b/2", 1e9)]);
        let back = BenchFile::from_json(&f.to_json()).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn self_comparison_reports_zero_regressions() {
        let f = file(vec![rec("a", 100.0), rec("b", 2000.0)]);
        let cmp = compare(&f, &f, 0.10);
        assert_eq!(cmp.common, 2);
        assert!(cmp.regressions.is_empty());
        assert!(cmp.improvements.is_empty());
        assert!(cmp.added.is_empty() && cmp.removed.is_empty());
        assert!(!cmp.machine_mismatch);
    }

    #[test]
    fn regression_and_improvement_detection() {
        let old = file(vec![
            rec("slow", 100.0),
            rec("fast", 100.0),
            rec("same", 100.0),
        ]);
        let new = file(vec![
            rec("slow", 130.0),
            rec("fast", 70.0),
            rec("same", 105.0),
        ]);
        let cmp = compare(&old, &new, 0.10);
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].id, "slow");
        assert!((cmp.regressions[0].ratio - 1.3).abs() < 1e-9);
        assert_eq!(cmp.improvements.len(), 1);
        assert_eq!(cmp.improvements[0].id, "fast");
    }

    #[test]
    fn added_and_removed_are_not_regressions() {
        let old = file(vec![rec("gone", 1.0)]);
        let new = file(vec![rec("new", 1.0)]);
        let cmp = compare(&old, &new, 0.1);
        assert_eq!(cmp.added, vec!["new"]);
        assert_eq!(cmp.removed, vec!["gone"]);
        assert!(cmp.regressions.is_empty());
    }

    #[test]
    fn geo_mean_covers_all_common_benches() {
        // 2× slower and 2× faster cancel exactly in the geometric mean;
        // the sub-threshold "same" bench still participates.
        let old = file(vec![rec("a", 100.0), rec("b", 100.0), rec("c", 100.0)]);
        let new = file(vec![rec("a", 200.0), rec("b", 50.0), rec("c", 100.0)]);
        let g = compare(&old, &new, 0.10).geo_mean_ratio.unwrap();
        assert!((g - 1.0).abs() < 1e-12, "geo mean {g}");
        // Uniform 10% slowdown shows up as exactly 1.1.
        let new = file(vec![rec("a", 110.0), rec("b", 110.0), rec("c", 110.0)]);
        let g = compare(&old, &new, 0.50).geo_mean_ratio.unwrap();
        assert!((g - 1.1).abs() < 1e-9, "geo mean {g}");
        // No common benches → no geo mean, and nothing else to report:
        // `benchcmp diff` treats this as a failed (downgradable)
        // comparison rather than a vacuous "no regressions".
        let disjoint = compare(&old, &file(vec![rec("z", 1.0)]), 0.1);
        assert_eq!(disjoint.geo_mean_ratio, None);
        assert_eq!(disjoint.common, 0);
        assert!(disjoint.regressions.is_empty() && disjoint.improvements.is_empty());
        assert_eq!(disjoint.added.len(), 1);
        assert_eq!(disjoint.removed.len(), 3);
    }

    #[test]
    fn machine_mismatch_flagged() {
        let a = file(vec![]);
        let mut b = file(vec![]);
        b.machine.threads = 1;
        assert!(compare(&a, &b, 0.1).machine_mismatch);
    }

    #[test]
    fn merge_concatenates_and_rejects_duplicates() {
        let merged =
            BenchFile::merge(vec![file(vec![rec("b", 1.0)]), file(vec![rec("a", 2.0)])]).unwrap();
        assert_eq!(merged.benches.len(), 2);
        assert_eq!(merged.benches[0].id, "a");
        assert!(
            BenchFile::merge(vec![file(vec![rec("a", 1.0)]), file(vec![rec("a", 2.0)])]).is_err()
        );
    }

    #[test]
    fn ratio_check_gates_within_one_file() {
        let f = file(vec![rec("grp/polled", 102.0), rec("grp/quiet", 100.0)]);
        let ok = ratio_check(&f, "grp/polled", "grp/quiet", 1.02).unwrap();
        assert!(ok.passed(), "ratio {} should pass at 1.02", ok.ratio);
        let bad = ratio_check(&f, "grp/polled", "grp/quiet", 1.01).unwrap();
        assert!(!bad.passed());
        assert!((bad.ratio - 1.02).abs() < 1e-9);
        assert!(ratio_check(&f, "missing", "grp/quiet", 1.0).is_err());
        let zero = file(vec![rec("a", 1.0), rec("b", 0.0)]);
        assert!(ratio_check(&zero, "a", "b", 1.0).is_err());
    }

    #[test]
    fn schema_mismatch_rejected() {
        let doc = file(vec![]).to_json().replace(SCHEMA, "sctm-bench-v999");
        assert!(BenchFile::from_json(&doc).is_err());
    }
}
