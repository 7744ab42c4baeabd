//! `compare A.json B.json`: apply the catalogue's bounds to two result
//! files (A = baseline, B = candidate). Sim-clock metrics are expected to
//! be identical at one seed; wall-clock metrics may differ within their
//! bound; a metric whose own quartile spread exceeds its bound is
//! *unresolved*, never *unchanged*.

use crate::json::Value;
use crate::metrics::{Better, Clock, MetricDef, END_TO_END};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Bit-identical values.
    Identical,
    /// Differs, within the bound, spread small enough to say so.
    Unchanged,
    /// Better by more than the bound.
    Improved,
    /// The runs' own spread exceeds the bound: no conclusion either way.
    Unresolved,
    /// Worse by more than the bound.
    Regressed,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// One metric of one workload from a result file.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub spread: f64,
}

/// Judges candidate `b` against baseline `a`.
pub fn judge(def: &MetricDef, a: Reading, b: Reading) -> Verdict {
    if a.value == b.value {
        return Verdict::Identical;
    }
    // Positive = worse, as a share of the baseline.
    let worse = match def.better {
        Better::Lower => (b.value - a.value) / a.value.abs(),
        Better::Higher => (a.value - b.value) / a.value.abs(),
    };
    let noisy = def.clock == Clock::Wall && a.spread.max(b.spread) > def.bound;
    if worse > def.bound {
        // A regression hidden in noise is still not a pass, but it is not
        // proof either: say unresolved and let the caller rerun.
        if noisy {
            Verdict::Unresolved
        } else {
            Verdict::Regressed
        }
    } else if noisy {
        Verdict::Unresolved
    } else if worse < -def.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One row of the comparison table.
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

fn field<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a Value, String> {
    v.get(key)
        .ok_or_else(|| format!("{what}: missing \"{key}\""))
}

fn workloads(doc: &Value) -> Result<&[Value], String> {
    field(doc, "workloads", "result file")?
        .as_array()
        .ok_or_else(|| "\"workloads\" is not an array".to_string())
}

fn name_of(w: &Value) -> Result<&str, String> {
    field(w, "workload", "workload entry")?
        .as_str()
        .ok_or_else(|| "\"workload\" is not a string".to_string())
}

/// Compares two parsed result files. `Err` means they are not comparable
/// (different seeds, workload lists or sim iteration counts — or one of
/// them is not an untraced result file at all).
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    for key in ["seed", "smoke", "trace"] {
        if field(a, key, "A")? != field(b, key, "B")? {
            return Err(format!("the files differ in \"{key}\": not comparable"));
        }
    }
    if field(a, "trace", "A")? != &Value::Bool(false) {
        return Err(
            "traced runs carry no end-to-end metrics: compare untraced result files".into(),
        );
    }
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    fn names(ws: &[Value]) -> Result<Vec<&str>, String> {
        ws.iter().map(name_of).collect()
    }
    if names(wa)? != names(wb)? {
        return Err("the files list different workloads: not comparable".into());
    }
    let mut rows = Vec::new();
    for (x, y) in wa.iter().zip(wb) {
        let workload = name_of(x)?;
        if field(x, "sim_iterations", workload)? != field(y, "sim_iterations", workload)? {
            return Err(format!(
                "{workload}: sim iteration counts differ: not comparable"
            ));
        }
        let failed = field(y, "failed", workload)?.as_f64().unwrap_or(f64::NAN);
        if failed != 0.0 {
            return Err(format!(
                "{workload}: candidate reports {failed} failed transfers"
            ));
        }
        for def in END_TO_END {
            let read = |w: &Value, side: &str| -> Result<Reading, String> {
                let m = field(field(w, "metrics", workload)?, def.name, workload)?;
                let num = |key: &str| {
                    field(m, key, def.name)?.as_f64().ok_or_else(|| {
                        format!("{side} {workload} {}: \"{key}\" is not a number", def.name)
                    })
                };
                Ok(Reading {
                    value: num("value")?,
                    spread: num("spread")?,
                })
            };
            let (ra, rb) = (read(x, "A")?, read(y, "B")?);
            rows.push(Row {
                workload: workload.to_string(),
                metric: def.name,
                a: ra.value,
                b: rb.value,
                verdict: judge(def, ra, rb),
            });
        }
    }
    Ok(rows)
}

/// Renders the table; returns whether any row regressed.
pub fn render(rows: &[Row]) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<24} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "B/A"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<16} {:<24} {:>16.6} {:>16.6} {:>9.4}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.b / r.a,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let _ = writeln!(
        out,
        "{} rows: {} identical, {} unchanged, {} improved, {} unresolved, {} regressed",
        rows.len(),
        count(Verdict::Identical),
        count(Verdict::Unchanged),
        count(Verdict::Improved),
        count(Verdict::Unresolved),
        count(Verdict::Regressed)
    );
    (out, count(Verdict::Regressed) > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    fn r(value: f64, spread: f64) -> Reading {
        Reading { value, spread }
    }

    #[test]
    fn wall_metric_verdicts() {
        let wall = find("setup_s").unwrap(); // wall clock, lower is better, 25 %
        let verdict = |a: (f64, f64), b: (f64, f64)| judge(wall, r(a.0, a.1), r(b.0, b.1));
        assert_eq!(verdict((100.0, 0.01), (100.0, 0.01)), Verdict::Identical);
        assert_eq!(verdict((100.0, 0.01), (105.0, 0.01)), Verdict::Unchanged);
        assert_eq!(verdict((100.0, 0.01), (95.0, 0.01)), Verdict::Unchanged);
        assert_eq!(verdict((100.0, 0.01), (130.0, 0.01)), Verdict::Regressed);
        assert_eq!(verdict((100.0, 0.01), (70.0, 0.01)), Verdict::Improved);
        // Spread wider than the bound: no conclusion in either direction.
        assert_eq!(verdict((100.0, 0.30), (103.0, 0.01)), Verdict::Unresolved);
        assert_eq!(verdict((100.0, 0.01), (140.0, 0.30)), Verdict::Unresolved);
        assert_eq!(verdict((100.0, 0.30), (60.0, 0.01)), Verdict::Unresolved);
    }

    #[test]
    fn sim_metrics_ignore_spread_and_respect_direction() {
        let goodput = find("sim_goodput_gbps").unwrap(); // higher is better, 10 %
        assert_eq!(judge(goodput, r(9.8, 0.0), r(9.8, 0.0)), Verdict::Identical);
        assert_eq!(judge(goodput, r(9.8, 0.0), r(9.7, 0.0)), Verdict::Unchanged);
        assert_eq!(judge(goodput, r(9.8, 0.0), r(8.0, 0.0)), Verdict::Regressed);
        assert_eq!(judge(goodput, r(9.8, 0.0), r(11.8, 0.0)), Verdict::Improved);
        // A sim metric is deterministic: a recorded spread cannot excuse it.
        assert_eq!(judge(goodput, r(9.8, 0.9), r(8.0, 0.9)), Verdict::Regressed);
    }

    fn file(seed: f64, names: &[&str], wall: f64, failed: f64, sim_iters: f64) -> Value {
        let workloads = names
            .iter()
            .map(|n| {
                Value::obj([
                    ("workload", Value::str(*n)),
                    ("sim_iterations", Value::Num(sim_iters)),
                    ("failed", Value::Num(failed)),
                    (
                        "metrics",
                        Value::obj(END_TO_END.iter().map(|d| {
                            let value = if d.name == "wall_ns_per_pkt" {
                                wall
                            } else {
                                1.0
                            };
                            (
                                d.name,
                                Value::obj([
                                    ("value", Value::Num(value)),
                                    ("spread", Value::Num(0.01)),
                                ]),
                            )
                        })),
                    ),
                ])
            })
            .collect();
        Value::obj([
            ("seed", Value::Num(seed)),
            ("smoke", Value::Bool(false)),
            ("trace", Value::Bool(false)),
            ("workloads", Value::Arr(workloads)),
        ])
    }

    #[test]
    fn compares_synthetic_files() {
        let base = file(7.0, &["x", "y"], 100.0, 0.0, 5.0);
        let rows = compare(&base, &base).unwrap();
        assert_eq!(rows.len(), 2 * END_TO_END.len());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Identical));
        assert!(!render(&rows).1);

        let slower = file(7.0, &["x", "y"], 140.0, 0.0, 5.0);
        let rows = compare(&base, &slower).unwrap();
        let (table, regressed) = render(&rows);
        assert!(regressed && table.contains("REGRESSED"));
        assert_eq!(
            rows.iter()
                .filter(|r| r.verdict == Verdict::Regressed)
                .count(),
            2
        );
        // The other way round the same pair is an improvement.
        assert!(!render(&compare(&slower, &base).unwrap()).1);
    }

    #[test]
    fn refuses_incomparable_files() {
        let base = file(7.0, &["x", "y"], 100.0, 0.0, 5.0);
        for (other, why) in [
            (file(8.0, &["x", "y"], 100.0, 0.0, 5.0), "seed"),
            (file(7.0, &["x"], 100.0, 0.0, 5.0), "workloads"),
            (file(7.0, &["y", "x"], 100.0, 0.0, 5.0), "workloads"),
            (file(7.0, &["x", "y"], 100.0, 0.0, 6.0), "iteration"),
            (file(7.0, &["x", "y"], 100.0, 3.0, 5.0), "failed"),
        ] {
            let err = compare(&base, &other).err().unwrap_or_default();
            assert!(err.contains(why), "expected {why:?} in {err:?}");
        }
        assert!(compare(&base, &Value::Null).is_err());
    }
}
