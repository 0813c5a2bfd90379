//! `compare A.json B.json`: the table a later change pastes — per workload
//! and end-to-end metric, both medians, their ratio with A as the base, the
//! metric's bound, and a verdict.

use crate::report::{Better, END_TO_END};
use kobs::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// The repetitions of A or B range wider than the bound: the difference
    /// cannot be told from noise, in either direction.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Worse => "worse",
            Self::Unresolved => "unresolved",
        }
    }
}

/// One side's measurement of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    /// `(max - min) / median` over the side's repetitions; 0 for a metric
    /// taken once per run.
    pub relative_range: f64,
}

pub fn verdict(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    if a.relative_range > bound || b.relative_range > bound {
        return Verdict::Unresolved;
    }
    let worse = match better {
        Better::Lower => b.median > a.median * (1.0 + bound),
        Better::Higher => b.median < a.median * (1.0 - bound),
    };
    if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn side(workload: &Value, metric: &str) -> Option<Side> {
    let m = workload.get("metrics")?.get(metric)?;
    let median = m.get("value")?.as_f64()?;
    let range = match (m.get("min").and_then(Value::as_f64), m.get("max").and_then(Value::as_f64)) {
        (Some(min), Some(max)) if median != 0.0 => (max - min) / median.abs(),
        _ => 0.0,
    };
    Some(Side { median, relative_range: range })
}

fn untraced_workloads(doc: &Value) -> Vec<&Value> {
    doc.get("workloads")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|w| w.get("traced") == Some(&Value::Bool(false)))
        .collect()
}

fn stamp_line(doc: &Value) -> String {
    let field = |name| doc.get("stamp").and_then(|s| s.get(name)).map(Value::to_string);
    format!(
        "commit {} seed {} seconds {}",
        field("git_commit").unwrap_or_default(),
        field("seed").unwrap_or_default(),
        field("seconds").unwrap_or_default()
    )
}

/// Render the comparison; the second value is whether any row is `worse`.
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    let mut out = format!("A (base): {}\nB:        {}\n", stamp_line(a), stamp_line(b));
    out.push_str(&format!(
        "{:<22} {:<16} {:>14} {:>14} {:>9} {:>6}  {}\n",
        "workload", "metric", "A median", "B median", "B / A", "bound", "verdict"
    ));
    let mut any_worse = false;
    let b_workloads = untraced_workloads(b);
    for wa in untraced_workloads(a) {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = b_workloads.iter().find(|w| w.get("name") == wa.get("name")) else {
            out.push_str(&format!("{name:<22} (not in B)\n"));
            continue;
        };
        for spec in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(wa, spec.name), side(wb, spec.name)) else { continue };
            let v = verdict(sa, sb, spec.better, spec.bound);
            any_worse |= v == Verdict::Worse;
            out.push_str(&format!(
                "{:<22} {:<16} {:>14.4} {:>14.4} {:>9.4} {:>6.2}  {}\n",
                name,
                spec.name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                spec.bound,
                v.as_str()
            ));
        }
        // Absolute gate: any increase of the failed share fails.
        let failed = |w: &Value| w.get("failed_share").and_then(Value::as_f64).unwrap_or(0.0);
        let (fa, fb) = (failed(wa), failed(wb));
        let v = if fb > fa { Verdict::Worse } else { Verdict::Ok };
        any_worse |= v == Verdict::Worse;
        out.push_str(&format!(
            "{:<22} {:<16} {:>14.6} {:>14.6} {:>9} {:>6}  {}\n",
            name,
            "failed_share",
            fa,
            fb,
            "-",
            "0",
            v.as_str()
        ));
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(median: f64) -> Side {
        Side { median, relative_range: 0.02 }
    }

    #[test]
    fn verdict_respects_direction_and_bound() {
        assert_eq!(verdict(steady(100.0), steady(109.0), Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(verdict(steady(100.0), steady(111.0), Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(steady(100.0), steady(50.0), Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(verdict(steady(100.0), steady(91.0), Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(verdict(steady(100.0), steady(89.0), Better::Higher, 0.10), Verdict::Worse);
        assert_eq!(verdict(steady(100.0), steady(200.0), Better::Higher, 0.10), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = Side { median: 100.0, relative_range: 0.3 };
        assert_eq!(verdict(noisy, steady(150.0), Better::Lower, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(steady(100.0), noisy, Better::Lower, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn compares_two_result_documents() {
        let doc = |throughput: f64, failed_share: f64| {
            kobs::json::parse(&format!(
                r#"{{"stamp":{{"git_commit":"abc","seed":1,"seconds":10}},"workloads":[
                {{"name":"reduce_eos","traced":false,"failed_share":{failed_share},"metrics":{{
                  "throughput_rps":{{"value":{throughput},"unit":"1/s","min":{},"max":{}}},
                  "peak_rss_mb":{{"value":300,"unit":"MB"}}}}}},
                {{"name":"reduce_eos","traced":true,"metrics":{{}}}}]}}"#,
                throughput * 0.99,
                throughput * 1.01
            ))
            .unwrap()
        };
        let (table, worse) = compare(&doc(1000.0, 0.0), &doc(1050.0, 0.0));
        assert!(!worse, "{table}");
        assert!(table.contains("throughput_rps") && table.contains("1.0500"), "{table}");
        assert!(table.contains("peak_rss_mb"), "{table}");
        let (table, worse) = compare(&doc(1000.0, 0.0), &doc(700.0, 0.0));
        assert!(worse && table.contains("worse"), "{table}");
        let (_, worse) = compare(&doc(1000.0, 0.0), &doc(1000.0, 0.001));
        assert!(worse, "any increase of failed_share fails");
    }
}
