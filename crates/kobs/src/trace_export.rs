//! Chrome trace-event export: render [`ktrace`](crate::ktrace) spans as a
//! `chrome://tracing` / Perfetto-loadable JSON document.
//!
//! Layout: one process (`pid` 1), one thread row per track. Rows are
//! announced with `"ph":"M"` `thread_name` metadata events; every span
//! becomes one `"ph":"X"` complete event with `ts`/`dur` in (virtual)
//! microseconds and its causal identity (`span_id`, `parent`) plus user
//! fields in `args`.
//!
//! The document is constructed purely from span data (ids, virtual
//! timestamps, name-ordered rows), so two replays of the same seed emit
//! byte-identical JSON — `obs-check --chrome` validates the structure and
//! CI diffs the bytes.

use crate::json::{self, Value};
use crate::ktrace::Span;
use std::collections::BTreeMap;

/// Render `spans` as a chrome trace JSON document (single line).
pub fn chrome_json(spans: &[Span]) -> String {
    // Rows are numbered in track-name order, so the tid assignment does not
    // depend on which span happened to finish first.
    let mut tids: BTreeMap<&'static str, u64> = spans.iter().map(|s| (s.track, 0)).collect();
    for (i, tid) in tids.values_mut().enumerate() {
        *tid = i as u64 + 1;
    }
    let mut events: Vec<Value> = Vec::with_capacity(tids.len() + spans.len());
    for (track, tid) in &tids {
        events.push(json::obj(vec![
            ("name", json::str("thread_name")),
            ("ph", json::str("M")),
            ("pid", json::num(1.0)),
            ("tid", json::num(*tid as f64)),
            ("args", json::obj(vec![("name", json::str(*track))])),
        ]));
    }
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| s.id);
    for s in sorted {
        let tid = tids[s.track];
        let mut args = vec![("span_id".to_string(), json::num(s.id as f64))];
        // Omit parent edges pointing outside the exported set (parent
        // still active, or evicted by the span-capacity bound).
        if let Some(p) = s.parent.filter(|p| ids.contains(p)) {
            args.push(("parent".to_string(), json::num(p as f64)));
        }
        for (k, v) in &s.fields {
            let jv = match v {
                crate::trace::FieldValue::I64(n) => json::num(*n as f64),
                crate::trace::FieldValue::U64(n) => json::num(*n as f64),
                crate::trace::FieldValue::Str(t) => json::str(t.clone()),
            };
            args.push((k.to_string(), jv));
        }
        events.push(json::obj(vec![
            ("name", json::str(s.name)),
            ("cat", json::str(s.track)),
            ("ph", json::str("X")),
            ("ts", json::num(s.start_us as f64)),
            ("dur", json::num(s.duration_us() as f64)),
            ("pid", json::num(1.0)),
            ("tid", json::num(tid as f64)),
            ("args", Value::Obj(args)),
        ]));
    }
    json::obj(vec![("traceEvents", Value::Arr(events)), ("displayTimeUnit", json::str("ms"))])
        .to_string()
}

/// Convenience: export every finished span of the current run.
pub fn chrome_json_all() -> String {
    chrome_json(&crate::ktrace::finished_spans())
}

struct Interval {
    ts: i64,
    end: i64,
}

/// Validate a chrome trace document (the `obs-check --chrome` gate):
/// parses, every complete event has `dur >= 0` and a positive `tid`, and
/// every `parent` edge in `args` points at a known span whose interval
/// contains the child. Returns the number of complete events checked.
pub fn validate_chrome_json(text: &str) -> Result<usize, String> {
    let doc = json::parse(text).map_err(|e| format!("chrome JSON does not parse: {e}"))?;
    let events =
        doc.get("traceEvents").and_then(|v| v.as_arr()).ok_or("missing traceEvents array")?;
    let mut by_id: BTreeMap<i64, Interval> = BTreeMap::new();
    let mut complete = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(|v| v.as_str()).ok_or(format!("event {i}: missing ph"))?;
        if ph != "X" {
            continue;
        }
        complete += 1;
        let name = ev.get("name").and_then(|v| v.as_str()).unwrap_or("");
        if name.is_empty() {
            return Err(format!("event {i}: empty name"));
        }
        let ts =
            ev.get("ts").and_then(Value::as_f64).ok_or(format!("event {i} ({name}): missing ts"))?
                as i64;
        let dur = ev
            .get("dur")
            .and_then(Value::as_f64)
            .ok_or(format!("event {i} ({name}): missing dur"))? as i64;
        if dur < 0 {
            return Err(format!("event {i} ({name}): negative dur {dur}"));
        }
        if ev.get("tid").and_then(Value::as_f64).is_none_or(|t| t < 1.0) {
            return Err(format!("event {i} ({name}): missing or non-positive tid"));
        }
        if let Some(id) = ev.get("args").and_then(|a| a.get("span_id")).and_then(Value::as_f64) {
            by_id.insert(id as i64, Interval { ts, end: ts + dur });
        }
    }
    for (i, ev) in events.iter().enumerate() {
        if ev.get("ph").and_then(|v| v.as_str()) != Some("X") {
            continue;
        }
        let Some(args) = ev.get("args") else {
            continue;
        };
        let Some(parent) = args.get("parent").and_then(Value::as_f64) else {
            continue;
        };
        let child_id = args.get("span_id").and_then(Value::as_f64).unwrap_or(-1.0);
        let p = by_id
            .get(&(parent as i64))
            .ok_or(format!("event {i}: parent {parent} has no span_id event"))?;
        let ts = ev.get("ts").and_then(Value::as_f64).unwrap_or(0.0) as i64;
        let dur = ev.get("dur").and_then(Value::as_f64).unwrap_or(0.0) as i64;
        if ts < p.ts || ts + dur > p.end {
            return Err(format!(
                "span {child_id} [{ts}..{}] escapes parent {parent} [{}..{}]",
                ts + dur,
                p.ts,
                p.end
            ));
        }
    }
    Ok(complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ktrace;
    use crate::trace::FieldValue;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: i64, end: i64) -> Span {
        Span {
            id,
            parent,
            root: 1,
            name,
            track: "kstreams",
            start_us: start,
            end_us: end,
            fields: vec![("step", FieldValue::U64(4))],
        }
    }

    #[test]
    fn export_round_trips_and_validates() {
        let spans = vec![
            span(1, None, "cycle", 1000, 9000),
            span(2, Some(1), "commit", 2000, 8000),
            Span { track: "task", ..span(3, Some(1), "task", 1000, 1001) },
        ];
        let text = chrome_json(&spans);
        let n = validate_chrome_json(&text).expect("valid");
        assert_eq!(n, 3);
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 rows (kstreams, task) => 2 metadata + 3 complete events.
        assert_eq!(events.len(), 5);
        let meta: Vec<String> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("M"))
            .map(|e| e.get("args").unwrap().get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(meta, vec!["kstreams".to_string(), "task".to_string()]);
    }

    #[test]
    fn export_is_deterministic_regardless_of_span_order() {
        let a = vec![span(1, None, "cycle", 0, 10), span(2, Some(1), "commit", 1, 9)];
        let b: Vec<Span> = a.iter().rev().cloned().collect();
        assert_eq!(chrome_json(&a), chrome_json(&b));
    }

    #[test]
    fn validation_rejects_escaping_child_and_negative_dur() {
        let bad = vec![span(1, None, "cycle", 1000, 2000), span(2, Some(1), "commit", 1500, 2500)];
        let err = validate_chrome_json(&chrome_json(&bad)).unwrap_err();
        assert!(err.contains("escapes parent"), "{err}");

        let text =
            chrome_json(&[span(1, None, "cycle", 0, 10)]).replace("\"dur\":10", "\"dur\":-1");
        let err = validate_chrome_json(&text).unwrap_err();
        assert!(err.contains("negative dur"), "{err}");
    }

    #[test]
    fn live_store_export() {
        // Not isolated from other ktrace tests on purpose-built ids; use
        // the validation path only.
        let _ = ktrace::finished_spans();
        let text = chrome_json_all();
        validate_chrome_json(&text).expect("live export validates");
    }
}
