//! Wall-clock spans recorded by the benchmark around its calls into the
//! stack (spans *inside* the program are a later change). Every timed
//! region goes through [`Spans::time`], traced or not, so the traced and
//! untraced runs execute the same code; only the bookkeeping differs.

use std::time::{Duration, Instant};

use crate::json::Value;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    pub name: &'static str,
    pub iter: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log for one process (one workload).
pub struct Spans {
    workload: String,
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new(workload: &str, enabled: bool) -> Spans {
        Spans {
            workload: workload.to_string(),
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Pauses or resumes recording (the traced run's A/B iterations time
    /// the same regions without logging them).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Runs `f`, returns its result and wall duration, and — when
    /// recording — logs a span nested under whichever span is open.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        iter: u32,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> (R, Duration) {
        let slot = self.enabled.then(|| {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent: self.open.last().copied(),
                name,
                iter,
                start_ns: 0,
                end_ns: 0,
            });
            self.open.push(id);
            id as usize
        });
        let start = Instant::now();
        let out = f(self);
        let took = start.elapsed();
        if let Some(i) = slot {
            let s = (start - self.origin).as_nanos() as u64;
            self.spans[i].start_ns = s;
            self.spans[i].end_ns = s + took.as_nanos() as u64;
            self.open.pop();
        }
        (out, took)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The log as Chrome trace-event JSON (`chrome://tracing`, Perfetto):
    /// one complete (`"ph": "X"`) event per span, microsecond timestamps.
    pub fn to_chrome_trace(&self) -> Value {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("cat", Value::str(self.workload.as_str())),
                    ("ph", Value::str("X")),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(1.0)),
                    (
                        "args",
                        Value::obj([
                            ("id", Value::Num(f64::from(s.id))),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                            ),
                            ("workload", Value::str(self.workload.as_str())),
                            ("iter", Value::Num(f64::from(s.iter))),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::str("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_contain_children() {
        let mut log = Spans::new("w", true);
        let ((), outer) = log.time("outer", 3, |log| {
            log.time("inner", 3, |_| std::hint::black_box(1 + 1));
        });
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[0].end_ns - spans[0].start_ns, outer.as_nanos() as u64);
    }

    #[test]
    fn disabled_log_still_times_but_records_nothing() {
        let mut log = Spans::new("w", false);
        let (v, took) = log.time("x", 0, |_| 7);
        assert_eq!(v, 7);
        assert!(took.as_nanos() > 0 || took.is_zero());
        assert!(log.spans().is_empty());
        log.set_enabled(true);
        log.time("y", 0, |_| ());
        assert_eq!(log.spans().len(), 1);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_complete_events() {
        let mut log = Spans::new("flows_1k", true);
        log.time("run", 1, |_| ());
        let text = log.to_chrome_trace().to_pretty();
        let doc = crate::json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("X"));
        assert!(events[0].get("ts").and_then(Value::as_f64).is_some());
        assert!(events[0].get("dur").and_then(Value::as_f64).is_some());
    }
}
