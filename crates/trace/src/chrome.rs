//! Chrome-trace (Trace Event Format) export: the JSON document
//! `chrome://tracing` and Perfetto load directly. Spans become `ph:"X"`
//! complete events, instants become `ph:"i"`; one `tid` per recorded
//! thread ring, in registration order.

use crate::json::JsonWriter;
use crate::{Event, EventKind};

/// Microseconds (the format's unit) from our nanosecond timestamps,
/// keeping sub-µs resolution as a fraction.
fn us(t_ns: u64) -> f64 {
    t_ns as f64 / 1000.0
}

/// One trace event: the span `ev` begins, closed at `end` (`ph:"X"`),
/// or the instant `ev` (`ph:"i"`) when `end` is `None`.
fn event_json(w: &mut JsonWriter, ev: &Event, end: Option<u64>, tid: usize) {
    w.object(|w| {
        w.field("name", ev.name);
        match end {
            Some(end) => {
                let dur = end.saturating_sub(ev.t_ns);
                w.field("ph", "X")
                    .field("ts", us(ev.t_ns))
                    .field("dur", us(dur))
            }
            None => w.field("ph", "i").field("ts", us(ev.t_ns)).field("s", "t"),
        };
        w.field("pid", 1u32).field("tid", tid);
        if !ev.detail.is_empty() || ev.root {
            w.key("args").object(|w| {
                if !ev.detail.is_empty() {
                    w.field("detail", &ev.detail);
                }
                if ev.root {
                    w.field("root", true);
                }
            });
        }
    });
}

/// Renders per-thread event buffers (as returned by
/// [`crate::Tracer::events`]) as a Chrome-trace JSON document.
#[must_use]
pub fn chrome_trace_json(threads: &[Vec<Event>]) -> String {
    let mut w = JsonWriter::new();
    w.object(|w| {
        w.key("traceEvents").array(|w| {
            for (i, events) in threads.iter().enumerate() {
                let tid = i + 1;
                let last_ts = events.last().map_or(0, |e| e.t_ns);
                // Begin events of the currently-open spans.
                let mut open: Vec<&Event> = Vec::new();
                for ev in events {
                    match ev.kind {
                        EventKind::Begin => open.push(ev),
                        EventKind::End => {
                            if let Some(begin) = open.pop() {
                                event_json(w, begin, Some(ev.t_ns), tid);
                            }
                        }
                        EventKind::Instant => event_json(w, ev, None, tid),
                    }
                }
                // Spans still open at collection close at the last timestamp.
                while let Some(begin) = open.pop() {
                    event_json(w, begin, Some(last_ts), tid);
                }
            }
        });
        w.field("displayTimeUnit", "ms");
        w.key("otherData").object(|w| {
            w.field("generator", "nimage-trace");
        });
    });
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_shapes_spans_and_instants() {
        let threads = vec![vec![
            Event {
                kind: EventKind::Begin,
                name: "run",
                detail: "workload=Sieve".to_string(),
                t_ns: 1_500,
                root: true,
            },
            Event {
                kind: EventKind::Instant,
                name: "page-fault",
                detail: String::new(),
                t_ns: 2_000,
                root: false,
            },
            Event {
                kind: EventKind::End,
                name: "run",
                detail: String::new(),
                t_ns: 10_500,
                root: false,
            },
        ]];
        let json = chrome_trace_json(&threads);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"run\",\"ph\":\"X\",\"ts\":1.5,\"dur\":9"));
        assert!(json.contains("\"name\":\"page-fault\",\"ph\":\"i\",\"ts\":2"));
        assert!(json.contains("\"args\":{\"detail\":\"workload=Sieve\",\"root\":true}"));
        assert!(json.contains("\"tid\":1"));
    }

    #[test]
    fn unclosed_span_still_exports() {
        let threads = vec![vec![
            Event {
                kind: EventKind::Begin,
                name: "run",
                detail: String::new(),
                t_ns: 0,
                root: false,
            },
            Event {
                kind: EventKind::Instant,
                name: "tick",
                detail: String::new(),
                t_ns: 4_000,
                root: false,
            },
        ]];
        let json = chrome_trace_json(&threads);
        assert!(json.contains("\"name\":\"run\",\"ph\":\"X\",\"ts\":0,\"dur\":4"));
    }
}
