//! The traced run's telemetry subscriber: keeps the spans the engine
//! emits in memory and feeds every event to `ltc_telemetry`'s public
//! [`Aggregator`] for counter and gauge totals.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ltc_telemetry::{Aggregator, Event, EventKind, FieldValue, Subscriber};

/// One span of the traced run, in microseconds since the run started.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Layer boundary the span covers (`run`, `spec`, engine span names).
    pub name: String,
    /// Identifier shared by the spans of one spec: its label.
    pub id: String,
    /// Name of the span that caused this one (empty for the root).
    pub parent: String,
    /// Start, microseconds after the run started.
    pub start_us: u64,
    /// End, microseconds after the run started.
    pub end_us: u64,
}

impl SpanRecord {
    /// A span timed by the benchmark itself, relative to `origin`.
    pub fn timed(
        name: &str,
        id: &str,
        parent: &str,
        origin: Instant,
        start: Instant,
        end: Instant,
    ) -> Self {
        SpanRecord {
            name: name.to_string(),
            id: id.to_string(),
            parent: parent.to_string(),
            start_us: (start - origin).as_micros() as u64,
            end_us: (end - origin).as_micros() as u64,
        }
    }

    /// The span as one JSON line.
    pub fn to_json_line(&self) -> String {
        let s = |v: &str| serde::Value::Str(v.to_string());
        let value = serde::Value::Map(vec![
            ("name".to_string(), s(&self.name)),
            ("id".to_string(), s(&self.id)),
            ("parent".to_string(), s(&self.parent)),
            ("start_us".to_string(), serde::Value::U64(self.start_us)),
            ("end_us".to_string(), serde::Value::U64(self.end_us)),
        ]);
        ltc_sim::serde_json::to_string(&value)
    }
}

/// The engine-layer totals of one traced stream run.
#[derive(Debug, Default)]
pub struct EngineSummary {
    /// Wall time of the backend execution (`scheduler.execute`).
    pub execute: Duration,
    /// Run time of every completed spec, summed over workers.
    pub run: Duration,
    /// Time specs waited in the queue before a worker took them.
    pub queue_wait: Duration,
    /// Specs completed.
    pub specs: u64,
    /// Failed attempts that were retried or timed out.
    pub retries: u64,
    /// Segment set-up paths taken, by outcome.
    pub restores: BTreeMap<String, u64>,
    /// Space-Saving evictions.
    pub evictions: u64,
    /// Peak resident sketch memory sampled.
    pub sketch_memory: u64,
}

/// Segment restore outcomes the engine reports, so each is printed even
/// when it did not occur.
pub const RESTORE_OUTCOMES: [&str; 3] = ["warm_image", "checkpoint", "replay"];

struct Open {
    name: String,
    label: String,
    start_us: u64,
}

#[derive(Default)]
struct State {
    open: HashMap<u64, Open>,
    spans: Vec<(String, String, u64, u64)>,
    summary: EngineSummary,
}

/// Records engine spans and points; see the module docs.
pub struct Recorder {
    aggregator: Aggregator,
    state: Mutex<State>,
    origin_us: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder whose span times count from now.
    pub fn new() -> Self {
        let mut state = State::default();
        for outcome in RESTORE_OUTCOMES {
            state.summary.restores.insert(outcome.to_string(), 0);
        }
        Recorder {
            aggregator: Aggregator::new(),
            state: Mutex::new(state),
            origin_us: ltc_telemetry::now_micros(),
        }
    }

    /// The engine totals seen so far.
    pub fn summary(&self) -> EngineSummary {
        let state = self.state.lock().expect("recorder lock poisoned by a panicking subscriber");
        let s = &state.summary;
        EngineSummary {
            restores: s.restores.clone(),
            evictions: self.aggregator.counter("sketch.evictions"),
            sketch_memory: self.aggregator.gauge_peak("sketch.memory_bytes").unwrap_or(0),
            ..*s
        }
    }

    /// The engine spans seen so far, timed from when this recorder was
    /// made (just before the run started).
    pub fn spans(&self) -> Vec<SpanRecord> {
        let state = self.state.lock().expect("recorder lock poisoned by a panicking subscriber");
        state
            .spans
            .iter()
            .map(|(name, label, start, end)| SpanRecord {
                name: name.clone(),
                id: label.clone(),
                parent: if name == "spec" { "scheduler.execute" } else { "run" }.to_string(),
                start_us: start - self.origin_us,
                end_us: end - self.origin_us,
            })
            .collect()
    }
}

fn micros(event: &Event, field: &str) -> Duration {
    Duration::from_micros(event.field(field).and_then(FieldValue::as_u64).unwrap_or(0))
}

impl Subscriber for Recorder {
    fn event(&self, event: &Event) {
        self.aggregator.event(event);
        let mut state =
            self.state.lock().expect("recorder lock poisoned by a panicking subscriber");
        match event.kind {
            EventKind::SpanBegin => {
                let label =
                    event.field("label").and_then(FieldValue::as_str).unwrap_or("").to_string();
                let open = Open {
                    name: event.name.clone(),
                    label,
                    start_us: event.t_micros.max(self.origin_us),
                };
                state.open.insert(event.span.unwrap_or(0), open);
            }
            EventKind::SpanEnd => {
                let Some(open) = state.open.remove(&event.span.unwrap_or(0)) else { return };
                let end = event.t_micros.max(open.start_us);
                state.spans.push((open.name, open.label, open.start_us, end));
                let s = &mut state.summary;
                match event.name.as_str() {
                    "scheduler.execute" => s.execute += micros(event, "elapsed_us"),
                    "spec" if event.field("outcome").is_none() => {
                        s.specs += 1;
                        s.run += micros(event, "run_us");
                        s.queue_wait += micros(event, "queue_wait_us");
                    }
                    _ => {}
                }
            }
            EventKind::Point => match event.name.as_str() {
                "segment_restore" => {
                    let outcome =
                        event.field("outcome").and_then(FieldValue::as_str).unwrap_or("unknown");
                    *state.summary.restores.entry(outcome.to_string()).or_insert(0) += 1;
                }
                "spec.retry" | "spec.timeout" => state.summary.retries += 1,
                _ => {}
            },
            _ => {}
        }
    }
}
