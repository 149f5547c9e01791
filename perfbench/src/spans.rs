//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls: HTTP
//! requests to the service and the replayed calls into each layer's
//! public functions. Each span has a name, start and end (seconds since
//! the recorder was created), the span that caused it, and the campaign
//! it belongs to. They are written out as JSON when the run ends.

use jsonlite::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    campaign: String,
}

pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span; close it with [`Recorder::close`].
#[derive(Clone, Copy)]
pub struct SpanId(usize);

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span recorder lock poisoned")
    }

    pub fn open(&self, name: &'static str, parent: Option<SpanId>, campaign: &str) -> SpanId {
        let start = self.origin.elapsed().as_secs_f64();
        let mut spans = self.spans();
        spans.push(Span {
            name,
            start,
            end: start,
            parent: parent.map(|p| p.0),
            campaign: campaign.to_string(),
        });
        SpanId(spans.len() - 1)
    }

    pub fn close(&self, id: SpanId) {
        let end = self.origin.elapsed().as_secs_f64();
        self.spans()[id.0].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        campaign: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, campaign);
        let out = f();
        self.close(id);
        out
    }

    /// Self time (duration minus the durations of direct children) of
    /// every span under `root` — `root` included — summed per name.
    pub fn self_times_under(&self, root: SpanId) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut in_tree = vec![false; spans.len()];
        in_tree[root.0] = true;
        // Children are always recorded after their parent.
        for i in root.0 + 1..spans.len() {
            if let Some(p) = spans[i].parent {
                in_tree[i] = in_tree[p];
            }
        }
        let mut self_time: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
        for i in root.0 + 1..spans.len() {
            if let (true, Some(p)) = (in_tree[i], spans[i].parent) {
                self_time[p] -= spans[i].end - spans[i].start;
            }
        }
        let mut out = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            if in_tree[i] {
                *out.entry(span.name).or_insert(0.0) += self_time[i];
            }
        }
        out
    }

    /// Durations (seconds) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    pub fn to_value(&self) -> Value {
        let spans = self.spans();
        Value::Arr(
            spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Value::obj(vec![
                        ("id", Value::UInt(i as u64)),
                        ("name", Value::str(s.name)),
                        ("start", Value::Float(s.start)),
                        ("end", Value::Float(s.end)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                        ("campaign", Value::str(&s.campaign)),
                    ])
                })
                .collect(),
        )
    }
}
