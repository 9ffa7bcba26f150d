//! Spans recorded from outside the program: the benchmark wraps each
//! call into a layer's public function in a span (name, start, end,
//! parent, request id), keeps them in memory, and writes them out when
//! the run ends. A disabled recorder only runs the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.edit_verify`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 = set-up or probes).
    pub request: u64,
}

/// An in-memory span recorder for the single client thread.
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans::new(false)
    }

    /// A recorder that keeps every span.
    pub fn on() -> Spans {
        Spans::new(true)
    }

    fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// True if spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` in a top-level span of request `id`.
    pub fn request<T>(&self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.record(name, Some(id), f)
    }

    /// Runs `f` in a span nested in the current one (same request id).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(name, None, f)
    }

    fn record<T>(&self, name: &'static str, id: Option<u64>, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let parent = self.stack.borrow().last().copied();
        let request = id.unwrap_or_else(|| parent.map_or(0, |p| self.spans.borrow()[p].request));
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// True if no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part its children cover. Children run on the same thread,
    /// one after another, so they never overlap.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut self_ns: Vec<i128> = spans
            .iter()
            .map(|s| s.end_ns as i128 - s.start_ns as i128)
            .collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                self_ns[p] -= s.end_ns as i128 - s.start_ns as i128;
            }
        }
        let mut out = BTreeMap::new();
        for (s, ns) in spans.iter().zip(self_ns) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.request
            ));
        }
        out
    }
}
