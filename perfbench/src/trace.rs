//! In-memory spans for the traced pass: each span carries its name, its
//! start and end (host µs since the tracer started) and the span that
//! opened it. Spans are kept in memory and written out once, at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or step name.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Host µs since the tracer started.
    pub start_us: f64,
    /// Host µs since the tracer started.
    pub end_us: f64,
}

impl Span {
    /// Span duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Records nested spans around the benchmark's own calls.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span named `name`, nested under the innermost open span;
    /// returns its index for [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_us: self.now_us(),
            end_us: f64::NAN,
        });
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`; returns its
    /// duration in ms.
    pub fn close(&mut self, index: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        self.spans[index].end_us = self.now_us();
        self.spans[index].ms()
    }

    /// Runs `f` inside a span named `name`; returns `f`'s value and the
    /// span's duration in ms.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let index = self.open(name);
        let value = f();
        (value, self.close(index))
    }

    /// Self time per span in ms: its duration minus the part its direct
    /// children cover (children never overlap, being strictly nested).
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.ms();
            }
        }
        own
    }

    /// The spans as a JSON array (name, start, end, parent, self time).
    pub fn to_json(&self) -> String {
        let own = self.self_ms();
        let mut out = String::from("[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_us\": {:.1}, \"end_us\": {:.1}, \"self_ms\": {:.3}}}",
                span.name, span.start_us, span.end_us, own[i]
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.open("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close(outer);
        let own = t.self_ms();
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(own[1] >= 5.0);
        assert!(own[0] >= 0.0 && own[0] < t.spans[0].ms() - 4.9);
        assert!(t.to_json().contains("\"name\": \"inner\", \"parent\": 0"));
    }
}
