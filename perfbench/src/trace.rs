//! An in-memory span recorder for the traced run. Spans are recorded by
//! the benchmark around calls into each layer's public functions, kept in
//! memory, and written out once the run ends.

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans when enabled; when disabled, [`Tracer::span`] only
/// runs its closure, so a plain and a traced pass execute the same calls.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, tagged with `request`. Spans
    /// opened inside `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the time its direct children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// `(count, total duration)` of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, t), s| (n + 1, t + s.duration_ns()))
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.request,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(micros: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(micros) {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn spans_nest_and_sibling_self_times_fit_in_the_parent() {
        let mut t = Tracer::new(true);
        t.span("request", 1, |t| {
            t.span("parse", 1, |_| busy(200));
            t.span("solve", 1, |t| {
                t.span("encode", 1, |_| busy(300));
                t.span("search", 1, |_| busy(300));
                busy(100);
            });
            busy(100);
        });
        t.span("request", 2, |t| t.span("parse", 2, |_| busy(50)));

        let spans = t.spans();
        let self_ns = t.self_times_ns();
        assert_eq!(spans.len(), 7);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[5].parent, None);
        assert_eq!(spans[6].request, 2);
        for (i, s) in spans.iter().enumerate() {
            assert!(s.start_ns <= s.end_ns);
            let children: Vec<usize> = (0..spans.len())
                .filter(|&c| spans[c].parent == Some(i))
                .collect();
            for &c in &children {
                assert!(spans[c].start_ns >= s.start_ns && spans[c].end_ns <= s.end_ns);
            }
            let sibling_self: u64 = children.iter().map(|&c| self_ns[c]).sum();
            assert!(sibling_self <= s.duration_ns(), "span {i}");
            let sibling_total: u64 = children.iter().map(|&c| spans[c].duration_ns()).sum();
            assert_eq!(self_ns[i], s.duration_ns() - sibling_total);
        }
        assert_eq!(t.total("parse").0, 2);
    }

    #[test]
    fn a_disabled_tracer_runs_the_closures_and_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("outer", 1, |t| t.span("inner", 1, |_| 41) + 1);
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
    }
}
