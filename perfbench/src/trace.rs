//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! the library crates; no library crate is instrumented. A disabled
//! tracer records nothing, so the untraced run executes the same calls.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span: `group` is shared by every span of one timestep
/// or one request; `parent` indexes the enclosing span of the same
/// tracer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub group: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (`usize::MAX` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`, so spans of
    /// several threads share one time axis.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// An empty tracer on this one's time axis, for another thread.
    pub fn fork(&self) -> Self {
        Self::new(self.enabled, self.origin)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, group: u64, parent: Option<Open>) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            group,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        Open(self.spans.len() - 1)
    }

    pub fn end(&mut self, open: Open) {
        if self.enabled {
            let end = self.now_ns();
            self.spans[open.0].end_ns = end;
        }
    }

    /// Times `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        group: u64,
        parent: Option<Open>,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, group, parent);
        let r = f();
        self.end(open);
        r
    }

    /// Moves another tracer's spans into this one, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Per span name: (count, median µs, median self µs), sorted by name.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let selfs = self.self_times_ns();
        let mut by: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, &own) in self.spans.iter().zip(&selfs) {
            let e = by.entry(s.name).or_default();
            e.0.push(s.dur_ns() as f64 / 1e3);
            e.1.push(own as f64 / 1e3);
        }
        by.into_iter()
            .map(|(k, (mut d, mut o))| {
                (
                    k,
                    (
                        d.len(),
                        crate::stats::median(&mut d),
                        crate::stats::median(&mut o),
                    ),
                )
            })
            .collect()
    }

    /// The spans as a JSON document, one object per span.
    pub fn to_json(&self) -> String {
        let selfs = self.self_times_ns();
        let mut out = String::from("{\"spans\": [\n");
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"group\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}{comma}",
                s.name, s.group, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            group: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = vec![
            span("step", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 50),
            span("c", Some(0), 90, 120),
        ];
        // Children cover 10..50 and 90..100 of the parent.
        assert_eq!(t.self_times_ns(), vec![50, 30, 20, 30]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.span("x", 1, None, || 7);
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
    }
}
