//! Spans around the harness's own calls into each layer.
//!
//! Nothing inside `dgr` is instrumented: a span opens just before the
//! harness calls a public function of a layer and closes when it returns.
//! Spans stay in memory and are written out once the run is over.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{obj, Json};

/// One recorded span. `parent` indexes the span that was open when this
/// one began; `iter` is the benchmark iteration it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name, `layer.what`.
    pub name: &'static str,
    /// The crate the spanned call belongs to.
    pub layer: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Iteration number.
    pub iter: u32,
}

/// Per-name totals: a span's self time is its duration minus the part its
/// child spans cover.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Layer.
    pub layer: &'static str,
    /// Spans of this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
}

/// In-memory span recorder for the single-threaded harness.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    iter: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iter: 0,
        }
    }
}

impl Tracer {
    /// Sets the iteration number stamped on spans opened from now on.
    pub fn set_iter(&mut self, iter: u32) {
        self.iter = iter;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns the span's duration in ns along
    /// with `f`'s result. A panic in `f` leaves the span open; the caller
    /// that catches it calls [`Tracer::unwind_to`].
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, u64) {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            iter: self.iter,
        });
        self.open.push(id);
        let r = f(self);
        let end_ns = self.now();
        self.spans[id as usize].end_ns = end_ns;
        self.open.pop();
        (r, end_ns - start_ns)
    }

    /// Depth of the open-span stack, to hand to [`Tracer::unwind_to`].
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened above `depth` (after a caught panic).
    pub fn unwind_to(&mut self, depth: usize) {
        let now = self.now();
        while self.open.len() > depth {
            let id = self.open.pop().expect("checked non-empty");
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Totals per span name, in first-seen order.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut order: Vec<&'static str> = Vec::new();
        let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_insert_with(|| {
                order.push(s.name);
                SelfTime {
                    name: s.name,
                    layer: s.layer,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                }
            });
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[i]);
        }
        order.into_iter().map(|n| by_name[n].clone()).collect()
    }

    /// Summed duration of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Prints the self-time table and the share of the `root` spans' time
    /// that spans below them account for.
    pub fn print_self_times(&self, root: &str) {
        let table = self.self_times();
        let root_total = self.total_ns(root).max(1);
        println!(
            "  {:<22} {:<10} {:>8} {:>12} {:>12} {:>7}",
            "span", "layer", "count", "total ms", "self ms", "self %"
        );
        for t in &table {
            println!(
                "  {:<22} {:<10} {:>8} {:>12.3} {:>12.3} {:>7.2}",
                t.name,
                t.layer,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / root_total as f64
            );
        }
        let root_self: u64 = table
            .iter()
            .filter(|t| t.name == root)
            .map(|t| t.self_ns)
            .sum();
        let accounted = 100.0 * (1.0 - root_self as f64 / root_total as f64);
        println!("  spans below `{root}` account for {accounted:.2} % of it");
    }

    /// The trace file: every span plus the self-time table.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                obj([
                    ("name", Json::Str(s.name.into())),
                    ("layer", Json::Str(s.layer.into())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("iter", Json::Num(f64::from(s.iter))),
                ])
            })
            .collect();
        let table = self
            .self_times()
            .iter()
            .map(|t| {
                obj([
                    ("name", Json::Str(t.name.into())),
                    ("layer", Json::Str(t.layer.into())),
                    ("count", Json::Num(t.count as f64)),
                    ("total_ns", Json::Num(t.total_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ])
            })
            .collect();
        obj([
            ("self_times", Json::Arr(table)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::default();
        tr.scope("program", "bench", |tr| {
            tr.scope("lang.compile", "lang", |_| std::hint::black_box(1 + 1));
            tr.scope("gc.cycle", "gc", |_| std::hint::black_box(2 + 2));
        });
        let table = tr.self_times();
        assert_eq!(table.len(), 3);
        let root = &table[0];
        assert_eq!(root.name, "program");
        let children: u64 = table[1..].iter().map(|t| t.total_ns).sum();
        assert_eq!(root.self_ns, root.total_ns - children);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[0].parent, None);
    }

    #[test]
    fn unwind_closes_open_spans() {
        let mut tr = Tracer::default();
        let depth = tr.depth();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tr.scope("program", "bench", |_| panic!("boom"));
        }));
        assert!(caught.is_err());
        assert_eq!(tr.depth(), depth + 1);
        tr.unwind_to(depth);
        assert_eq!(tr.depth(), depth);
    }
}
