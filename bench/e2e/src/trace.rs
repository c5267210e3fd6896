//! Spans recorded by the benchmark around its calls into the engine.
//!
//! One `Tracer` per client thread holds its spans in memory; they are
//! merged and written out only after the window ends. With tracing off a
//! `Tracer` runs the closures it is given and records nothing, so the
//! untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// `0` for a root.
    pub parent: u64,
    /// Shared by all spans of one transaction, statement or probe.
    pub trace_id: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// High bits of every id this tracer hands out, so ids of different
    /// threads never collide.
    lane: u64,
    next: u64,
    /// Indexes into `spans` of the open spans, innermost last.
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `epoch` is shared by all tracers of a run so their clocks agree.
    pub fn new(on: bool, epoch: Instant, lane: u64) -> Self {
        Tracer {
            on,
            epoch,
            lane: lane << 40,
            next: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Tracer::new(false, Instant::now(), 0)
    }

    /// Run `f` inside a span; a span opened while another is open becomes
    /// its child, otherwise it is a root with a fresh trace id.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        self.next += 1;
        let id = self.lane | self.next;
        let (parent, trace_id) = match self.open.last() {
            Some(&i) => (self.spans[i].id, self.spans[i].trace_id),
            None => (0, id),
        };
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id,
            parent,
            trace_id,
            layer,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        let out = f(self);
        let i = self.open.pop().expect("span opened above");
        self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Sorted durations (ns) of all spans, by `layer.name`.
pub fn durations(spans: &[Span]) -> BTreeMap<String, Vec<u64>> {
    let mut by_name: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(format!("{}.{}", s.layer, s.name))
            .or_default()
            .push(s.duration_ns());
    }
    for v in by_name.values_mut() {
        v.sort_unstable();
    }
    by_name
}

/// One JSON object per line: the span and its self time.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    let self_ns = self_times(spans);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"trace_id\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.parent, s.trace_id, s.layer, s.name, s.start_ns, s.end_ns, self_ns[&s.id]
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace_id: 1,
            layer: "l",
            name: "n",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),  // overlaps span 2: union is 10..60
            span(4, 1, 90, 120), // sticks out of the parent: 90..100 counts
            span(5, 2, 10, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 50 - 10);
        assert_eq!(st[&2], 30 - 10);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&5], 10);
    }

    #[test]
    fn nesting_sets_parent_and_trace_id() {
        let mut tr = Tracer::new(true, Instant::now(), 3);
        tr.span("txn", "txn", |tr| {
            tr.span("core", "point", |_| ());
            tr.span("txn", "commit", |_| ());
        });
        tr.span("query", "query", |_| ());
        let s = &tr.spans;
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].parent, s[0].trace_id), (0, s[0].id));
        assert_eq!((s[1].parent, s[1].trace_id), (s[0].id, s[0].id));
        assert_eq!((s[2].parent, s[2].trace_id), (s[0].id, s[0].id));
        assert_eq!((s[3].parent, s[3].trace_id), (0, s[3].id));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns && x.id >> 40 == 3));
        assert_eq!(durations(s)["core.point"].len(), 1);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut tr = Tracer::off();
        assert_eq!(tr.span("a", "b", |tr| tr.span("c", "d", |_| 7)), 7);
        assert!(tr.spans.is_empty());
    }
}
