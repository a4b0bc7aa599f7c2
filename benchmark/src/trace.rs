//! Spans recorded from the benchmark's own files around every client
//! call, kept in memory and written out when the run ends.
//!
//! Spans of one item share its sequence number: the root `item` span and,
//! under it, `client.put`, `client.get` and `client.consume`. Spans inside
//! the program are a later change (ROADMAP, latency-ledger item).

use std::collections::HashMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::host::Clock;
use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Item,
    Put,
    Get,
    Consume,
}

impl SpanKind {
    pub const CALLS: [SpanKind; 3] = [SpanKind::Put, SpanKind::Get, SpanKind::Consume];

    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Item => "item",
            SpanKind::Put => "client.put",
            SpanKind::Get => "client.get",
            SpanKind::Consume => "client.consume",
        }
    }

    fn slot(self) -> u64 {
        self as u64
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    /// Sequence number of the item (the first of a batch).
    pub item: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn id(&self) -> u64 {
        self.item * 4 + self.kind.slot()
    }

    fn parent(&self) -> Option<u64> {
        (self.kind != SpanKind::Item).then_some(self.item * 4)
    }
}

/// A thread's span buffer; every method is a no-op with tracing off, so
/// the untraced run reads no extra clocks.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            spans: Vec::new(),
        }
    }

    pub fn push(&mut self, kind: SpanKind, item: u64, start_ns: u64, end_ns: u64) {
        if self.on {
            self.spans.push(Span {
                kind,
                item,
                start_ns,
                end_ns,
            });
        }
    }

    /// Opens a span whose end is not known yet.
    pub fn open(&mut self, kind: SpanKind, item: u64, start_ns: u64) -> usize {
        self.push(kind, item, start_ns, start_ns);
        self.spans.len().wrapping_sub(1)
    }

    pub fn close(&mut self, handle: usize, end_ns: u64) {
        if self.on {
            if let Some(s) = self.spans.get_mut(handle) {
                s.end_ns = end_ns;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn around<T>(
        &mut self,
        kind: SpanKind,
        item: u64,
        clock: &Clock,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = clock.now_ns();
        let r = f();
        self.push(kind, item, start, clock.now_ns());
        r
    }

    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    pub fn into_vec(self) -> Vec<Span> {
        self.spans
    }
}

/// Writes `{name, start_ns, end_ns, parent, item}` records, one per line
/// inside a JSON array.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_json(path: &Path, workload: &str, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(fs::File::create(path)?);
    writeln!(w, "{{\"workload\": \"{workload}\", \"clock\": \"ns since run start, one monotonic clock\", \"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent().map_or("null".to_owned(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"item\": {}}}{sep}",
            s.id(),
            s.kind.name(),
            s.start_ns,
            s.end_ns,
            s.item
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

/// Medians, in microseconds, folded from one traced round.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fold {
    /// Root spans seen.
    pub items: usize,
    pub put_us: f64,
    pub get_us: f64,
    pub consume_us: f64,
    /// Root span minus the part of it its children cover: time the item
    /// spent in the benchmark's own code or, when pipelined, in nobody's
    /// call (waiting in the channel).
    pub root_self_us: f64,
}

/// Length of the union of `children` clipped to `[start, end]`.
fn covered(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

pub fn fold(spans: &[Span], after_ns: u64) -> Fold {
    let mut by_item: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.start_ns >= after_ns) {
        by_item.entry(s.item).or_default().push(s);
    }
    let us = |ns: u64| ns as f64 / 1000.0;
    let mut calls: [Vec<f64>; 3] = Default::default();
    let mut root_self = Vec::new();
    for group in by_item.values() {
        for (slot, kind) in SpanKind::CALLS.iter().enumerate() {
            calls[slot].extend(
                group
                    .iter()
                    .filter(|s| s.kind == *kind)
                    .map(|s| us(s.end_ns - s.start_ns)),
            );
        }
        if let Some(root) = group.iter().find(|s| s.kind == SpanKind::Item) {
            let mut children: Vec<(u64, u64)> = group
                .iter()
                .filter(|s| s.kind != SpanKind::Item)
                .map(|s| (s.start_ns, s.end_ns))
                .collect();
            let whole = root.end_ns - root.start_ns;
            root_self.push(us(
                whole - covered(root.start_ns, root.end_ns, &mut children)
            ));
        }
    }
    Fold {
        items: root_self.len(),
        put_us: median(&mut calls[0]),
        get_us: median(&mut calls[1]),
        consume_us: median(&mut calls[2]),
        root_self_us: median(&mut root_self),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_part_no_child_covers() {
        let span = |kind, start_ns, end_ns| Span {
            kind,
            item: 1,
            start_ns,
            end_ns,
        };
        // Children overlap each other and one starts before the root.
        let spans = [
            span(SpanKind::Item, 1000, 11_000),
            span(SpanKind::Put, 1000, 5000),
            span(SpanKind::Get, 0, 7000),
            span(SpanKind::Consume, 8000, 9000),
        ];
        let f = fold(&spans, 0);
        assert_eq!(f.items, 1);
        assert_eq!(f.root_self_us, 3.0); // 10 us minus [1,7] and [8,9]
        assert_eq!((f.put_us, f.get_us, f.consume_us), (4.0, 7.0, 1.0));
    }
}
