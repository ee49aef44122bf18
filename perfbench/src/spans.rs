//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSON lines when the traced run ends.

use std::io::Write as _;
use std::time::Instant;

/// The layers spans are attributed to, in report order.  `bench` is the
/// benchmark's own code (the root span's self time).
pub const LAYERS: [&str; 5] = ["bench", "workloads", "service", "directory", "coherence"];

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the call covered (requests, references, slices built).
    pub count: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> usize {
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost span (which must be `id`) and returns its
    /// duration in seconds.
    pub fn end(&mut self, id: usize, count: u64) -> f64 {
        let closed = self.open.pop();
        assert_eq!(closed, Some(id), "spans must close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.count = count;
        (end_ns - span.start_ns) as f64 / 1e9
    }

    /// A leaf span around `f`: its result and duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, layer);
        let value = f();
        (value, self.end(id, count))
    }

    /// Each layer's self time in nanoseconds: its spans' durations minus
    /// the parts covered by their child spans.
    pub fn self_ns_by_layer(&self) -> [(&'static str, u64); LAYERS.len()] {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals = LAYERS.map(|layer| (layer, 0u64));
        for (span, covered) in self.spans.iter().zip(children) {
            let slot = totals
                .iter_mut()
                .find(|(layer, _)| *layer == span.layer)
                .expect("span layers come from LAYERS");
            slot.1 += (span.end_ns - span.start_ns).saturating_sub(covered);
        }
        totals
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                file,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"layer\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}",
                span.name, span.layer, span.start_ns, span.end_ns, span.count
            )?;
        }
        file.flush()
    }
}

/// A gap this long counts as blocked time: the router waiting on a full
/// worker queue (routing one request takes ~100 ns).
const BLOCKED_GAP_NS: u64 = 2_000;

/// Wraps an iterator and records the gap between consecutive `next()`
/// calls: with one clock read per call, each gap is the consumer's time
/// with the previous item plus the draw itself.
pub struct GapTimer<'h, I> {
    inner: I,
    last: Option<Instant>,
    gaps: &'h mut ccd_common::stats::LogHistogram,
    /// Sum of the gaps of at least `BLOCKED_GAP_NS`, in nanoseconds.
    pub blocked_ns: u64,
}

impl<'h, I> GapTimer<'h, I> {
    pub fn new(inner: I, gaps: &'h mut ccd_common::stats::LogHistogram) -> Self {
        GapTimer {
            inner,
            last: None,
            gaps,
            blocked_ns: 0,
        }
    }
}

impl<I: Iterator> Iterator for GapTimer<'_, I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let now = Instant::now();
        if let Some(last) = self.last {
            let gap = now.duration_since(last).as_nanos() as u64;
            self.gaps.record(gap);
            if gap >= BLOCKED_GAP_NS {
                self.blocked_ns += gap;
            }
        }
        self.last = Some(now);
        self.inner.next()
    }
}
