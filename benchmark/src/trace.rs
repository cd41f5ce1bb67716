//! Harness-side tracing: spans recorded around calls into the
//! program's public functions, never inside it.
//!
//! Two interposers sit at seams the public API already has:
//! [`TracedStore`] wraps the `Arc<dyn ProvStore>` handed to the write
//! pipeline, so every session call's span gets the shard-and-below
//! calls as children (on the caller's thread for reads, under a
//! `pipeline.commit` root on a committer thread for writes), and
//! [`TracedBackend`] wraps any page backend (the WAL's file, a rung's
//! table files). Spans stay in memory until the run ends.

use cpdb::core::{CoreError, ProvRecord, ProvStore, RecordCursor, Tid};
use cpdb::storage::{Backend, Page, StorageError};
use cpdb::tree::Path;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One timed call: `parent` is the span that caused it, `req` the
/// index of the session call it belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub req: u64,
    pub thread: u32,
}

struct ThreadCtx {
    id: Option<u32>,
    stack: Vec<u32>,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = const { RefCell::new(ThreadCtx { id: None, stack: Vec::new() }) };
    /// The session call the thread is serving (set by client threads).
    static REQ: Cell<u64> = const { Cell::new(0) };
    /// Set on the benchmark's client threads, so a backend can tell an
    /// ack-path sync from a committer's.
    static CLIENT: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as a benchmark client.
pub fn mark_client_thread() {
    CLIENT.with(|c| c.set(true));
}

/// Sets the request id spans on this thread carry from now on.
pub fn set_request(req: u64) {
    REQ.with(|r| r.set(req));
}

pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    threads: AtomicU32,
}

/// Ends its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u32,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        self.tracer.spans.lock().expect("span log poisoned")[self.id as usize].end_ns = end;
        CTX.with(|c| c.borrow_mut().stack.pop());
    }
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            threads: AtomicU32::new(0),
        })
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the thread's current one; `None` while
    /// tracing is off (one relaxed load).
    pub fn enter(&self, name: &'static str) -> Option<SpanGuard<'_>> {
        if !self.on.load(Ordering::Relaxed) {
            return None;
        }
        let (thread, parent) = CTX.with(|c| {
            let mut c = c.borrow_mut();
            let id = *c.id.get_or_insert_with(|| self.threads.fetch_add(1, Ordering::Relaxed));
            (id, c.stack.last().copied())
        });
        let req = REQ.with(Cell::get);
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span log poisoned");
        let id = spans.len() as u32;
        spans.push(Span { name, start_ns, end_ns: start_ns, parent, req, thread });
        drop(spans);
        CTX.with(|c| c.borrow_mut().stack.push(id));
        Some(SpanGuard { tracer: self, id })
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// Per-span self time: its duration minus the part of its interval its
/// child spans cover (children may overlap or, on other threads, run
/// past the parent; the cover is their union clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut cover = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    cover += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - cover
        })
        .collect()
}

/// Count, total and self nanoseconds of every span name.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct NameStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameStat> {
    let mut out: BTreeMap<&'static str, NameStat> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let stat = out.entry(s.name).or_default();
        stat.count += 1;
        stat.total_ns += s.end_ns - s.start_ns;
        stat.self_ns += self_ns;
    }
    out
}

/// The trace as JSON: a name table, then one
/// `[name, start_ns, end_ns, parent, request, thread]` row per span
/// (`parent` is a row index, -1 for a root).
pub fn to_json(spans: &[Span]) -> String {
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut out = String::with_capacity(spans.len() * 48 + 256);
    out.push_str("{\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"request\", \"thread\"],\n\"names\": [");
    out.push_str(&names.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(", "));
    out.push_str("],\n\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let name = names.binary_search(&s.name).expect("name is in the table");
        let parent = s.parent.map_or(-1, i64::from);
        let sep = if i + 1 == spans.len() { "" } else { "," };
        out.push_str(&format!(
            "[{name},{},{},{parent},{},{}]{sep}\n",
            s.start_ns, s.end_ns, s.req, s.thread
        ));
    }
    out.push_str("]}\n");
    out
}

/// A `ProvStore` that records one span per call and delegates. Cursors
/// are handed out untouched (the harness times their `next_batch`
/// calls itself): a traced run must issue the same statements as an
/// untraced one.
pub struct TracedStore {
    inner: Arc<dyn ProvStore>,
    tracer: Arc<Tracer>,
}

impl TracedStore {
    pub fn new(inner: Arc<dyn ProvStore>, tracer: Arc<Tracer>) -> TracedStore {
        TracedStore { inner, tracer }
    }
}

type CoreResult<T> = Result<T, CoreError>;

impl ProvStore for TracedStore {
    fn insert(&self, record: &ProvRecord) -> CoreResult<()> {
        let _s = self.tracer.enter("pipeline.commit");
        self.inner.insert(record)
    }

    fn insert_batch(&self, records: &[ProvRecord]) -> CoreResult<()> {
        // Called by a lane's committer thread: the root of the write
        // path's background half.
        let _s = self.tracer.enter("pipeline.commit");
        self.inner.insert_batch(records)
    }

    fn all(&self) -> CoreResult<Vec<ProvRecord>> {
        let _s = self.tracer.enter("shard.all");
        self.inner.all()
    }

    fn at(&self, tid: Tid, loc: &Path) -> CoreResult<Vec<ProvRecord>> {
        let _s = self.tracer.enter("shard.at");
        self.inner.at(tid, loc)
    }

    fn by_loc(&self, loc: &Path) -> CoreResult<Vec<ProvRecord>> {
        let _s = self.tracer.enter("shard.by_loc");
        self.inner.by_loc(loc)
    }

    fn by_tid(&self, tid: Tid) -> CoreResult<Vec<ProvRecord>> {
        let _s = self.tracer.enter("shard.by_tid");
        self.inner.by_tid(tid)
    }

    fn by_loc_prefix(&self, prefix: &Path) -> CoreResult<Vec<ProvRecord>> {
        let _s = self.tracer.enter("shard.by_loc_prefix");
        self.inner.by_loc_prefix(prefix)
    }

    fn scan_loc_prefix(&self, prefix: &Path, batch: usize) -> CoreResult<RecordCursor<'_>> {
        let _s = self.tracer.enter("shard.scan_open");
        self.inner.scan_loc_prefix(prefix, batch)
    }

    fn scan_tid_loc_prefix(
        &self,
        tid: Tid,
        prefix: &Path,
        batch: usize,
    ) -> CoreResult<RecordCursor<'_>> {
        let _s = self.tracer.enter("shard.scan_open");
        self.inner.scan_tid_loc_prefix(tid, prefix, batch)
    }

    fn by_tid_loc_prefix(&self, tid: Tid, prefix: &Path) -> CoreResult<Vec<ProvRecord>> {
        let _s = self.tracer.enter("shard.by_tid_loc_prefix");
        self.inner.by_tid_loc_prefix(tid, prefix)
    }

    fn by_loc_chain(&self, loc: &Path, min_depth: usize) -> CoreResult<Vec<ProvRecord>> {
        let _s = self.tracer.enter("shard.by_loc_chain");
        self.inner.by_loc_chain(loc, min_depth)
    }

    fn checkpoint(&self) -> CoreResult<()> {
        let _s = self.tracer.enter("pipeline.checkpoint");
        self.inner.checkpoint()
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn physical_bytes(&self) -> u64 {
        self.inner.physical_bytes()
    }

    fn live_bytes(&self) -> CoreResult<u64> {
        self.inner.live_bytes()
    }

    fn read_trips(&self) -> u64 {
        self.inner.read_trips()
    }

    fn write_trips(&self) -> u64 {
        self.inner.write_trips()
    }

    fn reset_trips(&self) {
        self.inner.reset_trips()
    }

    // The benchmark never simulates latency; a caller that tried would
    // be a bug in the harness.
    fn set_latency(&self, _read: Duration, _write: Duration) {
        panic!("the benchmark runs with every simulated latency at zero");
    }

    fn set_batch_row_latency(&self, _per_row: Duration) {
        panic!("the benchmark runs with every simulated latency at zero");
    }

    fn commit_lanes(&self) -> usize {
        self.inner.commit_lanes()
    }

    fn commit_lane(&self, record: &ProvRecord) -> usize {
        self.inner.commit_lane(record)
    }
}

/// What a [`TracedBackend`] counted, whether or not spans were on.
#[derive(Default)]
pub struct BackendCounts {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub syncs: AtomicU64,
    /// Syncs issued on a benchmark client thread (the ack path); the
    /// rest are a committer's drain syncs, whose number depends on
    /// timing.
    pub client_syncs: AtomicU64,
}

/// A page backend that counts every call and, while tracing is on,
/// records a span per read, write and sync.
pub struct TracedBackend<B> {
    inner: B,
    tracer: Arc<Tracer>,
    counts: Arc<BackendCounts>,
    names: [&'static str; 3],
}

impl<B: Backend> TracedBackend<B> {
    /// `names` are the span names of `read_page`, `write_page`, `sync`.
    pub fn new(
        inner: B,
        tracer: Arc<Tracer>,
        counts: Arc<BackendCounts>,
        names: [&'static str; 3],
    ) -> TracedBackend<B> {
        TracedBackend { inner, tracer, counts, names }
    }
}

impl<B: Backend> Backend for TracedBackend<B> {
    fn read_page(&self, no: u64) -> Result<Page, StorageError> {
        self.counts.reads.fetch_add(1, Ordering::Relaxed);
        let _s = self.tracer.enter(self.names[0]);
        self.inner.read_page(no)
    }

    fn write_page(&self, no: u64, page: &Page) -> Result<(), StorageError> {
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        let _s = self.tracer.enter(self.names[1]);
        self.inner.write_page(no, page)
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn allocate(&self) -> Result<u64, StorageError> {
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.allocate()
    }

    fn sync(&self) -> Result<(), StorageError> {
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        if CLIENT.with(Cell::get) {
            self.counts.client_syncs.fetch_add(1, Ordering::Relaxed);
        }
        let _s = self.tracer.enter(self.names[2]);
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, req: 0, thread: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a`: the union [10, 40) counts once.
            span("b", 20, 40, Some(0)),
            span("c", 60, 70, Some(0)),
            // A grandchild takes from `c`, not from the root.
            span("d", 62, 66, Some(3)),
            // Runs past its parent (another thread): clipped at 100.
            span("e", 90, 130, Some(0)),
            // Entirely outside the parent: covers nothing.
            span("f", 200, 210, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10 - 10, 20, 20, 6, 4, 40, 10]);
        let sum = summarize(&spans);
        assert_eq!(sum["root"], NameStat { count: 1, total_ns: 100, self_ns: 50 });
        assert_eq!(sum["c"], NameStat { count: 1, total_ns: 10, self_ns: 6 });
    }

    #[test]
    fn self_times_of_a_chain_sum_to_the_root() {
        let spans = vec![
            span("r", 0, 1_000, None),
            span("s", 100, 900, Some(0)),
            span("t", 200, 500, Some(1)),
            span("t", 500, 800, Some(1)),
        ];
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn tracer_nests_spans_on_one_thread_and_carries_the_request() {
        let tracer = Tracer::new();
        assert!(tracer.enter("off").is_none());
        tracer.set_on(true);
        set_request(7);
        {
            let _outer = tracer.enter("outer");
            let _inner = tracer.enter("inner");
        }
        let _sibling = tracer.enter("sibling");
        drop(_sibling);
        let spans = tracer.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.req == 7 && s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(to_json(&spans).contains("\"names\": [\"inner\", \"outer\", \"sibling\"]"));
    }
}
