//! The ladders of the traced run: the same operations, replayed one
//! layer lower each time, over the same rows.
//!
//! Reads: `R0 serve` (`Session`) → `R1 snapshot` (`QueryEngine` over
//! `snapshot_reader()`) → `R2 query` (`QueryEngine` over the bare
//! `ShardedStore`) → `R3 shard` (the probes R2 issued, replayed on
//! `ShardedStore`) → `R4 store` (the same probes on the owning shard's
//! `SqlStore`) → `R5 table` (`TableHandle::lookup` / `range_page` on
//! the same keys) → `R6 buffer` (the heap pages R5 fetched, through a
//! `BufferPool` of the engine's capacity) → `R7 backend` (the pages R6
//! missed, times `DiskBackend::read_page`).
//!
//! Writes have two halves that run on different threads, so two
//! ladders. What the caller waits for: `W0 serve` (`Session::insert_batch`
//! → ack) → `W1 pipeline` (`PipelinedStore::insert_batch`) → `W5 wal`
//! (`Wal::append` × 8 + `sync_through`) → `W7 backend` (8 page writes
//! and a sync). What the committer does per transaction: `C2 shard`
//! (`ShardedStore::insert_batch` of a 64-record batch + `checkpoint`)
//! → `C3 store` (`SqlStore`) → `C4 table` (`TableHandle::insert` × 64 +
//! `flush`) → `C7 backend` (the page writes and syncs C4 issued). The
//! commit rungs run on fresh, empty stores.

use crate::clients::{drain_count, read_target, run_read, SCAN_BATCH};
use crate::deploy::{Deployment, Error, Scratch, COMMIT_BATCH, SHARDS};
use crate::gen::{AuditOp, Dataset, Key, ReadOp, Rng, PRELOAD_TXNS, TENANTS, TNOW, TXN_RECORDS};
use crate::hist::Hist;
use crate::layers::Layers;
use crate::report::Report;
use crate::trace::{BackendCounts, TracedBackend, Tracer};
use cpdb::core::{
    CoreError, MemStore, ProvRecord, ProvStore, QueryEngine, ReadArc, ReadHandle, RecordCursor,
    ShardedStore, SqlStore, Strategy, Tid, Tracker,
};
use cpdb::serve::Session;
use cpdb::storage::{
    decode_row, encode_row, Backend, BufferPool, Datum, DiskBackend, Engine, Page, TableHandle, Wal,
};
use cpdb::tree::Path;
use std::hint::black_box;
use std::ops::Bound;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const IDX_LOC: &str = "prov_by_loc";
/// The engine's default pool: 64 pages per table.
const POOL_PAGES: usize = 64;

/// One read operation with its paths built beforehand, so no rung
/// times the generator.
pub enum LadderOp {
    Read { op: ReadOp, target: Path },
    Scan { tenant: u8, prefix: Path },
    Mod { tenant: u8, nodes: Vec<Path> },
}

impl LadderOp {
    pub fn read(data: &Dataset, op: ReadOp) -> LadderOp {
        LadderOp::Read { op, target: read_target(data, op) }
    }

    pub fn audit(data: &Dataset, op: AuditOp) -> LadderOp {
        match op {
            AuditOp::Scan { tenant, container } => {
                LadderOp::Scan { tenant, prefix: data.container(tenant, container) }
            }
            AuditOp::Mod { tenant, container } => LadderOp::Mod {
                tenant,
                nodes: data.container_nodes(tenant, container, PRELOAD_TXNS),
            },
        }
    }
}

/// The engines and read handles of one engine-level rung, per tenant.
struct Front {
    engines: Vec<QueryEngine>,
}

impl Front {
    fn sessions(sessions: &[Session]) -> Front {
        Front { engines: sessions.iter().map(Session::query_engine).collect() }
    }

    fn shared(data: &Dataset, reads: ReadArc) -> Front {
        let engine = |t| QueryEngine::new(reads.clone(), false, data.tenant_label(t));
        Front { engines: (0..TENANTS as u8).map(engine).collect() }
    }

    /// Runs one operation; returns the rows it handed back.
    fn run(&self, op: &LadderOp) -> Result<u64, CoreError> {
        Ok(match op {
            LadderOp::Read { op, target } => {
                run_read(&self.engines[op.key().tenant as usize], *op, target)?.len()
            }
            LadderOp::Scan { tenant, prefix } => drain_count(
                self.engines[*tenant as usize].reads().scan_loc_prefix(prefix, SCAN_BATCH)?,
            )?,
            LadderOp::Mod { tenant, nodes } => {
                self.engines[*tenant as usize].get_mod(nodes, TNOW)?.len() as u64
            }
        })
    }

    fn run_all(&self, ops: &[LadderOp]) -> Result<u64, Error> {
        let mut rows = 0;
        for op in ops {
            rows += self.run(op)?;
        }
        Ok(rows)
    }
}

/// A store-level probe the query layer issued.
#[derive(Clone)]
enum Probe {
    ByLoc(Path),
    Prefix(Path),
    Scan(Path, usize),
}

/// A read handle over the bare `ShardedStore` that logs the probes
/// the query engine issues, so lower rungs can replay exactly them.
struct ProbeLog {
    inner: Arc<ShardedStore>,
    log: Arc<Mutex<Vec<Probe>>>,
}

impl ProbeLog {
    fn push(&self, probe: Probe) {
        self.log.lock().expect("probe log poisoned").push(probe);
    }
}

impl ReadHandle for ProbeLog {
    fn by_loc(&self, loc: &Path) -> Result<Vec<ProvRecord>, CoreError> {
        self.push(Probe::ByLoc(loc.clone()));
        self.inner.by_loc(loc)
    }

    fn by_loc_prefix(&self, prefix: &Path) -> Result<Vec<ProvRecord>, CoreError> {
        self.push(Probe::Prefix(prefix.clone()));
        self.inner.by_loc_prefix(prefix)
    }

    fn scan_loc_prefix(&self, prefix: &Path, batch: usize) -> Result<RecordCursor<'_>, CoreError> {
        self.push(Probe::Scan(prefix.clone(), batch));
        self.inner.scan_loc_prefix(prefix, batch)
    }

    // The benchmark's operations over flat archives issue only the
    // three probes above; anything else would make the lower rungs
    // replay less than the query layer asked for.
    fn all(&self) -> Result<Vec<ProvRecord>, CoreError> {
        unreachable!("no benchmark operation probes `all`")
    }

    fn at(&self, _: Tid, _: &Path) -> Result<Vec<ProvRecord>, CoreError> {
        unreachable!("no benchmark operation probes `at`")
    }

    fn by_tid(&self, _: Tid) -> Result<Vec<ProvRecord>, CoreError> {
        unreachable!("no benchmark operation probes `by_tid`")
    }

    fn by_tid_loc_prefix(&self, _: Tid, _: &Path) -> Result<Vec<ProvRecord>, CoreError> {
        unreachable!("no benchmark operation probes `by_tid_loc_prefix`")
    }

    fn by_loc_chain(&self, _: &Path, _: usize) -> Result<Vec<ProvRecord>, CoreError> {
        unreachable!("flat archives never probe ancestor chains")
    }

    fn scan_tid_loc_prefix(
        &self,
        _: Tid,
        _: &Path,
        _: usize,
    ) -> Result<RecordCursor<'_>, CoreError> {
        unreachable!("no benchmark operation probes `scan_tid_loc_prefix`")
    }
}

/// Replays a probe on any store; returns the rows fetched.
fn replay(store: &dyn ProvStore, probe: &Probe) -> Result<u64, CoreError> {
    Ok(match probe {
        Probe::ByLoc(loc) => store.by_loc(loc)?.len() as u64,
        Probe::Prefix(prefix) => store.by_loc_prefix(prefix)?.len() as u64,
        Probe::Scan(prefix, batch) => drain_count(store.scan_loc_prefix(prefix, *batch)?)?,
    })
}

/// Replays every probe on the store `pick` names for it.
fn replay_each<'s>(
    probes: &[Probe],
    pick: impl Fn(&Probe) -> &'s dyn ProvStore,
) -> Result<u64, Error> {
    let mut rows = 0;
    for probe in probes {
        rows += replay(pick(probe), probe)?;
    }
    Ok(rows)
}

/// What the table rung measured beside its total.
#[derive(Default)]
struct TableCalls {
    lookups: u64,
    lookup_ns: u64,
    range_pages: u64,
    range_page_ns: u64,
}

/// Replays a probe on the owning shard's table, by encoded key.
/// `pages`, when given, receives the heap page of every row fetched.
fn replay_on_table(
    table: &TableHandle,
    probe: &Probe,
    calls: &mut TableCalls,
    mut pages: Option<&mut Vec<u64>>,
) -> Result<u64, Error> {
    let mut note = |rows: &[(cpdb::storage::RowId, Vec<Datum>)]| {
        if let Some(pages) = pages.as_deref_mut() {
            pages.extend(rows.iter().map(|(rid, _)| rid.page));
        }
    };
    match probe {
        Probe::ByLoc(loc) => {
            let key = [Datum::str(loc.key())];
            let t0 = Instant::now();
            let rows = table.lookup(IDX_LOC, &key)?;
            calls.lookup_ns += t0.elapsed().as_nanos() as u64;
            calls.lookups += 1;
            note(&rows);
            Ok(rows.len() as u64)
        }
        Probe::Prefix(prefix) | Probe::Scan(prefix, _) => {
            let batch = if let Probe::Scan(_, batch) = probe { *batch } else { usize::MAX };
            let wrap = |b: Bound<String>| match b {
                Bound::Included(k) => Bound::Included(vec![Datum::str(k)]),
                Bound::Excluded(k) => Bound::Excluded(vec![Datum::str(k)]),
                Bound::Unbounded => Bound::Unbounded,
            };
            let (lo, hi) = prefix.prefix_range_bounds();
            let (lo, hi) = (wrap(lo), wrap(hi));
            let mut token = None;
            let mut fetched = 0;
            loop {
                let t0 = Instant::now();
                let (rows, next) =
                    table.range_page(IDX_LOC, lo.clone(), hi.clone(), batch, token)?;
                calls.range_page_ns += t0.elapsed().as_nanos() as u64;
                calls.range_pages += 1;
                note(&rows);
                fetched += rows.len() as u64;
                token = next;
                if token.is_none() {
                    return Ok(fetched);
                }
            }
        }
    }
}

/// Best of two timed passes, in microseconds per operation. The first
/// pass also leaves the caches as the second finds them.
fn best_us_per_op<T>(
    ops: usize,
    mut pass: impl FnMut() -> Result<T, Error>,
) -> Result<(f64, T), Error> {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..2 {
        let t0 = Instant::now();
        let out = black_box(pass()?);
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    Ok((best * 1e6 / ops as f64, last.expect("two passes ran")))
}

/// Checks a ladder is monotone within 5% of its top rung, and reports
/// its rungs. (Read rungs are means over a replayed stream; write rungs
/// are medians, because one slow fsync moves a mean of a few thousand
/// calls by more than the layers between two rungs cost.)
fn check_monotone(ladder: &str, rungs: &[(&str, f64)], report: &mut Report) {
    let top = rungs[0].1;
    for pair in rungs.windows(2) {
        let ((upper, a), (lower, b)) = (pair[0], pair[1]);
        report.check(
            b <= a + 0.05 * top,
            &format!("{ladder} ladder: {lower} ({b:.3} us) is not above {upper} ({a:.3} us) by over 5% of the top"),
        );
    }
    for (name, mean) in rungs {
        report.info(format!("ladder.{ladder}.{name}_us"), *mean, "us");
    }
}

/// The shard that owns an encoded key, by the store's own boundaries.
fn shard_of(boundaries: &[String], key: &str) -> usize {
    boundaries.iter().filter(|b| b.as_str() <= key).count()
}

/// The read ladder over `ops`. Returns `R0`, microseconds per op.
pub fn read_ladder(
    dep: &Deployment,
    data: &Dataset,
    snapshot: &[Session],
    ops: &[LadderOp],
    layers: &mut Layers,
    report: &mut Report,
) -> Result<f64, Error> {
    let n = ops.len();
    let sharded = &dep.sharded;

    // Engine-level rungs.
    let serve = Front::sessions(snapshot);
    let (r0, _) = best_us_per_op(n, || serve.run_all(ops))?;
    let snap = Front::shared(data, ReadArc::from(dep.pipe.snapshot_reader()));
    let (r1, rows_r1) = best_us_per_op(n, || snap.run_all(ops))?;
    let bare = Front::shared(data, ReadArc::from(sharded.clone()));
    let (r2, rows_r2) = best_us_per_op(n, || bare.run_all(ops))?;

    // The probes R2 issues, logged once, then replayed lower and lower.
    let log = Arc::new(Mutex::new(Vec::new()));
    let logging = ProbeLog { inner: sharded.clone(), log: log.clone() };
    Front::shared(data, ReadArc::from_handle(logging)).run_all(ops)?;
    let probes = std::mem::take(&mut *log.lock().expect("probe log poisoned"));
    let (r3, rows_r3) = best_us_per_op(n, || replay_each(&probes, |_| sharded.as_ref()))?;

    let boundaries = sharded.boundaries();
    let owner = |probe: &Probe| {
        let (Probe::ByLoc(p) | Probe::Prefix(p) | Probe::Scan(p, _)) = probe;
        shard_of(&boundaries, &p.key())
    };
    let stores: Vec<Arc<SqlStore>> = (0..SHARDS).map(|i| sharded.shard(i)).collect();
    let (r4, rows_r4) = best_us_per_op(n, || replay_each(&probes, |p| stores[owner(p)].as_ref()))?;

    let tables: Vec<Arc<TableHandle>> =
        (0..SHARDS).map(|i| sharded.shard_engine(i).table("Prov")).collect::<Result<_, _>>()?;
    let mut calls = TableCalls::default();
    let (r5, rows_r5) = best_us_per_op(n, || {
        calls = TableCalls::default();
        let mut rows = 0;
        for probe in &probes {
            rows += replay_on_table(&tables[owner(probe)], probe, &mut calls, None)?;
        }
        Ok(rows)
    })?;
    report.check(
        rows_r3 == rows_r4 && rows_r4 == rows_r5,
        "the shard, store and table rungs fetched the same rows",
    );

    // The heap pages R5 fetched, replayed through pools of the engine's
    // capacity over the same files.
    let mut page_seq: Vec<(usize, u64)> = Vec::with_capacity(rows_r5 as usize);
    let mut scratch_pages = Vec::new();
    for probe in &probes {
        let shard = owner(probe);
        scratch_pages.clear();
        replay_on_table(
            &tables[shard],
            probe,
            &mut TableCalls::default(),
            Some(&mut scratch_pages),
        )?;
        page_seq.extend(scratch_pages.iter().map(|&page| (shard, page)));
    }
    let heap = |shard: usize| dep.dir.join("store").join(format!("shard-{shard}")).join("Prov.tbl");
    let pools: Vec<BufferPool> = (0..SHARDS)
        .map(|i| Ok(BufferPool::new(Arc::new(DiskBackend::open(heap(i))?), POOL_PAGES)))
        .collect::<Result<_, Error>>()?;
    let pool_stats = |f: fn(&cpdb::storage::PoolStats) -> u64| -> u64 {
        pools.iter().map(|p| f(p.stats())).sum()
    };
    let mut before = (0, 0, 0);
    let (r6, _) = best_us_per_op(n, || {
        before = (
            pool_stats(|s| s.hits.load(Ordering::Relaxed)),
            pool_stats(|s| s.misses.load(Ordering::Relaxed)),
            pool_stats(|s| s.evictions.load(Ordering::Relaxed)),
        );
        for &(shard, page) in &page_seq {
            black_box(pools[shard].fetch(page)?);
        }
        Ok(())
    })?;
    let hits = pool_stats(|s| s.hits.load(Ordering::Relaxed)) - before.0;
    let misses = pool_stats(|s| s.misses.load(Ordering::Relaxed)) - before.1;
    let evictions = pool_stats(|s| s.evictions.load(Ordering::Relaxed)) - before.2;

    // Synthetic pool sequences: cyclic within half the pool (all hits
    // once warm), uniform over the file (nearly all misses).
    let probe_pool = BufferPool::new(Arc::new(DiskBackend::open(heap(0))?), POOL_PAGES);
    let file_pages = probe_pool.backend().num_pages();
    let fetches = 100_000u64;
    for page in 1..=32 {
        probe_pool.fetch(page)?;
    }
    let t0 = Instant::now();
    for i in 0..fetches {
        black_box(probe_pool.fetch(1 + i % 32)?);
    }
    let hit_ns = t0.elapsed().as_nanos() as f64 / fetches as f64;
    let mut rng = Rng::new(0xB0FF);
    let uniform = 20_000u64;
    let missed_before = probe_pool.stats().misses.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for _ in 0..uniform {
        black_box(probe_pool.fetch(1 + rng.below(file_pages - 1))?);
    }
    let uniform_ns = t0.elapsed().as_nanos() as f64;
    let missed = probe_pool.stats().misses.load(Ordering::Relaxed) - missed_before;
    let miss_ns = (uniform_ns - (uniform - missed) as f64 * hit_ns) / missed.max(1) as f64;

    // The backend alone: positioned reads of the same file.
    let file = DiskBackend::open(heap(0))?;
    let t0 = Instant::now();
    for _ in 0..uniform {
        black_box(file.read_page(1 + rng.below(file_pages - 1))?);
    }
    let read_page_ns = t0.elapsed().as_nanos() as f64 / uniform as f64;
    let r7 = misses as f64 * read_page_ns / 1e3 / n as f64;

    check_monotone(
        "read",
        &[
            ("r0_serve", r0),
            ("r1_snapshot", r1),
            ("r2_query", r2),
            ("r3_shard", r3),
            ("r4_store", r4),
            ("r5_table", r5),
            ("r6_buffer", r6),
            ("r7_backend", r7),
        ],
        report,
    );
    layers.set("ladder.read.r0_us", r0);
    layers.set("serve.read.self_us", r0 - r1);
    layers.set("snapshot.self_us", r1 - r2);
    layers
        .set("snapshot.filter_rows_dropped_per_read", (rows_r2 as f64 - rows_r1 as f64) / n as f64);
    layers.set("query.self_us", r2 - r3);
    layers.set("shard.read.self_us", r3 - r4);
    layers.set("store.read.self_us", r4 - r5);
    layers.set("store.decode_ns_per_row", (r4 - r5) * 1e3 * n as f64 / rows_r5.max(1) as f64);
    layers.set("table.read.self_us", r5 - r6);
    layers.set("table.lookup_us", calls.lookup_ns as f64 / 1e3 / calls.lookups.max(1) as f64);
    layers.set(
        "table.range_page_us",
        calls.range_page_ns as f64 / 1e3 / calls.range_pages.max(1) as f64,
    );
    layers.set("buffer.read.self_us", r6 - r7);
    layers.set("buffer.fetch_hit_ns", hit_ns);
    layers.set("buffer.fetch_miss_ns", miss_ns);
    layers.set("buffer.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    layers.set("buffer.evictions_per_op", evictions as f64 / n as f64);
    layers.set("backend.read.self_us", r7);
    layers.set("backend.read_page_ns", read_page_ns);
    Ok(r0)
}

/// A file backend that counts what the table rung writes through it.
fn counted(
    path: std::path::PathBuf,
    counts: &Arc<BackendCounts>,
) -> Result<Arc<dyn Backend>, Error> {
    let names = ["table.backend.read_page", "table.backend.write_page", "table.backend.sync"];
    Ok(Arc::new(TracedBackend::new(DiskBackend::open(path)?, Tracer::new(), counts.clone(), names)))
}

fn encode_cell(row: &[Datum]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_row(row, &mut out);
    out
}

fn record_row(r: &ProvRecord) -> Vec<Datum> {
    vec![
        Datum::U64(r.tid.0),
        Datum::str(r.op.code()),
        Datum::str(r.loc.key()),
        r.src.as_ref().map_or(Datum::Null, |s| Datum::str(s.key())),
    ]
}

/// Both write ladders, over `txns` transactions of tenant 0 per rung,
/// continuing at `next`. Rungs that are compared run in rotation, one
/// call each, so they meet the same fsync weather.
#[allow(clippy::too_many_arguments)]
pub fn write_ladders(
    dep: &Deployment,
    data: &Dataset,
    scratch: &Scratch,
    session: &Session,
    next: u32,
    txns: usize,
    layers: &mut Layers,
    report: &mut Report,
) -> Result<(), Error> {
    // --- What the caller waits for. -----------------------------------
    let batches: Vec<Vec<ProvRecord>> =
        (0..2 * txns as u32).map(|i| data.txn_records(0, next + i)).collect();
    let (mut serve, mut pipeline) = (Hist::default(), Hist::default());
    for pair in batches.chunks(2) {
        let t0 = Instant::now();
        session.insert_batch(&pair[0])?;
        let t1 = Instant::now();
        dep.pipe.insert_batch(&pair[1])?;
        pipeline.record(t1.elapsed().as_nanos() as u64);
        serve.record((t1 - t0).as_nanos() as u64);
    }
    let (w0, w1) = (serve.quantile(0.5) / 1e3, pipeline.quantile(0.5) / 1e3);
    dep.quiesce()?;
    let batches = &batches[..txns];

    let wal = Wal::open(Arc::new(DiskBackend::open(scratch.path("rung.wal"))?))?;
    let payloads: Vec<Vec<Vec<u8>>> = batches
        .iter()
        .map(|records| records.iter().map(|r| encode_cell(&record_row(r))).collect())
        .collect();
    let file = DiskBackend::open(scratch.path("rung.pages"))?;
    for _ in 0..TXN_RECORDS {
        file.allocate()?;
    }
    let page = Page::new();
    let (mut append_ns, mut sync_ns) = (0u64, 0u64);
    let (mut write_ns, mut file_sync_ns) = (0u64, 0u64);
    let (mut wal_txn, mut file_txn) = (Hist::default(), Hist::default());
    for (i, txn) in payloads.iter().enumerate() {
        let t0 = Instant::now();
        let mut last = 0;
        for payload in txn {
            last = wal.append(payload)?;
        }
        let t1 = Instant::now();
        wal.sync_through(last)?;
        let t2 = Instant::now();
        // The log's pattern on the bare backend: a transaction's 8
        // appends rewrite one tail page, which moves on every
        // half-dozen transactions; then one sync.
        let tail = (i as u64 / 6) % TXN_RECORDS as u64;
        for _ in 0..TXN_RECORDS {
            file.write_page(tail, &page)?;
        }
        let t3 = Instant::now();
        file.sync()?;
        let t4 = Instant::now();
        append_ns += (t1 - t0).as_nanos() as u64;
        sync_ns += (t2 - t1).as_nanos() as u64;
        write_ns += (t3 - t2).as_nanos() as u64;
        file_sync_ns += (t4 - t3).as_nanos() as u64;
        wal_txn.record((t2 - t0).as_nanos() as u64);
        file_txn.record((t4 - t2).as_nanos() as u64);
        if (i + 1) % (COMMIT_BATCH / TXN_RECORDS) == 0 {
            // As the committer does after each batch; not the caller's
            // wait, so not timed.
            wal.truncate_through(last)?;
        }
    }
    let w5 = wal_txn.quantile(0.5) / 1e3;
    let write_page_ns = write_ns as f64 / (txns * TXN_RECORDS) as f64;
    let sync_us = file_sync_ns as f64 / 1e3 / txns as f64;
    let w7 = file_txn.quantile(0.5) / 1e3;
    check_monotone(
        "write",
        &[("w0_serve", w0), ("w1_pipeline", w1), ("w5_wal", w5), ("w7_backend", w7)],
        report,
    );
    layers.set("ladder.write.w0_us", w0);
    layers.set("serve.write.self_us", w0 - w1);
    layers.set("pipeline.enqueue_us", w1 - w5);
    layers.set("wal.self_us", w5 - w7);
    layers.set("wal.append_ns", append_ns as f64 / (txns * TXN_RECORDS) as f64);
    layers.set("wal.sync_us", sync_ns as f64 / 1e3 / txns as f64);
    layers.set("backend.write.self_us", w7);
    layers.set("backend.write_page_ns", write_page_ns);
    layers.set("backend.sync_us", sync_us);

    // --- What the committer does, per transaction. --------------------
    let per_batch = COMMIT_BATCH / TXN_RECORDS;
    let commits: Vec<Vec<ProvRecord>> =
        batches.chunks(per_batch).map(|txns| txns.concat()).collect();
    let committed = (commits.len() * per_batch) as f64;
    let containers: Vec<_> = (0..TENANTS as u8).map(|t| data.tenant_root(t)).collect();
    let boundaries = ShardedStore::split_points(&containers, SHARDS);
    let shard_rung = ShardedStore::on_disk(scratch.path("rung-shard"), boundaries, true)?
        .with_parallel_executor();
    let store_rung = SqlStore::create(&Engine::on_disk(scratch.path("rung-store"))?, true)?;
    let counts: Arc<BackendCounts> = Arc::default();
    let table_dir = scratch.path("rung-table");
    std::fs::create_dir_all(&table_dir)?;
    let engine = {
        let counts = counts.clone();
        Engine::with_backend(move |name| {
            counted(table_dir.join(format!("{name}.tbl")), &counts).expect("rung table file opens")
        })
    };
    // `SqlStore::create` builds the `Prov` table and its three indexes;
    // the rung then drives the table underneath it.
    SqlStore::create(&engine, true)?;
    let table = engine.table("Prov")?;
    let (mut shard, mut store, mut table_batch) =
        (Hist::default(), Hist::default(), Hist::default());
    let (mut insert_ns, mut flush_ns) = (0u64, 0u64);
    for batch in &commits {
        let rows: Vec<Vec<Datum>> = batch.iter().map(record_row).collect();
        let t0 = Instant::now();
        shard_rung.insert_batch(batch)?;
        shard_rung.checkpoint()?;
        let t1 = Instant::now();
        store_rung.insert_batch(batch)?;
        store_rung.checkpoint()?;
        let t2 = Instant::now();
        for row in &rows {
            table.insert(row)?;
        }
        let t3 = Instant::now();
        table.flush()?;
        let t4 = Instant::now();
        shard.record((t1 - t0).as_nanos() as u64);
        store.record((t2 - t1).as_nanos() as u64);
        table_batch.record((t4 - t2).as_nanos() as u64);
        insert_ns += (t3 - t2).as_nanos() as u64;
        flush_ns += (t4 - t3).as_nanos() as u64;
    }
    let per_txn = per_batch as f64;
    let c2 = shard.quantile(0.5) / 1e3 / per_txn;
    let c3 = store.quantile(0.5) / 1e3 / per_txn;
    let c4 = table_batch.quantile(0.5) / 1e3 / per_txn;
    let page_writes = counts.writes.load(Ordering::Relaxed) as f64;
    let syncs = counts.syncs.load(Ordering::Relaxed) as f64;
    let sync_p50_us = (w7 - write_page_ns * TXN_RECORDS as f64 / 1e3).max(0.0);
    let c7 = (page_writes * write_page_ns / 1e3 + syncs * sync_p50_us) / committed;
    check_monotone(
        "commit",
        &[("c2_shard", c2), ("c3_store", c3), ("c4_table", c4), ("c7_backend", c7)],
        report,
    );
    layers.set("ladder.commit.c2_us", c2);
    layers.set("shard.write.self_us", c2 - c3);
    layers.set("store.write.self_us", c3 - c4);
    layers.set("table.insert_us", insert_ns as f64 / 1e3 / committed);
    layers.set("table.flush_us", flush_ns as f64 / 1e3 / committed);
    layers.set("buffer.writebacks_per_txn", page_writes / committed);
    Ok(())
}

/// What scattering a four-shard probe to the executor costs beyond the
/// slowest shard answering alone.
pub fn fanout(dep: &Deployment, layers: &mut Layers) -> Result<(), Error> {
    let probes = 200u64;
    let stores: Vec<Arc<SqlStore>> = (0..SHARDS).map(|i| dep.sharded.shard(i)).collect();
    let (mut through_executor, mut slowest_alone) = (0u64, 0u64);
    for i in 0..probes {
        let tid = Tid(1 + i * 7);
        let t0 = Instant::now();
        black_box(dep.sharded.by_tid(tid)?);
        through_executor += t0.elapsed().as_nanos() as u64;
        let mut slowest = 0;
        for store in &stores {
            let t0 = Instant::now();
            black_box(store.by_tid(tid)?);
            slowest = slowest.max(t0.elapsed().as_nanos() as u64);
        }
        slowest_alone += slowest;
    }
    layers.set(
        "executor.fanout_us",
        (through_executor as f64 - slowest_alone as f64) / 1e3 / probes as f64,
    );
    Ok(())
}

/// Leaf costs every layer above pays: path keys, row codecs, and the
/// transactional tracker on the paper's `real` pattern.
pub fn leaf_probes(data: &Dataset, seed: u64, layers: &mut Layers) -> Result<(), Error> {
    let keys: Vec<Key> = {
        let mut rng = Rng::new(seed ^ 0x1EAF);
        (0..20_000).map(|_| crate::gen::read_op(&mut rng, PRELOAD_TXNS).key()).collect()
    };
    let paths: Vec<Path> = keys.iter().map(|&k| data.loc(k)).collect();
    let n = paths.len() as f64;
    let t0 = Instant::now();
    let encoded: Vec<String> = paths.iter().map(Path::key).collect();
    layers.set("tree.path_key_ns", t0.elapsed().as_nanos() as f64 / n);
    black_box(&encoded);
    let spelled: Vec<String> = paths.iter().map(Path::to_string).collect();
    let t0 = Instant::now();
    for s in &spelled {
        black_box(s.parse::<Path>()?);
    }
    layers.set("tree.path_parse_ns", t0.elapsed().as_nanos() as f64 / n);

    let rows: Vec<Vec<Datum>> = keys
        .iter()
        .map(|k| record_row(&data.txn_records(k.tenant, k.txn)[k.slot as usize]))
        .collect();
    let t0 = Instant::now();
    let cells: Vec<Vec<u8>> = rows.iter().map(|row| encode_cell(row)).collect();
    layers.set("row.encode_ns", t0.elapsed().as_nanos() as f64 / n);
    let t0 = Instant::now();
    for cell in &cells {
        black_box(decode_row(cell)?);
    }
    layers.set("row.decode_ns", t0.elapsed().as_nanos() as f64 / n);

    // `real`: copy one subtree, add 3 nodes, delete 3 — 7 steps a
    // transaction.
    let steps = 7 * 300;
    let cfg =
        cpdb::workload::GenConfig::for_length(cpdb::workload::UpdatePattern::Real, steps, seed);
    let workload = cpdb::workload::generate(&cfg, steps);
    let effects = workload.workspace().apply_script(&workload.script)?;
    let mut tracker = Tracker::new(Strategy::Transactional, Arc::new(MemStore::new()), Tid(1));
    let t0 = Instant::now();
    for txn in effects.chunks(7) {
        for effect in txn {
            tracker.track(effect)?;
        }
        tracker.commit()?;
    }
    let txns = effects.len().div_ceil(7) as f64;
    layers.set("tracker.track_commit_us", t0.elapsed().as_secs_f64() * 1e6 / txns);
    Ok(())
}
