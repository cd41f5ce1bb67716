//! The closed-loop clients: curators, query clients, auditors, and
//! the recorder that times their session calls.
//!
//! A client generates its next request only after the previous one
//! completed. Generation, sampling and checking happen outside the
//! timed interval; pacing never spins.

use crate::gen::{self, AuditOp, Dataset, Key, ReadOp, Rng, PRELOAD_TXNS, TNOW};
use crate::hist::Hist;
use cpdb::core::{CoreError, ProvRecord, QueryEngine, RecordCursor, Tid, TraceStep};
use cpdb::serve::Session;
use cpdb::tree::Path;
use std::fmt::Debug;
use std::time::{Duration, Instant};

/// What a latency sample times.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Class {
    /// `insert_batch` call → durable acknowledgement.
    Write = 0,
    /// One query call.
    Read = 1,
    /// `scan_loc_prefix` call → first batch in hand.
    ScanFirst = 2,
    /// A whole cursor drain.
    Scan = 3,
    /// `get_mod` over a container.
    Mod = 4,
}

pub const CLASSES: usize = 5;
/// Slices the measured window is cut into; throughput is the median
/// slice, which a single stall cannot move.
pub const SLICES: usize = 20;

/// A read (or audit) request whose answer was kept for the oracle.
#[derive(Clone, Copy, Debug)]
pub enum SampleOp {
    Read(ReadOp),
    Audit(AuditOp),
}

#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub op: SampleOp,
    pub digest: u64,
}

/// FNV-1a over a value's `Debug` rendering: answers are compared with
/// the oracle's by digest, so a sampled answer costs 8 bytes to keep.
pub fn digest<T: Debug>(value: &T) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in format!("{value:?}").bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One client's measurements over the window `[warm_end, end)`.
pub struct Recorder {
    warm_end: Instant,
    end: Instant,
    slice: Duration,
    /// When the last call returned: the loop's clock.
    pub last: Instant,
    pub hists: [Hist; CLASSES],
    pub slice_ops: [u64; SLICES],
    pub slice_records: [u64; SLICES],
    pub attempted: u64,
    pub failed: u64,
    pub samples: Vec<Sample>,
    calls: u64,
    sample_every: u64,
}

impl Recorder {
    pub fn new(warm_end: Instant, end: Instant, sample_every: u64) -> Recorder {
        Recorder {
            warm_end,
            end,
            slice: (end - warm_end) / SLICES as u32,
            last: Instant::now(),
            hists: Default::default(),
            slice_ops: [0; SLICES],
            slice_records: [0; SLICES],
            attempted: 0,
            failed: 0,
            samples: Vec::new(),
            calls: 0,
            sample_every,
        }
    }

    pub fn done(&self) -> bool {
        self.last >= self.end
    }

    /// Books one completed request that started at `t0` and ended at
    /// `t1`. `op` says whether it counts toward throughput (a scan's
    /// first-page latency is a second sample of the same request).
    pub fn book(&mut self, class: Class, t0: Instant, t1: Instant, records: u64, op: bool) {
        self.last = t1;
        if t1 < self.warm_end || t1 >= self.end {
            return;
        }
        self.hists[class as usize].record((t1 - t0).as_nanos() as u64);
        if op {
            let i = ((t1 - self.warm_end).as_nanos() / self.slice.as_nanos()) as usize;
            let i = i.min(SLICES - 1);
            self.slice_ops[i] += 1;
            self.slice_records[i] += records;
            self.attempted += 1;
        }
    }

    /// A request that returned an error: attempted, failed, no latency.
    pub fn fail(&mut self, error: &CoreError) {
        eprintln!("operation failed: {error}");
        self.last = Instant::now();
        self.attempted += 1;
        self.failed += 1;
    }

    /// A check made beside the timed calls (counted whenever it runs).
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            eprintln!("check failed: {what}");
            self.failed += 1;
        }
    }

    /// Whether this call's answer should be kept for the oracle.
    fn sampled(&mut self) -> bool {
        self.calls += 1;
        self.calls.is_multiple_of(self.sample_every)
    }
}

/// A query client's answer, kept whole so that rendering it for the
/// oracle happens after the clock stopped, and only on sampled calls.
#[derive(Debug)]
pub enum Answer {
    Hist(Vec<Tid>),
    Src(Option<Tid>),
    Trace(Vec<TraceStep>),
    Prefix(Vec<ProvRecord>),
}

impl Answer {
    /// Result items handed back to the reader.
    pub fn len(&self) -> u64 {
        match self {
            Answer::Hist(v) => v.len() as u64,
            Answer::Src(v) => v.is_some() as u64,
            Answer::Trace(v) => v.len() as u64,
            Answer::Prefix(v) => v.len() as u64,
        }
    }
}

/// The path a query-client request names: the record's location, or
/// its whole subtree for a prefix probe. Built before the clock starts.
pub fn read_target(data: &Dataset, op: ReadOp) -> Path {
    match op {
        ReadOp::Prefix(key) => data.subtree(key.tenant, key.txn),
        _ => data.loc(op.key()),
    }
}

/// Runs one query-client request through a session's engine.
pub fn run_read(engine: &QueryEngine, op: ReadOp, target: &Path) -> Result<Answer, CoreError> {
    Ok(match op {
        ReadOp::Hist(_) => Answer::Hist(engine.get_hist(target, TNOW)?),
        ReadOp::Src(_) => Answer::Src(engine.get_src(target, TNOW)?),
        ReadOp::Trace(_) => Answer::Trace(engine.trace(target, TNOW)?),
        ReadOp::Prefix(_) => Answer::Prefix(engine.reads().by_loc_prefix(target)?),
    })
}

/// Drains a cursor, counting its rows.
pub fn drain_count(mut cursor: RecordCursor<'_>) -> Result<u64, CoreError> {
    let mut rows = 0;
    while let Some(page) = cursor.next_batch()? {
        rows += page.len() as u64;
    }
    Ok(rows)
}

/// Digest of a cursor drain: the pages' records in order, and their
/// count.
pub fn drain_digest(pages: &[Vec<ProvRecord>]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut rows = 0u64;
    for r in pages.iter().flatten() {
        h = (h ^ digest(r)).wrapping_mul(0x0000_0100_0000_01B3);
        rows += 1;
    }
    h ^ rows
}

/// A snapshot query client: the 40/30/20/10 mix over the first `txns`
/// transactions of every tenant.
pub struct QueryClient<'a> {
    pub data: &'a Dataset,
    pub engines: Vec<QueryEngine>,
    pub rng: Rng,
    pub txns: u32,
}

impl QueryClient<'_> {
    pub fn step(&mut self, rec: &mut Recorder) {
        let op = gen::read_op(&mut self.rng, self.txns);
        let target = read_target(self.data, op);
        let engine = &self.engines[op.key().tenant as usize];
        let t0 = Instant::now();
        let result = run_read(engine, op, &target);
        let t1 = Instant::now();
        match result {
            Ok(answer) => {
                rec.book(Class::Read, t0, t1, answer.len(), true);
                if rec.sampled() {
                    rec.samples.push(Sample { op: SampleOp::Read(op), digest: digest(&answer) });
                }
            }
            Err(e) => rec.fail(&e),
        }
    }
}

/// A curator: one 8-record transaction per `insert_batch`, durable ack.
pub struct Curator<'a> {
    pub data: &'a Dataset,
    pub session: &'a Session,
    pub tenant: u8,
    /// The next transaction to write; everything below is acknowledged.
    pub next_txn: u32,
}

impl Curator<'_> {
    pub fn step(&mut self, rec: &mut Recorder) -> Vec<ProvRecord> {
        let records = self.data.txn_records(self.tenant, self.next_txn);
        let t0 = Instant::now();
        let result = self.session.insert_batch(&records);
        let t1 = Instant::now();
        match result {
            Ok(()) => rec.book(Class::Write, t0, t1, records.len() as u64, true),
            // An `Err` reports an earlier commit failure; this call's
            // records were still accepted (see `PipelinedStore`).
            Err(e) => rec.fail(&e),
        }
        self.next_txn += 1;
        records
    }
}

/// A snapshot auditor: container cursor drains and `get_mod`.
pub struct Auditor<'a> {
    pub data: &'a Dataset,
    pub sessions: &'a [Session],
    pub engines: Vec<QueryEngine>,
    pub rng: Rng,
}

pub const SCAN_BATCH: usize = 256;

impl Auditor<'_> {
    pub fn step(&mut self, rec: &mut Recorder) {
        let op = gen::audit_op(&mut self.rng);
        let sampled = rec.sampled();
        let outcome = match op {
            AuditOp::Scan { tenant, container } => self.scan(rec, tenant, container, sampled),
            AuditOp::Mod { tenant, container } => {
                let nodes = self.data.container_nodes(tenant, container, PRELOAD_TXNS);
                let t0 = Instant::now();
                let result = self.engines[tenant as usize].get_mod(&nodes, TNOW);
                let t1 = Instant::now();
                result.map(|tids| {
                    rec.book(Class::Mod, t0, t1, tids.len() as u64, true);
                    sampled.then(|| digest(&tids))
                })
            }
        };
        match outcome {
            Ok(Some(digest)) => rec.samples.push(Sample { op: SampleOp::Audit(op), digest }),
            Ok(None) => {}
            Err(e) => rec.fail(&e),
        }
    }

    fn scan(
        &self,
        rec: &mut Recorder,
        tenant: u8,
        container: u8,
        sampled: bool,
    ) -> Result<Option<u64>, CoreError> {
        let prefix = self.data.container(tenant, container);
        // A sampled drain keeps its pages until the clock has stopped.
        let mut kept = Vec::new();
        let mut rows = 0;
        let t0 = Instant::now();
        let mut cursor =
            self.sessions[tenant as usize].reads().scan_loc_prefix(&prefix, SCAN_BATCH)?;
        let mut page = cursor.next_batch()?;
        let t_first = Instant::now();
        while let Some(batch) = page {
            rows += batch.len() as u64;
            if sampled {
                kept.push(batch);
            }
            page = cursor.next_batch()?;
        }
        let t1 = Instant::now();
        rec.book(Class::ScanFirst, t0, t_first, 0, false);
        rec.book(Class::Scan, t0, t1, rows, true);
        Ok(sampled.then(|| drain_digest(&kept)))
    }
}

/// A key of the read-your-writes reader: `get_hist` over one tenant.
pub fn ryw_read_op(rng: &mut Rng, tenant: u8) -> ReadOp {
    ReadOp::Hist(Key { tenant, ..gen::read_op(rng, PRELOAD_TXNS).key() })
}
