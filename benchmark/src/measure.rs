//! The measured run (`--trace 0`): set-up, warm-up, the closed-loop
//! window, then the space, reopen, memory and correctness checks.

use crate::clients::{
    digest, drain_count, read_target, run_read, ryw_read_op, Auditor, Class, Curator, QueryClient,
    Recorder, Sample, SampleOp, CLASSES, SLICES,
};
use crate::deploy::{Deployment, Error, Scratch};
use crate::gen::{
    self, Dataset, Key, ReadOp, Rng, HOT_TXNS, PRELOAD_RECORDS, PRELOAD_TXNS, TENANTS, TXN_RECORDS,
};
use crate::hist::Hist;
use crate::oracle::Oracle;
use crate::report::{median, Report};
use crate::{crash, procfs, trace, Args, Workload};
use cpdb::core::{ProvRecord, ProvStore, QueryEngine};
use cpdb::serve::{Consistency, Session};
use std::path::Path as FsPath;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. The last one is the
/// deployment the workload runs on.
const SETUPS: usize = 2;
const WARMUP: Duration = Duration::from_secs(1);
/// Reopens per run; `reopen_s` is their median.
const REOPENS: usize = 3;
/// Read answers kept for the oracle: one in 256 (one in 16 for the
/// auditors, whose requests are a thousand times rarer).
const SAMPLE_READS: u64 = 256;
const SAMPLE_AUDITS: u64 = 16;
const REOPEN_PROBES: usize = 1_000;

enum Client<'a> {
    Query(QueryClient<'a>),
    Curate(Curator<'a>),
    Audit(Auditor<'a>),
    Ryw { writer: Curator<'a>, reader: QueryEngine, rng: Rng, turns: u64 },
}

impl Client<'_> {
    fn step(&mut self, rec: &mut Recorder) {
        match self {
            Client::Query(c) => c.step(rec),
            Client::Curate(c) => {
                c.step(rec);
            }
            Client::Audit(c) => c.step(rec),
            Client::Ryw { writer, reader, rng, turns } => {
                let written = writer.step(rec);
                *turns += 1;
                if *turns % SAMPLE_READS == 0 {
                    // Read-your-writes, exactly: the transaction just
                    // acknowledged is whole through the writer's own
                    // session.
                    let subtree = writer.data.subtree(writer.tenant, writer.next_txn - 1);
                    let seen = writer.session.reads().by_loc_prefix(&subtree);
                    let ok = seen.is_ok_and(|s| same_records(s, written));
                    rec.check(ok, "ryw session sees its own write");
                }
                let op = ryw_read_op(rng, 1);
                let target = read_target(writer.data, op);
                let t0 = Instant::now();
                let result = run_read(reader, op, &target);
                let t1 = Instant::now();
                match result {
                    Ok(answer) => {
                        rec.book(Class::Read, t0, t1, answer.len(), true);
                        if *turns % SAMPLE_READS == 0 {
                            let sample = Sample { op: SampleOp::Read(op), digest: digest(&answer) };
                            rec.samples.push(sample);
                        }
                    }
                    Err(e) => rec.fail(&e),
                }
            }
        }
    }

    /// `(tenant, first unacknowledged transaction)` of a writing client.
    fn written(&self) -> Option<(u8, u32)> {
        match self {
            Client::Curate(c) | Client::Ryw { writer: c, .. } => Some((c.tenant, c.next_txn)),
            _ => None,
        }
    }
}

/// Whether a probe returned exactly these records, each once (a probe
/// answers in key order, a transaction is generated in write order).
pub fn same_records(mut stored: Vec<ProvRecord>, mut written: Vec<ProvRecord>) -> bool {
    stored.sort();
    written.sort();
    stored == written
}

fn engines(sessions: &[Session]) -> Vec<QueryEngine> {
    sessions.iter().map(Session::query_engine).collect()
}

/// The workload's clients: at most two, one thread each.
fn clients<'a>(
    workload: Workload,
    seed: u64,
    data: &'a Dataset,
    snapshot: &'a [Session],
    ryw: &'a [Session],
) -> Vec<Client<'a>> {
    let query = |client: u64, txns: u32| {
        Client::Query(QueryClient {
            data,
            engines: engines(snapshot),
            rng: Rng::new(seed.wrapping_mul(31).wrapping_add(client)),
            txns,
        })
    };
    let curate = |tenant: u8| Curator {
        data,
        session: &ryw[tenant as usize],
        tenant,
        next_txn: PRELOAD_TXNS,
    };
    match workload {
        Workload::Curate => vec![Client::Curate(curate(0)), Client::Curate(curate(1))],
        Workload::QueryHot => vec![query(0, HOT_TXNS), query(1, HOT_TXNS)],
        Workload::QueryCold => vec![query(0, PRELOAD_TXNS), query(1, PRELOAD_TXNS)],
        Workload::Audit => (0..2)
            .map(|client| {
                Client::Audit(Auditor {
                    data,
                    sessions: snapshot,
                    engines: engines(snapshot),
                    rng: Rng::new(seed.wrapping_mul(31).wrapping_add(client)),
                })
            })
            .collect(),
        Workload::Mixed => vec![Client::Curate(curate(0)), query(1, PRELOAD_TXNS)],
        // One thread, deterministic interleave: a read-your-writes
        // reader beside a closed-loop writer starves (see the README).
        Workload::Ryw => vec![Client::Ryw {
            writer: curate(0),
            reader: ryw[1].query_engine(),
            rng: Rng::new(seed.wrapping_mul(31)),
            turns: 0,
        }],
    }
}

/// The class whose latency is the workload's `call_p50_us`/`call_p90_us`.
pub fn gated_class(workload: Workload) -> Class {
    match workload {
        Workload::Curate | Workload::Mixed => Class::Write,
        Workload::QueryHot | Workload::QueryCold | Workload::Ryw => Class::Read,
        Workload::Audit => Class::ScanFirst,
    }
}

fn tenant_counts(sessions: &[Session], data: &Dataset) -> Result<Vec<u64>, Error> {
    sessions
        .iter()
        .enumerate()
        .map(|(t, session)| {
            // Counted through a cursor: `by_loc_prefix` would hold a
            // tenant's 25,000 records at once and show in peak RSS.
            Ok(drain_count(session.reads().scan_loc_prefix(&data.tenant_root(t as u8), 1024)?)?)
        })
        .collect()
}

fn probe_digests(
    sessions: &[Session],
    data: &Dataset,
    probes: &[ReadOp],
) -> Result<Vec<u64>, Error> {
    let engines = engines(sessions);
    probes
        .iter()
        .map(|&op| {
            let engine = &engines[op.key().tenant as usize];
            Ok(digest(&run_read(engine, op, &read_target(data, op))?))
        })
        .collect()
}

/// Opens the deployment in `dir` and answers a first query: what a
/// restart costs before the service is useful again.
fn reopen(
    dir: &FsPath,
    data: &Dataset,
    first: ReadOp,
) -> Result<(Deployment, Vec<Session>, u64, f64), Error> {
    let t0 = Instant::now();
    let dep = Deployment::open(dir, data)?;
    let sessions = dep.sessions(data, Consistency::Snapshot)?;
    let answer = probe_digests(&sessions, data, &[first])?[0];
    Ok((dep, sessions, answer, t0.elapsed().as_secs_f64()))
}

pub fn run(args: &Args) -> Result<Report, Error> {
    let data = Dataset::new(args.seed);
    let scratch = Scratch::new(args.workload.name())?;
    let mut report = Report::default();
    let mut phase_start = Instant::now();
    let mut phase = |report: &mut Report, name: &str| {
        report.info(format!("phase.{name}_s"), phase_start.elapsed().as_secs_f64(), "s");
        phase_start = Instant::now();
    };

    // --- Set-up: build, preload, checkpoint — several times. ---------
    let mut setup_s = Vec::new();
    let mut deployment: Option<Deployment> = None;
    for i in 0..SETUPS {
        if let Some(old) = deployment.take() {
            let dir = old.dir.clone();
            drop(old);
            std::fs::remove_dir_all(dir)?;
        }
        let t0 = Instant::now();
        let d = Deployment::create(&scratch.path(&format!("deployment-{i}")), &data, None)?;
        d.preload(&data)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        deployment = Some(d);
    }
    let dep = deployment.expect("SETUPS is at least one");
    report.check(dep.pipe.len() == PRELOAD_RECORDS, "preload stored every record");
    phase(&mut report, "setup");

    // --- Reopen: drop everything, open, answer a first query. Timed
    // on the set-up's 200,000 records, before the window, so that a
    // faster write path (more records by the end) is not a slower
    // reopen.
    let mut probe_rng = Rng::new(args.seed ^ 0x5EED_CAFE);
    let mut probes: Vec<ReadOp> =
        (0..REOPEN_PROBES).map(|_| gen::read_op(&mut probe_rng, PRELOAD_TXNS)).collect();
    let dir = dep.dir.clone();
    let mut reopen_s = Vec::new();
    let mut dep = dep;
    for _ in 0..REOPENS {
        drop(dep);
        let (reopened, _, _, secs) = reopen(&dir, &data, probes[0])?;
        reopen_s.push(secs);
        dep = reopened;
    }
    phase(&mut report, "reopen");

    // --- Warm-up, then the measured window. --------------------------
    let snapshot = dep.sessions(&data, Consistency::Snapshot)?;
    let ryw = dep.sessions(&data, Consistency::ReadYourWrites)?;
    let sample_every = if args.workload == Workload::Audit { SAMPLE_AUDITS } else { SAMPLE_READS };
    let mut clients = clients(args.workload, args.seed, &data, &snapshot, &ryw);
    let warm_end = Instant::now() + WARMUP;
    let end = warm_end + Duration::from_secs(args.seconds);
    let mut disk_per_record = Vec::with_capacity(SLICES);
    let recorders: Vec<Recorder> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                s.spawn(move || {
                    trace::mark_client_thread();
                    let mut rec = Recorder::new(warm_end, end, sample_every);
                    while !rec.done() {
                        client.step(&mut rec);
                    }
                    rec
                })
            })
            .collect();
        // This thread sleeps through the window, waking mid-slice to
        // weigh the deployment's files against the records accepted.
        for i in 0..SLICES as u32 {
            let due = warm_end + (end - warm_end) * (2 * i + 1) / (2 * SLICES as u32);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            if let Ok(bytes) = dep.disk_bytes() {
                disk_per_record.push(bytes as f64 / dep.pipe.len() as f64);
            }
        }
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut next_txn = [PRELOAD_TXNS; TENANTS];
    for (tenant, next) in clients.iter().filter_map(Client::written) {
        next_txn[tenant as usize] = next;
    }
    drop(clients);
    phase(&mut report, "window");

    let secs = args.seconds as f64;
    let slice_s = secs / SLICES as f64;
    let per_slice = |pick: fn(&Recorder) -> &[u64; SLICES]| -> Vec<f64> {
        (0..SLICES)
            .map(|i| recorders.iter().map(|r| pick(r)[i]).sum::<u64>() as f64 / slice_s)
            .collect()
    };
    let mut hists: [Hist; CLASSES] = Default::default();
    let mut samples = Vec::new();
    for r in &recorders {
        for (merged, h) in hists.iter_mut().zip(&r.hists) {
            merged.merge(h);
        }
        samples.extend_from_slice(&r.samples);
        report.attempted += r.attempted;
        report.failed += r.failed;
    }
    let gated = &hists[gated_class(args.workload) as usize];
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("ops_per_s", median(&per_slice(|r| &r.slice_ops)), "1/s");
    report.metric("records_per_s", median(&per_slice(|r| &r.slice_records)), "1/s");
    report.metric("call_p50_us", gated.quantile(0.50) / 1e3, "us");
    report.metric("call_p90_us", gated.quantile(0.90) / 1e3, "us");
    report.metric("reopen_s", median(&reopen_s), "s");
    for (class, h) in [Class::Write, Class::Read, Class::ScanFirst, Class::Scan, Class::Mod]
        .into_iter()
        .zip(&hists)
        .filter(|(_, h)| h.count() > 0)
    {
        let name = format!("{class:?}").to_lowercase();
        report.info(format!("{name}.samples"), h.count() as f64, "count");
        for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99)] {
            report.info(format!("{name}.{label}_us"), h.quantile(q) / 1e3, "us");
        }
    }

    // --- Space, at a quiesced point. ----------------------------------
    dep.quiesce()?;
    let written: u64 = next_txn.iter().map(|&n| (n - PRELOAD_TXNS) as u64).sum();
    let stored = PRELOAD_RECORDS + written * TXN_RECORDS as u64;
    report.check(dep.pipe.len() == stored, "len() counts every acknowledged record");
    // The paper's headline cost (Figures 7-8): bytes on disk per
    // record, every file counted. It is the median of the window's
    // mid-slice samples, not the final state: index sidecars and the
    // WAL are a sawtooth of the checkpoint cycle (delta segments grow
    // until a fold-back, the log until a drain), so where a run
    // happens to end moves the final figure by several percent.
    report.check(disk_per_record.len() == SLICES, "the deployment's files could be measured");
    report.metric("bytes_per_record", median(&disk_per_record), "B");
    report.info("final_bytes_per_record", dep.disk_bytes()? as f64 / stored as f64, "B");
    report.info("table_bytes_per_record", dep.pipe.physical_bytes() as f64 / stored as f64, "B");
    report.info("sidecar_bytes_per_record", dep.sidecar_bytes()? as f64 / stored as f64, "B");
    report.info("transactions_written", written as f64, "count");

    phase(&mut report, "quiesce");

    // --- Restart once more, on what the window left behind. --------
    for (t, &next) in next_txn.iter().enumerate() {
        // Whatever was written last is what a lost write would miss.
        for txn in (PRELOAD_TXNS..next).rev().take(24) {
            probes.push(ReadOp::Prefix(Key { tenant: t as u8, txn, slot: 0 }));
            probes.push(ReadOp::Trace(Key { tenant: t as u8, txn, slot: 1 }));
        }
    }
    let counts_before = tenant_counts(&snapshot, &data)?;
    let answers_before = probe_digests(&snapshot, &data, &probes)?;
    drop((snapshot, ryw));
    drop(dep);
    let (dep, snapshot, first, final_reopen_s) = reopen(&dir, &data, probes[0])?;
    report.check(first == answers_before[0], "first query after the final reopen");
    report.info("final_reopen_s", final_reopen_s, "s");
    report.info("wal_records_replayed", dep.pipe.replayed() as f64, "count");
    report.check(dep.pipe.len() == stored, "replayed + stored = acknowledged");
    report.check(tenant_counts(&snapshot, &data)? == counts_before, "tenant counts after reopen");
    let answers_after = probe_digests(&snapshot, &data, &probes)?;
    let differing = answers_after.iter().zip(&answers_before).filter(|(a, b)| a != b).count();
    report.attempted += probes.len() as u64;
    report.failed += differing as u64;
    drop(snapshot);
    drop(dep);
    phase(&mut report, "final_reopen");

    // Read before the oracle exists: the shadow is the harness's.
    report.info("peak_rss_mb", procfs::peak_rss_mib(), "MiB");

    // --- The oracle: every kept answer against the shadow MemStore. --
    let oracle = Oracle::build(&data, &next_txn)?;
    report.check(oracle.len() == stored, "shadow holds what the store holds");
    for (t, &count) in counts_before.iter().enumerate() {
        report.check(oracle.tenant_len(t as u8)? == count, "tenant count equals the shadow's");
    }
    samples.extend(
        probes
            .iter()
            .zip(&answers_before)
            .map(|(&op, &digest)| Sample { op: SampleOp::Read(op), digest }),
    );
    for sample in &samples {
        let ok = oracle.answer(sample.op)? == sample.digest;
        report.check(ok, &format!("{:?} equals the shadow's answer", sample.op));
    }
    report.info("answers_checked", samples.len() as f64, "count");
    drop(oracle);
    phase(&mut report, "oracle");

    if args.workload == Workload::Curate {
        crash::check(&scratch, args.seed, &mut report)?;
        phase(&mut report, "crash_check");
    }
    Ok(report)
}
