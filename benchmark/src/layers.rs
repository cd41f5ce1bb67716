//! The traced run (`--trace 1`): per-layer metrics, measured from
//! outside the program.
//!
//! One client replays a fixed number of operations from the seed, so
//! every count repeats exactly. Two mechanisms:
//!
//! 1. **Interposition** ([`crate::trace`]): the deployment is built
//!    with a `TracedStore` under the pipeline and a `TracedBackend`
//!    under the WAL. The plan runs in blocks, tracing off and on by
//!    turns, so the untraced half (CPU, the tracing-overhead base) and
//!    the traced half (spans) meet the same fsync weather.
//! 2. **Ladders** ([`crate::rungs`]): the same operations replayed one
//!    layer lower each time. A rung's self time is its mean per
//!    operation minus the next rung's, so a ladder's self times sum to
//!    its top rung by construction; the run checks each ladder is
//!    monotone within 5% of its top.

use crate::clients::{read_target, run_read, Class, CLASSES, SCAN_BATCH};
use crate::deploy::{Deployment, Error, Scratch, Tracing};
use crate::gen::{self, AuditOp, Dataset, ReadOp, Rng, HOT_TXNS, PRELOAD_TXNS, TNOW};
use crate::hist::Hist;
use crate::procfs::ProcSample;
use crate::report::Report;
use crate::rungs::{self, LadderOp};
use crate::trace::{self, Tracer};
use crate::{Args, Workload};
use cpdb::core::{ProvStore, QueryEngine};
use cpdb::serve::{Consistency, Session};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Every per-layer metric, with its unit: exactly `BENCHMARK.json`'s
/// `per_layer` list (a unit test holds the two together). A metric a
/// workload does not exercise reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("ladder.read.r0_us", "us"),
    ("ladder.write.w0_us", "us"),
    ("ladder.commit.c2_us", "us"),
    ("serve.read.self_us", "us"),
    ("serve.write.self_us", "us"),
    ("serve.read.p50_us", "us"),
    ("serve.read.p99_us", "us"),
    ("serve.write.p50_us", "us"),
    ("serve.write.p99_us", "us"),
    ("serve.read_ryw.p50_us", "us"),
    ("serve.scan_first_page.p50_us", "us"),
    ("serve.epoch_lag", "count"),
    ("snapshot.self_us", "us"),
    ("snapshot.filter_rows_dropped_per_read", "count"),
    ("query.self_us", "us"),
    ("query.probes_per_op", "count"),
    ("pipeline.enqueue_us", "us"),
    ("pipeline.commit_us", "us"),
    ("pipeline.checkpoint_us", "us"),
    ("pipeline.batch_records.mean", "count"),
    ("pipeline.flush_explicit_per_read", "count"),
    ("pipeline.flush_wait_us", "us"),
    ("shard.read.self_us", "us"),
    ("shard.write.self_us", "us"),
    ("shard.statements_per_op", "count"),
    ("shard.waves_per_op", "count"),
    ("executor.fanout_us", "us"),
    ("store.read.self_us", "us"),
    ("store.write.self_us", "us"),
    ("store.decode_ns_per_row", "ns"),
    ("store.checkpoint_pages_per_txn", "count"),
    ("cursor.pages_per_scan", "count"),
    ("cursor.peak_resident_rows", "count"),
    ("table.read.self_us", "us"),
    ("table.lookup_us", "us"),
    ("table.range_page_us", "us"),
    ("table.insert_us", "us"),
    ("table.flush_us", "us"),
    ("sidecar.bytes_per_record", "B"),
    ("reopen.final_us_per_record", "us"),
    ("buffer.read.self_us", "us"),
    ("buffer.fetch_hit_ns", "ns"),
    ("buffer.fetch_miss_ns", "ns"),
    ("buffer.hit_ratio", "ratio"),
    ("buffer.evictions_per_op", "count"),
    ("buffer.writebacks_per_txn", "count"),
    ("wal.self_us", "us"),
    ("wal.append_ns", "ns"),
    ("wal.sync_us", "us"),
    ("wal.syncs_per_txn", "count"),
    ("wal.drain_syncs_per_txn", "count"),
    ("wal.followers_share", "ratio"),
    ("wal.pages_per_txn", "count"),
    ("backend.read.self_us", "us"),
    ("backend.write.self_us", "us"),
    ("backend.read_page_ns", "ns"),
    ("backend.write_page_ns", "ns"),
    ("backend.sync_us", "us"),
    ("backend.read_pages_per_op", "count"),
    ("backend.write_bytes_per_record", "B"),
    ("tree.path_key_ns", "ns"),
    ("tree.path_parse_ns", "ns"),
    ("row.encode_ns", "ns"),
    ("row.decode_ns", "ns"),
    ("tracker.track_commit_us", "us"),
    ("proc.cpu_s_per_kop", "s"),
    ("proc.ctx_switches_per_op", "count"),
    ("proc.peak_rss_mb", "MiB"),
    ("trace.overhead_share", "ratio"),
];

/// The metrics of one traced run, by name.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "{name} is not a per-layer metric");
        self.0.insert(name, value);
    }
}

/// One step of the traced plan.
#[derive(Clone, Copy)]
enum PlanOp {
    Write(u8),
    Read(ReadOp),
    RywRead(ReadOp),
    Audit(AuditOp),
}

/// Operations per block of the plan: a whole number of `mixed`'s
/// write-and-ten-reads groups and of `ryw`'s write-read pairs; audits
/// are a thousand times slower, so their blocks are shorter.
fn block(workload: Workload) -> usize {
    if workload == Workload::Audit {
        20
    } else {
        220
    }
}

/// The fixed plan a workload's single traced client replays: even
/// blocks untraced, odd blocks traced.
fn plan(workload: Workload, seed: u64) -> Vec<PlanOp> {
    let mut rng = Rng::new(seed.wrapping_mul(31));
    let mut reads = |n: usize, txns: u32| -> Vec<PlanOp> {
        (0..n).map(|_| PlanOp::Read(gen::read_op(&mut rng, txns))).collect()
    };
    match workload {
        Workload::Curate => (0..7_920u32).map(|i| PlanOp::Write((i % 2) as u8)).collect(),
        Workload::QueryHot => reads(39_600, HOT_TXNS),
        Workload::QueryCold => reads(39_600, PRELOAD_TXNS),
        Workload::Audit => (0..400).map(|_| PlanOp::Audit(gen::audit_op(&mut rng))).collect(),
        // One client, so the two roles interleave: a write, ten reads.
        Workload::Mixed => reads(20_000, PRELOAD_TXNS)
            .chunks(10)
            .flat_map(|ten| std::iter::once(PlanOp::Write(0)).chain(ten.iter().copied()))
            .collect(),
        Workload::Ryw => (0..3_960)
            .flat_map(|_| {
                [PlanOp::Write(0), PlanOp::RywRead(crate::clients::ryw_read_op(&mut rng, 1))]
            })
            .collect(),
    }
}

/// What one half of the plan (its untraced or its traced blocks)
/// measured.
#[derive(Default)]
struct Pass {
    /// CPU, context switches and I/O of the process over the blocks.
    cpu_s: f64,
    ctx_switches: u64,
    rchar: u64,
    wchar: u64,
    hists: [Hist; CLASSES],
    /// Reads through a read-your-writes session, apart from `Read`.
    ryw_reads: Hist,
    writes: u64,
    reads: u64,
    scans: u64,
    records_written: u64,
}

struct Stage<'a> {
    data: &'a Dataset,
    tracer: &'a Tracer,
    snapshot: &'a [Session],
    ryw: &'a [Session],
    snapshot_engines: Vec<QueryEngine>,
    ryw_engines: Vec<QueryEngine>,
    /// Next transaction of each writing tenant; passes continue it.
    next_txn: [u32; 2],
}

impl Stage<'_> {
    /// Runs the plan through the sessions, one root span per call,
    /// tracing off on even blocks and on on odd ones. Returns the
    /// untraced and the traced half.
    fn run(&mut self, plan: &[PlanOp], block: usize) -> Result<[Pass; 2], Error> {
        let mut halves = [Pass::default(), Pass::default()];
        let mut block_start = ProcSample::now();
        let settle = |p: &mut Pass, from: &ProcSample, to: &ProcSample| {
            p.cpu_s += to.cpu_s - from.cpu_s;
            p.ctx_switches += to.ctx_switches.saturating_sub(from.ctx_switches);
            p.rchar += to.rchar - from.rchar;
            p.wchar += to.wchar - from.wchar;
        };
        for (i, op) in plan.iter().enumerate() {
            let traced = (i / block) % 2 == 1;
            if i % block == 0 {
                let now = ProcSample::now();
                if i > 0 {
                    settle(&mut halves[!traced as usize], &block_start, &now);
                }
                block_start = now;
                self.tracer.set_on(traced);
            }
            let p = &mut halves[traced as usize];
            trace::set_request(i as u64);
            match *op {
                PlanOp::Write(tenant) => {
                    let txn = &mut self.next_txn[tenant as usize];
                    let records = self.data.txn_records(tenant, *txn);
                    *txn += 1;
                    let t0 = Instant::now();
                    {
                        let _root = self.tracer.enter("serve.write");
                        self.ryw[tenant as usize].insert_batch(&records)?;
                    }
                    p.book(Class::Write, t0);
                    p.writes += 1;
                    p.records_written += records.len() as u64;
                }
                PlanOp::Read(read) | PlanOp::RywRead(read) => {
                    let ryw = matches!(op, PlanOp::RywRead(_));
                    let engines = if ryw { &self.ryw_engines } else { &self.snapshot_engines };
                    let target = read_target(self.data, read);
                    let t0 = Instant::now();
                    {
                        let _root =
                            self.tracer.enter(if ryw { "serve.read_ryw" } else { "serve.read" });
                        run_read(&engines[read.key().tenant as usize], read, &target)?;
                    }
                    if ryw {
                        p.ryw_reads.record(t0.elapsed().as_nanos() as u64);
                    } else {
                        p.book(Class::Read, t0);
                    }
                    p.reads += 1;
                }
                PlanOp::Audit(AuditOp::Scan { tenant, container }) => {
                    let prefix = self.data.container(tenant, container);
                    let t0 = Instant::now();
                    let _root = self.tracer.enter("serve.scan");
                    let mut cursor = self.snapshot[tenant as usize]
                        .reads()
                        .scan_loc_prefix(&prefix, SCAN_BATCH)?;
                    let mut first = true;
                    loop {
                        let page = {
                            let _page = self.tracer.enter("cursor.next_batch");
                            cursor.next_batch()?
                        };
                        if std::mem::take(&mut first) {
                            let ns = t0.elapsed().as_nanos() as u64;
                            p.hists[Class::ScanFirst as usize].record(ns);
                        }
                        if page.is_none() {
                            break;
                        }
                    }
                    p.book(Class::Scan, t0);
                    p.reads += 1;
                    p.scans += 1;
                }
                PlanOp::Audit(AuditOp::Mod { tenant, container }) => {
                    let nodes = self.data.container_nodes(tenant, container, PRELOAD_TXNS);
                    let t0 = Instant::now();
                    {
                        let _root = self.tracer.enter("serve.get_mod");
                        self.snapshot_engines[tenant as usize].get_mod(&nodes, TNOW)?;
                    }
                    p.book(Class::Mod, t0);
                    p.reads += 1;
                }
            }
        }
        self.tracer.set_on(false);
        let last_traced = ((plan.len() - 1) / block) % 2 == 1;
        settle(&mut halves[last_traced as usize], &block_start, &ProcSample::now());
        Ok(halves)
    }
}

impl Pass {
    /// Books a session call that began at `t0` and has just returned.
    fn book(&mut self, class: Class, t0: Instant) {
        self.hists[class as usize].record(t0.elapsed().as_nanos() as u64);
    }

    fn ops(&self) -> u64 {
        self.writes + self.reads
    }
}

/// Obs counters and store meters read before and after the plan; the
/// metrics are their deltas (tracing changes no count).
struct Counters {
    obs: cpdb::obs::StatsSnapshot,
    read_trips: u64,
    write_trips: u64,
    read_waves: u64,
    write_waves: u64,
    checkpoint_pages: u64,
    wal_writes: u64,
    wal_syncs: u64,
    wal_client_syncs: u64,
}

impl Counters {
    fn now(dep: &Deployment, tracing: &Tracing) -> Counters {
        let engines = (0..dep.sharded.shard_count()).map(|i| dep.sharded.shard_engine(i));
        Counters {
            obs: cpdb::obs::snapshot(),
            read_trips: dep.sharded.read_trips(),
            write_trips: dep.sharded.write_trips(),
            read_waves: dep.sharded.read_waves(),
            write_waves: dep.sharded.write_waves(),
            checkpoint_pages: engines.map(|e| e.meter().checkpoint_pages()).sum(),
            wal_writes: tracing.wal_counts.writes.load(Ordering::Relaxed),
            wal_syncs: tracing.wal_counts.syncs.load(Ordering::Relaxed),
            wal_client_syncs: tracing.wal_counts.client_syncs.load(Ordering::Relaxed),
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.obs.counter(name).unwrap_or(0)
    }
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

pub fn run(args: &Args) -> Result<Report, Error> {
    // The traced client is this thread: it is the benchmark's client.
    trace::mark_client_thread();
    let data = Dataset::new(args.seed);
    let scratch = Scratch::new(&format!("layers-{}", args.workload.name()))?;
    let mut report = Report::default();
    let mut layers = Layers(BTreeMap::new());
    let tracing = Tracing::new();
    let dep = Deployment::create(&scratch.path("deployment"), &data, Some(&tracing))?;
    dep.preload(&data)?;

    let plan = plan(args.workload, args.seed);
    let snapshot = dep.sessions(&data, Consistency::Snapshot)?;
    let ryw = dep.sessions(&data, Consistency::ReadYourWrites)?;
    let mut stage = Stage {
        data: &data,
        tracer: &tracing.tracer,
        snapshot: &snapshot,
        ryw: &ryw,
        snapshot_engines: snapshot.iter().map(Session::query_engine).collect(),
        ryw_engines: ryw.iter().map(Session::query_engine).collect(),
        next_txn: [PRELOAD_TXNS; 2],
    };

    // --- The plan, in blocks: tracing off, on, off, on, ... ----------
    cpdb::obs::global().reset();
    let before = Counters::now(&dep, &tracing);
    let [untraced, traced] = stage.run(&plan, block(args.workload))?;
    let lag = cpdb::obs::snapshot().gauge("serve.epoch_lag").unwrap_or(0);
    // Read before the flush below adds explicit flushes of its own.
    let flushes_by_reads = cpdb::obs::snapshot().counter("pipeline.flush.explicit").unwrap_or(0);
    dep.pipe.flush()?;
    let after = Counters::now(&dep, &tracing);
    let ops = plan.len() as u64;
    let (writes, reads) = (untraced.writes + traced.writes, untraced.reads + traced.reads);
    let scans = untraced.scans + traced.scans;
    report.attempted += ops;

    layers.set("serve.epoch_lag", lag as f64);
    let delta = |f: fn(&Counters) -> u64| (f(&after) - f(&before)) as f64;
    layers.set("shard.statements_per_op", per(delta(|c| c.read_trips + c.write_trips), ops));
    layers.set("shard.waves_per_op", per(delta(|c| c.read_waves + c.write_waves), ops));
    layers.set("store.checkpoint_pages_per_txn", per(delta(|c| c.checkpoint_pages), writes));
    layers.set("wal.pages_per_txn", per(delta(|c| c.wal_writes), writes));
    layers.set("wal.syncs_per_txn", per(delta(|c| c.wal_client_syncs), writes));
    layers.set("wal.drain_syncs_per_txn", per(delta(|c| c.wal_syncs - c.wal_client_syncs), writes));
    let (leaders, followers, rides) = (
        after.counter("wal.sync.leaders"),
        after.counter("wal.sync.followers"),
        after.counter("wal.sync.free_rides"),
    );
    layers.set("wal.followers_share", per((followers + rides) as f64, leaders + followers + rides));
    layers.set(
        "pipeline.batch_records.mean",
        after.obs.histogram("pipeline.batch_records").and_then(|h| h.mean()).unwrap_or(0.0),
    );
    layers.set("pipeline.flush_explicit_per_read", per(flushes_by_reads as f64, reads));
    layers.set("cursor.pages_per_scan", per(after.counter("cursor.pages_fetched") as f64, scans));
    layers.set(
        "cursor.peak_resident_rows",
        if scans == 0 {
            0.0
        } else {
            after.obs.gauge("cursor.peak_resident_rows").unwrap_or(0) as f64
        },
    );
    // Process counters come from the untraced blocks alone.
    layers.set("proc.cpu_s_per_kop", per(untraced.cpu_s * 1e3, untraced.ops()));
    layers.set("proc.ctx_switches_per_op", per(untraced.ctx_switches as f64, untraced.ops()));
    layers.set(
        "backend.read_pages_per_op",
        per(untraced.rchar as f64 / cpdb::storage::PAGE_SIZE as f64, untraced.ops()),
    );
    layers.set(
        "backend.write_bytes_per_record",
        per(untraced.wchar as f64, untraced.records_written),
    );

    // --- The traced half: spans, and what tracing cost. --------------
    let spans = tracing.tracer.take();
    // Typical call cost of each half: the classes' medians, weighted by
    // their counts (a mean would follow the odd slow fsync).
    let typical = |p: &Pass| -> f64 {
        let classes = p.hists.iter().chain(std::iter::once(&p.ryw_reads));
        classes.map(|h| h.count() as f64 * h.quantile(0.5)).sum::<f64>() / p.ops() as f64
    };
    layers.set("trace.overhead_share", 1.0 - typical(&untraced) / typical(&traced));
    let us = |h: &Hist, q: f64| h.quantile(q) / 1e3;
    let (w, r) = (&traced.hists[Class::Write as usize], &traced.hists[Class::Read as usize]);
    layers.set("serve.write.p50_us", us(w, 0.50));
    layers.set("serve.write.p99_us", us(w, 0.99));
    layers.set("serve.read.p50_us", us(r, 0.50));
    layers.set("serve.read.p99_us", us(r, 0.99));
    layers.set("serve.read_ryw.p50_us", us(&traced.ryw_reads, 0.50));
    layers.set("serve.scan_first_page.p50_us", us(&traced.hists[Class::ScanFirst as usize], 0.50));
    let by_name = trace::summarize(&spans);
    let total_us = |name: &str| by_name.get(name).map_or(0.0, |s| s.total_ns as f64 / 1e3);
    layers.set("pipeline.commit_us", per(total_us("pipeline.commit"), traced.writes));
    layers.set("pipeline.checkpoint_us", per(total_us("pipeline.checkpoint"), traced.writes));
    let probes: u64 =
        by_name.iter().filter(|(n, _)| n.starts_with("shard.")).map(|(_, s)| s.count).sum();
    layers.set("query.probes_per_op", per(probes as f64, traced.reads));
    // The interposed tree accounts for every root: self times sum to
    // the roots' total.
    let roots: u64 =
        spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end_ns - s.start_ns).sum();
    let selfs: u64 = by_name.values().map(|s| s.self_ns).sum();
    report.check(roots.abs_diff(selfs) <= roots / 1_000, "span self times sum to the root spans");
    for (name, stat) in &by_name {
        report.info(format!("span.{name}.count"), stat.count as f64, "count");
        report.info(
            format!("span.{name}.mean_us"),
            per(stat.total_ns as f64 / 1e3, stat.count),
            "us",
        );
        report.info(
            format!("span.{name}.self_mean_us"),
            per(stat.self_ns as f64 / 1e3, stat.count),
            "us",
        );
    }
    std::fs::write(
        format!("benchmark/out/trace-{}.json", args.workload.name()),
        trace::to_json(&spans),
    )?;
    drop(spans);

    // --- The ladders, on the quiesced deployment. --------------------
    dep.quiesce()?;
    layers.set("sidecar.bytes_per_record", dep.sidecar_bytes()? as f64 / dep.pipe.len() as f64);
    let read_ops: Vec<LadderOp> = plan
        .iter()
        .filter_map(|op| match *op {
            PlanOp::Read(r) | PlanOp::RywRead(r) => Some(LadderOp::read(&data, r)),
            PlanOp::Audit(a) => Some(LadderOp::audit(&data, a)),
            PlanOp::Write(_) => None,
        })
        .collect();
    if !read_ops.is_empty() {
        let r0 = rungs::read_ladder(&dep, &data, &snapshot, &read_ops, &mut layers, &mut report)?;
        // What a read-your-writes read pays beyond the same read at a
        // quiesced snapshot: the flush it forces, and its wait.
        if traced.ryw_reads.count() > 0 {
            layers.set("pipeline.flush_wait_us", traced.ryw_reads.mean() / 1e3 - r0);
        }
    }
    if writes > 0 {
        let (next, txns) = (stage.next_txn[0], writes as usize / 2);
        rungs::write_ladders(&dep, &data, &scratch, &ryw[0], next, txns, &mut layers, &mut report)?;
    }
    rungs::fanout(&dep, &mut layers)?;
    rungs::leaf_probes(&data, args.seed, &mut layers)?;

    // --- Reopen what the plan left behind. ----------------------------
    drop(stage);
    drop((snapshot, ryw));
    let dir = dep.dir.clone();
    let stored = dep.pipe.len();
    drop(dep);
    let t0 = Instant::now();
    let reopened = Deployment::open(&dir, &data)?;
    layers.set("reopen.final_us_per_record", t0.elapsed().as_secs_f64() * 1e6 / stored as f64);
    report.check(reopened.pipe.len() == stored, "the reopened store holds every record");
    drop(reopened);

    layers.set("proc.peak_rss_mb", crate::procfs::peak_rss_mib());
    for (name, unit) in LAYER_METRICS {
        report.metric(name, layers.0.get(name).copied().unwrap_or(0.0), unit);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names inside the `"<section>": [ ... ]` array of BENCHMARK.json.
    fn names(section: &str) -> Vec<String> {
        let spec = include_str!("../../BENCHMARK.json");
        let start = spec.find(&format!("\"{section}\"")).expect("section present");
        let body = &spec[start..start + spec[start..].find(']').expect("array closes")];
        body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_owned()).collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_program_prints() {
        let printed: Vec<String> = LAYER_METRICS.iter().map(|(n, _)| (*n).to_owned()).collect();
        assert_eq!(names("per_layer"), printed);
        assert_eq!(
            names("end_to_end"),
            [
                "setup_s",
                "ops_per_s",
                "records_per_s",
                "call_p50_us",
                "call_p90_us",
                "reopen_s",
                "bytes_per_record"
            ]
        );
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
    }

    #[test]
    fn plans_repeat_for_a_seed_and_hold_at_most_the_stated_operations() {
        for workload in Workload::ALL {
            let (a, b) = (plan(workload, 5), plan(workload, 5));
            assert_eq!(a.len(), b.len());
            assert!(a.len() <= 40_000);
            assert_eq!(a.len() % (2 * block(workload)), 0, "as many traced blocks as untraced");
        }
    }
}
