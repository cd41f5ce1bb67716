//! The crash check: a child process curates, printing every
//! transaction it was acknowledged; the parent `SIGKILL`s it mid-window,
//! reopens its directory and requires every acknowledged transaction
//! present whole and none duplicated, through a snapshot reader.
//!
//! A kill leaves the operating system's cache intact, so this tests
//! the order of acknowledgement and visibility (a record is in the WAL
//! before it is acknowledged, and replay restores it exactly once) —
//! not what survives a power cut.

use crate::deploy::{Deployment, Error, Scratch};
use crate::gen::Dataset;
use crate::measure::same_records;
use crate::report::Report;
use cpdb::serve::Consistency;
use std::io::{BufRead, BufReader, Write};
use std::path::Path as FsPath;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tenants the child's two curators write.
const WRITERS: [u8; 2] = [0, 1];
/// Acknowledgements to see before the kill.
const ACKS_BEFORE_KILL: u64 = 4_000;

/// The child: an empty deployment in `dir`, two closed-loop curators,
/// one `ack <tenant> <txn>` line per acknowledged transaction, forever.
pub fn child(dir: &FsPath, seed: u64) -> Result<(), Error> {
    let data = Dataset::new(seed);
    let dep = Deployment::create(dir, &data, None)?;
    let sessions = dep.sessions(&data, Consistency::ReadYourWrites)?;
    std::thread::scope(|s| {
        for tenant in WRITERS {
            let (data, session) = (&data, &sessions[tenant as usize]);
            s.spawn(move || {
                for txn in 0.. {
                    if session.insert_batch(&data.txn_records(tenant, txn)).is_err() {
                        return;
                    }
                    let mut out = std::io::stdout().lock();
                    if writeln!(out, "ack {tenant} {txn}").and_then(|()| out.flush()).is_err() {
                        return;
                    }
                }
            });
        }
    });
    Ok(())
}

/// Runs the child, kills it, reopens, checks. Failures count in
/// `report`.
pub fn check(scratch: &Scratch, seed: u64, report: &mut Report) -> Result<(), Error> {
    let dir = scratch.path("crash");
    std::fs::create_dir_all(&dir)?;
    let mut child = Command::new(std::env::current_exe()?)
        .arg("--crash-child")
        .arg(&dir)
        .args(["--seed", &seed.to_string()])
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = child.stdout.take().expect("child stdout is piped");
    let seen = Arc::new(AtomicU64::new(0));
    let reader = {
        let seen = seen.clone();
        std::thread::spawn(move || {
            let mut acked = [0u32; 2];
            let mut lines = BufReader::new(stdout);
            let mut line = String::new();
            // A line cut short by the kill has no newline and is not
            // an acknowledgement the parent saw whole.
            while lines.read_line(&mut line).is_ok_and(|n| n > 0) && line.ends_with('\n') {
                let mut words = line.split_whitespace().skip(1).map(str::parse::<u32>);
                if let (Some(Ok(tenant)), Some(Ok(txn))) = (words.next(), words.next()) {
                    acked[tenant as usize] = txn + 1;
                    seen.fetch_add(1, Ordering::SeqCst);
                }
                line.clear();
            }
            acked
        })
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while seen.load(Ordering::SeqCst) < ACKS_BEFORE_KILL && Instant::now() < deadline {
        if child.try_wait()?.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill()?;
    child.wait()?;
    let acked = reader.join().expect("ack reader panicked");
    report
        .check(acked.iter().all(|&n| n > 0), "the crash child acknowledged writes before the kill");

    let data = Dataset::new(seed);
    let dep = Deployment::open(&dir, &data)?;
    dep.quiesce()?;
    let sessions = dep.sessions(&data, Consistency::Snapshot)?;
    let mut unacked_partial = 0;
    for tenant in WRITERS {
        let reads = sessions[tenant as usize].reads();
        let next = acked[tenant as usize];
        for txn in 0..next {
            let stored = reads.by_loc_prefix(&data.subtree(tenant, txn))?;
            let whole = same_records(stored, data.txn_records(tenant, txn));
            report.check(whole, &format!("acknowledged t{tenant} txn {txn} is whole, once"));
        }
        // Transactions in flight at the kill were never acknowledged:
        // they may be absent or whole. A strict prefix is reported, not
        // failed — the WAL carries no transaction boundary, which
        // `DurabilityMode`'s contract (an append failure leaves a
        // call's earlier records accepted) already allows.
        for txn in next..next + 4 {
            let stored = reads.by_loc_prefix(&data.subtree(tenant, txn))?.len();
            unacked_partial += (stored != 0 && stored != crate::gen::TXN_RECORDS) as u64;
        }
    }
    report.info("crash.acked_transactions", acked.iter().sum::<u32>() as f64, "count");
    report.info("crash.wal_records_replayed", dep.pipe.replayed() as f64, "count");
    report.info("crash.unacked_partial_transactions", unacked_partial as f64, "count");
    Ok(())
}
