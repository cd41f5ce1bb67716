//! Process counters from `/proc`, read from outside the program.

use std::fs;

fn field_kib(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// `VmHWM`: the process's peak resident set, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    field_kib(&status, "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// A point-in-time reading of the counters the traced run reports
/// deltas of.
#[derive(Clone, Copy, Default, Debug)]
pub struct ProcSample {
    /// User + system CPU seconds of the whole process.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches over all live threads.
    pub ctx_switches: u64,
    /// Bytes passed to read-like / write-like system calls.
    pub rchar: u64,
    pub wchar: u64,
}

impl ProcSample {
    pub fn now() -> ProcSample {
        let mut s = ProcSample::default();
        if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name; utime and
            // stime are the 14th and 15th of the line, in clock ticks
            // (100 per second on Linux).
            if let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) {
                let f: Vec<&str> = rest.split_whitespace().collect();
                let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
                s.cpu_s = (ticks(11) + ticks(12)) as f64 / 100.0;
            }
        }
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let status = fs::read_to_string(task.path().join("status")).unwrap_or_default();
                for key in ["voluntary_ctxt_switches:", "nonvoluntary_ctxt_switches:"] {
                    s.ctx_switches += status
                        .lines()
                        .find(|l| l.starts_with(key))
                        .and_then(|l| l[key.len()..].trim().parse::<u64>().ok())
                        .unwrap_or(0);
                }
            }
        }
        if let Ok(io) = fs::read_to_string("/proc/self/io") {
            let get = |key: &str| {
                io.lines()
                    .find(|l| l.starts_with(key))
                    .and_then(|l| l[key.len()..].trim().parse::<u64>().ok())
                    .unwrap_or(0)
            };
            s.rchar = get("rchar:");
            s.wchar = get("wchar:");
        }
        s
    }
}
