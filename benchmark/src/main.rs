//! The repo's benchmark: drives the serving deployment through
//! `Session` only, on real files, with no simulated latency. See
//! `benchmark/README.md`.
//!
//! ```text
//! cpdb-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//! cpdb-benchmark --crash-check [--seed N]
//! ```
//!
//! Run from the root of the checkout (scratch and output files go to
//! `benchmark/out/`). Prints every metric by name with its unit, writes
//! `benchmark/out/<workload>.json`, ends with the one-line JSON result,
//! and exits non-zero when any correctness check failed.

mod clients;
mod crash;
mod deploy;
mod gen;
mod hist;
mod layers;
mod measure;
mod oracle;
mod procfs;
mod report;
mod rungs;
mod trace;

use deploy::Error;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    Curate,
    QueryHot,
    QueryCold,
    Audit,
    Mixed,
    Ryw,
}

impl Workload {
    const ALL: [Workload; 6] = [
        Workload::Curate,
        Workload::QueryHot,
        Workload::QueryCold,
        Workload::Audit,
        Workload::Mixed,
        Workload::Ryw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Curate => "curate",
            Workload::QueryHot => "query_hot",
            Workload::QueryCold => "query_cold",
            Workload::Audit => "audit",
            Workload::Mixed => "mixed",
            Workload::Ryw => "ryw",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

enum Command {
    Run(Args),
    CrashCheck { seed: u64 },
    CrashChild { dir: PathBuf, seed: u64 },
}

fn parse(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 10, false);
    let (mut crash_check, mut crash_child) = (false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    *Workload::ALL
                        .iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" | "--secs" => {
                seconds = value()?.parse().map_err(|e| format!("{flag}: {e}"))?;
                if seconds == 0 {
                    return Err(format!("{flag} must be at least 1"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--crash-check" => crash_check = true,
            "--crash-child" => crash_child = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(dir) = crash_child {
        return Ok(Command::CrashChild { dir, seed });
    }
    if crash_check {
        return Ok(Command::CrashCheck { seed });
    }
    let workload = workload
        .ok_or("--workload is required (curate, query_hot, query_cold, audit, mixed, ryw)")?;
    Ok(Command::Run(Args { workload, seed, seconds, trace }))
}

fn run(command: Command) -> Result<bool, Error> {
    let (report, label, args) = match command {
        Command::CrashChild { dir, seed } => {
            crash::child(&dir, seed)?;
            return Ok(true);
        }
        Command::CrashCheck { seed } => {
            let scratch = deploy::Scratch::new("crash-check")?;
            let mut report = report::Report::default();
            crash::check(&scratch, seed, &mut report)?;
            (report, "crash-check".to_owned(), None)
        }
        Command::Run(args) => {
            let report = if args.trace { layers::run(&args)? } else { measure::run(&args)? };
            let label = if args.trace {
                format!("layers-{}", args.workload.name())
            } else {
                args.workload.name().to_owned()
            };
            (report, label, Some(args))
        }
    };
    print!("{}", report.to_text());
    if let Some(args) = args {
        std::fs::create_dir_all("benchmark/out")?;
        std::fs::write(
            format!("benchmark/out/{label}.json"),
            report.file_json(args.workload.name(), args.seed, args.seconds, args.trace),
        )?;
    }
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&argv) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("cpdb-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    match run(command) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("cpdb-benchmark: correctness checks failed");
            ExitCode::FAILURE
        }
        Err(error) => {
            eprintln!("cpdb-benchmark: {error}");
            ExitCode::FAILURE
        }
    }
}
