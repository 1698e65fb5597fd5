//! Command-line entry point:
//!
//! ```text
//! rocksbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the stamp and every metric with its unit, then, as the last line
//! of standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. The stamped result (and, traced, the span dump) is also
//! written under `.bench_out/` in the working directory.

use rocksbench::report::{self, Stamp};
use rocksbench::workloads::Workload;
use rocksbench::{host_cores, RunConfig};
use std::process::ExitCode;

const USAGE: &str =
    "usage: rocksbench --workload <ks_storm|integrate|rolling_reinstall|federated_wave> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(Workload, RunConfig), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}

fn write_outputs(stamp: &Stamp, outcome: &rocksbench::Outcome) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let base =
        format!("{}-seed{}-trace{}", stamp.workload, stamp.run.seed, u8::from(stamp.run.trace));
    std::fs::write(dir.join(format!("{base}.json")), report::result_file(stamp, outcome))?;
    if let Some(tsv) = &outcome.spans_tsv {
        std::fs::write(dir.join(format!("{base}.spans.tsv")), tsv)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("rocksbench: refusing to report from a debug build; build with --release");
        return ExitCode::from(2);
    }
    let (workload, run) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("rocksbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = workload.run(&run);
    report::sanitize(&mut outcome);
    let stamp = Stamp {
        workload: workload.name(),
        cores: host_cores(),
        threads: outcome.threads,
        profile: "release",
        run,
    };
    if let Err(e) = write_outputs(&stamp, &outcome) {
        eprintln!("rocksbench: could not write .bench_out: {e}");
    }
    println!("{}", report::stamp_line(&stamp, &outcome));
    print!("{}", report::table(&outcome));
    println!("{}", report::result_line(&outcome));
    ExitCode::SUCCESS
}
