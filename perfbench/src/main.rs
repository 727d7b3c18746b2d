//! Command line of the simulator benchmark.
//!
//! ```text
//! perfbench setup --workload <name>
//! perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! `setup` builds one device from every factory of the workload and
//! prints the seconds that took from process start. `run` prints progress
//! lines, then one JSON object as its last line: `correct`, `attempted`,
//! `failed` and the metrics with their units (end-to-end ones for
//! `--trace 0`, per-layer ones for `--trace 1`).

use perfbench::run::{self, Options};
use perfbench::workloads::Grid;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn value<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {flag}"))
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<T, String> {
    let v = value(args, flag)?;
    v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'"))
}

fn main_inner(process_start: Instant) -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = value(&args, "--workload")?.to_string();
    match args.first().map(String::as_str) {
        Some("setup") => {
            let grid =
                Grid::named(&workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
            println!("{:?}", run::setup(&grid, process_start)?.seconds);
            Ok(())
        }
        Some("run") => {
            let trace: u8 = parsed(&args, "--trace")?;
            if trace > 1 {
                return Err("--trace takes 0 or 1".into());
            }
            let opts = Options {
                workload,
                seed: parsed(&args, "--seed")?,
                seconds: parsed(&args, "--seconds")?,
                trace: trace == 1,
                out: PathBuf::from(value(&args, "--out")?),
            };
            let outcome = run::run(&opts, process_start)?;
            // One compact line: the report emitter pretty-prints.
            let metrics: Vec<String> = outcome
                .metrics
                .iter()
                .map(|(d, v)| {
                    format!(
                        "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                        d.name, v, d.unit
                    )
                })
                .collect();
            let result = format!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                outcome.failed == 0,
                outcome.attempted,
                outcome.failed,
                metrics.join(", ")
            );
            println!("{result}");
            Ok(())
        }
        _ => Err("usage: perfbench setup|run --workload <name> ...".into()),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match main_inner(process_start) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
