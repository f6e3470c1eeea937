//! `vaultbench`: the serving benchmark of the GNNVault reproduction.
//!
//! ```text
//! vaultbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! One run sets the fixture up, loads one workload for `--seconds`,
//! checks every served label against sequential `Vault::infer`, and
//! prints its metrics by name with their units; the last line of
//! standard output is the JSON result `BENCHMARK.json` describes.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics and writes `benchmark/out/<workload>.trace.jsonl`. See
//! `benchmark/README.md`.

mod fixture;
mod load;
mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod traffic;
mod workload;

use run::Options;
use std::process::ExitCode;
use workload::Workload;

const USAGE: &str =
    "usage: vaultbench --workload <cold_single|cold_batch64|hot_zipf|open_mixed|deploy_churn> \
     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]";
/// `--quick`: the same code paths in a 2 s window after one set-up.
const QUICK_SECONDS: f64 = 2.0;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::ColdSingle,
        seed: 1,
        seconds: 8.0,
        trace: false,
        setups: run::SETUPS,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            opts.seconds = QUICK_SECONDS;
            opts.setups = 1;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds >= 1.0 && opts.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(problem) => {
            eprintln!("vaultbench: {problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run::run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        // The result line is printed; a wrong label or a void run
        // still fails the command.
        Ok(false) => ExitCode::FAILURE,
        Err(problem) => {
            eprintln!("vaultbench: {problem}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let opts = parse(&args("--workload hot_zipf --seed 7 --seconds 8 --trace 1")).unwrap();
        assert_eq!(opts.workload, Workload::HotZipf);
        assert_eq!((opts.seed, opts.seconds, opts.trace), (7, 8.0, true));
        assert_eq!(opts.setups, run::SETUPS);
        let quick = parse(&args("--workload cold_single --quick")).unwrap();
        assert_eq!((quick.seconds, quick.setups, quick.trace), (2.0, 1, false));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for line in [
            "",
            "--workload nope",
            "--workload hot_zipf --trace yes",
            "--workload hot_zipf --seconds 0",
            "--workload hot_zipf --seed",
            "--workload hot_zipf --bogus 1",
        ] {
            assert!(parse(&args(line)).is_err(), "{line:?} parsed");
        }
    }
}
