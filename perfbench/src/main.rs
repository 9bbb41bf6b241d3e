//! Command-line harness behind `run.py`. Every invocation is a fresh
//! process running one repetition of one workload, so no in-process cache
//! (the FEM α memo, SIMD detection, the telemetry registry) carries over
//! between repetitions.
//!
//! ```text
//! perfbench run    --workload W [--seed N] [--refs DIR] [--outcomes FILE]
//! perfbench trace  --workload W [--seed N] [--refs DIR] --baseline FILE
//!                  --baseline-outcomes FILE --spans FILE --scratch DIR
//! perfbench setup  --workload W [--seed N]
//! perfbench record --workload W [--seed N] [--refs DIR]
//! ```
//!
//! `run` and `trace` print a `{"provenance": …}` line, then one JSON
//! result line, on stdout; `setup` prints only the set-up time. Failures
//! are listed on stderr.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::flow;
use perfbench::reference::Check;
use perfbench::workload::{Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: perfbench <run|trace|setup|record> --workload <fig3-quick|mc-256|fleet-defense> \
                     [--seed N] [--refs DIR] [--outcomes FILE] [--baseline FILE] \
                     [--baseline-outcomes FILE] [--spans FILE] [--scratch DIR]";

fn report_failures(check: &Check) {
    for failure in check.failures.iter().take(20) {
        eprintln!("perfbench: {failure}");
    }
}

fn check_fields(check: &Check) -> String {
    format!(
        "\"attempted\": {}, \"failed\": {}, \"accuracy_err\": {}",
        check.attempted, check.failed, check.accuracy_err
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.windows(2)
            .find(|pair| pair[0] == name)
            .map(|pair| pair[1].clone())
    };
    let path = |name: &str| flag(name).map(PathBuf::from);
    let Some(workload) = flag("--workload").as_deref().and_then(Workload::parse) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let Ok(seed) = flag("--seed").map_or(Ok(DEFAULT_SEED), |s| s.parse::<u64>()) else {
        eprintln!("--seed must be a non-negative integer\n{USAGE}");
        return ExitCode::from(2);
    };
    let refs = path("--refs").unwrap_or_else(|| PathBuf::from("perfbench/references"));

    match args.first().map(String::as_str) {
        Some("run") => {
            let repetition = flow::untraced(workload, seed, &refs);
            report_failures(&repetition.check);
            if let Some(outcomes) = path("--outcomes") {
                if let Err(e) = flow::write_outcomes(&outcomes, &repetition.outcomes) {
                    eprintln!("perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
            let fields: Vec<String> = repetition
                .fields
                .iter()
                .map(|(name, value)| format!("\"{name}\": {value}"))
                .collect();
            println!(
                "{{\"provenance\": {}}}",
                perfbench::provenance(workload, seed)
            );
            println!(
                "{{{}, {}}}",
                check_fields(&repetition.check),
                fields.join(", ")
            );
            ExitCode::SUCCESS
        }
        Some("trace") => {
            let (Some(baseline), Some(outcomes), Some(spans), Some(scratch)) = (
                path("--baseline"),
                path("--baseline-outcomes"),
                path("--spans"),
                path("--scratch"),
            ) else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            let traced = flow::Baseline::read(&baseline, &outcomes).and_then(|baseline| {
                flow::traced(workload, seed, &refs, &baseline, &spans, &scratch)
            });
            match traced {
                Ok(traced) => {
                    report_failures(&traced.check);
                    println!(
                        "{{\"provenance\": {}}}",
                        perfbench::provenance(workload, seed)
                    );
                    println!(
                        "{{{}, \"metrics\": {}}}",
                        check_fields(&traced.check),
                        traced.metrics.to_json()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: traced run failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("setup") => match flow::setup_only(workload, seed) {
            Ok(setup) => {
                println!("{{\"setup_s\": {}}}", setup.as_secs_f64());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                ExitCode::FAILURE
            }
        },
        Some("record") => match flow::record(workload, seed, &refs) {
            Ok(written) => {
                eprintln!("perfbench: recorded {}", written.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: recording failed: {e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
