//! `ddbench`: one election benchmark for D-DEMOS.
//!
//! ```text
//! ddbench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--record <set.jsonl>]
//! ddbench --compare <set-a.jsonl> <set-b.jsonl> [--benchmark <BENCHMARK.json>]
//! ```
//!
//! A run drives one complete election (set-up → fresh casts → re-casts →
//! close → tally → audit), prints every metric by name with its unit,
//! and ends with the one-line JSON result the driver reads. The exit
//! code is non-zero unless every output was correct.

use ddbench::{compare, e2e, env, report::RunOutput, traced, workload};
use std::process::ExitCode;

const USAGE: &str = "usage: ddbench --workload <lan_fresh|wal_fresh|tcp_fresh|wide_tally> \
--seed <u64> --seconds <1..60> --trace <0|1> [--record <set.jsonl>]\n       \
ddbench --compare <set-a.jsonl> <set-b.jsonl> [--benchmark <BENCHMARK.json>]";

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: Option<String>,
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut record = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    workload::Workload::by_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--record" => record = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        record,
    })
}

fn run(args: &Args) -> ExitCode {
    let measured = args.workload.ballots(args.seconds, args.trace);
    println!(
        "ddbench workload={} seed={} seconds={} trace={} ballots={measured}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in env::describe() {
        println!("env {line}");
    }
    let (mut out, declared): (RunOutput, _) = if args.trace {
        (
            traced::run(&args.workload, args.seed, measured),
            workload::PER_LAYER,
        )
    } else {
        (
            e2e::run(&args.workload, args.seed, measured),
            workload::END_TO_END,
        )
    };
    out.check_declared(declared);
    print!("{}", out.table(declared));
    if let Some(path) = &args.record {
        if let Err(e) = compare::record(
            path,
            args.workload.name,
            args.seed,
            args.trace,
            &out,
            declared,
        ) {
            eprintln!("ddbench: cannot record to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", out.result_line(declared));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        return match compare::main(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("ddbench: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    match parse_run(&args) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("ddbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
