//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]`
//!
//! Runs one workload and prints, as its last stdout line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.
//! `perfbench --write-goldens <name|all>` regenerates the golden outputs.

use std::process::ExitCode;

use perfbench::{gen, Opts, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <study-df|study-pulse|campaign-gen|serve-repeat> \
         [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
         perfbench --write-goldens <workload|all>"
    );
    ExitCode::from(2)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(which) = flag(&args, "--write-goldens") {
        let targets: Vec<Workload> = match which {
            "all" => Workload::ALL.to_vec(),
            w => match Workload::parse(w) {
                Some(w) => vec![w],
                None => return usage(&format!("unknown workload `{w}`")),
            },
        };
        for w in targets {
            match perfbench::write_goldens(w) {
                Ok(n) => println!("{}: {n} golden entries written", w.name()),
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    let Some(workload) = flag(&args, "--workload").and_then(Workload::parse) else {
        return usage("missing or unknown --workload");
    };
    let seed = match flag(&args, "--seed").map(str::parse::<u64>) {
        None => gen::DEFAULT_SEED,
        Some(Ok(s)) => s,
        Some(Err(_)) => return usage("--seed is not an integer"),
    };
    let seconds = match flag(&args, "--seconds").map(str::parse::<f64>) {
        None => 10.0,
        Some(Ok(s)) if s > 0.0 && s.is_finite() => s,
        Some(_) => return usage("--seconds is not a positive number"),
    };
    let trace = match flag(&args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage("--trace takes 0 or 1"),
    };
    let opts = Opts {
        workload,
        seed,
        seconds,
        trace,
        smoke: args.iter().any(|a| a == "--smoke"),
    };
    let report = perfbench::run(&opts);
    for note in &report.notes {
        println!("{note}");
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
