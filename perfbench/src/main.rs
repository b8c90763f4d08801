//! Command line of the host-time benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <v1_forward|mixed_stream> \
//!     [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Prints a metadata line (`perfbench meta {...}`: seed, git revision,
//! nproc, threads, rustc) and, as the last line of standard output, the
//! JSON result. `--trace 1` also writes the spans as Chrome trace-event
//! JSON to `perfbench/out/`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use edea_perfbench::trace::Tracer;
use edea_perfbench::{meta, probes, Size, Workload, DEFAULT_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        names.join("|")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                };
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn trace_path(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{seed}.json", workload.name()))
}

fn run(args: &Args) -> edea_perfbench::Result<String> {
    let size = Size::full();
    let (outcome, meta) = if args.trace {
        let tracer = Arc::new(Tracer::new());
        let outcome = probes::traced(args.workload, &size, args.seed, &tracer)?;
        let meta = meta::json(
            args.workload.name(),
            args.seed,
            args.seconds,
            true,
            outcome.threads,
        );
        let path = trace_path(args.workload, args.seed);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&path, tracer.chrome_trace(&meta))?;
        eprintln!("perfbench: wrote {}", path.display());
        (outcome, meta)
    } else {
        let outcome = edea_perfbench::run(args.workload, &size, args.seed, args.seconds as f64)?;
        let meta = meta::json(
            args.workload.name(),
            args.seed,
            args.seconds,
            false,
            outcome.threads,
        );
        (outcome, meta)
    };
    println!("perfbench meta {meta}");
    outcome.to_json()
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
