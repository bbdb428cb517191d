//! `haocl-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the wall-clock benchmark and prints, as its last
//! line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). Human-readable lines before it list every
//! metric, gated or not. Exits 1 when any op failed or an output was
//! wrong, 2 on bad arguments or a failed set-up.

use std::process::ExitCode;

use haocl_perfbench::fixture::{Tally, Workload};
use haocl_perfbench::layers::run_traced;
use haocl_perfbench::run_e2e;
use haocl_perfbench::stats::{result_line, Metric};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(bad("must be a positive number"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload =
        workload.ok_or_else(|| format!("--workload is required (one of {})", names.join(", ")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn report(tally: &Tally, error: Option<String>, shown: &[Metric], gated: &[Metric]) -> ExitCode {
    for m in shown {
        println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "ops {} attempted {} sheds {} errors {} wrong {} unexpected_sheds {} digest {:#018x}",
        tally.ops,
        tally.attempted(),
        tally.sheds,
        tally.errors,
        tally.wrong,
        tally.unexpected_sheds,
        tally.digest
    );
    if let Some(e) = &error {
        eprintln!("first error: {e}");
    }
    let correct = tally.failed() == 0 && tally.ops > 0;
    println!(
        "{}",
        result_line(correct, tally.attempted().max(1), tally.failed(), gated)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark outputs failed their checks");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: haocl-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        match run_traced(args.workload, args.seed, args.seconds) {
            Ok(t) => report(&t.tally, t.first_error, &t.metrics, &t.metrics),
            Err(e) => {
                eprintln!("traced run failed: {e}");
                ExitCode::from(2)
            }
        }
    } else {
        match run_e2e(args.workload, args.seed, args.seconds) {
            Ok(r) => report(&r.tally, r.first_error.clone(), &r.all(), &r.gated()),
            Err(e) => {
                eprintln!("run failed: {e}");
                ExitCode::from(2)
            }
        }
    }
}
