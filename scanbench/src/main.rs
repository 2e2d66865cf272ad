//! `scanbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! prints a report, then one JSON result line.

use dash_scanbench::run::{run, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| run(&args));
    match outcome {
        Ok(outcome) => {
            for line in &outcome.notes {
                println!("{line}");
            }
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("scanbench: {e}");
            ExitCode::from(2)
        }
    }
}
