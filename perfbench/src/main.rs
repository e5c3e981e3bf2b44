//! `perfbench --workload <replay|fleet|outage|chaos> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints its metrics as the last line of standard
//! output. Notes and failed checks go to standard error.

use std::process::ExitCode;

use nfv_perfbench::{run, silence_injected_panics, Options};

fn main() -> ExitCode {
    let options = match Options::parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}\n{}", Options::USAGE);
            return ExitCode::from(2);
        }
    };
    silence_injected_panics();
    match run(&options) {
        Ok(result) => {
            println!("{}", result.to_json());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}
