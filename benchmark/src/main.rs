//! `dgr-benchmark`: see `dgr_benchmark::cli`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dgr_benchmark::cli::main(&args)
}
