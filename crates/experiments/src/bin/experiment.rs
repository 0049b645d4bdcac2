//! Runs one experiment of the registry, pretty-prints its tables and
//! writes its CSVs under `results/`. Usage:
//! `experiment <id> [--quick] [--threads N]`.

fn main() -> std::process::ExitCode {
    experiments::registry::main(true)
}
