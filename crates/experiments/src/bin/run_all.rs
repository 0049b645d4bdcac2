//! Runs every experiment of the registry in order and writes all CSVs
//! under `results/` — the one-command regeneration of the paper's
//! evaluation. Usage: `run_all [--quick] [--threads N]`.

fn main() -> std::process::ExitCode {
    experiments::registry::main(false)
}
