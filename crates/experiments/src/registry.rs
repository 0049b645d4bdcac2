//! The experiment registry: one [`Entry`] per experiment, in the order
//! `run_all` runs them, and the command line shared by the two harness
//! binaries.
//!
//! ```sh
//! cargo run --release -p experiments --bin run_all -- [--quick] [--threads N]
//! cargo run --release -p experiments --bin experiment -- <id> [--quick] [--threads N]
//! ```
//!
//! `--quick` selects each entry's reduced-scale config and `--threads N`
//! pins the worker count of every sharded sweep (0 or absent = auto).
//! Every CSV lands under [`results_dir`]; `experiment` also
//! pretty-prints its tables. Any other argument is an error.

use crate::csvout::{results_dir, Table};
use crate::{
    allocation, distill_cut, fig6, joint_cut, joint_scaling, multicut, noise, overhead, plan_cut,
    service_load, tables, teleport_channel, werner, werner_sweep,
};
use std::path::Path;
use std::process::ExitCode;
use wirecut::planner::CutPlanner;
use wirecut::service::CutService;

/// One experiment of the harness.
#[derive(Debug)]
pub struct Entry {
    /// Command-line id (`experiment <id>`).
    pub id: &'static str,
    /// One-line description, printed as the entry runs.
    pub title: &'static str,
    /// The CSV files the entry writes, one per table `run` returns.
    pub files: &'static [&'static str],
    /// Builds the quick or full config once, sets its `threads`, runs it
    /// and returns one table per name in `files`, in that order.
    pub run: fn(quick: bool, threads: usize) -> Vec<Table>,
}

/// Every experiment, in `run_all` order.
pub const ENTRIES: &[Entry] = &[
    Entry {
        id: "overlap_table",
        title: "E3: Eq. 10 / Appendix A — f(Φk) closed form vs Schmidt vs distillation norm",
        files: &["overlap_formulas.csv"],
        run: |_, _| vec![tables::overlap_table(21)],
    },
    Entry {
        id: "bell_overlap_table",
        title: "E4: Eq. 55–58 — Bell-basis overlaps of Φk",
        files: &["bell_overlaps.csv"],
        run: |_, _| vec![tables::bell_overlap_table(21)],
    },
    Entry {
        id: "consumption_table",
        title: "E6: Section III — entangled pairs consumed per sample",
        files: &["pair_consumption.csv"],
        run: |_, _| vec![tables::consumption_table(21)],
    },
    Entry {
        id: "endpoints_table",
        title: "E7: Eq. 19–20 — every baseline cut's κ and channel-identity distance",
        files: &["endpoints.csv"],
        run: |_, _| {
            println!("cut ids: 0=peng 1=harada 2=nme(k=0) 3=nme(k=0.5) 4=nme(k=1) 5=teleport");
            vec![tables::endpoints_table()]
        },
    },
    Entry {
        id: "teleport_channel_table",
        title: "E5: Eq. 22 / Eq. 59 — teleportation channel tomography",
        files: &["teleport_channel.csv", "teleport_channel_werner.csv"],
        run: |_, _| {
            vec![
                teleport_channel::to_table(&teleport_channel::run(21)),
                teleport_channel::werner_channel_table(11),
            ]
        },
    },
    Entry {
        id: "fig6",
        title: "E1: Figure 6 — error vs shots at six entanglement levels",
        files: &["fig6_error_vs_shots.csv"],
        run: |quick, threads| {
            let mut config = fig6::Fig6Config {
                threads,
                ..Default::default()
            };
            if quick {
                config.num_states = 100;
            }
            let result = fig6::run(&config);
            println!(
                "ordering check (error decreases with entanglement at max shots): {}",
                result.final_errors_ordered_by_entanglement()
            );
            vec![result.to_table()]
        },
    },
    Entry {
        id: "overhead_table",
        title: "E2: Theorem 1 / Corollary 1 — γ theory vs construction vs measurement",
        files: &["overhead_vs_entanglement.csv"],
        run: |quick, threads| {
            let mut config = overhead::OverheadConfig {
                threads,
                ..Default::default()
            };
            if quick {
                config.repetitions = 40;
                config.num_states = 6;
            }
            vec![overhead::to_table(&overhead::run(&config))]
        },
    },
    Entry {
        id: "allocation_ablation",
        title: "E8: shot allocation — proportional vs uniform vs stochastic",
        files: &["allocation_ablation.csv"],
        run: |quick, threads| {
            let mut config = allocation::AllocationConfig {
                threads,
                ..Default::default()
            };
            if quick {
                config.num_states = 12;
                config.repetitions = 12;
            }
            vec![allocation::run(&config)]
        },
    },
    Entry {
        id: "multicut_table",
        title: "E9: multi-cut scaling — κ^w growth with the number of cut wires",
        files: &["multicut_scaling.csv"],
        run: |quick, threads| {
            let mut config = multicut::MultiCutConfig {
                threads,
                ..Default::default()
            };
            if quick {
                config.wire_counts = vec![1, 2];
                config.num_states = 4;
                config.repetitions = 6;
            }
            vec![multicut::run(&config)]
        },
    },
    Entry {
        id: "werner_table",
        title: "E10: Werner resources — FEF, Theorem 1 optimum, inversion overhead",
        files: &["werner_resources.csv"],
        run: |quick, threads| {
            let mut config = werner::WernerConfig {
                threads,
                ..Default::default()
            };
            if quick {
                config.num_states = 6;
                config.repetitions = 8;
            }
            vec![werner::run(&config)]
        },
    },
    Entry {
        id: "joint_cut_table",
        title: "E11: joint MUB cutting (κ = 2^(n+1)−1) vs per-wire product (κ = 3ⁿ)",
        files: &["joint_cut.csv"],
        run: |quick, threads| {
            let mut config = joint_cut::JointConfig {
                threads,
                ..Default::default()
            };
            if quick {
                config.num_states = 4;
                config.repetitions = 6;
            }
            vec![joint_cut::run(&config)]
        },
    },
    Entry {
        id: "noise_table",
        title: "E12: wire cutting under gate-level depolarising noise",
        files: &["noise_bias.csv"],
        run: |quick, threads| {
            let mut config = noise::NoiseConfig {
                threads,
                ..Default::default()
            };
            if quick {
                config.num_states = 4;
                config.repetitions = 6;
            }
            vec![noise::run(&config)]
        },
    },
    Entry {
        id: "joint_scaling",
        title: "E13: joint-vs-independent κ crossover, NME joint sweep, finite-shot check",
        files: &[
            "joint_scaling_crossover.csv",
            "joint_scaling_nme.csv",
            "joint_scaling_shots.csv",
        ],
        run: |quick, threads| {
            let mut config = joint_scaling::JointScalingConfig {
                threads,
                ..Default::default()
            };
            if quick {
                config.max_wires = 4;
                config.nme_max_wires = 2;
                config.shot_wires = vec![1, 2];
                config.shot_grid = vec![100, 1_000, 10_000];
                config.num_states = 3;
                config.repetitions = 6;
            }
            vec![
                joint_scaling::crossover_table(&config),
                joint_scaling::nme_sweep_table(&config),
                joint_scaling::shots_table(&config),
            ]
        },
    },
    Entry {
        id: "werner_sweep",
        title: "E15: Werner p-sweep — κ̂(p) with Wilson bands vs the Theorem 1 bound",
        files: &["werner_sweep.csv"],
        run: |quick, threads| {
            let mut config = werner_sweep::WernerSweepConfig {
                threads,
                ..Default::default()
            };
            if quick {
                config.p_steps = 11;
                config.num_states = 6;
                config.repetitions = 24;
            }
            vec![werner_sweep::run(&config)]
        },
    },
    Entry {
        id: "distill_cut",
        title: "E16: distill-then-cut (p, m) map and its argmin-m frontier",
        files: &["distill_cut.csv", "distill_cut_frontier.csv"],
        run: |quick, threads| {
            let mut config = distill_cut::DistillCutConfig {
                threads,
                ..Default::default()
            };
            if quick {
                config.p_steps = 9;
                config.max_rounds = 3;
                config.num_states = 5;
                config.repetitions = 16;
            }
            vec![distill_cut::run(&config), distill_cut::frontier(&config)]
        },
    },
    Entry {
        id: "plan_cut",
        title: "E17: arbitrary-circuit cut planner vs the uncut statevector",
        files: &["plan_cut.csv"],
        run: |quick, threads| {
            let mut config = plan_cut::PlanCutConfig {
                threads,
                ..Default::default()
            };
            if quick {
                config.overlaps = vec![0.52, 0.75, 1.0];
                config.num_circuits = 3;
                config.repetitions = 8;
            }
            vec![plan_cut::run(&config)]
        },
    },
    Entry {
        id: "service_load",
        title: "E18: cutting-as-a-service load — plan cache, sequential vs static allocation",
        files: &["service_load.csv"],
        run: |quick, threads| {
            let mut config = service_load::ServiceLoadConfig {
                threads,
                ..Default::default()
            };
            if quick {
                config.num_circuits = 2;
                config.repetitions = 8;
            }
            let table = service_load::run(&config);
            // Wall-clock throughput goes to stdout only, never the CSV.
            let service =
                CutService::new(CutPlanner::new(config.width_budget).with_overlap(config.overlap));
            let jobs = service_load::build_jobs(&config);
            let start = std::time::Instant::now();
            let outcomes = service.run_jobs(&jobs, config.threads);
            let elapsed = start.elapsed().as_secs_f64();
            let (hits, misses) = service.cache_stats();
            println!(
                "fleet: {} jobs in {elapsed:.3}s ({:.1} jobs/s), plan cache: {} plans, {hits} hits / {misses} misses",
                outcomes.len(),
                outcomes.len() as f64 / elapsed,
                service.cache_len(),
            );
            vec![table]
        },
    },
];

/// A parsed command line.
#[derive(Debug)]
pub(crate) struct Invocation {
    /// The entry named on the command line; `None` for `run_all`.
    pub entry: Option<&'static Entry>,
    /// `--quick`: run the reduced-scale configs.
    pub quick: bool,
    /// `--threads N` (0 or absent = auto).
    pub threads: usize,
}

/// Parses the arguments after the program name. With `with_id`
/// (`experiment`) exactly one entry id is required; without it
/// (`run_all`) none is allowed. Unknown ids, unknown or extra arguments
/// and a malformed `--threads` value are errors.
pub(crate) fn parse_args(args: &[String], with_id: bool) -> Result<Invocation, String> {
    let mut parsed = Invocation {
        entry: None,
        quick: false,
        threads: 0,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--threads" => {
                parsed.threads = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or("--threads expects a worker count (0 = auto)")?;
            }
            id if with_id && parsed.entry.is_none() && !id.starts_with('-') => {
                let entry = ENTRIES.iter().find(|e| e.id == id);
                parsed.entry = Some(entry.ok_or_else(|| format!("unknown experiment id `{id}`"))?);
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if with_id && parsed.entry.is_none() {
        return Err("missing experiment id".into());
    }
    Ok(parsed)
}

/// Runs `entry` as `invocation` asks and writes its CSVs into `dir`,
/// pretty-printing each table first when an id was named. A failed
/// write names its path.
fn run_entry(entry: &Entry, invocation: &Invocation, dir: &Path) -> Result<(), String> {
    println!("== {} ==", entry.title);
    let tables = (entry.run)(invocation.quick, invocation.threads);
    assert_eq!(
        tables.len(),
        entry.files.len(),
        "{}: one table per file",
        entry.id
    );
    for (file, table) in entry.files.iter().zip(&tables) {
        if invocation.entry.is_some() {
            println!("{file}:\n{}", table.to_pretty());
        }
        let path = dir.join(file);
        table
            .write_csv(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// The whole of both harness binaries: parses `std::env::args`, runs the
/// named entry (`with_id`, pretty-printed) or every entry, and writes
/// their CSVs. Bad arguments print a usage line listing the ids.
pub fn main(with_id: bool) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match parse_args(&args, with_id) {
        Ok(invocation) => invocation,
        Err(message) => {
            let ids: Vec<&str> = ENTRIES.iter().map(|e| e.id).collect();
            let program = if with_id {
                "experiment <id>"
            } else {
                "run_all"
            };
            eprintln!("error: {message}");
            eprintln!("usage: {program} [--quick] [--threads N]");
            eprintln!("ids: {}", ids.join(", "));
            return ExitCode::from(2);
        }
    };
    let dir = results_dir();
    let entries = match invocation.entry {
        Some(entry) => std::slice::from_ref(entry),
        None => ENTRIES,
    };
    for entry in entries {
        if let Err(message) = run_entry(entry, &invocation, &dir) {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    }
    println!("all results written to {}", dir.display());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn entry_ids_are_unique() {
        let ids: HashSet<&str> = ENTRIES.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), ENTRIES.len());
        assert_eq!(ENTRIES.len(), 17);
    }

    #[test]
    fn csv_files_are_unique_and_exactly_the_run_all_set() {
        let files: Vec<&str> = ENTRIES
            .iter()
            .flat_map(|e| e.files.iter().copied())
            .collect();
        let unique: HashSet<&str> = files.iter().copied().collect();
        assert_eq!(unique.len(), files.len(), "a CSV name is written twice");
        let expected: HashSet<&str> = [
            "overlap_formulas.csv",
            "bell_overlaps.csv",
            "pair_consumption.csv",
            "endpoints.csv",
            "teleport_channel.csv",
            "teleport_channel_werner.csv",
            "fig6_error_vs_shots.csv",
            "overhead_vs_entanglement.csv",
            "allocation_ablation.csv",
            "multicut_scaling.csv",
            "werner_resources.csv",
            "joint_cut.csv",
            "noise_bias.csv",
            "joint_scaling_crossover.csv",
            "joint_scaling_nme.csv",
            "joint_scaling_shots.csv",
            "werner_sweep.csv",
            "distill_cut.csv",
            "distill_cut_frontier.csv",
            "plan_cut.csv",
            "service_load.csv",
        ]
        .into_iter()
        .collect();
        assert_eq!(unique, expected);
    }

    #[test]
    fn closed_form_entries_return_one_table_per_file() {
        for id in [
            "overlap_table",
            "bell_overlap_table",
            "consumption_table",
            "teleport_channel_table",
        ] {
            let entry = ENTRIES.iter().find(|e| e.id == id).unwrap();
            assert_eq!((entry.run)(true, 1).len(), entry.files.len(), "{id}");
        }
    }

    #[test]
    fn parser_accepts_the_valid_forms() {
        let all = parse_args(&args(""), false).unwrap();
        assert!(all.entry.is_none() && !all.quick && all.threads == 0);
        let all = parse_args(&args("--quick --threads 2"), false).unwrap();
        assert!(all.quick && all.threads == 2);
        let all = parse_args(&args("--threads 0 --quick"), false).unwrap();
        assert!(all.quick && all.threads == 0);
        for entry in ENTRIES {
            let one = parse_args(&args(entry.id), true).unwrap();
            assert_eq!(one.entry.unwrap().id, entry.id);
            assert!(!one.quick && one.threads == 0);
        }
        let one = parse_args(&args("--threads 3 fig6 --quick"), true).unwrap();
        assert_eq!(one.entry.unwrap().id, "fig6");
        assert!(one.quick && one.threads == 3);
    }

    #[test]
    fn parser_rejects_every_bad_form() {
        for (line, with_id) in [
            ("fig7", true),
            ("", true),
            ("fig6 overhead_table", true),
            ("fig6", false),
            ("fig6 --quik", true),
            ("--quik", false),
            ("--threads=4", false),
            ("fig6 --threads=4", true),
            ("--threads", false),
            ("fig6 --threads four", true),
            ("--threads -1", false),
            ("--quick extra", false),
        ] {
            assert!(
                parse_args(&args(line), with_id).is_err(),
                "accepted `{line}` (with_id = {with_id})"
            );
        }
    }
}
