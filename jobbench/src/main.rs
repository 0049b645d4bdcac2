//! End-to-end estimation-job benchmark for the wire-cutting service.
//!
//! ```text
//! cargo run --release --offline --manifest-path jobbench/Cargo.toml -- \
//!     --workload <ladder_deep|fanin_wide|fleet_warm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One job is what a client submits to `CutService`: circuit +
//! observable + shots + seed in, `JobOutcome` out. A run sets the
//! workload up (several times, reporting the median), then a single
//! closed-loop client calls `run_job` for about 55% of `--seconds`
//! (at least 100 jobs), then the same jobs run again as a `run_jobs`
//! fleet at `nproc` threads. With `--trace 1` a separate traced pass
//! replays the jobs layer by layer (see `trace.rs`). Every job goes
//! through the correctness gate; the last line of stdout is one JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). `README.md` documents the workloads and the
//! layer-to-metric map.

mod measure;
mod stats;
mod trace;
mod workload;

use measure::{run_client, run_fleet, Client, Fleet};
use stats::{median, quantile};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{PlanProfile, Replayed, Tracer};
use workload::{Kind, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Share of `--seconds` the single client runs for.
const CLIENT_SHARE: f64 = 0.55;
/// Share of `--seconds` the traced replay runs for.
const TRACE_SHARE: f64 = 0.3;
/// Fewest jobs the traced replay covers, whatever the time.
const MIN_TRACED: usize = 12;
/// Most warm jobs the traced replay covers (keeps the span file small).
const MAX_TRACED_WARM: usize = 5000;
/// The layer sum must cover this share of the traced job wall.
const LAYER_SUM_TOLERANCE: f64 = 0.10;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported number.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Shown next to the value: sample count or provenance.
    note: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64, note: impl Into<String>) -> Metric {
    Metric {
        name,
        unit,
        value,
        note: note.into(),
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn end_to_end(client: &Client, fleet: &Fleet, setup_s: f64, rss_mb: f64) -> Vec<Metric> {
    let n = client.jobs();
    let mut lat = client.latency_ms.clone();
    let busy_s: f64 = client.latency_ms.iter().sum::<f64>() / 1e3;
    let jobs = format!("n = {n} jobs");
    vec![
        metric("job_p50_ms", "ms", quantile(&mut lat, 0.5), &*jobs),
        metric("job_p90_ms", "ms", quantile(&mut lat, 0.9), &*jobs),
        metric(
            "jobs_per_s",
            "1/s",
            n as f64 / busy_s,
            "single client, time inside run_job",
        ),
        metric(
            "fleet_jobs_per_s",
            "1/s",
            fleet.jobs as f64 / fleet.wall.as_secs_f64(),
            format!(
                "run_jobs at {} threads, n = {} jobs",
                fleet.threads, fleet.jobs
            ),
        ),
        metric("peak_rss_mb", "MB", rss_mb, "VmHWM"),
        metric(
            "setup_s",
            "s",
            setup_s,
            format!("median of {SETUP_REPS} set-ups"),
        ),
    ]
}

/// The traced pass and everything computed from it.
struct Traced {
    tracer: Tracer,
    replays: Vec<Replayed>,
    profiles: Vec<PlanProfile>,
    /// Standalone `CutPlanner::plan` times (warm workload only; cold
    /// jobs plan on the job path).
    plan_ms: Vec<f64>,
    /// Standalone warm lookups (cold workloads only; warm jobs look up
    /// on the job path).
    lookup_us: Option<f64>,
    wall: Duration,
}

fn run_traced(w: &Workload, client: &mut Client, budget: Duration) -> Traced {
    let mut tracer = Tracer::new();
    let mut replays = Vec::new();
    let mut profiles = Vec::new();
    let cap = if w.kind.cold() {
        client.jobs()
    } else {
        client.jobs().min(MAX_TRACED_WARM)
    };
    let start = Instant::now();
    let mut i = 0;
    while i < cap && (i < MIN_TRACED || start.elapsed() < budget) {
        let (job, _) = w.job(i);
        let (r, compiled) = trace::replay(w, &mut tracer, i, &job);
        let reference = client.reference_of(i);
        if reference.map(|r| (r.estimate, r.exact)) != Some((r.estimate, r.exact)) {
            client.fail(i, "traced replay is not bit-equal to run_job".into());
        }
        if let Some((cut, plan, compile_ms)) = compiled {
            profiles.push(trace::profile_plan(
                &mut tracer,
                i as u32,
                &cut,
                plan,
                &job.observable,
                compile_ms,
            ));
        }
        replays.push(r);
        i += 1;
    }
    let mut plan_ms = Vec::new();
    let mut lookup_us = None;
    if w.kind.cold() {
        // Cold jobs never look up a cached plan; time warm lookups of
        // three of their plans instead.
        let mut us: Vec<f64> = (0..3)
            .map(|k| trace::warm_lookup_us(w, &mut tracer, k as u32, &w.inputs[k]))
            .collect();
        lookup_us = Some(median(&mut us));
    } else {
        for (k, x) in w.inputs.iter().enumerate() {
            let (cut, plan, p_ms, c_ms) = trace::plan_and_compile(w, &mut tracer, k as u32, x);
            plan_ms.push(p_ms);
            profiles.push(trace::profile_plan(
                &mut tracer,
                k as u32,
                &cut,
                plan,
                &x.observable,
                c_ms,
            ));
        }
    }
    Traced {
        wall: start.elapsed(),
        tracer,
        replays,
        profiles,
        plan_ms,
        lookup_us,
    }
}

fn per_layer(
    w: &Workload,
    client: &Client,
    fleet: &Fleet,
    t: &Traced,
    findings: &mut Vec<String>,
) -> Vec<Metric> {
    let spans = &t.tracer.spans;
    // Children of each job's root span, summed by name.
    let mut sums: HashMap<u32, HashMap<&'static str, f64>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != trace::ROOT) {
        *sums.entry(s.parent).or_default().entry(s.name).or_default() += s.ms();
    }
    let per_job = |name: &str| -> Vec<f64> {
        t.replays
            .iter()
            .map(|r| {
                sums.get(&r.root)
                    .and_then(|m| m.get(name))
                    .copied()
                    .unwrap_or(0.0)
            })
            .collect()
    };
    let walls: Vec<f64> = t
        .replays
        .iter()
        .map(|r| spans[r.root as usize].ms())
        .collect();
    let layered: Vec<f64> = t
        .replays
        .iter()
        .map(|r| sums.get(&r.root).map_or(0.0, |m| m.values().sum()))
        .collect();
    let wall_total: f64 = walls.iter().sum();
    let gap_total = wall_total - layered.iter().sum::<f64>();
    let n = t.replays.len() as f64;
    let gap_share = gap_total / wall_total;
    if gap_share.abs() > LAYER_SUM_TOLERANCE {
        findings.push(format!(
            "layer calls cover {:.1}% of the traced job wall on {}, outside the {:.0}% rule",
            100.0 * (1.0 - gap_share),
            w.kind.name(),
            100.0 * LAYER_SUM_TOLERANCE
        ));
    }
    let untraced: f64 = t.replays.iter().map(|r| client.latency_ms[r.job]).sum();
    let med = |mut v: Vec<f64>| median(&mut v);
    let prof = |f: &dyn Fn(&PlanProfile) -> f64| med(t.profiles.iter().map(f).collect());
    let jobs_note = format!("median of {} traced jobs", t.replays.len());
    let plans_note = format!("median of {} plans", t.profiles.len());
    let on_path_plan = w.kind.cold();
    let plan_ms = if on_path_plan {
        med(per_job("planner.plan"))
    } else {
        med(t.plan_ms.clone())
    };
    let compile_note = if on_path_plan {
        jobs_note.clone()
    } else {
        format!("set-up compile, {plans_note}")
    };
    let terms_sampled: Vec<f64> = t.replays.iter().map(|r| r.terms_sampled as f64).collect();
    let busy_s: f64 = client.latency_ms.iter().sum::<f64>() / 1e3;
    let lookups = client.hits + client.misses;
    vec![
        metric(
            "planner.key_us",
            "us",
            med(per_job("planner.key")) * 1e3,
            &*jobs_note,
        ),
        metric("planner.plan_ms", "ms", plan_ms, &*compile_note),
        metric(
            "planner.compile_ms",
            "ms",
            prof(&|p| p.compile_ms),
            &*compile_note,
        ),
        metric(
            "planner.compile_self_ms",
            "ms",
            prof(&|p| p.compile_ms - p.build_ms - p.sweep_ms - p.product_ms),
            "compile - build - sweep - product",
        ),
        metric(
            "planner.term_bytes",
            "B",
            prof(&|p| p.term_bytes as f64),
            "computed: terms x (PlanTerm + TermSpec) + labels",
        ),
        metric(
            "planner.exact_ms",
            "ms",
            med(per_job("planner.exact")),
            &*jobs_note,
        ),
        metric(
            "contract.build_ms",
            "ms",
            prof(&|p| p.build_ms),
            &*plans_note,
        ),
        metric(
            "contract.variants",
            "count",
            prof(&|p| p.variants as f64),
            &*plans_note,
        ),
        metric(
            "contract.nnz",
            "count",
            prof(&|p| p.nnz as f64),
            &*plans_note,
        ),
        metric(
            "contract.block_bytes",
            "B",
            prof(&|p| 12.0 * p.nnz as f64),
            "computed: nnz x 12 B",
        ),
        metric(
            "contract.sweep_ms",
            "ms",
            prof(&|p| p.sweep_ms),
            &*plans_note,
        ),
        metric(
            "contract.frontier_ops",
            "count",
            prof(&|p| p.frontier_ops as f64),
            &*plans_note,
        ),
        metric(
            "contract.prefix_hit_ratio",
            "ratio",
            prof(&|p| p.prefix_hit_ratio),
            &*plans_note,
        ),
        metric(
            "qsim.clifford_fraction",
            "ratio",
            prof(&|p| p.clifford_fraction),
            &*plans_note,
        ),
        metric(
            "qsim.instructions",
            "count",
            prof(&|p| p.instructions as f64),
            &*plans_note,
        ),
        metric(
            "qpd.product_ms",
            "ms",
            prof(&|p| p.product_ms),
            &*plans_note,
        ),
        metric(
            "qpd.terms",
            "count",
            prof(&|p| p.terms as f64),
            &*plans_note,
        ),
        metric("qpd.alloc_ms", "ms", med(per_job("qpd.alloc")), &*jobs_note),
        metric(
            "qpd.sample_ms",
            "ms",
            med(per_job("qpd.sample")),
            &*jobs_note,
        ),
        metric(
            "qpd.terms_sampled",
            "count",
            med(terms_sampled),
            &*jobs_note,
        ),
        metric(
            "service.lookup_us",
            "us",
            t.lookup_us
                .unwrap_or_else(|| med(per_job("service.lookup")) * 1e3),
            "warm CutService::compiled",
        ),
        metric(
            "service.cache_hit_ratio",
            "ratio",
            client.hits as f64 / lookups.max(1) as f64,
            format!("{} of {lookups} lookups", client.hits),
        ),
        metric(
            "service.fleet_efficiency",
            "ratio",
            busy_s / (fleet.threads as f64 * fleet.wall.as_secs_f64()),
            format!("{} threads", fleet.threads),
        ),
        metric(
            "service.unattributed_ms",
            "ms",
            gap_total / n,
            format!("{:.2}% of traced job wall", 100.0 * gap_share),
        ),
        metric(
            "trace.overhead_ms",
            "ms",
            (wall_total - untraced) / n,
            format!(
                "traced minus untraced wall per job, {} jobs",
                t.replays.len()
            ),
        ),
        metric(
            "trace.jobs",
            "count",
            n,
            format!("traced pass {:.2} s", t.wall.as_secs_f64()),
        ),
    ]
}

fn write_trace(kind: Kind, seed: u64, tracer: &Tracer) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{seed}.tsv", kind.name()));
    std::fs::write(&path, tracer.to_tsv())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<26} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jobbench: {e}");
            eprintln!("usage: jobbench --workload <ladder_deep|fanin_wide|fleet_warm> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        drop(workload.take());
        let t = Instant::now();
        match Workload::setup(args.kind, args.seed) {
            Ok(w) => workload = Some(w),
            Err(e) => {
                eprintln!("jobbench: workload shape guard failed: {e}");
                return ExitCode::from(1);
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let w = workload.expect("set-up ran");
    let setup_s = median(&mut setup_s);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "jobbench workload={} seed={} seconds={} trace={} threads={threads}",
        args.kind.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let mut client = run_client(&w, Duration::from_secs_f64(CLIENT_SHARE * args.seconds));
    let fleet = run_fleet(&w, &mut client, threads);
    let rss_mb = peak_rss_mb();
    let mut findings = Vec::new();
    // Broken outputs beyond single jobs: they make the run incorrect.
    let mut errors = Vec::new();
    if !w.kind.cold() && client.misses > 0 {
        errors.push(format!(
            "{} compiles on the timed path of the warm workload",
            client.misses
        ));
    }
    let layers = if args.trace {
        let traced = run_traced(
            &w,
            &mut client,
            Duration::from_secs_f64(TRACE_SHARE * args.seconds),
        );
        if traced.profiles.iter().any(|p| !p.sweep_matches) {
            errors
                .push("the separate sweep did not reproduce the compiled term values".to_string());
        }
        match write_trace(args.kind, args.seed, &traced.tracer) {
            Ok(path) => println!("spans: {} written to {path}", traced.tracer.spans.len()),
            Err(e) => findings.push(e),
        }
        Some(per_layer(&w, &client, &fleet, &traced, &mut findings))
    } else {
        None
    };
    let e2e = end_to_end(&client, &fleet, setup_s, rss_mb);
    print_metrics("end-to-end (tracing off):", &e2e);
    let failed = client.failures.len();
    println!(
        "  {:<26} {:>16.6} {:<6} {failed} of {} jobs (JSON: failed / attempted)",
        "job_fail_ratio",
        failed as f64 / client.jobs() as f64,
        "ratio",
        client.jobs()
    );
    if let Some(layers) = &layers {
        print_metrics("per-layer (traced pass):", layers);
    }
    let reported = layers.as_deref().unwrap_or(&e2e);
    if let Some(m) = reported.iter().find(|m| !m.value.is_finite()) {
        errors.push(format!("{} is not finite", m.name));
    }
    for f in &findings {
        println!("FINDING: {f}");
    }
    for (i, why) in client.failures.iter().take(10) {
        println!("FAILED: job {i}: {why}");
    }
    for e in &errors {
        println!("ERROR: {e}");
    }
    let correct = failed == 0 && errors.is_empty();
    println!("{}", json(correct, client.jobs(), failed, reported));
    ExitCode::SUCCESS
}
