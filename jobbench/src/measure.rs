//! The untraced passes: a single closed-loop client calling
//! `CutService::run_job`, then the same jobs as a `run_jobs` fleet at
//! `nproc` threads. Both feed the correctness gate.

use crate::workload::Workload;
use qsample::KeyHasher;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use wirecut::planner::PlanBackend;
use wirecut::service::{EstimationJob, JobOutcome};

/// A percentile needs ten samples beyond it: p90 needs 100 jobs.
pub const MIN_JOBS: usize = 100;

/// The first outcome of a distinct job, which every later run of it —
/// a repeat, the fleet, the traced replay — must reproduce.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// Hash of every deterministic outcome field.
    pub fingerprint: u64,
    pub estimate: u64,
    pub exact: u64,
}

/// What the single client saw, plus the gate's verdicts.
pub struct Client {
    /// `run_job` latency per job run, in ms.
    pub latency_ms: Vec<f64>,
    /// Per distinct job: its first outcome (`None` if it panicked or
    /// never ran).
    pub reference: Vec<Option<Reference>>,
    /// First failure reason per failed job run.
    pub failures: BTreeMap<usize, String>,
    /// Cache (hits, misses) during the pass.
    pub hits: u64,
    pub misses: u64,
}

impl Client {
    pub fn jobs(&self) -> usize {
        self.latency_ms.len()
    }

    pub fn fail(&mut self, i: usize, why: String) {
        self.failures.entry(i).or_insert(why);
    }

    /// The reference job run `i` must reproduce.
    pub fn reference_of(&self, i: usize) -> Option<Reference> {
        self.reference[i % self.reference.len()]
    }
}

/// Fleet throughput over the client's jobs.
pub struct Fleet {
    pub threads: usize,
    /// Summed wall time of the `run_jobs` calls.
    pub wall: Duration,
    pub jobs: usize,
}

/// Hash of every deterministic `JobOutcome` field. `cache_hit` is left
/// out: the service documents it as outside the determinism contract.
pub fn fingerprint(o: &JobOutcome) -> u64 {
    let mut h = KeyHasher::new();
    for x in [o.estimate, o.exact, o.kappa, o.clifford_fraction] {
        h.absorb(x.to_bits());
    }
    h.absorb(o.shots);
    h.absorb(o.plan_key.0);
    for u in &o.updates {
        h.absorb(u.batch);
        h.absorb(u.shots_used);
        h.absorb(u.estimate.to_bits());
    }
    for &n in &o.allocation {
        h.absorb(n);
    }
    h.absorb(match o.backend {
        PlanBackend::Monolithic => 1,
        PlanBackend::Contracted => 2,
    });
    for n in [
        o.compiled_units,
        o.prefix_hits,
        o.frontier_ops,
        o.frontier_ops_uncached,
    ] {
        h.absorb(n as u64);
    }
    h.finish()
}

/// The per-job part of the correctness gate: a finite estimate, an
/// exact value equal to the uncut statevector, and an estimate within
/// 5κ/√shots of the exact value.
fn check(o: &JobOutcome, uncut: f64) -> Result<(), String> {
    if !o.estimate.is_finite() {
        return Err(format!("non-finite estimate {}", o.estimate));
    }
    if (o.exact - uncut).abs() > 1e-8 {
        return Err(format!("exact {} differs from uncut {uncut}", o.exact));
    }
    let band = 5.0 * o.kappa / (o.shots as f64).sqrt();
    if (o.estimate - o.exact).abs() > band {
        return Err(format!(
            "estimate {} outside exact {} ± {band}",
            o.estimate, o.exact
        ));
    }
    Ok(())
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Runs jobs `0..` one at a time until `budget` has passed and at least
/// [`MIN_JOBS`] are done (or a cold workload runs out of distinct jobs).
/// Cold workloads clear the cache after every job, so each job compiles
/// and memory holds one plan at a time.
pub fn run_client(w: &Workload, budget: Duration) -> Client {
    let distinct = w.distinct_jobs();
    let mut c = Client {
        latency_ms: Vec::new(),
        reference: vec![None; distinct],
        failures: BTreeMap::new(),
        hits: 0,
        misses: 0,
    };
    let (h0, m0) = w.service.cache_stats();
    let cold = w.kind.cold();
    let start = Instant::now();
    let mut i = 0;
    while (!cold || i < distinct) && (i < MIN_JOBS || start.elapsed() < budget) {
        let (job, input) = w.job(i);
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| w.service.run_job(&job)));
        let dt = t0.elapsed();
        if cold {
            w.service.clear_cache();
        }
        c.latency_ms.push(dt.as_secs_f64() * 1e3);
        match result {
            Ok(o) => {
                let seen = Reference {
                    fingerprint: fingerprint(&o),
                    estimate: o.estimate.to_bits(),
                    exact: o.exact.to_bits(),
                };
                match c.reference[i % distinct] {
                    None => c.reference[i % distinct] = Some(seen),
                    Some(first) if first != seen => {
                        c.fail(i, "a repeat differs from the first run".into())
                    }
                    Some(_) => {}
                }
                if let Err(why) = check(&o, w.inputs[input].uncut) {
                    c.fail(i, why);
                }
            }
            Err(p) => c.fail(i, format!("panicked: {}", panic_message(p))),
        }
        i += 1;
    }
    let (h1, m1) = w.service.cache_stats();
    c.hits = h1 - h0;
    c.misses = m1 - m0;
    c
}

/// Serves the client's jobs again through `run_jobs` at `threads`
/// workers and checks each outcome is byte-identical to the client's.
/// Cold fleets run `threads` jobs per call and clear the cache between
/// calls, so each worker holds one plan at a time; warm fleets run in
/// chunks of 1024 jobs.
pub fn run_fleet(w: &Workload, client: &mut Client, threads: usize) -> Fleet {
    let chunk = if w.kind.cold() { threads } else { 1024 };
    let n = client.jobs();
    let mut wall = Duration::ZERO;
    let mut lo = 0;
    while lo < n {
        let hi = (lo + chunk).min(n);
        let jobs: Vec<EstimationJob> = (lo..hi).map(|i| w.job(i).0).collect();
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| w.service.run_jobs(&jobs, threads)));
        wall += t0.elapsed();
        if w.kind.cold() {
            w.service.clear_cache();
        }
        match result {
            Ok(outs) => {
                for (i, o) in (lo..hi).zip(&outs) {
                    if client.reference_of(i).map(|r| r.fingerprint) != Some(fingerprint(o)) {
                        client.fail(i, "run_jobs outcome differs from run_job".into());
                    }
                }
            }
            Err(p) => {
                let why = format!("run_jobs panicked: {}", panic_message(p));
                for i in lo..hi {
                    client.fail(i, why.clone());
                }
            }
        }
        lo = hi;
    }
    Fleet {
        threads,
        wall,
        jobs: n,
    }
}
