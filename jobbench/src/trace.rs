//! The traced pass. It replays `CutService::run_job` step by step
//! through the public call of each layer, recording one span per call,
//! and times the pieces of `CompiledPlan::compile` by calling them next
//! to it. Spans live in memory and are written out when the run ends.

use crate::stats::median;
use crate::workload::{Input, Workload};
use qpd::{Allocator, QpdSpec, SequentialAllocator, TermSpec};
use qsample::StreamRng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use wirecut::contract::FragmentBlocks;
use wirecut::planner::{CompiledPlan, CutPlan, PlanTerm};
use wirecut::service::{AllocationMode, EstimationJob};

/// Parent of a span that has none.
pub const ROOT: u32 = u32::MAX;

/// One recorded span: a layer call of one job.
pub struct Span {
    pub job: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, job: u32, parent: u32, name: &'static str) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            job,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize].end_ns = end;
    }

    /// Runs `f` inside a span; returns its result and duration in ms.
    fn timed<R>(
        &mut self,
        job: u32,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(job, parent, name);
        let r = f();
        self.close(id);
        (r, self.spans[id as usize].ms())
    }

    fn span<R>(&mut self, job: u32, parent: u32, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.timed(job, parent, name, f).0
    }

    /// Tab-separated spans: id, job, parent (-1 for none), name, start
    /// and end in ns since the tracer started.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tjob\tparent\tname\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            let _ = writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{}\t{}",
                s.job, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// What the replay of one job measured beyond its spans.
pub struct Replayed {
    pub job: usize,
    pub estimate: u64,
    pub exact: u64,
    /// Id of the job's root span.
    pub root: u32,
    /// Terms with at least one shot, summed over batches.
    pub terms_sampled: u64,
}

/// Sizes and counters of one compiled plan, next to the times of the
/// pieces of its compile.
pub struct PlanProfile {
    pub compile_ms: f64,
    pub build_ms: f64,
    pub sweep_ms: f64,
    pub product_ms: f64,
    pub terms: usize,
    /// Computed, not measured: bytes of the per-term `PlanTerm` and
    /// `TermSpec` records plus their label strings.
    pub term_bytes: usize,
    pub variants: usize,
    pub nnz: usize,
    pub frontier_ops: usize,
    pub prefix_hit_ratio: f64,
    pub clifford_fraction: f64,
    pub instructions: usize,
    /// Whether the separate sweep reproduced the plan's term values.
    pub sweep_matches: bool,
}

/// Replays one job as `run_job` runs it: key; lookup (warm) or plan +
/// compile (cold); per batch the allocation, the per-term sampling on
/// the job's content-addressed lanes and the pooled estimate; then the
/// exact value. Returns the replay and, for a cold job, the plan it
/// compiled with the compile time in ms.
pub fn replay(
    w: &Workload,
    tracer: &mut Tracer,
    i: usize,
    job: &EstimationJob,
) -> (Replayed, Option<(CutPlan, Arc<CompiledPlan>, f64)>) {
    let id = i as u32;
    let root = tracer.open(id, ROOT, "job");
    let planner = w.service.planner();
    let key = tracer.span(id, root, "planner.key", || {
        planner.plan_key(&job.circuit, &job.observable)
    });
    let (plan, cut) = if w.kind.cold() {
        let cut = tracer.span(id, root, "planner.plan", || planner.plan(&job.circuit));
        let (plan, compile_ms) = tracer.timed(id, root, "planner.compile", || {
            CompiledPlan::compile(&cut, &job.observable)
        });
        (Arc::new(plan), Some((cut, compile_ms)))
    } else {
        let (plan, _, _) = tracer.span(id, root, "service.lookup", || {
            w.service.compiled(&job.circuit, &job.observable)
        });
        (plan, None)
    };
    let samplers = plan.samplers();
    let mut seq = SequentialAllocator::new(plan.spec.len());
    let per_batch = job.shots / job.batches;
    let mut estimate = 0.0;
    let mut terms_sampled = 0;
    for batch in 0..job.batches {
        let budget = if batch + 1 == job.batches {
            job.shots - per_batch * (job.batches - 1)
        } else {
            per_batch
        };
        if budget == 0 {
            continue;
        }
        let allocation = tracer.span(id, root, "qpd.alloc", || match job.mode {
            AllocationMode::StaticProportional => {
                Allocator::Proportional.allocate(&plan.spec, budget)
            }
            AllocationMode::StaticUniform => Allocator::Uniform.allocate(&plan.spec, budget),
            AllocationMode::Sequential => seq.next_allocation(&plan.spec, budget),
        });
        tracer.span(id, root, "qpd.sample", || {
            for (term, &n) in allocation.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                let mut lane = StreamRng::new(job.seed, key.0).derive(&[batch, term as u64]);
                seq.record(term, samplers[term].sample_observable_sum(n, &mut lane), n);
                terms_sampled += 1;
            }
        });
        estimate = tracer.span(id, root, "qpd.pool", || seq.estimate(&plan.spec));
    }
    let exact = tracer.span(id, root, "planner.exact", || plan.exact_value());
    tracer.close(root);
    let replayed = Replayed {
        job: i,
        estimate: estimate.to_bits(),
        exact: exact.to_bits(),
        root,
        terms_sampled,
    };
    (replayed, cut.map(|(c, compile_ms)| (c, plan, compile_ms)))
}

/// Times `FragmentBlocks::build`, the prefix-cached sweep over the full
/// odometer and `QpdSpec::product` on `cut` — the three pieces of a
/// contracted compile — and reads `plan`'s sizes and counters.
/// `compile_ms` is the compile time measured by the caller.
pub fn profile_plan(
    tracer: &mut Tracer,
    job: u32,
    cut: &CutPlan,
    plan: Arc<CompiledPlan>,
    observable: &qsim::PauliString,
    compile_ms: f64,
) -> PlanProfile {
    let terms = plan.spec.len();
    let labels: usize = plan.spec.terms().iter().map(|t| t.label.len()).sum();
    let report = plan.backend_report();
    let summaries = plan.fragment_summaries();
    let variants = summaries.iter().map(|s| s.variants).sum();
    let nnz = summaries.iter().map(|s| s.nnz).sum();
    let exact_terms = plan.exact_terms();
    // Free the plan first, so the pieces allocate into the memory the
    // compile they are compared with had: a live 177k-term plan beside
    // them would make each piece pay fresh page faults the compile did not.
    drop(plan);
    // The pieces in compile order: blocks, product spec, then the sweep
    // while both are alive.
    let (blocks, build_ms) = tracer.timed(job, ROOT, "contract.build", || {
        FragmentBlocks::build(cut, observable)
    });
    let (spec, product_ms) = tracer.timed(job, ROOT, "qpd.product", || {
        let groups: Vec<QpdSpec> = cut.groups.iter().map(|g| g.spec()).collect();
        QpdSpec::product(&groups)
    });
    let (sweep_matches, sweep_ms) = tracer.timed(job, ROOT, "contract.sweep", || {
        let lens = blocks.group_lens();
        let mut sweep = blocks.sweep();
        let mut pick = vec![0usize; lens.len()];
        let mut matches = true;
        for (combo, &want) in exact_terms.iter().enumerate() {
            let mut rem = combo;
            for g in (0..lens.len()).rev() {
                pick[g] = rem % lens[g];
                rem /= lens[g];
            }
            matches &= sweep.term_value(&pick).to_bits() == want.to_bits();
        }
        black_box(matches)
    });
    black_box(&spec);
    let digits = report.prefix_hits + report.prefix_rebuilds;
    PlanProfile {
        compile_ms,
        build_ms,
        sweep_ms,
        product_ms,
        terms,
        term_bytes: terms * (std::mem::size_of::<PlanTerm>() + std::mem::size_of::<TermSpec>())
            + labels,
        variants,
        nnz,
        frontier_ops: report.frontier_ops,
        prefix_hit_ratio: if digits == 0 {
            0.0
        } else {
            report.prefix_hits as f64 / digits as f64
        },
        clifford_fraction: report.clifford_fraction(),
        instructions: report.total_instructions,
        sweep_matches,
    }
}

/// Plans and compiles one circuit outside any job (the warm workload's
/// plans were compiled during set-up), recording both spans.
pub fn plan_and_compile(
    w: &Workload,
    tracer: &mut Tracer,
    job: u32,
    x: &Input,
) -> (CutPlan, Arc<CompiledPlan>, f64, f64) {
    let (cut, plan_ms) = tracer.timed(job, ROOT, "planner.plan", || {
        w.service.planner().plan(&x.circuit)
    });
    let (plan, compile_ms) = tracer.timed(job, ROOT, "planner.compile", || {
        CompiledPlan::compile(&cut, &x.observable)
    });
    (cut, Arc::new(plan), plan_ms, compile_ms)
}

/// Lookups per plan behind `warm_lookup_us`.
const LOOKUP_REPS: usize = 101;

/// Median time of a warm `CutService::compiled` on a cold workload's
/// input `x`: one compile fills the cache, [`LOOKUP_REPS`] lookups hit
/// it, and the cache is cleared again.
pub fn warm_lookup_us(w: &Workload, tracer: &mut Tracer, job: u32, x: &Input) -> f64 {
    w.service.compiled(&x.circuit, &x.observable);
    let mut us: Vec<f64> = (0..LOOKUP_REPS)
        .map(|_| {
            let (hit, ms) = tracer.timed(job, ROOT, "service.lookup", || {
                w.service.compiled(&x.circuit, &x.observable).2
            });
            assert!(hit, "a lookup right after a compile must hit");
            ms * 1e3
        })
        .collect();
    w.service.clear_cache();
    median(&mut us)
}
