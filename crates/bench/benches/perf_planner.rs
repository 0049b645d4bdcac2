//! Performance benches for the arbitrary-circuit cut planner
//! (`wirecut::planner`): the cost of planning + compiling a multi-cut
//! execution plan and of its product QPD spec alone, the cost of
//! sampling from a compiled plan, the cut-count scaling of the
//! contracted fragment-block backend against monolithic stitching, and
//! the wall-clock scaling of the full E17 sweep at 1/2/4/8 worker
//! threads.
//!
//! Planning itself (DAG analysis + fragmentation + protocol choice) is
//! microseconds; the dominant costs are term-circuit compilation
//! (one Choi-state run per fragment contracted, `Π terms(group)`
//! stitched circuits monolithic) and batched sampling. All workloads
//! derive their circuits from fixed seeds so every run and every thread
//! count measures identical work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use experiments::plan_cut::{self, tractable_random_circuit, PlanCutConfig};
use qpd::{Allocator, QpdSpec};
use qsim::{Circuit, PauliString};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use wirecut::contract::{FragmentBlocks, MAX_INCOMING};
use wirecut::planner::{CompiledPlan, CutPlanner};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Plan construction alone (fragmentation + cut grouping + protocol
/// choice) on random 6-qubit circuits — the pure planning overhead.
fn plan_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_planner/plan");
    let planner = CutPlanner::new(4).with_overlap(0.8);
    let mut rng = StdRng::seed_from_u64(11);
    let circuits: Vec<_> = (0..32)
        .map(|_| tractable_random_circuit(6, 8, &planner, 4, &mut rng).0)
        .collect();
    group.throughput(Throughput::Elements(circuits.len() as u64));
    group.bench_function("random_6q", |b| {
        b.iter(|| {
            circuits
                .iter()
                .map(|circuit| planner.plan(circuit).kappa())
                .sum::<f64>()
        })
    });
    group.finish();
}

/// A CX ladder on `cuts + 2` qubits: planned at width budget 2 it
/// yields exactly `cuts` single-wire NME cuts and `3^cuts` product terms.
fn ladder(cuts: usize) -> Circuit {
    let n = cuts + 2;
    let mut circuit = Circuit::new(n, 0);
    circuit.ry(0.4, 0);
    for q in 0..n - 1 {
        circuit.cx(q, q + 1);
    }
    circuit
}

/// Plan compilation, end to end (`CompiledPlan::compile`): a small
/// random plan, and the 11-cut ladder whose `3^11` product terms make
/// compile time the product spec plus the term sweep.
fn plan_compilation(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_planner/compile");
    group.sample_size(10);
    let planner = CutPlanner::new(3).with_overlap(0.8);
    let mut rng = StdRng::seed_from_u64(17);
    let (circuit, plan) = tractable_random_circuit(4, 6, &planner, 3, &mut rng);
    let observable = PauliString::from_label(&"Z".repeat(circuit.num_qubits()));
    group.bench_function("random_4q", |b| {
        b.iter(|| CompiledPlan::compile(&plan, &observable).spec.len())
    });
    let plan = CutPlanner::new(2).with_overlap(0.8).plan(&ladder(11));
    assert_eq!(plan.num_cuts(), 11, "ladder plan shape drifted");
    let observable = PauliString::from_label(&"Z".repeat(13));
    group.bench_function("ladder_11cut", |b| {
        b.iter(|| CompiledPlan::compile(&plan, &observable).exact_value())
    });
    group.finish();
}

/// `QpdSpec::product` alone over the per-group specs of an 8- and an
/// 11-cut ladder plan: the flat coefficient and pair-count folds over
/// `3^cuts` terms, with labels left factored.
fn product_spec(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_planner/product_spec");
    group.sample_size(10);
    let planner = CutPlanner::new(2).with_overlap(0.8);
    for cuts in [8usize, 11] {
        let plan = planner.plan(&ladder(cuts));
        assert_eq!(plan.num_cuts(), cuts, "ladder plan shape drifted");
        let specs: Vec<QpdSpec> = plan.groups.iter().map(|g| g.spec()).collect();
        group.throughput(Throughput::Elements(3u64.pow(cuts as u32)));
        group.bench_with_input(BenchmarkId::from_parameter(cuts), &specs, |b, specs| {
            b.iter(|| QpdSpec::product(specs).len())
        });
    }
    group.finish();
}

/// Batched sampling from an already-compiled plan — the steady-state
/// cost of the estimator loop.
fn compiled_plan_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_planner/sample");
    let planner = CutPlanner::new(3).with_overlap(0.8);
    let mut rng = StdRng::seed_from_u64(17);
    let (circuit, plan) = tractable_random_circuit(4, 6, &planner, 3, &mut rng);
    let observable = PauliString::from_label(&"Z".repeat(circuit.num_qubits()));
    let compiled = CompiledPlan::compile(&plan, &observable);
    let shots = 4096u64;
    group.throughput(Throughput::Elements(shots));
    group.bench_function("4096_shots", |b| {
        let mut rng = StdRng::seed_from_u64(23);
        b.iter(|| {
            qpd::estimate_allocated(
                &compiled.spec,
                &compiled.samplers(),
                shots,
                Allocator::Proportional,
                &mut rng,
            )
        })
    });
    group.finish();
}

/// Compilation cost vs cut count, contracted fragment blocks against
/// monolithic stitching, plus the prefix-cache payoff on the term
/// sweep. A CX ladder on `k + 2` qubits planned at width budget 2
/// yields exactly `k` single-wire NME cuts, so the monolithic backend
/// stitches `3^k` product circuits while the contracted backend
/// runs each fragment once, on its Choi state (linear in `k` here).
/// Monolithic is capped at 4 cuts — past that its exponential bill
/// dominates the whole bench run, which is precisely the regression the
/// contracted series guards against. The `sweep_cached` /
/// `sweep_uncached` pair isolates term evaluation over the full `3^k`
/// odometer on prebuilt fragment blocks: cached rides the prefix stack
/// (amortized one fused multiplication per term), uncached re-contracts
/// every frontier from scratch — the `perf-diff` series that tracks the
/// cache payoff on every PR.
fn cut_count_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_planner/cut_scaling");
    group.sample_size(10);
    let planner = CutPlanner::new(2).with_overlap(0.8);
    for cuts in 1..=8usize {
        let n = cuts + 2;
        let plan = planner.plan(&ladder(cuts));
        assert_eq!(plan.num_cuts(), cuts, "ladder plan shape drifted");
        let observable = PauliString::from_label(&"Z".repeat(n));
        group.bench_with_input(BenchmarkId::new("contracted", cuts), &plan, |b, plan| {
            b.iter(|| {
                CompiledPlan::compile_contracted(plan, &observable)
                    .spec
                    .len()
            })
        });
        if cuts <= 4 {
            group.bench_with_input(BenchmarkId::new("monolithic", cuts), &plan, |b, plan| {
                b.iter(|| {
                    CompiledPlan::compile_monolithic(plan, &observable)
                        .spec
                        .len()
                })
            });
        }
        let blocks = FragmentBlocks::build(&plan, &observable);
        let lens = blocks.group_lens();
        let total: usize = lens.iter().product();
        let picks: Vec<Vec<usize>> = (0..total)
            .map(|combo| {
                let mut rem = combo;
                let mut pick = vec![0usize; lens.len()];
                for g in (0..lens.len()).rev() {
                    pick[g] = rem % lens[g];
                    rem /= lens[g];
                }
                pick
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("sweep_cached", cuts),
            &picks,
            |b, picks| {
                b.iter(|| {
                    let mut sweep = blocks.sweep();
                    picks.iter().map(|p| sweep.term_value(p)).sum::<f64>()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sweep_uncached", cuts),
            &picks,
            |b, picks| b.iter(|| picks.iter().map(|p| blocks.term_value(p)).sum::<f64>()),
        );
    }
    group.finish();
}

/// Fan-in circuit: each `(helpers, sources)` part fills one source
/// fragment at the planner's width budget and hands its sources over as
/// one cut group, and the target block entangles every source with the
/// `target` qubit (the last one). `local` adds each qubit's local gates.
fn fan_in(
    parts: &[(Range<usize>, Range<usize>)],
    target: usize,
    local: impl Fn(&mut Circuit, usize),
) -> Circuit {
    let mut c = Circuit::new(target + 1, 0);
    let mut block = Vec::new();
    for (helpers, sources) in parts {
        let sources: Vec<usize> = sources.clone().collect();
        for q in helpers.clone().chain(sources.iter().copied()) {
            local(&mut c, q);
        }
        for (i, h) in helpers.clone().enumerate() {
            c.cx(h, sources[i % sources.len()]);
        }
        for w in sources.windows(2) {
            c.cx(w[0], w[1]);
        }
        block.extend(sources);
    }
    block.push(target);
    for w in block.windows(2) {
        c.cx(w[0], w[1]);
    }
    for &q in &block {
        local(&mut c, q);
    }
    for w in block.windows(2).rev() {
        c.cx(w[1], w[0]);
    }
    c
}

/// Target fragment fed by five cut wires at width budget 6: fragment A
/// (helpers `0..3`, sources `3..6`) hands three wires over as one
/// joint-MUB group, fragment B (helpers `6..10`, sources `10..12`) two
/// more, and the target block adds qubit 12.
fn fan_in_5(local: impl Fn(&mut Circuit, usize)) -> Circuit {
    fan_in(&[(0..3, 3..6), (6..10, 10..12)], 12, local)
}

/// Target fragment fed by [`MAX_INCOMING`] = 8 cut wires at width budget
/// 9: three 9-wide source fragments hand over 3 + 3 + 2 wires, and the
/// target block adds qubit 27.
fn fan_in_8(local: impl Fn(&mut Circuit, usize)) -> Circuit {
    fan_in(
        &[(0..6, 6..9), (9..15, 15..18), (18..25, 25..27)],
        27,
        local,
    )
}

/// `FragmentBlocks::build` alone — one Choi-state run per fragment and
/// its Pauli-row readout — on an 8-cut ladder (one incoming wire per
/// fragment), on 5-input fan-ins with and without rotations (a
/// `6 + 5`-qubit Choi run for the target fragment), and on an 8-input
/// rotated fan-in (`9 + 8` qubits, the [`MAX_INCOMING`] cap). The
/// Clifford-only fan-in runs every fragment on the tableau until the
/// readout.
fn block_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_planner/block_build");
    group.sample_size(10);
    let rotated = fan_in_5(|c, q| {
        c.ry(0.3 + 0.2 * q as f64, q).rz(1.7 - 0.1 * q as f64, q);
    });
    let rotated8 = fan_in_8(|c, q| {
        c.ry(0.3 + 0.2 * q as f64, q).rz(1.7 - 0.1 * q as f64, q);
    });
    let clifford = fan_in_5(|c, q| {
        match q % 3 {
            0 => c.h(q),
            1 => c.h(q).s(q),
            _ => c.s(q).h(q),
        };
    });
    // (name, circuit, planner, cut wires, widest fragment fan-in)
    let cases = [
        (
            "ladder_8cut",
            ladder(8),
            CutPlanner::new(2).with_overlap(0.8),
            8,
            1,
        ),
        (
            "fanin5_rotations",
            rotated,
            CutPlanner::new(6).with_overlap(0.55),
            5,
            5,
        ),
        (
            "fanin5_clifford",
            clifford,
            CutPlanner::new(6).with_overlap(0.55),
            5,
            5,
        ),
        (
            "fanin8_rotations",
            rotated8,
            CutPlanner::new(9).with_overlap(0.55),
            MAX_INCOMING,
            MAX_INCOMING,
        ),
    ];
    for (name, circuit, planner, cuts, widest) in cases {
        let plan = planner.plan(&circuit);
        let observable = PauliString::from_label(&"Z".repeat(circuit.num_qubits()));
        let fan_in = FragmentBlocks::build(&plan, &observable)
            .summaries()
            .iter()
            .map(|s| s.incoming)
            .max();
        assert_eq!(
            (plan.num_cuts(), fan_in),
            (cuts, Some(widest)),
            "{name} plan shape drifted"
        );
        group.bench_with_input(BenchmarkId::new(name, cuts), &plan, |b, plan| {
            b.iter(|| FragmentBlocks::build(plan, &observable).summaries().len())
        });
    }
    group.finish();
}

/// The full E17 planner sweep per worker count — plan + compile +
/// sample across the (overlap, circuit) grid, byte-identical output at
/// every thread count so the timings are directly comparable.
fn plan_cut_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_planner/e17_sweep");
    group.sample_size(10);
    for &threads in &THREADS {
        let config = PlanCutConfig {
            overlaps: vec![0.52, 0.75, 1.0],
            num_circuits: 4,
            repetitions: 8,
            threads,
            ..Default::default()
        };
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &config,
            |b, config| {
                b.iter(|| plan_cut::run(config));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    plan_construction,
    plan_compilation,
    product_spec,
    compiled_plan_sampling,
    cut_count_scaling,
    block_build,
    plan_cut_sweep
);
criterion_main!(benches);
