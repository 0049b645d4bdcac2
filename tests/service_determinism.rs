//! End-to-end suite for the cutting-as-a-service layer
//! (`wirecut::service`), pinning the ISSUE's acceptance criteria:
//!
//! * job results are **byte-identical** for a fixed `(seed, plan)`
//!   across thread counts ∈ {1, 2, 7} and across cold vs warm plan
//!   cache, solo or in a fleet;
//! * sequential (variance-adaptive) allocation realises **no more
//!   estimator variance** than the static proportional split on an
//!   asymmetric-σ workload at equal total shots;
//! * the compiled-plan cache dedupes by content and the streamed batch
//!   partials are consistent with the final outcome.

use nme_wire_cutting::experiments::plan_cut::tractable_random_circuit;
use nme_wire_cutting::qsim::{Circuit, PauliString};
use nme_wire_cutting::wirecut::planner::{
    uncut_plan_expectation, CompiledPlan, CutPlanner, PlanBackend,
};
use nme_wire_cutting::wirecut::service::{AllocationMode, CutService, EstimationJob};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A near-classical ladder: one wire cut, three NME terms.
fn ladder() -> Circuit {
    let mut c = Circuit::new(3, 0);
    c.x(0);
    c.ry(0.25, 0);
    c.cx(0, 1);
    c.ry(0.15, 1);
    c.cx(1, 2);
    c
}

/// A 4-qubit chain whose plan has two cut groups (9 product terms) with
/// strongly **asymmetric** per-term σ (≈ 0.30 to ≈ 1.00 at overlap
/// 0.55): near-classical stretches make some stitched terms almost
/// deterministic while the basis-rotated terms stay maximally noisy —
/// the regime sequential allocation exists for.
fn asymmetric_circuit() -> Circuit {
    let mut c = Circuit::new(4, 0);
    c.x(0);
    c.ry(0.3, 1);
    c.cx(0, 1);
    c.cx(1, 2);
    c.ry(0.2, 2);
    c.cx(2, 3);
    c
}

fn fleet_jobs() -> Vec<EstimationJob> {
    let obs3 = PauliString::from_label("ZZZ");
    let obs4 = PauliString::from_label("ZZZZ");
    let mut jobs = Vec::new();
    for seed in 0..4u64 {
        for mode in [
            AllocationMode::StaticProportional,
            AllocationMode::StaticUniform,
            AllocationMode::Sequential,
        ] {
            jobs.push(
                EstimationJob::new(ladder(), obs3.clone(), 1000, seed)
                    .with_batches(3)
                    .with_mode(mode),
            );
            jobs.push(
                EstimationJob::new(asymmetric_circuit(), obs4.clone(), 1000, seed)
                    .with_batches(3)
                    .with_mode(mode),
            );
        }
    }
    jobs
}

fn service() -> CutService {
    CutService::new(CutPlanner::new(2).with_overlap(0.8))
}

#[test]
fn job_results_are_byte_identical_across_threads_and_cache_state() {
    let jobs = fleet_jobs();
    // Reference: every job solo on its own cold service.
    let reference: Vec<_> = jobs.iter().map(|j| service().run_job(j)).collect();
    // One shared, progressively warming service must reproduce the bits
    // at every thread count; then once more fully warm.
    let shared = service();
    for threads in [1usize, 2, 7] {
        let fleet = shared.run_jobs(&jobs, threads);
        for (r, f) in reference.iter().zip(fleet.iter()) {
            assert_eq!(
                r.estimate.to_bits(),
                f.estimate.to_bits(),
                "estimate differs at {threads} threads"
            );
            assert_eq!(r.updates, f.updates, "partials differ at {threads} threads");
            assert_eq!(r.allocation, f.allocation);
            assert_eq!(r.plan_key, f.plan_key);
        }
    }
    let (hits, _) = shared.cache_stats();
    assert!(hits > 0, "warm passes should have hit the cache");
    // Two distinct plans across the whole fleet.
    assert_eq!(shared.cache_len(), 2);
}

#[test]
fn sequential_variance_beats_static_proportional_on_asymmetric_workload() {
    let svc = CutService::new(CutPlanner::new(2).with_overlap(0.55));
    let obs = PauliString::from_label("ZZZZ");
    let circuit = asymmetric_circuit();
    let shots = 1600u64;
    let reps = 2000u64;
    let run = |mode: AllocationMode| -> (f64, f64) {
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for seed in 0..reps {
            let out = svc.run_job(
                &EstimationJob::new(circuit.clone(), obs.clone(), shots, seed)
                    .with_batches(4)
                    .with_mode(mode),
            );
            assert_eq!(out.allocation.iter().sum::<u64>(), shots, "equal budgets");
            sum += out.estimate;
            sumsq += out.estimate * out.estimate;
        }
        let n = reps as f64;
        (sum / n, (sumsq - sum * sum / n) / (n - 1.0))
    };
    let (mean_static, var_static) = run(AllocationMode::StaticProportional);
    let (mean_seq, var_seq) = run(AllocationMode::Sequential);
    // Both unbiased…
    let exact = svc.compiled(&circuit, &obs).0.exact_value();
    let se = (var_static / reps as f64).sqrt();
    assert!(
        (mean_static - exact).abs() < 5.0 * se,
        "static biased: {mean_static} vs {exact}"
    );
    assert!(
        (mean_seq - exact).abs() < 5.0 * se,
        "sequential biased: {mean_seq} vs {exact}"
    );
    // …and sequential realises strictly less variance here (the
    // measured ratio is ≈ 0.89 through the contracted backend;
    // everything is deterministic, so this is a fixed number, not a
    // flaky statistic — 2000 repetitions keep it clear of the
    // variance-estimator noise floor that a draw-sequence change could
    // otherwise flip).
    assert!(
        var_seq < var_static,
        "sequential variance {var_seq} not below static {var_static}"
    );
}

#[test]
fn cold_and_warm_cache_serve_identical_bits() {
    let job = EstimationJob::new(ladder(), PauliString::from_label("ZZZ"), 2000, 99);
    let svc = service();
    let cold = svc.run_job(&job);
    assert!(!cold.cache_hit);
    let warm = svc.run_job(&job);
    assert!(warm.cache_hit);
    assert_eq!(cold.estimate.to_bits(), warm.estimate.to_bits());
    assert_eq!(cold.updates, warm.updates);
    // Clearing the cache forces recompilation — still the same bits.
    svc.clear_cache();
    let recompiled = svc.run_job(&job);
    assert!(!recompiled.cache_hit);
    assert_eq!(cold.estimate.to_bits(), recompiled.estimate.to_bits());
}

#[test]
fn streamed_partials_are_consistent_with_the_outcome() {
    let svc = service();
    let job = EstimationJob::new(ladder(), PauliString::from_label("ZZZ"), 1500, 5).with_batches(4);
    let mut streamed = Vec::new();
    let out = svc.run_job_with(&job, |u| streamed.push(*u));
    assert_eq!(streamed, out.updates);
    assert_eq!(out.updates.len(), 4);
    assert_eq!(out.updates.iter().map(|u| u.shots_used).sum::<u64>(), 1500);
    assert_eq!(
        out.updates.last().unwrap().estimate.to_bits(),
        out.estimate.to_bits()
    );
    // Partials tighten toward exact as the budget accumulates: the last
    // partial must not be the worst of the stream.
    let errs: Vec<f64> = out
        .updates
        .iter()
        .map(|u| (u.estimate - out.exact).abs())
        .collect();
    let worst = errs.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        errs.last().unwrap() <= &worst,
        "final partial is the worst estimate: {errs:?}"
    );
}

/// A 4-wire ladder: at width 2 it plans two single-wire NME cuts (9
/// product terms).
fn ladder4() -> Circuit {
    let mut c = Circuit::new(4, 0);
    c.ry(0.4, 0);
    for q in 0..3 {
        c.cx(q, q + 1);
    }
    c
}

/// The contracted backend's sample stream, pinned bit for bit: the
/// estimate, exact value and pooled allocation of two fixed jobs. A
/// change to these constants is a change to every contracted job's
/// output, and must be deliberate.
#[test]
fn contracted_sample_stream_is_pinned() {
    let ladder_job = EstimationJob::new(ladder4(), PauliString::from_label("ZZZZ"), 3000, 11)
        .with_batches(3)
        .with_mode(AllocationMode::Sequential);
    let random_planner = CutPlanner::new(3).with_overlap(0.8);
    let mut rng = StdRng::seed_from_u64(3);
    let (random, _) = tractable_random_circuit(5, 8, &random_planner, 2, &mut rng);
    let random_job = EstimationJob::new(random, PauliString::from_label("ZZZZZ"), 3000, 12)
        .with_batches(3)
        .with_mode(AllocationMode::StaticProportional);
    let cases = [
        (
            service(),
            ladder_job,
            0x3ff0_5b99_caa9_c9d1u64,
            0x3ff0_0000_0000_0006u64,
            vec![574u64, 555, 231, 585, 591, 229, 95, 95, 45],
        ),
        (
            CutService::new(random_planner),
            random_job,
            0x3f82_2b1e_db61_3cca,
            0x3f89_ebbc_7c15_3e44,
            vec![522, 522, 207, 522, 522, 207, 207, 207, 84],
        ),
    ];
    for (svc, job, estimate, exact, allocation) in cases {
        let out = svc.run_job(&job);
        assert_eq!(out.backend, PlanBackend::Contracted);
        assert_eq!(
            out.estimate.to_bits(),
            estimate,
            "estimate {}",
            out.estimate
        );
        assert_eq!(out.exact.to_bits(), exact, "exact {}", out.exact);
        assert_eq!(out.allocation, allocation);
    }
}

/// Plans the contraction cannot serve fall back to monolithic
/// stitching: an uncut plan, and a circuit whose classical bit feeds
/// forward across a cut. Their sampled jobs must land on the uncut
/// value and keep the byte-identity contract of contracted jobs.
#[test]
fn monolithic_fallback_jobs_sample_the_uncut_value() {
    let mut feed_forward = Circuit::new(3, 1);
    feed_forward
        .ry(0.4, 0)
        .cx(0, 1)
        .measure(1, 0)
        .cx(1, 2)
        .x_if(2, 0);
    let cases = [
        (3, ladder(), PauliString::from_label("ZZZ")),
        (2, feed_forward, PauliString::from_label("ZZI")),
    ];
    let shots = 20_000u64;
    for (width, circuit, obs) in cases {
        let planner = CutPlanner::new(width).with_overlap(0.8);
        let jobs: Vec<EstimationJob> = (0..3u64)
            .map(|seed| {
                EstimationJob::new(circuit.clone(), obs.clone(), shots, seed)
                    .with_batches(2)
                    .with_mode(AllocationMode::Sequential)
            })
            .collect();
        let reference = uncut_plan_expectation(&circuit, &obs);
        // Each solo job on its own cold service; then all of them on one
        // warmed service, and as one fleet on a fresh service.
        let solo: Vec<_> = jobs
            .iter()
            .map(|j| CutService::new(planner).run_job(j))
            .collect();
        let shared = CutService::new(planner);
        shared.run_job(&jobs[0]);
        let warm: Vec<_> = jobs.iter().map(|j| shared.run_job(j)).collect();
        let fleet = CutService::new(planner).run_jobs(&jobs, 2);
        for ((s, w), f) in solo.iter().zip(&warm).zip(&fleet) {
            assert_eq!(s.backend, PlanBackend::Monolithic);
            assert!(!s.cache_hit && w.cache_hit);
            let tol = 5.0 * s.kappa / (shots as f64).sqrt();
            assert!(
                (s.estimate - reference).abs() < tol,
                "estimate {} vs uncut {reference} (tol {tol})",
                s.estimate
            );
            assert!((s.exact - reference).abs() < 1e-8);
            for other in [w, f] {
                assert_eq!(s.estimate.to_bits(), other.estimate.to_bits());
                assert_eq!(s.updates, other.updates);
                assert_eq!(s.allocation, other.allocation);
            }
        }
    }
}

/// FNV-1a over the little-endian bytes of a stream of 64-bit words: one
/// number that pins a long sequence of float bits.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A 10-qubit rotated ladder: at width 2 it plans eight single-wire NME
/// cuts, `3⁸ = 6561` product terms.
fn rotated_ladder10() -> Circuit {
    let mut c = Circuit::new(10, 0);
    c.ry(0.4, 0);
    for q in 0..9 {
        c.cx(q, q + 1);
        c.ry(0.3 + 0.05 * q as f64, q + 1);
    }
    c
}

/// The 8-cut ladder's compiled plan and two jobs on it, pinned by digest:
/// every per-term value and coefficient, the exact value, and the
/// estimate, streamed partials and pooled allocation of a sequential and
/// a static-proportional job whose per-batch budget (3000) is below the
/// term count. The compile path's spec, sweep and exact-value sum and the
/// job path's allocation and sampling all feed these bits, so a change to
/// any constant here is a change to job output and must be deliberate.
#[test]
fn eight_cut_ladder_outputs_are_pinned() {
    let circuit = rotated_ladder10();
    let obs = PauliString::from_label(&"Z".repeat(10));
    let planner = CutPlanner::new(2).with_overlap(0.8);
    let cut = planner.plan(&circuit);
    assert_eq!(cut.num_cuts(), 8);
    let plan = CompiledPlan::compile(&cut, &obs);
    assert_eq!(plan.backend(), PlanBackend::Contracted);
    assert_eq!(plan.spec.len(), 6561);
    let values = digest(plan.exact_terms().iter().map(|v| v.to_bits()));
    let coefficients = digest(plan.spec.coefficients().iter().map(|c| c.to_bits()));
    let exact = plan.exact_value().to_bits();
    assert_eq!(
        (values, coefficients, exact),
        (
            0xe720_b521_d400_4687,
            0xb4ec_f4e2_803a_8d0d,
            0x3fdf_3279_6ff8_8aae
        ),
        "term values, coefficients, exact value"
    );
    let svc = CutService::new(planner);
    let cases = [
        (
            AllocationMode::Sequential,
            0x3fda_a7fd_3fff_fff7u64,
            0x21b1_2f35_6a9f_d806u64,
            0x5a65_e351_1517_44c5u64,
        ),
        (
            AllocationMode::StaticProportional,
            0x3fed_6295_3fff_fffc,
            0x9c62_4c67_7f5f_7f18,
            0x95cb_722e_625d_a4c5,
        ),
    ];
    for (mode, estimate, updates, allocation) in cases {
        let job = EstimationJob::new(circuit.clone(), obs.clone(), 6000, 21)
            .with_batches(2)
            .with_mode(mode);
        let out = svc.run_job(&job);
        let got_updates = digest(
            out.updates
                .iter()
                .flat_map(|u| [u.batch, u.shots_used, u.estimate.to_bits()]),
        );
        assert_eq!(
            (
                out.estimate.to_bits(),
                got_updates,
                digest(out.allocation.iter().copied())
            ),
            (estimate, updates, allocation),
            "{mode:?}: estimate {}",
            out.estimate
        );
        assert_eq!(out.exact.to_bits(), exact);
    }
}
