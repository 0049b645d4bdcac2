//! The three workloads: how their circuits and jobs are generated from
//! the seed, and the shape guard that checks each one from planner
//! output alone.

use experiments::plan_cut::tractable_random_circuit;
use qsample::{KeyHasher, StreamRng};
use qsim::{is_clifford_gate, Circuit, Op, PauliString};
use rand::Rng;
use wirecut::planner::{uncut_plan_expectation, CutPlan, CutPlanner, Protocol};
use wirecut::service::{AllocationMode, CutService, EstimationJob};

/// NME cuts of every `ladder_deep` circuit (3^11 = 177 147 product terms).
pub const LADDER_CUTS: usize = 11;
/// Incoming cut wires of the `fanin_wide` target fragment. Six makes a
/// cold job ≈0.54 s, too slow for 100 jobs in a run; five keeps the job
/// block-build dominated at 6^5 = 7 776 prep variants.
pub const FANIN_INCOMING: usize = 5;
/// Every `FANIN_CLIFFORD_EVERY`-th `fanin_wide` job is Clifford-only.
pub const FANIN_CLIFFORD_EVERY: usize = 4;
/// Cut counts of the `fleet_warm` circuits, one distinct plan each.
pub const WARM_CUTS: [usize; 5] = [1, 2, 3, 3, 4];
/// Distinct `fleet_warm` jobs: 100 seeds × both allocation modes × the
/// 5 plans. The timed loop cycles through them. Each distinct job is
/// one draw against the gate's 5κ/√shots band, and a 5σ miss has
/// probability ≈ 6·10⁻⁷; ~10⁵ distinct jobs per run would trip it about
/// once in ten runs with no defect, 10³ keeps it near 10⁻³ per run.
pub const WARM_POOL: usize = 1000;

/// Which workload a run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    LadderDeep,
    FaninWide,
    FleetWarm,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "ladder_deep" => Some(Kind::LadderDeep),
            "fanin_wide" => Some(Kind::FaninWide),
            "fleet_warm" => Some(Kind::FleetWarm),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::LadderDeep => "ladder_deep",
            Kind::FaninWide => "fanin_wide",
            Kind::FleetWarm => "fleet_warm",
        }
    }

    /// Cold workloads miss the plan cache on every job and clear it
    /// after each one; the warm workload compiles during set-up only.
    pub fn cold(self) -> bool {
        self != Kind::FleetWarm
    }

    fn planner(self) -> CutPlanner {
        match self {
            Kind::LadderDeep => CutPlanner::new(2).with_overlap(0.8),
            Kind::FaninWide => CutPlanner::new(6).with_overlap(0.55),
            Kind::FleetWarm => CutPlanner::new(3).with_overlap(0.9),
        }
    }

    /// Cold job pools are generated in full during set-up; the timed
    /// loop stops at the pool's end rather than repeat a circuit.
    fn pool_size(self) -> usize {
        match self {
            Kind::LadderDeep => 192,
            Kind::FaninWide => 256,
            Kind::FleetWarm => WARM_CUTS.len(),
        }
    }

    fn shots_and_batches(self) -> (u64, u64) {
        match self {
            Kind::LadderDeep | Kind::FaninWide => (100_000, 2),
            Kind::FleetWarm => (100_000, 8),
        }
    }
}

/// One circuit with its observable and the uncut reference value the
/// correctness gate holds the plan's exact value against.
pub struct Input {
    pub circuit: Circuit,
    pub observable: PauliString,
    pub uncut: f64,
}

/// A workload after set-up: the service (warm for `fleet_warm`) and the
/// circuits jobs are drawn from.
pub struct Workload {
    pub kind: Kind,
    pub service: CutService,
    pub inputs: Vec<Input>,
    seed: u64,
}

/// Content hash of a tag path under the run seed.
fn mix(seed: u64, tags: &[u64]) -> u64 {
    let mut h = KeyHasher::new();
    h.absorb(seed);
    for &t in tags {
        h.absorb(t);
    }
    h.finish()
}

fn angle(rng: &mut StreamRng) -> f64 {
    0.15 + 2.8 * rng.gen::<f64>()
}

/// A CX+Rz ladder on `LADDER_CUTS + 2` qubits. At width budget 2 every
/// fragment is one rung `{q, q+1}`, fed by exactly one cut wire.
fn ladder(rng: &mut StreamRng) -> Circuit {
    let n = LADDER_CUTS + 2;
    let mut c = Circuit::new(n, 0);
    c.ry(angle(rng), 0);
    for q in 0..n - 1 {
        c.ry(angle(rng), q + 1);
        c.cx(q, q + 1);
        c.rz(angle(rng), q + 1);
    }
    c
}

/// One local gate: a seed-drawn rotation, or a seed-drawn H/S word for
/// Clifford-only circuits.
fn local(c: &mut Circuit, q: usize, clifford: bool, rng: &mut StreamRng) {
    if clifford {
        match rng.gen_range(0..3) {
            0 => c.h(q),
            1 => c.h(q).s(q),
            _ => c.s(q).h(q),
        };
    } else {
        c.ry(angle(rng), q).rz(angle(rng), q);
    }
}

/// Fan-in circuit: two 6-wide source fragments A and B each hand their
/// source wires (3 from A, `FANIN_INCOMING − 3` from B) to one 6-wide
/// target fragment, which entangles them with its own fresh qubits.
/// Fragment A: helpers `0..3` + sources `3..6`; fragment B: helpers
/// `6..6+hb` + the remaining sources; target block: every source plus
/// `6 − FANIN_INCOMING` target qubits.
fn fanin(clifford: bool, rng: &mut StreamRng) -> Circuit {
    let from_b = FANIN_INCOMING - 3;
    let hb = 6 - from_b;
    let a_sources: Vec<usize> = (3..6).collect();
    let b_sources: Vec<usize> = (6 + hb..6 + hb + from_b).collect();
    let n = 12 + 6 - FANIN_INCOMING;
    let targets: Vec<usize> = (12..n).collect();
    let mut c = Circuit::new(n, 0);
    for (helpers, sources) in [
        ((0..3).collect::<Vec<_>>(), &a_sources),
        ((6..6 + hb).collect(), &b_sources),
    ] {
        for &q in helpers.iter().chain(sources.iter()) {
            local(&mut c, q, clifford, rng);
        }
        for (i, &h) in helpers.iter().enumerate() {
            c.cx(h, sources[i % sources.len()]);
        }
        for w in sources.windows(2) {
            c.cx(w[0], w[1]);
        }
    }
    let block: Vec<usize> = a_sources
        .iter()
        .chain(&b_sources)
        .chain(&targets)
        .copied()
        .collect();
    for w in block.windows(2) {
        c.cx(w[0], w[1]);
    }
    for &q in &block {
        local(&mut c, q, clifford, rng);
    }
    for w in block.windows(2).rev() {
        c.cx(w[1], w[0]);
    }
    c
}

fn all_z(n: usize) -> PauliString {
    PauliString::from_label(&"Z".repeat(n))
}

fn input(circuit: Circuit) -> Input {
    let observable = all_z(circuit.num_qubits());
    let uncut = uncut_plan_expectation(&circuit, &observable);
    Input {
        circuit,
        observable,
        uncut,
    }
}

/// Whether every gate of `circuit` is a Clifford gate.
pub fn is_clifford_circuit(circuit: &Circuit) -> bool {
    circuit.instructions().iter().all(|i| match &i.op {
        Op::Gate(g, _) => is_clifford_gate(g),
        _ => true,
    })
}

/// Incoming cut wires per fragment, from the plan's cut groups.
fn incoming(plan: &CutPlan) -> Vec<usize> {
    let mut counts = vec![0; plan.fragments.len()];
    for g in &plan.groups {
        for cut in &g.cuts {
            counts[cut.dest_fragment] += 1;
        }
    }
    counts
}

impl Workload {
    /// Generates the inputs from `seed` and checks their shape. For
    /// `fleet_warm` it then compiles every distinct plan into the service
    /// cache; for the cold workloads it runs one warm-up job.
    pub fn setup(kind: Kind, seed: u64) -> Result<Workload, String> {
        let planner = kind.planner();
        let mut inputs = Vec::with_capacity(kind.pool_size());
        #[allow(clippy::needless_range_loop)] // `i` numbers inputs of every kind
        for i in 0..kind.pool_size() {
            let mut rng = StreamRng::new(seed, mix(0xC1C, &[kind as u64, i as u64]));
            let circuit = match kind {
                Kind::LadderDeep => ladder(&mut rng),
                Kind::FaninWide => fanin(i.is_multiple_of(FANIN_CLIFFORD_EVERY), &mut rng),
                Kind::FleetWarm => loop {
                    let (c, plan) =
                        tractable_random_circuit(6, 10, &planner, WARM_CUTS[i], &mut rng);
                    if plan.num_cuts() == WARM_CUTS[i] {
                        break c;
                    }
                },
            };
            let plan = planner.plan(&circuit);
            check_shape(kind, i, &plan, &circuit)?;
            inputs.push(input(circuit));
        }
        let service = CutService::new(planner);
        if kind == Kind::FleetWarm {
            let mut keys: Vec<u64> = inputs
                .iter()
                .map(|x| service.planner().plan_key(&x.circuit, &x.observable).0)
                .collect();
            keys.sort_unstable();
            keys.dedup();
            if keys.len() != WARM_CUTS.len() {
                return Err(format!(
                    "fleet_warm: {} distinct plans, expected {}",
                    keys.len(),
                    WARM_CUTS.len()
                ));
            }
            for x in &inputs {
                service.compiled(&x.circuit, &x.observable);
            }
        }
        let w = Workload {
            kind,
            service,
            inputs,
            seed,
        };
        if kind.cold() {
            // One untimed job first, so the one-time work of the process
            // (memoised MUB tables, first touches of the allocator) is set-up.
            w.service.run_job(&w.job(0).0);
            w.service.clear_cache();
        } else {
            // Warm every distinct job once before timing.
            for i in 0..w.distinct_jobs() {
                w.service.run_job(&w.job(i).0);
            }
        }
        Ok(w)
    }

    /// Number of distinct jobs. Cold jobs never repeat: the timed loop
    /// stops at the end of the pool. Warm jobs cycle through
    /// [`WARM_POOL`]; a repeat must reproduce its first outcome.
    pub fn distinct_jobs(&self) -> usize {
        if self.kind.cold() {
            self.inputs.len()
        } else {
            WARM_POOL
        }
    }

    /// Job `i` and the index of its input. Cold job `i` is pool circuit
    /// `i` under its own seed. Warm job `i` is distinct job
    /// `d = i mod WARM_POOL`: circuit `d mod P`, allocation mode
    /// alternating every `P` jobs, and one seed per `2P` jobs, so each
    /// seed runs every plan under both static-proportional and
    /// sequential allocation.
    pub fn job(&self, i: usize) -> (EstimationJob, usize) {
        let (shots, batches) = self.kind.shots_and_batches();
        let p = self.inputs.len();
        let d = i % self.distinct_jobs();
        let (input, mode, seed_tag) = if self.kind.cold() {
            (d, AllocationMode::Sequential, d)
        } else if (d / p).is_multiple_of(2) {
            (d % p, AllocationMode::StaticProportional, d / (2 * p))
        } else {
            (d % p, AllocationMode::Sequential, d / (2 * p))
        };
        let x = &self.inputs[input];
        let job = EstimationJob::new(
            x.circuit.clone(),
            x.observable.clone(),
            shots,
            mix(self.seed, &[0x70B, seed_tag as u64]),
        )
        .with_batches(batches)
        .with_mode(mode);
        (job, input)
    }
}

/// The shape guard. It reads planner output only — cut counts, group
/// protocols and term counts, fragment incoming counts — never a timing
/// or block counter, so no optimisation of a later layer can trip it.
fn check_shape(kind: Kind, i: usize, plan: &CutPlan, circuit: &Circuit) -> Result<(), String> {
    let inc = incoming(plan);
    let max_in = inc.iter().copied().max().unwrap_or(0);
    let fail = |what: String| {
        let groups: Vec<String> = plan
            .groups
            .iter()
            .map(|g| {
                format!(
                    "{} wires {:?} {} terms",
                    g.num_wires(),
                    g.protocol,
                    g.spec().len()
                )
            })
            .collect();
        Err(format!(
            "{} input {i}: {what}; plan groups {groups:?}, incoming {inc:?}",
            kind.name()
        ))
    };
    match kind {
        Kind::LadderDeep => {
            if plan.num_cuts() != LADDER_CUTS || max_in != 1 {
                return fail(format!(
                    "{} cuts, max incoming {max_in}; expected {LADDER_CUTS} and 1",
                    plan.num_cuts()
                ));
            }
            if plan
                .groups
                .iter()
                .any(|g| !matches!(g.protocol, Protocol::Nme { .. }) || g.spec().len() != 3)
            {
                return fail("expected one 3-term NME group per cut".into());
            }
        }
        Kind::FaninWide => {
            if max_in != FANIN_INCOMING || plan.num_cuts() != FANIN_INCOMING {
                return fail(format!(
                    "{} cuts, max incoming {max_in}; expected {FANIN_INCOMING}",
                    plan.num_cuts()
                ));
            }
            let joint: Vec<&wirecut::planner::CutGroup> = plan
                .groups
                .iter()
                .filter(|g| g.protocol == Protocol::JointMub)
                .collect();
            // A joint n-wire cut has one term per mutually unbiased basis: 2^n + 1.
            if joint.len() != 1 || joint[0].num_wires() != 3 || joint[0].spec().len() != 9 {
                return fail("expected one 3-wire, 9-term joint-MUB group".into());
            }
            let clifford = is_clifford_circuit(circuit);
            if clifford != i.is_multiple_of(FANIN_CLIFFORD_EVERY) {
                return fail(format!(
                    "Clifford-only = {clifford} breaks the 1-in-{FANIN_CLIFFORD_EVERY} share"
                ));
            }
        }
        Kind::FleetWarm => {
            if plan.num_cuts() != WARM_CUTS[i] {
                return fail(format!(
                    "{} cuts, expected {}",
                    plan.num_cuts(),
                    WARM_CUTS[i]
                ));
            }
        }
    }
    Ok(())
}
