//! **Per-fragment tensor-block compilation** for the cut planner — the
//! scalable alternative to stitching one monolithic circuit per product
//! term ([`crate::planner::CompiledPlan`]).
//!
//! Wire cutting's value proposition is that fragments are simulated
//! *independently* and recombined classically. The monolithic compiler
//! inverts that: every combination of per-group QPD terms stitches and
//! simulates its own carrier-threaded circuit, so compilation cost grows
//! as `Π terms(group)` — intractable past ~4 cuts. This module restores
//! the fragment-local structure in the Pauli-transfer picture:
//!
//! * **Group transfer matrices** — each cut group's term `t` realises a
//!   channel `C_t` on the cut wires; its Pauli transfer matrix
//!   `R_t[a, b] = Tr[P_a · C_t(P_b)] / d` is computed once per group.
//!   NME groups factorise per wire (`[[f64; 4]; 4]` per term); joint-MUB
//!   terms are dephasing-type channels whose PTM is **diagonal** in the
//!   Pauli basis, so the nominal `4ⁿ × 4ⁿ` transfer collapses to its
//!   `4ⁿ` diagonal, built directly from the GF(2ⁿ) Pauli-class structure
//!   ([`crate::mub::mub_error_pauli`]) without ever materialising a
//!   matrix. That sparse form is what lifts [`MAX_JOINT_WIRES`] to 6:
//!   the dense transfer at `n = 6` alone would hold `16⁶ ≈ 1.7·10⁷`
//!   entries per term and cost `O(d⁵)` tomography to build.
//! * **Fragment blocks** — each fragment `F` is analysed once
//!   ([`CircuitProgram`]: Clifford-prefix split and dense-suffix fusion)
//!   and run **once, on its Choi state** ([`CircuitProgram::run_choi`]):
//!   every incoming cut wire is paired with a reference qubit in
//!   `(|00⟩ + |11⟩)/√2` — the Bell-pair resource the teleportation
//!   baseline consumes — seeded onto the stabilizer tableau. The block
//!   tensor `F[a_in, b_out] = Tr[(P_{b_out} ⊗ Z_local) ·
//!   E_F(σ_{a_in}/2 ⊗ |0⟩⟨0|)]` is a Pauli expectation on that state:
//!   `F[a, b] = Tr[σ_a · M_b]` for the reduced operator
//!   `M_b[j, k] = Σ_f conj(ψ[f, j]) · ((P_b ⊗ Z_local)ψ)[f, k]` over the
//!   fragment index `f` (`j`, `k` index the reference qubits). A 4×4
//!   change of basis along each incoming axis (`I = m00 + m11`,
//!   `X = m01 + m10`, `Y = i(m01 − m10)`, `Z = m00 − m11`) folds `M_b`
//!   into Pauli rows, and the block is stored in **CSR form** over the
//!   incoming index `a` (Clifford-heavy fragments have
//!   near-permutation Pauli-transfer rows, so most entries vanish).
//!   Fragments containing mid-circuit **measurement or feed-forward**
//!   are admitted unchanged: branching on the Choi state *is* the
//!   channel (a branch's probability is `Tr[K_m K_m†] / 2^in` for its
//!   Kraus operator `K_m`), so the block entry is the
//!   outcome-probability-weighted sum over the run's branch leaves. Only
//!   a classical bit *shared between fragments* breaks fragment
//!   independence and forces the monolithic fallback
//!   ([`contraction_ineligibility`]).
//! * **Prefix-cached frontier contraction** — a product term's exact
//!   expectation is the frontier contraction `Σ F_dest[a] · R[a, b] ·
//!   F_src[b]` chained through the fragments in program order. The walk
//!   is precompiled into a pick-independent **schedule** of
//!   absorb/apply steps (frontier axis bookkeeping is the same for
//!   every term; only the applied transfer entries depend on the
//!   odometer pick). Because [`qpd::QpdSpec::product`] enumerates terms
//!   row-major with the **last group fastest**, consecutive terms share
//!   all but the fastest-varying group's frontier: [`FrontierSweep`]
//!   snapshots the frontier before each group's apply step and resumes
//!   each term at its first odometer digit that differs from the
//!   previous term, turning a full sweep from `O(terms × groups)`
//!   frontier multiplications into amortized `O(terms)`. The
//!   pick-independent tail *after* the last group's apply is folded
//!   into one precomputed vector per last-group term, so the hot path —
//!   only the fastest digit changed — is a single dot product. The
//!   sweep reuses its buffers (snapshots refreshed in place, absorbs
//!   ping-ponging between two frontier vectors), so no term allocates;
//!   [`FrontierSweep::for_each_term`] walks the odometer itself and
//!   takes each term's resume digit from the increment's carry.
//!   Hit/rebuild and frontier-op counters surface through
//!   [`crate::planner::BackendReport`].
//!
//! Total cost is one run per fragment (on `width + in` qubits, read
//! out in `O(4^out · 2^width · 4^in)` per branch leaf) plus an amortized
//! O(1) frontier contraction per term — `Σ runs(fragment)` instead of
//! `Π terms(group)` — so plans with 6+ cuts compile where the
//! monolithic path blows up. The monolithic compiler stays as the
//! pristine differential-testing reference
//! (`tests/fragment_contraction.rs`), mirroring how `compile_dense`
//! fences the hybrid sampler.

use crate::mub::{mub_error_pauli, MubField};
use crate::nme::NmeCut;
use crate::planner::{BackendReport, CutGroup, CutPlan, Protocol};
use crate::term::{term_channel, WireCut};
use qlinalg::{Complex64, Matrix, C_ZERO};
use qsim::{
    fragment_circuit, CircuitProgram, CompiledSampler, Op, Pauli, PauliString, Superoperator,
};

/// Hard cap on incoming cut wires per fragment for the contracted path.
/// The fragment's Choi run carries one reference qubit per incoming
/// wire, and its readout costs `4^incoming` per fragment amplitude and
/// readout column.
pub const MAX_INCOMING: usize = 8;

/// Cap on a fragment's width plus its incoming cut wires: the qubits of
/// its Choi run, which must fit one dense state vector.
pub const MAX_CHOI_QUBITS: usize = 30;

/// Hard cap on joint-MUB group width for the contracted path. The
/// diagonal sparse transfer is `4ⁿ` per term, so the binding cost at
/// `n = 6` is the flip-term ancilla simulation, not the transfer.
pub const MAX_JOINT_WIRES: usize = 6;

/// Decodes `index` into mixed-radix odometer digits, digit `i` in radix
/// `radix(i)`, with the **last digit fastest** — the term order of
/// [`qpd::QpdSpec::product`] over groups and of
/// [`crate::multi::ParallelWireCut`] over wires.
pub(crate) fn decode_odometer(
    mut index: usize,
    digits: &mut [usize],
    radix: impl Fn(usize) -> usize,
) {
    for (i, digit) in digits.iter_mut().enumerate().rev() {
        let r = radix(i);
        *digit = index % r;
        index /= r;
    }
}

/// Magnitude below which a folded block-tensor entry is dropped when
/// sparsifying to CSR. Well under every differential tolerance in the
/// suite (1e−8 against monolithic, 1e−12 cached-vs-uncached) and above
/// the ~1e−16 float noise of exactly-zero entries, so sparsification
/// never moves a term value observably.
const SPARSE_CUTOFF: f64 = 1e-14;

/// `true` when `plan` can compile through the contracted fragment-block
/// path — see [`contraction_ineligibility`] for the full rule set and
/// the named reason when it cannot.
pub fn supports_contraction(plan: &CutPlan) -> bool {
    contraction_ineligibility(plan).is_none()
}

/// Why `plan` cannot ride the contracted fragment-block path, or `None`
/// when it can. The checks, in order:
///
/// 1. at least one cut (an uncut plan has nothing to contract);
/// 2. **classical locality** — measurement and feed-forward are fine
///    *within* a fragment (the block sums over outcome branches), but a
///    classical bit measured in one fragment and read (or re-measured)
///    in another threads a side channel the independent per-fragment
///    blocks cannot express;
/// 3. joint-MUB group width ≤ [`MAX_JOINT_WIRES`];
/// 4. incoming cut wires per fragment ≤ [`MAX_INCOMING`], so a wide
///    fan-in is rejected by name before its `4^incoming`-sized readout
///    is built;
/// 5. fragment width + incoming cut wires ≤ [`MAX_CHOI_QUBITS`], the
///    qubits of the fragment's Choi run;
/// 6. per-group term counts and their running product stay inside
///    `usize` (computed via `checked_pow`/`checked_mul` — the odometer
///    sweep indexes `Π terms(group)` combinations).
pub fn contraction_ineligibility(plan: &CutPlan) -> Option<String> {
    if plan.groups.is_empty() {
        return Some("plan has no cuts — nothing to contract".to_string());
    }
    let circuit = plan.circuit();
    let mut owner: Vec<Option<usize>> = vec![None; circuit.num_clbits()];
    for (fi, frag) in plan.fragments.iter().enumerate() {
        for &idx in &frag.instructions {
            let instr = &circuit.instructions()[idx];
            let measured = match instr.op {
                Op::Measure { clbit, .. } => Some(clbit),
                _ => None,
            };
            let read = instr.condition.map(|c| c.bit);
            for clbit in measured.into_iter().chain(read) {
                match owner[clbit] {
                    Some(prev) if prev != fi => {
                        return Some(format!(
                            "classical bit {clbit} is shared between fragments {prev} and \
                             {fi} — cross-fragment feed-forward cannot contract"
                        ));
                    }
                    _ => owner[clbit] = Some(fi),
                }
            }
        }
    }
    for (gi, g) in plan.groups.iter().enumerate() {
        if g.protocol == Protocol::JointMub && g.num_wires() > MAX_JOINT_WIRES {
            return Some(format!(
                "group {gi} cuts {} wires jointly, above the MAX_JOINT_WIRES = \
                 {MAX_JOINT_WIRES} transfer cap",
                g.num_wires()
            ));
        }
    }
    let mut incoming = vec![0usize; plan.fragments.len()];
    for g in &plan.groups {
        incoming[g.cuts[0].dest_fragment] += g.num_wires();
    }
    for (fi, &n_in) in incoming.iter().enumerate() {
        if n_in > MAX_INCOMING {
            return Some(format!(
                "fragment {fi} receives {n_in} cut wires, above the MAX_INCOMING = \
                 {MAX_INCOMING} cap"
            ));
        }
    }
    for (fi, (frag, &n_in)) in plan.fragments.iter().zip(&incoming).enumerate() {
        if frag.width() + n_in > MAX_CHOI_QUBITS {
            return Some(format!(
                "fragment {fi} is {} wires wide and receives {n_in} cut wires: its Choi \
                 run needs {} qubits, above the MAX_CHOI_QUBITS = {MAX_CHOI_QUBITS} cap",
                frag.width(),
                frag.width() + n_in
            ));
        }
    }
    let mut total = 1usize;
    for (gi, g) in plan.groups.iter().enumerate() {
        let n = g.num_wires();
        let len = match g.protocol {
            Protocol::Nme { k } => {
                let per_wire = NmeCut::new(k).terms().len();
                match per_wire.checked_pow(n as u32) {
                    Some(len) => len,
                    None => {
                        return Some(format!(
                            "group {gi}: NME term count {per_wire}^{n} overflows usize"
                        ))
                    }
                }
            }
            Protocol::JointMub => (1usize << n) + 1,
        };
        total = match total.checked_mul(len) {
            Some(t) => t,
            None => {
                return Some(format!(
                    "product term count overflows usize at group {gi} \
                     ({total} terms so far × {len})"
                ))
            }
        };
    }
    None
}

/// One cut group's Pauli transfer matrices, one per QPD term, in the
/// exact order [`CutGroup::terms`] enumerates them.
enum GroupTransfer {
    /// NME groups factorise per wire: every wire shares the same
    /// single-wire term family (`[[f64; 4]; 4]` PTM per term), and the
    /// group term index decodes with the **last wire fastest** — the
    /// [`crate::multi::ParallelWireCut`] combination order.
    PerWire {
        wires: usize,
        per_term: Vec<[[f64; 4]; 4]>,
    },
    /// Joint-MUB groups: every term is a dephasing-type channel, whose
    /// PTM is diagonal in the Pauli basis — `diags[t][a]` is the
    /// eigenvalue of Pauli `a` under term `t` (slot 0 = least
    /// significant base-4 digit). The diagonal *is* the fully sparse
    /// form of the `4ⁿ × 4ⁿ` transfer: `16ⁿ` entries collapse to `4ⁿ`.
    Joint { diags: Vec<Vec<f64>> },
}

impl GroupTransfer {
    fn num_terms(&self) -> usize {
        match self {
            GroupTransfer::PerWire { wires, per_term } => per_term
                .len()
                .checked_pow(*wires as u32)
                .expect("per-wire term count overflows usize — eligibility admitted a plan it must reject"),
            GroupTransfer::Joint { diags, .. } => diags.len(),
        }
    }
}

/// The single-wire PTM `r[a][b] = Re Tr[P_a · C(P_b)] / 2` of a channel.
fn ptm_1q(ch: &Superoperator) -> [[f64; 4]; 4] {
    let paulis: Vec<Matrix> = (0..4).map(|i| Pauli::from_index(i).matrix()).collect();
    let mut r = [[0.0; 4]; 4];
    for (b, pb) in paulis.iter().enumerate() {
        let image = ch.apply(pb);
        for (a, pa) in paulis.iter().enumerate() {
            r[a][b] = pa.matmul(&image).trace().re * 0.5;
        }
    }
    r
}

/// Base-4 Pauli code of a symplectic `(x, z)` pair: slot `q`'s digit is
/// `I/X/Y/Z = 0/1/2/3` from the bit pair `(x_q, z_q)` — the
/// [`qsim::pauli::pauli_string_from_code`] convention.
fn pauli_code(p: (u64, u64), n: usize) -> usize {
    let (x, z) = p;
    let mut code = 0usize;
    for q in 0..n {
        let digit = match ((x >> q) & 1, (z >> q) & 1) {
            (0, 0) => 0,
            (1, 0) => 1,
            (1, 1) => 2,
            _ => 3,
        };
        code |= digit << (2 * q);
    }
    code
}

/// The diagonal PTMs of the `d + 1` joint-MUB QPD terms over `n` wires,
/// in [`crate::joint::JointWireCut::terms`] order. Dephasing in MUB `b`
/// fixes exactly the Paulis of its stabilizer class `{U_b Z^z U_b†}`
/// (eigenvalue 1) and annihilates every Pauli that anticommutes with
/// some class member — which is every other non-identity Pauli, the
/// class being maximal abelian. The flip term maps `I ↦ I`, each
/// Z-string to `−1/(d−1)` times itself, and kills all off-diagonal
/// Paulis. Built from the GF(2ⁿ) class structure — `O((d+1)·d)` integer
/// work, no `d × d` matrix and no dense `16ⁿ`-entry tomography — and
/// pinned against the dense [`ptm_dense`] reference for `n ≤ 2` in
/// tests.
fn joint_transfer_diagonals(n: usize) -> Vec<Vec<f64>> {
    let field = MubField::new(n);
    let d = 1usize << n;
    let dim4 = 1usize << (2 * n);
    let mut diags = Vec::with_capacity(d + 1);
    for b in 1..=d {
        let mut diag = vec![0.0f64; dim4];
        for z in 0..d as u64 {
            diag[pauli_code(mub_error_pauli(&field, b, z), n)] = 1.0;
        }
        diags.push(diag);
    }
    let mut flip = vec![0.0f64; dim4];
    flip[0] = 1.0;
    for z in 1..d as u64 {
        flip[pauli_code((0, z), n)] = -1.0 / (d - 1) as f64;
    }
    diags.push(flip);
    diags
}

/// Builds every group's transfer matrices from its protocol. NME groups
/// with the same `k` (bit for bit) share one set of per-wire PTMs,
/// computed once per plan.
fn group_transfers(groups: &[CutGroup]) -> Vec<GroupTransfer> {
    let mut nme: Vec<(u64, Vec<[[f64; 4]; 4]>)> = Vec::new();
    groups
        .iter()
        .map(|group| match group.protocol {
            Protocol::Nme { k } => {
                let per_term = match nme.iter().find(|(bits, _)| *bits == k.to_bits()) {
                    Some((_, per_term)) => per_term.clone(),
                    None => {
                        let per_term: Vec<[[f64; 4]; 4]> = NmeCut::new(k)
                            .terms()
                            .iter()
                            .map(|t| ptm_1q(&term_channel(t)))
                            .collect();
                        nme.push((k.to_bits(), per_term.clone()));
                        per_term
                    }
                };
                GroupTransfer::PerWire {
                    wires: group.num_wires(),
                    per_term,
                }
            }
            Protocol::JointMub => GroupTransfer::Joint {
                diags: joint_transfer_diagonals(group.num_wires()),
            },
        })
        .collect()
}

/// One block column's readout `O_b = P_b ⊗ Z_local` on a fragment, as
/// the action `O_b|f⟩ = phase · (−1)^{popcount(f & z)} · |f ⊕ x⟩` on
/// fragment basis states.
#[derive(Clone, Copy, Debug)]
struct Readout {
    /// Qubits the readout flips (its X and Y factors).
    x: usize,
    /// Qubits whose bit signs the amplitude (its Y and Z factors).
    z: usize,
    /// `i^{#Y}`.
    phase: Complex64,
}

impl Readout {
    /// Every column's readout, in block column order: base-4 digit `i`
    /// of column `b` is the Pauli (`I/X/Y/Z = 0/1/2/3`) on
    /// `out_qubits[i]`, times `Z` on every qubit of the `z_local` mask.
    fn columns(out_qubits: &[usize], z_local: usize) -> Vec<Readout> {
        (0..1usize << (2 * out_qubits.len()))
            .map(|b| {
                let mut r = Readout {
                    x: 0,
                    z: z_local,
                    phase: Complex64::new(1.0, 0.0),
                };
                for (i, &q) in out_qubits.iter().enumerate() {
                    let bit = 1usize << q;
                    match (b >> (2 * i)) & 3 {
                        1 => r.x |= bit,
                        2 => {
                            r.x |= bit;
                            r.z |= bit;
                            r.phase *= Complex64::i();
                        }
                        3 => r.z |= bit,
                        _ => {}
                    }
                }
                r
            })
            .collect()
    }
}

/// Reads a fragment's dense block table off its Choi run
/// ([`CircuitProgram::run_choi`] with `n_in` reference qubits): row `a`
/// (base-4 digit `i` = the Pauli on incoming slot `i`), column `b`
/// (`readouts[b]`), row-major. For each branch leaf `ψ` and readout
/// `O_b` it forms the reduced operator `M_b[j, k] = Σ_f conj(ψ[f, j]) ·
/// (O_b ψ)[f, k]` over the fragment index `f`, folds it into Pauli rows
/// `F[a, b] = Tr[σ_a · M_b]` and adds it weighted by the leaf's
/// probability. `M_b` is Hermitian, so only its upper triangle is
/// summed.
fn choi_block_table(sampler: &CompiledSampler, n_in: usize, readouts: &[Readout]) -> Vec<f64> {
    let d = 1usize << n_in;
    let dim_out = readouts.len();
    let mut table = vec![0.0f64; d * d * dim_out];
    // Pauli row of the flat index `j·d + k`: axis `i`'s digit is
    // `2·j_i + k_i` (`I/X/Y/Z` after the fold).
    let spread: Vec<usize> = (0..d)
        .map(|v| (0..n_in).map(|i| ((v >> i) & 1) << (2 * i)).sum())
        .collect();
    let row_of: Vec<usize> = (0..d * d)
        .map(|jk| (spread[jk >> n_in] << 1) | spread[jk & (d - 1)])
        .collect();
    let mut psi: Vec<Complex64> = Vec::new();
    let mut m = vec![C_ZERO; d * d];
    for leaf in sampler.leaves() {
        let amps = leaf.state.amplitudes();
        let width = leaf.state.num_qubits() - n_in;
        let f_mask = (1usize << width) - 1;
        // Fragment-major copy: `psi[f·d + j] = ψ[f | j << width]`.
        psi.clear();
        psi.resize(amps.len(), C_ZERO);
        for (idx, &a) in amps.iter().enumerate() {
            psi[(idx & f_mask) * d + (idx >> width)] = a;
        }
        for (b, r) in readouts.iter().enumerate() {
            m.fill(C_ZERO);
            for (f, row) in psi.chunks_exact(d).enumerate() {
                let h = f ^ r.x;
                let image = &psi[h * d..(h + 1) * d];
                let sign = if (h & r.z).count_ones() & 1 == 1 {
                    -1.0
                } else {
                    1.0
                };
                for (j, &a) in row.iter().enumerate() {
                    if a == C_ZERO {
                        continue;
                    }
                    let a = a.conj() * sign;
                    for (mjk, &c) in m[j * d + j..(j + 1) * d].iter_mut().zip(&image[j..]) {
                        *mjk += a * c;
                    }
                }
            }
            for j in 0..d {
                for k in j..d {
                    m[j * d + k] *= r.phase;
                    m[k * d + j] = m[j * d + k].conj();
                }
            }
            for i in 0..n_in {
                fold_choi_axis(&mut m, 1 << i, 1 << (n_in + i));
            }
            for (&row, v) in row_of.iter().zip(&m) {
                table[row * dim_out + b] += leaf.probability * v.re;
            }
        }
    }
    table
}

/// In-place change of basis on one reference axis of the flat
/// `M[j·d + k]` (`k_i` at stride `sk`, `j_i` at stride `sj`): the
/// quadruple `(m00, m01, m10, m11)` becomes the Pauli traces
/// `(I, X, Y, Z) = (m00 + m11, m01 + m10, i(m01 − m10), m00 − m11)`.
fn fold_choi_axis(m: &mut [Complex64], sk: usize, sj: usize) {
    for base in (0..m.len()).filter(|&i| i & (sk | sj) == 0) {
        let (m00, m01, m10, m11) = (m[base], m[base + sk], m[base + sj], m[base + sj + sk]);
        m[base] = m00 + m11;
        m[base + sk] = m01 + m10;
        m[base + sj] = Complex64::i() * (m01 - m10);
        m[base + sj + sk] = m00 - m11;
    }
}

/// One fragment's compiled expectation block, in CSR form over the
/// incoming index `a`: row `a` lists the surviving `(b_out, value)`
/// pairs of `F[a, b]`.
struct FragmentBlock {
    /// Incoming cut slots `(group, slot)`, ascending; slot `i` is the
    /// `i`-th base-4 digit of the row index `a`.
    in_slots: Vec<(usize, usize)>,
    /// Outgoing cut slots, ascending; slot `i` is the `i`-th base-4
    /// digit of the column index `b`.
    out_slots: Vec<(usize, usize)>,
    /// CSR row offsets, length `4^in + 1`.
    row_ptr: Vec<usize>,
    /// Column (outgoing) indices of the stored entries.
    cols: Vec<u32>,
    /// Stored entry values.
    vals: Vec<f64>,
}

/// Public per-fragment compilation summary (introspection for the
/// service and experiments).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FragmentBlockSummary {
    /// Fragment index in plan order.
    pub fragment: usize,
    /// Fragment width (local qubits).
    pub width: usize,
    /// Incoming cut wires.
    pub incoming: usize,
    /// Outgoing cut wires.
    pub outgoing: usize,
    /// Fragment runs compiled: 1, the run on the fragment's Choi state
    /// (`width + incoming` qubits).
    pub variants: usize,
    /// Entries surviving CSR sparsification, out of `4^(in+out)`.
    pub nnz: usize,
    /// Classical-outcome branches of the Choi run (1 for a unitary
    /// fragment; measurement fragments block over each outcome).
    pub outcome_branches: usize,
}

/// One step of the precompiled contraction schedule. The frontier's
/// axis bookkeeping is pick-independent — every product term runs the
/// same ops in the same order; only the transfer entries picked inside
/// an `Apply` vary — which is what makes prefix caching sound.
enum SweepOp {
    /// Contract fragment `fragment`'s block into the frontier.
    Absorb {
        fragment: usize,
        /// Frontier axis of each incoming slot at this walk position.
        in_pos: Vec<usize>,
        /// Surviving (non-incoming) frontier axes, in order.
        rest_pos: Vec<usize>,
    },
    /// Apply cut group `group`'s picked term to the frontier.
    Apply {
        group: usize,
        /// Frontier axis of each of the group's slots.
        axes: Vec<usize>,
    },
}

/// The precompiled contraction schedule plus the fused tail (see
/// [`FrontierSweep`]).
struct Schedule {
    ops: Vec<SweepOp>,
    /// `ops` index of each group's `Apply`, ascending in both.
    group_op: Vec<usize>,
    /// Frontier multiplications of one from-scratch, unfused term
    /// evaluation: 1 per absorb, 1 per wire of a per-wire apply, 1 per
    /// joint apply.
    ops_per_term: usize,
    /// For the last (fastest-varying) group: the pick-independent tail
    /// after its apply — all remaining absorbs — folded through each of
    /// its terms' (transposed) transfers. `fused_tail[t]` dotted with
    /// the frontier before the last apply is the term value, so the hot
    /// path of the sweep is one multiplication. `None` when the fold
    /// would be larger than the work it saves.
    fused_tail: Option<Vec<Vec<f64>>>,
}

/// Prefix-cache hit/op counters of one [`FrontierSweep`] (mirrored into
/// [`BackendReport`] by the contracted compile path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Terms evaluated.
    pub terms: usize,
    /// Frontier matrix multiplications actually performed.
    pub frontier_ops: usize,
    /// Frontier multiplications a cache-disabled evaluation of the same
    /// terms would perform (`ops_per_term × terms`).
    pub frontier_ops_uncached: usize,
    /// Σ resume depths: odometer digits whose partial frontier was
    /// served from the prefix stack.
    pub prefix_hits: usize,
    /// Σ re-applied groups: odometer digits whose partial frontier had
    /// to be rebuilt.
    pub prefix_rebuilds: usize,
}

/// All per-fragment blocks and per-group transfer matrices of one plan —
/// everything needed to evaluate any product term by contraction. Built
/// once per plan ([`FragmentBlocks::build`]); cached inside the compiled
/// plan, so the service's compiled-plan cache shares the blocks across
/// every job hitting the same [`crate::planner::PlanKey`].
pub struct FragmentBlocks {
    blocks: Vec<FragmentBlock>,
    transfers: Vec<GroupTransfer>,
    /// Per group: member wire ids, slot-aligned (diagnostics).
    group_wires: Vec<Vec<usize>>,
    schedule: Schedule,
    summaries: Vec<FragmentBlockSummary>,
    backend: BackendReport,
}

impl FragmentBlocks {
    /// Compiles every fragment block (one Choi-state run each) and every
    /// group transfer matrix for `plan` against a diagonal (Z/I)
    /// `observable`. Deterministic: identical plans produce bit-identical
    /// blocks.
    ///
    /// # Panics
    /// Panics when `!supports_contraction(plan)` (with the
    /// [`contraction_ineligibility`] reason) or the observable does not
    /// match the planned circuit.
    pub fn build(plan: &CutPlan, observable: &PauliString) -> Self {
        if let Some(reason) = contraction_ineligibility(plan) {
            panic!("plan does not support contracted compilation: {reason}");
        }
        let circuit = plan.circuit();
        assert_eq!(observable.num_qubits(), circuit.num_qubits());
        assert!(observable.is_diagonal());
        let transfers = group_transfers(&plan.groups);
        let group_wires: Vec<Vec<usize>> = plan
            .groups
            .iter()
            .map(|g| g.cuts.iter().map(|c| c.wire).collect())
            .collect();
        let mut groups_at_source = vec![Vec::new(); plan.fragments.len()];
        for (gi, g) in plan.groups.iter().enumerate() {
            groups_at_source[g.cuts[0].source_fragment].push(gi);
        }
        let mut blocks = Vec::with_capacity(plan.fragments.len());
        let mut summaries = Vec::with_capacity(plan.fragments.len());
        let mut backend = BackendReport::default();
        for (fi, frag) in plan.fragments.iter().enumerate() {
            let mut local = vec![usize::MAX; circuit.num_qubits()];
            for (i, &w) in frag.wires.iter().enumerate() {
                local[w] = i;
            }
            // Ascending (group, slot) — the canonical axis order.
            let mut in_slots: Vec<((usize, usize), usize)> = Vec::new();
            let mut out_slots: Vec<((usize, usize), usize)> = Vec::new();
            let mut out_wires: Vec<usize> = Vec::new();
            for (gi, g) in plan.groups.iter().enumerate() {
                for (si, cut) in g.cuts.iter().enumerate() {
                    if cut.dest_fragment == fi {
                        in_slots.push(((gi, si), local[cut.wire]));
                    }
                    if cut.source_fragment == fi {
                        out_slots.push(((gi, si), local[cut.wire]));
                        out_wires.push(cut.wire);
                    }
                }
            }
            // Z factors terminate on the wire's *last* fragment — any
            // wire still outgoing defers its Z through the cut channel.
            let z_local: usize = frag
                .wires
                .iter()
                .filter(|&&w| observable.op(w) == Pauli::Z && !out_wires.contains(&w))
                .map(|&w| 1usize << local[w])
                .sum();
            let out_qubits: Vec<usize> = out_slots.iter().map(|&(_, q)| q).collect();
            let in_qubits: Vec<usize> = in_slots.iter().map(|&(_, q)| q).collect();
            let readouts = Readout::columns(&out_qubits, z_local);
            let sampler =
                CircuitProgram::new(&fragment_circuit(circuit, frag)).run_choi(&in_qubits);
            backend.record(&sampler);
            let table = choi_block_table(&sampler, in_qubits.len(), &readouts);
            let dim_out = readouts.len();
            let num_rows = 1usize << (2 * in_qubits.len());
            let mut row_ptr = Vec::with_capacity(num_rows + 1);
            let mut cols: Vec<u32> = Vec::new();
            let mut csr_vals: Vec<f64> = Vec::new();
            row_ptr.push(0);
            for row in table.chunks(dim_out) {
                for (b, &x) in row.iter().enumerate() {
                    if x.abs() > SPARSE_CUTOFF {
                        cols.push(b as u32);
                        csr_vals.push(x);
                    }
                }
                row_ptr.push(cols.len());
            }
            summaries.push(FragmentBlockSummary {
                fragment: fi,
                width: frag.width(),
                incoming: in_slots.len(),
                outgoing: out_slots.len(),
                variants: 1,
                nnz: cols.len(),
                outcome_branches: sampler.leaves().len(),
            });
            blocks.push(FragmentBlock {
                in_slots: in_slots.into_iter().map(|(k, _)| k).collect(),
                out_slots: out_slots.into_iter().map(|(k, _)| k).collect(),
                row_ptr,
                cols,
                vals: csr_vals,
            });
        }
        let schedule = build_schedule(&blocks, &transfers, &groups_at_source, &group_wires);
        Self {
            blocks,
            transfers,
            group_wires,
            schedule,
            summaries,
            backend,
        }
    }

    /// Term counts per group, aligned with the plan's group order.
    pub fn group_lens(&self) -> Vec<usize> {
        self.transfers.iter().map(|t| t.num_terms()).collect()
    }

    /// Backend aggregation over every fragment's Choi run (the
    /// contracted analogue of the monolithic per-term report). Frontier
    /// and prefix-cache counters stay zero here — they belong to the
    /// sweep that actually evaluates terms ([`FrontierSweep::stats`]).
    pub fn backend_report(&self) -> BackendReport {
        self.backend
    }

    /// Per-fragment compilation summaries.
    pub fn summaries(&self) -> &[FragmentBlockSummary] {
        &self.summaries
    }

    /// Exact expectation of one product term: `pick[g]` selects group
    /// `g`'s QPD term. Pure contraction — no circuit simulation, no
    /// prefix cache, no fused tail: every op of the schedule runs from
    /// scratch. This is the cache-disabled reference the differential
    /// suite holds [`FrontierSweep`] against.
    pub fn term_value(&self, pick: &[usize]) -> f64 {
        assert_eq!(pick.len(), self.transfers.len());
        let mut vals = vec![1.0f64];
        let mut scratch = Vec::new();
        for op in &self.schedule.ops {
            self.exec_op(op, pick, &mut vals, &mut scratch);
        }
        debug_assert_eq!(vals.len(), 1);
        vals[0]
    }

    /// A fresh prefix-cached sweep over this plan's product terms. Feed
    /// it picks in [`qpd::QpdSpec::product`] odometer order (last group
    /// fastest) for amortized O(1) frontier work per term, or let
    /// [`FrontierSweep::for_each_term`] walk the odometer itself; any
    /// order is correct, just slower.
    pub fn sweep(&self) -> FrontierSweep<'_> {
        let num_groups = self.transfers.len();
        FrontierSweep {
            blocks: self,
            lens: self.group_lens(),
            last_pick: vec![0; num_groups],
            has_pick: false,
            snapshots: vec![Vec::new(); num_groups],
            vals: Vec::new(),
            scratch: Vec::new(),
            stats: SweepStats::default(),
        }
    }

    /// Executes one schedule op against the frontier `vals`, returning
    /// the frontier multiplications performed. An absorb builds the new
    /// frontier in `scratch` and swaps it into `vals`, so both buffers
    /// keep their capacity across calls.
    fn exec_op(
        &self,
        op: &SweepOp,
        pick: &[usize],
        vals: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
    ) -> usize {
        match op {
            SweepOp::Absorb {
                fragment,
                in_pos,
                rest_pos,
            } => {
                absorb_sparse(&self.blocks[*fragment], in_pos, rest_pos, vals, scratch);
                std::mem::swap(vals, scratch);
                1
            }
            SweepOp::Apply { group, axes } => self.apply_group(*group, pick, axes, vals),
        }
    }

    /// Applies group `gi`'s picked term along the frontier axes.
    fn apply_group(&self, gi: usize, pick: &[usize], axes: &[usize], vals: &mut [f64]) -> usize {
        let t = pick[gi];
        let nt = self.transfers[gi].num_terms();
        assert!(
            t < nt,
            "odometer pick {pick:?} selects term {t} for group {gi} (wires {:?}), \
             which has only {nt} terms",
            self.group_wires[gi]
        );
        match &self.transfers[gi] {
            GroupTransfer::PerWire { wires, per_term } => {
                // A group's wires all enter one fragment, so there are at
                // most MAX_INCOMING of them.
                let mut idx = [0usize; MAX_INCOMING];
                decode_odometer(t, &mut idx[..*wires], |_| per_term.len());
                for (slot, &ti) in idx[..*wires].iter().enumerate() {
                    apply_axis_4(vals, axes[slot], &per_term[ti]);
                }
                *wires
            }
            GroupTransfer::Joint { diags, .. } => {
                apply_joint_diag(vals, axes, &diags[t]);
                1
            }
        }
    }
}

/// A prefix-cached evaluator over one plan's product terms.
///
/// [`qpd::QpdSpec::product`] enumerates terms row-major with the last
/// group's digit varying fastest, so consecutive picks share a long
/// odometer prefix. The sweep keeps one frontier snapshot per group —
/// the state just before that group's apply step, a pure function of
/// the digits *before* it — and evaluates each term by resuming at its
/// first digit that differs from the previous pick. The
/// pick-independent tail after the last apply is pre-folded into a
/// per-term dot table, so the common case (only the fastest
/// digit moved) is a single dot product against the last snapshot.
///
/// Evaluation allocates nothing per term: the snapshots and a pair of
/// ping-pong frontier buffers (an absorb writes the next frontier into
/// the spare one and swaps) are refreshed in place and keep their
/// capacity from term to term. [`for_each_term`](Self::for_each_term)
/// walks the whole odometer and takes each term's resume digit from
/// the carry of the increment, so it needs neither a per-term index
/// decode nor a digit comparison.
pub struct FrontierSweep<'a> {
    blocks: &'a FragmentBlocks,
    /// Term count per group: the odometer radices.
    lens: Vec<usize>,
    last_pick: Vec<usize>,
    has_pick: bool,
    /// `snapshots[g]`: frontier values before group `g`'s apply, valid
    /// for the current `last_pick` prefix of length `g`.
    snapshots: Vec<Vec<f64>>,
    /// The working frontier and the spare buffer absorbs write into.
    vals: Vec<f64>,
    scratch: Vec<f64>,
    stats: SweepStats,
}

impl FrontierSweep<'_> {
    /// Exact expectation of one product term, reusing every partial
    /// frontier shared with the previous pick. Bit-for-bit
    /// deterministic: the value depends only on `pick`, never on the
    /// call sequence (resumed and from-scratch evaluations run the
    /// identical op sequence on identical snapshots).
    pub fn term_value(&mut self, pick: &[usize]) -> f64 {
        let num_groups = self.lens.len();
        assert_eq!(pick.len(), num_groups);
        // Resume at the first differing digit; snapshots[r] depends
        // only on pick[0..r], so a common prefix of length ≥ r keeps it
        // valid. Identical picks re-run just the fastest digit.
        let resume = if self.has_pick {
            let mut c = 0;
            while c < num_groups && pick[c] == self.last_pick[c] {
                c += 1;
            }
            c.min(num_groups - 1)
        } else {
            0
        };
        self.last_pick.copy_from_slice(pick);
        self.resume_at(resume)
    }

    /// Evaluates every product term in [`qpd::QpdSpec::product`]
    /// odometer order (last group fastest), passing each value to
    /// `visit`. The same values, bits and counters as calling
    /// [`term_value`](Self::term_value) on each pick in that order.
    pub fn for_each_term(&mut self, mut visit: impl FnMut(f64)) {
        let first = vec![0usize; self.lens.len()];
        visit(self.term_value(&first));
        // Advance the odometer: the carry stops at the last digit below
        // its radix, which is the first digit that differs from the
        // previous pick — the resume point.
        while let Some(g) = (0..self.lens.len())
            .rev()
            .find(|&g| self.last_pick[g] + 1 < self.lens[g])
        {
            self.last_pick[g] += 1;
            self.last_pick[g + 1..].fill(0);
            visit(self.resume_at(g));
        }
    }

    /// Evaluates `last_pick`, whose digits before `resume` are those of
    /// the previous evaluation.
    fn resume_at(&mut self, resume: usize) -> f64 {
        let Self {
            blocks,
            last_pick: pick,
            has_pick,
            snapshots,
            vals,
            scratch,
            stats,
            ..
        } = self;
        let sched = &blocks.schedule;
        let last = snapshots.len() - 1;
        stats.terms += 1;
        stats.prefix_hits += resume;
        stats.prefix_rebuilds += last + 1 - resume;
        stats.frontier_ops_uncached += sched.ops_per_term;
        let from_scratch = !*has_pick;
        *has_pick = true;
        // Replay ops up to (excluding) the last group's apply,
        // refreshing the snapshots the new digits invalidated.
        let end_op = sched.group_op[last];
        if from_scratch || resume < last {
            let start_op = if from_scratch {
                vals.clear();
                vals.push(1.0);
                0
            } else {
                vals.clone_from(&snapshots[resume]);
                sched.group_op[resume]
            };
            for op in &sched.ops[start_op..end_op] {
                if let SweepOp::Apply { group, .. } = op {
                    if *group > resume || from_scratch {
                        snapshots[*group].clone_from(vals);
                    }
                }
                stats.frontier_ops += blocks.exec_op(op, pick, vals, scratch);
            }
            snapshots[last].clone_from(vals);
        }
        let before_last = &snapshots[last];
        if let Some(fused) = &sched.fused_tail {
            stats.frontier_ops += 1;
            fused[pick[last]]
                .iter()
                .zip(before_last)
                .map(|(w, v)| w * v)
                .sum()
        } else {
            // Tail too large to fuse: run the last apply and the
            // trailing absorbs on the working frontier.
            vals.clone_from(before_last);
            for op in &sched.ops[end_op..] {
                stats.frontier_ops += blocks.exec_op(op, pick, vals, scratch);
            }
            debug_assert_eq!(vals.len(), 1);
            vals[0]
        }
    }

    /// The sweep's hit/op counters so far.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }
}

/// Cap on the fused-tail fold: skip fusing when the frontier before the
/// last apply or the per-term fold table would outgrow the work saved.
const MAX_FUSED_DIM: usize = 1 << 16;
const MAX_FUSED_TABLE: usize = 1 << 22;

/// Precompiles the contraction walk: simulates the frontier's axis
/// bookkeeping once (it is pick-independent) and records one op per
/// fragment absorb and per group apply, in program order. Structural
/// frontier corruption — a cut slot consumed before its source produced
/// it, or never consumed at all — panics here, naming the fragment,
/// group, slot and wire involved.
fn build_schedule(
    blocks: &[FragmentBlock],
    transfers: &[GroupTransfer],
    groups_at_source: &[Vec<usize>],
    group_wires: &[Vec<usize>],
) -> Schedule {
    let mut keys: Vec<(usize, usize)> = Vec::new();
    let mut ops = Vec::new();
    let mut group_op = vec![usize::MAX; transfers.len()];
    let mut ops_per_term = 0usize;
    let mut tail_dim = 1usize;
    for (fi, block) in blocks.iter().enumerate() {
        let in_pos: Vec<usize> = block
            .in_slots
            .iter()
            .map(|&(gi, si)| {
                keys.iter().position(|&k| k == (gi, si)).unwrap_or_else(|| {
                    panic!(
                        "contraction frontier corrupt: fragment {fi} consumes slot {si} of \
                         group {gi} (wire {}), which is not on the frontier {keys:?}",
                        group_wires[gi][si]
                    )
                })
            })
            .collect();
        let rest_pos: Vec<usize> = (0..keys.len()).filter(|p| !in_pos.contains(p)).collect();
        keys = rest_pos.iter().map(|&p| keys[p]).collect();
        keys.extend(block.out_slots.iter().copied());
        ops.push(SweepOp::Absorb {
            fragment: fi,
            in_pos,
            rest_pos,
        });
        ops_per_term += 1;
        for &gi in &groups_at_source[fi] {
            let axes: Vec<usize> = (0..group_wires[gi].len())
                .map(|si| {
                    keys.iter().position(|&k| k == (gi, si)).unwrap_or_else(|| {
                        panic!(
                            "contraction frontier corrupt: slot {si} of group {gi} (wire {}) \
                             missing from the frontier {keys:?} after absorbing fragment {fi}",
                            group_wires[gi][si]
                        )
                    })
                })
                .collect();
            group_op[gi] = ops.len();
            tail_dim = 1usize << (2 * keys.len());
            ops.push(SweepOp::Apply { group: gi, axes });
            ops_per_term += match &transfers[gi] {
                GroupTransfer::PerWire { wires, .. } => *wires,
                GroupTransfer::Joint { .. } => 1,
            };
        }
    }
    assert!(
        keys.is_empty(),
        "unconsumed cut axes after contraction: {keys:?}"
    );
    debug_assert!(group_op.windows(2).all(|w| w[0] < w[1]));
    let fused_tail = build_fused_tail(blocks, transfers, &ops, &group_op, tail_dim);
    Schedule {
        ops,
        group_op,
        ops_per_term,
        fused_tail,
    }
}

/// Folds the pick-independent tail after the last group's apply — all
/// remaining fragment absorbs, a linear functional `L` on the frontier —
/// through each last-group term's transposed transfer:
/// `⟨L, M_t·v⟩ = ⟨M_tᵀ·L, v⟩`, so each table row dotted with the
/// frontier before the last apply yields the term value in one
/// multiplication.
fn build_fused_tail(
    blocks: &[FragmentBlock],
    transfers: &[GroupTransfer],
    ops: &[SweepOp],
    group_op: &[usize],
    dim: usize,
) -> Option<Vec<Vec<f64>>> {
    let last = transfers.len() - 1;
    let nt = transfers[last].num_terms();
    if dim > MAX_FUSED_DIM || nt.saturating_mul(dim) > MAX_FUSED_TABLE {
        return None;
    }
    let apply_i = group_op[last];
    let SweepOp::Apply { axes, .. } = &ops[apply_i] else {
        unreachable!("group_op indexes an Apply op");
    };
    let tail = tail_functional(blocks, &ops[apply_i + 1..]);
    debug_assert_eq!(tail.len(), dim);
    let mut table = Vec::with_capacity(nt);
    for t in 0..nt {
        let mut w = tail.clone();
        match &transfers[last] {
            GroupTransfer::PerWire { wires, per_term } => {
                let mut idx = [0usize; MAX_INCOMING];
                decode_odometer(t, &mut idx[..*wires], |_| per_term.len());
                for (slot, &ti) in idx[..*wires].iter().enumerate() {
                    let m = &per_term[ti];
                    let mut mt = [[0.0f64; 4]; 4];
                    for (a, row) in m.iter().enumerate() {
                        for (b, &x) in row.iter().enumerate() {
                            mt[b][a] = x;
                        }
                    }
                    apply_axis_4(&mut w, axes[slot], &mt);
                }
            }
            GroupTransfer::Joint { diags, .. } => {
                // Diagonal transfers are their own transpose.
                apply_joint_diag(&mut w, axes, &diags[t]);
            }
        }
        table.push(w);
    }
    Some(table)
}

/// The linear functional `L` of the trailing absorbs (`L·v` is the
/// scalar those absorbs leave from the frontier `v`), pulled back from
/// `[1.0]` through them in reverse: `L_in[o] = Σ_{k ∈ row a(o)} vals[k] ·
/// L_out[rest(o) | cols[k] << 2·n_rest]`, `O(dim · row nnz)` in all.
fn tail_functional(blocks: &[FragmentBlock], trailing: &[SweepOp]) -> Vec<f64> {
    let mut tail = vec![1.0f64];
    for op in trailing.iter().rev() {
        let SweepOp::Absorb {
            fragment,
            in_pos,
            rest_pos,
        } = op
        else {
            unreachable!("the last apply is the schedule's final Apply op");
        };
        let block = &blocks[*fragment];
        let n_rest = rest_pos.len();
        tail = (0..1usize << (2 * (in_pos.len() + n_rest)))
            .map(|o| {
                let (a, rest) = split_index(o, in_pos, rest_pos);
                (block.row_ptr[a]..block.row_ptr[a + 1])
                    .map(|k| {
                        block.vals[k] * tail[rest | ((block.cols[k] as usize) << (2 * n_rest))]
                    })
                    .sum()
            })
            .collect();
    }
    tail
}

/// Splits frontier index `o` into the block row `a` its `in_pos` axes
/// spell and the index `rest` of its surviving `rest_pos` axes.
fn split_index(o: usize, in_pos: &[usize], rest_pos: &[usize]) -> (usize, usize) {
    let mut a = 0usize;
    for (slot, &p) in in_pos.iter().enumerate() {
        a |= ((o >> (2 * p)) & 3) << (2 * slot);
    }
    let mut rest = 0usize;
    for (r, &p) in rest_pos.iter().enumerate() {
        rest |= ((o >> (2 * p)) & 3) << (2 * r);
    }
    (a, rest)
}

/// Contracts one fragment's CSR block into the frontier `vals`, writing
/// the result to `next` (resized and zeroed in place): sums out the
/// fragment's incoming axes against the frontier and appends its
/// outgoing axes. Frontier index: axis `k` is base-4 digit `k`.
fn absorb_sparse(
    block: &FragmentBlock,
    in_pos: &[usize],
    rest_pos: &[usize],
    vals: &[f64],
    next: &mut Vec<f64>,
) {
    let n_out = block.out_slots.len();
    let n_rest = rest_pos.len();
    next.clear();
    next.resize(1usize << (2 * (n_rest + n_out)), 0.0);
    for (o, &v) in vals.iter().enumerate() {
        if v == 0.0 {
            continue;
        }
        let (a, rest) = split_index(o, in_pos, rest_pos);
        for k in block.row_ptr[a]..block.row_ptr[a + 1] {
            next[rest | ((block.cols[k] as usize) << (2 * n_rest))] += block.vals[k] * v;
        }
    }
}

/// In-place single-axis PTM application: `val'[.., a, ..] =
/// Σ_b m[a][b]·val[.., b, ..]` on base-4 axis `axis`.
fn apply_axis_4(vals: &mut [f64], axis: usize, m: &[[f64; 4]; 4]) {
    let stride = 1usize << (2 * axis);
    let mut base = 0;
    while base < vals.len() {
        for low in base..base + stride {
            let x = [
                vals[low],
                vals[low + stride],
                vals[low + 2 * stride],
                vals[low + 3 * stride],
            ];
            for (a, row) in m.iter().enumerate() {
                vals[low + a * stride] =
                    row[0] * x[0] + row[1] * x[1] + row[2] * x[2] + row[3] * x[3];
            }
        }
        base += 4 * stride;
    }
}

/// In-place diagonal multi-axis transfer application: every frontier
/// entry is scaled by the diagonal eigenvalue of the Pauli its group
/// digits spell (`axes[k]` is base-4 digit `k` of the diagonal index).
fn apply_joint_diag(vals: &mut [f64], axes: &[usize], diag: &[f64]) {
    for (o, v) in vals.iter_mut().enumerate() {
        let mut bidx = 0usize;
        for (k, &p) in axes.iter().enumerate() {
            bidx |= ((o >> (2 * p)) & 3) << (2 * k);
        }
        *v *= diag[bidx];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::joint::{apply_basis_term, apply_flip_term, JointWireCut};
    use crate::planner::CutPlanner;
    use qsim::{Circuit, DensityMatrix, Gate};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ladder(n: usize) -> Circuit {
        let mut c = Circuit::new(n, 0);
        c.ry(0.4, 0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c
    }

    /// Dense PTM of an `n`-wire channel given its sparse applier — the
    /// tomography reference the sparse diagonals are pinned against.
    fn ptm_dense(apply: impl Fn(&Matrix) -> Matrix, paulis: &[Matrix], d: usize) -> Vec<f64> {
        let dim4 = paulis.len();
        let mut r = vec![0.0; dim4 * dim4];
        for (b, pb) in paulis.iter().enumerate() {
            let image = apply(pb);
            for (a, pa) in paulis.iter().enumerate() {
                r[a * dim4 + b] = pa.matmul(&image).trace().re / d as f64;
            }
        }
        r
    }

    /// Checks every entry of every block of `plan` — stored or dropped by
    /// sparsification — against density-matrix process tomography of
    /// the fragment circuit: `F[a, b] = Tr[(P_b ⊗ Z_local) ·
    /// E_F(σ_a/2 ⊗ |0…0⟩⟨0…0|)]` with `E_F` run by
    /// [`qsim::execute_density`], independent of the Choi-state readout.
    fn assert_blocks_match_density_tomography(plan: &CutPlan, observable: &PauliString) {
        let blocks = FragmentBlocks::build(plan, observable);
        for (fi, frag) in plan.fragments.iter().enumerate() {
            let block = &blocks.blocks[fi];
            assert!(!block.vals.is_empty(), "fragment {fi}: all-zero block");
            let n = frag.wires.len();
            let local = |w: usize| frag.wires.iter().position(|&x| x == w).unwrap();
            let qubits = |slots: &[(usize, usize)]| -> Vec<usize> {
                slots
                    .iter()
                    .map(|&(gi, si)| local(plan.groups[gi].cuts[si].wire))
                    .collect()
            };
            let in_q = qubits(&block.in_slots);
            let out_q = qubits(&block.out_slots);
            let in_mask: usize = in_q.iter().map(|&q| 1usize << q).sum();
            let circuit = fragment_circuit(plan.circuit(), frag);
            for a in 0..1usize << (2 * in_q.len()) {
                let mut ops = vec![Pauli::I; n];
                for (i, &q) in in_q.iter().enumerate() {
                    ops[q] = Pauli::from_index((a >> (2 * i)) & 3);
                }
                let sigma = PauliString::new(ops).matrix();
                let scale = 0.5f64.powi(in_q.len() as i32);
                let input = Matrix::from_fn(1 << n, 1 << n, |r, c| {
                    if (r | c) & !in_mask == 0 {
                        sigma[(r, c)].scale(scale)
                    } else {
                        qlinalg::c64(0.0, 0.0)
                    }
                });
                let rho = qsim::execute_density(&circuit, &DensityMatrix::from_matrix(n, input));
                for b in 0..1usize << (2 * out_q.len()) {
                    let mut ops = vec![Pauli::I; n];
                    for &w in &frag.wires {
                        let outgoing = plan.groups.iter().any(|g| {
                            g.cuts
                                .iter()
                                .any(|c| c.wire == w && c.source_fragment == fi)
                        });
                        if observable.op(w) == Pauli::Z && !outgoing {
                            ops[local(w)] = Pauli::Z;
                        }
                    }
                    for (i, &q) in out_q.iter().enumerate() {
                        ops[q] = Pauli::from_index((b >> (2 * i)) & 3);
                    }
                    let expect = rho.expval_pauli(&PauliString::new(ops));
                    let stored = (block.row_ptr[a]..block.row_ptr[a + 1])
                        .find(|&k| block.cols[k] as usize == b)
                        .map_or(0.0, |k| block.vals[k]);
                    assert!(
                        (stored - expect).abs() < 1e-12,
                        "fragment {fi} F[{a}, {b}] = {stored}, tomography {expect}"
                    );
                }
            }
        }
    }

    /// Fan-in circuit: helper 0 and sources 1..=3 form one fragment, then
    /// the sources and target 4 form a second fragment fed by all three
    /// source wires at once. `local` adds each qubit's local gates.
    fn fan_in(local: impl Fn(&mut Circuit, usize)) -> Circuit {
        let mut c = Circuit::new(5, 0);
        for q in 0..4 {
            local(&mut c, q);
        }
        c.cx(0, 1).cx(1, 2).cx(2, 3);
        c.cx(1, 2).cx(2, 3).cx(3, 4);
        for q in 1..5 {
            local(&mut c, q);
        }
        c.cx(1, 2).cx(3, 4).cx(2, 3);
        for q in 1..5 {
            local(&mut c, q);
        }
        c
    }

    fn joint_fan_in_plan(c: &Circuit) -> CutPlan {
        let plan = CutPlanner::new(4).with_overlap(0.55).plan(c);
        assert!(
            plan.groups
                .iter()
                .any(|g| g.protocol == Protocol::JointMub && g.num_wires() == 3),
            "no 3-wire joint-MUB group: {plan:?}"
        );
        plan
    }

    #[test]
    fn ladder_rung_blocks_match_density_tomography() {
        let mut c = ladder(4);
        c.rz(0.9, 2).ry(1.3, 3);
        let plan = CutPlanner::new(2).with_overlap(0.8).plan(&c);
        assert_eq!(plan.num_cuts(), 2);
        assert_blocks_match_density_tomography(&plan, &PauliString::from_label("ZZZZ"));
    }

    #[test]
    fn rotated_joint_fan_in_blocks_match_density_tomography() {
        let c = fan_in(|c, q| {
            c.ry(0.3 + 0.4 * q as f64, q).rz(1.1 - 0.2 * q as f64, q);
        });
        let plan = joint_fan_in_plan(&c);
        assert_blocks_match_density_tomography(&plan, &PauliString::from_label("ZZZZZ"));
    }

    #[test]
    fn clifford_fan_in_blocks_match_density_tomography() {
        let c = fan_in(|c, q| {
            match q % 3 {
                0 => c.x(q),
                1 => c.h(q),
                _ => c.s(q),
            };
        });
        let plan = joint_fan_in_plan(&c);
        let blocks = FragmentBlocks::build(&plan, &PauliString::from_label("ZZZZZ"));
        assert_eq!(blocks.backend_report().clifford_fraction(), 1.0);
        assert_blocks_match_density_tomography(&plan, &PauliString::from_label("ZZZZZ"));
    }

    #[test]
    fn measurement_fragment_blocks_match_density_tomography() {
        // The second fragment measures, feeds the bit forward, resets
        // and reuses the measured qubit, all on its own classical bit.
        let mut c = Circuit::new(3, 1);
        c.ry(0.4, 0).cx(0, 1);
        c.cx(1, 2).ry(0.7, 2).measure(2, 0).x_if(1, 0);
        c.reset(2).ry(0.5, 2).cx(1, 2).rz(0.3, 1);
        let plan = CutPlanner::new(2).with_overlap(0.8).plan(&c);
        assert_eq!(contraction_ineligibility(&plan), None);
        let blocks = FragmentBlocks::build(&plan, &PauliString::from_label("ZZZ"));
        assert!(blocks
            .summaries()
            .iter()
            .any(|s| s.incoming > 0 && s.outcome_branches > 1));
        assert_blocks_match_density_tomography(&plan, &PauliString::from_label("ZZZ"));
    }

    #[test]
    fn nme_teleport_ptm_is_identity_at_full_overlap() {
        // f = 1 ⇒ the NME family's signed PTM sum must be exactly 1 on
        // each term-family member weighted by coefficients... simplest
        // invariant: Σ cᵢ·Rᵢ = I for the single-wire cut.
        let cut = NmeCut::new(1.0);
        let terms = cut.terms();
        let mut sum = [[0.0f64; 4]; 4];
        for t in &terms {
            let r = ptm_1q(&term_channel(t));
            for a in 0..4 {
                for b in 0..4 {
                    sum[a][b] += t.coefficient * r[a][b];
                }
            }
        }
        for (a, row) in sum.iter().enumerate() {
            for (b, &entry) in row.iter().enumerate() {
                let expect = if a == b { 1.0 } else { 0.0 };
                assert!((entry - expect).abs() < 1e-9, "Σ cᵢ·R[{a}][{b}] = {entry}");
            }
        }
    }

    #[test]
    fn sparse_joint_diagonals_match_dense_tomography() {
        // The class-structure construction must agree entry-for-entry
        // with full dense PTM tomography of the actual term channels —
        // including that every off-diagonal entry is exactly zero.
        for n in 1..=2usize {
            let jw = JointWireCut::new(n);
            let d = 1usize << n;
            let dim4 = 1usize << (2 * n);
            let paulis: Vec<Matrix> = (0..dim4)
                .map(|code| qsim::pauli::pauli_string_from_code(code, n).matrix())
                .collect();
            let diags = joint_transfer_diagonals(n);
            assert_eq!(diags.len(), d + 1);
            let mut dense: Vec<Vec<f64>> = jw
                .bases()
                .iter()
                .skip(1)
                .map(|u| ptm_dense(|p| apply_basis_term(u, p), &paulis, d))
                .collect();
            dense.push(ptm_dense(apply_flip_term, &paulis, d));
            for (t, (diag, full)) in diags.iter().zip(dense.iter()).enumerate() {
                for a in 0..dim4 {
                    for b in 0..dim4 {
                        let expect = if a == b { diag[a] } else { 0.0 };
                        assert!(
                            (full[a * dim4 + b] - expect).abs() < 1e-9,
                            "n={n} term {t}: R[{a}][{b}] = {} vs sparse {expect}",
                            full[a * dim4 + b]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn joint_transfer_sums_to_identity() {
        for n in 1..=3usize {
            let group = CutGroup {
                cuts: (0..n)
                    .map(|w| crate::planner::PlannedCut {
                        wire: w,
                        source_fragment: 0,
                        dest_fragment: 1,
                    })
                    .collect(),
                protocol: Protocol::JointMub,
                kappa: JointWireCut::new(n).kappa(),
            };
            let spec = group.spec();
            let Some(GroupTransfer::Joint { diags, .. }) =
                group_transfers(std::slice::from_ref(&group)).pop()
            else {
                panic!("joint group must build a diagonal transfer");
            };
            let dim4 = 1usize << (2 * n);
            for a in 0..dim4 {
                let sum: f64 = diags
                    .iter()
                    .zip(spec.terms().iter())
                    .map(|(diag, t)| t.coefficient * diag[a])
                    .sum();
                assert!((sum - 1.0).abs() < 1e-9, "n={n}: Σ cᵢ·diag[{a}] = {sum}");
            }
        }
    }

    #[test]
    fn contracted_terms_match_uncut_on_a_ladder() {
        let c = ladder(4);
        let obs = PauliString::from_label("ZZZZ");
        let plan = CutPlanner::new(2).with_overlap(0.8).plan(&c);
        assert!(supports_contraction(&plan));
        let blocks = FragmentBlocks::build(&plan, &obs);
        let lens = blocks.group_lens();
        let total: usize = lens.iter().product();
        // Σ cᵢ·termᵢ over the full odometer must equal the uncut value.
        let spec = qpd::QpdSpec::product(&plan.groups.iter().map(|g| g.spec()).collect::<Vec<_>>());
        assert_eq!(spec.len(), total);
        let mut value = 0.0;
        for combo in 0..total {
            let mut pick = vec![0usize; lens.len()];
            decode_odometer(combo, &mut pick, |g| lens[g]);
            value += spec.coefficients()[combo] * blocks.term_value(&pick);
        }
        let uncut = crate::planner::uncut_plan_expectation(&c, &obs);
        assert!(
            (value - uncut).abs() < 1e-8,
            "contracted {value} vs uncut {uncut}"
        );
    }

    #[test]
    fn measurement_fragments_are_eligible_when_clbits_stay_local() {
        // Measurement at the end of the last fragment: the clbit never
        // crosses a fragment boundary, so the plan contracts (ISSUE 10's
        // behaviour change — this used to force the monolithic path).
        let mut c = Circuit::new(3, 1);
        c.ry(0.4, 0).cx(0, 1).cx(1, 2).measure(2, 0);
        let plan = CutPlanner::new(2).plan(&c);
        assert!(!plan.groups.is_empty());
        assert_eq!(contraction_ineligibility(&plan), None);
    }

    #[test]
    fn cross_fragment_feedforward_falls_back_to_monolithic() {
        // Measure in one fragment, condition in a later one: the shared
        // classical bit threads a side channel between fragments.
        let mut c = Circuit::new(3, 1);
        c.ry(0.4, 0).cx(0, 1).measure(1, 0).cx(1, 2).x_if(2, 0);
        let plan = CutPlanner::new(2).plan(&c);
        assert!(!plan.groups.is_empty());
        let reason = contraction_ineligibility(&plan).expect("cross-fragment clbit must block");
        assert!(
            reason.contains("classical bit 0"),
            "reason does not name the shared bit: {reason}"
        );
        assert!(!supports_contraction(&plan));
    }

    #[test]
    fn uncut_plans_fall_back_to_monolithic() {
        let c = ladder(3);
        let plan = CutPlanner::new(3).plan(&c);
        assert!(plan.groups.is_empty());
        assert!(!supports_contraction(&plan));
        let reason = contraction_ineligibility(&plan).unwrap();
        assert!(reason.contains("no cuts"), "{reason}");
    }

    #[test]
    fn odometer_walk_matches_picked_terms_bit_for_bit() {
        // A ladder and a fan-in with a joint group: walking the odometer
        // must reproduce per-pick evaluation exactly, counters included,
        // and leave the sweep consistent for later picks.
        let ladder_plan = CutPlanner::new(2).with_overlap(0.8).plan(&ladder(5));
        let fan_in_circuit = fan_in(|c, q| {
            c.ry(0.3 + 0.4 * q as f64, q);
        });
        let cases = [
            (ladder_plan, PauliString::from_label("ZZZZZ")),
            (
                joint_fan_in_plan(&fan_in_circuit),
                PauliString::from_label("ZZZZZ"),
            ),
        ];
        for (plan, obs) in cases {
            let blocks = FragmentBlocks::build(&plan, &obs);
            let lens = blocks.group_lens();
            let total: usize = lens.iter().product();
            let mut picked = blocks.sweep();
            let mut pick = vec![0usize; lens.len()];
            let want: Vec<u64> = (0..total)
                .map(|combo| {
                    decode_odometer(combo, &mut pick, |g| lens[g]);
                    picked.term_value(&pick).to_bits()
                })
                .collect();
            let mut walked = blocks.sweep();
            // Start from a stale state: the walk must not depend on it.
            pick.fill(0);
            pick[0] = lens[0] - 1;
            walked.term_value(&pick);
            let before = walked.stats();
            let mut got = Vec::with_capacity(total);
            walked.for_each_term(|v| got.push(v.to_bits()));
            assert_eq!(got, want);
            let (p, w) = (picked.stats(), walked.stats());
            assert_eq!(w.terms - before.terms, p.terms);
            assert_eq!(
                w.frontier_ops_uncached - before.frontier_ops_uncached,
                p.frontier_ops_uncached
            );
            for combo in [0, total / 3, total - 1] {
                decode_odometer(combo, &mut pick, |g| lens[g]);
                assert_eq!(
                    walked.term_value(&pick).to_bits(),
                    want[combo],
                    "combo {combo} after the walk"
                );
            }
        }
        // From a fresh sweep, the walk's counters are those of picking.
        let plan = CutPlanner::new(2).with_overlap(0.8).plan(&ladder(6));
        let blocks = FragmentBlocks::build(&plan, &PauliString::from_label("ZZZZZZ"));
        let lens = blocks.group_lens();
        let mut picked = blocks.sweep();
        let mut pick = vec![0usize; lens.len()];
        for combo in 0..lens.iter().product() {
            decode_odometer(combo, &mut pick, |g| lens[g]);
            picked.term_value(&pick);
        }
        let mut walked = blocks.sweep();
        walked.for_each_term(|_| {});
        assert_eq!(walked.stats(), picked.stats());
    }

    #[test]
    fn sweep_matches_uncached_evaluation_on_a_ladder() {
        let c = ladder(5);
        let obs = PauliString::from_label("ZZZZZ");
        let plan = CutPlanner::new(2).with_overlap(0.8).plan(&c);
        let blocks = FragmentBlocks::build(&plan, &obs);
        let lens = blocks.group_lens();
        let total: usize = lens.iter().product();
        let mut sweep = blocks.sweep();
        for combo in 0..total {
            let mut pick = vec![0usize; lens.len()];
            decode_odometer(combo, &mut pick, |g| lens[g]);
            let cached = sweep.term_value(&pick);
            let fresh = blocks.term_value(&pick);
            assert!(
                (cached - fresh).abs() < 1e-12,
                "combo {combo}: cached {cached} vs fresh {fresh}"
            );
        }
        let s = sweep.stats();
        assert_eq!(s.terms, total);
        assert!(s.prefix_hits > 0, "odometer sweep never hit the cache");
        assert!(
            s.frontier_ops < s.frontier_ops_uncached,
            "cache did not save work: {} vs {}",
            s.frontier_ops,
            s.frontier_ops_uncached
        );
    }

    /// Change of basis from the prep projectors `|0⟩, |1⟩, |+⟩, |+i⟩` to
    /// halved Paulis (rows `I/X/Y/Z`): `I/2 = ½|0⟩⟨0| + ½|1⟩⟨1|`,
    /// `X/2 = |+⟩⟨+| − I/2`, `Y/2 = |+i⟩⟨+i| − I/2`,
    /// `Z/2 = ½|0⟩⟨0| − ½|1⟩⟨1|`.
    const PREP_TO_PAULI: [[f64; 4]; 4] = [
        [0.5, 0.5, 0.0, 0.0],
        [-0.5, -0.5, 1.0, 0.0],
        [-0.5, -0.5, 0.0, 1.0],
        [0.5, -0.5, 0.0, 0.0],
    ];

    /// The four-prep fold, the reference for the Choi-state readout: one
    /// run per variant, incoming qubit `i` prepared in prep `digit i of
    /// v` (`|0⟩, |1⟩, |+⟩, |+i⟩`), every column read with `expval_pauli`,
    /// then [`PREP_TO_PAULI`] along each incoming axis. `readouts.len()`
    /// must be a power of 4.
    fn four_prep_table(
        circuit: &Circuit,
        in_qubits: &[usize],
        readouts: &[PauliString],
    ) -> Vec<f64> {
        let dim_out = readouts.len();
        let n_out = dim_out.trailing_zeros() as usize / 2;
        let mut table = vec![0.0f64; (1usize << (2 * in_qubits.len())) * dim_out];
        for (v, row) in table.chunks_mut(dim_out).enumerate() {
            let mut prepped = Circuit::new(circuit.num_qubits(), circuit.num_clbits());
            for (i, &q) in in_qubits.iter().enumerate() {
                match (v >> (2 * i)) & 3 {
                    1 => prepped.x(q),
                    2 => prepped.h(q),
                    3 => prepped.h(q).s(q),
                    _ => &mut prepped,
                };
            }
            prepped.compose(circuit);
            let sampler = CompiledSampler::compile(&prepped, None);
            for (slot, obs) in row.iter_mut().zip(readouts) {
                *slot = sampler
                    .leaves()
                    .iter()
                    .map(|l| l.probability * l.state.expval_pauli(obs))
                    .sum();
            }
        }
        for i in 0..in_qubits.len() {
            apply_axis_4(&mut table, n_out + i, &PREP_TO_PAULI);
        }
        table
    }

    /// A seeded random fragment on `width` qubits and 2 classical bits:
    /// an optional Clifford opener (long enough for the tableau prefix),
    /// then `gates` rotations, Cliffords and CXs, plus mid-circuit
    /// measurement, reset and classically conditioned gates when
    /// `branching`.
    fn random_fragment(
        width: usize,
        opener: bool,
        gates: usize,
        branching: bool,
        rng: &mut StdRng,
    ) -> Circuit {
        let mut c = Circuit::new(width, 2);
        if opener {
            for q in 0..width {
                c.h(q).s(q);
            }
            for q in 1..width {
                c.cx(q - 1, q);
            }
        }
        for _ in 0..gates {
            let q = rng.gen_range(0..width);
            let theta = 3.0 * rng.gen::<f64>();
            let bit = rng.gen_range(0..2);
            match rng.gen_range(0..if branching { 10 } else { 6 }) {
                0 => c.ry(theta, q),
                1 => c.rz(theta, q),
                2 => c.rx(theta, q),
                3 => c.h(q),
                4 => c.s(q),
                5 if width > 1 => c.cx(q, (q + 1 + rng.gen_range(0..width - 1)) % width),
                5 => c.x(q),
                6 => c.measure(q, bit),
                7 => c.reset(q),
                8 => c.x_if(q, bit),
                _ => c.gate_if(Gate::Ry(theta), &[q], bit, true),
            };
        }
        c
    }

    /// Builds the Choi-state block table of `circuit` and checks every
    /// entry against [`four_prep_table`] to 1e−12. Returns the Choi run.
    fn assert_choi_matches_four_prep(
        circuit: &Circuit,
        in_qubits: &[usize],
        out_qubits: &[usize],
        z_local: usize,
    ) -> CompiledSampler {
        let readouts = Readout::columns(out_qubits, z_local);
        let strings: Vec<PauliString> = (0..readouts.len())
            .map(|b| {
                let mut ops: Vec<Pauli> = (0..circuit.num_qubits())
                    .map(|q| {
                        if (z_local >> q) & 1 == 1 {
                            Pauli::Z
                        } else {
                            Pauli::I
                        }
                    })
                    .collect();
                for (i, &q) in out_qubits.iter().enumerate() {
                    ops[q] = Pauli::from_index((b >> (2 * i)) & 3);
                }
                PauliString::new(ops)
            })
            .collect();
        let sampler = CircuitProgram::new(circuit).run_choi(in_qubits);
        let got = choi_block_table(&sampler, in_qubits.len(), &readouts);
        let want = four_prep_table(circuit, in_qubits, &strings);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() < 1e-12,
                "in {in_qubits:?} out {out_qubits:?} z {z_local:#b}: entry {i} Choi {g} vs \
                 four-prep {w}\n{circuit:?}"
            );
        }
        sampler
    }

    #[test]
    fn choi_blocks_match_the_four_prep_fold() {
        let mut rng = StdRng::seed_from_u64(17);
        let (mut tableau, mut dense, mut branched) = (0, 0, 0);
        for n_in in 0..=4usize {
            for trial in 0..4 {
                let width = (n_in + rng.gen_range(0..3)).max(1);
                let opener = rng.gen_bool(0.5);
                let circuit = random_fragment(width, opener, 3 * width + 2, trial > 0, &mut rng);
                let mut order: Vec<usize> = (0..width).collect();
                for i in (1..width).rev() {
                    order.swap(i, rng.gen_range(0..i + 1));
                }
                let in_qubits = &order[..n_in];
                // Outgoing wires may pass straight through from incoming
                // ones; `Z_local` sits on the remaining wires.
                let n_out = rng.gen_range(0..width.min(2) + 1);
                let mut out_qubits: Vec<usize> = order.clone();
                out_qubits.rotate_left(rng.gen_range(0..width));
                out_qubits.truncate(n_out);
                let z_local: usize = (0..width)
                    .filter(|q| !out_qubits.contains(q) && rng.gen_bool(0.6))
                    .map(|q| 1usize << q)
                    .sum();
                let sampler =
                    assert_choi_matches_four_prep(&circuit, in_qubits, &out_qubits, z_local);
                if sampler.clifford_prefix().prefix_len > 0 {
                    tableau += 1;
                } else {
                    dense += 1;
                }
                if n_in > 0 && sampler.leaves().len() > 1 {
                    branched += 1;
                }
            }
        }
        assert!(
            tableau > 0 && dense > 0 && branched > 0,
            "{tableau} / {dense} / {branched}"
        );
    }

    #[test]
    fn choi_blocks_match_the_four_prep_fold_at_max_incoming() {
        // An 8-wide unitary fragment fed on every wire: 4^8 reference
        // runs, so the circuit is kept short.
        let mut rng = StdRng::seed_from_u64(23);
        let circuit = random_fragment(MAX_INCOMING, false, 6, false, &mut rng);
        let in_qubits: Vec<usize> = (0..MAX_INCOMING).collect();
        assert_choi_matches_four_prep(&circuit, &in_qubits, &[], 0b1011_0110);
    }

    #[test]
    fn pulled_back_tail_matches_basis_vector_absorbs() {
        // Fan-out: fragment 0 hands wire 0 to fragment 1 and wire 1 to
        // fragment 2, so the last group's apply is followed by two
        // absorbs. The angles give both trailing blocks signed X/Y/Z
        // rows.
        let mut c = Circuit::new(4, 0);
        c.ry(0.4, 0).ry(0.9, 1).cx(0, 1).rz(0.3, 0);
        c.cx(0, 2).ry(2.5, 2).ry(1.1, 0);
        c.rx(0.5, 1).cx(1, 3).ry(2.2, 3).rx(0.8, 1);
        let plan = CutPlanner::new(2).with_overlap(0.8).plan(&c);
        let blocks = FragmentBlocks::build(&plan, &PauliString::from_label("ZZZZ"));
        let sched = &blocks.schedule;
        assert!(sched.fused_tail.is_some());
        let trailing = &sched.ops[sched.group_op[plan.groups.len() - 1] + 1..];
        assert!(trailing.len() >= 2, "{} trailing absorbs", trailing.len());
        let got = tail_functional(&blocks.blocks, trailing);
        // The reference: absorb each basis vector of the frontier forward.
        let mut scratch = Vec::new();
        let want: Vec<f64> = (0..got.len())
            .map(|e| {
                let mut vals = vec![0.0f64; got.len()];
                vals[e] = 1.0;
                for op in trailing {
                    blocks.exec_op(op, &[], &mut vals, &mut scratch);
                }
                assert_eq!(vals.len(), 1);
                vals[0]
            })
            .collect();
        assert!(
            want.iter().any(|&w| w < -0.1),
            "tail without a sign {want:?}"
        );
        for (e, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-12, "tail[{e}] = {g}, basis-vector {w}");
        }
    }

    #[test]
    fn choi_width_limit_is_a_named_rule() {
        // Fragment 0 spans wires 0..24; wires 16..24 then enter fragment
        // 1, which also spans 24..40: 24 wide with 8 incoming wires is a
        // 32-qubit Choi run. Only planned, never simulated.
        let mut c = Circuit::new(40, 0);
        for q in 0..23 {
            c.cx(q, q + 1);
        }
        for q in 16..24 {
            c.cx(q + 8, q);
        }
        for q in 24..32 {
            c.cx(q, q + 8);
        }
        let plan = CutPlanner::new(24).with_overlap(0.8).plan(&c);
        assert_eq!(plan.fragments.len(), 2);
        assert_eq!(plan.fragments[1].width(), 24);
        assert_eq!(plan.num_cuts(), MAX_INCOMING);
        let reason = contraction_ineligibility(&plan).expect("32 Choi qubits must be rejected");
        assert!(
            reason.contains("fragment 1") && reason.contains("32 qubits"),
            "{reason}"
        );
        assert!(reason.contains("MAX_CHOI_QUBITS"), "{reason}");
    }
}
