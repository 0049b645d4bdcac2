//! # qsim — quantum circuit simulator substrate
//!
//! A from-scratch statevector and density-matrix simulator replacing the
//! Qiskit Aer backend used by the paper (Bechtold et al., IPPS 2024,
//! arXiv:2403.09690 — reference \[31\]). It supports everything the paper's
//! cut circuits require:
//!
//! * mid-circuit Z-basis **measurement** into classical bits,
//! * **classically-controlled gates** (teleportation feed-forward),
//! * **reset**/initialisation (the measure-and-prepare QPD term),
//! * exact expectation values and Born-rule shot sampling.
//!
//! Modules:
//!
//! * [`gate`] / [`circuit`] — gate library and circuit IR.
//! * [`dag`] — circuit DAG analysis (wire lifetimes, dependency edges,
//!   width-bounded fragment extraction) for the `wirecut` cut planner.
//! * [`statevector`] — in-place strided gate kernels.
//! * [`density`] — exact mixed-state evolution (Kraus, partial trace).
//! * [`channel`] — superoperators and process tomography, used to verify
//!   the paper's channel identities (Eq. 19, 22, 27) exactly.
//! * [`executor`] — per-shot runs, exact branch enumeration, and the
//!   compiled branch-tree sampler used by the experiment harness.
//! * [`random`] — Haar-random unitaries/states (Mezzadri, reference \[30\]).
//! * [`pauli`] — Pauli strings and Pauli-basis expansions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod circuit;
pub mod dag;
pub mod density;
pub mod executor;
pub mod fuse;
pub mod gate;
pub mod noise;
pub mod pauli;
pub mod random;
pub mod stabilizer;
pub mod statevector;

pub use channel::Superoperator;
pub use circuit::{embed_unitary, Circuit, Condition, Instruction, Op};
pub use dag::{
    fragment_circuit, fragments_by_width, greedy_fragments, merge_fragments, CircuitDag, Fragment,
    WireLifetime,
};
pub use density::DensityMatrix;
pub use executor::{
    computational_basis_index, execute_density, execute_density_branches, run_shot, run_shots,
    BranchLeaf, CircuitProgram, CompiledSampler, Counts, DensityBranch, Shot,
};
pub use fuse::{fuse_single_qubit_runs, FusionStats};
pub use gate::Gate;
pub use noise::{execute_density_noisy, NoiseChannel, NoiseModel};
pub use pauli::{Pauli, PauliString};
pub use random::{
    ginibre, haar_single_qubit_workload, haar_state, haar_unitary, random_unitary_circuit,
    standard_normal,
};
pub use stabilizer::{clifford_prefix_len, is_clifford_gate, CliffordPrefix, Tableau};
pub use statevector::StateVector;
