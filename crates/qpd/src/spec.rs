//! Quasiprobability decomposition specifications.
//!
//! A QPD (paper Eq. 11) writes a target operation as `E = Σᵢ cᵢ Fᵢ` with
//! implementable `Fᵢ` and real coefficients summing to 1. The sampling
//! cost is governed by `κ = Σᵢ|cᵢ|` (Eq. 12–13): reproducing `E`'s
//! expectation values to accuracy ε needs `O(κ²/ε²)` shots.
//!
//! A [`QpdSpec`] keeps what sampling reads — each term's coefficient and
//! pair count — in flat arrays, and keeps labels factored: the product
//! of several decompositions ([`QpdSpec::product`], the spec of a
//! multi-cut plan) stores its factors' label tables and spells a term's
//! `⊗`-joined label only when [`QpdSpec::label`] or [`QpdSpec::terms`]
//! asks for it.

/// Metadata of one QPD term: its signed coefficient, a display label, and
/// how many pre-shared entangled pairs executing it consumes (0 for
/// measure-and-prepare terms, 1 for each teleportation).
#[derive(Clone, Debug)]
pub struct TermSpec {
    /// Signed quasiprobability coefficient `cᵢ`.
    pub coefficient: f64,
    /// Human-readable label (e.g. `"tel-H"`, `"meas-prep"`).
    pub label: String,
    /// Entangled pairs consumed per execution of this term.
    pub pairs_consumed: f64,
}

/// The coefficient structure of a quasiprobability decomposition.
///
/// Coefficients and pair counts are stored flat, one entry per term, so
/// every estimator and allocator reads them without touching a label.
/// Labels are display metadata and stay **factored**: a decomposition
/// built from term metadata keeps its own label table, while a
/// [`product`](QpdSpec::product) keeps only its factors' tables and
/// spells a term's `⊗` join on demand ([`label`](QpdSpec::label)). A
/// product of `Π mᵢ` terms therefore costs two `f64` per term and no
/// string at all.
#[derive(Clone, Debug)]
pub struct QpdSpec {
    coefficients: Vec<f64>,
    pairs: Vec<f64>,
    labels: Labels,
}

/// Term labels, kept factored.
#[derive(Clone, Debug)]
enum Labels {
    /// One label per term.
    Table(Vec<String>),
    /// The factors of a product with their term counts; term `i`'s label
    /// joins the factors' labels at `i`'s odometer digits, skipping the
    /// `⊗` before the first non-empty one. A factor that is itself a
    /// product stays one factor: that skip applies within each product,
    /// so splicing its factors into the outer list would change the
    /// joins of empty labels.
    Product(Vec<(usize, Labels)>),
}

impl Labels {
    /// Appends term `index`'s label to `out`.
    fn write(&self, index: usize, out: &mut String) {
        match self {
            Labels::Table(table) => out.push_str(&table[index]),
            Labels::Product(factors) => {
                let start = out.len();
                let mut stride: usize = factors.iter().map(|(len, _)| len).product();
                for (len, factor) in factors {
                    stride /= len;
                    if out.len() > start {
                        out.push('⊗');
                    }
                    factor.write(index / stride % len, out);
                }
            }
        }
    }
}

impl QpdSpec {
    /// Builds a spec from term metadata.
    ///
    /// # Panics
    /// Panics if empty or if any coefficient is non-finite.
    pub fn new(terms: Vec<TermSpec>) -> Self {
        let mut coefficients = Vec::with_capacity(terms.len());
        let mut pairs = Vec::with_capacity(terms.len());
        let labels = terms
            .into_iter()
            .map(|t| {
                coefficients.push(t.coefficient);
                pairs.push(t.pairs_consumed);
                t.label
            })
            .collect();
        Self::from_flat(coefficients, pairs, Labels::Table(labels))
    }

    fn from_flat(coefficients: Vec<f64>, pairs: Vec<f64>, labels: Labels) -> Self {
        assert!(!coefficients.is_empty(), "QPD needs at least one term");
        assert!(
            coefficients.iter().all(|c| c.is_finite()),
            "non-finite QPD coefficient"
        );
        Self {
            coefficients,
            pairs,
            labels,
        }
    }

    /// Convenience constructor from `(coefficient, label, pairs)` tuples.
    pub fn from_parts(parts: &[(f64, &str, f64)]) -> Self {
        Self::new(
            parts
                .iter()
                .map(|&(c, l, p)| TermSpec {
                    coefficient: c,
                    label: l.to_string(),
                    pairs_consumed: p,
                })
                .collect(),
        )
    }

    /// Materialises every term's metadata, label strings included. This
    /// allocates one `String` per term, so it is for diagnostics and
    /// display; estimators read [`coefficients`](QpdSpec::coefficients).
    pub fn terms(&self) -> Vec<TermSpec> {
        (0..self.len())
            .map(|i| TermSpec {
                coefficient: self.coefficients[i],
                label: self.label(i),
                pairs_consumed: self.pairs[i],
            })
            .collect()
    }

    /// Term `index`'s label; a product term's is its factors' labels
    /// joined with `⊗`.
    pub fn label(&self, index: usize) -> String {
        assert!(index < self.len(), "term {index} of {}", self.len());
        let mut label = String::new();
        self.labels.write(index, &mut label);
        label
    }

    /// Number of terms `m`.
    pub fn len(&self) -> usize {
        self.coefficients.len()
    }

    /// `true` when there are no terms (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.coefficients.is_empty()
    }

    /// Signed coefficients `cᵢ`.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// `κ = Σ|cᵢ|` — the one-shot sampling overhead factor (Eq. 12).
    pub fn kappa(&self) -> f64 {
        self.coefficients.iter().map(|c| c.abs()).sum()
    }

    /// `κ²` — the multiplicative shot overhead to reach fixed accuracy.
    pub fn sampling_overhead(&self) -> f64 {
        let k = self.kappa();
        k * k
    }

    /// Sum of signed coefficients; must be 1 for a valid decomposition of
    /// a trace-preserving target.
    pub fn coefficient_sum(&self) -> f64 {
        self.coefficients.iter().sum()
    }

    /// Sampling probabilities `pᵢ = |cᵢ|/κ` (Eq. 12).
    pub fn probabilities(&self) -> Vec<f64> {
        let k = self.kappa();
        assert!(k > 0.0, "zero-kappa QPD");
        self.coefficients.iter().map(|c| c.abs() / k).collect()
    }

    /// Signs `sign(cᵢ)` as ±1.
    pub fn signs(&self) -> Vec<f64> {
        self.coefficients.iter().map(|c| c.signum()).collect()
    }

    /// Expected entangled pairs consumed per QPD sample:
    /// `Σᵢ pᵢ · pairsᵢ`.
    pub fn expected_pairs_per_sample(&self) -> f64 {
        let probs = self.probabilities();
        self.pairs
            .iter()
            .zip(probs.iter())
            .map(|(&pairs, &p)| p * pairs)
            .sum()
    }

    /// Checks structural validity: coefficients sum to 1 within `tol`.
    pub fn validate(&self, tol: f64) -> Result<(), String> {
        let s = self.coefficient_sum();
        if (s - 1.0).abs() > tol {
            return Err(format!("QPD coefficients sum to {s}, expected 1"));
        }
        Ok(())
    }

    /// The product QPD of several independent decompositions — the
    /// coefficient structure of a whole multi-cut execution *plan*:
    /// one term per combination of one term from each factor, with
    /// coefficient `Π cᵢ`, label `l₁⊗l₂⊗…` and summed pair consumption.
    ///
    /// Terms are enumerated row-major (the **last** factor's index moves
    /// fastest), matching an odometer over `combo[g] = (i / strideᵍ) %
    /// lenᵍ`; plan compilers that evaluate product terms must use the
    /// same order so shot allocations line up term-by-term.
    /// `κ` multiplies: `κ(product) = Π κᵢ`.
    ///
    /// Coefficients and pair counts are computed by a left fold over the
    /// factors (`((1·c₁)·c₂)·…`, `((0+p₁)+p₂)+…`) into flat per-term
    /// arrays, also when a factor is itself a product. Labels are not
    /// built: the product keeps its factors' label tables, and
    /// [`label`](QpdSpec::label) joins them per term on demand.
    ///
    /// # Panics
    /// Panics when `specs` is empty.
    pub fn product(specs: &[QpdSpec]) -> QpdSpec {
        assert!(!specs.is_empty(), "product of zero QPDs");
        let mut coefficients = vec![1.0];
        let mut pairs = vec![0.0];
        for spec in specs {
            let len = coefficients.len() * spec.len();
            let mut next_coefficients = Vec::with_capacity(len);
            let mut next_pairs = Vec::with_capacity(len);
            for (&c, &p) in coefficients.iter().zip(&pairs) {
                for (&tc, &tp) in spec.coefficients.iter().zip(&spec.pairs) {
                    next_coefficients.push(c * tc);
                    next_pairs.push(p + tp);
                }
            }
            coefficients = next_coefficients;
            pairs = next_pairs;
        }
        let labels = Labels::Product(specs.iter().map(|s| (s.len(), s.labels.clone())).collect());
        Self::from_flat(coefficients, pairs, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harada_like() -> QpdSpec {
        // The γ = 3 optimal cut: coefficients (+1, +1, −1).
        QpdSpec::from_parts(&[
            (1.0, "meas-H", 0.0),
            (1.0, "meas-SH", 0.0),
            (-1.0, "meas-prep", 0.0),
        ])
    }

    #[test]
    fn kappa_of_harada_cut_is_three() {
        let spec = harada_like();
        assert!((spec.kappa() - 3.0).abs() < 1e-14);
        assert!((spec.sampling_overhead() - 9.0).abs() < 1e-14);
        assert!(spec.validate(1e-12).is_ok());
    }

    #[test]
    fn probabilities_normalise() {
        let spec = harada_like();
        let p = spec.probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-14);
        for &pi in &p {
            assert!((pi - 1.0 / 3.0).abs() < 1e-14);
        }
    }

    #[test]
    fn signs_follow_coefficients() {
        let spec = harada_like();
        assert_eq!(spec.signs(), vec![1.0, 1.0, -1.0]);
    }

    #[test]
    fn theorem2_coefficients_at_k() {
        // a = (k²+1)/(k+1)², b = (k−1)²/(k+1)²; κ = 2a + b.
        let k: f64 = 0.5;
        let a = (k * k + 1.0) / ((k + 1.0) * (k + 1.0));
        let b = (k - 1.0) * (k - 1.0) / ((k + 1.0) * (k + 1.0));
        let spec = QpdSpec::from_parts(&[
            (a, "tel-H", 1.0),
            (a, "tel-SH", 1.0),
            (-b, "meas-prep", 0.0),
        ]);
        let gamma = 4.0 * (k * k + 1.0) / ((k + 1.0) * (k + 1.0)) - 1.0;
        assert!((spec.kappa() - gamma).abs() < 1e-12);
        assert!(spec.validate(1e-12).is_ok());
        // Pair consumption: 2a/κ fraction of samples are teleportations...
        // expected pairs per sample = 2a/κ.
        let expect = 2.0 * a / spec.kappa();
        assert!((spec.expected_pairs_per_sample() - expect).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_bad_sum() {
        let spec = QpdSpec::from_parts(&[(0.7, "a", 0.0), (0.7, "b", 0.0)]);
        assert!(spec.validate(1e-9).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one term")]
    fn empty_spec_panics() {
        let _ = QpdSpec::new(vec![]);
    }

    #[test]
    fn product_spec_multiplies_kappa_and_counts() {
        let a = harada_like(); // κ = 3, 3 terms
        let b = QpdSpec::from_parts(&[(0.75, "tel", 1.0), (0.25, "mp", 0.0)]); // κ = 1
        let p = QpdSpec::product(&[a.clone(), b.clone()]);
        assert_eq!(p.len(), 6);
        assert!((p.kappa() - a.kappa() * b.kappa()).abs() < 1e-12);
        assert!(p.validate(1e-12).is_ok());
        // Row-major order: last factor fastest.
        assert_eq!(p.terms()[0].label, "meas-H⊗tel");
        assert_eq!(p.terms()[1].label, "meas-H⊗mp");
        assert_eq!(p.terms()[2].label, "meas-SH⊗tel");
        // Pairs add across factors.
        assert!((p.terms()[0].pairs_consumed - 1.0).abs() < 1e-12);
        assert!((p.terms()[1].pairs_consumed - 0.0).abs() < 1e-12);
    }

    #[test]
    fn product_of_single_spec_is_identity() {
        let a = harada_like();
        let p = QpdSpec::product(std::slice::from_ref(&a));
        assert_eq!(p.len(), a.len());
        for (x, y) in p.terms().iter().zip(a.terms().iter()) {
            assert!((x.coefficient - y.coefficient).abs() < 1e-15);
            assert_eq!(x.label, y.label);
        }
    }

    /// The eager product this module used to build — one `TermSpec`
    /// per term, labels formatted level by level — kept as the reference
    /// the factored product is held to.
    fn eager_product(specs: &[Vec<TermSpec>]) -> Vec<TermSpec> {
        let mut terms = vec![TermSpec {
            coefficient: 1.0,
            label: String::new(),
            pairs_consumed: 0.0,
        }];
        for spec in specs {
            let mut next = Vec::with_capacity(terms.len() * spec.len());
            for acc in &terms {
                for t in spec {
                    next.push(TermSpec {
                        coefficient: acc.coefficient * t.coefficient,
                        label: if acc.label.is_empty() {
                            t.label.clone()
                        } else {
                            format!("{}⊗{}", acc.label, t.label)
                        },
                        pairs_consumed: acc.pairs_consumed + t.pairs_consumed,
                    });
                }
            }
            terms = next;
        }
        terms
    }

    fn assert_matches_eager(got: &QpdSpec, want: &[TermSpec]) {
        assert_eq!(got.len(), want.len());
        for (i, (t, w)) in got.terms().iter().zip(want).enumerate() {
            assert_eq!(got.label(i), w.label, "term {i}");
            assert_eq!(t.label, w.label, "term {i}");
            assert_eq!(t.coefficient.to_bits(), w.coefficient.to_bits(), "term {i}");
            assert_eq!(got.coefficients()[i].to_bits(), w.coefficient.to_bits());
            assert_eq!(
                t.pairs_consumed.to_bits(),
                w.pairs_consumed.to_bits(),
                "term {i}"
            );
        }
    }

    #[test]
    fn factored_product_matches_the_eager_fold_bit_for_bit() {
        // Inexact coefficients make the fold order visible in the bits;
        // `gaps` has empty labels, which join differently depending on
        // whether they sit at the start of a (nested) product.
        let a = QpdSpec::from_parts(&[
            (0.1, "meas-H", 0.0),
            (1.0 / 3.0, "meas-SH", 0.1),
            (-0.7, "meas-prep", 0.2),
        ]);
        let b = QpdSpec::from_parts(&[(0.3, "tel", 1.0), (0.7, "mp", 0.3)]);
        let gaps = QpdSpec::from_parts(&[(0.6, "", 0.7), (0.2, "x", 0.1), (0.2, "", 0.0)]);
        let eager = |s: &QpdSpec| s.terms();
        let ab = QpdSpec::product(&[a.clone(), b.clone()]);
        let ab_eager = eager_product(&[eager(&a), eager(&b)]);
        let gaps_b = QpdSpec::product(&[gaps.clone(), b.clone()]);
        let gaps_b_eager = eager_product(&[eager(&gaps), eager(&b)]);
        assert_matches_eager(&ab, &ab_eager);
        assert_matches_eager(
            &QpdSpec::product(&[a.clone(), gaps.clone(), b.clone(), a.clone()]),
            &eager_product(&[eager(&a), eager(&gaps), eager(&b), eager(&a)]),
        );
        // Products whose factors are themselves products.
        assert_matches_eager(
            &QpdSpec::product(&[ab.clone(), gaps.clone(), ab.clone()]),
            &eager_product(&[ab_eager.clone(), eager(&gaps), ab_eager.clone()]),
        );
        assert_matches_eager(
            &QpdSpec::product(&[a.clone(), gaps_b.clone()]),
            &eager_product(&[eager(&a), gaps_b_eager.clone()]),
        );
        assert_matches_eager(
            &QpdSpec::product(&[gaps_b.clone(), gaps.clone()]),
            &eager_product(&[gaps_b_eager, eager(&gaps)]),
        );
    }

    #[test]
    #[should_panic(expected = "product of zero QPDs")]
    fn empty_product_panics() {
        let _ = QpdSpec::product(&[]);
    }
}
