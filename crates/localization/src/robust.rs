//! Attack-resistant estimators.
//!
//! The reproduced paper removes malicious beacons from the *network*; a
//! complementary line of work hardens the *estimator* instead, tolerating
//! bad references without identifying the culprits. These baselines make
//! that trade-off measurable (see the `ablation_defenses` bench):
//!
//! - [`ResidualFilterEstimator`] — iteratively re-fit and drop the worst
//!   residual until the fit is consistent with the ranging error bound;
//! - [`ConsensusEstimator`] — RANSAC-style: fit minimal subsets, keep the
//!   largest inlier consensus, refit on it.
//!
//! Both degrade gracefully: with no malicious references they behave like
//! plain MMSE; with a minority of poisoned references they recover; with a
//! poisoned *majority* they fail like everything else — which is exactly
//! why the paper argues for revocation rather than estimator hardening
//! alone.

use crate::{Estimate, EstimateError, Estimator, LocationReference, MmseEstimator};
use secloc_crypto::prf::prf64;

/// Iterative residual filtering around [`MmseEstimator`].
///
/// Fit all references; while the worst absolute residual exceeds
/// `inlier_threshold_ft` and more than `min_references` remain, drop the
/// worst reference and refit.
///
/// # Examples
///
/// ```
/// use secloc_geometry::Point2;
/// use secloc_localization::{Estimator, LocationReference, ResidualFilterEstimator};
///
/// let truth = Point2::new(50.0, 50.0);
/// let mut refs: Vec<LocationReference> = [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0)]
///     .iter()
///     .map(|&(x, y)| {
///         let a = Point2::new(x, y);
///         LocationReference::new(a, a.distance(truth))
///     })
///     .collect();
/// refs.push(LocationReference::new(Point2::new(400.0, 400.0), 20.0)); // poison
/// let est = ResidualFilterEstimator::default().estimate(&refs)?;
/// assert!(est.position.distance(truth) < 1.0);
/// # Ok::<(), secloc_localization::EstimateError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidualFilterEstimator {
    /// Absolute residual above which a reference counts as an outlier.
    pub inlier_threshold_ft: f64,
    /// Never drop below this many references.
    pub min_references: usize,
    /// Inner least-squares solver.
    pub inner: MmseEstimator,
}

impl Default for ResidualFilterEstimator {
    fn default() -> Self {
        ResidualFilterEstimator {
            inlier_threshold_ft: 20.0, // 2 * the paper's eps
            min_references: 3,
            inner: MmseEstimator::default(),
        }
    }
}

impl Estimator for ResidualFilterEstimator {
    fn estimate(&self, refs: &[LocationReference]) -> Result<Estimate, EstimateError> {
        let mut working: Vec<LocationReference> = refs.to_vec();
        loop {
            let est = self.inner.estimate(&working)?;
            let (worst_idx, worst_abs) = working
                .iter()
                .enumerate()
                .map(|(i, r)| (i, r.residual_at(est.position).abs()))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty reference set");
            if worst_abs <= self.inlier_threshold_ft || working.len() <= self.min_references {
                return Ok(est);
            }
            working.swap_remove(worst_idx);
        }
    }

    fn min_references(&self) -> usize {
        self.inner.min_references()
    }
}

/// RANSAC-style consensus estimation.
///
/// Draw `iterations` minimal subsets (3 references), fit each, count the
/// references within `inlier_threshold_ft` of the fit, keep the largest
/// consensus set and refit on it. Subset draws come from a seeded PRF so
/// results are reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsensusEstimator {
    /// Absolute residual for inlier classification.
    pub inlier_threshold_ft: f64,
    /// Number of minimal subsets to try.
    pub iterations: u32,
    /// Subset-sampling seed.
    pub seed: u64,
    /// Inner least-squares solver.
    pub inner: MmseEstimator,
}

impl Default for ConsensusEstimator {
    fn default() -> Self {
        ConsensusEstimator {
            inlier_threshold_ft: 20.0,
            iterations: 64,
            seed: 0x005e_c10c,
            inner: MmseEstimator::default(),
        }
    }
}

impl ConsensusEstimator {
    fn sample_triple(&self, n: usize, iter: u32) -> [usize; 3] {
        // Three distinct indices from a keyed PRF of the iteration number.
        let mut picks = [0usize; 3];
        let mut k = 0;
        let mut counter = 0u64;
        while k < 3 {
            let tag = prf64((self.seed, iter as u64), &counter.to_le_bytes());
            counter += 1;
            let idx = (tag % n as u64) as usize;
            if !picks[..k].contains(&idx) {
                picks[k] = idx;
                k += 1;
            }
        }
        picks
    }
}

impl Estimator for ConsensusEstimator {
    fn estimate(&self, refs: &[LocationReference]) -> Result<Estimate, EstimateError> {
        if refs.len() < self.min_references() {
            return Err(EstimateError::TooFewReferences {
                got: refs.len(),
                need: self.min_references(),
            });
        }
        if refs.len() == 3 {
            return self.inner.estimate(refs);
        }
        let mut best_inliers: Vec<LocationReference> = Vec::new();
        for iter in 0..self.iterations {
            let idx = self.sample_triple(refs.len(), iter);
            let subset = [refs[idx[0]], refs[idx[1]], refs[idx[2]]];
            let Ok(candidate) = self.inner.estimate(&subset) else {
                continue; // collinear minimal sample
            };
            let inliers: Vec<LocationReference> = refs
                .iter()
                .copied()
                .filter(|r| r.residual_at(candidate.position).abs() <= self.inlier_threshold_ft)
                .collect();
            if inliers.len() > best_inliers.len() {
                best_inliers = inliers;
            }
        }
        if best_inliers.len() < self.min_references() {
            return Err(EstimateError::DegenerateGeometry);
        }
        self.inner.estimate(&best_inliers)
    }

    fn min_references(&self) -> usize {
        self.inner.min_references()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secloc_geometry::Point2;

    fn exact_refs(truth: Point2, anchors: &[(f64, f64)]) -> Vec<LocationReference> {
        anchors
            .iter()
            .map(|&(x, y)| {
                let a = Point2::new(x, y);
                LocationReference::new(a, a.distance(truth))
            })
            .collect()
    }

    fn square_refs(truth: Point2) -> Vec<LocationReference> {
        exact_refs(
            truth,
            &[
                (0.0, 0.0),
                (200.0, 0.0),
                (0.0, 200.0),
                (200.0, 200.0),
                (100.0, 30.0),
                (30.0, 170.0),
            ],
        )
    }

    #[test]
    fn residual_filter_matches_mmse_on_clean_data() {
        let truth = Point2::new(80.0, 120.0);
        let refs = square_refs(truth);
        let plain = MmseEstimator::default().estimate(&refs).unwrap();
        let robust = ResidualFilterEstimator::default().estimate(&refs).unwrap();
        assert!(plain.position.distance(robust.position) < 1e-9);
    }

    #[test]
    fn residual_filter_survives_one_liar() {
        let truth = Point2::new(80.0, 120.0);
        let mut refs = square_refs(truth);
        refs.push(LocationReference::new(Point2::new(900.0, 900.0), 10.0));
        let plain = MmseEstimator::default().estimate(&refs).unwrap();
        let robust = ResidualFilterEstimator::default().estimate(&refs).unwrap();
        assert!(
            plain.position.distance(truth) > 20.0,
            "attack should hurt MMSE"
        );
        assert!(
            robust.position.distance(truth) < 1.0,
            "filter should recover"
        );
    }

    #[test]
    fn residual_filter_survives_two_liars_among_six() {
        let truth = Point2::new(80.0, 120.0);
        let mut refs = square_refs(truth);
        refs.push(LocationReference::new(Point2::new(900.0, 900.0), 10.0));
        refs.push(LocationReference::new(Point2::new(900.0, 0.0), 25.0));
        let robust = ResidualFilterEstimator::default().estimate(&refs).unwrap();
        assert!(robust.position.distance(truth) < 5.0, "{}", robust.position);
    }

    #[test]
    fn consensus_survives_minority_poisoning() {
        let truth = Point2::new(80.0, 120.0);
        let mut refs = square_refs(truth);
        refs.push(LocationReference::new(Point2::new(900.0, 900.0), 10.0));
        refs.push(LocationReference::new(Point2::new(900.0, 0.0), 25.0));
        let est = ConsensusEstimator::default().estimate(&refs).unwrap();
        assert!(est.position.distance(truth) < 5.0, "{}", est.position);
    }

    #[test]
    fn consensus_fails_under_colluding_majority() {
        // 4 colluding liars consistent with a fake position vs 3 honest
        // references: the consensus picks the bigger (fake) story — the
        // fundamental limit that motivates network-level revocation.
        let truth = Point2::new(80.0, 120.0);
        let fake = Point2::new(700.0, 500.0);
        let mut refs = exact_refs(truth, &[(0.0, 0.0), (200.0, 0.0), (0.0, 200.0)]);
        refs.extend(exact_refs(
            fake,
            &[
                (600.0, 300.0),
                (800.0, 300.0),
                (600.0, 700.0),
                (850.0, 600.0),
            ],
        ));
        let est = ConsensusEstimator::default().estimate(&refs).unwrap();
        assert!(
            est.position.distance(fake) < 5.0,
            "expected capture by the colluding majority, got {}",
            est.position
        );
    }

    #[test]
    fn consensus_deterministic_per_seed() {
        let truth = Point2::new(80.0, 120.0);
        let mut refs = square_refs(truth);
        refs.push(LocationReference::new(Point2::new(900.0, 900.0), 10.0));
        let a = ConsensusEstimator::default().estimate(&refs).unwrap();
        let b = ConsensusEstimator::default().estimate(&refs).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn both_enforce_min_references() {
        let refs = exact_refs(Point2::new(1.0, 1.0), &[(0.0, 0.0), (5.0, 0.0)]);
        assert!(matches!(
            ResidualFilterEstimator::default().estimate(&refs),
            Err(EstimateError::TooFewReferences { .. })
        ));
        assert!(matches!(
            ConsensusEstimator::default().estimate(&refs),
            Err(EstimateError::TooFewReferences { .. })
        ));
    }

    #[test]
    fn residual_filter_respects_min_floor() {
        // Even with an absurdly tight threshold it keeps min_references.
        let truth = Point2::new(50.0, 50.0);
        let refs = square_refs(truth);
        let tight = ResidualFilterEstimator {
            inlier_threshold_ft: 1e-12,
            ..Default::default()
        };
        let est = tight.estimate(&refs).unwrap();
        assert!(est.position.is_finite());
    }

    #[test]
    fn consensus_exactly_three_refs_degenerates_to_mmse() {
        let truth = Point2::new(10.0, 20.0);
        let refs = exact_refs(truth, &[(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)]);
        let est = ConsensusEstimator::default().estimate(&refs).unwrap();
        assert!(est.position.distance(truth) < 1e-6);
    }
}
