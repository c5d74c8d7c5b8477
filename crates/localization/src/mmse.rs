//! Minimum-mean-square-error multilateration.

use crate::{Estimate, EstimateError, Estimator, LocationReference};
use secloc_geometry::{Point2, Vector2};

/// Least-squares multilateration, the paper's canonical stage-2 estimator.
///
/// Solving `min Σ (|p − aᵢ| − dᵢ)²` proceeds in two steps:
///
/// 1. **Linear seed.** Subtracting the circle equation of the last anchor
///    from every other yields a linear system `A p = b`, solved in closed
///    form via the 2×2 normal equations.
/// 2. **Gauss–Newton refinement** of the true nonlinear objective, which
///    tightens the seed under noisy distances.
///
/// # Examples
///
/// ```
/// use secloc_geometry::Point2;
/// use secloc_localization::{Estimator, LocationReference, MmseEstimator};
///
/// let refs = vec![
///     LocationReference::new(Point2::new(0.0, 0.0), 5.0),
///     LocationReference::new(Point2::new(6.0, 0.0), 5.0),
///     LocationReference::new(Point2::new(3.0, 9.0), 5.0),
/// ];
/// let est = MmseEstimator::default().estimate(&refs)?;
/// assert!(est.position.distance(Point2::new(3.0, 4.0)) < 0.1);
/// # Ok::<(), secloc_localization::EstimateError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmseEstimator {
    /// Maximum Gauss–Newton iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the update step, in feet.
    pub tolerance_ft: f64,
}

impl Default for MmseEstimator {
    fn default() -> Self {
        MmseEstimator {
            max_iterations: 50,
            tolerance_ft: 1e-6,
        }
    }
}

impl Estimator for MmseEstimator {
    fn estimate(&self, refs: &[LocationReference]) -> Result<Estimate, EstimateError> {
        self.position(refs).map(|p| Estimate::at(p, refs))
    }

    fn min_references(&self) -> usize {
        3
    }
}

impl MmseEstimator {
    /// The position [`Estimator::estimate`] solves for, without the
    /// residual pass — for callers that only use the position.
    ///
    /// # Errors
    ///
    /// Exactly [`Estimator::estimate`]'s errors: too few references,
    /// degenerate geometry in the linear seed, or a non-finite
    /// Gauss–Newton iterate.
    pub fn position(&self, refs: &[LocationReference]) -> Result<Point2, EstimateError> {
        if refs.len() < self.min_references() {
            return Err(EstimateError::TooFewReferences {
                got: refs.len(),
                need: self.min_references(),
            });
        }
        let seed = linear_seed(refs)?;
        self.gauss_newton(seed, refs)
    }

    fn gauss_newton(
        &self,
        mut p: Point2,
        refs: &[LocationReference],
    ) -> Result<Point2, EstimateError> {
        for _ in 0..self.max_iterations {
            // Normal equations J^T J dp = -J^T r with row_i =
            // d(residual_i)/dp = (p - a_i)/|p - a_i|.
            let (mut jtj00, mut jtj01, mut jtj11) = (0.0f64, 0.0f64, 0.0f64);
            let mut jtr = Vector2::ZERO;
            for r in refs {
                let diff = p - r.anchor();
                let dist = diff.norm();
                if dist < 1e-9 {
                    continue; // gradient undefined exactly on an anchor
                }
                let g = diff / dist;
                let res = dist - r.distance();
                jtj00 += g.x * g.x;
                jtj01 += g.x * g.y;
                jtj11 += g.y * g.y;
                jtr += g * res;
            }
            let det = jtj00 * jtj11 - jtj01 * jtj01;
            if det.abs() < 1e-12 {
                // Singular normal matrix: anchors effectively collinear from
                // here; the linear seed is the best available answer.
                return Ok(p);
            }
            let dp = Vector2::new(
                -(jtj11 * jtr.x - jtj01 * jtr.y) / det,
                -(jtj00 * jtr.y - jtj01 * jtr.x) / det,
            );
            p += dp;
            if !p.is_finite() {
                return Err(EstimateError::DidNotConverge);
            }
            if dp.norm() < self.tolerance_ft {
                return Ok(p);
            }
        }
        // Ran out of iterations — still return the last iterate; callers can
        // judge quality from the residual. (Noisy references routinely stop
        // short of the tight tolerance without being wrong.)
        Ok(p)
    }
}

/// Closed-form linearised solution: subtract the last reference's circle
/// equation from each of the others.
fn linear_seed(refs: &[LocationReference]) -> Result<Point2, EstimateError> {
    let last = refs.last().expect("caller checked len >= 3");
    let (ax, ay, ad) = (last.anchor().x, last.anchor().y, last.distance());
    // Rows: 2(x_i - ax) x + 2(y_i - ay) y = d_n^2 - d_i^2 + |a_i|^2 - |a_n|^2
    let (mut m00, mut m01, mut m11) = (0.0f64, 0.0f64, 0.0f64);
    let mut v = Vector2::ZERO;
    for r in &refs[..refs.len() - 1] {
        let row_x = 2.0 * (r.anchor().x - ax);
        let row_y = 2.0 * (r.anchor().y - ay);
        let rhs = ad * ad - r.distance() * r.distance()
            + r.anchor().x * r.anchor().x
            + r.anchor().y * r.anchor().y
            - ax * ax
            - ay * ay;
        m00 += row_x * row_x;
        m01 += row_x * row_y;
        m11 += row_y * row_y;
        v += Vector2::new(row_x * rhs, row_y * rhs);
    }
    let det = m00 * m11 - m01 * m01;
    // Scale-aware singularity test: det has units ft^4.
    let scale = (m00 + m11).max(1e-30);
    if det.abs() < 1e-9 * scale * scale {
        return Err(EstimateError::DegenerateGeometry);
    }
    Ok(Point2::new(
        (m11 * v.x - m01 * v.y) / det,
        (m00 * v.y - m01 * v.x) / det,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn exact_refs(truth: Point2, anchors: &[(f64, f64)]) -> Vec<LocationReference> {
        anchors
            .iter()
            .map(|&(x, y)| {
                let a = Point2::new(x, y);
                LocationReference::new(a, a.distance(truth))
            })
            .collect()
    }

    #[test]
    fn exact_recovery_from_three_anchors() {
        let truth = Point2::new(40.0, 60.0);
        let refs = exact_refs(truth, &[(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)]);
        let e = MmseEstimator::default().estimate(&refs).unwrap();
        assert!(e.position.distance(truth) < 1e-6, "{}", e.position);
        assert!(e.residual_rms < 1e-6);
    }

    #[test]
    fn exact_recovery_overdetermined() {
        let truth = Point2::new(123.0, 456.0);
        let refs = exact_refs(
            truth,
            &[
                (0.0, 0.0),
                (1000.0, 0.0),
                (0.0, 1000.0),
                (1000.0, 1000.0),
                (500.0, 100.0),
            ],
        );
        let e = MmseEstimator::default().estimate(&refs).unwrap();
        assert!(e.position.distance(truth) < 1e-6);
    }

    #[test]
    fn noisy_distances_recovered_within_error_scale() {
        let truth = Point2::new(420.0, 310.0);
        let anchors = [
            (100.0, 100.0),
            (900.0, 150.0),
            (500.0, 800.0),
            (200.0, 600.0),
            (750.0, 500.0),
            (400.0, 50.0),
        ];
        let mut rng = StdRng::seed_from_u64(8);
        let refs: Vec<LocationReference> = anchors
            .iter()
            .map(|&(x, y)| {
                let a = Point2::new(x, y);
                let noise: f64 = rng.gen_range(-10.0..=10.0);
                LocationReference::new(a, (a.distance(truth) + noise).max(0.0))
            })
            .collect();
        let e = MmseEstimator::default().estimate(&refs).unwrap();
        // With eps = 10 ft and 6 anchors, the estimate lands within ~eps.
        assert!(
            e.position.distance(truth) < 12.0,
            "off by {}",
            e.position.distance(truth)
        );
    }

    #[test]
    fn malicious_reference_skews_estimate() {
        // The attack the paper defends against: one lying beacon drags the
        // position away; this is the baseline "no detection" damage.
        let truth = Point2::new(100.0, 100.0);
        let mut refs = exact_refs(truth, &[(0.0, 0.0), (200.0, 0.0), (0.0, 200.0)]);
        refs.push(LocationReference::new(Point2::new(200.0, 200.0), 400.0));
        let e = MmseEstimator::default().estimate(&refs).unwrap();
        assert!(e.position.distance(truth) > 20.0, "attack had no effect");
        assert!(
            e.residual_rms > 10.0,
            "diagnostic failed to flag inconsistency"
        );
    }

    #[test]
    fn too_few_references() {
        let refs = exact_refs(Point2::ORIGIN, &[(1.0, 0.0), (0.0, 1.0)]);
        assert_eq!(
            MmseEstimator::default().estimate(&refs),
            Err(EstimateError::TooFewReferences { got: 2, need: 3 })
        );
    }

    #[test]
    fn collinear_anchors_rejected() {
        let truth = Point2::new(5.0, 7.0);
        let refs = exact_refs(truth, &[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)]);
        assert_eq!(
            MmseEstimator::default().estimate(&refs),
            Err(EstimateError::DegenerateGeometry)
        );
    }

    #[test]
    fn anchor_coincident_with_truth_is_fine() {
        let truth = Point2::new(50.0, 50.0);
        let refs = exact_refs(truth, &[(50.0, 50.0), (0.0, 0.0), (100.0, 0.0)]);
        let e = MmseEstimator::default().estimate(&refs).unwrap();
        assert!(e.position.distance(truth) < 1e-4);
    }

    #[test]
    fn position_is_the_estimate_position() {
        let mut rng = StdRng::seed_from_u64(9);
        let est = MmseEstimator::default();
        for n in 0..12 {
            let refs: Vec<LocationReference> = (0..n)
                .map(|_| {
                    let a = Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
                    LocationReference::new(a, rng.gen_range(0.0..300.0))
                })
                .collect();
            assert_eq!(est.position(&refs), est.estimate(&refs).map(|e| e.position));
        }
    }

    #[test]
    fn min_references_is_three() {
        assert_eq!(MmseEstimator::default().min_references(), 3);
    }
}
