//! A reusable reference buffer for repeated MMSE solves.
//!
//! The simulator's impact phase solves one MMSE problem per sensor, before
//! and after revocation. [`MmseScratch`] keeps one buffer for the whole
//! run: each sensor's references are loaded into it, revoked rows are
//! dropped by their load-order index, and [`MmseEstimator::position`] solves
//! over [`MmseScratch::active`]. Once the buffer has grown to its
//! high-water mark, reuse is allocation-free.

use crate::{Estimate, EstimateError, Estimator, LocationReference, MmseEstimator};

/// Reusable reference set with an active subset selected by row index.
#[derive(Debug, Clone, Default)]
pub struct MmseScratch {
    /// Active references, in load order.
    active: Vec<LocationReference>,
}

impl MmseScratch {
    /// An empty scratch pre-sized for reference sets of up to `rows`
    /// rows — e.g. the topology's maximum audible-beacon count — so a
    /// whole run's worth of loads never reallocates. Pair with
    /// [`MmseScratch::capacity`] and a debug assertion to catch mid-run
    /// growth.
    pub fn with_capacity(rows: usize) -> Self {
        MmseScratch {
            active: Vec::with_capacity(rows),
        }
    }

    /// The row capacity currently reserved.
    pub fn capacity(&self) -> usize {
        self.active.capacity()
    }

    /// Replaces the contents with `refs` and marks every row active.
    pub fn load_from_iter(&mut self, refs: impl Iterator<Item = LocationReference>) {
        self.active.clear();
        self.active.extend(refs);
    }

    /// Narrows the active set to the rows whose index satisfies `keep`,
    /// preserving order. The index is a row's position among the active
    /// rows: its load-order index until a first `retain` narrows the set.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let mut i = 0;
        self.active.retain(|_| {
            let kept = keep(i);
            i += 1;
            kept
        });
    }

    /// The active references, in load order.
    pub fn active(&self) -> &[LocationReference] {
        &self.active
    }
}

/// [`MmseEstimator`] over an [`MmseScratch`]'s active references.
///
/// The benchmark harness in `perfbench/` is its only caller; a change to
/// that benchmark can call [`MmseEstimator`] directly and remove this type.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BatchedMmse {
    /// The solver.
    pub inner: MmseEstimator,
}

impl BatchedMmse {
    /// [`MmseEstimator::estimate`] over the scratch's active references.
    ///
    /// # Errors
    ///
    /// Exactly [`MmseEstimator::estimate`]'s errors.
    pub fn estimate(&self, s: &MmseScratch) -> Result<Estimate, EstimateError> {
        self.inner.estimate(s.active())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secloc_geometry::Point2;

    fn refs(n: usize) -> Vec<LocationReference> {
        (0..n)
            .map(|i| LocationReference::new(Point2::new(i as f64, (i * i) as f64), i as f64))
            .collect()
    }

    #[test]
    fn retain_selects_by_active_index() {
        let all = refs(9);
        let mut s = MmseScratch::with_capacity(9);
        s.load_from_iter(all.iter().copied());
        assert_eq!(s.active(), &all[..]);
        s.retain(|i| i % 2 == 0);
        assert_eq!(s.active(), &[all[0], all[2], all[4], all[6], all[8]]);
        s.retain(|i| i != 2);
        assert_eq!(s.active(), &[all[0], all[2], all[6], all[8]]);
    }

    #[test]
    fn reload_replaces_contents_without_growing() {
        let mut s = MmseScratch::with_capacity(20);
        s.load_from_iter(refs(20).into_iter());
        s.retain(|i| i < 3);
        let small = refs(4);
        s.load_from_iter(small.iter().copied());
        assert_eq!(s.active(), &small[..]);
        assert_eq!(s.capacity(), 20);
    }
}
