//! The packed prediction plane: class-major f32 weights.
//!
//! [`crate::OneVsRestClassifier`] stores one `Vec<f64>` per class — fine for
//! training, but every prediction round then chases seven separate
//! allocations and pays f64 arithmetic for what is a 14-dimensional masked
//! argmax. [`PackedModel`] re-lays the trained weights as **one contiguous
//! class-major `f32` matrix** whose rows are zero-padded to a multiple of
//! the lane width, so a whole model is seven cache lines that stay resident
//! across a batch.
//!
//! The dot-product kernel is written once as four explicit lane
//! accumulators combined in a fixed order, so every path that scores a row
//! performs the same IEEE operations in the same order. The sequence
//! learner runs it one session at a time when
//! [`crate::LearnerConfig::with_packed`] is set.

use pes_dom::{EventType, EventTypeSet};

use crate::logistic::OneVsRestClassifier;

/// Lane width of the packed kernel. Rows are zero-padded to a multiple of
/// this, which folds the tail mask into the lane load: padding lanes
/// multiply by zero instead of branching.
pub const LANES: usize = 4;

/// Number of one-vs-rest classes (one per [`EventType`]).
pub const CLASSES: usize = EventType::ALL.len();

/// Numerically stable f32 sigmoid, the single-precision twin of the f64
/// reference in `logistic.rs`.
#[inline]
pub fn sigmoid_f32(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Four-lane fused accumulate over equal-length, lane-padded slices: four
/// independent accumulators, combined in a fixed tree.
#[inline(always)]
fn dot_lanes(row: &[f32], x: &[f32]) -> f32 {
    debug_assert_eq!(row.len(), x.len());
    debug_assert!(row.len().is_multiple_of(LANES));
    // Fast path for the serving shape (FEATURE_DIM = 14 padded to 16):
    // sixteen independent products folded by a balanced lane tree — no
    // serial accumulation chain at all, so the four adds per lane can
    // retire in parallel.
    if let (Ok(r), Ok(c)) = (<&[f32; 16]>::try_from(row), <&[f32; 16]>::try_from(x)) {
        return dot_lanes16(r, c);
    }
    let mut acc = [0.0f32; LANES];
    for (r, c) in row.chunks_exact(LANES).zip(x.chunks_exact(LANES)) {
        acc[0] += r[0] * c[0];
        acc[1] += r[1] * c[1];
        acc[2] += r[2] * c[2];
        acc[3] += r[3] * c[3];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// The 16-length serving kernel: per lane `l`, the reduction is the fixed
/// balanced tree `(p[l] + p[4+l]) + (p[8+l] + p[12+l])`, then the lane sums
/// fold as `(s[0] + s[1]) + (s[2] + s[3])`.
#[inline(always)]
fn dot_lanes16(row: &[f32; 16], x: &[f32; 16]) -> f32 {
    let mut p = [0.0f32; 16];
    for i in 0..16 {
        p[i] = row[i] * x[i];
    }
    let mut s = [0.0f32; LANES];
    for l in 0..LANES {
        s[l] = (p[l] + p[LANES + l]) + (p[2 * LANES + l] + p[3 * LANES + l]);
    }
    (s[0] + s[1]) + (s[2] + s[3])
}

/// Masked argmax over the class scores, replicating the f64 reference's
/// tie-breaking exactly: classes are visited in [`EventType::ALL`] order
/// and the winner is replaced unless the candidate is strictly worse, so
/// ties resolve to the *later* class. An empty mask falls back to the full
/// class set, as in [`OneVsRestClassifier::predict_masked`].
#[inline]
fn argmax_masked(scores: &[f32; CLASSES], allowed: EventTypeSet) -> (EventType, f32) {
    let mask = if allowed.is_empty() {
        EventTypeSet::ALL
    } else {
        allowed
    };
    let mut best_c = usize::MAX;
    let mut best = 0.0f32;
    for (c, &e) in EventType::ALL.iter().enumerate() {
        if !mask.contains(e) {
            continue;
        }
        let s = scores[c];
        // Replace unless strictly worse — ties resolve to the later class,
        // and a NaN candidate replaces (NaN comparisons are false), exactly
        // as the f64 reference's `match` arm behaves. `s >= best` is NOT
        // equivalent: it is false for NaN, so the lint's suggestion would
        // change NaN handling.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if best_c == usize::MAX || !(s < best) {
            best_c = c;
            best = s;
        }
    }
    if best_c == usize::MAX {
        // Unreachable: the fallback mask always contains every class.
        return (EventType::ALL[0], scores[0]);
    }
    (EventType::ALL[best_c], best)
}

/// The trained one-vs-rest weights re-laid as one contiguous class-major
/// `f32` matrix: row `c` holds class `c`'s weights, zero-padded to a
/// multiple of [`LANES`]. The f64 per-class layout stays the reference
/// path; this is the serving layout the packed kernel runs on.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedModel {
    /// `CLASSES * padded_dim` weights, class-major.
    weights: Vec<f32>,
    biases: [f32; CLASSES],
    dim: usize,
    padded_dim: usize,
}

impl PackedModel {
    /// Packs a trained classifier. Total for any classifier shape: classes
    /// with shorter weight vectors are zero-padded, longer ones truncated
    /// to the classifier's declared dimension — mirroring the zip-based
    /// robustness of the f64 `predict_proba`.
    pub fn from_classifier(classifier: &OneVsRestClassifier) -> Self {
        let dim = classifier.dim();
        let padded_dim = dim.next_multiple_of(LANES);
        let mut weights = vec![0.0f32; CLASSES * padded_dim];
        let mut biases = [0.0f32; CLASSES];
        for (c, model) in classifier.models().iter().enumerate().take(CLASSES) {
            biases[c] = model.bias() as f32;
            let row = &mut weights[c * padded_dim..(c + 1) * padded_dim];
            for (slot, w) in row.iter_mut().zip(model.weights().iter().take(dim)) {
                *slot = *w as f32;
            }
        }
        PackedModel {
            weights,
            biases,
            dim,
            padded_dim,
        }
    }

    /// The unpadded feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The lane-padded row stride (a multiple of [`LANES`]).
    pub fn padded_dim(&self) -> usize {
        self.padded_dim
    }

    /// Class `c`'s padded weight row.
    fn row(&self, c: usize) -> &[f32] {
        &self.weights[c * self.padded_dim..(c + 1) * self.padded_dim]
    }

    /// Converts f64 features into a single lane-padded f32 row in `out`
    /// (cleared first). Extra features are truncated and missing ones
    /// zero-filled, like the f64 reference.
    pub fn pad_features(&self, features: &[f64], out: &mut Vec<f32>) {
        out.clear();
        out.extend(features.iter().take(self.dim).map(|&v| v as f32));
        out.resize(self.padded_dim, 0.0);
    }

    /// All [`CLASSES`] raw logit scores `w_c · x + b_c` for one lane-padded
    /// row. Every class is scored — masking happens at the argmax, keeping
    /// the kernel branch-free.
    pub fn scores(&self, padded: &[f32]) -> [f32; CLASSES] {
        debug_assert_eq!(padded.len(), self.padded_dim);
        let mut out = [0.0f32; CLASSES];
        for (c, slot) in out.iter_mut().enumerate() {
            *slot = dot_lanes(self.row(c), padded) + self.biases[c];
        }
        out
    }

    /// Predicts the most likely allowed event for one lane-padded feature
    /// row, returning its f32 confidence (the winning sigmoid). Tie-breaks
    /// and empty-mask fallback replicate the f64 reference exactly.
    pub fn predict_masked(&self, padded: &[f32], allowed: EventTypeSet) -> (EventType, f32) {
        let (event, z) = argmax_masked(&self.scores(padded), allowed);
        (event, sigmoid_f32(z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FEATURE_DIM;
    use crate::logistic::LogisticModel;

    fn toy_classifier() -> OneVsRestClassifier {
        let models = EventType::ALL
            .iter()
            .enumerate()
            .map(|(c, _)| {
                let weights = (0..FEATURE_DIM)
                    .map(|i| ((c * FEATURE_DIM + i) as f64 * 0.37).sin())
                    .collect();
                LogisticModel::from_coefficients(weights, c as f64 * 0.1 - 0.3)
            })
            .collect();
        OneVsRestClassifier::from_models(models, FEATURE_DIM)
    }

    fn toy_features() -> Vec<f64> {
        (0..FEATURE_DIM).map(|i| (i as f64 * 0.61).cos()).collect()
    }

    #[test]
    fn packing_pads_rows_to_the_lane_width() {
        let packed = PackedModel::from_classifier(&toy_classifier());
        assert_eq!(packed.dim(), FEATURE_DIM);
        assert_eq!(packed.padded_dim(), FEATURE_DIM.next_multiple_of(LANES));
        assert!(packed.padded_dim().is_multiple_of(LANES));
        // The padding lanes are zero, so they contribute nothing.
        for c in 0..CLASSES {
            for &w in &packed.row(c)[FEATURE_DIM..] {
                assert_eq!(w.to_bits(), 0.0f32.to_bits());
            }
        }
    }

    #[test]
    fn packed_scores_track_the_f64_reference() {
        let clf = toy_classifier();
        let packed = PackedModel::from_classifier(&clf);
        let features = toy_features();
        let mut padded = Vec::new();
        packed.pad_features(&features, &mut padded);
        let scores = packed.scores(&padded);
        for e in EventType::ALL {
            let p64 = clf.models()[e.class_index()].predict_proba(&features);
            let p32 = f64::from(sigmoid_f32(scores[e.class_index()]));
            assert!((p64 - p32).abs() < 1e-5, "{e:?}: f64 {p64} vs packed {p32}");
        }
    }

    #[test]
    fn packed_decision_matches_the_f64_reference_on_clear_margins() {
        let clf = toy_classifier();
        let packed = PackedModel::from_classifier(&clf);
        let features = toy_features();
        let mut padded = Vec::new();
        packed.pad_features(&features, &mut padded);
        let (ref64, _) = clf.predict_masked(&features, EventTypeSet::ALL);
        let (ref32, conf) = packed.predict_masked(&padded, EventTypeSet::ALL);
        assert_eq!(ref64, ref32);
        assert!(conf > 0.0 && conf <= 1.0);
    }

    #[test]
    fn ties_resolve_to_the_later_class_like_the_reference() {
        // All-zero weights: every class scores exactly the bias 0, so the
        // argmax is a 7-way tie — the reference resolves to the last class.
        let clf = OneVsRestClassifier::zeros(FEATURE_DIM);
        let packed = PackedModel::from_classifier(&clf);
        let features = toy_features();
        let mut padded = Vec::new();
        packed.pad_features(&features, &mut padded);
        let (ref64, _) = clf.predict_masked(&features, EventTypeSet::ALL);
        let (ref32, _) = packed.predict_masked(&padded, EventTypeSet::ALL);
        assert_eq!(ref64, *EventType::ALL.last().expect("non-empty"));
        assert_eq!(ref32, ref64);
    }

    #[test]
    fn empty_mask_falls_back_to_all_classes() {
        let packed = PackedModel::from_classifier(&toy_classifier());
        let mut padded = Vec::new();
        packed.pad_features(&toy_features(), &mut padded);
        let (with_all, a) = packed.predict_masked(&padded, EventTypeSet::ALL);
        let (with_empty, b) = packed.predict_masked(&padded, EventTypeSet::EMPTY);
        assert_eq!(with_all, with_empty);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
