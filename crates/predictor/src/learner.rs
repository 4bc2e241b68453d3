//! The event sequence learner: recurrent multi-step prediction with a
//! cumulative-confidence cutoff (Sec. 5.2).
//!
//! Every step predicts the type of the immediate next event from the current
//! session features, restricted to the Likely-Next-Event-Set derived from
//! the DOM; the predicted event is fed back into a scratch copy of the
//! session state to predict the subsequent event, until the product of the
//! per-event confidences drops below the configured threshold (70 % by
//! default). The number of events predicted ahead is the *prediction degree*.

use pes_acmp::units::TimeUs;
use pes_acmp::CpuDemand;
use pes_dom::{EventType, EventTypeSet};
use pes_webrt::{EventId, WebEvent};

use crate::features::{FeatureVector, SessionState, FEATURE_DIM};
use crate::logistic::OneVsRestClassifier;

/// One predicted future event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedEvent {
    /// The predicted event type.
    pub event_type: EventType,
    /// The confidence (probability) of this individual prediction.
    pub confidence: f64,
    /// The cumulative confidence of the sequence up to and including this
    /// event.
    pub cumulative_confidence: f64,
}

/// Configuration of the sequence learner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnerConfig {
    /// Prediction stops once the cumulative confidence of the sequence would
    /// fall below this threshold (the paper uses 70 %).
    pub confidence_threshold: f64,
    /// Hard cap on the prediction degree.
    pub max_degree: usize,
    /// Whether the DOM-derived LNES masks the candidate classes (the
    /// "predictor design" ablation of Sec. 6.5 turns this off).
    pub use_lnes: bool,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        LearnerConfig {
            confidence_threshold: 0.70,
            max_degree: 8,
            use_lnes: true,
        }
    }
}

impl LearnerConfig {
    /// The paper's default configuration (70 % threshold, LNES enabled).
    pub fn paper_defaults() -> Self {
        LearnerConfig::default()
    }

    /// Returns a copy with a different confidence threshold (clamped to
    /// `[0, 1]`), used by the Fig. 14 sensitivity sweep.
    pub fn with_confidence_threshold(mut self, threshold: f64) -> Self {
        self.confidence_threshold = threshold.clamp(0.0, 1.0);
        self
    }

    /// Returns a copy with DOM (LNES) masking enabled or disabled.
    pub fn with_lnes(mut self, use_lnes: bool) -> Self {
        self.use_lnes = use_lnes;
        self
    }
}

/// Reusable buffers for [`EventSequenceLearner::predict_sequence_while`]: the
/// scratch session the predictions are fed back into, the feature vector and
/// the output sequence. The PES runtime holds one per thread, in its parked
/// replay scratch, so prediction rounds run without cloning the session state
/// or allocating — the scratch session shares the live session's DOM through
/// its `Arc` and only the small history window is copied per round.
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    session: Option<SessionState>,
    features: FeatureVector,
    out: Vec<PredictedEvent>,
}

impl PredictScratch {
    /// Creates an empty scratch arena.
    pub fn new() -> Self {
        PredictScratch::default()
    }
}

/// The event sequence learner.
///
/// # Examples
///
/// ```
/// use pes_predictor::{EventSequenceLearner, LearnerConfig, OneVsRestClassifier, SessionState};
/// use pes_predictor::features::FEATURE_DIM;
/// use pes_dom::PageBuilder;
///
/// let page = PageBuilder::new(360).nav_bar(3).article_list(6, true).text_block(2_000).build();
/// let learner = EventSequenceLearner::new(
///     OneVsRestClassifier::zeros(FEATURE_DIM),
///     LearnerConfig::paper_defaults(),
/// );
/// let state = SessionState::new(page.tree.clone());
/// // An untrained classifier has 0.5 confidence everywhere, which is below
/// // the 70 % threshold, so no events are predicted ahead.
/// assert!(learner.predict_sequence(&state).is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EventSequenceLearner {
    classifier: OneVsRestClassifier,
    config: LearnerConfig,
}

impl EventSequenceLearner {
    /// Creates a learner from a trained classifier and a configuration.
    pub fn new(classifier: OneVsRestClassifier, config: LearnerConfig) -> Self {
        EventSequenceLearner { classifier, config }
    }

    /// The learner configuration.
    pub fn config(&self) -> &LearnerConfig {
        &self.config
    }

    /// Replaces the configuration (used by sensitivity sweeps).
    pub fn set_config(&mut self, config: LearnerConfig) {
        self.config = config;
    }

    /// The underlying classifier.
    pub fn classifier(&self) -> &OneVsRestClassifier {
        &self.classifier
    }

    /// Predicts the type of the immediate next event from the current session
    /// state, together with its confidence. Takes the state mutably so the
    /// session's incremental analyzer can lazily resynchronise its cached
    /// viewport aggregates; the logical session state is not changed.
    pub fn predict_next(&self, state: &mut SessionState) -> (EventType, f64) {
        let mut features = Vec::with_capacity(FEATURE_DIM);
        self.predict_next_into(state, &mut features)
    }

    /// [`EventSequenceLearner::predict_next`] writing the features into a
    /// caller-owned buffer: the allocation-free step of a prediction round.
    fn predict_next_into(
        &self,
        state: &mut SessionState,
        features: &mut FeatureVector,
    ) -> (EventType, f64) {
        state.features_into(features);
        let allowed = if self.config.use_lnes {
            state.allowed_types()
        } else {
            EventTypeSet::ALL
        };
        self.classifier.predict_masked(features, allowed)
    }

    /// Predicts a sequence of future events. Prediction continues while the
    /// cumulative confidence stays at or above the threshold and the degree
    /// stays below the configured cap.
    ///
    /// Convenience form of [`EventSequenceLearner::predict_sequence_with`]
    /// that allocates a fresh scratch; hot callers (the PES runtime) reuse a
    /// [`PredictScratch`] per thread instead.
    pub fn predict_sequence(&self, state: &SessionState) -> Vec<PredictedEvent> {
        let mut scratch = PredictScratch::new();
        self.predict_sequence_with(state, &mut scratch);
        std::mem::take(&mut scratch.out)
    }

    /// Predicts a sequence of future events using caller-owned buffers: no
    /// session clone (the scratch session is rebuilt in place, sharing the
    /// live session's DOM) and no per-round allocation in the steady state.
    /// The returned slice lives in `scratch` and is valid until the next
    /// call.
    pub fn predict_sequence_with<'a>(
        &self,
        state: &SessionState,
        scratch: &'a mut PredictScratch,
    ) -> &'a [PredictedEvent] {
        self.predict_sequence_while(state, scratch, |_| true)
    }

    /// [`EventSequenceLearner::predict_sequence_with`] that also stops before
    /// the first predicted type `keep` rejects, so no step past it is
    /// computed. Each step is fed only the steps before it, so the result is
    /// the longest prefix of the unbounded sequence whose types `keep`
    /// accepts. `keep` is called at most once per step, only for steps that
    /// clear the confidence threshold.
    pub fn predict_sequence_while<'a>(
        &self,
        state: &SessionState,
        scratch: &'a mut PredictScratch,
        mut keep: impl FnMut(EventType) -> bool,
    ) -> &'a [PredictedEvent] {
        scratch.out.clear();
        // Reuse the scratch session across rounds: `clone_from` bumps the
        // shared tree's refcount and reuses the history window's ring buffer.
        let session = match &mut scratch.session {
            Some(session) => {
                session.clone_from(state);
                session
            }
            None => scratch.session.insert(state.clone()),
        };
        let mut cumulative = 1.0;
        for step in 0..self.config.max_degree {
            let (event_type, confidence) = self.predict_next_into(session, &mut scratch.features);
            let next_cumulative = cumulative * confidence;
            if next_cumulative < self.config.confidence_threshold || !keep(event_type) {
                break;
            }
            cumulative = next_cumulative;
            scratch.out.push(PredictedEvent {
                event_type,
                confidence,
                cumulative_confidence: cumulative,
            });
            // Feed the prediction back: the scratch session observes a
            // synthetic event of the predicted type (no concrete target — the
            // learner predicts types, not nodes).
            let synthetic = WebEvent::new(
                EventId::new(step as u64),
                event_type,
                None,
                TimeUs::ZERO,
                CpuDemand::ZERO,
            );
            session.observe(&synthetic);
        }
        &scratch.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FEATURE_DIM;
    use crate::logistic::LogisticModel;
    use pes_dom::PageBuilder;

    /// A hand-built classifier that is always very confident the next event
    /// is a scroll.
    fn confident_scroll_classifier() -> OneVsRestClassifier {
        let mut models: Vec<LogisticModel> = Vec::new();
        for e in EventType::ALL {
            let bias = if e == EventType::Scroll { 4.0 } else { -4.0 };
            models.push(LogisticModel::from_coefficients(
                vec![0.0; FEATURE_DIM],
                bias,
            ));
        }
        let mut clf = OneVsRestClassifier::zeros(FEATURE_DIM);
        // Replace by re-creating: OneVsRestClassifier does not expose mutable
        // models, so emulate confidence via training on a biased dataset.
        let dataset: Vec<(Vec<f64>, EventType)> = (0..400)
            .map(|i| {
                let mut f = vec![0.0; FEATURE_DIM];
                f[0] = (i % 10) as f64 / 10.0;
                (f, EventType::Scroll)
            })
            .collect();
        clf.train(&dataset, 80, 0.5, 0.0, 3);
        drop(models);
        clf
    }

    fn state() -> SessionState {
        let page = PageBuilder::new(360)
            .nav_bar(3)
            .article_list(8, true)
            .text_block(2_500)
            .build();
        SessionState::new(page.tree.clone())
    }

    #[test]
    fn config_builders_clamp_and_override() {
        let c = LearnerConfig::paper_defaults()
            .with_confidence_threshold(1.5)
            .with_lnes(false);
        assert_eq!(c.confidence_threshold, 1.0);
        assert!(!c.use_lnes);
        assert_eq!(LearnerConfig::default().confidence_threshold, 0.70);
    }

    #[test]
    fn untrained_classifier_predicts_nothing_ahead() {
        let learner = EventSequenceLearner::new(
            OneVsRestClassifier::zeros(FEATURE_DIM),
            LearnerConfig::paper_defaults(),
        );
        assert!(learner.predict_sequence(&state()).is_empty());
    }

    #[test]
    fn confident_classifier_predicts_until_the_threshold_or_cap() {
        let learner = EventSequenceLearner::new(
            confident_scroll_classifier(),
            LearnerConfig::paper_defaults(),
        );
        let seq = learner.predict_sequence(&state());
        assert!(!seq.is_empty());
        assert!(seq.len() <= learner.config().max_degree);
        // Cumulative confidence is non-increasing and stays above threshold.
        for w in seq.windows(2) {
            assert!(w[1].cumulative_confidence <= w[0].cumulative_confidence + 1e-12);
        }
        for p in &seq {
            assert!(p.cumulative_confidence >= learner.config().confidence_threshold);
            assert_eq!(p.event_type, EventType::Scroll);
        }
    }

    #[test]
    fn a_stricter_threshold_shortens_the_sequence() {
        let clf = confident_scroll_classifier();
        let relaxed = EventSequenceLearner::new(
            clf.clone(),
            LearnerConfig::paper_defaults().with_confidence_threshold(0.3),
        );
        let strict = EventSequenceLearner::new(
            clf,
            LearnerConfig::paper_defaults().with_confidence_threshold(0.999),
        );
        let s = state();
        assert!(relaxed.predict_sequence(&s).len() >= strict.predict_sequence(&s).len());
    }

    #[test]
    fn lnes_masking_changes_predictions_when_the_dom_disallows_a_class() {
        // Build a page with *no* scrollable content and no scroll listener, so
        // the LNES cannot contain move events.
        let page = PageBuilder::new(360).nav_bar(3).build();
        let mut state = SessionState::new(page.tree.clone());
        let clf = confident_scroll_classifier();
        let with_lnes =
            EventSequenceLearner::new(clf.clone(), LearnerConfig::paper_defaults().with_lnes(true));
        let without_lnes =
            EventSequenceLearner::new(clf, LearnerConfig::paper_defaults().with_lnes(false));
        let (masked, _) = with_lnes.predict_next(&mut state);
        let (unmasked, _) = without_lnes.predict_next(&mut state);
        assert_ne!(
            masked,
            EventType::Scroll,
            "LNES must exclude scrolling on a short page"
        );
        assert_eq!(unmasked, EventType::Scroll);
    }

    #[test]
    fn keep_cuts_the_round_and_is_called_at_most_once_per_step() {
        let learner = EventSequenceLearner::new(
            confident_scroll_classifier(),
            LearnerConfig::paper_defaults(),
        );
        let s = state();
        let full = learner.predict_sequence(&s);
        assert!(full.len() >= 2);
        let mut scratch = PredictScratch::new();

        // Rejecting the first type gives an empty round after one call.
        let mut calls = 0;
        let round = learner.predict_sequence_while(&s, &mut scratch, |_| {
            calls += 1;
            false
        });
        assert!(round.is_empty());
        assert_eq!(calls, 1);

        // Accepting everything is the unbounded round, one call per step.
        let mut calls = 0;
        let round = learner.predict_sequence_while(&s, &mut scratch, |_| {
            calls += 1;
            true
        });
        assert_eq!(round, &full[..]);
        assert_eq!(calls, full.len());

        // Rejecting the second call keeps exactly the first prediction.
        let mut calls = 0;
        let round = learner.predict_sequence_while(&s, &mut scratch, |_| {
            calls += 1;
            calls < 2
        });
        assert_eq!(round, &full[..1]);
        assert_eq!(calls, 2);
    }

    #[test]
    fn set_config_takes_effect() {
        let mut learner = EventSequenceLearner::new(
            confident_scroll_classifier(),
            LearnerConfig::paper_defaults(),
        );
        let before = learner.predict_sequence(&state()).len();
        learner.set_config(LearnerConfig::paper_defaults().with_confidence_threshold(0.9999));
        let after = learner.predict_sequence(&state()).len();
        assert!(after <= before);
    }
}
