//! Offline predictor training and accuracy evaluation (Sec. 5.5, Sec. 6.2).
//!
//! The paper records ~100 interaction traces across the 12 seen applications,
//! trains one global event-sequence model on all of them (the DOM analysis
//! then specialises predictions per application at runtime), and evaluates on
//! freshly collected traces from new users — including six applications never
//! seen during training. The reproduction mirrors that protocol with seeded
//! synthetic traces: training traces come from the [`pes_workload::TRAINING_SEED_BASE`]
//! seed range, evaluation traces from the disjoint [`pes_workload::EVAL_SEED_BASE`] range.

use std::fmt;

use pes_dom::{BuiltPage, EventType, EventTypeSet};
use pes_workload::{AppCatalog, AppProfile, Trace, TraceGenerator, TRAINING_SEED_BASE};

use crate::features::{FeatureVector, SessionState, FEATURE_DIM};
use crate::learner::{EventSequenceLearner, LearnerConfig};
use crate::logistic::OneVsRestClassifier;

/// Typed errors of the fallible training entry points. The infallible
/// `train*` convenience methods keep their historical lenient semantics
/// (an empty dataset yields a zero classifier); callers that want
/// misconfigurations surfaced instead of absorbed use the `try_*` forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The concatenated dataset holds no samples — training would silently
    /// return an untrained (all-0.5) classifier.
    EmptyDataset,
    /// A sample's feature row does not match [`FEATURE_DIM`]; SGD would
    /// silently truncate or zero-pad it.
    DimensionMismatch {
        /// The dimension training expects ([`FEATURE_DIM`]).
        expected: usize,
        /// The offending sample's dimension.
        got: usize,
        /// Index of the offending sample in the concatenated dataset.
        sample: usize,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::EmptyDataset => write!(f, "training dataset is empty"),
            TrainError::DimensionMismatch {
                expected,
                got,
                sample,
            } => write!(f, "sample {sample} has {got} features, expected {expected}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingConfig {
    /// Training traces generated per seen application (the paper records
    /// "over 100" traces across 12 applications, i.e. roughly 9 per app).
    pub traces_per_app: usize,
    /// SGD epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// L2 regularisation strength.
    pub l2: f64,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            traces_per_app: 9,
            epochs: 60,
            learning_rate: 0.45,
            l2: 1e-5,
            seed: 2019,
        }
    }
}

/// Builds a supervised dataset from traces of one application: the features
/// observed *before* each event paired with that event's type. The initial
/// page load is never a prediction target (prediction starts once a session
/// is underway).
pub fn build_dataset(page: &BuiltPage, traces: &[Trace]) -> Vec<(FeatureVector, EventType)> {
    let mut dataset = Vec::with_capacity(traces.iter().map(|t| t.len().saturating_sub(1)).sum());
    for trace in traces {
        let mut state = SessionState::new(page.tree.clone());
        for (i, event) in trace.events().iter().enumerate() {
            if i > 0 {
                dataset.push((state.features(), event.event_type()));
            }
            state.observe(event);
        }
    }
    dataset
}

/// The trainer: generates training traces, builds the global dataset and fits
/// the one-vs-rest classifier.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Trainer {
    config: TrainingConfig,
}

impl Trainer {
    /// Creates a trainer with the default configuration.
    pub fn new() -> Self {
        Trainer {
            config: TrainingConfig::default(),
        }
    }

    /// Creates a trainer with an explicit configuration.
    pub fn with_config(config: TrainingConfig) -> Self {
        Trainer { config }
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainingConfig {
        &self.config
    }

    /// Builds the training dataset of one application: its page, its seeded
    /// training traces and the per-event feature/label samples. Each app's
    /// dataset is independent of every other app's — the unit of work the
    /// experiment drivers fan out over scoped threads.
    pub fn app_dataset(&self, app: &AppProfile) -> Vec<(FeatureVector, EventType)> {
        let page = app.build_page();
        let traces = TraceGenerator::new().generate_many(
            app,
            &page,
            TRAINING_SEED_BASE + app_offset(app),
            self.config.traces_per_app,
        );
        build_dataset(&page, &traces)
    }

    /// Fits the one-vs-rest classifier on per-application datasets supplied
    /// in catalog order. Concatenation order is part of the training
    /// protocol (the SGD shuffle is seeded over the concatenated dataset),
    /// so callers building datasets in parallel must still yield them in the
    /// serial order for byte-identical models.
    pub fn train_from_app_datasets<I>(&self, datasets: I) -> OneVsRestClassifier
    where
        I: IntoIterator<Item = Vec<(FeatureVector, EventType)>>,
    {
        let mut dataset = Vec::new();
        for app_dataset in datasets {
            dataset.extend(app_dataset);
        }
        self.fit(&dataset)
    }

    /// [`Trainer::train_from_app_datasets`] surfacing misconfigurations as
    /// typed errors instead of absorbing them: an empty dataset and
    /// wrong-dimension feature rows are rejected rather than silently
    /// yielding an untrained or truncated model.
    pub fn try_train_from_app_datasets<I>(
        &self,
        datasets: I,
    ) -> Result<OneVsRestClassifier, TrainError>
    where
        I: IntoIterator<Item = Vec<(FeatureVector, EventType)>>,
    {
        let mut dataset = Vec::new();
        for app_dataset in datasets {
            dataset.extend(app_dataset);
        }
        if dataset.is_empty() {
            return Err(TrainError::EmptyDataset);
        }
        for (sample, (features, _)) in dataset.iter().enumerate() {
            if features.len() != FEATURE_DIM {
                return Err(TrainError::DimensionMismatch {
                    expected: FEATURE_DIM,
                    got: features.len(),
                    sample,
                });
            }
        }
        Ok(self.fit(&dataset))
    }

    /// Fits a fresh classifier on an already-concatenated dataset.
    fn fit(&self, dataset: &[(FeatureVector, EventType)]) -> OneVsRestClassifier {
        let mut classifier = OneVsRestClassifier::zeros(FEATURE_DIM);
        classifier.train(
            dataset,
            self.config.epochs,
            self.config.learning_rate,
            self.config.l2,
            self.config.seed,
        );
        classifier
    }

    /// Trains the global event-sequence classifier on training traces from
    /// every *seen* application in the catalog (Sec. 5.5: "the event sequence
    /// model is trained using training traces from all applications").
    pub fn train(&self, catalog: &AppCatalog) -> OneVsRestClassifier {
        self.train_from_app_datasets(catalog.seen_apps().map(|app| self.app_dataset(app)))
    }

    /// [`Trainer::train`] with typed errors: a catalog with no seen apps
    /// (or otherwise empty training data) is rejected instead of yielding
    /// an untrained classifier.
    pub fn try_train(&self, catalog: &AppCatalog) -> Result<OneVsRestClassifier, TrainError> {
        self.try_train_from_app_datasets(catalog.seen_apps().map(|app| self.app_dataset(app)))
    }

    /// Convenience: trains and wraps the classifier into a sequence learner
    /// with the given configuration.
    pub fn train_learner(
        &self,
        catalog: &AppCatalog,
        config: LearnerConfig,
    ) -> EventSequenceLearner {
        EventSequenceLearner::new(self.train(catalog), config)
    }
}

fn app_offset(app: &AppProfile) -> u64 {
    // Deterministic, per-app disjoint seed offsets.
    app.name()
        .bytes()
        .fold(0u64, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u64))
        % 1_000
        * 101
}

/// One-step-ahead prediction accuracy over evaluation traces of a single
/// application: the fraction of events whose type the learner predicts
/// correctly from the state immediately before them (the Fig. 8 metric).
///
/// Accepts owned traces or shared `Arc<Trace>` handles (the form the
/// experiment drivers' scenario cache holds).
pub fn evaluate_accuracy<T: std::borrow::Borrow<Trace>>(
    learner: &EventSequenceLearner,
    page: &BuiltPage,
    traces: &[T],
) -> f64 {
    let mut total = 0usize;
    let mut correct = 0usize;
    for trace in traces {
        let trace = trace.borrow();
        let mut state = SessionState::new(page.tree.clone());
        for (i, event) in trace.events().iter().enumerate() {
            if i > 0 {
                let (predicted, _) = learner.predict_next(&mut state);
                total += 1;
                if predicted == event.event_type() {
                    correct += 1;
                }
            }
            state.observe(event);
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

/// The batched twin of [`evaluate_accuracy`]: all of an app's evaluation
/// traces advance in lockstep and each step runs **one**
/// [`crate::PackedModel::predict_many`] matrix pass over every still-active
/// session, instead of one scalar inference per (trace, event). Decisions
/// are the packed plane's f32 decisions — bit-identical to
/// [`EventSequenceLearner::predict_next_packed`] per event, because the
/// batch path reuses the single path's kernel.
pub fn evaluate_accuracy_batched<T: std::borrow::Borrow<Trace>>(
    learner: &EventSequenceLearner,
    page: &BuiltPage,
    traces: &[T],
) -> f64 {
    let packed = learner.packed();
    let use_lnes = learner.config().use_lnes;
    let mut states: Vec<SessionState> = traces
        .iter()
        .map(|_| SessionState::new(page.tree.clone()))
        .collect();
    let max_len = traces.iter().map(|t| t.borrow().len()).max().unwrap_or(0);
    let mut features = Vec::with_capacity(FEATURE_DIM);
    let mut rows: Vec<f32> = Vec::new();
    let mut masks: Vec<EventTypeSet> = Vec::new();
    let mut active: Vec<usize> = Vec::new();
    let mut decisions: Vec<(EventType, f32)> = Vec::new();
    let mut total = 0usize;
    let mut correct = 0usize;
    for i in 0..max_len {
        // Gather one feature row + LNES mask per still-active session.
        rows.clear();
        masks.clear();
        active.clear();
        if i > 0 {
            for (t, trace) in traces.iter().enumerate() {
                if i >= trace.borrow().len() {
                    continue;
                }
                let state = &mut states[t];
                state.features_into(&mut features);
                packed.pad_features_append(&features, &mut rows);
                masks.push(if use_lnes {
                    state.allowed_types()
                } else {
                    EventTypeSet::ALL
                });
                active.push(t);
            }
            // One matrix pass over the whole shard of pending sessions.
            packed.predict_many(&rows, &masks, &mut decisions);
            for (&t, &(predicted, _)) in active.iter().zip(decisions.iter()) {
                total += 1;
                if predicted == traces[t].borrow().events()[i].event_type() {
                    correct += 1;
                }
            }
        }
        for (t, trace) in traces.iter().enumerate() {
            let trace = trace.borrow();
            if i < trace.len() {
                states[t].observe(&trace.events()[i]);
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pes_workload::EVAL_SEED_BASE;

    fn small_trainer() -> Trainer {
        Trainer::with_config(TrainingConfig {
            traces_per_app: 3,
            epochs: 18,
            ..TrainingConfig::default()
        })
    }

    #[test]
    fn dataset_has_one_sample_per_non_initial_event() {
        let catalog = AppCatalog::paper_suite();
        let app = catalog.find("bbc").unwrap();
        let page = app.build_page();
        let traces = TraceGenerator::new().generate_many(app, &page, 1, 2);
        let dataset = build_dataset(&page, &traces);
        let expected: usize = traces.iter().map(|t| t.len() - 1).sum();
        assert_eq!(dataset.len(), expected);
        for (features, _) in &dataset {
            assert_eq!(features.len(), FEATURE_DIM);
        }
    }

    #[test]
    fn training_is_deterministic() {
        let catalog = AppCatalog::paper_suite();
        let trainer = small_trainer();
        assert_eq!(trainer.train(&catalog), trainer.train(&catalog));
    }

    #[test]
    fn trained_predictor_beats_a_majority_class_guesser_on_seen_apps() {
        let catalog = AppCatalog::paper_suite();
        let learner = small_trainer().train_learner(&catalog, LearnerConfig::paper_defaults());
        let generator = TraceGenerator::new();
        let mut accuracies = Vec::new();
        let mut majority_baselines = Vec::new();
        for app in catalog.seen_apps().take(4) {
            let page = app.build_page();
            let traces = generator.generate_many(app, &page, EVAL_SEED_BASE, 2);
            accuracies.push(evaluate_accuracy(&learner, &page, &traces));
            // Majority baseline: always predict the most common class.
            let mut counts = [0usize; EventType::ALL.len()];
            for t in &traces {
                for (i, e) in t.events().iter().enumerate() {
                    if i > 0 {
                        counts[e.event_type().class_index()] += 1;
                    }
                }
            }
            let total: usize = counts.iter().sum();
            majority_baselines.push(*counts.iter().max().unwrap() as f64 / total.max(1) as f64);
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&accuracies) > avg(&majority_baselines) + 0.05,
            "learned accuracy {:.3} vs majority {:.3}",
            avg(&accuracies),
            avg(&majority_baselines)
        );
        assert!(
            avg(&accuracies) > 0.7,
            "accuracy too low: {:.3}",
            avg(&accuracies)
        );
    }

    #[test]
    fn accuracy_on_empty_traces_is_zero() {
        let catalog = AppCatalog::paper_suite();
        let app = catalog.find("bbc").unwrap();
        let page = app.build_page();
        let learner = EventSequenceLearner::new(
            OneVsRestClassifier::zeros(FEATURE_DIM),
            LearnerConfig::paper_defaults(),
        );
        assert_eq!(evaluate_accuracy::<Trace>(&learner, &page, &[]), 0.0);
    }

    #[test]
    fn default_config_matches_paper_protocol() {
        let c = TrainingConfig::default();
        // Roughly 100 traces across 12 apps.
        assert!((90..=130).contains(&(c.traces_per_app * 12)));
    }
}
