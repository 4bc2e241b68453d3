//! # pes-predictor — the hybrid learning-analytical event predictor
//!
//! The prediction half of PES (Feng & Zhu, ISCA 2019, Sec. 5.2): user events
//! within an interaction session exhibit strong temporal correlation, so a
//! set of per-class logistic models over the Table 1 features predicts the
//! type of the immediate next event; the DOM analyzer's Likely-Next-Event-Set
//! narrows the candidate classes to those the application logic allows; and
//! the sequence learner chains predictions recurrently until the cumulative
//! confidence drops below a threshold (70 % by default), producing the
//! predicted event sequence the optimizer schedules speculatively.
//!
//! * [`SessionState`] — the live session context (DOM, viewport, recent-event
//!   window) and the feature extraction of Table 1,
//! * [`OneVsRestClassifier`] / [`LogisticModel`] — the statistical model; every
//!   prediction runs on its f64 weights,
//! * [`EventSequenceLearner`] — confidence-chained multi-step prediction with
//!   LNES masking,
//! * [`Trainer`] — offline training on generated traces plus the Fig. 8
//!   accuracy evaluation.
//!
//! # Examples
//!
//! ```no_run
//! use pes_predictor::{evaluate_accuracy, LearnerConfig, Trainer};
//! use pes_workload::{AppCatalog, TraceGenerator, EVAL_SEED_BASE};
//!
//! let catalog = AppCatalog::paper_suite();
//! let learner = Trainer::new().train_learner(&catalog, LearnerConfig::paper_defaults());
//!
//! let app = catalog.find("ebay").unwrap();
//! let page = app.build_page();
//! let eval = TraceGenerator::new().generate_many(app, &page, EVAL_SEED_BASE, 3);
//! let accuracy = evaluate_accuracy(&learner, &page, &eval);
//! assert!(accuracy > 0.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod features;
pub mod learner;
pub mod logistic;
pub mod trainer;

pub use features::{FeatureVector, HistoryWindow, SessionState, FEATURE_DIM, HISTORY_WINDOW};
pub use learner::{EventSequenceLearner, LearnerConfig, PredictScratch, PredictedEvent};
pub use logistic::{LogisticModel, OneVsRestClassifier};
pub use trainer::{build_dataset, evaluate_accuracy, Trainer, TrainingConfig};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SessionState>();
        assert_send_sync::<OneVsRestClassifier>();
        assert_send_sync::<EventSequenceLearner>();
        assert_send_sync::<Trainer>();
    }
}
