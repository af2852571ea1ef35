//! Umbrella crate for the Spyker reproduction workspace.
//!
//! Re-exports the public crates so examples and integration tests can use a
//! single dependency. See the individual crates for the substance:
//!
//! * [`spyker_core`] — the Spyker protocol (paper's contribution)
//! * [`spyker_baselines`] — FedAvg, FedAsync, HierFAVG
//! * [`spyker_simnet`] — deterministic geo-distributed network simulator
//! * [`spyker_models`] / [`spyker_tensor`] / [`spyker_data`] — training stack
//! * [`spyker_transport`] — multi-process TCP deployment of the same actors
//! * [`spyker_experiments`] — table/figure reproduction harness
//! * [`spyker_obs`] — typed metrics registry, tracing spans, run reports

pub use spyker_baselines as baselines;
pub use spyker_core as core;
pub use spyker_data as data;
pub use spyker_experiments as experiments;
pub use spyker_models as models;
pub use spyker_obs as obs;
pub use spyker_simnet as simnet;
pub use spyker_tensor as tensor;
pub use spyker_transport as transport;
