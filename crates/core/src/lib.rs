//! The Spyker protocol: fully asynchronous multi-server federated learning.
//!
//! This crate implements the paper's contribution:
//!
//! * [`params::ParamVec`] — flat model parameter vectors exchanged between
//!   nodes (the protocol is model-agnostic; actual training is injected via
//!   the [`training::LocalTrainer`] trait);
//! * [`decay`] — the client learning-rate decay that keeps fast clients from
//!   biasing server models (paper §4.1);
//! * [`staleness`] — age/staleness weighting for client updates (Alg. 1) and
//!   the sigmoid age weight for server-model aggregation (Alg. 2, §4.3);
//! * [`token`] — the token circulated on the server ring that serialises
//!   synchronisation triggers (Alg. 2);
//! * [`client::FlClient`] — the asynchronous client actor (Alg. 1,
//!   `LocalTraining`), reused by the baselines;
//! * [`server::SpykerServer`] — the Spyker server actor (Alg. 1
//!   `Aggregation` + Alg. 2);
//! * [`agg`] — Byzantine-robust aggregation strategies (trimmed mean,
//!   median, norm clipping) and the server-side update validation gate;
//! * [`sync_spyker::SyncSpykerServer`] — the partially synchronous variant
//!   used as an ablation in the paper.
//!
//! Actors implement [`spyker_simnet::Node`] and therefore run both under the
//! deterministic simulator and over the TCP transport.
//!
//! # Example
//!
//! Build a two-server, four-client Spyker deployment with a toy trainer and
//! run it for ten virtual seconds:
//!
//! ```
//! use spyker_core::config::SpykerConfig;
//! use spyker_core::deploy::{spyker_deployment, SpykerDeploymentSpec};
//! use spyker_core::training::MeanTargetTrainer;
//! use spyker_simnet::{NetworkConfig, SimTime};
//!
//! let spec = SpykerDeploymentSpec {
//!     config: SpykerConfig::paper_defaults(4, 2),
//!     trainers: (0..4)
//!         .map(|i| {
//!             Box::new(MeanTargetTrainer::new(vec![i as f32; 4], 16))
//!                 as Box<dyn spyker_core::training::LocalTrainer>
//!         })
//!         .collect(),
//!     num_servers: 2,
//!     init_params: spyker_core::params::ParamVec::zeros(4),
//!     train_delay: vec![SimTime::from_millis(150); 4],
//! };
//! let mut sim = spyker_deployment(NetworkConfig::aws(), 7, spec);
//! sim.run(SimTime::from_secs(10));
//! assert!(sim.metrics().counter("updates.processed") > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod autoscale;
pub mod client;
pub mod cluster;
pub mod codec;
pub mod cohort;
pub mod config;
pub mod decay;
pub mod deploy;
pub mod membership;
pub mod msg;
pub mod params;
pub mod server;
pub mod staleness;
pub mod sync_spyker;
pub mod token;
pub mod training;
pub mod update_codec;

pub use agg::{AggregationStrategy, RejectReason, RobustAggregator, ValidationConfig};
pub use autoscale::{Autoscaler, AutoscalerConfig};
pub use client::{FailoverConfig, FlClient};
pub use cluster::{ClusterTrainer, ClusteredFlClient, ClusteredSpykerServer, KCenters};
pub use cohort::CohortClient;
pub use config::SpykerConfig;
pub use membership::{MembershipConfig, RingMember, RingView};
pub use msg::FlMsg;
pub use params::ParamVec;
pub use server::SpykerServer;
pub use sync_spyker::SyncSpykerServer;
pub use training::{EvalReport, Evaluator, LocalTrainer, MetricKind};
pub use update_codec::{
    param_hash, CodecConfig, CodecError, QuantBits, Rounding, UpdateDecoder, UpdateEncoder,
};
