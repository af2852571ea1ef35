//! Deterministic discrete-event simulation of geo-distributed FL systems.
//!
//! The Spyker paper evaluates its algorithms in an *emulated* deployment:
//! client training delays are sampled from a Gaussian, inter-node latency
//! comes from an AWS inter-region latency table (paper Tab. 4), links have
//! 100 Mbps bandwidth, and each aggregation procedure costs a measured
//! amount of CPU time (paper Tab. 3). This crate implements that emulation
//! as a deterministic discrete-event simulator (DES):
//!
//! * [`time::SimTime`] — virtual time with microsecond resolution;
//! * [`runtime::Node`] / [`runtime::Env`] — the actor interface protocol
//!   code is written against (the TCP transport in `spyker-transport`
//!   drives the *same* actors);
//! * [`net`] — regions, the AWS latency matrix, bandwidth and jitter;
//! * [`fault`] — deterministic fault injection (message loss, partitions,
//!   crashes, churn) driven by a seeded [`fault::FaultPlan`];
//! * [`avail`] — client availability schedules (offline windows, compute
//!   tiers) via an [`avail::AvailabilityPlan`], distinct from faults;
//! * [`des::Simulation`] — the event loop with per-node busy/queue
//!   accounting and FIFO links;
//! * [`metrics`] — counters and time series (bytes transferred, queue
//!   lengths, accuracy curves).
//!
//! Every run is reproducible: identical seeds and configurations produce an
//! identical event schedule and identical metrics.
//!
//! # Example
//!
//! ```
//! use spyker_simnet::des::Simulation;
//! use spyker_simnet::net::{NetworkConfig, Region};
//! use spyker_simnet::runtime::{Env, Node, NodeId, WireSize};
//! use spyker_simnet::time::SimTime;
//! use std::any::Any;
//!
//! #[derive(Debug, Clone)]
//! struct Ping(u32);
//! impl WireSize for Ping {
//!     fn wire_size(&self) -> usize { 4 }
//! }
//!
//! struct Echo;
//! impl Node<Ping> for Echo {
//!     fn on_start(&mut self, env: &mut dyn Env<Ping>) {
//!         if env.me() == 0 { env.send(1, Ping(0)); }
//!     }
//!     fn on_message(&mut self, env: &mut dyn Env<Ping>, from: NodeId, msg: Ping) {
//!         if msg.0 < 3 { env.send(from, Ping(msg.0 + 1)); }
//!     }
//!     fn as_any(&self) -> &dyn Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn Any { self }
//! }
//!
//! let mut sim = Simulation::new(NetworkConfig::uniform(SimTime::from_millis(10)), 42);
//! sim.add_node(Box::new(Echo), Region::Paris);
//! sim.add_node(Box::new(Echo), Region::Sydney);
//! let report = sim.run(SimTime::from_secs(1));
//! assert_eq!(report.events_processed, 6); // 2 starts + 4 deliveries
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod avail;
pub mod des;
pub mod fault;
pub mod metrics;
pub mod net;
mod pairmap;
pub mod runtime;
pub mod time;
mod wheel;

pub use avail::{AvailWindow, AvailabilityPlan};
pub use des::{EventTap, NoTap, ProbeCtx, RunReport, SchedulerKind, Simulation, TapCtx, TapKind};
pub use fault::{ByzantineAttack, ByzantineClient, FaultPlan};
pub use metrics::Metrics;
pub use net::{aws_latency_matrix, LinkModel, NetworkConfig, Region};
pub use runtime::{Env, Node, NodeId, WireSize};
pub use spyker_obs::report::peak_rss_bytes;
pub use time::SimTime;
