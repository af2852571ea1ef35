//! Real-time deployment of the protocol actors over TCP.
//!
//! The simulator in `spyker-simnet` executes actors deterministically in
//! virtual time; this crate executes the *same* [`Node`] actors in real
//! time, one node per OS process, exchanging canonical `spyker-core` codec
//! frames over sockets. See [`tcp`] for the runtime and `DESIGN.md` §13
//! for its robustness model.
//!
//! Emulated geo latency and message faults are virtual-time concerns and
//! live in the simulator; a deployment sees whatever latency and faults its
//! real network has.
//!
//! [`Node`]: spyker_simnet::runtime::Node

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tcp;
