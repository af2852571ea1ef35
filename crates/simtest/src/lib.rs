//! Deterministic simulation testing for the Spyker protocol.
//!
//! A FoundationDB/VOPR-style harness on top of `spyker-simnet`: one `u64`
//! seed expands into a full randomized scenario (topology, latency model,
//! protocol knobs, fault schedule), the scenario runs through the
//! deterministic simulator while a suite of [`oracle::Oracle`]s checks
//! protocol invariants at every event, and a failing scenario is
//! automatically [shrunk](fn@shrink) to a minimal reproducer and written out
//! as a self-contained `repro_<seed>.ron`.
//!
//! The pipeline, end to end:
//!
//! ```text
//! seed ──generate──▶ SimScenario ──build──▶ Simulation<FlMsg>
//!                        │                        │  EventTap
//!                        │                        ▼
//!                        │                  OracleSuite ──violation──┐
//!                        │                                          ▼
//!                        └──◀──────────── shrink ◀──────────── Violation
//!                                           │
//!                                           ▼
//!                                   repro_<seed>.ron (+ test snippet)
//! ```
//!
//! Everything is bit-reproducible: the same seed yields the same scenario,
//! the same event schedule, and the same [`harness::RunStats::fingerprint`]
//! on every invocation (the `seeded_run_is_bit_identical` e2e test pins
//! this). See `DESIGN.md` §11 for the invariant catalog and the workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod oracle;
pub mod presets;
pub mod repro;
pub mod scale;
pub mod scenario;
pub mod shrink;

pub use harness::{run_scenario, RunOutcome, RunStats, Violation};
pub use oracle::{default_suite, Oracle, OracleCtx};
pub use presets::ScenarioPreset;
pub use repro::{load_repro, write_repro};
pub use scale::{build_scale, run_scale, ScaleSpec, ScaleStats};
pub use scenario::{Injection, SimScenario};
pub use shrink::shrink;
