//! VOPR-style deterministic scenario fuzzer for resildb.
//!
//! One `u64` seed deterministically generates a complete scenario — a
//! TPC-C-shaped schedule with malicious transactions spliced in, scripted
//! failpoint arms (crashes mid-commit, disconnects, delays, panics across
//! the wire/proxy/engine/repair stack), an optional crash-recovery point
//! — and the harness runs it end-to-end: track → attack → repair → clean
//! replay, across all three engine flavors, optionally on real OS
//! threads. A battery of oracles then checks the intrusion-resilience
//! invariants the paper promises (see [`oracle`]); any violation is a
//! finding that reproduces from the seed alone, auto-shrinks
//! ([`mod@shrink`]), and lands in the checked-in corpus ([`corpus`]).
//!
//! The name is an homage to TigerBeetle's VOPR ("Viewstamped Operation
//! Replicator"): simulate everything, check everything, keep only seeds.

pub mod corpus;
pub mod harness;
pub mod oracle;
pub mod scenario;
pub mod shrink;

pub use harness::{run_scenario, run_seed, Canary, Outcome, RunOptions, RunReport};
pub use scenario::{generate, Scenario};
pub use shrink::{shrink, Shrunk};
