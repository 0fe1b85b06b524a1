//! Static SQL trackability analysis for the intrusion-resilient proxy.
//!
//! The DSN'04 framework tracks inter-transaction dependencies by rewriting
//! SQL in flight. Rewriting has documented blind spots — aggregate and
//! `DISTINCT` selects, tracking-column collisions, statements outside the
//! proxy dialect — and each blind spot silently weakens repair soundness.
//! This crate makes the blind spots explicit *before deployment*:
//!
//! * [`Analyzer`] classifies every statement into the
//!   [`Verdict`] lattice `Sound < Degraded < Untracked`, with stable
//!   machine-readable [`Reason`] codes;
//! * [`infer_derivable_columns`] infers *false-dependency candidates* —
//!   pure accumulator columns (TPC-C's `w_ytd` et al.) whose writes can be
//!   discarded from damage closures — replacing hand-maintained DBA rules;
//! * [`CoverageReport`] turns both into workload lint reports, consumed by
//!   the `resildb-lint` binary and the CI coverage gate.
//!
//! The proxy consults [`classify_statement`] at rewrite time to enforce a
//! warn/reject policy; the repair tool consumes the inferred derivable
//! columns as false-dependency discard rules. The tracking-column
//! vocabulary ([`TRID_COLUMN`] and friends) lives here, the lowest layer
//! all three share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod blast;
mod classify;
mod columns;
mod conflict;
mod derive;
mod dot;
mod jsonish;
mod profile;
mod report;
mod verdict;

pub use blast::{BaselineVerdict, BlastRadius, ProfileClosure};
pub use classify::{
    classify_statement, columns_read_for, select_has_aggregate, Analyzer, SchemaSnapshot,
};
pub use columns::{is_tracking_column, COLUMN_TRID_PREFIX, IDENTITY_COLUMN, TRID_COLUMN};
pub use conflict::{ConflictGraph, ConflictKind, ConflictProvenance, ProfileEdge};
pub use derive::{infer_derivable_columns, DerivableColumn};
pub use dot::{DotBuilder, EdgeStyle, FILL_ATTACK, FILL_CLOSURE};
pub use jsonish::{parse_json, JsonValue};
pub use profile::{group_transactions, profiles_from_groups, TxnProfile, WriteFootprint};
pub use report::{CoverageReport, StatementReport};
// Re-exported so profile consumers can inspect footprints without a
// direct dependency on the SQL crate.
pub use resildb_sql::ColumnSet;
pub use verdict::{Granularity, Reason, Verdict};
