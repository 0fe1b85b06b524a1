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
//! The proxy consults [`classify_statement`] when it plans a statement: it
//! counts every verdict, refuses writes to tracking state under every
//! policy and, under its reject policy, every other untracked statement.
//! It rewrites a SELECT by [`select_harvest`], the decision the classifier
//! judges. The repair tool consumes the inferred derivable columns as
//! false-dependency discard rules. The tracking vocabulary
//! ([`TRID_COLUMN`], [`TRACKING_TABLES`] and friends) lives
//! here, the lowest layer all three share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod blast;
mod classify;
mod columns;
mod conflict;
mod derive;
mod dot;
mod harvest;
mod jsonish;
mod profile;
mod report;
mod verdict;

pub use blast::{BaselineVerdict, BlastRadius, ProfileClosure};
pub use classify::{classify_statement, Analyzer, SchemaSnapshot};
pub use columns::{
    is_tracking_column, is_tracking_table, ANNOT_TABLE, COLUMN_TRID_PREFIX, IDENTITY_COLUMN,
    PROV_TABLE, TRACKING_TABLES, TRANS_DEP_TABLE, TRID_COLUMN,
};
pub use conflict::{ConflictGraph, ConflictKind, ConflictProvenance, ProfileEdge};
pub use derive::{infer_derivable_columns, DerivableColumn};
pub use dot::{DotBuilder, EdgeStyle, FILL_ATTACK, FILL_CLOSURE};
pub use harvest::{select_harvest, Harvest, HarvestSource};
pub use jsonish::{parse_json, JsonValue};
pub use profile::{group_transactions, profiles_from_groups, TxnProfile, WriteFootprint};
pub use report::{CoverageReport, StatementReport};
// Re-exported so profile consumers can inspect footprints without a
// direct dependency on the SQL crate.
pub use resildb_sql::ColumnSet;
pub use verdict::{Granularity, Reason, Verdict};
