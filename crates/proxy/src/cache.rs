//! Shared statement-template rewrite cache.
//!
//! The proxy's steady-state workload is a small set of statement *shapes*
//! executed with varying literals (TPC-C has a few dozen). Cold, every
//! occurrence pays lex + parse + clone-rewrite + print. The cache keys on
//! the literal-masked fingerprint from [`resildb_sql::scan_statement`] and
//! stores the finished rewrite as a [`resildb_sql::SqlTemplate`]; replaying
//! a hit costs a hash lookup plus one text splice.
//!
//! One cache is shared by every connection of a [`crate::TrackingProxy`]
//! factory (the proxy process of the paper), so concurrent clients warm it
//! for each other. The container — sharding, LRU eviction, counters — is
//! a [`resildb_sim::ShapeCache`] held by [`crate::ProxyRuntime`]; this
//! module defines what the proxy stores in it and the slot-count admission
//! check every lookup applies.

use resildb_analyze::Verdict;
use resildb_sql::SqlTemplate;

use crate::rewrite::SelectRewrite;

/// How a cached statement shape is replayed.
///
/// The variants mirror the branches of the cold interception path exactly;
/// a hit must behave byte-identically to what the cold path would have
/// done for the same SQL.
#[derive(Debug)]
pub(crate) enum CacheEntry {
    /// Statement on a tracking table: forwarded untouched, no transaction
    /// bookkeeping.
    PassthroughRaw,
    /// SELECT that is not rewritten (aggregates, DISTINCT, no FROM, or
    /// read tracking disabled): forwarded raw, tracking columns stripped
    /// from the result.
    PassthroughStrip,
    /// Rewritten SELECT: splice literals into the template, execute, then
    /// harvest dependencies per the cached plan.
    Select {
        /// Printed rewrite with literal splice slots.
        tmpl: SqlTemplate,
        /// Harvest plan (identical to what the cold rewrite computes —
        /// it depends only on the statement shape, never on literals).
        plan: SelectRewrite,
    },
    /// Rewritten INSERT/UPDATE: splice literals and the current trid,
    /// execute under write-transaction bookkeeping.
    Write {
        /// Printed rewrite with literal and trid splice slots.
        tmpl: SqlTemplate,
    },
    /// DELETE: forwarded raw, but under write-transaction bookkeeping.
    WriteRaw,
}

impl CacheEntry {
    /// Whether this entry may be replayed for a statement with
    /// `literal_spans` masked literals. Template-backed entries demand an
    /// exact slot match — the guard against fingerprint collisions and
    /// scanner drift; raw entries execute the incoming text and need none.
    pub(crate) fn admits(&self, literal_spans: usize) -> bool {
        match self {
            CacheEntry::Select { tmpl, .. } | CacheEntry::Write { tmpl } => {
                tmpl.literal_slots() == literal_spans
            }
            _ => true,
        }
    }
}

/// A cached statement shape: the replay recipe plus the static analyzer's
/// verdict for the shape, computed once on the cold path so enforcement
/// and statistics cost one enum inspection on hits.
#[derive(Debug)]
pub(crate) struct CachedShape {
    /// How to replay the shape.
    pub(crate) entry: CacheEntry,
    /// Trackability verdict; `None` for the proxy's own tracking-table
    /// statements, which are exempt from classification and enforcement.
    pub(crate) verdict: Option<Verdict>,
}

/// Point-in-time counters of the rewrite cache.
pub use resildb_sim::ShapeCacheStats as RewriteCacheStats;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_mismatch_is_a_miss() {
        let cache = resildb_sim::ShapeCache::new(4);
        let tmpl = SqlTemplate::new("SELECT ?".into(), &[0]).unwrap();
        cache.insert(7, CacheEntry::Write { tmpl });
        let lookup = |spans| cache.lookup(7, |e: &CacheEntry| e.admits(spans));
        assert!(lookup(2).is_none(), "wrong span count must miss");
        assert!(lookup(1).is_some());
    }
}
