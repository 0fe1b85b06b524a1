//! Statement plans and the shared rewrite cache that keeps them.
//!
//! The proxy decides once what it does with a statement — a [`Plan`],
//! built by the one planner [`Plan::new`] — and carries that decision out
//! in one executor, whether the plan was just built or came from the cache.
//!
//! The proxy's steady-state workload is a small set of statement *shapes*
//! executed with varying literals (TPC-C has a few dozen). Planning pays
//! lex + parse + clone-rewrite + print. The cache keys on the
//! literal-masked fingerprint from [`resildb_sql::scan_statement`] and
//! stores the plan, whose rewrite is a [`resildb_sql::SqlTemplate`];
//! serving a hit costs a hash lookup plus one text splice.
//!
//! One cache is shared by every connection of a [`crate::TrackingProxy`]
//! factory (the proxy process of the paper), so concurrent clients warm it
//! for each other. The container — sharding, LRU eviction, counters — is
//! a [`resildb_sim::ShapeCache`] held by [`crate::ProxyRuntime`]; this
//! module defines what the proxy stores in it and the slot-count admission
//! check every lookup applies.

use resildb_analyze::{select_harvest, Harvest, HarvestSource, Verdict};
use resildb_sql::{Expr, SqlTemplate, Statement, TRID_PARAM};

use crate::config::ProxyConfig;
use crate::rewrite::{rewrite_create_table, rewrite_insert, rewrite_select, rewrite_update};

/// What the proxy does with one statement: the paper's Table 1 rule that
/// applies to it, with any rewrite already printed. The cache stores
/// exactly what a miss executes.
#[derive(Debug)]
pub(crate) enum Plan {
    /// `BEGIN`: opens an explicit tracked transaction.
    Begin,
    /// `COMMIT`: writes the tracking rows, then commits.
    Commit,
    /// `ROLLBACK`: forgets the tracked transaction, then rolls back.
    Rollback,
    /// DDL, forwarded without bookkeeping: the rewritten CREATE TABLE, or
    /// `None` for a DROP forwarded as sent.
    Ddl(Option<String>),
    /// SELECT that harvests nothing ([`select_harvest`] says so, or read
    /// tracking is disabled): forwarded raw, tracking columns stripped
    /// from the result.
    Strip,
    /// Rewritten SELECT: splice literals into the template, execute, then
    /// harvest dependencies per the harvest list.
    Select {
        /// Printed rewrite with literal splice slots.
        tmpl: SqlTemplate,
        /// What the appended columns carry, in order (it depends only on
        /// the statement shape, never on literals).
        harvest: Vec<HarvestSource>,
    },
    /// Rewritten INSERT/UPDATE: splice literals and the current trid,
    /// execute under write-transaction bookkeeping.
    Write {
        /// Printed rewrite with literal and trid splice slots.
        tmpl: SqlTemplate,
    },
    /// DELETE: forwarded raw, but under write-transaction bookkeeping (its
    /// dependencies are reconstructed from the log at repair time, §3.2).
    WriteRaw,
}

impl Plan {
    /// The one planner: what the proxy configured by `config` does with
    /// `stmt`. When the scanner admitted the statement, `stmt` is its
    /// template (from [`resildb_sql::parse_template`]) with `literals`
    /// masked literals as parameters; otherwise it is the statement as
    /// parsed and `literals` is 0, so a `?` the client wrote is forwarded
    /// as written. The trid is a template slot, so one plan serves every
    /// transaction. `None` if a rewrite cannot be captured as a template.
    /// A statement that writes tracking state is refused before it is
    /// planned: every write planned here is to user columns of a user table.
    pub(crate) fn new(stmt: &Statement, literals: usize, config: &ProxyConfig) -> Option<Plan> {
        let trid = Expr::Param(TRID_PARAM);
        let (rewritten, harvest) = match stmt {
            Statement::Begin => return Some(Plan::Begin),
            Statement::Commit => return Some(Plan::Commit),
            Statement::Rollback => return Some(Plan::Rollback),
            Statement::CreateTable(ct) => {
                let ct = rewrite_create_table(ct, config.flavor, config.granularity);
                return Some(Plan::Ddl(Some(ct.to_string())));
            }
            Statement::DropTable(_) => return Some(Plan::Ddl(None)),
            Statement::Delete(_) => return Some(Plan::WriteRaw),
            Statement::Select(_) if !config.track_reads => return Some(Plan::Strip),
            Statement::Select(sel) => match select_harvest(sel, config.granularity) {
                Harvest::Sources(harvest) => (
                    Statement::Select(rewrite_select(sel, &harvest)),
                    Some(harvest),
                ),
                _ => return Some(Plan::Strip),
            },
            Statement::Insert(ins) => {
                let ins = rewrite_insert(ins, trid, config.flavor, config.granularity);
                (Statement::Insert(ins), None)
            }
            Statement::Update(upd) => {
                let upd = rewrite_update(upd, trid, config.granularity);
                (Statement::Update(upd), None)
            }
        };
        let tmpl = SqlTemplate::of(rewritten, literals)?;
        Some(match harvest {
            Some(harvest) => Plan::Select { tmpl, harvest },
            None => Plan::Write { tmpl },
        })
    }

    /// Whether this plan may serve a statement with `literal_spans` masked
    /// literals. Template-backed plans demand an exact slot match — the
    /// guard against fingerprint collisions and scanner drift; the others
    /// execute the incoming text and need none.
    pub(crate) fn admits(&self, literal_spans: usize) -> bool {
        match self {
            Plan::Select { tmpl, .. } | Plan::Write { tmpl } => {
                tmpl.literal_slots() == literal_spans
            }
            _ => true,
        }
    }
}

/// A planned statement shape: the plan plus the static analyzer's verdict
/// for the shape, computed once when it is planned so enforcement and
/// statistics cost one enum inspection on hits.
#[derive(Debug)]
pub(crate) struct CachedShape {
    /// What the proxy does with the statement.
    pub(crate) plan: Plan,
    /// Trackability verdict of the statement.
    pub(crate) verdict: Verdict,
}

/// Point-in-time counters of the rewrite cache.
pub use resildb_sim::ShapeCacheStats as RewriteCacheStats;

#[cfg(test)]
mod tests {
    use super::*;
    use resildb_engine::Flavor;
    use resildb_sql::{parse_statement, parse_template, scan_statement};

    #[test]
    fn slot_mismatch_is_a_miss() {
        let cache = resildb_sim::ShapeCache::new(4);
        let tmpl = SqlTemplate::new("SELECT ?".into(), &[0], 1).unwrap();
        cache.insert(7, Plan::Write { tmpl });
        let lookup = |spans| cache.lookup(7, |p: &Plan| p.admits(spans));
        assert!(lookup(2).is_none(), "wrong span count must miss");
        assert!(lookup(1).is_some());
    }

    #[test]
    fn a_template_plan_has_one_slot_per_masked_literal() {
        let config = ProxyConfig::new(Flavor::Postgres);
        let sql = "UPDATE acct SET bal = 12.50 WHERE id = 7";
        let scan = scan_statement(sql).unwrap();
        let stmt = parse_template(sql, &scan).unwrap();
        let Some(Plan::Write { tmpl }) = Plan::new(&stmt, scan.spans.len(), &config) else {
            panic!("an UPDATE plans as a rewritten write");
        };
        assert_eq!(tmpl.literal_slots(), 2);
        // The client's literal bytes survive the splice.
        assert_eq!(
            tmpl.splice(sql, &scan.spans, 9),
            "UPDATE acct SET bal = 12.50, trid = 9 WHERE id = 7"
        );
    }

    #[test]
    fn a_negative_operand_of_binary_minus_splices_byte_for_byte() {
        let config = ProxyConfig::new(Flavor::Postgres);
        let sql = "UPDATE acct SET bal = bal - -5 WHERE id = 7";
        let scan = scan_statement(sql).unwrap();
        let stmt = parse_template(sql, &scan).unwrap();
        let Some(Plan::Write { tmpl }) = Plan::new(&stmt, scan.spans.len(), &config) else {
            panic!("an UPDATE plans as a rewritten write");
        };
        // `--` would start a comment: the `-5` keeps its space.
        assert_eq!(
            tmpl.splice(sql, &scan.spans, 9),
            "UPDATE acct SET bal = bal - -5, trid = 9 WHERE id = 7"
        );
        let other = "UPDATE acct SET bal = bal - 4840.30 WHERE id = 8";
        let scan = scan_statement(other).unwrap();
        assert_eq!(
            tmpl.splice(other, &scan.spans, 9),
            "UPDATE acct SET bal = bal - 4840.30, trid = 9 WHERE id = 8"
        );
    }

    #[test]
    fn selects_of_the_tracking_tables_plan_as_a_strip() {
        let config = ProxyConfig::new(Flavor::Postgres);
        for sql in [
            "SELECT * FROM trans_dep",
            "SELECT a.descr FROM ANNOT a, trans_dep_prov p WHERE a.tr_id = p.tr_id",
        ] {
            let stmt = parse_statement(sql).unwrap();
            assert!(matches!(Plan::new(&stmt, 0, &config), Some(Plan::Strip)));
        }
    }
}
