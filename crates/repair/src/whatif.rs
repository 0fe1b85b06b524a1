//! Interactive "what if" exploration of the damage perimeter — the
//! full-scale interactive repair tool the paper's §6 plans ("allows a DBA
//! to interact with the transaction dependency graph ... and explore the
//! damage perimeter by conducting what-if analysis"), as a programmatic
//! session the CLI/GUI layers can wrap.
//!
//! A session holds the DBA's evolving decisions — the initial attack set,
//! active false-dependency rules, and manual inclusions/exclusions — and
//! recomputes the undo set after every change.

use std::collections::BTreeSet;

use crate::controller::Analysis;
use crate::graph::FalseDepRule;

/// An interactive what-if session over one [`Analysis`].
///
/// # Examples
///
/// ```
/// use resildb_core::{Flavor, ResilientDb};
/// use resildb_repair::WhatIfSession;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rdb = ResilientDb::new(Flavor::Postgres)?;
/// let mut conn = rdb.connect()?;
/// conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")?;
/// conn.execute("ANNOTATE attack")?;
/// conn.execute("BEGIN")?;
/// conn.execute("INSERT INTO t (id, v) VALUES (1, 666)")?;
/// conn.execute("COMMIT")?;
/// let attack = rdb.txn_id_by_label("attack")?.unwrap();
///
/// let analysis = rdb.analyze()?;
/// let mut session = WhatIfSession::new(&analysis);
/// session.add_initial(attack);
/// assert!(session.undo_set().contains(&attack));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct WhatIfSession<'a> {
    analysis: &'a Analysis,
    initial: BTreeSet<i64>,
    rules: Vec<FalseDepRule>,
    force_include: BTreeSet<i64>,
    force_exclude: BTreeSet<i64>,
}

impl<'a> WhatIfSession<'a> {
    /// Starts a session with an empty attack set and no rules.
    pub fn new(analysis: &'a Analysis) -> Self {
        Self {
            analysis,
            initial: BTreeSet::new(),
            rules: Vec::new(),
            force_include: BTreeSet::new(),
            force_exclude: BTreeSet::new(),
        }
    }

    /// Adds a transaction to the initial attack set.
    pub fn add_initial(&mut self, txn: i64) -> &mut Self {
        self.initial.insert(txn);
        self
    }

    /// Removes a transaction from the initial attack set.
    pub fn remove_initial(&mut self, txn: i64) -> &mut Self {
        self.initial.remove(&txn);
        self
    }

    /// Activates a false-dependency rule.
    pub fn add_rule(&mut self, rule: FalseDepRule) -> &mut Self {
        if !self.rules.contains(&rule) {
            self.rules.push(rule);
        }
        self
    }

    /// Deactivates every rule.
    pub fn clear_rules(&mut self) -> &mut Self {
        self.rules.clear();
        self
    }

    /// Activates [`FalseDepRule::IgnoreDerivedColumns`] rules built from
    /// the static analyzer's derivable-column inference (one rule per
    /// table), the machine-checked replacement for hand-written DBA rules.
    pub fn add_inferred_rules(
        &mut self,
        derivable: &[resildb_analyze::DerivableColumn],
    ) -> &mut Self {
        for rule in FalseDepRule::from_derivable_columns(derivable) {
            self.add_rule(rule);
        }
        self
    }

    /// Forces a transaction into the undo set regardless of dependency
    /// analysis — the DBA's remedy for the §3.1 false-*negative* cases
    /// (dependencies the tracker cannot see, like the service-fee
    /// example).
    pub fn force_include(&mut self, txn: i64) -> &mut Self {
        self.force_exclude.remove(&txn);
        self.force_include.insert(txn);
        self
    }

    /// Forces a transaction (and only it — its dependents remain judged
    /// by the graph) out of the undo set: the remedy for false positives
    /// the rules cannot express.
    pub fn force_exclude(&mut self, txn: i64) -> &mut Self {
        self.force_include.remove(&txn);
        self.force_exclude.insert(txn);
        self
    }

    /// The active rules.
    pub fn rules(&self) -> &[FalseDepRule] {
        &self.rules
    }

    /// The current initial attack set.
    pub fn initial(&self) -> &BTreeSet<i64> {
        &self.initial
    }

    /// Recomputes the undo set under the current decisions: graph closure
    /// of the initial set (and of forced inclusions — their dependents are
    /// corrupted too) under the rules, minus forced exclusions.
    pub fn undo_set(&self) -> BTreeSet<i64> {
        let mut seeds: Vec<i64> = self.initial.iter().copied().collect();
        seeds.extend(self.force_include.iter().copied());
        let mut set = self.analysis.graph.closure(&seeds, &self.rules);
        for t in &self.force_exclude {
            set.remove(t);
        }
        set
    }

    /// Renders the graph under the current decisions (paper Figure 3,
    /// driven interactively): the initial set filled red, the rest of the
    /// undo set orange, and edges the active rules dismiss dashed gray.
    pub fn to_dot(&self) -> String {
        let graph = &self.analysis.graph;
        graph.to_dot_styled(
            &self.initial,
            Some(&self.undo_set()),
            Some(&graph.pruned_edges(&self.rules)),
        )
    }

    /// A one-line summary for interactive display.
    pub fn summary(&self) -> String {
        let undo = self.undo_set();
        let tracked = self.analysis.tracked_transactions().len();
        format!(
            "undo {} of {} tracked txns ({} rules, {} manual includes, {} manual excludes)",
            undo.len(),
            tracked,
            self.rules.len(),
            self.force_include.len(),
            self.force_exclude.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resildb_engine::{Database, Flavor, Value};
    use resildb_proxy::{prepare_database, ProxyConfig, TrackingProxy};
    use resildb_wire::{Driver, LinkProfile, NativeDriver};

    /// Runs `setup` through the tracking proxy unlabelled, then each
    /// `(label, statements)` as one annotated tracked transaction; returns
    /// the database and the transactions' proxy ids in order.
    fn history(setup: &[&str], txns: &[(&str, &[&str])]) -> (Database, Vec<i64>) {
        let db = Database::in_memory(Flavor::Postgres);
        let native = NativeDriver::new(db.clone(), LinkProfile::local());
        prepare_database(&mut *native.connect().unwrap()).unwrap();
        let config = ProxyConfig::builder(Flavor::Postgres)
            .record_read_only_deps(true)
            .build();
        let driver = TrackingProxy::single_proxy(db.clone(), LinkProfile::local(), config);
        let mut conn = driver.connect().unwrap();
        for s in setup {
            conn.execute(s).unwrap();
        }
        for (label, stmts) in txns {
            conn.execute(&format!("ANNOTATE {label}")).unwrap();
            conn.execute("BEGIN").unwrap();
            for s in *stmts {
                conn.execute(s).unwrap();
            }
            conn.execute("COMMIT").unwrap();
        }
        let id = |label: &str| {
            let mut s = db.session();
            match s
                .query(&format!("SELECT tr_id FROM annot WHERE descr = '{label}'"))
                .unwrap()
                .rows[0][0]
            {
                Value::Int(v) => v,
                ref other => panic!("{other:?}"),
            }
        };
        let ids = txns.iter().map(|(label, _)| id(label)).collect();
        (db, ids)
    }

    /// Three transactions: attack → dependent reader; one independent.
    fn scenario() -> (Database, i64, i64, i64) {
        let (db, ids) = history(
            &["CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)"],
            &[
                ("attack", &["INSERT INTO t (id, v) VALUES (1, 666)"]),
                (
                    "dependent",
                    &[
                        "SELECT v FROM t WHERE id = 1",
                        "INSERT INTO t (id, v) VALUES (2, 1)",
                    ],
                ),
                ("independent", &["INSERT INTO t (id, v) VALUES (3, 3)"]),
            ],
        );
        (db, ids[0], ids[1], ids[2])
    }

    #[test]
    fn closure_recomputes_after_each_decision() {
        let (db, attack, dependent, independent) = scenario();
        let analysis = crate::RepairController::new(db).analyze().unwrap();
        let mut wi = WhatIfSession::new(&analysis);
        assert!(wi.undo_set().is_empty());
        wi.add_initial(attack);
        assert_eq!(wi.undo_set(), [attack, dependent].into_iter().collect());
        assert!(!wi.undo_set().contains(&independent));
        wi.remove_initial(attack);
        assert!(wi.undo_set().is_empty());
    }

    #[test]
    fn force_include_pulls_in_dependents_too() {
        let (db, attack, dependent, independent) = scenario();
        let analysis = crate::RepairController::new(db).analyze().unwrap();
        let mut wi = WhatIfSession::new(&analysis);
        // The DBA knows `attack` is bad but starts from the independent
        // one; forcing the attack in also drags its dependent in.
        wi.add_initial(independent);
        wi.force_include(attack);
        let undo = wi.undo_set();
        assert!(undo.contains(&attack));
        assert!(undo.contains(&dependent));
        assert!(undo.contains(&independent));
    }

    #[test]
    fn force_exclude_spares_a_single_transaction() {
        let (db, attack, dependent, _) = scenario();
        let analysis = crate::RepairController::new(db).analyze().unwrap();
        let mut wi = WhatIfSession::new(&analysis);
        wi.add_initial(attack);
        wi.force_exclude(dependent);
        let undo = wi.undo_set();
        assert!(undo.contains(&attack));
        assert!(!undo.contains(&dependent));
    }

    #[test]
    fn include_and_exclude_are_mutually_exclusive() {
        let (db, attack, _, _) = scenario();
        let analysis = crate::RepairController::new(db).analyze().unwrap();
        let mut wi = WhatIfSession::new(&analysis);
        wi.force_exclude(attack);
        wi.force_include(attack);
        assert!(wi.undo_set().contains(&attack), "last decision wins");
        wi.force_exclude(attack);
        assert!(!wi.undo_set().contains(&attack));
    }

    #[test]
    fn summary_and_dot_render() {
        let (db, attack, _, _) = scenario();
        let analysis = crate::RepairController::new(db).analyze().unwrap();
        let mut wi = WhatIfSession::new(&analysis);
        wi.add_initial(attack);
        assert!(wi.summary().contains("undo 2 of 3"));
        assert!(wi.to_dot().contains("fillcolor"));
    }

    #[test]
    fn dot_styles_initial_undo_set_and_pruned_edges() {
        // The attack writes both tables; one reader depends on it through
        // `kept`, the other only through `scratch`, which a rule ignores.
        let (db, ids) = history(
            &[
                "CREATE TABLE kept (id INTEGER PRIMARY KEY, v INTEGER)",
                "CREATE TABLE scratch (id INTEGER PRIMARY KEY, v INTEGER)",
            ],
            &[
                (
                    "attack",
                    &[
                        "INSERT INTO kept (id, v) VALUES (1, 666)",
                        "INSERT INTO scratch (id, v) VALUES (1, 666)",
                    ],
                ),
                (
                    "via_kept",
                    &[
                        "SELECT v FROM kept WHERE id = 1",
                        "INSERT INTO kept (id, v) VALUES (2, 1)",
                    ],
                ),
                (
                    "via_scratch",
                    &[
                        "SELECT v FROM scratch WHERE id = 1",
                        "INSERT INTO scratch (id, v) VALUES (2, 1)",
                    ],
                ),
            ],
        );
        let (attack, via_kept, via_scratch) = (ids[0], ids[1], ids[2]);
        let analysis = crate::RepairController::new(db).analyze().unwrap();
        let mut wi = WhatIfSession::new(&analysis);
        wi.add_initial(attack);
        wi.add_rule(FalseDepRule::IgnoreTable("scratch".into()));
        assert_eq!(wi.undo_set(), [attack, via_kept].into_iter().collect());

        let dot = wi.to_dot();
        let node = |txn: i64| {
            dot.lines()
                .find(|l| l.trim_start().starts_with(&format!("t{txn} [")))
                .unwrap_or_else(|| panic!("no node t{txn} in {dot}"))
        };
        assert!(node(attack).ends_with("style=filled, fillcolor=indianred1];"));
        assert!(node(via_kept).ends_with("style=filled, fillcolor=orange];"));
        // Its only edge is pruned, so it stays out of the closure.
        assert!(!node(via_scratch).contains("fillcolor"));
        assert!(dot.contains(&format!(
            "t{attack} -> t{via_scratch} [style=dashed, color=gray, label=\"pruned\"];"
        )));
        assert!(dot.contains(&format!("t{attack} -> t{via_kept};")));
    }

    #[test]
    fn inferred_derivable_columns_shrink_the_undo_set() {
        // End to end: the static analyzer infers `warehouse.w_ytd` from the
        // workload's own statements, the session consumes the inference via
        // `add_inferred_rules`, and the Payment→New-Order row-level false
        // dependency disappears from the undo set.
        // The application's statement corpus: Payment bumps the year-to-
        // date accumulator, New-Order reads the tax rate from the same row.
        let payment = ["UPDATE warehouse SET w_ytd = w_ytd + 10 WHERE w_id = 1"];
        let neworder = [
            "SELECT w_tax FROM warehouse WHERE w_id = 1",
            "INSERT INTO orders (o_id, o_w_id) VALUES (1, 1)",
        ];
        let (db, ids) = history(
            &[
                "CREATE TABLE warehouse (w_id INTEGER PRIMARY KEY, w_tax INTEGER, w_ytd INTEGER)",
                "CREATE TABLE orders (o_id INTEGER PRIMARY KEY, o_w_id INTEGER)",
                "INSERT INTO warehouse (w_id, w_tax, w_ytd) VALUES (1, 7, 0)",
            ],
            &[("payment", &payment), ("neworder", &neworder)],
        );
        let (payment_id, neworder_id) = (ids[0], ids[1]);

        // Static inference over the same corpus finds the accumulator.
        let corpus: Vec<resildb_sql::Statement> = payment
            .iter()
            .chain(&neworder)
            .map(|s| resildb_sql::parse_statement(s).unwrap())
            .collect();
        let derivable = resildb_analyze::infer_derivable_columns(&corpus, None);
        assert_eq!(
            derivable.iter().map(|d| d.to_string()).collect::<Vec<_>>(),
            ["warehouse.w_ytd"]
        );

        let analysis = crate::RepairController::new(db).analyze().unwrap();
        let mut wi = WhatIfSession::new(&analysis);
        wi.add_initial(payment_id);
        assert!(
            wi.undo_set().contains(&neworder_id),
            "row-level tracking makes New-Order depend on Payment"
        );
        wi.add_inferred_rules(&derivable);
        assert_eq!(wi.rules().len(), 1);
        let undo = wi.undo_set();
        assert!(undo.contains(&payment_id));
        assert!(
            !undo.contains(&neworder_id),
            "the inferred w_ytd rule discards the false dependency: {undo:?}"
        );
    }

    #[test]
    fn rules_apply_and_clear() {
        let (db, attack, _, _) = scenario();
        let analysis = crate::RepairController::new(db).analyze().unwrap();
        let mut wi = WhatIfSession::new(&analysis);
        wi.add_initial(attack);
        let before = wi.undo_set().len();
        wi.add_rule(FalseDepRule::IgnoreTable("t".into()));
        wi.add_rule(FalseDepRule::IgnoreTable("t".into())); // deduped
        assert_eq!(wi.rules().len(), 1);
        assert!(wi.undo_set().len() <= before);
        wi.clear_rules();
        assert_eq!(wi.undo_set().len(), before);
    }
}
