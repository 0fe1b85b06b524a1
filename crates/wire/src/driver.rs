//! JDBC-like driver abstraction and the native driver.

use resildb_engine::{Database, PreparedStatement, Session};
use resildb_sim::{failpoints, InjectedFault, MetricsSnapshot, Micros};
use resildb_sql::Literal;

use crate::error::WireError;
use crate::message::{response_wire_bytes, Response};

/// Latency profile of one network link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkProfile {
    /// Fixed round-trip latency.
    pub rtt: Micros,
    /// Transfer cost per byte, in nanoseconds.
    pub per_byte_ns: u64,
}

impl LinkProfile {
    /// A 100 Mbps-LAN-like link (the paper's networked configuration).
    pub fn lan() -> Self {
        Self {
            rtt: Micros::new(200),
            per_byte_ns: 80,
        }
    }

    /// Same-machine IPC (the paper's local configuration, and the
    /// server-proxy→DBMS leg of the dual-proxy architecture).
    pub fn local() -> Self {
        Self {
            rtt: Micros::new(15),
            per_byte_ns: 2,
        }
    }
}

/// Server-side handle to a statement prepared on one connection (the JDBC
/// `PreparedStatement` analogue). Handles are connection-scoped: a handle
/// from one connection is meaningless on another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatementHandle(u64);

/// An open connection executing SQL text.
pub trait Connection: Send {
    /// Executes one statement.
    ///
    /// # Errors
    ///
    /// [`WireError::Db`] for DBMS errors (deadlock victims have been rolled
    /// back), [`WireError::Protocol`] for transport problems.
    fn execute(&mut self, sql: &str) -> Result<Response, WireError>;

    /// Prepares `sql` (which may contain `?` placeholders) server-side,
    /// paying the parse cost once, and returns a handle for repeated
    /// execution.
    ///
    /// The default refuses: a connection type must opt in. In particular
    /// the dependency-tracking proxy connections deliberately do **not** —
    /// a client-prepared statement would bypass the proxy's SQL rewriting
    /// and with it the trid stamping the repair capability rests on.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] when unsupported; [`WireError::Db`] for
    /// parse errors.
    fn prepare(&mut self, sql: &str) -> Result<StatementHandle, WireError> {
        let _ = sql;
        Err(WireError::Protocol(
            "prepared statements are not supported on this connection".into(),
        ))
    }

    /// Executes a previously prepared statement with `params` bound to its
    /// `?` placeholders in source order.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] when unsupported or the handle is unknown;
    /// [`WireError::Db`] for binding and execution errors.
    fn execute_prepared(
        &mut self,
        handle: StatementHandle,
        params: &[Literal],
    ) -> Result<Response, WireError> {
        let _ = (handle, params);
        Err(WireError::Protocol(
            "prepared statements are not supported on this connection".into(),
        ))
    }

    /// A metrics snapshot for the database behind this connection,
    /// including any layer-specific counters the connection type folds in
    /// (e.g. the tracking proxy's rewrite-cache and enforcement stats).
    ///
    /// The default returns an empty snapshot: a connection type opts in.
    fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }
}

/// A connection factory (the JDBC `Driver` analogue).
pub trait Driver: Send + Sync {
    /// Opens a fresh connection.
    ///
    /// # Errors
    ///
    /// Transport or resource errors.
    fn connect(&self) -> Result<Box<dyn Connection>, WireError>;
}

/// The "real JDBC driver": speaks the DBMS's proprietary protocol directly
/// to the server, charging one link round trip per statement.
#[derive(Debug, Clone)]
pub struct NativeDriver {
    db: Database,
    link: LinkProfile,
}

impl NativeDriver {
    /// Creates a driver for `db` over `link`.
    pub fn new(db: Database, link: LinkProfile) -> Self {
        Self { db, link }
    }

    /// The database this driver connects to.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The link profile in use.
    pub fn link(&self) -> LinkProfile {
        self.link
    }
}

impl Driver for NativeDriver {
    fn connect(&self) -> Result<Box<dyn Connection>, WireError> {
        Ok(Box::new(NativeConnection {
            session: self.db.session(),
            db: self.db.clone(),
            link: self.link,
            prepared: Vec::new(),
            dropped: false,
        }))
    }
}

struct NativeConnection {
    session: Session,
    db: Database,
    link: LinkProfile,
    prepared: Vec<PreparedStatement>,
    /// Set when a `wire.conn_drop` fault severed this connection; every
    /// later call fails fast with [`WireError::ConnectionDropped`].
    dropped: bool,
}

impl NativeConnection {
    /// Evaluates the wire-level failpoints for one carried statement. A
    /// drop rolls the server-side transaction back (the server notices the
    /// lost peer) and poisons the connection.
    fn check_faults(&mut self) -> Result<(), WireError> {
        if self.dropped {
            return Err(WireError::ConnectionDropped);
        }
        let sim = self.db.sim().clone();
        sim.fault_check(failpoints::WIRE_LATENCY); // Delay applied in place
        match sim.fault_check(failpoints::WIRE_CONN_DROP) {
            None => Ok(()),
            Some(InjectedFault::Disconnect) | Some(InjectedFault::Error) => {
                self.dropped = true;
                if self.session.in_transaction() {
                    let _ = self.session.execute_sql("ROLLBACK");
                }
                Err(WireError::ConnectionDropped)
            }
            Some(InjectedFault::Delay(_)) => unreachable!("fault_check consumes delays"),
        }
    }
}

impl Connection for NativeConnection {
    fn execute(&mut self, sql: &str) -> Result<Response, WireError> {
        self.check_faults()?;
        let outcome = self.session.execute_sql(sql)?;
        let response = Response::from(outcome);
        let bytes = sql.len() + response_wire_bytes(&response);
        self.db
            .sim()
            .charge_link(self.link.rtt, self.link.per_byte_ns, bytes);
        // In wall-clock mode, sleep off the virtual time this statement
        // accrued — outside every engine latch, so concurrent sessions
        // overlap their waits.
        self.db.sim().pay_pending_wait();
        Ok(response)
    }

    fn prepare(&mut self, sql: &str) -> Result<StatementHandle, WireError> {
        self.check_faults()?;
        let prepared = self.session.prepare(sql)?;
        self.prepared.push(prepared);
        // One round trip carrying the statement text; the reply is a
        // fixed-size handle acknowledgement.
        self.db
            .sim()
            .charge_link(self.link.rtt, self.link.per_byte_ns, sql.len() + 8);
        self.db.sim().pay_pending_wait();
        Ok(StatementHandle((self.prepared.len() - 1) as u64))
    }

    fn execute_prepared(
        &mut self,
        handle: StatementHandle,
        params: &[Literal],
    ) -> Result<Response, WireError> {
        self.check_faults()?;
        let prepared = self
            .prepared
            .get(handle.0 as usize)
            .cloned()
            .ok_or_else(|| WireError::Protocol(format!("unknown statement handle {}", handle.0)))?;
        let outcome = self.session.execute_prepared(&prepared, params)?;
        let response = Response::from(outcome);
        // The request carries only the handle and the bound values — the
        // wire-cost advantage of prepared execution over statement text.
        let request_bytes: usize = 8 + params
            .iter()
            .map(|p| p.to_string().len() + 1)
            .sum::<usize>();
        let bytes = request_bytes + response_wire_bytes(&response);
        self.db
            .sim()
            .charge_link(self.link.rtt, self.link.per_byte_ns, bytes);
        self.db.sim().pay_pending_wait();
        Ok(response)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.db.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resildb_engine::Flavor;
    use resildb_sim::{CostModel, SimContext};

    #[test]
    fn native_driver_executes_and_charges() {
        let sim = SimContext::new(CostModel::free(), 64);
        let db = Database::new("t", Flavor::Postgres, sim);
        let driver = NativeDriver::new(db.clone(), LinkProfile::lan());
        let mut conn = driver.connect().unwrap();
        conn.execute("CREATE TABLE t (a INTEGER)").unwrap();
        conn.execute("INSERT INTO t (a) VALUES (1)").unwrap();
        let resp = conn.execute("SELECT a FROM t").unwrap();
        assert_eq!(resp.rows().unwrap().rows.len(), 1);
        assert_eq!(db.sim().stats().round_trips.get(), 3);
        assert!(db.sim().clock().now() >= Micros::new(600), "3 RTTs charged");
    }

    #[test]
    fn db_errors_surface_as_wire_errors() {
        let db = Database::in_memory(Flavor::Postgres);
        let driver = NativeDriver::new(db, LinkProfile::local());
        let mut conn = driver.connect().unwrap();
        let err = conn.execute("SELECT * FROM missing").unwrap_err();
        assert!(matches!(err, WireError::Db(_)));
    }

    #[test]
    fn prepared_statements_execute_with_bindings() {
        let db = Database::in_memory(Flavor::Postgres);
        let driver = NativeDriver::new(db, LinkProfile::local());
        let mut conn = driver.connect().unwrap();
        conn.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
        let ins = conn.prepare("INSERT INTO t (a, b) VALUES (?, ?)").unwrap();
        conn.execute_prepared(ins, &[Literal::Int(1), Literal::Str("x".into())])
            .unwrap();
        conn.execute_prepared(ins, &[Literal::Int(2), Literal::Str("y".into())])
            .unwrap();
        let sel = conn.prepare("SELECT b FROM t WHERE a = ?").unwrap();
        let resp = conn.execute_prepared(sel, &[Literal::Int(2)]).unwrap();
        assert_eq!(
            resp.rows().unwrap().rows,
            vec![vec![resildb_engine::Value::Str("y".into())]]
        );
    }

    #[test]
    fn prepared_charges_fewer_wire_bytes_than_text() {
        let sim = SimContext::new(CostModel::free(), 64);
        let db = Database::new("t", Flavor::Postgres, sim);
        let driver = NativeDriver::new(db.clone(), LinkProfile::lan());
        let mut conn = driver.connect().unwrap();
        conn.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
        let handle = conn.prepare("INSERT INTO t (a, b) VALUES (?, ?)").unwrap();
        let before = db.sim().stats().network_bytes.get();
        conn.execute_prepared(handle, &[Literal::Int(1), Literal::Str("abc".into())])
            .unwrap();
        let prepared_bytes = db.sim().stats().network_bytes.get() - before;
        let before = db.sim().stats().network_bytes.get();
        conn.execute("INSERT INTO t (a, b) VALUES (2, 'abc')")
            .unwrap();
        let text_bytes = db.sim().stats().network_bytes.get() - before;
        assert!(
            prepared_bytes < text_bytes,
            "prepared request ({prepared_bytes}B) must beat statement text ({text_bytes}B)"
        );
    }

    #[test]
    fn bad_handles_and_arity_are_errors() {
        let db = Database::in_memory(Flavor::Postgres);
        let driver = NativeDriver::new(db, LinkProfile::local());
        let mut conn = driver.connect().unwrap();
        conn.execute("CREATE TABLE t (a INTEGER)").unwrap();
        assert!(matches!(
            conn.execute_prepared(StatementHandle(99), &[]),
            Err(WireError::Protocol(_))
        ));
        let h = conn.prepare("INSERT INTO t (a) VALUES (?)").unwrap();
        assert!(matches!(
            conn.execute_prepared(h, &[]),
            Err(WireError::Db(_))
        ));
        assert!(matches!(conn.prepare("SELEC ?"), Err(WireError::Db(_))));
    }

    #[test]
    fn connections_are_independent_sessions() {
        let db = Database::in_memory(Flavor::Postgres);
        let driver = NativeDriver::new(db, LinkProfile::local());
        let mut c1 = driver.connect().unwrap();
        let mut c2 = driver.connect().unwrap();
        c1.execute("CREATE TABLE t (a INTEGER)").unwrap();
        c1.execute("BEGIN").unwrap();
        c1.execute("INSERT INTO t (a) VALUES (1)").unwrap();
        // c2 must not be inside c1's transaction.
        assert!(matches!(
            c2.execute("COMMIT").unwrap_err(),
            WireError::Db(_)
        ));
        c1.execute("COMMIT").unwrap();
    }
}
