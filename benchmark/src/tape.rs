//! Boundary decorators for the traced run: a [`TimedConn`] records every
//! statement crossing a `wire::Connection` boundary with its wall-clock
//! span, from the outside — no source of the measured crates is touched.
//!
//! The same decorator sits at both boundaries of the tracked path: around
//! the client's connection (client → proxy) and, through [`Downstream`],
//! around the native connection the proxy talks to (proxy → wire). The two
//! tapes give every layer's self time by subtraction (see
//! [`crate::trace::attribute`]), and the downstream tape is the exact
//! statement sequence the engine saw, replayable on a fresh database.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use resildb_core::{
    Connection, Database, Driver, LinkProfile, MetricsSnapshot, NativeDriver, Response,
    StatementHandle, WireError,
};
use resildb_sql::Literal;

/// Nanoseconds since `since`, saturating.
pub fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The statements one connection carried, in order, with their spans.
#[derive(Debug, Default)]
pub struct Tape {
    /// Statement text, one entry per `execute` call.
    pub sql: Vec<String>,
    /// Wall-clock nanoseconds each call took, parallel to `sql`.
    pub ns: Vec<u64>,
    /// Index of the first statement of the measured phase; everything
    /// before it is set-up (schema, load, history growth).
    pub measured_from: usize,
}

impl Tape {
    /// The statements of the measured phase.
    pub fn measured_sql(&self) -> &[String] {
        &self.sql[self.measured_from..]
    }

    /// Total span nanoseconds of the measured phase.
    pub fn measured_ns(&self) -> u64 {
        self.ns[self.measured_from..].iter().sum()
    }
}

/// A tape shared between the decorator that fills it and the harness
/// that reads it once the run is over.
pub type SharedTape = Arc<Mutex<Tape>>;

fn locked(tape: &SharedTape) -> std::sync::MutexGuard<'_, Tape> {
    tape.lock().expect("a tape writer panicked mid-push")
}

/// Marks the start of the measured phase on `tape`.
pub fn mark_measured(tape: &SharedTape) {
    let mut t = locked(tape);
    t.measured_from = t.sql.len();
}

/// Takes the finished tape out of its shared cell.
pub fn take(tape: &SharedTape) -> Tape {
    std::mem::take(&mut *locked(tape))
}

/// A connection decorator recording every statement and its span.
pub struct TimedConn {
    inner: Box<dyn Connection>,
    tape: SharedTape,
}

impl TimedConn {
    /// Wraps `inner`, returning the decorator and the tape it fills.
    pub fn new(inner: Box<dyn Connection>) -> (Self, SharedTape) {
        let tape = SharedTape::default();
        let conn = Self {
            inner,
            tape: Arc::clone(&tape),
        };
        (conn, tape)
    }
}

impl Connection for TimedConn {
    fn execute(&mut self, sql: &str) -> Result<Response, WireError> {
        let start = Instant::now();
        let result = self.inner.execute(sql);
        let ns = elapsed_ns(start);
        let mut tape = locked(&self.tape);
        tape.sql.push(sql.to_owned());
        tape.ns.push(ns);
        result
    }

    fn prepare(&mut self, sql: &str) -> Result<StatementHandle, WireError> {
        self.inner.prepare(sql)
    }

    fn execute_prepared(
        &mut self,
        handle: StatementHandle,
        params: &[Literal],
    ) -> Result<Response, WireError> {
        self.inner.execute_prepared(handle, params)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }
}

/// The driver the proxy (or, untracked, the client) connects through:
/// the native driver, optionally decorated so that every connection it
/// opens records its own tape. One tape per connection keeps the traced
/// two-thread run free of a shared lock the untraced run does not have.
#[derive(Clone)]
pub struct Downstream {
    native: NativeDriver,
    tapes: Option<Arc<Mutex<Vec<SharedTape>>>>,
}

impl Downstream {
    /// A driver for `db` over the local link; `traced` decides whether
    /// its connections record tapes.
    pub fn new(db: Database, traced: bool) -> Self {
        Self {
            native: NativeDriver::new(db, LinkProfile::local()),
            tapes: traced.then(Default::default),
        }
    }

    /// The tapes of every connection opened so far, in opening order
    /// (empty when untraced).
    pub fn tapes(&self) -> Vec<SharedTape> {
        self.tapes.as_ref().map_or_else(Vec::new, |t| {
            t.lock().expect("tape registry poisoned").clone()
        })
    }
}

impl Driver for Downstream {
    fn connect(&self) -> Result<Box<dyn Connection>, WireError> {
        let conn = self.native.connect()?;
        let Some(registry) = &self.tapes else {
            return Ok(conn);
        };
        let (timed, tape) = TimedConn::new(conn);
        registry.lock().expect("tape registry poisoned").push(tape);
        Ok(Box::new(timed))
    }
}

/// 64-bit FNV-1a over the statements of a tape, each terminated by a
/// newline — the workload-identity hash pinned in `pins.rs`.
pub fn fnv1a<'a>(statements: impl IntoIterator<Item = &'a String>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for s in statements {
        s.bytes().for_each(&mut eat);
        eat(b'\n');
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use resildb_core::Flavor;

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a("a\n") computed by hand from the reference constants.
        let one = vec!["a".to_string()];
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in [b'a', b'\n'] {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(fnv1a(&one), h);
        assert_eq!(fnv1a(&Vec::new()), 0xcbf2_9ce4_8422_2325);
        // Statement boundaries matter: ["ab"] != ["a", "b"].
        assert_ne!(
            fnv1a(&vec!["ab".to_string()]),
            fnv1a(&vec!["a".to_string(), "b".to_string()])
        );
    }

    #[test]
    fn timed_conn_records_every_statement_and_the_measured_mark() {
        let db = Database::in_memory(Flavor::Postgres);
        let down = Downstream::new(db.clone(), true);
        let mut conn = down.connect().unwrap();
        conn.execute("CREATE TABLE t (a INTEGER)").unwrap();
        let tapes = down.tapes();
        assert_eq!(tapes.len(), 1);
        mark_measured(&tapes[0]);
        conn.execute("INSERT INTO t (a) VALUES (1)").unwrap();
        assert!(conn.execute("SELECT nope FROM t").is_err());
        let tape = take(&tapes[0]);
        assert_eq!(tape.sql.len(), 3);
        assert_eq!(tape.ns.len(), 3);
        assert_eq!(tape.measured_sql().len(), 2, "failed calls are taped too");
        assert_eq!(tape.measured_ns(), tape.ns[1] + tape.ns[2]);
        assert_eq!(db.row_count("t").unwrap(), 1);
    }

    #[test]
    fn untraced_downstream_hands_out_plain_connections() {
        let down = Downstream::new(Database::in_memory(Flavor::Postgres), false);
        down.connect().unwrap();
        assert!(down.tapes().is_empty());
    }
}
