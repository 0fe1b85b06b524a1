//! One-time database preparation: the tracking tables of paper §3.2.

use resildb_wire::{Connection, WireError};

/// Creates the tracking tables on a *raw* (non-proxy) connection: the
/// proxy refuses every client write to them, this DDL included. They
/// carry no `trid` column themselves, and the `trans_dep` insert that lands
/// right before each COMMIT in the transaction log is the anchor the repair
/// tool uses to correlate proxy and internal transaction ids.
///
/// # Errors
///
/// Propagates DDL failures (e.g. the tables already exist).
///
/// # Examples
///
/// ```
/// use resildb_engine::{Database, Flavor};
/// use resildb_wire::{Driver, LinkProfile, NativeDriver};
///
/// # fn main() -> Result<(), resildb_wire::WireError> {
/// let db = Database::in_memory(Flavor::Oracle);
/// let native = NativeDriver::new(db.clone(), LinkProfile::local());
/// resildb_proxy::prepare_database(&mut *native.connect()?)?;
/// assert!(db.table_names().contains(&"trans_dep".to_string()));
/// # Ok(())
/// # }
/// ```
pub fn prepare_database(conn: &mut dyn Connection) -> Result<(), WireError> {
    // Each tracking table carries an identity column so that even the
    // Sybase-flavor repair path (which has no row-id pseudo-column) can
    // address and compensate rows in them.
    conn.execute(
        "CREATE TABLE trans_dep (tr_id INTEGER, dep_tr_ids VARCHAR(200), \
         rid INTEGER IDENTITY)",
    )?;
    conn.execute("CREATE TABLE annot (tr_id INTEGER, descr VARCHAR(64), rid INTEGER IDENTITY)")?;
    conn.execute(
        "CREATE TABLE trans_dep_prov (tr_id INTEGER, dep_tr_id INTEGER, \
         via_table VARCHAR(32), read_cols VARCHAR(200), rid INTEGER IDENTITY)",
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TRACKING_TABLES;
    use resildb_engine::{Database, Flavor};
    use resildb_wire::{Driver, LinkProfile, NativeDriver};

    #[test]
    fn creates_all_tracking_tables() {
        let db = Database::in_memory(Flavor::Sybase);
        let native = NativeDriver::new(db.clone(), LinkProfile::local());
        prepare_database(&mut *native.connect().unwrap()).unwrap();
        let names = db.table_names();
        for t in TRACKING_TABLES {
            assert!(names.contains(&t.to_string()), "{t} missing");
        }
        // Tracking tables have no trid column (raw DDL).
        let schema = db.table("trans_dep").unwrap().read().schema().clone();
        assert!(!schema.has_column("trid"));
    }

    #[test]
    fn double_preparation_errors() {
        let db = Database::in_memory(Flavor::Postgres);
        let native = NativeDriver::new(db, LinkProfile::local());
        let mut conn = native.connect().unwrap();
        prepare_database(&mut *conn).unwrap();
        assert!(prepare_database(&mut *conn).is_err());
    }
}
