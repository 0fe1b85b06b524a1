//! Quickstart: make a database intrusion-resilient, suffer an attack,
//! repair it — in under a minute of reading.
//!
//! Run with: `cargo run --example quickstart`

use resildb_core::{Flavor, ResilientDb};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. An intrusion-resilient database: an emulated PostgreSQL-like
    //    engine with the SQL-rewriting tracking proxy in front.
    let rdb = ResilientDb::new(Flavor::Postgres)?;
    let mut conn = rdb.connect()?;

    // 2. Ordinary application work — the proxy tracks dependencies
    //    transparently; the application needs no changes.
    conn.execute(
        "CREATE TABLE account (id INTEGER PRIMARY KEY, owner VARCHAR(16), balance FLOAT)",
    )?;
    conn.execute(
        "INSERT INTO account (id, owner, balance) VALUES \
         (1, 'alice', 100.0), (2, 'bob', 50.0), (3, 'carol', 75.0)",
    )?;

    // 3. The attack: a malicious transaction that has already COMMITTED —
    //    ordinary DBMS recovery cannot touch it.
    conn.execute("ANNOTATE attack")?;
    conn.execute("BEGIN")?;
    conn.execute("UPDATE account SET balance = 1000000.0 WHERE id = 1")?;
    conn.execute("COMMIT")?;

    // 4. Business continues before anyone notices. One transaction reads
    //    the poisoned balance (and is therefore polluted); another is
    //    completely unrelated.
    conn.execute("ANNOTATE polluted_transfer")?;
    conn.execute("BEGIN")?;
    conn.execute("SELECT balance FROM account WHERE id = 1")?;
    conn.execute("UPDATE account SET balance = balance + 10.0 WHERE id = 2")?;
    conn.execute("COMMIT")?;
    conn.execute("UPDATE account SET balance = balance - 5.0 WHERE id = 3")?;

    // 5. Detection: the DBA identifies the attack transaction and asks the
    //    framework for the damage perimeter.
    let attack = rdb.txn_id_by_label("attack")?.expect("attack was tracked");
    let analysis = rdb.analyze()?;
    let undo_set = analysis.undo_set(&[attack], &[]);
    println!("attack txn id: {attack}");
    println!(
        "damage perimeter: {undo_set:?} ({} of {} tracked transactions)",
        undo_set.len(),
        analysis.tracked_transactions().len()
    );

    // 6. Selective undo: only the attack and its dependents are rolled
    //    back; the unrelated update survives.
    let report = rdb.repair(&[attack], &[])?;
    println!(
        "repair: {} compensating statements, {} transactions saved ({:.0}%)",
        report.outcome.statements.len(),
        report.saved,
        report.saved_percentage()
    );

    let mut s = rdb.database().session();
    println!("\nfinal state:");
    for row in s
        .query("SELECT id, owner, balance FROM account ORDER BY id")?
        .rows
    {
        println!("  {} {} {}", row[0], row[1], row[2]);
    }
    // alice: 100 (attack undone), bob: 50 (polluted transfer undone),
    // carol: 70 (legitimate work preserved).
    Ok(())
}
