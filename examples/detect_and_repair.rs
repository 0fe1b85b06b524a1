//! End-to-end security pipeline (paper §6's envisioned integration):
//! rule-based intrusion **detection** over the transaction history feeds
//! the **selective repair** machinery — no human in the loop for the
//! clear-cut cases.
//!
//! Run with: `cargo run --example detect_and_repair`

use resildb_core::{AnomalyRule, Flavor, ResilientDb, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rdb = ResilientDb::new(Flavor::Postgres)?;
    let mut conn = rdb.connect()?;
    conn.execute("CREATE TABLE acct (id INTEGER PRIMARY KEY, bal FLOAT)")?;
    conn.execute("INSERT INTO acct (id, bal) VALUES (1, 120.0), (2, 80.0), (3, 310.0), (4, 55.0)")?;

    // Normal traffic: small transfers.
    for (from, to) in [(1, 2), (3, 4), (2, 3)] {
        conn.execute("BEGIN")?;
        conn.execute(&format!("SELECT bal FROM acct WHERE id = {from}"))?;
        conn.execute(&format!(
            "UPDATE acct SET bal = bal - 10.0 WHERE id = {from}"
        ))?;
        conn.execute(&format!("UPDATE acct SET bal = bal + 10.0 WHERE id = {to}"))?;
        conn.execute("COMMIT")?;
    }

    // The intrusion: an absurd balance jump, buried mid-history.
    conn.execute("BEGIN")?;
    conn.execute("UPDATE acct SET bal = 750000.0 WHERE id = 2")?;
    conn.execute("COMMIT")?;

    // More normal traffic afterwards, some of it reading the bad balance.
    conn.execute("BEGIN")?;
    conn.execute("SELECT bal FROM acct WHERE id = 2")?;
    conn.execute("UPDATE acct SET bal = bal + 1.0 WHERE id = 4")?;
    conn.execute("COMMIT")?;
    conn.execute("UPDATE acct SET bal = bal - 2.0 WHERE id = 3")?;

    // Detection: the DBA's standing rules flag suspicious history.
    let analysis = rdb.analyze()?;
    let rules = [
        AnomalyRule::ValueSpike {
            table: "acct".into(),
            column: "bal".into(),
            max_delta: 10_000.0,
        },
        AnomalyRule::LargeWriteSet { max_rows: 100 },
    ];
    let detections = resildb_core::detect(&analysis, &rules);
    println!("detections:");
    for d in &detections {
        println!("  txn {} at {:?}: {}", d.proxy_txn, d.lsn, d.reason);
    }
    assert_eq!(detections.len(), 1, "exactly the forged update");

    // Repair straight from the detection.
    let initial: Vec<i64> = detections.iter().map(|d| d.proxy_txn).collect();
    let report = rdb.repair(&initial, &[])?;
    println!(
        "repaired: rolled back {:?}, saved {}/{} transactions",
        report.undo_set, report.saved, report.tracked_total
    );

    let mut s = rdb.database().session();
    let r = s.query("SELECT id, bal FROM acct ORDER BY id")?;
    println!("final state:");
    for row in &r.rows {
        println!("  acct {} = {}", row[0], row[1]);
    }
    // Account 2's forged balance is gone (80 = 80 +10 -10 from the two
    // legitimate transfers); the post-attack transaction that read the
    // forged value was rolled back with it; everything else kept.
    assert_eq!(r.rows[1][1], Value::Float(80.0));
    Ok(())
}
