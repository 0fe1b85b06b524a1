//! Workload-identity pins: what epoch 0 of the pinned seed must look
//! like from the client's side of the connection.
//!
//! The client tape contains the answers the system gave (an order id
//! read back from `d_next_o_id` is spliced into the next INSERT), so its
//! hash moves when `crates/tpcc` is edited *or* when a query returns a
//! different result. Either way later numbers would no longer measure the
//! work earlier numbers did; a traced run of the pinned seed reports that
//! as "workload or answers changed" and fails. Counts an optimisation may
//! legitimately move (downstream statements, log bytes) are reported, not
//! pinned.
//!
//! To re-pin after a deliberate workload change, run
//! `… -- trace --seed 1 --seconds 1` and copy the observed values from the
//! failure messages.

/// The seed whose epoch 0 is pinned.
pub const PIN_SEED: u64 = 1;

/// The pinned identity of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// Workload name.
    pub workload: &'static str,
    /// FNV-1a of the whole client tape (set-up and measured statements,
    /// thread 0's tape first).
    pub tape_fnv: u64,
    /// Client statements of the measured phase.
    pub client_stmts: u64,
    /// Committed New-Order, Payment, Delivery, Order-Status, Stock-Level.
    pub committed: [u64; 5],
    /// Transactions the repair rolls back (repair workload, else 0).
    pub undo_set_size: u64,
    /// Compensating statements the repair executes (else 0).
    pub compensating_stmts: u64,
}

/// One pin per workload, in `spec::WORKLOADS` order.
pub const PINS: [Pin; 5] = [
    Pin {
        workload: "oltp_tracked",
        tape_fnv: 0xe926_c696_fa89_7720,
        client_stmts: 30_528,
        committed: [918, 833, 82, 81, 86],
        undo_set_size: 0,
        compensating_stmts: 0,
    },
    Pin {
        workload: "oltp_untracked",
        tape_fnv: 0x8add_ba53_20b4_ec6e,
        client_stmts: 28_528,
        committed: [918, 833, 82, 81, 86],
        undo_set_size: 0,
        compensating_stmts: 0,
    },
    Pin {
        workload: "oltp_tracked_2t",
        tape_fnv: 0xfddd_706d_bb16_6727,
        client_stmts: 32_318,
        committed: [800, 800, 400, 0, 0],
        undo_set_size: 0,
        compensating_stmts: 0,
    },
    Pin {
        workload: "reads_tracked",
        tape_fnv: 0xc946_a355_2de8_ca5b,
        client_stmts: 5_972,
        committed: [0, 0, 0, 333, 667],
        undo_set_size: 0,
        compensating_stmts: 0,
    },
    Pin {
        workload: "repair",
        tape_fnv: 0x073c_a49c_4b71_06ec,
        client_stmts: 30_534,
        committed: [918, 833, 82, 81, 86],
        undo_set_size: 709,
        compensating_stmts: 9_933,
    },
];

/// The pin of `workload`.
pub fn pin(workload: &str) -> Option<&'static Pin> {
    PINS.iter().find(|p| p.workload == workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn every_workload_is_pinned_to_its_own_size() {
        assert_eq!(PINS.len(), WORKLOADS.len());
        for (p, w) in PINS.iter().zip(&WORKLOADS) {
            assert_eq!(p.workload, w.name);
            assert_eq!(pin(w.name), Some(p));
            assert_eq!(p.committed.iter().sum::<u64>(), w.traffic.txns() as u64);
            assert_eq!(p.undo_set_size > 0, w.attack_at.is_some());
        }
    }
}
