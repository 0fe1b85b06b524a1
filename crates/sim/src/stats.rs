//! Cumulative simulation counters.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter safe to bump from any thread.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Counters for everything charged to the virtual clock.
///
/// # Examples
///
/// ```
/// use resildb_sim::{CostModel, PageKey, SimContext};
///
/// let sim = SimContext::new(CostModel::disk_bound_oltp(), 4);
/// sim.charge_page_read(PageKey::new(9, 0));
/// assert_eq!(sim.stats().page_misses.get(), 1);
/// ```
#[derive(Debug, Default)]
#[allow(missing_docs)] // field names are self-describing counters
pub struct SimStats {
    pub page_hits: Counter,
    pub page_misses: Counter,
    pub pages_written: Counter,
    pub log_bytes: Counter,
    pub log_forces: Counter,
    pub statements: Counter,
    pub rows_touched: Counter,
    /// Row images a statement looked at to produce its `rows_touched`
    /// result rows (counted by the engine's table cursor). A lost access
    /// path shows here as a count, with no clock involved.
    pub rows_examined: Counter,
    pub round_trips: Counter,
    pub network_bytes: Counter,
    pub injected_delays: Counter,
}

impl SimStats {
    /// Buffer-pool hit ratio in `[0, 1]`; `1.0` when there were no accesses.
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.page_hits.get() as f64;
        let total = hits + self.page_misses.get() as f64;
        if total == 0.0 {
            1.0
        } else {
            hits / total
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pages: {} hit / {} miss (ratio {:.2}), {} written; log: {} B in {} forces; \
             {} stmts / {} rows; net: {} rtts / {} B",
            self.page_hits.get(),
            self.page_misses.get(),
            self.hit_ratio(),
            self.pages_written.get(),
            self.log_bytes.get(),
            self.log_forces.get(),
            self.statements.get(),
            self.rows_touched.get(),
            self.round_trips.get(),
            self.network_bytes.get(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        c.add(2);
        c.add(3);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn hit_ratio_handles_empty_and_mixed() {
        let s = SimStats::default();
        assert_eq!(s.hit_ratio(), 1.0);
        s.page_hits.add(3);
        s.page_misses.add(1);
        assert_eq!(s.hit_ratio(), 0.75);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!SimStats::default().to_string().is_empty());
    }
}
