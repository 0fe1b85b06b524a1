//! Proxy configuration.

use resildb_analyze::Granularity;
use resildb_engine::Flavor;
use resildb_sim::Telemetry;

/// What the proxy does with statements the static analyzer classifies as
/// untracked (aggregate/DISTINCT reads, unparsable statements). Every
/// verdict is counted in [`crate::TrackerStats`] under either policy, and
/// writes to tracking state — a tracking column or table — are refused
/// under either.
///
/// The paper treats untracked statements as documented limitations and
/// forwards them; with the analyzer in the loop the operator can choose
/// the contract instead. `Reject` turns the soundness guarantee from "best
/// effort" into an invariant: every statement the DBMS executes is one
/// whose dependencies the repair capability can see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnforcementPolicy {
    /// Forward untracked statements (the paper's behaviour).
    #[default]
    Allow,
    /// Refuse untracked statements with a client-visible error before
    /// they reach the DBMS. Degraded statements still pass.
    Reject,
}

/// Configuration of the tracking proxy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyConfig {
    /// Flavor of the protected DBMS — decides whether the proxy must
    /// inject an identity column (the Sybase workaround of paper §4.3).
    pub flavor: Flavor,
    /// Whether SELECT statements are rewritten to harvest read
    /// dependencies. Turning this off degrades the proxy to trid stamping
    /// only (useful for ablation benchmarks).
    pub track_reads: bool,
    /// Whether the dependency record is written to `trans_dep`/`annot` at
    /// commit. Turning this off isolates the commit-time insert cost
    /// (ablation benchmarks).
    pub record_deps_at_commit: bool,
    /// Whether column-level provenance rows are written to
    /// `trans_dep_prov` at commit. Provenance is this implementation's
    /// extension enabling machine-checkable false-dependency rules; the
    /// paper's prototype recorded only `trans_dep`/`annot`, so
    /// paper-faithful overhead measurements turn this off.
    pub record_provenance: bool,
    /// Whether read-only transactions also get a `trans_dep` record.
    /// Off by default: a transaction that wrote nothing cannot pollute the
    /// database, and recording it would add a pure log-force penalty to
    /// every read-only commit (the paper's Figure 4 read-intensive numbers
    /// imply its prototype did not pay one).
    pub record_read_only_deps: bool,
    /// Capacity (in statement shapes) of the shared rewrite cache; `0`
    /// disables caching so every statement takes the cold rewrite path
    /// (ablation benchmarks, `fig4 --no-rewrite-cache`).
    pub rewrite_cache_capacity: usize,
    /// Row-level (paper) or column-level (§6 extension) tracking.
    pub granularity: Granularity,
    /// What to do with statements the static analyzer classifies as
    /// untracked (dependencies invisible to the tracking layer).
    pub enforcement: EnforcementPolicy,
    /// Telemetry domain the proxy's spans and counters record into. When
    /// `None` (the default) the proxy records into the simulation
    /// context's domain, which is disabled unless the embedder enabled it
    /// (the `ResilientDb` facade does).
    pub telemetry: Option<Telemetry>,
}

impl ProxyConfig {
    /// The standard configuration for `flavor` (everything on).
    pub fn new(flavor: Flavor) -> Self {
        Self {
            flavor,
            track_reads: true,
            record_deps_at_commit: true,
            record_provenance: true,
            record_read_only_deps: false,
            rewrite_cache_capacity: 256,
            granularity: Granularity::Row,
            enforcement: EnforcementPolicy::Allow,
            telemetry: None,
        }
    }

    /// A builder starting from the standard configuration for `flavor`.
    ///
    /// ```
    /// use resildb_proxy::{EnforcementPolicy, ProxyConfig};
    /// use resildb_engine::Flavor;
    ///
    /// let config = ProxyConfig::builder(Flavor::Postgres)
    ///     .rewrite_cache_capacity(64)
    ///     .enforcement(EnforcementPolicy::Reject)
    ///     .record_read_only_deps(true)
    ///     .build();
    /// assert_eq!(config.rewrite_cache_capacity, 64);
    /// assert_eq!(config.enforcement, EnforcementPolicy::Reject);
    /// assert!(config.record_read_only_deps);
    /// ```
    pub fn builder(flavor: Flavor) -> ProxyConfigBuilder {
        ProxyConfigBuilder {
            config: Self::new(flavor),
        }
    }

    /// A compact one-line description of the knobs that shape tracking
    /// behaviour — stamped into bench `--json-out` reports so every
    /// `BENCH_*.json` artifact records the configuration that produced it.
    pub fn summary(&self) -> String {
        format!(
            "flavor={} track_reads={} deps_at_commit={} provenance={} ro_deps={} \
             cache_cap={} granularity={} enforcement={}",
            self.flavor.name(),
            self.track_reads,
            self.record_deps_at_commit,
            self.record_provenance,
            self.record_read_only_deps,
            self.rewrite_cache_capacity,
            match self.granularity {
                Granularity::Row => "row",
                Granularity::Column => "column",
            },
            match self.enforcement {
                EnforcementPolicy::Allow => "allow",
                EnforcementPolicy::Reject => "reject",
            },
        )
    }
}

/// Builder for [`ProxyConfig`]; see [`ProxyConfig::builder`].
///
/// Every field has a setter so adding config fields (telemetry recorders,
/// sharding, …) stays non-breaking for builder users.
#[derive(Debug, Clone)]
pub struct ProxyConfigBuilder {
    config: ProxyConfig,
}

impl ProxyConfigBuilder {
    /// Whether SELECTs are rewritten to harvest read dependencies.
    pub fn track_reads(mut self, on: bool) -> Self {
        self.config.track_reads = on;
        self
    }

    /// Whether dependency records are written at commit.
    pub fn record_deps_at_commit(mut self, on: bool) -> Self {
        self.config.record_deps_at_commit = on;
        self
    }

    /// Whether column-level provenance rows are written at commit.
    pub fn record_provenance(mut self, on: bool) -> Self {
        self.config.record_provenance = on;
        self
    }

    /// Whether read-only transactions also get a `trans_dep` record.
    pub fn record_read_only_deps(mut self, on: bool) -> Self {
        self.config.record_read_only_deps = on;
        self
    }

    /// Rewrite-cache capacity in statement shapes (`0` disables).
    pub fn rewrite_cache_capacity(mut self, capacity: usize) -> Self {
        self.config.rewrite_cache_capacity = capacity;
        self
    }

    /// Row-level or column-level tracking.
    pub fn granularity(mut self, granularity: Granularity) -> Self {
        self.config.granularity = granularity;
        self
    }

    /// Policy for statements the analyzer classifies as untracked.
    pub fn enforcement(mut self, policy: EnforcementPolicy) -> Self {
        self.config.enforcement = policy;
        self
    }

    /// Telemetry domain for the proxy's spans and counters.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.config.telemetry = Some(telemetry);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ProxyConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_tracks_everything() {
        let c = ProxyConfig::new(Flavor::Sybase);
        assert!(c.track_reads);
        assert!(c.record_deps_at_commit);
        assert!(!c.record_read_only_deps);
        assert_eq!(c.flavor, Flavor::Sybase);
        assert_eq!(c.granularity, Granularity::Row);
    }

    #[test]
    fn builder_matches_field_mutation() {
        let built = ProxyConfig::builder(Flavor::Oracle)
            .track_reads(false)
            .rewrite_cache_capacity(8)
            .granularity(Granularity::Column)
            .enforcement(EnforcementPolicy::Reject)
            .build();
        assert!(!built.track_reads);
        assert_eq!(built.rewrite_cache_capacity, 8);
        assert_eq!(built.granularity, Granularity::Column);
        assert_eq!(built.enforcement, EnforcementPolicy::Reject);
        // Everything not named keeps the standard value.
        let standard = ProxyConfig::new(Flavor::Oracle);
        assert_eq!(built.record_provenance, standard.record_provenance);
        assert_eq!(ProxyConfig::builder(Flavor::Oracle).build(), standard);
    }

    #[test]
    fn builder_telemetry_attaches_a_domain() {
        let tel = resildb_sim::Telemetry::recording();
        let c = ProxyConfig::builder(Flavor::Postgres)
            .telemetry(tel.clone())
            .build();
        assert_eq!(c.telemetry, Some(tel));
    }

    #[test]
    fn rewrite_cache_defaults_and_disable() {
        let c = ProxyConfig::new(Flavor::Postgres);
        assert!(c.rewrite_cache_capacity > 0);
        let off = ProxyConfig::builder(Flavor::Postgres)
            .rewrite_cache_capacity(0)
            .build();
        assert_eq!(off.rewrite_cache_capacity, 0);
    }
}
