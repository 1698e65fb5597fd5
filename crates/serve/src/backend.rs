//! What a dispatched request actually does.
//!
//! The frontend is generic over a [`ServeBackend`] so the same
//! admission/scheduling machinery can drive two execution modes:
//!
//! - [`RealBackend`] executes every request against the live
//!   [`GenerationService`] / [`rocks_sql::Database`] paths, producing
//!   real response bodies (the differential suite proves them
//!   byte-identical to direct calls) and exercising the skeleton and
//!   plan caches for real.
//! - [`ModelBackend`] mirrors only the *cache behaviour* (which request
//!   is a hit, which pays a build) without doing the work — the
//!   timing-model mode the 500-seed invariant sweep runs in. Because the
//!   frontend charges virtual-time costs from the same hit/miss signal,
//!   a model run and a real run of the same workload produce identical
//!   schedules (asserted by `model_matches_real_backend_timing` in the
//!   invariant suite).
//!
//! [`GenerationService`]: rocks_kickstart::GenerationService

use rocks_db::{ClusterDb, DbError, KickstartTarget};
use rocks_kickstart::GenerationService;
use rocks_rpm::Arch;
use std::collections::HashSet;

/// What serving one request produced.
#[derive(Debug, Clone)]
pub struct BackendResult {
    /// Whether the relevant cache (skeleton or plan) already held the
    /// expensive half of the work. Drives the frontend's cost model.
    pub hit: bool,
    /// The rendered response, when the backend materializes one.
    pub body: Option<String>,
}

/// Executes dispatched requests. `key` indexes the backend's own
/// request space (kickstart targets / report query pool) and is reduced
/// modulo its size, so load generators can draw keys freely.
pub trait ServeBackend {
    /// Serve one kickstart (install-class) request.
    fn install(&mut self, key: usize) -> BackendResult;
    /// Serve one report (query-class) request.
    fn report(&mut self, key: usize) -> BackendResult;
    /// Cache-invalidation storm: drop the warm skeleton state, as a
    /// `rocks-dist` rebuild mid-load would.
    fn invalidate(&mut self);
    /// Number of distinct kickstart targets.
    fn n_targets(&self) -> usize;
    /// Number of distinct report queries.
    fn n_queries(&self) -> usize;
}

/// The report-query pool a cluster frontend actually serves: node
/// listings, membership joins, rack inventories — the queries behind
/// `insert-ethers --list`, `cluster-fork` target selection, and the
/// monitoring pages.
pub fn default_report_queries() -> Vec<String> {
    vec![
        "select name, ip from nodes where membership = 3".into(),
        "select name, mac from nodes where rack = 0".into(),
        "select nodes.name, memberships.name from nodes, memberships \
         where nodes.membership = memberships.id"
            .into(),
        "select name from nodes where rank = 0".into(),
        "select id, name from memberships where compute = 'yes'".into(),
        "select name, value from app_globals where name = 'Kickstart_PublicHostname'".into(),
    ]
}

/// The live backend: the shared generation service plus the cluster
/// database, exactly what the paper's CGI touches per request.
pub struct RealBackend<'a> {
    svc: &'a GenerationService,
    db: &'a ClusterDb,
    arch: Arch,
    targets: Vec<KickstartTarget>,
    queries: Vec<String>,
}

impl<'a> RealBackend<'a> {
    /// Resolve the kickstartable node set up front (the same bulk path
    /// `generate_all` uses) and attach the default report pool.
    pub fn new(
        svc: &'a GenerationService,
        db: &'a ClusterDb,
        arch: Arch,
    ) -> Result<RealBackend<'a>, DbError> {
        let targets = db.kickstart_targets()?;
        Ok(RealBackend { svc, db, arch, targets, queries: default_report_queries() })
    }

    /// The resolved kickstart targets, in `generate_all` order.
    pub fn targets(&self) -> &[KickstartTarget] {
        &self.targets
    }

    /// Root ids per target (first-appearance numbering) — the mapping a
    /// [`ModelBackend`] needs to mirror this cluster's cache behaviour.
    pub fn target_roots(&self) -> Vec<usize> {
        let mut roots: Vec<&str> = Vec::new();
        self.targets
            .iter()
            .map(|t| {
                if let Some(i) = roots.iter().position(|r| *r == t.root) {
                    i
                } else {
                    roots.push(&t.root);
                    roots.len() - 1
                }
            })
            .collect()
    }
}

impl ServeBackend for RealBackend<'_> {
    fn install(&mut self, key: usize) -> BackendResult {
        let target = &self.targets[key % self.targets.len()];
        // Probe before generating: the probe answers "would this request
        // find a warm skeleton", which is what the cost model charges.
        let hit = self.svc.probe_cached(self.db, &target.root, self.arch);
        let ks = self
            .svc
            .generate_for_request(self.db, &target.ip, self.arch)
            .expect("kickstart generation for a resolved target cannot fail");
        BackendResult { hit, body: Some(ks.render()) }
    }

    fn report(&mut self, key: usize) -> BackendResult {
        let sql = &self.queries[key % self.queries.len()];
        let hit = self.db.sql_ref().plan_cached(sql);
        let result = self.db.sql_ref().query(sql).expect("report query is valid");
        BackendResult { hit, body: Some(result.render_ascii()) }
    }

    fn invalidate(&mut self) {
        // A dist rebuild bumps the epoch: every cached skeleton is stale
        // and the next request per appliance pays the traversal again.
        self.svc.notify_dist_rebuilt();
    }

    fn n_targets(&self) -> usize {
        self.targets.len()
    }

    fn n_queries(&self) -> usize {
        self.queries.len()
    }
}

/// Timing-model backend: tracks warm state only.
#[derive(Debug, Clone)]
pub struct ModelBackend {
    /// Root id per target (targets sharing a root share a skeleton).
    target_roots: Vec<usize>,
    n_queries: usize,
    warm_roots: HashSet<usize>,
    warm_queries: HashSet<usize>,
}

impl ModelBackend {
    /// `n_targets` targets spread round-robin over `n_roots` appliances,
    /// `n_queries` distinct report texts.
    pub fn new(n_targets: usize, n_roots: usize, n_queries: usize) -> ModelBackend {
        let n_roots = n_roots.max(1);
        ModelBackend::with_roots((0..n_targets.max(1)).map(|i| i % n_roots).collect(), n_queries)
    }

    /// Explicit target→root mapping (mirror a real cluster's, via
    /// [`RealBackend::target_roots`]).
    pub fn with_roots(target_roots: Vec<usize>, n_queries: usize) -> ModelBackend {
        ModelBackend {
            target_roots,
            n_queries: n_queries.max(1),
            warm_roots: HashSet::new(),
            warm_queries: HashSet::new(),
        }
    }
}

impl ServeBackend for ModelBackend {
    fn install(&mut self, key: usize) -> BackendResult {
        let root = self.target_roots[key % self.target_roots.len()];
        let hit = !self.warm_roots.insert(root);
        BackendResult { hit, body: None }
    }

    fn report(&mut self, key: usize) -> BackendResult {
        let q = key % self.n_queries;
        let hit = !self.warm_queries.insert(q);
        BackendResult { hit, body: None }
    }

    fn invalidate(&mut self) {
        // Mirrors `notify_dist_rebuilt`: skeletons go cold, cached SQL
        // plans are untouched (the plan cache keys on schema + stats
        // epoch, not the dist epoch).
        self.warm_roots.clear();
    }

    fn n_targets(&self) -> usize {
        self.target_roots.len()
    }

    fn n_queries(&self) -> usize {
        self.n_queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_backend_first_touch_misses_then_hits() {
        let mut b = ModelBackend::new(8, 2, 3);
        assert!(!b.install(0).hit, "first touch of root 0 is a miss");
        assert!(!b.install(1).hit, "first touch of root 1 is a miss");
        assert!(b.install(2).hit, "target 2 shares root 0");
        assert!(b.install(1).hit);
        assert!(!b.report(0).hit);
        assert!(b.report(3).hit, "query keys reduce modulo the pool");
    }

    #[test]
    fn model_invalidate_chills_skeletons_not_plans() {
        let mut b = ModelBackend::new(4, 1, 2);
        b.install(0);
        b.report(0);
        b.invalidate();
        assert!(!b.install(0).hit, "storm must force a skeleton rebuild");
        assert!(b.report(0).hit, "plan cache survives a dist rebuild");
    }
}
