#![warn(missing_docs)]

//! The Rocks cluster database (paper §6.4).
//!
//! "Rocks clusters use a MySQL database for site configuration. The two
//! key tables we provide are, 1) a site-specific configuration table and,
//! 2) a nodes table. From these tables we generate the /etc/hosts,
//! /etc/dhcpd.conf, and PBS configuration files."
//!
//! This crate layers the Rocks schema and tooling over the [`rocks_sql`]
//! engine:
//!
//! * [`schema`] — creates and seeds the `nodes`, `memberships`,
//!   `appliances`, and `app_globals` tables (Tables II and III),
//! * [`ClusterDb`] — a typed facade over the SQL tables, while still
//!   accepting raw SQL for the `--query` interface,
//! * [`insert_ethers`] — the discovery tool that watches DHCP requests,
//!   names new nodes, allocates addresses, and refreshes reports,
//! * [`reports`] — the generated service configuration files
//!   (`/etc/hosts`, `/etc/dhcpd.conf`, the PBS nodes file),
//! * [`ip`] — small IPv4 helpers for address allocation.

pub mod insert_ethers;
pub mod ip;
pub mod reports;
pub mod schema;

pub use insert_ethers::{DhcpRequest, InsertEthers};
pub use ip::Ipv4;
pub use schema::{Membership, NodeRecord, DEFAULT_MEMBERSHIPS};

use rocks_sql::{Database, DurableDatabase, DurableError, RecoveryReport, SqlError, Value, Vfs};
use rocks_trace::{Registry, Tracer};

/// Errors from cluster-database operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Underlying SQL failure.
    Sql(SqlError),
    /// Storage-engine failure (durable mode only): disk, recovery, or
    /// transaction misuse.
    Storage(DurableError),
    /// Unknown membership id or name.
    NoSuchMembership(String),
    /// Duplicate MAC address registration.
    DuplicateMac(String),
    /// Address pool exhausted.
    NoFreeAddress,
    /// Node lookup failed.
    NoSuchNode(String),
}

impl From<SqlError> for DbError {
    fn from(e: SqlError) -> Self {
        DbError::Sql(e)
    }
}

impl From<DurableError> for DbError {
    fn from(e: DurableError) -> Self {
        // Plain statement failures surface identically in both modes.
        match e {
            DurableError::Sql(e) => DbError::Sql(e),
            other => DbError::Storage(other),
        }
    }
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Sql(e) => write!(f, "sql: {e}"),
            DbError::Storage(e) => write!(f, "storage: {e}"),
            DbError::NoSuchMembership(m) => write!(f, "no such membership: {m}"),
            DbError::DuplicateMac(m) => write!(f, "MAC already registered: {m}"),
            DbError::NoFreeAddress => write!(f, "no free IP address in the cluster network"),
            DbError::NoSuchNode(n) => write!(f, "no such node: {n}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, DbError>;

/// The cluster database: a [`rocks_sql::Database`] holding the Rocks
/// schema, plus typed accessors.
///
/// Every mutation bumps a monotonically increasing [`revision`]
/// counter. Caches layered above the database (notably the Kickstart
/// generation service's profile cache) key their entries on this
/// revision, so a `nodes`/`memberships` write — or any statement issued
/// through the raw [`sql`] handle — invalidates them automatically.
///
/// [`revision`]: Self::revision
/// [`sql`]: Self::sql
#[derive(Debug)]
enum Store {
    /// The default volatile engine.
    Memory(Database),
    /// WAL + checkpoint storage: state survives a restart (or crash) of
    /// the frontend.
    Durable(Box<DurableDatabase>),
}

/// See the [crate docs](crate) and the private `Store` enum.
#[derive(Debug)]
pub struct ClusterDb {
    store: Store,
    revision: u64,
    /// Memory-mode transaction state: the image and revision saved at
    /// `begin_txn`. (Durable mode keeps its own inside the engine.)
    mem_txn: Option<(Database, u64)>,
}

impl Clone for ClusterDb {
    /// Cloning always yields a *detached in-memory* database with the
    /// same contents and revision: simulation fan-out wants cheap
    /// independent copies, never two writers of one WAL.
    fn clone(&self) -> Self {
        ClusterDb {
            store: Store::Memory(self.sql_ref().clone()),
            revision: self.revision,
            mem_txn: None,
        }
    }
}

impl Default for ClusterDb {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterDb {
    /// Create a database with the Rocks schema and the default
    /// memberships of Table III.
    pub fn new() -> Self {
        let mut db = Database::new();
        schema::create_schema(&mut db);
        ClusterDb { store: Store::Memory(db), revision: 0, mem_txn: None }
    }

    /// Open (or create) a durable cluster database on `vfs`. A fresh
    /// store is seeded with the Rocks schema in one transaction; an
    /// existing one is recovered — revision counter included — from its
    /// snapshot and log.
    pub fn open_durable(vfs: &dyn Vfs) -> Result<Self> {
        Self::open_durable_with_tracer(vfs, Tracer::disabled())
    }

    /// [`open_durable`](Self::open_durable) with storage telemetry
    /// flowing into `tracer`.
    pub fn open_durable_with_tracer(vfs: &dyn Vfs, tracer: Tracer) -> Result<Self> {
        let mut d = DurableDatabase::open_with_tracer(vfs, tracer).map_err(DbError::from)?;
        let fresh = d.seq() == 0 && d.reader().table_names().is_empty();
        if fresh {
            d.set_revision(0);
            d.begin().map_err(DbError::from)?;
            for stmt in schema::schema_statements() {
                d.execute(&stmt).map_err(DbError::from)?;
            }
            d.commit().map_err(DbError::from)?;
        }
        let revision = d.revision();
        Ok(ClusterDb { store: Store::Durable(Box::new(d)), revision, mem_txn: None })
    }

    /// True when backed by the durable engine.
    pub fn is_durable(&self) -> bool {
        matches!(self.store, Store::Durable(_))
    }

    /// What open-time recovery found and did (durable mode only).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        match &self.store {
            Store::Memory(_) => None,
            Store::Durable(d) => Some(d.recovery_report()),
        }
    }

    /// Force a checkpoint (durable mode; a no-op in memory mode).
    pub fn checkpoint(&mut self) -> Result<()> {
        match &mut self.store {
            Store::Memory(_) => Ok(()),
            Store::Durable(d) => Ok(d.checkpoint()?),
        }
    }

    /// Route all query/storage counters into `registry`. Not a write:
    /// the revision is untouched.
    pub fn bind_stats_registry(&mut self, registry: &Registry) {
        match &mut self.store {
            Store::Memory(db) => db.bind_stats_registry(registry),
            Store::Durable(d) => d.bind_stats_registry(registry),
        }
    }

    /// Execute one raw SQL write in whichever store backs this database,
    /// bumping the revision — the write path for tools that issue
    /// statement text (the paper's raw-SQL administration interface).
    pub fn execute_raw(&mut self, sql: &str) -> Result<()> {
        self.exec(sql)
    }

    /// Run `sql` against the store, bumping the revision first so a
    /// durable commit journals the post-write revision.
    fn exec(&mut self, sql: &str) -> Result<()> {
        self.revision += 1;
        match &mut self.store {
            Store::Memory(db) => {
                db.execute(sql)?;
            }
            Store::Durable(d) => {
                d.set_revision(self.revision);
                d.execute(sql)?;
            }
        }
        Ok(())
    }

    /// Open an explicit transaction. Writes until
    /// [`commit_txn`](Self::commit_txn) apply (and, in durable mode,
    /// become durable) together; [`rollback_txn`](Self::rollback_txn)
    /// undoes all of them.
    pub fn begin_txn(&mut self) -> Result<()> {
        match &mut self.store {
            Store::Memory(db) => {
                if self.mem_txn.is_some() {
                    return Err(DbError::Storage(DurableError::Txn(
                        "transaction already open".into(),
                    )));
                }
                self.mem_txn = Some((db.clone(), self.revision));
                Ok(())
            }
            Store::Durable(d) => Ok(d.begin()?),
        }
    }

    /// Commit the open transaction.
    pub fn commit_txn(&mut self) -> Result<()> {
        match &mut self.store {
            Store::Memory(_) => {
                self.mem_txn.take().ok_or_else(|| {
                    DbError::Storage(DurableError::Txn("no open transaction".into()))
                })?;
                Ok(())
            }
            Store::Durable(d) => Ok(d.commit()?),
        }
    }

    /// Roll the open transaction back. The database contents return to
    /// their pre-transaction state, but the revision moves strictly
    /// *forward* past every provisional value handed out inside the
    /// transaction — caches may have keyed entries on those revisions
    /// against rolled-back contents, and a revision that never repeats is
    /// what keeps such entries unreachable forever.
    pub fn rollback_txn(&mut self) -> Result<()> {
        match &mut self.store {
            Store::Memory(db) => {
                let (saved, _) = self.mem_txn.take().ok_or_else(|| {
                    DbError::Storage(DurableError::Txn("no open transaction".into()))
                })?;
                *db = saved;
            }
            Store::Durable(d) => {
                d.rollback()?;
            }
        }
        self.revision += 1;
        if let Store::Durable(d) = &mut self.store {
            d.set_revision(self.revision);
        }
        Ok(())
    }

    /// True while an explicit transaction is open.
    pub fn in_txn(&self) -> bool {
        match &self.store {
            Store::Memory(_) => self.mem_txn.is_some(),
            Store::Durable(d) => d.in_txn(),
        }
    }

    /// The mutation counter. Strictly increases on every write (typed or
    /// raw); equal revisions guarantee identical database contents, which
    /// is the invalidation contract the generation-service cache relies on.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Shared read-only SQL access: `SELECT` only, callable from any
    /// number of threads at once, never bumps the revision. This is the
    /// read path the parallel Kickstart generation workers use.
    pub fn sql_ref(&self) -> &Database {
        match &self.store {
            Store::Memory(db) => db,
            Store::Durable(d) => d.reader(),
        }
    }

    /// Run a query and return the first column as strings: the exact
    /// contract of the `--query` flag in §6.4. Read-only — shareable
    /// across threads.
    pub fn query_names(&self, sql: &str) -> Result<Vec<String>> {
        Ok(self.sql_ref().query(sql)?.first_column())
    }

    /// Register a membership (appliance class) and return its id.
    pub fn add_membership(&mut self, m: &Membership) -> Result<()> {
        self.exec(&format!(
            "insert into memberships values ({}, '{}', {}, '{}', '{}')",
            m.id,
            sql_escape(&m.name),
            m.appliance,
            if m.compute { "yes" } else { "no" },
            sql_escape(&m.basename),
        ))?;
        Ok(())
    }

    /// Look up a membership by id. Read-only: an indexed point lookup
    /// through [`rocks_sql::Database::lookup_eq`], no SQL text involved.
    pub fn membership(&self, id: i64) -> Result<Membership> {
        let result = self.sql_ref().lookup_eq("memberships", "id", &Value::Int(id))?;
        let row = result.rows.first().ok_or(DbError::NoSuchMembership(id.to_string()))?;
        Ok(Membership::from_row(row))
    }

    /// Look up a membership by (case-insensitive) name. Read-only.
    pub fn membership_by_name(&self, name: &str) -> Result<Membership> {
        let result = self.sql_ref().query("select * from memberships")?;
        result
            .rows
            .iter()
            .map(|r| Membership::from_row(r))
            .find(|m| m.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| DbError::NoSuchMembership(name.to_string()))
    }

    /// All memberships, ordered by id. Read-only.
    pub fn memberships(&self) -> Result<Vec<Membership>> {
        let result = self.sql_ref().query("select * from memberships order by id")?;
        Ok(result.rows.iter().map(|r| Membership::from_row(r)).collect())
    }

    /// Insert a node row exactly as given (used by insert-ethers and by
    /// the Table II reproduction). Rejects duplicate MACs.
    pub fn add_node(&mut self, node: &NodeRecord) -> Result<()> {
        if self.node_by_mac(&node.mac)?.is_some() {
            return Err(DbError::DuplicateMac(node.mac.clone()));
        }
        let comment = match &node.comment {
            Some(c) => format!("'{}'", sql_escape(c)),
            None => "NULL".to_string(),
        };
        self.exec(&format!(
            "insert into nodes values ({}, '{}', '{}', {}, {}, {}, '{}', {})",
            node.id,
            sql_escape(&node.mac),
            sql_escape(&node.name),
            node.membership,
            node.rack,
            node.rank,
            node.ip,
            comment,
        ))?;
        Ok(())
    }

    /// All nodes ordered by id. Read-only.
    pub fn nodes(&self) -> Result<Vec<NodeRecord>> {
        let result = self.sql_ref().query("select * from nodes order by id")?;
        Ok(result.rows.into_iter().map(NodeRecord::from_row).collect())
    }

    /// A node by name. Read-only indexed lookup.
    pub fn node_by_name(&self, name: &str) -> Result<NodeRecord> {
        let result = self.sql_ref().lookup_eq("nodes", "name", &Value::Text(name.to_string()))?;
        let row =
            result.rows.into_iter().next().ok_or_else(|| DbError::NoSuchNode(name.to_string()))?;
        Ok(NodeRecord::from_row(row))
    }

    /// A node by its cluster-internal IP address — the lookup that keys
    /// the §6.1 CGI flow ("uses the requesting node's IP address").
    /// Read-only: generation workers resolve requesters concurrently, and
    /// the hash index on `nodes.ip` makes each probe O(1) instead of a
    /// table scan per request.
    pub fn node_by_ip(&self, ip: &str) -> Result<NodeRecord> {
        let result = self.sql_ref().lookup_eq("nodes", "ip", &Value::Text(ip.to_string()))?;
        let row =
            result.rows.into_iter().next().ok_or_else(|| DbError::NoSuchNode(ip.to_string()))?;
        Ok(NodeRecord::from_row(row))
    }

    /// A node by MAC address, or `None` when the MAC is unknown.
    /// Read-only — this is the insert-ethers "have we seen this host?"
    /// probe, which must not bump the revision (a rebooting installed
    /// node would otherwise invalidate every cached profile).
    pub fn node_by_mac(&self, mac: &str) -> Result<Option<NodeRecord>> {
        let result = self.sql_ref().lookup_eq("nodes", "mac", &Value::Text(mac.to_string()))?;
        Ok(result.rows.into_iter().next().map(NodeRecord::from_row))
    }

    /// The graph root (appliance name) that kickstarts `appliance`, or
    /// `None` when the appliance is tracked but not kickstartable
    /// (switches, PDUs). Read-only.
    pub fn appliance_root(&self, appliance: i64) -> Result<Option<String>> {
        let result = self.sql_ref().lookup_eq("appliances", "id", &Value::Int(appliance))?;
        // Column 2 is `graph_node`; empty means "tracked, not kickstartable".
        Ok(result.rows.first().map(|r| r[2].render()).filter(|r| !r.is_empty()))
    }

    /// Nodes whose membership is flagged `compute = 'yes'` — the join the
    /// paper demonstrates (§6.4). Read-only.
    pub fn compute_nodes(&self) -> Result<Vec<NodeRecord>> {
        let result = self.sql_ref().query(
            "select nodes.id, nodes.mac, nodes.name, nodes.membership, nodes.rack, \
             nodes.rank, nodes.ip, nodes.comment \
             from nodes, memberships \
             where nodes.membership = memberships.id and memberships.compute = 'yes' \
             order by nodes.id",
        )?;
        Ok(result.rows.into_iter().map(NodeRecord::from_row).collect())
    }

    /// Next unused node id. Read-only.
    pub fn next_node_id(&self) -> Result<i64> {
        let result = self.sql_ref().query("select max(id) from nodes")?;
        Ok(match result.rows[0][0] {
            Value::Int(n) => n + 1,
            _ => 1,
        })
    }

    /// Highest rank already used in `(membership, rack)`, or None.
    /// Read-only.
    pub fn max_rank(&self, membership: i64, rack: i64) -> Result<Option<i64>> {
        let result = self.sql_ref().query(&format!(
            "select max(rank) from nodes where membership = {membership} and rack = {rack}"
        ))?;
        Ok(result.rows[0][0].as_int())
    }

    /// Set a site-global key (the "site-specific configuration table").
    /// The delete + insert pair is one logical write: in durable mode it
    /// runs inside a transaction so a crash between the two statements
    /// cannot resurrect a key half-set.
    pub fn set_global(&mut self, key: &str, value: &str) -> Result<()> {
        let delete = format!("delete from app_globals where name = '{}'", sql_escape(key));
        let insert = format!(
            "insert into app_globals values ('{}', '{}')",
            sql_escape(key),
            sql_escape(value)
        );
        self.revision += 1;
        match &mut self.store {
            Store::Memory(db) => {
                db.execute(&delete)?;
                db.execute(&insert)?;
            }
            Store::Durable(d) => {
                d.set_revision(self.revision);
                let wrap = !d.in_txn();
                if wrap {
                    d.begin()?;
                }
                d.execute(&delete)?;
                d.execute(&insert)?;
                if wrap {
                    d.commit()?;
                }
            }
        }
        Ok(())
    }

    /// Read a site-global key. Read-only indexed lookup.
    pub fn global(&self, key: &str) -> Result<Option<String>> {
        let result =
            self.sql_ref().lookup_eq("app_globals", "name", &Value::Text(key.to_string()))?;
        // Column 1 is `value`.
        Ok(result.rows.first().map(|r| r[1].render()))
    }

    /// All IPs currently assigned. Read-only.
    pub fn used_ips(&self) -> Result<Vec<Ipv4>> {
        let result = self.sql_ref().query("select ip from nodes")?;
        Ok(result.rows.iter().filter_map(|r| r[0].as_text().and_then(Ipv4::parse)).collect())
    }

    /// [`next_node_id`](Self::next_node_id) and [`used_ips`](Self::used_ips)
    /// from one scan of `nodes`: what insert-ethers needs before an insert.
    /// The raw rows keep both answers exact where a [`NodeRecord`] cannot:
    /// `max(id)` skips NULL ids, and an address that is not dotted-quad is
    /// not in use. Read-only.
    pub(crate) fn next_id_and_used_ips(&self) -> Result<(i64, Vec<Ipv4>)> {
        let result = self.sql_ref().query("select id, ip from nodes")?;
        let mut max_id = None;
        let mut used = Vec::with_capacity(result.rows.len());
        for row in &result.rows {
            max_id = max_id.max(row[0].as_int());
            used.extend(row[1].as_text().and_then(Ipv4::parse));
        }
        Ok((max_id.map_or(1, |id| id + 1), used))
    }

    /// Every kickstartable node, fully resolved for mass generation and
    /// sorted by name: the bulk form of the three per-node queries the
    /// §6.1 CGI path would issue. Nodes whose appliance has no graph root
    /// (switches, PDUs) are skipped — they never request a kickstart.
    /// Read-only.
    pub fn kickstart_targets(&self) -> Result<Vec<KickstartTarget>> {
        let mut roots: std::collections::HashMap<i64, (String, Option<String>)> =
            std::collections::HashMap::new();
        for membership in self.memberships()? {
            let root = self.appliance_root(membership.appliance)?;
            roots.insert(membership.id, (membership.name, root));
        }
        let mut targets = Vec::new();
        for node in self.nodes()? {
            let Some((membership, Some(root))) = roots.get(&node.membership) else {
                continue;
            };
            targets.push(KickstartTarget {
                name: node.name,
                ip: node.ip.to_string(),
                root: root.clone(),
                membership: membership.clone(),
            });
        }
        targets.sort();
        Ok(targets)
    }
}

/// One kickstartable node as resolved by
/// [`ClusterDb::kickstart_targets`]: everything the generation service
/// needs to produce its profile without touching SQL again.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct KickstartTarget {
    /// Node hostname (`compute-0-0`, ...).
    pub name: String,
    /// The node's private address, rendered.
    pub ip: String,
    /// Graph root (appliance name) whose traversal builds the skeleton.
    pub root: String,
    /// Membership name, for per-node localization.
    pub membership: String,
}

/// Escape a string for inclusion in a single-quoted SQL literal.
pub fn sql_escape(s: &str) -> String {
    s.replace('\'', "''")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_seeds_table_iii_memberships() {
        let db = ClusterDb::new();
        let ms = db.memberships().unwrap();
        assert_eq!(ms.len(), DEFAULT_MEMBERSHIPS.len());
        let compute = db.membership_by_name("Compute").unwrap();
        assert_eq!(compute.id, 2);
        assert!(compute.compute);
        let frontend = db.membership_by_name("Frontend").unwrap();
        assert!(!frontend.compute);
    }

    #[test]
    fn duplicate_mac_rejected() {
        let mut db = ClusterDb::new();
        let node = NodeRecord::new(
            1,
            "00:50:8b:e0:3a:a7",
            "compute-0-0",
            2,
            0,
            0,
            Ipv4::new(10, 255, 255, 245),
        );
        db.add_node(&node).unwrap();
        let err = db.add_node(&node).unwrap_err();
        assert!(matches!(err, DbError::DuplicateMac(_)));
    }

    #[test]
    fn compute_nodes_join() {
        let mut db = ClusterDb::new();
        db.add_node(&NodeRecord::new(
            1,
            "aa:00:00:00:00:01",
            "frontend-0",
            1,
            0,
            0,
            Ipv4::new(10, 1, 1, 1),
        ))
        .unwrap();
        db.add_node(&NodeRecord::new(
            2,
            "aa:00:00:00:00:02",
            "compute-0-0",
            2,
            0,
            0,
            Ipv4::new(10, 255, 255, 254),
        ))
        .unwrap();
        db.add_node(&NodeRecord::new(
            3,
            "aa:00:00:00:00:03",
            "compute-0-1",
            2,
            0,
            1,
            Ipv4::new(10, 255, 255, 253),
        ))
        .unwrap();
        let compute = db.compute_nodes().unwrap();
        assert_eq!(compute.len(), 2);
        assert!(compute.iter().all(|n| n.name.starts_with("compute-")));
    }

    #[test]
    fn globals_round_trip() {
        let mut db = ClusterDb::new();
        assert_eq!(db.global("Kickstart_PublicHostname").unwrap(), None);
        db.set_global("Kickstart_PublicHostname", "frontend.sdsc.edu").unwrap();
        assert_eq!(
            db.global("Kickstart_PublicHostname").unwrap().as_deref(),
            Some("frontend.sdsc.edu")
        );
        db.set_global("Kickstart_PublicHostname", "other.edu").unwrap();
        assert_eq!(db.global("Kickstart_PublicHostname").unwrap().as_deref(), Some("other.edu"));
    }

    #[test]
    fn next_id_and_max_rank() {
        let mut db = ClusterDb::new();
        assert_eq!(db.next_node_id().unwrap(), 1);
        db.add_node(&NodeRecord::new(
            1,
            "aa:00:00:00:00:01",
            "compute-0-0",
            2,
            0,
            0,
            Ipv4::new(10, 255, 255, 254),
        ))
        .unwrap();
        assert_eq!(db.next_node_id().unwrap(), 2);
        assert_eq!(db.max_rank(2, 0).unwrap(), Some(0));
        assert_eq!(db.max_rank(2, 1).unwrap(), None);
    }

    #[test]
    fn revision_tracks_writes_not_reads() {
        let mut db = ClusterDb::new();
        let r0 = db.revision();
        let _ = db.nodes().unwrap();
        let _ = db.memberships().unwrap();
        let _ = db.global("Kickstart_PublicHostname").unwrap();
        let _ = db.query_names("select name from nodes").unwrap();
        assert_eq!(db.revision(), r0, "reads must not invalidate caches");

        db.set_global("k", "v").unwrap();
        let r1 = db.revision();
        assert!(r1 > r0);
        db.add_node(&NodeRecord::new(
            1,
            "aa:00:00:00:00:01",
            "compute-0-0",
            2,
            0,
            0,
            Ipv4::new(10, 255, 255, 254),
        ))
        .unwrap();
        let r2 = db.revision();
        assert!(r2 > r1);
        // Raw SQL writes bump it too.
        db.execute_raw("update app_globals set value = 'w' where name = 'k'").unwrap();
        assert!(db.revision() > r2);
    }

    #[test]
    fn node_by_ip_resolves_and_rejects() {
        let mut db = ClusterDb::new();
        db.add_node(&NodeRecord::new(
            1,
            "aa:00:00:00:00:01",
            "compute-0-0",
            2,
            0,
            0,
            Ipv4::new(10, 255, 255, 254),
        ))
        .unwrap();
        assert_eq!(db.node_by_ip("10.255.255.254").unwrap().name, "compute-0-0");
        assert!(matches!(db.node_by_ip("10.9.9.9"), Err(DbError::NoSuchNode(_))));
        assert_eq!(db.appliance_root(2).unwrap().as_deref(), Some("compute"));
        assert_eq!(db.appliance_root(4).unwrap(), None);
    }

    #[test]
    fn node_by_mac_is_a_read() {
        let mut db = ClusterDb::new();
        db.add_node(&NodeRecord::new(
            1,
            "aa:00:00:00:00:01",
            "compute-0-0",
            2,
            0,
            0,
            Ipv4::new(10, 255, 255, 254),
        ))
        .unwrap();
        let r = db.revision();
        assert_eq!(db.node_by_mac("aa:00:00:00:00:01").unwrap().unwrap().name, "compute-0-0");
        assert_eq!(db.node_by_mac("aa:00:00:00:00:99").unwrap(), None);
        assert_eq!(db.revision(), r, "MAC probes must not invalidate caches");
    }

    #[test]
    fn kickstart_targets_resolve_and_skip_non_kickstartable() {
        let mut db = ClusterDb::new();
        db.add_node(&NodeRecord::new(
            1,
            "aa:00:00:00:00:01",
            "frontend-0",
            1,
            0,
            0,
            Ipv4::new(10, 1, 1, 1),
        ))
        .unwrap();
        db.add_node(&NodeRecord::new(
            2,
            "aa:00:00:00:00:02",
            "compute-0-0",
            2,
            0,
            0,
            Ipv4::new(10, 255, 255, 254),
        ))
        .unwrap();
        // Membership 4 (Ethernet Switches) has no graph root.
        db.add_node(&NodeRecord::new(
            3,
            "aa:00:00:00:00:03",
            "network-0-0",
            4,
            0,
            0,
            Ipv4::new(10, 255, 1, 1),
        ))
        .unwrap();
        let targets = db.kickstart_targets().unwrap();
        let summary: Vec<(&str, &str, &str)> = targets
            .iter()
            .map(|t| (t.name.as_str(), t.root.as_str(), t.membership.as_str()))
            .collect();
        assert_eq!(
            summary,
            vec![("compute-0-0", "compute", "Compute"), ("frontend-0", "frontend", "Frontend"),]
        );
        assert_eq!(targets[0].ip, "10.255.255.254");
    }

    #[test]
    fn raw_sql_query_interface() {
        let mut db = ClusterDb::new();
        db.add_node(&NodeRecord::new(
            1,
            "aa:00:00:00:00:01",
            "compute-1-0",
            2,
            1,
            0,
            Ipv4::new(10, 255, 255, 254),
        ))
        .unwrap();
        db.add_node(&NodeRecord::new(
            2,
            "aa:00:00:00:00:02",
            "compute-2-0",
            2,
            2,
            0,
            Ipv4::new(10, 255, 255, 253),
        ))
        .unwrap();
        // §6.4: cluster-kill --query="select name from nodes where rack=1".
        let names = db.query_names("select name from nodes where rack=1").unwrap();
        assert_eq!(names, vec!["compute-1-0"]);
    }
}
