//! Schema creation and the typed row records for Tables II and III.

use crate::ip::Ipv4;
use rocks_sql::{Database, Value};

/// A row of the `memberships` table (paper Table III, plus the basename
/// column the real Rocks schema uses to build hostnames like
/// `compute-0-0` and `network-0-0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    /// Primary key.
    pub id: i64,
    /// Display name, e.g. `Compute`, `Ethernet Switches`.
    pub name: String,
    /// Appliance id: which graph root installs this class (Table III
    /// maps both switch types to appliance 4, for example).
    pub appliance: i64,
    /// Whether nodes of this class run jobs (the `Compute` column).
    pub compute: bool,
    /// Hostname prefix, e.g. `compute`, `network`, `nfs`, `web`.
    pub basename: String,
}

impl Membership {
    /// Build from a full `select * from memberships` row.
    pub fn from_row(row: &[Value]) -> Membership {
        Membership {
            id: row[0].as_int().unwrap_or(0),
            name: row[1].render(),
            appliance: row[2].as_int().unwrap_or(0),
            compute: row[3].as_text() == Some("yes"),
            basename: row[4].render(),
        }
    }
}

/// A row of the `nodes` table (paper Table II).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRecord {
    /// Primary key.
    pub id: i64,
    /// Ethernet MAC address, the stable hardware identity.
    pub mac: String,
    /// Hostname, `<basename>-<rack>-<rank>`.
    pub name: String,
    /// Foreign key into `memberships`.
    pub membership: i64,
    /// Cabinet number.
    pub rack: i64,
    /// Position within the cabinet.
    pub rank: i64,
    /// Cluster-internal address.
    pub ip: Ipv4,
    /// Free-text comment (`Gateway machine`, `Compute node`, ...).
    pub comment: Option<String>,
}

impl NodeRecord {
    /// Convenience constructor without a comment.
    pub fn new(
        id: i64,
        mac: &str,
        name: &str,
        membership: i64,
        rack: i64,
        rank: i64,
        ip: Ipv4,
    ) -> NodeRecord {
        NodeRecord {
            id,
            mac: mac.to_string(),
            name: name.to_string(),
            membership,
            rack,
            rank,
            ip,
            comment: None,
        }
    }

    /// Attach a comment.
    pub fn with_comment(mut self, comment: &str) -> NodeRecord {
        self.comment = Some(comment.to_string());
        self
    }

    /// Build from a full `select * from nodes` row, moving its strings
    /// out instead of copying them.
    pub fn from_row(row: Vec<Value>) -> NodeRecord {
        let [id, mac, name, membership, rack, rank, ip, comment]: [Value; 8] =
            row.try_into().expect("a nodes row has eight columns");
        NodeRecord {
            id: id.as_int().unwrap_or(0),
            mac: into_text(mac),
            name: into_text(name),
            membership: membership.as_int().unwrap_or(0),
            rack: rack.as_int().unwrap_or(0),
            rank: rank.as_int().unwrap_or(0),
            ip: ip.as_text().and_then(Ipv4::parse).unwrap_or(Ipv4::NETWORK),
            comment: if comment.is_null() { None } else { Some(into_text(comment)) },
        }
    }
}

/// [`Value::render`] for an owned value: text moves out as-is.
fn into_text(value: Value) -> String {
    match value {
        Value::Text(s) => s,
        other => other.render(),
    }
}

/// The default memberships exactly as listed in Table III, with the
/// hostname basenames the rest of the paper shows (Table II uses
/// `network-` for Ethernet switch entries).
pub const DEFAULT_MEMBERSHIPS: &[(i64, &str, i64, bool, &str)] = &[
    (1, "Frontend", 1, false, "frontend"),
    (2, "Compute", 2, true, "compute"),
    (3, "External", 1, false, "external"),
    (4, "Ethernet Switches", 4, false, "network"),
    (5, "Myrinet Switches", 4, false, "myrinet"),
    (6, "Power Units", 5, false, "power"),
];

/// The DDL and seed statements that build the Rocks schema, in
/// execution order. Shared by the in-memory and durable open paths (the
/// durable path journals them like any other transaction, so a replayed
/// frontend rebuilds the identical schema).
pub fn schema_statements() -> Vec<String> {
    let mut stmts = vec![
        "create table nodes (id int, mac text, name text, membership int, \
         rack int, rank int, ip text, comment text)"
            .to_string(),
        "create table memberships (id int, name text, appliance int, \
         compute text, basename text)"
            .to_string(),
        "create table appliances (id int, name text, graph_node text)".to_string(),
        "create table app_globals (name text, value text)".to_string(),
    ];

    for (id, name, appliance, compute, basename) in DEFAULT_MEMBERSHIPS {
        stmts.push(format!(
            "insert into memberships values ({id}, '{name}', {appliance}, '{}', '{basename}')",
            if *compute { "yes" } else { "no" },
        ));
    }

    // Appliances: graph roots (paper Figure 4 shows `compute` and
    // `frontend` as roots; switches and PDUs are tracked but not
    // kickstarted).
    for (id, name, graph_node) in [
        (1, "frontend", "frontend"),
        (2, "compute", "compute"),
        (3, "nfs", "nfs-server"),
        (4, "switch", ""),
        (5, "power", ""),
    ] {
        stmts.push(format!("insert into appliances values ({id}, '{name}', '{graph_node}')"));
    }
    stmts
}

/// Create the Rocks tables and seed Table III's memberships.
pub fn create_schema(db: &mut Database) {
    for stmt in schema_statements() {
        db.execute(&stmt).expect("schema statement");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_creates_all_tables() {
        let mut db = Database::new();
        create_schema(&mut db);
        for table in ["nodes", "memberships", "appliances", "app_globals"] {
            assert!(db.table(table).is_some(), "{table} missing");
        }
    }

    #[test]
    fn membership_round_trip_via_rows() {
        let mut db = Database::new();
        create_schema(&mut db);
        let result = db.query("select * from memberships where id = 2").unwrap();
        let m = Membership::from_row(&result.rows[0]);
        assert_eq!(m.name, "Compute");
        assert!(m.compute);
        assert_eq!(m.basename, "compute");
    }

    #[test]
    fn node_record_round_trip() {
        let mut db = Database::new();
        create_schema(&mut db);
        db.execute(
            "insert into nodes values (4, '00:50:8b:e0:3a:a7', 'compute-0-0', 2, 0, 0, \
             '10.255.255.245', 'Compute node')",
        )
        .unwrap();
        let result = db.query("select * from nodes").unwrap();
        let n = NodeRecord::from_row(result.rows.into_iter().next().unwrap());
        assert_eq!(n.name, "compute-0-0");
        assert_eq!(n.ip, Ipv4::new(10, 255, 255, 245));
        assert_eq!(n.comment.as_deref(), Some("Compute node"));
    }

    #[test]
    fn table_iii_ids_are_exact() {
        // Guard against reordering: the paper's Table III ids are part of
        // the reproduction.
        let ids: Vec<i64> = DEFAULT_MEMBERSHIPS.iter().map(|(id, ..)| *id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6]);
        let compute_flags: Vec<bool> =
            DEFAULT_MEMBERSHIPS.iter().map(|(_, _, _, c, _)| *c).collect();
        assert_eq!(compute_flags, vec![false, true, false, false, false, false]);
    }
}
