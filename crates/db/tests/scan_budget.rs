//! Scan budget for insert-ethers: one `InsertEthers::start` + `observe`
//! reads the `nodes` table twice — one scan to allocate the id and
//! address, one read of the committed table to rebuild the reports — so
//! the SQL engine examines at most 2·N rows plus a constant for the
//! indexed probes and the six-row `memberships` table.
//!
//! The gate counts rows through `sql.rows.examined`, not time, so it
//! means the same on any host and in any build profile.

use rocks_db::insert_ethers::register_frontend;
use rocks_db::{ClusterDb, DhcpRequest, InsertEthers, Ipv4, NodeRecord};
use rocks_sql::MemVfs;
use rocks_trace::Registry;

/// Cabinet size: the benchmark's cabinet walk and the paper's racks hold
/// tens of nodes, so the rank probe of `start` stays within one cabinet.
const PER_RACK: usize = 64;

/// A database holding the frontend plus `n - 1` compute nodes laid out
/// in full cabinets of `PER_RACK`, as a cabinet walk leaves them.
fn populated(db: &mut ClusterDb, n: usize) {
    register_frontend(db, "00:30:c1:d8:ac:80", "frontend-0").unwrap();
    for i in 0..n - 1 {
        let (rack, rank) = (i / PER_RACK, i % PER_RACK);
        let record = NodeRecord::new(
            i as i64 + 2,
            &format!("00:50:8b:{:02x}:{:02x}:{:02x}", i >> 16, (i >> 8) & 0xff, i & 0xff),
            &format!("compute-{rack}-{rank}"),
            2,
            rack as i64,
            rank as i64,
            Ipv4(Ipv4::ALLOC_TOP.0 - i as u32),
        );
        db.add_node(&record).unwrap();
    }
}

/// Rows examined by `InsertEthers::start` and by `observe` when one more
/// node joins cabinet `rack` of a database of `n` nodes.
fn rows_examined(mut db: ClusterDb, n: usize, rack: i64) -> (u64, u64) {
    populated(&mut db, n);
    assert_eq!(db.nodes().unwrap().len(), n);
    let registry = Registry::new();
    db.bind_stats_registry(&registry);
    let examined = || registry.snapshot().counter("sql.rows.examined");
    let mut session = InsertEthers::start(&mut db, "Compute", rack).unwrap();
    let started = examined();
    let record = session.observe(&DhcpRequest { mac: "00:aa:bb:cc:dd:ee".into() }).unwrap();
    assert!(record.is_some() && session.last_reports.is_some());
    (started, examined() - started)
}

fn assert_within_budget(n: usize) {
    let budget = 2 * n as u64 + 64;
    let last_rack = ((n - 2) / PER_RACK) as i64;
    let stores = || {
        [
            ("memory", ClusterDb::new()),
            ("durable", ClusterDb::open_durable(&MemVfs::new()).unwrap()),
        ]
    };
    // The first node of a new cabinet: the whole operation is two reads
    // of `nodes` plus constant work.
    for (store, db) in stores() {
        let (start, observe) = rows_examined(db, n, last_rack + 1);
        assert!(
            start + observe <= budget,
            "{store}, N={n}, new cabinet: start + observe examined {} rows, budget 2N+64 = {budget}",
            start + observe
        );
    }
    // The next node of a partly filled cabinet: `start`'s rank probe reads
    // that cabinet, never the table, and `observe` keeps to the budget.
    for (store, db) in stores() {
        let (start, observe) = rows_examined(db, n, last_rack);
        assert!(
            start <= PER_RACK as u64 + 8,
            "{store}, N={n}: start examined {start} rows, more than one cabinet"
        );
        assert!(
            observe <= budget,
            "{store}, N={n}, same cabinet: observe examined {observe} rows, budget 2N+64 = {budget}"
        );
    }
}

#[test]
fn one_integration_reads_nodes_twice_at_64() {
    assert_within_budget(64);
}

#[test]
fn one_integration_reads_nodes_twice_at_1024() {
    assert_within_budget(1024);
}
