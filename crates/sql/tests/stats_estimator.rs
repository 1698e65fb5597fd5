//! Estimator edge cases and plan-cache staleness: the corners where
//! cost-based planning could silently go wrong — empty tables, all-NULL
//! and single-value columns, Int↔Text coercion keys, tables that grow
//! 100x under a cached plan, and a crash landing mid-checkpoint while
//! statistics were warm.

use rocks_sql::disk::{CrashPlan, DiskError, MemVfs};
use rocks_sql::durable::{DurableDatabase, DurableError};
use rocks_sql::{Database, JoinAlgo, PlannerConfig, PlannerMode, Value};

const SCAN: PlannerConfig = PlannerConfig { mode: PlannerMode::Scan, force_join: None };

fn explain_text(db: &mut Database, sql: &str) -> Vec<String> {
    db.query(&format!("explain {sql}")).unwrap().rows.iter().map(|row| row[0].render()).collect()
}

#[test]
fn empty_table_plans_and_estimates_zero() {
    let mut db = Database::new();
    db.execute("create table t (x int, tag text)").unwrap();
    let stats = db.table("t").unwrap().stats();
    assert_eq!(stats.rows, 0);
    assert_eq!(stats.est_eq_rows(0, &Value::Int(5)), 0.0);
    assert_eq!(stats.ndv(0), 0.0);
    // Planning on an empty table still runs and agrees with the scan.
    let sql = "select x from t where x = 5";
    assert_eq!(db.query(sql).unwrap(), db.query_with(sql, &SCAN).unwrap());
    let text = explain_text(&mut db, sql);
    assert!(text.iter().any(|l| l.contains("est 0 rows")), "plan was {text:?}");
}

#[test]
fn all_null_column_estimates_and_matches_scan() {
    let mut db = Database::new();
    db.execute("create table t (id int, tag text)").unwrap();
    for i in 0..50 {
        db.execute(&format!("insert into t values ({i}, NULL)")).unwrap();
    }
    let stats = db.table("t").unwrap().stats();
    assert_eq!(stats.null_fraction(1), 1.0);
    assert_eq!(stats.non_null(1), 0.0);
    // Equality on an all-NULL column matches nothing; IS NULL everything.
    for sql in [
        "select id from t where tag = 'x'",
        "select id from t where tag is null",
        "select id from t where tag is not null",
        "select count(*) from t where tag = 'x' or id < 10",
    ] {
        assert_eq!(db.query(sql).unwrap(), db.query_with(sql, &SCAN).unwrap(), "for {sql}");
    }
}

#[test]
fn single_value_column_scans_while_selective_column_probes() {
    let mut db = Database::new();
    db.execute("create table t (uniq int, same text)").unwrap();
    for i in 0..512 {
        db.execute(&format!("insert into t values ({i}, 'hot')")).unwrap();
    }
    // Every row matches `same = 'hot'`: probing an index would fetch the
    // whole table through candidate verification — scan instead.
    let broad = explain_text(&mut db, "select uniq from t where same = 'hot'");
    assert!(broad.iter().any(|l| l.contains("t: scan")), "plan was {broad:?}");
    // `uniq` is distinct per row: a point probe touches ~1 candidate.
    let narrow = explain_text(&mut db, "select same from t where uniq = 37");
    assert!(narrow.iter().any(|l| l.contains("index(uniq = 37)")), "plan was {narrow:?}");
    // Both choices stay correct.
    for sql in ["select uniq from t where same = 'hot'", "select same from t where uniq = 37"] {
        assert_eq!(db.query(sql).unwrap(), db.query_with(sql, &SCAN).unwrap(), "for {sql}");
    }
}

#[test]
fn int_text_coercion_keys_stay_exact_under_all_join_algorithms() {
    // '5' = 5 = '05' under sql_cmp, but '5' ≠ '05' — the histogram's
    // normalized keys group them together, and execution must re-verify.
    let mut db = Database::new();
    db.execute("create table l (id int, tag text)").unwrap();
    db.execute("create table r (id int, tag text)").unwrap();
    let spellings = ["'5'", "'05'", "' 5'", "'x'", "NULL", "'6'", "'007'"];
    for (i, tag) in spellings.iter().enumerate() {
        db.execute(&format!("insert into l values ({i}, {tag})")).unwrap();
        db.execute(&format!("insert into r values ({}, {tag})", 10 + i)).unwrap();
    }
    db.execute("insert into l values (100, '7')").unwrap();
    let sql = "select l.id, r.id from l, r where l.tag = r.tag";
    let scanned = db.query_with(sql, &SCAN).unwrap();
    for (label, config) in [
        ("cost-based", PlannerConfig::default()),
        (
            "forced merge",
            PlannerConfig { mode: PlannerMode::CostBased, force_join: Some(JoinAlgo::SortMerge) },
        ),
        (
            "forced hash",
            PlannerConfig { mode: PlannerMode::CostBased, force_join: Some(JoinAlgo::Hash) },
        ),
        ("heuristic", PlannerConfig { mode: PlannerMode::Heuristic, force_join: None }),
    ] {
        assert_eq!(db.query_with(sql, &config).unwrap(), scanned, "{label} diverged");
    }
}

#[test]
fn plan_cache_recosts_after_100x_growth_with_hysteresis() {
    let mut db = Database::new();
    db.execute("create table t (id int, tag text)").unwrap();
    for i in 0..8 {
        db.execute(&format!("insert into t values ({i}, 'hot')")).unwrap();
    }
    let sql = "select id from t where tag = 'hot'";
    // Small table, predicate matching every row: the cached plan scans.
    db.query(sql).unwrap();
    assert_eq!(db.stats().scan_executions(), 1);
    assert_eq!(db.stats().plan_cache_misses(), 1);

    // 100x growth with distinct tags turns 'hot' into a needle. The
    // size-band epoch evicts the stale scan plan and re-costing flips it
    // to an index probe — without any schema change.
    for i in 8..808 {
        db.execute(&format!("insert into t values ({i}, 'cold-{i}')")).unwrap();
    }
    db.query(sql).unwrap();
    assert_eq!(db.stats().plan_cache_misses(), 2, "growth must re-plan");
    assert_eq!(db.stats().indexed_executions(), 1, "re-costed plan probes the index");
    assert_eq!(db.query(sql).unwrap(), db.query_with(sql, &SCAN).unwrap());

    // Hysteresis: one more single-row INSERT stays inside the same size
    // band, so the freshly cached plan survives and the next query hits.
    let hits_before = db.stats().plan_cache_hits();
    db.execute("insert into t values (808, 'cold-808')").unwrap();
    db.query(sql).unwrap();
    assert_eq!(db.stats().plan_cache_misses(), 2, "single-row insert must not evict");
    assert!(db.stats().plan_cache_hits() > hits_before);
}

/// Build the durable workload used by the mid-checkpoint crash test:
/// rows inserted, statistics warmed through the reader, then an explicit
/// checkpoint (which journals the stats-warm flag in the catalog).
fn run_stats_workload(db: &mut DurableDatabase) -> Result<(), DurableError> {
    db.execute("create table nodes (id int, tag text)")?;
    for i in 0..40 {
        db.execute(&format!("insert into nodes values ({i}, 'tag-{}')", i % 5))?;
    }
    // Planning through the reader builds (warms) nodes' statistics.
    let _ = db.reader().query("select id from nodes where id = 7");
    db.checkpoint()?;
    // Post-checkpoint writes land in the WAL on top of the snapshot.
    for i in 40..48 {
        db.execute(&format!("insert into nodes values ({i}, 'late')"))?;
    }
    Ok(())
}

#[test]
fn stats_recover_after_crash_mid_checkpoint() {
    // Golden run: find the op range the checkpoint occupies.
    let vfs = MemVfs::new();
    let mut db = DurableDatabase::open(&vfs).unwrap();
    db.execute("create table nodes (id int, tag text)").unwrap();
    for i in 0..40 {
        db.execute(&format!("insert into nodes values ({i}, 'tag-{}')", i % 5)).unwrap();
    }
    let _ = db.reader().query("select id from nodes where id = 7");
    let before_checkpoint = vfs.ops();
    db.checkpoint().unwrap();
    let after_checkpoint = vfs.ops();
    assert!(after_checkpoint > before_checkpoint, "checkpoint must write");
    drop(db);

    // Crash at every op inside (and just after) the checkpoint window.
    for at_op in before_checkpoint + 1..=after_checkpoint + 2 {
        let vfs = MemVfs::new();
        vfs.arm(CrashPlan { at_op, seed: at_op });
        let crashed = match DurableDatabase::open(&vfs) {
            Ok(mut db) => match run_stats_workload(&mut db) {
                Ok(()) => false,
                Err(DurableError::Disk(DiskError::Crashed)) => true,
                Err(e) => panic!("unexpected workload error at op {at_op}: {e}"),
            },
            Err(DurableError::Disk(DiskError::Crashed)) => true,
            Err(e) => panic!("unexpected open error at op {at_op}: {e}"),
        };
        assert!(crashed, "crash plan at op {at_op} never fired");

        let survivor = vfs.survivor();
        let db = DurableDatabase::open(&survivor).unwrap();
        // Whatever prefix survived, planning with recovered (or absent)
        // statistics must agree with the scan path exactly.
        if db.reader().table("nodes").is_some() {
            for sql in [
                "select id from nodes where id = 7",
                "select count(*) from nodes where tag = 'tag-3'",
                "select id from nodes where tag = 'late' and id > 41",
            ] {
                assert_eq!(
                    db.reader().query(sql).unwrap(),
                    db.reader().query_with(sql, &SCAN).unwrap(),
                    "planned ≡ scan broke after crash at op {at_op} for {sql}"
                );
            }
        }
        // And recovery itself is deterministic: a second open of the
        // same survivor lands on the identical state.
        let fp = db.state_fingerprint();
        drop(db);
        assert_eq!(DurableDatabase::open(&survivor).unwrap().state_fingerprint(), fp);
    }
}
