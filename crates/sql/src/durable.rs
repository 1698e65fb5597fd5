//! The durable engine: an in-memory [`Database`] fronted by a
//! write-ahead log and checkpointed through the pager.
//!
//! The in-memory engine stays the single execution path — every
//! statement runs against `mem` exactly as in the volatile mode — while
//! this wrapper journals the statement text of each successful write and
//! periodically folds the whole state into a B-tree snapshot. Opening an
//! existing directory replays: live snapshot first, then every committed
//! WAL transaction beyond it (see [`crate::recovery`]).
//!
//! Commit protocol (auto-commit shown; explicit transactions just spread
//! the same frames out):
//!
//! ```text
//! append Begin{seq}  →  append Stmt{sql}...  →  append Commit{seq,rev,gen}  →  fsync(wal)
//! ```
//!
//! The single fsync *after* the commit frame is the durability point.
//! Rollback truncates the WAL back to the transaction's start and
//! restores the memory image saved at `begin` — which also restores a
//! cold plan cache, so a statement cached during the transaction can
//! never serve rolled-back rows.

use crate::disk::{DiskError, Vfs};
use crate::exec::ExecOutcome;
use crate::pager::{Pager, SnapshotWriter, PAGE_PAYLOAD};
use crate::recovery::{self, CatalogTable, RecoveryError, RecoveryReport};
use crate::wal::{self, WalRecord, WalWriter};
use crate::{btree::BTreeBuilder, codec};
use crate::{Database, SqlError};
use rocks_trace::{Counter, Registry, Tracer};

/// Checkpoint policy: fold the WAL into a snapshot once it exceeds this
/// many bytes (checked at commit boundaries, never mid-transaction).
const CHECKPOINT_WAL_BYTES: u64 = 256 * 1024;

/// Errors from the durable engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// The statement itself failed; nothing was journaled and the
    /// in-memory state is unchanged.
    Sql(SqlError),
    /// The disk failed (includes the fault injector's `Crashed`).
    Disk(DiskError),
    /// Recovery could not reconstruct a committed prefix.
    Recovery(RecoveryError),
    /// Transaction misuse (nested begin, commit without begin, ...).
    Txn(String),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Sql(e) => write!(f, "sql: {e}"),
            DurableError::Disk(e) => write!(f, "disk: {e}"),
            DurableError::Recovery(e) => write!(f, "recovery: {e}"),
            DurableError::Txn(m) => write!(f, "transaction: {m}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<SqlError> for DurableError {
    fn from(e: SqlError) -> Self {
        DurableError::Sql(e)
    }
}

impl From<DiskError> for DurableError {
    fn from(e: DiskError) -> Self {
        DurableError::Disk(e)
    }
}

impl From<RecoveryError> for DurableError {
    fn from(e: RecoveryError) -> Self {
        DurableError::Recovery(e)
    }
}

/// Result alias for durable-engine operations.
pub type DurableResult<T> = std::result::Result<T, DurableError>;

/// Storage-engine telemetry, [`Registry`]-backed like
/// [`crate::QueryStats`] so one cluster-wide ledger holds everything.
#[derive(Debug, Clone)]
pub struct DurableStats {
    registry: Registry,
    wal_appends: Counter,
    wal_bytes: Counter,
    fsyncs: Counter,
    commits: Counter,
    checkpoints: Counter,
    checkpoint_pages: Counter,
    recovery_replayed: Counter,
    recovery_anomalies: Counter,
}

impl DurableStats {
    fn bound_to(registry: Registry) -> Self {
        DurableStats {
            wal_appends: registry.counter("db.wal.appends"),
            wal_bytes: registry.counter("db.wal.bytes"),
            fsyncs: registry.counter("db.wal.fsyncs"),
            commits: registry.counter("db.commits"),
            checkpoints: registry.counter("db.checkpoints"),
            checkpoint_pages: registry.counter("db.checkpoint.pages"),
            recovery_replayed: registry.counter("db.recovery.commits_replayed"),
            recovery_anomalies: registry.counter("db.recovery.anomalies"),
            registry,
        }
    }

    /// The registry these counters feed.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// WAL frames appended.
    pub fn wal_appends(&self) -> u64 {
        self.wal_appends.get()
    }

    /// WAL bytes appended.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes.get()
    }

    /// `fsync` calls issued (WAL and data file).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.get()
    }

    /// Transactions committed.
    pub fn commits(&self) -> u64 {
        self.commits.get()
    }

    /// Checkpoints completed.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.get()
    }

    /// Pages written across all checkpoints.
    pub fn checkpoint_pages(&self) -> u64 {
        self.checkpoint_pages.get()
    }

    /// Commits replayed by the open-time recovery.
    pub fn recovery_replayed(&self) -> u64 {
        self.recovery_replayed.get()
    }

    /// Tail anomalies found by the open-time recovery.
    pub fn recovery_anomalies(&self) -> u64 {
        self.recovery_anomalies.get()
    }
}

impl Default for DurableStats {
    fn default() -> Self {
        DurableStats::bound_to(Registry::new())
    }
}

/// Memory image saved at `begin`, restored on rollback.
struct TxnState {
    saved_mem: Database,
    wal_start: u64,
    seq: u64,
}

impl std::fmt::Debug for TxnState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnState").field("seq", &self.seq).finish()
    }
}

/// A [`Database`] that survives restarts. See the module docs.
#[derive(Debug)]
pub struct DurableDatabase {
    mem: Database,
    wal: WalWriter,
    pager: Pager,
    /// Last committed transaction sequence number.
    seq: u64,
    /// Revision metadata journaled with the next commit (the `ClusterDb`
    /// counter; plain `0` for standalone use).
    revision: u64,
    txn: Option<TxnState>,
    report: RecoveryReport,
    stats: DurableStats,
    tracer: Tracer,
}

impl DurableDatabase {
    /// Open (or create) the database stored in `vfs`, replaying as
    /// needed.
    pub fn open(vfs: &dyn Vfs) -> DurableResult<Self> {
        Self::open_with_tracer(vfs, Tracer::disabled())
    }

    /// [`open`](Self::open) with spans and counters flowing into
    /// `tracer`.
    pub fn open_with_tracer(vfs: &dyn Vfs, tracer: Tracer) -> DurableResult<Self> {
        let stats = match tracer.registry() {
            Some(r) => DurableStats::bound_to(r.clone()),
            None => DurableStats::default(),
        };
        let _span = tracer.span("db.recovery");
        let wal_file = vfs.open("wal")?;
        let data_file = vfs.open("data")?;
        let mut pager = Pager::open(data_file)?;

        let mut report = RecoveryReport::default();
        let (mut mem, mut seq, mut revision) = match pager.live() {
            Some(meta) => {
                let (db, verified) = recovery::load_snapshot(&pager, meta)?;
                report.checkpoint_seq = meta.checkpoint_seq;
                report.index_entries_verified = verified;
                (db, meta.checkpoint_seq, meta.revision)
            }
            None => (Database::new(), 0, 0),
        };

        let scan = wal::scan(&*wal_file)?;
        report.anomalies = scan.anomalies.clone();
        if pager.headerless_damage() {
            // A non-empty data file with no valid header is survivable
            // only if the crash hit the *first* checkpoint — then the WAL
            // was never truncated and must still start at commit 1. A log
            // starting later means a once-valid snapshot was destroyed
            // and the committed prefix is gone: hard error.
            if let Some(first) = scan.txns.first() {
                if first.seq != 1 {
                    return Err(RecoveryError::ChecksumMismatch(format!(
                        "no valid snapshot header, but the log starts at commit {} — \
                         a completed checkpoint has been destroyed",
                        first.seq
                    ))
                    .into());
                }
            }
            report.anomalies.push(RecoveryError::TornWrite(
                "snapshot header never became valid; rebuilding from the log".into(),
            ));
            pager.reset_damaged()?;
        }
        let (new_seq, last_rev) = recovery::replay(&mut mem, &scan, seq, &mut report)?;
        if new_seq > seq {
            seq = new_seq;
            revision = last_rev;
        }

        // Repair: drop the damaged/uncommitted tail so new appends start
        // on a committed prefix. (Replay is idempotent regardless — a
        // second open sees the same committed frames — but appending
        // after garbage would not be.)
        let actual_len = wal_file.len()?;
        let mut wal = WalWriter::new(wal_file, scan.committed_len);
        if actual_len > scan.committed_len {
            report.wal_tail_discarded = actual_len - scan.committed_len;
            wal.truncate_to(scan.committed_len)?;
            wal.sync()?;
        }

        stats.recovery_replayed.add(report.commits_replayed);
        stats.recovery_anomalies.add(report.anomalies.len() as u64);
        tracer.mark("db.recovery.commits", report.commits_replayed);

        Ok(DurableDatabase { mem, wal, pager, seq, revision, txn: None, report, stats, tracer })
    }

    /// What open-time recovery found and did.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Read-only view of the in-memory engine: `query`, `lookup_eq`,
    /// and friends.
    pub fn reader(&self) -> &Database {
        &self.mem
    }

    /// Storage telemetry.
    pub fn stats(&self) -> &DurableStats {
        &self.stats
    }

    /// Rebind storage *and* SQL counters to an external registry.
    pub fn bind_stats_registry(&mut self, registry: &Registry) {
        self.stats = DurableStats::bound_to(registry.clone());
        self.mem.bind_stats_registry(registry);
    }

    /// Last committed transaction sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Revision metadata that will ride the next commit record.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Set the revision metadata journaled with the next commit. The
    /// cluster layer calls this with its own counter so recovery can
    /// hand the exact committed revision back.
    pub fn set_revision(&mut self, revision: u64) {
        self.revision = revision;
    }

    /// True while an explicit transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Open an explicit transaction. Statements executed until
    /// [`commit`](Self::commit) become durable together;
    /// [`rollback`](Self::rollback) (or a crash) undoes all of them.
    pub fn begin(&mut self) -> DurableResult<()> {
        if self.txn.is_some() {
            return Err(DurableError::Txn("transaction already open".into()));
        }
        let seq = self.seq + 1;
        let wal_start = self.wal.len();
        self.append(&WalRecord::Begin { seq })?;
        self.txn = Some(TxnState { saved_mem: self.mem.clone(), wal_start, seq });
        Ok(())
    }

    /// Commit the open transaction: write the commit record and fsync.
    pub fn commit(&mut self) -> DurableResult<()> {
        let txn = self.txn.take().ok_or_else(|| DurableError::Txn("no open transaction".into()))?;
        let _span = self.tracer.span("db.commit");
        // On append/fsync failure durability is unknown; keep the memory
        // image (the statements did execute) and surface the error — the
        // next open() decides from the bytes on disk.
        self.commit_frames(txn.seq)?;
        self.seq = txn.seq;
        self.maybe_checkpoint()
    }

    fn commit_frames(&mut self, seq: u64) -> DurableResult<()> {
        self.append(&WalRecord::Commit {
            seq,
            revision: self.revision,
            schema_gen: self.mem.schema_generation(),
        })?;
        self.wal.sync()?;
        self.stats.fsyncs.incr();
        self.stats.commits.incr();
        Ok(())
    }

    /// Abandon the open transaction: truncate the WAL back to its start
    /// and restore the memory image saved at `begin`. The restored image
    /// carries a cold plan cache (see `Database::clone`), which is what
    /// makes "a cached plan serves rolled-back rows" impossible; the
    /// statement counters keep flowing into the same registry.
    pub fn rollback(&mut self) -> DurableResult<()> {
        let txn = self.txn.take().ok_or_else(|| DurableError::Txn("no open transaction".into()))?;
        let registry = self.mem.stats().registry().clone();
        self.mem = txn.saved_mem;
        self.mem.bind_stats_registry(&registry);
        self.wal.truncate_to(txn.wal_start)?;
        self.wal.sync()?;
        self.stats.fsyncs.incr();
        Ok(())
    }

    /// Execute one statement. Outside a transaction this auto-commits
    /// (Begin + Stmt + Commit + fsync); inside one it only journals the
    /// statement. Failed statements have no effect anywhere — memory,
    /// journal, or disk.
    pub fn execute(&mut self, sql: &str) -> DurableResult<ExecOutcome> {
        // Writes must not slip through the read-only classification:
        // run first, journal on success. The in-memory engine guarantees
        // failed statements change nothing (statement atomicity).
        if self.txn.is_some() {
            let outcome = self.mem.execute(sql)?;
            if written(&outcome) {
                self.append(&WalRecord::Stmt { sql: sql.to_string() })?;
            }
            return Ok(outcome);
        }
        let outcome = self.mem.execute(sql)?;
        if !written(&outcome) {
            return Ok(outcome);
        }
        let seq = self.seq + 1;
        let _span = self.tracer.span("db.commit");
        self.append(&WalRecord::Begin { seq })?;
        self.append(&WalRecord::Stmt { sql: sql.to_string() })?;
        self.commit_frames(seq)?;
        self.seq = seq;
        self.maybe_checkpoint()?;
        Ok(outcome)
    }

    fn append(&mut self, rec: &WalRecord) -> DurableResult<()> {
        let bytes = self.wal.append(rec)?;
        self.stats.wal_appends.incr();
        self.stats.wal_bytes.add(bytes);
        Ok(())
    }

    fn maybe_checkpoint(&mut self) -> DurableResult<()> {
        if self.wal.len() >= CHECKPOINT_WAL_BYTES {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Fold the current state into a fresh snapshot and truncate the
    /// WAL. Safe at any commit boundary; refuses inside a transaction.
    pub fn checkpoint(&mut self) -> DurableResult<()> {
        if self.txn.is_some() {
            return Err(DurableError::Txn("cannot checkpoint inside a transaction".into()));
        }
        let _span = self.tracer.span("db.checkpoint");
        let mut writer = SnapshotWriter::new();
        let mut catalog = Vec::new();
        // `table_names` is sorted; the catalog inherits that order.
        for name in self.mem.table_names() {
            let table = self.mem.table(name).expect("listed table");
            // Primary tree: rowid (current position) → encoded row.
            let mut primary = BTreeBuilder::new();
            for (rowid, row) in table.rows().iter().enumerate() {
                let mut value = Vec::new();
                codec::put_row(&mut value, row);
                if value.len() + 32 > PAGE_PAYLOAD {
                    return Err(DurableError::Sql(SqlError::Unsupported(format!(
                        "row of {} bytes in table {name} exceeds the one-page checkpoint limit",
                        value.len()
                    ))));
                }
                primary.insert((rowid as u64).to_be_bytes().to_vec(), value);
            }
            let rows = primary.len();
            let root = primary.serialize(&mut writer);
            // Secondary trees for every column with a warm hash index.
            let mut indexes = Vec::new();
            for col in table.indexed_column_ids() {
                let mut tree = BTreeBuilder::new();
                for (rowid, row) in table.rows().iter().enumerate() {
                    let mut key = Vec::new();
                    codec::put_index_key(&mut key, &row[col]);
                    key.extend_from_slice(&(rowid as u64).to_be_bytes());
                    tree.insert(key, Vec::new());
                }
                indexes.push((col as u32, tree.serialize(&mut writer)));
            }
            catalog.push(CatalogTable {
                name: name.to_string(),
                columns: table.columns().iter().map(|c| (c.name.clone(), c.ty)).collect(),
                rows,
                root,
                indexes,
                stats_warm: table.stats_if_warm().is_some(),
            });
        }
        // The catalog always encodes at least its table count, so even a
        // zero-table database gets a page and the header points at
        // something readable.
        let catalog_bytes = recovery::encode_catalog(&catalog);
        let catalog_page = writer.page_count();
        for chunk in catalog_bytes.chunks(PAGE_PAYLOAD) {
            writer.push_page(chunk.to_vec());
        }
        let pages = writer.page_count() as u64;
        self.pager.write_snapshot(
            writer,
            catalog_page,
            catalog_bytes.len() as u32,
            self.seq,
            self.revision,
            self.mem.schema_generation(),
        )?;
        // The WAL's content is now folded into the snapshot.
        self.wal.truncate_to(0)?;
        self.wal.sync()?;
        self.stats.fsyncs.add(3); // two data barriers + the wal truncate
        self.stats.checkpoints.incr();
        self.stats.checkpoint_pages.add(pages);
        Ok(())
    }

    /// A fingerprint of the full logical state: every table's schema and
    /// rows plus `(seq, revision, schema generation)`. Two engines with
    /// equal fingerprints answer every query identically — the equality
    /// the crash harness checks across recoveries.
    pub fn state_fingerprint(&self) -> u64 {
        fingerprint_database(&self.mem, self.seq, self.revision)
    }
}

fn written(outcome: &ExecOutcome) -> bool {
    matches!(outcome, ExecOutcome::Written { .. })
}

/// Canonical-state fingerprint (see
/// [`DurableDatabase::state_fingerprint`]).
pub fn fingerprint_database(db: &Database, seq: u64, revision: u64) -> u64 {
    let mut bytes = Vec::new();
    codec::put_u64(&mut bytes, seq);
    codec::put_u64(&mut bytes, revision);
    codec::put_u64(&mut bytes, db.schema_generation());
    for name in db.table_names() {
        let t = db.table(name).expect("listed table");
        codec::put_str(&mut bytes, name);
        for c in t.columns() {
            codec::put_str(&mut bytes, &c.name);
            codec::put_u8(&mut bytes, matches!(c.ty, crate::ColumnType::Text) as u8);
        }
        for row in t.rows() {
            codec::put_row(&mut bytes, row);
        }
    }
    codec::fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemVfs;
    use crate::Value;

    fn mkdb(vfs: &MemVfs) -> DurableDatabase {
        DurableDatabase::open(vfs).unwrap()
    }

    #[test]
    fn survives_reopen() {
        let vfs = MemVfs::new();
        let mut db = mkdb(&vfs);
        db.execute("create table nodes (id int, name text)").unwrap();
        db.execute("insert into nodes values (1, 'frontend-0'), (2, 'compute-0-0')").unwrap();
        let fp = db.state_fingerprint();
        drop(db);
        let db2 = mkdb(&vfs);
        assert_eq!(db2.state_fingerprint(), fp);
        assert_eq!(db2.recovery_report().commits_replayed, 2);
        let r = db2.reader().query("select name from nodes where id = 2").unwrap();
        assert_eq!(r.rows[0][0].as_text(), Some("compute-0-0"));
    }

    #[test]
    fn checkpoint_then_reopen_skips_replay() {
        let vfs = MemVfs::new();
        let mut db = mkdb(&vfs);
        db.execute("create table t (x int)").unwrap();
        for i in 0..10 {
            db.execute(&format!("insert into t values ({i})")).unwrap();
        }
        db.checkpoint().unwrap();
        db.execute("insert into t values (99)").unwrap();
        let fp = db.state_fingerprint();
        drop(db);
        let db2 = mkdb(&vfs);
        assert_eq!(db2.state_fingerprint(), fp);
        assert_eq!(db2.recovery_report().commits_replayed, 1, "only the post-checkpoint commit");
        assert_eq!(db2.reader().table("t").unwrap().len(), 11);
    }

    #[test]
    fn secondary_indexes_survive_and_verify() {
        let vfs = MemVfs::new();
        let mut db = mkdb(&vfs);
        db.execute("create table nodes (id int, ip text)").unwrap();
        db.execute("insert into nodes values (1, '10.0.0.1'), (2, '10.0.0.2')").unwrap();
        // Warm an index so the checkpoint writes a secondary tree.
        db.reader().lookup_eq("nodes", "ip", &Value::Text("10.0.0.2".into())).unwrap();
        db.checkpoint().unwrap();
        drop(db);
        let db2 = mkdb(&vfs);
        assert_eq!(db2.recovery_report().index_entries_verified, 2);
        // The recovered table already carries the warm index.
        assert_eq!(db2.reader().table("nodes").unwrap().indexed_columns(), 1);
    }

    #[test]
    fn rollback_restores_state_and_truncates_wal() {
        let vfs = MemVfs::new();
        let mut db = mkdb(&vfs);
        db.execute("create table t (x int)").unwrap();
        db.execute("insert into t values (1)").unwrap();
        let fp = db.state_fingerprint();
        let wal_len = db.wal.len();
        db.begin().unwrap();
        db.execute("insert into t values (2)").unwrap();
        db.execute("create table ghost (y int)").unwrap();
        assert_eq!(db.reader().table("t").unwrap().len(), 2);
        db.rollback().unwrap();
        assert_eq!(db.state_fingerprint(), fp);
        assert_eq!(db.wal.len(), wal_len);
        assert!(db.reader().table("ghost").is_none());
        // And a reopen agrees: the rolled-back work never existed.
        drop(db);
        assert_eq!(mkdb(&vfs).state_fingerprint(), fp);
    }

    #[test]
    fn failed_statements_are_not_journaled() {
        let vfs = MemVfs::new();
        let mut db = mkdb(&vfs);
        db.execute("create table t (x int)").unwrap();
        let appends = db.stats().wal_appends();
        assert!(db.execute("insert into t values (1, 2)").is_err());
        assert!(db.execute("insert into missing values (1)").is_err());
        // Multi-row insert with a bad row: statement atomicity means no
        // effect, so nothing may reach the journal either.
        assert!(db.execute("insert into t values (1), ('x')").is_err());
        assert_eq!(db.stats().wal_appends(), appends);
        assert_eq!(db.reader().table("t").unwrap().len(), 0);
    }

    #[test]
    fn reads_do_not_touch_the_wal() {
        let vfs = MemVfs::new();
        let mut db = mkdb(&vfs);
        db.execute("create table t (x int)").unwrap();
        let appends = db.stats().wal_appends();
        db.execute("select * from t").unwrap();
        assert_eq!(db.stats().wal_appends(), appends);
    }

    #[test]
    fn wal_growth_triggers_automatic_checkpoint() {
        let vfs = MemVfs::new();
        let mut db = mkdb(&vfs);
        db.execute("create table t (x int, pad text)").unwrap();
        let pad = "p".repeat(512);
        for i in 0..1000 {
            db.execute(&format!("insert into t values ({i}, '{pad}')")).unwrap();
            if db.stats().checkpoints() > 0 {
                break;
            }
        }
        assert!(db.stats().checkpoints() > 0, "WAL never hit the checkpoint threshold");
        assert!(db.wal.len() < CHECKPOINT_WAL_BYTES);
        let fp = db.state_fingerprint();
        drop(db);
        assert_eq!(mkdb(&vfs).state_fingerprint(), fp);
    }

    #[test]
    fn revision_and_schema_gen_survive_recovery() {
        let vfs = MemVfs::new();
        let mut db = mkdb(&vfs);
        db.set_revision(41);
        db.execute("create table t (x int)").unwrap();
        db.set_revision(42);
        db.execute("insert into t values (1)").unwrap();
        let gen = db.reader().schema_generation();
        drop(db);
        let db2 = mkdb(&vfs);
        assert_eq!(db2.revision(), 42);
        assert_eq!(db2.reader().schema_generation(), gen);
        // Also across a checkpoint boundary.
        let mut db2 = db2;
        db2.checkpoint().unwrap();
        drop(db2);
        let db3 = mkdb(&vfs);
        assert_eq!(db3.revision(), 42);
        assert_eq!(db3.reader().schema_generation(), gen);
    }
}
