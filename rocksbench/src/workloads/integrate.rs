//! `integrate`: a cabinet walk. insert-ethers integrates new nodes rack by
//! rack into a durable database on an in-memory disk, and each node fetches
//! its first kickstart right after it is observed. All writes plus
//! full-table report scans, and every fetch misses the skeleton cache
//! because the database revision moved.

use super::{fetch, fetch_split, finish_end_to_end, sql_ratios, LayerValues, ARCH};
use super::{DIST_PATH, FRONTEND_IP, FRONTEND_MAC};
use crate::spans::SpanLog;
use crate::{alternate, ns_since, repeat_for, stats, Outcome, Phase, Rng, RunConfig};
use rocks_db::insert_ethers::register_frontend;
use rocks_db::reports::{self, GeneratedReports};
use rocks_db::{ClusterDb, DhcpRequest, InsertEthers, NodeRecord};
use rocks_kickstart::profiles::default_profiles;
use rocks_kickstart::{GenerationService, KickstartGenerator};
use rocks_sql::MemVfs;
use rocks_trace::Registry;
use std::time::Instant;

/// Cabinet walk shape.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Cabinets walked.
    pub racks: usize,
    /// Nodes booted per cabinet.
    pub per_rack: usize,
}

impl Size {
    /// 16 cabinets of 64: 1024 new nodes.
    pub const FULL: Size = Size { racks: 16, per_rack: 64 };

    fn nodes(&self) -> usize {
        self.racks * self.per_rack
    }
}

/// Timed set-ups before the walk (each pass adds one more); the median of
/// all of them is `setup_s`.
const SETUP_REPS: usize = 25;

/// The seeded MACs, in boot order.
pub fn boot_macs(seed: u64, size: &Size) -> Vec<String> {
    let mut rng = Rng::new(seed, 0x696e_7465);
    (0..size.nodes())
        .map(|i| {
            let r = rng.next_u64();
            format!(
                "00:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
                r & 0xff,
                (r >> 8) & 0xff,
                (r >> 16) & 0xff,
                (i >> 8) & 0xff,
                i & 0xff
            )
        })
        .collect()
}

/// A fresh frontend: a durable database holding only the frontend, and a
/// cold generation service.
pub struct Frontend {
    vfs: MemVfs,
    db: ClusterDb,
    svc: GenerationService,
}

/// Build the starting state.
pub fn fresh_frontend() -> Result<Frontend, String> {
    let vfs = MemVfs::new();
    let mut db = ClusterDb::open_durable(&vfs).map_err(|e| e.to_string())?;
    register_frontend(&mut db, FRONTEND_MAC, "frontend-0").map_err(|e| e.to_string())?;
    let svc =
        GenerationService::new(KickstartGenerator::new(default_profiles(), FRONTEND_IP, DIST_PATH));
    Ok(Frontend { vfs, db, svc })
}

/// What integrating one node produced.
struct Integrated {
    record: NodeRecord,
    reports: Option<GeneratedReports>,
    kickstart: String,
}

/// One operation: a session on `rack`, the DHCP observation, and the node's
/// first kickstart fetch. Traced when `log` is given.
fn integrate_node(
    fe: &mut Frontend,
    rack: usize,
    mac: &str,
    log: Option<&mut SpanLog>,
) -> Result<Integrated, String> {
    let request = DhcpRequest { mac: mac.to_string() };
    let Some(log) = log else {
        let mut session =
            InsertEthers::start(&mut fe.db, "Compute", rack as i64).map_err(|e| e.to_string())?;
        let record =
            session.observe(&request).map_err(|e| e.to_string())?.ok_or("MAC already known")?;
        let reports = session.last_reports.take();
        let kickstart = fetch(&fe.svc, &fe.db, &record.ip.to_string())?;
        return Ok(Integrated { record, reports, kickstart });
    };
    log.enter("db.session");
    let session = InsertEthers::start(&mut fe.db, "Compute", rack as i64);
    log.exit();
    let mut session = session.map_err(|e| e.to_string())?;
    log.enter("db.observe");
    let observed = session.observe(&request);
    log.exit();
    let record = observed.map_err(|e| e.to_string())?.ok_or("MAC already known")?;
    let reports = session.last_reports.take();
    let kickstart = fetch_split(log, &fe.svc, &fe.db, &record.ip.to_string())?;
    Ok(Integrated { record, reports, kickstart })
}

/// Per-node gate: the right name, and a kickstart localised to it.
pub fn verify_node(
    record: &NodeRecord,
    rack: usize,
    rank: usize,
    kickstart: &str,
) -> Result<(), String> {
    let name = format!("compute-{rack}-{rank}");
    if record.name != name {
        return Err(format!("node named {} where {name} was due", record.name));
    }
    if !kickstart.contains(&format!("--hostname {name}\n"))
        || !kickstart.contains(&format!("export NODE_NAME={name}\n"))
    {
        return Err(format!("{name}: first kickstart is not localised to the node"));
    }
    Ok(())
}

/// Walk gate: reopening the disk recovers exactly the integrated rows and
/// regenerates the same reports.
pub fn verify_reopen(
    vfs: &MemVfs,
    expected_rows: &[NodeRecord],
    expected_reports: &GeneratedReports,
) -> Result<(), String> {
    let mut reopened = ClusterDb::open_durable(&vfs.survivor()).map_err(|e| e.to_string())?;
    let rows = reopened.nodes().map_err(|e| e.to_string())?;
    if rows != expected_rows {
        return Err(format!(
            "reopened database holds {} node rows that differ from the {} integrated",
            rows.len(),
            expected_rows.len()
        ));
    }
    let regenerated = reports::generate_all(&mut reopened).map_err(|e| e.to_string())?;
    if &regenerated != expected_reports {
        return Err("reports regenerated after reopening differ".into());
    }
    Ok(())
}

/// Accumulated traced-phase counters.
#[derive(Default)]
struct Counters {
    nodes: u64,
    walks: u64,
    hits: u64,
    lookups: u64,
    bytes: u64,
}

/// Run the workload.
pub fn run(cfg: &RunConfig, size: &Size) -> Outcome {
    let mut out = Outcome { threads: 1, ..Outcome::default() };
    let macs = boot_macs(cfg.seed, size);
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = fresh_frontend();
        setup_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = built {
            out.attempted = size.nodes() as u64;
            out.fail(size.nodes() as u64, format!("set-up failed: {e}"));
            return out;
        }
    }

    if !cfg.trace {
        let mut phase = Phase::default();
        repeat_for(cfg.seconds, 2, |i| {
            walk(&mut out, size, &macs, i, &mut setup_s, None, &mut phase)
        });
        finish_end_to_end(&mut out, phase, &setup_s);
        return out;
    }

    let mut log = SpanLog::default();
    let registry = Registry::new();
    let mut counters = Counters::default();
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    alternate(cfg.seconds, 1, |i, is_traced| {
        if is_traced {
            let trace = Some((&mut log, &registry, &mut counters));
            walk(&mut out, size, &macs, i, &mut setup_s, trace, &mut traced);
        } else {
            walk(&mut out, size, &macs, i, &mut setup_s, None, &mut untraced);
        }
    });
    let ops = counters.nodes;
    let snap = registry.snapshot();
    let mut values = LayerValues::default();
    values.per_op("db.session_ns", &log, "db.session", ops);
    values.per_op("db.observe_ns", &log, "db.observe", ops);
    values.set("db.reports_ns", stats::ratio(log.probe_ns("db.reports") as f64, ops as f64));
    values.set("db.used_ips_ns", stats::ratio(log.probe_ns("db.used_ips") as f64, ops as f64));
    values.per_op("sql.resolve_ns", &log, "sql.resolve", ops);
    values.per_op("kickstart.skeleton_ns", &log, "kickstart.skeleton", ops);
    values.per_op("kickstart.localize_ns", &log, "kickstart.localize", ops);
    values.per_op("kickstart.render_ns", &log, "kickstart.render", ops);
    values.set(
        "kickstart.cache_hit_ratio",
        stats::ratio(counters.hits as f64, counters.lookups as f64),
    );
    values.set("kickstart.bytes_per_file", stats::ratio(counters.bytes as f64, ops as f64));
    sql_ratios(&mut values, &snap);
    let scans = snap.counter("sql.plan.scan") as f64;
    let indexed = snap.counter("sql.plan.indexed") as f64;
    values.set("sql.scan_share", stats::ratio(scans, scans + indexed));
    values.set(
        "sql.wal_bytes_per_node",
        stats::ratio(snap.counter("db.wal.bytes") as f64, ops as f64),
    );
    values
        .set("sql.fsyncs_per_node", stats::ratio(snap.counter("db.wal.fsyncs") as f64, ops as f64));
    let walks_done = counters.walks as f64;
    values.set("sql.checkpoints", stats::ratio(snap.counter("db.checkpoints") as f64, walks_done));
    values.set(
        "sql.checkpoint_pages",
        stats::ratio(snap.counter("db.checkpoint.pages") as f64, walks_done),
    );
    values.finish(&mut out, &log, &untraced, &traced);
    out
}

type Traced<'a> = (&'a mut SpanLog, &'a Registry, &'a mut Counters);

/// One cabinet walk on a fresh frontend, timed as one chunk. Traced when
/// `trace` is given: the database reports into its registry, and after each
/// node two probes (outside the operation) time one more report
/// regeneration and one more `used_ips`.
fn walk(
    out: &mut Outcome,
    size: &Size,
    macs: &[String],
    walk: usize,
    setup_s: &mut Vec<f64>,
    mut trace: Option<Traced<'_>>,
    phase: &mut Phase,
) {
    let probes = Registry::new();
    let t = Instant::now();
    let built = fresh_frontend();
    setup_s.push(t.elapsed().as_secs_f64());
    let mut fe = match built {
        Ok(fe) => fe,
        Err(e) => {
            out.attempted += macs.len() as u64;
            out.fail(macs.len() as u64, format!("set-up failed: {e}"));
            return;
        }
    };
    if let Some((_, registry, _)) = &trace {
        fe.db.bind_stats_registry(registry);
    }
    let mut rows = fe.db.nodes().unwrap_or_default();
    let mut last_reports = None;
    let mut busy = 0;
    let failed_before = out.failed;
    for (i, mac) in macs.iter().enumerate() {
        let (rack, rank) = (i / size.per_rack, i % size.per_rack);
        let op_id = (walk * macs.len() + i) as u64;
        let t = Instant::now();
        let result = match trace.as_mut() {
            None => integrate_node(&mut fe, rack, mac, None),
            Some((log, _, _)) => {
                log.op("op.node", op_id);
                let r = integrate_node(&mut fe, rack, mac, Some(log));
                log.exit();
                r
            }
        };
        let ns = ns_since(t);
        busy += ns;
        phase.record(ns);
        out.attempted += 1;
        let node = match result {
            Ok(node) => node,
            Err(e) => {
                out.fail(1, format!("node {i}: {e}"));
                continue;
            }
        };
        if let Err(e) = verify_node(&node.record, rack, rank, &node.kickstart) {
            out.fail(1, e);
        }
        if let Some((log, registry, counters)) = trace.as_mut() {
            fe.db.bind_stats_registry(&probes);
            log.probe("db.reports", op_id);
            let again = reports::generate_all(&mut fe.db);
            log.exit();
            log.probe("db.used_ips", op_id);
            let used = fe.db.used_ips();
            log.exit();
            fe.db.bind_stats_registry(registry);
            if again.ok() != node.reports {
                out.fail(1, format!("node {i}: regenerated reports differ from insert-ethers'"));
            }
            if used.map(|u| u.len()).ok() != Some(rows.len() + 1) {
                out.fail(1, format!("node {i}: used_ips does not list every node"));
            }
            counters.nodes += 1;
            counters.bytes += node.kickstart.len() as u64;
        }
        rows.push(node.record);
        last_reports = node.reports;
    }
    phase.chunk(macs.len() as u64, busy);
    if let Some((_, _, counters)) = trace.as_mut() {
        let s = fe.svc.stats();
        counters.hits += s.hits();
        counters.lookups += s.hits() + s.misses();
        counters.walks += 1;
    }
    let gate = match &last_reports {
        Some(reports) => verify_reopen(&fe.vfs, &rows, reports),
        None => Err("the walk regenerated no reports".into()),
    };
    if let Err(e) = gate {
        // A failed reopen spoils every node of the walk not yet counted.
        let spoiled = (macs.len() as u64).saturating_sub(out.failed - failed_before);
        out.fail(spoiled, format!("walk {walk}: {e}"));
    }
    // The last node's file must also equal the cold generator's.
    if let Some(last) = rows.last() {
        let cold = fe
            .svc
            .generator()
            .generate_for_request(&fe.db, &last.ip.to_string(), ARCH)
            .map(|ks| ks.render());
        let served = fetch(&fe.svc, &fe.db, &last.ip.to_string());
        if !matches!((cold, served), (Ok(c), Ok(s)) if c == s) {
            out.fail(
                1,
                format!("walk {walk}: last node's kickstart differs from the cold generator's"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: Size = Size { racks: 2, per_rack: 4 };

    fn walked() -> (Frontend, Vec<NodeRecord>, GeneratedReports) {
        let mut fe = fresh_frontend().unwrap();
        let mut rows = fe.db.nodes().unwrap();
        let mut reports = None;
        for (i, mac) in boot_macs(2, &TOY).iter().enumerate() {
            let node = integrate_node(&mut fe, i / TOY.per_rack, mac, None).unwrap();
            verify_node(&node.record, i / TOY.per_rack, i % TOY.per_rack, &node.kickstart).unwrap();
            rows.push(node.record);
            reports = node.reports;
        }
        (fe, rows, reports.unwrap())
    }

    #[test]
    fn reopen_gate_passes_on_the_real_disk() {
        let (fe, rows, reports) = walked();
        assert_eq!(rows.len(), TOY.racks * TOY.per_rack + 1);
        verify_reopen(&fe.vfs, &rows, &reports).unwrap();
    }

    #[test]
    fn reopen_gate_catches_a_lost_or_altered_row() {
        let (fe, mut rows, reports) = walked();
        let mut altered = rows.clone();
        altered[3].mac = "00:00:00:00:00:00".into();
        assert!(verify_reopen(&fe.vfs, &altered, &reports).is_err());
        rows.pop();
        assert!(verify_reopen(&fe.vfs, &rows, &reports).is_err());
    }

    #[test]
    fn reopen_gate_catches_corrupted_reports() {
        let (fe, rows, mut reports) = walked();
        reports.hosts.push_str("10.0.0.9\tghost\n");
        assert!(verify_reopen(&fe.vfs, &rows, &reports).is_err());
    }

    #[test]
    fn node_gate_catches_a_foreign_kickstart() {
        let (mut fe, rows, _) = walked();
        let ks = fetch(&fe.svc, &fe.db, &rows[2].ip.to_string()).unwrap();
        assert!(verify_node(&rows[2], 0, 1, &ks).is_ok());
        assert!(verify_node(&rows[2], 0, 2, &ks).is_err());
        let other = fetch(&fe.svc, &fe.db, &rows[3].ip.to_string()).unwrap();
        assert!(verify_node(&rows[2], 0, 1, &other).is_err());
        // A MAC seen before is not integrated twice.
        assert!(integrate_node(&mut fe, 0, &rows[2].mac, None).is_err());
    }
}
