//! `ks_storm`: a reinstall storm against a provisioned frontend. One client
//! runs a closed loop of kickstart requests over the node IPs in a seeded
//! order, so the skeleton cache stays warm and every request is SQL point
//! lookups, localisation and rendering. One client, because `ClusterDb` is
//! not `Sync`: the frontend serves one request at a time.

use super::{fetch, fetch_split, finish_end_to_end, sql_ratios, LayerValues, ARCH};
use super::{DIST_PATH, FRONTEND_IP, FRONTEND_MAC};
use crate::spans::SpanLog;
use crate::{alternate, ns_since, repeat_for, stats, Outcome, Phase, Rng, RunConfig};
use rocks_db::insert_ethers::register_frontend;
use rocks_db::{ClusterDb, Ipv4, NodeRecord};
use rocks_kickstart::profiles::default_profiles;
use rocks_kickstart::{GenerationService, KickstartGenerator};
use rocks_sql::MemVfs;
use rocks_trace::Registry;
use std::time::Instant;

/// Cluster shape.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Cabinets.
    pub racks: usize,
    /// Compute nodes per cabinet.
    pub per_rack: usize,
}

impl Size {
    /// 16 cabinets of 64: a 1024-compute-node frontend.
    pub const FULL: Size = Size { racks: 16, per_rack: 64 };

    fn nodes(&self) -> usize {
        self.racks * self.per_rack
    }
}

/// Timed set-ups per run; the median is `setup_s`.
const SETUP_REPS: usize = 15;

/// The seeded MAC of compute node `i` (unique per node).
pub fn node_mac(seed: u64, i: usize) -> String {
    let r = Rng::new(seed, 0x006d_6163 + i as u64).next_u64();
    format!(
        "00:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
        r & 0xff,
        (r >> 8) & 0xff,
        (r >> 16) & 0xff,
        (i >> 8) & 0xff,
        i & 0xff
    )
}

/// A provisioned frontend: a durable database on an in-memory disk holding
/// the frontend and every compute node, plus a warm generation service.
pub struct Frontend {
    /// The disk the database lives on.
    pub vfs: MemVfs,
    /// The cluster database.
    pub db: ClusterDb,
    /// The kickstart service, skeleton cache warm.
    pub svc: GenerationService,
    /// Each compute node's IP, by node index.
    pub ips: Vec<String>,
}

/// Build the starting state: profiles, the durable database with the
/// frontend and `size` compute nodes (named and addressed as insert-ethers
/// would, loaded in one transaction), and the warmed service.
pub fn provision(seed: u64, size: &Size) -> Result<Frontend, String> {
    let vfs = MemVfs::new();
    let mut db = ClusterDb::open_durable(&vfs).map_err(|e| e.to_string())?;
    register_frontend(&mut db, FRONTEND_MAC, "frontend-0").map_err(|e| e.to_string())?;
    let compute = db.membership_by_name("Compute").map_err(|e| e.to_string())?;
    let mut id = db.next_node_id().map_err(|e| e.to_string())?;
    let mut ip = Ipv4::ALLOC_TOP;
    let mut ips = Vec::with_capacity(size.nodes());
    db.begin_txn().map_err(|e| e.to_string())?;
    for rack in 0..size.racks {
        for rank in 0..size.per_rack {
            let record = NodeRecord {
                id,
                mac: node_mac(seed, ips.len()),
                name: format!("{}-{rack}-{rank}", compute.basename),
                membership: compute.id,
                rack: rack as i64,
                rank: rank as i64,
                ip,
                comment: Some(format!("{} node", compute.name)),
            };
            db.add_node(&record).map_err(|e| e.to_string())?;
            ips.push(ip.to_string());
            id += 1;
            ip = ip.prev();
        }
    }
    db.commit_txn().map_err(|e| e.to_string())?;
    let root = db
        .appliance_root(compute.appliance)
        .map_err(|e| e.to_string())?
        .ok_or("compute appliance has no graph root")?;
    let svc =
        GenerationService::new(KickstartGenerator::new(default_profiles(), FRONTEND_IP, DIST_PATH));
    svc.appliance_profile(&db, &root, ARCH).map_err(|e| e.to_string())?;
    Ok(Frontend { vfs, db, svc, ips })
}

/// Each node's file from the cold generator (no cache), the reference every
/// served file must equal byte for byte.
pub fn cold_files(fe: &Frontend) -> Result<Vec<String>, String> {
    fe.ips
        .iter()
        .map(|ip| {
            fe.svc
                .generator()
                .generate_for_request(&fe.db, ip, ARCH)
                .map(|ks| ks.render())
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// The correctness gate for one served file.
pub fn verify_file(expected: &[String], node: usize, served: &str) -> Result<(), String> {
    if expected[node] == served {
        Ok(())
    } else {
        Err(format!("node {node}: served kickstart differs from the cold generator's"))
    }
}

/// Run the workload.
pub fn run(cfg: &RunConfig, size: &Size) -> Outcome {
    let mut out = Outcome { threads: 1, ..Outcome::default() };
    let mut setup_s = Vec::new();
    let mut fe = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous frontend first, so only one is ever alive.
        drop(fe.take());
        let t = Instant::now();
        let built = provision(cfg.seed, size);
        setup_s.push(t.elapsed().as_secs_f64());
        fe = Some(built);
    }
    let mut fe = match fe.expect("at least one set-up") {
        Ok(fe) => fe,
        Err(e) => {
            out.fail(size.nodes() as u64, format!("provisioning failed: {e}"));
            out.attempted = size.nodes() as u64;
            return out;
        }
    };
    let expected = match cold_files(&fe) {
        Ok(files) => files,
        Err(e) => {
            out.fail(size.nodes() as u64, format!("cold generation failed: {e}"));
            out.attempted = size.nodes() as u64;
            return out;
        }
    };
    let mut order_rng = Rng::new(cfg.seed, 0x006f_7264_6572);
    let mut order: Vec<usize> = (0..fe.ips.len()).collect();

    if !cfg.trace {
        let mut phase = Phase::default();
        repeat_for(cfg.seconds, 3, |_| {
            pass(&mut out, &fe, &expected, &mut order_rng, &mut order, None, &mut phase)
        });
        finish_end_to_end(&mut out, phase, &setup_s);
        return out;
    }

    let registry = Registry::new();
    fe.db.bind_stats_registry(&registry);
    fe.svc.stats().reset();
    let mut log = SpanLog::default();
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    alternate(cfg.seconds, 3, |_, is_traced| {
        let (log, phase) =
            if is_traced { (Some(&mut log), &mut traced) } else { (None, &mut untraced) };
        pass(&mut out, &fe, &expected, &mut order_rng, &mut order, log, phase);
    });
    let ops = log.calls("op.request");
    let mut values = LayerValues::default();
    values.per_op("sql.resolve_ns", &log, "sql.resolve", ops);
    values.per_op("kickstart.skeleton_ns", &log, "kickstart.skeleton", ops);
    values.per_op("kickstart.localize_ns", &log, "kickstart.localize", ops);
    values.per_op("kickstart.render_ns", &log, "kickstart.render", ops);
    let cache = fe.svc.stats();
    let lookups = cache.hits() + cache.misses();
    values.set("kickstart.cache_hit_ratio", stats::ratio(cache.hits() as f64, lookups as f64));
    sql_ratios(&mut values, &registry.snapshot());
    let bytes: usize = expected.iter().map(String::len).sum();
    values.set("kickstart.bytes_per_file", stats::ratio(bytes as f64, expected.len() as f64));

    // The split path must equal the service's one-call path for every node.
    for (i, ip) in fe.ips.iter().enumerate() {
        let check = fetch(&fe.svc, &fe.db, ip).and_then(|text| verify_file(&expected, i, &text));
        if let Err(e) = check {
            out.fail(1, format!("one-call path: {e}"));
        }
    }
    values.finish(&mut out, &log, &untraced, &traced);
    out
}

/// One pass of the closed loop over every node in a fresh seeded order,
/// timed as one chunk. Traced when `log` is given.
fn pass(
    out: &mut Outcome,
    fe: &Frontend,
    expected: &[String],
    rng: &mut Rng,
    order: &mut [usize],
    mut log: Option<&mut SpanLog>,
    phase: &mut Phase,
) {
    rng.shuffle(order);
    let mut busy = 0;
    for &i in order.iter() {
        let ip = &fe.ips[i];
        let t = Instant::now();
        let served = match log.as_deref_mut() {
            None => fetch(&fe.svc, &fe.db, ip),
            Some(log) => {
                log.op("op.request", i as u64);
                let served = fetch_split(log, &fe.svc, &fe.db, ip);
                log.exit();
                served
            }
        };
        let ns = ns_since(t);
        busy += ns;
        phase.record(ns);
        out.attempted += 1;
        if let Err(e) = served.and_then(|text| verify_file(expected, i, &text)) {
            out.fail(1, e);
        }
    }
    phase.chunk(order.len() as u64, busy);
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: Size = Size { racks: 2, per_rack: 8 };

    #[test]
    fn macs_are_seeded_and_unique() {
        let macs: std::collections::BTreeSet<String> = (0..1024).map(|i| node_mac(5, i)).collect();
        assert_eq!(macs.len(), 1024);
        assert_eq!(node_mac(5, 3), node_mac(5, 3));
        assert_ne!(node_mac(5, 3), node_mac(6, 3));
    }

    #[test]
    fn gate_catches_a_corrupted_file() {
        let fe = provision(1, &TOY).unwrap();
        let expected = cold_files(&fe).unwrap();
        let served = fetch(&fe.svc, &fe.db, &fe.ips[3]).unwrap();
        assert!(verify_file(&expected, 3, &served).is_ok());
        let mut corrupted = served.into_bytes();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0x01;
        let corrupted = String::from_utf8(corrupted).unwrap();
        assert!(verify_file(&expected, 3, &corrupted).is_err());
        // Another node's (correct) file is wrong for this node.
        let other = fetch(&fe.svc, &fe.db, &fe.ips[4]).unwrap();
        assert!(verify_file(&expected, 3, &other).is_err());
    }
}
