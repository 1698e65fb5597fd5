//! The four workloads and the pieces they share.

pub mod federated_wave;
pub mod integrate;
pub mod ks_storm;
pub mod rolling_reinstall;

use crate::spans::SpanLog;
use crate::{stats, Metric, Outcome, Phase, RunConfig};
use rocks_db::ClusterDb;
use rocks_kickstart::GenerationService;
use rocks_rpm::Arch;

/// Architecture every node kickstarts as (the paper's Pentium III testbed).
pub const ARCH: Arch = Arch::I686;
/// The frontend's private address, baked into every kickstart file.
pub const FRONTEND_IP: &str = "10.1.1.1";
/// Distribution path under the frontend's web root.
pub const DIST_PATH: &str = "install/rocks-dist";
/// The frontend's own MAC.
pub const FRONTEND_MAC: &str = "00:30:c1:d8:ac:80";

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop kickstart requests against a provisioned frontend.
    KsStorm,
    /// insert-ethers cabinet walk, each node fetching its first kickstart.
    Integrate,
    /// PBS rolling reinstall under live job load.
    RollingReinstall,
    /// Whole-cluster reinstall through the sharded federated netsim.
    FederatedWave,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists all but `ks_storm`, which runs
    /// on request only (see the README).
    pub const ALL: [Workload; 4] = [
        Workload::KsStorm,
        Workload::Integrate,
        Workload::RollingReinstall,
        Workload::FederatedWave,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KsStorm => "ks_storm",
            Workload::Integrate => "integrate",
            Workload::RollingReinstall => "rolling_reinstall",
            Workload::FederatedWave => "federated_wave",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run at full size.
    pub fn run(self, cfg: &RunConfig) -> Outcome {
        match self {
            Workload::KsStorm => ks_storm::run(cfg, &ks_storm::Size::FULL),
            Workload::Integrate => integrate::run(cfg, &integrate::Size::FULL),
            Workload::RollingReinstall => {
                rolling_reinstall::run(cfg, &rolling_reinstall::Size::FULL)
            }
            Workload::FederatedWave => federated_wave::run(cfg, &federated_wave::Size::FULL),
        }
    }
}

/// End-to-end metric names and units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p95_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metric names and units, in `BENCHMARK.json` order. Every
/// traced run reports all of them; a layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("sql.resolve_ns", "ns"),
    ("kickstart.skeleton_ns", "ns"),
    ("kickstart.localize_ns", "ns"),
    ("kickstart.render_ns", "ns"),
    ("kickstart.cache_hit_ratio", "ratio"),
    ("sql.plan_cache_hit_ratio", "ratio"),
    ("sql.rows_examined_per_returned", "ratio"),
    ("kickstart.bytes_per_file", "bytes"),
    ("db.session_ns", "ns"),
    ("db.observe_ns", "ns"),
    ("db.reports_ns", "ns"),
    ("db.used_ips_ns", "ns"),
    ("sql.scan_share", "ratio"),
    ("sql.wal_bytes_per_node", "bytes"),
    ("sql.fsyncs_per_node", "count"),
    ("sql.checkpoints", "count"),
    ("sql.checkpoint_pages", "count"),
    ("netsim.install_leg_ns", "ns"),
    ("pbs.invariant_ns", "ns"),
    ("pbs.events", "count"),
    ("pbs.orchestrator_ns", "ns"),
    ("pbs.jobs_completed", "count"),
    ("netsim.events", "count"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.shard_efficiency", "ratio"),
    ("netsim.proxy_hit_ratio", "ratio"),
    ("trace.overhead_frac", "frac"),
    ("trace.attributed_frac", "frac"),
];

/// Largest allowed gap between the layers' summed self times and the
/// traced total.
pub const ATTRIBUTION_TOLERANCE: f64 = 0.05;

/// Per-layer values a traced run measured; every other per-layer metric
/// is reported as 0.
#[derive(Debug, Default)]
pub struct LayerValues(Vec<(&'static str, f64)>);

impl LayerValues {
    /// Set `name`, which must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// Self time of span `name` per operation.
    pub fn per_op(&mut self, metric: &'static str, log: &SpanLog, span: &str, ops: u64) {
        self.set(metric, stats::ratio(log.self_ns(span) as f64, ops as f64));
    }

    /// Finish a traced run: the attribution gate, the tracing overhead,
    /// and every per-layer metric in order.
    pub fn finish(mut self, out: &mut Outcome, log: &SpanLog, untraced: &Phase, traced: &Phase) {
        let attributed = log.attributed_frac();
        if (attributed - 1.0).abs() > ATTRIBUTION_TOLERANCE {
            out.fail(
                1,
                format!(
                    "layer self times cover {:.1}% of the traced total, outside ±{:.0}%",
                    attributed * 100.0,
                    ATTRIBUTION_TOLERANCE * 100.0
                ),
            );
        }
        self.set("trace.attributed_frac", attributed);
        let ratio = stats::ratio(traced.ops_per_s(), untraced.ops_per_s());
        self.set("trace.overhead_frac", 1.0 - ratio);
        out.chunk_rates.extend(untraced.chunk_rates());
        out.chunk_rates.extend(traced.chunk_rates());
        for (name, unit) in PER_LAYER {
            let value = self.0.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
            out.metrics.push(Metric { name, value, unit });
        }
        out.spans_tsv = Some(log.dump_tsv());
    }
}

/// Report the end-to-end metrics of an untraced run.
pub fn finish_end_to_end(out: &mut Outcome, phase: Phase, setup_s: &[f64]) {
    out.chunk_rates.extend(phase.chunk_rates());
    let (p50, p95) = phase.p50_p95_ns();
    out.metric("ops_per_s", phase.ops_per_s(), "1/s");
    out.metric("p50_us", p50 / 1e3, "us");
    out.metric("p95_us", p95 / 1e3, "us");
    out.metric("setup_s", stats::median(setup_s), "s");
    out.metric("peak_rss_mb", crate::peak_rss_mb().unwrap_or(0.0), "MiB");
}

/// The kickstart CGI path split into the public calls of each layer, each
/// in its own span under the caller's open operation span: SQL resolution,
/// the (cached) appliance skeleton, clone + localisation, and rendering.
pub fn fetch_split(
    log: &mut SpanLog,
    svc: &GenerationService,
    db: &ClusterDb,
    ip: &str,
) -> Result<String, String> {
    let generator = svc.generator();
    // Every temporary moves into the span that consumes it, so its drop is
    // charged to that layer rather than to the benchmark.
    let (root, node, membership) = log
        .child("sql.resolve", || generator.resolve_request(db, ip))
        .map_err(|e| e.to_string())?;
    let skeleton = log
        .child("kickstart.skeleton", move || svc.appliance_profile(db, &root, ARCH))
        .map_err(|e| e.to_string())?;
    let ks = log
        .child("kickstart.localize", move || {
            let mut ks = (*skeleton).clone();
            drop(skeleton);
            generator.localize(&mut ks, db, &node.name, &membership.name).map(|()| ks)
        })
        .map_err(|e| e.to_string())?;
    Ok(log.child("kickstart.render", move || ks.render()))
}

/// The same request through the service's one-call entry point.
pub fn fetch(svc: &GenerationService, db: &ClusterDb, ip: &str) -> Result<String, String> {
    svc.generate_for_request(db, ip, ARCH).map(|ks| ks.render()).map_err(|e| e.to_string())
}

/// SQL planner/executor ratios from a registry the database reported into.
pub fn sql_ratios(values: &mut LayerValues, snap: &rocks_trace::Snapshot) {
    let hits = snap.counter("sql.plan.cache_hits") as f64;
    let misses = snap.counter("sql.plan.cache_misses") as f64;
    values.set("sql.plan_cache_hit_ratio", stats::ratio(hits, hits + misses));
    values.set(
        "sql.rows_examined_per_returned",
        stats::ratio(
            snap.counter("sql.rows.examined") as f64,
            snap.counter("sql.rows.returned") as f64,
        ),
    );
}
