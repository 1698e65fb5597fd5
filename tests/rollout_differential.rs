//! Differential tests: a rollout with zero competing jobs is just a
//! mass reinstall, so it must agree with the mass paths — the same set
//! of nodes reinstalled, the same per-node byte totals the netsim install
//! servers shipped, and an end time of exactly one fixed-cost leg — plus
//! a golden-trace check that the orchestrator's telemetry is
//! byte-identical run over run.

use rocks::netsim::{ClusterSim, NetsimInstallBackend, SimConfig};
use rocks::pbs::{
    run_rollout, standard_rollout_invariants, FixedInstall, PbsServer, RolloutConfig,
    RolloutOutcome,
};
use rocks::trace::Tracer;

fn server(n: usize) -> PbsServer {
    let mut s = PbsServer::new();
    for i in 0..n {
        s.add_node(&format!("compute-0-{i}"));
    }
    s
}

fn quiet_rollout(n: usize, tracer: &Tracer) -> RolloutOutcome {
    let cfg = SimConfig::paper_testbed(1).bundled(12);
    let mut s = server(n);
    let mut backend = NetsimInstallBackend::new(cfg);
    let out = run_rollout(
        &mut s,
        &mut backend,
        &RolloutConfig::mass(n),
        &[],
        &[],
        &mut standard_rollout_invariants(1e9),
        tracer,
    )
    .expect("quiet rollout completes");
    assert!(out.violations.is_empty(), "{:#?}", out.violations);
    out
}

#[test]
fn zero_job_rollout_matches_netsim_mass_bytes() {
    let n = 16;
    let cfg = SimConfig::paper_testbed(1).bundled(12);

    // The existing mass path: all n nodes reinstall simultaneously.
    let mass = ClusterSim::new(cfg.clone(), n).run_reinstall();
    let mass_total: f64 = mass.server_bytes.iter().sum();
    let per_node_mass = (mass_total / n as f64) as u64;

    let out = quiet_rollout(n, &Tracer::disabled());

    // Same node set, exactly once each.
    let mut rolled = out.report.reinstalled.clone();
    rolled.sort();
    assert_eq!(rolled, server(n).node_names());
    assert!(out.report.install_counts.values().all(|&c| c == 1));

    // Same per-node byte totals as the mass path. With no jobs and full
    // capacity every leg starts at t=0, so the widest (n-way) calibration
    // governs the last leg and the bytes are the mass run's even share.
    let wide_legs = out.report.per_node_bytes.values().filter(|&&b| b == per_node_mass).count();
    assert!(
        wide_legs >= 1,
        "no leg carries the n-wide byte share {per_node_mass}: {:?}",
        out.report.per_node_bytes
    );
    // And the n-wide leg's duration is the mass run's makespan, which
    // bounds the rollout makespan from below.
    assert!(
        out.report.makespan_seconds >= mass.total_seconds - 1e-6,
        "rollout {} finished before the mass path {}",
        out.report.makespan_seconds,
        mass.total_seconds
    );

    // Total bytes agree with what the mass install servers shipped,
    // within per-leg rounding (each of the n legs truncates to u64).
    let widest: f64 = out.report.total_bytes as f64;
    let relative = (widest - mass_total).abs() / mass_total;
    assert!(
        relative < 0.05,
        "rollout shipped {widest} bytes vs mass {mass_total} ({relative:.4} off)"
    );
}

#[test]
fn zero_job_rollout_matches_roll_cluster_end_time() {
    // The fixed-duration mass roll (the §5 upgrade's model): every node
    // installs at once, so the roll ends after exactly one leg and
    // reinstalls every node.
    let n = 12;
    let mut s = server(n);
    let mut backend = FixedInstall { seconds: 480.0, bytes: 7 };
    let out = run_rollout(
        &mut s,
        &mut backend,
        &RolloutConfig::mass(n),
        &[],
        &[],
        &mut standard_rollout_invariants(1e9),
        &Tracer::disabled(),
    )
    .unwrap();
    assert!(out.violations.is_empty());
    assert!((out.report.makespan_seconds - 480.0).abs() < 1e-6);
    let mut rolled = out.report.reinstalled;
    rolled.sort();
    assert_eq!(rolled, s.node_names());
}

#[test]
fn rollout_traces_are_golden() {
    // Two identical rollouts emit byte-identical normalized trace dumps,
    // and the byte counter agrees with the report.
    let run = || {
        let tracer = Tracer::ring_sim(1 << 16);
        let out = quiet_rollout(8, &tracer);
        let snap = tracer.registry().expect("ring tracer").snapshot();
        assert_eq!(snap.counter("rollout.bytes.total"), out.report.total_bytes);
        assert_eq!(snap.counter("rollout.readmitted"), 8);
        (tracer.dump().normalized(1000), out.report.total_bytes)
    };
    let (dump_a, bytes_a) = run();
    let (dump_b, bytes_b) = run();
    assert_eq!(bytes_a, bytes_b);
    assert_eq!(dump_a, dump_b, "rollout trace is not deterministic");
}
