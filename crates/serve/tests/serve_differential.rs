//! Differential suite: the serving frontend is a scheduler, not a
//! rewriter. Every response it hands back must be byte-identical to
//! calling the backing service directly, and the timing-model backend
//! must reproduce the real backend's schedule exactly.

use rocks_db::insert_ethers::{register_frontend, DhcpRequest, InsertEthers};
use rocks_db::ClusterDb;
use rocks_kickstart::profiles::default_profiles;
use rocks_kickstart::{GenerationService, KickstartGenerator};
use rocks_rpm::Arch;
use rocks_serve::{
    default_report_queries, fnv64, run_serve, Arrivals, ModelBackend, Outcome, RealBackend,
    ServeBackend, ServeConfig, ServeFault, Workload,
};
use rocks_trace::Tracer;

fn cluster(computes: usize) -> ClusterDb {
    let mut db = ClusterDb::new();
    register_frontend(&mut db, "00:30:c1:d8:ac:80", "frontend-0").unwrap();
    let mut s = InsertEthers::start(&mut db, "Compute", 0).unwrap();
    for i in 0..computes {
        s.observe(&DhcpRequest { mac: format!("00:50:8b:e0:{:02x}:{:02x}", i / 256, i % 256) })
            .unwrap();
    }
    db
}

fn service() -> GenerationService {
    GenerationService::new(KickstartGenerator::new(
        default_profiles(),
        "10.1.1.1",
        "install/rocks-dist",
    ))
}

fn mixed_workload(seed: u64) -> Workload {
    Workload {
        seed,
        arrivals: Arrivals::Closed { clients: 12, think_us: 150 },
        horizon_us: 25_000,
        report_permille: 350,
        faults: vec![ServeFault::CacheStorm { at_us: 12_000 }],
    }
}

/// Every body the frontend returned equals a direct call against the
/// same (post-run) service and database — the frontend adds scheduling,
/// never content.
#[test]
fn frontend_responses_match_direct_calls_byte_for_byte() {
    let db = cluster(6);
    let svc = service();
    let cfg = ServeConfig {
        shards: 2,
        workers_per_shard: 2,
        keep_bodies: true,
        ..ServeConfig::default()
    };
    let mut backend = RealBackend::new(&svc, &db, Arch::I686).unwrap();
    let targets = backend.targets().to_vec();
    let queries = default_report_queries();

    let (report, log) = run_serve(&cfg, &mixed_workload(41), &mut backend, &Tracer::disabled());
    assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    assert!(report.install_completed > 0 && report.report_completed > 0);

    let mut checked_installs = 0u64;
    let mut checked_reports = 0u64;
    for r in log.iter().filter(|r| r.outcome == Outcome::Completed) {
        let body = r.body.as_deref().expect("keep_bodies run must keep bodies");
        assert_eq!(r.body_fnv, fnv64(body.as_bytes()), "body hash drifted for request {}", r.id);
        if r.install {
            let target = &targets[r.key % targets.len()];
            let direct = svc.generate_for_request(&db, &target.ip, Arch::I686).unwrap();
            assert_eq!(body, direct.render(), "kickstart body diverged for {}", target.name);
            checked_installs += 1;
        } else {
            let sql = &queries[r.key % queries.len()];
            let direct = db.sql_ref().query(sql).unwrap();
            assert_eq!(body, direct.render_ascii(), "report body diverged for {sql}");
            checked_reports += 1;
        }
    }
    assert_eq!(checked_installs, report.install_completed);
    assert_eq!(checked_reports, report.report_completed);
}

/// The model backend mirrors the real backend's cache behaviour, so the
/// two produce the *same schedule*: every timing-derived field of the
/// report agrees (fingerprints legitimately differ — the model renders
/// no bodies).
#[test]
fn model_matches_real_backend_timing() {
    let cfg = ServeConfig { shards: 4, workers_per_shard: 2, ..ServeConfig::default() };
    for seed in [3u64, 19, 64] {
        // Fresh database per seed: the plan cache lives in the db, so a
        // shared one would carry warmth between runs the model can't see.
        let db = cluster(8);
        let wl = Workload {
            seed,
            arrivals: Arrivals::Open { rate_rps: 90_000.0, retry_shed: true },
            horizon_us: 30_000,
            report_permille: 300,
            faults: vec![ServeFault::CacheStorm { at_us: 15_000 }],
        };

        let svc = service();
        let mut real = RealBackend::new(&svc, &db, Arch::I686).unwrap();
        let mut model = ModelBackend::with_roots(real.target_roots(), real.n_queries());
        let (mut real_report, real_log) = run_serve(&cfg, &wl, &mut real, &Tracer::disabled());
        let (mut model_report, model_log) = run_serve(&cfg, &wl, &mut model, &Tracer::disabled());

        assert!(real_report.violations.is_empty(), "violations: {:?}", real_report.violations);
        // Bodies (and therefore fingerprints) are the one legitimate
        // difference; neutralize them and require exact agreement.
        real_report.fingerprint = 0;
        model_report.fingerprint = 0;
        assert_eq!(real_report, model_report, "seed {seed}: schedules diverged");

        assert_eq!(real_log.len(), model_log.len());
        for (a, b) in real_log.iter().zip(model_log.iter()) {
            assert_eq!(
                (a.id, a.install, a.key, a.arrival_us, a.dispatch_us, a.complete_us, a.hit),
                (b.id, b.install, b.key, b.arrival_us, b.dispatch_us, b.complete_us, b.hit),
                "seed {seed}: request {} timeline diverged",
                a.id
            );
        }
    }
}

/// A dist-rebuild storm mid-run forces the real skeleton cache cold:
/// misses rise relative to the same run without the storm, and the
/// post-storm responses still match direct generation.
#[test]
fn cache_storm_behaves_like_a_real_dist_rebuild() {
    let cfg = ServeConfig { shards: 2, workers_per_shard: 2, ..ServeConfig::default() };
    let calm = Workload { faults: Vec::new(), ..mixed_workload(9) };
    let stormy = mixed_workload(9);

    // Independent db per run: the plan cache is part of the database,
    // and the comparison needs both runs to start equally cold.
    let calm_db = cluster(4);
    let calm_svc = service();
    let mut calm_backend = RealBackend::new(&calm_svc, &calm_db, Arch::I686).unwrap();
    let (calm_report, _) = run_serve(&cfg, &calm, &mut calm_backend, &Tracer::disabled());

    let storm_db = cluster(4);
    let storm_svc = service();
    let mut storm_backend = RealBackend::new(&storm_svc, &storm_db, Arch::I686).unwrap();
    let (storm_report, _) = run_serve(&cfg, &stormy, &mut storm_backend, &Tracer::disabled());

    assert!(
        storm_report.backend_misses > calm_report.backend_misses,
        "storm {} vs calm {}: the rebuild must force skeleton misses",
        storm_report.backend_misses,
        calm_report.backend_misses
    );
    // The service observed the storm as a dist-epoch invalidation.
    assert!(storm_svc.stats().invalidations() > 0);
}
