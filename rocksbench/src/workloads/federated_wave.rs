//! `federated_wave`: a whole-cluster reinstall of 65,536 nodes through the
//! sharded, tiered netsim on two worker threads. The only workload that
//! runs the sharded engine and its thread exchange.

use super::{finish_end_to_end, LayerValues};
use crate::spans::SpanLog;
use crate::{alternate, ns_since, repeat_for, stats, Outcome, Phase, RunConfig};
use rocks_netsim::{FederatedSim, SimConfig, TierConfig};
use std::time::Instant;

/// Cluster size and worker threads.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Nodes reinstalled per wave.
    pub nodes: usize,
    /// Worker threads for the shard loop.
    pub threads: usize,
}

impl Size {
    /// 65,536 nodes on two threads.
    pub const FULL: Size = Size { nodes: 65_536, threads: 2 };
}

/// Timed set-ups before the first wave (each wave adds one more).
const SETUP_REPS: usize = 5;

/// Everything a wave's result must reproduce bit for bit at any thread
/// count: virtual completion time, completions, events and tier byte
/// totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Bits of the virtual seconds until the last node was up.
    pub total_seconds_bits: u64,
    /// Nodes that completed.
    pub completed: usize,
    /// Events processed.
    pub events: u64,
    /// Proxy hit/miss/fill byte counts.
    pub proxy_bytes: (u64, u64, u64),
    /// Bits of the proxy-serve, cabinet-fill and root-fill byte ledgers.
    pub ledger_bits: (u64, u64, u64),
}

/// What one wave produced.
#[derive(Debug, Clone)]
pub struct Wave {
    /// The bit-exact summary.
    pub fingerprint: Fingerprint,
    /// Proxy cache hits over requests.
    pub proxy_hit_ratio: f64,
}

/// The simulator configuration for `seed`.
pub fn sim_config(seed: u64) -> SimConfig {
    SimConfig::paper_testbed(seed).bundled(12).without_node_logs()
}

/// Build the starting state: the federation, every node powered off.
pub fn build(cfg: &SimConfig, size: &Size, threads: usize) -> FederatedSim {
    let mut sim = FederatedSim::new_tiered(cfg.clone(), TierConfig::standard(), size.nodes);
    sim.set_threads(threads);
    sim
}

/// Run one wave to quiescence and summarise it.
pub fn run_wave(sim: &mut FederatedSim) -> Result<Wave, String> {
    let result = sim.try_run_reinstall().map_err(|e| e.to_string())?;
    let tier = sim.tier_report().ok_or("a tiered federation has a tier report")?;
    Ok(Wave {
        fingerprint: Fingerprint {
            total_seconds_bits: result.total_seconds.to_bits(),
            completed: result.completed(),
            events: sim.events(),
            proxy_bytes: (tier.proxy_hit_bytes, tier.proxy_miss_bytes, tier.proxy_fill_bytes),
            ledger_bits: (
                tier.proxy_serve_bytes.to_bits(),
                tier.cabinet_fill_bytes.to_bits(),
                tier.root_fill_bytes.to_bits(),
            ),
        },
        proxy_hit_ratio: stats::ratio(
            tier.proxy_hits as f64,
            (tier.proxy_hits + tier.proxy_misses) as f64,
        ),
    })
}

/// Wave gate: every node completed, and the wave equals the reference
/// (the first wave, or the other thread count's) bit for bit.
pub fn verify_wave(size: &Size, wave: &Wave, reference: Option<&Wave>) -> Result<(), String> {
    if wave.fingerprint.completed != size.nodes {
        return Err(format!("{} of {} nodes completed", wave.fingerprint.completed, size.nodes));
    }
    if let Some(r) = reference {
        if r.fingerprint != wave.fingerprint {
            return Err(format!(
                "wave differs from the reference: {:?} vs {:?}",
                wave.fingerprint, r.fingerprint
            ));
        }
    }
    Ok(())
}

/// Run the workload.
pub fn run(cfg: &RunConfig, size: &Size) -> Outcome {
    let mut out = Outcome { threads: size.threads, ..Outcome::default() };
    let sim_cfg = sim_config(cfg.seed);
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let sim = build(&sim_cfg, size, size.threads);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(sim);
    }
    let mut reference = None;
    if !cfg.trace {
        let mut phase = Phase::default();
        repeat_for(cfg.seconds, 2, |rep| {
            wave(&mut out, &sim_cfg, size, rep, &mut setup_s, &mut reference, None, &mut phase)
        });
        serial_check(&mut out, &sim_cfg, size, reference.as_ref(), None);
        finish_end_to_end(&mut out, phase, &setup_s);
        return out;
    }
    let mut log = SpanLog::default();
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    alternate(cfg.seconds, 2, |rep, is_traced| {
        let (log, phase) =
            if is_traced { (Some(&mut log), &mut traced) } else { (None, &mut untraced) };
        wave(&mut out, &sim_cfg, size, rep, &mut setup_s, &mut reference, log, phase);
    });
    let t1_ns = serial_check(&mut out, &sim_cfg, size, reference.as_ref(), Some(&mut log));
    let mut values = LayerValues::default();
    let wave_s: Vec<f64> = traced.samples().iter().map(|&ns| ns as f64 / 1e9).collect();
    let t2_s = stats::median(&wave_s);
    if let Some(wave) = &reference {
        let events = wave.fingerprint.events as f64;
        values.set("netsim.events", events);
        values.set("netsim.events_per_s", stats::ratio(events, t2_s));
        values.set("netsim.proxy_hit_ratio", wave.proxy_hit_ratio);
    }
    values.set(
        "netsim.shard_efficiency",
        stats::ratio(t1_ns as f64 / 1e9, size.threads as f64 * t2_s),
    );
    values.finish(&mut out, &log, &untraced, &traced);
    out
}

/// One wave on a freshly built federation, timed as one chunk and one
/// latency sample. Traced when `log` is given.
#[allow(clippy::too_many_arguments)]
fn wave(
    out: &mut Outcome,
    sim_cfg: &SimConfig,
    size: &Size,
    rep: usize,
    setup_s: &mut Vec<f64>,
    reference: &mut Option<Wave>,
    log: Option<&mut SpanLog>,
    phase: &mut Phase,
) {
    let t = Instant::now();
    let mut sim = build(sim_cfg, size, size.threads);
    setup_s.push(t.elapsed().as_secs_f64());
    let t = Instant::now();
    let wave = match log {
        None => run_wave(&mut sim),
        Some(log) => {
            log.op("netsim.wave", rep as u64);
            let wave = run_wave(&mut sim);
            log.exit();
            wave
        }
    };
    let ns = ns_since(t);
    out.attempted += size.nodes as u64;
    phase.record(ns);
    phase.chunk(size.nodes as u64, ns);
    match wave.and_then(|w| verify_wave(size, &w, reference.as_ref()).map(|()| w)) {
        Ok(w) => {
            reference.get_or_insert(w);
        }
        Err(e) => out.fail(size.nodes as u64, format!("wave {rep}: {e}")),
    }
}

/// The thread-count gate: one more wave on a single thread must equal the
/// multi-threaded reference bit for bit. Returns its wall time in ns; traced,
/// it is a probe span, outside the traced total.
fn serial_check(
    out: &mut Outcome,
    sim_cfg: &SimConfig,
    size: &Size,
    reference: Option<&Wave>,
    log: Option<&mut SpanLog>,
) -> u64 {
    let mut sim = build(sim_cfg, size, 1);
    let t = Instant::now();
    let wave = match log {
        None => run_wave(&mut sim),
        Some(log) => {
            log.probe("netsim.wave_1thread", 0);
            let wave = run_wave(&mut sim);
            log.exit();
            wave
        }
    };
    let ns = ns_since(t);
    out.attempted += size.nodes as u64;
    let check = match reference {
        Some(r) => wave.and_then(|w| verify_wave(size, &w, Some(r))),
        None => Err("no multi-threaded wave to compare against".into()),
    };
    if let Err(e) = check {
        out.fail(size.nodes as u64, format!("1-thread wave: {e}"));
    }
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: Size = Size { nodes: 512, threads: 2 };

    #[test]
    fn thread_counts_agree_and_the_gate_catches_drift() {
        let cfg = sim_config(1);
        let two = run_wave(&mut build(&cfg, &TOY, 2)).unwrap();
        let one = run_wave(&mut build(&cfg, &TOY, 1)).unwrap();
        verify_wave(&TOY, &two, None).unwrap();
        verify_wave(&TOY, &one, Some(&two)).unwrap();

        let mut minutes = one.clone();
        minutes.fingerprint.total_seconds_bits += 1;
        assert!(verify_wave(&TOY, &minutes, Some(&two)).is_err());
        let mut bytes = one.clone();
        bytes.fingerprint.ledger_bits.2 ^= 1;
        assert!(verify_wave(&TOY, &bytes, Some(&two)).is_err());
        let mut short = one;
        short.fingerprint.completed -= 1;
        assert!(verify_wave(&TOY, &short, None).is_err());
    }
}
