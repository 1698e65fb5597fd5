//! The rocks-rs benchmark: four workloads over the repository's wall-clock
//! paths (see `README.md` in this directory for the metric table and the
//! layer → end-to-end map).
//!
//! Each workload builds its starting state (timed as `setup_s`), runs a
//! measured phase for a given number of seconds, and checks its outputs.
//! With tracing off it reports the end-to-end metrics; the traced run times
//! each layer's public calls with [`spans::SpanLog`] and reads the counters
//! the layers keep in their [`rocks_trace::Registry`].

pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::time::Instant;

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Report per-layer metrics from a traced phase instead of the
    /// end-to-end ones.
    pub trace: bool,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (measured phase, traced phase included).
    pub attempted: u64,
    /// Operations that errored or failed a correctness check.
    pub failed: u64,
    /// Worker threads the measured work used.
    pub threads: usize,
    /// Every failed check, described.
    pub gate_failures: Vec<String>,
    /// End-to-end or per-layer metrics, depending on the run.
    pub metrics: Vec<Metric>,
    /// Span dump of the traced phase.
    pub spans_tsv: Option<String>,
    /// Per-chunk throughput of every measured phase, in run order.
    pub chunk_rates: Vec<f64>,
}

impl Outcome {
    /// Record a failed check that spoiled `ops` operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.gate_failures.push(why);
    }

    /// Append a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// True when every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gate_failures.is_empty()
    }
}

/// Timing of a measured phase: per-operation latencies plus per-chunk busy
/// time. `ops_per_s` is the median over chunks of operations per second of
/// time spent inside operations, so the benchmark's own checks between
/// operations never count against the system. Latency quantiles are taken
/// per chunk too, and their median reported, when every chunk is large
/// enough for ten samples to lie beyond its 95th percentile; otherwise they
/// come from all samples pooled. Medians over chunks keep a burst of
/// interference on a shared host from moving the result.
#[derive(Debug, Default)]
pub struct Phase {
    pooled: stats::Reservoir,
    current: Vec<u64>,
    chunk_rates: Vec<f64>,
    chunk_p50: Vec<f64>,
    chunk_p95: Vec<Option<f64>>,
}

impl Phase {
    /// Record one operation's latency.
    pub fn record(&mut self, ns: u64) {
        self.pooled.push(ns);
        self.current.push(ns);
    }

    /// Close a chunk of `ops` operations that were busy for `busy_ns`.
    pub fn chunk(&mut self, ops: u64, busy_ns: u64) {
        if busy_ns > 0 {
            self.chunk_rates.push(ops as f64 * 1e9 / busy_ns as f64);
        }
        self.current.sort_unstable();
        if let Some(p50) = stats::quantile_sorted(&self.current, 0.5) {
            self.chunk_p50.push(p50 as f64);
            self.chunk_p95.push(stats::tail_quantile(&self.current, 0.95).map(|v| v as f64));
        }
        self.current.clear();
    }

    /// Median per-chunk throughput.
    pub fn ops_per_s(&self) -> f64 {
        stats::median(&self.chunk_rates)
    }

    /// Per-chunk throughput, in run order.
    pub fn chunk_rates(&self) -> &[f64] {
        &self.chunk_rates
    }

    /// Median and 95th-percentile latency in nanoseconds. When even the
    /// pooled sample is too small for ten samples to lie beyond its 95th
    /// percentile, no tail percentile is supported and the median stands in.
    pub fn p50_p95_ns(&self) -> (f64, f64) {
        let per_chunk: Option<Vec<f64>> = self.chunk_p95.iter().copied().collect();
        match per_chunk {
            Some(p95) if !p95.is_empty() => (stats::median(&self.chunk_p50), stats::median(&p95)),
            _ => {
                let all = self.pooled.sorted();
                let p50 = stats::quantile_sorted(&all, 0.5).unwrap_or(0);
                let p95 = stats::tail_quantile(&all, 0.95).unwrap_or(p50);
                (p50 as f64, p95 as f64)
            }
        }
    }

    /// The pooled latency sample, in no particular order.
    pub fn samples(&self) -> &[u64] {
        self.pooled.samples()
    }
}

/// Run `f` until `seconds` have passed and it has run at least `min_reps`
/// times. `f` gets the repetition index.
pub fn repeat_for(seconds: f64, min_reps: usize, mut f: impl FnMut(usize)) {
    let start = Instant::now();
    let mut rep = 0;
    while rep < min_reps || start.elapsed().as_secs_f64() < seconds {
        f(rep);
        rep += 1;
    }
}

/// Alternate untraced and traced repetitions for `seconds`, at least
/// `min_each` of each, so a drift in the host's speed during the run lands on
/// both alike. `f` gets the repetition's index among its kind and whether it
/// is traced.
pub fn alternate(seconds: f64, min_each: usize, mut f: impl FnMut(usize, bool)) {
    repeat_for(seconds, 2 * min_each, |rep| f(rep / 2, rep % 2 == 1));
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// SplitMix64: a tiny, seedable generator so inputs depend only on the
/// seed and this file.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted per use so streams differ.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cores this host offers.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_uniform_enough() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(3, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(3, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(3, 2).next_u64(), a[0]);
        let mut r = Rng::new(9, 0);
        let mean = (0..10_000).map(|_| r.unit()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "{mean}");
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }

    #[test]
    fn phase_reports_median_chunk_rate() {
        let mut p = Phase::default();
        p.chunk(100, 1_000_000_000);
        p.chunk(300, 1_000_000_000);
        p.chunk(200, 1_000_000_000);
        p.chunk(5, 0);
        assert_eq!(p.chunk_rates().len(), 3);
        assert_eq!(p.ops_per_s(), 200.0);
    }

    #[test]
    fn latency_quantiles_are_per_chunk_when_chunks_are_large() {
        let mut p = Phase::default();
        for chunk in 0..3u64 {
            for v in 1..=1000 {
                p.record(v * (chunk + 1));
            }
            p.chunk(1000, 1_000_000);
        }
        // Chunk medians 500, 1000, 1500; chunk p95s 950, 1900, 2850.
        assert_eq!(p.p50_p95_ns(), (1000.0, 1900.0));
        // A chunk too small for its p95 switches to the pooled sample.
        p.record(5);
        p.chunk(1, 1);
        let (p50, p95) = p.p50_p95_ns();
        let mut all: Vec<u64> = p.samples().to_vec();
        all.sort_unstable();
        assert_eq!(p50, stats::quantile_sorted(&all, 0.5).unwrap() as f64);
        assert_eq!(p95, stats::tail_quantile(&all, 0.95).unwrap() as f64);
    }

    #[test]
    fn too_few_samples_for_a_tail_report_the_median() {
        let mut p = Phase::default();
        for v in [30, 10, 20] {
            p.record(v);
            p.chunk(1, v);
        }
        assert_eq!(p.p50_p95_ns(), (20.0, 20.0));
    }

    #[test]
    fn repeat_for_honours_the_minimum() {
        let mut n = 0;
        repeat_for(0.0, 3, |_| n += 1);
        assert_eq!(n, 3);
        let mut seen = Vec::new();
        alternate(0.0, 2, |i, traced| seen.push((i, traced)));
        assert_eq!(seen, [(0, false), (0, true), (1, false), (1, true)]);
    }
}
