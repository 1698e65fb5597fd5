//! Wall-clock spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A span's name is `layer.what`. Root spans are either *operations* (the
//! unit a workload's `ops_per_s` counts) or *probes* (extra diagnostic calls
//! the traced run makes between operations). A span's self time is its
//! duration minus the time its child spans cover; self times are summed per
//! name, separately for operation and probe trees, so probes never inflate
//! the traced total. Spans are kept in memory (the first
//! [`SpanLog::RETAIN`] of them) and written out once, at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layers a span may be attributed to, named after the crates.
pub const LAYERS: [&str; 5] = ["sql", "db", "kickstart", "netsim", "pbs"];

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// `layer.what`.
    pub name: &'static str,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    /// Nanoseconds since the log was created.
    pub end_ns: u64,
    /// Index of the parent span in the retained list.
    pub parent: Option<u32>,
    /// Request, node or rollout id the span belongs to.
    pub op: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
}

#[derive(Debug)]
struct Open {
    slot: usize,
    start_ns: u64,
    child_ns: u64,
    op: u64,
    retained: Option<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tree {
    Op,
    Probe,
}

/// Per-name totals.
#[derive(Debug)]
struct NameStat {
    name: &'static str,
    op_self_ns: u64,
    probe_self_ns: u64,
    calls: u64,
}

/// In-memory span recorder for one traced phase.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    stack: Vec<Open>,
    tree: Tree,
    spans: Vec<SpanRecord>,
    names: Vec<NameStat>,
    op_total_ns: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            stack: Vec::new(),
            tree: Tree::Op,
            spans: Vec::new(),
            names: Vec::new(),
            op_total_ns: 0,
        }
    }
}

impl SpanLog {
    /// Spans kept for the dump; self times are accumulated for all spans.
    pub const RETAIN: usize = 200_000;

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Index of `name` in the totals table. Names are string literals, so
    /// a pointer comparison almost always settles it.
    fn slot(&mut self, name: &'static str) -> usize {
        let same = |n: &NameStat| std::ptr::eq(n.name, name) || n.name == name;
        match self.names.iter().position(same) {
            Some(i) => i,
            None => {
                self.names.push(NameStat { name, op_self_ns: 0, probe_self_ns: 0, calls: 0 });
                self.names.len() - 1
            }
        }
    }

    fn stat(&self, name: &str) -> Option<&NameStat> {
        self.names.iter().find(|n| n.name == name)
    }

    fn open(&mut self, name: &'static str, op: u64) {
        let slot = self.slot(name);
        let parent = self.stack.last().and_then(|o| o.retained);
        let retained = (self.spans.len() < Self::RETAIN).then(|| {
            self.spans.push(SpanRecord { name, start_ns: 0, end_ns: 0, parent, op, self_ns: 0 });
            (self.spans.len() - 1) as u32
        });
        // The clock is read last on the way in and first on the way out, so
        // the bookkeeping falls between spans, not inside them.
        let start_ns = self.now_ns();
        self.stack.push(Open { slot, start_ns, child_ns: 0, op, retained });
    }

    /// Start a root span for one operation.
    pub fn op(&mut self, name: &'static str, id: u64) {
        assert!(self.stack.is_empty(), "operation span opened inside another span");
        self.tree = Tree::Op;
        self.open(name, id);
    }

    /// Start a root span for a diagnostic call made between operations.
    pub fn probe(&mut self, name: &'static str, id: u64) {
        assert!(self.stack.is_empty(), "probe span opened inside another span");
        self.tree = Tree::Probe;
        self.open(name, id);
    }

    /// Start a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let op = self.stack.last().expect("child span needs an open parent").op;
        self.open(name, op);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without an open span");
        let dur = end_ns - open.start_ns;
        let self_ns = dur.saturating_sub(open.child_ns);
        if let Some(i) = open.retained {
            let rec = &mut self.spans[i as usize];
            rec.start_ns = open.start_ns;
            rec.end_ns = end_ns;
            rec.self_ns = self_ns;
        }
        let stat = &mut self.names[open.slot];
        stat.calls += 1;
        match self.tree {
            Tree::Op => stat.op_self_ns += self_ns,
            Tree::Probe => stat.probe_self_ns += self_ns,
        }
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None if self.tree == Tree::Op => self.op_total_ns += dur,
            None => {}
        }
    }

    /// Time `f` as a child span.
    pub fn child<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Summed duration of all operation root spans.
    pub fn op_total_ns(&self) -> u64 {
        self.op_total_ns
    }

    /// Self time of `name` summed over operation trees.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.stat(name).map_or(0, |n| n.op_self_ns)
    }

    /// Self time of `name` summed over probe trees.
    pub fn probe_ns(&self, name: &str) -> u64 {
        self.stat(name).map_or(0, |n| n.probe_self_ns)
    }

    /// Times a span named `name` closed (operation and probe trees).
    pub fn calls(&self, name: &str) -> u64 {
        self.stat(name).map_or(0, |n| n.calls)
    }

    /// Operation-tree self time per layer, over [`LAYERS`].
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = LAYERS.iter().map(|l| (*l, 0)).collect();
        for n in &self.names {
            let layer = n.name.split('.').next().unwrap_or("");
            if let Some(total) = out.get_mut(layer) {
                *total += n.op_self_ns;
            }
        }
        out
    }

    /// Share of the traced total that the layers' self times account for.
    /// The rest is the benchmark's own glue inside operation spans.
    pub fn attributed_frac(&self) -> f64 {
        let layers: u64 = self.layer_self_ns().values().sum();
        crate::stats::ratio(layers as f64, self.op_total_ns as f64)
    }

    /// The retained spans.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Tab-separated dump of the retained spans, one per line.
    pub fn dump_tsv(&self) -> String {
        let mut out = String::from("span\tparent\tname\top\tstart_ns\tend_ns\tself_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns, s.self_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut log = SpanLog::default();
        log.op("pbs.rollout", 7);
        spin(200_000);
        log.child("netsim.install_leg", || spin(300_000));
        log.enter("pbs.invariant");
        log.child("sql.inner", || spin(100_000));
        log.exit();
        log.exit();

        let spans = log.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.op == 7));
        // Recompute every span's self time from the retained records.
        for (i, s) in spans.iter().enumerate() {
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(i as u32))
                .map(|c| c.end_ns - c.start_ns)
                .sum();
            assert_eq!(s.self_ns, s.end_ns - s.start_ns - children, "span {i}");
        }
        let total = log.op_total_ns();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
        let layers: u64 = log.layer_self_ns().values().sum();
        assert_eq!(layers, total, "every span here belongs to a layer");
        assert_eq!(log.attributed_frac(), 1.0);
        assert!(log.self_ns("netsim.install_leg") >= 300_000);
    }

    #[test]
    fn probes_stay_out_of_the_total() {
        let mut log = SpanLog::default();
        log.op("op.request", 1);
        log.child("kickstart.render", || spin(50_000));
        log.exit();
        let total = log.op_total_ns();
        log.probe("db.reports", 1);
        spin(100_000);
        log.exit();
        assert_eq!(log.op_total_ns(), total);
        assert_eq!(log.self_ns("db.reports"), 0);
        assert!(log.probe_ns("db.reports") >= 100_000);
        // The glue span `op.request` is not a layer.
        assert!(log.attributed_frac() < 1.0);
        assert_eq!(log.calls("kickstart.render"), 1);
        let tsv = log.dump_tsv();
        assert_eq!(tsv.lines().count(), 4);
        assert!(tsv.lines().nth(2).unwrap().contains("\tkickstart.render\t1\t"));
    }
}
