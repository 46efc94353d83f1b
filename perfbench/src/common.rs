//! Shared pieces of the benchmark: seeded randomness, order statistics,
//! the span tracer, snapshot paths, memory readings and the result type.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use selprop_datalog::db::Relation;

/// Where snapshots and trace files go, relative to the checkout root.
pub const OUT_DIR: &str = "perfbench/out";

/// SplitMix64: a small, dependency-free generator. Every input of a run
/// is derived from the `--seed` argument through one of these.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf-like sampler over ranks `0..n` with exponent `s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `v`; 0 if empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `query_p99_us`: the median, over consecutive windows of `window`
/// samples (in the order they were taken), of each window's 99th
/// percentile. A burst of host noise then moves a few windows, not the
/// run's figure. `window` must leave at least ten samples beyond the
/// 99th percentile (1,000 or more).
pub fn window_p99(v: &[f64], window: usize) -> f64 {
    let p99: Vec<f64> = v
        .chunks_exact(window)
        .map(|w| percentile(w, 99.0))
        .collect();
    median(&p99)
}

/// The round tail, `round_tail_ms`: the 75th percentile, the highest
/// that keeps at least ten samples beyond it once a run has 40 rounds
/// (every workload's run has more). Returns it with the number of
/// samples beyond it.
pub fn tail(v: &[f64]) -> (f64, usize) {
    let p = percentile(v, 75.0);
    (p, v.iter().filter(|&&x| x > p).count())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Order-independent fingerprint of a unary answer relation (or of the
/// oracle's expected set): length plus a hash of the sorted values.
pub fn fingerprint_vals(mut vals: Vec<u32>) -> (usize, u64) {
    vals.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in &vals {
        h ^= u64::from(*v);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    (vals.len(), h)
}

/// Fingerprint of an engine answer to a goal with one free variable.
pub fn fingerprint(rel: &Relation) -> (usize, u64) {
    fingerprint_vals(rel.iter().map(|t| t[0].0).collect())
}

static SNAP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A snapshot file path unique to this process, this call and the
/// workload (`pid` + atomic counter + name), removed with its `.tmp`
/// sibling when dropped, so concurrent runs never share a file.
pub struct SnapPath(PathBuf);

impl SnapPath {
    pub fn new(workload: &str) -> Self {
        let n = SNAP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let name = format!("snap-{}-{n}-{workload}.bin", std::process::id());
        SnapPath(Path::new(OUT_DIR).join(name))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for SnapPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let mut tmp = self.0.clone().into_os_string();
        tmp.push(".tmp");
        let _ = std::fs::remove_file(tmp);
    }
}

/// One recorded span. `parent` indexes the same thread's span list.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Per-thread span recorder. When off, `open`/`close` cost one branch;
/// spans are kept in memory and written out when the run ends.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(self.spans.len() - 1);
    }

    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let i = self.stack.pop().expect("close without open");
        self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span and returns its result and wall time (the
    /// wall time is measured whether or not tracing is on).
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        self.open(name, op);
        let t = Instant::now();
        let out = f();
        let d = t.elapsed();
        self.close();
        (out, d)
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time per span name, in ms: each span's duration minus the
    /// time its direct children cover (children of one thread never
    /// overlap, so their durations add up).
    pub fn self_ms(&self) -> HashMap<&'static str, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Appends this thread's spans as JSON lines to `buf`.
    pub fn dump(&self, thread: &str, buf: &mut String) {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                buf,
                "{{\"thread\":\"{thread}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
    }
}

/// The tracing overhead, measured: runs every op `op(tracer, i)`,
/// `i` in `0..ops`, twice in a row, once untraced and once traced
/// (which goes first alternates with `i`, so neither side always finds
/// the other's warm caches), and returns by how much the traced runs'
/// median latency exceeds the untraced runs', in percent. `op` returns
/// its latency, which must include recording its spans.
pub fn tracing_overhead_pct(
    origin: Instant,
    ops: usize,
    mut op: impl FnMut(&mut Tracer, usize) -> Duration,
) -> f64 {
    let mut trs = [Tracer::new(false, origin), Tracer::new(true, origin)];
    let mut lat: [Vec<f64>; 2] = [Vec::with_capacity(ops), Vec::with_capacity(ops)];
    for i in 0..ops {
        for pass in 0..2 {
            let traced = (pass + i) % 2;
            let d = op(&mut trs[traced], i);
            lat[traced].push(us(d));
        }
    }
    let base = median(&lat[0]);
    100.0 * (median(&lat[1]) - base) / base
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Checked operations attempted.
    pub attempted: u64,
    /// Checked operations that failed or disagreed with the oracle.
    pub failed: u64,
    /// The metrics of the mode asked for (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Moves the metrics gathered so far into a note: a traced run
    /// prints its end-to-end numbers there, beside the per-layer result,
    /// so the two runs' difference gives the tracing overhead.
    pub fn metrics_to_note(&mut self, title: &str) {
        let parts: Vec<String> = self
            .metrics
            .drain(..)
            .map(|(n, v, u)| format!("{n}={v:.4}{u}"))
            .collect();
        self.notes.push(format!("{title}: {}", parts.join(" ")));
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                self.notes.push(format!("MISMATCH: {}", what()));
            }
        }
    }
}

/// Writes the trace file for this run and returns its path.
pub fn write_trace(workload: &str, seed: u64, tracers: &[(&str, &Tracer)]) -> String {
    let mut buf = String::new();
    for (thread, tr) in tracers {
        tr.dump(thread, &mut buf);
    }
    let path = Path::new(OUT_DIR).join(format!("trace-{workload}-{seed}.jsonl"));
    match std::fs::write(&path, buf) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("(trace not written: {e})"),
    }
}

/// Self-time summary line over several tracers, largest first.
pub fn self_time_note(tracers: &[&Tracer]) -> String {
    let mut total: HashMap<&'static str, f64> = HashMap::new();
    for tr in tracers {
        for (k, v) in tr.self_ms() {
            *total.entry(k).or_insert(0.0) += v;
        }
    }
    let mut v: Vec<_> = total.into_iter().collect();
    v.sort_by(|a, b| b.1.total_cmp(&a.1));
    let parts: Vec<String> = v.iter().map(|(k, ms)| format!("{k}={ms:.1}ms")).collect();
    format!("self time by span: {}", parts.join(" "))
}
