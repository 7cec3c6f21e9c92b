//! Shared plumbing: the result report, sample summaries, the in-memory
//! span tracer, `/proc` readers and run provenance.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Where the benchmark leaves model files and trace dumps, relative to
/// the checkout root it runs from.
pub const OUT_DIR: &str = "target/perfbench";

/// The corpus seeds a run draws from `--seed`, used in the order
/// A, B, A, …: clustering quality varies between generated corpora far
/// more than between runs, so each run averages F over two corpora, and
/// the repeat of A is checked to reproduce bit for bit.
pub fn corpus_seeds(seed: u64) -> [u64; 2] {
    [seed, seed ^ 0x5DEE_CE66_D1CE_5EED]
}

/// Median of a sample (mean of the two middle values for even counts).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean (`NaN` for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of p90 / p99 / p99.9 that has at least ten samples
/// beyond it, as `(label, value)`; the maximum when no level qualifies.
pub fn highest_percentile(xs: &[f64]) -> (&'static str, f64) {
    let n = xs.len() as f64;
    let mut best = ("max", xs.iter().cloned().fold(f64::NAN, f64::max));
    for (label, q) in [("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)] {
        if n * (1.0 - q) >= 10.0 {
            best = (label, quantile(xs, q));
        }
    }
    best
}

/// What one run reports: checks attempted / failed, the named metrics
/// and, for timings, the sample summary behind each median.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<String, (f64, &'static str)>,
    samples: BTreeMap<String, String>,
}

impl Report {
    /// Count one correctness check; a failure is logged to stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Record a metric as a single value.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Record a metric as the median of `xs`, keeping the highest
    /// supported percentile and the sample count beside it.
    pub fn set_median(&mut self, name: &str, xs: &[f64], unit: &'static str) {
        let med = median(xs);
        let (label, hi) = highest_percentile(xs);
        self.samples.insert(
            name.to_string(),
            format!(
                "{{\"median\": {}, \"{label}\": {}, \"n\": {}}}",
                num(med),
                num(hi),
                xs.len()
            ),
        );
        self.set(name, med, unit);
    }

    /// The value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|&(v, _)| v)
    }

    /// JSON object of the sample summaries.
    pub fn samples_json(&self) -> String {
        let body: Vec<String> = self
            .samples
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The result line: exactly `names`, in order, each with its unit.
    /// A name the run did not record is an error in the benchmark.
    pub fn result_json(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let &(value, recorded_unit) = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not recorded"))?;
            if recorded_unit != unit {
                return Err(format!("metric {name}: unit {recorded_unit} != {unit}"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// A JSON number with all its digits (`null` if not finite).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Seconds of a closure's wall time, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

struct SpanRec {
    name: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// In-memory span recorder around the benchmark's calls into each
/// layer. When off, [`Tracer::stage`] only runs the closure.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<SpanRec>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` as the span `name`, nested under the innermost open span.
    pub fn stage<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(SpanRec {
                name: name.to_string(),
                start: self.origin.elapsed(),
                end: Duration::ZERO,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end = self.origin.elapsed();
        out
    }

    /// Record an already-timed interval as a closed span.
    pub fn record(&self, name: &str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let parent = self.open.borrow().last().copied();
        self.spans.borrow_mut().push(SpanRec {
            name: name.to_string(),
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent,
        });
    }

    /// Durations (seconds) of every span called `name` whose parent is
    /// called `parent` (`""` for a root span).
    pub fn secs_under(&self, name: &str, parent: &str) -> Vec<f64> {
        let spans = self.spans.borrow();
        spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| s.parent.map_or("", |p| spans[p].name.as_str()) == parent)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    /// Summed duration of the direct children of every span called
    /// `parent`.
    pub fn child_secs(&self, parent: &str) -> f64 {
        let spans = self.spans.borrow();
        spans
            .iter()
            .filter(|c| c.parent.is_some_and(|p| spans[p].name == parent))
            .map(|c| (c.end - c.start).as_secs_f64())
            .sum()
    }

    /// Spans as a JSON array of `{name, start_s, end_s, parent, workload, seed}`.
    pub fn spans_json(&self, workload: &str, seed: u64) -> String {
        let spans = self.spans.borrow();
        let items: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"start_s\": {}, \"end_s\": {}, \"parent\": {}, \"workload\": {}, \"seed\": {seed}}}",
                    jstr(&s.name),
                    num(s.start.as_secs_f64()),
                    num(s.end.as_secs_f64()),
                    s.parent
                        .map(|p| jstr(&spans[p].name))
                        .unwrap_or_else(|| "null".to_string()),
                    jstr(workload),
                )
            })
            .collect();
        format!("[{}]", items.join(",\n "))
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User + system CPU time of this process, in seconds (`/proc/self/stat`,
/// clock ticks at the kernel's fixed USER_HZ of 100).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

/// Host-wide steal ticks so far (`cpu` line of `/proc/stat`).
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Indices of the samples taken while the host stole no more CPU than
/// during the median sample: the quieter half, ties included. Short,
/// repeated measurements are summarised over these, so that bursts of
/// other tenants' load on a shared host are left out, for the parent
/// commit and a change alike.
pub fn quiet_half(steal: &[u64]) -> Vec<usize> {
    let ticks: Vec<f64> = steal.iter().map(|&s| s as f64).collect();
    let cut = median(&ticks);
    (0..steal.len()).filter(|&i| ticks[i] <= cut).collect()
}

/// Wall-time samples with the host steal ticks seen during each.
#[derive(Default)]
pub struct StealTimed {
    secs: Vec<f64>,
    steal: Vec<u64>,
}

impl StealTimed {
    /// Run and time `f` as one sample.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let s0 = steal_ticks();
        let (out, secs) = timed(f);
        self.secs.push(secs);
        self.steal.push(steal_ticks().saturating_sub(s0));
        out
    }

    /// Seconds of the [`quiet_half`] of the samples.
    pub fn quiet(&self) -> Vec<f64> {
        quiet_half(&self.steal)
            .into_iter()
            .map(|i| self.secs[i])
            .collect()
    }
}

/// Lateness record of an open-loop (paced) request generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pacing {
    pub sends: u64,
    pub late_sends: u64,
    pub max_late_ms: f64,
}

impl Pacing {
    pub fn merge(&mut self, other: Pacing) {
        self.sends += other.sends;
        self.late_sends += other.late_sends;
        self.max_late_ms = self.max_late_ms.max(other.max_late_ms);
    }
}

/// Noise provenance of one run: what else the host was doing and what
/// the build and thread settings were.
pub fn provenance_json(steal_start: u64, pacing: Pacing) -> String {
    let features: Vec<&str> = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .into_iter()
    .filter(|&(_, on)| on)
    .map(|(f, _)| f)
    .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = std::env::var("MTRL_NUM_THREADS").unwrap_or_else(|_| "unset".to_string());
    let late_share = if pacing.sends == 0 {
        0.0
    } else {
        pacing.late_sends as f64 / pacing.sends as f64
    };
    format!(
        "{{\"steal_ticks\": {}, \"paced_sends\": {}, \"late_send_share\": {}, \"max_lateness_ms\": {}, \"git_sha\": {}, \"target_features\": {}, \"nproc\": {nproc}, \"mtrl_num_threads\": {}}}",
        steal_ticks().saturating_sub(steal_start),
        pacing.sends,
        num(late_share),
        num(pacing.max_late_ms),
        jstr(&git_sha()),
        jstr(&features.join(",")),
        jstr(&threads),
    )
}

/// Commit of the checkout, read from `.git` when there is one.
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}
