//! Statistics, process readings and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sub-buckets per power of two in [`Hist`]: values are kept to within
/// 1/256 (0.4%) of their size.
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;

/// Log-linear histogram of ns values. Its memory does not grow with the
/// number of samples, so the benchmark's own bookkeeping does not move
/// `peak_rss_mb` with throughput.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let shift = e - SUB_BITS;
        (SUB + u64::from(shift) * SUB + ((v >> shift) - SUB)) as usize
    }

    /// Midpoint of bucket `i`.
    fn value(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB {
            return i;
        }
        let shift = (i - SUB) / SUB;
        let mantissa = SUB + (i - SUB) % SUB;
        (mantissa << shift) + ((1u64 << shift) >> 1)
    }

    pub fn record(&mut self, v: u64) {
        let i = Self::index(v);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Largest value recorded (its bucket's midpoint); 0 when empty.
    pub fn max(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, Self::value)
    }

    /// Nearest-rank quantile (`p` in 0..=1); 0 when empty.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((self.n as f64 * p).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Self::value(i);
            }
        }
        Self::value(self.counts.len() - 1)
    }
}

/// Latency samples of one stream, kept as one [`Hist`] per fixed-length
/// time window of a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Windows {
    t0: u64,
    t1: u64,
    window_ns: u64,
    hists: Vec<Hist>,
}

impl Default for Windows {
    /// An empty round that drops every sample.
    fn default() -> Self {
        Windows::new(0, 0, 1)
    }
}

impl Windows {
    /// `[t0, t1)` cut into equal windows as near `nominal_ns` long as
    /// divide it; samples outside are dropped.
    pub fn new(t0: u64, t1: u64, nominal_ns: u64) -> Self {
        let span = t1.saturating_sub(t0);
        let k = ((span as f64 / nominal_ns.max(1) as f64).round() as u64).max(1);
        Windows {
            t0,
            t1,
            window_ns: span.div_ceil(k).max(1),
            hists: Vec::new(),
        }
    }

    /// Record a sample that completed at `at_ns` and took `lat_ns`.
    pub fn record(&mut self, at_ns: u64, lat_ns: u64) {
        if at_ns < self.t0 || at_ns >= self.t1 {
            return;
        }
        let w = ((at_ns - self.t0) / self.window_ns) as usize;
        if w >= self.hists.len() {
            self.hists.resize(w + 1, Hist::default());
        }
        self.hists[w].record(lat_ns);
    }

    pub fn merge(&mut self, other: &Windows) {
        debug_assert_eq!((self.t0, self.window_ns), (other.t0, other.window_ns));
        if other.hists.len() > self.hists.len() {
            self.hists.resize(other.hists.len(), Hist::default());
        }
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    fn count(&self) -> usize {
        self.t1
            .saturating_sub(self.t0)
            .div_ceil(self.window_ns)
            .max(1) as usize
    }

    pub fn len(&self) -> u64 {
        self.hists.iter().map(Hist::len).sum()
    }

    /// The round's samples summarised per window; see [`Windowed`].
    pub fn summary(&self) -> Windowed {
        let k = self.count();
        let empty = Hist::default();
        let hist = |w: usize| self.hists.get(w).unwrap_or(&empty);
        let per =
            |f: &dyn Fn(&Hist) -> f64| median(&(0..k).map(|w| f(hist(w))).collect::<Vec<_>>());
        let win_s = self.window_ns as f64 / 1e9;
        Windowed {
            n: self.len(),
            windows: k,
            min_window_n: (0..k).map(|w| hist(w).len()).min().unwrap_or(0),
            p50_us: per(&|h| h.quantile(0.50) as f64 / 1e3),
            p90_us: per(&|h| h.quantile(0.90) as f64 / 1e3),
            p95_us: per(&|h| h.quantile(0.95) as f64 / 1e3),
            p99_us: per(&|h| h.quantile(0.99) as f64 / 1e3),
            rate_per_s: per(&|h| h.len() as f64 / win_s),
        }
    }
}

/// A stream's latency and rate, as medians over the round's windows: one
/// scheduler stall on a shared host moves one window, not the figure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Windowed {
    /// Samples in the round.
    pub n: u64,
    /// Windows the round was cut into.
    pub windows: usize,
    /// Fewest samples any window held.
    pub min_window_n: u64,
    /// Median over windows of the per-window p50, µs.
    pub p50_us: f64,
    /// Median over windows of the per-window p90, µs.
    pub p90_us: f64,
    /// Median over windows of the per-window p95, µs.
    pub p95_us: f64,
    /// Median over windows of the per-window p99, µs.
    pub p99_us: f64,
    /// Median over windows of samples per second.
    pub rate_per_s: f64,
}

/// Pooled p50/p99 of durations in ns (the traced round keeps every
/// sample), reported in µs with the count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Pooled {
    pub n: usize,
    pub p50_us: f64,
    pub p99_us: f64,
}

pub fn pooled(ns: Vec<u64>) -> Pooled {
    let mut h = Hist::default();
    for v in ns {
        h.record(v);
    }
    Pooled {
        n: h.len() as usize,
        p50_us: h.quantile(0.50) as f64 / 1e3,
        p99_us: h.quantile(0.99) as f64 / 1e3,
    }
}

/// Host-wide (steal, total) CPU ticks from the first line of
/// `/proc/stat`: steal is time the hypervisor ran something else while
/// this machine's CPUs wanted to run.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Process CPU time (user + system, all threads) in µs, from
/// `/proc/self/stat`. Linux reports it in clock ticks of 1/100 s.
pub fn cpu_us() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after it.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10_000)
}

/// Peak resident set size in MB, from `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// The base the value was computed from, printed beside it.
    pub basis: String,
}

/// Metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, Metric)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, basis: String) {
        self.0.push((name.into(), Metric { value, unit, basis }));
    }
}

/// Ratio with a zero base reading as 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `x` as a JSON number. Non-finite values cannot be written in JSON,
/// so they read as 0 (no metric here is computed from a zero base
/// without [`ratio`], so this only guards against a bug).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A flat JSON object from string fields.
pub fn json_object(fields: &BTreeMap<String, String>) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn hist_keeps_values_within_half_a_percent() {
        for v in [
            0u64,
            1,
            255,
            256,
            257,
            1_000,
            37_605,
            1_000_000,
            123_456_789_012,
        ] {
            let mut h = Hist::default();
            h.record(v);
            let got = h.quantile(0.5);
            assert!(got.abs_diff(v) * 256 <= v.max(1), "{v} read back as {got}");
        }
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        assert_eq!(h.len(), 1000);
        assert!(h.quantile(0.99).abs_diff(990_000) < 990_000 / 200);
        assert_eq!(Hist::default().quantile(0.5), 0);
    }

    #[test]
    fn windows_report_medians_and_ignore_one_stall() {
        // 10 s of 1 kHz samples at 10 µs, with a 1 s stall at 5 ms: the
        // median across windows must not see the stall.
        let mut w = Windows::new(0, 10_000_000_000, 1_000_000_000);
        let mut other = Windows::new(0, 10_000_000_000, 1_000_000_000);
        for i in 0..10_000u64 {
            let lat = if (3_000..4_000).contains(&i) {
                5_000_000
            } else {
                10_000
            };
            let target = if i % 2 == 0 { &mut w } else { &mut other };
            target.record(i * 1_000_000, lat);
        }
        w.record(10_000_000_000, 1); // at t1: outside the round
        w.merge(&other);
        let s = w.summary();
        assert_eq!((s.n, s.windows, s.min_window_n), (10_000, 10, 1000));
        assert!(
            s.p50_us.abs_diff_ok(10.0) && s.p99_us.abs_diff_ok(10.0),
            "{s:?}"
        );
        assert!((s.rate_per_s - 1000.0).abs() < 1e-9);
    }

    trait Close {
        fn abs_diff_ok(self, want: f64) -> bool;
    }

    impl Close for f64 {
        fn abs_diff_ok(self, want: f64) -> bool {
            (self - want).abs() <= want / 200.0
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.25, "s", String::new());
        m.put("bad", f64::NAN, "us", String::new());
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"bad\": {\"value\": 0, \"unit\": \"us\"}}}"
        );
        assert_eq!(json_str("a\"b\\\n"), "\"a\\\"b\\\\\\u000a\"");
    }

    #[test]
    fn proc_readings_are_present_on_linux() {
        assert!(cpu_us().is_some());
        let (steal, total) = host_ticks().unwrap();
        assert!(steal <= total && total > 0);
        assert!(peak_rss_mb().unwrap_or(0.0) > 0.0);
    }
}
