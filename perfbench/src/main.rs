//! Benchmark of the raise path, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with every
//! benchmark instrument off. `--trace 1` runs the same workload once
//! plain and once traced, each for half the time, and prints the
//! per-layer metrics. Either way the run checks the delivery ledger and
//! exactly-once delivery, and the last line of standard output is the
//! JSON result. See README.md for the workloads and metrics.

mod layers;
mod report;
mod workloads;

use layers::{read_ring, Spans, StageFold, TimedDispatcher};
use report::{median, pooled, ratio, result_line, Metrics};
use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{Inputs, Ledger, Rig, Round, Until, Workload};

/// Set-ups per plain run; `setup_s` is their median.
const SETUPS: usize = 5;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <u64> --seconds <1-600> --trace <0|1>\n\
     workloads: unicast_sync fanout_reliable unicast_sync_udp overload_open";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or(format!("{key} needs a value"))?;
        kv.insert(key, value);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // These variables override the configured fabric and reactor count
    // cluster-wide; a workload measures the configuration it names.
    for var in ["DOCT_FABRIC", "DOCT_REACTORS"] {
        std::env::remove_var(var);
    }
    let outcome = if args.trace {
        measure_traced(
            args.workload,
            args.seed,
            Duration::from_secs(args.seconds) / 2,
        )
    } else {
        measure_plain(args.workload, args.seed, Duration::from_secs(args.seconds))
    };
    match outcome.map(|o| o.print(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "perfbench: workload {}: correctness check failed",
                args.workload.name()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: workload {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

/// The correctness gate over one round.
struct Check {
    ledger: Ledger,
    handled: u64,
    codec_errors: u64,
    /// Failed operations: raises the benchmark saw fail, plus dead,
    /// timed-out and lost deliveries. Overloaded sheds are refusals by
    /// admission control and are counted in `delivered_frac` instead.
    failed: u64,
    issues: Vec<String>,
}

impl Check {
    fn of(round: &Round) -> Check {
        let ledger = Ledger::delta(&round.after, &round.before);
        let mut issues = round.issues.clone();
        if !ledger.balanced() {
            issues.push(format!("ledger does not balance: {ledger}"));
        }
        if round.handled != ledger.delivered {
            issues.push(format!(
                "exactly-once: {} handler invocations for {} deliveries",
                round.handled, ledger.delivered
            ));
        }
        let codec_errors = counter(round, "net.codec_errors");
        if codec_errors != 0 {
            issues.push(format!("{codec_errors} codec errors"));
        }
        if round.main.len() == 0 || round.control.len() == 0 {
            issues.push(format!(
                "no samples: {} main, {} control",
                round.main.len(),
                round.control.len()
            ));
        }
        Check {
            failed: round.failed + ledger.dead + ledger.timeout + ledger.lost,
            ledger,
            handled: round.handled,
            codec_errors,
            issues,
        }
    }

    fn ok(&self) -> bool {
        self.issues.is_empty() && self.failed == 0
    }

    fn print(&self, w: Workload, label: &str) {
        let verdict = if self.ok() { "ok" } else { "FAILED" };
        println!(
            "check {} {label}: {verdict}; ledger {}; handler invocations {} (delivered {}); \
             failed operations {}; codec errors {}",
            w.name(),
            self.ledger,
            self.handled,
            self.ledger.delivered,
            self.failed,
            self.codec_errors
        );
        for issue in self.issues.iter().take(5) {
            println!("check {} {label}: {issue}", w.name());
        }
        if self.issues.len() > 5 {
            println!(
                "check {} {label}: {} more issues",
                w.name(),
                self.issues.len() - 5
            );
        }
    }
}

fn counter(r: &Round, name: &str) -> u64 {
    let get = |m: &doct_telemetry::MetricsSnapshot| m.counters.get(name).copied().unwrap_or(0);
    get(&r.after).saturating_sub(get(&r.before))
}

/// Process CPU per raise call attempted over a round, µs.
fn cpu_per_raise(r: &Round) -> f64 {
    ratio(r.cpu_us as f64, r.attempted as f64)
}

/// A finished run: its metrics, the rounds they came from, and the
/// correctness gate over each round.
struct Outcome {
    metrics: Metrics,
    rounds: Vec<(&'static str, Round)>,
    checks: Vec<Check>,
}

impl Outcome {
    fn ok(&self) -> bool {
        self.checks.iter().all(Check::ok)
    }

    fn print(&self, a: &Args) -> bool {
        print_record(a, &self.rounds);
        print_metrics(&self.metrics);
        for (check, (label, _)) in self.checks.iter().zip(&self.rounds) {
            check.print(a.workload, label);
        }
        let attempted = self.rounds.iter().map(|(_, r)| r.attempted).sum();
        let failed = self.checks.iter().map(|c| c.failed).sum();
        println!(
            "{}",
            result_line(self.ok(), attempted, failed, &self.metrics)
        );
        self.ok()
    }
}

/// `SETUPS` set-ups, then one measured round of `length` on the last.
fn measure_plain(w: Workload, seed: u64, length: Duration) -> Result<Outcome, String> {
    let inputs = Arc::new(Inputs::new(seed));
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS {
        // Tear the previous cluster down before timing the next set-up.
        drop(rig.take());
        let t = Instant::now();
        rig = Some(Rig::setup(w, Arc::clone(&inputs))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let rig = rig.ok_or("no set-up ran")?;
    let round = rig.round(Until::For(length))?;
    drop(rig);
    Ok(Outcome {
        metrics: end_to_end(w, &round, &setup_s),
        checks: vec![Check::of(&round)],
        rounds: vec![("measured round", round)],
    })
}

/// One set-up, a plain round of `half`, then a traced round of `half`
/// with the dispatcher wrapper, the spans and the ring reader on.
fn measure_traced(w: Workload, seed: u64, half: Duration) -> Result<Outcome, String> {
    let rig = Rig::setup(w, Arc::new(Inputs::new(seed)))?;
    let plain = rig.round(Until::For(half))?;
    // Read before the traced round, whose span buffers grow with it.
    let rss_mb = report::peak_rss_mb().unwrap_or(0.0);

    let clock = Arc::clone(rig.cluster.telemetry());
    rig.cluster.set_dispatcher(Arc::new(TimedDispatcher {
        inner: Arc::clone(&rig.facility),
        spans: Arc::clone(&rig.spans),
        clock: Arc::clone(&clock),
    }));
    rig.spans.set_on(true);
    let stop = Arc::new(AtomicBool::new(false));
    let reader = read_ring(
        Arc::clone(&clock),
        Arc::clone(&rig.spans),
        clock.now_ns(),
        w.unwinds(),
        Arc::clone(&stop),
    );
    let traced = rig.round(Until::For(half));
    stop.store(true, Ordering::SeqCst);
    let fold = reader.join().map_err(|_| "trace ring reader panicked")?;
    rig.spans.set_on(false);
    rig.cluster.set_dispatcher(Arc::clone(&rig.facility) as _);
    let traced = traced?;
    let spans = Arc::clone(&rig.spans);
    drop(rig);
    Ok(Outcome {
        metrics: per_layer(w, &plain, &traced, fold, &spans, rss_mb),
        checks: vec![Check::of(&plain), Check::of(&traced)],
        rounds: vec![("plain round", plain), ("traced round", traced)],
    })
}

fn end_to_end(w: Workload, r: &Round, setup_s: &[f64]) -> Metrics {
    let main = r.main.summary();
    let ctl = r.control.summary();
    let ledger = Ledger::delta(&r.after, &r.before);
    let what = if w == Workload::OverloadOpen {
        "handled (goodput)"
    } else {
        "completed"
    };
    let win = |x: &report::Windowed, kind: &str| {
        format!(
            "median of {} windows' {kind}; {} samples, fewest {} in a window, \
             so >= {} beyond its p99",
            x.windows,
            x.n,
            x.min_window_n,
            x.min_window_n / 100
        )
    };
    let mut m = Metrics::default();
    m.put(
        "setup_s",
        median(setup_s),
        "s",
        format!("median of {} set-ups {setup_s:.3?}", setup_s.len()),
    );
    m.put(
        "raises_per_s",
        main.rate_per_s,
        "1/s",
        format!("raises {what} per second, {}", win(&main, "rates")),
    );
    m.put("raise_p50_us", main.p50_us, "us", win(&main, "p50"));
    m.put(
        "raise_p90_us",
        main.p90_us,
        "us",
        format!(
            "{}; p99 {:.1} us (raise.p99_us, too unsteady on a shared host to bound)",
            win(&main, "p90"),
            main.p99_us
        ),
    );
    m.put("control_p50_us", ctl.p50_us, "us", win(&ctl, "p50"));
    m.put(
        "delivered_frac",
        ratio(ledger.delivered as f64, ledger.requested as f64),
        "frac",
        format!(
            "{ledger}; failed_frac = {:.4}",
            ratio(
                (ledger.requested - ledger.delivered) as f64,
                ledger.requested as f64
            )
        ),
    );
    m
}

fn per_layer(
    w: Workload,
    plain: &Round,
    traced: &Round,
    fold: StageFold,
    spans: &Spans,
    rss_mb: f64,
) -> Metrics {
    let mut m = Metrics::default();
    let folded = fold.len();
    let mut split = |name: &str, ns: Vec<u64>, what: &str| {
        let p = pooled(ns);
        let basis = format!("{what}; {} samples, {} beyond p99", p.n, p.n / 100);
        m.put(format!("{name}.p50"), p.p50_us, "us", basis.clone());
        m.put(format!("{name}.p99"), p.p99_us, "us", basis);
    };
    split("kernel.route_us", fold.route, "trace Raise->Route");
    split("kernel.send_us", fold.send, "trace Route->Send");
    split("net.wire_us", fold.wire, "trace Send->Deliver");
    split(
        "kernel.mailbox_wait_us",
        fold.mailbox_wait,
        "trace Deliver->ChainWalk",
    );
    split(
        "events.chain_us",
        fold.chain,
        "trace ChainWalk->last Unwind",
    );
    let tag_seq: HashMap<u64, u64> = Spans::take(&spans.tag_seq).into_iter().collect();
    let resume: Vec<u64> = Spans::take(&spans.round_trip)
        .into_iter()
        .filter_map(|(tag, s, e)| {
            let to_resume = fold.raise_to_resume.get(tag_seq.get(&tag)?)?;
            Some((e - s).saturating_sub(*to_resume))
        })
        .collect();
    split(
        "kernel.resume_us",
        resume,
        "raise_and_wait round trip minus trace Raise->first Unwind (sync raises only)",
    );
    split(
        "kernel.raise_call_us",
        Spans::take(&spans.raise_call),
        "span around Cluster::raise_from (raise_from workloads only)",
    );
    split(
        "kernel.ticket_wait_us",
        Spans::take(&spans.ticket_wait),
        "span around RaiseTicket::wait (fanout_reliable only)",
    );
    split(
        "events.dispatch_us",
        Spans::take(&spans.dispatch_self),
        "self time of the dispatcher wrapper around EventFacility (minus handler)",
    );
    split(
        "app.handler_us",
        Spans::take(&spans.handler),
        "span around the benchmark's handler closure",
    );

    let t = traced;
    let raises = counter(t, "event.raises") as f64;
    let c = |name: &str| counter(t, name) as f64;
    let base = |num: &str| format!("{} {num} / {raises} raise calls", c(num));
    let mut per = |metric: &str, num: &str, unit: &'static str| {
        m.put(metric, ratio(c(num), raises), unit, base(num));
    };
    per("net.wire_msgs_per_raise", "net.wire_msgs", "msgs/raise");
    per("net.batches_per_raise", "net.batches_sent", "batches/raise");
    per(
        "net.acks_coalesced_per_raise",
        "net.acks_coalesced",
        "acks/raise",
    );
    per("net.retransmits_per_raise", "net.retransmits", "msgs/raise");
    per(
        "kernel.locate_msgs_per_raise",
        "net.sent.locate",
        "msgs/raise",
    );
    per(
        "kernel.hint_unicasts_per_raise",
        "net.hint_unicasts",
        "msgs/raise",
    );
    per(
        "events.handlers_run_per_raise",
        "facility.handlers_run",
        "1/raise",
    );
    let fill = |snap: &doct_telemetry::MetricsSnapshot| {
        snap.histograms
            .get("net.batch_fill")
            .map_or((0, 0), |h| (h.sum_ns, h.count))
    };
    let ((s1, n1), (s0, n0)) = (fill(&t.after), fill(&t.before));
    m.put(
        "net.batch_fill_mean",
        ratio((s1 - s0) as f64, (n1 - n0) as f64),
        "msgs/batch",
        format!("{} payloads / {} batches", s1 - s0, n1 - n0),
    );
    m.put(
        "net.bytes_copied_per_raise",
        ratio(t.bytes_copied as f64, raises),
        "B/raise",
        format!(
            "{} payload bytes deep-copied / {raises} raise calls",
            t.bytes_copied
        ),
    );
    let share = |num: &str, other: &str| {
        let (a, b) = (c(num), c(other));
        (ratio(a, a + b), format!("{a} {num} / ({a} + {b} {other})"))
    };
    let (v, b) = share("net.pool_hits", "net.pool_misses");
    m.put("net.pool_hit_rate", v, "frac", b);
    m.put(
        "net.codec_errors",
        c("net.codec_errors"),
        "count",
        "net.codec_errors over the traced round; must be 0".into(),
    );
    let (v, b) = share("locator.cache_hits", "locator.cache_misses");
    m.put("kernel.cache_hit_rate", v, "frac", b);
    let (shed_src, shed_all) = (c("kernel.shed_at_source"), c("kernel.shed_total"));
    m.put(
        "kernel.shed_at_source_frac",
        ratio(shed_src, shed_all),
        "frac",
        format!("{shed_src} kernel.shed_at_source / {shed_all} kernel.shed_total"),
    );
    let mut per_k = |metric: &str, num: &str| {
        m.put(
            metric,
            ratio(1000.0 * c(num), raises),
            "1/kraise",
            format!("1000 x {} {num} / {raises} raise calls", c(num)),
        );
    };
    per_k(
        "kernel.shard_contention_per_kraise",
        "kernel.shard_contention",
    );
    per_k(
        "net.backpressure_signals_per_kraise",
        "net.backpressure_signals",
    );

    let ctl = plain.control.summary();
    let ctl_basis = format!(
        "control probes in the plain round, median of {} windows; {} samples, fewest {} \
         in a window (the tail is too unsteady on a shared host to bound end to end)",
        ctl.windows, ctl.n, ctl.min_window_n
    );
    let main = plain.main.summary();
    m.put(
        "raise.p99_us",
        main.p99_us,
        "us",
        format!(
            "main stream in the plain round, median of {} windows' p99; {} samples, \
             fewest {} in a window (too unsteady on a shared host to bound end to end)",
            main.windows, main.n, main.min_window_n
        ),
    );
    m.put("control.p95_us", ctl.p95_us, "us", ctl_basis.clone());
    m.put("control.p99_us", ctl.p99_us, "us", ctl_basis);
    let late = &plain.late;
    let late_what = if w == Workload::OverloadOpen {
        "flood generator"
    } else {
        "control probe schedule"
    };
    let late_basis = format!(
        "{late_what} lateness in the plain round; {} sends, {} beyond p99",
        late.len(),
        late.len() / 100
    );
    m.put(
        "gen.late_p99_us",
        late.quantile(0.99) as f64 / 1e3,
        "us",
        late_basis.clone(),
    );
    m.put("gen.late_max_us", late.max() as f64 / 1e3, "us", late_basis);
    let (p, q) = (
        plain.main.summary().rate_per_s,
        traced.main.summary().rate_per_s,
    );
    m.put(
        "trace.overhead_frac",
        1.0 - ratio(q, p),
        "frac",
        format!("1 - traced {q:.0}/s over plain {p:.0}/s raises_per_s, same cluster"),
    );
    m.put(
        "trace.raises_folded",
        folded as f64,
        "count",
        "main-stream raises whose full stage record was read from the trace ring".into(),
    );
    m.put(
        "proc.cpu_us_per_raise",
        cpu_per_raise(plain),
        "us",
        format!(
            "{} us process CPU / {} raise calls in the plain round; it falls when the \
             host lends fewer cores, so it is not bounded end to end",
            plain.cpu_us, plain.attempted
        ),
    );
    m.put(
        "proc.peak_rss_mb",
        rss_mb,
        "MB",
        "VmHWM after set-up and the plain round; it grows with the work held in flight \
         when the host is contended, so it is not bounded end to end"
            .into(),
    );
    m
}

fn print_metrics(m: &Metrics) {
    for (name, metric) in &m.0 {
        println!(
            "metric {name:<36} {:>14.4} {:<11} {}",
            metric.value, metric.unit, metric.basis
        );
    }
}

/// Git revision of the working directory, if it is a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of the measured program's sources (every file under
/// `crates/`, in path order): identifies the code when there is no git.
fn src_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    let mut files = Vec::new();
    walk(&root, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f
            .strip_prefix(&root)
            .unwrap_or(f)
            .to_string_lossy()
            .bytes()
            .chain(bytes)
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The run record: what ran, where, and on how many samples.
fn print_record(a: &Args, rounds: &[(&str, Round)]) {
    let mut f: BTreeMap<String, String> = BTreeMap::new();
    let q = report::json_str;
    f.insert("bench".into(), q("perfbench"));
    f.insert("workload".into(), q(a.workload.name()));
    f.insert("loop".into(), q(&a.workload.loop_label()));
    f.insert("fabric".into(), q(&format!("{:?}", a.workload.fabric())));
    f.insert("seed".into(), a.seed.to_string());
    f.insert("seconds".into(), a.seconds.to_string());
    f.insert("trace".into(), a.trace.to_string());
    f.insert("git_rev".into(), q(&git_rev()));
    f.insert("src_digest".into(), q(&src_digest()));
    f.insert(
        "peak_rss_mb".into(),
        format!("{:.3}", report::peak_rss_mb().unwrap_or(0.0)),
    );
    f.insert(
        "host_cores".into(),
        std::thread::available_parallelism()
            .map_or(0, |n| n.get())
            .to_string(),
    );
    for (label, r) in rounds {
        let key = label.replace(' ', "_");
        f.insert(format!("{key}.main_samples"), r.main.len().to_string());
        f.insert(
            format!("{key}.control_samples"),
            r.control.len().to_string(),
        );
        f.insert(
            format!("{key}.host_steal_frac"),
            format!("{:.4}", r.host_steal_frac),
        );
        f.insert(
            format!("{key}.cpu_us_per_raise"),
            format!("{:.3}", cpu_per_raise(r)),
        );
    }
    println!("record {}", report::json_object(&f));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "overload_open",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::OverloadOpen);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        let ok = [
            "--workload",
            "unicast_sync",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "0",
        ];
        assert!(args(&ok).is_ok());
        for (i, bad) in [(1, "nope"), (3, "x"), (5, "0"), (7, "2")] {
            let mut v = ok;
            v[i] = bad;
            assert!(args(&v).is_err(), "{v:?}");
        }
        assert!(args(&ok[..6]).is_err(), "missing --trace");
        assert!(args(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn inputs_follow_the_seed() {
        let (a, b, c) = (Inputs::new(1), Inputs::new(1), Inputs::new(2));
        assert_eq!(a.order, b.order);
        assert_eq!(a.payload(5, 3), b.payload(5, 3));
        assert_ne!(a.payload(5, 3), c.payload(5, 3));
        let mut sorted = a.order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..16).collect::<Vec<_>>(),
            "order is a permutation"
        );
    }

    /// Metric names `BENCHMARK.json` lists under `key`.
    fn listed(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let section = &text[text.find(&format!("\"{key}\"")).unwrap()..];
        let section = &section[..section.find(']').unwrap()];
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    }

    fn names(m: &Metrics) -> Vec<String> {
        m.0.iter().map(|(n, _)| n.clone()).collect()
    }

    /// A short plain run of every workload through the driver's path:
    /// the gate passes, the metrics are exactly the end-to-end ones
    /// `BENCHMARK.json` lists, and none is 0.
    #[test]
    fn every_workload_passes_its_gate() {
        for w in Workload::ALL {
            let o = measure_plain(w, 3, Duration::from_millis(300)).unwrap();
            assert!(o.ok(), "{}: {:?}", w.name(), o.checks[0].issues);
            assert_eq!(names(&o.metrics), listed("end_to_end"));
            for (name, metric) in &o.metrics.0 {
                assert!(
                    metric.value > 0.0,
                    "{}: {name} = {}",
                    w.name(),
                    metric.value
                );
            }
        }
    }

    /// A short traced run reports exactly the per-layer metrics
    /// `BENCHMARK.json` lists, with the stage split filled in.
    #[test]
    fn traced_run_reports_every_layer_metric() {
        let o = measure_traced(Workload::UnicastSync, 3, Duration::from_millis(300)).unwrap();
        assert!(o.ok());
        assert_eq!(names(&o.metrics), listed("per_layer"));
        let get = |n: &str| o.metrics.0.iter().find(|(k, _)| *k == n).unwrap().1.value;
        for n in [
            "net.wire_us.p50",
            "kernel.resume_us.p50",
            "trace.raises_folded",
        ] {
            assert!(get(n) > 0.0, "{n}");
        }
    }
}
