//! E12 — batched fan-out delivery (§5 event propagation cost).
//!
//! A group raise under the multicast locator probes every node hosting a
//! member, once per member: `members × hosting-nodes` co-destined probes
//! per raise. The kernel hands each node's probes to the fabric in one
//! `send_many`, which seals them into one `BatchEnvelope` (one seq, one
//! wire hop); the receiving kernel loop collects the receipts it makes
//! while handling the batch and sends them back as one batch after its
//! last payload. This sweep measures the wire-message reduction that
//! buys, against the `with_batching(false)` ablation, across group size ×
//! hosting-node span — with raise latency alongside to show batching
//! costs no tail time at these scales.

use crate::Table;
use doct_kernel::{
    Cluster, ClusterBuilder, KernelConfig, KernelError, LocatorStrategy, RaiseTarget, SpawnOptions,
    SystemEvent, Value,
};
use doct_net::{FailureConfig, MessageClass, ReliabilityConfig};
use std::time::{Duration, Instant};

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct FanoutRow {
    /// Threads in the raised-at group.
    pub group_size: usize,
    /// Nodes hosting members (the raiser is an extra, member-free node).
    pub hosting_nodes: usize,
    /// Batching enabled on the reliability layer.
    pub batching: bool,
    /// Measured (post-warm-up) raises.
    pub raises: u64,
    /// Physical wire transmissions per raise (a batch counts once).
    pub wire_per_raise: f64,
    /// `Locate`-class payloads per raise (probes + receipts; identical
    /// with batching on or off — batching changes packaging, not payloads).
    pub locate_per_raise: f64,
    /// Batches sealed per raise.
    pub batches_per_raise: f64,
    /// Mean payloads per sealed batch (0 with batching off).
    pub mean_fill: f64,
    /// Acks saved by cumulative acknowledgement, per raise.
    pub acks_coalesced_per_raise: f64,
    /// Raise→receipt latency, median, microseconds.
    pub p50_us: f64,
    /// Raise→receipt latency, 99th percentile, microseconds.
    pub p99_us: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Tight reliability tuning so the bench finishes quickly; only the
/// `batching` knob varies between the measured arms.
fn bench_reliability(batching: bool) -> ReliabilityConfig {
    ReliabilityConfig {
        max_retries: 60,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        jitter: Duration::from_millis(2),
        tick: Duration::from_millis(2),
        heartbeat_interval: Duration::from_millis(50),
        dedupe_window: 4096,
        ..ReliabilityConfig::default()
    }
    .with_batching(batching)
}

fn case(group_size: usize, hosting_nodes: usize, batching: bool) -> Result<FanoutRow, KernelError> {
    const WARMUP: usize = 3;
    const MEASURED: usize = 30;
    // The raiser lives on node 0 and hosts no members, so every probe and
    // receipt crosses the wire. The hint cache is off: this table isolates
    // the locator-wave fan-out that batching compresses.
    let cluster: Cluster = ClusterBuilder::new(hosting_nodes + 1)
        .config(
            KernelConfig {
                delivery_timeout: Duration::from_secs(5),
                ..KernelConfig::with_locator(LocatorStrategy::Multicast)
            }
            .without_location_cache(),
        )
        .reliable_with(bench_reliability(batching), FailureConfig::default())
        .build();
    let group = cluster.create_group();
    let handles: Vec<_> = (0..group_size)
        .map(|i| {
            let node = 1 + i % hosting_nodes;
            let opts = SpawnOptions {
                group: Some(group),
                ..Default::default()
            };
            cluster.spawn_fn_with(node, opts, |ctx| {
                ctx.sleep(Duration::from_secs(120))?;
                Ok(Value::Null)
            })
        })
        .collect::<Result<_, _>>()?;
    std::thread::sleep(Duration::from_millis(80));

    let raise_once = || {
        let t0 = Instant::now();
        let summary = cluster
            .raise_from(
                0,
                SystemEvent::Timer,
                Value::Null,
                RaiseTarget::Group(group),
            )
            .wait();
        assert_eq!(
            summary.delivered, group_size,
            "members={group_size} span={hosting_nodes} batching={batching}: {summary:?}"
        );
        t0.elapsed()
    };
    for _ in 0..WARMUP {
        let _ = raise_once();
    }
    let before = cluster.net().stats().snapshot();
    let fill_sum_before = cluster.net().stats().batch_fill().sum_ns();
    let fill_count_before = cluster.net().stats().batch_fill().count();
    let mut lats_us = Vec::with_capacity(MEASURED);
    for _ in 0..MEASURED {
        lats_us.push(raise_once().as_secs_f64() * 1e6);
    }
    let delta = before.delta(&cluster.net().stats().snapshot());
    let fill_sum = cluster.net().stats().batch_fill().sum_ns() - fill_sum_before;
    let fill_count = cluster.net().stats().batch_fill().count() - fill_count_before;

    let _ = cluster
        .raise_from(0, SystemEvent::Quit, Value::Null, RaiseTarget::Group(group))
        .wait();
    for h in handles {
        let _ = h.join_timeout(Duration::from_secs(5));
    }
    crate::telemetry_out::record("e12", &cluster);

    lats_us.sort_by(|x, y| x.partial_cmp(y).expect("finite latency"));
    let per_raise = |n: u64| n as f64 / MEASURED as f64;
    Ok(FanoutRow {
        group_size,
        hosting_nodes,
        batching,
        raises: MEASURED as u64,
        wire_per_raise: per_raise(delta.wire_msgs()),
        locate_per_raise: per_raise(delta.sent(MessageClass::Locate)),
        batches_per_raise: per_raise(delta.batches_sent()),
        mean_fill: if fill_count > 0 {
            fill_sum as f64 / fill_count as f64
        } else {
            0.0
        },
        acks_coalesced_per_raise: per_raise(delta.acks_coalesced()),
        p50_us: percentile(&lats_us, 0.50),
        p99_us: percentile(&lats_us, 0.99),
    })
}

/// Run the sweep: (group size, hosting nodes) ∈ {(2,1), (4,2), (8,2),
/// (8,4), (16,4)} — members per node from 2 to 4 — each with batching
/// off then on. (8,2) is the acceptance configuration: ≥3× fewer wire
/// messages per raise with batching on.
///
/// # Errors
///
/// Cluster construction/spawn failures.
pub fn run() -> Result<Vec<FanoutRow>, KernelError> {
    let mut rows = Vec::new();
    for &(members, span) in &[(2usize, 1usize), (4, 2), (8, 2), (8, 4), (16, 4)] {
        for batching in [false, true] {
            rows.push(case(members, span, batching)?);
        }
    }
    Ok(rows)
}

/// Wire-message reduction (off / on) for each swept configuration.
fn reductions(rows: &[FanoutRow]) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    for off in rows.iter().filter(|r| !r.batching) {
        if let Some(on) = rows.iter().find(|r| {
            r.batching && r.group_size == off.group_size && r.hosting_nodes == off.hosting_nodes
        }) {
            let ratio = if on.wire_per_raise > 0.0 {
                off.wire_per_raise / on.wire_per_raise
            } else {
                0.0
            };
            out.push((off.group_size, off.hosting_nodes, ratio));
        }
    }
    out
}

/// Render the sweep.
pub fn table(rows: &[FanoutRow]) -> Table {
    let mut t = Table::new(
        "E12: batched fan-out delivery (multicast group raise; wire msgs count a batch once)",
        &[
            "members",
            "span",
            "batching",
            "wire/raise",
            "locate/raise",
            "batches/raise",
            "fill",
            "acks saved/raise",
            "p50",
            "p99",
        ],
    );
    for r in rows {
        t.row(vec![
            r.group_size.to_string(),
            r.hosting_nodes.to_string(),
            if r.batching { "on" } else { "off" }.to_string(),
            format!("{:.1}", r.wire_per_raise),
            format!("{:.1}", r.locate_per_raise),
            format!("{:.1}", r.batches_per_raise),
            format!("{:.1}", r.mean_fill),
            format!("{:.1}", r.acks_coalesced_per_raise),
            format!("{:.1?}", Duration::from_secs_f64(r.p50_us / 1e6)),
            format!("{:.1?}", Duration::from_secs_f64(r.p99_us / 1e6)),
        ]);
    }
    for (members, span, ratio) in reductions(rows) {
        t.row(vec![
            members.to_string(),
            span.to_string(),
            "off/on".to_string(),
            format!("{ratio:.1}x"),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    t
}

/// The sweep as machine-readable JSON (`BENCH_e12_fanout_batch.json`):
/// per-configuration wire traffic and latency, plus the off/on reduction
/// ratios future changes are compared against.
pub fn json(rows: &[FanoutRow]) -> String {
    let mut out = String::from("{\n  \"bench\": \"e12_fanout_batch\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"group_size\": {}, \"hosting_nodes\": {}, \"batching\": {}, \
             \"raises\": {}, \"wire_msgs_per_raise\": {:.2}, \
             \"locate_msgs_per_raise\": {:.2}, \"batches_per_raise\": {:.2}, \
             \"mean_batch_fill\": {:.2}, \"acks_coalesced_per_raise\": {:.2}, \
             \"p50_raise_us\": {:.1}, \"p99_raise_us\": {:.1}}}{}\n",
            r.group_size,
            r.hosting_nodes,
            r.batching,
            r.raises,
            r.wire_per_raise,
            r.locate_per_raise,
            r.batches_per_raise,
            r.mean_fill,
            r.acks_coalesced_per_raise,
            r.p50_us,
            r.p99_us,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"wire_reduction_off_over_on\": [\n");
    let ratios = reductions(rows);
    for (i, (members, span, ratio)) in ratios.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"group_size\": {members}, \"hosting_nodes\": {span}, \
             \"reduction\": {ratio:.2}}}{}\n",
            if i + 1 < ratios.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
