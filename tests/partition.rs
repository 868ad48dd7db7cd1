//! Partition-tolerance integration tests: what the delivery ledger and
//! raise summaries report when links are cut mid-traffic, when they heal,
//! and when a tracking kernel disappears with receipts still in flight.
//!
//! Three contracts under test:
//!
//! * A multicast-located group member on an isolated island must *not*
//!   count as delivered — and a later `heal()` must not replay the event
//!   to it.
//! * With the reliability layer on, a partition shorter than the
//!   retransmit tail is invisible: queued locate probes cross the healed
//!   link and the member is delivered after all.
//! * A kernel that shuts down with deliveries in flight resolves them as
//!   `lost` (counted by `delivery.lost`), never as a fake timeout — the
//!   ledger still balances.

use doct::prelude::*;
use doct_kernel::{
    ClassBuilder, ClusterBuilder, KernelConfig, LocatorStrategy, RaiseTarget, SpawnOptions,
    ThreadAttributes,
};
use doct_net::{FailureConfig, PeerState, ReliabilityConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tight reliability tuning so retransmits and heartbeats happen within
/// test-sized windows.
fn fast_reliability() -> ReliabilityConfig {
    ReliabilityConfig {
        max_retries: 60,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        jitter: Duration::from_millis(2),
        tick: Duration::from_millis(2),
        heartbeat_interval: Duration::from_millis(5),
        dedupe_window: 1024,
        ..ReliabilityConfig::default()
    }
}

fn delivery_counters(cluster: &Cluster) -> (u64, u64, u64, u64, u64, u64) {
    let counters = cluster.telemetry().metrics().counters;
    let get = |name: &str| counters.get(name).copied().unwrap_or(0);
    (
        get("delivery.requested"),
        get("delivery.delivered"),
        get("delivery.dead"),
        get("delivery.timeout"),
        get("delivery.lost"),
        get("delivery.overloaded"),
    )
}

fn assert_ledger_balances(cluster: &Cluster) {
    let (requested, delivered, dead, timeout, lost, overloaded) = delivery_counters(cluster);
    assert_eq!(
        requested,
        delivered + dead + timeout + lost + overloaded,
        "ledger out of balance: requested {requested} != delivered {delivered} \
         + dead {dead} + timeout {timeout} + lost {lost} + overloaded {overloaded}"
    );
}

/// Spawn a sleeper thread in `group` on `node`; it parks at delivery
/// points long enough for the test to raise at it.
fn spawn_sleeper(
    cluster: &Cluster,
    node: usize,
    group: ThreadGroupId,
    ms: u64,
) -> doct_kernel::ThreadHandle {
    let opts = SpawnOptions {
        group: Some(group),
        ..Default::default()
    };
    cluster
        .spawn_fn_with(node, opts, move |ctx| {
            ctx.sleep(Duration::from_millis(ms))?;
            Ok(Value::Null)
        })
        .unwrap()
}

#[test]
fn isolated_multicast_member_is_not_delivered_and_heal_replays_nothing() {
    let cluster = ClusterBuilder::new(3)
        .config(KernelConfig {
            locator: LocatorStrategy::Multicast,
            delivery_timeout: Duration::from_millis(400),
            delivery_retries: 1,
            ..KernelConfig::default()
        })
        .build();
    let group = cluster.create_group();
    let reachable = spawn_sleeper(&cluster, 1, group, 900);
    let islanded = spawn_sleeper(&cluster, 2, group, 900);
    std::thread::sleep(Duration::from_millis(60));

    cluster.net().isolate(&[NodeId(2)]).unwrap();
    let summary = cluster
        .raise_from(
            0,
            SystemEvent::Timer,
            Value::Null,
            RaiseTarget::Group(group),
        )
        .wait();
    assert_eq!(summary.delivered, 1, "{summary:?}");
    assert_eq!(
        summary.nodes,
        vec![NodeId(1)],
        "the islanded member must not appear among delivery nodes"
    );
    assert_eq!(
        summary.delivered + summary.dead + summary.timed_out + summary.lost + summary.overloaded,
        2,
        "both members accounted for: {summary:?}"
    );

    // Heal and give any (wrong) replay machinery ample time: best-effort
    // transport retries nothing, so the delivered count must not move.
    let delivered_before = delivery_counters(&cluster).1;
    cluster.net().heal();
    std::thread::sleep(Duration::from_millis(500));
    let delivered_after = delivery_counters(&cluster).1;
    assert_eq!(
        delivered_before, delivered_after,
        "heal() must not replay the event to the islanded member"
    );

    let _ = reachable.join_timeout(Duration::from_secs(5));
    let _ = islanded.join_timeout(Duration::from_secs(5));
    assert!(cluster.await_quiescence(Duration::from_secs(5)));
    assert_ledger_balances(&cluster);
}

#[test]
fn reliable_transport_delivers_to_member_across_transient_partition() {
    // Same shape as above, but with the reliability layer on and the
    // partition healed inside the retransmit window: the queued locate
    // probe crosses the healed link and the member IS delivered.
    let cluster = ClusterBuilder::new(3)
        .config(KernelConfig {
            delivery_timeout: Duration::from_secs(5),
            ..KernelConfig::default()
        })
        .reliable_with(
            fast_reliability(),
            FailureConfig {
                suspect_after: Duration::from_millis(500),
                dead_after: Duration::from_secs(10),
            },
        )
        .build();
    let group = cluster.create_group();
    let near = spawn_sleeper(&cluster, 1, group, 1_500);
    let far = spawn_sleeper(&cluster, 2, group, 1_500);
    std::thread::sleep(Duration::from_millis(60));

    cluster.net().isolate(&[NodeId(2)]).unwrap();
    let ticket = cluster.raise_from(
        0,
        SystemEvent::Timer,
        Value::Null,
        RaiseTarget::Group(group),
    );
    std::thread::sleep(Duration::from_millis(100));
    cluster.net().heal();
    let summary = ticket.wait();
    assert_eq!(
        summary.delivered, 2,
        "retransmits must carry the probe across the heal: {summary:?}"
    );
    assert!(summary.all_delivered(), "{summary:?}");
    assert!(
        cluster.net().stats().retransmits() > 0,
        "delivery crossed the partition without retransmitting?"
    );

    let _ = near.join_timeout(Duration::from_secs(5));
    let _ = far.join_timeout(Duration::from_secs(5));
    assert!(cluster.await_quiescence(Duration::from_secs(5)));
    assert_ledger_balances(&cluster);
}

#[test]
fn batch_straddling_a_partition_heal_is_not_double_delivered() {
    // Three co-located group members make the probe wave a single
    // BatchEnvelope (one seq, one wire hop). The ack/receipt path back to
    // the raiser is cut, so the batch is retransmitted across the heal —
    // the duplicate must be suppressed whole and every member delivered
    // exactly once.
    let cluster = ClusterBuilder::new(2)
        .config(KernelConfig {
            delivery_timeout: Duration::from_secs(5),
            ..KernelConfig::default()
        })
        .reliable_with(
            fast_reliability(),
            FailureConfig {
                suspect_after: Duration::from_millis(500),
                dead_after: Duration::from_secs(10),
            },
        )
        .build();
    let group = cluster.create_group();
    let sleepers: Vec<_> = (0..3)
        .map(|_| spawn_sleeper(&cluster, 1, group, 1_500))
        .collect();
    std::thread::sleep(Duration::from_millis(60));

    // Probes flow 0 -> 1; acks and receipts are lost on the cut reverse
    // path, so the probe batch keeps retransmitting until the heal.
    cluster
        .net()
        .set_link_one_way(NodeId(1), NodeId(0), false)
        .unwrap();
    let ticket = cluster.raise_from(
        0,
        SystemEvent::Timer,
        Value::Null,
        RaiseTarget::Group(group),
    );
    std::thread::sleep(Duration::from_millis(150));
    cluster
        .net()
        .set_link_one_way(NodeId(1), NodeId(0), true)
        .unwrap();
    let summary = ticket.wait();

    assert!(
        cluster.net().stats().batches_sent() > 0,
        "three co-destined probes must ride a batch"
    );
    assert!(
        cluster.net().stats().dup_drops() > 0,
        "the unacked batch must have been retransmitted and suppressed"
    );
    assert_eq!(summary.delivered, 3, "{summary:?}");
    assert!(summary.all_delivered(), "{summary:?}");

    // Exactly-once: the delivered count must not move after the dust
    // settles — a replayed batch would inflate it.
    let delivered_before = delivery_counters(&cluster).1;
    std::thread::sleep(Duration::from_millis(300));
    let delivered_after = delivery_counters(&cluster).1;
    assert_eq!(
        delivered_before, delivered_after,
        "retransmitted batch must not re-deliver to any member"
    );

    for s in sleepers {
        let _ = s.join_timeout(Duration::from_secs(5));
    }
    assert!(cluster.await_quiescence(Duration::from_secs(5)));
    assert_ledger_balances(&cluster);
}

#[test]
fn dead_peer_call_fails_within_a_heartbeat_not_a_poll_slice() {
    // A remote invocation is in flight when the target node goes silent.
    // The death watcher must wake the caller the moment the failure
    // detector's verdict lands — the old implementation polled the peer
    // state in 20ms slices, quantizing the resolution latency; the fix
    // drops the caller's reply sender from the heartbeat thread, so the
    // blocked recv wakes in sub-slice time.
    let cluster = ClusterBuilder::new(2)
        .config(KernelConfig {
            invoke_timeout: Duration::from_secs(30),
            ..KernelConfig::default()
        })
        .reliable_with(
            fast_reliability(),
            FailureConfig {
                suspect_after: Duration::from_millis(30),
                dead_after: Duration::from_millis(80),
            },
        )
        .build();
    cluster.register_class(
        "blackhole",
        ClassBuilder::new("blackhole")
            .entry("swallow", |_ctx, _args| Ok(Value::Null))
            .build(),
    );
    let obj = cluster
        .create_object(doct_kernel::ObjectConfig::new("blackhole", NodeId(1)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));

    // Timestamp the dead verdict from a 1ms-granularity observer so the
    // caller's wake latency is measured from the verdict, not the cut.
    cluster.net().isolate(&[NodeId(1)]).unwrap();
    let verdict_watch = std::thread::spawn({
        let net = Arc::clone(cluster.net());
        move || loop {
            if net.peer_state(NodeId(0), NodeId(1)) == Some(PeerState::Dead) {
                return Instant::now();
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    });

    let attrs = ThreadAttributes::new(ThreadId::new(NodeId(0), 9_001), NodeId(0));
    let err = cluster
        .kernel(0)
        .call_remote(NodeId(1), obj, "swallow", Value::Null, attrs, 0)
        .expect_err("an isolated peer must fail the call");
    let failed_at = Instant::now();
    assert!(
        matches!(err, KernelError::NodeUnreachable(NodeId(1))),
        "want NodeUnreachable, got {err:?}"
    );

    let dead_at = verdict_watch.join().expect("verdict watcher");
    let wake_latency = failed_at.saturating_duration_since(dead_at);
    assert!(
        wake_latency < Duration::from_millis(20),
        "caller woke {wake_latency:?} after the dead verdict — \
         that is poll-slice latency, not a death-watcher wake"
    );
    let counters = cluster.telemetry().metrics().counters;
    assert!(
        counters
            .get("kernel.calls_failed_fast")
            .copied()
            .unwrap_or(0)
            >= 1,
        "the fast-fail path must account the dropped call"
    );

    cluster.net().heal();
}

#[test]
fn post_heal_surge_keeps_the_ledger_balanced() {
    // Partition, burst raises into the retransmit queue, heal: the queued
    // probes arrive at node 1 as one surge at a single sink thread. The
    // five-term ledger must balance exactly with receipts and sweeps
    // racing across the delivery shards.
    let cluster = ClusterBuilder::new(2)
        .config(KernelConfig {
            delivery_timeout: Duration::from_secs(5),
            ..KernelConfig::default()
        })
        .reliable_with(
            fast_reliability(),
            FailureConfig {
                suspect_after: Duration::from_millis(500),
                dead_after: Duration::from_secs(10),
            },
        )
        .build();
    let stop = Arc::new(AtomicBool::new(false));
    let s = Arc::clone(&stop);
    let sink = cluster
        .spawn_fn(1, move |_ctx| {
            while !s.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(Value::Null)
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(60));

    cluster.net().isolate(&[NodeId(1)]).unwrap();
    let tickets: Vec<_> = (0..200)
        .map(|_| cluster.raise_from(0, SystemEvent::Timer, Value::Null, sink.thread()))
        .collect();
    std::thread::sleep(Duration::from_millis(40));
    cluster.net().heal();
    for t in tickets {
        let _ = t.wait();
    }

    stop.store(true, Ordering::Relaxed);
    let _ = sink.join_timeout(Duration::from_secs(5));
    assert!(cluster.await_quiescence(Duration::from_secs(10)));
    assert_ledger_balances(&cluster);
}

#[test]
fn kernel_shutdown_mid_raise_resolves_receipts_as_lost() {
    // The receipt path (node 1 -> node 0) is cut one-way, so the probe
    // delivers but its receipt never returns; the tracker on node 0 stays
    // pending. Shutting node 0's kernel down must resolve it as Lost —
    // not leave the waiter hanging, not fake a timeout.
    let cluster = ClusterBuilder::new(2)
        .config(KernelConfig {
            delivery_timeout: Duration::from_secs(10),
            ..KernelConfig::default()
        })
        .build();
    let group = cluster.create_group();
    let sleeper = spawn_sleeper(&cluster, 1, group, 600);
    std::thread::sleep(Duration::from_millis(60));

    cluster
        .net()
        .set_link_one_way(NodeId(1), NodeId(0), false)
        .unwrap();
    let ticket = cluster.raise_from(0, SystemEvent::Timer, Value::Null, sleeper.thread());
    std::thread::sleep(Duration::from_millis(100));
    cluster.kernel(0).request_shutdown();

    let start = std::time::Instant::now();
    let summary = ticket.wait();
    assert_eq!(summary.lost, 1, "{summary:?}");
    assert_eq!(summary.delivered, 0, "{summary:?}");
    assert_eq!(summary.timed_out, 0, "lost must not masquerade as timeout");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown drain must resolve the waiter promptly, took {:?}",
        start.elapsed()
    );

    let (_, _, _, _, lost, _) = delivery_counters(&cluster);
    assert_eq!(lost, 1, "delivery.lost must record the drained tracker");
    assert_ledger_balances(&cluster);

    cluster.net().heal();
    let _ = sleeper.join_timeout(Duration::from_secs(5));
}
