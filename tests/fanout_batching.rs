//! The warm group raise, counted on the wire (DESIGN.md §3d).
//!
//! A 16-member group spread over 4 member nodes, raised at from a fifth
//! node under the multicast locator with the reliability layer on. Once
//! the location cache is warm, every member is reached by a hinted probe.
//! The kernel groups those probes per hosting node, so each node gets one
//! 4-probe batch, and each node's kernel loop answers the batch with one
//! 4-receipt batch. That is exactly 8 sealed batches of 4 payloads per
//! group raise. Single raises in between stay singles: they never seal a
//! batch and never hold one back.

use doct::prelude::*;
use doct_events::{AttachSpec, EventFacility, HandlerDecision};
use doct_kernel::{ClusterBuilder, LocationCacheConfig, SpawnOptions, ThreadHandle};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MEMBER_NODES: usize = 4;
const MEMBERS: usize = 16;
const WARM_RAISES: u64 = 3;
const RAISES: u64 = 20;

struct Rig {
    cluster: Cluster,
    group: ThreadGroupId,
    event: EventName,
    members: Vec<ThreadHandle>,
    handled: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
}

fn counter(cluster: &Cluster, name: &str) -> u64 {
    cluster
        .telemetry()
        .metrics()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Node 0 raises and hosts nobody; member `i` lives on node
/// `1 + i % MEMBER_NODES`, four to a node.
fn rig() -> Rig {
    let mut config = KernelConfig::with_locator(LocatorStrategy::Multicast);
    // A slow host must not turn a late receipt into a wave fallback:
    // the counts below are for the hinted path only.
    config.location_cache = LocationCacheConfig {
        hint_timeout: Duration::from_secs(5),
        ..LocationCacheConfig::default()
    };
    let cluster = ClusterBuilder::new(1 + MEMBER_NODES)
        .config(config)
        .reliable()
        .build();
    let facility = EventFacility::install(&cluster);
    let event = facility.register_event("FANOUT");
    let group = cluster.create_group();
    let handled = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let ready = Arc::new(AtomicU64::new(0));
    let members = (0..MEMBERS)
        .map(|i| {
            let (handled, stop, ready) =
                (Arc::clone(&handled), Arc::clone(&stop), Arc::clone(&ready));
            let options = SpawnOptions {
                group: Some(group),
                ..SpawnOptions::default()
            };
            cluster
                .spawn_fn_with(1 + i % MEMBER_NODES, options, move |ctx| {
                    ctx.attach_handler(
                        "FANOUT",
                        AttachSpec::proc("count", move |_c, _b| {
                            handled.fetch_add(1, Ordering::Relaxed);
                            HandlerDecision::Resume(Value::Null)
                        }),
                    );
                    ready.fetch_add(1, Ordering::SeqCst);
                    while !stop.load(Ordering::Relaxed) {
                        ctx.sleep(Duration::from_millis(20))?;
                    }
                    Ok(Value::Null)
                })
                .expect("spawn member")
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while ready.load(Ordering::SeqCst) < MEMBERS as u64 {
        assert!(Instant::now() < deadline, "members not ready in 10 s");
        std::thread::sleep(Duration::from_millis(1));
    }
    let rig = Rig {
        cluster,
        group,
        event,
        members,
        handled,
        stop,
    };
    // The cold raises locate every member by multicast wave and teach
    // node 0's cache where each one lives.
    for _ in 0..WARM_RAISES {
        rig.raise_group();
    }
    rig
}

impl Rig {
    fn raise_group(&self) {
        let summary = self
            .cluster
            .raise_from(0, self.event.clone(), Value::Null, self.group)
            .wait();
        assert_eq!(summary.delivered, MEMBERS, "{summary:?}");
        assert!(summary.all_delivered(), "{summary:?}");
    }

    fn raise_one(&self, member: usize) {
        let target = self.members[member].thread();
        let summary = self
            .cluster
            .raise_from(0, self.event.clone(), Value::Null, target)
            .wait();
        assert_eq!(summary.delivered, 1, "{summary:?}");
    }

    /// `(batches sealed, payloads in them, hint probes)` so far.
    fn wire_counts(&self) -> (u64, u64, u64) {
        let stats = self.cluster.net().stats();
        (
            stats.batches_sent(),
            stats.batch_fill().sum_ns(),
            stats.hint_unicasts(),
        )
    }

    /// Every raise resolved, every delivery ran its handler once, and
    /// the five-term ledger balances.
    fn settle_and_check(self) {
        let delivered = counter(&self.cluster, "delivery.delivered");
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.handled.load(Ordering::Relaxed) < delivered && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            self.handled.load(Ordering::Relaxed),
            delivered,
            "handler invocations == delivered"
        );
        let requested = counter(&self.cluster, "delivery.requested");
        let resolved = delivered
            + counter(&self.cluster, "delivery.dead")
            + counter(&self.cluster, "delivery.timeout")
            + counter(&self.cluster, "delivery.lost")
            + counter(&self.cluster, "delivery.overloaded");
        assert_eq!(requested, resolved, "five-term ledger out of balance");
        self.stop.store(true, Ordering::Relaxed);
        for member in self.members {
            let _ = member.join_timeout(Duration::from_secs(5));
        }
    }
}

fn assert_batched(before: (u64, u64, u64), after: (u64, u64, u64), group_raises: u64) {
    let (batches, fill, hints) = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    assert_eq!(
        batches,
        8 * group_raises,
        "one probe batch out and one receipt batch back per member node"
    );
    assert_eq!(fill, 4 * batches, "every batch carries 4 payloads");
    assert_eq!(
        hints,
        MEMBERS as u64 * group_raises,
        "one hint probe per member"
    );
}

#[test]
fn warm_group_raise_costs_one_batch_each_way_per_node() {
    let rig = rig();
    let before = rig.wire_counts();
    for _ in 0..RAISES {
        rig.raise_group();
    }
    assert_batched(before, rig.wire_counts(), RAISES);
    rig.settle_and_check();
}

/// A single raise between group raises: its probe and receipt travel as
/// singles, and the group raises still batch exactly as before.
#[test]
fn single_raises_between_group_raises_never_seal_or_hold_a_batch() {
    let rig = rig();
    let before = rig.wire_counts();
    for k in 0..RAISES {
        rig.raise_one(k as usize % MEMBERS);
        rig.raise_group();
    }
    // Each single raise adds one hint probe and no batch.
    let (batches, fill, hints) = rig.wire_counts();
    assert_batched(before, (batches, fill, hints - RAISES), RAISES);
    rig.settle_and_check();
}
