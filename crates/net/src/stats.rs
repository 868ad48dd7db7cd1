//! Network statistics: the measurement instrument for the communication
//! cost experiments.

use crate::MessageClass;
use doct_telemetry::{Counter, Histogram, Registry};
use std::fmt;
use std::time::Duration;

fn class_slot(class: MessageClass) -> usize {
    match class {
        MessageClass::Invocation => 0,
        MessageClass::Dsm => 1,
        MessageClass::Event => 2,
        MessageClass::Locate => 3,
        MessageClass::Control => 4,
        MessageClass::Data => 5,
    }
}

fn class_name(class: MessageClass) -> &'static str {
    match class {
        MessageClass::Invocation => "invocation",
        MessageClass::Dsm => "dsm",
        MessageClass::Event => "event",
        MessageClass::Locate => "locate",
        MessageClass::Control => "control",
        MessageClass::Data => "data",
    }
}

/// Counters shared by every sender on a [`crate::Network`].
///
/// Backed by telemetry [`Counter`] handles; a stats block built with
/// [`NetStats::bound`] shares storage with the named series in a
/// [`Registry`] (`net.sent.<class>`, `net.bytes.<class>`, …), so metric
/// snapshots and these accessors always agree. All counters are
/// monotonically increasing; use [`NetStats::snapshot`] before and after
/// the region of interest and subtract, or [`NetStats::reset`] between
/// runs (benches do the latter).
#[derive(Debug, Default)]
pub struct NetStats {
    sent: [Counter; 6],
    bytes: [Counter; 6],
    broadcasts: Counter,
    multicasts: Counter,
    /// Unicast probes sent on a location-cache hint instead of a locator
    /// wave. Each also counts a normal per-class send; this series
    /// isolates how often the fast path fires.
    hint_unicasts: Counter,
    /// Backpressure signals noted from overloaded peers (each starts or
    /// extends a source-shedding hold toward that peer). The signal rides
    /// delivery receipts, so this counts observations, not extra wire
    /// messages.
    backpressure_signals: Counter,
    dropped: Counter,
    /// Physical transmissions (first sends and retransmissions alike).
    /// A batch counts once however many payloads it carries, so
    /// `wire_msgs` vs per-class `sent` is the batching win (E12).
    wire_msgs: Counter,
    /// Batches sealed from a `send_many` call (2+ payloads each; a lone
    /// payload goes out as a plain envelope and does not count).
    batches_sent: Counter,
    /// Payloads per sealed batch, recorded as raw units (not time).
    batch_fill: Histogram,
    /// Acks saved by cumulative acknowledgement: each ack covering a
    /// contiguous run of `n` transfers adds `n - 1` here.
    acks_coalesced: Counter,
    // Reliability-layer series. Retransmissions and acks are deliberately
    // *not* folded into the per-class send counts above: the experiments
    // read those as protocol cost, and the reliability layer's overhead
    // is a separate question answered by these counters (E11).
    retransmits: Counter,
    acks: Counter,
    dup_drops: Counter,
    giveups: Counter,
    heartbeats: Counter,
    suspects: Counter,
    deaths: Counter,
    ack_latency: Histogram,
    /// Payload bytes deep-copied in-process (mirrored from
    /// [`crate::Bytes::deep_copied_bytes`] by benches; zero while the
    /// raise/deliver hot path stays on shared buffers, DESIGN.md §3g).
    bytes_copied: Counter,
    /// Datagrams rejected at delivery/receive admission: a transfer
    /// claiming the best-effort `seq: 0` while reliability is on, or a
    /// frame misaddressed / naming out-of-range node ids on the socket
    /// backend. A hostile peer shows up here, never as a panic.
    wire_rejects: Counter,
    /// Received datagrams that failed the wire codec (truncated,
    /// oversized, bad magic/kind/class, zero-seq batch) plus transfers
    /// the codec refused to encode; socket backend only.
    codec_errors: Counter,
    /// Envelope-pool takes served from the free list (no allocation).
    pool_hits: Counter,
    /// Envelope-pool takes that had to allocate a fresh buffer.
    pool_misses: Counter,
    /// Buffers returned to the pool free list on ACK-retire or
    /// delivery-unpack.
    pool_recycled: Counter,
}

impl NetStats {
    /// New zeroed counters, not attached to any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters that share storage with the registry's named series.
    pub fn bound(registry: &Registry) -> Self {
        NetStats {
            sent: MessageClass::ALL
                .map(|c| registry.counter(&format!("net.sent.{}", class_name(c)))),
            bytes: MessageClass::ALL
                .map(|c| registry.counter(&format!("net.bytes.{}", class_name(c)))),
            broadcasts: registry.counter("net.broadcasts"),
            multicasts: registry.counter("net.multicasts"),
            hint_unicasts: registry.counter("net.hint_unicasts"),
            backpressure_signals: registry.counter("net.backpressure_signals"),
            dropped: registry.counter("net.dropped"),
            wire_msgs: registry.counter("net.wire_msgs"),
            batches_sent: registry.counter("net.batches_sent"),
            batch_fill: registry.histogram("net.batch_fill"),
            acks_coalesced: registry.counter("net.acks_coalesced"),
            retransmits: registry.counter("net.retransmits"),
            acks: registry.counter("net.acks"),
            dup_drops: registry.counter("net.dup_drops"),
            giveups: registry.counter("net.giveups"),
            heartbeats: registry.counter("net.heartbeats"),
            suspects: registry.counter("net.suspects"),
            deaths: registry.counter("net.deaths"),
            ack_latency: registry.histogram("net.ack_latency"),
            bytes_copied: registry.counter("net.bytes_copied"),
            wire_rejects: registry.counter("net.wire_rejects"),
            codec_errors: registry.counter("net.codec_errors"),
            pool_hits: registry.counter("net.pool_hits"),
            pool_misses: registry.counter("net.pool_misses"),
            pool_recycled: registry.counter("net.pool_recycled"),
        }
    }

    pub(crate) fn record_send(&self, class: MessageClass, bytes: usize) {
        let i = class_slot(class);
        self.sent[i].inc();
        self.bytes[i].add(bytes as u64);
    }

    /// Count one broadcast operation. Public so a caller that expands a
    /// broadcast wave itself (to hand the fabric co-destined payloads in
    /// one [`crate::Network::send_many`] batch) can keep the operation
    /// count consistent with [`crate::Network::broadcast`].
    pub fn record_broadcast(&self) {
        self.broadcasts.inc();
    }

    /// Count one multicast operation (see [`NetStats::record_broadcast`]
    /// for why this is public).
    pub fn record_multicast(&self) {
        self.multicasts.inc();
    }

    /// Count one hint-cache unicast probe (see
    /// [`NetStats::record_broadcast`] for why this is public).
    pub fn record_hint_unicast(&self) {
        self.hint_unicasts.inc();
    }

    /// Count one backpressure signal noted from an overloaded peer (via
    /// [`crate::Network::note_backpressure`]).
    pub fn record_backpressure(&self) {
        self.backpressure_signals.inc();
    }

    pub(crate) fn record_drop(&self) {
        self.dropped.inc();
    }

    pub(crate) fn record_wire_msg(&self) {
        self.wire_msgs.inc();
    }

    pub(crate) fn record_batch(&self, fill: usize) {
        self.batches_sent.inc();
        self.batch_fill.record_ns(fill as u64);
    }

    pub(crate) fn record_retransmit(&self) {
        self.retransmits.inc();
    }

    pub(crate) fn record_ack(&self, latency: Duration) {
        self.acks.inc();
        self.ack_latency.record(latency);
    }

    /// Round-trip latency of one transfer retired by a (possibly
    /// cumulative) ack; the ack itself is counted by
    /// [`NetStats::record_cumulative_ack`] once per contiguous run.
    pub(crate) fn record_ack_rtt(&self, latency: Duration) {
        self.ack_latency.record(latency);
    }

    /// One ack message covering a contiguous run that retired `retired`
    /// transfers.
    pub(crate) fn record_cumulative_ack(&self, retired: u64) {
        self.acks.inc();
        if retired > 1 {
            self.acks_coalesced.add(retired - 1);
        }
    }

    pub(crate) fn record_dup_drop(&self) {
        self.dup_drops.inc();
    }

    /// Record `n` payload bytes deep-copied in-process. Public so
    /// benches can mirror the process-wide [`crate::Bytes`] copy counter
    /// into this registry's `net.bytes_copied` series.
    pub fn record_bytes_copied(&self, n: u64) {
        self.bytes_copied.add(n);
    }

    pub(crate) fn record_wire_reject(&self) {
        self.wire_rejects.inc();
    }

    pub(crate) fn record_codec_error(&self) {
        self.codec_errors.inc();
    }

    pub(crate) fn record_pool_hit(&self) {
        self.pool_hits.inc();
    }

    pub(crate) fn record_pool_miss(&self) {
        self.pool_misses.inc();
    }

    pub(crate) fn record_pool_recycle(&self) {
        self.pool_recycled.inc();
    }

    pub(crate) fn record_giveup(&self) {
        self.giveups.inc();
    }

    /// Handles for the failure detector's transition counters; cloned
    /// [`Counter`]s share storage, so detector activity lands in the same
    /// series these accessors read.
    pub(crate) fn detector_counters(&self) -> (Counter, Counter, Counter) {
        (
            self.heartbeats.clone(),
            self.suspects.clone(),
            self.deaths.clone(),
        )
    }

    /// Messages sent in `class` since construction or the last reset.
    pub fn sent(&self, class: MessageClass) -> u64 {
        self.sent[class_slot(class)].get()
    }

    /// Bytes sent in `class` since construction or the last reset.
    pub fn bytes(&self, class: MessageClass) -> u64 {
        self.bytes[class_slot(class)].get()
    }

    /// Total messages across all classes.
    pub fn total_sent(&self) -> u64 {
        MessageClass::ALL.iter().map(|&c| self.sent(c)).sum()
    }

    /// Total bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        MessageClass::ALL.iter().map(|&c| self.bytes(c)).sum()
    }

    /// Broadcast operations performed (each also counts its per-node sends).
    pub fn broadcasts(&self) -> u64 {
        self.broadcasts.get()
    }

    /// Multicast operations performed (each also counts its per-node sends).
    pub fn multicasts(&self) -> u64 {
        self.multicasts.get()
    }

    /// Hint-cache unicast probes sent in place of a locator wave.
    pub fn hint_unicasts(&self) -> u64 {
        self.hint_unicasts.get()
    }

    /// Backpressure signals noted from overloaded peers.
    pub fn backpressure_signals(&self) -> u64 {
        self.backpressure_signals.get()
    }

    /// Messages dropped by cut links or partitions.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Physical wire transmissions (a batch counts once).
    pub fn wire_msgs(&self) -> u64 {
        self.wire_msgs.get()
    }

    /// Batches sealed and sent (2+ payloads each).
    pub fn batches_sent(&self) -> u64 {
        self.batches_sent.get()
    }

    /// Payloads-per-batch distribution (values are counts, not time).
    pub fn batch_fill(&self) -> &Histogram {
        &self.batch_fill
    }

    /// Acks saved by cumulative acknowledgement.
    pub fn acks_coalesced(&self) -> u64 {
        self.acks_coalesced.get()
    }

    /// Retransmission attempts made by the reliability layer.
    pub fn retransmits(&self) -> u64 {
        self.retransmits.get()
    }

    /// Acknowledgements received for reliable sends.
    pub fn acks(&self) -> u64 {
        self.acks.get()
    }

    /// Retransmitted duplicates suppressed at the receiver.
    pub fn dup_drops(&self) -> u64 {
        self.dup_drops.get()
    }

    /// Reliable envelopes abandoned after exhausting their retries.
    pub fn giveups(&self) -> u64 {
        self.giveups.get()
    }

    /// Heartbeat probes exchanged by the failure detector.
    pub fn heartbeats(&self) -> u64 {
        self.heartbeats.get()
    }

    /// Alive→Suspected transitions observed by the failure detector.
    pub fn suspects(&self) -> u64 {
        self.suspects.get()
    }

    /// Transitions into the Dead verdict.
    pub fn deaths(&self) -> u64 {
        self.deaths.get()
    }

    /// Send→ack round-trip latency of reliable envelopes.
    pub fn ack_latency(&self) -> &Histogram {
        &self.ack_latency
    }

    /// Payload bytes deep-copied in-process (bench-mirrored).
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied.get()
    }

    /// Datagrams rejected at delivery/receive admission (zero-seq
    /// reliable traffic, misaddressed or out-of-range frames).
    pub fn wire_rejects(&self) -> u64 {
        self.wire_rejects.get()
    }

    /// Received datagrams that failed the wire codec, plus transfers the
    /// codec refused to encode (socket backend).
    pub fn codec_errors(&self) -> u64 {
        self.codec_errors.get()
    }

    /// Envelope-pool takes served from the free list.
    pub fn pool_hits(&self) -> u64 {
        self.pool_hits.get()
    }

    /// Envelope-pool takes that allocated a fresh buffer.
    pub fn pool_misses(&self) -> u64 {
        self.pool_misses.get()
    }

    /// Buffers recycled back into the envelope pool.
    pub fn pool_recycled(&self) -> u64 {
        self.pool_recycled.get()
    }

    /// Zero all counters.
    pub fn reset(&self) {
        for i in 0..6 {
            self.sent[i].reset();
            self.bytes[i].reset();
        }
        self.broadcasts.reset();
        self.multicasts.reset();
        self.hint_unicasts.reset();
        self.backpressure_signals.reset();
        self.dropped.reset();
        self.wire_msgs.reset();
        self.batches_sent.reset();
        self.batch_fill.reset();
        self.acks_coalesced.reset();
        self.retransmits.reset();
        self.acks.reset();
        self.dup_drops.reset();
        self.giveups.reset();
        self.heartbeats.reset();
        self.suspects.reset();
        self.deaths.reset();
        self.ack_latency.reset();
        self.bytes_copied.reset();
        self.wire_rejects.reset();
        self.codec_errors.reset();
        self.pool_hits.reset();
        self.pool_misses.reset();
        self.pool_recycled.reset();
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            sent: MessageClass::ALL.map(|c| self.sent(c)),
            bytes: MessageClass::ALL.map(|c| self.bytes(c)),
            broadcasts: self.broadcasts(),
            multicasts: self.multicasts(),
            hint_unicasts: self.hint_unicasts(),
            dropped: self.dropped(),
            wire_msgs: self.wire_msgs(),
            batches_sent: self.batches_sent(),
            acks_coalesced: self.acks_coalesced(),
            bytes_copied: self.bytes_copied(),
            pool_hits: self.pool_hits(),
            pool_misses: self.pool_misses(),
            pool_recycled: self.pool_recycled(),
        }
    }
}

/// Plain-data copy of [`NetStats`] counters; subtract two snapshots to get
/// the traffic of a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    sent: [u64; 6],
    bytes: [u64; 6],
    broadcasts: u64,
    multicasts: u64,
    hint_unicasts: u64,
    dropped: u64,
    wire_msgs: u64,
    batches_sent: u64,
    acks_coalesced: u64,
    bytes_copied: u64,
    pool_hits: u64,
    pool_misses: u64,
    pool_recycled: u64,
}

impl StatsSnapshot {
    /// Messages sent in `class`.
    pub fn sent(&self, class: MessageClass) -> u64 {
        self.sent[class_slot(class)]
    }

    /// Bytes sent in `class`.
    pub fn bytes(&self, class: MessageClass) -> u64 {
        self.bytes[class_slot(class)]
    }

    /// Total messages across all classes.
    pub fn total_sent(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Total bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Broadcast operations.
    pub fn broadcasts(&self) -> u64 {
        self.broadcasts
    }

    /// Multicast operations.
    pub fn multicasts(&self) -> u64 {
        self.multicasts
    }

    /// Hint-cache unicast probes.
    pub fn hint_unicasts(&self) -> u64 {
        self.hint_unicasts
    }

    /// Dropped messages.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Physical wire transmissions (a batch counts once).
    pub fn wire_msgs(&self) -> u64 {
        self.wire_msgs
    }

    /// Batches sealed and sent.
    pub fn batches_sent(&self) -> u64 {
        self.batches_sent
    }

    /// Acks saved by cumulative acknowledgement.
    pub fn acks_coalesced(&self) -> u64 {
        self.acks_coalesced
    }

    /// Payload bytes deep-copied in-process.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    /// Envelope-pool takes served from the free list.
    pub fn pool_hits(&self) -> u64 {
        self.pool_hits
    }

    /// Envelope-pool takes that allocated a fresh buffer.
    pub fn pool_misses(&self) -> u64 {
        self.pool_misses
    }

    /// Buffers recycled back into the envelope pool.
    pub fn pool_recycled(&self) -> u64 {
        self.pool_recycled
    }

    /// Traffic between this snapshot (earlier) and `later`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `later` is not component-wise `>= self`
    /// (snapshots are from monotone counters unless `reset` intervened).
    pub fn delta(&self, later: &StatsSnapshot) -> StatsSnapshot {
        let mut out = StatsSnapshot::default();
        for i in 0..6 {
            debug_assert!(later.sent[i] >= self.sent[i], "non-monotone snapshot");
            out.sent[i] = later.sent[i] - self.sent[i];
            out.bytes[i] = later.bytes[i] - self.bytes[i];
        }
        out.broadcasts = later.broadcasts - self.broadcasts;
        out.multicasts = later.multicasts - self.multicasts;
        out.hint_unicasts = later.hint_unicasts - self.hint_unicasts;
        out.dropped = later.dropped - self.dropped;
        out.wire_msgs = later.wire_msgs - self.wire_msgs;
        out.batches_sent = later.batches_sent - self.batches_sent;
        out.acks_coalesced = later.acks_coalesced - self.acks_coalesced;
        out.bytes_copied = later.bytes_copied - self.bytes_copied;
        out.pool_hits = later.pool_hits - self.pool_hits;
        out.pool_misses = later.pool_misses - self.pool_misses;
        out.pool_recycled = later.pool_recycled - self.pool_recycled;
        out
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "msgs={} bytes={}", self.total_sent(), self.total_bytes())?;
        for c in MessageClass::ALL {
            if self.sent(c) > 0 {
                write!(f, " {}={}", c, self.sent(c))?;
            }
        }
        if self.dropped > 0 {
            write!(f, " dropped={}", self.dropped)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_class() {
        let s = NetStats::new();
        s.record_send(MessageClass::Event, 100);
        s.record_send(MessageClass::Event, 50);
        s.record_send(MessageClass::Dsm, 4096);
        assert_eq!(s.sent(MessageClass::Event), 2);
        assert_eq!(s.bytes(MessageClass::Event), 150);
        assert_eq!(s.sent(MessageClass::Dsm), 1);
        assert_eq!(s.total_sent(), 3);
        assert_eq!(s.total_bytes(), 4246);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = NetStats::new();
        s.record_send(MessageClass::Locate, 64);
        s.record_broadcast();
        s.record_drop();
        s.reset();
        assert_eq!(s.total_sent(), 0);
        assert_eq!(s.broadcasts(), 0);
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn snapshot_delta_isolates_a_region() {
        let s = NetStats::new();
        s.record_send(MessageClass::Control, 64);
        let before = s.snapshot();
        s.record_send(MessageClass::Locate, 64);
        s.record_send(MessageClass::Locate, 64);
        s.record_multicast();
        let after = s.snapshot();
        let d = before.delta(&after);
        assert_eq!(d.sent(MessageClass::Locate), 2);
        assert_eq!(d.sent(MessageClass::Control), 0);
        assert_eq!(d.multicasts(), 1);
    }

    #[test]
    fn hint_unicasts_are_tracked_and_reset() {
        let registry = Registry::new();
        let s = NetStats::bound(&registry);
        let before = s.snapshot();
        s.record_hint_unicast();
        s.record_hint_unicast();
        assert_eq!(s.hint_unicasts(), 2);
        assert_eq!(before.delta(&s.snapshot()).hint_unicasts(), 2);
        assert_eq!(registry.snapshot().counters["net.hint_unicasts"], 2);
        s.reset();
        assert_eq!(s.hint_unicasts(), 0);
    }

    #[test]
    fn backpressure_signals_are_tracked_and_reset() {
        let registry = Registry::new();
        let s = NetStats::bound(&registry);
        s.record_backpressure();
        s.record_backpressure();
        assert_eq!(s.backpressure_signals(), 2);
        assert_eq!(registry.snapshot().counters["net.backpressure_signals"], 2);
        s.reset();
        assert_eq!(s.backpressure_signals(), 0);
    }

    #[test]
    fn bound_stats_share_storage_with_registry() {
        let registry = Registry::new();
        let s = NetStats::bound(&registry);
        s.record_send(MessageClass::Event, 100);
        s.record_broadcast();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["net.sent.event"], 1);
        assert_eq!(snap.counters["net.bytes.event"], 100);
        assert_eq!(snap.counters["net.broadcasts"], 1);
        // The registry handle and the stats block are the same series.
        registry.counter("net.sent.event").inc();
        assert_eq!(s.sent(MessageClass::Event), 2);
    }

    #[test]
    fn reliability_counters_bind_to_registry_names() {
        let registry = Registry::new();
        let s = NetStats::bound(&registry);
        s.record_retransmit();
        s.record_ack(Duration::from_micros(5));
        s.record_dup_drop();
        s.record_giveup();
        let (hb, su, de) = s.detector_counters();
        hb.inc();
        su.inc();
        de.inc();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["net.retransmits"], 1);
        assert_eq!(snap.counters["net.acks"], 1);
        assert_eq!(snap.counters["net.dup_drops"], 1);
        assert_eq!(snap.counters["net.giveups"], 1);
        assert_eq!(snap.counters["net.heartbeats"], 1);
        assert_eq!(snap.counters["net.suspects"], 1);
        assert_eq!(snap.counters["net.deaths"], 1);
        assert_eq!(s.heartbeats(), 1);
        assert_eq!(s.ack_latency().count(), 1);
        s.reset();
        assert_eq!(s.retransmits() + s.acks() + s.suspects(), 0);
        assert_eq!(s.ack_latency().count(), 0);
    }

    #[test]
    fn batching_counters_bind_snapshot_and_reset() {
        let registry = Registry::new();
        let s = NetStats::bound(&registry);
        let before = s.snapshot();
        s.record_wire_msg();
        s.record_wire_msg();
        s.record_batch(4);
        s.record_ack_rtt(Duration::from_micros(3));
        s.record_cumulative_ack(3);
        assert_eq!(s.wire_msgs(), 2);
        assert_eq!(s.batches_sent(), 1);
        assert_eq!(s.batch_fill().count(), 1);
        assert_eq!(s.batch_fill().max_ns(), 4, "fill is recorded as raw units");
        assert_eq!(s.acks(), 1, "a cumulative ack is one ack message");
        assert_eq!(s.acks_coalesced(), 2, "covering 3 transfers saves 2 acks");
        assert_eq!(s.ack_latency().count(), 1);
        let d = before.delta(&s.snapshot());
        assert_eq!(
            (d.wire_msgs(), d.batches_sent(), d.acks_coalesced()),
            (2, 1, 2)
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counters["net.wire_msgs"], 2);
        assert_eq!(snap.counters["net.batches_sent"], 1);
        assert_eq!(snap.counters["net.acks_coalesced"], 2);
        s.reset();
        assert_eq!(s.wire_msgs() + s.batches_sent() + s.acks_coalesced(), 0);
        assert_eq!(s.batch_fill().count(), 0);
    }

    #[test]
    fn pool_and_copy_counters_bind_snapshot_and_reset() {
        let registry = Registry::new();
        let s = NetStats::bound(&registry);
        let before = s.snapshot();
        s.record_bytes_copied(4096);
        s.record_pool_hit();
        s.record_pool_hit();
        s.record_pool_miss();
        s.record_pool_recycle();
        assert_eq!(s.bytes_copied(), 4096);
        assert_eq!(s.pool_hits(), 2);
        assert_eq!(s.pool_misses(), 1);
        assert_eq!(s.pool_recycled(), 1);
        let d = before.delta(&s.snapshot());
        assert_eq!(
            (
                d.bytes_copied(),
                d.pool_hits(),
                d.pool_misses(),
                d.pool_recycled()
            ),
            (4096, 2, 1, 1)
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counters["net.bytes_copied"], 4096);
        assert_eq!(snap.counters["net.pool_hits"], 2);
        assert_eq!(snap.counters["net.pool_misses"], 1);
        assert_eq!(snap.counters["net.pool_recycled"], 1);
        s.reset();
        assert_eq!(
            s.bytes_copied() + s.pool_hits() + s.pool_misses() + s.pool_recycled(),
            0
        );
    }

    #[test]
    fn wire_reject_and_codec_error_counters_bind_and_reset() {
        let registry = Registry::new();
        let s = NetStats::bound(&registry);
        s.record_wire_reject();
        s.record_codec_error();
        s.record_codec_error();
        assert_eq!(s.wire_rejects(), 1);
        assert_eq!(s.codec_errors(), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["net.wire_rejects"], 1);
        assert_eq!(snap.counters["net.codec_errors"], 2);
        s.reset();
        assert_eq!(s.wire_rejects() + s.codec_errors(), 0);
    }

    #[test]
    fn display_lists_only_nonzero_classes() {
        let s = NetStats::new();
        s.record_send(MessageClass::Event, 10);
        let text = s.snapshot().to_string();
        assert!(text.contains("event=1"), "got: {text}");
        assert!(!text.contains("dsm="), "got: {text}");
    }
}
