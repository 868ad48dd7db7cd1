//! Acknowledged, retried transport: the reliability layer under the
//! kernel's remote paths.
//!
//! When enabled (see `Network::enable_reliability`), every unicast send
//! is stamped with a cluster-unique non-zero sequence number and tracked
//! in a retransmit queue. Delivery into the destination mailbox generates
//! a (simulated) acknowledgement that retires the entry — but only if the
//! reverse link is up when the ack goes out, so a one-way partition loses
//! ACKs exactly like a real network. Unacked entries are retransmitted
//! with exponential backoff plus seeded jitter until `max_retries`
//! attempts, after which the entry is abandoned (`net.giveups`) and the
//! failure detector is told. The receiver deduplicates by sequence
//! number, so retried traffic stays exactly-once from the kernel's point
//! of view.
//!
//! # Batched fan-out
//!
//! With batching on (the default), the payloads of one
//! `Network::send_many` call seal at once into [`BatchEnvelope`]s of at
//! most `batch_max` payloads, each crossing the wire under one sequence
//! number: one tracked entry, one retransmission unit, one dedupe
//! decision. A lone `Network::send` seals a plain envelope, so nothing
//! ever waits for company and no flush deadline exists. Co-destined
//! traffic is grouped by the caller that knows it belongs together: the
//! kernel groups a raise's probes per node, and its loop groups the
//! receipts a delivered batch produces (DESIGN.md §3d). Acks are
//! cumulative: delivered seqs buffer per direction and one flush retires
//! every contiguous run with a single ack message (`net.acks_coalesced`
//! counts the savings).

use crate::envelope::Transfer;
use crate::pool::BufferPool;
use crate::{BatchEnvelope, Envelope, MessageClass, NetStats, NodeId};
use parking_lot::{Condvar, Mutex};
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Domain tag for the retransmit-jitter RNG stream (see `crate::seed`).
const JITTER_RNG_DOMAIN: u64 = 0x6A69_7474; // "jitt"

/// Knobs for the ack/retransmit machinery and its maintenance thread.
#[derive(Debug, Clone, Copy)]
pub struct ReliabilityConfig {
    /// Retransmit attempts before giving an envelope up for lost.
    pub max_retries: u32,
    /// Backoff before the first retransmission; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Uniform jitter added to each backoff, de-synchronising storms.
    /// Sampled from the seeded fabric RNG so the chaos soak replays.
    pub jitter: Duration,
    /// Maintenance thread tick: the *longest* the thread sleeps between
    /// scans. It wakes earlier whenever a retransmit deadline or a
    /// pending ack is due sooner.
    pub tick: Duration,
    /// Gap between heartbeat rounds of the failure detector.
    pub heartbeat_interval: Duration,
    /// Per-(src,dst) seqs remembered for dedupe; older seqs fall out and
    /// would be re-delivered, so this must exceed the retransmit window.
    /// Enforced by [`ReliabilityConfig::validate`] at enable time.
    pub dedupe_window: usize,
    /// Coalesce co-destined payloads into [`BatchEnvelope`]s and use
    /// cumulative acks. On by default; switch off with
    /// [`ReliabilityConfig::with_batching`] for ablation.
    pub batching: bool,
    /// Most payloads per sealed batch: a larger `send_many` splits into
    /// chunks of this size.
    pub batch_max: usize,
    /// Explicit seed for the jitter RNG; `None` derives one from the
    /// session seed (see `crate::seed`), keeping retransmit ordering
    /// reproducible.
    pub rng_seed: Option<u64>,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            max_retries: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            jitter: Duration::from_millis(5),
            tick: Duration::from_millis(5),
            heartbeat_interval: Duration::from_millis(20),
            dedupe_window: 1024,
            batching: true,
            batch_max: 32,
            rng_seed: None,
        }
    }
}

impl ReliabilityConfig {
    /// Builder-style ablation switch for the batched fan-out path.
    pub fn with_batching(mut self, on: bool) -> Self {
        self.batching = on;
        self
    }

    /// Check the config for footguns. The fabric refuses to enable
    /// reliability on an invalid config instead of silently risking
    /// duplicate delivery.
    ///
    /// # Errors
    ///
    /// A static description of the first violated constraint:
    /// `dedupe_window` must cover the retransmit window (at least
    /// `4 * (max_retries + 1)` seqs) and, with batching on, at least
    /// `4 * batch_max`; `batch_max` must be non-zero.
    pub fn validate(&self) -> Result<(), &'static str> {
        let retransmit_floor = 4 * (self.max_retries as usize + 1);
        if self.dedupe_window < retransmit_floor {
            return Err("dedupe_window is smaller than the retransmit window \
                 (need at least 4 * (max_retries + 1)): late retransmissions \
                 of an evicted seq would be re-delivered");
        }
        if self.batching {
            if self.batch_max == 0 {
                return Err("batch_max must be at least 1 when batching is on");
            }
            if self.dedupe_window < 4 * self.batch_max {
                return Err("dedupe_window must be at least 4 * batch_max: a burst of \
                     max-fill batches would evict seqs still in the \
                     retransmit window");
            }
        }
        Ok(())
    }
}

/// An unacknowledged transfer awaiting (re)transmission.
struct Inflight<M> {
    transfer: Transfer<M>,
    attempts: u32,
    backoff: Duration,
    next_retry: Instant,
    first_sent: Instant,
}

/// Seqs already delivered for one (src, dst) direction: a ring plus a
/// set for O(1) membership. Bounded; the window must outlast the longest
/// retransmit tail (checked by [`ReliabilityConfig::validate`]).
#[derive(Default)]
struct SeenWindow {
    order: VecDeque<u64>,
    members: HashSet<u64>,
}

impl SeenWindow {
    /// Record `seq`; returns `false` (duplicate) if already present.
    fn insert(&mut self, seq: u64, cap: usize) -> bool {
        if !self.members.insert(seq) {
            return false;
        }
        self.order.push_back(seq);
        while self.order.len() > cap {
            if let Some(old) = self.order.pop_front() {
                self.members.remove(&old);
            }
        }
        true
    }

    fn remove(&mut self, seq: u64) {
        if self.members.remove(&seq) {
            self.order.retain(|&s| s != seq);
        }
    }
}

/// Shared state of the reliability layer: the sequence allocator, the
/// retransmit queue, the receiver-side dedupe windows, the batch chunk
/// pool, and the pending-ack coalescer.
pub(crate) struct ReliableState<M> {
    cfg: ReliabilityConfig,
    next_seq: AtomicU64,
    inflight: Mutex<HashMap<u64, Inflight<M>>>,
    /// Keyed by (src, dst) so each direction dedupes independently.
    seen: Mutex<HashMap<(u32, u32), SeenWindow>>,
    /// Delivered-but-unflushed ack seqs per (src, dst) data direction
    /// (batching only; the immediate [`ReliableState::ack`] path is used
    /// when batching is off).
    pending_acks: Mutex<HashMap<(u32, u32), Vec<u64>>>,
    /// Free-list pool for sealed batch chunks (DESIGN.md §3g). Chunks
    /// are taken at seal time and recycled on ACK-retire, give-up, and
    /// delivery-unpack; the free-list mutex is a leaf lock (see
    /// `crate::pool`).
    pool: BufferPool<(MessageClass, M)>,
    /// Seeded jitter RNG: retransmit ordering replays under a fixed
    /// session seed (see `crate::seed`).
    rng: Mutex<rand::rngs::StdRng>,
    /// Wakeup flag + condvar for the maintenance thread: set whenever new
    /// work (a tracked entry, a pending ack) may move the earliest
    /// deadline forward.
    wake: Mutex<bool>,
    wake_cond: Condvar,
}

impl<M> fmt::Debug for ReliableState<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReliableState")
            .field("cfg", &self.cfg)
            .field("inflight", &self.inflight.lock().len())
            .finish_non_exhaustive()
    }
}

impl<M> ReliableState<M> {
    pub(crate) fn new(cfg: ReliabilityConfig) -> Self {
        let seed = cfg
            .rng_seed
            .unwrap_or_else(|| crate::seed::derived_seed(JITTER_RNG_DOMAIN));
        ReliableState {
            cfg,
            next_seq: AtomicU64::new(1),
            inflight: Mutex::new(HashMap::new()),
            seen: Mutex::new(HashMap::new()),
            pending_acks: Mutex::new(HashMap::new()),
            pool: BufferPool::default(),
            rng: Mutex::new(rand::rngs::StdRng::seed_from_u64(seed)),
            wake: Mutex::new(false),
            wake_cond: Condvar::new(),
        }
    }

    /// Whether the batched fan-out + cumulative-ack path is active.
    pub(crate) fn coalescing(&self) -> bool {
        self.cfg.batching
    }

    /// Allocate the next transport sequence number (never 0).
    pub(crate) fn alloc_seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Envelopes currently awaiting acknowledgement.
    pub(crate) fn inflight_len(&self) -> usize {
        self.inflight.lock().len()
    }

    /// Wake the maintenance thread so it re-derives its sleep deadline.
    pub(crate) fn notify(&self) {
        let mut woken = self.wake.lock();
        *woken = true;
        self.wake_cond.notify_one();
    }

    /// Sleep until `deadline` or an earlier [`ReliableState::notify`].
    pub(crate) fn wait_for_work(&self, deadline: Instant) {
        let mut woken = self.wake.lock();
        if !*woken {
            self.wake_cond.wait_until(&mut woken, deadline);
        }
        *woken = false;
    }

    /// Start tracking `transfer` for retransmission.
    pub(crate) fn track(&self, transfer: Transfer<M>) {
        debug_assert_ne!(transfer.seq(), 0, "reliable transfers carry non-zero seqs");
        let now = crate::clock::now();
        let backoff = self.cfg.base_backoff;
        self.inflight.lock().insert(
            transfer.seq(),
            Inflight {
                transfer,
                attempts: 0,
                backoff,
                next_retry: now + backoff,
                first_sent: now,
            },
        );
        // The new entry's retry deadline may be sooner than whatever the
        // maintenance thread is currently sleeping toward.
        self.notify();
    }

    /// The destination acked `seq` (i.e. it reached the mailbox and the
    /// reverse link was up): retire the entry and record the ack plus its
    /// end-to-end latency. This is the immediate (non-coalescing) path.
    pub(crate) fn ack(&self, seq: u64, stats: &NetStats) {
        let entry = self.inflight.lock().remove(&seq);
        if let Some(entry) = entry {
            stats.record_ack(crate::clock::now().saturating_duration_since(entry.first_sent));
            // The retransmit queue no longer needs this copy: its chunk
            // (if it was a batch) goes back to the pool.
            self.recycle_transfer(entry.transfer, stats);
        }
    }

    /// Buffer an ack for the (src → dst) data direction; the maintenance
    /// thread flushes it cumulatively (coalescing path).
    pub(crate) fn note_ack(&self, src: NodeId, dst: NodeId, seq: u64) {
        self.pending_acks
            .lock()
            .entry((src.0, dst.0))
            .or_default()
            .push(seq);
        self.notify();
    }

    /// Whether any buffered acks await a flush.
    pub(crate) fn has_pending_acks(&self) -> bool {
        !self.pending_acks.lock().is_empty()
    }

    /// Flush buffered acks: per data direction, if the reverse link is up
    /// the sorted seqs are grouped into contiguous runs and each run is
    /// retired by one cumulative ack message. A cut reverse link loses
    /// the whole flush (duplicate deliveries will re-buffer them later),
    /// preserving the one-way-partition semantics of the immediate path.
    pub(crate) fn flush_acks(&self, link_up: impl Fn(NodeId, NodeId) -> bool, stats: &NetStats) {
        let pending = std::mem::take(&mut *self.pending_acks.lock());
        for ((src, dst), mut seqs) in pending {
            // Acks flow dst → src.
            if !link_up(NodeId(dst), NodeId(src)) {
                continue;
            }
            seqs.sort_unstable();
            seqs.dedup();
            // Retired transfers are collected under the inflight lock and
            // recycled after it drops (pool free-list stays a leaf lock).
            let mut retired = Vec::new();
            {
                let mut inflight = self.inflight.lock();
                let mut run_retired = 0u64;
                let mut prev: Option<u64> = None;
                for seq in seqs {
                    if prev.is_some_and(|p| seq != p + 1) && run_retired > 0 {
                        stats.record_cumulative_ack(run_retired);
                        run_retired = 0;
                    }
                    prev = Some(seq);
                    if let Some(entry) = inflight.remove(&seq) {
                        stats.record_ack_rtt(
                            crate::clock::now().saturating_duration_since(entry.first_sent),
                        );
                        run_retired += 1;
                        retired.push(entry.transfer);
                    }
                }
                if run_retired > 0 {
                    stats.record_cumulative_ack(run_retired);
                }
            }
            for transfer in retired {
                self.recycle_transfer(transfer, stats);
            }
        }
    }

    /// Receiver-side dedupe: returns `true` if this (src, dst, seq) is
    /// new and must be delivered, `false` for a retransmitted duplicate.
    /// Batches dedupe on their single batch seq, so a retransmitted batch
    /// is suppressed whole.
    pub(crate) fn first_delivery(&self, src: NodeId, dst: NodeId, seq: u64) -> bool {
        self.seen
            .lock()
            .entry((src.0, dst.0))
            .or_default()
            .insert(seq, self.cfg.dedupe_window)
    }

    /// Roll back a [`ReliableState::first_delivery`] claim whose mailbox
    /// push then failed (dead node), so later retransmissions are not
    /// mistaken for duplicates of a delivery that never happened.
    pub(crate) fn unmark(&self, src: NodeId, dst: NodeId, seq: u64) {
        if let Some(window) = self.seen.lock().get_mut(&(src.0, dst.0)) {
            window.remove(seq);
        }
    }

    /// Remove and return every entry due for retransmission at `now`,
    /// with backoff and attempt counters advanced. Entries that exhausted
    /// their retries are returned separately as given-up.
    pub(crate) fn take_due(&self, now: Instant) -> (Vec<Transfer<M>>, Vec<Transfer<M>>)
    where
        M: Clone,
    {
        let mut due = Vec::new();
        let mut given_up = Vec::new();
        let mut inflight = self.inflight.lock();
        let mut exhausted = Vec::new();
        for (seq, entry) in inflight.iter_mut() {
            if entry.next_retry > now {
                continue;
            }
            if entry.attempts >= self.cfg.max_retries {
                exhausted.push(*seq);
                continue;
            }
            entry.attempts += 1;
            entry.backoff = (entry.backoff * 2).min(self.cfg.max_backoff);
            let jitter_ns = self.cfg.jitter.as_nanos() as u64;
            let jitter = if jitter_ns == 0 {
                Duration::ZERO
            } else {
                Duration::from_nanos(self.rng.lock().gen_range(0..jitter_ns))
            };
            entry.next_retry = now + entry.backoff + jitter;
            due.push(entry.transfer.clone());
        }
        for seq in exhausted {
            if let Some(entry) = inflight.remove(&seq) {
                given_up.push(entry.transfer);
            }
        }
        (due, given_up)
    }

    // ------------------------------------------------------------------
    // Batched fan-out
    // ------------------------------------------------------------------

    /// Seal `items` into transfers of at most `batch_max` payloads and
    /// enqueue each on the retransmit queue, returning them for their
    /// first transmission. A chunk of one seals as a plain envelope, 2+
    /// as a batch. Chunk buffers come from the pool, so a warm direction
    /// seals without allocating.
    pub(crate) fn enqueue(
        &self,
        src: NodeId,
        dst: NodeId,
        items: impl IntoIterator<Item = (MessageClass, M)>,
        stats: &NetStats,
    ) -> Vec<Transfer<M>>
    where
        M: Clone,
    {
        let mut items = items.into_iter().peekable();
        let mut out = Vec::new();
        while items.peek().is_some() {
            let mut chunk = self.pool.take(stats);
            chunk.extend(items.by_ref().take(self.cfg.batch_max.max(1)));
            let seq = self.alloc_seq();
            let transfer = if chunk.len() == 1 {
                let (class, payload) = chunk.pop().expect("one element");
                // The chunk's capacity goes straight back: the singleton
                // fast path is a take → pop → recycle round trip.
                self.pool.recycle(chunk, stats);
                Transfer::Single(Envelope {
                    src,
                    dst,
                    class,
                    seq,
                    batch_left: 0,
                    payload,
                })
            } else {
                stats.record_batch(chunk.len());
                Transfer::Batch(BatchEnvelope {
                    src,
                    dst,
                    seq,
                    payloads: chunk,
                })
            };
            self.track(transfer.clone());
            out.push(transfer);
        }
        out
    }

    /// Return a retired transfer's chunk buffer (if it was a batch) to
    /// the pool. Callers own the transfer: the tracked inflight copy
    /// after its ACK or give-up, or the transmitted copy after the
    /// delivery path has drained it — never a copy the retransmit queue
    /// still holds.
    pub(crate) fn recycle_transfer(&self, transfer: Transfer<M>, stats: &NetStats) {
        if let Transfer::Batch(batch) = transfer {
            self.pool.recycle(batch.payloads, stats);
        }
    }

    /// Return a drained chunk buffer to the pool (delivery-unpack path).
    pub(crate) fn recycle_chunk(&self, buf: Vec<(MessageClass, M)>, stats: &NetStats) {
        self.pool.recycle(buf, stats);
    }

    /// The earliest instant at which the maintenance thread has work:
    /// the soonest retransmit deadline. `None` when nothing is inflight.
    pub(crate) fn earliest_deadline(&self) -> Option<Instant> {
        self.inflight
            .lock()
            .values()
            .map(|entry| entry.next_retry)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(seq: u64) -> Envelope<u32> {
        Envelope {
            src: NodeId(0),
            dst: NodeId(1),
            class: MessageClass::Data,
            seq,
            batch_left: 0,
            payload: 7,
        }
    }

    fn single(seq: u64) -> Transfer<u32> {
        Transfer::Single(env(seq))
    }

    fn state(cfg: ReliabilityConfig) -> ReliableState<u32> {
        ReliableState::new(cfg)
    }

    #[test]
    fn seqs_are_unique_and_nonzero() {
        let s = state(ReliabilityConfig::default());
        let a = s.alloc_seq();
        let b = s.alloc_seq();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn default_config_validates_and_ablation_switch_works() {
        let cfg = ReliabilityConfig::default();
        assert!(cfg.validate().is_ok());
        assert!(cfg.batching, "batching is on by default");
        assert!(!cfg.with_batching(false).batching);
    }

    #[test]
    fn validate_rejects_undersized_dedupe_window() {
        let cfg = ReliabilityConfig {
            max_retries: 8,
            dedupe_window: 35, // needs 4 * (8 + 1) = 36
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("retransmit window"), "got: {err}");
    }

    #[test]
    fn validate_rejects_batching_footguns() {
        let cfg = ReliabilityConfig {
            batch_max: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = ReliabilityConfig {
            max_retries: 2,
            batch_max: 64,
            dedupe_window: 128, // needs 4 * 64 = 256
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        // The same window is fine with batching off.
        assert!(cfg.with_batching(false).validate().is_ok());
    }

    #[test]
    fn ack_retires_inflight_and_records_latency() {
        let s = state(ReliabilityConfig::default());
        let stats = NetStats::new();
        let seq = s.alloc_seq();
        s.track(single(seq));
        assert_eq!(s.inflight_len(), 1);
        s.ack(seq, &stats);
        assert_eq!(s.inflight_len(), 0);
        assert_eq!(stats.acks(), 1);
        assert_eq!(stats.ack_latency().count(), 1);
        // A second ack for the same seq (duplicate delivery) is a no-op.
        s.ack(seq, &stats);
        assert_eq!(stats.acks(), 1);
    }

    #[test]
    fn dedupe_window_rejects_repeats_per_direction() {
        let s = state(ReliabilityConfig::default());
        assert!(s.first_delivery(NodeId(0), NodeId(1), 5));
        assert!(!s.first_delivery(NodeId(0), NodeId(1), 5));
        // Same seq on another direction is independent.
        assert!(s.first_delivery(NodeId(1), NodeId(0), 5));
    }

    #[test]
    fn dedupe_window_is_bounded() {
        let cfg = ReliabilityConfig {
            dedupe_window: 4,
            ..Default::default()
        };
        let s = state(cfg);
        for seq in 1..=10u64 {
            assert!(s.first_delivery(NodeId(0), NodeId(1), seq));
        }
        // Seq 1 fell out of the 4-deep window; only recent seqs are held.
        assert!(s.first_delivery(NodeId(0), NodeId(1), 1));
        assert!(!s.first_delivery(NodeId(0), NodeId(1), 10));
    }

    #[test]
    fn take_due_backs_off_exponentially_and_gives_up() {
        let cfg = ReliabilityConfig {
            max_retries: 2,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(400),
            jitter: Duration::ZERO,
            ..Default::default()
        };
        let s = state(cfg);
        let seq = s.alloc_seq();
        s.track(single(seq));
        let t0 = crate::clock::now();

        // Not due before base_backoff.
        let (due, gone) = s.take_due(t0);
        assert!(due.is_empty() && gone.is_empty());

        // First retry: backoff doubles to 20ms.
        let (due, _) = s.take_due(t0 + Duration::from_millis(11));
        assert_eq!(due.len(), 1);
        let (due, _) = s.take_due(t0 + Duration::from_millis(12));
        assert!(due.is_empty(), "backoff keeps it out of the next scan");

        // Second (= max) retry, then the entry is abandoned.
        let (due, gone) = s.take_due(t0 + Duration::from_millis(600));
        assert_eq!((due.len(), gone.len()), (1, 0));
        let (due, gone) = s.take_due(t0 + Duration::from_millis(2000));
        assert_eq!((due.len(), gone.len()), (0, 1));
        assert_eq!(gone[0].seq(), seq);
        assert_eq!(s.inflight_len(), 0);
    }

    #[test]
    fn retransmit_jitter_is_deterministic_under_a_fixed_seed() {
        let cfg = ReliabilityConfig {
            jitter: Duration::from_millis(5),
            rng_seed: Some(42),
            ..Default::default()
        };
        let schedule = |cfg: ReliabilityConfig| {
            let s = state(cfg);
            let t0 = crate::clock::now();
            for _ in 0..8 {
                s.track(single(s.alloc_seq()));
            }
            let _ = s.take_due(t0 + Duration::from_secs(1));
            let inflight = s.inflight.lock();
            let mut retries: Vec<Duration> = inflight
                .values()
                .map(|e| e.next_retry - (t0 + Duration::from_secs(1)))
                .collect();
            retries.sort_unstable();
            retries
        };
        assert_eq!(
            schedule(cfg),
            schedule(cfg),
            "same seed must give the same retransmit schedule"
        );
    }

    #[test]
    fn singleton_enqueue_seals_a_plain_envelope() {
        let s = state(ReliabilityConfig::default());
        let stats = NetStats::new();
        let out = s.enqueue(NodeId(0), NodeId(1), [(MessageClass::Data, 1u32)], &stats);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], Transfer::Single(_)));
        assert_eq!(s.inflight_len(), 1, "the seal is tracked");
        assert_eq!(stats.batches_sent(), 0, "a singleton is not a batch");
    }

    #[test]
    fn enqueue_many_seals_one_batch_under_one_seq() {
        let s = state(ReliabilityConfig::default());
        let stats = NetStats::new();
        let items = (0..5u32).map(|i| (MessageClass::Locate, i));
        let out = s.enqueue(NodeId(0), NodeId(1), items, &stats);
        assert_eq!(out.len(), 1);
        let Transfer::Batch(b) = &out[0] else {
            panic!("expected a batch");
        };
        assert_eq!(b.payloads.len(), 5);
        assert_ne!(b.seq, 0);
        assert_eq!(s.inflight_len(), 1, "one tracked entry for the batch");
        assert_eq!(stats.batches_sent(), 1);
        assert_eq!(stats.batch_fill().max_ns(), 5);
    }

    #[test]
    fn oversized_enqueue_chunks_at_batch_max() {
        let cfg = ReliabilityConfig {
            batch_max: 4,
            ..Default::default()
        };
        let s = state(cfg);
        let stats = NetStats::new();
        let items = (0..10u32).map(|i| (MessageClass::Locate, i));
        let out = s.enqueue(NodeId(0), NodeId(1), items, &stats);
        let fills: Vec<usize> = out.iter().map(Transfer::payload_count).collect();
        assert_eq!(fills, [4, 4, 2]);
        assert_eq!(s.inflight_len(), 3);
    }

    #[test]
    fn send_many_seals_every_chunk_at_once() {
        let cfg = ReliabilityConfig {
            batch_max: 4,
            ..Default::default()
        };
        let s = state(cfg);
        let stats = NetStats::new();
        let before = crate::clock::now();
        let items = (0..10u32).map(|i| (MessageClass::Locate, i));
        let out = s.enqueue(NodeId(0), NodeId(1), items, &stats);
        let after = crate::clock::now();
        assert_eq!(out.len(), 3, "ceil(10 / batch_max) transfers, none held");
        assert_eq!(stats.batches_sent(), 3);
        // The only deadline left is the retransmit backoff of what was
        // just sealed: no flush deadline exists.
        let d = s.earliest_deadline().expect("three entries inflight");
        assert!(d >= before + cfg.base_backoff && d <= after + cfg.base_backoff);
        for t in &out {
            s.ack(t.seq(), &stats);
        }
        assert_eq!(s.earliest_deadline(), None, "acked: nothing pending");
    }

    #[test]
    fn flush_acks_coalesces_contiguous_runs() {
        let s = state(ReliabilityConfig::default());
        let stats = NetStats::new();
        // Track seqs 1..=5, deliver acks for 1,2,3 and 5 (gap at 4).
        for _ in 0..5 {
            let seq = s.alloc_seq();
            s.track(single(seq));
        }
        for seq in [1u64, 2, 3, 5] {
            s.note_ack(NodeId(0), NodeId(1), seq);
        }
        assert!(s.has_pending_acks());
        s.flush_acks(|_, _| true, &stats);
        assert!(!s.has_pending_acks());
        assert_eq!(s.inflight_len(), 1, "seq 4 still awaits its ack");
        assert_eq!(stats.acks(), 2, "two contiguous runs, two ack messages");
        assert_eq!(stats.acks_coalesced(), 2, "run of 3 saved 2 acks");
        assert_eq!(stats.ack_latency().count(), 4, "per-transfer RTTs kept");
    }

    #[test]
    fn flush_acks_loses_the_flush_on_a_cut_reverse_link() {
        let s = state(ReliabilityConfig::default());
        let stats = NetStats::new();
        let seq = s.alloc_seq();
        s.track(single(seq));
        s.note_ack(NodeId(0), NodeId(1), seq);
        s.flush_acks(|_, _| false, &stats);
        assert_eq!(s.inflight_len(), 1, "ack lost; entry still inflight");
        assert_eq!(stats.acks(), 0);
        assert!(!s.has_pending_acks(), "lost acks are not retried");
        // A later duplicate re-buffers and the healed link retires it.
        s.note_ack(NodeId(0), NodeId(1), seq);
        s.flush_acks(|_, _| true, &stats);
        assert_eq!(s.inflight_len(), 0);
        assert_eq!(stats.acks(), 1);
    }

    #[test]
    fn warm_singleton_path_reuses_pooled_chunks() {
        let s = state(ReliabilityConfig::default());
        let stats = NetStats::new();
        for i in 0..100u32 {
            let out = s.enqueue(NodeId(0), NodeId(1), [(MessageClass::Data, i)], &stats);
            assert_eq!(out.len(), 1);
        }
        assert_eq!(stats.pool_misses(), 1, "only the cold start allocates");
        assert_eq!(
            stats.pool_hits(),
            99,
            "the warm path runs off the free list"
        );
        assert_eq!(
            stats.pool_recycled(),
            100,
            "every singleton chunk round-trips"
        );
    }

    #[test]
    fn recycled_chunk_never_aliases_a_batch_awaiting_ack() {
        let s = state(ReliabilityConfig::default());
        let stats = NetStats::new();
        let now = crate::clock::now();
        // Seal a batch of 1,2,3 toward n1; the tracked inflight copy must
        // survive until its ack even while the transmitted chunk is
        // drained and its buffer recycled.
        let out = s.enqueue(
            NodeId(0),
            NodeId(1),
            (1..=3u32).map(|i| (MessageClass::Locate, i)),
            &stats,
        );
        let Some(Transfer::Batch(mut batch)) = out.into_iter().next() else {
            panic!("expected one sealed batch");
        };
        let seq = batch.seq;
        // Delivery-unpack: drain the transmitted chunk, recycle its buffer.
        let delivered: Vec<u32> = batch.payloads.drain(..).map(|(_, p)| p).collect();
        assert_eq!(delivered, [1, 2, 3]);
        s.recycle_chunk(batch.payloads, &stats);
        // New traffic reuses the recycled buffer for a different batch.
        let out = s.enqueue(
            NodeId(0),
            NodeId(2),
            (7..=9u32).map(|i| (MessageClass::Locate, i)),
            &stats,
        );
        assert!(stats.pool_hits() >= 1, "the second seal reuses the buffer");
        drop(out);
        // The first batch's ack never arrived: its retransmit copy must
        // still carry the original payloads, untouched by the reuse.
        let (due, gone) = s.take_due(now + Duration::from_secs(1));
        assert!(gone.is_empty());
        let retx: Vec<u32> = due
            .iter()
            .filter_map(|t| match t {
                Transfer::Batch(b) if b.seq == seq => {
                    Some(b.payloads.iter().map(|(_, p)| *p).collect::<Vec<u32>>())
                }
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(retx, [1, 2, 3], "inflight batch unchanged by pool reuse");
        // Retiring the batch recycles the tracked copy too.
        let recycled_before = stats.pool_recycled();
        s.ack(seq, &stats);
        assert_eq!(s.inflight_len(), 1, "only the n2 batch remains tracked");
        assert!(stats.pool_recycled() > recycled_before);
    }

    #[test]
    fn earliest_deadline_tracks_the_soonest_retry() {
        let s = state(ReliabilityConfig::default());
        assert_eq!(s.earliest_deadline(), None);
        s.track(single(s.alloc_seq()));
        let d = s.earliest_deadline().expect("one entry pending");
        assert!(d <= crate::clock::now() + ReliabilityConfig::default().base_backoff);
    }
}
