//! Message envelopes and classification.

use crate::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Coarse classification of traffic, used by [`crate::NetStats`] so the
/// experiments can attribute communication cost to a mechanism (e.g. how
/// many messages thread *location* cost versus event *delivery*, E2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MessageClass {
    /// Application/object invocation traffic (requests and replies).
    Invocation,
    /// DSM coherence traffic (page requests, transfers, invalidations).
    Dsm,
    /// Event raise/delivery traffic.
    Event,
    /// Thread-location traffic (broadcast probes, path-trace hops,
    /// multicast queries).
    Locate,
    /// Kernel housekeeping (TCB updates, group membership, timers).
    Control,
    /// Anything else.
    Data,
}

impl MessageClass {
    /// All classes, in display order. Handy for stats tables.
    pub const ALL: [MessageClass; 6] = [
        MessageClass::Invocation,
        MessageClass::Dsm,
        MessageClass::Event,
        MessageClass::Locate,
        MessageClass::Control,
        MessageClass::Data,
    ];
}

impl fmt::Display for MessageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MessageClass::Invocation => "invocation",
            MessageClass::Dsm => "dsm",
            MessageClass::Event => "event",
            MessageClass::Locate => "locate",
            MessageClass::Control => "control",
            MessageClass::Data => "data",
        };
        f.write_str(s)
    }
}

/// Implemented by payload types that want accurate byte accounting.
///
/// The default estimate charges a fixed header; override
/// [`WireMessage::wire_size`] to include payload bytes (the kernel does).
pub trait WireMessage {
    /// Estimated size of this message on the (simulated) wire, in bytes.
    fn wire_size(&self) -> usize {
        64
    }
}

impl WireMessage for String {
    fn wire_size(&self) -> usize {
        64 + self.len()
    }
}

impl WireMessage for Vec<u8> {
    fn wire_size(&self) -> usize {
        64 + self.len()
    }
}

impl WireMessage for crate::Bytes {
    fn wire_size(&self) -> usize {
        64 + self.len()
    }
}

impl WireMessage for u64 {}
impl WireMessage for () {}

/// A message in flight: payload plus source/destination/class metadata.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Traffic class for statistics.
    pub class: MessageClass,
    /// Transport sequence number. `0` for best-effort traffic; reliable
    /// sends carry a unique non-zero seq so the receiving side of the
    /// fabric can acknowledge and deduplicate retransmissions.
    pub seq: u64,
    /// Payloads of the same wire batch still to come after this one:
    /// the delivery path stamps it while unpacking a [`BatchEnvelope`],
    /// so a receiver knows where the batch ends. `0` for a single and for
    /// a batch's last payload.
    pub batch_left: u32,
    /// The payload.
    pub payload: M,
}

/// Many co-destined payloads riding one wire hop under one sequence
/// number: the unit of the batched fan-out path.
///
/// The reliability layer seals a batch from the payloads of one
/// `Network::send_many` call, tracks and retransmits it as a single
/// entry, and the delivery path unpacks it into one mailbox [`Envelope`]
/// per payload (each stamped with the batch's seq and the count of
/// payloads still to come). Receiver-side dedupe operates on
/// the batch seq, so a retransmitted batch is suppressed whole and
/// exactly-once delivery survives coalescing.
#[derive(Debug, Clone)]
pub struct BatchEnvelope<M> {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Transport sequence number shared by every payload in the batch
    /// (always non-zero: batches only exist on the reliable path).
    pub seq: u64,
    /// The coalesced payloads with their traffic classes.
    pub payloads: Vec<(MessageClass, M)>,
}

/// What actually crosses the wire: either a plain envelope or a sealed
/// batch. Senders, the delay line, and the retransmit queue all move
/// `Transfer`s; mailboxes still receive per-payload [`Envelope`]s.
#[derive(Debug, Clone)]
pub(crate) enum Transfer<M> {
    Single(Envelope<M>),
    Batch(BatchEnvelope<M>),
}

impl<M> Transfer<M> {
    pub(crate) fn src(&self) -> NodeId {
        match self {
            Transfer::Single(e) => e.src,
            Transfer::Batch(b) => b.src,
        }
    }

    pub(crate) fn dst(&self) -> NodeId {
        match self {
            Transfer::Single(e) => e.dst,
            Transfer::Batch(b) => b.dst,
        }
    }

    pub(crate) fn seq(&self) -> u64 {
        match self {
            Transfer::Single(e) => e.seq,
            Transfer::Batch(b) => b.seq,
        }
    }

    /// Logical payloads carried (1 for singles).
    #[cfg(test)]
    pub(crate) fn payload_count(&self) -> usize {
        match self {
            Transfer::Single(_) => 1,
            Transfer::Batch(b) => b.payloads.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_display_names_are_stable() {
        let names: Vec<String> = MessageClass::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(
            names,
            ["invocation", "dsm", "event", "locate", "control", "data"]
        );
    }

    #[test]
    fn default_wire_size_is_header_only() {
        assert_eq!(7u64.wire_size(), 64);
        assert_eq!(().wire_size(), 64);
    }

    #[test]
    fn string_wire_size_includes_payload() {
        assert_eq!("abcd".to_string().wire_size(), 68);
    }

    #[test]
    fn vec_wire_size_includes_payload() {
        assert_eq!(vec![0u8; 100].wire_size(), 164);
    }

    #[test]
    fn bytes_wire_size_includes_payload() {
        assert_eq!(crate::Bytes::from_vec(vec![0u8; 100]).wire_size(), 164);
    }

    #[test]
    fn transfer_metadata_matches_both_variants() {
        let single: Transfer<u64> = Transfer::Single(Envelope {
            src: NodeId(1),
            dst: NodeId(2),
            class: MessageClass::Locate,
            seq: 9,
            batch_left: 0,
            payload: 0,
        });
        assert_eq!(
            (
                single.src(),
                single.dst(),
                single.seq(),
                single.payload_count()
            ),
            (NodeId(1), NodeId(2), 9, 1)
        );
        let batch: Transfer<u64> = Transfer::Batch(BatchEnvelope {
            src: NodeId(3),
            dst: NodeId(4),
            seq: 11,
            payloads: vec![(MessageClass::Event, 1), (MessageClass::Locate, 2)],
        });
        assert_eq!(
            (batch.src(), batch.dst(), batch.seq(), batch.payload_count()),
            (NodeId(3), NodeId(4), 11, 2)
        );
    }
}
