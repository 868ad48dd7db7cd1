//! Length-prefixed wire codec for the socket fabric.
//!
//! A datagram carries exactly one frame:
//!
//! ```text
//! [4B len (BE)]      bytes remaining after this field
//! [4B magic "DCT1"]
//! [1B kind]          0 = Single, 1 = Batch, 2 = Heartbeat
//! [4B src][4B dst]   NodeId endpoints
//! kind 0/1:          [8B seq]
//! kind 0:            [1B class][4B plen][payload]
//! kind 1:            [2B count] then count × ([1B class][4B plen][payload])
//! kind 2:            (nothing more)
//! ```
//!
//! The length prefix is redundant over UDP (the datagram boundary already
//! frames the message) but is validated against the datagram size anyway,
//! so the same codec drops onto a stream transport unchanged.
//!
//! Decoding is **view-based**: payload bytes are handed to
//! [`WireCodec::decode_payload`] as [`Bytes`] slices of the receive
//! buffer, so a `Bytes` payload crosses the decode boundary without a
//! copy (the PR 8 zero-copy discipline, extended to the socket path).
//! Every malformed input — truncated, oversized, wrong magic, unknown
//! kind/class, a batch claiming the best-effort `seq: 0` — decodes to a
//! typed [`CodecError`]; nothing a peer can put in a datagram panics the
//! receiver.

use crate::envelope::Transfer;
use crate::{BatchEnvelope, Bytes, Envelope, MessageClass, NodeId};
use std::error::Error;
use std::fmt;

/// Frame magic: "DCT1".
const MAGIC: [u8; 4] = *b"DCT1";

/// Largest frame the codec will produce or accept — the maximum payload
/// of a UDP datagram over IPv4. Anything larger is a typed error on both
/// sides, never a silent truncation.
pub const MAX_FRAME: usize = 65_507;

const KIND_SINGLE: u8 = 0;
const KIND_BATCH: u8 = 1;
const KIND_HEARTBEAT: u8 = 2;

/// Typed decode/encode failures. A hostile or buggy peer can produce any
/// of these over a real socket; none of them may panic the local kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The frame ended before a declared field: `need` more bytes were
    /// required, `have` remained.
    Truncated {
        /// Bytes the field required.
        need: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The magic bytes are not `DCT1`.
    BadMagic,
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Unknown [`MessageClass`] byte.
    BadClass(u8),
    /// A declared length exceeds [`MAX_FRAME`].
    Oversized {
        /// The declared length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// The length prefix disagrees with the datagram size.
    LengthMismatch {
        /// Bytes the prefix declared.
        declared: usize,
        /// Bytes the datagram actually carried.
        actual: usize,
    },
    /// A batch frame claimed `seq: 0` — batches only exist on the
    /// reliable path, whose sequence numbers are non-zero by contract.
    ZeroSeqBatch,
    /// The payload bytes failed their type's decode.
    Payload(&'static str),
    /// The message variant cannot be serialized (e.g. it carries live
    /// closures) and is confined to the in-process backend.
    Unsupported(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            CodecError::BadMagic => f.write_str("bad frame magic"),
            CodecError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            CodecError::BadClass(c) => write!(f, "unknown message class {c}"),
            CodecError::Oversized { len, max } => {
                write!(f, "declared length {len} exceeds cap {max}")
            }
            CodecError::LengthMismatch { declared, actual } => {
                write!(f, "length prefix {declared} != frame size {actual}")
            }
            CodecError::ZeroSeqBatch => f.write_str("batch frame with seq 0"),
            CodecError::Payload(why) => write!(f, "payload decode failed: {why}"),
            CodecError::Unsupported(what) => write!(f, "{what} is not wire-serializable"),
        }
    }
}

impl Error for CodecError {}

/// Payload types that can cross a real socket.
///
/// Implemented by the kernel for `KernelMessage` and here for the plain
/// payload types the fabric tests use. `encode_payload` is fallible so a
/// type can confine individual variants to the in-process backend
/// ([`CodecError::Unsupported`]) instead of panicking.
pub trait WireCodec: Sized {
    /// Append this payload's bytes to `out`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Unsupported`] if this value cannot be serialized.
    fn encode_payload(&self, out: &mut Vec<u8>) -> Result<(), CodecError>;

    /// Decode a payload from `buf`, a zero-copy view of the receive
    /// buffer.
    ///
    /// # Errors
    ///
    /// [`CodecError::Payload`] (or another variant) on malformed bytes —
    /// never a panic.
    fn decode_payload(buf: &Bytes) -> Result<Self, CodecError>;
}

impl WireCodec for String {
    fn encode_payload(&self, out: &mut Vec<u8>) -> Result<(), CodecError> {
        out.extend_from_slice(self.as_bytes());
        Ok(())
    }

    fn decode_payload(buf: &Bytes) -> Result<Self, CodecError> {
        std::str::from_utf8(buf.as_slice())
            .map(str::to_owned)
            .map_err(|_| CodecError::Payload("invalid utf-8"))
    }
}

impl WireCodec for u64 {
    fn encode_payload(&self, out: &mut Vec<u8>) -> Result<(), CodecError> {
        out.extend_from_slice(&self.to_be_bytes());
        Ok(())
    }

    fn decode_payload(buf: &Bytes) -> Result<Self, CodecError> {
        let bytes: [u8; 8] = buf
            .as_slice()
            .try_into()
            .map_err(|_| CodecError::Payload("u64 wants exactly 8 bytes"))?;
        Ok(u64::from_be_bytes(bytes))
    }
}

impl WireCodec for Vec<u8> {
    fn encode_payload(&self, out: &mut Vec<u8>) -> Result<(), CodecError> {
        out.extend_from_slice(self);
        Ok(())
    }

    fn decode_payload(buf: &Bytes) -> Result<Self, CodecError> {
        Ok(buf.as_slice().to_vec())
    }
}

impl WireCodec for Bytes {
    fn encode_payload(&self, out: &mut Vec<u8>) -> Result<(), CodecError> {
        out.extend_from_slice(self.as_slice());
        Ok(())
    }

    fn decode_payload(buf: &Bytes) -> Result<Self, CodecError> {
        // Refcount bump on the receive buffer: the decoded payload stays
        // a view, no copy.
        Ok(buf.clone())
    }
}

impl WireCodec for () {
    fn encode_payload(&self, _out: &mut Vec<u8>) -> Result<(), CodecError> {
        Ok(())
    }

    fn decode_payload(_buf: &Bytes) -> Result<Self, CodecError> {
        Ok(())
    }
}

fn class_to_u8(class: MessageClass) -> u8 {
    // MessageClass::ALL is the stable on-wire order.
    MessageClass::ALL
        .iter()
        .position(|&c| c == class)
        .map(|i| i as u8)
        .unwrap_or(u8::MAX)
}

fn class_from_u8(byte: u8) -> Result<MessageClass, CodecError> {
    MessageClass::ALL
        .get(byte as usize)
        .copied()
        .ok_or(CodecError::BadClass(byte))
}

/// What a decoded datagram turned out to be.
#[derive(Debug)]
pub(crate) enum Frame<M> {
    /// Payload traffic: a single envelope or a sealed batch.
    Transfer(Transfer<M>),
    /// A liveness probe from `src` addressed to `dst`.
    Heartbeat {
        /// Probing node.
        src: NodeId,
        /// Probed node.
        dst: NodeId,
    },
}

fn put_payload<M: WireCodec>(
    out: &mut Vec<u8>,
    class: MessageClass,
    payload: &M,
) -> Result<(), CodecError> {
    out.push(class_to_u8(class));
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    payload.encode_payload(out)?;
    let plen = out.len() - len_at - 4;
    if plen > MAX_FRAME {
        return Err(CodecError::Oversized {
            len: plen,
            max: MAX_FRAME,
        });
    }
    out[len_at..len_at + 4].copy_from_slice(&(plen as u32).to_be_bytes());
    Ok(())
}

fn frame_header(out: &mut Vec<u8>, kind: u8, src: NodeId, dst: NodeId) {
    out.extend_from_slice(&[0u8; 4]); // length prefix, patched by seal()
    out.extend_from_slice(&MAGIC);
    out.push(kind);
    out.extend_from_slice(&src.0.to_be_bytes());
    out.extend_from_slice(&dst.0.to_be_bytes());
}

fn seal(mut out: Vec<u8>) -> Result<Vec<u8>, CodecError> {
    if out.len() > MAX_FRAME {
        return Err(CodecError::Oversized {
            len: out.len(),
            max: MAX_FRAME,
        });
    }
    let body = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&body.to_be_bytes());
    Ok(out)
}

/// Encode a transfer into one datagram-sized frame.
pub(crate) fn encode_transfer<M: WireCodec>(transfer: &Transfer<M>) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(64);
    match transfer {
        Transfer::Single(env) => {
            frame_header(&mut out, KIND_SINGLE, env.src, env.dst);
            out.extend_from_slice(&env.seq.to_be_bytes());
            put_payload(&mut out, env.class, &env.payload)?;
        }
        Transfer::Batch(batch) => {
            frame_header(&mut out, KIND_BATCH, batch.src, batch.dst);
            out.extend_from_slice(&batch.seq.to_be_bytes());
            let count = u16::try_from(batch.payloads.len()).map_err(|_| CodecError::Oversized {
                len: batch.payloads.len(),
                max: u16::MAX as usize,
            })?;
            out.extend_from_slice(&count.to_be_bytes());
            for (class, payload) in &batch.payloads {
                put_payload(&mut out, *class, payload)?;
            }
        }
    }
    seal(out)
}

/// Encode a heartbeat probe frame.
pub(crate) fn encode_heartbeat(src: NodeId, dst: NodeId) -> Vec<u8> {
    let mut out = Vec::with_capacity(17);
    frame_header(&mut out, KIND_HEARTBEAT, src, dst);
    // A heartbeat frame is tiny; seal() cannot fail on it.
    seal(out).unwrap_or_default()
}

/// Bounds-checked reader over a received datagram. `take` hands out
/// zero-copy [`Bytes`] views; every read reports [`CodecError::Truncated`]
/// instead of slicing out of range.
struct Cursor<'a> {
    buf: &'a Bytes,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a Bytes) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<Bytes, CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let view = self.buf.slice(self.pos..self.pos + n);
        self.pos += n;
        Ok(view)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        if self.remaining() < N {
            return Err(CodecError::Truncated {
                need: N,
                have: self.remaining(),
            });
        }
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf.as_slice()[self.pos..self.pos + N]);
        self.pos += N;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_be_bytes(self.array()?))
    }
}

fn read_payload<M: WireCodec>(cur: &mut Cursor<'_>) -> Result<(MessageClass, M), CodecError> {
    let class = class_from_u8(cur.u8()?)?;
    let plen = cur.u32()? as usize;
    if plen > MAX_FRAME {
        return Err(CodecError::Oversized {
            len: plen,
            max: MAX_FRAME,
        });
    }
    let view = cur.take(plen)?;
    Ok((class, M::decode_payload(&view)?))
}

/// Decode one received datagram into a [`Frame`].
///
/// # Errors
///
/// A typed [`CodecError`] for any malformed input; never panics.
pub(crate) fn decode_frame<M: WireCodec>(datagram: &Bytes) -> Result<Frame<M>, CodecError> {
    if datagram.len() > MAX_FRAME {
        return Err(CodecError::Oversized {
            len: datagram.len(),
            max: MAX_FRAME,
        });
    }
    let mut cur = Cursor::new(datagram);
    let declared = cur.u32()? as usize;
    if declared != cur.remaining() {
        return Err(CodecError::LengthMismatch {
            declared,
            actual: cur.remaining(),
        });
    }
    if cur.array::<4>()? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let kind = cur.u8()?;
    let src = NodeId(cur.u32()?);
    let dst = NodeId(cur.u32()?);
    match kind {
        KIND_SINGLE => {
            let seq = cur.u64()?;
            let (class, payload) = read_payload(&mut cur)?;
            Ok(Frame::Transfer(Transfer::Single(Envelope {
                src,
                dst,
                class,
                seq,
                batch_left: 0,
                payload,
            })))
        }
        KIND_BATCH => {
            let seq = cur.u64()?;
            if seq == 0 {
                return Err(CodecError::ZeroSeqBatch);
            }
            let count = cur.u16()? as usize;
            let mut payloads = Vec::with_capacity(count.min(256));
            for _ in 0..count {
                payloads.push(read_payload(&mut cur)?);
            }
            Ok(Frame::Transfer(Transfer::Batch(BatchEnvelope {
                src,
                dst,
                seq,
                payloads,
            })))
        }
        KIND_HEARTBEAT => Ok(Frame::Heartbeat { src, dst }),
        other => Err(CodecError::BadKind(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(seq: u64, payload: &str) -> Transfer<String> {
        Transfer::Single(Envelope {
            src: NodeId(1),
            dst: NodeId(2),
            class: MessageClass::Event,
            seq,
            batch_left: 0,
            payload: payload.to_string(),
        })
    }

    fn roundtrip<M: WireCodec>(t: &Transfer<M>) -> Transfer<M> {
        let frame = encode_transfer(t).expect("encode");
        match decode_frame::<M>(&Bytes::from_vec(frame)).expect("decode") {
            Frame::Transfer(out) => out,
            Frame::Heartbeat { .. } => panic!("transfer decoded as heartbeat"),
        }
    }

    #[test]
    fn single_roundtrips() {
        let out = roundtrip(&single(7, "hello"));
        let Transfer::Single(env) = out else {
            panic!("wrong shape")
        };
        assert_eq!(
            (env.src, env.dst, env.class, env.seq, env.payload.as_str()),
            (NodeId(1), NodeId(2), MessageClass::Event, 7, "hello")
        );
    }

    #[test]
    fn best_effort_single_keeps_seq_zero() {
        let Transfer::Single(env) = roundtrip(&single(0, "x")) else {
            panic!("wrong shape")
        };
        assert_eq!(env.seq, 0);
    }

    #[test]
    fn batch_roundtrips_fan_out_shape() {
        // The E12 fan-out shape: many co-destined payloads of mixed class
        // under one seq.
        let batch: Transfer<String> = Transfer::Batch(BatchEnvelope {
            src: NodeId(0),
            dst: NodeId(3),
            seq: 41,
            payloads: (0..8)
                .map(|i| {
                    let class = if i % 2 == 0 {
                        MessageClass::Event
                    } else {
                        MessageClass::Locate
                    };
                    (class, format!("member-{i}"))
                })
                .collect(),
        });
        let Transfer::Batch(out) = roundtrip(&batch) else {
            panic!("wrong shape")
        };
        assert_eq!((out.src, out.dst, out.seq), (NodeId(0), NodeId(3), 41));
        assert_eq!(out.payloads.len(), 8);
        assert_eq!(out.payloads[3], (MessageClass::Locate, "member-3".into()));
    }

    #[test]
    fn bytes_payload_decodes_as_view_of_the_datagram() {
        let payload = Bytes::from_vec(vec![9u8; 512]);
        let t: Transfer<Bytes> = Transfer::Single(Envelope {
            src: NodeId(0),
            dst: NodeId(1),
            class: MessageClass::Data,
            seq: 3,
            batch_left: 0,
            payload,
        });
        let datagram = Bytes::from_vec(encode_transfer(&t).expect("encode"));
        let Frame::Transfer(Transfer::Single(env)) =
            decode_frame::<Bytes>(&datagram).expect("decode")
        else {
            panic!("wrong shape")
        };
        assert_eq!(env.payload.len(), 512);
        assert!(
            Bytes::ptr_eq(&env.payload, &datagram),
            "decoded payload must be a view of the receive buffer, not a copy"
        );
    }

    #[test]
    fn heartbeat_roundtrips() {
        let frame = encode_heartbeat(NodeId(4), NodeId(9));
        match decode_frame::<String>(&Bytes::from_vec(frame)).expect("decode") {
            Frame::Heartbeat { src, dst } => {
                assert_eq!((src, dst), (NodeId(4), NodeId(9)));
            }
            Frame::Transfer(_) => panic!("heartbeat decoded as transfer"),
        }
    }

    #[test]
    fn truncated_frames_are_typed_errors_at_every_cut() {
        let frame = encode_transfer(&single(5, "payload")).expect("encode");
        for cut in 0..frame.len() {
            let short = Bytes::from_vec(frame[..cut].to_vec());
            let err = decode_frame::<String>(&short).expect_err("short frame must fail");
            assert!(
                matches!(
                    err,
                    CodecError::Truncated { .. } | CodecError::LengthMismatch { .. }
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn garbage_bytes_never_panic() {
        // Deterministic pseudo-garbage: every decode must return a typed
        // error (or, vanishingly, parse) without panicking.
        let mut state = 0x9E37_79B9_u32;
        for len in [0usize, 1, 3, 4, 8, 13, 17, 32, 64, 200] {
            let mut buf = Vec::with_capacity(len);
            for _ in 0..len {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                buf.push((state >> 24) as u8);
            }
            let _ = decode_frame::<String>(&Bytes::from_vec(buf));
        }
    }

    #[test]
    fn bad_magic_and_bad_kind_are_rejected() {
        let mut frame = encode_transfer(&single(5, "p")).expect("encode");
        let mut wrong_magic = frame.clone();
        wrong_magic[4] = b'X';
        assert_eq!(
            decode_frame::<String>(&Bytes::from_vec(wrong_magic)).unwrap_err(),
            CodecError::BadMagic
        );
        frame[8] = 200; // kind byte
        assert_eq!(
            decode_frame::<String>(&Bytes::from_vec(frame)).unwrap_err(),
            CodecError::BadKind(200)
        );
    }

    #[test]
    fn bad_class_is_rejected() {
        let mut frame = encode_transfer(&single(5, "p")).expect("encode");
        // class byte sits after len(4) + magic(4) + kind(1) + src(4) +
        // dst(4) + seq(8).
        frame[25] = 99;
        assert_eq!(
            decode_frame::<String>(&Bytes::from_vec(frame)).unwrap_err(),
            CodecError::BadClass(99)
        );
    }

    #[test]
    fn length_prefix_must_match_datagram() {
        let mut frame = encode_transfer(&single(5, "p")).expect("encode");
        frame[3] = frame[3].wrapping_add(1);
        assert!(matches!(
            decode_frame::<String>(&Bytes::from_vec(frame)).unwrap_err(),
            CodecError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn oversized_declarations_are_rejected() {
        // A tiny frame whose payload length field claims 16MiB.
        let mut out = Vec::new();
        out.extend_from_slice(&[0u8; 4]);
        out.extend_from_slice(b"DCT1");
        out.push(0); // Single
        out.extend_from_slice(&1u32.to_be_bytes());
        out.extend_from_slice(&2u32.to_be_bytes());
        out.extend_from_slice(&9u64.to_be_bytes());
        out.push(0); // class
        out.extend_from_slice(&(16 * 1024 * 1024u32).to_be_bytes());
        let body = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&body.to_be_bytes());
        assert!(matches!(
            decode_frame::<String>(&Bytes::from_vec(out)).unwrap_err(),
            CodecError::Oversized { .. }
        ));
        // And an encode that would exceed a datagram is refused, not
        // truncated.
        let huge = single(1, &"x".repeat(MAX_FRAME));
        assert!(matches!(
            encode_transfer(&huge).unwrap_err(),
            CodecError::Oversized { .. }
        ));
    }

    #[test]
    fn zero_seq_batch_is_rejected_at_decode() {
        // Regression (hostile peer): a batch claiming the best-effort
        // seq 0 would bypass receiver-side dedupe if accepted.
        let batch: Transfer<String> = Transfer::Batch(BatchEnvelope {
            src: NodeId(0),
            dst: NodeId(1),
            seq: 1,
            payloads: vec![(MessageClass::Event, "e".into())],
        });
        let mut frame = encode_transfer(&batch).expect("encode");
        // seq sits after len(4) + magic(4) + kind(1) + src(4) + dst(4).
        frame[17..25].copy_from_slice(&0u64.to_be_bytes());
        assert_eq!(
            decode_frame::<String>(&Bytes::from_vec(frame)).unwrap_err(),
            CodecError::ZeroSeqBatch
        );
    }

    #[test]
    fn invalid_utf8_payload_is_a_typed_error() {
        let t: Transfer<Vec<u8>> = Transfer::Single(Envelope {
            src: NodeId(0),
            dst: NodeId(1),
            class: MessageClass::Data,
            seq: 2,
            batch_left: 0,
            payload: vec![0xFF, 0xFE, 0xFD],
        });
        let frame = encode_transfer(&t).expect("encode");
        // Re-decode the same bytes as a String payload.
        assert!(matches!(
            decode_frame::<String>(&Bytes::from_vec(frame)).unwrap_err(),
            CodecError::Payload(_)
        ));
    }
}
