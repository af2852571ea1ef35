//! Binary wire codec for [`FlMsg`].
//!
//! The simulator moves messages as Rust values; a real network deployment
//! needs bytes. This module defines the
//! canonical little-endian framing for every protocol message. The encoded
//! size matches [`spyker_simnet::WireSize::wire_size`] closely (within the
//! fixed per-message header), so the bandwidth numbers measured in the
//! simulator carry over to a wire deployment.
//!
//! Frame layout: a 1-byte message tag followed by the message fields in
//! declaration order; parameter vectors are a `u32` length followed by
//! `f32` little-endian values.
//!
//! For stream transports (TCP), [`frame_into`] prefixes a frame with its
//! `u32` little-endian length and [`FrameAccumulator`] reassembles frames
//! from arbitrarily-chunked reads. Decoding is hardened against hostile
//! input: every length field is validated against the remaining bytes
//! before any allocation, frames longer than [`MAX_FRAME_LEN`] are
//! rejected, and trailing garbage after a complete message is an error —
//! no code path reachable from network bytes panics.
//!
//! # Example
//!
//! ```
//! use spyker_core::codec::{decode, encode};
//! use spyker_core::msg::FlMsg;
//! use spyker_core::params::ParamVec;
//!
//! let msg = FlMsg::AgeGossip { age: 12.5, server_idx: 3 };
//! let bytes = encode(&msg);
//! let back = decode(&bytes).unwrap();
//! assert!(matches!(back, FlMsg::AgeGossip { age, server_idx: 3 } if age == 12.5));
//! # let _ = ParamVec::zeros(0);
//! ```

use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use spyker_simnet::Region;

use crate::membership::{RingMember, RingView};
use crate::msg::FlMsg;
use crate::params::ParamVec;
use crate::token::Token;

const TAG_MODEL_TO_CLIENT: u8 = 0;
const TAG_CLIENT_UPDATE: u8 = 1;
const TAG_SERVER_MODEL: u8 = 2;
const TAG_AGE_GOSSIP: u8 = 3;
const TAG_TOKEN_PASS: u8 = 4;
const TAG_HIER_MODEL: u8 = 5;
const TAG_CLUSTER_MODEL: u8 = 6;
const TAG_CENTERS_TO_CLIENT: u8 = 7;
const TAG_CLUSTER_UPDATE: u8 = 8;
const TAG_JOIN_REQUEST: u8 = 9;
const TAG_JOIN_ACCEPT: u8 = 10;
const TAG_RING_UPDATE: u8 = 11;
const TAG_REHOME: u8 = 12;
const TAG_CLIENT_HELLO: u8 = 13;
const TAG_REDIRECTED_UPDATE: u8 = 14;
const TAG_SCALE_UP: u8 = 15;
const TAG_SCALE_DOWN: u8 = 16;
const TAG_ENCODED_UPDATE: u8 = 17;

/// Hard upper bound on the length of a single frame (64 MiB).
///
/// A length prefix above this cap is treated as a protocol violation
/// rather than an allocation request: a peer must never be able to make
/// the receiver reserve unbounded memory with four cheap bytes.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the frame was complete.
    Truncated,
    /// The first byte is not a known message tag.
    UnknownTag(u8),
    /// A length prefix exceeds the configured maximum frame length.
    Oversize {
        /// Length claimed by the frame header.
        len: u64,
        /// Maximum length the decoder accepts.
        max: u64,
    },
    /// The frame decoded to a complete message with bytes left over.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame truncated"),
            DecodeError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::Oversize { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            DecodeError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after complete message")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes a message into a standalone frame.
pub fn encode(msg: &FlMsg) -> Bytes {
    let mut buf = BytesMut::with_capacity(frame_capacity(msg));
    encode_body(msg, &mut buf);
    buf.freeze()
}

/// Encodes a message into a caller-owned buffer, appending to it.
///
/// This is the allocation-free path for the TCP transport: the buffer is
/// rented from a [`Scratch`](spyker_tensor::Scratch)-style pool and reused
/// across sends, so steady-state encoding performs no heap allocation.
pub fn encode_into(msg: &FlMsg, out: &mut Vec<u8>) {
    out.reserve(frame_capacity(msg));
    encode_body(msg, out);
}

/// Appends `[u32 LE length][frame]` to `out` — the stream framing consumed
/// by [`FrameAccumulator`] on the receiving side.
pub fn frame_into(msg: &FlMsg, out: &mut Vec<u8>) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    encode_body(msg, out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

fn encode_body<B: BufMut>(msg: &FlMsg, buf: &mut B) {
    match msg {
        FlMsg::ModelToClient { params, age, lr } => {
            buf.put_u8(TAG_MODEL_TO_CLIENT);
            put_params(buf, params);
            buf.put_f64_le(*age);
            buf.put_f32_le(*lr);
        }
        FlMsg::ClientUpdate {
            params,
            age,
            num_samples,
        } => {
            buf.put_u8(TAG_CLIENT_UPDATE);
            put_params(buf, params);
            buf.put_f64_le(*age);
            buf.put_u64_le(*num_samples as u64);
        }
        FlMsg::ServerModel {
            params,
            age,
            bid,
            server_idx,
        } => {
            buf.put_u8(TAG_SERVER_MODEL);
            put_params(buf, params);
            buf.put_f64_le(*age);
            buf.put_u64_le(*bid);
            buf.put_u32_le(*server_idx as u32);
        }
        FlMsg::AgeGossip { age, server_idx } => {
            buf.put_u8(TAG_AGE_GOSSIP);
            buf.put_f64_le(*age);
            buf.put_u32_le(*server_idx as u32);
        }
        FlMsg::TokenPass(token) => {
            buf.put_u8(TAG_TOKEN_PASS);
            buf.put_u64_le(token.bid);
            buf.put_u32_le(token.ages.len() as u32);
            for &a in &token.ages {
                buf.put_f64_le(a);
            }
        }
        FlMsg::HierModel {
            params,
            round,
            weight,
        } => {
            buf.put_u8(TAG_HIER_MODEL);
            put_params(buf, params);
            buf.put_u64_le(*round);
            buf.put_f64_le(*weight);
        }
        FlMsg::ClusterModel {
            params,
            age,
            center,
            server_idx,
        } => {
            buf.put_u8(TAG_CLUSTER_MODEL);
            put_params(buf, params);
            buf.put_f64_le(*age);
            buf.put_u32_le(*center as u32);
            buf.put_u32_le(*server_idx as u32);
        }
        FlMsg::CentersToClient { centers, ages, lr } => {
            buf.put_u8(TAG_CENTERS_TO_CLIENT);
            buf.put_u32_le(centers.len() as u32);
            for c in centers {
                put_params(buf, c);
            }
            for &a in ages {
                buf.put_f64_le(a);
            }
            buf.put_f32_le(*lr);
        }
        FlMsg::ClusterUpdate {
            params,
            age,
            center,
            num_samples,
        } => {
            buf.put_u8(TAG_CLUSTER_UPDATE);
            put_params(buf, params);
            buf.put_f64_le(*age);
            buf.put_u32_le(*center as u32);
            buf.put_u64_le(*num_samples as u64);
        }
        FlMsg::JoinRequest { region } => {
            buf.put_u8(TAG_JOIN_REQUEST);
            buf.put_u32_le(*region as u32);
        }
        FlMsg::JoinAccept {
            ring,
            params,
            age,
            ages,
            bid_floor,
        } => {
            buf.put_u8(TAG_JOIN_ACCEPT);
            put_ring(buf, ring);
            put_params(buf, params);
            buf.put_f64_le(*age);
            buf.put_u32_le(ages.len() as u32);
            for &a in ages {
                buf.put_f64_le(a);
            }
            buf.put_u64_le(*bid_floor);
        }
        FlMsg::RingUpdate { ring, bid_floor } => {
            buf.put_u8(TAG_RING_UPDATE);
            put_ring(buf, ring);
            buf.put_u64_le(*bid_floor);
        }
        FlMsg::Rehome { server } => {
            buf.put_u8(TAG_REHOME);
            buf.put_u32_le(*server as u32);
        }
        FlMsg::ClientHello => {
            buf.put_u8(TAG_CLIENT_HELLO);
        }
        FlMsg::RedirectedUpdate {
            client,
            params,
            age,
            num_samples,
        } => {
            buf.put_u8(TAG_REDIRECTED_UPDATE);
            buf.put_u32_le(*client as u32);
            put_params(buf, params);
            buf.put_f64_le(*age);
            buf.put_u64_le(*num_samples as u64);
        }
        FlMsg::ScaleUp { sponsor } => {
            buf.put_u8(TAG_SCALE_UP);
            buf.put_u32_le(*sponsor as u32);
        }
        FlMsg::ScaleDown => {
            buf.put_u8(TAG_SCALE_DOWN);
        }
        FlMsg::EncodedUpdate {
            payload,
            age,
            num_samples,
        } => {
            buf.put_u8(TAG_ENCODED_UPDATE);
            buf.put_u32_le(payload.len() as u32);
            buf.put_slice(payload);
            buf.put_f64_le(*age);
            buf.put_u64_le(*num_samples as u64);
        }
    }
}

/// Decodes one frame produced by [`encode`].
///
/// The frame must contain exactly one message: short input yields
/// [`DecodeError::Truncated`], an unrecognised tag byte yields
/// [`DecodeError::UnknownTag`], and bytes left over after a complete
/// message yield [`DecodeError::TrailingBytes`].
///
/// # Errors
///
/// Returns a [`DecodeError`] as described above; never panics, whatever
/// the input bytes.
pub fn decode(frame: &Bytes) -> Result<FlMsg, DecodeError> {
    let mut buf = frame.clone();
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let tag = buf.get_u8();
    let msg = match tag {
        TAG_MODEL_TO_CLIENT => {
            let params = get_params(&mut buf)?;
            let age = get_f64(&mut buf)?;
            let lr = get_f32(&mut buf)?;
            FlMsg::ModelToClient { params, age, lr }
        }
        TAG_CLIENT_UPDATE => {
            let params = get_params(&mut buf)?;
            let age = get_f64(&mut buf)?;
            let num_samples = get_u64(&mut buf)? as usize;
            FlMsg::ClientUpdate {
                params,
                age,
                num_samples,
            }
        }
        TAG_SERVER_MODEL => {
            let params = get_params(&mut buf)?;
            let age = get_f64(&mut buf)?;
            let bid = get_u64(&mut buf)?;
            let server_idx = get_u32(&mut buf)? as usize;
            FlMsg::ServerModel {
                params,
                age,
                bid,
                server_idx,
            }
        }
        TAG_AGE_GOSSIP => {
            let age = get_f64(&mut buf)?;
            let server_idx = get_u32(&mut buf)? as usize;
            FlMsg::AgeGossip { age, server_idx }
        }
        TAG_TOKEN_PASS => {
            let bid = get_u64(&mut buf)?;
            let n = get_u32(&mut buf)? as usize;
            if buf.remaining() < n.saturating_mul(8) {
                return Err(DecodeError::Truncated);
            }
            let ages = (0..n).map(|_| buf.get_f64_le()).collect();
            FlMsg::TokenPass(Token { bid, ages })
        }
        TAG_HIER_MODEL => {
            let params = get_params(&mut buf)?;
            let round = get_u64(&mut buf)?;
            let weight = get_f64(&mut buf)?;
            FlMsg::HierModel {
                params,
                round,
                weight,
            }
        }
        TAG_CLUSTER_MODEL => {
            let params = get_params(&mut buf)?;
            let age = get_f64(&mut buf)?;
            let center = get_u32(&mut buf)? as usize;
            let server_idx = get_u32(&mut buf)? as usize;
            FlMsg::ClusterModel {
                params,
                age,
                center,
                server_idx,
            }
        }
        TAG_CENTERS_TO_CLIENT => {
            let k = get_u32(&mut buf)? as usize;
            // Each centre costs at least a 4-byte length plus an 8-byte
            // age; checking before `with_capacity` keeps a hostile `k`
            // from reserving gigabytes off a five-byte frame.
            if buf.remaining() < k.saturating_mul(12) {
                return Err(DecodeError::Truncated);
            }
            let mut centers = Vec::with_capacity(k);
            for _ in 0..k {
                centers.push(get_params(&mut buf)?);
            }
            let mut ages = Vec::with_capacity(k);
            for _ in 0..k {
                ages.push(get_f64(&mut buf)?);
            }
            let lr = get_f32(&mut buf)?;
            FlMsg::CentersToClient { centers, ages, lr }
        }
        TAG_CLUSTER_UPDATE => {
            let params = get_params(&mut buf)?;
            let age = get_f64(&mut buf)?;
            let center = get_u32(&mut buf)? as usize;
            let num_samples = get_u64(&mut buf)? as usize;
            FlMsg::ClusterUpdate {
                params,
                age,
                center,
                num_samples,
            }
        }
        TAG_JOIN_REQUEST => {
            let region = get_u32(&mut buf)? as usize;
            FlMsg::JoinRequest { region }
        }
        TAG_JOIN_ACCEPT => {
            let ring = get_ring(&mut buf)?;
            let params = get_params(&mut buf)?;
            let age = get_f64(&mut buf)?;
            let n = get_u32(&mut buf)? as usize;
            if buf.remaining() < n.saturating_mul(8) {
                return Err(DecodeError::Truncated);
            }
            let ages = (0..n).map(|_| buf.get_f64_le()).collect();
            let bid_floor = get_u64(&mut buf)?;
            FlMsg::JoinAccept {
                ring,
                params,
                age,
                ages,
                bid_floor,
            }
        }
        TAG_RING_UPDATE => {
            let ring = get_ring(&mut buf)?;
            let bid_floor = get_u64(&mut buf)?;
            FlMsg::RingUpdate { ring, bid_floor }
        }
        TAG_REHOME => {
            let server = get_u32(&mut buf)? as usize;
            FlMsg::Rehome { server }
        }
        TAG_CLIENT_HELLO => FlMsg::ClientHello,
        TAG_REDIRECTED_UPDATE => {
            let client = get_u32(&mut buf)? as usize;
            let params = get_params(&mut buf)?;
            let age = get_f64(&mut buf)?;
            let num_samples = get_u64(&mut buf)? as usize;
            FlMsg::RedirectedUpdate {
                client,
                params,
                age,
                num_samples,
            }
        }
        TAG_SCALE_UP => {
            let sponsor = get_u32(&mut buf)? as usize;
            FlMsg::ScaleUp { sponsor }
        }
        TAG_SCALE_DOWN => FlMsg::ScaleDown,
        TAG_ENCODED_UPDATE => {
            let n = get_u32(&mut buf)? as usize;
            // The payload is opaque here; the length is still validated
            // against the remaining bytes before any allocation (the
            // update codec re-validates the contents when decoding).
            if buf.remaining() < n {
                return Err(DecodeError::Truncated);
            }
            let payload: Vec<u8> = (0..n).map(|_| buf.get_u8()).collect();
            let age = get_f64(&mut buf)?;
            let num_samples = get_u64(&mut buf)? as usize;
            FlMsg::EncodedUpdate {
                payload,
                age,
                num_samples,
            }
        }
        other => return Err(DecodeError::UnknownTag(other)),
    };
    if buf.remaining() > 0 {
        return Err(DecodeError::TrailingBytes(buf.remaining()));
    }
    Ok(msg)
}

/// Reassembles length-prefixed frames from arbitrarily-chunked stream
/// reads.
///
/// Feed raw bytes as they arrive with [`feed`](Self::feed), then drain
/// complete frames with [`next_frame`](Self::next_frame). The accumulator
/// never trusts a length prefix beyond its configured cap, so a malicious
/// peer cannot force an unbounded buffer.
#[derive(Debug)]
pub struct FrameAccumulator {
    buf: Vec<u8>,
    start: usize,
    max_frame: usize,
}

impl FrameAccumulator {
    /// Creates an accumulator that rejects frames longer than `max_frame`.
    pub fn new(max_frame: usize) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            max_frame,
        }
    }

    /// Appends freshly-read bytes to the internal buffer.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Number of buffered bytes not yet returned as a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pops the next complete frame payload, if one has fully arrived.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Oversize`] when a length prefix exceeds the
    /// cap; the stream is desynchronised at that point and the connection
    /// should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, DecodeError> {
        if self.buffered() < 4 {
            self.compact();
            return Ok(None);
        }
        let header: [u8; 4] = self.buf[self.start..self.start + 4]
            .try_into()
            .expect("4-byte slice");
        let len = u32::from_le_bytes(header) as usize;
        if len > self.max_frame {
            return Err(DecodeError::Oversize {
                len: len as u64,
                max: self.max_frame as u64,
            });
        }
        if self.buffered() < 4 + len {
            self.compact();
            return Ok(None);
        }
        let frame = self.buf[self.start + 4..self.start + 4 + len].to_vec();
        self.start += 4 + len;
        self.compact();
        Ok(Some(frame))
    }

    /// Reclaims consumed prefix space once it grows past a threshold (or
    /// for free when the buffer is fully drained).
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= 64 * 1024 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

fn frame_capacity(msg: &FlMsg) -> usize {
    use spyker_simnet::WireSize;
    msg.wire_size() + 16
}

fn put_ring<B: BufMut>(buf: &mut B, ring: &RingView) {
    buf.put_u64_le(ring.epoch);
    buf.put_u64_le(ring.slots as u64);
    buf.put_u32_le(ring.members.len() as u32);
    for m in &ring.members {
        buf.put_u32_le(m.slot as u32);
        buf.put_u32_le(m.node as u32);
        buf.put_u8(m.region.index() as u8);
    }
}

fn get_ring(buf: &mut Bytes) -> Result<RingView, DecodeError> {
    let epoch = get_u64(buf)?;
    let slots = get_u64(buf)? as usize;
    let n = get_u32(buf)? as usize;
    // Each member costs 9 bytes; validate before allocating.
    if buf.remaining() < n.saturating_mul(9) {
        return Err(DecodeError::Truncated);
    }
    let mut members = Vec::with_capacity(n);
    for _ in 0..n {
        let slot = buf.get_u32_le() as usize;
        let node = buf.get_u32_le() as usize;
        let r = buf.get_u8();
        // A region byte outside the enum is an unknown discriminant, the
        // same class of violation as an unknown message tag.
        let region = *Region::ALL
            .get(r as usize)
            .ok_or(DecodeError::UnknownTag(r))?;
        members.push(RingMember { slot, node, region });
    }
    Ok(RingView {
        epoch,
        members,
        slots,
    })
}

fn put_params<B: BufMut>(buf: &mut B, params: &ParamVec) {
    buf.put_u32_le(params.len() as u32);
    for &v in params.as_slice() {
        buf.put_f32_le(v);
    }
}

fn get_params(buf: &mut Bytes) -> Result<ParamVec, DecodeError> {
    let n = get_u32(buf)? as usize;
    if buf.remaining() < n.saturating_mul(4) {
        return Err(DecodeError::Truncated);
    }
    let data = (0..n).map(|_| buf.get_f32_le()).collect();
    Ok(ParamVec::from_vec(data))
}

fn get_f64(buf: &mut Bytes) -> Result<f64, DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_f64_le())
}

fn get_f32(buf: &mut Bytes) -> Result<f32, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_f32_le())
}

fn get_u64(buf: &mut Bytes) -> Result<u64, DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_u64_le())
}

fn get_u32(buf: &mut Bytes) -> Result<u32, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_u32_le())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spyker_simnet::WireSize;

    fn sample_messages() -> Vec<FlMsg> {
        vec![
            FlMsg::ModelToClient {
                params: ParamVec::from_vec(vec![1.0, -2.5, 3.25]),
                age: 17.5,
                lr: 0.05,
            },
            FlMsg::ClientUpdate {
                params: ParamVec::from_vec(vec![0.0; 10]),
                age: 3.0,
                num_samples: 40,
            },
            FlMsg::ServerModel {
                params: ParamVec::from_vec(vec![f32::MIN, f32::MAX, 0.0]),
                age: 123.456,
                bid: 42,
                server_idx: 3,
            },
            FlMsg::AgeGossip {
                age: 0.0,
                server_idx: 0,
            },
            FlMsg::TokenPass(Token {
                bid: 7,
                ages: vec![1.0, 2.0, 3.0, 4.5],
            }),
            FlMsg::HierModel {
                params: ParamVec::zeros(1),
                round: 9,
                weight: 1000.0,
            },
            FlMsg::ClusterModel {
                params: ParamVec::from_vec(vec![0.5, -0.5]),
                age: 11.0,
                center: 1,
                server_idx: 2,
            },
            FlMsg::CentersToClient {
                centers: vec![ParamVec::zeros(3), ParamVec::from_vec(vec![1.0, 2.0, 3.0])],
                ages: vec![4.0, 5.0],
                lr: 0.25,
            },
            FlMsg::ClusterUpdate {
                params: ParamVec::from_vec(vec![7.0]),
                age: 2.0,
                center: 1,
                num_samples: 33,
            },
            FlMsg::JoinRequest { region: 2 },
            FlMsg::JoinAccept {
                ring: RingView::fixed(&[0, 1]).splice(5, Region::Sydney),
                params: ParamVec::from_vec(vec![1.0, -1.0]),
                age: 9.5,
                ages: vec![9.5, 3.0, 0.0],
                bid_floor: 17,
            },
            FlMsg::RingUpdate {
                ring: RingView::fixed(&[0, 1, 2]).unsplice(1),
                bid_floor: 21,
            },
            FlMsg::Rehome { server: 4 },
            FlMsg::ClientHello,
            FlMsg::RedirectedUpdate {
                client: 8,
                params: ParamVec::from_vec(vec![0.25; 5]),
                age: 6.0,
                num_samples: 12,
            },
            FlMsg::ScaleUp { sponsor: 0 },
            FlMsg::ScaleDown,
            FlMsg::EncodedUpdate {
                payload: vec![0x07, 2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8],
                age: 4.0,
                num_samples: 25,
            },
        ]
    }

    fn assert_round_trip(msg: &FlMsg) {
        let frame = encode(msg);
        let back = decode(&frame).expect("decode");
        // FlMsg has no PartialEq (ParamVec NaN semantics); compare the
        // re-encoding instead.
        assert_eq!(encode(&back), frame);
    }

    #[test]
    fn all_message_kinds_round_trip() {
        for msg in sample_messages() {
            assert_round_trip(&msg);
        }
    }

    #[test]
    fn encode_into_matches_encode() {
        for msg in sample_messages() {
            let mut out = Vec::new();
            encode_into(&msg, &mut out);
            assert_eq!(out.as_slice(), encode(&msg).as_ref());
        }
    }

    #[test]
    fn encoded_size_tracks_wire_size() {
        for msg in sample_messages() {
            let frame = encode(&msg);
            let declared = msg.wire_size();
            let actual = frame.len();
            assert!(
                actual.abs_diff(declared) <= 16,
                "{msg:?}: declared {declared}, encoded {actual}"
            );
        }
    }

    #[test]
    fn truncated_frames_are_rejected_not_panicked() {
        for msg in sample_messages() {
            let frame = encode(&msg);
            for cut in 0..frame.len() {
                let partial = frame.slice(0..cut);
                match decode(&partial) {
                    Err(_) => {}
                    Ok(m) => panic!("decoded {m:?} from a {cut}-byte prefix"),
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for msg in sample_messages() {
            let mut padded = encode(&msg).as_ref().to_vec();
            padded.push(0);
            assert_eq!(
                decode(&Bytes::from(padded)).unwrap_err(),
                DecodeError::TrailingBytes(1)
            );
        }
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate() {
        // CentersToClient claiming u32::MAX centres off a tiny frame must
        // fail fast instead of reserving memory for 4 billion entries.
        let mut frame = vec![TAG_CENTERS_TO_CLIENT];
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(&[0u8; 8]);
        assert_eq!(
            decode(&Bytes::from(frame)).unwrap_err(),
            DecodeError::Truncated
        );
    }

    #[test]
    fn hostile_ring_member_count_and_region_are_rejected() {
        // A RingUpdate claiming u32::MAX members off a short frame.
        let mut frame = vec![TAG_RING_UPDATE];
        frame.extend_from_slice(&0u64.to_le_bytes()); // epoch
        frame.extend_from_slice(&3u64.to_le_bytes()); // slots
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode(&Bytes::from(frame)).unwrap_err(),
            DecodeError::Truncated
        );
        // A valid-length member with a region byte outside the enum.
        let mut ring = RingView::fixed(&[0, 1]);
        ring.members[1].region = Region::California;
        let mut frame = encode(&FlMsg::RingUpdate { ring, bid_floor: 1 })
            .as_ref()
            .to_vec();
        let region_at = frame.len() - 8 - 1; // last member's region byte
        frame[region_at] = 200;
        assert_eq!(
            decode(&Bytes::from(frame)).unwrap_err(),
            DecodeError::UnknownTag(200)
        );
    }

    #[test]
    fn unknown_tag_is_reported() {
        let frame = Bytes::from_static(&[250, 0, 0, 0]);
        assert_eq!(decode(&frame).unwrap_err(), DecodeError::UnknownTag(250));
    }

    #[test]
    fn empty_frame_is_truncated() {
        assert_eq!(decode(&Bytes::new()).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn accumulator_reassembles_byte_by_byte() {
        let msgs = sample_messages();
        let mut stream = Vec::new();
        for msg in &msgs {
            frame_into(msg, &mut stream);
        }
        let mut acc = FrameAccumulator::new(MAX_FRAME_LEN);
        let mut out = Vec::new();
        for &b in &stream {
            acc.feed(&[b]);
            while let Some(frame) = acc.next_frame().expect("well-formed stream") {
                out.push(decode(&Bytes::from(frame)).expect("decode"));
            }
        }
        assert_eq!(out.len(), msgs.len());
        for (a, b) in out.iter().zip(&msgs) {
            assert_eq!(encode(a), encode(b));
        }
        assert_eq!(acc.buffered(), 0);
    }

    #[test]
    fn accumulator_rejects_oversize_length() {
        let mut acc = FrameAccumulator::new(1024);
        acc.feed(&(2048u32).to_le_bytes());
        assert!(matches!(
            acc.next_frame(),
            Err(DecodeError::Oversize {
                len: 2048,
                max: 1024
            })
        ));
    }
}
