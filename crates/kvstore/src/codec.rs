//! Versioned adjacency-value codecs.
//!
//! Every value stored for a vertex is one encoded adjacency set, led by
//! a **one-byte format tag** so readers are self-describing: a store
//! written with either codec decodes with the same entry points, and an
//! unknown or damaged tag surfaces as a structured [`CodecError`]
//! instead of a panic.
//!
//! Wire formats:
//!
//! ```text
//! tag 0x01  raw-u32        [tag][n × u32 little-endian]
//! tag 0x02  delta-varint   [tag][varint id0][varint gap1]...[varint gapN]
//! ```
//!
//! `delta-varint` exploits that adjacency sets are strictly increasing:
//! it stores the first id and then the gaps, each as an LEB128 varint
//! (7 payload bits per byte, high bit = continuation). Sorted real-world
//! neighbourhoods have small gaps, so most neighbours cost 1–2 bytes
//! instead of 4 — the communication-volume lever the BENU cost model
//! rewards directly.
//!
//! Decoding validates structure end to end (tag, truncation, id
//! overflow, monotonicity), so a corrupt shard value degrades into an
//! error the runtime carries to the caller, never undefined behaviour.

use benu_graph::{AdjSet, VertexId, DENSE_BLOCK_THRESHOLD};
use std::sync::Arc;

/// Wire tag of [`CodecKind::RawU32`].
const TAG_RAW_U32: u8 = 0x01;
/// Wire tag of [`CodecKind::DeltaVarint`].
const TAG_DELTA_VARINT: u8 = 0x02;

/// The adjacency codecs a store can be built with. The kind picked at
/// store-build time decides the wire bytes; decoding always follows the
/// per-value tag, so readers need no configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// `[tag][n × u32 LE]` — today's payload bytes behind the tag.
    #[default]
    RawU32,
    /// `[tag][varint first][varint gaps...]` — delta + LEB128.
    DeltaVarint,
}

impl CodecKind {
    /// Stable lower-case name (used in reports and CLI flags).
    pub fn name(&self) -> &'static str {
        match self {
            CodecKind::RawU32 => "raw-u32",
            CodecKind::DeltaVarint => "delta-varint",
        }
    }

    /// The one-byte wire tag leading every value this codec writes.
    pub fn tag(&self) -> u8 {
        match self {
            CodecKind::RawU32 => TAG_RAW_U32,
            CodecKind::DeltaVarint => TAG_DELTA_VARINT,
        }
    }

    /// Resolves a wire tag back to its codec.
    pub fn from_tag(tag: u8) -> Option<CodecKind> {
        match tag {
            TAG_RAW_U32 => Some(CodecKind::RawU32),
            TAG_DELTA_VARINT => Some(CodecKind::DeltaVarint),
            _ => None,
        }
    }
}

/// Structured decode failure: what exactly is wrong with a value's
/// bytes. Carried up through the store's `CorruptValue` and from there
/// into the run's `Failure`, so a damaged shard degrades like a
/// fault instead of crashing the enumeration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Zero-length value: even an empty set carries its tag byte.
    Empty,
    /// Leading byte is not a known codec tag.
    UnknownTag(u8),
    /// Payload ends mid-id (raw) or mid-varint / with a dangling
    /// continuation bit (delta).
    Truncated,
    /// A decoded id or gap sum exceeds `u32::MAX`.
    Overflow,
    /// Ids are not strictly increasing (raw payload out of order, or a
    /// zero gap).
    NonMonotonic,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Empty => write!(f, "empty value (missing codec tag)"),
            CodecError::UnknownTag(tag) => write!(f, "unknown codec tag 0x{tag:02x}"),
            CodecError::Truncated => write!(f, "truncated payload"),
            CodecError::Overflow => write!(f, "id overflows u32"),
            CodecError::NonMonotonic => write!(f, "ids not strictly increasing"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An adjacency-value wire format: encode a strictly increasing id run
/// into tagged bytes, decode a tagged payload back. Implementations are
/// stateless unit structs; [`encode`]/[`decode_into`] dispatch on
/// [`CodecKind`] / the wire tag so callers rarely name them directly.
pub trait Codec {
    /// The kind this codec writes (and whose tag it expects back).
    fn kind(&self) -> CodecKind;

    /// Appends the tag byte and the encoded payload to `out`.
    fn encode_into(&self, neighbors: &[VertexId], out: &mut Vec<u8>);

    /// Decodes `payload` (the bytes *after* the tag) into `out`
    /// (cleared first), validating structure and monotonicity.
    fn decode_payload(&self, payload: &[u8], out: &mut Vec<VertexId>) -> Result<(), CodecError>;
}

/// `[tag][n × u32 little-endian]`.
pub struct RawU32;

impl Codec for RawU32 {
    fn kind(&self) -> CodecKind {
        CodecKind::RawU32
    }

    fn encode_into(&self, neighbors: &[VertexId], out: &mut Vec<u8>) {
        out.push(TAG_RAW_U32);
        for &v in neighbors {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode_payload(&self, payload: &[u8], out: &mut Vec<VertexId>) -> Result<(), CodecError> {
        out.clear();
        if !payload.len().is_multiple_of(4) {
            return Err(CodecError::Truncated);
        }
        out.reserve(payload.len() / 4);
        let mut prev: Option<VertexId> = None;
        for chunk in payload.chunks_exact(4) {
            let v = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
            if prev.is_some_and(|p| p >= v) {
                return Err(CodecError::NonMonotonic);
            }
            prev = Some(v);
            out.push(v);
        }
        Ok(())
    }
}

/// `[tag][varint first][varint gaps...]` — see the module docs.
pub struct DeltaVarint;

/// Appends `v` as an LEB128 varint (1–5 bytes for a `u32`).
fn put_varint(mut v: u32, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one LEB128 varint from `payload[*pos..]`, advancing `pos`.
fn get_varint(payload: &[u8], pos: &mut usize) -> Result<u32, CodecError> {
    let mut value: u32 = 0;
    let mut shift: u32 = 0;
    loop {
        let &byte = payload.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        let bits = (byte & 0x7f) as u32;
        // A u32 spans at most 5 varint bytes; the 5th may carry only 4
        // payload bits.
        if shift == 28 && bits > 0x0f {
            return Err(CodecError::Overflow);
        }
        if shift > 28 {
            return Err(CodecError::Overflow);
        }
        value |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

impl Codec for DeltaVarint {
    fn kind(&self) -> CodecKind {
        CodecKind::DeltaVarint
    }

    fn encode_into(&self, neighbors: &[VertexId], out: &mut Vec<u8>) {
        out.push(TAG_DELTA_VARINT);
        let mut prev = 0u32;
        for (i, &v) in neighbors.iter().enumerate() {
            debug_assert!(i == 0 || v > prev, "ids not strictly increasing");
            put_varint(if i == 0 { v } else { v - prev }, out);
            prev = v;
        }
    }

    fn decode_payload(&self, payload: &[u8], out: &mut Vec<VertexId>) -> Result<(), CodecError> {
        out.clear();
        let mut pos = 0usize;
        if payload.is_empty() {
            return Ok(());
        }
        let mut current = get_varint(payload, &mut pos)?;
        out.push(current);
        while pos < payload.len() {
            let gap = get_varint(payload, &mut pos)?;
            if gap == 0 {
                return Err(CodecError::NonMonotonic);
            }
            current = current.checked_add(gap).ok_or(CodecError::Overflow)?;
            out.push(current);
        }
        Ok(())
    }
}

/// Encodes a strictly increasing id run with the given codec, returning
/// the tagged wire bytes.
pub fn encode(kind: CodecKind, neighbors: &[VertexId]) -> Arc<[u8]> {
    let mut out = Vec::new();
    match kind {
        CodecKind::RawU32 => RawU32.encode_into(neighbors, &mut out),
        CodecKind::DeltaVarint => DeltaVarint.encode_into(neighbors, &mut out),
    }
    out.into()
}

/// Decodes a tagged value into a caller-owned buffer (cleared first) —
/// the pooled-buffer entry point: a reader that recycles `out` performs
/// no allocation once the buffer has grown to the working degree.
/// Returns the codec the value was written with.
pub fn decode_into(value: &[u8], out: &mut Vec<VertexId>) -> Result<CodecKind, CodecError> {
    let (&tag, payload) = value.split_first().ok_or(CodecError::Empty)?;
    let kind = CodecKind::from_tag(tag).ok_or(CodecError::UnknownTag(tag))?;
    match kind {
        CodecKind::RawU32 => RawU32.decode_payload(payload, out)?,
        CodecKind::DeltaVarint => DeltaVarint.decode_payload(payload, out)?,
    }
    Ok(kind)
}

/// Decodes a tagged value into an owned [`AdjSet`], building the dense
/// block representation when the degree warrants it (the store-build
/// half of the dual-representation design).
pub fn decode(value: &[u8]) -> Result<AdjSet, CodecError> {
    let mut ids = Vec::new();
    decode_into(value, &mut ids)?;
    Ok(AdjSet::from_sorted(ids).with_blocks(DENSE_BLOCK_THRESHOLD))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const KINDS: [CodecKind; 2] = [CodecKind::RawU32, CodecKind::DeltaVarint];

    /// Adversarial degree distributions: empty, singleton, dense runs,
    /// huge gaps, and ids at the `u32` ceiling.
    fn adversarial_sets() -> Vec<Vec<VertexId>> {
        let mut sets = vec![
            vec![],
            vec![0],
            vec![u32::MAX],
            vec![0, u32::MAX],
            (0..1000).collect(),
            (0..2048).map(|x| x * 2).collect(),
            vec![
                1,
                2,
                3,
                127,
                128,
                129,
                16_383,
                16_384,
                u32::MAX - 1,
                u32::MAX,
            ],
        ];
        // Power-law-ish gaps: doubling strides.
        let mut v = 1u32;
        let mut doubling = Vec::new();
        while let Some(next) = v.checked_mul(2) {
            doubling.push(v);
            v = next;
        }
        sets.push(doubling);
        sets
    }

    #[test]
    fn roundtrip_is_exact_for_every_codec_and_distribution() {
        let mut out = Vec::new();
        for ids in adversarial_sets() {
            for kind in KINDS {
                let wire = encode(kind, &ids);
                assert_eq!(wire[0], kind.tag(), "tag leads the value");
                let decoded_kind = decode_into(&wire, &mut out).expect("roundtrip");
                assert_eq!(decoded_kind, kind, "decode is self-describing");
                assert_eq!(out, ids, "{}: {ids:?}", kind.name());
                let set = decode(&wire).expect("roundtrip");
                assert_eq!(set.as_slice(), &ids[..]);
            }
        }
    }

    #[test]
    fn cross_codec_decodes_agree_byte_for_byte() {
        let (mut raw, mut delta) = (Vec::new(), Vec::new());
        for ids in adversarial_sets() {
            decode_into(&encode(CodecKind::RawU32, &ids), &mut raw).expect("raw");
            decode_into(&encode(CodecKind::DeltaVarint, &ids), &mut delta).expect("delta");
            assert_eq!(raw, delta, "{ids:?}");
        }
    }

    #[test]
    fn delta_varint_compresses_small_gap_runs() {
        let ids: Vec<VertexId> = (0..1000).collect();
        let raw = encode(CodecKind::RawU32, &ids);
        let delta = encode(CodecKind::DeltaVarint, &ids);
        assert_eq!(raw.len(), 1 + 4 * 1000);
        // First id is one byte, then 999 single-byte gaps.
        assert_eq!(delta.len(), 1 + 1000);
        assert!(delta.len() * 2 < raw.len(), "≥2× smaller on dense runs");
    }

    #[test]
    fn decode_surfaces_structured_errors() {
        let mut out = Vec::new();
        assert_eq!(decode_into(&[], &mut out), Err(CodecError::Empty));
        assert_eq!(
            decode_into(&[0xff, 1, 2, 3], &mut out),
            Err(CodecError::UnknownTag(0xff))
        );
        // Raw payload not a multiple of 4.
        assert_eq!(
            decode_into(&[TAG_RAW_U32, 1, 2, 3], &mut out),
            Err(CodecError::Truncated)
        );
        // Raw payload out of order / duplicated.
        let mut wire = Vec::new();
        RawU32.encode_into(&[5, 5], &mut wire);
        assert_eq!(decode_into(&wire, &mut out), Err(CodecError::NonMonotonic));
        // Delta varint with a dangling continuation bit.
        assert_eq!(
            decode_into(&[TAG_DELTA_VARINT, 0x80], &mut out),
            Err(CodecError::Truncated)
        );
        // Zero gap = duplicate id.
        assert_eq!(
            decode_into(&[TAG_DELTA_VARINT, 7, 0], &mut out),
            Err(CodecError::NonMonotonic)
        );
        // Gap pushing the running id past u32::MAX.
        let mut wire = Vec::new();
        DeltaVarint.encode_into(&[u32::MAX - 1, u32::MAX], &mut wire);
        let mut bytes = wire.clone();
        *bytes.last_mut().expect("gap byte") = 0x03;
        assert_eq!(decode_into(&bytes, &mut out), Err(CodecError::Overflow));
        // A 5-byte varint whose top nibble spills out of u32.
        assert_eq!(
            decode_into(&[TAG_DELTA_VARINT, 0xff, 0xff, 0xff, 0xff, 0x1f], &mut out),
            Err(CodecError::Overflow)
        );
    }

    /// Decodes `value` through both entry points: each returns the same
    /// `CodecError`, or both the same strictly increasing run.
    fn decode_both(value: &[u8], out: &mut Vec<VertexId>) {
        let into = decode_into(value, out).map(|_| ());
        let owned = decode(value);
        match &owned {
            Ok(set) => assert_eq!(Ok(set.as_slice()), into.map(|()| &out[..]), "{value:?}"),
            Err(e) => assert_eq!(into, Err(*e), "{value:?}"),
        }
        assert!(
            owned.is_err() || out.windows(2).all(|w| w[0] < w[1]),
            "{value:?} decoded to a run that is not strictly increasing"
        );
    }

    #[test]
    fn decode_fails_cleanly_on_arbitrary_bytes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xc0dec);
        let (mut buf, mut out) = ([0u8; 64], Vec::new());
        for _ in 0..100_000 {
            let value = &mut buf[..rng.gen_range(0..=64usize)];
            rng.fill_bytes(value);
            if let Some(tag) = value.first_mut() {
                // Two draws in three lead with a valid tag, so most
                // values reach the payload decoders.
                *tag = [TAG_RAW_U32, TAG_DELTA_VARINT, *tag][rng.gen_range(0..3usize)];
            }
            decode_both(value, &mut out);
        }
        // Every prefix of every valid encoding: a cut decodes to a prefix
        // of the run or fails. (`decode` adds only the set build to
        // `decode_into`, and thousands of prefixes of the long runs
        // through it would cost a second in debug.)
        for ids in adversarial_sets() {
            for kind in KINDS {
                let wire = encode(kind, &ids);
                for end in 0..=wire.len() {
                    if decode_into(&wire[..end], &mut out).is_ok() {
                        assert!(out[..] == ids[..out.len()], "{} cut at {end}", kind.name());
                    }
                }
            }
        }
    }

    #[test]
    fn decode_builds_blocks_for_dense_sets_only() {
        let dense: Vec<VertexId> = (0..100).collect();
        let wire = encode(CodecKind::DeltaVarint, &dense);
        assert!(decode(&wire).expect("dense").has_blocks());
        let sparse = encode(CodecKind::DeltaVarint, &[1, 9, 200]);
        assert!(!decode(&sparse).expect("sparse").has_blocks());
    }

    #[test]
    fn kind_resolves_its_own_tag() {
        for kind in KINDS {
            assert_eq!(CodecKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(CodecKind::from_tag(0), None);
    }
}
