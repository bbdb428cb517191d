//! Length-prefixed framing, MTU segmentation and reassembly.
//!
//! Every message/data package travels as one *frame*: a little-endian
//! `u32` length prefix followed by the payload. The fabric sends each
//! frame whole, and a [`FrameAssembler`] at the receiver slices the
//! payload out of it without copying.
//!
//! The assembler also accepts any other chunking of a frame stream:
//! frames split across chunks are assembled through an internal buffer
//! (one copy), and partial arrival, interleaved boundaries, truncation
//! and corrupt prefixes are covered by the tests and proptests below.
//! [`segment`] and [`segment_pooled`] cut a frame into [`MTU`]-sized
//! chunks without copying (borrowed sub-slices and [`PooledBytes`]
//! views respectively) for callers that model per-segment traffic.

use crate::error::NetError;
use crate::pool::{BufferPool, PooledBytes};

/// Ethernet payload size used for segmentation.
pub const MTU: usize = 1500;

/// Maximum accepted frame payload (guards against corrupt prefixes).
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Encodes a payload as a frame: length prefix plus body.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Builds a frame in a pooled buffer: `write` appends the payload, and
/// the length prefix is patched afterwards. One checkout, zero
/// intermediate copies.
pub fn encode_frame_pooled(pool: &BufferPool, write: impl FnOnce(&mut Vec<u8>)) -> PooledBytes {
    let mut buf = pool.take();
    let v = buf.bytes_mut();
    v.extend_from_slice(&[0u8; 4]);
    write(v);
    let len = (v.len() - 4) as u32;
    v[..4].copy_from_slice(&len.to_le_bytes());
    buf.seal()
}

/// Splits an encoded frame into MTU-sized chunks (the last may be
/// short) without copying: each chunk borrows the input, and a frame
/// that already fits in one MTU is yielded as-is.
///
/// An empty frame still produces one chunk (the 4-byte prefix).
pub fn segment(frame: &[u8]) -> impl Iterator<Item = &[u8]> {
    frame.chunks(MTU)
}

/// [`segment`] over a pooled frame: every chunk is a [`PooledBytes`]
/// view sharing the frame's backing storage.
pub fn segment_pooled(frame: &PooledBytes) -> impl Iterator<Item = PooledBytes> + '_ {
    (0..frame.len().max(1))
        .step_by(MTU)
        .map(|start| frame.slice(start..frame.len().min(start + MTU)))
}

/// Incremental reassembly of frames from a chunk stream.
///
/// # Examples
///
/// ```
/// use haocl_net::frame::{encode_frame, segment, FrameAssembler};
///
/// let payload = vec![7u8; 4000];
/// let mut asm = FrameAssembler::new();
/// let mut frames = Vec::new();
/// for chunk in segment(&encode_frame(&payload)) {
///     frames.extend(asm.push(chunk)?);
/// }
/// assert_eq!(frames, vec![payload]);
/// # Ok::<(), haocl_net::NetError>(())
/// ```
#[derive(Debug, Default)]
pub struct FrameAssembler {
    /// Bytes of a frame spanning chunk boundaries (empty on the fast
    /// path, where complete frames are sliced out of arriving chunks).
    buf: Vec<u8>,
}

impl FrameAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Feeds received bytes in; returns every frame completed by them.
    ///
    /// # Errors
    ///
    /// [`NetError::BadFrame`] if a length prefix exceeds
    /// [`MAX_FRAME_LEN`].
    pub fn push(&mut self, chunk: &[u8]) -> Result<Vec<Vec<u8>>, NetError> {
        Ok(self
            .push_pooled(&PooledBytes::copy_from_slice(chunk))?
            .into_iter()
            .map(|f| f.to_vec())
            .collect())
    }

    /// [`FrameAssembler::push`] over a pooled chunk. Frames contained
    /// entirely within `chunk` are returned as views of its storage —
    /// no copy; only frames spanning chunk boundaries are assembled
    /// through the internal buffer.
    ///
    /// # Errors
    ///
    /// [`NetError::BadFrame`] if a length prefix exceeds
    /// [`MAX_FRAME_LEN`].
    pub fn push_pooled(&mut self, chunk: &PooledBytes) -> Result<Vec<PooledBytes>, NetError> {
        let mut out = Vec::new();
        let mut rest = chunk.clone();
        if self.buf.is_empty() {
            // Fast path: whole frames at the front of the chunk are
            // zero-copy slices of its backing storage.
            while let Some(total) = frame_total_len(&rest)? {
                out.push(rest.slice(4..total));
                rest = rest.slice(total..rest.len());
            }
        }
        if !rest.is_empty() {
            self.buf.extend_from_slice(&rest);
        }
        while let Some(total) = frame_total_len(&self.buf)? {
            out.push(PooledBytes::from_vec(self.buf[4..total].to_vec()));
            self.buf.drain(..total);
        }
        Ok(out)
    }

    /// Bytes buffered awaiting completion of the current frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }
}

/// Total length (prefix + payload) of the frame at the front of
/// `bytes`, `None` while incomplete.
fn frame_total_len(bytes: &[u8]) -> Result<Option<usize>, NetError> {
    if bytes.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(NetError::BadFrame {
            reason: format!("length prefix {len} exceeds limit"),
        });
    }
    let total = 4 + len as usize;
    Ok((bytes.len() >= total).then_some(total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_payload_roundtrips() {
        let mut asm = FrameAssembler::new();
        let frames = asm.push(&encode_frame(&[])).unwrap();
        assert_eq!(frames, vec![Vec::<u8>::new()]);
        assert_eq!(asm.pending_bytes(), 0);
    }

    #[test]
    fn single_chunk_roundtrips() {
        let mut asm = FrameAssembler::new();
        let frames = asm.push(&encode_frame(b"abc")).unwrap();
        assert_eq!(frames, vec![b"abc".to_vec()]);
    }

    #[test]
    fn single_chunk_segmentation_borrows_the_frame() {
        let frame = encode_frame(&[5u8; 100]);
        let chunks: Vec<&[u8]> = segment(&frame).collect();
        assert_eq!(chunks.len(), 1);
        // The ≤ MTU common case must not copy: same allocation.
        assert!(std::ptr::eq(chunks[0], frame.as_slice()));
    }

    #[test]
    fn large_frame_segments_and_reassembles() {
        let payload: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let frame = encode_frame(&payload);
        let chunks: Vec<&[u8]> = segment(&frame).collect();
        assert!(chunks.len() > 1);
        assert!(chunks.iter().all(|c| c.len() <= MTU));
        let mut asm = FrameAssembler::new();
        let mut frames = Vec::new();
        for c in &chunks {
            frames.extend(asm.push(c).unwrap());
        }
        assert_eq!(frames, vec![payload]);
    }

    #[test]
    fn pooled_segmentation_shares_storage() {
        let pool = BufferPool::new();
        let payload = vec![3u8; 4000];
        let frame = encode_frame_pooled(&pool, |v| v.extend_from_slice(&payload));
        assert_eq!(frame.len(), 4004);
        let chunks: Vec<PooledBytes> = segment_pooled(&frame).collect();
        assert_eq!(chunks.len(), 3);
        // Chunk views alias the frame's allocation, not copies of it.
        assert!(std::ptr::eq(&chunks[0][..MTU], &frame[..MTU]));
        let mut asm = FrameAssembler::new();
        let mut frames = Vec::new();
        for c in &chunks {
            frames.extend(asm.push_pooled(c).unwrap());
        }
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0], payload);
    }

    #[test]
    fn assembler_fast_path_is_zero_copy() {
        let pool = BufferPool::new();
        let chunk = encode_frame_pooled(&pool, |v| v.extend_from_slice(b"tiny"));
        let mut asm = FrameAssembler::new();
        let frames = asm.push_pooled(&chunk).unwrap();
        assert_eq!(frames.len(), 1);
        // The returned frame is a view into the chunk's own storage.
        assert!(std::ptr::eq(&frames[0][..], &chunk[4..]));
        assert_eq!(asm.pending_bytes(), 0);
    }

    #[test]
    fn two_frames_in_one_chunk() {
        let mut bytes = encode_frame(b"one");
        bytes.extend_from_slice(&encode_frame(b"two"));
        let mut asm = FrameAssembler::new();
        let frames = asm.push(&bytes).unwrap();
        assert_eq!(frames, vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn frame_split_at_awkward_boundaries() {
        let payload = vec![9u8; 100];
        let bytes = encode_frame(&payload);
        let mut asm = FrameAssembler::new();
        // Feed one byte at a time: the worst case.
        let mut frames = Vec::new();
        for b in &bytes {
            frames.extend(asm.push(std::slice::from_ref(b)).unwrap());
        }
        assert_eq!(frames, vec![payload]);
    }

    #[test]
    fn oversized_prefix_rejected() {
        let mut asm = FrameAssembler::new();
        let bad = (MAX_FRAME_LEN + 1).to_le_bytes();
        let err = asm.push(&bad).unwrap_err();
        assert!(matches!(err, NetError::BadFrame { .. }));
    }

    #[test]
    fn pending_bytes_tracks_partial_frames() {
        let mut asm = FrameAssembler::new();
        let bytes = encode_frame(&[1, 2, 3, 4]);
        asm.push(&bytes[..5]).unwrap();
        assert_eq!(asm.pending_bytes(), 5);
        asm.push(&bytes[5..]).unwrap();
        assert_eq!(asm.pending_bytes(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn arbitrary_payload_sequences_reassemble(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..5000), 1..6),
            cut in 1usize..2000,
        ) {
            // Concatenate all frames, feed them in `cut`-sized pieces.
            let mut stream = Vec::new();
            for p in &payloads {
                stream.extend_from_slice(&encode_frame(p));
            }
            let mut asm = FrameAssembler::new();
            let mut frames = Vec::new();
            for piece in stream.chunks(cut) {
                frames.extend(asm.push(piece).unwrap());
            }
            prop_assert_eq!(frames, payloads);
            prop_assert_eq!(asm.pending_bytes(), 0);
        }

        #[test]
        fn pooled_and_copying_paths_agree(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..4000), 1..5),
            cut in 1usize..1600,
        ) {
            let pool = BufferPool::new();
            let mut stream = Vec::new();
            for p in &payloads {
                let f = encode_frame_pooled(&pool, |v| v.extend_from_slice(p));
                stream.extend_from_slice(&f);
            }
            let mut asm = FrameAssembler::new();
            let mut frames = Vec::new();
            for piece in stream.chunks(cut) {
                let chunk = PooledBytes::copy_from_slice(piece);
                frames.extend(asm.push_pooled(&chunk).unwrap());
            }
            let got: Vec<Vec<u8>> = frames.iter().map(|f| f.to_vec()).collect();
            prop_assert_eq!(got, payloads);
            prop_assert_eq!(asm.pending_bytes(), 0);
        }

        #[test]
        fn truncated_streams_yield_nothing_and_stay_pending(
            payload in proptest::collection::vec(any::<u8>(), 0..4000),
            keep in any::<u64>(),
            cut in 1usize..1600,
        ) {
            let frame = encode_frame(&payload);
            let fed = &frame[..(keep % frame.len() as u64) as usize];
            let mut asm = FrameAssembler::new();
            for piece in fed.chunks(cut) {
                let chunk = PooledBytes::copy_from_slice(piece);
                prop_assert!(asm.push_pooled(&chunk).unwrap().is_empty());
            }
            prop_assert_eq!(asm.pending_bytes(), fed.len());
        }

        #[test]
        fn garbage_never_panics_and_oversize_prefixes_are_bad_frames(
            garbage in proptest::collection::vec(any::<u8>(), 0..3000),
            lead in proptest::collection::vec(any::<u8>(), 0..600),
            bad_len in (MAX_FRAME_LEN + 1)..u32::MAX,
            cut in 1usize..1600,
        ) {
            // Arbitrary bytes: every push either completes frames or
            // reports a typed framing error.
            let mut asm = FrameAssembler::new();
            for piece in garbage.chunks(cut) {
                if let Err(e) = asm.push(piece) {
                    prop_assert!(matches!(e, NetError::BadFrame { .. }), "{:?}", e);
                }
            }
            // A whole frame, then an oversize prefix: the push that
            // completes the prefix fails, never a later one.
            let mut stream = encode_frame(&lead);
            let prefix_end = stream.len() + 4;
            stream.extend_from_slice(&bad_len.to_le_bytes());
            stream.extend_from_slice(&garbage);
            let mut asm = FrameAssembler::new();
            let mut fed = 0;
            let mut failed_at = None;
            for piece in stream.chunks(cut) {
                fed += piece.len();
                if let Err(e) = asm.push(piece) {
                    prop_assert!(matches!(e, NetError::BadFrame { .. }), "{:?}", e);
                    failed_at = Some(fed);
                    break;
                }
            }
            let failed_at = failed_at.expect("oversize prefix accepted");
            prop_assert!(failed_at >= prefix_end && failed_at < prefix_end + cut);
        }
    }
}
