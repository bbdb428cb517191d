//! A compact hand-rolled binary codec.
//!
//! The paper's wrapper packs each API call by hand into a message package;
//! this module is the equivalent: little-endian fixed-width scalars,
//! length-prefixed strings/byte-blobs, `u8` tags for enums. No reflection,
//! no schema evolution — both ends are always the same build, exactly as
//! in the paper's deployment.

use std::error::Error;
use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// A decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    UnexpectedEof {
        /// What was being decoded.
        what: &'static str,
    },
    /// An enum tag byte had no corresponding variant.
    InvalidTag {
        /// The enum being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// A length prefix exceeded the sanity limit.
    LengthOverflow {
        /// The claimed length.
        len: u64,
    },
    /// Trailing bytes remained after a complete decode.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { what } => {
                write!(f, "unexpected end of input while decoding {what}")
            }
            WireError::InvalidTag { what, tag } => {
                write!(f, "invalid tag {tag} for {what}")
            }
            WireError::InvalidUtf8 => f.write_str("string field is not valid UTF-8"),
            WireError::LengthOverflow { len } => {
                write!(f, "length prefix {len} exceeds the message limit")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing byte(s) after message")
            }
        }
    }
}

impl Error for WireError {}

/// Maximum length accepted for any single length-prefixed field (guards
/// against corrupted prefixes allocating unbounded memory).
pub const MAX_FIELD_LEN: u64 = 1 << 32;

/// Serializes a value into a byte stream.
pub trait Encode {
    /// Appends this value's encoding to `buf`.
    fn encode(&self, buf: &mut BytesMut);
}

/// Deserializes a value from a byte stream.
pub trait Decode: Sized {
    /// Consumes this value's encoding from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the bytes do not form a valid encoding.
    fn decode(buf: &mut Bytes) -> Result<Self, WireError>;
}

/// Encodes a value into a fresh `Vec<u8>`.
pub fn encode_to_vec<T: Encode>(value: &T) -> Vec<u8> {
    let mut buf = BytesMut::new();
    value.encode(&mut buf);
    buf.into_vec()
}

/// Encodes a value into [`Bytes`].
pub fn encode_to_bytes<T: Encode>(value: &T) -> Bytes {
    let mut buf = BytesMut::new();
    value.encode(&mut buf);
    buf.freeze()
}

/// Encodes a value by appending to an existing vector without copying
/// it — the pooled wire path encodes straight into a recycled frame
/// buffer this way.
pub fn encode_into_vec<T: Encode>(value: &T, out: &mut Vec<u8>) {
    let mut buf = BytesMut::from_vec(std::mem::take(out));
    value.encode(&mut buf);
    *out = buf.into_vec();
}

/// Decodes exactly one value from `bytes`, rejecting trailing garbage.
///
/// Copies the input once; see [`decode_from_bytes`] for the copy-free
/// form.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed input or leftover bytes.
pub fn decode_from_slice<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    decode_from_bytes(Bytes::copy_from_slice(bytes))
}

/// Decodes exactly one value from `bytes`, rejecting trailing garbage.
///
/// Byte-blob fields of the result are views of `bytes`, not copies: they
/// keep its storage alive until they drop.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed input or leftover bytes.
pub fn decode_from_bytes<T: Decode>(mut bytes: Bytes) -> Result<T, WireError> {
    let v = T::decode(&mut bytes)?;
    if !bytes.is_empty() {
        return Err(WireError::TrailingBytes {
            remaining: bytes.remaining(),
        });
    }
    Ok(v)
}

fn need(buf: &Bytes, n: usize, what: &'static str) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::UnexpectedEof { what })
    } else {
        Ok(())
    }
}

macro_rules! scalar_codec {
    ($t:ty, $put:ident, $get:ident, $what:literal) => {
        impl Encode for $t {
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
        }

        impl Decode for $t {
            fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
                need(buf, std::mem::size_of::<$t>(), $what)?;
                Ok(buf.$get())
            }
        }
    };
}

scalar_codec!(u8, put_u8, get_u8, "u8");
scalar_codec!(u16, put_u16_le, get_u16_le, "u16");
scalar_codec!(u32, put_u32_le, get_u32_le, "u32");
scalar_codec!(u64, put_u64_le, get_u64_le, "u64");
scalar_codec!(i32, put_i32_le, get_i32_le, "i32");
scalar_codec!(i64, put_i64_le, get_i64_le, "i64");
scalar_codec!(f32, put_f32_le, get_f32_le, "f32");
scalar_codec!(f64, put_f64_le, get_f64_le, "f64");

impl Encode for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        need(buf, 1, "bool")?;
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag { what: "bool", tag }),
        }
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u64).encode(buf);
        buf.put_slice(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = u64::decode(buf)?;
        if len > MAX_FIELD_LEN {
            return Err(WireError::LengthOverflow { len });
        }
        need(buf, len as usize, "string body")?;
        let raw = buf.split_to(len as usize);
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }
}

impl Encode for Bytes {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u64).encode(buf);
        buf.put_slice(self);
    }
}

impl Decode for Bytes {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = u64::decode(buf)?;
        if len > MAX_FIELD_LEN {
            return Err(WireError::LengthOverflow { len });
        }
        need(buf, len as usize, "bytes body")?;
        Ok(buf.split_to(len as usize))
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u64).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = u64::decode(buf)?;
        if len > MAX_FIELD_LEN {
            return Err(WireError::LengthOverflow { len });
        }
        let mut out = Vec::with_capacity((len as usize).min(4096));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        need(buf, 1, "option tag")?;
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            tag => Err(WireError::InvalidTag {
                what: "option",
                tag,
            }),
        }
    }
}

impl<const N: usize, T: Encode> Encode for [T; N] {
    fn encode(&self, buf: &mut BytesMut) {
        for item in self {
            item.encode(buf);
        }
    }
}

impl<const N: usize, T: Decode + Default + Copy> Decode for [T; N] {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::decode(buf)?;
        }
        Ok(out)
    }
}

// ID newtypes encode as their raw integers.
macro_rules! id_codec {
    ($($name:path),* $(,)?) => {
        $(
            impl Encode for $name {
                fn encode(&self, buf: &mut BytesMut) {
                    self.raw().encode(buf);
                }
            }

            impl Decode for $name {
                fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
                    Ok(<$name>::new(Decode::decode(buf)?))
                }
            }
        )*
    };
}

id_codec!(
    crate::ids::NodeId,
    crate::ids::UserId,
    crate::ids::BufferId,
    crate::ids::ProgramId,
    crate::ids::KernelId,
    crate::ids::QueueId,
    crate::ids::EventId,
    crate::ids::RequestId,
);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        let back: T = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(i32::MIN);
        roundtrip(i64::MIN);
        roundtrip(1.5f32);
        roundtrip(-2.25f64);
        roundtrip(true);
        roundtrip(false);
    }

    #[test]
    fn strings_and_bytes_roundtrip() {
        roundtrip(String::new());
        roundtrip("héllo wörld".to_string());
        roundtrip(Bytes::from_static(b"\x00\x01\xff"));
        roundtrip(Bytes::new());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(9u32));
        roundtrip(Option::<u32>::None);
        roundtrip([1u64, 2, 3]);
    }

    #[test]
    fn ids_roundtrip() {
        roundtrip(crate::ids::BufferId::new(77));
        roundtrip(crate::ids::NodeId::new(3));
    }

    #[test]
    fn truncated_input_is_eof() {
        let bytes = encode_to_vec(&12345u64);
        let err = decode_from_slice::<u64>(&bytes[..4]).unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEof { .. }));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_to_vec(&1u8);
        bytes.push(0);
        let err = decode_from_slice::<u8>(&bytes).unwrap_err();
        assert_eq!(err, WireError::TrailingBytes { remaining: 1 });
    }

    #[test]
    fn bad_bool_tag_rejected() {
        let err = decode_from_slice::<bool>(&[2]).unwrap_err();
        assert!(matches!(
            err,
            WireError::InvalidTag {
                what: "bool",
                tag: 2
            }
        ));
    }

    #[test]
    fn corrupt_length_prefix_rejected() {
        // A string claiming u64::MAX bytes must not attempt allocation.
        let bytes = encode_to_vec(&u64::MAX);
        let err = decode_from_slice::<String>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::LengthOverflow { .. }));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = BytesMut::new();
        2u64.encode(&mut buf);
        buf.put_slice(&[0xff, 0xfe]);
        let err = decode_from_slice::<String>(&buf.to_vec()).unwrap_err();
        assert_eq!(err, WireError::InvalidUtf8);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn any_u64_roundtrips(v in any::<u64>()) {
            let bytes = encode_to_vec(&v);
            prop_assert_eq!(decode_from_slice::<u64>(&bytes).unwrap(), v);
        }

        #[test]
        fn any_string_roundtrips(s in ".*") {
            let v = s.to_string();
            let bytes = encode_to_vec(&v);
            prop_assert_eq!(decode_from_slice::<String>(&bytes).unwrap(), v);
        }

        #[test]
        fn any_vec_roundtrips(v in proptest::collection::vec(any::<i64>(), 0..64)) {
            let bytes = encode_to_vec(&v);
            prop_assert_eq!(decode_from_slice::<Vec<i64>>(&bytes).unwrap(), v);
        }

        #[test]
        fn random_bytes_never_panic_decoding(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Decoding arbitrary garbage may fail but must not panic.
            let _ = decode_from_slice::<String>(&data);
            let _ = decode_from_slice::<Vec<u32>>(&data);
            let _ = decode_from_slice::<Option<u64>>(&data);
            let _ = decode_from_bytes::<String>(Bytes::from(data.clone()));
            let _ = decode_from_bytes::<Vec<u32>>(Bytes::from(data.clone()));
            let _ = decode_from_bytes::<Option<u64>>(Bytes::from(data));
        }
    }
}
