//! Offline drop-in subset of the `bytes` crate.
//!
//! Provides [`Bytes`] (a cheaply cloneable, sliceable shared byte
//! buffer), [`BytesMut`] (a growable builder), and the [`Buf`]/[`BufMut`]
//! cursor traits — exactly the surface the HaoCL wire codec uses.
//! Little-endian accessors only, matching the hand-rolled protocol.

use std::ops::Deref;
use std::sync::Arc;

macro_rules! buf_get_impl {
    ($($fn:ident -> $t:ty),* $(,)?) => {
        $(
            /// Consumes and returns one little-endian scalar.
            ///
            /// # Panics
            ///
            /// Panics if fewer than `size_of` bytes remain.
            fn $fn(&mut self) -> $t
            where
                Self: Sized,
            {
                let mut raw = [0u8; std::mem::size_of::<$t>()];
                self.copy_to_slice(&mut raw);
                <$t>::from_le_bytes(raw)
            }
        )*
    };
}

/// A read cursor over a contiguous byte buffer.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];
    /// Consumes `cnt` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `cnt > self.remaining()`.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Copies bytes into `dst`, consuming them.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is longer than the remaining bytes.
    fn copy_to_slice(&mut self, dst: &mut [u8])
    where
        Self: Sized,
    {
        assert!(dst.len() <= self.remaining(), "copy_to_slice out of bounds");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Consumes and returns one byte.
    ///
    /// # Panics
    ///
    /// Panics if no bytes remain.
    fn get_u8(&mut self) -> u8
    where
        Self: Sized,
    {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    buf_get_impl!(
        get_u16_le -> u16,
        get_u32_le -> u32,
        get_u64_le -> u64,
        get_i32_le -> i32,
        get_i64_le -> i64,
        get_f32_le -> f32,
        get_f64_le -> f64,
    );
}

macro_rules! bufmut_put_impl {
    ($($fn:ident($t:ty)),* $(,)?) => {
        $(
            /// Appends one little-endian scalar.
            fn $fn(&mut self, v: $t)
            where
                Self: Sized,
            {
                self.put_slice(&v.to_le_bytes());
            }
        )*
    };
}

/// A write cursor appending to a byte buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8)
    where
        Self: Sized,
    {
        self.put_slice(&[v]);
    }

    bufmut_put_impl!(
        put_u16_le(u16),
        put_u32_le(u32),
        put_u64_le(u64),
        put_i32_le(i32),
        put_i64_le(i64),
        put_f32_le(f32),
        put_f64_le(f64),
    );
}

/// A cheaply cloneable, sliceable, immutable byte buffer.
///
/// Clones share the backing allocation; [`Bytes::split_to`] and
/// [`Bytes::split_off`] adjust view bounds without copying. The storage
/// is whatever owns the bytes — a vector ([`From<Vec<u8>>`] keeps its
/// allocation) or any [`Bytes::from_owner`] value — and is dropped with
/// the last view.
#[derive(Clone)]
pub struct Bytes {
    /// Start of this view inside the owner's bytes.
    ptr: *const u8,
    len: usize,
    /// Keeps the bytes alive; `None` for static and empty views.
    owner: Option<Arc<dyn Send + Sync>>,
}

// SAFETY: the viewed bytes are immutable and kept alive by `owner`,
// which is itself `Send + Sync`.
unsafe impl Send for Bytes {}
unsafe impl Sync for Bytes {}

/// Moves a `from_owner` value behind an `Arc`. The owner is only
/// touched twice: once to take its byte slice, under exclusive access
/// at construction, and once to drop it — so `Send` is all it needs.
struct Owned<T>(T);

// SAFETY: no `&Owned<T>` is ever used after construction; sharing one
// across threads hands out no access to `T`.
unsafe impl<T: Send> Sync for Owned<T> {}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::from_static(&[])
    }
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wraps a static slice without copying.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            ptr: bytes.as_ptr(),
            len: bytes.len(),
            owner: None,
        }
    }

    /// Views the bytes of `owner` without copying. `owner` is dropped
    /// when the last clone or slice of the result drops.
    pub fn from_owner<T>(owner: T) -> Self
    where
        T: AsRef<[u8]> + Send + 'static,
    {
        let owner = Arc::new(Owned(owner));
        let bytes = owner.0.as_ref();
        Bytes {
            ptr: bytes.as_ptr(),
            len: bytes.len(),
            owner: Some(owner as Arc<dyn Send + Sync>),
        }
    }

    /// Copies `data` into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Splits off and returns the first `at` bytes, leaving the rest.
    ///
    /// # Panics
    ///
    /// Panics if `at > self.len()`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = self.slice(0..at);
        self.advance(at);
        head
    }

    /// Splits off and returns the bytes from `at` on, keeping the head.
    ///
    /// # Panics
    ///
    /// Panics if `at > self.len()`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_off out of bounds");
        let tail = self.slice(at..self.len);
        self.len = at;
        tail
    }

    /// A sub-view of this buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len());
        Bytes {
            // SAFETY: `range.start <= self.len`, so the pointer stays
            // inside (or one past the end of) the viewed bytes.
            ptr: unsafe { self.ptr.add(range.start) },
            len: range.end - range.start,
            owner: self.owner.clone(),
        }
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr..ptr + len` lies inside bytes that `owner` (or a
        // static) keeps alive and never mutates.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes over the vector's allocation; nothing is copied.
    fn from(v: Vec<u8>) -> Self {
        Bytes::from_owner(v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        // SAFETY: `cnt <= self.len`, so the pointer stays in bounds.
        self.ptr = unsafe { self.ptr.add(cnt) };
        self.len -= cnt;
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// A growable byte builder, frozen into [`Bytes`] when complete.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Wraps an existing vector without copying, appending after its
    /// current contents. With [`BytesMut::into_vec`], this lets pooled
    /// frame buffers be encoded into directly.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        BytesMut { buf }
    }

    /// Unwraps into the underlying vector without copying.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    /// The accumulated bytes as an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.clone()
    }

    /// Freezes the builder into an immutable shared buffer.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_view_and_split() {
        let mut b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        let head = b.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&b[..], &[3, 4, 5]);
        let tail = b.split_off(1);
        assert_eq!(&b[..], &[3]);
        assert_eq!(&tail[..], &[4, 5]);
        assert_eq!(b.slice(0..1), Bytes::from(vec![3u8]));
    }

    #[test]
    fn buf_cursor_scalars() {
        let mut m = BytesMut::new();
        m.put_u8(7);
        m.put_u32_le(0xdead_beef);
        m.put_f64_le(1.5);
        let mut b = m.freeze();
        assert_eq!(b.remaining(), 13);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u32_le(), 0xdead_beef);
        assert_eq!(b.get_f64_le(), 1.5);
        assert!(!b.has_remaining());
    }

    #[test]
    fn clones_share_storage() {
        let a = Bytes::from(vec![9u8; 64]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.len(), 64);
    }

    #[test]
    fn from_vec_keeps_the_allocation() {
        let v = vec![5u8; 4096];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.slice(10..20).as_ptr(), ptr.wrapping_add(10));
        let frozen = BytesMut::from_vec(vec![1, 2, 3]);
        let ptr = frozen.as_ptr();
        assert_eq!(frozen.freeze().as_ptr(), ptr);
    }

    #[test]
    fn from_owner_drops_the_owner_with_the_last_view() {
        struct Owner(Vec<u8>, Arc<std::sync::atomic::AtomicUsize>);
        impl AsRef<[u8]> for Owner {
            fn as_ref(&self) -> &[u8] {
                &self.0
            }
        }
        impl Drop for Owner {
            fn drop(&mut self) {
                self.1.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let drops = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let dropped = || drops.load(std::sync::atomic::Ordering::SeqCst);
        let data = vec![1u8, 2, 3, 4, 5, 6];
        let ptr = data.as_ptr();
        let mut b = Bytes::from_owner(Owner(data, Arc::clone(&drops)));
        assert_eq!(b.as_ptr(), ptr);
        let clone = b.clone();
        let head = b.split_to(2);
        let tail = b.split_off(2);
        let sliced = clone.slice(1..3);
        assert_eq!(
            (&head[..], &b[..], &tail[..]),
            (&[1, 2][..], &[3, 4][..], &[5, 6][..])
        );
        assert_eq!(sliced.as_ptr(), ptr.wrapping_add(1));
        drop(b);
        drop(clone);
        drop(head);
        drop(tail);
        assert_eq!(dropped(), 0, "a slice is still alive");
        // The last view may drop on another thread.
        std::thread::spawn(move || drop(sliced)).join().unwrap();
        assert_eq!(dropped(), 1);
    }

    #[test]
    fn static_and_empty_views() {
        static DATA: [u8; 3] = [7, 8, 9];
        let b = Bytes::from_static(&DATA);
        assert_eq!(b.as_ptr(), DATA.as_ptr());
        assert_eq!(b.slice(1..3), [8u8, 9]);
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::new(), Bytes::copy_from_slice(&[]));
    }

    #[test]
    #[should_panic(expected = "split_to out of bounds")]
    fn split_past_end_panics() {
        let mut b = Bytes::from(vec![1u8]);
        let _ = b.split_to(2);
    }
}
