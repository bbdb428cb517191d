//! Pooled byte buffers for the zero-copy wire path.
//!
//! Every frame transmission used to allocate once for the encoded
//! payload, once for the length-prefixed frame, and once *per MTU
//! chunk*. [`BufferPool`] recycles the backing allocations instead:
//! a sender checks a [`PoolBuf`] out, writes the frame into it, and
//! seals it into a [`PooledBytes`] — a cheaply cloneable, sliceable
//! view. The fabric hands that view to the receiver, which decodes the
//! payload in place (`Bytes::from_owner` over the frame), so payload
//! fields of a decoded message are views of the same allocation. When
//! the last view drops, the allocation returns to the pool for the
//! next frame.
//!
//! The pool is deliberately simple — a mutex-guarded free list — because
//! the hot path touches it once per frame. It is bounded both in buffer
//! count and in retained capacity so a single huge transfer cannot pin
//! memory forever.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Buffers kept on the free list beyond which returns are dropped.
const MAX_POOLED_BUFFERS: usize = 64;

/// A returned buffer with more capacity than this is dropped rather
/// than retained (keeps one bulk transfer from pinning megabytes).
const MAX_RETAINED_CAPACITY: usize = 1 << 20;

/// Cumulative counters for one [`BufferPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Checkouts served by a recycled buffer.
    pub reuses: u64,
    /// Checkouts that had to allocate fresh.
    pub misses: u64,
    /// Buffers returned to the free list.
    pub returns: u64,
}

#[derive(Default)]
struct PoolShared {
    free: Mutex<Vec<Vec<u8>>>,
    reuses: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
}

impl PoolShared {
    fn take(&self) -> Vec<u8> {
        let recycled = self.free.lock().unwrap_or_else(|e| e.into_inner()).pop();
        match recycled {
            Some(mut v) => {
                v.clear();
                self.reuses.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    fn put_back(&self, v: Vec<u8>) {
        if v.capacity() == 0 || v.capacity() > MAX_RETAINED_CAPACITY {
            return;
        }
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        if free.len() < MAX_POOLED_BUFFERS {
            free.push(v);
            self.returns.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A shared recycling pool of byte buffers. Cloning is cheap; clones
/// draw from the same free list.
#[derive(Clone, Default)]
pub struct BufferPool {
    shared: Arc<PoolShared>,
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Checks a writable buffer out of the pool (recycled when one is
    /// free, freshly allocated otherwise).
    pub fn take(&self) -> PoolBuf {
        PoolBuf {
            data: self.shared.take(),
            pool: Arc::downgrade(&self.shared),
        }
    }

    /// Buffers currently on the free list.
    pub fn idle_buffers(&self) -> usize {
        self.shared
            .free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// A consistent-enough snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            reuses: self.shared.reuses.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            returns: self.shared.returns.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("idle", &self.idle_buffers())
            .field("stats", &self.stats())
            .finish()
    }
}

/// A writable buffer checked out of a [`BufferPool`].
///
/// Write the frame via [`PoolBuf::bytes_mut`] (it derefs to `Vec<u8>`),
/// then [`PoolBuf::seal`] it into an immutable [`PooledBytes`] view.
/// Dropping an unsealed `PoolBuf` returns the allocation immediately.
#[derive(Debug)]
pub struct PoolBuf {
    data: Vec<u8>,
    pool: Weak<PoolShared>,
}

impl PoolBuf {
    /// The buffer to write into (starts empty).
    pub fn bytes_mut(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }

    /// Freezes the written bytes into an immutable shared view. The
    /// allocation returns to the pool when the last view drops.
    pub fn seal(self) -> PooledBytes {
        let mut this = std::mem::ManuallyDrop::new(self);
        let data = std::mem::take(&mut this.data);
        let pool = std::mem::replace(&mut this.pool, Weak::new());
        let end = data.len();
        PooledBytes {
            storage: Arc::new(Storage { data, pool }),
            start: 0,
            end,
        }
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.upgrade() {
            pool.put_back(std::mem::take(&mut self.data));
        }
    }
}

struct Storage {
    data: Vec<u8>,
    /// Weak: a pool teardown must not keep in-flight frames alive, and
    /// in-flight frames must not keep a dropped pool alive.
    pool: Weak<PoolShared>,
}

impl Drop for Storage {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.upgrade() {
            pool.put_back(std::mem::take(&mut self.data));
        }
    }
}

/// An immutable, cheaply cloneable view into a (possibly pooled) byte
/// buffer. [`PooledBytes::slice`] shares the backing storage, which is
/// how a receiver takes a frame's payload without copying it.
#[derive(Clone)]
pub struct PooledBytes {
    storage: Arc<Storage>,
    start: usize,
    end: usize,
}

impl PooledBytes {
    /// Wraps an owned vector (not attached to any pool).
    pub fn from_vec(data: Vec<u8>) -> Self {
        let end = data.len();
        PooledBytes {
            storage: Arc::new(Storage {
                data,
                pool: Weak::new(),
            }),
            start: 0,
            end,
        }
    }

    /// Copies a slice into a fresh unpooled buffer.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        PooledBytes::from_vec(bytes.to_vec())
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view sharing the same backing storage (no copy).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> PooledBytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of bounds for {} bytes",
            self.len()
        );
        PooledBytes {
            storage: Arc::clone(&self.storage),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Copies this view into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.storage.data[self.start..self.end]
    }
}

impl Deref for PooledBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PooledBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for PooledBytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PooledBytes {}

impl PartialEq<[u8]> for PooledBytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for PooledBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for PooledBytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for PooledBytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl std::fmt::Debug for PooledBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PooledBytes({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_write_seal_slice() {
        let pool = BufferPool::new();
        let mut buf = pool.take();
        buf.bytes_mut().extend_from_slice(b"hello world");
        let bytes = buf.seal();
        assert_eq!(bytes, *b"hello world");
        let hello = bytes.slice(0..5);
        let world = bytes.slice(6..11);
        assert_eq!(hello, *b"hello");
        assert_eq!(world, *b"world");
    }

    #[test]
    fn storage_returns_to_pool_after_last_view_drops() {
        let pool = BufferPool::new();
        let mut buf = pool.take();
        buf.bytes_mut().extend_from_slice(&[1, 2, 3]);
        let sealed = buf.seal();
        let view = sealed.slice(1..3);
        drop(sealed);
        assert_eq!(pool.idle_buffers(), 0, "view still alive");
        drop(view);
        assert_eq!(pool.idle_buffers(), 1);
        // Next checkout reuses the allocation.
        let _again = pool.take();
        assert_eq!(pool.stats().reuses, 1);
        assert_eq!(pool.idle_buffers(), 0);
    }

    #[test]
    fn unsealed_checkout_returns_on_drop() {
        let pool = BufferPool::new();
        let mut buf = pool.take();
        buf.bytes_mut().extend_from_slice(&[0; 128]);
        drop(buf);
        assert_eq!(pool.idle_buffers(), 1);
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let pool = BufferPool::new();
        let mut buf = pool.take();
        buf.bytes_mut()
            .extend_from_slice(&vec![0u8; MAX_RETAINED_CAPACITY + 1]);
        drop(buf.seal());
        assert_eq!(pool.idle_buffers(), 0);
    }

    #[test]
    fn pool_death_detaches_outstanding_views() {
        let pool = BufferPool::new();
        let mut buf = pool.take();
        buf.bytes_mut().push(42);
        let sealed = buf.seal();
        drop(pool);
        assert_eq!(sealed, [42u8]);
        drop(sealed); // returns nowhere, must not panic
    }

    #[test]
    fn from_vec_is_unpooled() {
        let b = PooledBytes::from_vec(vec![7, 8, 9]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.slice(1..2), [8u8]);
    }
}
