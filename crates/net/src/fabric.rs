//! The in-process network fabric with a virtual-time link model.
//!
//! Addresses are `"host:port"` strings, exactly like the paper's cluster
//! configuration file. A node [`Fabric::bind`]s an acceptor at its
//! address; the host [`Fabric::connect`]s from its own host name. Every
//! frame transmission:
//!
//! 1. serializes on the *sender host's NIC* (one transmit resource per
//!    host name — the paper's Gigabit links are full-duplex, so receive
//!    does not contend with transmit),
//! 2. takes one propagation latency,
//! 3. arrives with a virtual timestamp the receiver reads back.
//!
//! A frame travels as one channel item: the receiver gets a view of the
//! sender's sealed pooled buffer, with no copy and no per-MTU handoff.
//! The link model charges whole frames, so this costs no virtual time.
//!
//! The shared host NIC is the backbone's bottleneck under fan-out, which
//! is what limits scaling for communication-heavy benchmarks in Fig. 2.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use haocl_sim::{Clock, Resource, SimDuration, SimTime};

use crate::chaos::{ChaosPolicy, ChaosVerdict};
use crate::error::NetError;
use crate::frame::{encode_frame_pooled, FrameAssembler};
use crate::pool::{BufferPool, PoolStats, PooledBytes};

/// Bandwidth/latency model of every link in the fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Link bandwidth, bytes per second.
    pub bandwidth_bps: f64,
    /// One-way propagation + switching latency.
    pub latency: SimDuration,
}

impl LinkModel {
    /// Gigabit Ethernet: 125 MB/s, 50 µs one-way latency (the paper's
    /// interconnect).
    pub fn gigabit_ethernet() -> Self {
        LinkModel {
            bandwidth_bps: 125.0e6,
            latency: SimDuration::from_micros(50),
        }
    }

    /// 10-Gigabit Ethernet (for ablation sweeps).
    pub fn ten_gigabit_ethernet() -> Self {
        LinkModel {
            bandwidth_bps: 1.25e9,
            latency: SimDuration::from_micros(20),
        }
    }

    /// A custom link.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is not positive and finite.
    pub fn custom(bandwidth_bps: f64, latency: SimDuration) -> Self {
        assert!(
            bandwidth_bps.is_finite() && bandwidth_bps > 0.0,
            "bandwidth must be positive"
        );
        LinkModel {
            bandwidth_bps,
            latency,
        }
    }

    /// Virtual time to push `bytes` through the link (excluding latency).
    pub fn transmit_time(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }
}

#[derive(Debug, Clone)]
struct Chunk {
    /// The sender's sealed frame, prefix included. The fabric sends
    /// each frame whole, so the receiver slices it without copying.
    bytes: PooledBytes,
    arrival: SimTime,
}

/// Cumulative transmit counters for one [`Fabric`].
///
/// The fabric itself stays dependency-free: it only counts, and an
/// observability layer above it periodically snapshots these into its
/// own metric registry. `charged_bytes` uses the *virtual* frame length
/// (modeled bulk transfers count at full size), so it matches the bytes
/// the link model actually billed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FabricStats {
    /// Frames that crossed a real (non-loopback) link.
    pub frames: u64,
    /// Bytes charged to the link model, including virtual lengths.
    pub charged_bytes: u64,
    /// Frames short-circuited between co-located peers.
    pub loopback_frames: u64,
}

#[derive(Default)]
struct StatCells {
    frames: AtomicU64,
    charged_bytes: AtomicU64,
    loopback_frames: AtomicU64,
}

struct FabricInner {
    link: LinkModel,
    clock: Clock,
    listeners: Mutex<HashMap<String, Sender<Conn>>>,
    /// Transmit NIC per host name.
    nics: Mutex<HashMap<String, Resource>>,
    stats: StatCells,
    /// Frame-buffer recycling shared by every connection on the fabric.
    pool: BufferPool,
    /// Fault injector; `None` (the default) delivers every frame intact.
    chaos: Mutex<Option<ChaosPolicy>>,
}

/// The shared in-process network.
///
/// Cloning is cheap; clones address the same fabric.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl Fabric {
    /// Creates a fabric on `clock` with the given link model.
    pub fn new(clock: Clock, link: LinkModel) -> Self {
        Fabric {
            inner: Arc::new(FabricInner {
                link,
                clock,
                listeners: Mutex::new(HashMap::new()),
                nics: Mutex::new(HashMap::new()),
                stats: StatCells::default(),
                pool: BufferPool::new(),
                chaos: Mutex::new(None),
            }),
        }
    }

    /// The fabric's link model.
    pub fn link(&self) -> LinkModel {
        self.inner.link
    }

    /// A snapshot of the frame-buffer pool's recycling counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.pool.stats()
    }

    /// A consistent-enough snapshot of the fabric's transmit counters.
    pub fn stats(&self) -> FabricStats {
        let s = &self.inner.stats;
        FabricStats {
            frames: s.frames.load(Ordering::Relaxed),
            charged_bytes: s.charged_bytes.load(Ordering::Relaxed),
            loopback_frames: s.loopback_frames.load(Ordering::Relaxed),
        }
    }

    /// The fabric's virtual clock.
    ///
    /// The fabric itself never advances it: frames carry their virtual
    /// arrival times, and the endpoint that observes a frame (e.g. the
    /// cluster host claiming a response) advances the clock then. This
    /// keeps virtual timestamps a pure function of the submission order,
    /// independent of how the OS schedules the transport threads.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// Binds an acceptor at `addr` (`"host:port"`).
    ///
    /// # Errors
    ///
    /// [`NetError::AddressInUse`] if a listener is already bound there.
    pub fn bind(&self, addr: &str) -> Result<Listener, NetError> {
        let mut listeners = self.inner.listeners.lock();
        if listeners.contains_key(addr) {
            return Err(NetError::AddressInUse {
                addr: addr.to_string(),
            });
        }
        let (tx, rx) = unbounded();
        listeners.insert(addr.to_string(), tx);
        Ok(Listener {
            addr: addr.to_string(),
            incoming: rx,
            fabric: Arc::clone(&self.inner),
        })
    }

    /// Dials the listener at `to`, identifying as host `from`.
    ///
    /// `from` is the *host name* of the caller (no port); it selects which
    /// transmit NIC the caller's frames serialize on.
    ///
    /// # Errors
    ///
    /// [`NetError::ConnectionRefused`] if nothing is bound at `to`, or
    /// [`NetError::Disconnected`] if the listener was dropped.
    pub fn connect(&self, from: &str, to: &str) -> Result<Conn, NetError> {
        if let Some(chaos) = self.inner.chaos.lock().as_ref() {
            if chaos.is_crashed(&host_of(from)) || chaos.is_crashed(&host_of(to)) {
                return Err(NetError::ConnectionRefused {
                    addr: to.to_string(),
                });
            }
        }
        let listeners = self.inner.listeners.lock();
        let tx = listeners
            .get(to)
            .ok_or_else(|| NetError::ConnectionRefused {
                addr: to.to_string(),
            })?
            .clone();
        drop(listeners);
        let (a_tx, b_rx) = unbounded::<Chunk>();
        let (b_tx, a_rx) = unbounded::<Chunk>();
        let client = Conn::assemble(
            host_of(from),
            to.to_string(),
            a_tx,
            a_rx,
            Arc::clone(&self.inner),
        );
        let server = Conn::assemble(
            host_of(to),
            from.to_string(),
            b_tx,
            b_rx,
            Arc::clone(&self.inner),
        );
        tx.send(server).map_err(|_| NetError::Disconnected)?;
        Ok(client)
    }

    /// Removes the listener at `addr`, refusing future connections.
    pub fn unbind(&self, addr: &str) {
        self.inner.listeners.lock().remove(addr);
    }

    /// Installs a fault injector. Every subsequent frame transmission
    /// consults it; connects to or from a crashed host are refused.
    ///
    /// Installed *after* cluster bring-up so handshakes never count
    /// toward (or fall victim to) the fault schedule.
    pub fn install_chaos(&self, policy: ChaosPolicy) {
        *self.inner.chaos.lock() = Some(policy);
    }

    /// Removes the fault injector, returning it (with its counters).
    pub fn clear_chaos(&self) -> Option<ChaosPolicy> {
        self.inner.chaos.lock().take()
    }

    /// Runs `f` against the installed fault injector, if any.
    pub fn with_chaos<R>(&self, f: impl FnOnce(&mut ChaosPolicy) -> R) -> Option<R> {
        self.inner.chaos.lock().as_mut().map(f)
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let listeners = self.inner.listeners.lock();
        f.debug_struct("Fabric")
            .field("link", &self.inner.link)
            .field("listeners", &listeners.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// The host-name part of a `"host:port"` address.
///
/// Frames between two addresses sharing a host name take the loopback
/// path; peers that dial out (the host runtime, an NMP executing a peer
/// transfer) identify themselves by this name so their frames serialize
/// on the right transmit NIC.
pub fn host_name_of(addr: &str) -> String {
    addr.split(':').next().unwrap_or(addr).to_string()
}

fn host_of(addr: &str) -> String {
    host_name_of(addr)
}

/// An acceptor bound to an address.
pub struct Listener {
    addr: String,
    incoming: Receiver<Conn>,
    fabric: Arc<FabricInner>,
}

impl Listener {
    /// The bound address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Blocks until a connection arrives.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the fabric is torn down.
    pub fn accept(&self) -> Result<Conn, NetError> {
        self.incoming.recv().map_err(|_| NetError::Disconnected)
    }

    /// Accepts a pending connection without blocking.
    pub fn try_accept(&self) -> Option<Conn> {
        self.incoming.try_recv().ok()
    }

    /// Blocks up to `timeout` (wall-clock) for a connection.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] on expiry, [`NetError::Disconnected`] on
    /// teardown.
    pub fn accept_timeout(&self, timeout: Duration) -> Result<Conn, NetError> {
        use crossbeam::channel::RecvTimeoutError;
        self.incoming.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Disconnected,
        })
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.fabric.listeners.lock().remove(&self.addr);
    }
}

impl std::fmt::Debug for Listener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Listener({})", self.addr)
    }
}

/// The transmit half of a connection.
///
/// Obtained from [`Conn::split`]; owning it independently of the receive
/// half lets one thread pump requests while another drains responses —
/// the shape the cluster backbone's pipelined demultiplexer needs.
pub struct ConnSender {
    local_host: String,
    peer: String,
    tx: Sender<Chunk>,
    fabric: Arc<FabricInner>,
    /// A frame held back by a chaos reorder verdict, released after the
    /// next frame on this connection (whole frames only — chunks of two
    /// frames must never interleave on the channel).
    stash: Option<(PooledBytes, SimTime)>,
}

impl ConnSender {
    /// The remote address or host this side talks to.
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// Sends one frame at virtual time `at`; returns its arrival time at
    /// the peer.
    ///
    /// The frame serializes on this host's transmit NIC — concurrent
    /// frames from the same host queue behind each other — then takes one
    /// propagation latency. Sending is asynchronous and never advances
    /// the fabric's shared clock: the virtual cost is encoded entirely in
    /// the returned (and delivered) arrival time, and whoever *observes*
    /// the frame land advances the clock then. Back-to-back sends
    /// therefore pipeline instead of each charging the sender a one-way
    /// trip.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the peer is gone.
    pub fn send_frame(&mut self, payload: &[u8], at: SimTime) -> Result<SimTime, NetError> {
        self.send_frame_virtual(payload, at, 0)
    }

    /// Like [`ConnSender::send_frame`], but charges the link as if the
    /// payload were at least `virtual_len` bytes long.
    ///
    /// This is the *modeled transfer* path: a tiny descriptor frame
    /// stands in for a bulk data package whose bytes are not actually
    /// materialized (paper-scale benchmarking), while virtual timing is
    /// identical to shipping the real data.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the peer is gone.
    pub fn send_frame_virtual(
        &mut self,
        payload: &[u8],
        at: SimTime,
        virtual_len: u64,
    ) -> Result<SimTime, NetError> {
        self.send_frame_with(at, virtual_len, |buf| buf.extend_from_slice(payload))
    }

    /// Like [`ConnSender::send_frame_virtual`], but `write` appends the
    /// payload directly into a recycled frame buffer — the zero-copy
    /// path for callers that serialize a message anyway (no intermediate
    /// payload vector, no per-chunk copies).
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the peer is gone.
    pub fn send_frame_with(
        &mut self,
        at: SimTime,
        virtual_len: u64,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Result<SimTime, NetError> {
        let frame = encode_frame_pooled(&self.fabric.pool, write);
        // Loopback: co-located peers (same host name) never touch the
        // NIC — the paper's single-node deployment runs the host process
        // on the device node itself.
        let arrival = if host_of(&self.peer) == self.local_host {
            self.fabric
                .stats
                .loopback_frames
                .fetch_add(1, Ordering::Relaxed);
            at
        } else {
            let charged = (frame.len() as u64).max(virtual_len.saturating_add(4));
            let service = self.fabric.link.transmit_time(charged as usize);
            self.fabric.stats.frames.fetch_add(1, Ordering::Relaxed);
            self.fabric
                .stats
                .charged_bytes
                .fetch_add(charged, Ordering::Relaxed);
            let grant = {
                let mut nics = self.fabric.nics.lock();
                let nic = nics
                    .entry(self.local_host.clone())
                    .or_insert_with(|| Resource::new(format!("nic:{}", self.local_host)));
                nic.acquire(at, service)
            };
            grant.end + self.fabric.link.latency
        };
        let verdict = {
            let mut chaos = self.fabric.chaos.lock();
            match chaos.as_mut() {
                Some(policy) => policy.on_frame(&self.local_host, &host_of(&self.peer)),
                None => ChaosVerdict::deliver(),
            }
        };
        if verdict.reset {
            return Err(NetError::Disconnected);
        }
        if verdict.drop {
            // Lost in the network after NIC serialization: the sender
            // still paid the transmit time and learns nothing.
            return Ok(arrival);
        }
        let arrival = arrival + verdict.extra_delay;
        if verdict.reorder && self.stash.is_none() {
            // Held back; the link's next frame overtakes it. If no next
            // frame ever comes, the hold degenerates to a drop — which
            // the host's retry path recovers like any other loss.
            self.stash = Some((frame, arrival));
            return Ok(arrival);
        }
        self.transmit(&frame, arrival)?;
        if verdict.duplicate {
            self.transmit(&frame, arrival)?;
        }
        if let Some((held, held_arrival)) = self.stash.take() {
            self.transmit(&held, held_arrival)?;
        }
        Ok(arrival)
    }

    /// Pushes one sealed frame onto the channel as a single item: a view
    /// of its pooled allocation, never a copy.
    fn transmit(&self, frame: &PooledBytes, arrival: SimTime) -> Result<(), NetError> {
        self.tx
            .send(Chunk {
                bytes: frame.clone(),
                arrival,
            })
            .map_err(|_| NetError::Disconnected)
    }
}

impl std::fmt::Debug for ConnSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ConnSender({} -> {})", self.local_host, self.peer)
    }
}

/// The receive half of a connection. See [`ConnSender`].
pub struct ConnReceiver {
    local_host: String,
    peer: String,
    rx: Receiver<Chunk>,
    assembler: FrameAssembler,
    /// Frames completed by earlier chunks but not yet returned.
    ready: Vec<(PooledBytes, SimTime)>,
}

impl ConnReceiver {
    /// The remote address or host this side talks to.
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// Blocks until a whole frame is available; returns it with its
    /// virtual arrival time.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the peer is gone before a frame
    /// completes; [`NetError::BadFrame`] on corruption.
    pub fn recv_frame(&mut self) -> Result<(PooledBytes, SimTime), NetError> {
        loop {
            if !self.ready.is_empty() {
                return Ok(self.ready.remove(0));
            }
            let chunk = self.rx.recv().map_err(|_| NetError::Disconnected)?;
            self.ingest(chunk)?;
        }
    }

    /// Like [`ConnReceiver::recv_frame`] with a wall-clock timeout.
    ///
    /// # Errors
    ///
    /// Additionally returns [`NetError::Timeout`] on expiry, or
    /// [`NetError::TimeoutMidFrame`] when the deadline hit with a frame
    /// partially assembled. In the latter case the partial bytes remain
    /// buffered: a later receive picks up exactly where this one
    /// stopped, so no chunk is ever silently discarded.
    pub fn recv_frame_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<(PooledBytes, SimTime), NetError> {
        use crossbeam::channel::RecvTimeoutError;
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if !self.ready.is_empty() {
                return Ok(self.ready.remove(0));
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            let chunk = self.rx.recv_timeout(remaining).map_err(|e| match e {
                RecvTimeoutError::Timeout => {
                    let pending = self.assembler.pending_bytes();
                    if pending > 0 {
                        NetError::TimeoutMidFrame { pending }
                    } else {
                        NetError::Timeout
                    }
                }
                RecvTimeoutError::Disconnected => NetError::Disconnected,
            })?;
            self.ingest(chunk)?;
        }
    }

    /// Receives a frame if one is already complete or completable from
    /// queued chunks, without blocking.
    pub fn try_recv_frame(&mut self) -> Result<Option<(PooledBytes, SimTime)>, NetError> {
        loop {
            if !self.ready.is_empty() {
                return Ok(Some(self.ready.remove(0)));
            }
            match self.rx.try_recv() {
                Ok(chunk) => self.ingest(chunk)?,
                Err(_) => return Ok(None),
            }
        }
    }

    fn ingest(&mut self, chunk: Chunk) -> Result<(), NetError> {
        let arrival = chunk.arrival;
        for frame in self.assembler.push_pooled(&chunk.bytes)? {
            self.ready.push((frame, arrival));
        }
        Ok(())
    }
}

impl std::fmt::Debug for ConnReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ConnReceiver({} -> {})", self.local_host, self.peer)
    }
}

/// One side of an established connection: a [`ConnSender`] and a
/// [`ConnReceiver`] joined at the hip. Use the delegating methods for
/// simple lock-step request/reply traffic, or [`Conn::split`] to drive
/// the two directions from different threads.
pub struct Conn {
    sender: ConnSender,
    receiver: ConnReceiver,
}

impl Conn {
    fn assemble(
        local_host: String,
        peer: String,
        tx: Sender<Chunk>,
        rx: Receiver<Chunk>,
        fabric: Arc<FabricInner>,
    ) -> Self {
        Conn {
            sender: ConnSender {
                local_host: local_host.clone(),
                peer: peer.clone(),
                tx,
                fabric: Arc::clone(&fabric),
                stash: None,
            },
            receiver: ConnReceiver {
                local_host,
                peer,
                rx,
                assembler: FrameAssembler::new(),
                ready: Vec::new(),
            },
        }
    }

    /// Splits the connection into independently owned transmit and
    /// receive halves.
    pub fn split(self) -> (ConnSender, ConnReceiver) {
        (self.sender, self.receiver)
    }

    /// The remote address or host this side talks to.
    pub fn peer(&self) -> &str {
        &self.sender.peer
    }

    /// Sends one frame at virtual time `at`; returns its arrival time at
    /// the peer. See [`ConnSender::send_frame`].
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the peer is gone.
    pub fn send_frame(&mut self, payload: &[u8], at: SimTime) -> Result<SimTime, NetError> {
        self.sender.send_frame(payload, at)
    }

    /// Sends one frame charged as at least `virtual_len` bytes. See
    /// [`ConnSender::send_frame_virtual`].
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the peer is gone.
    pub fn send_frame_virtual(
        &mut self,
        payload: &[u8],
        at: SimTime,
        virtual_len: u64,
    ) -> Result<SimTime, NetError> {
        self.sender.send_frame_virtual(payload, at, virtual_len)
    }

    /// Serializes the payload straight into a recycled frame buffer. See
    /// [`ConnSender::send_frame_with`].
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the peer is gone.
    pub fn send_frame_with(
        &mut self,
        at: SimTime,
        virtual_len: u64,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Result<SimTime, NetError> {
        self.sender.send_frame_with(at, virtual_len, write)
    }

    /// Blocks until a whole frame is available. See
    /// [`ConnReceiver::recv_frame`].
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the peer is gone before a frame
    /// completes; [`NetError::BadFrame`] on corruption.
    pub fn recv_frame(&mut self) -> Result<(PooledBytes, SimTime), NetError> {
        self.receiver.recv_frame()
    }

    /// Like [`Conn::recv_frame`] with a wall-clock timeout.
    ///
    /// # Errors
    ///
    /// Additionally returns [`NetError::Timeout`] on expiry.
    pub fn recv_frame_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<(PooledBytes, SimTime), NetError> {
        self.receiver.recv_frame_timeout(timeout)
    }

    /// Receives a frame if one is already complete or completable from
    /// queued chunks, without blocking.
    pub fn try_recv_frame(&mut self) -> Result<Option<(PooledBytes, SimTime)>, NetError> {
        self.receiver.try_recv_frame()
    }
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Conn({} -> {})",
            self.sender.local_host, self.sender.peer
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, MTU};

    fn fabric() -> Fabric {
        Fabric::new(Clock::new(), LinkModel::gigabit_ethernet())
    }

    #[test]
    fn bind_connect_accept_roundtrip() {
        let f = fabric();
        let listener = f.bind("node1:7001").unwrap();
        let mut client = f.connect("host", "node1:7001").unwrap();
        let mut server = listener.accept().unwrap();
        assert_eq!(server.peer(), "host");
        assert_eq!(client.peer(), "node1:7001");

        client.send_frame(b"ping", SimTime::ZERO).unwrap();
        let (data, _) = server.recv_frame().unwrap();
        assert_eq!(data, b"ping");

        server.send_frame(b"pong", SimTime::ZERO).unwrap();
        let (data, _) = client.recv_frame().unwrap();
        assert_eq!(data, b"pong");
    }

    #[test]
    fn double_bind_rejected() {
        let f = fabric();
        let _l = f.bind("n:1").unwrap();
        let err = f.bind("n:1").unwrap_err();
        assert!(matches!(err, NetError::AddressInUse { .. }));
    }

    #[test]
    fn connect_to_unbound_refused() {
        let f = fabric();
        let err = f.connect("host", "nowhere:9").unwrap_err();
        assert!(matches!(err, NetError::ConnectionRefused { .. }));
    }

    #[test]
    fn dropping_listener_frees_address() {
        let f = fabric();
        drop(f.bind("n:1").unwrap());
        assert!(f.bind("n:1").is_ok());
    }

    #[test]
    fn large_frame_transits_in_chunks() {
        let f = fabric();
        let listener = f.bind("n:1").unwrap();
        let mut client = f.connect("host", "n:1").unwrap();
        let mut server = listener.accept().unwrap();
        let payload: Vec<u8> = (0..100_000).map(|i| (i % 256) as u8).collect();
        client.send_frame(&payload, SimTime::ZERO).unwrap();
        let (data, _) = server.recv_frame().unwrap();
        assert_eq!(data, payload);
    }

    #[test]
    fn multi_mtu_frames_arrive_as_views_of_the_sent_buffer() {
        let f = fabric();
        let listener = f.bind("n:1").unwrap();
        let mut client = f.connect("host", "n:1").unwrap();
        let mut server = listener.accept().unwrap();
        let payload: Vec<u8> = (0..3 * MTU + 700).map(|i| (i % 253) as u8).collect();
        let mut sent_at = std::ptr::null();
        client
            .send_frame_with(SimTime::ZERO, 0, |buf| {
                buf.extend_from_slice(&payload);
                sent_at = buf.as_ptr();
            })
            .unwrap();
        let (data, _) = server.recv_frame().unwrap();
        assert_eq!(data, payload);
        // Past the 4-byte prefix of the very buffer the sender wrote:
        // no reassembly copy on the way.
        assert_eq!(data.as_ptr(), sent_at.wrapping_add(4));
    }

    #[test]
    fn arrival_time_includes_transmit_and_latency() {
        let f = fabric();
        let listener = f.bind("n:1").unwrap();
        let mut client = f.connect("host", "n:1").unwrap();
        let mut server = listener.accept().unwrap();
        let payload = vec![0u8; 125_000]; // 1 ms at 125 MB/s (+ prefix)
        let arrival = client.send_frame(&payload, SimTime::ZERO).unwrap();
        let (_, at) = server.recv_frame().unwrap();
        assert_eq!(at, arrival);
        let expect_min = SimTime::ZERO
            + LinkModel::gigabit_ethernet().transmit_time(125_000)
            + LinkModel::gigabit_ethernet().latency;
        assert!(at >= expect_min, "{at} < {expect_min}");
    }

    #[test]
    fn same_host_fanout_serializes_on_the_nic() {
        let f = fabric();
        let l1 = f.bind("n1:1").unwrap();
        let l2 = f.bind("n2:1").unwrap();
        let mut c1 = f.connect("host", "n1:1").unwrap();
        let mut c2 = f.connect("host", "n2:1").unwrap();
        let _s1 = l1.accept().unwrap();
        let _s2 = l2.accept().unwrap();
        let payload = vec![0u8; 1_000_000];
        let a1 = c1.send_frame(&payload, SimTime::ZERO).unwrap();
        let a2 = c2.send_frame(&payload, SimTime::ZERO).unwrap();
        // Second transfer queued behind the first on host's NIC.
        let service = LinkModel::gigabit_ethernet().transmit_time(1_000_004);
        assert_eq!(a2 - a1, service);
    }

    #[test]
    fn different_hosts_do_not_contend() {
        let f = fabric();
        let l = f.bind("sink:1").unwrap();
        let mut c1 = f.connect("hostA", "sink:1").unwrap();
        let mut c2 = f.connect("hostB", "sink:1").unwrap();
        let _s1 = l.accept().unwrap();
        let _s2 = l.accept().unwrap();
        let payload = vec![0u8; 1_000_000];
        let a1 = c1.send_frame(&payload, SimTime::ZERO).unwrap();
        let a2 = c2.send_frame(&payload, SimTime::ZERO).unwrap();
        assert_eq!(a1, a2, "independent NICs transmit in parallel");
    }

    #[test]
    fn disconnected_peer_detected() {
        let f = fabric();
        let listener = f.bind("n:1").unwrap();
        let mut client = f.connect("host", "n:1").unwrap();
        let server = listener.accept().unwrap();
        drop(server);
        // Sends may buffer; receive must detect the closed peer.
        let err = client.recv_frame().unwrap_err();
        assert_eq!(err, NetError::Disconnected);
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let f = fabric();
        let listener = f.bind("n:1").unwrap();
        let _client = f.connect("host", "n:1").unwrap();
        let mut server = listener.accept().unwrap();
        assert_eq!(server.try_recv_frame().unwrap(), None);
    }

    #[test]
    fn recv_timeout_expires() {
        let f = fabric();
        let listener = f.bind("n:1").unwrap();
        let _client = f.connect("host", "n:1").unwrap();
        let mut server = listener.accept().unwrap();
        let err = server
            .recv_frame_timeout(Duration::from_millis(10))
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
    }

    #[test]
    fn cross_thread_request_reply() {
        let f = fabric();
        let listener = f.bind("n:1").unwrap();
        let handle = std::thread::spawn(move || {
            let mut server = listener.accept().unwrap();
            let (req, at) = server.recv_frame().unwrap();
            server.send_frame(&req, at).unwrap(); // echo
        });
        let mut client = f.connect("host", "n:1").unwrap();
        client.send_frame(b"echo me", SimTime::ZERO).unwrap();
        let (reply, _) = client.recv_frame().unwrap();
        assert_eq!(reply, b"echo me");
        handle.join().unwrap();
    }

    #[test]
    fn colocated_peers_use_loopback() {
        let f = fabric();
        let listener = f.bind("nodeA:7100").unwrap();
        // Host process running on nodeA itself.
        let mut client = f.connect("nodeA", "nodeA:7100").unwrap();
        let mut server = listener.accept().unwrap();
        let arrival = client
            .send_frame(&vec![0u8; 1_000_000], SimTime::ZERO)
            .unwrap();
        assert_eq!(arrival, SimTime::ZERO, "loopback is free in virtual time");
        let (_, at) = server.recv_frame().unwrap();
        assert_eq!(at, SimTime::ZERO);
        // The reply path is loopback too.
        let back = server.send_frame(b"ok", SimTime::ZERO).unwrap();
        assert_eq!(back, SimTime::ZERO);
    }

    #[test]
    fn virtual_frames_charge_like_bulk_data() {
        let f = fabric();
        let listener = f.bind("n:1").unwrap();
        let mut client = f.connect("host", "n:1").unwrap();
        let mut server = listener.accept().unwrap();
        // A 20-byte descriptor charged as 1 MB.
        let arrival = client
            .send_frame_virtual(&[7u8; 20], SimTime::ZERO, 1_000_000)
            .unwrap();
        let (payload, at) = server.recv_frame().unwrap();
        assert_eq!(payload, vec![7u8; 20]);
        assert_eq!(at, arrival);
        let expect = SimTime::ZERO
            + LinkModel::gigabit_ethernet().transmit_time(1_000_004)
            + LinkModel::gigabit_ethernet().latency;
        assert_eq!(at, expect);
    }

    #[test]
    fn split_halves_work_from_different_threads() {
        let f = fabric();
        let listener = f.bind("n:1").unwrap();
        let client = f.connect("host", "n:1").unwrap();
        let server = listener.accept().unwrap();
        let (mut ctx, mut crx) = client.split();
        assert_eq!(ctx.peer(), "n:1");
        assert_eq!(crx.peer(), "n:1");
        // Echo server on its own thread using the un-split API.
        let echo = std::thread::spawn(move || {
            let mut server = server;
            for _ in 0..3 {
                let (req, at) = server.recv_frame().unwrap();
                server.send_frame(&req, at).unwrap();
            }
        });
        // Transmit from this thread while a second drains replies.
        let drain = std::thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..3 {
                let (reply, _) = crx.recv_frame().unwrap();
                got.push(reply);
            }
            got
        });
        for i in 0..3u8 {
            ctx.send_frame(&[i], SimTime::ZERO).unwrap();
        }
        echo.join().unwrap();
        let got = drain.join().unwrap();
        assert_eq!(got, vec![vec![0u8], vec![1], vec![2]]);
    }

    #[test]
    fn timeout_mid_frame_is_distinguishable_and_resynchronizable() {
        // A deadline expiring while a frame is partially assembled must
        // not silently discard the buffered chunk: the receiver reports
        // TimeoutMidFrame and a later receive completes the frame.
        let (tx, rx) = unbounded();
        let mut receiver = ConnReceiver {
            local_host: "h".to_string(),
            peer: "n:1".to_string(),
            rx,
            assembler: FrameAssembler::new(),
            ready: Vec::new(),
        };
        let frame = encode_frame(b"split across chunks");
        tx.send(Chunk {
            bytes: PooledBytes::copy_from_slice(&frame[..5]),
            arrival: SimTime::ZERO,
        })
        .unwrap();
        let err = receiver
            .recv_frame_timeout(Duration::from_millis(10))
            .unwrap_err();
        assert_eq!(err, NetError::TimeoutMidFrame { pending: 5 });
        // An idle timeout (nothing buffered) still reports plain Timeout.
        tx.send(Chunk {
            bytes: PooledBytes::copy_from_slice(&frame[5..]),
            arrival: SimTime::ZERO,
        })
        .unwrap();
        let (payload, _) = receiver
            .recv_frame_timeout(Duration::from_millis(10))
            .unwrap();
        assert_eq!(payload, b"split across chunks");
        let err = receiver
            .recv_frame_timeout(Duration::from_millis(5))
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
    }

    #[test]
    fn chaos_drop_loses_frames_silently() {
        use crate::chaos::{ChaosPolicy, ChaosSpec};
        let f = fabric();
        let listener = f.bind("n:1").unwrap();
        let mut client = f.connect("host", "n:1").unwrap();
        let mut server = listener.accept().unwrap();
        f.install_chaos(ChaosPolicy::new(1, ChaosSpec::parse("drop=1.0").unwrap()));
        // The sender learns nothing: the send succeeds with a normal
        // arrival time, but the frame never lands.
        client.send_frame(b"lost", SimTime::ZERO).unwrap();
        let err = server
            .recv_frame_timeout(Duration::from_millis(20))
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
        assert_eq!(f.with_chaos(|c| c.summary().drops), Some(1));
        // Clearing chaos restores clean delivery.
        f.clear_chaos();
        client.send_frame(b"through", SimTime::ZERO).unwrap();
        let (payload, _) = server.recv_frame().unwrap();
        assert_eq!(payload, b"through");
    }

    #[test]
    fn chaos_duplicate_delivers_twice_and_reorder_swaps() {
        use crate::chaos::{ChaosPolicy, ChaosSpec};
        let f = fabric();
        let listener = f.bind("n:1").unwrap();
        let mut client = f.connect("host", "n:1").unwrap();
        let mut server = listener.accept().unwrap();
        f.install_chaos(ChaosPolicy::new(2, ChaosSpec::parse("dup=1.0").unwrap()));
        client.send_frame(b"twice", SimTime::ZERO).unwrap();
        assert_eq!(server.recv_frame().unwrap().0, b"twice");
        assert_eq!(server.recv_frame().unwrap().0, b"twice");

        // Reorder: the first frame is held and released after the second.
        f.install_chaos(ChaosPolicy::new(
            2,
            ChaosSpec::parse("reorder=1.0").unwrap(),
        ));
        client.send_frame(b"first", SimTime::ZERO).unwrap();
        client.send_frame(b"second", SimTime::ZERO).unwrap();
        assert_eq!(server.recv_frame().unwrap().0, b"second");
        assert_eq!(server.recv_frame().unwrap().0, b"first");
    }

    #[test]
    fn chaos_reset_fails_the_send() {
        use crate::chaos::{ChaosPolicy, ChaosSpec};
        let f = fabric();
        let _listener = f.bind("n:1").unwrap();
        let mut client = f.connect("host", "n:1").unwrap();
        f.install_chaos(ChaosPolicy::new(3, ChaosSpec::parse("reset=1.0").unwrap()));
        let err = client.send_frame(b"never", SimTime::ZERO).unwrap_err();
        assert_eq!(err, NetError::Disconnected);
    }

    #[test]
    fn chaos_crash_blackholes_and_refuses_connects() {
        use crate::chaos::{ChaosPolicy, ChaosSpec};
        let f = fabric();
        let listener = f.bind("n:1").unwrap();
        let mut client = f.connect("host", "n:1").unwrap();
        let mut server = listener.accept().unwrap();
        f.install_chaos(ChaosPolicy::new(4, ChaosSpec::parse("crash=n@2").unwrap()));
        // Two frames pass, then the host is gone.
        client.send_frame(b"a", SimTime::ZERO).unwrap();
        client.send_frame(b"b", SimTime::ZERO).unwrap();
        client.send_frame(b"c", SimTime::ZERO).unwrap();
        assert_eq!(server.recv_frame().unwrap().0, b"a");
        assert_eq!(server.recv_frame().unwrap().0, b"b");
        assert_eq!(
            server
                .recv_frame_timeout(Duration::from_millis(20))
                .unwrap_err(),
            NetError::Timeout
        );
        // The crashed node cannot answer either…
        server.send_frame(b"reply", SimTime::ZERO).unwrap();
        assert_eq!(
            client
                .recv_frame_timeout(Duration::from_millis(20))
                .unwrap_err(),
            NetError::Timeout
        );
        // …and new connections to it are refused.
        let err = f.connect("host", "n:1").unwrap_err();
        assert!(matches!(err, NetError::ConnectionRefused { .. }));
        assert!(
            f.connect("host2", "other:1").is_err(),
            "unbound still refused"
        );
    }

    #[test]
    fn traffic_is_charged_to_arrival_times_not_the_clock() {
        let clock = Clock::new();
        let f = Fabric::new(clock.clone(), LinkModel::gigabit_ethernet());
        let listener = f.bind("n:1").unwrap();
        let mut client = f.connect("host", "n:1").unwrap();
        let mut server = listener.accept().unwrap();
        let sent = client
            .send_frame(&vec![0u8; 125_000], SimTime::ZERO)
            .unwrap();
        let (_, arrival) = server.recv_frame().unwrap();
        // The link's cost shows up in the frame's virtual arrival...
        assert!(arrival > SimTime::ZERO);
        assert_eq!(arrival, sent);
        // ...while the shared clock is left to the observing endpoint.
        assert_eq!(clock.now(), SimTime::ZERO);
    }
}
