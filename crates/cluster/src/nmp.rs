//! The Node Management Process (paper §III-D).
//!
//! "The daemon process runs on each device (accelerator) node for the
//! actual execution of OpenCL API calls." Each NMP binds a *message*
//! listener and a *data* listener (§III-C), accepts connections
//! asynchronously, and for each incoming package unpacks it, executes it
//! against the node's simulated devices and replies.
//!
//! FPGA devices refuse online source builds; their kernels come from the
//! node's bitstream [`KernelRegistry`] via
//! [`haocl_proto::messages::ApiCall::LoadBitstream`].
//!
//! # Peer data-plane transfers
//!
//! [`ApiCall::PushBufferTo`] / [`ApiCall::PullBufferFrom`] move buffer
//! contents *directly* between two NMPs: the host still packages and
//! delivers the command (preserving §III-A's single-host architecture),
//! but the bulk bytes take one node→node hop instead of relaying through
//! the host's shadow copy. The executing NMP dials the peer's data
//! listener itself, releasing its state lock around the network hop so a
//! co-located peer (or the node itself, over loopback) can serve the
//! inner request.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;

use haocl_device::device::DeviceError;
use haocl_device::memory::MemoryError;
use haocl_device::{presets, FusedPart, SimDevice};
use haocl_kernel::{CostModel, Kernel, KernelRegistry, NdRange};
use haocl_net::{host_name_of, Conn, Fabric, Listener, NetError};
use haocl_obs::SpanId;
use haocl_proto::ids::{KernelId, ProgramId, RequestId, UserId};
use haocl_proto::messages::{
    status, ApiCall, ApiReply, Envelope, Request, Response, WireAccessPattern, WireArgEffect,
    WireKernelReport, WireSpan,
};
use haocl_proto::wire::{decode_from_bytes, encode_into_vec};
#[cfg(test)]
use haocl_proto::wire::{decode_from_slice, encode_to_vec};
use haocl_sim::SimTime;

use crate::config::NodeSpec;
use crate::error::ClusterError;

/// How often blocking loops check the stop flag.
const POLL: Duration = Duration::from_millis(20);

/// How many completed state-mutating requests the at-most-once journal
/// remembers. The host retries a request only while it is pending, so
/// the journal needs to outlive the host's in-flight window — 1024 is
/// orders of magnitude deeper than the backbone ever pipelines.
const JOURNAL_CAP: usize = 1024;

/// Wall-clock patience for the peer's answer during an NMP→NMP transfer.
/// On expiry the transfer fails with an error reply and the host falls
/// back to relaying the bytes through its own shadow, so this bounds how
/// long a serve thread can stall on an unresponsive peer. It must stay
/// *shorter* than the host's recovery escalation window (base timeout
/// through `max_attempts` retransmissions): a stalled peer hop blocks
/// this node's serve thread, and if the block outlives the host's
/// patience the host concludes the node itself died and fails it over —
/// turning one dropped peer frame into a spurious cluster reroute. The
/// fabric moves frames instantly in real time (only *virtual* time is
/// charged), so a healthy hop answers in microseconds and this margin is
/// pure fault headroom.
const PEER_PATIENCE: Duration = Duration::from_millis(100);

enum ProgramEntry {
    /// Source-compiled program (CPU/GPU path).
    Built(haocl_kernel::CompiledProgram),
    /// Pre-built bitstream kernel names (FPGA path).
    Bitstream(Vec<String>),
}

struct NodeState {
    devices: Vec<SimDevice>,
    programs: HashMap<(ProgramId, u8), ProgramEntry>,
    kernels: HashMap<KernelId, (u8, Kernel)>,
    registry: KernelRegistry,
    launches_by_user: HashMap<UserId, u64>,
    /// Set by [`ApiCall::BeginDrain`]: the node refuses fresh kernel
    /// launches so live migration can converge, while buffer traffic
    /// and already-queued work keep completing.
    draining: bool,
    /// At-most-once journal: completed responses to state-mutating
    /// requests, keyed by correlation token. A retried or duplicated
    /// request whose id is here is answered from the journal instead of
    /// re-executing — a kernel never runs twice, a write never applies
    /// twice.
    journal: HashMap<RequestId, Response>,
    /// Journal insertion order, for FIFO eviction at [`JOURNAL_CAP`].
    journal_order: VecDeque<RequestId>,
}

/// What a serve thread needs to execute peer data-plane transfers: a
/// fabric handle to dial the peer's data listener, and this node's host
/// name so outbound frames serialize on its own NIC — and take the free
/// loopback path when the peer is co-located.
struct PeerCtx {
    fabric: Fabric,
    host_name: String,
}

impl NodeState {
    fn journal_record(&mut self, response: &Response) {
        if self.journal.insert(response.id, response.clone()).is_none() {
            self.journal_order.push_back(response.id);
            while self.journal_order.len() > JOURNAL_CAP {
                if let Some(evicted) = self.journal_order.pop_front() {
                    self.journal.remove(&evicted);
                }
            }
        }
    }
}

/// A running NMP: its listener threads and stop control.
///
/// Dropping the handle stops the daemon and joins its threads.
pub struct NmpHandle {
    name: String,
    addr: String,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl NmpHandle {
    /// Spawns the NMP for `spec` on `fabric`, with `registry` as its
    /// bitstream store.
    ///
    /// Binds the message listener at `spec.addr` and the data listener at
    /// `spec.data_addr()`, then serves until stopped.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Net`] if either address is already bound.
    pub fn spawn(
        fabric: &Fabric,
        spec: &NodeSpec,
        registry: KernelRegistry,
    ) -> Result<Self, ClusterError> {
        let devices = spec
            .devices
            .iter()
            .map(|k| SimDevice::new(presets::by_kind(*k)))
            .collect();
        let state = Arc::new(Mutex::new(NodeState {
            devices,
            programs: HashMap::new(),
            kernels: HashMap::new(),
            registry,
            launches_by_user: HashMap::new(),
            draining: false,
            journal: HashMap::new(),
            journal_order: VecDeque::new(),
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let peer = Arc::new(PeerCtx {
            fabric: fabric.clone(),
            host_name: host_name_of(&spec.addr),
        });
        let msg_listener = fabric.bind(&spec.addr)?;
        let data_listener = fabric.bind(&spec.data_addr())?;
        let threads = vec![
            spawn_accept_loop(
                msg_listener,
                Arc::clone(&state),
                Arc::clone(&stop),
                Arc::clone(&peer),
            ),
            spawn_accept_loop(
                data_listener,
                Arc::clone(&state),
                Arc::clone(&stop),
                Arc::clone(&peer),
            ),
        ];
        Ok(NmpHandle {
            name: spec.name.clone(),
            addr: spec.addr.clone(),
            stop,
            threads,
        })
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The message-listener address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stops the daemon and joins its threads.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for NmpHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

impl std::fmt::Debug for NmpHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NmpHandle({} @ {})", self.name, self.addr)
    }
}

fn spawn_accept_loop(
    listener: Listener,
    state: Arc<Mutex<NodeState>>,
    stop: Arc<AtomicBool>,
    peer: Arc<PeerCtx>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        // Serve threads are tracked so the accept loop can join them on
        // shutdown (the paper's per-message thread model, §III-C).
        let mut serving: Vec<JoinHandle<()>> = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            match listener.accept_timeout(POLL) {
                Ok(conn) => {
                    let state = Arc::clone(&state);
                    let stop = Arc::clone(&stop);
                    let peer = Arc::clone(&peer);
                    serving.push(std::thread::spawn(move || serve(conn, state, stop, peer)));
                }
                Err(NetError::Timeout) => continue,
                Err(_) => break,
            }
        }
        for t in serving {
            let _ = t.join();
        }
    })
}

fn serve(mut conn: Conn, state: Arc<Mutex<NodeState>>, stop: Arc<AtomicBool>, peer: Arc<PeerCtx>) {
    'serve: while !stop.load(Ordering::SeqCst) {
        let (frame, arrival) = match conn.recv_frame_timeout(POLL) {
            Ok(x) => x,
            Err(NetError::Timeout) => continue,
            // The deadline expired with a frame partially assembled: the
            // bytes stay buffered in the receiver, so keep polling — the
            // remaining chunks resynchronize the stream.
            Err(NetError::TimeoutMidFrame { .. }) => continue,
            Err(_) => break,
        };
        // The host may coalesce several control messages into one
        // envelope; each request still gets its own response frame so
        // the host can complete them individually (and out of order).
        let envelope: Envelope = match decode_from_bytes(Bytes::from_owner(frame)) {
            Ok(e) => e,
            // A malformed package: drop the connection, as a real daemon
            // would after a framing-level protocol violation.
            Err(_) => break,
        };
        for request in envelope.into_requests() {
            let is_shutdown = matches!(request.body, ApiCall::Shutdown);
            let response = handle(&state, request, arrival, &peer);
            let send_at = response.completed_at_nanos;
            // Modeled data replies stand in for bulk payloads: charge the
            // return link as if the bytes were on it.
            let virtual_len = match &response.body {
                ApiReply::DataModeled { len } => *len,
                _ => 0,
            };
            if conn
                .send_frame_with(SimTime::from_nanos(send_at), virtual_len, |buf| {
                    encode_into_vec(&response, buf)
                })
                .is_err()
            {
                break 'serve;
            }
            if is_shutdown {
                break 'serve;
            }
        }
    }
}

/// True for calls whose re-execution would mutate node state twice — the
/// ones the at-most-once journal must guard. Pure queries (pings, reads,
/// profile queries) are safe to re-run and skip the journal.
fn mutates_state(call: &ApiCall) -> bool {
    matches!(
        call,
        ApiCall::CreateBuffer { .. }
            | ApiCall::CreateBufferModeled { .. }
            | ApiCall::WriteBuffer { .. }
            | ApiCall::WriteBufferModeled { .. }
            | ApiCall::ReleaseBuffer { .. }
            | ApiCall::CopyBuffer { .. }
            | ApiCall::BuildProgram { .. }
            | ApiCall::LoadBitstream { .. }
            | ApiCall::CreateKernel { .. }
            | ApiCall::LaunchKernel { .. }
            | ApiCall::LaunchFused { .. }
            | ApiCall::PushBufferTo { .. }
            | ApiCall::PullBufferFrom { .. }
    )
}

fn handle(
    state: &Mutex<NodeState>,
    request: Request,
    arrival: SimTime,
    peer: &PeerCtx,
) -> Response {
    if matches!(
        request.body,
        ApiCall::PushBufferTo { .. } | ApiCall::PullBufferFrom { .. }
    ) {
        return handle_peer_transfer(state, request, arrival, peer);
    }
    let mut state = state.lock();
    // At-most-once: a retransmitted (or chaos-duplicated) mutating request
    // is answered from the journal — the kernel does not run again, the
    // write does not apply again. The cached response is re-sent verbatim,
    // flagged so the host can count the dedup.
    let journaled = mutates_state(&request.body);
    if journaled {
        if let Some(cached) = state.journal.get(&request.id) {
            let mut response = cached.clone();
            response.duplicate = true;
            return response;
        }
    }
    let user = request.user;
    let traced = request.traced();
    // Wall clock is legal here: it never feeds virtual-time accounting,
    // only the `wall_nanos` observability field on shipped spans.
    let wall_start = std::time::Instant::now();
    let mut vm_wall_nanos = 0;
    let (body, completed) = dispatch(&mut state, user, request.body, arrival, &mut vm_wall_nanos);
    let wall_nanos = wall_start.elapsed().as_nanos() as u64;
    // For traced requests the node ships its side of the span tree back in
    // the response: a dispatch span covering the NMP's handling, plus —
    // for kernel launches — the VM run interval the reply already carries,
    // stamped with the wall time of the run alone.
    // Span ids are derived from the correlation token (host-side ids never
    // set the high bit), so no cross-network id coordination is needed.
    let spans = if traced {
        let dispatch_id = SpanId::derive(request.id.raw(), 0);
        // Enqueue is non-blocking: the reply leaves at receipt time while
        // the kernel occupies the device until `end_nanos`. The dispatch
        // span stretches to cover the run so the tree nests in time.
        let mut dispatch_end = completed.as_nanos();
        let mut spans = Vec::with_capacity(2);
        if let ApiReply::LaunchDone {
            start_nanos,
            end_nanos,
            ..
        } = &body
        {
            dispatch_end = dispatch_end.max(*end_nanos);
            spans.push(WireSpan {
                id: SpanId::derive(request.id.raw(), 1).0,
                parent: dispatch_id.0,
                name: "vm.run".to_string(),
                category: "Compute".to_string(),
                start_nanos: *start_nanos,
                end_nanos: *end_nanos,
                wall_nanos: vm_wall_nanos,
            });
        }
        spans.insert(
            0,
            WireSpan {
                id: dispatch_id.0,
                parent: request.parent_span,
                name: "nmp.dispatch".to_string(),
                category: "Dispatch".to_string(),
                start_nanos: arrival.as_nanos(),
                end_nanos: dispatch_end,
                wall_nanos,
            },
        );
        spans
    } else {
        Vec::new()
    };
    let response = Response {
        id: request.id,
        completed_at_nanos: completed.as_nanos(),
        body,
        duplicate: false,
        spans,
    };
    if journaled {
        state.journal_record(&response);
    }
    response
}

fn err_reply(code: i32, message: impl Into<String>) -> ApiReply {
    ApiReply::Error {
        code,
        message: message.into(),
    }
}

/// Executes a host-commanded NMP→NMP transfer ([`ApiCall::PushBufferTo`]
/// / [`ApiCall::PullBufferFrom`]).
///
/// Unlike [`handle`], the node-state lock is *released* around the
/// network hop: the peer may be co-located — or this very node, dialling
/// its own data listener over loopback on single-node platforms — and
/// its serve thread needs the lock to answer the inner request. The
/// at-most-once journal still brackets the whole operation: the check
/// runs before the local phase, the record after the hop. Duplicates of
/// a given id arrive in order on one connection, so releasing the lock
/// in between cannot let the transfer execute twice.
fn handle_peer_transfer(
    state: &Mutex<NodeState>,
    request: Request,
    arrival: SimTime,
    peer: &PeerCtx,
) -> Response {
    {
        let st = state.lock();
        if let Some(cached) = st.journal.get(&request.id) {
            let mut response = cached.clone();
            response.duplicate = true;
            return response;
        }
    }
    let traced = request.traced();
    let id = request.id;
    let parent_span = request.parent_span;
    let wall_start = std::time::Instant::now();
    let (body, completed) = peer_transfer(state, &request, arrival, peer);
    let wall_nanos = wall_start.elapsed().as_nanos() as u64;
    let spans = if traced {
        let dispatch_id = SpanId::derive(id.raw(), 0);
        vec![
            WireSpan {
                id: dispatch_id.0,
                parent: parent_span,
                name: "nmp.dispatch".to_string(),
                category: "Dispatch".to_string(),
                start_nanos: arrival.as_nanos(),
                end_nanos: completed.as_nanos(),
                wall_nanos,
            },
            WireSpan {
                id: SpanId::derive(id.raw(), 1).0,
                parent: dispatch_id.0,
                name: "fabric.peer_transfer".to_string(),
                category: "DataTransfer".to_string(),
                start_nanos: arrival.as_nanos(),
                end_nanos: completed.as_nanos(),
                wall_nanos,
            },
        ]
    } else {
        Vec::new()
    };
    let response = Response {
        id,
        completed_at_nanos: completed.as_nanos(),
        body,
        duplicate: false,
        spans,
    };
    state.lock().journal_record(&response);
    response
}

/// The bulk hop of a peer transfer: stage locally, ship, land. Returns
/// the outer reply and the virtual time the last byte settled.
fn peer_transfer(
    state: &Mutex<NodeState>,
    request: &Request,
    arrival: SimTime,
    peer: &PeerCtx,
) -> (ApiReply, SimTime) {
    // The inner request reuses the outer correlation token with the high
    // bit set (host-side allocators never produce such ids): a
    // chaos-duplicated inner frame hits the peer's own at-most-once
    // journal instead of applying the write twice.
    let inner_id = RequestId::new(request.id.raw() | (1 << 63));
    match request.body.clone() {
        ApiCall::PushBufferTo {
            device,
            buffer,
            peer_addr,
            peer_device,
            peer_buffer,
            offset,
            len,
            version: _,
            epoch,
            modeled,
        } => {
            // Stage the bytes off the local device, under the lock.
            let (inner_call, virtual_len, local_done) = {
                let mut st = state.lock();
                let dev = match device_mut(&mut st, device) {
                    Ok(d) => d,
                    Err(reply) => return (reply, arrival),
                };
                if modeled {
                    match dev.transfer_modeled(buffer, offset, len, arrival) {
                        Ok(grant) => (
                            ApiCall::WriteBufferModeled {
                                device: peer_device,
                                buffer: peer_buffer,
                                offset,
                                len,
                            },
                            len,
                            grant.end,
                        ),
                        Err(e) => return (device_error_reply(e), arrival),
                    }
                } else {
                    match dev.read_buffer(buffer, offset, len, arrival) {
                        Ok((bytes, grant)) => (
                            ApiCall::WriteBuffer {
                                device: peer_device,
                                buffer: peer_buffer,
                                offset,
                                data: Bytes::from(bytes),
                            },
                            0,
                            grant.end,
                        ),
                        Err(e) => return (device_error_reply(e), arrival),
                    }
                }
            };
            // Ship them with the lock released; the peer's ack carries
            // the arrival time of the last byte.
            match peer_round_trip(
                peer,
                &peer_addr,
                inner_id,
                request.user,
                epoch,
                inner_call,
                virtual_len,
                local_done,
            ) {
                Ok((ApiReply::Ack, at)) => (ApiReply::Ack, at),
                Ok((_, at)) => (unexpected_peer_reply(&peer_addr), at),
                Err(reply) => (reply, local_done),
            }
        }
        ApiCall::PullBufferFrom {
            device,
            buffer,
            peer_addr,
            peer_device,
            peer_buffer,
            offset,
            len,
            version: _,
            epoch,
            modeled,
        } => {
            let inner_call = if modeled {
                ApiCall::ReadBufferModeled {
                    device: peer_device,
                    buffer: peer_buffer,
                    offset,
                    len,
                }
            } else {
                ApiCall::ReadBuffer {
                    device: peer_device,
                    buffer: peer_buffer,
                    offset,
                    len,
                }
            };
            match peer_round_trip(
                peer,
                &peer_addr,
                inner_id,
                request.user,
                epoch,
                inner_call,
                0,
                arrival,
            ) {
                // Land the fetched bytes on the local device.
                Ok((ApiReply::Data { bytes }, at)) if !modeled => {
                    let mut st = state.lock();
                    let dev = match device_mut(&mut st, device) {
                        Ok(d) => d,
                        Err(reply) => return (reply, at),
                    };
                    match dev.write_buffer(buffer, offset, &bytes, at) {
                        Ok(grant) => (ApiReply::Ack, grant.end),
                        Err(e) => (device_error_reply(e), at),
                    }
                }
                Ok((ApiReply::DataModeled { len: got }, at)) if modeled => {
                    let mut st = state.lock();
                    let dev = match device_mut(&mut st, device) {
                        Ok(d) => d,
                        Err(reply) => return (reply, at),
                    };
                    match dev.transfer_modeled(buffer, offset, got, at) {
                        Ok(grant) => (ApiReply::Ack, grant.end),
                        Err(e) => (device_error_reply(e), at),
                    }
                }
                Ok((_, at)) => (unexpected_peer_reply(&peer_addr), at),
                Err(reply) => (reply, arrival),
            }
        }
        _ => unreachable!("peer_transfer only handles peer data-plane calls"),
    }
}

fn unexpected_peer_reply(peer_addr: &str) -> ApiReply {
    err_reply(
        status::INVALID_OPERATION,
        format!("peer {peer_addr} answered the transfer with an unexpected reply"),
    )
}

/// Dials the peer's data listener, delivers one inner request and waits
/// (bounded by [`PEER_PATIENCE`]) for its reply. Transport trouble comes
/// back as `Err(error reply)`: the host treats it as final for this
/// transfer and falls back to relaying the bytes through its shadow.
#[allow(clippy::too_many_arguments)]
fn peer_round_trip(
    peer: &PeerCtx,
    peer_addr: &str,
    id: RequestId,
    user: UserId,
    epoch: u32,
    call: ApiCall,
    virtual_len: u64,
    at: SimTime,
) -> Result<(ApiReply, SimTime), ApiReply> {
    let failed = |what: &str, detail: String| {
        err_reply(
            status::DEVICE_NOT_AVAILABLE,
            format!("peer {peer_addr} {what}: {detail}"),
        )
    };
    let mut conn = peer
        .fabric
        .connect(&peer.host_name, peer_addr)
        .map_err(|e| failed("is unreachable", e.to_string()))?;
    let inner = Request {
        id,
        user,
        sent_at_nanos: at.as_nanos(),
        trace_id: 0,
        parent_span: 0,
        epoch,
        attempt: 0,
        body: call,
    };
    conn.send_frame_with(at, virtual_len, |buf| {
        encode_into_vec(&Envelope::Single(inner), buf)
    })
    .map_err(|e| failed("rejected the transfer", e.to_string()))?;
    let (frame, received_at) = conn
        .recv_frame_timeout(PEER_PATIENCE)
        .map_err(|e| failed("did not answer", e.to_string()))?;
    let response: Response = decode_from_bytes(Bytes::from_owner(frame))
        .map_err(|e| failed("sent an undecodable reply", e.to_string()))?;
    match response.body {
        ApiReply::Error { code, message } => Err(err_reply(code, message)),
        reply => Ok((reply, received_at)),
    }
}

/// Flattens each kernel's static-analysis report into its wire form.
fn wire_reports(compiled: &haocl_clc::CompiledProgram) -> Vec<WireKernelReport> {
    compiled
        .kernels()
        .map(|k| WireKernelReport {
            kernel: k.name.clone(),
            errors: k.report.diagnostics.error_count() as u32,
            warnings: k.report.diagnostics.warning_count() as u32,
            local_bytes: k.report.features.local_bytes,
            barrier_count: k.report.features.barrier_count,
            arithmetic_intensity: k.report.features.arithmetic_intensity,
            divergence_score: k.report.features.divergence_score,
            effects: wire_effects(&k.report.effects),
        })
        .collect()
}

/// Flattens a compiler effect summary into its wire form.
fn wire_effects(summary: &haocl_clc::EffectSummary) -> Vec<WireArgEffect> {
    use haocl_clc::{AccessMode, PatternBase};
    summary
        .args
        .iter()
        .map(|a| WireArgEffect {
            mode: match a.mode {
                AccessMode::None => 0,
                AccessMode::Read => 1,
                AccessMode::Write => 2,
                AccessMode::ReadWrite => 3,
            },
            elem_bytes: a.elem_bytes,
            bounded: a.elem_bounds.is_some(),
            lo: a.elem_bounds.map_or(0, |b| b.0),
            hi: a.elem_bounds.map_or(0, |b| b.1),
            complete: a.complete,
            patterns: a
                .patterns
                .iter()
                .map(|p| {
                    let (base_kind, base_id, base_add) = match p.base {
                        PatternBase::Const(k) => (0, 0, k),
                        PatternBase::Geom { id, add } => (1, id, add),
                        PatternBase::Opaque => (2, 0, 0),
                    };
                    WireAccessPattern {
                        write: p.write,
                        provable: p.provable,
                        coeffs: p.coeffs,
                        base_kind,
                        base_id,
                        base_add,
                    }
                })
                .collect(),
        })
        .collect()
}

fn device_error_reply(e: DeviceError) -> ApiReply {
    let code = match &e {
        DeviceError::Memory(MemoryError::OutOfMemory { .. }) => {
            status::MEM_OBJECT_ALLOCATION_FAILURE
        }
        DeviceError::Memory(MemoryError::UnknownBuffer(_)) => status::INVALID_MEM_OBJECT,
        DeviceError::Memory(MemoryError::DuplicateBuffer(_)) => status::INVALID_VALUE,
        DeviceError::Memory(MemoryError::OutOfBounds { .. }) => status::INVALID_VALUE,
        DeviceError::Memory(MemoryError::VirtualBuffer(_)) => status::INVALID_OPERATION,
        DeviceError::Exec(_) => status::INVALID_KERNEL_ARGS,
        DeviceError::NotSupported(_) => status::INVALID_OPERATION,
    };
    err_reply(code, e.to_string())
}

/// Executes one call against the node. Kernel launches set
/// `vm_wall_nanos` to the wall time of the device run (for a fused
/// launch, all its parts back to back).
fn dispatch(
    state: &mut NodeState,
    user: UserId,
    call: ApiCall,
    at: SimTime,
    vm_wall_nanos: &mut u64,
) -> (ApiReply, SimTime) {
    match call {
        ApiCall::Hello { client: _ } | ApiCall::ListDevices => {
            let devices = state
                .devices
                .iter()
                .enumerate()
                .map(|(i, d)| d.descriptor(i as u8))
                .collect();
            (ApiReply::NodeInfo { devices }, at)
        }
        ApiCall::Ping => (
            ApiReply::Pong {
                now_nanos: at.as_nanos(),
            },
            at,
        ),
        ApiCall::Shutdown => (ApiReply::Ack, at),
        ApiCall::CreateBufferModeled {
            device,
            buffer,
            size,
        } => match device_mut(state, device) {
            Err(reply) => (reply, at),
            Ok(dev) => match dev.alloc_buffer_modeled(buffer, size) {
                Ok(()) => (ApiReply::Ack, at),
                Err(e) => (device_error_reply(e), at),
            },
        },
        ApiCall::WriteBufferModeled {
            device,
            buffer,
            offset,
            len,
        } => match device_mut(state, device) {
            Err(reply) => (reply, at),
            Ok(dev) => match dev.transfer_modeled(buffer, offset, len, at) {
                Ok(grant) => (ApiReply::Ack, grant.end),
                Err(e) => (device_error_reply(e), at),
            },
        },
        ApiCall::ReadBufferModeled {
            device,
            buffer,
            offset,
            len,
        } => match device_mut(state, device) {
            Err(reply) => (reply, at),
            Ok(dev) => match dev.transfer_modeled(buffer, offset, len, at) {
                Ok(grant) => (ApiReply::DataModeled { len }, grant.end),
                Err(e) => (device_error_reply(e), at),
            },
        },
        ApiCall::QueryProfile => {
            let mut entries = Vec::new();
            for (i, d) in state.devices.iter().enumerate() {
                entries.extend(d.profile_entries(i as u8));
            }
            (ApiReply::Profile { entries }, at)
        }
        // Fault injection: degrade (or restore) a device's compute rate.
        // Idempotent control call — deliberately NOT journaled, and the
        // descriptor keeps advertising full speed, so only observed
        // timings betray the sickness.
        ApiCall::SetThrottle { device, factor } => match device_mut(state, device) {
            Err(reply) => (reply, at),
            Ok(dev) => {
                dev.set_throttle(factor);
                (ApiReply::Ack, at)
            }
        },
        // Idempotent like SetThrottle: not journaled, safe to re-apply
        // on a retried delivery.
        ApiCall::BeginDrain => {
            state.draining = true;
            (ApiReply::Ack, at)
        }
        ApiCall::CreateBuffer {
            device,
            buffer,
            size,
        } => match device_mut(state, device) {
            Err(reply) => (reply, at),
            Ok(dev) => match dev.alloc_buffer(buffer, size) {
                Ok(()) => (ApiReply::Ack, at),
                Err(e) => (device_error_reply(e), at),
            },
        },
        ApiCall::ReleaseBuffer { device, buffer } => match device_mut(state, device) {
            Err(reply) => (reply, at),
            Ok(dev) => match dev.free_buffer(buffer) {
                Ok(()) => (ApiReply::Ack, at),
                Err(e) => (device_error_reply(e), at),
            },
        },
        ApiCall::WriteBuffer {
            device,
            buffer,
            offset,
            data,
        } => match device_mut(state, device) {
            Err(reply) => (reply, at),
            Ok(dev) => match dev.write_buffer(buffer, offset, &data, at) {
                Ok(grant) => (ApiReply::Ack, grant.end),
                Err(e) => (device_error_reply(e), at),
            },
        },
        ApiCall::ReadBuffer {
            device,
            buffer,
            offset,
            len,
        } => match device_mut(state, device) {
            Err(reply) => (reply, at),
            Ok(dev) => match dev.read_buffer(buffer, offset, len, at) {
                Ok((bytes, grant)) => (
                    ApiReply::Data {
                        bytes: Bytes::from(bytes),
                    },
                    grant.end,
                ),
                Err(e) => (device_error_reply(e), at),
            },
        },
        ApiCall::CopyBuffer {
            device,
            src,
            dst,
            src_offset,
            dst_offset,
            len,
        } => match device_mut(state, device) {
            Err(reply) => (reply, at),
            Ok(dev) => match dev.copy_buffer(src, dst, src_offset, dst_offset, len, at) {
                Ok(grant) => (ApiReply::Ack, grant.end),
                Err(e) => (device_error_reply(e), at),
            },
        },
        ApiCall::BuildProgram {
            device,
            program,
            source,
        } => {
            let kind = match state.devices.get(device as usize) {
                Some(d) => d.model().kind,
                None => return (err_reply(status::INVALID_DEVICE, "no such device"), at),
            };
            if kind == haocl_proto::messages::DeviceKind::Fpga {
                return (
                    err_reply(
                        status::INVALID_OPERATION,
                        "FPGA devices load pre-built bitstreams (use LoadBitstream)",
                    ),
                    at,
                );
            }
            // Compile in `WarnOnly`: the node is mechanism, the host is
            // policy. Analysis findings travel back as wire reports and
            // `Program::build` decides whether errors fail the build.
            let opts = haocl_clc::CompileOptions {
                analysis: haocl_clc::AnalysisMode::WarnOnly,
            };
            match haocl_clc::compile_with_options(&source, &opts) {
                Ok(compiled) => {
                    let reports = wire_reports(&compiled);
                    let log = compiled
                        .kernels()
                        .map(|k| k.report.diagnostics.render())
                        .filter(|r| !r.is_empty())
                        .collect::<Vec<_>>()
                        .join("\n");
                    state
                        .programs
                        .insert((program, device), ProgramEntry::Built(compiled));
                    (
                        ApiReply::BuildLog {
                            ok: true,
                            log,
                            reports,
                        },
                        at,
                    )
                }
                Err(e) => (
                    ApiReply::BuildLog {
                        ok: false,
                        log: e.build_log(),
                        reports: Vec::new(),
                    },
                    at,
                ),
            }
        }
        ApiCall::LoadBitstream {
            device,
            program,
            kernels,
        } => {
            if state.devices.get(device as usize).is_none() {
                return (err_reply(status::INVALID_DEVICE, "no such device"), at);
            }
            let missing: Vec<&String> = kernels
                .iter()
                .filter(|k| !state.registry.contains(k))
                .collect();
            if !missing.is_empty() {
                return (
                    ApiReply::BuildLog {
                        ok: false,
                        log: format!(
                            "bitstream store is missing kernels: {}",
                            missing
                                .iter()
                                .map(|s| s.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                        reports: Vec::new(),
                    },
                    at,
                );
            }
            let n = kernels.len();
            state
                .programs
                .insert((program, device), ProgramEntry::Bitstream(kernels));
            let grant = state.devices[device as usize].note_program_loaded(program, at);
            (
                ApiReply::BuildLog {
                    ok: true,
                    log: format!("loaded {n} pre-built kernel(s)"),
                    reports: Vec::new(),
                },
                grant.end,
            )
        }
        ApiCall::CreateKernel {
            device,
            kernel,
            program,
            name,
        } => {
            let Some(entry) = state.programs.get(&(program, device)) else {
                return (
                    err_reply(
                        status::INVALID_PROGRAM,
                        "program is unknown or not built for this device",
                    ),
                    at,
                );
            };
            let resolved = match entry {
                ProgramEntry::Bitstream(names) => {
                    if !names.iter().any(|n| n == &name) {
                        return (
                            err_reply(
                                status::INVALID_KERNEL_NAME,
                                format!("`{name}` is not in the loaded bitstream"),
                            ),
                            at,
                        );
                    }
                    match state.registry.get(&name) {
                        Some(native) => Kernel::Native(native),
                        None => {
                            return (
                                err_reply(
                                    status::INVALID_KERNEL_NAME,
                                    format!("bitstream kernel `{name}` vanished from the store"),
                                ),
                                at,
                            )
                        }
                    }
                }
                ProgramEntry::Built(compiled) => {
                    // Fast path: a registered native implementation with the
                    // same name supersedes VM execution of the source.
                    if let Some(native) = state.registry.get(&name) {
                        Kernel::Native(native)
                    } else {
                        match compiled.kernel(&name) {
                            Some(k) => Kernel::Compiled(Arc::new(k.clone())),
                            None => {
                                return (
                                    err_reply(
                                        status::INVALID_KERNEL_NAME,
                                        format!("no kernel `{name}` in program"),
                                    ),
                                    at,
                                )
                            }
                        }
                    }
                }
            };
            let arity = resolved.arity() as u32;
            state.kernels.insert(kernel, (device, resolved));
            (ApiReply::KernelInfo { arity }, at)
        }
        ApiCall::LaunchKernel {
            device,
            kernel,
            args,
            range,
            cost,
            fidelity,
            shared: _,
        } => {
            if state.draining {
                return (
                    err_reply(status::DEVICE_NOT_AVAILABLE, "node is draining"),
                    at,
                );
            }
            let Some((kernel_device, k)) = state.kernels.get(&kernel).cloned() else {
                return (err_reply(status::INVALID_KERNEL, "unknown kernel"), at);
            };
            if kernel_device != device {
                return (
                    err_reply(
                        status::INVALID_DEVICE,
                        "kernel was created for a different device",
                    ),
                    at,
                );
            }
            let nd = NdRange {
                work_dim: range.work_dim,
                global: range.global,
                local: range.local,
            };
            let cost = cost_from_wire(&cost);
            *state.launches_by_user.entry(user).or_insert(0) += 1;
            let Some(dev) = state.devices.get_mut(device as usize) else {
                return (err_reply(status::INVALID_DEVICE, "no such device"), at);
            };
            let vm_start = std::time::Instant::now();
            let launched = dev.launch(&k, &args, &nd, &cost, fidelity, at);
            *vm_wall_nanos = vm_start.elapsed().as_nanos() as u64;
            match launched {
                // Enqueue is non-blocking (OpenCL semantics): the reply
                // leaves at receipt time while the kernel occupies the
                // device timeline until `end_nanos`. Later operations on
                // this device queue behind it; the host only waits at
                // `clFinish`/reads.
                Ok(outcome) => (
                    ApiReply::LaunchDone {
                        start_nanos: outcome.grant.start.as_nanos(),
                        end_nanos: outcome.grant.end.as_nanos(),
                        instructions: outcome.instructions,
                    },
                    at,
                ),
                Err(e) => (device_error_reply(e), at),
            }
        }
        ApiCall::LaunchFused {
            device,
            fidelity,
            shared: _,
            parts,
        } => {
            if state.draining {
                return (
                    err_reply(status::DEVICE_NOT_AVAILABLE, "node is draining"),
                    at,
                );
            }
            if parts.len() < 2 {
                return (
                    err_reply(status::INVALID_VALUE, "fused launch needs >= 2 parts"),
                    at,
                );
            }
            // Resolve every constituent before running any: a fused
            // dispatch is one command, so it fails whole on bad handles.
            let mut resolved = Vec::with_capacity(parts.len());
            for part in &parts {
                let Some((kernel_device, k)) = state.kernels.get(&part.kernel).cloned() else {
                    return (err_reply(status::INVALID_KERNEL, "unknown kernel"), at);
                };
                if kernel_device != device {
                    return (
                        err_reply(
                            status::INVALID_DEVICE,
                            "kernel was created for a different device",
                        ),
                        at,
                    );
                }
                resolved.push(k);
            }
            let fused: Vec<FusedPart<'_>> = resolved
                .iter()
                .zip(&parts)
                .map(|(k, part)| FusedPart {
                    kernel: k,
                    args: &part.args,
                    range: NdRange {
                        work_dim: part.range.work_dim,
                        global: part.range.global,
                        local: part.range.local,
                    },
                    cost: cost_from_wire(&part.cost),
                })
                .collect();
            *state.launches_by_user.entry(user).or_insert(0) += 1;
            let Some(dev) = state.devices.get_mut(device as usize) else {
                return (err_reply(status::INVALID_DEVICE, "no such device"), at);
            };
            let vm_start = std::time::Instant::now();
            let launched = dev.launch_fused(&fused, fidelity, at);
            *vm_wall_nanos = vm_start.elapsed().as_nanos() as u64;
            match launched {
                Ok(outcome) => (
                    ApiReply::LaunchDone {
                        start_nanos: outcome.grant.start.as_nanos(),
                        end_nanos: outcome.grant.end.as_nanos(),
                        instructions: outcome.instructions,
                    },
                    at,
                ),
                Err(e) => (device_error_reply(e), at),
            }
        }
        // Routed to `handle_peer_transfer` before dispatch (they must
        // not run under the state lock); reaching here is a logic error.
        ApiCall::PushBufferTo { .. } | ApiCall::PullBufferFrom { .. } => (
            err_reply(
                status::INVALID_OPERATION,
                "peer transfers are handled outside dispatch",
            ),
            at,
        ),
    }
}

fn device_mut(state: &mut NodeState, device: u8) -> Result<&mut SimDevice, ApiReply> {
    state
        .devices
        .get_mut(device as usize)
        .ok_or_else(|| err_reply(status::INVALID_DEVICE, format!("no device {device}")))
}

fn cost_from_wire(w: &haocl_proto::messages::WireCost) -> CostModel {
    let mut c = CostModel::new()
        .flops(w.flops.max(0.0))
        .bytes_read(w.bytes_read.max(0.0))
        .bytes_written(w.bytes_written.max(0.0));
    if !w.uniform {
        c = c.divergent();
    }
    if w.streaming {
        c = c.streaming();
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use haocl_net::LinkModel;
    use haocl_proto::ids::{BufferId, RequestId};
    use haocl_proto::messages::{Fidelity, WireArg, WireCost, WireNdRange};
    use haocl_sim::Clock;

    fn call(conn: &mut Conn, user: u32, body: ApiCall) -> (ApiReply, SimTime) {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let id = RequestId::new(NEXT.fetch_add(1, Ordering::Relaxed));
        let req = Request {
            id,
            user: UserId::new(user),
            sent_at_nanos: 0,
            trace_id: 0,
            parent_span: 0,
            epoch: 0,
            attempt: 0,
            body,
        };
        conn.send_frame(&encode_to_vec(&Envelope::Single(req)), SimTime::ZERO)
            .unwrap();
        let (frame, _) = conn.recv_frame().unwrap();
        let resp: Response = decode_from_slice(&frame).unwrap();
        assert_eq!(resp.id, id);
        (resp.body, SimTime::from_nanos(resp.completed_at_nanos))
    }

    fn launch_one_node() -> (Fabric, NmpHandle, Conn) {
        let fabric = Fabric::new(Clock::new(), LinkModel::gigabit_ethernet());
        let config = ClusterConfig::gpu_cluster(1);
        let handle = NmpHandle::spawn(&fabric, &config.nodes[0], KernelRegistry::new()).unwrap();
        let conn = fabric.connect("10.0.0.1", &config.nodes[0].addr).unwrap();
        (fabric, handle, conn)
    }

    #[test]
    fn hello_reports_devices() {
        let (_f, handle, mut conn) = launch_one_node();
        let (reply, _) = call(&mut conn, 1, ApiCall::Hello { client: "t".into() });
        match reply {
            ApiReply::NodeInfo { devices } => {
                assert_eq!(devices.len(), 1);
                assert_eq!(devices[0].kind, haocl_proto::messages::DeviceKind::Gpu);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        handle.stop();
    }

    #[test]
    fn full_kernel_flow_over_the_wire() {
        let (_f, handle, mut conn) = launch_one_node();
        let buf = BufferId::new(1);
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::CreateBuffer {
                device: 0,
                buffer: buf,
                size: 16,
            },
        );
        assert_eq!(r, ApiReply::Ack);
        let data: Vec<u8> = [1.0f32, 2.0, 3.0, 4.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::WriteBuffer {
                device: 0,
                buffer: buf,
                offset: 0,
                data: Bytes::from(data),
            },
        );
        assert_eq!(r, ApiReply::Ack);
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::BuildProgram {
                device: 0,
                program: ProgramId::new(1),
                source: "__kernel void dbl(__global float* a) { int i = get_global_id(0); a[i] = a[i] * 2.0f; }"
                    .into(),
            },
        );
        assert!(matches!(r, ApiReply::BuildLog { ok: true, .. }));
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::CreateKernel {
                device: 0,
                kernel: KernelId::new(1),
                program: ProgramId::new(1),
                name: "dbl".into(),
            },
        );
        assert_eq!(r, ApiReply::KernelInfo { arity: 1 });
        let (r, t) = call(
            &mut conn,
            1,
            ApiCall::LaunchKernel {
                device: 0,
                kernel: KernelId::new(1),
                args: vec![WireArg::Buffer(buf)],
                range: WireNdRange {
                    work_dim: 1,
                    global: [4, 1, 1],
                    local: [2, 1, 1],
                },
                cost: WireCost {
                    flops: 4.0,
                    bytes_read: 16.0,
                    bytes_written: 16.0,
                    uniform: true,
                    streaming: false,
                },
                fidelity: Fidelity::Full,
                shared: false,
            },
        );
        assert!(matches!(r, ApiReply::LaunchDone { .. }));
        assert!(t > SimTime::ZERO);
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::ReadBuffer {
                device: 0,
                buffer: buf,
                offset: 0,
                len: 16,
            },
        );
        match r {
            ApiReply::Data { bytes } => {
                let vals: Vec<f32> = bytes
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                assert_eq!(vals, vec![2.0, 4.0, 6.0, 8.0]);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // Profile now shows the launch.
        let (r, _) = call(&mut conn, 1, ApiCall::QueryProfile);
        match r {
            ApiReply::Profile { entries } => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].kernel, "dbl");
                assert_eq!(entries[0].runs, 1);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        handle.stop();
    }

    #[test]
    fn build_failure_returns_log() {
        let (_f, handle, mut conn) = launch_one_node();
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::BuildProgram {
                device: 0,
                program: ProgramId::new(1),
                source: "__kernel void broken( {".into(),
            },
        );
        match r {
            ApiReply::BuildLog { ok, log, reports } => {
                assert!(!ok);
                assert!(log.contains("error"));
                assert!(reports.is_empty());
            }
            other => panic!("unexpected reply {other:?}"),
        }
        handle.stop();
    }

    #[test]
    fn build_reply_carries_kernel_reports() {
        let (_f, handle, mut conn) = launch_one_node();
        // A divergent barrier: the node compiles WarnOnly, so the build
        // succeeds but the report carries the error for host-side policy.
        let src = r#"__kernel void div(__global int* a) {
            __local int tmp[4];
            if (get_local_id(0) == 0) { barrier(CLK_LOCAL_MEM_FENCE); }
            tmp[0] = 1;
            a[get_global_id(0)] = tmp[0];
        }"#;
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::BuildProgram {
                device: 0,
                program: ProgramId::new(1),
                source: src.into(),
            },
        );
        match r {
            ApiReply::BuildLog { ok, log, reports } => {
                assert!(ok, "WarnOnly build must succeed on the node");
                assert!(log.contains("barrier divergence"), "{log}");
                assert_eq!(reports.len(), 1);
                assert_eq!(reports[0].kernel, "div");
                assert!(reports[0].errors >= 1);
                assert_eq!(reports[0].barrier_count, 1);
                assert_eq!(reports[0].local_bytes, 16);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        handle.stop();
    }

    #[test]
    fn fpga_rejects_source_build_but_loads_bitstreams() {
        let fabric = Fabric::new(Clock::new(), LinkModel::gigabit_ethernet());
        let config = ClusterConfig::fpga_cluster(1);
        let registry = KernelRegistry::new();
        registry.register(Arc::new(NopKernel));
        let handle = NmpHandle::spawn(&fabric, &config.nodes[0], registry).unwrap();
        let mut conn = fabric.connect("10.0.0.1", &config.nodes[0].addr).unwrap();
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::BuildProgram {
                device: 0,
                program: ProgramId::new(1),
                source: "__kernel void f() {}".into(),
            },
        );
        assert!(matches!(r, ApiReply::Error { code, .. } if code == status::INVALID_OPERATION));
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::LoadBitstream {
                device: 0,
                program: ProgramId::new(2),
                kernels: vec!["nop".into()],
            },
        );
        assert!(matches!(r, ApiReply::BuildLog { ok: true, .. }));
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::LoadBitstream {
                device: 0,
                program: ProgramId::new(3),
                kernels: vec!["missing".into()],
            },
        );
        assert!(matches!(r, ApiReply::BuildLog { ok: false, .. }));
        handle.stop();
    }

    struct NopKernel;

    impl haocl_kernel::NativeKernel for NopKernel {
        fn name(&self) -> &str {
            "nop"
        }

        fn arity(&self) -> usize {
            0
        }

        fn execute(
            &self,
            _args: &[haocl_kernel::ArgValue],
            _buffers: &mut [haocl_kernel::GlobalBuffer],
            _range: &NdRange,
        ) -> Result<haocl_kernel::ExecStats, haocl_kernel::ExecError> {
            Ok(haocl_kernel::ExecStats::default())
        }
    }

    #[test]
    fn unknown_objects_yield_opencl_codes() {
        let (_f, handle, mut conn) = launch_one_node();
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::ReleaseBuffer {
                device: 0,
                buffer: BufferId::new(42),
            },
        );
        assert!(matches!(r, ApiReply::Error { code, .. } if code == status::INVALID_MEM_OBJECT));
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::CreateKernel {
                device: 0,
                kernel: KernelId::new(1),
                program: ProgramId::new(9),
                name: "f".into(),
            },
        );
        assert!(matches!(r, ApiReply::Error { code, .. } if code == status::INVALID_PROGRAM));
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::CreateBuffer {
                device: 7,
                buffer: BufferId::new(1),
                size: 4,
            },
        );
        assert!(matches!(r, ApiReply::Error { code, .. } if code == status::INVALID_DEVICE));
        handle.stop();
    }

    #[test]
    fn batched_envelope_yields_per_request_responses() {
        let (_f, handle, mut conn) = launch_one_node();
        let requests: Vec<Request> = (0..3)
            .map(|i| Request {
                id: RequestId::new(100 + i),
                user: UserId::new(1),
                sent_at_nanos: 0,
                trace_id: 0,
                parent_span: 0,
                epoch: 0,
                attempt: 0,
                body: ApiCall::Ping,
            })
            .collect();
        conn.send_frame(&encode_to_vec(&Envelope::Batch(requests)), SimTime::ZERO)
            .unwrap();
        let mut ids = Vec::new();
        for _ in 0..3 {
            let (frame, _) = conn.recv_frame().unwrap();
            let resp: Response = decode_from_slice(&frame).unwrap();
            assert!(matches!(resp.body, ApiReply::Pong { .. }));
            ids.push(resp.id.raw());
        }
        assert_eq!(ids, vec![100, 101, 102], "one response per batched request");
        handle.stop();
    }

    #[test]
    fn shutdown_message_closes_connection() {
        let (_f, handle, mut conn) = launch_one_node();
        let (r, _) = call(&mut conn, 1, ApiCall::Shutdown);
        assert_eq!(r, ApiReply::Ack);
        handle.stop();
    }

    #[test]
    fn two_connections_share_node_state() {
        let (f, handle, mut conn1) = launch_one_node();
        let mut conn2 = f.connect("10.0.0.9", handle.addr()).unwrap();
        let (r, _) = call(
            &mut conn1,
            1,
            ApiCall::CreateBuffer {
                device: 0,
                buffer: BufferId::new(5),
                size: 64,
            },
        );
        assert_eq!(r, ApiReply::Ack);
        // Second user sees the same buffer (duplicate creation fails).
        let (r, _) = call(
            &mut conn2,
            2,
            ApiCall::CreateBuffer {
                device: 0,
                buffer: BufferId::new(5),
                size: 64,
            },
        );
        assert!(matches!(r, ApiReply::Error { code, .. } if code == status::INVALID_VALUE));
        handle.stop();
    }

    /// Sends a request with an explicit correlation id and attempt number,
    /// returning the whole response (the dedup tests inspect `duplicate`).
    fn call_raw(conn: &mut Conn, id: u64, attempt: u32, body: ApiCall) -> Response {
        let req = Request {
            id: RequestId::new(id),
            user: UserId::new(1),
            sent_at_nanos: 0,
            trace_id: 0,
            parent_span: 0,
            epoch: 0,
            attempt,
            body,
        };
        conn.send_frame(&encode_to_vec(&Envelope::Single(req)), SimTime::ZERO)
            .unwrap();
        let (frame, _) = conn.recv_frame().unwrap();
        decode_from_slice(&frame).unwrap()
    }

    #[test]
    fn retried_mutations_are_answered_from_the_journal() {
        let (_f, handle, mut conn) = launch_one_node();
        let create = ApiCall::CreateBuffer {
            device: 0,
            buffer: BufferId::new(1),
            size: 16,
        };
        let first = call_raw(&mut conn, 9000, 0, create.clone());
        assert_eq!(first.body, ApiReply::Ack);
        assert!(!first.duplicate);
        // A retransmission of the same request id must NOT re-execute:
        // re-running CreateBuffer would fail with INVALID_VALUE, but the
        // journal replays the original Ack and flags the dedup.
        let retry = call_raw(&mut conn, 9000, 1, create);
        assert_eq!(retry.body, ApiReply::Ack);
        assert!(retry.duplicate, "second delivery served from journal");
        assert_eq!(retry.completed_at_nanos, first.completed_at_nanos);
        handle.stop();
    }

    #[test]
    fn duplicated_launch_runs_the_kernel_exactly_once() {
        let (_f, handle, mut conn) = launch_one_node();
        let r = call_raw(
            &mut conn,
            9100,
            0,
            ApiCall::BuildProgram {
                device: 0,
                program: ProgramId::new(1),
                source: "__kernel void tick(__global float* a) { a[get_global_id(0)] += 1.0f; }"
                    .into(),
            },
        );
        assert!(matches!(r.body, ApiReply::BuildLog { ok: true, .. }));
        let r = call_raw(
            &mut conn,
            9101,
            0,
            ApiCall::CreateBuffer {
                device: 0,
                buffer: BufferId::new(1),
                size: 16,
            },
        );
        assert_eq!(r.body, ApiReply::Ack);
        let r = call_raw(
            &mut conn,
            9102,
            0,
            ApiCall::CreateKernel {
                device: 0,
                kernel: KernelId::new(1),
                program: ProgramId::new(1),
                name: "tick".into(),
            },
        );
        assert_eq!(r.body, ApiReply::KernelInfo { arity: 1 });
        let launch = ApiCall::LaunchKernel {
            device: 0,
            kernel: KernelId::new(1),
            args: vec![WireArg::Buffer(BufferId::new(1))],
            range: WireNdRange {
                work_dim: 1,
                global: [4, 1, 1],
                local: [1, 1, 1],
            },
            cost: WireCost {
                flops: 4.0,
                bytes_read: 16.0,
                bytes_written: 16.0,
                uniform: true,
                streaming: false,
            },
            fidelity: Fidelity::Full,
            shared: false,
        };
        let first = call_raw(&mut conn, 9103, 0, launch.clone());
        assert!(matches!(first.body, ApiReply::LaunchDone { .. }));
        assert!(!first.duplicate);
        let retry = call_raw(&mut conn, 9103, 1, launch);
        assert!(retry.duplicate, "retried launch served from journal");
        assert_eq!(retry.body, first.body, "cached reply is replayed verbatim");
        // The profile is the ground truth: exactly one execution happened.
        let r = call_raw(&mut conn, 9104, 0, ApiCall::QueryProfile);
        match r.body {
            ApiReply::Profile { entries } => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].kernel, "tick");
                assert_eq!(entries[0].runs, 1, "journal prevented a double run");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        handle.stop();
    }

    #[test]
    fn journal_evicts_oldest_entries_beyond_cap() {
        let devices = Vec::new();
        let mut state = NodeState {
            devices,
            programs: HashMap::new(),
            kernels: HashMap::new(),
            registry: KernelRegistry::new(),
            launches_by_user: HashMap::new(),
            draining: false,
            journal: HashMap::new(),
            journal_order: VecDeque::new(),
        };
        for i in 0..(JOURNAL_CAP as u64 + 10) {
            state.journal_record(&Response {
                id: RequestId::new(i + 1),
                completed_at_nanos: 0,
                body: ApiReply::Ack,
                duplicate: false,
                spans: Vec::new(),
            });
        }
        assert_eq!(state.journal.len(), JOURNAL_CAP);
        assert_eq!(state.journal_order.len(), JOURNAL_CAP);
        assert!(
            !state.journal.contains_key(&RequestId::new(1)),
            "oldest evicted"
        );
        assert!(state
            .journal
            .contains_key(&RequestId::new(JOURNAL_CAP as u64 + 10)));
    }

    #[test]
    fn push_buffer_ships_bytes_directly_to_the_peer() {
        let fabric = Fabric::new(Clock::new(), LinkModel::gigabit_ethernet());
        let config = ClusterConfig::gpu_cluster(2);
        let h0 = NmpHandle::spawn(&fabric, &config.nodes[0], KernelRegistry::new()).unwrap();
        let h1 = NmpHandle::spawn(&fabric, &config.nodes[1], KernelRegistry::new()).unwrap();
        let mut c0 = fabric.connect("10.0.0.1", &config.nodes[0].addr).unwrap();
        let mut c1 = fabric.connect("10.0.0.1", &config.nodes[1].addr).unwrap();
        let buf = BufferId::new(1);
        for conn in [&mut c0, &mut c1] {
            let (r, _) = call(
                conn,
                1,
                ApiCall::CreateBuffer {
                    device: 0,
                    buffer: buf,
                    size: 4,
                },
            );
            assert_eq!(r, ApiReply::Ack);
        }
        let (r, _) = call(
            &mut c0,
            1,
            ApiCall::WriteBuffer {
                device: 0,
                buffer: buf,
                offset: 0,
                data: Bytes::from(vec![11u8, 22, 33, 44]),
            },
        );
        assert_eq!(r, ApiReply::Ack);
        let before = fabric.stats();
        let (r, t) = call(
            &mut c0,
            1,
            ApiCall::PushBufferTo {
                device: 0,
                buffer: buf,
                peer_addr: config.nodes[1].data_addr(),
                peer_device: 0,
                peer_buffer: buf,
                offset: 0,
                len: 4,
                version: 1,
                epoch: 0,
                modeled: false,
            },
        );
        assert_eq!(r, ApiReply::Ack);
        assert!(t > SimTime::ZERO, "the hop costs virtual time");
        assert!(
            fabric.stats().frames > before.frames,
            "bytes crossed a real node-to-node link"
        );
        let (r, _) = call(
            &mut c1,
            1,
            ApiCall::ReadBuffer {
                device: 0,
                buffer: buf,
                offset: 0,
                len: 4,
            },
        );
        match r {
            ApiReply::Data { bytes } => assert_eq!(bytes.as_ref(), &[11u8, 22, 33, 44]),
            other => panic!("unexpected reply {other:?}"),
        }
        h0.stop();
        h1.stop();
    }

    #[test]
    fn pull_buffer_fetches_modeled_bytes_from_the_peer() {
        let fabric = Fabric::new(Clock::new(), LinkModel::gigabit_ethernet());
        let config = ClusterConfig::gpu_cluster(2);
        let h0 = NmpHandle::spawn(&fabric, &config.nodes[0], KernelRegistry::new()).unwrap();
        let h1 = NmpHandle::spawn(&fabric, &config.nodes[1], KernelRegistry::new()).unwrap();
        let mut c0 = fabric.connect("10.0.0.1", &config.nodes[0].addr).unwrap();
        let mut c1 = fabric.connect("10.0.0.1", &config.nodes[1].addr).unwrap();
        let buf = BufferId::new(1);
        for conn in [&mut c0, &mut c1] {
            let (r, _) = call(
                conn,
                1,
                ApiCall::CreateBufferModeled {
                    device: 0,
                    buffer: buf,
                    size: 1 << 20,
                },
            );
            assert_eq!(r, ApiReply::Ack);
        }
        // Node 0 pulls a megabyte from node 1; the descriptor frame is
        // tiny but the return hop is charged at full virtual size.
        let (r, t) = call(
            &mut c0,
            1,
            ApiCall::PullBufferFrom {
                device: 0,
                buffer: buf,
                peer_addr: config.nodes[1].data_addr(),
                peer_device: 0,
                peer_buffer: buf,
                offset: 0,
                len: 1 << 20,
                version: 3,
                epoch: 0,
                modeled: true,
            },
        );
        assert_eq!(r, ApiReply::Ack);
        let floor = LinkModel::gigabit_ethernet().transmit_time(1 << 20);
        assert!(
            t >= SimTime::ZERO + floor,
            "modeled pull charged below the link floor: {t}"
        );
        h0.stop();
        h1.stop();
    }

    #[test]
    fn self_dial_peer_transfer_completes_over_loopback() {
        // Single-node platforms push between co-located devices by
        // dialling their own data listener: the serve thread must release
        // the node-state lock around the hop or this deadlocks.
        let (_f, handle, mut conn) = launch_one_node();
        let buf = BufferId::new(1);
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::CreateBuffer {
                device: 0,
                buffer: buf,
                size: 4,
            },
        );
        assert_eq!(r, ApiReply::Ack);
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::WriteBuffer {
                device: 0,
                buffer: buf,
                offset: 0,
                data: Bytes::from(vec![9u8, 9, 9, 9]),
            },
        );
        assert_eq!(r, ApiReply::Ack);
        let data_addr = ClusterConfig::gpu_cluster(1).nodes[0].data_addr();
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::PushBufferTo {
                device: 0,
                buffer: buf,
                peer_addr: data_addr,
                peer_device: 0,
                peer_buffer: buf,
                offset: 0,
                len: 4,
                version: 1,
                epoch: 0,
                modeled: false,
            },
        );
        assert_eq!(r, ApiReply::Ack);
        handle.stop();
    }

    #[test]
    fn unreachable_peer_fails_the_transfer_cleanly() {
        let (_f, handle, mut conn) = launch_one_node();
        let buf = BufferId::new(1);
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::CreateBuffer {
                device: 0,
                buffer: buf,
                size: 4,
            },
        );
        assert_eq!(r, ApiReply::Ack);
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::PushBufferTo {
                device: 0,
                buffer: buf,
                peer_addr: "10.9.9.9:7101".to_string(),
                peer_device: 0,
                peer_buffer: buf,
                offset: 0,
                len: 4,
                version: 1,
                epoch: 0,
                modeled: false,
            },
        );
        assert!(
            matches!(r, ApiReply::Error { code, .. } if code == status::DEVICE_NOT_AVAILABLE),
            "unexpected reply {r:?}"
        );
        // The node survives the failed transfer and keeps serving.
        let (r, _) = call(&mut conn, 1, ApiCall::Ping);
        assert!(matches!(r, ApiReply::Pong { .. }));
        handle.stop();
    }
}
