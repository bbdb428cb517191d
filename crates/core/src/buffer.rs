//! `cl_mem` buffers with residency-aware coherence.
//!
//! A HaoCL buffer keeps replicas on whichever device nodes have used it,
//! plus a *host shadow copy* — which is just another replica in the
//! [`crate::residency::ResidencyTracker`], refreshed lazily only when a
//! host read or a push actually needs it. Coherence is single-writer and
//! monotonically versioned: a kernel launch bumps the buffer version and
//! makes the launching device the sole current replica.
//!
//! Migrating the newest contents to another device prefers a **direct
//! peer transfer**: the host sends one `PushBufferTo` command to the
//! owning node, which ships the bytes straight to the target node's data
//! listener — one hop instead of the pull-to-shadow-then-push two-hop
//! relay. The host still packages and delivers every *command* (§III-A of
//! the paper: the host node "is responsible for the message packaging and
//! message delivering across the entire cluster"); only bulk data moves
//! peer-to-peer. If a peer transfer fails (chaos, dead node), the classic
//! host relay is the fallback.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use haocl_cluster::MembershipState;
use haocl_obs::{names, Span};
use haocl_proto::ids::{BufferId, NodeId};
use haocl_proto::messages::{ApiCall, ApiReply};
use haocl_sim::Phase;

use crate::context::Context;
use crate::error::{Error, Status};
use crate::event::Event;
use crate::platform::{Device, PlatformInner};
use crate::residency::{Location, ResidencyTracker};

/// Buffer access flags (`CL_MEM_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFlags(u32);

impl MemFlags {
    /// Kernels may read and write (`CL_MEM_READ_WRITE`).
    pub const READ_WRITE: MemFlags = MemFlags(1);
    /// Kernels only read (`CL_MEM_READ_ONLY`) — replicas stay valid
    /// across launches, saving re-transfers.
    pub const READ_ONLY: MemFlags = MemFlags(4);
    /// Kernels only write (`CL_MEM_WRITE_ONLY`).
    pub const WRITE_ONLY: MemFlags = MemFlags(2);

    /// Whether kernels may write through this buffer.
    pub fn kernel_writable(self) -> bool {
        self != MemFlags::READ_ONLY
    }
}

/// What a host-side transfer carries: real bytes or a modeled length.
enum HostData<'a> {
    /// Real contents to write.
    Real(&'a [u8]),
    /// Timing-only transfer of this many bytes.
    Modeled(u64),
}

impl HostData<'_> {
    fn len(&self) -> u64 {
        match self {
            HostData::Real(d) => d.len() as u64,
            HostData::Modeled(len) => *len,
        }
    }

    fn is_modeled(&self) -> bool {
        matches!(self, HostData::Modeled(_))
    }
}

#[derive(Debug)]
struct BufState {
    /// Host copy of the buffer contents (empty for modeled buffers).
    shadow: Vec<u8>,
    /// Versioned replica map: who holds which version where.
    residency: ResidencyTracker,
    /// Per-logical-node *wire ids*: the id each node knows this buffer
    /// by. Distinct per node so that two logical nodes failed over onto
    /// one physical NMP keep disjoint buffer slots — replaying one
    /// node's journal can neither collide with nor clobber the other
    /// node's live replica.
    wire: BTreeMap<NodeId, BufferId>,
}

pub(crate) struct BufferInner {
    platform: Arc<PlatformInner>,
    pub(crate) id: BufferId,
    size: u64,
    flags: MemFlags,
    /// Modeled buffers carry no bytes anywhere: transfers and launches
    /// charge virtual time only (paper-scale benchmarking).
    modeled: bool,
    state: Mutex<BufState>,
    /// In-flight kernel launches (on the pipelined backbone) that may
    /// write this buffer. Settled before any dependent operation looks
    /// at the coherence state.
    pending_writers: Mutex<Vec<Event>>,
    /// Tenant memory-quota charge, released when the last handle drops.
    /// `None` for buffers created outside the serving plane.
    charge: Mutex<Option<TenantCharge>>,
}

/// How [`BufferInner::evacuate_node`] rescued a buffer off a draining
/// node (byte counts feed the platform's drain report).
pub(crate) enum EvacOutcome {
    /// The newest copy was already safe elsewhere; replicas on the node
    /// were merely evicted (or the buffer never touched the node).
    Untouched,
    /// Newest bytes re-homed on a surviving device over the peer data
    /// plane.
    PeerMigrated(u64),
    /// Newest bytes pulled back into the host shadow (relay fallback).
    HostRelayed(u64),
}

/// A device-memory charge against a tenant's quota ledger. Held by the
/// buffer it paid for; dropping the buffer replenishes the quota and
/// refreshes the per-tenant memory gauge.
pub(crate) struct TenantCharge {
    pub(crate) ledger: Arc<haocl_sched::QuotaLedger>,
    pub(crate) tenant: haocl_proto::ids::TenantId,
    pub(crate) tenant_name: String,
    pub(crate) bytes: u64,
}

/// An OpenCL buffer object.
#[derive(Clone)]
pub struct Buffer {
    pub(crate) inner: Arc<BufferInner>,
}

impl Buffer {
    /// Creates a buffer of `size` bytes in `context` (`clCreateBuffer`).
    ///
    /// The host shadow is zero-filled; device allocations happen lazily
    /// on first use. Creation charges the `DataCreate` phase.
    ///
    /// # Errors
    ///
    /// [`Status::InvalidBufferSize`] for a zero-sized buffer.
    pub fn new(context: &Context, flags: MemFlags, size: u64) -> Result<Self, Error> {
        Self::with_mode(context, flags, size, false)
    }

    /// Creates a *modeled* buffer: no bytes are materialized on the host
    /// or any device; transfers and launches charge virtual time only.
    ///
    /// Use together with [`crate::Fidelity::Modeled`] launches and the
    /// `enqueue_*_buffer_modeled` queue operations for paper-scale
    /// benchmarking.
    ///
    /// # Errors
    ///
    /// [`Status::InvalidBufferSize`] for a zero-sized buffer.
    pub fn new_modeled(context: &Context, flags: MemFlags, size: u64) -> Result<Self, Error> {
        Self::with_mode(context, flags, size, true)
    }

    fn with_mode(
        context: &Context,
        flags: MemFlags,
        size: u64,
        modeled: bool,
    ) -> Result<Self, Error> {
        if size == 0 {
            return Err(Error::api(
                Status::InvalidBufferSize,
                "buffer size must be nonzero",
            ));
        }
        let platform = Arc::clone(&context.platform);
        let id = BufferId::new(platform.ids.next());
        let inner = Arc::new(BufferInner {
            platform,
            id,
            size,
            flags,
            modeled,
            state: Mutex::new(BufState {
                shadow: if modeled {
                    Vec::new()
                } else {
                    vec![0; size as usize]
                },
                residency: ResidencyTracker::new(),
                wire: BTreeMap::new(),
            }),
            pending_writers: Mutex::new(Vec::new()),
            charge: Mutex::new(None),
        });
        // Membership changes (node drains) walk every live buffer to
        // migrate stranded replicas, so the platform keeps a weak index.
        inner.platform.register_buffer(&inner);
        Ok(Buffer { inner })
    }

    /// Attaches a tenant quota charge to be released when the last
    /// handle drops (the serving plane charges before creating).
    pub(crate) fn attach_charge(&self, charge: TenantCharge) {
        *self.inner.charge.lock() = Some(charge);
    }

    /// Whether this is a modeled (timing-only) buffer.
    pub fn is_modeled(&self) -> bool {
        self.inner.modeled
    }

    /// Buffer size in bytes.
    pub fn size(&self) -> u64 {
        self.inner.size
    }

    /// The access flags.
    pub fn flags(&self) -> MemFlags {
        self.inner.flags
    }

    /// The cluster-unique buffer handle.
    pub fn id(&self) -> BufferId {
        self.inner.id
    }
}

impl std::fmt::Debug for Buffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Buffer({}, {} bytes)", self.inner.id, self.inner.size)
    }
}

impl Drop for BufferInner {
    /// `clReleaseMemObject`: frees the device-side allocations when the
    /// last handle drops. Best-effort — destructors never fail — but a
    /// release that cannot reach its node (dead link, vanished device)
    /// counts into `haocl_buffer_release_failed_total` instead of
    /// disappearing silently. Residency state is cleared either way.
    fn drop(&mut self) {
        let st = self.state.get_mut();
        let host = self.platform.host();
        for dev in st.residency.allocated_devices() {
            let info = host.devices().get(dev).cloned();
            let released = match &info {
                // A voluntarily departed node destroyed its allocations
                // by design when it retired — nothing left to release,
                // and nothing failed.
                Some(info)
                    if host.node_membership(info.node) == Some(MembershipState::Departed) =>
                {
                    true
                }
                Some(info) if host.node_is_live(info.node) => {
                    let wire = st.wire.get(&info.node).copied().unwrap_or(self.id);
                    matches!(
                        host.call(
                            info.node,
                            ApiCall::ReleaseBuffer {
                                device: info.device,
                                buffer: wire,
                            },
                        ),
                        Ok(outcome) if matches!(outcome.reply, ApiReply::Ack)
                    )
                }
                _ => false,
            };
            if !released {
                let node = info
                    .map(|i| i.node_name)
                    .unwrap_or_else(|| format!("device{dev}"));
                self.platform.obs.metrics.inc_counter(
                    names::BUFFER_RELEASE_FAILED,
                    &[("node", &node)],
                    1,
                );
            }
        }
        st.residency.clear();
        if let Some(charge) = self.charge.get_mut().take() {
            charge.ledger.release(charge.tenant, charge.bytes);
            self.platform.obs.metrics.set_gauge(
                names::TENANT_MEM_BYTES,
                &[("tenant", &charge.tenant_name)],
                charge.ledger.used(charge.tenant) as i64,
            );
        }
    }
}

impl BufferInner {
    /// Registers an in-flight launch that may write this buffer.
    pub(crate) fn add_pending_writer(&self, event: Event) {
        self.pending_writers.lock().push(event);
    }

    /// Resolves every in-flight launch targeting this buffer so its
    /// coherence state reflects them before a dependent operation reads
    /// it. A *failed* launch wrote nothing — its error stays on the
    /// launch's own [`Event`] and does not poison the buffer.
    fn settle_pending(&self) {
        let drained: Vec<Event> = std::mem::take(&mut *self.pending_writers.lock());
        for event in drained {
            let _ = event.wait();
        }
    }

    /// The live routing epoch of the node hosting global device `dev` —
    /// `u32::MAX` (never trusted) for a vanished device or a node that
    /// has departed the cluster: even a replayable lineage dies with a
    /// retirement, because retirement clears the journal.
    fn live_epoch(&self, dev: usize) -> u32 {
        let host = self.platform.host();
        match host.devices().get(dev) {
            Some(info) if host.node_membership(info.node) != Some(MembershipState::Departed) => {
                host.node_epoch(info.node)
            }
            _ => u32::MAX,
        }
    }

    /// The id `node` knows this buffer by, minting one on first use.
    /// The first node reuses the buffer's own id (so single-node
    /// platforms stay transparent); every further node gets a fresh
    /// cluster-unique id from the same allocator.
    fn wire_id_locked(&self, st: &mut BufState, node: NodeId) -> BufferId {
        if let Some(&id) = st.wire.get(&node) {
            return id;
        }
        let id = if st.wire.is_empty() {
            self.id
        } else {
            BufferId::new(self.platform.ids.next())
        };
        st.wire.insert(node, id);
        id
    }

    /// The wire id for `node` (for callers outside this module that
    /// compose their own node-bound calls, e.g. copies and kernel args).
    pub(crate) fn wire_id_on(&self, node: NodeId) -> BufferId {
        self.wire_id_locked(&mut self.state.lock(), node)
    }

    /// Drops residency entries invalidated by node failovers or
    /// departures.
    fn revalidate(&self, st: &mut BufState) {
        st.residency.revalidate(|dev| self.live_epoch(dev));
    }

    fn check_mode(&self, op_modeled: bool, which: &str) -> Result<(), Error> {
        if self.modeled && !op_modeled {
            Err(Error::api(
                Status::InvalidOperation,
                format!("buffer is modeled; use enqueue_{which}_buffer_modeled"),
            ))
        } else if !self.modeled && op_modeled {
            Err(Error::api(
                Status::InvalidOperation,
                format!("buffer carries real data; use enqueue_{which}_buffer"),
            ))
        } else {
            Ok(())
        }
    }

    fn check_bounds(&self, offset: u64, len: u64, which: &str) -> Result<u64, Error> {
        offset
            .checked_add(len)
            .filter(|&e| e <= self.size)
            .ok_or_else(|| {
                Error::api(
                    Status::InvalidValue,
                    format!(
                        "{which} [{offset}, {offset}+{len}) outside buffer of {} bytes",
                        self.size
                    ),
                )
            })
    }

    /// Makes `device` hold the newest contents (allocating and
    /// transferring as needed). Used before reads by kernels.
    pub(crate) fn make_current_on(&self, device: &Device) -> Result<(), Error> {
        self.settle_pending();
        let mut st = self.state.lock();
        self.revalidate(&mut st);
        let epoch = self.live_epoch(device.index);
        if st.residency.is_current(device.index, epoch) {
            return Ok(());
        }
        self.allocate_locked(&mut st, device)?;
        // Another device owns the newest copy and the shadow is stale:
        // ship the bytes node-to-node in one hop, leaving the shadow
        // untouched (it refreshes lazily if a host read ever needs it).
        if !st.residency.host_current() {
            if let Some(owner) = st.residency.owner_device() {
                if owner != device.index
                    && self.platform.peer_transfers_enabled()
                    && self.peer_push_locked(&mut st, owner, device, epoch).is_ok()
                {
                    return Ok(());
                }
            }
        }
        // Host relay: refresh the shadow from the owner (if stale), then
        // push the whole contents — the fallback when no peer owns the
        // data or a peer transfer failed mid-chaos.
        self.refresh_shadow_locked(&mut st)?;
        let wire = self.wire_id_locked(&mut st, device.node());
        let call = if self.modeled {
            ApiCall::WriteBufferModeled {
                device: device.device_index(),
                buffer: wire,
                offset: 0,
                len: self.size,
            }
        } else {
            ApiCall::WriteBuffer {
                device: device.device_index(),
                buffer: wire,
                offset: 0,
                data: Bytes::copy_from_slice(&st.shadow),
            }
        };
        self.platform
            .call_traced(device.node(), call, Phase::DataTransfer)?;
        self.platform
            .count_dataplane(names::PATH_HOST_RELAY, self.size);
        // A full host push is journaled verbatim: the replica's lineage
        // is replayable again whatever fed it before.
        st.residency
            .record_sync(Location::Device(device.index), epoch, true);
        Ok(())
    }

    /// Direct NMP→NMP migration of the whole buffer from global device
    /// `owner` to `target`. The host only sends the command; the owning
    /// node ships the bytes straight to the target's data listener.
    fn peer_push_locked(
        &self,
        st: &mut BufState,
        owner: usize,
        target: &Device,
        target_epoch: u32,
    ) -> Result<(), Error> {
        let host = self.platform.host();
        let src = host
            .devices()
            .get(owner)
            .cloned()
            .ok_or_else(|| Error::Transport(format!("device {owner} vanished")))?;
        let peer_addr = host
            .node_data_addr(target.node())
            .ok_or_else(|| Error::Transport(format!("no data address for {}", target.node())))?;
        let started = self.platform.clock().now();
        let version = st.residency.newest();
        let src_wire = self.wire_id_locked(st, src.node);
        let target_wire = self.wire_id_locked(st, target.node());
        let outcome = self.platform.call_traced(
            src.node,
            ApiCall::PushBufferTo {
                device: src.device,
                buffer: src_wire,
                peer_addr,
                peer_device: target.device_index(),
                peer_buffer: target_wire,
                offset: 0,
                len: self.size,
                version,
                epoch: target_epoch,
                modeled: self.modeled,
            },
            Phase::DataTransfer,
        )?;
        if !matches!(outcome.reply, ApiReply::Ack) {
            return Err(Error::Transport(format!(
                "PushBufferTo answered with {:?}",
                outcome.reply
            )));
        }
        // Peer bytes are only re-pulled on failover replay and the pull
        // can race the failure: taint the replica so revalidate() never
        // trusts it across an epoch bump.
        st.residency
            .record_sync(Location::Device(target.index), target_epoch, false);
        self.platform.count_dataplane(names::PATH_PEER, self.size);
        self.platform
            .obs
            .metrics
            .inc_counter(names::SHADOW_REFRESHES_AVOIDED, &[], 1);
        // Companion entry in the *target's* journal: the pushed bytes are
        // not host-journaled traffic, so a failed-over target replays
        // this pull to reconstruct them from the source node.
        if let Some(src_data_addr) = host.node_data_addr(src.node) {
            host.journal_companion(
                target.node(),
                ApiCall::PullBufferFrom {
                    device: target.device_index(),
                    buffer: target_wire,
                    peer_addr: src_data_addr,
                    peer_device: src.device,
                    peer_buffer: src_wire,
                    offset: 0,
                    len: self.size,
                    version,
                    epoch: target_epoch,
                    modeled: self.modeled,
                },
            );
        }
        if self.platform.obs.enabled() {
            let recorder = &self.platform.obs.recorder;
            let trace = recorder.new_trace();
            recorder.record(
                Span::new(
                    recorder.next_span_id(),
                    trace,
                    None,
                    format!("fabric.peer_transfer {}", self.id),
                    Phase::DataTransfer,
                    src.node_name.clone(),
                    started,
                    self.platform.clock().now(),
                )
                .attr("bytes", self.size.to_string())
                .attr("version", version.to_string())
                .attr("to", target.node_name()),
            );
        }
        Ok(())
    }

    /// Records that a kernel on `device` may have written the buffer.
    pub(crate) fn note_kernel_write(&self, device: &Device) {
        if !self.flags.kernel_writable() {
            return;
        }
        self.note_device_write_full(device);
    }

    pub(crate) fn note_device_write_full(&self, device: &Device) {
        let epoch = self.live_epoch(device.index);
        let mut st = self.state.lock();
        // The launch itself is journaled, but it transforms whatever the
        // device held: the result is only replayable if the input was.
        let replayable = st.residency.replayable_at(device.index);
        st.residency
            .record_write(Location::Device(device.index), epoch, replayable);
    }

    /// Host write (`clEnqueueWriteBuffer`): updates the shadow and pushes
    /// the change to `device`.
    pub(crate) fn host_write(
        &self,
        device: &Device,
        offset: u64,
        data: &[u8],
    ) -> Result<(), Error> {
        self.host_write_impl(device, offset, HostData::Real(data))
    }

    /// Modeled host write: charges the network + PCIe transfer for `len`
    /// bytes without carrying data.
    pub(crate) fn host_write_modeled(
        &self,
        device: &Device,
        offset: u64,
        len: u64,
    ) -> Result<(), Error> {
        self.host_write_impl(device, offset, HostData::Modeled(len))
    }

    fn host_write_impl(
        &self,
        device: &Device,
        offset: u64,
        data: HostData<'_>,
    ) -> Result<(), Error> {
        self.check_mode(data.is_modeled(), "write")?;
        let end = self.check_bounds(offset, data.len(), "write")?;
        self.settle_pending();
        let mut st = self.state.lock();
        self.revalidate(&mut st);
        let epoch = self.live_epoch(device.index);
        // A write over the whole buffer leaves no old byte standing, so
        // only a partial write pulls a stale shadow first.
        let whole = offset == 0 && end == self.size;
        if let HostData::Real(bytes) = data {
            if !whole {
                self.refresh_shadow_locked(&mut st)?;
            } else if !st.residency.host_current() {
                self.platform
                    .obs
                    .metrics
                    .inc_counter(names::SHADOW_REFRESHES_AVOIDED, &[], 1);
            }
            st.shadow[offset as usize..end as usize].copy_from_slice(bytes);
        }
        self.allocate_locked(&mut st, device)?;
        // If the device already had the newest pre-write contents, a
        // partial push keeps it equal; otherwise push the whole contents.
        // A modeled buffer with a single allocation also stays partial —
        // nothing else can hold a diverging copy.
        let was_current = st.residency.is_current(device.index, epoch);
        // A partial push layers journaled bytes over the device's prior
        // content, so the taint carries; a push of the whole buffer
        // resets the lineage.
        let replayable = if was_current && !whole {
            st.residency.replayable_at(device.index)
        } else {
            true
        };
        st.residency.record_write(Location::Host, 0, true);
        let wire = self.wire_id_locked(&mut st, device.node());
        let (call, pushed) = match data {
            HostData::Real(bytes) => {
                let (push_offset, payload) = if was_current {
                    (offset, Bytes::copy_from_slice(bytes))
                } else {
                    (0, Bytes::copy_from_slice(&st.shadow))
                };
                let pushed = payload.len() as u64;
                (
                    ApiCall::WriteBuffer {
                        device: device.device_index(),
                        buffer: wire,
                        offset: push_offset,
                        data: payload,
                    },
                    pushed,
                )
            }
            HostData::Modeled(len) => {
                let partial = was_current || st.residency.allocated_count() == 1;
                let (push_offset, push_len) = if partial {
                    (offset, len)
                } else {
                    (0, self.size)
                };
                (
                    ApiCall::WriteBufferModeled {
                        device: device.device_index(),
                        buffer: wire,
                        offset: push_offset,
                        len: push_len,
                    },
                    push_len,
                )
            }
        };
        self.platform
            .call_traced(device.node(), call, Phase::DataTransfer)?;
        self.platform
            .count_dataplane(names::PATH_HOST_RELAY, pushed);
        st.residency
            .record_sync(Location::Device(device.index), epoch, replayable);
        Ok(())
    }

    /// Host read (`clEnqueueReadBuffer`): pulls from the owning device if
    /// the shadow is stale, then copies out.
    pub(crate) fn host_read(&self, offset: u64, out: &mut [u8]) -> Result<(), Error> {
        let len = out.len() as u64;
        self.host_read_impl(offset, len, Some(out))
    }

    /// Modeled host read: charges the pull from the owning device (if the
    /// shadow is stale) without carrying data.
    pub(crate) fn host_read_modeled(&self, offset: u64, len: u64) -> Result<(), Error> {
        self.host_read_impl(offset, len, None)
    }

    fn host_read_impl(&self, offset: u64, len: u64, out: Option<&mut [u8]>) -> Result<(), Error> {
        self.check_mode(out.is_none(), "read")?;
        let end = self.check_bounds(offset, len, "read")?;
        self.settle_pending();
        let mut st = self.state.lock();
        self.revalidate(&mut st);
        if st.residency.host_current() {
            if let Some(out) = out {
                out.copy_from_slice(&st.shadow[offset as usize..end as usize]);
            }
            return Ok(());
        }
        // Ranged pull from the owning device: only the requested bytes
        // cross the backbone (real OpenCL reads are ranged). The shadow
        // range is refreshed opportunistically but stays stale overall.
        let owner = self.owner_device(&st)?;
        let wire = self.wire_id_locked(&mut st, owner.node);
        let call = if out.is_some() {
            ApiCall::ReadBuffer {
                device: owner.device,
                buffer: wire,
                offset,
                len,
            }
        } else {
            ApiCall::ReadBufferModeled {
                device: owner.device,
                buffer: wire,
                offset,
                len,
            }
        };
        let outcome = self
            .platform
            .call_traced(owner.node, call, Phase::DataTransfer)?;
        match (outcome.reply, out) {
            (ApiReply::Data { bytes }, Some(out)) => {
                out.copy_from_slice(&bytes);
                st.shadow[offset as usize..end as usize].copy_from_slice(&bytes);
            }
            (ApiReply::DataModeled { .. }, None) => {}
            (other, _) => {
                return Err(Error::Transport(format!(
                    "ReadBuffer answered with {other:?}"
                )));
            }
        }
        self.platform.count_dataplane(names::PATH_HOST_RELAY, len);
        Ok(())
    }

    fn owner_device(&self, st: &BufState) -> Result<haocl_cluster::RemoteDevice, Error> {
        let owner = st
            .residency
            .owner_device()
            .expect("a stale shadow implies a current device");
        self.platform
            .host()
            .devices()
            .get(owner)
            .cloned()
            .ok_or_else(|| Error::Transport(format!("device {owner} vanished")))
    }

    /// Rescues this buffer from a draining node. If the newest contents
    /// live *only* on `node`, they are moved out — peer-pushed to
    /// `target` (a device on a surviving node) unless `force_relay`, in
    /// which case they are pulled back into the host shadow in one hop.
    /// Either way, every replica and allocation the buffer held on the
    /// node is evicted, so nothing ever reads from the departed epoch
    /// and the eventual drop has no dead allocation to release.
    pub(crate) fn evacuate_node(
        &self,
        node: NodeId,
        target: Option<&Device>,
        force_relay: bool,
    ) -> Result<EvacOutcome, Error> {
        self.settle_pending();
        let host = self.platform.host();
        let leaving: Vec<usize> = host
            .devices()
            .iter()
            .enumerate()
            .filter(|(_, d)| d.node == node)
            .map(|(i, _)| i)
            .collect();
        let mut st = self.state.lock();
        self.revalidate(&mut st);
        if leaving.iter().all(|&dev| !st.residency.is_allocated(dev)) {
            return Ok(EvacOutcome::Untouched);
        }
        // The newest bytes are endangered iff no current copy survives
        // off the node: the shadow is stale and every current replica
        // sits on a leaving device.
        let endangered = !st.residency.host_current()
            && st
                .residency
                .owner_device()
                .is_some_and(|o| leaving.contains(&o))
            && !(0..host.device_count()).any(|dev| {
                !leaving.contains(&dev) && st.residency.is_current(dev, self.live_epoch(dev))
            });
        let mut outcome = EvacOutcome::Untouched;
        if endangered {
            let owner = st
                .residency
                .owner_device()
                .expect("endangered implies an owner");
            let mut rescued = false;
            if !force_relay && self.platform.peer_transfers_enabled() {
                if let Some(target) = target {
                    let epoch = self.live_epoch(target.index);
                    if self.allocate_locked(&mut st, target).is_ok()
                        && self.peer_push_locked(&mut st, owner, target, epoch).is_ok()
                    {
                        outcome = EvacOutcome::PeerMigrated(self.size);
                        rescued = true;
                    }
                }
            }
            if !rescued {
                self.refresh_shadow_locked(&mut st)?;
                outcome = EvacOutcome::HostRelayed(self.size);
            }
        }
        for &dev in &leaving {
            st.residency.evict_device(dev);
        }
        Ok(outcome)
    }

    /// Whether `device` holds the newest contents (after
    /// [`BufferInner::make_current_on`] it does). Used by coherence tests.
    #[cfg(test)]
    pub(crate) fn is_current_on(&self, device: &Device) -> bool {
        self.state
            .lock()
            .residency
            .is_current(device.index, self.live_epoch(device.index))
    }

    /// Bytes of this buffer that are current on global device `dev` —
    /// the whole size or nothing. Feeds locality-aware placement.
    pub(crate) fn resident_bytes_on(&self, dev: usize) -> u64 {
        let st = self.state.lock();
        if st.residency.is_current(dev, self.live_epoch(dev)) {
            self.size
        } else {
            0
        }
    }

    fn allocate_locked(&self, st: &mut BufState, device: &Device) -> Result<(), Error> {
        if st.residency.is_allocated(device.index) {
            return Ok(());
        }
        let wire = self.wire_id_locked(st, device.node());
        let call = if self.modeled {
            ApiCall::CreateBufferModeled {
                device: device.device_index(),
                buffer: wire,
                size: self.size,
            }
        } else {
            ApiCall::CreateBuffer {
                device: device.device_index(),
                buffer: wire,
                size: self.size,
            }
        };
        self.platform
            .call_traced(device.node(), call, Phase::DataCreate)?;
        st.residency.note_allocated(device.index);
        Ok(())
    }

    /// Pulls the newest contents into the shadow if stale.
    fn refresh_shadow_locked(&self, st: &mut BufState) -> Result<(), Error> {
        if st.residency.host_current() {
            return Ok(());
        }
        let info = self.owner_device(st)?;
        let wire = self.wire_id_locked(st, info.node);
        let call = if self.modeled {
            ApiCall::ReadBufferModeled {
                device: info.device,
                buffer: wire,
                offset: 0,
                len: self.size,
            }
        } else {
            ApiCall::ReadBuffer {
                device: info.device,
                buffer: wire,
                offset: 0,
                len: self.size,
            }
        };
        let outcome = self
            .platform
            .call_traced(info.node, call, Phase::DataTransfer)?;
        match outcome.reply {
            ApiReply::Data { bytes } => {
                st.shadow.copy_from_slice(&bytes);
            }
            ApiReply::DataModeled { .. } => {}
            other => {
                return Err(Error::Transport(format!(
                    "ReadBuffer answered with {other:?}"
                )));
            }
        }
        self.platform
            .count_dataplane(names::PATH_HOST_RELAY, self.size);
        st.residency.record_sync(Location::Host, 0, true);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{DeviceType, Platform};
    use haocl_proto::messages::DeviceKind;

    fn setup() -> (Platform, Context) {
        let p = Platform::local(&[DeviceKind::Gpu, DeviceKind::Gpu]).unwrap();
        let devs = p.devices(DeviceType::All);
        let ctx = Context::new(&p, &devs).unwrap();
        (p, ctx)
    }

    #[test]
    fn zero_sized_buffer_rejected() {
        let (_p, ctx) = setup();
        let err = Buffer::new(&ctx, MemFlags::READ_WRITE, 0).unwrap_err();
        assert_eq!(err.status(), Some(Status::InvalidBufferSize));
    }

    #[test]
    fn write_then_read_roundtrips_through_a_device() {
        let (_p, ctx) = setup();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 8).unwrap();
        let dev = &ctx.devices()[0];
        buf.inner.host_write(dev, 2, &[9, 8, 7]).unwrap();
        let mut out = vec![0u8; 8];
        buf.inner.host_read(0, &mut out).unwrap();
        assert_eq!(out, vec![0, 0, 9, 8, 7, 0, 0, 0]);
    }

    #[test]
    fn out_of_bounds_host_ops_rejected() {
        let (_p, ctx) = setup();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 4).unwrap();
        let dev = &ctx.devices()[0];
        assert!(buf.inner.host_write(dev, 3, &[1, 2]).is_err());
        let mut out = vec![0u8; 8];
        assert!(buf.inner.host_read(0, &mut out).is_err());
        // Overflowing offset must not wrap.
        assert!(buf.inner.host_write(dev, u64::MAX, &[1]).is_err());
    }

    #[test]
    fn kernel_write_invalidates_other_replicas() {
        let (_p, ctx) = setup();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 4).unwrap();
        let d0 = &ctx.devices()[0];
        let d1 = &ctx.devices()[1];
        buf.inner.make_current_on(d0).unwrap();
        buf.inner.make_current_on(d1).unwrap();
        assert!(buf.inner.is_current_on(d0));
        assert!(buf.inner.is_current_on(d1));
        buf.inner.note_kernel_write(d0);
        assert!(buf.inner.is_current_on(d0));
        assert!(!buf.inner.is_current_on(d1));
        // Re-making d1 current migrates the newest replica over.
        buf.inner.make_current_on(d1).unwrap();
        assert!(buf.inner.is_current_on(d1));
    }

    #[test]
    fn migrations_prefer_peer_transfers_over_the_shadow() {
        let (p, ctx) = setup();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 4).unwrap();
        let d0 = &ctx.devices()[0];
        let d1 = &ctx.devices()[1];
        buf.inner.host_write(d0, 0, &[1, 2, 3, 4]).unwrap();
        buf.inner.note_kernel_write(d0); // shadow goes stale
        buf.inner.make_current_on(d1).unwrap();
        let m = &p.obs().metrics;
        assert_eq!(
            m.counter_value(names::DATAPLANE_BYTES, &[("path", names::PATH_PEER)]),
            4,
            "the migration must travel NMP→NMP"
        );
        assert_eq!(
            m.counter_value(names::SHADOW_REFRESHES_AVOIDED, &[]),
            1,
            "the shadow must not have been refreshed"
        );
        // The host still observes the newest contents via a lazy pull.
        let mut out = vec![0u8; 4];
        buf.inner.host_read(0, &mut out).unwrap();
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn disabling_peer_transfers_restores_the_host_relay() {
        let (p, ctx) = setup();
        p.set_peer_transfers(false);
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 4).unwrap();
        let d0 = &ctx.devices()[0];
        let d1 = &ctx.devices()[1];
        buf.inner.host_write(d0, 0, &[5, 6, 7, 8]).unwrap();
        buf.inner.note_kernel_write(d0);
        buf.inner.make_current_on(d1).unwrap();
        let m = &p.obs().metrics;
        assert_eq!(
            m.counter_value(names::DATAPLANE_BYTES, &[("path", names::PATH_PEER)]),
            0
        );
        assert_eq!(m.counter_value(names::SHADOW_REFRESHES_AVOIDED, &[]), 0);
        // Relay = 4-byte pull back to the shadow + 4-byte push, plus the
        // initial 4-byte host write.
        assert_eq!(
            m.counter_value(names::DATAPLANE_BYTES, &[("path", names::PATH_HOST_RELAY)]),
            12
        );
        assert!(buf.inner.is_current_on(d1));
    }

    #[test]
    fn whole_buffer_writes_skip_the_stale_shadow_pull() {
        let (p, ctx) = setup();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 8).unwrap();
        let d0 = &ctx.devices()[0];
        let d1 = &ctx.devices()[1];
        let m = &p.obs().metrics;
        let relay = || m.counter_value(names::DATAPLANE_BYTES, &[("path", names::PATH_HOST_RELAY)]);
        let avoided = || m.counter_value(names::SHADOW_REFRESHES_AVOIDED, &[]);
        buf.inner.host_write(d0, 0, &[1; 8]).unwrap();
        // Onto the device that owns the newest copy, then onto one that
        // holds none: either way only the push crosses the host relay.
        for (dev, fill) in [(d0, 2u8), (d1, 3)] {
            buf.inner.note_kernel_write(d0); // shadow goes stale
            let (relay0, avoided0) = (relay(), avoided());
            buf.inner.host_write(dev, 0, &[fill; 8]).unwrap();
            assert_eq!(relay() - relay0, 8, "the old contents must not be pulled");
            assert_eq!(avoided() - avoided0, 1);
            assert!(buf.inner.is_current_on(dev));
            let mut out = vec![0u8; 8];
            buf.inner.host_read(0, &mut out).unwrap();
            assert_eq!(out, vec![fill; 8]);
        }
        // A whole write over a current shadow had nothing to avoid.
        buf.inner.host_write(d1, 0, &[4; 8]).unwrap();
        assert_eq!(avoided(), 2);
    }

    #[test]
    fn partial_writes_still_pull_the_stale_shadow() {
        let (p, ctx) = setup();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 8).unwrap();
        let d0 = &ctx.devices()[0];
        let m = &p.obs().metrics;
        let relay = || m.counter_value(names::DATAPLANE_BYTES, &[("path", names::PATH_HOST_RELAY)]);
        buf.inner
            .host_write(d0, 0, &[1, 2, 3, 4, 5, 6, 7, 8])
            .unwrap();
        buf.inner.note_kernel_write(d0);
        // Scribble over the stale shadow: the merged bytes can only come
        // from the device.
        buf.inner.state.lock().shadow.fill(0xEE);
        let relay0 = relay();
        buf.inner.host_write(d0, 2, &[9, 9]).unwrap();
        assert_eq!(relay() - relay0, 8 + 2, "8-byte pull, then a 2-byte push");
        assert_eq!(m.counter_value(names::SHADOW_REFRESHES_AVOIDED, &[]), 0);
        let mut out = vec![0u8; 8];
        buf.inner.host_read(0, &mut out).unwrap();
        assert_eq!(out, vec![1, 2, 9, 9, 5, 6, 7, 8]);
    }

    #[test]
    fn read_only_buffers_survive_kernel_launches() {
        let (_p, ctx) = setup();
        let buf = Buffer::new(&ctx, MemFlags::READ_ONLY, 4).unwrap();
        let d0 = &ctx.devices()[0];
        buf.inner.make_current_on(d0).unwrap();
        buf.inner.note_kernel_write(d0); // ignored for READ_ONLY
        assert!(buf.inner.is_current_on(d0));
    }

    #[test]
    fn dropping_a_buffer_frees_device_memory() {
        // The P4 model holds 8 GiB. Two 5 GiB buffers only fit if the
        // first is released when dropped.
        let (_p, ctx) = setup();
        let dev = ctx.devices()[0].clone();
        {
            let big = Buffer::new_modeled(&ctx, MemFlags::READ_WRITE, 5 << 30).unwrap();
            big.inner.make_current_on(&dev).unwrap();
        } // drop releases the device allocation
        let again = Buffer::new_modeled(&ctx, MemFlags::READ_WRITE, 5 << 30).unwrap();
        again
            .inner
            .make_current_on(&dev)
            .expect("memory must have been reclaimed");
    }

    #[test]
    fn resident_bytes_follow_the_newest_replica() {
        let (_p, ctx) = setup();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 16).unwrap();
        let d0 = &ctx.devices()[0];
        let d1 = &ctx.devices()[1];
        assert_eq!(buf.inner.resident_bytes_on(d0.index), 0);
        buf.inner.make_current_on(d0).unwrap();
        assert_eq!(buf.inner.resident_bytes_on(d0.index), 16);
        buf.inner.note_kernel_write(d1);
        assert_eq!(buf.inner.resident_bytes_on(d0.index), 0);
        assert_eq!(buf.inner.resident_bytes_on(d1.index), 16);
    }

    #[test]
    fn flags_classify_writability() {
        assert!(MemFlags::READ_WRITE.kernel_writable());
        assert!(MemFlags::WRITE_ONLY.kernel_writable());
        assert!(!MemFlags::READ_ONLY.kernel_writable());
    }
}
