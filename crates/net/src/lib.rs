//! The HaoCL communication backbone.
//!
//! The paper builds its backbone on Boost.Asio: every node runs a message
//! listener and a data listener on known `ip:port` addresses; the host
//! connects to each node from a configuration file, sends message/data
//! packages and (synchronously, on the host side) awaits responses
//! (§III-C). This crate reproduces that design in-process:
//!
//! * [`fabric`] — the "Ethernet": an address registry where nodes
//!   [`Fabric::bind`] acceptors and peers [`Fabric::connect`]. Every
//!   transmission charges the sender's NIC on a virtual-time link model
//!   (Gigabit by default), so fan-out from the host serializes exactly as
//!   it would on real hardware — this contention is what bends the
//!   paper's Fig. 2 scaling curves.
//! * [`frame`] — length-prefixed frames. Each frame crosses the fabric
//!   as one message; the module also segments frames into Ethernet-MTU
//!   chunks and reassembles chunk streams, for callers that need it.
//! * [`pool`] — recycled frame buffers behind cheaply sliceable
//!   [`PooledBytes`] views; the receiver gets a view of the sender's
//!   buffer, and the buffer returns to the pool when the last view
//!   (decoded payloads included) drops.
//! * [`chaos`] — seeded, deterministic fault injection (drops, delays,
//!   duplication, reordering, resets, crashes, partitions) installed on
//!   a fabric via [`Fabric::install_chaos`].
//! * [`error`] — connection failure taxonomy.
//!
//! # Examples
//!
//! ```
//! use haocl_net::{Fabric, LinkModel};
//! use haocl_sim::{Clock, SimTime};
//!
//! let fabric = Fabric::new(Clock::new(), LinkModel::gigabit_ethernet());
//! let listener = fabric.bind("10.0.0.2:7001")?;
//! let mut client = fabric.connect("10.0.0.1", "10.0.0.2:7001")?;
//! let mut server = listener.accept()?;
//!
//! let arrival = client.send_frame(b"hello node", SimTime::ZERO)?;
//! let (payload, at) = server.recv_frame()?;
//! assert_eq!(payload, b"hello node");
//! assert_eq!(at, arrival);
//! # Ok::<(), haocl_net::NetError>(())
//! ```

pub mod chaos;
pub mod error;
pub mod fabric;
pub mod frame;
pub mod pool;

pub use chaos::{ChaosPolicy, ChaosSpec, ChaosSummary, ChaosVerdict};
pub use error::NetError;
pub use fabric::{
    host_name_of, Conn, ConnReceiver, ConnSender, Fabric, FabricStats, LinkModel, Listener,
};
pub use pool::{BufferPool, PoolStats, PooledBytes};
