#![warn(missing_docs)]
//! # doct-kernel — the Distributed-Object/Concurrent-Thread kernel
//!
//! The substrate the paper's event facility assumes (§8): passive,
//! persistent objects; logical threads that span machine boundaries;
//! RPC and DSM invocation mechanisms; thread attributes that travel with
//! the thread; thread groups; and the three thread-location facilities of
//! §7.1 (broadcast, path-trace over thread-control blocks, multicast
//! groups).
//!
//! A [`Cluster`] is an in-process simulation of an `n`-machine Clouds-style
//! system. Every cross-node interaction is a real asynchronous message
//! over [`doct_net`], counted per [`doct_net::MessageClass`] so the
//! communication-cost claims of the paper can be measured.
//!
//! The kernel deliberately has *mechanism, not policy* for events: it can
//! queue a [`WireEvent`] at a thread's tip or an object's home node and it
//! knows the delivery points, but what handlers run — thread-based
//! chains, buddy handlers, object handlers — is the [`EventDispatcher`]
//! installed by the `doct-events` crate.
//!
//! # Example
//!
//! ```
//! use doct_kernel::{ClassBuilder, Cluster, ObjectConfig, Value};
//! use doct_net::NodeId;
//!
//! # fn main() -> Result<(), doct_kernel::KernelError> {
//! let cluster = Cluster::new(2);
//! cluster.register_class(
//!     "greeter",
//!     ClassBuilder::new("greeter")
//!         .entry("hello", |_ctx, args| {
//!             Ok(Value::Str(format!("hello {}", args.as_str().unwrap_or("?"))))
//!         })
//!         .build(),
//! );
//! // Object homed on node 1, invoked from a thread rooted on node 0:
//! // the logical thread crosses the machine boundary.
//! let obj = cluster.create_object(ObjectConfig::new("greeter", NodeId(1)))?;
//! let handle = cluster.spawn(0, obj, "hello", "world")?;
//! assert_eq!(handle.join()?, Value::Str("hello world".into()));
//! # Ok(())
//! # }
//! ```

mod activation;
mod attributes;
mod cluster;
mod config;
mod ctx;
mod error;
mod event;
mod group;
mod ids;
mod location_cache;
mod mailbox;
mod message;
mod node;
mod object;
mod shard_table;
mod tcb;
mod value;
mod wire;

pub use activation::{Activation, ActivationInner, Frame, SleepOutcome, SyncWait};
pub use attributes::{Extension, ThreadAttributes, TimerSpec};
pub use cluster::{Cluster, ClusterBuilder, ObjectImage, SpawnOptions, ThreadHandle};
pub use config::{
    FabricChoice, InvocationMode, KernelConfig, LocatorStrategy, ObjectEventExecution,
};
pub use ctx::{AsyncInvocation, Ctx};
pub use error::KernelError;
pub use event::{
    DefaultDispatcher, DeliveryStatus, EventDispatcher, EventName, Lane, RaiseTarget, SystemEvent,
    ThreadDisposition, WireEvent,
};
pub use group::GroupRegistry;
pub use ids::{ObjectId, ThreadGroupId, ThreadId};
pub use location_cache::{LocationCache, LocationCacheConfig};
pub use mailbox::{Admission, Mailbox, MailboxConfig};
pub use message::{KernelMessage, ReceiptVerdict};
pub use node::{DeliverySummary, IoHub, KernelStats, NodeKernel, RaiseTicket, TimerCmd};
pub use object::{
    ClassBuilder, ClassRegistry, ObjectBehavior, ObjectConfig, ObjectDirectory, ObjectRecord,
};
pub use shard_table::{shard_of, Insert, ShardedTable, SHARDS};
pub use tcb::{Hop, TcbTable, Trail};
pub use value::{DecodeError, Value};

/// Shared immutable payload buffer (re-exported from `doct-net`): clones
/// are refcount bumps, so event payloads fan out without byte copies.
pub use doct_net::Bytes;

/// The most commonly used kernel types.
pub mod prelude {
    pub use crate::{
        ClassBuilder, Cluster, ClusterBuilder, Ctx, DeliveryStatus, EventName, InvocationMode,
        KernelConfig, KernelError, Lane, LocatorStrategy, MailboxConfig, ObjectConfig,
        ObjectEventExecution, ObjectId, RaiseTarget, SpawnOptions, SystemEvent, ThreadGroupId,
        ThreadHandle, ThreadId, Value,
    };
}
