//! Coordination runtime for the live data planes.
//!
//! The paper's redirector prototypes pair a data plane (HTTP redirection or
//! connection forwarding) with a control plane that, every 100 ms window,
//! (1) publishes local queue/demand state into the combining tree, (2)
//! reads back the lagged global aggregate, (3) solves the scheduling LP,
//! and (4) installs the resulting admission quotas into the data plane.
//! This crate is that control plane, shared by the Layer-7 and Layer-4
//! reactor planes:
//!
//! * [`Coordinator`] — the combining-tree endpoint: each redirector
//!   publishes its demand vector; aggregates become visible to node `i`
//!   only after that node's tree lag (plus any injected extra lag). The
//!   tree is in-process by default or a `covenant-wire` socket tree;
//! * [`ShardCore`] — the admission state machine (credit gate, demand
//!   estimator, window scheduler) one reactor shard owns exclusively. It
//!   takes no locks and every entry point takes an explicit time, so the
//!   shard's event loop drives its window rolls and virtual-time replays
//!   drive the very same machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coordinator;
mod shard;

pub use coordinator::{Coordinator, TreeCoordination};
pub use shard::ShardCore;
