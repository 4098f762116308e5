//! # ebs-luna — the user-space TCP stack (and its kernel baseline)
//!
//! LUNA (§3) replaced kernel TCP on the frontend network to match SSD
//! latency: an mTCP-style user-space stack with run-to-complete
//! scheduling, zero-copy buffers shared across SA and RPC layers, and
//! share-nothing per-core engines. This crate provides:
//!
//! * [`RpcConn`] — the storage RPC layer over the shared `ebs-tcp`
//!   engine, one type at both ends of a connection;
//! * [`StackCosts`] — the calibrated host-overhead models that are the
//!   *only* difference between kernel TCP and LUNA (Table 1), and where
//!   LUNA's run-to-complete threading is priced.
//!
//! ## Zero copy, boundary by boundary
//!
//! LUNA's first big win over kernel TCP is a zero-copy design *across SA
//! and RPC*: buffers are recycled and shared between layers instead of
//! copied at each boundary (§3.2). The buffers are the workspace-wide
//! [`ebs_wire::BlockPool`]'s, whose storage keeps recycling even after a
//! buffer is frozen into [`bytes::Bytes`] and shipped through the RPC
//! layer. Which boundaries are copy-free, exactly (pinned by
//! `tests/alloc_free.rs`):
//!
//! * buffer → `Bytes` ([`ebs_wire::PooledBuf::freeze`]): the storage
//!   moves, and returns to the pool when the last view drops;
//! * `Bytes` → stream ([`RpcConn::send`]): the frame is queued as a
//!   40-byte header view plus the payload handle;
//! * stream → segments → stream (`ebs-tcp`): segmentation splits views,
//!   a segment that straddles two writes carries a view of each,
//!   retransmission and reassembly clone and reorder handles;
//! * stream → frame ([`ebs_wire::FrameDecoder`]): the payload's
//!   segment-sized views are rejoined into one slice of the sender's
//!   buffer. Only views that are *not* adjacent in one storage — a peer
//!   that built its payload from unrelated allocations — are gathered,
//!   with a single exact-size copy.
//!
//! What still copies: [`ebs_wire::BlockPool::take_copy`] (that is its
//! job) and `RpcFrame::to_bytes`, which message transports that need one
//! contiguous buffer (the RDMA baseline) still use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod host;
mod rpc;

pub use host::StackCosts;
pub use rpc::{read_request, write_request, RpcConn};
