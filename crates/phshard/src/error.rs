//! Typed errors for the sharded serving layer.
//!
//! The sharded layer adds failure modes the per-shard store cannot
//! express: a write shed because a migration backlog is full, a split
//! addressed at a retired slot, a checkpoint that failed on one shard's
//! snapshot. Each gets its own variant so callers can react per mode —
//! retry a shed write later, refresh a stale routing snapshot, alert
//! on a checkpoint failure — instead of pattern-matching error
//! strings.

use phstore::StoreError;
use std::fmt;

/// Everything that can go wrong in the sharded layer.
#[derive(Debug)]
pub enum ShardError {
    /// The per-shard store failed (I/O, corruption).
    Store(StoreError),
    /// A write was shed: the slot is mid-migration and its bounded
    /// write backlog is full. The write was **not** journaled — it is
    /// neither durable nor applied, so the caller may safely retry
    /// once the split commits (graceful degradation, not data loss).
    Overloaded {
        /// Slot that refused the write.
        slot: usize,
        /// Backlog capacity that was exhausted.
        backlog: usize,
    },
    /// The addressed slot is already being split; one migration per
    /// slot at a time.
    MigrationInProgress {
        /// Slot with the active migration.
        slot: usize,
    },
    /// The slot id is not a live shard (never existed, or retired by a
    /// committed split).
    UnknownSlot {
        /// The stale or invalid slot id.
        slot: usize,
    },
    /// A split would exceed the shard-count ceiling.
    TooManyShards {
        /// Shard count the split would have produced.
        requested: usize,
        /// The ceiling ([`crate::MAX_SHARDS`]).
        max: usize,
    },
    /// A split would push a leaf past the routing-depth ceiling
    /// ([`crate::epoch::MAX_DEPTH`] Z-bits), or asked for zero bits.
    SplitDepth {
        /// Slot addressed by the split.
        slot: usize,
        /// Resulting depth that was rejected.
        depth: u32,
    },
    /// A shard's snapshot failed during a store-wide checkpoint. Other
    /// shards may have advanced their generation — that is safe (the
    /// log keeps its generation, valid against every snapshot) — but
    /// the caller must know which shard failed; the log stays long
    /// until a checkpoint succeeds.
    Checkpoint {
        /// Slot whose checkpoint failed.
        slot: usize,
        /// The underlying store error.
        source: StoreError,
    },
    /// The backend serves a packed (read-only) checkpoint: writes are
    /// structurally impossible, not transiently unavailable. Callers
    /// should route writes to a live store, not retry here.
    ReadOnly,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Store(e) => write!(f, "shard store error: {e}"),
            ShardError::Overloaded { slot, backlog } => write!(
                f,
                "write shed: slot {slot} is migrating and its backlog ({backlog} ops) is full"
            ),
            ShardError::MigrationInProgress { slot } => {
                write!(f, "slot {slot} already has a migration in progress")
            }
            ShardError::UnknownSlot { slot } => {
                write!(f, "slot {slot} is not a live shard")
            }
            ShardError::TooManyShards { requested, max } => {
                write!(f, "split would produce {requested} shards (max {max})")
            }
            ShardError::SplitDepth { slot, depth } => {
                write!(f, "split of slot {slot} rejected at depth {depth} Z-bits")
            }
            ShardError::Checkpoint { slot, source } => {
                write!(f, "checkpoint of slot {slot} failed: {source}")
            }
            ShardError::ReadOnly => {
                write!(
                    f,
                    "backend is a packed read-only checkpoint; writes are not accepted"
                )
            }
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Store(e) | ShardError::Checkpoint { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for ShardError {
    fn from(e: StoreError) -> Self {
        ShardError::Store(e)
    }
}
