//! Campaign service for the MAVR fleet engine: million-board campaigns
//! with sharded checkpoints, streaming results, and constant memory.
//!
//! The fleet engine ([`mavr_fleet`]) answers "what happens when this
//! attack meets this randomized fleet" as a pure function of a campaign
//! config. This crate turns that into a *service*: campaigns are
//! submitted as JSON specs, their job space is cut into independently
//! checkpointed shards, per-board outcomes stream to JSONL files the
//! moment they complete, and shard metrics fold through the associative
//! registry merge — so a cell with a million boards costs the same RAM
//! as one with eight. A `merge` pass folds the shard checkpoints into a
//! report **byte-identical** to what one uninterrupted, unsharded run
//! would have produced (a law proptested in the fleet crate), which
//! means sharding, interruption, resumption and multi-tenancy are all
//! invisible in the results.
//!
//! The service is also *supervised*: every board job runs in its own
//! fault domain (a panicking or hanging job is retried with seeded
//! backoff, then quarantined to an explicit ledger — never silently
//! dropped, never fatal to its shard), durable writes ride a bounded
//! retry ladder that degrades to skipping a checkpoint rather than
//! aborting the campaign, and a SIGKILL at any instant resumes to a
//! byte-identical report.
//!
//! Modules, bottom-up:
//! - [`json`]: a minimal JSON tree (the workspace is offline; numbers
//!   keep their lexeme so 64-bit seeds survive).
//! - [`spec`]: the campaign spec — a campaign's identity — and its
//!   mapping onto [`mavr_fleet::CampaignConfig`].
//! - [`faultfs`]: seeded disk-fault injection (EIO/ENOSPC/short write)
//!   under the store's durable-write retry loop.
//! - [`store`]: the on-disk campaign directory, the write-to-temp +
//!   rename discipline that makes every checkpoint crash-safe, and
//!   progress counted from the checkpoints the directory holds (never by
//!   walking the plan).
//! - [`runner`]: the shard execution loop, the disk-fault degradation
//!   ladder, and the streaming two-pass merge that also rebuilds the
//!   quarantine ledger.
//! - [`proto`]: the newline-delimited JSON control protocol
//!   (submit/status/run/merge/shutdown) over a service whose only state
//!   is its campaign root.
//! - [`server`]: stdio and Unix-socket transports; the socket server
//!   serves each connection on its own thread while an executor thread
//!   runs pending shards.
//! - [`signal`]: SIGINT/SIGTERM → cooperative interrupt flag, so Ctrl-C
//!   flushes a valid checkpoint instead of tearing one.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod faultfs;
pub mod json;
pub mod proto;
pub mod runner;
pub mod server;
pub mod signal;
pub mod spec;
pub mod store;

pub use faultfs::FaultFs;
pub use proto::{Control, Service, ServiceStats};
pub use runner::{merge_store, CampaignSession, RunOutcome};
pub use server::ServeOptions;
pub use spec::CampaignSpec;
pub use store::{write_file_atomic, CampaignStatus, CampaignStore};
