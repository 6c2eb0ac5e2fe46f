//! # mm-proto — name-server protocols over the simulator
//!
//! The runtime half of the paper: where `mm-core` provides the *functions*
//! `P` and `Q`, this crate provides the *processes* that use them.
//!
//! * [`messages`] — the wire protocol: `Post`, `Query`, `Hit`, `Miss`,
//!   `Request`, `Reply`.
//! * [`cache`] — per-node `(port, address, timestamp)` caches: *"Entries
//!   are made or updated whenever a message is received from a server
//!   process with its address. We can timestamp the messages to determine
//!   which addresses are out of date in case of a conflict."*
//! * [`fault`] — Byzantine fault profiles (drop-posts, stale-address,
//!   forged-address, refuse-match); the hostile-world layer on top of
//!   fail-stop churn.
//! * [`node`] — the protocol itself, once: a transport-free per-node
//!   machine `(state, message) → effects` covering posting, querying,
//!   every fault profile, best-stamp selection and request/reply. The two
//!   runtimes below only *host* it.
//! * [`shotgun`] — the Shotgun Locate engine: the node machine on the
//!   simulator. Servers post at `P(i)`, clients query `Q(j)`, rendezvous
//!   nodes answer from their caches. Generic over
//!   [`mm_core::strategies::PortMapped`], so the same engine runs every
//!   §2–§3 strategy *and* §5's Hash Locate.
//! * [`hash_locate`] — Hash Locate operations: rehash-on-crash backup
//!   rendezvous nodes and server polling (§5's two robustness repairs).
//! * [`lighthouse`] — §4's probabilistic beam algorithm on the Euclidean
//!   grid, with the doubling and ruler-sequence client schedules, plus
//!   [`ruler`], the schedule generator itself.
//! * [`service`] — the Amoeba-style service model of §1.3: request/reply
//!   on located addresses, migration with stale-cache recovery.
//! * [`live`] — the node machine on threads (channel mailboxes, one OS
//!   thread per node) under real concurrency, with simulator-compatible
//!   metrics so whole workloads can be differential-tested against
//!   [`shotgun`].

#![forbid(unsafe_code)]

pub mod cache;
pub mod fault;
pub mod hash_locate;
pub mod intern;
pub mod lighthouse;
pub mod live;
pub mod messages;
pub mod node;
pub mod ruler;
pub mod service;
pub mod shotgun;

pub use cache::Cache;
pub use fault::{FaultProfile, FORGED_STAMP};
pub use intern::TargetInterner;
pub use live::{LiveLocateOutcome, LiveNet};
pub use messages::ProtoMsg;
pub use node::{LocateOutcome, NodeMachine, Outbox, RequestOutcome, Settled};
pub use shotgun::{LocateHandle, ShotgunEngine};
