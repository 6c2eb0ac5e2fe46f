//! Byzantine fault profiles.
//!
//! The paper's §2.4 robustness analysis assumes fail-stop nodes; the
//! hostile-world layer goes further: a node can stay up and *misbehave*.
//! A [`FaultProfile`] is attached to a node before (or during) a run and
//! changes how the node machine ([`crate::node`]) responds — necessarily
//! identically in the discrete-event simulator ([`crate::ShotgunEngine`])
//! and the threaded live runtime ([`crate::live::LiveNet`]), which host
//! the same machine, so hostile workloads remain differential-testable.
//!
//! Detection is the *client's* job: forged answers carry
//! [`FORGED_STAMP`], which wins best-stamp selection, but any honest hit
//! in the same fan-out disagrees on the address — the locate outcome
//! reports that disagreement as `dissent`, and the workload layer
//! classifies the verdict as a detected lie (cross-checked) or a false
//! match (the client was fooled).

/// Per-node adversarial behavior. `Honest` is the default and preserves
/// the historical protocol byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultProfile {
    /// Follows the protocol faithfully.
    #[default]
    Honest,
    /// Silently discards `Post`/`Unpost` traffic: the node never learns
    /// any address and answers every query with a miss. Models broken
    /// rendezvous storage — it quietly erodes the strategy's redundancy.
    DropPosts,
    /// Pins the first posting it accepts per port and ignores later posts
    /// and unposts: after a migration it keeps serving the old address —
    /// §1.3's stale-address hazard made permanent.
    StaleAddress,
    /// Forges rendezvous answers: replies *hit* to every query with its
    /// own address and [`FORGED_STAMP`], winning best-stamp selection
    /// whenever no honest hit is present to cross-check it.
    ForgedAddress,
    /// Refuses to match: accepts posts but answers every query miss.
    RefuseMatch,
}

impl FaultProfile {
    /// `true` for the default well-behaved profile.
    pub fn is_honest(self) -> bool {
        self == FaultProfile::Honest
    }

    /// Stable label used in trace spans and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultProfile::Honest => "honest",
            FaultProfile::DropPosts => "drop-posts",
            FaultProfile::StaleAddress => "stale-address",
            FaultProfile::ForgedAddress => "forged-address",
            FaultProfile::RefuseMatch => "refuse-match",
        }
    }
}

/// The stamp carried by forged hits: strictly newer than every honest
/// stamp (engine stamps count up from 1), so a lie always wins best-stamp
/// selection and detection must come from cross-checking, not luck.
pub const FORGED_STAMP: u64 = u64::MAX;
