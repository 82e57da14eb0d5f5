//! Deterministic, seeded fault injection against the ASC verifier.
//!
//! The trust argument of authenticated system calls is that every
//! artifact the kernel's verifier consumes — rewritten instruction
//! bytes, call-MAC slots, authenticated-string blobs, predecessor
//! sets, the `lastBlock ‖ lbMAC` policy-state cell, trapped register
//! values, the in-kernel counter, and (with the warm path enabled)
//! verified-call cache entries — is either authentic or provokes a
//! fail-stop kill *before* the corrupted call dispatches. This crate
//! turns that argument into an executable experiment:
//!
//! * [`inventory`] enumerates the trusted artifacts of an installed
//!   binary by disassembling its rewritten call prologues;
//! * [`campaign`] flips bytes in those artifacts at seeded-random
//!   points of a run and classifies every perturbed execution as
//!   *killed-with-alert*, *benign*, or **silent corruption** (always
//!   a failure), with VM-level crashes tracked separately.
//!
//! * [`crosspid`] scales the experiment to a scheduled multi-process
//!   fleet: perturb exactly one pid (verify-cache poisoning, counter
//!   skew) and demand that no effect crosses a pid boundary.
//!
//! * [`tiers`] replays the campaign under every [`asc_kernel::VerifyTier`]
//!   (plus the `asc-attacks` syscall-reorder attack) into a tier ×
//!   fault-class coverage matrix: the cheap flow tier catches
//!   transition-order attacks but misses in-edge forgeries, and the
//!   combined tier dominates both.
//!
//! * [`latency`] measures how long a monitored fleet takes to *notice*
//!   each fault class: one seeded fault per class against an
//!   `asc-sentinel`-observed fleet, recording armed / effect /
//!   detected clocks and bounding the monitoring lag.
//!
//! The same machinery, pointed at a deliberately weakened verifier
//! ([`campaign::run_weakened_demo`]), demonstrates that the oracle
//! actually detects bypasses: with string verification disabled, a
//! corrupted authenticated string dispatches and the run diverges
//! silently.

pub mod campaign;
pub mod crosspid;
pub mod inventory;
pub mod latency;
pub mod tiers;

pub use campaign::{
    classify, run_campaign, run_weakened_demo, CampaignConfig, DemoResult, FaultClass, Outcome,
    Report, Row, RunRecord,
};
pub use crosspid::{run_cross_campaign, CrossConfig, CrossFaultClass, CrossReport, CrossRow};
pub use inventory::{scan, Blob, Inventory};
pub use latency::{run_latency_campaign, LatencyConfig, LatencyReport, LatencyRow};
pub use tiers::{run_tier_matrix, TierMatrixConfig, TierReport, TierRow, FLOW_REORDER};

use asc_crypto::MacKey;

/// The fixed campaign key (the simulated security administrator's
/// secret; independent of the benchmark key so campaigns cannot be
/// confused with table regeneration).
pub fn campaign_key() -> MacKey {
    MacKey::from_seed(campaign::CAMPAIGN_KEY_SEED)
}
