//! Kernel-side metrics: the trap handler's per-call distributions.
//!
//! [`KernelMetrics`] wraps an [`asc_metrics::Registry`] with every handle
//! the trap handler records into pre-resolved, so the per-syscall hot path
//! is a handful of array-indexed histogram updates — no name lookups, no
//! allocation. Like the flight recorder, metrics are **off by default**
//! ([`crate::Kernel::attach_metrics`] opts in) and never feed back into the
//! cost model: charged cycles and every `KernelStats` counter are identical
//! with or without a registry attached.
//!
//! The metric families and their reconstruction identities (asserted by
//! `crates/kernel/tests/metrics_identity.rs`):
//!
//! * `asc_verify_cycles{path}` / `asc_verify_aes_blocks{path}` /
//!   `asc_verify_bytes{path}` — one observation per *successful*
//!   verification, labeled by how the verified-call cache participated
//!   (`cold`, `warm`, `fallback`, `scrub`). Summing `sum` across paths
//!   reconstructs `KernelStats::verify_cycles` / `verify_aes_blocks`
//!   exactly.
//! * `asc_verify_fixed_cycles{path}` — the fixed (check-independent) term
//!   of each call's verification cost.
//! * `asc_check_cycles{family}` / `asc_check_aes_blocks{family}` /
//!   `asc_check_bytes{family}` — one observation per verification check,
//!   labeled by check family (`CallMeter`'s partition: call-mac,
//!   auth-string, pattern, capability, pred-set, policy-state, flow-edge).
//!   Because the per-check records partition a call's AES blocks and bytes
//!   exactly, and the per-record cost (`CostModel::check_cost_of` — linear
//!   in blocks/bytes, plus the fixed flow-check term per flow-edge record)
//!   partitions the variable verify cost, `Σ_family check_cycles.sum +
//!   Σ_path fixed_cycles.sum == KernelStats::verify_cycles` and
//!   `Σ_family check_aes_blocks.sum == KernelStats::verify_aes_blocks`.
//! * `asc_syscalls_total`, `asc_kills_total`,
//!   `asc_cache_outcome_total{outcome}` — plain counters; the cache-outcome
//!   counter is only incremented when the verified-call cache is enabled.

use asc_core::VerifyOutcome;
use asc_metrics::{CounterId, GaugeId, HistogramId, Registry, Snapshot};
use asc_trace::{CheckKind, CheckRecord, CHECK_FAMILIES};

use crate::cost::CostModel;

/// The cache-participation paths a verification is labeled with, in
/// [`PATH_COLD`]..[`PATH_SCRUB`] order.
pub const VERIFY_PATHS: [&str; 4] = ["cold", "warm", "fallback", "scrub"];

/// Full cold verification (no cache, or no entry for the key).
pub const PATH_COLD: usize = 0;
/// Call MAC served from the verified-call cache.
pub const PATH_WARM: usize = 1;
/// A cache entry existed but no longer matched; graceful cold fallback.
pub const PATH_FALLBACK: usize = 2;
/// A poisoned future-epoch state entry was scrubbed before the cold path.
pub const PATH_SCRUB: usize = 3;

/// The kernel's metrics registry with every trap-handler handle
/// pre-resolved. Thread one through a multi-kernel benchmark with
/// [`crate::Kernel::set_metrics`] / [`crate::Kernel::take_metrics`], or
/// merge per-kernel [`Snapshot`]s instead — histogram merge is exact.
#[derive(Clone, Debug)]
pub struct KernelMetrics {
    registry: Registry,
    pub(crate) syscalls: CounterId,
    pub(crate) kills: CounterId,
    pub(crate) cache_outcome: [CounterId; 4],
    verify_cycles: [HistogramId; 4],
    fixed_cycles: [HistogramId; 4],
    aes_blocks: [HistogramId; 4],
    bytes: [HistogramId; 4],
    check_cycles: [HistogramId; CHECK_FAMILIES],
    check_aes: [HistogramId; CHECK_FAMILIES],
    check_bytes: [HistogramId; CHECK_FAMILIES],
    pub(crate) ring_dropped: GaugeId,
}

impl Default for KernelMetrics {
    fn default() -> Self {
        KernelMetrics::new()
    }
}

impl KernelMetrics {
    /// A fresh registry with every trap-handler metric registered.
    pub fn new() -> KernelMetrics {
        KernelMetrics::with_extra_labels(&[])
    }

    /// A registry whose every metric additionally carries a
    /// `pid="<pid>"` label. Multi-process harnesses attach one per
    /// process ([`crate::Kernel::set_metrics`]) and merge the snapshots:
    /// because the label sets are disjoint per pid, the merged snapshot
    /// keeps per-pid distributions addressable while `new()`-built
    /// registries (no `pid` label) stay byte-identical to their historical
    /// output.
    pub fn for_pid(pid: u32) -> KernelMetrics {
        let pid = pid.to_string();
        KernelMetrics::with_extra_labels(&[("pid", &pid)])
    }

    /// Registers every trap-handler metric with `extra` prepended to each
    /// metric's own labels. The registry copies label strings, so `extra`
    /// may borrow temporaries.
    fn with_extra_labels(extra: &[(&str, &str)]) -> KernelMetrics {
        fn join<'a>(
            extra: &[(&'a str, &'a str)],
            base: &[(&'a str, &'a str)],
        ) -> Vec<(&'a str, &'a str)> {
            extra.iter().chain(base.iter()).copied().collect()
        }
        let mut registry = Registry::new();
        let syscalls = registry.counter("asc_syscalls_total", &join(extra, &[]));
        let kills = registry.counter("asc_kills_total", &join(extra, &[]));
        let cache_outcome = std::array::from_fn(|i| {
            registry.counter(
                "asc_cache_outcome_total",
                &join(extra, &[("outcome", VERIFY_PATHS[i])]),
            )
        });
        let verify_cycles = std::array::from_fn(|i| {
            registry.histogram(
                "asc_verify_cycles",
                &join(extra, &[("path", VERIFY_PATHS[i])]),
            )
        });
        let fixed_cycles = std::array::from_fn(|i| {
            registry.histogram(
                "asc_verify_fixed_cycles",
                &join(extra, &[("path", VERIFY_PATHS[i])]),
            )
        });
        let aes_blocks = std::array::from_fn(|i| {
            registry.histogram(
                "asc_verify_aes_blocks",
                &join(extra, &[("path", VERIFY_PATHS[i])]),
            )
        });
        let bytes = std::array::from_fn(|i| {
            registry.histogram(
                "asc_verify_bytes",
                &join(extra, &[("path", VERIFY_PATHS[i])]),
            )
        });
        let check_cycles = std::array::from_fn(|i| {
            registry.histogram(
                "asc_check_cycles",
                &join(extra, &[("family", CheckKind::family_name(i))]),
            )
        });
        let check_aes = std::array::from_fn(|i| {
            registry.histogram(
                "asc_check_aes_blocks",
                &join(extra, &[("family", CheckKind::family_name(i))]),
            )
        });
        let check_bytes = std::array::from_fn(|i| {
            registry.histogram(
                "asc_check_bytes",
                &join(extra, &[("family", CheckKind::family_name(i))]),
            )
        });
        let ring_dropped = registry.gauge("asc_trace_ring_dropped_events", &join(extra, &[]));
        KernelMetrics {
            registry,
            syscalls,
            kills,
            cache_outcome,
            verify_cycles,
            fixed_cycles,
            aes_blocks,
            bytes,
            check_cycles,
            check_aes,
            check_bytes,
            ring_dropped,
        }
    }

    /// The underlying registry (read-only; harnesses snapshot or render).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A mergeable copy of the current state.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    pub(crate) fn inc(&mut self, id: CounterId) {
        self.registry.inc(id, 1);
    }

    /// Mirrors the attached trace ring's drop counter
    /// ([`asc_trace::TraceSink::dropped`]) into the
    /// `asc_trace_ring_dropped_events` gauge. Pure telemetry: reading the
    /// counter never perturbs the ring or the metered cycle stream.
    pub(crate) fn set_ring_dropped(&mut self, dropped: u64) {
        let id = self.ring_dropped;
        self.registry.set(id, dropped as f64);
    }

    /// Records one successful verification: the per-call histograms under
    /// `path`, the per-check family histograms from the meter's records,
    /// and (when the cache was attached) the cache-outcome counter.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_verified(
        &mut self,
        path: usize,
        verify_cycles: u64,
        fixed_cycles: u64,
        outcome: &VerifyOutcome,
        checks: &[CheckRecord],
        cost: &CostModel,
        charge_costs: bool,
        cache_enabled: bool,
    ) {
        self.registry
            .observe(self.verify_cycles[path], verify_cycles);
        self.registry.observe(self.fixed_cycles[path], fixed_cycles);
        self.registry
            .observe(self.aes_blocks[path], outcome.aes_blocks);
        self.registry
            .observe(self.bytes[path], outcome.bytes_checked);
        if cache_enabled {
            self.registry.inc(self.cache_outcome[path], 1);
        }
        for record in checks {
            let family = record.kind.family();
            let cycles = if charge_costs {
                cost.check_cost_of(record)
            } else {
                0
            };
            self.registry.observe(self.check_cycles[family], cycles);
            self.registry
                .observe(self.check_aes[family], record.aes_blocks);
            self.registry
                .observe(self.check_bytes[family], record.bytes);
        }
    }
}
