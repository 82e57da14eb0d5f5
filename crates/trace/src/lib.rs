//! The verifier flight recorder: a zero-dependency structured event model
//! for trace/span telemetry across every layer of the stack.
//!
//! The paper's evaluation reports only end-to-end overhead; this crate is
//! the substrate for *per-check* attribution. The kernel's trap handler
//! emits one span per authenticated call ([`EventKind::TrapEnter`] …
//! [`EventKind::TrapExit`]) with one child [`EventKind::Check`] event per
//! verification check — check kind, pass/fail, AES blocks spent, bytes
//! touched, cache decision — and kills emit a structured
//! [`EventKind::Kill`] with a [`ReasonCode`]. The installer emits
//! pass-level [`EventKind::InstallerPass`] spans with coverage counters.
//!
//! Everything flows through the [`TraceSink`] trait. Two rules keep the
//! recorder honest:
//!
//! * **No perturbation.** Recording is off by default and never feeds back
//!   into the cost model: the cycles a run charges are identical with any
//!   sink attached or none at all (asserted by test). Sinks observe costs;
//!   they do not incur them.
//! * **Bounded allocation.** The bundled [`RingSink`] holds at most its
//!   configured capacity, dropping *oldest* events first and counting every
//!   drop exactly ([`RingSink::dropped_events`]).
//!
//! [`Profile`] is an aggregating sink that folds the event stream into
//! per-call-site rows (calls, cold/warm split, cycles and AES blocks by
//! check family) — the data behind `asc-bench --bin trace`.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

/// Number of verification-check families ([`CheckKind::family`]).
pub const CHECK_FAMILIES: usize = 7;

/// Which verification check a [`CheckRecord`] describes (§3.4's three
/// steps plus the §5 extensions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CheckKind {
    /// The call-MAC check over the reconstructed encoded call.
    CallMac,
    /// An authenticated-string contents check.
    AuthString {
        /// Index of the checked argument.
        arg: usize,
    },
    /// A pattern check: pattern-AS integrity, parse, and hinted match.
    Pattern {
        /// Index of the checked argument.
        arg: usize,
    },
    /// A capability-bit check against the active-descriptor set (§5.3).
    Capability {
        /// Index of the checked argument.
        arg: usize,
    },
    /// Predecessor-set integrity and parse.
    PredecessorSet,
    /// Policy-state verification, membership test, and update.
    PolicyState,
    /// Syscall-transition digraph membership test (the SFIP tier): the
    /// `(last syscall, this syscall)` edge against the installed flow
    /// graph. Costs no AES blocks and reads no user memory.
    FlowEdge,
}

impl CheckKind {
    /// Dense family index in `0..CHECK_FAMILIES` (argument indices are
    /// folded away), usable to index a per-family table.
    pub fn family(self) -> usize {
        match self {
            CheckKind::CallMac => 0,
            CheckKind::AuthString { .. } => 1,
            CheckKind::Pattern { .. } => 2,
            CheckKind::Capability { .. } => 3,
            CheckKind::PredecessorSet => 4,
            CheckKind::PolicyState => 5,
            CheckKind::FlowEdge => 6,
        }
    }

    /// Kebab-case name of a family index (reports, JSON export).
    pub fn family_name(family: usize) -> &'static str {
        [
            "call-mac",
            "auth-string",
            "pattern",
            "capability",
            "pred-set",
            "policy-state",
            "flow-edge",
        ][family]
    }

    /// Kebab-case name of this kind's family.
    pub fn name(self) -> &'static str {
        CheckKind::family_name(self.family())
    }
}

/// How the verified-call cache participated in one check.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheDecision {
    /// No cache was attached to the verification.
    Disabled,
    /// Cache attached, no entry for this key yet: full cold verification.
    Cold,
    /// Entry matched byte-for-byte: AES skipped (the warm path).
    Hit,
    /// An entry existed but no longer matched (stale or poisoned); the
    /// kernel degraded gracefully to the full cold path.
    Fallback,
    /// A state entry claimed an impossible future epoch and was scrubbed
    /// before the cold path ran.
    Scrub,
}

impl CacheDecision {
    /// Kebab-case name (reports, JSON export).
    pub fn name(self) -> &'static str {
        match self {
            CacheDecision::Disabled => "disabled",
            CacheDecision::Cold => "cold",
            CacheDecision::Hit => "hit",
            CacheDecision::Fallback => "fallback",
            CacheDecision::Scrub => "scrub",
        }
    }
}

/// One verification check, as metered by `asc_core::Verifier::verify`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckRecord {
    /// Which check ran.
    pub kind: CheckKind,
    /// Whether it passed (a failed check kills the process).
    pub passed: bool,
    /// AES block-cipher invocations this check actually performed
    /// (measured via the key's block counter, so the records of one call
    /// sum exactly to its `VerifyOutcome::aes_blocks`).
    pub aes_blocks: u64,
    /// User-space bytes this check read and compared (the records of one
    /// call sum exactly to `VerifyOutcome::bytes_checked`).
    pub bytes: u64,
    /// How the verified-call cache participated.
    pub cache: CacheDecision,
}

/// Event severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Routine telemetry.
    Info,
    /// Unusual but tolerated (e.g. graceful cache degradation).
    Warn,
    /// A fail-stop kill.
    Alert,
}

/// Identifies the span an event belongs to. The kernel allocates one span
/// per enforced trap; the installer one per pass.
///
/// Multi-process runs give spans a pid dimension without widening the id:
/// [`SpanId::for_pid`] packs `pid - 1` into the high bits above a 40-bit
/// per-process span counter, so pid 1 (every single-process harness)
/// produces exactly the ids it always did and existing goldens are
/// unchanged, while a scheduler's interleaved traps remain attributable
/// via [`SpanId::pid`] / [`SpanId::local`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// Bits of a [`SpanId`] reserved for the per-process span counter; the pid
/// (minus one) lives above them.
pub const SPAN_LOCAL_BITS: u32 = 40;

/// Bits of a [`SpanId`] available for `pid - 1`: everything above the
/// per-process counter.
pub const SPAN_PID_BITS: u32 = u64::BITS - SPAN_LOCAL_BITS;

impl SpanId {
    /// Largest pid that receives a distinct span namespace (`2^24`).
    pub const MAX_DISTINCT_PID: u32 = 1 << SPAN_PID_BITS;

    /// A span id carrying a pid dimension: `pid - 1` in the high bits,
    /// `local` (the per-process span counter) in the low 40. For pid 1
    /// this is the identity encoding — `SpanId::for_pid(1, n) == SpanId(n)`
    /// — so single-process trace output stays byte-identical.
    ///
    /// # Range contract
    ///
    /// Ids are distinct for pids `1..=`[`SpanId::MAX_DISTINCT_PID`] (2^24,
    /// comfortably above any fleet the scheduler can host). Beyond that
    /// the pid field *saturates*: debug builds assert, release builds pin
    /// the field to its maximum. Saturation collides only among pids that
    /// are themselves beyond the range — it never wraps into a low pid's
    /// namespace the way the old unchecked shift did, and the `local`
    /// counter is never corrupted.
    pub fn for_pid(pid: u32, local: u64) -> SpanId {
        debug_assert!(pid >= 1, "pids are 1-based");
        debug_assert!(
            u64::from(pid - 1) < 1 << SPAN_PID_BITS,
            "pid {pid} exceeds the {SPAN_PID_BITS}-bit span pid field"
        );
        debug_assert!(local < 1 << SPAN_LOCAL_BITS, "span counter overflow");
        let pid_field = u64::from(pid - 1).min((1 << SPAN_PID_BITS) - 1);
        SpanId((pid_field << SPAN_LOCAL_BITS) | (local & ((1 << SPAN_LOCAL_BITS) - 1)))
    }

    /// The process this span belongs to (1 for ids allocated without a
    /// scheduler).
    pub fn pid(self) -> u32 {
        (self.0 >> SPAN_LOCAL_BITS) as u32 + 1
    }

    /// The per-process span counter.
    pub fn local(self) -> u64 {
        self.0 & ((1 << SPAN_LOCAL_BITS) - 1)
    }
}

/// One structured telemetry event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// The span this event belongs to.
    pub span: SpanId,
    /// Cycle timestamp from the VM clock (0 for installer-side events,
    /// which run outside the simulated machine).
    pub at_cycles: u64,
    /// Severity.
    pub severity: Severity,
    /// What happened.
    pub kind: EventKind,
}

/// The event payload.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// An enforced trap arrived: span opens.
    TrapEnter {
        /// Call-site address (the trapping PC).
        site: u32,
        /// Raw trapped syscall number.
        nr: u16,
    },
    /// One verification check ran within the current span.
    Check {
        /// The metered check.
        record: CheckRecord,
        /// Cycles the cost model charged for this check's variable work
        /// (AES blocks + bytes). 0 when the call was killed (failed calls
        /// are charged no verification cycles) or costs are off.
        cycles: u64,
    },
    /// Verification succeeded: span closes.
    TrapExit {
        /// Always true (kills close with [`EventKind::Kill`] instead).
        verified: bool,
        /// Whether the call MAC was served by the verified-call cache.
        cache_hit: bool,
        /// Total verification cycles charged (fixed + per-check).
        verify_cycles: u64,
        /// The fixed term of `verify_cycles` (cold or cached fixed cost);
        /// `verify_cycles - fixed_cycles` equals the sum of the span's
        /// per-check cycles exactly.
        fixed_cycles: u64,
    },
    /// Verification failed and the process was killed: span closes.
    Kill {
        /// Call-site address.
        site: u32,
        /// Raw trapped syscall number.
        nr: u16,
        /// Structured reason code (mirrors `asc_core::Violation`).
        reason: ReasonCode,
    },
    /// One installer pass completed (analysis / classification / rewrite).
    InstallerPass {
        /// Pass name.
        pass: String,
        /// Coverage counters, in report order.
        counters: Vec<(String, u64)>,
    },
}

/// Machine-readable reason a call was rejected. Mirrors the variants of
/// `asc_core::Violation` with argument details folded away, so campaigns
/// and tests classify kills without substring matching.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReasonCode {
    /// Call MAC mismatch.
    BadCallMac,
    /// Malformed policy descriptor.
    BadDescriptor,
    /// Authenticated-string MAC mismatch.
    BadStringMac,
    /// Oversized string argument.
    StringTooLong,
    /// Oversized predecessor set.
    OversizedPredecessorSet,
    /// Pattern AS failed verification or did not parse.
    BadPattern,
    /// Argument did not match its pattern.
    PatternMismatch,
    /// Predecessor-set bytes malformed.
    MalformedPredecessorSet,
    /// Policy-state MAC mismatch (tamper or replay).
    BadPolicyState,
    /// `lastBlock` not in the predecessor set (control-flow violation).
    NotInPredecessorSet,
    /// Capability-tracked argument not an active capability.
    CapabilityViolation,
    /// User memory unreadable/unwritable where the call pointed.
    MemoryFault,
    /// Syscall transition not an edge of the installed flow digraph.
    BadFlowEdge,
    /// Trap from a pc the installer never rewrote (raw `SYSCALL` gadget).
    UnrewrittenSite,
}

impl ReasonCode {
    /// Stable kebab-case code (reports, JSON export).
    pub fn code(self) -> &'static str {
        match self {
            ReasonCode::BadCallMac => "bad-call-mac",
            ReasonCode::BadDescriptor => "bad-descriptor",
            ReasonCode::BadStringMac => "bad-string-mac",
            ReasonCode::StringTooLong => "string-too-long",
            ReasonCode::OversizedPredecessorSet => "oversized-pred-set",
            ReasonCode::BadPattern => "bad-pattern",
            ReasonCode::PatternMismatch => "pattern-mismatch",
            ReasonCode::MalformedPredecessorSet => "malformed-pred-set",
            ReasonCode::BadPolicyState => "bad-policy-state",
            ReasonCode::NotInPredecessorSet => "not-in-pred-set",
            ReasonCode::CapabilityViolation => "capability-violation",
            ReasonCode::MemoryFault => "memory-fault",
            ReasonCode::BadFlowEdge => "bad-flow-edge",
            ReasonCode::UnrewrittenSite => "unrewritten-site",
        }
    }
}

impl std::fmt::Display for ReasonCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// Where events go. Implementations must be cheap and must never feed back
/// into the traced system (the no-perturbation rule).
pub trait TraceSink {
    /// Whether this sink wants events at all. Emitters may (and the kernel
    /// does) skip building events entirely when this is false.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn record(&mut self, event: Event);

    /// Events this sink has discarded to stay within its bounds. Unbounded
    /// sinks report 0; [`RingSink`] reports its exact overwrite count, so
    /// a harness (or a metrics gauge) can account for every event pushed:
    /// retained + dropped == recorded, always.
    fn dropped(&self) -> u64 {
        0
    }

    /// Downcast support, so a harness can recover a concrete sink (e.g. a
    /// [`Profile`]) it previously boxed into a kernel.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// A sink that is off: reports `enabled() == false` and drops everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: Event) {}

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Bounded in-memory recorder: keeps the most recent `capacity` events,
/// dropping the oldest first and counting every drop.
#[derive(Clone, Debug)]
pub struct RingSink {
    capacity: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity,
            // Reserve up front so recording never reallocates mid-run.
            events: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Exact number of events discarded to stay within capacity.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: Event) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Per-family aggregate within one [`SiteProfile`] row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckAgg {
    /// Checks of this family that ran.
    pub count: u64,
    /// Of those, how many failed (killed the call).
    pub failed: u64,
    /// AES blocks spent.
    pub aes_blocks: u64,
    /// Cycles charged for the variable work (0 on killed calls).
    pub cycles: u64,
    /// User-space bytes read and compared.
    pub bytes: u64,
    /// Cache hits.
    pub hits: u64,
    /// Graceful stale-entry fallbacks.
    pub fallbacks: u64,
    /// Future-epoch scrubs.
    pub scrubs: u64,
}

/// One per-call-site row of a [`Profile`].
#[derive(Clone, Debug)]
pub struct SiteProfile {
    /// Harness-assigned label (e.g. which program of a multi-program
    /// benchmark the site belongs to).
    pub context: String,
    /// Call-site address.
    pub site: u32,
    /// Raw trapped syscall number.
    pub nr: u16,
    /// Successfully verified calls.
    pub calls: u64,
    /// Of those, how many were warm (call-MAC cache hits).
    pub warm_calls: u64,
    /// Calls killed at this site.
    pub kills: u64,
    /// Total verification cycles charged (fixed + per-check).
    pub verify_cycles: u64,
    /// The fixed portion of `verify_cycles`.
    pub fixed_cycles: u64,
    /// Total AES blocks spent (including blocks burnt by failed checks of
    /// killed calls, which the cost model never charges).
    pub aes_blocks: u64,
    /// Per-family check aggregates, indexed by [`CheckKind::family`].
    pub checks: [CheckAgg; CHECK_FAMILIES],
}

impl SiteProfile {
    fn new(context: String, site: u32, nr: u16) -> SiteProfile {
        SiteProfile {
            context,
            site,
            nr,
            calls: 0,
            warm_calls: 0,
            kills: 0,
            verify_cycles: 0,
            fixed_cycles: 0,
            aes_blocks: 0,
            checks: [CheckAgg::default(); CHECK_FAMILIES],
        }
    }
}

/// Whole-profile totals (see [`Profile::totals`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileTotals {
    /// Successfully verified calls.
    pub calls: u64,
    /// Warm (cache-hit) calls.
    pub warm_calls: u64,
    /// Killed calls.
    pub kills: u64,
    /// Verification cycles charged.
    pub verify_cycles: u64,
    /// Fixed portion of `verify_cycles`.
    pub fixed_cycles: u64,
    /// AES blocks spent.
    pub aes_blocks: u64,
    /// Bytes read and compared by checks.
    pub bytes: u64,
}

/// In-flight span state inside a [`Profile`].
#[derive(Clone, Debug)]
struct PendingSpan {
    site: u32,
    nr: u16,
    checks: Vec<(CheckRecord, u64)>,
}

/// An aggregating sink: folds the kernel's event stream into per-call-site
/// rows keyed `(context, site, nr)`. Rows iterate in key order, so reports
/// built from a profile are deterministic.
#[derive(Debug, Default)]
pub struct Profile {
    context: String,
    rows: BTreeMap<(String, u32, u16), SiteProfile>,
    pending: Option<PendingSpan>,
    passes: Vec<(String, Vec<(String, u64)>)>,
}

impl Profile {
    /// An empty profile (context `""`).
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Sets the context label stamped on rows for subsequent events. A
    /// multi-program harness calls this between programs so same-address
    /// call sites of different binaries do not merge.
    pub fn set_context(&mut self, context: impl Into<String>) {
        self.context = context.into();
    }

    /// The rows, in `(context, site, nr)` order.
    pub fn rows(&self) -> impl Iterator<Item = &SiteProfile> {
        self.rows.values()
    }

    /// Recorded installer passes `(name, counters)`, in arrival order.
    pub fn passes(&self) -> &[(String, Vec<(String, u64)>)] {
        &self.passes
    }

    /// Column totals across all rows.
    pub fn totals(&self) -> ProfileTotals {
        let mut t = ProfileTotals::default();
        for row in self.rows.values() {
            t.calls += row.calls;
            t.warm_calls += row.warm_calls;
            t.kills += row.kills;
            t.verify_cycles += row.verify_cycles;
            t.fixed_cycles += row.fixed_cycles;
            t.aes_blocks += row.aes_blocks;
            t.bytes += row.checks.iter().map(|c| c.bytes).sum::<u64>();
        }
        t
    }

    fn row_mut(&mut self, site: u32, nr: u16) -> &mut SiteProfile {
        let key = (self.context.clone(), site, nr);
        self.rows
            .entry(key)
            .or_insert_with(|| SiteProfile::new(self.context.clone(), site, nr))
    }

    fn absorb_checks(row: &mut SiteProfile, checks: &[(CheckRecord, u64)]) {
        for (record, cycles) in checks {
            let agg = &mut row.checks[record.kind.family()];
            agg.count += 1;
            if !record.passed {
                agg.failed += 1;
            }
            agg.aes_blocks += record.aes_blocks;
            agg.cycles += cycles;
            agg.bytes += record.bytes;
            match record.cache {
                CacheDecision::Hit => agg.hits += 1,
                CacheDecision::Fallback => agg.fallbacks += 1,
                CacheDecision::Scrub => agg.scrubs += 1,
                CacheDecision::Disabled | CacheDecision::Cold => {}
            }
            row.aes_blocks += record.aes_blocks;
        }
    }
}

impl TraceSink for Profile {
    fn record(&mut self, event: Event) {
        match event.kind {
            EventKind::TrapEnter { site, nr } => {
                self.pending = Some(PendingSpan {
                    site,
                    nr,
                    checks: Vec::new(),
                });
            }
            EventKind::Check { record, cycles } => {
                if let Some(p) = self.pending.as_mut() {
                    p.checks.push((record, cycles));
                }
            }
            EventKind::TrapExit {
                cache_hit,
                verify_cycles,
                fixed_cycles,
                ..
            } => {
                if let Some(p) = self.pending.take() {
                    let row = self.row_mut(p.site, p.nr);
                    row.calls += 1;
                    if cache_hit {
                        row.warm_calls += 1;
                    }
                    row.verify_cycles += verify_cycles;
                    row.fixed_cycles += fixed_cycles;
                    Profile::absorb_checks(row, &p.checks);
                }
            }
            EventKind::Kill { site, nr, .. } => {
                let checks = match self.pending.take() {
                    Some(p) if p.site == site && p.nr == nr => p.checks,
                    _ => Vec::new(),
                };
                let row = self.row_mut(site, nr);
                row.kills += 1;
                Profile::absorb_checks(row, &checks);
            }
            EventKind::InstallerPass { pass, counters } => {
                self.passes.push((pass, counters));
            }
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(i: u64) -> Event {
        Event {
            span: SpanId(i),
            at_cycles: i * 10,
            severity: Severity::Info,
            kind: EventKind::TrapEnter {
                site: i as u32,
                nr: 1,
            },
        }
    }

    #[test]
    fn ring_keeps_everything_under_capacity() {
        let mut ring = RingSink::new(4);
        for i in 0..4 {
            ring.record(info(i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped_events(), 0);
        let spans: Vec<u64> = ring.events().map(|e| e.span.0).collect();
        assert_eq!(spans, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ring_wraparound_drops_oldest_first() {
        let mut ring = RingSink::new(3);
        for i in 0..10 {
            ring.record(info(i));
        }
        let spans: Vec<u64> = ring.events().map(|e| e.span.0).collect();
        assert_eq!(spans, vec![7, 8, 9], "newest retained, oldest gone");
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn ring_dropped_counter_is_exact() {
        let mut ring = RingSink::new(5);
        for i in 0..137 {
            ring.record(info(i));
        }
        assert_eq!(ring.dropped_events(), 137 - 5);
        // Zero-capacity ring: everything is a drop, nothing is retained.
        let mut zero = RingSink::new(0);
        for i in 0..9 {
            zero.record(info(i));
        }
        assert_eq!(zero.dropped_events(), 9);
        assert!(zero.is_empty());
    }

    #[test]
    fn null_sink_reports_disabled() {
        assert!(!NullSink.enabled());
        assert!(RingSink::new(1).enabled());
    }

    #[test]
    fn span_ids_distinct_across_fleet_pid_range() {
        // Fleet mode spawns thousands of pids with churn; every (pid,
        // local) pair in that regime must map to a unique id, and pid 1
        // must keep the identity encoding the single-process goldens pin.
        assert_eq!(SpanId::for_pid(1, 7), SpanId(7));
        let mut seen = std::collections::HashSet::new();
        for pid in (1..=4096u32).chain([1 << 20, SpanId::MAX_DISTINCT_PID]) {
            for local in [0u64, 1, (1 << SPAN_LOCAL_BITS) - 1] {
                let id = SpanId::for_pid(pid, local);
                assert!(seen.insert(id), "collision at pid {pid} local {local}");
                assert_eq!(id.pid(), pid);
                assert_eq!(id.local(), local);
            }
        }
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn span_id_saturates_beyond_pid_field_in_release() {
        // Out-of-range pids collide only with each other, never with a
        // real pid's namespace, and the local counter survives.
        let over = SpanId::for_pid(SpanId::MAX_DISTINCT_PID + 1, 9);
        let way_over = SpanId::for_pid(u32::MAX, 9);
        assert_eq!(over, way_over);
        assert_eq!(over.pid(), SpanId::MAX_DISTINCT_PID);
        assert_eq!(over.local(), 9);
        assert_ne!(over, SpanId::for_pid(1, 9));
    }

    #[test]
    fn profile_aggregates_spans_per_site() {
        let mut p = Profile::new();
        p.set_context("demo");
        for warm in [false, true, true] {
            p.record(Event {
                span: SpanId(0),
                at_cycles: 0,
                severity: Severity::Info,
                kind: EventKind::TrapEnter { site: 0x100, nr: 5 },
            });
            p.record(Event {
                span: SpanId(0),
                at_cycles: 0,
                severity: Severity::Info,
                kind: EventKind::Check {
                    record: CheckRecord {
                        kind: CheckKind::CallMac,
                        passed: true,
                        aes_blocks: if warm { 0 } else { 3 },
                        bytes: 0,
                        cache: if warm {
                            CacheDecision::Hit
                        } else {
                            CacheDecision::Cold
                        },
                    },
                    cycles: if warm { 0 } else { 1260 },
                },
            });
            p.record(Event {
                span: SpanId(0),
                at_cycles: 0,
                severity: Severity::Info,
                kind: EventKind::TrapExit {
                    verified: true,
                    cache_hit: warm,
                    verify_cycles: if warm { 120 } else { 1710 },
                    fixed_cycles: if warm { 120 } else { 450 },
                },
            });
        }
        let rows: Vec<&SiteProfile> = p.rows().collect();
        assert_eq!(rows.len(), 1);
        let row = rows[0];
        assert_eq!((row.calls, row.warm_calls, row.kills), (3, 2, 0));
        assert_eq!(row.aes_blocks, 3);
        assert_eq!(row.verify_cycles, 1710 + 2 * 120);
        assert_eq!(row.fixed_cycles, 450 + 2 * 120);
        let cm = row.checks[CheckKind::CallMac.family()];
        assert_eq!((cm.count, cm.hits, cm.cycles), (3, 2, 1260));
        // Totals line up with the single row.
        let t = p.totals();
        assert_eq!(t.calls, 3);
        assert_eq!(t.verify_cycles, row.verify_cycles);
    }

    #[test]
    fn profile_contexts_keep_same_address_sites_apart() {
        let mut p = Profile::new();
        for ctx in ["a", "b"] {
            p.set_context(ctx);
            p.record(Event {
                span: SpanId(0),
                at_cycles: 0,
                severity: Severity::Info,
                kind: EventKind::TrapEnter { site: 0x40, nr: 20 },
            });
            p.record(Event {
                span: SpanId(0),
                at_cycles: 0,
                severity: Severity::Info,
                kind: EventKind::TrapExit {
                    verified: true,
                    cache_hit: false,
                    verify_cycles: 450,
                    fixed_cycles: 450,
                },
            });
        }
        assert_eq!(p.rows().count(), 2, "one row per context");
    }
}
