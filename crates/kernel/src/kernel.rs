//! The simulated kernel: process state, the software trap handler, and the
//! authenticated-system-call checking glue.
//!
//! The paper's kernel modification is ~250 lines inside the trap handler;
//! the analogue here is [`Kernel::handle_trap`]'s enforcement block, which
//! delegates the three checks of §3.4 to `asc_core::verify_call` and turns
//! any [`Violation`] into fail-stop process termination plus an
//! administrator alert.

use asc_core::{
    verify_call_traced, AuthCallRegs, CacheStats, FlowGraph, SiteRegistry, UserMemory, VerifyCache,
    VerifyHooks, VerifyOutcome, Violation, FLOW_START,
};
use asc_crypto::{CapabilitySet, MacKey, MemoryChecker};
use asc_isa::Reg;
use asc_trace::{
    CacheDecision, CallMeter, CheckKind, CheckRecord, Event, EventKind, Severity, SpanId, TraceSink,
};
use asc_vm::{MemFault, Memory, SyscallHandler, TrapContext, TrapOutcome};

use crate::abi::{spec, Personality, SyscallId};
use crate::alert::Alert;
use crate::cost::CostModel;
use crate::fs::FileSystem;
use crate::metrics::{KernelMetrics, PATH_COLD, PATH_FALLBACK, PATH_SCRUB, PATH_WARM};

/// What an open file descriptor refers to.
#[derive(Clone, Debug)]
pub enum FdKind {
    /// Process standard input (kernel-held byte buffer).
    Stdin,
    /// Process standard output (captured).
    Stdout,
    /// Process standard error (captured).
    Stderr,
    /// A regular file.
    File(crate::fs::InodeId),
    /// A directory opened for reading entries.
    Dir(crate::fs::InodeId),
    /// The console device.
    Console,
    /// The bit bucket.
    Null,
    /// A loopback socket (index into the kernel's socket buffers).
    Socket(usize),
    /// Read end of a pipe.
    PipeRead(usize),
    /// Write end of a pipe.
    PipeWrite(usize),
}

/// One open-file-table entry.
#[derive(Clone, Debug)]
pub struct OpenFile {
    /// What the descriptor refers to.
    pub kind: FdKind,
    /// Read/write position (files and dirs).
    pub pos: u64,
    /// Open flags.
    pub flags: u32,
}

/// One recorded system call (used by training monitors and statistics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// The *effective* syscall (after `__syscall` indirection resolution —
    /// this is what a Systrace-style monitor observes).
    pub id: SyscallId,
    /// Raw syscall number as trapped.
    pub raw_nr: u16,
    /// Call-site address.
    pub site: u32,
}

/// Aggregate counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Total system calls trapped.
    pub syscalls: u64,
    /// Calls that went through ASC verification.
    pub verified: u64,
    /// Total AES blocks spent on verification (measured, cold + warm).
    pub verify_aes_blocks: u64,
    /// Total verification cycles charged (cold + warm).
    pub verify_cycles: u64,
    /// Total kernel cycles charged (trap + handler + verification).
    pub kernel_cycles: u64,
    /// Verifications served by the verified-call cache (warm path).
    pub cache_hits: u64,
    /// AES blocks spent on warm verifications (subset of
    /// `verify_aes_blocks`; cold blocks are the difference).
    pub warm_aes_blocks: u64,
    /// Verification cycles charged on warm verifications (subset of
    /// `verify_cycles`).
    pub warm_verify_cycles: u64,
    /// Verifications where a cache entry existed but no longer matched
    /// (stale or poisoned): the kernel degraded gracefully to the full
    /// cold CMAC path instead of trusting the entry.
    pub cache_fallbacks: u64,
    /// Poisoned cache state entries scrubbed because they claimed an
    /// impossible (future) counter epoch.
    pub cache_scrubs: u64,
}

impl KernelStats {
    /// Verifications that ran the full (cold) path.
    pub fn cold_verified(&self) -> u64 {
        self.verified - self.cache_hits
    }

    /// Average verification cycles per cold call (0 when none ran).
    pub fn cold_verify_cycles_per_call(&self) -> u64 {
        (self.verify_cycles - self.warm_verify_cycles)
            .checked_div(self.cold_verified())
            .unwrap_or(0)
    }

    /// Average verification cycles per warm call (0 when none ran).
    pub fn warm_verify_cycles_per_call(&self) -> u64 {
        self.warm_verify_cycles
            .checked_div(self.cache_hits)
            .unwrap_or(0)
    }

    /// Adds another kernel's counters into this one (multi-program
    /// harnesses run tools on separate kernels and report one total).
    pub fn absorb(&mut self, other: &KernelStats) {
        self.syscalls += other.syscalls;
        self.verified += other.verified;
        self.verify_aes_blocks += other.verify_aes_blocks;
        self.verify_cycles += other.verify_cycles;
        self.kernel_cycles += other.kernel_cycles;
        self.cache_hits += other.cache_hits;
        self.warm_aes_blocks += other.warm_aes_blocks;
        self.warm_verify_cycles += other.warm_verify_cycles;
        self.cache_fallbacks += other.cache_fallbacks;
        self.cache_scrubs += other.cache_scrubs;
    }
}

/// Which verification tier an enforcing kernel runs (see DESIGN.md §15).
///
/// The tiers trade coverage for per-call cost. [`VerifyTier::Mac`] is the
/// paper's scheme: per-call AES-CMAC verification of the encoded call.
/// [`VerifyTier::FlowOnly`] is the SFIP-style cheap tier: only the
/// syscall-transition digraph membership test (`(last nr, this nr)` must be
/// an edge of the installed [`FlowGraph`]), two orders of magnitude cheaper
/// but blind to in-edge forgeries. [`VerifyTier::MacPlusFlow`] runs the
/// flow test as a pre-filter and then the full MAC suite, accepting exactly
/// the intersection of the other two tiers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum VerifyTier {
    /// Only the syscall-transition digraph membership test.
    FlowOnly,
    /// Per-call MAC verification (the paper's scheme; the default).
    #[default]
    Mac,
    /// Flow test first, then the full MAC suite.
    MacPlusFlow,
}

impl VerifyTier {
    /// All tiers, in ascending-coverage order (benchmarks iterate this).
    pub const ALL: [VerifyTier; 3] = [
        VerifyTier::FlowOnly,
        VerifyTier::Mac,
        VerifyTier::MacPlusFlow,
    ];

    /// Short stable name (table rows, CLI flags).
    pub fn name(&self) -> &'static str {
        match self {
            VerifyTier::FlowOnly => "flow-only",
            VerifyTier::Mac => "mac",
            VerifyTier::MacPlusFlow => "mac+flow",
        }
    }

    /// Whether this tier runs the flow-digraph membership test.
    pub fn checks_flow(&self) -> bool {
        !matches!(self, VerifyTier::Mac)
    }

    /// Whether this tier runs the per-call MAC verification suite.
    pub fn checks_mac(&self) -> bool {
        !matches!(self, VerifyTier::FlowOnly)
    }
}

/// Kernel construction options.
#[derive(Clone, Debug)]
pub struct KernelOptions {
    /// OS personality (syscall numbering and quirks).
    pub personality: Personality,
    /// Enforce authenticated system calls (the binary must have been
    /// processed by the installer; every call is verified and
    /// unauthenticated calls kill the process).
    pub enforce: bool,
    /// §5.3 capability tracking: verify capability-bit arguments against
    /// the active-descriptor set and maintain it on open/close.
    pub capability_tracking: bool,
    /// §5.4 file-name normalisation is always performed by the path
    /// resolver (symlinks and dot components are canonicalised before
    /// use); this flag is informational and reserved for policies that
    /// would compare against pre-normalisation names.
    pub normalize_paths: bool,
    /// Charge deterministic cycle costs (disable for pure functional runs).
    pub charge_costs: bool,
    /// Enable the verified-call cache (the warm fast path): repeated
    /// identical calls skip AES recomputation and are charged only for the
    /// cryptographic work actually performed. Off by default so the
    /// performance tables reproduce the paper's (cache-less) prototype;
    /// the fast-path numbers are reported separately.
    pub verify_cache: bool,
    /// **Test-only** deliberate weakening: skip the authenticated-string
    /// contents check (`asc_core::VerifyHooks::accept_any_string`). Exists
    /// so the fault-injection campaign can prove its oracle detects a
    /// verifier that fails open; never enable outside that experiment.
    pub weaken_string_check: bool,
    /// Which verification tier enforced calls run (see [`VerifyTier`]).
    /// [`VerifyTier::Mac`] — the default — is byte-identical to the
    /// historical behaviour; the flow tiers additionally require a
    /// [`FlowGraph`] installed via [`Kernel::set_flow_graph`].
    pub verify_tier: VerifyTier,
}

impl KernelOptions {
    /// Options for running unmodified binaries (the baseline).
    pub fn plain(personality: Personality) -> KernelOptions {
        KernelOptions {
            personality,
            enforce: false,
            capability_tracking: false,
            normalize_paths: false,
            charge_costs: true,
            verify_cache: false,
            weaken_string_check: false,
            verify_tier: VerifyTier::Mac,
        }
    }

    /// Options for running installer-produced authenticated binaries.
    pub fn enforcing(personality: Personality) -> KernelOptions {
        KernelOptions {
            enforce: true,
            ..KernelOptions::plain(personality)
        }
    }

    /// Turns on the verified-call cache (see
    /// [`KernelOptions::verify_cache`]).
    pub fn with_verify_cache(self) -> KernelOptions {
        KernelOptions {
            verify_cache: true,
            ..self
        }
    }

    /// **Test-only**: deliberately weakens the verifier (see
    /// [`KernelOptions::weaken_string_check`]).
    pub fn with_weakened_string_check(self) -> KernelOptions {
        KernelOptions {
            weaken_string_check: true,
            ..self
        }
    }

    /// Selects the verification tier (see [`KernelOptions::verify_tier`]).
    pub fn with_tier(self, tier: VerifyTier) -> KernelOptions {
        KernelOptions {
            verify_tier: tier,
            ..self
        }
    }
}

/// A kernel-side fault the campaign can arm: when trap number `at_trap`
/// (1-based, counted over all trapped system calls) arrives, `action` is
/// applied once, before verification.
#[derive(Clone, Copy, Debug)]
pub struct TrapFault {
    /// Which trap fires the fault (compared against `KernelStats::syscalls`
    /// after it is incremented for the arriving trap).
    pub at_trap: u64,
    /// What to corrupt.
    pub action: FaultAction,
}

/// The kernel-side state a [`TrapFault`] corrupts. These model faults in
/// what the *kernel* trusts beyond raw user memory: the trapped register
/// values it reads, its anti-replay counter, and its verified-call cache.
#[derive(Clone, Copy, Debug)]
pub enum FaultAction {
    /// XOR `mask` into the verifier's copy of the register selected by
    /// `index` (the [`AuthCallRegs`] field order: 0 = syscall number,
    /// 1–6 = arguments, 7 = descriptor, 8 = block id, 9 = predecessor-set
    /// pointer, 10 = state pointer, 11 = MAC pointer, 12 = hint pointer).
    /// Only the copy handed to the verifier is corrupted — the machine's
    /// real register file is untouched, so a *benign* outcome stays
    /// possible when the verifier provably ignores the register.
    XorReg {
        /// Register index (0–12) as listed above.
        index: u8,
        /// XOR mask (forced to 1 if zero).
        mask: u32,
    },
    /// Skew the memory checker's anti-replay counter by `delta`.
    SkewCounter {
        /// Signed counter shift.
        delta: i64,
    },
    /// Corrupt one byte of one verified-call cache entry
    /// (`VerifyCache::corrupt_entry_for_fault`).
    CorruptCache {
        /// Deterministic entry/byte selector.
        selector: u64,
        /// XOR mask (forced to 1 if zero).
        mask: u8,
    },
    /// Shift the cached state entry's epoch into the future
    /// (`VerifyCache::skew_state_epoch_for_fault`), which the next check
    /// must scrub.
    SkewCacheEpoch {
        /// Epoch shift (forced to at least 1).
        delta: u64,
    },
}

/// The simulated kernel for one process.
pub struct Kernel {
    pub(crate) opts: KernelOptions,
    pub(crate) cost: CostModel,
    key: Option<MacKey>,
    pub(crate) fs: FileSystem,
    pub(crate) cwd: String,
    pub(crate) fds: Vec<Option<OpenFile>>,
    pub(crate) brk: u32,
    pub(crate) mmap_cursor: u32,
    checker: MemoryChecker,
    /// The verified-call cache. Private to this kernel, and there is one
    /// kernel per process, so an entry can never serve (or invalidate)
    /// another process's verification.
    verify_cache: VerifyCache,
    /// Process id, 1-based. Single-process harnesses keep the default 1
    /// (the historical alert rendering); a scheduler assigns real pids.
    pid: u32,
    /// The policy-state cell address (`R10`) of the most recent
    /// *successful* control-flow verification; isolation tests use it to
    /// replay one process's cell against another.
    last_policy_cell: Option<u32>,
    /// The installed syscall-transition digraph (required by the flow
    /// tiers; parsed and MAC-verified from `.ascflow` at load time, so the
    /// per-trap check is a pure set probe).
    flow: Option<FlowGraph>,
    /// The installed rewritten-site registry (parsed and MAC-verified
    /// from `.ascsites` at load time). When present, a trap whose pc is
    /// outside the set fail-stops before the flow and MAC paths under
    /// every tier — `SYSCALL` is a privilege of rewritten sites. `None`
    /// keeps the historical behaviour for registry-free harnesses.
    sites: Option<SiteRegistry>,
    /// The raw number of this process's most recent *dispatched* syscall —
    /// the flow check's `from` node. `None` (= [`FLOW_START`]) until the
    /// first call dispatches. Lives on the kernel, and there is one kernel
    /// per process, so flow state is per-pid by construction: one
    /// process's transitions can never satisfy (or poison) another's.
    last_syscall: Option<u16>,
    caps: CapabilitySet,
    pub(crate) stdin: Vec<u8>,
    pub(crate) stdin_pos: usize,
    pub(crate) stdout: Vec<u8>,
    pub(crate) stderr: Vec<u8>,
    pub(crate) console: Vec<u8>,
    pub(crate) sockets: Vec<Vec<u8>>,
    pub(crate) pipes: Vec<std::collections::VecDeque<u8>>,
    pub(crate) time_us: u64,
    pub(crate) umask: u32,
    pub(crate) hostname: String,
    pub(crate) exec_requests: Vec<String>,
    trace: Vec<TraceEntry>,
    log: Vec<Alert>,
    stats: KernelStats,
    fault: Option<TrapFault>,
    /// Flight-recorder sink. `None` (the default) means telemetry is off
    /// and the trap handler builds no events at all.
    trace_sink: Option<Box<dyn TraceSink>>,
    /// Metrics registry. `None` (the default) means no distributions are
    /// recorded; recording never feeds back into charged cycles.
    metrics: Option<Box<KernelMetrics>>,
    /// Next span id to allocate (one span per enforced trap).
    next_span: u64,
    /// Bytes moved by the last I/O-style call (input to the cost model).
    pub(crate) last_io_bytes: u64,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("personality", &self.opts.personality)
            .field("enforce", &self.opts.enforce)
            .field("syscalls", &self.stats.syscalls)
            .finish()
    }
}

impl Kernel {
    /// A kernel with a fresh default filesystem.
    pub fn new(opts: KernelOptions) -> Kernel {
        Kernel::with_fs(opts, FileSystem::new())
    }

    /// A kernel reusing an existing filesystem (multi-program benchmarks
    /// run tools sequentially over one tree).
    pub fn with_fs(opts: KernelOptions, fs: FileSystem) -> Kernel {
        let fds = vec![
            Some(OpenFile {
                kind: FdKind::Stdin,
                pos: 0,
                flags: 0,
            }),
            Some(OpenFile {
                kind: FdKind::Stdout,
                pos: 0,
                flags: 1,
            }),
            Some(OpenFile {
                kind: FdKind::Stderr,
                pos: 0,
                flags: 1,
            }),
        ];
        Kernel {
            opts,
            cost: CostModel::default(),
            key: None,
            fs,
            cwd: "/".to_string(),
            fds,
            brk: 0,
            mmap_cursor: 0x60_0000,
            checker: MemoryChecker::new(),
            verify_cache: VerifyCache::new(),
            pid: 1,
            last_policy_cell: None,
            flow: None,
            sites: None,
            last_syscall: None,
            caps: [0u32, 1, 2].into_iter().collect(),
            stdin: Vec::new(),
            stdin_pos: 0,
            stdout: Vec::new(),
            stderr: Vec::new(),
            console: Vec::new(),
            sockets: Vec::new(),
            pipes: Vec::new(),
            time_us: 1_119_900_000_000_000, // mid-2005, in µs
            umask: 0o022,
            hostname: "svm32".to_string(),
            exec_requests: Vec::new(),
            trace: Vec::new(),
            log: Vec::new(),
            stats: KernelStats::default(),
            fault: None,
            trace_sink: None,
            metrics: None,
            next_span: 0,
            last_io_bytes: 0,
        }
    }

    /// Installs the verification key (the kernel side of the shared secret;
    /// required when `enforce` is on). Every cached verification was
    /// performed under the previous key, so the verified-call cache is
    /// dropped wholesale.
    pub fn set_key(&mut self, key: MacKey) {
        self.key = Some(key);
        self.verify_cache.clear();
    }

    /// Behaviour counters of the verified-call cache (all zero when the
    /// cache is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.verify_cache.stats()
    }

    /// Read-only view of this process's verified-call cache.
    pub fn verify_cache(&self) -> &VerifyCache {
        &self.verify_cache
    }

    /// Assigns this kernel's process id (1-based; the default is 1, which
    /// preserves the historical single-process alert rendering and span
    /// ids). A scheduler calls this once per spawned process, before the
    /// process runs.
    pub fn set_pid(&mut self, pid: u32) {
        debug_assert!(pid >= 1, "pids are 1-based");
        self.pid = pid;
    }

    /// This kernel's process id.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// The in-kernel anti-replay counter (the per-process nonce the
    /// policy-state MAC is keyed by). Isolation tests compare counters
    /// across processes; nothing outside the kernel may change it.
    pub fn policy_counter(&self) -> u64 {
        self.checker.counter()
    }

    /// The policy-state cell address of the most recent successful
    /// control-flow verification, if any (see the field docs).
    pub fn last_policy_cell(&self) -> Option<u32> {
        self.last_policy_cell
    }

    /// Installs the syscall-transition digraph the flow tiers check
    /// against (parse it from the binary's `.ascflow` section with
    /// [`FlowGraph::parse`], which verifies its MAC). Required when
    /// [`KernelOptions::verify_tier`] checks flow; ignored under
    /// [`VerifyTier::Mac`].
    pub fn set_flow_graph(&mut self, flow: FlowGraph) {
        self.flow = Some(flow);
    }

    /// Installs the rewritten-site registry the origin check enforces
    /// (parse it from the binary's `.ascsites` section with
    /// [`SiteRegistry::parse`], which verifies its MAC). Once set, any
    /// trap from a pc outside the set is a fail-stop
    /// [`Violation::UnrewrittenSite`] kill under every tier, before the
    /// flow and MAC paths run.
    pub fn set_site_registry(&mut self, sites: SiteRegistry) {
        self.sites = Some(sites);
    }

    /// The installed rewritten-site registry, if any.
    pub fn site_registry(&self) -> Option<&SiteRegistry> {
        self.sites.as_ref()
    }

    /// The raw number of this process's most recent dispatched syscall
    /// (`None` until the first call dispatches) — the flow check's `from`
    /// node. Isolation tests assert this never leaks across pids.
    pub fn last_syscall(&self) -> Option<u16> {
        self.last_syscall
    }

    /// Arms one kernel-side fault for the fault-injection campaign; it
    /// fires on trap number `fault.at_trap` and is then disarmed. Only one
    /// fault can be armed at a time (campaigns inject exactly one per run).
    pub fn arm_fault(&mut self, fault: TrapFault) {
        self.fault = Some(fault);
    }

    /// Fault-injection hook: corrupts one entry of this process's verify
    /// cache right now, between traps (see
    /// [`VerifyCache::corrupt_entry_for_fault`]). Returns the kind of entry
    /// corrupted, or `None` when the cache is empty.
    pub fn corrupt_cache_entry_for_fault(
        &mut self,
        selector: u64,
        mask: u8,
    ) -> Option<&'static str> {
        self.verify_cache.corrupt_entry_for_fault(selector, mask)
    }

    /// Replaces the cost model.
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.cost = cost;
    }

    /// Provides the process's standard input.
    pub fn set_stdin(&mut self, bytes: impl Into<Vec<u8>>) {
        self.stdin = bytes.into();
        self.stdin_pos = 0;
    }

    /// Sets the initial program break (done by the loader from the
    /// binary's highest address). Rounded up to a page boundary so heap
    /// pages never share protection with the last loaded section.
    pub fn set_brk(&mut self, brk: u32) {
        self.brk = brk.div_ceil(0x1000) * 0x1000;
    }

    /// Captured standard output.
    pub fn stdout(&self) -> &[u8] {
        &self.stdout
    }

    /// Captured standard error.
    pub fn stderr(&self) -> &[u8] {
        &self.stderr
    }

    /// Captured console device output.
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    /// The filesystem.
    pub fn fs(&self) -> &FileSystem {
        &self.fs
    }

    /// Mutable filesystem access (test fixtures, benchmark setup).
    pub fn fs_mut(&mut self) -> &mut FileSystem {
        &mut self.fs
    }

    /// Consumes the kernel, returning its filesystem (to thread through a
    /// multi-program benchmark).
    pub fn into_fs(self) -> FileSystem {
        self.fs
    }

    /// The recorded syscall trace.
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// Administrator alerts (policy violations), newest last. Each alert
    /// carries the call site, syscall, and structured [`Violation`];
    /// render with `Display` for the classic log line.
    pub fn alerts(&self) -> &[Alert] {
        &self.log
    }

    /// Attaches a flight-recorder sink. The trap handler emits one span
    /// per enforced call (enter, per-check records, exit or kill) into it.
    /// With no sink attached — the default — no events are built and no
    /// cycles change: telemetry never perturbs the paper tables.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace_sink = Some(sink);
    }

    /// Detaches and returns the flight-recorder sink, if any (use
    /// [`asc_trace::TraceSink::into_any`] to recover the concrete type).
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace_sink.take()
    }

    /// Attaches a fresh metrics registry (off by default). The trap
    /// handler then records per-call histograms of verification cycles,
    /// AES blocks, and bytes touched — labeled by cache path and check
    /// family — plus syscall/kill/cache-outcome counters. Recording never
    /// changes charged cycles or `KernelStats` (the no-perturbation rule).
    pub fn attach_metrics(&mut self) {
        self.metrics = Some(Box::new(KernelMetrics::new()));
    }

    /// Installs an existing metrics registry: a multi-kernel benchmark
    /// threads one registry through every kernel so the final distributions
    /// cover the whole run.
    pub fn set_metrics(&mut self, metrics: Box<KernelMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Detaches and returns the metrics registry, if one was attached.
    pub fn take_metrics(&mut self) -> Option<Box<KernelMetrics>> {
        self.metrics.take()
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&KernelMetrics> {
        self.metrics.as_deref()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// `execve` calls that were *permitted* (the simulator records rather
    /// than chain-loads).
    pub fn exec_requests(&self) -> &[String] {
        &self.exec_requests
    }

    /// Current working directory.
    pub fn cwd(&self) -> &str {
        &self.cwd
    }

    /// The OS personality this kernel speaks.
    pub fn personality(&self) -> Personality {
        self.opts.personality
    }

    pub(crate) fn alloc_fd(&mut self, file: OpenFile) -> u32 {
        for (i, slot) in self.fds.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(file);
                return i as u32;
            }
        }
        self.fds.push(Some(file));
        (self.fds.len() - 1) as u32
    }

    pub(crate) fn fd(&mut self, fd: u32) -> Option<&mut OpenFile> {
        self.fds.get_mut(fd as usize).and_then(|s| s.as_mut())
    }

    fn handle_trap(&mut self, ctx: &mut TrapContext<'_>) -> TrapOutcome {
        self.stats.syscalls += 1;
        if let Some(m) = self.metrics.as_mut() {
            let id = m.syscalls;
            m.inc(id);
        }
        let mut charged = 0u64;
        if self.opts.charge_costs {
            charged += self.cost.trap_base;
        }

        // --- The paper's kernel modification: verify before dispatch. ---
        if self.opts.enforce {
            // Borrow the long-lived key: its AES round keys and CMAC
            // subkeys were expanded once at `set_key` time and are reused
            // for every trap (re-deriving the schedule per call would
            // dwarf the short-message MAC itself). A fleet goes one step
            // further and shares one expanded schedule across every
            // kernel (`MacKey::shared_schedule`).
            let Some(key) = self.key.as_ref() else {
                return TrapOutcome::Kill("kernel misconfigured: enforcing without a key".into());
            };
            // Telemetry is armed only when a sink is attached *and* wants
            // events; otherwise no span is allocated, no meter records,
            // and no event is ever built (the no-perturbation rule).
            let tracing = self.trace_sink.as_ref().is_some_and(|s| s.enabled());
            // The span carries the pid dimension in its high bits; for the
            // default pid 1 this is the identity encoding, so
            // single-process trace output is byte-identical.
            let span = SpanId::for_pid(self.pid, self.next_span);
            if tracing {
                self.next_span += 1;
                if let Some(sink) = self.trace_sink.as_mut() {
                    sink.record(Event {
                        span,
                        at_cycles: ctx.cycles(),
                        severity: Severity::Info,
                        kind: EventKind::TrapEnter {
                            site: ctx.pc,
                            nr: ctx.reg(Reg::R0) as u16,
                        },
                    });
                }
            }
            let fired = match &self.fault {
                Some(f) if f.at_trap == self.stats.syscalls => self.fault.take(),
                _ => None,
            };
            let mut regs = AuthCallRegs {
                nr: ctx.reg(Reg::R0),
                call_site: ctx.pc,
                args: [
                    ctx.reg(Reg::R1),
                    ctx.reg(Reg::R2),
                    ctx.reg(Reg::R3),
                    ctx.reg(Reg::R4),
                    ctx.reg(Reg::R5),
                    ctx.reg(Reg::R6),
                ],
                pol_des: ctx.reg(Reg::R7),
                block_id: ctx.reg(Reg::R8),
                pred_set_ptr: ctx.reg(Reg::R9),
                lb_ptr: ctx.reg(Reg::R10),
                call_mac_ptr: ctx.reg(Reg::R11),
                hint_ptr: ctx.reg(Reg::R12),
            };
            if let Some(f) = fired {
                match f.action {
                    FaultAction::XorReg { index, mask } => {
                        let mask = if mask == 0 { 1 } else { mask };
                        match index {
                            0 => regs.nr ^= mask,
                            1..=6 => regs.args[index as usize - 1] ^= mask,
                            7 => regs.pol_des ^= mask,
                            8 => regs.block_id ^= mask,
                            9 => regs.pred_set_ptr ^= mask,
                            10 => regs.lb_ptr ^= mask,
                            11 => regs.call_mac_ptr ^= mask,
                            _ => regs.hint_ptr ^= mask,
                        }
                    }
                    FaultAction::SkewCounter { delta } => {
                        self.checker.skew_counter_for_fault(delta);
                    }
                    FaultAction::CorruptCache { selector, mask } => {
                        self.verify_cache.corrupt_entry_for_fault(selector, mask);
                    }
                    FaultAction::SkewCacheEpoch { delta } => {
                        self.verify_cache.skew_state_epoch_for_fault(delta);
                    }
                }
            }
            // The metrics registry needs the per-check partition too, so
            // the meter records whenever either consumer is attached.
            let metering = self.metrics.is_some();
            let mut meter = if tracing || metering {
                CallMeter::recording()
            } else {
                CallMeter::disabled()
            };
            // --- Origin privilege: the trap pc must be a rewritten site. ---
            // Checked on the *trusted* trap pc (not the verifier's
            // register copy — the pc comes from the trap itself and
            // cannot be forged) before the flow and MAC paths, under
            // every tier: a raw `SYSCALL` gadget outside the installed
            // `.ascsites` registry has no policy to verify, so the only
            // sound response is an immediate fail-stop — zero side
            // effects, zero AES work. Silent on the pass path (a pure
            // set probe charged no cycles), so registry-free harnesses
            // and existing traces are byte-identical.
            if let Some(sites) = self.sites.as_ref() {
                if !sites.contains(ctx.pc) {
                    let violation = Violation::UnrewrittenSite { pc: ctx.pc };
                    return self.kill(ctx, charged, span, tracing, &violation);
                }
            }
            // --- The SFIP flow tier: digraph membership pre-filter. ---
            // Checked on the verifier's copy of the registers (so armed
            // faults hit it like every other check) and *before* the MAC
            // suite and dispatch: a bad edge fail-stops with zero side
            // effects and zero AES work.
            let tier = self.opts.verify_tier;
            if tier.checks_flow() {
                let Some(flow) = self.flow.as_ref() else {
                    return TrapOutcome::Kill(
                        "kernel misconfigured: flow tier without a digraph".into(),
                    );
                };
                let from = self.last_syscall.unwrap_or(FLOW_START);
                let to = regs.nr as u16;
                let passed = flow.contains(from, to);
                meter.record(CheckRecord {
                    kind: CheckKind::FlowEdge,
                    passed,
                    aes_blocks: 0,
                    bytes: 0,
                    cache: CacheDecision::Disabled,
                });
                if !passed {
                    if tracing {
                        let at = ctx.cycles();
                        if let Some(sink) = self.trace_sink.as_mut() {
                            // Killed calls are charged no verification
                            // cycles (same convention as a MAC failure).
                            for record in &meter.checks {
                                sink.record(Event {
                                    span,
                                    at_cycles: at,
                                    severity: Severity::Warn,
                                    kind: EventKind::Check {
                                        record: *record,
                                        cycles: 0,
                                    },
                                });
                            }
                        }
                    }
                    let violation = Violation::BadFlowEdge { from, to };
                    return self.kill(ctx, charged, span, tracing, &violation);
                }
            }
            let mut mem = VmUserMemory(ctx.mem);
            let caps = &self.caps;
            let tracking = self.opts.capability_tracking;
            let mut cap_check = |fd: u32| caps.contains(fd);
            let hooks = VerifyHooks {
                accept_any_string: self.opts.weaken_string_check,
            };
            // With no cache in play the stats are identically zero, so the
            // deltas below are zero too.
            let caching = self.opts.verify_cache && tier.checks_mac();
            let cache_before = if caching {
                self.verify_cache.stats()
            } else {
                CacheStats::default()
            };
            let cache = caching.then_some(&mut self.verify_cache);
            // Flow-only skips the MAC suite entirely: the digraph probe
            // above *is* the verification, and the outcome carries zero
            // AES blocks, zero bytes, and no cache participation.
            let result = if tier.checks_mac() {
                verify_call_traced(
                    key,
                    &mut self.checker,
                    cache,
                    &mut mem,
                    &regs,
                    tracking.then_some(&mut cap_check as &mut dyn FnMut(u32) -> bool),
                    hooks,
                    &mut meter,
                )
            } else {
                Ok(VerifyOutcome::default())
            };
            let cache_after = if caching {
                self.verify_cache.stats()
            } else {
                CacheStats::default()
            };
            let fallback_delta = cache_after.stale_misses - cache_before.stale_misses;
            let scrub_delta = cache_after.scrubs - cache_before.scrubs;
            self.stats.cache_fallbacks += fallback_delta;
            self.stats.cache_scrubs += scrub_delta;
            match result {
                Ok(outcome) => {
                    self.stats.verified += 1;
                    // Advance the flow state: this (verified) call is the
                    // next call's predecessor. Tracked under every tier so
                    // switching tiers never changes what the state means.
                    self.last_syscall = Some(regs.nr as u16);
                    if tier.checks_mac() && regs.lb_ptr != 0 {
                        self.last_policy_cell = Some(regs.lb_ptr);
                    }
                    self.stats.verify_aes_blocks += outcome.aes_blocks;
                    if outcome.cache_hit {
                        self.stats.cache_hits += 1;
                        self.stats.warm_aes_blocks += outcome.aes_blocks;
                    }
                    // Charged verification cycles: the fixed flow-probe
                    // term under the flow tiers, plus the metered MAC cost
                    // under the MAC tiers — so mac+flow is priced as
                    // exactly mac plus the probe.
                    let vc = if self.opts.charge_costs {
                        let flow_term = if tier.checks_flow() {
                            self.cost.flow_check
                        } else {
                            0
                        };
                        let mac_term = if tier.checks_mac() {
                            self.cost.verify_cost_for(&outcome)
                        } else {
                            0
                        };
                        flow_term + mac_term
                    } else {
                        0
                    };
                    if self.opts.charge_costs {
                        self.stats.verify_cycles += vc;
                        if outcome.cache_hit {
                            self.stats.warm_verify_cycles += vc;
                        }
                        charged += vc;
                    }
                    // The warm counters partition the totals; a violation
                    // here means warm work was double counted somewhere.
                    debug_assert!(
                        self.stats.warm_aes_blocks <= self.stats.verify_aes_blocks,
                        "warm AES blocks exceed total"
                    );
                    debug_assert!(
                        self.stats.warm_verify_cycles <= self.stats.verify_cycles,
                        "warm verify cycles exceed total"
                    );
                    debug_assert!(
                        self.stats.cache_hits + self.stats.cache_fallbacks <= self.stats.verified,
                        "more cache outcomes than verified calls"
                    );
                    if let Some(m) = self.metrics.as_mut() {
                        let path = if outcome.cache_hit {
                            PATH_WARM
                        } else if fallback_delta > 0 {
                            PATH_FALLBACK
                        } else if scrub_delta > 0 {
                            PATH_SCRUB
                        } else {
                            PATH_COLD
                        };
                        let charge_costs = self.opts.charge_costs;
                        // The per-call fixed term is a MAC-suite cost; the
                        // flow probe's whole cost lives in its check
                        // record, so flow-only's fixed term is zero and
                        // the check/fixed partition still reconstructs vc.
                        let fixed = if charge_costs && tier.checks_mac() {
                            self.cost.verify_fixed_for(outcome.cache_hit)
                        } else {
                            0
                        };
                        m.record_verified(
                            path,
                            vc,
                            fixed,
                            &outcome,
                            &meter.checks,
                            &self.cost,
                            charge_costs,
                            self.opts.verify_cache,
                        );
                    }
                    if tracing {
                        let at = ctx.cycles();
                        let fixed = if self.opts.charge_costs && tier.checks_mac() {
                            self.cost.verify_fixed_for(outcome.cache_hit)
                        } else {
                            0
                        };
                        let cost = self.cost;
                        let charge_costs = self.opts.charge_costs;
                        if let Some(sink) = self.trace_sink.as_mut() {
                            for record in &meter.checks {
                                let cycles = if charge_costs {
                                    cost.check_cost_of(record)
                                } else {
                                    0
                                };
                                sink.record(Event {
                                    span,
                                    at_cycles: at,
                                    severity: Severity::Info,
                                    kind: EventKind::Check {
                                        record: *record,
                                        cycles,
                                    },
                                });
                            }
                            sink.record(Event {
                                span,
                                at_cycles: at,
                                severity: Severity::Info,
                                kind: EventKind::TrapExit {
                                    verified: true,
                                    cache_hit: outcome.cache_hit,
                                    verify_cycles: vc,
                                    fixed_cycles: fixed,
                                },
                            });
                        }
                    }
                }
                Err(violation) => {
                    if tracing {
                        let at = ctx.cycles();
                        if let Some(sink) = self.trace_sink.as_mut() {
                            // Failed calls are charged no verification
                            // cycles, so the per-check cycle attribution
                            // is 0; the AES blocks they burnt are real
                            // and are reported.
                            for record in &meter.checks {
                                sink.record(Event {
                                    span,
                                    at_cycles: at,
                                    severity: if record.passed {
                                        Severity::Info
                                    } else {
                                        Severity::Warn
                                    },
                                    kind: EventKind::Check {
                                        record: *record,
                                        cycles: 0,
                                    },
                                });
                            }
                        }
                    }
                    return self.kill(ctx, charged, span, tracing, &violation);
                }
            }
        }

        // --- Resolve the call, including OpenBSD __syscall indirection. ---
        let raw_nr = ctx.reg(Reg::R0) as u16;
        let mut args = [
            ctx.reg(Reg::R1),
            ctx.reg(Reg::R2),
            ctx.reg(Reg::R3),
            ctx.reg(Reg::R4),
            ctx.reg(Reg::R5),
            ctx.reg(Reg::R6),
        ];
        let mut id = match self.opts.personality.id(raw_nr) {
            Some(id) => id,
            None => {
                // Unknown syscall number: ENOSYS for plain kernels. (An
                // enforcing kernel never reaches here with a forged number
                // — the MAC check fails first.)
                ctx.set_reg(Reg::R0, (-38i32) as u32);
                if self.opts.charge_costs {
                    ctx.charge(charged);
                    self.stats.kernel_cycles += charged;
                }
                return TrapOutcome::Continue;
            }
        };
        if id == SyscallId::IndirectSyscall {
            let inner_nr = args[0] as u16;
            args = [args[1], args[2], args[3], args[4], args[5], 0];
            id = match self.opts.personality.id(inner_nr) {
                Some(inner) if inner != SyscallId::IndirectSyscall => inner,
                _ => {
                    ctx.set_reg(Reg::R0, (-38i32) as u32);
                    if self.opts.charge_costs {
                        ctx.charge(charged);
                        self.stats.kernel_cycles += charged;
                    }
                    return TrapOutcome::Continue;
                }
            };
        }
        self.trace.push(TraceEntry {
            id,
            raw_nr,
            site: ctx.pc,
        });

        // --- Dispatch. ---
        let outcome = self.dispatch(id, args, ctx);

        if self.opts.charge_costs {
            let handler = self.cost.handler_cost(id, self.last_io_bytes);
            charged += handler;
            ctx.charge(charged);
            self.stats.kernel_cycles += charged;
        }

        // --- Capability maintenance (§5.3). ---
        if self.opts.capability_tracking {
            let ret = ctx.reg(Reg::R0);
            if spec(id).returns_fd && (ret as i32) >= 0 {
                self.caps.insert(ret);
            }
            if spec(id).closes_fd && ctx.reg(Reg::R0) == 0 {
                self.caps.remove(args[0]);
            }
        }
        self.sync_ring_gauge();
        outcome
    }

    /// Mirrors the trace ring's drop counter into the metrics gauge when
    /// both a sink and a registry are attached. Read-only on the sink and
    /// off the charged path, so attaching metrics never perturbs traced
    /// cycle streams.
    fn sync_ring_gauge(&mut self) {
        if let (Some(sink), Some(m)) = (self.trace_sink.as_ref(), self.metrics.as_mut()) {
            m.set_ring_dropped(sink.dropped());
        }
    }

    fn kill(
        &mut self,
        ctx: &mut TrapContext<'_>,
        charged: u64,
        span: SpanId,
        tracing: bool,
        violation: &Violation,
    ) -> TrapOutcome {
        let site = ctx.pc;
        let nr = ctx.reg(Reg::R0) as u16;
        let alert = Alert {
            pid: self.pid,
            site,
            nr,
            name: self.opts.personality.name_of(nr).to_string(),
            violation: violation.clone(),
        };
        let msg = alert.to_string();
        if let Some(m) = self.metrics.as_mut() {
            let id = m.kills;
            m.inc(id);
        }
        if tracing {
            if let Some(sink) = self.trace_sink.as_mut() {
                sink.record(Event {
                    span,
                    at_cycles: ctx.cycles(),
                    severity: Severity::Alert,
                    kind: EventKind::Kill {
                        site,
                        nr,
                        reason: alert.reason(),
                    },
                });
            }
        }
        self.log.push(alert);
        self.sync_ring_gauge();
        if self.opts.charge_costs {
            ctx.charge(charged);
            self.stats.kernel_cycles += charged;
        }
        TrapOutcome::Kill(msg)
    }
}

impl SyscallHandler for Kernel {
    fn syscall(&mut self, ctx: &mut TrapContext<'_>) -> TrapOutcome {
        self.handle_trap(ctx)
    }
}

/// Adapter exposing VM memory to `asc-core`'s verifier through kernel-mode
/// accessors (the kernel may read/write any mapped page).
struct VmUserMemory<'a>(&'a mut Memory);

fn fault(addr: u32) -> Violation {
    Violation::MemoryFault { addr }
}

fn fault_of(f: MemFault) -> Violation {
    match f {
        MemFault::OutOfRange { addr }
        | MemFault::NoRead { addr }
        | MemFault::NoWrite { addr }
        | MemFault::NoExec { addr } => fault(addr),
    }
}

impl UserMemory for VmUserMemory<'_> {
    fn read_u32(&self, addr: u32) -> Result<u32, Violation> {
        self.0.kread_u32(addr).map_err(fault_of)
    }
    fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, Violation> {
        self.0.kread(addr, len).map_err(fault_of)
    }
    fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Violation> {
        self.0.kwrite(addr, bytes).map_err(fault_of)
    }
}
