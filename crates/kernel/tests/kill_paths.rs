//! Pins the trap handler's observable output for every kill path and for
//! one passing trap per tier: the exact trace events of the trap's span,
//! the metrics it records, and the `KernelStats` and cycle deltas it
//! leaves. Every case looks at the guest's first trap (`open` of an
//! authenticated path), so each kill ends the run there.
//!
//! The rules pinned here:
//! * a kill charges exactly `trap_base` cycles, records no verification
//!   histogram, bumps `asc_kills_total`, and closes its span with `Kill`;
//! * per-check `cycles` are 0 on a kill and the cost model's charge on a
//!   pass, where `TrapExit` carries the charged and fixed verify terms;
//! * the two misconfiguration kills ("no key", "flow tier without a
//!   digraph") charge nothing, raise no alert and count no kill; the first
//!   dies before `TrapEnter`, the second after it.

use asc_crypto::MacKey;
use asc_installer::{Installer, InstallerOptions};
use asc_kernel::{
    CostModel, FaultAction, FlowGraph, Kernel, KernelOptions, KernelStats, Personality,
    SiteRegistry, TrapFault, VerifyTier,
};
use asc_metrics::MetricValue;
use asc_object::Binary;
use asc_trace::{Event, EventKind, RingSink, SpanId};
use asc_vm::{Machine, RunOutcome, SyscallHandler, TrapContext, TrapOutcome};

const PERSONALITY: Personality = Personality::Linux;

const GUEST: &str = r#"
fn main() {
    let fd = open("/etc/motd", 0, 0);
    close(fd);
    getpid();
    return 0;
}
"#;

/// What one trap changed.
struct TrapDelta {
    cycles_before: u64,
    cycles: u64,
    stats: KernelStats,
    metrics: Vec<String>,
}

/// Wraps the kernel and records the delta of every trap it handles.
struct Probe {
    kernel: Kernel,
    traps: Vec<TrapDelta>,
}

impl SyscallHandler for Probe {
    fn syscall(&mut self, ctx: &mut TrapContext<'_>) -> TrapOutcome {
        let cycles_before = ctx.cycles();
        let stats_before = *self.kernel.stats();
        let metrics_before = self.kernel.metrics().map(|m| m.snapshot());
        let out = self.kernel.syscall(ctx);
        let after = self.kernel.metrics().expect("metrics attached").snapshot();
        let diff = after.diff(&metrics_before.expect("metrics attached"));
        self.traps.push(TrapDelta {
            cycles_before,
            cycles: ctx.cycles() - cycles_before,
            stats: stats_delta(self.kernel.stats(), &stats_before),
            metrics: render_metrics(&diff),
        });
        out
    }
}

fn stats_delta(a: &KernelStats, b: &KernelStats) -> KernelStats {
    KernelStats {
        syscalls: a.syscalls - b.syscalls,
        verified: a.verified - b.verified,
        verify_aes_blocks: a.verify_aes_blocks - b.verify_aes_blocks,
        verify_cycles: a.verify_cycles - b.verify_cycles,
        kernel_cycles: a.kernel_cycles - b.kernel_cycles,
        cache_hits: a.cache_hits - b.cache_hits,
        warm_aes_blocks: a.warm_aes_blocks - b.warm_aes_blocks,
        warm_verify_cycles: a.warm_verify_cycles - b.warm_verify_cycles,
        cache_fallbacks: a.cache_fallbacks - b.cache_fallbacks,
        cache_scrubs: a.cache_scrubs - b.cache_scrubs,
    }
}

/// Every counter and histogram the trap touched, as `name{labels} ...`.
fn render_metrics(diff: &asc_metrics::Snapshot) -> Vec<String> {
    diff.entries()
        .filter_map(|(key, value)| match value {
            MetricValue::Counter(n) if *n > 0 => Some(format!("{} +{n}", key.render())),
            MetricValue::Histogram(h) if h.count() > 0 => {
                Some(format!("{} n={} sum={}", key.render(), h.count(), h.sum()))
            }
            _ => None,
        })
        .collect()
}

/// One event as a line: severity, kind and every payload field.
fn render_event(event: &Event) -> String {
    let body = match &event.kind {
        EventKind::TrapEnter { nr, .. } => format!("enter nr={nr}"),
        EventKind::Check { record, cycles } => format!(
            "check {} passed={} aes={} bytes={} cache={} cycles={cycles}",
            record.kind.name(),
            record.passed,
            record.aes_blocks,
            record.bytes,
            record.cache.name()
        ),
        EventKind::TrapExit {
            verified,
            cache_hit,
            verify_cycles,
            fixed_cycles,
        } => format!(
            "exit verified={verified} hit={cache_hit} verify={verify_cycles} fixed={fixed_cycles}"
        ),
        EventKind::Kill { nr, reason, .. } => format!("kill nr={nr} reason={reason}"),
        EventKind::InstallerPass { pass, .. } => format!("pass {pass}"),
    };
    format!("{:?} {body}", event.severity)
}

fn key() -> MacKey {
    MacKey::from_seed(0x0C1_11A7)
}

fn installed() -> Binary {
    let plain = asc_workloads::build_source(GUEST, PERSONALITY).expect("guest builds");
    let installer = Installer::new(key(), InstallerOptions::new(PERSONALITY).with_program_id(5));
    installer.install(&plain, "killguest").expect("installs").0
}

/// How a case configures the kernel and the guest before it runs.
#[derive(Clone, Copy)]
enum Setup {
    /// Installed artifacts, untouched.
    Clean,
    /// An empty `.ascsites` registry: the first trap is unrewritten.
    NoSites,
    /// An empty flow digraph: the first transition is not an edge.
    NoEdges,
    /// The verifier's copy of the block id is corrupted (call MAC fails).
    BadBlockId,
    /// The authenticated path's contents are overwritten in memory.
    BadString,
    /// A flow tier with no digraph installed.
    NoDigraph,
    /// An enforcing kernel with no key.
    NoKey,
}

struct Case {
    outcome: RunOutcome,
    trap: TrapDelta,
    events: Vec<String>,
    alerts: usize,
}

fn run(tier: VerifyTier, cached: bool, setup: Setup) -> Case {
    let binary = installed();
    let mut opts = KernelOptions::enforcing(PERSONALITY).with_tier(tier);
    if cached {
        opts = opts.with_verify_cache();
    }
    let mut kernel = Kernel::new(opts);
    if !matches!(setup, Setup::NoKey) {
        kernel.set_key(key());
    }
    let sites = match setup {
        Setup::NoSites => SiteRegistry::new(),
        _ => asc_workloads::sites_of(&binary, &key()),
    };
    kernel.set_site_registry(sites);
    match setup {
        Setup::NoDigraph => {}
        Setup::NoEdges => kernel.set_flow_graph(FlowGraph::new()),
        _ => kernel.set_flow_graph(asc_workloads::flow_graph_of(&binary, &key())),
    }
    if matches!(setup, Setup::BadBlockId) {
        kernel.arm_fault(TrapFault {
            at_trap: 1,
            action: FaultAction::XorReg { index: 8, mask: 1 },
        });
    }
    kernel.set_brk(binary.highest_addr());
    kernel.attach_metrics();
    kernel.set_trace_sink(Box::new(RingSink::new(4096)));
    let probe = Probe {
        kernel,
        traps: Vec::new(),
    };
    let mut machine = Machine::load(&binary, probe).expect("loads");
    if matches!(setup, Setup::BadString) {
        let addr = find_bytes(&binary, b"/etc/motd\0").expect("path present");
        machine
            .mem_mut()
            .kwrite(addr, b"/etc/pass")
            .expect("path mapped");
    }
    let outcome = machine.run(10_000_000);
    let mut probe = machine.into_handler();
    let sink = probe.kernel.take_trace_sink().expect("sink attached");
    let ring = sink.into_any().downcast::<RingSink>().expect("a RingSink");
    let trap = probe.traps.remove(0);
    let span: Vec<&Event> = ring.events().filter(|e| e.span == SpanId(0)).collect();
    for event in &span {
        assert_eq!(event.at_cycles, trap.cycles_before, "{event:?}");
    }
    Case {
        outcome,
        trap,
        events: span.iter().map(|e| render_event(e)).collect(),
        alerts: probe.kernel.alerts().len(),
    }
}

/// Load address of `needle` in the authenticated-string section.
fn find_bytes(binary: &Binary, needle: &[u8]) -> Option<u32> {
    let section = binary.section_by_name(".asc")?;
    let offset = section
        .data
        .windows(needle.len())
        .position(|w| w == needle)?;
    Some(section.addr + offset as u32)
}

fn trap_base() -> u64 {
    CostModel::default().trap_base
}

/// Asserts a kill at the first trap: the exact span, one alert, the
/// syscall and kill counters only, and exactly `trap_base` cycles.
fn assert_kill(case: &Case, events: &[&str]) {
    assert!(case.outcome.is_killed(), "{:?}", case.outcome);
    assert_eq!(case.events, events);
    assert_eq!(case.alerts, 1);
    assert_eq!(
        case.trap.metrics,
        ["asc_kills_total +1", "asc_syscalls_total +1"]
    );
    assert_eq!(case.trap.cycles, trap_base());
    assert_eq!(
        case.trap.stats,
        KernelStats {
            syscalls: 1,
            kernel_cycles: trap_base(),
            ..KernelStats::default()
        }
    );
}

#[test]
fn unrewritten_site_kills_before_any_check_under_every_tier() {
    for tier in VerifyTier::ALL {
        let case = run(tier, false, Setup::NoSites);
        assert_kill(
            &case,
            &["Info enter nr=5", "Alert kill nr=5 reason=unrewritten-site"],
        );
    }
}

#[test]
fn bad_flow_edge_kills_after_the_edge_check() {
    for tier in [VerifyTier::FlowOnly, VerifyTier::MacPlusFlow] {
        let case = run(tier, false, Setup::NoEdges);
        assert_kill(
            &case,
            &[
                "Info enter nr=5",
                "Warn check flow-edge passed=false aes=0 bytes=0 cache=disabled cycles=0",
                "Alert kill nr=5 reason=bad-flow-edge",
            ],
        );
    }
}

#[test]
fn bad_call_mac_kills_with_uncharged_checks() {
    let case = run(VerifyTier::Mac, false, Setup::BadBlockId);
    assert_kill(
        &case,
        &[
            "Info enter nr=5",
            "Warn check call-mac passed=false aes=5 bytes=0 cache=disabled cycles=0",
            "Alert kill nr=5 reason=bad-call-mac",
        ],
    );
    let case = run(VerifyTier::MacPlusFlow, false, Setup::BadBlockId);
    assert_kill(
        &case,
        &[
            "Info enter nr=5",
            "Info check flow-edge passed=true aes=0 bytes=0 cache=disabled cycles=0",
            "Warn check call-mac passed=false aes=5 bytes=0 cache=disabled cycles=0",
            "Alert kill nr=5 reason=bad-call-mac",
        ],
    );
}

#[test]
fn string_mac_kill_follows_a_passing_call_mac() {
    let case = run(VerifyTier::Mac, false, Setup::BadString);
    assert_kill(
        &case,
        &[
            "Info enter nr=5",
            "Info check call-mac passed=true aes=5 bytes=0 cache=disabled cycles=0",
            "Warn check auth-string passed=false aes=1 bytes=10 cache=disabled cycles=0",
            "Alert kill nr=5 reason=bad-string-mac",
        ],
    );
}

#[test]
fn flow_tier_without_a_digraph_dies_after_trap_enter_uncharged() {
    let case = run(VerifyTier::FlowOnly, false, Setup::NoDigraph);
    assert_eq!(
        case.outcome,
        RunOutcome::Killed("kernel misconfigured: flow tier without a digraph".into())
    );
    assert_eq!(case.events, ["Info enter nr=5"]);
    assert_eq!(case.alerts, 0);
    assert_eq!(case.trap.metrics, ["asc_syscalls_total +1"]);
    assert_eq!(case.trap.cycles, 0);
    assert_eq!(
        case.trap.stats,
        KernelStats {
            syscalls: 1,
            ..KernelStats::default()
        }
    );
}

#[test]
fn missing_key_dies_before_trap_enter_uncharged() {
    let case = run(VerifyTier::Mac, false, Setup::NoKey);
    assert_eq!(
        case.outcome,
        RunOutcome::Killed("kernel misconfigured: enforcing without a key".into())
    );
    assert!(case.events.is_empty(), "{:?}", case.events);
    assert_eq!(case.alerts, 0);
    assert_eq!(case.trap.metrics, ["asc_syscalls_total +1"]);
    assert_eq!(case.trap.cycles, 0);
}

/// Asserts a passing first trap: the span, the metrics it records and
/// the stats it adds; the trap is charged exactly its kernel cycles.
fn assert_pass(case: &Case, events: &[String], metrics: &[String], stats: KernelStats) {
    assert!(case.outcome.is_success(), "{:?}", case.outcome);
    assert_eq!(case.alerts, 0);
    assert_eq!(case.events, events);
    assert_eq!(case.trap.metrics, metrics);
    assert_eq!(case.trap.stats, stats);
    assert_eq!(case.trap.cycles, stats.kernel_cycles);
}

/// `(family, AES blocks, bytes, charged cycles)` of one passing check.
type Family = (&'static str, u64, u64, u64);

const FLOW_FAMILY: Family = ("flow-edge", 0, 0, 75);
const MAC_FAMILIES: [Family; 4] = [
    ("call-mac", 5, 0, 2100),
    ("auth-string", 1, 10, 430),
    ("pred-set", 1, 8, 428),
    ("policy-state", 2, 0, 840),
];

/// The span of a cold pass: enter, one charged check per family (MAC
/// checks record `mac_cache`), and the exit with its verify terms.
fn pass_events(families: &[Family], mac_cache: &str, fixed: u64) -> Vec<String> {
    let mut out = vec!["Info enter nr=5".to_string()];
    for (kind, aes, bytes, cycles) in families {
        let cache = if *kind == "flow-edge" {
            "disabled"
        } else {
            mac_cache
        };
        out.push(format!(
            "Info check {kind} passed=true aes={aes} bytes={bytes} cache={cache} cycles={cycles}"
        ));
    }
    let verify = families.iter().map(|f| f.3).sum::<u64>() + fixed;
    out.push(format!(
        "Info exit verified=true hit=false verify={verify} fixed={fixed}"
    ));
    out
}

/// The metrics of a cold pass, in registry order: the cache-outcome
/// counter when the cache is enabled, the per-family check histograms,
/// the syscall counter, and the per-path verify histograms.
fn pass_metrics(cached: bool, families: &[Family], fixed: u64) -> Vec<String> {
    let mut out = Vec::new();
    if cached {
        out.push("asc_cache_outcome_total{outcome=\"cold\"} +1".to_string());
    }
    let mut sorted = families.to_vec();
    sorted.sort();
    for (name, field) in [("aes_blocks", 1), ("bytes", 2), ("cycles", 3)] {
        for f in &sorted {
            let sum = [f.1, f.2, f.3][field - 1];
            out.push(format!(
                "asc_check_{name}{{family=\"{}\"}} n=1 sum={sum}",
                f.0
            ));
        }
    }
    out.push("asc_syscalls_total +1".to_string());
    let aes: u64 = families.iter().map(|f| f.1).sum();
    let bytes: u64 = families.iter().map(|f| f.2).sum();
    let cycles = families.iter().map(|f| f.3).sum::<u64>() + fixed;
    for (name, sum) in [
        ("aes_blocks", aes),
        ("bytes", bytes),
        ("cycles", cycles),
        ("fixed_cycles", fixed),
    ] {
        out.push(format!("asc_verify_{name}{{path=\"cold\"}} n=1 sum={sum}"));
    }
    out
}

/// A cold pass's stats: one verified call, its blocks and cycles, and
/// the kernel cycles (trap base + verify + the `open` handler).
fn pass_stats(aes: u64, verify: u64, kernel: u64) -> KernelStats {
    KernelStats {
        syscalls: 1,
        verified: 1,
        verify_aes_blocks: aes,
        verify_cycles: verify,
        kernel_cycles: kernel,
        ..KernelStats::default()
    }
}

/// One cold pass per tier, with the cache off and on: the cache-outcome
/// counter counts whenever the cache is enabled, flow-only included.
#[test]
fn passing_trap_under_each_tier() {
    let mac_flow = [
        FLOW_FAMILY,
        MAC_FAMILIES[0],
        MAC_FAMILIES[1],
        MAC_FAMILIES[2],
        MAC_FAMILIES[3],
    ];
    for cached in [false, true] {
        let cache = if cached { "cold" } else { "disabled" };
        let cases: [(VerifyTier, &[Family], u64, KernelStats); 3] = [
            (
                VerifyTier::FlowOnly,
                &[FLOW_FAMILY],
                0,
                pass_stats(0, 75, 3575),
            ),
            (
                VerifyTier::Mac,
                &MAC_FAMILIES,
                450,
                pass_stats(9, 4248, 7748),
            ),
            (
                VerifyTier::MacPlusFlow,
                &mac_flow,
                450,
                pass_stats(9, 4323, 7823),
            ),
        ];
        for (tier, families, fixed, stats) in cases {
            let case = run(tier, cached, Setup::Clean);
            assert_pass(
                &case,
                &pass_events(families, cache, fixed),
                &pass_metrics(cached, families, fixed),
                stats,
            );
        }
    }
}
