//! The forensic flight-recorder demonstration harness (`--bin audit`).
//!
//! One seeded fleet runs with the scheduler's black-box recorder
//! attached; a kernel-side fault kills one pid mid-run. The harness then
//! exercises the full forensic loop and asserts every link of it:
//!
//! 1. **recording is free** — a twin run without the recorder is
//!    bit-identical (cycles, stats, stdout, interleaving), so the black
//!    box costs 0 metered cycles;
//! 2. **the kill yields a bundle** — serialized, digest-stamped, and
//!    JSON round-trippable;
//! 3. **the bundle replays** — re-running the scenario from its seeds
//!    reproduces the same pid, violation, and kill cycle bit-identically;
//! 4. **sampling stays exact** — a half-sampled rerun accounts for every
//!    span event either in a ring (`retained + dropped`) or
//!    reconstructed from the unsampled pid's [`asc_kernel::KernelStats`].
//!
//! Deterministic end to end — CI diffs the text output against
//! `crates/bench/golden/audit.txt` (the `audit-smoke` job) and the binary
//! exits nonzero on any [`AuditReport::problems`] entry.

use asc_audit::{fnv64_pids, replay, Bundle, FleetScenario, ReplayVerdict};
use asc_core::json::Value;
use asc_kernel::{FaultAction, Personality, TrapFault, VerifyTier};
use asc_sched::{AuditLog, Pid, ProcState, RecorderConfig, Scheduler};
use asc_workloads::RUN_BUDGET;

/// The demo fleet: eight processes over the paper's three policy
/// workloads, a seeded random interleaving, and an epoch-counter skew armed on pid 2's fifth trap (a fault the verifier
/// always catches, so the kill is deterministic).
pub fn demo_scenario() -> FleetScenario {
    FleetScenario {
        procs: [
            "bison", "calc", "tar", "calc", "bison", "tar", "calc", "bison",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        personality: Personality::Linux,
        tier: VerifyTier::Mac,
        key_seed: 0x0AD1_7C0D,
        program_id_base: 0x0AD0,
        sched_seed: 0x0AD1_75ED,
        slice_instrs: 2_000,
        budget_cycles: RUN_BUDGET,
        fault: Some((
            DEMO_VICTIM,
            TrapFault {
                at_trap: 5,
                action: FaultAction::SkewCounter { delta: 3 },
            },
        )),
    }
}

/// The pid the demo fault is armed on.
pub const DEMO_VICTIM: Pid = 2;

/// One pid's line in the audit summary table.
#[derive(Clone, Debug)]
pub struct PidSummary {
    /// The pid.
    pub pid: Pid,
    /// Workload name.
    pub name: String,
    /// Whether the recorder sampled this pid (owned a ring).
    pub sampled: bool,
    /// Slices the pid received.
    pub slices: u64,
    /// Final state label.
    pub state: String,
    /// Ring events retained (0 for unsampled pids).
    pub retained: u64,
    /// Ring events dropped under memory pressure (exact).
    pub dropped: u64,
    /// Span-level event total reconstructed from the pid's kernel
    /// counters alone (`syscalls + verified`) — the exactness anchor for
    /// unsampled pids.
    pub span_events: u64,
}

/// The recorder-off twin comparison: the no-perturbation proof.
#[derive(Clone, Debug)]
pub struct OverheadCheck {
    /// Whether the recorded and bare runs were bit-identical.
    pub identical: bool,
    /// Shared virtual clock of both runs (equal when `identical`).
    pub clock: u64,
    /// FNV-64 of the interleaving (equal for both runs when `identical`).
    pub interleaving_fnv: u64,
    /// First divergence found, if any.
    pub detail: String,
}

/// The half-sampled rerun's accounting summary.
#[derive(Clone, Debug)]
pub struct SamplingSummary {
    /// Pids that owned a ring.
    pub sampled: u32,
    /// Pids reconstructed from kernel counters alone.
    pub unsampled: u32,
    /// Total ring events dropped across sampled pids (exact).
    pub dropped_total: u64,
    /// Whether every unsampled pid's counters matched the fully-sampled
    /// run's (exact reconstruction holds).
    pub exact: bool,
}

/// Everything the audit demonstration produced.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// The scenario that ran.
    pub scenario: FleetScenario,
    /// Recorder configuration of the main (fully sampled) run.
    pub recorder: RecorderConfig,
    /// Per-pid summary rows, in pid order.
    pub pids: Vec<PidSummary>,
    /// Merged timeline length (slice boundaries + kernel events + kills).
    pub timeline_len: usize,
    /// The victim's alert rendering.
    pub alert: Option<String>,
    /// Shared virtual clock at the kill mark.
    pub kill_clock: Option<u64>,
    /// Global slice index of the killing slice.
    pub kill_slice: Option<u64>,
    /// The forensic bundle captured for the kill.
    pub bundle: Option<Bundle>,
    /// Whether `Bundle::from_json(bundle.to_json())` verified (schema and
    /// digest round-trip).
    pub roundtrip_ok: bool,
    /// The deterministic replay verdict.
    pub replay: Option<ReplayVerdict>,
    /// The recorder-off twin comparison.
    pub overhead: OverheadCheck,
    /// The half-sampled rerun's accounting.
    pub sampling: SamplingSummary,
}

impl AuditReport {
    /// Everything wrong with the forensic loop; empty means every link
    /// held (no-perturbation, bundle capture, round-trip, replay,
    /// sampling exactness).
    pub fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if !self.overhead.identical {
            problems.push(format!(
                "recorder attachment perturbed the run: {}",
                self.overhead.detail
            ));
        }
        match (&self.bundle, &self.replay) {
            (None, _) => problems.push("the kill produced no forensic bundle".into()),
            (Some(_), None) => problems.push("the bundle was never replayed".into()),
            (Some(_), Some(v)) if !v.matched => {
                problems.push(format!("IRREPRODUCIBLE: replay diverged: {}", v.detail));
            }
            _ => {}
        }
        if self.bundle.is_some() && !self.roundtrip_ok {
            problems.push("bundle JSON round-trip failed schema/digest verification".into());
        }
        if !self.sampling.exact {
            problems.push("half-sampled rerun lost exactness for an unsampled pid".into());
        }
        problems
    }
}

fn state_label(state: &ProcState) -> String {
    match state {
        ProcState::Runnable => "runnable".into(),
        ProcState::Exited(code) => format!("exited({code})"),
        ProcState::Killed(_) => "killed".into(),
        ProcState::Faulted(_) => "faulted".into(),
    }
}

/// Compares the recorded run against the bare twin, field by field.
fn check_overhead(with: &Scheduler, without: &Scheduler) -> OverheadCheck {
    let fnv = fnv64_pids(with.interleaving());
    let diverged = |detail: String| OverheadCheck {
        identical: false,
        clock: with.clock(),
        interleaving_fnv: fnv,
        detail,
    };
    if with.clock() != without.clock() {
        return diverged(format!("clock {} vs {}", with.clock(), without.clock()));
    }
    if with.interleaving() != without.interleaving() {
        return diverged(format!(
            "interleaving fnv {:#018x} vs {:#018x}",
            fnv,
            fnv64_pids(without.interleaving())
        ));
    }
    for (a, b) in with.processes().iter().zip(without.processes()) {
        if a.machine().cycles() != b.machine().cycles() {
            return diverged(format!(
                "pid {} cycles {} vs {}",
                a.pid(),
                a.machine().cycles(),
                b.machine().cycles()
            ));
        }
        if a.stats() != b.stats() {
            return diverged(format!("pid {} kernel stats diverged", a.pid()));
        }
        if a.stdout() != b.stdout() {
            return diverged(format!("pid {} stdout diverged", a.pid()));
        }
        if a.state() != b.state() {
            return diverged(format!("pid {} state diverged", a.pid()));
        }
    }
    OverheadCheck {
        identical: true,
        clock: with.clock(),
        interleaving_fnv: fnv,
        detail: "bit-identical".into(),
    }
}

fn pid_rows(sched: &Scheduler, audit: &AuditLog) -> Vec<PidSummary> {
    sched
        .processes()
        .iter()
        .map(|p| {
            let pa = audit.pid(p.pid()).expect("every pid has an audit record");
            PidSummary {
                pid: p.pid(),
                name: p.name().to_string(),
                sampled: pa.sampled,
                slices: p.slices(),
                state: state_label(p.state()),
                retained: pa.events.len() as u64,
                dropped: pa.dropped,
                span_events: pa.span_events(),
            }
        })
        .collect()
}

/// Runs the full demonstration: recorded run, bare twin, bundle capture,
/// round-trip, replay, and the half-sampled rerun.
pub fn run_audit() -> AuditReport {
    let scenario = demo_scenario();
    let recorder = RecorderConfig::default();

    let mut with = scenario.run(Some(recorder));
    let audit = with.take_audit().expect("recorder was attached");
    let without = scenario.run(None);
    let overhead = check_overhead(&with, &without);

    let pids = pid_rows(&with, &audit);
    let timeline_len = audit.timeline().len();
    let mark = audit.kills.iter().find(|k| k.pid == DEMO_VICTIM);
    let alert = with
        .process(DEMO_VICTIM)
        .kernel()
        .alerts()
        .last()
        .map(|a| a.to_string());

    let bundle = Bundle::from_fleet(&scenario, &with, &audit, DEMO_VICTIM);
    let roundtrip_ok = bundle
        .as_ref()
        .is_some_and(|b| Bundle::from_json(&b.to_json()).is_ok());
    let verdict = bundle.as_ref().map(replay);

    // The half-sampled rerun: same fleet, rings on half the pids. The
    // run itself is bit-identical (recording never perturbs), so the
    // unsampled pids' kernel counters must equal the fully-sampled run's
    // — that equality *is* the exact-reconstruction claim.
    let half = RecorderConfig {
        ring_capacity: 32,
        sample_num: 1,
        sample_den: 2,
        ..recorder
    };
    let mut half_sched = scenario.run(Some(half));
    let half_audit = half_sched.take_audit().expect("recorder was attached");
    let mut exact = true;
    for pa in &half_audit.pids {
        let full = audit.pid(pa.pid).expect("same fleet, same pids");
        if pa.stats != full.stats || pa.span_events() != full.span_events() {
            exact = false;
        }
        if !pa.sampled && (pa.dropped != 0 || !pa.events.is_empty()) {
            exact = false;
        }
    }
    let sampling = SamplingSummary {
        sampled: half_audit.pids.iter().filter(|p| p.sampled).count() as u32,
        unsampled: half_audit.pids.iter().filter(|p| !p.sampled).count() as u32,
        dropped_total: half_audit.pids.iter().map(|p| p.dropped).sum(),
        exact,
    };

    AuditReport {
        scenario,
        recorder,
        pids,
        timeline_len,
        alert,
        kill_clock: mark.map(|k| k.clock),
        kill_slice: mark.and_then(|k| k.slice_index),
        bundle,
        roundtrip_ok,
        replay: verdict,
        overhead,
        sampling,
    }
}

/// Renders the audit demonstration as the deterministic text report.
pub fn render_audit(report: &AuditReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let s = &report.scenario;
    let _ = writeln!(out, "Forensic flight recorder: black box, bundle, replay");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "fleet: {} procs  sched_seed={:#x}  slice={}  tier={}",
        s.procs.len(),
        s.sched_seed,
        s.slice_instrs,
        s.tier.name()
    );
    let _ = writeln!(
        out,
        "recorder: ring={} sample={}/{} (all pids)",
        report.recorder.ring_capacity, report.recorder.sample_num, report.recorder.sample_den
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<4} {:<8} {:<8} {:>6} {:>8} {:>8} {:>6} {:<12}",
        "pid", "workload", "sampled", "slices", "spans", "retained", "drop", "state"
    );
    for row in &report.pids {
        let _ = writeln!(
            out,
            "{:<4} {:<8} {:<8} {:>6} {:>8} {:>8} {:>6} {:<12}",
            row.pid,
            row.name,
            if row.sampled { "yes" } else { "no" },
            row.slices,
            row.span_events,
            row.retained,
            row.dropped,
            row.state,
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "timeline: {} entries", report.timeline_len);
    let _ = writeln!(
        out,
        "no-perturbation: {} (clock {}, interleaving fnv {:#018x})",
        if report.overhead.identical {
            "recorder costs 0 metered cycles"
        } else {
            "RECORDER PERTURBED THE RUN"
        },
        report.overhead.clock,
        report.overhead.interleaving_fnv,
    );
    let _ = writeln!(out);
    match (&report.alert, &report.bundle) {
        (Some(alert), Some(bundle)) => {
            let _ = writeln!(out, "kill: {alert}");
            if let (Some(clock), Some(slice)) = (report.kill_clock, report.kill_slice) {
                let _ = writeln!(out, "      at shared clock {clock}, slice {slice}");
            }
            let _ = writeln!(
                out,
                "bundle: digest {:#018x}, {} bytes, json round-trip {}",
                bundle.digest(),
                bundle.to_json().len(),
                if report.roundtrip_ok { "ok" } else { "FAILED" },
            );
            match &report.replay {
                Some(v) if v.matched => {
                    let _ = writeln!(out, "replay: reproduced — {}", v.detail);
                }
                Some(v) => {
                    let _ = writeln!(out, "replay: IRREPRODUCIBLE — {}", v.detail);
                }
                None => {
                    let _ = writeln!(out, "replay: not run");
                }
            }
        }
        _ => {
            let _ = writeln!(out, "kill: MISSING — the armed fault produced no bundle");
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "sampling (1/2): {} ringed, {} reconstructed from counters, {} dropped — {}",
        report.sampling.sampled,
        report.sampling.unsampled,
        report.sampling.dropped_total,
        if report.sampling.exact {
            "exact"
        } else {
            "INEXACT"
        },
    );
    out
}

/// Converts the audit demonstration to a JSON value for `--json` mode.
/// The full bundle rides along verbatim, so the output is itself a
/// machine-readable forensic artifact.
pub fn audit_to_value(report: &AuditReport) -> Value {
    let pids: Vec<Value> = report
        .pids
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("pid".into(), Value::Num(f64::from(r.pid))),
                ("workload".into(), Value::Str(r.name.clone())),
                ("sampled".into(), Value::Bool(r.sampled)),
                ("slices".into(), Value::Num(r.slices as f64)),
                ("span_events".into(), Value::Num(r.span_events as f64)),
                ("retained".into(), Value::Num(r.retained as f64)),
                ("dropped".into(), Value::Num(r.dropped as f64)),
                ("state".into(), Value::Str(r.state.clone())),
            ])
        })
        .collect();
    Value::Object(vec![
        ("pids".into(), Value::Array(pids)),
        (
            "timeline_entries".into(),
            Value::Num(report.timeline_len as f64),
        ),
        (
            "no_perturbation".into(),
            Value::Object(vec![
                ("identical".into(), Value::Bool(report.overhead.identical)),
                ("clock".into(), Value::Num(report.overhead.clock as f64)),
                (
                    "interleaving_fnv".into(),
                    Value::Str(format!("{:#018x}", report.overhead.interleaving_fnv)),
                ),
            ]),
        ),
        (
            "kill".into(),
            report
                .alert
                .as_ref()
                .map(|a| Value::Str(a.clone()))
                .unwrap_or(Value::Null),
        ),
        (
            "bundle".into(),
            report
                .bundle
                .as_ref()
                .map(Bundle::to_value)
                .unwrap_or(Value::Null),
        ),
        ("roundtrip_ok".into(), Value::Bool(report.roundtrip_ok)),
        (
            "replay".into(),
            report
                .replay
                .as_ref()
                .map(|v| {
                    Value::Object(vec![
                        ("matched".into(), Value::Bool(v.matched)),
                        ("detail".into(), Value::Str(v.detail.clone())),
                    ])
                })
                .unwrap_or(Value::Null),
        ),
        (
            "sampling".into(),
            Value::Object(vec![
                (
                    "sampled".into(),
                    Value::Num(f64::from(report.sampling.sampled)),
                ),
                (
                    "unsampled".into(),
                    Value::Num(f64::from(report.sampling.unsampled)),
                ),
                (
                    "dropped_total".into(),
                    Value::Num(report.sampling.dropped_total as f64),
                ),
                ("exact".into(), Value::Bool(report.sampling.exact)),
            ]),
        ),
    ])
}
