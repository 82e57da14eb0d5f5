//! Forensic flight-recorder properties: no-perturbation, exact ring
//! accounting, sampling soundness, and bundle replay determinism.
//!
//! The recorder is the always-on black box of the fail-stop story, so its
//! contract is absolute:
//!
//! * **no-perturbation** — attaching it changes *nothing* metered:
//!   cycles, per-pid kernel stats, stdout, states, and the interleaving
//!   FNV digest are bit-identical at N ∈ {2, 8, 64, 1024} under every
//!   verification tier;
//! * **exact accounting** — every sampled ring satisfies
//!   `retained + dropped == total events emitted`, across scheduler
//!   kills, at any capacity;
//! * **sampling soundness** — unsampled pids cost nothing and their span
//!   totals are reconstructed exactly from [`KernelStats`];
//! * **replay determinism** — an on-kill bundle re-runs from its seeds to
//!   the same pid, violation, and kill cycle, bit-identically, and its
//!   JSON serialization is digest-protected against tampering;
//! * **hostile input** — bundles of an unknown schema are rejected, and
//!   byte-mutated bundle JSON parses or errors, never panics.

use std::sync::OnceLock;

use asc::audit::{fnv64_bytes, replay, AuditFault, Bundle, SoloScenario, BUNDLE_SCHEMA};
use asc::core::json::Value;
use asc::crypto::MacKey;
use asc::installer::{Installer, InstallerOptions};
use asc::kernel::{
    FaultAction, FileSystem, Kernel, KernelOptions, KernelStats, Personality, TrapFault, VerifyTier,
};
use asc::object::Binary;
use asc::sched::{Pid, ProcState, RecorderConfig, SchedConfig, SchedPolicy, Scheduler, SliceEnd};
use asc::trace::EventKind;
use asc::vm::Machine;
use asc::workloads::{build, flow_graph_of, program, ProgramSpec, RUN_BUDGET};
use asc_testkit::{check, Rng};

const PERSONALITY: Personality = Personality::Linux;
const WORKLOADS: [&str; 3] = ["bison", "calc", "tar"];

fn key() -> MacKey {
    MacKey::from_seed(0x3117_0AC5)
}

struct Built {
    spec: &'static ProgramSpec,
    auth: Binary,
}

static FLEET: OnceLock<Vec<Built>> = OnceLock::new();

fn fleet() -> &'static [Built] {
    FLEET.get_or_init(|| {
        WORKLOADS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let spec = program(name).expect("workload is registered");
                let plain = build(spec, PERSONALITY).expect("workload builds");
                let installer = Installer::new(
                    key(),
                    InstallerOptions::new(PERSONALITY).with_program_id(0x0AB0 + i as u16),
                );
                let (auth, _) = installer.install(&plain, spec.name).expect("installs");
                Built { spec, auth }
            })
            .collect()
    })
}

fn machine_for_tier(spec: &ProgramSpec, auth: &Binary, tier: VerifyTier) -> Machine<Kernel> {
    let mut fs = FileSystem::new();
    (spec.setup_fs)(&mut fs);
    let opts = KernelOptions::enforcing(PERSONALITY)
        .with_verify_cache()
        .with_tier(tier);
    let mut kernel = Kernel::with_fs(opts, fs);
    kernel.set_key(key());
    if tier.checks_flow() {
        kernel.set_flow_graph(flow_graph_of(auth, &key()));
    }
    kernel.set_stdin(spec.stdin.to_vec());
    kernel.set_brk(auth.highest_addr());
    Machine::load(auth, kernel).expect("workload fits in guest memory")
}

fn spawn_n_tier(n: usize, policy: SchedPolicy, slice_instrs: u64, tier: VerifyTier) -> Scheduler {
    let fleet = fleet();
    let mut sched = Scheduler::new(SchedConfig {
        policy,
        slice_instrs,
        budget_cycles: RUN_BUDGET,
    });
    for m in 0..n {
        let built = &fleet[m % fleet.len()];
        sched.spawn(
            built.spec.name,
            machine_for_tier(built.spec, &built.auth, tier),
        );
    }
    sched
}

/// Everything the recorder could possibly perturb, captured per run.
#[derive(PartialEq, Debug)]
struct PidWitness {
    state: ProcState,
    cycles: u64,
    stdout: Vec<u8>,
    stats: KernelStats,
    counter: u64,
}

fn witness(sched: &Scheduler) -> (u64, Vec<Pid>, Vec<PidWitness>) {
    (
        sched.clock(),
        sched.interleaving().to_vec(),
        sched
            .processes()
            .iter()
            .map(|p| PidWitness {
                state: p.state().clone(),
                cycles: p.machine().cycles(),
                stdout: p.kernel().stdout().to_vec(),
                stats: p.stats(),
                counter: p.kernel().policy_counter(),
            })
            .collect(),
    )
}

/// **Tentpole**: attaching the recorder is perturbation-free at every
/// fleet size and under every verification tier — shared clock,
/// interleaving (hence its FNV digest), per-pid cycles, kernel stats,
/// stdout, states, and counters are all bit-identical to a bare run.
#[test]
fn recorder_attachment_is_bit_identical_at_fleet_sizes_and_tiers() {
    for &n in &[2usize, 8, 64, 1024] {
        for (ti, &tier) in VerifyTier::ALL.iter().enumerate() {
            let policy = SchedPolicy::SeededRandom(0xF1EE_7000 ^ n as u64 ^ (ti as u64) << 20);
            let mut bare = spawn_n_tier(n, policy, 2_000, tier);
            bare.run();
            let bare_witness = witness(&bare);
            drop(bare);

            let mut recorded = spawn_n_tier(n, policy, 2_000, tier);
            // Sample everything at small N; at fleet scale sample 1/8 so
            // the test also proves *partial* sampling perturbs nothing.
            let config = if n >= 64 {
                RecorderConfig {
                    ring_capacity: 32,
                    sample_num: 1,
                    sample_den: 8,
                    ..RecorderConfig::default()
                }
            } else {
                RecorderConfig::default()
            };
            recorded.attach_recorder(config);
            assert!(recorded.recording());
            recorded.run();
            let recorded_witness = witness(&recorded);
            let audit = recorded.take_audit().expect("recorder was attached");

            let name = tier.name();
            assert_eq!(
                bare_witness.0, recorded_witness.0,
                "n={n} {name}: recorder moved the shared clock"
            );
            assert_eq!(
                bare_witness.1, recorded_witness.1,
                "n={n} {name}: recorder changed the interleaving"
            );
            for (pid0, (a, b)) in bare_witness.2.iter().zip(&recorded_witness.2).enumerate() {
                assert_eq!(
                    a,
                    b,
                    "n={n} {name} pid {}: recorder perturbed the run",
                    pid0 + 1
                );
            }
            // The audit actually captured the fleet: every pid has a
            // record, and sampled pids with syscalls captured events.
            assert_eq!(audit.pids.len(), n, "n={n} {name}: audit covers every pid");
            for pa in &audit.pids {
                if pa.sampled && pa.stats.syscalls > 0 {
                    assert!(
                        !pa.events.is_empty() || pa.dropped > 0,
                        "n={n} {name} pid {}: sampled pid with traps recorded nothing",
                        pa.pid
                    );
                }
            }
        }
    }
}

/// **Satellite**: exact ring accounting under seeded schedules with
/// scheduler kills. A giant-capacity twin ring (which
/// provably drops nothing) supplies the ground-truth event total; every
/// bounded ring must satisfy `retained + dropped == total`, and the
/// unsampled-pid reconstruction (`syscalls + verified` span events) must
/// match the twin's observed span events exactly.
#[test]
fn ring_accounting_is_exact_across_kills() {
    let mut rng = Rng::new(0x41C0_0071);
    for round in 0..6u64 {
        let n = [3usize, 6, 9][(round % 3) as usize];
        let policy = SchedPolicy::SeededRandom(0xACC7_0000 ^ round);
        let kill_victim = (rng.range_u32(1, n as u32 + 1)) as Pid;
        let kill_after = rng.range_u32(5, 40);

        // Ground truth: capacity large enough to never drop.
        let mut full = spawn_n_tier(n, policy, 2_000, VerifyTier::Mac);
        full.attach_recorder(RecorderConfig {
            ring_capacity: 1 << 20,
            ..RecorderConfig::default()
        });
        for _ in 0..kill_after {
            if full.step().is_none() {
                break;
            }
        }
        if full.process(kill_victim).state().is_runnable() {
            full.kill(kill_victim, "operator kill (accounting test)");
        }
        full.run();
        let full_audit = full.take_audit().expect("recorder attached");

        // Bounded ring over the *identical* schedule and kill sequence.
        let capacity = [4usize, 16, 64][(round % 3) as usize];
        let mut bounded = spawn_n_tier(n, policy, 2_000, VerifyTier::Mac);
        bounded.attach_recorder(RecorderConfig {
            ring_capacity: capacity,
            ..RecorderConfig::default()
        });
        for _ in 0..kill_after {
            if bounded.step().is_none() {
                break;
            }
        }
        if bounded.process(kill_victim).state().is_runnable() {
            bounded.kill(kill_victim, "operator kill (accounting test)");
        }
        bounded.run();
        let bounded_audit = bounded.take_audit().expect("recorder attached");

        for pa in &full_audit.pids {
            assert_eq!(
                pa.dropped, 0,
                "round {round}: the ground-truth ring dropped"
            );
            let total = pa.events.len() as u64;
            let b = bounded_audit.pid(pa.pid).expect("same fleet");
            assert_eq!(
                b.events.len() as u64 + b.dropped,
                total,
                "round {round} pid {} capacity {capacity}: \
                 retained + dropped != total events",
                pa.pid
            );
            assert!(
                b.events.len() <= capacity,
                "round {round} pid {}: ring exceeded its capacity",
                pa.pid
            );
            // Sampling soundness: the span totals reconstructed from
            // KernelStats alone equal the observed span-level events.
            let span_observed = pa
                .events
                .iter()
                .filter(|(_, e)| {
                    matches!(
                        e.kind,
                        EventKind::TrapEnter { .. } | EventKind::TrapExit { .. }
                    )
                })
                .count() as u64;
            assert_eq!(
                pa.span_events(),
                span_observed,
                "round {round} pid {}: KernelStats reconstruction drifted",
                pa.pid
            );
        }
        // The external kill is marked (when the victim was still alive).
        if matches!(bounded.process(kill_victim).state(), ProcState::Killed(_)) {
            assert!(
                bounded_audit.kills.iter().any(|k| k.pid == kill_victim),
                "round {round}: external kill missing from the audit log"
            );
        }
        assert!(
            bounded_audit
                .windows
                .iter()
                .any(|w| w.end != SliceEnd::Preempted),
            "round {round}: no slice recorded a terminal end"
        );
    }
}

/// A solo `calc` run killed by a counter skew armed on its fourth trap.
fn calc_skew_scenario() -> SoloScenario {
    SoloScenario {
        workload: "calc".into(),
        personality: PERSONALITY,
        tier: VerifyTier::Mac,
        weakened: false,
        program_id: 0x0AB1,
        key_seed: 0x3117_0AC5,
        fault: Some(AuditFault::Trap(TrapFault {
            at_trap: 4,
            action: FaultAction::SkewCounter { delta: 2 },
        })),
    }
}

/// The JSON of [`calc_skew_scenario`]'s kill bundle.
fn calc_skew_bundle_json() -> String {
    let scenario = calc_skew_scenario();
    let run = scenario.run();
    Bundle::from_solo(scenario, &run)
        .expect("kill yields a bundle")
        .to_json()
}

/// **Replay determinism**: a solo kill bundle re-runs from its seeds to
/// the identical pid, violation, and kill cycle; its JSON form
/// round-trips schema- and digest-verified; and a tampered byte is
/// rejected by the digest check.
#[test]
fn solo_bundles_replay_bit_identically_and_reject_tampering() {
    let scenario = calc_skew_scenario();
    let run = scenario.run();
    assert!(
        run.outcome.is_killed(),
        "the armed counter skew must kill: {:?}",
        run.outcome
    );
    let bundle = Bundle::from_solo(scenario, &run).expect("kill yields a bundle");

    // Replay from scratch (rebuild + reinstall + rerun).
    let verdict = replay(&bundle);
    assert!(verdict.matched, "replay diverged: {}", verdict.detail);

    // JSON round-trip preserves the digest and replays identically.
    let json = bundle.to_json();
    let parsed = Bundle::from_json(&json).expect("round-trip verifies");
    assert_eq!(parsed.digest(), bundle.digest());
    let verdict = replay(&parsed);
    assert!(
        verdict.matched,
        "round-tripped replay diverged: {}",
        verdict.detail
    );

    // Tampering with any recorded observable breaks the digest.
    let tampered = json.replacen("\"policy_counter\"", "\"policy_c0unter\"", 1);
    assert_ne!(tampered, json, "tamper target present");
    assert!(
        Bundle::from_json(&tampered).is_err(),
        "a tampered bundle must fail digest verification"
    );
}

/// **Fleet replay**: a kill inside a seeded fleet produces a
/// bundle whose replay re-runs the interleaving to the same kill — same
/// pid, violation, kill cycle, slice index, and interleaving-prefix FNV.
#[test]
fn fleet_bundles_replay_to_the_same_kill() {
    use asc::audit::FleetScenario;
    let scenario = FleetScenario {
        procs: vec!["calc".into(), "tar".into(), "bison".into(), "calc".into()],
        personality: PERSONALITY,
        tier: VerifyTier::Mac,
        key_seed: 0x3117_0AC5,
        program_id_base: 0x0AC0,
        sched_seed: 0xF1E7_0001,
        slice_instrs: 2_000,
        budget_cycles: RUN_BUDGET,
        fault: Some((
            1,
            TrapFault {
                at_trap: 6,
                action: FaultAction::SkewCounter { delta: 1 },
            },
        )),
    };
    let mut sched = scenario.run(Some(RecorderConfig::default()));
    let audit = sched.take_audit().expect("recorder attached");
    assert!(
        matches!(sched.process(1).state(), ProcState::Killed(_)),
        "the armed fault must kill pid 1: {:?}",
        sched.process(1).state()
    );
    let bundle = Bundle::from_fleet(&scenario, &sched, &audit, 1).expect("kill yields a bundle");
    let verdict = replay(&bundle);
    assert!(verdict.matched, "fleet replay diverged: {}", verdict.detail);

    // Round-trip through JSON and replay again.
    let parsed = Bundle::from_json(&bundle.to_json()).expect("round-trip verifies");
    let verdict = replay(&parsed);
    assert!(
        verdict.matched,
        "round-tripped fleet replay diverged: {}",
        verdict.detail
    );
}

/// **Sentinel integration**: a fleet kill bundle embeds the last closed
/// health window — the operator sees what the sentinel saw just before
/// the kill next to the victim's forensics — and the embedded payload
/// survives the digest-verified JSON round-trip without disturbing
/// replay (the window is evidence, not replayed state).
#[test]
fn fleet_bundles_embed_the_last_health_window() {
    use asc::audit::FleetScenario;
    use asc::sentinel::{Sentinel, SentinelConfig};
    let scenario = FleetScenario {
        procs: vec!["calc".into(), "tar".into(), "bison".into(), "calc".into()],
        personality: PERSONALITY,
        tier: VerifyTier::Mac,
        key_seed: 0x3117_0AC5,
        program_id_base: 0x0AC0,
        sched_seed: 0xF1E7_0001,
        slice_instrs: 2_000,
        budget_cycles: RUN_BUDGET,
        fault: Some((
            1,
            TrapFault {
                at_trap: 6,
                action: FaultAction::SkewCounter { delta: 1 },
            },
        )),
    };
    let mut sched = scenario.build();
    sched.attach_recorder(RecorderConfig::default());
    let mut sentinel = Sentinel::attach(&sched, SentinelConfig::new(50_000));
    while sched.step().is_some() {
        sentinel.observe(&sched);
    }
    sentinel.finish(&sched);
    let audit = sched.take_audit().expect("recorder attached");
    assert!(
        matches!(sched.process(1).state(), ProcState::Killed(_)),
        "the armed fault must kill pid 1: {:?}",
        sched.process(1).state()
    );

    // The sentinel saw the violation: some window records the alert.
    assert!(
        sentinel.windows().iter().any(|w| w.alerts_total > 0),
        "no health window recorded the kill's alert"
    );
    let last = sentinel
        .windows()
        .last()
        .expect("the run closed at least one window")
        .clone();

    let mut bundle =
        Bundle::from_fleet(&scenario, &sched, &audit, 1).expect("kill yields a bundle");
    assert!(
        bundle.health_window().is_none(),
        "no window before embedding"
    );
    bundle.embed_health_window(&last);
    assert_eq!(
        bundle.health_window(),
        Some(&last.to_value()),
        "embedded window reads back verbatim"
    );
    // Embedding is idempotent: re-embedding replaces, not duplicates.
    bundle.embed_health_window(&last);
    let json = bundle.to_json();
    assert_eq!(
        json.matches("\"health_window\"").count(),
        1,
        "re-embedding must replace the previous window"
    );

    // Round-trip: the digest covers the embedded window and the payload
    // survives parsing; replay still reproduces the kill.
    let parsed = Bundle::from_json(&json).expect("round-trip verifies");
    assert_eq!(parsed.health_window(), Some(&last.to_value()));
    let verdict = replay(&parsed);
    assert!(
        verdict.matched,
        "replay with an embedded window diverged: {}",
        verdict.detail
    );

    // Tampering with the embedded telemetry breaks the digest like any
    // other recorded observable.
    let tampered = json.replacen("\"alerts_total\"", "\"alerts_t0tal\"", 1);
    assert_ne!(tampered, json, "tamper target present");
    assert!(
        Bundle::from_json(&tampered).is_err(),
        "a tampered health window must fail digest verification"
    );
}

/// **Schema versioning**: a bundle tagged with the previous schema
/// (`asc-audit-bundle/v1`, whose fleet schedule and victim payload carried
/// fields this version removed) is rejected with the structured
/// unknown-schema error before any other field is read.
#[test]
fn v1_bundles_are_rejected_as_unknown_schema() {
    let json = calc_skew_bundle_json();
    assert!(json.contains(BUNDLE_SCHEMA), "current schema tag present");
    let v1 = json.replacen(BUNDLE_SCHEMA, "asc-audit-bundle/v1", 1);
    let err = Bundle::from_json(&v1).expect_err("a v1 bundle must not parse");
    assert_eq!(err, "unknown bundle schema \"asc-audit-bundle/v1\"");
}

/// Re-digests a parsed bundle document, so a mutation that keeps the
/// JSON well-formed reaches the field parsers instead of stopping at the
/// digest check.
fn reseal(mut fields: Vec<(String, Value)>) -> Value {
    fields.retain(|(k, _)| k != "digest");
    let digest = fnv64_bytes(Value::Object(fields.clone()).to_pretty().as_bytes());
    fields.push(("digest".into(), Value::Str(format!("{digest:#018x}"))));
    Value::Object(fields)
}

/// **Hostile bundle JSON**: byte-mutated bundles (bit flips, JSON
/// punctuation, deletions, truncation) parse to `Ok` or a structured
/// `Err`, never a panic — both as raw text and, when the mutated text is
/// still a JSON object, re-sealed with a matching digest.
#[test]
fn mutated_bundle_json_never_panics() {
    let json = calc_skew_bundle_json();
    let Ok(Value::Object(fields)) = Value::parse(&json) else {
        panic!("bundle JSON is an object");
    };
    assert!(
        Bundle::from_value(&reseal(fields)).is_ok(),
        "re-sealing an unmutated bundle keeps it valid"
    );
    let mut past_digest = 0u32;
    check(0xB0D1_E5ED, 400, |rng| {
        let mut bytes = json.clone().into_bytes();
        for _ in 0..rng.range_usize(1, 5) {
            if bytes.is_empty() {
                break;
            }
            let i = rng.range_usize(0, bytes.len());
            match rng.range_u32(0, 8) {
                0..=2 => bytes[i] ^= 1 << rng.range_u32(0, 8),
                3..=5 => bytes[i] = *rng.pick(b"{}[]\",:0123456789-.aeflnrstux "),
                6 => {
                    bytes.remove(i);
                }
                _ => bytes.truncate(i),
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = Bundle::from_json(&text);
        if let Ok(Value::Object(fields)) = Value::parse(&text) {
            match Bundle::from_value(&reseal(fields)) {
                Err(e) if e.starts_with("bundle digest mismatch") => {}
                _ => past_digest += 1,
            }
        }
    });
    assert!(
        past_digest > 0,
        "no mutated bundle reached the field parsers"
    );
}
