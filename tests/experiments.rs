//! Headline-result regression tests: the key numbers from the paper's
//! evaluation must keep reproducing. (The bench binaries print the full
//! tables; these tests pin the load-bearing facts.)

use asc::crypto::MacKey;
use asc::installer::{Installer, InstallerOptions};
use asc::kernel::{KernelOptions, Personality};
use asc::monitors::{trace_names, train};
use asc::workloads::{build, measure, program, RunReport};

fn key() -> MacKey {
    MacKey::from_seed(0x0DD5_EED5)
}

fn asc_count(name: &str, personality: Personality) -> usize {
    let spec = program(name).expect("registered");
    let binary = build(spec, personality).expect("builds");
    let installer = Installer::new(key(), InstallerOptions::new(personality));
    let (policy, _, _) = installer.generate_policy(&binary, name).expect("analyzes");
    policy.distinct_syscalls().len()
}

fn systrace_count(name: &str) -> usize {
    let spec = program(name).expect("registered");
    let binary = build(spec, Personality::OpenBsd).expect("builds");
    let RunReport {
        outcome, kernel, ..
    } = measure(
        spec,
        &binary,
        KernelOptions::plain(Personality::OpenBsd),
        None,
    );
    assert!(outcome.is_success());
    train(name, [trace_names(&kernel)]).entry_count()
}

#[test]
fn table1_policy_counts_match_the_paper_exactly() {
    // Paper Table 1: (ASC Linux, ASC OpenBSD, Systrace OpenBSD).
    for (name, linux, bsd, systrace) in [
        ("bison", 31, 31, 24),
        ("calc", 54, 51, 24),
        ("screen", 67, 63, 55),
    ] {
        assert_eq!(asc_count(name, Personality::Linux), linux, "{name} linux");
        assert_eq!(asc_count(name, Personality::OpenBsd), bsd, "{name} openbsd");
        assert_eq!(systrace_count(name), systrace, "{name} systrace");
    }
}

#[test]
fn table2_key_rows_hold() {
    let spec = program("bison").expect("registered");
    let binary = build(spec, Personality::OpenBsd).expect("builds");
    let installer = Installer::new(key(), InstallerOptions::new(Personality::OpenBsd));
    let (policy, _, warnings) = installer
        .generate_policy(&binary, "bison")
        .expect("analyzes");
    let names: Vec<&str> = policy
        .distinct_syscalls()
        .iter()
        .map(|&nr| Personality::OpenBsd.name_of(nr))
        .collect();
    // ASC-only rows: indirection and cold paths.
    for expected in [
        "__syscall",
        "getpid",
        "gettimeofday",
        "kill",
        "sysconf",
        "writev",
    ] {
        assert!(names.contains(&expected), "{expected} in {names:?}");
    }
    // ASC-missing rows: disassembly failure hides close; mmap hides
    // behind __syscall.
    assert!(!names.contains(&"close"));
    assert!(!names.contains(&"mmap"));
    assert!(warnings.iter().any(|w| w.contains("could not disassemble")));

    // Systrace-side: the trained policy's aliases cover never-executed
    // path-based calls (the over-permission the paper calls out).
    let RunReport {
        outcome, kernel, ..
    } = measure(
        spec,
        &binary,
        KernelOptions::plain(Personality::OpenBsd),
        None,
    );
    assert!(outcome.is_success());
    let st = train("bison", [trace_names(&kernel)]);
    for alias_covered in ["mkdir", "rmdir", "unlink", "readlink"] {
        assert!(st.permits(alias_covered), "{alias_covered}");
        assert!(st.permit_reason(alias_covered).unwrap().starts_with("fs"));
    }
    assert!(!st.permits("socket"), "cold non-fs calls stay denied");
}

#[test]
fn table3_argument_coverage_in_paper_band() {
    for name in ["bison", "calc", "screen", "tar"] {
        let spec = program(name).expect("registered");
        let binary = build(spec, Personality::Linux).expect("builds");
        let installer = Installer::new(key(), InstallerOptions::new(Personality::Linux));
        let (_, stats, _) = installer.generate_policy(&binary, name).expect("analyzes");
        let pct = stats.auth as f64 / stats.args as f64 * 100.0;
        assert!(
            (25.0..45.0).contains(&pct),
            "{name}: {pct:.1}% authenticated args (paper: 30-40%)"
        );
        assert!(stats.out_params > 0, "{name} has output-only args");
        assert!(
            stats.sites > stats.calls,
            "{name}: more sites than distinct calls"
        );
    }
}

#[test]
fn table6_overhead_shape() {
    // Spot-check the two extremes of Table 6: mcf (CPU-bound, lowest
    // overhead) and pyramid (syscall-bound, highest).
    let run = |name: &str, pid| {
        let spec = program(name).expect("registered");
        let plain = build(spec, Personality::Linux).expect("builds");
        let installer = Installer::new(
            key(),
            InstallerOptions::new(Personality::Linux).with_program_id(pid),
        );
        let (auth, _) = installer.install(&plain, name).expect("installs");
        let base = measure(spec, &plain, KernelOptions::plain(Personality::Linux), None);
        assert!(base.outcome.is_success());
        let with = measure(
            spec,
            &auth,
            KernelOptions::enforcing(Personality::Linux),
            Some(key()),
        );
        assert!(
            with.outcome.is_success(),
            "{name}: {:?}",
            with.kernel.alerts()
        );
        (with.cycles as f64 - base.cycles as f64) / base.cycles as f64 * 100.0
    };
    let mcf = run("mcf", 61);
    let pyramid = run("pyramid", 62);
    assert!(mcf < 1.5, "mcf overhead {mcf:.2}% (paper: 0.73%)");
    assert!(
        (5.0..11.0).contains(&pyramid),
        "pyramid overhead {pyramid:.2}% (paper: 7.92%)"
    );
    assert!(pyramid > 4.0 * mcf, "syscall-bound must dominate CPU-bound");
}

#[test]
fn attacks_matrix() {
    use asc::attacks::{frankenstein::run_frankenstein, AttackLab};
    let lab = AttackLab::new(key());
    assert!(lab.shellcode_attack(false).is_success());
    assert!(lab.shellcode_attack(true).is_blocked());
    assert!(lab.mimicry_attack().is_blocked());
    assert!(lab.non_control_data_attack(false).is_success());
    assert!(lab.non_control_data_attack(true).is_blocked());
    assert!(run_frankenstein(&key(), false).is_success());
    assert!(run_frankenstein(&key(), true).is_blocked());
}

#[test]
fn attack_alerts_name_the_violated_check() {
    // Each blocked attack must be stopped by the *right* verification
    // layer, pinned by the structured reason code (and offending syscall)
    // in the administrator alert — so a refactor that keeps attacks
    // blocked but routes them through the wrong check still fails.
    use asc::attacks::{frankenstein::run_frankenstein, AttackLab, AttackOutcome};
    use asc::kernel::ReasonCode;
    let expect = |name: &str, outcome: AttackOutcome, reason: ReasonCode, syscall: &str| {
        let AttackOutcome::Blocked(alert) = outcome else {
            panic!("{name}: expected Blocked, got {outcome:?}");
        };
        assert_eq!(alert.reason(), reason, "{name}: {alert}");
        assert_eq!(alert.name, syscall, "{name}: {alert}");
    };
    let lab = AttackLab::new(key()).with_verify_cache();
    expect(
        "shellcode",
        lab.shellcode_attack(true),
        ReasonCode::BadCallMac,
        "execve",
    );
    expect(
        "mimicry",
        lab.mimicry_attack(),
        ReasonCode::BadCallMac,
        "exit",
    );
    expect(
        "non-control-data",
        lab.non_control_data_attack(true),
        ReasonCode::BadStringMac,
        "execve",
    );
    expect(
        "stale-cache string rewrite",
        lab.stale_cache_string_attack(),
        ReasonCode::BadStringMac,
        "access",
    );
    expect(
        "stale-cache state replay",
        lab.stale_cache_state_replay_attack(),
        ReasonCode::BadPolicyState,
        "access",
    );
    expect(
        "frankenstein",
        run_frankenstein(&key(), true),
        ReasonCode::NotInPredecessorSet,
        "write",
    );
    // The human-readable rendering stays stable: fail-stop preamble plus
    // the violation text and offending call.
    let AttackOutcome::Blocked(alert) = lab.shellcode_attack(true) else {
        unreachable!("pinned blocked above");
    };
    let rendered = alert.to_string();
    assert!(rendered.starts_with("ALERT: pid 1 killed:"), "{rendered:?}");
    assert!(rendered.contains("call MAC mismatch"), "{rendered:?}");
    assert!(rendered.contains("`execve`"), "{rendered:?}");
    // Single-process kernels attribute kills to pid 1; under a scheduler
    // the pid flows into the alert instead of being a fixed placeholder.
    assert_eq!(alert.pid, 1);
    let mut scheduled = alert.clone();
    scheduled.pid = 7;
    assert!(
        scheduled.to_string().starts_with("ALERT: pid 7 killed:"),
        "{scheduled}"
    );
}

#[test]
fn microbench_per_call_costs_match_table4_originals() {
    // The cost model's unmodified-syscall cycles were calibrated to the
    // paper's Table 4 "Original Cost" column; pin them.
    use asc::kernel::{CostModel, SyscallId};
    let m = CostModel::default();
    let total = |id, bytes| m.trap_base + m.handler_cost(id, bytes);
    assert!((1050..1250).contains(&total(SyscallId::Getpid, 0)));
    assert!((1300..1500).contains(&total(SyscallId::Gettimeofday, 0)));
    assert!((6900..7700).contains(&total(SyscallId::Read, 4096)));
    assert!((38000..41000).contains(&total(SyscallId::Write, 4096)));
    assert!((1050..1300).contains(&total(SyscallId::Brk, 0)));
}
