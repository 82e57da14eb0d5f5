//! End-to-end installation tests: assemble → install → execute under an
//! enforcing kernel. This is the full Fig. 2 + Fig. 3 pipeline.

use asc_asm::assemble;
use asc_core::ArgPolicy;
use asc_crypto::MacKey;
use asc_installer::{Installer, InstallerOptions};
use asc_kernel::{Kernel, KernelOptions, Personality};
use asc_vm::{Machine, RunOutcome};

fn key() -> MacKey {
    MacKey::from_seed(0xA5C)
}

fn install(src: &str, name: &str) -> (asc_object::Binary, asc_installer::InstallReport) {
    let binary = assemble(src).expect("assembles");
    let installer = Installer::new(key(), InstallerOptions::new(Personality::Linux));
    installer.install(&binary, name).expect("installs")
}

fn run_enforced(binary: &asc_object::Binary, stdin: &[u8]) -> (RunOutcome, Kernel) {
    let mut kernel = Kernel::new(KernelOptions::enforcing(Personality::Linux));
    kernel.set_key(key());
    kernel.set_stdin(stdin.to_vec());
    kernel.set_brk(binary.highest_addr());
    let mut machine = Machine::load(binary, kernel).expect("loads");
    let outcome = machine.run(100_000_000);
    (outcome, machine.into_handler())
}

const HELLO: &str = r#"
    .text
main:
    movi r0, 4          ; write
    movi r1, 1
    movi r2, msg
    movi r3, 6
    syscall
    movi r0, 1          ; exit
    movi r1, 0
    syscall
    .rodata
msg: .ascii "hello\n"
"#;

#[test]
fn installed_hello_runs_under_enforcement() {
    let (auth, report) = install(HELLO, "hello");
    assert!(auth.is_authenticated());
    assert!(!auth.is_relocatable(), "output is non-relocatable");
    assert!(auth.section_by_name(".asc").is_some());
    assert_eq!(report.policy.sites(), 2);
    assert_eq!(report.stats.calls, 2);
    let (outcome, kernel) = run_enforced(&auth, b"");
    assert_eq!(
        outcome,
        RunOutcome::Exited(0),
        "alerts: {:?}",
        kernel.alerts()
    );
    assert_eq!(kernel.stdout(), b"hello\n");
    assert_eq!(kernel.stats().verified, 2);
    assert!(kernel.alerts().is_empty());
}

#[test]
fn unmodified_binary_fails_under_enforcement() {
    // An uninstalled binary's calls carry no MACs: every call is
    // "unauthenticated" and the process dies on its first syscall.
    let binary = assemble(HELLO).unwrap();
    let (outcome, kernel) = run_enforced(&binary, b"");
    assert!(outcome.is_killed(), "{outcome:?}");
    assert_eq!(kernel.alerts().len(), 1);
}

#[test]
fn stub_calls_are_inlined_and_run() {
    let src = r#"
        .text
    main:
        movi r1, 1
        movi r2, msg
        movi r3, 3
        call write
        movi r1, 0
        call exit
    write:
        movi r0, 4
        syscall
        ret
    exit:
        movi r0, 1
        syscall
        ret
        .rodata
    msg: .ascii "abc"
    "#;
    let (auth, report) = install(src, "stubby");
    assert_eq!(
        report.inlined,
        vec![("exit".to_string(), 1), ("write".to_string(), 1)]
    );
    // 2 stub sites + 2 inlined sites = 4 policies.
    assert_eq!(report.policy.sites(), 4);
    let (outcome, kernel) = run_enforced(&auth, b"");
    assert_eq!(
        outcome,
        RunOutcome::Exited(0),
        "alerts: {:?}",
        kernel.alerts()
    );
    assert_eq!(kernel.stdout(), b"abc");
}

#[test]
fn string_arguments_are_authenticated_and_repointed() {
    let src = r#"
        .text
    main:
        movi r0, 5          ; open("/etc/motd", 0)
        movi r1, path
        movi r2, 0
        movi r3, 0
        syscall
        mov r4, r0
        movi r0, 3          ; read(fd, buf, 32)
        mov r1, r4
        movi r2, buf
        movi r3, 32
        syscall
        mov r5, r0
        movi r0, 4          ; write(1, buf, n)
        movi r1, 1
        movi r2, buf
        mov r3, r5
        syscall
        movi r0, 1
        movi r1, 0
        syscall
        .rodata
    path: .asciz "/etc/motd"
        .bss
    buf: .space 32
    "#;
    let (auth, report) = install(src, "cat");
    // The open's path argument is a string literal in the policy.
    let open_policy = report
        .policy
        .iter()
        .find(|p| p.syscall_nr == 5)
        .expect("open policy exists");
    assert_eq!(
        open_policy.args[0],
        ArgPolicy::StringLit(b"/etc/motd".to_vec())
    );
    assert_eq!(open_policy.args[1], ArgPolicy::Immediate(0));
    let (outcome, kernel) = run_enforced(&auth, b"");
    assert_eq!(
        outcome,
        RunOutcome::Exited(0),
        "alerts: {:?}",
        kernel.alerts()
    );
    assert_eq!(kernel.stdout(), b"welcome to svm32\n");
    // String checks burned extra AES blocks.
    assert!(kernel.stats().verify_aes_blocks > 8);
}

#[test]
fn control_flow_order_is_enforced() {
    // A program whose loop makes read follow read; the exit call follows
    // the read. All predecessor sets line up at runtime.
    let src = r#"
        .text
    main:
        movi r6, 0
    loop:
        movi r0, 20         ; getpid
        syscall
        addi r6, r6, 1
        movi r5, 3
        bne r6, r5, loop
        movi r0, 1
        movi r1, 0
        syscall
    "#;
    let (auth, report) = install(src, "loopy");
    let (outcome, kernel) = run_enforced(&auth, b"");
    assert_eq!(
        outcome,
        RunOutcome::Exited(0),
        "alerts: {:?}",
        kernel.alerts()
    );
    assert_eq!(kernel.stats().verified, 4);
    // getpid's predecessor set contains both program start and itself.
    let getpid = report.policy.iter().find(|p| p.syscall_nr == 20).unwrap();
    let preds = getpid.predecessors.as_ref().unwrap();
    assert!(preds.contains(&0));
    assert!(preds.contains(&getpid.block_id));
}

#[test]
fn data_section_references_survive_relayout() {
    // A function-pointer table in .data pointing into text, used via
    // indirect call after install: the relocation must be remapped.
    let src = r#"
        .text
    main:
        movi r2, table
        ldw r3, [r2]
        callr r3
        movi r0, 1
        mov r1, r0
        movi r1, 0
        syscall
    target:
        movi r0, 20
        syscall
        ret
        .data
    table: .word target
    "#;
    let (auth, _) = install(src, "tabled");
    let (outcome, kernel) = run_enforced(&auth, b"");
    assert_eq!(
        outcome,
        RunOutcome::Exited(0),
        "alerts: {:?}",
        kernel.alerts()
    );
}

#[test]
fn already_authenticated_rejected() {
    let (auth, _) = install(HELLO, "hello");
    let installer = Installer::new(key(), InstallerOptions::new(Personality::Linux));
    assert!(matches!(
        installer.install(&auth, "hello"),
        Err(asc_installer::InstallError::AlreadyAuthenticated)
    ));
}

#[test]
fn wrong_kernel_key_kills() {
    let (auth, _) = install(HELLO, "hello");
    let mut kernel = Kernel::new(KernelOptions::enforcing(Personality::Linux));
    kernel.set_key(MacKey::from_seed(999)); // different key
    kernel.set_brk(auth.highest_addr());
    let mut machine = Machine::load(&auth, kernel).unwrap();
    let outcome = machine.run(10_000_000);
    assert!(outcome.is_killed());
}

#[test]
fn without_control_flow_option() {
    let binary = assemble(HELLO).unwrap();
    let installer = Installer::new(
        key(),
        InstallerOptions::new(Personality::Linux).without_control_flow(),
    );
    let (auth, report) = installer.install(&binary, "hello").unwrap();
    for p in report.policy.iter() {
        assert!(p.predecessors.is_none());
    }
    let (outcome, kernel) = run_enforced(&auth, b"");
    assert_eq!(
        outcome,
        RunOutcome::Exited(0),
        "alerts: {:?}",
        kernel.alerts()
    );
    // Fewer AES blocks than the full-policy variant (no pred set, no
    // state MACs).
    assert!(kernel.stats().verify_aes_blocks <= 6);
}

#[test]
fn policy_generation_only_mode() {
    let binary = assemble(HELLO).unwrap();
    let installer = Installer::new(key(), InstallerOptions::new(Personality::Linux));
    let (policy, stats, warnings) = installer.generate_policy(&binary, "hello").unwrap();
    assert_eq!(policy.sites(), 2);
    assert_eq!(stats.calls, 2);
    assert_eq!(stats.sites, 2);
    assert!(warnings.is_empty());
    assert_eq!(policy.distinct_syscalls(), [1u16, 4].into_iter().collect());
}

#[test]
fn unique_block_ids_fold_program_id() {
    let binary = assemble(HELLO).unwrap();
    let installer = Installer::new(
        key(),
        InstallerOptions::new(Personality::Linux).with_program_id(42),
    );
    let (_, report) = installer.install(&binary, "hello").unwrap();
    for p in report.policy.iter() {
        assert_eq!(p.block_id >> 16, 42);
    }
}

#[test]
fn capability_tracking_end_to_end() {
    let src = r#"
        .text
    main:
        movi r0, 5
        movi r1, path
        movi r2, 0
        movi r3, 0
        syscall
        mov r4, r0
        movi r0, 3          ; read(fd from open) — fd arg is a capability
        mov r1, r4
        movi r2, buf
        movi r3, 8
        syscall
        movi r0, 1
        movi r1, 0
        syscall
        .rodata
    path: .asciz "/etc/motd"
        .bss
    buf: .space 8
    "#;
    let binary = assemble(src).unwrap();
    let installer = Installer::new(
        key(),
        InstallerOptions::new(Personality::Linux).with_capability_tracking(),
    );
    let (auth, report) = installer.install(&binary, "captest").unwrap();
    let read_policy = report.policy.iter().find(|p| p.syscall_nr == 3).unwrap();
    assert_eq!(read_policy.args[0], ArgPolicy::Capability);

    let mut kernel = Kernel::new(KernelOptions {
        capability_tracking: true,
        ..KernelOptions::enforcing(Personality::Linux)
    });
    kernel.set_key(key());
    kernel.set_brk(auth.highest_addr());
    let mut machine = Machine::load(&auth, kernel).unwrap();
    let outcome = machine.run(10_000_000);
    assert_eq!(outcome, RunOutcome::Exited(0));
}
