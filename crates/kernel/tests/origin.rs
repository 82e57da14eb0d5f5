//! The trap handler's origin-privilege check, exercised straight against
//! the kernel: with a site registry installed, a trap from any pc outside
//! it is a fail-stop kill *before* the flow pre-filter and the MAC suite —
//! no side effects, no trace entry, no AES work — while a registered pc
//! passes the probe silently and proceeds to the ordinary verification
//! path. Misconfiguration (a flow tier with no digraph) is also a kill,
//! never a panic or a silent pass.

use asc_asm::assemble;
use asc_kernel::{Kernel, KernelOptions, Personality, ReasonCode, SiteRegistry, VerifyTier};
use asc_vm::{Machine, RunOutcome};

const GUEST: &str = "
    .text
main:
    movi r0, 4          ; SYS_WRITE
    movi r1, 1
    movi r2, msg
    movi r3, 6
    syscall
    movi r0, 1          ; SYS_EXIT
    movi r1, 0
    syscall
    .rodata
msg: .ascii \"hello\\n\"
";

fn key() -> asc_crypto::MacKey {
    asc_crypto::MacKey::from_seed(0x0819_0C0C)
}

/// The guest's actual trap pcs, learned from a plain run.
fn trap_pcs() -> Vec<u32> {
    let binary = assemble(GUEST).expect("assembles");
    let mut kernel = Kernel::new(KernelOptions::plain(Personality::Linux));
    kernel.set_brk(binary.highest_addr());
    let mut machine = Machine::load(&binary, kernel).expect("loads");
    assert_eq!(machine.run(1_000_000), RunOutcome::Exited(0));
    machine
        .into_handler()
        .trace()
        .iter()
        .map(|t| t.site)
        .collect()
}

fn run_enforced(tier: VerifyTier, registry: SiteRegistry) -> (RunOutcome, Kernel) {
    let binary = assemble(GUEST).expect("assembles");
    let mut kernel = Kernel::new(KernelOptions::enforcing(Personality::Linux).with_tier(tier));
    kernel.set_key(key());
    kernel.set_site_registry(registry);
    kernel.set_brk(binary.highest_addr());
    let mut machine = Machine::load(&binary, kernel).expect("loads");
    let outcome = machine.run(1_000_000);
    (outcome, machine.into_handler())
}

/// An unregistered trap dies as `unrewritten-site` under every tier,
/// before the verifier spends a single AES block and before the call
/// has any effect.
#[test]
fn unregistered_trap_fail_stops_before_the_mac_path() {
    let pcs = trap_pcs();
    for &tier in &VerifyTier::ALL {
        let (outcome, kernel) = run_enforced(tier, SiteRegistry::new());
        assert!(
            matches!(outcome, RunOutcome::Killed(_)),
            "{}: {outcome:?}",
            tier.name()
        );
        let alert = kernel.alerts().last().expect("kill alerts").clone();
        assert_eq!(alert.reason(), ReasonCode::UnrewrittenSite, "{alert}");
        let rendered = alert.to_string();
        assert!(
            rendered.contains("origin violation: trap from unrewritten site"),
            "{rendered}"
        );
        assert!(
            rendered.contains(&format!("{:#x}", pcs[0])),
            "kill names the offending pc: {rendered}"
        );
        assert!(kernel.stdout().is_empty(), "the write went through");
        assert!(kernel.trace().is_empty(), "a call was dispatched");
        assert_eq!(kernel.stats().verified, 0, "AES work was spent");
        assert_eq!(kernel.stats().verify_aes_blocks, 0);
        assert_eq!(kernel.stats().syscalls, 1, "exactly the killing trap");
    }
}

/// A registered pc passes the origin probe silently: the very same
/// unauthenticated guest then reaches the verification path and dies
/// *there* (fetching the call descriptor the installer never emitted) —
/// proof of the check ordering, and that a correct registry never masks
/// the downstream verdict.
#[test]
fn registered_trap_proceeds_to_the_verification_path() {
    let registry: SiteRegistry = trap_pcs().into_iter().collect();
    let (outcome, kernel) = run_enforced(VerifyTier::Mac, registry);
    assert!(matches!(outcome, RunOutcome::Killed(_)), "{outcome:?}");
    let alert = kernel.alerts().last().expect("kill alerts");
    assert_ne!(
        alert.reason(),
        ReasonCode::UnrewrittenSite,
        "a registered site must not be an origin kill: {alert}"
    );
    assert_eq!(
        alert.reason(),
        ReasonCode::MemoryFault,
        "the verifier died fetching the missing descriptor: {alert}"
    );
}

/// A partial registry kills the first trap whose pc is not in it, even
/// when other pcs are registered — membership is per site, not per
/// binary.
#[test]
fn partial_registry_kills_the_first_unregistered_site() {
    let pcs = trap_pcs();
    assert!(pcs.len() >= 2, "guest traps at least twice");
    // Register only the *second* site: the first trap is the violation.
    let registry: SiteRegistry = pcs[1..].iter().copied().collect();
    let (outcome, kernel) = run_enforced(VerifyTier::Mac, registry);
    assert!(matches!(outcome, RunOutcome::Killed(_)), "{outcome:?}");
    let alert = kernel.alerts().last().expect("kill alerts");
    assert_eq!(alert.reason(), ReasonCode::UnrewrittenSite);
    assert!(
        alert.to_string().contains(&format!("{:#x}", pcs[0])),
        "attributed to the unregistered first site: {}",
        alert
    );
}

/// A flow tier without a digraph is a configuration error the kernel
/// turns into a kill — never a panic, never an unchecked pass.
#[test]
fn flow_tier_without_a_digraph_kills_instead_of_passing() {
    let registry: SiteRegistry = trap_pcs().into_iter().collect();
    let (outcome, _) = run_enforced(VerifyTier::MacPlusFlow, registry);
    match outcome {
        RunOutcome::Killed(msg) => {
            assert!(msg.contains("flow tier without a digraph"), "{msg}")
        }
        other => panic!("expected a misconfiguration kill, got {other:?}"),
    }
}
