//! Differential testing: authentication must be behaviour-preserving.
//!
//! Every registered workload runs under three regimes — the plain
//! binary on a plain kernel, the installed binary on an enforcing
//! kernel (cold), and the installed binary on an enforcing kernel with
//! the verified-call cache enabled (warm) — and the two enforcing
//! regimes are swept across every [`VerifyTier`]. All observable
//! behaviour must be identical: exit status, stdout, stderr, the
//! dispatched-syscall sequence, and the final filesystem tree.
//! (Call-site addresses move when the installer rewrites the text, so
//! the trace comparison is on the `(raw_nr, effective id)` sequence,
//! which is what a monitor observes.)

use asc::crypto::MacKey;
use asc::installer::{Installer, InstallerOptions};
use asc::kernel::{Kernel, KernelOptions, Personality, SyscallId, VerifyTier};
use asc::vm::RunOutcome;
use asc::workloads::{build, measure, programs};

fn key() -> MacKey {
    MacKey::from_seed(0x0DD5_EED5)
}

/// The observables of one run, site addresses excluded.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: RunOutcome,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
    calls: Vec<(u16, SyscallId)>,
    fs_digest: u64,
}

fn observe(outcome: RunOutcome, kernel: &Kernel) -> Observed {
    Observed {
        outcome,
        stdout: kernel.stdout().to_vec(),
        stderr: kernel.stderr().to_vec(),
        calls: kernel
            .trace()
            .iter()
            .map(|entry| (entry.raw_nr, entry.id))
            .collect(),
        fs_digest: kernel.fs().digest(),
    }
}

#[test]
fn every_workload_is_behaviour_identical_across_all_regimes_and_tiers() {
    let personality = Personality::Linux;
    let mut total_cache_hits = 0;
    for (index, spec) in programs().iter().enumerate() {
        let plain = build(spec, personality).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let installer = Installer::new(
            key(),
            InstallerOptions::new(personality).with_program_id(0x0D1F + index as u16),
        );
        let (auth, _) = installer
            .install(&plain, spec.name)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));

        let report = measure(spec, &plain, KernelOptions::plain(personality), None);
        let base = observe(report.outcome, &report.kernel);
        assert!(
            base.outcome.is_success(),
            "{}: plain run failed: {:?}",
            spec.name,
            base.outcome
        );

        // One sweep body for every (tier, cold/warm) enforcing regime:
        // the regime is data, not copy-pasted code.
        for &tier in &VerifyTier::ALL {
            let cold = KernelOptions::enforcing(personality).with_tier(tier);
            let warm = cold.clone().with_verify_cache();
            for (regime, report) in [
                ("cold", measure(spec, &auth, cold, Some(key()))),
                ("warm", measure(spec, &auth, warm, Some(key()))),
            ] {
                let observed = observe(report.outcome.clone(), &report.kernel);
                assert_eq!(
                    base,
                    observed,
                    "{}: {} {regime} run diverged from plain (alerts: {:?})",
                    spec.name,
                    tier.name(),
                    report.kernel.alerts()
                );
                let stats = report.kernel.stats();
                if tier.checks_mac() {
                    assert!(
                        stats.verify_aes_blocks > 0,
                        "{}: {} {regime}: no MAC work on an enforcing run",
                        spec.name,
                        tier.name()
                    );
                } else {
                    // The flow tier must stay off the AES path entirely
                    // (that is the whole point of its price tag).
                    assert_eq!(
                        stats.verify_aes_blocks, 0,
                        "{}: flow-only {regime} touched AES",
                        spec.name
                    );
                }
                if regime == "warm" {
                    total_cache_hits += stats.cache_hits;
                }
            }
        }
    }
    // Programs that never re-execute a call site legitimately stay cold,
    // but across the suite the warm path must have been exercised.
    assert!(
        total_cache_hits > 0,
        "cache never went warm on any workload"
    );
}
