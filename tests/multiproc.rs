//! Cross-process isolation properties of the multi-process kernel.
//!
//! The scheduler time-slices N machines on the shared virtual cycle
//! clock; each process owns its kernel (policy key, anti-replay counter,
//! alert log, stats, verify cache).
//! These tests pin the isolation contract:
//!
//! * **(a) interleaving-independence** — under any seeded interleaving,
//!   every process's stdout, stderr, stats, filesystem digest, and
//!   counter are bit-identical to its solo run;
//! * **(b) kill isolation** — killing pid A mid-schedule leaves pid B's
//!   counter, cache epoch, and policy state untouched;
//! * **(c) replay rejection** — a policy-state cell captured from pid A
//!   is rejected when presented by pid B, even for the same binary;
//! * **determinism** — the same seed reproduces the interleaving, the
//!   aggregate stats, and the rendered server table bit-for-bit, and
//!   different seeds still agree on every per-pid result.

use std::sync::OnceLock;

use asc::crypto::MacKey;
use asc::installer::{Installer, InstallerOptions};
use asc::kernel::{
    FileSystem, Kernel, KernelOptions, KernelStats, Personality, ReasonCode, VerifyTier,
};
use asc::object::Binary;
use asc::sched::{ProcState, Process, SchedConfig, SchedPolicy, Scheduler};
use asc::vm::Machine;
use asc::workloads::{build, flow_graph_of, program, ProgramSpec, RUN_BUDGET};

const PERSONALITY: Personality = Personality::Linux;
const WORKLOADS: [&str; 3] = ["bison", "calc", "tar"];

fn key() -> MacKey {
    MacKey::from_seed(0x3117_0AC5)
}

/// Observables of a process's solo (unscheduled) run.
struct Solo {
    exit: u32,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
    stats: KernelStats,
    fs_digest: u64,
    counter: u64,
}

struct Built {
    spec: &'static ProgramSpec,
    auth: Binary,
    solo: Solo,
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
                let solo = solo_run(spec, &auth);
                Built { spec, auth, solo }
            })
            .collect()
    })
}

fn machine_for(spec: &ProgramSpec, auth: &Binary) -> Machine<Kernel> {
    machine_for_tier(spec, auth, VerifyTier::Mac)
}

/// [`machine_for`] under an explicit verification tier; the flow tiers
/// get the binary's installed digraph.
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

/// Solo observables under an explicit tier (per-tier `stats` differ:
/// the flow tiers charge different verification cycles).
fn solo_tier(spec: &ProgramSpec, auth: &Binary, tier: VerifyTier) -> Solo {
    let mut machine = machine_for_tier(spec, auth, tier);
    let outcome = machine.run(RUN_BUDGET);
    let exit = match outcome {
        asc::vm::RunOutcome::Exited(code) => code,
        other => panic!(
            "{}: solo {} run did not exit: {other:?}",
            spec.name,
            tier.name()
        ),
    };
    let kernel = machine.into_handler();
    Solo {
        exit,
        stdout: kernel.stdout().to_vec(),
        stderr: kernel.stderr().to_vec(),
        stats: *kernel.stats(),
        fs_digest: kernel.fs().digest(),
        counter: kernel.policy_counter(),
    }
}

fn solo_run(spec: &ProgramSpec, auth: &Binary) -> Solo {
    let mut machine = machine_for(spec, auth);
    let outcome = machine.run(RUN_BUDGET);
    let exit = match outcome {
        asc::vm::RunOutcome::Exited(code) => code,
        other => panic!("{}: solo run did not exit: {other:?}", spec.name),
    };
    let kernel = machine.into_handler();
    Solo {
        exit,
        stdout: kernel.stdout().to_vec(),
        stderr: kernel.stderr().to_vec(),
        stats: *kernel.stats(),
        fs_digest: kernel.fs().digest(),
        counter: kernel.policy_counter(),
    }
}

/// Spawns `n` processes cycling over the fleet's workloads under a
/// scheduler with the given policy and slice.
fn spawn_n(n: usize, policy: SchedPolicy, slice_instrs: u64) -> Scheduler {
    spawn_n_tier(n, policy, slice_instrs, VerifyTier::Mac)
}

/// [`spawn_n`] with an explicit verification tier.
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

fn assert_matches_solo(proc: &Process, solo: &Solo, context: &str) {
    assert_eq!(
        proc.state(),
        &ProcState::Exited(solo.exit),
        "{context}: pid {} ({}) diverged from its solo outcome (alerts: {:?})",
        proc.pid(),
        proc.name(),
        proc.kernel().alerts(),
    );
    let kernel = proc.kernel();
    assert_eq!(kernel.stdout(), &solo.stdout[..], "{context}: stdout");
    assert_eq!(kernel.stderr(), &solo.stderr[..], "{context}: stderr");
    assert_eq!(proc.stats(), solo.stats, "{context}: kernel stats");
    assert_eq!(kernel.fs().digest(), solo.fs_digest, "{context}: fs digest");
    assert_eq!(kernel.policy_counter(), solo.counter, "{context}: counter");
    assert!(kernel.alerts().is_empty(), "{context}: spurious alerts");
}

/// (a) Any interleaving of N processes reproduces each process's solo
/// run byte-for-byte: 24 seeded interleavings per N ∈ {2, 4, 8} (72
/// total), mixing round-robin and seeded-random policies and three
/// preemption granularities.
#[test]
fn any_interleaving_matches_solo_runs() {
    let fleet = fleet();
    for &n in &[2usize, 4, 8] {
        for round in 0..24u64 {
            let slice = [500, 2_000, 10_000][(round % 3) as usize];
            let policy = if round % 6 == 5 {
                SchedPolicy::RoundRobin
            } else {
                SchedPolicy::SeededRandom(0x1507_A7E0 ^ (n as u64) << 32 ^ round)
            };
            let mut sched = spawn_n(n, policy, slice);
            sched.run();
            let context = format!("n={n} round={round} slice={slice} policy={policy:?}");
            for proc in sched.processes() {
                let solo = &fleet[(proc.pid() as usize - 1) % fleet.len()].solo;
                assert_matches_solo(proc, solo, &context);
            }
            // The schedule actually interleaved: every pid got slices.
            for pid in 1..=n as u32 {
                assert!(
                    sched.process(pid).slices() > 1,
                    "{context}: pid {pid} never preempted"
                );
            }
        }
    }
}

/// (b) Killing pid A mid-schedule leaves every peer's counter, cache
/// epoch, and policy state exactly where they were; the peers then finish
/// bit-identical to solo. A's own verify cache is left as it was: the
/// process never runs again, so nothing needs clearing. Larger fleets
/// kill a long-running `calc` pid in the middle of the pid range.
#[test]
fn external_kill_leaves_peers_untouched() {
    let fleet = fleet();
    for (seed, n, victim) in [(0u64, 3usize, 1u32), (1, 3, 1), (2, 8, 5), (3, 8, 5)] {
        let mut sched = spawn_n(n, SchedPolicy::SeededRandom(0x0C11_5EED ^ seed), 2_000);
        // Run partway so every process has live verifier state.
        for _ in 0..20 * n {
            if sched.step().is_none() {
                break;
            }
        }
        let peers: Vec<u32> = (1..=n as u32).filter(|&pid| pid != victim).collect();
        let snapshot = |sched: &Scheduler, pid: u32| {
            let kernel = sched.process(pid).kernel();
            (
                kernel.policy_counter(),
                kernel.verify_cache().state_epoch(),
                kernel.cache_stats(),
                sched.process(pid).stats(),
            )
        };
        let before: Vec<_> = peers.iter().map(|&pid| snapshot(&sched, pid)).collect();
        let victim_cache = sched.process(victim).kernel().cache_stats();

        sched.kill(victim, "operator kill (seed test)");
        let context = format!("seed {seed} n={n}: after killing pid {victim}");
        assert!(
            matches!(sched.process(victim).state(), ProcState::Killed(_)),
            "{context}: the victim records the kill"
        );
        assert_eq!(
            sched.process(victim).kernel().cache_stats(),
            victim_cache,
            "{context}: the victim's cache keeps its counters"
        );
        for (i, &pid) in peers.iter().enumerate() {
            assert_eq!(
                snapshot(&sched, pid),
                before[i],
                "{context}: pid {pid}'s counter, cache epoch, cache stats or stats moved"
            );
        }

        sched.run();
        for &pid in &peers {
            let solo = &fleet[(pid as usize - 1) % fleet.len()].solo;
            assert_matches_solo(sched.process(pid), solo, &context);
        }
    }
}

/// Kill isolation at the pids a shared, 64-way pid-routed cache would
/// have put together: killing pid `a` leaves both a *same-shard*
/// neighbour `b` (the first pid whose 64-way route collides with `a`'s)
/// and a *cross-shard* peer `c` bit-untouched, and both then finish
/// bit-identical to solo. With a private cache per kernel no route
/// exists any more; the test pins that the pids most exposed to aliasing
/// under the old layout stay independent under the new one.
#[test]
fn same_shard_and_cross_shard_pids_survive_a_kill() {
    use asc::core::mix64;
    const SHARDS: u128 = 64;
    let shard = |pid: u32| (u128::from(mix64(u64::from(pid))) * SHARDS) >> 64;
    let fleet = fleet();
    let (a, b) = (1u32..)
        .flat_map(|hi| (1..hi).map(move |lo| (lo, hi)))
        .find(|&(lo, hi)| shard(lo) == shard(hi))
        .expect("some pid pair collides");
    let n = b as usize;
    let c = (1..=n as u32)
        .find(|&pid| shard(pid) != shard(a))
        .expect("some pid lands in another shard");

    let mut sched = spawn_n(n, SchedPolicy::SeededRandom(0x5AAD_B0DD), 2_000);
    for _ in 0..20 * n {
        if sched.step().is_none() {
            break;
        }
    }
    let snapshot = |sched: &Scheduler, pid: u32| {
        let kernel = sched.process(pid).kernel();
        (
            kernel.policy_counter(),
            kernel.verify_cache().state_epoch(),
            kernel.cache_stats(),
            sched.process(pid).stats(),
        )
    };
    let before: Vec<_> = [b, c].iter().map(|&pid| snapshot(&sched, pid)).collect();

    if sched.process(a).state().is_runnable() {
        sched.kill(a, "operator kill (shard-boundary test)");
        assert!(
            matches!(sched.process(a).state(), ProcState::Killed(_)),
            "pid {a} records the kill"
        );
    }
    for (i, &pid) in [b, c].iter().enumerate() {
        let kind = if i == 0 { "same-shard" } else { "cross-shard" };
        assert_eq!(
            snapshot(&sched, pid),
            before[i],
            "{kind} pid {pid}: counter, cache epoch, cache stats or stats moved on pid {a}'s kill"
        );
    }

    sched.run();
    for &pid in &[b, c] {
        if pid == a {
            continue;
        }
        let solo = &fleet[(pid as usize - 1) % fleet.len()].solo;
        assert_matches_solo(
            sched.process(pid),
            solo,
            &format!("after killing same-shard neighbour {a}"),
        );
    }
}

/// (c) A policy-state cell captured from pid A is rejected when
/// presented by pid B — same binary, same cell address, but B's
/// in-kernel counter MACs the cell differently, so the replay is a
/// fail-stop `bad-policy-state` kill attributed to B.
#[test]
fn policy_state_replayed_across_pids_is_rejected() {
    let fleet = fleet();
    // Pick a workload whose runs actually carry policy state.
    let built = fleet
        .iter()
        .find(|b| {
            let mut machine = machine_for(b.spec, &b.auth);
            machine.run(RUN_BUDGET);
            machine.into_handler().last_policy_cell().is_some()
        })
        .expect("some workload exercises policy state");

    let mut sched = Scheduler::new(SchedConfig {
        policy: SchedPolicy::RoundRobin,
        slice_instrs: 2_000,
        budget_cycles: RUN_BUDGET,
    });
    let a = sched.spawn(built.spec.name, machine_for(built.spec, &built.auth));
    let b = sched.spawn(built.spec.name, machine_for(built.spec, &built.auth));

    // Run A alone until it has verified a policy-state call and its
    // counter has pulled ahead of B's (B has not run at all).
    let mut cell = None;
    for _ in 0..2_000 {
        if !sched.process(a).state().is_runnable() {
            break;
        }
        sched.run_slice(a);
        cell = sched.process(a).kernel().last_policy_cell();
        if cell.is_some() && sched.process(a).kernel().policy_counter() > 0 {
            break;
        }
    }
    let cell = cell.expect("pid A verified a policy-state call");
    let c_a = sched.process(a).kernel().policy_counter();
    let c_b = sched.process(b).kernel().policy_counter();
    assert_ne!(
        c_a, c_b,
        "counters must have diverged for the replay to matter"
    );

    // Replay: copy A's live cell bytes over B's cell (same address —
    // identical binaries) through the kernel-level physical path.
    let len = asc::crypto::POLICY_STATE_LEN as u32;
    let bytes = sched
        .process(a)
        .machine()
        .mem()
        .kread(cell, len)
        .expect("A's policy cell is mapped");
    sched
        .process_mut(b)
        .machine_mut()
        .mem_mut()
        .kwrite(cell, &bytes)
        .expect("B's policy cell is mapped");

    // B must fail-stop on its next policy-state verification.
    while sched.process(b).state().is_runnable() {
        sched.run_slice(b);
    }
    assert!(
        matches!(sched.process(b).state(), ProcState::Killed(_)),
        "pid B accepted pid A's policy state: {:?}",
        sched.process(b).state()
    );
    let alert = sched
        .process(b)
        .kernel()
        .alerts()
        .last()
        .expect("fail-stop kill carries an alert")
        .clone();
    assert_eq!(alert.reason(), ReasonCode::BadPolicyState, "{alert}");
    assert_eq!(alert.pid, b, "the kill is attributed to the replaying pid");
}

/// Fleet-size differential: for N ∈ {2, 8, 64, 1024}, every pid of a
/// seeded schedule, each verifying against its own private cache, ends
/// bit-identical to its solo run: state, stdout/stderr, kernel stats
/// (including `verify_cycles` / `verify_aes_blocks` and the warm-hit
/// counts), filesystem digest and anti-replay counter.
#[test]
fn private_caches_match_solo_runs_at_fleet_sizes() {
    let fleet = fleet();
    for &n in &[2usize, 8, 64, 1024] {
        let mut sched = spawn_n(n, SchedPolicy::SeededRandom(0xF1EE_7000 ^ n as u64), 2_000);
        sched.run();
        assert_eq!(sched.processes().len(), n, "n={n}: process count");
        for proc in sched.processes() {
            let solo = &fleet[(proc.pid() as usize - 1) % fleet.len()].solo;
            assert_matches_solo(proc, solo, &format!("n={n}"));
        }
    }
}

/// The fleet harness (churn + hot/cold mix) is deterministic: the same
/// seed reproduces the whole fleet report.
#[test]
fn fleet_churn_is_deterministic() {
    use asc_bench::fleet::{render_fleet, run_fleet, FleetConfig};
    use asc_bench::server::ServerMode;
    let config = FleetConfig {
        procs: 8,
        seed: 0xF1EE_75ED,
        slice_instrs: 2_000,
        churn_spawns: 4,
    };
    let first = run_fleet(&config, ServerMode::Warm);
    let second = run_fleet(&config, ServerMode::Warm);
    assert_eq!(
        render_fleet(&first),
        render_fleet(&second),
        "same seed must reproduce the whole fleet report"
    );
    assert_eq!(first.spawned, 12, "churn spawned every replacement");
    assert_eq!(first.aggregate, second.aggregate);
}

/// Same seed ⇒ bit-identical interleaving, aggregate stats, and rendered
/// server table; different seeds ⇒ different interleavings but identical
/// per-pid results.
#[test]
fn scheduler_is_deterministic_and_order_independent() {
    use asc_bench::server::{render_server, run_server, ServerConfig, ServerMode};
    let config = ServerConfig {
        procs: 4,
        seed: 0x0D15_EA5E,
        slice_instrs: 2_000,
        round_robin: false,
    };
    let first = run_server(&config, ServerMode::Warm);
    let second = run_server(&config, ServerMode::Warm);
    assert_eq!(
        first.interleaving_fnv, second.interleaving_fnv,
        "same seed must reproduce the interleaving"
    );
    assert_eq!(first.aggregate, second.aggregate);
    assert_eq!(render_server(&first), render_server(&second));

    let other = run_server(
        &ServerConfig {
            seed: config.seed + 1,
            ..config
        },
        ServerMode::Warm,
    );
    assert_ne!(
        first.interleaving_fnv, other.interleaving_fnv,
        "a different seed should pick a different interleaving"
    );
    assert_eq!(
        first.aggregate, other.aggregate,
        "aggregate stats are order-independent"
    );
    assert_eq!(first.rows.len(), other.rows.len());
    for (x, y) in first.rows.iter().zip(&other.rows) {
        assert_eq!(x.pid, y.pid);
        assert_eq!(x.workload, y.workload);
        assert_eq!(x.cycles, y.cycles, "pid {}: cycles", x.pid);
        assert_eq!(x.syscalls, y.syscalls, "pid {}: syscalls", x.pid);
        assert_eq!(x.verified, y.verified, "pid {}: verified", x.pid);
        assert_eq!(x.cache_hits, y.cache_hits, "pid {}: cache hits", x.pid);
        assert_eq!(
            (x.p50, x.p90, x.p99),
            (y.p50, y.p90, y.p99),
            "pid {}: quantiles",
            x.pid
        );
    }
}

/// Flow-tier state (`last_syscall`) is per-pid: each process's kernel
/// tracks its own transition chain, so three interleaved workloads show
/// *different* last-syscall values mid-schedule (a shared chain would
/// force them equal — and would kill on every context switch, since one
/// pid's `execve` followed by a peer's `read` is rarely a digraph edge).
/// Killing a pid leaves every peer's flow state exactly where it was,
/// and the survivors still finish bit-identical to their solo runs.
#[test]
fn flow_state_is_per_pid_and_kills_do_not_leak() {
    let fleet = fleet();
    for (ti, &tier) in VerifyTier::ALL
        .iter()
        .enumerate()
        .filter(|(_, t)| t.checks_flow())
    {
        let solos: Vec<Solo> = fleet
            .iter()
            .map(|b| solo_tier(b.spec, &b.auth, tier))
            .collect();
        let mut sched = spawn_n_tier(
            3,
            SchedPolicy::SeededRandom(0xF10A_57A7 ^ ti as u64),
            2_000,
            tier,
        );
        // Run partway, sampling every pid's flow state after each slice.
        let mut saw_divergence = false;
        let mut saw_state = false;
        for _ in 0..60 {
            if sched.step().is_none() {
                break;
            }
            let last: Vec<Option<u16>> = (1..=3u32)
                .map(|pid| sched.process(pid).kernel().last_syscall())
                .collect();
            saw_state |= last.iter().any(Option::is_some);
            saw_divergence |= last
                .iter()
                .any(|l| l.is_some() && last.iter().any(|m| m.is_some() && m != l));
        }
        assert!(saw_state, "{}: no pid ever dispatched a call", tier.name());
        assert!(
            saw_divergence,
            "{}: three different workloads never disagreed on last_syscall — \
             the flow chain looks shared, not per-pid",
            tier.name()
        );

        // Killing pid 1 must not move any peer's flow state.
        let before: Vec<Option<u16>> = [2u32, 3]
            .iter()
            .map(|&pid| sched.process(pid).kernel().last_syscall())
            .collect();
        sched.kill(1, "operator kill (flow-state test)");
        for (i, &pid) in [2u32, 3].iter().enumerate() {
            assert_eq!(
                sched.process(pid).kernel().last_syscall(),
                before[i],
                "{}: pid {pid}'s flow state moved on pid 1's kill",
                tier.name()
            );
        }

        sched.run();
        for &pid in &[2u32, 3] {
            let solo = &solos[(pid as usize - 1) % fleet.len()];
            assert_matches_solo(
                sched.process(pid),
                solo,
                &format!("{} after killing pid 1", tier.name()),
            );
        }
    }
}

/// Tier differential: under *every* tier, each pid of a seeded N=8
/// schedule ends bit-identical to its solo run under the same tier,
/// including the flow-check and MAC cycles in its kernel stats.
#[test]
fn fleet_matches_solo_runs_under_every_tier() {
    let fleet = fleet();
    for (ti, &tier) in VerifyTier::ALL.iter().enumerate() {
        let solos: Vec<Solo> = fleet
            .iter()
            .map(|b| solo_tier(b.spec, &b.auth, tier))
            .collect();
        let policy = SchedPolicy::SeededRandom(0xBA7C_47E0 ^ ti as u64);
        let mut sched = spawn_n_tier(8, policy, 2_000, tier);
        sched.run();
        for proc in sched.processes() {
            let solo = &solos[(proc.pid() as usize - 1) % fleet.len()];
            assert_matches_solo(proc, solo, tier.name());
        }
    }
}

/// Origin kills are pid-local: a fleet of benign workloads plus one
/// hostile raw-`SYSCALL`-gadget guest (installed with its `.ascsites`
/// registry) loses exactly the gadget pid — killed with an attributed
/// `unrewritten-site` alert before its smuggled `write` produces a
/// byte — while every peer finishes bit-identical to its solo run, at
/// N ∈ {2, 8, 64}.
#[test]
fn gadget_pid_dies_alone_with_an_attributed_origin_kill() {
    let fleet = fleet();
    let spec = asc::workloads::hostile::hostile("gadget").expect("gadget in the corpus");
    let plain = asc::workloads::hostile::build_hostile(spec).expect("gadget assembles");
    let installer = Installer::new(
        key(),
        InstallerOptions::new(PERSONALITY).with_program_id(0x0AB7),
    );
    let (auth, _) = installer
        .install(&plain, spec.name)
        .expect("gadget installs");

    for &n in &[2usize, 8, 64] {
        let mut sched = spawn_n(n, SchedPolicy::SeededRandom(0x0619_0AD6 ^ n as u64), 2_000);
        let mut kernel = Kernel::new(
            KernelOptions::enforcing(PERSONALITY)
                .with_verify_cache()
                .with_tier(VerifyTier::Mac),
        );
        kernel.set_key(key());
        kernel.set_site_registry(asc::workloads::sites_of(&auth, &key()));
        kernel.set_brk(auth.highest_addr());
        let gadget = sched.spawn(
            spec.name,
            Machine::load(&auth, kernel).expect("gadget fits"),
        );
        sched.run();

        let proc = sched.process(gadget);
        assert!(
            matches!(proc.state(), ProcState::Killed(_)),
            "n={n}: gadget pid survived: {:?}",
            proc.state()
        );
        let alert = proc
            .kernel()
            .alerts()
            .last()
            .expect("origin kill carries an alert");
        assert_eq!(alert.reason(), ReasonCode::UnrewrittenSite, "{alert}");
        assert_eq!(
            alert.pid, gadget,
            "the kill is attributed to the gadget pid"
        );
        assert!(
            proc.kernel().stdout().is_empty(),
            "n={n}: the smuggled write escaped: {:?}",
            String::from_utf8_lossy(proc.kernel().stdout())
        );
        assert!(
            proc.kernel().trace().is_empty(),
            "n={n}: a gadget call was dispatched"
        );

        for proc in sched.processes() {
            if proc.pid() == gadget {
                continue;
            }
            let solo = &fleet[(proc.pid() as usize - 1) % fleet.len()].solo;
            assert_matches_solo(proc, solo, &format!("n={n} with a gadget peer"));
        }
    }
}

/// Guest memory is paged and lazily zeroed, so a pid costs host memory
/// only for the guest pages it touches. An N=1024 fleet built after an
/// earlier one was dropped (so the allocator hands back dirty, recycled
/// memory) holds exactly the resident pages the first fleet held, pid
/// for pid, and every pid stays under a fixed page bound.
#[test]
fn fleet_guest_memory_is_bounded_and_allocator_independent() {
    const N: usize = 1024;
    /// 64 KiB of touched guest memory per pid, of the 8 MiB it maps
    /// (bison, calc and tar touch at most 12 pages).
    const MAX_PAGES_PER_PID: usize = 16;
    let policy = SchedPolicy::SeededRandom(0x9A6E_5000);
    let resident = || {
        let mut sched = spawn_n(N, policy, 2_000);
        sched.run();
        sched
            .processes()
            .iter()
            .map(|p| p.machine().mem().resident_pages())
            .collect::<Vec<_>>()
    };
    let first = resident();
    let second = resident();
    assert_eq!(first, second, "resident pages depend on allocator history");
    for (pid0, &pages) in first.iter().enumerate() {
        assert!(
            (1..=MAX_PAGES_PER_PID).contains(&pages),
            "pid {}: {pages} resident pages",
            pid0 + 1
        );
    }
}
