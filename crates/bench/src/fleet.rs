//! The fleet-scale benchmark behind `asc-bench --bin server --fleet`.
//!
//! Where the `server` harness shows the paper's scenario at table scale
//! (a handful of processes), this one stresses the *fleet* regime:
//! N=1000+ processes with spawn/exit churn and a hot/cold workload mix,
//! each kernel verifying against its own private verify cache. The report
//! is fleet-wide rather than per-pid (its size stays bounded as N grows).
//! AES key-schedule reuse is measured, not modeled, via the fleet-wide
//! `block_ops` meter on one [`asc_crypto::MacKey::shared_schedule`] family
//! (every kernel holds a handle; fresh per-kernel keys would each burn a
//! subkey derivation).
//!
//! Fleet throughput is reported on a *parallel* clock: the fleet's
//! simulated wall time is the maximum per-process cycle count (processes
//! on real hardware run on their own cores; the scheduler's serial
//! interleaving is a verification artifact, not a cost). Per-call work is
//! O(1) in fleet size, so aggregate verified-calls per fleet-second must
//! scale near-linearly in N — `measure_fleet` in the perf trajectory
//! asserts exactly that.
//!
//! Everything is a pure function of the seed; the default configuration's
//! report is golden-pinned (`crates/bench/golden/fleet.txt`) and diffed by
//! the `fleet-smoke` CI job.

use asc_core::json::Value;
use asc_core::mix64;
use asc_crypto::MacKey;
use asc_kernel::{FileSystem, Kernel, KernelMetrics, KernelOptions, KernelStats, Personality};
use asc_metrics::Snapshot;
use asc_object::Binary;
use asc_sched::{Pid, ProcState, SchedConfig, SchedPolicy, Scheduler};
use asc_vm::Machine;
use asc_workloads::ProgramSpec;

use crate::server::{fnv64, server_binaries, server_specs, ServerMode, DEFAULT_SEED};
use crate::{bench_key, sim_seconds};

/// Fleet benchmark parameters.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Initial number of concurrent processes.
    pub procs: usize,
    /// Interleaving seed.
    pub seed: u64,
    /// Retired-instruction quantum per slice.
    pub slice_instrs: u64,
    /// Churn: extra processes spawned, one per observed exit, until this
    /// many replacements have joined the fleet.
    pub churn_spawns: usize,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            procs: 64,
            seed: DEFAULT_SEED,
            slice_instrs: 10_000,
            churn_spawns: 16,
        }
    }
}

/// One full fleet run.
#[derive(Clone, Debug)]
pub struct FleetRun {
    /// Mode the processes ran under.
    pub mode: ServerMode,
    /// The configuration used.
    pub config: FleetConfig,
    /// Kernel stats summed over all processes.
    pub aggregate: KernelStats,
    /// Shared virtual clock: total cycles across all slices (serial view).
    pub clock: u64,
    /// Maximum per-process cycle count (parallel-clock fleet wall time).
    pub max_proc_cycles: u64,
    /// Total slices scheduled.
    pub slices: u64,
    /// FNV-1a digest of the pid interleaving (determinism witness).
    pub interleaving_fnv: u64,
    /// Processes spawned in total (initial + churn replacements).
    pub spawned: u64,
    /// AES block operations through the fleet's one shared key schedule
    /// (0 in base mode, which installs no key).
    pub aes_block_ops: u64,
    /// Subkey-derivation block operations avoided by handing kernels
    /// [`MacKey::shared_schedule`] handles instead of fresh keys: one per
    /// spawn beyond the first.
    pub key_setups_saved: u64,
    /// Every kernel's metrics registry merged into one snapshot.
    pub merged_metrics: Snapshot,
}

impl FleetRun {
    /// Fleet wall time in simulated seconds on the parallel clock.
    pub fn fleet_sim_seconds(&self) -> f64 {
        sim_seconds(self.max_proc_cycles)
    }

    /// Aggregate verified calls per simulated second of fleet wall time.
    pub fn verified_per_fleet_second(&self) -> f64 {
        let secs = self.fleet_sim_seconds();
        if secs > 0.0 {
            self.aggregate.verified as f64 / secs
        } else {
            0.0
        }
    }
}

/// Hot pids (roughly a quarter of the fleet: those whose mixed pid has
/// its top two bits clear) run the long syscall-heavy workload; cold pids
/// alternate between the two short ones.
fn workload_index(pid: Pid, specs: &[&ProgramSpec]) -> usize {
    let calc = specs
        .iter()
        .position(|s| s.name == "calc")
        .expect("calc is a server workload");
    if mix64(u64::from(pid)) >> 62 == 0 {
        calc
    } else {
        // The two non-calc workloads, alternating by pid.
        let others: Vec<usize> = (0..specs.len()).filter(|&i| i != calc).collect();
        others[pid as usize % others.len()]
    }
}

fn spawn_fleet_proc(
    sched: &mut Scheduler,
    specs: &[&ProgramSpec],
    binaries: &[Binary],
    mode: ServerMode,
    fleet_key: &MacKey,
) -> Pid {
    // Pids are assigned in spawn order; predict the next one to pick the
    // workload before the kernel exists.
    let pid = (sched.processes().len() + 1) as Pid;
    let i = workload_index(pid, specs);
    let spec = specs[i];
    let mut fs = FileSystem::new();
    (spec.setup_fs)(&mut fs);
    let opts = match mode {
        ServerMode::Base => KernelOptions::plain(Personality::Linux),
        ServerMode::Cold => KernelOptions::enforcing(Personality::Linux),
        ServerMode::Warm => KernelOptions::enforcing(Personality::Linux).with_verify_cache(),
    };
    let mut kernel = Kernel::with_fs(opts, fs);
    if mode != ServerMode::Base {
        // A handle to the fleet's one expanded schedule: no per-spawn
        // subkey derivation, and every kernel meters into one counter.
        kernel.set_key(fleet_key.shared_schedule());
    }
    kernel.set_stdin(spec.stdin.to_vec());
    kernel.set_brk(binaries[i].highest_addr());
    let machine =
        Machine::load(&binaries[i], kernel).expect("workload binary fits in guest memory");
    let spawned = sched.spawn(spec.name, machine);
    debug_assert_eq!(spawned, pid);
    sched
        .process_mut(spawned)
        .kernel_mut()
        .set_metrics(Box::new(KernelMetrics::new()));
    spawned
}

/// Runs the fleet under churn and collects its aggregate results. Fully
/// deterministic for a given config.
pub fn run_fleet(config: &FleetConfig, mode: ServerMode) -> FleetRun {
    assert!(config.procs >= 1, "at least one process");
    let specs = server_specs();
    let binaries = server_binaries(&specs, mode);
    let fleet_key = bench_key();
    let key_ops_at_rest = fleet_key.block_ops();

    let mut sched = Scheduler::new(SchedConfig {
        policy: SchedPolicy::SeededRandom(config.seed),
        slice_instrs: config.slice_instrs,
        budget_cycles: asc_workloads::RUN_BUDGET,
    });

    for _ in 0..config.procs {
        spawn_fleet_proc(&mut sched, &specs, &binaries, mode, &fleet_key);
    }

    // Churn driver: every observed exit spawns one replacement until the
    // churn budget is used up, so the fleet shrinks only at the end.
    let mut churn_left = config.churn_spawns;
    while let Some(pid) = sched.step() {
        if churn_left > 0 && !sched.process(pid).state().is_runnable() {
            spawn_fleet_proc(&mut sched, &specs, &binaries, mode, &fleet_key);
            churn_left -= 1;
        }
    }

    let mut merged = Snapshot::default();
    let mut max_proc_cycles = 0u64;
    for proc in sched.processes() {
        assert!(
            matches!(proc.state(), ProcState::Exited(_)),
            "pid {} ({}) did not exit cleanly: {:?} (alerts: {:?})",
            proc.pid(),
            proc.name(),
            proc.state(),
            proc.kernel().alerts(),
        );
        max_proc_cycles = max_proc_cycles.max(proc.machine().cycles());
        merged.absorb_registry(
            proc.kernel()
                .metrics()
                .expect("metrics were attached at spawn")
                .registry(),
        );
    }

    let spawned = sched.processes().len() as u64;
    let aes_block_ops = if mode == ServerMode::Base {
        0
    } else {
        fleet_key.block_ops() - key_ops_at_rest
    };
    FleetRun {
        mode,
        config: *config,
        aggregate: sched.aggregate_stats(),
        clock: sched.clock(),
        max_proc_cycles,
        slices: sched.interleaving().len() as u64,
        interleaving_fnv: fnv64(sched.interleaving()),
        spawned,
        aes_block_ops,
        key_setups_saved: if mode == ServerMode::Base {
            0
        } else {
            spawned.saturating_sub(1)
        },
        merged_metrics: merged,
    }
}

/// Renders the human report (the golden-pinned output of
/// `--bin server --fleet`).
pub fn render_fleet(run: &FleetRun) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let cfg = &run.config;
    let _ = writeln!(
        out,
        "Fleet verification throughput — {} procs (+{} churn), {} kernels, seed {:#x}, slice {} instrs",
        cfg.procs, cfg.churn_spawns, run.mode.label(), cfg.seed, cfg.slice_instrs,
    );
    let _ = writeln!(
        out,
        "fleet: {} processes, {} verified calls in {:.4} fleet sim-seconds -> {:.1} verified calls/fleet-sec",
        run.spawned,
        run.aggregate.verified,
        run.fleet_sim_seconds(),
        run.verified_per_fleet_second(),
    );
    let _ = writeln!(
        out,
        "crypto: {} AES block ops through one shared schedule, {} key setups saved",
        run.aes_block_ops, run.key_setups_saved,
    );
    let _ = writeln!(
        out,
        "schedule: {} slices, interleaving fnv64 {:#018x}",
        run.slices, run.interleaving_fnv,
    );
    out
}

/// Converts a fleet run to a JSON value for the `--json` report mode.
pub fn fleet_to_value(run: &FleetRun) -> Value {
    Value::Object(vec![
        ("mode".into(), Value::Str(run.mode.label().into())),
        ("procs".into(), Value::Num(run.config.procs as f64)),
        (
            "churn_spawns".into(),
            Value::Num(run.config.churn_spawns as f64),
        ),
        ("seed".into(), Value::Num(run.config.seed as f64)),
        (
            "slice_instrs".into(),
            Value::Num(run.config.slice_instrs as f64),
        ),
        ("spawned".into(), Value::Num(run.spawned as f64)),
        ("clock_cycles".into(), Value::Num(run.clock as f64)),
        (
            "max_proc_cycles".into(),
            Value::Num(run.max_proc_cycles as f64),
        ),
        ("slices".into(), Value::Num(run.slices as f64)),
        // Same zero-padded hex encoding as the server report: the
        // determinism witness must survive JSON round-trips above 2^53.
        (
            "interleaving_fnv".into(),
            Value::Str(format!("{:#018x}", run.interleaving_fnv)),
        ),
        (
            "verified_total".into(),
            Value::Num(run.aggregate.verified as f64),
        ),
        (
            "verified_per_fleet_second".into(),
            Value::Num(run.verified_per_fleet_second()),
        ),
        ("aes_block_ops".into(), Value::Num(run.aes_block_ops as f64)),
        (
            "key_setups_saved".into(),
            Value::Num(run.key_setups_saved as f64),
        ),
    ])
}
