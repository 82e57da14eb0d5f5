//! The three workloads: set-up (compile, assemble and install every binary
//! a workload runs) and one pass, with the checks on the guests' outputs.
//!
//! The benchmark calls only entry points that the simplifications planned
//! in ROADMAP items 3–4 keep, so it runs unchanged across them:
//! `asc_workloads::build*`, `Installer::install`, `Kernel::with_fs` with
//! `KernelOptions::enforcing` (optionally `.with_verify_cache()`),
//! `set_key` / `set_site_registry` / `attach_metrics`, `Machine::load` /
//! `run`, `SyscallHandler`, `Scheduler::new` / `spawn` / `step` /
//! `attach_recorder` / `take_audit` (its `SchedConfig` built with
//! `..SchedConfig::default()`), and `Sentinel::attach` / `observe` /
//! `finish`. It never uses the shared
//! verify cache, batch windows, the traced or metered wrappers, or fault
//! hooks.

use asc_crypto::MacKey;
use asc_installer::{Installer, InstallerOptions};
use asc_kernel::{FileSystem, Kernel, KernelOptions, Personality, ReasonCode, SiteRegistry};
use asc_object::Binary;
use asc_sched::{ProcState, RecorderConfig, SchedConfig, SchedPolicy, Scheduler};
use asc_sentinel::{Sentinel, SentinelConfig};
use asc_vm::{Machine, RunOutcome, SyscallHandler};
use asc_workloads::{ProgramSpec, RUN_BUDGET};

use crate::expect::Expected;
use crate::guest::LoopGuest;
use crate::seed::Rng;
use crate::trace::{span, TimedKernel};

const PERSONALITY: Personality = Personality::Linux;

/// Benign programs of the `fleet-churn` mix.
const FLEET_MIX: [&str; 3] = ["bison", "calc", "tar"];
/// Concurrent pids per `fleet-churn` wave.
const FLEET_PIDS: usize = 64;
/// Pids per wave that run the hostile `gadget` guest.
const FLEET_GADGETS: usize = FLEET_PIDS / 16;
/// Consecutive waves per `fleet-churn` pass.
pub const FLEET_WAVES: u64 = 4;
/// Sentinel window on the shared virtual clock.
const WINDOW_CYCLES: u64 = 2_000_000;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The nine Table-6 programs, once each, enforcing, no verify cache.
    SpecCpu,
    /// The generated call loop, installed with the control-flow policy.
    SyscallLoop,
    /// Waves of concurrent pids under the scheduler, fully observed.
    FleetChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SpecCpu,
        Workload::SyscallLoop,
        Workload::FleetChurn,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpecCpu => "spec-cpu",
            Workload::SyscallLoop => "syscall-loop",
            Workload::FleetChurn => "fleet-churn",
        }
    }
}

/// One binary as built and as installed, and the site registry its
/// enforcing kernel loads.
struct Installed {
    plain: Binary,
    binary: Binary,
    sites: Option<SiteRegistry>,
}

/// What a workload runs, built and installed.
enum Setup {
    SpecCpu(Vec<(&'static ProgramSpec, Installed)>),
    SyscallLoop {
        guest: LoopGuest,
        auth: Installed,
    },
    FleetChurn {
        benign: Vec<(&'static ProgramSpec, Installed)>,
        gadget: Installed,
    },
}

/// Counters of one pass (or one wave), summed over its guest processes.
#[derive(Debug, Default)]
pub struct PassStats {
    /// Simulated cycles.
    pub sim_cycles: u64,
    /// Guest instructions retired.
    pub instret: u64,
    /// System calls trapped.
    pub traps: u64,
    /// Calls that went through ASC verification.
    pub verified: u64,
    /// Verifications served by a verify cache.
    pub cache_hits: u64,
    /// AES blocks spent on verification.
    pub aes_blocks: u64,
    /// Scheduler slices.
    pub slices: u64,
    /// Sentinel windows closed.
    pub windows: u64,
    /// Peak resident set of the process after the pass's first wave, MB.
    pub first_wave_peak_mb: f64,
    /// Guest processes run.
    pub attempted: u64,
    /// One line per guest process that failed a check.
    pub failures: Vec<String>,
}

impl PassStats {
    fn add_kernel(&mut self, kernel: &Kernel) {
        let s = kernel.stats();
        self.traps += s.syscalls;
        self.verified += s.verified;
        self.cache_hits += s.cache_hits;
        self.aes_blocks += s.verify_aes_blocks;
    }

    fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(e);
        }
    }
}

/// A workload, set up for one seed.
pub struct Bench {
    seed: u64,
    key: MacKey,
    expected: Expected,
    setup: Setup,
}

fn install(key: &MacKey, plain: Binary, name: &str, program_id: u16) -> Installed {
    let installer = Installer::new(
        key.clone(),
        InstallerOptions::new(PERSONALITY).with_program_id(program_id),
    );
    let (binary, _) = span("installer.install", || installer.install(&plain, name))
        .unwrap_or_else(|e| panic!("{name} installs: {e}"));
    let sites = asc_workloads::site_registry_for(&binary, key);
    Installed {
        plain,
        binary,
        sites,
    }
}

fn build_program(spec: &ProgramSpec) -> Binary {
    span("workloads.build", || {
        asc_workloads::build(spec, PERSONALITY)
    })
    .unwrap_or_else(|e| panic!("{} builds: {e}", spec.name))
}

fn program(name: &str) -> &'static ProgramSpec {
    asc_workloads::program(name).unwrap_or_else(|| panic!("{name} is a registered program"))
}

fn fs_for(spec: &ProgramSpec) -> FileSystem {
    let mut fs = FileSystem::new();
    (spec.setup_fs)(&mut fs);
    fs
}

/// The outcome of one solo guest run.
struct Finished {
    outcome: RunOutcome,
    kernel: Kernel,
}

/// Loads and runs one guest to completion.
fn drive<H: SyscallHandler>(binary: &Binary, handler: H, stats: &mut PassStats) -> (RunOutcome, H) {
    let mut machine =
        span("vm.load", || Machine::load(binary, handler)).expect("guest fits in memory");
    let outcome = span("vm.run", || machine.run(RUN_BUDGET));
    stats.sim_cycles += machine.cycles();
    stats.instret += machine.instret();
    let handler = span("vm.drop", || machine.into_handler());
    (outcome, handler)
}

/// Runs one guest; a traced run wraps the kernel so every trap is a span.
fn run_solo(binary: &Binary, kernel: Kernel, traced: bool, stats: &mut PassStats) -> Finished {
    let (outcome, kernel) = if traced {
        let (outcome, timed) = drive(binary, TimedKernel(kernel), stats);
        (outcome, timed.0)
    } else {
        drive(binary, kernel, stats)
    };
    stats.add_kernel(&kernel);
    Finished { outcome, kernel }
}

impl Bench {
    /// Compiles, assembles and installs every binary `workload` runs.
    pub fn setup(workload: Workload, seed: u64) -> Bench {
        let key = MacKey::from_seed(0xA5C0_BE7C);
        let setup = match workload {
            Workload::SpecCpu => {
                let mut specs: Vec<&'static ProgramSpec> = asc_workloads::programs()
                    .iter()
                    .filter(|p| p.perf_experiment)
                    .collect();
                Rng::new(seed).shuffle(&mut specs);
                let programs = specs
                    .into_iter()
                    .zip(1u16..)
                    .map(|(spec, id)| (spec, install(&key, build_program(spec), spec.name, id)))
                    .collect();
                Setup::SpecCpu(programs)
            }
            Workload::SyscallLoop => {
                let guest = LoopGuest::generate(seed);
                let plain = span("workloads.build", || asc_asm::assemble(&guest.source))
                    .expect("generated loop assembles");
                let auth = install(&key, plain, "syscall-loop", 1);
                Setup::SyscallLoop { guest, auth }
            }
            Workload::FleetChurn => {
                let benign = FLEET_MIX
                    .iter()
                    .zip(1u16..)
                    .map(|(name, id)| {
                        let spec = program(name);
                        (spec, install(&key, build_program(spec), name, id))
                    })
                    .collect();
                let hostile =
                    asc_workloads::hostile::hostile("gadget").expect("gadget is in the corpus");
                let plain = span("workloads.build", || {
                    asc_workloads::hostile::build_hostile(hostile)
                })
                .expect("gadget assembles");
                let gadget = install(&key, plain, "gadget", 0x0AB7);
                Setup::FleetChurn { benign, gadget }
            }
        };
        Bench {
            seed,
            key,
            expected: Expected::load(),
            setup,
        }
    }

    fn enforcing_kernel(
        &self,
        installed: &Installed,
        fs: FileSystem,
        stdin: &[u8],
        cache: bool,
    ) -> Kernel {
        let opts = KernelOptions::enforcing(PERSONALITY);
        let opts = if cache {
            opts.with_verify_cache()
        } else {
            opts
        };
        let mut kernel = Kernel::with_fs(opts, fs);
        kernel.set_stdin(stdin.to_vec());
        kernel.set_key(self.key.clone());
        if let Some(sites) = &installed.sites {
            kernel.set_site_registry(sites.clone());
        }
        kernel.set_brk(installed.binary.highest_addr());
        kernel
    }

    /// One pass of the workload. `traced` loads solo guests with
    /// [`TimedKernel`]; the spans themselves are on whenever tracing is.
    pub fn pass(&self, traced: bool) -> PassStats {
        let mut stats = PassStats::default();
        match &self.setup {
            Setup::SpecCpu(programs) => {
                for (spec, installed) in programs {
                    let kernel = span("bench.kernel_setup", || {
                        self.enforcing_kernel(installed, fs_for(spec), spec.stdin, false)
                    });
                    let done = run_solo(&installed.binary, kernel, traced, &mut stats);
                    span("bench.check", || {
                        stats.check(self.check_solo(spec.name, &done));
                        drop(done);
                    });
                }
            }
            Setup::SyscallLoop { guest, auth, .. } => {
                let kernel = span("bench.kernel_setup", || {
                    self.enforcing_kernel(auth, guest.fixture_fs(), b"", false)
                });
                let done = run_solo(&auth.binary, kernel, traced, &mut stats);
                span("bench.check", || {
                    let result = self.check_loop(guest, &done);
                    stats.check(result);
                    drop(done);
                });
            }
            Setup::FleetChurn { .. } => {
                for wave in 0..FLEET_WAVES {
                    self.wave(wave, true, &mut stats);
                    if wave == 0 {
                        stats.first_wave_peak_mb = peak_rss_mb();
                    }
                }
            }
        }
        stats
    }

    /// Checks a solo guest's exit status and stdout against the pinned
    /// outcome of `name`.
    fn check_solo(&self, name: &str, done: &Finished) -> Result<(), String> {
        let exit = match done.outcome {
            RunOutcome::Exited(code) => Some(code),
            _ => None,
        };
        let how = format!("{:?}", done.outcome);
        self.expected.check(name, exit, &how, done.kernel.stdout())
    }

    fn check_loop(&self, guest: &LoopGuest, done: &Finished) -> Result<(), String> {
        self.check_solo("syscall-loop", done)?;
        let stats = done.kernel.stats();
        if stats.syscalls != guest.traps() || stats.verified != stats.syscalls {
            return Err(format!(
                "syscall-loop: {} traps, {} verified; the loop makes {}",
                stats.syscalls,
                stats.verified,
                guest.traps()
            ));
        }
        guest
            .check_outputs(done.kernel.fs())
            .map_err(|e| format!("syscall-loop: {e}"))
    }

    /// Runs the uninstalled binaries of a solo workload on plain kernels,
    /// traced: the baseline for the verification share of a trap. `None`
    /// for `fleet-churn`, whose kernels the scheduler owns.
    pub fn plain_pass(&self) -> Option<PassStats> {
        let plain_kernel = |installed: &Installed, fs, stdin: &[u8]| {
            let mut kernel = Kernel::with_fs(KernelOptions::plain(PERSONALITY), fs);
            kernel.set_stdin(stdin.to_vec());
            kernel.set_brk(installed.plain.highest_addr());
            kernel
        };
        let mut stats = PassStats::default();
        match &self.setup {
            Setup::SpecCpu(programs) => {
                for (spec, installed) in programs {
                    let kernel = plain_kernel(installed, fs_for(spec), spec.stdin);
                    let done = run_solo(&installed.plain, kernel, true, &mut stats);
                    stats.check(self.check_solo(spec.name, &done));
                }
            }
            Setup::SyscallLoop { guest, auth } => {
                let kernel = plain_kernel(auth, guest.fixture_fs(), b"");
                let done = run_solo(&auth.plain, kernel, true, &mut stats);
                stats.check(self.check_solo("syscall-loop", &done));
            }
            Setup::FleetChurn { .. } => return None,
        }
        Some(stats)
    }

    /// The pids of one wave, as indexes into the benign mix (`None` for
    /// the gadget): equal shares of the mix plus [`FLEET_GADGETS`]
    /// gadgets, in a seeded order.
    fn roster(rng: &mut Rng) -> Vec<Option<usize>> {
        let mut roster: Vec<Option<usize>> = (0..FLEET_PIDS - FLEET_GADGETS)
            .map(|i| Some(i % FLEET_MIX.len()))
            .chain(std::iter::repeat_n(None, FLEET_GADGETS))
            .collect();
        rng.shuffle(&mut roster);
        roster
    }

    /// One `fleet-churn` wave. `observed` attaches the recorder, a metrics
    /// registry per kernel and the sentinel; without them the wave is the
    /// bare baseline for `obs.overhead_pct`.
    pub fn wave(&self, wave: u64, observed: bool, stats: &mut PassStats) {
        let Setup::FleetChurn { benign, gadget } = &self.setup else {
            panic!("only fleet-churn runs waves");
        };
        let mut rng = Rng::new(self.seed ^ wave.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let roster = Self::roster(&mut rng);
        let mut sched = Scheduler::new(SchedConfig {
            policy: SchedPolicy::SeededRandom(rng.next_u64()),
            ..SchedConfig::default()
        });
        if observed {
            sched.attach_recorder(RecorderConfig::default());
        }
        for slot in &roster {
            let (spec, installed) = match slot {
                Some(i) => (Some(benign[*i].0), &benign[*i].1),
                None => (None, gadget),
            };
            let kernel = span("bench.kernel_setup", || {
                let (fs, stdin) =
                    spec.map_or((FileSystem::new(), &b""[..]), |s| (fs_for(s), s.stdin));
                let mut kernel = self.enforcing_kernel(installed, fs, stdin, true);
                if observed {
                    kernel.attach_metrics();
                }
                kernel
            });
            let machine = span("vm.load", || Machine::load(&installed.binary, kernel))
                .expect("guest fits in memory");
            let name = spec.map_or("gadget", |s| s.name);
            span("sched.spawn", || sched.spawn(name, machine));
        }
        let mut sentinel = observed.then(|| {
            span("sentinel.attach", || {
                Sentinel::attach(&sched, SentinelConfig::new(WINDOW_CYCLES))
            })
        });
        while span("sched.step", || sched.step()).is_some() {
            if let Some(s) = sentinel.as_mut() {
                span("sentinel.observe", || s.observe(&sched));
            }
        }
        if let Some(s) = sentinel.as_mut() {
            span("sentinel.finish", || s.finish(&sched));
            stats.windows += s.windows_total();
        }
        if observed {
            let audit = span("sched.take_audit", || sched.take_audit());
            let pids = audit.map_or(0, |a| a.pids.len());
            if pids != roster.len() {
                stats
                    .failures
                    .push(format!("wave {wave}: audit covers {pids} pids"));
            }
        }
        span("bench.check", || {
            stats.sim_cycles += sched.clock();
            stats.slices += sched.interleaving().len() as u64;
            for proc in sched.processes() {
                stats.instret += proc.machine().instret();
                stats.add_kernel(proc.kernel());
                let result = if proc.name() == "gadget" {
                    check_gadget(proc.state(), proc.kernel())
                } else {
                    let (exit, how) = match proc.state() {
                        ProcState::Exited(code) => (Some(*code), String::new()),
                        other => (None, format!("{other:?}")),
                    };
                    self.expected.check(proc.name(), exit, &how, proc.stdout())
                };
                stats.check(result.map_err(|e| format!("wave {wave} pid {}: {e}", proc.pid())));
            }
        });
        span("sched.drop", || drop(sched));
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// A gadget pid must end killed by an unrewritten-site alert, having
/// written nothing.
fn check_gadget(state: &ProcState, kernel: &Kernel) -> Result<(), String> {
    if !matches!(state, ProcState::Killed(_)) {
        return Err(format!("gadget was not killed: {state:?}"));
    }
    match kernel.alerts().last() {
        Some(alert) if alert.reason() == ReasonCode::UnrewrittenSite => {}
        other => {
            return Err(format!(
                "gadget killed without an unrewritten-site alert: {other:?}"
            ))
        }
    }
    if !kernel.stdout().is_empty() {
        return Err("gadget wrote to stdout".into());
    }
    Ok(())
}
