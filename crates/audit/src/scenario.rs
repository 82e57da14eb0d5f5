//! Scenario descriptions and the canonical runners replay shares with the
//! harnesses that capture bundles.
//!
//! A [`Scenario`] is everything needed to reproduce a run from seeds: the
//! workload(s), the OS personality, the verification tier, the
//! installation-key seed, the armed fault, and — for fleets — the
//! scheduler's policy seed and slicing parameters. The runners here are
//! the *single* implementation both sides use: the fault campaign and the
//! audit benchmark capture bundles through them, and [`crate::replay`]
//! re-runs them, so capture and replay cannot drift apart.

use asc_core::{CacheStats, FlowGraph};
use asc_crypto::MacKey;
use asc_installer::{Installer, InstallerOptions};
use asc_kernel::FaultAction;
use asc_kernel::{
    Alert, FileSystem, Kernel, KernelOptions, KernelStats, Personality, TraceEntry, TrapFault,
    VerifyTier,
};
use asc_object::Binary;
use asc_sched::{Pid, RecorderConfig, SchedConfig, SchedPolicy, Scheduler};
use asc_trace::{Event, RingSink};
use asc_vm::{Machine, RunOutcome, StepOutcome};
use asc_workloads::{build, flow_graph_of, program, ProgramSpec, RUN_BUDGET};

use asc_core::json::Value;

use crate::{field, hex64, num, str_field, u64_field};

/// Ring capacity for bundle span capture: the victim's last events.
pub const BUNDLE_SPAN_CAPACITY: usize = 32;

/// A fault to arm on a run, exactly as the campaign plans them.
#[derive(Clone, Copy, Debug)]
pub enum AuditFault {
    /// XOR one byte of guest memory once `at_instret` instructions retire.
    Mem {
        /// Retired-instruction count at which the flip lands.
        at_instret: u64,
        /// Guest address of the flipped byte.
        addr: u32,
        /// XOR mask (nonzero).
        mask: u8,
    },
    /// A trap-time fault armed on the kernel (register corruption, counter
    /// skew, cache poisoning — see [`TrapFault`]).
    Trap(TrapFault),
}

impl AuditFault {
    /// Serializes the fault for a bundle.
    pub fn to_value(&self) -> Value {
        match self {
            AuditFault::Mem {
                at_instret,
                addr,
                mask,
            } => Value::Object(vec![
                ("type".into(), Value::Str("mem".into())),
                ("at_instret".into(), num(*at_instret)),
                ("addr".into(), num(u64::from(*addr))),
                ("mask".into(), num(u64::from(*mask))),
            ]),
            AuditFault::Trap(tf) => {
                let action = match tf.action {
                    FaultAction::XorReg { index, mask } => Value::Object(vec![
                        ("type".into(), Value::Str("xor-reg".into())),
                        ("index".into(), num(u64::from(index))),
                        ("mask".into(), num(u64::from(mask))),
                    ]),
                    FaultAction::SkewCounter { delta } => Value::Object(vec![
                        ("type".into(), Value::Str("skew-counter".into())),
                        ("delta".into(), Value::Num(delta as f64)),
                    ]),
                    FaultAction::CorruptCache { selector, mask } => Value::Object(vec![
                        ("type".into(), Value::Str("corrupt-cache".into())),
                        ("selector".into(), hex64(selector)),
                        ("mask".into(), num(u64::from(mask))),
                    ]),
                    FaultAction::SkewCacheEpoch { delta } => Value::Object(vec![
                        ("type".into(), Value::Str("skew-cache-epoch".into())),
                        ("delta".into(), num(delta)),
                    ]),
                };
                Value::Object(vec![
                    ("type".into(), Value::Str("trap".into())),
                    ("at_trap".into(), num(tf.at_trap)),
                    ("action".into(), action),
                ])
            }
        }
    }

    /// Parses a fault serialized by [`AuditFault::to_value`].
    pub fn from_value(value: &Value) -> Result<AuditFault, String> {
        match str_field(value, "type")?.as_str() {
            "mem" => Ok(AuditFault::Mem {
                at_instret: u64_field(value, "at_instret")?,
                addr: u64_field(value, "addr")? as u32,
                mask: u64_field(value, "mask")? as u8,
            }),
            "trap" => {
                let action_value = field(value, "action")?;
                let action = match str_field(action_value, "type")?.as_str() {
                    "xor-reg" => FaultAction::XorReg {
                        index: u64_field(action_value, "index")? as u8,
                        mask: u64_field(action_value, "mask")? as u32,
                    },
                    "skew-counter" => {
                        let delta = field(action_value, "delta")?;
                        let delta = match delta.as_u64() {
                            Some(n) => n as i64,
                            None => {
                                let text = delta.to_pretty();
                                text.trim()
                                    .parse::<i64>()
                                    .map_err(|e| format!("bad delta: {e}"))?
                            }
                        };
                        FaultAction::SkewCounter { delta }
                    }
                    "corrupt-cache" => FaultAction::CorruptCache {
                        selector: u64_field(action_value, "selector")?,
                        mask: u64_field(action_value, "mask")? as u8,
                    },
                    "skew-cache-epoch" => FaultAction::SkewCacheEpoch {
                        delta: u64_field(action_value, "delta")?,
                    },
                    other => return Err(format!("unknown fault action {other:?}")),
                };
                Ok(AuditFault::Trap(TrapFault {
                    at_trap: u64_field(value, "at_trap")?,
                    action,
                }))
            }
            other => Err(format!("unknown fault type {other:?}")),
        }
    }
}

fn personality_to_str(p: Personality) -> &'static str {
    p.name()
}

fn personality_from_str(name: &str) -> Result<Personality, String> {
    match name {
        "linux" => Ok(Personality::Linux),
        "openbsd" => Ok(Personality::OpenBsd),
        other => Err(format!("unknown personality {other:?}")),
    }
}

fn tier_from_str(name: &str) -> Result<VerifyTier, String> {
    match name {
        "flow-only" => Ok(VerifyTier::FlowOnly),
        "mac" => Ok(VerifyTier::Mac),
        "mac+flow" => Ok(VerifyTier::MacPlusFlow),
        other => Err(format!("unknown verify tier {other:?}")),
    }
}

/// The scenario a bundle reproduces.
#[derive(Clone, Debug)]
pub enum Scenario {
    /// One process, one kernel (the fault campaign's shape).
    Solo(SoloScenario),
    /// A scheduled fleet with a seeded interleaving.
    Fleet(FleetScenario),
}

impl Scenario {
    /// Serializes the scenario for a bundle.
    pub fn to_value(&self) -> Value {
        match self {
            Scenario::Solo(s) => s.to_value(),
            Scenario::Fleet(f) => f.to_value(),
        }
    }

    /// Parses a scenario serialized by [`Scenario::to_value`].
    pub fn from_value(value: &Value) -> Result<Scenario, String> {
        match str_field(value, "kind")?.as_str() {
            "solo" => Ok(Scenario::Solo(SoloScenario::from_value(value)?)),
            "fleet" => Ok(Scenario::Fleet(FleetScenario::from_value(value)?)),
            other => Err(format!("unknown scenario kind {other:?}")),
        }
    }
}

/// A single-process enforcing run: workload, install identity, tier, and
/// the armed fault.
#[derive(Clone, Debug)]
pub struct SoloScenario {
    /// Registered workload name.
    pub workload: String,
    /// OS personality for build and kernel.
    pub personality: Personality,
    /// Verification tier.
    pub tier: VerifyTier,
    /// Whether the (test-only) weakened string check was active.
    pub weakened: bool,
    /// Installer program id.
    pub program_id: u16,
    /// Seed of the installation MAC key ([`MacKey::from_seed`]).
    pub key_seed: u64,
    /// The armed fault, if any.
    pub fault: Option<AuditFault>,
}

impl SoloScenario {
    /// Serializes the scenario.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("kind".into(), Value::Str("solo".into())),
            ("workload".into(), Value::Str(self.workload.clone())),
            (
                "personality".into(),
                Value::Str(personality_to_str(self.personality).into()),
            ),
            ("tier".into(), Value::Str(self.tier.name().into())),
            ("weakened".into(), Value::Bool(self.weakened)),
            ("program_id".into(), num(u64::from(self.program_id))),
            ("key_seed".into(), hex64(self.key_seed)),
            (
                "fault".into(),
                self.fault
                    .as_ref()
                    .map(AuditFault::to_value)
                    .unwrap_or(Value::Null),
            ),
        ])
    }

    /// Parses a scenario serialized by [`SoloScenario::to_value`].
    pub fn from_value(value: &Value) -> Result<SoloScenario, String> {
        let fault = match field(value, "fault")? {
            Value::Null => None,
            v => Some(AuditFault::from_value(v)?),
        };
        Ok(SoloScenario {
            workload: str_field(value, "workload")?,
            personality: personality_from_str(&str_field(value, "personality")?)?,
            tier: tier_from_str(&str_field(value, "tier")?)?,
            weakened: field(value, "weakened")?
                .as_bool()
                .ok_or("weakened is not a bool")?,
            program_id: u64_field(value, "program_id")? as u16,
            key_seed: u64_field(value, "key_seed")?,
            fault,
        })
    }

    /// Builds and installs the workload, reproducing the artifacts the
    /// scenario originally ran (same key seed, program id, personality ⇒
    /// same authenticated binary, bit for bit).
    ///
    /// # Panics
    ///
    /// Panics on harness preconditions: unknown workload, build or
    /// install failure.
    pub fn prepare(&self) -> PreparedSolo {
        let spec =
            program(&self.workload).unwrap_or_else(|| panic!("unknown workload {}", self.workload));
        let plain =
            build(spec, self.personality).unwrap_or_else(|e| panic!("{}: {e}", self.workload));
        let key = MacKey::from_seed(self.key_seed);
        let installer = Installer::new(
            key.clone(),
            InstallerOptions::new(self.personality).with_program_id(self.program_id),
        );
        let (auth, _) = installer
            .install(&plain, spec.name)
            .unwrap_or_else(|e| panic!("{}: {e}", self.workload));
        let flow = self.tier.checks_flow().then(|| flow_graph_of(&auth, &key));
        PreparedSolo {
            scenario: self.clone(),
            spec,
            auth,
            key,
            flow,
        }
    }

    /// Prepares and runs the scenario once (replay path; harnesses that
    /// run many faults against one binary use [`SoloScenario::prepare`] +
    /// [`PreparedSolo::run`]).
    pub fn run(&self) -> SoloRun {
        self.prepare().run(self.fault.as_ref())
    }
}

/// A built-and-installed solo scenario, ready to run faults against.
pub struct PreparedSolo {
    scenario: SoloScenario,
    spec: &'static ProgramSpec,
    auth: Binary,
    key: MacKey,
    flow: Option<FlowGraph>,
}

impl PreparedSolo {
    /// Borrowed runner parameters for [`run_solo`].
    pub fn params(&self) -> SoloParams<'_> {
        SoloParams {
            spec: self.spec,
            auth: &self.auth,
            personality: self.scenario.personality,
            tier: self.scenario.tier,
            weakened: self.scenario.weakened,
            key: &self.key,
            flow: self.flow.as_ref(),
        }
    }

    /// Runs the prepared scenario with `fault` armed.
    pub fn run(&self, fault: Option<&AuditFault>) -> SoloRun {
        run_solo(&self.params(), fault)
    }
}

/// Borrowed inputs to [`run_solo`]: a built workload plus kernel options.
/// Harnesses that already hold the artifacts (the fault campaign builds
/// and installs once per workload) construct this directly; replay goes
/// through [`SoloScenario::prepare`].
pub struct SoloParams<'a> {
    /// The workload spec (filesystem setup, stdin).
    pub spec: &'a ProgramSpec,
    /// The installed (authenticated) binary.
    pub auth: &'a Binary,
    /// OS personality.
    pub personality: Personality,
    /// Verification tier.
    pub tier: VerifyTier,
    /// Weakened string check (test-only).
    pub weakened: bool,
    /// Installation key.
    pub key: &'a MacKey,
    /// The binary's flow digraph (required by flow tiers).
    pub flow: Option<&'a FlowGraph>,
}

/// Everything observable about one solo run, as captured for bundles and
/// the campaign oracle.
#[derive(Clone, Debug)]
pub struct SoloRun {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Machine cycles at the end (for kills: the kill cycle).
    pub cycles: u64,
    /// Instructions retired.
    pub instret: u64,
    /// Captured standard output.
    pub stdout: Vec<u8>,
    /// Captured standard error.
    pub stderr: Vec<u8>,
    /// The dispatched-syscall trace.
    pub trace: Vec<TraceEntry>,
    /// Structured administrator alerts.
    pub alerts: Vec<Alert>,
    /// Digest of the final filesystem tree.
    pub fs_digest: u64,
    /// The kernel's aggregate counters.
    pub stats: KernelStats,
    /// The verified-call cache's counters.
    pub cache: CacheStats,
    /// The in-kernel anti-replay counter's final value.
    pub policy_counter: u64,
    /// The last ring events (capacity [`BUNDLE_SPAN_CAPACITY`]), oldest
    /// first — the bundle's span log.
    pub spans: Vec<Event>,
    /// Events the span ring discarded (exact).
    pub ring_dropped: u64,
}

/// The canonical solo runner: an enforcing cache-enabled kernel with a
/// bounded span ring attached, an optional armed fault, and full
/// observable capture. Bundle capture (`asc-faults`) and [`crate::replay`]
/// both run through here, so they cannot diverge.
pub fn run_solo(params: &SoloParams<'_>, fault: Option<&AuditFault>) -> SoloRun {
    let mut fs = FileSystem::new();
    (params.spec.setup_fs)(&mut fs);
    let mut opts = KernelOptions::enforcing(params.personality)
        .with_verify_cache()
        .with_tier(params.tier);
    if params.weakened {
        opts = opts.with_weakened_string_check();
    }
    let mut kernel = Kernel::with_fs(opts, fs);
    if params.tier.checks_flow() {
        let flow = params.flow.expect("flow tiers need the binary's digraph");
        kernel.set_flow_graph(flow.clone());
    }
    if let Some(sites) = asc_workloads::site_registry_for(params.auth, params.key) {
        kernel.set_site_registry(sites);
    }
    kernel.set_stdin(params.spec.stdin.to_vec());
    kernel.set_key(params.key.clone());
    kernel.set_brk(params.auth.highest_addr());
    kernel.set_trace_sink(Box::new(RingSink::new(BUNDLE_SPAN_CAPACITY)));
    let mut machine = Machine::load(params.auth, kernel).expect("workload fits in memory");
    let mut mem_fault = None;
    match fault {
        Some(AuditFault::Trap(tf)) => machine.handler_mut().arm_fault(*tf),
        Some(AuditFault::Mem {
            at_instret,
            addr,
            mask,
        }) => mem_fault = Some((*at_instret, *addr, *mask)),
        None => {}
    }
    let outcome = match mem_fault {
        Some((at_instret, addr, mask)) => match machine.run_until_instret(at_instret, RUN_BUDGET) {
            StepOutcome::Done(outcome) => outcome, // finished before the flip
            StepOutcome::Running => {
                if let Ok(byte) = machine.mem().kread(addr, 1).map(|b| b[0]) {
                    let _ = machine.mem_mut().kwrite(addr, &[byte ^ mask]);
                }
                machine.run(RUN_BUDGET)
            }
        },
        None => machine.run(RUN_BUDGET),
    };
    let cycles = machine.cycles();
    let instret = machine.instret();
    let mut kernel = machine.into_handler();
    let ring = kernel
        .take_trace_sink()
        .expect("span ring attached above")
        .into_any()
        .downcast::<RingSink>()
        .expect("sink is the span ring");
    let stats = *kernel.stats();
    SoloRun {
        outcome,
        cycles,
        instret,
        stdout: kernel.stdout().to_vec(),
        stderr: kernel.stderr().to_vec(),
        trace: kernel.trace().to_vec(),
        alerts: kernel.alerts().to_vec(),
        fs_digest: kernel.fs().digest(),
        stats,
        cache: kernel.cache_stats(),
        policy_counter: kernel.policy_counter(),
        spans: ring.events().cloned().collect(),
        ring_dropped: ring.dropped_events(),
    }
}

/// A scheduled fleet scenario: per-pid workloads, a seeded interleaving,
/// and an optional trap fault armed on one pid.
#[derive(Clone, Debug)]
pub struct FleetScenario {
    /// Workload name per pid (pid `i + 1` runs `procs[i]`).
    pub procs: Vec<String>,
    /// OS personality.
    pub personality: Personality,
    /// Verification tier (all kernels).
    pub tier: VerifyTier,
    /// Seed of the shared installation key.
    pub key_seed: u64,
    /// Program id of the first distinct workload; the `i`-th distinct
    /// workload (in order of first appearance) installs as `base + i`.
    pub program_id_base: u16,
    /// Scheduler policy seed ([`SchedPolicy::SeededRandom`]).
    pub sched_seed: u64,
    /// Retired-instruction quantum per slice.
    pub slice_instrs: u64,
    /// Per-process cycle budget.
    pub budget_cycles: u64,
    /// A trap fault armed on one pid's kernel before the run.
    pub fault: Option<(Pid, TrapFault)>,
}

impl FleetScenario {
    /// Serializes the scenario.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("kind".into(), Value::Str("fleet".into())),
            (
                "procs".into(),
                Value::Array(self.procs.iter().map(|w| Value::Str(w.clone())).collect()),
            ),
            (
                "personality".into(),
                Value::Str(personality_to_str(self.personality).into()),
            ),
            ("tier".into(), Value::Str(self.tier.name().into())),
            ("key_seed".into(), hex64(self.key_seed)),
            (
                "program_id_base".into(),
                num(u64::from(self.program_id_base)),
            ),
            ("sched_seed".into(), hex64(self.sched_seed)),
            ("slice_instrs".into(), num(self.slice_instrs)),
            ("budget_cycles".into(), num(self.budget_cycles)),
            (
                "fault".into(),
                self.fault
                    .as_ref()
                    .map(|(pid, tf)| {
                        Value::Object(vec![
                            ("pid".into(), num(u64::from(*pid))),
                            ("trap".into(), AuditFault::Trap(*tf).to_value()),
                        ])
                    })
                    .unwrap_or(Value::Null),
            ),
        ])
    }

    /// Parses a scenario serialized by [`FleetScenario::to_value`].
    pub fn from_value(value: &Value) -> Result<FleetScenario, String> {
        let procs = field(value, "procs")?
            .as_array()
            .ok_or("procs is not an array")?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "proc entry is not a string".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let fault = match field(value, "fault")? {
            Value::Null => None,
            v => {
                let pid = u64_field(v, "pid")? as Pid;
                match AuditFault::from_value(field(v, "trap")?)? {
                    AuditFault::Trap(tf) => Some((pid, tf)),
                    AuditFault::Mem { .. } => return Err("fleet faults must be trap faults".into()),
                }
            }
        };
        Ok(FleetScenario {
            procs,
            personality: personality_from_str(&str_field(value, "personality")?)?,
            tier: tier_from_str(&str_field(value, "tier")?)?,
            key_seed: u64_field(value, "key_seed")?,
            program_id_base: u64_field(value, "program_id_base")? as u16,
            sched_seed: u64_field(value, "sched_seed")?,
            slice_instrs: u64_field(value, "slice_instrs")?,
            budget_cycles: u64_field(value, "budget_cycles")?,
            fault,
        })
    }

    /// Builds, installs, and spawns the fleet (one kernel with its own
    /// verify cache per pid, the fault armed), without running any slice.
    ///
    /// # Panics
    ///
    /// Panics on harness preconditions: unknown workload, build/install
    /// failure, fault pid out of range.
    pub fn build(&self) -> Scheduler {
        let key = MacKey::from_seed(self.key_seed).shared_schedule();
        let mut built: Vec<(String, &'static ProgramSpec, Binary, Option<FlowGraph>)> = Vec::new();
        for name in &self.procs {
            if built.iter().any(|(n, ..)| n == name) {
                continue;
            }
            let spec = program(name).unwrap_or_else(|| panic!("unknown workload {name}"));
            let plain = build(spec, self.personality).unwrap_or_else(|e| panic!("{name}: {e}"));
            let program_id = self.program_id_base + built.len() as u16;
            let installer = Installer::new(
                key.clone(),
                InstallerOptions::new(self.personality).with_program_id(program_id),
            );
            let (auth, _) = installer
                .install(&plain, spec.name)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let flow = self.tier.checks_flow().then(|| flow_graph_of(&auth, &key));
            built.push((name.clone(), spec, auth, flow));
        }
        let mut sched = Scheduler::new(SchedConfig {
            policy: SchedPolicy::SeededRandom(self.sched_seed),
            slice_instrs: self.slice_instrs,
            budget_cycles: self.budget_cycles,
        });
        for name in &self.procs {
            let (_, spec, auth, flow) =
                built.iter().find(|(n, ..)| n == name).expect("built above");
            let mut fs = FileSystem::new();
            (spec.setup_fs)(&mut fs);
            let mut kernel = Kernel::with_fs(
                KernelOptions::enforcing(self.personality)
                    .with_verify_cache()
                    .with_tier(self.tier),
                fs,
            );
            if self.tier.checks_flow() {
                kernel.set_flow_graph(flow.clone().expect("flow built for flow tiers"));
            }
            if let Some(sites) = asc_workloads::site_registry_for(auth, &key) {
                kernel.set_site_registry(sites);
            }
            kernel.set_stdin(spec.stdin.to_vec());
            kernel.set_key(key.clone());
            kernel.set_brk(auth.highest_addr());
            let machine = Machine::load(auth, kernel).expect("workload fits in memory");
            sched.spawn(name, machine);
        }
        if let Some((pid, tf)) = &self.fault {
            sched.process_mut(*pid).kernel_mut().arm_fault(*tf);
        }
        sched
    }

    /// Builds the fleet and runs it to completion, optionally with the
    /// flight recorder attached (attachment is perturbation-free, so the
    /// run is bit-identical either way).
    pub fn run(&self, recorder: Option<RecorderConfig>) -> Scheduler {
        let mut sched = self.build();
        if let Some(cfg) = recorder {
            sched.attach_recorder(cfg);
        }
        sched.run();
        sched
    }

    /// Builds the fleet and steps the seeded interleaving only until
    /// `victim` stops being runnable (the replay-to-kill path). Returns
    /// the scheduler frozen at that point.
    pub fn run_to_kill(&self, victim: Pid) -> Scheduler {
        let mut sched = self.build();
        while sched.process(victim).state().is_runnable() {
            if sched.step().is_none() {
                break;
            }
        }
        sched
    }
}
