//! Detection-latency campaign: the classic intrusion-detection metric
//! the paper never measures — virtual-clock cycles from fault injection
//! to the first operator-visible health signal.
//!
//! For every [`FaultClass`] the campaign builds a small monitored fleet
//! (victim plus background processes, each with its own verify cache), draws a
//! seeded fault from the victim's artifact [`Inventory`] exactly like
//! the main campaign, injects it mid-run at a recorded *arming clock*,
//! and keeps an [`asc_sentinel::Sentinel`] observing on slice
//! boundaries. Three clocks bracket each detection:
//!
//! * **armed** — the fault enters the system (byte flipped, armed trap
//!   reached);
//! * **effect** — the first kernel-visible consequence (an alert
//!   raised, a cache fallback or scrub counted). For memory flips the
//!   armed→effect gap is the *workload's* consumption delay — honest
//!   to record, impossible to bound (a string corrupted at startup may
//!   not be read until output time);
//! * **detected** — the firing cycle of the first
//!   [`asc_sentinel::HealthEvent`] at or after the effect.
//!
//! The report records the full cycles-to-detection (armed→detected)
//! per class and enforces the hard bound on the **monitoring lag**
//! (effect→detected) — the part the sentinel's window geometry
//! actually promises. Trials whose draw is benign (the flipped byte is
//! never consumed, the poisoned entry never probed) are redrawn with
//! fresh seeds; an effect that produces *no* event is a monitoring
//! hole and fails immediately. [`LatencyReport::problems`] turns every
//! gap into a CI failure.
//!
//! The monitored fleet is observed, never steered: the sentinel reads
//! the scheduler through shared references only, so the latencies are
//! measurements of the *monitoring* layer, not artifacts of it.

use asc_core::json::Value;
use asc_installer::{Installer, InstallerOptions};
use asc_kernel::{FileSystem, Kernel, KernelOptions, Personality, VerifyTier};
use asc_object::Binary;
use asc_sched::{Pid, SchedConfig, SchedPolicy, Scheduler};
use asc_sentinel::{Detector, Sentinel, SentinelConfig};
use asc_testkit::Rng;
use asc_vm::Machine;
use asc_workloads::{build, program, ProgramSpec, RUN_BUDGET};

use crate::campaign::{plan_fault, record_of, PlannedFault, RunRecord};
use crate::campaign_key;
use crate::inventory::{scan, Inventory};
use crate::FaultClass;

use asc_audit::{run_solo, SoloParams};

/// Workloads the monitored fleet cycles through (the victim is drawn
/// from this list too — the first workload whose inventory has
/// artifacts of the class under test).
const FLEET_WORKLOADS: [&str; 3] = ["bison", "calc", "tar"];

/// Latency-campaign parameters. Identical configs reproduce identical
/// reports.
#[derive(Clone, Debug)]
pub struct LatencyConfig {
    /// Master seed.
    pub seed: u64,
    /// Sentinel window length on the shared virtual clock.
    pub window_cycles: u64,
    /// Hard monitoring-lag bound, in windows: a detection later than
    /// `bound_windows × window_cycles` after the fault's first
    /// kernel-visible effect is a campaign failure.
    pub bound_windows: u64,
    /// Seeded draws per class before giving up (every undetectable
    /// class is a campaign failure).
    pub max_trials: u32,
    /// Guest personality.
    pub personality: Personality,
    /// Fault classes to measure. Defaults to the pre-origin
    /// [`FaultClass::ALL`] list the golden-pinned health table
    /// enumerates; [`LatencyConfig::with_classes`] narrows or extends
    /// it (e.g. to the origin classes).
    pub classes: Vec<FaultClass>,
}

impl LatencyConfig {
    /// Defaults used by the health bench: 50k-cycle windows, a
    /// 2-window hard lag bound, 16 draws per class.
    pub fn new(seed: u64) -> LatencyConfig {
        LatencyConfig {
            seed,
            window_cycles: 50_000,
            bound_windows: 2,
            max_trials: 16,
            personality: Personality::Linux,
            classes: FaultClass::ALL.to_vec(),
        }
    }

    /// Replaces the measured class list.
    pub fn with_classes(mut self, classes: &[FaultClass]) -> LatencyConfig {
        self.classes = classes.to_vec();
        self
    }

    /// The hard bound in cycles.
    pub fn bound_cycles(&self) -> u64 {
        self.bound_windows * self.window_cycles
    }
}

/// One fault class's measured detection.
#[derive(Clone, Debug)]
pub struct LatencyRow {
    /// The corrupted artifact class.
    pub class: FaultClass,
    /// Workload the fault was drawn against (the victim).
    pub victim: String,
    /// Seeded draws consumed, including benign ones.
    pub trials: u32,
    /// Virtual clock when the fault entered the system (the byte
    /// flipped, the armed trap reached).
    pub armed_clock: u64,
    /// Virtual clock of the first kernel-visible effect (alert raised,
    /// degradation counter bumped).
    pub effect_clock: u64,
    /// Name of the detector that fired first.
    pub detector: String,
    /// Firing cycle of that first health event.
    pub detected_clock: u64,
    /// Full cycles-to-detection, `detected_clock − armed_clock`
    /// (includes the workload's artifact-consumption delay).
    pub latency: u64,
    /// Monitoring lag, `detected_clock − effect_clock` — what the hard
    /// bound is enforced against.
    pub lag: u64,
    /// Whether the lag met the hard bound.
    pub within_bound: bool,
}

/// The coverage matrix: one row per fault class, plus the geometry the
/// latencies were measured under.
#[derive(Clone, Debug)]
pub struct LatencyReport {
    /// Master seed the campaign ran under.
    pub seed: u64,
    /// Sentinel window length.
    pub window_cycles: u64,
    /// Hard monitoring-lag bound in cycles.
    pub bound_cycles: u64,
    /// Detected classes, in the config's class order.
    pub rows: Vec<LatencyRow>,
    /// Classes never detected within the trial budget (or whose effect
    /// produced no event — a monitoring hole).
    pub undetected: Vec<(FaultClass, String)>,
}

impl LatencyReport {
    /// Everything that fails the campaign: an undetected non-benign
    /// class, or a detection beyond the hard bound.
    pub fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (class, detail) in &self.undetected {
            problems.push(format!("{}: never detected ({detail})", class.name()));
        }
        for row in &self.rows {
            if !row.within_bound {
                problems.push(format!(
                    "{}: monitoring lag {} exceeds bound {}",
                    row.class.name(),
                    row.lag,
                    self.bound_cycles
                ));
            }
        }
        problems
    }

    /// Fixed-width coverage-matrix table (golden-pinned by the health
    /// bench).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:<6} {:>9} {:>9} {:<14} {:>9} {:>9} {:>7} {:>5}",
            "fault class",
            "trials",
            "victim",
            "armed",
            "effect",
            "detector",
            "detected",
            "latency",
            "lag",
            "bound"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:<6} {:>9} {:>9} {:<14} {:>9} {:>9} {:>7} {:>5}",
                row.class.name(),
                row.trials,
                row.victim,
                row.armed_clock,
                row.effect_clock,
                row.detector,
                row.detected_clock,
                row.latency,
                row.lag,
                if row.within_bound { "ok" } else { "MISS" },
            );
        }
        out
    }

    /// Renders as an [`asc_core::json`] object.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("seed".to_string(), Value::Num(self.seed as f64)),
            (
                "window_cycles".to_string(),
                Value::Num(self.window_cycles as f64),
            ),
            (
                "bound_cycles".to_string(),
                Value::Num(self.bound_cycles as f64),
            ),
            (
                "rows".to_string(),
                Value::Array(
                    self.rows
                        .iter()
                        .map(|r| {
                            Value::Object(vec![
                                ("class".to_string(), Value::Str(r.class.name().to_string())),
                                ("victim".to_string(), Value::Str(r.victim.clone())),
                                ("trials".to_string(), Value::Num(r.trials as f64)),
                                ("armed_clock".to_string(), Value::Num(r.armed_clock as f64)),
                                (
                                    "effect_clock".to_string(),
                                    Value::Num(r.effect_clock as f64),
                                ),
                                ("detector".to_string(), Value::Str(r.detector.clone())),
                                (
                                    "detected_clock".to_string(),
                                    Value::Num(r.detected_clock as f64),
                                ),
                                ("latency".to_string(), Value::Num(r.latency as f64)),
                                ("lag".to_string(), Value::Num(r.lag as f64)),
                                ("within_bound".to_string(), Value::Bool(r.within_bound)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "undetected".to_string(),
                Value::Array(
                    self.undetected
                        .iter()
                        .map(|(c, d)| {
                            Value::Object(vec![
                                ("class".to_string(), Value::Str(c.name().to_string())),
                                ("detail".to_string(), Value::Str(d.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// One built workload, reusable across trials.
struct BuiltWorkload {
    spec: &'static ProgramSpec,
    auth: Binary,
    inv: Inventory,
    clean: RunRecord,
}

fn build_workloads(personality: Personality) -> Vec<BuiltWorkload> {
    let key = campaign_key();
    FLEET_WORKLOADS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let spec = program(name).unwrap_or_else(|| panic!("unknown workload {name}"));
            let plain = build(spec, personality).unwrap_or_else(|e| panic!("{name}: {e}"));
            let installer = Installer::new(
                key.clone(),
                InstallerOptions::new(personality).with_program_id(0x1A7E + i as u16),
            );
            let (auth, _) = installer
                .install(&plain, spec.name)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let inv = scan(&auth);
            let params = SoloParams {
                spec,
                auth: &auth,
                personality,
                tier: VerifyTier::Mac,
                weakened: false,
                key: &key,
                flow: None,
            };
            let clean = record_of(&run_solo(&params, None));
            assert!(
                clean.outcome.is_success(),
                "{name}: clean enforcing run failed"
            );
            BuiltWorkload {
                spec,
                auth,
                inv,
                clean,
            }
        })
        .collect()
}

fn fleet_machine(built: &BuiltWorkload, personality: Personality) -> Machine<Kernel> {
    let mut fs = FileSystem::new();
    (built.spec.setup_fs)(&mut fs);
    let opts = KernelOptions::enforcing(personality)
        .with_verify_cache()
        .with_tier(VerifyTier::Mac);
    let mut kernel = Kernel::with_fs(opts, fs);
    kernel.set_key(campaign_key());
    kernel.set_stdin(built.spec.stdin.to_vec());
    kernel.set_brk(built.auth.highest_addr());
    Machine::load(&built.auth, kernel).expect("workload fits in guest memory")
}

/// Spawns the monitored fleet: the victim workload first (pid 1), then
/// one of each other workload as background traffic.
fn spawn_fleet(
    workloads: &[BuiltWorkload],
    victim_index: usize,
    personality: Personality,
    seed: u64,
) -> Scheduler {
    let mut sched = Scheduler::new(SchedConfig {
        policy: SchedPolicy::SeededRandom(seed),
        slice_instrs: 2_000,
        budget_cycles: RUN_BUDGET,
    });
    sched.spawn(
        workloads[victim_index].spec.name,
        fleet_machine(&workloads[victim_index], personality),
    );
    for (i, built) in workloads.iter().enumerate() {
        if i != victim_index {
            sched.spawn(built.spec.name, fleet_machine(built, personality));
        }
    }
    sched
}

/// Outcome of one monitored trial.
enum Trial {
    /// Fault had a kernel-visible effect and a health event followed.
    Detected {
        armed_clock: u64,
        effect_clock: u64,
        detector: String,
        detected_clock: u64,
    },
    /// Fault never produced a kernel-visible effect (dead byte, missed
    /// cache entry): redraw.
    Benign,
    /// Fault had a kernel-visible effect but *no* health event followed
    /// — a monitoring hole; fails the campaign immediately.
    Missed { effect_clock: u64 },
}

fn run_trial(
    workloads: &[BuiltWorkload],
    victim_index: usize,
    fault: PlannedFault,
    cfg: &LatencyConfig,
    policy_seed: u64,
) -> Trial {
    const VICTIM: Pid = 1;
    let mut sched = spawn_fleet(workloads, victim_index, cfg.personality, policy_seed);
    let mut armed_clock: Option<u64> = None;
    let trap_at = match fault {
        PlannedFault::Trap(tf) => {
            sched.process_mut(VICTIM).kernel_mut().arm_fault(tf);
            Some(tf.at_trap)
        }
        PlannedFault::Mem { .. } => None,
    };
    let mut sentinel = Sentinel::attach(
        &sched,
        SentinelConfig::new(cfg.window_cycles).with_detectors(Detector::signal_suite()),
    );
    let mut effect_clock: Option<u64> = None;
    while sched.step().is_some() {
        match fault {
            PlannedFault::Mem {
                at_instret,
                addr,
                mask,
            } => {
                if armed_clock.is_none() {
                    let proc = sched.process(VICTIM);
                    if proc.machine().instret() >= at_instret {
                        let machine = sched.process_mut(VICTIM).machine_mut();
                        if let Ok(byte) = machine.mem().kread(addr, 1).map(|b| b[0]) {
                            let _ = machine.mem_mut().kwrite(addr, &[byte ^ mask]);
                            armed_clock = Some(sched.clock());
                        }
                    }
                }
            }
            PlannedFault::Trap(_) => {
                if armed_clock.is_none()
                    && sched.process(VICTIM).stats().syscalls >= trap_at.unwrap_or(u64::MAX)
                {
                    armed_clock = Some(sched.clock());
                }
            }
        }
        // A clean enforcing fleet raises no alerts and degrades nothing,
        // so the first alert / fallback / scrub anywhere is the fault's
        // first kernel-visible effect.
        if effect_clock.is_none() && armed_clock.is_some() {
            let agg = sched.aggregate_stats();
            let alerted = sched
                .processes()
                .iter()
                .any(|p| !p.kernel().alerts().is_empty());
            if alerted || agg.cache_fallbacks > 0 || agg.cache_scrubs > 0 {
                effect_clock = Some(sched.clock());
            }
        }
        sentinel.observe(&sched);
    }
    sentinel.finish(&sched);
    let (Some(armed), Some(effect)) = (armed_clock, effect_clock) else {
        return Trial::Benign;
    };
    match sentinel.first_event_at_or_after(effect) {
        Some(event) => Trial::Detected {
            armed_clock: armed,
            effect_clock: effect,
            detector: event.detector.clone(),
            detected_clock: event.fired_clock,
        },
        None => Trial::Missed {
            effect_clock: effect,
        },
    }
}

/// Runs the full detection-latency campaign: one detected row per fault
/// class (or an `undetected` entry after the trial budget).
pub fn run_latency_campaign(cfg: &LatencyConfig) -> LatencyReport {
    let workloads = build_workloads(cfg.personality);
    let bound_cycles = cfg.bound_cycles();
    let mut rows = Vec::new();
    let mut undetected = Vec::new();
    for (ci, class) in cfg.classes.iter().copied().enumerate() {
        // The victim is the first workload whose binary has artifacts of
        // this class (trap classes need no artifacts, so index 0 works).
        let victim_index = (0..workloads.len())
            .find(|&i| {
                let mut probe = Rng::new(cfg.seed ^ 0x9E37_79B9);
                plan_fault(class, &workloads[i].inv, &workloads[i].clean, &mut probe).is_some()
            })
            .unwrap_or(0);
        let victim = &workloads[victim_index];
        let mut detected = None;
        let mut trials = 0;
        for trial in 0..cfg.max_trials {
            trials = trial + 1;
            let mut rng = Rng::new(cfg.seed ^ ((ci as u64 + 1) << 40) ^ (u64::from(trial) + 1));
            let Some(fault) = plan_fault(class, &victim.inv, &victim.clean, &mut rng) else {
                break;
            };
            let policy_seed = cfg.seed ^ ((ci as u64 + 1) << 20) ^ u64::from(trial);
            match run_trial(&workloads, victim_index, fault, cfg, policy_seed) {
                Trial::Detected {
                    armed_clock,
                    effect_clock,
                    detector,
                    detected_clock,
                } => {
                    let lag = detected_clock - effect_clock;
                    detected = Some(LatencyRow {
                        class,
                        victim: victim.spec.name.to_string(),
                        trials,
                        armed_clock,
                        effect_clock,
                        detector,
                        detected_clock,
                        latency: detected_clock - armed_clock,
                        lag,
                        within_bound: lag <= bound_cycles,
                    });
                    break;
                }
                Trial::Benign => {}
                Trial::Missed { effect_clock } => {
                    undetected.push((
                        class,
                        format!(
                            "trial {trial}: kernel-visible effect at {effect_clock}                              produced no health event"
                        ),
                    ));
                    break;
                }
            }
        }
        if let Some(row) = detected {
            rows.push(row);
        } else if !undetected.iter().any(|(c, _)| *c == class) {
            undetected.push((
                class,
                format!("{trials} seeded draws, none produced a kernel-visible effect"),
            ));
        }
    }
    LatencyReport {
        seed: cfg.seed,
        window_cycles: cfg.window_cycles,
        bound_cycles,
        rows,
        undetected,
    }
}
