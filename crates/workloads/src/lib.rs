//! Guest workloads: the analogue programs the experiments run.
//!
//! The paper evaluates on real Unix programs (bison, calc, screen, tar for
//! policy experiments; a SPECint-2000 subset plus syscall-heavy tools for
//! performance; an Andrew-style multiprogram benchmark). The analogues
//! here are written in the guest language (`asc-lang`), linked against the
//! per-personality mini-libc, and engineered to have the same *profile*:
//! which system calls they reference, which of those training inputs
//! exercise, and their CPU-vs-syscall balance.
//!
//! # Example
//!
//! ```
//! use asc_kernel::{KernelOptions, Personality};
//! use asc_workloads::{build, measure, program};
//!
//! let spec = program("bison").expect("registered");
//! let binary = build(spec, Personality::Linux)?;
//! let report = measure(spec, &binary, KernelOptions::plain(Personality::Linux), None);
//! assert!(report.outcome.is_success());
//! # Ok::<(), asc_workloads::BuildError>(())
//! ```

pub mod hostile;
pub mod libc;
mod programs;
pub mod tools;

pub use programs::{program, programs, ProgramKind, ProgramSpec};

use asc_kernel::{
    FileSystem, FlowGraph, FlowParseError, Kernel, KernelOptions, Personality, SiteRegistry,
    SitesParseError,
};
use asc_object::{sections, Binary};
use asc_vm::{Machine, RunOutcome};

/// Errors building a workload.
#[derive(Clone, Debug)]
pub enum BuildError {
    /// Guest-language compilation failed.
    Compile(String),
    /// Assembly failed.
    Assemble(String),
    /// Unresolved symbols at link time.
    Link(Vec<String>),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Compile(e) => write!(f, "compile error: {e}"),
            BuildError::Assemble(e) => write!(f, "assemble error: {e}"),
            BuildError::Link(missing) => write!(f, "unresolved symbols: {missing:?}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Compiles guest-language source and links it with the helpers and the
/// personality's libc into a relocatable binary.
///
/// # Errors
///
/// [`BuildError`] on compile, link, or assemble failures.
pub fn build_source(source: &str, personality: Personality) -> Result<Binary, BuildError> {
    let mut full = String::from(source);
    full.push_str(libc::HELPERS);
    let asm = asc_lang::compile(&full).map_err(|e| BuildError::Compile(e.to_string()))?;
    let stubs = libc::link_stubs(&asm, personality).map_err(BuildError::Link)?;
    asc_asm::assemble_many(&[asm.as_str(), stubs.as_str()])
        .map_err(|e| BuildError::Assemble(e.to_string()))
}

/// Builds a registered workload.
///
/// # Errors
///
/// [`BuildError`] on compile, link, or assemble failures.
pub fn build(spec: &ProgramSpec, personality: Personality) -> Result<Binary, BuildError> {
    build_source(spec.source, personality)
}

/// Prepares a kernel for `spec`: training fixture files plus stdin.
pub fn kernel_for(spec: &ProgramSpec, personality: Personality, enforce: bool) -> Kernel {
    let mut fs = FileSystem::new();
    (spec.setup_fs)(&mut fs);
    let opts = if enforce {
        KernelOptions::enforcing(personality)
    } else {
        KernelOptions::plain(personality)
    };
    let mut kernel = Kernel::with_fs(opts, fs);
    kernel.set_stdin(spec.stdin.to_vec());
    kernel
}

/// Cycle budget large enough for every workload.
pub const RUN_BUDGET: u64 = 3_000_000_000;

/// Full measurement record from a run (the `rdtsc`-style numbers the
/// performance tables consume).
pub struct RunReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// The kernel (trace, stats, captured output).
    pub kernel: Kernel,
    /// Total simulated cycles (user + kernel + verification).
    pub cycles: u64,
    /// Instructions retired.
    pub instret: u64,
}

/// Runs a built workload on a kernel configured by `opts` and reports
/// cycle counts. A `key` installs the verification key together with the
/// binary's `.ascsites` registry (see [`site_registry_for`]), and a tier
/// that checks flow also loads its `.ascflow` digraph. Plain runs pass
/// [`KernelOptions::plain`] and no key.
///
/// # Panics
///
/// If a flow tier runs a binary without a sound `.ascflow` digraph under
/// `key` (see [`flow_graph_of`]), or the binary does not fit in memory.
pub fn measure(
    spec: &ProgramSpec,
    binary: &Binary,
    opts: KernelOptions,
    key: Option<asc_crypto::MacKey>,
) -> RunReport {
    let mut fs = FileSystem::new();
    (spec.setup_fs)(&mut fs);
    let tier = opts.verify_tier;
    let mut kernel = Kernel::with_fs(opts, fs);
    kernel.set_stdin(spec.stdin.to_vec());
    if let Some(key) = key {
        if tier.checks_flow() {
            kernel.set_flow_graph(flow_graph_of(binary, &key));
        }
        if let Some(sites) = site_registry_for(binary, &key) {
            kernel.set_site_registry(sites);
        }
        kernel.set_key(key);
    }
    kernel.set_brk(binary.highest_addr());
    let mut machine = Machine::load(binary, kernel).expect("workload fits in memory");
    let outcome = machine.run(RUN_BUDGET);
    let cycles = machine.cycles();
    let instret = machine.instret();
    RunReport {
        outcome,
        kernel: machine.into_handler(),
        cycles,
        instret,
    }
}

/// Errors loading a policy-artifact section (`.ascflow` / `.ascsites`)
/// out of an installed binary. Every failure is structured: a missing
/// section, a truncated payload, and a MAC mismatch are distinguishable,
/// and none of the fallible loaders panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactError {
    /// The binary carries no section with the given name.
    Missing(&'static str),
    /// `.ascflow` is present but truncated or rejected by its MAC.
    BadFlow(FlowParseError),
    /// `.ascsites` is present but truncated or rejected by its MAC.
    BadSites(SitesParseError),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Missing(name) => write!(f, "binary carries no {name} section"),
            ArtifactError::BadFlow(e) => write!(f, "{}: {e}", sections::ASCFLOW),
            ArtifactError::BadSites(e) => write!(f, "{}: {e}", sections::ASCSITES),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// Parses the MAC-authenticated syscall-transition digraph out of an
/// installed binary's `.ascflow` section, reporting failures as
/// structured errors.
///
/// # Errors
///
/// [`ArtifactError`] when the section is missing, truncated, or rejected
/// by its MAC under `key`.
pub fn try_flow_graph_of(
    binary: &Binary,
    key: &asc_crypto::MacKey,
) -> Result<FlowGraph, ArtifactError> {
    let section = binary
        .section_by_name(sections::ASCFLOW)
        .ok_or(ArtifactError::Missing(sections::ASCFLOW))?;
    FlowGraph::parse(&section.data, key).map_err(ArtifactError::BadFlow)
}

/// Parses the MAC-authenticated syscall-transition digraph out of an
/// installed binary's `.ascflow` section (the flow tiers' policy).
///
/// # Panics
///
/// If the section is missing or its MAC does not verify under `key` —
/// both mean the binary was not produced by this installer/key pair, so
/// there is no sound digraph to enforce.
pub fn flow_graph_of(binary: &Binary, key: &asc_crypto::MacKey) -> FlowGraph {
    match try_flow_graph_of(binary, key) {
        Ok(flow) => flow,
        Err(e) => panic!("authenticated binary has a sound flow digraph: {e}"),
    }
}

/// Parses the MAC-authenticated rewritten-site registry out of an
/// installed binary's `.ascsites` section, reporting failures as
/// structured errors.
///
/// # Errors
///
/// [`ArtifactError`] when the section is missing, truncated, or rejected
/// by its MAC under `key`.
pub fn try_sites_of(
    binary: &Binary,
    key: &asc_crypto::MacKey,
) -> Result<SiteRegistry, ArtifactError> {
    let section = binary
        .section_by_name(sections::ASCSITES)
        .ok_or(ArtifactError::Missing(sections::ASCSITES))?;
    SiteRegistry::parse(&section.data, key).map_err(ArtifactError::BadSites)
}

/// Parses the MAC-authenticated rewritten-site registry out of an
/// installed binary's `.ascsites` section (the origin-privilege policy).
///
/// # Panics
///
/// If the section is missing or its MAC does not verify under `key`.
pub fn sites_of(binary: &Binary, key: &asc_crypto::MacKey) -> SiteRegistry {
    match try_sites_of(binary, key) {
        Ok(sites) => sites,
        Err(e) => panic!("authenticated binary has a sound site registry: {e}"),
    }
}

/// The site registry an enforcing kernel should run `binary` under.
/// Authentic registry → enforced; no `.ascsites` section at all →
/// `None` (pre-registry binaries keep the historical behaviour); present
/// but truncated or MAC-rejected → an *empty* registry, so every trap
/// fail-stops rather than silently dropping origin enforcement
/// (fail-closed).
pub fn site_registry_for(binary: &Binary, key: &asc_crypto::MacKey) -> Option<SiteRegistry> {
    match try_sites_of(binary, key) {
        Ok(sites) => Some(sites),
        Err(ArtifactError::Missing(_)) => None,
        Err(_) => Some(SiteRegistry::new()),
    }
}
