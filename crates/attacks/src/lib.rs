//! The attack harness: the code-injection experiments of §4.1 plus the
//! Frankenstein attack and countermeasure of §5.5.
//!
//! Three attacks against the vulnerable `victim` workload (which reads a
//! file name into a 64-byte stack buffer and runs `/bin/ls` on it):
//!
//! 1. **Shellcode injection** ([`AttackLab::shellcode_attack`]): overflow
//!    the buffer, overwrite the return address, execute injected code that
//!    issues `execve("/bin/sh")`. Succeeds against the unprotected binary;
//!    against the installed binary the injected call carries no valid
//!    policy/MAC and the process is killed.
//! 2. **Mimicry via cross-application gadget reuse**
//!    ([`AttackLab::mimicry_attack`]): inject an *authenticated* syscall
//!    gadget lifted from a different installed application (with its
//!    `.asc` data replicated). Fails because the call MAC covers the call
//!    site, which now differs.
//! 3. **Non-control-data attack**
//!    ([`AttackLab::non_control_data_attack`]): corrupt the string
//!    argument `"/bin/ls"` into `"/bin/sh"` in memory and let the program
//!    reach its legitimate `execve`. Fails the authenticated-string check.
//!
//! The [`frankenstein`] module builds a program stitched from the
//! authenticated calls of two other applications and shows that unique
//! basic-block identifiers (the §5.5 countermeasure) stop it.

pub mod frankenstein;

use asc_crypto::{MacKey, POLICY_STATE_LEN};
use asc_installer::{Installer, InstallerOptions};
use asc_isa::{Instruction, Opcode, Reg, INSTR_LEN};
use asc_kernel::{Alert, Kernel, KernelOptions, Personality, VerifyTier};
use asc_object::Binary;
use asc_vm::{Machine, PageFlags, RunOutcome, StepOutcome};

/// How an attack attempt ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttackOutcome {
    /// The attack achieved its goal (e.g. `/bin/sh` executed).
    Succeeded(String),
    /// The kernel killed the process; the structured alert names the call
    /// site, syscall, and violated check.
    Blocked(Alert),
    /// The attack failed for an unexpected reason (harness bug).
    Failed(String),
}

impl AttackOutcome {
    /// Whether the attack was stopped by the monitor.
    pub fn is_blocked(&self) -> bool {
        matches!(self, AttackOutcome::Blocked(_))
    }

    /// Whether the attack achieved its goal.
    pub fn is_success(&self) -> bool {
        matches!(self, AttackOutcome::Succeeded(_))
    }
}

/// One thing the attacker does to a running victim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Step until the kernel has fully verified this many calls; the
    /// attack fails if the program ends first.
    WarmUp(u64),
    /// The attacker's write primitive: make the range writable and
    /// overwrite it through the physical path.
    Write {
        /// First byte overwritten.
        addr: u32,
        /// The bytes written there.
        bytes: Vec<u8>,
    },
    /// Set aside the current contents of a range for a later
    /// [`Action::Replay`].
    Snapshot {
        /// First byte saved.
        addr: u32,
        /// Bytes saved.
        len: u32,
    },
    /// Write the last snapshot back over its range, as [`Action::Write`]
    /// does; the attack fails if the range has not changed since.
    Replay,
}

/// Cycle budget for a victim run.
pub const VICTIM_BUDGET: u64 = 100_000_000;

/// An attack ready to run: the loaded victim and the attacker's script,
/// played in order before the victim runs to the end.
#[derive(Debug)]
pub struct AttackRun {
    /// The victim process, loaded and not yet started.
    pub machine: Machine<Kernel>,
    /// What the attacker does to it first.
    pub script: Vec<Action>,
}

impl AttackRun {
    fn new(machine: Machine<Kernel>) -> AttackRun {
        AttackRun {
            machine,
            script: Vec::new(),
        }
    }

    fn then(mut self, action: Action) -> AttackRun {
        self.script.push(action);
        self
    }

    /// Plays the script, then runs the victim for [`VICTIM_BUDGET`]
    /// cycles.
    ///
    /// # Errors
    ///
    /// [`AttackOutcome::Failed`] if the victim ends during a warm-up or a
    /// replayed range never changed.
    fn execute(self) -> Result<(RunOutcome, Kernel), AttackOutcome> {
        let mut m = self.machine;
        let mut snapshot: Option<(u32, Vec<u8>)> = None;
        for action in self.script {
            match action {
                Action::WarmUp(n) => {
                    while m.handler().stats().verified < n {
                        if let StepOutcome::Done(outcome) = m.step() {
                            return Err(AttackOutcome::Failed(format!(
                                "ended during warm-up: {outcome:?}"
                            )));
                        }
                    }
                }
                Action::Write { addr, bytes } => attacker_write(&mut m, addr, &bytes),
                Action::Snapshot { addr, len } => {
                    let bytes = m.mem().kread(addr, len).expect("snapshot is mapped");
                    snapshot = Some((addr, bytes));
                }
                Action::Replay => {
                    let (addr, bytes) = snapshot.take().expect("replay follows a snapshot");
                    let now = m.mem().kread(addr, bytes.len() as u32).expect("mapped");
                    if now == bytes {
                        return Err(AttackOutcome::Failed("replayed range never changed".into()));
                    }
                    attacker_write(&mut m, addr, &bytes);
                }
            }
        }
        let outcome = m.run(VICTIM_BUDGET);
        Ok((outcome, m.into_handler()))
    }

    /// [`AttackRun::execute`] for scripts without warm-ups or replays,
    /// which cannot fail.
    fn finish(self) -> (RunOutcome, Kernel) {
        self.execute().expect("script cannot fail")
    }
}

/// Makes `[addr, addr + bytes.len())` writable and overwrites it (the
/// attacker's arbitrary-write primitive; the simulator models pre-NX
/// hardware).
fn attacker_write(m: &mut Machine<Kernel>, addr: u32, bytes: &[u8]) {
    m.mem_mut().protect(addr, bytes.len() as u32, PageFlags::RW);
    m.mem_mut()
        .kwrite(addr, bytes)
        .expect("attacker write is mapped");
}

/// The attack laboratory: the victim in unprotected and installed forms,
/// plus a donor application for gadget theft.
pub struct AttackLab {
    key: MacKey,
    victim_plain: Binary,
    victim_auth: Binary,
    donor_auth: Binary,
    use_cache: bool,
}

impl std::fmt::Debug for AttackLab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttackLab").finish()
    }
}

const PERSONALITY: Personality = Personality::Linux;

/// Donor application for the mimicry experiment: an installed program
/// whose authenticated `write` gadget the attacker lifts.
const DONOR_SOURCE: &str = r#"
fn main() {
    write(1, "donor says hi\n", 14);
    return 0;
}
"#;

/// Victim for the stale-cache attacks: issues the *same* authenticated
/// call repeatedly so the kernel's verified-call cache goes warm, giving
/// the attacker a window to tamper between iterations.
const LOOPER_SOURCE: &str = r#"
fn main() {
    var i = 0;
    while (i < 6) {
        access("/etc/motd", 0);
        i = i + 1;
    }
    return 0;
}
"#;

/// Victim for the syscall-reorder attack: the same overflowable
/// `read_name` as the classic victim, but the `execve` lives in its own
/// function behind a mandatory audit `write` — the only legal syscall
/// order is read, write, execve. An attacker who overwrites `read_name`'s
/// return address with `launch`'s entry executes a *perfectly legitimate*
/// call site (its own MAC, its own authenticated string) while skipping
/// the audit gate, creating the transition read -> execve that never
/// appears in the program's flow digraph.
const REORDER_SOURCE: &str = r#"
global scratch[512];

str LS = "/bin/ls";

fn read_name(dst) {
    var tmp[64];                 // adjacent to saved fp / return address
    var n = read(0, tmp, 256);   // BUG: no bounds check (reads up to 256)
    if (n == 0) { return 0; }
    if (tmp[n - 1] == 10) { tmp[n - 1] = 0; } else { tmp[n - 1] = 0; }
    bcopy(tmp, dst, 64);
    return n;                    // smashed return address triggers here
}

fn launch(name) {
    var argv[16];
    poke(argv, LS);
    poke(argv + 4, name);
    poke(argv + 8, 0);
    return execve(LS, argv, 0);
}

fn main() {
    var name[64];
    if (read_name(name) == 0) {
        write(2, "usage: launcher <file>\n", 23);
        return 1;
    }
    write(1, "audit: launch\n", 14);
    launch(name);
    return 0;
}
"#;

impl AttackLab {
    /// Builds the victim (plain + installed) and the donor.
    pub fn new(key: MacKey) -> AttackLab {
        let spec = asc_workloads::program("victim").expect("victim registered");
        let victim_plain = asc_workloads::build(spec, PERSONALITY).expect("victim builds");
        let installer = Installer::new(
            key.clone(),
            InstallerOptions::new(PERSONALITY).with_program_id(7),
        );
        let (victim_auth, _) = installer
            .install(&victim_plain, "victim")
            .expect("installs");
        let donor_plain =
            asc_workloads::build_source(DONOR_SOURCE, PERSONALITY).expect("donor builds");
        let donor_installer = Installer::new(
            key.clone(),
            InstallerOptions::new(PERSONALITY).with_program_id(9),
        );
        let (donor_auth, _) = donor_installer
            .install(&donor_plain, "donor")
            .expect("installs");
        AttackLab {
            key,
            victim_plain,
            victim_auth,
            donor_auth,
            use_cache: false,
        }
    }

    /// Enables the kernel's verified-call cache for every machine this lab
    /// builds, so the attacks also exercise the warm fast path.
    pub fn with_verify_cache(mut self) -> AttackLab {
        self.use_cache = true;
        self
    }

    /// The unprotected victim binary.
    pub fn victim_plain(&self) -> &Binary {
        &self.victim_plain
    }

    /// The installed victim binary.
    pub fn victim_auth(&self) -> &Binary {
        &self.victim_auth
    }

    fn machine(&self, binary: &Binary, stdin: &[u8]) -> Machine<Kernel> {
        let opts = if binary.is_authenticated() {
            let opts = KernelOptions::enforcing(PERSONALITY);
            if self.use_cache {
                opts.with_verify_cache()
            } else {
                opts
            }
        } else {
            KernelOptions::plain(PERSONALITY)
        };
        let mut kernel = Kernel::new(opts);
        if binary.is_authenticated() {
            kernel.set_key(self.key.clone());
        }
        kernel.set_stdin(stdin.to_vec());
        kernel.set_brk(binary.highest_addr());
        Machine::load(binary, kernel).expect("victim fits")
    }

    /// Determines the stack address of the vulnerable buffer by
    /// single-stepping a probe run up to the oversized `read` — the
    /// deterministic layout an attacker would compute offline.
    fn buffer_address(&self, binary: &Binary) -> u32 {
        let mut m = self.machine(binary, b"probe\n");
        for _ in 0..1_000_000 {
            let fetched = m.mem().fetch(m.pc()).map(|b| Instruction::decode(&b));
            if let Ok(Ok(instr)) = fetched {
                if instr.op == Opcode::Syscall && m.reg(Reg::R0) == 3 && m.reg(Reg::R3) == 256 {
                    return m.reg(Reg::R2); // buf argument of read(0, buf, 256)
                }
            }
            if let StepOutcome::Done(outcome) = m.step() {
                panic!("probe ended early: {outcome:?}");
            }
        }
        panic!("oversized read not reached");
    }

    /// Builds the classic overflow payload: shellcode + `/bin/sh` string in
    /// the buffer, then the overwritten `dst` pointer, saved frame pointer,
    /// and return address pointing back into the buffer.
    fn shellcode_payload(&self, binary: &Binary, shellcode: &[Instruction]) -> Vec<u8> {
        let buf = self.buffer_address(binary);
        // Where the corrupted `dst` pointer sends the victim's own copy:
        // spare stack far below the payload (writable, harmless).
        let scratch = buf - 0x800;
        let needs_string = shellcode
            .iter()
            .any(|i| i.op == Opcode::Movi && i.imm == SH_PLACEHOLDER);
        let code_len = shellcode.len() * asc_isa::INSTR_LEN;
        let string_len = if needs_string { 8 } else { 0 };
        assert!(code_len + string_len <= 64, "shellcode must fit the buffer");
        let sh_addr = buf + code_len as u32;
        // Patch the placeholder argument (R1) now that we know sh_addr.
        let mut payload = Vec::with_capacity(80);
        for instr in shellcode {
            let mut i = *instr;
            if i.op == Opcode::Movi && i.imm == SH_PLACEHOLDER {
                i.imm = sh_addr;
            }
            payload.extend_from_slice(&i.encode());
        }
        if needs_string {
            payload.extend_from_slice(b"/bin/sh\0");
        }
        payload.resize(64, 0x90);
        payload.extend_from_slice(&scratch.to_le_bytes()); // dst
        payload.extend_from_slice(&(scratch + 64).to_le_bytes()); // saved fp
        payload.extend_from_slice(&buf.to_le_bytes()); // return address
        payload.push(b'\n'); // consumed by the NUL-termination
        payload
    }

    #[cfg(test)]
    fn run_to_outcome(&self, binary: &Binary, stdin: &[u8]) -> (RunOutcome, Kernel) {
        AttackRun::new(self.machine(binary, stdin)).finish()
    }

    /// Every attack this lab runs, named, as a victim plus script:
    /// shellcode and non-control-data on both binaries, mimicry, both
    /// stale-cache attacks, and the reorder and raw-gadget attacks under
    /// every tier. Harnesses that
    /// drive the victim themselves (e.g. a lock-step differential of the
    /// interpreter) run these; the `*_attack` methods run the same ones.
    pub fn runs(&self) -> Vec<(String, AttackRun)> {
        let mut runs = Vec::new();
        for protected in [false, true] {
            runs.push((
                format!("shellcode/{protected}"),
                self.shellcode_run(protected),
            ));
            runs.push((
                format!("non-control-data/{protected}"),
                self.non_control_data_run(protected),
            ));
        }
        runs.push(("mimicry".to_string(), self.mimicry_run()));
        runs.push((
            "stale-cache-string".to_string(),
            self.stale_cache_string_run(),
        ));
        runs.push((
            "stale-cache-state-replay".to_string(),
            self.stale_cache_state_replay_run(),
        ));
        for tier in VerifyTier::ALL {
            runs.push((format!("reorder/{tier:?}"), self.reorder_run(tier)));
            runs.push((format!("gadget/{tier:?}"), self.gadget_run(tier)));
        }
        runs
    }

    fn classify(outcome: RunOutcome, kernel: &Kernel) -> AttackOutcome {
        if kernel.exec_requests().iter().any(|p| p == "/bin/sh") {
            return AttackOutcome::Succeeded("/bin/sh executed".into());
        }
        match outcome {
            RunOutcome::Killed(msg) => match kernel.alerts().last() {
                Some(alert) => AttackOutcome::Blocked(alert.clone()),
                None => AttackOutcome::Failed(format!("killed without an alert: {msg}")),
            },
            other => AttackOutcome::Failed(format!("{other:?}")),
        }
    }

    /// Attack 1: classic shellcode injection (`execve("/bin/sh")` from the
    /// stack). `protected` selects the installed or unprotected victim.
    pub fn shellcode_attack(&self, protected: bool) -> AttackOutcome {
        let (outcome, kernel) = self.shellcode_run(protected).finish();
        Self::classify(outcome, &kernel)
    }

    fn shellcode_run(&self, protected: bool) -> AttackRun {
        let binary = if protected {
            &self.victim_auth
        } else {
            &self.victim_plain
        };
        let execve_nr = PERSONALITY
            .nr(asc_kernel::SyscallId::Execve)
            .expect("execve") as u32;
        let shellcode = [
            Instruction::movi(Reg::R1, SH_PLACEHOLDER),
            Instruction::movi(Reg::R2, 0),
            Instruction::movi(Reg::R3, 0),
            Instruction::movi(Reg::R0, execve_nr),
            Instruction::syscall(),
            Instruction::halt(),
        ];
        let payload = self.shellcode_payload(binary, &shellcode);
        AttackRun::new(self.machine(binary, &payload))
    }

    /// Attack 2: mimicry by reusing an *authenticated* gadget lifted from
    /// the donor application, with the donor's `.asc` data replicated at
    /// its original addresses (heap-spray style).
    pub fn mimicry_attack(&self) -> AttackOutcome {
        let (outcome, kernel) = self.mimicry_run().finish();
        if kernel
            .trace()
            .iter()
            .any(|t| t.id == asc_kernel::SyscallId::Write && t.site != 0)
            && kernel.stats().verified > 3
        {
            return AttackOutcome::Succeeded("stolen gadget executed".into());
        }
        Self::classify(outcome, &kernel)
    }

    fn mimicry_run(&self) -> AttackRun {
        let binary = &self.victim_auth;
        // Lift the donor's authenticated write gadget: the argument +
        // policy loads followed by the syscall.
        let (gadget, donor_asc) = extract_gadget(&self.donor_auth);
        let mut shellcode = gadget;
        shellcode.push(Instruction::halt());
        let payload = self.shellcode_payload(binary, &shellcode);

        // Replicate the donor's .asc section into the victim's address
        // space at the donor's addresses (the attacker's arbitrary-write /
        // heap-spray step).
        AttackRun::new(self.machine(binary, &payload)).then(Action::Write {
            addr: donor_asc.0,
            bytes: donor_asc.1,
        })
    }

    /// Attack 3: non-control-data — overwrite the authenticated string
    /// `"/bin/ls"` with `"/bin/sh"` and let the victim reach its
    /// legitimate `execve`. `protected` selects the binary.
    pub fn non_control_data_attack(&self, protected: bool) -> AttackOutcome {
        let (outcome, kernel) = self.non_control_data_run(protected).finish();
        Self::classify(outcome, &kernel)
    }

    fn non_control_data_run(&self, protected: bool) -> AttackRun {
        let binary = if protected {
            &self.victim_auth
        } else {
            &self.victim_plain
        };
        // Find "/bin/ls" in the loaded image and overwrite it — for the
        // authenticated binary that is the AS contents in .asc; for the
        // plain binary it is the .rodata literal (which the attacker's
        // write primitive can reach because the simulator models pre-NX
        // hardware; we flip the page writable to model a WWW primitive).
        let target = find_bytes(binary, b"/bin/ls\0").expect("literal present");
        AttackRun::new(self.machine(binary, b"/etc/motd\n")).then(Action::Write {
            addr: target,
            bytes: b"/bin/sh\0".to_vec(),
        })
    }

    /// Builds and installs the looping guest used by the stale-cache
    /// attacks.
    fn build_looper(&self) -> Binary {
        let plain = asc_workloads::build_source(LOOPER_SOURCE, PERSONALITY).expect("looper builds");
        let installer = Installer::new(
            self.key.clone(),
            InstallerOptions::new(PERSONALITY).with_program_id(11),
        );
        installer
            .install(&plain, "looper")
            .expect("looper installs")
            .0
    }

    /// Attack 4: stale-cache string rewrite. Let the looping victim's
    /// repeated `access("/etc/motd")` warm the verified-call cache, then
    /// overwrite the authenticated string's contents in `.asc` and resume.
    /// A kernel that trusted its cache without re-reading memory would keep
    /// accepting the call; a sound one must re-compare the bytes, miss, and
    /// kill on the string MAC.
    pub fn stale_cache_string_attack(&self) -> AttackOutcome {
        let (outcome, kernel) = match self.stale_cache_string_run().execute() {
            Ok(done) => done,
            Err(fail) => return fail,
        };
        match outcome {
            // Reaching exit means iterations ran with the forged string.
            RunOutcome::Exited(_) => {
                AttackOutcome::Succeeded("forged string accepted from warm cache".into())
            }
            other => Self::classify(other, &kernel),
        }
    }

    fn stale_cache_string_run(&self) -> AttackRun {
        let binary = self.build_looper();
        let target = find_bytes(&binary, b"/etc/motd\0").expect("AS contents present");
        AttackRun::new(self.machine(&binary, b""))
            .then(Action::WarmUp(2))
            .then(Action::Write {
                addr: target,
                bytes: b"/etc/pass\0".to_vec(),
            })
    }

    /// Attack 5: stale-cache policy-state replay. Snapshot the in-memory
    /// policy-state cell (the first [`POLICY_STATE_LEN`] bytes of `.asc`)
    /// after one verified call, let another call advance it, then restore
    /// the old snapshot — a classic replay that a cache keyed without the
    /// memory-checker epoch would accept. The kernel must reject the stale
    /// cell against its per-process counter and kill.
    pub fn stale_cache_state_replay_attack(&self) -> AttackOutcome {
        let (outcome, kernel) = match self.stale_cache_state_replay_run().execute() {
            Ok(done) => done,
            Err(fail) => return fail,
        };
        match outcome {
            RunOutcome::Exited(_) => {
                AttackOutcome::Succeeded("replayed policy state accepted".into())
            }
            other => Self::classify(other, &kernel),
        }
    }

    fn stale_cache_state_replay_run(&self) -> AttackRun {
        let binary = self.build_looper();
        let asc_addr = binary
            .section_by_name(".asc")
            .expect("installed looper has .asc")
            .addr;
        AttackRun::new(self.machine(&binary, b""))
            .then(Action::WarmUp(1))
            .then(Action::Snapshot {
                addr: asc_addr,
                len: POLICY_STATE_LEN as u32,
            })
            .then(Action::WarmUp(2))
            .then(Action::Replay)
    }

    /// Builds and installs the staged launcher used by the reorder attack.
    /// Installed *without* control-flow policies (the paper's Table 4
    /// cheap variant): per-call MACs then authenticate each site in
    /// isolation and are order-blind, so only the flow tiers see the
    /// transition. The `.ascflow` digraph is emitted regardless.
    pub fn reorder_victim(&self) -> Binary {
        let plain =
            asc_workloads::build_source(REORDER_SOURCE, PERSONALITY).expect("launcher builds");
        let installer = Installer::new(
            self.key.clone(),
            InstallerOptions::new(PERSONALITY)
                .with_program_id(13)
                .without_control_flow(),
        );
        installer
            .install(&plain, "launcher")
            .expect("launcher installs")
            .0
    }

    /// Builds a tier-selected enforcing machine; the flow tiers load the
    /// binary's `.ascflow` digraph into the kernel first.
    fn tier_machine(&self, binary: &Binary, stdin: &[u8], tier: VerifyTier) -> Machine<Kernel> {
        let opts = KernelOptions::enforcing(PERSONALITY).with_tier(tier);
        let opts = if self.use_cache {
            opts.with_verify_cache()
        } else {
            opts
        };
        let mut kernel = Kernel::new(opts);
        kernel.set_key(self.key.clone());
        if tier.checks_flow() {
            kernel.set_flow_graph(asc_workloads::flow_graph_of(binary, &self.key));
        }
        kernel.set_stdin(stdin.to_vec());
        kernel.set_brk(binary.highest_addr());
        Machine::load(binary, kernel).expect("victim fits")
    }

    /// Attack 6: syscall reordering. Overwrite `read_name`'s return
    /// address with the entry of `launch` — a legitimate function whose
    /// `execve` call site carries a valid MAC and authenticated string —
    /// skipping the audit `write` that the program's control flow puts in
    /// between. Every per-call check passes (the site authenticates
    /// itself), but the read -> execve *transition* is absent from the
    /// flow digraph. Returns the outcome plus the kernel so callers can
    /// check for side effects.
    pub fn reorder_attack_traced(&self, tier: VerifyTier) -> (AttackOutcome, Kernel) {
        let (outcome, kernel) = self.reorder_run(tier).finish();
        let audited = kernel.stdout().starts_with(b"audit:");
        if kernel.exec_requests().iter().any(|p| p == "/bin/ls") && !audited {
            let result = AttackOutcome::Succeeded("execve reached without the audit write".into());
            return (result, kernel);
        }
        let result = Self::classify(outcome, &kernel);
        (result, kernel)
    }

    fn reorder_run(&self, tier: VerifyTier) -> AttackRun {
        let binary = self.reorder_victim();
        let launch = binary
            .symbol("launch")
            .expect("launch symbol survives installation")
            .addr;
        let buf = self.buffer_address(&binary);
        let scratch = buf - 0x800;
        let mut payload = vec![0x90u8; 64];
        payload.extend_from_slice(&scratch.to_le_bytes()); // dst
        payload.extend_from_slice(&(scratch + 64).to_le_bytes()); // saved fp
        payload.extend_from_slice(&launch.to_le_bytes()); // return address
        payload.push(b'\n'); // consumed by the NUL-termination
        AttackRun::new(self.tier_machine(&binary, &payload, tier))
    }

    /// [`AttackLab::reorder_attack_traced`] without the kernel.
    pub fn reorder_attack(&self, tier: VerifyTier) -> AttackOutcome {
        self.reorder_attack_traced(tier).0
    }

    /// Builds and installs the raw-`SYSCALL`-gadget guest from the hostile
    /// corpus: a binary whose text hides a misaligned `syscall` inside an
    /// undisassemblable island, reached through a register jump. The
    /// installer cannot see the gadget, so it is neither rewritten nor
    /// registered in `.ascsites`.
    pub fn gadget_victim(&self) -> Binary {
        let spec = asc_workloads::hostile::hostile("gadget").expect("gadget in hostile corpus");
        let plain = asc_workloads::hostile::build_hostile(spec).expect("gadget assembles");
        let installer = Installer::new(
            self.key.clone(),
            InstallerOptions::new(PERSONALITY).with_program_id(15),
        );
        installer
            .install(&plain, "gadget")
            .expect("gadget installs")
            .0
    }

    /// Attack 7: raw-`SYSCALL` gadget. The guest jumps into a hidden,
    /// misaligned `write(1, "pwned\n", 6)` whose trap therefore originates
    /// from a program counter the installer never rewrote. Per-call MACs
    /// and the flow digraph are blind to *where* a trap comes from — only
    /// the `.ascsites` origin check can refuse it, and it must do so under
    /// every tier, before the write produces output. Returns the outcome
    /// plus the kernel so callers can check for side effects.
    pub fn gadget_attack_traced(&self, tier: VerifyTier) -> (AttackOutcome, Kernel) {
        let (outcome, kernel) = self.gadget_run(tier).finish();
        if kernel.stdout().windows(5).any(|w| w == b"pwned") {
            let result = AttackOutcome::Succeeded("hidden gadget's write dispatched".into());
            return (result, kernel);
        }
        let result = Self::classify(outcome, &kernel);
        (result, kernel)
    }

    fn gadget_run(&self, tier: VerifyTier) -> AttackRun {
        let binary = self.gadget_victim();
        let opts = KernelOptions::enforcing(PERSONALITY).with_tier(tier);
        let opts = if self.use_cache {
            opts.with_verify_cache()
        } else {
            opts
        };
        let mut kernel = Kernel::new(opts);
        kernel.set_key(self.key.clone());
        if tier.checks_flow() {
            kernel.set_flow_graph(asc_workloads::flow_graph_of(&binary, &self.key));
        }
        kernel.set_site_registry(asc_workloads::sites_of(&binary, &self.key));
        kernel.set_brk(binary.highest_addr());
        AttackRun::new(Machine::load(&binary, kernel).expect("gadget fits"))
    }

    /// [`AttackLab::gadget_attack_traced`] without the kernel.
    pub fn gadget_attack(&self, tier: VerifyTier) -> AttackOutcome {
        self.gadget_attack_traced(tier).0
    }
}

/// Placeholder immediate patched to the address of `/bin/sh` once the
/// buffer address is known.
const SH_PLACEHOLDER: u32 = 0xBBBB_BBBB;

/// Finds `needle` in any section of the binary, returning its address.
/// Prefers the `.asc` section (where the installer placed authenticated
/// copies) over `.rodata`.
pub fn find_bytes(binary: &Binary, needle: &[u8]) -> Option<u32> {
    let search = |name: &str| -> Option<u32> {
        let s = binary.section_by_name(name)?;
        s.data
            .windows(needle.len())
            .position(|w| w == needle)
            .map(|off| s.addr + off as u32)
    };
    search(".asc").or_else(|| search(".rodata"))
}

/// Extracts the first authenticated syscall gadget from an installed
/// binary: the maximal run of `movi` instructions feeding a `syscall`,
/// plus the binary's `.asc` section `(addr, bytes)` for replication.
pub fn extract_gadget(binary: &Binary) -> (Vec<Instruction>, (u32, Vec<u8>)) {
    let text = binary.section_by_name(".text").expect("text");
    let instrs: Vec<Instruction> = text
        .data
        .chunks_exact(INSTR_LEN)
        .map(|c| Instruction::decode(c).expect("installed binaries decode"))
        .collect();
    let sys_idx = instrs
        .iter()
        .position(|i| i.op == Opcode::Syscall)
        .expect("installed binary has syscalls");
    let mut start = sys_idx;
    while start > 0 && instrs[start - 1].op == Opcode::Movi {
        start -= 1;
    }
    let gadget = instrs[start..=sys_idx].to_vec();
    let asc = binary
        .section_by_name(".asc")
        .expect("installed binary has .asc");
    (gadget, (asc.addr, asc.data.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const AT_TACK: u64 = 0xA77A;

    #[test]
    fn shellcode_succeeds_unprotected() {
        let lab = AttackLab::new(MacKey::from_seed(AT_TACK));
        let outcome = lab.shellcode_attack(false);
        assert!(outcome.is_success(), "{outcome:?}");
    }

    #[test]
    fn shellcode_blocked_when_protected() {
        let lab = AttackLab::new(MacKey::from_seed(AT_TACK));
        let outcome = lab.shellcode_attack(true);
        assert!(outcome.is_blocked(), "{outcome:?}");
    }

    #[test]
    fn mimicry_blocked() {
        let lab = AttackLab::new(MacKey::from_seed(AT_TACK));
        let outcome = lab.mimicry_attack();
        assert!(outcome.is_blocked(), "{outcome:?}");
        // Specifically: the stolen gadget's MAC does not match the new
        // call site.
        let AttackOutcome::Blocked(alert) = outcome else {
            unreachable!()
        };
        assert_eq!(
            alert.reason(),
            asc_kernel::ReasonCode::BadCallMac,
            "{alert}"
        );
    }

    #[test]
    fn non_control_data_succeeds_unprotected() {
        let lab = AttackLab::new(MacKey::from_seed(AT_TACK));
        let outcome = lab.non_control_data_attack(false);
        assert!(outcome.is_success(), "{outcome:?}");
    }

    #[test]
    fn non_control_data_blocked_when_protected() {
        let lab = AttackLab::new(MacKey::from_seed(AT_TACK));
        let outcome = lab.non_control_data_attack(true);
        assert!(outcome.is_blocked(), "{outcome:?}");
        let AttackOutcome::Blocked(alert) = outcome else {
            unreachable!()
        };
        assert_eq!(
            alert.reason(),
            asc_kernel::ReasonCode::BadStringMac,
            "{alert}"
        );
    }

    #[test]
    fn classic_attacks_blocked_with_warm_cache() {
        // The verified-call cache must not open any of the original holes.
        let lab = AttackLab::new(MacKey::from_seed(AT_TACK)).with_verify_cache();
        assert!(lab.shellcode_attack(true).is_blocked());
        assert!(lab.mimicry_attack().is_blocked());
        assert!(lab.non_control_data_attack(true).is_blocked());
    }

    #[test]
    fn stale_cache_string_attack_blocked() {
        // Cold kernel first: the attack is just a mid-run string rewrite.
        let lab = AttackLab::new(MacKey::from_seed(AT_TACK));
        let outcome = lab.stale_cache_string_attack();
        assert!(outcome.is_blocked(), "{outcome:?}");
        // Warm cache: the cached acceptance must not survive the rewrite.
        let lab = lab.with_verify_cache();
        let outcome = lab.stale_cache_string_attack();
        assert!(outcome.is_blocked(), "{outcome:?}");
        let AttackOutcome::Blocked(alert) = outcome else {
            unreachable!()
        };
        assert_eq!(
            alert.reason(),
            asc_kernel::ReasonCode::BadStringMac,
            "{alert}"
        );
    }

    #[test]
    fn stale_cache_state_replay_blocked() {
        let lab = AttackLab::new(MacKey::from_seed(AT_TACK));
        let outcome = lab.stale_cache_state_replay_attack();
        assert!(outcome.is_blocked(), "{outcome:?}");
        let lab = lab.with_verify_cache();
        let outcome = lab.stale_cache_state_replay_attack();
        assert!(outcome.is_blocked(), "{outcome:?}");
        let AttackOutcome::Blocked(alert) = outcome else {
            unreachable!()
        };
        assert_eq!(
            alert.reason(),
            asc_kernel::ReasonCode::BadPolicyState,
            "{alert}"
        );
    }

    #[test]
    fn looper_runs_clean_and_warms_cache() {
        // Untampered, the looper exits 0 and the cache takes hits — the
        // stale-cache attacks above really do race a *warm* cache.
        let lab = AttackLab::new(MacKey::from_seed(AT_TACK)).with_verify_cache();
        let binary = lab.build_looper();
        let (outcome, kernel) = lab.run_to_outcome(&binary, b"");
        assert_eq!(
            outcome,
            RunOutcome::Exited(0),
            "alerts: {:?}",
            kernel.alerts()
        );
        assert!(kernel.stats().cache_hits > 0, "stats: {:?}", kernel.stats());
        assert!(
            kernel.stats().warm_aes_blocks < kernel.stats().verify_aes_blocks,
            "warm path must run fewer blocks: {:?}",
            kernel.stats()
        );
    }

    #[test]
    fn reorder_victim_digraph_lacks_the_attack_edge() {
        // The legal order is read -> write -> execve; the digraph must
        // carry those edges and *not* read -> execve, or the attack below
        // would be testing nothing.
        let lab = AttackLab::new(MacKey::from_seed(AT_TACK));
        let binary = lab.reorder_victim();
        let flow = asc_workloads::flow_graph_of(&binary, &MacKey::from_seed(AT_TACK));
        let read = PERSONALITY.nr(asc_kernel::SyscallId::Read).unwrap();
        let write = PERSONALITY.nr(asc_kernel::SyscallId::Write).unwrap();
        let execve = PERSONALITY.nr(asc_kernel::SyscallId::Execve).unwrap();
        assert!(flow.contains(read, write), "legal edge missing");
        assert!(flow.contains(write, execve), "legal edge missing");
        assert!(!flow.contains(read, execve), "digraph too coarse");
    }

    #[test]
    fn reorder_victim_benign_under_every_tier() {
        let lab = AttackLab::new(MacKey::from_seed(AT_TACK));
        let binary = lab.reorder_victim();
        for tier in VerifyTier::ALL {
            let mut m = lab.tier_machine(&binary, b"/etc/motd\n", tier);
            let outcome = m.run(VICTIM_BUDGET);
            let kernel = m.into_handler();
            assert_eq!(
                outcome,
                RunOutcome::Exited(0),
                "{tier:?} alerts: {:?}",
                kernel.alerts()
            );
            assert!(kernel.stdout().starts_with(b"audit:"), "{tier:?}");
            assert_eq!(kernel.exec_requests(), &["/bin/ls".to_string()], "{tier:?}");
        }
    }

    #[test]
    fn reorder_attack_succeeds_under_plain_mac() {
        // Without control-flow policies every per-call check still passes
        // — the jump lands on a legitimate, self-authenticating call site
        // — so the MAC-only tier dispatches the out-of-order execve.
        let lab = AttackLab::new(MacKey::from_seed(AT_TACK));
        let (outcome, kernel) = lab.reorder_attack_traced(VerifyTier::Mac);
        assert!(outcome.is_success(), "{outcome:?}");
        assert_eq!(kernel.exec_requests(), &["/bin/ls".to_string()]);
        assert!(
            !kernel.stdout().starts_with(b"audit:"),
            "gate must be skipped"
        );
    }

    #[test]
    fn reorder_attack_blocked_by_flow_tiers_before_side_effects() {
        let lab = AttackLab::new(MacKey::from_seed(AT_TACK));
        for tier in [VerifyTier::FlowOnly, VerifyTier::MacPlusFlow] {
            let (outcome, kernel) = lab.reorder_attack_traced(tier);
            assert!(outcome.is_blocked(), "{tier:?}: {outcome:?}");
            let AttackOutcome::Blocked(alert) = outcome else {
                unreachable!()
            };
            assert_eq!(
                alert.reason(),
                asc_kernel::ReasonCode::BadFlowEdge,
                "{alert}"
            );
            // Kill fires before dispatch: the forged execve left no trace.
            assert!(kernel.exec_requests().is_empty(), "{tier:?}");
        }
    }

    #[test]
    fn gadget_succeeds_unprotected() {
        // The unprotected guest reaches its hidden misaligned write and
        // prints; this is the baseline the origin check must close.
        let lab = AttackLab::new(MacKey::from_seed(AT_TACK));
        let spec = asc_workloads::hostile::hostile("gadget").expect("corpus entry");
        let plain = asc_workloads::hostile::build_hostile(spec).expect("assembles");
        let (outcome, kernel) = lab.run_to_outcome(&plain, b"");
        assert_eq!(
            outcome,
            RunOutcome::Exited(0),
            "alerts: {:?}",
            kernel.alerts()
        );
        assert_eq!(kernel.stdout(), b"pwned\n");
    }

    #[test]
    fn gadget_blocked_under_every_tier_before_side_effects() {
        let lab = AttackLab::new(MacKey::from_seed(AT_TACK));
        for tier in VerifyTier::ALL {
            let (outcome, kernel) = lab.gadget_attack_traced(tier);
            assert!(outcome.is_blocked(), "{tier:?}: {outcome:?}");
            let AttackOutcome::Blocked(alert) = outcome else {
                unreachable!()
            };
            assert_eq!(
                alert.reason(),
                asc_kernel::ReasonCode::UnrewrittenSite,
                "{alert}"
            );
            // The kill fires before the MAC path and before dispatch: no
            // output, no trace entry, nothing for the attacker.
            assert_eq!(kernel.stdout(), b"", "{tier:?}");
            assert!(kernel.trace().is_empty(), "{tier:?}");
        }
    }

    #[test]
    fn gadget_blocked_with_warm_cache() {
        // The verified-call cache must not let a forged origin through.
        let lab = AttackLab::new(MacKey::from_seed(AT_TACK)).with_verify_cache();
        for tier in VerifyTier::ALL {
            let outcome = lab.gadget_attack(tier);
            assert!(outcome.is_blocked(), "{tier:?}: {outcome:?}");
        }
    }

    #[test]
    fn benign_input_works_on_both() {
        let lab = AttackLab::new(MacKey::from_seed(AT_TACK));
        for binary in [lab.victim_plain(), lab.victim_auth()] {
            let (outcome, kernel) = lab.run_to_outcome(binary, b"/etc/motd\n");
            assert_eq!(
                outcome,
                RunOutcome::Exited(0),
                "alerts: {:?}",
                kernel.alerts()
            );
            assert_eq!(kernel.exec_requests(), &["/bin/ls".to_string()]);
        }
    }
}
