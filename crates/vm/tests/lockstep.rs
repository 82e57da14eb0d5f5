//! Lock-step differential: the paged, predecoding [`Machine`] against the
//! flat, decode-every-step reference interpreter.
//!
//! Both execute the same program one instruction at a time; after every
//! instruction the pc, registers, cycle count and retired-instruction
//! count must agree, and at every trap (and at the end) so must all of
//! mapped memory and every page's protection. Traps run on the machine's
//! kernel; the reference then adopts their effects (registers, charged
//! cycles, memory and protection changes) and carries on by itself.
//!
//! Coverage: every workload installed and uninstalled, every attack in
//! `asc-attacks`, a fixed-seed slice of the fault campaign's memory
//! faults, and targeted self-modifying-code cases.

mod reference;

use asc_attacks::{Action, AttackLab};
use asc_crypto::MacKey;
use asc_installer::{Installer, InstallerOptions};
use asc_isa::{base_cycles, Instruction, Opcode, Reg, INSTR_LEN};
use asc_kernel::{Kernel, KernelOptions, Personality};
use asc_object::Binary;
use asc_testkit::Rng;
use asc_vm::{
    Machine, PageFlags, RunOutcome, StepOutcome, SyscallHandler, TrapContext, TrapOutcome,
    DEFAULT_MEM_SIZE, DEFAULT_STACK_SIZE, PAGE_SIZE,
};
use asc_workloads::{kernel_for, site_registry_for, RUN_BUDGET};
use reference::{RefStep, Reference};

/// A kernel whose trap count the harness reads, to prove the machine
/// trapped exactly where the reference did and nowhere else.
trait CountsTraps: SyscallHandler {
    fn traps(&self) -> u64;
}

impl CountsTraps for Kernel {
    fn traps(&self) -> u64 {
        self.stats().syscalls
    }
}

/// A machine and the reference, stepped together.
struct Lockstep<H> {
    machine: Machine<H>,
    reference: Reference,
    traps: u64,
}

impl<H: CountsTraps> Lockstep<H> {
    /// Loads `binary` into both, independently.
    fn load(binary: &Binary, handler: H) -> Lockstep<H> {
        let machine = Machine::load(binary, handler).expect("binary fits");
        let reference = Reference::load(binary, DEFAULT_MEM_SIZE, DEFAULT_STACK_SIZE);
        let lockstep = Lockstep {
            machine,
            reference,
            traps: 0,
        };
        lockstep.assert_same("after load");
        lockstep.assert_same_memory("after load");
        lockstep
    }

    /// Starts the reference from a copy of an already-built machine.
    fn adopt(machine: Machine<H>) -> Lockstep<H> {
        let mut reference = Reference {
            regs: [0; Reg::COUNT],
            pc: machine.pc(),
            cycles: machine.cycles(),
            instret: machine.instret(),
            mem: reference::FlatMemory::new(machine.mem().size()),
        };
        for (i, r) in reference.regs.iter_mut().enumerate() {
            *r = machine.reg(Reg::try_new(i as u8).expect("register"));
        }
        let mut lockstep = Lockstep {
            machine,
            reference,
            traps: 0,
        };
        lockstep.sync_memory();
        lockstep
    }

    fn assert_same(&self, context: &str) {
        let (m, r) = (&self.machine, &self.reference);
        let regs_match = r
            .regs
            .iter()
            .enumerate()
            .all(|(i, &v)| m.reg(Reg::try_new(i as u8).expect("register")) == v);
        if regs_match && (m.pc(), m.instret(), m.cycles()) == (r.pc, r.instret, r.cycles) {
            return;
        }
        let at = format!("{context} (instret {})", r.instret);
        assert_eq!(m.pc(), r.pc, "pc {at}");
        assert_eq!(m.instret(), r.instret, "instret {at}");
        assert_eq!(m.cycles(), r.cycles, "cycles {at}");
        for (i, &value) in r.regs.iter().enumerate() {
            let reg = Reg::try_new(i as u8).expect("register");
            assert_eq!(m.reg(reg), value, "{reg} {at}");
        }
    }

    fn pages(&self) -> impl Iterator<Item = u32> {
        (0..self.reference.mem.pages.len() as u32).map(|p| p * PAGE_SIZE)
    }

    fn assert_same_memory(&self, context: &str) {
        let (m, r) = (self.machine.mem(), &self.reference.mem);
        for addr in self.pages() {
            let flags = r.flags_at(addr);
            assert_eq!(m.flags_at(addr), flags, "flags of {addr:#x} {context}");
            if flags.mapped() {
                assert_eq!(
                    m.kread(addr, PAGE_SIZE).expect("mapped"),
                    r.kread(addr, PAGE_SIZE).expect("mapped"),
                    "bytes of page {addr:#x} {context}"
                );
            }
        }
    }

    /// Copies the machine's protection and mapped bytes into the
    /// reference (after a trap, whose effects only the machine saw).
    fn sync_memory(&mut self) {
        let pages: Vec<u32> = self.pages().collect();
        for addr in pages {
            let flags = self.machine.mem().flags_at(addr);
            self.reference.mem.protect(addr, PAGE_SIZE, flags);
            if flags.mapped() {
                let bytes = self.machine.mem().kread(addr, PAGE_SIZE).expect("mapped");
                self.reference.mem.kwrite(addr, &bytes).expect("mapped");
            }
        }
    }

    /// Steps the machine, checking it trapped iff `trap`.
    fn step_machine(&mut self, trap: bool) -> StepOutcome {
        let before = self.machine.handler().traps();
        let outcome = self.machine.step();
        let trapped = self.machine.handler().traps() - before;
        assert_eq!(
            trapped,
            u64::from(trap),
            "trap count at {:#x}",
            self.reference.pc
        );
        outcome
    }

    fn step(&mut self) -> StepOutcome {
        match self.reference.step() {
            RefStep::Trap => {
                self.traps += 1;
                let context = format!("at trap {}", self.traps);
                self.assert_same(&context);
                self.assert_same_memory(&context);
                let outcome = self.step_machine(true);
                let r = &mut self.reference;
                r.instret += 1;
                assert_eq!(self.machine.instret(), r.instret, "instret {context}");
                assert!(self.machine.cycles() >= r.cycles + base_cycles(Opcode::Syscall));
                r.cycles = self.machine.cycles();
                for (i, value) in r.regs.iter_mut().enumerate() {
                    *value = self.machine.reg(Reg::try_new(i as u8).expect("register"));
                }
                if outcome == StepOutcome::Running {
                    r.pc += INSTR_LEN as u32;
                }
                self.sync_memory();
                self.assert_same(&context);
                outcome
            }
            RefStep::Running => {
                let outcome = self.step_machine(false);
                assert_eq!(outcome, StepOutcome::Running, "at {:#x}", self.reference.pc);
                self.assert_same("after step");
                outcome
            }
            RefStep::Done(expected) => {
                let outcome = self.step_machine(false);
                assert_eq!(outcome, StepOutcome::Done(expected), "final step");
                self.assert_same("at the end");
                self.assert_same_memory("at the end");
                outcome
            }
        }
    }

    /// [`Machine::run_until_instret`], in lock-step.
    fn run_until_instret(&mut self, target: u64, max_cycles: u64) -> StepOutcome {
        let limit = self.machine.cycles().saturating_add(max_cycles);
        while self.machine.instret() < target {
            match self.step() {
                StepOutcome::Running if self.machine.cycles() >= limit => {
                    return StepOutcome::Done(RunOutcome::CycleLimit)
                }
                StepOutcome::Running => {}
                done => return done,
            }
        }
        StepOutcome::Running
    }

    /// [`Machine::run`], in lock-step.
    fn run(&mut self, max_cycles: u64) -> RunOutcome {
        match self.run_until_instret(u64::MAX, max_cycles) {
            StepOutcome::Done(outcome) => outcome,
            StepOutcome::Running => unreachable!("instret cannot reach u64::MAX"),
        }
    }

    /// Overwrites memory through the kernel path on both sides.
    fn kwrite(&mut self, addr: u32, bytes: &[u8]) {
        let m = self.machine.mem_mut().kwrite(addr, bytes);
        assert_eq!(
            m,
            self.reference.mem.kwrite(addr, bytes),
            "kwrite {addr:#x}"
        );
    }

    /// Changes protection on both sides.
    fn protect(&mut self, addr: u32, len: u32, flags: PageFlags) {
        self.machine.mem_mut().protect(addr, len, flags);
        self.reference.mem.protect(addr, len, flags);
    }
}

fn key() -> MacKey {
    MacKey::from_seed(0x10C4_57E9)
}

const PERSONALITY: Personality = Personality::Linux;

/// Builds every registered workload, plain and installed.
fn workloads() -> Vec<(&'static asc_workloads::ProgramSpec, Binary, Binary)> {
    asc_workloads::programs()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let plain = asc_workloads::build(spec, PERSONALITY).expect("builds");
            let installer = Installer::new(
                key(),
                InstallerOptions::new(PERSONALITY).with_program_id(0x1C00 + i as u16),
            );
            let (auth, _) = installer.install(&plain, spec.name).expect("installs");
            (spec, plain, auth)
        })
        .collect()
}

/// The kernel `asc_workloads::measure` runs `binary` on.
fn workload_kernel(spec: &asc_workloads::ProgramSpec, binary: &Binary, enforce: bool) -> Kernel {
    let mut kernel = kernel_for(spec, PERSONALITY, enforce);
    if enforce {
        if let Some(sites) = site_registry_for(binary, &key()) {
            kernel.set_site_registry(sites);
        }
        kernel.set_key(key());
    }
    kernel.set_brk(binary.highest_addr());
    kernel
}

#[test]
fn every_workload_runs_in_lock_step_installed_and_uninstalled() {
    for (spec, plain, auth) in workloads() {
        for (binary, enforce) in [(&plain, false), (&auth, true)] {
            let mut ls = Lockstep::load(binary, workload_kernel(spec, binary, enforce));
            let outcome = ls.run(RUN_BUDGET);
            assert!(
                outcome.is_success(),
                "{} ({enforce}): {outcome:?}",
                spec.name
            );
            assert!(ls.traps > 0, "{}", spec.name);
        }
    }
}

#[test]
fn every_hostile_guest_runs_in_lock_step() {
    for spec in asc_workloads::hostile::HOSTILE {
        let binary = asc_workloads::hostile::build_hostile(spec).expect("assembles");
        let mut kernel = Kernel::new(KernelOptions::plain(PERSONALITY));
        kernel.set_brk(binary.highest_addr());
        let mut ls = Lockstep::load(&binary, kernel);
        ls.run(RUN_BUDGET);
    }
}

#[test]
fn every_attack_runs_in_lock_step() {
    let lab = AttackLab::new(key());
    let warm = AttackLab::new(key()).with_verify_cache();
    let mut runs = lab.runs();
    runs.extend(warm.runs());
    assert!(runs.len() >= 13, "{} attack runs", runs.len());
    for (name, run) in runs {
        let mut ls = Lockstep::adopt(run.machine);
        let mut snapshot = None;
        for action in run.script {
            match action {
                Action::WarmUp(n) => {
                    while ls.machine.handler().stats().verified < n {
                        assert_eq!(ls.step(), StepOutcome::Running, "{name} warm-up");
                    }
                }
                Action::Write { addr, bytes } => {
                    ls.protect(addr, bytes.len() as u32, PageFlags::RW);
                    ls.kwrite(addr, &bytes);
                }
                Action::Snapshot { addr, len } => {
                    snapshot = Some((addr, ls.machine.mem().kread(addr, len).expect("mapped")));
                }
                Action::Replay => {
                    let (addr, bytes) = snapshot.take().expect("snapshot first");
                    ls.protect(addr, bytes.len() as u32, PageFlags::RW);
                    ls.kwrite(addr, &bytes);
                }
            }
        }
        ls.run(asc_attacks::VICTIM_BUDGET);
    }
}

#[test]
fn fault_campaign_slice_runs_in_lock_step() {
    // The campaign's memory fault classes, drawn from its own artifact
    // inventory: call MACs, authenticated strings, predecessor sets, the
    // policy-state cell, rewritten `movi` immediates in text, raw
    // `syscall`s planted over text, and smuggled prologue `syscall`s.
    let mut rng = Rng::new(0x5EED_F417);
    let mut flips = 0;
    for (spec, _, auth) in workloads().into_iter().take(6) {
        let inv = asc_faults::scan(&auth);
        let clean_instret = {
            let mut m = Machine::load(&auth, workload_kernel(spec, &auth, true)).expect("fits");
            assert!(m.run(RUN_BUDGET).is_success());
            m.instret()
        };
        let mut targets: Vec<(u32, u8)> = Vec::new();
        let byte_in = |rng: &mut Rng, start: u32, len: u32| {
            (start + rng.range_u32(0, len), rng.range_u32(1, 256) as u8)
        };
        for _ in 0..2 {
            if !inv.mac_slots.is_empty() {
                let slot = *rng.pick(&inv.mac_slots);
                targets.push(byte_in(&mut rng, slot, 16));
            }
            if !inv.string_blobs.is_empty() {
                let blob = *rng.pick(&inv.string_blobs);
                targets.push(byte_in(&mut rng, blob.contents_addr, blob.len));
            }
            if !inv.pred_blobs.is_empty() {
                let blob = *rng.pick(&inv.pred_blobs);
                targets.push(byte_in(&mut rng, blob.contents_addr, blob.len));
            }
            if let Some(cell) = inv.state_cell {
                targets.push(byte_in(&mut rng, cell, 20));
            }
            if !inv.imm_fields.is_empty() {
                let field = *rng.pick(&inv.imm_fields);
                targets.push(byte_in(&mut rng, field, 4));
            }
            if !inv.gadget_targets.is_empty() {
                let (addr, opcode) = *rng.pick(&inv.gadget_targets);
                targets.push((addr, opcode ^ Opcode::Syscall as u8));
            }
            if !inv.prologue_movis.is_empty() {
                let addr = *rng.pick(&inv.prologue_movis);
                targets.push((addr, Opcode::Movi as u8 ^ Opcode::Syscall as u8));
            }
        }
        for (addr, mask) in targets {
            let at = if rng.chance(1, 2) {
                0
            } else {
                rng.range_u64(0, clean_instret + 1)
            };
            let mut ls = Lockstep::load(&auth, workload_kernel(spec, &auth, true));
            if ls.run_until_instret(at, RUN_BUDGET) == StepOutcome::Running {
                let byte = ls.machine.mem().kread(addr, 1).expect("mapped")[0];
                ls.kwrite(addr, &[byte ^ mask]);
                ls.run(RUN_BUDGET);
                flips += 1;
            }
        }
    }
    assert!(flips >= 40, "only {flips} flips landed");
}

/// Test kernel: 1 = exit(R1); 2 = overwrite the 4 bytes at R1 with R2
/// (the `kwrite` of a patched immediate); 3 = remove X from R1's page.
#[derive(Debug, Default)]
struct PatchKernel {
    traps: u64,
}

impl CountsTraps for PatchKernel {
    fn traps(&self) -> u64 {
        self.traps
    }
}

impl SyscallHandler for PatchKernel {
    fn syscall(&mut self, ctx: &mut TrapContext<'_>) -> TrapOutcome {
        self.traps += 1;
        ctx.charge(10);
        let (r1, r2) = (ctx.reg(Reg::R1), ctx.reg(Reg::R2));
        match ctx.reg(Reg::R0) {
            1 => return TrapOutcome::Exit(r1),
            2 => ctx.mem.kwrite(r1, &r2.to_le_bytes()).expect("mapped"),
            3 => ctx.mem.protect(r1, 1, PageFlags::RW),
            _ => return TrapOutcome::Kill("unknown".into()),
        }
        TrapOutcome::Continue
    }
}

fn run_patch_program(src: &str) -> (RunOutcome, Lockstep<PatchKernel>) {
    let binary = asc_asm::assemble(src).expect("assembles");
    let mut ls = Lockstep::load(&binary, PatchKernel::default());
    let outcome = ls.run(1_000_000);
    let plain = Machine::load(&binary, PatchKernel::default())
        .expect("fits")
        .run(1_000_000);
    assert_eq!(outcome, plain);
    (outcome, ls)
}

#[test]
fn stack_shellcode_is_rewritten_and_rerun() {
    // Copy `movi r1, 5; ret` onto the RWX stack, call it, patch the
    // immediate with a user-mode store, call it again: the second call
    // must see the new value, not the first call's decoded instruction.
    let movi = Instruction::movi(Reg::R1, 5).encode();
    let ret = Instruction::ret().encode();
    let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4"));
    let src = format!(
        "
        .text
    main:
        addi r4, sp, -256
        movi r5, {m0}
        stw [r4], r5
        movi r5, {m1}
        stw [r4+4], r5
        movi r5, {r0}
        stw [r4+8], r5
        movi r5, {r1}
        stw [r4+12], r5
        callr r4
        mov r6, r1
        movi r5, 37
        stw [r4+4], r5
        callr r4
        add r1, r1, r6
        movi r0, 1
        syscall
    ",
        m0 = word(&movi[..4]),
        m1 = word(&movi[4..]),
        r0 = word(&ret[..4]),
        r1 = word(&ret[4..]),
    );
    let (outcome, ls) = run_patch_program(&src);
    assert_eq!(outcome, RunOutcome::Exited(5 + 37));
    assert_eq!(ls.traps, 1);
}

#[test]
fn kwrite_into_decoded_text_takes_effect() {
    // `movi r1, 1` runs (and is decoded) in a loop; a trap then has the
    // kernel rewrite its immediate in the RX text page to 40, so the
    // next pass must load 40: exit(1 + 40).
    let (outcome, _) = run_patch_program(
        "
        .text
    main:
        movi r7, 0
        movi r6, 0
        movi r3, 1
    again:
        call load
        add r6, r6, r1
        beq r7, r3, done
        movi r0, 2
        movi r1, load
        addi r1, r1, 4
        movi r2, 40
        syscall
        movi r7, 1
        jmp again
    done:
        mov r1, r6
        movi r0, 1
        syscall
    load:
        movi r1, 1
        ret
    ",
    );
    assert_eq!(outcome, RunOutcome::Exited(41));
}

#[test]
fn protect_removing_exec_from_decoded_page_faults_at_the_same_address() {
    // `tail` sits on its own page and runs once (decoded); a trap then
    // drops X from that page, and the second call must fault exactly as
    // the reference does.
    let (outcome, _) = run_patch_program(
        "
        .text
    main:
        call tail
        movi r0, 3
        movi r1, tail
        syscall
        call tail
        movi r0, 1
        movi r1, 0
        syscall
        .align 4096
    tail:
        ret
    ",
    );
    assert!(
        matches!(outcome, RunOutcome::Fault(asc_vm::MemFault::NoExec { .. })),
        "{outcome:?}"
    );
}
