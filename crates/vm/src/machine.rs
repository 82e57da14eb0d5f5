//! The CPU interpreter.

use asc_isa::{base_cycles, DecodeError, Opcode, Reg};
use asc_object::Binary;

use crate::memory::{MemFault, Memory};
use crate::{DEFAULT_MEM_SIZE, DEFAULT_STACK_SIZE};

/// What the kernel decided about a trapped system call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrapOutcome {
    /// Let the process continue; the handler has written the return value
    /// into `R0`.
    Continue,
    /// The process called `exit` (or an equivalent); stop with this code.
    Exit(u32),
    /// The kernel killed the process (e.g. a policy violation). The string
    /// is the log message for the administrator alert.
    Kill(String),
}

/// Execution context handed to the syscall handler at trap time.
///
/// The handler sees the full register file, the faulting PC (which is how
/// the kernel learns the *call site*, like the return address of the
/// interrupt handler in the paper), the process memory, and a cycle meter.
pub struct TrapContext<'a> {
    /// The register file; `regs[0]` carries the syscall number in and the
    /// return value out.
    pub regs: &'a mut [u32; Reg::COUNT],
    /// Address of the `syscall` instruction.
    pub pc: u32,
    /// Process memory.
    pub mem: &'a mut Memory,
    cycles: &'a mut u64,
}

impl<'a> TrapContext<'a> {
    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register.
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        self.regs[r.index()] = value;
    }

    /// Charges kernel-side work to the process's cycle meter.
    pub fn charge(&mut self, cycles: u64) {
        *self.cycles += cycles;
    }

    /// Current value of the process's cycle meter (used to timestamp
    /// kernel-side trace events on the virtual clock).
    pub fn cycles(&self) -> u64 {
        *self.cycles
    }
}

/// The kernel interface: invoked on every `syscall` instruction.
pub trait SyscallHandler {
    /// Handles one trap.
    fn syscall(&mut self, ctx: &mut TrapContext<'_>) -> TrapOutcome;
}

/// Why a [`Machine::run`] stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The process exited normally with this code.
    Exited(u32),
    /// A `halt` instruction was executed (bare-metal stop).
    Halted,
    /// The kernel killed the process. Carries the kernel's log message —
    /// this is the paper's fail-stop outcome for policy violations.
    Killed(String),
    /// A memory access or protection fault.
    Fault(MemFault),
    /// An invalid instruction was fetched.
    BadInstruction {
        /// Address of the undecodable instruction.
        pc: u32,
        /// Why decoding failed.
        error: DecodeError,
    },
    /// The cycle budget given to `run` was exhausted.
    CycleLimit,
}

impl RunOutcome {
    /// Whether the run ended by normal exit with status 0.
    pub fn is_success(&self) -> bool {
        matches!(self, RunOutcome::Exited(0) | RunOutcome::Halted)
    }

    /// Whether the kernel killed the process (policy violation).
    pub fn is_killed(&self) -> bool {
        matches!(self, RunOutcome::Killed(_))
    }
}

/// Result of a single [`Machine::step`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// Execution continues.
    Running,
    /// Execution finished with the given outcome.
    Done(RunOutcome),
}

/// A loaded process: CPU state, memory, and its kernel.
pub struct Machine<H> {
    regs: [u32; Reg::COUNT],
    pc: u32,
    cycles: u64,
    mem: Memory,
    handler: H,
    instret: u64,
}

impl<H: std::fmt::Debug> std::fmt::Debug for Machine<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &format_args!("{:#x}", self.pc))
            .field("cycles", &self.cycles)
            .field("handler", &self.handler)
            .finish()
    }
}

impl<H: SyscallHandler> Machine<H> {
    /// Loads `binary` into fresh default-sized memory with `handler` as the
    /// kernel.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if the binary does not fit in memory.
    pub fn load(binary: &Binary, handler: H) -> Result<Machine<H>, MemFault> {
        Machine::load_with(binary, handler, DEFAULT_MEM_SIZE, DEFAULT_STACK_SIZE)
    }

    /// Loads with explicit memory and stack sizes.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if the binary does not fit in memory.
    pub fn load_with(
        binary: &Binary,
        handler: H,
        mem_size: u32,
        stack_size: u32,
    ) -> Result<Machine<H>, MemFault> {
        let mut mem = Memory::new(mem_size);
        mem.load(binary, stack_size)?;
        let mut regs = [0u32; Reg::COUNT];
        regs[Reg::SP.index()] = mem.initial_sp();
        Ok(Machine {
            regs,
            pc: binary.entry(),
            cycles: 0,
            mem,
            handler,
            instret: 0,
        })
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register (for test setup and attack harnesses).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        self.regs[r.index()] = value;
    }

    /// Cycles consumed so far (the `rdtsc` analogue).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired so far.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// The process memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to process memory (attack harnesses corrupt state
    /// through this, playing the role of a memory-safety exploit).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// The kernel.
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// Mutable access to the kernel.
    pub fn handler_mut(&mut self) -> &mut H {
        &mut self.handler
    }

    /// Consumes the machine, returning the kernel.
    pub fn into_handler(self) -> H {
        self.handler
    }

    /// Executes one instruction.
    pub fn step(&mut self) -> StepOutcome {
        use Opcode::*;
        let instr = match self.mem.fetch_decoded(self.pc) {
            Ok(Ok(i)) => i,
            Ok(Err(error)) => {
                return StepOutcome::Done(RunOutcome::BadInstruction { pc: self.pc, error })
            }
            Err(f) => return StepOutcome::Done(RunOutcome::Fault(f)),
        };
        self.cycles += base_cycles(instr.op);
        self.instret += 1;
        let next_pc = self.pc + asc_isa::INSTR_LEN as u32;
        let rd = instr.rd.index();
        let rs1 = self.regs[instr.rs1.index()];
        let rs2 = self.regs[instr.rs2.index()];
        let imm = instr.imm;

        macro_rules! mem_try {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(f) => return StepOutcome::Done(RunOutcome::Fault(f)),
                }
            };
        }

        let mut jump: Option<u32> = None;
        match instr.op {
            Nop => {}
            Halt => return StepOutcome::Done(RunOutcome::Halted),
            Movi => self.regs[rd] = imm,
            Mov => self.regs[rd] = rs1,
            Add => self.regs[rd] = rs1.wrapping_add(rs2),
            Sub => self.regs[rd] = rs1.wrapping_sub(rs2),
            Mul => self.regs[rd] = rs1.wrapping_mul(rs2),
            Divu => self.regs[rd] = rs1.checked_div(rs2).unwrap_or(0),
            Remu => self.regs[rd] = rs1.checked_rem(rs2).unwrap_or(0),
            And => self.regs[rd] = rs1 & rs2,
            Or => self.regs[rd] = rs1 | rs2,
            Xor => self.regs[rd] = rs1 ^ rs2,
            Shl => self.regs[rd] = rs1.wrapping_shl(rs2 & 31),
            Shr => self.regs[rd] = rs1.wrapping_shr(rs2 & 31),
            Addi => self.regs[rd] = rs1.wrapping_add(imm),
            Andi => self.regs[rd] = rs1 & imm,
            Ori => self.regs[rd] = rs1 | imm,
            Xori => self.regs[rd] = rs1 ^ imm,
            Shli => self.regs[rd] = rs1.wrapping_shl(imm & 31),
            Shri => self.regs[rd] = rs1.wrapping_shr(imm & 31),
            Muli => self.regs[rd] = rs1.wrapping_mul(imm),
            Ldw => self.regs[rd] = mem_try!(self.mem.read_u32(rs1.wrapping_add(imm))),
            Stw => mem_try!(self.mem.write_u32(rs1.wrapping_add(imm), rs2)),
            Ldb => self.regs[rd] = mem_try!(self.mem.read_u8(rs1.wrapping_add(imm))) as u32,
            Stb => mem_try!(self.mem.write_u8(rs1.wrapping_add(imm), rs2 as u8)),
            Push => {
                let sp = self.regs[Reg::SP.index()].wrapping_sub(4);
                mem_try!(self.mem.write_u32(sp, rs1));
                self.regs[Reg::SP.index()] = sp;
            }
            Pop => {
                let sp = self.regs[Reg::SP.index()];
                self.regs[rd] = mem_try!(self.mem.read_u32(sp));
                self.regs[Reg::SP.index()] = sp.wrapping_add(4);
            }
            Jmp => jump = Some(imm),
            Jr => jump = Some(rs1),
            Beq => {
                if rs1 == rs2 {
                    jump = Some(imm)
                }
            }
            Bne => {
                if rs1 != rs2 {
                    jump = Some(imm)
                }
            }
            Blt => {
                if (rs1 as i32) < (rs2 as i32) {
                    jump = Some(imm)
                }
            }
            Bge => {
                if (rs1 as i32) >= (rs2 as i32) {
                    jump = Some(imm)
                }
            }
            Bltu => {
                if rs1 < rs2 {
                    jump = Some(imm)
                }
            }
            Bgeu => {
                if rs1 >= rs2 {
                    jump = Some(imm)
                }
            }
            Call | Callr => {
                let sp = self.regs[Reg::SP.index()].wrapping_sub(4);
                mem_try!(self.mem.write_u32(sp, next_pc));
                self.regs[Reg::SP.index()] = sp;
                jump = Some(if instr.op == Call { imm } else { rs1 });
            }
            Ret => {
                let sp = self.regs[Reg::SP.index()];
                jump = Some(mem_try!(self.mem.read_u32(sp)));
                self.regs[Reg::SP.index()] = sp.wrapping_add(4);
            }
            Syscall => {
                let mut ctx = TrapContext {
                    regs: &mut self.regs,
                    pc: self.pc,
                    mem: &mut self.mem,
                    cycles: &mut self.cycles,
                };
                match self.handler.syscall(&mut ctx) {
                    TrapOutcome::Continue => {}
                    TrapOutcome::Exit(code) => return StepOutcome::Done(RunOutcome::Exited(code)),
                    TrapOutcome::Kill(reason) => {
                        return StepOutcome::Done(RunOutcome::Killed(reason))
                    }
                }
            }
        }
        self.pc = jump.unwrap_or(next_pc);
        StepOutcome::Running
    }

    /// Runs until `instret` reaches `target` (or the program finishes
    /// first). Returns [`StepOutcome::Running`] when the target was
    /// reached with the program still alive — the caller may then inspect
    /// or mutate machine state (fault-injection campaigns corrupt memory
    /// at a deterministic instruction index this way) and resume with
    /// [`Machine::run`].
    pub fn run_until_instret(&mut self, target: u64, max_cycles: u64) -> StepOutcome {
        let limit = self.cycles.saturating_add(max_cycles);
        while self.instret < target {
            match self.step() {
                StepOutcome::Running => {
                    if self.cycles >= limit {
                        return StepOutcome::Done(RunOutcome::CycleLimit);
                    }
                }
                done => return done,
            }
        }
        StepOutcome::Running
    }

    /// Runs until completion or until `max_cycles` additional cycles have
    /// been consumed.
    pub fn run(&mut self, max_cycles: u64) -> RunOutcome {
        let limit = self.cycles.saturating_add(max_cycles);
        loop {
            match self.step() {
                StepOutcome::Running => {
                    if self.cycles >= limit {
                        return RunOutcome::CycleLimit;
                    }
                }
                StepOutcome::Done(outcome) => return outcome,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asc_asm::assemble;

    /// A toy kernel for VM tests: syscall 1 = exit(R1); syscall 2 = add 100
    /// to R1 and return in R0; syscall 3 = kill.
    #[derive(Debug, Default)]
    struct ToyKernel {
        calls: Vec<(u32, u32)>,
    }

    impl SyscallHandler for ToyKernel {
        fn syscall(&mut self, ctx: &mut TrapContext<'_>) -> TrapOutcome {
            let nr = ctx.reg(Reg::R0);
            self.calls.push((nr, ctx.pc));
            ctx.charge(100);
            match nr {
                1 => TrapOutcome::Exit(ctx.reg(Reg::R1)),
                2 => {
                    let v = ctx.reg(Reg::R1) + 100;
                    ctx.set_reg(Reg::R0, v);
                    TrapOutcome::Continue
                }
                _ => TrapOutcome::Kill("unknown syscall".into()),
            }
        }
    }

    fn run_asm(src: &str) -> (RunOutcome, Machine<ToyKernel>) {
        let b = assemble(src).unwrap();
        let mut m = Machine::load(&b, ToyKernel::default()).unwrap();
        let outcome = m.run(1_000_000);
        (outcome, m)
    }

    #[test]
    fn arithmetic_loop() {
        // sum 1..=10 then exit(sum)
        let (outcome, _) = run_asm(
            "
            .text
        main:
            movi r1, 0
            movi r2, 0
        loop:
            addi r2, r2, 1
            add r1, r1, r2
            movi r3, 10
            bne r2, r3, loop
            movi r0, 1
            syscall
        ",
        );
        assert_eq!(outcome, RunOutcome::Exited(55));
    }

    #[test]
    fn call_ret_and_stack() {
        let (outcome, _) = run_asm(
            "
            .text
        main:
            movi r1, 5
            call double
            mov r1, r0
            movi r0, 1
            syscall
        double:
            add r0, r1, r1
            ret
        ",
        );
        assert_eq!(outcome, RunOutcome::Exited(10));
    }

    #[test]
    fn syscall_return_value_and_trace() {
        let (outcome, m) = run_asm(
            "
            .text
        main:
            movi r1, 7
            movi r0, 2
            syscall
            mov r1, r0
            movi r0, 1
            syscall
        ",
        );
        assert_eq!(outcome, RunOutcome::Exited(107));
        assert_eq!(m.handler().calls.len(), 2);
        assert_eq!(m.handler().calls[0].0, 2);
    }

    #[test]
    fn kill_is_fail_stop() {
        let (outcome, _) = run_asm(
            "
            .text
        main:
            movi r0, 99
            syscall
            movi r0, 1
            movi r1, 0
            syscall
        ",
        );
        assert!(outcome.is_killed());
    }

    #[test]
    fn write_to_text_faults() {
        let (outcome, _) = run_asm(
            "
            .text
        main:
            movi r1, main
            movi r2, 0
            stw [r1], r2
            halt
        ",
        );
        assert!(matches!(
            outcome,
            RunOutcome::Fault(MemFault::NoWrite { .. })
        ));
    }

    #[test]
    fn shellcode_on_stack_executes() {
        // Write `movi r0,1; movi r1,42; syscall` onto the stack and jump
        // there: the pre-NX stack lets it run (this is the substrate for
        // the paper's attack experiments).
        let (outcome, _) = run_asm(
            "
            .text
        main:
            addi r4, sp, -64
            movi r5, code
            movi r6, 24
            movi r7, 0
        copy:
            add r2, r5, r7
            ldb r3, [r2]
            add r2, r4, r7
            stb [r2], r3
            addi r7, r7, 1
            bne r7, r6, copy
            jr r4
        code:
            movi r0, 1
            movi r1, 42
            syscall
        ",
        );
        assert_eq!(outcome, RunOutcome::Exited(42));
    }

    #[test]
    fn cycle_limit() {
        let b = assemble("main: jmp main").unwrap();
        let mut m = Machine::load(&b, ToyKernel::default()).unwrap();
        assert_eq!(m.run(1000), RunOutcome::CycleLimit);
        assert!(m.cycles() >= 1000);
    }

    #[test]
    fn kernel_charge_adds_cycles() {
        let b = assemble("main: movi r0, 2\nmovi r1, 1\nsyscall\nmovi r0,1\nmovi r1,0\nsyscall")
            .unwrap();
        let mut m = Machine::load(&b, ToyKernel::default()).unwrap();
        m.run(1_000_000);
        // 2 syscalls * 100 charged + a handful of instruction cycles.
        assert!(m.cycles() >= 200);
        assert!(m.cycles() < 300);
    }

    #[test]
    fn bad_instruction_stops() {
        let b = assemble("main: halt").unwrap();
        let mut m = Machine::load(&b, ToyKernel::default()).unwrap();
        // Corrupt the instruction with an invalid opcode via kernel write.
        m.mem_mut().kwrite(0x1000, &[0xff]).unwrap();
        assert!(matches!(
            m.step(),
            StepOutcome::Done(RunOutcome::BadInstruction { .. })
        ));
    }

    #[test]
    fn run_until_instret_pauses_then_resumes() {
        let b = assemble(
            "
            .text
        main:
            movi r1, 0
            movi r2, 0
        loop:
            addi r2, r2, 1
            add r1, r1, r2
            movi r3, 10
            bne r2, r3, loop
            movi r0, 1
            syscall
        ",
        )
        .unwrap();
        let mut m = Machine::load(&b, ToyKernel::default()).unwrap();
        assert_eq!(m.run_until_instret(5, 1_000_000), StepOutcome::Running);
        assert_eq!(m.instret(), 5);
        assert_eq!(m.run(1_000_000), RunOutcome::Exited(55));
        // A target beyond program end just finishes the program.
        let mut m2 = Machine::load(&b, ToyKernel::default()).unwrap();
        assert_eq!(
            m2.run_until_instret(1_000_000, 1_000_000),
            StepOutcome::Done(RunOutcome::Exited(55))
        );
    }

    #[test]
    fn halt_outcome_is_success() {
        let (outcome, _) = run_asm("main: halt");
        assert_eq!(outcome, RunOutcome::Halted);
        assert!(outcome.is_success());
    }
}
