//! The straightforward implementation the paged, predecoding VM is
//! checked against: flat, eagerly zeroed memory, and an interpreter that
//! fetches and decodes every instruction afresh. This is the VM as it
//! was before paging and predecode, kept here as the test oracle.
//!
//! Each test binary uses a different part of it.
#![allow(dead_code)]

use asc_isa::{base_cycles, Instruction, Opcode, Reg, INSTR_LEN};
use asc_object::Binary;
use asc_vm::{MemFault, PageFlags, RunOutcome, PAGE_SIZE};

/// Flat byte-addressable memory with page-granular protection.
#[derive(Clone)]
pub struct FlatMemory {
    pub bytes: Vec<u8>,
    pub pages: Vec<PageFlags>,
}

impl FlatMemory {
    pub fn new(size: u32) -> FlatMemory {
        let pages = size.div_ceil(PAGE_SIZE) as usize;
        FlatMemory {
            bytes: vec![0; pages * PAGE_SIZE as usize],
            pages: vec![PageFlags::NONE; pages],
        }
    }

    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    pub fn load(&mut self, binary: &Binary, stack_size: u32) -> Result<(), MemFault> {
        for section in binary.sections() {
            let end = section.addr + section.mem_size;
            if end > self.size() {
                return Err(MemFault::OutOfRange { addr: end });
            }
            let start = section.addr as usize;
            self.bytes[start..start + section.data.len()].copy_from_slice(&section.data);
            for b in &mut self.bytes[start + section.data.len()..start + section.mem_size as usize]
            {
                *b = 0;
            }
            self.protect(
                section.addr,
                section.mem_size,
                PageFlags::from_section(section.flags),
            );
        }
        let stack_base = self.size() - stack_size;
        self.protect(stack_base, stack_size, PageFlags::RWX);
        Ok(())
    }

    pub fn initial_sp(&self) -> u32 {
        self.size() & !0xf
    }

    pub fn protect(&mut self, addr: u32, len: u32, flags: PageFlags) {
        if len == 0 {
            return;
        }
        let first = (addr / PAGE_SIZE) as usize;
        let last = ((addr + len - 1) / PAGE_SIZE) as usize;
        for p in first..=last.min(self.pages.len() - 1) {
            self.pages[p] = flags;
        }
    }

    pub fn flags_at(&self, addr: u32) -> PageFlags {
        self.pages
            .get((addr / PAGE_SIZE) as usize)
            .copied()
            .unwrap_or(PageFlags::NONE)
    }

    fn check(
        &self,
        addr: u32,
        len: u32,
        need: fn(PageFlags) -> bool,
        fault: fn(u32) -> MemFault,
    ) -> Result<(), MemFault> {
        if addr as u64 + len as u64 > self.size() as u64 {
            return Err(MemFault::OutOfRange { addr });
        }
        if len == 0 {
            return Ok(());
        }
        let first = addr / PAGE_SIZE;
        let last = (addr + len - 1) / PAGE_SIZE;
        for p in first..=last {
            if !need(self.pages[p as usize]) {
                return Err(fault(p * PAGE_SIZE));
            }
        }
        Ok(())
    }

    pub fn read_u8(&self, addr: u32) -> Result<u8, MemFault> {
        self.check(addr, 1, PageFlags::readable, |a| MemFault::NoRead {
            addr: a,
        })?;
        Ok(self.bytes[addr as usize])
    }

    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), MemFault> {
        self.check(addr, 1, PageFlags::writable, |a| MemFault::NoWrite {
            addr: a,
        })?;
        self.bytes[addr as usize] = value;
        Ok(())
    }

    pub fn read_u32(&self, addr: u32) -> Result<u32, MemFault> {
        self.check(addr, 4, PageFlags::readable, |a| MemFault::NoRead {
            addr: a,
        })?;
        let i = addr as usize;
        Ok(u32::from_le_bytes(
            self.bytes[i..i + 4].try_into().expect("4 bytes"),
        ))
    }

    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemFault> {
        self.check(addr, 4, PageFlags::writable, |a| MemFault::NoWrite {
            addr: a,
        })?;
        let i = addr as usize;
        self.bytes[i..i + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    pub fn fetch(&self, pc: u32) -> Result<&[u8], MemFault> {
        self.check(pc, INSTR_LEN as u32, PageFlags::executable, |a| {
            MemFault::NoExec { addr: a }
        })?;
        Ok(&self.bytes[pc as usize..pc as usize + INSTR_LEN])
    }

    pub fn kread(&self, addr: u32, len: u32) -> Result<&[u8], MemFault> {
        self.check(addr, len, PageFlags::mapped, |a| MemFault::NoRead {
            addr: a,
        })?;
        Ok(&self.bytes[addr as usize..(addr + len) as usize])
    }

    pub fn kread_u32(&self, addr: u32) -> Result<u32, MemFault> {
        let b = self.kread(addr, 4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    pub fn kwrite(&mut self, addr: u32, data: &[u8]) -> Result<(), MemFault> {
        self.check(addr, data.len() as u32, PageFlags::mapped, |a| {
            MemFault::NoWrite { addr: a }
        })?;
        self.bytes[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        Ok(())
    }

    pub fn kread_cstr(&self, addr: u32, max: u32) -> Result<Vec<u8>, MemFault> {
        let mut out = Vec::new();
        for i in 0..max {
            let b = self.kread(addr + i, 1)?[0];
            if b == 0 {
                return Ok(out);
            }
            out.push(b);
        }
        Err(MemFault::NoRead { addr: addr + max })
    }
}

/// What one reference step did.
#[derive(Debug, PartialEq, Eq)]
pub enum RefStep {
    /// An ordinary instruction retired.
    Running,
    /// The next instruction is a `syscall`; nothing has been charged yet.
    /// The caller runs the trap and applies its effects.
    Trap,
    /// The program stopped.
    Done(RunOutcome),
}

/// The reference CPU: today's `Machine` without its kernel.
#[derive(Clone)]
pub struct Reference {
    pub regs: [u32; Reg::COUNT],
    pub pc: u32,
    pub cycles: u64,
    pub instret: u64,
    pub mem: FlatMemory,
}

impl Reference {
    /// Loads `binary` the way `Machine::load_with` does.
    pub fn load(binary: &Binary, mem_size: u32, stack_size: u32) -> Reference {
        let mut mem = FlatMemory::new(mem_size);
        mem.load(binary, stack_size).expect("binary fits");
        let mut regs = [0; Reg::COUNT];
        regs[Reg::SP.index()] = mem.initial_sp();
        Reference {
            regs,
            pc: binary.entry(),
            cycles: 0,
            instret: 0,
            mem,
        }
    }

    /// Executes one instruction, stopping short of a `syscall`.
    pub fn step(&mut self) -> RefStep {
        use Opcode::*;
        let raw = match self.mem.fetch(self.pc) {
            Ok(b) => b,
            Err(f) => return RefStep::Done(RunOutcome::Fault(f)),
        };
        let instr = match Instruction::decode(raw) {
            Ok(i) => i,
            Err(error) => return RefStep::Done(RunOutcome::BadInstruction { pc: self.pc, error }),
        };
        if instr.op == Syscall {
            return RefStep::Trap;
        }
        self.cycles += base_cycles(instr.op);
        self.instret += 1;
        let next_pc = self.pc + INSTR_LEN as u32;
        let rd = instr.rd.index();
        let rs1 = self.regs[instr.rs1.index()];
        let rs2 = self.regs[instr.rs2.index()];
        let imm = instr.imm;

        macro_rules! mem_try {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(f) => return RefStep::Done(RunOutcome::Fault(f)),
                }
            };
        }

        let mut jump: Option<u32> = None;
        match instr.op {
            Nop => {}
            Halt => return RefStep::Done(RunOutcome::Halted),
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
            Syscall => unreachable!("handled above"),
        }
        self.pc = jump.unwrap_or(next_pc);
        RefStep::Running
    }
}
