//! The SVM32 virtual machine: paged memory with page-level protection and
//! a per-page decode cache, the CPU interpreter, and deterministic cycle
//! accounting.
//!
//! The VM executes SOF binaries instruction by instruction. System calls
//! trap to a [`SyscallHandler`] — the simulated kernel lives in
//! `asc-kernel` and implements that trait; this crate knows nothing about
//! syscall semantics or policies.
//!
//! Cycle accounting plays the role of the Pentium `rdtsc` counter in the
//! paper's measurements: every instruction charges its
//! [`asc_isa::base_cycles`] cost and the kernel charges trap, handler, and
//! verification costs through [`TrapContext::charge`].
//!
//! Page protection is deliberately period-accurate: section permissions are
//! honoured (no writes to `.text`), but the *stack is executable*, because
//! the paper's threat model includes classic stack-smashing shellcode and
//! system call monitoring is explicitly not a defence against the overflow
//! itself, only against what the compromised process can do afterwards.

mod machine;
mod memory;

pub use machine::{Machine, RunOutcome, StepOutcome, SyscallHandler, TrapContext, TrapOutcome};
pub use memory::{MemFault, Memory, PageFlags, PAGE_SIZE};

/// Default memory size (8 MiB).
pub const DEFAULT_MEM_SIZE: u32 = 8 << 20;

/// Default stack size (256 KiB), mapped at the top of memory.
pub const DEFAULT_STACK_SIZE: u32 = 256 << 10;
