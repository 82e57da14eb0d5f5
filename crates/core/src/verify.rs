//! Kernel-side system call checking (§3.4).
//!
//! [`Verifier::verify`] implements the three checks the paper adds to the
//! trap handler — call MAC, authenticated-string integrity, control flow —
//! plus the §5 extensions (patterns with proof hints, capability bits). It
//! is written against the small [`UserMemory`] abstraction so it can be
//! tested exhaustively here and reused verbatim by the simulated kernel.
//!
//! The verifier also *meters* the cryptographic work it performs
//! ([`VerifyOutcome::aes_blocks`], split per check into [`CheckRecord`]s):
//! the kernel's cycle model charges verification cost from these counts,
//! which is how the simulator reproduces the paper's ≈4,000-cycle per-call
//! overhead from first principles instead of hard-coding it. The counts
//! are *measured* — the key's AES block counter is snapshotted around each
//! check — so the cached fast path ([`Verifier::cache`]) that skips
//! recomputation is charged only for the blocks it actually ran.

use asc_crypto::{CapabilitySet, MacKey, MemoryChecker, PolicyState, MAC_LEN, POLICY_STATE_LEN};
use asc_trace::{CacheDecision, CheckKind, CheckRecord, ReasonCode};

use crate::cache::{CacheStats, VerifyCache};
use crate::descriptor::PolicyDescriptor;
use crate::encoding::{encode_call, EncodedArg, EncodedCall};
use crate::pattern::Pattern;
use crate::policy::{SyscallPolicy, MAX_ARGS};

/// Longest string / predecessor set / pattern the kernel will read from
/// user space (defence against the attacker-chosen-length DoS of §3.2).
pub const MAX_AS_LEN: u32 = 4096;

/// Header bytes preceding the contents of an authenticated string in
/// memory: `len (4)` + `mac (16)`.
const AS_HEADER: u32 = 20;

/// The register file of an authenticated call, as seen by the trap handler.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuthCallRegs {
    /// `R0`: system call number.
    pub nr: u32,
    /// The PC of the `syscall` instruction (the kernel derives this from
    /// the trap, not from a register — it cannot be forged).
    pub call_site: u32,
    /// `R1..=R6`: the ordinary arguments.
    pub args: [u32; MAX_ARGS],
    /// `R7`: the policy descriptor.
    pub pol_des: u32,
    /// `R8`: the basic block id of this call.
    pub block_id: u32,
    /// `R9`: pointer to the predecessor-set AS contents.
    pub pred_set_ptr: u32,
    /// `R10`: pointer to the policy-state cell (`lastBlock ‖ lbMAC`).
    pub lb_ptr: u32,
    /// `R11`: pointer to the 16-byte call MAC.
    pub call_mac_ptr: u32,
    /// `R12`: pointer to the pattern extras block (pattern AS pointers and
    /// proof hints), 0 when no pattern arguments exist.
    pub hint_ptr: u32,
}

/// Read/write access to the trapping process's memory.
pub trait UserMemory {
    /// Reads a 32-bit little-endian word.
    ///
    /// # Errors
    ///
    /// Returns [`Violation::MemoryFault`] if the address is not mapped.
    fn read_u32(&self, addr: u32) -> Result<u32, Violation>;

    /// Reads `len` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Violation::MemoryFault`] if the range is not mapped.
    fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, Violation>;

    /// Writes bytes (used for the policy-state update).
    ///
    /// # Errors
    ///
    /// Returns [`Violation::MemoryFault`] if the range is not mapped.
    fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Violation>;

    /// Reads a NUL-terminated string of at most `max` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Violation::MemoryFault`] on unmapped memory or a missing
    /// terminator.
    fn read_cstr(&self, addr: u32, max: u32) -> Result<Vec<u8>, Violation> {
        let mut out = Vec::new();
        for i in 0..max {
            let word = self.read_bytes(addr + i, 1)?;
            if word[0] == 0 {
                return Ok(out);
            }
            out.push(word[0]);
        }
        Err(Violation::MemoryFault { addr: addr + max })
    }
}

/// Why the kernel rejected a system call. Any of these terminates the
/// process (the paper's fail-stop behaviour) and is logged for the
/// administrator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The call MAC did not match the encoded call: the call was forged or
    /// some MAC-covered property (number, site, descriptor, constrained
    /// argument, AS tuple, block id, state pointer) was tampered with.
    BadCallMac,
    /// The policy descriptor carries conflicting constraint kinds.
    BadDescriptor,
    /// An authenticated string argument's contents did not match its MAC
    /// (e.g. the non-control-data attack that rewrites `/bin/ls` into
    /// `/bin/sh`).
    BadStringMac {
        /// Index of the offending argument.
        arg: usize,
    },
    /// A string/pattern/predecessor-set length field exceeded
    /// [`MAX_AS_LEN`].
    StringTooLong {
        /// Index of the offending argument (`usize::MAX` for the
        /// predecessor set).
        arg: usize,
    },
    /// The pattern AS failed verification or did not parse.
    BadPattern {
        /// Index of the offending argument.
        arg: usize,
    },
    /// The argument did not match its pattern under the supplied hint.
    PatternMismatch {
        /// Index of the offending argument.
        arg: usize,
    },
    /// The predecessor-set bytes were not a whole number of block ids.
    MalformedPredecessorSet,
    /// The policy-state MAC (`lbMAC`) did not verify against the in-kernel
    /// counter: the state was tampered with or replayed.
    BadPolicyState,
    /// `lastBlock` was not in the predecessor set: the program executed
    /// system calls in an order its call graph does not allow (mimicry /
    /// Frankenstein attacks land here).
    NotInPredecessorSet {
        /// The (authentic) last block observed.
        last_block: u32,
    },
    /// A capability-tracked argument was not an active capability.
    CapabilityViolation {
        /// Index of the offending argument.
        arg: usize,
        /// The file descriptor presented.
        fd: u32,
    },
    /// User memory could not be read/written where the call claimed data
    /// lived.
    MemoryFault {
        /// The faulting address.
        addr: u32,
    },
    /// The `(last syscall, this syscall)` transition is not an edge of the
    /// installed syscall-flow digraph (the SFIP tier's check): system
    /// calls executed in an order the program's call graph never produces.
    BadFlowEdge {
        /// Syscall number of the previously verified call
        /// ([`crate::flow::FLOW_START`] at program start).
        from: u16,
        /// Raw trapped syscall number of this call.
        to: u16,
    },
    /// The trap originated from a pc the installer never rewrote: the
    /// `SYSCALL` instruction is a raw gadget outside the authenticated
    /// site set (`.ascsites`), so no per-call policy even exists for it.
    /// Killed before the MAC path — `SYSCALL` is a privilege of rewritten
    /// sites, not a right of arbitrary code.
    UnrewrittenSite {
        /// The pc of the trapping `SYSCALL` instruction.
        pc: u32,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::BadCallMac => write!(f, "call MAC mismatch"),
            Violation::BadDescriptor => write!(f, "malformed policy descriptor"),
            Violation::BadStringMac { arg } => write!(f, "string MAC mismatch on argument {arg}"),
            Violation::StringTooLong { arg } if *arg == usize::MAX => {
                write!(f, "oversized predecessor set")
            }
            Violation::StringTooLong { arg } => write!(f, "oversized string on argument {arg}"),
            Violation::BadPattern { arg } => write!(f, "bad pattern on argument {arg}"),
            Violation::PatternMismatch { arg } => write!(f, "pattern mismatch on argument {arg}"),
            Violation::MalformedPredecessorSet => write!(f, "malformed predecessor set"),
            Violation::BadPolicyState => write!(f, "policy state MAC mismatch"),
            Violation::NotInPredecessorSet { last_block } => {
                write!(
                    f,
                    "control-flow violation: last block {last_block} not a predecessor"
                )
            }
            Violation::CapabilityViolation { arg, fd } => {
                write!(f, "capability violation: argument {arg} fd {fd} not active")
            }
            Violation::MemoryFault { addr } => write!(f, "memory fault at {addr:#x}"),
            Violation::BadFlowEdge { from, to } => {
                write!(
                    f,
                    "flow violation: syscall transition {from} -> {to} not in digraph"
                )
            }
            Violation::UnrewrittenSite { pc } => {
                write!(f, "origin violation: trap from unrewritten site {pc:#x}")
            }
        }
    }
}

impl std::error::Error for Violation {}

impl Violation {
    /// The machine-readable [`ReasonCode`] for this violation (argument
    /// details folded away) — what campaigns and tests classify on instead
    /// of substring-matching the [`Display`](std::fmt::Display) rendering.
    pub fn reason_code(&self) -> ReasonCode {
        match self {
            Violation::BadCallMac => ReasonCode::BadCallMac,
            Violation::BadDescriptor => ReasonCode::BadDescriptor,
            Violation::BadStringMac { .. } => ReasonCode::BadStringMac,
            Violation::StringTooLong { arg } if *arg == usize::MAX => {
                ReasonCode::OversizedPredecessorSet
            }
            Violation::StringTooLong { .. } => ReasonCode::StringTooLong,
            Violation::BadPattern { .. } => ReasonCode::BadPattern,
            Violation::PatternMismatch { .. } => ReasonCode::PatternMismatch,
            Violation::MalformedPredecessorSet => ReasonCode::MalformedPredecessorSet,
            Violation::BadPolicyState => ReasonCode::BadPolicyState,
            Violation::NotInPredecessorSet { .. } => ReasonCode::NotInPredecessorSet,
            Violation::CapabilityViolation { .. } => ReasonCode::CapabilityViolation,
            Violation::MemoryFault { .. } => ReasonCode::MemoryFault,
            Violation::BadFlowEdge { .. } => ReasonCode::BadFlowEdge,
            Violation::UnrewrittenSite { .. } => ReasonCode::UnrewrittenSite,
        }
    }
}

/// Metering data from a successful verification, consumed by the kernel's
/// cycle model.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// AES block-cipher invocations actually performed across all MAC
    /// computations (measured, not estimated — cache hits skip blocks and
    /// are charged accordingly).
    pub aes_blocks: u64,
    /// Total bytes read from user space for string/pattern/set checks.
    pub bytes_checked: u64,
    /// Whether the policy state was updated (control-flow policies only).
    pub state_updated: bool,
    /// Whether the call MAC was accepted from the verified-call cache
    /// (the warm path) rather than recomputed.
    pub cache_hit: bool,
    /// Capability-tracked `(argument index, fd)` pairs that passed.
    pub capability_args: Vec<(usize, u32)>,
}

/// Reads the `{len, mac}` header preceding AS contents at `addr`.
fn read_as_header(
    mem: &dyn UserMemory,
    addr: u32,
    arg: usize,
) -> Result<(u32, [u8; MAC_LEN]), Violation> {
    let header_addr = addr.wrapping_sub(AS_HEADER);
    let len = mem.read_u32(header_addr)?;
    let mac_bytes = mem.read_bytes(header_addr + 4, MAC_LEN as u32)?;
    let mut mac = [0u8; MAC_LEN];
    mac.copy_from_slice(&mac_bytes);
    if len > MAX_AS_LEN {
        return Err(Violation::StringTooLong { arg });
    }
    Ok((len, mac))
}

/// The kernel side of one verification: the key and the per-process state
/// that §3.4's checks run against. Build one per trap and call
/// [`Verifier::verify`].
pub struct Verifier<'a> {
    /// The installation key every MAC is checked under.
    pub key: &'a MacKey,
    /// The in-kernel anti-replay counter the policy-state MAC is bound to.
    pub checker: &'a mut MemoryChecker,
    /// The verified-call cache (the warm path). `None` runs exactly the
    /// cold path. With a cache, a MAC check whose `(message, tag)` pair
    /// byte-matches an earlier fully verified pair is accepted without AES
    /// work; every mismatch falls back to the full CMAC, so the accept set
    /// is the cold path's (see the [`crate::cache`] module docs).
    pub cache: Option<&'a mut VerifyCache>,
    /// The active-descriptor set capability-tracked arguments must be in
    /// (§5.3). `None` when capability tracking is off: every such argument
    /// passes.
    pub caps: Option<&'a CapabilitySet>,
    /// **Test-only** weakening: skip the authenticated-string contents
    /// check (§3.4 step 2), so any bytes pass as long as the `(addr, len,
    /// mac)` tuple still matches the call MAC. This is exactly the hole the
    /// non-control-data attack needs; the fault-injection campaign sets it
    /// to prove its oracle detects a verifier that fails open.
    pub accept_any_string: bool,
}

/// An authenticated blob in user memory: contents address, length, MAC.
type AsBlob = (u32, u32, [u8; MAC_LEN]);

/// The call as the trap presents it: the encoding the call MAC covers,
/// the MAC itself, and each pattern argument's proof hint (which the MAC
/// does not cover).
struct DecodedCall {
    encoded: EncodedCall,
    call_mac: [u8; MAC_LEN],
    hints: [Vec<u32>; MAX_ARGS],
}

/// The key's AES block count and the cache counters when a check starts.
struct CheckStart {
    blocks: u64,
    stats: Option<CacheStats>,
}

impl Verifier<'_> {
    /// Verifies one authenticated system call against its embedded policy.
    ///
    /// Implements §3.4's three steps in order: (1) reconstruct the encoded
    /// call from runtime values and check the call MAC; (2) check the
    /// integrity of every authenticated string argument and pattern, then
    /// the capability bits (§5.3); (3) check the predecessor set, then
    /// check and update the control-flow policy state.
    ///
    /// Every check appends one [`CheckRecord`] to `checks`: kind,
    /// pass/fail, *measured* AES blocks (the key's block counter around the
    /// check, so one call's records partition [`VerifyOutcome::aes_blocks`]
    /// exactly), bytes compared, and the cache decision. The caller owns
    /// the buffer, so a kernel that clears and reuses one allocates nothing
    /// for it per call.
    ///
    /// On success the policy state in user memory has been advanced and
    /// the returned [`VerifyOutcome`] reports the cryptographic work done.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`]; the policy state is then untouched
    /// and the caller kills the process. The failed check's record is
    /// appended first, so the records end with the check that killed the
    /// call (a memory fault reading a check's input kills before that
    /// check records).
    pub fn verify(
        &mut self,
        mem: &mut dyn UserMemory,
        regs: &AuthCallRegs,
        checks: &mut Vec<CheckRecord>,
    ) -> Result<VerifyOutcome, Violation> {
        let blocks_at_entry = self.key.block_ops();
        let call = decode_call(mem, regs)?;
        let cache_hit = self.check_call_mac(&call, checks)?;
        let mut bytes_checked = 0;
        for (i, arg) in &call.encoded.args {
            bytes_checked += match *arg {
                EncodedArg::AuthString { addr, len, mac } => {
                    self.check_string(mem, *i, (addr, len, mac), checks)?
                }
                EncodedArg::Pattern { addr, len, mac } => {
                    let hint = &call.hints[*i];
                    let value = regs.args[*i];
                    self.check_pattern(mem, *i, (addr, len, mac), value, hint, checks)?
                }
                EncodedArg::Immediate(_) | EncodedArg::Capability => 0,
            };
        }
        let capability_args = self.check_capabilities(regs, call.encoded.descriptor, checks)?;
        let state_updated = match call.encoded.pred_set {
            Some(pred_set) => {
                bytes_checked += self.check_control_flow(mem, regs, pred_set, checks)?;
                true
            }
            None => false,
        };
        Ok(VerifyOutcome {
            aes_blocks: self.key.block_ops().wrapping_sub(blocks_at_entry),
            bytes_checked,
            state_updated,
            cache_hit,
            capability_args,
        })
    }

    fn start(&self) -> CheckStart {
        CheckStart {
            blocks: self.key.block_ops(),
            stats: self.cache.as_deref().map(VerifyCache::stats),
        }
    }

    /// The record of a check that began at `start`.
    fn finish(
        &self,
        start: CheckStart,
        kind: CheckKind,
        passed: bool,
        hit: bool,
        bytes: u64,
    ) -> CheckRecord {
        let now = self.cache.as_deref().map(VerifyCache::stats);
        CheckRecord {
            kind,
            passed,
            aes_blocks: self.key.block_ops().wrapping_sub(start.blocks),
            bytes,
            cache: cache_decision(hit, start.stats, now),
        }
    }

    /// §3.4 step 1. Returns whether the cache served the call MAC.
    fn check_call_mac(
        &mut self,
        call: &DecodedCall,
        checks: &mut Vec<CheckRecord>,
    ) -> Result<bool, Violation> {
        let encoding = encode_call(&call.encoded);
        let site = call.encoded.call_site;
        let start = self.start();
        let hit = self
            .cache
            .as_deref_mut()
            .is_some_and(|c| c.check_call(site, &encoding, &call.call_mac));
        let ok = hit || self.key.verify(&encoding, &call.call_mac);
        if ok && !hit {
            if let Some(c) = self.cache.as_deref_mut() {
                c.record_call(site, &encoding, &call.call_mac);
            }
        }
        checks.push(self.finish(start, CheckKind::CallMac, ok, hit, 0));
        if ok {
            Ok(hit)
        } else {
            Err(Violation::BadCallMac)
        }
    }

    /// Checks authenticated contents against their MAC, serving a
    /// byte-identical earlier pair from the cache and remembering a freshly
    /// verified one. `skip_mac` accepts any contents the cache does not
    /// serve. Returns whether the cache served them, `None` on a mismatch.
    fn check_blob(
        &mut self,
        (addr, _, mac): AsBlob,
        contents: &[u8],
        skip_mac: bool,
    ) -> Option<bool> {
        let hit = self
            .cache
            .as_deref_mut()
            .is_some_and(|c| c.check_blob(addr, &mac, contents));
        if !hit && !skip_mac {
            if !self.key.verify(contents, &mac) {
                return None;
            }
            if let Some(c) = self.cache.as_deref_mut() {
                c.record_blob(addr, &mac, contents);
            }
        }
        Some(hit)
    }

    /// §3.4 step 2 for one authenticated string. Returns the bytes read.
    fn check_string(
        &mut self,
        mem: &mut dyn UserMemory,
        arg: usize,
        string: AsBlob,
        checks: &mut Vec<CheckRecord>,
    ) -> Result<u64, Violation> {
        let contents = mem.read_bytes(string.0, string.1)?;
        let bytes = contents.len() as u64;
        let start = self.start();
        let verdict = self.check_blob(string, &contents, self.accept_any_string);
        let kind = CheckKind::AuthString { arg };
        let hit = verdict.unwrap_or(false);
        checks.push(self.finish(start, kind, verdict.is_some(), hit, bytes));
        verdict.ok_or(Violation::BadStringMac { arg })?;
        Ok(bytes)
    }

    /// One pattern argument (§5): the pattern's integrity, its parse, and
    /// the hinted match of the live argument string at `value`, all under
    /// one record. Returns the bytes read.
    fn check_pattern(
        &mut self,
        mem: &mut dyn UserMemory,
        arg: usize,
        pattern: AsBlob,
        value: u32,
        hint: &[u32],
        checks: &mut Vec<CheckRecord>,
    ) -> Result<u64, Violation> {
        let text = mem.read_bytes(pattern.0, pattern.1)?;
        let mut bytes = text.len() as u64;
        let start = self.start();
        let kind = CheckKind::Pattern { arg };
        let Some(hit) = self.check_blob(pattern, &text, false) else {
            checks.push(self.finish(start, kind, false, false, bytes));
            return Err(Violation::BadPattern { arg });
        };
        let parsed = std::str::from_utf8(&text)
            .ok()
            .and_then(|text| Pattern::parse(text).ok());
        let Some(parsed) = parsed else {
            checks.push(self.finish(start, kind, false, hit, bytes));
            return Err(Violation::BadPattern { arg });
        };
        // The actual argument is a C string in user memory.
        let value = mem.read_cstr(value, MAX_AS_LEN)?;
        bytes += value.len() as u64;
        let ok = parsed.match_with_hint(&value, hint);
        checks.push(self.finish(start, kind, ok, hit, bytes));
        if ok {
            Ok(bytes)
        } else {
            Err(Violation::PatternMismatch { arg })
        }
    }

    /// §5.3: every capability-tracked argument must be an active
    /// descriptor. Returns the `(argument, fd)` pairs that passed.
    fn check_capabilities(
        &self,
        regs: &AuthCallRegs,
        descriptor: PolicyDescriptor,
        checks: &mut Vec<CheckRecord>,
    ) -> Result<Vec<(usize, u32)>, Violation> {
        let mut passed = Vec::new();
        for arg in (0..MAX_ARGS).filter(|&i| descriptor.arg_is_capability(i)) {
            let fd = regs.args[arg];
            let ok = self.caps.is_none_or(|caps| caps.contains(fd));
            // A table lookup: no AES, no bytes, and never cached.
            checks.push(CheckRecord {
                kind: CheckKind::Capability { arg },
                passed: ok,
                aes_blocks: 0,
                bytes: 0,
                cache: CacheDecision::Disabled,
            });
            if !ok {
                return Err(Violation::CapabilityViolation { arg, fd });
            }
            passed.push((arg, fd));
        }
        Ok(passed)
    }

    /// §3.4 step 3: the predecessor set's integrity, then the policy
    /// state's MAC and membership, then the counter-advancing update.
    /// Returns the bytes read.
    fn check_control_flow(
        &mut self,
        mem: &mut dyn UserMemory,
        regs: &AuthCallRegs,
        pred_set: AsBlob,
        checks: &mut Vec<CheckRecord>,
    ) -> Result<u64, Violation> {
        let contents = mem.read_bytes(pred_set.0, pred_set.1)?;
        let bytes = contents.len() as u64;
        let start = self.start();
        let verdict = self.check_blob(pred_set, &contents, false);
        let preds = verdict.and_then(|_| SyscallPolicy::parse_predecessor_bytes(&contents));
        let hit = verdict.unwrap_or(false);
        let kind = CheckKind::PredecessorSet;
        checks.push(self.finish(start, kind, preds.is_some(), hit, bytes));
        let preds = preds.ok_or(Violation::MalformedPredecessorSet)?;

        let state_bytes = mem.read_bytes(regs.lb_ptr, POLICY_STATE_LEN as u32)?;
        let state = PolicyState::parse(&state_bytes).expect("exact length read");
        let start = self.start();
        let kind = CheckKind::PolicyState;
        // The state entry is only valid for the current counter epoch: the
        // kernel wrote these exact bytes itself after the last update, so
        // re-verifying them would be redundant AES work. Any divergence —
        // tampered bytes, a different cell, or an advanced counter — takes
        // the full verification below, where forgery and replay die.
        let epoch = self.checker.counter();
        let hit = self
            .cache
            .as_deref_mut()
            .is_some_and(|c| c.check_state(regs.lb_ptr, &state_bytes, epoch));
        if !hit && !self.checker.verify(self.key, &state) {
            checks.push(self.finish(start, kind, false, false, 0));
            return Err(Violation::BadPolicyState);
        }
        if !preds.contains(&state.last_block) {
            checks.push(self.finish(start, kind, false, hit, 0));
            return Err(Violation::NotInPredecessorSet {
                last_block: state.last_block,
            });
        }
        // The counter must advance on every successful control-flow check
        // (it is the anti-replay nonce), so the update always runs.
        let new_state = self.checker.update(self.key, regs.block_id);
        mem.write_bytes(regs.lb_ptr, &new_state.to_bytes())?;
        if let Some(c) = self.cache.as_deref_mut() {
            c.record_state(regs.lb_ptr, new_state.to_bytes(), self.checker.counter());
        }
        checks.push(self.finish(start, kind, true, hit, 0));
        Ok(bytes)
    }
}

/// Reads what the trap presents of the call: the descriptor, the call
/// MAC, each constrained argument's encoding (string and pattern headers,
/// pattern hints from the extras block at `R12`), and the predecessor-set
/// header. Every length read from user memory is bounded here.
fn decode_call(mem: &dyn UserMemory, regs: &AuthCallRegs) -> Result<DecodedCall, Violation> {
    let descriptor = PolicyDescriptor::from_bits(regs.pol_des);
    if descriptor.validate().is_err() {
        return Err(Violation::BadDescriptor);
    }
    let mac_bytes = mem.read_bytes(regs.call_mac_ptr, MAC_LEN as u32)?;
    let mut call_mac = [0u8; MAC_LEN];
    call_mac.copy_from_slice(&mac_bytes);

    // Pattern extras block: for each pattern argument in ascending order,
    // {pattern_as_ptr u32, hint_len u32, hint[hint_len] u32}.
    let mut extras_cursor = regs.hint_ptr;
    let mut hints: [Vec<u32>; MAX_ARGS] = Default::default();
    let mut args = Vec::new();
    for i in 0..MAX_ARGS {
        if descriptor.arg_is_immediate(i) {
            args.push((i, EncodedArg::Immediate(regs.args[i])));
        } else if descriptor.arg_is_string(i) {
            let addr = regs.args[i];
            let (len, mac) = read_as_header(mem, addr, i)?;
            args.push((i, EncodedArg::AuthString { addr, len, mac }));
        } else if descriptor.arg_is_pattern(i) {
            let addr = mem.read_u32(extras_cursor)?;
            let hint_len = mem.read_u32(extras_cursor + 4)?;
            if hint_len > 64 {
                return Err(Violation::BadPattern { arg: i });
            }
            for h in 0..hint_len {
                hints[i].push(mem.read_u32(extras_cursor + 8 + 4 * h)?);
            }
            extras_cursor += 8 + 4 * hint_len;
            let (len, mac) = read_as_header(mem, addr, i)?;
            args.push((i, EncodedArg::Pattern { addr, len, mac }));
        } else if descriptor.arg_is_capability(i) {
            args.push((i, EncodedArg::Capability));
        }
    }

    let control_flow = descriptor.control_flow_constrained();
    let pred_set = if control_flow {
        let (len, mac) = read_as_header(mem, regs.pred_set_ptr, usize::MAX)?;
        Some((regs.pred_set_ptr, len, mac))
    } else {
        None
    };
    let encoded = EncodedCall {
        syscall_nr: regs.nr as u16,
        descriptor,
        call_site: regs.call_site,
        block_id: regs.block_id,
        args,
        pred_set,
        lb_ptr: control_flow.then_some(regs.lb_ptr),
    };
    Ok(DecodedCall {
        encoded,
        call_mac,
        hints,
    })
}

/// Derives a check's cache decision from the cache's counters around it
/// (`None` means no cache was attached).
fn cache_decision(
    hit: bool,
    before: Option<CacheStats>,
    after: Option<CacheStats>,
) -> CacheDecision {
    match (before, after) {
        (Some(b), Some(a)) => {
            if hit {
                CacheDecision::Hit
            } else if a.scrubs > b.scrubs {
                CacheDecision::Scrub
            } else if a.stale_misses > b.stale_misses {
                CacheDecision::Fallback
            } else {
                CacheDecision::Cold
            }
        }
        _ => CacheDecision::Disabled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asc_crypto::AuthenticatedString;
    use std::collections::HashMap;

    /// A sparse mock memory for testing the verifier in isolation.
    #[derive(Default)]
    struct MockMem {
        bytes: HashMap<u32, u8>,
    }

    impl MockMem {
        fn put(&mut self, addr: u32, data: &[u8]) {
            for (i, b) in data.iter().enumerate() {
                self.bytes.insert(addr + i as u32, *b);
            }
        }
    }

    impl UserMemory for MockMem {
        fn read_u32(&self, addr: u32) -> Result<u32, Violation> {
            let b = self.read_bytes(addr, 4)?;
            Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
        }
        fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, Violation> {
            (0..len)
                .map(|i| {
                    self.bytes
                        .get(&(addr + i))
                        .copied()
                        .ok_or(Violation::MemoryFault { addr: addr + i })
                })
                .collect()
        }
        fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Violation> {
            self.put(addr, bytes);
            Ok(())
        }
    }

    fn key() -> MacKey {
        MacKey::from_seed(1234)
    }

    /// One cold verification (no cache, no capability tracking).
    fn verify_cold(
        key: &MacKey,
        checker: &mut MemoryChecker,
        mem: &mut MockMem,
        regs: &AuthCallRegs,
    ) -> Result<VerifyOutcome, Violation> {
        verify_cached(key, checker, None, mem, regs)
    }

    /// One verification against `cache` (`None` is the cold path).
    fn verify_cached(
        key: &MacKey,
        checker: &mut MemoryChecker,
        cache: Option<&mut VerifyCache>,
        mem: &mut MockMem,
        regs: &AuthCallRegs,
    ) -> Result<VerifyOutcome, Violation> {
        let mut verifier = Verifier {
            key,
            checker,
            cache,
            caps: None,
            accept_any_string: false,
        };
        verifier.verify(mem, regs, &mut Vec::new())
    }

    const MAC_ADDR: u32 = 0x9000;
    const AS_ADDR: u32 = 0x9100; // contents address (header 20 bytes before)
    const PS_ADDR: u32 = 0x9200; // predecessor-set contents address
    const LB_ADDR: u32 = 0x9300;
    const EXTRA_ADDR: u32 = 0x9400;
    const PAT_ADDR: u32 = 0x9500;

    /// Install an AS blob so that its *contents* start at `contents_addr`.
    fn put_as(mem: &mut MockMem, contents_addr: u32, s: &AuthenticatedString) {
        mem.put(contents_addr - AS_HEADER, &s.to_bytes());
    }

    /// Builds a fully authenticated open("/etc/motd", 0) call with control
    /// flow {0, 7}, block 9, site 0x1040, installing everything into the
    /// mock memory the way the installer would into the binary.
    fn setup_call(mem: &mut MockMem) -> AuthCallRegs {
        let k = key();
        let path = AuthenticatedString::build(&k, b"/etc/motd".to_vec());
        put_as(mem, AS_ADDR, &path);
        let preds: Vec<u8> = [0u32, 7].iter().flat_map(|p| p.to_le_bytes()).collect();
        let ps = AuthenticatedString::build(&k, preds);
        put_as(mem, PS_ADDR, &ps);
        let state = MemoryChecker::initial_state(&k);
        mem.put(LB_ADDR, &state.to_bytes());

        let descriptor = PolicyDescriptor::new()
            .with_call_site()
            .with_control_flow()
            .with_string_arg(0)
            .with_immediate_arg(1);
        let encoded = EncodedCall {
            syscall_nr: 5,
            descriptor,
            call_site: 0x1040,
            block_id: 9,
            args: vec![
                (
                    0,
                    EncodedArg::AuthString {
                        addr: AS_ADDR,
                        len: 9,
                        mac: *path.mac(),
                    },
                ),
                (1, EncodedArg::Immediate(0)),
            ],
            pred_set: Some((PS_ADDR, 8, *ps.mac())),
            lb_ptr: Some(LB_ADDR),
        };
        mem.put(MAC_ADDR, &encoded.mac(&k));

        AuthCallRegs {
            nr: 5,
            call_site: 0x1040,
            args: [AS_ADDR, 0, 0, 0, 0, 0],
            pol_des: descriptor.bits(),
            block_id: 9,
            pred_set_ptr: PS_ADDR,
            lb_ptr: LB_ADDR,
            call_mac_ptr: MAC_ADDR,
            hint_ptr: 0,
        }
    }

    #[test]
    fn compliant_call_passes_and_updates_state() {
        let mut mem = MockMem::default();
        let regs = setup_call(&mut mem);
        let mut checker = MemoryChecker::new();
        let outcome = verify_cold(&key(), &mut checker, &mut mem, &regs).unwrap();
        assert!(outcome.state_updated);
        assert!(outcome.aes_blocks >= 5);
        assert_eq!(checker.counter(), 1);
        // State now holds block 9.
        let state = PolicyState::parse(&mem.read_bytes(LB_ADDR, 20).unwrap()).unwrap();
        assert_eq!(state.last_block, 9);
        assert!(checker.verify(&key(), &state));
    }

    #[test]
    fn second_call_respects_new_state() {
        let mut mem = MockMem::default();
        let regs = setup_call(&mut mem);
        let mut checker = MemoryChecker::new();
        verify_cold(&key(), &mut checker, &mut mem, &regs).unwrap();
        // Re-running the same call: its predecessor set {0, 7} does not
        // contain 9 (the block we just recorded) -> control-flow violation.
        let err = verify_cold(&key(), &mut checker, &mut mem, &regs).unwrap_err();
        assert_eq!(err, Violation::NotInPredecessorSet { last_block: 9 });
    }

    #[test]
    fn tampered_syscall_number_fails() {
        let mut mem = MockMem::default();
        let mut regs = setup_call(&mut mem);
        regs.nr = 11; // try to turn open into execve
        let err = verify_cold(&key(), &mut MemoryChecker::new(), &mut mem, &regs).unwrap_err();
        assert_eq!(err, Violation::BadCallMac);
    }

    #[test]
    fn tampered_call_site_fails() {
        let mut mem = MockMem::default();
        let mut regs = setup_call(&mut mem);
        regs.call_site += 8; // call from a different (injected) location
        assert_eq!(
            verify_cold(&key(), &mut MemoryChecker::new(), &mut mem, &regs),
            Err(Violation::BadCallMac)
        );
    }

    #[test]
    fn tampered_immediate_arg_fails() {
        let mut mem = MockMem::default();
        let mut regs = setup_call(&mut mem);
        regs.args[1] = 2; // open flags O_RDWR instead of O_RDONLY
        assert_eq!(
            verify_cold(&key(), &mut MemoryChecker::new(), &mut mem, &regs),
            Err(Violation::BadCallMac)
        );
    }

    #[test]
    fn relaxed_descriptor_fails() {
        let mut mem = MockMem::default();
        let mut regs = setup_call(&mut mem);
        // Attacker clears all constraint bits hoping for a free pass.
        regs.pol_des = PolicyDescriptor::new().with_call_site().bits();
        assert_eq!(
            verify_cold(&key(), &mut MemoryChecker::new(), &mut mem, &regs),
            Err(Violation::BadCallMac)
        );
    }

    #[test]
    fn non_control_data_attack_fails() {
        // Overwrite the string contents in memory (the AS header stays).
        let mut mem = MockMem::default();
        let regs = setup_call(&mut mem);
        mem.put(AS_ADDR, b"/etc/pass"); // same length, different contents
        assert_eq!(
            verify_cold(&key(), &mut MemoryChecker::new(), &mut mem, &regs),
            Err(Violation::BadStringMac { arg: 0 })
        );
    }

    #[test]
    fn retargeted_string_pointer_fails() {
        // Point the argument at a *different* valid AS (here: the pred
        // set, which is also a valid AS): the call MAC covers the address,
        // so this fails at step 1.
        let mut mem = MockMem::default();
        let mut regs = setup_call(&mut mem);
        regs.args[0] = PS_ADDR;
        assert_eq!(
            verify_cold(&key(), &mut MemoryChecker::new(), &mut mem, &regs),
            Err(Violation::BadCallMac)
        );
    }

    #[test]
    fn oversized_length_field_rejected_before_reading() {
        let mut mem = MockMem::default();
        let regs = setup_call(&mut mem);
        // Attacker rewrites the AS length field to a huge value (DoS try).
        mem.put(AS_ADDR - AS_HEADER, &(MAX_AS_LEN + 1).to_le_bytes());
        assert_eq!(
            verify_cold(&key(), &mut MemoryChecker::new(), &mut mem, &regs),
            Err(Violation::StringTooLong { arg: 0 })
        );
    }

    #[test]
    fn replayed_policy_state_fails() {
        let mut mem = MockMem::default();
        let regs = setup_call(&mut mem);
        let mut checker = MemoryChecker::new();
        let snapshot = mem.read_bytes(LB_ADDR, 20).unwrap();
        verify_cold(&key(), &mut checker, &mut mem, &regs).unwrap();
        // Attacker restores the pre-call state and replays the call.
        mem.put(LB_ADDR, &snapshot);
        assert_eq!(
            verify_cold(&key(), &mut checker, &mut mem, &regs),
            Err(Violation::BadPolicyState)
        );
    }

    #[test]
    fn forged_last_block_fails() {
        let mut mem = MockMem::default();
        let regs = setup_call(&mut mem);
        let mut checker = MemoryChecker::new();
        // Attacker writes lastBlock = 7 (which IS in the pred set) without
        // being able to recompute lbMAC.
        let mut state_bytes = mem.read_bytes(LB_ADDR, 20).unwrap();
        state_bytes[0] = 7;
        mem.put(LB_ADDR, &state_bytes);
        assert_eq!(
            verify_cold(&key(), &mut checker, &mut mem, &regs),
            Err(Violation::BadPolicyState)
        );
    }

    #[test]
    fn capability_check_consulted() {
        let mut mem = MockMem::default();
        let k = key();
        // read(fd=4, buf, n) with fd capability-tracked.
        let descriptor = PolicyDescriptor::new()
            .with_call_site()
            .with_capability_arg(0);
        let encoded = EncodedCall {
            syscall_nr: 3,
            descriptor,
            call_site: 0x2000,
            block_id: 1,
            args: vec![(0, EncodedArg::Capability)],
            pred_set: None,
            lb_ptr: None,
        };
        mem.put(MAC_ADDR, &encoded.mac(&k));
        let regs = AuthCallRegs {
            nr: 3,
            call_site: 0x2000,
            args: [4, 0, 0, 0, 0, 0],
            pol_des: descriptor.bits(),
            block_id: 1,
            pred_set_ptr: 0,
            lb_ptr: 0,
            call_mac_ptr: MAC_ADDR,
            hint_ptr: 0,
        };
        let allowed: CapabilitySet = [4u32].into_iter().collect();
        let mut checker = MemoryChecker::new();
        let mut verifier = Verifier {
            key: &k,
            checker: &mut checker,
            cache: None,
            caps: Some(&allowed),
            accept_any_string: false,
        };
        let mut checks = Vec::new();
        let out = verifier.verify(&mut mem, &regs, &mut checks).unwrap();
        assert_eq!(out.capability_args, vec![(0, 4)]);
        assert_eq!(checks.len(), 2, "call MAC and capability records");
        assert_eq!(checks[1].kind, CheckKind::Capability { arg: 0 });
        assert!(checks[1].passed);

        let mut regs2 = regs;
        regs2.args[0] = 5;
        assert_eq!(
            verifier.verify(&mut mem, &regs2, &mut Vec::new()),
            Err(Violation::CapabilityViolation { arg: 0, fd: 5 })
        );
    }

    #[test]
    fn pattern_argument_verifies_with_hint() {
        let mut mem = MockMem::default();
        let k = key();
        let pattern = AuthenticatedString::build(&k, b"/tmp/{foo,bar}*baz".to_vec());
        put_as(&mut mem, PAT_ADDR, &pattern);
        // The runtime argument string (dynamic, not MAC'd):
        const ARG_ADDR: u32 = 0x9600;
        mem.put(ARG_ADDR, b"/tmp/foofoobaz\0");
        // Extras block: pattern ptr, hint_len=2, hint {0, 3}.
        let mut extras = Vec::new();
        extras.extend_from_slice(&PAT_ADDR.to_le_bytes());
        extras.extend_from_slice(&2u32.to_le_bytes());
        extras.extend_from_slice(&0u32.to_le_bytes());
        extras.extend_from_slice(&3u32.to_le_bytes());
        mem.put(EXTRA_ADDR, &extras);

        let descriptor = PolicyDescriptor::new().with_call_site().with_pattern_arg(0);
        let encoded = EncodedCall {
            syscall_nr: 5,
            descriptor,
            call_site: 0x3000,
            block_id: 2,
            args: vec![(
                0,
                EncodedArg::Pattern {
                    addr: PAT_ADDR,
                    len: 18,
                    mac: *pattern.mac(),
                },
            )],
            pred_set: None,
            lb_ptr: None,
        };
        mem.put(MAC_ADDR, &encoded.mac(&k));
        let regs = AuthCallRegs {
            nr: 5,
            call_site: 0x3000,
            args: [ARG_ADDR, 0, 0, 0, 0, 0],
            pol_des: descriptor.bits(),
            block_id: 2,
            pred_set_ptr: 0,
            lb_ptr: 0,
            call_mac_ptr: MAC_ADDR,
            hint_ptr: EXTRA_ADDR,
        };
        verify_cold(&k, &mut MemoryChecker::new(), &mut mem, &regs).unwrap();

        // A non-matching argument fails even with a "creative" hint.
        mem.put(ARG_ADDR, b"/etc/passwd\0\0\0\0");
        let err = verify_cold(&k, &mut MemoryChecker::new(), &mut mem, &regs).unwrap_err();
        assert_eq!(err, Violation::PatternMismatch { arg: 0 });
    }

    #[test]
    fn conflicting_descriptor_rejected() {
        let mut mem = MockMem::default();
        let regs = AuthCallRegs {
            nr: 1,
            call_site: 0,
            args: [0; 6],
            pol_des: PolicyDescriptor::new()
                .with_immediate_arg(0)
                .with_string_arg(0)
                .bits(),
            block_id: 0,
            pred_set_ptr: 0,
            lb_ptr: 0,
            call_mac_ptr: 0,
            hint_ptr: 0,
        };
        assert_eq!(
            verify_cold(&key(), &mut MemoryChecker::new(), &mut mem, &regs),
            Err(Violation::BadDescriptor)
        );
    }

    #[test]
    fn oversized_hint_length_rejected() {
        // An attacker-controlled extras block claiming a gigantic hint
        // must be rejected before the kernel loops over it.
        let mut mem = MockMem::default();
        let k = key();
        let pattern = AuthenticatedString::build(&k, b"/tmp/*".to_vec());
        put_as(&mut mem, PAT_ADDR, &pattern);
        let mut extras = Vec::new();
        extras.extend_from_slice(&PAT_ADDR.to_le_bytes());
        extras.extend_from_slice(&1000u32.to_le_bytes()); // absurd hint_len
        mem.put(EXTRA_ADDR, &extras);
        let descriptor = PolicyDescriptor::new().with_call_site().with_pattern_arg(0);
        let regs = AuthCallRegs {
            nr: 5,
            call_site: 0x3000,
            args: [0x9600, 0, 0, 0, 0, 0],
            pol_des: descriptor.bits(),
            block_id: 2,
            pred_set_ptr: 0,
            lb_ptr: 0,
            call_mac_ptr: MAC_ADDR,
            hint_ptr: EXTRA_ADDR,
        };
        mem.put(MAC_ADDR, &[0u8; 16]);
        assert_eq!(
            verify_cold(&k, &mut MemoryChecker::new(), &mut mem, &regs),
            Err(Violation::BadPattern { arg: 0 })
        );
    }

    #[test]
    fn high_bits_of_syscall_number_are_harmless() {
        // R0 = 0x7_0005: both the encoding and the dispatcher truncate to
        // u16, so the MAC still matches and the *same* call executes — no
        // confusion is possible between verification and dispatch.
        let mut mem = MockMem::default();
        let mut regs = setup_call(&mut mem);
        regs.nr = 0x0007_0005;
        let out = verify_cold(&key(), &mut MemoryChecker::new(), &mut mem, &regs);
        assert!(out.is_ok(), "{out:?}");
    }

    #[test]
    fn swapped_as_headers_detected() {
        // Attacker swaps the {len,mac} header of the path AS with the one
        // from the predecessor set (both authentic, wrong pairing).
        let mut mem = MockMem::default();
        let regs = setup_call(&mut mem);
        let ps_header = mem.read_bytes(PS_ADDR - AS_HEADER, 20).unwrap();
        mem.put(AS_ADDR - AS_HEADER, &ps_header);
        let err = verify_cold(&key(), &mut MemoryChecker::new(), &mut mem, &regs).unwrap_err();
        // The call MAC covers the (addr, len, mac) tuple, so the forgery
        // dies at step 1.
        assert_eq!(err, Violation::BadCallMac);
    }

    /// A repeatable (no control flow) call: getpid-style with one
    /// authenticated string argument, so both the call MAC and a blob are
    /// exercised on every verification.
    fn setup_repeatable_call(mem: &mut MockMem) -> AuthCallRegs {
        let k = key();
        let path = AuthenticatedString::build(&k, b"/etc/motd".to_vec());
        put_as(mem, AS_ADDR, &path);
        let descriptor = PolicyDescriptor::new().with_call_site().with_string_arg(0);
        let encoded = EncodedCall {
            syscall_nr: 5,
            descriptor,
            call_site: 0x1040,
            block_id: 9,
            args: vec![(
                0,
                EncodedArg::AuthString {
                    addr: AS_ADDR,
                    len: 9,
                    mac: *path.mac(),
                },
            )],
            pred_set: None,
            lb_ptr: None,
        };
        mem.put(MAC_ADDR, &encoded.mac(&k));
        AuthCallRegs {
            nr: 5,
            call_site: 0x1040,
            args: [AS_ADDR, 0, 0, 0, 0, 0],
            pol_des: descriptor.bits(),
            block_id: 9,
            pred_set_ptr: 0,
            lb_ptr: 0,
            call_mac_ptr: MAC_ADDR,
            hint_ptr: 0,
        }
    }

    #[test]
    fn warm_path_skips_all_aes_for_repeated_call() {
        let mut mem = MockMem::default();
        let regs = setup_repeatable_call(&mut mem);
        let mut checker = MemoryChecker::new();
        let mut cache = VerifyCache::new();
        let k = key();
        let cold = verify_cached(&k, &mut checker, Some(&mut cache), &mut mem, &regs).unwrap();
        assert!(!cold.cache_hit);
        assert!(cold.aes_blocks >= 2, "call MAC + string MAC");
        let warm = verify_cached(&k, &mut checker, Some(&mut cache), &mut mem, &regs).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.aes_blocks, 0, "identical call: no AES at all");
        assert_eq!(
            warm.bytes_checked, cold.bytes_checked,
            "memory is still re-read"
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().blob_hits, 1);
    }

    #[test]
    fn warm_path_still_catches_rewritten_string() {
        // The non-control-data attack performed *after* the cache is warm:
        // the blob comparison misses, the full CMAC runs, and the call
        // dies exactly like the cold path.
        let mut mem = MockMem::default();
        let regs = setup_repeatable_call(&mut mem);
        let mut checker = MemoryChecker::new();
        let mut cache = VerifyCache::new();
        let k = key();
        verify_cached(&k, &mut checker, Some(&mut cache), &mut mem, &regs).unwrap();
        mem.put(AS_ADDR, b"/etc/pass");
        assert_eq!(
            verify_cached(&k, &mut checker, Some(&mut cache), &mut mem, &regs),
            Err(Violation::BadStringMac { arg: 0 })
        );
    }

    #[test]
    fn warm_path_still_catches_tampered_registers() {
        let mut mem = MockMem::default();
        let regs = setup_repeatable_call(&mut mem);
        let mut checker = MemoryChecker::new();
        let mut cache = VerifyCache::new();
        let k = key();
        verify_cached(&k, &mut checker, Some(&mut cache), &mut mem, &regs).unwrap();
        let mut forged = regs;
        forged.nr = 11; // execve from the cached open site
        assert_eq!(
            verify_cached(&k, &mut checker, Some(&mut cache), &mut mem, &forged),
            Err(Violation::BadCallMac)
        );
    }

    #[test]
    fn control_flow_warm_path_charges_only_the_update() {
        // A self-loop so the same call is control-flow-legal twice.
        let mut mem = MockMem::default();
        let k = key();
        let preds: Vec<u8> = [0u32, 9].iter().flat_map(|p| p.to_le_bytes()).collect();
        let ps = AuthenticatedString::build(&k, preds);
        put_as(&mut mem, PS_ADDR, &ps);
        mem.put(LB_ADDR, &MemoryChecker::initial_state(&k).to_bytes());
        let descriptor = PolicyDescriptor::new().with_call_site().with_control_flow();
        let encoded = EncodedCall {
            syscall_nr: 20,
            descriptor,
            call_site: 0x1040,
            block_id: 9,
            args: vec![],
            pred_set: Some((PS_ADDR, 8, *ps.mac())),
            lb_ptr: Some(LB_ADDR),
        };
        mem.put(MAC_ADDR, &encoded.mac(&k));
        let regs = AuthCallRegs {
            nr: 20,
            call_site: 0x1040,
            args: [0; 6],
            pol_des: descriptor.bits(),
            block_id: 9,
            pred_set_ptr: PS_ADDR,
            lb_ptr: LB_ADDR,
            call_mac_ptr: MAC_ADDR,
            hint_ptr: 0,
        };
        let mut checker = MemoryChecker::new();
        let mut cache = VerifyCache::new();
        let cold = verify_cached(&k, &mut checker, Some(&mut cache), &mut mem, &regs).unwrap();
        assert!(
            cold.aes_blocks >= 4,
            "call MAC, pred set, state verify, state update"
        );
        let warm = verify_cached(&k, &mut checker, Some(&mut cache), &mut mem, &regs).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(
            warm.aes_blocks, 1,
            "only the counter-advancing state update runs AES"
        );
        assert!(
            warm.aes_blocks * 2 <= cold.aes_blocks,
            "warm is at least 50% cheaper"
        );
        assert_eq!(cache.stats().state_hits, 1);
    }

    #[test]
    fn stale_cache_replay_of_old_state_still_dies() {
        // The stale-cache exploit: warm the cache, snapshot the policy
        // state, let the counter advance, restore the snapshot, replay.
        // The cached state entry is epoch-bound, so the comparison misses
        // and the full check rejects the replayed bytes.
        let mut mem = MockMem::default();
        let regs = setup_call(&mut mem);
        let mut checker = MemoryChecker::new();
        let mut cache = VerifyCache::new();
        let k = key();
        let snapshot = mem.read_bytes(LB_ADDR, 20).unwrap();
        verify_cached(&k, &mut checker, Some(&mut cache), &mut mem, &regs).unwrap();
        mem.put(LB_ADDR, &snapshot);
        assert_eq!(
            verify_cached(&k, &mut checker, Some(&mut cache), &mut mem, &regs),
            Err(Violation::BadPolicyState)
        );
    }

    #[test]
    fn cached_and_cold_paths_agree_on_acceptance() {
        // Differential check: for the standard call and a pile of forgeries,
        // a warm cache and no cache must return the same verdict.
        let tamper: &[fn(&mut MockMem, &mut AuthCallRegs)] = &[
            |_, r| r.nr = 11,
            |_, r| r.call_site ^= 4,
            |_, r| r.block_id ^= 1,
            |m, _| m.put(AS_ADDR, b"/etc/pass"),
            |m, _| {
                let bad = [0xffu8; 16];
                m.put(MAC_ADDR, &bad);
            },
            |_, _| {}, // the untampered call
        ];
        for f in tamper {
            let mut cold_mem = MockMem::default();
            let mut cold_regs = setup_call(&mut cold_mem);
            let mut warm_mem = MockMem::default();
            let mut warm_regs = setup_call(&mut warm_mem);
            let k = key();
            let mut warm_checker = MemoryChecker::new();
            let mut cache = VerifyCache::new();
            // Warm the cache with one legitimate call, then reset state so
            // both runs see the same control-flow position.
            verify_cached(
                &k,
                &mut warm_checker,
                Some(&mut cache),
                &mut warm_mem,
                &warm_regs,
            )
            .unwrap();
            let mut warm_mem = MockMem::default();
            let mut warm_regs2 = setup_call(&mut warm_mem);
            f(&mut cold_mem, &mut cold_regs);
            f(&mut warm_mem, &mut warm_regs2);
            warm_regs = warm_regs2;
            let cold = verify_cold(&k, &mut MemoryChecker::new(), &mut cold_mem, &cold_regs);
            let warm = verify_cached(
                &k,
                &mut MemoryChecker::new(),
                Some(&mut cache),
                &mut warm_mem,
                &warm_regs,
            );
            assert_eq!(cold.is_ok(), warm.is_ok(), "verdicts diverged");
            if let (Err(c), Err(w)) = (&cold, &warm) {
                assert_eq!(c, w, "violations diverged");
            }
        }
    }

    #[test]
    fn unmapped_mac_pointer_is_memory_fault() {
        let mut mem = MockMem::default();
        let regs = AuthCallRegs {
            nr: 1,
            call_site: 0,
            args: [0; 6],
            pol_des: PolicyDescriptor::new().with_call_site().bits(),
            block_id: 0,
            pred_set_ptr: 0,
            lb_ptr: 0,
            call_mac_ptr: 0xdead_0000,
            hint_ptr: 0,
        };
        assert!(matches!(
            verify_cold(&key(), &mut MemoryChecker::new(), &mut mem, &regs),
            Err(Violation::MemoryFault { .. })
        ));
    }
}
