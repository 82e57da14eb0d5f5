//! Paged, lazily zeroed memory with page-granular protection and a
//! per-page decode cache.

use std::ops::Range;

use asc_isa::{DecodeError, Instruction, INSTR_LEN};
use asc_object::{Binary, SectionFlags};

/// Page size for protection granularity.
pub const PAGE_SIZE: u32 = 0x1000;

/// Per-page access permissions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PageFlags(u8);

impl PageFlags {
    /// No access (unmapped).
    pub const NONE: PageFlags = PageFlags(0);
    /// Readable.
    pub const R: PageFlags = PageFlags(1);
    /// Readable + writable.
    pub const RW: PageFlags = PageFlags(1 | 2);
    /// Readable + executable.
    pub const RX: PageFlags = PageFlags(1 | 4);
    /// Readable + writable + executable (the stack).
    pub const RWX: PageFlags = PageFlags(1 | 2 | 4);

    /// Whether reads are allowed.
    pub fn readable(self) -> bool {
        self.0 & 1 != 0
    }

    /// Whether writes are allowed.
    pub fn writable(self) -> bool {
        self.0 & 2 != 0
    }

    /// Whether instruction fetch is allowed.
    pub fn executable(self) -> bool {
        self.0 & 4 != 0
    }

    /// Whether the page is mapped at all.
    pub fn mapped(self) -> bool {
        self.0 != 0
    }

    /// Converts section flags to page flags.
    pub fn from_section(flags: SectionFlags) -> PageFlags {
        let mut bits = 0;
        if flags.contains(SectionFlags::READ) {
            bits |= 1;
        }
        if flags.contains(SectionFlags::WRITE) {
            bits |= 2;
        }
        if flags.contains(SectionFlags::EXEC) {
            bits |= 4;
        }
        PageFlags(bits)
    }
}

/// An access violation or out-of-range access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemFault {
    /// Address beyond the end of physical memory.
    OutOfRange {
        /// The faulting address.
        addr: u32,
    },
    /// Read from a non-readable or unmapped page.
    NoRead {
        /// The faulting address.
        addr: u32,
    },
    /// Write to a non-writable or unmapped page.
    NoWrite {
        /// The faulting address.
        addr: u32,
    },
    /// Instruction fetch from a non-executable or unmapped page.
    NoExec {
        /// The faulting address.
        addr: u32,
    },
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemFault::OutOfRange { addr } => write!(f, "address {addr:#x} out of range"),
            MemFault::NoRead { addr } => write!(f, "read fault at {addr:#x}"),
            MemFault::NoWrite { addr } => write!(f, "write fault at {addr:#x}"),
            MemFault::NoExec { addr } => write!(f, "exec fault at {addr:#x}"),
        }
    }
}

impl std::error::Error for MemFault {}

/// Bytes per page.
const PAGE_BYTES: usize = PAGE_SIZE as usize;

/// Instruction slots per page (instructions are 8-aligned, so an aligned
/// fetch never straddles a page).
const SLOTS: usize = PAGE_BYTES / INSTR_LEN;

/// What every mapped but never-written page reads as.
static ZERO_PAGE: [u8; PAGE_BYTES] = [0; PAGE_BYTES];

/// One resident page: its bytes plus a lazily filled decode cache.
#[derive(Clone)]
struct Page {
    bytes: [u8; PAGE_BYTES],
    /// The decoded instruction in each 8-aligned slot, filled on first
    /// fetch. Dropped by every write to the page (see [`Memory::page_mut`]).
    decoded: Option<Box<[Option<Instruction>; SLOTS]>>,
}

/// The simulated physical memory of one process.
///
/// Memory is a table of [`PAGE_SIZE`] pages. A page becomes resident on
/// its first write (or when a section is loaded into it); until then it
/// reads as zeros, so a process costs host memory in proportion to the
/// pages it has touched, whatever the allocator's history. Each resident
/// page caches its decoded instructions for [`Machine::step`]'s fetch;
/// every byte mutation goes through one private path that drops that
/// page's cache, so self-modifying code behaves exactly as if every
/// instruction were decoded afresh.
///
/// [`Machine::step`]: crate::Machine::step
#[derive(Clone)]
pub struct Memory {
    flags: Vec<PageFlags>,
    pages: Vec<Option<Box<Page>>>,
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mapped = self.flags.iter().filter(|p| p.mapped()).count();
        f.debug_struct("Memory")
            .field("size", &self.size())
            .field("mapped_pages", &mapped)
            .field("resident_pages", &self.resident_pages())
            .finish()
    }
}

/// Index of the page holding `addr`, and `addr`'s offset in it.
fn split(addr: u32) -> (usize, usize) {
    ((addr / PAGE_SIZE) as usize, (addr % PAGE_SIZE) as usize)
}

/// Splits the (already checked) range `[addr, addr + len)` at page
/// boundaries: each piece's page, offset in that page, and position in
/// the range.
fn pieces(addr: u32, len: usize) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let (p, off) = split(addr + done as u32);
            let n = (PAGE_BYTES - off).min(len - done);
            done += n;
            (p, off, done - n..done)
        })
    })
}

impl Memory {
    /// Creates zeroed, fully unmapped memory of `size` bytes (rounded up to
    /// a whole number of pages). No page is resident until written.
    pub fn new(size: u32) -> Memory {
        let pages = size.div_ceil(PAGE_SIZE) as usize;
        Memory {
            flags: vec![PageFlags::NONE; pages],
            pages: (0..pages).map(|_| None).collect(),
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u32 {
        (self.flags.len() as u32).wrapping_mul(PAGE_SIZE)
    }

    /// Number of pages backed by host memory (written or loaded at least
    /// once); every other page reads as zeros without costing anything.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Loads a binary's sections and maps their pages; maps a stack of
    /// `stack_size` bytes (RWX — see crate docs) at the top of memory.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::OutOfRange`] if any section or the stack does not
    /// fit.
    pub fn load(&mut self, binary: &Binary, stack_size: u32) -> Result<(), MemFault> {
        for section in binary.sections() {
            let end = section.addr as u64 + section.mem_size.max(section.data.len() as u32) as u64;
            if end > self.size() as u64 {
                return Err(MemFault::OutOfRange {
                    addr: section.addr.wrapping_add(section.mem_size),
                });
            }
            self.copy_in(section.addr, &section.data);
            // Zero-fill the bss tail; pages not yet resident already are.
            let tail = section.addr + section.data.len() as u32;
            let bss = section.mem_size.saturating_sub(section.data.len() as u32);
            for (p, off, range) in pieces(tail, bss as usize) {
                if self.pages[p].is_some() {
                    self.page_mut(p)[off..off + range.len()].fill(0);
                }
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

    /// Initial stack pointer (top of memory, 16-byte aligned).
    pub fn initial_sp(&self) -> u32 {
        self.size() & !0xf
    }

    /// Sets protection for the pages covering `[addr, addr+len)`.
    ///
    /// Needs no decode-cache invalidation: the cache depends only on a
    /// page's bytes, and every fetch re-checks the executable flag.
    pub fn protect(&mut self, addr: u32, len: u32, flags: PageFlags) {
        if len == 0 {
            return;
        }
        let first = (addr / PAGE_SIZE) as usize;
        let last = ((addr + len - 1) / PAGE_SIZE) as usize;
        for p in first..=last.min(self.flags.len() - 1) {
            self.flags[p] = flags;
        }
    }

    /// Protection flags of the page containing `addr`.
    pub fn flags_at(&self, addr: u32) -> PageFlags {
        self.flags
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
            if !need(self.flags[p as usize]) {
                return Err(fault(p * PAGE_SIZE));
            }
        }
        Ok(())
    }

    /// The bytes of page `p`: its own if resident, else the zero page.
    fn page(&self, p: usize) -> &[u8; PAGE_BYTES] {
        match &self.pages[p] {
            Some(page) => &page.bytes,
            None => &ZERO_PAGE,
        }
    }

    /// The only way to mutate page bytes: makes page `p` resident and
    /// drops its decode cache.
    fn page_mut(&mut self, p: usize) -> &mut [u8; PAGE_BYTES] {
        let page = self.pages[p].get_or_insert_with(|| {
            Box::new(Page {
                bytes: [0; PAGE_BYTES],
                decoded: None,
            })
        });
        page.decoded = None;
        &mut page.bytes
    }

    /// Whether the `len`-byte access at `addr` stays inside one page whose
    /// flags satisfy `need` (the common case the fast paths take).
    fn in_page(
        &self,
        addr: u32,
        len: usize,
        need: fn(PageFlags) -> bool,
    ) -> Option<(usize, usize)> {
        let (p, off) = split(addr);
        (off + len <= PAGE_BYTES && self.flags.get(p).is_some_and(|&f| need(f))).then_some((p, off))
    }

    /// Copies already-checked bytes starting at `addr` into `out`.
    fn copy_out(&self, addr: u32, out: &mut [u8]) {
        for (p, off, range) in pieces(addr, out.len()) {
            let n = range.len();
            out[range].copy_from_slice(&self.page(p)[off..off + n]);
        }
    }

    /// Copies `data` to already-checked memory starting at `addr`.
    fn copy_in(&mut self, addr: u32, data: &[u8]) {
        for (p, off, range) in pieces(addr, data.len()) {
            self.page_mut(p)[off..off + range.len()].copy_from_slice(&data[range]);
        }
    }

    /// User-mode byte read.
    pub fn read_u8(&self, addr: u32) -> Result<u8, MemFault> {
        self.check(addr, 1, PageFlags::readable, |a| MemFault::NoRead {
            addr: a,
        })?;
        let (p, off) = split(addr);
        Ok(self.page(p)[off])
    }

    /// User-mode byte write.
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), MemFault> {
        self.check(addr, 1, PageFlags::writable, |a| MemFault::NoWrite {
            addr: a,
        })?;
        let (p, off) = split(addr);
        self.page_mut(p)[off] = value;
        Ok(())
    }

    /// User-mode 32-bit read (little-endian, unaligned allowed).
    pub fn read_u32(&self, addr: u32) -> Result<u32, MemFault> {
        if let Some((p, off)) = self.in_page(addr, 4, PageFlags::readable) {
            let b = &self.page(p)[off..off + 4];
            return Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")));
        }
        self.check(addr, 4, PageFlags::readable, |a| MemFault::NoRead {
            addr: a,
        })?;
        let mut b = [0; 4];
        self.copy_out(addr, &mut b);
        Ok(u32::from_le_bytes(b))
    }

    /// User-mode 32-bit write.
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemFault> {
        if let Some((p, off)) = self.in_page(addr, 4, PageFlags::writable) {
            self.page_mut(p)[off..off + 4].copy_from_slice(&value.to_le_bytes());
            return Ok(());
        }
        self.check(addr, 4, PageFlags::writable, |a| MemFault::NoWrite {
            addr: a,
        })?;
        self.copy_in(addr, &value.to_le_bytes());
        Ok(())
    }

    /// Instruction fetch: returns the 8 instruction bytes at `pc`.
    pub fn fetch(&self, pc: u32) -> Result<[u8; INSTR_LEN], MemFault> {
        self.check(pc, INSTR_LEN as u32, PageFlags::executable, |a| {
            MemFault::NoExec { addr: a }
        })?;
        let mut b = [0; INSTR_LEN];
        self.copy_out(pc, &mut b);
        Ok(b)
    }

    /// Instruction fetch and decode through the page's decode cache: the
    /// same result as decoding [`Memory::fetch`]'s bytes. An aligned `pc`
    /// on a resident executable page hits the cache (or fills its slot);
    /// every other case decodes [`Memory::fetch`]'s bytes.
    pub(crate) fn fetch_decoded(
        &mut self,
        pc: u32,
    ) -> Result<Result<Instruction, DecodeError>, MemFault> {
        if pc.is_multiple_of(INSTR_LEN as u32) {
            if let Some((p, off)) = self.in_page(pc, INSTR_LEN, PageFlags::executable) {
                if let Some(page) = self.pages[p].as_deref_mut() {
                    let cache = page.decoded.get_or_insert_with(|| Box::new([None; SLOTS]));
                    let slot = &mut cache[off / INSTR_LEN];
                    if let Some(instr) = *slot {
                        return Ok(Ok(instr));
                    }
                    let decoded = Instruction::decode(&page.bytes[off..off + INSTR_LEN]);
                    *slot = decoded.as_ref().ok().copied();
                    return Ok(decoded);
                }
            }
        }
        self.fetch(pc).map(|b| Instruction::decode(&b))
    }

    /// Kernel-mode read: bounds-checked but ignores page protection
    /// (the kernel may read any mapped user memory). Returns a copy,
    /// since the range may span pages.
    pub fn kread(&self, addr: u32, len: u32) -> Result<Vec<u8>, MemFault> {
        self.check(addr, len, PageFlags::mapped, |a| MemFault::NoRead {
            addr: a,
        })?;
        let mut out = vec![0; len as usize];
        self.copy_out(addr, &mut out);
        Ok(out)
    }

    /// Kernel-mode 32-bit read.
    pub fn kread_u32(&self, addr: u32) -> Result<u32, MemFault> {
        self.check(addr, 4, PageFlags::mapped, |a| MemFault::NoRead { addr: a })?;
        let mut b = [0; 4];
        self.copy_out(addr, &mut b);
        Ok(u32::from_le_bytes(b))
    }

    /// Kernel-mode write: bounds-checked but ignores page protection (the
    /// kernel updates the policy state inside the application's `.asc`
    /// section and fills output buffers).
    pub fn kwrite(&mut self, addr: u32, data: &[u8]) -> Result<(), MemFault> {
        self.check(addr, data.len() as u32, PageFlags::mapped, |a| {
            MemFault::NoWrite { addr: a }
        })?;
        self.copy_in(addr, data);
        Ok(())
    }

    /// Kernel-mode read of a NUL-terminated string, capped at `max` bytes.
    ///
    /// # Errors
    ///
    /// Faults if the string runs off mapped memory or exceeds `max` bytes
    /// without a terminator (the kernel defends itself against unterminated
    /// strings, as real kernels must).
    pub fn kread_cstr(&self, addr: u32, max: u32) -> Result<Vec<u8>, MemFault> {
        let mut out = Vec::new();
        for i in 0..max {
            let a = addr + i;
            self.check(a, 1, PageFlags::mapped, |a| MemFault::NoRead { addr: a })?;
            let (p, off) = split(a);
            let b = self.page(p)[off];
            if b == 0 {
                return Ok(out);
            }
            out.push(b);
        }
        Err(MemFault::NoRead { addr: addr + max })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asc_object::{Section, SectionFlags};

    fn mem_with_binary() -> Memory {
        let mut b = Binary::new(0x1000);
        b.push_section(Section::new(
            ".text",
            0x1000,
            vec![0xAA; 64],
            SectionFlags::RX,
        ));
        b.push_section(Section::new(
            ".data",
            0x2000,
            vec![1, 2, 3, 4],
            SectionFlags::RW,
        ));
        b.push_section(Section::zeroed(".bss", 0x3000, 32, SectionFlags::RW));
        let mut m = Memory::new(1 << 20);
        m.load(&b, 0x4000).unwrap();
        m
    }

    #[test]
    fn load_and_protection() {
        let m = mem_with_binary();
        assert_eq!(m.read_u8(0x1000).unwrap(), 0xAA);
        assert_eq!(m.read_u32(0x2000).unwrap(), 0x04030201);
        assert_eq!(m.read_u8(0x3000).unwrap(), 0);
        // text not writable
        let mut m2 = m.clone();
        assert_eq!(
            m2.write_u8(0x1000, 0),
            Err(MemFault::NoWrite { addr: 0x1000 })
        );
        // data not executable
        assert_eq!(m.fetch(0x2000), Err(MemFault::NoExec { addr: 0x2000 }));
        // text executable
        assert!(m.fetch(0x1000).is_ok());
        // unmapped page
        assert_eq!(m.read_u8(0x9000), Err(MemFault::NoRead { addr: 0x9000 }));
    }

    #[test]
    fn stack_is_rwx() {
        let m = mem_with_binary();
        let sp = m.initial_sp();
        let stack_page = sp - 8;
        assert!(m.flags_at(stack_page).writable());
        assert!(m.flags_at(stack_page).executable());
    }

    #[test]
    fn out_of_range() {
        let m = mem_with_binary();
        assert!(matches!(
            m.read_u32(m.size() - 2),
            Err(MemFault::OutOfRange { .. })
        ));
        let mut m2 = m.clone();
        assert!(matches!(
            m2.write_u32(m.size(), 1),
            Err(MemFault::OutOfRange { .. })
        ));
    }

    #[test]
    fn kernel_access_ignores_protection() {
        let mut m = mem_with_binary();
        // Kernel can write into .text (e.g. nothing stops it), and read .data.
        m.kwrite(0x1000, &[1, 2, 3]).unwrap();
        assert_eq!(m.kread(0x1000, 3).unwrap(), &[1, 2, 3]);
        // But not unmapped pages.
        assert!(m.kwrite(0x9000, &[0]).is_err());
    }

    #[test]
    fn kread_cstr() {
        let mut m = mem_with_binary();
        m.kwrite(0x2000, b"hi\0").unwrap();
        assert_eq!(m.kread_cstr(0x2000, 100).unwrap(), b"hi");
        // Unterminated within cap:
        m.kwrite(0x2000, &[b'x'; 4]).unwrap();
        assert!(m.kread_cstr(0x2000, 3).is_err());
    }

    #[test]
    fn unaligned_word_access() {
        let mut m = mem_with_binary();
        m.write_u32(0x2001, 0xdead_beef).unwrap();
        assert_eq!(m.read_u32(0x2001).unwrap(), 0xdead_beef);
    }

    #[test]
    fn cross_page_check() {
        let m = mem_with_binary();
        // A 4-byte read straddling the .bss page into unmapped space.
        let boundary = 0x3000 + 0x1000 - 2;
        assert!(m.read_u32(boundary).is_err());
        // Whereas straddling two mapped readable pages succeeds.
        assert!(m.read_u32(0x1000 + 0x1000 - 2).is_ok());
    }
}
