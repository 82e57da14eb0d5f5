//! Seeded property: the paged [`Memory`] is observationally identical to
//! the flat reference memory.
//!
//! Random sequences of user reads and writes, fetches, kernel reads and
//! writes, protection changes, loads and clones run against both
//! implementations; every value and every [`MemFault`] must agree.
//! Addresses are biased toward page boundaries, unaligned offsets, the
//! last page, the end of memory, and `u32::MAX - k`.

mod reference;

use std::collections::BTreeSet;

use asc_object::{Binary, Section, SectionFlags};
use asc_testkit::Rng;
use asc_vm::{Memory, PageFlags, PAGE_SIZE};
use reference::FlatMemory;

const FLAGS: [PageFlags; 5] = [
    PageFlags::NONE,
    PageFlags::R,
    PageFlags::RW,
    PageFlags::RX,
    PageFlags::RWX,
];

/// One implementation pair plus the pages the model says are resident.
#[derive(Clone)]
struct Pair {
    paged: Memory,
    flat: FlatMemory,
    written: BTreeSet<u32>,
}

impl Pair {
    fn new(size: u32) -> Pair {
        Pair {
            paged: Memory::new(size),
            flat: FlatMemory::new(size),
            written: BTreeSet::new(),
        }
    }

    /// Records that a successful write covered `[addr, addr + len)`.
    fn touch(&mut self, addr: u32, len: u32) {
        if len > 0 {
            self.written
                .extend(addr / PAGE_SIZE..=(addr + len - 1) / PAGE_SIZE);
        }
    }

    /// Flags of every page, and the bytes of every mapped one, agree; the
    /// paged side holds exactly the pages that were written.
    fn assert_same(&self, context: &str) {
        assert_eq!(self.paged.size(), self.flat.size(), "{context}");
        for p in 0..self.flat.pages.len() as u32 {
            let addr = p * PAGE_SIZE;
            let flags = self.flat.flags_at(addr);
            assert_eq!(self.paged.flags_at(addr), flags, "{context}: page {p}");
            if flags.mapped() {
                assert_eq!(
                    self.paged.kread(addr, PAGE_SIZE).expect("mapped"),
                    self.flat.kread(addr, PAGE_SIZE).expect("mapped"),
                    "{context}: page {p} bytes"
                );
            }
        }
        assert_eq!(
            self.paged.resident_pages(),
            self.written.len(),
            "{context}: resident pages"
        );
    }
}

/// An address biased toward the places paging can get wrong.
fn addr(rng: &mut Rng, size: u32) -> u32 {
    let pages = size / PAGE_SIZE;
    let k = rng.range_u32(0, 16);
    match rng.range_u32(0, 7) {
        0 => (rng.range_u32(0, pages + 1) * PAGE_SIZE).wrapping_add(k.wrapping_sub(8)),
        1 => rng.range_u32(0, size),
        2 => (size - PAGE_SIZE) + rng.range_u32(0, PAGE_SIZE),
        3 => size.wrapping_sub(k).wrapping_add(4),
        4 => u32::MAX - k,
        5 => rng.range_u32(0, pages) * PAGE_SIZE + 8 * rng.range_u32(0, PAGE_SIZE / 8),
        _ => rng.next_u32(),
    }
}

/// A length that sometimes crosses one or two page boundaries.
fn len(rng: &mut Rng) -> u32 {
    match rng.range_u32(0, 4) {
        0 => rng.range_u32(0, 9),
        1 => rng.range_u32(0, 64),
        2 => rng.range_u32(0, 2 * PAGE_SIZE + 16),
        _ => rng.range_u32(PAGE_SIZE - 4, PAGE_SIZE + 5),
    }
}

/// A small binary whose sections may share and straddle pages, with bss
/// tails and a section written over an earlier one.
fn binary(rng: &mut Rng, size: u32) -> Binary {
    let mut b = Binary::new(0);
    for i in 0..rng.range_u32(1, 5) {
        let addr = rng.range_u32(0, size / 2);
        let data = rng.bytes(0, 3 * PAGE_SIZE as usize / 2);
        let bss = rng.range_u32(0, PAGE_SIZE * 2);
        let flags = *rng.pick(&[SectionFlags::RX, SectionFlags::RW, SectionFlags::RO]);
        let mut section = Section::new(format!(".s{i}"), addr, data, flags);
        section.mem_size += bss;
        b.push_section(section);
    }
    b
}

fn run_case(rng: &mut Rng) {
    let size = *rng.pick(&[4 * PAGE_SIZE, 16 * PAGE_SIZE, 17 * PAGE_SIZE - 100]);
    let mut pairs = vec![Pair::new(size)];
    let size = pairs[0].flat.size();
    if rng.chance(1, 2) {
        let b = binary(rng, size);
        let stack = rng.range_u32(0, 3) * PAGE_SIZE;
        let pair = &mut pairs[0];
        assert_eq!(pair.paged.load(&b, stack), pair.flat.load(&b, stack));
        // Sections load in order up to the first that does not fit.
        for s in b.sections() {
            if s.addr + s.mem_size > size {
                break;
            }
            pair.touch(s.addr, s.data.len() as u32);
        }
        pair.assert_same("after load");
    }
    for step in 0..300 {
        let i = rng.range_usize(0, pairs.len());
        let ctx = format!("step {step} on pair {i}");
        let a = addr(rng, size);
        let pair = &mut pairs[i];
        match rng.range_u32(0, 13) {
            0 => assert_eq!(pair.paged.read_u8(a), pair.flat.read_u8(a), "{ctx}"),
            1 => assert_eq!(pair.paged.read_u32(a), pair.flat.read_u32(a), "{ctx}"),
            2 => {
                let v = rng.byte();
                let r = pair.paged.write_u8(a, v);
                assert_eq!(r, pair.flat.write_u8(a, v), "{ctx}");
                if r.is_ok() {
                    pair.touch(a, 1);
                }
            }
            3 => {
                let v = rng.next_u32();
                let r = pair.paged.write_u32(a, v);
                assert_eq!(r, pair.flat.write_u32(a, v), "{ctx}");
                if r.is_ok() {
                    pair.touch(a, 4);
                }
            }
            4 => assert_eq!(
                pair.paged.fetch(a).map(|b| b.to_vec()),
                pair.flat.fetch(a).map(|b| b.to_vec()),
                "{ctx}"
            ),
            5 => {
                let n = len(rng);
                assert_eq!(
                    pair.paged.kread(a, n),
                    pair.flat.kread(a, n).map(|b| b.to_vec()),
                    "{ctx}"
                );
            }
            6 => assert_eq!(pair.paged.kread_u32(a), pair.flat.kread_u32(a), "{ctx}"),
            7 => {
                let max = len(rng);
                assert_eq!(
                    pair.paged.kread_cstr(a, max),
                    pair.flat.kread_cstr(a, max),
                    "{ctx}"
                );
            }
            8 => {
                // Mostly short, sometimes NUL-free runs for kread_cstr.
                let data = if rng.chance(1, 2) {
                    rng.bytes(0, 12)
                } else {
                    vec![b'x'; len(rng) as usize]
                };
                let r = pair.paged.kwrite(a, &data);
                assert_eq!(r, pair.flat.kwrite(a, &data), "{ctx}");
                if r.is_ok() {
                    pair.touch(a, data.len() as u32);
                }
            }
            9 | 10 => {
                // Keep `addr + len - 1` from overflowing, as every caller
                // in the tree does.
                let a = a.min(size);
                let n = len(rng).min(u32::MAX - a);
                let flags = *rng.pick(&FLAGS);
                pair.paged.protect(a, n, flags);
                pair.flat.protect(a, n, flags);
            }
            11 => {
                let copy = pair.clone();
                pairs.push(copy);
            }
            _ => pair.assert_same(&ctx),
        }
    }
    for (i, pair) in pairs.iter().enumerate() {
        pair.assert_same(&format!("end, pair {i}"));
    }
}

#[test]
fn paged_memory_matches_the_flat_reference() {
    asc_testkit::check(0x9A6E_D011, 300, run_case);
}

#[test]
fn clones_are_independent_of_their_source() {
    let mut a = Memory::new(4 * PAGE_SIZE);
    a.protect(0, 4 * PAGE_SIZE, PageFlags::RW);
    a.write_u32(PAGE_SIZE - 2, 0x1122_3344).unwrap();
    let mut b = a.clone();
    a.write_u32(PAGE_SIZE - 2, 0xAAAA_AAAA).unwrap();
    b.write_u8(3 * PAGE_SIZE, 7).unwrap();
    assert_eq!(b.read_u32(PAGE_SIZE - 2), Ok(0x1122_3344));
    assert_eq!(a.read_u32(PAGE_SIZE - 2), Ok(0xAAAA_AAAA));
    assert_eq!(a.read_u8(3 * PAGE_SIZE), Ok(0));
    assert_eq!(a.resident_pages(), 2);
    assert_eq!(b.resident_pages(), 3);
}

#[test]
fn untouched_memory_costs_no_pages() {
    let mut m = Memory::new(8 << 20);
    m.protect(0, 8 << 20, PageFlags::RWX);
    assert_eq!(m.read_u32(0x12345), Ok(0));
    assert_eq!(m.fetch(0x8000), Ok([0; 8]));
    assert_eq!(m.kread(0x7ff0, 0x20).unwrap(), vec![0; 0x20]);
    assert_eq!(m.resident_pages(), 0);
    m.write_u8(0x12345, 1).unwrap();
    assert_eq!(m.resident_pages(), 1);
}
