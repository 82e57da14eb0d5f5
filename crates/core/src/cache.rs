//! The verified-call cache: a per-process fast path for repeated
//! authenticated system calls.
//!
//! CMAC is deterministic, so once the kernel has fully verified a tag over a
//! message it may remember the *(message, tag)* pair and later accept the
//! same pair again by byte comparison alone, skipping the AES work. The
//! cache holds three kinds of remembered verifications:
//!
//! * **call entries** — per call site, the encoded-call bytes and the call
//!   MAC that verified (§3.4 step 1);
//! * **blob entries** — per address, the contents and MAC of an
//!   authenticated string / pattern / predecessor set that verified
//!   (§3.4 step 2);
//! * **the state entry** — the exact `lastBlock ‖ lbMAC` bytes the kernel
//!   itself wrote (or verified) most recently, bound to the memory-checker
//!   counter value at that moment (§3.4 step 3).
//!
//! # Soundness
//!
//! The fast path never skips *reading* untrusted memory — it replaces the
//! AES recomputation with a byte comparison against a copy that passed full
//! verification earlier. Any divergence (tampered contents, swapped header,
//! different descriptor, forged MAC) fails the comparison and falls back to
//! the full CMAC path, which then rejects the call exactly as the cold path
//! would. The state entry is additionally bound to the in-kernel counter
//! *epoch*: the counter advances on every control-flow update, so a
//! snapshot of old state bytes can never match a cached entry from a later
//! epoch — replay still dies with `BadPolicyState` in the fallback path.
//! A cached acceptance is therefore exactly the set of inputs the cold path
//! accepts; the cache changes cycle accounting, never the accept set.

use std::collections::HashMap;

use asc_crypto::{Mac, POLICY_STATE_LEN};

/// SplitMix64 finalizer: a bijective 64-bit mixer with full avalanche.
///
/// Both the recorder's pid sampler and the fault-target draw need a
/// *deterministic* spread of structured inputs (sequential pids, campaign
/// selectors built from small factors) over a small range. Feeding the raw value into a
/// modulo would concentrate structured inputs on the low indices; mixing
/// first makes every output bit depend on every input bit.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Maps a 64-bit selector onto `[0, bound)` by a widening multiply-shift of
/// the mixed selector (Lemire's method).
///
/// Unlike `selector % bound` this has no low-index pile-up for structured
/// selectors, and the residual non-uniformity for a uniform selector is at
/// most `bound / 2^64` per index — with `bound` never exceeding a few
/// thousand cache entries, that is below `2^-52` and irrelevant for a
/// seeded fault campaign.
#[inline]
fn bounded_draw(selector: u64, bound: usize) -> usize {
    debug_assert!(bound > 0);
    ((u128::from(mix64(selector)) * bound as u128) >> 64) as usize
}

/// Counters describing how the verified-call cache behaved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Call-MAC checks served by byte comparison (no AES).
    pub hits: u64,
    /// Call-MAC checks that ran the full CMAC.
    pub misses: u64,
    /// Authenticated-string / pattern / predecessor-set checks served by
    /// byte comparison.
    pub blob_hits: u64,
    /// Policy-state verifications skipped because the kernel wrote the
    /// exact bytes itself in the current counter epoch.
    pub state_hits: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
    /// Checks that found an entry for the key but whose bytes, tag, or
    /// epoch no longer matched — the graceful degradation path: the entry
    /// is useless (stale or poisoned) and the full CMAC fallback ran.
    pub stale_misses: u64,
    /// State entries dropped because they claimed an *impossible* epoch
    /// (later than the in-kernel counter). The counter never runs behind a
    /// recording, so such an entry can only be corruption; it is scrubbed
    /// rather than trusted or panicked over.
    pub scrubs: u64,
}

#[derive(Clone, Debug)]
struct CallEntry {
    encoding: Vec<u8>,
    mac: Mac,
}

#[derive(Clone, Debug)]
struct BlobEntry {
    contents: Vec<u8>,
    mac: Mac,
}

#[derive(Clone, Debug)]
struct StateEntry {
    lb_ptr: u32,
    bytes: [u8; POLICY_STATE_LEN],
    epoch: u64,
}

/// Per-process cache of verifications the kernel has already performed.
///
/// One of these lives next to each process's `MemoryChecker`
/// (`asc_crypto::MemoryChecker`) inside the kernel; the untrusted
/// application can influence it only through the memory bytes it presents,
/// which are always re-read and re-compared. See the module docs for the
/// soundness argument.
#[derive(Clone, Debug)]
pub struct VerifyCache {
    calls: HashMap<u32, CallEntry>,
    blobs: HashMap<u32, BlobEntry>,
    state: Option<StateEntry>,
    capacity: usize,
    stats: CacheStats,
}

impl Default for VerifyCache {
    fn default() -> Self {
        VerifyCache::new()
    }
}

impl VerifyCache {
    /// Default bound on cached call + blob entries.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        VerifyCache::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty cache bounded to `capacity` call + blob entries (the state
    /// entry is not counted). When an insert would exceed the bound the
    /// whole cache is dropped — crude, but eviction can never be a
    /// soundness question, only a performance one.
    pub fn with_capacity(capacity: usize) -> Self {
        VerifyCache {
            calls: HashMap::new(),
            blobs: HashMap::new(),
            state: None,
            capacity: capacity.max(1),
            stats: CacheStats::default(),
        }
    }

    /// Checks whether the call MAC for `site` can be accepted from cache:
    /// both the reconstructed encoding and the tag read from user memory
    /// must be byte-identical to the pair that fully verified earlier.
    /// Updates hit/miss statistics.
    pub fn check_call(&mut self, site: u32, encoding: &[u8], mac: &Mac) -> bool {
        let entry = self.calls.get(&site);
        let present = entry.is_some();
        let hit = entry.is_some_and(|e| e.mac == *mac && e.encoding == encoding);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            if present {
                self.stats.stale_misses += 1;
            }
        }
        hit
    }

    /// Remembers a call-MAC pair that passed full verification.
    pub fn record_call(&mut self, site: u32, encoding: &[u8], mac: &Mac) {
        self.ensure_room();
        self.calls.insert(
            site,
            CallEntry {
                encoding: encoding.to_vec(),
                mac: *mac,
            },
        );
    }

    /// Checks whether an authenticated blob (string / pattern /
    /// predecessor set) at `addr` can be accepted from cache.
    pub fn check_blob(&mut self, addr: u32, mac: &Mac, contents: &[u8]) -> bool {
        let entry = self.blobs.get(&addr);
        let present = entry.is_some();
        let hit = entry.is_some_and(|e| e.mac == *mac && e.contents == contents);
        if hit {
            self.stats.blob_hits += 1;
        } else if present {
            self.stats.stale_misses += 1;
        }
        hit
    }

    /// Remembers a blob that passed full verification.
    pub fn record_blob(&mut self, addr: u32, mac: &Mac, contents: &[u8]) {
        self.ensure_room();
        self.blobs.insert(
            addr,
            BlobEntry {
                contents: contents.to_vec(),
                mac: *mac,
            },
        );
    }

    /// Checks whether the policy-state cell can be accepted without an AES
    /// verification: the bytes must match what the kernel last wrote or
    /// verified *and* the in-kernel counter must still be at the epoch the
    /// entry was recorded under. A counter advance (any control-flow
    /// update) silently invalidates the entry.
    ///
    /// An entry claiming an epoch *later* than the current counter is
    /// impossible (the counter never runs behind a recording) and can only
    /// mean the entry itself was corrupted; it is scrubbed — dropped and
    /// counted in [`CacheStats::scrubs`] — so verification falls back to
    /// the full cold path instead of consulting poisoned bytes.
    pub fn check_state(&mut self, lb_ptr: u32, bytes: &[u8], epoch: u64) -> bool {
        if self.state.as_ref().is_some_and(|s| s.epoch > epoch) {
            self.state = None;
            self.stats.scrubs += 1;
        }
        let entry = self.state.as_ref();
        let present = entry.is_some();
        let hit =
            entry.is_some_and(|s| s.lb_ptr == lb_ptr && s.epoch == epoch && s.bytes[..] == *bytes);
        if hit {
            self.stats.state_hits += 1;
        } else if present {
            self.stats.stale_misses += 1;
        }
        hit
    }

    /// Remembers the policy-state bytes the kernel just wrote (or fully
    /// verified) at counter value `epoch`.
    pub fn record_state(&mut self, lb_ptr: u32, bytes: [u8; POLICY_STATE_LEN], epoch: u64) {
        self.state = Some(StateEntry {
            lb_ptr,
            bytes,
            epoch,
        });
    }

    /// Drops every entry (key change, exec, policy reload).
    pub fn clear(&mut self) {
        let dropped = (self.calls.len() + self.blobs.len()) as u64;
        self.stats.evictions += dropped;
        self.calls.clear();
        self.blobs.clear();
        self.state = None;
    }

    /// Cache behaviour counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of call + blob entries currently cached.
    pub fn len(&self) -> usize {
        self.calls.len() + self.blobs.len()
    }

    /// The counter epoch the state entry was recorded under, if one is
    /// held. Isolation tests use this to assert that another process's
    /// kill or cache activity never moved this process's epoch.
    pub fn state_epoch(&self) -> Option<u64> {
        self.state.as_ref().map(|s| s.epoch)
    }

    /// Whether the cache holds no call or blob entries.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty() && self.blobs.is_empty()
    }

    fn ensure_room(&mut self) {
        if self.calls.len() + self.blobs.len() >= self.capacity {
            self.clear();
        }
    }

    /// Fault-injection hook: XORs `mask` into one byte of one stored entry,
    /// both chosen deterministically from `selector`. Models bit rot or a
    /// kernel bug corrupting the cache itself. Returns the kind of entry
    /// corrupted (`"call"`, `"blob"`, `"state"`), or `None` when the cache
    /// is empty. A corrupted entry must never be *accepted* — the byte
    /// comparison misses and verification falls back to the cold path.
    pub fn corrupt_entry_for_fault(&mut self, selector: u64, mask: u8) -> Option<&'static str> {
        let mask = if mask == 0 { 1 } else { mask };
        let mut call_sites: Vec<u32> = self.calls.keys().copied().collect();
        call_sites.sort_unstable();
        let mut blob_addrs: Vec<u32> = self.blobs.keys().copied().collect();
        blob_addrs.sort_unstable();
        let total = call_sites.len() + blob_addrs.len() + usize::from(self.state.is_some());
        if total == 0 {
            return None;
        }
        let pick = bounded_draw(selector, total);
        let byte_sel = (selector >> 8) as usize;
        if pick < call_sites.len() {
            let e = self.calls.get_mut(&call_sites[pick]).expect("listed key");
            let n = e.encoding.len() + e.mac.len();
            let i = byte_sel % n;
            if i < e.encoding.len() {
                e.encoding[i] ^= mask;
            } else {
                e.mac[i - e.encoding.len()] ^= mask;
            }
            return Some("call");
        }
        let pick = pick - call_sites.len();
        if pick < blob_addrs.len() {
            let e = self.blobs.get_mut(&blob_addrs[pick]).expect("listed key");
            let n = e.contents.len() + e.mac.len();
            let i = byte_sel % n;
            if i < e.contents.len() {
                e.contents[i] ^= mask;
            } else {
                e.mac[i - e.contents.len()] ^= mask;
            }
            return Some("blob");
        }
        let s = self.state.as_mut().expect("counted above");
        s.bytes[byte_sel % POLICY_STATE_LEN] ^= mask;
        Some("state")
    }

    /// Fault-injection hook: shifts the state entry's recorded epoch
    /// forward by `delta`, making it claim a *future* counter value. The
    /// next [`VerifyCache::check_state`] must scrub it (see
    /// [`CacheStats::scrubs`]) and fall back to cold verification. Returns
    /// `false` when no state entry exists.
    pub fn skew_state_epoch_for_fault(&mut self, delta: u64) -> bool {
        match self.state.as_mut() {
            Some(s) => {
                s.epoch = s.epoch.saturating_add(delta.max(1));
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn call_entry_roundtrip() {
        let mut c = VerifyCache::new();
        let mac = [7u8; 16];
        assert!(!c.check_call(0x1000, b"enc", &mac), "empty cache misses");
        c.record_call(0x1000, b"enc", &mac);
        assert!(c.check_call(0x1000, b"enc", &mac));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn call_entry_rejects_any_divergence() {
        let mut c = VerifyCache::new();
        let mac = [7u8; 16];
        c.record_call(0x1000, b"enc", &mac);
        assert!(!c.check_call(0x1004, b"enc", &mac), "different site");
        assert!(!c.check_call(0x1000, b"end", &mac), "different encoding");
        let mut other = mac;
        other[15] ^= 1;
        assert!(!c.check_call(0x1000, b"enc", &other), "different tag");
    }

    #[test]
    fn blob_entry_rejects_tampered_contents() {
        let mut c = VerifyCache::new();
        let mac = [9u8; 16];
        c.record_blob(0x2000, &mac, b"/etc/motd");
        assert!(c.check_blob(0x2000, &mac, b"/etc/motd"));
        assert!(
            !c.check_blob(0x2000, &mac, b"/etc/pass"),
            "rewritten contents"
        );
        assert!(
            !c.check_blob(0x2004, &mac, b"/etc/motd"),
            "different address"
        );
        assert_eq!(c.stats().blob_hits, 1);
    }

    #[test]
    fn state_entry_bound_to_epoch() {
        let mut c = VerifyCache::new();
        let bytes = [3u8; POLICY_STATE_LEN];
        c.record_state(0x3000, bytes, 5);
        assert!(c.check_state(0x3000, &bytes, 5));
        assert!(!c.check_state(0x3000, &bytes, 6), "counter advanced: stale");
        assert!(!c.check_state(0x3004, &bytes, 5), "different cell");
        let mut forged = bytes;
        forged[0] ^= 1;
        assert!(!c.check_state(0x3000, &forged, 5), "different bytes");
        assert_eq!(c.stats().state_hits, 1);
    }

    #[test]
    fn capacity_overflow_clears() {
        let mut c = VerifyCache::with_capacity(2);
        c.record_call(1, b"a", &[0u8; 16]);
        c.record_blob(2, &[0u8; 16], b"b");
        assert_eq!(c.len(), 2);
        c.record_call(3, b"c", &[0u8; 16]);
        assert_eq!(c.len(), 1, "hit capacity: dropped and restarted");
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn clear_drops_everything() {
        let mut c = VerifyCache::new();
        c.record_call(1, b"a", &[0u8; 16]);
        c.record_state(2, [0u8; POLICY_STATE_LEN], 1);
        c.clear();
        assert!(c.is_empty());
        assert!(!c.check_state(2, &[0u8; POLICY_STATE_LEN], 1));
    }

    #[test]
    fn stale_entries_are_counted_as_fallbacks() {
        let mut c = VerifyCache::new();
        c.record_call(0x1000, b"enc", &[7u8; 16]);
        c.record_blob(0x2000, &[9u8; 16], b"/etc/motd");
        c.record_state(0x3000, [3u8; POLICY_STATE_LEN], 5);
        assert!(!c.check_call(0x1000, b"end", &[7u8; 16]));
        assert!(!c.check_blob(0x2000, &[9u8; 16], b"/etc/pass"));
        assert!(!c.check_state(0x3000, &[3u8; POLICY_STATE_LEN], 6));
        assert_eq!(c.stats().stale_misses, 3);
        // A miss with no entry at all is not "stale".
        assert!(!c.check_call(0x9999, b"enc", &[7u8; 16]));
        assert_eq!(c.stats().stale_misses, 3);
    }

    #[test]
    fn future_epoch_state_entry_is_scrubbed() {
        let mut c = VerifyCache::new();
        let bytes = [3u8; POLICY_STATE_LEN];
        c.record_state(0x3000, bytes, 5);
        assert!(c.skew_state_epoch_for_fault(3));
        // Entry now claims epoch 8 while the counter is still 5:
        // impossible — scrubbed, never accepted, cold fallback.
        assert!(!c.check_state(0x3000, &bytes, 5));
        assert_eq!(c.stats().scrubs, 1);
        // The poisoned entry is gone; a fresh recording works again.
        c.record_state(0x3000, bytes, 5);
        assert!(c.check_state(0x3000, &bytes, 5));
    }

    #[test]
    fn corrupted_entries_never_accept() {
        let mut c = VerifyCache::new();
        let mac = [7u8; 16];
        c.record_call(0x1000, b"enc", &mac);
        c.record_blob(0x2000, &mac, b"/etc/motd");
        c.record_state(0x3000, [3u8; POLICY_STATE_LEN], 5);
        let mut kinds = std::collections::BTreeSet::new();
        for sel in 0..64u64 {
            let mut cc = c.clone();
            let kind = cc.corrupt_entry_for_fault(sel * 0x0101, 0x40).unwrap();
            kinds.insert(kind);
            assert!(!cc.check_call(0x1000, b"enc", &mac) || kind != "call");
            assert!(!cc.check_blob(0x2000, &mac, b"/etc/motd") || kind != "blob");
            assert!(
                !cc.check_state(0x3000, &[3u8; POLICY_STATE_LEN], 5) || kind != "state",
                "corrupted state accepted (sel {sel})"
            );
        }
        assert_eq!(kinds.len(), 3, "selector reaches all entry kinds");
        assert_eq!(
            VerifyCache::new().corrupt_entry_for_fault(0, 1),
            None,
            "empty cache has nothing to corrupt"
        );
    }

    #[test]
    fn bounded_draw_spreads_structured_selectors() {
        // The old `selector % total` sent the campaign's structured
        // selectors (small multiples) disproportionately to low indices.
        // The mixed draw must stay in range and reach every index from a
        // modest structured sweep.
        let bound = 7usize;
        let mut seen = std::collections::BTreeSet::new();
        for sel in 0..64u64 {
            let pick = bounded_draw(sel * 0x0101, bound);
            assert!(pick < bound);
            assert_eq!(pick, bounded_draw(sel * 0x0101, bound));
            seen.insert(pick);
        }
        assert_eq!(seen.len(), bound, "structured selectors reach all indices");
    }

    #[test]
    fn prop_counter_bump_invalidates_state_entry() {
        asc_testkit::check(0x5EED_0CAC, 200, |rng| {
            let mut c = VerifyCache::new();
            let epoch = rng.range_u64(0, 1 << 40);
            let ptr = rng.next_u32();
            let mut bytes = [0u8; POLICY_STATE_LEN];
            for b in bytes.iter_mut() {
                *b = rng.byte();
            }
            c.record_state(ptr, bytes, epoch);
            assert!(c.check_state(ptr, &bytes, epoch), "same epoch: hit");
            let bumped = epoch + rng.range_u64(1, 64);
            assert!(
                !c.check_state(ptr, &bytes, bumped),
                "any counter bump invalidates the entry"
            );
        });
    }

    #[test]
    fn prop_warm_accepts_exactly_the_recorded_pairs() {
        // Model check: under random interleavings of record / check /
        // epoch-bump / clear, a cache hit occurs exactly when the same
        // (key, bytes, tag) tuple was recorded and (for state) the epoch
        // is unchanged. Since only cold-verified pairs are ever recorded,
        // this makes the warm accept set equal to the cold one.
        asc_testkit::check(0x5EED_ACCE, 300, |rng| {
            let sites = [0x1000u32, 0x1008, 0x1010];
            let encs: [&[u8]; 3] = [b"alpha", b"bravo", b"charlie"];
            let macs = [[1u8; 16], [2u8; 16], [3u8; 16]];
            let ptrs = [0x3000u32, 0x3004];
            let mut shadow_calls: HashMap<u32, (Vec<u8>, Mac)> = HashMap::new();
            let mut shadow_blobs: HashMap<u32, (Vec<u8>, Mac)> = HashMap::new();
            let mut shadow_state: Option<(u32, [u8; POLICY_STATE_LEN], u64)> = None;
            let mut epoch = 0u64;
            let mut c = VerifyCache::new();
            for _ in 0..rng.range_usize(1, 40) {
                match rng.range_u32(0, 8) {
                    0 | 1 => {
                        let (s, e, m) = (*rng.pick(&sites), *rng.pick(&encs), *rng.pick(&macs));
                        c.record_call(s, e, &m);
                        shadow_calls.insert(s, (e.to_vec(), m));
                    }
                    2 => {
                        let (s, e, m) = (*rng.pick(&sites), *rng.pick(&encs), *rng.pick(&macs));
                        let expect = shadow_calls.get(&s) == Some(&(e.to_vec(), m));
                        assert_eq!(c.check_call(s, e, &m), expect, "call accept set diverged");
                    }
                    3 => {
                        let (a, e, m) = (*rng.pick(&ptrs), *rng.pick(&encs), *rng.pick(&macs));
                        c.record_blob(a, &m, e);
                        shadow_blobs.insert(a, (e.to_vec(), m));
                    }
                    4 => {
                        let (a, e, m) = (*rng.pick(&ptrs), *rng.pick(&encs), *rng.pick(&macs));
                        let expect = shadow_blobs.get(&a) == Some(&(e.to_vec(), m));
                        assert_eq!(c.check_blob(a, &m, e), expect, "blob accept set diverged");
                    }
                    5 => {
                        let ptr = *rng.pick(&ptrs);
                        let bytes = [rng.byte(); POLICY_STATE_LEN];
                        c.record_state(ptr, bytes, epoch);
                        shadow_state = Some((ptr, bytes, epoch));
                    }
                    6 => {
                        // The in-kernel counter advances (control-flow
                        // update): every older state recording is stale.
                        epoch += rng.range_u64(1, 4);
                    }
                    _ => {
                        let ptr = *rng.pick(&ptrs);
                        let bytes = shadow_state.map_or([0u8; POLICY_STATE_LEN], |(_, b, _)| b);
                        let expect = shadow_state == Some((ptr, bytes, epoch));
                        assert_eq!(
                            c.check_state(ptr, &bytes, epoch),
                            expect,
                            "state accept set diverged"
                        );
                    }
                }
            }
        });
    }
}
