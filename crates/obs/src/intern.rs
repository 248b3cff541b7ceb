//! String interning for the recording hot path.
//!
//! The recorder's hot path must not allocate per record: every
//! `(component, name)` pair and every metric label string is interned into a
//! `u32` id on first sight and recorded as that id from then on. Resolution
//! back to strings happens once, at export/snapshot time, so interning is
//! invisible outside the crate boundary: the canonical JSON depends on the
//! resolved strings, never on their ids.
//!
//! Lookups are allocation-free: strings hash word-at-a-time into buckets
//! keyed by the raw hash (with an identity re-hash, since the hash is
//! already mixed), and candidates are compared by content — the hash only
//! routes, equality decides, so hash quality affects speed but never
//! correctness or any exported byte. Ids are assigned in first-intern
//! order, but nothing downstream depends on that order — exports sort by
//! resolved string, which is what the intern-order independence proptest
//! pins down.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd, high-entropy multiplier (the FxHash constant). One multiply mixes a
/// whole 8-byte word — roughly 8x fewer dependent multiplies than a
/// byte-at-a-time FNV loop, which matters because the recorder hashes
/// component/name strings on every record.
const MIX_K: u64 = 0x517cc1b727220a95;

/// Incremental word-at-a-time hash over byte chunks, with `0xff` separators
/// so `("ab","c")` and `("a","bc")` hash differently. Each `write` also
/// folds in the chunk length, so zero-padding of the final partial word
/// cannot conflate `"a"` with `"a\0"`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyHash(u64);

impl KeyHash {
    pub(crate) fn new() -> Self {
        Self(0)
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MIX_K);
    }

    #[inline]
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.mix(u64::from_le_bytes(buf));
        }
        self.mix(bytes.len() as u64);
    }

    /// Terminates one field (prevents concatenation ambiguity).
    pub(crate) fn sep(&mut self) {
        self.mix(0xff);
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Cheap multiply-rotate hasher for small fixed-size keys (e.g. the
/// `(base name id, index)` keys of the indexed-span-name cache), where
/// SipHash latency would dominate the lookup. `HashMap` still compares full
/// keys, so this trades only speed, never correctness.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ b as u64).wrapping_mul(MIX_K);
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.0 = (self.0.rotate_left(5) ^ i as u64).wrapping_mul(MIX_K);
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(MIX_K);
    }
}

pub(crate) type MixBuild = BuildHasherDefault<MixHasher>;

/// Pass-through hasher for keys that are already well-mixed 64-bit hashes
/// (avoids paying SipHash on every bucket probe).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; fold bytes just in case.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ b as u64;
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }
}

pub(crate) type IdentityBuild = BuildHasherDefault<IdentityHasher>;

/// An append-only string interner: `intern` maps a string to a stable
/// `u32` id (equal strings always get the same id), `resolve` maps it back.
#[derive(Debug, Default)]
pub struct Interner {
    strings: Vec<Box<str>>,
    buckets: HashMap<u64, Vec<u32>, IdentityBuild>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `s`, allocating one on first sight. Allocation-free
    /// when `s` was seen before.
    pub fn intern(&mut self, s: &str) -> u32 {
        let mut kh = KeyHash::new();
        kh.write(s.as_bytes());
        let hash = kh.finish();
        if let Some(bucket) = self.buckets.get(&hash) {
            for &id in bucket {
                if &*self.strings[id as usize] == s {
                    return id;
                }
            }
        }
        let id = u32::try_from(self.strings.len()).expect("interner capacity exceeded");
        self.strings.push(s.into());
        self.buckets.entry(hash).or_default().push(id);
        id
    }

    /// The string behind `id`.
    ///
    /// # Panics
    /// Panics when `id` was not produced by this interner.
    pub fn resolve(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_resolve_round_trips() {
        let mut i = Interner::new();
        let a = i.intern("engine.exec");
        let b = i.intern("stage_0");
        let a2 = i.intern("engine.exec");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "engine.exec");
        assert_eq!(i.resolve(b), "stage_0");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn empty_and_similar_strings_stay_distinct() {
        let mut i = Interner::new();
        let empty = i.intern("");
        let ab_c = i.intern("ab");
        let a_bc = i.intern("a");
        assert_ne!(empty, ab_c);
        assert_ne!(ab_c, a_bc);
        assert_eq!(i.resolve(empty), "");
    }
}
