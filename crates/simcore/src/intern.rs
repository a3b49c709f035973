//! String interning.
//!
//! Job, file, and transfer records reference the same site names, LFNs,
//! dataset names, and scopes millions of times. Interning maps each
//! distinct string to a dense [`Sym`] so records stay compact and
//! string-equality joins become integer comparisons.
//!
//! The table is an arena: every interned string is appended to one
//! `String`, and `ends[id]` is the byte offset one past symbol `id`'s
//! text (`usize`, so the arena may exceed 4 GiB). A table of millions of
//! symbols is therefore three allocations, not one per string: cloning
//! it is three `memcpy`s and dropping it three frees.
//!
//! Lookups go through an open-addressing (linear-probe) index of `u32`
//! slots kept at most 7/8 full. A table of `2^k` slots never holds an id
//! of `k` bits or more, so each slot packs the id into its low `k` bits
//! and spare bits of the string's [fx hash](crate::fx) into the high
//! `32 - k` bits. The probe position comes from the top `k` bits of the
//! hash and the tag from the bits just below them, so a probe that meets
//! a different string is rejected by comparing tags, without touching
//! the arena.

use crate::fx;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;

/// Interned string handle.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Sym(pub u32);

/// Sentinel for an empty index slot. No packed slot equals it: the id
/// part of a slot is always below the all-ones id mask.
const EMPTY: u32 = u32::MAX;

/// Append-only interning table.
///
/// `Sym(0)` is always the reserved `"UNKNOWN"` sentinel that production
/// metadata uses for unidentified sites (paper §3.2: "the 102nd site is
/// labeled as *unknown*, aggregating all transfers with either an
/// unidentified source or destination").
#[derive(Clone)]
pub struct SymbolTable {
    /// Every interned string, concatenated in symbol order.
    arena: String,
    /// `ends[id]` = arena offset one past symbol `id`'s string.
    ends: Vec<usize>,
    /// Linear-probe index: power-of-two length, `EMPTY` = vacant, else
    /// hash tag in the high bits and symbol id in the low `log2(len)`.
    slots: Vec<u32>,
}

impl SymbolTable {
    /// The reserved unknown-site symbol.
    pub const UNKNOWN: Sym = Sym(0);

    /// New table containing only the `"UNKNOWN"` sentinel.
    pub fn new() -> Self {
        let mut t = SymbolTable {
            arena: String::new(),
            ends: Vec::new(),
            slots: vec![EMPTY; 16],
        };
        let u = t.intern("UNKNOWN");
        debug_assert_eq!(u, Self::UNKNOWN);
        t
    }

    /// Make room for `strings` more strings of `bytes` total length, so
    /// interning them neither reallocates the arena nor rebuilds the
    /// index. A loader that knows its input's size calls this once
    /// instead of growing the arena by doubling.
    pub fn reserve(&mut self, strings: usize, bytes: usize) {
        self.arena.reserve(bytes);
        self.ends.reserve(strings);
        let mut cap = self.slots.len();
        while (self.ends.len() + strings) * 8 > cap * 7 {
            cap *= 2;
        }
        if cap > self.slots.len() {
            self.rehash(cap);
        }
    }

    /// Intern `s`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, s: &str) -> Sym {
        // Keep the index at most 7/8 full: grow *before* probing so the
        // vacant slot the probe ends on stays valid for the insert.
        if (self.ends.len() + 1) * 8 > self.slots.len() * 7 {
            self.rehash(self.slots.len() * 2);
        }
        let hash = fx::hash_bytes(s.as_bytes());
        match self.probe(s, hash) {
            Ok(id) => Sym(id),
            Err(slot) => {
                let id = self.ends.len() as u32;
                debug_assert!(id < EMPTY, "symbol table overflow");
                self.arena.push_str(s);
                self.ends.push(self.arena.len());
                self.slots[slot] = self.tag(hash) | id;
                Sym(id)
            }
        }
    }

    /// Resolve a symbol back to its string.
    pub fn resolve(&self, sym: Sym) -> &str {
        let id = sym.0 as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.arena[start..self.ends[id]]
    }

    /// Look up without interning.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.probe(s, fx::hash_bytes(s.as_bytes())).ok().map(Sym)
    }

    /// Number of distinct strings (including the sentinel).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Only the sentinel present?
    pub fn is_empty(&self) -> bool {
        self.ends.len() <= 1
    }

    /// Total length in bytes of all interned strings.
    pub fn text_len(&self) -> usize {
        self.arena.len()
    }

    /// Mask selecting the id bits of a slot (`len - 1`, saturated to 32
    /// bits).
    fn id_mask(&self) -> u32 {
        (self.slots.len() - 1) as u32
    }

    /// Home slot of `hash`: its top `log2(len)` bits.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Tag of `hash`, already shifted into the slot's high bits: the hash
    /// bits just below those [`Self::home`] uses.
    fn tag(&self, hash: u64) -> u32 {
        // Shifting left by `log2(len)` clears the id bits and drops the
        // home bits off the top of the 32-bit word.
        ((hash >> 32) << self.slots.len().trailing_zeros()) as u32
    }

    /// `Ok(id)` when `s` is interned, else `Err(slot)`: the vacant slot
    /// that ends its probe chain.
    fn probe(&self, s: &str, hash: u64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let id_mask = self.id_mask();
        let tag = self.tag(hash);
        let mut i = self.home(hash);
        loop {
            match self.slots[i] {
                EMPTY => return Err(i),
                slot if slot & !id_mask == tag && self.resolve(Sym(slot & id_mask)) == s => {
                    return Ok(slot & id_mask)
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Resize the index to `cap` slots and re-home every symbol id.
    fn rehash(&mut self, cap: usize) {
        self.slots.clear();
        self.slots.resize(cap, EMPTY);
        let mask = cap - 1;
        let mut start = 0;
        for (id, &end) in self.ends.iter().enumerate() {
            let hash = fx::hash_bytes(&self.arena.as_bytes()[start..end]);
            start = end;
            let mut i = self.home(hash);
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = self.tag(hash) | id as u32;
        }
    }
}

/// Two tables are equal when they intern the same strings in the same
/// order; the probe index is derived state and is ignored.
impl PartialEq for SymbolTable {
    fn eq(&self, other: &Self) -> bool {
        self.ends == other.ends && self.arena == other.arena
    }
}

impl Eq for SymbolTable {}

impl Default for SymbolTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Lists the strings in symbol order.
impl fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len() as u32).map(|i| self.resolve(Sym(i))))
            .finish()
    }
}

/// Serialize the strings as a dense sequence in symbol order; the probe
/// index is derived state and is rebuilt on deserialization.
impl Serialize for SymbolTable {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let strings: Vec<&str> = (0..self.len() as u32)
            .map(|i| self.resolve(Sym(i)))
            .collect();
        strings.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for SymbolTable {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let strings = Vec::<String>::deserialize(deserializer)?;
        let mut t = SymbolTable::new();
        for (id, s) in strings.iter().enumerate() {
            let sym = t.intern(s);
            if sym.0 as usize != id {
                return Err(serde::de::Error::custom(format!(
                    "symbol table has duplicate or misplaced string {s:?} at index {id}"
                )));
            }
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_is_symbol_zero() {
        let t = SymbolTable::new();
        assert_eq!(t.get("UNKNOWN"), Some(SymbolTable::UNKNOWN));
        assert_eq!(t.resolve(SymbolTable::UNKNOWN), "UNKNOWN");
    }

    #[test]
    fn interning_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("CERN-PROD");
        let b = t.intern("CERN-PROD");
        assert_eq!(a, b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let mut t = SymbolTable::new();
        let a = t.intern("A");
        let b = t.intern("B");
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "A");
        assert_eq!(t.resolve(b), "B");
    }

    #[test]
    fn get_does_not_intern() {
        let t = SymbolTable::new();
        assert!(t.get("missing").is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn survives_growth_and_keeps_dense_ids() {
        let mut t = SymbolTable::new();
        let syms: Vec<Sym> = (0..10_000).map(|i| t.intern(&format!("s{i}"))).collect();
        assert_eq!(t.len(), 10_001);
        for (i, &sym) in syms.iter().enumerate() {
            assert_eq!(sym, Sym(i as u32 + 1));
            assert_eq!(t.resolve(sym), format!("s{i}"));
            assert_eq!(t.get(&format!("s{i}")), Some(sym));
        }
        // Re-interning after growth still finds the original ids.
        assert_eq!(t.intern("s42"), syms[42]);
    }

    #[test]
    fn serde_round_trips_dense_order() {
        let mut t = SymbolTable::new();
        for s in ["CERN-PROD", "BNL-OSG2", "MWT2"] {
            t.intern(s);
        }
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, r#"["UNKNOWN","CERN-PROD","BNL-OSG2","MWT2"]"#);
        let back: SymbolTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), t.len());
        for s in ["UNKNOWN", "CERN-PROD", "BNL-OSG2", "MWT2"] {
            assert_eq!(back.get(s), t.get(s));
        }
    }
}
