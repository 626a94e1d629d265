//! String interning and flat slice arenas for the ER hot path.
//!
//! The resolve loop compares token *sets*, not token *text*: once every
//! distinct token of a table is mapped to a dense `u32` symbol at index
//! build time, query-time set operations (sorted-merge intersection,
//! co-occurrence counting) run over flat integer slices with zero
//! allocation and zero string hashing. [`TokenInterner`] owns the
//! string → symbol mapping; [`TokenArena`] packs per-record symbol
//! slices into one contiguous buffer addressed by record index.

use crate::fxhash::FxHashMap;

/// Dense symbol assigned to an interned token. Symbols are handed out in
/// first-seen order, starting at 0.
pub type Symbol = u32;

/// Build-once string interner: token text → dense [`Symbol`].
#[derive(Debug, Default, Clone)]
pub struct TokenInterner {
    map: FxHashMap<Box<str>, Symbol>,
    strings: Vec<Box<str>>,
}

impl TokenInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its symbol (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = self.strings.len() as Symbol;
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.map.insert(boxed, sym);
        sym
    }

    /// Symbol of `s` if it has been interned.
    #[inline]
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).copied()
    }

    /// The text of a symbol. Panics on a symbol this interner never
    /// produced (a logic error — symbols are not forgeable externally).
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// Flat arena of `u32` slices — a thin wrapper over [`crate::Csr`] that
/// keeps the historical slot-oriented API: one contiguous `data` buffer
/// plus an offsets table, so `slot → &[u32]` is two loads and no pointer
/// chase through per-record `Vec`s.
#[derive(Debug, Default, Clone)]
pub struct TokenArena {
    csr: crate::Csr<u32>,
}

impl TokenArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self {
            csr: crate::Csr::new(),
        }
    }

    /// Creates an empty arena pre-sized for `slots` slices of `data_cap`
    /// total elements.
    pub fn with_capacity(slots: usize, data_cap: usize) -> Self {
        Self {
            csr: crate::Csr::with_capacity(slots, data_cap),
        }
    }

    /// Appends one slice, returning its slot index, or the
    /// [`crate::CsrOverflow`] of an arena past `u32::MAX` elements.
    pub fn push(&mut self, slice: &[u32]) -> Result<usize, crate::CsrOverflow> {
        self.csr.push_row(slice)
    }

    /// The slice at `slot`.
    #[inline]
    pub fn get(&self, slot: usize) -> &[u32] {
        self.csr.row(slot)
    }

    /// Number of stored slices.
    pub fn len(&self) -> usize {
        self.csr.n_rows()
    }

    /// `true` when no slices are stored.
    pub fn is_empty(&self) -> bool {
        self.csr.is_empty()
    }

    /// Total elements across all slices.
    pub fn total_elements(&self) -> usize {
        self.csr.total_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut i = TokenInterner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(a), "alpha");
        assert_eq!(i.get("beta"), Some(b));
        assert_eq!(i.get("gamma"), None);
    }

    #[test]
    fn empty_interner() {
        let i = TokenInterner::new();
        assert!(i.is_empty());
        assert_eq!(i.get(""), None);
    }

    #[test]
    fn arena_round_trips_slices() {
        let mut a = TokenArena::new();
        assert!(a.is_empty());
        let s0 = a.push(&[3, 1, 4]);
        let s1 = a.push(&[]);
        let s2 = a.push(&[1, 5]);
        assert_eq!((s0, s1, s2), (Ok(0), Ok(1), Ok(2)));
        assert_eq!(a.get(0), &[3, 1, 4]);
        assert_eq!(a.get(1), &[] as &[u32]);
        assert_eq!(a.get(2), &[1, 5]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.total_elements(), 5);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut a = TokenArena::with_capacity(4, 16);
        a.push(&[7]).unwrap();
        assert_eq!(a.get(0), &[7]);
        assert_eq!(a.len(), 1);
    }
}
