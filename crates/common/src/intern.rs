//! String interning for the ER hot path.
//!
//! The resolve loop compares token *sets*, not token *text*: once every
//! distinct token of a table is mapped to a dense `u32` symbol at index
//! build time, query-time set operations (sorted-merge intersection,
//! co-occurrence counting) run over flat integer slices with zero
//! allocation and zero string hashing. [`TokenInterner`] owns the
//! string → symbol mapping; a [`crate::Csr`] packs per-record symbol
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
}
