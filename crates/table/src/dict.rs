//! String dictionary for dictionary-encoded columns.

use std::sync::Arc;

use crate::error::TableError;
use crate::fxhash::FxHashMap;
use crate::Result;

/// An append-only interner mapping strings to dense `u32` codes.
///
/// Codes are assigned in first-seen order, starting at 0; the dictionary of a
/// column therefore doubles as the set of *distinct values* of that column,
/// which the grouping machinery exploits: the codes of a string column are
/// already dense group codes.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    values: Vec<Arc<str>>,
    index: FxHashMap<Arc<str>, u32>,
}

impl Dictionary {
    /// New empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its code (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.index.get(s) {
            return code;
        }
        let code = u32::try_from(self.values.len()).expect("dictionary overflow");
        let owned: Arc<str> = Arc::from(s);
        self.values.push(Arc::clone(&owned));
        self.index.insert(owned, code);
        code
    }

    /// Look up the code of `s` without interning.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// The string for `code`. Panics if the code was never assigned.
    pub fn get(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// The string for `code` as a cheap `Arc` clone.
    pub fn get_arc(&self, code: u32) -> Arc<str> {
        Arc::clone(&self.values[code as usize])
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterator over `(code, string)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.values.iter().enumerate().map(|(i, s)| (i as u32, s.as_ref()))
    }

    /// Approximate heap footprint in bytes, as a **pure function of the
    /// data** (string bytes plus a fixed per-entry overhead), so the value
    /// is identical on every platform — cache-economy counters built on it
    /// can be snapshotted and diffed across machines.
    pub fn approx_bytes(&self) -> u64 {
        /// Per-entry bookkeeping charge (code slot + index entry).
        const ENTRY_OVERHEAD: u64 = 16;
        self.values.iter().map(|s| s.len() as u64 + ENTRY_OVERHEAD).sum()
    }
}

/// Check that `codes` number a dictionary of `entries` strings in
/// first-occurrence order with no entry unused: each row either repeats a
/// code already seen or uses the next unused one, and every entry is used.
/// That is the dictionary a row-by-row build of the same strings gives, so
/// a string column in this form is the one canonical column for its values.
/// The error names the first row or entry that breaks the form.
pub fn check_first_occurrence(codes: &[u32], entries: usize) -> Result<()> {
    let mut next = 0;
    for (row, &code) in codes.iter().enumerate() {
        let code = code as usize;
        if code < next {
            continue;
        }
        if code >= entries {
            let past = format!("row {row}: code {code} is past a dictionary of {entries} entries");
            return Err(TableError::invalid(past));
        }
        if code > next {
            let skip = format!("row {row}: code {code} skips unused dictionary entry {next}");
            return Err(TableError::invalid(skip));
        }
        next += 1;
    }
    if next < entries {
        return Err(TableError::invalid(format!("dictionary entry {next} is used by no row")));
    }
    Ok(())
}

/// `old code → new code` for one source dictionary whose strings are being
/// re-interned into another: a string is hashed only the first time its
/// code is seen, every later row of the same code is one table lookup. The
/// target therefore receives the source's strings in first-occurrence order
/// of the codes asked for — exactly what interning row by row would give.
#[derive(Debug)]
pub(crate) struct Recode<'a> {
    from: &'a Dictionary,
    to: Vec<u32>,
}

impl<'a> Recode<'a> {
    /// No dictionary can hold this many strings, so it marks "not seen".
    const UNSEEN: u32 = u32::MAX;

    /// An empty table over `from`'s codes.
    pub(crate) fn new(from: &'a Dictionary) -> Self {
        Recode { from, to: vec![Self::UNSEEN; from.len()] }
    }

    /// `into`'s code for the string `from` calls `code`.
    #[inline]
    pub(crate) fn code(&mut self, code: u32, into: &mut Dictionary) -> u32 {
        let slot = &mut self.to[code as usize];
        if *slot == Self::UNSEEN {
            *slot = into.intern(self.from.get(code));
        }
        *slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recode_interns_each_code_once_in_first_asked_order() {
        let mut from = Dictionary::new();
        for s in ["a", "b", "c", "d"] {
            from.intern(s);
        }
        let mut into = Dictionary::new();
        into.intern("c");
        let mut recode = Recode::new(&from);
        let codes: Vec<u32> = [3, 2, 3, 0, 2].iter().map(|&c| recode.code(c, &mut into)).collect();
        assert_eq!(codes, vec![1, 0, 1, 2, 0]);
        // "b" was never asked for, so it was never interned.
        assert_eq!(into.iter().map(|(_, s)| s).collect::<Vec<_>>(), vec!["c", "d", "a"]);
    }

    #[test]
    fn first_occurrence_form_is_checked_row_by_row() {
        assert!(check_first_occurrence(&[0, 1, 0, 2, 1], 3).is_ok());
        assert!(check_first_occurrence(&[], 0).is_ok());
        let err = |codes: &[u32], entries| check_first_occurrence(codes, entries).unwrap_err();
        assert!(err(&[0, 3], 3).to_string().contains("row 1: code 3 is past"));
        assert!(err(&[0, 2, 1], 3).to_string().contains("row 1: code 2 skips unused"));
        assert!(err(&[0, 1], 3).to_string().contains("entry 2 is used by no row"));
        assert!(err(&[], 1).to_string().contains("entry 0 is used by no row"));
    }

    #[test]
    fn intern_assigns_dense_codes() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern("US"), 0);
        assert_eq!(d.intern("VN"), 1);
        assert_eq!(d.intern("US"), 0);
        assert_eq!(d.intern("IN"), 2);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn get_round_trips() {
        let mut d = Dictionary::new();
        let code = d.intern("pm25");
        assert_eq!(d.get(code), "pm25");
        assert_eq!(&*d.get_arc(code), "pm25");
    }

    #[test]
    fn code_of_missing() {
        let mut d = Dictionary::new();
        d.intern("a");
        assert_eq!(d.code_of("a"), Some(0));
        assert_eq!(d.code_of("b"), None);
    }

    #[test]
    fn iter_in_code_order() {
        let mut d = Dictionary::new();
        for s in ["c", "a", "b"] {
            d.intern(s);
        }
        let collected: Vec<(u32, &str)> = d.iter().collect();
        assert_eq!(collected, vec![(0, "c"), (1, "a"), (2, "b")]);
    }

    #[test]
    fn empty_dictionary() {
        let d = Dictionary::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.code_of("x"), None);
    }

    #[test]
    fn many_strings() {
        let mut d = Dictionary::new();
        for i in 0..10_000 {
            let s = format!("key-{i}");
            assert_eq!(d.intern(&s), i as u32);
        }
        assert_eq!(d.get(9_999), "key-9999");
    }
}
