//! Schema-agnostic tokenization for Token Blocking (Sec. 6.1(i)).
//!
//! The paper's example tokenizes on whitespace, keeping inner punctuation
//! ("Collective E.R." → `collective`, `e.r.` → blocks `b_Collective`,
//! `b_E.R.`). We follow that: split on whitespace, trim leading/trailing
//! punctuation, lowercase.
//!
//! # One pass per record
//!
//! [`RecordTokenizer::tokenize`] is the one per-record tokenization:
//! index build phase 1, a delta's re-tokenization of its touched rows,
//! and the key positions behind a delta's rebuild order all call it. It
//! renders each value once and yields the record's distinct blocking
//! keys, its distinct profile tokens and, on request, its lowered
//! attribute text with [`AttrMeta`]. Tokens are lowercased into one
//! buffer the tokenizer reuses — ASCII tokens in place, others by
//! `str::to_lowercase` — so a token occurrence allocates nothing. Under
//! Token Blocking the profile tokens are the key set itself; n-gram
//! keys are cut from the same lowered tokens.
//!
//! Iteration order. A record's key set iterates in an order that fixes
//! block ids (a key takes the next id where it is first seen, in record
//! order and then key-iteration order) and the rebuild order a delta
//! restores. That order is a function of the set's hash-table layout,
//! which follows from the keys' hashes, the order of the inserts and
//! the capacity reserved before them. The set here is an
//! `FxHashSet<&str>` over the buffer; `&str` hashes like `String`, and
//! each column extends a fresh per-record set with exactly that
//! column's tokens, so `extend` reserves what it would for the same
//! inserts into an `FxHashSet<String>`. The layout, hence the order, is
//! the one every earlier build gave.

use crate::config::{BlockingKind, ErConfig};
use crate::index::AttrMeta;
use queryer_common::FxHashSet;
use queryer_storage::Record;

/// The whitespace-separated tokens of a value with leading and trailing
/// non-alphanumerics trimmed, in their original case. A token of
/// punctuation only trims to nothing and is dropped.
fn raw_tokens(value: &str) -> impl Iterator<Item = &str> {
    value
        .split_whitespace()
        .map(|raw| raw.trim_matches(|c: char| !c.is_alphanumeric()))
        .filter(|tok| !tok.is_empty())
}

/// Extracts blocking tokens from one attribute value. `min_len` is
/// compared with the byte length of the trimmed token before it is
/// lowercased.
pub fn tokens_of(value: &str, min_len: usize, out: &mut Vec<String>) {
    out.extend(
        raw_tokens(value)
            .filter(|tok| tok.len() >= min_len)
            .map(str::to_lowercase),
    );
}

/// Extracts character n-gram blocking keys: every length-`n` substring
/// of every (lowercased, trimmed) token; tokens shorter than `n` key as
/// themselves. Every token counts, however short: a minimum token
/// length does not apply to n-gram keys.
pub fn ngrams_of(value: &str, n: usize, out: &mut Vec<String>) {
    let n = n.max(1);
    let mut tokens = Vec::new();
    tokens_of(value, 1, &mut tokens);
    for tok in tokens {
        let chars: Vec<char> = tok.chars().collect();
        if chars.len() <= n {
            out.push(tok);
        } else {
            for w in chars.windows(n) {
                out.push(w.iter().collect());
            }
        }
    }
}

/// Extracts blocking keys per the configured blocking function.
pub fn keys_of(value: &str, kind: BlockingKind, min_len: usize, out: &mut Vec<String>) {
    match kind {
        BlockingKind::Token => tokens_of(value, min_len, out),
        BlockingKind::NGram(n) => ngrams_of(value, n, out),
    }
}

/// Per record × column, record-major: the lowered attribute text
/// (`None` for NULLs and the skipped id column) and its kernel metadata.
#[derive(Debug, Default)]
pub struct AttrColumns {
    /// Lowered rendered text per column.
    pub lower: Vec<Option<Box<str>>>,
    /// Kernel metadata aligned with `lower`.
    pub meta: Vec<AttrMeta>,
}

impl AttrColumns {
    /// Empty columns with room for `n` attributes.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            lower: Vec::with_capacity(n),
            meta: Vec::with_capacity(n),
        }
    }

    /// Appends one attribute: `None` for a NULL or skipped one, else its
    /// rendered text, which is lowered here.
    fn push(&mut self, text: Option<&str>) {
        match text {
            None => {
                self.lower.push(None);
                self.meta.push(AttrMeta::default());
            }
            Some(text) => {
                let lowered = text.to_lowercase().into_boxed_str();
                self.meta.push(AttrMeta::of(&lowered));
                self.lower.push(Some(lowered));
            }
        }
    }
}

/// One record's distinct blocking keys and profile tokens, borrowing the
/// [`RecordTokenizer`] that produced them.
#[derive(Debug)]
pub struct RecordTokens<'a> {
    keys: FxHashSet<&'a str>,
    /// The profile tokens under n-gram blocking; `None` under Token
    /// Blocking, where they are `keys`.
    tokens: Option<FxHashSet<&'a str>>,
}

impl<'a> RecordTokens<'a> {
    /// The distinct blocking keys, iterating in the record's key order.
    pub fn keys(&self) -> &FxHashSet<&'a str> {
        &self.keys
    }

    /// The distinct profile tokens ("every token from every value of
    /// every entity is treated as blocking key").
    pub fn tokens(&self) -> &FxHashSet<&'a str> {
        self.tokens.as_ref().unwrap_or(&self.keys)
    }
}

/// Tokenizes records per an [`ErConfig`], skipping the optional id
/// column; one instance serves any number of records and reuses its
/// buffers (see the module docs).
#[derive(Debug)]
pub struct RecordTokenizer {
    kind: BlockingKind,
    min_len: usize,
    skip_col: Option<usize>,
    /// The current record's lowered tokens, back to back.
    text: String,
    /// Byte spans in `text` of the profile tokens, in emission order.
    tokens: Vec<(usize, usize)>,
    /// Byte spans in `text` of the n-gram keys (n-gram blocking only).
    grams: Vec<(usize, usize)>,
    /// Per column that renders non-empty, where its runs in `tokens` and
    /// `grams` end.
    cols: Vec<(usize, usize)>,
    /// Char boundaries of one token (n-gram scratch).
    bounds: Vec<usize>,
}

impl RecordTokenizer {
    /// A tokenizer for `cfg`'s blocking function and minimum token
    /// length that skips column `skip_col`.
    pub fn new(cfg: &ErConfig, skip_col: Option<usize>) -> Self {
        Self {
            kind: cfg.blocking,
            min_len: cfg.min_token_len,
            skip_col,
            text: String::new(),
            tokens: Vec::new(),
            grams: Vec::new(),
            cols: Vec::new(),
            bounds: Vec::new(),
        }
    }

    /// Tokenizes one record: its keys and tokens are returned, and with
    /// `attrs` its lowered attributes are appended there, one per column.
    pub fn tokenize(
        &mut self,
        record: &Record,
        mut attrs: Option<&mut AttrColumns>,
    ) -> RecordTokens<'_> {
        self.text.clear();
        self.tokens.clear();
        self.grams.clear();
        self.cols.clear();
        let n = match self.kind {
            BlockingKind::Token => None,
            BlockingKind::NGram(n) => Some(n.max(1)),
        };
        for (i, v) in record.values.iter().enumerate() {
            if Some(i) == self.skip_col {
                if let Some(attrs) = attrs.as_deref_mut() {
                    attrs.push(None);
                }
                continue;
            }
            let rendered = v.render();
            if let Some(attrs) = attrs.as_deref_mut() {
                attrs.push((!v.is_null()).then_some(&*rendered));
            }
            if rendered.is_empty() {
                continue;
            }
            for tok in raw_tokens(&rendered) {
                // N-grams slide over every token, however short.
                let is_token = tok.len() >= self.min_len;
                if !is_token && n.is_none() {
                    continue;
                }
                let at = self.text.len();
                if tok.is_ascii() {
                    self.text.push_str(tok);
                    self.text[at..].make_ascii_lowercase();
                } else {
                    self.text.push_str(&tok.to_lowercase());
                }
                let span = (at, self.text.len());
                if is_token {
                    self.tokens.push(span);
                }
                if let Some(n) = n {
                    self.push_grams(span, n);
                }
            }
            self.cols.push((self.tokens.len(), self.grams.len()));
        }
        let tokens = column_set(&self.text, &self.tokens, self.cols.iter().map(|c| c.0));
        match n {
            None => RecordTokens {
                keys: tokens,
                tokens: None,
            },
            Some(_) => RecordTokens {
                keys: column_set(&self.text, &self.grams, self.cols.iter().map(|c| c.1)),
                tokens: Some(tokens),
            },
        }
    }

    /// Appends the n-gram spans of the lowered token at `span`: every
    /// window of `n` chars, or the whole token when it has at most `n`.
    fn push_grams(&mut self, (start, end): (usize, usize), n: usize) {
        self.bounds.clear();
        self.bounds
            .extend(self.text[start..end].char_indices().map(|(i, _)| start + i));
        self.bounds.push(end);
        if self.bounds.len() <= n + 1 {
            self.grams.push((start, end));
        } else {
            self.grams
                .extend(self.bounds.windows(n + 1).map(|w| (w[0], w[n])));
        }
    }
}

/// The set of the `spans` of `text`, extended once per column with that
/// column's run (`ends` are the runs' ends): the same reserves as the
/// same inserts into an `FxHashSet<String>`, hence the same iteration
/// order (module docs).
fn column_set<'t>(
    text: &'t str,
    spans: &[(usize, usize)],
    ends: impl Iterator<Item = usize>,
) -> FxHashSet<&'t str> {
    let mut set = FxHashSet::default();
    let mut at = 0;
    for end in ends {
        set.extend(spans[at..end].iter().map(|&(s, e)| &text[s..e]));
        at = end;
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use queryer_storage::Value;

    #[test]
    fn splits_on_whitespace_keeps_inner_punct() {
        let mut out = Vec::new();
        tokens_of("Collective E.R. resolution", 1, &mut out);
        assert_eq!(out, vec!["collective", "e.r", "resolution"]);
    }

    #[test]
    fn trims_outer_punctuation() {
        let mut out = Vec::new();
        tokens_of("(EDBT), 2008!", 1, &mut out);
        assert_eq!(out, vec!["edbt", "2008"]);
    }

    #[test]
    fn min_len_filters() {
        let mut out = Vec::new();
        tokens_of("a bb ccc", 2, &mut out);
        assert_eq!(out, vec!["bb", "ccc"]);
    }

    #[test]
    fn pure_punct_token_dropped() {
        let mut out = Vec::new();
        tokens_of("--- ... x", 1, &mut out);
        assert_eq!(out, vec!["x"]);
    }

    #[test]
    fn tokenizer_skips_id_and_nulls() {
        let r = Record::new(
            0,
            vec![Value::Int(42), Value::str("Entity Resolution"), Value::Null],
        );
        let mut tokenizer = RecordTokenizer::new(&ErConfig::default(), Some(0));
        let mut attrs = AttrColumns::default();
        let rec = tokenizer.tokenize(&r, Some(&mut attrs));
        let toks = rec.tokens();
        assert!(toks.contains("entity"));
        assert!(toks.contains("resolution"));
        assert!(!toks.contains("42"));
        assert_eq!(toks.len(), 2);
        assert_eq!(
            attrs.lower,
            vec![None, Some("entity resolution".into()), None]
        );
    }

    #[test]
    fn tokenizer_dedups_across_attributes() {
        let r = Record::new(0, vec![Value::str("data data"), Value::str("Data")]);
        let mut tokenizer = RecordTokenizer::new(&ErConfig::default(), None);
        assert_eq!(tokenizer.tokenize(&r, None).tokens().len(), 1);
    }

    #[test]
    fn ngram_keys_ignore_min_token_len_but_tokens_keep_it() {
        // `ÉR` is three bytes long, so it passes a minimum of 3.
        let r = Record::new(0, vec![Value::str("ÉR on Data")]);
        let cfg = ErConfig {
            blocking: BlockingKind::NGram(3),
            min_token_len: 3,
            ..ErConfig::default()
        };
        let mut tokenizer = RecordTokenizer::new(&cfg, None);
        let rec = tokenizer.tokenize(&r, None);
        let mut keys: Vec<&str> = rec.keys().iter().copied().collect();
        keys.sort_unstable();
        assert_eq!(keys, vec!["ata", "dat", "on", "ér"]);
        let mut tokens: Vec<&str> = rec.tokens().iter().copied().collect();
        tokens.sort_unstable();
        assert_eq!(tokens, vec!["data", "ér"]);
    }

    #[test]
    fn ngrams_slide_over_tokens() {
        let mut out = Vec::new();
        ngrams_of("edbt 2008", 3, &mut out);
        assert_eq!(out, vec!["edb", "dbt", "200", "008"]);
    }

    #[test]
    fn short_tokens_key_as_themselves() {
        let mut out = Vec::new();
        ngrams_of("er on data", 3, &mut out);
        assert!(out.contains(&"er".to_string()));
        assert!(out.contains(&"on".to_string()));
        assert!(out.contains(&"dat".to_string()));
    }

    #[test]
    fn ngram_keys_overlap_under_typos() {
        // The motivation for n-gram blocking: a one-character typo still
        // shares most n-grams, while token blocking loses the key.
        let mut a = Vec::new();
        let mut b = Vec::new();
        ngrams_of("resolution", 3, &mut a);
        ngrams_of("resolutoin", 3, &mut b);
        let common = a.iter().filter(|g| b.contains(g)).count();
        assert!(common >= 5, "typo variants share n-grams: {common}");
    }

    #[test]
    fn keys_of_dispatches_by_kind() {
        let mut toks = Vec::new();
        keys_of("hello world", BlockingKind::Token, 1, &mut toks);
        assert_eq!(toks, vec!["hello", "world"]);
        let mut grams = Vec::new();
        keys_of("hello world", BlockingKind::NGram(4), 1, &mut grams);
        assert!(grams.contains(&"hell".to_string()));
        assert!(grams.contains(&"orld".to_string()));
    }
}
