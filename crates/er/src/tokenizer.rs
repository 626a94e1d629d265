//! Schema-agnostic tokenization for Token Blocking (Sec. 6.1(i)).
//!
//! The paper's example tokenizes on whitespace, keeping inner punctuation
//! ("Collective E.R." → `collective`, `e.r.` → blocks `b_Collective`,
//! `b_E.R.`). We follow that: split on whitespace, trim leading/trailing
//! punctuation, lowercase.

use crate::config::BlockingKind;
use queryer_common::FxHashSet;
use queryer_storage::Record;

/// Extracts blocking tokens from one attribute value.
pub fn tokens_of(value: &str, min_len: usize, out: &mut Vec<String>) {
    for raw in value.split_whitespace() {
        let tok = raw.trim_matches(|c: char| !c.is_alphanumeric());
        if tok.len() >= min_len && !tok.is_empty() {
            out.push(tok.to_lowercase());
        }
    }
}

/// Extracts character n-gram blocking keys: every length-`n` substring
/// of every (lowercased, trimmed) token; tokens shorter than `n` key as
/// themselves.
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

/// Distinct blocking keys of a whole record per the configured blocking
/// function, skipping the optional id column.
pub fn record_keys(
    record: &Record,
    kind: BlockingKind,
    min_len: usize,
    skip_col: Option<usize>,
) -> FxHashSet<String> {
    let mut set = FxHashSet::default();
    let mut buf = Vec::new();
    for (i, v) in record.values.iter().enumerate() {
        if Some(i) == skip_col {
            continue;
        }
        let rendered = v.render();
        if rendered.is_empty() {
            continue;
        }
        buf.clear();
        keys_of(&rendered, kind, min_len, &mut buf);
        set.extend(buf.drain(..));
    }
    set
}

/// Distinct blocking tokens of a whole record across all attributes
/// ("every token from every value of every entity is treated as blocking
/// key"), skipping the optional id column.
pub fn record_tokens(
    record: &Record,
    min_len: usize,
    skip_col: Option<usize>,
) -> FxHashSet<String> {
    let mut set = FxHashSet::default();
    let mut buf = Vec::new();
    for (i, v) in record.values.iter().enumerate() {
        if Some(i) == skip_col {
            continue;
        }
        let rendered = v.render();
        if rendered.is_empty() {
            continue;
        }
        buf.clear();
        tokens_of(&rendered, min_len, &mut buf);
        set.extend(buf.drain(..));
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
    fn record_tokens_skip_id_and_nulls() {
        let r = Record::new(
            0,
            vec![Value::Int(42), Value::str("Entity Resolution"), Value::Null],
        );
        let toks = record_tokens(&r, 1, Some(0));
        assert!(toks.contains("entity"));
        assert!(toks.contains("resolution"));
        assert!(!toks.contains("42"));
        assert_eq!(toks.len(), 2);
    }

    #[test]
    fn record_tokens_dedup_across_attributes() {
        let r = Record::new(0, vec![Value::str("data data"), Value::str("Data")]);
        let toks = record_tokens(&r, 1, None);
        assert_eq!(toks.len(), 1);
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
