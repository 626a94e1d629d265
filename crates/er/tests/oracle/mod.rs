//! The two-pass record tokenization the index build used before it
//! tokenized each record once: a test-side oracle for
//! `RecordTokenizer`, built from the value-level `keys_of`.

use queryer_common::FxHashSet;
use queryer_er::tokenizer::keys_of;
use queryer_er::BlockingKind;
use queryer_storage::Record;

/// Distinct blocking keys of a whole record per the configured blocking
/// function, skipping the optional id column. The set iterates in the
/// record's key order.
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

/// Distinct profile tokens of a whole record across all attributes,
/// skipping the optional id column.
pub fn record_tokens(
    record: &Record,
    min_len: usize,
    skip_col: Option<usize>,
) -> FxHashSet<String> {
    record_keys(record, BlockingKind::Token, min_len, skip_col)
}
