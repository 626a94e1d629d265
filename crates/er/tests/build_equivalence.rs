//! Equivalence of the parallel counting-pass index build and the
//! single-threaded build.
//!
//! `TableErIndex::build` tokenizes, interns, and CSR-packs the blocking
//! graph in one sweep chunked across `ErConfig::threads` workers
//! (`QUERYER_THREADS`). The merge re-interns each chunk's local
//! vocabulary in chunk order, which must reproduce the single-threaded
//! first-seen id assignment exactly — so the *entire* index (block keys
//! and ids, CSR buffers in both directions, interned profiles, attribute
//! metadata, WNP thresholds) and every downstream decision is bit-identical
//! for any thread count. These properties pin that, across thread counts
//! 1..8 and corpora including the empty, single-record, and
//! all-duplicate edge cases, and additionally pin the fused sweep's
//! blocking output to the standalone `build_blocks` reference below.
//! The one-pass record tokenizer is pinned to the two-pass oracle in
//! `oracle/mod.rs` over a corpus that exercises its lowercasing and its
//! key iteration order.

#![allow(clippy::field_reassign_with_default)] // config tweaks read clearer as assignments

mod oracle;

use oracle::{record_keys, record_tokens};
use proptest::prelude::*;
use queryer_common::knobs::proptest_cases;
use queryer_common::FxHashMap;
use queryer_er::tokenizer::{AttrColumns, RecordTokenizer};
use queryer_er::{BlockingKind, DedupMetrics, ErConfig, LinkIndex, ResolveRequest, TableErIndex};
use queryer_storage::{RecordId, Schema, Table, Value};

/// Small vocabulary so random records actually share blocking tokens.
const VOCAB: [&str; 12] = [
    "entity",
    "resolution",
    "collective",
    "query",
    "driven",
    "deep",
    "learning",
    "data",
    "big",
    "edbt",
    "vldb",
    "2008",
];

/// Words for the tokenizer oracle: mixed case; tokens of punctuation
/// only or wrapped in it; Greek words whose capital sigma lowercases to
/// the final `ς` only at a word's end; the dotted capital `İ`, whose
/// lowercase is a byte longer and ends in a combining mark; `ß` and its
/// capital; combining marks alone and after a letter; digits.
const MIXED: [&str; 20] = [
    "Entity",
    "RESOLUTION",
    "e.R.",
    "(EDBT),",
    "---",
    "..",
    "ΟΔΟΣ",
    "ΣΟΦΟΣ.",
    "ΣΑΣ-ΣΑΣ",
    "Σ",
    "İstanbul",
    "İ",
    "Straße",
    "ẞ",
    "Cafe\u{301}s",
    "\u{301}",
    "x",
    "ab",
    "2008",
    "DaTa",
];

/// A value of the tokenizer corpus: NULL, an `Int`, a `Float`, or up to
/// five `MIXED` words behind assorted whitespace.
fn mixed_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-300i64..300).prop_map(Value::Int),
        (-40i32..40).prop_map(|k| Value::Float(f64::from(k) * 0.75)),
        proptest::collection::vec((0..MIXED.len(), 0usize..3), 0..6).prop_map(|words| {
            let mut text = String::new();
            for (w, sep) in words {
                text.push_str(["", " ", "\t "][sep]);
                text.push_str(MIXED[w]);
                text.push(' ');
            }
            Value::str(text)
        }),
    ]
}

fn cell() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..VOCAB.len(), 0..4)
}

fn rows() -> impl Strategy<Value = Vec<(Vec<usize>, Vec<usize>)>> {
    proptest::collection::vec((cell(), cell()), 0..24)
}

fn build_table(rows: &[(Vec<usize>, Vec<usize>)]) -> Table {
    let mut t = Table::new("p", Schema::of_strings(&["id", "title", "venue"]));
    for (i, (a, b)) in rows.iter().enumerate() {
        let render = |words: &[usize]| {
            if words.is_empty() {
                Value::Null
            } else {
                let text: Vec<&str> = words.iter().map(|&w| VOCAB[w]).collect();
                Value::str(text.join(" "))
            }
        };
        t.push_row(vec![format!("{i}").into(), render(a), render(b)])
            .unwrap();
    }
    t
}

fn cfg_with_threads(threads: usize) -> ErConfig {
    let mut cfg = ErConfig::default();
    cfg.threads = threads;
    cfg
}

/// Asserts that two indexes over the same table are bit-identical in
/// every buffer the build produces: block vocabulary and contents (raw
/// and filtered, both directions), purging decisions, interned profiles,
/// attribute text + metadata, and the WNP threshold vector.
fn assert_same_index(reference: &TableErIndex, parallel: &TableErIndex, label: &str) {
    assert_eq!(reference.n_records(), parallel.n_records(), "{label}");
    assert_eq!(reference.n_blocks(), parallel.n_blocks(), "{label}");
    assert_eq!(
        reference.purge_threshold(),
        parallel.purge_threshold(),
        "{label}"
    );
    assert_eq!(
        reference.interner().len(),
        parallel.interner().len(),
        "{label}"
    );
    for b in 0..reference.n_blocks() as u32 {
        assert_eq!(
            reference.block_key(b),
            parallel.block_key(b),
            "{label}: block {b} key"
        );
        assert_eq!(
            parallel.block_of_key(reference.block_key(b)),
            Some(b),
            "{label}: block {b} reverse lookup"
        );
        assert_eq!(
            reference.raw_block(b),
            parallel.raw_block(b),
            "{label}: raw block {b}"
        );
        assert_eq!(
            reference.filtered_block(b),
            parallel.filtered_block(b),
            "{label}: filtered block {b}"
        );
        assert_eq!(
            reference.is_purged(b),
            parallel.is_purged(b),
            "{label}: purge flag {b}"
        );
    }
    for rid in 0..reference.n_records() as RecordId {
        assert_eq!(
            reference.blocks_of(rid),
            parallel.blocks_of(rid),
            "{label}: ITBI row {rid}"
        );
        assert_eq!(
            reference.retained_blocks(rid),
            parallel.retained_blocks(rid),
            "{label}: retained row {rid}"
        );
        let (rp, pp) = (reference.profile(rid), parallel.profile(rid));
        assert_eq!(rp.tokens, pp.tokens, "{label}: profile tokens {rid}");
        assert_eq!(rp.attrs, pp.attrs, "{label}: lowered attrs {rid}");
        assert_eq!(
            reference.attr_meta(rid),
            parallel.attr_meta(rid),
            "{label}: attr meta {rid}"
        );
        for &sym in rp.tokens {
            assert_eq!(
                reference.interner().resolve(sym),
                parallel.interner().resolve(sym),
                "{label}: symbol {sym} text"
            );
        }
    }
    // The default config runs node-centric EP, so the build swept one
    // threshold per record; compare the bits, not the floats.
    let bits = |idx: &TableErIndex| -> Vec<u64> {
        idx.bulk_ep_thresholds()
            .iter()
            .map(|t| t.to_bits())
            .collect()
    };
    assert_eq!(
        bits(reference).len(),
        reference.n_records(),
        "{label}: one threshold per record"
    );
    assert_eq!(bits(reference), bits(parallel), "{label}: WNP thresholds");
}

/// Resolves the whole table on both indexes and asserts identical
/// decisions, DR sets, and links.
fn assert_same_decisions(reference: &TableErIndex, parallel: &TableErIndex, table: &Table) {
    let qe: Vec<RecordId> = (0..table.len() as RecordId).collect();
    let mut li_a = LinkIndex::new(table.len());
    let mut m_a = DedupMetrics::default();
    let out_a = reference
        .run(ResolveRequest::records(table, &qe, &mut li_a).metrics(&mut m_a))
        .unwrap();
    let mut li_b = LinkIndex::new(table.len());
    let mut m_b = DedupMetrics::default();
    let out_b = parallel
        .run(ResolveRequest::records(table, &qe, &mut li_b).metrics(&mut m_b))
        .unwrap();
    assert_eq!(out_a.dr, out_b.dr);
    assert_eq!(out_a.new_links, out_b.new_links);
    assert_eq!(m_a.candidate_pairs, m_b.candidate_pairs);
    assert_eq!(m_a.comparisons, m_b.comparisons);
    assert_eq!(m_a.matches_found, m_b.matches_found);
    for a in 0..table.len() as RecordId {
        for b in 0..table.len() as RecordId {
            assert_eq!(li_a.are_linked(a, b), li_b.are_linked(a, b));
        }
    }
}

/// Raw token blocks of a table, before any meta-blocking: the block key
/// and the contents (record ids, ascending) per block id.
struct RawBlocks {
    keys: Vec<String>,
    blocks: Vec<Vec<RecordId>>,
}

/// Token Blocking as a standalone pass (Sec. 6.1(i)): apply the blocking
/// function to every record in id order, give each key the next block id
/// at its first occurrence, and append the record to that block.
fn build_blocks(
    table: &Table,
    kind: BlockingKind,
    min_token_len: usize,
    skip_col: Option<usize>,
) -> RawBlocks {
    let mut key_to_block: FxHashMap<String, u32> = FxHashMap::default();
    let mut keys: Vec<String> = Vec::new();
    let mut blocks: Vec<Vec<RecordId>> = Vec::new();
    for record in table.records() {
        for token in record_keys(record, kind, min_token_len, skip_col) {
            let bid = *key_to_block.entry(token.clone()).or_insert_with(|| {
                keys.push(token);
                blocks.push(Vec::new());
                (keys.len() - 1) as u32
            });
            blocks[bid as usize].push(record.id);
        }
    }
    // record_keys deduplicates per record and records are visited in id
    // order, so each block row is already sorted and unique.
    RawBlocks { keys, blocks }
}

/// The fused tokenize sweep must produce exactly the blocking output of
/// the standalone `build_blocks` reference path, for any thread count.
fn assert_matches_build_blocks(idx: &TableErIndex, table: &Table) {
    let cfg = idx.config();
    let skip = idx.skip_col();
    let rb = build_blocks(table, cfg.blocking, cfg.min_token_len, skip);
    assert_eq!(rb.keys.len(), idx.n_blocks());
    for (b, key) in rb.keys.iter().enumerate() {
        assert_eq!(key, idx.block_key(b as u32));
        assert_eq!(rb.blocks[b], idx.raw_block(b as u32));
    }
}

#[test]
fn empty_single_and_all_duplicate_tables() {
    let empty = build_table(&[]);
    let single = build_table(&[(vec![0, 1], vec![9])]);
    let dup_row = (vec![0, 1, 2], vec![9, 11]);
    let all_dupes = build_table(&vec![dup_row; 7]);
    for (name, table) in [
        ("empty", &empty),
        ("single", &single),
        ("all-duplicate", &all_dupes),
    ] {
        let reference = TableErIndex::build(table, &cfg_with_threads(1));
        for threads in 2..=8usize {
            let parallel = TableErIndex::build(table, &cfg_with_threads(threads));
            assert_same_index(&reference, &parallel, &format!("{name} threads={threads}"));
            assert_same_decisions(&reference, &parallel, table);
            assert_matches_build_blocks(&parallel, table);
        }
    }
}

#[test]
fn generated_corpus_across_thread_counts() {
    // A realistic dirty corpus (duplicates + corruptions + shuffling),
    // large enough that every thread count actually splits into several
    // chunks with overlapping vocabularies.
    let ds = queryer_datagen::scholarly::dblp_scholar(400, 7);
    let reference = TableErIndex::build(&ds.table, &cfg_with_threads(1));
    for threads in [2usize, 3, 5, 8] {
        let parallel = TableErIndex::build(&ds.table, &cfg_with_threads(threads));
        assert_same_index(&reference, &parallel, &format!("dsd threads={threads}"));
        assert_matches_build_blocks(&parallel, &ds.table);
    }
    let parallel = TableErIndex::build(&ds.table, &cfg_with_threads(4));
    assert_same_decisions(&reference, &parallel, &ds.table);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: proptest_cases(12),
        .. ProptestConfig::default()
    })]

    /// Every buffer of the parallel build is bit-identical to the
    /// single-threaded build over random corpora and thread counts 1..8.
    #[test]
    fn parallel_build_bit_equals_sequential(
        rows in rows(),
        threads in 1usize..8,
    ) {
        let table = build_table(&rows);
        let reference = TableErIndex::build(&table, &cfg_with_threads(1));
        let parallel = TableErIndex::build(&table, &cfg_with_threads(threads));
        assert_same_index(&reference, &parallel, &format!("threads={threads}"));
        assert_matches_build_blocks(&parallel, &table);
    }

    /// Full-table resolve decisions are independent of the thread
    /// count.
    #[test]
    fn resolve_decisions_independent_of_threads(
        rows in rows(),
        threads in 2usize..8,
    ) {
        let table = build_table(&rows);
        let reference = TableErIndex::build(&table, &cfg_with_threads(1));
        let parallel = TableErIndex::build(&table, &cfg_with_threads(threads));
        assert_same_decisions(&reference, &parallel, &table);
    }

    /// The one-pass tokenizer equals the two-pass oracle on every
    /// record: the key sequence in its iteration order, the token set,
    /// and the lowered attributes. The index built from it has the
    /// oracle's block keys and ids, profiles and attributes, at any
    /// thread count.
    #[test]
    fn one_pass_tokenizer_matches_two_pass_oracle(
        rows in proptest::collection::vec(proptest::collection::vec(mixed_value(), 3), 0..16),
        min_len in 1usize..5,
        ngram in any::<bool>(),
        threads in 1usize..4,
    ) {
        let mut cfg = cfg_with_threads(threads);
        cfg.min_token_len = min_len;
        if ngram {
            cfg.blocking = BlockingKind::NGram(3);
        }
        let mut table = Table::new("p", Schema::of_strings(&["id", "title", "venue"]));
        for row in rows {
            table.push_row(row).unwrap();
        }
        let idx = TableErIndex::build(&table, &cfg);
        let skip = idx.skip_col();
        let mut tokenizer = RecordTokenizer::new(&cfg, skip);
        for record in table.records() {
            let mut attrs = AttrColumns::default();
            let rec = tokenizer.tokenize(record, Some(&mut attrs));
            let keys: Vec<&str> = rec.keys().iter().copied().collect();
            let oracle_keys = record_keys(record, cfg.blocking, min_len, skip);
            let oracle_keys: Vec<&str> = oracle_keys.iter().map(String::as_str).collect();
            prop_assert_eq!(keys, oracle_keys, "key sequence of record {}", record.id);

            let mut tokens: Vec<&str> = rec.tokens().iter().copied().collect();
            tokens.sort_unstable();
            let mut oracle_tokens: Vec<String> =
                record_tokens(record, min_len, skip).into_iter().collect();
            oracle_tokens.sort_unstable();
            prop_assert_eq!(&tokens, &oracle_tokens, "tokens of record {}", record.id);
            let p = idx.profile(record.id);
            let mut interned: Vec<&str> =
                p.tokens.iter().map(|&s| idx.interner().resolve(s)).collect();
            interned.sort_unstable();
            prop_assert_eq!(&interned, &oracle_tokens, "profile of record {}", record.id);

            let lowered: Vec<Option<Box<str>>> = record
                .values
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    (Some(i) != skip && !v.is_null())
                        .then(|| v.render().to_lowercase().into_boxed_str())
                })
                .collect();
            prop_assert_eq!(&attrs.lower, &lowered, "attributes of record {}", record.id);
            prop_assert_eq!(p.attrs, &lowered[..], "stored attributes of record {}", record.id);
            prop_assert_eq!(idx.attr_meta(record.id), &attrs.meta[..]);
        }
        assert_matches_build_blocks(&idx, &table);
    }
}
