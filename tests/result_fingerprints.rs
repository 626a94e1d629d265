//! Every answer of a fixed query set, pinned: one FNV-64 per (query,
//! execution mode) over the column labels and the `{:?}` of every row,
//! of a cold run and then a warm run on the same engine. `{:?}` keeps
//! float bits, NaN and `-0.0`, so any change of a value, its type, the
//! row order or the row count changes the fingerprint; a query a mode
//! rejects fingerprints its error text.
//!
//! The tables are small and fixed: a `scholarly::dblp_scholar` table for
//! the single-table shapes, and an `openaire` organisations / projects
//! pair for the dedup-joins.

use queryer::common::Fnv64;
use queryer::core::engine::{ExecMode, QueryEngine};
use queryer::datagen::{openaire, scholarly};
use queryer::prelude::*;

/// Every strategy, in the column order of the expected tables.
const MODES: [ExecMode; 8] = [
    ExecMode::Auto,
    ExecMode::Plain,
    ExecMode::Nes,
    ExecMode::NesEager,
    ExecMode::Aes,
    ExecMode::AesDirtyLeft,
    ExecMode::AesDirtyRight,
    ExecMode::Batch,
];

/// Single-table shapes over `dsd` (id, title, authors, venue, year).
const SP_QUERIES: [&str; 9] = [
    "SELECT DEDUP * FROM dsd WHERE id = 17",
    "SELECT DEDUP * FROM dsd WHERE id >= 40 AND id < 160",
    "SELECT DEDUP title, year FROM dsd WHERE year BETWEEN 2001 AND 2006",
    "SELECT DEDUP id, title, venue FROM dsd WHERE title LIKE '%data%' OR venue LIKE 'vl%'",
    "SELECT DEDUP COUNT(*), COUNT(year), MIN(year), MAX(year), SUM(year), AVG(year) \
     FROM dsd WHERE id < 150",
    "SELECT DEDUP venue, title FROM dsd WHERE year >= 2010 LIMIT 7",
    "SELECT title, MOD(year, 7), year FROM dsd WHERE id < 60 AND year IS NOT NULL",
    "SELECT DEDUP year, id, authors FROM dsd WHERE year IN (1999, 2003, 2011) AND NOT id > 250",
    "SELECT DEDUP * FROM dsd",
];

/// Dedup-joins over `oap` (id, title, acronym, funder, start_year,
/// end_year, budget, org, country) and `oao` (id, name, country, city).
const SPJ_QUERIES: [&str; 6] = [
    "SELECT DEDUP * FROM oap INNER JOIN oao ON oap.org = oao.name WHERE oap.id < 120",
    "SELECT DEDUP oap.title, oao.name, oap.start_year FROM oap INNER JOIN oao \
     ON oap.org = oao.name WHERE oap.id >= 50 AND oap.id < 200 AND oap.country <> oao.country",
    "SELECT DEDUP COUNT(*), MIN(oap.start_year), MAX(oap.end_year) FROM oap INNER JOIN oao \
     ON oap.org = oao.name WHERE oap.id < 180",
    "SELECT DEDUP oao.name, oap.acronym FROM oap INNER JOIN oao ON oap.org = oao.name \
     WHERE oap.id < 220 AND (oap.country = oao.country OR oap.start_year >= 2015) LIMIT 25",
    "SELECT DEDUP oao.name, oap.title FROM oao INNER JOIN oap ON oao.name = oap.org \
     WHERE oao.id < 40",
    "SELECT oap.id, oao.city FROM oap INNER JOIN oao ON oap.org = oao.name \
     WHERE oap.budget > 2500000 AND oao.id <> oap.id",
];

/// One row per query of [`SP_QUERIES`], one column per mode of [`MODES`].
#[rustfmt::skip]
const SP_EXPECTED: [[u64; 8]; 9] = [
    [0x5ea2fc2ab43cf1ef, 0x5ea2fc2ab43cf1ef, 0x5ea2fc2ab43cf1ef, 0x5ea2fc2ab43cf1ef, 0x5ea2fc2ab43cf1ef, 0x5ea2fc2ab43cf1ef, 0x5ea2fc2ab43cf1ef, 0x5ea2fc2ab43cf1ef],
    [0xad4d6ea18bf19d95, 0x98a4471a49e62c05, 0xad4d6ea18bf19d95, 0xad4d6ea18bf19d95, 0xad4d6ea18bf19d95, 0xad4d6ea18bf19d95, 0xad4d6ea18bf19d95, 0xad4d6ea18bf19d95],
    [0xf3aa152ea4405657, 0x4194efa094d06499, 0xf3aa152ea4405657, 0xf3aa152ea4405657, 0xf3aa152ea4405657, 0xf3aa152ea4405657, 0xf3aa152ea4405657, 0xf3aa152ea4405657],
    [0xac118603beff605d, 0xef57ed78ab03faad, 0xac118603beff605d, 0xac118603beff605d, 0xac118603beff605d, 0xac118603beff605d, 0xac118603beff605d, 0xac118603beff605d],
    [0x2ee40a14f390fc7f, 0xdb60d7e43bbf1e9d, 0x2ee40a14f390fc7f, 0x2ee40a14f390fc7f, 0x2ee40a14f390fc7f, 0x2ee40a14f390fc7f, 0x2ee40a14f390fc7f, 0x2ee40a14f390fc7f],
    [0xce2643575cf98f99, 0xbd1050287d52b899, 0xce2643575cf98f99, 0xce2643575cf98f99, 0xce2643575cf98f99, 0xce2643575cf98f99, 0xce2643575cf98f99, 0xce2643575cf98f99],
    [0x15e44cadb3593dc9, 0x15e44cadb3593dc9, 0xe4a03e0616fe066d, 0xe4a03e0616fe066d, 0xe4a03e0616fe066d, 0xe4a03e0616fe066d, 0xe4a03e0616fe066d, 0xe4a03e0616fe066d],
    [0x434bfc59597aaa85, 0x6f0080df6e50ff27, 0x434bfc59597aaa85, 0x434bfc59597aaa85, 0x434bfc59597aaa85, 0x434bfc59597aaa85, 0x434bfc59597aaa85, 0x434bfc59597aaa85],
    [0x62f71ff49ca0a9b5, 0x120e02bd0c66c171, 0x62f71ff49ca0a9b5, 0x62f71ff49ca0a9b5, 0x62f71ff49ca0a9b5, 0x62f71ff49ca0a9b5, 0x62f71ff49ca0a9b5, 0x62f71ff49ca0a9b5],
];

/// One row per query of [`SPJ_QUERIES`], one column per mode of [`MODES`].
#[rustfmt::skip]
const SPJ_EXPECTED: [[u64; 8]; 6] = [
    [0x2b85771958252f81, 0xf5e5de9340ea4225, 0x27d920f4d8962ab5, 0x27d920f4d8962ab5, 0x2b85771958252f81, 0x2b85771958252f81, 0x1d72f81ea5cdf6a5, 0x27d920f4d8962ab5],
    [0x86a36c7c7371bac1, 0x1ac5f87104d04fd1, 0xa063ff69adfb9871, 0xa063ff69adfb9871, 0x86a36c7c7371bac1, 0x86a36c7c7371bac1, 0xa063ff69adfb9871, 0xa063ff69adfb9871],
    [0x4c23d9608ec3ea7b, 0x0e0516355f64d439, 0x4c23d9608ec3ea7b, 0x4c23d9608ec3ea7b, 0x4c23d9608ec3ea7b, 0x4c23d9608ec3ea7b, 0x4c23d9608ec3ea7b, 0x4c23d9608ec3ea7b],
    [0xdfed6d7d948b25c5, 0xb62cc1740bc0e7dd, 0xa9938534a4ebd411, 0xa9938534a4ebd411, 0xdfed6d7d948b25c5, 0xdfed6d7d948b25c5, 0xa9938534a4ebd411, 0xa9938534a4ebd411],
    [0x95a27aefab2043cb, 0x04657ffe1ab296eb, 0xb3b86d2fe6f823d3, 0xb3b86d2fe6f823d3, 0x95a27aefab2043cb, 0x0971bc0e3996f4cf, 0x95a27aefab2043cb, 0xb3b86d2fe6f823d3],
    [0x647540c9ad96d75d, 0x647540c9ad96d75d, 0xa4a863fb14a54535, 0xa4a863fb14a54535, 0x775d4846066cd04d, 0x775d4846066cd04d, 0x5a12d21850de73f1, 0xa4a863fb14a54535],
];

fn sp_engine() -> QueryEngine {
    let mut e = QueryEngine::new(ErConfig::default());
    e.register_table(scholarly::dblp_scholar(300, 7).table)
        .unwrap();
    e
}

fn spj_engine() -> QueryEngine {
    let orgs = openaire::organizations(100, 5);
    let projects = openaire::projects(250, 6, &orgs);
    let mut e = QueryEngine::new(ErConfig::default());
    e.register_table(orgs.table).unwrap();
    e.register_table(projects.table).unwrap();
    e
}

/// The fingerprint of `sql` under `mode`: a run from an empty Link
/// Index, then a second run over the Link Index the first one left.
fn fingerprint(e: &QueryEngine, sql: &str, mode: ExecMode) -> u64 {
    e.clear_link_indices();
    let mut h = Fnv64::new();
    for _run in ["cold", "warm"] {
        match e.execute_with(sql, mode) {
            Ok(result) => {
                h.update_u64(result.columns.len() as u64);
                for label in &result.columns {
                    h.update_framed(label.as_bytes());
                }
                h.update_u64(result.rows.len() as u64);
                for row in &result.rows {
                    h.update_framed(format!("{row:?}").as_bytes());
                }
            }
            Err(err) => h.update_framed(format!("error: {err}").as_bytes()),
        }
    }
    h.finish()
}

/// Compares every (query, mode) fingerprint and reports all mismatches
/// at once, with the full table of what was computed.
fn check<const Q: usize>(e: &QueryEngine, queries: &[&str; Q], expected: &[[u64; 8]; Q]) {
    let got: Vec<[u64; 8]> = queries
        .iter()
        .map(|sql| MODES.map(|mode| fingerprint(e, sql, mode)))
        .collect();
    let mismatches: Vec<String> = queries
        .iter()
        .enumerate()
        .flat_map(|(q, sql)| {
            let got = &got[q];
            MODES
                .iter()
                .enumerate()
                .filter(move |&(m, _)| got[m] != expected[q][m])
                .map(move |(_, mode)| format!("{} on {sql}", mode.label()))
        })
        .collect();
    let table: Vec<String> = got
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|f| format!("0x{f:016x}")).collect();
            format!("    [{}],", cells.join(", "))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} fingerprints changed:\n  {}\ncomputed:\n{}",
        mismatches.len(),
        mismatches.join("\n  "),
        table.join("\n")
    );
}

#[test]
fn single_table_answers_are_pinned() {
    check(&sp_engine(), &SP_QUERIES, &SP_EXPECTED);
}

#[test]
fn dedup_join_answers_are_pinned() {
    check(&spj_engine(), &SPJ_QUERIES, &SPJ_EXPECTED);
}
