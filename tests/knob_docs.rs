//! Knob/doc drift gate: the `QUERYER_*` environment names the workspace
//! reads, the knob tables of `docs/TUNING.md` and the list below must
//! be the same set.
//! A knob added (or left behind) in one place without the other fails
//! here instead of surfacing as a docs bug later.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `QUERYER_*` token of `text` that follows `opener`.
fn names_after(text: &str, opener: &str) -> BTreeSet<String> {
    let prefix = format!("{opener}QUERYER_");
    text.match_indices(&prefix)
        .map(|(at, _)| {
            text[at + opener.len()..]
                .chars()
                .take_while(|c| c.is_ascii_uppercase() || *c == '_')
                .collect()
        })
        .collect()
}

/// Names read by non-test code under `crates/*/src`: the quoted
/// `"QUERYER_*"` literals above each file's `#[cfg(test)]` module (doc
/// comments mention knobs in backticks, never in quotes; test fixtures
/// such as `QUERYER_NO_SUCH_KNOB` live below the cut).
fn names_read_by_code(root: &Path) -> BTreeSet<String> {
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut names = BTreeSet::new();
    for file in files {
        let text = fs::read_to_string(&file).unwrap();
        let code = text.split("#[cfg(test)]").next().unwrap();
        names.extend(names_after(code, "\""));
    }
    names
}

/// Names with a row in a TUNING.md knob table (``| `QUERYER_*` | …``).
fn names_documented(root: &Path) -> BTreeSet<String> {
    let text = fs::read_to_string(root.join("docs/TUNING.md")).unwrap();
    text.lines()
        .filter(|line| line.starts_with("| `QUERYER_"))
        .flat_map(|line| names_after(line, "| `"))
        .collect()
}

/// The knob set itself. A new knob means editing this list, in a test
/// that says how many there are.
const KNOBS: [&str; 8] = [
    "QUERYER_DECISION_CACHE_CAP",
    "QUERYER_DELTA_COMPACT_OPS",
    "QUERYER_EP_CACHE",
    "QUERYER_EP_CACHE_CAP",
    "QUERYER_FAILPOINT",
    "QUERYER_PROPTEST_CASES",
    "QUERYER_SCALE",
    "QUERYER_THREADS",
];

#[test]
fn tuning_md_documents_exactly_the_knobs_the_code_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = names_read_by_code(root);
    assert_eq!(read.iter().map(String::as_str).collect::<Vec<_>>(), KNOBS);
    let documented = names_documented(root);
    let undocumented: Vec<_> = read.difference(&documented).collect();
    let unread: Vec<_> = documented.difference(&read).collect();
    assert!(
        undocumented.is_empty() && unread.is_empty(),
        "docs/TUNING.md and the code disagree — read but undocumented: \
         {undocumented:?}; documented but never read: {unread:?}"
    );
}
