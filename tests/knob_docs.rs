//! Knob/doc drift gate: the `QUERYER_*` environment names the workspace
//! reads, the knob tables of `docs/TUNING.md` and the list below must
//! be the same set.
//! A knob added (or left behind) in one place without the other fails
//! here instead of surfacing as a docs bug later. The same holds for
//! failpoint sites: `failpoints` does not validate site names, so a
//! site named in CI or in TUNING.md that no code fires would silently
//! arm nothing.

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

/// The non-test code under `crates/*/src`: each file's text above its
/// `#[cfg(test)]` module.
fn production_code(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files
        .iter()
        .map(|file| {
            let text = fs::read_to_string(file).unwrap();
            text.split("#[cfg(test)]").next().unwrap().to_owned()
        })
        .collect()
}

/// Names read by non-test code: the quoted `"QUERYER_*"` literals (doc
/// comments mention knobs in backticks, never in quotes; test fixtures
/// such as `QUERYER_NO_SUCH_KNOB` live below the cut).
fn names_read_by_code(root: &Path) -> BTreeSet<String> {
    production_code(root)
        .iter()
        .flat_map(|code| names_after(code, "\""))
        .collect()
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
const KNOBS: [&str; 6] = [
    "QUERYER_DECISION_CACHE_CAP",
    "QUERYER_DELTA_COMPACT_OPS",
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

/// Failpoint sites armed by a `QUERYER_FAILPOINT` spec in CI
/// (`failpoint: "<site>:<action>,…"` matrix entries) or listed in the
/// `QUERYER_FAILPOINT` row of TUNING.md (backticked dotted names).
fn sites_named(root: &Path) -> BTreeSet<String> {
    let ci = fs::read_to_string(root.join(".github/workflows/ci.yml")).unwrap();
    let mut sites: BTreeSet<String> = ci
        .lines()
        .filter_map(|line| line.trim().strip_prefix("failpoint: \""))
        .flat_map(|spec| spec.trim_end_matches('"').split(','))
        .filter_map(|entry| entry.split(':').next())
        .filter(|site| !site.is_empty())
        .map(str::to_owned)
        .collect();
    assert!(!sites.is_empty(), "ci.yml arms no failpoint site");
    let tuning = fs::read_to_string(root.join("docs/TUNING.md")).unwrap();
    let row = tuning
        .lines()
        .find(|line| line.starts_with("| `QUERYER_FAILPOINT`"))
        .expect("TUNING.md documents QUERYER_FAILPOINT");
    sites.extend(
        row.split('`')
            .skip(1)
            .step_by(2)
            .filter(|name| {
                name.contains('.')
                    && name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c == '.' || c == '-')
            })
            .map(str::to_owned),
    );
    sites
}

#[test]
fn every_named_failpoint_site_is_fired_by_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Comment lines may quote a site (as an example) without firing it.
    let code: Vec<String> = production_code(root)
        .iter()
        .flat_map(|text| text.lines())
        .filter(|line| !line.trim_start().starts_with("//"))
        .map(str::to_owned)
        .collect();
    let dead: Vec<String> = sites_named(root)
        .into_iter()
        .filter(|site| {
            let literal = format!("\"{site}\"");
            !code.iter().any(|line| line.contains(&literal))
        })
        .collect();
    assert!(
        dead.is_empty(),
        "failpoint sites named in ci.yml or TUNING.md that no code under \
         crates/*/src fires: {dead:?}"
    );
}
