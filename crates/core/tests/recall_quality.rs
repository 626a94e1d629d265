//! ER quality gates on generated datasets: the paper reports PC never
//! below 0.82 with a mean of 0.91 (Sec. 9.4). These tests hold the
//! reproduction to the same bar on the synthetic equivalents, and also
//! check precision so matches are not trivially over-linked.

use queryer_common::knobs::proptest_cases;
use queryer_common::FxHashSet;
use queryer_core::engine::{ExecMode, QueryEngine};
use queryer_datagen::{openaire, person, scholarly};
use queryer_er::{ErConfig, ResolveRequest};
use queryer_storage::RecordId;

/// Dataset size for the quality gates, scaled by `QUERYER_PROPTEST_CASES`
/// like the property suites (default 8 → the full 1500 rows; lower
/// values shrink the datasets for quick local loops, floored where the
/// PC/precision bars remain statistically meaningful).
fn scaled_rows() -> usize {
    (1500 * proptest_cases(8) as usize / 8).clamp(400, 30_000)
}

/// Resolves a whole table through the engine and returns (PC, precision).
fn full_clean_quality(ds: &queryer_datagen::Dataset, name: &str) -> (f64, f64) {
    let mut e = QueryEngine::new(ErConfig::default());
    e.register_table(ds.table.clone()).unwrap();
    e.execute_with(&format!("SELECT DEDUP * FROM {name}"), ExecMode::Aes)
        .unwrap();
    let er = e.er_index(name).unwrap();
    // Evaluate the links recorded in the LI.
    let all: Vec<RecordId> = (0..ds.table.len() as RecordId).collect();
    let qe: FxHashSet<RecordId> = all.iter().copied().collect();
    // Re-derive the cluster ids through the public engine pieces.
    let (resolved, links) = e.link_index_stats(name).unwrap();
    assert_eq!(resolved, ds.table.len());
    assert!(links > 0);
    // Access the LI indirectly: compare via a fresh resolve on the index.
    let mut li = queryer_er::LinkIndex::new(ds.table.len());
    let mut m = queryer_er::DedupMetrics::default();
    let outcome = er
        .run(ResolveRequest::all(&ds.table, &mut li).metrics(&mut m))
        .unwrap();
    // DR_E of every record is the whole table: the labels are indexed
    // by record id.
    assert_eq!(outcome.dr, all);
    let cluster = outcome.clusters;
    let pc = ds
        .truth
        .pc_for_qe(&qe, |a, b| cluster[a as usize] == cluster[b as usize]);
    // Precision over predicted same-cluster pairs within true clusters'
    // neighbourhoods is expensive to enumerate exactly; measure over the
    // direct links instead.
    let mut tp = 0usize;
    let mut total = 0usize;
    for a in 0..ds.table.len() as RecordId {
        for &b in li.neighbors(a) {
            if a < b {
                total += 1;
                if ds.truth.is_duplicate(a, b) {
                    tp += 1;
                }
            }
        }
    }
    let precision = if total == 0 {
        1.0
    } else {
        tp as f64 / total as f64
    };
    (pc, precision)
}

#[test]
fn people_recall_meets_paper_bar() {
    let orgs = openaire::organizations(200, 41);
    let ds = person::people(scaled_rows(), 42, &orgs);
    let (pc, precision) = full_clean_quality(&ds, "ppl");
    println!("PPL: pc={pc:.3} precision={precision:.3}");
    assert!(pc >= 0.82, "PC {pc} below the paper's floor");
    assert!(precision >= 0.9, "precision {precision}");
}

#[test]
fn dblp_scholar_recall_meets_paper_bar() {
    let ds = scholarly::dblp_scholar(scaled_rows(), 43);
    let (pc, precision) = full_clean_quality(&ds, "dsd");
    println!("DSD: pc={pc:.3} precision={precision:.3}");
    assert!(pc >= 0.82, "PC {pc}");
    // Bibliographic data with only 4 attributes is the hardest precision
    // case for plain schema-agnostic Jaro-Winkler matching; the paper
    // treats matching as orthogonal and reports no precision at all, so
    // the bar here only guards against degenerate over-linking.
    assert!(precision >= 0.70, "precision {precision}");
}

#[test]
fn oag_papers_recall_meets_paper_bar() {
    let venues = scholarly::oag_venues(150, 44);
    let ds = scholarly::oag_papers(scaled_rows(), 45, &venues);
    let (pc, precision) = full_clean_quality(&ds, "oagp");
    println!("OAGP: pc={pc:.3} precision={precision:.3}");
    assert!(pc >= 0.82, "PC {pc}");
    assert!(precision >= 0.85, "precision {precision}");
}

#[test]
fn projects_recall_meets_paper_bar() {
    let orgs = openaire::organizations(200, 46);
    let ds = openaire::projects(scaled_rows(), 47, &orgs);
    let (pc, precision) = full_clean_quality(&ds, "oap");
    println!("OAP: pc={pc:.3} precision={precision:.3}");
    assert!(pc >= 0.82, "PC {pc}");
    assert!(precision >= 0.85, "precision {precision}");
}
