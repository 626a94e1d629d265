//! Property-based tests on the ER substrate's core invariants.

use proptest::prelude::*;
use queryer_common::knobs::proptest_cases;
use queryer_er::similarity::{
    jaccard_sorted, jaro, jaro_winkler, levenshtein, levenshtein_sim, overlap_sorted,
};
use queryer_er::{DedupMetrics, ErConfig, LinkIndex, ResolveRequest, TableErIndex};
use queryer_storage::{Schema, Table};

fn word() -> impl Strategy<Value = String> {
    "[a-z]{0,12}"
}

proptest! {
    #![proptest_config(ProptestConfig {
        // QUERYER_PROPTEST_CASES scales the suite (the resolution
        // property below runs full cleanings per case).
        cases: proptest_cases(256),
        .. ProptestConfig::default()
    })]

    #[test]
    fn jaro_bounded_symmetric_reflexive(a in word(), b in word()) {
        let s = jaro(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!((jaro(&b, &a) - s).abs() < 1e-12, "symmetry");
        prop_assert!((jaro(&a, &a) - 1.0).abs() < 1e-12, "identity");
    }

    #[test]
    fn jaro_winkler_dominates_jaro(a in word(), b in word()) {
        let j = jaro(&a, &b);
        let jw = jaro_winkler(&a, &b);
        prop_assert!(jw + 1e-12 >= j, "prefix boost never lowers similarity");
        prop_assert!(jw <= 1.0 + 1e-12);
    }

    #[test]
    fn levenshtein_metric_axioms(a in word(), b in word(), c in word()) {
        let ab = levenshtein(&a, &b);
        let ba = levenshtein(&b, &a);
        prop_assert_eq!(ab, ba, "symmetry");
        prop_assert_eq!(levenshtein(&a, &a), 0, "identity");
        // Triangle inequality.
        let ac = levenshtein(&a, &c);
        let cb = levenshtein(&c, &b);
        prop_assert!(ab <= ac + cb, "triangle: {} > {} + {}", ab, ac, cb);
        // Length difference lower bound.
        let diff = a.chars().count().abs_diff(b.chars().count());
        prop_assert!(ab >= diff);
        prop_assert!((0.0..=1.0).contains(&levenshtein_sim(&a, &b)));
    }

    #[test]
    fn set_similarities_bounded(
        mut xs in proptest::collection::vec(word(), 0..8),
        mut ys in proptest::collection::vec(word(), 0..8),
    ) {
        xs.sort();
        xs.dedup();
        ys.sort();
        ys.dedup();
        let xr: Vec<&str> = xs.iter().map(String::as_str).collect();
        let yr: Vec<&str> = ys.iter().map(String::as_str).collect();
        let j = jaccard_sorted(&xr, &yr);
        let o = overlap_sorted(&xr, &yr);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert!((0.0..=1.0).contains(&o));
        prop_assert!(o + 1e-12 >= j, "overlap coefficient dominates jaccard");
        prop_assert!((jaccard_sorted(&xr, &xr) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn link_index_labels_match_naive_connectivity(
        n in 2usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40), 0..60),
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(a, b)| ((a % n) as u32, (b % n) as u32))
            .collect();
        let mut li = LinkIndex::new(n);
        for &(a, b) in &edges {
            li.add_link(a, b);
        }
        // Naive reference: repeated relabeling.
        let mut label: Vec<u32> = (0..n as u32).collect();
        loop {
            let mut changed = false;
            for &(a, b) in &edges {
                let (la, lb) = (label[a as usize], label[b as usize]);
                let m = la.min(lb);
                if la != m || lb != m {
                    label[a as usize] = m;
                    label[b as usize] = m;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Every record seeded: the members are the whole table, and each
        // label is the oracle's minimum label and its closure's minimum.
        let (members, labels) = li.labelled_closure(0..n as u32);
        prop_assert_eq!(&members, &(0..n as u32).collect::<Vec<_>>());
        prop_assert_eq!(&labels, &label);
        for &m in &members {
            prop_assert_eq!(li.closure([m])[0], labels[m as usize]);
        }
        // A sparse seed set: the members are the seeds' closure, and the
        // labels still come from whole components.
        let seeds: Vec<u32> = (0..n as u32).filter(|id| id % 3 == 0).collect();
        let (members, labels) = li.labelled_closure(seeds.iter().copied());
        prop_assert_eq!(&members, &li.closure(seeds));
        for (&m, &l) in members.iter().zip(&labels) {
            prop_assert_eq!(l, label[m as usize], "label of {}", m);
        }
    }

    /// Query-stability of the whole resolution pipeline: resolving the
    /// table one random subset at a time yields exactly the same links as
    /// resolving everything at once. This is the determinism the paper's
    /// DQ-correctness argument needs from blocking + meta-blocking.
    #[test]
    fn incremental_resolution_equals_batch(
        seed in 0u64..500,
        rows in 10usize..60,
        split in 1usize..9,
    ) {
        let mut t = Table::new("p", Schema::of_strings(&["id", "name", "city"]));
        for i in 0..rows {
            // Deterministic pseudo-data with duplicates every 3rd row.
            let base = i / 3 * 3;
            let name = format!("person{} alpha{}", base, (base * 7 + seed as usize) % 23);
            let name = if i % 3 == 1 { format!("{name}x") } else { name };
            t.push_row(vec![
                format!("{i}").into(),
                name.into(),
                format!("city{}", (base + seed as usize) % 5).into(),
            ])
            .unwrap();
        }
        let cfg = ErConfig::default();
        let er = TableErIndex::build(&t, &cfg);

        let mut li_batch = LinkIndex::new(rows);
        er.run(ResolveRequest::all(&t, &mut li_batch).metrics(&mut DedupMetrics::default()))
            .unwrap();

        let mut li_inc = LinkIndex::new(rows);
        let pivot = rows * split / 10;
        let first: Vec<u32> = (0..pivot as u32).collect();
        let second: Vec<u32> = (pivot as u32..rows as u32).collect();
        er.run(ResolveRequest::records(&t, &first, &mut li_inc).metrics(&mut DedupMetrics::default()))
            .unwrap();
        er.run(ResolveRequest::records(&t, &second, &mut li_inc).metrics(&mut DedupMetrics::default()))
            .unwrap();

        for a in 0..rows as u32 {
            for b in 0..rows as u32 {
                prop_assert_eq!(
                    li_batch.are_linked(a, b),
                    li_inc.are_linked(a, b),
                    "links diverge at ({}, {})", a, b
                );
            }
        }
    }
}
