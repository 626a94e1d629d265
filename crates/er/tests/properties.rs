//! Property-based tests on the ER substrate's core invariants.

use proptest::prelude::*;
use queryer_common::knobs::proptest_cases;
use queryer_er::similarity::{
    jaccard_sorted, jaro, jaro_winkler, levenshtein, levenshtein_sim, overlap_sorted,
};
use queryer_er::{
    open_index_snapshot, write_index_snapshot, Affected, DedupMetrics, ErConfig, LinkDelta,
    LinkIndex, ResolveRequest, TableErIndex,
};
use queryer_storage::{RecordId, Schema, Table};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

fn word() -> impl Strategy<Value = String> {
    "[a-z]{0,12}"
}

/// One change to a Link Index. Ids are reduced modulo the table size
/// when the step runs.
#[derive(Debug, Clone)]
enum LiStep {
    Link(u32, u32),
    Commit(Vec<(u32, u32)>, Vec<u32>),
    Invalidate(Vec<u32>),
    FollowWrite {
        grow: usize,
        ids: Vec<u32>,
        all: bool,
    },
    InvalidateAll,
    Clear,
    Snapshot,
}

fn li_step() -> impl Strategy<Value = LiStep> {
    let ids = || proptest::collection::vec(0u32..64, 0..4);
    let links = proptest::collection::vec((0u32..64, 0u32..64), 1..6);
    // One draw of every operand; `kind` picks the step, links weighing
    // most so that components grow before they are cut.
    (0u32..20, links, ids(), 0usize..4).prop_map(|(kind, links, ids, grow)| match kind {
        0..=7 => LiStep::Link(links[0].0, links[0].1),
        8..=11 => LiStep::Commit(links, ids),
        12..=14 => LiStep::Invalidate(ids),
        15 | 16 => LiStep::FollowWrite {
            grow,
            ids,
            all: kind == 16 && grow == 0,
        },
        17 => LiStep::InvalidateAll,
        18 => LiStep::Clear,
        _ => LiStep::Snapshot,
    })
}

/// What a Link Index's adjacency should be: the table size and the
/// set of links, each as `(low, high)`.
struct LinkModel {
    n: usize,
    edges: BTreeSet<(RecordId, RecordId)>,
}

impl LinkModel {
    /// Adds the link `{a, b}`; `true` if it is new and not a self-link.
    fn link(&mut self, a: RecordId, b: RecordId) -> bool {
        a != b && self.edges.insert((a.min(b), a.max(b)))
    }

    /// `ids` reduced to the table, sorted and distinct.
    fn ids(&self, ids: Vec<u32>) -> Vec<RecordId> {
        let ids: BTreeSet<RecordId> = ids.into_iter().map(|id| id % self.n as u32).collect();
        ids.into_iter().collect()
    }

    /// Drops every link incident to `ids`.
    fn unlink(&mut self, ids: &[RecordId]) {
        self.edges
            .retain(|(a, b)| !ids.contains(a) && !ids.contains(b));
    }

    /// `li`'s adjacency is the model's, and its labels and rings are the
    /// model's connected components, computed from scratch.
    fn check(&self, li: &LinkIndex) -> Result<(), TestCaseError> {
        prop_assert_eq!(li.len(), self.n);
        prop_assert_eq!(li.link_count(), self.edges.len());
        let mut adj: Vec<Vec<RecordId>> = vec![Vec::new(); self.n];
        for &(a, b) in &self.edges {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        for (id, want) in adj.iter().enumerate() {
            let mut got = li.neighbors(id as RecordId).to_vec();
            got.sort_unstable();
            prop_assert_eq!(&got, want, "neighbours of {}", id);
        }
        // Components by a breadth-first search from each id not reached
        // yet, in ascending order, so the start is the minimum member.
        let mut component: Vec<Option<RecordId>> = vec![None; self.n];
        let mut members: Vec<Vec<RecordId>> = Vec::new();
        for start in 0..self.n {
            if component[start].is_some() {
                continue;
            }
            component[start] = Some(start as RecordId);
            let mut queue = vec![start as RecordId];
            let mut i = 0;
            while let Some(&x) = queue.get(i) {
                i += 1;
                for &y in &adj[x as usize] {
                    if component[y as usize].is_none() {
                        component[y as usize] = Some(start as RecordId);
                        queue.push(y);
                    }
                }
            }
            queue.sort_unstable();
            members.push(queue);
        }
        for id in 0..self.n as RecordId {
            let label = component[id as usize].expect("every record reached");
            prop_assert_eq!(li.label(id), label, "label of {}", id);
            let ring: Vec<RecordId> = li.ring(id).collect();
            prop_assert_eq!(ring.first(), Some(&id), "a ring starts at its record");
            let mut sorted = ring.clone();
            sorted.sort_unstable();
            let want = members.iter().find(|m| m[0] == label).expect("component");
            prop_assert_eq!(&sorted, want, "ring of {}: {:?}", id, ring);
        }
        Ok(())
    }
}

/// `li` written to a snapshot file and read back, beside a table of as
/// many one-column records.
fn snapshot_round_trip(li: &LinkIndex) -> LinkIndex {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let mut table = Table::new("p", Schema::of_strings(&["id"]));
    for id in 0..li.len() {
        table.push_row(vec![id.to_string().into()]).unwrap();
    }
    let cfg = ErConfig::default();
    let path = std::env::temp_dir().join(format!(
        "queryer-properties-{}-{}.snap",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    write_index_snapshot(&path, &TableErIndex::build(&table, &cfg), li, &table).unwrap();
    let reopened = open_index_snapshot(&path, &table, &cfg);
    std::fs::remove_file(&path).ok();
    reopened.unwrap().1
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
        // The maintained labels are the oracle's minimum labels, and each
        // ring holds exactly its record's closure.
        for id in 0..n as u32 {
            prop_assert_eq!(li.label(id), label[id as usize], "label of {}", id);
            let mut ring: Vec<u32> = li.ring(id).collect();
            ring.sort_unstable();
            prop_assert_eq!(ring, li.closure([id]), "ring of {}", id);
        }
        // Every record seeded: the members are the whole table, labelled
        // as above.
        let (members, labels) = li.labelled_closure(0..n as u32);
        prop_assert_eq!(&members, &(0..n as u32).collect::<Vec<_>>());
        prop_assert_eq!(&labels, &label);
        // A sparse seed set: the members are the seeds' closure, and the
        // labels still come from whole components.
        let seeds: Vec<u32> = (0..n as u32).filter(|id| id % 3 == 0).collect();
        let (members, labels) = li.labelled_closure(seeds.iter().copied());
        prop_assert_eq!(&members, &li.closure(seeds));
        for (&m, &l) in members.iter().zip(&labels) {
            prop_assert_eq!(l, label[m as usize], "label of {}", m);
        }
    }

    /// The Link Index keeps every record's component as data — a label
    /// and a member ring — through every way it changes. After each step
    /// of a random sequence of links, commits, invalidations, writes
    /// (growing the table), wholesale invalidation, clears and snapshot
    /// round trips, the adjacency equals a model edge set and the labels
    /// and rings equal a connected-components pass over that model.
    #[test]
    fn link_index_components_track_every_change(
        n0 in 1usize..24,
        steps in proptest::collection::vec(li_step(), 1..40),
    ) {
        let mut li = LinkIndex::new(n0);
        let mut model = LinkModel { n: n0, edges: BTreeSet::new() };
        for step in steps {
            let at = |id: u32, n: usize| id % n as u32;
            match step {
                LiStep::Link(a, b) => {
                    let (a, b) = (at(a, model.n), at(b, model.n));
                    prop_assert_eq!(li.add_link(a, b), model.link(a, b));
                }
                LiStep::Commit(links, resolved) => {
                    let mut delta = LinkDelta::new();
                    let mut added = 0;
                    for (a, b) in links {
                        let (a, b) = (at(a, model.n), at(b, model.n));
                        delta.add_link(a, b);
                        added += usize::from(model.link(a, b));
                    }
                    for id in resolved {
                        delta.mark_resolved(at(id, model.n));
                    }
                    prop_assert_eq!(li.commit(&delta), added);
                }
                LiStep::Invalidate(ids) => {
                    let ids = model.ids(ids);
                    li.invalidate(&ids);
                    model.unlink(&ids);
                }
                LiStep::FollowWrite { grow, ids, all } => {
                    model.n += grow;
                    if all {
                        li.follow_write(model.n, &Affected::All);
                        model.edges.clear();
                    } else {
                        let ids = model.ids(ids);
                        li.follow_write(model.n, &Affected::Ids(ids.clone()));
                        model.unlink(&ids);
                    }
                }
                LiStep::InvalidateAll => {
                    li.invalidate_all();
                    model.edges.clear();
                }
                LiStep::Clear => {
                    li.clear();
                    model.edges.clear();
                }
                LiStep::Snapshot => li = snapshot_round_trip(&li),
            }
            model.check(&li)?;
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
