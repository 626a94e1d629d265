//! Equivalence and subset guarantees of governed (budgeted/cancellable)
//! resolution.
//!
//! Two invariants pin the governance layer:
//!
//! 1. **Unlimited ≡ ungoverned.** A request under
//!    `ResolveBudget::unlimited()` — and under any budget that never
//!    trips — is bit-identical to one without a budget: same DR sets,
//!    links, and decision counts, with `Completion::Complete`.
//! 2. **Partial ⊆ full.** Any run truncated by a comparison cap,
//!    deadline, or cancel reports `Completion != Complete`, respects the
//!    cap, and every link it emitted is a link the full run emits.
//!    Work left on the table is accounted in `pairs_uncompared`, and a
//!    truncated query can be re-issued (the resolver never marks its
//!    entities resolved) until it converges to the full answer.

#![allow(clippy::field_reassign_with_default)] // config tweaks read clearer as assignments

use proptest::prelude::*;
use queryer_common::knobs::proptest_cases;
use queryer_er::{
    CancelToken, Completion, DedupMetrics, ErConfig, LinkIndex, MetaBlockingConfig, ResolveBudget,
    ResolveRequest, TableErIndex, WeightScheme,
};
use queryer_storage::{RecordId, Schema, Table, Value};
use std::time::{Duration, Instant};

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

fn cell() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..VOCAB.len(), 0..4)
}

fn rows() -> impl Strategy<Value = Vec<(Vec<usize>, Vec<usize>)>> {
    proptest::collection::vec((cell(), cell()), 2..24)
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

fn scheme_of(w: usize) -> WeightScheme {
    match w % 3 {
        0 => WeightScheme::Cbs,
        1 => WeightScheme::Ecbs,
        _ => WeightScheme::Js,
    }
}

fn cfg_of(scheme: usize, threads: usize) -> ErConfig {
    let mut cfg = ErConfig::default().with_meta(MetaBlockingConfig::All);
    cfg.weight_scheme = scheme_of(scheme);
    cfg.threads = threads;
    cfg
}

/// Full n×n link matrix of a Link Index, for subset/equality checks.
fn link_matrix(li: &LinkIndex, n: usize) -> Vec<bool> {
    let n = n as RecordId;
    let mut out = Vec::with_capacity((n * n) as usize);
    for a in 0..n {
        for b in 0..n {
            out.push(li.are_linked(a, b));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: proptest_cases(16),
        .. ProptestConfig::default()
    })]

    /// Invariant 1: a governed resolve whose budget never trips is
    /// bit-identical to the ungoverned call — including under a live
    /// cancel token, a far deadline, and a non-binding comparison cap,
    /// which exercise every poll site without ever stopping work.
    #[test]
    fn non_tripping_budgets_are_bit_identical(
        rows in rows(),
        scheme in 0usize..3,
        threads in 1usize..5,
    ) {
        let table = build_table(&rows);
        let cfg = cfg_of(scheme, threads);

        let plain_idx = TableErIndex::build(&table, &cfg);
        let mut li_plain = LinkIndex::new(table.len());
        let mut m_plain = DedupMetrics::default();
        let out_plain = plain_idx
            .run(ResolveRequest::all(&table, &mut li_plain).metrics(&mut m_plain))
            .unwrap();
        prop_assert_eq!(out_plain.completion, Completion::Complete);
        prop_assert_eq!(m_plain.pairs_uncompared, 0);

        let budgets = [
            ResolveBudget::unlimited(),
            ResolveBudget::unlimited()
                .with_deadline(Duration::from_secs(3600))
                .with_max_comparisons(u64::MAX)
                .with_cancel(CancelToken::new()),
            ResolveBudget::unlimited().with_max_comparisons(m_plain.comparisons),
        ];
        for budget in budgets {
            let idx = TableErIndex::build(&table, &cfg);
            let mut li = LinkIndex::new(table.len());
            let mut m = DedupMetrics::default();
            let out = idx
                .run(ResolveRequest::all(&table, &mut li).budget(budget.clone()).metrics(&mut m))
                .unwrap();
            prop_assert_eq!(out.completion, Completion::Complete, "budget {:?}", budget);
            prop_assert_eq!(&out.dr, &out_plain.dr);
            prop_assert_eq!(out.new_links, out_plain.new_links);
            prop_assert_eq!(m.comparisons, m_plain.comparisons);
            prop_assert_eq!(m.candidate_pairs, m_plain.candidate_pairs);
            prop_assert_eq!(m.matches_found, m_plain.matches_found);
            prop_assert_eq!(m.pairs_uncompared, 0);
            prop_assert_eq!(link_matrix(&li, table.len()), link_matrix(&li_plain, table.len()));
        }
    }

    /// Invariant 2: under any comparison cap the run never exceeds the
    /// cap, reports `Budget` when it truncated (with the skipped work in
    /// `pairs_uncompared`), and emits only links the full run emits.
    #[test]
    fn capped_runs_respect_cap_and_emit_subset(
        rows in rows(),
        scheme in 0usize..3,
        threads in 1usize..5,
        cap_pct in 0u64..=100,
    ) {
        let table = build_table(&rows);
        let cfg = cfg_of(scheme, threads);

        let full_idx = TableErIndex::build(&table, &cfg);
        let mut li_full = LinkIndex::new(table.len());
        let mut m_full = DedupMetrics::default();
        full_idx
            .run(ResolveRequest::all(&table, &mut li_full).metrics(&mut m_full))
            .unwrap();

        let cap = m_full.comparisons * cap_pct / 100;
        let idx = TableErIndex::build(&table, &cfg);
        let budget = ResolveBudget::unlimited().with_max_comparisons(cap);
        let mut li = LinkIndex::new(table.len());
        let mut m = DedupMetrics::default();
        let out = idx
            .run(ResolveRequest::all(&table, &mut li).budget(budget.clone()).metrics(&mut m))
            .unwrap();

        prop_assert!(m.comparisons <= cap, "cap {} exceeded: {}", cap, m.comparisons);
        match out.completion {
            Completion::Complete => {
                prop_assert_eq!(m.pairs_uncompared, 0);
                prop_assert_eq!(m.comparisons, m_full.comparisons);
                prop_assert_eq!(
                    link_matrix(&li, table.len()),
                    link_matrix(&li_full, table.len())
                );
            }
            Completion::Budget { comparisons_done, .. } => {
                prop_assert_eq!(comparisons_done, m.comparisons);
                for a in 0..table.len() as RecordId {
                    for b in 0..table.len() as RecordId {
                        if li.are_linked(a, b) {
                            prop_assert!(
                                li_full.are_linked(a, b),
                                "link ({},{}) not in full run (cap {})", a, b, cap
                            );
                        }
                    }
                }
            }
            Completion::Cancelled { .. } => prop_assert!(false, "no cancel was requested"),
        }
    }

    /// A budgeted query can be retried: doubling the comparison cap and
    /// re-issuing the same query against the same Link Index converges to
    /// the full answer, because truncated rounds never mark their
    /// entities resolved and already-found links persist.
    #[test]
    fn retry_with_growing_cap_converges(
        rows in rows(),
        scheme in 0usize..3,
    ) {
        let table = build_table(&rows);
        let cfg = cfg_of(scheme, 1);

        let full_idx = TableErIndex::build(&table, &cfg);
        let mut li_full = LinkIndex::new(table.len());
        let mut m_full = DedupMetrics::default();
        let out_full = full_idx
            .run(ResolveRequest::all(&table, &mut li_full).metrics(&mut m_full))
            .unwrap();

        let idx = TableErIndex::build(&table, &cfg);
        let mut li = LinkIndex::new(table.len());
        let mut cap = 1u64;
        let last_dr;
        loop {
            let budget = ResolveBudget::unlimited().with_max_comparisons(cap);
            let mut m = DedupMetrics::default();
            let out = idx
                .run(ResolveRequest::all(&table, &mut li).budget(budget.clone()).metrics(&mut m))
                .unwrap();
            prop_assert!(m.comparisons <= cap);
            if out.completion.is_complete() {
                last_dr = out.dr;
                break;
            }
            // Doubling must complete once cap covers the whole workload.
            prop_assert!(cap <= m_full.comparisons.max(1) * 2, "did not converge");
            cap *= 2;
        }
        prop_assert_eq!(&last_dr, &out_full.dr);
        prop_assert_eq!(link_matrix(&li, table.len()), link_matrix(&li_full, table.len()));
    }

    /// A cancelled or instantly-expired budget stops before any work is
    /// linked in, reports the right `Completion` variant, and leaves the
    /// index fully usable: an unlimited follow-up resolves to exactly the
    /// full answer.
    #[test]
    fn cancel_and_zero_deadline_stop_cleanly(
        rows in rows(),
        scheme in 0usize..3,
        threads in 1usize..5,
    ) {
        let table = build_table(&rows);
        let cfg = cfg_of(scheme, threads);
        let idx = TableErIndex::build(&table, &cfg);

        // Pre-cancelled token: Cancelled at the first poll, zero work.
        let token = CancelToken::new();
        token.cancel();
        let mut li = LinkIndex::new(table.len());
        let mut m = DedupMetrics::default();
        let out = idx
            .run(
                ResolveRequest::all(&table, &mut li)
                    .budget(ResolveBudget::unlimited().with_cancel(token))
                    .metrics(&mut m),
            )
            .unwrap();
        prop_assert!(matches!(out.completion, Completion::Cancelled { comparisons_done: 0, .. }));
        prop_assert_eq!(m.comparisons, 0);
        prop_assert_eq!(out.new_links, 0);

        // Already-expired deadline: Budget at the first poll, zero work.
        let mut m = DedupMetrics::default();
        let out = idx
            .run(
                ResolveRequest::all(&table, &mut li)
                    .budget(ResolveBudget::unlimited().with_deadline_at(Instant::now()))
                    .metrics(&mut m),
            )
            .unwrap();
        prop_assert!(matches!(out.completion, Completion::Budget { comparisons_done: 0, .. }));
        prop_assert_eq!(m.comparisons, 0);
        prop_assert_eq!(out.new_links, 0);

        // The aborted attempts must not have perturbed the index: a full
        // resolve now equals a full resolve on a fresh index.
        let mut m = DedupMetrics::default();
        let out = idx.run(ResolveRequest::all(&table, &mut li).metrics(&mut m)).unwrap();
        prop_assert_eq!(out.completion, Completion::Complete);

        let fresh = TableErIndex::build(&table, &cfg);
        let mut li_fresh = LinkIndex::new(table.len());
        let mut m_fresh = DedupMetrics::default();
        let out_fresh = fresh
            .run(ResolveRequest::all(&table, &mut li_fresh).metrics(&mut m_fresh))
            .unwrap();
        prop_assert_eq!(&out.dr, &out_fresh.dr);
        prop_assert_eq!(m.comparisons, m_fresh.comparisons);
        prop_assert_eq!(m.matches_found, m_fresh.matches_found);
        prop_assert_eq!(link_matrix(&li, table.len()), link_matrix(&li_fresh, table.len()));
    }

    /// Mid-flight cancellation via a live token: whenever the run stops
    /// early it reports `Cancelled` and its links are a subset of the
    /// full run's. (The token is cancelled from a racing thread, so both
    /// "stopped early" and "finished first" outcomes are legal — each is
    /// checked for its own contract.)
    #[test]
    fn racing_cancel_yields_valid_partial(
        rows in rows(),
        scheme in 0usize..3,
        delay_us in 0u64..200,
    ) {
        let table = build_table(&rows);
        let cfg = cfg_of(scheme, 2);

        let full_idx = TableErIndex::build(&table, &cfg);
        let mut li_full = LinkIndex::new(table.len());
        let mut m_full = DedupMetrics::default();
        full_idx
            .run(ResolveRequest::all(&table, &mut li_full).metrics(&mut m_full))
            .unwrap();

        let idx = TableErIndex::build(&table, &cfg);
        let token = CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_micros(delay_us));
                token.cancel();
            })
        };
        let mut li = LinkIndex::new(table.len());
        let mut m = DedupMetrics::default();
        let out = idx
            .run(
                ResolveRequest::all(&table, &mut li)
                    .budget(ResolveBudget::unlimited().with_cancel(token))
                    .metrics(&mut m),
            )
            .unwrap();
        canceller.join().unwrap();

        match out.completion {
            Completion::Complete => {
                prop_assert_eq!(m.comparisons, m_full.comparisons);
                prop_assert_eq!(
                    link_matrix(&li, table.len()),
                    link_matrix(&li_full, table.len())
                );
            }
            Completion::Cancelled { comparisons_done, .. } => {
                prop_assert_eq!(comparisons_done, m.comparisons);
                for a in 0..table.len() as RecordId {
                    for b in 0..table.len() as RecordId {
                        if li.are_linked(a, b) {
                            prop_assert!(li_full.are_linked(a, b));
                        }
                    }
                }
            }
            Completion::Budget { .. } => prop_assert!(false, "no cap or deadline was set"),
        }
    }
}

/// The pinned workload (2000 scholarly records, seed 99): 21384
/// candidate pairs, 21384 comparisons, 201 matches — cold, again warm
/// (fresh Link Index, resolve caches left hot: cache state never
/// changes a decision), and under an unlimited governed budget; at the
/// default worker count and 4-way chunked (build and threshold sweep,
/// node scan, Comparison-Execution), whatever the host's core count.
#[test]
fn pinned_workload_unlimited_governed_matches_baseline() {
    let ds = queryer_datagen::scholarly::dblp_scholar(2000, 99);
    for threads in [ErConfig::default().threads, 4] {
        let mut cfg = ErConfig::default();
        cfg.threads = threads;
        let idx = TableErIndex::build(&ds.table, &cfg);

        let mut li_plain = LinkIndex::new(ds.table.len());
        let mut m_plain = DedupMetrics::default();
        let out_plain = idx
            .run(ResolveRequest::all(&ds.table, &mut li_plain).metrics(&mut m_plain))
            .unwrap();
        assert_eq!(
            m_plain.candidate_pairs, 21384,
            "pinned candidate pairs, threads {threads}"
        );
        assert_eq!(
            m_plain.comparisons, 21384,
            "pinned comparison count, threads {threads}"
        );
        assert_eq!(
            m_plain.matches_found, 201,
            "pinned match count, threads {threads}"
        );
        assert_eq!(out_plain.completion, Completion::Complete);

        let mut m_warm = DedupMetrics::default();
        idx.run(
            ResolveRequest::all(&ds.table, &mut LinkIndex::new(ds.table.len()))
                .metrics(&mut m_warm),
        )
        .unwrap();
        let warm = (
            m_warm.candidate_pairs,
            m_warm.comparisons,
            m_warm.matches_found,
        );
        assert_eq!(warm, (21384, 21384, 201), "warm pass, threads {threads}");

        idx.clear_ep_cache();
        let budget = ResolveBudget::unlimited()
            .with_deadline(Duration::from_secs(3600))
            .with_max_comparisons(u64::MAX)
            .with_cancel(CancelToken::new());
        let mut li = LinkIndex::new(ds.table.len());
        let mut m = DedupMetrics::default();
        let out = idx
            .run(
                ResolveRequest::all(&ds.table, &mut li)
                    .budget(budget.clone())
                    .metrics(&mut m),
            )
            .unwrap();
        assert_eq!(out.completion, Completion::Complete);
        assert_eq!(m.comparisons, 21384, "threads {threads}");
        assert_eq!(m.matches_found, 201, "threads {threads}");
        assert_eq!(out.dr, out_plain.dr);
        assert_eq!(li.link_count(), li_plain.link_count());
    }
}

/// The Edge-Pruning-off configs on the same workload, resolve-all:
/// every pair co-occurring in the retained (BP+BF), unpurged (BP) or raw
/// (NONE) blocks is a candidate and is compared once — at the default
/// worker count and 4-way chunked.
#[test]
fn pinned_workload_ep_off_counts() {
    let ds = queryer_datagen::scholarly::dblp_scholar(2000, 99);
    for (meta, want) in [
        (MetaBlockingConfig::BpBf, (250_205, 250_205, 218)),
        (MetaBlockingConfig::Bp, (398_336, 398_336, 227)),
        (MetaBlockingConfig::None, (1_252_086, 1_252_086, 231)),
    ] {
        for threads in [ErConfig::default().threads, 4] {
            let mut cfg = ErConfig::default().with_meta(meta);
            cfg.threads = threads;
            let idx = TableErIndex::build(&ds.table, &cfg);
            let mut li = LinkIndex::new(ds.table.len());
            let mut m = DedupMetrics::default();
            let out = idx
                .run(ResolveRequest::all(&ds.table, &mut li).metrics(&mut m))
                .unwrap();
            assert_eq!(out.completion, Completion::Complete);
            assert_eq!(
                (m.candidate_pairs, m.comparisons, m.matches_found),
                want,
                "{} threads {threads}",
                meta.label()
            );
        }
    }
}
