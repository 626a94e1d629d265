//! The resolver: the ER pipeline inside the Deduplicate operator
//! (Sec. 6.1, Fig. 3) — Query Blocking → Block-Join → Meta-Blocking →
//! Comparison-Execution — plus the Link Index bookkeeping and the
//! transitive frontier expansion that makes Dedupe-query results equal
//! the batch approach's connected components.
//!
//! Every query entity is a record of the indexed table, so the first two
//! stages collapse into ITBI lookups: a record's `entity_blocks` row
//! *is* its QBI⋈TBI join, built once at index time, so a resolve never
//! tokenizes a record and never hash-joins token strings. BP, BF and the
//! node-centric EP thresholds are table-level and baked into the index
//! at build, so pair generation is one scan of each frontier node's
//! co-occurrences, and which pairs survive does not depend on the query
//! that asks.

use crate::edge_pruning::{keeps, weight_of, EpSeen};
use crate::govern::{fan_out, Completion, ResolveBudget, ResolveError, ResolveStage, Stop};
use crate::index::{CooccurrenceScratch, MemoEntry, TableErIndex};
use crate::kernel::{CompiledMatcher, KernelScratch, QuerySide};
use crate::link_index::{LinkDelta, LinkIndex, Mark};
use crate::metrics::DedupMetrics;
use crate::request::LiMode;
use queryer_common::failpoints;
use queryer_common::{pack_pair, FxHashSet, Stopwatch};
use queryer_storage::{RecordId, Table};
use std::cell::RefCell;
use std::time::Duration;

/// Minimum frontier size before the Edge Pruning scans fan out across
/// threads; below this the per-thread scratch setup outweighs the win
/// (transitive-expansion rounds typically have tiny frontiers).
const PAR_MIN_FRONTIER: usize = 256;

/// Minimum pair count before Comparison-Execution fans out across
/// threads; below this the thread spawn overhead outweighs the win.
const PAR_MIN_PAIRS: usize = 1024;

/// The frontier dedup and the Edge Pruning scan order build an
/// O(`n_records`) array only once the nodes involved cover at least
/// 1/`RANK_AMORTIZE` of the table; below that a point query's handful
/// of neighbourhoods is cheaper to dedup with hash probes than to pay
/// a table-sized fill.
pub(crate) const RANK_AMORTIZE: usize = 32;

/// Pairs each worker decides between budget polls when a comparison
/// budget is in force: batches of `workers × this` keep the governed
/// executor's fan-outs full while bounding by how much a batch can
/// overshoot a deadline.
const CMP_BATCH_PER_WORKER: usize = 2048;

/// Result of resolving a query entity set against its table.
#[derive(Debug, Clone)]
pub struct ResolveOutcome {
    /// The deduplicated result set DR_E = QE_E ∪ duplicates, sorted.
    pub dr: Vec<RecordId>,
    /// The cluster id of each DR_E member, aligned with `dr`: the
    /// minimum member of its linked component, read in the same Link
    /// Index view as `dr`. An unlinked record is its own cluster.
    pub clusters: Vec<RecordId>,
    /// Links newly added to the Link Index by this resolution.
    pub new_links: usize,
    /// How the resolve finished. Always [`Completion::Complete`] under
    /// an unlimited budget; a budgeted/cancelled run reports the stage
    /// it stopped in, and its links are a subset of the full run's.
    pub completion: Completion,
}

/// How Comparison-Execution treats an unlinked candidate pair, read off
/// the Link Index in the same view that finds linked pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairClass {
    /// An endpoint is resolved, so the pair was decided when that
    /// endpoint was resolved; it is not linked, hence a non-match. No
    /// kernel call, no memo probe.
    Decided,
    /// An endpoint is stale and neither is resolved: the pair has been
    /// asked before and may be asked again after the next write, so the
    /// decision memo serves and keeps it.
    Memo,
    /// Neither endpoint has been resolved: the pair is new. It runs its
    /// kernel and leaves the memo alone.
    Plain,
}

impl PairClass {
    /// The class of candidate pair `(q, c)` against the committed view
    /// `g` and this query's own `delta`, or `None` when the pair is
    /// already linked (a partner, no decision needed).
    ///
    /// The Decided rule rests on three things. The LI contract: a
    /// resolved mark is published with every link of the record. The
    /// write path: `Affected` names every record whose link-set can
    /// change, and `LinkIndex::invalidate` takes back their marks. And
    /// symmetric generation: the node scan keeps a pair whichever
    /// endpoint it scans (WNP's union rule over symmetric weights, or
    /// the block co-occurrence without EP), so the pair was a candidate
    /// when the resolved endpoint was resolved; had it matched, it would
    /// be linked.
    #[inline]
    fn of(g: &LinkIndex, delta: &LinkDelta, q: RecordId, c: RecordId) -> Option<PairClass> {
        if g.are_linked(q, c) || delta.are_linked(q, c) {
            return None;
        }
        // Non-short-circuit operators: the marks are loaded either way,
        // and the pair mix is too irregular for branches to predict.
        let (mq, mc) = (g.mark(q), g.mark(c));
        let resolved = (mq == Mark::Resolved) | (mc == Mark::Resolved);
        let seen = (mq != Mark::Unresolved) | (mc != Mark::Unresolved);
        Some(if resolved {
            PairClass::Decided
        } else if seen {
            PairClass::Memo
        } else {
            PairClass::Plain
        })
    }
}

/// Per-query mutable resolve state. Everything a resolve mutates —
/// the cross-round Edge Pruning dedup state, the links and resolved
/// marks found so far, budget progress, completion status — lives here
/// (or in the round-local frontier/scratch vectors), so N concurrent
/// queries over one `Arc<TableErIndex>` share nothing mutable except
/// the Link Index, which they only read until the one commit that ends
/// the query.
struct ResolveCtx {
    /// What earlier rounds of *this* query emitted.
    seen: EpSeen,
    /// This query's links + resolved marks, private until committed.
    delta: LinkDelta,
    /// Time spent blocked on Link Index lock acquisitions, for
    /// [`DedupMetrics::lock_wait`].
    lock_wait: Duration,
    /// Comparisons executed so far, for budget accounting.
    comparisons_done: u64,
    /// How the run finished (or why it stopped early).
    completion: Completion,
}

impl TableErIndex {
    /// The body of [`TableErIndex::run`]: resolves the duplicates of
    /// `qe` against read-only views of `li`, accumulating every link
    /// found and every completed round's resolved marks in a private
    /// [`LinkDelta`], and publishes them with one [`LinkIndex::commit`]
    /// at the end — the only write the call makes to the Link Index,
    /// whichever kind of handle the caller passed. Entities already
    /// resolved in the LI are served from it ("we only need to compute
    /// the link-sets of those entities in QE_E that are not already in
    /// LI_E", Sec. 6.1).
    ///
    /// The budget is polled at round starts and between comparison
    /// batches; a stopped run returns a partial-but-valid outcome whose
    /// [`ResolveOutcome::completion`] reports the stage and comparison
    /// count, with the guarantees of [`crate::govern`]. On error
    /// (worker panic, poisoned index) the delta is dropped uncommitted —
    /// a failed query leaves the Link Index exactly as it found it.
    pub(crate) fn resolve_and_commit(
        &self,
        table: &Table,
        qe: &[RecordId],
        mut li: LiMode<'_>,
        metrics: &mut DedupMetrics,
        budget: &ResolveBudget,
    ) -> Result<ResolveOutcome, ResolveError> {
        self.check_serve(table)?;
        let mut ctx = ResolveCtx {
            seen: EpSeen::new(),
            delta: LinkDelta::new(),
            lock_wait: Duration::ZERO,
            comparisons_done: 0,
            completion: Completion::Complete,
        };
        let rounds = self.resolve_rounds(&li, &mut ctx, qe, metrics, budget);
        let outcome = rounds.map(|()| {
            // The commit's return value is the link count reported: a
            // link this query found may have been committed by a
            // concurrent query meanwhile. Nothing to publish (the warm,
            // fully-resolved common case) skips the write lock.
            let new_links = if ctx.delta.is_empty() {
                0
            } else {
                li.commit(&ctx.delta, &mut ctx.lock_wait)
            };
            // DR_E — the query entities plus every duplicate reachable in
            // the LI — and each member's cluster id, read off the member
            // rings and labels of the post-commit LI, so this query's own
            // links are visible; concurrent commits may enlarge clusters,
            // which only moves the result closer to the full batch answer.
            let (dr, clusters) = li.read(&mut ctx.lock_wait, |g| {
                g.labelled_closure(qe.iter().copied())
            });
            ResolveOutcome {
                dr,
                clusters,
                new_links,
                completion: ctx.completion,
            }
        });
        metrics.lock_wait += ctx.lock_wait;
        outcome
    }

    /// Entry checks shared by every resolve flavour.
    fn check_serve(&self, table: &Table) -> Result<(), ResolveError> {
        if self.is_poisoned() {
            return Err(ResolveError::Poisoned);
        }
        // Comparisons read index-internal interned profiles, so a caller
        // passing the wrong table would silently get stale decisions;
        // the length check is O(1), keep it on in release builds too.
        if table.len() != self.n_records() {
            return Err(ResolveError::TableMismatch {
                expected: self.n_records(),
                got: table.len(),
            });
        }
        Ok(())
    }

    /// The resolve round loop. Reads the Link Index only through
    /// short-lived [`LiMode::read`] views (hash probes, never held
    /// across Edge Pruning or comparison work) overlaid with this
    /// query's own uncommitted `ctx.delta`, and writes only to that
    /// delta.
    fn resolve_rounds(
        &self,
        li: &LiMode<'_>,
        ctx: &mut ResolveCtx,
        qe: &[RecordId],
        metrics: &mut DedupMetrics,
        budget: &ResolveBudget,
    ) -> Result<(), ResolveError> {
        // Compile the matcher once per resolve: similarity kind,
        // threshold, and attribute layout resolve here, never per pair.
        let cfg = self.config();
        let matcher = CompiledMatcher::new(cfg.similarity, cfg.match_threshold, self);

        let mut frontier = self.unresolved_frontier(li, ctx, qe.iter().copied());

        while !frontier.is_empty() {
            failpoints::fire("resolve.round");
            if let Some(stop) = budget.interrupted() {
                ctx.completion = stop.completion(ResolveStage::EdgePruning, ctx.comparisons_done);
                break;
            }

            // (i) Query Blocking + (ii) Block-Join + (iii) Meta-Blocking:
            // the ITBI row of an in-table query entity is its QBI already
            // joined against the TBI, and BP and BF are baked into the
            // retained / filtered rows, so the frontier's neighbourhoods
            // are read straight off the CSR blocking graph.
            let pairs = self.try_edge_pruned_pairs(&frontier, &mut ctx.seen, metrics)?;
            metrics.candidate_pairs += pairs.len() as u64;

            // (iv) Comparison-Execution. Pairs already linked by previous
            // queries (or earlier rounds of this one) need no comparison
            // but still contribute partners; every other pair is classed
            // for `execute_comparisons` (see `PairClass`). One LI view
            // for the whole batch — the loop body is hash probes and
            // mark loads only.
            let mut sw = Stopwatch::new();
            sw.start();
            let mut partners: Vec<RecordId> = Vec::new();
            let mut to_compare: Vec<(RecordId, RecordId)> = Vec::with_capacity(pairs.len());
            let mut classes: Vec<PairClass> = Vec::with_capacity(pairs.len());
            li.read(&mut ctx.lock_wait, |g| {
                for (q, c) in pairs {
                    match PairClass::of(g, &ctx.delta, q, c) {
                        None => partners.push(c),
                        Some(class) => {
                            if class == PairClass::Decided {
                                note_decided((q, c));
                            }
                            to_compare.push((q, c));
                            classes.push(class);
                        }
                    }
                }
            });
            let (decisions, stop) = self.execute_comparisons_governed(
                &matcher,
                &to_compare,
                &classes,
                metrics,
                budget,
                ctx.comparisons_done,
            )?;
            let executed = decisions.len();
            metrics.comparisons += executed as u64;
            ctx.comparisons_done += executed as u64;
            for (&(q, c), matched) in to_compare.iter().zip(decisions) {
                if matched {
                    ctx.delta.add_link(q, c);
                    metrics.matches_found += 1;
                    partners.push(c);
                }
            }
            sw.stop();
            metrics.resolution += sw.elapsed();

            if let Some(stop) = stop {
                // Truncated round: its frontier is NOT marked resolved —
                // some of its pairs were never decided, and marking
                // would make the Link Index claim completeness it does
                // not have. Every decided link is still committed; a
                // later resolve redoes this frontier and converges to
                // the full answer.
                metrics.pairs_uncompared += (to_compare.len() - executed) as u64;
                ctx.completion =
                    stop.completion(ResolveStage::ComparisonExecution, ctx.comparisons_done);
                break;
            }

            // Marks are published atomically with the links, so the LI
            // never claims completeness for links not yet visible.
            metrics.entities_processed += frontier.len() as u64;
            for &q in &frontier {
                ctx.delta.mark_resolved(q);
            }

            // Transitive expansion: newly discovered duplicates must be
            // resolved too, so DR groups equal batch connected components.
            frontier = self.unresolved_frontier(li, ctx, partners.into_iter());
        }
        Ok(())
    }

    /// Order-preserving first-occurrence dedup of frontier candidates,
    /// dropping entities already resolved — by a committed query, or by
    /// an earlier round of this one (in its uncommitted delta).
    /// Point-query shapes keep the hash-set probe; once the candidate
    /// list covers at least 1/[`RANK_AMORTIZE`] of the table, a dense
    /// seen-array pass (the same amortization rule as the EP scan order)
    /// replaces the per-entity hashing — a resolve-all round dedups with
    /// two array ops per candidate instead of a hash insert.
    fn unresolved_frontier(
        &self,
        li: &LiMode<'_>,
        ctx: &mut ResolveCtx,
        candidates: impl ExactSizeIterator<Item = RecordId>,
    ) -> Vec<RecordId> {
        let delta = &ctx.delta;
        li.read(&mut ctx.lock_wait, |g| {
            let unresolved = |q: &RecordId| !g.is_resolved(*q) && !delta.is_resolved(*q);
            if candidates.len() * RANK_AMORTIZE < self.n_records() {
                let mut seen = FxHashSet::default();
                candidates
                    .filter(|q| unresolved(q) && seen.insert(*q))
                    .collect()
            } else {
                let mut seen = vec![false; self.n_records()];
                candidates
                    .filter(|q| unresolved(q) && !std::mem::replace(&mut seen[*q as usize], true))
                    .collect()
            }
        })
    }

    /// Pair generation, the resolve loop's entry point: every edge of the
    /// blocking graph incident to a frontier entity that Edge Pruning
    /// keeps — every one with EP off, where a node's co-occurrences are
    /// its Block-Join output. The wall time goes to
    /// `metrics.edge_pruning`, or to `metrics.block_join` with EP off.
    /// Every thread count emits the bit-identical sequence.
    ///
    /// `seen` is one query's dedup state, carried across its calls: a
    /// pair emitted by an earlier call is never emitted again. The node
    /// scan emits a pair only at the endpoint the query scanned first,
    /// so a node scanned by an earlier call, or earlier in the same
    /// frontier, emits nothing. EP-on emission equals an insert-probing
    /// loop over a carried pair set, EP-off emission a block-major
    /// collector over one (both pinned by `tests/ep_equivalence.rs`).
    ///
    /// The scans are bounded by the frontier and run to completion once
    /// started. A lost worker surfaces as
    /// [`ResolveError::WorkerPanicked`]; pair generation writes no shared
    /// state, so the index stays sound.
    pub fn try_edge_pruned_pairs(
        &self,
        frontier: &[RecordId],
        seen: &mut EpSeen,
        metrics: &mut DedupMetrics,
    ) -> Result<Vec<(RecordId, RecordId)>, ResolveError> {
        let prune = self.config().meta.edge_pruning();
        let mut sw = Stopwatch::new();
        let pairs = sw.time(|| {
            if prune {
                self.node_scan_pairs::<true>(frontier, seen)
            } else {
                self.node_scan_pairs::<false>(frontier, seen)
            }
        });
        let stage = if prune {
            &mut metrics.edge_pruning
        } else {
            &mut metrics.block_join
        };
        *stage += sw.elapsed();
        pairs
    }

    /// The node scan, the one pair enumerator of every config: numbers
    /// the frontier nodes the query has not scanned yet in `order`, then
    /// each worker emits, in first-touch order, every edge of its chunk's
    /// nodes that the node owns under `order` (see [`EpSeen`]) and
    /// keeps. With `PRUNE` an edge is kept under the WNP union rule
    /// (either endpoint's build-time threshold admits the weight);
    /// without it every edge is, and no weight is computed. Workers only read `order`, so the chunks concatenated in
    /// frontier order are the same sequence at any thread count.
    fn node_scan_pairs<const PRUNE: bool>(
        &self,
        frontier: &[RecordId],
        order: &mut EpSeen,
    ) -> Result<Vec<(RecordId, RecordId)>, ResolveError> {
        let scheme = self.config().weight_scheme;
        let n_blocks = self.n_unpurged_blocks().max(1) as f64;
        let th = self.ep_thresholds.as_slice();
        let (fresh, workers) = self.number_fresh(frontier, order);
        let order = &*order;
        let chunks = fan_out(
            fresh.len(),
            workers,
            "ep.survivors.worker",
            ResolveStage::EdgePruning,
            |range| {
                self.owned_edges(&fresh[range], order, |q, c, cbs| {
                    !PRUNE || {
                        let w = weight_of(self, scheme, n_blocks, q, c, cbs);
                        keeps(w, th[q as usize]) || keeps(w, th[c as usize])
                    }
                })
            },
        )?;
        Ok(chunks.concat())
    }

    /// Numbers the `frontier` nodes `order` has not scanned yet (a node
    /// scanned before emitted all its pairs then) before any fan-out, so
    /// workers only read the order, and returns them with the worker
    /// count their scan pays for.
    fn number_fresh(&self, frontier: &[RecordId], order: &mut EpSeen) -> (Vec<RecordId>, usize) {
        let n = self.n_records();
        let fresh: Vec<RecordId> = frontier
            .iter()
            .copied()
            .filter(|&q| order.assign(q, n))
            .collect();
        let workers = if fresh.len() >= PAR_MIN_FRONTIER {
            self.config().effective_threads()
        } else {
            1
        };
        (fresh, workers)
    }

    /// The node scan's per-chunk body: counts the neighbourhood of each
    /// of `nodes` and collects, in first-touch order, every edge
    /// `(q, c)` that `keep` admits and `q` owns under `order`. `keep` is
    /// asked first, so an edge it refuses costs no scan-order read.
    fn owned_edges(
        &self,
        nodes: &[RecordId],
        order: &EpSeen,
        keep: impl Fn(RecordId, RecordId, u32) -> bool,
    ) -> Vec<(RecordId, RecordId)> {
        let mut scratch = CooccurrenceScratch::new();
        let mut out = Vec::new();
        for &q in nodes {
            let sq = order.get(q);
            for &(c, cbs) in self.cooccurrences_into(q, &mut scratch) {
                if keep(q, c, cbs) && order.owns(sq, c) {
                    out.push((q, c));
                }
            }
        }
        out
    }

    /// Runs the match decisions for `pairs`, position-aligned with their
    /// `classes`: a [`PairClass::Decided`] pair is a non-match without
    /// any work, a [`PairClass::Memo`] pair consults the pair-keyed
    /// decision memo first and memoizes a fresh decision, and a
    /// [`PairClass::Plain`] pair runs its kernel and leaves the memo
    /// alone — a batch without memo pairs adds nothing to it. Neither the
    /// Link Index nor the memo ever changes a decision: a Decided pair
    /// is one the kernel rejects, and a memoized value is exactly what
    /// the kernel returned for that pair. Every pair counts in
    /// `DedupMetrics::comparisons`; Decided pairs and memo hits count
    /// as `decision_cache_hits`, kernel runs as `decision_cache_misses`.
    fn execute_comparisons(
        &self,
        matcher: &CompiledMatcher<'_>,
        pairs: &[(RecordId, RecordId)],
        classes: &[PairClass],
        metrics: &mut DedupMetrics,
    ) -> Result<Vec<bool>, ResolveError> {
        if classes.iter().all(|&k| k == PairClass::Plain) {
            metrics.decision_cache_misses += pairs.len() as u64;
            return self.run_comparison_kernels(matcher, pairs);
        }
        // One pass under one memo lock: Decided pairs stay `false`, memo
        // hits take their value, memo misses and plain pairs queue a
        // kernel run.
        let mut decisions = vec![false; pairs.len()];
        let mut miss_at: Vec<u32> = Vec::new();
        {
            let memo = self.decisions.lock();
            for (i, (&(q, c), &class)) in pairs.iter().zip(classes).enumerate() {
                match class {
                    PairClass::Decided => {}
                    PairClass::Memo => match memo.get(&pack_pair(q, c)) {
                        Some(&e) if self.memo_serves(e, q, c) => decisions[i] = e.matched,
                        _ => miss_at.push(i as u32),
                    },
                    PairClass::Plain => miss_at.push(i as u32),
                }
            }
        }
        metrics.decision_cache_hits += (pairs.len() - miss_at.len()) as u64;
        metrics.decision_cache_misses += miss_at.len() as u64;
        if miss_at.is_empty() {
            return Ok(decisions);
        }
        let misses: Vec<(RecordId, RecordId)> =
            miss_at.iter().map(|&at| pairs[at as usize]).collect();
        let fresh = self.run_comparison_kernels(matcher, &misses)?;
        // A fresh decision overwrites a stale entry, so a pair keeps one.
        let epoch = self.write_epoch();
        let mut memo = self.decisions.lock();
        for ((&at, &(q, c)), &d) in miss_at.iter().zip(&misses).zip(&fresh) {
            decisions[at as usize] = d;
            if classes[at as usize] == PairClass::Memo {
                let entry = MemoEntry { epoch, matched: d };
                memo.insert(pack_pair(q, c), entry);
            }
        }
        Ok(decisions)
    }

    /// [`TableErIndex::execute_comparisons`] under a budget: pairs run in
    /// batches, with a budget poll and a clamp to the remaining
    /// comparison allowance before each. An unlimited budget never
    /// trips, so its pairs run as one batch, whose decision vector is the
    /// result as it stands; any other budget takes batches of
    /// `workers ×`[`CMP_BATCH_PER_WORKER`]. Returns the decisions of a
    /// prefix of `pairs` and why the run stopped early, if it did.
    /// Batch splitting cannot change a decision, since each is a pure
    /// function of the pair, so a truncated run's links are a subset of
    /// the full run's.
    fn execute_comparisons_governed(
        &self,
        matcher: &CompiledMatcher<'_>,
        pairs: &[(RecordId, RecordId)],
        classes: &[PairClass],
        metrics: &mut DedupMetrics,
        budget: &ResolveBudget,
        comparisons_done: u64,
    ) -> Result<(Vec<bool>, Option<Stop>), ResolveError> {
        let batch = if budget.is_unlimited() {
            pairs.len()
        } else {
            (self.config().effective_threads() * CMP_BATCH_PER_WORKER).max(PAR_MIN_PAIRS)
        };
        let mut decisions: Vec<bool> = Vec::new();
        while decisions.len() < pairs.len() {
            let at = decisions.len();
            if let Some(stop) = budget.interrupted() {
                return Ok((decisions, Some(stop)));
            }
            let allowed = budget.remaining_comparisons(comparisons_done + at as u64);
            if allowed == 0 {
                return Ok((decisions, Some(Stop::Comparisons)));
            }
            let take = batch
                .min(pairs.len() - at)
                .min(usize::try_from(allowed).unwrap_or(usize::MAX));
            let range = at..at + take;
            let part =
                self.execute_comparisons(matcher, &pairs[range.clone()], &classes[range], metrics)?;
            if at == 0 {
                decisions = part;
            } else {
                decisions.extend(part);
            }
        }
        Ok((decisions, None))
    }

    /// Runs the match decisions through the compiled kernel, fanning out
    /// across `effective_threads()` workers (`threads: 0` = auto,
    /// `QUERYER_THREADS`) once the batch is big enough to pay for
    /// them; a smaller batch runs on the caller's thread with its
    /// [`CALLER_SCRATCH`]. Decisions are position-aligned with `pairs` —
    /// chunk results concatenate in pair order — so thread count never
    /// affects results; a lost worker's chunk is discarded with the
    /// `Err`. Every
    /// comparison reads the kernel-ready per-record data built at index
    /// time (sorted symbol slices, pre-lowercased attributes, attribute
    /// metadata), so this stage tokenizes nothing and allocates nothing
    /// per pair.
    fn run_comparison_kernels(
        &self,
        matcher: &CompiledMatcher<'_>,
        pairs: &[(RecordId, RecordId)],
    ) -> Result<Vec<bool>, ResolveError> {
        let workers = if pairs.len() >= PAR_MIN_PAIRS {
            self.config().effective_threads()
        } else {
            1
        };
        if workers == 1 {
            let mut decisions = vec![false; pairs.len()];
            CALLER_SCRATCH.with(|scratch| {
                decide_pairs_batched(matcher, pairs, &mut decisions, &mut scratch.borrow_mut());
            });
            return Ok(decisions);
        }
        let parts = fan_out(
            pairs.len(),
            workers,
            "cmp.worker",
            ResolveStage::ComparisonExecution,
            |range| {
                let mut scratch = KernelScratch::new();
                let mut decisions = vec![false; range.len()];
                decide_pairs_batched(matcher, &pairs[range], &mut decisions, &mut scratch);
                decisions
            },
        )?;
        Ok(parts.concat())
    }
}

thread_local! {
    /// The kernel scratch of batches decided on the calling thread. Its
    /// buffers outlive the resolve, so a thread that issues query after
    /// query decides without allocating; every use overwrites what it
    /// reads.
    static CALLER_SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::new());
}

/// Decides a slice of pairs with comparison batching by record: pairs
/// arrive in runs sharing a query record (EP emits each frontier
/// entity's survivors consecutively; a batch's kernel list is two
/// subsequences of it, so runs survive filtering), and the query-side
/// profile/AttrMeta loads are hoisted to once per run via
/// [`CompiledMatcher::load_query`]. Decisions land position-aligned in
/// `out` and are bit-identical to per-pair `decide` calls — the loads
/// are pure index reads (pinned by `tests/kernel_equivalence.rs`).
fn decide_pairs_batched(
    matcher: &CompiledMatcher<'_>,
    pairs: &[(RecordId, RecordId)],
    out: &mut [bool],
    scratch: &mut KernelScratch,
) {
    let mut loaded: Option<QuerySide<'_>> = None;
    for (d, &(q, c)) in out.iter_mut().zip(pairs) {
        if !matches!(&loaded, Some(l) if l.record() == q) {
            loaded = Some(matcher.load_query(q));
        }
        let Some(qs) = loaded.as_ref() else {
            unreachable!("query side loaded above")
        };
        *d = matcher.decide_loaded(qs, c, scratch);
    }
}

/// Where the resolver reports each [`PairClass::Decided`] pair: nowhere
/// in a build, to the oracle test's recorder in the unit tests.
#[cfg(not(test))]
#[inline(always)]
fn note_decided(_pair: (RecordId, RecordId)) {}

#[cfg(test)]
fn note_decided(pair: (RecordId, RecordId)) {
    tests::LI_DECIDED.with(|d| d.borrow_mut().push(pair));
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // config tweaks read clearer as assignments
mod tests {
    use super::*;
    use crate::config::{ErConfig, MetaBlockingConfig, SimilarityKind, WeightScheme};
    use crate::delta::{Affected, DeltaOp};
    use crate::request::ResolveRequest;
    use proptest::prelude::*;
    use queryer_storage::{Schema, Table, Value};

    thread_local! {
        /// The pairs this thread's resolves classed
        /// [`PairClass::Decided`], drained by the oracle test below.
        pub(super) static LI_DECIDED: RefCell<Vec<(RecordId, RecordId)>> =
            const { RefCell::new(Vec::new()) };
    }

    fn dirty_table() -> Table {
        let mut t = Table::new("p", Schema::of_strings(&["id", "title", "venue"]));
        let rows = [
            ("0", "collective entity resolution", "edbt"),
            ("1", "collective entity resolutoin", "edbt"),
            ("2", "query driven entity resolution", "vldb"),
            ("3", "query driven entity resolution", "vldb"),
            ("4", "deep learning for vision", "cvpr"),
        ];
        for (id, title, venue) in rows {
            t.push_row(vec![id.into(), title.into(), venue.into()])
                .unwrap();
        }
        t
    }

    fn resolve_qe(cfg: &ErConfig, qe: &[RecordId]) -> (ResolveOutcome, DedupMetrics, LinkIndex) {
        let table = dirty_table();
        let idx = TableErIndex::build(&table, cfg);
        let mut li = LinkIndex::new(table.len());
        let mut m = DedupMetrics::default();
        let out = idx
            .run(ResolveRequest::records(&table, qe, &mut li).metrics(&mut m))
            .unwrap();
        (out, m, li)
    }

    #[test]
    fn finds_duplicates_of_query_entities() {
        let (out, m, li) = resolve_qe(&ErConfig::default(), &[0]);
        assert_eq!(out.dr, vec![0, 1]);
        assert!(li.are_linked(0, 1));
        assert!(!li.are_linked(0, 4));
        assert!(m.comparisons > 0);
    }

    /// Query Blocking, BP and BF are paid at build, so they read 0 under
    /// every config; with Edge Pruning off the node scan's time is the
    /// Block-Join's, and Edge Pruning reads 0 too.
    #[test]
    fn query_blocking_is_paid_at_build() {
        for meta in [
            MetaBlockingConfig::All,
            MetaBlockingConfig::BpBf,
            MetaBlockingConfig::Bp,
            MetaBlockingConfig::None,
        ] {
            let (_, m, _) = resolve_qe(&ErConfig::default().with_meta(meta), &[0, 1, 2, 3, 4]);
            assert!(m.candidate_pairs > 0, "{}", meta.label());
            assert_eq!(m.blocking, Duration::ZERO, "{}", meta.label());
            assert_eq!(m.meta_blocking(), m.edge_pruning, "{}", meta.label());
            if !meta.edge_pruning() {
                assert_eq!(m.edge_pruning, Duration::ZERO, "{}", meta.label());
            }
        }
    }

    /// With Edge Pruning off, `try_edge_pruned_pairs` emits every
    /// co-occurring pair exactly once: no threshold is read (an EP-off
    /// build sweeps none).
    #[test]
    fn ep_off_pairs_are_every_cooccurrence_once() {
        let table = dirty_table();
        let all: Vec<RecordId> = (0..table.len() as RecordId).collect();
        for meta in [
            MetaBlockingConfig::BpBf,
            MetaBlockingConfig::Bp,
            MetaBlockingConfig::None,
        ] {
            let idx = TableErIndex::build(&table, &ErConfig::default().with_meta(meta));
            let mut scratch = CooccurrenceScratch::new();
            let mut want = std::collections::BTreeSet::new();
            for &q in &all {
                for &(c, _) in idx.cooccurrences_into(q, &mut scratch) {
                    want.insert((q.min(c), q.max(c)));
                }
            }
            let pairs = idx
                .try_edge_pruned_pairs(&all, &mut EpSeen::new(), &mut DedupMetrics::default())
                .unwrap();
            let got: std::collections::BTreeSet<_> =
                pairs.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
            let case = meta.label();
            assert_eq!(got.len(), pairs.len(), "{case}: a pair emitted twice");
            assert_eq!(got, want, "{case}");
        }
    }

    /// Without writes the memo stays empty: a resolve-all runs every
    /// kernel, and a re-ask is served by the Link Index. Once a write
    /// un-resolves records, their pairs go through the memo: the first
    /// re-resolve fills it, and after the next write the second one is
    /// served from it entirely, every decision count equal to the cold
    /// pass's.
    #[test]
    fn warm_resolve_is_served_from_caches() {
        let table = dirty_table();
        let idx = TableErIndex::build(&table, &ErConfig::default());
        let all: Vec<RecordId> = (0..table.len() as RecordId).collect();
        let mut li = LinkIndex::new(table.len());
        let mut m_cold = DedupMetrics::default();
        let cold = idx
            .run(ResolveRequest::all(&table, &mut li).metrics(&mut m_cold))
            .unwrap();
        assert!(m_cold.comparisons > 0);
        assert_eq!(
            (m_cold.decision_cache_hits, m_cold.decision_cache_misses),
            (0, m_cold.comparisons),
            "nothing served before query 1"
        );
        assert_eq!(idx.resolve_cache_sizes(), (0, 0, 0), "no write, no memo");

        for pass in 0..2 {
            li.invalidate(&all);
            let mut m = DedupMetrics::default();
            let out = idx
                .run(ResolveRequest::all(&table, &mut li).metrics(&mut m))
                .unwrap();
            assert_eq!(out.dr, cold.dr, "pass {pass}");
            assert_eq!(out.new_links, cold.new_links, "pass {pass}");
            assert_eq!(m.comparisons, m_cold.comparisons, "pass {pass}");
            assert_eq!(m.candidate_pairs, m_cold.candidate_pairs, "pass {pass}");
            assert_eq!(m.matches_found, m_cold.matches_found, "pass {pass}");
            let want = match pass {
                0 => (0, m.comparisons),
                _ => (m.comparisons, 0),
            };
            assert_eq!(
                (m.decision_cache_hits, m.decision_cache_misses),
                want,
                "pass {pass}: the first re-resolve fills the memo, the second is served"
            );
            assert_eq!(idx.resolve_cache_sizes().2 as u64, m_cold.comparisons);
            // Edge Pruning keeps no memo: its counters read 0 either way.
            assert_eq!((m.ep_cache_hits, m.ep_cache_misses), (0, 0));
        }
    }

    /// A point query's re-resolve after a write memoizes exactly the
    /// pairs it decided, which stay fewer than a resolve-all's.
    #[test]
    fn cached_point_query_stays_incremental() {
        let table = dirty_table();
        let idx = TableErIndex::build(&table, &ErConfig::default());
        let mut li = LinkIndex::new(table.len());
        idx.run(ResolveRequest::records(&table, &[0], &mut li))
            .unwrap();
        assert_eq!(idx.resolve_cache_sizes(), (0, 0, 0), "no write, no memo");
        li.invalidate(&[0]);
        let mut m = DedupMetrics::default();
        idx.run(ResolveRequest::records(&table, &[0], &mut li).metrics(&mut m))
            .unwrap();
        let (_, _, point) = idx.resolve_cache_sizes();
        assert_eq!(
            point as u64, m.comparisons,
            "the memo holds exactly the pairs the re-resolve decided"
        );
        let full = TableErIndex::build(&table, &ErConfig::default());
        let mut li = LinkIndex::new(table.len());
        full.run(ResolveRequest::all(&table, &mut li)).unwrap();
        li.invalidate_all();
        full.run(ResolveRequest::all(&table, &mut li)).unwrap();
        let (_, _, all) = full.resolve_cache_sizes();
        assert!(
            point < all,
            "point query must stay partial: {point} of {all}"
        );
    }

    #[test]
    fn second_query_served_from_link_index() {
        let table = dirty_table();
        let cfg = ErConfig::default();
        let idx = TableErIndex::build(&table, &cfg);
        let mut li = LinkIndex::new(table.len());
        let mut m1 = DedupMetrics::default();
        idx.run(ResolveRequest::records(&table, &[0, 1], &mut li).metrics(&mut m1))
            .unwrap();
        assert!(m1.comparisons > 0);
        let mut m2 = DedupMetrics::default();
        let out2 = idx
            .run(ResolveRequest::records(&table, &[0, 1], &mut li).metrics(&mut m2))
            .unwrap();
        assert_eq!(
            m2.comparisons, 0,
            "resolved entities must be served from LI"
        );
        assert_eq!(out2.dr, vec![0, 1]);
    }

    #[test]
    fn transitive_expansion_reaches_chain() {
        // A and C share no token; both match B via containment.
        let mut t = Table::new("p", Schema::of_strings(&["id", "words"]));
        t.push_row(vec!["0".into(), "alpha common".into()]).unwrap();
        t.push_row(vec!["1".into(), "alpha common omega zeta".into()])
            .unwrap();
        t.push_row(vec!["2".into(), "omega zeta".into()]).unwrap();
        let mut cfg = ErConfig::default().with_meta(MetaBlockingConfig::None);
        cfg.similarity = SimilarityKind::TokenOverlap;
        cfg.match_threshold = 0.95;

        let idx = TableErIndex::build(&t, &cfg);
        let mut li = LinkIndex::new(t.len());
        let mut m = DedupMetrics::default();
        let out = idx
            .run(ResolveRequest::records(&t, &[0], &mut li).metrics(&mut m))
            .unwrap();
        assert_eq!(out.dr, vec![0, 1, 2], "C reachable only through B");
        assert_eq!(out.clusters, vec![0, 0, 0]);
    }

    #[test]
    fn resolve_all_equals_union_of_queries() {
        let table = dirty_table();
        let cfg = ErConfig::default();
        let idx = TableErIndex::build(&table, &cfg);

        let mut li_batch = LinkIndex::new(table.len());
        let mut m = DedupMetrics::default();
        idx.run(ResolveRequest::all(&table, &mut li_batch).metrics(&mut m))
            .unwrap();

        let mut li_inc = LinkIndex::new(table.len());
        for q in 0..table.len() as RecordId {
            let mut m = DedupMetrics::default();
            idx.run(ResolveRequest::records(&table, &[q], &mut li_inc).metrics(&mut m))
                .unwrap();
        }
        for a in 0..table.len() as RecordId {
            for b in 0..table.len() as RecordId {
                assert_eq!(
                    li_batch.are_linked(a, b),
                    li_inc.are_linked(a, b),
                    "links must agree for ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn outcome_labels_group_components() {
        let (out, _, _) = resolve_qe(&ErConfig::default(), &[0, 1, 2, 3, 4]);
        assert_eq!(out.dr, vec![0, 1, 2, 3, 4]);
        let cm = &out.clusters;
        assert_eq!(cm[0], cm[1]);
        assert_eq!(cm[2], cm[3]);
        assert_ne!(cm[0], cm[2]);
        assert_eq!(cm[4], 4);
    }

    #[test]
    fn parallel_matches_sequential() {
        let table = dirty_table();
        let mut cfg = ErConfig::default();
        cfg.threads = 4;
        let idx = TableErIndex::build(&table, &cfg);
        let mut li_par = LinkIndex::new(table.len());
        let mut m = DedupMetrics::default();
        idx.run(ResolveRequest::all(&table, &mut li_par).metrics(&mut m))
            .unwrap();

        let idx_seq = TableErIndex::build(&table, &ErConfig::default());
        let mut li_seq = LinkIndex::new(table.len());
        let mut m = DedupMetrics::default();
        idx_seq
            .run(ResolveRequest::all(&table, &mut li_seq).metrics(&mut m))
            .unwrap();
        assert_eq!(li_par.link_count(), li_seq.link_count());
    }

    #[test]
    fn empty_qe_is_noop() {
        let (out, m, _) = resolve_qe(&ErConfig::default(), &[]);
        assert!(out.dr.is_empty());
        assert_eq!(m.comparisons, 0);
    }

    #[test]
    fn unlimited_resolve_reports_complete() {
        let (out, _, _) = resolve_qe(&ErConfig::default(), &[0, 1, 2, 3, 4]);
        assert!(out.completion.is_complete());
        assert_eq!(out.completion, Completion::Complete);
    }

    #[test]
    fn wrong_length_table_is_table_mismatch() {
        let table = dirty_table();
        let idx = TableErIndex::build(&table, &ErConfig::default());
        let mut short = Table::new("p", Schema::of_strings(&["id", "title", "venue"]));
        short
            .push_row(vec!["0".into(), "x".into(), "y".into()])
            .unwrap();
        let mut li = LinkIndex::new(table.len());
        let mut m = DedupMetrics::default();
        let err = idx
            .run(ResolveRequest::records(&short, &[0], &mut li).metrics(&mut m))
            .unwrap_err();
        assert_eq!(
            err,
            ResolveError::TableMismatch {
                expected: table.len(),
                got: 1
            }
        );
        assert_eq!(li.link_count(), 0, "failed resolve must not touch links");
    }

    #[test]
    fn cancelled_before_start_does_no_work() {
        let table = dirty_table();
        let idx = TableErIndex::build(&table, &ErConfig::default());
        let token = crate::CancelToken::new();
        token.cancel();
        let budget = ResolveBudget::unlimited().with_cancel(token);
        let mut li = LinkIndex::new(table.len());
        let mut m = DedupMetrics::default();
        let out = idx
            .run(
                ResolveRequest::records(&table, &[0, 1, 2, 3, 4], &mut li)
                    .budget(budget.clone())
                    .metrics(&mut m),
            )
            .unwrap();
        assert_eq!(
            out.completion,
            Completion::Cancelled {
                stage: ResolveStage::EdgePruning,
                comparisons_done: 0
            }
        );
        assert_eq!(m.comparisons, 0);
        assert_eq!(out.new_links, 0);
        assert_eq!(li.link_count(), 0);
    }

    #[test]
    fn zero_comparison_budget_yields_partial_outcome() {
        let table = dirty_table();
        let idx = TableErIndex::build(&table, &ErConfig::default());
        let budget = ResolveBudget::unlimited().with_max_comparisons(0);
        let mut li = LinkIndex::new(table.len());
        let mut m = DedupMetrics::default();
        let out = idx
            .run(
                ResolveRequest::records(&table, &[0, 1, 2, 3, 4], &mut li)
                    .budget(budget.clone())
                    .metrics(&mut m),
            )
            .unwrap();
        assert!(!out.completion.is_complete());
        assert_eq!(m.comparisons, 0);
        assert!(m.pairs_uncompared > 0, "skipped pairs must be accounted");
        assert_eq!(li.link_count(), 0);
    }

    #[test]
    fn budgeted_links_are_subset_of_full_run() {
        let table = dirty_table();
        let idx = TableErIndex::build(&table, &ErConfig::default());
        let mut li_full = LinkIndex::new(table.len());
        let mut m = DedupMetrics::default();
        idx.run(ResolveRequest::all(&table, &mut li_full).metrics(&mut m))
            .unwrap();
        for cap in 0..=m.comparisons {
            let budget = ResolveBudget::unlimited().with_max_comparisons(cap);
            let mut li = LinkIndex::new(table.len());
            let mut mb = DedupMetrics::default();
            let out = idx
                .run(
                    ResolveRequest::all(&table, &mut li)
                        .budget(budget.clone())
                        .metrics(&mut mb),
                )
                .unwrap();
            assert!(mb.comparisons <= cap, "cap {cap} exceeded");
            for a in 0..table.len() as RecordId {
                for b in 0..table.len() as RecordId {
                    if li.are_linked(a, b) {
                        assert!(
                            li_full.are_linked(a, b),
                            "({a},{b}) not in full run (cap {cap})"
                        );
                    }
                }
            }
            if cap == m.comparisons && out.completion.is_complete() {
                assert_eq!(li.link_count(), li_full.link_count());
            }
        }
    }

    #[test]
    fn nulls_do_not_block() {
        let mut t = Table::new("p", Schema::of_strings(&["id", "a"]));
        t.push_row(vec!["0".into(), Value::Null]).unwrap();
        t.push_row(vec!["1".into(), Value::Null]).unwrap();
        let idx = TableErIndex::build(&t, &ErConfig::default());
        let mut li = LinkIndex::new(t.len());
        let mut m = DedupMetrics::default();
        let out = idx
            .run(ResolveRequest::records(&t, &[0, 1], &mut li).metrics(&mut m))
            .unwrap();
        assert_eq!(out.dr, vec![0, 1]);
        assert_eq!(m.comparisons, 0, "all-null records share no blocks");
        assert_eq!(li.link_count(), 0);
    }
    /// Small vocabulary so random rows share blocking tokens and
    /// repeat each other.
    const WORDS: [&str; 8] = [
        "entity",
        "resolution",
        "collective",
        "query",
        "driven",
        "data",
        "edbt",
        "vldb",
    ];

    fn words(w: &[usize]) -> Value {
        if w.is_empty() {
            Value::Null
        } else {
            let text: Vec<&str> = w.iter().map(|&i| WORDS[i]).collect();
            Value::str(text.join(" "))
        }
    }

    fn word_list() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(0usize..WORDS.len(), 0..4)
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: queryer_common::knobs::proptest_cases(64),
            .. ProptestConfig::default()
        })]

        /// Every pair the Link Index decides is one the compiled kernel
        /// rejects, over random sessions of point / range queries and
        /// one-row writes, with EP on (under each weight scheme, with and
        /// without Block Filtering) and off.
        #[test]
        fn li_decided_pairs_are_kernel_non_matches(
            rows in proptest::collection::vec(word_list(), 2..20),
            steps in proptest::collection::vec((0usize..5, 0usize..64, 0usize..64, word_list()), 1..12),
            scheme in 0usize..3,
            meta in 0usize..3,
        ) {
            let mut table = Table::new("p", Schema::of_strings(&["id", "title"]));
            for (i, w) in rows.iter().enumerate() {
                table.push_row(vec![i.to_string().into(), words(w)]).unwrap();
            }
            let metas = [MetaBlockingConfig::All, MetaBlockingConfig::BpEp, MetaBlockingConfig::None];
            let mut cfg = ErConfig::default().with_meta(metas[meta]);
            cfg.weight_scheme = [WeightScheme::Cbs, WeightScheme::Ecbs, WeightScheme::Js][scheme];
            let mut idx = TableErIndex::build(&table, &cfg);
            let mut li = LinkIndex::new(table.len());
            LI_DECIDED.with(|d| d.borrow_mut().clear());
            for (kind, a, b, w) in steps {
                let n = table.len();
                let (a, b) = (a % n, b % n);
                let op = match kind {
                    0..=2 => {
                        let qe: Vec<RecordId> = (a.min(b)..=a.max(b)).map(|r| r as RecordId).collect();
                        idx.run(ResolveRequest::records(&table, &qe, &mut li)).unwrap();
                        let matcher = CompiledMatcher::new(cfg.similarity, cfg.match_threshold, &idx);
                        let mut scratch = KernelScratch::new();
                        for (q, c) in LI_DECIDED.with(|d| std::mem::take(&mut *d.borrow_mut())) {
                            prop_assert!(
                                !matcher.decide(q, c, &mut scratch),
                                "the Link Index decided the matching pair ({}, {})", q, c
                            );
                        }
                        continue;
                    }
                    3 => DeltaOp::Insert { values: vec![n.to_string().into(), words(&w)] },
                    _ => DeltaOp::Update { id: a as RecordId, values: vec![a.to_string().into(), words(&w)] },
                };
                op.apply_to_table(&mut table).unwrap();
                let applied = idx.apply_delta(&table, &[op]).unwrap();
                li.grow(table.len());
                match applied.affected {
                    Affected::Ids(ids) => li.invalidate(&ids),
                    Affected::All => li.invalidate_all(),
                }
            }
        }
    }
}
