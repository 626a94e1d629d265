//! The resolver: the ER pipeline inside the Deduplicate operator
//! (Sec. 6.1, Fig. 3) — Query Blocking → Block-Join → Meta-Blocking →
//! Comparison-Execution — plus the Link Index bookkeeping and the
//! transitive frontier expansion that makes Dedupe-query results equal
//! the batch approach's connected components.
//!
//! Every query entity is a record of the indexed table, so the first two
//! stages collapse into ITBI lookups: a record's `entity_blocks` row
//! *is* its QBI⋈TBI join, built once at index time, so a resolve never
//! tokenizes a record and never hash-joins token strings.

use crate::config::EdgePruningScope;
use crate::edge_pruning::{prune_global, survivors_over, EdgePruner};
use crate::govern::{fan_out, Completion, ResolveBudget, ResolveError, ResolveStage, Stop};
use crate::index::{BlockId, CooccurrenceScratch, TableErIndex};
use crate::kernel::{CompiledMatcher, KernelScratch, QuerySide};
use crate::link_index::{LinkDelta, LinkIndex};
use crate::metrics::DedupMetrics;
use crate::request::LiMode;
use queryer_common::failpoints;
use queryer_common::{pack_pair, FxHashMap, FxHashSet, PairSet, Stopwatch};
use queryer_storage::{RecordId, Table};
use std::time::Duration;

/// Minimum frontier size before the Edge Pruning scans fan out across
/// threads; below this the per-thread scratch setup outweighs the win
/// (transitive-expansion rounds typically have tiny frontiers).
const PAR_MIN_FRONTIER: usize = 256;

/// Minimum pair count before Comparison-Execution fans out across
/// threads; below this the thread spawn overhead outweighs the win.
const PAR_MIN_PAIRS: usize = 1024;

/// A sequential global-EP scan (and the frontier dedup) builds an
/// O(`n_records`) array only when the frontier covers at least
/// 1/`RANK_AMORTIZE` of the table; below that a point query's handful
/// of neighbourhoods is cheaper to dedup with per-edge hash probes than
/// to pay a table-sized fill per round.
const RANK_AMORTIZE: usize = 32;

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
    /// Links newly added to the Link Index by this resolution.
    pub new_links: usize,
    /// How the resolve finished. Always [`Completion::Complete`] under
    /// an unlimited budget; a budgeted/cancelled run reports the stage
    /// it stopped in, and its links are a subset of the full run's.
    pub completion: Completion,
}

/// Outcome of one governed comparison batch run: decisions for the
/// first `executed` pairs of the input (a prefix — truncation only ever
/// happens at batch boundaries) and why the run stopped early, if it
/// did.
struct CmpRun {
    decisions: Vec<bool>,
    executed: usize,
    stop: Option<Stop>,
}

/// Per-query mutable resolve state. Everything a resolve mutates —
/// the cross-round pair-seen set, the links and resolved marks found so
/// far, budget progress, completion status — lives here (or in the
/// round-local frontier/scratch vectors), so N concurrent queries over
/// one `Arc<TableErIndex>` share nothing mutable except the Link Index,
/// which they only read until the one commit that ends the query.
struct ResolveCtx {
    /// Pairs already emitted by earlier rounds of *this* query.
    pair_seen: PairSet,
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
    /// The round loop polls the budget at round starts and
    /// Comparison-Execution runs in budget-clamped batches — so an
    /// exhausted budget or an external cancel stops work at the next
    /// round or batch boundary and the call returns a partial-but-valid
    /// outcome whose [`ResolveOutcome::completion`] reports the stage
    /// and comparison count.
    ///
    /// Partial-run guarantees (pinned by `tests/budget_equivalence.rs`):
    /// under any budget, every executed comparison's decision — and
    /// hence every committed link — equals the full run's, so the links
    /// are a subset of the full run's links; and a truncated round's
    /// marks never enter the delta, so re-resolving with more budget
    /// converges to the full answer. On error (worker panic, poisoned
    /// index) the delta is dropped uncommitted — a failed query leaves
    /// the Link Index exactly as it found it.
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
            pair_seen: PairSet::new(),
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
            // DR_E reads the post-commit LI, so this query's own links
            // are visible; concurrent commits may enlarge clusters, which
            // only moves the result closer to the full batch answer.
            let dr = li.read(&mut ctx.lock_wait, |g| self.dr_of(g, qe));
            ResolveOutcome {
                dr,
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

    /// DR_E: the query entities plus every duplicate reachable in `li`.
    fn dr_of(&self, li: &LinkIndex, qe: &[RecordId]) -> Vec<RecordId> {
        if self.config().transitive {
            li.closure(qe.iter().copied())
        } else {
            let mut out: FxHashSet<RecordId> = qe.iter().copied().collect();
            for &q in qe {
                out.extend(li.neighbors(q).iter().copied());
            }
            let mut v: Vec<RecordId> = out.into_iter().collect();
            v.sort_unstable();
            v
        }
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

            // Pair generation. With Edge Pruning on, the frontier's
            // neighbourhoods are read straight off the CSR blocking
            // graph — BP and BF are already baked into the retained /
            // filtered rows, so the enriched QBI would be dead work and
            // is only assembled for the per-block pair path below.
            let pairs: Vec<(RecordId, RecordId)> = if self.config().meta.edge_pruning() {
                self.try_edge_pruned_pairs(&frontier, &mut ctx.pair_seen, metrics)?
            } else {
                // (i) Query Blocking + (ii) Block-Join — for in-table
                // query entities the ITBI row of each record is exactly
                // the QBI of that record already joined against the TBI
                // (same blocking function, joined at build time).
                // Assembling the enriched QBI is therefore a pure index
                // lookup: no tokenization, no string hashing.
                let mut sw = Stopwatch::new();
                let mut eqbi: Vec<(BlockId, RecordId)> =
                    sw.time(|| self.itbi_query_blocks(&frontier));
                metrics.block_join += sw.elapsed();

                // (iii) Meta-Blocking, in the strict order BP → BF —
                // flat retains over the (block, entity) entries; blocks
                // whose last entry goes vanish implicitly.
                let mut sw = Stopwatch::new();
                if self.config().meta.purging() {
                    sw.time(|| eqbi.retain(|&(b, _)| !self.is_purged(b)));
                }
                metrics.purging += sw.elapsed();

                let mut sw = Stopwatch::new();
                if self.config().meta.filtering() {
                    sw.time(|| eqbi.retain(|&(b, q)| self.retains(q, b)));
                }
                metrics.filtering += sw.elapsed();

                self.block_pairs(&eqbi, &mut ctx.pair_seen)
            };
            metrics.candidate_pairs += pairs.len() as u64;

            // (iv) Comparison-Execution. Pairs already linked by previous
            // queries (or earlier rounds of this one) need no comparison
            // but still contribute partners. One LI view for the whole
            // batch — the loop body is hash probes only.
            let mut sw = Stopwatch::new();
            sw.start();
            let mut partners: Vec<RecordId> = Vec::new();
            let mut to_compare: Vec<(RecordId, RecordId)> = Vec::with_capacity(pairs.len());
            li.read(&mut ctx.lock_wait, |g| {
                for (q, c) in pairs {
                    if g.are_linked(q, c) || ctx.delta.are_linked(q, c) {
                        partners.push(c);
                    } else {
                        to_compare.push((q, c));
                    }
                }
            });
            let run = self.execute_comparisons_governed(
                &matcher,
                &to_compare,
                metrics,
                budget,
                ctx.comparisons_done,
            )?;
            metrics.comparisons += run.executed as u64;
            ctx.comparisons_done += run.executed as u64;
            for (&(q, c), matched) in to_compare[..run.executed].iter().zip(run.decisions) {
                if matched {
                    ctx.delta.add_link(q, c);
                    metrics.matches_found += 1;
                    partners.push(c);
                }
            }
            sw.stop();
            metrics.resolution += sw.elapsed();

            if let Some(stop) = run.stop {
                // Truncated round: its frontier is NOT marked resolved —
                // some of its pairs were never decided, and marking
                // would make the Link Index claim completeness it does
                // not have. Every decided link is still committed; a
                // later resolve redoes this frontier and converges to
                // the full answer.
                metrics.pairs_uncompared += (to_compare.len() - run.executed) as u64;
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
            frontier = if self.config().transitive {
                self.unresolved_frontier(li, ctx, partners.into_iter())
            } else {
                Vec::new()
            };
        }
        Ok(())
    }

    /// Order-preserving first-occurrence dedup of frontier candidates,
    /// dropping entities already resolved — by a committed query, or by
    /// an earlier round of this one (in its uncommitted delta).
    /// Point-query shapes keep the hash-set probe; once the candidate
    /// list covers at least 1/[`RANK_AMORTIZE`] of the table, a dense
    /// seen-array pass (the same amortization rule as the EP
    /// frontier-rank ownership scan) replaces the per-entity hashing — a
    /// resolve-all round dedups with two array ops per candidate instead
    /// of a hash insert.
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

    /// Assembles the enriched QBI of in-table query entities from the
    /// ITBI as one flat `(block, entity)` vector, grouped by block id
    /// via a stable sort (so entities within a block keep frontier
    /// order, exactly like the old per-block grouping). One vector, one
    /// sort — no per-block allocation per query.
    fn itbi_query_blocks(&self, frontier: &[RecordId]) -> Vec<(BlockId, RecordId)> {
        let mut eqbi: Vec<(BlockId, RecordId)> = Vec::new();
        for &q in frontier {
            for &b in self.blocks_of(q) {
                eqbi.push((b, q));
            }
        }
        eqbi.sort_by_key(|&(b, _)| b);
        eqbi
    }

    /// Plain per-block pair generation (no EP): within each enriched
    /// block, each query entity is compared against every other entity,
    /// each distinct pair once across all blocks. `eqbi` is grouped by
    /// block id, so block contents are looked up once per group.
    fn block_pairs(
        &self,
        eqbi: &[(BlockId, RecordId)],
        pair_seen: &mut PairSet,
    ) -> Vec<(RecordId, RecordId)> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < eqbi.len() {
            let b = eqbi[i].0;
            let others = if self.config().meta.filtering() {
                self.filtered_block(b)
            } else {
                self.raw_block(b)
            };
            while i < eqbi.len() && eqbi[i].0 == b {
                let q = eqbi[i].1;
                for &c in others {
                    if c != q && pair_seen.insert(q, c) {
                        out.push((q, c));
                    }
                }
                i += 1;
            }
        }
        out
    }

    /// EP pair generation: weight every edge incident to a frontier
    /// entity and keep it per the configured pruning scope, adding the
    /// wall time to `metrics.edge_pruning`. Exposed so the equivalence
    /// suites can pin the candidate pair sequence across thread counts
    /// — every configuration emits the bit-identical sequence.
    ///
    /// `frontier` entries must be distinct (the resolve loop always
    /// deduplicates): the scans assign each edge to its first-scanned
    /// endpoint, and a repeated entity would own its edges twice.
    ///
    /// `pair_seen` carries already-emitted pairs across calls; emitted
    /// pairs are recorded into it — except on the node-centric
    /// resolve-all shape (empty `pair_seen`, frontier spanning the whole
    /// table), where rank ownership performs the dedup and nothing is
    /// inserted. That shape exhausts every pair the index can emit, and
    /// the resolve loop marks its whole frontier resolved, so no later
    /// round can replay one of its pairs (pinned by
    /// `tests/ep_equivalence.rs`).
    ///
    /// This is the resolve loop's entry point. The frontier scans and
    /// survivor fills run to completion once started (they are bounded
    /// by the frontier, not the table) but are panic-hardened: a lost
    /// worker surfaces as [`ResolveError::WorkerPanicked`], and since
    /// Edge Pruning writes no shared state the index stays sound.
    pub fn try_edge_pruned_pairs(
        &self,
        frontier: &[RecordId],
        pair_seen: &mut PairSet,
        metrics: &mut DedupMetrics,
    ) -> Result<Vec<(RecordId, RecordId)>, ResolveError> {
        let mut sw = Stopwatch::new();
        let pairs = sw.time(|| match self.config().ep_scope {
            EdgePruningScope::NodeCentric => self.node_centric_pairs(frontier, pair_seen),
            EdgePruningScope::Global => self.global_pairs(frontier, pair_seen),
        });
        metrics.edge_pruning += sw.elapsed();
        pairs
    }

    /// Node-centric EP, the one enumerator: each frontier entity's
    /// *survivor row* — the neighbours whose edge it keeps, in
    /// first-touch scan order — is computed from its counted
    /// neighbourhood and the build-time threshold vector, then the rows
    /// are emitted in frontier order through one dedup. A row is a pure
    /// function of the index and the node, so thread count never
    /// changes the emitted sequence (pinned by
    /// `tests/ep_equivalence.rs` and `tests/cache_equivalence.rs`).
    ///
    /// For the resolve-all shape — a duplicate-free frontier spanning
    /// the whole table with no pairs seen yet — the emit loop skips the
    /// per-surviving-edge `PairSet` hash insert entirely: the
    /// frontier-rank ownership rule (each edge emitted only by its
    /// lower-rank endpoint) performs the dedup with two array loads per
    /// edge. The emitted sequence is bit-identical to the insert-probing
    /// loop, and later rounds are unaffected: a full-table round
    /// resolves every record, so no subsequent frontier can replay one
    /// of its pairs.
    fn node_centric_pairs(
        &self,
        frontier: &[RecordId],
        pair_seen: &mut PairSet,
    ) -> Result<Vec<(RecordId, RecordId)>, ResolveError> {
        let scheme = self.config().weight_scheme;
        let n_blocks = self.n_unpurged_blocks().max(1) as f64;
        let th = &self.ep_thresholds;
        // Survivor rows in frontier order, computed across disjoint
        // frontier chunks when the frontier pays for the threads. Each
        // worker fills one flat buffer for its chunk — the rows back to
        // back, `ends[i]` closing the chunk's `i`-th row — and the emit
        // loop below reads it; nothing outlives the call.
        let workers = if frontier.len() >= PAR_MIN_FRONTIER {
            self.config().effective_threads()
        } else {
            1
        };
        let chunks = fan_out(
            frontier.len(),
            workers,
            "ep.survivors.worker",
            ResolveStage::EdgePruning,
            |range| {
                let mut scratch = CooccurrenceScratch::new();
                let mut ends = Vec::with_capacity(range.len());
                let mut data = Vec::new();
                for &q in &frontier[range] {
                    let nbh = self.cooccurrences_into(q, &mut scratch);
                    survivors_over(self, scheme, n_blocks, q, nbh, th, &mut data);
                    ends.push(data.len());
                }
                (ends, data)
            },
        )?;
        let rows = chunks.iter().flat_map(|(ends, data)| {
            let mut start = 0;
            ends.iter().map(move |&end| {
                let row = &data[start..end];
                start = end;
                row
            })
        });
        // Resolve-all fast path: rank-ownership dedup instead of a
        // `PairSet` insert per surviving edge. Only sound when no pair
        // has been recorded yet (nothing to dedup against) and the
        // frontier covers every record without duplicates (so every
        // edge endpoint has a rank and each edge one unambiguous
        // owner); anything else takes the insert-probing arm.
        let replay_ranks = if pair_seen.is_empty() && frontier.len() == self.n_records() {
            self.distinct_frontier_ranks(frontier)
        } else {
            None
        };
        let mut out = Vec::new();
        for (&q, survivors) in frontier.iter().zip(rows) {
            match &replay_ranks {
                Some(rank) => {
                    let rq = rank[q as usize];
                    for &c in survivors {
                        if rank[c as usize] >= rq {
                            out.push((q, c));
                        }
                    }
                }
                None => {
                    for &c in survivors {
                        if pair_seen.insert(q, c) {
                            out.push((q, c));
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// [`TableErIndex::frontier_ranks`], but `None` when the frontier
    /// contains a duplicate — the resolve loop always deduplicates its
    /// frontiers, but the public `try_edge_pruned_pairs` API does not
    /// promise it, and rank ownership would emit a duplicated node's
    /// edges twice.
    fn distinct_frontier_ranks(&self, frontier: &[RecordId]) -> Option<Vec<u32>> {
        let mut rank = vec![u32::MAX; self.n_records()];
        for (i, &q) in frontier.iter().enumerate() {
            let slot = &mut rank[q as usize];
            if *slot != u32::MAX {
                return None;
            }
            *slot = i as u32;
        }
        Some(rank)
    }

    /// Frontier scan positions: `rank[e]` is the index of `e`'s first
    /// occurrence in `frontier` (`u32::MAX` when absent). An edge whose
    /// endpoints are both in the frontier is visited twice by the scan;
    /// the endpoint with the lower rank *owns* it — emitting only at the
    /// owner reproduces the first-occurrence order (and the dedup) of
    /// per-edge `PairSet` probes without paying a hash lookup per edge
    /// occurrence.
    fn frontier_ranks(&self, frontier: &[RecordId]) -> Vec<u32> {
        let mut rank = vec![u32::MAX; self.n_records()];
        for (i, &q) in frontier.iter().enumerate() {
            let slot = &mut rank[q as usize];
            if *slot == u32::MAX {
                *slot = i as u32;
            }
        }
        rank
    }

    /// Global (WEP-style) EP: collect every distinct edge of the
    /// examined subgraph (fanning out across frontier chunks when the
    /// frontier pays for the threads), prune against the global mean,
    /// then de-duplicate against prior queries.
    fn global_pairs(
        &self,
        frontier: &[RecordId],
        pair_seen: &mut PairSet,
    ) -> Result<Vec<(RecordId, RecordId)>, ResolveError> {
        let pruner = EdgePruner::new(self);
        let workers = if frontier.len() >= PAR_MIN_FRONTIER {
            self.config().effective_threads()
        } else {
            1
        };
        let edges: Vec<(RecordId, RecordId, f64)> =
            if workers == 1 && frontier.len() * RANK_AMORTIZE < self.n_records() {
                // Point-query shape: hash-probe dedup instead of the
                // O(n_records) rank fill — a handful of neighbourhoods
                // is cheaper to dedup per edge than a table-sized array.
                let mut scratch = CooccurrenceScratch::new();
                let mut edge_seen = PairSet::new();
                let mut edges = Vec::new();
                for &q in frontier {
                    for &(c, cbs) in self.cooccurrences_into(q, &mut scratch) {
                        if edge_seen.insert(q, c) {
                            edges.push((q, c, pruner.weight(q, c, cbs)));
                        }
                    }
                }
                edges
            } else {
                // Rank ownership already makes each edge unique, so the
                // parts concatenated in frontier order (and hence the
                // pruning mean) equal one sequential collection exactly.
                let rank = self.frontier_ranks(frontier);
                fan_out(
                    frontier.len(),
                    workers,
                    "ep.scan.worker",
                    ResolveStage::EdgePruning,
                    |range| {
                        let mut scratch = CooccurrenceScratch::new();
                        let mut part = Vec::new();
                        for &q in &frontier[range] {
                            let rq = rank[q as usize];
                            for &(c, cbs) in self.cooccurrences_into(q, &mut scratch) {
                                if rank[c as usize] >= rq {
                                    part.push((q, c, pruner.weight(q, c, cbs)));
                                }
                            }
                        }
                        part
                    },
                )?
                .concat()
            };
        Ok(prune_global(&edges)
            .into_iter()
            .filter(|&(a, b)| pair_seen.insert(a, b))
            .collect())
    }

    /// Runs the match decisions for `pairs`, consulting the pair-keyed
    /// decision cache first: pairs
    /// decided by any earlier (overlapping) query skip kernel work
    /// entirely, and fresh decisions are memoized for the next query.
    /// Cache state never changes a decision — a cached value is exactly
    /// what the kernel returned for that pair — and never changes
    /// `DedupMetrics::comparisons` (hits and misses are reported in the
    /// dedicated `decision_cache_*` counters).
    fn execute_comparisons(
        &self,
        matcher: &CompiledMatcher<'_>,
        pairs: &[(RecordId, RecordId)],
        metrics: &mut DedupMetrics,
    ) -> Result<Vec<bool>, ResolveError> {
        let cache = &self.decisions;
        let keys: Vec<u64> = pairs.iter().map(|&(q, c)| pack_pair(q, c)).collect();
        // First query on a fresh cache: skip the probe pass entirely —
        // every pair is a miss by definition.
        let mut cached: Vec<Option<bool>> = Vec::new();
        if cache.is_empty() {
            cached.resize(pairs.len(), None);
        } else {
            cache.get_batch(&keys, &mut cached);
        }
        let mut decisions = vec![false; pairs.len()];
        let mut miss_at: Vec<u32> = Vec::new();
        let mut misses: Vec<(RecordId, RecordId)> = Vec::new();
        for (i, served) in cached.iter().enumerate() {
            match *served {
                Some(d) => decisions[i] = d,
                None => {
                    miss_at.push(i as u32);
                    misses.push(pairs[i]);
                }
            }
        }
        metrics.decision_cache_hits += (pairs.len() - misses.len()) as u64;
        metrics.decision_cache_misses += misses.len() as u64;
        if misses.is_empty() {
            return Ok(decisions);
        }
        let fresh = self.run_comparison_kernels(matcher, &misses)?;
        let mut entries: Vec<(u64, bool)> = Vec::with_capacity(misses.len());
        for (&at, d) in miss_at.iter().zip(fresh) {
            entries.push((keys[at as usize], d));
            decisions[at as usize] = d;
        }
        // Pre-size the memo for this batch's misses before the bulk
        // insert: a resolve_all round can add hundreds of thousands of
        // decisions at once, and growing shard tables mid-insert would
        // rehash every existing entry several times.
        cache.reserve(entries.len());
        cache.insert_batch(&entries);
        Ok(decisions)
    }

    /// [`TableErIndex::execute_comparisons`] under a budget. Unlimited
    /// budgets take the historical single-batch path (bit-identical, no
    /// polls); otherwise pairs run in batches of
    /// `workers ×`[`CMP_BATCH_PER_WORKER`], each batch clamped to the
    /// remaining comparison allowance, with a budget poll between
    /// batches. Decisions are a prefix of `pairs` — batch splitting
    /// cannot change them, since each decision is a pure function of the
    /// pair — so a truncated run's links are a subset of the full run's.
    fn execute_comparisons_governed(
        &self,
        matcher: &CompiledMatcher<'_>,
        pairs: &[(RecordId, RecordId)],
        metrics: &mut DedupMetrics,
        budget: &ResolveBudget,
        comparisons_done: u64,
    ) -> Result<CmpRun, ResolveError> {
        if budget.is_unlimited() {
            let decisions = self.execute_comparisons(matcher, pairs, metrics)?;
            return Ok(CmpRun {
                executed: pairs.len(),
                decisions,
                stop: None,
            });
        }
        let batch = (self.config().effective_threads() * CMP_BATCH_PER_WORKER).max(PAR_MIN_PAIRS);
        let mut decisions: Vec<bool> = Vec::with_capacity(pairs.len());
        let mut at = 0usize;
        let mut stop = None;
        while at < pairs.len() {
            if let Some(s) = budget.interrupted() {
                stop = Some(s);
                break;
            }
            let allowed = budget.remaining_comparisons(comparisons_done + at as u64);
            if allowed == 0 {
                stop = Some(Stop::Comparisons);
                break;
            }
            let take = batch
                .min(pairs.len() - at)
                .min(usize::try_from(allowed).unwrap_or(usize::MAX));
            decisions.extend(self.execute_comparisons(matcher, &pairs[at..at + take], metrics)?);
            at += take;
        }
        Ok(CmpRun {
            decisions,
            executed: at,
            stop,
        })
    }

    /// Runs the match decisions through the compiled kernel, fanning out
    /// across `effective_threads()` workers (`threads: 0` = auto,
    /// `QUERYER_THREADS`) once the batch is big enough to pay for
    /// them. Decisions are position-aligned with `pairs` — chunk results
    /// concatenate in pair order — so thread count never affects
    /// results; a lost worker's chunk is discarded with the `Err`. Every
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

    /// Duplicate clusters among `ids` according to the links in `li`
    /// (connected components, cluster id = min member id). Returns a map
    /// record → cluster id for every id in the closure of `ids`.
    pub fn cluster_map(&self, li: &LinkIndex, ids: &[RecordId]) -> FxHashMap<RecordId, RecordId> {
        let members = li.closure(ids.iter().copied());
        // Union-find over the (small) closure only.
        let pos: FxHashMap<RecordId, u32> = members
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, i as u32))
            .collect();
        let mut uf = crate::union_find::UnionFind::new(members.len());
        for (&r, &i) in &pos {
            for &n in li.neighbors(r) {
                if let Some(&j) = pos.get(&n) {
                    uf.union(i, j);
                }
            }
        }
        let clusters = uf.clusters();
        members
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, members[clusters[i] as usize]))
            .collect()
    }
}

/// Decides a slice of pairs with comparison batching by record: pairs
/// arrive in runs sharing a query record (EP emits each frontier
/// entity's survivors consecutively; the decision-cache miss list is a
/// subsequence, so runs survive filtering), and the query-side
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

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // config tweaks read clearer as assignments
mod tests {
    use super::*;
    use crate::config::{ErConfig, MetaBlockingConfig, SimilarityKind};
    use crate::request::ResolveRequest;
    use queryer_storage::{Schema, Table, Value};

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

    #[test]
    fn query_blocking_is_paid_at_build() {
        let (_, m, _) = resolve_qe(&ErConfig::default(), &[0, 1, 2, 3, 4]);
        assert_eq!(m.blocking, std::time::Duration::ZERO);
    }

    #[test]
    fn warm_resolve_is_served_from_caches() {
        let table = dirty_table();
        let idx = TableErIndex::build(&table, &ErConfig::default());

        let mut li_cold = LinkIndex::new(table.len());
        let mut m_cold = DedupMetrics::default();
        let out_cold = idx
            .run(ResolveRequest::all(&table, &mut li_cold).metrics(&mut m_cold))
            .unwrap();
        assert!(m_cold.comparisons > 0);
        assert_eq!(
            m_cold.decision_cache_hits, 0,
            "nothing cached before query 1"
        );
        assert_eq!(m_cold.decision_cache_misses, m_cold.comparisons);

        // Same workload, fresh Link Index, hot memo: every decision must
        // be served, and every decision count must match the cold pass
        // exactly.
        let mut li_warm = LinkIndex::new(table.len());
        let mut m_warm = DedupMetrics::default();
        let out_warm = idx
            .run(ResolveRequest::all(&table, &mut li_warm).metrics(&mut m_warm))
            .unwrap();
        assert_eq!(out_warm.dr, out_cold.dr);
        assert_eq!(out_warm.new_links, out_cold.new_links);
        assert_eq!(m_warm.comparisons, m_cold.comparisons);
        assert_eq!(m_warm.candidate_pairs, m_cold.candidate_pairs);
        assert_eq!(m_warm.matches_found, m_cold.matches_found);
        assert_eq!(m_warm.decision_cache_misses, 0, "all decisions cached");
        assert_eq!(m_warm.decision_cache_hits, m_warm.comparisons);
        // Edge Pruning keeps no memo: its counters read 0 either way.
        for m in [&m_cold, &m_warm] {
            assert_eq!((m.ep_cache_hits, m.ep_cache_misses), (0, 0));
        }
    }

    #[test]
    fn cached_point_query_stays_incremental() {
        let table = dirty_table();
        let idx = TableErIndex::build(&table, &ErConfig::default());
        let mut li = LinkIndex::new(table.len());
        let mut m = DedupMetrics::default();
        idx.run(ResolveRequest::records(&table, &[0], &mut li).metrics(&mut m))
            .unwrap();
        let (_, _, point) = idx.resolve_cache_sizes();
        assert_eq!(
            point as u64, m.comparisons,
            "the memo holds exactly the pairs the query decided"
        );
        let full = TableErIndex::build(&table, &ErConfig::default());
        let mut li = LinkIndex::new(table.len());
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

        cfg.transitive = false;
        let idx = TableErIndex::build(&t, &cfg);
        let mut li = LinkIndex::new(t.len());
        let mut m = DedupMetrics::default();
        let out = idx
            .run(ResolveRequest::records(&t, &[0], &mut li).metrics(&mut m))
            .unwrap();
        assert_eq!(out.dr, vec![0, 1], "no expansion without transitivity");
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
    fn cluster_map_groups_components() {
        let (_, _, li) = resolve_qe(&ErConfig::default(), &[0, 1, 2, 3, 4]);
        let table = dirty_table();
        let idx = TableErIndex::build(&table, &ErConfig::default());
        let cm = idx.cluster_map(&li, &[0, 1, 2, 3, 4]);
        assert_eq!(cm[&0], cm[&1]);
        assert_eq!(cm[&2], cm[&3]);
        assert_ne!(cm[&0], cm[&2]);
        assert_eq!(cm[&4], 4);
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
}
