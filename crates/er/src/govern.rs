//! Resource governance for `resolve`: budgets, cooperative
//! cancellation, completion status, and the typed error surface.
//!
//! A [`ResolveBudget`] bounds how much work one resolve call may do —
//! a wall-clock deadline, a comparison cap, a [`CancelToken`] flipped by
//! another thread, or any combination. The resolver polls the budget at
//! cheap boundaries only (round starts and comparison batches), so an
//! exhausted budget or an external cancel stops work at the *next
//! round or batch boundary* and the call returns a
//! partial-but-valid [`ResolveOutcome`](crate::ResolveOutcome) whose
//! [`Completion`] says which stage stopped and how many comparisons ran.
//!
//! Two invariants make partial results usable (both property-pinned by
//! `crates/er/tests/budget_equivalence.rs`):
//!
//! * **Unlimited is free and bit-identical** — a default
//!   [`ResolveBudget::unlimited`] never interrupts: Comparison-Execution
//!   runs each round's pairs as one batch of the governed loop, so
//!   decisions, links, DR sets, and metrics equal those of any budget
//!   that never trips.
//! * **Partial is a prefix** — comparisons are truncated only at batch
//!   boundaries, every executed pair's decision is the same pure
//!   function of the immutable index as in a full run, and a truncated
//!   round never marks its frontier resolved in the
//!   [`LinkIndex`](crate::LinkIndex). Hence every link emitted under
//!   *any* budget is a subset of the full run's links, and re-resolving
//!   with more budget converges to the full answer.
//!
//! [`ResolveError`] replaces the panic-shaped API edges: a wrong-table
//! call returns [`ResolveError::TableMismatch`] instead of asserting, a
//! worker thread that panics mid-fan-out is caught per-join and
//! surfaces as [`ResolveError::WorkerPanicked`] (workers write no
//! shared state, so the index keeps serving), and an
//! index whose delta apply was torn by a panic refuses service
//! with [`ResolveError::Poisoned`].
//!
//! All of the above holds on either kind of Link Index handle
//! (`&mut LinkIndex` or `&RwLock<LinkIndex>`), with two sharpenings
//! pinned by `crates/er/tests/concurrent_equivalence.rs` and
//! `crates/er/tests/fault_injection.rs`: a budget-stopped query commits
//! only complete link-sets (truncated rounds never enter its delta's
//! resolved marks), and an erroring query commits *nothing* — a worker
//! panic or poisoned index leaves the Link Index byte-identical to
//! before the call, so concurrent queries are fault-isolated from each
//! other and a failed call can simply be retried.

use queryer_common::{failpoints, CancelToken, CsrOverflow};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Which stage of a governed resolve an event is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolveStage {
    /// Index construction ([`TableErIndex::build`](crate::TableErIndex::build)
    /// tokenization / WNP-threshold fan-outs, and the threshold re-sweep
    /// of a delta apply under ECBS / JS weights).
    Build,
    /// Pair generation: the node scan, with Edge Pruning's WNP keep
    /// rule or (EP off) every co-occurring pair.
    EdgePruning,
    /// Comparison-Execution: the chunked kernel executor.
    ComparisonExecution,
}

impl ResolveStage {
    /// Stable lowercase label (used in `Display` impls and bench JSON).
    pub fn label(self) -> &'static str {
        match self {
            ResolveStage::Build => "build",
            ResolveStage::EdgePruning => "edge_pruning",
            ResolveStage::ComparisonExecution => "comparison_execution",
        }
    }
}

impl fmt::Display for ResolveStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How a governed resolve finished — carried on every
/// [`ResolveOutcome`](crate::ResolveOutcome).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// The resolve ran to the end: every candidate pair was decided and
    /// the outcome is identical to an ungoverned run.
    Complete,
    /// The budget (deadline or comparison cap) ran out. Work stopped at
    /// a chunk boundary in `stage`; the outcome holds every link decided
    /// by the first `comparisons_done` comparisons and is a subset of
    /// the full run.
    Budget {
        /// Stage at which the budget check tripped.
        stage: ResolveStage,
        /// Comparisons executed (cache hits included) before stopping.
        comparisons_done: u64,
    },
    /// The [`CancelToken`] was cancelled. Same partial-but-valid
    /// guarantees as [`Completion::Budget`].
    Cancelled {
        /// Stage at which the cancel was observed.
        stage: ResolveStage,
        /// Comparisons executed (cache hits included) before stopping.
        comparisons_done: u64,
    },
}

impl Completion {
    /// `true` iff the resolve ran to the end (no truncation).
    pub fn is_complete(&self) -> bool {
        matches!(self, Completion::Complete)
    }
}

/// Why a governed loop stopped early. Internal: the public view is the
/// [`Completion`] it maps to via [`Stop::completion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    /// The [`CancelToken`] was observed cancelled.
    Cancelled,
    /// The wall-clock deadline passed.
    Deadline,
    /// The comparison cap was reached.
    Comparisons,
}

impl Stop {
    /// Maps the stop reason to the user-facing [`Completion`].
    pub(crate) fn completion(self, stage: ResolveStage, comparisons_done: u64) -> Completion {
        match self {
            Stop::Cancelled => Completion::Cancelled {
                stage,
                comparisons_done,
            },
            Stop::Deadline | Stop::Comparisons => Completion::Budget {
                stage,
                comparisons_done,
            },
        }
    }
}

/// Work limits for one resolve call. The default ([`unlimited`]) never
/// interrupts and adds no overhead: each round's comparisons run as one
/// batch, with one budget poll before it.
///
/// Budgets compose: chain the builders to combine a deadline, a
/// comparison cap, and a cancel token. The first limit to trip wins.
///
/// ```
/// use queryer_er::{CancelToken, ResolveBudget};
/// use std::time::Duration;
///
/// let token = CancelToken::new();
/// let budget = ResolveBudget::unlimited()
///     .with_deadline(Duration::from_millis(50))
///     .with_max_comparisons(10_000)
///     .with_cancel(token.clone());
/// assert!(!budget.is_unlimited());
/// ```
///
/// [`unlimited`]: ResolveBudget::unlimited
#[derive(Debug, Clone, Default)]
pub struct ResolveBudget {
    deadline: Option<Instant>,
    max_comparisons: Option<u64>,
    cancel: Option<CancelToken>,
}

impl ResolveBudget {
    /// A budget that never interrupts. `resolve` under this budget is
    /// bit-identical to the ungoverned API.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Stop (with [`Completion::Budget`]) once `after` wall-clock time
    /// has elapsed from *now*.
    pub fn with_deadline(mut self, after: Duration) -> Self {
        self.deadline = Some(Instant::now() + after);
        self
    }

    /// Stop (with [`Completion::Budget`]) once the absolute instant
    /// `at` has passed.
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Stop (with [`Completion::Budget`]) after at most `n` comparisons.
    /// Cache-served decisions count too, so the cap is deterministic
    /// whatever the decision memo holds.
    pub fn with_max_comparisons(mut self, n: u64) -> Self {
        self.max_comparisons = Some(n);
        self
    }

    /// Stop (with [`Completion::Cancelled`]) at the next boundary after
    /// `token` is cancelled from any thread.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// `true` iff no limit is set: the resolver then runs each round's
    /// comparisons as one batch.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_comparisons.is_none() && self.cancel.is_none()
    }

    /// Comparisons still allowed after `done` have run (`u64::MAX` when
    /// uncapped).
    pub(crate) fn remaining_comparisons(&self, done: u64) -> u64 {
        match self.max_comparisons {
            None => u64::MAX,
            Some(cap) => cap.saturating_sub(done),
        }
    }

    /// Polls the cancel token and deadline (cancel wins ties). Cheap:
    /// one relaxed load, plus one clock read only when a deadline is
    /// set. The comparison cap is enforced separately by the executor
    /// via [`remaining_comparisons`](Self::remaining_comparisons).
    pub(crate) fn interrupted(&self) -> Option<Stop> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(Stop::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(Stop::Deadline);
            }
        }
        None
    }
}

/// Typed failures of the resolve API (and of `try_build`).
///
/// None of these leave the index unusable except [`Poisoned`], which is
/// precisely the case where continuing *would* be unsound: a panic
/// unwound through a delta apply
/// ([`TableErIndex::apply_delta`](crate::TableErIndex::apply_delta)),
/// so the half-patched index can no longer be vouched for. Worker
/// panics during resolve ([`WorkerPanicked`]) do *not* poison: workers
/// write no shared state — the decision memo takes a batch's decisions
/// only after every worker of it has joined — so the index keeps
/// serving byte-identical decisions (pinned by
/// `crates/er/tests/fault_injection.rs`).
///
/// [`Poisoned`]: ResolveError::Poisoned
/// [`WorkerPanicked`]: ResolveError::WorkerPanicked
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolveError {
    /// `resolve` was called with a table whose length differs from the
    /// indexed table — the caller is resolving against the wrong data.
    TableMismatch {
        /// Record count of the table the index was built over.
        expected: usize,
        /// Record count of the table actually passed in.
        got: usize,
    },
    /// A worker thread panicked inside a parallel fan-out; the panic
    /// was caught at its join, and the worker had written no shared
    /// state.
    WorkerPanicked {
        /// Stage whose fan-out lost a worker.
        stage: ResolveStage,
    },
    /// A previous panic unwound through a delta apply; the index
    /// refuses further resolves. Rebuild it.
    Poisoned,
    /// A delta batch handed to
    /// [`TableErIndex::apply_delta`](crate::TableErIndex::apply_delta)
    /// does not line up with the table it claims to describe — e.g. an
    /// insert whose id is not the next dense id, an update of an
    /// out-of-range record, or a final record count that differs from
    /// the mutated table's. The index is left untouched.
    InvalidDelta {
        /// What was wrong with the batch.
        reason: &'static str,
    },
    /// The table needs more entries in one of the index's flat buffers
    /// than their `u32` offsets address; the build stopped before any
    /// offset wrapped.
    IndexOverflow {
        /// The entry count the buffer would have reached.
        elements: usize,
    },
}

impl From<CsrOverflow> for ResolveError {
    fn from(e: CsrOverflow) -> Self {
        ResolveError::IndexOverflow {
            elements: e.elements,
        }
    }
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::TableMismatch { expected, got } => write!(
                f,
                "resolve called with a table of {got} records, but the index \
                 was built over {expected}"
            ),
            ResolveError::WorkerPanicked { stage } => {
                write!(f, "a {stage} worker thread panicked")
            }
            ResolveError::Poisoned => {
                f.write_str("index poisoned by a panic during a delta apply; rebuild it")
            }
            ResolveError::InvalidDelta { reason } => {
                write!(f, "invalid delta batch: {reason}")
            }
            ResolveError::IndexOverflow { elements } => write!(
                f,
                "index build needs {elements} entries in one buffer, past its u32 offset range"
            ),
        }
    }
}

impl std::error::Error for ResolveError {}

/// The one chunked fan-out every parallel resolve stage runs on: splits
/// `0..n` into `workers` contiguous ranges, runs `work` on a scoped
/// thread per range (firing the `site` failpoint first), and returns
/// the per-range results in range order — so concatenating them
/// reproduces what one sequential pass over `0..n` computes, whatever
/// the worker count. One worker runs `work(0..n)` on the caller's
/// thread: no spawn, no failpoint.
///
/// Every handle is joined before anything is reported — a
/// short-circuiting collect would leave panicked workers unjoined and
/// the scope would re-raise their panic at exit — so a lost worker
/// surfaces as [`ResolveError::WorkerPanicked`] at `stage` and the
/// surviving workers' results are dropped with the error.
pub(crate) fn fan_out<R: Send>(
    n: usize,
    workers: usize,
    site: &str,
    stage: ResolveStage,
    work: impl Fn(Range<usize>) -> R + Sync,
) -> Result<Vec<R>, ResolveError> {
    if workers <= 1 || n == 0 {
        return Ok(vec![work(0..n)]);
    }
    let chunk = n.div_ceil(workers);
    let work = &work;
    let joined: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|base| {
                scope.spawn(move || {
                    failpoints::fire(site);
                    work(base..(base + chunk).min(n))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    joined
        .into_iter()
        .map(|r| r.map_err(|_| ResolveError::WorkerPanicked { stage }))
        .collect()
}

/// RAII poison latch: arm it before a compound mutation, [`disarm`]
/// after the last step. If a panic unwinds in between, `Drop` sets the
/// flag and every later resolve returns [`ResolveError::Poisoned`].
///
/// [`disarm`]: PoisonGuard::disarm
pub(crate) struct PoisonGuard<'a> {
    flag: &'a AtomicBool,
    armed: bool,
}

impl<'a> PoisonGuard<'a> {
    pub(crate) fn new(flag: &'a AtomicBool) -> Self {
        Self { flag, armed: true }
    }

    /// The mutation completed; dropping the guard is now a no-op.
    pub(crate) fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.flag.store(true, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_overflow_is_a_typed_build_error() {
        let e = ResolveError::from(CsrOverflow { elements: 1 << 33 });
        assert_eq!(e, ResolveError::IndexOverflow { elements: 1 << 33 });
        assert!(e.to_string().contains("8589934592 entries"));
    }

    #[test]
    fn unlimited_budget_never_interrupts() {
        let b = ResolveBudget::unlimited();
        assert!(b.is_unlimited());
        assert_eq!(b.interrupted(), None);
        assert_eq!(b.remaining_comparisons(u64::MAX), u64::MAX);
    }

    #[test]
    fn cancel_wins_over_deadline() {
        let token = CancelToken::new();
        let b = ResolveBudget::unlimited()
            .with_deadline_at(Instant::now() - Duration::from_secs(1))
            .with_cancel(token.clone());
        assert_eq!(b.interrupted(), Some(Stop::Deadline));
        token.cancel();
        assert_eq!(b.interrupted(), Some(Stop::Cancelled));
    }

    #[test]
    fn comparison_cap_is_saturating() {
        let b = ResolveBudget::unlimited().with_max_comparisons(10);
        assert!(!b.is_unlimited());
        assert_eq!(b.remaining_comparisons(0), 10);
        assert_eq!(b.remaining_comparisons(7), 3);
        assert_eq!(b.remaining_comparisons(10), 0);
        assert_eq!(b.remaining_comparisons(u64::MAX), 0);
        // The cap alone never trips the boundary poll; the executor
        // enforces it via remaining_comparisons.
        assert_eq!(b.interrupted(), None);
    }

    #[test]
    fn stop_maps_to_completion() {
        assert_eq!(
            Stop::Cancelled.completion(ResolveStage::EdgePruning, 5),
            Completion::Cancelled {
                stage: ResolveStage::EdgePruning,
                comparisons_done: 5
            }
        );
        for stop in [Stop::Deadline, Stop::Comparisons] {
            assert_eq!(
                stop.completion(ResolveStage::ComparisonExecution, 9),
                Completion::Budget {
                    stage: ResolveStage::ComparisonExecution,
                    comparisons_done: 9
                }
            );
        }
        assert!(Completion::Complete.is_complete());
        assert!(!Completion::Cancelled {
            stage: ResolveStage::Build,
            comparisons_done: 0
        }
        .is_complete());
    }

    #[test]
    fn poison_guard_sets_flag_only_when_not_disarmed() {
        let flag = AtomicBool::new(false);
        PoisonGuard::new(&flag).disarm();
        assert!(!flag.load(Ordering::Acquire));

        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = PoisonGuard::new(&flag);
            panic!("boom");
        }));
        assert!(caught.is_err());
        assert!(flag.load(Ordering::Acquire));
    }

    #[test]
    fn errors_display_usefully() {
        let e = ResolveError::TableMismatch {
            expected: 10,
            got: 3,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("3"));
        let e = ResolveError::WorkerPanicked {
            stage: ResolveStage::ComparisonExecution,
        };
        assert!(e.to_string().contains("comparison_execution"));
        assert!(ResolveError::Poisoned.to_string().contains("rebuild"));
    }
}
