//! Environment knobs shared by the heavy test suites and the ER hot
//! path: each knob is a plain env-var read with a hard-coded default, so
//! CI, benches, and local runs can retune without recompiling.
//!
//! Every knob is catalogued — with defaults, semantics, and guidance on
//! when to turn it — in `docs/TUNING.md` at the repository root. The
//! two are held in sync by `tests/knob_docs.rs`: a `QUERYER_*` name
//! read anywhere under `crates/*/src` without a TUNING.md table row (or
//! a row without a reader) fails that test.

/// Number of property-test cases for the expensive suites, read from
/// `QUERYER_PROPTEST_CASES` (falling back to `default` when unset or
/// unparsable). Lets CI run the full counts while local `cargo test`
/// iterations dial them down, e.g. `QUERYER_PROPTEST_CASES=2`.
pub fn proptest_cases(default: u32) -> u32 {
    std::env::var("QUERYER_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a `usize` knob, falling back to `default` when unset or
/// unparsable.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Worker-thread count for every parallel stage — the index-build
/// sweeps, the Edge Pruning fan-outs and Comparison-Execution — read
/// from `QUERYER_THREADS`. `0` (the default) means "auto": use the
/// machine's available parallelism. Thread count never affects a built
/// index or a decision: every stage merges its chunks in input order
/// (property-pinned by `crates/er/tests/build_equivalence.rs`,
/// `ep_equivalence.rs` and `kernel_equivalence.rs`).
pub fn threads() -> usize {
    env_usize("QUERYER_THREADS", 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn falls_back_to_default() {
        // The suite never sets the variable for this test's process-wide
        // default path check; a set-and-restore dance would race other
        // tests, so only the unset path is asserted here.
        if std::env::var("QUERYER_PROPTEST_CASES").is_err() {
            assert_eq!(proptest_cases(17), 17);
        }
    }

    #[test]
    fn env_helpers_fall_back_when_unset() {
        // Only the unset path is asserted (see above on set/restore races).
        if std::env::var("QUERYER_NO_SUCH_KNOB").is_err() {
            assert_eq!(env_usize("QUERYER_NO_SUCH_KNOB", 5), 5);
        }
    }

    #[test]
    fn threads_knob_falls_back_when_unset() {
        // Only the unset path is asserted (see above on set/restore races).
        if std::env::var("QUERYER_THREADS").is_err() {
            assert_eq!(threads(), 0);
        }
    }
}
