//! Fault-injection sites for the robustness test suites.
//!
//! A *failpoint* is a named no-op planted at a stage boundary or inside
//! a worker chunk (e.g. `"cmp.worker"`, `"ep.survivors.worker"`). In normal
//! builds [`fire`] compiles to nothing. With the `failpoints` cargo
//! feature enabled, a site can be *armed* with a [`FailAction`] — panic
//! at the site, or delay to widen race/cancellation windows — either
//! programmatically ([`arm`]) or from the environment:
//!
//! ```text
//! QUERYER_FAILPOINT=<site>:<panic|delay-ms>[,<site>:<action>...]
//! # e.g. QUERYER_FAILPOINT=cmp.worker:delay-2,ep.survivors.worker:panic
//! ```
//!
//! The environment is read once, on the first [`fire`] call. The
//! `crates/er/tests/fault_injection.rs` suite arms panic actions
//! programmatically and asserts that a panicking worker surfaces as a
//! typed error while leaving the index serving byte-identical
//! decisions; CI's `fault-matrix` job arms delay actions via the env
//! knob and re-runs the full suite under them. The knob is catalogued
//! in `docs/TUNING.md`.

/// What an armed failpoint does when its site fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Panic at the site (exercises the per-join panic isolation).
    Panic,
    /// Sleep this many milliseconds (widens cancellation/race windows).
    Delay(u64),
}

impl FailAction {
    /// Parses the `<panic|delay-ms>` action syntax of
    /// `QUERYER_FAILPOINT`; `None` on anything else.
    pub fn parse(s: &str) -> Option<FailAction> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("panic") {
            return Some(FailAction::Panic);
        }
        let ms = s.strip_prefix("delay-")?;
        ms.parse().ok().map(FailAction::Delay)
    }
}

/// Fires the named site: a no-op unless the `failpoints` feature is
/// compiled in *and* the site is armed. The disarmed fast path is one
/// relaxed atomic load.
#[inline]
pub fn fire(site: &str) {
    #[cfg(feature = "failpoints")]
    imp::fire(site);
    #[cfg(not(feature = "failpoints"))]
    let _ = site;
}

/// Returns whether `site` is currently armed. Always `false` without
/// the `failpoints` feature. Lets code *branch* on an armed fault
/// (e.g. the snapshot writer deliberately truncating its payload for
/// the torn-write test) instead of only panicking/sleeping at it.
pub fn is_armed(site: &str) -> bool {
    #[cfg(feature = "failpoints")]
    {
        imp::is_armed(site)
    }
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = site;
        false
    }
}

/// Arms `site` with `action`. No-op without the `failpoints` feature.
pub fn arm(site: &str, action: FailAction) {
    #[cfg(feature = "failpoints")]
    imp::arm(site, action);
    #[cfg(not(feature = "failpoints"))]
    let _ = (site, action);
}

/// Disarms `site`. No-op without the `failpoints` feature.
pub fn disarm(site: &str) {
    #[cfg(feature = "failpoints")]
    imp::disarm(site);
    #[cfg(not(feature = "failpoints"))]
    let _ = site;
}

/// Disarms every site (tests call this between cases). No-op without
/// the `failpoints` feature.
pub fn disarm_all() {
    #[cfg(feature = "failpoints")]
    imp::disarm_all();
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::FailAction;
    use crate::fxhash::FxHashMap;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Once;

    /// Number of currently armed sites — the disarmed fast path reads
    /// this instead of locking the registry.
    static ARMED: AtomicUsize = AtomicUsize::new(0);
    static REGISTRY: Mutex<Option<FxHashMap<String, FailAction>>> = Mutex::new(None);
    static ENV_INIT: Once = Once::new();

    fn with_registry<R>(f: impl FnOnce(&mut FxHashMap<String, FailAction>) -> R) -> R {
        let mut guard = REGISTRY.lock();
        let map = guard.get_or_insert_with(FxHashMap::default);
        let out = f(map);
        ARMED.store(map.len(), Ordering::Relaxed);
        out
    }

    fn init_from_env() {
        ENV_INIT.call_once(|| {
            let Ok(spec) = std::env::var("QUERYER_FAILPOINT") else {
                return;
            };
            for entry in spec.split(',') {
                let entry = entry.trim();
                if entry.is_empty() {
                    continue;
                }
                // A malformed entry is ignored rather than panicking:
                // the knob exists to inject faults, not to be one.
                if let Some((site, action)) = entry.split_once(':') {
                    if let Some(action) = FailAction::parse(action) {
                        with_registry(|m| m.insert(site.trim().to_string(), action));
                    }
                }
            }
        });
    }

    pub(super) fn fire(site: &str) {
        init_from_env();
        if ARMED.load(Ordering::Relaxed) == 0 {
            return;
        }
        let action = with_registry(|m| m.get(site).copied());
        match action {
            None => {}
            Some(FailAction::Panic) => panic!("failpoint '{site}' fired"),
            Some(FailAction::Delay(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        }
    }

    pub(super) fn is_armed(site: &str) -> bool {
        init_from_env();
        if ARMED.load(Ordering::Relaxed) == 0 {
            return false;
        }
        with_registry(|m| m.contains_key(site))
    }

    pub(super) fn arm(site: &str, action: FailAction) {
        // Drain the env spec first so a later `fire` can't resurrect
        // sites a test already disarmed.
        init_from_env();
        with_registry(|m| m.insert(site.to_string(), action));
    }

    pub(super) fn disarm(site: &str) {
        init_from_env();
        with_registry(|m| m.remove(site));
    }

    pub(super) fn disarm_all() {
        init_from_env();
        with_registry(|m| m.clear());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_parsing() {
        assert_eq!(FailAction::parse("panic"), Some(FailAction::Panic));
        assert_eq!(FailAction::parse(" PANIC "), Some(FailAction::Panic));
        assert_eq!(FailAction::parse("delay-25"), Some(FailAction::Delay(25)));
        assert_eq!(FailAction::parse("delay-"), None);
        assert_eq!(FailAction::parse("boom"), None);
    }

    #[test]
    fn unarmed_fire_is_a_noop() {
        // Holds in both builds: without the feature `fire` is empty, and
        // with it nothing in this process armed the site.
        fire("tests.never-armed");
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn delay_arms_and_disarms() {
        // Only delay actions here: panic actions are exercised by the
        // er fault-injection suite where the panic is caught per-join.
        arm("tests.delay", FailAction::Delay(1));
        let t0 = std::time::Instant::now();
        fire("tests.delay");
        assert!(t0.elapsed() >= std::time::Duration::from_millis(1));
        disarm("tests.delay");
        disarm_all();
        fire("tests.delay");
    }
}
