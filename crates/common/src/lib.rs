//! Shared primitives used across the QueryER workspace.
//!
//! This crate's only dependency is the (vendored) `parking_lot` lock
//! shim: it provides the small, hot-path utilities every other crate
//! needs — a fast non-cryptographic hasher (the offline crate set has no
//! `rustc-hash`, and the algorithm is tiny), canonical packing of
//! unordered record-id pairs into `u64` keys, a generic CSR (offsets +
//! data) packing for ragged row collections, build-once token interning,
//! and a stopwatch for per-stage operator
//! timing.

pub mod cancel;
pub mod checksum;
pub mod csr;
pub mod failpoints;
pub mod fxhash;
pub mod intern;
pub mod knobs;
pub mod pairkey;
pub mod timing;

pub use cancel::CancelToken;
pub use checksum::{crc32c, Fnv64};
pub use csr::{Csr, CsrOverflow};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use intern::{Symbol, TokenInterner};
pub use pairkey::{pack_pair, unpack_pair, PairSet};
pub use timing::Stopwatch;
