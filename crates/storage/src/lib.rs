//! Storage substrate for QueryER.
//!
//! The paper treats an *entity collection* as "a raw data file (e.g. a csv,
//! parquet) or a relational table, although no PKs and FKs are considered"
//! (Sec. 4). This crate provides exactly that model: dynamically-typed
//! [`Value`]s, [`Schema`]s, row-oriented [`Table`]s whose records are
//! addressed by dense [`RecordId`]s, a from-scratch CSV reader/writer,
//! and the crash-safe [`snapshot`] framing the persisted Link Index is
//! written in. Naming tables is the engine's business: it keeps its own
//! name → table map.

pub mod csv;
pub mod error;
pub mod record;
pub mod schema;
pub mod snapshot;
pub mod table;
pub mod value;

pub use error::{Result, StorageError};
pub use record::{Record, RecordId};
pub use schema::{DataType, Field, Schema};
pub use snapshot::SnapshotError;
pub use table::Table;
pub use value::Value;
