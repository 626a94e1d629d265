//! Error type for the core engine.

use std::fmt;

/// Errors surfaced by query planning and execution.
#[derive(Debug)]
pub enum CoreError {
    /// Storage-layer failure.
    Storage(queryer_storage::StorageError),
    /// SQL parse/bind/plan failure.
    Sql(queryer_sql::SqlError),
    /// Engine-level planning or execution failure.
    Plan(String),
    /// An ER-layer resolve or ingest operation failed (poisoned index,
    /// invalid delta batch, table mismatch, worker panic).
    Resolve(queryer_er::ResolveError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
            CoreError::Sql(e) => write!(f, "sql error: {e}"),
            CoreError::Plan(m) => write!(f, "plan error: {m}"),
            CoreError::Resolve(e) => write!(f, "resolve error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Storage(e) => Some(e),
            CoreError::Sql(e) => Some(e),
            CoreError::Plan(_) => None,
            CoreError::Resolve(e) => Some(e),
        }
    }
}

impl From<queryer_storage::StorageError> for CoreError {
    fn from(e: queryer_storage::StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<queryer_sql::SqlError> for CoreError {
    fn from(e: queryer_sql::SqlError) -> Self {
        CoreError::Sql(e)
    }
}

impl From<queryer_er::ResolveError> for CoreError {
    fn from(e: queryer_er::ResolveError) -> Self {
        CoreError::Resolve(e)
    }
}

/// Result alias for core operations.
pub type Result<T> = std::result::Result<T, CoreError>;
