//! Task records and the body registry.
//!
//! A *task record* is the simulated-memory footprint of a task object
//! (the paper's `Task` base class, Fig. 3b): it lives on the spawning
//! core's stack and holds the fields other cores touch remotely —
//! the reference counter (`ready_count`) that children decrement with
//! release-semantics AMOs, the parent's counter address, and a result
//! slot.
//!
//! The task's *behaviour* (the `execute()` override) is a Rust closure
//! kept host-side in a [`Registry`] keyed by the record address; it is
//! moved to whichever core dequeues or steals the record.

use crate::ctx::TaskCtx;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Words in a task record: `[ready_count, parent_rc_addr, result]`.
pub const REC_WORDS: u32 = 3;

/// Word offsets inside a task record.
pub mod rec {
    /// The `ready_count` reference counter (AMO target).
    pub const RC: u64 = 0;
    /// Address of the parent record's `ready_count` (0 = no parent).
    pub const PARENT_RC: u64 = 1;
    /// Result slot written by the child on completion.
    pub const RESULT: u64 = 2;
}

/// A task body: runs on whichever core executes the task.
pub type TaskBody = Box<dyn FnOnce(&mut TaskCtx<'_>)>;

/// Host-side map from task-record address to body closure.
///
/// Keyed by address with only point lookups today, but stored in a
/// `BTreeMap` so that any future iteration (debug dumps, leak checks)
/// is deterministic by construction.
#[derive(Default)]
pub struct Registry {
    inner: RefCell<BTreeMap<u64, TaskBody>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register `body` under record address `rec`.
    ///
    /// # Panics
    ///
    /// Panics if a body is already registered at `rec` (would indicate
    /// a record being spawned twice before execution).
    pub fn insert(&self, rec: u64, body: TaskBody) {
        let prev = self.inner.borrow_mut().insert(rec, body);
        assert!(prev.is_none(), "duplicate task body at record {rec:#x}");
    }

    /// Remove and return the body for `rec`.
    pub fn take(&self, rec: u64) -> Option<TaskBody> {
        self.inner.borrow_mut().remove(&rec)
    }

    /// Number of registered (spawned but not yet executed) bodies.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// `true` when no bodies are pending.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("pending", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_roundtrip() {
        let r = Registry::new();
        r.insert(0x100, Box::new(|_| {}));
        assert_eq!(r.len(), 1);
        assert!(r.take(0x100).is_some());
        assert!(r.take(0x100).is_none());
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate task body")]
    fn duplicate_record_panics() {
        let r = Registry::new();
        r.insert(0x100, Box::new(|_| {}));
        r.insert(0x100, Box::new(|_| {}));
    }
}
