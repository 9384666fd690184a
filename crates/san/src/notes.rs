//! Out-of-band annotations from the runtime.
//!
//! Some invariants (stack frame lifetimes, environment freezing) are
//! invisible at the memory-operation level; the runtime narrates them
//! through a shared note queue that the sanitizer drains — in event
//! order, since the engine serializes core execution — at its next
//! hook. Notes are host-side metadata and charge no simulated cycles.

use std::cell::RefCell;
use std::rc::Rc;

/// One annotation from the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Note {
    /// A stack frame (or in-frame allocation) of `words` words was
    /// pushed at `base` on `core`'s stack.
    StackPush {
        /// The pushing core.
        core: usize,
        /// Lowest word address of the frame.
        base: u64,
        /// Frame size in words.
        words: u32,
        /// `true` when the frame went to the DRAM overflow buffer.
        in_dram: bool,
    },
    /// The most recent frame (at `base`, `words` words) was popped.
    StackPop {
        /// The popping core.
        core: usize,
        /// Lowest word address of the freed frame.
        base: u64,
        /// Frame size in words.
        words: u32,
        /// `true` when the frame lived in the DRAM overflow buffer.
        in_dram: bool,
    },
    /// The `words`-word captured environment at `base` is complete and
    /// read-only from now until its frame pops.
    FreezeEnv {
        /// The creating core.
        core: usize,
        /// Base word address of the environment block.
        base: u64,
        /// Environment size in words.
        words: u32,
    },
}

/// The shared note queue between runtime and sanitizer.
pub type NoteSink = Rc<RefCell<Vec<Note>>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_preserves_order() {
        let sink: NoteSink = Rc::new(RefCell::new(Vec::new()));
        sink.borrow_mut().push(Note::FreezeEnv {
            core: 0,
            base: 16,
            words: 2,
        });
        sink.borrow_mut().push(Note::StackPop {
            core: 0,
            base: 16,
            words: 2,
            in_dram: false,
        });
        let drained = std::mem::take(&mut *sink.borrow_mut());
        assert_eq!(drained.len(), 2);
        assert!(matches!(drained[0], Note::FreezeEnv { .. }));
    }
}
