//! Vector clocks for happens-before tracking: one per core, plus an
//! arena of the clocks published on synchronization and SPM words.

/// A vector clock over the machine's cores: `clock[c]` is the highest
/// epoch of core `c` whose effects are known to have happened before
/// the point this clock describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VectorClock(Vec<u32>);

impl AsRef<[u32]> for VectorClock {
    fn as_ref(&self) -> &[u32] {
        &self.0
    }
}

impl VectorClock {
    /// The all-zero clock for a `cores`-core machine.
    pub(crate) fn new(cores: usize) -> Self {
        VectorClock(vec![0; cores])
    }

    /// Component for `core`.
    pub(crate) fn get(&self, core: usize) -> u32 {
        self.0[core]
    }

    /// Set `core`'s component.
    pub(crate) fn set(&mut self, core: usize, epoch: u32) {
        self.0[core] = epoch;
    }

    /// Advance `core`'s component by one (a release point).
    ///
    /// # Panics
    ///
    /// Panics when the epoch would pass `u32::MAX`: wrapping would
    /// order every later access before the earlier ones.
    pub(crate) fn tick(&mut self, core: usize) {
        self.0[core] = self.0[core]
            .checked_add(1)
            .unwrap_or_else(|| panic!("core {core}'s epoch overflowed u32 (one per fence)"));
    }

    /// Overwrite `self` with `other` without reallocating.
    pub(crate) fn copy_from(&mut self, other: &VectorClock) {
        self.0.copy_from_slice(&other.0);
    }

    /// Pointwise maximum: afterwards `self` dominates both inputs
    /// (another vector clock or a published clock's epochs).
    pub(crate) fn join(&mut self, other: &(impl AsRef<[u32]> + ?Sized)) {
        join_into(&mut self.0, other.as_ref());
    }

    /// `true` when an access by `core` at `epoch` happened before the
    /// point this clock describes (i.e. `epoch <= self[core]`).
    pub(crate) fn covers(&self, core: usize, epoch: u32) -> bool {
        epoch <= self.0[core]
    }
}

/// Pointwise maximum of `dst` and `src`, into `dst`.
fn join_into(dst: &mut [u32], src: &[u32]) {
    debug_assert_eq!(dst.len(), src.len());
    for (a, &b) in dst.iter_mut().zip(src) {
        *a = (*a).max(b);
    }
}

/// Published clocks, stored back to back and recycled through a free
/// list. A clock is named by a nonzero id, so a shadow slot can use 0
/// for "nothing published".
#[derive(Debug)]
pub(crate) struct ClockArena {
    width: usize,
    epochs: Vec<u32>,
    free: Vec<u32>,
}

impl ClockArena {
    /// An empty arena of `width`-component clocks.
    pub(crate) fn new(width: usize) -> Self {
        ClockArena {
            width,
            epochs: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Join `release` into clock `id`, or into a new clock when `id` is
    /// 0; returns the clock's id.
    pub(crate) fn publish(&mut self, id: u32, release: &VectorClock) -> u32 {
        if id != 0 {
            join_into(self.clock_mut(id), &release.0);
            return id;
        }
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.epochs.resize(self.epochs.len() + self.width, 0);
                u32::try_from(self.epochs.len() / self.width).expect("fewer than 2^32 live clocks")
            }
        };
        self.clock_mut(id).copy_from_slice(&release.0);
        id
    }

    /// The clock named `id`.
    pub(crate) fn get(&self, id: u32) -> &[u32] {
        let at = (id as usize - 1) * self.width;
        &self.epochs[at..at + self.width]
    }

    /// Return clock `id` to the free list.
    pub(crate) fn free(&mut self, id: u32) {
        self.free.push(id);
    }

    fn clock_mut(&mut self, id: u32) -> &mut [u32] {
        let at = (id as usize - 1) * self.width;
        &mut self.epochs[at..at + self.width]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_pointwise_max() {
        let mut a = VectorClock::new(3);
        a.set(0, 5);
        a.set(2, 1);
        let mut b = VectorClock::new(3);
        b.set(0, 2);
        b.set(1, 7);
        a.join(&b);
        assert_eq!((a.get(0), a.get(1), a.get(2)), (5, 7, 1));
    }

    #[test]
    fn join_is_idempotent_and_monotone() {
        let mut a = VectorClock::new(2);
        a.set(0, 3);
        let snapshot = a.clone();
        a.join(&snapshot);
        assert_eq!(a, snapshot, "self-join must not change the clock");
        let mut b = VectorClock::new(2);
        b.set(1, 9);
        a.join(&b);
        assert!(a.get(0) >= snapshot.get(0) && a.get(1) >= b.get(1));
    }

    #[test]
    fn covers_tracks_epoch_order() {
        let mut c = VectorClock::new(2);
        c.set(1, 4);
        assert!(c.covers(1, 4));
        assert!(c.covers(1, 3));
        assert!(!c.covers(1, 5));
        assert!(c.covers(0, 0));
        assert!(!c.covers(0, 1));
    }

    #[test]
    fn tick_advances_only_one_component() {
        let mut c = VectorClock::new(3);
        c.tick(1);
        c.tick(1);
        assert_eq!((c.get(0), c.get(1), c.get(2)), (0, 2, 0));
    }

    #[test]
    #[should_panic(expected = "core 1's epoch overflowed u32")]
    fn tick_panics_instead_of_wrapping() {
        let mut c = VectorClock::new(2);
        c.set(1, u32::MAX - 1);
        c.tick(1);
        assert_eq!(c.get(1), u32::MAX);
        c.tick(1);
    }

    #[test]
    fn publish_then_acquire_transfers_order() {
        // Model of the release/acquire protocol: core 0 fences
        // (snapshot + tick), publishes the snapshot on a sync word,
        // core 1 acquire-joins it; core 1's clock must now cover every
        // pre-fence epoch of core 0 but not the post-fence one.
        let mut c0 = VectorClock::new(2);
        c0.set(0, 1); // initial epoch
        let released = c0.clone();
        c0.tick(0); // post-fence accesses get epoch 2
        let mut c1 = VectorClock::new(2);
        c1.set(1, 1);
        c1.join(&released);
        assert!(c1.covers(0, 1), "pre-fence access must be ordered");
        assert!(!c1.covers(0, 2), "post-fence access must not be");
    }

    #[test]
    fn arena_publish_is_a_join_of_release_clocks() {
        let mut arena = ClockArena::new(3);
        let mut r0 = VectorClock::new(3);
        r0.set(0, 4);
        let id = arena.publish(0, &r0);
        assert_ne!(id, 0, "0 is reserved for no clock");
        assert_eq!(arena.get(id), [4, 0, 0]);
        let mut r1 = VectorClock::new(3);
        r1.set(1, 7);
        r1.set(0, 2);
        assert_eq!(arena.publish(id, &r1), id);
        assert_eq!(arena.get(id), [4, 7, 0]);
    }

    #[test]
    fn arena_recycles_freed_clocks() {
        let mut arena = ClockArena::new(2);
        let mut a = VectorClock::new(2);
        a.set(0, 4);
        let mut b = VectorClock::new(2);
        b.set(1, 9);
        let x = arena.publish(0, &a);
        let y = arena.publish(0, &b);
        arena.publish(x, &b);
        assert_eq!(arena.get(x), [4, 9]);
        arena.free(x);
        // A recycled clock starts from its first publish, not from the
        // contents it had when freed.
        assert_eq!(arena.publish(0, &b), x);
        assert_eq!(arena.get(x), [0, 9]);
        assert_eq!(arena.get(y), [0, 9]);
    }
}
