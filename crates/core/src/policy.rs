//! Where the two dynamic schedulers differ. The shared protocol —
//! [`TaskCtx::spawn`], [`TaskCtx::wait`] and the scheduling loop in
//! [`crate::worker`] — asks this module two questions:
//!
//! - `publish`: where does a freshly spawned task go?
//! - `on_empty`: what does a core whose own queue is empty
//!   do?
//!
//! **Work-stealing** (the paper) publishes on the own queue and, when
//! empty, steals: pick a victim ([`VictimPolicy`]), peek its queue
//! unlocked, take one task or half the queue ([`StealAmount`]), and
//! back off on failure.
//!
//! **Work-dealing** (related work: Zakkak & Pratikakis's JVM for
//! non-coherent manycores, paper §7) inverts who pays:
//!
//! - An idle core raises a *hunger* flag on a shared DRAM board and then
//!   spins only on its **own** queue — no remote queue traffic from the
//!   receiving side.
//! - A core whose queue has piled past [`DEAL_THRESHOLD`] probes a few
//!   hunger-board entries at spawn time; on finding a hungry core it
//!   claims the flag with an AMO and pushes the new task onto the
//!   hungry core's queue directly (remote lock + enqueue).
//!
//! Dealing puts the distribution cost on the busy core's critical path
//! and relies on the donor's guess about future imbalance, which is
//! exactly why the paper's work-stealing choice wins on irregular
//! workloads.

use crate::config::{Placement, SchedulerKind, StealAmount, VictimPolicy};
use crate::ctx::TaskCtx;
use crate::{lock, queue};
use mosaic_mem::{Addr, AmoOp};
use mosaic_sim::Phase;
use rand::Rng;

/// Own-queue depth at which a spawning core starts dealing.
pub const DEAL_THRESHOLD: u32 = 2;

/// Hunger-board probes per dealing attempt.
pub const DEAL_PROBES: u32 = 4;

impl TaskCtx<'_> {
    /// Put a freshly spawned, registered record where the policy wants
    /// it. Returns `false` when it fits nowhere (the caller runs it
    /// inline).
    pub(crate) fn publish(&mut self, rec_addr: Addr) -> bool {
        let dealing = match self.sh.config.scheduler {
            SchedulerKind::WorkDealing => true,
            SchedulerKind::WorkStealing | SchedulerKind::Static => false,
        };
        if dealing && self.deal(rec_addr) {
            return true;
        }
        let costs = self.sh.costs;
        let q = self.own_queue();
        let lk = queue::lock_addr(q);
        self.st.stats.lock_retries += lock::acquire(self.api, lk, &costs);
        let ok = queue::enqueue(self.api, q, rec_addr.raw() as u32, &costs);
        // The depth read is a timed load; dealing never takes it.
        if ok && !dealing {
            let depth = queue::len(self.api, q);
            self.st.stats.max_queue_depth = self.st.stats.max_queue_depth.max(depth);
        }
        lock::release(self.api, lk);
        ok
    }

    /// What a core does when its own queue is empty: steal, or advertise
    /// hunger and keep polling.
    pub(crate) fn on_empty(&mut self, wait_rc: Option<Addr>) {
        match self.sh.config.scheduler {
            SchedulerKind::WorkDealing => self.advertise_hunger(),
            SchedulerKind::WorkStealing | SchedulerKind::Static => self.steal(wait_rc),
        }
    }

    /// Lower this core's hunger advert, if raised: the loop found local
    /// work or is exiting.
    pub(crate) fn clear_hunger(&mut self) {
        if self.st.hungry {
            self.api.store(self.sh.layout.hungry_addr(self.st.core), 0);
            self.st.hungry = false;
        }
    }

    fn advertise_hunger(&mut self) {
        if !self.st.hungry {
            self.api.store(self.sh.layout.hungry_addr(self.st.core), 1);
            // Invariant: the hunger advert (and the queue-empty state
            // preceding it) must be globally visible before this core
            // starts its poll backoff — a dealer only feeds cores whose
            // advert has landed.
            self.api.fence();
            self.st.hungry = true;
        }
        self.api.charge(1, 24);
    }

    /// If our queue is saturated and someone is hungry, push the record
    /// onto their queue. Returns `true` when it was dealt.
    fn deal(&mut self, rec_addr: Addr) -> bool {
        let costs = self.sh.costs;
        let own_q = self.own_queue();
        if queue::len(self.api, own_q) < DEAL_THRESHOLD {
            return false;
        }
        let Some(victim) = self.claim_hungry() else {
            return false;
        };
        let vq = self.sh.layout.queue_block(&self.sh.map, victim);
        let vlk = queue::lock_addr(vq);
        self.st.stats.lock_retries += lock::acquire(self.api, vlk, &costs);
        let ok = queue::enqueue(self.api, vq, rec_addr.raw() as u32, &costs);
        lock::release(self.api, vlk);
        // A full queue after all falls through to ours.
        self.st.stats.deals += u64::from(ok);
        ok
    }

    /// Try to find and claim a hungry core (returns its id).
    fn claim_hungry(&mut self) -> Option<u32> {
        let cores = self.sh.cores as u32;
        for _ in 0..DEAL_PROBES {
            let c = self.st.rng.random_range(0..cores);
            if c == self.st.core {
                continue;
            }
            let flag = self.sh.layout.hungry_addr(c);
            if self.api.load(flag) != 0 {
                // Claim it so two donors don't dogpile one core.
                let old = self.api.amo(flag, AmoOp::Swap, 0);
                if old != 0 {
                    return Some(c);
                }
            }
            self.api.charge(2, 2);
        }
        None
    }

    /// One steal attempt. The victim's head/tail are peeked without the
    /// lock first — thieves must not serialize a busy victim's own queue
    /// operations just to discover an empty queue.
    fn steal(&mut self, wait_rc: Option<Addr>) {
        if self.sh.cores == 1 {
            self.api.charge(1, 32);
            return;
        }
        let costs = self.sh.costs;
        // Victim selection, remote queue resolution, the unlocked peek,
        // and the transfer itself are all the paper's steal-search
        // overhead.
        let sprev = self.api.phase_begin(Phase::StealSearch);
        let victim = self.choose_victim();
        let vq = self.resolve_victim_queue(victim);
        let vlk = queue::lock_addr(vq);
        let stolen = if queue::len(self.api, vq) > 0 {
            self.st.stats.lock_retries += lock::acquire(self.api, vlk, &costs);
            let (first, surplus) = match self.sh.config.steal_amount {
                StealAmount::One => (queue::steal(self.api, vq, &costs), Vec::new()),
                StealAmount::Half => {
                    let take = queue::len(self.api, vq).div_ceil(2);
                    let mut got = queue::steal_up_to(self.api, vq, take, &costs);
                    let first = (!got.is_empty()).then(|| got.remove(0));
                    (first, got)
                }
            };
            lock::release(self.api, vlk);
            if !surplus.is_empty() {
                // Re-home the surplus on our own queue.
                let own_q = self.own_queue();
                let own_lk = queue::lock_addr(own_q);
                self.st.stats.lock_retries += lock::acquire(self.api, own_lk, &costs);
                for t in surplus {
                    if !queue::enqueue(self.api, own_q, t, &costs) {
                        // Our queue is full: hand it straight back to
                        // execution (real task work, not search).
                        lock::release(self.api, own_lk);
                        self.api.phase_restore(sprev);
                        self.execute_record(Addr(t as u64));
                        let _ = self.api.phase_begin(Phase::StealSearch);
                        self.st.stats.lock_retries += lock::acquire(self.api, own_lk, &costs);
                    }
                }
                lock::release(self.api, own_lk);
            }
            first
        } else {
            None
        };
        self.api.phase_restore(sprev);
        match stolen {
            Some(t) => {
                self.st.stats.steals += 1;
                self.st.steal_fail_streak = 0;
                self.trace_event(crate::trace::TraceEvent::Steal {
                    thief: self.st.core,
                    victim,
                    at: self.api.now(),
                });
                self.execute_record_traced(Addr(t as u64), true);
            }
            None => {
                self.st.stats.failed_steals += 1;
                let iprev = self.api.phase_begin(Phase::Idle);
                if wait_rc.is_some() {
                    // A waiting parent must notice its join promptly;
                    // keep the retry tight.
                    self.api.charge(2, 8);
                } else {
                    // Idle workers back off exponentially so they don't
                    // congest the network and the victims' queues.
                    let shift = self.st.steal_fail_streak.min(3);
                    self.st.steal_fail_streak += 1;
                    self.api.charge(2, 32u64 << shift);
                }
                self.api.phase_restore(iprev);
            }
        }
    }

    /// Pick a victim other than ourselves.
    fn choose_victim(&mut self) -> u32 {
        let cores = self.sh.cores as u32;
        debug_assert!(cores > 1);
        let costs = self.sh.costs;
        self.api.charge(costs.victim_select, costs.victim_select);
        match self.sh.config.victim {
            VictimPolicy::Random => loop {
                let v = self.st.rng.random_range(0..cores);
                if v != self.st.core {
                    return v;
                }
            },
            VictimPolicy::RoundRobin => {
                self.st.rr_victim = (self.st.rr_victim + 1) % cores;
                if self.st.rr_victim == self.st.core {
                    self.st.rr_victim = (self.st.rr_victim + 1) % cores;
                }
                self.st.rr_victim
            }
            VictimPolicy::Nearest => {
                // Walk cores in Manhattan-distance order from us,
                // advancing one position per attempt (so repeated
                // failures expand the search ring).
                if self.st.nearest.is_empty() {
                    let cols = self.sh.mesh_cols as u32;
                    let me = self.st.core;
                    let (mx, my) = (me % cols, me / cols);
                    self.st.nearest = (0..cores).filter(|&c| c != me).collect();
                    self.st.nearest.sort_by_key(|&c| {
                        let (cx, cy) = (c % cols, c / cols);
                        (cx.abs_diff(mx) + cy.abs_diff(my), c)
                    });
                }
                self.st.rr_victim = (self.st.rr_victim + 1) % (cores - 1);
                self.st.nearest[self.st.rr_victim as usize]
            }
        }
    }

    /// Resolve a victim's queue block address. With an SPM queue this
    /// is pure address arithmetic (`get_remote_ptr`, Fig. 4b); with a
    /// DRAM queue the thief must first load `tq[vid]` from the DRAM
    /// directory (Fig. 4a) — a real timed access.
    fn resolve_victim_queue(&mut self, victim: u32) -> Addr {
        match self.sh.layout.queue_placement() {
            Placement::Spm => {
                self.api.charge(3, 3); // base + offset arithmetic
                self.sh.layout.queue_block(&self.sh.map, victim)
            }
            Placement::Dram => {
                let ptr = self.api.load(self.sh.layout.queue_dir_entry(victim));
                Addr(ptr as u64)
            }
        }
    }
}
