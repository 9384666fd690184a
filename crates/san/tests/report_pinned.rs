//! Pins the sanitizer's whole report on seeded random hook streams.
//!
//! Each stream drives a fresh [`Sanitizer`] through every hook the
//! machine and the runtime call: local and remote SPM accesses, DRAM
//! data words, declared sync ranges, AMO-classified words, lock
//! acquires and releases (owner, non-owner, double and unfenced),
//! relaxed accesses, fences, and `StackPush`/`StackPop`/`FreezeEnv`
//! notes whose words are reused after a pop. The expected reports were
//! recorded once and must never move: any change to how the shadow
//! state is stored has to reproduce every total, count, and detailed
//! diagnostic, in order. On a mismatch the test prints the pin lines
//! the current code produces.

use mosaic_mem::{Addr, AddrMap, AmoOp};
use mosaic_san::{DiagKind, LayoutSpec, Note, NoteSink, SanReport, Sanitizer, MAX_DETAILED};
use proptest::prelude::*;
use rand::prelude::*;
use std::collections::BTreeSet;

const SPM_SIZE: u32 = 4096;
/// SPM queue block; its first word is the core's queue lock.
const QUEUE_OFF: u32 = 2048;
const USER_OFF: u32 = 3072;
const SPM_STACK_WORDS: u32 = 64;
const DRAM_STACK_WORDS: u32 = 96;
/// DRAM layout, as byte offsets from `AddrMap::DRAM_BASE`.
const DATA: (u64, u64) = (0x0, 48);
const FLAGS: (u64, u64) = (0x100, 8);
const SYNC: (u64, u64) = (0x200, 32);
const DRAM_LOCKS: [u64; 2] = [0x200, 0x210];
const BARRIER: u64 = 0x300;
/// A declared range with unaligned ends inside the data pool: it
/// covers the words at 0xa4..=0xb0, not 0xa0 or 0xb4.
const ODD_SYNC: (u64, u64) = (0xa2, 0xb3);
const DRAM_STACKS: u64 = 0x1_0000;
const DRAM_STACK_STRIDE: u64 = 0x200;

const AMO_OPS: [AmoOp; 8] = [
    AmoOp::Add,
    AmoOp::Sub,
    AmoOp::Swap,
    AmoOp::And,
    AmoOp::Or,
    AmoOp::Xor,
    AmoOp::Max,
    AmoOp::Min,
];

fn dram(off: u64) -> Addr {
    Addr(AddrMap::DRAM_BASE + off)
}

/// The generator's view of one core's stack: the live frames, and
/// the stack pointers of both stacks.
#[derive(Default)]
struct Stack {
    frames: Vec<(u64, u32, bool)>,
    spm_top: u32,
    dram_top: u64,
}

/// One seeded stream of hooks against a `cores`-core machine.
struct Stream {
    rng: SmallRng,
    map: AddrMap,
    cores: usize,
    san: Sanitizer,
    sink: NoteSink,
    stacks: Vec<Stack>,
    /// Frames popped recently, kept so later accesses reuse their words.
    dead: Vec<(u64, u32)>,
    lock_words: Vec<u64>,
    now: u64,
}

impl Stream {
    fn new(cores: usize, seed: u64) -> Self {
        let map = AddrMap::new(cores as u32, SPM_SIZE);
        let mut lock_words: Vec<u64> = (0..cores as u32)
            .map(|c| map.spm_addr(c, QUEUE_OFF).raw())
            .collect();
        lock_words.extend(DRAM_LOCKS.iter().map(|&off| dram(off).raw()));
        let mut san = Sanitizer::new(map.clone(), cores);
        san.set_spec(LayoutSpec {
            user_off: USER_OFF,
            spm_size: SPM_SIZE,
            spm_stack_words: SPM_STACK_WORDS,
            dram_stack_words: DRAM_STACK_WORDS,
            lock_words: lock_words.clone(),
            sync_ranges: vec![
                (dram(SYNC.0).raw(), dram(SYNC.0 + 4 * SYNC.1).raw()),
                (dram(BARRIER).raw(), dram(BARRIER + 4).raw()),
                (dram(ODD_SYNC.0).raw(), dram(ODD_SYNC.1).raw()),
            ],
        });
        let sink = san.note_sink();
        Stream {
            rng: SmallRng::seed_from_u64(seed),
            map,
            cores,
            san,
            sink,
            stacks: (0..cores).map(|_| Stack::default()).collect(),
            dead: Vec::new(),
            lock_words,
            now: 0,
        }
    }

    fn pool(&mut self, (base, words): (u64, u64)) -> Addr {
        dram(base + 4 * self.rng.random_range(0..words))
    }

    fn frame_word(&mut self, base: u64, words: u32) -> Addr {
        Addr(base + 4 * self.rng.random_range(0..words as u64))
    }

    /// A target address for `core`'s next access.
    fn addr(&mut self, core: usize) -> Addr {
        match self.rng.random_range(0..100u32) {
            0..25 => self.pool(DATA),
            25..35 => self.pool(FLAGS),
            35..45 => self.pool(SYNC),
            45..60 => {
                let off = 4 * self.rng.random_range(0..SPM_SIZE / 4);
                self.map.spm_addr(core as u32, off)
            }
            60..70 => {
                let owner = self.rng.random_range(0..self.cores as u32);
                let off = 4 * self.rng.random_range(0..SPM_SIZE / 4);
                self.map.spm_addr(owner, off)
            }
            70..85 => {
                // A live frame of this core, or of a neighbour.
                let who = if self.rng.random_bool(0.7) {
                    core
                } else {
                    (core + 1) % self.cores
                };
                match self.stacks[who].frames.last().copied() {
                    Some((base, words, _)) => self.frame_word(base, words),
                    None => self.pool(DATA),
                }
            }
            85..95 => {
                // A word of a popped frame: reuse after the pop.
                if self.dead.is_empty() {
                    self.pool(DATA)
                } else {
                    let i = self.rng.random_range(0..self.dead.len());
                    let (base, words) = self.dead[i];
                    self.frame_word(base, words)
                }
            }
            _ => self.lock_word(),
        }
    }

    fn lock_word(&mut self) -> Addr {
        let i = self.rng.random_range(0..self.lock_words.len());
        Addr(self.lock_words[i])
    }

    fn note(&mut self, core: usize) {
        let choice = self.rng.random_range(0..100u32);
        let stack = &self.stacks[core];
        if choice < 45 {
            // Push: SPM unless DRAM frames are live or the dice say
            // overflow; sometimes an SPM frame past the threshold.
            let words = self.rng.random_range(1..24u32);
            let to_dram =
                stack.dram_top > 0 || self.rng.random_bool(0.35) || stack.spm_top + words > 120;
            let wrong_way = stack.dram_top > 0 && self.rng.random_bool(0.1);
            let stack = &mut self.stacks[core];
            let (base, in_dram) = if to_dram && !wrong_way {
                let base = dram(DRAM_STACKS + core as u64 * DRAM_STACK_STRIDE + 4 * stack.dram_top);
                stack.dram_top += words as u64;
                (base.raw(), true)
            } else {
                let base = self.map.spm_addr(core as u32, 4 * (stack.spm_top % 120));
                stack.spm_top += words;
                (base.raw(), false)
            };
            stack.frames.push((base, words, in_dram));
            self.sink.borrow_mut().push(Note::StackPush {
                core,
                base,
                words,
                in_dram,
            });
        } else if choice < 85 {
            let stack = &mut self.stacks[core];
            let (base, words, in_dram) = match stack.frames.pop() {
                Some(f) => {
                    if f.2 {
                        stack.dram_top -= f.1 as u64;
                    } else {
                        stack.spm_top -= f.1;
                    }
                    self.dead.push((f.0, f.1));
                    if self.dead.len() > 16 {
                        self.dead.remove(0);
                    }
                    f
                }
                // A pop of an empty stack (underflow).
                None => (self.map.spm_addr(core as u32, 0).raw(), 4, false),
            };
            self.sink.borrow_mut().push(Note::StackPop {
                core,
                base,
                words,
                in_dram,
            });
        } else if let Some(&(base, words, _)) = stack.frames.last() {
            let words = self.rng.random_range(1..=words);
            self.sink
                .borrow_mut()
                .push(Note::FreezeEnv { core, base, words });
        }
    }

    fn step(&mut self) {
        self.now += self.rng.random_range(0..4u64);
        let cycle = self.now - self.rng.random_range(0..2u64).min(self.now);
        let core = self.rng.random_range(0..self.cores);
        match self.rng.random_range(0..100u32) {
            0..22 => {
                let a = self.addr(core);
                self.san.load(core, a, cycle);
            }
            22..40 => {
                let a = self.addr(core);
                let v = if self.rng.random_bool(0.8) {
                    0
                } else {
                    self.rng.random_range(1..9)
                };
                self.san.store(core, a, v, cycle);
            }
            40..45 => {
                let a = self.addr(core);
                self.san.load_relaxed(core, a, cycle);
            }
            45..50 => {
                let a = self.addr(core);
                let v = self.rng.random_range(0..3);
                self.san.store_relaxed(core, a, v, cycle);
            }
            50..64 => {
                let a = if self.rng.random_bool(0.5) {
                    self.pool(FLAGS)
                } else {
                    self.addr(core)
                };
                let op = AMO_OPS[self.rng.random_range(0..AMO_OPS.len())];
                let operand = self.rng.random_range(0..3);
                let old = self.rng.random_range(0..3);
                self.san.amo(core, a, op, operand, old, cycle);
            }
            64..78 => self.san.fence(core, cycle),
            78..86 => {
                // Lock acquire: a successful (or, sometimes, failed)
                // amoswap of 1 on a lock word.
                let lk = self.lock_word();
                let old = u32::from(self.rng.random_bool(0.2));
                self.san.amo(core, lk, AmoOp::Swap, 1, old, cycle);
            }
            86..92 => {
                // Lock release: usually fenced first; the store may be
                // by a non-owner, a double release, or unfenced.
                let lk = self.lock_word();
                if self.rng.random_bool(0.7) {
                    self.san.fence(core, cycle);
                }
                self.san.store(core, lk, 0, cycle);
            }
            _ => self.note(core),
        }
    }

    fn run(mut self, steps: usize) -> SanReport {
        for _ in 0..steps {
            self.step();
        }
        self.san.finish();
        self.san.report()
    }
}

/// FNV-1a over every detailed diagnostic's rendered line, in order.
fn digest(report: &SanReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for d in &report.diagnostics {
        for b in format!("{d}\n").bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The recorded report of one stream.
struct Pin {
    cores: usize,
    seed: u64,
    steps: usize,
    total: u64,
    ops: u64,
    counts: &'static [(&'static str, u64)],
    detailed: usize,
    digest: u64,
}

fn pin_line(pin: &Pin, r: &SanReport) -> String {
    let counts: Vec<String> = r
        .counts
        .iter()
        .map(|(k, n)| format!("(\"{}\", {n})", k.label()))
        .collect();
    format!(
        "Pin {{ cores: {}, seed: {}, steps: {}, total: {}, ops: {}, counts: &[{}], detailed: {}, digest: {:#018x} }},",
        pin.cores,
        pin.seed,
        pin.steps,
        r.total,
        r.ops,
        counts.join(", "),
        r.diagnostics.len(),
        digest(r)
    )
}

#[rustfmt::skip]
const PINS: &[Pin] = &[
    Pin { cores: 8, seed: 1, steps: 4000, total: 526, ops: 3147, counts: &[("race:write-write", 37), ("race:read-write", 45), ("race:write-read", 36), ("env:write-to-read-only", 14), ("spm:remote-user-region", 66), ("lock:release-without-acquire", 150), ("lock:release-by-non-owner", 124), ("lock:unfenced-release", 6), ("lock:held-at-exit", 8), ("stack:spm-overflow", 1), ("stack:spm-frame-while-overflowed", 11), ("stack:dram-exhausted", 2), ("stack:underflow", 26)], detailed: 64, digest: 0x20e056c346d8e34c },
    Pin { cores: 8, seed: 2, steps: 4000, total: 521, ops: 3110, counts: &[("race:write-write", 48), ("race:read-write", 36), ("race:write-read", 41), ("env:write-to-read-only", 28), ("spm:remote-user-region", 31), ("lock:release-without-acquire", 160), ("lock:release-by-non-owner", 124), ("lock:unfenced-release", 5), ("lock:held-at-exit", 5), ("stack:spm-frame-while-overflowed", 13), ("stack:dram-exhausted", 2), ("stack:underflow", 28)], detailed: 64, digest: 0xb5c8133f0aa4c823 },
    Pin { cores: 8, seed: 3, steps: 4000, total: 544, ops: 3126, counts: &[("race:write-write", 46), ("race:read-write", 40), ("race:write-read", 46), ("env:write-to-read-only", 21), ("spm:remote-user-region", 52), ("lock:release-without-acquire", 164), ("lock:release-by-non-owner", 116), ("lock:unfenced-release", 4), ("lock:held-at-exit", 3), ("stack:spm-overflow", 1), ("stack:spm-frame-while-overflowed", 11), ("stack:dram-exhausted", 18), ("stack:underflow", 22)], detailed: 64, digest: 0x459b3f0d20e8256e },
    Pin { cores: 8, seed: 4, steps: 4000, total: 433, ops: 3111, counts: &[("race:write-write", 27), ("race:read-write", 28), ("race:write-read", 21), ("env:write-to-read-only", 15), ("spm:remote-user-region", 32), ("lock:release-without-acquire", 148), ("lock:release-by-non-owner", 115), ("lock:unfenced-release", 2), ("lock:held-at-exit", 5), ("stack:spm-overflow", 1), ("stack:spm-frame-while-overflowed", 9), ("stack:dram-exhausted", 2), ("stack:underflow", 28)], detailed: 64, digest: 0xeb2c849c5fb8af41 },
    Pin { cores: 8, seed: 5, steps: 4000, total: 494, ops: 3124, counts: &[("race:write-write", 46), ("race:read-write", 31), ("race:write-read", 30), ("env:write-to-read-only", 12), ("spm:remote-user-region", 49), ("lock:release-without-acquire", 156), ("lock:release-by-non-owner", 117), ("lock:unfenced-release", 5), ("lock:held-at-exit", 5), ("stack:spm-frame-while-overflowed", 8), ("stack:dram-exhausted", 3), ("stack:underflow", 32)], detailed: 64, digest: 0x972d4520127c8d20 },
    Pin { cores: 8, seed: 6, steps: 300, total: 43, ops: 232, counts: &[("race:write-write", 3), ("race:read-write", 5), ("race:write-read", 3), ("env:write-to-read-only", 1), ("spm:remote-user-region", 4), ("lock:release-without-acquire", 12), ("lock:release-by-non-owner", 6), ("lock:held-at-exit", 6), ("stack:underflow", 3)], detailed: 35, digest: 0x199ba9b221ecb5df },
    Pin { cores: 8, seed: 7, steps: 300, total: 57, ops: 234, counts: &[("race:write-write", 6), ("race:read-write", 6), ("race:write-read", 4), ("env:write-to-read-only", 1), ("spm:remote-user-region", 6), ("lock:release-without-acquire", 22), ("lock:release-by-non-owner", 3), ("lock:held-at-exit", 3), ("stack:underflow", 6)], detailed: 40, digest: 0xc603df0043293fa4 },
    Pin { cores: 8, seed: 8, steps: 300, total: 50, ops: 229, counts: &[("race:write-write", 6), ("race:read-write", 4), ("race:write-read", 5), ("env:write-to-read-only", 1), ("spm:remote-user-region", 1), ("lock:release-without-acquire", 15), ("lock:release-by-non-owner", 8), ("lock:unfenced-release", 1), ("lock:held-at-exit", 2), ("stack:underflow", 7)], detailed: 39, digest: 0x99d5076fbfe36c60 },
    Pin { cores: 128, seed: 1, steps: 4000, total: 866, ops: 3129, counts: &[("race:write-write", 131), ("race:read-write", 108), ("race:write-read", 110), ("env:write-to-read-only", 6), ("spm:remote-user-region", 69), ("lock:release-without-acquire", 186), ("lock:release-by-non-owner", 106), ("lock:held-at-exit", 57), ("stack:spm-overflow", 2), ("stack:spm-frame-while-overflowed", 4), ("stack:underflow", 87)], detailed: 64, digest: 0x3f5086a124ac319c },
    Pin { cores: 128, seed: 2, steps: 4000, total: 815, ops: 3108, counts: &[("race:write-write", 134), ("race:read-write", 94), ("race:write-read", 98), ("env:write-to-read-only", 3), ("spm:remote-user-region", 38), ("lock:release-without-acquire", 196), ("lock:release-by-non-owner", 95), ("lock:unfenced-release", 1), ("lock:held-at-exit", 64), ("stack:spm-frame-while-overflowed", 4), ("stack:underflow", 88)], detailed: 64, digest: 0x2d12ba05254f69da },
    Pin { cores: 128, seed: 3, steps: 4000, total: 953, ops: 3122, counts: &[("race:write-write", 157), ("race:read-write", 157), ("race:write-read", 152), ("env:write-to-read-only", 1), ("spm:remote-user-region", 59), ("lock:release-without-acquire", 185), ("lock:release-by-non-owner", 95), ("lock:held-at-exit", 52), ("stack:spm-overflow", 1), ("stack:spm-frame-while-overflowed", 5), ("stack:underflow", 89)], detailed: 64, digest: 0xb2b4151285b708ee },
    Pin { cores: 128, seed: 4, steps: 4000, total: 754, ops: 3114, counts: &[("race:write-write", 109), ("race:read-write", 88), ("race:write-read", 79), ("env:write-to-read-only", 1), ("spm:remote-user-region", 40), ("lock:release-without-acquire", 172), ("lock:release-by-non-owner", 104), ("lock:unfenced-release", 2), ("lock:held-at-exit", 65), ("stack:spm-frame-while-overflowed", 1), ("stack:underflow", 93)], detailed: 64, digest: 0xd3e5c0d6ff799a01 },
    Pin { cores: 128, seed: 5, steps: 4000, total: 805, ops: 3133, counts: &[("race:write-write", 112), ("race:read-write", 97), ("race:write-read", 101), ("spm:remote-user-region", 53), ("lock:release-without-acquire", 179), ("lock:release-by-non-owner", 105), ("lock:held-at-exit", 62), ("stack:spm-frame-while-overflowed", 1), ("stack:underflow", 95)], detailed: 64, digest: 0x85b70241a7f9a24e },
    Pin { cores: 128, seed: 6, steps: 300, total: 66, ops: 232, counts: &[("race:write-write", 5), ("race:read-write", 8), ("race:write-read", 5), ("spm:remote-user-region", 4), ("lock:release-without-acquire", 17), ("lock:held-at-exit", 19), ("stack:underflow", 8)], detailed: 64, digest: 0xb99cfa3991001ded },
    Pin { cores: 128, seed: 7, steps: 300, total: 90, ops: 234, counts: &[("race:write-write", 17), ("race:read-write", 12), ("race:write-read", 7), ("spm:remote-user-region", 4), ("lock:release-without-acquire", 25), ("lock:release-by-non-owner", 1), ("lock:held-at-exit", 16), ("stack:underflow", 8)], detailed: 64, digest: 0x09de6664f5990253 },
    Pin { cores: 128, seed: 8, steps: 300, total: 90, ops: 234, counts: &[("race:write-write", 16), ("race:read-write", 7), ("race:write-read", 10), ("spm:remote-user-region", 4), ("lock:release-without-acquire", 25), ("lock:release-by-non-owner", 2), ("lock:held-at-exit", 16), ("stack:underflow", 10)], detailed: 64, digest: 0x405a4bc1521f1b57 },
];

#[test]
fn reports_match_the_pinned_streams() {
    let mut mismatches = Vec::new();
    for pin in PINS {
        let r = Stream::new(pin.cores, pin.seed).run(pin.steps);
        let counts: Vec<(&str, u64)> = r.counts.iter().map(|(k, &n)| (k.label(), n)).collect();
        let same = r.total == pin.total
            && r.ops == pin.ops
            && counts == pin.counts
            && r.diagnostics.len() == pin.detailed
            && digest(&r) == pin.digest;
        if !same {
            mismatches.push(format!("    {}\n{r}", pin_line(pin, &r)));
        }
    }
    assert!(
        mismatches.is_empty(),
        "reports moved; the current code produces:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn pins_cover_both_machine_sizes_and_every_kind() {
    for cores in [8, 128] {
        assert!(PINS.iter().filter(|p| p.cores == cores).count() >= 4);
    }
    let kinds: BTreeSet<&str> = PINS
        .iter()
        .flat_map(|p| p.counts.iter().map(|&(k, _)| k))
        .collect();
    for k in [
        "race:write-write",
        "race:read-write",
        "race:write-read",
        "env:write-to-read-only",
        "spm:remote-user-region",
        "lock:release-without-acquire",
        "lock:release-by-non-owner",
        "lock:unfenced-release",
        "lock:held-at-exit",
        "stack:spm-overflow",
        "stack:spm-frame-while-overflowed",
        "stack:dram-exhausted",
        "stack:underflow",
    ] {
        assert!(kinds.contains(k), "no pinned stream reports {k}");
    }
    // Clean transfers must dominate, or the streams test only noise.
    assert!(PINS.iter().all(|p| p.total < p.ops));
}

/// A popped frame's words start over: a clock published on one is not
/// acquired after the pop, and an AMO's sync classification is gone.
#[test]
fn pop_forgets_published_clocks_and_sticky_sync() {
    let map = AddrMap::new(2, SPM_SIZE);
    let mut san = Sanitizer::new(map.clone(), 2);
    san.set_spec(LayoutSpec {
        user_off: USER_OFF,
        spm_size: SPM_SIZE,
        spm_stack_words: SPM_STACK_WORDS,
        dram_stack_words: DRAM_STACK_WORDS,
        ..LayoutSpec::default()
    });
    let sink = san.note_sink();
    let frame = |push: bool, base: Addr, in_dram: bool| {
        let (core, base, words) = (0, base.raw(), 1);
        sink.borrow_mut().push(if push {
            Note::StackPush {
                core,
                base,
                words,
                in_dram,
            }
        } else {
            Note::StackPop {
                core,
                base,
                words,
                in_dram,
            }
        });
    };
    let (data, word) = (dram(DATA.0), map.spm_addr(0, 0));
    frame(true, word, false);
    san.store(0, data, 1, 10);
    san.fence(0, 11);
    san.store(0, word, 1, 12); // publishes a clock covering `data`
    frame(false, word, false);
    san.load(1, word, 20);
    san.load(1, data, 21); // unordered: the clock went with the frame
    let sticky = dram(DRAM_STACKS);
    frame(true, sticky, true);
    san.amo(0, sticky, AmoOp::Add, 1, 0, 30);
    frame(false, sticky, true);
    san.store(0, sticky, 1, 40);
    san.store(1, sticky, 2, 41); // a data race again
    san.finish();
    let r = san.report();
    let found: Vec<_> = r.diagnostics.iter().map(|d| (d.kind, d.addr)).collect();
    assert_eq!(
        found,
        [
            (DiagKind::RaceWriteRead, data.raw()),
            (DiagKind::RaceWriteWrite, sticky.raw())
        ],
        "{r}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn reports_are_consistent_and_repeatable(seed in any::<u64>(), wide in any::<bool>()) {
        let cores = if wide { 128 } else { 8 };
        let r = Stream::new(cores, seed).run(1500);
        prop_assert_eq!(r.counts.values().sum::<u64>(), r.total);
        prop_assert!(r.diagnostics.len() <= MAX_DETAILED);
        let distinct: BTreeSet<_> = r.diagnostics.iter().map(|d| (d.kind, d.addr)).collect();
        prop_assert_eq!(distinct.len(), r.diagnostics.len());
        prop_assert_eq!(Stream::new(cores, seed).run(1500), r);
    }
}
