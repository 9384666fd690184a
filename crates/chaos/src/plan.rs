//! The seeded fault plan: a compact, serializable *generator
//! description* that materializes into a concrete schedule against a
//! machine geometry.
//!
//! A plan does not name links, banks, or cores directly — it says "4
//! link stalls of 400 cycles somewhere in the first 200k cycles" and
//! lets [`FaultPlan::materialize`] pick the concrete victims with a
//! splitmix64 stream, so one plan is meaningful across machine shapes
//! while staying bit-reproducible for any fixed shape. Bit flips are
//! the exception: they name their target word explicitly, because a
//! useful data-fault test aims at a known payload region.
//!
//! Two interchangeable serializations exist:
//!
//! - the canonical **spec string** (what `--faults` accepts), e.g.
//!   `seed=7,horizon=200000,links=4x400,banks=2x300+25,freeze=2x600`;
//! - a **jsonlite** object ([`FaultPlan::to_json`]), used wherever a
//!   structured form travels (job specs, cache entries).
//!
//! Both round-trip exactly, and the spec string is what gets digested
//! into a `JobSpec` cache key.

use crate::rng::SplitMix64;
use crate::schedule::{FaultGeometry, FaultSchedule, ScheduledFlip, SpikeWindow, Window};
use crate::Cycle;
use jsonlite::Json;

/// A burst of same-length fault windows: `count` windows of `len`
/// cycles each, placed by the seeded generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultBurst {
    /// Number of windows (0 disables the family).
    pub count: u32,
    /// Window length in cycles.
    pub len: Cycle,
}

/// A burst of latency-spike windows: like [`FaultBurst`] plus the
/// extra latency charged to accesses that start inside a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpikeBurst {
    /// Number of windows (0 disables the family).
    pub count: u32,
    /// Window length in cycles.
    pub len: Cycle,
    /// Extra cycles added to each access starting inside a window.
    pub extra: Cycle,
}

/// Where a scheduled bit flip lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipTarget {
    /// DRAM word index (byte offset / 4), wrapped to the DRAM size at
    /// materialization.
    Dram {
        /// Word index into DRAM.
        word: u64,
    },
    /// A word of one core's scratchpad, both wrapped to the geometry.
    Spm {
        /// Owning core.
        core: u32,
        /// Word index into that SPM.
        word: u32,
    },
}

/// One scheduled single-bit flip. `cycle == None` means "at
/// simulation end": the flip is applied after the last write, which
/// guarantees it lands in the final payload instead of being
/// legitimately overwritten mid-run — the right default for
/// divergence-detection tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitFlip {
    /// Target word.
    pub target: FlipTarget,
    /// Bit index, 0..32 (wrapped with `% 32` when applied).
    pub bit: u8,
    /// Simulated cycle at which to apply, `None` = at termination.
    pub cycle: Option<Cycle>,
}

/// The seeded fault plan. See the module docs for the two
/// serializations and [`FaultPlan::materialize`] for how it becomes a
/// concrete schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the placement generator.
    pub seed: u64,
    /// Windows start uniformly in `0..horizon` cycles.
    pub horizon: Cycle,
    /// NoC link stall windows (a stalled link accepts no flits).
    pub links: FaultBurst,
    /// LLC bank latency spikes.
    pub banks: SpikeBurst,
    /// DRAM channel latency spikes (channel-wide).
    pub dram: SpikeBurst,
    /// Per-core freeze (pipeline hiccup) windows.
    pub freeze: FaultBurst,
    /// Scheduled single-bit flips (data faults).
    pub flips: Vec<BitFlip>,
}

impl Default for FaultPlan {
    /// A plan with no effects (all families empty); materializes to an
    /// empty schedule and must be timing-identical to `faults: None`.
    fn default() -> Self {
        FaultPlan {
            seed: 1,
            horizon: 100_000,
            links: FaultBurst::default(),
            banks: SpikeBurst::default(),
            dram: SpikeBurst::default(),
            freeze: FaultBurst::default(),
            flips: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A moderate all-families timing plan seeded with `seed` — the
    /// default roster entry for `chaos_sweep` and the proptests.
    pub fn timing(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            horizon: 100_000,
            links: FaultBurst { count: 6, len: 400 },
            banks: SpikeBurst {
                count: 4,
                len: 300,
                extra: 25,
            },
            dram: SpikeBurst {
                count: 2,
                len: 500,
                extra: 40,
            },
            freeze: FaultBurst { count: 3, len: 600 },
            flips: Vec::new(),
        }
    }

    /// Whether the plan perturbs timing only (no data faults). Only
    /// timing-only plans carry the output-preservation guarantee.
    pub fn is_timing_only(&self) -> bool {
        self.flips.is_empty()
    }

    /// Whether the plan has any effect at all.
    pub fn is_empty(&self) -> bool {
        self.links.count == 0
            && self.banks.count == 0
            && self.dram.count == 0
            && self.freeze.count == 0
            && self.flips.is_empty()
    }

    /// Parse the canonical spec string (see module docs). The empty
    /// string parses to the no-effect default plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("fault spec token {token:?} is not key=value"))?;
            match key {
                "seed" => plan.seed = parse_int(value, "seed")?,
                "horizon" => plan.horizon = parse_int(value, "horizon")?,
                "links" => plan.links = parse_burst(value)?,
                "freeze" => plan.freeze = parse_burst(value)?,
                "banks" => plan.banks = parse_spike(value)?,
                "dram" => plan.dram = parse_spike(value)?,
                "flip" => plan.flips.push(parse_flip(value)?),
                other => {
                    return Err(format!(
                        "fault spec: unknown key {other:?} \
                         (seed|horizon|links|banks|dram|freeze|flip)"
                    ))
                }
            }
        }
        plan.canonical()
    }

    /// Check that [`FaultPlan::materialize`] can place every window —
    /// a nonzero horizon, and no window end past `u64::MAX` — and drop
    /// the length of any family with no windows, which the spec string
    /// does not carry.
    fn canonical(mut self) -> Result<FaultPlan, String> {
        if self.horizon == 0 {
            return Err("fault spec: horizon must be nonzero".to_string());
        }
        for burst in [&mut self.links, &mut self.freeze] {
            if burst.count == 0 {
                *burst = FaultBurst::default();
            }
        }
        for spike in [&mut self.banks, &mut self.dram] {
            if spike.count == 0 {
                *spike = SpikeBurst::default();
            }
        }
        for (family, len) in [
            ("links", self.links.len),
            ("banks", self.banks.len),
            ("dram", self.dram.len),
            ("freeze", self.freeze.len),
        ] {
            if self.horizon.checked_add(len).is_none() {
                return Err(format!(
                    "fault spec: {family} window len {len} overflows a cycle \
                     after horizon {}",
                    self.horizon
                ));
            }
        }
        Ok(self)
    }

    /// Emit the canonical spec string; [`FaultPlan::parse`] of the
    /// result reproduces the plan exactly.
    ///
    /// The spec is what job digests see, so every field is bound here:
    /// a new one does not compile until it is serialized.
    pub fn to_spec(&self) -> String {
        let FaultPlan {
            seed,
            horizon,
            links,
            banks,
            dram,
            freeze,
            flips,
        } = self;
        let mut parts = vec![format!("seed={seed}"), format!("horizon={horizon}")];
        if links.count > 0 {
            parts.push(format!("links={}x{}", links.count, links.len));
        }
        if banks.count > 0 {
            parts.push(format!(
                "banks={}x{}+{}",
                banks.count, banks.len, banks.extra
            ));
        }
        if dram.count > 0 {
            parts.push(format!("dram={}x{}+{}", dram.count, dram.len, dram.extra));
        }
        if freeze.count > 0 {
            parts.push(format!("freeze={}x{}", freeze.count, freeze.len));
        }
        for f in flips {
            let at = match f.cycle {
                Some(c) => c.to_string(),
                None => "end".to_string(),
            };
            match f.target {
                FlipTarget::Dram { word } => parts.push(format!("flip=dram:{word}:{}@{at}", f.bit)),
                FlipTarget::Spm { core, word } => {
                    parts.push(format!("flip=spm:{core}:{word}:{}@{at}", f.bit))
                }
            }
        }
        parts.join(",")
    }

    /// Structured jsonlite form, for job specs and cache entries.
    pub fn to_json(&self) -> Json {
        let flips: Vec<Json> = self
            .flips
            .iter()
            .map(|f| {
                let b = match f.target {
                    FlipTarget::Dram { word } => {
                        Json::obj().field("region", "dram").field("word", word)
                    }
                    FlipTarget::Spm { core, word } => Json::obj()
                        .field("region", "spm")
                        .field("core", core as u64)
                        .field("word", word as u64),
                };
                b.field("bit", f.bit as u64)
                    .field("at_end", f.cycle.is_none())
                    .field("cycle", f.cycle.unwrap_or(0))
                    .build()
            })
            .collect();
        Json::obj()
            .field("seed", self.seed)
            .field("horizon", self.horizon)
            .field(
                "links",
                Json::obj()
                    .field("count", self.links.count as u64)
                    .field("len", self.links.len)
                    .build(),
            )
            .field(
                "banks",
                Json::obj()
                    .field("count", self.banks.count as u64)
                    .field("len", self.banks.len)
                    .field("extra", self.banks.extra)
                    .build(),
            )
            .field(
                "dram",
                Json::obj()
                    .field("count", self.dram.count as u64)
                    .field("len", self.dram.len)
                    .field("extra", self.dram.extra)
                    .build(),
            )
            .field(
                "freeze",
                Json::obj()
                    .field("count", self.freeze.count as u64)
                    .field("len", self.freeze.len)
                    .build(),
            )
            .field("flips", flips)
            .build()
    }

    /// Parse back from the jsonlite form.
    pub fn from_json(v: &Json) -> Result<FaultPlan, String> {
        let obj = v.as_object("fault plan")?;
        let burst = |name: &str| -> Result<FaultBurst, String> {
            let b = obj.get(name, "fault plan")?.as_object(name)?;
            Ok(FaultBurst {
                count: narrow(b.get("count", name)?.as_u64()?, "burst count")?,
                len: b.get("len", name)?.as_u64()?,
            })
        };
        let spike = |name: &str| -> Result<SpikeBurst, String> {
            let b = obj.get(name, "fault plan")?.as_object(name)?;
            Ok(SpikeBurst {
                count: narrow(b.get("count", name)?.as_u64()?, "burst count")?,
                len: b.get("len", name)?.as_u64()?,
                extra: b.get("extra", name)?.as_u64()?,
            })
        };
        let mut flips = Vec::new();
        for f in obj.get("flips", "fault plan")?.as_array("flips")? {
            let fo = f.as_object("flip")?;
            let target = match fo.get("region", "flip")?.as_string()?.as_str() {
                "dram" => FlipTarget::Dram {
                    word: fo.get("word", "flip")?.as_u64()?,
                },
                "spm" => FlipTarget::Spm {
                    core: narrow(fo.get("core", "flip")?.as_u64()?, "flip core")?,
                    word: narrow(fo.get("word", "flip")?.as_u64()?, "flip word")?,
                },
                other => return Err(format!("flip region {other:?} (dram|spm)")),
            };
            flips.push(BitFlip {
                target,
                bit: narrow(fo.get("bit", "flip")?.as_u64()?, "flip bit")?,
                cycle: if fo.get("at_end", "flip")?.as_bool()? {
                    None
                } else {
                    Some(fo.get("cycle", "flip")?.as_u64()?)
                },
            });
        }
        FaultPlan {
            seed: obj.get("seed", "fault plan")?.as_u64()?,
            horizon: obj.get("horizon", "fault plan")?.as_u64()?,
            links: burst("links")?,
            banks: spike("banks")?,
            dram: spike("dram")?,
            freeze: burst("freeze")?,
            flips,
        }
        .canonical()
    }

    /// Materialize against a concrete machine geometry: every window
    /// gets a victim (link / bank / core) and a start cycle in
    /// `0..horizon` from a per-family splitmix64 stream, and flip
    /// targets are wrapped into range. Bit-deterministic in
    /// `(plan, geometry)`.
    pub fn materialize(&self, geom: &FaultGeometry) -> FaultSchedule {
        // Per-family salts keep families independent: growing one
        // burst never re-rolls another family's placements.
        let mut link_rng = SplitMix64::new(self.seed ^ 0x6c69_6e6b); // "link"
        let mut bank_rng = SplitMix64::new(self.seed ^ 0x6261_6e6b); // "bank"
        let mut dram_rng = SplitMix64::new(self.seed ^ 0x6472_616d); // "dram"
        let mut core_rng = SplitMix64::new(self.seed ^ 0x636f_7265); // "core"

        let mut sched = FaultSchedule::default();
        for _ in 0..self.links.count {
            let idx = link_rng.below(geom.links as u64) as u32;
            let start = link_rng.below(self.horizon);
            sched.link_stalls.push(Window {
                idx,
                start,
                end: start + self.links.len,
            });
        }
        for _ in 0..self.banks.count {
            let idx = bank_rng.below(geom.llc_banks as u64) as u32;
            let start = bank_rng.below(self.horizon);
            sched.bank_spikes.push(SpikeWindow {
                idx,
                start,
                end: start + self.banks.len,
                extra: self.banks.extra,
            });
        }
        for _ in 0..self.dram.count {
            let start = dram_rng.below(self.horizon);
            sched.dram_spikes.push(SpikeWindow {
                idx: 0,
                start,
                end: start + self.dram.len,
                extra: self.dram.extra,
            });
        }
        for _ in 0..self.freeze.count {
            let idx = core_rng.below(geom.cores as u64) as u32;
            let start = core_rng.below(self.horizon);
            sched.core_freezes.push(Window {
                idx,
                start,
                end: start + self.freeze.len,
            });
        }
        for f in &self.flips {
            let target = match f.target {
                FlipTarget::Dram { word } => FlipTarget::Dram {
                    word: word % geom.dram_words.max(1),
                },
                FlipTarget::Spm { core, word } => FlipTarget::Spm {
                    core: core % geom.cores.max(1),
                    word: word % geom.spm_words.max(1),
                },
            };
            sched.flips.push(ScheduledFlip {
                target,
                bit: f.bit % 32,
                cycle: f.cycle,
            });
        }
        sched.normalize();
        sched
    }
}

/// `n` as a `T`, or an error if it does not fit: a count or an index
/// is never silently truncated.
fn narrow<T: TryFrom<u64>>(n: u64, what: &str) -> Result<T, String> {
    T::try_from(n).map_err(|_| format!("fault spec: {what} {n} is out of range"))
}

fn parse_int<T: TryFrom<u64>>(s: &str, what: &str) -> Result<T, String> {
    let n: u64 = s
        .parse()
        .map_err(|_| format!("fault spec: {what} wants an integer, got {s:?}"))?;
    narrow(n, what)
}

/// `COUNTxLEN`, e.g. `4x400`.
fn parse_burst(s: &str) -> Result<FaultBurst, String> {
    let (count, len) = s
        .split_once('x')
        .ok_or_else(|| format!("fault spec: burst {s:?} is not COUNTxLEN"))?;
    Ok(FaultBurst {
        count: parse_int(count, "burst count")?,
        len: parse_int(len, "burst len")?,
    })
}

/// `COUNTxLEN+EXTRA`, e.g. `2x300+25`.
fn parse_spike(s: &str) -> Result<SpikeBurst, String> {
    let (head, extra) = s
        .split_once('+')
        .ok_or_else(|| format!("fault spec: spike {s:?} is not COUNTxLEN+EXTRA"))?;
    let burst = parse_burst(head)?;
    Ok(SpikeBurst {
        count: burst.count,
        len: burst.len,
        extra: parse_int(extra, "spike extra")?,
    })
}

/// `dram:WORD:BIT@CYCLE|end` or `spm:CORE:WORD:BIT@CYCLE|end`.
fn parse_flip(s: &str) -> Result<BitFlip, String> {
    let (head, at) = s
        .split_once('@')
        .ok_or_else(|| format!("fault spec: flip {s:?} is missing @CYCLE (or @end)"))?;
    let cycle = if at == "end" {
        None
    } else {
        Some(parse_int(at, "flip cycle")?)
    };
    let fields: Vec<&str> = head.split(':').collect();
    match fields.as_slice() {
        ["dram", word, bit] => Ok(BitFlip {
            target: FlipTarget::Dram {
                word: parse_int(word, "flip word")?,
            },
            bit: parse_int(bit, "flip bit")?,
            cycle,
        }),
        ["spm", core, word, bit] => Ok(BitFlip {
            target: FlipTarget::Spm {
                core: parse_int(core, "flip core")?,
                word: parse_int(word, "flip word")?,
            },
            bit: parse_int(bit, "flip bit")?,
            cycle,
        }),
        _ => Err(format!(
            "fault spec: flip {s:?} is not dram:WORD:BIT@AT or spm:CORE:WORD:BIT@AT"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> FaultGeometry {
        FaultGeometry {
            cores: 8,
            links: 40,
            llc_banks: 8,
            dram_words: 1 << 20,
            spm_words: 1024,
        }
    }

    #[test]
    fn spec_round_trips() {
        let spec = "seed=7,horizon=200000,links=4x400,banks=2x300+25,dram=1x500+40,\
                    freeze=2x600,flip=dram:64:3@end,flip=spm:2:16:31@1000";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.links, FaultBurst { count: 4, len: 400 });
        assert_eq!(plan.flips.len(), 2);
        assert_eq!(plan.flips[0].cycle, None);
        assert_eq!(plan.flips[1].cycle, Some(1000));
        let again = FaultPlan::parse(&plan.to_spec()).unwrap();
        assert_eq!(plan, again);
    }

    #[test]
    fn json_round_trips() {
        let plan = FaultPlan::parse("seed=3,links=2x100,flip=spm:1:8:5@end").unwrap();
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn empty_spec_is_the_empty_plan() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert!(plan.is_timing_only());
        assert!(plan.materialize(&geom()).is_empty());
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("links=4").is_err());
        assert!(FaultPlan::parse("banks=2x300").is_err());
        assert!(FaultPlan::parse("flip=dram:1:2").is_err());
        assert!(FaultPlan::parse("horizon=0").is_err());
        assert!(FaultPlan::parse("wat=1").is_err());
    }

    #[test]
    fn materialize_is_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::timing(9);
        let a = plan.materialize(&geom());
        let b = plan.materialize(&geom());
        assert_eq!(a, b);
        let other = FaultPlan::timing(10).materialize(&geom());
        assert_ne!(a, other);
    }

    #[test]
    fn materialize_respects_geometry_bounds() {
        let plan = FaultPlan::parse("seed=5,links=16x100,freeze=8x50,flip=dram:9999999999:40@end")
            .unwrap();
        let g = geom();
        let s = plan.materialize(&g);
        assert!(s.link_stalls.iter().all(|w| w.idx < g.links));
        assert!(s.core_freezes.iter().all(|w| w.idx < g.cores));
        for f in &s.flips {
            assert!(f.bit < 32);
            match f.target {
                FlipTarget::Dram { word } => assert!(word < g.dram_words),
                FlipTarget::Spm { core, word } => {
                    assert!(core < g.cores && word < g.spm_words)
                }
            }
        }
    }

    #[test]
    fn out_of_range_values_are_rejected_not_truncated() {
        for spec in [
            "seed=1,horizon=100,links=4294967297x18446744073709551615",
            "links=4294967296x1",
            "banks=1x1+1,dram=4294967296x1+1",
            "flip=dram:0:256@end",
            "flip=spm:4294967296:0:0@end",
            "flip=spm:0:4294967296:0@end",
            "links=1x18446744073709551615",
            "horizon=2,freeze=1x18446744073709551614",
        ] {
            assert!(FaultPlan::parse(spec).is_err(), "{spec}");
        }
        let text = FaultPlan::parse("links=6x1").unwrap().to_json().write();
        let wide = Json::parse(&text.replace(r#""count":6"#, r#""count":4294967296"#)).unwrap();
        assert!(FaultPlan::from_json(&wide).is_err());
    }

    #[test]
    fn boundary_values_still_parse() {
        let plan = FaultPlan::parse(
            "horizon=1,links=4294967295x18446744073709551614,\
             flip=spm:4294967295:4294967295:255@18446744073709551615",
        )
        .unwrap();
        assert_eq!(plan.links.count, u32::MAX);
        assert_eq!(plan.flips[0].bit, 255);
        // A family with no windows has no length to keep.
        assert_eq!(
            FaultPlan::parse("links=0x400,banks=0x1+2").unwrap(),
            FaultPlan::default()
        );
        let flip = FaultPlan::parse("flip=dram:3:255@end").unwrap();
        assert_eq!(flip.materialize(&geom()).flips[0].bit, 31);
    }

    #[test]
    fn timing_only_classification() {
        assert!(FaultPlan::timing(1).is_timing_only());
        let with_flip = FaultPlan::parse("flip=dram:0:0@end").unwrap();
        assert!(!with_flip.is_timing_only());
        assert!(!with_flip.is_empty());
    }
}
