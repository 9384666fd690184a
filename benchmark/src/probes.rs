//! Layer micro-probes: host time of each layer's public calls, timed
//! from this package only. They run after the workload of every traced
//! run, so every per-layer metric is reported whatever the workload.
//!
//! A probe times a few batches of identical calls and reports the
//! median batch, per call. Each probe and each batch is a span in
//! `trace_probes.json`.

use crate::cycle::{find_bench, run_cell, runtime_config};
use crate::metrics::{RunResult, Values};
use crate::serve::{analytic_sweep_spec, cycle_spec, round_trip, Daemon};
use crate::trace::Tracer;
use crate::{stats, Ctx};
use jsonlite::{frame, Json};
use mosaic_mem::{AddrMap, DramConfig, DramModel, Llc, LlcConfig, Scratchpad};
use mosaic_mesh::{Mesh, MeshConfig};
use mosaic_model::{AnalyticModel, CalibrationTable};
use mosaic_serve::{
    Executor, HashRing, JobSpec, Journal, ResultCache, SchedConfig, Scheduler, Submit,
};
use mosaic_sim::{machine_params, AmoOp, CalendarQueue, Engine, FaultPlan, Machine, MachineConfig};
use mosaic_workloads::{table1_benchmarks, Scale};
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// Batches per probe; the median one is reported.
const BATCHES: u64 = 3;

/// The probe context: where spans go and how far `--quick` shrinks the
/// iteration counts.
struct Probes<'a> {
    ctx: &'a Ctx,
    tracer: Tracer,
    values: Values,
}

impl Probes<'_> {
    /// Iterations of a probe that would do `n` in a full run.
    fn iters(&self, n: u64) -> u64 {
        if self.ctx.quick {
            (n / 100).max(1)
        } else {
            n
        }
    }

    /// Seconds the median of `BATCHES` calls of `f(batch)` took. The
    /// probe and each batch are spans.
    fn seconds(&mut self, name: &'static str, mut f: impl FnMut(u64)) -> f64 {
        let probe = self.tracer.begin(name, 0);
        let mut walls = Vec::new();
        for batch in 0..BATCHES {
            let span = self.tracer.begin("batch", batch);
            let start = Instant::now();
            f(batch);
            walls.push(start.elapsed().as_secs_f64());
            self.tracer.end(span);
        }
        self.tracer.end(probe);
        stats::median(&walls)
    }

    /// Nanoseconds per call of `f(i)`, from batches of `iters` calls.
    fn ns_per_call(&mut self, name: &'static str, iters: u64, mut f: impl FnMut(u64)) -> f64 {
        let iters = self.iters(iters);
        let batch = self.seconds(name, |batch| (0..iters).for_each(|i| f(batch * iters + i)));
        batch * 1e9 / iters as f64
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.set(name, value);
    }
}

/// Run every probe; returns the per-layer values they measured. Output
/// checks made along the way (observer hooks must not move a simulated
/// cycle) are counted on `result`.
pub fn run_all(ctx: &Ctx, result: &mut RunResult) -> Values {
    let mut p = Probes {
        ctx,
        tracer: Tracer::new(true),
        values: Values::default(),
    };
    sim_layers(&mut p);
    mesh_and_mem(&mut p);
    observers(&mut p, result);
    host_codecs(&mut p);
    serve_in_process(&mut p);
    serve_processes(&mut p, result);
    let path = ctx.out.join("trace_probes.json");
    std::fs::write(&path, crate::trace::to_chrome_json(p.tracer.spans()))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    p.values
}

/// `sim`: engine handoff, thread spawn, calendar queue, and the timed
/// `Machine` accesses without an engine around them.
fn sim_layers(p: &mut Probes) {
    // N cores x K loads from the core's own scratchpad: nothing but the
    // core<->engine handoff and the cheapest memory model.
    let loads = p.iters(1000);
    let per_run = p.seconds("Engine::run local loads", |_| {
        let machine = Machine::new(MachineConfig::small(8, 4));
        let map = machine.addr_map().clone();
        black_box(Engine::run(machine, |core| {
            let addr = map.spm_addr(core as u32, 0);
            Box::new(move |api| {
                for _ in 0..loads {
                    black_box(api.load(addr));
                }
            })
        }));
    });
    p.set("sim.engine.ns_per_op", per_run * 1e9 / (32 * loads) as f64);

    let spawn = p.seconds("Engine::run empty", |_| {
        for (cols, rows) in [(8, 4), (16, 8)] {
            let machine = Machine::new(MachineConfig::small(cols, rows));
            black_box(Engine::run(machine, |_| Box::new(|_| ())));
        }
    });
    p.set(
        "sim.engine.spawn_us_per_core",
        spawn * 1e6 / (32 + 128) as f64,
    );

    // A stream one lookahead wide, as the engine produces: every pop
    // schedules its successor a few cycles out.
    let machine = Machine::new(MachineConfig::hammerblade_128());
    let lookahead = machine.lookahead();
    let mut queue = CalendarQueue::with_width(lookahead);
    for core in 0..128 {
        queue.push(core as u64 % lookahead, core as u64, core);
    }
    let mut seq = 128u64;
    let ns = p.ns_per_call("CalendarQueue push+pop", 300_000, |_| {
        let (cycle, _, core) = queue.pop().expect("the stream never drains");
        seq += 1;
        queue.push(cycle + 1 + (seq % (2 * lookahead)), seq, core);
    });
    p.set("sim.calendar.ns_per_event", ns);

    let mut m = machine;
    let map = m.addr_map().clone();
    let far = m.core_count() - 1;
    let local = map.spm_addr(0, 64);
    let remote = map.spm_addr(far as u32, 64);
    let capacity = m.config().llc.capacity();
    let line = m.config().llc.line_bytes;
    let region = m.dram_alloc(8 * capacity);
    let ns = p.ns_per_call("Machine::read local SPM", 1_000_000, |i| {
        black_box(m.read(0, local, i * 8, false));
    });
    p.set("sim.machine.spm_local_ns", ns);
    let ns = p.ns_per_call("Machine::read remote SPM", 300_000, |i| {
        black_box(m.read(0, remote, 10_000_000 + i * 64, false));
    });
    p.set("sim.machine.spm_remote_ns", ns);
    let ns = p.ns_per_call("Machine::amo remote SPM", 300_000, |i| {
        black_box(m.amo(0, remote, AmoOp::Add, 1, 40_000_000 + i * 64));
    });
    p.set("sim.machine.amo_ns", ns);
    let ns = p.ns_per_call("Machine::read LLC hit", 300_000, |i| {
        black_box(m.read(0, region, 80_000_000 + i * 64, false));
    });
    p.set("sim.machine.llc_hit_ns", ns);
    // Walk a region eight times the LLC: every line is long evicted
    // when the walk comes round again.
    let lines = 8 * capacity / line;
    let ns = p.ns_per_call("Machine::read DRAM miss", 300_000, |i| {
        let addr = region.offset((i % lines) * line);
        black_box(m.read(0, addr, 200_000_000 + i * 256, false));
    });
    p.set("sim.machine.dram_miss_ns", ns);
}

/// `mesh` and `mem`: the models on their own.
fn mesh_and_mem(p: &mut Probes) {
    let config = MeshConfig::hammerblade_128();
    let (a, b) = (
        config.core_node(0),
        config.core_node(config.core_count() - 1),
    );
    let mut mesh = Mesh::new(config);
    let ns = p.ns_per_call("Mesh::traverse", 1_000_000, |i| {
        black_box(mesh.traverse(a, b, i * 32, 1));
    });
    p.set("mesh.traverse_ns", ns);
    let ns = p.ns_per_call("Mesh::traverse_roundtrip", 1_000_000, |i| {
        black_box(mesh.traverse_roundtrip(a, b, 64_000_000 + i * 64, 1, |c| c + 2));
    });
    p.set("mesh.roundtrip_ns", ns);

    let mut spm = Scratchpad::new(4096);
    let ns = p.ns_per_call("Scratchpad::service", 3_000_000, |i| {
        black_box(spm.service(i * 2));
    });
    p.set("mem.spm_access_ns", ns);

    let llc_config = LlcConfig::default();
    let (capacity, line) = (llc_config.capacity(), llc_config.line_bytes);
    let mut llc = Llc::new(llc_config);
    let mut dram = DramModel::new(DramConfig::default());
    let ns = p.ns_per_call("Llc::access hit", 3_000_000, |i| {
        black_box(llc.access(4096, i * 8, false, &mut dram));
    });
    p.set("mem.llc_hit_ns", ns);
    let lines = 8 * capacity / line;
    let ns = p.ns_per_call("Llc::access miss", 1_000_000, |i| {
        black_box(llc.access((i % lines) * line, 100_000_000 + i * 64, false, &mut dram));
    });
    p.set("mem.llc_miss_ns", ns);
    let ns = p.ns_per_call("DramModel::access", 3_000_000, |i| {
        black_box(dram.access((i * 4160) % (1 << 28), 400_000_000 + i * 32, i % 4 == 0));
    });
    p.set("mem.dram_access_ns", ns);

    let map = AddrMap::new(128, 4096);
    let addrs = [
        map.spm_addr(5, 128),
        map.dram_addr(1 << 20),
        map.spm_addr(127, 0),
    ];
    let ns = p.ns_per_call("AddrMap::decode", 10_000_000, |i| {
        black_box(map.decode(black_box(addrs[(i % 3) as usize])));
    });
    p.set("mem.addr_decode_ns", ns);
}

/// `prof`, `san`, `chaos`, checkpoints: host cost of each observer
/// hook, one at a time, as wall(on) / wall(off) over three tiny cells
/// — and the check that the zero-simulated-cost ones move no cycle.
fn observers(p: &mut Probes, result: &mut RunResult) {
    let names: &[&str] = if p.ctx.quick {
        &["CilkSort-256"]
    } else {
        &["CilkSort-256", "UTS-t3", "SpMV-c-58"]
    };
    let benches: Vec<_> = names.iter().map(|n| find_bench(Scale::Tiny, n)).collect();
    let runtime = || runtime_config("ws/spm-stack/spm-q");
    let checkpoints = p.ctx.work.fresh("probe-checkpoints");
    let sweep = |p: &mut Probes, name: &'static str, machine: &MachineConfig| {
        let probe = p.tracer.begin(name, 0);
        let mut wall = 0.0;
        let mut cells = Vec::new();
        for (i, bench) in benches.iter().enumerate() {
            let (counts, verified, w) = run_cell(
                bench.as_ref(),
                machine.clone(),
                runtime(),
                &mut p.tracer,
                i as u64,
            );
            wall += w;
            cells.push((counts, verified));
        }
        p.tracer.end(probe);
        (wall, cells)
    };

    let plain = MachineConfig::small(8, 4);
    // Once untimed, so the first timed sweep does not pay for paging.
    sweep(p, "observers warm-up", &plain);
    let (off, base) = sweep(p, "observers off", &plain);
    type Enable = fn(&mut MachineConfig);
    let variants: [(&'static str, &'static str, Enable); 4] = [
        ("prof.overhead_ratio", "profile on", |m| m.profile = true),
        ("san.overhead_ratio", "sanitize on", |m| m.sanitize = true),
        ("chaos.overhead_ratio", "faults on", |m| {
            m.faults =
                Some(FaultPlan::parse("seed=7,horizon=20000,links=2x40").expect("valid plan"))
        }),
        ("sim.checkpoint.overhead_ratio", "checkpoints on", |m| {
            m.checkpoint_every = 10_000
        }),
    ];
    for (metric, span, enable) in variants {
        let mut machine = plain.clone();
        machine.checkpoint_dir = Some(checkpoints.clone());
        enable(&mut machine);
        let (on, cells) = sweep(p, span, &machine);
        p.set(metric, on / off);
        for ((name, cell), plain_cell) in names.iter().zip(&cells).zip(&base) {
            // A timing fault plan may move cycles but never results;
            // the other hooks must not move a single cycle.
            let ok = cell.1 && (metric == "chaos.overhead_ratio" || cell.0 == plain_cell.0);
            result.check(ok, || {
                format!("{name} with {span}: {cell:?}, plain {plain_cell:?}")
            });
        }
    }

    let machine = Machine::new(MachineConfig::hammerblade_128());
    let s = p.seconds("Machine::checkpoint", |_| {
        black_box(machine.checkpoint(0, 0));
    });
    p.set("sim.checkpoint.ms_per_image", s * 1e3);

    let ns = p.ns_per_call("table1_benchmarks", 1000, |_| {
        black_box(table1_benchmarks(Scale::Small));
    });
    p.set("workloads.build_ms", ns / 1e6);
}

/// `model` and `jsonlite`: the analytic estimate and the hand-rolled
/// codecs, on the repository's own committed artifacts.
fn host_codecs(p: &mut Probes) {
    let read = |rel: &str| {
        let path = p.ctx.root.join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    };
    let table = CalibrationTable::parse(&read("results/model/calibration.json"))
        .expect("the committed calibration table parses");
    let model = AnalyticModel::new(machine_params(&MachineConfig::small(8, 4)));
    let families: Vec<_> = table
        .families
        .iter()
        .filter(|f| f.scale == "tiny")
        .collect();
    assert!(
        !families.is_empty(),
        "no tiny families in the calibration table"
    );
    let ns = p.ns_per_call("AnalyticModel::estimate", 200, |_| {
        for f in &families {
            black_box(model.estimate(&f.demand));
        }
    });
    p.set(
        "model.estimate_us_per_cell",
        ns / 1e3 / families.len() as f64,
    );

    let text = read("results/golden/table1_tiny_8x4.json");
    let mb = text.len() as f64 / 1e6;
    let ns = p.ns_per_call("Json::parse", 100, |_| {
        black_box(Json::parse(&text).expect("the committed golden parses"));
    });
    p.set("jsonlite.parse_mb_s", mb / (ns * 1e-9));
    let doc = Json::parse(&text).expect("the committed golden parses");
    let written = doc.write().len() as f64 / 1e6;
    let ns = p.ns_per_call("Json::write", 100, |_| {
        black_box(doc.write());
    });
    p.set("jsonlite.write_mb_s", written / (ns * 1e-9));

    let record = JobSpec::new("table1", "tiny").to_json().write();
    let ns = p.ns_per_call("frame encode+decode", 30_000, |_| {
        let framed = frame::encode_record(black_box(record.as_bytes()));
        black_box(frame::decode_records(&framed));
    });
    p.set("jsonlite.frame_roundtrip_ns", ns);
}

/// An executor for scheduler probes that never runs: every probe
/// submission is a cache hit.
struct NeverRuns;

impl Executor for NeverRuns {
    fn run(
        &self,
        spec: &JobSpec,
        _: &dyn Fn(u64, u64, &str),
        _: &AtomicBool,
    ) -> Result<String, String> {
        Err(format!("probe executor asked to run {}", spec.experiment))
    }
}

/// `serve` layers that need no process: digest, cache tiers, scheduler
/// hit path, journal append+fsync and replay, hash ring.
fn serve_in_process(p: &mut Probes) {
    let spec = cycle_spec("trace_run", 1);
    let payload = "{\"cells\": []}".repeat(20);
    let ns = p.ns_per_call("JobSpec::digest", 30_000, |_| {
        black_box(black_box(&spec).digest());
    });
    p.set("serve.job.digest_ns", ns);

    let dir = p.ctx.work.fresh("probe-cache");
    let entries = p.iters(200);
    let digests: Vec<String> = (0..BATCHES * entries)
        .map(|i| cycle_spec("trace_run", i).digest())
        .collect();
    let cache = ResultCache::new(Some(dir.clone())).expect("open probe cache");
    let ns = p.ns_per_call("ResultCache::insert", 200, |i| {
        cache.insert(&digests[i as usize], &spec, &payload);
    });
    p.set("serve.cache.insert_us", ns / 1e3);
    let ns = p.ns_per_call("ResultCache::lookup memory", 1_000_000, |i| {
        black_box(cache.lookup(&digests[(i % entries) as usize]));
    });
    p.set("serve.cache.mem_hit_ns", ns);
    // A fresh cache over the same directory: every first lookup reads
    // and parses its entry from disk.
    let restarted = ResultCache::new(Some(dir)).expect("reopen probe cache");
    let ns = p.ns_per_call("ResultCache::lookup disk", 200, |i| {
        black_box(
            restarted
                .lookup(&digests[i as usize])
                .expect("entry is on disk"),
        );
    });
    p.set("serve.cache.disk_hit_us", ns / 1e3);

    let warm = ResultCache::new(None).expect("memory-only cache");
    warm.insert(&spec.digest(), &spec, &payload);
    let sched = Scheduler::start(SchedConfig::default(), warm, Arc::new(NeverRuns));
    let ns = p.ns_per_call("Scheduler::submit hit", 30_000, |_| {
        assert!(matches!(sched.submit(spec.clone()), Submit::Cached(_)));
    });
    p.set("serve.scheduler.submit_hit_us", ns / 1e3);
    sched.begin_drain();
    sched.wait_drained();
    sched.join_workers();

    let dir = p.ctx.work.fresh("probe-journal");
    let admits = p.iters(200) as usize;
    let (journal, _) = Journal::open(&dir).expect("open probe journal");
    let probe = p.tracer.begin("Journal::record_admitted", 0);
    let mut fsyncs: Vec<f64> = (0..admits)
        .map(|i| {
            let start = Instant::now();
            journal.record_admitted(&digests[i % digests.len()], &spec);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    p.tracer.end(probe);
    stats::sort(&mut fsyncs);
    p.set(
        "serve.journal.admit_fsync_us_p50",
        stats::percentile(&fsyncs, 50.0),
    );
    p.set(
        "serve.journal.admit_fsync_us_p99",
        stats::percentile(&fsyncs, 99.0),
    );
    drop(journal);

    // One fsync'd admission and 999 unsynced progress records, then
    // reopened once: only the first reopen replays them all (it
    // compacts the log down to the pending admission).
    let dir = p.ctx.work.fresh("probe-journal-replay");
    let (journal, _) = Journal::open(&dir).expect("open replay journal");
    journal.record_admitted(&digests[0], &spec);
    for i in 1..1000 {
        journal.record_progress(&digests[0], i, 1000);
    }
    drop(journal);
    let probe = p.tracer.begin("Journal::open 1000 records", 0);
    let start = Instant::now();
    let (_, replayed) = Journal::open(&dir).expect("replay journal");
    let replay_ms = start.elapsed().as_secs_f64() * 1e3;
    p.tracer.end(probe);
    assert_eq!(replayed.records, 1000, "replay saw every record");
    p.set("serve.journal.replay_ms_per_1k", replay_ms);

    let nodes: Vec<String> = (1..=4).map(|i| format!("127.0.0.1:92{i:02}")).collect();
    let ring = HashRing::new(&nodes, 64).expect("four distinct nodes");
    let ns = p.ns_per_call("HashRing::route", 300_000, |i| {
        black_box(ring.route(&digests[(i % entries) as usize]));
    });
    p.set("fleet.ring.route_ns", ns);
}

/// Run `trace_run` directly, the way the executor would, and return
/// the seconds it took.
fn direct_trace_run(ctx: &Ctx, dir: &Path, faults: &str) -> f64 {
    let start = Instant::now();
    let status = Command::new(ctx.bin_dir.join("trace_run"))
        .args(["--scale", "tiny", "--jobs", "1", "--faults", faults])
        .arg("--write-golden")
        .arg("--golden-dir")
        .arg(dir)
        .current_dir(ctx.work.path())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap_or_else(|e| panic!("run trace_run from {}: {e}", ctx.bin_dir.display()));
    assert!(status.success(), "trace_run exited with {status}");
    start.elapsed().as_secs_f64()
}

/// Median seconds of `n` cached round trips of `spec` on `client`.
fn hit_seconds(p: &mut Probes, client: &mut mosaic_serve::Client, spec: &JobSpec, n: u64) -> f64 {
    let walls: Vec<f64> = (0..p.iters(n).max(3))
        .map(|i| {
            let start = Instant::now();
            let hit = round_trip(client, spec, &mut p.tracer, i);
            assert!(matches!(hit, Ok((true, _))), "probe hit: {hit:?}");
            start.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&walls)
}

/// `serve` and `fleet` layers that need real processes: a worker
/// daemon, the harness child it spawns, and a gateway in front.
fn serve_processes(p: &mut Probes, result: &mut RunResult) {
    let ctx = p.ctx;
    let cache = ctx.work.fresh("probe-daemon-cache");
    let journal = ctx.work.fresh("probe-daemon-journal");
    let probe = p.tracer.begin("probe daemon", 0);
    let daemon = Daemon::serve(ctx, &cache, &journal);
    let mut client = daemon.connect();

    // First request after boot (bimodal on the reference box: the
    // accept thread may still be parked). Reported, never gated.
    let start = Instant::now();
    let first = client.status("0000000000000000");
    p.set(
        "serve.server.first_request_ms",
        start.elapsed().as_secs_f64() * 1e3,
    );
    assert!(first.is_err(), "an unknown id has no status");

    // Executor overhead: a trace_run miss through the daemon minus the
    // same harness run directly.
    let misses = if ctx.quick { 1 } else { 3 };
    let scratch = ctx.work.fresh("probe-direct");
    let mut direct = Vec::new();
    let mut via_daemon = Vec::new();
    let mut hot_spec = None;
    for i in 0..misses {
        let spec = cycle_spec("trace_run", 7_000_000 + i);
        direct.push(direct_trace_run(ctx, &scratch, &spec.faults));
        let start = Instant::now();
        let miss = round_trip(&mut client, &spec, &mut p.tracer, i);
        via_daemon.push(start.elapsed().as_secs_f64());
        result.check(matches!(miss, Ok((false, _))), || {
            format!("probe miss: {miss:?}")
        });
        hot_spec = Some(spec);
    }
    let hot_spec = hot_spec.expect("at least one probe miss ran");
    let direct_ms = stats::median(&direct) * 1e3;
    p.set("bench.child.trace_run_ms", direct_ms);
    p.set(
        "bench.executor.overhead_ms",
        stats::median(&via_daemon) * 1e3 - direct_ms,
    );

    let id = hot_spec.digest();
    let ns = p.ns_per_call("status round trip", 300, |_| {
        black_box(client.status(&id).expect("status of a finished job"));
    });
    p.set("serve.protocol.rtt_us", ns / 1e3);
    let ns = p.ns_per_call("metrics verb", 100, |_| {
        black_box(client.metrics().expect("metrics verb"));
    });
    p.set("serve.metrics_verb_us", ns / 1e3);

    // The gateway in front of the same daemon: one forwarded hit minus
    // one direct hit, and the analytic sweep fanned out per workload
    // minus the same sweep submitted whole.
    let gateway = Daemon::gateway(ctx, &daemon.addr);
    let mut via_gateway = gateway.connect();
    let warm = round_trip(&mut via_gateway, &hot_spec, &mut p.tracer, 0);
    result.check(warm.is_ok(), || {
        format!("hit through the gateway: {warm:?}")
    });
    let direct_hit = hit_seconds(p, &mut client, &hot_spec, 300);
    let forwarded = hit_seconds(p, &mut via_gateway, &hot_spec, 300);
    p.set("fleet.gateway.forward_us", (forwarded - direct_hit) * 1e6);

    let sweep = analytic_sweep_spec();
    let start = Instant::now();
    let whole = round_trip(&mut client, &sweep, &mut p.tracer, 0);
    let whole_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let fanned = round_trip(&mut via_gateway, &sweep, &mut p.tracer, 1);
    let fanned_s = start.elapsed().as_secs_f64();
    result.check(whole.is_ok() && fanned.is_ok(), || {
        format!("analytic sweep: direct {whole:?}, via gateway {fanned:?}")
    });
    p.set(
        "fleet.gateway.sweep_overhead_ms",
        (fanned_s - whole_s) * 1e3,
    );

    drop(via_gateway);
    drop(client);
    gateway.shutdown();
    daemon.shutdown();
    p.tracer.end(probe);
}
