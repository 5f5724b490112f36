//! The repository's benchmark: time to verdict of the model checker,
//! and latency and throughput of the threaded lock runtime.
//!
//! ```text
//! perfbench --workload <verify-ring|verify-ooc|lock-contended>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`), the run repeats one unit of the workload in
//! fresh child processes until `--seconds` have passed — a verification
//! on `verify-*`, a 2-second contended window on `lock-contended` — and
//! prints the end-to-end metrics as medians over the units.  Traced
//! (`--trace 1`), it runs in one process, alternating untraced and
//! traced units, then probes each layer, prints the per-layer metrics
//! and writes the spans to `out/trace-<workload>-<seed>.json` next to
//! this package's manifest.  The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.  See
//! README.md for the metric → layer → workload map.

mod lockrun;
mod probes;
mod stats;
mod trace;
mod verify;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use amx_registers::Adversary;

use stats::{median, nearest_rank};
use trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    VerifyRing,
    VerifyOoc,
    LockContended,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::VerifyRing,
        Workload::VerifyOoc,
        Workload::LockContended,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::VerifyRing => "verify-ring",
            Workload::VerifyOoc => "verify-ooc",
            Workload::LockContended => "lock-contended",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    fn verify_kind(self) -> Option<verify::Kind> {
        match self {
            Workload::VerifyRing => Some(verify::Kind::Ring),
            Workload::VerifyOoc => Some(verify::Kind::Ooc),
            Workload::LockContended => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// Units every run measures at least, however long they take.
const MIN_UNITS: usize = 3;
/// Set-ups per unit; their median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Length of one `lock-contended` unit.
const LOCK_WINDOW: Duration = Duration::from_secs(2);
/// Length of the lock probe in traced `verify-*` runs.
const LOCK_PROBE_WINDOW: Duration = Duration::from_millis(500);
/// Acquisitions of the uncontended ops-per-acquisition count.
const SOLO_ROUNDS: u64 = 10_000;

/// Directory for everything a run writes: spill files, checkpoints,
/// trace files.  Lives next to this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--unit") {
        return unit_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed {} seconds {} trace {} | nproc {} | cpu {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        cpu_model(),
    );
    let result = if args.trace {
        traced_run(args)
    } else {
        untraced_run(args)
    };
    match result {
        Ok(r) => {
            println!("{}", r.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The result line.
#[derive(Debug, Default)]
struct RunResult {
    attempted: u64,
    failed: u64,
    /// name → (value, unit), printed in name order.
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
}

impl RunResult {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, (v, u))| {
                let v = if v.is_finite() { *v } else { -1.0 };
                format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

// ---------------------------------------------------------------------
// Untraced run: units in fresh child processes.

/// What one child process reports: `key=value` pairs.
type Unit = BTreeMap<String, f64>;

fn untraced_run(args: Args) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut units: Vec<Unit> = Vec::new();
    while units.len() < MIN_UNITS || Instant::now() < deadline {
        let index = units.len() as u64;
        let out = Command::new(&exe)
            .args(["--unit", args.workload.name()])
            .arg(args.seed.to_string())
            .arg(index.to_string())
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn unit: {e}"))?;
        if !out.status.success() {
            return Err(format!("unit {index} exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text.lines().last().ok_or("unit printed nothing")?;
        let unit: Unit = line
            .split_whitespace()
            .map(|kv| {
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("bad unit field {kv}"))?;
                let v = v.parse().map_err(|_| format!("bad unit value {kv}"))?;
                Ok((k.to_string(), v))
            })
            .collect::<Result<_, String>>()?;
        units.push(unit);
    }
    let col = |k: &str| -> Vec<f64> { units.iter().map(|u| u[k]).collect() };
    let mut r = RunResult {
        attempted: col("attempted").iter().sum::<f64>() as u64,
        failed: col("failed").iter().sum::<f64>() as u64,
        ..RunResult::default()
    };
    let setup: Vec<f64> = units
        .iter()
        .flat_map(|u| (0..SETUP_REPS).map(move |i| u[&format!("setup{i}")]))
        .collect();
    r.metric("setup_s", median(&setup), "s");
    r.metric("peak_rss_mb", median(&col("peak_rss_mb")), "MB");
    r.metric("ops_per_s", median(&col("ops_per_s")), "1/s");
    r.metric("cpu_us_per_op", median(&col("cpu_us_per_op")), "us");
    let samples = if args.workload.verify_kind().is_some() {
        let times = col("op_us");
        r.metric("op_p50_us", median(&times), "us");
        r.metric("op_p99_us", nearest_rank(&times, 0.99), "us");
        times.len() as f64
    } else {
        r.metric("op_p50_us", median(&col("p50_us")), "us");
        r.metric("op_p99_us", median(&col("p99_us")), "us");
        col("attempted").iter().sum()
    };
    println!(
        "units {} | latency samples {samples} | setups {} | error_rate {}",
        units.len(),
        setup.len(),
        r.failed as f64 / r.attempted.max(1) as f64
    );
    Ok(r)
}

/// Child process: `--unit <workload> <seed> <index>`.  Prints one line
/// of `key=value` pairs.
fn unit_main(argv: &[String]) -> ExitCode {
    let (Some(w), Some(seed), Some(index)) = (
        argv.first().and_then(|s| Workload::parse(s)),
        argv.get(1).and_then(|s| s.parse::<u64>().ok()),
        argv.get(2).and_then(|s| s.parse::<u64>().ok()),
    ) else {
        eprintln!("perfbench: --unit <workload> <seed> <index>");
        return ExitCode::from(2);
    };
    let fields = match w.verify_kind() {
        Some(kind) => verify_unit(kind, seed),
        None => lock_unit(seed, index),
    };
    match fields {
        Ok(fields) => {
            let mut line = String::new();
            for (k, v) in fields {
                let _ = write!(line, "{k}={v} ");
            }
            println!("{}", line.trim_end());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench unit: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A per-process scratch directory under [`out_dir`], removed first.
fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = out_dir().join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn verify_unit(kind: verify::Kind, seed: u64) -> Result<Vec<(String, f64)>, String> {
    let perms = verify::permutations(kind, seed);
    let scratch = scratch_dir("unit")?;
    let mut fields = Vec::new();
    let mut built = None;
    for i in 0..SETUP_REPS {
        let t = Instant::now();
        built = Some(std::hint::black_box(verify::build(kind, &perms, &scratch)));
        fields.push((format!("setup{i}"), t.elapsed().as_secs_f64()));
    }
    let checker = built.expect("SETUP_REPS > 0").checker;
    let cpu0 = stats::cpu_time();
    let t = Instant::now();
    let res = checker.run();
    let wall = t.elapsed();
    let cpu = stats::cpu_time() - cpu0;
    let wrong = verify::mismatches(kind, &res);
    for m in &wrong {
        eprintln!("perfbench: {kind:?} output mismatch: {m}");
    }
    let rss = stats::peak_rss_mib().map_err(|e| format!("VmHWM: {e}"))?;
    let _ = std::fs::remove_dir_all(&scratch);
    fields.extend([
        ("attempted".to_string(), 1.0),
        ("failed".to_string(), f64::from(u8::from(!wrong.is_empty()))),
        ("op_us".to_string(), wall.as_secs_f64() * 1e6),
        ("ops_per_s".to_string(), 1.0 / wall.as_secs_f64()),
        ("cpu_us_per_op".to_string(), cpu.as_secs_f64() * 1e6),
        ("peak_rss_mb".to_string(), rss),
    ]);
    Ok(fields)
}

/// Seed of the `index`-th lock window of a run: the windows of one run
/// differ, and the same (seed, index) gives the same window.
fn window_seed(seed: u64, index: u64) -> u64 {
    seed ^ index.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn lock_unit(seed: u64, index: u64) -> Result<Vec<(String, f64)>, String> {
    let adversary = Adversary::Random(seed);
    let mut fields = Vec::new();
    let mut built = None;
    for i in 0..SETUP_REPS {
        let t = Instant::now();
        built = Some(std::hint::black_box(lockrun::setup(
            lockrun::N,
            lockrun::M,
            &adversary,
        )));
        fields.push((format!("setup{i}"), t.elapsed().as_secs_f64()));
    }
    let participants = built.expect("SETUP_REPS > 0");
    let cpu0 = stats::cpu_time();
    let w = lockrun::run_window(
        participants,
        LOCK_WINDOW,
        window_seed(seed, index),
        lockrun::NCS_MEAN_ITERS,
        false,
    );
    let cpu = stats::cpu_time() - cpu0;
    if w.failures > 0 {
        eprintln!("perfbench: lock-contended: {} failed entries", w.failures);
    }
    let rss = stats::peak_rss_mib().map_err(|e| format!("VmHWM: {e}"))?;
    let q = |p: f64| w.lock_ns.quantile_ns(p).unwrap_or(f64::NAN) / 1e3;
    fields.extend([
        ("attempted".to_string(), w.acquisitions as f64),
        ("failed".to_string(), w.failures as f64),
        ("p50_us".to_string(), q(0.50)),
        ("p99_us".to_string(), q(0.99)),
        (
            "ops_per_s".to_string(),
            w.acquisitions as f64 / w.wall.as_secs_f64(),
        ),
        (
            "cpu_us_per_op".to_string(),
            cpu.as_secs_f64() * 1e6 / w.acquisitions.max(1) as f64,
        ),
        ("peak_rss_mb".to_string(), rss),
    ]);
    Ok(fields)
}

// ---------------------------------------------------------------------
// Traced run: one process, spans around each layer's public calls.

fn traced_run(args: Args) -> Result<RunResult, String> {
    let mut t = Tracer::new();
    let scratch = scratch_dir("traced")?;
    let mut r = RunResult::default();
    let (res, _) = t.span("run", |t| match args.workload.verify_kind() {
        Some(kind) => traced_verify(t, &mut r, kind, args, &scratch),
        None => traced_lock(t, &mut r, args, &scratch),
    });
    let _ = std::fs::remove_dir_all(&scratch);
    let path = out_dir().join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    t.write_json(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    res?;
    println!(
        "spans written to {} | error_rate {}",
        path.display(),
        r.failed as f64 / r.attempted.max(1) as f64
    );
    Ok(r)
}

/// Counts one checked operation.
fn check(r: &mut RunResult, ok: bool, what: &str) {
    r.attempted += 1;
    if !ok {
        r.failed += 1;
        eprintln!("perfbench: check failed: {what}");
    }
}

/// The per-layer metrics a checker report carries.
fn report_metrics(r: &mut RunResult, rep: &amx_sim::McReport, ckpt_bytes: u64) {
    let explore = rep
        .wall_time
        .saturating_sub(rep.scc_wall_time)
        .as_secs_f64();
    let states = rep.canonical_states.max(1) as f64;
    r.metric("mc.explore_s", explore, "s");
    r.metric(
        "mc.explore_states_per_s",
        rep.canonical_states as f64 / explore,
        "1/s",
    );
    r.metric("mc.livelock_s", rep.scc_wall_time.as_secs_f64(), "s");
    r.metric("mc.steals", rep.steal_count as f64, "count");
    r.metric("mc.canonical_states", rep.canonical_states as f64, "count");
    r.metric("mc.full_states", rep.full_states_estimate as f64, "count");
    r.metric("mc.transitions", rep.transitions as f64, "count");
    r.metric("mc.peak_frontier", rep.peak_frontier as f64, "count");
    r.metric(
        "mc.new_state_ratio",
        rep.canonical_states as f64 / rep.transitions.max(1) as f64,
        "ratio",
    );
    r.metric(
        "arena.bytes_per_state",
        rep.arena_bytes as f64 / states,
        "B",
    );
    r.metric("arena.seen_table_bytes", rep.seen_table_bytes as f64, "B");
    r.metric("arena.resident_bytes", rep.arena_resident_bytes as f64, "B");
    r.metric("arena.spilled_bytes", rep.arena_spilled_bytes as f64, "B");
    r.metric("arena.spill_faults", rep.spill_faults as f64, "count");
    r.metric("arena.spill_evictions", rep.spill_evictions as f64, "count");
    r.metric(
        "arena.faults_per_state",
        rep.spill_faults as f64 / states,
        "ratio",
    );
    r.metric("ckpt.written", f64::from(rep.checkpoints_written), "count");
    r.metric("ckpt.bytes", ckpt_bytes as f64, "B");
    r.metric(
        "props.monitor_hits",
        rep.monitors.first().map_or(0, |m| m.hit_states) as f64,
        "count",
    );
    // −1 no query answered, 0 absent, 1 somewhere, 2 everywhere.
    let outcome = rep.scc_queries.first().map_or(-1.0, |q| {
        if q.holds_everywhere {
            2.0
        } else if q.holds_somewhere {
            1.0
        } else {
            0.0
        }
    });
    r.metric("props.query_outcome", outcome, "code");
}

/// Untraced and traced units alternate until `seconds` pass;
/// `unit(t, traced)` runs one and returns its cost (lower is better).
/// Returns the traced-minus-untraced median cost in percent of the
/// untraced one.
fn alternate_units(
    t: &mut Tracer,
    seconds: u64,
    mut unit: impl FnMut(&mut Tracer, bool) -> f64,
) -> f64 {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.is_empty() || traced.is_empty() || Instant::now() < deadline {
        if plain.len() <= traced.len() {
            plain.push(unit(t, false));
        } else {
            traced.push(unit(t, true));
        }
    }
    (median(&traced) / median(&plain) - 1.0) * 100.0
}

fn traced_verify(
    t: &mut Tracer,
    r: &mut RunResult,
    kind: verify::Kind,
    args: Args,
    scratch: &std::path::Path,
) -> Result<(), String> {
    let perms = verify::permutations(kind, args.seed);
    let mut last = None;
    let mut props_s = Vec::new();
    let overhead = alternate_units(t, args.seconds, |t, traced| {
        let _ = std::fs::remove_dir_all(verify::checkpoint_dir(scratch));
        let cost;
        let res;
        if traced {
            let (built, _) = t.span("setup", |_| verify::build(kind, &perms, scratch));
            t.count("props.setup_ns", built.props_time.as_nanos() as f64);
            props_s.push(built.props_time.as_secs_f64());
            let (out, d) = t.span("mc.run", |_| built.checker.run());
            res = out;
            cost = d.as_secs_f64();
            let ckpt = verify::dir_bytes(&verify::checkpoint_dir(scratch));
            if let Ok(rep) = &res {
                last = Some((rep.clone(), ckpt));
            }
        } else {
            let built = verify::build(kind, &perms, scratch);
            let start = Instant::now();
            res = built.checker.run();
            cost = start.elapsed().as_secs_f64();
        }
        let wrong = verify::mismatches(kind, &res);
        check(r, wrong.is_empty(), &wrong.join("; "));
        cost
    });
    r.metric("trace.overhead_pct", overhead, "%");
    let (rep, ckpt) = last.ok_or("no traced verification succeeded")?;
    report_metrics(r, &rep, ckpt);
    r.metric("props.setup_s", median(&props_s), "s");
    layer_probes(t, r, &perms, verify::M, args.seed, scratch)?;
    // The runtime running the configuration just verified: two of its
    // participants, one thread each.
    let adversary = Adversary::Explicit(perms.clone());
    let mut ps = lockrun::setup(verify::N, verify::M, &adversary);
    ps.truncate(lockrun::THREADS);
    let w = traced_window(t, "lock.window", ps, LOCK_PROBE_WINDOW, args.seed, true);
    r.attempted += w.acquisitions;
    r.failed += w.failures;
    lock_metrics(t, r, &w);
    let solo = lockrun::setup(verify::N, verify::M, &adversary).swap_remove(0);
    r.metric(
        "lock.solo_ops_per_acq",
        lockrun::solo_ops_per_acq(solo, SOLO_ROUNDS),
        "op/acq",
    );
    Ok(())
}

/// Arena replay and SCC decomposition on the workload's configuration.
fn layer_probes(
    t: &mut Tracer,
    r: &mut RunResult,
    perms: &[amx_registers::Permutation],
    m: usize,
    seed: u64,
    scratch: &std::path::Path,
) -> Result<(), String> {
    let (keys, _) = t.span("probe.bfs", |_| probes::bfs_encodings(perms, m, seed));
    let (arena, _) = t.span("probe.arena", |_| {
        probes::arena_replay(&keys, seed, scratch)
    });
    let arena = arena.map_err(|e| format!("arena replay: {e}"))?;
    check(
        r,
        arena.mismatches == 0,
        "arena replay read back other bytes",
    );
    t.count("arena.replayed_states", arena.states as f64);
    r.metric("arena.intern_ns", arena.intern_ns, "ns");
    r.metric("arena.lookup_ns", arena.lookup_ns, "ns");
    r.metric("arena.get_ns", arena.get_ns, "ns");
    r.metric("arena.get_spilled_ns", arena.get_spilled_ns, "ns");
    // The naive explorer's graph of two processes is the small
    // configuration of the same algorithm.
    let (scc, _) = t.span("probe.scc", |_| probes::scc_probe(&perms[..2], m));
    check(r, scc.agree, "tarjan and fw-bw found different components");
    t.count("scc.nodes", scc.nodes as f64);
    r.metric("scc.tarjan_s", scc.tarjan_s, "s");
    r.metric("scc.fwbw_s", scc.fwbw_s, "s");
    Ok(())
}

/// One lock window inside a span, with a child span per thread.
fn traced_window(
    t: &mut Tracer,
    name: &str,
    participants: Vec<amx_core::Participant>,
    window: Duration,
    seed: u64,
    traced: bool,
) -> lockrun::Window {
    t.span(name, |t| {
        let w = lockrun::run_window(participants, window, seed, lockrun::NCS_MEAN_ITERS, traced);
        for &(a, b) in &w.thread_spans {
            t.add_span("lock.thread", a, b);
        }
        w
    })
    .0
}

/// The `lock.*` metrics of a traced window.
fn lock_metrics(t: &mut Tracer, r: &mut RunResult, w: &lockrun::Window) {
    let acq = w.acquisitions.max(1) as f64;
    t.count("lock.acquisitions", w.acquisitions as f64);
    r.metric(
        "lock.unlock_ns_p50",
        w.unlock_ns.quantile_ns(0.5).unwrap_or(f64::NAN),
        "ns",
    );
    r.metric("lock.reads_per_acq", w.ops.reads as f64 / acq, "op/acq");
    r.metric("lock.writes_per_acq", w.ops.writes as f64 / acq, "op/acq");
    r.metric(
        "lock.snapshots_per_acq",
        w.ops.snapshots as f64 / acq,
        "op/acq",
    );
    r.metric(
        "lock.collect_rounds_per_acq",
        w.ops.collect_rounds as f64 / acq,
        "op/acq",
    );
    r.metric(
        "lock.max_pending_depth",
        w.max_pending_depth as f64,
        "count",
    );
    let busiest = w.per_thread.iter().copied().max().unwrap_or(0);
    r.metric("lock.acq_share_max", busiest as f64 / acq, "ratio");
}

fn traced_lock(
    t: &mut Tracer,
    r: &mut RunResult,
    args: Args,
    scratch: &std::path::Path,
) -> Result<(), String> {
    let adversary = Adversary::Random(args.seed);
    let mut last = None;
    let mut index = 0u64;
    let overhead = alternate_units(t, args.seconds, |t, traced| {
        let ps = lockrun::setup(lockrun::N, lockrun::M, &adversary);
        let seed = window_seed(args.seed, index);
        index += 1;
        let name = if traced {
            "lock.window"
        } else {
            "lock.window.untraced"
        };
        let w = traced_window(t, name, ps, LOCK_WINDOW, seed, traced);
        let rate = w.acquisitions as f64 / w.wall.as_secs_f64();
        r.attempted += w.acquisitions;
        r.failed += w.failures;
        if traced {
            last = Some(w);
        }
        // Cost is time per acquisition.
        1.0 / rate
    });
    r.metric("trace.overhead_pct", overhead, "%");
    let w = last.ok_or("no traced window ran")?;
    lock_metrics(t, r, &w);
    let solo = lockrun::setup(lockrun::N, lockrun::M, &adversary).swap_remove(0);
    r.metric(
        "lock.solo_ops_per_acq",
        lockrun::solo_ops_per_acq(solo, SOLO_ROUNDS),
        "op/acq",
    );

    // The checker's view of the same lock: Algorithm 1 at (2, 3) under
    // the same adversary.
    let perms = adversary
        .permutations(lockrun::N, lockrun::M)
        .map_err(|e| format!("adversary: {e}"))?;
    let (built, _) = t.span("setup", |_| {
        verify::checker(lockrun::N, lockrun::M, &perms, false)
    });
    r.metric("props.setup_s", built.props_time.as_secs_f64(), "s");
    let checker = built.checker;
    let (res, _) = t.span("mc.run", |_| checker.run());
    let rep = res.map_err(|e| format!("verify lock configuration: {e}"))?;
    check(
        r,
        rep.verdict == amx_sim::Verdict::Ok,
        "lock configuration is not deadlock-free",
    );
    report_metrics(r, &rep, 0);
    layer_probes(t, r, &perms, lockrun::M, args.seed, scratch)
}
