//! The Calibro reproduction's benchmark. See `README.md` beside this
//! package for the workload and metric catalogue, the calibration
//! method and the known limits.
//!
//! `--workload NAME` runs one workload in this process and prints one
//! JSON result line; without it, every workload runs in a child process
//! of its own, untraced and then traced, and every metric is printed by
//! name with its unit.

mod alloc;
mod calib;
mod direct;
mod inputs;
mod json;
mod probes;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use calib::Calibrator;
use inputs::{ReferenceKind, DEFAULT_SEED};
use json::Json;
use stats::{median, quantile, weighted_median, Class};
use trace::Tracer;
use workload::{stage_cal_ms, Verdict, Workload, STAGES};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The workloads, with why each was chosen (the same text as
/// `BENCHMARK.json`).
const WORKLOADS: [(&str, &str); 4] = [
    (
        "cold_sizefirst",
        "fresh session per build, merge + global-tree outlining on one thread: hgraph, codegen and the suffix tree do the work, the cache only misses and inserts",
    ),
    (
        "cold_deploy",
        "same apps in the shipping configuration: eight sharded trees, two compile threads (time-sliced on the pinned CPU), hot/cold split from a profile - shows a gain for one tree shape that costs the other",
    ),
    (
        "warm_edit",
        "long-lived session of three 1325-method apps, 1% of one app edited per rebuild: ~99% cache hits, so key hashing, store probes, plan replay and link dominate and codegen is ~1% of its cold work",
    ),
    (
        "serve_mixed",
        "one connection to an in-process daemon, 50/30/10/10 warm/tenant/edit/burst mix: wire codec, frame I/O, admission queue and reply serialisation are most of the op",
    ),
];

/// `(name, unit, bound, exact)`: what a user of the system sees. `bound`
/// is the share of the parent's median by which the metric may worsen;
/// an `exact` metric repeats bit for bit on the same seed.
const END_TO_END: [(&str, &str, f64, bool); 6] = [
    ("setup_s", "s", 0.25, false),
    ("op_cal_ms_p50", "ms", 0.25, false),
    ("peak_rss_mb", "MB", 0.25, false),
    ("text_ratio", "ratio", 0.03, true),
    ("cycles_ratio", "ratio", 0.08, true),
    ("resident_ratio", "ratio", 0.07, true),
];

/// `(name, unit, exact)`: the per-layer metrics of the traced pass.
const PER_LAYER: [(&str, &str, bool); 53] = [
    ("pipeline.frontend_cal_ms", "ms", false),
    ("pipeline.codegen_cal_ms", "ms", false),
    ("pipeline.outline_cal_ms", "ms", false),
    ("pipeline.link_cal_ms", "ms", false),
    ("oat.elf_write_cal_ms", "ms", false),
    ("pipeline.stage_sum_ratio", "ratio", false),
    ("dex.verify_cal_ms", "ms", false),
    ("cache.hash_methods_cal_ms", "ms", false),
    ("cache.store_get_cal_us", "us", false),
    ("cache.store_insert_cal_us", "us", false),
    ("hgraph.build_cal_ms", "ms", false),
    ("hgraph.passes_cal_ms", "ms", false),
    ("codegen.compile_cal_ms", "ms", false),
    ("suffix.tree_build_cal_ms", "ms", false),
    ("suffix.repeats_cal_ms", "ms", false),
    ("ltbo.run_cal_ms", "ms", false),
    ("oat.elf_read_cal_ms", "ms", false),
    ("runtime.trace_cal_ms", "ms", false),
    ("profile.hot_set_cal_ms", "ms", false),
    ("server.encode_request_cal_us", "us", false),
    ("server.decode_reply_cal_us", "us", false),
    ("server.ping_cal_us", "us", false),
    ("server.build_share", "ratio", false),
    ("pipeline.methods_compiled_per_op", "count", true),
    ("cache.method_hit_ratio", "ratio", true),
    ("cache.group_hit_ratio", "ratio", true),
    ("cache.merge_hit_ratio", "ratio", true),
    ("cache.evictions", "count", true),
    ("hgraph.insns_in", "count", true),
    ("hgraph.insns_out", "count", true),
    ("codegen.words_before_ltbo", "count", true),
    ("ltbo.outlined_functions", "count", true),
    ("ltbo.occurrences_replaced", "count", true),
    ("ltbo.words_saved", "count", true),
    ("merge.merged_methods", "count", true),
    ("merge.words_saved", "count", true),
    ("oat.elf_bytes", "bytes", true),
    ("oat.text_bytes", "bytes", true),
    ("runtime.cycles", "cycles", true),
    ("runtime.resident_bytes", "bytes", true),
    ("runtime.icache_misses", "count", true),
    ("runtime.heap_allocs", "count", true),
    ("server.rejected_overloaded", "count", true),
    ("server.requests_completed", "count", true),
    ("server.build_errors", "count", true),
    ("alloc.count_per_op", "count", false),
    ("alloc.kb_per_op", "KB", false),
    ("alloc.peak_heap_mb", "MB", false),
    ("calib.kernel_ms_p10", "ms", false),
    ("calib.kernel_ms_p50", "ms", false),
    ("calib.kernel_spread", "ratio", false),
    ("calib.raw_op_ms_p50", "ms", false),
    ("trace.overhead_ratio", "ratio", false),
];

/// What one run measures when `--seconds` is not given; `BENCHMARK.json`
/// passes the same value.
const DEFAULT_SECONDS: f64 = 20.0;
/// Set-up is repeated this often in an untraced run; `setup_s` is the
/// median.
const SETUP_REPS: usize = 5;
/// Share of `--seconds` the traced pass spends in its op loop; the
/// probes, which run a fixed number of repetitions, take the rest.
const TRACED_LOOP_SHARE: f64 = 0.6;
/// The size and run-time ratios are summed over variants of a
/// workload's inputs: the timed inputs, whose artifacts the timed ops
/// produced, and re-seeded variants of them built once, untimed, under
/// the same configuration — as many as bring the total to about this
/// many methods, at least one and at most five. How much a generated app
/// repeats itself varies from seed to seed by a few percent; summing
/// over more apps brings the ratios' seed-to-seed spread under a third
/// of their bounds.
const SIZE_METHODS: usize = 7000;
/// Longest one op (with its kernel readings and checks) may take.
const STALL_LIMIT: Duration = Duration::from_secs(60);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    quick: bool,
    selfcheck: bool,
    record_golden: bool,
}

const USAGE: &str = "usage: calibro-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--trace-out FILE] [--quick] [--selfcheck] [--record-golden]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        quick: false,
        selfcheck: false,
        record_golden: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|(w, _)| *w == name) {
                    return Err(format!("unknown workload {name}\n{USAGE}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--record-golden" => args.record_golden = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if args.quick {
        args.seconds /= 10.0;
    }
    if args.record_golden && (args.seed != DEFAULT_SEED || args.workload.is_none()) {
        return Err("--record-golden needs --workload and the default seed".to_owned());
    }
    Ok(args)
}

fn setup(name: &str, seed: u64, cal: &mut Calibrator) -> Result<(Box<dyn Workload>, f64), String> {
    let direct = |kind, cal: &mut Calibrator| {
        direct::Direct::setup(kind, seed, cal).map(|(w, ms)| (Box::new(w) as Box<dyn Workload>, ms))
    };
    match name {
        "cold_sizefirst" => direct(direct::Kind::ColdSizeFirst, cal),
        "cold_deploy" => direct(direct::Kind::ColdDeploy, cal),
        "warm_edit" => direct(direct::Kind::WarmEdit, cal),
        "serve_mixed" => {
            serve::Serve::setup(seed, cal).map(|(w, ms)| (Box::new(w) as Box<dyn Workload>, ms))
        }
        other => Err(format!("unknown workload {other}")),
    }
}

/// Restarts the kernel's record of the process's peak resident set, so
/// that the next [`peak_rss_mb`] is the peak since now. Where the kernel
/// refuses, peaks stay peaks since the process started.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Runs one workload in this process and returns its result line.
fn run_workload(name: &str, args: &Args) -> Result<Json, String> {
    // Before any thread exists: the daemon, the compile workers and the
    // watchdog all inherit the one CPU.
    match calib::pin_to_one_cpu() {
        Some(cpu) => eprintln!("# {name}: pinned to cpu {cpu}"),
        None => eprintln!(
            "# {name}: could not pin to one cpu; multi-threaded ops will read less steadily"
        ),
    }
    if !calib::one_malloc_arena() {
        eprintln!("# {name}: allocator arenas not limited; peak memory will read less steadily");
    }
    let mut cal = Calibrator::new();
    let launched = Instant::now();

    // Set-up, repeated where its time is reported; the last instance is
    // the one that runs.
    let mut setup_ms = Vec::new();
    let mut workload = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        drop(workload.take());
        let (w, ms) = setup(name, args.seed, &mut cal)?;
        setup_ms.push(ms);
        workload = Some(w);
    }
    let mut workload = workload.expect("SETUP_REPS is at least one");

    if args.record_golden {
        inputs::record_golden(name, &workload.checked_apps())?;
        eprintln!("# recorded golden/{name}.json");
    }
    let (refs, kind) = inputs::references(name, args.seed, &workload.checked_apps())?;
    eprintln!("# {name}: seed {} reference {}", args.seed, kind.as_str());
    let (methods, insns) = workload
        .probe_inputs()
        .iter()
        .fold((0, 0), |(m, i), (app, _)| (m + app.dex.methods().len(), i + app.dex.total_insns()));
    eprintln!("# {name}: inputs have {methods} methods, {insns} dex instructions");
    if args.quick {
        eprintln!("# {name}: --quick run, results are not comparable with full runs");
    }

    // The op loop: a fixed sequence, cut off by time. The traced pass
    // runs each op twice — spans off, then on — so that stage times and
    // the tracing overhead are relative to this run's own untraced ops.
    let budget =
        Duration::from_secs_f64(args.seconds * if args.trace { TRACED_LOOP_SHARE } else { 1.0 });
    let mut tracer = Tracer::new();
    let mut untraced = workload.classes();
    let mut traced = workload.classes();
    let mut raw = workload.classes();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let alloc_before = alloc::totals();
    // An op that never returns (the daemon and its client can deadlock
    // on a pipelined batch) must not hang the run: each op sends a
    // heartbeat, and the watchdog ends the process when they stop.
    let (heartbeat, heartbeats) = std::sync::mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || loop {
        match heartbeats.recv_timeout(STALL_LIMIT) {
            Ok(()) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                eprintln!("calibro-benchmark: an op made no progress for {STALL_LIMIT:?}");
                std::process::exit(3);
            }
        }
    });
    let start = Instant::now();
    let setup_wall_s = (start - launched).as_secs_f64();
    let mut i = 0;
    let min_ops = workload.min_ops().max(if args.trace { 2 * workload.alloc_ops() } else { 0 });
    // Peak memory is read per op, over the second half of the ops every
    // run makes: at fixed points of the sequence, after the process has
    // reached its plateau, however many more ops the machine gets through.
    let rss_window = workload.min_ops() / 2..workload.min_ops();
    let mut op_peak_rss = workload.classes();
    while i < min_ops || start.elapsed() < budget {
        let _ = heartbeat.send(());
        attempted += 1;
        if rss_window.contains(&i) {
            reset_peak_rss();
        }
        match workload.op(i, &mut cal) {
            Ok((class, sample)) => {
                untraced[class].samples.push(sample.cal_ms);
                raw[class].samples.push(sample.raw_ms);
                if rss_window.contains(&i) {
                    op_peak_rss[class].samples.push(peak_rss_mb()?);
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("# FAILED {e}");
            }
        }
        if args.trace {
            attempted += 1;
            let count_allocs = i < workload.alloc_ops();
            match workload.traced_op(i, count_allocs, &mut cal, &mut tracer) {
                Ok(_) if count_allocs => {}
                Ok((class, sample)) => traced[class].samples.push(sample.cal_ms),
                Err(e) => {
                    failed += 1;
                    eprintln!("# FAILED {e}");
                }
            }
        }
        i += 1;
    }
    // The class that needs the most: its typical (median) per-op peak. A
    // class whose ops all failed has no median and does not count.
    let peak_rss = op_peak_rss.iter().map(|c| median(&c.samples)).fold(0.0, f64::max);
    drop(heartbeat);
    watchdog.join().map_err(|_| "the watchdog panicked".to_owned())?;
    let allocs = alloc::totals();
    let op_cal_ms = weighted_median(&untraced);
    let loop_wall_s = start.elapsed().as_secs_f64();

    let mut layers: Vec<(&str, f64)> = Vec::new();
    if args.trace {
        let (staged, weights) = workload.staged();
        let stage_ms: Vec<f64> =
            STAGES.iter().map(|s| stage_cal_ms(&tracer, staged, &weights, s)).collect();
        layers.extend([
            ("pipeline.frontend_cal_ms", stage_ms[0]),
            ("pipeline.codegen_cal_ms", stage_ms[1]),
            ("pipeline.outline_cal_ms", stage_ms[2]),
            ("pipeline.link_cal_ms", stage_ms[3]),
            ("oat.elf_write_cal_ms", stage_ms[4]),
            ("pipeline.stage_sum_ratio", stage_ms.iter().sum::<f64>() / op_cal_ms),
            ("trace.overhead_ratio", weighted_median(&traced) / op_cal_ms),
            ("calib.raw_op_ms_p50", weighted_median(&raw)),
        ]);
        layers.extend(probes::run(&workload.probe_inputs(), &mut cal)?);
        let counted_ops = workload.alloc_ops() as f64;
        layers.extend([
            ("alloc.count_per_op", (allocs.count - alloc_before.count) as f64 / counted_ops),
            ("alloc.kb_per_op", (allocs.bytes - alloc_before.bytes) as f64 / 1024.0 / counted_ops),
            ("alloc.peak_heap_mb", allocs.peak_live_bytes as f64 / (1024.0 * 1024.0)),
        ]);
    }

    // Correctness, outside every timed region. The untraced pass sums
    // its size and run-time ratios over variants of the inputs as well;
    // the traced pass reports the timed inputs' absolute sums.
    let build_share = workload.build_share();
    let mut verdict = Verdict::default();
    let size_variants =
        if args.trace { 0 } else { (SIZE_METHODS / methods).clamp(2, 6) as u64 - 1 };
    for v in 1..=size_variants {
        for (app, options) in workload.variant(v)? {
            verdict.add_built(&app, &options);
        }
    }
    let finished = workload.finish();
    verdict.add_artifacts(&finished.apps, &finished.artifacts, &refs);
    for e in finished.failures.iter().chain(&verdict.failures) {
        eprintln!("# WRONG {e}");
    }
    failed += (finished.failures.len() + verdict.failures.len()) as u64;
    let failed = failed.min(attempted);

    let machine = cal.machine_record();
    for c in &untraced {
        eprintln!(
            "# class.{}: n {} weight {} cal_ms_p50 {:.4} cal_ms_p90 {:.4}",
            c.name,
            c.samples.len(),
            c.weight,
            median(&c.samples),
            quantile(&c.samples, 0.9)
        );
    }
    eprintln!("# {name}: {attempted} ops attempted, {failed} failed; {machine:?}");
    eprintln!(
        "# {name}: wall {setup_wall_s:.1} s set-up and references, {loop_wall_s:.1} s op loop, {:.1} s probes and checks",
        launched.elapsed().as_secs_f64() - setup_wall_s - loop_wall_s
    );

    let metrics = if args.trace {
        layers.extend(finished.counts.metrics());
        layers.extend([
            ("server.build_share", build_share),
            ("oat.text_bytes", verdict.text_bytes as f64),
            ("runtime.cycles", verdict.run_cycles as f64),
            ("runtime.resident_bytes", verdict.resident_bytes as f64),
            ("runtime.icache_misses", verdict.icache_misses as f64),
            ("runtime.heap_allocs", verdict.heap_allocs as f64),
            ("server.rejected_overloaded", finished.server.rejected_overloaded as f64),
            ("server.requests_completed", finished.server.requests_completed as f64),
            ("server.build_errors", finished.server.build_errors as f64),
            ("calib.kernel_ms_p10", machine.kernel_ms_p10),
            ("calib.kernel_ms_p50", machine.kernel_ms_p50),
            ("calib.kernel_spread", machine.kernel_spread),
        ]);
        if let Some(path) = &args.trace_out {
            write_spans(path, name, args.seed, kind, &tracer, &untraced)?;
        }
        // In catalogue order; a metric the run did not produce is a bug.
        PER_LAYER
            .iter()
            .map(|(n, unit, _)| {
                let value = layers.iter().find(|(l, _)| l == n).map(|(_, v)| *v);
                value.map(|v| (*n, metric(v, unit))).ok_or_else(|| format!("metric {n} missing"))
            })
            .collect::<Result<Vec<_>, _>>()?
    } else {
        let values = [
            median(&setup_ms) / 1e3,
            op_cal_ms,
            peak_rss,
            verdict.text_bytes as f64 / verdict.baseline_text_bytes as f64,
            verdict.run_cycles as f64 / verdict.baseline_cycles as f64,
            verdict.resident_bytes as f64 / verdict.baseline_resident_bytes as f64,
        ];
        END_TO_END.iter().zip(values).map(|((n, unit, ..), v)| (*n, metric(v, unit))).collect()
    };
    Ok(Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]))
}

/// Writes the span file: every span with its self time, and the
/// per-class latency record the result line has no room for.
fn write_spans(
    path: &PathBuf,
    workload: &str,
    seed: u64,
    kind: ReferenceKind,
    tracer: &Tracer,
    classes: &[Class],
) -> Result<(), String> {
    let classes = classes
        .iter()
        .map(|c| {
            Json::obj([
                ("name", Json::str(&c.name)),
                ("weight", Json::Num(c.weight)),
                ("n", Json::Num(c.samples.len() as f64)),
                ("cal_ms_p50", Json::Num(median(&c.samples))),
                ("cal_ms_p90", Json::Num(quantile(&c.samples, 0.9))),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("reference", Json::str(kind.as_str())),
        ("classes", Json::Arr(classes)),
        ("spans", tracer.to_json()),
    ]);
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in a child process of this executable and parses
/// the result line it prints last.
fn run_child(name: &str, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if let (true, Some(dir)) = (trace, &args.trace_out) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        cmd.arg("--trace-out").arg(dir.join(format!("{name}.spans.json")));
    }
    // `wait_with_output` reaps the child; stderr passes through.
    let out = cmd.spawn().and_then(|c| c.wait_with_output()).map_err(|e| format!("{name}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{name}: child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or_else(|| format!("{name}: child printed nothing"))?;
    Json::parse(line).map_err(|e| format!("{name}: bad result line: {e}"))
}

/// `(workload, metric, value, unit)`.
type Row = (String, String, f64, String);

/// One suite pass: its rows in catalogue order, and whether every
/// workload's outputs were correct.
fn run_suite(args: &Args) -> Result<(Vec<Row>, bool), String> {
    let mut rows = Vec::new();
    let mut correct = true;
    for (name, _) in WORKLOADS {
        for trace in [false, true] {
            let result = run_child(name, args, trace)?;
            correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                return Err(format!("{name}: result has no metrics"));
            };
            for (metric, v) in metrics {
                let value = v.get("value").and_then(Json::as_f64);
                let unit = v.get("unit").and_then(Json::as_str);
                let (Some(value), Some(unit)) = (value, unit) else {
                    return Err(format!("{name}: metric {metric} is malformed"));
                };
                rows.push((name.to_owned(), metric.clone(), value, unit.to_owned()));
            }
        }
    }
    Ok((rows, correct))
}

fn print_rows(rows: &[Row]) {
    for (workload, metric, value, unit) in rows {
        println!("{workload:<15} {metric:<34} {value:>18.6} {unit}");
    }
}

/// Runs the suite twice on this binary and compares: every end-to-end
/// metric within its bound, every exact metric identical.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let (first, ok1) = run_suite(args)?;
    let (second, ok2) = run_suite(args)?;
    let mut pass = ok1 && ok2;
    println!(
        "{:<15} {:<34} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "run 1", "run 2", "rel diff", "bound"
    );
    for ((workload, name, a, _), (_, _, b, _)) in first.iter().zip(&second) {
        let bound =
            END_TO_END.iter().find(|(n, ..)| n == name).map(
                |(_, _, bound, exact)| {
                    if *exact {
                        0.0
                    } else {
                        *bound
                    }
                },
            );
        let exact = bound == Some(0.0) || PER_LAYER.iter().any(|(n, _, exact)| n == name && *exact);
        let rel = if a == b { 0.0 } else { (b - a).abs() / a.abs().max(f64::MIN_POSITIVE) };
        let verdict = match bound {
            _ if exact && a != b => "DIFFERS",
            Some(bound) if rel > bound => "EXCEEDS",
            _ => "",
        };
        pass &= verdict.is_empty();
        if bound.is_some() || !verdict.is_empty() || name == "calib.raw_op_ms_p50" {
            let bound = bound.map_or("-".to_owned(), |b| format!("{:.1}%", b * 100.0));
            println!(
                "{workload:<15} {name:<34} {a:>16.4} {b:>16.4} {:>8.2}% {bound:>7} {verdict}",
                rel * 100.0
            );
        }
    }
    println!("selfcheck: {}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    if args.selfcheck {
        return selfcheck(&args);
    }
    match &args.workload {
        Some(name) => {
            let result = run_workload(name, &args)?;
            println!("{}", result.render());
            Ok(result.get("correct").and_then(Json::as_bool) == Some(true))
        }
        None => {
            let (rows, correct) = run_suite(&args)?;
            print_rows(&rows);
            println!("outputs correct: {correct}");
            Ok(correct)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("calibro-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_emitted_name_is_well_formed_and_unique() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .chain(END_TO_END.iter().map(|(n, ..)| *n))
            .chain(PER_LAYER.iter().map(|(n, ..)| *n))
            .collect();
        for n in &names {
            assert!(well_formed(n), "{n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    /// `BENCHMARK.json` at the repository root declares exactly what this
    /// binary emits.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str, fields: &[&str]| -> Vec<Vec<Json>> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| fields.iter().map(|f| e.get(f).unwrap().clone()).collect())
                .collect()
        };
        let workloads: Vec<Vec<Json>> =
            WORKLOADS.iter().map(|(n, why)| vec![Json::str(*n), Json::str(*why)]).collect();
        assert_eq!(listed("workloads", &["name", "why"]), workloads);
        let end_to_end: Vec<Vec<Json>> = END_TO_END
            .iter()
            .map(|(n, u, b, _)| {
                vec![Json::str(*n), Json::str(*u), Json::str("lower"), Json::Num(*b)]
            })
            .collect();
        assert_eq!(listed("end_to_end", &["name", "unit", "better", "bound"]), end_to_end);
        let per_layer: Vec<Vec<Json>> =
            PER_LAYER.iter().map(|(n, u, _)| vec![Json::str(*n), Json::str(*u)]).collect();
        assert_eq!(listed("per_layer", &["name", "unit"]), per_layer);
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload warm_edit --seed 7 --seconds 30 --trace 1 --quick").unwrap();
        assert_eq!(a.workload.as_deref(), Some("warm_edit"));
        assert_eq!((a.seed, a.seconds, a.trace, a.quick), (7, 3.0, true, true));
        assert_eq!(parse("").unwrap().seed, DEFAULT_SEED);
        let bad = [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--bogus",
            "--seed",
            "--record-golden",
            "--workload warm_edit --seed 7 --record-golden",
        ];
        for bad in bad {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
