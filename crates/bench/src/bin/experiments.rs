//! Regenerates every table and figure from the paper's evaluation (§4)
//! on the simulated substrate.
//!
//! ```text
//! cargo run --release -p bench --bin experiments            # everything
//! cargo run --release -p bench --bin experiments table4     # one table
//! cargo run --release -p bench --bin experiments all 1.0    # custom scale
//! ```

use bench::record::{top_level_number, Record};
use bench::{
    fig3, fig4, frontier, frontier_gate, frontier_record, incremental_gate, suite, table1, table2,
    table4, table5, table6, table6_gate, table6_record, table7, warm_rebuild, warm_rebuild_record,
    Variant, DEFAULT_SCALE, PL_GROUPS, PL_THREADS, WARM_MUTATION_FRACTION,
};
use calibro_workloads::App;

/// A subcommand that reads its own flags, and what runs it.
type FlagArm = (&'static str, fn(&[String]));

/// The subcommands that drive a daemon, each with its own flags.
const DAEMON_ARMS: [FlagArm; 3] =
    [("serve", run_serve), ("restart", run_restart), ("drift", run_drift)];

/// What a paper arm runs on.
#[derive(Clone, Copy)]
enum Runs {
    /// Nothing: it prints a worked example or the setup.
    Alone(fn()),
    /// The generated six-app suite.
    Suite(fn(&[App])),
}

/// The subcommands that reproduce the paper's tables and figures, in
/// the order `all` runs them. The suite is generated only when an arm
/// that runs on it is asked for.
const PAPER_ARMS: [(&str, Runs); 13] = [
    ("table1", Runs::Suite(print_table1)),
    ("fig1", Runs::Alone(print_fig1)),
    ("fig3", Runs::Suite(print_fig3)),
    ("fig4", Runs::Suite(print_fig4)),
    ("table2", Runs::Alone(print_table2)),
    ("table3", Runs::Alone(print_table3)),
    ("table4", Runs::Suite(print_table4)),
    ("table5", Runs::Suite(print_table5)),
    ("table6", Runs::Suite(print_table6)),
    ("table7", Runs::Suite(print_table7)),
    ("ablation", Runs::Suite(print_ablation)),
    ("incremental", Runs::Suite(print_incremental)),
    ("frontier", Runs::Suite(print_frontier)),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map_or("all", String::as_str);
    if let Some((_, run)) = DAEMON_ARMS.iter().find(|&&(name, _)| name == which) {
        run(&args[1..]);
        return;
    }
    let arms: Vec<Runs> = PAPER_ARMS
        .iter()
        .filter(|&&(name, _)| which == "all" || which == name)
        .map(|&(_, runs)| runs)
        .collect();
    if arms.is_empty() {
        let names: Vec<&str> = PAPER_ARMS.iter().map(|&(name, _)| name).collect();
        eprintln!(
            "experiments: unknown subcommand {which:?}; expected serve, restart, drift, all or one of {}",
            names.join(", ")
        );
        std::process::exit(2);
    }
    let scale: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_SCALE);

    let mut apps = Vec::new();
    if arms.iter().any(|runs| matches!(runs, Runs::Suite(_))) {
        eprintln!("generating the six-app suite (scale {scale}) ...");
        apps = suite(scale);
        for app in &apps {
            eprintln!(
                "  {:10} {:5} methods, {:6} dex instructions",
                app.name,
                app.dex.methods().len(),
                app.dex.total_insns()
            );
        }
    }
    for runs in arms {
        match runs {
            Runs::Alone(run) => run(),
            Runs::Suite(run) => run(&apps),
        }
    }
}

/// `experiments frontier` — the size/perf frontier of the size stage
/// off and on (`none` / `outline`), recorded in
/// `BENCH_size_frontier.json` and printed as a per-app size table.
/// Exits 1 unless [`frontier_gate`] passes: six apps, outline `.text`
/// below none on each.
fn print_frontier(apps: &[App]) {
    header("Size/perf frontier: size stage off and on");
    let rows = frontier(apps);
    let record = frontier_record(&rows);
    save("BENCH_size_frontier.json", &record);
    print!("{}", record.table());
    finish("frontier", frontier_gate(&rows));
}

/// `experiments serve [--socket PATH | --addr HOST:PORT]... [--clients N]
/// [--requests N] [--workers N] [--queue-depth N] [--no-probe]` — the
/// calibrod load generator (see `bench::serve`): one run per
/// `--socket`/`--addr`, each against a fresh daemon, or one against an
/// in-process daemon without one. Exits 1 unless
/// [`bench::serve_gate`] passes on every run and on their median warm
/// reply against the committed record's.
fn run_serve(args: &[String]) {
    let mut config = bench::ServeLoadConfig::default();
    let mut endpoints = Vec::new();
    each_flag(
        "serve",
        args,
        &["--socket", "--addr", "--clients", "--requests", "--workers", "--queue-depth"],
        &["--no-probe"],
        |flag, value| match flag {
            "--socket" | "--addr" => endpoints.push(endpoint(flag, value)),
            "--clients" => config.clients = number("serve", flag, value),
            "--requests" => config.requests = number("serve", flag, value),
            "--workers" => config.workers = number("serve", flag, value),
            "--queue-depth" => config.queue_depth = number("serve", flag, value),
            _ => config.probe_overload = false,
        },
    );

    header("calibrod load generation");
    let path = "BENCH_serve.json";
    let committed = committed(path, "warm_us");
    let targets =
        if endpoints.is_empty() { vec![None] } else { endpoints.into_iter().map(Some).collect() };
    let runs: Vec<_> = targets
        .into_iter()
        .map(|endpoint| bench::serve_load(&bench::ServeLoadConfig { endpoint, ..config.clone() }))
        .collect();
    let record = bench::serve_record(&runs);
    save(path, &record);
    print!("{}", record.table());
    finish("serve", bench::serve_gate(&runs, committed));
}

/// `experiments restart [--workers N] [--methods N]` — a daemon
/// restarted over its own disk directory against true cold and
/// memory-warm builds (see `bench::restart`). Exits 1 unless
/// [`bench::restart_gate`] passes.
fn run_restart(args: &[String]) {
    let (mut workers, mut methods) = (4, 900);
    each_flag("restart", args, &["--workers", "--methods"], &[], |flag, value| match flag {
        "--workers" => workers = number("restart", flag, value),
        _ => methods = number("restart", flag, value),
    });

    header("calibrod restart: disk-warm vs true-cold and memory-warm");
    let report = bench::restart_load(workers, methods);
    let record = Record { arm: "restart", fields: report.fields(), rows: Vec::new() };
    save("BENCH_restart.json", &record);
    print!("{}", record.table());
    finish("restart", bench::restart_gate(&report));
}

/// `experiments drift [--socket PATH | --addr HOST:PORT] [--workers N]`
/// — the profile-feedback re-optimization arm (see `bench::drift`):
/// phase shift, drift-triggered refresh, no-serving-gap and
/// byte-determinism checks, recorded in `BENCH_drift.json`. Exits 1
/// unless [`bench::drift_gate`] passes.
fn run_drift(args: &[String]) {
    let mut config = bench::DriftConfig::default();
    each_flag("drift", args, &["--socket", "--addr", "--workers"], &[], |flag, value| match flag {
        "--workers" => config.workers = number("drift", flag, value),
        _ => config.endpoint = Some(endpoint(flag, value)),
    });

    header("calibrod profile feedback: drift-triggered re-optimization");
    let report = bench::drift_feedback(&config);
    let record = Record { arm: "drift", fields: report.fields(), rows: Vec::new() };
    save("BENCH_drift.json", &record);
    print!("{}", record.table());
    finish("drift", bench::drift_gate(&report));
}

/// The one flag loop: walks `args` as flags, where one in `valued`
/// takes the next argument as its value and one in `switches` takes
/// none (its value is empty), handing each to `apply` in order. An
/// unknown flag or a missing value exits 2.
fn each_flag(
    arm: &str,
    args: &[String],
    valued: &[&str],
    switches: &[&str],
    mut apply: impl FnMut(&str, &str),
) {
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        let value = if valued.contains(&flag) {
            it.next().unwrap_or_else(|| usage(arm, &format!("{flag} requires a value")))
        } else if switches.contains(&flag) {
            ""
        } else {
            usage(arm, &format!("unknown flag {flag}"))
        };
        apply(flag, value);
    }
}

/// A flag's value as a number; exits 2 when it is not one.
fn number<T: std::str::FromStr>(arm: &str, flag: &str, raw: &str) -> T {
    raw.parse().unwrap_or_else(|_| usage(arm, &format!("invalid value {raw:?} for {flag}")))
}

fn usage(arm: &str, message: &str) -> ! {
    eprintln!("experiments {arm}: {message}");
    std::process::exit(2);
}

/// The external daemon the serve and drift arms can target:
/// `--socket PATH` or `--addr HOST:PORT`.
fn endpoint(flag: &str, value: &str) -> calibro_server::Endpoint {
    if flag == "--addr" {
        return calibro_server::Endpoint::Tcp(value.to_owned());
    }
    #[cfg(unix)]
    {
        calibro_server::Endpoint::Unix(std::path::PathBuf::from(value))
    }
    #[cfg(not(unix))]
    {
        usage("serve", &format!("{flag} {value}: unix sockets are not supported on this platform"));
    }
}

/// The ratchet's baseline: the number at `key` of the record at `path`
/// in the working directory, read before the arm overwrites it. In a
/// checkout that is the committed record; without one the ratchet is
/// skipped.
fn committed(path: &str, key: &str) -> Option<f64> {
    let committed =
        std::fs::read_to_string(path).ok().and_then(|json| top_level_number(&json, key));
    if committed.is_none() {
        println!("no committed {key} in {path}: the ratchet is skipped");
    }
    committed
}

/// Writes `record` to `path`; a record that cannot be written exits 1,
/// so nothing downstream reads a stale one.
fn save(path: &str, record: &Record) {
    if let Err(e) = std::fs::write(path, record.to_json()) {
        eprintln!("could not write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}

/// Prints the gate's verdict; a failed check exits 1.
fn finish(arm: &str, gate: Result<(), Vec<String>>) {
    match gate {
        Ok(()) => println!("{arm} gate passed"),
        Err(failures) => {
            for failure in failures {
                eprintln!("{arm} gate: {failure}");
            }
            std::process::exit(1);
        }
    }
}

fn print_incremental(apps: &[App]) {
    header(&format!(
        "Incremental rebuild: cold vs warm wall time after a {:.0}% method update",
        WARM_MUTATION_FRACTION * 100.0
    ));
    let path = "BENCH_warm_rebuild.json";
    let committed = committed(path, "suite_warm_us");
    let rows = warm_rebuild(apps);
    let record = warm_rebuild_record(&rows);
    save(path, &record);
    print!("{}", record.table());
    // The Table 4 trade-off behind the sharded arm: finer detection
    // groups buy incrementality but give back some size vs one global
    // tree. Report the regression so it is a number, not a surprise.
    println!();
    println!("{:>10} {:>12} {:>12} {:>12}", "app", "global .text", "sharded", "regression");
    // `warm_rebuild` yields each app's variants together, in order.
    for variants in rows.chunks(3) {
        let [_, g, p] = variants else { continue };
        println!(
            "{:>10} {:>11}K {:>11}K {:>11.2}%",
            g.app,
            g.text_bytes / 1024,
            p.text_bytes / 1024,
            (p.text_bytes as f64 / g.text_bytes as f64 - 1.0) * 100.0
        );
    }
    finish("incremental", incremental_gate(&rows, committed));
}

fn print_ablation(apps: &[App]) {
    let app = apps.iter().find(|a| a.name == "wechat").unwrap_or(&apps[0]);
    header(&format!(
        "Ablation: paralleled suffix-tree count vs size/time trade-off ({})",
        app.name
    ));
    println!("{:>7} {:>10} {:>12} {:>10}", "trees", ".text", "ltbo time", "outlined");
    for row in bench::ablation_groups(app, &[1, 2, 4, 8, 16, 32]) {
        println!(
            "{:>7} {:>9}K {:>10.0}ms {:>10}",
            row.groups,
            row.bytes / 1024,
            row.ltbo_time.as_secs_f64() * 1000.0,
            row.outlined
        );
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

fn print_table1(apps: &[App]) {
    header("Table 1: estimated code size reduction ratios (suffix-tree analysis, paper avg 25.4%)");
    let rows = table1(apps);
    apps_row("app", rows.iter().map(|r| r.app.as_str()));
    ratio_row("estimated reduction", rows.iter().map(|r| r.estimated_ratio), 1);
}

/// One line of an app-by-app table: a 24-column label, then one
/// 10-column cell per app.
fn grid_row(label: &str, cells: impl Iterator<Item = String>) {
    print!("{label:24}");
    for cell in cells {
        print!("{cell:>10}");
    }
    println!();
}

/// The app names across, then `AVG`.
fn apps_row<'a>(corner: &str, apps: impl Iterator<Item = &'a str>) {
    grid_row(corner, apps.chain(["AVG"]).map(str::to_owned));
}

/// One ratio per app as a percentage to `decimals` places, then their
/// mean.
fn ratio_row(label: &str, ratios: impl Iterator<Item = f64>, decimals: usize) {
    let ratios: Vec<f64> = ratios.collect();
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    grid_row(label, ratios.iter().chain([&mean]).map(|r| format!("{:.*}%", decimals, r * 100.0)));
}

fn print_fig1() {
    header("Figure 1: the example suffix tree of \"banana\" (repeated substrings)");
    let text: Vec<u64> = "banana".bytes().map(u64::from).collect();
    let tree = calibro_suffix::SuffixTree::build(text.clone());
    let mut suffixes = tree.suffixes();
    suffixes.sort_by_key(Vec::len);
    println!("suffixes stored: {}", suffixes.len());
    for rep in calibro_suffix::find_repeats(&tree, 1) {
        let s: String = tree.text()[rep.positions[0]..rep.positions[0] + rep.len]
            .iter()
            .map(|&c| char::from(c as u8))
            .collect();
        println!("  {s:8} occurs {}x at {:?}", rep.count, rep.positions);
    }
}

fn print_fig3(apps: &[App]) {
    let app = apps.iter().find(|a| a.name == "wechat").unwrap_or(&apps[0]);
    header(&format!("Figure 3: sequence length vs number of repeats ({} baseline)", app.name));
    println!("{:>6} {:>12} {:>14}", "len", "sequences", "total repeats");
    for p in fig3(app, 16) {
        println!("{:>6} {:>12} {:>14}", p.len, p.sequences, p.total_repeats);
    }
}

fn print_fig4(apps: &[App]) {
    let app = apps.iter().find(|a| a.name == "wechat").unwrap_or(&apps[0]);
    header(&format!("Figure 4: ART-specific repetitive pattern census ({} baseline)", app.name));
    let c = fig4(app);
    let mut rows: Vec<(String, usize)> = vec![
        ("Java function call (Fig 4a)".to_owned(), c.java_call),
        ("stack overflow check (Fig 4c)".to_owned(), c.stack_check),
    ];
    for (off, n) in &c.runtime_by_offset {
        rows.push((format!("runtime call @x19+{off:#x} (Fig 4b)"), *n));
    }
    rows.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    for (rank, (name, n)) in rows.iter().enumerate() {
        println!("  #{} {name:32} {n:>8} occurrences", rank + 1);
    }
}

fn print_table2() {
    header("Table 2: outlining and patching walk-through (paper's example)");
    for (title, listing) in table2() {
        println!("  // {title}");
        for (i, line) in listing.iter().enumerate() {
            println!("    {:#06x}: {line}", i * 4);
        }
    }
}

fn print_table3() {
    header("Table 3: experimental setup");
    println!("  {:26} simulated AArch64 (calibro-runtime)", "Experiment device");
    println!("  {:26} 1 cycle/insn + call/branch penalties + 32KiB L1I", "Processor model");
    println!("  {:26} {PL_GROUPS} trees / {PL_THREADS} threads", "Suffix trees (PlOpti)");
    println!("  {:26} six seeded synthetic apps ~ Table 4 size ratios", "Test set");
    println!("  {:26} speed (all methods compiled)", "Compile mode");
}

fn print_table4(apps: &[App]) {
    header("Table 4: OAT .text size per variant (paper: CTO 3.56%, +LTBO 19.19%, +PlOpti 16.40%, +HfOpti 15.19%)");
    let cols = table4(apps);
    apps_row("", cols.iter().map(|c| c.app.as_str()));
    for (i, v) in Variant::ALL.into_iter().enumerate() {
        grid_row(v.label(), cols.iter().map(|c| format!("{}K", c.values[i] / 1024)));
    }
    for (i, v) in Variant::ALL.into_iter().enumerate().skip(1) {
        ratio_row(&format!("{} reduction", v.label()), cols.iter().map(|c| c.reduction(i)), 2);
    }
}

fn print_table5(apps: &[App]) {
    header("Table 5: memory usage after the trace (paper: CTO 2.03%, CTO+LTBO 6.82%)");
    let cols = table5(apps);
    apps_row("", cols.iter().map(|c| c.app.as_str()));
    let names = ["Baseline", "CTO", "CTO+LTBO"];
    for (i, name) in names.into_iter().enumerate() {
        grid_row(name, cols.iter().map(|c| format!("{}K", c.values[i] / 1024)));
    }
    for (i, name) in names.into_iter().enumerate().skip(1) {
        ratio_row(&format!("{name} reduction"), cols.iter().map(|c| c.reduction(i)), 2);
    }
}

fn print_table6(apps: &[App]) {
    header("Table 6: building time (paper: single tree +489.5%, PlOpti +70.8%)");
    let rows = table6(apps);
    // The full observability payload (per-phase wall/cpu timings, pass
    // counters, per-worker loads) next to the human-readable table.
    save("BENCH_table6.json", &table6_record(&rows));
    // One column per app: its three builds.
    let cols: Vec<&[bench::Table6Row]> = rows.chunks(3).collect();
    let secs = |col: &[bench::Table6Row], i: usize| col[i].stats.total_time().as_secs_f64();
    apps_row("", cols.iter().map(|c| c[0].app.as_str()));
    for (i, name) in ["Baseline", "CTO+LTBO", "CTO+LTBO+PlOpti"].into_iter().enumerate() {
        grid_row(name, cols.iter().map(|c| format!("{:.0}ms", secs(c, i) * 1000.0)));
    }
    for (i, name) in ["CTO+LTBO", "+PlOpti"].into_iter().enumerate() {
        ratio_row(
            &format!("{name} growth"),
            cols.iter().map(|c| secs(c, i + 1) / secs(c, 0) - 1.0),
            0,
        );
    }
    finish("table6", table6_gate(&rows));
}

fn print_table7(apps: &[App]) {
    header("Table 7: runtime performance in CPU cycles (paper: PlOpti +1.51%, +HfOpti +0.90%)");
    let cols = table7(apps, 3);
    apps_row("", cols.iter().map(|c| c.app.as_str()));
    for (i, name) in ["Baseline", "CTO+LTBO+PlOpti", "+HfOpti"].into_iter().enumerate() {
        grid_row(name, cols.iter().map(|c| format!("{}K", c.values[i] / 1000)));
    }
    for (i, name) in ["PlOpti", "+HfOpti"].into_iter().enumerate() {
        ratio_row(&format!("{name} degradation"), cols.iter().map(|c| c.change(i + 1)), 2);
    }
}
