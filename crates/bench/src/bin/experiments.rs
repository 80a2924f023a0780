//! Regenerates every table and figure from the paper's evaluation (§4)
//! on the simulated substrate.
//!
//! ```text
//! cargo run --release -p bench --bin experiments            # everything
//! cargo run --release -p bench --bin experiments table4     # one table
//! cargo run --release -p bench --bin experiments all 1.0    # custom scale
//! ```

use bench::{
    build_variant, fig3, fig4, frontier, frontier_gate, frontier_json, suite, table1, table2,
    table4, table5, table6, table7, warm_rebuild, Variant, DEFAULT_SCALE, FRONTIER_ARMS, PL_GROUPS,
    PL_THREADS, WARM_MUTATION_FRACTION,
};

/// The subcommands that run on the generated six-app suite.
const SUITE_ARMS: [&str; 14] = [
    "all",
    "table1",
    "fig1",
    "fig3",
    "fig4",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "ablation",
    "incremental",
    "frontier",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map_or("all", String::as_str);
    if which == "serve" {
        run_serve(&args[1..]);
        return;
    }
    if which == "restart" {
        run_restart(&args[1..]);
        return;
    }
    if which == "drift" {
        run_drift(&args[1..]);
        return;
    }
    if !SUITE_ARMS.contains(&which) {
        eprintln!(
            "experiments: unknown subcommand {which:?}; expected serve, restart, drift or one of {}",
            SUITE_ARMS.join(", ")
        );
        std::process::exit(2);
    }
    let scale: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_SCALE);

    eprintln!("generating the six-app suite (scale {scale}) ...");
    let apps = suite(scale);
    for app in &apps {
        eprintln!(
            "  {:10} {:5} methods, {:6} dex instructions",
            app.name,
            app.dex.methods().len(),
            app.dex.total_insns()
        );
    }

    let run_all = which == "all";
    if run_all || which == "table1" {
        print_table1(&apps);
    }
    if run_all || which == "fig1" {
        print_fig1();
    }
    if run_all || which == "fig3" {
        print_fig3(&apps);
    }
    if run_all || which == "fig4" {
        print_fig4(&apps);
    }
    if run_all || which == "table2" {
        print_table2();
    }
    if run_all || which == "table3" {
        print_table3();
    }
    if run_all || which == "table4" {
        print_table4(&apps);
    }
    if run_all || which == "table5" {
        print_table5(&apps);
    }
    if run_all || which == "table6" {
        print_table6(&apps);
    }
    if run_all || which == "table7" {
        print_table7(&apps);
    }
    if run_all || which == "ablation" {
        print_ablation(&apps);
    }
    if run_all || which == "incremental" {
        print_incremental(&apps);
    }
    if run_all || which == "frontier" {
        print_frontier(&apps);
    }
}

/// `experiments frontier` — the size/perf frontier of the size stage
/// off and on (`none` / `outline`), written to
/// `BENCH_size_frontier.json` and printed as a per-app size table.
/// Exits 1 unless [`frontier_gate`] passes: six apps, outline `.text`
/// below none on each.
fn print_frontier(apps: &[calibro_workloads::App]) {
    header("Size/perf frontier: size stage off and on");
    let rows = frontier(apps);
    let json_path = "BENCH_size_frontier.json";
    match std::fs::write(json_path, frontier_json(&rows)) {
        Ok(()) => eprintln!("  wrote {json_path}"),
        Err(e) => eprintln!("  could not write {json_path}: {e}"),
    }
    println!("| App | Arm | .text bytes | vs none | Outlined | Cycles |");
    println!("|---|---|---|---|---|---|");
    for r in &rows {
        let none_bytes = r.arms[0].text_bytes;
        for a in &r.arms {
            let delta = 100.0 * (none_bytes as f64 - a.text_bytes as f64) / none_bytes as f64;
            println!(
                "| {} | {} | {} | {:+.2}% | {} | {} |",
                r.app, a.arm, a.text_bytes, -delta, a.outlined_functions, a.cycles
            );
        }
    }
    let wins = rows.iter().filter(|r| r.arms[1].text_bytes < r.arms[0].text_bytes).count();
    for (i, &(arm, _)) in FRONTIER_ARMS.iter().enumerate() {
        let total: u64 = rows.iter().map(|r| r.arms[i].text_bytes).sum();
        println!("aggregate {arm}: {total} bytes");
    }
    println!("outline < none on {wins}/{} apps", rows.len());
    match frontier_gate(&rows) {
        Ok(()) => println!("frontier gate passed"),
        Err(failures) => {
            for failure in failures {
                eprintln!("frontier gate: {failure}");
            }
            std::process::exit(1);
        }
    }
}

/// `experiments serve [--socket PATH | --addr HOST:PORT] [--clients N]
/// [--requests N] [--workers N] [--queue-depth N] [--no-probe]
/// [--one-slow]` — the calibrod load generator (see `bench::serve`).
fn run_serve(args: &[String]) {
    let mut config = bench::ServeLoadConfig::default();
    let mut one_slow = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> &String {
            it.next().unwrap_or_else(|| {
                eprintln!("experiments serve: {name} requires a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--socket" | "--addr" => config.endpoint = Some(endpoint(flag, value(flag))),
            "--clients" => config.clients = parse_flag(value("--clients"), "--clients"),
            "--requests" => config.requests = parse_flag(value("--requests"), "--requests"),
            "--workers" => config.workers = parse_flag(value("--workers"), "--workers"),
            "--queue-depth" => {
                config.queue_depth = parse_flag(value("--queue-depth"), "--queue-depth");
            }
            "--no-probe" => config.probe_overload = false,
            "--one-slow" => one_slow = true,
            other => {
                eprintln!("experiments serve: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if one_slow {
        let endpoint = config.endpoint.unwrap_or_else(|| {
            eprintln!("experiments serve --one-slow requires --socket or --addr");
            std::process::exit(2);
        });
        bench::serve_one_slow(&endpoint);
        println!("serve: in-flight slow request completed");
        return;
    }

    header("calibrod load generation");
    let report = bench::serve_load(&config);
    let json_path = "BENCH_serve.json";
    match std::fs::write(json_path, report.to_json()) {
        Ok(()) => eprintln!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
    println!(
        "clients {:>3}   completed {:>5}   errors {:>3}   throughput {:>8.1} req/s",
        report.clients, report.completed, report.errors, report.throughput_rps
    );
    println!(
        "latency  p50 {:>8}us   p95 {:>8}us   p99 {:>8}us",
        report.p50_us, report.p95_us, report.p99_us
    );
    println!(
        "shared cache: cold {:>8}us   warm {:>8}us   speedup {:>6.1}x   identical {}",
        report.cold_us, report.warm_us, report.warm_speedup, report.identical
    );
    println!(
        "warm half: {:>4} requests, {:>5.1}% methods from cache",
        report.warm_requests,
        report.warm_hit_rate * 100.0
    );
    println!(
        "edits of the warm app: {:>3} sent by edit, identical to a whole send {}",
        report.edits, report.edit_identical
    );
    if report.probe_sent > 0 {
        println!(
            "overload probe: {} sent, {} rejected Overloaded",
            report.probe_sent, report.probe_rejected
        );
    }
}

/// `experiments restart [--workers N] [--methods N]` — a daemon
/// restarted over its own disk directory against true cold and
/// memory-warm builds (see `bench::restart`). Exits 1 unless
/// [`bench::restart_gate`] passes.
fn run_restart(args: &[String]) {
    let (mut workers, mut methods) = (4, 900);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> &String {
            it.next().unwrap_or_else(|| {
                eprintln!("experiments restart: {name} requires a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--workers" => workers = parse_flag(value("--workers"), "--workers"),
            "--methods" => methods = parse_flag(value("--methods"), "--methods"),
            other => {
                eprintln!("experiments restart: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    header("calibrod restart: disk-warm vs true-cold and memory-warm");
    let report = bench::restart_load(workers, methods);
    let json_path = "BENCH_restart.json";
    match std::fs::write(json_path, report.to_json()) {
        Ok(()) => eprintln!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
    let [true_cold, disk_cold, restart, memory_warm] = report.walls_us;
    println!(
        "methods {:>5}   errors {}   true-cold {true_cold:>8}us   disk-cold {disk_cold:>8}us   \
         restart {restart:>8}us   memory-warm {memory_warm:>8}us",
        report.methods, report.errors,
    );
    println!(
        "restart speedup {:>5.2}x   identical {}   all from cache {}   \
         restart disk hits {} / stores {}",
        report.restart_speedup,
        report.identical,
        report.all_from_cache,
        report.restart_disk_hits,
        report.restart_stores
    );
    match bench::restart_gate(&report) {
        Ok(()) => println!("restart gate passed"),
        Err(failures) => {
            for failure in failures {
                eprintln!("restart gate: {failure}");
            }
            std::process::exit(1);
        }
    }
}

/// `experiments drift [--socket PATH | --addr HOST:PORT] [--workers N]`
/// — the profile-feedback re-optimization arm (see `bench::drift`):
/// phase shift, drift-triggered refresh, no-serving-gap and
/// byte-determinism checks, written to `BENCH_drift.json`.
fn run_drift(args: &[String]) {
    let mut config = bench::DriftConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> &String {
            it.next().unwrap_or_else(|| {
                eprintln!("experiments drift: {name} requires a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--socket" | "--addr" => config.endpoint = Some(endpoint(flag, value(flag))),
            "--workers" => config.workers = parse_flag(value("--workers"), "--workers"),
            other => {
                eprintln!("experiments drift: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    header("calibrod profile feedback: drift-triggered re-optimization");
    let report = bench::drift_feedback(&config);
    let json_path = "BENCH_drift.json";
    match std::fs::write(json_path, report.to_json()) {
        Ok(()) => eprintln!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
    println!(
        "generations {} -> {}   uploads to refresh {:>2}   drift {:.1}% -> {:.1}%",
        report.gen1,
        report.gen2,
        report.uploads_to_refresh,
        report.drift_ppm_at_refresh as f64 / 10_000.0,
        report.drift_ppm_after as f64 / 10_000.0
    );
    println!(
        "during refresh: {:>3} fetches answered, {} serving-gap errors",
        report.fetches_during_refresh, report.serving_gap_errors
    );
    println!(
        "byte-stable: gen1 {}   gen2 {}   elf {} -> {} bytes (hot set {})",
        report.gen1_byte_stable,
        report.gen2_byte_stable,
        report.elf_len_gen1,
        report.elf_len_gen2,
        report.hot_set_size
    );
    println!(
        "phase-B cycles: stale {:>10}   fresh {:>10}   recovered {}",
        report.phase_b_cycles_stale, report.phase_b_cycles_fresh, report.perf_recovered
    );
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
        eprintln!("experiments: {flag} {value}: unix sockets are not supported on this platform");
        std::process::exit(2);
    }
}

fn parse_flag<T: std::str::FromStr>(raw: &str, flag: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("experiments serve: invalid value {raw:?} for {flag}");
        std::process::exit(2);
    })
}

fn print_incremental(apps: &[calibro_workloads::App]) {
    header(&format!(
        "Incremental rebuild: cold vs warm wall time after a {:.0}% method update",
        WARM_MUTATION_FRACTION * 100.0
    ));
    let rows = warm_rebuild(apps);
    let json_path = "BENCH_warm_rebuild.json";
    match std::fs::write(json_path, bench::warm_rebuild_json(&rows)) {
        Ok(()) => eprintln!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
    println!(
        "{:>10} {:>12} {:>8} {:>8} {:>10} {:>10} {:>8} {:>9} {:>9} {:>7}",
        "app",
        "variant",
        "methods",
        "mutated",
        "cold",
        "warm",
        "speedup",
        "hit rate",
        "grp rate",
        "bytes"
    );
    for r in &rows {
        println!(
            "{:>10} {:>12} {:>8} {:>8} {:>8.1}ms {:>8.1}ms {:>7.1}x {:>8.1}% {:>8.1}% {:>7}",
            r.app,
            r.variant,
            r.methods,
            r.mutated,
            r.cold.as_secs_f64() * 1000.0,
            r.warm.as_secs_f64() * 1000.0,
            r.speedup(),
            r.hit_rate * 100.0,
            r.group_hit_rate * 100.0,
            if r.digests_match { "match" } else { "DIFFER" }
        );
    }
    // The Table 4 trade-off behind the sharded arm: finer detection
    // groups buy incrementality but give back some size vs one global
    // tree. Report the regression so it is a number, not a surprise.
    println!();
    println!("{:>10} {:>12} {:>12} {:>12}", "app", "global .text", "sharded", "regression");
    let mut i = 0;
    while i < rows.len() {
        let app = &rows[i].app;
        let by = |v: &str| rows[i..].iter().filter(|r| r.app == *app).find(|r| r.variant == v);
        if let (Some(g), Some(p)) = (by("cto_ltbo"), by("cto_ltbo_pl")) {
            let regression = p.text_bytes as f64 / g.text_bytes as f64 - 1.0;
            println!(
                "{:>10} {:>11}K {:>11}K {:>11.2}%",
                app,
                g.text_bytes / 1024,
                p.text_bytes / 1024,
                regression * 100.0
            );
        }
        while i < rows.len() && rows[i].app == *app {
            i += 1;
        }
    }
    // Warm hot-path anatomy (sharded arm): where the residual warm
    // wall time goes. Keys is the fingerprint+probe phase, detect the
    // re-detection of the groups whose plan missed (zero when every
    // plan replays: probes and replay are outside it); both must stay
    // small next to the CPU
    // cost the cache *elides* — the cold build's compile CPU. (Dividing
    // by the warm build's own compile CPU would grade the probe against
    // the near-zero cost of compiling just the delta and report >100%
    // on a healthy cache.)
    println!();
    println!("{:>10} {:>10} {:>10} {:>14} {:>10}", "app", "keys", "detect", "cold cpu", "keys/cpu");
    for r in rows.iter().filter(|r| r.variant == "cto_ltbo_pl") {
        let s = &r.warm_stats;
        let cpu = r.cold_compile_cpu.as_secs_f64();
        println!(
            "{:>10} {:>8.2}ms {:>8.2}ms {:>12.2}ms {:>9.1}%",
            r.app,
            s.key_time.as_secs_f64() * 1000.0,
            s.detect_time.as_secs_f64() * 1000.0,
            cpu * 1000.0,
            if cpu > 0.0 { s.key_time.as_secs_f64() / cpu * 100.0 } else { 0.0 }
        );
    }
}

fn print_ablation(apps: &[calibro_workloads::App]) {
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

fn print_table1(apps: &[calibro_workloads::App]) {
    header("Table 1: estimated code size reduction ratios (suffix-tree analysis, paper avg 25.4%)");
    let rows = table1(apps);
    let mut sum = 0.0;
    print!("{:24}", "app");
    for r in &rows {
        print!("{:>10}", r.app);
    }
    println!("{:>10}", "AVG");
    print!("{:24}", "estimated reduction");
    for r in &rows {
        sum += r.estimated_ratio;
        print!("{:>9.1}%", r.estimated_ratio * 100.0);
    }
    println!("{:>9.1}%", sum / rows.len() as f64 * 100.0);
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

fn print_fig3(apps: &[calibro_workloads::App]) {
    let app = apps.iter().find(|a| a.name == "wechat").unwrap_or(&apps[0]);
    header(&format!("Figure 3: sequence length vs number of repeats ({} baseline)", app.name));
    println!("{:>6} {:>12} {:>14}", "len", "sequences", "total repeats");
    for p in fig3(app, 16) {
        println!("{:>6} {:>12} {:>14}", p.len, p.sequences, p.total_repeats);
    }
}

fn print_fig4(apps: &[calibro_workloads::App]) {
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

fn print_table4(apps: &[calibro_workloads::App]) {
    header("Table 4: OAT .text size per variant (paper: CTO 3.56%, +LTBO 19.19%, +PlOpti 16.40%, +HfOpti 15.19%)");
    let cols = table4(apps);
    print!("{:24}", "");
    for c in &cols {
        print!("{:>10}", c.app);
    }
    println!("{:>10}", "AVG");
    for (i, v) in Variant::ALL.into_iter().enumerate() {
        print!("{:24}", v.label());
        for c in &cols {
            print!("{:>9}K", c.bytes[i] / 1024);
        }
        println!();
    }
    for i in 1..5 {
        print!("{:24}", format!("{} reduction", Variant::ALL[i].label()));
        let mut sum = 0.0;
        for c in &cols {
            sum += c.ratio(i);
            print!("{:>9.2}%", c.ratio(i) * 100.0);
        }
        println!("{:>9.2}%", sum / cols.len() as f64 * 100.0);
    }
}

fn print_table5(apps: &[calibro_workloads::App]) {
    header("Table 5: memory usage after the trace (paper: CTO 2.03%, CTO+LTBO 6.82%)");
    let cols = table5(apps);
    print!("{:24}", "");
    for c in &cols {
        print!("{:>10}", c.app);
    }
    println!("{:>10}", "AVG");
    for (i, name) in ["Baseline", "CTO", "CTO+LTBO"].iter().enumerate() {
        print!("{:24}", *name);
        for c in &cols {
            print!("{:>9}K", c.resident[i] / 1024);
        }
        println!();
    }
    for i in 1..3 {
        print!("{:24}", format!("{} reduction", ["", "CTO", "CTO+LTBO"][i]));
        let mut sum = 0.0;
        for c in &cols {
            sum += c.ratio(i);
            print!("{:>9.2}%", c.ratio(i) * 100.0);
        }
        println!("{:>9.2}%", sum / cols.len() as f64 * 100.0);
    }
}

fn print_table6(apps: &[calibro_workloads::App]) {
    header("Table 6: building time (paper: single tree +489.5%, PlOpti +70.8%)");
    let cols = table6(apps);
    // Dump the full observability payload (per-phase wall/cpu timings,
    // pass counters, per-worker loads) next to the human-readable table.
    let json_path = "BENCH_table6.json";
    match std::fs::write(json_path, bench::table6_json(&cols)) {
        Ok(()) => eprintln!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
    print!("{:24}", "");
    for c in &cols {
        print!("{:>10}", c.app);
    }
    println!("{:>10}", "AVG");
    for (i, name) in ["Baseline", "CTO+LTBO", "CTO+LTBO+PlOpti"].iter().enumerate() {
        print!("{:24}", *name);
        for c in &cols {
            print!("{:>8.0}ms", c.times[i].as_secs_f64() * 1000.0);
        }
        println!();
    }
    for i in 1..3 {
        print!("{:24}", format!("{} growth", ["", "CTO+LTBO", "+PlOpti"][i]));
        let mut sum = 0.0;
        for c in &cols {
            sum += c.growth(i);
            print!("{:>9.0}%", c.growth(i) * 100.0);
        }
        println!("{:>9.0}%", sum / cols.len() as f64 * 100.0);
    }
}

fn print_table7(apps: &[calibro_workloads::App]) {
    header("Table 7: runtime performance in CPU cycles (paper: PlOpti +1.51%, +HfOpti +0.90%)");
    let cols = table7(apps, 3);
    print!("{:24}", "");
    for c in &cols {
        print!("{:>10}", c.app);
    }
    println!("{:>10}", "AVG");
    for (i, name) in ["Baseline", "CTO+LTBO+PlOpti", "+HfOpti"].iter().enumerate() {
        print!("{:24}", *name);
        for c in &cols {
            print!("{:>9}K", c.cycles[i] / 1000);
        }
        println!();
    }
    for i in 1..3 {
        print!("{:24}", format!("{} degradation", ["", "PlOpti", "+HfOpti"][i]));
        let mut sum = 0.0;
        for c in &cols {
            sum += c.degradation(i);
            print!("{:>9.2}%", c.degradation(i) * 100.0);
        }
        println!("{:>9.2}%", sum / cols.len() as f64 * 100.0);
    }
    let _ = build_variant(&apps[0], Variant::Baseline); // keep the API exercised
}
