//! The conformance driver.
//!
//! ```text
//! conform --seeds N [--generator NAME] [--no-shrink] [--warm]
//!     Sweep N seeds through the full configuration matrix. Exit 0 on
//!     zero divergences; on a divergence, shrink it, print a ready-to-
//!     paste reproducer plus the corpus seed line, and exit 1. With
//!     --warm, every matrix row is built twice through one BuildSession
//!     and the cache-replayed OAT must match the cold build bit for bit
//!     in addition to passing the oracle.
//!
//! conform --shrink GENERATOR SEED VARIANT-LABEL
//!     Re-run one known case and minimize it. Exits 1 if the case does
//!     not diverge (nothing to shrink).
//!
//! conform --mutate [--seeds N] [--seed S]
//!     Fault-inject: flip one encoded instruction post-link and demand
//!     the oracle detects it, then shrink the detected case. Exit 0 iff
//!     every injected miscompile was detected and shrank to a small
//!     reproducer — this tests the oracle itself.
//!
//! conform --fleet [--seeds N]
//!     Fleet smoke: start two peered in-process calibrod shards, build
//!     every program on shard A and then on cold shard B (peer-served
//!     over `PeerGet`), and demand (a) byte-identical ELF output from
//!     both shards and (b) that the peer-served artifact passes the
//!     differential oracle against the interpreter baseline. Exit 0 on
//!     zero divergences.
//!
//! conform --drift [--seeds N]
//!     Profile-feedback smoke: for every program, register it as a
//!     calibrod tenant, upload a skewed profile until a re-optimization
//!     flips the serving generation, and demand (a) byte identity
//!     within each generation across repeated fetches and (b) that
//!     both the pre-flip and the post-flip (hot-set-restricted)
//!     artifacts pass the differential oracle against the interpreter
//!     baseline. Exit 0 on zero divergences.
//! ```

use std::process::ExitCode;

use calibro_conform::{
    check_variant, check_variant_warm, divergence_of, find_detected_mutation, find_variant,
    full_matrix, reproducer, run_baseline, shrink_divergence, Program, SeedLine,
};
use calibro_workloads::generators::all_generators;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seeds = 50usize;
    let mut seed_base = 0u64;
    let mut generator_filter: Option<String> = None;
    let mut do_shrink = true;
    let mut warm = false;
    let mut mode = Mode::Sweep;
    let mut positional = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                seeds = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                seed_base = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--generator" => {
                i += 1;
                generator_filter = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--no-shrink" => do_shrink = false,
            "--warm" => warm = true,
            "--shrink" => mode = Mode::ShrinkOne,
            "--mutate" => mode = Mode::Mutate,
            "--fleet" => mode = Mode::Fleet,
            "--drift" => mode = Mode::Drift,
            "--help" | "-h" => {
                usage();
            }
            other if !other.starts_with('-') => positional.push(other.to_owned()),
            _ => usage(),
        }
        i += 1;
    }

    match mode {
        Mode::Sweep => sweep(seeds, generator_filter.as_deref(), do_shrink, warm),
        Mode::ShrinkOne => shrink_one(&positional),
        Mode::Mutate => mutate(seeds.min(8), seed_base),
        Mode::Fleet => fleet(if seeds == 50 { 10 } else { seeds }),
        Mode::Drift => drift(if seeds == 50 { 6 } else { seeds }),
    }
}

enum Mode {
    Sweep,
    ShrinkOne,
    Mutate,
    Fleet,
    Drift,
}

fn usage() -> ! {
    eprintln!(
        "usage: conform [--seeds N] [--generator NAME] [--no-shrink] [--warm]\n\
         \x20      conform --shrink GENERATOR SEED VARIANT-LABEL\n\
         \x20      conform --mutate [--seeds N] [--seed S]\n\
         \x20      conform --fleet [--seeds N]\n\
         \x20      conform --drift [--seeds N]"
    );
    std::process::exit(2);
}

/// Sweep mode: every seed × every generator × the full matrix. With
/// `warm`, every row also exercises a cache-replayed rebuild.
fn sweep(seeds: usize, generator_filter: Option<&str>, do_shrink: bool, warm: bool) -> ExitCode {
    let generators = all_generators();
    let variants = full_matrix();
    let mut programs = 0usize;
    let mut checks = 0usize;
    for seed in 0..seeds as u64 {
        for g in &generators {
            if generator_filter.is_some_and(|f| f != g.name()) {
                continue;
            }
            let program = Program::from_app(g.name(), seed, g.generate(seed));
            programs += 1;
            let baseline = match run_baseline(&program) {
                Ok(b) => b,
                Err(d) => return report(&program, "baseline", &d, do_shrink),
            };
            for variant in &variants {
                checks += 1;
                let result = if warm {
                    check_variant_warm(&program, &baseline, variant)
                } else {
                    check_variant(&program, &baseline, variant, None)
                };
                if let Err(d) = result {
                    let label = variant.label.clone();
                    return report(&program, &label, &d, do_shrink);
                }
            }
        }
        if (seed + 1) % 10 == 0 {
            println!(
                "  seed {}/{seeds}: {programs} programs, {checks} matrix checks, 0 divergences",
                seed + 1
            );
        }
    }
    let kind = if warm { "warm " } else { "" };
    println!(
        "conform: {programs} programs x {} matrix rows = {checks} {kind}checks, zero divergences",
        variants.len()
    );
    ExitCode::SUCCESS
}

/// Shrink-one mode: reproduce a corpus line and minimize it.
fn shrink_one(positional: &[String]) -> ExitCode {
    let [generator, seed, label] = positional else { usage() };
    let Ok(seed) = seed.parse::<u64>() else { usage() };
    let Some(program) = Program::from_seed(generator, seed) else {
        eprintln!("conform: unknown generator `{generator}`");
        return ExitCode::FAILURE;
    };
    let Some(variant) = find_variant(label) else {
        eprintln!("conform: unknown variant `{label}`");
        return ExitCode::FAILURE;
    };
    match divergence_of(&program, &variant, None) {
        None => {
            println!("conform: {generator} {seed} {label} does not diverge — nothing to shrink");
            ExitCode::FAILURE
        }
        Some(d) => report(&program, &variant.label.clone(), &d, true),
    }
}

/// Mutate mode: inject `trials` miscompiles; each must be detected and
/// must shrink to a small reproducer.
fn mutate(trials: usize, seed_base: u64) -> ExitCode {
    let variant = find_variant("ltbo-global/all/t1").expect("known matrix row");
    for trial in 0..trials as u64 {
        let seed = seed_base + trial;
        // art-call programs are small and call-dense: most bit flips land
        // in live code, and shrinking converges fast.
        let program = Program::from_seed("art-call", seed).expect("known generator");
        let baseline = match run_baseline(&program) {
            Ok(b) => b,
            Err(d) => {
                eprintln!("conform --mutate: baseline itself failed: {d}");
                return ExitCode::FAILURE;
            }
        };
        let Some((mutation, divergence)) =
            find_detected_mutation(&program, &baseline, &variant, seed, 400)
        else {
            eprintln!(
                "conform --mutate: no injected miscompile detected in 400 attempts (seed {seed}) \
                 — the oracle is blind"
            );
            return ExitCode::FAILURE;
        };
        println!(
            "trial {trial}: injected {mutation:?} into `{}`, detected:\n  {divergence}",
            variant.label
        );
        let (minimized, final_divergence) = shrink_divergence(&program, &variant, Some(&mutation));
        println!(
            "trial {trial}: shrunk {} -> {} methods, {} -> {} insns, {} -> {} trace calls",
            program.dex.methods().len(),
            minimized.dex.methods().len(),
            program.dex.total_insns(),
            minimized.dex.total_insns(),
            program.trace.len(),
            minimized.trace.len()
        );
        if minimized.dex.methods().len() > 3 {
            eprintln!(
                "conform --mutate: reproducer still has {} methods (> 3)",
                minimized.dex.methods().len()
            );
            return ExitCode::FAILURE;
        }
        println!("--- minimized reproducer ---");
        println!("{}", reproducer(&minimized, &variant.label, &final_divergence));
    }
    println!("conform --mutate: all {trials} injected miscompiles detected and shrunk");
    ExitCode::SUCCESS
}

/// Prints the divergence, optionally shrinks, and emits the reproducer
/// plus the corpus seed line. Always exits 1: a divergence is a failure.
fn report(
    program: &Program,
    label: &str,
    divergence: &calibro_conform::Divergence,
    do_shrink: bool,
) -> ExitCode {
    eprintln!("conform: DIVERGENCE on {} seed {}:", program.generator, program.seed);
    eprintln!("  {divergence}");
    let seed_line = SeedLine {
        generator: program.generator.clone(),
        seed: program.seed,
        variant: label.to_owned(),
    };
    eprintln!("corpus line (append to crates/calibro-conform/corpus/regressions.txt):");
    eprintln!("  {seed_line}");
    if do_shrink {
        if let Some(variant) = find_variant(label) {
            let (minimized, final_divergence) = shrink_divergence(program, &variant, None);
            eprintln!(
                "shrunk to {} methods / {} insns / {} trace calls",
                minimized.dex.methods().len(),
                minimized.dex.total_insns(),
                minimized.trace.len()
            );
            eprintln!("--- minimized reproducer ---");
            eprintln!("{}", reproducer(&minimized, label, &final_divergence));
        }
    }
    ExitCode::FAILURE
}

/// Fleet-smoke mode: two peered in-process shards; every program built
/// on shard A must be served byte-identically to cold shard B over the
/// peer tier, and the peer-served artifact must pass the oracle.
#[cfg(unix)]
fn fleet(seeds: usize) -> ExitCode {
    use calibro_server::{Daemon, Listener, ServerConfig, ShardEndpoint, ShardSpec};

    let specs: Vec<ShardSpec> = (0..2u32)
        .map(|i| {
            let socket = std::env::temp_dir()
                .join(format!("calibrod-conform-{}-{i}.sock", std::process::id()));
            let _ = std::fs::remove_file(&socket);
            ShardSpec { id: i, endpoint: ShardEndpoint::Unix(socket) }
        })
        .collect();
    let daemons: Vec<Daemon> = specs
        .iter()
        .map(|spec| {
            let ShardEndpoint::Unix(path) = &spec.endpoint else { unreachable!() };
            Daemon::start(
                Listener::unix(path).expect("bind conform fleet socket"),
                ServerConfig {
                    workers: 2,
                    shard_id: spec.id,
                    peers: specs.clone(),
                    ..ServerConfig::default()
                },
            )
            .expect("start conform fleet shard")
        })
        .collect();
    let mut client_a = specs[0].endpoint.client().expect("connect shard A");
    let mut client_b = specs[1].endpoint.client().expect("connect shard B");

    // The most artifact-heavy arm: CTO + global LTBO exercises both the
    // method lane and the group-plan lane of the peer tier.
    let variant = find_variant("ltbo-global/all/t1").expect("known matrix row");
    let generators = all_generators();
    let mut programs = 0usize;
    let outcome = 'sweep: {
        for seed in 0..seeds as u64 {
            for g in &generators {
                let program = Program::from_app(g.name(), seed, g.generate(seed));
                programs += 1;
                let baseline = match run_baseline(&program) {
                    Ok(b) => b,
                    Err(d) => break 'sweep Some((program, "baseline".to_owned(), d)),
                };
                let label = format!("fleet/{}", variant.label);
                let reply_a = match client_a.build(&program.dex, &variant.options, None) {
                    Ok(r) => r,
                    Err(e) => {
                        let d = calibro_conform::Divergence::BuildFailed {
                            label: label.clone(),
                            error: format!("shard A build failed: {e}"),
                        };
                        break 'sweep Some((program, label, d));
                    }
                };
                let reply_b = match client_b.build(&program.dex, &variant.options, None) {
                    Ok(r) => r,
                    Err(e) => {
                        let d = calibro_conform::Divergence::BuildFailed {
                            label: label.clone(),
                            error: format!("shard B build failed: {e}"),
                        };
                        break 'sweep Some((program, label, d));
                    }
                };
                if reply_a.elf != reply_b.elf {
                    let d = calibro_conform::Divergence::WarmMismatch {
                        label: label.clone(),
                        detail: format!(
                            "peer-served ELF differs from shard A's ({} vs {} bytes)",
                            reply_b.elf.len(),
                            reply_a.elf.len()
                        ),
                    };
                    break 'sweep Some((program, label, d));
                }
                let oat = match calibro_oat::from_elf_bytes(&reply_b.elf) {
                    Ok(oat) => oat,
                    Err(e) => {
                        let d = calibro_conform::Divergence::Structure {
                            label: label.clone(),
                            error: format!("peer-served ELF failed to load: {e:?}"),
                        };
                        break 'sweep Some((program, label, d));
                    }
                };
                if let Err(d) = calibro_conform::check_oat(&program, &baseline, &label, &oat) {
                    break 'sweep Some((program, label, d));
                }
            }
        }
        None
    };

    let stats_b = client_b.server_stats().expect("shard B stats");
    for daemon in daemons {
        daemon.shutdown();
    }
    if let Some((program, label, d)) = outcome {
        // Fleet divergences are not shrinkable through the local build
        // path, so report without shrinking.
        return report(&program, &label, &d, false);
    }
    let peer_hits = stats_b.cache.peer_hits + stats_b.cache.group_peer_hits;
    if peer_hits == 0 {
        eprintln!("conform --fleet: shard B never hit the peer tier — the smoke proved nothing");
        return ExitCode::FAILURE;
    }
    println!(
        "conform --fleet: {programs} programs peer-served byte-identical through 2 shards \
         ({peer_hits} peer hits), zero divergences"
    );
    ExitCode::SUCCESS
}

#[cfg(not(unix))]
fn fleet(_seeds: usize) -> ExitCode {
    eprintln!("conform --fleet requires unix sockets on this platform");
    ExitCode::SUCCESS
}

/// Drift-smoke mode: every program becomes a calibrod tenant whose
/// profile shifts until a background re-optimization flips the serving
/// generation. Byte identity is demanded within each generation, and
/// both generations' artifacts must pass the differential oracle —
/// the hot-set-restricted rebuild must be a pure size/speed trade, not
/// a semantic change.
#[cfg(unix)]
#[allow(clippy::too_many_lines)]
fn drift(seeds: usize) -> ExitCode {
    use std::time::{Duration, Instant};

    use calibro_server::{Daemon, Listener, ServerConfig};

    let socket = std::env::temp_dir().join(format!("calibrod-drift-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let daemon = Daemon::start(
        Listener::unix(&socket).expect("bind conform drift socket"),
        ServerConfig { workers: 2, ..ServerConfig::default() },
    )
    .expect("start conform drift daemon");
    let mut client = calibro_server::Client::connect_unix(&socket).expect("connect");

    let variant = find_variant("ltbo-global/all/t1").expect("known matrix row");
    let generators = all_generators();
    let mut programs = 0usize;
    let mut flips = 0usize;
    let outcome = 'sweep: {
        for seed in 0..seeds as u64 {
            for g in &generators {
                let program = Program::from_app(g.name(), seed, g.generate(seed));
                programs += 1;
                let tenant = format!("{}-{seed}", g.name());
                let baseline = match run_baseline(&program) {
                    Ok(b) => b,
                    Err(d) => break 'sweep Some((program, "baseline".to_owned(), d)),
                };
                let label = format!("drift/{}", variant.label);
                // Generation 1: unrestricted tenant build.
                let gen1 =
                    match client.build_for_tenant(&tenant, &program.dex, &variant.options, None) {
                        Ok(r) => r,
                        Err(e) => {
                            let d = calibro_conform::Divergence::BuildFailed {
                                label: label.clone(),
                                error: format!("tenant build failed: {e}"),
                            };
                            break 'sweep Some((program, label, d));
                        }
                    };
                if let Err(d) = check_elf(&program, &baseline, &label, &gen1.elf) {
                    break 'sweep Some((program, label, d));
                }
                // A skewed profile: every third method carries all the
                // weight. Against the unrestricted serving generation
                // (empty hot set) the drift is the full hot fraction,
                // so the first upload schedules the refresh.
                let mut profile_text = String::new();
                for (i, _) in program.dex.methods().iter().enumerate().step_by(3) {
                    profile_text.push_str(&format!("{i} 1000000\n"));
                }
                match client.upload_profile(&tenant, &profile_text) {
                    Ok(reply) if reply.refresh_scheduled => {}
                    Ok(reply) => {
                        let d = calibro_conform::Divergence::BuildFailed {
                            label: label.clone(),
                            error: format!("skewed upload did not schedule a refresh: {reply:?}"),
                        };
                        break 'sweep Some((program, label, d));
                    }
                    Err(e) => {
                        let d = calibro_conform::Divergence::BuildFailed {
                            label: label.clone(),
                            error: format!("profile upload failed: {e}"),
                        };
                        break 'sweep Some((program, label, d));
                    }
                }
                // Fetch continuously until the flip: every reply must
                // be byte-identical within its generation.
                let deadline = Instant::now() + Duration::from_secs(120);
                let gen2 = loop {
                    if Instant::now() > deadline {
                        let d = calibro_conform::Divergence::BuildFailed {
                            label: label.clone(),
                            error: "refresh never flipped the serving generation".to_owned(),
                        };
                        break 'sweep Some((program, label, d));
                    }
                    match client.build_for_tenant(&tenant, &program.dex, &variant.options, None) {
                        Ok(r) if r.generation == gen1.generation => {
                            if r.elf != gen1.elf {
                                let d = calibro_conform::Divergence::WarmMismatch {
                                    label: label.clone(),
                                    detail: "generation 1 bytes changed between fetches".to_owned(),
                                };
                                break 'sweep Some((program, label, d));
                            }
                        }
                        Ok(r) => break r,
                        Err(e) => {
                            let d = calibro_conform::Divergence::BuildFailed {
                                label: label.clone(),
                                error: format!("serving gap during refresh: {e}"),
                            };
                            break 'sweep Some((program, label, d));
                        }
                    }
                    std::thread::sleep(Duration::from_millis(5));
                };
                flips += 1;
                // The post-flip artifact: byte-stable and oracle-clean.
                let refetch =
                    match client.build_for_tenant(&tenant, &program.dex, &variant.options, None) {
                        Ok(r) => r,
                        Err(e) => {
                            let d = calibro_conform::Divergence::BuildFailed {
                                label: label.clone(),
                                error: format!("post-flip fetch failed: {e}"),
                            };
                            break 'sweep Some((program, label, d));
                        }
                    };
                if refetch.generation != gen2.generation || refetch.elf != gen2.elf {
                    let d = calibro_conform::Divergence::WarmMismatch {
                        label: label.clone(),
                        detail: format!(
                            "generation {} bytes changed between fetches",
                            gen2.generation
                        ),
                    };
                    break 'sweep Some((program, label, d));
                }
                if let Err(d) = check_elf(&program, &baseline, &label, &gen2.elf) {
                    break 'sweep Some((program, label, d));
                }
            }
        }
        None
    };

    daemon.shutdown();
    let _ = std::fs::remove_file(&socket);
    if let Some((program, label, d)) = outcome {
        // Daemon-side divergences are not shrinkable through the local
        // build path, so report without shrinking.
        return report(&program, &label, &d, false);
    }
    println!(
        "conform --drift: {programs} tenants, {flips} generation flips, byte-stable within \
         every generation, zero divergences"
    );
    ExitCode::SUCCESS
}

/// Loads `elf` and runs the full differential oracle against the
/// interpreter baseline.
#[cfg(unix)]
fn check_elf(
    program: &Program,
    baseline: &calibro_conform::BaselineRun,
    label: &str,
    elf: &[u8],
) -> Result<(), calibro_conform::Divergence> {
    let oat =
        calibro_oat::from_elf_bytes(elf).map_err(|e| calibro_conform::Divergence::Structure {
            label: label.to_owned(),
            error: format!("served ELF failed to load: {e:?}"),
        })?;
    calibro_conform::check_oat(program, baseline, label, &oat)
}

#[cfg(not(unix))]
fn drift(_seeds: usize) -> ExitCode {
    eprintln!("conform --drift requires unix sockets on this platform");
    ExitCode::SUCCESS
}
