//! Warm-rebuild smoke: build an app through a [`BuildSession`], mutate
//! one method (an app update), rebuild, and demand that the cache
//! replays everything but the delta and reproduces a cold build bit for
//! bit; the edited clone shares every other method with the original,
//! so the rebuild hashes the key of the edited method alone. Runs two
//! arms — the global single-tree LTBO, and the sharded
//! [`LtboMode::Parallel`](calibro::LtboMode) detection whose per-group
//! plans replay from the cache — so CI gates both the method lane and
//! the group-plan lane of the incremental pipeline.
//!
//! ```text
//! cargo run --release --example warm_rebuild
//! ```

use calibro::{build, BuildOptions, BuildSession};
use calibro_workloads::{generate, mutate_methods, AppSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    check_arm("global", BuildOptions::cto_ltbo())?;
    check_arm("sharded", BuildOptions::cto_ltbo_parallel(64, 4))?;
    Ok(())
}

fn check_arm(arm: &str, options: BuildOptions) -> Result<(), Box<dyn std::error::Error>> {
    let session = BuildSession::new();

    let app = generate(&AppSpec::small("warm-smoke", 97));
    let cold = session.build(&app.dex, &options)?;
    println!(
        "[{arm}] cold build: {} methods, {} bytes of .text, {} detection group(s)",
        cold.stats.methods,
        cold.oat.text_size_bytes(),
        cold.stats.ltbo.detection_groups
    );

    // The app update: one mutated method (the fraction rounds up to 1).
    let mut edited = app.dex.clone();
    let mutated = mutate_methods(&mut edited, 5, 0.0001);
    println!("[{arm}] mutated {} method(s): {:?}", mutated.len(), mutated);

    let warm = session.build(&edited, &options)?;
    let fresh = build(&edited, &options)?;

    let hit_rate = warm.stats.cache.hit_rate();
    let group_hit_rate = warm.stats.cache.group_hit_rate();
    println!(
        "[{arm}] warm rebuild: {}/{} methods from cache, hit rate {:.1}%, group hit rate {:.1}%",
        warm.stats.methods_from_cache,
        warm.stats.methods,
        hit_rate * 100.0,
        group_hit_rate * 100.0
    );
    println!(
        "[{arm}] digests: warm {:#018x}, cold {:#018x}",
        warm.oat.text_digest(),
        fresh.oat.text_digest()
    );

    if hit_rate <= 0.9 {
        return Err(format!("[{arm}] hit rate {hit_rate:.3} not above 0.9").into());
    }
    // A one-method delta dirties at most two of the sharded arm's 64
    // content-stable groups; everything else must replay its cached plan.
    if arm == "sharded" && group_hit_rate <= 0.8 {
        return Err(format!("[{arm}] group hit rate {group_hit_rate:.3} not above 0.8").into());
    }
    // The clone shares every method it did not edit with the program the
    // session keyed, so only the edited one is hashed.
    if warm.stats.methods_keyed != mutated.len() {
        return Err(format!(
            "[{arm}] expected {} method(s) keyed, saw {}",
            mutated.len(),
            warm.stats.methods_keyed
        )
        .into());
    }
    if warm.stats.methods_from_cache != warm.stats.methods - mutated.len() {
        return Err(format!(
            "[{arm}] expected {} cache replays, saw {}",
            warm.stats.methods - mutated.len(),
            warm.stats.methods_from_cache
        )
        .into());
    }
    if calibro_oat::to_elf_bytes(&warm.oat) != calibro_oat::to_elf_bytes(&fresh.oat) {
        return Err(format!("[{arm}] warm rebuild is not byte-identical to a cold build").into());
    }
    // Hot-path budget (sharded arm, where the warm path is fully wired):
    // fingerprinting + store probes must stay well under the CPU cost of
    // compiling the whole program cold — otherwise keys are eating the
    // speedup the cache buys. Budgeted against the *cold* compile CPU
    // because the warm delta's CPU cost legitimately approaches zero.
    if arm == "sharded" {
        let keys_us = warm.stats.key_time.as_micros();
        let compile_cpu_us = cold.stats.compile_cpu_time.as_micros();
        println!(
            "[{arm}] warm keys {keys_us}µs, detect {}µs, cold compile cpu {compile_cpu_us}µs",
            warm.stats.detect_time.as_micros()
        );
        if keys_us * 2 >= compile_cpu_us {
            return Err(format!(
                "[{arm}] warm key phase {keys_us}µs is not under half the \
                 cold compile CPU {compile_cpu_us}µs"
            )
            .into());
        }
    }
    println!("[{arm}] warm rebuild OK: delta-only recompile, bit-identical output");
    Ok(())
}
