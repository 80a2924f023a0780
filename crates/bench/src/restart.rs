//! `experiments restart` — what a fresh daemon pays for a program an
//! earlier daemon built. Each of [`ROUNDS`] rounds builds its own
//! program four times, timing the four walls of [`RestartReport`] in
//! order: on a daemon without a disk directory that has never seen it
//! (true cold); on a daemon over an empty directory, which then drains
//! (disk cold); on a fresh daemon over that directory, where every
//! lookup is a disk hit and the reply must equal the true-cold one byte
//! for byte (restart); and on the restarted daemon at another load
//! address, where every lookup is a memory hit (memory-warm — the same
//! options would be answered from its replay slot without building).
//! Walls are medians over the rounds, the speedup the median of the
//! per-round `true_cold / restart` ratios. The record is
//! `BENCH_restart.json`.

use std::path::PathBuf;
use std::time::Instant;

use calibro::{BuildOptions, CacheConfig};
use calibro_dex::DexFile;
use calibro_server::{BuildReply, Client, Daemon, ServerConfig};
use calibro_workloads::{generate, AppSpec};

use crate::daemon_or;
use crate::record::{gate, micros, quantile, report};

/// Programs measured; each round builds a distinct one.
pub const ROUNDS: usize = 5;

report! {
    /// What the restart arm measured. Walls are medians over the rounds
    /// in µs.
    pub struct RestartReport {
        /// Methods per program.
        pub methods: usize,
        /// Rounds run: [`ROUNDS`].
        pub rounds: usize,
        /// Builds that failed.
        pub errors: usize,
        /// On a daemon without a disk directory that never saw the program.
        pub true_cold_us: u64,
        /// On a daemon over an empty directory.
        pub disk_cold_us: u64,
        /// On a fresh daemon over that directory.
        pub restart_us: u64,
        /// On the restarted daemon again, at another load address.
        pub memory_warm_us: u64,
        /// Median of the per-round `true_cold / restart` ratios.
        pub restart_speedup: f64,
        /// Every disk-cold and restart reply equalled its round's
        /// true-cold reply byte for byte.
        pub identical: bool,
        /// Every restart and memory-warm build took every method from
        /// the store.
        pub all_from_cache: bool,
        /// Disk hits (both lanes) of the restart builds.
        pub restart_disk_hits: u64,
        /// Store inserts (both lanes) of the restart builds: 0 when the
        /// directory held everything.
        pub restart_stores: u64,
    }
}

/// The restart arm's exact gate, with no timing in it: no build
/// failed, every disk-cold and restart reply equalled its round's
/// true-cold one, every restart and memory-warm build took every method
/// from the store, and no restart stored anything.
///
/// # Errors
///
/// One line per failed check.
pub fn restart_gate(report: &RestartReport) -> Result<(), Vec<String>> {
    gate([
        (report.errors == 0, format!("{} builds failed", report.errors)),
        (report.identical, "a disk-cold or restart reply differs from true cold".to_owned()),
        (report.all_from_cache, "a restart or memory-warm build compiled a method".to_owned()),
        (report.restart_stores == 0, format!("the restarts stored {}", report.restart_stores)),
    ])
}

fn start(tag: &str, workers: usize, disk_dir: Option<PathBuf>) -> (Daemon, Client) {
    let cache = CacheConfig { disk_dir, ..CacheConfig::default() };
    let (daemon, endpoint) =
        daemon_or(None, tag, ServerConfig { workers, cache, ..ServerConfig::default() });
    (
        daemon.expect("no endpoint, so an in-process daemon"),
        endpoint.client().expect("connect to the daemon"),
    )
}

/// One timed build: its wall in µs and its reply, `None` on an error.
fn timed(client: &mut Client, dex: &DexFile, options: &BuildOptions) -> (u64, Option<BuildReply>) {
    let t = Instant::now();
    let reply = client.build(dex, options, None).ok();
    (micros(t.elapsed()), reply)
}

/// Runs the restart arm on in-process daemons of `workers` workers
/// each, over programs of `methods` methods.
///
/// # Panics
///
/// On setup failures (bind, daemon start, connect).
#[must_use]
pub fn restart_load(workers: usize, methods: usize) -> RestartReport {
    let options = BuildOptions::cto_ltbo();
    let moved = BuildOptions { base_address: options.base_address + 0x10_0000, ..options.clone() };
    let (memory_only, mut cold_client) = start("restart-cold", workers, None);
    let mut report = RestartReport {
        methods,
        rounds: ROUNDS,
        identical: true,
        all_from_cache: true,
        ..RestartReport::default()
    };
    let mut walls: [Vec<u64>; 4] = Default::default();
    let mut ratios = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let spec = AppSpec::small(&format!("restart-{round}"), 1 + round as u64);
        let dex = generate(&AppSpec { methods, classes: 12, ..spec }).dex;
        let dir =
            std::env::temp_dir().join(format!("calibro-restart-{}-{round}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let (true_cold, cold) = timed(&mut cold_client, &dex, &options);
        let (first, mut client) = start("restart-disk", workers, Some(dir.clone()));
        let (disk_cold, written) = timed(&mut client, &dex, &options);
        drop(client);
        first.shutdown();
        let (second, mut client) = start("restart-disk", workers, Some(dir.clone()));
        let (restart, restarted) = timed(&mut client, &dex, &options);
        let cache = second.stats().cache;
        let (memory_warm, warm) = timed(&mut client, &dex, &moved);
        drop(client);
        second.shutdown();
        let _ = std::fs::remove_dir_all(&dir);

        for (samples, wall) in walls.iter_mut().zip([true_cold, disk_cold, restart, memory_warm]) {
            samples.push(wall);
        }
        #[allow(clippy::cast_precision_loss)]
        ratios.push(true_cold as f64 / restart.max(1) as f64);
        report.restart_disk_hits += cache.disk_hits + cache.group_disk_hits;
        report.restart_stores += cache.stores + cache.group_stores;
        let replies = [cold, written, restarted, warm];
        report.errors += replies.iter().filter(|r| r.is_none()).count();
        let [Some(cold), Some(written), Some(restarted), Some(warm)] = replies else { continue };
        report.identical &= written.elf == cold.elf && restarted.elf == cold.elf;
        report.all_from_cache &=
            [&restarted, &warm].iter().all(|r| r.methods_from_cache == r.methods);
    }
    drop(cold_client);
    memory_only.shutdown();
    let [true_cold_us, disk_cold_us, restart_us, memory_warm_us] =
        walls.map(|samples| quantile(&samples, 0.5));
    let restart_speedup = quantile(&ratios, 0.5);
    RestartReport {
        true_cold_us,
        disk_cold_us,
        restart_us,
        memory_warm_us,
        restart_speedup,
        ..report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{assert_each_break_fails_alone, Break};

    #[test]
    fn the_restart_gate_names_each_broken_check() {
        let passing = RestartReport { identical: true, all_from_cache: true, ..Default::default() };
        let breaks: [Break<RestartReport>; 4] = [
            (|r| r.errors = 2, "2 builds failed"),
            (|r| r.identical = false, "a disk-cold or restart reply differs from true cold"),
            (|r| r.all_from_cache = false, "a restart or memory-warm build compiled a method"),
            (|r| r.restart_stores = 7, "the restarts stored 7"),
        ];
        assert_each_break_fails_alone(&passing, restart_gate, &breaks);
    }
}
