//! `experiments restart` — what a fresh daemon pays for a program an
//! earlier daemon built. Each of [`ROUNDS`] rounds builds its own
//! program four times, timing the four [`WALLS`] in order: on a daemon
//! without a disk directory that has never seen it (true cold); on a
//! daemon over an empty directory, which then drains (disk cold); on a
//! fresh daemon over that directory, where every lookup is a disk hit
//! and the reply must equal the true-cold one byte for byte (restart);
//! and on the restarted daemon at another load address, where every
//! lookup is a memory hit (memory-warm — the same options would be
//! answered from its replay slot without building). Walls are medians
//! over the rounds, the speedup the median of the per-round
//! `true_cold / restart` ratios. Results land in `BENCH_restart.json`.

use std::path::PathBuf;
use std::time::Instant;

use calibro::{BuildOptions, CacheConfig};
use calibro_dex::DexFile;
use calibro_server::{BuildReply, Client, Daemon, ServerConfig};
use calibro_workloads::{generate, AppSpec};

use crate::local_listener;

/// Programs measured; each round builds a distinct one.
pub const ROUNDS: usize = 5;

/// The four timed builds of a round, in order.
pub const WALLS: [&str; 4] = ["true_cold_us", "disk_cold_us", "restart_us", "memory_warm_us"];

/// What the restart arm measured.
#[derive(Clone, Debug, Default)]
pub struct RestartReport {
    /// Methods per program.
    pub methods: usize,
    /// Builds that failed.
    pub errors: usize,
    /// Median walls in µs, in [`WALLS`] order.
    pub walls_us: [u64; 4],
    /// Median of the per-round `true_cold / restart` ratios.
    pub restart_speedup: f64,
    /// Every disk-cold and restart reply equalled its round's true-cold
    /// reply byte for byte.
    pub identical: bool,
    /// Every restart and memory-warm build took every method from the
    /// store.
    pub all_from_cache: bool,
    /// Disk hits (both lanes) of the restart builds.
    pub restart_disk_hits: u64,
    /// Store inserts (both lanes) of the restart builds: 0 when the
    /// directory held everything.
    pub restart_stores: u64,
}

impl RestartReport {
    /// The report as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let walls: String =
            WALLS.iter().zip(self.walls_us).map(|(n, v)| format!(r#""{n}":{v},"#)).collect();
        format!(
            r#"{{"methods":{},"rounds":{ROUNDS},"errors":{},{walls}"restart_speedup":{:.3},"identical":{},"all_from_cache":{},"restart_disk_hits":{},"restart_stores":{}}}"#,
            self.methods,
            self.errors,
            self.restart_speedup,
            self.identical,
            self.all_from_cache,
            self.restart_disk_hits,
            self.restart_stores,
        )
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
    let checks = [
        (report.errors == 0, format!("{} builds failed", report.errors)),
        (report.identical, "a disk-cold or restart reply differs from true cold".to_owned()),
        (report.all_from_cache, "a restart or memory-warm build compiled a method".to_owned()),
        (report.restart_stores == 0, format!("the restarts stored {}", report.restart_stores)),
    ];
    let failures: Vec<String> =
        checks.into_iter().filter(|(passed, _)| !passed).map(|(_, failure)| failure).collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

fn start(tag: &str, workers: usize, disk_dir: Option<PathBuf>) -> (Daemon, Client) {
    let (listener, endpoint) = local_listener(tag);
    let cache = CacheConfig { disk_dir, ..CacheConfig::default() };
    let config = ServerConfig { workers, cache, ..ServerConfig::default() };
    let daemon = Daemon::start(listener, config).expect("start the daemon");
    (daemon, endpoint.client().expect("connect to the daemon"))
}

/// One timed build: its wall in µs and its reply, `None` on an error.
fn timed(client: &mut Client, dex: &DexFile, options: &BuildOptions) -> (u64, Option<BuildReply>) {
    let t = Instant::now();
    let reply = client.build(dex, options, None).ok();
    (t.elapsed().as_micros().try_into().unwrap_or(u64::MAX), reply)
}

fn median<T: Copy + PartialOrd>(mut samples: Vec<T>) -> T {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are ordered"));
    samples[samples.len() / 2]
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
    RestartReport { walls_us: walls.map(median), restart_speedup: median(ratios), ..report }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_restart_gate_wants_identical_replies_from_the_store_and_no_stores() {
        let passing = RestartReport { identical: true, all_from_cache: true, ..Default::default() };
        assert_eq!(restart_gate(&passing), Ok(()));
        let failing = RestartReport { errors: 2, restart_stores: 7, ..Default::default() };
        assert_eq!(
            restart_gate(&failing).expect_err("four checks fail"),
            [
                "2 builds failed",
                "a disk-cold or restart reply differs from true cold",
                "a restart or memory-warm build compiled a method",
                "the restarts stored 7",
            ]
        );
    }
}
