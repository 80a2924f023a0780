//! `serve_mixed`: one client connection to an in-process daemon, a fixed
//! seeded mix of four request kinds. The only workload where the wire
//! codec, frame I/O, admission queue and reply serialisation are most
//! of the op.

use std::path::PathBuf;

use calibro::{BuildOptions, BuildSession};
use calibro_server::{BuildReply, Client, Daemon, Listener, ServerConfig};
use calibro_workloads::{App, AppSpec};

use crate::calib::{Calibrator, Sample};
use crate::inputs::{edit_methods, generate_seeded, mix, replay, variant_seed, Reference};
use crate::stats::Class;
use crate::trace::Tracer;
use crate::workload::{
    staged_build, BuildCounts, CacheCounts, Finished, ServerCounts, SetupClock, StagedOp, Workload,
};

/// Apps the single-request kinds draw from.
const POOL: usize = 8;
const POOL_METHODS: usize = 200;
/// Apps of one `burst8` batch. They are small because the daemon's
/// connection thread takes the reply writer's lock between frames: once
/// a worker blocks writing replies the client is not yet reading, the
/// thread stops reading requests the client is still writing, and both
/// sides wait for ever. A batch is safe while all of its replies fit
/// the socket buffer (~208 KB here); these come to ~110 KB.
const BURST: usize = 8;
const BURST_METHODS: usize = 16;
const WORKERS: usize = 2;
/// Share of methods changed before an `edit_build` request.
const EDIT_FRACTION: f64 = 0.05;
/// The mix, as counts in a block of 100 ops; the block is shuffled once
/// by the seed and then repeated.
const MIX: [(&str, usize); 4] =
    [("warm_build", 50), ("tenant_fetch", 30), ("edit_build", 10), ("burst8", 10)];
const WARM_KIND: usize = 0;
const TENANT_KIND: usize = 1;
const EDIT_KIND: usize = 2;
const BURST_KIND: usize = 3;
/// The daemon's counters are read after this many ops, so that they do
/// not depend on how many ops `--seconds` allowed.
const COUNTED_OPS: u64 = 200;

/// App `k` of the daemon's programs, shaped like the paper suite's: the
/// pool first, then the burst batch.
fn app_spec(k: usize) -> AppSpec {
    let (name, methods) = if k < POOL {
        (format!("pool{k}"), POOL_METHODS)
    } else {
        (format!("burst{}", k - POOL), BURST_METHODS)
    };
    AppSpec {
        name,
        seed: 700 + k as u64,
        methods,
        classes: (methods / 25).max(3),
        natives: (methods / 60).max(1),
        motif_pool: 40,
        motifs_per_method: (2, 6),
        switch_fraction: 0.04,
        call_fraction: 0.45,
        trace_len: 160,
        hot_skew: 1.5,
        filler_per_segment: (12, 24),
        clone_families: (methods / 60).max(2),
    }
}

/// The directory run-time files (the daemon's socket, default span
/// files) go to: inside the benchmark's own directory, named relative
/// to the working directory when possible so that a socket path stays
/// within the 108 bytes a `sockaddr_un` holds.
pub fn run_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".run");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let relative =
        std::env::current_dir().ok().and_then(|cwd| dir.strip_prefix(cwd).map(PathBuf::from).ok());
    Ok(relative.unwrap_or(dir))
}

/// The in-process daemon; drained and joined when dropped, on every
/// path out of the workload.
struct Running(Option<Daemon>);

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(daemon) = self.0.take() {
            daemon.shutdown();
        }
    }
}

pub struct Serve {
    seed: u64,
    /// The pool, then the burst batch.
    pool: Vec<App>,
    options: BuildOptions,
    daemon: Running,
    client: Client,
    /// The op kinds of one block of 100, in their seeded order.
    pattern: Vec<usize>,
    /// ELF bytes of each app's plain build and each pool app's tenant
    /// build, from set-up: every later reply for the same program must
    /// equal them.
    expected: Vec<Vec<u8>>,
    expected_tenant: Vec<Vec<u8>>,
    counts: BuildCounts,
    /// The daemon's store counters when set-up ended, and the methods
    /// compiled and builds made for ops since: the cache metrics cover
    /// the ops, not the registration.
    cache_at_start: calibro::CacheStats,
    op_compiled: f64,
    op_builds: u64,
    server: Option<ServerCounts>,
    edit_checked: bool,
    failures: Vec<String>,
    /// A session primed with the pool, for staged builds in the traced
    /// pass: the stage split of the warm build the daemon's workers run.
    local: Option<BuildSession>,
    staged: Vec<StagedOp>,
    /// Daemon-reported build time ÷ client-observed latency, per traced
    /// `warm_build`.
    build_share: Vec<f64>,
}

impl Serve {
    pub fn setup(seed: u64, cal: &mut Calibrator) -> Result<(Serve, f64), String> {
        let mut clock = SetupClock::default();
        let pool: Vec<App> = (0..POOL + BURST)
            .map(|k| clock.step(cal, || generate_seeded(app_spec(k), seed)))
            .collect();
        let options = BuildOptions::cto_ltbo_parallel(8, 1);
        let socket = run_dir()?.join(format!("serve-{}.sock", std::process::id()));
        let (daemon, client) = clock.step(cal, || {
            let listener =
                Listener::unix(&socket).map_err(|e| format!("bind {}: {e}", socket.display()))?;
            let config = ServerConfig { workers: WORKERS, ..ServerConfig::default() };
            let daemon = Running(Some(
                Daemon::start(listener, config).map_err(|e| format!("daemon start: {e}"))?,
            ));
            let client = Client::connect_unix(&socket).map_err(|e| format!("connect: {e}"))?;
            Ok::<_, String>((daemon, client))
        })?;
        let mut serve = Serve {
            seed,
            pool,
            options,
            daemon,
            client,
            pattern: pattern(seed),
            expected: Vec::new(),
            expected_tenant: Vec::new(),
            counts: BuildCounts::default(),
            cache_at_start: calibro::CacheStats::default(),
            op_compiled: 0.0,
            op_builds: 0,
            server: None,
            edit_checked: false,
            failures: Vec::new(),
            local: None,
            staged: Vec::new(),
            build_share: Vec::new(),
        };
        // Register: one cold build per app warms the shared store, one
        // tenant build seals the serving generation.
        for k in 0..POOL + BURST {
            let (plain, sealed) = clock
                .step(cal, || {
                    let dex = &serve.pool[k].dex;
                    let plain = serve.client.build(dex, &serve.options, None)?;
                    let sealed = if k < POOL {
                        Some(serve.client.build_for_tenant(
                            &tenant(k),
                            dex,
                            &serve.options,
                            None,
                        )?)
                    } else {
                        None
                    };
                    Ok::<_, calibro_server::ClientError>((plain, sealed))
                })
                .map_err(|e| format!("registering {}: {e}", serve.pool[k].name))?;
            serve.counts.add(&plain.stats_json, plain.elf.len())?;
            serve.expected.push(plain.elf);
            serve.expected_tenant.extend(sealed.map(|r| r.elf));
        }
        serve.cache_at_start = serve.daemon().stats().cache;
        Ok((serve, clock.cal_ms))
    }

    fn daemon(&self) -> &Daemon {
        self.daemon.0.as_ref().expect("the daemon runs until finish")
    }

    /// Checks a reply for app `k` against the bytes from set-up.
    fn check_reply(&mut self, i: u64, k: usize, reply: &BuildReply, tenant: bool) {
        let expected = if tenant { &self.expected_tenant[k] } else { &self.expected[k] };
        if &reply.elf != expected {
            self.failures.push(format!(
                "op {i}: reply for {} differs from the set-up bytes",
                self.pool[k].name
            ));
        }
    }

    /// An `edit_build` reply is a new artifact; the first one is replayed
    /// against a baseline build of the edited app.
    fn check_edit(&mut self, i: u64, k: usize, edit: u64, reply: &BuildReply) {
        if reply.methods as usize != self.pool[k].dex.methods().len() || reply.elf.is_empty() {
            self.failures.push(format!("op {i}: edit reply for pool{k} is malformed"));
        }
        if std::mem::replace(&mut self.edit_checked, true) {
            return;
        }
        let mut edited = generate_seeded(app_spec(k), self.seed);
        edit_methods(&mut edited.dex, edit, EDIT_FRACTION, edit);
        let verdict = Reference::from_baseline(&edited).and_then(|reference| {
            let oat = calibro_oat::from_elf_bytes(&reply.elf)
                .map_err(|e| format!("op {i}: edit reply does not load: {e}"))?;
            reference.check(&replay(&oat, &edited)?)
        });
        self.failures.extend(verdict.err());
    }

    fn run_op(
        &mut self,
        i: u64,
        cal: &mut Calibrator,
        mut tracer: Option<&mut Tracer>,
        count_allocs: bool,
    ) -> Result<(usize, Sample), String> {
        let traced = tracer.is_some();
        let kind = self.pattern[(i % self.pattern.len() as u64) as usize];
        // Traced ops draw their app and edit from a stream of their own
        // (an edit the daemon has already built would be all hits).
        let draw = mix(self.seed, if traced { i | 1 << 40 } else { i });
        let k = (draw % POOL as u64) as usize;
        let edited = (kind == EDIT_KIND).then(|| {
            let mut dex = self.pool[k].dex.clone();
            edit_methods(&mut dex, draw, EDIT_FRACTION, draw);
            dex
        });
        let span = tracer.as_deref_mut().map(|t| t.begin("op", None, i));
        let (replies, sample) = cal.time(|| {
            // On every thread: the daemon's connection and workers too.
            let _counting = count_allocs.then(crate::alloc::Counting::scope);
            let dex = edited.as_ref().unwrap_or(&self.pool[k].dex);
            match kind {
                TENANT_KIND => self
                    .client
                    .build_for_tenant(&tenant(k), dex, &self.options, None)
                    .map(|r| vec![Ok(r)]),
                BURST_KIND => self.client.build_pipelined(
                    &mut self.pool[POOL..].iter().map(|app| (&app.dex, &self.options)),
                ),
                _ => self.client.build(dex, &self.options, None).map(|r| vec![Ok(r)]),
            }
        });
        if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
            t.end(span);
        }
        let replies = replies.map_err(|e| format!("op {i} ({}): {e}", MIX[kind].0))?;
        let replies: Vec<BuildReply> = replies
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(|e| format!("op {i} ({}): refused: {e}", MIX[kind].0))?;
        if let (Some(t), Some(span)) = (tracer, span) {
            // The daemon reports how long each build took, not when it
            // started: anchor the spans at the reply's arrival.
            let end = t.spans[span].end_us;
            for r in replies.iter().filter(|_| kind != TENANT_KIND) {
                t.record("daemon.build", span, end - r.build_us as f64, end);
            }
            if kind == WARM_KIND {
                self.build_share.push(replies[0].build_us as f64 / (sample.raw_ms * 1e3));
            }
        }
        match kind {
            EDIT_KIND => self.check_edit(i, k, draw, &replies[0]),
            BURST_KIND => {
                for (app, reply) in replies.iter().enumerate() {
                    self.check_reply(i, POOL + app, reply, false);
                }
            }
            _ => self.check_reply(i, k, &replies[0], kind == TENANT_KIND),
        }
        if self.server.is_none() {
            for r in replies.iter().filter(|_| kind != TENANT_KIND) {
                self.op_compiled += (r.methods - r.methods_from_cache) as f64;
                self.op_builds += 1;
            }
            // Read after an untraced op, so that the counted prefix of
            // a traced pass is as fixed as that of an untraced one.
            if i + 1 == COUNTED_OPS && !traced {
                let stats = self.daemon().stats();
                let c = stats.cache.since(&self.cache_at_start);
                self.counts.compiled = self.op_compiled;
                self.counts.builds = self.op_builds;
                self.counts.cache = CacheCounts {
                    hits: c.hits as f64,
                    misses: c.misses as f64,
                    group_hits: c.group_hits as f64,
                    group_misses: c.group_misses as f64,
                    merge_hits: c.merge_hits as f64,
                    merge_misses: c.merge_misses as f64,
                    evictions: (c.evictions + c.group_evictions + c.merge_evictions) as f64,
                };
                self.server = Some(ServerCounts {
                    requests_completed: stats.requests_completed,
                    rejected_overloaded: stats.rejected_overloaded,
                    build_errors: stats.build_errors,
                });
            }
        }
        Ok((kind, sample))
    }
}

fn tenant(k: usize) -> String {
    format!("tenant{k}")
}

/// One block of the mix, shuffled by the seed (Fisher–Yates).
fn pattern(seed: u64) -> Vec<usize> {
    let mut block: Vec<usize> =
        MIX.iter().enumerate().flat_map(|(kind, (_, n))| std::iter::repeat_n(kind, *n)).collect();
    for i in (1..block.len()).rev() {
        block.swap(i, (mix(seed, 0x5e7e_0000 + i as u64) % (i as u64 + 1)) as usize);
    }
    block
}

impl Workload for Serve {
    fn classes(&self) -> Vec<Class> {
        MIX.iter().map(|(name, n)| Class::new(*name, *n as f64 / 100.0)).collect()
    }

    fn min_ops(&self) -> u64 {
        COUNTED_OPS
    }

    fn op(&mut self, i: u64, cal: &mut Calibrator) -> Result<(usize, Sample), String> {
        self.run_op(i, cal, None, false)
    }

    fn alloc_ops(&self) -> u64 {
        self.pattern.len() as u64
    }

    fn traced_op(
        &mut self,
        i: u64,
        count_allocs: bool,
        cal: &mut Calibrator,
        tracer: &mut Tracer,
    ) -> Result<(usize, Sample), String> {
        let traced = self.run_op(i, cal, Some(tracer), count_allocs)?;
        if self.local.is_none() {
            let session = BuildSession::new();
            for app in &self.pool[..POOL] {
                session.build(&app.dex, &self.options).map_err(|e| format!("priming: {e}"))?;
            }
            self.local = Some(session);
        }
        let class = (i % POOL as u64) as usize;
        let (span, sample, elf) = staged_build(
            self.local.as_ref(),
            &self.pool[class].dex,
            &self.options,
            i | 1 << 41,
            false,
            cal,
            tracer,
        )?;
        if elf != self.expected[class] {
            self.failures
                .push(format!("op {i}: staged build of pool{class} differs from the daemon's"));
        }
        self.staged.push(StagedOp { class, span, sample });
        Ok(traced)
    }

    fn staged(&self) -> (&[StagedOp], Vec<f64>) {
        (&self.staged, vec![1.0 / POOL as f64; POOL])
    }

    fn probe_inputs(&self) -> Vec<(&App, &BuildOptions)> {
        self.pool[..POOL].iter().map(|app| (app, &self.options)).collect()
    }

    fn checked_apps(&self) -> Vec<&App> {
        self.pool.iter().collect()
    }

    fn variant(&self, v: u64) -> Result<Vec<(App, BuildOptions)>, String> {
        let seed = variant_seed(self.seed, v);
        Ok((0..POOL + BURST)
            .map(|k| (generate_seeded(app_spec(k), seed), self.options.clone()))
            .collect())
    }

    fn build_share(&self) -> f64 {
        if self.build_share.is_empty() {
            0.0
        } else {
            crate::stats::median(&self.build_share)
        }
    }

    fn finish(self: Box<Self>) -> Finished {
        let Serve { daemon, pool, expected, mut failures, counts, server, .. } = *self;
        drop(daemon);
        if server.is_none() {
            failures.push(format!("fewer than {COUNTED_OPS} ops ran"));
        }
        let artifacts = expected
            .iter()
            .enumerate()
            .map(|(k, elf)| {
                calibro_oat::from_elf_bytes(elf)
                    .map_err(|e| {
                        failures.push(format!("{}: reply does not load: {e}", pool[k].name))
                    })
                    .ok()
            })
            .collect();
        Finished { apps: pool, artifacts, failures, counts, server: server.unwrap_or_default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_keeps_the_mix_and_follows_the_seed() {
        let p = pattern(1);
        assert_eq!(p.len(), 100);
        for (kind, (_, n)) in MIX.iter().enumerate() {
            assert_eq!(p.iter().filter(|&&k| k == kind).count(), *n);
        }
        assert_eq!(p, pattern(1));
        assert_ne!(p, pattern(2));
    }
}
