//! Micro-probes: one timed call into each layer's public function, on
//! the workload's own inputs under the workload's own configuration.
//! Every probe value is the mean over inputs of the per-input median of
//! [`REPS`] calibrated repetitions, so it is commensurable with the
//! workload's class-weighted op latency.

use std::hint::black_box;

use calibro::{options_fingerprint, BuildOptions, BuildSession, LtboConfig, LtboMode};
use calibro_cache::{hash_method, ArtifactStore, CacheConfig, CacheEntry, StableHasher};
use calibro_codegen::{compile_method, CodegenOptions};
use calibro_hgraph::{build_hgraph, run_pipeline, HGraph};
use calibro_profile::Profile;
use calibro_server::{
    ltbo_fingerprint, BuildReply, BuildRequest, Client, Daemon, Listener, ServerConfig,
};
use calibro_suffix::{census, SuffixTree, UNIQUE_SEPARATOR_BASE};
use calibro_workloads::App;

use crate::calib::Calibrator;
use crate::inputs::{replay, run_trace};
use crate::serve::run_dir;
use crate::stats::median;

/// Timed repetitions per probe and input.
const REPS: usize = 5;
/// Pings per timed repetition: one ping is too short to bracket.
const PINGS: usize = 50;

/// Per-input medians of one probe, averaged over inputs at the end.
struct Probe {
    name: &'static str,
    per_input: Vec<f64>,
}

struct Probes {
    probes: Vec<Probe>,
}

impl Probes {
    /// Times `REPS` runs of `f`, each on a fresh `prepare()` (untimed),
    /// and files the median of `cal_ms × scale` under `name`.
    fn run<P, T>(
        &mut self,
        cal: &mut Calibrator,
        name: &'static str,
        scale: f64,
        mut prepare: impl FnMut() -> P,
        mut f: impl FnMut(P) -> T,
    ) {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let prepared = prepare();
                let (out, sample) = cal.time(|| f(prepared));
                black_box(out);
                sample.cal_ms * scale
            })
            .collect();
        let value = median(&samples);
        match self.probes.iter_mut().find(|p| p.name == name) {
            Some(p) => p.per_input.push(value),
            None => self.probes.push(Probe { name, per_input: vec![value] }),
        }
    }
}

/// The compiled methods' encoded instruction words, one unique
/// separator after each method: the text a suffix tree is built over.
fn symbol_text(methods: &[calibro_codegen::CompiledMethod]) -> Vec<u64> {
    let mut text = Vec::new();
    for (i, m) in methods.iter().enumerate() {
        // A word that only encodes once its target is bound (a call
        // before linking) is its own symbol class.
        text.extend(
            m.insns.iter().map(|insn| insn.encode().map_or(u64::from(u32::MAX), u64::from)),
        );
        text.push(UNIQUE_SEPARATOR_BASE + i as u64);
    }
    text
}

fn probe_input(
    probes: &mut Probes,
    cal: &mut Calibrator,
    app: &App,
    options: &BuildOptions,
) -> Result<(), String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: probe {what}: {e}", app.name);
    let dex = &app.dex;
    let methods = dex.methods();
    let java: Vec<_> = methods.iter().filter(|m| !m.is_native).collect();
    let min_len = options.min_seq_len;

    // Untimed: the artifacts the probes take as input.
    let session = BuildSession::new();
    let frontend = session.frontend(dex, options).map_err(|e| fail("frontend", &e))?;
    let keys = frontend.keys.clone();
    let codegen = session.codegen(dex, options, frontend).map_err(|e| fail("codegen", &e))?;
    let entries: Vec<CacheEntry> = codegen.outcomes.iter().map(|o| (*o.entry).clone()).collect();
    let compiled: Vec<_> = codegen.outcomes.iter().map(|o| o.compiled.clone()).collect();
    let raw_graphs: Vec<HGraph> = java.iter().map(|m| build_hgraph(m)).collect();
    let optimized: Vec<HGraph> = raw_graphs
        .iter()
        .cloned()
        .map(|mut g| {
            run_pipeline(&mut g);
            g
        })
        .collect();
    let text = symbol_text(&compiled);
    let tree = SuffixTree::build(text.clone());
    let out = session.build(dex, options).map_err(|e| fail("build", &e))?;
    let elf = calibro_oat::to_elf_bytes(&out.oat);
    let (rt, _) = run_trace(&out.oat, app)?;
    let request = || BuildRequest {
        request_id: 1,
        deadline: None,
        options_fp: options_fingerprint(options),
        ltbo_fp: ltbo_fingerprint(options),
        options: options.clone(),
        dex: dex.clone(),
        tenant: None,
    };
    let reply = BuildReply {
        request_id: 1,
        options_fp: options_fingerprint(options),
        ltbo_fp: ltbo_fingerprint(options),
        elf: elf.clone(),
        methods: methods.len() as u64,
        methods_from_cache: 0,
        cache_hits: 0,
        cache_misses: methods.len() as u64,
        build_us: 1,
        generation: 0,
        stats_json: out.stats.to_json(),
    }
    .encode();
    let per_method_us = 1e3 / methods.len() as f64;

    probes.run(cal, "dex.verify_cal_ms", 1.0, || (), |()| calibro_dex::verify(dex).is_ok());
    probes.run(cal, "cache.hash_methods_cal_ms", 1.0, StableHasher::new, |mut h| {
        methods
            .iter()
            .map(|m| {
                hash_method(m, &mut h);
                h.finish_reset()
            })
            .last()
    });
    let full = ArtifactStore::new(CacheConfig::default());
    for (key, entry) in keys.iter().zip(&entries) {
        full.insert(*key, entry.clone());
    }
    probes.run(
        cal,
        "cache.store_get_cal_us",
        per_method_us,
        || (),
        |()| full.get_many(&keys).is_ok(),
    );
    probes.run(
        cal,
        "cache.store_insert_cal_us",
        per_method_us,
        || (ArtifactStore::new(CacheConfig::default()), entries.clone()),
        |(store, entries)| {
            for (key, entry) in keys.iter().zip(entries) {
                store.insert(*key, entry);
            }
            store
        },
    );
    probes.run(
        cal,
        "hgraph.build_cal_ms",
        1.0,
        || (),
        |()| java.iter().map(|m| build_hgraph(m)).collect::<Vec<_>>(),
    );
    probes.run(
        cal,
        "hgraph.passes_cal_ms",
        1.0,
        || raw_graphs.clone(),
        |mut graphs| {
            for g in &mut graphs {
                run_pipeline(g);
            }
            graphs
        },
    );
    let codegen_opts = CodegenOptions { cto: options.cto, collect_metadata: true };
    probes.run(
        cal,
        "codegen.compile_cal_ms",
        1.0,
        || (),
        |()| optimized.iter().map(|g| compile_method(g, &codegen_opts)).collect::<Vec<_>>(),
    );
    probes.run(cal, "suffix.tree_build_cal_ms", 1.0, || text.clone(), SuffixTree::build);
    probes.run(cal, "suffix.repeats_cal_ms", 1.0, || (), |()| census(&tree, min_len));
    let ltbo = LtboConfig {
        mode: options.ltbo.unwrap_or(LtboMode::Global),
        min_len,
        hot_methods: options.hot_methods.clone(),
    };
    probes.run(
        cal,
        "ltbo.run_cal_ms",
        1.0,
        || compiled.clone(),
        |mut methods| calibro::run_ltbo(&mut methods, &ltbo).stats,
    );
    probes.run(
        cal,
        "oat.elf_read_cal_ms",
        1.0,
        || (),
        |()| calibro_oat::from_elf_bytes(&elf).is_ok(),
    );
    probes.run(cal, "runtime.trace_cal_ms", 1.0, || (), |()| replay(&out.oat, app).is_ok());
    probes.run(
        cal,
        "profile.hot_set_cal_ms",
        1.0,
        || (),
        |()| Profile::capture(&rt).hot_set(0.8).map(|hot| hot.len()),
    );
    // As `Client::build` does: clone the dex into the request, encode.
    probes.run(cal, "server.encode_request_cal_us", 1e3, || (), |()| request().encode());
    probes.run(
        cal,
        "server.decode_reply_cal_us",
        1e3,
        || (),
        |()| BuildReply::decode(&reply).map(|r| r.elf.len()).ok(),
    );
    Ok(())
}

/// Round trips of an empty request through a daemon of the probes' own:
/// frame I/O and the connection thread, nothing else.
fn probe_ping(probes: &mut Probes, cal: &mut Calibrator) -> Result<(), String> {
    let socket = run_dir()?.join(format!("probe-{}.sock", std::process::id()));
    let listener =
        Listener::unix(&socket).map_err(|e| format!("bind {}: {e}", socket.display()))?;
    let daemon = Daemon::start(listener, ServerConfig { workers: 1, ..ServerConfig::default() })
        .map_err(|e| format!("probe daemon: {e}"))?;
    let result = Client::connect_unix(&socket).map_err(|e| format!("probe connect: {e}")).map(
        |mut client| {
            probes.run(
                cal,
                "server.ping_cal_us",
                1e3 / PINGS as f64,
                || (),
                |()| (0..PINGS).filter(|_| client.ping().is_ok()).count(),
            );
        },
    );
    daemon.shutdown();
    result
}

/// Runs every probe on every input; returns `(metric name, value)`.
pub fn run(
    inputs: &[(&App, &BuildOptions)],
    cal: &mut Calibrator,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut probes = Probes { probes: Vec::new() };
    for (app, options) in inputs {
        probe_input(&mut probes, cal, app, options)?;
    }
    probe_ping(&mut probes, cal)?;
    Ok(probes
        .probes
        .iter()
        .map(|p| (p.name, p.per_input.iter().sum::<f64>() / p.per_input.len() as f64))
        .collect())
}
