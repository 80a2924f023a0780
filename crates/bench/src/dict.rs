//! The shared-dictionary loadgen arm: a family of apps that embed one
//! common SDK core (byte-identical outlined bodies across the family)
//! built through a single `calibrod`, dictionary off then on. The
//! off arm pays for a private copy of every outlined body per app; the
//! on arm emits the shared island once per daemon and each later app
//! rides it at call overhead only. Results land in `BENCH_dict.json`.
//!
//! [`dict_suite`] measures the same ledger over the paper's six-app
//! suite, against the exact-body sharing ceiling.

use std::collections::HashMap;
use std::sync::Arc;

use calibro::{BuildOptions, BuildOutput, BuildSession, DictRegistry, MIN_ISLAND_WORDS};
use calibro_dex::{BinOp, DexFile, DexInsn, MethodBuilder, VReg};
use calibro_oat::{DictImage, OatFile};
use calibro_runtime::Runtime;
use calibro_server::{Daemon, DictStatsReply, Listener, ServerConfig, ShardEndpoint};
use calibro_workloads::App;

use crate::{run_trace, suite};

/// Dictionary loadgen configuration.
#[derive(Clone, Debug)]
pub struct DictLoadConfig {
    /// Apps in the family (the first pays the cold publish).
    pub apps: usize,
    /// Shared SDK methods, byte-identical across every app.
    pub sdk_methods: usize,
    /// App-private methods (unique constants, no cross-app sharing).
    pub unique_methods: usize,
    /// Worker threads for the in-process daemon.
    pub workers: usize,
    /// External daemon to target; `None` starts one in-process with the
    /// dictionary enabled. An external daemon must run `--dict` for the
    /// on arm to measure anything.
    pub endpoint: Option<ShardEndpoint>,
}

impl Default for DictLoadConfig {
    fn default() -> DictLoadConfig {
        DictLoadConfig { apps: 6, sdk_methods: 10, unique_methods: 6, workers: 2, endpoint: None }
    }
}

/// One app of the family, measured under both arms.
#[derive(Clone, Debug)]
pub struct DictAppRow {
    /// App name (`fam-0` .. `fam-N`).
    pub name: String,
    /// `.text` bytes of the dictionary-off (private outline) build.
    pub private_text: u64,
    /// `.text` bytes of the dictionary-on build.
    pub shared_text: u64,
    /// Island hits this app's build scored.
    pub hits: u64,
    /// Bodies this app's build published.
    pub publishes: u64,
    /// Whether the reply ELF records an island link.
    pub linked: bool,
}

/// What the dictionary arm measured.
#[derive(Clone, Debug)]
pub struct DictReport {
    /// Per-app rows, in build order.
    pub apps: Vec<DictAppRow>,
    /// The daemon's sealed epoch after the run.
    pub epoch: u64,
    /// Entries in the final island.
    pub island_entries: u64,
    /// Final island size in bytes (emitted once per daemon).
    pub island_bytes: u64,
    /// Total island hits across the family.
    pub hits: u64,
    /// Total publishes across the family.
    pub publishes: u64,
    /// Sum of per-app private `.text` (the dictionary-off world).
    pub aggregate_private: u64,
    /// Sum of per-app shared `.text` plus the island, emitted once.
    pub aggregate_shared: u64,
    /// `1 - shared/private`, as a percentage.
    pub reduction_pct: f64,
}

impl DictReport {
    /// Serializes the report as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let apps: Vec<String> = self
            .apps
            .iter()
            .map(|a| {
                format!(
                    concat!(
                        r#""{}":{{"private_text":{},"shared_text":{},"delta":{},"#,
                        r#""hits":{},"publishes":{},"linked":{}}}"#
                    ),
                    a.name,
                    a.private_text,
                    a.shared_text,
                    a.private_text as i64 - a.shared_text as i64,
                    a.hits,
                    a.publishes,
                    a.linked
                )
            })
            .collect();
        format!(
            concat!(
                r#"{{"apps":{{{}}},"epoch":{},"island_entries":{},"island_bytes":{},"#,
                r#""hits":{},"publishes":{},"#,
                r#""aggregate_private_text":{},"aggregate_shared_text":{},"#,
                r#""reduction_pct":{:.3}}}"#
            ),
            apps.join(","),
            self.epoch,
            self.island_entries,
            self.island_bytes,
            self.hits,
            self.publishes,
            self.aggregate_private,
            self.aggregate_shared,
            self.reduction_pct
        )
    }
}

/// One app of the family: `sdk` byte-identical motif methods (the
/// embedded library every app ships) plus `unique` methods whose
/// constants depend on the ordinal, so they never match across apps.
#[must_use]
pub fn family_app(ordinal: usize, sdk: usize, unique: usize) -> DexFile {
    let mut dex = DexFile::new();
    let class = dex.add_class("Main", 2);
    dex.reserve_statics(2);
    for i in 0..sdk {
        let mut b = MethodBuilder::new(format!("sdk{i}"), 6, 2);
        b.push(DexInsn::Const { dst: VReg(0), value: i as i32 });
        for _ in 0..3 {
            b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(1), a: VReg(4), b: VReg(5) });
            b.push(DexInsn::Bin { op: BinOp::Xor, dst: VReg(2), a: VReg(1), b: VReg(4) });
            b.push(DexInsn::BinLit { op: BinOp::Shl, dst: VReg(3), a: VReg(2), lit: 3 });
            b.push(DexInsn::Bin { op: BinOp::Sub, dst: VReg(1), a: VReg(3), b: VReg(2) });
        }
        b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(0), b: VReg(1) });
        b.push(DexInsn::Return { src: VReg(0) });
        dex.add_method(b.build(class));
    }
    for i in 0..unique {
        let salt = (ordinal * 1009 + i * 97 + 13) as i32;
        let mut b = MethodBuilder::new(format!("app{ordinal}_m{i}"), 6, 2);
        b.push(DexInsn::Const { dst: VReg(0), value: salt });
        b.push(DexInsn::Bin { op: BinOp::Mul, dst: VReg(1), a: VReg(4), b: VReg(5) });
        b.push(DexInsn::BinLit {
            op: BinOp::Add,
            dst: VReg(1),
            a: VReg(1),
            lit: (salt % 127) as i16,
        });
        b.push(DexInsn::Bin { op: BinOp::Xor, dst: VReg(0), a: VReg(0), b: VReg(1) });
        b.push(DexInsn::Return { src: VReg(0) });
        dex.add_method(b.build(class));
    }
    dex
}

fn text_bytes(elf: &[u8]) -> u64 {
    calibro_oat::from_elf_bytes(elf).expect("reply ELF loads").text_size_bytes()
}

/// Runs the family through one daemon, dictionary off then on, and
/// reports the aggregate-size ledger. Panics on setup or build
/// failures — this arm is a correctness gate as much as a benchmark.
#[must_use]
pub fn dict_load(config: &DictLoadConfig) -> DictReport {
    let mut local = None;
    let endpoint = match &config.endpoint {
        Some(e) => e.clone(),
        None => {
            #[cfg(unix)]
            {
                let socket =
                    std::env::temp_dir().join(format!("calibrod-dict-{}.sock", std::process::id()));
                let _ = std::fs::remove_file(&socket);
                let daemon = Daemon::start(
                    Listener::unix(&socket).expect("bind dict socket"),
                    ServerConfig { workers: config.workers, dict: true, ..ServerConfig::default() },
                )
                .expect("start dict daemon");
                local = Some(daemon);
                ShardEndpoint::Unix(socket)
            }
            #[cfg(not(unix))]
            {
                let listener = Listener::tcp("127.0.0.1:0").expect("bind dict tcp");
                let addr = listener.tcp_addr().expect("tcp addr").to_string();
                let daemon = Daemon::start(
                    listener,
                    ServerConfig { workers: config.workers, dict: true, ..ServerConfig::default() },
                )
                .expect("start dict daemon");
                local = Some(daemon);
                ShardEndpoint::Tcp(addr)
            }
        }
    };

    let apps: Vec<DexFile> = (0..config.apps.max(1))
        .map(|i| family_app(i, config.sdk_methods, config.unique_methods))
        .collect();
    let mut client = endpoint.client().expect("connect to the daemon");

    // Off arm: plain private-outline builds (the dict flag stays off,
    // so the daemon's registry never sees them).
    let plain = BuildOptions::cto_ltbo();
    let private_text: Vec<u64> = apps
        .iter()
        .map(|dex| text_bytes(&client.build(dex, &plain, None).expect("private build").elf))
        .collect();

    // On arm: each build routes against the current island and the
    // daemon seals after it, so app N+1 sees everything app N staged.
    let shared = BuildOptions::cto_ltbo().with_dict();
    let mut rows = Vec::with_capacity(apps.len());
    let mut before = client.dict_stats().expect("dict stats");
    assert!(before.enabled, "the dictionary arm needs a daemon running --dict");
    for (i, dex) in apps.iter().enumerate() {
        let reply = client.build(dex, &shared, None).expect("shared build");
        let after = client.dict_stats().expect("dict stats");
        let oat = calibro_oat::from_elf_bytes(&reply.elf).expect("reply ELF loads");
        rows.push(DictAppRow {
            name: format!("fam-{i}"),
            private_text: private_text[i],
            shared_text: oat.text_size_bytes(),
            hits: after.hits - before.hits,
            publishes: after.publishes - before.publishes,
            linked: oat.dict.is_some(),
        });
        before = after;
    }

    let stats: DictStatsReply = before;
    let aggregate_private: u64 = rows.iter().map(|r| r.private_text).sum();
    let aggregate_shared: u64 =
        rows.iter().map(|r| r.shared_text).sum::<u64>() + stats.island_words * 4;
    #[allow(clippy::cast_precision_loss)]
    let reduction_pct = 100.0 * (1.0 - aggregate_shared as f64 / aggregate_private.max(1) as f64);

    let report = DictReport {
        apps: rows,
        epoch: stats.epoch,
        island_entries: stats.island_entries,
        island_bytes: stats.island_words * 4,
        hits: stats.hits,
        publishes: stats.publishes,
        aggregate_private,
        aggregate_shared,
        reduction_pct,
    };

    if let Some(daemon) = local {
        daemon.shutdown();
    }
    report
}

/// The dictionary ledger of the six-app suite at one scale (see
/// [`dict_suite`]). Sizes are bytes.
#[derive(Clone, Debug)]
pub struct DictSuiteRow {
    /// The `paper_suite` scale.
    pub scale: f64,
    /// Σ `.text` of the six apps built privately.
    pub private_text: u64,
    /// Σ `.text` of the six apps rebuilt against the sealed island.
    pub routed_text: u64,
    /// The island, emitted once per daemon.
    pub island_bytes: u64,
    /// Island hits across the six routed builds.
    pub hits: u64,
    /// The exact-body ceiling with every publisher riding the island:
    /// Σ (k − 1) · |body + ret| over the eligible bodies, k being a
    /// body's private copies across the suite.
    pub ceiling_riding: u64,
    /// The same ceiling with each body's publisher kept private, so
    /// the island copy is one more: Σ (k − 2) · |body + ret| over the
    /// bodies with k ≥ 2.
    pub ceiling_private: u64,
    /// Σ resident bytes of the six private tenants after one trace.
    pub resident_private: u64,
    /// Σ resident bytes of the six routed tenants after one trace, the
    /// island mapped in each.
    pub resident_routed: u64,
}

/// Every private outlined body of `oat` (without its `br x30`).
fn outlined_bodies(oat: &OatFile) -> impl Iterator<Item = &[u32]> {
    oat.outlined.iter().map(|f| &oat.words[(f.offset / 4) as usize..][..f.size_words as usize - 1])
}

/// Tenant `app`'s resident bytes after one pass of its trace.
fn resident(out: &BuildOutput, app: &App, island: Option<&DictImage>) -> u64 {
    let mut rt = Runtime::new_with_dict(&out.oat, &app.env, island);
    run_trace(&mut rt, app, 1);
    rt.resident_bytes()
}

/// Builds `paper_suite(scale)` through one dictionary session — all six
/// apps publish against the empty island, one seal, all six rebuild
/// routed — and reports the aggregate ledger beside the exact-body
/// ceiling. The publishing builds are the private builds: an all-miss
/// dictionary build emits exactly the private-outline image.
///
/// # Panics
///
/// When a build fails — this measurement is a correctness gate too.
#[must_use]
pub fn dict_suite(scale: f64) -> DictSuiteRow {
    let apps = suite(scale);
    let registry = Arc::new(DictRegistry::default());
    let session = BuildSession::new().with_dict_registry(Arc::clone(&registry));
    let options = BuildOptions::cto_ltbo().with_dict();
    let build_all = || -> Vec<BuildOutput> {
        apps.iter().map(|app| session.build(&app.dex, &options).expect("suite build")).collect()
    };
    let private = build_all();
    let epoch = registry.seal_epoch();
    let routed = build_all();
    let layout = registry.layout(epoch).expect("the sealed epoch is current");
    let island = DictImage {
        base_address: calibro_oat::DICT_BASE_ADDRESS,
        epoch,
        words: layout.words().to_vec(),
    };

    let mut copies: HashMap<&[u32], u64> = HashMap::new();
    for body in private.iter().flat_map(|out| outlined_bodies(&out.oat)) {
        if body.len() >= MIN_ISLAND_WORDS {
            *copies.entry(body).or_default() += 1;
        }
    }
    let ceiling = |kept: u64| -> u64 {
        let bytes = |body: &[u32]| 4 * (body.len() as u64 + 1);
        copies.iter().map(|(body, &k)| k.saturating_sub(kept) * bytes(body)).sum()
    };
    let text = |outs: &[BuildOutput]| outs.iter().map(|out| out.oat.text_size_bytes()).sum();
    let resident_of = |outs: &[BuildOutput], island| -> u64 {
        apps.iter().zip(outs).map(|(app, out)| resident(out, app, island)).sum()
    };
    DictSuiteRow {
        scale,
        private_text: text(&private),
        routed_text: text(&routed),
        island_bytes: layout.size_bytes(),
        hits: routed.iter().map(|out| out.stats.dict.hits).sum(),
        ceiling_riding: ceiling(1),
        ceiling_private: ceiling(2),
        resident_private: resident_of(&private, None),
        resident_routed: resident_of(&routed, Some(&island)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_shares_its_sdk_and_wins_in_aggregate() {
        let report = dict_load(&DictLoadConfig { apps: 4, ..DictLoadConfig::default() });
        assert_eq!(report.apps.len(), 4);
        assert!(report.publishes > 0, "the cold app must publish");
        assert!(report.hits > 0, "later apps must ride the island");
        assert!(report.island_bytes > 0);
        assert!(
            report.aggregate_shared < report.aggregate_private,
            "shared {} must beat private {}",
            report.aggregate_shared,
            report.aggregate_private
        );
        // The first app runs against the empty epoch-0 island; every
        // later app must link and shrink.
        assert!(!report.apps[0].linked);
        for row in &report.apps[1..] {
            assert!(row.linked, "{} must link the island", row.name);
            assert!(row.shared_text < row.private_text, "{} must shrink", row.name);
        }
        let json = report.to_json();
        assert!(json.contains("\"aggregate_private_text\""));
        assert!(json.contains("\"reduction_pct\""));
    }
}
