//! The three workloads that call the build pipeline directly:
//! `cold_sizefirst`, `cold_deploy` and `warm_edit`.

use calibro::{BuildOptions, BuildSession, CacheConfig};
use calibro_dex::DexFile;
use calibro_oat::OatFile;
use calibro_profile::Profile;
use calibro_workloads::{paper_suite, App, AppSpec};

use crate::calib::{Calibrator, Sample};
use crate::inputs::{edit_methods, generate_seeded, mix, run_trace, variant_seed};
use crate::stats::Class;
use crate::trace::Tracer;
use crate::workload::{
    staged_build, BuildCounts, Finished, ServerCounts, SetupClock, StagedOp, Workload,
};

/// Suite scale of the cold workloads: six apps of 112–306 methods, so
/// one cold build stays a ≤ ~50 ms op.
const COLD_SCALE: f64 = 0.5;
/// Suite scale of the warm workload's app (kuaishou, 1325 methods).
const WARM_SCALE: f64 = 2.0;
const WARM_APP: &str = "kuaishou";
/// The warm session holds this many apps of that shape, each generated
/// from a sub-seed of its own, and the ops take turns over them: what a
/// warm rebuild costs depends on how much code the generator happened
/// to give the app (±10 % from seed to seed), and one app alone would
/// make the workload's latency follow the seed that much.
const WARM_APPS: u64 = 3;
/// Share of methods edited before each warm rebuild.
const EDIT_FRACTION: f64 = 0.01;
/// Per-lane entry ceiling of the warm session's store: the three apps
/// and room for two hundred ops' edits, after which edits age out.
const WARM_STORE_ENTRIES: usize = 6656;
/// Every this-many-th warm artifact is compared with a cold build of
/// the same edited input, byte for byte.
const WARM_CHECK_EVERY: u64 = 250;
/// Fraction of profile weight the deploy configuration keeps hot (the
/// paper's HfOpti setting).
const HOT_FRACTION: f64 = 0.8;
/// Set in the edit number of traced ops.
const TRACED_EDITS: u64 = 1 << 40;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ColdSizeFirst,
    ColdDeploy,
    WarmEdit,
}

pub struct Direct {
    kind: Kind,
    seed: u64,
    apps: Vec<App>,
    /// One configuration per app.
    options: Vec<BuildOptions>,
    /// The warm workload's long-lived, primed session; the cold
    /// workloads make a fresh session inside every op.
    session: Option<BuildSession>,
    /// The warm workload's first edited input of each class, as apps of
    /// their own: a class's first artifact is checked against the
    /// reference of *its* edited input. Empty on the cold workloads.
    first_edits: Vec<App>,
    /// The artifact each class produced first.
    first: Vec<Option<OatFile>>,
    counts: BuildCounts,
    failures: Vec<String>,
    staged: Vec<StagedOp>,
}

fn edit_seed(seed: u64, i: u64) -> u64 {
    mix(seed, 0xed17_0000 + i)
}

/// The warm workload's `k`-th app.
fn warm_spec(k: u64) -> AppSpec {
    let mut spec = paper_suite(WARM_SCALE)
        .into_iter()
        .find(|s| s.name == WARM_APP)
        .expect("the paper suite has the warm workload's app");
    spec.name = format!("{WARM_APP}.{k}");
    spec.seed += k;
    spec
}

/// The hot set of `app` from a profile of its baseline build — what a
/// deployment would have collected from the previous release.
fn hot_set(app: &App) -> Result<std::collections::HashSet<u32>, String> {
    let baseline = BuildSession::new()
        .build(&app.dex, &BuildOptions::baseline())
        .map_err(|e| format!("{}: profile build failed: {e}", app.name))?;
    let (rt, _) = run_trace(&baseline.oat, app)?;
    Profile::capture(&rt).hot_set(HOT_FRACTION).map_err(|e| format!("{}: {e}", app.name))
}

fn specs(kind: Kind) -> Vec<AppSpec> {
    match kind {
        Kind::WarmEdit => (0..WARM_APPS).map(warm_spec).collect(),
        _ => paper_suite(COLD_SCALE),
    }
}

/// The configuration `kind` builds `app` under (the deploy hot set
/// differs per app).
fn options_for(kind: Kind, app: &App) -> Result<BuildOptions, String> {
    Ok(match kind {
        Kind::ColdSizeFirst => BuildOptions::cto_merge_ltbo(),
        Kind::ColdDeploy => BuildOptions::cto_ltbo_parallel(8, 2)
            .with_compile_threads(2)
            .with_hot_filter(hot_set(app)?),
        Kind::WarmEdit => BuildOptions::cto_ltbo_parallel(128, 1),
    })
}

impl Direct {
    /// Sets the workload up, timing each step between kernel readings.
    /// Returns the workload and its calibrated set-up time in ms.
    pub fn setup(kind: Kind, seed: u64, cal: &mut Calibrator) -> Result<(Direct, f64), String> {
        let mut clock = SetupClock::default();
        let apps: Vec<App> = specs(kind)
            .into_iter()
            .map(|spec| clock.step(cal, || generate_seeded(spec, seed)))
            .collect();
        let options = apps
            .iter()
            .map(|app| clock.step(cal, || options_for(kind, app)))
            .collect::<Result<Vec<_>, _>>()?;
        let mut session = None;
        let mut first_edits = Vec::new();
        if kind == Kind::WarmEdit {
            // A bounded store, as a long-lived session has: every op
            // adds ~14 new method entries and as many group plans,
            // and without a ceiling the run's memory would grow with
            // the number of ops the machine happened to get through.
            let primed = BuildSession::with_config(CacheConfig {
                max_entries: WARM_STORE_ENTRIES,
                ..CacheConfig::default()
            });
            for (app, options) in apps.iter().zip(&options) {
                clock
                    .step(cal, || primed.build(&app.dex, options).map(drop))
                    .map_err(|e| format!("priming build failed: {e}"))?;
            }
            session = Some(primed);
            // The harness's own: the input of each class's first op, kept
            // for checking its artifact. Not a cost of the system's
            // set-up, so not timed.
            first_edits = specs(kind)
                .into_iter()
                .zip(0..)
                .map(|(spec, i)| {
                    let mut edited = generate_seeded(spec, seed);
                    edited.name += "+edit";
                    edit_methods(&mut edited.dex, edit_seed(seed, i), EDIT_FRACTION, i);
                    edited
                })
                .collect();
        }
        let first = apps.iter().map(|_| None).collect();
        Ok((
            Direct {
                kind,
                seed,
                apps,
                options,
                session,
                first_edits,
                first,
                counts: BuildCounts::default(),
                failures: Vec::new(),
                staged: Vec::new(),
            },
            clock.cal_ms,
        ))
    }

    /// The dex op `i` builds: the class's app, edited first on the warm
    /// workload (untimed — the edit is the developer's work, not the
    /// build's).
    fn input(&self, i: u64, traced: bool) -> (usize, std::borrow::Cow<'_, DexFile>) {
        let class = (i % self.apps.len() as u64) as usize;
        let dex = &self.apps[class].dex;
        if self.kind == Kind::WarmEdit {
            let mut edited = dex.clone();
            // The traced pass edits differently from the untraced one:
            // replaying an edit the session has already built would hit
            // on every method.
            let nth = if traced { i | TRACED_EDITS } else { i };
            edit_methods(&mut edited, edit_seed(self.seed, nth), EDIT_FRACTION, nth);
            (class, std::borrow::Cow::Owned(edited))
        } else {
            (class, std::borrow::Cow::Borrowed(dex))
        }
    }
}

impl Workload for Direct {
    fn classes(&self) -> Vec<Class> {
        let weight = 1.0 / self.apps.len() as f64;
        self.apps.iter().map(|a| Class::new(a.name.clone(), weight)).collect()
    }

    fn min_ops(&self) -> u64 {
        match self.kind {
            // The bounded store is full after ~200 edits.
            Kind::WarmEdit => 300,
            // Twelve rounds: six per-op memory readings per app.
            _ => 12 * self.apps.len() as u64,
        }
    }

    fn op(&mut self, i: u64, cal: &mut Calibrator) -> Result<(usize, Sample), String> {
        let (class, dex) = self.input(i, false);
        let options = &self.options[class];
        let (result, sample) = cal.time(|| {
            let fresh;
            let session = match &self.session {
                Some(s) => s,
                None => {
                    fresh = BuildSession::new();
                    &fresh
                }
            };
            session.build(&dex, options).map(|out| {
                let elf = calibro_oat::to_elf_bytes(&out.oat);
                (out, elf)
            })
        });
        let (out, elf) = result.map_err(|e| format!("op {i}: build failed: {e}"))?;
        let mut check = None;
        if self.kind == Kind::WarmEdit && i.is_multiple_of(WARM_CHECK_EVERY) {
            check = match BuildSession::new().build(&dex, options) {
                Ok(cold) if calibro_oat::to_elf_bytes(&cold.oat) == elf => None,
                Ok(_) => Some(format!("op {i}: warm artifact differs from a cold build")),
                Err(e) => Some(format!("op {i}: cold check build failed: {e}")),
            };
        }
        drop(dex);
        self.failures.extend(check);
        if self.first[class].is_none() {
            self.counts.add(&out.stats.to_json(), elf.len())?;
            self.first[class] = Some(out.oat);
        }
        Ok((class, sample))
    }

    fn traced_op(
        &mut self,
        i: u64,
        count_allocs: bool,
        cal: &mut Calibrator,
        tracer: &mut Tracer,
    ) -> Result<(usize, Sample), String> {
        let (class, dex) = self.input(i, true);
        let options = &self.options[class];
        let (span, sample, _elf) =
            staged_build(self.session.as_ref(), &dex, options, i, count_allocs, cal, tracer)
                .map_err(|e| format!("op {i}: {e}"))?;
        drop(dex);
        if !count_allocs {
            self.staged.push(StagedOp { class, span, sample });
        }
        Ok((class, sample))
    }

    fn alloc_ops(&self) -> u64 {
        self.apps.len() as u64
    }

    fn staged(&self) -> (&[StagedOp], Vec<f64>) {
        (&self.staged, self.classes().iter().map(|c| c.weight).collect())
    }

    fn probe_inputs(&self) -> Vec<(&App, &BuildOptions)> {
        self.checked_apps().into_iter().zip(&self.options).collect()
    }

    fn checked_apps(&self) -> Vec<&App> {
        if self.first_edits.is_empty() { &self.apps } else { &self.first_edits }.iter().collect()
    }

    fn variant(&self, v: u64) -> Result<Vec<(App, BuildOptions)>, String> {
        specs(self.kind)
            .into_iter()
            .map(|spec| {
                let app = generate_seeded(spec, variant_seed(self.seed, v));
                let options = options_for(self.kind, &app)?;
                Ok((app, options))
            })
            .collect()
    }

    fn finish(self: Box<Self>) -> Finished {
        Finished {
            apps: if self.first_edits.is_empty() { self.apps } else { self.first_edits },
            artifacts: self.first,
            failures: self.failures,
            counts: self.counts,
            server: ServerCounts::default(),
        }
    }
}
