//! Inputs and their references: seeded app generation, the benchmark's
//! own digest of what was generated, trace replay on the simulated
//! runtime, and the reference an artifact's behaviour is checked
//! against — committed under `golden/` for the pinned seed, computed
//! from a baseline build for any other.

use std::fmt::Write as _;
use std::path::PathBuf;

use calibro::{BuildOptions, BuildSession};
use calibro_dex::{DexFile, DexInsn};
use calibro_oat::OatFile;
use calibro_runtime::Runtime;
use calibro_workloads::{generate, mutate_methods, App, AppSpec};

use crate::json::Json;

/// The pinned master seed the committed references were recorded with.
pub const DEFAULT_SEED: u64 = 20_250_301;

/// Step budget per trace call, as the repository's own tests use.
const MAX_STEPS: u64 = 4_000_000;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the sub-seed `salt` of `seed`. The seed is scrambled before
/// the salt goes in: with a plain `seed ^ salt`, neighbouring seeds and
/// neighbouring salts cancel (`4 ^ 701 == 5 ^ 700`) and two master seeds
/// generate the same apps in another order.
pub fn mix(seed: u64, salt: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ salt)
}

/// The master seed of variant `v` of a workload's inputs.
pub fn variant_seed(seed: u64, v: u64) -> u64 {
    mix(seed, 0x5a1a_0000 + v)
}

/// Generates `spec` with its seed re-derived from the master seed, so
/// `--seed` changes every app's content while the spec's shape (method
/// count, motif pool, trace length) stays the workload's own.
pub fn generate_seeded(mut spec: AppSpec, master: u64) -> App {
    spec.seed = mix(master, spec.seed);
    generate(&spec)
}

/// Edits roughly `fraction` of `dex`'s methods, differently for every
/// `nonce`. `mutate_methods` picks the methods and flips bit 0 of each
/// one's first literal, which gives a method only two variants: a
/// long-lived store soon holds both and every later "edit" is a hit.
/// Folding the nonce into the literal's higher bits makes each op's
/// edit one the store has never seen.
pub fn edit_methods(dex: &mut DexFile, seed: u64, fraction: f64, nonce: u64) {
    for id in mutate_methods(dex, seed, fraction) {
        let literal = dex.method_mut(id).insns.iter_mut().find_map(|insn| match insn {
            DexInsn::Const { value, .. } => Some(Literal::Wide(value)),
            DexInsn::BinLit { lit, .. } => Some(Literal::Short(lit)),
            _ => None,
        });
        match literal {
            Some(Literal::Wide(value)) => *value ^= ((nonce & 0x3fff) as i32) << 1,
            Some(Literal::Short(lit)) => *lit ^= ((nonce & 0x1ff) as i16) << 1,
            None => {}
        }
    }
}

enum Literal<'a> {
    Wide(&'a mut i32),
    Short(&'a mut i16),
}

/// FNV-1a, streamed through `fmt::Write` so a multi-megabyte `Debug`
/// rendering is hashed without being materialised.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// The benchmark's own digest of an input: every class, method and
/// instruction of the dex and every call of the usage trace, through
/// their `Debug` rendering. If the generator — or the shape of the
/// input types — changes, the digest moves and the committed
/// references no longer describe the inputs.
pub fn input_digest(app: &App) -> u64 {
    let mut h = Fnv::new();
    write!(h, "{:?}{:?}", app.dex, app.trace).expect("Fnv never fails");
    h.0
}

/// What one replay of an app's usage trace on an artifact observed.
#[derive(Clone, Debug, PartialEq)]
pub struct Replay {
    /// `Debug` rendering of each call's outcome, in trace order.
    pub outcomes: Vec<String>,
    pub state_digest: u64,
    pub cycles: u64,
    pub resident_bytes: u64,
    pub icache_misses: u64,
    pub heap_allocs: u64,
}

/// Runs `app`'s trace on `oat`; returns the device as the trace left it
/// and the `Debug` rendering of each call's outcome. A simulator trap
/// (which indicates a miscompiled artifact, not a Java exception) is an
/// error.
pub fn run_trace(oat: &OatFile, app: &App) -> Result<(Runtime, Vec<String>), String> {
    let mut rt = Runtime::new(oat, &app.env);
    let mut outcomes = Vec::with_capacity(app.trace.len());
    for (i, call) in app.trace.iter().enumerate() {
        let inv = rt
            .call(call.method, &call.args, MAX_STEPS)
            .map_err(|trap| format!("{}: trace call {i} trapped: {trap:?}", app.name))?;
        outcomes.push(format!("{:?}", inv.outcome));
    }
    Ok((rt, outcomes))
}

/// Replays `app`'s trace on `oat` and records what it observed.
pub fn replay(oat: &OatFile, app: &App) -> Result<Replay, String> {
    let (rt, outcomes) = run_trace(oat, app)?;
    Ok(Replay {
        outcomes,
        state_digest: rt.state_digest(),
        cycles: rt.total_cycles(),
        resident_bytes: rt.resident_bytes(),
        icache_misses: rt.icache_misses(),
        heap_allocs: rt.heap_allocs(),
    })
}

/// The behaviour every artifact built from one input must reproduce,
/// and what the baseline build of that input costs: the size and
/// run-time metrics are reported relative to it.
#[derive(Clone, Debug, PartialEq)]
pub struct Reference {
    pub input: String,
    pub input_digest: u64,
    pub outcomes: Vec<String>,
    pub state_digest: u64,
    pub baseline_text_bytes: u64,
    pub baseline_cycles: u64,
    pub baseline_resident_bytes: u64,
}

impl Reference {
    /// Builds `app` under the baseline configuration (no outlining, no
    /// merging) and records what its trace does there.
    pub fn from_baseline(app: &App) -> Result<Reference, String> {
        let out = BuildSession::new()
            .build(&app.dex, &BuildOptions::baseline())
            .map_err(|e| format!("{}: baseline build failed: {e}", app.name))?;
        let replay = replay(&out.oat, app)?;
        Ok(Reference {
            input: app.name.clone(),
            input_digest: input_digest(app),
            outcomes: replay.outcomes,
            state_digest: replay.state_digest,
            baseline_text_bytes: out.oat.text_size_bytes(),
            baseline_cycles: replay.cycles,
            baseline_resident_bytes: replay.resident_bytes,
        })
    }

    /// `Err` names the first difference between `replay` and this
    /// reference.
    pub fn check(&self, replay: &Replay) -> Result<(), String> {
        if replay.outcomes.len() != self.outcomes.len() {
            return Err(format!(
                "{}: {} trace outcomes, reference has {}",
                self.input,
                replay.outcomes.len(),
                self.outcomes.len()
            ));
        }
        if let Some(i) = (0..self.outcomes.len()).find(|&i| replay.outcomes[i] != self.outcomes[i])
        {
            return Err(format!(
                "{}: trace call {i} gave {}, reference says {}",
                self.input, replay.outcomes[i], self.outcomes[i]
            ));
        }
        if replay.state_digest != self.state_digest {
            return Err(format!(
                "{}: state digest {:016x}, reference says {:016x}",
                self.input, replay.state_digest, self.state_digest
            ));
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("input", Json::str(&self.input)),
            ("input_digest", Json::hex(self.input_digest)),
            ("state_digest", Json::hex(self.state_digest)),
            ("baseline_text_bytes", Json::Num(self.baseline_text_bytes as f64)),
            ("baseline_cycles", Json::Num(self.baseline_cycles as f64)),
            ("baseline_resident_bytes", Json::Num(self.baseline_resident_bytes as f64)),
            ("outcomes", Json::Arr(self.outcomes.iter().map(Json::str).collect())),
        ])
    }

    fn from_json(j: &Json) -> Option<Reference> {
        Some(Reference {
            input: j.get("input")?.as_str()?.to_owned(),
            input_digest: j.get("input_digest")?.as_hex()?,
            state_digest: j.get("state_digest")?.as_hex()?,
            baseline_text_bytes: j.get("baseline_text_bytes")?.as_f64()? as u64,
            baseline_cycles: j.get("baseline_cycles")?.as_f64()? as u64,
            baseline_resident_bytes: j.get("baseline_resident_bytes")?.as_f64()? as u64,
            outcomes: j
                .get("outcomes")?
                .as_arr()?
                .iter()
                .map(|o| o.as_str().map(str::to_owned))
                .collect::<Option<_>>()?,
        })
    }
}

/// Where a run's references came from; printed with the result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReferenceKind {
    /// The committed `golden/<workload>.json`.
    Golden,
    /// A baseline build made by this run.
    Differential,
}

impl ReferenceKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ReferenceKind::Golden => "golden",
            ReferenceKind::Differential => "differential",
        }
    }
}

fn golden_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(format!("{workload}.json"))
}

/// Writes `golden/<workload>.json` from baseline builds of `apps`.
pub fn record_golden(workload: &str, apps: &[&App]) -> Result<(), String> {
    let refs =
        apps.iter().map(|app| Reference::from_baseline(app)).collect::<Result<Vec<_>, _>>()?;
    let mut text = String::from("{\"workload\":");
    text.push_str(&Json::str(workload).render());
    write!(text, ",\"seed\":{DEFAULT_SEED},\"references\":[").expect("write to String");
    // One reference per line: a drifted input shows as a one-line diff.
    for (i, r) in refs.iter().enumerate() {
        text.push_str(if i == 0 { "\n" } else { ",\n" });
        text.push_str(&r.to_json().render());
    }
    text.push_str("\n]}\n");
    let path = golden_path(workload);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The references for `apps`, in order. The pinned seed reads the
/// committed file and refuses to run if the generated inputs are no
/// longer the ones it describes; any other seed falls back to baseline
/// builds.
pub fn references(
    workload: &str,
    seed: u64,
    apps: &[&App],
) -> Result<(Vec<Reference>, ReferenceKind), String> {
    if seed != DEFAULT_SEED {
        let refs =
            apps.iter().map(|app| Reference::from_baseline(app)).collect::<Result<_, _>>()?;
        return Ok((refs, ReferenceKind::Differential));
    }
    let path = golden_path(workload);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let refs: Vec<Reference> = doc
        .get("references")
        .and_then(Json::as_arr)
        .and_then(|a| a.iter().map(Reference::from_json).collect())
        .ok_or_else(|| format!("{}: not a reference file", path.display()))?;
    if refs.len() != apps.len() {
        return Err(format!(
            "inputs drifted: {workload} generates {} inputs, {} has {}",
            apps.len(),
            path.display(),
            refs.len()
        ));
    }
    for (r, app) in refs.iter().zip(apps) {
        let digest = input_digest(app);
        if r.input != app.name || r.input_digest != digest {
            return Err(format!(
                "inputs drifted: {workload} input {} has digest {digest:016x}, {} describes {} with {:016x}",
                app.name,
                path.display(),
                r.input,
                r.input_digest
            ));
        }
    }
    Ok((refs, ReferenceKind::Golden))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_are_deterministic_and_distinct() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
    }

    #[test]
    fn digest_follows_the_seed_and_reference_catches_a_wrong_outcome() {
        let a = generate_seeded(AppSpec::small("t", 1), 10);
        let b = generate_seeded(AppSpec::small("t", 1), 10);
        let c = generate_seeded(AppSpec::small("t", 1), 11);
        assert_eq!(input_digest(&a), input_digest(&b));
        assert_ne!(input_digest(&a), input_digest(&c));

        let reference = Reference::from_baseline(&a).unwrap();
        assert_eq!(Reference::from_json(&reference.to_json()), Some(reference.clone()));
        let out = BuildSession::new().build(&a.dex, &BuildOptions::cto_ltbo()).unwrap();
        let mut replayed = replay(&out.oat, &a).unwrap();
        reference.check(&replayed).unwrap();
        replayed.outcomes[3] = "bogus".to_owned();
        assert!(reference.check(&replayed).unwrap_err().contains("trace call 3"));
    }
}
