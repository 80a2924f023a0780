//! A program held across builds: an immutable [`DexFile`] that keeps
//! the method keys of the last options fingerprint it was built under.
//!
//! Every build addresses each method by [`method_cache_key`], which
//! serializes and hashes the method's whole body. A caller that builds
//! the same bytes again and again (calibrod's held programs, its tenant
//! refreshes) would redo that hash on every build for keys that cannot
//! have changed: a key is a pure function of the method, the options
//! fingerprint and — with inlining on — the program salt, and the first
//! and last are fixed by the program. [`Program`] remembers the keys of
//! the last fingerprint it was built under, and
//! [`BuildSession::build_program`] takes them from it instead of
//! hashing.
//!
//! [`BuildSession::build_program`]: crate::BuildSession::build_program

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use calibro_cache::CacheKey;
use calibro_dex::DexFile;

use crate::driver::{BuildError, BuildOptions};
use crate::fingerprint::{method_cache_key, program_salt};
use crate::pipeline::run_indexed;

/// An immutable program that keeps the method keys of the options
/// fingerprint it was last built under (see the module docs). The
/// program cannot be changed through it, so a memoized key list always
/// belongs to the bytes it was computed from.
///
/// ```
/// use calibro::{BuildOptions, BuildSession, Program};
/// use calibro_dex::{DexFile, DexInsn, MethodBuilder, VReg};
///
/// let mut dex = DexFile::new();
/// let class = dex.add_class("Main", 0);
/// let mut b = MethodBuilder::new("f", 2, 1);
/// b.push(DexInsn::Return { src: VReg(1) });
/// dex.add_method(b.build(class));
///
/// let session = BuildSession::new();
/// let direct = session.build(&dex, &BuildOptions::default())?;
/// let program = Program::new(dex);
/// let held = session.build_program(&program, &BuildOptions::default())?;
/// assert_eq!(direct.oat.words, held.oat.words);
/// # Ok::<(), calibro::BuildError>(())
/// ```
pub struct Program {
    dex: DexFile,
    /// `(options fingerprint, method keys)` of the last fingerprint
    /// keyed; a build under another fingerprint replaces it.
    keys: Mutex<Option<(CacheKey, Arc<Vec<CacheKey>>)>>,
}

impl Program {
    /// Wraps `dex`; no key is computed until a build asks.
    #[must_use]
    pub fn new(dex: DexFile) -> Program {
        Program { dex, keys: Mutex::new(None) }
    }

    /// The program.
    #[must_use]
    pub fn dex(&self) -> &DexFile {
        &self.dex
    }

    /// A poisoned lock is recovered (DESIGN.md §7 "Lock policy"): the
    /// critical sections only read or replace the whole slot, and the
    /// slot only ever holds a finished key list.
    fn lock(&self) -> MutexGuard<'_, Option<(CacheKey, Arc<Vec<CacheKey>>)>> {
        self.keys.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The method keys under `options`, whose fingerprint is `options_fp`:
    /// the memoized list when it is this fingerprint's, else computed
    /// (unlocked, so a long hash holds up no other build) and memoized
    /// in place of the last. When two builds race on one fingerprint,
    /// the first list stored is the one both return.
    pub(crate) fn method_keys(
        &self,
        options: &BuildOptions,
        options_fp: CacheKey,
    ) -> Result<Arc<Vec<CacheKey>>, BuildError> {
        if let Some(keys) = self.memoized(options_fp) {
            return Ok(keys);
        }
        let computed = Arc::new(method_keys(&self.dex, options, options_fp)?);
        let mut memo = self.lock();
        match &*memo {
            Some((fp, keys)) if *fp == options_fp => Ok(Arc::clone(keys)),
            _ => {
                *memo = Some((options_fp, Arc::clone(&computed)));
                Ok(computed)
            }
        }
    }

    /// The memoized keys, if they are `options_fp`'s.
    fn memoized(&self, options_fp: CacheKey) -> Option<Arc<Vec<CacheKey>>> {
        match &*self.lock() {
            Some((fp, keys)) if *fp == options_fp => Some(Arc::clone(keys)),
            _ => None,
        }
    }
}

impl core::fmt::Debug for Program {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Program")
            .field("methods", &self.dex.methods().len())
            .field("keyed", &self.lock().is_some())
            .finish()
    }
}

/// Every method's [`method_cache_key`] under `options` (fingerprint
/// `options_fp`), in method-index order. Hashing fans out like codegen:
/// each worker serializes methods into its own reused thread-local
/// buffer and mixes word-at-a-time (see `calibro_cache::hash`).
pub(crate) fn method_keys(
    dex: &DexFile,
    options: &BuildOptions,
    options_fp: CacheKey,
) -> Result<Vec<CacheKey>, BuildError> {
    let methods = dex.methods();
    let salt = options.inlining.then(|| program_salt(dex));
    let threads = options.compile_threads.max(1);
    run_indexed(methods.len(), threads, |i| method_cache_key(&methods[i], options_fp, salt))
        .map(|(keys, _loads)| keys)
        .map_err(|p| BuildError::CompileWorker { method: p.index, message: p.message })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::options_fingerprint;
    use crate::{BuildSession, LtboMode};
    use calibro_workloads::{generate, AppSpec};

    /// Every options arm the keys depend on differently: the global and
    /// the sharded tree, a hot filter, merging, and inlining (the only
    /// arm whose keys carry the program salt).
    fn arms(methods: u32) -> Vec<(&'static str, BuildOptions)> {
        vec![
            ("global", BuildOptions::cto_ltbo()),
            (
                "parallel",
                BuildOptions {
                    ltbo: Some(LtboMode::Parallel { groups: 4, threads: 2 }),
                    compile_threads: 2,
                    ..BuildOptions::cto_ltbo()
                },
            ),
            ("hot", BuildOptions::cto_ltbo().with_hot_filter((0..methods).step_by(3).collect())),
            ("merge", BuildOptions::cto_merge_ltbo()),
            ("inlining", BuildOptions { inlining: true, ..BuildOptions::cto_ltbo() }),
        ]
    }

    #[test]
    fn a_program_builds_what_its_dex_builds_from_the_same_keys() {
        let app = generate(&AppSpec::small("held", 71));
        let methods = app.dex.methods().len() as u32;
        let program = Program::new(app.dex.clone());
        for (arm, options) in arms(methods) {
            let fp = options_fingerprint(&options);
            let direct_session = BuildSession::new();
            let direct = direct_session.frontend(&app.dex, &options).expect("frontend");
            let held_session = BuildSession::new();
            let held = held_session
                .frontend_with(program.dex(), &options, |fp| program.method_keys(&options, fp));
            let held = held.expect("program frontend");
            assert_eq!(direct.keys, held.keys, "{arm}: keys");
            let salt = options.inlining.then(|| program_salt(&app.dex));
            let expected: Vec<_> =
                app.dex.methods().iter().map(|m| method_cache_key(m, fp, salt)).collect();
            assert_eq!(*held.keys, expected, "{arm}: keys are method_cache_key's");

            let cold = BuildSession::new().build(&app.dex, &options).expect("build");
            let session = BuildSession::new();
            let first = session.build_program(&program, &options).expect("build_program");
            let again = session.build_program(&program, &options).expect("warm build_program");
            let bytes = |out: &crate::BuildOutput| calibro_oat::to_elf_bytes(&out.oat);
            assert_eq!(bytes(&first), bytes(&cold), "{arm}: cold artifact");
            assert_eq!(bytes(&again), bytes(&cold), "{arm}: warm artifact");
            assert_eq!(again.stats.methods_from_cache, again.stats.methods, "{arm}: all hits");

            let memoized = program.method_keys(&options, fp).expect("keys");
            assert!(Arc::ptr_eq(&memoized, &held.keys), "{arm}: the memoized list is reused");
        }
    }

    #[test]
    fn another_fingerprint_replaces_the_memoized_keys() {
        let app = generate(&AppSpec::small("replace", 72));
        let program = Program::new(app.dex.clone());
        let arms: Vec<_> = arms(app.dex.methods().len() as u32)
            .into_iter()
            .map(|(_, options)| (options_fingerprint(&options), options))
            .collect();
        let keys = |(fp, options): &(CacheKey, BuildOptions)| {
            program.method_keys(options, *fp).expect("keys")
        };
        let first = keys(&arms[0]);
        assert!(Arc::ptr_eq(&keys(&arms[0]), &first), "a repeat is a hit");
        let other = keys(&arms[1]);
        assert!(Arc::ptr_eq(&keys(&arms[1]), &other), "the new fingerprint is kept");
        let recomputed = keys(&arms[0]);
        assert!(!Arc::ptr_eq(&recomputed, &first), "the replaced fingerprint went");
        assert_eq!(recomputed, first, "and comes back equal");
    }

    #[test]
    fn a_poisoned_memo_keeps_answering() {
        let app = generate(&AppSpec::small("poisoned-memo", 73));
        let program = Arc::new(Program::new(app.dex.clone()));
        let options = BuildOptions::cto_ltbo();
        let fp = options_fingerprint(&options);
        let before = program.method_keys(&options, fp).expect("keys");
        let holder = Arc::clone(&program);
        let died = std::thread::spawn(move || {
            let _memo = holder.keys.lock();
            panic!("a holder of the key memo dies");
        });
        assert!(died.join().is_err());
        assert!(program.keys.is_poisoned());
        assert!(Arc::ptr_eq(&program.method_keys(&options, fp).expect("keys"), &before));
    }
}
