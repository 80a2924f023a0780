//! # calibro-workloads
//!
//! Deterministic synthetic Android applications for the Calibro
//! reproduction. The paper evaluates on six commercial apps from the
//! OPPO App Market (Toutiao, Taobao, Fanqie/Tomato Novel, Meituan,
//! Kuaishou, WeChat); those APKs are proprietary, so this crate
//! generates seeded stand-ins whose *redundancy structure* matches the
//! paper's observations:
//!
//! * ART-specific patterns (Java calls, runtime entrypoint calls,
//!   stack-overflow checks) arise naturally from `Invoke`/`NewInstance`
//!   lowering — Observation 3;
//! * short cross-method repeats come from a shared "motif" pool drawn
//!   with a skewed distribution — Observations 1-2 (short sequences,
//!   high repeat counts);
//! * a small fraction of methods carries switches (indirect jumps) and
//!   JNI natives, exercising the paper's exclusion flags;
//! * a seeded usage trace with a skewed method popularity distribution
//!   drives the Table 5/7 runs and the `HfOpti` profiling loop.
//!
//! Relative app sizes are proportional to the paper's Table 4 baseline
//! OAT sizes, scaled down to simulator-friendly magnitudes.

#![warn(missing_docs)]

pub mod generators;

use std::collections::HashMap;

use calibro_dex::{
    BinOp, ClassId, Cmp, DexFile, DexInsn, FieldId, InvokeKind, Method, MethodBuilder, MethodId,
    StaticId, VReg,
};
use calibro_runtime::{NativeMethod, RuntimeEnv};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of one synthetic application.
#[derive(Clone, Debug)]
pub struct AppSpec {
    /// Display name.
    pub name: String,
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Number of non-native methods.
    pub methods: usize,
    /// Number of classes.
    pub classes: usize,
    /// Number of JNI native methods.
    pub natives: usize,
    /// Size of the shared motif pool.
    pub motif_pool: usize,
    /// Motifs inserted per method (min, max).
    pub motifs_per_method: (usize, usize),
    /// Probability that a method carries a switch (indirect jump).
    pub switch_fraction: f64,
    /// Probability of emitting a call segment.
    pub call_fraction: f64,
    /// Number of top-level invocations in the usage trace.
    pub trace_len: usize,
    /// Popularity skew: weight of rank `r` is `1 / (r + 1)^skew`.
    pub hot_skew: f64,
    /// Unique filler instructions emitted per segment (min, max) —
    /// dilutes redundancy towards the paper's measured levels.
    pub filler_per_segment: (usize, usize),
    /// Number of clone families: groups of 3-5 near-identical
    /// straight-line methods differing only in one or two immediate
    /// constants, so their bodies repeat except at those `movz` sites
    /// (real apps get these from monomorphized generics and copy-pasted
    /// utilities).
    pub clone_families: usize,
}

impl AppSpec {
    /// A small spec for tests and examples.
    #[must_use]
    pub fn small(name: &str, seed: u64) -> AppSpec {
        AppSpec {
            name: name.to_owned(),
            seed,
            methods: 60,
            classes: 4,
            natives: 2,
            motif_pool: 12,
            motifs_per_method: (2, 5),
            switch_fraction: 0.05,
            call_fraction: 0.5,
            trace_len: 60,
            hot_skew: 1.2,
            filler_per_segment: (12, 24),
            clone_families: 2,
        }
    }
}

/// One top-level call in the usage trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCall {
    /// Entry method.
    pub method: MethodId,
    /// Its two arguments.
    pub args: [i32; 2],
}

/// A generated application.
#[derive(Debug)]
pub struct App {
    /// Display name.
    pub name: String,
    /// The bytecode container.
    pub dex: DexFile,
    /// Runtime environment (class sizes, natives, statics).
    pub env: RuntimeEnv,
    /// The seeded usage trace.
    pub trace: Vec<TraceCall>,
}

/// The six paper apps with baseline OAT sizes proportional to Table 4
/// (357M, 225M, 264M, 247M, 612M, 388M), scaled by `methods_per_unit`
/// methods per MB-of-paper-baseline.
#[must_use]
pub fn paper_suite(methods_per_unit: f64) -> Vec<AppSpec> {
    let table4_mb = [
        ("toutiao", 357.0, 11u64),
        ("taobao", 225.0, 22),
        ("fanqie", 264.0, 33),
        ("meituan", 247.0, 44),
        ("kuaishou", 612.0, 55),
        ("wechat", 388.0, 66),
    ];
    table4_mb
        .into_iter()
        .map(|(name, mb, seed)| {
            let methods = (mb * methods_per_unit).round() as usize;
            AppSpec {
                name: name.to_owned(),
                seed,
                methods: methods.max(30),
                classes: (methods / 25).max(3),
                natives: (methods / 60).max(1),
                motif_pool: 40,
                motifs_per_method: (2, 6),
                switch_fraction: 0.04,
                call_fraction: 0.45,
                // The paper's uiautomator scripts exercise apps broadly;
                // cover a large share of entry points.
                trace_len: (methods / 2).max(160),
                hot_skew: 1.5,
                filler_per_segment: (12, 24),
                clone_families: (methods / 60).max(2),
            }
        })
        .collect()
}

/// A straight-line instruction snippet reused across methods.
type Motif = Vec<DexInsn>;

fn generate_motifs(rng: &mut StdRng, count: usize) -> Vec<Motif> {
    let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And, BinOp::Or, BinOp::Xor];
    (0..count)
        .map(|_| {
            let len = rng.gen_range(3..=8);
            (0..len)
                .map(|_| {
                    if rng.gen_bool(0.25) {
                        DexInsn::BinLit {
                            op: ops[rng.gen_range(0..ops.len())],
                            dst: VReg(rng.gen_range(0..4)),
                            a: VReg(rng.gen_range(0..6)),
                            lit: rng.gen_range(1..64),
                        }
                    } else {
                        DexInsn::Bin {
                            op: ops[rng.gen_range(0..ops.len())],
                            dst: VReg(rng.gen_range(0..4)),
                            a: VReg(rng.gen_range(0..6)),
                            b: VReg(rng.gen_range(0..6)),
                        }
                    }
                })
                .collect()
        })
        .collect()
}

/// Draws indices with weight `1 / (i + 1)^skew` from one table of the
/// weights and their running totals, grown as the range does: a draw
/// computes no weight another draw already has.
struct Skewed {
    skew: f64,
    weights: Vec<f64>,
    /// `totals[n]` is the sum of the first `n` weights, added in index
    /// order, which is exactly the sum of a vector of them.
    totals: Vec<f64>,
}

impl Skewed {
    fn new(skew: f64) -> Skewed {
        Skewed { skew, weights: Vec::new(), totals: vec![0.0] }
    }

    /// Picks an index below `n`.
    fn index(&mut self, rng: &mut StdRng, n: usize) -> usize {
        for i in self.weights.len()..n {
            let weight = 1.0 / ((i + 1) as f64).powf(self.skew);
            self.weights.push(weight);
            self.totals.push(self.totals[i] + weight);
        }
        let mut pick = rng.gen_range(0.0..self.totals[n]);
        for (i, w) in self.weights[..n].iter().enumerate() {
            if pick < *w {
                return i;
            }
            pick -= w;
        }
        n - 1
    }
}

/// Generates an application from its spec (fully deterministic).
#[must_use]
pub fn generate(spec: &AppSpec) -> App {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut dex = DexFile::new();
    let motifs = generate_motifs(&mut rng, spec.motif_pool);
    let mut motif_skew = Skewed::new(1.1);
    let mut hot_skew = Skewed::new(spec.hot_skew);

    let classes: Vec<ClassId> =
        (0..spec.classes).map(|i| dex.add_class(format!("C{i}"), 2 + (i as u32 % 4))).collect();
    let num_statics = 8;
    dex.reserve_statics(num_statics);

    // Native methods first (ids 0..natives).
    let mut native_ids = Vec::new();
    for i in 0..spec.natives {
        let id = dex.add_method(Method {
            id: MethodId(0),
            class: classes[i % classes.len()],
            name: format!("native{i}"),
            num_regs: 0,
            num_args: 2,
            insns: vec![],
            is_native: true,
        });
        native_ids.push(id);
    }

    // Java methods; method k may only call methods with smaller ids
    // (acyclic by construction, so every trace terminates).
    let first_java = native_ids.len() as u32;
    for k in 0..spec.methods {
        let id = first_java + k as u32;
        let class = classes[rng.gen_range(0..classes.len())];
        // Vary the frame shape: 6..=8 register-homed, occasionally a
        // spilling method — prologues/epilogues then differ by class,
        // as across real compiled apps.
        let num_regs: u16 = *[6, 6, 7, 7, 8, 8, 8, 10].get(rng.gen_range(0..8)).unwrap();
        let mut b = MethodBuilder::new(format!("m{id}"), num_regs, 2);
        b.push(DexInsn::Move { dst: VReg(4), src: VReg(num_regs - 2) });
        b.push(DexInsn::Move { dst: VReg(5), src: VReg(num_regs - 1) });
        b.push(DexInsn::Const { dst: VReg(0), value: rng.gen_range(-64..64) });
        // Motifs read v0..v5 freely; seed the locals so every read is
        // definitely assigned (the verifier rejects reads of undefined
        // registers, whose contents would be build-dependent).
        for r in 1..4 {
            b.push(DexInsn::Const { dst: VReg(r), value: rng.gen_range(-8..8) });
        }

        if rng.gen_bool(spec.switch_fraction) {
            let arms: Vec<_> = (0..3).map(|_| b.label()).collect();
            let done = b.label();
            b.switch(VReg(4), 0, &arms);
            for (ai, arm) in arms.iter().enumerate() {
                b.bind(*arm);
                b.push(DexInsn::Const { dst: VReg(1), value: ai as i32 * 10 });
                b.goto(done);
            }
            b.bind(done);
            b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(0), b: VReg(1) });
        }

        let segments = rng.gen_range(spec.motifs_per_method.0..=spec.motifs_per_method.1);
        for _ in 0..segments {
            // Unique filler: a live computation chain through v0 that
            // repeats nowhere else, diluting redundancy like real app
            // logic. Keeping everything data-dependent on the arguments
            // stops the optimizer from folding or eliminating it.
            let filler = rng.gen_range(spec.filler_per_segment.0..=spec.filler_per_segment.1);
            let ops = [BinOp::Add, BinOp::Sub, BinOp::Xor, BinOp::Or, BinOp::Mul];
            b.push(DexInsn::Bin {
                op: BinOp::Add,
                dst: VReg(0),
                a: VReg(0),
                b: VReg(if rng.gen_bool(0.5) { 4 } else { 5 }),
            });
            for _ in 0..filler {
                b.push(DexInsn::BinLit {
                    op: ops[rng.gen_range(0..ops.len())],
                    dst: VReg(0),
                    a: VReg(0),
                    lit: rng.gen_range(-2048..2048),
                });
            }
            // Motif, drawn with skew so a few motifs dominate
            // (Observation 2: short sequences, high repeat counts).
            // Some segments are pure app logic with no shared motif.
            if rng.gen_bool(0.3) {
                // no motif in this segment
            } else {
                let motif = &motifs[motif_skew.index(&mut rng, motifs.len())];
                if rng.gen_bool(0.35) {
                    // Guarded variant: same motif body inside a branch.
                    let skip = b.label();
                    b.if_z(Cmp::Lt, VReg(rng.gen_range(4..6)), skip);
                    for insn in motif {
                        b.push(insn.clone());
                    }
                    b.bind(skip);
                } else {
                    for insn in motif {
                        b.push(insn.clone());
                    }
                }
            }

            match rng.gen_range(0..10) {
                0 | 1 => {
                    // Allocation + field traffic.
                    let class_idx = rng.gen_range(0..classes.len());
                    b.push(DexInsn::NewInstance { dst: VReg(1), class: classes[class_idx] });
                    b.push(DexInsn::IPut { src: VReg(0), obj: VReg(1), field: FieldId(0) });
                    b.push(DexInsn::IGet { dst: VReg(2), obj: VReg(1), field: FieldId(0) });
                    b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(0), b: VReg(2) });
                }
                2 => {
                    // Static traffic.
                    let slot = StaticId(rng.gen_range(0..num_statics));
                    b.push(DexInsn::SGet { dst: VReg(2), slot });
                    b.push(DexInsn::Bin { op: BinOp::Xor, dst: VReg(2), a: VReg(2), b: VReg(0) });
                    b.push(DexInsn::SPut { src: VReg(2), slot });
                }
                3 => {
                    // Division (slow path material); divisor forced odd.
                    b.push(DexInsn::BinLit { op: BinOp::Or, dst: VReg(2), a: VReg(5), lit: 1 });
                    b.push(DexInsn::Bin { op: BinOp::Div, dst: VReg(0), a: VReg(0), b: VReg(2) });
                }
                4 if !native_ids.is_empty() => {
                    let native = native_ids[rng.gen_range(0..native_ids.len())];
                    b.push(DexInsn::InvokeNative {
                        method: native,
                        args: vec![VReg(0), VReg(4)],
                        dst: Some(VReg(0)),
                    });
                }
                _ => {}
            }

            if id > first_java && rng.gen_bool(spec.call_fraction) {
                // Call an earlier Java method; callee popularity is
                // skewed so some methods become very hot.
                let range = id - first_java;
                let offset = hot_skew.index(&mut rng, range as usize);
                let callee = MethodId(first_java + offset as u32);
                b.push(DexInsn::Invoke {
                    kind: if rng.gen_bool(0.5) { InvokeKind::Virtual } else { InvokeKind::Static },
                    method: callee,
                    args: vec![VReg(0), VReg(5)],
                    dst: Some(VReg(3)),
                });
                b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(0), b: VReg(3) });
            }
        }
        b.push(DexInsn::Return { src: VReg(0) });
        dex.add_method(b.build(class));
    }

    // Clone families: straight-line near-duplicates that differ only in
    // one or two immediate constants. Constants are drawn from
    // 4097..65535 avoiding multiples of 4096 so they are never
    // imm12-encodable (they stay a plain `movz`) and never need a
    // literal pool.
    for f in 0..spec.clone_families {
        let family = rng.gen_range(3..=5);
        let len = rng.gen_range(8..=16);
        let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Xor];
        let template: Vec<(BinOp, u16)> =
            (0..len).map(|_| (ops[rng.gen_range(0..ops.len())], rng.gen_range(4..6))).collect();
        let diffs = rng.gen_range(1..=2usize).min(len);
        let mut diff_at: Vec<usize> = Vec::new();
        while diff_at.len() < diffs {
            let at = rng.gen_range(0..len);
            if !diff_at.contains(&at) {
                diff_at.push(at);
            }
        }
        for c in 0..family {
            // num_regs = 6 homes both args in v4/v5 directly.
            let mut b = MethodBuilder::new(format!("clone{f}_{c}"), 6, 2);
            b.push(DexInsn::Const { dst: VReg(0), value: f as i32 + 1 });
            for (i, &(op, src)) in template.iter().enumerate() {
                if diff_at.contains(&i) {
                    let k = loop {
                        let k = rng.gen_range(4097..=65535);
                        if k % 4096 != 0 {
                            break k;
                        }
                    };
                    b.push(DexInsn::Const { dst: VReg(1), value: k });
                    b.push(DexInsn::Bin { op, dst: VReg(0), a: VReg(0), b: VReg(1) });
                } else {
                    b.push(DexInsn::Bin { op, dst: VReg(0), a: VReg(0), b: VReg(src) });
                }
            }
            b.push(DexInsn::Return { src: VReg(0) });
            dex.add_method(b.build(classes[f % classes.len()]));
        }
    }

    // Runtime environment.
    let mut natives = HashMap::new();
    for (i, id) in native_ids.iter().enumerate() {
        let func: fn(&[i32]) -> i32 = match i % 3 {
            0 => |a| a[0].wrapping_mul(31).wrapping_add(a[1]),
            1 => |a| a[0] ^ a[1].rotate_left(7),
            _ => |a| a[0].wrapping_sub(a[1]).wrapping_mul(17),
        };
        natives.insert(id.0, NativeMethod { arity: 2, func });
    }
    let env = RuntimeEnv {
        class_sizes: dex.classes().iter().map(calibro_dex::Class::instance_size).collect(),
        natives,
        statics: (0..dex.num_statics()).map(|i| i as i32 * 3 + 1).collect(),
        icache: true,
    };

    // Usage trace. Like the paper's uiautomator scripts, the workload
    // first exercises the app broadly (every Java method is entered at
    // least once), then spends the bulk of its time in a skewed hot set
    // (later methods call more code, so the tail is weighted).
    let total_methods = dex.methods().len();
    let java_count = total_methods - first_java as usize;
    let mut trace = Vec::with_capacity(java_count + spec.trace_len);
    for k in 0..java_count {
        trace.push(TraceCall {
            method: MethodId((first_java as usize + k) as u32),
            args: [rng.gen_range(-20..20), rng.gen_range(1..20)],
        });
    }
    for _ in 0..spec.trace_len {
        // Prefer methods near the end of the table (deep call trees,
        // and — when present — the clone families).
        let back = hot_skew.index(&mut rng, java_count);
        let method = MethodId((total_methods - 1 - back) as u32);
        trace.push(TraceCall { method, args: [rng.gen_range(-20..20), rng.gen_range(1..20)] });
    }

    App { name: spec.name.clone(), dex, env, trace }
}

/// Deterministically mutates roughly `fraction` of the app's Java
/// methods in place — the incremental-rebuild workload: an app update
/// touches a small slice of the code while everything else stays
/// byte-identical. Each selected method has the literal of its first
/// `Const` or `BinLit` instruction flipped, which changes its bytecode
/// (and therefore its content hash) without affecting verifiability.
/// Returns the mutated method ids, in id order.
///
/// The same `(seed, fraction)` always picks the same methods, so warm
/// and cold builds of the mutated file see identical inputs.
pub fn mutate_methods(dex: &mut DexFile, seed: u64, fraction: f64) -> Vec<MethodId> {
    let java: Vec<MethodId> = dex.methods().iter().filter(|m| !m.is_native).map(|m| m.id).collect();
    if java.is_empty() {
        return Vec::new();
    }
    let want = ((java.len() as f64 * fraction).ceil() as usize).clamp(1, java.len());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mutated = Vec::new();
    let mut tried = std::collections::HashSet::new();
    while mutated.len() < want && tried.len() < java.len() {
        let id = java[rng.gen_range(0..java.len())];
        if !tried.insert(id) {
            continue;
        }
        let method = dex.method_mut(id);
        let flipped = method.insns.iter_mut().find_map(|insn| match insn {
            DexInsn::Const { value, .. } => {
                *value ^= 1;
                Some(())
            }
            DexInsn::BinLit { lit, .. } => {
                *lit ^= 1;
                Some(())
            }
            _ => None,
        });
        if flipped.is_some() {
            mutated.push(id);
        }
    }
    mutated.sort_unstable();
    mutated
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = AppSpec::small("t", 42);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.dex.total_insns(), b.dex.total_insns());
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn generated_apps_verify() {
        for seed in 0..5 {
            let app = generate(&AppSpec::small("t", seed));
            calibro_dex::verify(&app.dex).unwrap();
        }
    }

    #[test]
    fn trace_targets_exist_and_natives_are_registered() {
        let app = generate(&AppSpec::small("t", 7));
        for call in &app.trace {
            assert!(call.method.index() < app.dex.methods().len());
            assert!(!app.dex.method(call.method).is_native, "trace calls Java methods");
        }
        for m in app.dex.methods().iter().filter(|m| m.is_native) {
            assert!(app.env.natives.contains_key(&m.id.0), "native {} unregistered", m.id);
        }
    }

    #[test]
    fn paper_suite_sizes_are_proportional() {
        let suite = paper_suite(1.0);
        assert_eq!(suite.len(), 6);
        let kuaishou = suite.iter().find(|s| s.name == "kuaishou").unwrap();
        let taobao = suite.iter().find(|s| s.name == "taobao").unwrap();
        assert!(kuaishou.methods > 2 * taobao.methods);
    }

    #[test]
    fn apps_contain_exclusion_material() {
        let app = generate(&AppSpec::small("t", 11));
        let has_native = app.dex.methods().iter().any(|m| m.is_native);
        assert!(has_native);
    }

    #[test]
    fn mutate_methods_is_deterministic_and_small() {
        let spec = AppSpec::small("t", 3);
        let mut a = generate(&spec).dex;
        let mut b = generate(&spec).dex;
        let ma = mutate_methods(&mut a, 99, 0.05);
        let mb = mutate_methods(&mut b, 99, 0.05);
        assert_eq!(ma, mb, "same seed must pick the same methods");
        assert!(!ma.is_empty() && ma.len() <= a.methods().len() / 10);
        calibro_dex::verify(&a).unwrap();
        // Untouched methods stay byte-identical to the original.
        let fresh = generate(&spec).dex;
        for m in a.methods() {
            let same = m.insns == fresh.method(m.id).insns;
            assert_eq!(same, !ma.contains(&m.id), "method {} mutation state", m.id);
        }
    }
}
