//! Pluggable program generators for the conformance harness.
//!
//! The motif-based [`generate`] models whole apps; the
//! targeted generators here aim at the three ART-specific patterns the
//! paper's CTO outlines (§3.1) — the `ArtMethod` Java-call sequence, the
//! `x19`-relative runtime entrypoint call, and the stack-overflow check —
//! so that every CTO/LTBO interaction around those patterns is hit even
//! at small corpus sizes. Each generator is a pure function of its seed.

use std::collections::HashMap;

use calibro_dex::{
    BinOp, ClassId, Cmp, DexFile, DexInsn, FieldId, InvokeKind, Method, MethodBuilder, MethodId,
    StaticId, VReg,
};
use calibro_runtime::{NativeMethod, RuntimeEnv};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{generate, App, AppSpec, TraceCall};

/// A seeded source of conformance-test programs.
///
/// Implementations must be deterministic: the same seed always yields
/// the same [`App`] (dex, environment, and trace), and the generated dex
/// must pass [`calibro_dex::verify`] with a trace that terminates under
/// the baseline build.
pub trait ProgramGen {
    /// Stable generator name, recorded in regression-corpus seed lines.
    fn name(&self) -> &'static str;
    /// Generates the program for `seed`.
    fn generate(&self, seed: u64) -> App;
}

/// Every generator, in corpus order. The conformance driver cycles
/// through these so each seed batch covers app-shaped redundancy and all
/// three targeted ART patterns.
#[must_use]
pub fn all_generators() -> Vec<Box<dyn ProgramGen>> {
    vec![
        Box::new(MotifAppGen),
        Box::new(ArtCallGen),
        Box::new(EntrypointGen),
        Box::new(StackCheckGen),
    ]
}

/// Looks a generator up by its [`ProgramGen::name`] (used when replaying
/// regression-corpus seed lines).
#[must_use]
pub fn generator_by_name(name: &str) -> Option<Box<dyn ProgramGen>> {
    all_generators().into_iter().find(|g| g.name() == name)
}

/// The app-shaped generator: drives [`generate`] with redundancy /
/// hotness knobs themselves derived from the seed, so consecutive seeds
/// explore different motif-pool sizes, switch densities and call
/// fractions rather than one fixed spec.
pub struct MotifAppGen;

impl ProgramGen for MotifAppGen {
    fn name(&self) -> &'static str {
        "motif-app"
    }

    fn generate(&self, seed: u64) -> App {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6d6f_7469); // "moti"
        let spec = AppSpec {
            name: format!("motif-app-{seed}"),
            seed,
            methods: rng.gen_range(24..72),
            classes: rng.gen_range(2..6),
            natives: rng.gen_range(0..4),
            motif_pool: rng.gen_range(4..24),
            motifs_per_method: (1, rng.gen_range(3..7)),
            switch_fraction: rng.gen_range(0.0..0.15),
            call_fraction: rng.gen_range(0.2..0.7),
            trace_len: 40,
            hot_skew: rng.gen_range(0.8..1.8),
            filler_per_segment: (2, rng.gen_range(6..20)),
            clone_families: rng.gen_range(0..4),
        };
        generate(&spec)
    }
}

/// Targets the **`ArtMethod` call** pattern (paper Figure 4a): layers of
/// small methods invoking earlier methods through the `ArtMethod` table,
/// so the load-table / load-entry / `blr` sequence repeats densely and
/// LTBO must preserve call metadata while outlining around it.
pub struct ArtCallGen;

impl ProgramGen for ArtCallGen {
    fn name(&self) -> &'static str {
        "art-call"
    }

    fn generate(&self, seed: u64) -> App {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6172_7463); // "artc"
        let mut dex = DexFile::new();
        let class = dex.add_class("Calls", 3);
        dex.reserve_statics(2);

        // Leaf layer: pure arithmetic, no calls.
        let leaves = rng.gen_range(3..6);
        for i in 0..leaves {
            let mut b = MethodBuilder::new(format!("leaf{i}"), 6, 2);
            b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(4), b: VReg(5) });
            for _ in 0..rng.gen_range(1..4) {
                let ops = [BinOp::Xor, BinOp::Sub, BinOp::Mul, BinOp::Or];
                b.push(DexInsn::BinLit {
                    op: ops[rng.gen_range(0..ops.len())],
                    dst: VReg(0),
                    a: VReg(0),
                    lit: rng.gen_range(-256..256),
                });
            }
            b.push(DexInsn::Return { src: VReg(0) });
            dex.add_method(b.build(class));
        }

        // Caller layers: each method invokes several earlier methods —
        // every invoke lowers to the ArtMethod-call sequence.
        let callers = rng.gen_range(4..10);
        for i in 0..callers {
            let id = leaves + i;
            let mut b = MethodBuilder::new(format!("caller{i}"), 8, 2);
            b.push(DexInsn::Move { dst: VReg(4), src: VReg(6) });
            b.push(DexInsn::Const { dst: VReg(0), value: rng.gen_range(-8..8) });
            for _ in 0..rng.gen_range(2..5) {
                let callee = MethodId(rng.gen_range(0..id) as u32);
                let kind = if rng.gen_bool(0.5) { InvokeKind::Virtual } else { InvokeKind::Static };
                b.push(DexInsn::Invoke {
                    kind,
                    method: callee,
                    args: vec![VReg(0), VReg(4)],
                    dst: Some(VReg(1)),
                });
                b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(0), b: VReg(1) });
            }
            b.push(DexInsn::Return { src: VReg(0) });
            dex.add_method(b.build(class));
        }

        let env = standard_env(&dex);
        let trace = layered_trace(&mut rng, leaves + callers, 24);
        App { name: format!("art-call-{seed}"), dex, env, trace }
    }
}

/// Targets the **`x19` entrypoint call** pattern (paper Figure 4b):
/// allocation, division slow paths, explicit throws and JNI bridges, all
/// of which load a runtime entrypoint from the thread register and `blr`
/// to it.
pub struct EntrypointGen;

impl ProgramGen for EntrypointGen {
    fn name(&self) -> &'static str {
        "entrypoint"
    }

    fn generate(&self, seed: u64) -> App {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6570_6373); // "epcs"
        let mut dex = DexFile::new();
        let classes: Vec<ClassId> = (0..3).map(|i| dex.add_class(format!("E{i}"), 2 + i)).collect();
        dex.reserve_statics(4);

        // One JNI native: its call sites lower to the bridge entrypoint.
        let native = dex.add_method(Method {
            id: MethodId(0),
            class: classes[0],
            name: "nativeHash".to_owned(),
            num_regs: 0,
            num_args: 2,
            insns: vec![],
            is_native: true,
        });

        let methods = rng.gen_range(6..12);
        for k in 0..methods {
            let mut b = MethodBuilder::new(format!("ep{k}"), 8, 2);
            b.push(DexInsn::Move { dst: VReg(4), src: VReg(6) });
            b.push(DexInsn::Move { dst: VReg(5), src: VReg(7) });
            b.push(DexInsn::Const { dst: VReg(0), value: rng.gen_range(-16..16) });
            for _ in 0..rng.gen_range(2..6) {
                match rng.gen_range(0..4) {
                    0 => {
                        // Allocation entrypoint + field traffic.
                        let c = classes[rng.gen_range(0..classes.len())];
                        b.push(DexInsn::NewInstance { dst: VReg(1), class: c });
                        b.push(DexInsn::IPut { src: VReg(4), obj: VReg(1), field: FieldId(0) });
                        b.push(DexInsn::IGet { dst: VReg(2), obj: VReg(1), field: FieldId(0) });
                        b.push(DexInsn::Bin {
                            op: BinOp::Add,
                            dst: VReg(0),
                            a: VReg(0),
                            b: VReg(2),
                        });
                    }
                    1 => {
                        // Division: the div-by-zero check calls the throw
                        // entrypoint on its slow path. Divisor forced odd.
                        b.push(DexInsn::BinLit { op: BinOp::Or, dst: VReg(2), a: VReg(5), lit: 1 });
                        b.push(DexInsn::Bin {
                            op: BinOp::Div,
                            dst: VReg(0),
                            a: VReg(0),
                            b: VReg(2),
                        });
                    }
                    2 => {
                        // JNI bridge entrypoint.
                        b.push(DexInsn::InvokeNative {
                            method: native,
                            args: vec![VReg(0), VReg(4)],
                            dst: Some(VReg(0)),
                        });
                    }
                    _ => {
                        // Guarded explicit throw: deliver-exception
                        // entrypoint; taken only for very negative args so
                        // most trace calls return normally.
                        let skip = b.label();
                        b.push(DexInsn::BinLit {
                            op: BinOp::Add,
                            dst: VReg(3),
                            a: VReg(4),
                            lit: 19,
                        });
                        b.if_z(Cmp::Ge, VReg(3), skip);
                        b.push(DexInsn::Const { dst: VReg(3), value: k as i32 + 1 });
                        b.push(DexInsn::Throw { src: VReg(3) });
                        b.bind(skip);
                    }
                }
            }
            // Static traffic so state divergence is visible in snapshots.
            let slot = StaticId(rng.gen_range(0..4));
            b.push(DexInsn::SGet { dst: VReg(2), slot });
            b.push(DexInsn::Bin { op: BinOp::Xor, dst: VReg(2), a: VReg(2), b: VReg(0) });
            b.push(DexInsn::SPut { src: VReg(2), slot });
            b.push(DexInsn::Return { src: VReg(0) });
            dex.add_method(b.build(classes[k % classes.len()]));
        }

        let env = standard_env(&dex);
        let first_java = 1; // the native holds id 0
        let mut trace = Vec::new();
        for _ in 0..20 {
            trace.push(TraceCall {
                method: MethodId(rng.gen_range(first_java..first_java + methods) as u32),
                args: [rng.gen_range(-24..24), rng.gen_range(-8..24)],
            });
        }
        App { name: format!("entrypoint-{seed}"), dex, env, trace }
    }
}

/// Targets the **stack-overflow check** pattern (paper Figure 4c): deep
/// chains of methods with large spilling frames, so every prologue emits
/// the stack-limit probe and LTBO sees it at method starts over and
/// over.
pub struct StackCheckGen;

impl ProgramGen for StackCheckGen {
    fn name(&self) -> &'static str {
        "stack-check"
    }

    fn generate(&self, seed: u64) -> App {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7374_6b63); // "stkc"
        let mut dex = DexFile::new();
        let class = dex.add_class("Deep", 2);
        dex.reserve_statics(1);

        let depth = rng.gen_range(8..20);
        for k in 0..depth {
            // Oversized frames (v0..v9 live + 2 args) force spilling
            // prologues with the stack-overflow check.
            let num_regs: u16 = 10 + (rng.gen_range(0..3) * 2);
            let mut b = MethodBuilder::new(format!("deep{k}"), num_regs, 2);
            b.push(DexInsn::Move { dst: VReg(4), src: VReg(num_regs - 2) });
            b.push(DexInsn::Move { dst: VReg(5), src: VReg(num_regs - 1) });
            b.push(DexInsn::Const { dst: VReg(0), value: k });
            // Keep many registers live across the call to widen the frame.
            for r in 6..(num_regs - 2).min(9) {
                b.push(DexInsn::BinLit { op: BinOp::Add, dst: VReg(r), a: VReg(4), lit: r as i16 });
            }
            if k > 0 {
                // Chain downward: deep{k} calls deep{k-1}.
                b.push(DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: MethodId(k as u32 - 1),
                    args: vec![VReg(4), VReg(5)],
                    dst: Some(VReg(1)),
                });
                b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(0), b: VReg(1) });
            }
            for r in 6..(num_regs - 2).min(9) {
                b.push(DexInsn::Bin { op: BinOp::Xor, dst: VReg(0), a: VReg(0), b: VReg(r) });
            }
            b.push(DexInsn::Return { src: VReg(0) });
            dex.add_method(b.build(class));
        }

        let env = standard_env(&dex);
        let mut trace = Vec::new();
        for _ in 0..12 {
            // Mostly enter at the deepest method to maximize live frames.
            let m = if rng.gen_bool(0.7) { depth - 1 } else { rng.gen_range(0..depth) };
            trace.push(TraceCall {
                method: MethodId(m as u32),
                args: [rng.gen_range(-50..50), rng.gen_range(-50..50)],
            });
        }
        App { name: format!("stack-check-{seed}"), dex, env, trace }
    }
}

/// Builds the runtime environment every targeted generator uses: class
/// sizes from the dex, the shared native cycle from [`generate`], and
/// statics initialized to the same `3i + 1` ramp. Public so emitted
/// conformance reproducers can reconstruct the exact environment from a
/// dex alone.
#[must_use]
pub fn standard_env(dex: &DexFile) -> RuntimeEnv {
    let mut natives = HashMap::new();
    for (i, m) in dex.methods().iter().filter(|m| m.is_native).enumerate() {
        let func: fn(&[i32]) -> i32 = match i % 3 {
            0 => |a| a[0].wrapping_mul(31).wrapping_add(a[1]),
            1 => |a| a[0] ^ a[1].rotate_left(7),
            _ => |a| a[0].wrapping_sub(a[1]).wrapping_mul(17),
        };
        natives.insert(m.id.0, NativeMethod { arity: 2, func });
    }
    RuntimeEnv {
        class_sizes: dex.classes().iter().map(calibro_dex::Class::instance_size).collect(),
        natives,
        statics: (0..dex.num_statics()).map(|i| i as i32 * 3 + 1).collect(),
        icache: true,
    }
}

/// A trace over methods `0..count` biased towards the later (deeper)
/// layers.
fn layered_trace(rng: &mut StdRng, count: usize, len: usize) -> Vec<TraceCall> {
    (0..len)
        .map(|_| {
            let m = if rng.gen_bool(0.75) {
                rng.gen_range(count.saturating_sub(4)..count)
            } else {
                rng.gen_range(0..count)
            };
            TraceCall {
                method: MethodId(m as u32),
                args: [rng.gen_range(-30..30), rng.gen_range(-30..30)],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_verify() {
        for g in all_generators() {
            for seed in [0, 1, 7] {
                let a = g.generate(seed);
                let b = g.generate(seed);
                assert_eq!(a.dex.total_insns(), b.dex.total_insns(), "{}", g.name());
                assert_eq!(a.trace, b.trace, "{}", g.name());
                calibro_dex::verify(&a.dex)
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", g.name()));
                for call in &a.trace {
                    assert!(call.method.index() < a.dex.methods().len());
                    assert!(!a.dex.method(call.method).is_native);
                }
            }
        }
    }

    #[test]
    fn generator_lookup_by_name() {
        for g in all_generators() {
            assert_eq!(generator_by_name(g.name()).unwrap().name(), g.name());
        }
        assert!(generator_by_name("no-such-generator").is_none());
    }

    #[test]
    fn targeted_generators_contain_their_pattern_material() {
        let art = ArtCallGen.generate(3);
        let invokes = art
            .dex
            .methods()
            .iter()
            .flat_map(|m| &m.insns)
            .filter(|i| matches!(i, DexInsn::Invoke { .. }))
            .count();
        assert!(invokes >= 8, "art-call should be invoke-dense, got {invokes}");

        let ep = EntrypointGen.generate(3);
        let entry_ops = ep
            .dex
            .methods()
            .iter()
            .flat_map(|m| &m.insns)
            .filter(|i| {
                matches!(
                    i,
                    DexInsn::NewInstance { .. }
                        | DexInsn::Throw { .. }
                        | DexInsn::InvokeNative { .. }
                        | DexInsn::Bin { op: BinOp::Div, .. }
                )
            })
            .count();
        assert!(entry_ops >= 6, "entrypoint generator should emit entrypoint ops");

        let deep = StackCheckGen.generate(3);
        assert!(deep.dex.methods().iter().all(|m| m.num_regs >= 10));
    }
}
