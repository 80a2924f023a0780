//! The binary wire codec. The [`Wire`] trait, its primitives and the
//! codecs of everything a message carries live in [`calibro_cache::wire`]
//! — one crate down, so the cache's disk and peer frames are rows of the
//! same table — and are re-exported here for the message table in
//! [`crate::proto`]. [`calibro::BuildOptions`]'s codec sits in `calibro`,
//! beside its fingerprint.

pub use calibro_cache::wire::*;

#[cfg(test)]
pub(crate) mod tests {
    use calibro::{BuildOptions, MergeConfig};
    use calibro_dex::{
        BinOp, Cmp, DexFile, DexInsn, FieldId, InvokeKind, Method, MethodBuilder, MethodId, VReg,
    };
    use calibro_hgraph::PipelineConfig;

    pub(crate) fn sample_dex() -> DexFile {
        let mut dex = DexFile::new();
        let class = dex.add_class("Main", 3);
        let other = dex.add_class("Util", 0);
        dex.reserve_statics(2);
        let mut b = MethodBuilder::new("f", 6, 2);
        b.push(DexInsn::Const { dst: VReg(0), value: -7 });
        b.push(DexInsn::Bin { op: BinOp::Xor, dst: VReg(1), a: VReg(0), b: VReg(4) });
        b.push(DexInsn::BinLit { op: BinOp::Shl, dst: VReg(2), a: VReg(1), lit: 3 });
        b.push(DexInsn::IGet { dst: VReg(3), obj: VReg(4), field: FieldId(1) });
        b.push(DexInsn::Switch { src: VReg(2), first_key: -1, targets: vec![6, 7] });
        b.push(DexInsn::Goto { target: 7 });
        b.push(DexInsn::Throw { src: VReg(3) });
        b.push(DexInsn::If { cmp: Cmp::Ge, a: VReg(0), b: VReg(1), target: 9 });
        b.push(DexInsn::IfZ { cmp: Cmp::Le, a: VReg(2), target: 0 });
        b.push(DexInsn::Return { src: VReg(1) });
        dex.add_method(b.build(class));
        let mut c = MethodBuilder::new("g", 4, 1);
        c.push(DexInsn::Invoke {
            kind: InvokeKind::Static,
            method: MethodId(0),
            args: vec![VReg(3), VReg(3)],
            dst: Some(VReg(0)),
        });
        c.push(DexInsn::Invoke {
            kind: InvokeKind::Virtual,
            method: MethodId(1),
            args: vec![VReg(2)],
            dst: None,
        });
        c.push(DexInsn::InvokeNative { method: MethodId(2), args: vec![], dst: None });
        c.push(DexInsn::ReturnVoid);
        dex.add_method(c.build(other));
        dex.add_method(Method {
            id: MethodId(0),
            class,
            name: "nat".into(),
            num_regs: 1,
            num_args: 1,
            insns: vec![],
            is_native: true,
        });
        dex
    }

    pub(crate) fn option_variants() -> [BuildOptions; 8] {
        [
            BuildOptions::baseline(),
            BuildOptions::cto(),
            BuildOptions::cto_ltbo().with_compile_threads(8),
            BuildOptions::cto_ltbo().with_dict(),
            BuildOptions::cto_ltbo_parallel(16, 4).with_hot_filter([4, 1, 9].into_iter().collect()),
            BuildOptions::cto_merge(),
            BuildOptions::cto_merge_ltbo().with_merge(MergeConfig {
                min_body_words: 6,
                max_params: 1,
                arbitrate: false,
            }),
            BuildOptions {
                inlining: true,
                force_metadata: true,
                min_seq_len: 5,
                passes: PipelineConfig { cse: false, dce: false, ..PipelineConfig::all() },
                ..BuildOptions::default()
            },
        ]
    }

    #[test]
    fn method_hash_of_the_sample_program_is_unchanged() {
        // The operand codes this codec transports are the ones the
        // packed method hash folds into every cache key: renumbering
        // them in calibro-dex moves this golden.
        let mut h = calibro_cache::StableHasher::new();
        for m in sample_dex().methods() {
            calibro_cache::hash_method(m, &mut h);
        }
        let key = h.finish();
        assert_eq!((key.hi, key.lo), (0x4e52_4d6b_02d8_f04c, 0xa289_b151_a36b_d7eb));
    }

    #[test]
    fn option_and_ltbo_fingerprints_of_the_variants_are_unchanged() {
        // Every per-method cache key embeds `options_fingerprint`, every
        // group-plan key the LTBO fingerprint, and both travel in each
        // build request: a value moving here orphans every persisted
        // cache entry and needs a `SCHEMA_VERSION` bump.
        type Key = (u64, u64);
        const GLOBAL_MIN2: Option<Key> = Some((0x679d_08b5_c1c5_96e4, 0x7ee1_cebb_0e45_084d));
        const SHARDED_HOT: Option<Key> = Some((0x8d05_3954_3eac_8ec9, 0x23f4_4e92_f7ee_d391));
        let golden: [(Key, Option<Key>); 8] = [
            ((0x0c26_9af5_3abc_11e6, 0x56d7_791f_51df_7d72), None),
            ((0x7684_5f4c_4f9b_9a9e, 0xb11f_c4bd_54f9_8cd1), None),
            ((0x669f_afe9_f7f5_ae21, 0xfa57_acf5_330a_1c94), GLOBAL_MIN2),
            ((0xab65_97ad_587f_675e, 0x5dd4_6f8b_dff0_d946), GLOBAL_MIN2),
            ((0xa3df_c7f5_b672_f362, 0xe39b_2225_12b1_6dd4), SHARDED_HOT),
            ((0x3ec3_0d02_146b_de2a, 0xdbaf_cec1_91de_9516), None),
            ((0x0076_a68b_eb2c_9cbd, 0x9a6f_ee0a_9e49_5401), GLOBAL_MIN2),
            ((0xe11a_b865_8f08_530d, 0x2811_268a_8d03_c2d8), None),
        ];
        for (i, (options, (want_fp, want_ltbo))) in option_variants().iter().zip(golden).enumerate()
        {
            let fp = calibro::options_fingerprint(options);
            assert_eq!((fp.hi, fp.lo), want_fp, "variant {i}: options fingerprint moved");
            let ltbo = crate::ltbo_fingerprint(options).map(|k| (k.hi, k.lo));
            assert_eq!(ltbo, want_ltbo, "variant {i}: LTBO fingerprint moved");
        }
    }
}
