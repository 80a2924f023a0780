//! Byte golden for the serialized OAT image: FNV-1a of `to_elf_bytes`
//! for every app of `paper_suite(0.25)` under the three outlining routes
//! (global tree, sharded trees with a hot filter, a dictionary-routed
//! tenant) plus one warm rebuild after a 1 % edit.
//!
//! The byte-identity tests elsewhere compare two builds of the *same*
//! commit with each other; this one pins the bytes across commits, so a
//! change to how words reach the linker or to how the ELF writer lays
//! the image out shows up as a moved digest even when it is
//! self-consistent. Re-record (the failure message prints the table)
//! only in a change that means to move the bytes, and say so there.
//!
//! Every image it digests must also load back to itself: `to_elf_bytes`
//! of what `from_elf_bytes` reads is the image, byte for byte.

use std::collections::HashSet;
use std::sync::Arc;

use calibro::{BuildOptions, BuildSession, DictRegistry};
use calibro_cache::fnv64;
use calibro_workloads::{generate, mutate_methods, paper_suite, App};

/// `(app, [cto_ltbo, cto_ltbo_pl_hf, dict tenant 2, warm rebuild after a
/// 1 % edit])`. Last re-recorded when `.oatdata` lost its empty
/// merged-island table (magic `CALOAT4`), which moves every image, in the
/// same change that deleted CSE, return merging and unreachable-block
/// removal (fanqie's method 59 optimizes to other instructions).
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 4]); 6] = [
    ("toutiao", [0x66506e02104b89a9, 0xd11bc413fd5293b1, 0x63775a2a77bbee0a, 0xefab970039004ce2]),
    ("taobao", [0x690d523c511717d9, 0x6b28727d5040e1b2, 0x80f5523aff06facf, 0x2b01ec1bd02284da]),
    ("fanqie", [0x2833212e473b55e5, 0xba292841d284de14, 0x2a0b271a6d22c42d, 0xc5282457288189e4]),
    ("meituan", [0xfd1b61ba50938bd0, 0x0c43652adf570c82, 0x21e5df7c8ae0328a, 0xa544219f7ce243f7]),
    ("kuaishou", [0xafb3001930b90ab8, 0x1e5b1996111963c7, 0x70207420058feb7f, 0x14c3ddf41e95972e]),
    ("wechat", [0x444f389bb1de92ba, 0xe7001ba18d9b0439, 0xefb03fdd94bc6d93, 0x1f5636ce42eca5d9]),
];

fn digest(session: &BuildSession, dex: &calibro_dex::DexFile, options: &BuildOptions) -> u64 {
    let out = session.build(dex, options).expect("build");
    let image = calibro_oat::to_elf_bytes(&out.oat);
    let loaded = calibro_oat::from_elf_bytes(&image).expect("the image loads");
    assert!(calibro_oat::to_elf_bytes(&loaded) == image, "the image does not round-trip");
    fnv64(&image)
}

fn digests(app: &App) -> [u64; 4] {
    let dex = &app.dex;
    let hot: HashSet<u32> = dex.methods().iter().map(|m| m.id.0).filter(|id| id % 2 == 0).collect();
    let sharded = BuildOptions::cto_ltbo_parallel(8, 2);

    // A second tenant of a sealed dictionary: its candidates hit the
    // island the first tenant published.
    let registry = Arc::new(DictRegistry::default());
    let tenant = || BuildSession::new().with_dict_registry(Arc::clone(&registry));
    let dict = BuildOptions::cto_ltbo().with_dict();
    tenant().build(dex, &dict).expect("publishing tenant");
    registry.seal_epoch();

    // A warm rebuild: most methods and most group plans replay.
    let session = BuildSession::new();
    session.build(dex, &sharded).expect("priming build");
    let mut edited = dex.clone();
    assert!(!mutate_methods(&mut edited, 7, 0.01).is_empty(), "{}: the edit is empty", app.name);

    [
        digest(&BuildSession::new(), dex, &BuildOptions::cto_ltbo()),
        digest(&BuildSession::new(), dex, &sharded.clone().with_hot_filter(hot)),
        digest(&tenant(), dex, &dict),
        digest(&session, &edited, &sharded),
    ]
}

#[test]
fn serialized_images_match_the_recorded_digests() {
    let actual: Vec<(String, [u64; 4])> = paper_suite(0.25)
        .iter()
        .map(generate)
        .map(|app| {
            let row = digests(&app);
            (app.name, row)
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, row)| {
            let cells: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
            format!("    (\"{name}\", [{}]),\n", cells.join(", "))
        })
        .collect();
    let matches = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(&GOLDEN)
            .all(|((name, row), (gname, grow))| name == gname && row == grow);
    assert!(matches, "serialized images moved; the table now reads:\n{table}");
}
