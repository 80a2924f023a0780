//! Byte golden for the serialized OAT image: FNV-1a of `to_elf_bytes`
//! for every app of `paper_suite(0.25)` under the two outlining routes
//! (global tree, sharded trees with a hot filter) plus one warm rebuild
//! after a 1 % edit.
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

use calibro::{BuildOptions, BuildSession};
use calibro_cache::fnv64;
use calibro_workloads::{generate, mutate_methods, paper_suite, App};

/// `(app, [cto_ltbo, cto_ltbo_pl_hf, warm rebuild after a 1 % edit])`.
/// Last re-recorded when `.oatdata` lost its dictionary link record
/// (magic `CALOAT5`): each image is the previous one with the new magic
/// and without the record's one byte, `.text` unchanged.
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 3]); 6] = [
    ("toutiao", [0xe10608e92e4e1fb4, 0x28452b541642f96c, 0xbe5bb55b1471a7a7]),
    ("taobao", [0x18ded455ec0dd15c, 0xb088a930c288ca83, 0x0f36fece75540c4f]),
    ("fanqie", [0x3b35443cecb16ad0, 0x685112bf1b396779, 0x339d1ff51a7f58f5]),
    ("meituan", [0x45a7a3a55c5a88ed, 0x83da93be87756443, 0x8a1b464260603016]),
    ("kuaishou", [0x3d3d55f48b14dc2d, 0x9562fb800198a2ae, 0xc458af244adfa703]),
    ("wechat", [0x79a29b36f0e74cf7, 0x3c71dc44758ae484, 0xc531fafa184f5fd8]),
];

fn digest(session: &BuildSession, dex: &calibro_dex::DexFile, options: &BuildOptions) -> u64 {
    let out = session.build(dex, options).expect("build");
    let image = calibro_oat::to_elf_bytes(&out.oat);
    let loaded = calibro_oat::from_elf_bytes(&image).expect("the image loads");
    assert!(calibro_oat::to_elf_bytes(&loaded) == image, "the image does not round-trip");
    fnv64(&image)
}

fn digests(app: &App) -> [u64; 3] {
    let dex = &app.dex;
    let hot: HashSet<u32> = dex.methods().iter().map(|m| m.id.0).filter(|id| id % 2 == 0).collect();
    let sharded = BuildOptions::cto_ltbo_parallel(8, 2);

    // A warm rebuild: most methods and most group plans replay.
    let session = BuildSession::new();
    session.build(dex, &sharded).expect("priming build");
    let mut edited = dex.clone();
    assert!(!mutate_methods(&mut edited, 7, 0.01).is_empty(), "{}: the edit is empty", app.name);

    [
        digest(&BuildSession::new(), dex, &BuildOptions::cto_ltbo()),
        digest(&BuildSession::new(), dex, &sharded.clone().with_hot_filter(hot)),
        digest(&session, &edited, &sharded),
    ]
}

#[test]
fn serialized_images_match_the_recorded_digests() {
    let actual: Vec<(String, [u64; 3])> = paper_suite(0.25)
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
