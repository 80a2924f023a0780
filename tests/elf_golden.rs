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
/// 1 % edit])`.
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 4]); 6] = [
    ("toutiao", [0xfc0074b1cb7aa952, 0xa08ad9adc3154682, 0xb8c0299c3e4bc0bc, 0x26dbda4d28528fc9]),
    ("taobao", [0xa0242236e651f36e, 0x00727dd6ee680635, 0x2eb3e09f4828a3f4, 0xcf326d0944a1f815]),
    ("fanqie", [0x7af93d5f8595a834, 0x28ec26c43c1ce1bc, 0x7d89f1c13a968658, 0x5eb49453bd1b6ac5]),
    ("meituan", [0xcf54e8a7160297c3, 0x1107d55204ac7d31, 0xa6d3ccc72aaf530d, 0xd5ae958bc9ddae0c]),
    ("kuaishou", [0x60e82a72a02aca6b, 0x68c1a0763e255acc, 0x1322a63c44abc45c, 0x5695b797469a0c01]),
    ("wechat", [0xb353c4bd42c30ed5, 0x33d4ba59052744b6, 0x8cf6b54b31c44428, 0xcc77338d8eac221e]),
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
