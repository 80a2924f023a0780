//! Criterion benchmarks for the serve path around the build — what a
//! request costs before and after the compiler runs: encoding a build
//! request the owned way (clone into a `BuildRequest`) and the client's
//! way (from borrows), decoding the whole body against decoding the
//! header and naming the program by the hash of its bytes (the daemon's
//! way for a program sent whole), and the in-process round trip of a
//! known program through a daemon: sent whole (a raw connection, as a
//! client that has not sent it before does) and named by reference (the
//! client's way from its third send), both answered from the program's
//! replay slot; rebuilt, under two base addresses in turn, so that the
//! slot always holds the other one's build and every request is a warm
//! build through the queue (which also keys the 200 methods again: the
//! session remembers one options fingerprint per method); as a tenant
//! fetch by reference answered from a sealed generation; and an edit of
//! it with 5 % of its methods changed (sent by edit: the base's id and
//! the changed rows; the edit is the same each time, so its build is
//! all hits). One pool-shaped 200-method app, the shape of the
//! benchmark's `serve_mixed` pool.

use std::os::unix::net::UnixStream;

use calibro::{options_fingerprint, BuildOptions};
use calibro_server::proto::{
    read_frame, write_frame, BuildHeader, BuildRequestRef, FrameEvent, ProgramId, REQ_BUILD,
};
use calibro_server::{
    ltbo_fingerprint, BuildReply, BuildRequest, Client, Daemon, Listener, ServerConfig,
};
use calibro_workloads::{generate, AppSpec};
use criterion::{criterion_group, criterion_main, Criterion};

fn pool_app() -> AppSpec {
    AppSpec {
        name: "pool0".to_owned(),
        seed: 700,
        methods: 200,
        classes: 8,
        natives: 3,
        motif_pool: 40,
        motifs_per_method: (2, 6),
        switch_fraction: 0.04,
        call_fraction: 0.45,
        trace_len: 160,
        hot_skew: 1.5,
        filler_per_segment: (12, 24),
        clone_families: 3,
    }
}

fn bench_serve_path(c: &mut Criterion) {
    let dex = generate(&pool_app()).dex;
    let options = BuildOptions::cto_ltbo_parallel(8, 1);
    let (options_fp, ltbo_fp) = (options_fingerprint(&options), ltbo_fingerprint(&options));
    let mut group = c.benchmark_group("serve_path");

    group.bench_function("encode/owned", |b| {
        b.iter(|| {
            BuildRequest {
                request_id: 1,
                deadline: None,
                options_fp,
                ltbo_fp,
                tenant: None,
                options: options.clone(),
                dex: dex.clone(),
            }
            .encode()
        });
    });
    let borrowed = BuildRequestRef {
        request_id: 1,
        deadline: None,
        options_fp,
        ltbo_fp,
        tenant: None,
        options: &options,
        dex: &dex,
    };
    group.bench_function("encode/borrowed", |b| b.iter(|| borrowed.encode()));

    let body = borrowed.encode();
    group.bench_function(format!("decode/whole/{}_bytes", body.len()), |b| {
        b.iter(|| BuildRequest::decode(&body).map(|request| request.dex.methods().len()));
    });
    group.bench_function("decode/header_and_key", |b| {
        b.iter(|| {
            BuildHeader::split(&body)
                .map(|(header, program)| (header.request_id, ProgramId::of(program)))
        });
    });

    let socket = std::env::temp_dir().join(format!("calibro-bench-{}.sock", std::process::id()));
    let daemon = Daemon::start(
        Listener::unix(&socket).expect("bind"),
        ServerConfig { workers: 2, ..ServerConfig::default() },
    )
    .expect("start daemon");
    let mut client = Client::connect_unix(&socket).expect("connect");
    // Known to the daemon in every sense before timing: compiled, its
    // tenant generation sealed, held in the program table, and sent
    // whole twice on this connection, so the client names it.
    for _ in 0..3 {
        client.build(&dex, &options, None).expect("warming build");
        client.build_for_tenant("pool0", &dex, &options, None).expect("warming tenant build");
    }
    let mut raw = UnixStream::connect(&socket).expect("connect raw");
    group.bench_function("roundtrip/whole", |b| {
        b.iter(|| {
            write_frame(&mut raw, REQ_BUILD, &borrowed.encode()).expect("send");
            match read_frame(&mut raw, 64 << 20).expect("read reply") {
                FrameEvent::Frame { body, .. } => BuildReply::decode(&body).map(|r| r.elf.len()),
                other => panic!("expected a reply, got {other:?}"),
            }
        });
    });
    group.bench_function("roundtrip/by_reference", |b| {
        b.iter(|| client.build(&dex, &options, None).map(|reply| reply.elf.len()));
    });
    let moved = BuildOptions { base_address: options.base_address + 0x10_0000, ..options.clone() };
    client.build(&dex, &moved, None).expect("warming rebased build");
    let mut rebased = false;
    group.bench_function("roundtrip/rebuild", |b| {
        b.iter(|| {
            rebased = !rebased;
            let options = if rebased { &options } else { &moved };
            client.build(&dex, options, None).map(|reply| reply.elf.len())
        });
    });
    group.bench_function("roundtrip/tenant_by_reference", |b| {
        b.iter(|| {
            client.build_for_tenant("pool0", &dex, &options, None).map(|reply| reply.elf.len())
        });
    });
    let mut edited = dex.clone();
    calibro_workloads::mutate_methods(&mut edited, 7, 0.05);
    client.build(&edited, &options, None).expect("warming edit");
    group.bench_function("roundtrip/edit_5pct", |b| {
        b.iter(|| client.build(&edited, &options, None).map(|reply| reply.elf.len()));
    });
    group.finish();
    daemon.shutdown();
}

criterion_group!(benches, bench_serve_path);
criterion_main!(benches);
