//! Criterion microbenchmarks for the ISA layer: encode/decode round
//! trips (they dominate linking and loading), and symbolization — the
//! §3.3.2 template every compiled method gets on a cold LTBO build,
//! which asks the ISA's outline-hazard query once per instruction.

use std::time::Instant;

use bench::alloc::count_allocs;
use calibro::{build_template, BuildOptions, BuildSession};
use calibro_codegen::CompiledMethod;
use calibro_isa::{decode, Insn, Reg};
use calibro_workloads::{generate, paper_suite};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

// Allocation calls while `count_allocs` runs.
#[global_allocator]
static ALLOCATOR: bench::alloc::Counting = bench::alloc::Counting;

fn sample_insns() -> Vec<Insn> {
    vec![
        Insn::AddImm {
            wide: false,
            set_flags: false,
            rd: Reg::X0,
            rn: Reg::X1,
            imm12: 42,
            shift12: false,
        },
        Insn::LdrImm { wide: true, rt: Reg::LR, rn: Reg::X0, offset: 24 },
        Insn::Blr { rn: Reg::LR },
        Insn::Cbz { wide: false, rt: Reg::X0, offset: 0x40 },
        Insn::Stp {
            rt: Reg::FP,
            rt2: Reg::LR,
            rn: Reg::SP,
            offset: -32,
            mode: calibro_isa::PairMode::PreIndex,
        },
        Insn::Movz { wide: false, rd: Reg::X9, imm16: 999, hw: 0 },
        Insn::Ret { rn: Reg::LR },
    ]
}

fn bench_encode_decode(c: &mut Criterion) {
    let insns = sample_insns();
    let words: Vec<u32> = insns.iter().map(|i| i.encode().unwrap()).collect();
    c.bench_function("encode_7", |b| {
        b.iter(|| {
            for i in &insns {
                black_box(i.encode().unwrap());
            }
        });
    });
    c.bench_function("decode_7", |b| {
        b.iter(|| {
            for w in &words {
                black_box(decode(*w).unwrap());
            }
        });
    });
}

/// Template construction over every compiled method of the six
/// `paper_suite(0.5)` apps, as a cold LTBO build's codegen stage runs
/// it (`all`), and over the methods with slow paths restricted to them,
/// as the outline pass does for a profiled hot method (`slow_paths`).
/// The methods are codegen's outcomes, which carry their instructions —
/// a store entry holds words only, and would time a decode.
/// Each criterion line is one pass over its methods; the line after it
/// is the best of ten timed passes per instruction and, counted after
/// them (a thread's hashing scratch is sized by its first methods), the
/// allocations per method.
fn bench_symbolize(c: &mut Criterion) {
    let options = BuildOptions::cto_ltbo();
    let compiled: Vec<CompiledMethod> = paper_suite(0.5)
        .iter()
        .flat_map(|spec| {
            let dex = generate(spec).dex;
            let session = BuildSession::new();
            let frontend = session.frontend(&dex, &options).expect("frontend");
            let codegen = session.codegen(&dex, &options, frontend).expect("codegen");
            codegen.outcomes.into_iter().map(|o| o.compiled).collect::<Vec<_>>()
        })
        .collect();
    let with_slow_paths: Vec<CompiledMethod> =
        compiled.iter().filter(|m| !m.metadata.slow_paths.is_empty()).cloned().collect();

    let mut group = c.benchmark_group("symbolize");
    for (name, methods, hot) in [("all", &compiled, false), ("slow_paths", &with_slow_paths, true)]
    {
        let pass = || methods.iter().map(|m| build_template(m, hot).symbol_count()).sum::<usize>();
        let insns: usize = methods.iter().map(|m| m.insns.len()).sum();
        let id = format!("{name}/{}_methods_{insns}_insns", methods.len());
        group.bench_function(&id, |b| b.iter(pass));
        let best = (0..10)
            .map(|_| {
                let start = Instant::now();
                black_box(pass());
                start.elapsed()
            })
            .min()
            .expect("ten passes");
        let allocs = count_allocs(pass);
        println!(
            "{:40} {:>9.2} ns/insn {:>6.2} allocs/method",
            format!("symbolize/{name}"),
            best.as_nanos() as f64 / insns as f64,
            allocs as f64 / methods.len() as f64,
        );
    }
    group.finish();
}

criterion_group!(benches, bench_encode_decode, bench_symbolize);
criterion_main!(benches);
