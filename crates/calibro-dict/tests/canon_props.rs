//! Property tests for dictionary-key canonicalization, over a
//! generated corpus of random bodies:
//!
//! 1. register-renamed but structurally identical sequences map to the
//!    same key;
//! 2. sequences differing in any semantic field (opcode, immediate,
//!    branch shape, width, flags) never collide within the corpus;
//! 3. the key is a pure function of the body — invariant under corpus
//!    permutation and under hashing from many threads at once.
//!
//! The generator is a deterministic SplitMix64 stream, so a failure
//! reproduces from its seed.

use calibro_cache::CacheKey;
use calibro_dict::{canonical_key, canonicalize};
use calibro_isa::{encode_words, Cond, Insn, Reg};
use std::collections::HashMap;

/// [`canonical_key`] of a body given as instructions.
fn key(body: &[Insn]) -> CacheKey {
    canonical_key(&encode_words(body).expect("generated bodies encode"))
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The renameable encodings (everything but x16/x17/x19/x29/x30/r31).
const RENAMEABLE: [u8; 26] =
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 18, 20, 21, 22, 23, 24, 25, 26, 27, 28];

fn reg(rng: &mut SplitMix64) -> Reg {
    Reg::new(RENAMEABLE[rng.below(RENAMEABLE.len() as u64) as usize])
}

/// One random instruction from the register-operating subset outlined
/// bodies are built from (no pc-relative forms, no sp/lr traffic —
/// LTBO's template exclusions keep those out of bodies).
fn insn(rng: &mut SplitMix64) -> Insn {
    let wide = rng.below(2) == 0;
    match rng.below(10) {
        0 => Insn::Movz { wide, rd: reg(rng), imm16: rng.next() as u16, hw: 0 },
        1 => Insn::Movn { wide, rd: reg(rng), imm16: rng.next() as u16, hw: 0 },
        2 => Insn::AddImm {
            wide,
            set_flags: rng.below(2) == 0,
            rd: reg(rng),
            rn: reg(rng),
            imm12: (rng.next() % 0x1000) as u16,
            shift12: false,
        },
        3 => Insn::SubImm {
            wide,
            set_flags: rng.below(2) == 0,
            rd: reg(rng),
            rn: reg(rng),
            imm12: (rng.next() % 0x1000) as u16,
            shift12: false,
        },
        4 => Insn::AddReg {
            wide,
            set_flags: false,
            rd: reg(rng),
            rn: reg(rng),
            rm: reg(rng),
            shift: (rng.next() % 4) as u8,
        },
        5 => Insn::OrrReg { wide, rd: reg(rng), rn: reg(rng), rm: reg(rng), shift: 0 },
        6 => Insn::EorReg { wide, rd: reg(rng), rn: reg(rng), rm: reg(rng), shift: 0 },
        7 => Insn::Madd { wide, rd: reg(rng), rn: reg(rng), rm: reg(rng), ra: reg(rng) },
        8 => Insn::LdrImm {
            wide,
            rt: reg(rng),
            rn: reg(rng),
            offset: (rng.next() % 0x100) as u16 * 8,
        },
        _ => Insn::StrImm {
            wide,
            rt: reg(rng),
            rn: reg(rng),
            offset: (rng.next() % 0x100) as u16 * 8,
        },
    }
}

fn random_body(rng: &mut SplitMix64) -> Vec<Insn> {
    let len = 2 + rng.below(6) as usize;
    (0..len).map(|_| insn(rng)).collect()
}

/// Applies a register permutation (a bijection over the renameable
/// encodings) to every operand of `body`, leaving fixed registers
/// untouched — a structurally identical rename.
fn rename(body: &[Insn], perm: &[u8; 32]) -> Vec<Insn> {
    let map = |r: Reg| {
        let i = r.index() as usize;
        if matches!(i, 16 | 17 | 19 | 29 | 30 | 31) {
            r
        } else {
            Reg::new(perm[i])
        }
    };
    body.iter()
        .map(|&insn| match insn {
            Insn::Movz { wide, rd, imm16, hw } => Insn::Movz { wide, rd: map(rd), imm16, hw },
            Insn::Movn { wide, rd, imm16, hw } => Insn::Movn { wide, rd: map(rd), imm16, hw },
            Insn::AddImm { wide, set_flags, rd, rn, imm12, shift12 } => {
                Insn::AddImm { wide, set_flags, rd: map(rd), rn: map(rn), imm12, shift12 }
            }
            Insn::SubImm { wide, set_flags, rd, rn, imm12, shift12 } => {
                Insn::SubImm { wide, set_flags, rd: map(rd), rn: map(rn), imm12, shift12 }
            }
            Insn::AddReg { wide, set_flags, rd, rn, rm, shift } => {
                Insn::AddReg { wide, set_flags, rd: map(rd), rn: map(rn), rm: map(rm), shift }
            }
            Insn::OrrReg { wide, rd, rn, rm, shift } => {
                Insn::OrrReg { wide, rd: map(rd), rn: map(rn), rm: map(rm), shift }
            }
            Insn::EorReg { wide, rd, rn, rm, shift } => {
                Insn::EorReg { wide, rd: map(rd), rn: map(rn), rm: map(rm), shift }
            }
            Insn::Madd { wide, rd, rn, rm, ra } => {
                Insn::Madd { wide, rd: map(rd), rn: map(rn), rm: map(rm), ra: map(ra) }
            }
            Insn::LdrImm { wide, rt, rn, offset } => {
                Insn::LdrImm { wide, rt: map(rt), rn: map(rn), offset }
            }
            Insn::StrImm { wide, rt, rn, offset } => {
                Insn::StrImm { wide, rt: map(rt), rn: map(rn), offset }
            }
            other => other,
        })
        .collect()
}

/// A random bijection over the renameable encodings (Fisher-Yates).
fn random_perm(rng: &mut SplitMix64) -> [u8; 32] {
    let mut shuffled = RENAMEABLE;
    for i in (1..shuffled.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        shuffled.swap(i, j);
    }
    let mut perm = [0u8; 32];
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i as u8;
    }
    for (from, to) in RENAMEABLE.iter().zip(shuffled) {
        perm[*from as usize] = to;
    }
    perm
}

#[test]
fn register_renames_preserve_the_key() {
    let mut rng = SplitMix64(0xd1c7);
    for round in 0..300 {
        let body = random_body(&mut rng);
        let renamed = rename(&body, &random_perm(&mut rng));
        let (k_orig, k_renamed) = (key(&body), key(&renamed));
        assert_eq!(
            k_orig, k_renamed,
            "round {round}: rename changed the key\n  body: {body:?}\n  renamed: {renamed:?}"
        );
        // And the canonical forms are literally identical sequences.
        assert_eq!(canonicalize(&body), canonicalize(&renamed));
    }
}

#[test]
fn semantic_mutations_never_collide_in_the_corpus() {
    let mut rng = SplitMix64(0x5e11);
    let mut seen: HashMap<_, Vec<Insn>> = HashMap::new();
    for round in 0..400 {
        let body = random_body(&mut rng);
        let body_key = key(&body);
        let canonical = canonicalize(&body);
        if let Some(prior) = seen.get(&body_key) {
            assert_eq!(
                *prior, canonical,
                "round {round}: two canonically distinct bodies share a key"
            );
            continue;
        }
        seen.insert(body_key, canonical);

        // Mutate one semantic field; the mutant must miss every key in
        // the corpus (including its parent's).
        let mut mutant = body.clone();
        let at = rng.below(mutant.len() as u64) as usize;
        mutant[at] = match mutant[at] {
            Insn::Movz { wide, rd, imm16, hw } => {
                Insn::Movz { wide, rd, imm16: imm16.wrapping_add(1), hw }
            }
            Insn::Movn { wide, rd, imm16, hw } => Insn::Movz { wide, rd, imm16, hw },
            Insn::AddImm { wide, set_flags, rd, rn, imm12, shift12 } => {
                Insn::SubImm { wide, set_flags, rd, rn, imm12, shift12 }
            }
            Insn::SubImm { wide, set_flags, rd, rn, imm12, shift12 } => {
                Insn::AddImm { wide, set_flags, rd, rn, imm12, shift12 }
            }
            Insn::AddReg { set_flags, rd, rn, rm, shift, wide } => {
                Insn::AddReg { wide: !wide, set_flags, rd, rn, rm, shift }
            }
            Insn::OrrReg { wide, rd, rn, rm, shift } => Insn::EorReg { wide, rd, rn, rm, shift },
            Insn::EorReg { wide, rd, rn, rm, shift } => Insn::OrrReg { wide, rd, rn, rm, shift },
            Insn::Madd { wide, rd, rn, rm, ra } => Insn::Msub { wide, rd, rn, rm, ra },
            Insn::LdrImm { wide, rt, rn, offset } => {
                Insn::LdrImm { wide, rt, rn, offset: offset + 8 }
            }
            Insn::StrImm { wide, rt, rn, offset } => Insn::LdrImm { wide, rt, rn, offset },
            other => other,
        };
        let mutant_key = key(&mutant);
        assert_ne!(
            body_key, mutant_key,
            "round {round}: semantic mutation kept the key: {mutant:?}"
        );
        if let Some(prior) = seen.get(&mutant_key) {
            assert_eq!(*prior, canonicalize(&mutant), "round {round}: mutant collided");
        }
    }
    // Branch-shape differences, explicitly: condition and offset.
    let b = |cond, offset| {
        vec![Insn::Movz { wide: true, rd: Reg::X0, imm16: 1, hw: 0 }, Insn::BCond { cond, offset }]
    };
    let eq8 = key(&b(Cond::Eq, 8));
    assert_ne!(eq8, key(&b(Cond::Ne, 8)));
    assert_ne!(eq8, key(&b(Cond::Eq, 16)));
}

#[test]
fn keys_are_order_and_thread_invariant() {
    let mut rng = SplitMix64(0x7ead);
    let corpus: Vec<Vec<Insn>> = (0..64).map(|_| random_body(&mut rng)).collect();
    let forward: Vec<_> = corpus.iter().map(|b| key(b)).collect();
    // Hashing the corpus in reverse order changes nothing per body.
    let backward: Vec<_> = corpus.iter().rev().map(|b| key(b)).collect();
    for (i, key) in forward.iter().enumerate() {
        assert_eq!(*key, backward[corpus.len() - 1 - i]);
    }
    // Eight threads hashing disjoint and overlapping slices agree with
    // the single-threaded pass exactly.
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let corpus = &corpus;
            let forward = &forward;
            scope.spawn(move || {
                for (i, body) in corpus.iter().enumerate().skip(t % 3) {
                    assert_eq!(key(body), forward[i], "thread {t} diverged at {i}");
                }
            });
        }
    });
}
