//! Disassembles one method before and after Calibro, showing the three
//! ART patterns (Figure 4), the CTO thunk calls, and the LTBO outlined
//! functions in real AArch64.
//!
//! ```text
//! cargo run --release --example disassemble
//! ```

use calibro::{build, BuildOptions};
use calibro_dex::MethodId;
use calibro_isa::decode;
use calibro_oat::OatFile;
use calibro_workloads::{generate, AppSpec};

fn dump_method(oat: &OatFile, method: MethodId, title: &str) {
    let record = &oat.methods[method.index()];
    println!("\n--- {title} (m{}, {} words) ---", method.0, record.code_words);
    let start = (record.offset / 4) as usize;
    for w in 0..record.code_words as usize {
        let addr = oat.base_address + record.offset + w as u64 * 4;
        let word = oat.words[start + w];
        if record.tables.in_embedded_data(w) {
            println!("{addr:#010x}: .word {word:#010x}   ; literal pool (embedded data)");
            continue;
        }
        match decode(word) {
            Ok(insn) => {
                let mut notes = String::new();
                if record.tables.terminators().contains(&(w as u32)) {
                    notes.push_str("   ; terminator");
                }
                if record.tables.in_slow_path(w) {
                    notes.push_str("   ; slow path");
                }
                println!("{addr:#010x}: {insn}{notes}");
            }
            Err(_) => println!("{addr:#010x}: .word {word:#010x}   ; (not an instruction)"),
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = generate(&AppSpec::small("disasm", 17));
    // Pick a mid-sized method with calls so all three patterns appear.
    let target = app
        .dex
        .methods()
        .iter()
        .find(|m| !m.is_native && !m.is_leaf() && m.insns.len() > 12)
        .map(|m| m.id)
        .expect("an interesting method exists");

    let baseline = build(&app.dex, &BuildOptions::baseline())?;
    dump_method(&baseline.oat, target, "baseline (note the Figure 4 patterns inline)");

    let outlined = build(&app.dex, &BuildOptions::cto_ltbo())?;
    dump_method(&outlined.oat, target, "CTO+LTBO (patterns and repeats became bl)");

    // Show the CTO thunks and a few outlined functions.
    println!("\n--- CTO thunks (§3.1 pattern cache) ---");
    for thunk in &outlined.oat.thunks {
        println!("{:?} at {:#x}:", thunk.kind, outlined.oat.base_address + thunk.offset);
        let start = (thunk.offset / 4) as usize;
        for w in 0..thunk.size_words as usize {
            println!("    {}", decode(outlined.oat.words[start + w])?);
        }
    }
    println!("\n--- first LTBO outlined functions (§3.3.3) ---");
    for rec in outlined.oat.outlined.iter().take(4) {
        println!("outlined at {:#x}:", outlined.oat.base_address + rec.offset);
        let start = (rec.offset / 4) as usize;
        for w in 0..rec.size_words as usize {
            println!("    {}", decode(outlined.oat.words[start + w])?);
        }
    }
    println!(
        "\ntotals: {} -> {} bytes ({} outlined functions, {} thunks)",
        baseline.oat.text_size_bytes(),
        outlined.oat.text_size_bytes(),
        outlined.oat.outlined.len(),
        outlined.oat.thunks.len()
    );
    Ok(())
}
