//! Reproduces the paper's §2.2 redundancy analysis on a synthetic app:
//! disassemble-to-symbols, build the suffix tree, census the repeats
//! (Figure 3's data), and estimate the reduction potential (Table 1's
//! metric).
//!
//! ```text
//! cargo run --release --example analyze_redundancy
//! ```

use calibro::{build, BuildOptions};
use calibro_suffix::{census, estimate_reduction, SuffixTree};
use calibro_workloads::{generate, AppSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = generate(&AppSpec::small("demo", 2024));
    println!(
        "app `{}`: {} methods, {} dex instructions",
        app.name,
        app.dex.methods().len(),
        app.dex.total_insns()
    );

    // Step 1-2 (§2.2): compile to binary, map instructions to unsigned
    // integers (terminators and method boundaries become unique
    // separators), and build the suffix tree.
    let baseline =
        build(&app.dex, &BuildOptions { force_metadata: true, ..BuildOptions::baseline() })?;
    let symbols = bench_analysis_sequence(&baseline.oat);
    println!("binary instructions analyzed: {}", symbols.len());
    let tree = SuffixTree::build(symbols);

    // Step 3: census of repetitive sequences (Figure 3).
    println!("\nlen  sequences  total-repeats   (Figure 3 series)");
    let rows = census(&tree, 2);
    for len in 2..=12 {
        let (mut sequences, mut repeats) = (0usize, 0usize);
        for r in rows.iter().filter(|r| r.len == len) {
            sequences += 1;
            repeats += r.count;
        }
        println!("{len:>3}  {sequences:>9}  {repeats:>13}");
    }

    // Step 4: the benefit-model estimate (Table 1).
    let ratio = estimate_reduction(&tree, 2);
    println!("\nestimated code-size reduction (Figure 2 model): {:.1}%", ratio * 100.0);

    // Compare with what LTBO actually achieves.
    let outlined = build(&app.dex, &BuildOptions::cto_ltbo())?;
    let achieved =
        1.0 - outlined.oat.text_size_bytes() as f64 / baseline.oat.text_size_bytes() as f64;
    println!("achieved reduction (CTO+LTBO):                  {:.1}%", achieved * 100.0);
    println!("(the estimate exceeds the achieved reduction, as in the paper)");
    Ok(())
}

/// The §2.2 instruction-mapping step (same scheme the bench harness
/// uses): instruction words as symbols, terminators and method
/// boundaries as unique separators.
fn bench_analysis_sequence(oat: &calibro_oat::OatFile) -> Vec<u64> {
    let mut symbols = Vec::with_capacity(oat.words.len());
    let mut unique = 1u64 << 40;
    for record in &oat.methods {
        let start = (record.offset / 4) as usize;
        for w in 0..record.code_words {
            if record.tables.in_embedded_data(w as usize)
                || record.tables.terminators().contains(&w)
            {
                unique += 1;
                symbols.push(unique);
            } else {
                symbols.push(u64::from(oat.words[start + w as usize]));
            }
        }
        unique += 1;
        symbols.push(unique);
    }
    symbols
}
