//! Regenerates every table and figure of Mullender & Vitányi (PODC 1985).
//!
//! ```text
//! cargo run --release -p mm-bench --bin experiments           # all of E1..E18
//! cargo run --release -p mm-bench --bin experiments -- e8 e9  # a subset
//! ```

use mm_analysis::record::to_markdown;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match mm_bench::run_by_name(&args) {
        Ok(records) => {
            println!("\n=== paper-vs-measured summary ===\n");
            println!("{}", to_markdown(&records));
            let bad = mm_bench::harness::outside_tolerance(&records);
            if bad.is_empty() {
                println!(
                    "all {} records within expected factors of the paper's predictions",
                    records.len()
                );
            } else {
                println!("records outside tolerance:");
                for r in &bad {
                    println!(
                        "  {} {} predicted {:.2} measured {:.2}",
                        r.id, r.quantity, r.predicted, r.measured
                    );
                }
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: experiments [all|e1 .. e18]...");
            std::process::exit(2);
        }
    }
}
