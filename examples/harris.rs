//! Harris corner detection — the paper's running example (Fig. 1/2/7).
//!
//! Builds the 11-stage Harris pipeline, prints its stage graph (Fig. 2),
//! the compiler's grouping, the head of the generated C code (Fig. 7
//! style), and runs the compiled program to report the strongest corner
//! responses. With `--emit-c` it prints only the whole C program, ready
//! for `cc -O2 -std=c99 -ffp-contract=off harris.c -lm`.
//!
//! ```sh
//! cargo run --release --example harris
//! cargo run --release --example harris -- --emit-c > harris.c
//! ```

use polymage::apps::harris::HarrisCorner;
use polymage::apps::{Benchmark, Scale};
use polymage::core::{emit_c, CompileOptions, Session};
use polymage::graph::PipelineGraph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = HarrisCorner::new(Scale::Small);
    let pipe = app.pipeline();
    let session = Session::with_threads(2);
    let compiled = session.compile(pipe, &CompileOptions::optimized(app.params()))?;
    let c = emit_c(&compiled.program);
    if std::env::args().any(|a| a == "--emit-c") {
        print!("{c}");
        return Ok(());
    }

    println!("--- Fig. 1: the specification (as the compiler sees it) ---");
    println!("{}\n", pipe.display());

    println!("--- Fig. 2: stage graph ---");
    let graph = PipelineGraph::build(pipe)?;
    println!("{}", graph.to_dot(pipe));

    println!("--- grouping & storage (the paper's §4 schedule) ---");
    println!("{}", compiled.report);

    println!("--- Fig. 7: generated C (runnable; `--emit-c` prints all of it) ---");
    // print the head of the file; the full text is long
    for line in c.lines().take(40) {
        println!("{line}");
    }
    println!("... ({} lines total)", c.lines().count());

    let inputs = app.make_inputs(7);
    let out = &session.run_compiled(&compiled, &inputs)?[0];
    // top corner responses
    let mut best: Vec<(f32, i64, i64)> = Vec::new();
    for pt in out.rect.points() {
        let v = out.at(&pt);
        if best.len() < 5 || v > best.last().unwrap().0 {
            best.push((v, pt[0], pt[1]));
            best.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            best.truncate(5);
        }
    }
    println!("--- strongest corner responses ---");
    for (v, x, y) in best {
        println!("  ({x:>4}, {y:>4}) → {v:.5}");
    }
    Ok(())
}
