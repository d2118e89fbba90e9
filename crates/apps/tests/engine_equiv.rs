//! Pool-size invariance: for every benchmark, one persistent 4-worker
//! [`Engine`] (dynamic strip scheduling, recycled buffers, reused worker
//! threads) must produce **bit-identical** outputs to a fresh single-worker
//! engine at the same requested thread count. `RunRequest::threads` fixes
//! the reduction chunk boundaries; the pool size, the claim order and what
//! the pool recycled from earlier runs must not change a bit. The shared
//! engine is reused across all benchmarks and thread counts, so buffer-pool
//! recycling between heterogeneous programs is exercised too.

use polymage_apps::{all_benchmarks, Scale};
use polymage_core::{compile, CompileOptions};
use polymage_vm::{Engine, RunRequest};

fn bits(bufs: &[polymage_vm::Buffer]) -> Vec<Vec<u32>> {
    bufs.iter()
        .map(|b| b.data.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn shared_engine_matches_single_worker_engine_bit_exact_all_benchmarks() {
    let engine = Engine::with_threads(4);
    for b in all_benchmarks(Scale::Tiny) {
        let inputs = b.make_inputs(42);
        for opts in [
            CompileOptions::optimized(b.params()),
            CompileOptions::base(b.params()),
        ] {
            let compiled =
                compile(b.pipeline(), &opts).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            for nthreads in [1usize, 2, 4] {
                let single = Engine::with_threads(1)
                    .submit(RunRequest::new(&compiled.program, &inputs).threads(nthreads))
                    .and_then(|h| h.join())
                    .unwrap_or_else(|e| panic!("{}: single-worker run: {e}", b.name()));
                let pooled = engine
                    .submit(RunRequest::new(&compiled.program, &inputs).threads(nthreads))
                    .and_then(|h| h.join())
                    .unwrap_or_else(|e| panic!("{}: shared-engine run: {e}", b.name()));
                assert_eq!(
                    bits(&single),
                    bits(&pooled),
                    "{}: 4-worker engine differs from a single worker \
                     (threads {nthreads}, schedule {})",
                    b.name(),
                    opts.schedule.label()
                );
            }
        }
    }
}
