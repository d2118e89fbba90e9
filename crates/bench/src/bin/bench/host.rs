//! What the benchmark learns about the machine it runs on: worker count,
//! peak memory, and two calibration probes that tell a change in the
//! program from a change in the host.

use crate::metrics::MetricSet;
use std::hint::black_box;
use std::time::Instant;

/// Engine workers: `min(nproc, 4)`. The load generator blocks or sleeps, so
/// busy threads never exceed the processor count.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// `VmHWM` of this process in MiB; `0` where `/proc` has no such line.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Size of the largest cache sysfs lists for cpu0, or 32 MiB when it lists
/// none (the probe below then still exceeds any common last-level cache).
fn llc_bytes() -> usize {
    let mut largest = 0;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (digits, scale) = match text.as_bytes().last() {
            Some(b'K') => (&text[..text.len() - 1], 1 << 10),
            Some(b'M') => (&text[..text.len() - 1], 1 << 20),
            _ => (text, 1),
        };
        largest = largest.max(digits.parse::<usize>().unwrap_or(0) * scale);
    }
    if largest == 0 {
        32 << 20
    } else {
        largest
    }
}

/// Runs both host probes into `host.*` and returns the copy bandwidth in
/// GB/s. `--smoke` checks that the workloads run, not what the host can
/// do, and skips them (`0`).
pub fn probe(m: &mut MetricSet, smoke: bool, notes: &mut Vec<String>) -> f64 {
    if smoke {
        return 0.0;
    }
    let (gb_s, array_bytes, llc) = memcpy_bandwidth();
    m.set("host.memcpy_gb_s", gb_s);
    m.set("host.calib_ms", calib_ms());
    notes.push(format!(
        "host.memcpy_gb_s copies {} MiB arrays; last-level cache {} MiB",
        array_bytes >> 20,
        llc >> 20
    ));
    gb_s
}

/// Copy bandwidth between two arrays of at least four times the last-level
/// cache each (capped at 256 MiB): bytes copied per second of the fastest
/// of five copies, with both sizes. The roofline fraction divides by this.
fn memcpy_bandwidth() -> (f64, usize, usize) {
    let llc = llc_bytes();
    let array_bytes = (4 * llc).clamp(64 << 20, 256 << 20);
    let n = array_bytes / 4;
    let src = vec![1.0f32; n];
    let mut dst = vec![0.0f32; n];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (array_bytes as f64 / best / 1e9, array_bytes, llc)
}

/// A fixed scalar ALU loop (2²⁵ dependent xorshift steps), fastest of
/// three. If this moves between two runs, the host moved, not the program.
fn calib_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
        for _ in 0..1u32 << 25 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}
