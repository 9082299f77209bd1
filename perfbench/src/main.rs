//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, last, one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! `perfbench --reference <shape|shards|openloop> [--seed <n>] [--seconds <s>]`
//! prints the ungated reference figures of README.md instead.

use perfbench::util::{self, note_alloc};
use perfbench::{complete_per_layer, refwire, RunConfig, Workload};
use std::alloc::{GlobalAlloc, Layout, System};

/// The system allocator, counting allocations while the window is open.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only
// atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> RunConfig {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let workload = value("--workload").unwrap_or_else(|| usage("--workload is required"));
    let workload = Workload::parse(workload)
        .unwrap_or_else(|| usage(&format!("unknown workload {workload:?}")));
    // No defaults: a run must say which inputs and how long a window
    // it measures, or its figures would not compare with another's.
    let seed = value("--seed")
        .unwrap_or_else(|| usage("--seed is required"))
        .parse()
        .unwrap_or_else(|_| usage("--seed must be a whole number"));
    let seconds: f64 = value("--seconds")
        .unwrap_or_else(|| usage("--seconds is required"))
        .parse()
        .ok()
        .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
        .unwrap_or_else(|| usage("--seconds must be in (0, 600]"));
    let trace = match value("--trace").unwrap_or_else(|| usage("--trace is required")) {
        "0" => false,
        "1" => true,
        other => usage(&format!("--trace must be 0 or 1, not {other:?}")),
    };
    RunConfig { workload, seed, seconds, trace }
}

/// `--reference <name>`: print reference figures and exit.
fn reference(name: &str) -> ! {
    let args: Vec<String> = std::env::args().collect();
    let value = |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1));
    let seed = value("--seed").and_then(|s| s.parse().ok()).unwrap_or(1);
    let seconds =
        value("--seconds").and_then(|s| s.parse().ok()).filter(|s: &f64| *s > 0.0).unwrap_or(3.0);
    match name {
        "shape" => perfbench::reference::shape(seed, seconds),
        "shards" => perfbench::reference::shards(seed, seconds),
        "openloop" => perfbench::reference::open_loop(seed, seconds),
        other => usage(&format!("unknown reference {other:?} (shape, shards, openloop)")),
    }
    println!("host: {}", util::fingerprint());
    std::process::exit(0)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--reference") {
        reference(args.get(i + 1).map_or("", String::as_str));
    }
    let cfg = parse_args();
    let crc = refwire::Crc::new();
    if let Err(e) = refwire::self_test(&crc) {
        eprintln!("perfbench: reference CRC self-test failed: {e}");
        std::process::exit(3);
    }
    let mut outcome = perfbench::run(&cfg);
    if cfg.trace {
        complete_per_layer(&mut outcome);
    }
    for note in &outcome.notes {
        println!("{}: {note}", cfg.workload.name());
    }
    println!(
        "host: {} workload={} seed={} attempted={} failed={}",
        util::fingerprint(),
        cfg.workload.name(),
        cfg.seed,
        outcome.attempted,
        outcome.failed
    );
    println!("{}", outcome.json());
}
