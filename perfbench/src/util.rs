//! Small pieces every workload uses: the seeded generator, sample
//! statistics, the span recorder, the counting allocator's counter, and
//! host facts.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// xoshiro256** seeded through splitmix64: the benchmark's only source
/// of input randomness, so a seed fixes every input.
#[derive(Debug, Clone)]
pub struct Rng([u64; 4]);

impl Rng {
    /// A generator for `seed`, forked by `stream` so independent input
    /// families do not share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut x = seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Fill `buf` with random octets.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Samples per window of [`Windows`]: enough that a window's p99 has
/// twenty samples beyond it.
pub const WINDOW: usize = 2000;

/// Timing samples in nanoseconds, summarised window by window: each
/// run of [`WINDOW`] consecutive samples yields its own p50 and p99,
/// and the reported figures are the medians of those over the run, so
/// a host stall that spoils a few windows does not move them. All
/// buffers are sized before the measured window opens.
#[derive(Debug, Clone)]
pub struct Windows {
    buf: Vec<u64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    n: u64,
}

/// Nearest-rank quantile of sorted samples.
fn rank(sorted: &[u64], q: f64) -> f64 {
    let r = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[r - 1] as f64
}

impl Windows {
    /// Room for `windows` windows.
    pub fn new(windows: usize) -> Windows {
        Windows {
            buf: Vec::with_capacity(WINDOW),
            p50: Vec::with_capacity(windows),
            p99: Vec::with_capacity(windows),
            n: 0,
        }
    }

    /// Record one sample.
    pub fn push(&mut self, ns: u64) {
        self.buf.push(ns);
        self.n += 1;
        if self.buf.len() == WINDOW {
            self.close();
        }
    }

    fn close(&mut self) {
        self.buf.sort_unstable();
        self.p50.push(rank(&self.buf, 0.5));
        self.p99.push(rank(&self.buf, 0.99));
        self.buf.clear();
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Windows closed so far.
    pub fn windows(&self) -> usize {
        self.p50.len()
    }

    /// `(p50, p99)` in nanoseconds: medians over the windows. A run too
    /// short to fill one window reports its partial window.
    pub fn quantiles(&mut self) -> (f64, f64) {
        if self.p50.is_empty() && !self.buf.is_empty() {
            self.close();
        }
        (median(&mut self.p50.clone()), median(&mut self.p99.clone()))
    }
}

/// Median of a small set of values.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

// --- Tracing: spans recorded by the benchmark around calls into each
// layer, kept in memory and written out when the run ends.

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into [`Tracer::names`].
    pub name: u16,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span in the store, or `u32::MAX`.
    pub parent: u32,
}

/// Span store plus per-name totals. The store keeps the first
/// `capacity` spans (allocated up front); the totals cover every span.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    totals: Vec<(u64, u64)>,
}

/// Name of a span, registered with [`Tracer::name`].
pub type SpanName = u16;

/// A span that is open; close it with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    name: SpanName,
    start: u64,
    parent: u32,
}

impl Tracer {
    /// A tracer whose store holds `capacity` spans.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(capacity),
            totals: Vec::new(),
        }
    }

    /// Register a span name (before the measured window).
    pub fn name(&mut self, name: &'static str) -> SpanName {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as SpanName;
        }
        self.names.push(name);
        self.totals.push((0, 0));
        (self.names.len() - 1) as SpanName
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent` (an index returned by [`Tracer::end`],
    /// or `u32::MAX` for a root).
    pub fn begin(&self, name: SpanName, parent: u32) -> Open {
        Open { name, start: self.now(), parent }
    }

    /// Close a span; returns its duration and its index in the store
    /// (`u32::MAX` when the store is full).
    pub fn end(&mut self, open: Open) -> (u64, u32) {
        let end = self.now();
        let d = end - open.start;
        let total = &mut self.totals[open.name as usize];
        total.0 += 1;
        total.1 += d;
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span { name: open.name, start: open.start, end, parent: open.parent });
            (d, (self.spans.len() - 1) as u32)
        } else {
            (d, u32::MAX)
        }
    }

    /// Reserve a store slot for a span whose children are recorded
    /// before it closes; fill it with [`Tracer::close_reserved`].
    pub fn reserve(&mut self, open: Open) -> u32 {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                name: open.name,
                start: open.start,
                end: open.start,
                parent: open.parent,
            });
            (self.spans.len() - 1) as u32
        } else {
            u32::MAX
        }
    }

    /// Close a span opened with [`Tracer::reserve`].
    pub fn close_reserved(&mut self, open: Open, slot: u32) -> u64 {
        let end = self.now();
        let d = end - open.start;
        let total = &mut self.totals[open.name as usize];
        total.0 += 1;
        total.1 += d;
        if let Some(s) = self.spans.get_mut(slot as usize) {
            s.end = end;
        }
        d
    }

    /// `(count, total ns)` of every span named `name` so far.
    pub fn total(&self, name: SpanName) -> (u64, u64) {
        self.totals[name as usize]
    }

    /// Write the stored spans as tab-separated lines
    /// (`index name start_ns end_ns parent`) to `path`, then one
    /// `total name count sum_ns` line per name.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# index\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX { "-".to_string() } else { s.parent.to_string() };
            writeln!(w, "{i}\t{}\t{}\t{}\t{parent}", self.names[s.name as usize], s.start, s.end)?;
        }
        for (name, (count, sum)) in self.names.iter().zip(&self.totals) {
            writeln!(w, "total\t{name}\t{count}\t{sum}")?;
        }
        w.flush()
    }
}

// --- Allocation counting. The binary installs a global allocator that
// bumps `ALLOCS` while `ARMED` is set; every thread counts, the shard
// worker included.

/// Allocations counted while armed.
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Whether allocations are being counted.
pub static ARMED: AtomicBool = AtomicBool::new(false);

/// Open (`true`) or close the allocation-counting window.
pub fn count_allocs(on: bool) {
    ARMED.store(on, Ordering::SeqCst);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

/// Record one allocation if the window is open (called by the global
/// allocator).
#[inline]
pub fn note_alloc() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// --- Traced runs: traced and untraced rounds, alternating.

/// Host time and units of work (cells or frames) over a set of rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Host nanoseconds in calls into the program.
    pub busy: u64,
    /// Cells or frames.
    pub units: u64,
}

impl Tally {
    /// Host nanoseconds per unit.
    pub fn ns_per_unit(&self) -> f64 {
        self.busy as f64 / self.units.max(1) as f64
    }

    /// How much slower per unit these rounds ran than `plain`, in
    /// percent.
    pub fn overhead_pct(&self, plain: &Tally) -> f64 {
        (self.ns_per_unit() / plain.ns_per_unit() - 1.0) * 100.0
    }
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.busy += other.busy;
        self.units += other.units;
    }
}

/// Run `round(true)` (traced) and `round(false)` (untraced) by turns
/// on the same program, with allocations counted, until the traced
/// rounds have taken `busy_ns` of host time, so the tracing overhead
/// compares like with like. Returns the traced and untraced tallies and
/// the allocations made over both.
pub fn alternate(busy_ns: u64, mut round: impl FnMut(bool) -> Tally) -> (Tally, Tally, u64) {
    let (mut traced, mut plain) = (Tally::default(), Tally::default());
    let before = allocs();
    count_allocs(true);
    while traced.busy < busy_ns {
        traced += round(true);
        plain += round(false);
    }
    count_allocs(false);
    (traced, plain, allocs() - before)
}

// --- Host facts.

/// Core count, CPU model, compiler and source commit.
pub fn fingerprint() -> String {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "cores={cores} cpu=\"{cpu}\" rustc=\"{}\" commit={}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT")
    )
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 when the
/// platform does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
