//! Host-clock benchmark of the ASC reproduction.
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload <spec-cpu|syscall-loop|fleet-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run repeats set-up and pass until `--seconds` have
//! gone by, and reports the end-to-end metrics as medians over the passes.
//! With `--trace 1` it alternates untraced and traced passes for the same
//! time and reports the per-layer metrics from the spans of the traced
//! ones. Either way the last line of stdout is one JSON object; a
//! human-readable report goes to stderr. Any failed check makes the exit
//! status non-zero. `METRICS.md` defines every metric.

#![forbid(unsafe_code)]

mod expect;
mod guest;
mod seed;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use asc_crypto::{Aes128, MacKey};

use trace::{span, Span};
use workloads::{peak_rss_mb, Bench, PassStats, Workload, FLEET_WAVES};

/// End-to-end metrics, in report order, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("guest_mips", "Minstr/s"),
    ("auth_calls_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("sim_cycles", "cycles"),
];

/// Per-layer metrics, in report order, with their units. A layer a
/// workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 31] = [
    ("workloads.build_ms", "ms"),
    ("installer.install_ms", "ms"),
    ("vm.ns_per_instr", "ns"),
    ("vm.instret", "count"),
    ("vm.self_pct", "%"),
    ("vm.load_ms", "ms"),
    ("sched.spawn_ms", "ms"),
    ("kernel.traps", "count"),
    ("kernel.trap_ms", "ms"),
    ("kernel.trap_ns_p50", "ns"),
    ("kernel.trap_ns_p99", "ns"),
    ("kernel.trap_pct", "%"),
    ("kernel.verify_ns_per_call", "ns"),
    ("kernel.verified", "count"),
    ("kernel.cache_hits", "count"),
    ("kernel.cache_hit_ratio", "ratio"),
    ("crypto.aes_blocks", "count"),
    ("crypto.aes_blocks_per_call", "count"),
    ("crypto.aes_ns_per_block", "ns"),
    ("crypto.mac_ns_per_block", "ns"),
    ("crypto.aes_pct_of_trap", "%"),
    ("sched.slices", "count"),
    ("sched.step_us_p50", "us"),
    ("sched.step_us_p99", "us"),
    ("sentinel.observe_ms", "ms"),
    ("sentinel.windows", "count"),
    ("sched.take_audit_ms", "ms"),
    ("obs.overhead_pct", "%"),
    ("bench.unattributed_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.passes", "count"),
];

/// Passes every run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Largest share of a traced pass its layer spans may leave uncovered
/// (`bench.unattributed_pct`): the stated tolerance of the attribution
/// identity `sum of layer self times + unattributed = pass wall time`.
const UNATTRIBUTED_TOLERANCE_PCT: f64 = 5.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of ascending `sorted`.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything a run reports.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, &'static str, f64)>,
    attempted: u64,
    failures: Vec<String>,
}

impl Report {
    fn absorb(&mut self, stats: &PassStats) {
        self.attempted += stats.attempted;
        self.failures.extend(stats.failures.iter().cloned());
    }

    /// Fails the run unless every pass simulated the same cycle count.
    fn check_sim_cycles(&mut self, cycles: &[u64]) {
        if cycles.windows(2).any(|w| w[0] != w[1]) {
            self.failures.push(format!(
                "sim_cycles differ between passes of one seed: {cycles:?}"
            ));
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// Sets the workload up (compiles, assembles and installs every binary it
/// runs), timed on the host clock.
fn timed_setup(args: &Args) -> (Bench, f64) {
    let t = Instant::now();
    let bench = Bench::setup(args.workload, args.seed);
    (bench, t.elapsed().as_secs_f64())
}

/// One pass, timed on the host clock.
fn timed_pass(bench: &Bench, traced: bool) -> (f64, PassStats) {
    let t = Instant::now();
    let stats = span("bench.pass", || bench.pass(traced));
    (t.elapsed().as_secs_f64(), stats)
}

/// `--trace 0`: the end-to-end metrics.
fn end_to_end(args: &Args) -> Report {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut report = Report::default();
    let (mut setup_s, mut walls, mut mips, mut auth, mut cycles) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut first_wave_peak_mb = 0.0;
    // A fresh set-up before every pass spreads the set-up samples over
    // the whole run, like the passes.
    while walls.len() < MIN_PASSES || Instant::now() < deadline {
        let (bench, setup) = timed_setup(args);
        setup_s.push(setup);
        let (wall, stats) = timed_pass(&bench, false);
        walls.push(wall);
        mips.push(stats.instret as f64 / wall / 1e6);
        auth.push(stats.verified as f64 / wall);
        cycles.push(stats.sim_cycles);
        report.absorb(&stats);
        if walls.len() == 1 {
            first_wave_peak_mb = stats.first_wave_peak_mb;
        }
    }
    report.check_sim_cycles(&cycles);
    let values = [
        median(&walls),
        median(&mips),
        median(&auth),
        peak_rss_mb(),
        median(&setup_s),
        cycles[0] as f64,
    ];
    report.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    for (name, v) in [("pass wall_s", &walls), ("setup_s", &setup_s)] {
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        eprintln!("{name}: min {lo:.6} median {:.6} max {hi:.6}", median(v));
    }
    if args.workload == Workload::FleetChurn {
        eprintln!("peak RSS after the first wave of the first pass: {first_wave_peak_mb:.1} MB");
    }
    eprintln!(
        "{}: {} passes; fail_ratio {} ({} of {} guest processes failed a check)",
        args.workload.name(),
        walls.len(),
        ratio(report.failures.len() as f64, report.attempted as f64),
        report.failures.len(),
        report.attempted,
    );
    report
}

/// Host ns per AES block from direct `Aes128::encrypt_block` calls, and
/// per block of `MacKey::mac` over a fixed 64-byte message, each the
/// median of five rounds.
fn crypto_calibration() -> (f64, f64) {
    const BLOCKS: u32 = 20_000;
    let aes = Aes128::new(&[0x2b; 16]);
    let key = MacKey::from_seed(0xCA1B);
    let msg = [0x5au8; 64];
    let mut aes_ns = Vec::new();
    let mut mac_ns = Vec::new();
    for _ in 0..5 {
        let mut block = [0u8; 16];
        let t = Instant::now();
        for _ in 0..BLOCKS {
            aes.encrypt_block(std::hint::black_box(&mut block));
        }
        aes_ns.push(t.elapsed().as_nanos() as f64 / f64::from(BLOCKS));
        std::hint::black_box(block);

        let before = key.block_ops();
        let t = Instant::now();
        for _ in 0..BLOCKS / 4 {
            std::hint::black_box(key.mac(std::hint::black_box(&msg)));
        }
        let ns = t.elapsed().as_nanos() as f64;
        mac_ns.push(ns / (key.block_ops() - before) as f64);
    }
    (median(&aes_ns), median(&mac_ns))
}

fn total_ns(totals: &[(&'static str, trace::Totals)], name: &str) -> f64 {
    totals
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, t)| t.total_ns as f64)
}

/// Per-layer values of one traced pass, keyed like [`PER_LAYER`].
fn layer_sample(
    spans: &[Span],
    stats: &PassStats,
    plain_spans: &[Span],
    crypto: (f64, f64),
) -> Result<Vec<(&'static str, f64)>, String> {
    let totals = trace::totals(spans);
    let pass = spans
        .iter()
        .find(|s| s.name == "bench.pass")
        .expect("a traced pass records its own span");
    let wall_ns = pass.ns() as f64;
    let covered_ns: f64 = totals
        .iter()
        .filter(|(n, _)| *n != "bench.pass")
        .map(|(_, t)| t.self_ns as f64)
        .sum();
    let unattributed_ns = totals
        .iter()
        .find(|(n, _)| *n == "bench.pass")
        .map_or(0.0, |(_, t)| t.self_ns as f64);
    // The attribution identity: layer self times plus the unattributed
    // rest are the pass's wall time, and the rest stays within tolerance.
    let unattributed_pct = 100.0 * unattributed_ns / wall_ns;
    if (covered_ns + unattributed_ns - wall_ns).abs() > 1e-3 * wall_ns {
        return Err(format!(
            "attribution identity broken: layers {covered_ns} ns + unattributed {unattributed_ns} ns != pass {wall_ns} ns"
        ));
    }
    if unattributed_pct > UNATTRIBUTED_TOLERANCE_PCT {
        return Err(format!(
            "layer spans leave {unattributed_pct:.2}% of the pass unattributed (tolerance {UNATTRIBUTED_TOLERANCE_PCT}%)"
        ));
    }
    let run_ns = total_ns(&totals, "vm.run");
    let trap_ns = total_ns(&totals, "kernel.trap");
    let traps = trace::durations(spans, "kernel.trap");
    let steps = trace::durations(spans, "sched.step");
    let plain_traps = trace::durations(plain_spans, "kernel.trap");
    let mean = |d: &[u64]| ratio(d.iter().sum::<u64>() as f64, d.len() as f64);
    let verify_ns = if plain_traps.is_empty() {
        0.0
    } else {
        mean(&traps) - mean(&plain_traps)
    };
    let (aes_ns, mac_ns) = crypto;
    let vm_self_ns = if run_ns > 0.0 { run_ns - trap_ns } else { 0.0 };
    Ok(vec![
        ("vm.ns_per_instr", ratio(vm_self_ns, stats.instret as f64)),
        ("vm.instret", stats.instret as f64),
        ("vm.self_pct", 100.0 * vm_self_ns / wall_ns),
        ("vm.load_ms", total_ns(&totals, "vm.load") / 1e6),
        ("sched.spawn_ms", total_ns(&totals, "sched.spawn") / 1e6),
        ("kernel.traps", stats.traps as f64),
        ("kernel.trap_ms", trap_ns / 1e6),
        ("kernel.trap_ns_p50", percentile(&traps, 0.50)),
        ("kernel.trap_ns_p99", percentile(&traps, 0.99)),
        ("kernel.trap_pct", 100.0 * trap_ns / wall_ns),
        ("kernel.verify_ns_per_call", verify_ns),
        ("kernel.verified", stats.verified as f64),
        ("kernel.cache_hits", stats.cache_hits as f64),
        (
            "kernel.cache_hit_ratio",
            ratio(stats.cache_hits as f64, stats.verified as f64),
        ),
        ("crypto.aes_blocks", stats.aes_blocks as f64),
        (
            "crypto.aes_blocks_per_call",
            ratio(stats.aes_blocks as f64, stats.verified as f64),
        ),
        ("crypto.aes_ns_per_block", aes_ns),
        ("crypto.mac_ns_per_block", mac_ns),
        (
            "crypto.aes_pct_of_trap",
            ratio(100.0 * stats.aes_blocks as f64 * aes_ns, trap_ns),
        ),
        ("sched.slices", stats.slices as f64),
        ("sched.step_us_p50", percentile(&steps, 0.50) / 1e3),
        ("sched.step_us_p99", percentile(&steps, 0.99) / 1e3),
        (
            "sentinel.observe_ms",
            total_ns(&totals, "sentinel.observe") / 1e6,
        ),
        ("sentinel.windows", stats.windows as f64),
        (
            "sched.take_audit_ms",
            total_ns(&totals, "sched.take_audit") / 1e6,
        ),
        ("bench.unattributed_pct", unattributed_pct),
    ])
}

/// `obs.overhead_pct`: the same wave run bare and with the recorder,
/// metrics and sentinel attached, alternating, untraced.
fn observability_overhead(bench: &Bench, report: &mut Report) -> f64 {
    let (mut bare, mut observed) = (vec![], vec![]);
    for _ in 0..2 {
        for (on, walls) in [(false, &mut bare), (true, &mut observed)] {
            let mut stats = PassStats::default();
            let t = Instant::now();
            bench.wave(FLEET_WAVES - 1, on, &mut stats);
            walls.push(t.elapsed().as_secs_f64());
            report.absorb(&stats);
        }
    }
    100.0 * (median(&observed) / median(&bare) - 1.0)
}

/// `--trace 1`: the per-layer metrics.
fn per_layer(args: &Args) -> Report {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut report = Report::default();
    let mut samples: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let (mut build_ms, mut install_ms) = (vec![], vec![]);
    let (mut untraced, mut traced, mut cycles) = (vec![], vec![], vec![]);
    let mut last_spans = Vec::new();
    let mut bench = None;
    while traced.len() < 2 || Instant::now() < deadline {
        trace::start();
        let (b, _) = timed_setup(args);
        let setup = trace::totals(&trace::finish());
        build_ms.push(total_ns(&setup, "workloads.build") / 1e6);
        install_ms.push(total_ns(&setup, "installer.install") / 1e6);
        let bench = bench.insert(b);

        let (wall, stats) = timed_pass(bench, false);
        untraced.push(wall);
        cycles.push(stats.sim_cycles);
        report.absorb(&stats);

        trace::start();
        let (wall, stats) = timed_pass(bench, true);
        let spans = trace::finish();
        traced.push(wall);
        cycles.push(stats.sim_cycles);
        report.absorb(&stats);
        trace::start();
        if let Some(plain) = bench.plain_pass() {
            report.absorb(&plain);
        }
        let plain_spans = trace::finish();
        match layer_sample(&spans, &stats, &plain_spans, crypto_calibration()) {
            Ok(sample) => samples.push(sample),
            Err(e) => report.failures.push(e),
        }
        last_spans = spans;
    }
    report.check_sim_cycles(&cycles);
    let bench = bench.expect("the loop sets up at least once");
    let obs = if args.workload == Workload::FleetChurn {
        observability_overhead(&bench, &mut report)
    } else {
        0.0
    };
    let mut values = vec![
        ("workloads.build_ms", median(&build_ms)),
        ("installer.install_ms", median(&install_ms)),
        ("obs.overhead_pct", obs),
        (
            "bench.trace_overhead_pct",
            100.0 * (median(&traced) / median(&untraced) - 1.0),
        ),
        ("bench.passes", traced.len() as f64),
    ];
    if let Some(first) = samples.first() {
        for &(name, _) in first {
            let per_pass: Vec<f64> = samples
                .iter()
                .filter_map(|s| s.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                .collect();
            values.push((name, median(&per_pass)));
        }
    }
    report.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            (name, unit, v)
        })
        .collect();
    eprintln!(
        "{}: {} traced + {} untraced passes; spans of the last traced pass (count, total ms, self ms):",
        args.workload.name(),
        traced.len(),
        untraced.len()
    );
    for (name, t) in trace::totals(&last_spans) {
        eprintln!(
            "  {name:<20} {:>9} {:>11.3} {:>11.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    for (name, unit, value) in &report.metrics {
        eprintln!("{name:<28} {value:>16.4} {unit}");
    }
    for failure in &report.failures {
        eprintln!("FAILED: {failure}");
    }
    println!("{}", report.json());
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
