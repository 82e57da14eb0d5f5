//! Fault-injection campaign: seeded corruption of every artifact the
//! verifier trusts, with fail-stop classification.
//!
//! Every trial flips one byte (or one trapped register / one cache
//! entry / the in-kernel counter) and demands the run either dies
//! with an administrator alert *before* the corrupted call dispatches
//! or behaves bit-identically to the clean run. Any other outcome is
//! silent corruption and fails the campaign (non-zero exit).
//!
//! A second section runs the cross-process classes: one pid of a
//! scheduled fleet is perturbed (verify-cache poisoning, counter skew)
//! and every peer must stay bit-identical — any cross-pid leak fails
//! the campaign.
//!
//! A third section repeats the authenticated-string faults against a
//! deliberately weakened verifier (string-contents check disabled) to
//! prove the oracle actually detects bypasses: that configuration
//! must produce a SILENT-CORRUPTION row.
//!
//! ```text
//! cargo run --release -p asc-bench --bin faults -- \
//!     [--seed N] [--trials N] [--workloads a,b,c] [--json] [--no-demo] [--no-cross]
//! ```

use asc_faults::{
    run_campaign, run_cross_campaign, run_weakened_demo, CampaignConfig, CrossConfig, Outcome,
};
use asc_kernel::Personality;

fn main() {
    let mut cfg = CampaignConfig::new(0x0A5C_F417, 8);
    let mut json = false;
    let mut demo = true;
    let mut cross = true;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let value = args.next().expect("--seed needs a value");
                cfg.seed = parse_u64(&value);
            }
            "--trials" => {
                let value = args.next().expect("--trials needs a value");
                cfg.trials = value.parse().expect("--trials needs a number");
            }
            "--workloads" => {
                let value = args.next().expect("--workloads needs a list");
                cfg.workloads = value.split(',').map(str::to_string).collect();
            }
            "--json" => json = true,
            "--no-demo" => demo = false,
            "--no-cross" => cross = false,
            other => asc_bench::cli::unknown_arg(
                "faults",
                other,
                "[--seed N] [--trials N] [--workloads a,b,c] [--json] [--no-demo] [--no-cross]",
            ),
        }
    }

    let report = run_campaign(&cfg);
    if json {
        asc_bench::print_json(&report.to_value());
    } else {
        println!("{}", report.render());
        if let Some(alert) = report.rows.iter().find_map(|r| r.sample_alert.as_ref()) {
            println!("sample alert: {alert}");
        }
    }

    let mut problems = report.problems();
    if !problems.is_empty() {
        eprintln!("\nCAMPAIGN FAILED:");
        for problem in &problems {
            eprintln!("  {problem}");
        }
    }

    if cross {
        let cross_cfg = CrossConfig {
            workloads: cfg.workloads.clone(),
            ..CrossConfig::new(cfg.seed ^ 0x0C80_5501, cfg.trials)
        };
        let cross_report = run_cross_campaign(&cross_cfg);
        if json {
            asc_bench::print_json(&cross_report.to_value());
        } else {
            println!("{}", cross_report.render());
            if let Some(alert) = cross_report
                .rows
                .iter()
                .find_map(|r| r.sample_alert.as_ref())
            {
                println!("sample cross-pid alert: {alert}");
            }
        }
        let cross_problems = cross_report.problems();
        if !cross_problems.is_empty() {
            eprintln!("\nCROSS-PROCESS CAMPAIGN FAILED:");
            for problem in &cross_problems {
                eprintln!("  {problem}");
            }
            problems.extend(cross_problems);
        }
    }

    let mut demo_failed = false;
    if demo {
        let result = run_weakened_demo(
            cfg.workloads.first().map(String::as_str).unwrap_or("bison"),
            Personality::Linux,
            128,
        );
        if !json {
            println!("\nWeakened-verifier demonstration ({}):", result.workload);
        }
        match &result.silent {
            Some((addr, offset, detail)) => {
                if !json {
                    println!(
                        "  corrupting authenticated string at {addr:#x}+{offset} \
                         with the string check disabled: SILENT-CORRUPTION ({detail})"
                    );
                    let verdict = result
                        .hardened_outcome
                        .map(Outcome::label)
                        .unwrap_or("not run");
                    println!("  same fault against the hardened verifier: {verdict}");
                }
                if result.hardened_outcome == Some(Outcome::SilentCorruption) {
                    eprintln!("DEMO FAILED: hardened verifier also silent");
                    demo_failed = true;
                }
            }
            None => {
                eprintln!(
                    "DEMO FAILED: weakened verifier produced no silent corruption \
                     in {} trials — the oracle may be vacuous",
                    result.scanned
                );
                demo_failed = true;
            }
        }
    }

    if !problems.is_empty() || demo_failed {
        std::process::exit(1);
    }
}

fn parse_u64(text: &str) -> u64 {
    let text = text.trim();
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).expect("--seed hex digits parse as u64")
    } else {
        text.parse().expect("--seed decimal digits parse as u64")
    }
}
