//! Serving-stack bench harness: times the serving-path binaries and
//! records the perf trajectory as `BENCH_serve.json`.
//!
//! Runs each configured bin as a child process (same `target` dir as
//! this binary), measures wall-clock, checks a **soft** time budget —
//! an overrun prints a warning and is recorded in the JSON, but only a
//! child *failure* fails the harness — and writes one JSON artifact CI
//! uploads on every run, so sweep regressions are visible in PRs
//! instead of silently eating CI minutes.
//!
//! Usage: `bench_serve [--json PATH] [--smoke]`
//!
//! * `--json PATH` — where to write the report (default
//!   `BENCH_serve.json` in the current directory);
//! * `--smoke` — run only the CI-sized smoke variants (the default set
//!   also times the **full** `tier_capacity` sweep, the headline
//!   number for the event-driven scheduler + memoized pricing work).

use std::io::Write;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use vrex_bench::par::workers;
use vrex_bench::report::{banner, f, Table};

/// One timed bench entry.
struct Entry {
    bin: &'static str,
    args: &'static [&'static str],
    /// Soft wall-clock budget (seconds). Overruns warn, not fail.
    budget_s: f64,
}

fn entries(smoke: bool) -> Vec<Entry> {
    let mut v = vec![
        Entry {
            bin: "serve_capacity",
            args: &["--smoke"],
            budget_s: 60.0,
        },
        Entry {
            bin: "tier_capacity",
            args: &["--smoke"],
            budget_s: 60.0,
        },
        // The overlap-on row next to the overlap-off row above: the
        // same smoke grid under resource-timeline execution (a fourth
        // policy per unit), so the capacity delta and the cost of the
        // engine bookkeeping are both visible in BENCH_serve.json.
        Entry {
            bin: "tier_capacity",
            args: &["--smoke", "--overlap"],
            budget_s: 60.0,
        },
        Entry {
            bin: "fig13_latency_energy",
            args: &[],
            budget_s: 60.0,
        },
        // Simulator-throughput gate: the smoke grid plus an explicit
        // 10⁶-session streaming-fleet row (`--sessions 1000000`), which
        // *hard-asserts* both the sessions-per-wall-second floor and
        // the working-set flatness gate (event-loop peaks at 10⁶ must
        // match the 10⁵ row — the steady state is O(λ·patience), not
        // O(fleet)). A violation exits nonzero and fails this harness,
        // unlike the soft budgets. The million-session serve alone is
        // ~19 s on one dev-box core; the budget leaves headroom for a
        // loaded shared runner. Its per-row JSON lands in
        // `fleet_scale_rows` below.
        Entry {
            bin: "fleet_scale",
            args: &[
                "--smoke",
                "--sessions",
                "1000000",
                "--json",
                FLEET_SCALE_JSON,
            ],
            budget_s: 180.0,
        },
        // Multi-device placement sweep: hard-asserts the acceptance
        // headline (2-device capacity >= 1-device capacity for every
        // placement policy on the 32K halved-HBM V-Rex48 + ReSV
        // configuration). Its per-row JSON lands in
        // `device_scaling_rows` below.
        Entry {
            bin: "device_scaling",
            args: &["--smoke", "--json", DEVICE_SCALING_JSON],
            budget_s: 60.0,
        },
    ];
    if !smoke {
        // The headline sweep: full tier_capacity grid (7 platforms ×
        // 2 cache lengths × the policy rows × 6 fleet sizes), ~0.12 s
        // on a 2-core host with rank-run cluster residency. The budget
        // is ~5× that, so a regression on the scale of per-cluster
        // residency walks (which took the sweep to ~2.5 s) warns.
        v.push(Entry {
            bin: "tier_capacity",
            args: &[],
            budget_s: 0.6,
        });
        // Full grid with the tiered+overlap policy row, plus the
        // engine's reservation bookkeeping on the spill-heavy units:
        // ~0.23 s on the same host with frontier-indexed earliest fit.
        // The budget is ~5× that, so a return to scanning timelines
        // from their first interval (which took the sweep to ~0.57 s)
        // shows up next to the budget in the log.
        v.push(Entry {
            bin: "tier_capacity",
            args: &["--overlap"],
            budget_s: 1.1,
        });
    }
    v
}

/// Where `fleet_scale` drops its row array (cwd-relative; the child
/// inherits this harness's working directory). Read back after the
/// runs and merged into the main JSON artifact.
const FLEET_SCALE_JSON: &str = "BENCH_fleet_scale.json";

/// Where `device_scaling` drops its row array (cwd-relative), merged
/// into the artifact the same way.
const DEVICE_SCALING_JSON: &str = "BENCH_device_scaling.json";

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path: PathBuf = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_serve.json"));

    // Sibling binaries live next to this one (same target profile).
    let bin_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe has a parent dir")
        .to_path_buf();

    banner("Serving-stack bench smoke");
    let mut t = Table::new(["Bin", "Args", "Wall (s)", "Budget (s)", "Status"]);
    let mut records = Vec::new();
    let mut failed = false;
    let mut over_budget = 0usize;
    for e in entries(smoke) {
        let exe = bin_dir.join(e.bin);
        let clock = Instant::now();
        let status = Command::new(&exe)
            .args(e.args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .status();
        let wall_s = clock.elapsed().as_secs_f64();
        let ok = matches!(&status, Ok(s) if s.success());
        let within = wall_s <= e.budget_s;
        if !ok {
            failed = true;
            eprintln!("FAIL: {} {:?}: {status:?}", exe.display(), e.args);
        } else if !within {
            over_budget += 1;
            eprintln!(
                "WARN: {} {:?} took {wall_s:.2} s (soft budget {:.1} s)",
                e.bin, e.args, e.budget_s
            );
        }
        t.row([
            e.bin.to_string(),
            e.args.join(" "),
            f(wall_s, 3),
            f(e.budget_s, 1),
            if !ok {
                "FAILED".to_string()
            } else if within {
                "ok".to_string()
            } else {
                "over budget".to_string()
            },
        ]);
        records.push(format!(
            "    {{\"bin\": \"{}\", \"args\": \"{}\", \"wall_s\": {:.6}, \"budget_s\": {:.1}, \"ok\": {}, \"within_budget\": {}}}",
            json_escape(e.bin),
            json_escape(&e.args.join(" ")),
            wall_s,
            e.budget_s,
            ok,
            within
        ));
    }
    t.print();

    // Merge the fleet_scale per-row throughput JSON (written by the
    // child above) into the single uploaded artifact; indent its array
    // to sit as a top-level key.
    let fleet_rows = std::fs::read_to_string(FLEET_SCALE_JSON)
        .map(|s| s.trim().replace('\n', "\n  "))
        .unwrap_or_else(|_| "[]".to_string());
    let device_rows = std::fs::read_to_string(DEVICE_SCALING_JSON)
        .map(|s| s.trim().replace('\n', "\n  "))
        .unwrap_or_else(|_| "[]".to_string());
    let json = format!(
        "{{\n  \"suite\": \"serve\",\n  \"workers\": {},\n  \"smoke\": {},\n  \"fleet_scale_rows\": {},\n  \"device_scaling_rows\": {},\n  \"entries\": [\n{}\n  ]\n}}\n",
        workers(),
        smoke,
        fleet_rows,
        device_rows,
        records.join(",\n")
    );
    let mut out = std::fs::File::create(&json_path).expect("create bench json");
    out.write_all(json.as_bytes()).expect("write bench json");
    println!("\nwrote {}", json_path.display());
    if over_budget > 0 {
        println!("{over_budget} entr(ies) over their soft budget (non-fatal).");
    }
    assert!(!failed, "a bench binary failed; see stderr");
    println!("OK: all bench binaries ran.");
}
