//! Experiment: ion-serve daemon under a multi-tenant client swarm.
//!
//! ```sh
//! cargo run --release -p ion-bench --bin exp_serve
//! cargo run --release -p ion-bench --bin exp_serve -- --quick
//! ```
//!
//! Boots an in-process [`ion_serve::Daemon`] on an ephemeral port with
//! the deterministic expert model, then drives it over real TCP with a
//! swarm of client threads spread across tenants. Every client runs a
//! mixed workload: submit a unique synthetic trace, long-poll it to
//! `done`, fetch the report, ask two Q&A questions — plus one submit of
//! a swarm-shared trace so cross-client dedup is exercised under load.
//!
//! Reports per-operation latency percentiles (p50/p95/p99) and overall
//! job throughput, then enforces the acceptance gates: p99 submit
//! latency, end-to-end job throughput, zero worker panics, and every
//! job finishing `done`. `--quick` shrinks the swarm for CI smoke.

use darshan::log::LogWriter;
use iosim::{SimConfig, Simulation};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A small but analyzable trace; `tag` varies the digest per job.
fn trace_bytes(tag: &str) -> Vec<u8> {
    let mut sim = Simulation::new(SimConfig::default().with_ranks(2).with_exe(tag));
    let f = sim.posix_open_all("/scratch/swarm.dat").unwrap();
    for i in 0..16u64 {
        for rank in 0..2u32 {
            let base = u64::from(rank) * (4 << 20);
            sim.posix_write(rank, f, base + i * 1024, 1024).unwrap();
        }
    }
    sim.posix_close_all(f);
    LogWriter::from_log(sim.finish()).finish().unwrap()
}

/// Latency samples for one operation class, merged across the swarm.
#[derive(Default)]
struct OpStats {
    nanos: Vec<u64>,
}

impl OpStats {
    fn pct(&self, p: f64) -> f64 {
        if self.nanos.is_empty() {
            return 0.0;
        }
        let idx = ((p / 100.0) * (self.nanos.len() - 1) as f64).round() as usize;
        self.nanos[idx] as f64 / 1e6
    }
}

#[derive(Default)]
struct Swarm {
    submit: OpStats,
    poll: OpStats,
    report: OpStats,
    qa: OpStats,
    jobs_done: u64,
    dedup_joins: u64,
    failures: Vec<String>,
}

fn timed<T>(bucket: &mut Vec<u64>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    bucket.push(t0.elapsed().as_nanos() as u64);
    out
}

/// One client's mixed workload; returns its local stats.
fn client_run(addr: SocketAddr, tenant: &str, client: usize, jobs: usize, shared: &[u8]) -> Swarm {
    use ion_serve::client::{get, post};
    let mut local = Swarm::default();
    let header = [("X-Ion-Tenant", tenant)];
    for round in 0..jobs {
        // Round 0 is the swarm-shared trace — all clients fire it at
        // start-up, so identical submissions overlap in flight and the
        // dedup/singleflight path is exercised; later rounds are unique.
        let unique;
        let trace: &[u8] = if round == 0 {
            shared
        } else {
            unique = trace_bytes(&format!("swarm-{tenant}-{client}-{round}"));
            &unique
        };
        let submitted = timed(&mut local.submit.nanos, || {
            post(addr, "/v1/jobs", &header, trace)
        });
        let reply = match submitted {
            Ok(r) if r.status == 202 || r.status == 200 => r,
            Ok(r) => {
                local.failures.push(format!(
                    "{tenant}/{client}: submit -> {} {}",
                    r.status,
                    r.text()
                ));
                continue;
            }
            Err(e) => {
                local
                    .failures
                    .push(format!("{tenant}/{client}: submit: {e}"));
                continue;
            }
        };
        let doc = reply.json().expect("submit returns JSON");
        if doc.get("deduped").and_then(|d| d.as_bool()) == Some(true) {
            local.dedup_joins += 1;
        }
        let id = doc.get("job").unwrap().as_str().unwrap().to_owned();

        let polled = timed(&mut local.poll.nanos, || {
            get(addr, &format!("/v1/jobs/{id}?wait_ms=30000"))
        });
        let state = polled
            .ok()
            .and_then(|r| r.json())
            .and_then(|d| d.get("state").and_then(|s| s.as_str().map(str::to_owned)));
        if state.as_deref() != Some("done") {
            local
                .failures
                .push(format!("{tenant}/{client}: job {id} ended {state:?}"));
            continue;
        }
        local.jobs_done += 1;

        let report = timed(&mut local.report.nanos, || {
            get(addr, &format!("/v1/jobs/{id}/report"))
        });
        match report {
            Ok(r) if r.status == 200 && !r.body.is_empty() => {}
            other => local
                .failures
                .push(format!("{tenant}/{client}: report on {id}: {other:?}")),
        }
        for question in [
            "what issues were detected?",
            "how severe is the worst issue?",
        ] {
            let answered = timed(&mut local.qa.nanos, || {
                post(addr, &format!("/v1/jobs/{id}/qa"), &[], question.as_bytes())
            });
            match answered {
                Ok(r) if r.status == 200 => {}
                other => local
                    .failures
                    .push(format!("{tenant}/{client}: qa on {id}: {other:?}")),
            }
        }
    }
    local
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");

    // Swarm shape: tenants × clients × jobs-per-client. Gates are
    // deliberately loose floors — they catch collapse (lock convoys,
    // lost wakeups, worker panics), not small regressions, so the
    // experiment stays green on slow shared CI boxes.
    let (tenants, clients, jobs, p99_submit_ms, min_jobs_per_s) = if quick {
        (3, 2, 2, 500.0, 1.0)
    } else {
        (4, 3, 5, 500.0, 4.0)
    };

    let root = std::env::temp_dir().join(format!("ion-exp-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Arc::new(ion_store::Store::open(root.join("store")).expect("open store"));
    let daemon = ion_serve::Daemon::bind(
        "127.0.0.1:0",
        store,
        ion_serve::ServeConfig {
            workers: 4,
            queue_budget: 0, // swarm paces itself; admission is tested elsewhere
            tenant_budget: 0,
            ..ion_serve::ServeConfig::default()
        },
    )
    .expect("bind daemon");
    let addr = daemon.local_addr();

    let total_jobs = tenants * clients * jobs;
    println!(
        "═══ ion-serve swarm: {tenants} tenants × {clients} clients × {jobs} jobs \
         ({total_jobs} total) on {addr} ═══\n"
    );

    let shared = Arc::new(trace_bytes("swarm-shared"));
    let merged = Arc::new(Mutex::new(Swarm::default()));
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for t in 0..tenants {
        for c in 0..clients {
            let merged = Arc::clone(&merged);
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                let tenant = format!("tenant-{t}");
                let local = client_run(addr, &tenant, c, jobs, &shared);
                let mut all = merged.lock().unwrap();
                all.submit.nanos.extend(local.submit.nanos);
                all.poll.nanos.extend(local.poll.nanos);
                all.report.nanos.extend(local.report.nanos);
                all.qa.nanos.extend(local.qa.nanos);
                all.jobs_done += local.jobs_done;
                all.dedup_joins += local.dedup_joins;
                all.failures.extend(local.failures);
            }));
        }
    }
    for h in handles {
        h.join().expect("client thread must not panic");
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let mut all = Arc::try_unwrap(merged)
        .map(|m| m.into_inner().unwrap())
        .unwrap_or_else(|_| unreachable!("all clients joined"));
    for stats in [&mut all.submit, &mut all.poll, &mut all.report, &mut all.qa] {
        stats.nanos.sort_unstable();
    }

    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>10}",
        "op", "count", "p50 (ms)", "p95 (ms)", "p99 (ms)"
    );
    for (name, stats) in [
        ("submit", &all.submit),
        ("poll", &all.poll),
        ("report", &all.report),
        ("qa", &all.qa),
    ] {
        println!(
            "{:<10} {:>8} {:>10.2} {:>10.2} {:>10.2}",
            name,
            stats.nanos.len(),
            stats.pct(50.0),
            stats.pct(95.0),
            stats.pct(99.0)
        );
    }
    let jobs_per_s = all.jobs_done as f64 / wall_s;
    println!(
        "\n{} jobs done in {wall_s:.2}s ({jobs_per_s:.1} jobs/s), {} dedup join(s)",
        all.jobs_done, all.dedup_joins
    );

    // Drain and read the daemon's own ledger before gating.
    let summary = daemon.shutdown();
    let panics = ion_obs::snapshot().counter("serve.worker.panics");
    println!(
        "daemon: {} done, {} failed, {} cancelled, {} deadlined, {} worker panic(s)",
        summary.done, summary.failed, summary.cancelled, summary.deadlined, panics
    );

    let _ = std::fs::remove_dir_all(&root);

    // Acceptance gates.
    let mut gate_ok = true;
    let mut fail = |msg: String| {
        gate_ok = false;
        eprintln!("FAIL: {msg}");
    };
    for f in &all.failures {
        fail(format!("request failure: {f}"));
    }
    if all.jobs_done != total_jobs as u64 {
        fail(format!("{}/{total_jobs} jobs done", all.jobs_done));
    }
    if all.dedup_joins == 0 {
        fail("no dedup joins — the shared-trace path never collapsed".into());
    }
    let p99 = all.submit.pct(99.0);
    if p99 > p99_submit_ms {
        fail(format!(
            "p99 submit latency {p99:.1}ms exceeds the {p99_submit_ms:.0}ms ceiling"
        ));
    }
    if jobs_per_s < min_jobs_per_s {
        fail(format!(
            "throughput {jobs_per_s:.2} jobs/s below the {min_jobs_per_s:.1} floor"
        ));
    }
    if panics != 0 {
        fail(format!("{panics} analysis worker(s) panicked"));
    }
    if summary.failed != 0 || summary.deadlined != 0 {
        fail(format!(
            "daemon ledger not clean: {} failed, {} deadlined",
            summary.failed, summary.deadlined
        ));
    }
    if !gate_ok {
        std::process::exit(1);
    }
}
