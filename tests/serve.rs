//! Acceptance tests for the sweep service: the `lva-serve` scheduler and
//! wire protocol must hand back exactly the bytes a direct in-process
//! `run_sweep` would produce, share evaluations across overlapping
//! clients, and make a repeated sweep dramatically cheaper than a cold
//! one.

use lva::serve::{
    evaluate_point, point_record, Client, PointSpec, ResultCache, Scheduler, Server, ServerHandle,
};
use lva::sim::sweep::{run_sweep, SweepOptions};
use lva::sim::SimConfig;
use lva::workloads::WorkloadScale;
use std::io::BufRead;
use std::sync::Arc;
use std::time::Instant;

fn spec(workload: &str, config: &SimConfig) -> PointSpec {
    PointSpec::new(workload, WorkloadScale::Test, 0, config.clone())
}

fn start_server(workers: usize) -> ServerHandle {
    let scheduler = Arc::new(Scheduler::new(workers, ResultCache::in_memory(64)));
    Server::bind("127.0.0.1:0", scheduler)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server thread")
}

/// The headline acceptance property: two concurrent clients with
/// overlapping sweeps each receive manifests byte-identical to a direct
/// `run_sweep`, and the cache-hit counter equals the overlap size.
#[test]
fn concurrent_overlapping_clients_match_direct_run_sweep() {
    let precise = SimConfig::precise();
    let lva = SimConfig::baseline_lva();
    let points_a = vec![
        spec("blackscholes", &precise),
        spec("canneal", &precise),
        spec("swaptions", &precise),
        spec("blackscholes", &lva),
    ];
    let points_b = vec![
        spec("canneal", &precise),
        spec("swaptions", &precise),
        spec("x264", &precise),
        spec("canneal", &lva),
    ];
    let overlap = 2; // canneal/precise and swaptions/precise appear in both

    // Ground truth: the same points through the plain in-process sweep
    // engine, no server, no cache.
    let direct_a = run_sweep(
        &points_a,
        &SweepOptions {
            workers: Some(2),
            progress: false,
        },
        |_, p| evaluate_point(p).expect("direct evaluation succeeds"),
    );
    let direct_b = run_sweep(
        &points_b,
        &SweepOptions {
            workers: Some(2),
            progress: false,
        },
        |_, p| evaluate_point(p).expect("direct evaluation succeeds"),
    );

    let handle = start_server(2);
    let addr = handle.addr();
    let submit = |points: Vec<PointSpec>| {
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client.submit(&points).expect("submit succeeds")
        })
    };
    let ta = submit(points_a.clone());
    let tb = submit(points_b.clone());
    let oa = ta.join().expect("client a");
    let ob = tb.join().expect("client b");

    for (i, outcome) in direct_a.outcomes.iter().enumerate() {
        assert_eq!(
            oa.results[i].as_ref().expect("server result ok"),
            &outcome.value,
            "client a point {i} must be byte-identical to direct run_sweep"
        );
    }
    for (i, outcome) in direct_b.outcomes.iter().enumerate() {
        assert_eq!(
            ob.results[i].as_ref().expect("server result ok"),
            &outcome.value,
            "client b point {i} must be byte-identical to direct run_sweep"
        );
    }

    // Each overlapping point is evaluated once for one client and served
    // (cache or in-flight join) to the other — however the timing falls.
    assert_eq!(
        oa.cache_hits + ob.cache_hits,
        overlap,
        "cache-hit counter must equal the overlap size"
    );
    assert_eq!(oa.deduped + ob.deduped, 0);

    let mut ctl = Client::connect(addr).expect("connect ctl");
    let metrics: std::collections::HashMap<String, f64> =
        ctl.metrics().expect("metrics").into_iter().collect();
    assert_eq!(metrics["serve/cache/hits"], overlap as f64);
    assert_eq!(
        metrics["serve/points/evaluated"],
        (points_a.len() + points_b.len() - overlap as usize) as f64,
        "overlapping points must not be evaluated twice"
    );
    ctl.shutdown_server().expect("shutdown");
    handle.join();
}

#[test]
fn repeated_identical_sweep_is_served_from_cache_and_far_faster() {
    // Points heavy enough that evaluation dwarfs the fixed wire and
    // JSON cost of shipping the manifests (canneal at Small scale runs
    // for >1s per point in unoptimized builds; the warm pass is pure
    // protocol + cache, ~tens of milliseconds).
    let points = vec![
        PointSpec::new("canneal", WorkloadScale::Small, 0, SimConfig::precise()),
        PointSpec::new("canneal", WorkloadScale::Small, 0, SimConfig::baseline_lva()),
    ];

    let handle = start_server(2);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let t0 = Instant::now();
    let cold = client.submit(&points).expect("cold submit");
    let cold_elapsed = t0.elapsed();
    assert_eq!(cold.cache_hits, 0);

    let t1 = Instant::now();
    let warm = client.submit(&points).expect("warm submit");
    let warm_elapsed = t1.elapsed();

    assert_eq!(warm.cache_hits, points.len() as u64, "every point hits");
    assert_eq!(cold.results, warm.results, "hits serve identical bytes");
    assert!(
        cold_elapsed >= warm_elapsed * 10,
        "a fully cached sweep must be at least 10x faster: cold {cold_elapsed:?}, warm {warm_elapsed:?}"
    );

    client.shutdown_server().expect("shutdown");
    handle.join();
}

#[test]
fn bad_request_lines_get_errors_and_the_server_keeps_serving() {
    // A non-UTF-8 line gets an error and the connection stays usable. A
    // peer that never sends a newline must not grow the server's line
    // buffer without bound: one byte past the cap gets an error line and
    // the connection is closed, while other clients are still served.
    use std::io::{Read, Write};
    let handle = start_server(1);
    let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = std::io::BufReader::new(raw.try_clone().expect("clone stream"));
    let mut read_error = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("error line");
        let reply = lva::obs::parse_json(line.trim()).expect("error line is JSON");
        assert_eq!(
            reply.get("ok"),
            Some(&lva::obs::Json::Bool(false)),
            "{line}"
        );
        reply
            .get("error")
            .and_then(lva::obs::Json::as_str)
            .expect("message")
            .to_owned()
    };
    raw.write_all(b"\xff\xfe\n").expect("write non-UTF-8 line");
    assert!(read_error().contains("UTF-8"));
    raw.write_all(&vec![b'x'; lva::serve::MAX_REQUEST_BYTES + 1])
        .expect("write oversize line");
    assert!(read_error().contains("exceeds"));
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).expect("clean close"), 0);

    let mut client = Client::connect(handle.addr()).expect("second client");
    client.ping().expect("second client is served");
    client.shutdown_server().expect("shutdown");
    handle.join();
}

#[test]
fn connections_beyond_the_cap_get_an_error_and_the_rest_keep_serving() {
    use std::io::Read;
    let handle = start_server(1);
    let mut first = Client::connect(handle.addr()).expect("first client");
    // Open connections hold their handler threads, so the server is full
    // once the cap's worth are open.
    let idle: Vec<_> = (1..lva::serve::MAX_CONNECTIONS)
        .map(|_| std::net::TcpStream::connect(handle.addr()).expect("connect"))
        .collect();
    let over = std::net::TcpStream::connect(handle.addr()).expect("connect over the cap");
    over.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = std::io::BufReader::new(over);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error line");
    let reply = lva::obs::parse_json(line.trim()).expect("error line is JSON");
    assert_eq!(reply.get("ok"), Some(&lva::obs::Json::Bool(false)), "{line}");
    assert!(line.contains("limit"), "{line}");
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).expect("clean close"), 0);

    first.ping().expect("connections within the cap are still served");
    drop(idle);
    first.shutdown_server().expect("shutdown");
    handle.join();
}

/// The seven configurations of a served sweep as the wire expresses them:
/// precise, LVA, degree 4, CLP, LVA+CLP, governed and budgeted.
fn wire_configs() -> Vec<SimConfig> {
    use lva::core::{ApproximatorConfig, ClpConfig};
    vec![
        SimConfig::precise(),
        SimConfig::baseline_lva(),
        SimConfig::lva(ApproximatorConfig::with_degree(4)),
        SimConfig::clp(ClpConfig::baseline()),
        SimConfig::lva_clp(ApproximatorConfig::baseline(), ClpConfig::baseline()),
        SimConfig::baseline_lva().with_govern_slo(0.02),
        SimConfig::baseline_lva().with_error_budget(0.05),
    ]
}

/// The manifest of `spec` rendered from a workload object of its own.
fn fresh_manifest(spec: &PointSpec) -> String {
    let workload = lva::workloads::by_name(&spec.workload, spec.scale, spec.seed).expect("known");
    point_record(spec, &workload.execute(&spec.config)).to_string_pretty()
}

/// Evaluates `points` on `threads` threads, each claiming the next point.
fn evaluate_on(threads: usize, points: &[PointSpec]) -> Vec<String> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results = std::sync::Mutex::new(vec![String::new(); points.len()]);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(spec) = points.get(i) else { break };
                let text = evaluate_point(spec).expect("point evaluates");
                results.lock().expect("results")[i] = text;
            });
        }
    });
    results.into_inner().expect("results")
}

#[test]
fn registry_served_points_match_fresh_workloads_at_any_thread_count_and_order() {
    // Each thread count starts on a seed no other test uses, so its first
    // order runs against a cold registry and the second against a warm one.
    for (threads, seed) in [(1, 101), (2, 102), (8, 103)] {
        let mut points: Vec<PointSpec> = wire_configs()
            .iter()
            .flat_map(|config| {
                lva::workloads::NAMES
                    .iter()
                    .map(|&name| PointSpec::new(name, WorkloadScale::Test, seed, config.clone()))
            })
            .collect();
        let mut expected: Vec<String> = points.iter().map(fresh_manifest).collect();
        for _ in 0..2 {
            let got = evaluate_on(threads, &points);
            for (i, (got, want)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(got, want, "{threads} threads, point {i}: {:?}", points[i]);
            }
            points.reverse();
            expected.reverse();
        }
    }
}

#[test]
fn registry_and_memo_stay_at_their_caps_without_changing_results() {
    use lva::workloads::{reuse_stats, shared, MEMO_CAPACITY, SHARED_CAPACITY};
    // More distinct value delays than one object's memo keeps, then the
    // first delay again, after its reference was evicted.
    let seed = 201;
    let mut delays: Vec<u64> = (1..=MEMO_CAPACITY as u64 + 2).collect();
    delays.push(1);
    for delay in delays {
        let mut config = SimConfig::baseline_lva();
        config.value_delay = delay;
        let spec = PointSpec::new("blackscholes", WorkloadScale::Test, seed, config);
        assert_eq!(evaluate_point(&spec).unwrap(), fresh_manifest(&spec), "delay {delay}");
    }
    let object = shared("blackscholes", WorkloadScale::Test, seed).expect("known");
    assert_eq!(object.resident_references(), MEMO_CAPACITY);

    // More distinct seeds than the registry keeps, then the first seed
    // again, after its object was evicted.
    let mut seeds: Vec<u64> = (300..300 + SHARED_CAPACITY as u64 + 2).collect();
    seeds.push(300);
    for seed in seeds {
        let spec = PointSpec::new("blackscholes", WorkloadScale::Test, seed, SimConfig::precise());
        assert_eq!(evaluate_point(&spec).unwrap(), fresh_manifest(&spec), "seed {seed}");
    }
    // The registry never shrinks, so no concurrent test can move it off
    // its cap once this loop filled it.
    assert_eq!(reuse_stats().objects, SHARED_CAPACITY);
}

/// Kills the server child if a test assertion unwinds before the clean
/// stop, so failed tests cannot leak a listening process.
struct ServeChild(std::process::Child);

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `lva-explore serve` and parses the listen line for its
/// ephemeral address.
fn spawn_cli_server(extra: &[&str]) -> (ServeChild, String) {
    let explore = env!("CARGO_BIN_EXE_lva-explore");
    let child = std::process::Command::new(explore)
        .args(["serve", "--addr", "127.0.0.1:0", "--memory-only", "--threads", "2"])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn lva-explore serve");
    let mut child = ServeChild(child);
    let stdout = child.0.stdout.take().expect("piped stdout");
    let mut first_line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut first_line)
        .expect("read listen line");
    let addr = first_line
        .trim()
        .strip_prefix("lva-serve listening on ")
        .expect("listen line format")
        .to_owned();
    (child, addr)
}

#[test]
fn cli_serve_submit_round_trip() {
    let explore = env!("CARGO_BIN_EXE_lva-explore");
    let (mut child, addr) = spawn_cli_server(&[]);

    let out_dirs = [
        std::env::temp_dir().join(format!("lva-serve-cli-a-{}", std::process::id())),
        std::env::temp_dir().join(format!("lva-serve-cli-b-{}", std::process::id())),
    ];
    let mut summaries = Vec::new();
    for dir in &out_dirs {
        let out = std::process::Command::new(explore)
            .args([
                "submit",
                "blackscholes",
                "--addr",
                &addr,
                "--degrees",
                "0,4",
                "--out-dir",
                dir.to_str().expect("utf8 temp path"),
            ])
            .output()
            .expect("run submit");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "submit failed: {stdout}");
        summaries.push(stdout);
    }
    assert!(summaries[0].contains("0 cache hits"), "{}", summaries[0]);
    assert!(summaries[1].contains("2 cache hits"), "{}", summaries[1]);

    // The dumped manifests are content-addressed; the repeat submission
    // must produce the same file set with byte-identical contents.
    let listing = |dir: &std::path::Path| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("out dir readable")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let names = listing(&out_dirs[0]);
    assert_eq!(names.len(), 2, "one manifest per point: {names:?}");
    assert_eq!(names, listing(&out_dirs[1]));
    for name in &names {
        let a = std::fs::read(out_dirs[0].join(name)).expect("manifest a");
        let b = std::fs::read(out_dirs[1].join(name)).expect("manifest b");
        assert_eq!(a, b, "{name} must be byte-identical across submissions");
    }

    let out = std::process::Command::new(explore)
        .args(["serve-ctl", "stop", "--addr", &addr])
        .output()
        .expect("run serve-ctl stop");
    assert!(out.status.success());
    let status = child.0.wait().expect("server exits");
    assert!(status.success(), "server exit status {status:?}");

    for dir in &out_dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The live-observability acceptance property: `serve-ctl watch` streams
/// at least two epoch frames from a spawned server, mirrors them into a
/// valid JSONL file, and `serve-ctl metrics` renders the registry as a
/// sorted, aligned table with integers for counters and humanized
/// nanosecond stats.
#[test]
fn cli_watch_streams_live_frames_and_metrics_print_as_a_table() {
    let explore = env!("CARGO_BIN_EXE_lva-explore");
    let (mut child, addr) = spawn_cli_server(&["--timeline-ms", "25"]);

    // One tiny evaluated job so the table and frames carry real numbers.
    let submit = std::process::Command::new(explore)
        .args(["submit", "blackscholes", "--addr", &addr, "--degrees", "0"])
        .output()
        .expect("run submit");
    assert!(
        submit.status.success(),
        "submit failed: {}",
        String::from_utf8_lossy(&submit.stderr)
    );

    let jsonl = std::env::temp_dir().join(format!("lva-watch-{}.jsonl", std::process::id()));
    let watch = std::process::Command::new(explore)
        .args(["serve-ctl", "watch", "--addr", &addr, "--frames", "2"])
        .args(["--jsonl", jsonl.to_str().expect("utf8 temp path")])
        .output()
        .expect("run serve-ctl watch");
    assert!(
        watch.status.success(),
        "watch failed: {}",
        String::from_utf8_lossy(&watch.stderr)
    );
    let table = String::from_utf8_lossy(&watch.stdout).into_owned();
    let rows: Vec<&str> = table.lines().collect();
    assert!(
        rows[0].contains("epoch") && rows[0].contains("eval p95"),
        "header row: {table}"
    );
    assert_eq!(rows.len(), 3, "header + 2 live frames: {table}");
    assert!(
        String::from_utf8_lossy(&watch.stderr).contains("watched 2 epoch frame(s)"),
        "summary on stderr"
    );

    // The JSONL mirror reloads as the same two frames, indices ascending.
    let load = lva::obs::read_jsonl(&jsonl).expect("reload watch jsonl");
    assert_eq!(load.frames.len(), 2);
    assert!(!load.truncated);
    assert!(load.frames[0].index < load.frames[1].index);
    let _ = std::fs::remove_file(&jsonl);

    // `--once` is the scripting spelling of `--frames 1`.
    let once = std::process::Command::new(explore)
        .args(["serve-ctl", "watch", "--addr", &addr, "--once"])
        .output()
        .expect("run serve-ctl watch --once");
    assert!(once.status.success());
    assert_eq!(String::from_utf8_lossy(&once.stdout).lines().count(), 2);

    let metrics = std::process::Command::new(explore)
        .args(["serve-ctl", "metrics", "--addr", &addr])
        .output()
        .expect("run serve-ctl metrics");
    assert!(metrics.status.success());
    let table = String::from_utf8_lossy(&metrics.stdout).into_owned();
    let mut paths = Vec::new();
    let mut cols = std::collections::HashSet::new();
    let mut values = std::collections::HashMap::new();
    for line in table.lines() {
        // `path<padding>  value` — neither token contains spaces.
        let mut tokens = line.split_whitespace();
        let path = tokens.next().expect("path column");
        let value = tokens.next().expect("value column");
        assert_eq!(tokens.next(), None, "two columns: {line:?}");
        paths.push(path.to_owned());
        cols.insert(line.len() - value.len());
        values.insert(path.to_owned(), value.to_owned());
    }
    let mut sorted = paths.clone();
    sorted.sort();
    assert_eq!(paths, sorted, "rows sort by path:\n{table}");
    assert_eq!(cols.len(), 1, "values align in one column:\n{table}");
    // Round trip: the table's accepted-jobs row equals what the typed
    // client reports, printed as a bare integer.
    let mut ctl = Client::connect(&*addr).expect("connect ctl");
    let dump: std::collections::HashMap<String, f64> =
        ctl.metrics().expect("metrics").into_iter().collect();
    assert_eq!(
        values["serve/jobs/accepted"],
        format!("{}", dump["serve/jobs/accepted"]),
        "counters print as integers"
    );
    let p95 = &values["serve/point/eval_ns/p95"];
    assert!(
        ["ns", "us", "ms", "s"].iter().any(|u| p95.ends_with(u)),
        "nanosecond stats humanize: {p95}"
    );

    let stop = std::process::Command::new(explore)
        .args(["serve-ctl", "stop", "--addr", &addr])
        .output()
        .expect("run serve-ctl stop");
    assert!(stop.status.success());
    assert!(child.0.wait().expect("server exits").success());
}

