//! Seeded fuzzing of the observability readers that take input from
//! disk: the crash-tolerant JSONL timeline reader and the manifest
//! compare engine behind the CI gate. Every input is drawn from
//! `Rng64`, so a failure replays from its case number.
//!
//! The contract under test: no input panics; a line that does not parse
//! in the middle of a timeline file is an error; a torn last line (the
//! signature of a writer that crashed mid-append) only marks the load
//! `truncated`.

use lva::core::Rng64;
use lva::obs::{
    compare, parse_json, read_jsonl, CompareOptions, EpochFrame, EpochSampler, MetricsRegistry,
    RowStatus, RunRecord, TimelineConfig, RECORD_KIND,
};
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lva_obs_fuzz_{tag}"));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// A well-formed timeline of `n` frames with counters, gauges and a
/// histogram, rendered as JSONL lines.
fn timeline_lines(rng: &mut Rng64, n: u64) -> Vec<String> {
    let mut sampler = EpochSampler::new(TimelineConfig::every(100));
    let mut registry = MetricsRegistry::new();
    for epoch in 1..=n {
        registry.counter("phase1/loads").add(rng.gen_u64() % 1000);
        registry
            .counter("phase1/l1/raw_misses")
            .add(rng.gen_u64() % 50);
        registry.gauge("queue/depth").set(rng.gen_f64() * 8.0);
        registry.histogram("latency").record(rng.gen_u64() % 200);
        sampler.sample(epoch * 100, &registry);
    }
    let frames = sampler.into_timeline().frames;
    frames
        .iter()
        .map(|f| f.to_json().to_string_compact())
        .collect()
}

/// Whether `line` alone decodes as a frame.
fn decodes(line: &str) -> bool {
    parse_json(line)
        .map_err(|e| e.to_string())
        .and_then(|json| EpochFrame::from_json(&json))
        .is_ok()
}

fn write_lines(path: &std::path::Path, lines: &[String]) {
    std::fs::write(path, lines.join("\n") + "\n").expect("write timeline");
}

#[test]
fn torn_last_line_is_truncated_not_an_error() {
    let dir = tmp("torn");
    let mut rng = Rng64::new(0x7042_11e5);
    for case in 0..64 {
        let n = 1 + rng.gen_u64() % 6;
        let mut lines = timeline_lines(&mut rng, n);
        let whole = lines.len();
        let last = lines.pop().unwrap();
        // Any proper prefix of the last line: what a crash mid-append
        // leaves behind. The frames are ASCII, so every cut is on a
        // character boundary.
        let cut = (rng.gen_u64() % last.len() as u64) as usize;
        lines.push(last[..cut].to_owned());
        let path = dir.join(format!("case{case}.jsonl"));
        write_lines(&path, &lines);
        let load = read_jsonl(&path).unwrap_or_else(|e| panic!("case {case}: {e}"));
        if cut == 0 {
            // The cut removed the whole line: a clean file.
            assert!(!load.truncated, "case {case}");
        } else {
            assert!(
                load.truncated,
                "case {case}: cut at {cut} of {}",
                last.len()
            );
        }
        assert_eq!(load.frames.len(), whole - 1, "case {case}");
    }
}

#[test]
fn mid_file_corruption_is_an_error_and_nothing_panics() {
    let dir = tmp("mutate");
    let mut rng = Rng64::new(0xc0de_f00d);
    let mut corrupt_mid_file = 0;
    for case in 0..256 {
        let n = 2 + rng.gen_u64() % 5;
        let lines = timeline_lines(&mut rng, n);
        let victim = (rng.gen_u64() % lines.len() as u64) as usize;
        // Overwrite a few bytes of one line with anything but a line
        // break, so the file keeps its line structure.
        let mut bytes = lines[victim].clone().into_bytes();
        for _ in 0..1 + rng.gen_u64() % 3 {
            let at = (rng.gen_u64() % bytes.len() as u64) as usize;
            bytes[at] = match (rng.gen_u64() % 256) as u8 {
                b'\n' | b'\r' => b'#',
                b => b,
            };
        }
        let path = dir.join(format!("case{case}.jsonl"));
        let mut text = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            text.extend_from_slice(if i == victim { &bytes } else { line.as_bytes() });
            text.push(b'\n');
        }
        std::fs::write(&path, &text).expect("write timeline");
        let result = read_jsonl(&path);
        let mutated = String::from_utf8(bytes.clone());
        let broken = mutated
            .as_deref()
            .map_or(true, |l| !l.trim().is_empty() && !decodes(l));
        if victim + 1 < lines.len() && broken {
            assert!(
                result.is_err(),
                "case {case}: corrupt line {victim} accepted"
            );
            corrupt_mid_file += 1;
        }
        if let Ok(load) = &result {
            assert!(load.frames.len() <= lines.len(), "case {case}");
        }
    }
    assert!(
        corrupt_mid_file > 64,
        "only {corrupt_mid_file} mid-file corruptions"
    );
}

#[test]
fn random_lines_never_panic_the_frame_decoder() {
    let mut rng = Rng64::new(0x5eed_0b5e);
    let alphabet = br#"{}[]":,0123456789.-+eE truefalsnul\epochstartendcountersgaugeshistograms"#;
    for _ in 0..4_000 {
        let len = rng.gen_u64() % 120;
        let line: String = (0..len)
            .map(|_| alphabet[(rng.gen_u64() % alphabet.len() as u64) as usize] as char)
            .collect();
        let _ = decodes(&line);
    }
    // Structurally plausible frames with hostile field values.
    for text in [
        r#"{"epoch":1e308,"start":-5,"end":null,"counters":{},"gauges":{},"histograms":{}}"#,
        r#"{"epoch":0,"start":0,"end":1,"counters":{"a":1e400},"gauges":{},"histograms":{}}"#,
        r#"{"epoch":0,"start":0,"end":1,"counters":{"a":1,"a":2},"gauges":{"g":null},"histograms":{}}"#,
        r#"{"epoch":0,"start":0,"end":1,"counters":[],"gauges":{},"histograms":{}}"#,
        r#"{"epoch":0,"start":0,"end":1,"counters":{},"gauges":{},"histograms":{"h":{"count":-1}}}"#,
    ] {
        let _ = decodes(text);
    }
}

/// A manifest with the given stats.
fn record(stats: &[(&str, f64)]) -> RunRecord {
    let mut r = RunRecord::new("fuzz");
    for &(path, v) in stats {
        r.push_stat(path, v);
    }
    r
}

#[test]
fn compare_survives_hostile_manifests() {
    let opts = CompareOptions::default();
    let hostile = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        1e308,
        -1e-300,
    ];
    // Every pairing of hostile values on a gated path: never a panic,
    // and a non-finite value against a finite one never passes.
    for &base in &hostile {
        for &cand in &hostile {
            let report = compare(
                &record(&[("loads/x", base)]),
                &record(&[("loads/x", cand)]),
                &opts,
            );
            let _ = report.to_table(None);
            if base.is_finite() != cand.is_finite() {
                assert!(!report.passed(), "{base} vs {cand} passed");
            }
        }
    }
    // A gated path missing from the candidate fails; a missing timing
    // path is informational.
    let base = record(&[("loads/x", 1.0), ("time/x/loads_per_sec", 5.0)]);
    let report = compare(&base, &record(&[("time/x/loads_per_sec", 5.0)]), &opts);
    assert!(report
        .rows
        .iter()
        .any(|r| r.metric == "loads/x" && r.status == RowStatus::MissingInCandidate));
    assert!(!report.passed());
    let report = compare(&base, &record(&[("loads/x", 1.0)]), &opts);
    assert!(report.passed(), "{}", report.to_table(None));

    // Manifests from text: deep nesting, duplicate keys and non-numeric
    // stats are parse errors or well-defined records, never panics.
    let deep = format!(
        r#"{{"kind":"{RECORD_KIND}","schema":1,"name":"n","meta":{{}},"stats":{}1{}}}"#,
        "[".repeat(500),
        "]".repeat(500)
    );
    assert!(RunRecord::parse(&deep).is_err());
    let dup = format!(
        r#"{{"kind":"{RECORD_KIND}","schema":1,"name":"n","meta":{{}},
             "stats":{{"loads/x":1,"loads/x":2,"loads/y":null}}}}"#
    );
    let dup = RunRecord::parse(&dup).expect("duplicate keys still parse");
    let report = compare(&dup, &dup, &opts);
    let _ = report.to_table(Some(1));
    assert_eq!(report.passed(), report.failures() == 0);
    let mut rng = Rng64::new(0xbad_c0de);
    let template = record(&[("loads/x", 1.0), ("loads/y", 2.5), ("time/z", 3.0)])
        .to_json()
        .to_string_compact();
    for _ in 0..2_000 {
        let mut bytes = template.clone().into_bytes();
        for _ in 0..1 + rng.gen_u64() % 4 {
            let at = (rng.gen_u64() % bytes.len() as u64) as usize;
            bytes[at] = (rng.gen_u64() % 128) as u8;
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(r) = RunRecord::parse(&text) {
            let report = compare(&r, &record(&[("loads/x", 1.0)]), &opts);
            let _ = report.to_table(None);
            assert_eq!(report.passed(), report.failures() == 0);
        }
    }
}
