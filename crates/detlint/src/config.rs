//! Rule scoping: which crates each rule applies to and which files may
//! hold `unsafe` code. The defaults encode this workspace's policy
//! (DESIGN.md §9); [`lint_source`](crate::lint_source) takes the
//! config explicitly so fixtures and future callers can narrow or
//! widen scope without editing the engine.

/// The embedded copy of the obs trace schema that S1 lints against.
/// `include_str!` keeps detlint dependency-free while guaranteeing the
/// linter and the validator read the same bytes.
const TRACE_SCHEMA_V1: &str = include_str!("../../obs/schema/trace-v1.json");

/// Per-rule crate scoping and allowlists.
#[derive(Clone, Debug)]
pub struct Config {
    /// Crates whose event ordering feeds golden digests: D1 (no
    /// unordered hash-collection use) applies here. `obs` is included
    /// because the aggregator and exporters derive report rows that
    /// goldens compare byte-for-byte.
    pub determinism_crates: Vec<String>,
    /// Crates exempt from D2 (wall-clock / ambient entropy). Only
    /// `bench` measures real time by design.
    pub d2_exempt_crates: Vec<String>,
    /// Crates whose non-test code is reachable from user input and
    /// must not panic: P1 applies here.
    pub panic_crates: Vec<String>,
    /// Repo-relative files allowed to contain `unsafe` (U1). Each
    /// entry is an explicit, reviewed exception: either an exact file
    /// path, or a directory prefix (trailing `/`) covering every file
    /// beneath it.
    pub unsafe_allow_files: Vec<String>,
    /// Event kinds declared by the obs trace schema (snake_case). S1
    /// checks every `SimEvent::Variant` mention in determinism crates
    /// against this set, and — in the event vocabulary file — that
    /// every listed kind still has a variant. Empty disables S1.
    pub trace_event_kinds: Vec<String>,
    /// The one file that must mention *every* schema kind (the
    /// reverse direction of S1): the `SimEvent` vocabulary itself.
    pub event_vocab_file: String,
    /// Crates whose forked RNG streams are label-disciplined: R1
    /// requires every `.fork(...)` label here to be a named
    /// `*_STREAM` constant, and judges the declared constants for
    /// same-crate value collisions and cross-crate name conflicts.
    /// A superset of the determinism crates — the presentation
    /// crates (`textlab`, `cli`, `bench`) and the workload
    /// generators fork streams too, and a colliding label there
    /// corrupts an experiment just as surely.
    pub rng_stream_crates: Vec<String>,
    /// Files whose `match`es involving `SimEvent` must stay
    /// wildcard-free (M1): the obs consumers that would otherwise
    /// silently drop a newly added event kind.
    pub event_match_files: Vec<String>,
}

impl Config {
    /// True when `path` may contain `unsafe` (U1). Allowlist entries
    /// are exact paths, or directory prefixes when they end in '/'.
    /// U2 then audits each such site for a `// SAFETY:` rationale.
    pub fn allows_unsafe(&self, path: &str) -> bool {
        self.unsafe_allow_files.iter().any(|allowed| {
            if allowed.ends_with('/') {
                path.starts_with(allowed.as_str())
            } else {
                allowed == path
            }
        })
    }
}

impl Default for Config {
    fn default() -> Config {
        Config {
            determinism_crates: [
                "simkit",
                "netsim",
                "mapreduce",
                "scheduler",
                "cluster",
                "repair",
                "erasure",
                "ecstore",
                "obs",
                "sweep",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            d2_exempt_crates: vec!["bench".to_string()],
            panic_crates: ["cli", "workloads", "obs", "sweep"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            // The SIMD kernel tree holds all reviewed intrinsics
            // (per-ISA modules behind runtime dispatch); the scalar
            // reference path and proptests pin their output. Nothing
            // else in the workspace — gf256.rs included, now that its
            // kernels moved under simd/ — may contain `unsafe`, except
            // the two tests whose counting global allocators (an unsafe
            // trait) forward every call to `System`.
            unsafe_allow_files: vec![
                "crates/erasure/src/simd/".to_string(),
                "crates/ecstore/tests/allocations.rs".to_string(),
                "crates/textlab/tests/allocations.rs".to_string(),
            ],
            trace_event_kinds: schema_event_kinds(TRACE_SCHEMA_V1),
            event_vocab_file: "crates/obs/src/event.rs".to_string(),
            rng_stream_crates: [
                "simkit",
                "netsim",
                "mapreduce",
                "scheduler",
                "cluster",
                "repair",
                "erasure",
                "ecstore",
                "obs",
                "sweep",
                "workloads",
                "textlab",
                "cli",
                "bench",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            event_match_files: [
                "crates/obs/src/aggregate.rs",
                "crates/obs/src/chrome.rs",
                "crates/obs/src/diff.rs",
                "crates/obs/src/sink.rs",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        }
    }
}

/// Extracts the keys of the `"events"` object from a trace-schema
/// document with a small depth-tracking scanner — no JSON dependency,
/// and tolerant of the schema growing extra top-level sections. An
/// unparseable document yields an empty list (S1 disabled), never a
/// panic: the obs schema tests are where malformed-schema errors
/// belong.
fn schema_event_kinds(schema: &str) -> Vec<String> {
    let bytes = schema.as_bytes();
    let mut kinds = Vec::new();
    let mut depth = 0i32;
    let mut in_events = false;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let start = i + 1;
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
                let end = i.min(bytes.len());
                // A string is a key iff the next non-space byte is ':'.
                let mut j = i + 1;
                while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
                if bytes.get(j) == Some(&b':') {
                    let key = &schema[start..end];
                    if in_events && depth == 2 {
                        kinds.push(key.to_string());
                    } else if depth == 1 && key == "events" {
                        in_events = true;
                    }
                }
            }
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth -= 1;
                if in_events && depth < 2 {
                    in_events = false;
                }
            }
            _ => {}
        }
        i += 1;
    }
    kinds
}

/// Where a file sits in the workspace, as far as rule scoping cares.
#[derive(Clone, Debug)]
pub struct FileContext {
    /// Repo-relative path (forward slashes), e.g.
    /// `crates/scheduler/src/lib.rs`.
    pub path: String,
    /// The crate the file belongs to (`scheduler`, `cli`, ...).
    pub crate_name: String,
    /// True for integration tests and benches (`crates/*/tests/`,
    /// `crates/*/benches/`): D1 and P1 do not apply there.
    pub in_tests_dir: bool,
}

impl FileContext {
    /// Builds a context from a repo-relative path, deriving the crate
    /// name from the `crates/<name>/` component.
    pub fn from_repo_path(path: &str) -> FileContext {
        let parts: Vec<&str> = path.split('/').collect();
        let crate_name = match parts.as_slice() {
            ["crates", name, ..] => (*name).to_string(),
            _ => String::new(),
        };
        let in_tests_dir = parts
            .iter()
            .any(|p| *p == "tests" || *p == "benches" || *p == "examples");
        FileContext {
            path: path.to_string(),
            crate_name,
            in_tests_dir,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_schema_kinds_are_extracted() {
        let kinds = Config::default().trace_event_kinds;
        assert!(kinds.len() >= 20, "schema lost event kinds: {kinds:?}");
        for expected in [
            "job_submitted",
            "map_launched",
            "flow_rate",
            "repair_finished",
        ] {
            assert!(kinds.iter().any(|k| k == expected), "missing {expected}");
        }
        // Field names of nested per-event objects must not leak in.
        assert!(!kinds.iter().any(|k| k == "job" || k == "locality"));
    }

    #[test]
    fn scanner_tracks_depth_and_strings() {
        let doc = r#"{
          "description": "events: { not real }",
          "events": { "a_b": { "x": "uint" }, "c": { "y": "bool" } },
          "enums": { "z": ["v"] }
        }"#;
        assert_eq!(schema_event_kinds(doc), vec!["a_b", "c"]);
        assert!(schema_event_kinds("not json at all").is_empty());
    }

    #[test]
    fn sweep_is_scoped_into_both_rule_sets() {
        let cfg = Config::default();
        assert!(cfg.determinism_crates.iter().any(|c| c == "sweep"));
        assert!(cfg.panic_crates.iter().any(|c| c == "sweep"));
    }
}
