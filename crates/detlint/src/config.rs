//! Rule identifiers, rule metadata, and the workspace-specific scope tables
//! (deterministic crates and per-rule allowlists).
//!
//! The allowlists are part of the lint's definition, not user configuration:
//! changing them is a reviewed code change, exactly like editing a rule.

/// DET-HASH: no `HashMap`/`HashSet` in deterministic crates.
pub const DET_HASH: &str = "DET-HASH";
/// DET-CLOCK: wall-clock reads only in allowlisted timing modules.
pub const DET_CLOCK: &str = "DET-CLOCK";
/// DET-RNG: no raw seed arithmetic in `Rng64` construction/fork salts.
pub const DET_RNG: &str = "DET-RNG";
/// DET-FLOATCMP: no `partial_cmp(..).unwrap()/expect()` — use `total_cmp`.
pub const DET_FLOATCMP: &str = "DET-FLOATCMP";
/// SAFE-HDR: every crate root carries `#![forbid/deny(unsafe_code)]`.
pub const SAFE_HDR: &str = "SAFE-HDR";
/// SAFE-DOC: every `unsafe` site carries a preceding `// SAFETY:` comment.
pub const SAFE_DOC: &str = "SAFE-DOC";
/// SPEC-RESOLVE: committed scenario specs must parse and resolve every
/// component against the builtin registry.
pub const SPEC_RESOLVE: &str = "SPEC-RESOLVE";
/// PRAGMA: a malformed suppression pragma (unknown rule id, or a missing
/// justification — suppressing a determinism lint without saying why is
/// itself an error).
pub const PRAGMA: &str = "PRAGMA";
/// PRAGMA-UNUSED: a well-formed pragma that suppressed nothing; stale
/// suppressions must be deleted so the baseline stays honest.
pub const PRAGMA_UNUSED: &str = "PRAGMA-UNUSED";

/// The rule catalogue: `(id, what it enforces)`, shown by `--list-rules`.
pub const RULES: &[(&str, &str)] = &[
    (
        DET_HASH,
        "no HashMap/HashSet in deterministic crates (iteration order is \
         unspecified); use BTreeMap/BTreeSet or add an allowlisted pragma",
    ),
    (
        DET_CLOCK,
        "Instant::now/SystemTime only in timing modules (experiments::watchdog, \
         jobserver, runstore, telemetry); simulation time is virtual",
    ),
    (
        DET_RNG,
        "Rng64 seeds/fork salts must be named streams; raw seed arithmetic \
         outside faults/harness SeedPlan breaks the seed-stream contract",
    ),
    (
        DET_FLOATCMP,
        "partial_cmp(..).unwrap()/expect() on sort keys panics on NaN; \
         use f64::total_cmp",
    ),
    (
        SAFE_HDR,
        "crate roots must carry #![forbid(unsafe_code)] or #![deny(unsafe_code)]",
    ),
    (
        SAFE_DOC,
        "every `unsafe` block/impl needs a `// SAFETY:` comment directly above",
    ),
    (
        SPEC_RESOLVE,
        "committed scenarios/*.toml must parse and resolve every registry \
         component",
    ),
];

/// Rule ids a pragma may suppress. `SPEC-RESOLVE` is excluded (scenario
/// files have no pragma syntax) and the pragma meta-rules cannot suppress
/// themselves.
pub const SUPPRESSIBLE: &[&str] = &[
    DET_HASH,
    DET_CLOCK,
    DET_RNG,
    DET_FLOATCMP,
    SAFE_HDR,
    SAFE_DOC,
];

/// Crates whose results feed the bit-identity CI diffs; DET-HASH applies
/// here. The scenario/runstore/compat crates only shuttle already-computed
/// data and may use hash containers where ordering is locally irrelevant.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "airfedga",
    "baselines",
    "experiments",
    "faults",
    "fedml",
    "grouping",
    "parallel",
    "simcore",
    "wireless",
];

/// Path prefixes (workspace-relative, `/`-separated) where DET-CLOCK does
/// not apply: the watchdog monitor measures real elapsed time by design,
/// the runstore layer lives outside simulated time, the telemetry
/// crate's timing plane (spans, progress ETA) is wall-clock by definition —
/// its logical plane never touches a clock, and none of its output feeds
/// the bit-identity diffs — and the job server daemon's poll loops, socket
/// timeouts and watch deadlines are wall-clock plumbing around the
/// deterministic driver, never inputs to it.
pub const CLOCK_ALLOW: &[&str] = &[
    "crates/experiments/src/watchdog.rs",
    "crates/jobserver/",
    "crates/runstore/",
    "crates/telemetry/",
];

/// Path prefixes where DET-RNG does not apply: the fault compiler and the
/// harness `SeedPlan` are the two sanctioned places that derive seeds, and
/// `rng.rs` is the generator implementation itself.
pub const RNG_ALLOW: &[&str] = &[
    "crates/experiments/src/harness.rs",
    "crates/faults/",
    "crates/fedml/src/rng.rs",
];

/// True when `rel` (workspace-relative path) starts with any prefix.
pub fn path_allowed(rel: &str, allow: &[&str]) -> bool {
    allow.iter().any(|p| rel.starts_with(p))
}

/// The crate a workspace-relative path belongs to: `crates/<name>/...`
/// maps to `<name>` (compat crates to `compat/<name>`), everything else
/// (root `src/`, `tests/`, `examples/`) to the root facade crate.
pub fn crate_of(rel: &str) -> &str {
    if let Some(rest) = rel.strip_prefix("crates/") {
        let mut parts = rest.split('/');
        match parts.next() {
            Some("compat") => match parts.next() {
                Some(name) => &rest[.."compat/".len() + name.len()],
                None => "compat",
            },
            Some(name) if !name.is_empty() => name,
            _ => "air-fedga",
        }
    } else {
        "air-fedga"
    }
}

/// True when DET-RNG skips this whole file: integration tests and examples
/// use fixed per-case seed arithmetic by design (the proptest-style seeded
/// harness).
pub fn rng_test_path(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/") || rel.starts_with("examples/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/fedml/src/rng.rs"), "fedml");
        assert_eq!(crate_of("crates/compat/serde/src/lib.rs"), "compat/serde");
        assert_eq!(crate_of("src/lib.rs"), "air-fedga");
        assert_eq!(crate_of("tests/properties.rs"), "air-fedga");
    }

    #[test]
    fn compat_crates_are_not_deterministic_crates() {
        let c = crate_of("crates/compat/serde/src/lib.rs");
        assert!(!DETERMINISTIC_CRATES.contains(&c), "{c}");
    }

    #[test]
    fn rng_test_paths_cover_test_dirs() {
        assert!(rng_test_path("tests/properties.rs"));
        assert!(rng_test_path("tests/reference/mod.rs"));
        assert!(rng_test_path("examples/quickstart.rs"));
        assert!(rng_test_path("crates/parallel/tests/chunks_x1.rs"));
        assert!(!rng_test_path("crates/fedml/src/model.rs"));
    }
}
