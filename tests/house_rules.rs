//! House rules rustc and clippy cannot state: every member opts into the
//! workspace lints, every RNG seed or fork salt is a named stream, every
//! durable write goes through one function, and a run clones its models in
//! two places.

use std::{collections::BTreeSet, fs, path::Path};

#[test]
fn every_member_inherits_the_workspace_lints() {
    let root_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |dir: &str| fs::read_to_string(root_dir.join(dir).join("Cargo.toml")).unwrap();
    let root = read(".");
    assert!(root.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\"\n"));
    let (_, members) = root.split_once("\nmembers = [").unwrap();
    let members: Vec<_> = members[..members.find(']').unwrap()].split('"').collect();
    assert!(members.len() > 30, "{members:?}");
    for member in members.into_iter().skip(1).step_by(2).chain(["."]) {
        let inherits = read(member).contains("\n[lints]\nworkspace = true\n");
        assert!(inherits, "{member}");
    }
}

/// Every source file below a `src/` directory of `crates/`, as its path
/// relative to `crates/` and its text.
fn library_sources() -> Vec<(String, String)> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let (mut paths, mut files) = (vec![crates.clone()], Vec::new());
    while let Some(path) = paths.pop() {
        let rel = path.strip_prefix(&crates).unwrap().to_string_lossy();
        if path.is_dir() {
            paths.extend(fs::read_dir(&path).unwrap().map(|e| e.unwrap().path()));
        } else if rel.contains("/src/") {
            files.push((rel.into_owned(), fs::read_to_string(&path).unwrap()));
        }
    }
    files
}

/// A source file up to its test module.
fn before_tests(src: &str) -> &str {
    &src[..src.find("#[cfg(test)]\nmod ").unwrap_or(src.len())]
}

/// Lines (1-based) where a `seed_from(..)` or `.fork(..)` argument does
/// arithmetic. Test modules are skipped: per-case seeds are the test idiom.
fn raw_seed_lines(src: &str) -> BTreeSet<usize> {
    let arithmetic = ["+", "-", "*", "/", "%", "^", "wrapping_", "rotate_"];
    let src = before_tests(src);
    let (forks, mut lines) = (src.match_indices(".fork("), BTreeSet::new());
    for (at, call) in src.match_indices("seed_from(").chain(forks) {
        let (rest, mut depth) = (&src[at + call.len()..], 0);
        let end = rest.find(|c| {
            depth += (c == '(') as i32 - (c == ')') as i32;
            depth < 0
        });
        let arg = &rest[..end.unwrap_or(0)];
        if arithmetic.iter().any(|op| arg.contains(op)) {
            lines.insert(src[..at].split('\n').count());
        }
    }
    lines
}

#[test]
fn seeds_and_fork_salts_are_named_streams() {
    assert_eq!(raw_seed_lines(RAW_SEED_FIXTURE), BTreeSet::from([11, 12]));
    // Where seeds are derived by design: faults, the `SeedPlan`, the generator.
    let exempt = ["experiments/src/harness.rs", "faults/", "fedml/src/rng.rs"];
    let mut sites = 0;
    for (rel, src) in library_sources() {
        if !exempt.iter().any(|e| rel.starts_with(e)) {
            sites += src.matches("seed_from(").count() + src.matches(".fork(").count();
            assert_eq!(raw_seed_lines(&src), BTreeSet::new(), "in {rel}");
        }
    }
    assert!(sites > 0, "the scan saw no seed at all");
}

/// Only `telemetry::write_atomic` creates, renames and fsyncs a file, and no
/// library code writes one with a bare `fs::write`; the one other fsync is the
/// lock file of `runstore::StoreLock::acquire`.
#[test]
fn durable_writes_go_through_telemetry_write_atomic() {
    let mut sites = Vec::new();
    for (rel, src) in library_sources() {
        for call in ["rename(", "sync_all(", "fs::write(", "File::create("] {
            let found = before_tests(&src).matches(call);
            sites.extend(found.map(|_| (rel.clone(), call)));
        }
    }
    sites.sort();
    let want = [
        ("runstore/src/lib.rs", "sync_all("),
        ("telemetry/src/lib.rs", "File::create("),
        ("telemetry/src/lib.rs", "rename("),
        ("telemetry/src/lib.rs", "sync_all("),
    ];
    assert_eq!(sites, want.map(|(file, call)| (file.to_string(), call)));
}

/// A run holds one model per pool row, one global model and a snapshot per
/// model version the global has moved past while a group still trains from
/// it, so in the library sources of `airfedga` and `baselines` a model-sized
/// parameter vector is created in three places only: from the system's
/// initial model (`fresh_model()`, whose body is the one `template.clone()`)
/// in `Server::new` and in the pool's row growth, and as a copy of the global
/// (`clone_from(`) in `DispatchVersions::before_global_moves`. A per-lane,
/// per-group, per-round or per-evaluation copy — a `FlatParams::zeros(`, a
/// `global().clone()` — would be a fourth site.
#[test]
fn models_are_cloned_only_for_the_global_model_and_pool_rows() {
    let calls = [
        "fresh_model()",
        "template.clone()",
        "clone_from(",
        "FlatParams::zeros(",
        "FlatParams(",
        "global().clone()",
        "global.clone()",
        "params().clone()",
    ];
    let mut sites = Vec::new();
    for (rel, src) in library_sources() {
        if !(rel.starts_with("airfedga/") || rel.starts_with("baselines/")) {
            continue;
        }
        let mut within = String::new();
        for line in before_tests(&src).lines() {
            let code = line.trim_start();
            let code = code.strip_prefix("pub(crate) ").unwrap_or(code);
            let code = code.strip_prefix("pub ").unwrap_or(code);
            if let Some(head) = code.strip_prefix("fn ") {
                within = head[..head.find(['(', '<']).unwrap_or(head.len())].to_string();
            }
            for call in calls {
                if !code.starts_with("//") && code.contains(call) {
                    sites.push((rel.clone(), within.clone(), call));
                }
            }
        }
    }
    sites.sort();
    let want = [
        (
            "airfedga/src/mechanism.rs",
            "before_global_moves",
            "clone_from(",
        ),
        ("airfedga/src/server.rs", "new", "fresh_model()"),
        ("airfedga/src/system.rs", "fresh_model", "template.clone()"),
        ("airfedga/src/worker_pool.rs", "grow_rows", "fresh_model()"),
    ];
    let want = want.map(|(file, within, call)| (file.to_string(), within.to_string(), call));
    assert_eq!(sites, want);
}

/// Every trait declared in library source, the serde stand-ins of
/// `crates/compat/` aside, has at least two `impl … for` sites in library
/// code: a trait with one implementor is indirection its type can absorb.
#[test]
fn library_traits_have_more_than_one_implementor() {
    let sources: Vec<(String, String)> = library_sources()
        .into_iter()
        .filter(|(rel, _)| !rel.starts_with("compat/"))
        .collect();
    let ident = |word: &str| -> String {
        let end = word.find(|c: char| !(c.is_alphanumeric() || c == '_'));
        word[..end.unwrap_or(word.len())].to_string()
    };
    let mut traits = Vec::new();
    for (rel, src) in &sources {
        for line in before_tests(src).lines() {
            let words: Vec<&str> = line.split_whitespace().collect();
            if let Some(at) = words.iter().position(|w| *w == "trait") {
                let modifiers = &words[..at];
                if modifiers
                    .iter()
                    .all(|w| w.starts_with("pub") || *w == "unsafe")
                {
                    traits.push((ident(words[at + 1]), rel.clone()));
                }
            }
        }
    }
    assert!(traits.iter().any(|(name, _)| name == "ReplicateCache"));
    for (name, rel) in traits {
        let implemented = |line: &str| {
            let line = line.trim_start().trim_start_matches("unsafe ");
            let Some((head, _)) = line
                .strip_prefix("impl")
                .and_then(|l| l.split_once(" for "))
            else {
                return false;
            };
            let path = head.split_whitespace().last().unwrap_or("");
            ident(path.rsplit("::").next().unwrap_or("")) == name
        };
        let sites = sources
            .iter()
            .flat_map(|(_, src)| before_tests(src).lines())
            .filter(|line| implemented(line))
            .count();
        assert!(
            sites >= 2,
            "trait `{name}` of {rel} has {sites} implementor(s)"
        );
    }
}

const RAW_SEED_FIXTURE: &str = "// A library file: raw seed arithmetic in Rng64
// construction or fork salts (lines 11 and 12) is a finding, but named salt
// constants pass and #[cfg(test)] modules are exempt (fixed per-case seed
// arithmetic is the house test idiom).

use fedml::rng::Rng64;

const SALT_GROUPING: u64 = 0x9E37_79B9;

fn streams(base: u64) -> Rng64 {
    let mut rng = Rng64::seed_from(base + 1);
    let _sub = rng.fork(base ^ 3);
    Rng64::seed_from(SALT_GROUPING)
}
#[cfg(test)]
mod tests { fn per_case() -> Rng64 { Rng64::seed_from(1000 + 7) } }";
