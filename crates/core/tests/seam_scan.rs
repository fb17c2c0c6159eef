//! Source-scan guard for the storage seam: every shard read and write
//! in aeon-core must flow through `PlanExecutor` in `executor.rs`, so
//! retry budgets, rng derivation, batching, and attempt accounting
//! stay in one place. This test parses the crate's own sources and
//! fails if any other module calls `Cluster` shard transfer methods or
//! `StorageNode::{get,put}`/`{get,put}_batch` directly. Test modules
//! (everything at and after the first `#[cfg(test)]`) are exempt —
//! they may poke nodes to stage losses and inspect raw shards.
//!
//! A second scan guards against the I/O path growing twins again: no
//! `_batched`/`_timed` functions in `aeon-core` or `aeon-store`,
//! and exactly one call site each for `get_batch` and `put_batch`. A
//! third does the same for maintenance: one body per op, written
//! against a stored unit, and no per-kind twin of it. A fourth guards
//! the loop *around* those bodies: every fleet sweep is `Campaign`. A
//! fifth guards the encode layer: one `match` from policy to its seal
//! and dispersal, no codec object behind it, one Reed–Solomon code, one
//! reader of the stored chunk layout. A sixth guards read-side payload
//! verification: one batched body that every read's decode goes through.
//! A seventh guards the unit record: a dedup block's is a `Manifest`,
//! read with the one read plan and rewritten through the one write-back.
//! An eighth guards the catalog: one ordered map, written only through
//! `&mut`, whose rows the retrieval path borrows instead of cloning. A
//! ninth guards the unit table: dedup blocks have their rows in that
//! same map, not in a block map of their own. A tenth guards reads and
//! deletes: one decode read for every stored unit, one tree walk, and
//! one delete.

use std::fs;
use std::path::{Path, PathBuf};

/// Substrings that mark a direct shard transfer on the cluster or a
/// node handle. `delete`/`keys`/`len` are deliberately absent: fleet
/// loss injection and scans may enumerate and drop shards without
/// going through the executor, because those are not transfers.
const FORBIDDEN: &[&str] = &[
    ".get_shards(",
    ".put_shards(",
    ".get_batch(",
    ".put_batch(",
    ".get(&ShardKey",
    ".put(&ShardKey",
    // The lane-dispatch seam: only the executor's fan-out prices legs
    // on lanes, or virtual elapsed time stops being a function of the
    // plan alone. (The capture frame under it is crate-private to
    // `aeon-store`, so the compiler keeps it out of here.)
    ".dispatch_lanes(",
];

/// The `.rs` files directly under a crate's `src/`, sorted.
fn sources(src: &Path) -> Vec<PathBuf> {
    let mut files: Vec<_> = fs::read_dir(src)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    files
}

/// Strip line comments, then truncate at the first `#[cfg(test)]`:
/// everything after it is test scaffolding, which is allowed to
/// bypass the seam.
fn non_test_source(raw: &str) -> String {
    let mut out = String::new();
    for line in raw.lines() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let code = line.split("//").next().unwrap_or("");
        out.push_str(code);
        out.push('\n');
    }
    out
}

#[test]
fn only_executor_touches_the_storage_seam() {
    let files = sources(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src"));
    assert!(
        files.iter().any(|p| p.ends_with("executor.rs")),
        "seam scan must see executor.rs; crate layout changed?"
    );

    let mut violations = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        if path.ends_with("executor.rs") {
            continue; // the seam itself
        }
        scanned += 1;
        let body = non_test_source(&fs::read_to_string(path).unwrap());
        for (lineno, line) in body.lines().enumerate() {
            for pat in FORBIDDEN {
                if line.contains(pat) {
                    violations.push(format!(
                        "{}:{}: `{}` — route this through PlanExecutor",
                        path.file_name().unwrap().to_string_lossy(),
                        lineno + 1,
                        pat,
                    ));
                }
            }
        }
    }
    assert!(
        scanned >= 5,
        "expected to scan the core modules, saw {scanned}"
    );
    assert!(
        violations.is_empty(),
        "direct shard transfers outside executor.rs:\n{}",
        violations.join("\n")
    );
}

/// Re-accretion guard. The sequential/batched/timed twins were deleted
/// because a single-object operation is a batch of one and timing is
/// read off the clock; a new `fn …_batched` / `…_timed`, or a
/// second place that frames a node request, is the twin coming back.
/// Decorator nodes forwarding a batch to the node they wrap
/// (`self.inner.…`) are not call sites of the path.
#[test]
fn the_io_path_has_no_twins() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut twins = Vec::new();
    let mut call_sites = [(".get_batch(", Vec::new()), (".put_batch(", Vec::new())];
    for krate in ["core", "store"] {
        for path in sources(&crates.join(krate).join("src")) {
            let body = non_test_source(&fs::read_to_string(&path).unwrap());
            for (lineno, line) in body.lines().enumerate() {
                let at = format!(
                    "{krate}/{}:{}",
                    path.file_name().unwrap().to_string_lossy(),
                    lineno + 1
                );
                if let Some(name) = line
                    .split("fn ")
                    .nth(1)
                    .and_then(|rest| rest.split(['(', '<']).next())
                {
                    if name.ends_with("_batched") || name.ends_with("_timed") {
                        twins.push(format!("{at}: fn {name}"));
                    }
                }
                for (pat, sites) in &mut call_sites {
                    if line.contains(*pat) && !line.contains("self.inner.") {
                        sites.push(at.clone());
                    }
                }
            }
        }
    }
    assert!(twins.is_empty(), "twin entry points:\n{}", twins.join("\n"));
    for (pat, sites) in &call_sites {
        assert_eq!(sites.len(), 1, "`{pat}` call sites: {sites:?}");
    }
}

/// Re-accretion guard for maintenance. Repair, refresh and re-wrap are
/// each written once against a stored unit (a classic object or a dedup
/// block, loaded as a manifest); a second call site of an op's planner,
/// or a `_block` / `_dedup` function, is the per-kind twin coming back.
/// Ingest is one flush for both kinds of unit: one caller of the
/// executor's `commit_many` outside the executor (whose one-plan
/// `commit_write` delegates to it), and no per-block commit path.
#[test]
fn each_maintenance_op_has_one_body() {
    const ONE_CALL_SITE: &[&str] = &[
        "plan::plan_repair(",
        "plan::plan_refresh(",
        "plan::plan_rewrap(",
        ".apply_repair(",
    ];
    const TWINS: &[&str] = &[
        "fn repair_block",
        "fn reencode_block",
        "fn fetch_block",
        "fn synthetic_block_manifest",
        "fn repair_dedup",
        "fn reencode_dedup_object",
        "fn refresh_dedup_object",
        "fn ingest_dedup",
        "fn commit_block",
        "fn dedup_rollback",
    ];
    let mut sites: Vec<Vec<String>> = vec![Vec::new(); ONE_CALL_SITE.len()];
    let mut commits = Vec::new();
    let mut twins = Vec::new();
    for path in sources(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src")) {
        let body = non_test_source(&fs::read_to_string(&path).unwrap());
        for (lineno, line) in body.lines().enumerate() {
            let at = format!(
                "{}:{}",
                path.file_name().unwrap().to_string_lossy(),
                lineno + 1
            );
            for (pat, found) in ONE_CALL_SITE.iter().zip(&mut sites) {
                if line.contains(pat) {
                    found.push(at.clone());
                }
            }
            if line.contains(".commit_many(") && !path.ends_with("executor.rs") {
                commits.push(at.clone());
            }
            twins.extend(
                TWINS
                    .iter()
                    .filter(|t| line.contains(*t))
                    .map(|t| format!("{at}: {t}")),
            );
        }
    }
    for (pat, found) in ONE_CALL_SITE.iter().zip(&sites) {
        assert_eq!(found.len(), 1, "`{pat}` call sites: {found:?}");
    }
    assert_eq!(commits.len(), 1, "`.commit_many(` call sites: {commits:?}");
    assert!(twins.is_empty(), "per-kind twins:\n{}", twins.join("\n"));
}

/// Re-accretion guard for fleet sweeps. "For each object: run the op,
/// account, pace" exists once, as `Campaign::step`; a second caller of
/// a per-object op, a second `r/(1−r)`, or one of the deleted loop
/// names is a hand-written sweep coming back.
#[test]
fn each_sweep_has_one_loop() {
    // (call, the file that defines it and may call it on itself)
    const OPS: &[(&str, &str)] = &[
        (".reencode_object(", "maintenance.rs"),
        (".repair_object(", "repair.rs"),
        (".refresh_object(", "maintenance.rs"),
    ];
    const WINDOW_FACTOR: &str = "/ (1.0 - ";
    const GONE: &[&str] = &[
        "_all_measured(",
        "CampaignDriver",
        "BandwidthScheduler",
        "drain_repairs",
    ];
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut op_sites: Vec<Vec<String>> = vec![Vec::new(); OPS.len()];
    let mut factor_sites = Vec::new();
    let mut returned = Vec::new();
    for krate in ["core", "serve"] {
        for path in sources(&crates.join(krate).join("src")) {
            let file = path.file_name().unwrap().to_string_lossy().into_owned();
            let body = non_test_source(&fs::read_to_string(&path).unwrap());
            for (lineno, line) in body.lines().enumerate() {
                let at = format!("{krate}/{file}:{}", lineno + 1);
                for ((call, home), found) in OPS.iter().zip(&mut op_sites) {
                    if line.contains(call) && !(krate == "core" && file == *home) {
                        found.push(at.clone());
                    }
                }
                if line.contains(WINDOW_FACTOR) {
                    factor_sites.push(format!("{krate}/{file}"));
                }
                returned.extend(
                    GONE.iter()
                        .filter(|name| line.contains(*name))
                        .map(|name| format!("{at}: {name}")),
                );
            }
        }
    }
    for ((call, _), found) in OPS.iter().zip(&op_sites) {
        assert_eq!(found.len(), 1, "`{call}` call sites: {found:?}");
        assert!(found[0].starts_with("core/campaign.rs:"), "{found:?}");
    }
    assert_eq!(factor_sites, ["core/campaign.rs"], "`r / (1 − r)` sites");
    assert!(
        returned.is_empty(),
        "hand-written sweeps:\n{}",
        returned.join("\n")
    );
}

/// Re-accretion guard for the encode layer. Which seal a policy puts
/// in front of which dispersal is said once (`PolicyKind::scheme`, an
/// exhaustive `match` — no registry, no wildcard arm, no "cannot happen"
/// `expect`) and the pair is two closed enums, not a codec trait with an
/// impl per family; Reed–Solomon is built once (one `ReedSolomon::new(`
/// in `codec.rs`, none elsewhere); and the stored chunk layout is read
/// once (only `pipeline.rs` looks at `EncodingMeta::chunked` or walks /
/// joins the segment framing).
#[test]
fn the_encode_layer_says_it_once() {
    // Spelled in halves so a repo-wide grep for the deleted names finds
    // nothing, this guard included.
    const GONE: &[&str] = &[
        concat!("Codec", "Registry"),
        concat!("Registry", "Entry"),
        concat!("dyn ", "Codec"),
        concat!("impl ", "Codec for"),
        concat!("trait ", "Codec"),
        concat!("Dyn", "Rng"),
    ];
    const FRAMING: &[&str] = &[
        "split_shard_ranges(",
        "split_shard_segments(",
        "join_shard_segments(",
    ];
    let mut violations = Vec::new();
    let mut rs_sites = Vec::new();
    for path in sources(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src")) {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let body = non_test_source(&fs::read_to_string(&path).unwrap());
        for (lineno, line) in body.lines().enumerate() {
            let at = format!("{file}:{}", lineno + 1);
            for name in GONE.iter().filter(|name| line.contains(*name)) {
                violations.push(format!("{at}: {name}"));
            }
            if line.contains("ReedSolomon::new(") {
                rs_sites.push(at.clone());
            }
            if file == "pipeline.rs" {
                continue;
            }
            // A field *read*: `.chunked` not continuing as a longer
            // identifier. A struct literal's `chunked: None` has no dot.
            let reads_layout = line.match_indices(".chunked").any(|(i, m)| {
                let next = line[i + m.len()..].chars().next();
                !next.is_some_and(|c| c.is_alphanumeric() || c == '_')
            });
            if reads_layout {
                violations.push(format!("{at}: reads `.chunked`"));
            }
            for call in FRAMING.iter().filter(|call| line.contains(*call)) {
                violations.push(format!("{at}: {call}"));
            }
        }
        if file == "policy.rs" {
            let scheme_fn = method_body(&body, "policy.rs", "scheme");
            if !scheme_fn.contains("match *self") {
                violations.push("policy.rs: fn scheme is not a `match *self`".into());
            }
            for banned in ["_ =>", "expect("] {
                if scheme_fn.contains(banned) {
                    violations.push(format!("policy.rs: `{banned}` in fn scheme"));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "the encode layer repeats itself:\n{}",
        violations.join("\n")
    );
    assert!(
        rs_sites.len() <= 1 && rs_sites.iter().all(|at| at.starts_with("codec.rs:")),
        "`ReedSolomon::new(` sites: {rs_sites:?}"
    );
}

/// The body of the method `name` in `source`: from `fn name(` to the
/// first line that closes a four-space-indented item.
fn method_body<'a>(source: &'a str, file: &str, name: &str) -> &'a str {
    let start = source
        .find(&format!("fn {name}("))
        .unwrap_or_else(|| panic!("{file} defines fn {name}"));
    let len = source[start..]
        .find("\n    }\n")
        .unwrap_or_else(|| panic!("{file}: fn {name} ends"));
    &source[start..start + len]
}

/// Re-accretion guard for read-side payload verification. Every read
/// decodes through one tail, `Archive::decode_many`, which checks all of
/// its units' payload digests in one `Sha256::digest_many`: the
/// multi-unit read `read_units` hands it every unit at once instead of
/// hashing or decoding one unit at a time, `retrieve_each` reads every
/// classic object of a call through one `read_units`, and the one-unit
/// tail `decode_verified` is its batch of one.
#[test]
fn payload_verification_has_one_body() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let archive = non_test_source(&fs::read_to_string(src.join("archive.rs")).unwrap());
    let mut violations = Vec::new();
    for (name, via) in [
        ("retrieve_each", ".read_units("),
        ("read_units", ".decode_many("),
    ] {
        let body = method_body(&archive, "archive.rs", name);
        for banned in ["Sha256::digest(", "decode_verified(", "decode_object("] {
            if body.contains(banned) {
                violations.push(format!("archive.rs: fn {name} calls `{banned}`"));
            }
        }
        if !body.contains(via) {
            violations.push(format!("archive.rs: fn {name} does not call `{via}`"));
        }
    }
    let one = method_body(&archive, "archive.rs", "decode_verified");
    if !one.contains(".decode_many(") || one.contains("decode_object(") {
        violations.push("archive.rs: fn decode_verified does not delegate to decode_many".into());
    }
    let tail = method_body(&archive, "archive.rs", "decode_many");
    if !tail.contains("Sha256::digest_many(") || tail.contains("Sha256::digest(") {
        violations.push("archive.rs: fn decode_many does not hash in one batch".into());
    }
    assert!(
        violations.is_empty(),
        "payload verification forked:\n{}",
        violations.join("\n")
    );
}

/// Re-accretion guard for the unit record. A dedup block's record is a
/// `Manifest`, like a classic object's catalog row, so `BlockRecord`
/// declares none of the manifest's encoding fields, `unit.rs` builds no
/// manifest (loading a block clones its record), and the one decode
/// read `read_units` plans with `ReadPlan::for_decode`, not a hand-built
/// plan. Refresh, re-wrap and re-encode end in one write-back: one
/// `.write_shards(` call site outside the executor, and no
/// one-shard-at-a-time `Sha256::digest(` in maintenance.
#[test]
fn each_unit_has_one_record() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let read = |file: &str| non_test_source(&fs::read_to_string(src.join(file)).unwrap());
    let mut violations = Vec::new();
    if read("unit.rs").contains("Manifest {") {
        violations.push("unit.rs: builds a `Manifest {` literal".to_string());
    }
    let dedup = read("dedup.rs");
    let start = dedup
        .find("pub struct BlockRecord {")
        .expect("dedup.rs defines BlockRecord");
    let len = dedup[start..].find("\n}\n").expect("BlockRecord ends");
    for line in dedup[start..start + len].lines() {
        let field = line.trim_start().trim_start_matches("pub ");
        for copied in ["policy:", "meta:", "placement:", "shard_digests:"] {
            if field.starts_with(copied) {
                violations.push(format!("dedup.rs: BlockRecord declares `{copied}`"));
            }
        }
    }
    if method_body(&read("archive.rs"), "archive.rs", "read_units").contains("ReadPlan {") {
        violations.push("archive.rs: fn read_units builds a `ReadPlan {` literal".into());
    }
    let mut writes = Vec::new();
    for path in sources(&src) {
        if path.ends_with("executor.rs") {
            continue;
        }
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let body = non_test_source(&fs::read_to_string(&path).unwrap());
        for (lineno, line) in body.lines().enumerate() {
            if line.contains(".write_shards(") {
                writes.push(format!("{file}:{}", lineno + 1));
            }
        }
    }
    if writes.len() != 1 {
        violations.push(format!("`.write_shards(` call sites: {writes:?}"));
    }
    if read("maintenance.rs").contains("Sha256::digest(") {
        violations.push("maintenance.rs: hashes shards one at a time".into());
    }
    assert!(
        violations.is_empty(),
        "the unit record or its write-back forked:\n{}",
        violations.join("\n")
    );
}

/// Re-accretion guard for the manifest catalog. Every catalog write
/// happens inside a `&mut Archive` method, so the catalog is one
/// `BTreeMap`: no lock, no shard hash (iteration is in id order with no
/// merge or sort), its mutators take `&mut self` (no `&Archive` holder
/// can rewrite a row), and `retrieve_each` borrows the rows it reads
/// rather than cloning them out with `get`.
#[test]
fn the_catalog_is_one_map() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let catalog = non_test_source(&fs::read_to_string(src.join("catalog.rs")).unwrap());
    let archive = non_test_source(&fs::read_to_string(src.join("archive.rs")).unwrap());
    let mut violations = Vec::new();
    for banned in ["RwLock", "Mutex", "shard_of", "stable_hash"] {
        if catalog.contains(banned) {
            violations.push(format!("catalog.rs: `{banned}`"));
        }
    }
    for name in ["insert", "remove", "update"] {
        let start = catalog
            .find(&format!("pub fn {name}"))
            .unwrap_or_else(|| panic!("catalog.rs defines fn {name}"));
        let signature = &catalog[start..start + catalog[start..].find('{').unwrap()];
        if !signature.contains("(&mut self") {
            violations.push(format!("catalog.rs: fn {name} does not take `&mut self`"));
        }
    }
    if method_body(&archive, "archive.rs", "retrieve_each").contains(".manifests.get(") {
        violations
            .push("archive.rs: fn retrieve_each clones rows out with `.manifests.get(`".into());
    }
    assert!(
        violations.is_empty(),
        "the catalog is more than one map:\n{}",
        violations.join("\n")
    );
}

/// Re-accretion guard for the unit table. Every stored unit — a classic
/// or dedup object, a dedup block — has its row in the one catalog map,
/// so the archive declares no map keyed by block hash, dedup and
/// maintenance reach no `self.blocks`, and loading or storing a unit is
/// one lookup that does not branch on the unit's kind.
#[test]
fn the_unit_table_is_one_map() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let read = |file: &str| non_test_source(&fs::read_to_string(src.join(file)).unwrap());
    let mut violations = Vec::new();
    if read("archive.rs").contains("BTreeMap<BlockHash") {
        violations.push("archive.rs: declares a `BTreeMap<BlockHash`".to_string());
    }
    for file in ["dedup.rs", "maintenance.rs"] {
        if read(file).contains("self.blocks") {
            violations.push(format!("{file}: reaches `self.blocks`"));
        }
    }
    let unit = read("unit.rs");
    for name in ["load", "store"] {
        if method_body(&unit, "unit.rs", name).contains("match") {
            violations.push(format!("unit.rs: fn {name} matches on the unit"));
        }
    }
    assert!(
        violations.is_empty(),
        "the unit table is more than one map:\n{}",
        violations.join("\n")
    );
}

/// Re-accretion guard for the read and delete paths. Every decode read
/// of a stored unit — a classic object's or a dedup block's — is
/// `Archive::read_units`, so `aeon-core` has one `.read_many(` call site
/// outside the executor; a dedup object's one read is its tree walk, with
/// no per-level, per-tree or per-object twin beside it; and the one
/// delete is the executor's sticky delete, with no best-effort delete
/// left on the cluster.
#[test]
fn one_read_path() {
    // Spelled in halves so a repo-wide grep for the deleted names finds
    // nothing, this guard included.
    const GONE: &[&str] = &[
        concat!("fn read", "_blocks"),
        concat!("fn walk", "_tree"),
        concat!("fn retrieve", "_dedup"),
    ];
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut reads = Vec::new();
    let mut violations = Vec::new();
    for path in sources(&crates.join("core").join("src")) {
        if path.ends_with("executor.rs") {
            continue;
        }
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let body = non_test_source(&fs::read_to_string(&path).unwrap());
        for (lineno, line) in body.lines().enumerate() {
            if line.contains(".read_many(") {
                reads.push(format!("{file}:{}", lineno + 1));
            }
            if file == "dedup.rs" {
                for name in GONE.iter().filter(|name| line.contains(*name)) {
                    violations.push(format!("{file}:{}: {name}", lineno + 1));
                }
            }
        }
    }
    let cluster = crates.join("store").join("src").join("cluster.rs");
    if non_test_source(&fs::read_to_string(cluster).unwrap())
        .contains(concat!("fn delete", "_shards"))
    {
        violations.push("store/cluster.rs: a best-effort delete".into());
    }
    assert_eq!(reads.len(), 1, "`.read_many(` call sites: {reads:?}");
    assert!(
        violations.is_empty(),
        "a second read or delete path:\n{}",
        violations.join("\n")
    );
}
