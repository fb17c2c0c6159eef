//! Source-scan guard for the storage seam: every shard read and write
//! in aeon-core must flow through `PlanExecutor` in `executor.rs`, so
//! retry budgets, rng derivation, batching, and attempt accounting
//! stay in one place. This test parses the crate's own sources and
//! fails if any other module calls `Cluster` shard transfer methods or
//! `StorageNode::{get,put}`/`{get,put}_batch`/`{get,put}_blobs` directly. Test modules
//! (everything at and after the first `#[cfg(test)]`) are exempt —
//! they may poke nodes to stage losses and inspect raw shards.
//!
//! A second scan guards against the I/O path growing twins again: no
//! `_batched`/`_timed` functions in `aeon-core` or `aeon-store`,
//! exactly one call site each for `get_blobs` and `put_blobs`, and none
//! for `get_batch` and `put_batch` outside a node delegating to itself. A
//! third does the same for maintenance: one body per op, written
//! against a stored unit, and no per-kind twin of it. A fourth guards
//! the loop *around* those bodies: every fleet sweep is `Campaign`. A
//! fifth guards the encode layer: one `match` from policy to its seal
//! and dispersal, no codec object behind it, one Reed–Solomon code, one
//! reader of the stored chunk layout. A sixth guards read-side payload
//! verification: one batched check body behind every read, which a
//! dedup object's read reaches only once its payload root has missed.
//! A seventh guards the unit record: a dedup block's is a `Manifest`,
//! read with the one read plan and rewritten through the one write-back.
//! An eighth guards the catalog: one ordered map, written only through
//! `&mut`, whose rows the retrieval path borrows instead of cloning. A
//! ninth guards the unit table: dedup blocks have their rows in that
//! same map, not in a block map of their own, and no index or block
//! store beside it. A tenth guards reads and
//! deletes: one decode read for every stored unit, one tree walk, from a
//! bare root only, and one delete. An eleventh guards repair's reads:
//! one fetch of the old shards, one fetch under the digest-checked read
//! and the byte-checked re-read, and no hashing in repair. A twelfth
//! guards the scrub read: only `verify`, repair, refresh, re-wrap and
//! transfer check every shard, and a re-encode reads through the one
//! decode read. A thirteenth guards the shard digest: one batched
//! function computes every segment-tree root, and no other code on the
//! shard path runs SHA-256 over shard bytes. A fourteenth guards the
//! write: every put goes through `PlanExecutor::write_units`.

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
    ".get_blobs(",
    ".put_blobs(",
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
/// The executor's fan-out frames every request with the blob forms, so
/// `get_blobs` / `put_blobs` have exactly one call site each and the
/// borrowed batch forms none. A node delegating a frame — a decorator
/// to the node it wraps (`self.inner.…`), a provided blob form to its
/// own batch form (`self.…`) — is not a call site of the path.
#[test]
fn the_io_path_has_no_twins() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut twins = Vec::new();
    let mut call_sites = [
        (".get_blobs(", 1, Vec::new()),
        (".put_blobs(", 1, Vec::new()),
        (".get_batch(", 0, Vec::new()),
        (".put_batch(", 0, Vec::new()),
    ];
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
                for (pat, _, sites) in &mut call_sites {
                    let delegates = [format!("self{pat}"), format!("self.inner{pat}")];
                    if line.contains(*pat) && !delegates.iter().any(|d| line.contains(d)) {
                        sites.push(at.clone());
                    }
                }
            }
        }
    }
    assert!(twins.is_empty(), "twin entry points:\n{}", twins.join("\n"));
    for (pat, expected, sites) in &call_sites {
        assert_eq!(sites.len(), *expected, "`{pat}` call sites: {sites:?}");
    }
}

/// Re-accretion guard for maintenance. Repair, refresh and re-wrap are
/// each written once against a stored unit (a classic object or a dedup
/// block, loaded as a manifest); a second call site outside the executor
/// of an op's planner, or a `_block` / `_dedup` function, is the per-kind
/// twin coming back.
/// Ingest is one flush for both kinds of unit, and every write is the
/// executor's one `write_units`: outside the executor it is called from
/// the ingest flush, the write-back and repair only, and the per-mode
/// write bodies it replaced stay deleted. The archive hands its shards
/// over by value, so the executor's borrowed entry points (`commit_many`,
/// its one-plan `commit_write`, `write_shards`, `apply_repair`) have no
/// caller in the crate: each copies once into blobs for callers that
/// keep their plans.
#[test]
fn each_maintenance_op_has_one_body() {
    const ONE_CALL_SITE: &[&str] = &[
        "plan::plan_repair(",
        "plan::plan_refresh(",
        "plan::plan_rewrap(",
    ];
    const BORROWED: &[&str] = &[
        ".commit_many(",
        ".commit_write(",
        ".write_shards(",
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
        "fn commit_blobs",
        "fn write_blobs",
        "fn repair_blobs",
        "fn write_many",
    ];
    let mut sites: Vec<Vec<String>> = vec![Vec::new(); ONE_CALL_SITE.len()];
    let mut borrowed = Vec::new();
    let mut twins = Vec::new();
    for path in sources(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src")) {
        let body = non_test_source(&fs::read_to_string(&path).unwrap());
        for (lineno, line) in body.lines().enumerate() {
            let at = format!(
                "{}:{}",
                path.file_name().unwrap().to_string_lossy(),
                lineno + 1
            );
            if !path.ends_with("executor.rs") {
                for (pat, found) in ONE_CALL_SITE.iter().zip(&mut sites) {
                    if line.contains(pat) {
                        found.push(at.clone());
                    }
                }
                borrowed.extend(
                    BORROWED
                        .iter()
                        .filter(|call| line.contains(*call))
                        .map(|call| format!("{at}: {call}")),
                );
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
    let writes: Vec<(String, String)> = callers(".write_units(")
        .into_iter()
        .filter(|(file, _)| file != "executor.rs")
        .collect();
    let expected = [
        ("archive.rs", "write_flush"),
        ("maintenance.rs", "write_back"),
        ("repair.rs", "repair_unit"),
    ]
    .map(|(file, name)| (file.to_string(), name.to_string()));
    assert_eq!(
        writes, expected,
        "`.write_units(` callers outside the executor"
    );
    assert!(
        borrowed.is_empty(),
        "borrowed writes in the crate:\n{}",
        borrowed.join("\n")
    );
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

/// The body of the method `name` in `source`: from `fn name(` (or
/// `fn name<`, generic) to the first line that closes a
/// four-space-indented item.
fn method_body<'a>(source: &'a str, file: &str, name: &str) -> &'a str {
    let start = [format!("fn {name}("), format!("fn {name}<")]
        .iter()
        .find_map(|head| source.find(head.as_str()))
        .unwrap_or_else(|| panic!("{file} defines fn {name}"));
    let len = source[start..]
        .find("\n    }\n")
        .unwrap_or_else(|| panic!("{file}: fn {name} ends"));
    &source[start..start + len]
}

/// Re-accretion guard for read-side payload verification. Every read's
/// digests are checked in one body, `Archive::check_digests`, one batch
/// per kind (objects' tree roots through `plan::tree_digests`, blocks'
/// addresses through `BlockHash::of_many`), and nowhere else on the read
/// side: the decode read `read_units` is its fetch `fetch_units`, which
/// decodes and checks nothing, then `check_units`, which hands the body
/// every unit at once and decodes a failed one again through
/// `decode_many`; `decode_many` is each unit's decode, then the body;
/// `retrieve_each` reads every classic object of a call through one
/// `read_units`, and the one-unit tail `decode_verified` is a
/// `decode_many` of one that no multi-unit read calls unit by unit.
#[test]
fn payload_verification_has_one_body() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let archive = non_test_source(&fs::read_to_string(src.join("archive.rs")).unwrap());
    let mut violations = Vec::new();
    for (name, vias) in [
        ("retrieve_each", &[".read_units("][..]),
        ("read_units", &[".fetch_units(", ".check_units("]),
        ("check_units", &["Self::check_digests(", ".decode_many("]),
        ("decode_many", &["Self::check_digests("]),
        ("decode_verified", &[".decode_many("]),
    ] {
        let body = method_body(&archive, "archive.rs", name);
        for banned in [
            "Sha256::digest",
            "decode_verified(",
            "decode_object(",
            "of_many(",
            "tree_digests(",
        ] {
            // `decode_verified`'s own body opens with its name.
            let own = name == "decode_verified" && banned == "decode_verified(";
            if !own && body.contains(banned) {
                violations.push(format!("archive.rs: fn {name} calls `{banned}`"));
            }
        }
        for via in vias {
            if !body.contains(via) {
                violations.push(format!("archive.rs: fn {name} does not call `{via}`"));
            }
        }
    }
    let fetch = method_body(&archive, "archive.rs", "fetch_units");
    for banned in [
        "check_digests(",
        ".decode_many(",
        ".check_units(",
        "verify_where(",
    ] {
        if fetch.contains(banned) {
            violations.push(format!("archive.rs: fn fetch_units calls `{banned}`"));
        }
    }
    let body = method_body(&archive, "archive.rs", "check_digests");
    if !body.contains("plan::tree_digests(&objects)")
        || !body.contains("BlockHash::of_many(&blocks)")
        || body.contains("Sha256::digest")
    {
        violations.push("archive.rs: fn check_digests does not hash each kind in one batch".into());
    }
    let checks = callers("check_digests(");
    let expect = ["check_units", "decode_many"].map(|f| ("archive.rs".to_string(), f.to_string()));
    if checks != expect {
        violations.push(format!("`check_digests(` call sites: {checks:?}"));
    }
    assert!(
        violations.is_empty(),
        "payload verification forked:\n{}",
        violations.join("\n")
    );
}

/// Re-accretion guard for the dedup object read. With the object's
/// digest, `read_leaves` fetches the distinct blocks (`fetch_units`),
/// decodes them unhashed into the payload (`decode_leaves`, which
/// hashes and checks nothing) and lets the payload's segment-tree root
/// decide; only when that root misses does the fetch reach the check
/// body, through `check_units`, and the payload is joined and checked
/// once more. So `read_leaves` hashes the joined payload at one call
/// site (`root_holds`, called before and after the check), computes no
/// block address itself, never reads through the always-checking
/// `read_units`, and calls `check_units` only on the path past the
/// healthy `return`.
#[test]
fn a_dedup_read_checks_its_blocks_only_after_its_root_misses() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let dedup = non_test_source(&fs::read_to_string(src.join("dedup.rs")).unwrap());
    let body = method_body(&dedup, "dedup.rs", "read_leaves");
    let decode = method_body(&dedup, "dedup.rs", "decode_leaves");
    let mut violations = Vec::new();
    let hashing = ["of_many(", "Sha256::", "BlockHash::of(", "check_digests("];
    for banned in hashing.iter().chain(&[".read_units(", ".decode_many("]) {
        if body.contains(banned) {
            violations.push(format!("dedup.rs: fn read_leaves calls `{banned}`"));
        }
    }
    let checks = [
        "tree_digests(",
        ".check_units(",
        "verify_where(",
        ".fetch_units(",
    ];
    for banned in hashing.iter().chain(&checks) {
        if decode.contains(banned) {
            violations.push(format!("dedup.rs: fn decode_leaves calls `{banned}`"));
        }
    }
    if body.matches("tree_digests(").count() != 1 {
        violations.push("dedup.rs: fn read_leaves hashes the payload at more than one site".into());
    }
    let order = [
        ".fetch_units(",
        ".decode_leaves(",
        "root_holds(&payload)",
        "return Ok(",
        ".check_units(",
    ];
    let at: Vec<Option<usize>> = order.iter().map(|pat| body.find(pat)).collect();
    if at.iter().any(Option::is_none) || !at.windows(2).all(|w| w[0] < w[1]) {
        violations.push(format!(
            "dedup.rs: fn read_leaves does not fetch, decode, try the root, return, then \
             check: {order:?} at {at:?}"
        ));
    }
    if body.matches(".check_units(").count() != 1
        || body.matches("root_holds(&payload)").count() != 2
    {
        violations
            .push("dedup.rs: fn read_leaves checks its blocks or its root more than once".into());
    }
    assert!(
        violations.is_empty(),
        "the dedup read hashes twice:\n{}",
        violations.join("\n")
    );
}

/// Re-accretion guard for the unit record. A dedup block's record is a
/// `Manifest`, like a classic object's catalog row, so `BlockRecord`
/// declares none of the manifest's encoding fields, `unit.rs` builds no
/// manifest (loading a block clones its record), and the one decode
/// read `read_units` plans in its fetch `fetch_units` with
/// `ReadPlan::for_decode`, not a hand-built plan. Refresh, re-wrap and
/// re-encode end in one write-back: one `.write_units(` call site in
/// maintenance, in `write_back`, and no one-shard-at-a-time
/// `Sha256::digest(` in maintenance.
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
    let archive = read("archive.rs");
    for name in ["read_units", "fetch_units"] {
        if method_body(&archive, "archive.rs", name).contains("ReadPlan {") {
            violations.push(format!(
                "archive.rs: fn {name} builds a `ReadPlan {{` literal"
            ));
        }
    }
    if !method_body(&archive, "archive.rs", "fetch_units").contains("ReadPlan::for_decode(") {
        violations
            .push("archive.rs: fn fetch_units does not plan with `ReadPlan::for_decode(`".into());
    }
    let writes: Vec<(String, String)> = callers(".write_units(")
        .into_iter()
        .filter(|(file, _)| file == "maintenance.rs")
        .collect();
    if writes != [("maintenance.rs".to_string(), "write_back".to_string())] {
        violations.push(format!(
            "`.write_units(` call sites in maintenance: {writes:?}"
        ));
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
/// one lookup that does not branch on the unit's kind. The table is also
/// the only dedup state: no `Archive` field names a block hash, the
/// recency index and the second block store stay deleted, and `aeon-cas`
/// holds no collection and no refcount — it is format code only.
#[test]
fn the_unit_table_is_one_map() {
    // Spelled in halves so a repo-wide grep for the deleted names finds
    // nothing, this guard included.
    const GONE: &[&str] = &[
        concat!("Bounded", "Index"),
        concat!("Memory", "BlockStore"),
        concat!("dedup", "_index"),
    ];
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let src = crates.join("core").join("src");
    let read = |file: &str| non_test_source(&fs::read_to_string(src.join(file)).unwrap());
    let mut violations = Vec::new();
    let archive = read("archive.rs");
    if archive.contains("BTreeMap<BlockHash") {
        violations.push("archive.rs: declares a `BTreeMap<BlockHash`".to_string());
    }
    let fields = archive
        .split_once("pub struct Archive {")
        .and_then(|(_, rest)| rest.split_once("\n}"))
        .expect("archive.rs declares `struct Archive`")
        .0;
    if fields.contains("BlockHash") {
        violations.push("archive.rs: an `Archive` field keyed by block hash".to_string());
    }
    let cas = crates.join("cas").join("src");
    for path in sources(&src).into_iter().chain(sources(&cas)) {
        let file = path.strip_prefix(&crates).unwrap().display().to_string();
        let body = non_test_source(&fs::read_to_string(&path).unwrap());
        for name in GONE.iter().filter(|name| body.contains(*name)) {
            violations.push(format!("{file}: {name}"));
        }
        if path.starts_with(&cas) {
            for state in ["Map<", "Set<", "refcount"] {
                if body.contains(state) {
                    violations.push(format!("{file}: `{state}` in aeon-cas"));
                }
            }
        }
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
/// outside the executor; a dedup read with a row goes to its leaves, and
/// only `read_object_by_root` walks the tree from a bare root, with no
/// per-level, per-tree or per-object twin beside it; and the one delete
/// is the executor's sticky delete, with no best-effort delete left on
/// the cluster.
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
    let mut walks = Vec::new();
    let mut violations = Vec::new();
    for path in sources(&crates.join("core").join("src")) {
        if path.ends_with("executor.rs") {
            continue;
        }
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let body = non_test_source(&fs::read_to_string(&path).unwrap());
        if file == "dedup.rs" {
            let by_root = method_body(&body, &file, "read_object_by_root");
            if !by_root.contains(".walk(") {
                violations.push("dedup.rs: read_object_by_root does not walk the tree".into());
            }
        }
        for (lineno, line) in body.lines().enumerate() {
            if line.contains(".read_many(") {
                reads.push(format!("{file}:{}", lineno + 1));
            }
            if line.contains(".walk(") {
                walks.push(format!("{file}:{}", lineno + 1));
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
    assert_eq!(walks.len(), 1, "`.walk(` call sites: {walks:?}");
    assert!(
        violations.is_empty(),
        "a second read or delete path:\n{}",
        violations.join("\n")
    );
}

/// Re-accretion guard for repair's re-read. The executor's digest-checked
/// read and its byte-checked re-read share one fetch, so `executor.rs`
/// has one `transfer::<Get` call site; repair reads a unit's old shards
/// through one `.fetch_shards(` call — its full re-encode fallback
/// decodes from that fetch, with no re-encode of its own that fetches
/// again — re-reads what it holds through one `.reread(` call and names
/// no `Sha256::`, because every byte it re-reads is one it already
/// checked.
#[test]
fn repair_rereads_what_it_holds() {
    // Spelled in halves so a repo-wide grep for the deleted name finds
    // nothing, this guard included.
    const GONE: &[&str] = &[concat!("fn reencode", "_unit")];
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let read = |file: &str| non_test_source(&fs::read_to_string(src.join(file)).unwrap());
    let executor = read("executor.rs");
    let repair = read("repair.rs");
    for path in sources(&src) {
        let body = non_test_source(&fs::read_to_string(&path).unwrap());
        assert!(
            GONE.iter().all(|name| !body.contains(name)),
            "{}: a deleted re-encode twin is back",
            path.display()
        );
    }
    assert_eq!(
        repair.matches(".fetch_shards(").count(),
        1,
        "repair.rs: one fetch of the old shards"
    );
    assert_eq!(
        executor.matches("transfer::<Get").count(),
        1,
        "executor.rs: one fetch behind every read"
    );
    assert_eq!(
        repair.matches(".reread(").count(),
        1,
        "repair.rs: one byte-checked re-read"
    );
    assert!(
        !repair.contains("Sha256::"),
        "repair.rs hashes what it already holds"
    );
}

/// Every `(file, fn)` in `aeon-core`'s non-test sources with a line
/// that contains `pat`, in file order; a call's enclosing function is
/// the last `fn name(` above it.
fn callers(pat: &str) -> Vec<(String, String)> {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut sites = Vec::new();
    for path in sources(&src) {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let mut within = String::new();
        for line in non_test_source(&fs::read_to_string(&path).unwrap()).lines() {
            if let Some((_, rest)) = line.split_once("fn ") {
                if let Some((name, _)) = rest.split_once('(') {
                    within = name.split('<').next().unwrap_or(name).to_string();
                }
            }
            if line.contains(pat) {
                sites.push((file.clone(), within.clone()));
            }
        }
    }
    sites
}

/// Re-accretion guard for the scrub read. A full scrub — every shard
/// fetched and checked against its digest (`fetch_shards`, built on
/// `ReadPlan::for_manifest`) — is for the operations that judge or keep
/// individual shards: `verify`, repair, refresh, re-wrap and transfer.
/// A re-encode deletes every old shard once the new ones are written, so
/// per-shard hashes decide nothing its payload digest does not: its
/// read is the one decode read, `reencode_read` calling `read_units`.
#[test]
fn only_the_scrubs_check_every_shard() {
    let owned = |sites: &[(&str, &str)]| -> Vec<(String, String)> {
        sites
            .iter()
            .map(|&(file, name)| (file.to_string(), name.to_string()))
            .collect()
    };
    assert_eq!(
        callers(".fetch_shards("),
        owned(&[
            ("archive.rs", "verify"),
            ("maintenance.rs", "refresh_unit"),
            ("maintenance.rs", "rewrap_unit"),
            ("repair.rs", "repair_unit"),
            ("transfer.rs", "shipment"),
        ]),
        "callers of the scrub fetch"
    );
    assert_eq!(
        callers("::for_manifest("),
        owned(&[
            ("archive.rs", "fetch_shards"),
            ("plan.rs", "for_decode"),
            ("repair.rs", "repair_unit"),
        ]),
        "callers of the full-scrub plan"
    );
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let maintenance = non_test_source(&fs::read_to_string(src.join("maintenance.rs")).unwrap());
    let read = method_body(&maintenance, "maintenance.rs", "reencode_read");
    assert!(
        read.contains(".read_units("),
        "maintenance.rs: fn reencode_read does not read through read_units"
    );
    for banned in ["fetch_shards(", "for_manifest(", "decode_verified("] {
        assert!(
            !read.contains(banned),
            "maintenance.rs: fn reencode_read calls `{banned}`"
        );
    }
}

/// Re-accretion guard for every digest the archive records or checks.
/// A shard digest and an object's payload digest are both the root of a
/// Merkle tree over fixed segments, computed in one batched function,
/// `plan::tree_digests`, which every site that records or checks one
/// calls: the one write (for the ingest flush, the write-back and
/// repair), `plan_write` and the scrub's digest filter for shards; the
/// ingest flush, the read-side check body `check_digests` and the dedup
/// leaf read for payloads. Only `verify`, which spells a dedup payload
/// from its leaves without holding it, folds the same root through
/// `SegmentHasher`. In the six files on the digest path, SHA-256 runs
/// directly only over what is neither: a dedup block's content address
/// (batched, through `BlockHash::of_many`, when a block is planned, and
/// in `check_digests` when a block is read on its own or its object's
/// root missed) and an object name seeding a delete's jitter. A flat `digest` or `digest_many` of a
/// payload or a shard anywhere else would record or accept a digest no
/// other site agrees with.
#[test]
fn one_tree_digest() {
    let owned = |sites: &[(&str, &str)]| -> Vec<(String, String)> {
        sites
            .iter()
            .map(|&(file, name)| (file.to_string(), name.to_string()))
            .collect()
    };
    const DIGEST_PATH: [&str; 6] = [
        "archive.rs",
        "dedup.rs",
        "executor.rs",
        "maintenance.rs",
        "plan.rs",
        "repair.rs",
    ];
    let on_path = |pat: &str| -> Vec<(String, String)> {
        callers(pat)
            .into_iter()
            .filter(|(file, _)| DIGEST_PATH.contains(&file.as_str()))
            .collect()
    };
    assert_eq!(
        callers("tree_digests("),
        owned(&[
            ("archive.rs", "write_flush"),
            ("archive.rs", "check_digests"),
            ("dedup.rs", "read_leaves"),
            ("executor.rs", "write_units"),
            ("executor.rs", "verify_where"),
            ("executor.rs", "digest_filter"),
            ("plan.rs", "plan_write"),
        ]),
        "the tree digest's callers"
    );
    assert_eq!(
        callers("SegmentHasher::new("),
        owned(&[("archive.rs", "verify")]),
        "the streaming tree digest's callers"
    );
    assert_eq!(
        on_path("digest_many"),
        owned(&[("plan.rs", "tree_digests")]),
        "batched SHA-256 on the digest path"
    );
    assert_eq!(
        on_path("of_many("),
        owned(&[("archive.rs", "check_digests"), ("dedup.rs", "plan_blocks")]),
        "batched block addresses on the digest path"
    );
    assert_eq!(
        on_path("Sha256::digest("),
        owned(&[("executor.rs", "delete")]),
        "one-shot SHA-256 on the digest path"
    );
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let read = |file: &str| non_test_source(&fs::read_to_string(src.join(file)).unwrap());
    let flush = method_body(&read("archive.rs"), "archive.rs", "write_flush").to_string();
    assert!(
        flush.contains("plan::tree_digests(&payloads)"),
        "archive.rs: fn write_flush does not record its payloads' tree roots"
    );
    let plan = read("plan.rs");
    let start = plan
        .find("fn tree_digests<")
        .expect("plan.rs defines fn tree_digests");
    let one = &plan[start..start + plan[start..].find("\n}\n").expect("fn tree_digests ends")];
    assert!(
        one.contains("Sha256::digest_many_tagged(0x00,") && one.contains("merkle::fold_root("),
        "plan.rs: fn tree_digests is not one tagged leaf batch folded into roots"
    );
}

/// Re-accretion guard for the write path. Every shard put on a node is
/// put by `PlanExecutor::write_units`: the put direction of the fan-out
/// (`transfer::<Put`, `first_attempts::<Put`, `settle::<Put`) is
/// instantiated in that one function, whatever a unit's write mode.
#[test]
fn one_write_path() {
    let puts = callers("::<Put");
    let in_write = |(file, name): &(String, String)| file == "executor.rs" && name == "write_units";
    assert!(
        !puts.is_empty() && puts.iter().all(in_write),
        "the put fan-out outside `write_units`: {puts:?}"
    );
    let first = callers("first_attempts::<Put");
    assert_eq!(first.len(), 1, "`first_attempts::<Put` sites: {first:?}");
}
