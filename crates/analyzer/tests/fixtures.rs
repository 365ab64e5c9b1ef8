//! Fixture self-tests: every rule demonstrably fires on a known-bad
//! snippet and stays quiet on the fixed (or properly annotated) twin.
//! Two pins keep the analyzer honest against the real tree: the
//! workspace itself must be clean, and mutating a real wrapper must
//! re-light A1 — so the rules can never silently stop matching.

use mobiceal_analyzer::rules::forwarding;
use mobiceal_analyzer::{analyze_memory, Level, Workspace};
use std::path::Path;

fn denies<'a>(
    findings: &'a [mobiceal_analyzer::Finding],
    rule: &'a str,
) -> Vec<&'a mobiceal_analyzer::Finding> {
    findings.iter().filter(|f| f.rule == rule && f.level == Level::Deny).collect()
}

fn warns<'a>(
    findings: &'a [mobiceal_analyzer::Finding],
    rule: &'a str,
) -> Vec<&'a mobiceal_analyzer::Finding> {
    findings.iter().filter(|f| f.rule == rule && f.level == Level::Warn).collect()
}

// ---------------------------------------------------------------- A1

/// A wrapper implementing every method the trait requires, whose
/// `read_blocks` goes through `read_blocks_owned`; `{read_to}` is spliced
/// in where `read_blocks_to` goes.
const A1_WRAPPER: &str = r#"
impl BlockDevice for Passthrough {
    fn num_blocks(&self) -> u64 { self.inner.num_blocks() }
    fn block_size(&self) -> usize { self.inner.block_size() }
    fn read_blocks(&self, ix: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        read_blocks_owned(self, ix)
    }
    {read_to}
    fn write_blocks(&self, w: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        self.inner.write_blocks(w)
    }
    fn flush(&self) -> Result<(), BlockDeviceError> { self.inner.flush() }
    fn host_queue_enter(&self) { self.inner.host_queue_enter() }
    fn host_queue_leave(&self) { self.inner.host_queue_leave() }
}
"#;

/// [`A1_WRAPPER`] without `read_blocks_to`: its `read_blocks` and the
/// trait default would call each other forever.
fn a1_bad() -> String {
    A1_WRAPPER.replace("{read_to}", "")
}

#[test]
fn a1_fires_on_a_wrapper_that_forgets_the_caller_owned_read() {
    let findings = analyze_memory(&[("mobiceal-dm", "crates/dm/src/wrap.rs", &a1_bad())]);
    let hits = denies(&findings, "A1/default_forwarding");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(hits[0].message.contains(forwarding::REQUIRED), "{}", hits[0].message);
}

#[test]
fn a1_passes_once_the_caller_owned_read_is_implemented() {
    for read_to in [
        // Native: straight through to the layer below.
        "fn read_blocks_to(&self, ix: &[BlockIndex], dest: ReadDest<'_>) \
         -> Result<(), BlockDeviceError> { self.inner.read_blocks_to(ix, dest) }",
        // A wrapper that reads through a batch of its own says so.
        "fn read_blocks_to(&self, ix: &[BlockIndex], dest: ReadDest<'_>) \
         -> Result<(), BlockDeviceError> { read_blocks_via_batch(self, ix, dest) }",
    ] {
        let fixed = A1_WRAPPER.replace("{read_to}", read_to);
        let findings = analyze_memory(&[("mobiceal-dm", "crates/dm/src/wrap.rs", &fixed)]);
        assert!(denies(&findings, "A1/default_forwarding").is_empty(), "{findings:?}");
    }
}

#[test]
fn a1_annotation_with_reason_is_an_escape() {
    let bad = a1_bad();
    let annotated = format!(
        "// analyzer: allow(default_forwarding, reason = \"reads through its own batch\")\n{}",
        bad.trim_start()
    );
    let findings = analyze_memory(&[("mobiceal-dm", "crates/dm/src/wrap.rs", &annotated)]);
    assert!(denies(&findings, "A1/default_forwarding").is_empty(), "{findings:?}");
    // ... but a reasonless annotation is itself a deny finding.
    let reasonless = format!("// analyzer: allow(default_forwarding)\n{}", bad.trim_start());
    let findings = analyze_memory(&[("mobiceal-dm", "crates/dm/src/wrap.rs", &reasonless)]);
    assert!(!denies(&findings, "A0/annotation").is_empty(), "{findings:?}");
}

#[test]
fn a1_ignores_test_only_devices() {
    let gated = format!("#[cfg(test)]\nmod tests {{\n{}\n}}\n", a1_bad());
    let findings = analyze_memory(&[("mobiceal-dm", "crates/dm/src/wrap.rs", &gated)]);
    assert!(denies(&findings, "A1/default_forwarding").is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------- A3

#[test]
fn a3_fires_on_unwrap_in_hot_path_module() {
    let bad = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let findings = analyze_memory(&[("mobiceal-thinp", "crates/thinp/src/pool.rs", bad)]);
    assert_eq!(denies(&findings, "A3/panic_freedom").len(), 1, "{findings:?}");
}

#[test]
fn a3_fires_on_panic_macro_but_not_in_tests() {
    let bad = "fn f() { panic!(\"boom\") }\n";
    let findings = analyze_memory(&[("mobiceal-blockdev", "crates/blockdev/src/engine.rs", bad)]);
    assert_eq!(denies(&findings, "A3/panic_freedom").len(), 1, "{findings:?}");
    let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { panic!(\"boom\") }\n}\n";
    let findings =
        analyze_memory(&[("mobiceal-blockdev", "crates/blockdev/src/engine.rs", in_test)]);
    assert!(denies(&findings, "A3/panic_freedom").is_empty(), "{findings:?}");
}

#[test]
fn a3_ignores_unwrap_or_and_non_designated_modules() {
    let fine = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n";
    let findings = analyze_memory(&[("mobiceal-thinp", "crates/thinp/src/pool.rs", fine)]);
    assert!(denies(&findings, "A3/panic_freedom").is_empty(), "{findings:?}");
    let elsewhere = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let findings =
        analyze_memory(&[("mobiceal-workloads", "crates/workloads/src/dd.rs", elsewhere)]);
    assert!(denies(&findings, "A3/panic_freedom").is_empty(), "{findings:?}");
}

#[test]
fn a3_annotated_unreachable_passes() {
    let annotated = "fn f(x: Option<u8>) -> u8 {\n    \
        // analyzer: allow(panic_freedom, reason = \"x is Some by construction\")\n    \
        x.unwrap()\n}\n";
    let findings = analyze_memory(&[("mobiceal-thinp", "crates/thinp/src/pool.rs", annotated)]);
    assert!(denies(&findings, "A3/panic_freedom").is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------- A5

#[test]
fn a5_fires_on_unjustified_unsafe_block() {
    let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    let findings = analyze_memory(&[("mobiceal-crypto", "crates/crypto/src/aes.rs", bad)]);
    assert_eq!(denies(&findings, "A5/safety_comment").len(), 1, "{findings:?}");
}

#[test]
fn a5_passes_with_adjacent_safety_comment() {
    let good = "fn f(p: *const u8) -> u8 {\n    \
        // SAFETY: caller hands a valid, aligned, initialized pointer.\n    \
        unsafe { *p }\n}\n";
    let findings = analyze_memory(&[("mobiceal-crypto", "crates/crypto/src/aes.rs", good)]);
    assert!(denies(&findings, "A5/safety_comment").is_empty(), "{findings:?}");
}

#[test]
fn a5_crate_level_attributes_are_required() {
    // An unsafe-free crate must forbid unsafe_code...
    let findings = analyze_memory(&[("clean", "crates/clean/src/lib.rs", "pub fn f() {}\n")]);
    let hits = denies(&findings, "A5/safety_comment");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(hits[0].message.contains("forbid"), "{}", hits[0].message);
    // ...and declaring it passes.
    let findings = analyze_memory(&[(
        "clean",
        "crates/clean/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f() {}\n",
    )]);
    assert!(denies(&findings, "A5/safety_comment").is_empty(), "{findings:?}");
    // An unsafe-using crate must deny unsafe_op_in_unsafe_fn.
    let findings = analyze_memory(&[(
        "hot",
        "crates/hot/src/lib.rs",
        "fn f(p: *const u8) -> u8 {\n    // SAFETY: valid by contract.\n    unsafe { *p }\n}\n",
    )]);
    let hits = denies(&findings, "A5/safety_comment");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(hits[0].message.contains("unsafe_op_in_unsafe_fn"), "{}", hits[0].message);
}

// ---------------------------------------------------------------- A6

#[test]
fn a6_warns_on_secret_named_value_in_charged_sink() {
    let bad = "fn f(&self) { let t = self.cost.cost(key_blocks, 1); self.clock.advance(t); }\n";
    let findings = analyze_memory(&[("mobiceal", "crates/core/src/pde_volume.rs", bad)]);
    let hits = warns(&findings, "A6/secret_taint");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(hits[0].message.contains("key_blocks"), "{}", hits[0].message);
    // Warn-level: the analyzer still exits clean unless --deny-warnings.
    assert!(findings.iter().all(|f| f.level != Level::Deny), "{findings:?}");
}

#[test]
fn a6_is_quiet_on_shape_only_arguments_and_annotated_sites() {
    let fine = "fn f(&self) { self.clock.advance(self.cost.cost(burst_len, 1)); }\n";
    let findings = analyze_memory(&[("mobiceal", "crates/core/src/pde_volume.rs", fine)]);
    assert!(warns(&findings, "A6/secret_taint").is_empty(), "{findings:?}");
    let reviewed = "fn f(&self) {\n    \
        // analyzer: allow(secret_taint, reason = \"count of key slots, not key material\")\n    \
        self.clock.advance(self.cost.cost(key_blocks, 1));\n}\n";
    let findings = analyze_memory(&[("mobiceal", "crates/core/src/pde_volume.rs", reviewed)]);
    assert!(warns(&findings, "A6/secret_taint").is_empty(), "{findings:?}");
}

// ------------------------------------------------------- real tree pins

fn real_workspace() -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Workspace::from_dir(&root).expect("workspace sources readable")
}

#[test]
fn workspace_is_clean() {
    let ws = real_workspace();
    let denies: Vec<_> = ws.analyze().into_iter().filter(|f| f.level == Level::Deny).collect();
    assert!(denies.is_empty(), "the tree must stay analyzer-clean:\n{denies:#?}");
}

#[test]
fn workspace_audits_all_blockdevice_impls() {
    // Pinned so the impl matcher can never silently stop seeing wrappers.
    assert_eq!(forwarding::audited_sites(&real_workspace()), 11);
}

#[test]
fn removing_the_caller_owned_read_from_a_real_wrapper_fires_a1() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../dm/src/linear.rs");
    let text = std::fs::read_to_string(&path).expect("linear.rs readable");
    let start = text.find("fn read_blocks_to").expect("linear.rs implements read_blocks_to");
    let open = start + text[start..].find('{').expect("method has a body");
    let mut depth = 0usize;
    let mut end = open;
    for (off, ch) in text[open..].char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    end = open + off + 1;
                    break;
                }
            }
            _ => {}
        }
    }
    assert!(end > open, "matched the method body");
    let mutated = format!("{}{}", &text[..start], &text[end..]);
    let findings = analyze_memory(&[("mobiceal-dm", "crates/dm/src/linear.rs", &mutated)]);
    let hits = denies(&findings, "A1/default_forwarding");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(hits[0].message.contains("read_blocks_to"), "{}", hits[0].message);
    // The unmutated file is clean — the finding is the mutation's doing.
    let findings = analyze_memory(&[("mobiceal-dm", "crates/dm/src/linear.rs", &text)]);
    assert!(denies(&findings, "A1/default_forwarding").is_empty(), "{findings:?}");
}
