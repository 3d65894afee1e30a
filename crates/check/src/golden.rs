//! The golden digest registry: pinned `--quick` outputs for every bench
//! bin, plus a SHA-256 manifest, under `results/golden/`.
//!
//! Each entry is the bin's full deterministic stdout at
//! `<name>.quick.txt` — committing the whole output (not just a hash)
//! makes a mismatch diagnosable in the gate log via a first-differing-
//! line diff, and makes golden churn reviewable in the PR diff. The
//! `MANIFEST.sha256` file pins each entry's digest so a hand-edited or
//! truncated golden is itself caught.
//!
//! Workflow: the `conformance` bin recomputes every output and diffs it
//! against this registry (`conformance gate`); an intentional behaviour
//! change re-pins with `conformance gate --bless`, and the reviewer sees
//! exactly which table rows moved.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use crate::sha256::sha256_hex;

/// Manifest file name inside the registry directory.
pub const MANIFEST: &str = "MANIFEST.sha256";

/// Outcome of checking one output against the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoldenStatus {
    /// Output matches the pinned golden and the manifest agrees.
    Match,
    /// No golden pinned yet for this name.
    Missing,
    /// Output (or the manifest) disagrees; `diag` holds a
    /// first-divergence diff ready for the gate log.
    Mismatch {
        /// Human-readable diagnosis.
        diag: String,
    },
}

/// A directory of pinned golden outputs plus their digest manifest.
#[derive(Debug, Clone)]
pub struct GoldenRegistry {
    dir: PathBuf,
}

impl GoldenRegistry {
    /// Registry rooted at `dir` (created lazily on first bless).
    pub fn open(dir: impl Into<PathBuf>) -> GoldenRegistry {
        GoldenRegistry { dir: dir.into() }
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File a golden entry lives at.
    pub fn path_for(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.quick.txt"))
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST)
    }

    /// Parsed manifest: entry file name → pinned SHA-256. Missing
    /// manifest reads as empty.
    pub fn manifest(&self) -> io::Result<BTreeMap<String, String>> {
        let text = match std::fs::read_to_string(self.manifest_path()) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
            Err(e) => return Err(e),
        };
        let mut map = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            // `<sha256>  <file>` — same shape sha256sum emits/accepts.
            if let Some((digest, file)) = line.split_once("  ") {
                map.insert(file.to_string(), digest.to_string());
            }
        }
        Ok(map)
    }

    /// Check one recomputed output against its pinned golden.
    pub fn check(&self, name: &str, output: &str) -> io::Result<GoldenStatus> {
        let path = self.path_for(name);
        let pinned = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(GoldenStatus::Missing),
            Err(e) => return Err(e),
        };
        if pinned != output {
            let diag = match hpcbd_obs::first_divergence(&pinned, output) {
                Some(d) => d.render(),
                // Byte-unequal but line-equal can only be a trailing
                // newline / CR difference.
                None => "outputs differ only in trailing whitespace/newlines".to_string(),
            };
            return Ok(GoldenStatus::Mismatch {
                diag: format!(
                    "{diag}\n  pinned sha256: {}\n  output sha256: {}",
                    sha256_hex(pinned.as_bytes()),
                    sha256_hex(output.as_bytes())
                ),
            });
        }
        // Output matches the file; the manifest must agree with both,
        // otherwise the registry itself was tampered with or half-updated.
        let file = format!("{name}.quick.txt");
        match self.manifest()?.get(&file) {
            Some(d) if *d == sha256_hex(output.as_bytes()) => Ok(GoldenStatus::Match),
            Some(d) => Ok(GoldenStatus::Mismatch {
                diag: format!(
                    "golden file matches but {MANIFEST} is stale for {file}:\n  \
                     manifest sha256: {d}\n  file sha256:     {}",
                    sha256_hex(output.as_bytes())
                ),
            }),
            None => Ok(GoldenStatus::Mismatch {
                diag: format!("golden file exists but {MANIFEST} has no entry for {file}"),
            }),
        }
    }

    /// Pin `output` as the golden for `name`: write the entry file and
    /// update its manifest line (manifest stays sorted by file name).
    pub fn bless(&self, name: &str, output: &str) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        std::fs::write(self.path_for(name), output)?;
        let file = format!("{name}.quick.txt");
        let mut manifest = self.manifest()?;
        manifest.insert(file, sha256_hex(output.as_bytes()));
        let mut text = String::new();
        for (f, d) in &manifest {
            text.push_str(&format!("{d}  {f}\n"));
        }
        std::fs::write(self.manifest_path(), text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A registry in a fresh temp directory, removed when dropped.
    struct Scratch(GoldenRegistry);

    impl std::ops::Deref for Scratch {
        type Target = GoldenRegistry;
        fn deref(&self) -> &GoldenRegistry {
            &self.0
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(self.0.dir());
        }
    }

    fn scratch_registry() -> Scratch {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hpcbd-golden-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(GoldenRegistry::open(dir))
    }

    #[test]
    fn bless_then_check_roundtrips() {
        let reg = scratch_registry();
        assert_eq!(
            reg.check("t1", "row 1\nrow 2\n").unwrap(),
            GoldenStatus::Missing
        );
        reg.bless("t1", "row 1\nrow 2\n").unwrap();
        assert_eq!(
            reg.check("t1", "row 1\nrow 2\n").unwrap(),
            GoldenStatus::Match
        );
    }

    #[test]
    fn mismatch_reports_first_divergent_line_and_digests() {
        let reg = scratch_registry();
        reg.bless("t1", "row 1\nrow 2\n").unwrap();
        match reg.check("t1", "row 1\nrow X\n").unwrap() {
            GoldenStatus::Mismatch { diag } => {
                assert!(diag.contains("line 2"), "diag: {diag}");
                assert!(diag.contains("row 2"), "diag: {diag}");
                assert!(diag.contains("row X"), "diag: {diag}");
                assert!(diag.contains("sha256"), "diag: {diag}");
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn stale_manifest_is_a_mismatch() {
        let reg = scratch_registry();
        reg.bless("t1", "a\n").unwrap();
        // Rewrite the golden file behind the manifest's back.
        std::fs::write(reg.path_for("t1"), "b\n").unwrap();
        match reg.check("t1", "b\n").unwrap() {
            GoldenStatus::Mismatch { diag } => {
                assert!(diag.contains("stale"), "diag: {diag}")
            }
            other => panic!("expected stale-manifest mismatch, got {other:?}"),
        }
    }

    #[test]
    fn manifest_stays_sorted_across_blesses() {
        let reg = scratch_registry();
        reg.bless("zeta", "z\n").unwrap();
        reg.bless("alpha", "a\n").unwrap();
        reg.bless("zeta", "z2\n").unwrap();
        let manifest = reg.manifest().unwrap();
        let files: Vec<&String> = manifest.keys().collect();
        assert_eq!(files, vec!["alpha.quick.txt", "zeta.quick.txt"]);
        assert_eq!(reg.check("zeta", "z2\n").unwrap(), GoldenStatus::Match);
        assert_eq!(reg.check("alpha", "a\n").unwrap(), GoldenStatus::Match);
    }
}
