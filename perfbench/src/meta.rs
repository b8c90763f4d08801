//! The host and revision stamp recorded with every result.

use std::fs;
use std::path::Path;

/// Number of host threads the OS offers this process (`nproc`).
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The git revision of the repository this benchmark belongs to, read
/// from its `.git` directly (no subprocess, nothing outside the
/// checkout), or `"unknown"` when the checkout is not a git work tree.
#[must_use]
pub fn git_revision() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    read_revision(&git).unwrap_or_else(|| "unknown".to_owned())
}

fn read_revision(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_owned());
    }
    // A packed ref: `<sha> <refname>` lines.
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| {
            let (sha, name) = l.split_once(' ')?;
            (name == reference).then(|| sha.to_owned())
        })
}

/// The run's metadata as one JSON object.
#[must_use]
pub fn json(workload: &str, seed: u64, seconds: u64, trace: bool, threads: usize) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"git_revision\":\"{}\",\"nproc\":{},\"threads\":{threads},\"rustc\":\"{}\"}}",
        git_revision(),
        nproc(),
        env!("PERFBENCH_RUSTC_VERSION"),
    )
}
