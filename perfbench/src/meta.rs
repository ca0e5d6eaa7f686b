//! Run metadata: the host and build a measurement was taken on.

use std::process::Command;

/// Thread count the library fans out to: `SEIZURE_NUM_THREADS` when it
/// parses, else every available core, and never more than `nproc`.
pub fn thread_count(requested: Option<&str>, nproc: usize) -> usize {
    requested
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(nproc)
        .clamp(1, nproc.max(1))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Commit of the checkout the benchmark runs in, read from `.git` in the
/// working directory; `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(commit) = read(&format!(".git/{reference}")) {
        return commit.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|c| c.trim().to_string())
                    .filter(|c| !c.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_is_capped_by_nproc() {
        assert_eq!(thread_count(None, 4), 4);
        assert_eq!(thread_count(Some("2"), 4), 2);
        assert_eq!(thread_count(Some("16"), 4), 4);
        assert_eq!(thread_count(Some("0"), 4), 1);
        assert_eq!(thread_count(Some("many"), 4), 4);
    }
}
