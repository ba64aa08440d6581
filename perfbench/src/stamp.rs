//! The stamp every result carries: host, code and seeds.

use crate::workload::Seeds;

/// Print the stamp line: workload, seeds, host `nproc`, git rev (or
/// `none`), source digest and rustc version.
pub fn print(workload: &str, seeds: &Seeds, workers: usize, seconds: u64, trace: bool) {
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".into(), |s| s.trim().to_owned());
    println!(
        "# stamp workload={} seed={} fleet_seed={:#018x} nproc={workers} git_rev={} src_digest={:016x} rustc=\"{rustc}\" seconds={} trace={}",
        workload,
        seeds.workload,
        seeds.fleet,
        git_rev(),
        source_digest(),
        seconds,
        u8::from(trace),
    );
}

/// The checkout's commit, read from `.git` in the working directory;
/// `none` when the checkout is not a git repository.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .map(|l| l[..l.find(' ').unwrap_or(0)].to_owned())
                    })
            })
            .unwrap_or_default(),
        None => head.to_owned(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "none".into()
    } else {
        rev.to_owned()
    }
}

/// FNV-1a over the sorted paths and bytes of every Rust source and
/// manifest under `crates/` and `perfbench/`: identifies the code when
/// the checkout carries no git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.toml")];
    walk("crates".as_ref(), &mut files);
    walk("perfbench/src".as_ref(), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The host's aggregate CPU counters (`/proc/stat`, in clock ticks):
/// user, nice, system, idle, iowait, irq, softirq, steal.
pub fn cpu_ticks() -> Option<[u64; 8]> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let mut fields = stat.lines().next()?.split_whitespace().skip(1);
    let mut ticks = [0u64; 8];
    for t in &mut ticks {
        *t = fields.next()?.parse().ok()?;
    }
    Some(ticks)
}

/// Print the share of CPU time the hypervisor stole from this host
/// since `before`: a run with high steal ran on a slower machine.
pub fn print_steal(before: Option<[u64; 8]>) {
    if let (Some(a), Some(b)) = (before, cpu_ticks()) {
        let d: Vec<u64> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| y.saturating_sub(*x))
            .collect();
        let total: u64 = d.iter().sum();
        if total > 0 {
            println!(
                "# host: steal {:.1}% and idle {:.1}% of CPU time during the run",
                100.0 * d[7] as f64 / total as f64,
                100.0 * d[3] as f64 / total as f64
            );
        }
    }
}
