//! The host a result was taken on, and this process's CPU time and peak
//! memory as the kernel accounts them.

use std::process::Command;

use crate::json::Json;

/// Host and toolchain facts printed with every result: a number without the
/// box it was measured on cannot be compared with anything.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism()`.
    pub logical_cores: usize,
    /// First `model name` line of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The kernel's current clocksource (`tsc` makes an `Instant` read cheap).
    pub clocksource: String,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// `git rev-parse --short HEAD` of the checkout, `unknown` outside git.
    pub commit: String,
}

impl Host {
    /// Reads the host facts; anything unreadable becomes `unknown`.
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split(':').nth(1))
                    .map(|model| model.trim().to_string())
            })
            .unwrap_or_else(unknown);
        let clocksource = std::fs::read_to_string(
            "/sys/devices/system/clocksource/clocksource0/current_clocksource",
        )
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| unknown());
        // Only a checkout that is itself a git repository is asked: left to
        // search upwards, git would answer for whatever repository happens
        // to contain the directory the benchmark was copied into.
        let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        let commit = if std::path::Path::new(repo).join(".git").exists() {
            command_line("git", &["-C", repo, "rev-parse", "--short", "HEAD"])
        } else {
            unknown()
        };
        Host {
            logical_cores: available_cores(),
            cpu_model,
            clocksource,
            rustc: command_line("rustc", &["-V"]),
            commit,
        }
    }

    /// The host as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("logical_cores", Json::Num(self.logical_cores as f64)),
            ("cpu_model", Json::Str(self.cpu_model.clone())),
            ("clocksource", Json::Str(self.clocksource.clone())),
            ("rustc", Json::Str(self.rustc.clone())),
            ("commit", Json::Str(self.commit.clone())),
        ])
    }
}

fn unknown() -> String {
    "unknown".to_string()
}

/// First line of a command's standard output, `unknown` if it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(|line| line.trim().to_string()))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(unknown)
}

/// Logical cores this process may run on.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` needs libc; every
/// Linux ABI fixes `USER_HZ` at 100.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds this process has consumed, exited threads
/// included (fleet workers are joined before a run returns). Resolution is
/// one 10 ms tick, so difference it only across seconds of work.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The command name (field 2) may contain spaces; fields are counted from
    // the closing parenthesis: utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks =
        || -> f64 { fields.next().and_then(|f| f.parse().ok()).expect("stat has utime and stime") };
    (ticks() + ticks()) / CLOCK_TICKS_PER_SEC
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .expect("status has a VmHWM line");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readings_are_sane() {
        assert!(available_cores() >= 1);
        assert!(peak_rss_mib() > 0.0);
        let before = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_seconds() >= before);
        let host = Host::probe();
        assert_eq!(host.logical_cores, available_cores());
        assert!(!host.cpu_model.is_empty());
    }
}
