//! Process probes read from `/proc`: peak resident set size (`VmHWM`,
//! resettable through `/proc/self/clear_refs`) and process CPU time.

use std::fs;
use std::io;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. This is `USER_HZ`, which the Linux ABI fixes at 100
/// on every architecture the kernel exports these fields for.
const USER_HZ: f64 = 100.0;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Resets the process's peak RSS (`VmHWM`) to its current RSS, so the
/// next [`peak_rss_bytes`] reading covers only what runs in between.
///
/// # Errors
///
/// The write to `/proc/self/clear_refs` failed (no procfs, or a kernel
/// that refuses the `5` command).
pub fn reset_peak_rss() -> io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// Peak RSS of this process in bytes since start or the last
/// [`reset_peak_rss`].
///
/// # Errors
///
/// `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_bytes() -> io::Result<u64> {
    parse_vm_hwm(&fs::read_to_string("/proc/self/status")?)
}

/// Extracts `VmHWM` (reported in kB) from a `/proc/<pid>/status` text, in
/// bytes.
///
/// # Errors
///
/// No `VmHWM` line, or a value that is not a kB count.
pub fn parse_vm_hwm(status: &str) -> io::Result<u64> {
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or_else(|| invalid("no VmHWM line in /proc/self/status"))?;
    let kb: u64 = line
        .trim()
        .strip_suffix("kB")
        .ok_or_else(|| invalid(format!("VmHWM not in kB: {line:?}")))?
        .trim()
        .parse()
        .map_err(|e| invalid(format!("VmHWM {line:?}: {e}")))?;
    Ok(kb * 1024)
}

/// CPU time (user + system) consumed so far by all threads of this
/// process, in seconds, with the 10 ms resolution of `USER_HZ`.
///
/// # Errors
///
/// `/proc/self/stat` is unreadable or malformed.
pub fn cpu_seconds() -> io::Result<f64> {
    parse_cpu_seconds(&fs::read_to_string("/proc/self/stat")?)
}

/// Extracts `utime + stime` from a `/proc/<pid>/stat` line, in seconds.
/// The command name (field 2) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted after the last `)`.
///
/// # Errors
///
/// Fewer than 15 fields, or a non-numeric `utime`/`stime`.
pub fn parse_cpu_seconds(stat: &str) -> io::Result<f64> {
    let (_, rest) = stat
        .rsplit_once(')')
        .ok_or_else(|| invalid("no command name in /proc/self/stat"))?;
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .ok_or_else(|| invalid("/proc/self/stat has too few fields"))?
            .parse()
            .map_err(|e| invalid(format!("/proc/self/stat field {}: {e}", i + 3)))
    };
    let ticks = tick(11)? + tick(12)?;
    // Tick counts stay far below 2^53, so the conversion is exact.
    Ok(ticks as f64 / USER_HZ)
}
