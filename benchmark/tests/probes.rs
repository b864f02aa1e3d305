//! The `/proc` probes: `VmHWM` reset and read, and process CPU time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use decolor_benchmark::probe;

#[test]
fn vm_hwm_is_parsed_from_status_in_bytes() {
    let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1234 kB\nVmRSS:\t 1000 kB\n";
    assert_eq!(probe::parse_vm_hwm(status).unwrap(), 1234 * 1024);
    assert!(probe::parse_vm_hwm("VmRSS:\t 1000 kB\n").is_err());
    assert!(probe::parse_vm_hwm("VmHWM:\t 1000 MB\n").is_err());
}

#[test]
fn vm_hwm_reset_forgets_an_earlier_peak() {
    const BIG: usize = 64 << 20;
    probe::reset_peak_rss().expect("the kernel accepts clear_refs 5");
    let base = probe::peak_rss_bytes().unwrap();
    {
        let mut block = vec![0u8; BIG];
        for i in (0..BIG).step_by(4096) {
            block[i] = 1;
        }
        black_box(&block);
    }
    let high = probe::peak_rss_bytes().unwrap();
    assert!(
        high >= base + (BIG as u64) * 9 / 10,
        "peak {high} after touching 64 MiB over {base}"
    );
    probe::reset_peak_rss().unwrap();
    let after = probe::peak_rss_bytes().unwrap();
    assert!(
        after + (BIG as u64) / 2 <= high,
        "reset left the peak at {after} (was {high})"
    );
}

#[test]
fn cpu_seconds_are_parsed_after_the_command_name() {
    // The command name may hold spaces and parentheses.
    let stat = "1234 (a (b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100";
    assert!((probe::parse_cpu_seconds(stat).unwrap() - 3.0).abs() < 1e-9);
    assert!(probe::parse_cpu_seconds("1234 (x) R 1 2").is_err());
    assert!(probe::parse_cpu_seconds("no command name").is_err());
}

#[test]
fn cpu_seconds_advance_while_spinning() {
    let before = probe::cpu_seconds().unwrap();
    let start = Instant::now();
    let mut x = 1u64;
    while probe::cpu_seconds().unwrap() - before < 0.1 {
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "CPU time never advanced"
        );
        for _ in 0..100_000 {
            x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
    }
}
